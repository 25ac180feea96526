"""Formal characters and Demazure operators on the weight lattice.

A Character is a finite integer combination of exponentials e^lam, stored
as a dict keyed by Weight with zero terms pruned.  The Demazure operator
is implemented by the closed string formula, never as a rational-function
quotient, so every value is exact:

    on e^lam with m = <lam, alpha_vee>:
        m >= 0:  e^lam + e^{lam-alpha} + ... + e^{lam-m*alpha}
        m == -1: 0
        m <= -2: -(e^{lam+alpha} + ... + e^{lam+(-m-1)*alpha})

For a word (i1,...,ik) the operator of the LAST letter applies first; this
orientation is pinned by regression tests and by the agreement of the full
w0 composition with the Freudenthal construction of irreducible characters.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from . import weyl
from .rootsys import RootSystem, Weight

__all__ = [
    "Character",
    "e",
    "demazure_op",
    "demazure_along_word",
    "char_sum",
    "adjoint_character",
    "freudenthal_char",
    "weyl_dim",
    "char_sorted_terms",
    "char_to_str",
]


class Character:
    """Finite formal sum of weight exponentials with integer multiplicities."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Weight, int] | None = None):
        self._terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls) -> "Character":
        return cls()

    @classmethod
    def _of_nonzero(cls, terms: dict[Weight, int]) -> "Character":
        """Wrap a dict that holds no zero multiplicity, without copying it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    def items(self) -> Iterator[tuple[Weight, int]]:
        return iter(self._terms.items())

    def multiplicity(self, lam: Weight) -> int:
        return self._terms.get(lam, 0)

    def dimension(self) -> int:
        """Sum of multiplicities (the virtual dimension)."""
        return sum(self._terms.values())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_effective(self) -> bool:
        """True iff every multiplicity is nonnegative."""
        return all(v >= 0 for v in self._terms.values())

    def termwise_leq(self, other: "Character") -> bool:
        return all(v <= other.multiplicity(k) for k, v in self._terms.items())

    def __add__(self, other: "Character") -> "Character":
        out = dict(self._terms)
        for k, v in other._terms.items():
            out[k] = out.get(k, 0) + v
        return Character(out)

    def __sub__(self, other: "Character") -> "Character":
        out = dict(self._terms)
        for k, v in other._terms.items():
            out[k] = out.get(k, 0) - v
        return Character(out)

    def __neg__(self) -> "Character":
        return Character({k: -v for k, v in self._terms.items()})

    def __mul__(self, k: int) -> "Character":
        return Character({w: k * v for w, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Character) and self._terms == other._terms

    def __hash__(self):  # pragma: no cover - characters are not dict keys
        raise TypeError("Character is unhashable")

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "Character(0)"
        parts = [f"{v}*e{list(k.fw)}" for k, v in list(self._terms.items())[:6]]
        more = "" if len(self._terms) <= 6 else f" ... ({len(self._terms)} terms)"
        return "Character(" + " + ".join(parts) + more + ")"


def e(lam: Weight, mult: int = 1) -> Character:
    """The exponential e^lam as a character."""
    return Character({lam: mult})


def demazure_op(rs: RootSystem, i: int, f: Character) -> Character:
    """Demazure operator for the i-th simple root, extended additively.

    The zero character comes back as it is.  Output terms that are roots
    reuse the root's own Weight, so the many characters a sweep keeps
    alive share their keys.
    """
    rs._check_index(i)
    if f.is_zero:
        return f
    k = i - 1
    alpha = rs.simple_roots[k].weight.fw
    out: dict[tuple[int, ...], int] = {}
    for lam, c in f._terms.items():
        fw = lam.fw
        m = fw[k]
        if m == -1:
            continue
        if m >= 0:
            cur = fw
            for _ in range(m + 1):
                out[cur] = out.get(cur, 0) + c
                cur = tuple(map(sub, cur, alpha))
        else:
            cur = tuple(map(add, fw, alpha))
            for _ in range(-m - 1):
                out[cur] = out.get(cur, 0) - c
                cur = tuple(map(add, cur, alpha))
    roots = rs._by_fw
    return Character._of_nonzero({(roots[t].weight if t in roots else Weight(t)): v
                                  for t, v in out.items() if v != 0})


def demazure_along_word(rs: RootSystem, word: Sequence[int], f: Character) -> Character:
    """Composite operator for a word; the last letter acts first.

    For reduced words the result depends only on the group element, which
    the word-independence tests check on random elements.
    """
    for i in word:
        rs._check_index(i)
    for i in reversed(word):
        f = demazure_op(rs, i, f)
    return f


def char_sum(fs: Iterable[Character]) -> Character:
    """Sum of characters into one accumulator, not one copy per addend."""
    out: dict[Weight, int] = {}
    for f in fs:
        for k, v in f._terms.items():
            out[k] = out.get(k, 0) + v
    return Character(out)


def adjoint_character(rs: RootSystem) -> Character:
    """Character of the adjoint representation: all roots plus rank * e^0."""
    terms = {r.weight: 1 for r in rs.roots}
    terms[rs.zero()] = rs.rank
    return Character(terms)


def _bilinear(rs: RootSystem, mu: Weight, nu: Weight) -> Fraction:
    """W-invariant symmetric form, normalized so short simple roots have (a,a)=2."""
    a = rs.root_coords(mu)
    b = rs.root_coords(nu)
    g = rs._gram
    n = rs.rank
    total = Fraction(0)
    for i in range(n):
        if a[i]:
            row = g[i]
            for j in range(n):
                if b[j]:
                    total += a[i] * b[j] * row[j]
    return total


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Weyl dimension formula, evaluated exactly over the positive roots."""
    if not lam.is_dominant:
        raise ValueError("weyl_dim requires a dominant weight")
    num = 1
    den = 1
    shifted = lam + rs.rho
    for beta in rs.positive_roots:
        num *= rs.pairing_root(shifted, beta)
        den *= rs.pairing_root(rs.rho, beta)
    dim = Fraction(num, den)
    if dim.denominator != 1:
        raise AssertionError("Weyl dimension is not an integer")
    return int(dim)


def _weyl_orbit(rs: RootSystem, lam: Weight) -> list[Weight]:
    seen = {lam.fw: lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(1, rs.rank + 1):
                img = rs.reflect_simple(mu, i)
                if img.fw not in seen:
                    seen[img.fw] = img
                    nxt.append(img)
        frontier = nxt
    return list(seen.values())


def freudenthal_char(rs: RootSystem, lam: Weight) -> Character:
    """Irreducible character for dominant lam via Freudenthal's recursion.

    Completely independent of the Demazure machinery: multiplicities come
    from the recursive formula on dominant weights and spread over Weyl
    orbits.  Serves as the oracle against demazure_along_word(w0).
    """
    if not lam.is_dominant:
        raise ValueError("freudenthal_char requires a dominant weight")
    w0 = weyl.longest_element(rs)
    lowest = w0.apply(lam)
    span = rs.root_coords(lam - lowest)
    bounds = []
    for x in span:
        if x.denominator != 1 or x < 0:
            raise AssertionError("weight span is not a nonnegative root vector")
        bounds.append(int(x))

    simple_weights = [r.weight for r in rs.simple_roots]
    dominant: list[tuple[int, Weight]] = []
    for combo in _cartesian(*(range(b + 1) for b in bounds)):
        mu = lam
        for c, alpha in zip(combo, simple_weights):
            if c:
                mu = mu - c * alpha
        if mu.is_dominant:
            dominant.append((sum(combo), mu))
    dominant.sort(key=lambda t: (t[0], t[1].fw))

    rho = rs.rho
    top_norm = _bilinear(rs, lam + rho, lam + rho)
    mult: dict[tuple[int, ...], int] = {}
    for depth, mu in dominant:
        if depth == 0:
            mult[mu.fw] = 1
            continue
        acc = Fraction(0)
        for beta in rs.positive_roots:
            k = 1
            while True:
                nu = mu + k * beta.weight
                if not rs.dominance_leq(nu, lam):
                    break
                m = mult.get(rs.dominant_representative(nu).fw, 0)
                if m:
                    acc += m * _bilinear(rs, nu, beta.weight)
                k += 1
        den = top_norm - _bilinear(rs, mu + rho, mu + rho)
        if den <= 0:
            raise AssertionError("Freudenthal denominator must be positive")
        val = 2 * acc / den
        if val.denominator != 1 or val < 0:
            raise AssertionError(f"non-integral Freudenthal multiplicity {val}")
        if val:
            mult[mu.fw] = int(val)

    terms: dict[Weight, int] = {}
    for fw, m in mult.items():
        for nu in _weyl_orbit(rs, Weight(fw)):
            terms[nu] = m
    return Character(terms)


def char_sorted_terms(rs: RootSystem, f: Character) -> list[tuple[Weight, int]]:
    """Terms in the canonical report order: by height, then fw coordinates."""
    return sorted(f.items(), key=lambda kv: (rs.height(kv[0]), kv[0].fw))


def char_to_str(rs: RootSystem, f: Character) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for w, m in char_sorted_terms(rs, f):
        parts.append(f"{m}*e{list(w.fw)}")
    return " + ".join(parts)
