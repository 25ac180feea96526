"""Formal characters and Demazure operators on the weight lattice.

A Character is a finite integer combination of exponentials e^lam, stored
as a dict keyed by fw tuples with zero terms pruned; ``Weight`` appears
only where a caller hands one in or asks for one back (``e``, the
constructor, ``multiplicity``, ``items``, ``char_sorted_terms``).  The
Demazure operator is implemented by the closed string formula, never as a
rational-function quotient, so every value is exact:

    on e^lam with m = <lam, alpha_vee>:
        m >= 0:  e^lam + e^{lam-alpha} + ... + e^{lam-m*alpha}
        m == -1: 0
        m <= -2: -(e^{lam+alpha} + ... + e^{lam+(-m-1)*alpha})

For a word (i1,...,ik) the operator of the LAST letter applies first; this
orientation is pinned by regression tests and by the agreement of the full
w0 composition with the Freudenthal construction of irreducible characters
(a test oracle).
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, Iterator, Sequence

from .rootsys import RootSystem, Weight

__all__ = [
    "Character",
    "e",
    "demazure_op",
    "demazure_along_word",
    "char_sum",
    "adjoint_character",
    "char_sorted_terms",
    "char_to_str",
]


class Character:
    """Finite formal sum of weight exponentials with integer multiplicities."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Weight, int] | None = None):
        self._terms = {k.fw: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls) -> "Character":
        return cls()

    @classmethod
    def _from_fw(cls, terms: dict[tuple[int, ...], int]) -> "Character":
        """A character from an fw-keyed dict, zero multiplicities dropped."""
        out = cls.__new__(cls)
        out._terms = {k: v for k, v in terms.items() if v}
        return out

    def items(self) -> Iterator[tuple[Weight, int]]:
        return ((Weight(k), v) for k, v in self._terms.items())

    def multiplicity(self, lam: Weight) -> int:
        return self._terms.get(lam.fw, 0)

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
        theirs = other._terms
        return all(v <= theirs.get(k, 0) for k, v in self._terms.items())

    def _combine(self, other: "Character", sign: int) -> "Character":
        out = dict(self._terms)
        for k, v in other._terms.items():
            out[k] = out.get(k, 0) + sign * v
        return Character._from_fw(out)

    def __add__(self, other: "Character") -> "Character":
        return self._combine(other, 1)

    def __sub__(self, other: "Character") -> "Character":
        return self._combine(other, -1)

    def __neg__(self) -> "Character":
        return self * -1

    def __mul__(self, k: int) -> "Character":
        return Character._from_fw({w: k * v for w, v in self._terms.items()})

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
        parts = [f"{v}*e{list(k)}" for k, v in list(self._terms.items())[:6]]
        more = "" if len(self._terms) <= 6 else f" ... ({len(self._terms)} terms)"
        return "Character(" + " + ".join(parts) + more + ")"


def e(lam: Weight, mult: int = 1) -> Character:
    """The exponential e^lam as a character."""
    return Character({lam: mult})


def demazure_op(rs: RootSystem, i: int, f: Character) -> Character:
    """Demazure operator for the i-th simple root, extended additively.

    The zero character comes back as it is.
    """
    rs._check_index(i)
    if f.is_zero:
        return f
    k = i - 1
    alpha = rs.simple_roots[k].weight.fw
    out: dict[tuple[int, ...], int] = {}
    for fw, c in f._terms.items():
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
    return Character._from_fw(out)


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
    out: dict[tuple[int, ...], int] = {}
    for f in fs:
        for k, v in f._terms.items():
            out[k] = out.get(k, 0) + v
    return Character._from_fw(out)


def adjoint_character(rs: RootSystem) -> Character:
    """Character of the adjoint representation: all roots plus rank * e^0."""
    terms = {r.weight: 1 for r in rs.roots}
    terms[rs.zero()] = rs.rank
    return Character(terms)


def char_sorted_terms(rs: RootSystem, f: Character) -> list[tuple[Weight, int]]:
    """Terms in the canonical report order: by height, then fw coordinates.

    The key is D times the height (``RootSystem.scaled_height``), an
    integer with the same order as the rational height.
    """
    height = rs.scaled_height
    return [(Weight(fw), m) for fw, m in
            sorted(f._terms.items(), key=lambda kv: (height(kv[0]), kv[0]))]


def char_to_str(rs: RootSystem, f: Character) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for w, m in char_sorted_terms(rs, f):
        parts.append(f"{m}*e{list(w.fw)}")
    return " + ".join(parts)
