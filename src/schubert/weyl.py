"""Weyl groups acting on the weight lattice.

Elements are integer matrices acting on fundamental-weight coordinates;
equality and hashing go through the matrix, never through words, so
different reduced expressions of the same element collide as they should.
Canonical reduced words peel the smallest-index right descent, which makes
every enumeration in the engine deterministic.
"""

from __future__ import annotations

import os
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .rootsys import Root, RootSystem, Weight, _invert_rational

__all__ = [
    "WeylElement",
    "GuardExceeded",
    "DEFAULT_GUARD",
    "identity",
    "simple_reflection",
    "from_word",
    "longest_element",
    "min_parabolic_rep",
    "enumerate_group",
    "bruhat_leq",
    "coxeter_elements",
    "reduced_words",
]

DEFAULT_GUARD = 10 ** 6
GUARD_ENV_VAR = "SCHUBERT_GUARD"


class GuardExceeded(RuntimeError):
    """Raised when a requested enumeration would exceed the |W| guard."""


def resolve_guard(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(GUARD_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{GUARD_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_GUARD


class WeylElement:
    """One Weyl-group element, represented by its action on fw coordinates."""

    __slots__ = ("rs", "matrix", "_hash", "_word", "_inverse")

    def __init__(self, rs: RootSystem, matrix: tuple[tuple[int, ...], ...]):
        self.rs = rs
        self.matrix = matrix
        self._hash = hash(matrix)
        self._word: tuple[int, ...] | None = None
        self._inverse: "WeylElement | None" = None

    # -- group structure ----------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        a, b = self.matrix, other.matrix
        n = len(a)
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n))
        return WeylElement(self.rs, prod)

    def __pow__(self, k: int) -> "WeylElement":
        if k < 0:
            return self.inverse() ** (-k)
        result = identity(self.rs)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "WeylElement":
        if self._inverse is None:
            inv = _invert_rational(self.matrix)
            if any(v.denominator != 1 for row in inv for v in row):
                raise AssertionError("non-integral Weyl matrix inverse")
            self._inverse = WeylElement(
                self.rs, tuple(tuple(int(v) for v in row) for row in inv))
            self._inverse._inverse = self
        return self._inverse

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return self._hash

    # -- action ---------------------------------------------------------------

    def apply(self, lam: Weight) -> Weight:
        m = self.matrix
        fw = lam.fw
        n = len(m)
        return Weight(tuple(sum(m[i][j] * fw[j] for j in range(n) if fw[j])
                            for i in range(n)))

    def apply_root(self, beta: Root) -> Root:
        img = self.rs._by_fw.get(self.apply(beta.weight).fw)
        if img is None:
            raise AssertionError("Weyl image of a root is not a root")
        return img

    def dot(self, lam: Weight) -> Weight:
        """Affine dot action w . lam = w(lam + rho) - rho."""
        return self.apply(lam + self.rs.rho) - self.rs.rho

    # -- combinatorics ---------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        n = len(self.matrix)
        return self.matrix == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    def has_right_descent(self, i: int) -> bool:
        """True iff l(w s_i) < l(w), i.e. w(alpha_i) is negative."""
        img = self.apply(self.rs.simple_roots[i - 1].weight)
        root = self.rs._by_fw[img.fw]
        return not root.positive

    def right_descents(self) -> list[int]:
        return [i for i in range(1, self.rs.rank + 1) if self.has_right_descent(i)]

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word: repeatedly peel the smallest right descent."""
        if self._word is None:
            rev: list[int] = []
            cur = self
            while not cur.is_identity:
                descents = cur.right_descents()
                if not descents:
                    raise AssertionError("non-identity element without descent")
                i = descents[0]
                rev.append(i)
                cur = cur * simple_reflection(self.rs, i)
            self._word = tuple(reversed(rev))
        return self._word

    @property
    def length(self) -> int:
        return len(self.reduced_word())

    def inversion_set(self) -> frozenset[Root]:
        """{beta in R+ : w(beta) in R-}; its size equals l(w)."""
        out = []
        for beta in self.rs.positive_roots:
            if not self.apply_root(beta).positive:
                out.append(beta)
        return frozenset(out)

    def __repr__(self) -> str:
        return f"W[{','.join(map(str, self.reduced_word())) or 'e'}]"


def identity(rs: RootSystem) -> WeylElement:
    n = rs.rank
    return WeylElement(rs, tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """s_i acting on fw coordinates: lam -> lam - lam[i] alpha_i."""
    rs._check_index(i)
    n = rs.rank
    k = i - 1
    mat = tuple(
        tuple((1 if a == b else 0) - (rs.cartan[a][k] if b == k else 0)
              for b in range(n))
        for a in range(n))
    return WeylElement(rs, mat)


def from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """Product s_{i1} s_{i2} ... s_{in} for word (i1,...,in), 1-based letters.

    Applied to a weight, the last letter acts first, matching ordinary
    composition of the factors as written.
    """
    out = identity(rs)
    for i in word:
        out = out * simple_reflection(rs, i)
    return out


def longest_element(rs: RootSystem) -> WeylElement:
    """w0, found by climbing ascents; length must equal |R+|."""
    if rs._w0 is None:
        cur = identity(rs)
        while True:
            for i in range(1, rs.rank + 1):
                if not cur.has_right_descent(i):
                    cur = cur * simple_reflection(rs, i)
                    break
            else:
                break
        if len(cur.inversion_set()) != len(rs.positive_roots):
            raise AssertionError("w0 search terminated early")
        rs._w0 = cur
    return rs._w0


def min_parabolic_rep(rs: RootSystem, i: int) -> WeylElement:
    """Minimal representative w_alpha of w0 modulo the parabolic dropping alpha_i.

    Computed as w0 * w0P where w0P is the longest element of the subgroup
    generated by the other simple reflections.  Post-condition (asserted):
    the inversion set is exactly {beta in R+ : alpha_i <= beta}.
    """
    rs._check_index(i)
    w0p = identity(rs)
    letters = [j for j in range(1, rs.rank + 1) if j != i]
    while True:
        for j in letters:
            if not w0p.has_right_descent(j):
                w0p = w0p * simple_reflection(rs, j)
                break
        else:
            break
    w = longest_element(rs) * w0p
    alpha = rs.simple_roots[i - 1]
    expected = frozenset(b for b in rs.positive_roots
                         if rs.dominance_leq(alpha.weight, b.weight))
    if w.inversion_set() != expected:
        raise AssertionError(f"w_alpha inversion set mismatch for alpha_{i}")
    return w


def enumerate_group(rs: RootSystem, guard: int | None = None) -> Iterator[WeylElement]:
    """Every element exactly once, ordered by (length, canonical word).

    Raises GuardExceeded when |W| is larger than the guard (explicit
    argument, else the SCHUBERT_GUARD environment variable, else 10**6).
    """
    limit = resolve_guard(guard)
    order = rs.ct.weyl_order
    if order > limit:
        raise GuardExceeded(
            f"|W({rs.ct})| = {order} exceeds guard {limit}")
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    seen = {identity(rs).matrix}
    frontier = [identity(rs)]
    elements = [identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = w * s
                if ws.matrix not in seen:
                    seen.add(ws.matrix)
                    nxt.append(ws)
        elements.extend(nxt)
        frontier = nxt
    if len(elements) != order:
        raise AssertionError(f"enumerated {len(elements)} elements, expected {order}")
    elements.sort(key=lambda w: (w.length, w.reduced_word()))
    return iter(elements)


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the standard lifting recursion."""
    rs = u.rs
    key = (u.matrix, w.matrix)
    cached = rs._bruhat_cache.get(key)
    if cached is not None:
        return cached
    if u.is_identity:
        result = True
    elif u.length > w.length:
        result = False
    elif u.length == w.length:
        result = u == w
    else:
        i = next(i for i in range(1, rs.rank + 1)
                 if w.inverse().has_right_descent(i))
        s = simple_reflection(rs, i)
        sw = s * w
        su = s * u
        if su.length < u.length:
            result = bruhat_leq(su, sw)
        else:
            result = bruhat_leq(u, sw)
    rs._bruhat_cache[key] = result
    return result


def coxeter_elements(rs: RootSystem) -> list[tuple[WeylElement, tuple[int, ...]]]:
    """Distinct Coxeter elements with the lex-first word that produced each.

    Built from every permutation of the simple reflections and deduplicated
    by matrix, so the list order is deterministic.
    """
    found: dict[tuple, tuple[WeylElement, tuple[int, ...]]] = {}
    for perm in permutations(range(1, rs.rank + 1)):
        c = from_word(rs, perm)
        if c.matrix not in found:
            found[c.matrix] = (c, perm)
    return list(found.values())


def element_order(w: WeylElement) -> int:
    cur = w
    k = 1
    while not cur.is_identity:
        cur = cur * w
        k += 1
        if k > 10 ** 6:
            raise AssertionError("order computation runaway")
    return k


def reduced_words(w: WeylElement) -> Iterator[tuple[int, ...]]:
    """All reduced words of w, lazily, in descent-lex order."""
    if w.is_identity:
        yield ()
        return
    for i in w.right_descents():
        shorter = w * simple_reflection(w.rs, i)
        for sub in reduced_words(shorter):
            yield sub + (i,)
