"""Weyl groups acting on the weight lattice.

Elements are integer matrices acting on fundamental-weight coordinates;
equality and hashing go through the matrix, never through words, so
different reduced expressions of the same element collide as they should.
Canonical reduced words peel the smallest-index right descent, which makes
every enumeration in the engine deterministic.

Column j of the matrix is w(omega_j), so right multiplication by a simple
reflection changes one column and costs O(n^2) (``times_simple``); every
walk along a word uses that step.  Left multiplication changes the rows of
i and its Dynkin neighbours (``simple_times``), the step down the left
weak order that the Demazure sweeps take.  ``__mul__`` is left for
general products.  ``enumerate_group`` gives each element its canonical
word from its BFS parent and links it to its enumerated inverse; any
other element inverts by its reversed word, so no rational arithmetic
touches a group element.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from operator import mul
from typing import Iterable, Iterator, Sequence

from .report import DEFAULT_GUARD, GUARD_ENV_VAR, GuardExceeded, resolve_guard
from .rootsys import Root, RootSystem, Weight

__all__ = [
    "WeylElement",
    "GuardExceeded",
    "DEFAULT_GUARD",
    "GUARD_ENV_VAR",
    "resolve_guard",
    "identity",
    "simple_reflection",
    "from_word",
    "longest_element",
    "min_parabolic_rep",
    "enumerate_group",
    "bruhat_leq",
    "coxeter_elements",
]

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
        cols = tuple(zip(*other.matrix))
        return WeylElement(self.rs, tuple(
            tuple(sum(map(mul, row, col)) for col in cols) for row in self.matrix))

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
        """w^-1: the enumerated element when ``enumerate_group`` made w.

        Any other element (a Coxeter element, a product) inverts by its
        reversed canonical word, checked by w * w^-1 = e.
        """
        if self._inverse is None:
            inv = from_word(self.rs, reversed(self.reduced_word()))
            if not (self * inv).is_identity:
                raise AssertionError("reversed word does not invert the element")
            self._inverse = inv
            inv._inverse = self
        return self._inverse

    def times_simple(self, i: int, image: tuple[int, ...] | None = None) -> "WeylElement":
        """w * s_i in O(n^2): column i of the matrix becomes col_i - w(alpha_i).

        ``image`` is w(alpha_i) in fw coordinates when the caller already
        has it from a descent test.
        """
        if image is None:
            image = self._simple_image(i)
        k = i - 1
        return WeylElement(self.rs, tuple(
            row[:k] + (row[k] - v,) + row[k + 1:]
            for row, v in zip(self.matrix, image)))

    def simple_times(self, i: int) -> "WeylElement":
        """s_i * w in O(n^2): row a becomes row_a - C[a][i-1] * row_{i-1}.

        Only the rows a with C[a][i-1] != 0 change, the neighbours of i in
        the Dynkin diagram and row i-1 itself.
        """
        k = i - 1
        pivot = self.matrix[k]
        return WeylElement(self.rs, tuple(
            tuple(x - c[k] * y for x, y in zip(row, pivot)) if c[k] else row
            for row, c in zip(self.matrix, self.rs.cartan)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return self._hash

    # -- action ---------------------------------------------------------------

    def act(self, fw: tuple[int, ...]) -> tuple[int, ...]:
        """w(lam) on bare fw coordinates, the form every engine path uses."""
        return tuple(sum(map(mul, row, fw)) for row in self.matrix)

    def apply(self, lam: Weight) -> Weight:
        return Weight(self.act(lam.fw))

    def apply_root(self, beta: Root) -> Root:
        img = self.rs._by_fw.get(self.act(beta.weight.fw))
        if img is None:
            raise AssertionError("Weyl image of a root is not a root")
        return img

    def dot(self, lam: Weight) -> Weight:
        """Affine dot action w . lam = w(lam + rho) - rho."""
        return self.apply(lam + self.rs.rho) - self.rs.rho

    # -- combinatorics ---------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return self.matrix == _identity_matrix(len(self.matrix))

    def _simple_image(self, i: int) -> tuple[int, ...]:
        """w(alpha_i) in fw coordinates."""
        return self.act(self.rs.simple_roots[i - 1].weight.fw)

    def _descent_image(self, i: int) -> tuple[int, ...] | None:
        """w(alpha_i) when i is a right descent of w, else None."""
        image = self._simple_image(i)
        return None if self.rs._by_fw[image].positive else image

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word: repeatedly peel the smallest right descent."""
        if self._word is None:
            rev: list[int] = []
            cur = self
            while True:
                for i in range(1, self.rs.rank + 1):
                    image = cur._descent_image(i)
                    if image is not None:
                        rev.append(i)
                        cur = cur.times_simple(i, image)
                        break
                else:
                    break
            if not cur.is_identity:
                raise AssertionError("non-identity element without descent")
            self._word = tuple(reversed(rev))
        return self._word

    @property
    def length(self) -> int:
        return len(self.reduced_word())

    def inversion_set(self) -> frozenset[Root]:
        """{beta in R+ : w(beta) in R-}; its size equals l(w)."""
        return frozenset(beta for beta in self.rs.positive_roots
                         if not self.apply_root(beta).positive)

    def __repr__(self) -> str:
        return f"W[{','.join(map(str, self.reduced_word())) or 'e'}]"


@lru_cache(maxsize=None)
def _identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, _identity_matrix(rs.rank))


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


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Product s_{i1} s_{i2} ... s_{in} for word (i1,...,in), 1-based letters.

    Applied to a weight, the last letter acts first, matching ordinary
    composition of the factors as written.
    """
    out = identity(rs)
    for i in word:
        rs._check_index(i)
        out = out.times_simple(i)
    return out


def _climb(rs: RootSystem, letters: Sequence[int]) -> WeylElement:
    """Longest element of the subgroup generated by ``letters``.

    Steps along the first ascent among the letters until none is left.
    """
    cur = identity(rs)
    while True:
        for i in letters:
            image = cur._simple_image(i)
            if rs._by_fw[image].positive:
                cur = cur.times_simple(i, image)
                break
        else:
            return cur


def longest_element(rs: RootSystem) -> WeylElement:
    """w0, found by climbing ascents; length must equal |R+|."""
    if rs._w0 is None:
        cur = _climb(rs, range(1, rs.rank + 1))
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
    w0p = _climb(rs, [j for j in range(1, rs.rank + 1) if j != i])
    w = longest_element(rs) * w0p
    alpha = rs.simple_roots[i - 1]
    expected = frozenset(b for b in rs.positive_roots
                         if rs.dominance_leq(alpha.weight, b.weight))
    if w.inversion_set() != expected:
        raise AssertionError(f"w_alpha inversion set mismatch for alpha_{i}")
    return w


def enumerate_group(rs: RootSystem, guard: int | None = None) -> Iterator[WeylElement]:
    """Every element exactly once, ordered by (length, canonical word).

    Breadth-first by length, stepping only along ascents, so layer k holds
    exactly the elements of length k.  A new element v gets its canonical
    word from its parent: word(v) = word(v s_d) + (d,) for d the smallest
    right descent of v, with v s_d looked up in the previous layer.  Once a
    layer is complete, each element is linked to its inverse in the same
    layer, v^-1 = s_d (v s_d)^-1, and every link is checked on rho.

    Raises GuardExceeded when |W| is larger than the guard (explicit
    argument, else the SCHUBERT_GUARD environment variable, else 10**6).
    """
    limit = resolve_guard(guard)
    order = rs.ct.weyl_order
    if order > limit:
        raise GuardExceeded(
            f"|W({rs.ct})| = {order} exceeds guard {limit}")
    e = identity(rs)
    e._word = ()
    e._inverse = e
    rho = rs.rho.fw
    elements = [e]
    layer = {e.matrix: e}
    while layer:
        nxt: dict[tuple, WeylElement] = {}
        parents: list[tuple[WeylElement, WeylElement]] = []
        for w in layer.values():
            for i in range(1, rs.rank + 1):
                image = w._simple_image(i)
                if not rs._by_fw[image].positive:
                    continue
                v = w.times_simple(i, image)
                if v.matrix in nxt:
                    continue
                # i is a descent of v; a smaller one names another parent
                d, parent = i, w
                for j in range(1, i):
                    image = v._descent_image(j)
                    if image is not None:
                        d, parent = j, layer[v.times_simple(j, image).matrix]
                        break
                v._word = parent._word + (d,)
                nxt[v.matrix] = v
                parents.append((v, parent))
        for v, parent in parents:
            if v._inverse is None:
                inv = nxt.get(parent._inverse.simple_times(v._word[-1]).matrix)
                # rho is regular, so only e fixes it; v(rho) is v's row sums
                if inv is None or inv.act(tuple(map(sum, v.matrix))) != rho:
                    raise AssertionError(f"no enumerated inverse for {v._word}")
                v._inverse = inv
                inv._inverse = v
        elements.extend(sorted(nxt.values(), key=lambda w: w._word))
        layer = nxt
    if len(elements) != order:
        raise AssertionError(f"enumerated {len(elements)} elements, expected {order}")
    return iter(elements)


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the lifting property (Bjorner-Brenti, Prop. 2.2.7).

    For a right descent s of w: if s is a right descent of u too, then
    u <= w iff us <= ws, and otherwise u <= w iff u <= ws.  The letters of
    w's canonical word, read from the right, are successive right descents
    of the shrinking w, so each step is one descent test and one or two
    O(n^2) column updates; lengths are carried along, never recomputed.
    """
    word = w.reduced_word()
    lu = u.length
    for lw in range(len(word), 0, -1):
        if lu == 0:
            return True
        if lu >= lw:
            return lu == lw and u == w
        i = word[lw - 1]
        image = u._descent_image(i)
        if image is not None:
            u = u.times_simple(i, image)
            lu -= 1
        w = w.times_simple(i)
    return lu == 0


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
    """Smallest k >= 1 with w^k = e, the first return of rho (only e fixes
    the regular rho); k divides |W|, so |W| bounds the loop."""
    bound = w.rs.ct.weyl_order
    rho = w.rs.rho.fw
    cur = w.act(rho)
    for k in range(1, bound + 1):
        if cur == rho:
            return k
        cur = w.act(cur)
    raise AssertionError(f"element order exceeds |W| = {bound}")
