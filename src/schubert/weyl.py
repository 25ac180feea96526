"""Weyl groups acting on the weight lattice.

An element w is its column heights H = (D ht w(omega_1), ..., D ht
w(omega_n)), D the denominator of the inverse Cartan matrix.  H is D times
the coroot coordinates of w^-1(rho^vee), and rho^vee is regular, so H is a
faithful key: equality and hashing compare H, never words, so different
reduced expressions of the same element collide as they should.  H carries
every descent test:

  * D ht w(alpha_k) = sum_j C[j][k] H_j reads at most four Dynkin
    neighbours, and k is a right descent of w iff it is negative
    (Bjorner-Brenti, ch. 4);
  * H(w s_k) differs from H(w) in H_k alone, which drops by D ht w(alpha_k);
  * on x = (D ht w(alpha_k))_k itself, w s_d negates x_d and changes x_k
    by -C[d][k] x_d at the Dynkin neighbours k of d alone.

Canonical reduced words peel the smallest-index right descent on x, which
makes every enumeration in the engine deterministic.  Words, lengths,
Bruhat comparisons, the climbs to w0 and products u v (u's heights stepped
along v's canonical word) all walk on H.  The action on fw coordinates
applies the canonical word letter by letter, each letter touching at most
four coordinates, and a heights tuple that names no element has no
canonical word, so it is refused there.  ``walk`` is the one walk of the
group, depth first along the canonical words of the inverses, stepping H
and a caller's payload; ``enumerate_group`` is its elements, sorted.
Elements invert by their reversed canonical word, so no rational
arithmetic touches a group element.  A Coxeter element depends only on
its Dynkin orientation (``orientation``), so ``coxeter_elements`` builds
one per orientation, 2^(n-1) of them, and reads no permutation.  The
semistability criterion ``ss_nonempty`` is one root action.  The |W|
guard comes from ``rootsys``.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from itertools import product
from operator import add, mul, neg
from typing import Callable, Iterable, Iterator, Sequence

from .rootsys import GuardExceeded, Root, RootSystem, Weight, resolve_guard

__all__ = [
    "WeylElement",
    "identity",
    "from_word",
    "longest_element",
    "min_parabolic_rep",
    "enumerate_group",
    "bruhat_leq",
    "coxeter_elements",
    "ss_nonempty",
]

class WeylElement:
    """One Weyl-group element, represented by its column heights H (passed
    in by a caller that has stepped them), with its canonical word cached
    on first use."""

    __slots__ = ("rs", "heights", "_word")

    def __init__(self, rs: RootSystem, heights: tuple[int, ...]):
        self.rs = rs
        self.heights = heights
        self._word: tuple[int, ...] | None = None

    # -- group structure ----------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """u v: u's heights stepped along v's canonical word, u -> u s_i
        per letter."""
        h = self.heights
        cols = self.rs._simple_columns
        for i in other.reduced_word():
            h = _reflect(h, i - 1, _root_height(h, cols[i - 1]))
        return WeylElement(self.rs, h)

    def inverse(self) -> "WeylElement":
        """w^-1, by the reversed canonical word, checked by w w^-1 = e on
        rho: rho is regular, so only e fixes it."""
        inv = from_word(self.rs, reversed(self.reduced_word()))
        rho = self.rs.rho.fw
        if self.act(inv.act(rho)) != rho:
            raise AssertionError("reversed word does not invert the element")
        return inv

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.heights == other.heights

    def __hash__(self) -> int:
        return hash(self.heights)

    # -- action ---------------------------------------------------------------

    def act(self, fw: tuple[int, ...]) -> tuple[int, ...]:
        """w(lam) on bare fw coordinates, the form every engine path uses:
        the canonical word's letters from the right, s_i(lam) = lam -
        lam_i alpha_i on the at most four entries of column i of C."""
        lam = list(fw)
        cols = self.rs._simple_columns
        for i in reversed(self.reduced_word()):
            m = lam[i - 1]
            if m:
                for j, c in cols[i - 1]:
                    lam[j] -= c * m
        return tuple(lam)

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

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word: repeatedly peel the smallest right
        descent d, on x_k = D ht w(alpha_k) alone: w s_d negates x_d and
        takes C[d][k] x_d from each Dynkin neighbour x_k."""
        if self._word is None:
            rs = self.rs
            h = self.heights
            x = [_root_height(h, col) for col in rs._simple_columns]
            rows = rs._simple_rows
            rev: list[int] = []
            while True:
                for d, xd in enumerate(x):
                    if xd < 0:
                        break
                else:
                    break
                rev.append(d + 1)
                for k, c in rows[d]:
                    x[k] -= c * xd
            if x != [rs._den] * rs.rank:  # x(e): every simple root has height 1
                raise AssertionError("non-identity element without descent")
            rev.reverse()
            self._word = tuple(rev)
        return self._word

    @property
    def length(self) -> int:
        return len(self.reduced_word())

    def inverted(self) -> list[bool]:
        """Per positive root beta, in ``rs.positive_roots`` order, whether
        w(beta) is negative: the sign of its height, summed from the
        heights of the columns w(omega_j)."""
        heights = self.heights
        return [sum(map(mul, heights, beta.weight.fw)) < 0 for beta in self.rs.positive_roots]

    def inversion_set(self) -> frozenset[Root]:
        """{beta in R+ : w(beta) in R-}; its size equals l(w)."""
        return frozenset(beta for beta, neg in zip(self.rs.positive_roots, self.inverted())
                         if neg)

    def __repr__(self) -> str:
        return f"W[{','.join(map(str, self.reduced_word())) or 'e'}]"


def ss_nonempty(rs: RootSystem, w: WeylElement) -> bool:
    """Semistable-locus criterion for X(w): w(-alpha_0) is a positive root."""
    return not w.apply_root(rs.highest_root).positive  # w(-alpha_0) = -w(alpha_0)


def _root_height(h: tuple[int, ...], col: tuple[tuple[int, int], ...]) -> int:
    """sum_j C[j][k] h_j for col = column k of C (``rs._simple_columns``).

    On w's column heights this is D ht w(alpha_k), negative iff k is a
    right descent of w: the one descent test of this module.
    """
    x = 0
    for j, c in col:
        x += c * h[j]
    return x


def _reflect(h: tuple[int, ...], k: int, x: int) -> tuple[int, ...]:
    """The column heights h of w for w s_{k+1}, given
    x = _root_height(h, column k of C)."""
    return h[:k] + (h[k] - x,) + h[k + 1:]


def identity(rs: RootSystem) -> WeylElement:
    e = WeylElement(rs, rs._height_vec)
    e._word = ()
    return e


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Product s_{i1} s_{i2} ... s_{in} for word (i1,...,in), 1-based letters.

    Applied to a weight, the last letter acts first, matching ordinary
    composition of the factors as written.  Only the heights are stepped,
    one w -> w s_i per letter.
    """
    h = rs._height_vec
    cols = rs._simple_columns
    for i in word:
        rs._check_index(i)
        h = _reflect(h, i - 1, _root_height(h, cols[i - 1]))
    return WeylElement(rs, h)


def _climb(rs: RootSystem, letters: Sequence[int]) -> WeylElement:
    """Longest element of the subgroup generated by ``letters``.

    Steps along the first ascent among the letters until none is left,
    on the column heights, and is the element those heights name.
    """
    h = rs._height_vec
    cols = rs._simple_columns
    while True:
        for i in letters:
            x = _root_height(h, cols[i - 1])
            if x > 0:
                h = _reflect(h, i - 1, x)
                break
        else:
            return WeylElement(rs, h)


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """w0, found by climbing ascents; length must equal |R+|."""
    w0 = _climb(rs, range(1, rs.rank + 1))
    if len(w0.inversion_set()) != len(rs.positive_roots):
        raise AssertionError("w0 search terminated early")
    return w0


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


def guarded_order(rs: RootSystem, guard: int | None = None) -> int:
    """|W|, once it is checked against the guard (explicit argument, else
    the SCHUBERT_GUARD environment variable, else 10**6): every sweep of
    the whole group prices it before it starts.  Raises GuardExceeded."""
    limit = resolve_guard(guard)
    order = rs.ct.weyl_order
    if order > limit:
        raise GuardExceeded(
            f"|W({rs.ct})| = {order} exceeds guard {limit}")
    return order


def walk(rs: RootSystem, seed: object, step: Callable[[int, object], object],
         guard: int | None = None) -> Iterator[tuple[list[int], tuple[int, ...], tuple, object]]:
    """Every tau in W once, depth first, as (x, word, heights, payload):
    x = (D ht sigma(alpha_k))_k and the canonical word of sigma = tau^-1,
    H(tau), and seed at e, ``step(k, payload of tau)`` at s_k tau.

    sigma s_k is a child of sigma when k is an ascent of sigma and the
    smallest right descent of sigma s_k (Bjorner-Brenti, ch. 3-4), the
    smallest k first.  On tau that is the left step s_k tau: H drops by D
    times row k of tau's matrix on fw coordinates, the walk's own state,
    which s_k tau changes at k and its Dynkin neighbours.  The explicit
    stack keeps at most N + 1 payloads alive, N = |R+| the depth.  The
    guard prices |W| first; any other visit count is an engine failure."""
    order = guarded_order(rs, guard)
    n, den, cartan = rs.rank, rs._den, rs.cartan
    rows_of, neighbours = rs._simple_rows, rs._neighbours
    node = ([den] * n, (), rs._height_vec, seed)
    mat = [tuple(int(a == b) for b in range(n)) for a in range(n)]
    stack: list = []
    visited = 0
    while True:
        visited += 1
        yield node
        x, word = node[0], node[1]
        d = word[-1] - 1 if word else n  # sigma's smallest right descent
        for k in range(n - 1, -1, -1):  # pushed last, the smallest pops first
            xk = x[k]
            if xk < 0 or k > d and not cartan[k][d]:  # x_d < 0 stays if d is no neighbour
                continue
            y = x[:]
            for j, c in rows_of[k]:
                y[j] -= c * xk
            # below d every x_j > 0 and only grows; else no descent below k
            if k < d or min(y[:k]) > 0:
                stack.append((k, y, node, mat))
        if not stack:
            break
        k, y, (_, word, h, payload), mat = stack.pop()
        row = mat[k]
        new = list(mat)
        new[k] = tuple(map(neg, row))
        for j, c in neighbours[k]:
            new[j] = (tuple(map(add, mat[j], row)) if c == 1 else
                      tuple(a + c * b for a, b in zip(mat[j], row)))
        mat = new
        node = (y, word + (k + 1,), tuple(a - den * b for a, b in zip(h, row)),
                step(k + 1, payload))
    if visited != order:
        raise AssertionError(f"engine failure: walked {visited} elements, expected {order}")


def enumerate_group(rs: RootSystem, guard: int | None = None) -> Iterator[WeylElement]:
    """Every element once, ordered by (length, canonical word): ``walk``'s
    elements, sorted.  Raises GuardExceeded when |W| exceeds the guard."""
    elements = [WeylElement(rs, h) for _, _, h, _ in walk(rs, None, lambda k, p: p, guard)]
    return iter(sorted(elements, key=lambda w: (w.length, w.reduced_word())))


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the lifting property (Bjorner-Brenti, Prop. 2.2.7).

    For a right descent s of w: if s is a right descent of u too, then
    u <= w iff us <= ws, and otherwise u <= w iff u <= ws.  The letters of
    w's canonical word, read from the right, are successive right descents
    of the shrinking w, so each step is one descent test on u's column
    heights and one or two height updates, and u = w is a comparison of
    heights; lengths are carried along, never recomputed.
    """
    word = w.reduced_word()
    lu = u.length
    hu, hw = u.heights, w.heights
    cols = u.rs._simple_columns
    for lw in range(len(word), 0, -1):
        if lu == 0:
            return True
        if lu >= lw:
            return lu == lw and hu == hw
        k = word[lw - 1] - 1
        col = cols[k]
        x = _root_height(hu, col)
        if x < 0:
            hu = _reflect(hu, k, x)
            lu -= 1
        hw = _reflect(hw, k, _root_height(hw, col))
    return lu == 0


@lru_cache(maxsize=None)
def _dynkin_edges(rs: RootSystem) -> tuple[tuple[int, int], ...]:
    """The edges {i, k} of the Dynkin diagram as (i, k), i < k, 1-based, in
    lexicographic order."""
    return tuple((k + 1, j + 1) for k, nbrs in enumerate(rs._neighbours)
                 for j, _ in nbrs if j > k)


def orientation(rs: RootSystem, word: Sequence[int]) -> tuple[bool, ...]:
    """Per Dynkin edge (i, k), whether s_i comes before s_k in ``word``, a
    permutation of the simple indices.

    s_{i1} ... s_{in} depends on this alone: letters with no edge between
    them commute.  On a tree diagram, which every finite type has, distinct
    orientations give distinct Coxeter elements (J.-Y. Shi, The enumeration
    of Coxeter elements, J. Algebraic Combin. 6 (1997)), so the key is
    faithful, and there are 2^(n-1) of them.
    """
    pos = [0] * (rs.rank + 1)
    for p, i in enumerate(word):
        pos[i] = p
    return tuple(pos[i] < pos[k] for i, k in _dynkin_edges(rs))


def coxeter_elements(rs: RootSystem) -> list[tuple[WeylElement, tuple[int, ...]]]:
    """Distinct Coxeter elements with the lex-first word that produces each.

    One per orientation of the Dynkin diagram, 2^(n-1) in all: the
    lex-first word of an orientation is its topological order that takes
    the smallest source first, and the words are sorted, so the list is in
    the order of the first permutation naming each element.
    """
    edges = _dynkin_edges(rs)
    words = []
    for key in product((True, False), repeat=len(edges)):
        after: list[list[int]] = [[] for _ in range(rs.rank + 1)]
        before = [0] * (rs.rank + 1)
        for (i, k), i_first in zip(edges, key):
            first, then = (i, k) if i_first else (k, i)
            after[first].append(then)
            before[then] += 1
        sources = [i for i in range(1, rs.rank + 1) if not before[i]]  # sorted: a heap
        word = []
        while sources:
            i = heappop(sources)
            word.append(i)
            for k in after[i]:
                before[k] -= 1
                if not before[k]:
                    heappush(sources, k)
        words.append(tuple(word))
    words.sort()
    return [(from_word(rs, word), word) for word in words]
