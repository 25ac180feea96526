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

Canonical reduced words peel the smallest-index right descent on x
(``_peel``), which makes every enumeration in the engine deterministic.
The word of w is the word of w s_d plus d, d that descent, so
``word_table`` derives each element's word from its parent's: a sweep
peels each element once.  Words, lengths, Bruhat comparisons and
products u v (u's heights stepped along v's canonical word) all walk on
H; w0 and every w_alpha come from one descent of the orbit of a dominant
weight (``_to_antidominant``).  The action on fw coordinates applies the
canonical word letter by letter, each letter touching at most four
coordinates, and a heights tuple that names no element has no
canonical word, so it is refused there.  ``walk`` is the one walk of the
group, depth first along the canonical words of the inverses, stepping H
and a caller's payload; it walks all of W, or one coset W_J m from a
given start m least in it, priced at |W_J| by ``guarded_order``, and a
step that fails names its element.
``enumerate_group`` is its elements, sorted by their words from one
table.
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
from math import prod
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Iterator, Sequence

from .rootsys import GuardExceeded, Root, RootSystem, Weight, resolve_guard

__all__ = [
    "WeylElement",
    "identity",
    "from_word",
    "longest_element",
    "min_parabolic_rep",
    "enumerate_group",
    "word_table",
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
        """Canonical reduced word: ``_peel`` the smallest right descent
        until none is left, which must leave e."""
        if self._word is None:
            rs = self.rs
            x = [_root_height(self.heights, col) for col in rs._simple_columns]
            rows = rs._simple_rows
            rev: list[int] = []
            while (d := _peel(x, rows)[0]) >= 0:
                rev.append(d + 1)
            if x != [rs._den] * rs.rank:  # x(e): every simple root has height 1
                raise _no_descent()
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


def _peel(x: list[int], rows: tuple) -> tuple[int, int]:
    """The smallest right descent d of w and x_d, on x = (D ht w(alpha_k))_k,
    which becomes the x of w s_d: negate x_d, take C[d][k] x_d from each
    Dynkin neighbour x_k (rows = ``rs._simple_rows``).  (-1, 0) when w has
    no right descent, x untouched: the one peel step of this module."""
    for d, xd in enumerate(x):
        if xd < 0:
            for k, c in rows[d]:
                x[k] -= c * xd
            return d, xd
    return -1, 0


def _no_descent() -> AssertionError:
    return AssertionError("non-identity element without descent")


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


def _to_antidominant(rs: RootSystem, fw: tuple[int, ...]) -> list[int]:
    """A reduced word of the least u with u(lam) = w0(lam), lam dominant of
    fw coordinates fw: the one descent of the orbit W.lam (Bjorner-Brenti,
    ch. 2).  From gamma = lam it steps to s_i gamma at the smallest i with
    <gamma, alpha_i^vee> > 0 until none is left; each step adds one to the
    length because lam is dominant, so the steps, last first, are the word.
    """
    gamma = list(fw)
    cols = rs._simple_columns
    steps = []
    while (i := next((k for k, m in enumerate(gamma) if m > 0), -1)) >= 0:
        m = gamma[i]
        for j, c in cols[i]:
            gamma[j] -= c * m
        steps.append(i + 1)
    return steps[::-1]


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """w0, the descent from rho, which is regular; it must invert every
    positive root."""
    w0 = from_word(rs, _to_antidominant(rs, rs.rho.fw))
    if not all(w0.inverted()):
        raise AssertionError(f"w0 search on {rs.ct} terminated early")
    return w0


def min_parabolic_rep(rs: RootSystem, i: int) -> WeylElement:
    """Minimal representative w_alpha of w0 modulo the parabolic dropping alpha_i.

    The descent from omega_i, which the parabolic fixes, so w_alpha = w0 w0_P.
    Post-condition (asserted): the inversion set is exactly {beta in R+ :
    alpha_i <= beta}, the positive roots whose alpha_i-coefficient is at
    least 1.
    """
    rs._check_index(i)
    w = from_word(rs, _to_antidominant(rs, rs.fundamental_weights[i - 1].fw))
    if w.inverted() != [b.coords[i - 1] > 0 for b in rs.positive_roots]:
        raise AssertionError(f"w_alpha inversion set mismatch for alpha_{i}")
    return w


def guarded_order(rs: RootSystem, guard: int | None = None,
                  letters: Iterable[int] | None = None) -> int:
    """|W_J|, J = letters (default every letter, so |W| itself), once it is
    checked against the guard (explicit argument, else the SCHUBERT_GUARD
    environment variable, else 10**6): every walk prices its universe
    before it starts.  |W_J| is prod (1 + e_i) over the exponents e_i of
    R_J, the partition conjugate to its positive roots counted by height
    (Kostant).  Raises GuardExceeded."""
    limit = resolve_guard(guard)
    J = set(range(1, rs.rank + 1) if letters is None else letters)
    heights = [b.height for b in rs.positive_roots
               if J.issuperset(i for i, c in enumerate(b.coords, 1) if c)]
    order = prod(1 + sum(heights.count(t) >= i for t in set(heights)) for i in range(1, len(J) + 1))
    if order > limit:
        name = f"W({rs.ct})" if letters is None else f"W_J, J = {sorted(J)}, of {rs.ct}"
        raise GuardExceeded(f"|{name}| = {order} exceeds guard {limit}")
    return order


def walk(rs: RootSystem, seed: object, step: Callable[[int, object], object],
         guard: int | None = None, start: Sequence[int] = (),
         letters: Iterable[int] | None = None,
         ) -> Iterator[tuple[list[int], tuple[int, ...], tuple, object]]:
    """Every tau = v m, v in W_J, once, depth first, as (x, word, heights,
    payload): m is the element of the reduced word start (its canonical
    word, say), least in W_J m; J = letters, default every letter.  x = (D ht sigma(alpha_k))_k for
    sigma = tau^-1 = m^-1 u, word the canonical word of u = v^-1 over J,
    H(tau), and the seed stepped along start's letters from the right to
    m, ``step(k, payload of tau)`` at s_k tau.  By default m = e and W_J =
    W, so word is sigma's canonical word.

    sigma s_k is a child of sigma when k in J is an ascent of sigma and the
    smallest right descent in J of sigma s_k (Bjorner-Brenti, ch. 3-4; the
    J-descents of m^-1 u are those of u), the smallest k first.  On tau
    that is the left step s_k tau: H drops by D times row k of tau's matrix
    on fw coordinates, the walk's own state, which s_k tau changes at k and
    its Dynkin neighbours.  The explicit stack keeps at most N + 1 payloads
    alive, N = |R+| the depth.  The matrix is kept times D, so H(s_k tau)
    is H(tau) minus its row k.  The guard prices |W_J| first.  A caller
    may stop after any node: a node's children are stepped only when the
    next one is asked for.  On a walk taken to its end, any visit count
    but |W_J| is an engine failure naming start and J; a step that fails
    names the element it steps to, by the canonical words of tau and
    tau^-1."""
    order = guarded_order(rs, guard, letters)
    n, den, cartan = rs.rank, rs._den, rs.cartan
    rows_of, neighbours = rs._simple_rows, rs._neighbours
    ks = range(n - 1, -1, -1) if letters is None else sorted({k - 1 for k in letters}, reverse=True)
    below = None if letters is None else [[j for j in ks if j < k] for k in range(n)]
    node = ([den] * n, (), rs._height_vec, seed)
    mat = [tuple(den * (a == b) for b in range(n)) for a in range(n)]
    climb = [i - 1 for i in start]  # left steps from e to m, m's word from the right
    stack: list = []
    visited = 0
    while True:
        if climb:  # a step to m, never yielded; its word stays empty
            k, x = climb.pop(), node[0]
            y = x[:]
            for j, c in rows_of[k]:
                y[j] -= c * x[k]
            stack.append((k, y, (), node, mat))
        else:
            visited += 1
            yield node
            x, word = node[0], node[1]
            d = word[-1] - 1 if word else n  # u's smallest right descent
            for k in ks:  # pushed last, the smallest pops first
                xk = x[k]
                if xk < 0 or k > d and not cartan[k][d]:  # x_d < 0 stays if d is no neighbour
                    continue
                y = x[:]
                for j, c in rows_of[k]:
                    y[j] -= c * xk
                # below d every x_j > 0 and only grows; else no J-descent below k
                if k < d or min(y[:k] if below is None else map(y.__getitem__, below[k])) > 0:
                    stack.append((k, y, word + (k + 1,), node, mat))
            if not stack:
                break
        k, y, word, (_, _, h, payload), mat = stack.pop()
        row = mat[k]
        new = list(mat)
        new[k] = tuple(map(neg, row))
        for j, c in neighbours[k]:
            new[j] = (tuple(map(add, mat[j], row)) if c == 1 else
                      tuple(a + c * b for a, b in zip(mat[j], row)))
        mat = new
        h = tuple(map(sub, h, row))
        try:
            payload = step(k + 1, payload)
        except AssertionError as exc:
            tau = WeylElement(rs, h)
            raise AssertionError(f"{exc}, at tau = {tau}, tau^-1 = {tau.inverse()}") from None
        node = (y, word, h, payload)
    if visited != order:
        raise AssertionError(f"walked {visited} elements from start {list(start)} over letters "
                             f"{sorted(k + 1 for k in ks)}, expected {order}")


def word_table(rs: RootSystem) -> Callable[[tuple[int, ...]], list[int]]:
    """The canonical word of the element of column heights h, as a list
    that a caller may share but must not change, from a memo that one
    sweep keeps: w's word is w s_d's plus d, d the smallest right descent
    (``_peel``), so each element is peeled once however many ask for it.
    A heights tuple that names no element peels down to no descent and
    not e, and is refused as ``reduced_word`` refuses it."""
    cols, rows = rs._simple_columns, rs._simple_rows
    memo: dict[tuple[int, ...], list[int]] = {rs._height_vec: []}

    def word(h: tuple[int, ...]) -> list[int]:
        w = memo.get(h)
        if w is None:
            x = [_root_height(h, col) for col in cols]
            path = []
            while (w := memo.get(h)) is None:
                d, xd = _peel(x, rows)
                if d < 0:
                    raise _no_descent()
                path.append((h, d + 1))
                h = _reflect(h, d, xd)
            for h, d in reversed(path):
                memo[h] = w = w + [d]
        return w

    return word


def enumerate_group(rs: RootSystem, guard: int | None = None) -> Iterator[WeylElement]:
    """Every element once, ordered by (length, canonical word): ``walk``'s
    elements, sorted, their words from one ``word_table``.  Raises
    GuardExceeded when |W| exceeds the guard."""
    word = word_table(rs)
    elements = []
    for _, _, h, _ in walk(rs, None, lambda k, p: p, guard):
        w = WeylElement(rs, h)
        w._word = tuple(word(h))
        elements.append(w)
    return iter(sorted(elements, key=lambda w: (len(w._word), w._word)))


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


def orientation(rs: RootSystem, word: Sequence[int]) -> tuple[bool, ...]:
    """Per Dynkin edge (i, k) of ``rs._edges``, as ``rootsys`` states them
    (i < k, in lexicographic order), whether s_i comes before s_k in
    ``word``, a permutation of the simple indices.

    s_{i1} ... s_{in} depends on this alone: letters with no edge between
    them commute.  On a tree diagram, which every finite type has, distinct
    orientations give distinct Coxeter elements (J.-Y. Shi, The enumeration
    of Coxeter elements, J. Algebraic Combin. 6 (1997)), so the key is
    faithful, and there are 2^(n-1) of them.
    """
    pos = [0] * (rs.rank + 1)
    for p, i in enumerate(word):
        pos[i] = p
    return tuple(pos[i] < pos[k] for i, k in rs._edges)


def coxeter_elements(rs: RootSystem) -> list[tuple[WeylElement, tuple[int, ...]]]:
    """Distinct Coxeter elements with the lex-first word that produces each.

    One per orientation of the Dynkin diagram, 2^(n-1) in all: the
    lex-first word of an orientation is its topological order that takes
    the smallest source first, and the words are sorted, so the list is in
    the order of the first permutation naming each element.
    """
    words = []
    for key in product((True, False), repeat=len(rs._edges)):
        after: list[list[int]] = [[] for _ in range(rs.rank + 1)]
        before = [0] * (rs.rank + 1)
        for (i, k), i_first in zip(rs._edges, key):
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
