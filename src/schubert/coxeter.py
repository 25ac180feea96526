"""Coxeter-element combinatorics: orbit exponents and the tau-phi splitting.

Everything here is ordering-sensitive: an analysis is attached to a chosen
ordering (alpha_1, ..., alpha_n) of the simple roots, with the Coxeter
element c = s_{alpha_n} ... s_{alpha_1}.  Position subscripts (the j in
J, a_j, phi_j) always refer to that ordering, not to the Bourbaki
numbering of the roots sitting at those positions.

Each Coxeter element has one entry in a table keyed by its Dynkin
orientation.  The entry holds c; its simple-root images and orbits, its
cycle [e, c, ..., c^(h-1)] (h = ``ct.coxeter_number``, c's order checked
to be h) and lemma54_56's verdicts are built on first use, so prop51
acts on no root.  This module computes no character: the Euler-character
checks of Coxeter elements (thmC_typeA, cor52_53_58) live in
``cohomology`` and read c's cycle from its entry here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from . import weyl
from .rootsys import Record, RootSystem
from .weyl import WeylElement, coxeter_elements, from_word, ss_nonempty

__all__ = [
    "CoxeterAnalysis",
    "analyze",
    "is_typeA_extremal",
    "verify_prop51",
    "verify_lemma54_55_56",
]


class CoxeterAnalysis(Record):
    """The J / phi / tau data of one ordered Coxeter element.

    ordering[p-1] is the simple-root index at position p.  a[j] counts how
    long the c-orbit of the position-j root stays simple before turning
    negative; positions without that property are absent.  J collects the
    positions of J_prime whose c^{-1}-image is not simple.  c = tau * phi
    with lengths adding.
    """

    __slots__ = ("ordering", "c", "coxeter_number", "J_prime", "a", "J",
                 "phi_words", "phi", "tau")


class _CoxeterEntry(Record):
    """One Coxeter element c = s_{word[0]} ... s_{word[-1]}'s table entry,
    by simple index, not position.

    Only c and its word are set when the entry is made; the rest is None
    until first read.  images[i-1] = c(alpha_i), and a and phi_words map a
    simple index to its orbit length and phi word (_orbits); powers is c's
    cycle (_cycle); verdicts are lemma54_56's failures that depend on c
    alone (_verdicts).  splits maps a J order, J's simple indices in the
    order an ordering meets them, to what depends on phi (_split).
    """

    __slots__ = ("c", "word", "images", "a", "phi_words", "powers", "verdicts", "splits")


@lru_cache(maxsize=None)
def _coxeter_table(rs: RootSystem) -> dict[tuple[bool, ...], _CoxeterEntry]:
    """The Coxeter entries of rs built so far, keyed by Dynkin orientation."""
    return {}


def _entry(rs: RootSystem, word: Sequence[int], c: WeylElement | None = None) -> _CoxeterEntry:
    """The entry of c = s_{i1} ... s_{in}, ``word`` a permutation of the
    simples, by orientation; made (from c if given) when first seen."""
    table = _coxeter_table(rs)
    key = weyl.orientation(rs, word)
    if key not in table:
        word = tuple(word)
        c = from_word(rs, word) if c is None else c
        table[key] = _CoxeterEntry(c, word, None, None, None, None, None, {})
    return table[key]


def _orbits(rs: RootSystem, entry: _CoxeterEntry) -> tuple[tuple, dict, dict]:
    """(images, a, phi_words) of entry's c, kept in the entry on first use.

    An orbit of a simple root walks on the images c(alpha_k) alone, since
    it is followed only while it stays simple; and c^-1(alpha_i) is simple
    iff alpha_i is one of those images.  So c acts on n roots, once each.
    """
    if entry.images is None:
        h = rs.ct.coxeter_number
        simple_index = {r.coords: i for i, r in enumerate(rs.simple_roots, 1)}
        images = tuple(map(entry.c.apply_root, rs.simple_roots))
        image_coords = {img.coords for img in images}
        a: dict[int, int] = {}
        phi_words: dict[int, tuple[int, ...]] = {}
        for i, root in enumerate(rs.simple_roots, 1):
            # i is in J' when its orbit stays simple until it turns negative, within h
            letters = []
            cur = root
            while len(letters) < h and cur.coords in simple_index:
                k = simple_index[cur.coords]
                letters.append(k)
                cur = images[k - 1]
                if not cur.positive:
                    break
            if len(letters) < h and not cur.positive:
                a[i] = len(letters)
                if root.coords not in image_coords:
                    phi_words[i] = tuple(letters)
        entry.images, entry.a, entry.phi_words = images, a, phi_words
    return entry.images, entry.a, entry.phi_words


def _verdicts(rs: RootSystem, entry: _CoxeterEntry) -> tuple[list, set, set]:
    """lemma54_56's failures that depend on entry's c alone, by simple
    index, kept in the entry on first use: (image, apart, clashes).

    image lists (u, v, c(alpha_u) = alpha_v, conditions) for each pair
    u != v at which the simple-image biconditional fails; its conditions
    ask that v be u's one Dynkin neighbour before it in the ordering, and
    u v's one neighbour after it, which c's orientation fixes.  apart and
    clashes hold the pairs {u, w} of J whose orbits are not orthogonal
    while they stay simple, and whose phi factors do not commute.
    """
    if entry.verdicts is None:
        images, _, words = _orbits(rs, entry)
        n, cartan = rs.rank, rs.cartan
        # an ordering of c is its word reversed; <alpha_k, alpha_u_vee> = cartan[u][k]
        at = {i: p for p, i in enumerate(reversed(entry.word))}
        nbrs = {u: {k for k in range(1, n + 1) if k != u and cartan[u - 1][k - 1]}
                for u in range(1, n + 1)}
        earlier = {u: {k for k in nbrs[u] if at[k] < at[u]} for u in nbrs}
        later = {u: nbrs[u] - earlier[u] for u in nbrs}
        image = []
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v:
                    lhs = images[u - 1].coords == rs.simple_roots[v - 1].coords
                    rhs = earlier[u] == {v} and later[v] == {u}
                    if lhs != rhs:
                        image.append((u, v, lhs, rhs))
        # phi_u's letters are the simple roots u's orbit passes through
        apart = {frozenset(pair) for pair in combinations(words, 2)
                 if any(cartan[y - 1][x - 1] for x in words[pair[0]] for y in words[pair[1]])}
        factors = {i: from_word(rs, word) for i, word in words.items()}
        clashes = {frozenset(pair) for pair in combinations(factors, 2)
                   if factors[pair[0]] * factors[pair[1]] != factors[pair[1]] * factors[pair[0]]}
        entry.verdicts = image, apart, clashes
    return entry.verdicts


def _split(rs: RootSystem, entry: _CoxeterEntry,
           order: tuple[int, ...]) -> tuple[WeylElement, WeylElement, dict | None, list]:
    """(phi, tau, length, low) for the J order ``order`` of entry's c,
    kept in the entry on first use.

    phi is the product of the phi words in that order and c = tau * phi;
    asserted on the way: phi's word is reduced and tau * phi = c.  length
    is lemma54_56's length-additivity row, or None when l(c) = l(tau) +
    l(phi); low lists (u, ht c(alpha_u), ht phi(alpha_u)) for each letter u
    of tau at which the first height is the smaller.
    """
    split = entry.splits.get(order)
    if split is None:
        images, _, words = _orbits(rs, entry)
        c = entry.c
        phi_word = sum((words[i] for i in order), ())
        phi = from_word(rs, phi_word)
        if len(phi.reduced_word()) != len(phi_word):
            raise AssertionError("phi word is not reduced")
        # (s_{i1} ... s_{ik})^-1 = s_{ik} ... s_{i1}
        tau = c * from_word(rs, phi_word[::-1])
        if tau * phi != c:
            raise AssertionError("tau * phi is not c")
        length = None
        if c.length != tau.length + phi.length:
            length = {"clause": "length-additivity", "tau_word": list(tau.reduced_word()),
                      "phi_word": list(phi.reduced_word())}
        # s_u <= tau iff the letter u occurs in a reduced word of tau
        tau_letters = set(tau.reduced_word())
        pairs = zip(images, map(phi.apply_root, rs.simple_roots))
        low = [(u, via_c.height, via_phi.height) for u, (via_c, via_phi) in enumerate(pairs, 1)
               if u in tau_letters and via_c.height < via_phi.height]
        entry.splits[order] = split = phi, tau, length, low
    return split


def _cycle(entry: _CoxeterEntry) -> list[WeylElement]:
    """[e, c, ..., c^(h-1)] for entry's c, h = ct.coxeter_number, kept in
    the entry on first use; c^-j is c^(h-j), entry -j.  Asserting c^h = e
    and h distinct powers proves that c has order h."""
    if entry.powers is None:
        c, powers = entry.c, [weyl.identity(entry.c.rs)]
        for _ in range(1, c.rs.ct.coxeter_number):
            powers.append(powers[-1] * c)
        if powers[-1] * c != powers[0] or len(set(powers)) != len(powers):
            raise AssertionError(f"Coxeter element {c!r} does not have order h = {len(powers)}")
        entry.powers = powers
    return entry.powers


def analyze(rs: RootSystem, ordering: Sequence[int]) -> CoxeterAnalysis:
    """Compute the orbit data of c = s_{alpha_n} ... s_{alpha_1}.

    c's entry is looked up by the orientation of the ordering, so c is
    built once however many orderings name it, and h is the Coxeter
    number.  Asserts the structural identities on the way out: phi is
    reduced as the concatenation of the phi_j words, and tau * phi = c.
    Whether l(c) = l(tau) + l(phi) is a clause of verify_lemma54_55_56,
    which reports it.
    """
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(1, rs.rank + 1)):
        raise ValueError(f"ordering {ordering} is not a permutation of the simples")
    entry = _entry(rs, ordering[::-1])
    _, a_of, words_of = _orbits(rs, entry)
    a = {pos: a_of[i] for pos, i in enumerate(ordering, 1) if i in a_of}
    phi_words = {pos: words_of[i] for pos, i in enumerate(ordering, 1) if i in words_of}
    phi, tau, _, _ = _split(rs, entry, tuple(i for i in ordering if i in words_of))
    return CoxeterAnalysis(ordering, entry.c, rs.ct.coxeter_number, tuple(a), a,
                           tuple(phi_words), phi_words, phi, tau)


def is_typeA_extremal(rs: RootSystem, c: WeylElement) -> bool:
    """True iff c or c^{-1} is the monotone-path Coxeter element s_n ...
    s_1 of A_n: iff c's Dynkin orientation points every edge one way.

    Asserted on the way out: this agrees with the semistability criterion
    holding for both c and c^{-1} = c^(h-1).
    """
    if rs.ct.family != "A":
        raise ValueError("extremality in this sense is a type A notion")
    word = c.reduced_word()
    if sorted(word) != list(range(1, rs.rank + 1)):
        raise ValueError("element is not a Coxeter element")
    by_path = len(set(weyl.orientation(rs, word))) <= 1
    by_ss = ss_nonempty(rs, c) and ss_nonempty(rs, _cycle(_entry(rs, word, c))[-1])
    if by_path != by_ss:
        raise AssertionError(
            "path-word extremality disagrees with the semistability criterion")
    return by_path


def verify_prop51(rs: RootSystem, guard: int | None = None) -> tuple[int, list, dict]:
    """Orbit exponents exist below h for every Coxeter element and alpha:
    a least 1 <= j < h with c^j(omega_alpha) = w0(omega_alpha).

    w0(omega_alpha) is the one weight of least height in W.omega_alpha, so
    j is the first power whose column height at alpha is w0's.
    """
    counterexamples = []
    rows = []
    w0 = weyl.longest_element(rs).heights
    elements = coxeter_elements(rs)
    for c, word in elements:
        powers = _cycle(_entry(rs, word, c))
        for alpha in range(1, rs.rank + 1):
            j = next((j for j in range(1, len(powers))
                      if powers[j].heights[alpha - 1] == w0[alpha - 1]), None)
            if j is None:
                counterexamples.append({"c_word": list(word), "alpha": alpha,
                                        "reason": f"no exponent below h = {len(powers)}"})
            else:
                rows.append({"c_word": list(word), "alpha": alpha, "j": j})
    return len(elements) * rs.rank, counterexamples, {
        "coxeter_number": rs.ct.coxeter_number,
        "rows": rows,
    }


def verify_lemma54_55_56(rs: RootSystem, guard: int | None = None) -> tuple[int, list, dict]:
    """Exhaustive per-ordering checks of the simple-image combinatorics.

    For every ordering of the simple roots: the simple-image biconditional,
    orthogonality of the J-orbits, commutation of the phi factors, length
    additivity of c = tau * phi, and the height inequality for positions
    whose reflection lies below tau.

    The first three depend on c alone, the last two on c and the order in
    which the ordering meets J (its split), so each is decided once, by
    simple index, in c's entry.  An ordering finds c's entry by its
    orientation and then its split, and re-indexes any failures by
    position.
    """
    counterexamples = []
    universe = 0
    for perm in permutations(range(1, rs.rank + 1)):
        universe += 1
        entry = _entry(rs, perm[::-1])
        verdicts = entry.verdicts or _verdicts(rs, entry)
        words = entry.phi_words
        order = tuple([i for i in perm if i in words])
        _, _, length, low = entry.splits.get(order) or _split(rs, entry, order)
        if any(verdicts) or length or low:
            counterexamples += _failures(rs, perm, entry, order)
    return universe, counterexamples, {}


def _failures(rs: RootSystem, perm: tuple[int, ...], entry: _CoxeterEntry,
              order: tuple[int, ...]) -> list[dict]:
    """lemma54_56's rows for the ordering perm: c's verdicts and those of
    its split, re-indexed by position, clause by clause in position order."""
    image, apart, clashes = entry.verdicts
    _, _, length, low = entry.splits[order]
    words, roots = entry.phi_words, rs.simple_roots
    ordering, pos = list(perm), {i: p for p, i in enumerate(perm, 1)}
    rows = [{"ordering": ordering, "clause": "simple-image", "i": pos[u], "j": pos[v],
             "image": lhs, "conditions": rhs}
            for u, v, lhs, rhs in sorted(image, key=lambda f: (pos[f[0]], pos[f[1]]))]
    # combinations of the J order come in position order
    rows += [{"ordering": ordering, "clause": "orbit-orthogonality", "j": pos[u], "k": pos[w],
              "beta_j": list(roots[x - 1].coords), "beta_k": list(roots[y - 1].coords)}
             for u, w in combinations(order, 2) if frozenset((u, w)) in apart
             for x in words[u] for y in words[w] if rs.cartan[y - 1][x - 1]]
    rows += [{"ordering": ordering, "clause": "factor-commutation", "j": pos[u], "k": pos[w]}
             for u, w in combinations(order, 2) if frozenset((u, w)) in clashes]
    if length:
        rows.append({"ordering": ordering, **length})
    rows += [{"ordering": ordering, "clause": "height-comparison", "r": pos[u],
              "height_c": via_c, "height_phi": via_phi}
             for u, via_c, via_phi in sorted(low, key=lambda f: pos[f[0]])]
    return rows
