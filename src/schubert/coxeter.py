"""Coxeter-element combinatorics: orbit exponents and the tau-phi splitting.

Everything here is ordering-sensitive: an analysis is attached to a chosen
ordering (alpha_1, ..., alpha_n) of the simple roots, with the Coxeter
element c = s_{alpha_n} ... s_{alpha_1}.  Position subscripts (the j in
J, a_j, phi_j) always refer to that ordering, not to the Bourbaki
numbering of the roots sitting at those positions.

Each distinct c has one table entry holding its cycle [e, c, ...,
c^(h-1)], from which every check reads h, c^j and c^-1 = c^(h-1).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from . import weyl
from .charring import Character, adjoint_character, char_to_str, e
from .cohomology import euler_char, inversion_tangent, ss_nonempty
from .rootsys import Record, RootSystem
from .weyl import WeylElement, coxeter_elements, element_order, from_word

__all__ = [
    "CoxeterAnalysis",
    "analyze",
    "yz_exponent",
    "is_typeA_extremal",
    "verify_prop51",
    "verify_lemma54_55_56",
    "verify_thmC_typeA",
    "verify_cor52_53_58",
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
    """analyze's table entry for one Coxeter element c, by simple index,
    not position.

    powers = [e, c, ..., c^(h-1)], h the order of c; images[i-1] =
    c(alpha_i); a and phi_words map a simple index to its orbit length and
    phi word; clashes is None until _clashes fills it; splits maps a phi
    word, whose order depends on the ordering, to (phi, tau, phi_images),
    where phi_images[i-1] = phi(alpha_i).
    """

    __slots__ = ("c", "powers", "images", "a", "phi_words", "clashes", "splits")


@lru_cache(maxsize=None)
def _coxeter_data(rs: RootSystem, c: WeylElement) -> _CoxeterEntry:
    """c's entry, built once per distinct c: its cycle, then its orbits.

    An orbit of a simple root walks on the images c(alpha_k) alone, since
    it is followed only while it stays simple; and c^-1(alpha_i) is simple
    iff alpha_i is one of those images.  So c acts on n roots, once each.
    """
    powers = _cycle(c)
    h = len(powers)
    simple_index = {r.coords: i for i, r in enumerate(rs.simple_roots, 1)}
    images = tuple(map(c.apply_root, rs.simple_roots))
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
    return _CoxeterEntry(c, powers, images, a, phi_words, None, {})


def _clashes(rs: RootSystem, entry: _CoxeterEntry) -> set[frozenset[int]]:
    """The pairs {i, k} of simple indices whose factors phi_i, phi_k of
    entry's c do not commute, kept in the entry on first use: only
    verify_lemma54_55_56 reads them, and prop51 reads only the cycle."""
    if entry.clashes is None:
        factors = {i: from_word(rs, word) for i, word in entry.phi_words.items()}
        entry.clashes = {
            frozenset(pair) for pair in combinations(factors, 2)
            if factors[pair[0]] * factors[pair[1]] != factors[pair[1]] * factors[pair[0]]}
    return entry.clashes


def analyze(rs: RootSystem, ordering: Sequence[int]) -> CoxeterAnalysis:
    """Compute the orbit data of c = s_{alpha_n} ... s_{alpha_1}.

    c is looked up by the orientation of the ordering, so its entry is
    found without building c.  Asserts the structural identities on the
    way out: phi is reduced as the concatenation of the phi_j words, and
    tau * phi = c.  Whether l(c) = l(tau) + l(phi) is a clause of
    verify_lemma54_55_56, which reports it.
    """
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(1, rs.rank + 1)):
        raise ValueError(f"ordering {ordering} is not a permutation of the simples")
    entry = _coxeter_data(rs, weyl.coxeter_element(rs, ordering[::-1]))
    c, a_of, words_of, splits = entry.c, entry.a, entry.phi_words, entry.splits
    a = {pos: a_of[i] for pos, i in enumerate(ordering, 1) if i in a_of}
    phi_words = {pos: words_of[i] for pos, i in enumerate(ordering, 1) if i in words_of}
    phi_word = sum(phi_words.values(), ())
    if phi_word not in splits:
        phi = from_word(rs, phi_word)
        if phi.length != len(phi_word):
            raise AssertionError("phi word is not reduced")
        # (s_{i1} ... s_{ik})^-1 = s_{ik} ... s_{i1}
        tau = c * from_word(rs, phi_word[::-1])
        if tau * phi != c:
            raise AssertionError("tau * phi is not c")
        splits[phi_word] = phi, tau, tuple(map(phi.apply_root, rs.simple_roots))
    phi, tau, _ = splits[phi_word]
    return CoxeterAnalysis(ordering, c, len(entry.powers), tuple(a), a, tuple(phi_words),
                           phi_words, phi, tau)


def _check_coxeter(rs: RootSystem, c: WeylElement) -> None:
    if sorted(c.reduced_word()) != list(range(1, rs.rank + 1)):
        raise ValueError("element is not a Coxeter element")


def _w0_exponent(powers: list[WeylElement], w0: WeylElement, alpha: int) -> int | None:
    """Minimal 1 <= j < h with c^j(omega_alpha) = w0(omega_alpha), or None.

    w0(omega_alpha) is the one weight of least height in W.omega_alpha, so
    this is the first power whose column height at alpha is w0's.
    """
    target = w0.heights[alpha - 1]
    return next((j for j in range(1, len(powers))
                 if powers[j].heights[alpha - 1] == target), None)


def yz_exponent(rs: RootSystem, c: WeylElement, alpha: int) -> int:
    """Minimal j >= 1 with c^j(omega_alpha) = w0(omega_alpha), read off
    c's cycle.

    Existence below the Coxeter number is a theorem; running out of the
    cyclic group without a hit is therefore a hard engine error.
    """
    rs._check_index(alpha)
    _check_coxeter(rs, c)
    j = _w0_exponent(_coxeter_data(rs, c).powers, weyl.longest_element(rs), alpha)
    if j is None:
        raise AssertionError(f"no exponent below the Coxeter number for alpha_{alpha}")
    return j


def is_typeA_extremal(rs: RootSystem, c: WeylElement) -> bool:
    """True iff c or c^{-1} is the monotone-path Coxeter element s_n ...
    s_1 of A_n: iff c's Dynkin orientation points every edge one way.

    Asserted on the way out: this agrees with the semistability criterion
    holding for both c and c^{-1} = c^(h-1).
    """
    if rs.ct.family != "A":
        raise ValueError("extremality in this sense is a type A notion")
    _check_coxeter(rs, c)
    by_path = len(set(weyl.orientation(rs, c.reduced_word()))) <= 1
    by_ss = ss_nonempty(rs, c) and ss_nonempty(rs, _coxeter_data(rs, c).powers[-1])
    if by_path != by_ss:
        raise AssertionError(
            "path-word extremality disagrees with the semistability criterion")
    return by_path


def verify_prop51(rs: RootSystem) -> tuple[int, list, dict]:
    """Orbit exponents exist below h for every Coxeter element and alpha."""
    counterexamples = []
    rows = []
    w0 = weyl.longest_element(rs)
    elements = coxeter_elements(rs)
    for c, word in elements:
        powers = _coxeter_data(rs, c).powers
        for alpha in range(1, rs.rank + 1):
            j = _w0_exponent(powers, w0, alpha)
            if j is None:
                counterexamples.append({"c_word": list(word), "alpha": alpha,
                                        "reason": f"no exponent below h = {len(powers)}"})
            else:
                rows.append({"c_word": list(word), "alpha": alpha, "j": j})
    return len(elements) * rs.rank, counterexamples, {
        "coxeter_number": len(_coxeter_data(rs, elements[0][0]).powers),
        "rows": rows,
    }


def verify_lemma54_55_56(rs: RootSystem) -> tuple[int, list, dict]:
    """Exhaustive per-ordering checks of the simple-image combinatorics.

    For every ordering of the simple roots: the simple-image biconditional,
    orthogonality of the J-orbits, commutation of the phi factors, length
    additivity of c = tau * phi, and the height inequality for positions
    whose reflection lies below tau.
    """
    counterexamples = []
    n = rs.rank
    cartan = rs.cartan
    universe = 0
    for perm in permutations(range(1, n + 1)):
        universe += 1
        analysis = analyze(rs, perm)
        entry = _coxeter_data(rs, analysis.c)
        images = entry.images
        phi_images = entry.splits[sum(analysis.phi_words.values(), ())][2]
        roots = [rs.simple_roots[perm[p - 1] - 1] for p in range(1, n + 1)]

        # c maps the position-i root to the position-j root iff j is the
        # unique earlier neighbor of i and i the unique later neighbor of j;
        # <alpha_k, alpha_i_vee> = cartan[i][k]
        earlier = {i: [k for k in range(1, i) if cartan[perm[i - 1] - 1][perm[k - 1] - 1]]
                   for i in range(1, n + 1)}
        later = {j: [k for k in range(j + 1, n + 1) if cartan[perm[k - 1] - 1][perm[j - 1] - 1]]
                 for j in range(1, n + 1)}
        for i in range(1, n + 1):
            img = images[perm[i - 1] - 1]
            for j in range(1, n + 1):
                if i == j:
                    continue
                lhs = img.coords == roots[j - 1].coords
                rhs = earlier[i] == [j] and later[j] == [i]
                if lhs != rhs:
                    counterexamples.append({
                        "ordering": list(perm), "clause": "simple-image",
                        "i": i, "j": j, "image": lhs, "conditions": rhs,
                    })

        # distinct J-orbits are orthogonal while they stay simple; phi_j's
        # letters are the simple roots that orbit passes through
        words = analysis.phi_words
        for j, k in combinations(analysis.J, 2):
            for x in words[j]:
                for y in words[k]:
                    if cartan[y - 1][x - 1]:
                        counterexamples.append({
                            "ordering": list(perm), "clause": "orbit-orthogonality",
                            "j": j, "k": k,
                            "beta_j": list(rs.simple_roots[x - 1].coords),
                            "beta_k": list(rs.simple_roots[y - 1].coords),
                        })

        # the phi factors commute pairwise; the verdicts are c's, by simple index
        clashes = _clashes(rs, entry)
        for j, k in combinations(analysis.J, 2):
            if frozenset((perm[j - 1], perm[k - 1])) in clashes:
                counterexamples.append({
                    "ordering": list(perm), "clause": "factor-commutation",
                    "j": j, "k": k,
                })

        # lengths add in c = tau * phi
        if analysis.c.length != analysis.tau.length + analysis.phi.length:
            counterexamples.append({
                "ordering": list(perm), "clause": "length-additivity",
                "tau_word": list(analysis.tau.reduced_word()),
                "phi_word": list(analysis.phi.reduced_word()),
            })

        # height comparison for positions whose reflection is below tau;
        # s_i <= tau iff the letter i occurs in a reduced word of tau
        tau_letters = set(analysis.tau.reduced_word())
        for r in range(1, n + 1):
            if perm[r - 1] not in tau_letters:
                continue
            via_c = images[perm[r - 1] - 1].height
            via_phi = phi_images[perm[r - 1] - 1].height
            if via_c < via_phi:
                counterexamples.append({
                    "ordering": list(perm), "clause": "height-comparison",
                    "r": r, "height_c": via_c, "height_phi": via_phi,
                })
    return universe, counterexamples, {}


def _cycle(c: WeylElement) -> list[WeylElement]:
    """[e, c, ..., c^(h-1)], h the order of c, the one order computation
    of this module; c^-j is c^(h-j), entry -j."""
    powers = [weyl.identity(c.rs)]
    for _ in range(1, element_order(c)):
        powers.append(powers[-1] * c)
    return powers


def _dot_zero_euler(rs: RootSystem, w: WeylElement, w_inv: WeylElement) -> Character:
    """chi(w, e^{w^-1 . 0}), which Cor. 5.8 and Thm. C weigh by (-1)^l(w)."""
    return euler_char(rs, w, e(w_inv.dot(rs.zero())))


def verify_thmC_typeA(rs: RootSystem) -> tuple[int, list, dict]:
    """Type A powers of the staircase Coxeter element c = s_n ... s_1.

    Checks c^r = w_{alpha_r}, reads off the dot-action weight
    (c^r)^{-1} . 0 = epsilon (n+1) omega_r recording the single sign
    epsilon, and confirms chi(c^r, e^{that weight}) = (-1)^{l(c^r)} e^0.
    Non-extremal Coxeter elements get informational rows only.
    """
    n = rs.rank
    powers = _coxeter_data(rs, weyl.coxeter_element(rs, range(n, 0, -1))).powers
    counterexamples = []
    signs = set()
    zero = rs.zero()
    for r in range(1, n + 1):
        cr, cr_inv = powers[r], powers[-r]
        w_r = weyl.min_parabolic_rep(rs, r)
        if cr != w_r:
            counterexamples.append({
                "r": r, "reason": "c^r is not the minimal representative",
                "c_power_word": list(cr.reduced_word()), "w_alpha_word": list(w_r.reduced_word()),
            })
            continue
        lam = cr_inv.dot(zero)
        omega = rs.fundamental_weights[r - 1]
        eps = None
        for cand in (1, -1):
            if lam == cand * (n + 1) * omega:
                eps = cand
        if eps is None:
            counterexamples.append({
                "r": r, "reason": "dot weight is not +-(n+1) omega_r",
                "weight_fw": list(lam.fw),
            })
            continue
        signs.add(eps)
        chi = _dot_zero_euler(rs, cr, cr_inv)
        if chi != e(zero, (-1) ** cr.length):
            counterexamples.append({
                "r": r, "reason": "Euler value is not (-1)^l e^0",
                "chi": char_to_str(rs, chi),
            })
    if len(signs) > 1:
        counterexamples.append({
            "reason": "inconsistent sign across r", "signs": sorted(signs),
        })

    nonextremal_rows = []
    for cox, word in coxeter_elements(rs):
        if is_typeA_extremal(rs, cox):
            continue
        chi = _dot_zero_euler(rs, cox, _coxeter_data(rs, cox).powers[-1])
        nonextremal_rows.append({
            "c_word": list(word),
            "euler_is_signed_e0": chi == e(zero, (-1) ** cox.length),
            "euler": char_to_str(rs, chi),
        })
    return n, counterexamples, {
        "epsilon": sorted(signs)[0] if len(signs) == 1 else None,
        "nonextremal_rows": nonextremal_rows,
    }


def verify_cor52_53_58(rs: RootSystem) -> tuple[int, list, dict]:
    """Cyclic-group sweeps attached to each Coxeter element.

    Asserts for every Coxeter element that some power c^j (1 <= j < h)
    has full adjoint tangent character over its inversion set.  The two
    summed identities (over C' = {c,...,c^{h-1}} and the signed Euler sum
    over C = {e,...,c^{h-1}}) are asserted only for type A extremal
    elements, where full degree-wise vanishing certifies them; other
    elements get informational rows.

    Each distinct power of the cycles is evaluated once, in first-seen
    order over the Coxeter elements: its tangent and signed Euler term are
    added in place into the two sums of every cyclic group <c> = <c^{-1}>
    that holds it (e in all of them; w0 = -1 on D4 and D6), and only
    whether its tangent is the adjoint character is kept.  The tangent of
    e is zero, so C' and C share one walk.
    """
    adjoint = adjoint_character(rs)
    groups: dict[frozenset, tuple[Character, Character]] = {}
    cycles = []
    for c, word in coxeter_elements(rs):
        powers = _coxeter_data(rs, c).powers
        group = frozenset(powers)
        cycles.append((c, word, powers, groups.setdefault(group, (Character(), Character()))))
    is_full: dict[WeylElement, bool] = {}

    counterexamples = []
    rows = []
    for c, word, powers, (sum53, sum58) in cycles:
        h = len(powers)
        for j, cj in enumerate(powers):
            if cj in is_full:
                continue
            tangent = inversion_tangent(rs, cj)
            is_full[cj] = tangent == adjoint
            chi = _dot_zero_euler(rs, cj, powers[-j])
            for group, (tangents, eulers) in groups.items():
                if cj in group:
                    tangents.add(tangent)
                    eulers.add(chi, (-1) ** cj.length)
        min_j = next((j for j, cj in enumerate(powers[1:], 1) if is_full[cj]), None)
        if min_j is None:
            counterexamples.append({
                "c_word": list(word),
                "reason": "no power below h has full adjoint tangent character",
            })
        eq53 = sum53 == (h - 1) * adjoint
        eq58 = sum58 == h * e(rs.zero())

        extremal = rs.ct.family == "A" and is_typeA_extremal(rs, c)
        if extremal:
            if not eq53:
                counterexamples.append({
                    "c_word": list(word), "clause": "cyclic-sum",
                    "difference": char_to_str(rs, (h - 1) * adjoint - sum53),
                })
            if not eq58:
                counterexamples.append({
                    "c_word": list(word), "clause": "signed-euler-sum",
                    "sum": char_to_str(rs, sum58),
                })
        rows.append({
            "c_word": list(word),
            "h": h,
            "extremal": extremal,
            "min_full_power": min_j,
            "cyclic_sum_matches": eq53,
            "signed_euler_sum_matches": eq58,
            "ss_c": ss_nonempty(rs, c),
            "ss_c_inv": ss_nonempty(rs, powers[-1]),
        })
    return len(cycles), counterexamples, {"rows": rows}
