"""Coxeter-element combinatorics: orbit exponents and the tau-phi splitting.

Everything here is ordering-sensitive: an analysis is attached to a chosen
ordering (alpha_1, ..., alpha_n) of the simple roots, with the Coxeter
element c = s_{alpha_n} ... s_{alpha_1}.  Position subscripts (the j in
J, a_j, phi_j) always refer to that ordering, not to the Bourbaki
numbering of the roots sitting at those positions.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from . import weyl
from .charring import Character, adjoint_character, char_sum, char_to_str, e
from .cohomology import euler_char, h0_line, ss_nonempty
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


@lru_cache(maxsize=None)
def _coxeter_data(rs: RootSystem, c: WeylElement) -> tuple:
    """analyze's table: (c, h, a, phi_words, clashes, splits) per distinct
    c, keyed by matrix and by simple index, not position.

    clashes holds the pairs {i, k} whose factors phi_i, phi_k do not
    commute; splits maps a phi word, whose order depends on the ordering,
    to (phi, tau).
    """
    h = element_order(c)
    c_inv = c.inverse()
    simple_index = {r.coords: i + 1 for i, r in enumerate(rs.simple_roots)}
    a: dict[int, int] = {}
    phi_words: dict[int, tuple[int, ...]] = {}
    for i, root in enumerate(rs.simple_roots, 1):
        # i is in J' when its orbit stays simple until it turns negative, within h
        letters = []
        cur = root
        while len(letters) < h and cur.coords in simple_index:
            letters.append(simple_index[cur.coords])
            cur = c.apply_root(cur)
            if not cur.positive:
                break
        if len(letters) < h and not cur.positive:
            a[i] = len(letters)
            if c_inv.apply_root(root).coords not in simple_index:
                phi_words[i] = tuple(letters)
    factors = {i: from_word(rs, word) for i, word in phi_words.items()}
    clashes = {frozenset(pair) for pair in combinations(factors, 2)
               if factors[pair[0]] * factors[pair[1]] != factors[pair[1]] * factors[pair[0]]}
    return c, h, a, phi_words, clashes, {}


def analyze(rs: RootSystem, ordering: Sequence[int]) -> CoxeterAnalysis:
    """Compute the orbit data of c = s_{alpha_n} ... s_{alpha_1}.

    Asserts the structural identities on the way out: phi is reduced as
    the concatenation of the phi_j words and l(c) = l(phi) + l(tau).
    """
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(1, rs.rank + 1)):
        raise ValueError(f"ordering {ordering} is not a permutation of the simples")
    c, h, a_of, words_of, _, splits = _coxeter_data(
        rs, from_word(rs, tuple(reversed(ordering))))
    a = {pos: a_of[i] for pos, i in enumerate(ordering, 1) if i in a_of}
    phi_words = {pos: words_of[i] for pos, i in enumerate(ordering, 1) if i in words_of}
    phi_word = tuple(letter for word in phi_words.values() for letter in word)
    if phi_word not in splits:
        phi = from_word(rs, phi_word)
        if phi.length != len(phi_word):
            raise AssertionError("phi word is not reduced")
        tau = c * phi.inverse()
        if c.length != tau.length + phi.length:
            raise AssertionError("lengths do not add in c = tau * phi")
        if tau * phi != c:
            raise AssertionError("tau * phi is not c")
        splits[phi_word] = phi, tau
    phi, tau = splits[phi_word]
    return CoxeterAnalysis(ordering, c, h, tuple(a), a, tuple(phi_words), phi_words, phi, tau)


def _check_coxeter(rs: RootSystem, c: WeylElement) -> None:
    if sorted(c.reduced_word()) != list(range(1, rs.rank + 1)):
        raise ValueError("element is not a Coxeter element")


def yz_exponent(rs: RootSystem, c: WeylElement, alpha: int) -> int:
    """Minimal j >= 1 with c^j(omega_alpha) = w0(omega_alpha).

    Existence below the Coxeter number is a theorem; running out of the
    cyclic group without a hit is therefore a hard engine error.
    """
    rs._check_index(alpha)
    _check_coxeter(rs, c)
    h = element_order(c)
    omega = rs.fundamental_weights[alpha - 1].fw
    target = weyl.longest_element(rs).act(omega)
    cur = omega
    for j in range(1, h):
        cur = c.act(cur)
        if cur == target:
            return j
    raise AssertionError(
        f"no exponent below the Coxeter number for alpha_{alpha}")


def is_typeA_extremal(rs: RootSystem, c: WeylElement) -> bool:
    """True iff c or c^{-1} is the monotone-path Coxeter element of A_n.

    Asserted on the way out: this agrees with the semistability criterion
    holding for both c and c^{-1}.
    """
    if rs.ct.family != "A":
        raise ValueError("extremality in this sense is a type A notion")
    _check_coxeter(rs, c)
    n = rs.rank
    down = from_word(rs, tuple(range(n, 0, -1)))
    up = from_word(rs, tuple(range(1, n + 1)))
    by_word = c == down or c == up
    by_ss = ss_nonempty(rs, c) and ss_nonempty(rs, c.inverse())
    if by_word != by_ss:
        raise AssertionError(
            "path-word extremality disagrees with the semistability criterion")
    return by_word


def verify_prop51(rs: RootSystem) -> tuple[int, list, dict]:
    """Orbit exponents exist below h for every Coxeter element and alpha."""
    counterexamples = []
    rows = []
    elements = coxeter_elements(rs)
    for c, word in elements:
        h = element_order(c)
        for alpha in range(1, rs.rank + 1):
            try:
                j = yz_exponent(rs, c, alpha)
            except AssertionError:
                counterexamples.append({
                    "c_word": list(word),
                    "alpha": alpha,
                    "reason": f"no exponent below h = {h}",
                })
                continue
            rows.append({"c_word": list(word), "alpha": alpha, "j": j})
    return len(elements) * rs.rank, counterexamples, {
        "coxeter_number": element_order(elements[0][0]),
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
        c = analysis.c
        roots = [rs.simple_roots[perm[p - 1] - 1] for p in range(1, n + 1)]

        # c maps the position-i root to the position-j root iff j is the
        # unique earlier neighbor of i and i the unique later neighbor of j;
        # <alpha_k, alpha_i_vee> = cartan[i][k]
        earlier = {i: [k for k in range(1, i) if cartan[perm[i - 1] - 1][perm[k - 1] - 1]]
                   for i in range(1, n + 1)}
        later = {j: [k for k in range(j + 1, n + 1) if cartan[perm[k - 1] - 1][perm[j - 1] - 1]]
                 for j in range(1, n + 1)}
        for i in range(1, n + 1):
            img = c.apply_root(roots[i - 1])
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
        clashes = _coxeter_data(rs, c)[4]
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
            via_c = c.apply_root(roots[r - 1]).height
            via_phi = analysis.phi.apply_root(roots[r - 1]).height
            if via_c < via_phi:
                counterexamples.append({
                    "ordering": list(perm), "clause": "height-comparison",
                    "r": r, "height_c": via_c, "height_phi": via_phi,
                })
    return universe, counterexamples, {}


def verify_thmC_typeA(rs: RootSystem) -> tuple[int, list, dict]:
    """Type A powers of the staircase Coxeter element c = s_n ... s_1.

    Checks c^r = w_{alpha_r}, reads off the dot-action weight
    (c^r)^{-1} . 0 = epsilon (n+1) omega_r recording the single sign
    epsilon, and confirms chi(c^r, e^{that weight}) = (-1)^{l(c^r)} e^0.
    Non-extremal Coxeter elements get informational rows only.
    """
    n = rs.rank
    c = from_word(rs, tuple(range(n, 0, -1)))
    counterexamples = []
    signs = set()
    zero = rs.zero()
    for r in range(1, n + 1):
        cr = c ** r
        w_r = weyl.min_parabolic_rep(rs, r)
        if cr != w_r:
            counterexamples.append({
                "r": r, "reason": "c^r is not the minimal representative",
                "c_power_word": list(cr.reduced_word()), "w_alpha_word": list(w_r.reduced_word()),
            })
            continue
        lam = cr.inverse().dot(zero)
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
        chi = euler_char(rs, cr, e(lam))
        expected = e(zero, 1 if cr.length % 2 == 0 else -1)
        if chi != expected:
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
        lam = cox.inverse().dot(zero)
        chi = euler_char(rs, cox, e(lam))
        expected = e(zero, 1 if cox.length % 2 == 0 else -1)
        nonextremal_rows.append({
            "c_word": list(word),
            "euler_is_signed_e0": chi == expected,
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

    <c> = <c^{-1}>, so both sums are kept per group, keyed by its set of
    matrices.  A term is dropped once added unless its power lies in
    several groups (e, or w0 = -1 on D6); a power keeps only whether its
    tangent is the adjoint character.
    """
    adjoint = adjoint_character(rs)
    zero = rs.zero()
    cycles = []
    for c, word in coxeter_elements(rs):
        powers = [weyl.identity(rs)]
        for _ in range(1, element_order(c)):
            powers.append(powers[-1] * c)
        cycles.append((c, word, powers, frozenset(cj.matrix for cj in powers)))
    groups = Counter(m for group in {g for *_, g in cycles} for m in group)
    shared = {m for m, count in groups.items() if count > 1}
    full_of: dict[tuple, bool] = {}
    kept: dict[tuple, Character] = {}
    sums_of: dict[frozenset, tuple[Character, Character]] = {}

    def tangent(cj: WeylElement) -> Character:
        """The inversion-set h0 sum of cj."""
        total = char_sum(h0_line(rs, cj, beta.weight) for beta in cj.inversion_set())
        full_of[cj.matrix] = total == adjoint
        return total

    def signed_euler(cj: WeylElement) -> Character:
        """(-1)^l(cj) chi(cj, e^{cj^-1 . 0})."""
        chi = euler_char(rs, cj, e(cj.inverse().dot(zero)))
        return chi if cj.length % 2 == 0 else -chi

    def term(kind, cj: WeylElement) -> Character:
        key = kind, cj.matrix
        if key in kept:
            return kept[key]
        value = kind(cj)
        if cj.matrix in shared:
            kept[key] = value
        return value

    counterexamples = []
    rows = []
    for c, word, powers, group in cycles:
        h = len(powers)
        if group not in sums_of:
            sums_of[group] = (char_sum(term(tangent, cj) for cj in powers[1:]),
                              char_sum(term(signed_euler, cj) for cj in powers))
        sum53, sum58 = sums_of[group]
        min_j = next((j for j, cj in enumerate(powers[1:], 1) if full_of[cj.matrix]), None)
        if min_j is None:
            counterexamples.append({
                "c_word": list(word),
                "reason": "no power below h has full adjoint tangent character",
            })
        eq53 = sum53 == (h - 1) * adjoint
        eq58 = sum58 == h * e(zero)

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
            "ss_c_inv": ss_nonempty(rs, c.inverse()),
        })
    return len(cycles), counterexamples, {"rows": rows}
