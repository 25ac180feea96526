"""Euler characteristics on Schubert varieties and the theorem verifiers.

The engine computes Euler characteristics chi(tau, f) exactly.  The
sweeps over the whole Weyl group read them off ``group_walk``, the one
walk of the group (``weyl.walk``) with one seed as its payload: when
l(s_k tau) = l(tau) + 1, chi(s_k tau, f) = D_k chi(tau, f), so every
element costs one Demazure operator (the braid relations make chi depend
on the element only; Demazure 1974, Kumar, Kac-Moody Groups, ch. 8).
Every seed lies in the span of the e^mu, mu in R u {0}, which each D_i
maps to itself, so a sweep carries columns indexed by those weights, and
D_i is a table built once per root system from ``demazure_op``.  thmB
seeds the sum of the e^beta and takes each row's canonical word of tau
from the sweep's ``word_table``, each element peeled once; thmA
(``verify_thmA``) walks all of W and thm42 (``verify_thm42``) walks only
its cosets W_P* w_alpha, one per simple root, each on columns that pack
every per-root line as a 32-bit digit; ``inversion_tangent`` steps the
same tables along one word.  One check is one verifier and one walk.
The criterion for X(tau^-1) is read off the walk's x, and thm42 reads
tau's non-inversions off its heights, packed.
Single queries go along the canonical reduced word (``euler_char``,
``h0_line``); so do the Euler checks of
Coxeter elements, thmC_typeA and cor52_53_58, which take each c and its
powers from its ``coxeter`` entry.  Individual cohomology characters
are only ever reported in regimes where vanishing is certified:

  * dominant line bundles (all higher cohomology vanishes), and
  * positive-root line bundles on simply-laced types (higher cohomology
    vanishes and chi is effective).

Everything else is refused rather than guessed; the non-simply-laced sweep
below asserts a necessary condition only and never labels Euler data as
an h^0.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import gt, itemgetter, mul, or_, sub
from typing import Iterable, Iterator, Sequence

from . import coxeter
from .charring import (_DIGIT, _MASK, _OFF, Character, _pack, adjoint_character, char_to_str,
                       demazure_along_word, demazure_op, e)
from .rootsys import RootSystem, Weight, resolve_guard
from .weyl import (WeylElement, coxeter_elements, from_word, min_parabolic_rep, ss_nonempty, walk,
                   word_table)

__all__ = [
    "euler_char",
    "h0_line",
    "group_walk",
    "inversion_tangent",
    "verify_thmA",
    "verify_thm42",
    "verify_thmB_criterion",
    "verify_lemma26",
    "verify_thmC_typeA",
    "verify_cor52_53_58",
    "lemma61_search",
    "verify_lemma61",
    "remark_b2_check",
]


def euler_char(rs: RootSystem, tau: WeylElement, f: Character,
               bound: int | None = None) -> Character:
    """chi(tau, f): Demazure composition along the canonical word of tau,
    refused past bound terms (``demazure_along_word``)."""
    return demazure_along_word(rs, tau.reduced_word(), f, bound)


def h0_line(rs: RootSystem, tau: WeylElement, lam: Weight) -> Character:
    """Character of H^0(X(tau), L_lam), only in certified vanishing regimes.

    Accepts dominant lam (any type), or lam a positive root when the type
    is simply laced.  Anything else raises ValueError: the Euler
    characteristic alone cannot be split into cohomology degrees there.
    """
    if not lam.is_dominant:
        root = rs.root_of(lam)
        if root is None or not root.positive:
            raise ValueError(
                f"h0_line: {lam} is neither dominant nor a positive root")
        if not rs.simply_laced:
            raise ValueError(
                f"h0_line: positive-root weights need a simply-laced type, "
                f"not {rs.ct}")
    out = euler_char(rs, tau, e(lam))
    if not out.is_effective():
        raise _uncertified(lam)
    return out


def _uncertified(lam: Weight) -> AssertionError:
    return AssertionError(f"negative multiplicity in certified h0 for {lam}")


@lru_cache(maxsize=None)
def _adjoint_tables(rs: RootSystem) -> tuple[tuple[int, ...], tuple, list[int]]:
    """The packed keys of the columns (0, then ``rs.roots``); per simple
    root i, D_i on them: an ``itemgetter`` copies each column that takes one
    whole, and (column, ((source, coefficient), ...)) computes each other --
    in simply-laced types only c'_0 = c_0 + c_{alpha_i} - c_{-alpha_i}; and
    the adjoint character as columns, the sweeps' target."""
    keys = tuple(_pack(w.fw) for w in (rs.zero(), *(r.weight for r in rs.roots)))
    index = {k: b for b, k in enumerate(keys)}
    tables = []
    for i in range(1, rs.rank + 1):
        into: list[list] = [[] for _ in keys]
        for a, k in enumerate(keys):
            for key, c in demazure_op(rs, i, Character._from_packed({k: 1}))._terms.items():
                if key not in index:
                    raise AssertionError(f"D_{i} leaves the adjoint weights")
                into[index[key]].append((a, c))
        copy = {b: row[0][0] for b, row in enumerate(into) if len(row) == 1 and row[0][1] == 1}
        tables.append((itemgetter(*(copy.get(b, b) for b in range(len(keys)))),
                       tuple((b, tuple(row)) for b, row in enumerate(into) if b not in copy)))
    adjoint = adjoint_character(rs)._terms
    return keys, tuple(tables), [adjoint.get(k, 0) for k in keys]


def _column_step(rs: RootSystem, i: int, cols: list[int], sign: int) -> list[int]:
    """D_i on columns.  Adding sign, the sign bits of the 32-bit digits of a
    computed column, leaves exactly those of its negative digits clear;
    the lowest names the root of the refused line."""
    gather, computed = _adjoint_tables(rs)[1][i - 1]
    out = list(gather(cols))
    for b, row in computed:
        out[b] = v = sum(c * cols[a] for a, c in row)
        if (v + sign) & sign != sign:
            low = ~(v + sign) & sign
            beta = rs.positive_roots[(low & -low).bit_length() // _DIGIT - 1]
            raise AssertionError(f"{_uncertified(beta.weight)}, the line of {beta}")
    return out


def _line_seed(rs: RootSystem, chosen: Sequence[bool]) -> tuple[list[int], int, int]:
    """Columns of the e^beta_r, r chosen, with line r in 32-bit digit r and
    their sum, the tangent, in digit |R+|; that digit's shift; the sign mask."""
    top = _DIGIT * len(chosen)
    seed = [0, *(1 << top | 1 << _DIGIT * r if c else 0 for r, c in enumerate(chosen))]
    return seed + [0] * len(chosen), top, sum(_OFF << d for d in range(0, top + 1, _DIGIT))


def _character(rs: RootSystem, cols: Iterable[int]) -> Character:
    return Character._from_packed(dict(zip(_adjoint_tables(rs)[0], cols)))


def group_walk(rs: RootSystem, seed: list[int], guard: int | None = None, sign: int = 0,
               start: Sequence[int] = (), letters: Iterable[int] | None = None,
               ) -> Iterator[tuple[list[int], tuple[int, ...], tuple, list[int]]]:
    """``weyl.walk`` with chi(tau, seed) as columns for payload: the
    multiplicities at 0, then at ``rs.roots``, an entry maybe packing
    several as 32-bit digits.  Each left step s_k tau is one
    ``_column_step`` of tau's columns, certified against sign, those of
    the climb from e to the start included."""
    return walk(rs, seed, lambda i, cols: _column_step(rs, i, cols, sign), guard, start, letters)


def _canonical(row: dict) -> tuple[int, list[int]]:
    """The enumeration order of rows: (length, canonical word) of tau."""
    return len(row["tau_word"]), row["tau_word"]


def inversion_tangent(rs: RootSystem, tau: WeylElement) -> Character:
    """The sum of the h0 lines chi(tau, e^beta) over tau's inversions, each
    line certified, stepped along tau's canonical word on columns."""
    cols, top, sign = _line_seed(rs, tau.inverted())
    for i in reversed(tau.reduced_word()):
        cols = _column_step(rs, i, cols, sign)
    return _character(rs, [c >> top for c in cols])


def verify_thmA(rs: RootSystem, guard: int | None = None) -> tuple[int, list, dict]:
    """H^0 of the restricted tangent bundle on X(tau), the sum of the h0
    lines chi(tau, e^beta) over the positive roots, for every tau in W: it
    has the full adjoint character exactly when the semistable locus of
    X(tau^-1) is nonempty, and it never exceeds the adjoint character (the
    kernel stays effective).

    Each column of the seed packs the e^beta_r, line r in 32-bit digit r,
    and their sum in the top digit, so one column step per element carries
    every line and the tangent; every line is certified as the step
    computes it.
    """
    target = _adjoint_tables(rs)[2]
    alpha0 = rs.highest_root.coords  # D ht sigma(alpha_0) = sum_k alpha0_k x_k
    seed, top, sign = _line_seed(rs, [True] * len(rs.positive_roots))
    rows: list[dict] = []
    n_equal = n_ss = 0
    for x, word, h, cols in group_walk(rs, seed, guard, sign):
        tangent = [c >> top for c in cols]
        is_full = tangent == target
        if not is_full and any(map(gt, tangent, target)):
            tau = WeylElement(rs, h)
            raise AssertionError(f"tangent exceeds adjoint, at tau = {tau}, "
                                 f"tau^-1 = {tau.inverse()}")
        criterion = sum(map(mul, alpha0, x)) < 0  # ss_nonempty(rs, sigma)
        n_equal += is_full
        n_ss += criterion
        if is_full != criterion:
            rows.append({
                "tau_word": list(WeylElement(rs, h).reduced_word()),
                "tau_inv_word": list(word),
                "tangent_equals_adjoint": is_full,
                "ss_nonempty": criterion,
                "kernel": char_to_str(rs, _character(rs, map(sub, target, tangent))),
            })
    return rs.ct.weyl_order, sorted(rows, key=_canonical), {
        "full_tangent_count": n_equal, "ss_count": n_ss}


def _root_packs(rs: RootSystem) -> list[int]:
    """Per fw coordinate j, the fw_j(beta_r) of the positive roots packed as
    32-bit digits: sum_j H(tau)_j P_j packs D ht tau(beta_r) in digit r."""
    roots = rs.positive_roots
    return [sum(b.weight.fw[j] << _DIGIT * r for r, b in enumerate(roots)) for j in range(rs.rank)]


def verify_thm42(rs: RootSystem, guard: int | None = None) -> tuple[int, list, dict]:
    """For every simple alpha and every tau above w_alpha in Bruhat order,
    the lines of tau's inversions sum to the adjoint character and every
    other positive root's line is zero.  The counterexamples are listed
    alpha by alpha, each row naming its alpha.

    That upper set is the coset w0 W_P = W_P* w_alpha, P the parabolic
    dropping alpha and P* the one dropping alpha*, -w0(omega_alpha) =
    omega_alpha*: w_alpha is the maximum of W^P and tau -> tau^P preserves
    Bruhat order, so tau >= w_alpha iff tau^P = w_alpha (Bjorner-Brenti,
    Section 2.5 and Cor. 2.2.3).  w_alpha is least in W_P* w_alpha, so its
    one left descent, the first letter of its word, is alpha*.  One walk
    per alpha starts at w_alpha over the letters of P*, Sum_alpha |W_P|
    elements in all; the check table prices |W|, which bounds it.  On
    columns packed as for thmA, an element passes when its tangent is the
    adjoint character and no line of a root beta with tau(beta) > 0 has a
    nonzero digit, which the sign bits of D ht tau(beta) and of the lines'
    digits read in two ANDs; rows are built only on a failure.
    """
    target = _adjoint_tables(rs)[2]
    roots = rs.positive_roots
    seed, top, sign = _line_seed(rs, [True] * len(roots))
    lines = sign & ~(-1 << top)  # the sign bits of the lines' digits, not the tangent's
    nonzero = lines - (lines >> _DIGIT - 1)  # 2^31 - 1 per line: a digit d >= 1 sets its bit
    packs = _root_packs(rs)
    rows, per_alpha = [], {}
    for a in range(1, rs.rank + 1):
        start = min_parabolic_rep(rs, a).reduced_word()
        coset: list[dict] = []
        walked = group_walk(rs, seed, guard, sign, start, set(range(1, rs.rank + 1)) - {start[0]})
        for count, (_, _, h, cols) in enumerate(walked, 1):
            tangent = [c >> top for c in cols]
            # bit 31 of digit r: tau(beta_r) > 0 and line r is not zero
            outside = (sum(map(mul, h, packs)) + lines) & (reduce(or_, cols) + nonzero) & lines
            if tangent == target and not outside:
                continue
            tau = WeylElement(rs, h)
            words = {"tau_word": list(tau.reduced_word()),
                     "tau_inv_word": list(tau.inverse().reduced_word())}
            found = {r: [c >> _DIGIT * r & _MASK for c in cols]
                     for r in range(len(roots)) if outside >> _DIGIT * r & _OFF}
            total = ([t - sum(off) for t, off in zip(tangent, zip(*found.values()))]
                     if found else tangent)
            if total != target:
                coset.append({"alpha": a, **words, "clause": "inversion-sum", "difference":
                              char_to_str(rs, _character(rs, map(sub, target, total)))})
            coset += ({"alpha": a, **words, "clause": "outside-vanishing",
                       "beta": list(roots[r].coords), "h0": char_to_str(rs, _character(rs, line))}
                      for r, line in found.items())
        per_alpha[str(a)] = count
        rows += sorted(coset, key=_canonical)
    return sum(per_alpha.values()), rows, {"elements_above_w_alpha": per_alpha}


def verify_thmB_criterion(rs: RootSystem,
                          guard: int | None = None) -> tuple[int, list, dict]:
    """Non-simply-laced sweep of Euler data against the criterion.

    Computes E(tau) = sum of chi(tau, e^beta) over positive beta for every
    tau -- by linearity one Demazure sweep of the single seed
    sum_beta e^beta -- and records, per element, whether E equals the
    adjoint character, whether the semistable criterion holds for
    tau^{-1}, and whether E has a negative multiplicity (which certifies
    nonvanishing H^1).  It asserts the two consequences of Theorem B that
    a sweep can check, a necessary condition only: H^i = 0 for i >= 1, so
    E = ch H^0 has no negative multiplicity; and where the criterion holds,
    g is a B-submodule of H^0, so char g <= E termwise.  Each failure is a
    counterexample row naming its clause.  The converse, E = char g
    exactly where the criterion holds, stays informational.

    Every row's tau_word is the list of one ``word_table``, shared with
    the table, not copied.
    """
    target = _adjoint_tables(rs)[2]
    alpha0 = rs.highest_root.coords
    word_of = word_table(rs)
    rows, flagged, counterexamples = [], [], []
    for x, word, h, total in group_walk(rs, [0, *(int(r.positive) for r in rs.roots)], guard):
        has_negative = min(total) < 0
        ss = sum(map(mul, alpha0, x)) < 0
        tau_word = word_of(h)
        rows.append({
            "tau_word": tau_word,
            "tau_inv_word": list(word),
            "euler_equals_adjoint": total == target,
            "ss_nonempty": ss,
            "has_negative_multiplicity": has_negative,
        })
        not_contained = ss and any(map(gt, target, total))
        if has_negative or not_contained:
            clauses = [clause for clause, failed in (
                ("negative-multiplicity", has_negative),
                ("adjoint-not-contained", not_contained)) if failed]
            euler = char_to_str(rs, _character(rs, total))
            if has_negative:
                flagged.append({"tau_word": tau_word, "euler": euler})
            counterexamples += ({"tau_word": tau_word, "tau_inv_word": list(word),
                                 "clause": clause, "euler": euler} for clause in clauses)
    rows.sort(key=_canonical)
    flagged.sort(key=_canonical)
    counterexamples.sort(key=_canonical)
    return len(rows), counterexamples, {
        "rows": rows,
        "flagged_negative": flagged,
        "criterion_matches_euler_everywhere": all(
            row["euler_equals_adjoint"] == row["ss_nonempty"] for row in rows),
    }


def verify_lemma26(rs: RootSystem) -> tuple[int, list, dict]:
    """Simply-laced pairing bound: <beta, alpha_vee> in {-1,0,1} off +-alpha."""
    counterexamples = []
    universe = 0
    for i in range(1, rs.rank + 1):
        alpha = rs.simple_roots[i - 1]
        for beta in rs.roots:
            if beta.coords == alpha.coords or beta.coords == (-alpha).coords:
                continue
            universe += 1
            val = rs.pairing_root(beta.weight, alpha)
            if val not in (-1, 0, 1):
                counterexamples.append({
                    "alpha": i,
                    "beta": list(beta.coords),
                    "pairing": val,
                })
    return universe, counterexamples, {}


def _dot_zero_euler(rs: RootSystem, w: WeylElement, w_inv: WeylElement,
                    bound: int | None = None) -> Character:
    """chi(w, e^{w^-1 . 0}), which Cor. 5.8 and Thm. C weigh by (-1)^l(w),
    refused past bound terms."""
    return euler_char(rs, w, e(w_inv.dot(rs.zero())), bound)


def verify_thmC_typeA(rs: RootSystem, guard: int | None = None) -> tuple[int, list, dict]:
    """Type A powers of the staircase Coxeter element c = s_n ... s_1.

    Checks c^r = w_{alpha_r}, reads off the dot-action weight
    (c^r)^{-1} . 0 = epsilon (n+1) omega_r recording the single sign
    epsilon, and confirms chi(c^r, e^{that weight}) = (-1)^{l(c^r)} e^0.
    Non-extremal Coxeter elements get informational rows only.  An Euler
    character past the guard's count of terms is refused (GuardExceeded).
    """
    n, bound = rs.rank, resolve_guard(guard)
    powers = coxeter._cycle(coxeter._entry(rs, range(n, 0, -1)))
    counterexamples = []
    signs = set()
    zero = rs.zero()
    for r in range(1, n + 1):
        cr, cr_inv = powers[r], powers[-r]
        w_r = min_parabolic_rep(rs, r)
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
        chi = _dot_zero_euler(rs, cr, cr_inv, bound)
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
        if coxeter.is_typeA_extremal(rs, cox):
            continue
        chi = _dot_zero_euler(rs, cox, coxeter._cycle(coxeter._entry(rs, word, cox))[-1], bound)
        nonextremal_rows.append({
            "c_word": list(word),
            "euler_is_signed_e0": chi == e(zero, (-1) ** cox.length),
            "euler": char_to_str(rs, chi),
        })
    return n, counterexamples, {
        "epsilon": sorted(signs)[0] if len(signs) == 1 else None,
        "nonextremal_rows": nonextremal_rows,
    }


def verify_cor52_53_58(rs: RootSystem, guard: int | None = None) -> tuple[int, list, dict]:
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
    e is zero, so C' and C share one walk.  An Euler character past the
    guard's count of terms is refused (GuardExceeded).
    """
    adjoint, bound = adjoint_character(rs), resolve_guard(guard)
    groups: dict[frozenset, tuple[Character, Character]] = {}
    cycles = []
    for c, word in coxeter_elements(rs):
        powers = coxeter._cycle(coxeter._entry(rs, word, c))
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
            chi = _dot_zero_euler(rs, cj, powers[-j], bound)
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

        extremal = rs.ct.family == "A" and coxeter.is_typeA_extremal(rs, c)
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


def lemma61_search(rs: RootSystem) -> dict | None:
    """Find a simple alpha and positive root beta with s_alpha . beta = nu.

    nu is the highest short root and . the dot action.  Scans simple roots
    in index order and returns the first hit, so the result is
    deterministic; returns None when no pair exists.
    """
    if rs.simply_laced:
        raise ValueError("the short-root search needs two root lengths")
    nu = rs.highest_short_root.weight
    for i in range(1, rs.rank + 1):
        alpha = rs.simple_roots[i - 1]
        candidate = rs.reflect_simple(nu + rs.rho, i) - rs.rho
        beta = rs.root_of(candidate)
        if beta is not None and beta.positive:
            back = rs.reflect_simple(beta.weight + rs.rho, i) - rs.rho
            if back != nu:
                raise AssertionError("dot reflection failed to invert")
            nu_plus_alpha = rs.root_of(nu + alpha.weight)
            return {
                "alpha": i,
                "beta": list(beta.coords),
                "s_alpha_dot_beta": list(rs.highest_short_root.coords),
                "pairing_nu_alpha": rs.pairing(nu, i),
                "nu_plus_alpha_is_root": nu_plus_alpha is not None,
            }
    return None


def verify_lemma61(rs: RootSystem) -> tuple[int, list, dict]:
    found = lemma61_search(rs)
    counterexamples = []
    if found is None:
        counterexamples.append({
            "nu": list(rs.highest_short_root.coords),
            "reason": "no simple alpha with s_alpha . nu a positive root",
        })
    return rs.rank, counterexamples, found or {}


def borel_character(rs: RootSystem) -> Character:
    """Character of the Borel subalgebra: rank * e^0 plus all negative roots."""
    terms = {rs.zero(): rs.rank}
    for beta in rs.positive_roots:
        terms[-beta.weight] = 1
    return Character(terms)


def remark_b2_check(rs: RootSystem) -> tuple[int, list, dict]:
    """Regression check of the B2 boundary example tau = s1 s2 s1.

    E = chi(tau, char b) is computed by the string formula; the H^0
    candidate E + e^{-a1-a2} must be effective and termwise at most
    char b.  The expected E is additionally frozen in the test suite from
    an independent pre-build evaluation.
    """
    tau = from_word(rs, (1, 2, 1))
    char_b = borel_character(rs)
    euler = euler_char(rs, tau, char_b)
    a1 = rs.simple_roots[0].weight
    a2 = rs.simple_roots[1].weight
    candidate = euler + e(-(a1 + a2))
    counterexamples = []
    if not candidate.is_effective():
        counterexamples.append({
            "reason": "candidate has a negative multiplicity",
            "candidate": char_to_str(rs, candidate),
        })
    if not candidate.termwise_leq(char_b):
        counterexamples.append({
            "reason": "candidate is not contained in char b",
            "candidate": char_to_str(rs, candidate),
            "char_b": char_to_str(rs, char_b),
        })
    return 1, counterexamples, {
        "tau_word": [1, 2, 1],
        "euler": char_to_str(rs, euler),
        "h0_candidate": char_to_str(rs, candidate),
    }

