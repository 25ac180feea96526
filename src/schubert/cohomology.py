"""Euler characteristics on Schubert varieties and the theorem verifiers.

The engine computes Euler characteristics chi(tau, f) exactly.  The
sweeps over the whole Weyl group read them off ``demazure_layers``, one
pass up the group by length with one seed: when l(s_j tau') = l(tau') + 1,
chi(s_j tau', f) = D_j chi(tau', f), so every element costs one Demazure
operator (the braid relations make chi depend on the element only;
Demazure 1974, Kumar, Kac-Moody Groups, ch. 8).  Every seed lies in the
span of the e^mu, mu in R u {0}, which each D_i maps to itself, so a sweep
carries columns indexed by those weights, and D_i is a table built once
per root system from ``demazure_op``.  thmB seeds the sum of the e^beta;
thmA and thm42 share one pass (``verify_root_lines``) whose columns pack
every per-root line as a 32-bit digit; ``inversion_tangent`` steps the
same tables along one word.  The criterion for X(tau^-1) is
``ss_nonempty`` on tau's enumerated inverse, and tau's inversions are
``tau.inverted()``.  Single queries go along the canonical reduced word
(``euler_char``, ``h0_line``).  Individual cohomology characters are only
ever reported in regimes where vanishing is certified:

  * dominant line bundles (all higher cohomology vanishes), and
  * positive-root line bundles on simply-laced types (higher cohomology
    vanishes and chi is effective).

Everything else is refused rather than guessed; the non-simply-laced sweep
below is explicitly exploratory and never labels Euler data as an h^0.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import gt, itemgetter, or_
from typing import Iterable, Iterator, Sequence

from .charring import (_DIGIT, _MASK, _OFF, Character, _pack, adjoint_character, char_to_str,
                       demazure_along_word, demazure_op, e)
from .rootsys import RootSystem, Weight
from .weyl import WeylElement, enumerate_group, from_word, longest_element, min_parabolic_rep

__all__ = [
    "euler_char",
    "h0_line",
    "ss_nonempty",
    "demazure_layers",
    "inversion_tangent",
    "verify_root_lines",
    "verify_thmB_criterion",
    "verify_lemma26",
    "lemma61_search",
    "verify_lemma61",
    "remark_b2_check",
]


def euler_char(rs: RootSystem, tau: WeylElement, f: Character) -> Character:
    """chi(tau, f): Demazure composition along the canonical word of tau."""
    return demazure_along_word(rs, tau.reduced_word(), f)


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
    return AssertionError(f"engine failure: negative multiplicity in certified h0 for {lam}")


def ss_nonempty(rs: RootSystem, w: WeylElement) -> bool:
    """Semistable-locus criterion for X(w): w(-alpha_0) is a positive root."""
    root = rs._by_fw.get(w.act(rs.highest_root.weight.fw))
    if root is None:
        raise AssertionError("Weyl image of the highest root is not a root")
    return not root.positive  # w(-alpha_0) = -w(alpha_0)


@lru_cache(maxsize=None)
def _adjoint_tables(rs: RootSystem) -> tuple[tuple[int, ...], tuple]:
    """The packed keys of the columns (0, then ``rs.roots``) and, per simple
    root i, D_i on them: an ``itemgetter`` copies each column that takes one
    whole, and (column, ((source, coefficient), ...)) computes each other --
    in simply-laced types only c'_0 = c_0 + c_{alpha_i} - c_{-alpha_i}."""
    keys = tuple(_pack(w.fw) for w in (rs.zero(), *(r.weight for r in rs.roots)))
    index = {k: b for b, k in enumerate(keys)}
    tables = []
    for i in range(1, rs.rank + 1):
        into: list[list] = [[] for _ in keys]
        for a, k in enumerate(keys):
            for key, c in demazure_op(rs, i, Character._from_packed({k: 1}))._terms.items():
                if key not in index:
                    raise AssertionError(f"engine failure: D_{i} leaves the adjoint weights")
                into[index[key]].append((a, c))
        copy = {b: row[0][0] for b, row in enumerate(into) if len(row) == 1 and row[0][1] == 1}
        tables.append((itemgetter(*(copy.get(b, b) for b in range(len(keys)))),
                       tuple((b, tuple(row)) for b, row in enumerate(into) if b not in copy)))
    return keys, tuple(tables)


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
            raise _uncertified(rs.positive_roots[(low & -low).bit_length() // _DIGIT - 1].weight)
    return out


def _line_seed(rs: RootSystem, chosen: Sequence[bool]) -> tuple[list[int], int, int]:
    """Columns of the e^beta_r, r chosen, with line r in 32-bit digit r and
    their sum, the tangent, in digit |R+|; that digit's shift; the sign mask."""
    top = _DIGIT * len(chosen)
    seed = [0, *(1 << top | 1 << _DIGIT * r if c else 0 for r, c in enumerate(chosen))]
    return seed + [0] * len(chosen), top, sum(_OFF << d for d in range(0, top + 1, _DIGIT))


def _character(rs: RootSystem, cols: Iterable[int]) -> Character:
    return Character._from_packed(dict(zip(_adjoint_tables(rs)[0], cols)))


def demazure_layers(rs: RootSystem, seed: list[int], guard: int | None = None,
                    sign: int = 0) -> Iterator[tuple[WeylElement, list[int]]]:
    """(tau, chi(tau, seed)) for every tau, in enumerate_group order, as
    columns: the multiplicities at 0, then at ``rs.roots``, an entry maybe
    packing several as 32-bit digits.  tau^-1 = p s_d for p its BFS parent,
    so tau = s_d p^-1 with p^-1 in the previous length layer, and one
    ``_column_step`` of p^-1's columns, certified against sign, gives
    tau's.  Only the previous and the current layer are kept."""
    previous, current, length = {}, {}, 0
    for tau in enumerate_group(rs, guard):
        inv = tau._inverse
        if len(inv._word) != length:
            previous, current, length = current, {}, len(inv._word)
        cols = (_column_step(rs, inv._word[-1], previous[inv._parent._inverse], sign)
                if length else seed)
        current[tau] = cols
        yield tau, cols


def inversion_tangent(rs: RootSystem, tau: WeylElement) -> Character:
    """The sum of the h0 lines chi(tau, e^beta) over tau's inversions, each
    line certified, stepped along tau's canonical word on columns."""
    cols, top, sign = _line_seed(rs, tau.inverted())
    for i in reversed(tau.reduced_word()):
        cols = _column_step(rs, i, cols, sign)
    return _character(rs, [c >> top for c in cols])


def verify_root_lines(rs: RootSystem, checks: Sequence[str],
                      guard: int | None = None) -> list[tuple[int, list, dict]]:
    """thmA and thm42, those of them named in checks, from one Demazure sweep.

    Each column of the seed packs the e^beta_r, line r in 32-bit digit r,
    and their sum in the top digit, so one column step per element carries
    every h0 line chi(tau, e^beta_r) and the tangent; every line is
    certified as the step computes it.  Returns one (universe,
    counterexamples, details) per name in checks, in order.

    thmA: H^0 of the restricted tangent bundle on X(tau) is the sum of the
    h0 lines.  For every tau it has the full adjoint character exactly
    when the semistable locus of X(tau^-1) is nonempty, and it never
    exceeds the adjoint character (the kernel stays effective).

    thm42: for every simple alpha and every tau above w_alpha in Bruhat
    order, the lines of tau's inversions sum to the adjoint character and
    every other positive root's line is zero.  The counterexamples are
    listed alpha by alpha, each row naming its alpha.  That upper set is
    the coset w0 W_P, found as tau(omega_alpha) = w0(omega_alpha): W_P,
    the parabolic dropping alpha, is the stabilizer of omega_alpha,
    w_alpha is the maximum of W^P, and tau -> tau^P preserves Bruhat
    order, so tau >= w_alpha iff tau^P = w_alpha (Bjorner-Brenti, Section
    2.5 and Cor. 2.2.3).
    """
    adjoint = adjoint_character(rs)
    target = [adjoint._terms.get(k, 0) for k in _adjoint_tables(rs)[0]]
    thmA = "thmA" in checks
    roots = rs.positive_roots
    seed, top, sign = _line_seed(rs, [True] * len(roots))
    tangent_rows: list[dict] = []
    universe = n_equal = n_ss = 0
    alphas = list(range(1, rs.rank + 1)) if "thm42" in checks else []
    w0 = tuple(zip(*longest_element(rs).matrix)) if alphas else ()  # column a is w0(omega_a)
    coset_of = {a: w0[a - 1] for a in alphas}
    for a in alphas:
        if tuple(zip(*min_parabolic_rep(rs, a).matrix))[a - 1] != coset_of[a]:
            raise AssertionError(f"w_alpha is outside the coset w0 W_P for alpha_{a}")
    coset_rows: dict[int, list[dict]] = {a: [] for a in alphas}
    per_alpha = {str(a): 0 for a in alphas}
    for tau, cols in demazure_layers(rs, seed, guard, sign):
        columns = tuple(zip(*tau.matrix))
        cosets = [a for a in alphas if columns[a - 1] == coset_of[a]]
        if not (thmA or cosets):
            continue
        tangent = [c >> top for c in cols]
        if thmA:
            universe += 1
            is_full = tangent == target
            if not is_full and any(map(gt, tangent, target)):
                raise AssertionError("engine failure: tangent exceeds adjoint")
            criterion = ss_nonempty(rs, tau.inverse())
            n_equal += is_full
            n_ss += criterion
            if is_full != criterion:
                tangent_rows.append({
                    "tau_word": list(tau.reduced_word()),
                    "tau_inv_word": list(tau.inverse().reduced_word()),
                    "tangent_equals_adjoint": is_full,
                    "ss_nonempty": criterion,
                    "kernel": char_to_str(rs, adjoint - _character(rs, tangent)),
                })
        if not cosets:
            continue
        seen = reduce(or_, cols)  # every digit is certified nonnegative
        lines = {r: [c >> _DIGIT * r & _MASK for c in cols] for r, neg in
                 enumerate(tau.inverted()) if not neg and seen >> _DIGIT * r & _MASK}
        total = [t - sum(off) for t, off in zip(tangent, zip(*lines.values()))] if lines else tangent
        for a in cosets:
            per_alpha[str(a)] += 1
            if total == target and not lines:
                continue
            words = {"tau_word": list(tau.reduced_word()),
                     "tau_inv_word": list(tau.inverse().reduced_word())}
            if total != target:
                coset_rows[a].append({
                    "alpha": a, **words,
                    "clause": "inversion-sum",
                    "difference": char_to_str(rs, adjoint - _character(rs, total)),
                })
            for r, line in lines.items():
                coset_rows[a].append({
                    "alpha": a, **words,
                    "clause": "outside-vanishing",
                    "beta": list(roots[r].coords),
                    "h0": char_to_str(rs, _character(rs, line)),
                })
    results = {
        "thmA": (universe, tangent_rows,
                 {"full_tangent_count": n_equal, "ss_count": n_ss}),
        "thm42": (sum(per_alpha.values()), [row for a in alphas for row in coset_rows[a]],
                  {"elements_above_w_alpha": per_alpha}),
    }
    return [results[check] for check in checks]


def verify_thmB_criterion(rs: RootSystem,
                          guard: int | None = None) -> tuple[int, list, dict]:
    """Exploratory non-simply-laced sweep of Euler data against the criterion.

    Computes E(tau) = sum of chi(tau, e^beta) over positive beta for every
    tau -- by linearity one Demazure sweep of the single seed
    sum_beta e^beta -- and records, per element, whether E equals the
    adjoint character, whether the semistable criterion holds for
    tau^{-1}, and whether E has a negative multiplicity (which certifies
    nonvanishing H^1).  No theorem equivalence is asserted, so there are
    never counterexamples.
    """
    adjoint = adjoint_character(rs)
    target = [adjoint._terms.get(k, 0) for k in _adjoint_tables(rs)[0]]
    rows, flagged = [], []
    for tau, total in demazure_layers(rs, [0, *(int(r.positive) for r in rs.roots)], guard):
        has_negative = min(total) < 0
        rows.append({
            "tau_word": list(tau.reduced_word()),
            "tau_inv_word": list(tau.inverse().reduced_word()),
            "euler_equals_adjoint": total == target,
            "ss_nonempty": ss_nonempty(rs, tau.inverse()),
            "has_negative_multiplicity": has_negative,
        })
        if has_negative:
            flagged.append({"tau_word": list(tau.reduced_word()),
                            "euler": char_to_str(rs, _character(rs, total))})
    return len(rows), [], {
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

