"""Euler characteristics on Schubert varieties and the theorem verifiers.

The engine computes Euler characteristics chi(tau, f) exactly.  The
sweeps over the whole Weyl group read them off ``demazure_layers``, one
pass up the group by length with one seed: when l(s_j tau') = l(tau') + 1,
chi(s_j tau', f) = D_j chi(tau', f), so every element costs one Demazure
operator (the braid relations make chi depend on the element only;
Demazure 1974, Kumar, Kac-Moody Groups, ch. 8).  thmB seeds the sum of
the e^beta; thmA and thm42 share one pass (``verify_root_lines``) whose
seed tags each e^beta with its root's index in a digit above the weight
digits, so one operator carries every per-root line.  The criterion for
X(tau^-1) is ``ss_nonempty`` on tau's enumerated inverse, and tau's
inversions are ``tau.inverted()``.  Single queries go along
the canonical reduced word (``euler_char``, ``h0_line``).  Individual
cohomology characters are only ever reported in regimes where vanishing
is certified:

  * dominant line bundles (all higher cohomology vanishes), and
  * positive-root line bundles on simply-laced types (higher cohomology
    vanishes and chi is effective).

Everything else is refused rather than guessed; the non-simply-laced sweep
below is explicitly exploratory and never labels Euler data as an h^0.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .charring import (_DIGIT, Character, _pack, adjoint_character, char_to_str,
                       demazure_along_word, demazure_op, e)
from .rootsys import RootSystem, Weight
from .weyl import WeylElement, enumerate_group, from_word, longest_element, min_parabolic_rep

__all__ = [
    "euler_char",
    "h0_line",
    "ss_nonempty",
    "demazure_layers",
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


def demazure_layers(rs: RootSystem, seed: Character,
                    guard: int | None = None) -> Iterator[tuple[WeylElement, Character]]:
    """(tau, chi(tau, seed)) for every tau, in enumerate_group order.

    The left parent comes from enumeration's links: tau^-1 = p s_d with p
    its BFS parent, so tau = s_d p^-1 with p^-1 in the previous length
    layer, and chi(tau, seed) is D_d of its character.  Only the previous
    and the current layer are kept, keyed by element.
    """
    previous: dict[WeylElement, Character] = {}
    current: dict[WeylElement, Character] = {}
    length = 0
    for tau in enumerate_group(rs, guard):
        inv = tau._inverse
        if len(inv._word) != length:
            previous, current, length = current, {}, len(inv._word)
        chi = (demazure_op(rs, inv._word[-1], previous[inv._parent._inverse])
               if length else seed)
        current[tau] = chi
        yield tau, chi


def _untagged(terms: Iterable[tuple[int, int]], mask: int) -> Character:
    """The sum of tagged terms, their tag digit masked off."""
    out: dict[int, int] = {}
    for k, v in terms:
        k &= mask
        out[k] = out.get(k, 0) + v
    return Character._from_packed(out)


def verify_root_lines(rs: RootSystem, checks: Sequence[str],
                      guard: int | None = None) -> list[tuple[int, list, dict]]:
    """thmA and thm42, those of them named in checks, from one Demazure sweep.

    The seed is the sum of the e^beta_r, each tagged with its root's index
    r in the digit above the weight digits.  ``demazure_op`` steps only the
    weight digits, so one operator per element carries every h0 line
    chi(tau, e^beta_r).  The lines are certified with one ``min``.  Returns
    one (universe, counterexamples, details) per name in checks, in order.

    thmA: H^0 of the restricted tangent bundle on X(tau) is the sum of the
    h0 lines, tags masked off.  For every tau it has the full adjoint
    character exactly when the semistable locus of X(tau^-1) is nonempty,
    and it never exceeds the adjoint character (the kernel stays
    effective).

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
    thmA = "thmA" in checks
    roots = rs.positive_roots
    shift = _DIGIT * rs.rank
    mask = (1 << shift) - 1
    seed = Character._from_packed({_pack(b.weight.fw) | r << shift: 1 for r, b in enumerate(roots)})
    tangent_rows: list[dict] = []
    universe = n_equal = n_ss = 0
    alphas = list(range(1, rs.rank + 1)) if "thm42" in checks else []
    w0 = tuple(zip(*longest_element(rs).matrix)) if alphas else ()  # column a is w0(omega_a)
    target = {a: w0[a - 1] for a in alphas}
    for a in alphas:
        if tuple(zip(*min_parabolic_rep(rs, a).matrix))[a - 1] != target[a]:
            raise AssertionError(f"w_alpha is outside the coset w0 W_P for alpha_{a}")
    coset_rows: dict[int, list[dict]] = {a: [] for a in alphas}
    per_alpha = {str(a): 0 for a in alphas}
    for tau, chi in demazure_layers(rs, seed, guard):
        columns = tuple(zip(*tau.matrix))
        cosets = [a for a in alphas if columns[a - 1] == target[a]]
        if not (thmA or cosets):
            continue
        terms = chi._terms
        if min(terms.values(), default=0) < 0:  # name the first root with a negative line
            raise _uncertified(roots[min(k for k, v in terms.items() if v < 0) >> shift].weight)
        if thmA:
            universe += 1
            tangent = _untagged(terms.items(), mask)
            is_full = tangent == adjoint
            if not (is_full or tangent.termwise_leq(adjoint)):
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
                    "kernel": char_to_str(rs, adjoint - tangent),
                })
        if not cosets:
            continue
        inverted = tau.inverted()
        total = _untagged(((k, v) for k, v in terms.items() if inverted[k >> shift]), mask)
        outside = sorted({k >> shift for k in terms if not inverted[k >> shift]})
        for a in cosets:
            per_alpha[str(a)] += 1
            if total == adjoint and not outside:
                continue
            words = {"tau_word": list(tau.reduced_word()),
                     "tau_inv_word": list(tau.inverse().reduced_word())}
            if total != adjoint:
                coset_rows[a].append({
                    "alpha": a, **words,
                    "clause": "inversion-sum",
                    "difference": char_to_str(rs, adjoint - total),
                })
            for r in outside:
                coset_rows[a].append({
                    "alpha": a, **words,
                    "clause": "outside-vanishing",
                    "beta": list(roots[r].coords),
                    "h0": char_to_str(rs, _untagged(
                        ((k, v) for k, v in terms.items() if k >> shift == r), mask)),
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
    seed = Character({beta.weight: 1 for beta in rs.positive_roots})
    rows, flagged = [], []
    for tau, total in demazure_layers(rs, seed, guard):
        has_negative = not total.is_effective()
        rows.append({
            "tau_word": list(tau.reduced_word()),
            "tau_inv_word": list(tau.inverse().reduced_word()),
            "euler_equals_adjoint": total == adjoint,
            "ss_nonempty": ss_nonempty(rs, tau.inverse()),
            "has_negative_multiplicity": has_negative,
        })
        if has_negative:
            flagged.append({"tau_word": list(tau.reduced_word()),
                            "euler": char_to_str(rs, total)})
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

