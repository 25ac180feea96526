"""Euler characteristics on Schubert varieties and the theorem verifiers.

The engine computes Euler characteristics chi(tau, f) exactly.  The
sweeps over the whole Weyl group read them off ``group_walk``, one
depth-first walk of the group with one seed: when l(s_k tau) = l(tau) + 1,
chi(s_k tau, f) = D_k chi(tau, f), so every element costs one Demazure
operator (the braid relations make chi depend on the element only;
Demazure 1974, Kumar, Kac-Moody Groups, ch. 8).  Every seed lies in the
span of the e^mu, mu in R u {0}, which each D_i maps to itself, so a sweep
carries columns indexed by those weights, and D_i is a table built once
per root system from ``demazure_op``.  thmB seeds the sum of the e^beta;
thmA and thm42 share one walk (``verify_root_lines``) whose columns pack
every per-root line as a 32-bit digit; ``inversion_tangent`` steps the
same tables along one word.  The walk yields tau as its column heights,
the one representation of a group element (``weyl``), and keeps tau's
matrix rows to itself for the left step.  The criterion for X(tau^-1) is
read off the walk's x = (D ht tau^-1(alpha_k))_k, and tau's inversions
are ``tau.inverted()``.  Single queries go along the canonical reduced word
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
from operator import add, gt, itemgetter, mul, neg, or_
from typing import Iterable, Iterator, Sequence

from .charring import (_DIGIT, _MASK, _OFF, Character, _pack, adjoint_character, char_to_str,
                       demazure_along_word, demazure_op, e)
from .rootsys import RootSystem, Weight
from .weyl import WeylElement, from_word, guarded_order, longest_element, min_parabolic_rep

__all__ = [
    "euler_char",
    "h0_line",
    "ss_nonempty",
    "group_walk",
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
    return not w.apply_root(rs.highest_root).positive  # w(-alpha_0) = -w(alpha_0)


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


def group_walk(rs: RootSystem, seed: list[int], guard: int | None = None,
               sign: int = 0) -> Iterator[tuple[list[int], tuple[int, ...], tuple, list[int]]]:
    """Every tau in W once, depth first, as (x, word, heights, cols):

      * x = (D ht sigma(alpha_k))_k and word, the canonical word of
        sigma = tau^-1;
      * tau's column heights H(tau), which name it: ``WeylElement(rs, H)``;
      * chi(tau, seed) as columns: the multiplicities at 0, then at
        ``rs.roots``, an entry maybe packing several as 32-bit digits.

    The walk follows the tree of canonical words of sigma (Bjorner-Brenti,
    ch. 3-4): sigma s_k is a child of sigma when k is an ascent of sigma
    and the smallest right descent of sigma s_k, and the smallest letter
    goes first, so e is followed by s_1.  On tau that edge is the left step
    s_k tau, one letter longer: its columns are one ``_column_step`` of
    tau's, certified against sign, and H(s_k tau) = H(tau) - D row_k, row k
    of tau's matrix on fw coordinates.  Those rows are the walk's own
    state, never yielded: s_k tau takes row_j -= C[j][k] row_k (row k and
    its Dynkin neighbours).  An explicit stack holds a pending child as its
    letter, its x, its parent and the parent's rows, so only the column
    lists along the current path are alive: at most N + 1, N = |R+| the
    depth.  The guard prices |W| before the walk starts; visiting any other
    number of elements is an engine failure.
    """
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
        k, y, (_, word, h, cols), mat = stack.pop()
        row = mat[k]
        new = list(mat)
        new[k] = tuple(map(neg, row))
        for j, c in neighbours[k]:
            new[j] = (tuple(map(add, mat[j], row)) if c == 1 else
                      tuple(a + c * b for a, b in zip(mat[j], row)))
        mat = new
        node = (y, word + (k + 1,), tuple(a - den * b for a, b in zip(h, row)),
                _column_step(rs, k + 1, cols, sign))
    if visited != order:
        raise AssertionError(f"engine failure: walked {visited} elements, expected {order}")


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
    alpha0 = rs.highest_root.coords  # D ht sigma(alpha_0) = sum_k alpha0_k x_k
    seed, top, sign = _line_seed(rs, [True] * len(roots))
    tangent_rows: list[dict] = []
    universe = n_equal = n_ss = 0
    alphas = list(range(1, rs.rank + 1)) if "thm42" in checks else []
    w0 = longest_element(rs).heights if alphas else ()  # H(w0)_a = D ht w0(omega_a)
    for a in alphas:
        if min_parabolic_rep(rs, a).heights[a - 1] != w0[a - 1]:
            raise AssertionError(f"w_alpha is outside the coset w0 W_P for alpha_{a}")
    coset_rows: dict[int, list[dict]] = {a: [] for a in alphas}
    per_alpha = {str(a): 0 for a in alphas}
    for x, word, h, cols in group_walk(rs, seed, guard, sign):
        # w0(omega_a) is the one weight of least height in W omega_a
        cosets = [a for a in alphas if h[a - 1] == w0[a - 1]]
        if not (thmA or cosets):
            continue
        tangent = [c >> top for c in cols]
        if thmA:
            universe += 1
            is_full = tangent == target
            if not is_full and any(map(gt, tangent, target)):
                raise AssertionError("engine failure: tangent exceeds adjoint")
            criterion = sum(map(mul, alpha0, x)) < 0  # ss_nonempty(rs, sigma)
            n_equal += is_full
            n_ss += criterion
            if is_full != criterion:
                tangent_rows.append({
                    "tau_word": list(WeylElement(rs, h).reduced_word()),
                    "tau_inv_word": list(word),
                    "tangent_equals_adjoint": is_full,
                    "ss_nonempty": criterion,
                    "kernel": char_to_str(rs, adjoint - _character(rs, tangent)),
                })
        if not cosets:
            continue
        tau = WeylElement(rs, h)
        seen = reduce(or_, cols)  # every digit is certified nonnegative
        lines = {r: [c >> _DIGIT * r & _MASK for c in cols] for r, neg in
                 enumerate(tau.inverted()) if not neg and seen >> _DIGIT * r & _MASK}
        total = [t - sum(off) for t, off in zip(tangent, zip(*lines.values()))] if lines else tangent
        for a in cosets:
            per_alpha[str(a)] += 1
            if total == target and not lines:
                continue
            words = {"tau_word": list(tau.reduced_word()), "tau_inv_word": list(word)}
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
        "thmA": (universe, sorted(tangent_rows, key=_canonical),
                 {"full_tangent_count": n_equal, "ss_count": n_ss}),
        "thm42": (sum(per_alpha.values()),
                  [row for a in alphas for row in sorted(coset_rows[a], key=_canonical)],
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
    alpha0 = rs.highest_root.coords
    rows, flagged = [], []
    for x, word, h, total in group_walk(rs, [0, *(int(r.positive) for r in rs.roots)], guard):
        has_negative = min(total) < 0
        tau_word = list(WeylElement(rs, h).reduced_word())
        rows.append({
            "tau_word": tau_word,
            "tau_inv_word": list(word),
            "euler_equals_adjoint": total == target,
            "ss_nonempty": sum(map(mul, alpha0, x)) < 0,
            "has_negative_multiplicity": has_negative,
        })
        if has_negative:
            flagged.append({"tau_word": tau_word,
                            "euler": char_to_str(rs, _character(rs, total))})
    rows.sort(key=_canonical)
    flagged.sort(key=_canonical)
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

