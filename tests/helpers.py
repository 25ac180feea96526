"""Brute-force oracles shared across test modules.

Everything here is deliberately independent of the engine's algorithms:
subword scans instead of the lifting recursion, full matrix products
instead of the one-column reflection step, Gauss-Jordan instead of
reversed words, plain dict arithmetic instead of Character, Freudenthal's
recursion and the Weyl dimension formula instead of Demazure operators,
Fraction root coordinates, symmetrizers and Cartan inverse instead of the
integer D * C^-1 rows and fraction-free elimination, string
steps on fw tuples instead of packed integer keys, one Coxeter element at
a time instead of the memo over distinct powers, matrix powers instead of
the first return of rho, one analysis per ordering instead of the table
of distinct Coxeter elements, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from schubert import (Character, CoxeterAnalysis, WeylElement, adjoint_character,
                      bruhat_leq, char_to_str, coxeter_elements, e, element_order,
                      enumerate_group, euler_char, from_word, h0_line, identity,
                      is_typeA_extremal, longest_element, simple_reflection,
                      ss_nonempty)
from schubert.charring import _DIGIT
from schubert.rootsys import RootSystem, Weight

# the types the whole-group oracle tests run on: every family up to rank 5
# that a test can sweep in about a second, both root lengths included
LAYER_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
               "D4", "D5", "F4", "G2"]


def invert_rational(mat: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """mat^-1 by Gauss-Jordan over the rationals."""
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)]
         + [Fraction(1 if i == k else 0) for k in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(a[i][n + j] for j in range(n)) for i in range(n))


def fraction_symmetrizers(cartan: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Smallest positive integers d with d_i C[i][j] = d_j C[j][i], in Fractions."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                queue.append(j)
    den = lcm(*(x.denominator for x in d))
    ints = [int(x * den) for x in d]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def mul_from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """s_{i1} ... s_{ik} as full matrix products, one factor per letter."""
    out = identity(rs)
    for i in word:
        out = out * simple_reflection(rs, i)
    return out


def peel_reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Canonical word: peel the smallest right descent by full products."""
    rs = w.rs
    rev: list[int] = []
    cur = w
    while not cur.is_identity:
        i = next(i for i in range(1, rs.rank + 1)
                 if not rs.root_of(cur.apply(rs.simple_roots[i - 1].weight)).positive)
        rev.append(i)
        cur = cur * simple_reflection(rs, i)
    return tuple(reversed(rev))


def gauss_jordan_inverse(w: WeylElement) -> WeylElement:
    """Inverse of the fw-matrix over the rationals; it must be integral."""
    inv = invert_rational(w.matrix)
    if any(v.denominator != 1 for row in inv for v in row):
        raise AssertionError("non-integral Weyl matrix inverse")
    return WeylElement(w.rs, tuple(tuple(int(v) for v in row) for row in inv))


def matrix_power_order(w: WeylElement) -> int:
    """Smallest k >= 1 with w^k = e, by full matrix products; |W| bounds k."""
    bound = w.rs.ct.weyl_order
    cur = w
    k = 1
    while not cur.is_identity:
        cur = cur * w
        k += 1
        if k > bound:
            raise AssertionError(f"element order exceeds |W| = {bound}")
    return k


def subword_bruhat_leq(rs: RootSystem, u: WeylElement, w: WeylElement) -> bool:
    """u <= w iff some subword of a fixed reduced word of w multiplies to u.

    The products of all subwords of the word's first k letters are built
    up letter by letter, so the scan costs |[e, w]| products per letter
    instead of 2^l(w).
    """
    reached = {identity(rs)}
    for i in peel_reduced_word(w):
        s = simple_reflection(rs, i)
        reached |= {x * s for x in reached}
    return u in reached


def weight_orbit(rs: RootSystem, lam: Weight) -> set[Weight]:
    """W-orbit of lam, closed under the simple reflections."""
    orbit = {lam}
    frontier = {lam}
    while frontier:
        # a set: two weights of one layer may reflect onto the same weight
        frontier = {rs.reflect_simple(nu, i) for nu in frontier
                    for i in range(1, rs.rank + 1)} - orbit
        orbit |= frontier
    return orbit


def has_right_descent(w: WeylElement, i: int) -> bool:
    """True iff l(w s_i) < l(w), i.e. w(alpha_i) is negative."""
    rs = w.rs
    return not rs.root_of(w.apply(rs.simple_roots[i - 1].weight)).positive


def right_descents(w: WeylElement) -> list[int]:
    return [i for i in range(1, w.rs.rank + 1) if has_right_descent(w, i)]


def reduced_words(w: WeylElement) -> Iterator[tuple[int, ...]]:
    """All reduced words of w, lazily, in descent-lex order."""
    if w.is_identity:
        yield ()
        return
    for i in right_descents(w):
        for sub in reduced_words(w.times_simple(i)):
            yield sub + (i,)


def fraction_height(rs: RootSystem, lam: Weight) -> Fraction:
    """Height as the sum of the rational simple-root coordinates."""
    return sum(rs.root_coords(lam), Fraction(0))


def fraction_dominance_leq(rs: RootSystem, mu: Weight, lam: Weight) -> bool:
    """mu <= lam iff every rational root coordinate of lam - mu is in N."""
    return all(x.denominator == 1 and x >= 0 for x in rs.root_coords(lam - mu))


def dominant_representative(rs: RootSystem, lam: Weight) -> Weight:
    """The unique dominant weight in the Weyl orbit of lam."""
    cur = lam
    while True:
        for i, a in enumerate(cur.fw):
            if a < 0:
                cur = cur - a * rs.simple_roots[i].weight
                break
        else:
            return cur


def _bilinear(rs: RootSystem, mu: Weight, nu: Weight) -> Fraction:
    """W-invariant symmetric form, normalized so short simple roots have (a,a)=2."""
    a = rs.root_coords(mu)
    b = rs.root_coords(nu)
    return sum((a[i] * b[j] * rs._gram[i][j]
                for i in range(rs.rank) if a[i] for j in range(rs.rank) if b[j]),
               Fraction(0))


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Weyl dimension formula, evaluated exactly over the positive roots."""
    if not lam.is_dominant:
        raise ValueError("weyl_dim requires a dominant weight")
    num = 1
    den = 1
    shifted = lam + rs.rho
    for beta in rs.positive_roots:
        num *= rs.pairing_root(shifted, beta)
        den *= rs.pairing_root(rs.rho, beta)
    dim = Fraction(num, den)
    if dim.denominator != 1:
        raise AssertionError("Weyl dimension is not an integer")
    return int(dim)


def freudenthal_char(rs: RootSystem, lam: Weight) -> Character:
    """Irreducible character for dominant lam via Freudenthal's recursion.

    Completely independent of the Demazure machinery: multiplicities come
    from the recursive formula on dominant weights and spread over Weyl
    orbits.  Serves as the oracle against demazure_along_word(w0).
    """
    if not lam.is_dominant:
        raise ValueError("freudenthal_char requires a dominant weight")
    lowest = longest_element(rs).apply(lam)
    bounds = []
    for x in rs.root_coords(lam - lowest):
        if x.denominator != 1 or x < 0:
            raise AssertionError("weight span is not a nonnegative root vector")
        bounds.append(int(x))

    simple_weights = [r.weight for r in rs.simple_roots]
    dominant: list[tuple[int, Weight]] = []
    for combo in product(*(range(b + 1) for b in bounds)):
        mu = lam
        for c, alpha in zip(combo, simple_weights):
            if c:
                mu = mu - c * alpha
        if mu.is_dominant:
            dominant.append((sum(combo), mu))
    dominant.sort(key=lambda t: (t[0], t[1].fw))

    rho = rs.rho
    top_norm = _bilinear(rs, lam + rho, lam + rho)
    mult: dict[tuple[int, ...], int] = {}
    for depth, mu in dominant:
        if depth == 0:
            mult[mu.fw] = 1
            continue
        acc = Fraction(0)
        for beta in rs.positive_roots:
            k = 1
            while True:
                nu = mu + k * beta.weight
                if not fraction_dominance_leq(rs, nu, lam):
                    break
                m = mult.get(dominant_representative(rs, nu).fw, 0)
                if m:
                    acc += m * _bilinear(rs, nu, beta.weight)
                k += 1
        den = top_norm - _bilinear(rs, mu + rho, mu + rho)
        if den <= 0:
            raise AssertionError("Freudenthal denominator must be positive")
        val = 2 * acc / den
        if val.denominator != 1 or val < 0:
            raise AssertionError(f"non-integral Freudenthal multiplicity {val}")
        if val:
            mult[mu.fw] = int(val)

    return Character({nu: m for fw, m in mult.items()
                      for nu in weight_orbit(rs, Weight(fw))})


def random_small_character(rs: RootSystem, rng: random.Random,
                           max_terms: int = 4) -> Character:
    """Virtual character with fw coordinates in [-1, 1]; keeps sweeps cheap."""
    total = Character.zero()
    for _ in range(rng.randint(1, max_terms)):
        fw = tuple(rng.randint(-1, 1) for _ in range(rs.rank))
        total = total + e(Weight(fw), rng.choice((-2, -1, 1, 2)))
    return total


def tagged(rs: RootSystem, f: Character, tag: int) -> Character:
    """f with every key carrying tag in the digit above rs's weight digits."""
    shift = _DIGIT * rs.rank
    return Character._from_packed({k | tag << shift: v for k, v in f._terms.items()})


def split_by_tag(rs: RootSystem, f: Character) -> dict[int, Character]:
    """{tag: the terms of f with that tag, the tag digit cleared}."""
    shift = _DIGIT * rs.rank
    mask = (1 << shift) - 1
    parts: dict[int, dict[int, int]] = {}
    for k, v in f._terms.items():
        parts.setdefault(k >> shift, {})[k & mask] = v
    return {t: Character._from_packed(terms) for t, terms in parts.items()}


def random_element(rs: RootSystem, rng: random.Random,
                   max_letters: int = 12) -> WeylElement:
    word = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, max_letters)))
    return mul_from_word(rs, word)


def tangent_h0_char(rs: RootSystem, tau: WeylElement) -> Character:
    """H^0 of the restricted tangent bundle, one h0 line per positive root.

    Each line is its own Demazure composition along tau's canonical word,
    the per-element path the engine's layer sweep replaced; simply laced
    only.
    """
    if not rs.simply_laced:
        raise ValueError("tangent_h0_char requires a simply-laced type")
    total = Character.zero()
    for beta in rs.positive_roots:
        total = total + h0_line(rs, tau, beta.weight)
    return total


def kernel_char(rs: RootSystem, tau: WeylElement) -> Character:
    """adjoint minus tangent_h0; a negative multiplicity is an engine failure."""
    diff = adjoint_character(rs) - tangent_h0_char(rs, tau)
    if not diff.is_effective():
        raise AssertionError("engine failure: tangent character exceeds adjoint")
    return diff


def bruhat_monotonicity_findings(rs: RootSystem,
                                 guard: int | None = None) -> list[dict]:
    """Sanity scan: dim tangent_h0 should not drop along Bruhat covers.

    Returns findings instead of raising; an empty list means no violation
    was observed.
    """
    if not rs.simply_laced:
        raise ValueError("tangent characters need a simply-laced type")
    elements = list(enumerate_group(rs, guard))
    dims = {w.matrix: tangent_h0_char(rs, w).dimension() for w in elements}
    findings = []
    for w in elements:
        lw = w.length
        for u in elements:
            if u.length == lw - 1 and bruhat_leq(u, w):
                if dims[u.matrix] > dims[w.matrix]:
                    findings.append({
                        "lower_word": list(u.reduced_word()),
                        "upper_word": list(w.reduced_word()),
                        "lower_dim": dims[u.matrix],
                        "upper_dim": dims[w.matrix],
                    })
    return findings


def string_formula_demazure_op(rs: RootSystem, i: int, f: Character) -> Character:
    """D_i by the string formula on fw tuples, one fresh tuple per step."""
    k = i - 1
    alpha = rs.simple_roots[k].weight.fw
    out: dict[tuple[int, ...], int] = {}
    for lam, c in f.items():
        fw = lam.fw
        m = fw[k]
        if m == -1:
            continue
        if m >= 0:
            cur = fw
            for _ in range(m + 1):
                out[cur] = out.get(cur, 0) + c
                cur = tuple(map(sub, cur, alpha))
        else:
            cur = tuple(map(add, fw, alpha))
            for _ in range(-m - 1):
                out[cur] = out.get(cur, 0) - c
                cur = tuple(map(add, cur, alpha))
    return Character({Weight(fw): v for fw, v in out.items()})


def string_formula_along_word(rs: RootSystem, word: Sequence[int],
                              f: Character) -> Character:
    """The oracle operator letter by letter; the last letter acts first."""
    for i in reversed(word):
        f = string_formula_demazure_op(rs, i, f)
    return f


def cor52_53_58_per_element(rs: RootSystem) -> tuple[int, list, dict]:
    """verify_cor52_53_58 one Coxeter element at a time, nothing shared.

    Every power of every Coxeter element gets its own tangent and Euler
    composition, however often it recurs in other cyclic groups.
    """
    adjoint = adjoint_character(rs)
    zero = rs.zero()
    counterexamples = []
    rows = []
    elements = coxeter_elements(rs)
    for c, word in elements:
        h = element_order(c)
        powers = [identity(rs)]
        for _ in range(1, h):
            powers.append(powers[-1] * c)
        tangents = []
        for cj in powers[1:]:
            total = Character.zero()
            for beta in cj.inversion_set():
                total = total + h0_line(rs, cj, beta.weight)
            tangents.append(total)
        min_j = next((j for j, total in enumerate(tangents, 1) if total == adjoint), None)
        if min_j is None:
            counterexamples.append({
                "c_word": list(word),
                "reason": "no power below h has full adjoint tangent character",
            })

        sum53 = sum(tangents, Character.zero())
        eq53 = sum53 == (h - 1) * adjoint

        sum58 = Character.zero()
        for cj in powers:
            lam = cj.inverse().dot(zero)
            chi = euler_char(rs, cj, e(lam))
            sign = 1 if cj.length % 2 == 0 else -1
            sum58 = sum58 + sign * chi
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
    return len(elements), counterexamples, {"rows": rows}


def analyze_per_ordering(rs: RootSystem, ordering: Sequence[int]) -> CoxeterAnalysis:
    """analyze() from scratch for one ordering, nothing shared between c's.

    Orbits are walked by position, the order by matrix powers and the
    inverses by Gauss-Jordan.
    """
    ordering = tuple(ordering)
    c = from_word(rs, tuple(reversed(ordering)))
    h = matrix_power_order(c)

    simple_coords = {r.coords: i + 1 for i, r in enumerate(rs.simple_roots)}
    J_prime: list[int] = []
    a: dict[int, int] = {}
    for pos in range(1, rs.rank + 1):
        root = rs.simple_roots[ordering[pos - 1] - 1]
        prefix_simple = True
        cur = root
        steps = 0
        while steps < h:
            if cur.coords not in simple_coords:
                prefix_simple = False
                break
            cur = c.apply_root(cur)
            steps += 1
            if not cur.positive:
                break
        if prefix_simple and steps < h and not cur.positive:
            J_prime.append(pos)
            a[pos] = steps

    c_inv = gauss_jordan_inverse(c)
    J = []
    for pos in J_prime:
        root = rs.simple_roots[ordering[pos - 1] - 1]
        if c_inv.apply_root(root).coords not in simple_coords:
            J.append(pos)

    phi_words: dict[int, tuple[int, ...]] = {}
    for pos in J:
        cur = rs.simple_roots[ordering[pos - 1] - 1]
        letters = []
        for _ in range(a[pos]):
            letters.append(simple_coords[cur.coords])
            cur = c.apply_root(cur)
        phi_words[pos] = tuple(letters)

    phi = mul_from_word(rs, [letter for pos in J for letter in phi_words[pos]])
    tau = c * gauss_jordan_inverse(phi)
    return CoxeterAnalysis(ordering, c, h, tuple(J_prime), a, tuple(J), phi_words, phi, tau)
