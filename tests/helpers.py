"""Brute-force oracles shared across test modules.

Everything here is deliberately independent of the engine's algorithms:
subword scans instead of the lifting recursion, and their reversal by w0
instead of the coset test for the Bruhat upper set of w_alpha, full
products of integer simple-reflection matrices built from the Cartan
matrix instead of steps on column heights and the word action, Gauss-Jordan
instead of reversed words, plain dict arithmetic instead of Character,
Freudenthal's recursion and the Weyl dimension formula instead of Demazure
operators, Fraction root coordinates, symmetrizers and Cartan inverse
instead of the integer D * C^-1 rows and fraction-free elimination, the
root closure in simple-root coordinates with Gram lengths instead of the
closure in fw coordinates with inherited lengths, string
steps on fw tuples instead of packed integer keys, one Coxeter element at
a time instead of the memo over distinct powers, the first return of rho
(``element_order``) and matrix powers instead of the Coxeter number with
its checked cycle, one analysis per ordering instead of the table
of distinct Coxeter elements, every lemma54_56 clause decided per ordering
and by position instead of once per Coxeter element or split, one product
per permutation instead of one topological order per Dynkin orientation,
and a dot-action walk to the dominant chamber
with Freudenthal's recursion instead of the Demazure operator of w0, so
agreement is evidence rather than tautology.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from schubert import (Character, CoxeterAnalysis, WeylElement, adjoint_character, analyze,
                      bruhat_leq, char_to_str, coxeter_elements, e, enumerate_group, euler_char, from_word, h0_line, identity,
                      is_typeA_extremal, longest_element, min_parabolic_rep,
                      ss_nonempty)
from schubert.charring import _DIGIT
from schubert.rootsys import Root, RootSystem, Weight

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


# an integer matrix on fw coordinates, rows of tuples: column j is w(omega_j)
Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(a == b) for b in range(n)) for a in range(n))


@lru_cache(maxsize=None)
def simple_matrix(rs: RootSystem, i: int) -> Matrix:
    """s_i on fw coordinates, from the Cartan matrix alone: lam -> lam -
    lam_i alpha_i, and alpha_i's fw coordinates are column i of C."""
    k = i - 1
    return tuple(tuple(int(a == b) - (rs.cartan[a][k] if b == k else 0)
                       for b in range(rs.rank)) for a in range(rs.rank))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def matvec(mat: Matrix, fw: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, fw)) for row in mat)


def word_matrix(rs: RootSystem, word: Iterable[int]) -> Matrix:
    """s_{i1} ... s_{ik} as full matrix products, one factor per letter."""
    out = identity_matrix(rs.rank)
    for i in word:
        out = matmul(out, simple_matrix(rs, i))
    return out


def matrix_of(w: WeylElement) -> Matrix:
    """The oracle matrix of w's canonical word."""
    return word_matrix(w.rs, w.reduced_word())


def element_of(rs: RootSystem, mat: Matrix) -> WeylElement:
    """The engine element with mat's column heights D ht w(omega_j)."""
    return WeylElement(rs, tuple(map(rs.scaled_height, zip(*mat))))


def mul_from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """s_{i1} ... s_{ik} as full matrix products, one factor per letter."""
    return element_of(rs, word_matrix(rs, word))


def root_image(rs: RootSystem, mat: Matrix, beta: Root) -> Root:
    img = rs.root_of(Weight(matvec(mat, beta.weight.fw)))
    if img is None:
        raise AssertionError("matrix image of a root is not a root")
    return img


def right_descents(rs: RootSystem, mat: Matrix) -> Iterator[int]:
    """The i with w(alpha_i) negative, i.e. l(w s_i) < l(w), in order."""
    return (i for i, alpha in enumerate(rs.simple_roots, 1)
            if not root_image(rs, mat, alpha).positive)


def peel_reduced_word(rs: RootSystem, mat: Matrix) -> tuple[int, ...]:
    """Canonical word: peel the smallest right descent by full products."""
    rev: list[int] = []
    e = identity_matrix(rs.rank)
    while mat != e:
        i = next(right_descents(rs, mat))
        rev.append(i)
        mat = matmul(mat, simple_matrix(rs, i))
    return tuple(reversed(rev))


def gauss_jordan_inverse(mat: Matrix) -> Matrix:
    """Inverse of an fw matrix over the rationals; it must be integral."""
    inv = invert_rational(mat)
    if any(v.denominator != 1 for row in inv for v in row):
        raise AssertionError("non-integral Weyl matrix inverse")
    return tuple(tuple(int(v) for v in row) for row in inv)


def element_order(w: WeylElement) -> int:
    """Smallest k >= 1 with w^k = e, the first return of rho (only e fixes
    the regular rho); k divides |W|, so |W| bounds the loop."""
    bound = w.rs.ct.weyl_order
    rho = w.rs.rho.fw
    cur = w.act(rho)
    for k in range(1, bound + 1):
        if cur == rho:
            return k
        cur = w.act(cur)
    raise AssertionError(f"element order exceeds |W| = {bound}")


def matrix_power_order(rs: RootSystem, mat: Matrix) -> int:
    """Smallest k >= 1 with mat^k = e, by full matrix products; |W| bounds k."""
    bound = rs.ct.weyl_order
    e = identity_matrix(rs.rank)
    cur = mat
    k = 1
    while cur != e:
        cur = matmul(cur, mat)
        k += 1
        if k > bound:
            raise AssertionError(f"element order exceeds |W| = {bound}")
    return k


def subword_products(rs: RootSystem, mat: Matrix) -> set[Matrix]:
    """[e, w] as matrices: the products of the subwords of w's peeled word.

    The products of all subwords of the word's first k letters are built
    up letter by letter, so the scan costs |[e, w]| products per letter
    instead of 2^l(w).
    """
    reached = {identity_matrix(rs.rank)}
    for i in peel_reduced_word(rs, mat):
        s = simple_matrix(rs, i)
        reached |= {matmul(x, s) for x in reached}
    return reached


def subword_bruhat_leq(rs: RootSystem, u: WeylElement, w: WeylElement) -> bool:
    """u <= w iff some subword of a fixed reduced word of w multiplies to u."""
    return matrix_of(u) in subword_products(rs, matrix_of(w))


def subword_upper_set(rs: RootSystem, u: WeylElement) -> set[WeylElement]:
    """{tau : u <= tau} by the subword scan: tau -> w0 tau reverses Bruhat
    order, so the set is w0 [e, w0 u]."""
    w0 = matrix_of(longest_element(rs))
    return {element_of(rs, matmul(w0, x))
            for x in subword_products(rs, matmul(w0, matrix_of(u)))}


def assert_thm42_slices(rs: RootSystem, universe: int, rows: list[dict],
                        per_alpha: dict[str, int]) -> None:
    """Each alpha's slice of a thm42 result against the subword oracle.

    The rows come grouped by increasing alpha; alpha's count is
    |{tau : w_alpha <= tau}|, and its rows name only such tau.
    """
    assert [row["alpha"] for row in rows] == sorted(row["alpha"] for row in rows)
    assert universe == sum(per_alpha.values())
    for a in range(1, rs.rank + 1):
        above = subword_upper_set(rs, min_parabolic_rep(rs, a))
        assert per_alpha[str(a)] == len(above)
        assert all(from_word(rs, row["tau_word"]) in above for row in rows if row["alpha"] == a)


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


def reduced_words(w: WeylElement) -> Iterator[tuple[int, ...]]:
    """All reduced words of w, lazily, in descent-lex order, by full
    products from the matrix of its canonical word."""
    return _reduced_words(w.rs, matrix_of(w))


def _reduced_words(rs: RootSystem, mat: Matrix) -> Iterator[tuple[int, ...]]:
    if mat == identity_matrix(rs.rank):
        yield ()
        return
    for i in right_descents(rs, mat):
        for sub in _reduced_words(rs, matmul(mat, simple_matrix(rs, i))):
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


def gram(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """(alpha_i, alpha_j) = d_i C[i][j], short simple roots of length 2."""
    return tuple(tuple(d * x for x in row) for d, row in zip(rs.d, rs.cartan))


def gram_d(rs: RootSystem, coords: Sequence[int]) -> int:
    """Half the squared Gram length of the root with simple-root coordinates coords."""
    g = gram(rs)
    tot = sum(coords[i] * coords[j] * g[i][j]
              for i in range(rs.rank) if coords[i] for j in range(rs.rank) if coords[j])
    assert tot % 2 == 0, f"odd squared length {tot}"
    return tot // 2


def coordinate_closure(rs: RootSystem) -> dict:
    """The root data of rs by attribute name (roots: positives by (height,
    coords), then their negatives): the simple roots closed under simple
    reflections in simple-root coordinates, each length from the Gram form."""
    n, cartan = rs.rank, rs.cartan
    seen = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(n):
                pair = sum(cartan[i][j] * c[j] for j in range(n))
                img = tuple(c[k] - pair if k == i else c[k] for k in range(n))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    max_d = max(rs.d)
    positives = []
    for c in seen:
        if all(x >= 0 for x in c):
            d = gram_d(rs, c)
            fw = tuple(sum(cartan[i][j] * c[j] for j in range(n)) for i in range(n))
            positives.append(Root(c, Weight(fw), True, sum(c), d, d == max_d, d == 1))
    positives.sort(key=lambda r: (r.height, r.coords))
    roots = tuple(positives) + tuple(-r for r in positives)
    by_coords = {r.coords: r for r in roots}
    return {"roots": roots,
            "simple_roots": tuple(by_coords[tuple(int(k == i) for k in range(n))]
                                  for i in range(n)),
            "highest_root": max(positives, key=lambda r: r.height),
            "highest_short_root": max((r for r in positives if r.is_short),
                                      key=lambda r: r.height),
            "_by_fw": {r.weight.fw: r for r in roots}}


def _bilinear(rs: RootSystem, mu: Weight, nu: Weight) -> Fraction:
    """W-invariant symmetric form, normalized so short simple roots have (a,a)=2."""
    a = rs.root_coords(mu)
    b = rs.root_coords(nu)
    g = gram(rs)
    return sum((a[i] * b[j] * g[i][j]
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


def adjoint_weights(rs: RootSystem) -> list[Weight]:
    """The weights that index a sweep's columns: 0, then rs.roots in order."""
    return [rs.zero(), *(root.weight for root in rs.roots)]


def columns_char(rs: RootSystem, cols: Sequence[int]) -> Character:
    """The character whose multiplicity at each adjoint weight is its column."""
    return Character(dict(zip(adjoint_weights(rs), cols, strict=True)))


def signed_digits(cols: Sequence[int], count: int) -> list[list[int]]:
    """Per 32-bit digit, the column list it packs, digits read as signed
    integers: the inverse of summing d_r * 2^(32 r) over r < count."""
    out = [[] for _ in range(count)]
    for c in cols:
        for digits in out:
            d = c & (1 << _DIGIT) - 1
            d -= (d >> _DIGIT - 1) << _DIGIT  # the digit's sign bit
            digits.append(d)
            c = (c - d) >> _DIGIT
        assert c == 0, "a column packs more digits than counted"
    return out


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
    dims = {w: tangent_h0_char(rs, w).dimension() for w in elements}
    findings = []
    for w in elements:
        lw = w.length
        for u in elements:
            if u.length == lw - 1 and bruhat_leq(u, w):
                if dims[u] > dims[w]:
                    findings.append({
                        "lower_word": list(u.reduced_word()),
                        "upper_word": list(w.reduced_word()),
                        "lower_dim": dims[u],
                        "upper_dim": dims[w],
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

    Orbits are walked by position on the matrix of c, the order is found by
    matrix powers and the inverses by Gauss-Jordan.
    """
    ordering = tuple(ordering)
    c = word_matrix(rs, tuple(reversed(ordering)))
    h = matrix_power_order(rs, c)

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
            cur = root_image(rs, c, cur)
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
        if root_image(rs, c_inv, root).coords not in simple_coords:
            J.append(pos)

    phi_words: dict[int, tuple[int, ...]] = {}
    for pos in J:
        cur = rs.simple_roots[ordering[pos - 1] - 1]
        letters = []
        for _ in range(a[pos]):
            letters.append(simple_coords[cur.coords])
            cur = root_image(rs, c, cur)
        phi_words[pos] = tuple(letters)

    phi = word_matrix(rs, [letter for pos in J for letter in phi_words[pos]])
    tau = matmul(c, gauss_jordan_inverse(phi))
    return CoxeterAnalysis(ordering, element_of(rs, c), h, tuple(J_prime), a, tuple(J),
                           phi_words, element_of(rs, phi), element_of(rs, tau))


def lemma54_56_per_ordering(rs: RootSystem) -> tuple[int, list, dict]:
    """verify_lemma54_55_56 with every clause decided afresh per ordering,
    by position: c's and phi's simple-root images, the Dynkin neighbours
    before and after each position, and the products of the phi factors.
    Only the analysis itself comes from ``analyze``."""
    counterexamples = []
    n = rs.rank
    cartan = rs.cartan
    universe = 0
    for perm in permutations(range(1, n + 1)):
        universe += 1
        analysis = analyze(rs, perm)
        images = [analysis.c.apply_root(rs.simple_roots[perm[p] - 1]) for p in range(n)]
        phi_images = [analysis.phi.apply_root(rs.simple_roots[perm[p] - 1]) for p in range(n)]
        roots = [rs.simple_roots[perm[p] - 1] for p in range(n)]

        # c maps the position-i root to the position-j root iff j is the
        # unique earlier neighbor of i and i the unique later neighbor of j;
        # <alpha_k, alpha_i_vee> = cartan[i][k]
        earlier = {i: [k for k in range(1, i) if cartan[perm[i - 1] - 1][perm[k - 1] - 1]]
                   for i in range(1, n + 1)}
        later = {j: [k for k in range(j + 1, n + 1) if cartan[perm[k - 1] - 1][perm[j - 1] - 1]]
                 for j in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                lhs = images[i - 1].coords == roots[j - 1].coords
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

        # the phi factors commute pairwise
        factors = {j: from_word(rs, words[j]) for j in analysis.J}
        for j, k in combinations(analysis.J, 2):
            if factors[j] * factors[k] != factors[k] * factors[j]:
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
            via_c = images[r - 1].height
            via_phi = phi_images[r - 1].height
            if via_c < via_phi:
                counterexamples.append({
                    "ordering": list(perm), "clause": "height-comparison",
                    "r": r, "height_c": via_c, "height_phi": via_phi,
                })
    return universe, counterexamples, {}


def coxeter_elements_per_permutation(rs: RootSystem) -> list[tuple[WeylElement, tuple[int, ...]]]:
    """coxeter_elements with one product per permutation of the simple
    reflections, deduplicated by matrix in permutation order."""
    found: dict[Matrix, tuple[int, ...]] = {}
    for perm in permutations(range(1, rs.rank + 1)):
        found.setdefault(word_matrix(rs, perm), perm)
    return [(element_of(rs, mat), perm) for mat, perm in found.items()]


def bott_dot_walk(rs: RootSystem, lam: Weight) -> tuple[int, Weight] | None:
    """(l(u), u . lam) for the u with u . lam dominant, or None when lam + rho
    is singular.

    Walks mu = lam + rho on fw tuples: while a coordinate mu_i is negative,
    mu becomes s_i(mu) = mu - mu_i alpha_i (alpha_i is column i of the
    Cartan matrix).  Each step makes one fewer positive root pair negatively
    with mu, so the steps count l(u); the walk ends on the dominant weight
    of mu's orbit, which lies on a wall iff mu is singular.
    """
    mu = [a + 1 for a in lam.fw]
    steps = 0
    while True:
        i = next((i for i, a in enumerate(mu) if a < 0), None)
        if i is None:
            break
        m = mu[i]
        mu = [x - m * rs.cartan[j][i] for j, x in enumerate(mu)]
        steps += 1
    if 0 in mu:
        return None
    return steps, Weight(tuple(x - 1 for x in mu))
