"""Weyl-group elements: words, lengths, Bruhat order, enumeration."""

import random

import pytest

from schubert import (
    GuardExceeded,
    WeylElement,
    bruhat_leq,
    build,
    coxeter_elements,
    enumerate_group,
    from_word,
    identity,
    longest_element,
    min_parabolic_rep,
)
from schubert import weyl
from schubert.coxeter import _entry
from schubert.rootsys import DEFAULT_GUARD, GUARD_ENV_VAR, resolve_guard
from schubert.weyl import orientation, walk, word_table

from helpers import (LAYER_TYPES, coxeter_elements_per_permutation, element_of,
                     element_order, fraction_dominance_leq, gauss_jordan_inverse,
                     heights_above_w_alpha, identity_matrix, matmul, matrix_of,
                     matrix_power_order, matvec, mul_from_word, parabolic_order_by_closure,
                     peel_reduced_word, random_element, reduced_words, simple_matrix,
                     subword_bruhat_leq, weight_orbit, word_matrix)


def test_simple_reflection_basics():
    rs = build("A2")
    s1 = from_word(rs, (1,))
    assert s1 * s1 == identity(rs)
    assert s1.length == 1
    assert s1.reduced_word() == (1,)
    assert s1.apply(rs.simple_roots[0].weight) == -rs.simple_roots[0].weight


def test_braid_relations():
    # order of s_i s_j recovers the Coxeter matrix entry
    for name, pairs in {
        "A2": {(1, 2): 3},
        "B2": {(1, 2): 4},
        "G2": {(1, 2): 6},
        "A3": {(1, 2): 3, (2, 3): 3, (1, 3): 2},
    }.items():
        rs = build(name)
        for (i, j), m in pairs.items():
            si, sj = from_word(rs, (i,)), from_word(rs, (j,))
            assert element_order(si * sj) == m


def test_from_word_orientation():
    # the last letter acts first on weights
    rs = build("A2")
    w = from_word(rs, (2, 1))
    s1, s2 = from_word(rs, (1,)), from_word(rs, (2,))
    lam = rs.weight((1, 0))
    assert w.apply(lam) == s2.apply(s1.apply(lam))
    assert w == s2 * s1


def test_canonical_reduced_words():
    rs = build("A2")
    assert longest_element(rs).reduced_word() == (1, 2, 1)
    assert from_word(rs, (2, 1)).reduced_word() == (2, 1)
    # non-reduced input still lands on the right element
    assert from_word(rs, (1, 1, 2, 1)).reduced_word() == (2, 1)


LONGEST_LENGTHS = {"A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9, "G2": 6, "D4": 12}


@pytest.mark.parametrize("name", sorted(LONGEST_LENGTHS))
def test_longest_element(name):
    rs = build(name)
    w0 = longest_element(rs)
    assert w0.length == LONGEST_LENGTHS[name]
    assert w0.length == len(rs.positive_roots)
    assert w0 * w0 == identity(rs)
    # w0 flips the positive roots
    assert all(not w0.apply_root(r).positive for r in rs.positive_roots)


@pytest.mark.parametrize("name,order", [
    ("A1", 2), ("A2", 6), ("A3", 24), ("A4", 120), ("B2", 8), ("B3", 48), ("C3", 48),
    ("G2", 12), ("D4", 192), ("F4", 1152)])
def test_enumerate_group(name, order):
    # |W| distinct elements in strictly increasing (length, canonical word)
    rs = build(name)
    elements = list(enumerate_group(rs))
    assert len(elements) == order
    assert len({matrix_of(w) for w in elements}) == order
    keys = [(w.length, w.reduced_word()) for w in elements]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert matrix_of(elements[0]) == identity_matrix(rs.rank)
    assert elements[-1] == longest_element(rs)


@pytest.mark.parametrize("name", LAYER_TYPES)
def test_inversion_count_is_length(name):
    rs = build(name)
    for w in enumerate_group(rs):
        inv = w.inversion_set()
        assert len(inv) == w.length
        assert all(r.positive for r in inv)
        assert all(not w.apply_root(r).positive for r in inv)


def test_inverse_and_pow():
    rng = random.Random(5)
    rs = build("B3")
    for _ in range(30):
        w = random_element(rs, rng)
        assert w * w.inverse() == identity(rs)
        assert w.inverse().length == w.length


def test_guard_blocks_large_groups():
    with pytest.raises(GuardExceeded):
        list(enumerate_group(build("E8")))
    with pytest.raises(GuardExceeded):
        list(enumerate_group(build("A3"), guard=10))


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv(GUARD_ENV_VAR, "10")
    assert resolve_guard() == 10
    with pytest.raises(GuardExceeded):
        list(enumerate_group(build("A3")))
    monkeypatch.setenv(GUARD_ENV_VAR, "not-a-number")
    with pytest.raises(ValueError):
        resolve_guard()
    monkeypatch.delenv(GUARD_ENV_VAR)
    assert resolve_guard() == DEFAULT_GUARD
    assert resolve_guard(7) == 7


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_bruhat_matches_subword_oracle(name):
    rs = build(name)
    elements = list(enumerate_group(rs))
    for u in elements:
        for w in elements:
            assert bruhat_leq(u, w) == subword_bruhat_leq(rs, u, w)


def test_bruhat_basics():
    rs = build("A3")
    w0 = longest_element(rs)
    e = identity(rs)
    for w in enumerate_group(rs):
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w0)
        assert bruhat_leq(w, w) and (not bruhat_leq(w0, w) or w == w0)


def test_min_parabolic_rep_inversions():
    # R+(w_alpha) = the positive roots above alpha in the Fraction dominance
    # order; w0 sends rho to -rho and inverts every positive root
    names = ([f"A{n}" for n in range(1, 9)] + [f"{x}{n}" for x in "BC" for n in range(2, 9)]
             + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2"])
    for name in names:
        rs = build(name)
        for i in range(1, rs.rank + 1):
            w = min_parabolic_rep(rs, i)
            alpha = rs.simple_roots[i - 1].weight
            expected = {r.coords for r in rs.positive_roots
                        if fraction_dominance_leq(rs, alpha, r.weight)}
            assert {r.coords for r in w.inversion_set()} == expected, (name, i)
        w0 = longest_element(rs)
        assert w0.act(rs.rho.fw) == (-rs.rho).fw
        assert len(w0.inversion_set()) == len(rs.positive_roots)


# 2^(n-1) Coxeter elements on a tree diagram: one per orientation of its edges
COXETER_COUNTS = {"A2": 2, "A3": 4, "B2": 2, "G2": 2, "D4": 8, "E7": 64, "E8": 128}
COXETER_NUMBERS = {"A2": 3, "A3": 4, "B2": 4, "G2": 6, "D4": 6, "E7": 18, "E8": 30}


@pytest.mark.parametrize("name", sorted(COXETER_COUNTS))
def test_coxeter_elements(name):
    rs = build(name)
    found = coxeter_elements(rs)
    assert len(found) == COXETER_COUNTS[name]
    for c, word in found:
        assert sorted(word) == list(range(1, rs.rank + 1))
        assert c == from_word(rs, word)
        assert c.length == rs.rank
        assert element_order(c) == COXETER_NUMBERS[name]


# rank 8 (E8, A8: 8! matrix products each) takes about 16 s per type, so
# the oracle stops at rank 7
@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "B3", "C4", "D4",
                                  "D5", "D7", "E6", "E7", "F4", "G2"])
def test_coxeter_elements_match_the_per_permutation_oracle(name):
    # the same elements, words and order as a product per permutation
    rs = build(name)
    found = [(matrix_of(c), word) for c, word in coxeter_elements(rs)]
    oracle = coxeter_elements_per_permutation(rs)
    assert found == [(matrix_of(c), word) for c, word in oracle]
    assert coxeter_elements(rs) == oracle


def test_orientation_keys_the_coxeter_element():
    # on A3 the edges are {1, 2} and {2, 3}; s1 s3 s2 = s3 s1 s2 and s2
    # comes last in both, while s2 s1 s3 reverses both edges
    rs = build("A3")
    assert orientation(rs, (1, 3, 2)) == orientation(rs, (3, 1, 2)) == (True, False)
    assert orientation(rs, (2, 1, 3)) == (False, True)
    # one table entry serves both words, and it holds their product
    assert _entry(rs, (3, 1, 2)) is _entry(rs, (1, 3, 2))
    assert _entry(rs, (3, 1, 2)).c == from_word(rs, (3, 1, 2))


@pytest.mark.parametrize("name, h", [("A5", 6), ("D5", 8), ("E6", 12)])
def test_coxeter_number_of_larger_types(name, h):
    rs = build(name)
    assert element_order(from_word(rs, range(1, rs.rank + 1))) == h


class Shear(WeylElement):
    """An element whose action is the shear (a, b) -> (a + b, b): no Weyl
    element acts so, and it never returns to e."""

    def act(self, fw):
        return (fw[0] + fw[1], fw[1])


def test_element_order_is_bounded_by_the_weyl_order():
    # a shear never returns rho to itself; the loop stops at |W|
    rs = build("A2")
    shear = Shear(rs, identity(rs).heights)
    with pytest.raises(AssertionError, match=r"exceeds \|W\| = 6"):
        element_order(shear)
    # the bound is never hit by a real element: every order divides |W|
    rs = build("B3")
    assert all(rs.ct.weyl_order % element_order(w) == 0 for w in enumerate_group(rs))


def test_reduced_words_enumeration():
    rs = build("A2")
    assert sorted(reduced_words(longest_element(rs))) == [(1, 2, 1), (2, 1, 2)]
    assert list(reduced_words(identity(rs))) == [()]
    # every listed word is reduced and lands on the element
    rs3 = build("A3")
    w = longest_element(rs3)
    words = list(reduced_words(w))
    assert len(words) == len(set(words))
    for word in words:
        assert len(word) == w.length
        assert from_word(rs3, word) == w
    # A3 w0 has 16 reduced words
    assert len(words) == 16


def test_apply_root_tracks_weights():
    rng = random.Random(7)
    rs = build("D4")
    for _ in range(20):
        w = random_element(rs, rng)
        for root in rs.roots:
            img = w.apply_root(root)
            assert img.weight == w.apply(root.weight)


def test_dot_action():
    rs = build("A2")
    s1 = from_word(rs, (1,))
    zero = rs.zero()
    # s_1 . 0 = -alpha_1
    assert s1.dot(zero) == -rs.simple_roots[0].weight
    w0 = longest_element(rs)
    assert w0.dot(zero) == -2 * rs.rho


ORACLE_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
                "D4", "D5", "F4", "G2"]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_element_paths_match_slow_oracles(name):
    # enumeration's words and reversed-word inverses against peeling by
    # full products and Gauss-Jordan, on every element: the word's oracle
    # matrix has w's heights and peels back to the word, as does a fresh
    # element's height peel; s_i <= w iff i occurs in its word
    rs = build(name)
    for w in enumerate_group(rs):
        word = w.reduced_word()
        mat = matrix_of(w)
        assert element_of(rs, mat) == w
        assert word == peel_reduced_word(rs, mat)
        assert WeylElement(rs, w.heights).reduced_word() == word
        assert from_word(rs, word) == w
        inv = w.inverse()
        inv_mat = gauss_jordan_inverse(mat)
        assert inv == element_of(rs, inv_mat)
        assert inv.inverse() == w
        assert inv.reduced_word() == peel_reduced_word(rs, inv_mat)
        for i in range(1, rs.rank + 1):
            assert bruhat_leq(from_word(rs, (i,)), w) == (i in word)


WORD_TABLE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "F4", "G2"]


@pytest.mark.parametrize("name", WORD_TABLE_TYPES)
def test_word_table_matches_reduced_word(name, monkeypatch):
    # every element's word from a table, asked in the walk's order and in
    # the reverse, against a fresh element's height peel and the peel by
    # full products; each table peels each element once, e never
    rs = build(name)
    heights = [h for _, _, h, _ in walk(rs, None, lambda k, p: p)]
    want = {h: WeylElement(rs, h).reduced_word() for h in heights}
    for h, word in want.items():
        assert word == peel_reduced_word(rs, matrix_of(WeylElement(rs, h)))
    real, peels = weyl._peel, []
    monkeypatch.setattr(weyl, "_peel", lambda *args: peels.append(1) or real(*args))
    for order in (heights, heights[::-1]):
        peels.clear()
        words = word_table(rs)
        assert [tuple(words(h)) for h in order] == [want[h] for h in order]
        assert len(peels) == len(heights) - 1
        assert all(words(h) is words(h) for h in order)  # shared, not copied


@pytest.mark.parametrize("name", ["A4", "A5", "D4", "D5", "D6", "E6"])
def test_coset_walk_yields_exactly_the_elements_above_w_alpha(name):
    # for every maximal parabolic P, the walk from w_alpha over the letters
    # of P* (all but alpha*, the one left descent of w_alpha) yields the
    # coset W_P* w_alpha = w0 W_P once each: exactly the heights that the
    # full walk's filter H(tau)_alpha = H(w0)_alpha selects
    rs = build(name)
    w0 = longest_element(rs)
    for a in range(1, rs.rank + 1):
        start = min_parabolic_rep(rs, a).reduced_word()
        star = w0.act(tuple(-int(j == a - 1) for j in range(rs.rank))).index(1) + 1
        assert start[0] == star  # -w0(omega_alpha) = omega_alpha*
        heights = [h for _, _, h, _ in walk(rs, None, lambda k, p: p, None, start,
                                            [k for k in range(1, rs.rank + 1) if k != star])]
        want = heights_above_w_alpha(rs, a)
        assert len(heights) == len(set(heights)) == len(want)
        assert set(heights) == set(want)


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "E6", "F4", "G2"])
def test_parabolic_order_matches_closure(name):
    # Kostant's product over the exponents of R_J against a brute-force
    # closure, on every maximal parabolic, on no letter and on all of them
    rs = build(name)
    letters = list(range(1, rs.rank + 1))
    for J in ([k for k in letters if k != a] for a in letters):
        assert weyl.guarded_order(rs, None, J) == parabolic_order_by_closure(rs, J)
    assert weyl.guarded_order(rs, None, []) == 1
    assert weyl.guarded_order(rs, None, letters) == weyl.guarded_order(rs) == rs.ct.weyl_order


def test_a_guard_below_the_coset_order_refuses_before_the_walk_starts():
    # the walk prices |W_J| first: below it, nothing is stepped or yielded;
    # at it, the walk runs and visits |W_J| elements
    rs = build("D5")
    start = min_parabolic_rep(rs, 1).reduced_word()
    letters = [2, 3, 4, 5]
    order = parabolic_order_by_closure(rs, letters)
    steps = []
    with pytest.raises(GuardExceeded, match=f"= {order} exceeds guard {order - 1}"):
        next(walk(rs, None, lambda k, p: steps.append(k), order - 1, start, letters))
    assert steps == []
    assert sum(1 for _ in walk(rs, None, lambda k, p: p, order, start, letters)) == order


@pytest.mark.parametrize("name", ["A4", "B3", "F4"])
def test_enumerate_group_peels_each_element_once(name, monkeypatch):
    # its sort key and every element's word come from one table
    rs = build(name)
    real, peels = weyl._peel, []
    monkeypatch.setattr(weyl, "_peel", lambda *args: peels.append(1) or real(*args))
    monkeypatch.setattr(WeylElement, "reduced_word", lambda w: pytest.fail("peeled again"))
    elements = list(enumerate_group(rs))
    assert len(peels) == len(elements) - 1 == rs.ct.weyl_order - 1
    assert all(len(w._word) == len(w.inversion_set()) for w in elements)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_column_heights_are_a_faithful_key(name):
    # an element is its column heights: over all of W they are the column
    # heights of the oracle matrix of its canonical word, and distinct
    # heights <=> distinct matrices
    rs = build(name)
    elements = list(enumerate_group(rs))
    mats = [matrix_of(w) for w in elements]
    heights = [w.heights for w in elements]
    assert heights == [element_of(rs, mat).heights for mat in mats]
    assert (len(set(heights)) == len(set(mats)) == len(set(zip(heights, mats)))
            == len(elements) == rs.ct.weyl_order)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_action_matches_the_oracle_matrix(name):
    # w.act applies the canonical word letter by letter, the last letter
    # first: on every omega_j and on rho it is the word's matrix
    rs = build(name)
    vectors = [omega.fw for omega in rs.fundamental_weights] + [rs.rho.fw]
    for w in enumerate_group(rs):
        mat = matrix_of(w)
        assert [w.act(fw) for fw in vectors] == [matvec(mat, fw) for fw in vectors]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_products_match_the_oracle_product(name):
    # u v steps u's heights along v's word: against the product of the
    # oracle matrices, each u of W with a seeded random v
    rng = random.Random(19)
    rs = build(name)
    elements = list(enumerate_group(rs))
    mats = {w: matrix_of(w) for w in elements}
    for u in elements:
        v = rng.choice(elements)
        assert u * v == element_of(rs, matmul(mats[u], mats[v]))


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_heights_of_no_element_are_refused(name):
    # H(w) with one coordinate raised by 1, wherever that names no element:
    # the height peel does not end on x(e), so reduced_word, act through
    # it and a word table refuse it, and the table stays sound
    rs = build(name)
    elements = list(enumerate_group(rs))
    known = {w.heights for w in elements}
    words = word_table(rs)
    refused = 0
    for w in elements:
        for j in range(rs.rank):
            h = w.heights[:j] + (w.heights[j] + 1,) + w.heights[j + 1:]
            if h in known:
                continue
            refused += 1
            with pytest.raises(AssertionError, match="non-identity element without descent"):
                WeylElement(rs, h).reduced_word()
            with pytest.raises(AssertionError, match="non-identity element without descent"):
                WeylElement(rs, h).act(rs.rho.fw)
            with pytest.raises(AssertionError, match="non-identity element without descent"):
                words(h)
    assert refused
    assert [tuple(words(w.heights)) for w in elements] == [w.reduced_word() for w in elements]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_height_steps_match_full_products(name):
    # height steps against full products; the height peel against peeling
    # by full products, on random words and on the same words made
    # non-reduced by a letter twice
    rng = random.Random(14)
    rs = build(name)
    for _ in range(20):
        word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 12))]
        pos, d = rng.randint(0, len(word)), rng.randint(1, rs.rank)
        padded_word = word[:pos] + [d, d] + word[pos:]
        padded = mul_from_word(rs, padded_word)
        assert padded.length < len(word) + 2
        assert padded.reduced_word() == peel_reduced_word(rs, word_matrix(rs, padded_word))
        mat = word_matrix(rs, word)
        w = element_of(rs, mat)
        assert w.reduced_word() == peel_reduced_word(rs, mat)
        assert from_word(rs, word) == w
        for i in range(1, rs.rank + 1):
            right = w * from_word(rs, (i,))
            assert right == from_word(rs, word + [i])
            assert right == element_of(rs, matmul(mat, simple_matrix(rs, i)))


def test_height_peel_refuses_a_matrix_outside_the_group(monkeypatch):
    # the shear ((1, 1), (0, 1)) has column heights (3, 6), which pair to
    # 0 with alpha_1: no descent, so the peel stops at once and refuses to
    # end off x(e); a peel that stepped on a zero pairing would never stop.
    # Each step reads one row of C, so the rows count the steps
    rs = build("A2")
    steps = []

    class Counted(tuple):
        def __getitem__(self, d):
            steps.append(d)
            if len(steps) > len(rs.positive_roots):
                raise RuntimeError("the peel does not stop")
            return tuple.__getitem__(self, d)

    monkeypatch.setattr(rs, "_simple_rows", Counted(rs._simple_rows))
    assert from_word(rs, (1, 2)).reduced_word() == (1, 2) and steps == [1, 0]
    steps.clear()
    shear = WeylElement(rs, (3, 6))
    with pytest.raises(AssertionError, match="non-identity element without descent"):
        shear.reduced_word()
    assert steps == []
    with pytest.raises(AssertionError, match="non-identity element without descent"):
        shear.act(rs.rho.fw)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_element_order_matches_the_matrix_power_oracle(name):
    # the first return of rho against the first matrix power equal to e
    rs = build(name)
    for w in enumerate_group(rs):
        assert element_order(w) == matrix_power_order(rs, matrix_of(w))


# thm42 universes: the sum over alpha of |{tau >= w_alpha}|
THM42_UNIVERSE = {"A3": 16, "D4": 80, "A5": 372, "D5": 504}


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_thm42_coset_is_the_bruhat_upper_ideal(name):
    # {tau >= w_alpha} = w0 W_P = {tau : tau(omega_alpha) = w0(omega_alpha)}
    rs = build(name)
    elements = list(enumerate_group(rs))
    w0 = longest_element(rs)
    total = 0
    for a in range(1, rs.rank + 1):
        omega = rs.fundamental_weights[a - 1]
        coset = [tau for tau in elements if tau.apply(omega) == w0.apply(omega)]
        w_a = min_parabolic_rep(rs, a)
        assert coset == [tau for tau in elements if bruhat_leq(w_a, tau)]
        assert len(coset) * len(weight_orbit(rs, omega)) == len(elements)
        total += len(coset)
    assert total == THM42_UNIVERSE.get(name, total)
