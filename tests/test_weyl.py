"""Weyl-group elements: words, lengths, Bruhat order, enumeration."""

import random

import pytest

from schubert import (
    GuardExceeded,
    WeylElement,
    bruhat_leq,
    build,
    coxeter_elements,
    element_order,
    enumerate_group,
    from_word,
    identity,
    longest_element,
    min_parabolic_rep,
    simple_reflection,
)
from schubert.report import DEFAULT_GUARD, GUARD_ENV_VAR, resolve_guard

from helpers import (LAYER_TYPES, gauss_jordan_inverse, matrix_power_order, peel_reduced_word,
                     random_element, reduced_words, subword_bruhat_leq, weight_orbit)


def test_simple_reflection_basics():
    rs = build("A2")
    s1 = simple_reflection(rs, 1)
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
            si, sj = simple_reflection(rs, i), simple_reflection(rs, j)
            assert element_order(si * sj) == m


def test_from_word_orientation():
    # the last letter acts first on weights
    rs = build("A2")
    w = from_word(rs, (2, 1))
    s1, s2 = simple_reflection(rs, 1), simple_reflection(rs, 2)
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


@pytest.mark.parametrize("name,order", [("A2", 6), ("A3", 24), ("B2", 8), ("G2", 12), ("D4", 192)])
def test_enumerate_group(name, order):
    rs = build(name)
    elements = list(enumerate_group(rs))
    assert len(elements) == order
    assert len({w.matrix for w in elements}) == order
    lengths = [w.length for w in elements]
    assert lengths == sorted(lengths)
    assert elements[0].is_identity
    assert elements[-1] == longest_element(rs)


@pytest.mark.parametrize("corrupt", [
    lambda w, i: w,  # a link that leaves the layer
    lambda w, i: w.times_simple(i),  # w s_i: an element of the layer, not the inverse
])
def test_corrupted_inverse_link_is_refused(monkeypatch, corrupt):
    # enumerate_group links v^-1 = s_d (v s_d)^-1 through simple_times; a
    # wrong step must be refused, by the lookup or by the check on rho
    monkeypatch.setattr(WeylElement, "simple_times", corrupt)
    with pytest.raises(AssertionError, match="no enumerated inverse"):
        list(enumerate_group(build("A3")))


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
        assert w ** 3 == w * w * w
        assert w ** 0 == identity(rs)


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
    # R+(w_alpha) = the positive roots above alpha in dominance order
    for name in ("A2", "A3", "B2", "D4"):
        rs = build(name)
        for i in range(1, rs.rank + 1):
            w = min_parabolic_rep(rs, i)
            alpha = rs.simple_roots[i - 1].weight
            expected = {r.coords for r in rs.positive_roots
                        if rs.dominance_leq(alpha, r.weight)}
            assert {r.coords for r in w.inversion_set()} == expected


COXETER_COUNTS = {"A2": 2, "A3": 4, "B2": 2, "G2": 2, "D4": 8}
COXETER_NUMBERS = {"A2": 3, "A3": 4, "B2": 4, "G2": 6, "D4": 6}


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


@pytest.mark.parametrize("name, h", [("A5", 6), ("D5", 8), ("E6", 12)])
def test_coxeter_number_of_larger_types(name, h):
    rs = build(name)
    assert element_order(from_word(rs, range(1, rs.rank + 1))) == h


def test_element_order_is_bounded_by_the_weyl_order():
    # a shear is no Weyl element and never returns to e; the loop stops at |W|
    rs = build("A2")
    shear = WeylElement(rs, ((1, 1), (0, 1)))
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
    s1 = simple_reflection(rs, 1)
    zero = rs.zero()
    # s_1 . 0 = -alpha_1
    assert s1.dot(zero) == -rs.simple_roots[0].weight
    w0 = longest_element(rs)
    assert w0.dot(zero) == -2 * rs.rho


ORACLE_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
                "D4", "D5", "F4", "G2"]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_element_paths_match_slow_oracles(name):
    # BFS-parent words and linked inverses against peeling by full products
    # and Gauss-Jordan, on every element; s_i <= w iff i occurs in its word
    rs = build(name)
    elements = list(enumerate_group(rs))
    enumerated = {w.matrix: w for w in elements}
    for w in elements:
        word = w.reduced_word()
        assert word == peel_reduced_word(w)
        assert from_word(rs, word) == w
        inv = w.inverse()
        assert inv == gauss_jordan_inverse(w)
        assert enumerated[inv.matrix] is inv
        assert inv.inverse() is w
        assert inv.reduced_word() == peel_reduced_word(gauss_jordan_inverse(w))
        for i in range(1, rs.rank + 1):
            assert bruhat_leq(simple_reflection(rs, i), w) == (i in word)
            assert w.simple_times(i) == simple_reflection(rs, i) * w


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_element_order_matches_the_matrix_power_oracle(name):
    # the first return of rho against the first matrix power equal to e
    rs = build(name)
    for w in enumerate_group(rs):
        assert element_order(w) == matrix_power_order(w)


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
