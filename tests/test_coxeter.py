"""Coxeter-element orbit data: the tau-phi splitting and its sweeps."""

import itertools

import pytest

from schubert import (
    analyze,
    build,
    coxeter_elements,
    from_word,
    identity,
    is_typeA_extremal,
    longest_element,
    simple_reflection,
    yz_exponent,
)
from schubert.coxeter import _coxeter_data, verify_cor52_53_58, verify_lemma54_55_56
from schubert.report import run_check

from helpers import analyze_per_ordering, cor52_53_58_per_element, mul_from_word


def test_analyze_a2_anchor():
    # worked example, ordering (alpha_1, alpha_2): c = s2 s1
    rs = build("A2")
    a = analyze(rs, (1, 2))
    assert a.c == from_word(rs, (2, 1))
    assert a.coxeter_number == 3
    assert a.J_prime == (1, 2)
    assert a.a == {1: 1, 2: 2}
    assert a.J == (2,)
    assert a.phi_words == {2: (2, 1)}
    assert a.phi == a.c
    assert a.tau.is_identity


def test_analyze_a2_mirror_ordering():
    rs = build("A2")
    a = analyze(rs, (2, 1))
    assert a.c == from_word(rs, (1, 2))
    assert a.J == (2,)
    assert a.phi == a.c and a.tau.is_identity


def test_analyze_rejects_bad_ordering():
    rs = build("A2")
    with pytest.raises(ValueError):
        analyze(rs, (1, 1))
    with pytest.raises(ValueError):
        analyze(rs, (1,))


@pytest.mark.parametrize("name", ["A3", "D4", "B3"])
def test_analyze_structural_identities(name):
    # analyze() asserts reducedness and additivity internally; drive it
    # through every ordering and re-check the arithmetic from outside
    rs = build(name)
    for perm in itertools.permutations(range(1, rs.rank + 1)):
        a = analyze(rs, perm)
        assert a.tau * a.phi == a.c
        assert a.c.length == rs.rank
        assert a.phi.length == sum(a.a[j] for j in a.J)
        assert a.tau.length == a.c.length - a.phi.length
        assert set(a.J) <= set(a.J_prime)
        for j in a.J:
            assert len(a.phi_words[j]) == a.a[j]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "E6"])
def test_analyze_matches_the_per_ordering_oracle(name):
    # all fields, every ordering; the orderings of one c share its table
    # entry, so a position read through the wrong simple index shows here
    rs = build(name)
    for perm in itertools.permutations(range(1, rs.rank + 1)):
        assert analyze(rs, perm) == analyze_per_ordering(rs, perm)


@pytest.mark.parametrize("name", ["A4", "D4", "D5", "E6"])
def test_phi_factor_commutation_is_read_per_c_and_reindexed(name):
    # the commutation verdicts of the factors live in c's table entry,
    # keyed by simple index; each ordering must report its own positions
    rs = build(name)
    expected = []
    for perm in itertools.permutations(range(1, rs.rank + 1)):
        a = analyze(rs, perm)
        factors = {j: mul_from_word(rs, a.phi_words[j]) for j in a.J}
        for j, k in itertools.combinations(a.J, 2):
            assert factors[j] * factors[k] == factors[k] * factors[j]
            expected.append({"ordering": list(perm), "clause": "factor-commutation",
                             "j": j, "k": k})
    assert expected
    try:
        # pretend no two factors commute: every pair of J must be reported
        for c, _ in coxeter_elements(rs):
            entry = _coxeter_data(rs, c)
            assert not entry[4]
            entry[4].update(frozenset(pair) for pair in itertools.combinations(entry[3], 2))
        _, rows, _ = verify_lemma54_55_56(rs)
        assert rows == expected
    finally:
        _coxeter_data.cache_clear()


def test_yz_exponent_a2():
    rs = build("A2")
    c = from_word(rs, (2, 1))
    assert yz_exponent(rs, c, 1) == 1
    assert yz_exponent(rs, c, 2) == 2
    ci = c.inverse()
    assert yz_exponent(rs, ci, 1) == 2
    assert yz_exponent(rs, ci, 2) == 1


def test_yz_exponent_rejects_non_coxeter():
    rs = build("A2")
    with pytest.raises(ValueError):
        yz_exponent(rs, simple_reflection(rs, 1), 1)
    with pytest.raises(ValueError):
        yz_exponent(rs, longest_element(rs), 1)


def test_yz_exponent_hits_w0_image():
    for name in ("A3", "B3", "D4"):
        rs = build(name)
        w0 = longest_element(rs)
        for c, _ in coxeter_elements(rs):
            for i in range(1, rs.rank + 1):
                j = yz_exponent(rs, c, i)
                omega = rs.fundamental_weights[i - 1]
                assert (c ** j).apply(omega) == w0.apply(omega)
                # minimality
                for k in range(1, j):
                    assert (c ** k).apply(omega) != w0.apply(omega)


def test_typeA_extremal():
    rs = build("A2")
    for c, _ in coxeter_elements(rs):
        assert is_typeA_extremal(rs, c)
    rs3 = build("A3")
    flags = [is_typeA_extremal(rs3, c) for c, _ in coxeter_elements(rs3)]
    assert sum(flags) == 2
    assert is_typeA_extremal(rs3, from_word(rs3, (3, 2, 1)))
    assert is_typeA_extremal(rs3, from_word(rs3, (1, 2, 3)))
    assert not is_typeA_extremal(rs3, from_word(rs3, (1, 3, 2)))
    with pytest.raises(ValueError):
        is_typeA_extremal(build("B2"), from_word(build("B2"), (2, 1)))


@pytest.mark.parametrize("name,n_cox", [("A2", 2), ("A3", 4), ("B2", 2), ("B3", 4), ("D4", 8)])
def test_verify_prop51(name, n_cox):
    rep = run_check(build(name), "prop51")
    assert rep.passed
    assert rep.universe_size == n_cox * build(name).rank
    assert all(1 <= row["j"] < rep.details["coxeter_number"]
               for row in rep.details["rows"])


@pytest.mark.parametrize("name", ["A2", "A3", "D4", "A5", "D5"])
def test_verify_lemma54_55_56(name):
    rep = run_check(build(name), "lemma54_56")
    assert rep.passed
    assert rep.universe_size == {
        "A2": 2, "A3": 6, "D4": 24, "A5": 120, "D5": 120}[name]


def test_lemma54_55_56_rejects_two_lengths():
    with pytest.raises(ValueError):
        run_check(build("B2"), "lemma54_56")


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
def test_verify_thmC(name):
    rep = run_check(build(name), "thmC_typeA")
    assert rep.passed
    assert rep.details["epsilon"] == -1
    for row in rep.details["nonextremal_rows"]:
        assert {"c_word", "euler_is_signed_e0", "euler"} <= set(row)


def test_thmC_rejects_other_families():
    with pytest.raises(ValueError):
        run_check(build("D4"), "thmC_typeA")


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_verify_cor52_53_58(name):
    rep = run_check(build(name), "cor52_53_58")
    assert rep.passed
    for row in rep.details["rows"]:
        assert row["min_full_power"] is not None
        if row["extremal"]:
            assert row["cyclic_sum_matches"]
            assert row["signed_euler_sum_matches"]


@pytest.mark.parametrize("name", ["A3", "A4", "D4", "D5"])
def test_cor52_53_58_memo_matches_the_per_element_loop(name):
    # universe, counterexamples and details, rows in order
    rs = build(name)
    assert verify_cor52_53_58(rs) == cor52_53_58_per_element(rs)


def test_cor52_53_58_rejects_two_lengths():
    with pytest.raises(ValueError):
        run_check(build("B2"), "cor52_53_58")
