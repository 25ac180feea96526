"""Coxeter-element orbit data: the tau-phi splitting and its sweeps."""

import collections
import functools
import itertools
import json

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
from schubert import coxeter, weyl
from schubert.charring import e
from schubert.cli import main
from schubert.coxeter import (_clashes, _coxeter_data, _cycle, _dot_zero_euler,
                              verify_cor52_53_58, verify_lemma54_55_56)
from schubert.report import run_check, run_checks
from schubert.weyl import WeylElement

from helpers import (analyze_per_ordering, cor52_53_58_per_element, matmul, matrix_of,
                     matvec, mul_from_word, word_matrix)


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
    assert a.tau == identity(rs)


def test_analyze_a2_mirror_ordering():
    rs = build("A2")
    a = analyze(rs, (2, 1))
    assert a.c == from_word(rs, (1, 2))
    assert a.J == (2,)
    assert a.phi == a.c and a.tau == identity(rs)


def test_analyze_rejects_bad_ordering():
    rs = build("A2")
    with pytest.raises(ValueError):
        analyze(rs, (1, 1))
    with pytest.raises(ValueError):
        analyze(rs, (1,))


@pytest.mark.parametrize("name", ["A3", "D4", "B3"])
def test_analyze_structural_identities(name):
    # analyze() asserts that phi is reduced and tau * phi = c; additivity
    # is lemma54_56's clause, so drive analyze through every ordering and
    # re-check the arithmetic, additivity included, from outside
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
            clashes = _clashes(rs, entry)
            assert not clashes
            clashes.update(frozenset(pair) for pair in itertools.combinations(entry.phi_words, 2))
        _, rows, _ = verify_lemma54_55_56(rs)
        assert rows == expected
    finally:
        _coxeter_data.cache_clear()


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_lemma54_56_and_prop51_build_each_coxeter_element_once(monkeypatch, name):
    # over a fresh table, one lemma54_56 and one prop51 build c once per
    # Dynkin orientation (2^(n-1)), not once per ordering (n!); c acts on
    # each simple root once, and each (c, phi word) split's phi once
    rs = build(name)
    n = rs.rank
    monkeypatch.setattr(weyl, "_coxeter_table", functools.lru_cache(lambda rs: {}))
    monkeypatch.setattr(coxeter, "_coxeter_data",
                        functools.lru_cache(coxeter._coxeter_data.__wrapped__))
    builds = []

    def counted_from_word(rs, word, real=weyl.from_word):
        word = tuple(word)
        if sorted(word) == list(range(1, n + 1)):
            builds.append(word)
        return real(rs, word)

    actions = collections.Counter()

    def counted_apply_root(w, beta, real=WeylElement.apply_root):
        actions[id(w)] += 1
        return real(w, beta)

    monkeypatch.setattr(weyl, "from_word", counted_from_word)
    monkeypatch.setattr(WeylElement, "apply_root", counted_apply_root)
    assert verify_lemma54_55_56(rs)[1] == []
    assert coxeter.verify_prop51(rs)[1] == []
    elements = list(weyl._coxeter_table(rs).values())
    assert len(builds) == len(elements) == 2 ** (n - 1)
    assert len({weyl.orientation(rs, word) for word in builds}) == len(builds)
    assert all(actions[id(c)] == n for c in elements)
    splits = sum(len(coxeter._coxeter_data(rs, c).splits) for c in elements)
    assert sum(actions.values()) == n * (len(elements) + splits)


@pytest.mark.parametrize("name,checks", [
    ("A5", ["prop51", "lemma54_56", "thmC_typeA", "cor52_53_58"]),
    ("D5", ["prop51", "lemma54_56", "cor52_53_58"]),
])
def test_coxeter_checks_read_one_cycle_per_element(monkeypatch, name, checks):
    # over a fresh table, the Coxeter checks of one run read h, c^j and
    # c^-1 from c's entry: one order computation per distinct c, and no
    # element is inverted
    rs = build(name)
    monkeypatch.setattr(weyl, "_coxeter_table", functools.lru_cache(lambda rs: {}))
    monkeypatch.setattr(coxeter, "_coxeter_data",
                        functools.lru_cache(coxeter._coxeter_data.__wrapped__))
    orders = []
    inverses = []

    def counted_order(w, real=weyl.element_order):
        orders.append(w)
        return real(w)

    def counted_inverse(w, real=WeylElement.inverse):
        inverses.append(w)
        return real(w)

    monkeypatch.setattr(coxeter, "element_order", counted_order)
    monkeypatch.setattr(WeylElement, "inverse", counted_inverse)
    assert all(rep.passed for rep in run_checks(rs, checks))
    elements = list(weyl._coxeter_table(rs).values())
    assert len(orders) == len(set(orders)) == len(elements) == 16
    assert set(orders) == set(elements)
    assert inverses == []


def test_prop51_acts_only_for_the_order_and_the_simple_images(monkeypatch):
    # c acts h times on rho (its order) and once on each simple root; the
    # exponents themselves are read from the cycle's column heights
    rs = build("E6")
    monkeypatch.setattr(weyl, "_coxeter_table", functools.lru_cache(lambda rs: {}))
    monkeypatch.setattr(coxeter, "_coxeter_data",
                        functools.lru_cache(coxeter._coxeter_data.__wrapped__))
    actions = collections.Counter()

    def counted_act(w, fw, real=WeylElement.act):
        actions[w] += 1
        return real(w, fw)

    monkeypatch.setattr(WeylElement, "act", counted_act)
    assert coxeter.verify_prop51(rs)[1] == []
    monkeypatch.undo()
    elements = [c for c, _ in coxeter_elements(rs)]
    assert actions == {c: 12 + rs.rank for c in elements}
    assert sum(actions.values()) == 576


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
            powers = _cycle(c)
            for i in range(1, rs.rank + 1):
                j = yz_exponent(rs, c, i)
                omega = rs.fundamental_weights[i - 1]
                assert powers[j].apply(omega) == w0.apply(omega)
                # minimality
                for k in range(1, j):
                    assert powers[k].apply(omega) != w0.apply(omega)


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


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B3", "C4", "D4", "D5", "E6",
                                  "F4", "G2"])
def test_prop51_rows_match_the_matrix_oracle(name):
    # each row's j is the least k >= 1 with c^k(omega_alpha) =
    # w0(omega_alpha), on full matrix products of its c_word
    rs = build(name)
    _, counterexamples, details = coxeter.verify_prop51(rs)
    assert counterexamples == []
    assert len(details["rows"]) == len(coxeter_elements(rs)) * rs.rank
    w0 = matrix_of(longest_element(rs))
    for row in details["rows"]:
        c = word_matrix(rs, row["c_word"])
        omega = rs.fundamental_weights[row["alpha"] - 1].fw
        target = matvec(w0, omega)
        cur = omega
        for k in range(1, row["j"] + 1):
            cur = matvec(c, cur)
            assert (cur == target) == (k == row["j"]), (row, k)


def test_prop51_engine_failure_is_not_a_counterexample(capsys, monkeypatch):
    # a failure inside the exponent search (here the w0 search) proves
    # nothing, so it exits 3; only a search that finds no j < h is a row
    def broken(rs):
        raise AssertionError("w0 search terminated early")

    monkeypatch.setattr(weyl, "longest_element", broken)
    code = main(["verify", "prop51", "--type", "A2", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: engine failure: w0 search terminated early\n"


def test_lemma54_56_reports_lengths_that_do_not_add(capsys, monkeypatch):
    # with the identity given length 1, l(c) = l(tau) + l(phi) fails; the
    # lemma reports it as its length-additivity row, and analyze does not
    # stop the run first (the memo is cleared around the patched lengths)
    real = WeylElement.length.fget
    monkeypatch.setattr(WeylElement, "length", property(lambda w: real(w) or 1))
    _coxeter_data.cache_clear()
    try:
        code = main(["verify", "lemma54_56", "--type", "A2", "--format", "json"])
    finally:
        _coxeter_data.cache_clear()
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and not doc["passed"]
    assert "length-additivity" in {row["clause"] for row in doc["counterexamples"]}


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
def test_cor52_53_58_matches_the_per_element_loop(name):
    # universe, counterexamples and details, rows in order
    rs = build(name)
    assert verify_cor52_53_58(rs) == cor52_53_58_per_element(rs)


@pytest.mark.parametrize("name,distinct", [("D4", 18), ("D5", 51)])
def test_cor52_53_58_evaluates_each_power_once(monkeypatch, name, distinct):
    # one tangent and one Euler composition per distinct power over all
    # cyclic groups; on D4, e and w0 lie in every group
    rs = build(name)
    powers = set()
    for c, _ in coxeter_elements(rs):
        c = cj = matrix_of(c)
        while cj not in powers:
            powers.add(cj)
            cj = matmul(cj, c)
    assert len(powers) == distinct
    calls = {"euler_char": 0, "inversion_tangent": 0}
    for fn in calls:
        def counted(*args, fn=fn, real=getattr(coxeter, fn)):
            calls[fn] += 1
            return real(*args)
        monkeypatch.setattr(coxeter, fn, counted)
    assert verify_cor52_53_58(rs)[1] == []
    assert calls == {"euler_char": distinct, "inversion_tangent": distinct}


@pytest.mark.parametrize("name", ["D4", "D6"])
def test_coxeter_half_power_is_w0_with_signed_euler_e0(name):
    # -1 is in W, so c^(h/2) = w0 for every Coxeter element c, and
    # (-1)^N chi(w0, e^{w0 . 0}) = (-1)^N chi(w0, e^{-2 rho}) = e^0
    rs = build(name)
    w0 = longest_element(rs)
    for c, _ in coxeter_elements(rs):
        powers = _cycle(c)
        h = len(powers)
        assert h % 2 == 0 and powers[h // 2] == w0
        chi = _dot_zero_euler(rs, powers[h // 2], powers[h // 2])
        assert (-1) ** w0.length * chi == e(rs.zero())


def test_cor52_53_58_rejects_two_lengths():
    with pytest.raises(ValueError):
        run_check(build("B2"), "cor52_53_58")
