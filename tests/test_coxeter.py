"""Coxeter-element orbit data: the tau-phi splitting and its sweeps."""

import collections
import functools
import itertools
import json
import math
import re

import pytest

from schubert import (
    analyze,
    build,
    coxeter_elements,
    from_word,
    identity,
    is_typeA_extremal,
    longest_element,
)
from schubert import cohomology, coxeter, weyl
from schubert.charring import e
from schubert.cli import main
from schubert.cohomology import _dot_zero_euler, verify_cor52_53_58
from schubert.coxeter import _coxeter_table, _cycle, _entry, _verdicts, verify_lemma54_55_56
from schubert.report import run_check, run_checks
from schubert.rootsys import CartanType
from schubert.weyl import WeylElement

from helpers import (analyze_per_ordering, cor52_53_58_per_element, lemma54_56_per_ordering,
                     matmul, matrix_of, matvec, mul_from_word, word_matrix)


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty Coxeter table for the test, so it builds every entry and
    cycle it reads; called on a root system, it gives that table."""
    monkeypatch.setattr(coxeter, "_coxeter_table", functools.lru_cache(lambda rs: {}))
    return coxeter._coxeter_table


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
def test_phi_factor_commutation_is_read_per_c_and_reindexed(fresh_table, name):
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
    # pretend no two factors commute: every pair of J must be reported
    for c, word in coxeter_elements(rs):
        clashes = _verdicts(rs, _entry(rs, word, c))[2]
        assert not clashes
        clashes.update(frozenset(pair) for pair in itertools.combinations(
            _entry(rs, word, c).phi_words, 2))
    _, rows, _ = verify_lemma54_55_56(rs)
    assert rows == expected


def _force(rs, monkeypatch, clause):
    """Patch the engine so that lemma54_56's clause fails on rs: c's simple
    images all alpha_1; every two simple roots Dynkin neighbours; every
    pair of phi factors reported as clashing, once the entries hold their
    orbits and splits; every length one too long; phi's images all the
    highest root."""
    real_apply_root, real_length = WeylElement.apply_root, WeylElement.length.fget
    if clause == "simple-image":
        monkeypatch.setattr(WeylElement, "apply_root", lambda w, beta: (
            rs.simple_roots[0] if w.length == rs.rank else real_apply_root(w, beta)))
    elif clause == "orbit-orthogonality":
        monkeypatch.setattr(rs, "cartan", tuple((1,) * rs.rank for _ in range(rs.rank)))
    elif clause == "factor-commutation":
        verify_lemma54_55_56(rs)
        for entry in coxeter._coxeter_table(rs).values():
            entry.verdicts = None
        monkeypatch.setattr(WeylElement, "__ne__", lambda u, v: True)
    elif clause == "length-additivity":
        monkeypatch.setattr(WeylElement, "length", property(lambda w: real_length(w) + 1))
    elif clause == "height-comparison":
        monkeypatch.setattr(WeylElement, "apply_root", lambda w, beta: (
            rs.highest_root if w.length < rs.rank else real_apply_root(w, beta)))


@pytest.mark.parametrize("clause", [None, "simple-image", "orbit-orthogonality",
                                    "factor-commutation", "length-additivity",
                                    "height-comparison"])
@pytest.mark.parametrize("name", ["A4", "D4", "D5", "E6"])
def test_lemma54_56_rows_match_the_per_ordering_oracle(fresh_table, monkeypatch, name, clause):
    # the verdicts are kept once per c and per split, by simple index; with
    # a clause forced to fail, every ordering must still report its own
    # rows, by position and in order, as a check of each ordering would
    rs = build(name)
    _force(rs, monkeypatch, clause)
    universe, rows, details = verify_lemma54_55_56(rs)
    assert (universe, rows, details) == lemma54_56_per_ordering(rs)
    assert universe == math.factorial(rs.rank)
    assert {row["clause"] for row in rows} >= ({clause} if clause else set())
    assert bool(rows) == bool(clause)


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_prop51_alone_builds_no_orbit_data(fresh_table, monkeypatch, name):
    # prop51 reads only c's cycle, so over a fresh table it builds no
    # image, orbit, verdict or split; lemma54_56 then acts n times per c
    rs = build(name)
    actions = collections.Counter()

    def counted_apply_root(w, beta, real=WeylElement.apply_root):
        actions[w] += 1
        return real(w, beta)

    monkeypatch.setattr(WeylElement, "apply_root", counted_apply_root)
    assert coxeter.verify_prop51(rs)[1] == []
    entries = list(fresh_table(rs).values())
    assert len(entries) == 2 ** (rs.rank - 1) and actions == {}
    assert all(entry.images is entry.a is entry.phi_words is entry.verdicts is None
               and entry.splits == {} for entry in entries)
    assert verify_lemma54_55_56(rs)[1] == []
    assert all(actions[entry.c] == rs.rank for entry in entries)


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_lemma54_56_and_prop51_build_each_coxeter_element_once(fresh_table, monkeypatch,
                                                              name):
    # over a fresh table, lemma54_56 builds c once per Dynkin orientation
    # (2^(n-1)), not once per ordering (n!); prop51 then lists the
    # elements with one build per orientation and builds no entry; c acts
    # on each simple root once, and each (c, J order) split's phi once
    rs = build(name)
    n = rs.rank
    made = {coxeter: [], weyl: []}

    def counted_from_word(log):
        def from_word(rs, word, real=weyl.from_word):
            log.append(real(rs, tuple(word)))
            return log[-1]
        return from_word

    actions = collections.Counter()

    def counted_apply_root(w, beta, real=WeylElement.apply_root):
        actions[id(w)] += 1
        return real(w, beta)

    for module, log in made.items():
        monkeypatch.setattr(module, "from_word", counted_from_word(log))
    monkeypatch.setattr(WeylElement, "apply_root", counted_apply_root)
    assert verify_lemma54_55_56(rs)[1] == []
    entries = list(fresh_table(rs).values())
    cs = {id(entry.c) for entry in entries}
    builds = [w for w in made[coxeter] if id(w) in cs]
    assert len(builds) == len(entries) == 2 ** (n - 1)
    assert len({weyl.orientation(rs, w.reduced_word()) for w in builds}) == len(builds)
    assert made[weyl] == []
    assert coxeter.verify_prop51(rs)[1] == []
    assert [id(entry) for entry in fresh_table(rs).values()] == list(map(id, entries))
    assert len(made[weyl]) == 2 ** (n - 1)
    assert all(actions[id(c)] == n for c in builds)
    splits = sum(len(entry.splits) for entry in entries)
    assert sum(actions.values()) == n * (len(entries) + splits)


@pytest.mark.parametrize("name,checks", [
    ("A5", ["prop51", "lemma54_56", "thmC_typeA", "cor52_53_58"]),
    ("D5", ["prop51", "lemma54_56", "cor52_53_58"]),
])
def test_coxeter_checks_read_one_cycle_per_element(fresh_table, monkeypatch, name, checks):
    # over a fresh table, the Coxeter checks of one run read c^j and c^-1
    # from c's entry: one cycle built per distinct c, and no element is
    # inverted
    rs = build(name)
    cycles = []
    inverses = []

    def counted_cycle(entry, real=coxeter._cycle):
        if entry.powers is None:
            cycles.append(entry)
        return real(entry)

    def counted_inverse(w, real=WeylElement.inverse):
        inverses.append(w)
        return real(w)

    monkeypatch.setattr(coxeter, "_cycle", counted_cycle)
    monkeypatch.setattr(WeylElement, "inverse", counted_inverse)
    assert all(rep.passed for rep in run_checks(rs, checks))
    entries = list(fresh_table(rs).values())
    assert len(cycles) == len({entry.c for entry in cycles}) == len(entries) == 16
    assert {id(entry) for entry in cycles} == {id(entry) for entry in entries}
    assert inverses == []


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_analyze_and_lemma54_56_build_no_cycle(fresh_table, monkeypatch, name):
    # both read h as the Coxeter number and never a power of c, so over a
    # fresh table neither builds a cycle
    rs = build(name)
    cycles = []
    monkeypatch.setattr(coxeter, "_cycle",
                        lambda entry, real=coxeter._cycle: cycles.append(entry) or real(entry))
    for perm in itertools.permutations(range(1, rs.rank + 1)):
        assert analyze(rs, perm).coxeter_number == rs.ct.coxeter_number
    assert verify_lemma54_55_56(rs)[1] == []
    entries = list(fresh_table(rs).values())
    assert len(entries) == 2 ** (rs.rank - 1)
    assert cycles == [] and all(entry.powers is None for entry in entries)


def test_prop51_builds_one_element_and_cycle_per_orientation(fresh_table, monkeypatch):
    # E8 has 8! orderings and 2^7 orientations: prop51 builds one element
    # and one cycle for each orientation
    rs = build("E8")
    builds = []

    def counted_from_word(rs, word, real=weyl.from_word):
        builds.append(tuple(word))
        return real(rs, builds[-1])

    monkeypatch.setattr(weyl, "from_word", counted_from_word)
    monkeypatch.setattr(coxeter, "from_word", counted_from_word)
    assert coxeter.verify_prop51(rs)[1] == []
    entries = list(fresh_table(rs).values())
    assert len(builds) == len(entries) == 128
    assert len({weyl.orientation(rs, word) for word in builds}) == 128
    assert all(len(entry.powers) == rs.ct.coxeter_number == 30 for entry in entries)


def test_coxeter_order_is_checked_against_h(fresh_table, monkeypatch, capsys):
    # the cycle asserts c^h = e and h distinct powers, so with h one too
    # large every Coxeter element fails it: an engine failure, not a report
    real = CartanType.coxeter_number.fget
    monkeypatch.setattr(CartanType, "coxeter_number", property(lambda ct: real(ct) + 1))
    code = main(["verify", "prop51", "--type", "A3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert re.fullmatch(r"error: engine failure: prop51: Coxeter element W\[[\d,]+\] "
                        r"does not have order h = 5\n", captured.err)


def test_prop51_acts_only_for_the_order_and_the_simple_images(fresh_table, monkeypatch):
    # c acts on no weight: its order is checked on the cycle's column
    # heights, the exponents are read from those heights too, and the
    # simple images, which only lemma54_56 and analyze read, are not built
    rs = build("E6")
    actions = collections.Counter()

    def counted_act(w, fw, real=WeylElement.act):
        actions[w] += 1
        return real(w, fw)

    monkeypatch.setattr(WeylElement, "act", counted_act)
    assert coxeter.verify_prop51(rs)[1] == []
    monkeypatch.undo()
    assert actions == {}
    assert len(fresh_table(rs)) == len(coxeter_elements(rs)) == 32


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


def test_typeA_extremal_rejects_non_coxeter_elements():
    # s_1 misses letters and w0's canonical word repeats them: neither is
    # a product of each simple reflection once
    rs = build("A3")
    for w in (from_word(rs, (1,)), longest_element(rs)):
        with pytest.raises(ValueError, match="not a Coxeter element"):
            is_typeA_extremal(rs, w)


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
    assert captured.err == "error: engine failure: prop51: w0 search terminated early\n"


def test_a_failed_w0_search_names_its_type(monkeypatch):
    # a climb that stops at e leaves every root uninverted
    monkeypatch.setattr(weyl, "_climb", lambda rs, letters: identity(rs))
    with pytest.raises(AssertionError, match=r"^w0 search on A2 terminated early$"):
        longest_element.__wrapped__(build("A2"))


def test_lemma54_56_reports_lengths_that_do_not_add(capsys, monkeypatch):
    # with the identity given length 1, l(c) = l(tau) + l(phi) fails; the
    # lemma reports it as its length-additivity row, and analyze does not
    # stop the run first (the memo is cleared around the patched lengths)
    real = WeylElement.length.fget
    monkeypatch.setattr(WeylElement, "length", property(lambda w: real(w) or 1))
    _coxeter_table.cache_clear()
    try:
        code = main(["verify", "lemma54_56", "--type", "A2", "--format", "json"])
    finally:
        _coxeter_table.cache_clear()
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
        # the check looks both up on its module, cohomology, when it runs
        def counted(*args, fn=fn, real=getattr(cohomology, fn)):
            calls[fn] += 1
            return real(*args)
        monkeypatch.setattr(cohomology, fn, counted)
    assert verify_cor52_53_58(rs)[1] == []
    assert calls == {"euler_char": distinct, "inversion_tangent": distinct}


@pytest.mark.parametrize("name", ["D4", "D6"])
def test_coxeter_half_power_is_w0_with_signed_euler_e0(name):
    # -1 is in W, so c^(h/2) = w0 for every Coxeter element c, and
    # (-1)^N chi(w0, e^{w0 . 0}) = (-1)^N chi(w0, e^{-2 rho}) = e^0
    rs = build(name)
    w0 = longest_element(rs)
    for c, word in coxeter_elements(rs):
        powers = _cycle(_entry(rs, word, c))
        h = len(powers)
        assert h % 2 == 0 and powers[h // 2] == w0
        chi = _dot_zero_euler(rs, powers[h // 2], powers[h // 2])
        assert (-1) ** w0.length * chi == e(rs.zero())


def test_cor52_53_58_rejects_two_lengths():
    with pytest.raises(ValueError):
        run_check(build("B2"), "cor52_53_58")
