"""Euler characteristics, H^0 characters, and the theorem verifiers."""

import json
import re

import pytest

from schubert import (
    Character,
    adjoint_character,
    build,
    demazure_along_word,
    e,
    enumerate_group,
    euler_char,
    from_word,
    h0_line,
    identity,
    longest_element,
    simple_reflection,
    ss_nonempty,
)
from schubert import cohomology
from schubert.charring import char_sum, char_to_str
from schubert.cli import main
from schubert.cohomology import borel_character, demazure_layers, lemma61_search
from schubert.report import run_check

from helpers import (LAYER_TYPES, bruhat_monotonicity_findings, kernel_char, split_by_tag,
                     tagged, tangent_h0_char)


def test_euler_char_identity_and_w0():
    rs = build("A2")
    lam = rs.weight((1, 1))
    assert euler_char(rs, identity(rs), e(lam)) == e(lam)
    w0 = longest_element(rs)
    assert euler_char(rs, w0, e(lam)) == adjoint_character(rs)


def test_tangent_char_a2_anchor_element():
    # H^0 of the tangent bundle on X(s2 s1) already carries the full adjoint
    rs = build("A2")
    w = from_word(rs, (2, 1))
    assert tangent_h0_char(rs, w) == adjoint_character(rs)
    assert kernel_char(rs, w).is_zero
    # one step down it does not
    s2 = simple_reflection(rs, 2)
    kernel = kernel_char(rs, s2)
    assert not kernel.is_zero
    assert kernel.is_effective()


def test_ss_nonempty_a2_table():
    rs = build("A2")
    expected = {
        (): False, (1,): False, (2,): False,
        (1, 2): True, (2, 1): True, (1, 2, 1): True,
    }
    for word, want in expected.items():
        assert ss_nonempty(rs, from_word(rs, word)) is want


def test_h0_line_gates():
    b2 = build("B2")
    with pytest.raises(ValueError):
        h0_line(b2, identity(b2), b2.simple_roots[0].weight)  # root, not simply laced
    with pytest.raises(ValueError):
        h0_line(build("A2"), identity(build("A2")), build("A2").weight((-1, -1)))
    # dominant weights are fine anywhere
    got = h0_line(b2, longest_element(b2), b2.weight((1, 0)))
    assert got.dimension() == 5
    # positive roots are fine in simply-laced types
    a2 = build("A2")
    got = h0_line(a2, longest_element(a2), a2.simple_roots[0].weight)
    assert got.is_effective()


def test_kernel_char_effective_everywhere():
    for name in ("A2", "A3"):
        rs = build(name)
        adj = adjoint_character(rs)
        for tau in enumerate_group(rs):
            k = kernel_char(rs, tau)
            assert k.is_effective()
            assert k + tangent_h0_char(rs, tau) == adj


def test_verify_thmA_small():
    rep = run_check(build("A2"), "thmA")
    assert rep.passed and rep.universe_size == 6
    assert rep.details["full_tangent_count"] == 3
    assert rep.details["ss_count"] == 3
    rep3 = run_check(build("A3"), "thmA")
    assert rep3.passed and rep3.universe_size == 24
    assert rep3.details["full_tangent_count"] == rep3.details["ss_count"]


def test_verify_thmA_rejects_two_lengths():
    with pytest.raises(ValueError):
        run_check(build("B2"), "thmA")


def test_verify_thm42_alpha_restriction():
    rs = build("A2")
    rep = run_check(rs, "thm42", alpha=1)
    assert rep.passed
    # only w_alpha and w0 sit above w_alpha here
    assert rep.universe_size == 2
    assert rep.details["elements_above_w_alpha"] == {"1": 2}
    full = run_check(rs, "thm42")
    assert full.universe_size == 4


@pytest.mark.parametrize("name, total", [("A5", 372), ("D5", 504)])
def test_thm42_one_pass_matches_single_alpha_runs(name, total):
    # the one-pass sweep over all alphas, sliced at alpha = a, is the run
    # restricted to a: same universe, count and counterexamples
    rs = build(name)
    full = run_check(rs, "thm42")
    per_alpha = full.details["elements_above_w_alpha"]
    assert full.universe_size == sum(per_alpha.values()) == total
    for a in range(1, rs.rank + 1):
        one = run_check(rs, "thm42", alpha=a)
        assert one.universe_size == per_alpha[str(a)]
        assert one.details["elements_above_w_alpha"] == {str(a): per_alpha[str(a)]}
        assert one.counterexamples == [row for row in full.counterexamples
                                       if row["alpha"] == a]


def test_thm42_counterexamples_are_listed_in_alpha_order(monkeypatch):
    # a wrong adjoint target makes every coset element a counterexample;
    # the one pass must list them alpha by alpha, each in enumeration order
    rs = build("A4")
    wrong = adjoint_character(rs) + e(rs.zero())
    monkeypatch.setattr(cohomology, "adjoint_character", lambda rs: wrong)
    full = run_check(rs, "thm42")
    singles = [run_check(rs, "thm42", alpha=a).counterexamples
               for a in range(1, rs.rank + 1)]
    assert full.counterexamples == [row for rows in singles for row in rows]
    assert len(full.counterexamples) == full.universe_size
    order = {w.reduced_word(): k for k, w in enumerate(enumerate_group(rs))}
    for rows in singles:
        positions = [order[tuple(row["tau_word"])] for row in rows]
        assert positions == sorted(positions)
    for row in full.counterexamples:
        tau = from_word(rs, row["tau_word"])
        assert from_word(rs, row["tau_inv_word"]) == tau.inverse()
        assert tuple(row["tau_inv_word"]) == tau.inverse().reduced_word()


@pytest.mark.parametrize("name", ["A3", "A4", "D4"])
def test_shared_pass_matches_separate_verifiers(name):
    # one pass for thmA and thm42 gives what each verifier gives alone, in
    # either order, for all alphas at once and for each alpha (the CLI
    # sweep is compared with separate verify runs in test_cli.py)
    rs = build(name)
    separate = [*cohomology.verify_root_lines(rs, ("thmA",)),
                *cohomology.verify_root_lines(rs, ("thm42",))]
    assert cohomology.verify_root_lines(rs, ("thmA", "thm42")) == separate
    assert cohomology.verify_root_lines(rs, ("thm42", "thmA")) == separate[::-1]
    for a in range(1, rs.rank + 1):
        one = cohomology.verify_root_lines(rs, ("thm42",), a)
        assert cohomology.verify_root_lines(rs, ("thmA", "thm42"), a) == [separate[0], *one]
    rep = run_check(rs, "thmA")
    assert separate[0] == (rep.universe_size, rep.counterexamples, rep.details)


def test_thmA_kernel_row_only_on_a_counterexample(monkeypatch):
    # a target one e^0 too large makes thmA fail exactly where the
    # criterion holds; the kernel row is adjoint - tangent, which is e^0
    # more than the true kernel, and every other element is clean
    rs = build("A3")
    wrong = adjoint_character(rs) + e(rs.zero())
    monkeypatch.setattr(cohomology, "adjoint_character", lambda rs: wrong)
    [(universe, rows, details)] = cohomology.verify_root_lines(rs, ("thmA",))
    assert universe == 24 and len(rows) == details["ss_count"] > 0
    assert details["full_tangent_count"] == 0
    for row in rows:
        tau = from_word(rs, row["tau_word"])
        assert row["ss_nonempty"] and not row["tangent_equals_adjoint"]
        assert row["kernel"] == char_to_str(rs, kernel_char(rs, tau) + e(rs.zero()))


def test_thmA_refuses_a_tangent_above_the_adjoint(monkeypatch):
    rs = build("A2")
    short = adjoint_character(rs) - e(rs.zero())
    monkeypatch.setattr(cohomology, "adjoint_character", lambda rs: short)
    with pytest.raises(AssertionError, match="tangent exceeds adjoint"):
        cohomology.verify_root_lines(rs, ("thmA",))


def test_each_check_alone_does_only_its_own_work(monkeypatch, capsys):
    # verify thmA builds no coset; verify thm42 sums no tangent and reads
    # no criterion
    def refuse(*args, **kwargs):
        raise AssertionError("work of the other check")

    argv = ["verify", "thmA", "--type", "D4", "--format", "json"]
    with monkeypatch.context() as m:
        m.setattr(cohomology, "min_parabolic_rep", refuse)
        m.setattr(cohomology, "longest_element", refuse)
        m.setattr(cohomology.WeylElement, "inverted", refuse)
        assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["universe"] == 192
    argv[1] = "thm42"
    with monkeypatch.context() as m:
        m.setattr(cohomology, "ss_nonempty", refuse)
        m.setattr(cohomology.Character, "termwise_leq", refuse)
        assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["universe"] > 0


@pytest.mark.parametrize("argv", [
    ("sweep", "--type", "A3"),
    ("sweep", "--type", "B3"),  # thmB has its own pass
    ("verify", "thmA", "--type", "A3"),
    ("verify", "thm42", "--type", "A3"),
])
def test_one_enumeration_per_sweep(monkeypatch, capsys, argv):
    # a simply-laced sweep runs thmA and thm42 from one pass
    calls = []
    real = cohomology.enumerate_group

    def counted(*args, **kwargs):
        calls.append(args[0].ct)
        return real(*args, **kwargs)

    monkeypatch.setattr(cohomology, "enumerate_group", counted)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("name", LAYER_TYPES)
def test_demazure_layers_match_word_by_word(name):
    # every element, every positive root: the line carried by the root's
    # tag in the one-seed layer sweep against the composition along the
    # canonical word; the sweep of the summed seed is the sum of the lines
    rs = build(name)
    seeds = [e(beta.weight) for beta in rs.positive_roots]
    elements = list(enumerate_group(rs))
    swept = list(demazure_layers(rs, char_sum(tagged(rs, f, r) for r, f in enumerate(seeds))))
    summed = list(demazure_layers(rs, char_sum(seeds)))
    assert [tau for tau, _ in swept] == [tau for tau, _ in summed] == elements
    for (tau, chi), (_, total) in zip(swept, summed):
        word = tau.reduced_word()
        lines = split_by_tag(rs, chi)
        assert set(lines) <= set(range(len(seeds)))
        for r, seed in enumerate(seeds):
            assert lines.get(r, Character.zero()) == demazure_along_word(rs, word, seed)
        assert total == char_sum(lines.values())


@pytest.mark.parametrize("name", LAYER_TYPES)
def test_criterion_and_inversions_read_off_tau(name):
    # the sweeps read the criterion on tau^-1 through the enumerated
    # inverse; it is <tau(rho), alpha_0^vee> < 0, with one or two root
    # lengths, as rho pairs positively with exactly the positive coroots.
    # tau's inversions are the roots beta with tau(beta) negative
    rs = build(name)
    for tau in enumerate_group(rs):
        pairing = rs.pairing_root(tau.apply(rs.rho), rs.highest_root)
        assert ss_nonempty(rs, tau.inverse()) == (pairing < 0)
        assert tau.inverted() == [not tau.apply_root(b).positive for b in rs.positive_roots]


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4"])
def test_demazure_layers_take_no_step_beyond_enumeration(monkeypatch, name):
    # the left parents come from enumeration's links, so a layer sweep
    # makes no simple_times call beyond those of enumerate_group
    rs = build(name)
    calls = []
    real = cohomology.WeylElement.simple_times

    def counted(w, i):
        calls.append(i)
        return real(w, i)

    monkeypatch.setattr(cohomology.WeylElement, "simple_times", counted)
    list(enumerate_group(rs))
    alone, calls[:] = len(calls), []
    list(demazure_layers(rs, e(rs.highest_root.weight)))
    assert len(calls) <= alone


def _rendered_weights(rows):
    """Every e[...] coordinate list in the string fields of rows."""
    return [[int(x) for x in body.split(",")]
            for row in rows for value in row.values() if isinstance(value, str)
            for body in re.findall(r"e\[([^\]]*)\]", value)]


@pytest.mark.parametrize("bad", [(3,), (5, 2)])
def test_a_negative_line_fails_certification_naming_its_root(monkeypatch, bad):
    # a wrapped operator puts a negative term into the lines of the roots
    # in bad; the sweep must refuse, naming the first of them
    rs = build("A3")
    roots = rs.positive_roots
    real = cohomology.demazure_op

    def corrupt(rs, i, f):
        return real(rs, i, f) + char_sum(tagged(rs, e(roots[r].weight, -7), r) for r in bad)

    monkeypatch.setattr(cohomology, "demazure_op", corrupt)
    first = roots[min(bad)].weight
    for checks in (("thmA",), ("thm42",), ("thmA", "thm42")):
        with pytest.raises(AssertionError, match=re.escape(
                f"negative multiplicity in certified h0 for {first}")):
            cohomology.verify_root_lines(rs, checks)


def test_thm42_rows_under_a_wrong_adjoint_match_the_word_oracle(monkeypatch):
    # with the target one e^0 too large, every coset element fails the
    # inversion sum; its difference is the wrong target minus the sum of
    # the word-by-word h0 lines over tau's inversion set
    rs = build("A4")
    wrong = adjoint_character(rs) + e(rs.zero())
    monkeypatch.setattr(cohomology, "adjoint_character", lambda rs: wrong)
    [(universe, rows, _)] = cohomology.verify_root_lines(rs, ("thm42",))
    assert len(rows) == universe > 0
    for row in rows:
        assert row["clause"] == "inversion-sum"
        tau = from_word(rs, row["tau_word"])
        total = char_sum(demazure_along_word(rs, tau.reduced_word(), e(beta.weight))
                         for beta in tau.inversion_set())
        assert row["difference"] == char_to_str(rs, wrong - total)
    thmA_rows = cohomology.verify_root_lines(rs, ("thmA",))[0][1]
    assert thmA_rows
    assert all(len(fw) == rs.rank for fw in _rendered_weights(rows + thmA_rows))


def test_thm42_outside_rows_render_each_root_line(monkeypatch):
    # with no root counted as inverted, every root with a nonzero line is
    # an outside-vanishing row; its h0 is the word-by-word line, rendered
    # with the tag digit masked off
    # (w_alpha is found first: its own check reads the inversions)
    rs = build("A3")
    w_alpha = cohomology.min_parabolic_rep(rs, 2)
    monkeypatch.setattr(cohomology, "min_parabolic_rep", lambda rs, a: w_alpha)
    monkeypatch.setattr(cohomology.WeylElement, "inverted",
                        lambda tau: [False] * len(tau.rs.positive_roots))
    [(universe, rows, _)] = cohomology.verify_root_lines(rs, ("thm42",), alpha=2)
    assert universe > 0
    for tau in {tuple(row["tau_word"]) for row in rows}:
        lines = [(beta, demazure_along_word(rs, tau, e(beta.weight)))
                 for beta in rs.positive_roots]
        want = [(list(beta.coords), char_to_str(rs, line))
                for beta, line in lines if not line.is_zero]
        assert want == [(row["beta"], row["h0"]) for row in rows
                        if tuple(row["tau_word"]) == tau
                        and row["clause"] == "outside-vanishing"]
    assert all(len(fw) == rs.rank for fw in _rendered_weights(rows))


def test_verify_thmB_shape():
    rep = run_check(build("B2"), "thmB")
    assert rep.passed  # exploratory: passing means the sweep ran
    assert rep.universe_size == 8
    rows = rep.details["rows"]
    assert len(rows) == 8
    assert {"euler_equals_adjoint", "ss_nonempty", "has_negative_multiplicity"} <= set(rows[0])
    assert isinstance(rep.details["criterion_matches_euler_everywhere"], bool)
    with pytest.raises(ValueError):
        run_check(build("A2"), "thmB")


def test_lemma26_even_for_large_simply_laced():
    assert run_check(build("D4"), "lemma26").passed
    with pytest.raises(ValueError):
        run_check(build("B2"), "lemma26")


LEMMA61_EXPECTED = {
    # type: (alpha index, beta coords, <nu, alpha_vee>)
    "B2": (2, [1, 0], 0),
    "B3": (3, [1, 1, 0], 0),
    "C3": (1, [0, 2, 1], 0),
    "F4": (3, [1, 2, 2, 2], 0),
    "G2": (1, [0, 1], 1),
}


@pytest.mark.parametrize("name", sorted(LEMMA61_EXPECTED))
def test_lemma61_search_frozen(name):
    rs = build(name)
    alpha, beta, pairing = LEMMA61_EXPECTED[name]
    found = lemma61_search(rs)
    assert found is not None
    assert found["alpha"] == alpha
    assert found["beta"] == beta
    assert found["pairing_nu_alpha"] == pairing
    assert found["nu_plus_alpha_is_root"] is True
    assert found["s_alpha_dot_beta"] == list(rs.highest_short_root.coords)
    assert run_check(rs, "lemma61").passed


def test_lemma61_rejects_simply_laced():
    with pytest.raises(ValueError):
        lemma61_search(build("A2"))


def test_borel_character():
    rs = build("B2")
    b = borel_character(rs)
    assert b.multiplicity(rs.zero()) == 2
    assert b.dimension() == 2 + 4
    for r in rs.positive_roots:
        assert b.multiplicity(-r.weight) == 1
        assert b.multiplicity(r.weight) == 0


def test_remark_b2_frozen_fixture():
    # chi(s1 s2 s1, char b) = 0, frozen from an independent pre-build
    # string-formula evaluation (2026-08-18)
    rs = build("B2")
    tau = from_word(rs, (1, 2, 1))
    assert euler_char(rs, tau, borel_character(rs)).is_zero
    rep = run_check(rs, "remarkB2")
    assert rep.passed
    assert rep.details["euler"] == "0"
    assert rep.details["h0_candidate"] == "1*e[-1, 0]"
    with pytest.raises(ValueError):
        run_check(build("B3"), "remarkB2")


def test_bruhat_monotonicity_scan():
    # informational scan; on A2/A3 no cover decreases the tangent dimension
    assert bruhat_monotonicity_findings(build("A2")) == []
    assert bruhat_monotonicity_findings(build("A3")) == []
