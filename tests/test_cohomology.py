"""Euler characteristics, H^0 characters, and the theorem verifiers."""

import json
import re
import time
import weakref
from operator import mul

import pytest

from schubert import (
    Character,
    GuardExceeded,
    WeylElement,
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
    ss_nonempty,
)
from schubert import cohomology, weyl
from schubert.charring import char_to_str
from schubert.cli import main
from schubert.cohomology import borel_character, group_walk, lemma61_search
from schubert.report import run_check, run_checks
from schubert.rootsys import GUARD_ENV_VAR, CartanType, RootSystem

from helpers import (LAYER_TYPES, adjoint_weights, assert_thm42_slices,
                     bruhat_monotonicity_findings, columns_char, element_of, gauss_jordan_inverse,
                     kernel_char, matrix_of, matvec, parabolic_order_by_closure, peel_reduced_word,
                     shift_adjoint_target, signed_digits, subword_products, subword_upper_set,
                     tangent_h0_char)


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
    s2 = from_word(rs, (2,))
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
    # alpha's slice of the one report: only w_alpha and w0 sit above
    # w_alpha here
    rs = build("A2")
    full = run_check(rs, "thm42")
    assert full.passed and full.universe_size == 4
    assert full.details["elements_above_w_alpha"] == {"1": 2, "2": 2}
    for a in (1, 2):
        w_alpha = cohomology.min_parabolic_rep(rs, a)
        assert subword_upper_set(rs, w_alpha) == {w_alpha, longest_element(rs)}


@pytest.mark.parametrize("name, total", [("A5", 372), ("D5", 504)])
def test_thm42_one_pass_matches_single_alpha_runs(name, total):
    # the one report over all alphas, sliced at alpha = a, is what a run
    # restricted to a must give: the subword oracle's upper set of w_alpha
    rs = build(name)
    full = run_check(rs, "thm42")
    assert full.passed and full.universe_size == total
    assert_thm42_slices(rs, full.universe_size, full.counterexamples,
                        full.details["elements_above_w_alpha"])


def test_thm42_counterexamples_are_listed_in_alpha_order(monkeypatch):
    # a wrong adjoint target makes every coset element a counterexample;
    # the one report must list them alpha by alpha, each alpha's rows in
    # enumeration order and covering exactly its coset
    rs = build("A4")
    shift_adjoint_target(monkeypatch, rs, 1)
    full = run_check(rs, "thm42")
    assert len(full.counterexamples) == full.universe_size
    alphas = [row["alpha"] for row in full.counterexamples]
    assert alphas == sorted(alphas)
    elements = list(enumerate_group(rs))
    for a in range(1, rs.rank + 1):
        above = subword_upper_set(rs, cohomology.min_parabolic_rep(rs, a))
        assert [row["tau_word"] for row in full.counterexamples if row["alpha"] == a] == [
            list(tau.reduced_word()) for tau in elements if tau in above]
    for row in full.counterexamples:
        tau = from_word(rs, row["tau_word"])
        assert from_word(rs, row["tau_inv_word"]) == tau.inverse()
        assert tuple(row["tau_inv_word"]) == tau.inverse().reduced_word()


@pytest.mark.parametrize("name", ["A3", "A4", "D4"])
def test_shared_pass_matches_separate_verifiers(name):
    # the runner asked for thmA and thm42 gives what each verifier gives
    # alone, in either order, in CHECKS order (the CLI sweep is compared
    # with separate verify runs in test_cli.py)
    rs = build(name)
    separate = [cohomology.verify_thmA(rs), cohomology.verify_thm42(rs)]
    for ids in (["thmA", "thm42"], ["thm42", "thmA"]):
        assert [(rep.universe_size, rep.counterexamples, rep.details)
                for rep in run_checks(rs, ids)] == separate
    rep = run_check(rs, "thmA")
    assert separate[0] == (rep.universe_size, rep.counterexamples, rep.details)


def test_thmA_kernel_row_only_on_a_counterexample(monkeypatch):
    # a target one e^0 too large makes thmA fail exactly where the
    # criterion holds; the kernel row is adjoint - tangent, which is e^0
    # more than the true kernel, and every other element is clean
    rs = build("A3")
    shift_adjoint_target(monkeypatch, rs, 1)
    universe, rows, details = cohomology.verify_thmA(rs)
    assert universe == 24 and len(rows) == details["ss_count"] > 0
    assert details["full_tangent_count"] == 0
    for row in rows:
        tau = from_word(rs, row["tau_word"])
        assert row["ss_nonempty"] and not row["tangent_equals_adjoint"]
        assert row["kernel"] == char_to_str(rs, kernel_char(rs, tau) + e(rs.zero()))


def test_thmA_refuses_a_tangent_above_the_adjoint(monkeypatch):
    rs = build("A2")
    shift_adjoint_target(monkeypatch, rs, -1)
    with pytest.raises(AssertionError, match="tangent exceeds adjoint"):
        cohomology.verify_thmA(rs)


def test_each_check_alone_does_only_its_own_work(monkeypatch, capsys):
    # verify thmA builds no coset; verify thm42 sums no tangent and reads
    # no criterion
    def refuse(*args, **kwargs):
        raise AssertionError("work of the other check")

    argv = ["verify", "thmA", "--type", "D4", "--format", "json"]
    with monkeypatch.context() as m:
        m.setattr(cohomology, "min_parabolic_rep", refuse)
        m.setattr(weyl, "longest_element", refuse)  # no module but weyl holds it
        m.setattr(cohomology.WeylElement, "inverted", refuse)
        assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["universe"] == 192
    argv[1] = "thm42"
    with monkeypatch.context() as m:
        m.setattr(cohomology, "ss_nonempty", refuse)
        m.setattr(cohomology, "gt", refuse)
        assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["universe"] > 0


@pytest.mark.parametrize("argv", [
    ("sweep", "--type", "A3"),
    ("sweep", "--type", "B3"),  # thmB has its own pass
    ("verify", "thmA", "--type", "A3"),
    ("verify", "thm42", "--type", "A3"),
])
def test_one_enumeration_per_sweep(monkeypatch, capsys, argv):
    # a sweep walks all of W once (thmA, or thmB), and thm42 walks one coset
    # W_P* w_alpha per simple root, from w_alpha: each a walk of weyl, so no
    # other enumeration of W runs
    calls, walks = [], []
    real, real_walk = cohomology.group_walk, weyl.walk

    def counted(*args, **kwargs):
        calls.append(args[0].ct)
        return real(*args, **kwargs)

    def counted_walk(rs, seed, step, guard=None, start=(), letters=None):
        walks.append(tuple(start))
        return real_walk(rs, seed, step, guard, start, letters)

    monkeypatch.setattr(cohomology, "group_walk", counted)
    monkeypatch.setattr(cohomology, "walk", counted_walk)
    monkeypatch.setattr(weyl, "walk", counted_walk)
    assert main(list(argv)) == 0
    capsys.readouterr()
    rs = build(argv[-1])
    full = 0 if argv[1] == "thm42" else 1
    cosets = rs.rank if "thmA" not in argv and rs.simply_laced else 0
    assert len(calls) == len(walks) == full + cosets
    assert walks == [()] * full + [weyl.min_parabolic_rep(rs, a).reduced_word()
                                   for a in range(1, cosets + 1)]


@pytest.mark.parametrize("name", LAYER_TYPES)
def test_demazure_layers_match_word_by_word(name):
    # the walk against the matrix oracle (Demazure composed along each
    # canonical word), element by element over the walk's own |W|
    # distinct heights, each an element (its oracle matrix has them), so
    # all of W: sigma's word (peeled from a Gauss-Jordan inverse of tau's
    # oracle matrix), its x = D ht sigma(alpha_k) and the criterion read
    # off x, tau's heights (the left step H(s_k tau) = H(tau) - D row_k;
    # the walk is keyed by them), every positive root's line in its digit
    # of the packed columns, and the top digit their sum; the walk of the
    # plain summed seed is that sum too.  Lines go negative in two root
    # lengths, so there the digits are read signed and not certified
    rs = build(name)
    roots = rs.positive_roots
    seed, _, sign = cohomology._line_seed(rs, [True] * len(roots))
    swept = {h: (x, word, cols) for x, word, h, cols
             in group_walk(rs, seed, sign=sign if rs.simply_laced else 0)}
    summed = {h: cols for _, _, h, cols
              in group_walk(rs, [0, *(int(root.positive) for root in rs.roots)])}
    assert len(swept) == len(summed) == rs.ct.weyl_order
    for h, (x, word, cols) in swept.items():
        tau = WeylElement(rs, h)
        mat = matrix_of(tau)
        assert element_of(rs, mat) == tau
        sigma = gauss_jordan_inverse(mat)
        assert word == peel_reduced_word(rs, sigma)
        assert x == [rs.scaled_height(matvec(sigma, a.weight.fw)) for a in rs.simple_roots]
        # the sweeps' criterion: D ht sigma(alpha_0) < 0
        assert (sum(map(mul, rs.highest_root.coords, x)) < 0) == ss_nonempty(
            rs, element_of(rs, sigma))
        *lines, tangent = signed_digits(cols, len(roots) + 1)
        for beta, line in zip(roots, lines):
            assert columns_char(rs, line) == demazure_along_word(
                rs, tau.reduced_word(), e(beta.weight))
        assert tangent == summed[tau.heights] == [sum(col) for col in zip(*lines)]


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "G2", "D4", "D5", "F4"])
def test_walk_visits_each_element_once_in_bounded_memory(monkeypatch, name):
    # |W| visits, each to a different element, and at no step more column
    # lists alive than the N + 1 nodes of a path, N = |R+| the depth of
    # the walk (well inside N n, one pending child per letter and level)
    rs = build(name)
    alive, peak = weakref.WeakSet(), []
    real = cohomology._column_step

    class Columns(list):
        __hash__ = object.__hash__  # a WeakSet member by identity

    def tracked(*args):
        out = Columns(real(*args))
        alive.add(out)
        peak.append(len(alive))
        return out

    monkeypatch.setattr(cohomology, "_column_step", tracked)
    seed = [int(w == rs.highest_root.weight) for w in adjoint_weights(rs)]
    heights = [h for _, _, h, _ in group_walk(rs, seed)]
    assert len(heights) == len(set(heights)) == rs.ct.weyl_order
    assert max(peak, default=0) <= len(rs.positive_roots) + 1


@pytest.mark.parametrize("name", LAYER_TYPES)
def test_criterion_and_inversions_read_off_tau(name):
    # the criterion on tau^-1 (which the sweeps read off the walk's x) is
    # <tau(rho), alpha_0^vee> < 0, with one or two root lengths, as rho
    # pairs positively with exactly the positive coroots.  tau's
    # inversions are the roots beta with tau(beta) negative
    rs = build(name)
    for tau in enumerate_group(rs):
        pairing = rs.pairing_root(tau.apply(rs.rho), rs.highest_root)
        assert ss_nonempty(rs, tau.inverse()) == (pairing < 0)
        assert tau.inverted() == [not tau.apply_root(b).positive for b in rs.positive_roots]


def _rendered_weights(rows):
    """Every e[...] coordinate list in the string fields of rows."""
    return [[int(x) for x in body.split(",")]
            for row in rows for value in row.values() if isinstance(value, str)
            for body in re.findall(r"e\[([^\]]*)\]", value)]


def _corrupt_tables(monkeypatch, rs, bad, letters=None):
    """Make every computed column of D_i, i in letters (default all),
    subtract twice the columns e^beta_r, r in bad: at the first such step
    from e those lines go negative."""
    keys, tables, target = cohomology._adjoint_tables(rs)
    extra = tuple((1 + r, -2) for r in bad)  # column 1 + r is the positive root r
    corrupt = tuple(
        (gather, tuple((b, row + extra) for b, row in computed))
        if letters is None or i in letters else (gather, computed)
        for i, (gather, computed) in enumerate(tables, 1))
    monkeypatch.setattr(cohomology, "_adjoint_tables", lambda rs: (keys, corrupt, target))


@pytest.mark.parametrize("bad", [(3,), (5, 2)])
def test_a_negative_line_fails_certification_naming_its_root(monkeypatch, bad):
    # corrupted column tables put negative multiplicities into the lines of
    # the roots in bad; the sweep must refuse, naming the first of them
    rs = build("A3")
    roots = rs.positive_roots
    _corrupt_tables(monkeypatch, rs, bad)
    first = roots[min(bad)].weight
    for sweep in (cohomology.verify_thmA, cohomology.verify_thm42,
                  lambda rs: run_checks(rs, ["thmA", "thm42"])):
        with pytest.raises(AssertionError, match=re.escape(
                f"negative multiplicity in certified h0 for {first}")):
            sweep(rs)


def test_thm42_rows_under_a_wrong_adjoint_match_the_word_oracle(monkeypatch):
    # with the target one e^0 too large, every coset element fails the
    # inversion sum; its difference is the wrong target minus the sum of
    # the word-by-word h0 lines over tau's inversion set
    rs = build("A4")
    wrong = shift_adjoint_target(monkeypatch, rs, 1)
    universe, rows, _ = cohomology.verify_thm42(rs)
    assert len(rows) == universe > 0
    for row in rows:
        assert row["clause"] == "inversion-sum"
        tau = from_word(rs, row["tau_word"])
        total = Character()
        for beta in tau.inversion_set():
            total.add(demazure_along_word(rs, tau.reduced_word(), e(beta.weight)))
        assert row["difference"] == char_to_str(rs, wrong - total)
    thmA_rows = cohomology.verify_thmA(rs)[1]
    assert thmA_rows
    assert all(len(fw) == rs.rank for fw in _rendered_weights(rows + thmA_rows))


def test_thm42_outside_rows_render_each_root_line(monkeypatch):
    # with no root counted as inverted (packed root coordinates all zero, so
    # every D ht tau(beta) reads 0, not negative), every root with a nonzero
    # line is an outside-vanishing row; its h0 is the word-by-word line,
    # rendered from its digit of the packed columns
    rs = build("A3")
    monkeypatch.setattr(cohomology, "_root_packs", lambda rs: [0] * rs.rank)
    _, rows, _ = cohomology.verify_thm42(rs)
    rows = [row for row in rows if row["alpha"] == 2]
    assert rows
    for tau in {tuple(row["tau_word"]) for row in rows}:
        lines = [(beta, demazure_along_word(rs, tau, e(beta.weight)))
                 for beta in rs.positive_roots]
        want = [(list(beta.coords), char_to_str(rs, line))
                for beta, line in lines if not line.is_zero]
        assert want == [(row["beta"], row["h0"]) for row in rows
                        if tuple(row["tau_word"]) == tau
                        and row["clause"] == "outside-vanishing"]
    assert all(len(fw) == rs.rank for fw in _rendered_weights(rows))


def test_thm42_alone_certifies_every_element(monkeypatch):
    # thm42 reads lines only on its cosets, but every step is certified,
    # those of the climb from e to w_alpha included, and the step that
    # computes a negative line refuses it at once: here D_1's step to s_1,
    # the first step of the climb to w_1 = s3 s2 s1, which lies in no coset
    rs = build("A3")
    assert min(cohomology.min_parabolic_rep(rs, a).length for a in range(1, rs.rank + 1)) > 1
    assert cohomology.min_parabolic_rep(rs, 1).reduced_word() == (3, 2, 1)
    _corrupt_tables(monkeypatch, rs, (3,), letters={1})
    seen, steps = [], []
    real_walk, real_step = cohomology.group_walk, cohomology._column_step
    monkeypatch.setattr(cohomology, "group_walk",
                        lambda *args: (seen.append(node[1]) or node for node in real_walk(*args)))
    monkeypatch.setattr(cohomology, "_column_step",
                        lambda rs, i, *args: steps.append(i) or real_step(rs, i, *args))
    with pytest.raises(AssertionError, match=re.escape(
            f"negative multiplicity in certified h0 for {rs.positive_roots[3].weight}")):
        cohomology.verify_thm42(rs)
    # the walk yielded nothing, and its first step, D_1 to s_1, refused
    assert seen + [tuple(steps)] == [(1,)]


def test_a_table_leaving_the_adjoint_weights_is_an_engine_failure(capsys, monkeypatch):
    # the tables are built once per root system; a Demazure term outside
    # R u {0} there exits 3, never a wrong column
    rs = RootSystem(CartanType.parse("A2"))  # its own tables, built in this test
    real = cohomology.demazure_op
    monkeypatch.setattr(cohomology, "demazure_op",
                        lambda rs, i, f: real(rs, i, f) + e(rs.rho + rs.rho))
    monkeypatch.setattr("schubert.cli.build", lambda _: rs)
    assert main(["verify", "thmA", "--type", "A2"]) == 3
    assert "leaves the adjoint weights" in capsys.readouterr().err


@pytest.mark.parametrize("name, sweep", [
    ("D5", lambda rs: cohomology.verify_thmA(rs)),
    ("F4", cohomology.verify_thmB_criterion),
])
def test_a_sweep_runs_demazure_op_only_to_build_its_tables(monkeypatch, name, sweep):
    # one demazure_op per adjoint weight and simple root builds the
    # tables; then every element but e costs exactly one column step
    # (thm42, which walks cosets, is counted in the test below)
    rs = RootSystem(CartanType.parse(name))  # its own tables, built in this test
    ops, steps = [], []
    real_op, real_step = cohomology.demazure_op, cohomology._column_step
    monkeypatch.setattr(cohomology, "demazure_op", lambda *args: ops.append(1) or real_op(*args))
    monkeypatch.setattr(cohomology, "_column_step",
                        lambda *args: steps.append(1) or real_step(*args))
    sweep(rs)
    assert len(ops) == (len(rs.roots) + 1) * rs.rank
    assert len(steps) == rs.ct.weyl_order - 1


def test_thm42_steps_only_to_and_across_its_cosets(monkeypatch):
    # per alpha, l(w_alpha) column steps climb from e to w_alpha, and then
    # every other element of the coset W_P* w_alpha costs one: on D5 that
    # is Sum_alpha (l(w_alpha) + |W_P| - 1) = 555 steps, against the
    # 1919 of a walk of all of W; |W_P| comes from the closure oracle
    rs = RootSystem(CartanType.parse("D5"))  # its own tables, built in this test
    ops, steps = [], []
    real_op, real_step = cohomology.demazure_op, cohomology._column_step
    monkeypatch.setattr(cohomology, "demazure_op", lambda *args: ops.append(1) or real_op(*args))
    monkeypatch.setattr(cohomology, "_column_step",
                        lambda *args: steps.append(1) or real_step(*args))
    universe, _, _ = cohomology.verify_thm42(rs)
    assert len(ops) == (len(rs.roots) + 1) * rs.rank
    letters = list(range(1, rs.rank + 1))
    want = sum(cohomology.min_parabolic_rep(rs, a).length - 1
               + parabolic_order_by_closure(rs, [k for k in letters if k != a])
               for a in letters)
    assert len(steps) == want == 555
    assert universe == sum(parabolic_order_by_closure(rs, [k for k in letters if k != a])
                           for a in letters)


def test_a_descent_one_step_short_fails_thm42(monkeypatch, capsys):
    # the word's first letter is the descent's last step; without it
    # w_alpha is one inversion short, which its post-condition names
    real = weyl._to_antidominant
    monkeypatch.setattr(weyl, "_to_antidominant", lambda rs, fw: real(rs, fw)[1:])
    assert main(["verify", "thm42", "--type", "A3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "thm42: w_alpha inversion set mismatch for alpha_1" in captured.err


def test_thm42_is_priced_at_its_cosets(monkeypatch):
    # E7's cosets hold Sum_alpha |W_P| = 86,208 elements, under the default
    # guard that |W| = 2,903,040 exceeds; E8's E7 coset alone exceeds it,
    # and that is known before any walk starts
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    universe, rows, _ = cohomology.verify_thm42(build("E7"))
    assert (universe, rows) == (86208, [])

    def refuse(*args, **kwargs):
        raise AssertionError("a walk started")

    monkeypatch.setattr(cohomology, "group_walk", refuse)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match="2903040 exceeds guard 1000000"):
        cohomology.verify_thm42(build("E8"))
    assert time.perf_counter() - start < 5.0
    # every D5 coset fits under 200 (the largest, W(D4), has 192), their sum does not
    with pytest.raises(GuardExceeded, match="hold 504 elements, above guard 200$"):
        cohomology.verify_thm42(build("D5"), 200)


@pytest.mark.parametrize("name", ["B3", "C4", "F4", "G2"])
def test_thmB_peels_each_element_once(monkeypatch, name):
    # every row's word comes from one table, |W| - 1 peels in all and no
    # reduced_word, and the sorted rows are in enumeration order
    rs = build(name)
    real, peels = weyl._peel, []
    with monkeypatch.context() as m:
        m.setattr(weyl, "_peel", lambda *args: peels.append(1) or real(*args))
        m.setattr(WeylElement, "reduced_word", lambda w: pytest.fail("peeled again"))
        universe, _, details = cohomology.verify_thmB_criterion(rs)
    assert len(peels) == universe - 1 == rs.ct.weyl_order - 1
    assert [tuple(row["tau_word"]) for row in details["rows"]] == [
        w.reduced_word() for w in enumerate_group(rs)]


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


@pytest.mark.parametrize("clause", ["negative-multiplicity", "adjoint-not-contained"])
def test_thmB_fails_on_a_broken_element_naming_its_word(monkeypatch, capsys, clause):
    # thmB asserts E(tau) >= 0 everywhere and char g <= E(tau) where the
    # criterion holds.  A column step that breaks one leaf of the walk (no
    # element steps from it), at the e^0 column, fails exactly that
    # element: -1 on a leaf without the criterion, rank - 1 on w0 (which
    # has it, and E(w0) >= char g has rank at e^0)
    rs = build("B3")
    nodes = [(word, h, sum(map(mul, rs.highest_root.coords, x)) < 0)
             for x, word, h, _ in group_walk(rs, [0] * (len(rs.roots) + 1))]
    words = {word for word, _, _ in nodes}
    w0 = longest_element(rs).heights
    index = next(i for i, (word, h, ss) in enumerate(nodes)
                 if not any(word + (k,) in words for k in range(1, rs.rank + 1))
                 and (h == w0 if clause == "adjoint-not-contained" else not ss))
    real, steps, broken = cohomology._column_step, [], []

    def step(*args):
        out = real(*args)
        steps.append(1)
        if len(steps) == index:  # step j yields the walk's element j
            out = [-1 if clause == "negative-multiplicity" else rs.rank - 1, *out[1:]]
            broken.append(out)
        return out

    monkeypatch.setattr(cohomology, "_column_step", step)
    assert main(["verify", "thmB", "--type", "B3", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["counterexamples"]
    word, h, _ = nodes[index]
    assert rows == [{"tau_word": list(WeylElement(rs, h).reduced_word()),
                     "tau_inv_word": list(word), "clause": clause,
                     "euler": char_to_str(rs, columns_char(rs, broken[0]))}]


@pytest.mark.parametrize("name", ["B3", "C3", "G2"])
def test_thmB_rows_match_the_per_root_euler_oracle(name):
    # the walk finds E(tau) from one seed, sum_beta e^beta, on its columns;
    # the oracle sums euler_char root by root on each tau of [e, w0], found
    # by the subword scan, and reads every row field off tau itself
    rs = build(name)
    rows = cohomology.verify_thmB_criterion(rs)[2]["rows"]
    group = [element_of(rs, mat)
             for mat in subword_products(rs, matrix_of(longest_element(rs)))]
    group.sort(key=lambda tau: (tau.length, tau.reduced_word()))
    assert len(set(group)) == rs.ct.weyl_order
    adjoint, expected = adjoint_character(rs), []
    for tau in group:
        euler = sum((euler_char(rs, tau, e(beta.weight)) for beta in rs.positive_roots),
                    Character.zero())
        expected.append({
            "tau_word": list(tau.reduced_word()),
            "tau_inv_word": list(tau.inverse().reduced_word()),
            "euler_equals_adjoint": euler == adjoint,
            "ss_nonempty": ss_nonempty(rs, tau.inverse()),
            "has_negative_multiplicity": not euler.is_effective(),
        })
    assert rows == expected


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
