"""CLI surface: parsing, rendering, exit codes, JSON schema."""

import functools
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import schubert
from schubert.cli import _weyl_dimension, build_parser, main
from schubert.report import CHECKS, GUARD_ENV_VAR, pool_size, run_check, run_checks, write_json
from schubert.rootsys import BUILD_ROOT_BOUND, CartanType, RootSystem, build
from schubert.weyl import walk

from helpers import (E6_W0_WORD, adjoint_weights, assert_thm42_slices, dominant_representative,
                     peel_reduced_word, shift_adjoint_target, weyl_dim, word_matrix)

ANCHOR = "1*e[1, -2] + 1*e[0, 0] + 1*e[-1, 2] + 1*e[2, -1] + 1*e[1, 1]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(schubert.__file__).resolve().parents[1])
MASK_ELAPSED = functools.partial(re.sub, rb'"elapsed_ms": \d+', b'"elapsed_ms": 0')


def cli_process(*argv):
    """One CLI process, run as the console script runs it: (code, stdout, stderr)."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from schubert.cli import main; sys.exit(main())",
         *argv], capture_output=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_roots_table(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A2")
    assert code == 0
    assert "roots: 6 (3 positive)" in out
    assert "alpha_1" in out and "rho" in out


def test_roots_long_short_labels(capsys):
    code, out, _ = run(capsys, "roots", "--type", "G2")
    assert code == 0
    assert "long" in out and "short" in out
    code, out, _ = run(capsys, "roots", "--type", "A3")
    assert "long" not in out


def test_roots_invalid_type(capsys):
    code, _, err = run(capsys, "roots", "--type", "H3")
    assert code == 2
    assert "H3" in err
    # str.isdigit takes both; int refuses the first and reads the second as 3
    for text in ("A²", "A٣"):
        code, out, err = run(capsys, "roots", "--type", text)
        assert (code, out, err) == (2, "", f"error: cannot parse Cartan type from {text!r}\n")


def test_roots_json_round_trip(capsys):
    code, out, _ = run(capsys, "roots", "--type", "B2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out
    assert doc["root_count"] == 8
    assert doc["labeling"]["convention"] == "Bourbaki"
    assert doc["highest_root"]["root"] == [1, 2]


def test_demazure_anchor(capsys):
    code, out, _ = run(capsys, "demazure", "--type", "A2",
                       "--word", "2,1", "--weight-root", "1,1")
    assert code == 0
    assert out.strip() == ANCHOR


def test_demazure_empty_word_echoes(capsys):
    code, out, _ = run(capsys, "demazure", "--type", "A2",
                       "--word", "", "--weight-fund", "1,1")
    assert code == 0
    assert out.strip() == "1*e[1, 1]"


@pytest.mark.parametrize("flag", ["--weight-fund", "--weight-fund=-1,0"])
def test_demazure_negative_weight_vanishes(capsys, flag):
    # both the space form and the = form must parse
    argv = ["demazure", "--type", "A2", "--word", "1"]
    argv += [flag] if "=" in flag else [flag, "-1,0"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == "0"


def test_demazure_json(capsys):
    code, out, _ = run(capsys, "demazure", "--type", "A2", "--format", "json",
                       "--word", "2,1", "--weight-root", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["term_count"] == 5
    assert doc["word"] == [2, 1]
    assert {"fw": [0, 0], "mult": 1} in doc["terms"]


def test_demazure_weight_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demazure", "--type", "A2", "--word", "1",
              "--weight-fund", "1,0", "--weight-root", "1,0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["demazure", "--type", "A2", "--word", "1"])


def test_demazure_bad_inputs(capsys):
    code, _, err = run(capsys, "demazure", "--type", "A2",
                       "--word", "3", "--weight-fund", "1,0")
    assert code == 2 and "outside" in err
    code, _, err = run(capsys, "demazure", "--type", "A2",
                       "--word", "1", "--weight-fund", "1,0,0")
    assert code == 2 and "expected 2" in err
    code, _, err = run(capsys, "demazure", "--type", "A2",
                       "--word", "x", "--weight-fund", "1,0")
    assert code == 2


def test_demazure_refuses_a_weight_past_the_packing_bound(capsys):
    # a string of 10^9 steps used to start here
    start = time.perf_counter()
    code, out, err = run(capsys, "demazure", "--type", "A2", "--word", "1",
                         "--weight-fund", "1000000000,0")
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error: weight [1000000000, 0] is out of range")


def test_demazure_refuses_a_weight_past_the_guard(capsys, monkeypatch):
    # inside the packing bound, but a string of 4 * 10^8 steps
    monkeypatch.delenv("SCHUBERT_GUARD", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "demazure", "--type", "A2", "--word", "1",
                         "--weight-fund", "400000000,0")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: weight [400000000, 0]: dim V(lambda+) = ")
    assert "exceeds guard 1000000" in err


def test_demazure_guard_bounds_the_dominant_conjugate(capsys, monkeypatch):
    # [-2, 0] is conjugate to 2 omega_2, and dim V(2 omega_2) = 6 in A2
    argv = ("demazure", "--type", "A2", "--word", "1,2", "--weight-fund", "-2,0")
    monkeypatch.setenv("SCHUBERT_GUARD", "5")
    code, out, err = run(capsys, *argv)
    assert code == 2 and "dim V(lambda+) = 6 exceeds guard 5" in err
    monkeypatch.setenv("SCHUBERT_GUARD", "6")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize("name", ["A4", "B3", "C4", "D5", "E6", "F4", "G2"])
def test_weyl_dimension_matches_the_fraction_oracle(name):
    rs = build(name)
    for lam in [rs.zero(), rs.rho, *(f for f in rs.fundamental_weights),
                *(-2 * r.weight for r in rs.positive_roots[:6])]:
        assert _weyl_dimension(rs, lam) == weyl_dim(rs, dominant_representative(rs, lam))


def test_verify_pass_and_table(capsys):
    code, out, _ = run(capsys, "verify", "thmA", "--type", "A2")
    assert code == 0
    assert "thmA" in out and "passed" in out


def test_verify_applicability_gate(capsys):
    code, _, err = run(capsys, "verify", "thmA", "--type", "B2")
    assert code == 2
    assert "simply-laced" in err
    code, _, err = run(capsys, "verify", "lemma61", "--type", "A2")
    assert code == 2
    code, _, err = run(capsys, "verify", "remarkB2", "--type", "B3")
    assert code == 2


def test_verify_unknown_check_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope", "--type", "A2"])
    assert exc.value.code == 2


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "lemma26", "--type", "A3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert {"check", "type", "universe", "passed", "counterexamples",
            "elapsed_ms", "engine_version", "labeling"} <= set(doc)
    assert doc["check"] == "lemma26" and doc["passed"] is True
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_verify_guard(capsys):
    code, _, err = run(capsys, "verify", "thmA", "--type", "A2", "--guard", "3")
    assert code == 2
    assert "guard" in err


@pytest.mark.parametrize("argv,env", [
    (("verify", "lemma26", "--type", "A3", "--guard", "-5"), None),  # no cost to compare
    (("verify", "thmA", "--type", "A3", "--guard", "-5"), None),
    (("sweep", "--type", "A3", "--guard", "-1"), None),
    (("sweep", "--type", "A3"), "-1"),
    (("demazure", "--type", "A2", "--word", "1", "--weight-fund", "1,0"), "-1"),
])
def test_a_negative_guard_exits_2_before_any_build(capsys, monkeypatch, argv, env):
    monkeypatch.setattr("schubert.cli.build", lambda ct: pytest.fail(f"built {ct}"))
    if env is None:
        monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
        source, value = "--guard", argv[-1]
    else:
        monkeypatch.setenv(GUARD_ENV_VAR, env)
        source, value = GUARD_ENV_VAR, env
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {source} must be a nonnegative integer, got {value}\n"


def test_a_guard_of_0_is_a_guard(capsys, monkeypatch):
    # lemma26 has no universe to price; thmA's 24 elements are above 0
    monkeypatch.setenv(GUARD_ENV_VAR, "0")
    assert run(capsys, "verify", "lemma26", "--type", "A3")[0] == 0
    code, _, err = run(capsys, "verify", "thmA", "--type", "A3")
    assert code == 2 and "above the guard 0" in err
    monkeypatch.delenv(GUARD_ENV_VAR)
    code, _, err = run(capsys, "verify", "thmA", "--type", "A3", "--guard", "0")
    assert code == 2 and "above the guard 0" in err


def test_verify_has_no_alpha_option(capsys):
    # thm42's one report covers every alpha; its rows carry their alpha
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm42", "--type", "A2", "--alpha", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alpha 1" in capsys.readouterr().err


def test_sweep_a2(capsys):
    code, out, _ = run(capsys, "sweep", "--type", "A2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith(" ")]
    applicable = [c.id for c in CHECKS
                  if c.applies(CartanType.parse("A2")) is None]
    assert len(lines) == len(applicable) == 7
    assert [ln.split()[0] for ln in lines] == applicable


def test_sweep_b2_runs_non_sl_checks(capsys):
    code, out, _ = run(capsys, "sweep", "--type", "B2")
    assert code == 0
    names = [ln.split()[0] for ln in out.splitlines() if ln]
    assert names == ["thmB", "prop51", "lemma61", "remarkB2"]


def test_sweep_guard_blocks_e8(capsys):
    code, _, err = run(capsys, "sweep", "--type", "E8")
    assert code == 2
    assert "696729600" in err


def test_sweep_workers_deterministic(capsys):
    # A2 and A3 are simply laced, so thmA and thm42 share one task
    for name in ("A2", "A3"):
        code1, out1, _ = run(capsys, "sweep", "--type", name, "--format", "json")
        code2, out2, _ = run(capsys, "sweep", "--type", name, "--format", "json",
                             "--workers", "2")
        assert code1 == code2 == 0
        # elapsed differs run to run; everything else must match exactly
        doc1, doc2 = json.loads(out1), json.loads(out2)
        for d in (*doc1, *doc2):
            d["elapsed_ms"] = 0
        assert doc1 == doc2
        assert [d["check"] for d in doc1] == [c.id for c in CHECKS
                                              if c.applies(CartanType.parse(name)) is None]


def masked_reports(capsys, *argv) -> list[dict]:
    code, out, _ = run(capsys, *argv, "--format", "json")
    docs = json.loads(out)
    docs = docs if isinstance(docs, list) else [docs]
    for d in docs:
        d["elapsed_ms"] = 0
    assert code == (0 if all(d["passed"] for d in docs) else 1)
    return docs


def assert_sweep_matches_separate_runs(capsys, name: str, workers: str) -> dict:
    """The sweep's thmA and thm42 are verify thmA and verify thm42, run
    apart, and each alpha's slice of thm42 holds against the subword oracle."""
    swept = {d["check"]: d for d in masked_reports(
        capsys, "sweep", "--type", name, "--workers", workers)}
    [thmA] = masked_reports(capsys, "verify", "thmA", "--type", name)
    [thm42] = masked_reports(capsys, "verify", "thm42", "--type", name)
    assert swept["thmA"] == thmA and swept["thm42"] == thm42
    assert_thm42_slices(build(name), thm42["universe"], thm42["counterexamples"],
                        thm42["details"]["elements_above_w_alpha"])
    return swept


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5"])
def test_sweep_shared_pass_matches_separate_verify_runs(capsys, name):
    swept = assert_sweep_matches_separate_runs(capsys, name, "1")
    assert swept["thmA"]["passed"] and swept["thm42"]["passed"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_shared_pass_fails_like_separate_runs(capsys, monkeypatch, workers):
    # a wrong adjoint target fails both checks; the sweep's rows must be
    # the separate runs' rows, in the same order, with or without a pool
    # (two processes at most: pool_size caps the pool at --workers; the
    # pool forks, so the patch reaches its workers)
    shift_adjoint_target(monkeypatch, build("A4"), 1)
    swept = assert_sweep_matches_separate_runs(capsys, "A4", workers)
    thmA, thm42 = swept["thmA"], swept["thm42"]
    assert not thmA["passed"] and not thm42["passed"]
    assert len(thmA["counterexamples"]) == thmA["details"]["ss_count"]
    assert len(thm42["counterexamples"]) == thm42["universe"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_engine_failure_exits_3_not_1(capsys, monkeypatch, workers):
    # an internal consistency failure is neither a counterexample (1) nor
    # bad input (2); under --workers it comes back from the pool (which
    # forks, so the patch reaches its workers) and exits the same way; the
    # message names the check and the element, tau and tau^-1 by their
    # canonical words
    shift_adjoint_target(monkeypatch, build("A2"), -1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "sweep", "--type", "A2", "--workers", workers)
    assert (code, out) == (3, "")
    assert err == ("error: engine failure: thmA: tangent exceeds adjoint, "
                   "at tau = W[2,1], tau^-1 = W[1,2]\n")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_refused_line_names_its_check_element_and_root(capsys, monkeypatch, workers):
    # one column step of thmA's walk gets an input whose line r goes
    # negative in the e^0 column it computes: the step refuses naming the
    # root, the walk names the element it steps to (tau and tau^-1 by their
    # canonical words, from the peel oracle), and the runner names the check
    from schubert import cohomology
    from schubert.charring import _DIGIT

    rs = build("A4")
    r, index = 4, 37  # step j yields the walk's element j
    walked = [word for _, word, _, _ in walk(rs, None, lambda k, p: p)][index]
    sigma_word = peel_reduced_word(rs, word_matrix(rs, walked))
    tau_word = peel_reduced_word(rs, word_matrix(rs, reversed(walked)))
    beta = rs.positive_roots[r]
    real, calls = cohomology._column_step, []

    def step(rs, i, cols, sign):
        calls.append(i)
        if len(calls) == index:  # more of line r at -alpha_i than c'_0 can hold
            cols = list(cols)
            cols[adjoint_weights(rs).index(-rs.simple_roots[i - 1].weight)] += 1 << _DIGIT * r + 20
        return real(rs, i, cols, sign)

    monkeypatch.setattr(cohomology, "_column_step", step)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "sweep", "--type", "A4", "--workers", workers)
    assert (code, out) == (3, "")
    words = [",".join(map(str, word)) for word in (tau_word, sigma_word)]
    assert err == (f"error: engine failure: thmA: negative multiplicity in certified h0 for "
                   f"{beta.weight}, the line of {beta}, at tau = W[{words[0]}], "
                   f"tau^-1 = W[{words[1]}]\n")


def test_any_internal_assertion_is_an_engine_failure(capsys, monkeypatch):
    # a group walk that visits one element more or fewer than the |W| it
    # was priced at exits 3, naming the check, the walk's start and letters
    from schubert import weyl

    real = weyl.guarded_order
    for off in (1, -1):
        monkeypatch.setattr(weyl, "guarded_order",
                            lambda rs, guard, letters=None: real(rs, guard, letters) + off)
        code, out, err = run(capsys, "verify", "thmA", "--type", "A3")
        assert (code, out) == (3, "")
        assert err == (f"error: engine failure: thmA: walked 24 elements from start [] over "
                       f"letters [1, 2, 3], expected {24 + off}\n")


def _boom(*args, **kwargs):
    raise AssertionError("boom")


def _broken_helpers():
    """Per check id, (owner, name) of a helper its verifier calls."""
    from schubert import cohomology, coxeter

    return {"thmA": (cohomology, "_column_step"), "thm42": (cohomology, "_column_step"),
            "thmB": (cohomology, "_column_step"), "prop51": (coxeter, "_entry"),
            "lemma26": (RootSystem, "pairing_root"), "lemma54_56": (coxeter, "_entry"),
            "thmC_typeA": (coxeter, "_entry"), "cor52_53_58": (cohomology, "inversion_tangent"),
            "lemma61": (cohomology, "lemma61_search"),
            "remarkB2": (cohomology, "borel_character")}


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.id)
def test_every_check_names_its_engine_failure_once(capsys, monkeypatch, check):
    # whatever fails inside a verifier, the run exits 3 and the message
    # names the check exactly once, however deep the failure was
    ct = next(t for t in ("A3", "B3", "B2") if check.applies(CartanType.parse(t)) is None)
    build(ct)
    monkeypatch.setattr(*_broken_helpers()[check.id], _boom)
    code, out, err = run(capsys, "verify", check.id, "--type", ct)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: engine failure: {check.id}: boom") and err.count(check.id) == 1


def test_a_sweep_under_workers_names_the_failing_check_once(capsys, monkeypatch):
    # thmA and thm42 pass in their workers; prop51's failure comes back
    # from the pool already named, and is not named again
    from schubert import coxeter

    monkeypatch.setattr(coxeter, "_entry", _boom)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "sweep", "--type", "A3", "--workers", "2")
    assert (code, out, err) == (3, "", "error: engine failure: prop51: boom\n")


def test_an_euler_character_past_the_guard_exits_2_named_by_its_check(capsys):
    # D5's largest signed Euler character has 569 terms: one fewer in the
    # guard stops the run there, and at 569 the report is the default one
    code, out, err = run(capsys, "verify", "cor52_53_58", "--type", "D5", "--guard", "568")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: cor52_53_58: chi along \[[\d, ]+\] has 569 terms at letter "
                        r"\d+, above the guard 568\n", err)
    reports = [run(capsys, "verify", "cor52_53_58", "--type", "D5", "--format", "json", *guard)
               for guard in (("--guard", "569"), ())]
    assert reports[0][0] == 0 and len({MASK_ELAPSED(out.encode()) for _, out, _ in reports}) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_a_guard_tripped_at_run_time_is_named_once(monkeypatch, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(schubert.GuardExceeded) as exc:
        run_checks(build("D5"), ["prop51", "cor52_53_58"], 568, workers)
    assert str(exc.value).startswith("cor52_53_58: chi along ")
    assert str(exc.value).count("cor52_53_58") == 1


def test_thmC_typeA_stops_an_euler_character_at_the_guard():
    from schubert.cohomology import verify_thmC_typeA

    with pytest.raises(schubert.GuardExceeded, match=r"^chi along \[[\d, ]+\] has \d+ terms"):
        verify_thmC_typeA(build("A5"), 5)


@pytest.fixture
def inline_pool(monkeypatch) -> list:
    """A stand-in process pool on two CPUs that runs each task in process;
    the list it returns records (pool size, check ids) per task."""
    import concurrent.futures

    submitted = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, rs, ids, guard):
            submitted.append((self.max_workers, list(ids)))
            done = concurrent.futures.Future()
            done.set_result(fn(rs, ids, guard))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return submitted


def test_pool_gets_one_task_per_check(capsys, inline_pool):
    # thmA and thm42 each walk on their own, so each is a task of its own
    code, out, _ = run(capsys, "sweep", "--type", "A3", "--workers", "2")
    assert code == 0
    assert inline_pool == [(2, ["thmA"]), (2, ["thm42"]), (2, ["prop51"]), (2, ["lemma26"]),
                           (2, ["lemma54_56"]), (2, ["thmC_typeA"]), (2, ["cor52_53_58"])]
    assert [ln.split()[0] for ln in out.splitlines()] == [
        "thmA", "thm42", "prop51", "lemma26", "lemma54_56", "thmC_typeA", "cor52_53_58"]


def test_run_checks_pools_checks_like_one_process(inline_pool):
    # the library runner owns the pool: the same reports, in CHECKS order,
    # from one task per check as from one process
    rs = build("D4")
    ids = ["lemma26", "thm42", "thmA"]
    pooled = run_checks(rs, ids, workers=2)
    assert inline_pool == [(2, ["thmA"]), (2, ["thm42"]), (2, ["lemma26"])]
    alone = run_checks(rs, ids)
    assert [(r.check_id, r.universe_size, r.counterexamples, r.details) for r in pooled] == [
        (r.check_id, r.universe_size, r.counterexamples, r.details) for r in alone]
    assert [r.check_id for r in alone] == ["thmA", "thm42", "lemma26"]


def test_cli_import_leaves_the_process_pool_out():
    # the pool is imported only when a sweep runs with --workers above 1
    src = str(Path(schubert.__file__).resolve().parents[1])
    probe = ("import sys, schubert.cli; print(sorted(m for m in sys.modules "
             "if m.startswith(('concurrent', 'multiprocessing'))))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_demazure_imports_only_what_it_runs():
    # cli, rootsys, charring and report serve roots and demazure; the Weyl
    # group, the verifiers, dataclasses and fractions load only on demand
    src = str(Path(schubert.__file__).resolve().parents[1])
    probe = (
        "import sys, io, contextlib, schubert.cli\n"
        "heavy = ('schubert.cohomology', 'schubert.coxeter', 'schubert.weyl',"
        " 'dataclasses', 'fractions')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = schubert.cli.main(['demazure', '--type', 'E6', '--word', '1,3,4,2',"
        " '--weight-fund', '1,0,0,0,0,1', '--format', 'json'])\n"
        "    code += schubert.cli.main(['roots', '--type', 'G2'])\n"
        "print(code, sorted(m for m in heavy if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]", "0 []"]


@pytest.mark.parametrize("check", ["prop51", "lemma54_56"])
def test_coxeter_checks_import_no_euler_modules(check):
    # prop51 and lemma54_56 read Coxeter elements and roots alone, so a
    # process running one loads neither charring nor cohomology
    src = str(Path(schubert.__file__).resolve().parents[1])
    probe = (
        "import sys, io, contextlib, schubert.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = schubert.cli.main(['verify', '{check}', '--type', 'E6'])\n"
        "print(code, sorted(m for m in ('schubert.charring', 'schubert.cohomology')"
        " if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.splitlines() == ["0 []"]


def test_prop51_on_a12_passes_at_the_default_guard(capsys, monkeypatch):
    # 2^11 Coxeter elements against 12! orderings: priced by orientation,
    # prop51 on A12 is under the default guard
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    code, out, err = run(capsys, "verify", "prop51", "--type", "A12")
    assert (code, err) == (0, "")
    assert re.match(r"prop51 +A12 +universe +24576 +passed", out)


@pytest.mark.parametrize("argv", [
    ("demazure", "--type", "A2", "--word", "1", "--weight-fund", "1,0"),
    ("verify", "thmA", "--type", "D5"),
    ("sweep", "--type", "A3", "--workers", "2"),
])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(_):
        raise AssertionError("work started before --out was opened")

    monkeypatch.setattr("schubert.cli.build", no_work)
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: --out") and str(target) in err
    assert not target.exists()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "lemma61", "--type", "B2", "--format", "json",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    doc = json.loads(target.read_text())
    assert doc["details"]["alpha"] == 2


def test_write_json_streams_a_large_report_in_bounded_blocks():
    rows = [{"euler_equals_adjoint": n % 3 == 0, "ss_nonempty": False,
             "tau_word": [1, 2, 3][: 1 + n % 3], "tau": n} for n in range(50_000)]
    doc = {"check": "thmB", "details": {"rows": rows}}
    blocks = []
    write_json(doc, blocks.append)
    text = "".join(blocks)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # an 8 MB document never reaches write as one string
    assert len(blocks) > 50
    assert max(map(len, blocks)) <= 2 ** 17 < len(text) // 50
    # records of one shape, as demazure writes its terms, are filled from
    # one template; their blocks are bounded in characters all the same
    terms = [{"fw": [n % 7 - 3, -n, 0, 2 ** 40, n // 3, 1, -1, n], "mult": n % 5 - 2}
             for n in range(50_000)]
    doc = {"terms": terms, "term_count": len(terms)}
    blocks = []
    write_json(doc, blocks.append)
    text = "".join(blocks)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert len(blocks) > 50
    assert max(map(len, blocks)) <= 2 ** 17 < len(text) // 50


@pytest.mark.parametrize("argv", [
    ("roots", "--type", "A500"),
    ("demazure", "--type", "A500", "--word", "1,2", "--weight-fund", ",".join(["1"] * 500)),
])
def test_a_type_past_the_build_bound_exits_2_before_it_builds(capsys, argv):
    # A500 has 250,500 roots, refused before any closure; the bound
    # admits A140 (19,740 roots, about 1.4 s to build)
    assert CartanType("A", 140).root_count <= BUILD_ROOT_BOUND < CartanType("A", 141).root_count
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: A500 has 250500 roots; a root system with more than 20000 is not built\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "--type", "F4"),
    ("verify", "thmB", "--type", "B3"),
    ("demazure", "--type", "B3", "--word", "1,2,3,2,1", "--weight-fund", "1,0,1"),
])
def test_out_bytes_equal_stdout_bytes(tmp_path, capsys, argv):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--format", "json", "--out", str(target)) == (0, "", "")
    assert MASK_ELAPSED(target.read_bytes()) == MASK_ELAPSED(out.encode())


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "--out"])
def test_refusal_and_engine_failure_write_no_json(tmp_path, capsys, monkeypatch, to_file):
    # every check and refusal ends before the first byte of a document
    target = tmp_path / "report.json"
    out_args = ("--out", str(target)) if to_file else ()
    code, out, err = run(capsys, "verify", "thmB", "--type", "B3", "--guard", "47",
                         "--format", "json", *out_args)
    assert (code, out) == (2, "") and err.startswith("error: thmB on B3 walks")
    assert not to_file or target.read_bytes() == b""
    shift_adjoint_target(monkeypatch, build("A2"), -1)
    code, out, err = run(capsys, "sweep", "--type", "A2", "--format", "json", *out_args)
    assert (code, out) == (3, "") and err.startswith("error: engine failure")
    assert not to_file or target.read_bytes() == b""


@pytest.mark.parametrize("argv", [
    ("demazure", "--type", "B3", "--word", "1,2,3,2,1", "--weight-fund", "1,0,1"),
    ("sweep", "--type", "G2"),
])
def test_a_process_writes_what_main_writes_in_process(tmp_path, capsys, argv):
    # the exit-time heap freeze leaves stdout, --out and the exit code alone
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    code, stdout, stderr = cli_process(*argv, "--format", "json")
    assert (code, stderr) == (0, b"")
    assert MASK_ELAPSED(stdout) == MASK_ELAPSED(out.encode())
    target = tmp_path / "report.json"
    assert cli_process(*argv, "--format", "json", "--out", str(target)) == (0, b"", b"")
    assert MASK_ELAPSED(target.read_bytes()) == MASK_ELAPSED(out.encode())


def test_a_process_refuses_as_main_refuses(capsys):
    argv = ("verify", "thmB", "--type", "B3", "--guard", "47", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: thmB on B3 walks")
    assert cli_process(*argv) == (2, b"", err.encode())


def test_the_heap_is_frozen_once_before_earlier_exit_handlers_run():
    # atexit runs handlers last-registered first, so one registered before
    # main runs after main's gc.freeze, as the interpreter's shutdown does;
    # two calls of main leave one freeze handler
    probe = ("import atexit, gc, io, contextlib\n"
             "freezes, freeze = [], gc.freeze\n"
             "gc.freeze = lambda: freezes.append(freeze())\n"
             "atexit.register(lambda: print(len(freezes), gc.get_freeze_count() > 0))\n"
             "from schubert.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['roots', '--type', 'E6']) + main(['roots', '--type', 'A2'])\n"
             "print(code, gc.get_freeze_count())\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True)
    assert done.stdout.splitlines() == ["0 0", "1 True"]


def test_in_process_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "roots", "--type", "A2")[0] == 0
    assert gc.get_freeze_count() == before


def test_a_check_s_elapsed_leaves_its_module_import_out(monkeypatch):
    # the verifier's module is imported before the check's clock starts
    from schubert import report
    real_import = report.import_module

    def slow_import(name):
        time.sleep(0.2)
        return real_import(name)

    monkeypatch.setattr(report, "import_module", slow_import)
    rep = run_check(build("A1"), "thmA")
    assert rep.passed and rep.elapsed < 0.1


def test_readme_synopsis_lists_every_option():
    # the fenced synopsis under README "## CLI" names, per subcommand,
    # exactly the options the parser defines, so a flag cannot drift
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    documented = {}
    for line in synopsis.splitlines():
        prog, command, rest = line.split(maxsplit=2)
        assert prog == "schubert"
        documented[command] = set(re.findall(r"--[a-z-]+", rest))
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    defined = {name: {opt for action in sp._actions for opt in action.option_strings
                      if opt.startswith("--") and opt != "--help"}
               for name, sp in subparsers.choices.items()}
    assert documented == defined


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_check_applicability_rejects_unknown():
    with pytest.raises(ValueError):
        run_check(build("A2"), "bogus")


@pytest.mark.parametrize("argv,needle", [
    (("verify", "prop51", "--type", "A11", "--guard", "100"), "guard"),
    (("verify", "lemma54_56", "--type", "D9", "--guard", "100"), "guard"),
    (("verify", "thmC_typeA", "--type", "A10", "--guard", "100"), "guard"),
    (("verify", "thm42", "--type", "D5", "--guard", "100"), "guard"),
    (("verify", "thmB", "--type", "F4", "--guard", "100"), "guard"),
    (("sweep", "--type", "A2", "--workers", "0"), "--workers"),
    (("sweep", "--type", "A2", "--workers", "-3"), "--workers"),
    (("verify", "prop51", "--type", "A200", "--guard", "100"), "guard"),
    (("sweep", "--type", "A200", "--guard", "100"), "guard"),
])
def test_bad_input_exits_before_any_work(capsys, argv, needle):
    # each of these would enumerate n! orderings or all of W if let through;
    # A200 would spend minutes building its root system first
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert needle in err


def test_check_costs():
    costs = {c.id: c.cost(CartanType.parse("A4")) for c in CHECKS}
    assert costs == {
        "thmA": 120, "thm42": None, "thmB": 120,
        "prop51": 8, "lemma54_56": 24, "thmC_typeA": 24, "cor52_53_58": 24,
        "lemma26": None, "lemma61": None, "remarkB2": None,
    }


@pytest.mark.parametrize("name", ["A1", "A8", "B2", "B8", "C5", "D4", "D8",
                                  "E6", "E7", "E8", "F4", "G2"])
def test_sweep_guard_is_the_weyl_order(name):
    # sweep refuses a type exactly when |W| exceeds the guard
    ct = CartanType.parse(name)
    costs = [c.cost(ct) or 0 for c in CHECKS if c.applies(ct) is None]
    assert max(costs) == ct.weyl_order


def test_root_system_tables_do_not_grow(capsys, monkeypatch):
    # build() keeps one RootSystem per type for the whole process, so no
    # table on it may grow with the weights a sweep or a render has seen
    rs = RootSystem(CartanType.parse("A3"))
    monkeypatch.setattr("schubert.cli.build", lambda _: rs)

    def sizes():
        return {k: len(v) for k, v in vars(rs).items()
                if isinstance(v, (dict, list, set))}

    before = sizes()
    assert run_check(rs, "thm42").passed
    code, out, _ = run(capsys, "demazure", "--type", "A3",
                       "--word", "1,2,3,1,2,1", "--weight-fund", "1,1,1")
    # V(rho) of A3 has dimension 2^6
    assert code == 0 and sum(map(int, re.findall(r"(-?\d+)\*e\[", out))) == 64
    assert sizes() == before


def test_pool_size():
    assert pool_size(1, 7, 2) == 1
    assert pool_size(8, 7, 2) == 2
    assert pool_size(8, 3, 16) == 3
    assert pool_size(4, 7, None) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            pool_size(bad, 7, 2)
    # the pool counts tasks, one per check: thmA and thm42 walk apart
    for name, checks, tasks in (("A3", 7, 7), ("D4", 6, 6), ("B3", 3, 3), ("A1", 7, 7)):
        ids = [c.id for c in CHECKS if c.applies(CartanType.parse(name)) is None]
        assert len(ids) == checks
        assert pool_size(16, len(ids), 32) == tasks


E6_W0 = ",".join(map(str, E6_W0_WORD))

# sha256 of stdout with elapsed_ms and the table's ms column masked,
# recorded before the check table replaced the per-check registries; the
# E6 Coxeter entries before the table of distinct Coxeter elements; D4
# before thmA and thm42 shared one Demazure pass (they walk apart again,
# thm42 on its cosets alone); D5 cor52_53_58, 51
# distinct powers, before its verifier moved from coxeter to cohomology;
# the demazure entries (E6 omega3 + omega6 along a non-canonical w0 word, a
# non-dominant B3 seed) before dominant seeds skipped the letters that
# fix their weight
GOLDEN = {
    (("sweep", "--type", "B2"), "table"):
        "217836b8ca0cf21e431a6f15320fb059cda0171d32f4b9b1e0f0571f8356e937",
    (("sweep", "--type", "B2"), "json"):
        "3984866452e9a0e4b1b4d966342daa7195fda25ccaf8576566a7561cb8456e31",
    (("sweep", "--type", "G2"), "table"):
        "da201567af4076b876059c4e3f7635d0c154c7f7ec50050f2ba07ff702aa7870",
    (("sweep", "--type", "G2"), "json"):
        "8d2b9b4c52864801761982ea6cb01d97b2fa21f266e2c2e89b02a903c467d097",
    (("sweep", "--type", "A3"), "table"):
        "517ac60b13c0db856b9bf4a8040e5b88a87c0e35357b503087ac389d8b4434e8",
    (("sweep", "--type", "A3"), "json"):
        "d80f437dd8c865baf5be33d50bf4f4d203c8358d6183b49a4445b87b3a504162",
    (("sweep", "--type", "D4"), "table"):
        "26a5779cac897f82e58d9ad6bf097f72e111645e86b829bdfdf69c0007917ff4",
    (("sweep", "--type", "D4"), "json"):
        "1cc9070acb9e14545ce49ef7e3bf4cd5d61f990a155c29804d54e9fe624bd9cb",
    (("sweep", "--type", "B3"), "json"):
        "a91fae9654d0c8f2ac4622c430146f309037389ffcff80d1ab782cc81a3f1742",
    (("sweep", "--type", "C4"), "json"):
        "e97242b7a8a602c878378f6150133cf4211c435112c328a9053bc27332ff9d38",
    (("sweep", "--type", "F4"), "json"):
        "d7803893e6126651275f84bbe3def248f5d35846ac5c054cd992335a4c91d4d9",
    (("verify", "lemma54_56", "--type", "E6"), "json"):
        "fa9cb5bafb0711f4c9686e2f62b0798f343be45baeab2405eacb497c0f225d78",
    (("verify", "prop51", "--type", "E6"), "json"):
        "a5e6a4aeb1c7ed7cf1a63c26b2f607d7a6f08b831d3e66f2de6fc6dff99e864e",
    (("verify", "thmC_typeA", "--type", "A5"), "json"):
        "69596506ffef2931a39a162b788cdbe532cf42bfa97fbb68afd4b2e7957f9054",
    (("verify", "cor52_53_58", "--type", "D5"), "json"):
        "5f0352fb63b468bf8e2fb4d5ab07c511690a3a7b0b95c604a08593e5acb625e7",
    (("demazure", "--type", "E6", "--word", E6_W0, "--weight-fund", "0,0,1,0,0,1"), "json"):
        "672de33cc8173672972288b476c951a3123bb85a2c6b223aaaf0dac4ac55a7cc",
    (("demazure", "--type", "E6", "--word", E6_W0, "--weight-fund", "0,0,1,0,0,1"), "table"):
        "e24268926993122e30b226eb28c9c81fbe2c520b1131792e057c2e2c82cda2a3",
    (("demazure", "--type", "B3", "--word", "3,2,3,1,2,3,1,2,1", "--weight-fund", "-2,1,3"),
     "json"):
        "dd19d089c7296ccd9d2066ed7eada0b5b9857ab1db60f3e5ff091b0c192a5233",
}


# sha256 of a failing sweep's stdout, elapsed_ms masked: under an adjoint
# target one e^0 too high, A4 fails 60 thmA and 72 thm42 rows, whose kernel
# and difference are str values; recorded before rows with str values went
# through the record writer
FAILING_GOLDEN = "9dacefe2d34d5e49a476eb05fd0416fb64fc50391b13b71069d4ac340f50b136"


def test_golden_bytes_of_a_failing_report(capsys, monkeypatch):
    shift_adjoint_target(monkeypatch, build("A4"), 1)
    code, out, _ = run(capsys, "sweep", "--type", "A4", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    rows = {rep["check"]: rep["counterexamples"] for rep in doc}
    assert (len(rows["thmA"]), len(rows["thm42"])) == (60, 72)
    assert all(type(row["kernel"]) is str for row in rows["thmA"])
    assert all(type(row["difference"]) is str for row in rows["thm42"])
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_GOLDEN


@pytest.mark.parametrize("argv,fmt", sorted(GOLDEN),
                         ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_golden_report_bytes(capsys, argv, fmt):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    out = re.sub(r"(?m) +\d+ ms$", " ms", out)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv, fmt]
