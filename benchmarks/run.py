#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the schubert CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its `src/`.
An op is one fresh `schubert` CLI process, timed from spawn to exit, with
its CPU time and peak RSS read from os.wait4.  Ops run one at a time
(a closed loop of one client), single-process, with an explicit --guard
and a per-op timeout.  Every verdict is checked against a known answer:

  * sweep/verify ops: exit 0, `passed: true` in every report, `universe`
    equal to the stated size, and a digest of the timing-free report
    fields equal to the one recorded at the seed commit (digests.json);
  * demazure ops: an oracle that shares no code with the engine
    (rootdata.py): the word is a reduced word of w0, the multiplicities
    sum to the Weyl dimension, the character is W-invariant and e^lambda
    has multiplicity 1.

--trace 0 runs whole passes over the workload's ops until another pass
would overrun --seconds (at least one) and prints the end-to-end metrics,
with every time scaled to a reference host speed (see SpeedSampler).
--trace 1 runs one untraced pass and one pass through trace_entry.py and
prints the per-layer totals of the traced pass.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; a full record with the
metadata and every op's samples goes to .bench_out/results/.

`--record-digests` reruns every sweep/verify op once and rewrites
digests.json; run it only at a commit whose reports are known good.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
TRACE_ENTRY = BENCH_DIR / "trace_entry.py"

sys.path.insert(0, str(BENCH_DIR))
import rootdata  # noqa: E402

# The engine's default guard, passed explicitly so SCHUBERT_GUARD in the
# caller's environment cannot change what an op enumerates.
GUARD = "1000000"
# Untraced wall seconds of each sweep/verify op at the seed commit (2-core
# x86-64, Python 3.11).  A timeout of 10 s + 4x this is generous; traced
# ops get 3x that.  Demazure queries took at most about 1.5 s at the seed
# commit.  The keys also list every op whose digest digests.json records.
SEED_SECONDS = {
    "sweep G2": 0.14, "sweep B3": 0.16, "sweep A3": 0.3, "sweep C4": 1.2,
    "sweep D4": 1.4, "sweep F4": 5.6, "sweep A5": 8.0, "sweep D5": 22.7,
    "verify prop51 A3": 0.1, "verify lemma54_56 A3": 0.1,
    "verify prop51 A6": 0.5, "verify lemma54_56 A6": 5.2,
    "verify prop51 E6": 0.45, "verify lemma54_56 E6": 5.1,
}
DEMAZURE_SEED_SECONDS = 1.5
TRACE_TIMEOUT_FACTOR = 3
SETUP_REPS = 7

# Host-speed calibration.  On a shared host every process speeds up and
# slows down together by tens of percent over minutes, which repetition
# inside one run cannot average away.  An untraced run therefore pins
# itself and its ops to one CPU, and a thread of the harness times a fixed
# ~0.4 ms pure-Python loop every SAMPLE_PERIOD_S while the ops run on that
# CPU (under 1% of it).  Each op's (and set-up process's) wall and CPU
# time is scaled by SAMPLE_REFERENCE_S / mean loop time of the samples
# taken during ops within SPEED_WINDOW_S of it: times are seconds on a
# host where the loop takes SAMPLE_REFERENCE_S.  The loop shares no code
# with the engine, so an engine change moves the scaled times as it moves
# the raw ones.  The unscaled metrics are printed and recorded too.
SAMPLE_PERIOD_S = 0.05
SAMPLE_REFERENCE_S = 0.0004
SPEED_WINDOW_S = 1.0


def _speed_probe():
    d = {}
    for i in range(1500):
        k = (i % 31, i % 29)
        d[k] = d.get(k, 0) + 1


class SpeedSampler:
    """Background thread timing _speed_probe every SAMPLE_PERIOD_S."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start = time.perf_counter()
            _speed_probe()
            self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scaler(self, exits):
        """Return (a function mapping an Exit/Sample record to a copy with
        wall and cpu scaled to the reference host speed, the (time, loop s)
        samples taken while one of `exits` ran); SystemExit when there are
        none."""
        spans = sorted((x.start, x.start + x.wall) for x in exits)
        starts = [a for a, _ in spans]
        inside = []
        for t, d in self.samples:
            k = bisect.bisect_right(starts, t) - 1
            if k >= 0 and t <= spans[k][1]:
                inside.append((t, d))
        if not inside:
            raise SystemExit("error: no host-speed sample fell inside an op")
        times = [t for t, _ in inside]
        overall = statistics.mean(d for _, d in inside)

        def rescale(x):
            lo = bisect.bisect_left(times, x.start - SPEED_WINDOW_S)
            hi = bisect.bisect_right(times, x.start + x.wall + SPEED_WINDOW_S)
            f = SAMPLE_REFERENCE_S / statistics.mean([d for _, d in inside[lo:hi]] or [overall])
            return dataclasses.replace(x, wall=x.wall * f, cpu=x.cpu * f)
        return rescale, inside


# thm42's universe, the elements above each w_alpha summed over alpha, has
# no closed form here; these counts were recorded at the seed commit.
THM42_UNIVERSE = {"A3": 16, "D4": 80, "A5": 372, "D5": 504}

# CLI entry identical to the `schubert` console script.
CLI_ENTRY = "import sys; from schubert.cli import main; sys.exit(main())"


@dataclass
class Op:
    key: str
    argv: tuple[str, ...]
    seed_seconds: float
    query: dict | None = None          # demazure ops: type, word, weight


@dataclass
class Exit:
    start: float                       # perf_counter at spawn
    wall: float
    cpu: float
    rss_mb: float
    code: int | None                   # None: killed at the timeout


@dataclass
class Sample(Exit):
    failure: str | None
    trace: dict | None = None


@dataclass
class Workload:
    name: str
    types: tuple[str, ...]             # root systems the ops build
    make_ops: Callable[[int], list[Op]]


# ---------------------------------------------------------------- ops

def sweep_ops(types):
    return [Op(f"sweep {t}", ("sweep", "--type", t, "--format", "json",
                              "--workers", "1", "--guard", GUARD),
               SEED_SECONDS[f"sweep {t}"]) for t in types]


def verify_ops(pairs):
    # `verify` runs in one process and has no --workers flag
    return [Op(f"verify {c} {t}", ("verify", c, "--type", t, "--format", "json",
                                   "--guard", GUARD),
               SEED_SECONDS[f"verify {c} {t}"]) for c, t in pairs]


def shuffled(ops, seed):
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def demazure_ops(pool, copies, seed):
    """`copies` queries of every (type, weight) in the pool, each with its
    own seeded random reduced word of w0, in seeded order.  The mix of
    weights is fixed, so a seed changes the words and the order but not
    the amount of work.  `demazure` enumerates nothing, so it has no
    --guard."""
    rng = random.Random(seed)
    queries = [(t, lam) for t in sorted(pool) for lam in pool[t]] * copies
    rng.shuffle(queries)
    ops = []
    for n, (t, lam) in enumerate(queries):
        a = rootdata.cartan(t)
        word = rootdata.random_w0_word(a, rng)
        if len(word) != len(rootdata.positive_roots(a)):
            raise AssertionError(f"generated word for {t} is not a reduced word of w0")
        argv = ("demazure", "--type", t, "--word", ",".join(map(str, word)),
                "--weight-fund", ",".join(map(str, lam)), "--format", "json")
        ops.append(Op(f"demazure#{n} {t} {list(lam)}", argv, DEMAZURE_SEED_SECONDS,
                      {"type": t, "word": word, "weight": lam}))
    return ops


def _fund(rank, *nodes):
    """Sum of the fundamental weights at the given 1-based nodes."""
    return tuple(nodes.count(i + 1) for i in range(rank))


# Small dominant weights per type, sized so one query takes about
# 0.1-1.5 s at the seed commit, process start included.  34 weights x 3
# copies gives 102 queries, so at least 10 lie beyond the 90th percentile.
QUERY_POOL = {
    "E7": [_fund(7, 7), _fund(7, 1), _fund(7, 2), _fund(7, 6), _fund(7, 7, 7), _fund(7, 3)],
    "E6": [_fund(6, 1), _fund(6, 2), _fund(6, 3), _fund(6, 1, 6), _fund(6, 1, 2),
           _fund(6, 4), _fund(6, 3, 6)],
    "D6": [_fund(6, 1), _fund(6, 2), _fund(6, 6), _fund(6, 3), _fund(6, 1, 6),
           _fund(6, 4), _fund(6, 2, 6)],
    "A7": [_fund(7, 1), _fund(7, 2), _fund(7, 3), _fund(7, 4), _fund(7, 1, 7),
           _fund(7, 2, 6), _fund(7, 1, 2)],
    "F4": [_fund(4, 4), _fund(4, 1), _fund(4, 3), _fund(4, 2), _fund(4, 1, 4),
           _fund(4, 3, 4), _fund(4, 1, 2)],
}
QUERY_COPIES = 3

WORKLOADS = {w.name: w for w in [
    Workload("sweep-simply-laced", ("D4", "A5", "D5"),
             lambda seed: shuffled(sweep_ops(["D4", "A5", "D5"]), seed)),
    Workload("sweep-two-lengths", ("G2", "B3", "C4", "F4"),
             lambda seed: shuffled(sweep_ops(["G2", "B3", "C4", "F4"]), seed)),
    Workload("coxeter-orbits", ("A6", "E6"),
             lambda seed: shuffled(verify_ops([("prop51", "A6"), ("lemma54_56", "A6"),
                                               ("prop51", "E6"), ("lemma54_56", "E6")]),
                                   seed)),
    Workload("demazure-queries", tuple(sorted(QUERY_POOL)),
             lambda seed: demazure_ops(QUERY_POOL, QUERY_COPIES, seed)),
]}


# ------------------------------------------------------------- running

def _op_env():
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_GUARD"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, stdout_path, timeout) -> Exit:
    """Run argv to exit and measure it from spawn to exit.  The child is
    killed through a pidfd at the timeout, so the signal cannot reach a
    recycled pid."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_op_env())
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
                if not ready:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
        except BaseException:
            if proc.poll() is None:     # interrupted before the child was reaped
                proc.kill()
                proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode if ready else None)


def run_pass(ops, tag, digests, traced=False):
    """Time every op, then check every output; checking after the pass
    keeps the harness's own work out of the timings.  Returns (pass wall
    = sum of op walls, samples)."""
    work = OUT_DIR / "ops" / tag
    work.mkdir(parents=True, exist_ok=True)
    raw = []
    for n, op in enumerate(ops):
        out = work / f"{n}.out"
        if traced:
            argv = [sys.executable, str(TRACE_ENTRY), str(work / f"{n}.trace"), *op.argv]
            timeout = TRACE_TIMEOUT_FACTOR * (10 + 4 * op.seed_seconds)
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *op.argv]
            timeout = 10 + 4 * op.seed_seconds
        raw.append((out, spawn(argv, out, timeout)))
    samples = []
    for n, (op, (out, ex)) in enumerate(zip(ops, raw)):
        failure = check_op(op, out, ex.code, digests)
        trace = None
        if traced and failure is None:
            try:
                trace = json.loads((work / f"{n}.trace").read_text())
            except (OSError, ValueError) as exc:
                failure = f"no trace: {exc}"
        samples.append(Sample(ex.start, ex.wall, ex.cpu, ex.rss_mb, ex.code, failure, trace))
    return sum(s.wall for s in samples), samples


# ------------------------------------------------------------ checking

def report_digest(reports) -> str:
    """sha256 over the report fields that do not depend on timing."""
    keep = ("check", "type", "universe", "passed", "counterexamples", "details", "labeling")
    doc = [{k: r.get(k) for k in keep} for r in reports]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def expected_universe(check, type_str):
    """Stated universe size of one check on one type."""
    a = rootdata.cartan(type_str)
    n = len(a)
    roots = 2 * len(rootdata.positive_roots(a))
    coxeter_elements = 2 ** (n - 1)    # acyclic orientations of a tree
    return {
        "thmA": rootdata.weyl_order(type_str),
        "thmB": rootdata.weyl_order(type_str),
        "thm42": THM42_UNIVERSE.get(type_str),
        "prop51": coxeter_elements * n,
        "lemma26": n * (roots - 2),
        "lemma54_56": factorial(n),
        "thmC_typeA": n,
        "cor52_53_58": coxeter_elements,
        "lemma61": n,
        "remarkB2": 1,
    }[check]


def check_op(op, out_path, code, digests):
    """None when the op's verdict is right, else the reason it is not."""
    if code is None:
        return "timeout"
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(Path(out_path).read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    try:
        if op.query is not None:
            return check_demazure(op.query, doc)
        return check_reports(op, doc, digests)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def check_reports(op, doc, digests):
    reports = doc if isinstance(doc, list) else [doc]
    for rep in reports:
        if rep.get("passed") is not True:
            return f"{rep.get('check')} did not pass"
        want = expected_universe(rep["check"], rep["type"])
        if rep["universe"] != want:
            return f"{rep['check']} universe {rep['universe']} != {want}"
    recorded = digests.get(op.key)
    if recorded is None:
        return "no recorded digest"
    if report_digest(reports) != recorded:
        return "digest mismatch"
    return None


def check_demazure(query, doc):
    a = rootdata.cartan(query["type"])
    lam = query["weight"]
    if (doc.get("type"), tuple(doc.get("word", ())), tuple(doc.get("weight_fw", ()))) != (
            query["type"], query["word"], lam):
        return "query echo mismatch"
    mult = {tuple(t["fw"]): t["mult"] for t in doc["terms"]}
    if len(mult) != doc.get("term_count"):
        return "term_count mismatch"
    if mult.get(lam) != 1:
        return "e^lambda multiplicity is not 1"
    if any(m <= 0 for m in mult.values()):
        return "non-positive multiplicity"
    if sum(mult.values()) != rootdata.weyl_dim(a, lam):
        return "dimension differs from the Weyl dimension formula"
    for mu, m in mult.items():
        for i in range(len(a)):
            if mult.get(rootdata.reflect(a, mu, i)) != m:
                return "character is not W-invariant"
    return None


# ------------------------------------------------------------- metrics

END_TO_END = {  # name -> unit
    "wall_s": "s", "cpu_s": "s", "op_s.p50": "s", "op_s.p90": "s",
    "op_s.max": "s", "peak_rss_mb": "MB", "setup_s": "s",
}

# name -> (unit, layer key, stats field)
PER_LAYER = {}
for _layer, _fields in [
    ("weyl.bruhat_leq", ("calls", "busy_s")),
    ("weyl.enumerate_group", ("calls", "busy_s", "elements")),
    ("weyl.reduced_word", ("calls", "busy_s")),
    ("weyl.mul", ("calls", "busy_s")),
    ("weyl.inverse", ("calls", "busy_s")),
    ("charring.demazure_op", ("calls", "busy_s", "terms_out")),
    ("charring.demazure_along_word", ("calls", "letters")),
    ("charring.char_sorted_terms", ("busy_s",)),
    ("rootsys.root_coords", ("calls", "busy_s")),
    ("rootsys.pairing_root", ("calls", "busy_s")),
    ("rootsys.build", ("busy_s",)),
    ("cohomology.verify_thmA", ("busy_s",)),
    ("cohomology.verify_thm42", ("busy_s",)),
    ("cohomology.verify_thmB_criterion", ("busy_s",)),
    ("cohomology.h0_line", ("calls",)),
    ("cohomology.euler_char", ("calls",)),
    ("coxeter.coxeter_elements", ("busy_s",)),
    ("coxeter.analyze", ("calls", "busy_s")),
    ("coxeter.verify_prop51", ("busy_s",)),
    ("coxeter.verify_lemma54_55_56", ("busy_s",)),
    ("report.canonical_json", ("busy_s", "bytes")),
    ("cli.main", ("busy_s",)),
]:
    for _field in _fields:
        PER_LAYER[f"{_layer}.{_field}"] = ({"busy_s": "s", "bytes": "bytes"}.get(_field, "count"),
                                           _layer, _field)
PER_LAYER["cli.self_s"] = ("s", "cli.main", "self_s")
DERIVED = {  # computed from several fields or from the harness's own timing
    "weyl.bruhat_leq.cache_hit_ratio": "ratio",
    "weyl.bruhat_leq.true_ratio": "ratio",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes, setup):
    per_op = [statistics.median(s.wall for s in column) for column in zip(*(p[1] for p in passes))]
    values = {
        "wall_s": statistics.median(p[0] for p in passes),
        "cpu_s": statistics.median(sum(s.cpu for s in p[1]) for p in passes),
        "op_s.p50": statistics.median(per_op),
        "op_s.p90": quantile(per_op, 0.9),
        "op_s.max": max(per_op),
        "peak_rss_mb": max(s.rss_mb for p in passes for s in p[1]),
        "setup_s": statistics.median(setup),
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(traced, untraced):
    """Totals over the traced pass; ratios over their summed bases."""
    totals: dict[str, dict] = {}
    startup = 0.0
    for sample in traced[1]:
        layers = sample.trace["layers"] if sample.trace else {}
        for layer, stats in layers.items():
            acc = totals.setdefault(layer, {})
            for k, v in stats.items():
                acc[k] = acc.get(k, 0) + v
        startup += sample.wall - layers.get("cli.main", {}).get("busy_s", 0.0)
    values = {}
    for name, (unit, layer, fld) in PER_LAYER.items():
        values[name] = (totals.get(layer, {}).get(fld, 0), unit)
    bruhat = totals.get("weyl.bruhat_leq", {})
    values["weyl.bruhat_leq.cache_hit_ratio"] = (
        bruhat.get("cache_hits", 0) / bruhat["calls"] if bruhat.get("calls") else 0.0, "ratio")
    values["weyl.bruhat_leq.true_ratio"] = (
        bruhat.get("top_true", 0) / bruhat["top_calls"] if bruhat.get("top_calls") else 0.0,
        "ratio")
    values["cli.startup_s"] = (startup, "s")
    values["trace.overhead_s"] = (traced[0] - untraced[0], "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# --------------------------------------------------------------- setup

SETUP_CODE = "import sys, schubert\nfor t in sys.argv[1:]:\n    schubert.build(t)\n"


def measure_setup(types, reps) -> list[Exit]:
    """Fresh processes that import schubert and build every root system
    the workload uses."""
    exits = []
    for n in range(reps):
        out = OUT_DIR / "ops" / f"setup-{n}.out"
        out.parent.mkdir(parents=True, exist_ok=True)
        exits.append(spawn([sys.executable, "-c", SETUP_CODE, *types], out, 60))
        if exits[-1].code != 0:
            raise SystemExit(f"error: set-up process failed ({exits[-1].code}); see {out}.err")
    return exits


# ---------------------------------------------------------------- main

def git_sha():
    if not (ROOT / ".git").exists():     # an exported checkout has no history
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(args):
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def load_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {DIGESTS}: {exc}")


def require_engine():
    if not (SRC / "schubert" / "cli.py").is_file():
        raise SystemExit(f"error: no engine sources under {SRC}; run from a checkout root")


def warm_up(types):
    """One untimed import, so byte-code compilation is not timed."""
    measure_setup(types, 1)


def run_workload(workload, seed, seconds, trace, digests):
    """Return (result dict, record dict) for one run."""
    ops = workload.make_ops(seed)
    warm_up(workload.types)
    passes = []
    if trace:
        untraced = run_pass(ops, "untraced", digests)
        traced = run_pass(ops, "traced", digests, traced=True)
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced)
    else:
        cpus = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(cpus)})  # ops inherit the pinning
        except OSError as exc:                    # scaling is then less exact
            print(f"warning: cannot pin to one CPU ({exc}); running unpinned",
                  file=sys.stderr)
        try:
            with SpeedSampler() as sampler:
                setup = measure_setup(workload.types, SETUP_REPS)
                start = time.perf_counter()
                while True:
                    passes.append(run_pass(ops, f"pass{len(passes)}", digests))
                    elapsed = time.perf_counter() - start
                    if elapsed + elapsed / len(passes) > seconds:
                        break
        finally:
            os.sched_setaffinity(0, cpus)
        unscaled = end_to_end(passes, [x.wall for x in setup])
        rescale, probe = sampler.scaler(setup + [x for _, p in passes for x in p])
        scaled_passes = []
        for _, pass_samples in passes:
            pass_samples = [rescale(x) for x in pass_samples]
            scaled_passes.append((sum(x.wall for x in pass_samples), pass_samples))
        metrics = end_to_end(scaled_passes, [rescale(x).wall for x in setup])
        setup = [x.wall for x in setup]
    samples = [s for p in passes for s in p[1]]
    failed = sum(s.failure is not None for s in samples)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    record = {
        "passes": [{"wall_s": p[0], "ops": [
            {"key": op.key, "wall_s": s.wall, "cpu_s": s.cpu, "rss_mb": s.rss_mb,
             "failure": s.failure} for op, s in zip(ops, p[1])]} for p in passes],
        "failures": sorted({f"{op.key}: {s.failure}" for p in passes
                            for op, s in zip(ops, p[1]) if s.failure}),
    }
    if not trace:
        record.update(setup_s=setup, unscaled_metrics=unscaled, probe=probe)
    return result, record


def print_summary(meta, result, record):
    print("# " + json.dumps(meta, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'ops_failed_frac':32s} {failed / attempted:.4f} ({failed}/{attempted} ops)")
    unscaled = record.get("unscaled_metrics", {})
    for name, m in result["metrics"].items():
        note = (f"  (unscaled {unscaled[name]['value']:.6g})"
                if m["unit"] == "s" and name in unscaled else "")
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{note}")
    if "probe" in record:
        mean = statistics.mean(d for _, d in record["probe"])
        print(f"{'host speed probe':32s} {mean * 1e3:.4f} ms mean over {len(record['probe'])} "
              f"samples (reference {SAMPLE_REFERENCE_S * 1e3} ms)")
    for line in record["failures"]:
        print(f"FAILED {line}")


def record_digests():
    """Rerun every sweep/verify op SEED_SECONDS lists (the workloads' and
    the smoke test's) and store the digests of their reports."""
    require_engine()
    keys = {}
    for op in (sweep_ops([k.split()[1] for k in SEED_SECONDS if k.startswith("sweep ")])
               + verify_ops([tuple(k.split()[1:]) for k in SEED_SECONDS
                             if k.startswith("verify ")])):
        out = OUT_DIR / "ops" / "record.out"
        out.parent.mkdir(parents=True, exist_ok=True)
        code = spawn([sys.executable, "-c", CLI_ENTRY, *op.argv], out,
                     10 + 4 * op.seed_seconds).code
        doc = json.loads(out.read_text())
        reports = doc if isinstance(doc, list) else [doc]
        if code != 0 or not all(r["passed"] for r in reports):
            raise SystemExit(f"error: {op.key} did not pass; digests not recorded")
        keys[op.key] = report_digest(reports)
        print(op.key, keys[op.key], flush=True)
    DIGESTS.write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    require_engine()
    digests = load_digests()
    result, record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  args.trace, digests)
    meta = metadata(args)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"meta": meta, "result": result, **record}, indent=1) + "\n")
    print_summary(meta, result, record)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
