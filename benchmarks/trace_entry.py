"""Run one schubert CLI command with per-layer wrappers installed.

    python3 benchmarks/trace_entry.py TRACE_JSON CLI_ARGS...

The wrappers sit outside the engine: they replace public functions and
methods of rootsys, weyl, charring, cohomology, coxeter, report and cli,
then call schubert.cli.main(CLI_ARGS) as the console script does.  Each
function is replaced in every schubert module that holds it, because
callers look names up in their own module (cohomology and coxeter import
bruhat_leq from weyl).  At exit the per-layer totals and the spans are
written to TRACE_JSON as {"layers": {name: stats}, "spans": [...]}.

Every wrapped name keeps its call count, busy time (outermost calls only,
so recursion is not counted twice) and self time (busy time minus the time
of wrapped calls made inside it).  Coarse calls also record a span
[name, parent span index, start, end]; hot calls such as
WeylElement.__mul__ are only aggregated, because they run millions of
times.
"""

from __future__ import annotations

import json
import sys
import time

import schubert
from schubert import charring, cli, cohomology, coxeter, report, rootsys, weyl

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, dict] = {}
        self.spans: list[list] = []
        self._children: list[list[float]] = []
        self._open_spans: list[int] = []

    def wrap(self, name, fn, span=False, pre=None, post=None):
        """Return fn wrapped to record `name`.

        pre(stats, args) runs before the call; post(stats, args, result,
        top) runs inside the timed region and returns the result to hand
        back, so it may materialize a lazy one.
        """
        stats = self.layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        children, spans, open_spans = self._children, self.spans, self._open_spans
        depth = [0]

        def traced(*args, **kwargs):
            stats["calls"] += 1
            if pre is not None:
                pre(stats, args)
            depth[0] += 1
            child = [0.0]
            children.append(child)
            if span:
                open_spans.append(len(spans))
                spans.append([name, open_spans[-2] if len(open_spans) > 1 else -1, 0.0, 0.0])
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(stats, args, result, depth[0] == 1)
                return result
            finally:
                end = perf()
                elapsed = end - start
                children.pop()
                if children:
                    children[-1][0] += elapsed
                stats["self_s"] += elapsed - child[0]
                depth[0] -= 1
                if depth[0] == 0:
                    stats["busy_s"] += elapsed
                if span:
                    record = spans[open_spans.pop()]
                    record[2], record[3] = start, end

        return traced

    def patch(self, owner, attr, name, **hooks):
        """Wrap owner.attr; a module-level function is replaced wherever a
        schubert module holds it, a method on its class."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, **hooks)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            return wrapped
        for module in [m for k, m in sys.modules.items()
                       if k == "schubert" or k.startswith("schubert.")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
        return wrapped


def _count(key, measure):
    def post(stats, args, result, top):
        stats[key] = stats.get(key, 0) + measure(result)
        return result
    return post


def _bruhat_pre(stats, args):
    u, w = args
    cache = getattr(u.rs, "_bruhat_cache", None)
    hit = cache is not None and (u.matrix, w.matrix) in cache
    stats["cache_hits"] = stats.get("cache_hits", 0) + hit


def _bruhat_post(stats, args, result, top):
    if top:
        stats["top_calls"] = stats.get("top_calls", 0) + 1
        stats["top_true"] = stats.get("top_true", 0) + bool(result)
    return result


def _materialize(stats, args, result, top):
    elements = list(result)
    stats["elements"] = stats.get("elements", 0) + len(elements)
    return iter(elements)


def _letters(stats, args):
    stats["letters"] = stats.get("letters", 0) + len(args[1])


def install(tracer: Tracer):
    """Install every wrapper and return the traced cli.main."""
    t = tracer
    t.patch(rootsys, "build", "rootsys.build")
    t.patch(rootsys.RootSystem, "root_coords", "rootsys.root_coords")
    t.patch(rootsys.RootSystem, "pairing_root", "rootsys.pairing_root")
    t.patch(weyl.WeylElement, "__mul__", "weyl.mul")
    t.patch(weyl.WeylElement, "inverse", "weyl.inverse")
    t.patch(weyl.WeylElement, "reduced_word", "weyl.reduced_word")
    t.patch(weyl, "bruhat_leq", "weyl.bruhat_leq", pre=_bruhat_pre, post=_bruhat_post)
    t.patch(weyl, "enumerate_group", "weyl.enumerate_group", span=True, post=_materialize)
    t.patch(weyl, "coxeter_elements", "coxeter.coxeter_elements")
    t.patch(charring, "demazure_op", "charring.demazure_op", post=_count("terms_out", len))
    t.patch(charring, "demazure_along_word", "charring.demazure_along_word",
            span=True, pre=_letters)
    t.patch(charring, "char_sorted_terms", "charring.char_sorted_terms")
    t.patch(cohomology, "h0_line", "cohomology.h0_line")
    t.patch(cohomology, "euler_char", "cohomology.euler_char")
    t.patch(coxeter, "analyze", "coxeter.analyze")
    for module in (cohomology, coxeter):
        for attr in sorted(vars(module)):
            if attr.startswith("verify_") or attr == "remark_b2_check":
                t.patch(module, attr, f"{module.__name__.rsplit('.', 1)[1]}.{attr}", span=True)
    t.patch(report, "canonical_json", "report.canonical_json", span=True,
            post=_count("bytes", lambda text: len(text.encode("utf-8"))))
    return t.wrap("cli.main", cli.main, span=True)


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"engine_version": schubert.__version__,
                       "layers": tracer.layers, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
