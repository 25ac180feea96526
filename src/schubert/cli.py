"""Command-line front end for the verification engine.

Subcommands: roots (root-system summary), demazure (evaluate one Demazure
composite), verify (run one named check), sweep (run every check that
applies to a type).  This module parses and renders only: verify and
sweep precheck their check ids on the parsed type before building its
root system, then hand them to report.run_checks, which owns the runs
and the process pool.  Engine modules load only where a subcommand
runs them: demazure imports charring in its handler, so verify prop51
or lemma54_56 loads neither charring nor cohomology.  Exit codes: 0 all
checks passed, 1 a check found a mathematical counterexample, 2 usage or
applicability error (including a tripped enumeration guard), 3 engine
failure (an internal consistency check failed, so the run proves nothing
either way).

main registers gc.freeze with atexit, once per process, so the
interpreter's shutdown collections skip the heap a run leaves behind;
output, exit codes and an in-process caller's heap are unchanged until
that process exits.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import re
import sys
from math import prod

from . import __version__
from .report import CHECKS, Report, labeling_table, precheck, run_checks, write_json
from .rootsys import (DEFAULT_GUARD, GUARD_ENV_VAR, CartanType, GuardExceeded, Root, RootSystem,
                      Weight, build, resolve_guard)

__all__ = ["main"]


# ---------------------------------------------------------------- parsing

_NEG_VECTOR = re.compile(r"^-\d+(?:,-?\d+)*$")
_VALUE_FLAGS = ("--weight-fund", "--weight-root", "--word")


def _fuse_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--weight-fund -1,0` to `--weight-fund=-1,0`.

    argparse reads a leading minus as an option prefix, so vector values
    that start with a negative entry only survive in = form; fuse them
    before parsing so both spellings work.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _VALUE_FLAGS and i + 1 < len(argv)
                and _NEG_VECTOR.match(argv[i + 1])):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated integers, got {text!r}")


def _parse_word(rs: RootSystem, text: str) -> tuple[int, ...]:
    word = _parse_ints(text, "--word")
    for letter in word:
        if not 1 <= letter <= rs.rank:
            raise ValueError(f"--word: letter {letter} outside 1..{rs.rank}")
    return word


def _parse_weight(rs: RootSystem, args) -> Weight:
    if args.weight_fund is not None:
        coords = _parse_ints(args.weight_fund, "--weight-fund")
        base = "fund"
    else:
        coords = _parse_ints(args.weight_root, "--weight-root")
        base = "root"
    if len(coords) != rs.rank:
        raise ValueError(
            f"--weight-{base}: expected {rs.rank} coordinates, got {len(coords)}")
    if base == "fund":
        return Weight(coords)
    return rs.weight_from_root_coords(coords)


# -------------------------------------------------------------- rendering

def _root_label(root: Root, simply_laced: bool) -> str:
    if simply_laced:
        return ""
    return "  long" if root.is_long else "  short"


def _root_line(root: Root, simply_laced: bool) -> str:
    return (f"root{list(root.coords)}  fw{list(root.weight.fw)}"
            f"  ht {root.height}{_root_label(root, simply_laced)}")


def _render_roots_table(rs: RootSystem) -> str:
    lines = [
        f"type: {rs.ct}",
        f"rank: {rs.rank}",
        f"roots: {len(rs.roots)} ({len(rs.positive_roots)} positive)",
        "cartan (rows = i, cartan[i][j] = <alpha_j, alpha_i_vee>):",
    ]
    width = max(len(str(v)) for row in rs.cartan for v in row)
    for row in rs.cartan:
        lines.append("  [" + " ".join(f"{v:>{width}}" for v in row) + "]")
    lines.append(f"symmetrizers d: {list(rs.d)}")
    lines.append("simple roots:")
    for i, root in enumerate(rs.simple_roots, start=1):
        lines.append(f"  alpha_{i}: {_root_line(root, rs.simply_laced)}")
    lines.append(f"highest root (alpha_0): {_root_line(rs.highest_root, rs.simply_laced)}")
    lines.append(f"highest short root:     {_root_line(rs.highest_short_root, rs.simply_laced)}")
    lines.append(f"rho: fw{list(rs.rho.fw)}")
    return "\n".join(lines) + "\n"


def _root_dict(root: Root) -> dict:
    return {
        "root": list(root.coords),
        "fw": list(root.weight.fw),
        "height": root.height,
        "long": root.is_long,
    }


def _render_roots_json(rs: RootSystem) -> dict:
    return {
        "type": str(rs.ct),
        "rank": rs.rank,
        "root_count": len(rs.roots),
        "positive_count": len(rs.positive_roots),
        "labeling": labeling_table(rs),
        "simple_roots": [_root_dict(r) for r in rs.simple_roots],
        "highest_root": _root_dict(rs.highest_root),
        "highest_short_root": _root_dict(rs.highest_short_root),
        "rho": list(rs.rho.fw),
        "engine_version": __version__,
    }


def _render_report_table(rep: Report) -> list[str]:
    status = "passed" if rep.passed else "FAILED"
    lines = [
        f"{rep.check_id:<12} {rep.cartan_type:<4} universe {rep.universe_size:>6}"
        f"  {status}  cx {len(rep.counterexamples):>3}"
        f"  {int(rep.elapsed * 1000):>6} ms"
    ]
    for cx in rep.counterexamples[:10]:
        lines.append("    cx " + json.dumps(cx, sort_keys=True))
    if len(rep.counterexamples) > 10:
        lines.append(f"    ... {len(rep.counterexamples) - 10} more")
    return lines


def _render_reports(args, rs: RootSystem, reports: list[Report]) -> tuple[str | dict | list, int]:
    code = 0 if all(rep.passed for rep in reports) else 1
    if args.format == "json":
        docs = [rep.as_json_dict(__version__, rs) for rep in reports]
        return (docs[0] if len(docs) == 1 else docs), code
    return "\n".join(line for rep in reports for line in _render_report_table(rep)) + "\n", code


# ------------------------------------------------------------ subcommands
# Each handler returns (output, exit code), the output a text or, for
# --format json, a document that main streams through write_json.

def cmd_roots(args) -> tuple[str | dict, int]:
    rs = build(args.type)
    return (_render_roots_json(rs) if args.format == "json"
            else _render_roots_table(rs)), 0


def _weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """dim V(lam+), lam+ the dominant conjugate of lam: it bounds the terms
    of a Demazure composite on e^lam, which lie in conv(W.lam) in lam + Q."""
    while min(lam.fw) < 0:
        lam = rs.reflect_simple(lam, lam.fw.index(min(lam.fw)) + 1)
    shifted = lam + rs.rho
    return (prod(rs.pairing_root(shifted, beta) for beta in rs.positive_roots)
            // prod(rs.pairing_root(rs.rho, beta) for beta in rs.positive_roots))


def cmd_demazure(args) -> tuple[str | dict, int]:
    # imported here: verify and sweep of the Coxeter checks never load charring
    from .charring import _sorted_rows, char_to_str, demazure_along_word, e

    guard = resolve_guard(None)  # a bad guard refuses before the build
    rs = build(args.type)
    word = _parse_word(rs, args.word)
    lam = _parse_weight(rs, args)
    seed = e(lam)  # the packing bound refuses first
    dim = _weyl_dimension(rs, lam)
    if dim > guard:
        raise ValueError(f"weight {list(lam.fw)}: dim V(lambda+) = {dim} exceeds guard "
                         f"{guard}, and a Demazure character of it may have that many terms")
    result = demazure_along_word(rs, word, seed)
    if args.format == "json":
        return {
            "type": str(rs.ct),
            "word": list(word),
            "weight_fw": list(lam.fw),
            "terms": [{"fw": list(fw), "mult": m} for fw, m in _sorted_rows(rs, result)],
            "term_count": len(result),
            "engine_version": __version__,
        }, 0
    return char_to_str(rs, result) + "\n", 0


def _prechecked_build(ct: CartanType, check_ids: list[str], guard: int | None) -> RootSystem:
    """The root system of ct, built only once every check passes its
    precheck: building alone grows about as rank^3 (A120 takes over a second)."""
    for check_id in check_ids:
        precheck(check_id, ct, resolve_guard(guard))
    return build(ct)


def cmd_verify(args) -> tuple[str | dict | list, int]:
    rs = _prechecked_build(CartanType.parse(args.type), [args.check], args.guard)
    return _render_reports(args, rs, run_checks(rs, [args.check], args.guard))


def cmd_sweep(args) -> tuple[str | dict | list, int]:
    ct = CartanType.parse(args.type)
    check_ids = [c.id for c in CHECKS if c.applies(ct) is None]
    rs = _prechecked_build(ct, check_ids, args.guard)
    return _render_reports(args, rs, run_checks(rs, check_ids, args.guard, args.workers))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Exact verification sweeps for cohomology of Schubert "
                    "varieties (Bourbaki numbering throughout).")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_guard: bool = False):
        sp.add_argument("--type", required=True, metavar="CT",
                        help="Cartan type, e.g. A3, D4, G2")
        sp.add_argument("--format", choices=("table", "json"), default="table")
        sp.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
        if with_guard:
            sp.add_argument("--guard", type=int, metavar="N",
                            help=f"largest universe a check may enumerate: |W|, "
                                 f"n! orderings or 2^(n-1) Coxeter elements "
                                 f"(default {DEFAULT_GUARD}, env {GUARD_ENV_VAR})")

    sp = sub.add_parser("roots", help="print the root-system summary")
    add_common(sp)

    sp = sub.add_parser(
        "demazure",
        help="evaluate a Demazure composite on e^weight",
        description="Letters act right-to-left: in --word 2,1 the operator "
                    "for 1 is applied first (innermost).  Example: "
                    "demazure --type A2 --word 2,1 --weight-root 1,1 has "
                    "5 terms.")
    add_common(sp)
    sp.add_argument("--word", required=True, metavar="W",
                    help="comma-separated simple indices; '' is the identity")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--weight-fund", metavar="V",
                       help="weight in fundamental-weight coordinates, e.g. 1,1")
    group.add_argument("--weight-root", metavar="V",
                       help="weight in simple-root coordinates")

    sp = sub.add_parser("verify", help="run one named check")
    sp.add_argument("check", choices=[c.id for c in CHECKS])
    add_common(sp, with_guard=True)

    sp = sub.add_parser("sweep", help="run every check applicable to the type")
    add_common(sp, with_guard=True)
    sp.add_argument("--workers", type=int, default=1, metavar="N",
                    help="run checks in N processes (default 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    atexit.unregister(gc.freeze)  # registered once however often main runs
    atexit.register(gc.freeze)
    raw = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_fuse_negative_values(raw))
    handlers = {
        "roots": cmd_roots,
        "demazure": cmd_demazure,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
    }
    try:
        # opened before any work, as a shell redirection would be
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    try:
        output, code = handlers[args.command](args)
        # every check and refusal is done: a document streams in blocks
        if isinstance(output, str):
            out.write(output)
        else:
            write_json(output, out.write)
        return code
    except (GuardExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: engine failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
