"""The table of checks, the one runner that builds every Report, and
report serialization.  The checks' prices are held to the enumeration
guard of ``rootsys``.

A verifier in cohomology or coxeter returns only what it computes,
(universe size, counterexamples, details); run_checks gates it, times it
and stamps the Report, and spreads the checks over a process pool when
asked for workers: one check, one verifier, one task.  An engine failure
(AssertionError) or a guard a verifier trips at run time (GuardExceeded)
leaves run_checks as "<check id>: <message>", named once, in a worker or
not.

write_json streams a report as json.dumps(obj, sort_keys=True, indent=2)
writes it, in blocks.  One writer, _record, writes a dict in one piece
when its values are str, None, bools, exact ints or lists of exact ints:
every report row takes that one path, and anything else the general one.
"""

from __future__ import annotations

import os
import time
from collections import namedtuple
from importlib import import_module
from json.encoder import encode_basestring_ascii as _str
from math import factorial
from operator import itemgetter
from typing import Any, Callable

from .rootsys import GUARD_ENV_VAR, CartanType, GuardExceeded, Record, RootSystem, resolve_guard

__all__ = ["Report", "Check", "CHECKS", "precheck", "pool_size", "run_checks",
           "run_check", "labeling_table", "canonical_json", "write_json"]

class Report(Record):
    """Outcome of one verification sweep; passed means no counterexample.

    counterexamples and details hold JSON-serializable primitives only
    (words as lists of ints, characters as canonical strings), so reports
    can cross process boundaries and serialize byte-identically.
    """

    __slots__ = ("check_id", "cartan_type", "universe_size", "counterexamples",
                 "elapsed", "details")

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def as_json_dict(self, engine_version: str, rs: RootSystem) -> dict:
        out: dict[str, Any] = {
            "check": self.check_id,
            "type": self.cartan_type,
            "universe": self.universe_size,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
            "elapsed_ms": int(self.elapsed * 1000),
            "engine_version": engine_version,
            "labeling": labeling_table(rs),
        }
        if self.details:
            out["details"] = self.details
        return out


Check = namedtuple("Check", "id applies cost module run")
Check.__doc__ = """One row of the check table.

applies(ct) is None when the check applies, else the reason it does
not.  cost(ct) is the size of the universe the check enumerates, |W|,
the n! orderings of the simple roots or the 2^(n-1) Coxeter elements,
or None when it only loops over roots.  module names the engine module
that holds the verifier, imported before the check's clock starts; run(m,
rs, guard) looks the verifier up on that module m at call time, so a
wrapper installed on cohomology.verify_thmB_criterion (say) is the one
that runs, and returns (universe size, counterexamples, details).
"""


def _simply_laced(ct: CartanType) -> str | None:
    return None if ct.simply_laced else "requires a simply-laced type"


def _two_lengths(ct: CartanType) -> str | None:
    return None if not ct.simply_laced else "requires two root lengths"


def _weyl_order(ct: CartanType) -> int:
    return ct.weyl_order


def _orderings(ct: CartanType) -> int:
    return factorial(ct.rank)


def _coxeter_elements(ct: CartanType) -> int:
    """One Coxeter element per orientation of the Dynkin diagram, a tree."""
    return 2 ** (ct.rank - 1)


def _none(ct: CartanType) -> None:
    return None


CHECKS = (
    Check("thmA", _simply_laced, _weyl_order, "cohomology",
          lambda m, rs, guard: m.verify_thmA(rs, guard)),
    # its walks cover Sum_alpha |W_P| elements, at most |W|
    Check("thm42", _simply_laced, _weyl_order, "cohomology",
          lambda m, rs, guard: m.verify_thm42(rs, guard)),
    Check("thmB", _two_lengths, _weyl_order, "cohomology",
          lambda m, rs, guard: m.verify_thmB_criterion(rs, guard)),
    Check("prop51", _none, _coxeter_elements, "coxeter",
          lambda m, rs, guard: m.verify_prop51(rs)),
    Check("lemma26", _simply_laced, _none, "cohomology",
          lambda m, rs, guard: m.verify_lemma26(rs)),
    Check("lemma54_56", _simply_laced, _orderings, "coxeter",
          lambda m, rs, guard: m.verify_lemma54_55_56(rs)),
    Check("thmC_typeA", lambda ct: None if ct.family == "A" else "specific to type A",
          _orderings, "cohomology", lambda m, rs, guard: m.verify_thmC_typeA(rs, guard)),
    Check("cor52_53_58", _simply_laced, _orderings, "cohomology",
          lambda m, rs, guard: m.verify_cor52_53_58(rs, guard)),
    Check("lemma61", _two_lengths, _none, "cohomology",
          lambda m, rs, guard: m.verify_lemma61(rs)),
    Check("remarkB2", lambda ct: None if str(ct) == "B2" else "specific to B2",
          _none, "cohomology", lambda m, rs, guard: m.remark_b2_check(rs)),
)


def precheck(check_id: str, ct: CartanType, guard: int) -> Check:
    """The check named check_id, once it is known to be runnable on ct.

    Raises ValueError for an unknown id or an inapplicable type, and
    GuardExceeded when the check's universe is larger than the guard;
    none of this does any enumeration.
    """
    check = next((c for c in CHECKS if c.id == check_id), None)
    if check is None:
        raise ValueError(f"unknown check {check_id!r}")
    reason = check.applies(ct)
    if reason is not None:
        raise ValueError(f"{check_id} does not apply to {ct}: {reason}")
    size = check.cost(ct)
    if size is not None and size > guard:
        raise GuardExceeded(
            f"{check_id} on {ct} walks a universe of {size} (|W|, n! orderings "
            f"or 2^(n-1) Coxeter elements), above the guard {guard}; raise "
            f"--guard or {GUARD_ENV_VAR} to proceed")
    return check


def pool_size(workers: int, tasks: int, cpus: int | None) -> int:
    """Processes for a run: never more than its tasks or the CPUs."""
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")
    return min(workers, tasks, cpus or 1)


def run_checks(rs: RootSystem, check_ids: list[str], guard: int | None = None,
               workers: int = 1) -> list[Report]:
    """Precheck every check before any work, then run and time them, one
    Report each in CHECKS order.  With more than one worker, each check is
    one task of a process pool.  An AssertionError or GuardExceeded that a
    verifier raises leaves named by its check, once."""
    guard = resolve_guard(guard)
    checks = sorted({c: precheck(c, rs.ct, guard) for c in check_ids}.values(), key=CHECKS.index)
    size = pool_size(workers, len(checks), os.cpu_count())
    if size > 1:
        # imported here: concurrent.futures and multiprocessing slow every start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=size) as pool:
            futures = [pool.submit(run_checks, rs, [c.id], guard) for c in checks]
            return [rep for f in futures for rep in f.result()]
    reports = []
    for check in checks:
        # imported before the clock starts: a check's time is its own work
        m = import_module(f"{__package__}.{check.module}")
        start = time.perf_counter()
        try:
            n, cx, details = check.run(m, rs, guard)
        except (AssertionError, GuardExceeded) as exc:  # the one place a check's exit is named
            raise type(exc)(f"{check.id}: {exc}") from None
        reports.append(Report(check.id, str(rs.ct), n, cx, time.perf_counter() - start, details))
    return reports


def run_check(rs: RootSystem, check_id: str, guard: int | None = None) -> Report:
    """Precheck, run and time one check, and wrap its result in a Report."""
    return run_checks(rs, [check_id], guard)[0]


def labeling_table(rs: RootSystem) -> dict:
    """Simple-root numbering data embedded in reports for reproducibility."""
    return {
        "convention": "Bourbaki",
        "cartan_matrix": [list(row) for row in rs.cartan],
        "pairing": "cartan[i][j] = <alpha_j, alpha_i_vee>",
        "symmetrizers": list(rs.d),
    }


_BLOCK = 4096  # pieces per write() call, so a report is never held whole
_BLOCK_CHARS = 1 << 16  # characters of list-item pieces per write() call
_KEYWORDS = {None: "null", True: "true", False: "false"}
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(o: Any) -> str | None:
    """o as json writes it if o is None, a bool, an int or a float, else None."""
    if o is None or o is True or o is False:
        return _KEYWORDS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _FLOATS.get(text, text)
    return None


def _record(keys: Any, nl: str) -> Callable[[Any], str | None]:
    """A writer of a dict whose keys are exactly keys, all str, as json
    writes it on a line indented by nl, in one piece when every value is a
    str, None, a bool, an exact int or a list of exact ints; any other item
    gives None.  It reads the values in sorted key order by one itemgetter,
    puts each list's ints into the value tuple, and fills the % template of
    that tuple of list lengths, built once."""
    if not keys or {type(k) for k in keys} != {str}:
        return lambda x: None
    order = sorted(keys)
    get = itemgetter(*order) if len(order) > 1 else lambda x: (x[order[0]],)
    inner, heads = nl + "  ", [_str(k).replace("%", "%%") + ": " for k in order]
    item, templates, ints = nl + "    ", {}, {int}

    def template(lengths: tuple) -> str:
        fields = [head + ("%s" if n is None else "[]" if not n else
                          "[" + item + ("," + item).join(["%s"] * n) + inner + "]")
                  for head, n in zip(heads, lengths)]
        return "{" + inner + ("," + inner).join(fields) + nl + "}"

    def piece(x: Any) -> str | None:
        if type(x) is not dict or x.keys() != keys:
            return None
        values: list = []
        lengths = []
        for v in get(x):
            kind = type(v)
            if kind is list:
                if not set(map(type, v)) <= ints:
                    return None
                values += v
                lengths.append(len(v))
                continue
            if kind is str:
                v = _str(v)
            elif kind is not int:
                if kind is not bool and v is not None:
                    return None
                v = _KEYWORDS[v]
            values.append(v)
            lengths.append(None)
        shape = tuple(lengths)
        text = templates.get(shape) or templates.setdefault(shape, template(shape))
        return text % tuple(values)

    return piece


def write_json(obj: Any, write: Callable[[str], Any]) -> None:
    """Pass write json.dumps(obj, sort_keys=True, indent=2) + "\n" in blocks of
    about _BLOCK pieces, dispatching types in json.encoder's order: str; None,
    bools; int; float; list or tuple; dict, keys converted as json does;
    anything else is a TypeError.

    One writer, _record, writes a dict in one piece: each dict that emit
    meets, and each item of a list whose first item is a dict, by the
    writer of that item's keys, built once per key tuple and indent.  A
    list whose first item is no dict writes its scalars by _scalar.  An
    item neither writes goes through emit.
    List-item pieces can be long, so the block is also cut at _BLOCK_CHARS
    characters of them."""
    parts: list[str] = []
    append = parts.append
    writers: dict = {}  # one _record per key tuple and indent

    def record(keys: Any, nl: str) -> Callable[[Any], str | None]:
        key = (tuple(keys), nl)
        return writers.get(key) or writers.setdefault(key, _record(keys, nl))

    def flush() -> None:
        write("".join(parts))
        parts.clear()

    def emit(o: Any, nl: str) -> None:  # nl: a newline and the indent of o's line
        if len(parts) >= _BLOCK:
            flush()
        text = _str(o) if isinstance(o, str) else _scalar(o)
        if text is not None:
            return append(text)
        if not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        if not o:
            return append("{}" if isinstance(o, dict) else "[]")
        inner = nl + "  "
        if isinstance(o, dict):
            text = record(o.keys(), nl)(o)
            if text is not None:
                return append(text)
            sep = "{" + inner
            for k, v in sorted(o.items()):
                key = k if isinstance(k, str) else _scalar(k)
                if key is None:
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {k.__class__.__name__}")
                append(f"{sep}{_str(key)}: ")
                emit(v, inner)
                sep = "," + inner
            return append(nl + "}")
        piece = record(o[0].keys(), inner) if type(o[0]) is dict else _scalar
        sep, size = "[" + inner, 0
        for x in o:
            append(sep)
            sep = "," + inner
            text = piece(x)
            if text is None:
                emit(x, inner)
                continue
            append(text)
            size += len(text)
            if size >= _BLOCK_CHARS:
                flush()
                size = 0
        append(nl + "]")

    emit(obj, "\n")
    append("\n")
    write("".join(parts))


def canonical_json(obj: Any) -> str:
    """Deterministic serialization, the join of write_json's blocks;
    parse-then-dump round-trips byte-identically."""
    blocks: list[str] = []
    write_json(obj, blocks.append)
    return "".join(blocks)
