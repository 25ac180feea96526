"""The table of checks, the one runner that builds every Report, and
report serialization.

A verifier in cohomology or coxeter returns only what it computes,
(universe size, counterexamples, details); run_check gates it, times it
and stamps the Report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import factorial
from typing import Any, Callable

from . import cohomology, coxeter
from .rootsys import CartanType, RootSystem
from .weyl import GUARD_ENV_VAR, GuardExceeded, resolve_guard

__all__ = ["Report", "Check", "CHECKS", "precheck", "run_check",
           "labeling_table", "canonical_json"]


@dataclass
class Report:
    """Outcome of one verification sweep; passed means no counterexample.

    counterexamples and details hold JSON-serializable primitives only
    (words as lists of ints, characters as canonical strings), so reports
    can cross process boundaries and serialize byte-identically.
    """

    check_id: str
    cartan_type: str
    universe_size: int
    counterexamples: list[dict[str, Any]]
    elapsed: float
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def as_json_dict(self, engine_version: str, rs: RootSystem | None = None) -> dict:
        out: dict[str, Any] = {
            "check": self.check_id,
            "type": self.cartan_type,
            "universe": self.universe_size,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
            "elapsed_ms": int(self.elapsed * 1000),
            "engine_version": engine_version,
        }
        if rs is not None:
            out["labeling"] = labeling_table(rs)
        if self.details:
            out["details"] = self.details
        return out


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    applies(ct) is None when the check applies, else the reason it does
    not.  cost(ct) is the size of the universe the check enumerates, |W|
    or the n! orderings of the simple roots, or None when it only loops
    over roots.  run(rs, guard, alpha) returns (universe size,
    counterexamples, details).
    """

    id: str
    applies: Callable[[CartanType], str | None]
    cost: Callable[[CartanType], int | None]
    run: Callable[[RootSystem, int, int | None], tuple[int, list, dict]]


def _simply_laced(ct: CartanType) -> str | None:
    return None if ct.simply_laced else "requires a simply-laced type"


def _two_lengths(ct: CartanType) -> str | None:
    return None if not ct.simply_laced else "requires two root lengths"


def _weyl_order(ct: CartanType) -> int:
    return ct.weyl_order


def _orderings(ct: CartanType) -> int:
    return factorial(ct.rank)


def _none(ct: CartanType) -> None:
    return None


# Verifiers are looked up on their modules at call time, so a wrapper
# installed on cohomology.verify_thmA (say) is the one that runs.
CHECKS = (
    Check("thmA", _simply_laced, _weyl_order,
          lambda rs, guard, alpha: cohomology.verify_thmA(rs, guard)),
    Check("thm42", _simply_laced, _weyl_order,
          lambda rs, guard, alpha: cohomology.verify_thm42(rs, alpha, guard)),
    Check("thmB", _two_lengths, _weyl_order,
          lambda rs, guard, alpha: cohomology.verify_thmB_criterion(rs, guard)),
    Check("prop51", _none, _orderings,
          lambda rs, guard, alpha: coxeter.verify_prop51(rs)),
    Check("lemma26", _simply_laced, _none,
          lambda rs, guard, alpha: cohomology.verify_lemma26(rs)),
    Check("lemma54_56", _simply_laced, _orderings,
          lambda rs, guard, alpha: coxeter.verify_lemma54_55_56(rs)),
    Check("thmC_typeA", lambda ct: None if ct.family == "A" else "specific to type A",
          _orderings, lambda rs, guard, alpha: coxeter.verify_thmC_typeA(rs)),
    Check("cor52_53_58", _simply_laced, _orderings,
          lambda rs, guard, alpha: coxeter.verify_cor52_53_58(rs)),
    Check("lemma61", _two_lengths, _none,
          lambda rs, guard, alpha: cohomology.verify_lemma61(rs)),
    Check("remarkB2", lambda ct: None if str(ct) == "B2" else "specific to B2",
          _none, lambda rs, guard, alpha: cohomology.remark_b2_check(rs)),
)


def precheck(check_id: str, ct: CartanType, guard: int,
             alpha: int | None = None) -> Check:
    """The check named check_id, once it is known to be runnable on ct.

    Raises ValueError for an unknown id, an inapplicable type or a bad
    alpha, and GuardExceeded when the check's universe is larger than the
    guard; none of this does any enumeration.
    """
    check = next((c for c in CHECKS if c.id == check_id), None)
    if check is None:
        raise ValueError(f"unknown check {check_id!r}")
    reason = check.applies(ct)
    if reason is not None:
        raise ValueError(f"{check_id} does not apply to {ct}: {reason}")
    if alpha is not None:
        if check_id != "thm42":
            raise ValueError("--alpha applies to thm42 only")
        if not 1 <= alpha <= ct.rank:
            raise ValueError(f"--alpha: {alpha} outside 1..{ct.rank}")
    size = check.cost(ct)
    if size is not None and size > guard:
        raise GuardExceeded(
            f"{check_id} on {ct} walks a universe of {size} (|W| or n! "
            f"orderings), above the guard {guard}; raise --guard or "
            f"{GUARD_ENV_VAR} to proceed")
    return check


def run_check(rs: RootSystem, check_id: str, guard: int | None = None,
              alpha: int | None = None) -> Report:
    """Precheck, run and time one check, and wrap its result in a Report."""
    guard = resolve_guard(guard)
    check = precheck(check_id, rs.ct, guard, alpha)
    start = time.perf_counter()
    universe, counterexamples, details = check.run(rs, guard, alpha)
    return Report(check_id, str(rs.ct), universe, counterexamples,
                  time.perf_counter() - start, details)


def labeling_table(rs: RootSystem) -> dict:
    """Simple-root numbering data embedded in reports for reproducibility."""
    return {
        "convention": "Bourbaki",
        "cartan_matrix": [list(row) for row in rs.cartan],
        "pairing": "cartan[i][j] = <alpha_j, alpha_i_vee>",
        "symmetrizers": list(rs.d),
    }


def canonical_json(obj: Any) -> str:
    """Deterministic serialization; parse-then-dump round-trips byte-identically."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
