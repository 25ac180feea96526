"""Brute-force oracles shared across test modules.

Everything here is deliberately independent of the engine's algorithms:
subword scans instead of the lifting recursion, plain dict arithmetic
instead of Character, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import random

from schubert import (Character, WeylElement, adjoint_character, bruhat_leq, e,
                      enumerate_group, from_word, tangent_h0_char)
from schubert.rootsys import RootSystem, Weight


def subword_bruhat_leq(rs: RootSystem, u: WeylElement, w: WeylElement) -> bool:
    """u <= w iff some subword of a fixed reduced word of w multiplies to u."""
    word = w.reduced_word()
    n = len(word)
    for mask in range(1 << n):
        sub = tuple(word[i] for i in range(n) if mask >> i & 1)
        if from_word(rs, sub) == u:
            return True
    return False


def random_small_character(rs: RootSystem, rng: random.Random,
                           max_terms: int = 4) -> Character:
    """Virtual character with fw coordinates in [-1, 1]; keeps sweeps cheap."""
    total = Character.zero()
    for _ in range(rng.randint(1, max_terms)):
        fw = tuple(rng.randint(-1, 1) for _ in range(rs.rank))
        total = total + e(Weight(fw), rng.choice((-2, -1, 1, 2)))
    return total


def random_element(rs: RootSystem, rng: random.Random,
                   max_letters: int = 12) -> WeylElement:
    word = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, max_letters)))
    return from_word(rs, word)


def kernel_char(rs: RootSystem, tau: WeylElement) -> Character:
    """adjoint minus tangent_h0; a negative multiplicity is an engine failure."""
    diff = adjoint_character(rs) - tangent_h0_char(rs, tau)
    if not diff.is_effective():
        raise AssertionError("engine failure: tangent character exceeds adjoint")
    return diff


def bruhat_monotonicity_findings(rs: RootSystem,
                                 guard: int | None = None) -> list[dict]:
    """Sanity scan: dim tangent_h0 should not drop along Bruhat covers.

    Returns findings instead of raising; an empty list means no violation
    was observed.
    """
    if not rs.simply_laced:
        raise ValueError("tangent characters need a simply-laced type")
    elements = list(enumerate_group(rs, guard))
    dims = {w.matrix: tangent_h0_char(rs, w).dimension() for w in elements}
    findings = []
    for w in elements:
        lw = w.length
        for u in elements:
            if u.length == lw - 1 and bruhat_leq(u, w):
                if dims[u.matrix] > dims[w.matrix]:
                    findings.append({
                        "lower_word": list(u.reduced_word()),
                        "upper_word": list(w.reduced_word()),
                        "lower_dim": dims[u.matrix],
                        "upper_dim": dims[w.matrix],
                    })
    return findings
