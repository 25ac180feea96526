"""Brute-force oracles shared across test modules.

Everything here is deliberately independent of the engine's algorithms:
subword scans instead of the lifting recursion, full matrix products
instead of the one-column reflection step, Gauss-Jordan instead of
reversed words, plain dict arithmetic instead of Character, so agreement
is evidence rather than tautology.
"""

from __future__ import annotations

import random
from typing import Iterable

from schubert import (Character, WeylElement, adjoint_character, bruhat_leq, e,
                      enumerate_group, h0_line, identity, simple_reflection)
from schubert.rootsys import RootSystem, Weight, _invert_rational


def mul_from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """s_{i1} ... s_{ik} as full matrix products, one factor per letter."""
    out = identity(rs)
    for i in word:
        out = out * simple_reflection(rs, i)
    return out


def peel_reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Canonical word: peel the smallest right descent by full products."""
    rs = w.rs
    rev: list[int] = []
    cur = w
    while not cur.is_identity:
        i = next(i for i in range(1, rs.rank + 1)
                 if not rs.root_of(cur.apply(rs.simple_roots[i - 1].weight)).positive)
        rev.append(i)
        cur = cur * simple_reflection(rs, i)
    return tuple(reversed(rev))


def gauss_jordan_inverse(w: WeylElement) -> WeylElement:
    """Inverse of the fw-matrix over the rationals; it must be integral."""
    inv = _invert_rational(w.matrix)
    if any(v.denominator != 1 for row in inv for v in row):
        raise AssertionError("non-integral Weyl matrix inverse")
    return WeylElement(w.rs, tuple(tuple(int(v) for v in row) for row in inv))


def subword_bruhat_leq(rs: RootSystem, u: WeylElement, w: WeylElement) -> bool:
    """u <= w iff some subword of a fixed reduced word of w multiplies to u.

    The products of all subwords of the word's first k letters are built
    up letter by letter, so the scan costs |[e, w]| products per letter
    instead of 2^l(w).
    """
    reached = {identity(rs)}
    for i in peel_reduced_word(w):
        s = simple_reflection(rs, i)
        reached |= {x * s for x in reached}
    return u in reached


def weight_orbit(rs: RootSystem, lam: Weight) -> set[Weight]:
    """W-orbit of lam, closed under the simple reflections."""
    orbit = {lam}
    frontier = [lam]
    while frontier:
        frontier = [mu for nu in frontier for i in range(1, rs.rank + 1)
                    for mu in [rs.reflect_simple(nu, i)] if mu not in orbit]
        orbit.update(frontier)
    return orbit


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
    return mul_from_word(rs, word)


def tangent_h0_char(rs: RootSystem, tau: WeylElement) -> Character:
    """H^0 of the restricted tangent bundle, one h0 line per positive root.

    Each line is its own Demazure composition along tau's canonical word,
    the per-element path the engine's layer sweep replaced; simply laced
    only.
    """
    if not rs.simply_laced:
        raise ValueError("tangent_h0_char requires a simply-laced type")
    total = Character.zero()
    for beta in rs.positive_roots:
        total = total + h0_line(rs, tau, beta.weight)
    return total


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
