"""End-to-end acceptance sweep: the eleven headline properties.

One test per property; `pytest -v tests/test_acceptance.py` prints one
pass/fail line for each.  Frozen values here were produced by independent
oracles (hand string-formula evaluation, the Freudenthal recursion, the
Weyl dimension formula, brute-force subword scans) before the engine was
written, so agreement is evidence rather than self-confirmation.
"""

import itertools
import random
import time

import pytest

from schubert import (
    adjoint_character,
    analyze,
    bruhat_leq,
    build,
    coxeter_elements,
    demazure_along_word,
    e,
    enumerate_group,
    euler_char,
    from_word,
    longest_element,
    ss_nonempty,
)
from schubert.cohomology import borel_character, lemma61_search
from schubert.report import run_check

from helpers import (freudenthal_char, random_small_character, reduced_words,
                     subword_bruhat_leq, weyl_dim)


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_01_adjoint_tangent_equivalence_sweep():
    # full-group sweep: H^0 of the tangent bundle carries the adjoint
    # character exactly when the semistable criterion holds for tau^{-1}
    budget = {"A2": 6, "A3": 24, "D4": 192, "A4": 120}
    d4_elapsed = None
    for name, order in budget.items():
        rep = run_check(build(name), "thmA")
        assert rep.passed, rep.counterexamples
        assert rep.universe_size == order
        if name == "D4":
            d4_elapsed = rep.elapsed
    assert d4_elapsed is not None and d4_elapsed <= 60.0
    report(f"tangent/adjoint equivalence exhaustive on A2 A3 D4 A4; "
           f"D4 sweep {d4_elapsed:.2f}s single-threaded (budget 60s)")


def test_02_euler_positivity_on_positive_roots():
    checked = 0
    for name in ("A2", "A3", "D4"):
        rs = build(name)
        for tau in enumerate_group(rs):
            for beta in rs.positive_roots:
                chi = euler_char(rs, tau, e(beta.weight))
                assert chi.is_effective(), (name, tau.reduced_word(), beta.coords)
                checked += 1
    report(f"euler characteristics of positive-root lines effective "
           f"({checked} pairs across A2 A3 D4)")


def test_03_inversion_sum_and_outside_vanishing():
    total = 0
    for name in ("A2", "A3", "D4"):
        rep = run_check(build(name), "thm42")
        assert rep.passed, rep.counterexamples
        total += rep.universe_size
    report(f"inversion-set sums match the adjoint and vanish outside "
           f"({total} (alpha, tau) pairs across A2 A3 D4)")


def test_04_demazure_vs_freudenthal_oracles():
    checked = 0
    for name in ("A2", "B2", "G2"):
        rs = build(name)
        word = longest_element(rs).reduced_word()
        for fw in itertools.product(range(3), repeat=rs.rank):
            lam = rs.weight(fw)
            dem = demazure_along_word(rs, word, e(lam))
            assert dem == freudenthal_char(rs, lam), (name, fw)
            assert dem.dimension() == weyl_dim(rs, lam), (name, fw)
            checked += 1
    report(f"Demazure along w0 == Freudenthal, dimensions == Weyl formula "
           f"({checked} dominant weights, A2 B2 G2, coords <= 2)")


def test_05_word_independence_random_d4():
    rs = build("D4")
    rng = random.Random(20260818)
    elements = [w for w in enumerate_group(rs) if w.length >= 2]
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 5000, "rejection sampling ran away"
        w = rng.choice(elements)
        words = list(itertools.islice(reduced_words(w), 2))
        if len(words) < 2:
            continue
        f = random_small_character(rs, rng)
        assert demazure_along_word(rs, words[0], f) == \
            demazure_along_word(rs, words[1], f), (words, f)
        done += 1
    report(f"composed operators word-independent on {done} random D4 "
           f"elements with two distinct reduced words")


def test_06_orbit_combinatorics_and_exponents():
    for name in ("A2", "A3", "D4"):
        rep = run_check(build(name), "lemma54_56")
        assert rep.passed, rep.counterexamples
    exponents = 0
    for name in ("A2", "A3", "A4", "D4", "B2", "B3"):
        rep = run_check(build(name), "prop51")
        assert rep.passed, rep.counterexamples
        exponents += rep.universe_size
    report(f"simple-image/orthogonality/factorization lemmas hold for every "
           f"ordering of A2 A3 D4; orbit exponents exist below h "
           f"({exponents} (c, alpha) pairs over A2-A4 D4 B2 B3)")


def test_07_staircase_powers_type_a():
    signs = set()
    for name in ("A1", "A2", "A3", "A4"):
        rep = run_check(build(name), "thmC_typeA")
        assert rep.passed, rep.counterexamples
        signs.add(rep.details["epsilon"])
    assert signs == {-1}
    report("staircase powers c^r are the minimal representatives with "
           "(c^r)^{-1}.0 = -(n+1) omega_r and signed-point Euler values "
           "(A1-A4, consistent sign -1)")


def test_08_cyclic_sums_extremal_type_a():
    for name in ("A2", "A3"):
        rep = run_check(build(name), "cor52_53_58")
        assert rep.passed, rep.counterexamples
        for row in rep.details["rows"]:
            assert row["min_full_power"] is not None
            if row["extremal"]:
                assert row["cyclic_sum_matches"]
                assert row["signed_euler_sum_matches"]
    report("cyclic power sweeps: some power carries the full adjoint for "
           "every Coxeter element; extremal A2/A3 sums equal (h-1)*adjoint "
           "and h*e^0")


def test_09_short_root_dot_search():
    expected_pairs = {"B2": 2, "B3": 3, "C3": 1, "F4": 3, "G2": 1}
    for name, alpha in expected_pairs.items():
        rs = build(name)
        found = lemma61_search(rs)
        assert found is not None, name
        assert found["alpha"] == alpha, (name, found)
        assert found["s_alpha_dot_beta"] == list(rs.highest_short_root.coords)
        assert found["nu_plus_alpha_is_root"] is True, name
        if name == "G2":
            # the one type where nu is not orthogonal to the returned alpha:
            # nu = 2a1 + a2 has <nu, a1_vee> = 1; the (alpha_1, alpha_2)
            # pair is still the canonical witness
            assert found["beta"] == [0, 1]
            assert found["pairing_nu_alpha"] == 1
        else:
            assert found["pairing_nu_alpha"] == 0, (name, found)
    report("dot-action search finds (alpha, beta) with s_alpha . beta = "
           "highest short root for B2 B3 C3 F4 G2 (orthogonal except G2, "
           "which returns the (alpha_1, alpha_2) witness)")


def test_10_b2_boundary_regression():
    # frozen 2026-08-18 from an independent pre-build string-formula
    # evaluation: chi(s1 s2 s1, char b) = 0, so the H^0 candidate is the
    # single weight -a1-a2
    rs = build("B2")
    tau = from_word(rs, (1, 2, 1))
    char_b = borel_character(rs)
    chi = euler_char(rs, tau, char_b)
    assert chi.is_zero
    candidate = chi + e(rs.weight_from_root_coords((-1, -1)))
    assert candidate.is_effective()
    assert candidate.termwise_leq(char_b)
    rep = run_check(rs, "remarkB2")
    assert rep.passed, rep.counterexamples
    assert rep.details["h0_candidate"] == "1*e[-1, 0]"
    report("B2 boundary example: chi(s1 s2 s1, char b) = 0 reproduces the "
           "frozen fixture; candidate e^{-a1-a2} effective and inside char b")


def test_11_structural_invariants():
    counts = {"A1": 2, "A2": 6, "A3": 12, "A4": 20, "B2": 8, "B3": 18,
              "C3": 18, "D4": 24, "E6": 72, "F4": 48, "G2": 12}
    for name, count in counts.items():
        assert len(build(name).roots) == count, name

    for name in ("A3", "B2", "G2"):
        rs = build(name)
        for w in enumerate_group(rs):
            assert len(w.inversion_set()) == w.length

    pairs = 0
    for name in ("A2", "A3", "B2"):
        rs = build(name)
        elements = list(enumerate_group(rs))
        for u in elements:
            for w in elements:
                assert bruhat_leq(u, w) == subword_bruhat_leq(rs, u, w)
                pairs += 1

    swept = []
    for name in ("A1", "A2", "A3", "A4", "A5", "A6",
                 "D3", "D4", "D5", "D6", "E6"):
        rep = run_check(build(name), "lemma26")
        assert rep.passed, name
        swept.append(name)
    report(f"root counts exact, |inversions| = length everywhere, Bruhat "
           f"order == subword oracle ({pairs} pairs), pairing bound swept "
           f"on {' '.join(swept)}")
