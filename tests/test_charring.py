"""Character arithmetic, Demazure operators, and the two weight oracles."""

import itertools
import random

import pytest

from schubert import (
    Character,
    adjoint_character,
    build,
    char_sorted_terms,
    char_to_str,
    demazure_along_word,
    demazure_op,
    e,
    from_word,
    longest_element,
)
from schubert import charring
from schubert.rootsys import Weight

from helpers import (E6_W0_WORD, bott_dot_walk, fraction_height, freudenthal_char,
                     random_element, random_small_character, string_formula_along_word, weyl_dim)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                                  "D4", "F4", "G2"])
def test_bott_at_w0_on_minus_two_rho(name):
    # w0 . (-2 rho) = 0 with l(w0) = N = |R+|, so Bott's theorem for the
    # flag variety gives (-1)^N D_{w0}(e^{-2 rho}) = ch V(0) = e^0, a
    # non-dominant weight checked against no run of the same operator
    rs = build(name)
    out = demazure_along_word(rs, longest_element(rs).reduced_word(),
                              e(rs.weight((-2,) * rs.rank)))
    assert (-1) ** len(rs.positive_roots) * out == e(rs.zero())


# per type, a box of fw coordinates (one range per coordinate) around
# -rho: it meets the chambers of e and w0, one between them, and walls.
# The rank-4 boxes widen only some coordinates, F4's the fewest, so that
# no u . lam is as large as rho there (dim V(rho) = 2^|R+|).
BOTT_BOXES = {
    "A1": [(-5, 3)],
    "A2": [(-4, 2)] * 2,
    "B2": [(-4, 2)] * 2,
    "G2": [(-4, 2)] * 2,
    "A3": [(-4, 2)] * 3,
    "B3": [(-3, 1)] * 3,
    "C3": [(-3, 1)] * 3,
    "A4": [(-3, 1)] * 4,
    "D4": [(-3, 1)] * 4,
    "B4": [(-2, 1)] * 2 + [(-2, 0)] * 2,
    "C4": [(-2, 1)] * 2 + [(-2, 0)] * 2,
    "F4": [(-2, 0)] * 2 + [(-2, 1)] * 2,
}


@pytest.mark.parametrize("name", sorted(BOTT_BOXES))
def test_bott_theorem_on_a_box_of_weights(name):
    # Bott's theorem for the flag variety: D_{w0}(e^lam) is
    # (-1)^l(u) ch V(u . lam) for the u with u . lam dominant, and 0 when
    # lam + rho is singular; u comes from a dot-action walk and ch V from
    # Freudenthal's recursion, neither of which runs a Demazure operator
    rs = build(name)
    word = longest_element(rs).reduced_word()
    irreducible = {}
    lengths = set()
    singular = 0
    for fw in itertools.product(*(range(low, high + 1) for low, high in BOTT_BOXES[name])):
        lam = rs.weight(fw)
        out = demazure_along_word(rs, word, e(lam))
        walk = bott_dot_walk(rs, lam)
        if walk is None:
            singular += 1
            assert out == Character.zero(), fw
            continue
        length, top = walk
        lengths.add(length)
        if top not in irreducible:
            irreducible[top] = freudenthal_char(rs, top)
        assert out == (-1) ** length * irreducible[top], fw
    assert singular and {0, 1, len(word)} <= lengths


def test_character_algebra():
    rs = build("A2")
    a = e(rs.weight((1, 0)), 2)
    b = e(rs.weight((1, 0)), -2) + e(rs.weight((0, 1)))
    s = a + b
    assert s.multiplicity(rs.weight((1, 0))) == 0
    assert len(s) == 1  # cancelled terms are pruned
    assert s - s == Character.zero()
    total = a + Character.zero()  # add works in place, on this copy only
    total.add(b)
    total.add(a, -1)
    assert total == b and len(total) == 2 and a == e(rs.weight((1, 0)), 2)
    total.add(b, -1)
    assert total == Character.zero() and len(total) == 0  # pruned in place
    assert (2 * s).dimension() == 2
    assert (-s).is_effective() is False
    assert s.termwise_leq(2 * s)
    assert Character.zero().is_zero
    assert char_to_str(rs, Character.zero()) == "0"
    with pytest.raises(TypeError):
        hash(s)


def test_character_round_trips_through_its_api_edge():
    for name in ("A1", "G2", "E7"):
        rs = build(name)
        rng = random.Random(name)
        terms = {}
        for _ in range(20):
            fw = tuple(rng.randint(-40, 40) for _ in range(rs.rank))
            terms[rs.weight(fw)] = rng.choice((-3, -1, 1, 2))
        f = Character(terms)
        assert dict(f.items()) == terms
        assert all(f.multiplicity(lam) == m for lam, m in terms.items())
        assert Character(dict(f.items())) == f
        assert f != Character(dict(list(terms.items())[1:]))
        assert f.multiplicity(rs.weight((2 ** 40,) * rs.rank)) == 0


def test_packing_bound():
    # rank 2 holds G2, whose Coxeter number 6 is the largest of that rank:
    # (h - 1) * max|fw_j| < 2^31 allows coordinates up to B
    rs = build("A2")
    w = rs.weight
    big = (2 ** 31 - 1) // 5
    for bad in ((big + 1, 0), (0, -big - 1)):
        with pytest.raises(ValueError, match="out of range"):
            e(w(bad))
    # s_2 reads the second coordinate, so no string runs for length B
    out = demazure_op(rs, 2, e(w((big, 1))))
    assert dict(out.items()) == {w((big, 1)): 1, w((big + 1, -1)): 1}
    assert out.multiplicity(w((big + 1, -1))) == 1
    out = demazure_op(rs, 2, e(w((-big, -2)), 3))
    assert dict(out.items()) == {w((-big - 1, 0)): -3}


def test_demazure_string_cases():
    rs = build("A2")
    w = rs.weight
    # m = 0: fixed
    assert demazure_op(rs, 1, e(w((0, 1)))) == e(w((0, 1)))
    # m = 1: two-term string
    assert demazure_op(rs, 1, e(w((1, 0)))) == e(w((1, 0))) + e(w((-1, 1)))
    # m = -1: annihilated
    assert demazure_op(rs, 1, e(w((-1, 0)))).is_zero
    assert demazure_op(rs, 1, e(w((-1, 2)))).is_zero
    # m = -2: one negative term
    assert demazure_op(rs, 1, e(w((-2, 0)))) == -e(w((0, -1)))
    # m = -3: two negative terms
    assert demazure_op(rs, 1, e(w((-3, 0)))) == -e(w((-1, -1))) - e(w((1, -2)))


def test_demazure_a2_anchors():
    # frozen from an independent by-hand string-formula evaluation
    rs = build("A2")
    w = rs.weight
    got = demazure_along_word(rs, (2, 1), e(w((1, 1))))
    expected = (e(w((1, 1))) + e(w((2, -1))) + e(w((-1, 2)))
                + e(w((0, 0))) + e(w((1, -2))))
    assert got == expected
    got2 = demazure_along_word(rs, (2, 1), e(w((2, -1))))
    expected2 = e(w((0, 0))) + e(w((-2, 1))) + e(w((-1, -1)))
    assert got2 == expected2
    # the third positive root dies under the inner operator
    assert demazure_along_word(rs, (2, 1), e(w((-1, 2)))).is_zero


def test_demazure_linearity_and_idempotence():
    rng = random.Random(3)
    for name in ("A2", "B2", "G2"):
        rs = build(name)
        for _ in range(40):
            f = random_small_character(rs, rng)
            g = random_small_character(rs, rng)
            i = rng.randint(1, rs.rank)
            assert demazure_op(rs, i, f + g) == demazure_op(rs, i, f) + demazure_op(rs, i, g)
            once = demazure_op(rs, i, f)
            assert demazure_op(rs, i, once) == once


BRAID_WORDS = {"A2": ((1, 2, 1), (2, 1, 2)),
               "B2": ((1, 2, 1, 2), (2, 1, 2, 1)),
               "G2": ((1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1))}


@pytest.mark.parametrize("name", sorted(BRAID_WORDS))
def test_braid_compatibility(name):
    rs = build(name)
    rng = random.Random(17)
    u, v = BRAID_WORDS[name]
    for _ in range(30):
        f = random_small_character(rs, rng)
        assert demazure_along_word(rs, u, f) == demazure_along_word(rs, v, f)


def test_along_word_edge_cases():
    rs = build("A2")
    f = e(rs.weight((1, -1)), 3)
    assert demazure_along_word(rs, (), f) == f
    with pytest.raises(ValueError):
        demazure_along_word(rs, (0,), f)
    with pytest.raises(ValueError):
        demazure_along_word(rs, (3,), f)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B3", "B4", "C3", "D4", "G2", "F4"])
def test_dominant_seed_skips_letters_yet_matches_the_oracle(name):
    # the skip of letters that fix the weight against the letter-by-letter
    # string formula, on reduced and non-reduced words, repeats and ()
    rs = build(name)
    rng = random.Random(name)
    top = 2 if rs.rank <= 3 else 1
    for trial in range(12):
        lam = rs.weight(rng.randint(0, top) for _ in range(rs.rank))
        kind = trial % 4
        if kind == 0:
            word = random_element(rs, rng).reduced_word()
        elif kind == 1:
            word = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(1, 12)))
        elif kind == 2:  # a reduced word with letters doubled in place
            word = tuple(i for i in random_element(rs, rng, 8).reduced_word()
                         for _ in range(rng.randint(1, 2)))
        else:
            word = ()
        seed = e(lam, rng.choice((1, -2, 3)))
        assert demazure_along_word(rs, word, seed) == string_formula_along_word(rs, word, seed), (
            lam, word)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_mirror_form_equals_the_string_formula(name):
    # random characters of every sign, each term with no mirror, its
    # mirror at the same multiplicity (a whole string, T = 0) or at
    # another; the zero character and characters that cancel to zero
    rs = build(name)
    rng = random.Random(name)
    for i in range(1, rs.rank + 1):
        zero = e(rs.zero()) - e(rs.zero())
        assert charring._demazure_mirror(rs, i, zero) == demazure_op(rs, i, zero) == zero
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 8)):
                lam = rs.weight(rng.randint(-3, 3) for _ in range(rs.rank))
                c = terms[lam] = rng.choice((-3, -2, -1, 1, 2, 3))
                kind = rng.randrange(3)
                if kind:
                    terms[rs.reflect_simple(lam, i)] = c if kind == 1 else rng.choice((-2, 1, 4))
            f = Character(terms)
            assert charring._demazure_mirror(rs, i, f) == demazure_op(rs, i, f), (i, f)
            assert charring._demazure_mirror(rs, i, f - f) == zero


def test_dominant_seed_applies_one_operator_per_step_of_its_coset(monkeypatch):
    rs = build("E6")
    calls = {"demazure_op": [], "_demazure_mirror": []}
    for name, log in calls.items():
        def counted(rs, i, f, kernel=getattr(charring, name), log=log):
            log.append(i)
            return kernel(rs, i, f)

        monkeypatch.setattr(charring, name, counted)
    omega1 = rs.fundamental_weights[0]
    assert from_word(rs, E6_W0_WORD) == longest_element(rs)
    for word in (E6_W0_WORD, longest_element(rs).reduced_word()):
        # w0 has length 36 and the stabilizer of omega1, W(D5), length 20;
        # the dominant walk applies each of its operators in mirror form
        for log in calls.values():
            log.clear()
        assert demazure_along_word(rs, word, e(omega1)) == freudenthal_char(rs, omega1)
        assert (len(calls["_demazure_mirror"]), len(calls["demazure_op"])) == (36 - 20, 0)
        # a non-dominant seed and a two-term seed take every letter, each
        # by the string formula
        for seed in (e(rs.weight((1, 0, 0, 0, 0, -1))), e(omega1) + e(rs.zero())):
            for log in calls.values():
                log.clear()
            demazure_along_word(rs, word, seed)
            assert (len(calls["_demazure_mirror"]), len(calls["demazure_op"])) == (0, 36)


@pytest.mark.parametrize("name,dim", [("A2", 8), ("B2", 10), ("G2", 14), ("D4", 28), ("A3", 15)])
def test_adjoint_character(name, dim):
    rs = build(name)
    adj = adjoint_character(rs)
    assert adj.dimension() == dim
    assert adj.multiplicity(rs.zero()) == rs.rank
    for root in rs.roots:
        assert adj.multiplicity(root.weight) == 1
    assert len(adj) == len(rs.roots) + 1
    # the adjoint is the irreducible with highest weight alpha_0 here
    assert adj == freudenthal_char(rs, rs.highest_root.weight)


# classical dimension table
WEYL_DIMS = [
    ("A2", (1, 0), 3), ("A2", (0, 1), 3), ("A2", (1, 1), 8), ("A2", (2, 2), 27),
    ("B2", (1, 0), 5), ("B2", (0, 1), 4), ("B2", (0, 2), 10), ("B2", (1, 1), 16),
    ("G2", (1, 0), 7), ("G2", (0, 1), 14), ("G2", (2, 0), 27),
    ("A3", (1, 0, 0), 4), ("A3", (0, 1, 0), 6), ("A3", (1, 0, 1), 15),
    ("D4", (1, 0, 0, 0), 8), ("D4", (0, 1, 0, 0), 28),
]


@pytest.mark.parametrize("name,fw,dim", WEYL_DIMS)
def test_weyl_dimensions(name, fw, dim):
    rs = build(name)
    assert weyl_dim(rs, rs.weight(fw)) == dim


def test_weyl_dim_rejects_nondominant():
    rs = build("A2")
    with pytest.raises(ValueError):
        weyl_dim(rs, rs.weight((-1, 0)))
    with pytest.raises(ValueError):
        freudenthal_char(rs, rs.weight((-1, 0)))


def test_freudenthal_properties():
    for name in ("A2", "B2", "G2"):
        rs = build(name)
        for fw in itertools.product(range(3), repeat=2):
            lam = rs.weight(fw)
            ch = freudenthal_char(rs, lam)
            assert ch.dimension() == weyl_dim(rs, lam)
            assert ch.multiplicity(lam) == 1
            assert ch.is_effective()
            # Weyl-group invariance at the extreme weight
            w0 = longest_element(rs)
            assert ch.multiplicity(w0.apply(lam)) == 1


def test_freudenthal_known_multiplicities():
    rs = build("A2")
    adj = freudenthal_char(rs, rs.weight((1, 1)))
    assert adj.multiplicity(rs.zero()) == 2
    # 27 of A2 = (2,2): weight 0 appears 3 times, weights at rho twice
    big = freudenthal_char(rs, rs.weight((2, 2)))
    assert big.multiplicity(rs.zero()) == 3
    assert big.multiplicity(rs.rho) == 2
    g2 = build("G2")
    assert freudenthal_char(g2, g2.weight((0, 1))).multiplicity(g2.zero()) == 2
    assert freudenthal_char(g2, g2.weight((1, 0))).multiplicity(g2.zero()) == 1


def test_sorted_terms_order():
    rs = build("A2")
    f = e(rs.weight((1, 1))) + e(rs.zero(), 2) + e(rs.weight((1, -2)), -1)
    terms = char_sorted_terms(rs, f)
    heights = [fraction_height(rs, wt) for wt, _ in terms]
    assert heights == sorted(heights)
    assert char_to_str(rs, f) == "-1*e[1, -2] + 2*e[0, 0] + 1*e[1, 1]"


def test_sorted_terms_of_zero_and_of_rank_one():
    assert char_sorted_terms(build("A2"), Character.zero()) == []
    a1 = build("A1")
    f = e(a1.weight((2,))) + e(a1.weight((-1,)), -3) + e(a1.zero(), 4)
    assert char_sorted_terms(a1, f) == [(Weight((-1,)), -3), (Weight((0,)), 4),
                                        (Weight((2,)), 1)]
    assert all(type(fw) is Weight and type(m) is int for fw, m in char_sorted_terms(a1, f))


def fraction_sorted_terms(rs, f):
    return sorted(f.items(), key=lambda kv: (fraction_height(rs, kv[0]), kv[0].fw))


def test_sorted_terms_match_the_fraction_height_sort():
    # w0 characters of omega_1 and omega_n; C^-1 denominators D = 1, 2, 3, 4, 8
    # (D6 has D = 2, so D5 brings D = 4)
    dens = set()
    for name in ("G2", "B3", "C4", "F4", "A7", "D5", "D6", "E6", "E7"):
        rs = build(name)
        dens.add(rs._den)
        word = longest_element(rs).reduced_word()
        for omega in (rs.fundamental_weights[0], rs.fundamental_weights[-1]):
            f = demazure_along_word(rs, word, e(omega))
            assert char_sorted_terms(rs, f) == fraction_sorted_terms(rs, f), (name, omega)
    assert dens == {1, 2, 3, 4, 8}


def test_demazure_matches_weyl_character_on_w0():
    # chi(w0, e^lam) is the full irreducible character
    rs = build("B2")
    w0 = longest_element(rs)
    lam = rs.weight((1, 1))
    assert demazure_along_word(rs, w0.reduced_word(), e(lam)) == freudenthal_char(rs, lam)
    assert weyl_dim(rs, lam) == 16


@pytest.mark.parametrize("name, k", [("F4", k) for k in range(1, 5)]
                         + [("E6", k) for k in range(1, 7)])
def test_demazure_w0_is_the_irreducible_character(name, k):
    # chi(w0, e^omega_k) against the Freudenthal recursion, every fundamental weight
    rs = build(name)
    omega = rs.fundamental_weights[k - 1]
    w0 = longest_element(rs)
    assert demazure_along_word(rs, w0.reduced_word(), e(omega)) == freudenthal_char(rs, omega)


def test_demazure_stability_along_subwords():
    # prefix characters are termwise below the full character
    rs = build("A3")
    w0 = longest_element(rs)
    lam = rs.weight((1, 0, 1))
    word = w0.reduced_word()
    prev = e(lam)
    for k in range(1, len(word) + 1):
        cur = demazure_along_word(rs, word[len(word) - k:], e(lam))
        assert prev.termwise_leq(cur)
        prev = cur
    assert prev == freudenthal_char(rs, lam)
