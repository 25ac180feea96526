"""Root-system construction: Cartan data, root enumeration, pairings."""

import copy
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest

from schubert import CartanType, Root, RootSystem, Weight, build, longest_element
from schubert.report import CHECKS, run_checks

from helpers import (coordinate_closure, dominant_representative, fraction_dominance_leq,
                     fraction_height, fraction_symmetrizers, gram_d, invert_rational)

ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20, "A5": 30,
    "B2": 8, "B3": 18, "B4": 32,
    "C2": 8, "C3": 18,
    "D3": 12, "D4": 24, "D5": 40,
    "E6": 72,
    "F4": 48,
    "G2": 12,
}


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_a_root_system_is_unchanged_by_use(name):
    # a fresh instance, not build's, so nothing has been found on it yet:
    # w0 and every applicable check leave each attribute bound to the same,
    # unchanged object, and w0 is found once
    rs = RootSystem(CartanType.parse(name))
    bound = dict(vars(rs))
    values = copy.deepcopy(bound)
    w0 = longest_element(rs)
    ids = [check.id for check in CHECKS if check.applies(rs.ct) is None]
    assert all(rep.passed for rep in run_checks(rs, ids))
    assert longest_element(rs) is w0
    assert vars(rs).keys() == bound.keys()
    assert all(vars(rs)[k] is v for k, v in bound.items())
    assert vars(rs) == values


@pytest.mark.parametrize("name,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(name, count):
    rs = build(name)
    assert len(rs.roots) == count
    assert len(rs.positive_roots) == count // 2


@pytest.mark.parametrize("text", ["H3", "B1", "D2", "E5", "E9", "F3", "G3", "A0", "", "A", "2A",
                                  "A²", "A٣"])
def test_invalid_types_rejected(text):
    with pytest.raises(ValueError):
        CartanType.parse(text)


def test_parse_accepts_lowercase():
    assert str(CartanType.parse("d4")) == "D4"


FROZEN_CARTANS = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "G2": [[2, -3], [-1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    # D4 in Bourbaki numbering: chain 1-2-3 with the extra edge 2-4,
    # so rows 1, 3, 4 all touch row 2
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


@pytest.mark.parametrize("name", sorted(FROZEN_CARTANS))
def test_cartan_matrices(name):
    rs = build(name)
    assert [list(row) for row in rs.cartan] == FROZEN_CARTANS[name]


def test_e6_cartan_shape():
    rs = build("E6")
    # node 2 hangs off node 4; the rest is the chain 1-3-4-5-6
    edges = {(i + 1, j + 1) for i in range(6) for j in range(6)
             if i < j and rs.cartan[i][j] == -1}
    assert edges == {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)}


SYMMETRIZERS = {
    "A3": [1, 1, 1],
    "B2": [2, 1],
    "B3": [2, 2, 1],
    "C3": [1, 1, 2],
    "F4": [2, 2, 1, 1],
    "G2": [1, 3],
}


@pytest.mark.parametrize("name", sorted(SYMMETRIZERS))
def test_symmetrizers(name):
    rs = build(name)
    assert list(rs.d) == SYMMETRIZERS[name]
    # d_i C_ij is symmetric by construction of d
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert rs.d[i] * rs.cartan[i][j] == rs.d[j] * rs.cartan[j][i]


HIGHEST = {
    # type: (highest root coords, highest short root coords)
    "A2": ((1, 1), (1, 1)),
    "B2": ((1, 2), (1, 1)),
    "B3": ((1, 2, 2), (1, 1, 1)),
    "C3": ((2, 2, 1), (1, 2, 1)),
    "F4": ((2, 3, 4, 2), (1, 2, 3, 2)),
    "G2": ((3, 2), (2, 1)),
    "D4": ((1, 2, 1, 1), (1, 2, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(HIGHEST))
def test_highest_roots(name):
    rs = build(name)
    long_c, short_c = HIGHEST[name]
    assert rs.highest_root.coords == long_c
    assert rs.highest_short_root.coords == short_c
    assert rs.highest_root.is_long or rs.simply_laced
    assert rs.highest_short_root.is_short or rs.simply_laced
    # both are dominant
    assert rs.highest_root.weight.is_dominant
    assert rs.highest_short_root.weight.is_dominant
    # the Coxeter number |R| / n is one more than the highest root's height
    assert rs.ct.coxeter_number == rs.highest_root.height + 1


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4"])
def test_fundamental_weights_dual_to_coroots(name):
    rs = build(name)
    for i, omega in enumerate(rs.fundamental_weights, start=1):
        for j in range(1, rs.rank + 1):
            assert rs.pairing(omega, j) == (1 if i == j else 0)
    assert rs.rho == sum(rs.fundamental_weights[1:], rs.fundamental_weights[0])


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2", "D4"])
def test_root_coordinate_round_trip(name):
    rs = build(name)
    for root in rs.roots:
        assert rs.root_coords(root.weight) == tuple(Fraction(c) for c in root.coords)
        assert rs.weight_from_root_coords(root.coords) == root.weight
        assert fraction_height(rs, root.weight) == root.height
        # both coordinate systems agree on negation
        assert (-root).weight == -root.weight


@pytest.mark.parametrize("name", ["B2", "B3", "C3", "F4", "G2"])
def test_long_short_split(name):
    rs = build(name)
    longs = [r for r in rs.roots if r.is_long]
    shorts = [r for r in rs.roots if r.is_short]
    assert len(longs) + len(shorts) == len(rs.roots)
    assert longs and shorts
    dmax = max(rs.d)
    assert all(r.d == dmax for r in longs)
    assert all(r.d == 1 for r in shorts)


def test_long_short_counts_g2_b3_c3():
    assert sum(r.is_long for r in build("G2").roots) == 6
    assert sum(r.is_long for r in build("B3").roots) == 12
    assert sum(r.is_long for r in build("C3").roots) == 6


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_pairing_root_is_integral_cartan_like(name):
    rs = build(name)
    for beta in rs.roots:
        for gamma in rs.roots:
            val = rs.pairing_root(beta.weight, gamma)
            assert isinstance(val, int)
            assert abs(val) <= 3
        assert rs.pairing_root(beta.weight, beta) == 2


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_reflections_permute_roots(name):
    rs = build(name)
    for i in range(1, rs.rank + 1):
        alpha = rs.simple_roots[i - 1]
        images = set()
        for root in rs.roots:
            # s_alpha(lam) = lam - <lam, alpha_vee> alpha
            img = root.weight - rs.pairing_root(root.weight, alpha) * alpha.weight
            assert rs.root_of(img) is not None
            images.add(img.fw)
            assert img - rs.pairing_root(img, alpha) * alpha.weight == root.weight
        assert len(images) == len(rs.roots)
        # s_i permutes the positive roots other than alpha_i
        flipped = [r for r in rs.positive_roots
                   if not rs.root_of(rs.reflect_simple(r.weight, i)).positive]
        assert [r.coords for r in flipped] == [alpha.coords]


def test_dominance_order_examples():
    rs = build("A2")
    zero = rs.zero()
    theta = rs.highest_root.weight
    assert rs.dominance_leq(zero, theta)
    assert not rs.dominance_leq(theta, zero)
    # alpha_1 and alpha_2 are incomparable
    a1 = rs.simple_roots[0].weight
    a2 = rs.simple_roots[1].weight
    assert not rs.dominance_leq(a1, a2)
    assert not rs.dominance_leq(a2, a1)
    # every positive root sits below the highest root
    for name in ("A3", "B3", "G2", "F4"):
        rsn = build(name)
        top = rsn.highest_root.weight
        assert all(rsn.dominance_leq(r.weight, top) for r in rsn.positive_roots)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                  "C3", "C4", "D4", "D5", "F4", "G2"])
def test_integer_dominance_matches_fraction_oracle(name):
    # every pair of roots; the fundamental weights and 0 add differences
    # outside the root lattice, which only the divisibility test rejects
    rs = build(name)
    weights = [r.weight for r in rs.roots] + list(rs.fundamental_weights) + [rs.zero()]
    for mu in weights:
        for lam in weights:
            assert rs.dominance_leq(mu, lam) == fraction_dominance_leq(rs, mu, lam)


def test_dominant_representative():
    rng = random.Random(11)
    for name in ("A2", "B2", "G2", "A3"):
        rs = build(name)
        for _ in range(25):
            lam = Weight(tuple(rng.randint(-4, 4) for _ in range(rs.rank)))
            dom = dominant_representative(rs, lam)
            assert dom.is_dominant


def test_weyl_orders():
    assert CartanType.parse("A4").weyl_order == 120
    assert CartanType.parse("B3").weyl_order == 48
    assert CartanType.parse("D4").weyl_order == 192
    assert CartanType.parse("G2").weyl_order == 12
    assert CartanType.parse("F4").weyl_order == 1152
    assert CartanType.parse("E8").weyl_order == 696729600


def test_build_accepts_type_or_string():
    assert build("A2") is build(CartanType.parse("A2"))


BUILD_ORACLE_TYPES = ([f"A{n}" for n in range(1, 10)] + [f"B{n}" for n in range(2, 9)]
                      + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 10)]
                      + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", BUILD_ORACLE_TYPES)
def test_integer_build_matches_fraction_oracle(name):
    # build states the symmetrizers and finds D * C^-1 in the integers;
    # the oracle derives d from the matrix and inverts C in Fractions
    rs = build(name)
    inv = invert_rational(rs.cartan)
    den = lcm(*(x.denominator for row in inv for x in row))
    assert rs.d == fraction_symmetrizers(rs.cartan)
    assert rs._den == den
    assert rs._scaled_inv == tuple(tuple(int(x * den) for x in row) for row in inv)


EDGE_TYPES = ([f"{family}{n}" for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
               for n in range(lo, 10)] + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", EDGE_TYPES)
def test_stated_edges_are_the_nonzero_cartan_entries(name):
    # the diagram is stated and the matrix derived from it; its edges read
    # back off the matrix in lexicographic order, the order of the keys
    # weyl.orientation makes
    rs = build(name)
    n = rs.rank
    assert rs._edges == tuple((i, k) for i in range(1, n + 1) for k in range(i + 1, n + 1)
                              if rs.cartan[i - 1][k - 1])


CLOSURE_ORACLE_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                        + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
                        + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", CLOSURE_ORACLE_TYPES)
def test_fw_closure_matches_the_coordinate_closure_oracle(name):
    # the engine reflects in fw coordinates and inherits each root's d; the
    # oracle reflects simple-root coordinates and measures d by the Gram form
    rs = build(name)
    oracle = coordinate_closure(rs)
    for attr, expected in oracle.items():  # Root == compares every field
        assert getattr(rs, attr) == expected, attr
    for beta in rs.roots:
        identity = sum(c * d * x for c, d, x in zip(beta.coords, rs.d, beta.weight.fw))
        assert identity == 2 * gram_d(rs, beta.coords) == 2 * beta.d


def _value_objects():
    rs = build("B3")
    root = rs.positive_roots[-1]
    return [CartanType("B", 3), Weight((1, -2, 0)), root, -root]


@pytest.mark.parametrize("obj", _value_objects(), ids=lambda obj: type(obj).__name__)
def test_value_classes_are_frozen_hashable_and_pickle(obj):
    twin = pickle.loads(pickle.dumps(obj))
    assert twin is not obj and twin == obj and hash(twin) == hash(obj)
    assert repr(twin) == repr(obj)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(obj, protocol)) == obj
    name = type(obj).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


def test_value_classes_compare_within_their_class():
    rs = build("A2")
    w = Weight((1, 1))
    assert w == Weight((1, 1)) and hash(w) == hash(Weight((1, 1)))
    assert w != Weight((1, 0)) and w != (1, 1) and w != rs.highest_root
    assert len({w, Weight((1, 1)), Weight((1, 0))}) == 2
    assert CartanType("A", 2) == CartanType.parse("a2") != "A2"
    assert len({CartanType("A", 2), CartanType.parse("A2"), CartanType("A", 3)}) == 2
    alpha = rs.highest_root
    assert alpha == Root(*(getattr(alpha, f) for f in Root.__slots__))
    assert alpha != -alpha and alpha != alpha.weight
    assert repr(CartanType("D", 4)) == "CartanType(family='D', rank=4)"
    assert repr(w) == "Weight(1, 1)" and repr(alpha) == "Root(1, 1)"
