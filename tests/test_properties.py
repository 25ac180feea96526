"""Property tests: the fast Weyl-element paths against slow oracles, the
braid relations of the Demazure operators, and the streaming JSON writer
against json.dumps.

Random words come from hypothesis with a fixed derandomized seed and a
small example budget, so the suite stays deterministic and quick.
"""

import json
from collections import namedtuple
from enum import IntEnum

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from schubert import (Character, bruhat_leq, build, char_sorted_terms,
                      demazure_along_word, demazure_op, e, from_word, identity)
from schubert.report import canonical_json, write_json
from schubert.rootsys import Weight

from helpers import (LAYER_TYPES, element_of, fraction_height, gauss_jordan_inverse,
                     mul_from_word, peel_reduced_word, string_formula_along_word,
                     string_formula_demazure_op, subword_bruhat_leq, word_matrix)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=40)


def words(rank: int, max_letters: int):
    return st.lists(st.integers(1, rank), max_size=max_letters)


@PROPERTY_SETTINGS
@given(st.sampled_from(["B3", "F4"]), st.data())
def test_bruhat_matches_subword_oracle_on_random_pairs(name, data):
    rs = build(name)
    word = data.draw(words(rs.rank, 10), label="w")
    # a random subword of w's word makes u <= w likely, not certain
    sub = [i for i in word if data.draw(st.booleans(), label="keep")]
    w = mul_from_word(rs, word)
    for u in (mul_from_word(rs, sub), mul_from_word(rs, data.draw(words(rs.rank, 10), label="u"))):
        assert bruhat_leq(u, w) == subword_bruhat_leq(rs, u, w)
        assert bruhat_leq(w, u) == subword_bruhat_leq(rs, w, u)


@PROPERTY_SETTINGS
@given(st.sampled_from(["A4", "B3", "C4", "D5", "F4", "G2"]), st.data())
def test_element_steps_match_full_products(name, data):
    rs = build(name)
    word = data.draw(words(rs.rank, 30), label="word")
    mat = word_matrix(rs, word)
    w = element_of(rs, mat)
    assert from_word(rs, word) == w
    for i in range(1, rs.rank + 1):
        assert w * from_word(rs, (i,)) == mul_from_word(rs, word + [i])
    assert w.reduced_word() == peel_reduced_word(rs, mat)
    inv = w.inverse()
    assert inv == element_of(rs, gauss_jordan_inverse(mat))
    assert inv * w == identity(rs)


# m_ij from the product C_ij C_ji of Cartan entries
BRAID_M = {0: 2, 1: 3, 2: 4, 3: 6}


def characters(rank: int):
    term = st.tuples(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                     st.sampled_from([-2, -1, 1, 2]))
    return st.lists(term, min_size=1, max_size=5).map(
        lambda terms: sum((e(Weight(tuple(fw)), c) for fw, c in terms), Character.zero()))


@PROPERTY_SETTINGS
@given(st.sampled_from(["A3", "B3", "G2"]), st.data())
def test_demazure_braid_relations_on_random_characters(name, data):
    # D_i D_j D_i ... = D_j D_i D_j ... (m_ij factors each) and D_i^2 = D_i
    rs = build(name)
    f = data.draw(characters(rs.rank), label="f")
    for i in range(1, rs.rank + 1):
        once = demazure_op(rs, i, f)
        assert demazure_op(rs, i, once) == once
        for j in range(i + 1, rs.rank + 1):
            m = BRAID_M[rs.cartan[i - 1][j - 1] * rs.cartan[j - 1][i - 1]]
            left, right = f, f
            for k in range(m):
                left = demazure_op(rs, (i, j)[k % 2], left)
                right = demazure_op(rs, (j, i)[k % 2], right)
            assert left == right


@PROPERTY_SETTINGS
@given(st.sampled_from(LAYER_TYPES), st.data())
def test_demazure_identity_under_the_dot_action(name, data):
    # D_i(e^{s_i . mu}) = -D_i(e^mu) (Demazure 1974), with the dot action
    # s_i . mu = mu - (<mu, alpha_i^vee> + 1) alpha_i read off fw coordinates,
    # on both the packed kernel and the string-formula oracle
    rs = build(name)
    fw = data.draw(st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank), label="mu")
    i = data.draw(st.integers(1, rs.rank), label="i")
    alpha = rs.simple_roots[i - 1].weight.fw
    mu = Weight(tuple(fw))
    dotted = Weight(tuple(m - (fw[i - 1] + 1) * a for m, a in zip(fw, alpha)))
    for op in (demazure_op, string_formula_demazure_op):
        assert op(rs, i, e(dotted)) == -op(rs, i, e(mu))


@PROPERTY_SETTINGS
@given(st.sampled_from(["G2", "B3", "C4", "A7", "D6", "E6", "E7"]), st.data())
def test_sorted_terms_match_the_fraction_height_sort(name, data):
    rs = build(name)
    f = data.draw(characters(rs.rank), label="f")
    assert char_sorted_terms(rs, f) == sorted(
        f.items(), key=lambda kv: (fraction_height(rs, kv[0]), kv[0].fw))


@PROPERTY_SETTINGS
@given(st.sampled_from(["G2", "B3", "C4", "F4", "A7", "D6", "E6", "E7"]), st.data())
def test_packed_kernel_matches_the_string_formula_oracle(name, data):
    # coordinates in -3..3 give every string case m = -3 .. 3
    rs = build(name)
    f = data.draw(characters(rs.rank), label="f")
    i = data.draw(st.integers(1, rs.rank), label="i")
    assert demazure_op(rs, i, f) == string_formula_demazure_op(rs, i, f)
    word = data.draw(words(rs.rank, 4), label="word")
    assert demazure_along_word(rs, word, f) == string_formula_along_word(rs, word, f)


Pair = namedtuple("Pair", "first second")


class Row(list):
    pass


# Every scalar json writes, str with any code point but surrogates (control
# and non-ASCII characters included), big ints and nan/inf floats; dict
# keys of one sortable kind per dict, as sort_keys needs.
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
                | st.floats() | st.text())
JSON_KEYS = [st.text(), st.integers() | st.booleans() | st.floats(), st.none()]
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple) | st.lists(inner).map(Row)
                   | st.builds(Pair, inner, inner)
                   | st.one_of(*(st.dictionaries(key, inner) for key in JSON_KEYS))),
    max_leaves=40)


# A writer fault fails these two at the first example that shows it:
# shrinking one of their documents can run for many minutes, so they
# do not shrink.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@settings(derandomize=True, database=None, deadline=None, max_examples=200, phases=NO_SHRINK)
@given(JSON_VALUES)
def test_write_json_matches_json_dumps(doc):
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    blocks = []
    write_json(doc, blocks.append)
    assert "".join(blocks) == expected
    assert canonical_json(doc) == expected


class Small(IntEnum):
    ONE = 1


@pytest.mark.parametrize("value", [True, False, Small.ONE, [], [True, False], [1, True, 2],
                                   [1, Small.ONE], (1, 2, 3), 7, [3, -1, 2 ** 70]],
                         ids=["true", "false", "IntEnum", "empty list", "bools",
                              "ints and a bool", "int and IntEnum", "tuple of ints", "int",
                              "ints"])
def test_write_json_dict_leaves_match_json_dumps(value):
    # a dict of str keys whose values are all str, None, bools, exact ints or
    # lists of exact ints ([] too) is one record piece; an int subclass, a
    # bool in an int list or a tuple sends it through emit, value by value
    for doc in ({"k": value}, {"a": [{"b": value, "c": 0}], "k": value}):
        assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


RECORD = {"fw": [1, -2, 0], "mult": 3}
LATER = [
    ("same shape", {"fw": [0, 5, -7], "mult": -1}),
    ("an extra key", {"fw": [0, 5, -7], "mult": -1, "x": 2}),
    ("a missing key", {"fw": [0, 5, -7]}),
    ("a bool", {"fw": [0, 5, -7], "mult": True}),
    ("an IntEnum", {"fw": [0, 5, -7], "mult": Small.ONE}),
    ("an IntEnum in a list", {"fw": [0, Small.ONE, -7], "mult": 1}),
    ("a tuple", {"fw": (0, 5, -7), "mult": 1}),
    ("a shorter list", {"fw": [0, 5], "mult": 1}),
    ("an empty list", {"fw": [], "mult": 1}),
    ("a float", {"fw": [0, 5, -7], "mult": 1.0}),
    ("keys in another order", {"mult": 2, "fw": [2 ** 70, 5, -7]}),
    ("not a dict", [1, 2, 3]),
    ("an empty dict", {}),
    ("a str value", {"fw": [0, 5, -7], "mult": "x\u00e9\n"}),
    ("a str with %", {"fw": [0, 5, -7], "mult": "%s %d %%"}),
    ("a dict value", {"fw": [0, 5, -7], "mult": {"a": 1}}),
]


@pytest.mark.parametrize("later", [item for _, item in LATER], ids=[k for k, _ in LATER])
def test_write_json_records_match_json_dumps(later):
    # the first record's keys name the record writer of every item; it
    # writes a later item of those keys and record values in one piece,
    # one template per tuple of list lengths, and every other item goes
    # through emit
    for doc in ([RECORD, later, RECORD], {"terms": [RECORD, RECORD, later, None, RECORD]}):
        assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("first", [[1, 2], "fw", {1: 2, 3: [4]}, {"fw": [1, True], "mult": 1},
                                   {"fw": [], "mult": 1}, {}, {"a%s": [1], "%%": 2}],
                         ids=["a list", "a str", "non-str keys", "a bool in a list",
                              "an empty list", "an empty dict", "% in keys"])
def test_write_json_first_items_of_every_kind(first):
    for doc in ([first, RECORD, RECORD], [first, first, first]):
        assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Big(int):
    pass


# Values a record writes in one piece (str, among them ones holding %,
# non-ASCII text and control characters; None, bools, exact ints, lists of
# exact ints of any length, empty ones too) and values that send its item
# through emit: int subclasses, True in an int list, nested values.
FLAT_VALUES = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
               | st.lists(st.integers(-9, 9), max_size=5) | st.text(max_size=3)
               | st.sampled_from(["%", "%s", "%%d %(k)s", "h\u00e9\u2202\U0001d6fc",
                                  "\x00\t\n\x1f\x7f", "\u2028\"\\"]))
OTHER_VALUES = (st.integers().map(Big) | st.just(Small.ONE)
                | st.lists(st.integers(-9, 9) | st.just(True), min_size=1, max_size=3)
                | st.lists(FLAT_VALUES, max_size=2)
                | st.dictionaries(st.text(max_size=2), FLAT_VALUES, max_size=2))
RECORD_KEYS = st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True)


@st.composite
def record_lists(draw):
    """Records of one key set, mostly of flat values, a few of them with
    other values, and now and then an item of other keys or no record."""
    keys = draw(RECORD_KEYS, label="keys")

    def record(values):
        return st.fixed_dictionaries({k: values for k in keys})

    later = (record(FLAT_VALUES) | record(FLAT_VALUES | OTHER_VALUES)
             | st.dictionaries(st.text(max_size=3), FLAT_VALUES, max_size=3)
             | FLAT_VALUES)
    return [draw(record(FLAT_VALUES), label="first"),
            *draw(st.lists(later, max_size=6), label="later")]


@settings(derandomize=True, database=None, deadline=None, max_examples=300, phases=NO_SHRINK)
@given(record_lists())
def test_write_json_flat_records_match_json_dumps(rows):
    # at the top, in a dict and in a list, as a report nests its rows
    for doc in (rows, {"details": {"rows": rows}}, [[rows]]):
        blocks = []
        write_json(doc, blocks.append)
        assert "".join(blocks) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [{1, 2}, object(), [1, [{2}]], {"a": {"b": object()}},
                                 {(1, 2): 3}, {1: 2, "1": 3}, [{"a": 1}, {"a": {1}}],
                                 [{"a": 1}, {1: 2, "1": 3}], [{"a": None}, {"a": {1}}]],
                         ids=["set", "object", "nested set", "nested object", "tuple key",
                              "mixed keys", "a set after a record",
                              "mixed keys after a record", "a set after a flat record"])
def test_write_json_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        canonical_json(doc)
    assert str(got.value) == str(expected.value)
