"""Property tests: the fast Weyl-element paths against slow oracles.

Random words come from hypothesis with a fixed derandomized seed and a
small example budget, so the suite stays deterministic and quick.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from schubert import bruhat_leq, build, from_word, identity, simple_reflection

from helpers import (gauss_jordan_inverse, mul_from_word, peel_reduced_word,
                     subword_bruhat_leq)

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
    w = mul_from_word(rs, word)
    assert from_word(rs, word) == w
    for i in range(1, rs.rank + 1):
        assert w.times_simple(i) == w * simple_reflection(rs, i)
    assert w.reduced_word() == peel_reduced_word(w)
    inv = w.inverse()
    assert inv == gauss_jordan_inverse(w)
    assert inv * w == identity(rs)
