import pytest
from hypothesis import given, settings, strategies as st

from propermaps import words as W

letters = st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1]))
raw_words = st.lists(letters, max_size=12).map(tuple)


def test_reduce_cancels():
    assert W.reduce_word([("a", 1), ("a", -1)]) == ()
    assert W.word_from_str("acBC") == (("a", 1), ("c", 1), ("b", -1), ("c", -1))
    assert W.word_to_str(W.word_from_str("acBC")) == "acBC"


def test_inverse_and_conjugate():
    w = W.word_from_str("ab")
    assert W.mul(w, W.inv(w)) == ()
    assert W.conjugate(W.gen("a"), w) == W.word_from_str("abaBA")


@given(raw_words)
def test_reduce_idempotent(w):
    r = W.reduce_word(w)
    assert W.reduce_word(r) == r


@given(raw_words, raw_words)
def test_conjugacy_invariance(w, c):
    assert W.cyclic_normal_form(w) == W.cyclic_normal_form(W.conjugate(w, c))


@given(raw_words, raw_words)
@settings(max_examples=60)
def test_conjugator_finds_witness(w, c):
    w1 = W.conjugate(w, c)
    u = W.conjugator(w1, w)
    assert u is not None
    assert W.conjugate(w, u) == w1


def test_conjugator_none_for_nonconjugate():
    assert W.conjugator(W.word_from_str("ab"), W.word_from_str("aab")) is None


def test_root_of():
    assert W.root_of(W.word_from_str("abab")) == (W.word_from_str("ab"), 2)
    assert W.root_of(W.word_from_str("ab")) == (W.word_from_str("ab"), 1)


def test_bracketed_names_roundtrip():
    w = ((".:0", 1), ("0/1:2", -1))
    assert W.word_from_str(W.word_to_str(w)) == w


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "x1"]), st.sampled_from([1, -1])), max_size=12), st.integers(1, 3))
@settings(max_examples=400)
def test_cyclic_normal_form_is_least_rotation(letters, repeats):
    """The least rotation of the cyclic reduction, periodic words (repeats) included."""
    core, _ = W.cyclic_reduce(W.reduce_word(letters * repeats))
    expect = min((core[i:] + core[:i] for i in range(len(core))), default=())
    assert W.cyclic_normal_form(letters * repeats) == expect


def test_cyclic_normal_form_of_periodic_words():
    for text in ["abab", "BaBaBa", "aaaa", "abcabcabc", "aBaaBa", "cbacba"]:
        core = W.word_from_str(text)
        assert W.cyclic_normal_form(core) == min(core[i:] + core[:i] for i in range(len(core)))


@st.composite
def word_pairs(draw):
    """Raw word pairs, many of them conjugate: a word against an unreduced
    conjugate of itself, of its inverse or of a power of it, or against an
    unrelated word."""
    u, c = draw(raw_words), draw(raw_words)
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    other = draw(st.sampled_from(["unrelated", "conjugate", "inverse", "powers"]))
    if other == "unrelated":
        return u, c
    if other == "conjugate":
        return u, c + u + W.inv(c)
    if other == "inverse":
        return u, c + W.inv(u) + W.inv(c)
    return u * n, c + u * m + W.inv(c)


@given(word_pairs())
@settings(max_examples=400)
def test_is_conjugate_matches_normal_forms(pair):
    w1, w2 = pair
    assert W.is_conjugate(w1, w2) == (W.cyclic_normal_form(w1) == W.cyclic_normal_form(w2))
    assert W.is_conjugate(w2, w1) == W.is_conjugate(w1, w2)


def test_is_conjugate_edge_cases():
    a, b = W.gen("a"), W.gen("b")
    assert W.is_conjugate((), ())
    assert W.is_conjugate(a + W.inv(a), ())
    assert not W.is_conjugate(a, ())
    assert not W.is_conjugate(a + b, a)  # unequal lengths
    assert W.is_conjugate(b + a + a + b + W.inv(b), a + b + a)  # aab against aba
    assert not W.is_conjugate(a + a + b + b, a + b + a + b)  # equal letters, no rotation
    assert W.is_conjugate((a + b) * 3, (b + a) * 3)  # proper powers
    assert not W.is_conjugate((a + b) * 2, (a + b) * 3)
    assert not W.is_conjugate(a + b, W.inv(a + b))


def test_word_from_str_refuses_a_caseless_letter():
    """A bare letter with no case has no inverse spelling, so it is not read as one."""
    for text in ("中", "a中", "ßẞ中"):
        with pytest.raises(ValueError, match="^bad character '中' in word"):
            W.word_from_str(text)
    assert W.word_from_str("[中][中]^-1b") == (("b", 1),)
    assert W.word_from_str("ßé") == (("ß", 1), ("é", 1))
    assert W.word_from_str("É") == (("é", -1),)
