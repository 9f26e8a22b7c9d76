"""Text-processing primitives, with property-based metric checks."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.textproc import (
    edit_distance,
    entropy,
    normalized_edit_distance,
    sentence_split,
    tokenize_words,
)

_words = st.text(alphabet="abcdefgh ", min_size=0, max_size=24)


def test_tokenize_extracts_words_with_apostrophes():
    assert tokenize_words("The baby's feet, 2 socks!") == ["the", "baby's", "feet", "2", "socks"]


def test_sentence_split_basic():
    text = "First sentence. Second one! And a fragment"
    assert sentence_split(text) == ["First sentence.", "Second one!", "And a fragment"]


def test_sentence_split_empty():
    assert sentence_split("   ") == []


def test_edit_distance_known_values():
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("", "abc") == 3
    assert edit_distance("same", "same") == 0


@given(_words, _words)
@settings(max_examples=60, deadline=None)
def test_edit_distance_symmetry(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


@given(_words, _words, _words)
@settings(max_examples=40, deadline=None)
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(_words, _words)
@settings(max_examples=60, deadline=None)
def test_normalized_edit_distance_in_unit_interval(a, b):
    value = normalized_edit_distance(a, b)
    assert 0.0 <= value <= 1.0


def test_entropy_uniform_is_log_n():
    assert math.isclose(entropy([5, 5, 5, 5]), math.log(4))


def test_entropy_point_mass_is_zero():
    assert entropy([10]) == 0.0
    assert entropy([10, 0, 0]) == 0.0


def test_entropy_ignores_zero_counts():
    assert math.isclose(entropy([3, 0, 3]), math.log(2))
