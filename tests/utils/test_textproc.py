"""Text-processing primitives, with property-based metric checks."""

import math

import pytest
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


def _reference_edit_distance(a: str, b: str) -> int:
    """The classic two-row dynamic program: the oracle the bit-vector
    ``edit_distance`` must agree with on every pair."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def test_edit_distance_known_values():
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("", "abc") == 3
    assert edit_distance("same", "same") == 0


@pytest.mark.parametrize("a, b", [
    ("", ""),
    ("", "x"),
    ("x", ""),
    ("abc", "abc"),
    ("é" * 70, "é" * 70),
    ("a" * 64, "a" * 63 + "b"),
    ("a" * 65, "b" * 65),
    ("ab" * 40, "ba" * 40),
    ("portable hammock for camping " * 3, "camping hammock, portable " * 4),
    ("x" + "y" * 100, "y" * 100 + "x"),
    ("q" * 200, "q"),
])
def test_edit_distance_matches_the_dynamic_program_at_the_edges(a, b):
    # Empty, equal, and past one 64-bit word on either side.
    assert edit_distance(a, b) == _reference_edit_distance(a, b)
    assert edit_distance(b, a) == _reference_edit_distance(a, b)


@given(st.text(max_size=90), st.text(max_size=90))
@settings(max_examples=300, deadline=None)
def test_edit_distance_matches_the_dynamic_program(a, b):
    assert edit_distance(a, b) == _reference_edit_distance(a, b)


@given(_words, _words)
@settings(max_examples=200, deadline=None)
def test_edit_distance_matches_the_dynamic_program_on_a_small_alphabet(a, b):
    # Few distinct characters: long runs of matches, where carries in
    # the bit-vector addition travel far.
    assert edit_distance(a, b) == _reference_edit_distance(a, b)


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
