from __future__ import annotations

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dst_lab.cli import load_policy
from dst_lab.corpus import SplitMix64
from dst_lab.postprocess import (
    MatchPolicy,
    canonicalize_time,
    levenshtein_ratio,
    normalize_value,
    values_match,
)

from oracles import oracle_canonicalize_time, oracle_levenshtein_ratio

# ---------------------------------------------------------------------------
# canonicalize_time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [
        ("5:30 pm", "17:30"),
        ("12 am", "00:00"),
        ("noon", "12:00"),
        ("midnight", "00:00"),
        ("12 pm", "12:00"),
        ("12:30 am", "00:30"),
        ("5.30 pm", "17:30"),
        ("7", "07:00"),
        ("17:30", "17:30"),
        ("9:05am", "09:05"),
        ("9:05 a.m.", "09:05"),
        ("at 6:15", "06:15"),
        ("the big church", "the big church"),
        ("25:00", "25:00"),
        ("13 pm", "13 pm"),
        ("10:75", "10:75"),
        ("", ""),
    ],
)
def test_canonicalize_time(value, expected):
    assert canonicalize_time(value) == expected


def test_canonicalize_time_idempotent():
    samples = ["5:30 pm", "noon", "7", "17:30", "not a time", "12 am"]
    for value in samples:
        once = canonicalize_time(value)
        assert canonicalize_time(once) == once


def test_canonicalize_matches_independent_oracle():
    samples = [
        "5:30 pm", "5.30 pm", "12 am", "12 pm", "noon", "midnight", "7", "7 pm",
        "17:30", "09:05", "9:05am", "at 6:15", "25:00", "13 pm", "0:00", "11:59 pm",
        "giraffe", "10.45 am", "812", "1:1",
    ]
    for value in samples:
        assert canonicalize_time(value) == oracle_canonicalize_time(value), value


# ---------------------------------------------------------------------------
# levenshtein_ratio
# ---------------------------------------------------------------------------


def test_ratio_identity():
    assert levenshtein_ratio("abc", "abc") == 1.0


def test_ratio_kitten_sitting():
    # dynamic-programming oracle gives distance 3
    assert levenshtein_ratio("kitten", "sitting") == pytest.approx(1 - 3 / 7)


def test_ratio_total_deletion():
    assert levenshtein_ratio("a", "") == 0.0


def test_ratio_empty_pair():
    assert levenshtein_ratio("", "") == 1.0


def test_ratio_matches_dp_oracle_on_random_pairs():
    rng = SplitMix64(17)
    alphabet = "abcde "
    for _ in range(500):
        a = "".join(rng.choice(list(alphabet)) for _ in range(rng.randint(10)))
        b = "".join(rng.choice(list(alphabet)) for _ in range(rng.randint(10)))
        assert levenshtein_ratio(a, b) == oracle_levenshtein_ratio(a, b)


@settings(max_examples=300)
@given(
    st.text(string.ascii_lowercase, max_size=12),
    st.text(string.ascii_lowercase, max_size=12),
)
def test_ratio_properties(a, b):
    r = levenshtein_ratio(a, b)
    assert 0.0 <= r <= 1.0
    assert r == levenshtein_ratio(b, a)
    assert (r == 1.0) == (a == b)


# ---------------------------------------------------------------------------
# values_match
# ---------------------------------------------------------------------------


def test_pizza_hut_fuzzy_match():
    # DP oracle: distance 1 over max length 20 -> ratio 0.95 >= 0.90
    assert oracle_levenshtein_ratio("pizza hut fenditton", "pizza hut fen ditton") == 0.95
    assert values_match("Pizza Hut Fenditton", "pizza hut fen ditton", "open", MatchPolicy())


def test_time_canonicalization_both_sides():
    assert values_match("17:30", "5:30 pm", "time", MatchPolicy())
    assert not values_match("17:30", "5:30 pm", "time", MatchPolicy(time_canonicalization=False))


def test_categorical_exact_only():
    policy = MatchPolicy()
    assert not values_match("north", "south", "categorical", policy)
    assert values_match("North", " north ", "categorical", policy)


def test_symmetry_on_random_pairs():
    policy = MatchPolicy()
    rng = SplitMix64(31)
    alphabet = "abc :"
    for _ in range(300):
        a = "".join(rng.choice(list(alphabet)) for _ in range(rng.randint(8)))
        b = "".join(rng.choice(list(alphabet)) for _ in range(rng.randint(8)))
        for group in ("open", "profile", "time", "categorical"):
            assert values_match(a, b, group, policy) == values_match(b, a, group, policy)


@settings(max_examples=500, deadline=None)
@given(p=st.text("abc", max_size=12), r=st.text("abc", max_size=12), data=st.data())
def test_fuzzy_match_equals_full_ratio_at_any_threshold(p, r, data):
    """The length-gap exit never changes a fuzzy result, also at thresholds
    equal to the gap bound or to the ratio itself."""
    longest = max(len(p), len(r), 1)
    threshold = data.draw(
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([1.0 - abs(len(p) - len(r)) / longest, levenshtein_ratio(p, r)]),
        )
    )
    policy = MatchPolicy(fuzzy_threshold=threshold)
    assert values_match(p, r, "open", policy) == (levenshtein_ratio(p, r) >= threshold)


def test_degenerate_policy_is_case_insensitive_equality():
    policy = MatchPolicy(fuzzy_threshold=1.0, fuzzy_groups=frozenset(), time_canonicalization=False)
    assert values_match("Foo", "foo", "open", policy)
    assert not values_match("foo", "fo", "open", policy)
    assert not values_match("5:30 pm", "17:30", "time", policy)


def test_whitespace_normalization():
    assert normalize_value("  Pizza   Hut  ") == "pizza hut"
    assert values_match("pizza  hut", "Pizza Hut", "categorical", MatchPolicy())


def test_policy_validation_and_json_roundtrip(tmp_path):
    with pytest.raises(ValueError):
        MatchPolicy(fuzzy_threshold=1.5)
    policy = MatchPolicy(fuzzy_threshold=0.8, fuzzy_groups=frozenset({"open"}))
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy.to_json_obj()))
    rebuilt = load_policy(str(path))
    assert rebuilt == policy
    assert MatchPolicy.exact().fuzzy_groups == frozenset()
