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
    compare_forms,
    levenshtein_distance,
    levenshtein_ratio,
    normalize_value,
    value_form,
    values_match,
)

from oracles import (
    oracle_canonicalize_time,
    oracle_levenshtein_distance,
    oracle_levenshtein_ratio,
    oracle_value_form,
    oracle_values_match,
)

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


def _random_pairs(alphabet: str, seed: int, longest: int, n: int = 40) -> list[tuple[str, str]]:
    rng = SplitMix64(seed)
    letters = list(alphabet)
    return [
        ("".join(rng.choice(letters) for _ in range(rng.randint(longest))),
         "".join(rng.choice(letters) for _ in range(rng.randint(longest))))
        for _ in range(n)
    ]


_DISTANCE_CASES = {
    "past_one_machine_word": _random_pairs("abcde ", 3, 200)
    + [("x" * 64, "y" * 65), ("a" * 65 + "b", "b" + "a" * 65), ("ab" * 40, "ba" * 40)],
    "non_ascii": _random_pairs("éü漢字ß a", 5, 90) + [("", "漢" * 70), ("Straße", "strasse")],
    "long_runs_of_one_character": _random_pairs("ab", 7, 150) + [("a" * 130, "a" * 64), ("a" * 70, "b" * 70)],
}


@pytest.mark.parametrize("cases", list(_DISTANCE_CASES.values()), ids=list(_DISTANCE_CASES))
def test_distance_equals_dp_oracle_and_is_symmetric(cases):
    for a, b in cases:
        distance = levenshtein_distance(a, b)
        assert distance == oracle_levenshtein_distance(a, b), (a, b)
        assert levenshtein_distance(b, a) == distance, (a, b)


@settings(max_examples=300, deadline=None)
@given(st.text("aab\u00e9\u6f22", max_size=140), st.text("aab\u00e9\u6f22", max_size=140))
def test_distance_property_equals_dp_oracle(a, b):
    assert levenshtein_distance(a, b) == oracle_levenshtein_distance(a, b) == levenshtein_distance(b, a)


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
    """A fuzzy verdict is the full ratio against the threshold, also at
    thresholds equal to the length-gap bound or to the ratio itself."""
    longest = max(len(p), len(r), 1)
    threshold = data.draw(
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([1.0 - abs(len(p) - len(r)) / longest, levenshtein_ratio(p, r)]),
        )
    )
    policy = MatchPolicy(fuzzy_threshold=threshold)
    assert values_match(p, r, "open", policy) == (levenshtein_ratio(p, r) >= threshold)


_VALUES = st.one_of(
    st.text("ab :.5pm", max_size=10),
    st.sampled_from(["5:30 pm", "17:30", " 5.30 PM", "noon", "at 6:15", "12 am", "00:00", "Pizza  Hut"]),
)


@settings(max_examples=500, deadline=None)
@given(
    pred=_VALUES,
    ref=_VALUES,
    group=st.sampled_from(["categorical", "time", "open", "profile"]),
    threshold=st.floats(0.0, 1.0),
    fuzzy_groups=st.frozensets(st.sampled_from(["categorical", "time", "open", "profile"])),
    canon=st.booleans(),
)
def test_compare_values_equals_oracle_and_is_symmetric(pred, ref, group, threshold, fuzzy_groups, canon):
    policy = MatchPolicy(fuzzy_threshold=threshold, fuzzy_groups=fuzzy_groups, time_canonicalization=canon)
    p, r = value_form(pred, group, policy), value_form(ref, group, policy)
    matched, ratio = compare_forms(p, r, group, policy)
    assert matched == oracle_values_match(pred, ref, group, threshold, set(fuzzy_groups), canon)
    assert ratio == oracle_levenshtein_ratio(
        oracle_value_form(pred, group, canon), oracle_value_form(ref, group, canon)
    )
    assert compare_forms(r, p, group, policy) == (matched, ratio)
    assert values_match(pred, ref, group, policy) == matched


_GROUPS = st.sampled_from(["categorical", "time", "open", "profile"])
_POLICIES = st.one_of(
    st.just(MatchPolicy()),
    st.just(MatchPolicy.exact()),
    st.builds(MatchPolicy, st.floats(0.0, 1.0), st.frozensets(_GROUPS), st.booleans()),
)


@settings(max_examples=500, deadline=None)
@given(value=st.one_of(_VALUES, st.text(max_size=12)), group=_GROUPS, policy=_POLICIES)
def test_a_value_matches_itself_under_every_policy(value, group, policy):
    """The premise of the shortcut ``values_match`` takes on equal raw values:
    their compared forms match, at a ratio of 1."""
    form = value_form(value, group, policy)
    assert compare_forms(form, form, group, policy) == (True, 1.0)
    assert values_match(value, value, group, policy)


def test_only_fuzzy_groups_take_a_ratio(monkeypatch):
    import dst_lab.postprocess as postprocess

    calls = []
    original = postprocess.levenshtein_ratio
    monkeypatch.setattr(postprocess, "levenshtein_ratio", lambda a, b: calls.append((a, b)) or original(a, b))
    policy = MatchPolicy()
    assert values_match("North", "north", "categorical", policy)
    assert values_match("5:30 pm", "17:30", "time", policy)
    assert not values_match("alpha", "alpah", "open", MatchPolicy.exact())
    assert calls == []
    assert values_match("Pizza Hut Fenditton", "pizza hut fen ditton", "open", policy)
    assert calls == [("pizza hut fenditton", "pizza hut fen ditton")]
    forms = [value_form(value, "categorical", policy) for value in ("North", "north")]
    assert compare_forms(*forms, "categorical", policy) == (True, 1.0)
    assert len(calls) == 2


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
