from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dst_lab.assembly import OracleNoisy
from dst_lab.corpus import DialogueState, SlotTaxonomy
import dst_lab.metrics as metrics
from dst_lab.metrics import (
    AlignmentError,
    UnclassifiedSlotError,
    evaluate,
    jga,
    references_from_corpus,
)
from dst_lab.postprocess import MatchPolicy

from oracles import (
    oracle_domain_accuracy,
    oracle_error_breakdown,
    oracle_group_f1,
    oracle_jga,
    oracle_jga_per_turn,
)


def _state(domain_slots: dict[str, dict[str, str]]) -> DialogueState:
    return DialogueState(list(domain_slots), {(d, s): v for d, slots in domain_slots.items() for s, v in slots.items()})


@pytest.fixture(scope="module")
def noisy_pair(taxonomy):
    """Synthetic references plus seeded noisy predictions keyed by turn."""
    from dst_lab.corpus import SynthConfig, synth_corpus

    corpus = synth_corpus(42, SynthConfig(n_dialogues=12, turns_per_dialogue=10, feature_dim=4))
    references = references_from_corpus(corpus)
    oracle = OracleNoisy(seed=5, drop_prob=0.12, typo_prob=0.15, insert_prob=0.1, time_reformat_prob=0.3)
    predictions = {
        (dlg_id, idx): oracle.perturb_state(dlg_id, idx, ref)
        for (dlg_id, idx), ref in references.items()
    }
    return predictions, references


def test_jga_identity(noisy_pair, taxonomy):
    _, references = noisy_pair
    assert evaluate(references, references, MatchPolicy(), taxonomy).jga_post == 1.0


def test_jga_all_empty_is_zero(noisy_pair, taxonomy):
    _, references = noisy_pair
    empties = {k: DialogueState() for k in references}
    assert evaluate(empties, references, MatchPolicy(), taxonomy).jga_post == 0.0


def test_jga_handbuilt_fixture(taxonomy):
    # ten turns: six exact, one fuzzy-rescued at 0.90, three misses -> 0.7
    references = {}
    predictions = {}
    for i in range(1, 7):
        state = _state({"hotel": {"area": "north"}})
        references[("d", 2 * i - 1)] = state
        predictions[("d", 2 * i - 1)] = _state({"hotel": {"area": "north"}})
    references[("d", 13)] = _state({"hotel": {"name": "pizza hut fen ditton"}})
    predictions[("d", 13)] = _state({"hotel": {"name": "pizza hut fenditton"}})
    for i, value in enumerate(["south", "east", "west"], start=7):
        references[("d", 2 * i + 1)] = _state({"hotel": {"area": value}})
        predictions[("d", 2 * i + 1)] = _state({"hotel": {"area": "north"}})
    policy = MatchPolicy()
    assert evaluate(predictions, references, policy, taxonomy).jga_post == pytest.approx(0.7)
    groups = taxonomy.classify
    assert oracle_jga(predictions, references, groups, 0.90, {"open", "profile"}, True) == pytest.approx(0.7)


def test_jga_missing_prediction_errors(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    partial = dict(list(predictions.items())[:-2])
    with pytest.raises(AlignmentError) as err:
        evaluate(partial, references, MatchPolicy(), taxonomy)
    assert len(err.value.missing) == 2


def test_jga_matches_oracle_on_noisy_fixture(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    policy = MatchPolicy()
    expected = oracle_jga(
        predictions, references, taxonomy.classify, policy.fuzzy_threshold,
        set(policy.fuzzy_groups), policy.time_canonicalization,
    )
    assert evaluate(predictions, references, policy, taxonomy).jga_post == pytest.approx(expected, abs=1e-12)


def test_exact_policy_equals_exact_set_match_oracle(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    expected = oracle_jga(predictions, references, taxonomy.classify, 1.0, set(), False)
    got = evaluate(predictions, references, MatchPolicy(), taxonomy).jga
    assert got == pytest.approx(expected, abs=1e-12)


def test_key_set_mismatch_fails_even_with_fuzzy(taxonomy):
    references = {("d", 1): _state({"hotel": {"area": "north", "name": "acorn"}})}
    predictions = {("d", 1): _state({"hotel": {"area": "north"}})}
    assert evaluate(predictions, references, MatchPolicy(), taxonomy).jga_post == 0.0


def test_empty_reference_turn_counts(taxonomy):
    references = {("d", 1): DialogueState()}
    predictions = {("d", 1): DialogueState()}
    assert evaluate(predictions, references, MatchPolicy(), taxonomy).jga_post == 1.0


# ---------------------------------------------------------------------------
# per-turn
# ---------------------------------------------------------------------------


def test_per_turn_identity(noisy_pair, taxonomy):
    _, references = noisy_pair
    per_turn = evaluate(references, references, MatchPolicy(), taxonomy).per_turn
    assert all(v == 1.0 for v, _ in per_turn.values())


def test_per_turn_single_dialogue_counts(taxonomy):
    references = {("d", 1): DialogueState(), ("d", 3): DialogueState()}
    per_turn = evaluate(references, references, MatchPolicy(), taxonomy).per_turn
    assert all(count == 1 for _, count in per_turn.values())


def test_per_turn_matches_oracle(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    policy = MatchPolicy()
    ours = evaluate(predictions, references, policy, taxonomy).per_turn
    expected = oracle_jga_per_turn(
        predictions, references, taxonomy.classify, policy.fuzzy_threshold,
        set(policy.fuzzy_groups), policy.time_canonicalization,
    )
    assert set(ours) == set(expected)
    for idx in expected:
        assert ours[idx][1] == expected[idx][1]
        assert ours[idx][0] == pytest.approx(expected[idx][0], abs=1e-12)


def test_per_turn_weighted_mean_equals_overall(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    policy = MatchPolicy()
    report = evaluate(predictions, references, policy, taxonomy)
    total = sum(count for _, count in report.per_turn.values())
    weighted = sum(v * count for v, count in report.per_turn.values()) / total
    assert weighted == pytest.approx(report.jga_post, abs=1e-12)


# ---------------------------------------------------------------------------
# group F1
# ---------------------------------------------------------------------------


def test_group_f1_perfect(noisy_pair, taxonomy):
    _, references = noisy_pair
    result = evaluate(references, references, MatchPolicy(), taxonomy).group_f1
    for group, (p, r, f1) in result.items():
        counts_exist = any(
            taxonomy.groups.get((d.lower(), s.lower())) == group
            for ref in references.values()
            for d, s in ref.slots
        )
        if counts_exist:
            assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_group_f1_profile_dropped(taxonomy):
    references = {
        ("d", 1): _state({"profile": {"name": "alexmorgan"}, "hotel": {"area": "north"}})
    }
    predictions = {("d", 1): _state({"hotel": {"area": "north"}})}
    result = evaluate(predictions, references, MatchPolicy(), taxonomy).group_f1
    assert result["profile"][1] == 0.0  # recall
    assert result["categorical"] == (1.0, 1.0, 1.0)


def test_group_f1_matches_oracle(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    policy = MatchPolicy()
    ours = evaluate(predictions, references, policy, taxonomy).group_f1
    expected = oracle_group_f1(
        predictions, references, taxonomy.classify, policy.fuzzy_threshold,
        set(policy.fuzzy_groups), policy.time_canonicalization,
    )
    for group in expected:
        for i in range(3):
            assert ours[group][i] == pytest.approx(expected[group][i], abs=1e-12)


def test_group_f1_harmonic_identity(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    result = evaluate(predictions, references, MatchPolicy(), taxonomy).group_f1
    for p, r, f1 in result.values():
        if p + r:
            assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)
        else:
            assert f1 == 0.0


def test_group_f1_unclassified_reference_slot_errors():
    taxonomy = SlotTaxonomy(groups={("hotel", "area"): "categorical"})
    references = {("d", 1): _state({"spa": {"sauna": "hot"}})}
    with pytest.raises(UnclassifiedSlotError, match="sauna"):
        evaluate(references, references, MatchPolicy(), taxonomy)


# ---------------------------------------------------------------------------
# error breakdown
# ---------------------------------------------------------------------------


def test_breakdown_perfect(noisy_pair, taxonomy):
    _, references = noisy_pair
    result = evaluate(references, references, MatchPolicy(), taxonomy, 6).slot_errors
    for entry in result.values():
        assert entry.insertions == 0
        assert entry.deletions == 0
        assert all(r == 1.0 for r in entry.matched_ratios)


def test_breakdown_single_insertion(taxonomy):
    references = {("d", 1): _state({"hotel": {"area": "north"}})}
    predictions = {("d", 1): _state({"hotel": {"area": "north", "name": "acorn"}})}
    result = evaluate(predictions, references, MatchPolicy(), taxonomy, 6).slot_errors
    assert result[("hotel", "name")].insertions == 1
    assert result[("hotel", "name")].deletions == 0


def test_breakdown_matches_oracle(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    policy = MatchPolicy()
    ours = evaluate(predictions, references, policy, taxonomy, 6).slot_errors
    expected = oracle_error_breakdown(
        predictions, references, taxonomy.classify, policy.time_canonicalization, 6
    )
    assert list(ours.keys()) == list(expected.keys())
    for key, entry in ours.items():
        assert entry.insertions == expected[key]["insertions"]
        assert entry.deletions == expected[key]["deletions"]
        assert entry.matched_ratios == pytest.approx(expected[key]["ratios"], abs=1e-12)


def test_breakdown_top_k_zero(noisy_pair, taxonomy):
    assert evaluate({}, {}, MatchPolicy(), top_k_errors=0).slot_errors == {}
    predictions, references = noisy_pair
    for top_k in (0, -1):
        assert evaluate(predictions, references, MatchPolicy(), taxonomy, top_k).slot_errors == {}


# ---------------------------------------------------------------------------
# relaxation property and report assembly
# ---------------------------------------------------------------------------


def test_exact_correct_turns_stay_correct_under_relaxed_policy(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    exact = MatchPolicy.exact()
    relaxed = MatchPolicy(fuzzy_threshold=0.7)
    from dst_lab.metrics import turn_correct

    for key in references:
        if turn_correct(predictions[key], references[key], exact, taxonomy):
            assert turn_correct(predictions[key], references[key], relaxed, taxonomy)


def test_domain_accuracy_separate(taxonomy):
    references = {("d", 1): _state({"hotel": {"area": "north"}})}
    predictions = {("d", 1): DialogueState(["hotel", "taxi"], {("hotel", "area"): "north"})}
    report = evaluate(predictions, references, MatchPolicy(), taxonomy)
    assert report.jga_post == 1.0
    assert report.domain_accuracy == 0.0


def test_evaluate_report_fields(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    report = evaluate(predictions, references, MatchPolicy(), taxonomy)
    assert report.n_turns == len(references)
    assert sum(c for _, c in report.per_turn.values()) == report.n_turns
    assert 0.0 <= report.jga <= report.jga_post <= 1.0 or report.jga >= 0.0
    obj = report.to_json_obj()
    assert obj["schema_version"] == 1
    assert len(obj["slot_errors"]) <= 6


def test_evaluate_matches_oracles_on_every_field(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    policy = MatchPolicy()
    groups = taxonomy.classify
    fuzzy = set(policy.fuzzy_groups)
    report = evaluate(predictions, references, policy, taxonomy, 6)

    assert report.jga == pytest.approx(
        oracle_jga(predictions, references, groups, 1.0, set(), False), abs=1e-12
    )
    assert report.jga_post == pytest.approx(
        oracle_jga(predictions, references, groups, policy.fuzzy_threshold, fuzzy, True), abs=1e-12
    )
    assert report.jga < report.jga_post  # the fixture has post-processing rescues
    assert report.domain_accuracy == pytest.approx(
        oracle_domain_accuracy(predictions, references), abs=1e-12
    )
    expected_per_turn = oracle_jga_per_turn(
        predictions, references, groups, policy.fuzzy_threshold, fuzzy, True
    )
    assert list(report.per_turn) == list(expected_per_turn)
    for idx, (value, count) in expected_per_turn.items():
        assert report.per_turn[idx][1] == count
        assert report.per_turn[idx][0] == pytest.approx(value, abs=1e-12)
    expected_f1 = oracle_group_f1(
        predictions, references, groups, policy.fuzzy_threshold, fuzzy, True
    )
    assert list(report.group_f1) == list(expected_f1)
    for group, (p, r, f1, *_counts) in expected_f1.items():
        assert report.group_f1[group] == pytest.approx((p, r, f1), abs=1e-12)
    expected_errors = oracle_error_breakdown(predictions, references, groups, True, 6)
    assert list(report.slot_errors) == list(expected_errors)
    for key, entry in report.slot_errors.items():
        assert entry.insertions == expected_errors[key]["insertions"]
        assert entry.deletions == expected_errors[key]["deletions"]
        assert entry.matched_ratios == pytest.approx(expected_errors[key]["ratios"], abs=1e-12)
    assert report.n_turns == len(references)
    assert report.n_dialogues == len({d for d, _ in references})


def test_evaluate_without_taxonomy_has_no_group_f1(noisy_pair):
    predictions, references = noisy_pair
    report = evaluate(predictions, references, MatchPolicy())
    assert report.group_f1 == {}
    assert report.slot_errors


def test_evaluate_aligns_once_and_calls_turn_correct_once_per_pair(noisy_pair, taxonomy, monkeypatch):
    predictions, references = noisy_pair
    calls = {"align": 0, "turn_correct": 0}

    def counting(name):
        original = getattr(metrics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(metrics, name, counting(name))
    evaluate(predictions, references, MatchPolicy(), taxonomy)
    assert calls["align"] == 1
    assert calls["turn_correct"] == len(references)


def _count_ratios(monkeypatch) -> list[tuple[str, str]]:
    """Patch ``postprocess.levenshtein_ratio`` to record the forms of each call."""
    import dst_lab.postprocess as postprocess

    calls: list[tuple[str, str]] = []
    original = postprocess.levenshtein_ratio

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(postprocess, "levenshtein_ratio", counting)
    return calls


def test_exact_turn_correct_takes_no_ratio(noisy_pair, taxonomy, monkeypatch):
    predictions, references = noisy_pair
    calls = _count_ratios(monkeypatch)
    verdicts = [metrics.turn_correct(predictions[k], references[k], MatchPolicy.exact(), taxonomy) for k in references]
    assert True in verdicts and False in verdicts
    assert calls == []


@pytest.mark.parametrize("policy", [MatchPolicy(), MatchPolicy.exact(), MatchPolicy(fuzzy_threshold=0.5)])
def test_evaluate_takes_one_ratio_per_reference_slot_the_prediction_holds(noisy_pair, taxonomy, monkeypatch, policy):
    predictions, references = noisy_pair
    calls = _count_ratios(monkeypatch)
    evaluate(predictions, references, policy, taxonomy)
    held = sum(
        len(metrics._normalized_slots(ref).keys() & metrics._normalized_slots(predictions[k]).keys())
        for k, ref in references.items()
    )
    assert held > 0
    assert len(calls) == held


def test_evaluate_reports_do_not_depend_on_earlier_calls(noisy_pair, taxonomy, tmp_path):
    """Forms are memoized per call: a report made after one under another
    policy equals the report made alone in a fresh interpreter."""
    predictions, references = noisy_pair
    policies = [MatchPolicy(), MatchPolicy(time_canonicalization=False)]
    in_sequence = [evaluate(predictions, references, p, taxonomy).to_json_obj() for p in policies]
    assert in_sequence[0] != in_sequence[1]
    src = str(Path(metrics.__file__).resolve().parents[1])
    script = (
        "import json, pickle, sys\n"
        "from dst_lab.metrics import evaluate\n"
        "with open(sys.argv[1], 'rb') as fh:\n"
        "    args = pickle.load(fh)\n"
        "print(json.dumps(evaluate(*args).to_json_obj()))"
    )
    for policy, report in zip(policies, in_sequence):
        path = tmp_path / "args.pickle"
        path.write_bytes(pickle.dumps((predictions, references, policy, taxonomy)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)}
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == report


def test_jga_equals_report_jga_post(noisy_pair, taxonomy):
    predictions, references = noisy_pair
    for policy in (MatchPolicy(), MatchPolicy.exact(), MatchPolicy(fuzzy_threshold=0.7)):
        report = evaluate(predictions, references, policy, taxonomy)
        assert jga(predictions, references, policy, taxonomy) == report.jga_post
