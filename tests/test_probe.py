from __future__ import annotations

import re

import pytest

import dst_lab.neural.probe as probe_module
from dst_lab.corpus import SynthConfig, synth_corpus
from dst_lab.neural.probe import (
    ProbeHyper,
    build_probe_dataset,
    probe_retention,
)


def test_build_probe_dataset_shapes(probe_corpus):
    dataset = build_probe_dataset(probe_corpus)
    n_user_turns = sum(len(d.user_turn_indices()) for d in probe_corpus)
    assert dataset.features.shape == (n_user_turns, 9, 8)
    assert dataset.labels.shape == (n_user_turns, 4)
    assert dataset.n_classes == 6
    assert dataset.labels.min() >= 0
    assert dataset.labels.max() < 6


def test_probe_dataset_rejects_nonuniform_corpus(small_corpus):
    # spread-mode corpora have variable mention schedules
    with pytest.raises(ValueError):
        build_probe_dataset(small_corpus)


def test_probe_empty_query_list(probe_corpus):
    assert probe_retention(probe_corpus, []) == {}


@pytest.mark.parametrize(
    "hyper, message",
    [
        (ProbeHyper(lr=float("nan")), "lr must be a positive finite number, got nan"),
        (ProbeHyper(lr=0.0), "lr must be a positive finite number, got 0.0"),
        (ProbeHyper(epochs=-1), "epochs must be >= 0, got -1"),
        (ProbeHyper(seed=-1), "seed must be >= 0, got -1"),
    ],
)
def test_probe_rejects_bad_hyper_before_training(probe_corpus, hyper, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        probe_retention(probe_corpus, [2], hyper)


def test_probe_deterministic(probe_corpus):
    hyper = ProbeHyper(lr=0.1, epochs=12, seed=4, d_model=8)
    a = probe_retention(probe_corpus, [2], hyper)
    b = probe_retention(probe_corpus, [2], hyper)
    assert a == b


def test_probe_accuracies_pinned(probe_corpus):
    # exact held-out accuracies of this config: any change to the probe's
    # arithmetic or to the stages it builds shows here
    hyper = ProbeHyper(lr=0.1, epochs=12, seed=4, d_model=8)
    result = probe_retention(probe_corpus, [1, 2], hyper)
    assert repr(result) == "{1: 0.125, 2: 0.08333333333333333}"


def test_probe_one_dialogue_corpus_rejected_before_training(monkeypatch):
    corpus = synth_corpus(
        0,
        SynthConfig(
            n_dialogues=1, turns_per_dialogue=2, feature_dim=8, mentions_per_turn=4, fixed_domain="hotel"
        ),
    )

    def no_training(*args):
        raise AssertionError("probe trained on a corpus it cannot score")

    monkeypatch.setattr(probe_module, "train", no_training)
    with pytest.raises(ValueError, match="at least 2 dialogues, got 1: one dialogue must be held out"):
        probe_retention(corpus, [1], ProbeHyper(epochs=3))


def test_probe_accuracy_in_unit_interval(probe_corpus):
    hyper = ProbeHyper(lr=0.1, epochs=12, seed=4, d_model=8)
    result = probe_retention(probe_corpus, [1, 2], hyper)
    assert set(result) == {1, 2}
    assert all(0.0 <= v <= 1.0 for v in result.values())


def test_probe_labels_match_transcript_values(probe_corpus):
    from dst_lab.corpus import ontology_values, scan_transcript_mentions, Speaker

    dataset = build_probe_dataset(probe_corpus)
    row = 0
    for dlg in sorted(probe_corpus, key=lambda d: d.id):
        for turn in dlg.turns:
            if turn.speaker is not Speaker.USER:
                continue
            mentions = scan_transcript_mentions(turn.transcript)
            for j, (domain, slot, value) in enumerate(mentions):
                assert ontology_values(domain, slot)[dataset.labels[row, j]] == value
            row += 1
    assert row == dataset.labels.shape[0]


def test_probe_requires_features():
    config = SynthConfig(
        n_dialogues=2, turns_per_dialogue=4, feature_dim=4,
        mentions_per_turn=4, fixed_domain="hotel",
    )
    corpus = synth_corpus(0, config)
    for dlg in corpus:
        for turn in dlg.turns:
            turn.features = None
    with pytest.raises(ValueError, match="no features"):
        build_probe_dataset(corpus)
