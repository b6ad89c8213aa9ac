from __future__ import annotations

import logging
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dst_lab.cli as cli_module
import dst_lab.neural.probe as probe_module
import dst_lab.workers as workers_module
from dst_lab.cli import main
from dst_lab.corpus import SynthConfig, synth_corpus
from dst_lab.neural.probe import (
    ProbeHyper,
    build_probe_dataset,
    probe_retention,
)
from dst_lab.neural.train import TrainingDivergence, TrainingResult
from dst_lab.reporting import render_retention_table

from oracles import oracle_probe_retention


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
        (ProbeHyper(lr=float("nan")), "lr must be in (0, inf), got nan"),
        (ProbeHyper(lr=0.0), "lr must be in (0, inf), got 0.0"),
        (ProbeHyper(epochs=-1), "epochs must be in [0, 1048576], got -1"),
        (ProbeHyper(seed=-1), "seed must be in [0, 9223372036854775808), got -1"),
        (ProbeHyper(epochs=2**63), "epochs must be in [0, 1048576], got 9223372036854775808"),
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


# ---------------------------------------------------------------------------
# configs trained side by side
# ---------------------------------------------------------------------------

_SHAPES = ["--n-dialogues", "8", "--turns-per-dialogue", "4", "--feature-dim", "8", "--epochs", "15"]
_CONFIG = SynthConfig(
    n_dialogues=8, turns_per_dialogue=4, feature_dim=8, slots_per_dialogue=4, noise_sigma=0.5,
    mentions_per_turn=4, fixed_domain="hotel",
)


def _probe(tmp_path, seeds: list[int], n_queries: list[int], *extra: str):
    """``dst-lab probe`` at ``_SHAPES``; returns the click result and the CSV path."""
    out = tmp_path / "probe.csv"
    args = ["probe", "--seeds", ",".join(map(str, seeds)), *(a for n in n_queries for a in ("--n-queries", str(n)))]
    return CliRunner().invoke(main, [*args, *_SHAPES, *extra, "--out", str(out)]), out


def _serial_csv(seeds: list[int], n_queries: list[int]) -> str:
    rows = []
    for seed in seeds:
        accuracies = oracle_probe_retention(synth_corpus(seed, _CONFIG), n_queries, ProbeHyper(epochs=15, seed=seed))
        rows += [(seed, n, accuracies[n]) for n in n_queries]
    return render_retention_table(rows)


def _usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _spy_on_jobs(monkeypatch, action=None) -> list[tuple[int, int]]:
    """The (run, query count) jobs this process trains, in order; ``action(run,
    n_queries)`` runs first in whichever process trains the job."""
    trained, parent = [], os.getpid()
    train_job = probe_module._train_job

    def spy(inputs, run, n_queries):
        if action is not None:
            action(run, n_queries)
        if os.getpid() == parent:
            trained.append((run, n_queries))
        return train_job(inputs, run, n_queries)

    monkeypatch.setattr(probe_module, "_train_job", spy)
    return trained


@pytest.mark.parametrize("seeds, n_queries", [([0], [1, 8]), ([0, 1], [1, 4, 8])])
@pytest.mark.parametrize("cpus", [1, 2])
def test_probe_csv_equals_the_serial_oracle_at_any_cpu_count(monkeypatch, tmp_path, cpus, seeds, n_queries):
    expected = _serial_csv(seeds, n_queries)
    _usable_cpus(monkeypatch, cpus)
    pools = []
    pool = workers_module.ProcessPoolExecutor
    monkeypatch.setattr(workers_module, "ProcessPoolExecutor", lambda **kwargs: pools.append(kwargs) or pool(**kwargs))
    result, out = _probe(tmp_path, seeds, n_queries)
    assert result.exit_code == 0, result.output
    assert out.read_text(encoding="utf-8") == expected
    assert [kwargs["max_workers"] for kwargs in pools] == ([] if cpus == 1 else [1])
    assert multiprocessing.active_children() == []


def test_the_callers_share_is_the_same_on_every_call(monkeypatch, tmp_path):
    _usable_cpus(monkeypatch, 2)
    trained = _spy_on_jobs(monkeypatch)
    shares = []
    for _ in range(3):
        result, _ = _probe(tmp_path, [0, 1], [1, 4, 8])
        assert result.exit_code == 0, result.output
        shares.append(sorted(trained))
        trained.clear()
    # greedy longest-first over two bins at costs n_queries + 2: the caller
    # takes seed 0's three configs, the worker seed 1's
    assert shares == [[(0, 1), (0, 4), (0, 8)]] * 3


def test_configs_of_a_worker_that_dies_train_again_in_the_caller(monkeypatch, tmp_path):
    expected = _serial_csv([0, 1], [1, 8])
    _usable_cpus(monkeypatch, 2)
    parent = os.getpid()

    def die_in_a_worker(run, n_queries):
        if os.getpid() != parent:
            os._exit(1)

    trained = _spy_on_jobs(monkeypatch, die_in_a_worker)
    result, out = _probe(tmp_path, [0, 1], [1, 8])
    assert result.exit_code == 0, result.output
    assert out.read_text(encoding="utf-8") == expected
    assert sorted(trained) == [(0, 1), (0, 8), (1, 1), (1, 8)]
    assert multiprocessing.active_children() == []


def test_a_config_that_diverges_in_a_worker_is_a_one_line_error_naming_its_seed(monkeypatch, tmp_path):
    _usable_cpus(monkeypatch, 2)
    parent = os.getpid()
    train_with_retry = probe_module._train_with_retry

    def diverge_in_a_worker(stages, dataset, hyper, held_x):
        if os.getpid() != parent:
            raise TrainingDivergence("loss diverged to nan", [2.5, float("nan")])
        return train_with_retry(stages, dataset, hyper, held_x)

    monkeypatch.setattr(probe_module, "_train_with_retry", diverge_in_a_worker)
    trained = _spy_on_jobs(monkeypatch)
    # the caller trains seed 3's configs, the worker seed 5's
    result, out = _probe(tmp_path, [3, 5], [1, 8])
    assert sorted(trained) == [(0, 1), (0, 8)]
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == (
        "Error: probe training at seed 5 diverged at every learning rate tried: loss diverged to nan\n"
    )
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_when_several_seeds_diverge_the_first_in_seed_order_is_named(monkeypatch, tmp_path):
    _usable_cpus(monkeypatch, 2)
    result, out = _probe(tmp_path, [2, 1], [1, 8], "--lr", "1e6")
    assert result.exit_code == 1, result.output
    assert result.output.startswith("Error: probe training at seed 2 diverged at every learning rate tried: ")
    assert not out.exists()


def test_a_probe_that_trains_to_an_exploded_loss_fails_without_numpy_warnings(tmp_path):
    # at --lr 1e6 and each halving the loss stays finite but ends near 1e200,
    # and the held-out forward overflows; a fresh interpreter shows what
    # reaches the real stderr
    src = str(Path(probe_module.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)}
    env["DST_LAB_LOG"] = "ERROR"  # the retries' own warnings stay out
    out = tmp_path / "p.csv"
    args = ["probe", "--n-queries", "1", "--seeds", "0", "--lr", "1e6", "--epochs", "3", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "dst_lab.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        "Error: probe training at seed 0 diverged at every learning rate tried: loss rose from 1.804 to 7.075e+199\n"
    )
    assert not out.exists()


def test_probe_inputs_that_overflow_the_frozen_stages_are_one_error_line(tmp_path, monkeypatch, caplog):
    # SynthConfig refuses a noise this large, so the values are put in memory after synthesis;
    # no learning rate can mend the frozen stages' inputs, so no retry warning is logged
    synth = cli_module.synth_corpus

    def synth_overflowing(seed, config):
        dialogues = synth(seed, config)
        for turn in (turn for dialogue in dialogues for turn in dialogue.turns):
            turn.features = turn.features * 1e300
        return dialogues

    monkeypatch.setattr(cli_module, "synth_corpus", synth_overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, out = _probe(tmp_path, [0], [1])
    assert (result.exit_code, result.stdout) == (1, "")
    assert re.fullmatch(r"Error: probe inputs at seed 0 overflow the frozen stages: overflow encountered in \w+\n", result.stderr)
    assert not [record for record in caplog.records if record.levelno >= logging.WARNING]
    assert not out.exists()


def test_held_out_logits_that_are_not_finite_are_a_divergence_at_that_rate(monkeypatch, tmp_path):
    train = probe_module.train
    rates = []

    def train_to_an_infinite_readout(stages, dataset, lr, epochs):
        rates.append(lr)
        outcome = train(stages, dataset, lr=lr, epochs=epochs)
        for value in outcome.stages[-1].params().values():
            value.fill(float("inf"))
        return outcome

    monkeypatch.setattr(probe_module, "train", train_to_an_infinite_readout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, out = _probe(tmp_path, [0], [1])
    assert rates == [0.2, 0.1, 0.05, 0.025]
    assert (result.exit_code, result.output) == (
        1, "Error: probe training at seed 0 diverged at every learning rate tried: held-out logits diverged\n"
    )
    assert not out.exists()


class _Stage:
    """What a failed attempt allocates, standing for its trained stages."""


@pytest.mark.parametrize("path", ["divergence", "held-out"])
def test_a_retry_trains_without_the_failed_attempt(monkeypatch, path):
    attempts = []  # weak references to what each attempt allocated

    def train_and_fail(stages, dataset, lr, epochs):
        assert [ref() for ref in attempts] == [None] * len(attempts)
        stage = _Stage()
        attempts.append(weakref.ref(stage))
        if path == "divergence":
            raise TrainingDivergence(f"loss diverged at {lr}", [])  # its traceback holds this frame
        return TrainingResult([stage], [])

    def infinite_logits(stages, x):
        logits = np.full((len(x), 2), np.inf)
        attempts.append(weakref.ref(logits))
        return logits

    monkeypatch.setattr(probe_module, "train", train_and_fail)
    monkeypatch.setattr(probe_module, "forward", infinite_logits)
    with pytest.raises(TrainingDivergence) as info:
        probe_module._train_with_retry([], (np.zeros((2, 1)), np.zeros(2, dtype=np.int64)), ProbeHyper(), np.zeros((1, 1)))
    assert len(attempts) == (4 if path == "divergence" else 8)
    assert str(info.value) == ("loss diverged at 0.025" if path == "divergence" else "held-out logits diverged")
