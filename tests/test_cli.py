from __future__ import annotations

import builtins
import csv
import dataclasses
import errno
import gc
import json
import multiprocessing
import os
import re
import shutil
import sys
import threading
import time
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from dst_lab import assembly, cli, state_codec
from dst_lab import corpus as corpus_module
from dst_lab import workers as workers_module
from dst_lab.cli import RunManifest, main
from dst_lab.corpus import SynthConfig, default_corrupted_ids, filter_corrupted, load_corpus, synthetic_taxonomy
from dst_lab.jsonio import JsonInputError
from dst_lab.metrics import evaluate, references_from_corpus, states_from_records
from dst_lab.neural import layers
from dst_lab.neural.probe import ProbeHyper
from dst_lab.postprocess import MatchPolicy
from dst_lab.reporting import render_report
from dst_lab.state_codec import Strategy, read_predictions

from oracles import oracle_build_prompt


@pytest.fixture()
def runner():
    return CliRunner()


def _synth(runner, out: Path, extra: list[str] | None = None) -> None:
    args = [
        "synth",
        "--seed", "3",
        "--n-dialogues", "4",
        "--turns-per-dialogue", "6",
        "--feature-dim", "8",
        "--out", str(out),
    ]
    result = runner.invoke(main, args + (extra or []))
    assert result.exit_code == 0, result.output


def _write_features(features_dir: Path, dialogue, replace: dict) -> Path:
    """Write the feature file of ``dialogue`` with the matrix of each turn
    index that ``replace`` maps in place of the turn's own; a turn mapped to
    None is left out. Returns the file's path."""
    path = features_dir / f"{dialogue.id}.f64"
    turns = [(t.index, replace.get(t.index, t.features)) for t in dialogue.turns]
    corpus_module.write_feature_sidecar(path, dialogue.id, [(index, mat) for index, mat in turns if mat is not None])
    return path


def test_synth_writes_reloadable_corpus(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    dialogues = load_corpus(tmp_path / "corpus", "synthetic_json")
    assert len(dialogues) == 4
    assert dialogues[0].turns[0].features is not None


def test_synth_determinism(runner, tmp_path):
    _synth(runner, tmp_path / "a")
    _synth(runner, tmp_path / "b")
    assert (tmp_path / "a" / "corpus.json").read_bytes() == (tmp_path / "b" / "corpus.json").read_bytes()


def test_synth_rejects_invalid_config(runner, tmp_path):
    result = runner.invoke(
        main, ["synth", "--turns-per-dialogue", "0", "--out", str(tmp_path / "x")]
    )
    assert result.exit_code != 0
    assert "--turns-per-dialogue" in result.output


def test_run_and_evaluate_exact_oracle(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    result = runner.invoke(
        main,
        [
            "run",
            "--corpus", str(tmp_path / "corpus"),
            "--strategy", "full",
            "--predictor", "exact",
            "--out", str(tmp_path / "run"),
        ],
    )
    assert result.exit_code == 0, result.output
    records = read_predictions(tmp_path / "run" / "predictions.ndjson")
    assert records and all(r.parsed_state is not None for r in records)
    assert (tmp_path / "run" / "context_lengths.csv").exists()
    assert (tmp_path / "run" / "run_summary.json").exists()

    result = runner.invoke(
        main,
        [
            "evaluate",
            "--predictions", str(tmp_path / "run" / "predictions.ndjson"),
            "--corpus", str(tmp_path / "corpus"),
            "--out", str(tmp_path / "report"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "JGA (exact match):     1.0000" in result.output
    assert "JGA (post-processed):  1.0000" in result.output
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report["jga"] == 1.0


def test_run_manifest_with_flag_overrides(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    manifest = {
        "corpus": str(tmp_path / "corpus"),
        "strategy": "compressed",
        "predictor": "noisy",
        "seed": 9,
        "n_queries": 4,
        "out": str(tmp_path / "run"),
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    result = runner.invoke(
        main, ["run", "--manifest", str(manifest_path), "--predictor", "exact"]
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "run" / "run_summary.json").read_text())
    assert summary["manifest"]["predictor"] == "exact"
    assert summary["manifest"]["n_queries"] == 4


@pytest.mark.parametrize(
    "field,value",
    [
        ("workers", "2"),
        ("workers", True),
        ("n_queries", 2.0),
        ("seed", None),
        ("compress_current", 1),
        ("drop_prob", "0.1"),
        ("drop_prob", False),
        ("exclude_ids", "d1"),
        ("exclude_ids", [1]),
        ("corpus", 3),
        ("agent_asr", 0),
    ],
)
def test_run_rejects_mistyped_manifest_field(runner, tmp_path, field, value):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"corpus": "x", "strategy": "full", field: value}))
    result = runner.invoke(main, ["run", "--manifest", str(manifest_path)])
    assert result.exit_code == 2, result.output
    assert re.search(re.escape(f"{manifest_path}:1:") + rf"\d+: {field}(\[0\])? must be", result.output), result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "text,message",
    [("[1, 2]", "expected a JSON object"), ('{"corpus": "x"}', "missing field 'strategy'"), ("{", "malformed JSON")],
)
def test_run_rejects_malformed_manifest(runner, tmp_path, text, message):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(text)
    result = runner.invoke(main, ["run", "--manifest", str(manifest_path)])
    assert result.exit_code == 2, result.output
    where = re.escape(f"Invalid value for --manifest: {manifest_path}:1:") + r"\d+: "
    assert re.search(where + re.escape(message), result.output), result.output


def test_run_rejects_unknown_manifest_field(runner, tmp_path):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"corpus": "x", "strategy": "full", "llm": "big"}))
    result = runner.invoke(main, ["run", "--manifest", str(manifest_path)])
    assert result.exit_code != 0
    assert "unknown manifest fields" in result.output


def test_run_rejects_manifest_policy_field(runner, tmp_path):
    """``policy`` is not a run setting: ``evaluate --policy`` chooses it."""
    _synth(runner, tmp_path / "corpus")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(
        json.dumps({"corpus": str(tmp_path / "corpus"), "strategy": "full", "policy": "standard"})
    )
    result = runner.invoke(main, ["run", "--manifest", str(manifest_path), "--out", str(tmp_path / "run")])
    assert result.exit_code != 0
    assert "unknown manifest fields: ['policy']" in result.output
    assert not (tmp_path / "run").exists()


def test_run_rejects_invalid_compressor_config(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    result = runner.invoke(
        main,
        [
            "run",
            "--corpus", str(tmp_path / "corpus"),
            "--strategy", "compressed",
            "--n-queries", "0",
            "--out", str(tmp_path / "run"),
        ],
    )
    assert result.exit_code != 0


@pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--workers", "-3"), ("--n-queries", "0")])
def test_run_rejects_non_positive_counts(runner, tmp_path, flag, value):
    _synth(runner, tmp_path / "corpus")
    result = runner.invoke(
        main,
        ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", flag, value, "--out", str(tmp_path / "run")],
    )
    assert result.exit_code == 2, result.output
    assert f"Invalid value for {flag}: must be in [1, 1048576], got {value}" in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("stride", 0, "must be in [1, 1048576], got 0"),
        ("d_model", 0, "must be in [1, 1048576], got 0"),
        ("n_heads", -2, "must be in [1, 1048576], got -2"),
        ("n_heads", 3, "must divide d_model=16, got 3"),
        ("n_layers", 0, "must be in [1, 1048576], got 0"),
        ("budget_rows", 0, "must be in [1, 1048576], got 0"),
        ("drop_prob", 1.5, "must be in [0, 1], got 1.5"),
        ("typo_prob", -0.1, "must be in [0, 1], got -0.1"),
        ("insert_prob", float("nan"), "malformed JSON: NaN is not JSON"),
        ("time_reformat_prob", float("inf"), "malformed JSON: Infinity is not JSON"),
    ],
)
def test_run_rejects_out_of_range_manifest_field(runner, tmp_path, field, value, message):
    _synth(runner, tmp_path / "corpus")
    manifest = {"corpus": str(tmp_path / "corpus"), "strategy": "compressed", "out": str(tmp_path / "run")}
    manifest[field] = value
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    result = runner.invoke(main, ["run", "--manifest", str(manifest_path)])
    assert result.exit_code == 2, result.output
    # json.dumps writes NaN and Infinity, which the manifest's reader rejects
    where = "--manifest" if message.startswith("malformed JSON") else f"field '{field}'"
    if field == "budget_rows":
        where = "--budget-rows"  # a field that a flag of run sets is named by the flag
    assert f"Invalid value for {where}: " in result.output and message in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field, value", [("insert_prob", float("nan")), ("time_reformat_prob", float("-inf"))])
def test_a_non_finite_value_built_in_python_fails_its_range_check(tmp_path, field, value):
    manifest = RunManifest(corpus=str(tmp_path), strategy="full", out=str(tmp_path / "run"), **{field: value})
    with pytest.raises(click.BadParameter, match=re.escape(f"must be in [0, 1], got {value}")):
        manifest.check_ranges()
    with pytest.raises(JsonInputError, match=re.escape(f"fuzzy_threshold must be in [0, 1], got {value}")):
        cli._policy({"fuzzy_threshold": value})


@pytest.mark.parametrize("compress_current", ["--compress-current", "--no-compress-current"])
def test_context_lengths_csv_matches_assembled_contexts(runner, tmp_path, monkeypatch, compress_current):
    _synth(runner, tmp_path / "corpus")
    assembled: dict[int, list[int]] = {}
    original = assembly.assemble

    def recording_assemble(*args, **kwargs):
        context = original(*args, **kwargs)
        assembled.setdefault(context.bookkeeping[-1].turn_index, []).append(context.total_rows)
        return context

    monkeypatch.setattr(assembly, "assemble", recording_assemble)
    result = runner.invoke(
        main,
        [
            "run",
            "--corpus", str(tmp_path / "corpus"),
            "--strategy", "compressed",
            "--n-queries", "3",
            compress_current,
            "--out", str(tmp_path / "run"),
        ],
    )
    assert result.exit_code == 0, result.output
    with open(tmp_path / "run" / "context_lengths.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {int(r["turn_index"]): float(r["mean_rows"]) for r in rows} == {
        n: float(np.mean(totals)) for n, totals in assembled.items()
    }


def test_run_determinism_across_invocations_and_workers(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    base = [
        "run",
        "--corpus", str(tmp_path / "corpus"),
        "--strategy", "compressed",
        "--predictor", "noisy",
        "--seed", "11",
    ]
    for name, workers in (("r1", 1), ("r2", 1), ("r3", 2)):
        result = runner.invoke(main, base + ["--out", str(tmp_path / name), "--workers", str(workers)])
        assert result.exit_code == 0, result.output
    p1 = (tmp_path / "r1" / "predictions.ndjson").read_bytes()
    assert p1 == (tmp_path / "r2" / "predictions.ndjson").read_bytes()
    assert p1 == (tmp_path / "r3" / "predictions.ndjson").read_bytes()


def test_run_starts_no_more_worker_processes_than_dialogues(runner, tmp_path, monkeypatch):
    # the pool starts all of its max_workers processes at the first submit
    _synth(runner, tmp_path / "corpus", ["--n-dialogues", "2"])
    monkeypatch.setattr(workers_module, "_usable_cpus", lambda: 4)
    pool_sizes = []

    class RecordingPool(workers_module.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pool_sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(workers_module, "ProcessPoolExecutor", RecordingPool)
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "compressed", "--predictor", "noisy"]
    for name, workers in (("one", "1"), ("four", "4")):
        result = runner.invoke(main, base + ["--workers", workers, "--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
    assert pool_sizes == [2]
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "four" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_run_starts_no_more_worker_processes_than_usable_cpus(runner, tmp_path, monkeypatch, cpus):
    _synth(runner, tmp_path / "corpus")
    monkeypatch.setattr(workers_module, "_usable_cpus", lambda: cpus)
    pool_sizes = []
    pool = workers_module._pool
    monkeypatch.setattr(workers_module, "_pool", lambda work, workers: pool_sizes.append(workers) or pool(work, workers))
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "compressed", "--predictor", "noisy"]
    for workers in (1, 2, 10**6):
        result = runner.invoke(main, base + ["--workers", str(workers), "--out", str(tmp_path / str(workers))])
        assert result.exit_code == 0, result.output
    # four dialogues: --workers 1 takes no pool, the others min(--workers, usable CPUs, 4) workers
    assert pool_sizes == [size for size in (min(2, cpus), min(cpus, 4)) if size > 1]
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
        assert (tmp_path / str(10**6) / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    summary = json.loads((tmp_path / str(10**6) / "run_summary.json").read_text())
    assert summary["manifest"]["workers"] == 10**6
    assert multiprocessing.active_children() == []


def test_run_isolates_per_dialogue_failures(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    # remove one dialogue's feature file: embedding it must fail, others run
    victim = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    (tmp_path / "corpus" / "features" / f"{victim}.f64").unlink()
    result = runner.invoke(
        main,
        [
            "run",
            "--corpus", str(tmp_path / "corpus"),
            "--strategy", "full",
            "--out", str(tmp_path / "run"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "1 dialogue(s) failed" in result.output
    summary = json.loads((tmp_path / "run" / "run_summary.json").read_text())
    assert [f["dialogue_id"] for f in summary["failures"]] == [victim]
    records = read_predictions(tmp_path / "run" / "predictions.ndjson")
    assert records
    assert all(r.dialogue_id != victim for r in records)


def test_run_embeds_no_turn_its_contexts_do_not_read(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--predictor", "noisy"]
    result = runner.invoke(main, base + ["--strategy", "multimodal", "--out", str(tmp_path / "all")])
    assert result.exit_code == 0, result.output
    # a middle agent turn of one dialogue and the trailing agent turn of another
    first, second = load_corpus(tmp_path / "corpus", "synthetic_json")[:2]
    _write_features(tmp_path / "corpus" / "features", first, {2: None})
    _write_features(tmp_path / "corpus" / "features", second, {6: None})

    result = runner.invoke(main, base + ["--strategy", "multimodal", "--out", str(tmp_path / "mm")])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "mm" / "run_summary.json").read_text())["failures"] == []
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "mm" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    # the spoken contexts of user turns 3 and 5 hold turn 2; no context holds turn 6
    result = runner.invoke(main, base + ["--strategy", "full", "--out", str(tmp_path / "full")])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "full" / "run_summary.json").read_text())
    assert [f["dialogue_id"] for f in summary["failures"]] == [first.id]



def test_context_lengths_count_only_dialogues_that_succeeded(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    dialogues = load_corpus(tmp_path / "corpus", "synthetic_json")
    victim = dialogues[0].id
    _write_features(tmp_path / "corpus" / "features", dialogues[0], {2: None})
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full"]
    result = runner.invoke(main, base + ["--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "run" / "run_summary.json").read_text())
    assert [f["dialogue_id"] for f in summary["failures"]] == [victim]
    with open(tmp_path / "run" / "context_lengths.csv", newline="") as fh:
        n_turns = {int(r["turn_index"]): int(r["n_turns"]) for r in csv.DictReader(fh)}
    expected: dict[int, int] = {}
    for dlg in dialogues[1:]:
        for n in dlg.user_turn_indices():
            expected[n] = expected.get(n, 0) + 1
    assert n_turns == expected
    # the same report as a run that never loads the failed dialogue
    result = runner.invoke(main, base + ["--exclude-ids", victim, "--out", str(tmp_path / "excluded")])
    assert result.exit_code == 0, result.output
    csv_name = "context_lengths.csv"
    assert (tmp_path / "run" / csv_name).read_bytes() == (tmp_path / "excluded" / csv_name).read_bytes()


@pytest.mark.parametrize("strategy, missing_turn", [("multimodal", 3), ("full", 2), ("compressed", 2)])
def test_run_failure_names_the_lowest_read_turn_without_features(runner, tmp_path, strategy, missing_turn):
    _synth(runner, tmp_path / "corpus")
    dialogue = load_corpus(tmp_path / "corpus", "synthetic_json")[1]
    victim = dialogue.id
    # agent turn 2 and user turns 3 and 5: the spoken contexts read all three,
    # the multimodal ones only the user turns
    _write_features(tmp_path / "corpus" / "features", dialogue, {5: None, 2: None, 3: None})
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", strategy]
    result = runner.invoke(main, base + ["--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "run" / "run_summary.json").read_text())
    assert summary["failures"] == [
        {"dialogue_id": victim, "error": f"ValueError: turn {missing_turn} of dialogue {victim} has no features"}
    ]
    # every other dialogue is written as if the victim were excluded
    result = runner.invoke(main, base + ["--exclude-ids", victim, "--out", str(tmp_path / "excluded")])
    assert result.exit_code == 0, result.output
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "excluded" / name).read_bytes()


@pytest.mark.parametrize(
    "strategy, extra, expected",
    [
        ("multimodal", [], [1, 3, 5]),
        ("full", [], [1, 2, 3, 4, 5]),
        ("compressed", [], [1, 2, 3, 4, 5]),
        ("compressed", ["--compress-current"], [1, 2, 3, 4, 5]),
    ],
)
def test_run_reads_each_sidecar_its_contexts_read_once(runner, tmp_path, monkeypatch, strategy, extra, expected):
    _synth(runner, tmp_path / "corpus")
    dialogues = load_corpus(tmp_path / "corpus", "synthetic_json")
    victim = dialogues[2].id
    read: list[tuple[str, list[int]]] = []
    real_read = corpus_module.read_feature_sidecar

    def counting_read(path, dialogue_id, turns, *args):
        read.append((Path(path).name, list(turns)))
        return real_read(path, dialogue_id, turns, *args)

    monkeypatch.setattr(corpus_module, "read_feature_sidecar", counting_read)
    args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", strategy, "--exclude-ids", victim]
    result = runner.invoke(main, args + extra + ["--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "run" / "run_summary.json").read_text())["failures"] == []
    # six turns each: no context reads the trailing agent turn 6, nor under multimodal any agent turn
    kept = [d for d in dialogues if d.id != victim]
    assert all(assembly.read_turns(cli._STRATEGY_ALIASES[strategy], d) == expected for d in kept)
    assert sorted(read) == sorted((f"{d.id}.f64", expected) for d in kept)
    assert not [name for name, _ in read if name.startswith(victim)]


@pytest.mark.parametrize("how", ["agent_turns_only", "version_1_files"])
def test_run_without_a_sidecar_on_any_read_turn_is_a_click_error(runner, tmp_path, how):
    _synth(runner, tmp_path / "corpus")
    features = tmp_path / "corpus" / "features"
    for dialogue in load_corpus(tmp_path / "corpus", "synthetic_json"):
        if how == "agent_turns_only":  # the files keep agent turns, but no multimodal context reads one
            _write_features(features, dialogue, {1: None, 3: None, 5: None})
            continue
        # the files, one per turn, that the feature format of version 1 held, and none of the new name
        (features / f"{dialogue.id}.f64").unlink()
        for turn in dialogue.turns:
            header = {"cols": 8, "dialogue_id": dialogue.id, "format_version": 1, "rows": len(turn.features), "turn_index": turn.index}
            header = json.dumps(header, sort_keys=True).encode()
            data = b"DSTLFEA1" + len(header).to_bytes(4, "little") + header + turn.features.astype("<f8").tobytes()
            (features / f"{dialogue.id}__t{turn.index:04d}.f64").write_bytes(data)
    args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "multimodal", "--out", str(tmp_path / "run")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.output == "Error: no turn that a context reads has a feature sidecar; generate sidecars first\n"


def _write_bad_sidecar(features_dir: Path, dialogue, turn_index: int, fault: str) -> tuple[Path, str]:
    """Write the feature file of ``dialogue`` with ``fault`` (in turn
    ``turn_index`` where the fault is a turn's); returns its path and the one
    line that a run which reads it prints."""
    cols = dialogue.turn(turn_index).features.shape[1]
    replace = {}
    if fault == "out_of_range":
        replace[turn_index] = dialogue.turn(turn_index).features.copy()
        replace[turn_index][0, 1] = 1e300
    elif fault in ("zero_columns", "other_width"):
        width = 0 if fault == "zero_columns" else cols + 1
        replace = {t.index: np.ones((len(t.features), width)) for t in dialogue.turns}
    sidecar = _write_features(features_dir, dialogue, replace)
    if fault == "header_for_another_dialogue":
        corpus_module.write_feature_sidecar(sidecar, "other", [(t.index, t.features) for t in dialogue.turns])
    blob = sidecar.read_bytes()
    payload = 12 + int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:payload])
    listed = header["turns"]
    # the previous turn's entry again in the place of turn_index's
    twice = dict(header, turns=[*listed[: turn_index - 1], listed[turn_index - 2], *listed[turn_index:]])
    twice = json.dumps(twice, sort_keys=True).encode()
    rewritten = {
        "truncated": blob[:10],
        "bad_magic": b"X" + blob[1:],
        "malformed_header": blob[:12] + b" " * (payload - 12) + blob[payload:],
        "wrong_version": blob.replace(b'"format_version": 2', b'"format_version": 1'),
        "payload_size": blob + bytes(8),
        "turn_listed_twice": blob[:8] + len(twice).to_bytes(4, "little") + twice + blob[payload:],
    }
    if fault in rewritten:
        sidecar.write_bytes(rewritten[fault])
    before = sum(len(t.features) for t in dialogue.turns[: turn_index - 1])
    total = sum(len(t.features) for t in dialogue.turns)
    offset, message = {
        "out_of_range": (
            payload + 8 * (before * cols + 1),
            f"feature value 1e+300 of turn {turn_index} at row 0, column 1 is not in [-1e+100, 1e+100]",
        ),
        "zero_columns": (12, f"sidecar shape {len(dialogue.turns[0].features)}x0 of turn 1 has no feature value"),
        "other_width": (12, f"sidecar has {cols + 1} columns; the sidecars read before it have {cols}"),
        "header_for_another_dialogue": (12, f"sidecar header is for dialogue other, not {dialogue.id}"),
        "truncated": (10, "truncated sidecar header length"),
        "bad_magic": (0, "bad feature sidecar magic"),
        "malformed_header": (12, "malformed sidecar header: malformed JSON: Expecting value"),
        "wrong_version": (12, "malformed sidecar header: format_version must be 2, got 1"),
        "payload_size": (len(blob), f"sidecar payload is {len(blob) - payload + 8} bytes; {total} rows of {cols} float64 values need {len(blob) - payload}"),
        "turn_listed_twice": (
            12,
            f"malformed sidecar header: turns[{turn_index - 1}] must be [index, rows] with an index above "
            f"{turn_index - 1}, got {listed[turn_index - 2]}",
        ),
    }[fault]
    return sidecar, f"Error: {sidecar}: byte {offset}: {message}\n"


@pytest.mark.parametrize("fault", [
    "out_of_range", "zero_columns", "header_for_another_dialogue", "truncated", "bad_magic", "malformed_header",
    "wrong_version", "payload_size", "other_width", "turn_listed_twice",
])
def test_run_fails_at_load_on_a_faulty_file_of_a_dialogue_it_reads(runner, tmp_path, fault):
    _synth(runner, tmp_path / "corpus")
    dialogues = load_corpus(tmp_path / "corpus", "synthetic_json")
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--predictor", "noisy"]
    dropped = ["--exclude-ids", f"{dialogues[1].id},{dialogues[3].id}"]
    result = runner.invoke(main, base + ["--strategy", "multimodal", *dropped, "--out", str(tmp_path / "clean")])
    assert result.exit_code == 0, result.output
    # a middle agent turn and the trailing one: no multimodal context reads either, but a
    # dialogue's turns share its file, and the file is checked whole
    features_dir = tmp_path / "corpus" / "features"
    _, line = _write_bad_sidecar(features_dir, dialogues[1], 2, fault)
    _write_bad_sidecar(features_dir, dialogues[3], 6, fault)
    for strategy in ("multimodal", "full"):
        result = runner.invoke(main, base + ["--strategy", strategy, "--out", str(tmp_path / strategy)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == line
        assert not (tmp_path / strategy).exists()
    # a dialogue that --exclude-ids drops has its file left unread
    result = runner.invoke(main, base + ["--strategy", "multimodal", *dropped, "--out", str(tmp_path / "excluded")])
    assert result.exit_code == 0, result.output
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "excluded" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_readme_feature_file_errors_are_what_run_prints(runner, tmp_path, monkeypatch):
    # each feature-file Error: line of the README, made by the fault it names in the corpus it names
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line + "\n" for line in readme.read_text(encoding="utf-8").splitlines() if line.startswith("Error: c/features/")]
    assert len(lines) == 2
    monkeypatch.chdir(tmp_path)
    for line in lines:
        shutil.rmtree("c", ignore_errors=True)
        assert runner.invoke(main, ["synth", "--seed", "3", "--out", "c"]).exit_code == 0
        path = Path(line.removeprefix("Error: ").partition(": ")[0])
        dialogue = next(d for d in load_corpus("c", "synthetic_json") if f"{d.id}.f64" == path.name)
        if line.endswith(": Is a directory\n"):
            path.unlink()
            path.mkdir()
        else:
            value, turn, row, column = re.search(r"feature value (\S+) of turn (\d+) at row (\d+), column (\d+)", line).groups()
            features = dialogue.turn(int(turn)).features.copy()
            features[int(row), int(column)] = float(value)
            _write_features(path.parent, dialogue, {int(turn): features})
        result = runner.invoke(main, ["run", "--corpus", "c", "--strategy", "full", "--out", "out"])
        assert (result.exit_code, result.output) == (1, line)


def test_readme_range_errors_are_what_the_commands_print(runner, tmp_path, monkeypatch):
    # each range Error: line of the README, made by the setting and the value it names: a flag of
    # synth, a manifest field that no run flag sets, or a key of an evaluate policy file
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line for line in readme.read_text(encoding="utf-8").splitlines() if line.startswith("Error: Invalid value for ") and " must be in " in line]
    assert len(lines) == 3
    monkeypatch.chdir(tmp_path)
    _synth(runner, Path("c"))
    assert runner.invoke(main, ["run", "--corpus", "c", "--strategy", "full", "--out", "r"]).exit_code == 0
    for line in lines:
        hint, _, fault = line.removeprefix("Error: Invalid value for ").partition(": ")
        value = json.loads(fault.rpartition(", got ")[2])
        if hint.startswith("field "):
            Path("m.json").write_text(json.dumps({"corpus": "c", "strategy": "full", hint[7:-1]: value}))
            args = ["run", "--manifest", "m.json"]
        elif hint == "--policy":
            path, _, fault = fault.partition(":1:1: ")
            Path(path).write_text(json.dumps({fault.partition(" ")[0]: value}))
            args = ["evaluate", "--predictions", "r/predictions.ndjson", "--corpus", "c", "--policy", path]
        else:
            args = ["synth", hint, str(value)]
        result = runner.invoke(main, [*args, "--out", "out"])
        assert result.exit_code == 2, result.output
        assert result.stderr.endswith("\n\n" + line + "\n"), result.stderr
        assert not Path("out").exists()


class _DiesOnDialogue:
    """Exact oracle whose worker process dies, ``delay`` seconds in, on one dialogue."""

    def __init__(self, dialogue_id: str, delay: float = 1.0):
        self.dialogue_id = dialogue_id
        self.delay = delay

    def predict(self, request):
        if request.dialogue.id == self.dialogue_id:
            time.sleep(self.delay)  # with the default delay, the other dialogues finish first
            os._exit(3)
        return assembly.OracleExact().predict(request)


def test_run_records_a_dead_worker_as_its_dialogues_failure(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(workers_module, "_usable_cpus", lambda: 2)  # on one CPU, --workers 2 would run here
    _synth(runner, tmp_path / "corpus")
    ids = sorted(d.id for d in load_corpus(tmp_path / "corpus", "synthetic_json"))
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--workers", "2"]
    result = runner.invoke(main, base + ["--exclude-ids", ids[-1], "--out", str(tmp_path / "reference")])
    assert result.exit_code == 0, result.output

    monkeypatch.setattr(cli, "make_predictor", lambda *args, **kwargs: _DiesOnDialogue(ids[-1]))
    result = runner.invoke(main, base + ["--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert "1 dialogue(s) failed" in result.output
    summary = json.loads((tmp_path / "run" / "run_summary.json").read_text())
    assert [f["dialogue_id"] for f in summary["failures"]] == [ids[-1]]
    assert summary["failures"][0]["error"].startswith("BrokenProcessPool: ")
    # the dialogues that finished keep their predictions
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_fails_each_dialogue_whose_embedding_overflows_without_numpy_warnings(runner, tmp_path, monkeypatch):
    # the sidecar reader refuses values this large, so they are put in memory after the load; a
    # layer norm turns the overflow into finite values, so no finiteness check sees it
    _synth(runner, tmp_path / "corpus")
    load = cli.load_corpus

    def load_overflowing(*args):
        dialogues = load(*args)
        for turn in (turn for dialogue in dialogues for turn in dialogue.turns if turn.features is not None):
            turn.features = turn.features * 1e300
        return dialogues

    monkeypatch.setattr(cli, "load_corpus", load_overflowing)
    out = tmp_path / "run"
    result = runner.invoke(main, ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--out", str(out)])
    assert (result.exit_code, result.stderr) == (1, f"Error: every dialogue failed; see {out / 'run_summary.json'}\n")
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["n_records"] == 0
    errors = [failure["error"] for failure in summary["failures"]]
    assert len(errors) == 4
    for error in errors:  # a numpy warning, raised as an error, would be a dialogue's failure too
        assert re.fullmatch(r"FloatingPointError: overflow encountered in \w+ while embedding turns? 1(, \d+)*", error), error


@pytest.mark.parametrize("command", ["synth", "probe", "run"])
def test_feature_values_above_the_bound_stop_where_they_enter(runner, tmp_path, command):
    if command == "run":
        _synth(runner, tmp_path / "corpus")
        dialogue = load_corpus(tmp_path / "corpus", "synthetic_json")[0]
        _, line = _write_bad_sidecar(tmp_path / "corpus" / "features", dialogue, 1, "out_of_range")
        args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full"]
    elif command == "synth":
        args = ["synth"]
    else:
        args = ["probe", "--n-queries", "1", "--epochs", "3", "--n-dialogues", "6", "--seeds", "0"]
    if command != "run":
        args += ["--noise-sigma", "1e300"]
        line = "Error: Invalid value for --noise-sigma: must be in [0, 1.16279e+99], got 1e+300\n"
    result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
    assert result.exit_code == (1 if command == "run" else 2), result.output
    # a usage error's line comes after click's usage lines
    assert result.stderr == line if command == "run" else result.stderr.endswith("\n\n" + line), result.stderr
    assert not (tmp_path / "out").exists()


class _FailsEveryDialogue:
    def predict(self, request):
        raise RuntimeError(f"no prediction for {request.dialogue.id}")


@pytest.mark.parametrize("n_workers", ["1", "2"])
def test_a_run_in_which_every_dialogue_fails_writes_its_outputs_and_exits_1(runner, tmp_path, monkeypatch, n_workers):
    monkeypatch.setattr(workers_module, "_usable_cpus", lambda: 2)
    _synth(runner, tmp_path / "corpus")
    ids = sorted(d.id for d in load_corpus(tmp_path / "corpus", "synthetic_json"))
    monkeypatch.setattr(cli, "make_predictor", lambda *args, **kwargs: _FailsEveryDialogue())
    out = tmp_path / "run"
    args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--workers", n_workers, "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.stdout == f"wrote 0 prediction records to {out / 'predictions.ndjson'}\n"
    assert result.stderr == f"Error: every dialogue failed; see {out / 'run_summary.json'}\n"
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["failures"] == [{"dialogue_id": i, "error": f"RuntimeError: no prediction for {i}"} for i in ids]
    assert (out / "predictions.ndjson").read_text() == ""
    assert (out / "context_lengths.csv").read_text().endswith("\n# no data\n")


def test_run_loses_only_the_dialogue_that_kills_its_worker(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(workers_module, "_usable_cpus", lambda: 2)  # on one CPU, --workers 2 would run here
    # the first dialogue kills its worker at once, while the others are still
    # queued or running
    _synth(runner, tmp_path / "corpus", ["--n-dialogues", "8"])
    ids = sorted(d.id for d in load_corpus(tmp_path / "corpus", "synthetic_json"))
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full"]
    reference = ["--workers", "1", "--exclude-ids", ids[0], "--out", str(tmp_path / "reference")]
    result = runner.invoke(main, base + reference)
    assert result.exit_code == 0, result.output

    monkeypatch.setattr(cli, "make_predictor", lambda *args, **kwargs: _DiesOnDialogue(ids[0], delay=0.0))
    result = runner.invoke(main, base + ["--workers", "2", "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert "1 dialogue(s) failed" in result.output
    summary = json.loads((tmp_path / "run" / "run_summary.json").read_text())
    assert [f["dialogue_id"] for f in summary["failures"]] == [ids[0]]
    assert summary["failures"][0]["error"].startswith("BrokenProcessPool: ")
    assert summary["n_records"] == len(read_predictions(tmp_path / "reference" / "predictions.ndjson"))
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


class _LockedOracle(assembly.OracleExact):
    """Exact oracle that holds a lock, so it cannot be pickled."""

    def __init__(self):
        self.lock = threading.Lock()


def test_run_with_a_predictor_that_cannot_be_pickled_matches_one_worker(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(workers_module, "_usable_cpus", lambda: 2)  # on one CPU, --workers 2 would run here
    # workers inherit the predictor at fork: nothing but a dialogue's index is sent to them
    _synth(runner, tmp_path / "corpus", ["--turns-per-dialogue", "4"])
    monkeypatch.setattr(cli, "make_predictor", lambda *args, **kwargs: _LockedOracle())
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "compressed"]
    for workers in ("1", "2"):
        result = runner.invoke(main, base + ["--workers", workers, "--out", str(tmp_path / workers)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / workers / "run_summary.json").read_text())
        assert (summary["n_dialogues"], summary["failures"]) == (4, [])
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    assert multiprocessing.active_children() == []


def _invoke_on_corpus(runner, tmp_path, command: str, extra: list[str]):
    if command == "run":
        args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--out", str(tmp_path / "run")]
    else:
        predictions = tmp_path / "pred.ndjson"
        predictions.write_text("")
        args = ["evaluate", "--predictions", str(predictions), "--corpus", str(tmp_path / "corpus")]
    return runner.invoke(main, args + extra)


@pytest.mark.parametrize("command", ["run", "evaluate"])
def test_malformed_corpus_json_is_a_click_error(runner, tmp_path, command):
    _synth(runner, tmp_path / "corpus")
    document = tmp_path / "corpus" / "corpus.json"
    text = document.read_text()
    document.write_text(text[: len(text) // 2])
    with pytest.raises(json.JSONDecodeError) as fault:
        json.loads(text[: len(text) // 2])
    result = _invoke_on_corpus(runner, tmp_path, command, [])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    where = f"{document}:{fault.value.lineno}:{fault.value.colno}"
    assert f"Error: {where}: malformed JSON: {fault.value.msg}\n" in result.output


def _break_document(tmp_path, case: str) -> tuple[Path, list[str], str]:
    """Corrupt the corpus document under ``tmp_path``; returns its path, the
    extra CLI arguments and the expected message."""
    document = tmp_path / "corpus" / "corpus.json"
    doc = json.loads(document.read_text())
    dialogues = doc["dialogues"]
    if case == "missing_transcript":
        del dialogues[1]["turns"][2]["transcript"]
        message = "missing field 'dialogues[1].turns[2].transcript'"
    elif case == "gold_states_list":
        dialogues[0]["gold_states"] = []
        message = "dialogues[0].gold_states must be an object, got []"
    elif case == "gold_domains_string":
        dialogues[1]["gold_states"]["1"]["domains"] = "train"
        message = "dialogues[1].gold_states.1.domains must be a list of strings, got 'train'"
    elif case == "duplicate_id":
        dialogues.append(dict(dialogues[1], gold_states={}))
        message = f"duplicate dialogue id {dialogues[1]['id']!r} at positions 2 and {len(dialogues)}"
    elif case == "top_level_list":
        doc = dialogues
        message = "expected a JSON object, got list"
    elif case in ("index_float", "index_bool", "transcript_number"):
        key, value = {"index_float": ("index", 1.5), "index_bool": ("index", True), "transcript_number": ("transcript", 5)}[case]
        dialogues[2]["turns"][1][key] = value
        message = f"dialogues[2].turns[1].{key} must be {'an integer' if key == 'index' else 'a string'}, got {value!r}"
    elif case == "id_number":
        dialogues[2]["id"] = 7
        message = "dialogues[2].id must be a string, got 7"
    elif case == "turns_empty":
        dialogues[2]["turns"] = []
        message = f"dialogue {dialogues[2]['id']!r} has no turns"
    elif case == "turns_object":
        dialogues[2]["turns"] = {}
        message = "dialogues[2].turns must be a list, got {}"
    elif case.startswith("gold_key_"):
        key = {"padded": "01", "spaced": " 3", "underscore": "1_0", "agent_turn": "2", "past_end": "7"}[case[9:]]
        dialogues[2]["gold_states"][key] = dialogues[2]["gold_states"]["1"]
        user_turns = f"dialogue {dialogues[2]['id']!r} (1, 3, 5)"
        message = f"dialogues[2].gold_states keys must name user turns of {user_turns}, got {key!r}"
    elif case == "repeated_key":
        document.write_text(json.dumps(doc).replace('"transcript": ', '"transcript": "x", "transcript": ', 1))
        return document, [], "repeated key 'transcript'"
    else:  # a SpokenWOZ log entry that is a string
        document = tmp_path / "corpus" / "data.json"
        doc = {"SNG0001": {"log": [{"text": "hi", "tag": "user"}, "ok"]}}
        document.write_text(json.dumps(doc))
        return document, ["--format", "spokenwoz_json"], "SNG0001.log[1] must be an object, got 'ok'"
    document.write_text(json.dumps(doc))
    return document, [], message


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize(
    "case",
    [
        "missing_transcript",
        "gold_states_list",
        "gold_domains_string",
        "duplicate_id",
        "top_level_list",
        "spokenwoz_string_entry",
        "index_float",
        "index_bool",
        "transcript_number",
        "id_number",
        "turns_empty",
        "turns_object",
        "gold_key_padded",
        "gold_key_spaced",
        "gold_key_underscore",
        "gold_key_agent_turn",
        "gold_key_past_end",
        "repeated_key",
    ],
)
def test_malformed_corpus_document_is_a_click_error(runner, tmp_path, command, case):
    _synth(runner, tmp_path / "corpus")
    document, extra, message = _break_document(tmp_path, case)
    result = _invoke_on_corpus(runner, tmp_path, command, extra)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert re.search(re.escape(f"Error: {document}:") + r"\d+:\d+: " + re.escape(f"{message}\n"), result.output), result.output


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize("format_, document", [("synthetic_json", "corpus.json"), ("spokenwoz_json", "data.json")])
def test_missing_corpus_document_is_a_click_error(runner, tmp_path, command, format_, document):
    (tmp_path / "corpus").mkdir()
    result = _invoke_on_corpus(runner, tmp_path, command, ["--format", format_])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    path = tmp_path / "corpus" / document
    assert f"Error: {path}: No such file or directory\n" in result.output


def test_unreadable_sidecar_of_a_read_turn_is_a_click_error(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    dialogue_id = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    sidecar = tmp_path / "corpus" / "features" / f"{dialogue_id}.f64"
    sidecar.unlink()
    sidecar.mkdir()
    result = _invoke_on_corpus(runner, tmp_path, "run", [])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {sidecar}: Is a directory\n"


def test_run_agent_asr_texts_replace_agent_transcripts_in_later_prompts(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    dialogues = load_corpus(tmp_path / "corpus", "synthetic_json")
    target = dialogues[1]
    override = 'asr heard "two nights" \\ please'
    path = tmp_path / "agent_asr.ndjson"
    path.write_text(json.dumps({"dialogue_id": target.id, "turn_index": 2, "text": override}) + "\n")
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "multimodal"]
    result = runner.invoke(main, base + ["--agent-asr", str(path), "--out", str(tmp_path / "asr")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, base + ["--out", str(tmp_path / "gold")])
    assert result.exit_code == 0, result.output

    records = read_predictions(tmp_path / "asr" / "predictions.ndjson")
    gold_records = read_predictions(tmp_path / "gold" / "predictions.ndjson")
    assert len(records) == len(gold_records) == sum(len(d.user_turn_indices()) for d in dialogues)
    by_id = {d.id: d for d in dialogues}
    for record, gold_record in zip(records, gold_records):
        dlg = by_id[record.dialogue_id]
        # the exact predictor transcribes every user turn verbatim
        hypotheses = {n: dlg.turn(n).transcript for n in dlg.user_turn_indices()}
        agent_texts = {2: override} if dlg is target else None
        prompt = oracle_build_prompt(Strategy.MULTIMODAL, dlg, record.turn_index, hypotheses, agent_texts)
        assert record.raw_output.startswith(prompt)
        if dlg is not target or record.turn_index == 1:
            assert record.raw_output == gold_record.raw_output
        else:
            assert json.dumps(f"AGENT: {override}")[1:-1] in record.raw_output
            assert record.raw_output != gold_record.raw_output


@pytest.mark.parametrize("case", ["unknown_dialogue", "user_turn", "past_end"])
def test_run_rejects_agent_asr_line_naming_no_agent_turn(runner, tmp_path, case):
    _synth(runner, tmp_path / "corpus")
    dialogue_id = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    good = {"dialogue_id": dialogue_id, "turn_index": 2, "text": "hi"}
    bad, reason = {
        "unknown_dialogue": ({**good, "dialogue_id": "nope"}, "dialogue 'nope' has no agent turn 2"),
        "user_turn": ({**good, "turn_index": 3}, f"dialogue {dialogue_id!r} has no agent turn 3"),
        "past_end": ({**good, "turn_index": 7}, f"dialogue {dialogue_id!r} has no agent turn 7"),
    }[case]
    path = tmp_path / "agent_asr.ndjson"
    path.write_text("\n".join(json.dumps(line) for line in (good, bad, good)) + "\n")
    args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "multimodal", "--agent-asr", str(path)]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "run")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {path}:2:1: malformed record: {reason}" in result.output
    assert not (tmp_path / "run").exists()


def test_run_rejects_a_repeated_agent_asr_line_naming_both_lines(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    dialogue_id = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    lines = [(dialogue_id, 2, "first"), (dialogue_id, 4, "other"), (dialogue_id, 2, "second")]
    path = tmp_path / "agent_asr.ndjson"
    path.write_text("".join(json.dumps({"dialogue_id": d, "turn_index": t, "text": x}) + "\n" for d, t, x in lines))
    args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "multimodal", "--agent-asr", str(path)]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "run")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {path}:3:1: repeated record for dialogue {dialogue_id!r} turn 2, first on line 1" in result.output
    assert not (tmp_path / "run").exists()


def test_run_accepts_agent_asr_line_for_an_excluded_dialogue(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    dialogue_id = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    path = tmp_path / "agent_asr.ndjson"
    path.write_text(json.dumps({"dialogue_id": dialogue_id, "turn_index": 2, "text": "hi"}) + "\n")
    args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "multimodal", "--agent-asr", str(path)]
    result = runner.invoke(main, args + ["--exclude-ids", dialogue_id, "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert all(r.dialogue_id != dialogue_id for r in read_predictions(tmp_path / "run" / "predictions.ndjson"))


def test_run_agent_asr_equals_a_run_on_rewritten_agent_transcripts(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    dialogues = load_corpus(tmp_path / "corpus", "synthetic_json")
    # every other agent turn of the first three dialogues is overridden
    texts = {
        (dlg.id, turn.index): f'asr "{dlg.id}" turn {turn.index} \\ heard'
        for dlg in dialogues[:3]
        for turn in dlg.turns
        if turn.speaker.value == "AGENT" and turn.index % 4 == 2
    }
    asr = tmp_path / "agent_asr.ndjson"
    asr.write_text("".join(json.dumps({"dialogue_id": d, "turn_index": i, "text": t}) + "\n" for (d, i), t in texts.items()))
    shutil.copytree(tmp_path / "corpus", tmp_path / "rewritten")
    document = tmp_path / "rewritten" / "corpus.json"
    doc = json.loads(document.read_text())
    for dlg in doc["dialogues"]:
        for turn in dlg["turns"]:
            turn["transcript"] = texts.get((dlg["id"], turn["index"]), turn["transcript"])
    document.write_text(json.dumps(doc))

    base = ["run", "--strategy", "multimodal", "--predictor", "noisy", "--seed", "5"]
    for corpus, extra, out in (
        ("corpus", ["--agent-asr", str(asr)], "asr"),
        ("rewritten", [], "rewritten_run"),
        ("corpus", [], "gold"),
    ):
        result = runner.invoke(main, base + ["--corpus", str(tmp_path / corpus), *extra, "--out", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "asr" / name).read_bytes() == (tmp_path / "rewritten_run" / name).read_bytes()
    assert (tmp_path / "asr" / "predictions.ndjson").read_bytes() != (tmp_path / "gold" / "predictions.ndjson").read_bytes()


# each JSON input that can name a directory: the arguments before the
# directory, and the exit code (2 for a usage input, 1 for a data file); a
# corpus directory whose document is a directory names the document
_DIRECTORY_INPUTS = {
    "run-corpus": (["run", "--strategy", "full", "--corpus"], 1),
    "evaluate-corpus": (["evaluate", "--predictions", "{predictions}", "--corpus"], 1),
    "run-manifest": (["run", "--manifest"], 2),
    "run-exclude-ids": (["run", "--corpus", "{corpus}", "--strategy", "full", "--exclude-ids"], 2),
    "run-agent-asr": (["run", "--corpus", "{corpus}", "--strategy", "multimodal", "--agent-asr"], 1),
    "evaluate-policy": (["evaluate", "--predictions", "{predictions}", "--corpus", "{corpus}", "--policy"], 2),
    "evaluate-predictions": (["evaluate", "--corpus", "{corpus}", "--predictions"], 1),
}


@pytest.mark.parametrize("case", [*_DIRECTORY_INPUTS, "manifest-field-agent-asr"])
def test_a_directory_given_as_a_json_input_is_a_one_line_error(runner, tmp_path, case):
    _synth(runner, tmp_path / "corpus")
    directory = tmp_path / "input"
    directory.mkdir()
    named = directory
    if case.endswith("-corpus"):
        named = directory / "corpus.json"
        named.mkdir()
    predictions = tmp_path / "pred.ndjson"
    predictions.write_text("")
    if case == "manifest-field-agent-asr":
        manifest = tmp_path / "manifest.json"
        settings = {"corpus": str(tmp_path / "corpus"), "strategy": "multimodal", "agent_asr": str(directory)}
        manifest.write_text(json.dumps(settings))
        args, exit_code = ["run", "--manifest", str(manifest)], 1
    else:
        before, exit_code = _DIRECTORY_INPUTS[case]
        fill = {"{corpus}": str(tmp_path / "corpus"), "{predictions}": str(predictions)}
        args = [fill.get(arg, arg) for arg in before] + [str(directory)]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "run")])
    assert result.exit_code == exit_code, result.output
    assert isinstance(result.exception, SystemExit)
    if exit_code == 2:
        assert f"Error: Invalid value for --{case.split('-', 1)[1]}: {named}: Is a directory\n" in result.output
    else:
        assert f"Error: {named}: Is a directory\n" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize(
    "taxonomy, reason",
    [
        ([], "taxonomy must be an object, got []"),
        ({"groups": []}, "taxonomy.groups must be an object of strings, got []"),
        (
            {"categorical_values": "north"},
            "taxonomy.categorical_values must be an object of lists of strings, got 'north'",
        ),
        (
            {"categorical_values": {"hotel-area": "north"}},
            "taxonomy.categorical_values.hotel-area must be a list of strings, got 'north'",
        ),
        (
            {"groups": {"hotel-area": "weird"}},
            "taxonomy.groups.hotel-area must be one of ['categorical', 'time', 'open', 'profile'], got 'weird'",
        ),
        ({"groups": {"hotelarea": "categorical"}}, "taxonomy.groups keys must be 'domain-slot' names, got 'hotelarea'"),
        ({"categorical_values": {"hotel-area": [1, 2]}}, "taxonomy.categorical_values.hotel-area[0] must be a string, got 1"),
        (
            {"groups": {"hotel-area": "categorical", "Hotel-Area": "open"}},
            "taxonomy.groups.Hotel-Area must be 'categorical' as for a key that differs only in case, got 'open'",
        ),
        (
            {"categorical_values": {"Hotel-area": ["north"], "hotel-AREA": ["south"]}},
            "taxonomy.categorical_values.hotel-AREA must be ['north'] as for a key that differs only in case, got ['south']",
        ),
    ],
    ids=[
        "list", "groups-list", "categorical-string", "value-list-string", "unknown-group", "key-without-dash",
        "value-list-numbers", "groups-case-conflict", "values-case-conflict",
    ],
)
def test_malformed_taxonomy_is_a_click_error(runner, tmp_path, command, taxonomy, reason):
    _synth(runner, tmp_path / "corpus")
    document = tmp_path / "corpus" / "corpus.json"
    doc = json.loads(document.read_text())
    doc["taxonomy"] = taxonomy
    document.write_text(json.dumps(doc))
    result = _invoke_on_corpus(runner, tmp_path, command, [])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert re.search(re.escape(f"Error: {document}:1:") + r"\d+: " + re.escape(f"{reason}\n"), result.output), result.output


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"fuzzy_threshold": ', ":1:21: malformed JSON"),
        ("[0.9]", "expected a JSON object, got list"),
        ('{"bogus": 1}', "unknown policy keys: ['bogus']"),
        ('{"fuzzy_threshold": "high"}', "fuzzy_threshold must be a number"),
        ('{"fuzzy_threshold": true}', "fuzzy_threshold must be a number"),
        ('{"fuzzy_threshold": NaN}', ":1:21: malformed JSON: NaN is not JSON"),
        ('{"fuzzy_threshold": 1e400}', ":1:21: malformed JSON: 1e400 is out of range"),
        ('{"fuzzy_groups": "open"}', "fuzzy_groups must be a list of strings, got 'open'"),
        (
            '{"fuzzy_groups": ["open", "names"]}',
            "fuzzy_groups[1] must be one of ['categorical', 'time', 'open', 'profile'], got 'names'",
        ),
        ('{"time_canonicalization": "no"}', "time_canonicalization must be a boolean, got 'no'"),
        ('{"fuzzy_threshold": 0.5, "fuzzy_threshold": 0.9}', ":1:1: repeated key 'fuzzy_threshold'"),
    ],
)
def test_evaluate_rejects_bad_policy_file(runner, tmp_path, content, message):
    _synth(runner, tmp_path / "corpus")
    path = tmp_path / "policy.json"
    path.write_text(content)
    result = _invoke_on_corpus(runner, tmp_path, "evaluate", ["--policy", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert re.search(re.escape(f"Invalid value for --policy: {path}:1:") + r"\d+: ", result.output), result.output
    assert message in result.output


def test_a_number_too_large_for_a_float_in_a_manifest_is_a_located_usage_error(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    path = tmp_path / "manifest.json"
    path.write_text(f'{{"corpus": {json.dumps(str(tmp_path / "corpus"))},\n "drop_prob": -1e400}}')
    result = runner.invoke(main, ["run", "--manifest", str(path)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for --manifest: {path}:2:15: malformed JSON: -1e400 is out of range" in result.output


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ('{"dialogue_id": "d0", "turn_index": 2', "malformed JSON"),
        ('{"turn_index": 2, "text": "hi"}', "missing field 'dialogue_id'"),
        ('{"dialogue_id": "d0", "text": "hi"}', "missing field 'turn_index'"),
        ('{"dialogue_id": "d0", "turn_index": 2}', "missing field 'text'"),
        ('["d0", 2, "hi"]', "malformed record"),
        ('{"dialogue_id": "d0", "turn_index": "two", "text": "hi"}', "malformed record"),
        ('{"dialogue_id": "d0", "turn_index": 2.9, "text": "hi"}', "turn_index must be an integer, got 2.9"),
        ('{"dialogue_id": "d0", "turn_index": 2, "text": null}', "text must be a string, got None"),
    ],
)
def test_run_reports_bad_agent_asr_line(runner, tmp_path, bad_line, reason):
    _synth(runner, tmp_path / "corpus")
    path = tmp_path / "agent_asr.ndjson"
    dialogue_id = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    good = json.dumps({"dialogue_id": dialogue_id, "turn_index": 2, "text": "hi"})
    path.write_text("\n".join([good, bad_line, good]) + "\n")
    result = runner.invoke(
        main,
        [
            "run",
            "--corpus", str(tmp_path / "corpus"),
            "--strategy", "multimodal",
            "--agent-asr", str(path),
            "--out", str(tmp_path / "run"),
        ],
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert re.search(re.escape(f"{path}:2:") + r"\d+: (malformed record: )?" + re.escape(reason), result.output)


# each malformed id list and what its error names
_EXCLUDE_IDS_FAULTS = {
    '{"ids": 3': ":1:10: malformed JSON: Expecting ',' delimiter",
    '{"ids": 3}': ":1:1: ids must be a list of strings, got 3",
    '{"other": []}': ":1:1: missing field 'ids'",
    "7": ":1:1: expected a JSON list of strings or object, got integer",
    "[0, 1]": ":1:1: [0] must be a string, got 0",
}


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize("content", list(_EXCLUDE_IDS_FAULTS))
def test_malformed_exclude_ids_file_is_a_usage_error(runner, tmp_path, command, content):
    _synth(runner, tmp_path / "corpus")
    path = tmp_path / "exclude.json"
    path.write_text(content)
    result = _invoke_on_corpus(runner, tmp_path, command, ["--exclude-ids", str(path)])
    assert result.exit_code == 2, result.output
    assert "Invalid value for --exclude-ids" in result.output
    assert f"{path}{_EXCLUDE_IDS_FAULTS[content]}" in result.output


def test_evaluate_reads_the_corpus_document_once_and_no_sidecar(runner, tmp_path, monkeypatch):
    _synth(runner, tmp_path / "corpus")
    result = runner.invoke(
        main,
        [
            "run",
            "--corpus", str(tmp_path / "corpus"),
            "--strategy", "multimodal",
            "--predictor", "noisy",
            "--out", str(tmp_path / "run"),
        ],
    )
    assert result.exit_code == 0, result.output
    predictions = tmp_path / "run" / "predictions.ndjson"
    # reference report: scored on the fully loaded corpus, sidecars included
    references = references_from_corpus(
        filter_corrupted(load_corpus(tmp_path / "corpus", "synthetic_json"), default_corrupted_ids())
    )
    states = states_from_records(read_predictions(predictions))
    report = evaluate(states, references, MatchPolicy(), synthetic_taxonomy(), 6)
    expected = render_report(report, tmp_path / "expected")

    opened: list[str] = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, Path)):
            opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    def no_sidecar(path):
        raise AssertionError(f"evaluate read sidecar {path}")

    args = ["evaluate", "--predictions", str(predictions), "--corpus", str(tmp_path / "corpus")]
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", recording_open)
        patch.setattr(corpus_module, "read_feature_sidecar", no_sidecar)
        result = runner.invoke(main, args + ["--out", str(tmp_path / "report")])
    assert result.exit_code == 0, result.output
    assert opened.count("corpus.json") == 1

    shutil.rmtree(tmp_path / "corpus" / "features")
    result = runner.invoke(main, args + ["--out", str(tmp_path / "report_no_features")])
    assert result.exit_code == 0, result.output
    for path in expected:
        for out in ("report", "report_no_features"):
            assert (tmp_path / out / Path(path).name).read_bytes() == Path(path).read_bytes()


@pytest.mark.parametrize("how", ["no_gold_states", "all_excluded"])
def test_evaluate_with_no_reference_turn_is_a_click_error(runner, tmp_path, how):
    _synth(runner, tmp_path / "corpus")
    document = tmp_path / "corpus" / "corpus.json"
    doc = json.loads(document.read_text())
    extra = []
    if how == "no_gold_states":
        for dialogue in doc["dialogues"]:
            dialogue["gold_states"] = {}
        document.write_text(json.dumps(doc))
    else:
        extra = ["--exclude-ids", ",".join(d["id"] for d in doc["dialogues"])]
    result = _invoke_on_corpus(runner, tmp_path, "evaluate", extra)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Error: no reference turn to score in {tmp_path / 'corpus'}" in result.output


def test_an_exclude_ids_list_too_long_for_a_file_name_excludes_its_ids(runner, tmp_path):
    _synth(runner, tmp_path / "corpus", ["--n-dialogues", "24"])
    ids = sorted(d.id for d in load_corpus(tmp_path / "corpus", "synthetic_json"))
    excluded = ",".join(ids[:20])
    assert len(excluded) > 255  # longer than a file name may be
    args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--exclude-ids", excluded]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    predictions = tmp_path / "run" / "predictions.ndjson"
    assert {r.dialogue_id for r in read_predictions(predictions)} == set(ids[20:])
    # the excluded dialogues have no prediction, so scoring them would be an alignment failure
    args = ["evaluate", "--predictions", str(predictions), "--corpus", str(tmp_path / "corpus"), "--exclude-ids", excluded]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "report")])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "report" / "report.json").read_text())["n_dialogues"] == 4


def _title_slots(slots: dict) -> dict:
    return {domain.title(): {slot.title(): value for slot, value in by_slot.items()} for domain, by_slot in slots.items()}


def test_a_mixed_case_corpus_scores_as_its_lower_cased_twin(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    run_args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--predictor", "noisy", "--seed", "4"]
    assert runner.invoke(main, run_args + ["--out", str(tmp_path / "run")]).exit_code == 0
    doc = json.loads((tmp_path / "corpus" / "corpus.json").read_text())
    for part in ("groups", "categorical_values"):
        doc["taxonomy"][part] = {key.title(): value for key, value in doc["taxonomy"][part].items()}
    for dialogue in doc["dialogues"]:
        for state in dialogue["gold_states"].values():
            state["domains"] = [domain.title() for domain in state["domains"]]
            state["slots"] = _title_slots(state["slots"])
    (tmp_path / "mixed").mkdir()
    (tmp_path / "mixed" / "corpus.json").write_text(json.dumps(doc))
    outputs = []
    for corpus in ("corpus", "mixed"):
        args = ["evaluate", "--predictions", str(tmp_path / "run" / "predictions.ndjson"), "--corpus", str(tmp_path / corpus)]
        result = runner.invoke(main, args + ["--out", str(tmp_path / f"report-{corpus}")])
        assert result.exit_code == 0, result.output
        report = tmp_path / f"report-{corpus}"
        scores = result.output.splitlines()[:3]  # the last line names the report directory
        outputs.append((scores, {path.name: path.read_bytes() for path in sorted(report.iterdir())}))
    assert len(outputs[0][1]) == 8
    assert outputs[0] == outputs[1]


def test_evaluate_names_a_gold_slot_the_taxonomy_lacks(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    run_args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--predictor", "exact"]
    result = runner.invoke(main, run_args + ["--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    document = tmp_path / "corpus" / "corpus.json"
    doc = json.loads(document.read_text())
    doc["dialogues"][0]["gold_states"]["1"]["slots"]["spa"] = {"sauna": "hot"}
    document.write_text(json.dumps(doc))
    result = runner.invoke(
        main,
        ["evaluate", "--predictions", str(tmp_path / "run" / "predictions.ndjson"), "--corpus", str(tmp_path / "corpus")],
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Error: gold slot (spa, sauna) in {tmp_path / 'corpus'} is not classified by the taxonomy" in result.output


def test_evaluate_alignment_failure_exit_code(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    result = runner.invoke(
        main,
        ["evaluate", "--predictions", str(empty), "--corpus", str(tmp_path / "corpus")],
    )
    assert result.exit_code == 2
    assert "alignment failure" in result.output


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ('{"dialogue_id": "d0", "turn_index": 5', "malformed JSON"),
        ('{"turn_index": 5, "raw_output": ""}', "missing field 'dialogue_id'"),
        ('{"dialogue_id": "d0", "raw_output": ""}', "missing field 'turn_index'"),
        ('["d0", 5]', "malformed record"),
        ('{"dialogue_id": 5, "turn_index": 5}', "malformed record: dialogue_id must be a string, got 5"),
        ('{"dialogue_id": "d0", "turn_index": 1.9}', "malformed record: turn_index must be an integer, got 1.9"),
        ('{"dialogue_id": "d0", "turn_index": "5"}', "malformed record: turn_index must be an integer, got '5'"),
        ('{"dialogue_id": "d0", "turn_index": true}', "malformed record: turn_index must be an integer, got True"),
        (
            '{"dialogue_id": "d0", "turn_index": 5, "parsed_state": {"domains": "train", "slots": {}}}',
            "malformed record: parsed_state.domains must be a list of strings, got 'train'",
        ),
        (
            '{"dialogue_id": "d0", "turn_index": 5, "parsed_state": {"domains": ["train", 1]}}',
            "malformed record: parsed_state.domains[1] must be a string, got 1",
        ),
        (
            '{"dialogue_id": "d0", "turn_index": 5, "parsed_state": {"domains": [], "slots": []}}',
            "malformed record: parsed_state.slots must be an object of objects of strings, got []",
        ),
        (
            '{"dialogue_id": "d0", "turn_index": 5, "parsed_state": {"domains": [], "slots": {"train": "day"}}}',
            "malformed record: parsed_state.slots.train must be an object of strings, got 'day'",
        ),
        (
            '{"dialogue_id": "d0", "turn_index": 5, "parsed_state": {"domains": [], "slots": {"train": {"day": 3}}}}',
            "malformed record: parsed_state.slots.train.day must be a string, got 3",
        ),
        ('{"dialogue_id": "d0", "turn_index": 5, "raw_output": 5}', "malformed record: raw_output must be a string, got 5"),
        (
            '{"dialogue_id": "d0", "turn_index": 5, "diagnostics": "abc"}',
            "malformed record: diagnostics must be a list of strings, got 'abc'",
        ),
        ('{"dialogue_id": "d0", "turn_index": 5, "turn_index": 6}', "repeated key 'turn_index'"),
        pytest.param(
            '{"dialogue_id": "d0", "turn_index": 5, "parsed_state": ' + "[" * 100000,
            "malformed JSON: nesting too deep",
            id="nested-too-deep",
        ),
    ],
)
def test_evaluate_reports_bad_prediction_line(runner, tmp_path, bad_line, reason):
    _synth(runner, tmp_path / "corpus")
    good = '{"dialogue_id":"d0","turn_index":%d,"raw_output":"","parsed_state":null}'
    path = tmp_path / "pred.ndjson"
    path.write_text("\n".join([good % 1, good % 3, bad_line, good % 7]) + "\n")
    result = runner.invoke(
        main,
        ["evaluate", "--predictions", str(path), "--corpus", str(tmp_path / "corpus")],
    )
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert re.search(re.escape(f"{path}:3:") + r"\d+: (malformed record: )?" + re.escape(reason), result.output)


def test_evaluate_rejects_a_lone_surrogate_and_writes_no_report(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    run = tmp_path / "run"
    result = runner.invoke(main, ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--out", str(run)])
    assert result.exit_code == 0, result.output
    lines = (run / "predictions.ndjson").read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    domain = record["parsed_state"]["domains"][0]
    record["parsed_state"]["slots"][domain]["na\ud800me"] = "x"
    lines[2] = json.dumps(record) + "\n"
    (run / "predictions.ndjson").write_text("".join(lines))
    out = tmp_path / "new" / "report"
    args = ["evaluate", "--predictions", str(run / "predictions.ndjson"), "--corpus", str(tmp_path / "corpus")]
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    # the column is where the object holding the key starts
    column = lines[2].index(f'"slots": {{"{domain}": {{') + len(f'"slots": {{"{domain}": {{')
    where = f"parsed_state.slots.{domain} has a key that holds a lone surrogate, got 'na\\ud800me'"
    assert f"{run / 'predictions.ndjson'}:3:{column}: {where}" in result.output
    assert not (tmp_path / "new").exists()


def test_evaluate_rejects_a_duplicate_prediction_naming_both_lines(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    good = '{"dialogue_id":"d0","turn_index":%d,"raw_output":"","parsed_state":null}'
    path = tmp_path / "pred.ndjson"
    path.write_text("\n".join([good % 1, good % 3, "", good % 1]) + "\n")
    result = runner.invoke(
        main,
        ["evaluate", "--predictions", str(path), "--corpus", str(tmp_path / "corpus")],
    )
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{path}:4:1: repeated record for dialogue 'd0' turn 1, first on line 1" in result.output


def test_evaluate_reports_a_duplicate_before_a_later_malformed_line(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    good = '{"dialogue_id":"d0","turn_index":%d,"raw_output":"","parsed_state":null}'
    path = tmp_path / "pred.ndjson"
    path.write_text("\n".join([good % 1, good % 3, good % 1, good % 5, "{"]) + "\n")
    result = runner.invoke(main, ["evaluate", "--predictions", str(path), "--corpus", str(tmp_path / "corpus")])
    assert result.exit_code == 1
    assert f"{path}:3:1: repeated record for dialogue 'd0' turn 1, first on line 1" in result.output


@pytest.mark.parametrize("repeat_first", [True, False], ids=["repeat-first", "malformed-first"])
@pytest.mark.parametrize("command", ["evaluate", "run-agent-asr"])
def test_an_ndjson_file_reports_its_first_faulty_line(runner, tmp_path, command, repeat_first):
    # a repeated (dialogue, turn) and a malformed line, in either order
    _synth(runner, tmp_path / "corpus")
    dialogue_id = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    path = tmp_path / "input.ndjson"
    if command == "evaluate":
        fields, turns = {"raw_output": "", "parsed_state": None}, (1, 3)
        args = ["evaluate", "--predictions", str(path), "--corpus", str(tmp_path / "corpus")]
    else:
        fields, turns = {"text": "hi"}, (2, 4)
        args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "multimodal", "--agent-asr", str(path)]
    lines = [json.dumps({"dialogue_id": dialogue_id, "turn_index": turn, **fields}) for turn in turns]
    faults = ["  " + lines[0], json.dumps({"dialogue_id": dialogue_id, "turn_index": "1", **fields})]
    path.write_text("\n".join(lines + (faults if repeat_first else faults[::-1])) + "\n")
    result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    if repeat_first:
        fault = f"3:3: repeated record for dialogue {dialogue_id!r} turn {turns[0]}, first on line 1"
    else:
        fault = "3:1: malformed record: turn_index must be an integer, got '1'"
    assert result.output == f"Error: {path}:{fault}\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_locates_an_integer_too_long_to_convert(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    line = '{"dialogue_id": "d0", "turn_index": 1' + "0" * 5000 + "}"
    path = tmp_path / "pred.ndjson"
    path.write_text('{"dialogue_id":"d0","turn_index":1}\n' + line + "\n")
    result = runner.invoke(main, ["evaluate", "--predictions", str(path), "--corpus", str(tmp_path / "corpus")])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    column = line.index("10") + 1
    limit = sys.get_int_max_str_digits()
    assert f"{path}:2:{column}: malformed JSON: integer longer than {limit} digits" in result.output


def test_valid_records_stay_off_the_located_branch(runner, tmp_path, monkeypatch):
    calls: list[str] = []
    for module in (corpus_module, state_codec):
        for name in ("get", "check"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _name=name, _real=real, **kw: calls.append(_name) or _real(*args, **kw))
    counts = []
    for turns in ("6", "12"):
        corpus, run = tmp_path / turns / "corpus", tmp_path / turns / "run"
        _synth(runner, corpus, ["--turns-per-dialogue", turns])
        args = ["run", "--corpus", str(corpus), "--strategy", "multimodal", "--predictor", "noisy", "--out", str(run)]
        assert runner.invoke(main, args).exit_code == 0
        calls.clear()
        corpus_module.parse_corpus(corpus, "synthetic_json")
        read_predictions(run / "predictions.ndjson")
        counts.append(len(calls))
    # the document's own fields are read by get and check, once per file
    assert 0 < counts[1] <= counts[0], counts


def test_evaluate_policy_exact_on_exact_oracle(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    runner.invoke(
        main,
        [
            "run",
            "--corpus", str(tmp_path / "corpus"),
            "--strategy", "multimodal",
            "--out", str(tmp_path / "run"),
        ],
    )
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--predictions", str(tmp_path / "run" / "predictions.ndjson"),
            "--corpus", str(tmp_path / "corpus"),
            "--policy", "exact",
        ],
    )
    assert result.exit_code == 0, result.output
    assert "JGA (post-processed):  1.0000" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--seeds", "0"], "Missing option '--n-queries'"),
        (["--n-queries", "1", "--seeds", ""], "Invalid value for --seeds: expected at least one seed, got ''"),
        (["--n-queries", "1", "--seeds", " , "], "Invalid value for --seeds: expected at least one seed, got ' , '"),
    ],
    ids=["no-n-queries", "no-seeds", "blank-seeds"],
)
def test_probe_with_nothing_to_train_is_a_usage_error(runner, tmp_path, args, message):
    result = runner.invoke(main, ["probe", *args, "--out", str(tmp_path / "probe.csv")])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "probe.csv").exists()


# derive_key keeps a seed's low 63 bits, so 2**63 would repeat seed 0's outputs and -1 those of 2**63 - 1
@pytest.mark.parametrize("command", ["synth", "run", "run-manifest", "probe"])
def test_a_seed_outside_0_to_2_pow_63_is_a_usage_error(runner, tmp_path, command):
    if command.startswith("run"):
        _synth(runner, tmp_path / "corpus")
    messages = {
        "synth": "Invalid value for --seed: {}",
        "run": "Invalid value for --seed: {}",
        "run-manifest": "Invalid value for --seed: {}",
        "probe": "Invalid value for --seeds: {}",
    }

    def invoke(seed: int, out: Path):
        if command == "synth":
            args = ["synth", "--seed", str(seed), "--n-dialogues", "2", "--turns-per-dialogue", "2"]
        elif command == "probe":
            args = ["probe", *_PROBE_BASE, "--seeds", str(seed)]  # the last --seeds counts
        else:
            args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "compressed", "--predictor", "noisy"]
            if command == "run-manifest":
                manifest = tmp_path / f"manifest{seed}.json"
                manifest.write_text(json.dumps({"corpus": str(tmp_path / "corpus"), "strategy": "compressed", "seed": seed}))
                args = ["run", "--manifest", str(manifest), "--predictor", "noisy"]
            else:
                args += ["--seed", str(seed)]
        return runner.invoke(main, [*args, "--out", str(out)])

    for seed, problem in ((-1, "must be in [0, 9223372036854775808), got -1"), (2**63, f"must be in [0, 9223372036854775808), got {2**63}")):
        result = invoke(seed, tmp_path / "rejected")
        assert result.exit_code == 2, result.output
        assert messages[command].format(problem) in result.output
        assert not (tmp_path / "rejected").exists()
    result = invoke(2**63 - 1, tmp_path / "accepted")
    assert result.exit_code == 0, result.output


def test_probe_rejects_non_integer_seeds(runner, tmp_path):
    args = ["probe", "--n-queries", "1", "--seeds", "0,x", "--out", str(tmp_path / "p.csv")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Invalid value for --seeds: expected comma-separated integers, got '0,x'" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "p.csv").exists()


def test_probe_smoke_row_shape(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "probe",
            "--n-queries", "1",
            "--n-queries", "4",
            "--n-queries", "8",
            "--seeds", "0,1",
            "--n-dialogues", "6",
            "--turns-per-dialogue", "4",
            "--epochs", "5",
            "--out", str(tmp_path / "probe.csv"),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "probe.csv").read_text().strip().splitlines()
    assert lines[0] == "seed,n_queries,accuracy"
    assert len(lines) == 1 + 6  # 2 seeds x 3 query counts


def test_gradcheck_command_passes(runner):
    result = runner.invoke(main, ["gradcheck"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    assert "FAIL" not in result.output


def test_gradcheck_command_fails_with_tight_threshold(runner):
    result = runner.invoke(main, ["gradcheck", "--threshold", "1e-18"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


@pytest.mark.parametrize(
    "args,flag",
    [
        (["--eps", "0"], "--eps"),
        (["--eps", "nan"], "--eps"),
        (["--eps", "-1e-5"], "--eps"),
        (["--threshold", "0"], "--threshold"),
        (["--threshold", "-1"], "--threshold"),
        (["--threshold", "nan"], "--threshold"),
        (["--threshold", "inf"], "--threshold"),
    ],
)
def test_gradcheck_rejects_bad_flags(runner, args, flag):
    result = runner.invoke(main, ["gradcheck", *args])
    assert result.exit_code == 2, result.output
    assert flag in result.output
    assert "Traceback" not in result.output


def test_gradcheck_command_fails_on_nan_gradients(runner, monkeypatch):
    monkeypatch.setattr(layers, "gelu_grad", lambda x, t=None: np.full_like(x, np.nan))
    result = runner.invoke(main, ["gradcheck"])
    assert result.exit_code == 1
    compressor_lines = [line for line in result.output.splitlines() if " compressor " in line]
    assert len(compressor_lines) == 6
    assert all(line.startswith("FAIL") and "max_rel_err=inf" in line for line in compressor_lines)


def _collector_case(runner, tmp_path, command: str, valid: bool) -> tuple[str, list[str], int]:
    """The function of ``cli`` that ``command`` calls on its way to a success
    or to a failure, the command's arguments, and its exit code on failure."""
    corpus, run_out = tmp_path / "corpus", tmp_path / "run"
    if command == "synth":
        return "_validated", ["synth", "--n-dialogues", "8" if valid else "0", "--out", str(corpus)], 2
    if command == "probe":
        args = ["probe", *_PROBE_BASE, "--epochs", "20", "--lr", "0.2" if valid else "1e6", "--out", str(tmp_path / "p.csv")]
        return "probe_runs", args, 1
    if command == "gradcheck":
        return "grad_check_suite", ["gradcheck", "--threshold", "1e-4" if valid else "1e-18"], 1
    _synth(runner, corpus)
    if command == "run":
        if not valid:
            next((corpus / "features").iterdir()).write_bytes(b"not a sidecar")
        return "load_corpus", ["run", "--corpus", str(corpus), "--strategy", "full", "--out", str(run_out)], 1
    assert runner.invoke(main, ["run", "--corpus", str(corpus), "--strategy", "full", "--out", str(run_out)]).exit_code == 0
    predictions = run_out / "predictions.ndjson"
    if not valid:
        predictions.write_text(predictions.read_text() + "{\n")
    args = ["evaluate", "--predictions", str(predictions), "--corpus", str(corpus), "--out", str(tmp_path / "report")]
    return "read_predictions", args, 1


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
@pytest.mark.parametrize("command", ["synth", "run", "evaluate", "probe", "gradcheck"])
def test_a_command_runs_with_the_collector_paused_and_leaves_it_as_found(
    runner, tmp_path, monkeypatch, command, valid, enabled
):
    name, args, failure = _collector_case(runner, tmp_path, command, valid)
    inside = []
    called = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: inside.append(gc.isenabled()) or called(*a, **k))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        result = runner.invoke(main, args)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert result.exit_code == (0 if valid else failure), result.output
    assert "Traceback" not in result.output
    assert inside == [False]


def _cycle_args(runner, tmp_path, command: str, n_dialogues: int) -> list[str]:
    """Arguments of ``command`` ("run-<strategy>-<workers>", "evaluate", "probe"
    or "gradcheck") on inputs of ``n_dialogues`` dialogues, made beforehand;
    gradcheck reads no input, so it runs the same suite each time."""
    if command == "probe":
        return ["probe", *_PROBE_BASE, "--n-dialogues", str(n_dialogues), "--n-queries", "2", "--out", str(tmp_path / "p.csv")]
    if command == "gradcheck":
        return ["gradcheck"]
    corpus, run_out = tmp_path / "corpus", tmp_path / "run"
    _synth(runner, corpus, ["--n-dialogues", str(n_dialogues)])
    _, strategy, workers = command.split("-") if command.startswith("run") else ("", "multimodal", "1")
    args = ["run", "--corpus", str(corpus), "--strategy", strategy, "--predictor", "noisy", "--workers", workers]
    args += ["--exclude-ids", "none", "--out", str(run_out)]
    if command == "evaluate":
        assert runner.invoke(main, args).exit_code == 0
        args = ["evaluate", "--predictions", str(run_out / "predictions.ndjson"), "--corpus", str(corpus)]
        args += ["--exclude-ids", "none", "--out", str(tmp_path / "report")]
    return args


def _cyclic_garbage(runner, args: list[str]) -> int:
    """How many objects ``dst-lab args`` leaves in reference cycles. The
    collector stays off throughout, so no collection frees one early."""
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return gc.collect()
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize(
    "command",
    [f"run-{s}-{w}" for s in ("multimodal", "full", "compressed") for w in (1, 2)] + ["evaluate", "probe", "gradcheck"],
)
def test_a_command_leaves_as_much_cyclic_garbage_on_four_times_the_input(runner, tmp_path, command):
    # a command runs with the collector paused, which is safe only while its garbage cycles do not grow with its input
    counts = [_cyclic_garbage(runner, _cycle_args(runner, tmp_path / str(n), command, n)) for n in (2, 8)]
    assert counts[0] == counts[1]


# the flags of each command that name no field of the object the command fills
_UNFORWARDED = {
    "run": {"--manifest", "--exclude-ids"},
    "synth": {"--seed", "--out"},
    "probe": {"--seeds", "--out", "--n-queries"},
}


@pytest.mark.parametrize(
    "command, fills",
    [
        ("run", {None: RunManifest}),
        ("synth", {None: SynthConfig}),
        ("probe", {"--lr": ProbeHyper, "--epochs": ProbeHyper, None: SynthConfig}),
    ],
)
def test_command_options_name_fields_of_the_objects_they_fill(command, fills):
    options = {param.opts[0]: param.name for param in main.commands[command].params}
    assert _UNFORWARDED[command] <= set(options)
    for flag, name in options.items():
        if flag in _UNFORWARDED[command]:
            continue
        target = fills.get(flag, fills[None])
        assert name in {f.name for f in dataclasses.fields(target)}, f"{command} {flag} names no {target.__name__} field"


@pytest.mark.parametrize("strategy", ["multimodal", "compressed"])
def test_run_flags_and_manifest_write_identical_outputs(runner, tmp_path, strategy):
    _synth(runner, tmp_path / "corpus")
    dialogue_id = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    agent_asr = tmp_path / "agent_asr.ndjson"
    agent_asr.write_text(json.dumps({"dialogue_id": dialogue_id, "turn_index": 2, "text": "two nights"}) + "\n")
    settings = {
        "corpus": str(tmp_path / "corpus"),
        "format": "synthetic_json",
        "strategy": strategy,
        "predictor": "noisy",
        "seed": 7,
        "n_queries": 3,
        "compress_current": True,
        "out": str(tmp_path / "run"),
        "workers": 1,
        "budget_rows": 40,
        "agent_asr": str(agent_asr),
    }
    flags = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    result = runner.invoke(main, ["run", *flags])
    assert result.exit_code == 0, result.output
    names = ("predictions.ndjson", "context_lengths.csv", "run_summary.json")
    from_flags = {name: (tmp_path / "run" / name).read_bytes() for name in names}
    shutil.rmtree(tmp_path / "run")

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(settings))
    result = runner.invoke(main, ["run", "--manifest", str(manifest)])
    assert result.exit_code == 0, result.output
    assert {name: (tmp_path / "run" / name).read_bytes() for name in names} == from_flags


# a name longer than a file name may be: the OS refuses to look it up
_LONG_NAME = "n" * 300

# small probe settings, so that a case that is not rejected still ends quickly
_PROBE_BASE = ["--n-queries", "1", "--seeds", "0", "--n-dialogues", "4", "--turns-per-dialogue", "2", "--epochs", "2"]


@pytest.mark.parametrize(
    "command, args, manifest, message",
    [
        ("run", [], {"predictor": "llm"}, "field 'predictor': must be one of ['exact', 'noisy', 'truncated'], got 'llm'"),
        ("run", [], {"format": "xml"}, "field 'format': must be one of ['synthetic_json', 'spokenwoz_json'], got 'xml'"),
        ("run", [], {"strategy": "bogus"}, "field 'strategy': must be one of ['compressed', 'compressed_spoken', 'full', 'full_spoken', 'multimodal'], got 'bogus'"),
        ("run", ["--corpus", "nope"], None, "field 'corpus': path 'nope' does not exist"),
        ("run", ["--seed", "-5"], None, "--seed: must be in [0, 9223372036854775808), got -5"),
        ("run", [], {"corpus": "nope"}, "field 'corpus': path 'nope' does not exist"),
        ("synth", ["--slots-per-dialogue", "5", "--fixed-domain", "hotel"], None, "slots_per_dialogue=5 exceeds available slots for ['hotel']"),
        ("probe", ["--n-dialogues", "0"], None, "--n-dialogues: must be in [1, 1048576], got 0"),
        ("probe", ["--n-dialogues", "1"], None, "--n-dialogues: must be at least 2 so that a dialogue is held out, got 1"),
        ("probe", ["--fixed-domain", "nowhere"], None, "unknown domain 'nowhere'"),
        ("probe", ["--noise-sigma", "-1"], None, "--noise-sigma: must be in [0, 1.16279e+99], got -1.0"),
        ("probe", ["--turns-per-dialogue", "0"], None, "--turns-per-dialogue: must be in [1, 1048576], got 0"),
        ("probe", ["--feature-dim", "0"], None, "--feature-dim: must be in [1, 1048576], got 0"),
        ("probe", ["--n-queries", "0"], None, "--n-queries: must be in [1, 1048576], got 0"),
        ("probe", ["--lr", "nan"], None, "--lr: must be in (0, inf), got nan"),
        ("probe", ["--lr", "-5"], None, "--lr: must be in (0, inf), got -5.0"),
        ("probe", ["--epochs", "-1"], None, "--epochs: must be in [0, 1048576], got -1"),
        ("probe", ["--seeds", "3,-1"], None, "--seeds: must be in [0, 9223372036854775808), got -1"),
        ("probe", ["--seeds", "0,3,0"], None, "--seeds: 0 is given more than once"),
        ("probe", ["--n-queries", "2", "--n-queries", "1"], None, "--n-queries: 1 is given more than once"),
        ("synth", ["--noise-sigma", "inf"], None, "--noise-sigma: must be in [0, 1.16279e+99], got inf"),
        ("evaluate", ["--top-k-errors", "-3"], None, "--top-k-errors: must be in [0, 1048576], got -3"),
        ("evaluate", ["--top-k-errors", str(2**63)], None, f"--top-k-errors: must be in [0, 1048576], got {2**63}"),
        ("synth", ["--slots-per-dialogue", "2", "--mentions-per-turn", "3"], None, "mentions_per_turn=3 exceeds slots_per_dialogue=2"),
        ("synth", ["--frames-per-token", str(2**63)], None, f"--frames-per-token: must be in [1, 1048576], got {2**63}"),
        ("probe", ["--epochs", str(2**63)], None, f"--epochs: must be in [0, 1048576], got {2**63}"),
        ("probe", ["--n-queries", str(2**63)], None, f"--n-queries: must be in [1, 1048576], got {2**63}"),
        ("run", [], {"n_layers": 2**63}, f"field 'n_layers': must be in [1, 1048576], got {2**63}"),
        ("run", [], {"d_model": 2**21}, "field 'd_model': must be in [1, 1048576], got 2097152"),
        ("run", [], {"corpus": _LONG_NAME}, f"field 'corpus': path '{_LONG_NAME}' does not exist"),
        ("run", [], {"agent_asr": _LONG_NAME}, f"field 'agent_asr': path '{_LONG_NAME}' does not exist"),
        ("evaluate", ["--policy", _LONG_NAME], None, f"a JSON file; '{_LONG_NAME}' not found"),
    ],
    ids=[
        "run-manifest-predictor", "run-manifest-format", "run-manifest-strategy", "run-corpus-flag", "run-seed",
        "run-manifest-corpus",
        "synth-slot-capacity", "probe-n-dialogues-0", "probe-n-dialogues-1", "probe-fixed-domain",
        "probe-noise-sigma", "probe-turns-per-dialogue", "probe-feature-dim", "probe-n-queries",
        "probe-lr-nan", "probe-lr-negative", "probe-epochs", "probe-seeds", "probe-seeds-repeated",
        "probe-n-queries-repeated", "synth-noise-sigma-inf", "evaluate-top-k-negative", "evaluate-top-k-huge",
        "synth-mentions-above-slots", "synth-frames-huge", "probe-epochs-huge", "probe-n-queries-huge",
        "run-manifest-n-layers-huge", "run-manifest-d-model-huge",
        "run-manifest-corpus-long", "run-manifest-agent-asr-long", "evaluate-policy-long",
    ],
)
def test_bad_setting_is_a_usage_error(runner, tmp_path, command, args, manifest, message):
    base = []
    if command == "run":
        _synth(runner, tmp_path / "corpus")
        base = ["--corpus", str(tmp_path / "corpus"), "--strategy", "full"]
        if manifest is not None:
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps({"corpus": str(tmp_path / "corpus"), "strategy": "full", **manifest}))
            base = ["--manifest", str(path)]
    elif command == "probe":
        base = _PROBE_BASE
    elif command == "evaluate":
        _synth(runner, tmp_path / "corpus")
        run = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--out", str(tmp_path / "run")]
        assert runner.invoke(main, run).exit_code == 0
        base = ["--predictions", str(tmp_path / "run" / "predictions.ndjson"), "--corpus", str(tmp_path / "corpus")]
    out = tmp_path / "out"
    result = runner.invoke(main, [command, *base, *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


# each command's --out that cannot be written, and the function that would start its work
_BAD_OUTS = {
    "run-file": ("run", "{file}", "{file} is not a directory", "load_corpus"),
    "run-under-file": ("run", "{file}/run", "{file} is not a directory", "load_corpus"),
    "run-manifest-file": ("run-manifest", "{file}", "{file} is not a directory", "load_corpus"),
    "evaluate-file": ("evaluate", "{file}", "{file} is not a directory", "read_predictions"),
    "synth-file": ("synth", "{file}", "{file} is not a directory", "synth_corpus"),
    "synth-under-file": ("synth", "{file}/corpus", "{file} is not a directory", "synth_corpus"),
    "probe-directory": ("probe", "{directory}", "{directory} is a directory", "synth_corpus"),
    "probe-under-file": ("probe", "{file}/p.csv", "{file} is not a directory", "synth_corpus"),
    "run-long": ("run", "{long}", "{long}: File name too long", "load_corpus"),
    "run-manifest-long": ("run-manifest", "{long}", "{long}: File name too long", "load_corpus"),
    "evaluate-long": ("evaluate", "{long}", "{long}: File name too long", "read_predictions"),
    "synth-long": ("synth", "{long}/corpus", "{long}/corpus: File name too long", "synth_corpus"),
    "probe-long": ("probe", "{long}", "{long}: File name too long", "synth_corpus"),
    "run-long-below-missing": ("run", "{missing}", "{missing}: File name too long", "load_corpus"),
    "evaluate-long-below-missing": ("evaluate", "{missing}", "{missing}: File name too long", "read_predictions"),
    "synth-long-below-missing": ("synth", "{missing}", "{missing}: File name too long", "synth_corpus"),
    "probe-long-below-missing": ("probe", "{missing}", "{missing}: File name too long", "synth_corpus"),
}


@pytest.mark.parametrize("case", list(_BAD_OUTS))
def test_unwritable_out_is_a_usage_error_before_any_work(runner, tmp_path, monkeypatch, case):
    command, out, message, work = _BAD_OUTS[case]
    _synth(runner, tmp_path / "corpus")
    (tmp_path / "out_file").write_text("kept")
    (tmp_path / "out_dir").mkdir()
    fill = {
        "{file}": str(tmp_path / "out_file"),
        "{directory}": str(tmp_path / "out_dir"),
        "{long}": str(tmp_path / _LONG_NAME),
        # below a missing directory the lookup stops at "x", before the long name
        "{missing}": str(tmp_path / "x" / _LONG_NAME / "y"),
    }
    for key, value in fill.items():
        out, message = out.replace(key, value), message.replace(key, value)

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} was called")

    monkeypatch.setattr(cli, work, no_work)
    predictions = tmp_path / "pred.ndjson"
    predictions.write_text("")
    corpus = str(tmp_path / "corpus")
    if command == "run-manifest":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"corpus": corpus, "strategy": "full", "out": out}))
        args = ["run", "--manifest", str(manifest)]
    else:
        args = {
            "run": ["run", "--corpus", corpus, "--strategy", "full", "--out", out],
            "evaluate": ["evaluate", "--predictions", str(predictions), "--corpus", corpus, "--out", out],
            "synth": ["synth", "--out", out],
            "probe": ["probe", *_PROBE_BASE, "--out", out],
        }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Invalid value for --out: {message}" in result.output
    assert "Traceback" not in result.output
    assert (tmp_path / "out_file").read_text() == "kept"
    assert list((tmp_path / "out_dir").iterdir()) == []
    assert not (tmp_path / "x").exists()


# the function that writes each command's output
_WRITERS = {"synth": "write_corpus", "run": "write_predictions", "evaluate": "render_report", "probe": "write_files"}


def _command_args(runner, tmp_path, command: str) -> list[str]:
    """Arguments of ``command`` up to its ``--out``, on small inputs made beforehand."""
    if command == "synth":
        return ["synth", "--n-dialogues", "2"]
    if command == "probe":
        return ["probe", *_PROBE_BASE]
    _synth(runner, tmp_path / "corpus")
    run = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full"]
    if command == "run":
        return run
    assert runner.invoke(main, run + ["--out", str(tmp_path / "run")]).exit_code == 0
    return ["evaluate", "--predictions", str(tmp_path / "run" / "predictions.ndjson"), "--corpus", str(tmp_path / "corpus")]


@pytest.mark.parametrize("case", ["refused-by-os", "permission-denied"])
@pytest.mark.parametrize("command", list(_WRITERS))
def test_an_output_that_cannot_be_written_is_a_one_line_error(runner, tmp_path, monkeypatch, command, case):
    args = _command_args(runner, tmp_path, command)
    if case == "refused-by-os":
        if not os.path.isdir("/proc"):
            pytest.skip("no /proc to refuse an output")
        out = named = "/proc/dstlab_out"  # /proc takes no new entry
    else:
        out = str(tmp_path / "out")
        named = out if command == "evaluate" else f"{out}/written"

        def refused(*args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), named)

        monkeypatch.setattr(cli, _WRITERS[command], refused)
    result = runner.invoke(main, args + ["--out", out])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    reasons = [os.strerror(errno.EACCES)] if case == "permission-denied" else map(os.strerror, errno.errorcode)
    assert errors[0] in {f"Error: {named}: {reason}" for reason in reasons}


@pytest.mark.parametrize("command", list(_WRITERS))
def test_a_closed_stdout_ends_a_command_quietly(runner, tmp_path, monkeypatch, command):
    args = _command_args(runner, tmp_path, command) + ["--out", str(tmp_path / "out")]

    def closed(*args, **kwargs):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(click, "echo", closed)
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == ""


def test_out_may_be_an_existing_directory_or_file(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    _synth(runner, tmp_path / "corpus")  # synth writes into an existing corpus directory
    for name in ("run", "report"):
        (tmp_path / name).mkdir()
    (tmp_path / "p.csv").write_text("old")
    for args in (
        ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "full", "--out", str(tmp_path / "run")],
        ["evaluate", "--predictions", str(tmp_path / "run" / "predictions.ndjson"), "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "report")],
        ["probe", *_PROBE_BASE, "--out", str(tmp_path / "p.csv")],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert (tmp_path / "report" / "report.json").exists()
    assert (tmp_path / "p.csv").read_text().startswith("seed,")


def test_probe_that_diverges_at_every_learning_rate_is_a_one_line_error(runner, tmp_path):
    args = ["probe", *_PROBE_BASE, "--epochs", "20", "--lr", "1e6", "--out", str(tmp_path / "p.csv")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error: probe training at seed 0 diverged at every learning rate tried" in result.output
    assert not (tmp_path / "p.csv").exists()


def test_unknown_flag_is_an_error(runner):
    result = runner.invoke(main, ["synth", "--frobnicate", "--out", "x"])
    assert result.exit_code != 0
    assert "No such option" in result.output


def test_help_mentions_core_flags(runner):
    for command, flags in {
        "run": ["--corpus", "--strategy", "--n-queries", "--compress-current", "--predictor", "--seed", "--exclude-ids", "--out", "--workers"],
        "evaluate": ["--predictions", "--policy"],
        "synth": ["--seed", "--out"],
        "probe": ["--n-queries", "--seeds"],
    }.items():
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        for flag in flags:
            assert flag in result.output
