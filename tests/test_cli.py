from __future__ import annotations

import builtins
import csv
import dataclasses
import json
import os
import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dst_lab import assembly, cli
from dst_lab import corpus as corpus_module
from dst_lab.cli import RunManifest, main
from dst_lab.corpus import SynthConfig, default_corrupted_ids, filter_corrupted, load_corpus, synthetic_taxonomy
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
    assert "turns_per_dialogue" in result.output


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
    assert message in result.output


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
    assert f"Invalid value for {flag}: must be >= 1, got {value}" in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("stride", 0, "must be >= 1, got 0"),
        ("d_model", 0, "must be >= 1, got 0"),
        ("n_heads", -2, "must be >= 1, got -2"),
        ("n_heads", 3, "must divide d_model=16, got 3"),
        ("n_layers", 0, "must be >= 1, got 0"),
        ("budget_rows", 0, "must be >= 1, got 0"),
        ("drop_prob", 1.5, "must be in [0, 1], got 1.5"),
        ("typo_prob", -0.1, "must be in [0, 1], got -0.1"),
        ("insert_prob", float("nan"), "must be in [0, 1], got nan"),
        ("time_reformat_prob", float("inf"), "must be in [0, 1], got inf"),
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
    assert f"Invalid value for field '{field}': {message}" in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("compress_current", ["--compress-current", "--no-compress-current"])
def test_context_lengths_csv_matches_assembled_contexts(runner, tmp_path, monkeypatch, compress_current):
    _synth(runner, tmp_path / "corpus")
    assembled: dict[int, list[int]] = {}
    original = assembly.assemble

    def recording_assemble(strategy, turn_embeddings, *args, **kwargs):
        context = original(strategy, turn_embeddings, *args, **kwargs)
        assembled.setdefault(turn_embeddings[-1].turn_index, []).append(context.total_rows)
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


def test_run_isolates_per_dialogue_failures(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    # strip one dialogue's feature sidecars: embedding it must fail, others run
    victim = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    for sidecar in (tmp_path / "corpus" / "features").glob(f"{victim}__*"):
        sidecar.unlink()
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
    (tmp_path / "corpus" / "features" / f"{first.id}__t0002.f64").unlink()
    (tmp_path / "corpus" / "features" / f"{second.id}__t0006.f64").unlink()

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
    (tmp_path / "corpus" / "features" / f"{victim}__t0002.f64").unlink()
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
    victim = load_corpus(tmp_path / "corpus", "synthetic_json")[1].id
    # agent turn 2 and user turns 3 and 5: the spoken contexts read all three,
    # the multimodal ones only the user turns
    for turn in (5, 2, 3):
        (tmp_path / "corpus" / "features" / f"{victim}__t{turn:04d}.f64").unlink()
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
    read: list[str] = []
    real_read = corpus_module.read_feature_sidecar

    def counting_read(path):
        read.append(Path(path).name)
        return real_read(path)

    monkeypatch.setattr(corpus_module, "read_feature_sidecar", counting_read)
    args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", strategy, "--exclude-ids", victim]
    result = runner.invoke(main, args + extra + ["--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "run" / "run_summary.json").read_text())["failures"] == []
    # six turns each: no context reads the trailing agent turn 6, nor under multimodal any agent turn
    kept = [d for d in dialogues if d.id != victim]
    assert all(assembly.read_turns(cli._STRATEGY_ALIASES[strategy], d) == expected for d in kept)
    assert sorted(read) == sorted(f"{d.id}__t{i:04d}.f64" for d in kept for i in expected)
    assert not [name for name in read if name.startswith(victim)]


def test_run_without_a_sidecar_on_any_read_turn_is_a_click_error(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    # agent turns keep their sidecars, but no multimodal context reads one
    for sidecar in (tmp_path / "corpus" / "features").glob("*__t000[135].f64"):
        sidecar.unlink()
    args = ["run", "--corpus", str(tmp_path / "corpus"), "--strategy", "multimodal", "--out", str(tmp_path / "run")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert "Error: no turn that a context reads has a feature sidecar" in result.output


def _write_bad_sidecar(features_dir: Path, dialogue, turn_index: int, fault: str) -> Path:
    sidecar = features_dir / f"{dialogue.id}__t{turn_index:04d}.f64"
    features = dialogue.turn(turn_index).features.copy()
    header_turn = turn_index
    if fault == "non_finite":
        features[0, 1] = np.inf
    else:
        header_turn = turn_index + 2
    corpus_module.write_feature_sidecar(sidecar, dialogue.id, header_turn, features)
    return sidecar


@pytest.mark.parametrize("fault, message, offset", [
    ("non_finite", "non-finite feature value", "sidecar"),
    ("header_mismatch", "sidecar header is for", 12),
])
def test_run_opens_no_sidecar_its_contexts_do_not_read(runner, tmp_path, fault, message, offset):
    _synth(runner, tmp_path / "corpus")
    dialogues = load_corpus(tmp_path / "corpus", "synthetic_json")
    base = ["run", "--corpus", str(tmp_path / "corpus"), "--predictor", "noisy"]
    result = runner.invoke(main, base + ["--strategy", "multimodal", "--out", str(tmp_path / "clean")])
    assert result.exit_code == 0, result.output
    # a middle agent turn and the trailing one: no multimodal context reads either
    features_dir = tmp_path / "corpus" / "features"
    middle = _write_bad_sidecar(features_dir, dialogues[1], 2, fault)
    _write_bad_sidecar(features_dir, dialogues[3], 6, fault)

    result = runner.invoke(main, base + ["--strategy", "multimodal", "--out", str(tmp_path / "mm")])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "mm" / "run_summary.json").read_text())["failures"] == []
    for name in ("predictions.ndjson", "context_lengths.csv"):
        assert (tmp_path / "mm" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    # the spoken contexts of user turns 3 and 5 read turn 2, so the run ends at load
    result = runner.invoke(main, base + ["--strategy", "full", "--out", str(tmp_path / "full")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    if offset == "sidecar":  # the byte of row 0, column 1 in the payload, which ends the file
        offset = middle.stat().st_size - dialogues[1].turn(2).features.size * 8 + 8
    assert f"Error: {message}" in result.output
    assert f"[file: {middle}] [offset: {offset}]" in result.output
    # a dialogue that --exclude-ids drops has no sidecar read
    result = runner.invoke(
        main, base + ["--strategy", "full", "--exclude-ids", dialogues[1].id, "--out", str(tmp_path / "excluded")]
    )
    assert result.exit_code == 0, result.output


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


def test_run_loses_only_the_dialogue_that_kills_its_worker(runner, tmp_path, monkeypatch):
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
    result = _invoke_on_corpus(runner, tmp_path, command, [])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error: malformed JSON" in result.output
    assert f"[file: {document}]" in result.output
    assert "[offset: " in result.output


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
    assert re.search(re.escape(f"Error: {message}") + r".* \(line \d+, column \d+\)", result.output), result.output
    assert f"[file: {document}]" in result.output


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize("format_, document", [("synthetic_json", "corpus.json"), ("spokenwoz_json", "data.json")])
def test_missing_corpus_document_is_a_click_error(runner, tmp_path, command, format_, document):
    (tmp_path / "corpus").mkdir()
    result = _invoke_on_corpus(runner, tmp_path, command, ["--format", format_])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    path = tmp_path / "corpus" / document
    assert f"Error: cannot read corpus document: No such file or directory [file: {path}]" in result.output


def test_unreadable_sidecar_of_a_read_turn_is_a_click_error(runner, tmp_path):
    _synth(runner, tmp_path / "corpus")
    dialogue_id = load_corpus(tmp_path / "corpus", "synthetic_json")[0].id
    sidecar = tmp_path / "corpus" / "features" / f"{dialogue_id}__t0001.f64"
    sidecar.unlink()
    sidecar.mkdir()
    result = _invoke_on_corpus(runner, tmp_path, "run", [])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Error: cannot read feature sidecar: Is a directory [file: {sidecar}]" in result.output


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
    assert f"{path}:2: {reason}" in result.output
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
    ],
    ids=[
        "list", "groups-list", "categorical-string", "value-list-string", "unknown-group", "key-without-dash",
        "value-list-numbers",
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
    assert f"Error: {reason} (line " in result.output
    assert f"[file: {document}]" in result.output


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"fuzzy_threshold": ', ":1:21: malformed JSON"),
        ("[0.9]", "expected a JSON object, got list"),
        ('{"bogus": 1}', "unknown policy keys: ['bogus']"),
        ('{"fuzzy_threshold": "high"}', "fuzzy_threshold must be a number"),
        ('{"fuzzy_threshold": true}', "fuzzy_threshold must be a number"),
        ('{"fuzzy_threshold": NaN}', "fuzzy_threshold must be in [0, 1], got nan"),
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
    assert "Invalid value for --policy" in result.output
    assert f"{path}" in result.output
    assert message in result.output


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
    good = '{"dialogue_id": "d0", "turn_index": 2, "text": "hi"}'
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
    expected = render_report(report, {"json", "csv", "svg"}, tmp_path / "expected")

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
    assert f"{path}:4: duplicate record for dialogue 'd0' turn 1, first on line 1" in result.output


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


def test_probe_empty_n_queries_writes_header_only(runner, tmp_path):
    result = runner.invoke(main, ["probe", "--seeds", "0", "--out", str(tmp_path / "probe.csv")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "probe.csv").read_text() == "seed,n_queries,accuracy\n"


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


# small probe settings, so that a case that is not rejected still ends quickly
_PROBE_BASE = ["--n-queries", "1", "--seeds", "0", "--n-dialogues", "4", "--turns-per-dialogue", "2", "--epochs", "2"]


@pytest.mark.parametrize(
    "command, args, manifest, message",
    [
        ("run", [], {"predictor": "llm"}, "field 'predictor': must be one of ['exact', 'noisy', 'truncated'], got 'llm'"),
        ("run", [], {"format": "xml"}, "field 'format': must be one of ['synthetic_json', 'spokenwoz_json'], got 'xml'"),
        ("run", ["--corpus", "nope"], None, "field 'corpus': path 'nope' does not exist"),
        ("run", ["--seed", "-5"], None, "field 'seed': must be >= 0, got -5"),
        ("run", [], {"corpus": "nope"}, "field 'corpus': path 'nope' does not exist"),
        ("synth", ["--slots-per-dialogue", "5", "--fixed-domain", "hotel"], None, "slots_per_dialogue=5 exceeds available slots for ['hotel']"),
        ("probe", ["--n-dialogues", "0"], None, "n_dialogues must be >= 1, got 0"),
        ("probe", ["--n-dialogues", "1"], None, "--n-dialogues: must be >= 2 so that a dialogue is held out, got 1"),
        ("probe", ["--fixed-domain", "nowhere"], None, "unknown domain 'nowhere'"),
        ("probe", ["--noise-sigma", "-1"], None, "noise_sigma must be >= 0, got -1.0"),
        ("probe", ["--turns-per-dialogue", "0"], None, "turns_per_dialogue must be >= 1, got 0"),
        ("probe", ["--feature-dim", "0"], None, "feature_dim must be >= 1, got 0"),
        ("probe", ["--n-queries", "0"], None, "--n-queries: must be >= 1, got 0"),
        ("probe", ["--lr", "nan"], None, "lr must be a positive finite number, got nan"),
        ("probe", ["--lr", "-5"], None, "lr must be a positive finite number, got -5.0"),
        ("probe", ["--epochs", "-1"], None, "epochs must be >= 0, got -1"),
        ("probe", ["--seeds", "3,-1"], None, "seed must be >= 0, got -1"),
        ("synth", ["--noise-sigma", "inf"], None, "noise_sigma must be finite, got inf"),
    ],
    ids=[
        "run-manifest-predictor", "run-manifest-format", "run-corpus-flag", "run-seed", "run-manifest-corpus",
        "synth-slot-capacity", "probe-n-dialogues-0", "probe-n-dialogues-1", "probe-fixed-domain",
        "probe-noise-sigma", "probe-turns-per-dialogue", "probe-feature-dim", "probe-n-queries",
        "probe-lr-nan", "probe-lr-negative", "probe-epochs", "probe-seeds", "synth-noise-sigma-inf",
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
    out = tmp_path / "out"
    result = runner.invoke(main, [command, *base, *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


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
