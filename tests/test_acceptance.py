"""Acceptance suite: one test per release criterion, each printing a
"ACCEPTANCE <n> PASS/FAIL" line (run with -s to stream them)."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dst_lab.neural.probe as probe_module
from dst_lab.assembly import EmbeddingPipeline, OracleExact, OracleNoisy, run_dialogue
from dst_lab.cli import main as cli_main
from dst_lab.corpus import DialogueState, SynthConfig, synth_corpus, synthetic_taxonomy
from dst_lab.metrics import evaluate, references_from_corpus
from dst_lab.neural.gradcheck import grad_check_suite
from dst_lab.neural.layers import Layer
from dst_lab.neural.pipeline import (
    CompressorConfig,
    build_compressor,
    build_connector,
    build_encoder_stub,
)
from dst_lab.neural.probe import ProbeHyper, probe_retention, probe_runs
from dst_lab.neural.train import train
from dst_lab.postprocess import MatchPolicy, levenshtein_ratio, values_match
from dst_lab.corpus import SplitMix64
from dst_lab.reporting import MethodComparisonRow, render_method_comparison
from dst_lab.state_codec import Strategy

from oracles import (
    oracle_embed_turn,
    oracle_error_breakdown,
    oracle_group_f1,
    oracle_jga,
    oracle_levenshtein_ratio,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:>2} PASS  {description} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 1. Metric oracle equivalence on 200 seeded synthetic dialogues
# ---------------------------------------------------------------------------


def test_acceptance_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence on 200 noisy synthetic dialogues"):
        start = time.monotonic()
        taxonomy = synthetic_taxonomy()
        corpus = synth_corpus(
            2024,
            SynthConfig(n_dialogues=200, turns_per_dialogue=10, feature_dim=4, slots_per_dialogue=4),
        )
        references = references_from_corpus(corpus)
        noisy = OracleNoisy(seed=17, drop_prob=0.1, typo_prob=0.15, insert_prob=0.08, time_reformat_prob=0.3)
        predictions = {
            (dlg_id, idx): noisy.perturb_state(dlg_id, idx, ref)
            for (dlg_id, idx), ref in references.items()
        }
        policy = MatchPolicy()
        groups = taxonomy.classify
        fuzzy = set(policy.fuzzy_groups)

        report = evaluate(predictions, references, policy, taxonomy, 6)
        ours_jga = report.jga_post
        expected_jga = oracle_jga(predictions, references, groups, policy.fuzzy_threshold, fuzzy, True)
        assert abs(ours_jga - expected_jga) <= 1e-12

        ours_f1 = report.group_f1
        expected_f1 = oracle_group_f1(predictions, references, groups, policy.fuzzy_threshold, fuzzy, True)
        for group, (p, r, f1, *_counts) in expected_f1.items():
            assert abs(ours_f1[group][0] - p) <= 1e-12
            assert abs(ours_f1[group][1] - r) <= 1e-12
            assert abs(ours_f1[group][2] - f1) <= 1e-12

        ours_err = report.slot_errors
        expected_err = oracle_error_breakdown(predictions, references, groups, True, 6)
        assert list(ours_err.keys()) == list(expected_err.keys())
        for key, entry in ours_err.items():
            assert entry.insertions == expected_err[key]["insertions"]  # integer-exact
            assert entry.deletions == expected_err[key]["deletions"]
            ratios, expected_ratios = entry.matched_ratios, expected_err[key]["ratios"]
            assert len(ratios) == len(expected_ratios)
            assert max(
                (abs(a - b) for a, b in zip(ratios, expected_ratios)), default=0.0
            ) <= 1e-12

        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 2. Post-processing gain on a hand-built 50-turn fixture
# ---------------------------------------------------------------------------


def _post_processing_fixture():
    references: dict[tuple[str, int], DialogueState] = {}
    predictions: dict[tuple[str, int], DialogueState] = {}

    def add(i: int, ref_slots: dict, pred_slots: dict):
        domains = sorted({d for d, _ in ref_slots})
        pred_domains = sorted({d for d, _ in pred_slots})
        references[("fx", 2 * i - 1)] = DialogueState(domains, dict(ref_slots))
        predictions[("fx", 2 * i - 1)] = DialogueState(pred_domains, dict(pred_slots))

    turn = 1
    for _ in range(30):  # exact matches
        add(turn, {("hotel", "area"): "north"}, {("hotel", "area"): "north"})
        turn += 1
    for _ in range(6):  # rescued by time canonicalization only
        add(turn, {("taxi", "leaveat"): "17:30"}, {("taxi", "leaveat"): "5:30 pm"})
        turn += 1
    for _ in range(3):  # rescued by fuzzy matching (ratio 0.95 on an open slot)
        add(
            turn,
            {("hotel", "name"): "pizza hut fen ditton"},
            {("hotel", "name"): "pizza hut fenditton"},
        )
        turn += 1
    for _ in range(3):  # rescued by fuzzy matching on a profile slot (ratio 14/15)
        add(
            turn,
            {("profile", "name"): "alexandermorgan"},
            {("profile", "name"): "alexandermorgon"},
        )
        turn += 1
    for _ in range(8):  # spelling damage past the 0.90 threshold: stays wrong
        add(turn, {("hotel", "name"): "graffiti"}, {("hotel", "name"): "grft"})
        turn += 1
    assert len(references) == 50
    return predictions, references


def test_acceptance_2_post_processing_gain():
    with criterion(2, "post-processing JGA gain >= 2 points on the 50-turn fixture"):
        predictions, references = _post_processing_fixture()
        taxonomy = synthetic_taxonomy()
        groups = taxonomy.classify

        # derive the expected values with the independent oracle first
        expected_exact = oracle_jga(predictions, references, groups, 1.0, set(), False)
        expected_post = oracle_jga(predictions, references, groups, 0.90, {"open", "profile"}, True)
        assert expected_exact == pytest.approx(30 / 50)
        assert expected_post == pytest.approx(42 / 50)

        report = evaluate(predictions, references, MatchPolicy(), taxonomy)
        got_exact, got_post = report.jga, report.jga_post
        assert got_exact == pytest.approx(expected_exact, abs=1e-12)
        assert got_post == pytest.approx(expected_post, abs=1e-12)
        assert (got_post - got_exact) * 100 >= 2.0


# ---------------------------------------------------------------------------
# 3. Fuzzy matcher against the DP oracle on 10,000 random pairs
# ---------------------------------------------------------------------------


def test_acceptance_3_levenshtein_oracle_and_symmetry():
    with criterion(3, "levenshtein ratio equals DP oracle on 10,000 pairs; symmetry holds"):
        rng = SplitMix64(4242)
        alphabet = list("abcdef :-")
        policy = MatchPolicy()
        for _ in range(10_000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(13)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(13)))
            assert levenshtein_ratio(a, b) == oracle_levenshtein_ratio(a, b)
            for group in ("open", "time"):
                assert values_match(a, b, group, policy) == values_match(b, a, group, policy)


# ---------------------------------------------------------------------------
# 4. Context-length law, zero tolerance
# ---------------------------------------------------------------------------


def test_acceptance_4_context_length_law():
    with criterion(4, "assembled row counts obey the exact context-length formulas"):
        corpus = synth_corpus(
            31,
            SynthConfig(
                n_dialogues=12, turns_per_dialogue=9, feature_dim=8, slots_per_dialogue=5,
                noise_sigma=0.2, frames_per_token=2,
            ),
        )
        n_queries = 10
        config = CompressorConfig(d_model=16, n_heads=2, n_queries=n_queries, seed=2)
        compressor = build_compressor(config)
        for stride in (1, 3):
            embedder = EmbeddingPipeline(
                connector=build_connector(8, config),
                encoder_stub=build_encoder_stub(8, config),
                stride=stride,
            )
            for dlg in corpus:
                rows = [oracle_embed_turn(embedder, dlg, t.index).shape[0] for t in dlg.turns]
                context_rows = {
                    strategy: {
                        r.turn_index: r.context_rows
                        for r in run_dialogue(dlg, strategy, OracleExact(), embedder, compressor)
                    }
                    for strategy in Strategy
                }
                for n in dlg.user_turn_indices():
                    assert context_rows[Strategy.FULL_SPOKEN][n] == sum(rows[:n])
                    assert context_rows[Strategy.COMPRESSED_SPOKEN][n] == (n - 1) * n_queries + rows[n - 1]
                    assert context_rows[Strategy.MULTIMODAL][n] == rows[n - 1]


# ---------------------------------------------------------------------------
# 5. Gradient verification
# ---------------------------------------------------------------------------


def test_acceptance_5_gradient_verification():
    with criterion(5, "analytic vs finite-difference gradients < 1e-4 for all modules"):
        start = time.monotonic()
        results = grad_check_suite(eps=1e-5)
        modules = {r.module for r in results}
        assert modules == {"connector", "compressor", "readout"}
        # three shapes per module; compressor checked at 1 and 10 queries
        assert len([r for r in results if r.module == "connector"]) == 3
        assert len([r for r in results if r.module == "compressor"]) == 6
        assert len([r for r in results if r.module == "readout"]) == 3
        for result in results:
            assert result.max_relative_error < 1e-4, (
                f"{result.module} {result.input_shape}: {result.max_relative_error}"
            )
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. Retention probe (compression capacity analog)
# ---------------------------------------------------------------------------


def _probe_config(seed: int, noise: float) -> list:
    return synth_corpus(
        seed,
        SynthConfig(
            n_dialogues=60, turns_per_dialogue=10, feature_dim=16, slots_per_dialogue=4,
            noise_sigma=noise, mentions_per_turn=4, fixed_domain="hotel",
        ),
    )


def test_acceptance_6_retention_probe():
    with criterion(6, "8-query recovery beats 1-query by >= 10 points; lossless case >= 99%"):
        start = time.monotonic()
        lossless_corpus = _probe_config(0, noise=0.0)
        turn_rows = lossless_corpus[0].turns[0].features.shape[0]
        # the eleven configs are independent, so probe_runs trains them side by side
        lossless, *results = probe_runs(
            [(lossless_corpus, [turn_rows], ProbeHyper(lr=0.2, epochs=800, seed=0))]
            + [(_probe_config(seed, 0.5), [1, 8], ProbeHyper(lr=0.2, epochs=600, seed=seed)) for seed in range(5)]
        )
        acc1 = [result[1] for result in results]
        acc8 = [result[8] for result in results]
        gap = float(np.mean(acc8)) - float(np.mean(acc1))
        print(f"  retention: mean acc(1)={np.mean(acc1):.3f} acc(8)={np.mean(acc8):.3f} gap={gap:.3f}")
        assert gap >= 0.10

        print(f"  lossless: n_queries={turn_rows} accuracy={lossless[turn_rows]:.4f}")
        assert lossless[turn_rows] >= 0.99
        assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------------------
# 7. Freeze contract: encoder stub bytes identical across probe training
# ---------------------------------------------------------------------------


def layer_bytes(layer: Layer) -> bytes:
    """One layer's parameters as C-order little-endian float64 bytes, in name order."""
    params = layer.params()
    return b"".join(
        np.ascontiguousarray(params[name], dtype="<f8").tobytes(order="C") for name in sorted(params)
    )


def test_acceptance_7_freeze_contract(monkeypatch):
    with criterion(7, "frozen encoder-stub checkpoint bytes identical across training"):
        corpus = synth_corpus(
            3,
            SynthConfig(
                n_dialogues=8, turns_per_dialogue=6, feature_dim=8, slots_per_dialogue=4,
                noise_sigma=0.2, mentions_per_turn=4, fixed_domain="restaurant",
            ),
        )
        hyper = ProbeHyper(lr=0.1, epochs=40, seed=0, d_model=8)
        config = CompressorConfig(d_model=8, n_heads=2, n_queries=2, seed=0)
        # record the stages the probe builds and the stages it trains
        built: dict[str, Layer] = {}
        trained: list[tuple[list[Layer], list[Layer]]] = []

        def recording(name, build):
            def wrapper(*args):
                built[name] = build(*args)
                return built[name]
            return wrapper

        def recording_train(stages, dataset, **schedule):
            outcome = train(stages, dataset, **schedule)
            trained.append((stages, outcome.stages))
            return outcome

        monkeypatch.setattr(probe_module, "build_encoder_stub", recording("encoder_stub", build_encoder_stub))
        monkeypatch.setattr(probe_module, "build_connector", recording("connector", build_connector))
        monkeypatch.setattr(probe_module, "train", recording_train)
        probe_retention(corpus, [2], hyper)
        assert layer_bytes(built["encoder_stub"]) == layer_bytes(build_encoder_stub(8, config))
        assert layer_bytes(built["connector"]) == layer_bytes(build_connector(8, config))
        [(before, after)] = trained
        assert layer_bytes(before[0]) == layer_bytes(build_compressor(config))
        assert layer_bytes(before[0]) != layer_bytes(after[0])


# ---------------------------------------------------------------------------
# 8. Oracle end-to-end: run + evaluate = JGA 1.0 for all three strategies
# ---------------------------------------------------------------------------


def test_acceptance_8_oracle_end_to_end(tmp_path):
    with criterion(8, "cmd_run(OracleExact) + cmd_evaluate yields JGA 1.0 for all strategies"):
        runner = CliRunner()
        corpus_dir = tmp_path / "corpus"
        result = runner.invoke(
            cli_main,
            ["synth", "--seed", "5", "--n-dialogues", "6", "--turns-per-dialogue", "8",
             "--feature-dim", "8", "--out", str(corpus_dir)],
        )
        assert result.exit_code == 0, result.output
        for strategy in ("multimodal", "full", "compressed"):
            run_dir = tmp_path / f"run-{strategy}"
            result = runner.invoke(
                cli_main,
                ["run", "--corpus", str(corpus_dir), "--strategy", strategy,
                 "--predictor", "exact", "--out", str(run_dir)],
            )
            assert result.exit_code == 0, result.output
            report_dir = tmp_path / f"report-{strategy}"
            result = runner.invoke(
                cli_main,
                ["evaluate", "--predictions", str(run_dir / "predictions.ndjson"),
                 "--corpus", str(corpus_dir), "--out", str(report_dir)],
            )
            assert result.exit_code == 0, result.output
            report = json.loads((report_dir / "report.json").read_text())
            assert report["jga"] == 1.0
            assert report["jga_post"] == 1.0


# ---------------------------------------------------------------------------
# 9. Determinism of runs and reports, including parallel workers
# ---------------------------------------------------------------------------


def test_acceptance_9_run_determinism(tmp_path):
    with criterion(9, "identical manifests give byte-identical predictions and reports"):
        runner = CliRunner()
        corpus_dir = tmp_path / "corpus"
        result = runner.invoke(
            cli_main,
            ["synth", "--seed", "8", "--n-dialogues", "6", "--turns-per-dialogue", "6",
             "--feature-dim", "8", "--out", str(corpus_dir)],
        )
        assert result.exit_code == 0, result.output
        manifest = {
            "corpus": str(corpus_dir),
            "strategy": "compressed",
            "predictor": "noisy",
            "seed": 21,
            "n_queries": 4,
        }
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        for name, workers in (("r1", 1), ("r2", 1), ("r3", 3)):
            result = runner.invoke(
                cli_main,
                ["run", "--manifest", str(manifest_path), "--out", str(tmp_path / name),
                 "--workers", str(workers)],
            )
            assert result.exit_code == 0, result.output
            result = runner.invoke(
                cli_main,
                ["evaluate", "--predictions", str(tmp_path / name / "predictions.ndjson"),
                 "--corpus", str(corpus_dir), "--out", str(tmp_path / name / "report")],
            )
            assert result.exit_code == 0, result.output
        for filename in ("predictions.ndjson", "context_lengths.csv"):
            base = (tmp_path / "r1" / filename).read_bytes()
            assert base == (tmp_path / "r2" / filename).read_bytes()
            assert base == (tmp_path / "r3" / filename).read_bytes()
        report_names = [p.name for p in sorted((tmp_path / "r1" / "report").iterdir())]
        assert report_names
        for filename in report_names:
            base = (tmp_path / "r1" / "report" / filename).read_bytes()
            assert base == (tmp_path / "r2" / "report" / filename).read_bytes()
            assert base == (tmp_path / "r3" / "report" / filename).read_bytes()


# ---------------------------------------------------------------------------
# 10. Headline-table rendering against the golden file
# ---------------------------------------------------------------------------


def test_acceptance_10_table_rendering_golden():
    with criterion(10, "method-comparison table reproduces the golden file byte-for-byte"):
        rows = [
            MethodComparisonRow("Multimodal Context (baseline)", 31.85, 32.06),
            MethodComparisonRow("Full Spoken Context", 36.89, 36.29),
            MethodComparisonRow("Compressed Spoken Context (1 query)", 31.03, 30.99),
            MethodComparisonRow("Compressed Spoken Context (10 queries)", 34.26, 33.51),
        ]
        rendered = render_method_comparison(rows).encode("utf-8")
        assert rendered == (GOLDEN / "method_comparison.csv").read_bytes()
