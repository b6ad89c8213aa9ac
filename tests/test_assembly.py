from __future__ import annotations

import numpy as np
import pytest

from dst_lab import assembly
from dst_lab.assembly import (
    EmbeddingPipeline,
    OracleExact,
    OracleNoisy,
    OracleTruncated,
    assemble,
    context_length_report,
    make_predictor,
    run_dialogue,
)
from dst_lab.corpus import DialogueState
from dst_lab.metrics import evaluate, references_from_corpus
from dst_lab.neural.pipeline import (
    CompressorConfig,
    SpeechEmbedding,
    build_compressor,
    build_connector,
    build_encoder_stub,
    compress_turn,
)
from dst_lab.postprocess import MatchPolicy
from dst_lab.state_codec import Strategy

from oracles import oracle_total_rows

RNG = np.random.default_rng(77)
CONFIG = CompressorConfig(d_model=16, n_heads=2, n_queries=10, seed=5)


def _embeddings(rows: list[int]) -> list[SpeechEmbedding]:
    return [
        SpeechEmbedding(RNG.standard_normal((r, CONFIG.d_model)), "d0", i + 1)
        for i, r in enumerate(rows)
    ]


def _embedder(feature_dim: int, stride: int = 1) -> EmbeddingPipeline:
    return EmbeddingPipeline(
        connector=build_connector(feature_dim, CONFIG),
        encoder_stub=build_encoder_stub(feature_dim, CONFIG),
        stride=stride,
    )


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def test_context_turns():
    assert list(assembly.context_turns(Strategy.MULTIMODAL, 5)) == [5]
    for strategy in (Strategy.FULL_SPOKEN, Strategy.COMPRESSED_SPOKEN):
        assert list(assembly.context_turns(strategy, 5)) == [1, 2, 3, 4, 5]


def test_single_turn_all_strategies_equal_h1():
    embs = _embeddings([12])
    compressor = build_compressor(CONFIG)
    for strategy in Strategy:
        ctx = assemble(strategy, embs, compressor)
        assert np.array_equal(ctx.speech_part, embs[0].matrix)
        assert ctx.total_rows == 12


def test_full_spoken_row_sum():
    ctx = assemble(Strategy.FULL_SPOKEN, _embeddings([30, 20, 25, 15]))
    assert ctx.total_rows == 90


def test_compressed_rows_formula():
    ctx = assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([30, 20, 25, 15]), build_compressor(CONFIG))
    assert ctx.total_rows == 3 * 10 + 15


def test_multimodal_keeps_only_current_turn():
    embs = _embeddings([30, 20, 25, 15])
    ctx = assemble(Strategy.MULTIMODAL, embs)
    assert np.array_equal(ctx.speech_part, embs[-1].matrix)
    assert [s.turn_index for s in ctx.bookkeeping] == [4]


def test_bookkeeping_partitions_rows():
    for strategy in (Strategy.FULL_SPOKEN, Strategy.COMPRESSED_SPOKEN):
        ctx = assemble(strategy, _embeddings([7, 3, 9, 2, 5]), build_compressor(CONFIG))
        position = 0
        for span in ctx.bookkeeping:
            assert span.start_row == position
            position += span.n_rows
        assert position == ctx.total_rows
        assert [s.turn_index for s in ctx.bookkeeping] == [1, 2, 3, 4, 5]


def test_missing_compressor_rejected():
    with pytest.raises(ValueError, match="requires a compressor"):
        assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([5, 5]))


def test_compress_current_flag():
    ctx = assemble(
        Strategy.COMPRESSED_SPOKEN,
        _embeddings([30, 20, 25, 15]),
        build_compressor(CONFIG),
        compress_current=True,
    )
    assert ctx.total_rows == 4 * 10


def test_prior_turn_rows_never_change_compressed_total():
    compressor = build_compressor(CONFIG)
    a = assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([30, 20, 15]), compressor)
    b = assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([3, 200, 15]), compressor)
    assert a.total_rows == b.total_rows == 2 * 10 + 15
    c = assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([30, 20, 17]), compressor)
    assert c.total_rows == a.total_rows + 2


def test_assemble_deterministic():
    embs = _embeddings([4, 6, 8])
    compressor = build_compressor(CONFIG)
    x = assemble(Strategy.COMPRESSED_SPOKEN, embs, compressor)
    y = assemble(Strategy.COMPRESSED_SPOKEN, embs, compressor)
    assert np.array_equal(x.speech_part, y.speech_part)


# ---------------------------------------------------------------------------
# run_dialogue with oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", list(Strategy))
def test_oracle_exact_reproduces_gold(small_corpus, taxonomy, strategy):
    embedder = _embedder(8)
    compressor = build_compressor(CONFIG)
    predictions = {}
    for dlg in small_corpus:
        for result in run_dialogue(dlg, strategy, OracleExact(), embedder, compressor):
            assert not result.parse_failed
            predictions[(dlg.id, result.turn_index)] = result.state
    references = references_from_corpus(small_corpus)
    assert evaluate(predictions, references, MatchPolicy(), taxonomy).jga_post == 1.0


def test_oracle_noisy_deterministic(small_corpus):
    embedder = _embedder(8)
    dlg = small_corpus[0]
    a = run_dialogue(dlg, Strategy.FULL_SPOKEN, OracleNoisy(seed=3), embedder)
    b = run_dialogue(dlg, Strategy.FULL_SPOKEN, OracleNoisy(seed=3), embedder)
    assert [r.raw_output for r in a] == [r.raw_output for r in b]
    c = run_dialogue(dlg, Strategy.FULL_SPOKEN, OracleNoisy(seed=4), embedder)
    assert [r.raw_output for r in a] != [r.raw_output for r in c]


def test_multimodal_feedback_uses_model_hypotheses(small_corpus):
    # a noisy oracle's typo'd transcription must appear in later prompts
    embedder = _embedder(8)
    dlg = small_corpus[0]
    noisy = OracleNoisy(seed=1, typo_prob=1.0, drop_prob=0.0, insert_prob=0.0)
    results = run_dialogue(dlg, Strategy.MULTIMODAL, noisy, embedder)
    hypothesis_1 = noisy.perturb_text(dlg.id, 1, dlg.turns[0].transcript)
    assert hypothesis_1 != dlg.turns[0].transcript
    prompt_turn_3 = results[1].raw_output
    assert f"USER: {hypothesis_1}" in prompt_turn_3
    assert f"USER: {dlg.turns[0].transcript}" not in prompt_turn_3


def test_truncated_oracle_degrades_late_turns_under_full_spoken(small_corpus, taxonomy):
    embedder = _embedder(8)
    references = references_from_corpus(small_corpus)
    budget_pred = OracleTruncated(budget_rows=10)
    predictions = {}
    for dlg in small_corpus:
        for result in run_dialogue(dlg, Strategy.FULL_SPOKEN, budget_pred, embedder):
            predictions[(dlg.id, result.turn_index)] = result.state
    per_turn = evaluate(predictions, references, MatchPolicy(), taxonomy).per_turn
    indices = sorted(per_turn)
    early = np.mean([per_turn[i][0] for i in indices[: len(indices) // 2]])
    late = np.mean([per_turn[i][0] for i in indices[len(indices) // 2 :]])
    assert early > late
    assert per_turn[indices[0]][0] == 1.0  # first turn always fits the budget


def test_make_predictor_dispatch():
    assert isinstance(make_predictor("exact"), OracleExact)
    assert isinstance(make_predictor("noisy", seed=2), OracleNoisy)
    assert isinstance(make_predictor("truncated", budget_rows=5), OracleTruncated)
    with pytest.raises(ValueError):
        make_predictor("llm")


def test_parse_failure_becomes_empty_state(small_corpus):
    class BrokenPredictor:
        def predict(self, request):
            return "not json at all"

    # spoken prompt prefix plus garbage still yields an unparseable object
    embedder = _embedder(8)
    dlg = small_corpus[0]
    results = run_dialogue(dlg, Strategy.MULTIMODAL, BrokenPredictor(), embedder)
    assert all(r.parse_failed for r in results)
    assert all(r.state == DialogueState() for r in results)
    assert all(r.diagnostics for r in results)


class RecordingPredictor:
    """Exact oracle that keeps the context of every request, by turn index."""

    def __init__(self):
        self.contexts = {}

    def predict(self, request):
        self.contexts[request.turn_index] = request.context
        return OracleExact().predict(request)


STRATEGY_CASES = [
    (Strategy.MULTIMODAL, False),
    (Strategy.FULL_SPOKEN, False),
    (Strategy.COMPRESSED_SPOKEN, False),
    (Strategy.COMPRESSED_SPOKEN, True),
]


@pytest.mark.parametrize("strategy, compress_current", STRATEGY_CASES)
def test_run_dialogue_contexts_equal_from_scratch_assembly(small_corpus, monkeypatch, strategy, compress_current):
    embedder = _embedder(8)
    compressor = build_compressor(CONFIG)
    compressed_turns = []

    def counting_compress_turn(h, pooler):
        compressed_turns.append((h.dialogue_id, h.turn_index))
        return compress_turn(h, pooler)

    expected_compressed = set()
    for dlg in small_corpus:
        recorder = RecordingPredictor()
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "compress_turn", counting_compress_turn)
            run_dialogue(dlg, strategy, recorder, embedder, compressor, compress_current=compress_current)
        assert sorted(recorder.contexts) == dlg.user_turn_indices()
        embeddings = [embedder.embed_turn(dlg, t.index) for t in dlg.turns]
        for n, context in recorder.contexts.items():
            expected = assemble(strategy, embeddings[:n], compressor, compress_current=compress_current)
            assert np.array_equal(context.speech_part, expected.speech_part)
            assert context.bookkeeping == expected.bookkeeping
        if strategy is Strategy.COMPRESSED_SPOKEN:
            last = dlg.user_turn_indices()[-1]
            compressed_up_to = last if compress_current else last - 1
            expected_compressed |= {(dlg.id, i) for i in range(1, compressed_up_to + 1)}
    assert sorted(compressed_turns) == sorted(expected_compressed)


@pytest.mark.parametrize("strategy, compress_current", STRATEGY_CASES)
def test_run_dialogue_embeds_only_the_turns_contexts_read(small_corpus, monkeypatch, strategy, compress_current):
    embedder = _embedder(8)
    compressor = build_compressor(CONFIG)
    embedded = []
    embed_turn = EmbeddingPipeline.embed_turn

    def counting_embed_turn(self, dialogue, turn_index):
        embedded.append(turn_index)
        return embed_turn(self, dialogue, turn_index)

    monkeypatch.setattr(EmbeddingPipeline, "embed_turn", counting_embed_turn)
    for dlg in small_corpus:
        embedded.clear()
        run_dialogue(dlg, strategy, RecordingPredictor(), embedder, compressor, compress_current=compress_current)
        users = dlg.user_turn_indices()
        if strategy is Strategy.MULTIMODAL:
            assert embedded == users
        else:
            assert embedded == list(range(1, users[-1] + 1))
        assert users[-1] < len(dlg.turns)  # a trailing agent turn exists and is skipped


def _run_results(corpus, strategy, embedder, compressor=None, *, compress_current=False):
    """Turn results of every dialogue run under ``strategy``, and the contexts
    the predictor received, keyed by (dialogue id, turn index)."""
    results, contexts = [], {}
    for dlg in corpus:
        recorder = RecordingPredictor()
        results += run_dialogue(dlg, strategy, recorder, embedder, compressor, compress_current=compress_current)
        contexts.update({(dlg.id, n): context for n, context in recorder.contexts.items()})
    return results, contexts


@pytest.mark.parametrize("strategy, compress_current", STRATEGY_CASES)
def test_context_length_report_equals_assembled_rows(small_corpus, strategy, compress_current):
    embedder = _embedder(8, stride=2)
    compressor = build_compressor(CONFIG)
    results, contexts = _run_results(
        small_corpus, strategy, embedder, compressor, compress_current=compress_current
    )
    assembled: dict[int, list[int]] = {}
    for (_, n), context in contexts.items():
        assembled.setdefault(n, []).append(context.total_rows)
    report = context_length_report(strategy, CONFIG.n_queries, results)
    assert {r.turn_index: (r.mean_rows, r.n_turns) for r in report} == {
        n: (float(np.mean(rows)), len(rows)) for n, rows in assembled.items()
    }
    assert {r.n_queries for r in report} == {
        CONFIG.n_queries if strategy is Strategy.COMPRESSED_SPOKEN else None
    }


# ---------------------------------------------------------------------------
# context length report
# ---------------------------------------------------------------------------


def _report(corpus, strategy, embedder, n_queries):
    config = CompressorConfig(d_model=CONFIG.d_model, n_heads=CONFIG.n_heads, n_queries=n_queries, seed=CONFIG.seed)
    results, _ = _run_results(corpus, strategy, embedder, build_compressor(config))
    return context_length_report(strategy, n_queries, results)


def test_context_length_report_matches_formulas(small_corpus):
    embedder = _embedder(8)
    per_turn_rows = {
        dlg.id: [embedder.embed_turn(dlg, t.index).rows for t in dlg.turns] for dlg in small_corpus
    }
    for strategy in Strategy:
        by_turn = {r.turn_index: r for r in _report(small_corpus, strategy, embedder, 10)}
        expected: dict[int, list[int]] = {}
        for dlg in small_corpus:
            for n in dlg.user_turn_indices():
                total = oracle_total_rows(strategy, per_turn_rows[dlg.id][:n], 10)
                expected.setdefault(n, []).append(total)
                if strategy is Strategy.FULL_SPOKEN:
                    assert total == sum(per_turn_rows[dlg.id][:n])
        assert {n: (r.mean_rows, r.n_turns) for n, r in by_turn.items()} == {
            n: (float(np.mean(totals)), len(totals)) for n, totals in expected.items()
        }
    # aggregated means are consistent with per-dialogue row counts
    n_max = max(idx for dlg in small_corpus for idx in dlg.user_turn_indices())
    expected_mean = np.mean([sum(per_turn_rows[d.id][:n_max]) for d in small_corpus])
    full = {r.turn_index: r for r in _report(small_corpus, Strategy.FULL_SPOKEN, embedder, 10)}
    assert full[n_max].mean_rows == pytest.approx(expected_mean)


def test_context_length_single_turn_equal_rows(probe_corpus):
    embedder = _embedder(8)
    first_turn = [
        r
        for strategy in Strategy
        for r in _report(probe_corpus, strategy, embedder, 4)
        if r.turn_index == 1
    ]
    assert len(first_turn) == len(Strategy)
    values = {r.mean_rows for r in first_turn}
    assert len(values) == 1
    first_rows = [embedder.embed_turn(dlg, 1).rows for dlg in probe_corpus]
    assert values == {float(np.mean([oracle_total_rows(Strategy.COMPRESSED_SPOKEN, [r], 4) for r in first_rows]))}


def test_context_length_ratio_near_one_when_queries_match_mean_rows(probe_corpus):
    embedder = _embedder(8)
    per_turn_rows = {
        dlg.id: [embedder.embed_turn(dlg, t.index).rows for t in dlg.turns]
        for dlg in probe_corpus
    }
    mean_rows = int(round(np.mean([r for rows in per_turn_rows.values() for r in rows])))
    full_rows = _report(probe_corpus, Strategy.FULL_SPOKEN, embedder, mean_rows)
    compressed_rows = _report(probe_corpus, Strategy.COMPRESSED_SPOKEN, embedder, mean_rows)
    last_idx = max(r.turn_index for r in full_rows + compressed_rows)
    full = next(r for r in full_rows if r.turn_index == last_idx)
    compressed = next(r for r in compressed_rows if r.turn_index == last_idx)
    assert compressed.mean_rows / full.mean_rows == pytest.approx(1.0, abs=0.25)
    for row, strategy in ((full, Strategy.FULL_SPOKEN), (compressed, Strategy.COMPRESSED_SPOKEN)):
        assert row.mean_rows == pytest.approx(
            np.mean(
                [
                    oracle_total_rows(strategy, per_turn_rows[dlg.id][:last_idx], mean_rows)
                    for dlg in probe_corpus
                    if last_idx in dlg.user_turn_indices()
                ]
            )
        )


def test_compressed_strictly_smaller_when_turns_exceed_queries():
    # synthetic check of the size advantage whenever mean turn length > N_queries
    rows = [30, 20, 25, 15]
    compressor = build_compressor(CONFIG)
    for n in range(2, 5):
        full = assemble(Strategy.FULL_SPOKEN, _embeddings(rows[:n])).total_rows
        compressed = assemble(Strategy.COMPRESSED_SPOKEN, _embeddings(rows[:n]), compressor).total_rows
        assert full == oracle_total_rows(Strategy.FULL_SPOKEN, rows[:n], 10)
        assert compressed == oracle_total_rows(Strategy.COMPRESSED_SPOKEN, rows[:n], 10)
        assert compressed < full
