from __future__ import annotations

import json
import sys

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
    stack_blocks,
)
from dst_lab.corpus import DialogueState, SynthConfig, load_corpus, synth_corpus
from dst_lab.metrics import evaluate, references_from_corpus, states_from_records
from dst_lab.neural.pipeline import (
    CompressorConfig,
    build_compressor,
    build_connector,
    build_encoder_stub,
    compress_turn,
    connector_forward,
)
from dst_lab.postprocess import MatchPolicy
from dst_lab.state_codec import PredictionRecord, Strategy, read_predictions, write_predictions

from oracles import (
    oracle_assemble,
    oracle_embed_turn,
    oracle_perturb_state,
    oracle_perturb_text,
    oracle_total_rows,
)

RNG = np.random.default_rng(77)
CONFIG = CompressorConfig(d_model=16, n_heads=2, n_queries=10, seed=5)


def _embeddings(rows: list[int]) -> list[np.ndarray]:
    """Embeddings of turns 1, 2, ... with the given row counts."""
    return [RNG.standard_normal((r, CONFIG.d_model)) for r in rows]


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
        speech, _ = oracle_assemble(strategy, embs, compressor)
        assert np.array_equal(speech, embs[0])
        assert speech.shape[0] == 12


def test_full_spoken_row_sum():
    speech, _ = oracle_assemble(Strategy.FULL_SPOKEN, _embeddings([30, 20, 25, 15]))
    assert speech.shape[0] == 90


def test_compressed_rows_formula():
    speech, _ = oracle_assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([30, 20, 25, 15]), build_compressor(CONFIG))
    assert speech.shape[0] == 3 * 10 + 15


def test_multimodal_keeps_only_current_turn():
    embs = _embeddings([30, 20, 25, 15])
    speech, spans = oracle_assemble(Strategy.MULTIMODAL, embs)
    assert np.array_equal(speech, embs[-1])
    assert [turn for turn, _, _ in spans] == [4]


def test_bookkeeping_partitions_rows():
    for rows in ([7, 3, 9, 2, 5], [10, 10, 10, 10, 5], [4]):
        blocks = list(zip([1, 2, 3, 4, 5], _embeddings(rows)))
        matrix, spans = stack_blocks(blocks)
        for k in range(len(blocks) + 1):
            for current in (None, (9, _embeddings([3])[0])):
                if not k and current is None:
                    continue
                ctx = assemble(matrix, spans, k, current, "prompt")
                held = blocks[:k] + ([current] if current else [])
                position = 0
                for span, (i, block) in zip(ctx.bookkeeping, held, strict=True):
                    assert (span.turn_index, span.start_row, span.n_rows) == (i, position, block.shape[0])
                    assert np.array_equal(ctx.speech_part[position : position + span.n_rows], block)
                    position += span.n_rows
                assert position == ctx.total_rows
                assert ctx.text_part == "prompt"


def test_missing_compressor_rejected(small_corpus, monkeypatch):
    embedder = _embedder(8)
    calls = []
    embed_turn = EmbeddingPipeline.embed_turn

    def counting_embed_turn(self, dialogue, turn_indices):
        calls.append(turn_indices)
        return embed_turn(self, dialogue, turn_indices)

    class NeverCalled:
        def predict(self, request):
            raise AssertionError("predicted without a compressor")

    monkeypatch.setattr(EmbeddingPipeline, "embed_turn", counting_embed_turn)
    with pytest.raises(ValueError, match="compressed_spoken requires a compressor"):
        run_dialogue(small_corpus[0], Strategy.COMPRESSED_SPOKEN, NeverCalled(), embedder)
    assert calls == []
    with pytest.raises(ValueError, match="requires a compressor"):
        oracle_assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([5, 5]))


def test_compress_current_flag():
    speech, _ = oracle_assemble(
        Strategy.COMPRESSED_SPOKEN,
        _embeddings([30, 20, 25, 15]),
        build_compressor(CONFIG),
        compress_current=True,
    )
    assert speech.shape[0] == 4 * 10


def test_prior_turn_rows_never_change_compressed_total():
    compressor = build_compressor(CONFIG)
    a, _ = oracle_assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([30, 20, 15]), compressor)
    b, _ = oracle_assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([3, 200, 15]), compressor)
    assert a.shape[0] == b.shape[0] == 2 * 10 + 15
    c, _ = oracle_assemble(Strategy.COMPRESSED_SPOKEN, _embeddings([30, 20, 17]), compressor)
    assert c.shape[0] == a.shape[0] + 2


def test_assemble_deterministic():
    embs = _embeddings([4, 6, 8])
    compressor = build_compressor(CONFIG)

    def context():
        pooled = [(i, compress_turn(embs[i - 1][None], compressor)[0]) for i in (1, 2)]
        matrix, spans = stack_blocks(pooled)
        return assemble(matrix, spans, 2, (3, embs[2]))

    x, y = context(), context()
    assert np.array_equal(x.speech_part, y.speech_part)
    assert x.bookkeeping == y.bookkeeping
    with pytest.raises(ValueError, match="read-only"):
        x.speech_part[0, 0] = 0.0


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
            assert result.parsed_state is not None
            predictions[(dlg.id, result.turn_index)] = result.parsed_state
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


# (drop, typo, insert, time reformat) probabilities, and a test that the
# perturbed state took the path the setting forces
NOISE_PATHS = {
    "defaults": ((0.08, 0.10, 0.05, 0.25), lambda gold, state: True),
    "drop": ((0.5, 0.0, 0.0, 0.0), lambda gold, state: len(state.slots) < len(gold.slots)),
    "typo": ((0.0, 1.0, 0.0, 0.0), lambda gold, state: state.slots != gold.slots),
    "time": ((0.0, 0.0, 0.0, 1.0), lambda gold, state: any(v.endswith((" am", " pm")) for v in state.slots.values())),
    "insert": ((0.0, 0.0, 1.0, 0.0), lambda gold, state: set(state.domains) - set(gold.domains)),
    "mixed": ((0.3, 0.5, 0.5, 0.5), lambda gold, state: state.slots != gold.slots),
}


@pytest.mark.parametrize("path", NOISE_PATHS)
def test_noisy_perturbations_equal_the_whole_key_oracles(small_corpus, path):
    probs, took_path = NOISE_PATHS[path]
    corpus = small_corpus + synth_corpus(9, SynthConfig(n_dialogues=6, turns_per_dialogue=10, feature_dim=4))
    hits = 0
    for seed in (0, 7):
        noisy = OracleNoisy(seed, *probs)
        for dlg in corpus:
            for n, gold in dlg.gold_states.items():
                state = noisy.perturb_state(dlg.id, n, gold)
                expected = oracle_perturb_state(noisy, seed, dlg.id, n, gold)
                assert (state.domains, state.slots) == (expected.domains, expected.slots)
                hits += bool(took_path(gold, state))
                text = dlg.turn(n).transcript
                assert noisy.perturb_text(dlg.id, n, text) == oracle_perturb_text(noisy, seed, dlg.id, n, text)
    assert hits


def test_noisy_time_reformat_leaves_values_that_are_not_clock_times_unchanged():
    noisy = OracleNoisy(seed=0, drop_prob=0.0, typo_prob=0.0, insert_prob=0.0, time_reformat_prob=1.0)
    gold = DialogueState(
        ["taxi", "train"],
        {
            ("taxi", "leaveat"): "at 7:15",
            ("taxi", "arriveby"): "after 17:00",
            ("train", "arriveby"): "7:15pm",
            ("train", "leaveat"): "17:05",
        },
    )
    assert noisy.perturb_state("d", 1, gold).slots == {
        ("taxi", "leaveat"): "at 7:15",
        ("taxi", "arriveby"): "after 17:00",
        ("train", "arriveby"): "7:15pm",
        ("train", "leaveat"): "5:05 pm",
    }


def test_noisy_run_over_a_spokenwoz_time_phrase_predicts_every_turn(tmp_path):
    taxi = {"taxi": {"semi": {"leaveAt": "at 7:15", "arriveBy": "after 17:00"}}}
    doc = {
        "SNG0001": {
            "log": [
                {"text": "i need a taxi at 7:15", "tag": "user"},
                {"text": "where to?", "tag": "system", "metadata": taxi},
                {"text": "the station after 17:00", "tag": "user"},
                {"text": "booked", "tag": "system", "metadata": taxi},
            ]
        }
    }
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    (dlg,) = load_corpus(path, "spokenwoz_json")
    for turn in dlg.turns:
        turn.features = np.ones((2, 8))
    noisy = OracleNoisy(seed=0, drop_prob=0.0, typo_prob=0.0, insert_prob=0.0, time_reformat_prob=1.0)
    results = run_dialogue(dlg, Strategy.FULL_SPOKEN, noisy, _embedder(8))
    assert [r.turn_index for r in results] == dlg.user_turn_indices()
    for result in results:
        assert result.parsed_state == dlg.gold_states[result.turn_index]


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
            predictions[(dlg.id, result.turn_index)] = result.parsed_state
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
    assert all(r.parsed_state is None for r in results)
    # a failed parse scores as the empty state
    records = [PredictionRecord(dlg.id, r.turn_index, r.raw_output, r.parsed_state) for r in results]
    assert all(state == DialogueState() for state in states_from_records(records).values())
    assert all(r.diagnostics for r in results)


def test_run_dialogue_records_a_parse_failure_for_an_integer_too_long_to_convert(small_corpus):
    class LongIntegerPredictor:
        def predict(self, request):
            return OracleExact().predict(request).replace('"predicted_state"', '"n": 1' + "0" * 5000 + ', "predicted_state"')

    results = run_dialogue(small_corpus[0], Strategy.FULL_SPOKEN, LongIntegerPredictor(), _embedder(8))
    assert results and all(r.parsed_state is None for r in results)
    limit = sys.get_int_max_str_digits()
    assert all(r.diagnostics == [f"parse failure: unparseable output: integer longer than {limit} digits"] for r in results)


def test_run_dialogue_replaces_lone_surrogates_in_completions(small_corpus, tmp_path):
    class SurrogatePredictor:
        def predict(self, request):
            completion = OracleExact().predict(request)
            return completion.replace('"predicted_state"', '"na\ud800me": "\udfff", "predicted_state"')

    dlg = small_corpus[0]
    for strategy in (Strategy.MULTIMODAL, Strategy.FULL_SPOKEN):
        exact = run_dialogue(dlg, strategy, OracleExact(), _embedder(8))
        results = run_dialogue(dlg, strategy, SurrogatePredictor(), _embedder(8))
        for result, expected in zip(results, exact):
            assert '"na\ufffdme": "\ufffd"' in result.raw_output
            assert result.parsed_state == expected.parsed_state
            assert result.diagnostics == [*expected.diagnostics, "repaired: 2 lone surrogate(s) replaced by U+FFFD"]
        records = [PredictionRecord(dlg.id, r.turn_index, r.raw_output, r.parsed_state, r.diagnostics) for r in results]
        write_predictions(tmp_path / "p.ndjson", records)
        assert read_predictions(tmp_path / "p.ndjson") == records


def test_run_dialogue_rejects_non_finite_embedding(small_corpus, monkeypatch):
    for bad in (np.nan, np.inf, -np.inf):

        def spoiled_connector_forward(features, connector):
            out = connector_forward(features, connector)
            out[-1, -1, -1] = bad
            return out

        monkeypatch.setattr(assembly, "connector_forward", spoiled_connector_forward)
        for strategy in Strategy:
            with pytest.raises(ValueError, match="^embedding contains non-finite entries$"):
                run_dialogue(small_corpus[0], strategy, OracleExact(), _embedder(8), build_compressor(CONFIG))


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
    compressor = build_compressor(CONFIG)
    stacks = []

    def counting_compress_turn(h, pooler):
        stacks.append(h)
        return compress_turn(h, pooler)

    monkeypatch.setattr(assembly, "compress_turn", counting_compress_turn)
    for stride in (1, 2):
        embedder = _embedder(8, stride=stride)
        compressed_turns, expected_compressed = [], set()
        for dlg in small_corpus:
            recorder = RecordingPredictor()
            stacks.clear()
            run_dialogue(dlg, strategy, recorder, embedder, compressor, compress_current=compress_current)
            assert sorted(recorder.contexts) == dlg.user_turn_indices()
            embeddings = [oracle_embed_turn(embedder, dlg, t.index) for t in dlg.turns]
            for n, context in recorder.contexts.items():
                speech, spans = oracle_assemble(strategy, embeddings[:n], compressor, compress_current=compress_current)
                assert np.array_equal(context.speech_part, speech)
                assert [(s.turn_index, s.start_row, s.n_rows) for s in context.bookkeeping] == spans
            assert len({stack.shape[1] for stack in stacks}) == len(stacks)  # one call per row count
            # a pooled turn is known by its embedding, which is bitwise the oracle's
            by_content = {e.tobytes(): (dlg.id, i) for i, e in enumerate(embeddings, start=1)}
            compressed_turns += [by_content[turn.tobytes()] for stack in stacks for turn in stack]
            if strategy is Strategy.COMPRESSED_SPOKEN:
                last = dlg.user_turn_indices()[-1]
                compressed_up_to = last if compress_current else last - 1
                expected_compressed |= {(dlg.id, i) for i in range(1, compressed_up_to + 1)}
        assert sorted(compressed_turns) == sorted(expected_compressed)


@pytest.mark.parametrize("strategy, compress_current", STRATEGY_CASES)
def test_run_dialogue_contexts_are_read_only_views(small_corpus, monkeypatch, strategy, compress_current):
    """Every context a predictor receives is read-only. The full spoken and
    ``compress_current`` contexts are prefixes of the dialogue's one matrix, a
    multimodal context is a view of its turn's embedding stack, and a
    compressed context is a new array of pooled rows plus the current turn
    (or that turn's embedding alone at turn 1)."""
    matrices, stacks = [], []
    original_stack_blocks, embed_turn = assembly.stack_blocks, EmbeddingPipeline.embed_turn

    def recording_stack_blocks(blocks):
        matrix, spans = original_stack_blocks(blocks)
        matrices.append(matrix)
        return matrix, spans

    def recording_embed_turn(self, dialogue, turn_indices):
        stacks.append(embed_turn(self, dialogue, turn_indices))
        return stacks[-1]

    monkeypatch.setattr(assembly, "stack_blocks", recording_stack_blocks)
    monkeypatch.setattr(EmbeddingPipeline, "embed_turn", recording_embed_turn)
    embedder, compressor = _embedder(8), build_compressor(CONFIG)
    for dlg in small_corpus:
        matrices.clear()
        stacks.clear()
        recorder = RecordingPredictor()
        run_dialogue(dlg, strategy, recorder, embedder, compressor, compress_current=compress_current)
        (matrix,) = matrices
        assert not matrix.flags.writeable
        for n, context in recorder.contexts.items():
            speech = context.speech_part
            with pytest.raises(ValueError, match="read-only"):
                speech[0, 0] = 0.0
            if strategy is Strategy.FULL_SPOKEN or compress_current:
                assert speech.base is matrix
            elif strategy is Strategy.MULTIMODAL or n == 1:
                assert any(speech.base is stack for stack in stacks)
            else:
                assert speech.flags.owndata


@pytest.mark.parametrize("strategy, compress_current", STRATEGY_CASES)
def test_run_dialogue_embeds_only_the_turns_contexts_read(small_corpus, monkeypatch, strategy, compress_current):
    embedder = _embedder(8)
    compressor = build_compressor(CONFIG)
    calls = []
    embed_turn = EmbeddingPipeline.embed_turn

    def counting_embed_turn(self, dialogue, turn_indices):
        assert isinstance(turn_indices, tuple)
        calls.append(turn_indices)
        return embed_turn(self, dialogue, turn_indices)

    monkeypatch.setattr(EmbeddingPipeline, "embed_turn", counting_embed_turn)
    for dlg in small_corpus:
        calls.clear()
        run_dialogue(dlg, strategy, RecordingPredictor(), embedder, compressor, compress_current=compress_current)
        users = dlg.user_turn_indices()
        embedded = sorted(i for call in calls for i in call)
        if strategy is Strategy.MULTIMODAL:
            assert embedded == users
        else:
            assert embedded == list(range(1, users[-1] + 1))
        assert users[-1] < len(dlg.turns)  # a trailing agent turn exists and is skipped
        # one frame count per call, and one call per frame count
        frames = [{dlg.turn(i).features.shape[0] for i in call} for call in calls]
        assert all(len(f) == 1 for f in frames)
        assert len(set().union(*frames)) == len(calls)


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
        dlg.id: [oracle_embed_turn(embedder, dlg, t.index).shape[0] for t in dlg.turns] for dlg in small_corpus
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
    first_rows = [oracle_embed_turn(embedder, dlg, 1).shape[0] for dlg in probe_corpus]
    assert values == {float(np.mean([oracle_total_rows(Strategy.COMPRESSED_SPOKEN, [r], 4) for r in first_rows]))}


def test_context_length_ratio_near_one_when_queries_match_mean_rows(probe_corpus):
    embedder = _embedder(8)
    per_turn_rows = {
        dlg.id: [oracle_embed_turn(embedder, dlg, t.index).shape[0] for t in dlg.turns]
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
        full = oracle_assemble(Strategy.FULL_SPOKEN, _embeddings(rows[:n]))[0].shape[0]
        compressed = oracle_assemble(Strategy.COMPRESSED_SPOKEN, _embeddings(rows[:n]), compressor)[0].shape[0]
        assert full == oracle_total_rows(Strategy.FULL_SPOKEN, rows[:n], 10)
        assert compressed == oracle_total_rows(Strategy.COMPRESSED_SPOKEN, rows[:n], 10)
        assert compressed < full
