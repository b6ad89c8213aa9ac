"""Context assembly for the three strategies, plus pluggable state predictors.

``assemble`` realizes the embedding-sequence layouts: the multimodal context
carries only the current turn's embedding, the full spoken context the
concatenation of every turn, and the compressed spoken context replaces each
prior turn with its pooled query vectors while the current turn stays
uncompressed.

The predictor oracles stand in for the language model. They read gold states
(optionally perturbing them) so the harness, codecs and metrics can be tested
end to end; they do not model speech understanding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

from .corpus import Dialogue, DialogueState, Speaker, SplitMix64, derive_key, ONTOLOGY, ontology_values
from .neural.layers import Linear
from .neural.pipeline import (
    Compressor,
    Connector,
    SpeechEmbedding,
    compress_turn,
    connector_forward,
    downsample,
)
from .state_codec import (
    ParseFailure,
    Strategy,
    build_prompt,
    extend_history,
    extract_user_last_turn,
    parse_state,
    render_completion,
)


@dataclass(frozen=True)
class TurnSpan:
    turn_index: int
    start_row: int
    n_rows: int


@dataclass
class AssembledContext:
    strategy: Strategy
    speech_part: np.ndarray
    bookkeeping: list[TurnSpan]
    text_part: str = ""

    @property
    def total_rows(self) -> int:
        return int(self.speech_part.shape[0])


def context_turns(strategy: Strategy, n: int) -> range:
    """Indices of the turns the context of user turn ``n`` reads: turn ``n``
    alone under the multimodal strategy, turns 1..n under the spoken ones."""
    return range(n, n + 1) if strategy is Strategy.MULTIMODAL else range(1, n + 1)


def read_turns(strategy: Strategy, dialogue: Dialogue) -> list[int]:
    """Indices, ascending, of the turns some context of ``dialogue`` reads:
    ``context_turns`` over its user turns. ``run`` loads the features of
    these turns and no others."""
    return sorted({i for n in dialogue.user_turn_indices() for i in context_turns(strategy, n)})


def assemble(
    strategy: Strategy,
    turn_embeddings: list[SpeechEmbedding],
    compressor: Compressor | None = None,
    *,
    compress_current: bool = False,
    text_part: str = "",
    compressed: dict[int, np.ndarray] | None = None,
) -> AssembledContext:
    """Concatenate turn embeddings according to the strategy.

    The last entry of ``turn_embeddings`` is the current user turn n; the
    context places the turns ``context_turns`` names, picked by
    ``turn_index``. ``compressed`` maps a turn index to that turn's pooled
    block, used as it is; a turn it lacks is pooled here, on its own.
    """
    compressed = compressed or {}
    if not turn_embeddings:
        raise ValueError("need at least one turn embedding")
    if strategy is Strategy.COMPRESSED_SPOKEN and compressor is None:
        raise ValueError("compressed_spoken requires a compressor")

    current = turn_embeddings[-1].turn_index
    by_index = {emb.turn_index: emb for emb in turn_embeddings}
    parts: list[np.ndarray] = []
    spans: list[TurnSpan] = []
    row = 0
    for i in context_turns(strategy, current):
        emb = by_index[i]
        if strategy is Strategy.COMPRESSED_SPOKEN and (i != current or compress_current):
            block = compressed.get(i)
            if block is None:
                block = compress_turn(emb.matrix[None], compressor)[0]
        else:
            block = emb.matrix
        parts.append(block)
        spans.append(TurnSpan(i, row, block.shape[0]))
        row += block.shape[0]
    return AssembledContext(strategy, np.concatenate(parts, axis=0), spans, text_part)


# ---------------------------------------------------------------------------
# Embedding computation
# ---------------------------------------------------------------------------


def _features(dialogue: Dialogue, turn_index: int) -> np.ndarray:
    features = dialogue.turn(turn_index).features
    if features is None:
        raise ValueError(f"turn {turn_index} of dialogue {dialogue.id} has no features")
    return features


@dataclass
class EmbeddingPipeline:
    """features -> encoder stub -> stride downsample -> connector."""

    connector: Connector
    encoder_stub: Linear
    stride: int = 1

    def embed_turn(self, dialogue: Dialogue, turn_indices: tuple[int, ...]) -> list[SpeechEmbedding]:
        """Embed turns whose feature matrices share one shape, with one
        encoder-stub forward and one connector forward over their stack."""
        stack = np.stack([_features(dialogue, i) for i in turn_indices])
        x = downsample(self.encoder_stub.forward(stack), self.stride)
        return [
            SpeechEmbedding(matrix, dialogue.id, i)
            for i, matrix in zip(turn_indices, connector_forward(x, self.connector))
        ]


def _groups(indices: list[int], key) -> list[tuple[int, ...]]:
    """``indices`` split by ``key(index)`` into tuples that keep their order,
    with ``key`` called on every index in order."""
    groups: dict[object, list[int]] = {}
    for i in indices:
        groups.setdefault(key(i), []).append(i)
    return [tuple(group) for group in groups.values()]


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


@dataclass
class PredictionRequest:
    dialogue: Dialogue
    turn_index: int
    strategy: Strategy
    context: AssembledContext
    gold_state: DialogueState


class StatePredictor(Protocol):
    """Produces the autoregressive completion of a prompt."""

    def predict(self, request: PredictionRequest) -> str: ...


class OracleExact:
    """Reads the gold state; transcribes the user turn verbatim."""

    name = "exact"

    def predict(self, request: PredictionRequest) -> str:
        hypothesis = request.dialogue.turn(request.turn_index).transcript
        return render_completion(request.strategy, request.gold_state, hypothesis)


# Predictor defaults, also read by the CLI's RunManifest.
DROP_PROB = 0.08
TYPO_PROB = 0.10
INSERT_PROB = 0.05
TIME_REFORMAT_PROB = 0.25
BUDGET_ROWS = 64


class OracleNoisy:
    """Gold state plus seeded perturbations: drops, typos, spurious slots,
    and 12-hour reformatting of time-like values.

    Perturbations are keyed by (seed, dialogue id, turn index), so outputs are
    stable under any execution order or worker count.
    """

    name = "noisy"

    def __init__(
        self,
        seed: int,
        drop_prob: float = DROP_PROB,
        typo_prob: float = TYPO_PROB,
        insert_prob: float = INSERT_PROB,
        time_reformat_prob: float = TIME_REFORMAT_PROB,
    ):
        self.seed = seed
        self.drop_prob = drop_prob
        self.typo_prob = typo_prob
        self.insert_prob = insert_prob
        self.time_reformat_prob = time_reformat_prob

    def _typo(self, rng: SplitMix64, value: str) -> str:
        if len(value) < 2:
            return value + "x"
        kind = rng.randint(3)
        pos = rng.randint(len(value) - 1)
        if kind == 0:  # swap adjacent
            return value[:pos] + value[pos + 1] + value[pos] + value[pos + 2 :]
        if kind == 1:  # drop one character
            return value[:pos] + value[pos + 1 :]
        return value[:pos] + "aeiou"[rng.randint(5)] + value[pos + 1 :]  # replace

    def _reformat_time(self, value: str) -> str:
        hh, _, mm = value.partition(":")
        hour = int(hh)
        suffix = "am" if hour < 12 else "pm"
        hour12 = hour % 12
        if hour12 == 0:
            hour12 = 12
        return f"{hour12}:{mm} {suffix}"

    def perturb_state(self, dialogue_id: str, turn_index: int, gold: DialogueState) -> DialogueState:
        rng = SplitMix64(derive_key(self.seed, "noisy", dialogue_id, turn_index))
        domains = list(gold.domains)
        slots: dict[tuple[str, str], str] = {}
        for (domain, slot), value in sorted(gold.slots.items()):
            if rng.uniform() < self.drop_prob:
                continue
            if ":" in value and rng.uniform() < self.time_reformat_prob:
                value = self._reformat_time(value)
            elif rng.uniform() < self.typo_prob:
                value = self._typo(rng, value)
            slots[(domain, slot)] = value
        if rng.uniform() < self.insert_prob:
            domain = rng.choice(sorted(ONTOLOGY))
            slot = rng.choice(sorted(ONTOLOGY[domain]))
            if (domain, slot) not in gold.slots:
                if domain not in domains:
                    domains.append(domain)
                slots[(domain, slot)] = rng.choice(ontology_values(domain, slot))
        kept_domains = [d for d in domains if any(k[0] == d for k in slots) or d in gold.domains]
        return DialogueState(kept_domains, slots)

    def perturb_text(self, dialogue_id: str, turn_index: int, text: str) -> str:
        rng = SplitMix64(derive_key(self.seed, "asr", dialogue_id, turn_index))
        words = text.split()
        out = []
        for word in words:
            if rng.uniform() < self.typo_prob:
                word = self._typo(rng, word)
            out.append(word)
        return " ".join(out)

    def predict(self, request: PredictionRequest) -> str:
        state = self.perturb_state(request.dialogue.id, request.turn_index, request.gold_state)
        hypothesis = self.perturb_text(
            request.dialogue.id,
            request.turn_index,
            request.dialogue.turn(request.turn_index).transcript,
        )
        return render_completion(request.strategy, state, hypothesis)


class OracleTruncated:
    """Forgets slots whose source turn falls outside a row budget.

    The budget keeps the most recent ``budget_rows`` rows of the assembled
    speech part; a slot survives only if the user turn where its current value
    was last set lies fully inside the kept window.
    """

    name = "truncated"

    def __init__(self, budget_rows: int):
        if budget_rows < 1:
            raise ValueError("budget_rows must be >= 1")
        self.budget_rows = budget_rows

    def _kept_turns(self, context: AssembledContext) -> set[int]:
        cutoff = max(0, context.total_rows - self.budget_rows)
        return {span.turn_index for span in context.bookkeeping if span.start_row >= cutoff}

    def predict(self, request: PredictionRequest) -> str:
        kept = self._kept_turns(request.context)
        if request.strategy is Strategy.MULTIMODAL:
            # only the current turn is speech; the text history stays available
            kept |= set(range(1, request.turn_index + 1))
        dialogue = request.dialogue
        sources: dict[tuple[str, str], int] = {}
        for idx in sorted(i for i in dialogue.gold_states if i <= request.turn_index):
            for key, value in dialogue.gold_states[idx].slots.items():
                if key not in sources or dialogue.gold_states[sources[key]].slots.get(key) != value:
                    sources[key] = idx
        gold = request.gold_state
        slots = {k: v for k, v in gold.slots.items() if sources.get(k, request.turn_index) in kept}
        domains = [d for d in gold.domains if any(k[0] == d for k in slots)]
        state = DialogueState(domains, slots)
        hypothesis = dialogue.turn(request.turn_index).transcript
        return render_completion(request.strategy, state, hypothesis)


def make_predictor(
    kind: str,
    seed: int = 0,
    *,
    budget_rows: int = BUDGET_ROWS,
    drop_prob: float = DROP_PROB,
    typo_prob: float = TYPO_PROB,
    insert_prob: float = INSERT_PROB,
    time_reformat_prob: float = TIME_REFORMAT_PROB,
) -> StatePredictor:
    """The predictor named ``kind``; it takes only the settings it uses."""
    if kind == "exact":
        return OracleExact()
    if kind == "noisy":
        return OracleNoisy(
            seed=seed,
            drop_prob=drop_prob,
            typo_prob=typo_prob,
            insert_prob=insert_prob,
            time_reformat_prob=time_reformat_prob,
        )
    if kind == "truncated":
        return OracleTruncated(budget_rows=int(budget_rows))
    raise ValueError(f"unknown predictor {kind!r}; expected exact, noisy, or truncated")


# ---------------------------------------------------------------------------
# Dialogue execution
# ---------------------------------------------------------------------------


@dataclass
class TurnResult:
    turn_index: int
    raw_output: str
    state: DialogueState
    context_rows: int
    parse_failed: bool = False
    diagnostics: list[str] = field(default_factory=list)


def run_dialogue(
    dialogue: Dialogue,
    strategy: Strategy,
    predictor: StatePredictor,
    embedder: EmbeddingPipeline,
    compressor: Compressor | None = None,
    *,
    compress_current: bool = False,
    agent_texts: dict[int, str] | None = None,
) -> list[TurnResult]:
    """Predict the state at every user turn, in order.

    The turns the contexts read (``read_turns``) are embedded once, up front:
    the user turns under the multimodal strategy, every turn up to the last
    user turn under the spoken ones. A read turn without features fails the
    dialogue, naming the lowest such turn. Turns whose features share a shape
    are embedded by one ``embed_turn`` call. Under the compressed strategy
    every read turn before the last user turn (and that turn under
    ``compress_current``) is pooled once, up front, by one ``compress_turn``
    call per embedding row count, and every context reuses the blocks. A
    stacked forward is bitwise equal to per-turn ones.

    For the multimodal strategy the predictor's own transcription of each user
    turn is fed back as that turn's history text for subsequent prompts; gold
    user transcripts never enter the textual history. ``agent_texts`` swaps
    gold agent transcripts for ASR sidecar texts in the history. The history
    is one string that grows by appending: each user turn adds its
    transcription once it is parsed, and the agent turn after it, if any,
    adds its text.
    """
    results: list[TurnResult] = []
    history = ""
    users = dialogue.user_turn_indices()
    read = read_turns(strategy, dialogue)
    embedded: dict[int, SpeechEmbedding] = {}
    for group in _groups(read, lambda i: _features(dialogue, i).shape):
        embedded.update(zip(group, embedder.embed_turn(dialogue, group)))
    compressed: dict[int, np.ndarray] = {}
    # without a compressor, assemble raises its own error
    if strategy is Strategy.COMPRESSED_SPOKEN and compressor is not None:
        pooled = [i for i in read if i < users[-1] or compress_current]
        for group in _groups(pooled, lambda i: embedded[i].rows):
            blocks = compress_turn(np.stack([embedded[i].matrix for i in group]), compressor)
            compressed.update(zip(group, blocks))
    for n in users:
        prompt = build_prompt(strategy, history)
        context = assemble(
            strategy,
            [embedded[i] for i in context_turns(strategy, n)],
            compressor,
            compress_current=compress_current,
            text_part=prompt,
            compressed=compressed,
        )
        gold = dialogue.gold_states.get(n, DialogueState())
        completion = predictor.predict(PredictionRequest(dialogue, n, strategy, context, gold))
        raw_output = prompt + completion
        diagnostics: list[str] = []
        try:
            state, diagnostics = parse_state(raw_output)
            failed = False
        except ParseFailure as exc:
            state = DialogueState()
            diagnostics = [f"parse failure: {exc}"]
            failed = True
        if strategy is Strategy.MULTIMODAL:
            hypothesis = extract_user_last_turn(raw_output)
            if hypothesis is None:
                hypothesis = ""
                diagnostics.append("missing user_last_turn in output; empty hypothesis stored")
            history = extend_history(history, Speaker.USER, hypothesis)
            if n < len(dialogue.turns) and dialogue.turns[n].speaker is Speaker.AGENT:
                agent = dialogue.turns[n]
                text = (agent_texts or {}).get(agent.index, agent.transcript)
                history = extend_history(history, Speaker.AGENT, text)
        results.append(TurnResult(n, raw_output, state, context.total_rows, failed, diagnostics))
    return results


# ---------------------------------------------------------------------------
# Context-length accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContextLengthRow:
    strategy: Strategy
    n_queries: int | None
    turn_index: int
    mean_rows: float
    n_turns: int


def context_length_report(
    strategy: Strategy, n_queries: int, results: Iterable[TurnResult]
) -> list[ContextLengthRow]:
    """Mean assembled rows per user-turn index over a run's turn results.

    The rows are the ``context_rows`` that ``run_dialogue`` recorded, so the
    report follows every layout option of the run. ``n_queries`` is kept only
    for the compressed strategy.
    """
    totals: dict[int, list[int]] = {}
    for result in results:
        totals.setdefault(result.turn_index, []).append(result.context_rows)
    kept_queries = n_queries if strategy is Strategy.COMPRESSED_SPOKEN else None
    return [
        ContextLengthRow(strategy, kept_queries, n, float(np.mean(totals[n])), len(totals[n]))
        for n in sorted(totals)
    ]
