"""Context assembly for the three strategies, plus pluggable state predictors.

``run_dialogue`` holds the embedding-sequence layouts: the multimodal context
carries only the current turn's embedding, the full spoken context the
concatenation of every turn, and the compressed spoken context replaces each
prior turn with its pooled query vectors while the current turn stays
uncompressed. It stacks the blocks a dialogue's contexts share once and picks
each context's prefix of them; ``assemble`` builds a read-only context from
that prefix plus at most one block.

The predictor oracles stand in for the language model. They read gold states
(optionally perturbing them) so the harness, codecs and metrics can be tested
end to end; they do not model speech understanding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Protocol

import numpy as np

from .corpus import Dialogue, DialogueState, Speaker, SplitMix64, key_prefix, ONTOLOGY, ontology_values
from .jsonio import SURROGATE
from .neural.layers import Linear
from .neural.pipeline import (
    Compressor,
    Connector,
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


class TurnSpan(NamedTuple):
    turn_index: int
    start_row: int
    n_rows: int


@dataclass
class AssembledContext:
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


def stack_blocks(blocks: list[tuple[int, np.ndarray]]) -> tuple[np.ndarray, list[TurnSpan]]:
    """The blocks of ``(turn_index, block)`` pairs concatenated, in order, into
    one read-only matrix, and the rows each turn's block fills."""
    spans: list[TurnSpan] = []
    row = 0
    for i, block in blocks:
        spans.append(TurnSpan(i, row, block.shape[0]))
        row += block.shape[0]
    matrix = np.concatenate([block for _, block in blocks], axis=0) if blocks else np.empty((0, 0))
    matrix.flags.writeable = False
    return matrix, spans


def assemble(
    matrix: np.ndarray,
    spans: list[TurnSpan],
    k: int,
    current: tuple[int, np.ndarray] | None = None,
    text_part: str = "",
) -> AssembledContext:
    """The context holding the first ``k`` blocks of ``stack_blocks``'s
    ``matrix`` and ``spans``, then ``current``'s ``(turn_index, block)`` if
    given. Its speech part is read-only: a view of ``matrix``, or of
    ``current``'s block when ``k`` is 0, or else a new array of both."""
    end = spans[k - 1].start_row + spans[k - 1].n_rows if k else 0
    if current is None:
        speech, bookkeeping = matrix[:end], spans[:k]
    else:
        i, block = current
        speech = np.concatenate((matrix[:end], block), axis=0) if k else block.view()
        bookkeeping = [*spans[:k], TurnSpan(i, end, block.shape[0])]
    speech.flags.writeable = False
    return AssembledContext(speech, bookkeeping, text_part)


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

    def embed_turn(self, dialogue: Dialogue, turn_indices: tuple[int, ...]) -> np.ndarray:
        """Embed turns whose feature matrices share one shape, with one
        encoder-stub forward and one connector forward over their stack;
        returns the (turns, rows, d_model) stack of connector outputs."""
        stack = np.stack([_features(dialogue, i) for i in turn_indices])
        try:  # an overflow is an error: a later layer norm would turn it into finite values
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                embedded = connector_forward(downsample(self.encoder_stub.forward(stack), self.stride), self.connector)
        except FloatingPointError as exc:
            turns = f"turn{'s' * (len(turn_indices) > 1)} {', '.join(map(str, turn_indices))}"
            raise FloatingPointError(f"{exc} while embedding {turns}") from exc
        if not np.isfinite(embedded).all():
            raise ValueError("embedding contains non-finite entries")
        return embedded


def _groups(indices: Iterable[int], key) -> list[tuple[int, ...]]:
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

    def __init__(
        self,
        seed: int,
        drop_prob: float = DROP_PROB,
        typo_prob: float = TYPO_PROB,
        insert_prob: float = INSERT_PROB,
        time_reformat_prob: float = TIME_REFORMAT_PROB,
    ):
        self._state_key = key_prefix(seed, "noisy")
        self._text_key = key_prefix(seed, "asr")
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
        """"H:MM" or "HH:MM" as 12-hour time; any other value unchanged."""
        clock = re.fullmatch(r"(\d{1,2}):(\d{2})", value)
        if not clock:
            return value
        hour = int(clock[1])
        suffix = "am" if hour < 12 else "pm"
        hour12 = hour % 12
        if hour12 == 0:
            hour12 = 12
        return f"{hour12}:{clock[2]} {suffix}"

    def perturb_state(self, dialogue_id: str, turn_index: int, gold: DialogueState) -> DialogueState:
        rng = SplitMix64(self._state_key(dialogue_id, turn_index))
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
        return DialogueState(domains, slots)

    def perturb_text(self, dialogue_id: str, turn_index: int, text: str) -> str:
        rng = SplitMix64(self._text_key(dialogue_id, turn_index))
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
    """One user turn's prediction; ``parsed_state`` is None when the output does not parse."""

    turn_index: int
    raw_output: str
    parsed_state: DialogueState | None
    context_rows: int
    diagnostics: list[str] = field(default_factory=list)


def run_dialogue(
    dialogue: Dialogue,
    strategy: Strategy,
    predictor: StatePredictor,
    embedder: EmbeddingPipeline,
    compressor: Compressor | None = None,
    *,
    compress_current: bool = False,
) -> list[TurnResult]:
    """Predict the state at every user turn, in order.

    The context of user turn ``n`` reads the turns ``context_turns`` names.
    Under the spoken strategies it opens with a prefix of one read-only
    matrix per dialogue (``stack_blocks``): the blocks of turns 1, 2, ... in
    order, each as every context after that turn holds it, which is its
    pooled block under the compressed strategy and its embedding under full
    spoken. Under full spoken and ``compress_current`` the prefix runs
    through turn ``n`` and is the whole context; otherwise turn ``n``'s
    embedding follows the blocks of turns 1..n-1 (under the multimodal
    strategy, none). ``assemble`` builds each context from that choice.

    The turns the contexts read (``read_turns``) are embedded once, up front:
    the user turns under the multimodal strategy, every turn up to the last
    user turn under the spoken ones. A read turn without features fails the
    dialogue, naming the lowest such turn. Turns whose features share a shape
    are embedded by one ``embed_turn`` call. Every turn the matrix holds
    pooled is pooled once, up front, by one ``compress_turn`` call per
    embedding row count. A stacked forward is bitwise equal to per-turn ones.

    For the multimodal strategy the predictor's own transcription of each user
    turn is fed back as that turn's history text for subsequent prompts; gold
    user transcripts never enter the textual history. The history is one
    string that grows by appending: each user turn adds its transcription
    once it is parsed, and the agent turn after it, if any, adds its
    transcript (an ASR text when ``run --agent-asr`` replaced it at load).

    Each lone surrogate in a completion becomes U+FFFD, with a ``repaired:``
    diagnostic, before the raw output is built, so every text the run writes
    can be encoded as UTF-8.
    """
    compressed = strategy is Strategy.COMPRESSED_SPOKEN
    if compressed and compressor is None:
        raise ValueError("compressed_spoken requires a compressor")
    results: list[TurnResult] = []
    history = ""
    users = dialogue.user_turn_indices()
    if not users:
        return results
    embedded: dict[int, np.ndarray] = {}
    for group in _groups(read_turns(strategy, dialogue), lambda i: _features(dialogue, i).shape):
        embedded.update(zip(group, embedder.embed_turn(dialogue, group)))
    whole = strategy is Strategy.FULL_SPOKEN or (compressed and compress_current)
    last = users[-1] if whole else users[-1] - 1
    shared = range(1, last + 1) if strategy is not Strategy.MULTIMODAL else range(0)
    pooled: dict[int, np.ndarray] = {}
    for group in _groups(shared if compressed else range(0), lambda i: embedded[i].shape[0]):
        pooled.update(zip(group, compress_turn(np.stack([embedded[i] for i in group]), compressor)))
    matrix, spans = stack_blocks([(i, pooled[i] if compressed else embedded[i]) for i in shared])
    for n in users:
        prompt = build_prompt(strategy, history)
        if whole:
            context = assemble(matrix, spans, n, text_part=prompt)
        else:
            context = assemble(matrix, spans, n - 1 if compressed else 0, (n, embedded[n]), prompt)
        gold = dialogue.gold_states.get(n, DialogueState())
        completion = predictor.predict(PredictionRequest(dialogue, n, strategy, context, gold))
        completion, surrogates = SURROGATE.subn("\ufffd", completion)
        raw_output = prompt + completion
        try:
            state, diagnostics = parse_state(raw_output)
        except ParseFailure as exc:
            state, diagnostics = None, [f"parse failure: {exc}"]
        if surrogates:
            diagnostics.append(f"repaired: {surrogates} lone surrogate(s) replaced by U+FFFD")
        if strategy is Strategy.MULTIMODAL:
            hypothesis = extract_user_last_turn(raw_output)
            if hypothesis is None:
                hypothesis = ""
                diagnostics.append("missing user_last_turn in output; empty hypothesis stored")
            history = extend_history(history, Speaker.USER, hypothesis)
            if n < len(dialogue.turns) and dialogue.turns[n].speaker is Speaker.AGENT:
                history = extend_history(history, Speaker.AGENT, dialogue.turns[n].transcript)
        results.append(TurnResult(n, raw_output, state, context.total_rows, diagnostics))
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
