from __future__ import annotations

import json
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dst_lab import state_codec
from dst_lab.assembly import OracleExact, run_dialogue
from dst_lab.corpus import Dialogue, DialogueState, SplitMix64, Speaker, Turn
from dst_lab.neural.pipeline import CompressorConfig, SpeechEmbedding, build_compressor
from dst_lab.state_codec import (
    MULTIMODAL_PROMPT_INFIX,
    MULTIMODAL_PROMPT_PREFIX,
    ParseFailure,
    PredictionRecord,
    SPOKEN_PROMPT_PREFIX,
    Strategy,
    build_prompt,
    extract_user_last_turn,
    parse_state,
    read_predictions,
    render_completion,
    serialize_state,
    write_predictions,
)

from oracles import oracle_build_prompt, oracle_decode_repaired

# ---------------------------------------------------------------------------
# serialize_state
# ---------------------------------------------------------------------------


def test_serialize_empty_state():
    assert serialize_state(DialogueState()) == '{"domains":[],"predicted_state":{}}'


def test_serialize_single_triple():
    state = DialogueState(["hotel"], {("hotel", "area"): "north"})
    assert (
        serialize_state(state)
        == '{"domains":["hotel"],"predicted_state":{"hotel":{"area":"north"}}}'
    )


def test_serialize_orders_domains_by_insertion_and_slots_sorted():
    state = DialogueState(
        ["taxi", "hotel"],
        {("hotel", "pricerange"): "cheap", ("hotel", "area"): "north", ("taxi", "leaveat"): "17:30"},
    )
    assert serialize_state(state) == (
        '{"domains":["taxi","hotel"],"predicted_state":'
        '{"taxi":{"leaveat":"17:30"},"hotel":{"area":"north","pricerange":"cheap"}}}'
    )


def _random_state(rng: SplitMix64) -> DialogueState:
    letters = string.ascii_lowercase
    n_domains = 1 + rng.randint(3)
    domains = []
    while len(domains) < n_domains:
        name = "".join(rng.choice(list(letters)) for _ in range(4))
        if name not in domains:
            domains.append(name)
    slots = {}
    for domain in domains:
        for _ in range(rng.randint(4)):
            slot = "".join(rng.choice(list(letters)) for _ in range(3))
            value = "".join(rng.choice(list(letters + " -:"))) * (1 + rng.randint(2))
            slots[(domain, slot)] = value.strip() or "x"
    return DialogueState(domains, slots)


def test_roundtrip_1000_random_states():
    rng = SplitMix64(99)
    for _ in range(1000):
        state = _random_state(rng)
        parsed, diagnostics = parse_state(serialize_state(state))
        assert diagnostics == []
        assert parsed == state


def test_serialize_injective_on_sampled_states():
    rng = SplitMix64(123)
    states = [_random_state(rng) for _ in range(200)]
    seen: dict[str, DialogueState] = {}
    for state in states:
        blob = serialize_state(state)
        if blob in seen:
            assert seen[blob] == state
        seen[blob] = state


@settings(max_examples=200)
@given(
    st.dictionaries(
        st.tuples(
            st.text(string.ascii_lowercase, min_size=1, max_size=6),
            st.text(string.ascii_lowercase, min_size=1, max_size=6),
        ),
        st.text(string.ascii_lowercase + " :-", min_size=1, max_size=10).map(
            lambda s: s.strip() or "v"
        ),
        max_size=6,
    )
)
def test_roundtrip_property(slots):
    domains = sorted({d for d, _ in slots})
    state = DialogueState(domains, slots)
    parsed, _ = parse_state(serialize_state(state))
    assert parsed == state


# ---------------------------------------------------------------------------
# parse_state
# ---------------------------------------------------------------------------


def test_parse_truncated_output_is_repaired():
    text = '{"domains":["taxi"],"predicted_state":{"taxi":{"leaveat":"17:30"'
    state, diagnostics = parse_state(text)
    assert state.slots == {("taxi", "leaveat"): "17:30"}
    assert state.domains == ["taxi"]
    assert any("unterminated" in d for d in diagnostics)


def test_parse_truncated_mid_string():
    text = '{"domains":["taxi"],"predicted_state":{"taxi":{"leaveat":"17:3'
    state, diagnostics = parse_state(text)
    assert state.slots == {("taxi", "leaveat"): "17:3"}
    assert any("unterminated string" in d for d in diagnostics)


def test_parse_trailing_comma():
    text = '{"domains":["hotel"],"predicted_state":{"hotel":{"area":"north",}},}'
    state, diagnostics = parse_state(text)
    assert state.slots == {("hotel", "area"): "north"}
    assert any("trailing comma" in d for d in diagnostics)


def test_parse_garbage_raises():
    with pytest.raises(ParseFailure) as err:
        parse_state("garbage")
    assert err.value.raw == "garbage"


def test_parse_upper_case_keys_lowered():
    state, _ = parse_state('{"Domains":["Hotel"],"Predicted_State":{"Hotel":{"Area":"North"}}}')
    assert state.domains == ["hotel"]
    assert state.slots == {("hotel", "area"): "North"}  # values preserved


def test_parse_adds_missing_domain_with_diagnostic():
    state, diagnostics = parse_state('{"domains":[],"predicted_state":{"taxi":{"leaveat":"17:30"}}}')
    assert state.domains == ["taxi"]
    assert any("missing from domains" in d for d in diagnostics)


def test_parse_surrounding_prose():
    text = 'the state is {"domains":["taxi"],"predicted_state":{}} thanks'
    state, _ = parse_state(text)
    assert state.domains == ["taxi"]


def test_every_truncation_of_a_nested_object_closes_its_open_objects():
    # the inner object opens at index 5 and closes at index 17; the braces at
    # 12 and 15 sit inside a string with an escaped quote
    text = r'{"a":{"b":"x}\"{"}}'
    fragment, diagnostics = state_codec._extract_json_object(text)
    assert (fragment, diagnostics) == (text, [])
    for end in range(1, len(text)):
        unclosed = 2 if 5 < end <= 17 else 1
        fragment, diagnostics = state_codec._extract_json_object(text[:end])
        assert diagnostics[-1] == f"repaired: closed {unclosed} unterminated object(s)", end
        assert fragment.count("}") - text[:end].count("}") == unclosed, end


def _parse_outcome(text: str):
    try:
        parsed = parse_state(text)
    except ParseFailure as exc:
        parsed = ("ParseFailure", str(exc), exc.raw)
    return parsed, extract_user_last_turn(text)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_JSON_OBJECTS = st.dictionaries(
    st.sampled_from(["domains", "predicted_state", "user_last_turn", "Domains", "x"]), _JSON_VALUES, max_size=4
).map(json.dumps)
_FRAMED_OBJECTS = st.tuples(st.text(max_size=8), _JSON_OBJECTS, st.text(max_size=8)).map("".join)
_MODEL_LIKE_TEXTS = st.one_of(
    st.text(),
    st.text('{}[]",:\\ ab1', max_size=40),
    _FRAMED_OBJECTS,
    _FRAMED_OBJECTS.flatmap(lambda t: st.integers(0, len(t)).map(lambda i: t[:i])),
    _FRAMED_OBJECTS.map(lambda t: t.replace("}", ",}", 1).replace("]", " ,]", 1)),
    _FRAMED_OBJECTS.map(lambda t: t.replace('"', '"\t', 1)),  # raw control character in a string
)


@settings(max_examples=400)
@given(_MODEL_LIKE_TEXTS)
def test_valid_json_fast_path_matches_repair_path(text):
    # the repair path alone is the reference: same state and diagnostics, or
    # the same ParseFailure, and the same user_last_turn
    with mock.patch.object(state_codec, "_decode", state_codec._decode_repaired):
        expected = _parse_outcome(text)
    assert _parse_outcome(text) == expected


def _repair_outcome(decode, text: str) -> str:
    # repr, so that a decoded NaN compares equal to itself
    try:
        return repr(decode(text))
    except ParseFailure as exc:
        return repr(("ParseFailure", str(exc), exc.raw))


_SCAN_TEXT = st.text('{}[]",:\\ \tab', max_size=4)
_SERIALIZED_STATES = st.dictionaries(st.tuples(_SCAN_TEXT, _SCAN_TEXT), _SCAN_TEXT, max_size=4).map(
    lambda slots: serialize_state(DialogueState(sorted({d for d, _ in slots}), slots))
)


@settings(max_examples=150)
@given(_SERIALIZED_STATES, st.sampled_from(["", ",", " ,", ", ", ",\n ", ",,"]))
def test_one_pass_repair_matches_two_pass_oracle_on_every_truncation(serialized, noise):
    # ``noise`` before every closer gives the comma and whitespace repairs work
    text = serialized.replace("}", noise + "}").replace("]", noise + "]")
    for end in range(len(text) + 1):
        assert _repair_outcome(state_codec._decode_repaired, text[:end]) == _repair_outcome(
            oracle_decode_repaired, text[:end]
        ), end


@settings(max_examples=400)
@given(_MODEL_LIKE_TEXTS)
def test_one_pass_repair_matches_two_pass_oracle_on_random_text(text):
    assert _repair_outcome(state_codec._decode_repaired, text) == _repair_outcome(oracle_decode_repaired, text)


_CLOSERS = {"[": "]", "{": "}", '{"a": ': "}", "[{": "}]"}
# runs of openers deep enough to exhaust json's recursion limit, unclosed or closed
_BRACKET_RUNS = st.tuples(
    st.sampled_from(["", '{"domains": ', '{"predicted_state": {"hotel": {"area": ', "{"]),
    st.sampled_from(sorted(_CLOSERS)),
    st.sampled_from([1, 10, 999, 1000, 5000, 100000]),
    st.booleans(),
).map(lambda t: t[0] + t[1] * t[2] + (_CLOSERS[t[1]] * t[2] if t[3] else ""))


@settings(max_examples=300)
@given(
    st.one_of(
        _MODEL_LIKE_TEXTS,
        _SERIALIZED_STATES.flatmap(lambda t: st.integers(0, len(t)).map(lambda i: t[:i])),
        _BRACKET_RUNS,
    )
)
def test_parse_state_raises_nothing_but_parse_failure(text):
    try:
        parse_state(text)
    except ParseFailure:
        pass
    extract_user_last_turn(text)


def test_unterminated_deep_nesting_is_a_parse_failure():
    text = '{"domains": ' + "[" * 100000
    with pytest.raises(ParseFailure, match="nesting too deep"):
        parse_state(text)
    assert extract_user_last_turn(text) is None


def test_valid_deep_nesting_is_a_parse_failure():
    text = '{"domains": [], "predicted_state": ' + "[" * 5000 + "]" * 5000 + "}"
    with pytest.raises(ParseFailure, match="nesting too deep"):
        parse_state(text)


# ---------------------------------------------------------------------------
# build_prompt and the history run_dialogue builds
# ---------------------------------------------------------------------------


_COMPRESSOR = build_compressor(CompressorConfig(d_model=8, n_heads=2, n_queries=2))


class _StubEmbedder:
    """One constant row per turn: these tests read only the prompt text."""

    def embed_turn(self, dialogue, turn_index):
        return SpeechEmbedding(np.ones((1, 8)), dialogue.id, turn_index)


class _Scripted:
    """Transcribes user turn n as ``texts[n]``; a turn that ``texts`` lacks
    gets a completion whose user_last_turn is not a string."""

    def __init__(self, texts):
        self.texts = texts

    def predict(self, request):
        if request.turn_index in self.texts:
            return render_completion(request.strategy, request.gold_state, self.texts[request.turn_index])
        return 'null, "domains": [], "predicted_state": {} }'


def _run_prompts(dialogue, strategy, predictor, *, agent_texts=None):
    """``run_dialogue``'s results and the prompt text of each user turn's context."""
    prompts = {}

    class Recording:
        def predict(self, request):
            prompts[request.turn_index] = request.context.text_part
            return predictor.predict(request)

    results = run_dialogue(dialogue, strategy, Recording(), _StubEmbedder(), _COMPRESSOR, agent_texts=agent_texts)
    return prompts, results


def _dialogue_3_turns() -> Dialogue:
    return Dialogue(
        id="d0",
        turns=[
            Turn(1, Speaker.USER, "u1"),
            Turn(2, Speaker.AGENT, "a2"),
            Turn(3, Speaker.USER, "u3"),
        ],
        gold_states={},
    )


def test_multimodal_prompt_golden_bytes():
    expected = '{ "history": "USER: u1 ; AGENT: a2", "user_last_turn": '
    assert build_prompt(Strategy.MULTIMODAL, "USER: u1 ; AGENT: a2") == expected
    prompts, _ = _run_prompts(_dialogue_3_turns(), Strategy.MULTIMODAL, OracleExact())
    assert prompts[3] == expected


def test_multimodal_first_turn_history_empty():
    expected = '{ "history": "", "user_last_turn": '
    assert build_prompt(Strategy.MULTIMODAL) == expected
    prompts, _ = _run_prompts(_dialogue_3_turns(), Strategy.MULTIMODAL, OracleExact())
    assert prompts[1] == expected


def test_multimodal_uses_hypothesis_not_gold():
    prompts, _ = _run_prompts(_dialogue_3_turns(), Strategy.MULTIMODAL, _Scripted({1: "you won", 3: "u3"}))
    assert "you won" in prompts[3]
    assert "USER: u1" not in prompts[3]


def test_multimodal_agent_text_override():
    prompts, _ = _run_prompts(
        _dialogue_3_turns(), Strategy.MULTIMODAL, OracleExact(), agent_texts={2: "asr a2"}
    )
    assert "AGENT: asr a2" in prompts[3]


def test_full_spoken_prompt_slots_and_text():
    turns = []
    for i in range(1, 6):
        speaker = Speaker.USER if i % 2 == 1 else Speaker.AGENT
        turns.append(Turn(i, speaker, f"t{i}"))
    dlg = Dialogue(id="d", turns=turns, gold_states={})
    assert build_prompt(Strategy.FULL_SPOKEN) == SPOKEN_PROMPT_PREFIX == '{"domains": '
    prompts, _ = _run_prompts(dlg, Strategy.FULL_SPOKEN, OracleExact())
    assert prompts == {1: SPOKEN_PROMPT_PREFIX, 3: SPOKEN_PROMPT_PREFIX, 5: SPOKEN_PROMPT_PREFIX}
    # pure speech context: no transcripts leak into the text
    for turn in dlg.turns:
        assert turn.transcript not in prompts[5]


def test_compressed_prompt_same_layout_as_full():
    assert build_prompt(Strategy.COMPRESSED_SPOKEN) == build_prompt(Strategy.FULL_SPOKEN)
    dlg = _dialogue_3_turns()
    full, _ = _run_prompts(dlg, Strategy.FULL_SPOKEN, OracleExact())
    compressed, _ = _run_prompts(dlg, Strategy.COMPRESSED_SPOKEN, OracleExact())
    assert compressed == full


# Text that JSON must escape, or that tests ensure_ascii: quotes, backslashes,
# control characters, non-ASCII, lone surrogates and astral characters.
_HARD_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "\ud800", "\udfff", "\U0001f600", ";", ":"]),
        st.characters(),
    ),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(
    transcripts=st.lists(_HARD_TEXT, min_size=1, max_size=7),
    hypotheses=st.lists(st.one_of(st.none(), _HARD_TEXT), min_size=4, max_size=4),
    agent_texts=st.one_of(st.none(), st.dictionaries(st.integers(1, 8), _HARD_TEXT, max_size=4)),
)
def test_run_prompts_equal_from_scratch_prompts(transcripts, hypotheses, agent_texts):
    """The history run_dialogue appends to gives, at every user turn, the
    prompt that rebuilding it from the run's parsed hypotheses gives."""
    turns = [
        Turn(i, Speaker.USER if i % 2 == 1 else Speaker.AGENT, text)
        for i, text in enumerate(transcripts, start=1)
    ]
    dlg = Dialogue(id="d", turns=turns)
    script = {n: h for n, h in zip(dlg.user_turn_indices(), hypotheses) if h is not None}
    prompts, results = _run_prompts(dlg, Strategy.MULTIMODAL, _Scripted(script), agent_texts=agent_texts)
    parsed = {}
    for result in results:
        # not always the scripted text: JSON decoding joins an escaped
        # surrogate pair into one astral character
        hypothesis = extract_user_last_turn(result.raw_output)
        assert (hypothesis is None) == (result.turn_index not in script)
        assert (hypothesis is None) == (
            "missing user_last_turn in output; empty hypothesis stored" in result.diagnostics
        )
        parsed[result.turn_index] = hypothesis or ""
    assert sorted(prompts) == dlg.user_turn_indices()
    for n, prompt in prompts.items():
        assert prompt == oracle_build_prompt(Strategy.MULTIMODAL, dlg, n, parsed, agent_texts)


def test_prompt_constants_frozen():
    assert MULTIMODAL_PROMPT_PREFIX == '{ "history": '
    assert MULTIMODAL_PROMPT_INFIX == ', "user_last_turn": '
    assert SPOKEN_PROMPT_PREFIX == '{"domains": '


def test_extract_user_last_turn():
    raw = '{ "history": "", "user_last_turn": "hello there", "domains": [], "predicted_state": {} }'
    assert extract_user_last_turn(raw) == "hello there"
    assert extract_user_last_turn("nonsense") is None


# ---------------------------------------------------------------------------
# prediction records
# ---------------------------------------------------------------------------


def test_prediction_record_roundtrip(tmp_path):
    records = [
        PredictionRecord("d0", 1, '{"domains":[],"predicted_state":{}}', DialogueState()),
        PredictionRecord(
            "d0",
            3,
            "broken output",
            None,
            diagnostics=["parse failure: no JSON object found"],
        ),
    ]
    path = tmp_path / "pred.ndjson"
    write_predictions(path, records)
    loaded = read_predictions(path)
    assert loaded == records
    assert loaded[1].parsed_state is None
