from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dst_lab import corpus
from dst_lab.corpus import (
    CorpusFormatError,
    Dialogue,
    DialogueState,
    Speaker,
    StateInvariantError,
    SynthConfig,
    SlotTaxonomy,
    Turn,
    default_corrupted_ids,
    filter_corrupted,
    load_corpus,
    parse_corpus,
    read_feature_sidecar,
    scan_transcript_mentions,
    synth_corpus,
    synthetic_taxonomy,
    token_vector,
    write_corpus,
    write_feature_sidecar,
)
from dst_lab.jsonio import JsonInputError

from oracles import oracle_attach_features, oracle_state_domains, oracle_to_nested


def _write_minimal_corpus(tmp_path, dialogues):
    doc = {"format_version": 1, "kind": "synthetic", "dialogues": dialogues}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    return path


def _located(path, start: str, message: str) -> str:
    """The error text for ``message`` located where ``start`` first begins in the file ``path``."""
    text = path.read_text()
    at = text.index(start)
    return f"{path}:{text.count(chr(10), 0, at) + 1}:{at - text.rfind(chr(10), 0, at)}: {message}"


def test_load_counts_preserved(tmp_path):
    dialogues = []
    for d in range(2):
        turns = []
        for i in range(1, 7):
            speaker = "USER" if i % 2 == 1 else "AGENT"
            turns.append({"index": i, "speaker": speaker, "transcript": f"t{i}"})
        dialogues.append({"id": f"dlg-{d}", "turns": turns, "gold_states": {}})
    path = _write_minimal_corpus(tmp_path, dialogues)
    loaded = load_corpus(path, "synthetic_json")
    assert len(loaded) == 2
    assert all(len(dlg.turns) == 6 for dlg in loaded)
    assert loaded[0].turns[0].transcript == "t1"


def test_agent_first_is_rejected(tmp_path):
    dialogues = [
        {
            "id": "bad",
            "turns": [
                {"index": 1, "speaker": "AGENT", "transcript": "hello"},
                {"index": 2, "speaker": "USER", "transcript": "hi"},
            ],
            "gold_states": {},
        }
    ]
    path = _write_minimal_corpus(tmp_path, dialogues)
    with pytest.raises(JsonInputError) as info:
        load_corpus(path, "synthetic_json")
    assert str(info.value) == _located(path, '{"id": "bad"', "speaker alternation violated at turn 1 of dialogue bad")


def test_unknown_speaker_tag_rejected(tmp_path):
    dialogues = [
        {
            "id": "bad",
            "turns": [{"index": 1, "speaker": "NARRATOR", "transcript": "hello"}],
            "gold_states": {},
        }
    ]
    path = _write_minimal_corpus(tmp_path, dialogues)
    with pytest.raises(JsonInputError) as info:
        load_corpus(path, "synthetic_json")
    message = "dialogues[0].turns[0].speaker must be 'USER' or 'AGENT', got 'NARRATOR'"
    assert str(info.value) == _located(path, '{"index": 1', message)


def test_malformed_json_reports_offset(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text('{"format_version": 1, "dialogues": [')
    with pytest.raises(JsonInputError) as err:
        load_corpus(path, "synthetic_json")
    assert err.value.pos == 36
    assert str(err.value) == f"{path}:1:37: malformed JSON: Expecting value"


def test_synth_roundtrip_through_disk(tmp_path, small_corpus, monkeypatch):
    write_corpus(tmp_path / "c", small_corpus, taxonomy=synthetic_taxonomy())
    reloaded = load_corpus(tmp_path / "c", "synthetic_json")
    assert reloaded == small_corpus
    monkeypatch.setattr(corpus, "read_feature_sidecar", None)  # parse_corpus reads no sidecar
    parsed, taxonomy = parse_corpus(tmp_path / "c", "synthetic_json")
    assert taxonomy == synthetic_taxonomy()
    assert [(d.id, d.gold_states) for d in parsed] == [(d.id, d.gold_states) for d in small_corpus]
    assert all(t.features is None for d in parsed for t in d.turns)


def test_synth_determinism_bytes(tmp_path):
    config = SynthConfig(n_dialogues=3, turns_per_dialogue=6, feature_dim=8, noise_sigma=0.4)
    for name in ("a", "b"):
        write_corpus(tmp_path / name, synth_corpus(11, config))
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "corpus.json").read_bytes() == (b / "corpus.json").read_bytes()
    sidecars_a = sorted(p.name for p in (a / "features").iterdir())
    sidecars_b = sorted(p.name for p in (b / "features").iterdir())
    assert sidecars_a == sidecars_b
    for name in sidecars_a:
        assert (a / "features" / name).read_bytes() == (b / "features" / name).read_bytes()


def test_zero_noise_features_equal_token_vectors():
    config = SynthConfig(n_dialogues=1, turns_per_dialogue=2, feature_dim=8, noise_sigma=0.0)
    dlg = synth_corpus(5, config)[0]
    turn = dlg.turns[0]
    tokens = turn.transcript.split()
    assert turn.features.shape == (len(tokens), 8)
    for row, token in zip(turn.features, tokens):
        assert np.array_equal(row, token_vector(5, token, 8))


def test_noisy_features_share_one_token_vector_per_token(monkeypatch):
    config = SynthConfig(n_dialogues=3, turns_per_dialogue=6, feature_dim=8, noise_sigma=0.3, frames_per_token=2)
    calls: list[str] = []
    real = corpus.token_vector
    monkeypatch.setattr(corpus, "token_vector", lambda seed, token, dim: calls.append(token) or real(seed, token, dim))
    dialogues = synth_corpus(5, config)
    tokens = {token for dlg in dialogues for turn in dlg.turns for token in turn.transcript.split()}
    assert sorted(calls) == sorted(tokens)
    # expected features: one token_vector call per token occurrence, plus the
    # turn's own noise draw
    for i, dlg in enumerate(dialogues):
        for turn in dlg.turns:
            clean = np.stack([real(5, token, 8) for token in turn.transcript.split() for _ in range(2)])
            noise = corpus.gaussian_stream(corpus.derive_key(5, "noise", i, turn.index), clean.size)
            assert np.array_equal(turn.features, clean + 0.3 * noise.reshape(clean.shape))


def test_final_gold_state_matches_transcript_scan(small_corpus):
    # brute-force oracle: scan every user transcript in order, last mention wins
    for dlg in small_corpus:
        expected: dict[tuple[str, str], str] = {}
        domains: list[str] = []
        for turn in dlg.turns:
            if turn.speaker is not Speaker.USER:
                continue
            for domain, slot, value in scan_transcript_mentions(turn.transcript):
                expected[(domain, slot)] = value
                if domain not in domains:
                    domains.append(domain)
        final_idx = max(dlg.gold_states)
        assert dlg.gold_states[final_idx] == DialogueState(domains, expected)


def test_gold_states_cumulative(small_corpus):
    for dlg in small_corpus:
        indices = sorted(dlg.gold_states)
        for earlier, later in zip(indices, indices[1:]):
            for key in dlg.gold_states[earlier].slots:
                assert key in dlg.gold_states[later].slots


def test_mentions_per_turn_uniform(probe_corpus):
    for dlg in probe_corpus:
        for turn in dlg.turns:
            if turn.speaker is Speaker.USER:
                assert len(scan_transcript_mentions(turn.transcript)) == 4
                assert turn.features.shape[0] == 9  # domain token + 4 slot/value pairs


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(turns_per_dialogue=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=-1).validate()
    with pytest.raises(ValueError):
        SynthConfig(fixed_domain="starship").validate()


@pytest.mark.parametrize(
    "config, message",
    [
        (SynthConfig(noise_sigma=float("nan")), "noise_sigma must be in [0, 1.16279e+99], got nan"),
        (SynthConfig(noise_sigma=float("inf")), "noise_sigma must be in [0, 1.16279e+99], got inf"),
        (SynthConfig(noise_sigma=1e300), "noise_sigma must be in [0, 1.16279e+99], got 1e+300"),
        (SynthConfig(slots_per_dialogue=5, fixed_domain="hotel"), "exceeds available slots for ['hotel']"),
    ],
)
def test_config_validation_runs_before_generation(config, message):
    with pytest.raises(ValueError) as info:
        config.validate()
    assert message in str(info.value)
    with pytest.raises(ValueError):
        synth_corpus(0, config)


def test_the_largest_noise_sigma_writes_sidecars_that_load(tmp_path):
    # Box-Muller's largest draw bounds token vectors and noise alike
    config = SynthConfig(n_dialogues=2, turns_per_dialogue=4, feature_dim=4, noise_sigma=corpus._NOISE_SIGMA_MAX)
    write_corpus(tmp_path / "c", synth_corpus(0, config))
    loaded = load_corpus(tmp_path / "c", "synthetic_json")
    largest = max(np.abs(t.features).max() for d in loaded for t in d.turns)
    assert config.noise_sigma < largest <= corpus.FEATURE_BOUND
    assert corpus.gaussian_stream(0, 1 << 16).max() < 8.6


def test_filter_corrupted_drops_present_ids(small_corpus):
    dialogues = synth_corpus(3, SynthConfig(n_dialogues=100, turns_per_dialogue=2, feature_dim=4))
    excluded = [d.id for d in dialogues[:9]]
    kept = filter_corrupted(dialogues, excluded)
    assert len(kept) == 91
    assert [d.id for d in kept] == [d.id for d in dialogues[9:]]


def test_filter_corrupted_identity_and_warning(small_corpus, caplog):
    assert filter_corrupted(small_corpus, []) == small_corpus
    with caplog.at_level("WARNING"):
        assert filter_corrupted(small_corpus, ["not-a-real-id"]) == small_corpus
    assert "not-a-real-id" in caplog.text


def test_default_corrupted_ids_loads():
    ids = default_corrupted_ids()
    assert isinstance(ids, list)


def test_state_invariants():
    with pytest.raises(StateInvariantError):
        DialogueState(["hotel"], {("taxi", "leaveat"): "17:30"})
    state = DialogueState(["hotel", "hotel"], {("hotel", "area"): "north"})
    assert state.domains == ["hotel"]


_DOMAIN_NAMES = st.sampled_from(["hotel", "taxi", "train", "Hotel", ""])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    domains=st.lists(_DOMAIN_NAMES, max_size=6),
    slots=st.dictionaries(st.tuples(_DOMAIN_NAMES, st.sampled_from(["area", "day"])), st.sampled_from(["north", "x"]), max_size=5),
)
def test_state_keeps_the_first_of_each_domain_and_checks_slots_like_a_list_scan(domains, slots):
    try:
        expected = oracle_state_domains(domains, slots)
    except StateInvariantError as exc:
        with pytest.raises(StateInvariantError) as info:
            DialogueState(list(domains), dict(slots))
        assert str(info.value) == str(exc)
    else:
        assert DialogueState(list(domains), dict(slots)).domains == expected


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    domains=st.lists(_DOMAIN_NAMES, max_size=6),
    slots=st.dictionaries(
        st.tuples(_DOMAIN_NAMES, st.sampled_from(["area", "day", "Name", "book"])), st.sampled_from(["north", "x"]), max_size=8
    ),
)
def test_to_nested_equals_the_scan_per_domain_oracle(domains, slots):
    state = DialogueState(list(domains) + [d for d, _ in slots], dict(slots))
    # json.dumps pins the order of domains and of each domain's slots
    assert json.dumps(state.to_nested()) == json.dumps(oracle_to_nested(state))


def test_to_nested_of_gold_states_equals_the_oracle(small_corpus):
    for dialogue in small_corpus:
        for state in dialogue.gold_states.values():
            assert json.dumps(state.to_nested()) == json.dumps(oracle_to_nested(state))


@pytest.mark.parametrize("seed", [0, 3, 2**63 - 1])
def test_splitmix64_draws_equal_the_numpy_counter_stream(seed):
    """``SplitMix64`` draws the counter stream ``_u64_stream`` computes with
    numpy; ``uniform``, ``randint``, ``choice`` and ``sample``, replayed here
    from that stream, draw what they drew."""
    draws = corpus._u64_stream(seed, 6000).tolist()
    rng = corpus.SplitMix64(seed)
    assert [rng.next_u64() for _ in range(1000)] == draws[:1000]
    stream = iter(draws[1000:])

    def randint(n: int) -> int:
        limit = 2**64 - 2**64 % n  # a draw at or above it is rejected
        while (u := next(stream)) >= limit:
            pass
        return u % n

    items = list("abcdefghij")
    for step in range(300):
        assert rng.uniform() == (next(stream) >> 11) * 2.0**-53
        n = (1, 2, 3, 7, 10, 1000, 3 * 2**62)[step % 7]  # 3 * 2**62 rejects a quarter of draws
        assert rng.randint(n) == randint(n)
        assert rng.choice(items) == items[randint(len(items))]
        pool = list(items)
        assert rng.sample(items, 4) == [pool.pop(randint(len(pool))) for _ in range(4)]


def test_an_integer_too_long_to_convert_is_a_located_corpus_error(tmp_path, small_corpus):
    path = write_corpus(tmp_path / "c", small_corpus)
    text = path.read_text()
    at = text.index('"index": 2,') + len('"index": ')
    path.write_text(text[:at] + "1" + "0" * 5000 + text[at + 1 :])
    with pytest.raises(JsonInputError) as info:
        parse_corpus(tmp_path / "c", "synthetic_json")
    line = text.count("\n", 0, at) + 1
    column = at - text.rfind("\n", 0, at)
    limit = sys.get_int_max_str_digits()
    assert str(info.value) == f"{path}:{line}:{column}: malformed JSON: integer longer than {limit} digits"
    assert info.value.pos == at


def test_write_corpus_makes_the_features_directory_once_and_only_for_features(tmp_path, small_corpus, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counting_mkdir(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting_mkdir)
    write_corpus(tmp_path / "c", small_corpus)
    assert made == [tmp_path / "c", tmp_path / "c" / "features"]
    made.clear()
    bare = [Dialogue(d.id, [Turn(t.index, t.speaker, t.transcript) for t in d.turns], d.gold_states) for d in small_corpus]
    write_corpus(tmp_path / "bare", bare)
    assert made == [tmp_path / "bare"]
    assert not (tmp_path / "bare" / "features").exists()


def test_feature_sidecar_roundtrip(tmp_path):
    mat = np.array([[1.5, -2.25], [3.125, 0.0], [np.pi, np.e]])
    path = tmp_path / "x.f64"
    write_feature_sidecar(path, "dlg", 3, mat)
    loaded = read_feature_sidecar(path, "dlg", 3)
    assert np.array_equal(loaded, mat) and loaded.flags.writeable
    assert np.array_equal(read_feature_sidecar(path, "dlg", 3, cols=2), mat)


def _fault(path, offset: int, message: str) -> str:
    """The text of a sidecar's CorpusFormatError."""
    return f"{path}: byte {offset}: {message}"


def test_truncated_or_padded_sidecar_is_a_format_error(tmp_path):
    path = tmp_path / "x.f64"
    write_feature_sidecar(path, "dlg", 3, np.arange(6.0).reshape(3, 2))
    blob = path.read_bytes()
    payload_start = len(blob) - 48
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(CorpusFormatError) as info:
            read_feature_sidecar(path, "dlg", 3)
        assert info.value.path == path
        if end < 8:
            message, offset = "bad feature sidecar magic", 0
        elif end < 12:
            message, offset = "truncated sidecar header length", end
        elif end < payload_start:
            message, offset = f"truncated sidecar header: {payload_start - 12} bytes declared", end
        else:
            message, offset = f"sidecar payload is {end - payload_start} bytes; a 3x2 float64 matrix needs 48", end
        assert str(info.value) == _fault(path, offset, message)
        assert info.value.offset == offset
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CorpusFormatError) as info:
        read_feature_sidecar(path, "dlg", 3)
    assert str(info.value) == _fault(path, len(blob), "sidecar payload is 49 bytes; a 3x2 float64 matrix needs 48")


_SIDECAR_HEADER_FIELDS = '"cols": 2, "dialogue_id": "dlg", "format_version": 1'
# each malformed header and what its error names
_SIDECAR_HEADER_FAULTS = {
    b"{not json": "malformed JSON: Expecting property name enclosed in double quotes",
    b"[1, 2]": "expected a JSON object, got list",
    b'{"rows": 1}': "missing field 'dialogue_id'",
    b"\xff\xfe": "malformed UTF-8: invalid start byte",
    b'{%s, "rows": "3", "turn_index": 3}' % _SIDECAR_HEADER_FIELDS.encode(): "rows must be an integer, got '3'",
    b'{%s, "rows": 3, "turn_index": 1.0}' % _SIDECAR_HEADER_FIELDS.encode(): "turn_index must be an integer, got 1.0",
    b'{"cols": 2, "dialogue_id": "dlg", "format_version": 99, "rows": 0, "turn_index": 3}': "format_version must be 1, got 99",
    b'{"cols": 2, "dialogue_id": "dlg", "rows": 0, "turn_index": 3}': "missing field 'format_version'",
}


@pytest.mark.parametrize("header", list(_SIDECAR_HEADER_FAULTS))
def test_malformed_sidecar_header_is_a_format_error(tmp_path, header):
    path = tmp_path / "x.f64"
    path.write_bytes(b"DSTLFEA1" + len(header).to_bytes(4, "little") + header)
    with pytest.raises(CorpusFormatError) as info:
        read_feature_sidecar(path, "dlg", 3)
    assert (info.value.path, info.value.offset) == (path, 12)
    message = f"malformed sidecar header: {_SIDECAR_HEADER_FAULTS[header]}"
    assert str(info.value) == _fault(path, 12, message)


_OUT_OF_RANGE = "is not in [-1e+100, 1e+100]"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1.0000000000000002e100])
@pytest.mark.parametrize("positions", [(0,), (3,), (5,), (2, 4)])
def test_sidecar_value_out_of_range_is_a_format_error(tmp_path, bad, positions):
    path = tmp_path / "x.f64"
    mat = np.arange(6.0).reshape(3, 2)
    mat.flat[list(positions)] = bad
    write_feature_sidecar(path, "dlg", 3, mat)
    payload_start = path.stat().st_size - 48
    with pytest.raises(CorpusFormatError) as info:
        read_feature_sidecar(path, "dlg", 3)
    assert (info.value.path, info.value.offset) == (path, payload_start + 8 * positions[0])
    row, column = divmod(positions[0], 2)
    message = f"feature value {bad} at row {row}, column {column} {_OUT_OF_RANGE}"
    assert str(info.value) == _fault(path, info.value.offset, message)


def test_sidecar_values_at_the_bound_are_read(tmp_path):
    path = tmp_path / "x.f64"
    mat = np.array([[corpus.FEATURE_BOUND, -corpus.FEATURE_BOUND], [5e-324, -0.0]])
    write_feature_sidecar(path, "dlg", 3, mat)
    assert np.array_equal(read_feature_sidecar(path, "dlg", 3), mat)


def test_sidecar_value_out_of_range_fails_corpus_load(tmp_path, small_corpus):
    write_corpus(tmp_path / "c", small_corpus)
    dlg = small_corpus[1]
    agent_turn = dlg.turns[1]
    features = agent_turn.features.copy()
    features[1, 2] = np.nan
    sidecar = tmp_path / "c" / "features" / f"{dlg.id}__t{agent_turn.index:04d}.f64"
    write_feature_sidecar(sidecar, dlg.id, agent_turn.index, features)
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(tmp_path / "c", "synthetic_json")
    offset = sidecar.stat().st_size - features.size * 8 + 8 * (features.shape[1] + 2)
    assert str(info.value) == _fault(sidecar, offset, f"feature value nan at row 1, column 2 {_OUT_OF_RANGE}")


@pytest.mark.parametrize("header_id, header_turn", [("other", 2), (None, 4)])
def test_sidecar_header_must_match_its_file(tmp_path, small_corpus, header_id, header_turn):
    write_corpus(tmp_path / "c", small_corpus)
    dlg = small_corpus[0]
    sidecar = tmp_path / "c" / "features" / f"{dlg.id}__t0002.f64"
    write_feature_sidecar(sidecar, header_id or dlg.id, header_turn, dlg.turns[1].features)
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(tmp_path / "c", "synthetic_json")
    message = f"sidecar header is for {header_id or dlg.id} turn {header_turn}, not {dlg.id} turn 2"
    assert str(info.value) == _fault(sidecar, 12, message)


@pytest.mark.parametrize("rows, cols", [(0, 2), (3, 0), (0, 0), (-1, 2), (2, -3)])
def test_sidecar_with_no_feature_value_is_a_format_error(tmp_path, rows, cols):
    path = tmp_path / "x.f64"
    write_feature_sidecar(path, "dlg", 3, np.zeros((max(rows, 0), max(cols, 0))))
    if min(rows, cols) < 0:  # a shape no matrix has, written by hand
        header = json.dumps({"cols": cols, "dialogue_id": "dlg", "format_version": 1, "rows": rows, "turn_index": 3})
        path.write_bytes(b"DSTLFEA1" + len(header).to_bytes(4, "little") + header.encode())
    with pytest.raises(CorpusFormatError) as info:
        read_feature_sidecar(path, "dlg", 3)
    assert str(info.value) == _fault(path, 12, f"sidecar shape {rows}x{cols} has no feature value")


def _user_turns(dialogue):
    return dialogue.user_turn_indices()


def test_load_corpus_reads_only_the_sidecars_read_names(tmp_path, small_corpus):
    write_corpus(tmp_path / "c", small_corpus)
    # every agent turn's sidecar is broken; reading user turns only never opens one
    for dlg in small_corpus:
        for turn in dlg.turns[1::2]:
            sidecar = tmp_path / "c" / "features" / f"{dlg.id}__t{turn.index:04d}.f64"
            sidecar.write_bytes(b"not a sidecar")
    loaded = load_corpus(tmp_path / "c", "synthetic_json", _user_turns)
    for got, want in zip(loaded, small_corpus):
        for turn, original in zip(got.turns, want.turns):
            if turn.speaker is Speaker.USER:
                assert np.array_equal(turn.features, original.features)
            else:
                assert turn.features is None
    loaded = load_corpus(tmp_path / "c", "synthetic_json", lambda dialogue: [])
    assert all(turn.features is None for dlg in loaded for turn in dlg.turns)
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(tmp_path / "c", "synthetic_json")
    sidecar = tmp_path / "c" / "features" / f"{small_corpus[0].id}__t0002.f64"
    assert str(info.value) == _fault(sidecar, 0, "bad feature sidecar magic")


def test_feature_dim_must_agree_across_the_sidecars_read(tmp_path, small_corpus):
    write_corpus(tmp_path / "c", small_corpus)
    dlg = small_corpus[0]
    wide = np.zeros((3, dlg.turns[1].features.shape[1] + 1))
    write_feature_sidecar(tmp_path / "c" / "features" / f"{dlg.id}__t0002.f64", dlg.id, 2, wide)
    assert load_corpus(tmp_path / "c", "synthetic_json", _user_turns)[0].turns[1].features is None
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(tmp_path / "c", "synthetic_json")
    sidecar = tmp_path / "c" / "features" / f"{dlg.id}__t0002.f64"
    assert str(info.value) == _fault(sidecar, 12, "sidecar has 9 columns; the sidecars read before it have 8")


def test_load_corpus_lists_nothing_and_opens_each_read_sidecar_once(tmp_path, small_corpus, monkeypatch):
    write_corpus(tmp_path / "c", small_corpus)
    opened = []
    os_open = os.open

    def counting_open(path, flags, *args, **kwargs):
        opened.append(str(path))
        return os_open(path, flags, *args, **kwargs)

    def no_listing(path="."):
        raise AssertionError(f"listing of {path}")

    def no_exists(self):
        raise AssertionError(f"stat of {self}")

    with monkeypatch.context() as patched:
        patched.setattr(os, "listdir", no_listing)
        patched.setattr(os, "scandir", no_listing)
        patched.setattr(os, "open", counting_open)
        patched.setattr(Path, "exists", no_exists)
        loaded = load_corpus(tmp_path / "c", "synthetic_json")
    features = tmp_path / "c" / "features"
    assert opened == [str(features / f"{dlg.id}__t{turn.index:04d}.f64") for dlg in small_corpus for turn in dlg.turns]
    for got, want in zip(loaded, small_corpus):
        assert all(np.array_equal(a.features, b.features) for a, b in zip(got.turns, want.turns))


@pytest.mark.parametrize("fault, reason", [("directory", "Is a directory"), ("dangling_link", "No such file or directory")])
def test_sidecar_that_cannot_be_read_is_an_os_error_naming_it(tmp_path, small_corpus, fault, reason):
    write_corpus(tmp_path / "c", small_corpus)
    sidecar = tmp_path / "c" / "features" / f"{small_corpus[0].id}__t0001.f64"
    sidecar.unlink()
    if fault == "directory":
        sidecar.mkdir()
    else:
        sidecar.symlink_to(tmp_path / "gone.f64")
    with pytest.raises(OSError) as info:
        load_corpus(tmp_path / "c", "synthetic_json")
    assert (info.value.filename, info.value.strerror) == (str(sidecar), reason)


def _faulty_features(root: Path, dialogues: list[Dialogue], fault: str) -> Path:
    """A corpus directory of the four ``dialogues`` with ``fault`` in what
    its ``features/`` directory holds."""
    corpus_dir, features = root / "c", root / "c" / "features"
    first, second, third, fourth = dialogues

    def sidecar(dlg, turn_index):
        return features / f"{dlg.id}__t{turn_index:04d}.f64"

    if fault in ("nested_id", "long_id", "nul_id"):  # ids that no file directly in features/ can be named after
        name = {"nested_id": "sub/d", "long_id": "d" * 300, "nul_id": "d\0"}[fault]
        turns = first.turns if fault == "nested_id" else [dataclasses.replace(t, features=None) for t in first.turns]
        dialogues = [dataclasses.replace(first, id=name, turns=turns), second, third, fourth]
        (features / "sub").mkdir(parents=True)
    write_corpus(corpus_dir, dialogues)
    if fault == "missing":
        for path in [sidecar(first, 2), sidecar(first, 3), *(sidecar(third, t.index) for t in third.turns)]:
            path.unlink()
    elif fault == "stale":  # the sidecars of a corpus of another seed, whose names hold that seed
        write_corpus(root / "other", synth_corpus(124, SynthConfig(n_dialogues=4, turns_per_dialogue=8, feature_dim=5)))
        for path in (root / "other" / "features").iterdir():
            path.rename(features / path.name)
    elif fault == "no_directory":
        shutil.rmtree(features)
    elif fault == "file_in_place_of_directory":
        shutil.rmtree(features)
        features.write_bytes(b"")
    elif fault in ("dangling_user_link", "dangling_agent_link"):
        path = sidecar(second, 3 if fault == "dangling_user_link" else 4)
        path.unlink()
        path.symlink_to(root / "gone.f64")
    elif fault == "directory":
        sidecar(second, 1).unlink()
        sidecar(second, 1).mkdir()
    elif fault == "header_for_another_turn":
        write_feature_sidecar(sidecar(second, 5), second.id, 7, second.turns[4].features)
    elif fault == "non_finite":
        values = third.turns[2].features.copy()
        values[1, 3] = np.inf
        write_feature_sidecar(sidecar(third, 3), third.id, 3, values)
    elif fault in ("mixed_agent_dims", "mixed_user_dims"):
        index = 6 if fault == "mixed_agent_dims" else 7
        write_feature_sidecar(sidecar(fourth, index), fourth.id, index, np.ones((2, 9)))
    return corpus_dir


def _attached(load) -> list | str:
    """Each turn's features, as shape and bytes, in the dialogues ``load``
    returns, or the type and text of the CorpusFormatError or OSError it raises."""
    try:
        dialogues = load()
    except (CorpusFormatError, OSError) as exc:
        return type(exc), str(exc)
    return [[None if t.features is None else (t.features.shape, t.features.tobytes()) for t in d.turns] for d in dialogues]


def _oracle_load(corpus_dir: Path, read):
    dialogues, _ = parse_corpus(corpus_dir, "synthetic_json")
    oracle_attach_features(dialogues, corpus_dir / "features", read)
    return dialogues


@pytest.mark.parametrize("read", [None, _user_turns], ids=["every_turn", "user_turns"])
@pytest.mark.parametrize(
    "fault",
    [
        "intact", "missing", "stale", "no_directory", "file_in_place_of_directory", "dangling_user_link",
        "dangling_agent_link", "directory", "header_for_another_turn", "non_finite", "mixed_agent_dims",
        "mixed_user_dims", "nested_id", "long_id", "nul_id",
    ],
)
def test_load_corpus_attaches_what_the_listing_oracle_attaches(tmp_path, small_corpus, fault, read):
    corpus_dir = _faulty_features(tmp_path, small_corpus, fault)
    got = _attached(lambda: load_corpus(corpus_dir, "synthetic_json", read))
    assert got == _attached(lambda: _oracle_load(corpus_dir, read))
    if fault == "intact":
        every = _attached(lambda: small_corpus)
        assert got == [[f if read is None or i % 2 == 0 else None for i, f in enumerate(turns)] for turns in every]


def test_sidecar_reader_takes_short_reads(tmp_path, monkeypatch):
    path = tmp_path / "x.f64"
    mat = np.arange(6.0).reshape(3, 2)
    write_feature_sidecar(path, "dlg", 3, mat)
    blob = path.read_bytes()
    os_read, os_fstat = os.read, os.fstat
    monkeypatch.setattr(os, "read", lambda fd, n: os_read(fd, min(n, 1)))
    loaded = read_feature_sidecar(path, "dlg", 3)
    assert np.array_equal(loaded, mat) and loaded.flags.writeable
    # a file shorter than its header declares, also where it ends before the size fstat reported
    path.write_bytes(blob[:-20])
    expected = _fault(path, len(blob) - 20, "sidecar payload is 28 bytes; a 3x2 float64 matrix needs 48")
    with pytest.raises(CorpusFormatError) as info:
        read_feature_sidecar(path, "dlg", 3)
    assert str(info.value) == expected
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=os_fstat(fd).st_size + 100))
    with pytest.raises(CorpusFormatError) as info:
        read_feature_sidecar(path, "dlg", 3)
    assert str(info.value) == expected


def test_spokenwoz_ingestion(tmp_path):
    doc = {
        "SNG0001": {
            "log": [
                {"text": "i need a hotel in the north", "tag": "user"},
                {
                    "text": "sure, any price range?",
                    "tag": "system",
                    "metadata": {
                        "hotel": {"semi": {"area": "north"}, "book": {"people": "2", "booked": []}},
                        "taxi": {"semi": {"leaveAt": ""}},
                    },
                },
                {"text": "cheap please", "tag": "user"},
                {
                    "text": "done",
                    "tag": "system",
                    "metadata": {
                        "hotel": {"semi": {"area": "north", "pricerange": "cheap"}, "book": {"people": "2"}}
                    },
                },
            ]
        }
    }
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    dialogues = load_corpus(path, "spokenwoz_json")
    assert len(dialogues) == 1
    dlg = dialogues[0]
    assert dlg.id == "SNG0001"
    assert [t.speaker for t in dlg.turns] == [Speaker.USER, Speaker.AGENT, Speaker.USER, Speaker.AGENT]
    assert dlg.gold_states[1] == DialogueState(
        ["hotel"], {("hotel", "area"): "north", ("hotel", "bookpeople"): "2"}
    )
    assert dlg.gold_states[3].slots[("hotel", "pricerange")] == "cheap"


def test_spokenwoz_unknown_tag(tmp_path):
    doc = {"X": {"log": [{"text": "hi", "tag": "robot"}]}}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(JsonInputError) as info:
        load_corpus(path, "spokenwoz_json")
    message = "X.log[0].tag must be 'user', 'system' or 'agent', got 'robot'"
    assert str(info.value) == _located(path, '{"text": "hi"', message)


def test_spokenwoz_repeated_dialogue_id_is_a_format_error(tmp_path):
    # json.load would keep only the second SNG1 entry
    path = tmp_path / "data.json"
    path.write_text(
        '{\n  "SNG1": {"log": [{"text": "first", "tag": "user"}]},\n  "SNG1": {"log": [{"text": "second", "tag": "user"}]}\n}'
    )
    with pytest.raises(JsonInputError) as info:
        load_corpus(path, "spokenwoz_json")
    assert str(info.value) == f"{path}:1:1: repeated key 'SNG1'"


@pytest.mark.parametrize(
    "metadata, message",
    [
        ({"hotel": {"semi": {"area": 5}}}, "SNG1.log[1].metadata.hotel.semi.area must be a string or list of strings, got 5"),
        ({"hotel": {"book": {"people": [2]}}}, "SNG1.log[1].metadata.hotel.book.people[0] must be a string, got 2"),
        ({"hotel": None}, "SNG1.log[1].metadata.hotel must be an object, got None"),
        ([], "SNG1.log[1].metadata must be an object, got []"),
    ],
)
def test_spokenwoz_slot_value_of_the_wrong_type_is_a_format_error(tmp_path, metadata, message):
    doc = {"SNG1": {"log": [{"text": "hi", "tag": "user"}, {"text": "ok", "tag": "system", "metadata": metadata}]}}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(JsonInputError) as info:
        load_corpus(path, "spokenwoz_json")
    # located at the start of the innermost object or list on the value's path
    assert re.fullmatch(re.escape(f"{path}:1:") + r"\d+: " + re.escape(message), str(info.value)), str(info.value)


def test_spokenwoz_tolerances_are_kept(tmp_path):
    # a list value gives its first element, a missing tag goes by position,
    # and empty values are skipped
    metadata = {"hotel": {"semi": {"area": ["north", "south"], "name": [], "type": "not mentioned"}, "book": {"booked": [{}]}}}
    doc = {"SNG1": {"log": [{"text": "hi"}, {"text": "ok", "metadata": metadata}]}}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    (dlg,) = load_corpus(path, "spokenwoz_json")
    assert [t.speaker for t in dlg.turns] == [Speaker.USER, Speaker.AGENT]
    assert dlg.gold_states == {1: DialogueState(["hotel"], {("hotel", "area"): "north"})}


def test_spokenwoz_alternation_uses_the_synthetic_rule(tmp_path):
    doc = {"X": {"log": [{"text": "hi", "tag": "user"}, {"text": "yes", "tag": "user"}]}}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(JsonInputError) as info:
        load_corpus(path, "spokenwoz_json")
    assert str(info.value) == _located(path, '{"log"', "speaker alternation violated at turn 2 of dialogue X")


def test_turn_equality_with_features():
    a = Turn(1, Speaker.USER, "hi", np.zeros((2, 2)))
    b = Turn(1, Speaker.USER, "hi", np.zeros((2, 2)))
    c = Turn(1, Speaker.USER, "hi", np.ones((2, 2)))
    assert a == b
    assert a != c


def test_taxonomy_classify_fallback():
    taxonomy = SlotTaxonomy()
    assert taxonomy.classify("train", "leaveat") == "time"
    assert taxonomy.classify("profile", "name") == "profile"
    assert taxonomy.classify("hotel", "area") == "categorical"
    assert taxonomy.classify("hotel", "name") == "open"
    with pytest.raises(KeyError):
        taxonomy.group_of("hotel", "area")
