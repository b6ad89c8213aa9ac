from __future__ import annotations

import json

import numpy as np
import pytest

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


def _write_minimal_corpus(tmp_path, dialogues):
    doc = {"format_version": 1, "kind": "synthetic", "dialogues": dialogues}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    return path


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
    with pytest.raises(CorpusFormatError, match="speaker alternation violated"):
        load_corpus(path, "synthetic_json")


def test_unknown_speaker_tag_rejected(tmp_path):
    dialogues = [
        {
            "id": "bad",
            "turns": [{"index": 1, "speaker": "NARRATOR", "transcript": "hello"}],
            "gold_states": {},
        }
    ]
    path = _write_minimal_corpus(tmp_path, dialogues)
    with pytest.raises(CorpusFormatError, match=r"dialogues\[0\].turns\[0\].speaker must be 'USER' or 'AGENT', got 'NARRATOR'"):
        load_corpus(path, "synthetic_json")


def test_malformed_json_reports_offset(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text('{"format_version": 1, "dialogues": [')
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path, "synthetic_json")
    assert err.value.offset is not None


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
        (SynthConfig(noise_sigma=float("nan")), "noise_sigma must be >= 0, got nan"),
        (SynthConfig(noise_sigma=float("inf")), "noise_sigma must be finite, got inf"),
        (SynthConfig(slots_per_dialogue=5, fixed_domain="hotel"), "exceeds available slots for ['hotel']"),
    ],
)
def test_config_validation_runs_before_generation(config, message):
    with pytest.raises(ValueError) as info:
        config.validate()
    assert message in str(info.value)
    with pytest.raises(ValueError):
        synth_corpus(0, config)


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


def test_feature_sidecar_roundtrip(tmp_path):
    mat = np.array([[1.5, -2.25], [3.125, 0.0], [np.pi, np.e]])
    path = tmp_path / "x.f64"
    write_feature_sidecar(path, "dlg", 3, mat)
    dlg_id, turn_index, loaded = read_feature_sidecar(path)
    assert (dlg_id, turn_index) == ("dlg", 3)
    assert np.array_equal(loaded, mat)


def test_truncated_or_padded_sidecar_is_a_format_error(tmp_path):
    path = tmp_path / "x.f64"
    write_feature_sidecar(path, "dlg", 3, np.arange(6.0).reshape(3, 2))
    blob = path.read_bytes()
    payload_start = len(blob) - 48
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(CorpusFormatError) as info:
            read_feature_sidecar(path)
        assert info.value.path == str(path)
        assert info.value.offset is not None
        if end >= payload_start:
            assert info.value.offset == end
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CorpusFormatError, match="payload is 49 bytes") as info:
        read_feature_sidecar(path)
    assert info.value.offset == len(blob)


_SIDECAR_HEADER_FIELDS = '"cols": 2, "dialogue_id": "dlg", "format_version": 1'
# each malformed header and what its error names
_SIDECAR_HEADER_FAULTS = {
    b"{not json": "malformed JSON",
    b"[1, 2]": "expected a JSON object, got list",
    b'{"rows": 1}': "missing field 'dialogue_id'",
    b"\xff\xfe": "malformed UTF-8",
    b'{%s, "rows": "3", "turn_index": 3}' % _SIDECAR_HEADER_FIELDS.encode(): "rows must be an integer, got '3'",
    b'{%s, "rows": 3, "turn_index": 1.0}' % _SIDECAR_HEADER_FIELDS.encode(): "turn_index must be an integer, got 1.0",
}


@pytest.mark.parametrize("header", list(_SIDECAR_HEADER_FAULTS))
def test_malformed_sidecar_header_is_a_format_error(tmp_path, header):
    path = tmp_path / "x.f64"
    path.write_bytes(b"DSTLFEA1" + len(header).to_bytes(4, "little") + header)
    with pytest.raises(CorpusFormatError, match="malformed sidecar header") as info:
        read_feature_sidecar(path)
    assert info.value.offset == 12
    assert f"malformed sidecar header: {_SIDECAR_HEADER_FAULTS[header]}" in str(info.value)
    assert info.value.path == str(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("positions", [(0,), (3,), (5,), (2, 4)])
def test_non_finite_sidecar_value_is_a_format_error(tmp_path, bad, positions):
    path = tmp_path / "x.f64"
    mat = np.arange(6.0).reshape(3, 2)
    mat.flat[list(positions)] = bad
    write_feature_sidecar(path, "dlg", 3, mat)
    payload_start = path.stat().st_size - 48
    with pytest.raises(CorpusFormatError, match="non-finite feature value") as info:
        read_feature_sidecar(path)
    assert info.value.path == str(path)
    assert info.value.offset == payload_start + 8 * positions[0]


def test_non_finite_sidecar_fails_corpus_load(tmp_path, small_corpus):
    write_corpus(tmp_path / "c", small_corpus)
    dlg = small_corpus[1]
    agent_turn = dlg.turns[1]
    features = agent_turn.features.copy()
    features[1, 2] = np.nan
    sidecar = tmp_path / "c" / "features" / f"{dlg.id}__t{agent_turn.index:04d}.f64"
    write_feature_sidecar(sidecar, dlg.id, agent_turn.index, features)
    with pytest.raises(CorpusFormatError, match="non-finite") as info:
        load_corpus(tmp_path / "c", "synthetic_json")
    assert info.value.path == str(sidecar)
    assert info.value.offset == sidecar.stat().st_size - features.size * 8 + 8 * (features.shape[1] + 2)


@pytest.mark.parametrize("header_id, header_turn", [("other", 2), (None, 4)])
def test_sidecar_header_must_match_its_file(tmp_path, small_corpus, header_id, header_turn):
    write_corpus(tmp_path / "c", small_corpus)
    dlg = small_corpus[0]
    sidecar = tmp_path / "c" / "features" / f"{dlg.id}__t0002.f64"
    write_feature_sidecar(sidecar, header_id or dlg.id, header_turn, dlg.turns[1].features)
    with pytest.raises(CorpusFormatError, match="sidecar header is for") as info:
        load_corpus(tmp_path / "c", "synthetic_json")
    assert info.value.path == str(sidecar)
    assert info.value.offset == 12


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
    with pytest.raises(CorpusFormatError, match="bad feature sidecar magic"):
        load_corpus(tmp_path / "c", "synthetic_json")


def test_feature_dim_must_agree_across_the_sidecars_read(tmp_path, small_corpus):
    write_corpus(tmp_path / "c", small_corpus)
    dlg = small_corpus[0]
    wide = np.zeros((3, dlg.turns[1].features.shape[1] + 1))
    write_feature_sidecar(tmp_path / "c" / "features" / f"{dlg.id}__t0002.f64", dlg.id, 2, wide)
    assert load_corpus(tmp_path / "c", "synthetic_json", _user_turns)[0].turns[1].features is None
    with pytest.raises(CorpusFormatError, match=r"feature_dim not uniform across corpus: \[8, 9\]"):
        load_corpus(tmp_path / "c", "synthetic_json")


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
    with pytest.raises(CorpusFormatError, match=r"X.log\[0\].tag must be 'user', 'system' or 'agent', got 'robot'"):
        load_corpus(path, "spokenwoz_json")


def test_spokenwoz_repeated_dialogue_id_is_a_format_error(tmp_path):
    # json.load would keep only the second SNG1 entry
    path = tmp_path / "data.json"
    path.write_text(
        '{\n  "SNG1": {"log": [{"text": "first", "tag": "user"}]},\n  "SNG1": {"log": [{"text": "second", "tag": "user"}]}\n}'
    )
    with pytest.raises(CorpusFormatError, match=r"repeated key 'SNG1' \(line 1, column 1\)") as info:
        load_corpus(path, "spokenwoz_json")
    assert info.value.path == str(path)


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
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(path, "spokenwoz_json")
    assert str(info.value).startswith(message)


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
    with pytest.raises(CorpusFormatError, match="speaker alternation violated at turn 2 of dialogue X"):
        load_corpus(path, "spokenwoz_json")


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
