"""Boundary fuzz: every JSON input the CLI reads, mutated, fails cleanly.

Each example takes one valid input (the corpus document, a feature sidecar, a
run manifest, a policy file, an id list, an ``--agent-asr`` file or a
prediction file), applies one mutation (drop a key, swap a value's JSON type,
write a key twice, set a sidecar value to +-1e300, or truncate the bytes) and
runs ``run`` or ``evaluate`` on a 3-dialogue corpus, with numpy's
``RuntimeWarning`` an error. The command must exit 0, 1 or 2, raise nothing
but ``SystemExit``, record no warning as a dialogue's failure, and on a
non-zero exit name the file it was given.

The same mutations check each record kind's reader against its
field-by-field oracle: both return the same value or raise the same error.
"""

from __future__ import annotations

import copy
import dataclasses
import errno
import io
import json
import os
import shutil
import struct
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dst_lab import corpus, jsonio, state_codec
from dst_lab.cli import main

import oracles

# one value of each JSON type
_SAMPLES = {int: 1, float: 0.5, str: "x", bool: True, type(None): None, list: [], dict: {}}


class _Repeated(dict):
    """An object written with its first key twice."""


def _encode(value) -> str:
    if isinstance(value, dict):
        items = list(value.items())
        if isinstance(value, _Repeated) and items:  # a later mutation may drop its keys
            items.insert(0, items[0])
        return "{" + ", ".join(f"{json.dumps(key)}: {_encode(item)}" for key, item in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_encode, value)) + "]"
    return json.dumps(value)


def _nodes(value, path=()):
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace(root, path, new):
    if not path:
        return new
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return root


def _mutate(data, value):
    """``value`` with one dropped key, one value of another JSON type or one
    key written twice; returns the mutated value."""
    value = copy.deepcopy(value)
    kind = data.draw(st.sampled_from(["drop", "swap", "repeat"]))
    objects = [(path, node) for path, node in _nodes(value) if isinstance(node, dict) and node]
    if kind == "swap" or not objects:
        path, node = data.draw(st.sampled_from(list(_nodes(value))))
        new = data.draw(st.sampled_from([sample for t, sample in _SAMPLES.items() if t is not type(node)]))
        return _replace(value, path, copy.deepcopy(new))
    path, node = data.draw(st.sampled_from(objects))
    if kind == "drop":
        del node[data.draw(st.sampled_from(list(node)))]
        return value
    return _replace(value, path, _Repeated(node))


def _mutated_bytes(data, value, lines: bool) -> bytes:
    """The bytes of ``value`` (a JSON document, or a list of NDJSON records
    with ``lines``) after one mutation of one record, or truncated."""
    if data.draw(st.booleans()):
        raw = _encode_all(value, lines)
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if lines:
        value = list(value)
        i = data.draw(st.integers(0, len(value) - 1))
        value[i] = _mutate(data, value[i])
        return _encode_all(value, lines)
    return _encode_all(_mutate(data, value), lines)


def _encode_all(value, lines: bool) -> bytes:
    return ("".join(_encode(record) + "\n" for record in value) if lines else _encode(value)).encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs: a 3-dialogue corpus, its predictions and one of each option file."""
    base = tmp_path_factory.mktemp("inputs")
    runner = CliRunner()
    synth = ["synth", "--seed", "3", "--n-dialogues", "3", "--turns-per-dialogue", "4", "--feature-dim", "4"]
    assert runner.invoke(main, synth + ["--out", str(base / "corpus")]).exit_code == 0
    run = ["run", "--corpus", str(base / "corpus"), "--strategy", "multimodal", "--out", str(base / "run")]
    assert runner.invoke(main, run).exit_code == 0
    doc = json.loads((base / "corpus" / "corpus.json").read_text())
    ids = [dialogue["id"] for dialogue in doc["dialogues"]]
    predictions = (base / "run" / "predictions.ndjson").read_text().splitlines()
    return {
        "base": base,
        "corpus.json": doc,
        "predictions.ndjson": [json.loads(line) for line in predictions],
        "manifest.json": {"corpus": "corpus", "strategy": "full", "predictor": "noisy", "seed": 2, "workers": 1,
                          "drop_prob": 0.5, "exclude_ids": [ids[0]], "compress_current": False, "out": "out"},
        "policy.json": {"fuzzy_threshold": 0.8, "fuzzy_groups": ["open"], "time_canonicalization": False},
        "exclude.json": {"ids": [ids[1]]},
        "agent_asr.ndjson": [{"dialogue_id": ids[0], "turn_index": 2, "text": "two nights"},
                             {"dialogue_id": ids[2], "turn_index": 4, "text": "done"}],
        "sidecar": f"{ids[1]}__t0001.f64",
    }


# each mutated input: the file's path in the working directory and the
# commands that read it
def _commands(target: str) -> tuple[str, list[list[str]]]:
    run = ["run", "--corpus", "corpus", "--strategy", "multimodal", "--out", "out"]
    evaluate = ["evaluate", "--corpus", "corpus", "--predictions", "predictions.ndjson"]
    return {
        "corpus.json": ("corpus/corpus.json", [run, evaluate]),
        "sidecar": (None, [run]),
        "manifest.json": ("manifest.json", [["run", "--manifest", "manifest.json"]]),
        "policy.json": ("policy.json", [evaluate + ["--policy", "policy.json"]]),
        "exclude.json": ("exclude.json", [run + ["--exclude-ids", "exclude.json"], evaluate + ["--exclude-ids", "exclude.json"]]),
        "agent_asr.ndjson": ("agent_asr.ndjson", [run + ["--agent-asr", "agent_asr.ndjson"]]),
        "predictions.ndjson": ("predictions.ndjson", [evaluate]),
    }[target]


def _mutated_sidecar(data, path: Path) -> bytes:
    """The sidecar's bytes truncated, with one mutation of its JSON header, or
    with one payload value set to +-1e300, finite but above the bound that the
    reader keeps so that the forwards which embed a value cannot overflow."""
    blob = path.read_bytes()
    kind = data.draw(st.sampled_from(["truncate", "header", "payload"]))
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    size = int.from_bytes(blob[8:12], "little")
    if kind == "payload":
        at = 12 + size + 8 * data.draw(st.integers(0, (len(blob) - 12 - size) // 8 - 1))
        return blob[:at] + struct.pack("<d", data.draw(st.sampled_from([1e300, -1e300]))) + blob[at + 8 :]
    header = _encode(_mutate(data, json.loads(blob[12 : 12 + size]))).encode()
    return blob[:8] + len(header).to_bytes(4, "little") + header + blob[12 + size :]


_TARGETS = ["corpus.json", "sidecar", "manifest.json", "policy.json", "exclude.json", "agent_asr.ndjson", "predictions.ndjson"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target", _TARGETS)
@settings(max_examples=30, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_input_fails_cleanly_naming_its_file(inputs, target, data):
    name, commands = _commands(target)
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=inputs["base"]) as work:
        work = Path(work)
        shutil.copytree(inputs["base"] / "corpus", work / "corpus")
        shutil.copy(inputs["base"] / "run" / "predictions.ndjson", work / "predictions.ndjson")
        for key in ("manifest.json", "policy.json", "exclude.json", "agent_asr.ndjson"):
            (work / key).write_bytes(_encode_all(inputs[key], key.endswith(".ndjson")))
        if target == "sidecar":
            name = f"corpus/features/{inputs['sidecar']}"
            (work / name).write_bytes(_mutated_sidecar(data, work / name))
        else:
            (work / name).write_bytes(_mutated_bytes(data, inputs[target], target.endswith(".ndjson")))
        # the commands name the corpus by its directory
        named = "corpus" if target == "corpus.json" else name
        for command in commands:
            result = runner.invoke(main, [str(work / arg) if Path(arg).suffix or arg in ("corpus", "out") else arg for arg in command])
            assert result.exit_code in (0, 1, 2), result.output
            assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
            # a numpy warning, raised as an error, would be a dialogue's failure
            summary = work / "out" / "run_summary.json"
            assert not summary.exists() or "RuntimeWarning" not in summary.read_text()
            if result.exit_code:
                assert str(work / named) in result.output, result.output


@pytest.mark.parametrize(
    "text, message, column",
    [
        (r'"\ud800"', "the top-level value holds a lone surrogate, got '\\ud800'", 1),
        (r'{"a": [1, {"b": "x\uDFFF"}]}', "a[1].b holds a lone surrogate, got 'x\\udfff'", 11),
        (r'{"a": 1, "k\udbff": 2}', "the top-level value has a key that holds a lone surrogate, got 'k\\udbff'", 1),
        (r'["\ud83d\ude00", "\ude00\ud83d"]', "[1] holds a lone surrogate, got '\\ude00\\ud83d'", 1),
    ],
)
def test_a_json_string_with_a_lone_surrogate_is_a_located_error(text, message, column):
    with pytest.raises(jsonio.JsonInputError) as info:
        jsonio.parse(text.encode(), lambda value: value)
    assert (str(info.value), info.value.line, info.value.column) == (message, 1, column)


@pytest.mark.parametrize(
    "text, constant, column",
    [
        ("[NaN]", "NaN", 2),
        ('{"a": "NaN, Infinity", "b": [1, -Infinity]}', "-Infinity", 33),
        ('{"Infinity\\"": 0.5,\n "c": Infinity}', "Infinity", 7),
        ("[1" + "0" * 5000 + ", NaN]", None, 2),
    ],
)
def test_nan_and_infinity_are_malformed_json_at_the_constant(text, constant, column):
    with pytest.raises(jsonio.JsonInputError) as info:
        jsonio.parse(text.encode(), lambda value: value)
    message = f"{constant} is not JSON" if constant else "integer longer than"
    assert str(info.value).startswith(f"malformed JSON: {message}")
    assert (info.value.line, info.value.column) == (text.count("\n") + 1, column)


@pytest.mark.parametrize(
    "text, number, column",
    [
        ("[1e400, -1e400]", "1e400", 2),
        ('{"a": "1e400", "b": [0.5, -1.5E+999]}', "-1.5E+999", 27),
        ('{"k\\"": 1e308,\n "c": 2e308}', "2e308", 7),
        ("[1" + "0" * 400 + ".5]", "100000000000...0000000000.5", 2),
    ],
)
def test_a_number_too_large_for_a_float_is_malformed_json_at_the_number(text, number, column):
    with pytest.raises(jsonio.JsonInputError) as info:
        jsonio.parse(text.encode(), lambda value: value)
    assert str(info.value) == f"malformed JSON: {number} is out of range"
    assert (info.value.line, info.value.column) == (text.count("\n") + 1, column)


def test_a_float_that_underflows_or_is_the_largest_stays_valid():
    assert jsonio.parse(b"[1e-400, -1e-400, 1.7976931348623157e308]", lambda value: value) == [
        0.0, -0.0, 1.7976931348623157e308
    ]


def test_an_escaped_surrogate_pair_or_backslash_is_no_lone_surrogate():
    assert jsonio.parse(rb'["\ud83d\ude00", "\\ud800"]', lambda value: value) == ["\U0001f600", "\\ud800"]


class _FailingFile(io.BytesIO):
    """A file whose reads fail as a device error does: with no file name."""

    def read(self, *args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    def __iter__(self):
        return self

    def __next__(self):
        return self.read()


@pytest.mark.parametrize("reader", [jsonio.read_document, jsonio.read_lines])
def test_a_file_that_fails_while_read_is_named_in_the_error(monkeypatch, tmp_path, reader):
    monkeypatch.setattr(jsonio, "open", lambda path, mode: _FailingFile(), raising=False)
    with pytest.raises(OSError) as info:
        list(reader(tmp_path / "input.json", lambda value: value))
    assert (info.value.filename, info.value.strerror) == (tmp_path / "input.json", os.strerror(errno.EIO))


# other values of a JSON type that the type swaps above cannot reach: turn
# indices, speaker tags, gold-state keys and format versions out of place
_RESPELLINGS = {int: [0, -1, 2, 3, 10**20], str: ["", "USER", "AGENT", "1", "2", "01", "x"]}


def _respell(data, value):
    """``value`` with one integer or string, or one object key, replaced by
    another of its kind; returns the changed value."""
    value = copy.deepcopy(value)
    leaves = [(path, node) for path, node in _nodes(value) if type(node) in _RESPELLINGS]
    objects = [(path, node) for path, node in _nodes(value) if isinstance(node, dict) and node]
    if objects and (not leaves or data.draw(st.booleans())):
        path, node = data.draw(st.sampled_from(objects))
        old, new = data.draw(st.sampled_from(list(node))), data.draw(st.sampled_from(_RESPELLINGS[str]))
        return _replace(value, path, {new if key == old else key: item for key, item in node.items()})
    path, node = data.draw(st.sampled_from(leaves))
    return _replace(value, path, data.draw(st.sampled_from(_RESPELLINGS[type(node)])))


def _valid_records(inputs) -> dict[str, list]:
    """Valid values of each record kind, taken from the module's inputs."""
    dialogues = inputs["corpus.json"]["dialogues"]
    records = inputs["predictions.ndjson"]
    return {
        "dialogue": dialogues,
        "state": [s for d in dialogues for s in d["gold_states"].values()] + [r["parsed_state"] for r in records],
        "record": records,
    }


# each record kind: (reader, its field-by-field oracle), at a path as the files place them
_READERS = {
    "dialogue": (
        lambda value: corpus._synthetic_dialogue(value, ("dialogues", 2)),
        lambda value: oracles._synthetic_dialogue(value, ("dialogues", 2)),
    ),
    "state": (
        lambda value: corpus.read_state(value, ("parsed_state",)),
        lambda value: oracles.read_state(value, ("parsed_state",)),
    ),
    "record": (state_codec._record, oracles._record),
}


def _outcome(raw: bytes, read):
    """Every field of what ``read`` of ``raw`` returns, domain order included
    (which ``DialogueState.__eq__`` ignores), or every part of its error."""
    try:
        return dataclasses.astuple(jsonio.parse(raw, read))
    except jsonio.JsonInputError as exc:
        return type(exc), str(exc), exc.where, exc.pos, exc.line, exc.column


@pytest.mark.parametrize("kind", list(_READERS))
@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_reader_returns_or_raises_what_its_oracle_does(inputs, kind, data):
    read, oracle = _READERS[kind]
    value = data.draw(st.sampled_from(_valid_records(inputs)[kind]))
    raw = _encode(value).encode()
    assert _outcome(raw, read) == _outcome(raw, oracle)
    # two faults tell whether the reader checks them in its oracle's order
    for _ in range(data.draw(st.integers(1, 2))):
        value = data.draw(st.sampled_from([_mutate, _respell]))(data, value)
    raw = _encode(value).encode()
    assert _outcome(raw, read) == _outcome(raw, oracle)
