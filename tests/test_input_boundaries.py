"""Boundary fuzz: every JSON input the CLI reads, mutated, fails cleanly.

Each example takes one valid input (the corpus document, a feature sidecar, a
run manifest, a policy file, an id list, an ``--agent-asr`` file or a
prediction file), applies one mutation (drop a key, swap a value's JSON type,
write a key twice, or truncate the bytes) and runs ``run`` or ``evaluate``
on a 3-dialogue corpus. The command must exit 0, 1 or 2, raise nothing but
``SystemExit``, and on a non-zero exit name the file it was given.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dst_lab.cli import main

# one value of each JSON type
_SAMPLES = {int: 1, float: 0.5, str: "x", bool: True, type(None): None, list: [], dict: {}}


class _Repeated(dict):
    """An object written with its first key twice."""


def _encode(value) -> str:
    if isinstance(value, dict):
        items = list(value.items())
        if isinstance(value, _Repeated):
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
    blob = path.read_bytes()
    if data.draw(st.booleans()):
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    size = int.from_bytes(blob[8:12], "little")
    header = _encode(_mutate(data, json.loads(blob[12 : 12 + size]))).encode()
    return blob[:8] + len(header).to_bytes(4, "little") + header + blob[12 + size :]


_TARGETS = ["corpus.json", "sidecar", "manifest.json", "policy.json", "exclude.json", "agent_asr.ndjson", "predictions.ndjson"]


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
            if result.exit_code:
                assert str(work / named) in result.output, result.output
