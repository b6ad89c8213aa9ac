"""Byte-identity of run and evaluate outputs, pinned by SHA-256.

A fixed synthetic corpus is run under every context strategy and predictor
that changes what ``run`` writes, and each run is evaluated under the standard
and the exact policy. The digests of ``predictions.ndjson``,
``context_lengths.csv`` and all eight report files are pinned, so a change
that moves one byte of output fails here. ``run_summary.json`` holds the
absolute corpus and output paths, so it is hashed with those two values
replaced by fixed placeholders.

The ``noisy`` and ``truncated`` predictors read only gold states and context
row counts, never feature values, so these digests do not depend on the BLAS
build or the thread count.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from dst_lab.cli import main

REPORT_FILES = (
    "report.json",
    "summary.csv",
    "per_turn.csv",
    "group_f1.csv",
    "slot_errors.csv",
    "per_turn_jga.svg",
    "group_f1.svg",
    "slot_errors.svg",
)

RUNS = {
    "noisy-multimodal": ["--strategy", "multimodal", "--predictor", "noisy"],
    "noisy-full": ["--strategy", "full", "--predictor", "noisy"],
    "noisy-compressed": ["--strategy", "compressed", "--n-queries", "4", "--predictor", "noisy"],
    "noisy-compressed-current": [
        "--strategy", "compressed", "--n-queries", "4", "--compress-current", "--predictor", "noisy",
    ],
    "truncated-full": ["--strategy", "full", "--predictor", "truncated"],
}

POLICIES = ("standard", "exact")

EXPECTED: dict[str, dict[str, str]] = {
    "noisy-compressed": {
        "predictions.ndjson": "6caef3fdb4330a42d415cf162688cacd7dc4be6ce8988ad0972e864cf5c9b3bf",
        "context_lengths.csv": "30b84a07e49383c052f03cd2a0f0ec075bdce59d289cddad3db929a5860a9d6b",
        "run_summary.json": "08ceeea7cf1417afe33eeaa3f42ad74b1712ca435f712a959a4889654acb61f8",
        "standard/report.json": "21bcfaf9d334dae16013cb11d0e0c7e24e0fc335abde5f2e8fc8950019cf6fb8",
        "standard/summary.csv": "aea195803e2200c64c396573f390b5252e75e7224133362e9fdea9601f62f29e",
        "standard/per_turn.csv": "5c3be62dd07f8ec1a2a646ff0ff2f7ee3d329d27d210a224a60c438757e1d4d5",
        "standard/group_f1.csv": "f1a3148290e39122e64b54339df31b27ca2aa34a250c750e8366f01b7ad80595",
        "standard/slot_errors.csv": "14745b7bddbad128fbf16611206aac90fd75e238cada7aed8d72be6576b25c92",
        "standard/per_turn_jga.svg": "c5374e701c5c8a4e15bc0e9b416755c2fc9152b46baf223e3f9754afa2440da5",
        "standard/group_f1.svg": "0352c6ee107618b5e91dd6337b70285926e3f5248bdbf68d25ca746ffb57c54b",
        "standard/slot_errors.svg": "4e15208a0f165692aefdc6be653bdeaffc354dd81fef67b2e2cb0f355a8f7e22",
        "exact/report.json": "93d0ac9db4baeca9f4bddbe42a27921b526258c6cf1dd1628af8e94025c30290",
        "exact/summary.csv": "b8f6a96ab3ac041ee1220ed689d7ad20e24b77d40f3390e5484be80929613983",
        "exact/per_turn.csv": "fc74e3ddc3d0d425a8d828054054f5cad5147e573da3b55b111492dfc8eae88e",
        "exact/group_f1.csv": "f9d38c2bc28880ad17bfee29401855ea1d36aa0f680bb80ec190d45b6d2f98e5",
        "exact/slot_errors.csv": "35b6a92093c4d22cd2035f17841882aad2d4539635bd70cad8888e5cbcab7ada",
        "exact/per_turn_jga.svg": "ff6d6a0592fd65c9a3e14cd29b1570ca1aaf1b588449d081d10b81487b545834",
        "exact/group_f1.svg": "a3c117cfb5dec1f1a566b8598af1de9a2a0e9d8416ec43514a15ab5012992533",
        "exact/slot_errors.svg": "38cb20caa8111cf89b6ab841213318145946cbb9b563676a7a443d75b536d40a",
    },
    "noisy-compressed-current": {
        "predictions.ndjson": "6caef3fdb4330a42d415cf162688cacd7dc4be6ce8988ad0972e864cf5c9b3bf",
        "context_lengths.csv": "8ef5082538df91a54ca48f487abc93e3155b29651a614f92cbaa1b835f0f22ef",
        "run_summary.json": "7ae5d2db85b8038a1eefc0fb55cfa338e01877d6187e8bd4603ad83f19b531a4",
        "standard/report.json": "21bcfaf9d334dae16013cb11d0e0c7e24e0fc335abde5f2e8fc8950019cf6fb8",
        "standard/summary.csv": "aea195803e2200c64c396573f390b5252e75e7224133362e9fdea9601f62f29e",
        "standard/per_turn.csv": "5c3be62dd07f8ec1a2a646ff0ff2f7ee3d329d27d210a224a60c438757e1d4d5",
        "standard/group_f1.csv": "f1a3148290e39122e64b54339df31b27ca2aa34a250c750e8366f01b7ad80595",
        "standard/slot_errors.csv": "14745b7bddbad128fbf16611206aac90fd75e238cada7aed8d72be6576b25c92",
        "standard/per_turn_jga.svg": "c5374e701c5c8a4e15bc0e9b416755c2fc9152b46baf223e3f9754afa2440da5",
        "standard/group_f1.svg": "0352c6ee107618b5e91dd6337b70285926e3f5248bdbf68d25ca746ffb57c54b",
        "standard/slot_errors.svg": "4e15208a0f165692aefdc6be653bdeaffc354dd81fef67b2e2cb0f355a8f7e22",
        "exact/report.json": "93d0ac9db4baeca9f4bddbe42a27921b526258c6cf1dd1628af8e94025c30290",
        "exact/summary.csv": "b8f6a96ab3ac041ee1220ed689d7ad20e24b77d40f3390e5484be80929613983",
        "exact/per_turn.csv": "fc74e3ddc3d0d425a8d828054054f5cad5147e573da3b55b111492dfc8eae88e",
        "exact/group_f1.csv": "f9d38c2bc28880ad17bfee29401855ea1d36aa0f680bb80ec190d45b6d2f98e5",
        "exact/slot_errors.csv": "35b6a92093c4d22cd2035f17841882aad2d4539635bd70cad8888e5cbcab7ada",
        "exact/per_turn_jga.svg": "ff6d6a0592fd65c9a3e14cd29b1570ca1aaf1b588449d081d10b81487b545834",
        "exact/group_f1.svg": "a3c117cfb5dec1f1a566b8598af1de9a2a0e9d8416ec43514a15ab5012992533",
        "exact/slot_errors.svg": "38cb20caa8111cf89b6ab841213318145946cbb9b563676a7a443d75b536d40a",
    },
    "noisy-full": {
        "predictions.ndjson": "6caef3fdb4330a42d415cf162688cacd7dc4be6ce8988ad0972e864cf5c9b3bf",
        "context_lengths.csv": "e04087b5cc32fa1c8e23e11266631403b069ee37ea7a7e379edd8c0bfcd58850",
        "run_summary.json": "0616a697133f8c644f9226f3d8424465cf7ccb0f2051b6a41e25a3dc6a8849d0",
        "standard/report.json": "21bcfaf9d334dae16013cb11d0e0c7e24e0fc335abde5f2e8fc8950019cf6fb8",
        "standard/summary.csv": "aea195803e2200c64c396573f390b5252e75e7224133362e9fdea9601f62f29e",
        "standard/per_turn.csv": "5c3be62dd07f8ec1a2a646ff0ff2f7ee3d329d27d210a224a60c438757e1d4d5",
        "standard/group_f1.csv": "f1a3148290e39122e64b54339df31b27ca2aa34a250c750e8366f01b7ad80595",
        "standard/slot_errors.csv": "14745b7bddbad128fbf16611206aac90fd75e238cada7aed8d72be6576b25c92",
        "standard/per_turn_jga.svg": "c5374e701c5c8a4e15bc0e9b416755c2fc9152b46baf223e3f9754afa2440da5",
        "standard/group_f1.svg": "0352c6ee107618b5e91dd6337b70285926e3f5248bdbf68d25ca746ffb57c54b",
        "standard/slot_errors.svg": "4e15208a0f165692aefdc6be653bdeaffc354dd81fef67b2e2cb0f355a8f7e22",
        "exact/report.json": "93d0ac9db4baeca9f4bddbe42a27921b526258c6cf1dd1628af8e94025c30290",
        "exact/summary.csv": "b8f6a96ab3ac041ee1220ed689d7ad20e24b77d40f3390e5484be80929613983",
        "exact/per_turn.csv": "fc74e3ddc3d0d425a8d828054054f5cad5147e573da3b55b111492dfc8eae88e",
        "exact/group_f1.csv": "f9d38c2bc28880ad17bfee29401855ea1d36aa0f680bb80ec190d45b6d2f98e5",
        "exact/slot_errors.csv": "35b6a92093c4d22cd2035f17841882aad2d4539635bd70cad8888e5cbcab7ada",
        "exact/per_turn_jga.svg": "ff6d6a0592fd65c9a3e14cd29b1570ca1aaf1b588449d081d10b81487b545834",
        "exact/group_f1.svg": "a3c117cfb5dec1f1a566b8598af1de9a2a0e9d8416ec43514a15ab5012992533",
        "exact/slot_errors.svg": "38cb20caa8111cf89b6ab841213318145946cbb9b563676a7a443d75b536d40a",
    },
    "noisy-multimodal": {
        "predictions.ndjson": "caa38fd281e332d7f5b4cb88f490cae6a0ea9ca52258760dc7b28f3353555ab8",
        "context_lengths.csv": "fd7cf64612f087d666b3148a15dcd0e04f1890d3303f2b4d3482a598b1458420",
        "run_summary.json": "f2b8de46dbfaefa078fbc93739280e133e85521dc318d6db753da2ef460c4fcd",
        "standard/report.json": "21bcfaf9d334dae16013cb11d0e0c7e24e0fc335abde5f2e8fc8950019cf6fb8",
        "standard/summary.csv": "aea195803e2200c64c396573f390b5252e75e7224133362e9fdea9601f62f29e",
        "standard/per_turn.csv": "5c3be62dd07f8ec1a2a646ff0ff2f7ee3d329d27d210a224a60c438757e1d4d5",
        "standard/group_f1.csv": "f1a3148290e39122e64b54339df31b27ca2aa34a250c750e8366f01b7ad80595",
        "standard/slot_errors.csv": "14745b7bddbad128fbf16611206aac90fd75e238cada7aed8d72be6576b25c92",
        "standard/per_turn_jga.svg": "c5374e701c5c8a4e15bc0e9b416755c2fc9152b46baf223e3f9754afa2440da5",
        "standard/group_f1.svg": "0352c6ee107618b5e91dd6337b70285926e3f5248bdbf68d25ca746ffb57c54b",
        "standard/slot_errors.svg": "4e15208a0f165692aefdc6be653bdeaffc354dd81fef67b2e2cb0f355a8f7e22",
        "exact/report.json": "93d0ac9db4baeca9f4bddbe42a27921b526258c6cf1dd1628af8e94025c30290",
        "exact/summary.csv": "b8f6a96ab3ac041ee1220ed689d7ad20e24b77d40f3390e5484be80929613983",
        "exact/per_turn.csv": "fc74e3ddc3d0d425a8d828054054f5cad5147e573da3b55b111492dfc8eae88e",
        "exact/group_f1.csv": "f9d38c2bc28880ad17bfee29401855ea1d36aa0f680bb80ec190d45b6d2f98e5",
        "exact/slot_errors.csv": "35b6a92093c4d22cd2035f17841882aad2d4539635bd70cad8888e5cbcab7ada",
        "exact/per_turn_jga.svg": "ff6d6a0592fd65c9a3e14cd29b1570ca1aaf1b588449d081d10b81487b545834",
        "exact/group_f1.svg": "a3c117cfb5dec1f1a566b8598af1de9a2a0e9d8416ec43514a15ab5012992533",
        "exact/slot_errors.svg": "38cb20caa8111cf89b6ab841213318145946cbb9b563676a7a443d75b536d40a",
    },
    "truncated-full": {
        "predictions.ndjson": "220c7f39e8ab9e2a0d5923170892ee2c0138b1da63a909a02d67009178fd861e",
        "context_lengths.csv": "e04087b5cc32fa1c8e23e11266631403b069ee37ea7a7e379edd8c0bfcd58850",
        "run_summary.json": "d396743ee494f7d2aa31af661c0cfde2ca42d1dc3b118e2b5df3eb2f9e8e97e2",
        "standard/report.json": "36d5bf7e8869d442069e6a118f022bfd9a6630be0f47f22484e68d489c8e6c31",
        "standard/summary.csv": "53dc12c9aa43ab133e862e2d3b7451fff9523bc4a327ef1785730ea6641c6dcc",
        "standard/per_turn.csv": "6d16beb7d84da32b12bff42548e7b08405a35ec31735de4d9e75bd5781802e0b",
        "standard/group_f1.csv": "d14c09ab8c0a2e63573421c18a6b104f306472d61a75ca35568ed46c6cab2cce",
        "standard/slot_errors.csv": "9b28b1c055d878e886b046ee61796ca9ffe70dcc2068bbaa77dad22fed8ccec7",
        "standard/per_turn_jga.svg": "844963035ed2a954d2477e78ce2b2bfb931d4cee83c6d04efcbf279b8ba214c4",
        "standard/group_f1.svg": "42d449c7fffada44885acd5803c2adff8e45e0a4f89977d50c33cb214a043e0c",
        "standard/slot_errors.svg": "bf2740e95f1e9d190f24081740adef31c80814b75004c6591641dba655e7b3f3",
        "exact/report.json": "b7b18ec581fd3ec5a190d2ad5726ea54c293fa68359072f4751115bea432fd6d",
        "exact/summary.csv": "53dc12c9aa43ab133e862e2d3b7451fff9523bc4a327ef1785730ea6641c6dcc",
        "exact/per_turn.csv": "6d16beb7d84da32b12bff42548e7b08405a35ec31735de4d9e75bd5781802e0b",
        "exact/group_f1.csv": "d14c09ab8c0a2e63573421c18a6b104f306472d61a75ca35568ed46c6cab2cce",
        "exact/slot_errors.csv": "9b28b1c055d878e886b046ee61796ca9ffe70dcc2068bbaa77dad22fed8ccec7",
        "exact/per_turn_jga.svg": "844963035ed2a954d2477e78ce2b2bfb931d4cee83c6d04efcbf279b8ba214c4",
        "exact/group_f1.svg": "42d449c7fffada44885acd5803c2adff8e45e0a4f89977d50c33cb214a043e0c",
        "exact/slot_errors.svg": "bf2740e95f1e9d190f24081740adef31c80814b75004c6591641dba655e7b3f3",
    },
}


def _invoke(args: list[str]) -> None:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("digests") / "corpus"
    synth = ["synth", "--seed", "7", "--n-dialogues", "6", "--turns-per-dialogue", "9", "--frames-per-token", "2"]
    _invoke([*synth, "--out", str(path)])
    return path


def _summary_sha256(run: Path, corpus: Path) -> str:
    """SHA-256 of ``run_summary.json`` with its ``corpus`` and ``out`` values
    replaced by placeholders."""
    text = (run / "run_summary.json").read_text(encoding="utf-8")
    for path, placeholder in ((corpus, "<corpus>"), (run, "<out>")):
        assert text.count(json.dumps(str(path))) == 1
        text = text.replace(json.dumps(str(path)), json.dumps(placeholder))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(corpus: Path, out: Path, run_args: list[str]) -> dict[str, str]:
    """``run`` then ``evaluate`` under each policy; file name -> SHA-256 of its bytes."""
    run = out / "run"
    _invoke(["run", "--corpus", str(corpus), *run_args, "--out", str(run)])
    digests = {name: _sha256(run / name) for name in ("predictions.ndjson", "context_lengths.csv")}
    digests["run_summary.json"] = _summary_sha256(run, corpus)
    for policy in POLICIES:
        report = out / policy
        _invoke(
            [
                "evaluate", "--predictions", str(run / "predictions.ndjson"), "--corpus", str(corpus),
                "--policy", policy, "--out", str(report),
            ]
        )
        digests.update({f"{policy}/{name}": _sha256(report / name) for name in REPORT_FILES})
    return digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_and_evaluate_outputs_are_byte_identical(corpus, tmp_path, name):
    assert output_digests(corpus, tmp_path, RUNS[name]) == EXPECTED[name]
