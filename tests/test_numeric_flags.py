"""Every command's numeric flags, set to edge values, fail cleanly or write finite floats.

Each example runs one command in-process on small sizes (at most 4 dialogues,
4 turns and 3 epochs, and ``--workers`` 1 or 2), with some of its numeric flags,
or for ``run`` its manifest fields and for ``evaluate`` its policy file, drawn
from a pool of edge values, and numpy's ``RuntimeWarning`` an error. The
command must exit 0, 1 or 2 and raise nothing but ``SystemExit``. A failure
prints exactly one ``Error:`` line (after click's usage lines for exit 2);
``gradcheck``'s exit 1 is its FAIL report instead. On exit 0, every float the
command writes is finite, and a corpus it writes loads.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dst_lab import workers
from dst_lab.cli import main
from dst_lab.corpus import load_corpus

POOL = [0, -1, 5e-324, 1e-300, 1e154, 1e300, math.nan, math.inf, 2**63]
# each command's numeric flags; for run also its manifest fields, and for evaluate its policy file's
NUMERIC = {
    "synth": ["--seed", "--feature-dim", "--slots-per-dialogue", "--noise-sigma", "--mentions-per-turn", "--frames-per-token"],
    "probe": ["--n-queries", "--feature-dim", "--noise-sigma", "--slots-per-dialogue", "--lr", "--seeds"],
    "run": [
        "--seed", "--n-queries", "--budget-rows", "seed", "n_queries", "d_model", "n_heads", "n_layers", "stride",
        "drop_prob", "typo_prob", "insert_prob", "time_reformat_prob", "budget_rows",
    ],
    "evaluate": ["--top-k-errors", "fuzzy_threshold"],
    "gradcheck": ["--eps", "--threshold"],
}
# a word that only a non-finite float prints as, in text that is not JSON
_NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|inf)(?![A-Za-z])", re.IGNORECASE)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 4-dialogue, 4-turn corpus and its predictions."""
    base = tmp_path_factory.mktemp("numeric")
    runner = CliRunner()
    synth = ["synth", "--seed", "3", "--n-dialogues", "4", "--turns-per-dialogue", "4", "--feature-dim", "4"]
    assert runner.invoke(main, synth + ["--out", str(base / "corpus")]).exit_code == 0
    run = ["run", "--corpus", str(base / "corpus"), "--strategy", "full", "--out", str(base / "run")]
    assert runner.invoke(main, run).exit_code == 0
    return base


def _values(data, command: str, name: str) -> tuple[list[str], dict]:
    """``name`` and up to two more of ``command``'s numeric settings, each with a
    value from the pool: as command-line arguments, and as file fields."""
    others = data.draw(st.lists(st.sampled_from(NUMERIC[command]), unique=True, max_size=2))
    args, fields = [], {}
    for setting in dict.fromkeys([name, *others]):
        value = data.draw(st.sampled_from(POOL))
        if setting.startswith("--"):
            args += [setting, str(value)]
        else:
            fields[setting] = value
    return args, fields


def _sizes(data, ranges: dict[str, tuple[int, int]]) -> list[str]:
    """Each size flag with a value drawn from its range."""
    return [arg for name, (low, high) in ranges.items() for arg in (name, str(data.draw(st.integers(low, high))))]


def _command(data, command: str, name: str, base: Path, work: Path) -> tuple[list[str], Path | None]:
    """The arguments of one drawn call of ``command`` that sets ``name``, and where it writes."""
    args, fields = _values(data, command, name)
    if command == "synth":
        sizes = _sizes(data, {"--n-dialogues": (1, 4), "--turns-per-dialogue": (1, 4)})
        return ["synth", *sizes, *args, "--out", str(work / "corpus")], work / "corpus"
    if command == "probe":
        sizes = _sizes(data, {"--n-dialogues": (2, 4), "--turns-per-dialogue": (1, 4), "--epochs": (0, 3)})
        return ["probe", "--n-queries", "1", "--seeds", "0", *sizes, *args, "--out", str(work / "probe.csv")], work / "probe.csv"
    if command == "gradcheck":
        return ["gradcheck", *args], None
    if command == "evaluate":
        args = ["evaluate", "--predictions", str(base / "run" / "predictions.ndjson"), "--corpus", str(base / "corpus"), *args]
        if fields:
            (work / "policy.json").write_text(json.dumps(fields))
            args += ["--policy", str(work / "policy.json")]
        return args + ["--out", str(work / "report")], work / "report"
    strategy = data.draw(st.sampled_from(["multimodal", "full", "compressed"]))
    predictor = data.draw(st.sampled_from(["exact", "noisy", "truncated"]))
    manifest = {"corpus": str(base / "corpus"), "strategy": strategy, "predictor": predictor, **fields}
    manifest["workers"] = data.draw(st.sampled_from([1, 2]))
    (work / "manifest.json").write_text(json.dumps(manifest))
    return ["run", "--manifest", str(work / "manifest.json"), *args, "--out", str(work / "run")], work / "run"


def _no_non_finite_json(value) -> None:
    if isinstance(value, float):
        assert math.isfinite(value), value
    for member in value.values() if isinstance(value, dict) else value if isinstance(value, list) else ():
        _no_non_finite_json(member)


def _check_written(stdout: str, out: Path | None) -> None:
    """Every float in ``stdout`` and in what was written at ``out`` is finite."""
    assert not _NON_FINITE.search(stdout), stdout
    paths = [] if out is None else [out] if out.is_file() else sorted(p for p in out.rglob("*") if p.is_file())
    for path in paths:
        if path.suffix == ".f64":
            continue  # read below, by the reader that bounds every value
        text = path.read_text(encoding="utf-8")
        if path.suffix in (".json", ".ndjson"):
            for line in text.splitlines() if path.suffix == ".ndjson" else [text]:
                _no_non_finite_json(json.loads(line, parse_constant=lambda name: pytest.fail(f"{path}: {name}")))
        else:
            assert not _NON_FINITE.search(text), path
    if out is not None and (out / "corpus.json").exists():
        load_corpus(out, "synthetic_json")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, name", [(command, name) for command, names in NUMERIC.items() for name in names])
@settings(max_examples=20, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_numeric_flag_fails_cleanly_or_writes_finite_floats(inputs, monkeypatch, command, name, data):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)  # --workers 2 starts a worker on any host
    runner = CliRunner(env={"DST_LAB_LOG": "ERROR"})
    with runner.isolated_filesystem(temp_dir=inputs) as work:
        args, out = _command(data, command, name, inputs, Path(work))
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 1, 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
        summary = Path(work) / "run" / "run_summary.json"
        assert not summary.exists() or "Warning" not in summary.read_text()  # no warning became a failure
        if result.exit_code == 0:
            _check_written(result.stdout, out)
        elif command == "gradcheck" and result.exit_code == 1:
            assert result.stderr == "" and "FAIL" in result.stdout
        else:
            errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
            assert len(errors) == 1 and result.stderr.endswith(errors[0] + "\n"), result.stderr
            if result.exit_code == 1:
                assert result.stderr == errors[0] + "\n", result.stderr
