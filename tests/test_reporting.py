from __future__ import annotations

import csv
import json
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dst_lab.assembly import EmbeddingPipeline, run_dialogue
from dst_lab.corpus import DialogueState
from dst_lab.metrics import EvalReport, evaluate, references_from_corpus, states_from_records
from dst_lab.neural.pipeline import CompressorConfig, build_connector, build_encoder_stub
from dst_lab.postprocess import MatchPolicy
from dst_lab.reporting import (
    MethodComparisonRow,
    NO_DATA_MARKER,
    _no_data_svg,
    render_method_comparison,
    render_report,
    render_retention_table,
    write_files,
)
from dst_lab.state_codec import (
    SPOKEN_PROMPT_PREFIX,
    PredictionRecord,
    Strategy,
    read_predictions,
    write_predictions,
)

GOLDEN = Path(__file__).parent / "golden"

HEADLINE_TABLE_ROWS = [
    MethodComparisonRow("Multimodal Context (baseline)", 31.85, 32.06),
    MethodComparisonRow("Full Spoken Context", 36.89, 36.29),
    MethodComparisonRow("Compressed Spoken Context (1 query)", 31.03, 30.99),
    MethodComparisonRow("Compressed Spoken Context (10 queries)", 34.26, 33.51),
]


def _empty_report() -> EvalReport:
    return EvalReport(
        jga=0.0,
        jga_post=0.0,
        domain_accuracy=0.0,
        per_turn={},
        group_f1={},
        slot_errors={},
        n_dialogues=0,
        n_turns=0,
        policy=MatchPolicy(),
    )


def _sample_report(small_corpus, taxonomy) -> EvalReport:
    references = references_from_corpus(small_corpus)
    return evaluate(references, references, MatchPolicy(), taxonomy)


def test_method_comparison_golden_bytes():
    rendered = render_method_comparison(HEADLINE_TABLE_ROWS)
    assert rendered.encode() == (GOLDEN / "method_comparison.csv").read_bytes()


def test_render_report_writes_all_formats(tmp_path, small_corpus, taxonomy):
    report = _sample_report(small_corpus, taxonomy)
    written = render_report(report, tmp_path)
    names = {p.name for p in written}
    assert names == {
        "report.json",
        "summary.csv",
        "per_turn.csv",
        "group_f1.csv",
        "slot_errors.csv",
        "per_turn_jga.svg",
        "group_f1.svg",
        "slot_errors.svg",
    }
    assert all(p.stat().st_size > 0 for p in written)


def test_render_report_deterministic(tmp_path, small_corpus, taxonomy):
    report = _sample_report(small_corpus, taxonomy)
    render_report(report, tmp_path / "a")
    render_report(report, tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_render_empty_report_has_markers(tmp_path):
    written = render_report(_empty_report(), tmp_path)
    summary = (tmp_path / "summary.csv").read_text()
    assert NO_DATA_MARKER in summary
    for svg in tmp_path.glob("*.svg"):
        assert "no data" in svg.read_text()
    for name, title in (("group_f1.svg", "Slot value F1 by group"), ("slot_errors.svg", "Most error-prone slots")):
        assert (tmp_path / name).read_text(encoding="utf-8") == _no_data_svg(title)
    report_json = (tmp_path / "report.json").read_text()
    assert '"n_turns": 0' in report_json


def test_svg_is_self_contained(tmp_path, small_corpus, taxonomy):
    render_report(_sample_report(small_corpus, taxonomy), tmp_path)
    for svg in tmp_path.glob("*.svg"):
        text = svg.read_text()
        assert text.startswith("<svg ")
        assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "href" not in text


def test_retention_table_render():
    rows = [(0, 1, 0.5), (0, 8, 0.875)]
    out = render_retention_table(rows)
    assert out.splitlines()[0] == "seed,n_queries,accuracy"
    assert "0,8,0.875" in out
    assert render_retention_table([]) == "seed,n_queries,accuracy\n"


def test_slot_names_with_markup_and_separators_parse_back(tmp_path):
    """Slot names come from model output: the SVG labels are XML-escaped, with
    characters XML cannot hold replaced, and the CSV quotes a name field only
    where it holds a comma, quote or line break."""
    odd = [("hotel", 'a<b&c,"d'), ("ho,tel", "line\nbreak"), ("hotel", "bell\x07")]
    reference = DialogueState(["hotel"], {("hotel", "name"): "alpha lodge"})
    prediction = DialogueState(["hotel", "ho,tel"], {("hotel", "name"): "alpha lodge", **{k: "x" for k in odd}})
    report = evaluate({("d", 1): prediction}, {("d", 1): reference}, MatchPolicy())
    render_report(report, tmp_path)

    labels = [el.text for el in ET.parse(tmp_path / "slot_errors.svg").iter("{http://www.w3.org/2000/svg}text")]
    for domain, slot in odd:
        assert f"{domain}-{slot}".replace("\x07", "\ufffd") in labels

    with open(tmp_path / "slot_errors.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 7 for row in rows)
    assert {(row[0], row[1]) for row in rows[1:]} == {*odd, ("hotel", "name")}
    text = (tmp_path / "slot_errors.csv").read_text(encoding="utf-8")
    assert "\nhotel,name,0,0,0,1,1.0\n" in text


def test_write_files_writes_nothing_when_one_text_cannot_be_encoded(tmp_path):
    out = tmp_path / "new" / "report"
    with pytest.raises(UnicodeEncodeError):
        write_files(out, {"a.csv": "fine\n", "b.csv": "na\ud800me\n", "c.csv": "fine\n"})
    assert not (tmp_path / "new").exists()
    assert write_files(out, {"a.csv": "x\n", "b.csv": "caf\u00e9\r\n"}) == [out / "a.csv", out / "b.csv"]
    assert (out / "b.csv").read_bytes() == "caf\u00e9\r\n".encode("utf-8")


def test_render_report_writes_no_file_for_a_slot_name_it_cannot_encode(tmp_path):
    reference = DialogueState(["hotel"], {("hotel", "name"): "alpha lodge"})
    prediction = DialogueState(["hotel"], {("hotel", "name"): "alpha lodge", ("hotel", "na\ud800me"): "x"})
    report = evaluate({("d", 1): prediction}, {("d", 1): reference}, MatchPolicy())
    (tmp_path / "report").mkdir()
    with pytest.raises(UnicodeEncodeError):
        render_report(report, tmp_path / "report")
    with pytest.raises(UnicodeEncodeError):
        render_report(report, tmp_path / "new")
    assert list(tmp_path.iterdir()) == [tmp_path / "report"]
    assert not list((tmp_path / "report").iterdir())


# text a model may write: separators, markup, C0 controls and lone surrogates
_ODD_TEXT = st.text(
    st.sampled_from(["a", "b", " ", ",", '"', "<", "&", "\x00", "\x07", "\t", "\n", "\r", "\x1f", "\ud800", "\udbff", "\udc00", "\udfff", "\u00e9"]),
    max_size=4,
)


class _DrawnPredictor:
    """Completions in the prompt layout of each strategy, holding drawn domains,
    slot names and values, with surrogates written raw or as escapes, and
    drawn text spliced in at a drawn place."""

    def __init__(self, data):
        self.draw = data.draw

    def predict(self, request) -> str:
        triples = self.draw(st.lists(st.tuples(_ODD_TEXT, _ODD_TEXT, _ODD_TEXT), max_size=3))
        predicted: dict[str, dict[str, str]] = {}
        for domain, slot, value in triples:
            predicted.setdefault(domain, {})[slot] = value
        escaped = self.draw(st.booleans())
        body = json.dumps({"domains": list(predicted), "predicted_state": predicted}, ensure_ascii=escaped)
        if request.strategy is Strategy.MULTIMODAL:
            completion = json.dumps(self.draw(_ODD_TEXT), ensure_ascii=escaped) + ", " + body[1:]
        else:
            completion = body[len(SPOKEN_PROMPT_PREFIX) :]
        at = self.draw(st.integers(0, len(completion)))
        return completion[:at] + self.draw(_ODD_TEXT) + completion[at:]


def _parse_back(out: Path, report: EvalReport) -> None:
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["n_turns"] == report.n_turns
    for name in ("summary.csv", "per_turn.csv", "group_f1.csv", "slot_errors.csv"):
        with open(out / name, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows if row != [NO_DATA_MARKER]), name
    with open(out / "slot_errors.csv", encoding="utf-8", newline="") as fh:
        assert {(row[0], row[1]) for row in list(csv.reader(fh))[1:] if row != [NO_DATA_MARKER]} == set(report.slot_errors)
    for name in ("per_turn_jga.svg", "group_f1.svg", "slot_errors.svg"):
        ET.parse(out / name)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_completion_text_ends_in_parsed_reports_or_a_typed_error_with_no_file(small_corpus, data):
    """run -> evaluate -> render_report over completions holding lone surrogates
    and C0 controls either writes report files that all parse back, or stops
    at a typed error before any report file exists. The predictions that
    ``run`` writes always read back."""
    dialogue = small_corpus[0]
    config = CompressorConfig(d_model=8, n_heads=2, n_queries=2, seed=0)
    embedder = EmbeddingPipeline(build_connector(8, config), build_encoder_stub(8, config))
    strategy = data.draw(st.sampled_from([Strategy.MULTIMODAL, Strategy.FULL_SPOKEN]))
    results = run_dialogue(dialogue, strategy, _DrawnPredictor(data), embedder)
    records = [PredictionRecord(dialogue.id, r.turn_index, r.raw_output, r.parsed_state, r.diagnostics) for r in results]
    with tempfile.TemporaryDirectory() as tmp:
        predictions, out = Path(tmp) / "predictions.ndjson", Path(tmp) / "report"
        write_predictions(predictions, records)
        states = states_from_records(read_predictions(predictions))
        report = evaluate(states, references_from_corpus([dialogue]), MatchPolicy())
        try:
            render_report(report, out)
        except UnicodeEncodeError:
            assert not out.exists()
        else:
            _parse_back(out, report)
