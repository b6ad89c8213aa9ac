from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from pathlib import Path

from dst_lab.corpus import DialogueState
from dst_lab.metrics import EvalReport, evaluate, references_from_corpus
from dst_lab.postprocess import MatchPolicy
from dst_lab.reporting import (
    MethodComparisonRow,
    NO_DATA_MARKER,
    _no_data_svg,
    render_method_comparison,
    render_report,
    render_retention_table,
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
