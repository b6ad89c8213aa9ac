"""Serialization and parsing of dialogue states, and prompt and completion text.

The canonical state encoding is a compact JSON object with a "domains" array
and a "predicted_state" object. Parsing is deliberately forgiving: model-like
output may be truncated mid-string or carry trailing commas, and evaluation
must degrade to an empty state rather than crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from .corpus import DialogueState, Speaker, read_state
from .jsonio import JsonInputError, check, get, read_lines


class Strategy(str, Enum):
    MULTIMODAL = "multimodal"
    FULL_SPOKEN = "full_spoken"
    COMPRESSED_SPOKEN = "compressed_spoken"


class ParseFailure(ValueError):
    """Unrecoverable prediction text. Carries the raw output for diagnostics."""

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


# --------------------------------------------------------------------------
# State serialization
# --------------------------------------------------------------------------


def serialize_state(state: DialogueState) -> str:
    """Canonical byte-stable encoding of a dialogue state.

    Domains keep insertion order; slot names are sorted within each domain;
    all keys and values are emitted lower-case; separators are compact.
    """
    nested = state.to_nested()
    doc = {
        "domains": [d.lower() for d in state.domains],
        "predicted_state": {
            domain.lower(): {slot.lower(): value.lower() for slot, value in slot_map.items()}
            for domain, slot_map in nested.items()
        },
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)


def _extract_json_object(text: str) -> tuple[str, list[str]]:
    """Outermost {...} span without trailing commas, closed if the text ends
    mid-object. One scan tracks strings and depth and drops each comma that
    directly precedes a closing brace or bracket outside a string."""
    start = text.find("{")
    if start < 0:
        raise ParseFailure("no JSON object found", text)
    diagnostics: list[str] = []
    out: list[str] = []
    depth = 0
    in_string = False
    escaped = False
    stripped = False
    for ch in text[start:]:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch in "}]":
            j = len(out) - 1
            while j >= 0 and out[j] in " \t\r\n":
                j -= 1
            if j >= 0 and out[j] == ",":
                del out[j]
                stripped = True
            if ch == "}":
                depth -= 1
                if depth == 0:
                    out.append(ch)
                    break
        out.append(ch)
    fragment = "".join(out)
    if depth:  # the text ended inside the object
        fragment = fragment.rstrip()
        if in_string:
            fragment += '"'
            diagnostics.append("repaired: unterminated string")
        elif fragment.endswith(","):
            fragment = fragment[:-1].rstrip()
            diagnostics.append("repaired: trailing comma at end of output")
        # the first closing brace appended below drops one more trailing comma
        if fragment.endswith(","):
            fragment = fragment[:-1]
            stripped = True
        # The repairs above touch no brace outside a string, so the scan's depth
        # (at least 1 here) is still the number of unclosed objects.
        fragment += "}" * depth
        diagnostics.append(f"repaired: closed {depth} unterminated object(s)")
    if stripped:
        diagnostics.append("repaired: trailing comma")
    return fragment, diagnostics


def _decode_repaired(text: str) -> tuple[object, list[str]]:
    """The first JSON object in ``text`` after repairs, with their diagnostics."""
    fragment, diagnostics = _extract_json_object(text)
    try:
        return json.loads(fragment), diagnostics
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"unparseable output: {exc.msg}", text) from exc
    except RecursionError as exc:
        raise ParseFailure("unparseable output: nesting too deep", text) from exc


_DECODER = json.JSONDecoder()


def _decode(text: str) -> tuple[object, list[str]]:
    """Same result as ``_decode_repaired``, without its scans when the object
    starting at the first brace is valid JSON: valid JSON has no trailing
    commas and no unclosed braces or strings, so it needs no repair."""
    start = text.find("{")
    if start >= 0:
        try:
            return _DECODER.raw_decode(text, start)[0], []
        except (json.JSONDecodeError, RecursionError):
            pass
    return _decode_repaired(text)


def parse_state(text: str) -> tuple[DialogueState, list[str]]:
    """Best-effort extraction of a DialogueState from model-like output.

    Returns the state and a list of repair diagnostics. Raises
    :class:`ParseFailure` when no usable JSON object can be recovered.
    """
    doc, diagnostics = _decode(text)
    if not isinstance(doc, dict):
        raise ParseFailure("top-level JSON value is not an object", text)

    doc = {str(k).lower(): v for k, v in doc.items()}
    raw_domains = doc.get("domains", [])
    if not isinstance(raw_domains, list):
        diagnostics.append("ignored: non-list domains field")
        raw_domains = []
    domains = [str(d).lower() for d in raw_domains]

    predicted = doc.get("predicted_state", {})
    if not isinstance(predicted, Mapping):
        diagnostics.append("ignored: non-object predicted_state field")
        predicted = {}
    slots: dict[tuple[str, str], str] = {}
    for domain, slot_map in predicted.items():
        domain_l = str(domain).lower()
        if not isinstance(slot_map, Mapping):
            diagnostics.append(f"ignored: non-object slot map for domain {domain_l!r}")
            continue
        if domain_l not in domains:
            domains.append(domain_l)
            diagnostics.append(f"repaired: domain {domain_l!r} missing from domains list")
        for slot, value in slot_map.items():
            slots[(domain_l, str(slot).lower())] = str(value)
    return DialogueState(domains, slots), diagnostics


def extract_user_last_turn(text: str) -> str | None:
    """The "user_last_turn" string from a multimodal completion, if present."""
    try:
        doc, _ = _decode(text)
    except ParseFailure:
        return None
    if isinstance(doc, dict):
        value = doc.get("user_last_turn")
        if isinstance(value, str):
            return value
    return None


# --------------------------------------------------------------------------
# Prompt construction
# --------------------------------------------------------------------------

# Frozen layout constants; golden tests pin the exact bytes.
HISTORY_TURN_SEPARATOR = " ; "
MULTIMODAL_PROMPT_PREFIX = '{ "history": '
MULTIMODAL_PROMPT_INFIX = ', "user_last_turn": '
SPOKEN_PROMPT_PREFIX = '{"domains": '


def extend_history(history: str, speaker: Speaker, text: str) -> str:
    """``history`` with one more turn: "USER: {text} ; AGENT: {text} ; ..."."""
    entry = f"{speaker.value}: {text}"
    return f"{history}{HISTORY_TURN_SEPARATOR}{entry}" if history else entry


def build_prompt(strategy: Strategy, history: str = "") -> str:
    """Prompt text for one user turn.

    A multimodal prompt carries ``history``, the prior turns as
    ``extend_history`` renders them (empty before the first turn), as a JSON
    string. Spoken prompts carry no transcripts; their turns reach the model
    only as speech.
    """
    if strategy is Strategy.MULTIMODAL:
        return MULTIMODAL_PROMPT_PREFIX + json.dumps(history, ensure_ascii=True) + MULTIMODAL_PROMPT_INFIX
    return SPOKEN_PROMPT_PREFIX


def render_completion(strategy: Strategy, state: DialogueState, user_last_turn: str | None = None) -> str:
    """Completion text matching each prompt layout's generated fields."""
    serialized = serialize_state(state)
    if strategy is Strategy.MULTIMODAL:
        body = serialized[1:-1]  # inner fields of the canonical object
        return json.dumps(user_last_turn or "", ensure_ascii=True) + ", " + body + " }"
    assert serialized.startswith('{"domains":')
    return serialized[len(SPOKEN_PROMPT_PREFIX) - 1 :]


# --------------------------------------------------------------------------
# Prediction files (newline-delimited JSON)
# --------------------------------------------------------------------------


@dataclass
class PredictionRecord:
    """One evaluated turn: raw model output plus its parsed state, if any."""

    dialogue_id: str
    turn_index: int
    raw_output: str
    parsed_state: DialogueState | None = None
    diagnostics: list[str] = field(default_factory=list)

    def to_json_line(self) -> str:
        obj: dict = {
            "dialogue_id": self.dialogue_id,
            "turn_index": self.turn_index,
            "raw_output": self.raw_output,
        }
        if self.parsed_state is None:
            obj["parsed_state"] = None
        else:
            obj["parsed_state"] = {
                "domains": self.parsed_state.domains,
                "slots": self.parsed_state.to_nested(),
            }
        if self.diagnostics:
            obj["diagnostics"] = self.diagnostics
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def _record(obj: object) -> PredictionRecord:
    """Inverse of ``PredictionRecord.to_json_line`` on the decoded line."""
    parsed = check(obj, dict).get("parsed_state")
    return PredictionRecord(
        dialogue_id=get(obj, "dialogue_id", str),
        turn_index=get(obj, "turn_index", int),
        raw_output=get(obj, "raw_output", str, default=""),
        parsed_state=None if parsed is None else read_state(parsed, ("parsed_state",)),
        diagnostics=get(obj, "diagnostics", list[str], default=[]),
    )


def write_predictions(path, records: Iterable[PredictionRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json_line())
            fh.write("\n")


class PredictionFileError(ValueError):
    """A prediction NDJSON line that is not a valid record; names ``path:line[:column]``."""

    def __init__(self, path, line: int | str, reason: str):
        super().__init__(f"{path}:{line}: {reason}")


def read_predictions(path) -> list[PredictionRecord]:
    """Every record of a prediction NDJSON file; at most one per (dialogue, turn)."""
    records = []
    first_line: dict[tuple[str, int], int] = {}
    try:
        for line_no, record in read_lines(path, _record):
            key = (record.dialogue_id, record.turn_index)
            if key in first_line:
                reason = f"duplicate record for dialogue {key[0]!r} turn {key[1]}, first on line {first_line[key]}"
                raise PredictionFileError(path, line_no, reason)
            first_line[key] = line_no
            records.append(record)
    except JsonInputError as exc:
        raise PredictionFileError(path, f"{exc.line}:{exc.column}", str(exc)) from exc
    return records
