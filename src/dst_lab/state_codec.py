"""Serialization and parsing of dialogue states, and prompt and completion text.

The canonical state encoding is a compact JSON object with a "domains" array
and a "predicted_state" object. Parsing is deliberately forgiving: model-like
output may be truncated mid-string or carry trailing commas, and evaluation
must degrade to an empty state rather than crash.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii  # what ``json.dumps(str)`` calls
from typing import Iterable, Mapping

from . import jsonio
from .corpus import DialogueState, Speaker, read_state
from .jsonio import SURROGATE, SURROGATE_ESCAPE, JsonInputError, all_strings, check, get


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

# The compact ASCII encoder of every JSON document this module writes, made
# once: ``json.dumps`` with a non-default setting builds a new encoder per call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


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
    return _COMPACT.encode(doc)


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
    except ValueError as exc:  # an integer with more digits than int() converts
        raise ParseFailure(f"unparseable output: integer longer than {sys.get_int_max_str_digits()} digits", text) from exc


_DECODER = json.JSONDecoder()


def _decode(text: str) -> tuple[object, list[str]]:
    """Same result as ``_decode_repaired``, without its scans when the object
    starting at the first brace is valid JSON: valid JSON has no trailing
    commas and no unclosed braces or strings, so it needs no repair."""
    start = text.find("{")
    if start >= 0:
        try:
            return _DECODER.raw_decode(text, start)[0], []
        except (ValueError, RecursionError):
            pass
    return _decode_repaired(text)


def parse_state(text: str) -> tuple[DialogueState, list[str]]:
    """Best-effort extraction of a DialogueState from model-like output.

    Returns the state and a list of repair diagnostics. Raises
    :class:`ParseFailure` when no usable JSON object can be recovered. A lone
    surrogate that an escape decodes to becomes U+FFFD, so every name and
    value of the state can be written as UTF-8.
    """
    doc, diagnostics = _decode(text)
    if not isinstance(doc, dict):
        raise ParseFailure("top-level JSON value is not an object", text)

    doc = {str(k).lower(): v for k, v in doc.items()}
    if SURROGATE_ESCAPE.search(text):
        read = {key: doc[key] for key in ("domains", "predicted_state") if key in doc}
        encoded, count = SURROGATE.subn("\ufffd", json.dumps(read, ensure_ascii=False))
        if count:
            doc = json.loads(encoded)
            diagnostics.append(f"repaired: {count} lone surrogate(s) replaced by U+FFFD")
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
        return MULTIMODAL_PROMPT_PREFIX + encode_basestring_ascii(history) + MULTIMODAL_PROMPT_INFIX
    return SPOKEN_PROMPT_PREFIX


def render_completion(strategy: Strategy, state: DialogueState, user_last_turn: str | None = None) -> str:
    """Completion text matching each prompt layout's generated fields."""
    serialized = serialize_state(state)
    if strategy is Strategy.MULTIMODAL:
        body = serialized[1:-1]  # inner fields of the canonical object
        return encode_basestring_ascii(user_last_turn or "") + ", " + body + " }"
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
            "parsed_state": None if self.parsed_state is None else self.parsed_state.to_json_obj(),
        }
        if self.diagnostics:
            obj["diagnostics"] = self.diagnostics
        return _COMPACT.encode(obj)


def _record(obj: object) -> PredictionRecord:
    """Inverse of ``PredictionRecord.to_json_line`` on the decoded line."""
    if type(obj) is dict:
        dialogue_id, turn_index, raw_output = obj.get("dialogue_id"), obj.get("turn_index"), obj.get("raw_output", "")
        parsed, diagnostics = obj.get("parsed_state"), obj.get("diagnostics", [])
        if (
            type(dialogue_id) is str
            and type(turn_index) is int
            and type(raw_output) is str
            and type(diagnostics) is list
            and all_strings(diagnostics)
        ):
            parsed = None if parsed is None else read_state(parsed, ("parsed_state",))
            return PredictionRecord(dialogue_id, turn_index, raw_output, parsed, diagnostics)
    # faulty input: located in the order the fields are read
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


def read_predictions(path) -> list[PredictionRecord]:
    """Every record of a prediction NDJSON file; at most one per (dialogue, turn)."""
    records = []
    first_line: dict[tuple[str, int], int] = {}
    for line_no, record in jsonio.read_lines(path, _record):
        key = (record.dialogue_id, record.turn_index)
        if key in first_line:
            reason = f"duplicate record for dialogue {key[0]!r} turn {key[1]}, first on line {first_line[key]}"
            raise JsonInputError(f"{path}:{line_no}: {reason}")
        first_line[key] = line_no
        records.append(record)
    return records
