"""Evaluation-time value normalization and fuzzy matching.

Times are canonicalized to zero-padded 24-hour "HH:MM"; open and profile slot
values are compared with a Levenshtein ratio threshold. Both normalizations
are applied symmetrically to predictions and references.

A comparison has two steps: ``value_form`` gives the form a value is
compared in, and ``forms_match`` gives the verdict on two forms. Only a fuzzy
group's verdict takes a Levenshtein ratio.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .jsonio import UNIT, check_ranges

DEFAULT_FUZZY_THRESHOLD = 0.90
DEFAULT_FUZZY_GROUPS = frozenset({"open", "profile"})

_TIME_RE = re.compile(
    r"""^\s*(?:at\s+)?
        (\d{1,2})                       # hour
        (?:\s*[:.]\s*(\d{2}))?          # optional minutes
        (?:\s*(am|pm|a\.m\.|p\.m\.))?   # optional meridiem
        \s*$""",
    re.IGNORECASE | re.VERBOSE,
)
_WORD_TIMES = {"noon": "12:00", "midday": "12:00", "midnight": "00:00"}
_WS_RE = re.compile(r"\s+")


def canonicalize_time(value: str) -> str:
    """Canonical 24-hour "HH:MM" for recognized time expressions.

    Recognizes "h", "h:mm", "h.mm" with an optional am/pm suffix, plus "noon"
    and "midnight". Unrecognized or out-of-range values pass through unchanged.
    """
    stripped = value.strip().lower()
    if stripped in _WORD_TIMES:
        return _WORD_TIMES[stripped]
    m = _TIME_RE.match(value)
    if not m:
        return value
    hour = int(m.group(1))
    minute = int(m.group(2)) if m.group(2) is not None else 0
    meridiem = m.group(3).replace(".", "").lower() if m.group(3) else None
    if minute > 59:
        return value
    if meridiem is not None:
        if not 1 <= hour <= 12:
            return value
        if meridiem == "am":
            hour = 0 if hour == 12 else hour
        else:
            hour = 12 if hour == 12 else hour + 12
    elif hour > 23:
        return value
    return f"{hour:02d}:{minute:02d}"


def levenshtein_distance(a: str, b: str) -> int:
    """Edit distance by Myers' bit-vector algorithm (Hyyrö's formulation).

    The longer string is the pattern: bit i of each vector stands for its
    character i, and one Python int holds the whole column, so any length
    works. Each character of the shorter string advances the column in a
    fixed number of big-int operations; ``score`` tracks the last row.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def levenshtein_ratio(a: str, b: str) -> float:
    """1 - edit_distance(a, b) / max(|a|, |b|); two empty strings match at 1.0."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b))


@dataclass(frozen=True)
class MatchPolicy:
    """How predicted values are compared to references."""

    fuzzy_threshold: float = UNIT.field(DEFAULT_FUZZY_THRESHOLD)
    fuzzy_groups: frozenset[str] = DEFAULT_FUZZY_GROUPS
    time_canonicalization: bool = True

    def __post_init__(self) -> None:
        check_ranges(self)

    @classmethod
    def exact(cls) -> "MatchPolicy":
        """Case-insensitive exact matching: no fuzz, no time canonicalization."""
        return cls(fuzzy_threshold=1.0, fuzzy_groups=frozenset(), time_canonicalization=False)

    def to_json_obj(self) -> dict:
        return {
            "fuzzy_threshold": self.fuzzy_threshold,
            "fuzzy_groups": sorted(self.fuzzy_groups),
            "time_canonicalization": self.time_canonicalization,
        }


def normalize_value(value: str) -> str:
    """Lower-case and collapse whitespace runs."""
    return _WS_RE.sub(" ", value.strip()).lower()


def value_form(value: str, slot_group: str, policy: MatchPolicy) -> str:
    """The form a value is compared in: normalized, and time-canonical in the
    time group when the policy says so."""
    form = normalize_value(value)
    if slot_group == "time" and policy.time_canonicalization:
        form = canonicalize_time(form)
    return form


def forms_match(p: str, r: str, slot_group: str, policy: MatchPolicy, ratio: float | None = None) -> bool:
    """The verdict on two compared forms; symmetric.

    A fuzzy group matches at a Levenshtein ratio of at least the policy
    threshold (``ratio`` when the caller already holds it), any other group
    on equal forms, so only a fuzzy group takes a ratio.
    """
    if slot_group not in policy.fuzzy_groups:
        return p == r
    if ratio is None:
        ratio = levenshtein_ratio(p, r)
    return ratio >= policy.fuzzy_threshold


def compare_forms(p: str, r: str, slot_group: str, policy: MatchPolicy) -> tuple[bool, float]:
    """The verdict on two compared forms and their Levenshtein ratio."""
    ratio = levenshtein_ratio(p, r)
    return forms_match(p, r, slot_group, policy, ratio), ratio


def values_match(pred: str, ref: str, slot_group: str, policy: MatchPolicy) -> bool:
    """Whether a predicted value counts as correct for a reference value (a
    symmetric verdict), without a ratio outside fuzzy groups."""
    # equal values have equal forms, and equal forms match under every policy
    if pred == ref:
        return True
    return forms_match(value_form(pred, slot_group, policy), value_form(ref, slot_group, policy), slot_group, policy)
