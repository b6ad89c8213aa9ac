"""Evaluation-time value normalization and fuzzy matching.

Times are canonicalized to zero-padded 24-hour "HH:MM"; open and profile slot
values are compared with a Levenshtein ratio threshold. Both normalizations
are applied symmetrically to predictions and references.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


def levenshtein_ratio(a: str, b: str) -> float:
    """1 - edit_distance(a, b) / max(|a|, |b|); two empty strings match at 1.0."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return 1.0 - previous[-1] / len(a)


@dataclass(frozen=True)
class MatchPolicy:
    """How predicted values are compared to references."""

    fuzzy_threshold: float = DEFAULT_FUZZY_THRESHOLD
    fuzzy_groups: frozenset[str] = DEFAULT_FUZZY_GROUPS
    time_canonicalization: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.fuzzy_threshold <= 1.0:
            raise ValueError(f"fuzzy_threshold must be in [0, 1], got {self.fuzzy_threshold}")

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


def compare_values(pred: str, ref: str, slot_group: str, policy: MatchPolicy) -> tuple[bool, float]:
    """Whether a predicted value counts as correct for a reference value, and
    the Levenshtein ratio of their normalized forms; both are symmetric.

    Both sides are normalized alike, time values canonicalized when the policy
    says so. A fuzzy group matches at a ratio of at least the policy
    threshold, any other group on equal normalized forms.
    """
    p, r = normalize_value(pred), normalize_value(ref)
    if slot_group == "time" and policy.time_canonicalization:
        p, r = canonicalize_time(p), canonicalize_time(r)
    ratio = levenshtein_ratio(p, r)
    matched = ratio >= policy.fuzzy_threshold if slot_group in policy.fuzzy_groups else p == r
    return matched, ratio


def values_match(pred: str, ref: str, slot_group: str, policy: MatchPolicy) -> bool:
    """The verdict of ``compare_values``."""
    return compare_values(pred, ref, slot_group, policy)[0]
