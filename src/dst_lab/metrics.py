"""Joint goal accuracy and slot-level analyses.

``evaluate`` fills every report field in one fold over the (dialogue_id,
turn_index)-aligned prediction/reference pairs. A turn is JGA-correct when the
predicted and reference states have the same (domain, slot) key sets and every
value pair matches under the policy. Domain-set accuracy is tracked
separately and never folded into JGA.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .corpus import DialogueState, SlotTaxonomy
from .postprocess import MatchPolicy, compare_forms, value_form, values_match

log = logging.getLogger(__name__)

TurnKey = tuple[str, int]


class AlignmentError(ValueError):
    """Predictions do not cover the reference turns."""

    def __init__(self, missing: list[TurnKey]):
        preview = ", ".join(f"{d}:{t}" for d, t in missing[:10])
        suffix = " ..." if len(missing) > 10 else ""
        super().__init__(f"missing predictions for {len(missing)} reference turn(s): {preview}{suffix}")
        self.missing = missing


class UnclassifiedSlotError(ValueError):
    def __init__(self, domain: str, slot: str):
        super().__init__(f"slot ({domain}, {slot}) is not classified by the taxonomy")
        self.slot = (domain, slot)


def _group_lookup(taxonomy: SlotTaxonomy | None):
    if taxonomy is None:
        taxonomy = SlotTaxonomy()
    return taxonomy.classify


def align(
    predictions: Mapping[TurnKey, DialogueState],
    references: Mapping[TurnKey, DialogueState],
) -> list[TurnKey]:
    """Reference keys in canonical order; raises when predictions are missing."""
    missing = sorted(k for k in references if k not in predictions)
    if missing:
        raise AlignmentError(missing)
    extra = set(predictions) - set(references)
    keys = sorted(references)
    if extra:
        log.warning("%d prediction turn(s) have no reference and are ignored", len(extra))
    return keys


def _normalized_slots(state: DialogueState) -> dict[tuple[str, str], str]:
    return {(d.lower(), s.lower()): v for (d, s), v in state.slots.items()}


def turn_correct(
    pred: DialogueState,
    ref: DialogueState,
    policy: MatchPolicy,
    taxonomy: SlotTaxonomy | None = None,
) -> bool:
    group_of = _group_lookup(taxonomy)
    pred_slots = _normalized_slots(pred)
    ref_slots = _normalized_slots(ref)
    if set(pred_slots) != set(ref_slots):
        return False
    for (domain, slot), ref_value in ref_slots.items():
        group = group_of(domain, slot)
        if not values_match(pred_slots[(domain, slot)], ref_value, group, policy):
            return False
    return True


def jga(
    predictions: Mapping[TurnKey, DialogueState],
    references: Mapping[TurnKey, DialogueState],
    policy: MatchPolicy,
    taxonomy: SlotTaxonomy | None = None,
) -> float:
    """Fraction of aligned turns whose full state is correct under one policy."""
    keys = align(predictions, references)
    if not keys:
        return 0.0
    correct = sum(
        1 for k in keys if turn_correct(predictions[k], references[k], policy, taxonomy)
    )
    return correct / len(keys)


@dataclass
class GroupCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def prf(self) -> tuple[float, float, float]:
        p = self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0
        r = self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return p, r, f1


@dataclass
class SlotErrorEntry:
    insertions: int = 0
    deletions: int = 0
    matched_ratios: list[float] = field(default_factory=list)

    @property
    def imperfect_matches(self) -> int:
        return sum(1 for r in self.matched_ratios if r < 1.0)

    @property
    def error_score(self) -> int:
        return self.insertions + self.deletions + self.imperfect_matches


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------

REPORT_SCHEMA_VERSION = 1


@dataclass
class EvalReport:
    jga: float
    jga_post: float
    domain_accuracy: float
    per_turn: dict[int, tuple[float, int]]
    group_f1: dict[str, tuple[float, float, float]]
    slot_errors: dict[tuple[str, str], SlotErrorEntry]
    n_dialogues: int
    n_turns: int
    policy: MatchPolicy

    def to_json_obj(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "jga": self.jga,
            "jga_post": self.jga_post,
            "domain_accuracy": self.domain_accuracy,
            "n_dialogues": self.n_dialogues,
            "n_turns": self.n_turns,
            "policy": self.policy.to_json_obj(),
            "per_turn": {
                str(idx): {"jga": v, "count": c} for idx, (v, c) in sorted(self.per_turn.items())
            },
            "group_f1": {
                g: {"precision": p, "recall": r, "f1": f} for g, (p, r, f) in self.group_f1.items()
            },
            "slot_errors": {
                f"{d}-{s}": {
                    "insertions": e.insertions,
                    "deletions": e.deletions,
                    "imperfect_matches": e.imperfect_matches,
                    "matched_ratios": e.matched_ratios,
                }
                for (d, s), e in self.slot_errors.items()
            },
        }


def evaluate(
    predictions: Mapping[TurnKey, DialogueState],
    references: Mapping[TurnKey, DialogueState],
    policy: MatchPolicy,
    taxonomy: SlotTaxonomy | None = None,
    top_k_errors: int = 6,
) -> EvalReport:
    """Every report metric in one pass over the aligned pairs.

    ``jga`` uses exact matching (one ``turn_correct`` per pair). The rest use
    the supplied policy: each reference slot the prediction also holds gets
    one verdict and one Levenshtein ratio of the two compared forms, and a
    turn is post-correct when its key sets are equal and every verdict is a
    match. Each distinct (value, group) is brought to its compared form once
    per call.

    ``group_f1`` is micro-averaged precision/recall/F1 per slot group: a
    predicted slot is a true positive when the reference holds the same
    (domain, slot) at that turn and the values match. It needs a taxonomy
    that classifies every reference slot, and is empty without one.

    ``slot_errors`` holds insertion/deletion counts and value fuzzy ratios for
    the ``top_k_errors`` slots ranked by insertions + deletions + imperfect
    matches (ties broken by slot name). Ratios are computed on the policy's
    normalized value forms, so time canonicalization applies first.
    """
    keys = align(predictions, references)
    exact = MatchPolicy.exact()
    group_of = _group_lookup(taxonomy)
    exact_hits = post_hits = domain_hits = 0
    turn_tally: dict[int, list[int]] = {}  # turn_index -> [post-correct turns, turns]
    counts = {g: GroupCounts() for g in SlotTaxonomy.GROUPS}
    errors: dict[tuple[str, str], SlotErrorEntry] = {}
    forms: dict[tuple[str, str], str] = {}  # (value, group) -> compared form, for this call only

    def form(value: str, group: str) -> str:
        found = forms.get((value, group))
        if found is None:
            found = forms[value, group] = value_form(value, group, policy)
        return found

    for key in keys:
        pred, ref = predictions[key], references[key]
        exact_hits += turn_correct(pred, ref, exact, taxonomy)
        domain_hits += {d.lower() for d in pred.domains} == {d.lower() for d in ref.domains}

        pred_slots = _normalized_slots(pred)
        ref_slots = _normalized_slots(ref)
        correct = pred_slots.keys() == ref_slots.keys()
        for slot_key in pred_slots:
            if slot_key not in ref_slots:
                entry = errors.get(slot_key)
                if entry is None:
                    entry = errors[slot_key] = SlotErrorEntry()
                entry.insertions += 1
                counts[group_of(*slot_key)].fp += 1
        for slot_key, ref_value in ref_slots.items():
            try:
                group = group_of(*slot_key) if taxonomy is None else taxonomy.group_of(*slot_key)
            except KeyError:
                raise UnclassifiedSlotError(*slot_key) from None
            entry = errors.get(slot_key)
            if entry is None:
                entry = errors[slot_key] = SlotErrorEntry()
            pred_value = pred_slots.get(slot_key)
            if pred_value is None:
                entry.deletions += 1
                counts[group].fn += 1
                continue
            ref_form = form(ref_value, group)
            pred_form = ref_form if pred_value == ref_value else form(pred_value, group)
            matched, ratio = compare_forms(pred_form, ref_form, group, policy)
            entry.matched_ratios.append(ratio)
            if matched:
                counts[group].tp += 1
            else:
                counts[group].fn += 1
                counts[group].fp += 1
                correct = False
        post_hits += correct
        tally = turn_tally.setdefault(key[1], [0, 0])
        tally[0] += correct
        tally[1] += 1

    n_turns = len(keys)
    ranked = sorted(errors.items(), key=lambda kv: (-kv[1].error_score, kv[0]))
    return EvalReport(
        jga=exact_hits / n_turns if n_turns else 0.0,
        jga_post=post_hits / n_turns if n_turns else 0.0,
        domain_accuracy=domain_hits / n_turns if n_turns else 0.0,
        per_turn={idx: (hits / n, n) for idx, (hits, n) in sorted(turn_tally.items())},
        group_f1={g: counts[g].prf() for g in SlotTaxonomy.GROUPS} if taxonomy is not None else {},
        slot_errors=dict(ranked[: max(0, top_k_errors)]),
        n_dialogues=len({d for d, _ in keys}),
        n_turns=n_turns,
        policy=policy,
    )


def states_from_records(records: Iterable) -> dict[TurnKey, DialogueState]:
    """Key prediction records by (dialogue_id, turn_index); ParseFailure -> empty."""
    return {(r.dialogue_id, r.turn_index): r.parsed_state if r.parsed_state is not None else DialogueState() for r in records}


def references_from_corpus(dialogues: Iterable) -> dict[TurnKey, DialogueState]:
    return {(dlg.id, idx): state for dlg in dialogues for idx, state in dlg.gold_states.items()}
