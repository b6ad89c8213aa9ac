"""Dialogue corpus model: domain types, file ingestion, and synthetic generation.

Dialogues are ordered, speaker-alternating turn lists starting with a user
turn. Gold states are cumulative dialogue states keyed by 1-based user turn
index. Synthetic corpora embed slot values both in transcripts and in per-turn
feature matrices so that downstream probes can measure how much of a turn
survives compression.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from . import jsonio
from .jsonio import SIZE, CorpusFormatError, Interval, JsonInputError, all_strings, check, check_ranges, get, reject

log = logging.getLogger(__name__)

CORPUS_FORMAT_VERSION = 1
FEATURE_MAGIC = b"DSTLFEA1"
# The header version of a feature file: 2 holds one dialogue's turns, 1 held one turn.
FEATURE_FORMAT_VERSION = 2
# The largest |value| a feature sidecar may hold. The encoder stub and the
# connector's projection multiply by matrices whose entries are at most
# 1/sqrt(d_in), so the connector's first LayerNorm squares values of at most
# about d_feat * |x| and sums d_model of them: about d_model * d_feat**2 * 1e200,
# far below the float64 maximum (1.8e308) at any realistic d_feat and d_model.
# The headroom also covers the later layer norms, whose inputs are at most a
# few factors of d_model larger.
FEATURE_BOUND = 1e100
# Box-Muller's largest draw, sqrt(-2 ln 2**-53) = 8.57, bounds both a token's
# vector and its noise, so a turn's features stay within FEATURE_BOUND.
_NOISE_SIGMA_MAX = FEATURE_BOUND / 8.6 - 1
# How often a spread-mode user turn that introduces slots, after the first,
# also restates an earlier slot with a fresh value.
_OVERWRITE_PROB = 0.25


class Speaker(str, Enum):
    USER = "USER"
    AGENT = "AGENT"


@dataclass
class Turn:
    """One dialogue turn. ``features`` is an optional frames x feature_dim matrix."""

    index: int
    speaker: Speaker
    transcript: str
    features: np.ndarray | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Turn):
            return NotImplemented
        if (self.index, self.speaker, self.transcript) != (other.index, other.speaker, other.transcript):
            return False
        if self.features is None or other.features is None:
            return self.features is None and other.features is None
        return self.features.shape == other.features.shape and bool(
            np.array_equal(self.features, other.features)
        )


class StateInvariantError(ValueError):
    """A DialogueState violates its structural invariants."""


@dataclass
class DialogueState:
    """Active domains plus (domain, slot) -> value assignments.

    ``domains`` keeps insertion order; ``slots`` maps (domain, slot) pairs to
    string values. Equality treats domains as a set and slots as a mapping.
    """

    domains: list[str] = field(default_factory=list)
    slots: dict[tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        known = dict.fromkeys(self.domains)
        self.domains = list(known)
        for (domain, slot), value in self.slots.items():
            if domain not in known:
                raise StateInvariantError(
                    f"slot ({domain}, {slot}) = {value!r} references a domain not in {self.domains}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DialogueState):
            return NotImplemented
        return set(self.domains) == set(other.domains) and self.slots == other.slots

    def copy(self) -> "DialogueState":
        return DialogueState(list(self.domains), dict(self.slots))

    def to_nested(self) -> dict[str, dict[str, str]]:
        """Slots as {domain: {slot: value}}, domains in insertion order, slots sorted."""
        by_domain: dict[str, dict[str, str]] = {}
        for (domain, slot), value in self.slots.items():
            by_domain.setdefault(domain, {})[slot] = value
        return {d: dict(sorted(by_domain[d].items())) for d in self.domains if d in by_domain}

    def to_json_obj(self) -> dict:
        """The ``{"domains": [...], "slots": to_nested()}`` object that ``read_state`` reads."""
        return {"domains": self.domains, "slots": self.to_nested()}


_DOMAINS, _SLOTS = list[str], dict[str, dict[str, str]]  # a state's JSON fields, made once


def read_state(obj: object, where: tuple) -> DialogueState:
    """The state of a ``{"domains": [...], "slots": {domain: {slot: value}}}`` object at
    ``where`` (as ``DialogueState.to_json_obj`` writes it); a domain with slots joins ``domains``."""
    if type(obj) is dict:
        domains, nested = obj.get("domains", []), obj.get("slots", {})
        if type(domains) is list and type(nested) is dict and all_strings(domains):
            slots = {}
            for domain, slot_map in nested.items():
                if type(slot_map) is not dict:
                    break
                for slot, value in slot_map.items():
                    if type(value) is not str:
                        break
                    slots[domain, slot] = value
                else:
                    continue
                break  # a slot value that is not a string
            else:
                return DialogueState(domains + list(nested), slots)  # which keeps the first of each
    # faulty input: located in the order the fields are read
    domains = get(check(obj, dict, where), "domains", _DOMAINS, where, default=[])
    nested = get(obj, "slots", _SLOTS, where, default={})
    slots = {(domain, slot): value for domain, slot_map in nested.items() for slot, value in slot_map.items()}
    return DialogueState(domains + [domain for domain in nested if domain not in domains], slots)


@dataclass
class Dialogue:
    """An ordered dialogue with gold states on user turns."""

    id: str
    turns: list[Turn]
    gold_states: dict[int, DialogueState] = field(default_factory=dict)

    def user_turn_indices(self) -> list[int]:
        return [t.index for t in self.turns if t.speaker is Speaker.USER]

    def turn(self, index: int) -> Turn:
        turn = self.turns[index - 1]
        if turn.index != index:
            raise IndexError(f"turn index mismatch: wanted {index}, found {turn.index}")
        return turn


@dataclass
class SlotTaxonomy:
    """Classification of (domain, slot) pairs into evaluation groups.

    Groups are ``categorical``, ``time``, ``open`` and ``profile``. Categorical
    slots carry their allowed-value list.
    """

    groups: dict[tuple[str, str], str] = field(default_factory=dict)
    categorical_values: dict[tuple[str, str], list[str]] = field(default_factory=dict)

    GROUPS = ("categorical", "time", "open", "profile")

    def group_of(self, domain: str, slot: str) -> str:
        """Group of a classified slot; KeyError when unclassified."""
        return self.groups[(domain, slot)]

    def classify(self, domain: str, slot: str) -> str:
        """Group of a slot, falling back to a name-based default when unclassified."""
        try:
            return self.groups[(domain, slot)]
        except KeyError:
            return default_slot_group(domain, slot)

    def to_json_obj(self) -> dict:
        return {
            "groups": {f"{d}-{s}": g for (d, s), g in sorted(self.groups.items())},
            "categorical_values": {
                f"{d}-{s}": vals for (d, s), vals in sorted(self.categorical_values.items())
            },
        }


_TIME_SLOT_HINTS = ("time", "leaveat", "arriveby", "checkin", "departat")
_PROFILE_SLOT_HINTS = ("idnumber", "phonenumber", "platenumber", "email")
_CATEGORICAL_SLOT_HINTS = ("area", "pricerange", "day", "food", "stars", "type", "parking", "internet")


def default_slot_group(domain: str, slot: str) -> str:
    """Name-based fallback classification used when no taxonomy entry exists."""
    s = slot.lower()
    if domain.lower() == "profile" or any(h in s for h in _PROFILE_SLOT_HINTS):
        return "profile"
    if any(h in s for h in _TIME_SLOT_HINTS):
        return "time"
    if any(h == s for h in _CATEGORICAL_SLOT_HINTS):
        return "categorical"
    return "open"


# ---------------------------------------------------------------------------
# Synthetic ontology
# ---------------------------------------------------------------------------

# domain -> slot -> (group, values). All values are single lowercase tokens so
# transcripts stay whitespace-tokenizable and the transcript-scan oracle is
# unambiguous. Value pools are disjoint within each domain.
ONTOLOGY: dict[str, dict[str, tuple[str, list[str]]]] = {
    "hotel": {
        "area": ("categorical", ["north", "south", "east", "west", "centre", "riverside"]),
        "pricerange": ("categorical", ["cheap", "moderate", "expensive", "budget", "premium", "luxury"]),
        "name": ("open", ["acorn", "gonville", "lensfield", "kirkwood", "worth", "huntingdon"]),
        "checkin": ("time", ["08:15", "09:30", "11:10", "12:00", "17:30", "21:05"]),
    },
    "restaurant": {
        "food": ("categorical", ["pizza", "tapas", "sushi", "curry", "noodles", "ramen"]),
        "area": ("categorical", ["north", "south", "east", "west", "centre", "riverside"]),
        "name": ("open", ["graffiti", "oleum", "cotto", "dojo", "nandos", "bedouin"]),
        "booktime": ("time", ["07:45", "10:20", "13:35", "16:50", "19:25", "22:40"]),
    },
    "taxi": {
        "departure": ("open", ["parkside", "histon", "milton", "girton", "trumpington", "shelford"]),
        "destination": ("open", ["stansted", "addenbrookes", "cineworld", "grafton", "junction", "airport"]),
        "leaveat": ("time", ["05:05", "08:40", "12:15", "15:50", "18:25", "23:00"]),
        "arriveby": ("time", ["06:35", "09:10", "13:45", "17:20", "20:55", "23:30"]),
    },
    "train": {
        "day": ("categorical", ["monday", "tuesday", "wednesday", "thursday", "friday", "saturday"]),
        "destination": ("open", ["london", "cambridge", "ely", "norwich", "ipswich", "peterborough"]),
        "leaveat": ("time", ["05:55", "09:05", "12:35", "16:05", "19:35", "22:05"]),
        "arriveby": ("time", ["07:25", "10:55", "14:25", "17:55", "21:25", "23:55"]),
    },
    "profile": {
        "name": ("profile", ["alexmorgan", "caseylane", "jordanpike", "rileyquinn", "dakotareed", "emersonhale"]),
        "phonenumber": ("profile", ["07700900001", "07700900123", "07700900245", "07700900367", "07700900489", "07700900512"]),
        "email": ("profile", ["alex@mail.test", "casey@mail.test", "jordan@mail.test", "riley@mail.test", "dakota@mail.test", "emerson@mail.test"]),
        "idnumber": ("profile", ["bn1234567", "bn2345678", "bn3456789", "bn4567890", "bn5678901", "bn6789012"]),
    },
}

AGENT_ACK_TOKENS = ["okay", "noted"]
USER_FILLER_TOKENS = ["hello", "there"]


def synthetic_taxonomy() -> SlotTaxonomy:
    """Taxonomy covering every slot the synthetic ontology can emit."""
    groups: dict[tuple[str, str], str] = {}
    cat: dict[tuple[str, str], list[str]] = {}
    for domain, slots in ONTOLOGY.items():
        for slot, (group, values) in slots.items():
            groups[(domain, slot)] = group
            if group == "categorical":
                cat[(domain, slot)] = list(values)
    return SlotTaxonomy(groups, cat)


def ontology_values(domain: str, slot: str) -> list[str]:
    return list(ONTOLOGY[domain][slot][1])


# ---------------------------------------------------------------------------
# Platform-stable PRNG (splitmix64 counter scheme)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _absorb(h, parts: tuple[int | str, ...]):
    """``h`` updated with each part's tagged bytes, in order."""
    for part in parts:
        if isinstance(part, int):
            h.update(b"i" + struct.pack("<q", part & ((1 << 63) - 1)))
        else:
            h.update(b"s" + part.encode("utf-8") + b"\x00")
    return h


def derive_key(*parts: int | str) -> int:
    """Stable 64-bit key from a sequence of integers and strings."""
    return int.from_bytes(_absorb(hashlib.blake2b(digest_size=8), parts).digest(), "little")


def key_prefix(*head: int | str) -> Callable[..., int]:
    """``derive_key`` with its leading parts fixed: ``key_prefix(*head)(*rest)``
    equals ``derive_key(*head, *rest)``, and ``head`` is hashed once."""
    hashed = _absorb(hashlib.blake2b(digest_size=8), head)
    return lambda *rest: int.from_bytes(_absorb(hashed.copy(), rest).digest(), "little")


class SplitMix64:
    """Sequential splitmix64 stream. Used for scalar draws during generation."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Uses rejection to stay unbiased."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, items: list):
        return items[self.randint(len(items))]

    def sample(self, items: list, k: int) -> list:
        pool = list(items)
        out = []
        for _ in range(k):
            out.append(pool.pop(self.randint(len(pool))))
        return out


def _u64_stream(key: int, n: int) -> np.ndarray:
    counters = (np.uint64(key) + (np.arange(1, n + 1, dtype=np.uint64)) * np.uint64(_GOLDEN)).astype(
        np.uint64
    )
    z = counters
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return z


def gaussian_stream(key: int, n: int) -> np.ndarray:
    """n standard-normal float64 draws, a pure function of ``key`` (Box-Muller)."""
    m = (n + 1) // 2
    # numpy's uint64 arange of an uncountable length comes back empty, not raising
    if n < 0 or 2 * m > np.iinfo(np.intp).max:
        raise ValueError(f"number of draws must be in [0, {np.iinfo(np.intp).max - 1}], got n={n}")
    u_bits = _u64_stream(key, 2 * m)
    u1 = ((u_bits[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * (1.0 / (1 << 53))
    u2 = (u_bits[m:] >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return out[:n]


def token_vector(seed: int, token: str, dim: int) -> np.ndarray:
    """Fixed feature vector for a vocabulary token, derived from the corpus seed."""
    return gaussian_stream(derive_key(seed, "token", token), dim)


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Generation knobs for :func:`synth_corpus`.

    ``mentions_per_turn=None`` spreads slot introductions across the dialogue
    (variable-length turns, suited to truncation and per-turn analyses). A
    fixed integer makes every user turn restate that many pairs with freshly
    drawn values (uniform-length turns, suited to the retention probe).
    """

    n_dialogues: int = SIZE.field(8)
    turns_per_dialogue: int = SIZE.field(8)
    feature_dim: int = SIZE.field(16)
    slots_per_dialogue: int = SIZE.field(4)
    noise_sigma: float = Interval(0, _NOISE_SIGMA_MAX).field(0.0)
    mentions_per_turn: int | None = SIZE.field(None)
    fixed_domain: str | None = None
    frames_per_token: int = SIZE.field(1)

    def validate(self) -> None:
        check_ranges(self)
        if self.mentions_per_turn is not None and self.mentions_per_turn > self.slots_per_dialogue:
            raise ValueError(f"mentions_per_turn={self.mentions_per_turn} exceeds slots_per_dialogue={self.slots_per_dialogue}")
        if self.fixed_domain is not None and self.fixed_domain not in ONTOLOGY:
            raise ValueError(f"unknown domain {self.fixed_domain!r}")
        domains = sorted(ONTOLOGY) if self.fixed_domain is None else [self.fixed_domain]
        if self.slots_per_dialogue > sum(len(ONTOLOGY[d]) for d in domains):
            raise ValueError(f"slots_per_dialogue={self.slots_per_dialogue} exceeds available slots for {domains}")


def _pick_dialogue_slots(rng: SplitMix64, config: SynthConfig) -> tuple[list[str], list[tuple[str, str]]]:
    """Choose domains and ``slots_per_dialogue`` (domain, slot) pairs."""
    domains: list[str] = []
    pairs: list[tuple[str, str]] = []
    if config.fixed_domain is not None:
        candidates = [config.fixed_domain]
    else:
        candidates = rng.sample(sorted(ONTOLOGY), len(ONTOLOGY))
    for domain in candidates:
        remaining = config.slots_per_dialogue - len(pairs)
        if remaining <= 0:
            break
        slots = sorted(ONTOLOGY[domain])
        take = rng.sample(slots, min(remaining, len(slots)))
        domains.append(domain)
        pairs.extend((domain, slot) for slot in sorted(take))
    return domains, pairs


def _mention_schedule(
    rng: SplitMix64, config: SynthConfig, pairs: list[tuple[str, str]], n_user_turns: int
) -> list[list[tuple[str, str]]]:
    """Which pairs each user turn mentions."""
    if config.mentions_per_turn is not None:
        if config.mentions_per_turn != len(pairs):
            # restate a rotating window when fewer mentions than pairs are requested
            k = config.mentions_per_turn
            return [
                [pairs[(start + j) % len(pairs)] for j in range(k)]
                for start in range(0, n_user_turns * k, k)
            ][:n_user_turns]
        return [list(pairs) for _ in range(n_user_turns)]
    # spread mode: introduce pairs across the first turns, then occasional overwrites
    schedule: list[list[tuple[str, str]]] = [[] for _ in range(n_user_turns)]
    for j, pair in enumerate(pairs):
        turn = min(int(j * n_user_turns / len(pairs)), n_user_turns - 1)
        schedule[turn].append(pair)
    for t in range(n_user_turns):
        if not schedule[t]:
            introduced = [p for earlier in schedule[:t] for p in earlier]
            if introduced and rng.uniform() < 0.9:
                schedule[t].append(rng.choice(introduced))
        elif t > 0 and rng.uniform() < _OVERWRITE_PROB:
            introduced = [p for earlier in schedule[:t] for p in earlier if p not in schedule[t]]
            if introduced:
                schedule[t].append(rng.choice(introduced))
    return schedule


def _transcript_for_mentions(mentions: list[tuple[str, str, str]]) -> str:
    """Render mentions as "domain slot value slot value ..." grouped by domain."""
    tokens: list[str] = []
    current_domain: str | None = None
    for domain, slot, value in mentions:
        if domain != current_domain:
            tokens.append(domain)
            current_domain = domain
        tokens.extend((slot, value))
    return " ".join(tokens)


def scan_transcript_mentions(transcript: str) -> list[tuple[str, str, str]]:
    """Inverse of :func:`_transcript_for_mentions`; returns [] for non-mention text."""
    tokens = transcript.split()
    mentions: list[tuple[str, str, str]] = []
    domain: str | None = None
    i = 0
    while i < len(tokens):
        if tokens[i] in ONTOLOGY:
            domain = tokens[i]
            i += 1
            continue
        if domain is None or i + 1 >= len(tokens):
            return []
        mentions.append((domain, tokens[i], tokens[i + 1]))
        i += 2
    return mentions


def _features_for_transcript(
    seed: int,
    dialogue_index: int,
    turn_index: int,
    transcript: str,
    config: SynthConfig,
    vectors: dict[str, np.ndarray],
) -> np.ndarray:
    """Feature matrix of one turn: each token's vector, repeated per frame, plus noise.

    ``vectors`` maps each token to its :func:`token_vector`. It is shared by
    every turn of one :func:`synth_corpus` call and filled on first use, so a
    token's vector is computed once per call; the noise is drawn per turn.
    """
    tokens = transcript.split()
    rows = []
    for token in tokens:
        vec = vectors.get(token)
        if vec is None:
            vec = vectors[token] = token_vector(seed, token, config.feature_dim)
        for _ in range(config.frames_per_token):
            rows.append(vec)
    feats = np.stack(rows, axis=0)
    if config.noise_sigma > 0:
        key = derive_key(seed, "noise", dialogue_index, turn_index)
        noise = gaussian_stream(key, feats.size).reshape(feats.shape)
        feats = feats + config.noise_sigma * noise
    return feats


def synth_corpus(seed: int, config: SynthConfig) -> list[Dialogue]:
    """Generate a deterministic synthetic corpus.

    Slot values appear verbatim in transcripts and, through the token-vector
    table, in the per-turn feature matrices. Gold states are cumulative.
    """
    config.validate()
    dialogues: list[Dialogue] = []
    vectors: dict[str, np.ndarray] = {}
    for i in range(config.n_dialogues):
        rng = SplitMix64(derive_key(seed, "dialogue", i))
        domains, pairs = _pick_dialogue_slots(rng, config)
        n_user = (config.turns_per_dialogue + 1) // 2
        schedule = _mention_schedule(rng, config, pairs, n_user)

        turns: list[Turn] = []
        gold_states: dict[int, DialogueState] = {}
        state = DialogueState()
        user_i = 0
        for t in range(1, config.turns_per_dialogue + 1):
            if t % 2 == 1:
                mentions = []
                for domain, slot in schedule[user_i]:
                    value = rng.choice(ontology_values(domain, slot))
                    mentions.append((domain, slot, value))
                # a user turn with nothing new to say still says something
                transcript = _transcript_for_mentions(mentions) if mentions else " ".join(USER_FILLER_TOKENS)
                for domain, slot, value in mentions:
                    if domain not in state.domains:
                        state.domains.append(domain)
                    state.slots[(domain, slot)] = value
                gold_states[t] = state.copy()
                user_i += 1
                speaker = Speaker.USER
            else:
                transcript = " ".join(AGENT_ACK_TOKENS)
                speaker = Speaker.AGENT
            features = _features_for_transcript(seed, i, t, transcript, config, vectors)
            turns.append(Turn(index=t, speaker=speaker, transcript=transcript, features=features))
        dialogues.append(Dialogue(id=f"syn-{seed:04d}-{i:04d}", turns=turns, gold_states=gold_states))
    return dialogues


# ---------------------------------------------------------------------------
# Corrupted-dialogue filtering
# ---------------------------------------------------------------------------


def id_list(obj: object) -> list[str]:
    """The ids of a JSON list of strings, or of an object whose ``ids`` is one."""
    ids = check(obj, list[str] | dict)
    return get(ids, "ids", list[str]) if type(ids) is dict else ids


def default_corrupted_ids() -> list[str]:
    """Exclusion list shipped with the package (see data/corrupted_ids.json)."""
    return jsonio.read_document(Path(__file__).parent / "data" / "corrupted_ids.json", id_list)


def filter_corrupted(dialogues: list[Dialogue], exclude_ids: Iterable[str]) -> list[Dialogue]:
    """Drop dialogues whose id is excluded; order and content preserved."""
    excluded = set(exclude_ids)
    present = {d.id for d in dialogues}
    for missing in sorted(excluded - present):
        log.warning("exclude id %s not present in corpus; ignored", missing)
    return [d for d in dialogues if d.id not in excluded]


# ---------------------------------------------------------------------------
# Serialization: synthetic corpus JSON + binary feature sidecars
# ---------------------------------------------------------------------------


TurnSelector = Callable[[Dialogue], Iterable[int]]  # the indices of the turns whose features to read


def write_feature_sidecar(path: Path, dialogue_id: str, turns: list[tuple[int, np.ndarray]]) -> None:
    """One dialogue's feature file: magic, header length, a JSON header that
    lists each of ``turns``' index and row count in the order given, then
    each turn's rows as little-endian f64. Every matrix has one column count."""
    mats = [(index, np.ascontiguousarray(features, dtype=np.float64)) for index, features in turns]
    widths = sorted({mat.shape[1] for _, mat in mats})
    if len(widths) > 1:
        raise ValueError(f"the turns of dialogue {dialogue_id!r} have {widths} feature columns, not one count")
    header = json.dumps(
        {
            "format_version": FEATURE_FORMAT_VERSION,
            "dialogue_id": dialogue_id,
            "cols": widths[0],
            "turns": [[index, int(mat.shape[0])] for index, mat in mats],
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, mat in mats:
            fh.write(mat.astype("<f8").tobytes(order="C"))


def _sidecar_header(header: object) -> tuple[str, int, list[list[int]]]:
    version = get(check(header, dict), "format_version", int)
    if version != FEATURE_FORMAT_VERSION:
        reject(("format_version",), f"must be {FEATURE_FORMAT_VERSION}", version)
    dialogue_id, cols, turns = get(header, "dialogue_id", str), get(header, "cols", int), get(header, "turns", list)
    if not turns:
        reject(("turns",), "must list at least one turn", turns)
    previous = 0
    for i, entry in enumerate(turns):  # a valid entry is read by type tests alone, a faulty one again by check
        pair = type(entry) is list and len(entry) == 2 and type(entry[0]) is int and type(entry[1]) is int
        if not pair or entry[0] <= previous:
            check(entry, list[int], ("turns", i))
            reject(("turns", i), f"must be [index, rows] with an index above {previous}", entry)
        previous = entry[0]
    return dialogue_id, cols, turns


def read_feature_sidecar(path, dialogue_id: str, turns: Iterable[int], cols: int | None = None) -> dict[int, np.ndarray]:
    """The matrices, by turn index, of the ``turns`` that the feature file
    ``write_feature_sidecar(path, dialogue_id, ...)`` wrote holds, each of
    ``cols`` columns when given; a turn the file does not list is left out.
    All the file holds is checked: any other content, such as a header for
    another dialogue, a turn with no row or a value above FEATURE_BOUND in
    magnitude in any turn, is a CorpusFormatError at its byte offset, worded
    by jsonio. Each matrix is a copy, so none keeps the file's bytes alive."""
    with jsonio._naming(path):
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            blob = os.read(fd, size)
            while len(blob) < size and (more := os.read(fd, size - len(blob))):
                blob += more
        finally:
            os.close(fd)
        if blob[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
            raise CorpusFormatError("bad feature sidecar magic", 0)
        header_start = len(FEATURE_MAGIC) + 4
        if len(blob) < header_start:
            raise CorpusFormatError("truncated sidecar header length", len(blob))
        (header_len,) = struct.unpack_from("<I", blob, len(FEATURE_MAGIC))
        payload_start = header_start + header_len
        if len(blob) < payload_start:
            raise CorpusFormatError(f"truncated sidecar header: {header_len} bytes declared", len(blob))
        try:
            header_id, width, listed = jsonio.parse(blob[header_start:payload_start], _sidecar_header)
        except JsonInputError as exc:
            raise CorpusFormatError(f"malformed sidecar header: {exc}", header_start) from exc
        if header_id != dialogue_id:
            raise CorpusFormatError(f"sidecar header is for dialogue {header_id}, not {dialogue_id}", header_start)
        spans, total = {}, 0  # each listed turn's first and end row
        for index, rows in listed:
            if rows < 1 or width < 1:
                raise CorpusFormatError(f"sidecar shape {rows}x{width} of turn {index} has no feature value", header_start)
            spans[index] = total, total + rows
            total += rows
        if cols is not None and width != cols:
            raise CorpusFormatError(f"sidecar has {width} columns; the sidecars read before it have {cols}", header_start)
        expected = total * width * 8
        actual = len(blob) - payload_start
        if actual != expected:
            message = f"sidecar payload is {actual} bytes; {total} rows of {width} float64 values need {expected}"
            raise CorpusFormatError(message, payload_start + min(actual, expected))
        data = np.frombuffer(blob, dtype="<f8", count=total * width, offset=payload_start).reshape(total, width)
        # np.maximum.reduce is what ndarray.max computes, without its Python-level wrapper
        if not np.maximum.reduce(np.abs(data), axis=None) <= FEATURE_BOUND:  # also true for NaN
            first = int(np.argmin(np.abs(data.ravel()) <= FEATURE_BOUND))
            row = first // width
            index, (start, _) = next((i, span) for i, span in spans.items() if row < span[1])
            message = f"feature value {data.flat[first]} of turn {index} at row {row - start}, column {first % width}"
            raise CorpusFormatError(f"{message} is not in [-{FEATURE_BOUND:g}, {FEATURE_BOUND:g}]", payload_start + 8 * first)
        return {i: data[spans[i][0] : spans[i][1]].astype(np.float64) for i in turns if i in spans}


def write_corpus(
    out_dir: str | Path,
    dialogues: list[Dialogue],
    *,
    taxonomy: SlotTaxonomy | None = None,
    meta: Mapping | None = None,
) -> Path:
    """Write corpus.json plus, under features/, one feature file per dialogue
    that has features: ``<dialogue id>.f64``, holding its turns that have them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features_dir = out / "features"
    made_features_dir = False
    doc: dict = {"format_version": CORPUS_FORMAT_VERSION, "kind": "synthetic"}
    if meta:
        doc["meta"] = dict(meta)
    if taxonomy is not None:
        doc["taxonomy"] = taxonomy.to_json_obj()
    doc_dialogues = []
    for dlg in dialogues:
        turns_obj = []
        for turn in dlg.turns:
            turns_obj.append(
                {"index": turn.index, "speaker": turn.speaker.value, "transcript": turn.transcript}
            )
        featured = [(turn.index, turn.features) for turn in dlg.turns if turn.features is not None]
        if featured:
            if not made_features_dir:
                features_dir.mkdir(parents=True, exist_ok=True)
                made_features_dir = True
            write_feature_sidecar(features_dir / f"{dlg.id}.f64", dlg.id, featured)
        states_obj = {str(idx): st.to_json_obj() for idx, st in sorted(dlg.gold_states.items())}
        doc_dialogues.append({"id": dlg.id, "turns": turns_obj, "gold_states": states_obj})
    doc["dialogues"] = doc_dialogues
    corpus_path = out / "corpus.json"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return corpus_path


def _attach_features(dialogues: list[Dialogue], features_dir: Path, read: TurnSelector | None) -> None:
    """Attach the features of each turn that ``read`` names (every turn when
    ``read`` is None) from its dialogue's file in ``features_dir``, where
    that holds one that lists the turn. Each file read must have the column
    count of the first file that gave a turn its features; the file of a
    dialogue with no turn to read is not opened, and the directory is not
    listed."""
    if not features_dir.is_dir():
        return
    directory = os.path.join(features_dir, "")
    cols = None
    for dlg in dialogues:
        turns = dlg.turns if read is None else [dlg.turn(i) for i in read(dlg)]
        if not turns or "/" in dlg.id or "\0" in dlg.id:  # no file directly in features/ has such a name
            continue
        path = f"{directory}{dlg.id}.f64"
        try:
            found = read_feature_sidecar(path, dlg.id, [turn.index for turn in turns], cols)
        except OSError as exc:
            # a name features/ does not hold is no file; a dangling link by that name is an error
            if exc.errno in (errno.ENOENT, errno.ENAMETOOLONG) and not os.path.lexists(path):
                continue
            raise
        for turn in turns:
            turn.features = found.get(turn.index)
        if found:
            cols = next(iter(found.values())).shape[1]


def _check_turns(dialogue_id: str, turns: list[Turn], where: tuple) -> None:
    """A dialogue has turns, numbered 1, 2, ... and alternating from a user turn."""
    if not turns:
        raise JsonInputError(f"dialogue {dialogue_id!r} has no turns", where)
    user, agent = Speaker.USER, Speaker.AGENT  # read once: an enum member's lookup is slow
    for pos, turn in enumerate(turns, start=1):
        if turn.index != pos:
            raise JsonInputError(f"non-contiguous turn index {turn.index} at position {pos} in dialogue {dialogue_id}", where)
        if turn.speaker is not (user if pos % 2 == 1 else agent):
            raise JsonInputError(f"speaker alternation violated at turn {pos} of dialogue {dialogue_id}", where)


def _turn(obj: object, at: tuple) -> Turn:
    """The turn of the object at ``at``, read field by field so that a fault is located."""
    index, tag = get(check(obj, dict, at), "index", int, at), get(obj, "speaker", str, at)
    if tag not in ("USER", "AGENT"):
        reject(at + ("speaker",), "must be 'USER' or 'AGENT'", tag)
    return Turn(index=index, speaker=Speaker[tag], transcript=get(obj, "transcript", str, at))


def _synthetic_dialogue(obj: object, where: tuple) -> Dialogue:
    """The dialogue of the object at ``where``. A valid object is read by type
    tests alone; each faulty part is read again by the checks that locate it."""
    dialogue_id, turn_objs = (obj.get("id"), obj.get("turns")) if type(obj) is dict else (None, None)
    if type(dialogue_id) is not str or type(turn_objs) is not list:
        dialogue_id, turn_objs = get(check(obj, dict, where), "id", str, where), get(obj, "turns", list, where)
    turns, user, agent = [], Speaker.USER, Speaker.AGENT
    for i, turn_obj in enumerate(turn_objs):
        if type(turn_obj) is dict:
            index, tag, transcript = turn_obj.get("index"), turn_obj.get("speaker"), turn_obj.get("transcript")
            if type(index) is int and (tag == "USER" or tag == "AGENT") and type(transcript) is str:
                turns.append(Turn(index, user if tag == "USER" else agent, transcript))
                continue
        turns.append(_turn(turn_obj, where + ("turns", i)))
    _check_turns(dialogue_id, turns, where)
    # a gold state's key is its user turn's index (checked above to be its position) as write_corpus writes it
    user_keys = {str(pos): pos for pos in range(1, len(turns) + 1, 2)}
    state_objs = obj.get("gold_states", {})
    if type(state_objs) is not dict:
        state_objs = get(obj, "gold_states", dict, where)
    gold = {}
    for key, state_obj in state_objs.items():
        if key not in user_keys:
            rule = f"keys must name user turns of dialogue {dialogue_id!r} ({', '.join(user_keys)})"
            reject(where + ("gold_states",), rule, key)
        gold[user_keys[key]] = read_state(state_obj, where + ("gold_states", key))
    return Dialogue(dialogue_id, turns, gold)


def _synthetic_document(doc: object) -> tuple[list[Dialogue], SlotTaxonomy | None]:
    version = get(check(doc, dict), "format_version", int)
    if version != CORPUS_FORMAT_VERSION:
        reject(("format_version",), f"must be {CORPUS_FORMAT_VERSION}", version)
    dialogues = [_synthetic_dialogue(obj, ("dialogues", i)) for i, obj in enumerate(get(doc, "dialogues", list))]
    positions: dict[str, int] = {}
    for pos, dialogue in enumerate(dialogues, start=1):
        if positions.setdefault(dialogue.id, pos) != pos:
            message = f"duplicate dialogue id {dialogue.id!r} at positions {positions[dialogue.id]} and {pos}"
            raise JsonInputError(message, ("dialogues", pos - 1))
    if "taxonomy" not in doc:
        return dialogues, None
    where = ("taxonomy",)  # the inverse of SlotTaxonomy.to_json_obj
    groups = get(check(doc["taxonomy"], dict, where), "groups", dict[str, str], where, default={})
    values = get(doc["taxonomy"], "categorical_values", dict[str, list[str]], where, default={})
    by_slot: list[dict] = [{}, {}]  # keyed lower-cased, as scoring compares slots
    for part, entries, into in (("groups", groups, by_slot[0]), ("categorical_values", values, by_slot[1])):
        for key, value in entries.items():
            if "-" not in key:
                reject(where + (part,), "keys must be 'domain-slot' names", key)
            if part == "groups" and value not in SlotTaxonomy.GROUPS:
                reject(where + (part, key), f"must be one of {list(SlotTaxonomy.GROUPS)}", value)
            slot = key.lower().partition("-")[::2]
            if into.setdefault(slot, value) != value:
                reject(where + (part, key), f"must be {into[slot]!r} as for a key that differs only in case", value)
    return dialogues, SlotTaxonomy(*by_slot)


# SpokenWOZ-style ingestion. The subset read per dialogue entry is:
#   log[i].text                      turn transcript
#   log[i].tag                      "user"/"system" (optional; position parity otherwise)
#   log[i].metadata[domain].semi     slot -> value for the preceding user turn
#   log[i].metadata[domain].book     slot -> value, stored as "book<slot>" ("booked" ignored)
# A value is a string or a list of strings (the first is taken); an empty one is
# skipped. Audio references and span annotations are ignored; features come
# from an optional features/ sidecar directory next to the data file.
_EMPTY_SLOT_VALUES = {"", "not mentioned", "none", "dontcare-placeholder"}
_SPOKENWOZ_SPEAKERS = {"user": Speaker.USER, "system": Speaker.AGENT, "agent": Speaker.AGENT}


def _flatten_metadata(metadata: dict, where: tuple) -> DialogueState:
    domains: list[str] = []
    slots: dict[tuple[str, str], str] = {}
    for domain, entry in metadata.items():
        for part, prefix in (("semi", ""), ("book", "book")):
            for slot, value in get(check(entry, dict, where + (domain,)), part, dict, where + (domain,), default={}).items():
                if part == "book" and slot == "booked":
                    continue
                value = check(value, str | list[str], where + (domain, part, slot))
                value = (value if type(value) is str else value[0] if value else "").strip()
                if value.lower() not in _EMPTY_SLOT_VALUES:
                    slots[(domain.lower(), prefix + slot.lower())] = value
                    if domain.lower() not in domains:
                        domains.append(domain.lower())
    return DialogueState(domains, slots)


def _spokenwoz_document(doc: object) -> list[Dialogue]:
    dialogues = []
    for dlg_id, record in check(doc, dict).items():
        turns, gold = [], {}
        for pos, entry in enumerate(get(check(record, dict, (dlg_id,)), "log", list, (dlg_id,)), start=1):
            at = (dlg_id, "log", pos - 1)
            tag = get(check(entry, dict, at), "tag", str | None, at, default=None)
            speaker = Speaker.USER if pos % 2 == 1 else Speaker.AGENT
            if tag is not None:
                if tag.lower() not in _SPOKENWOZ_SPEAKERS:
                    reject(at + ("tag",), "must be 'user', 'system' or 'agent'", tag)
                speaker = _SPOKENWOZ_SPEAKERS[tag.lower()]
            turns.append(Turn(index=pos, speaker=speaker, transcript=get(entry, "text", str, at)))
            metadata = get(entry, "metadata", dict, at, default={}) if speaker is Speaker.AGENT else None
            if metadata:
                gold[pos - 1] = _flatten_metadata(metadata, at + ("metadata",))
        _check_turns(dlg_id, turns, (dlg_id,))
        dialogues.append(Dialogue(id=dlg_id, turns=turns, gold_states=gold))
    return dialogues


def parse_corpus(path: str | Path, format: str) -> tuple[list[Dialogue], SlotTaxonomy | None]:
    """Dialogues, gold states and the embedded taxonomy (None when absent) of
    a corpus, read from its one document; no feature sidecar is read, so every
    ``Turn.features`` is None. ``format`` is ``synthetic_json`` or
    ``spokenwoz_json``. A fault of the document is :func:`jsonio.read_document`'s."""
    p = Path(path)
    if format == "synthetic_json":
        return jsonio.read_document(p / "corpus.json" if p.is_dir() else p, _synthetic_document)
    if format == "spokenwoz_json":
        return jsonio.read_document(p / "data.json" if p.is_dir() else p, _spokenwoz_document), None
    raise ValueError(f"unknown corpus format {format!r}")


def load_corpus(path: str | Path, format: str, read: TurnSelector | None = None) -> list[Dialogue]:
    """``parse_corpus`` plus features from the ``features/`` directory next to
    the corpus document, one file per dialogue: of the turns ``read(dialogue)``
    names, or of every turn when ``read`` is None. A turn left unread keeps
    no features."""
    dialogues, _ = parse_corpus(path, format)
    p = Path(path)
    _attach_features(dialogues, (p if p.is_dir() else p.parent) / "features", read)
    return dialogues
