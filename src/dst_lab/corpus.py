"""Dialogue corpus model: domain types, file ingestion, and synthetic generation.

Dialogues are ordered, speaker-alternating turn lists starting with a user
turn. Gold states are cumulative dialogue states keyed by 1-based user turn
index. Synthetic corpora embed slot values both in transcripts and in per-turn
feature matrices so that downstream probes can measure how much of a turn
survives compression.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from . import jsonio
from .jsonio import JsonInputError, check, get, reject

log = logging.getLogger(__name__)

CORPUS_FORMAT_VERSION = 1
FEATURE_MAGIC = b"DSTLFEA1"


class CorpusFormatError(ValueError):
    """Raised when a corpus file does not match its declared format."""

    def __init__(self, message: str, *, path: str | None = None, offset: int | None = None):
        tags = (("file", path), ("offset", offset))
        super().__init__(message + "".join(f" [{tag}: {value}]" for tag, value in tags if value is not None))
        self.path, self.offset = path, offset


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
        seen: list[str] = []
        for d in self.domains:
            if d not in seen:
                seen.append(d)
        self.domains = seen
        for (domain, slot), value in self.slots.items():
            if domain not in self.domains:
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
        nested: dict[str, dict[str, str]] = {}
        for domain in self.domains:
            entries = {s: v for (d, s), v in self.slots.items() if d == domain}
            if entries:
                nested[domain] = {s: entries[s] for s in sorted(entries)}
        return nested


_DOMAINS, _SLOTS = list[str], dict[str, dict[str, str]]  # a state's JSON fields, made once


def read_state(obj: object, where: tuple) -> DialogueState:
    """The state of a ``{"domains": [...], "slots": {domain: {slot: value}}}`` object at
    ``where`` (``to_nested`` plus the domains); a domain with slots joins ``domains``."""
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


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_key(*parts: int | str) -> int:
    """Stable 64-bit key from a sequence of integers and strings."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, int):
            h.update(b"i" + struct.pack("<q", part & ((1 << 63) - 1)))
        else:
            h.update(b"s" + part.encode("utf-8") + b"\x00")
    return int.from_bytes(h.digest(), "little")


class SplitMix64:
    """Sequential splitmix64 stream. Used for scalar draws during generation."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

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

    n_dialogues: int = 8
    turns_per_dialogue: int = 8
    feature_dim: int = 16
    slots_per_dialogue: int = 4
    noise_sigma: float = 0.0
    mentions_per_turn: int | None = None
    fixed_domain: str | None = None
    frames_per_token: int = 1
    overwrite_prob: float = 0.25

    def validate(self) -> None:
        for name in ("n_dialogues", "turns_per_dialogue", "feature_dim", "slots_per_dialogue", "frames_per_token"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.noise_sigma >= 0:  # also true for NaN
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.noise_sigma == float("inf"):
            raise ValueError("noise_sigma must be finite, got inf")
        if self.mentions_per_turn is not None and self.mentions_per_turn < 1:
            raise ValueError("mentions_per_turn must be >= 1 when given")
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
        elif t > 0 and rng.uniform() < config.overwrite_prob:
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


TurnSelector = Callable[[Dialogue], Iterable[int]]  # the indices of the turns whose sidecars to read


def _feature_sidecar_name(dialogue_id: str, turn_index: int) -> str:
    return f"{dialogue_id}__t{turn_index:04d}.f64"


def write_feature_sidecar(path: Path, dialogue_id: str, turn_index: int, features: np.ndarray) -> None:
    """One matrix per file: magic, header length, JSON header, little-endian f64 rows."""
    mat = np.ascontiguousarray(features, dtype=np.float64)
    header = json.dumps(
        {
            "format_version": CORPUS_FORMAT_VERSION,
            "dialogue_id": dialogue_id,
            "turn_index": turn_index,
            "rows": int(mat.shape[0]),
            "cols": int(mat.shape[1]),
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(mat.astype("<f8").tobytes(order="C"))


def _sidecar_header(header: object) -> tuple[str, int, int, int]:
    check(header, dict)
    return get(header, "dialogue_id", str), get(header, "turn_index", int), get(header, "rows", int), get(header, "cols", int)


def read_feature_sidecar(path: Path) -> tuple[str, int, np.ndarray]:
    """Parse one sidecar; a short, overlong or malformed file, or a NaN or
    infinite value, is a CorpusFormatError naming the byte offset, and a file
    that cannot be read one naming the path."""
    where = str(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CorpusFormatError(f"cannot read feature sidecar: {exc.strerror}", path=where) from exc
    if blob[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise CorpusFormatError("bad feature sidecar magic", path=where, offset=0)
    header_start = len(FEATURE_MAGIC) + 4
    if len(blob) < header_start:
        raise CorpusFormatError("truncated sidecar header length", path=where, offset=len(blob))
    (header_len,) = struct.unpack_from("<I", blob, len(FEATURE_MAGIC))
    payload_start = header_start + header_len
    if len(blob) < payload_start:
        raise CorpusFormatError(
            f"truncated sidecar header: {header_len} bytes declared", path=where, offset=len(blob)
        )
    try:
        dialogue_id, turn_index, rows, cols = jsonio.parse(blob[header_start:payload_start], _sidecar_header)
    except JsonInputError as exc:
        raise CorpusFormatError(f"malformed sidecar header: {exc}", path=where, offset=header_start) from exc
    if rows < 0 or cols < 0:
        raise CorpusFormatError(f"negative sidecar shape {rows}x{cols}", path=where, offset=header_start)
    expected = rows * cols * 8
    actual = len(blob) - payload_start
    if actual != expected:
        raise CorpusFormatError(
            f"sidecar payload is {actual} bytes; a {rows}x{cols} float64 matrix needs {expected}",
            path=where,
            offset=payload_start + min(actual, expected),
        )
    data = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=payload_start).reshape(rows, cols)
    finite = np.isfinite(data)
    if not finite.all():
        first = int(np.argmin(finite.ravel()))
        raise CorpusFormatError(
            f"non-finite feature value {data.ravel()[first]!r} at row {first // cols}, column {first % cols}",
            path=where,
            offset=payload_start + 8 * first,
        )
    return dialogue_id, turn_index, data.astype(np.float64)


def write_corpus(
    out_dir: str | Path,
    dialogues: list[Dialogue],
    *,
    taxonomy: SlotTaxonomy | None = None,
    meta: Mapping | None = None,
) -> Path:
    """Write corpus.json plus one feature sidecar per turn under features/."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features_dir = out / "features"
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
            if turn.features is not None:
                features_dir.mkdir(parents=True, exist_ok=True)
                write_feature_sidecar(
                    features_dir / _feature_sidecar_name(dlg.id, turn.index),
                    dlg.id,
                    turn.index,
                    turn.features,
                )
        states_obj = {
            str(idx): {"domains": st.domains, "slots": st.to_nested()}
            for idx, st in sorted(dlg.gold_states.items())
        }
        doc_dialogues.append({"id": dlg.id, "turns": turns_obj, "gold_states": states_obj})
    doc["dialogues"] = doc_dialogues
    corpus_path = out / "corpus.json"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return corpus_path


def _attach_features(dialogues: list[Dialogue], features_dir: Path, read: TurnSelector | None) -> None:
    """Attach the sidecar, where there is one, of each turn that ``read``
    names (every turn when ``read`` is None). The sidecars read must agree
    on ``feature_dim``; no other sidecar is opened."""
    if not features_dir.is_dir():
        return
    dims: set[int] = set()
    for dlg in dialogues:
        for turn in dlg.turns if read is None else [dlg.turn(i) for i in read(dlg)]:
            sidecar = features_dir / _feature_sidecar_name(dlg.id, turn.index)
            if sidecar.exists():
                dialogue_id, turn_index, mat = read_feature_sidecar(sidecar)
                if (dialogue_id, turn_index) != (dlg.id, turn.index):
                    raise CorpusFormatError(
                        f"sidecar header is for {dialogue_id} turn {turn_index}, "
                        f"not {dlg.id} turn {turn.index}",
                        path=str(sidecar),
                        offset=len(FEATURE_MAGIC) + 4,
                    )
                if mat.shape[0] < 1:
                    raise CorpusFormatError(
                        f"empty feature matrix for {dlg.id} turn {turn.index}", path=str(sidecar)
                    )
                dims.add(int(mat.shape[1]))
                turn.features = mat
    if len(dims) > 1:
        raise CorpusFormatError(f"feature_dim not uniform across corpus: {sorted(dims)}")


def _read_corpus_document(path: Path, read):
    """``read`` of the corpus document at ``path``; a fault is a CorpusFormatError."""
    try:
        return jsonio.read_document(path, read)
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus document: {exc.strerror}", path=str(path)) from exc
    except JsonInputError as exc:
        raise CorpusFormatError(f"{exc} (line {exc.line}, column {exc.column})", path=str(path), offset=exc.pos) from exc


def _check_turns(dialogue_id: str, turns: list[Turn], where: tuple) -> None:
    """A dialogue has turns, numbered 1, 2, ... and alternating from a user turn."""
    if not turns:
        raise JsonInputError(f"dialogue {dialogue_id!r} has no turns", where)
    for pos, turn in enumerate(turns, start=1):
        if turn.index != pos:
            raise JsonInputError(f"non-contiguous turn index {turn.index} at position {pos} in dialogue {dialogue_id}", where)
        if turn.speaker is not (Speaker.USER if pos % 2 == 1 else Speaker.AGENT):
            raise JsonInputError(f"speaker alternation violated at turn {pos} of dialogue {dialogue_id}", where)


def _synthetic_dialogue(obj: object, where: tuple) -> Dialogue:
    dialogue_id = get(check(obj, dict, where), "id", str, where)
    turns = []
    for i, turn_obj in enumerate(get(obj, "turns", list, where)):
        at = where + ("turns", i)
        index, tag = get(check(turn_obj, dict, at), "index", int, at), get(turn_obj, "speaker", str, at)
        if tag not in ("USER", "AGENT"):
            reject(at + ("speaker",), "must be 'USER' or 'AGENT'", tag)
        turns.append(Turn(index=index, speaker=Speaker[tag], transcript=get(turn_obj, "transcript", str, at)))
    _check_turns(dialogue_id, turns, where)
    # a gold state's key is its user turn's index (checked above to be its position) as write_corpus writes it
    user_keys = {str(pos): pos for pos, turn in enumerate(turns, start=1) if turn.speaker is Speaker.USER}
    gold = {}
    for key, state_obj in get(obj, "gold_states", dict, where, default={}).items():
        if key not in user_keys:
            rule = f"keys must name user turns of dialogue {dialogue_id!r} ({', '.join(user_keys)})"
            reject(where + ("gold_states",), rule, key)
        gold[user_keys[key]] = read_state(state_obj, where + ("gold_states", key))
    return Dialogue(id=dialogue_id, turns=turns, gold_states=gold)


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
    for part, entries in (("groups", groups), ("categorical_values", values)):
        for key, value in entries.items():
            if "-" not in key:
                reject(where + (part,), "keys must be 'domain-slot' names", key)
            if part == "groups" and value not in SlotTaxonomy.GROUPS:
                reject(where + (part, key), f"must be one of {list(SlotTaxonomy.GROUPS)}", value)
    by_slot = [{key.partition("-")[::2]: value for key, value in entries.items()} for entries in (groups, values)]
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
    ``spokenwoz_json``."""
    p = Path(path)
    if format == "synthetic_json":
        return _read_corpus_document(p / "corpus.json" if p.is_dir() else p, _synthetic_document)
    if format == "spokenwoz_json":
        return _read_corpus_document(p / "data.json" if p.is_dir() else p, _spokenwoz_document), None
    raise ValueError(f"unknown corpus format {format!r}")


def load_corpus(path: str | Path, format: str, read: TurnSelector | None = None) -> list[Dialogue]:
    """``parse_corpus`` plus feature sidecars from the ``features/`` directory
    next to the corpus document: of the turns ``read(dialogue)`` names, or of
    every turn when ``read`` is None. A turn left unread keeps no features."""
    dialogues, _ = parse_corpus(path, format)
    p = Path(path)
    _attach_features(dialogues, (p if p.is_dir() else p.parent) / "features", read)
    return dialogues
