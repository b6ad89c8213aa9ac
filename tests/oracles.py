"""Independent brute-force reference implementations used by the tests.

Everything here is written straight-line from the evaluation contract and must
stay independent of the library code it checks: no imports from
dst_lab.postprocess, dst_lab.metrics, dst_lab.assembly or dst_lab.neural. The
neural oracles call a layer's own ``forward`` where they need one, never a
pipeline function. The one exception is ``oracle_probe_retention``: it checks
how the probe schedules its configs, not their numerics, so it is the serial
loop over the probe's own building and training steps.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np

from dst_lab.corpus import (
    ONTOLOGY,
    Dialogue,
    DialogueState,
    Speaker,
    SplitMix64,
    StateInvariantError,
    Turn,
    _check_turns,
    _feature_sidecar_name,
    derive_key,
    ontology_values,
    read_feature_sidecar,
)
from dst_lab.jsonio import check, get, reject
from dst_lab.neural import probe
from dst_lab.neural.pipeline import CompressorConfig, build_compressor, build_connector, build_encoder_stub, build_readout
from dst_lab.neural.train import accuracy, forward
from dst_lab.state_codec import ParseFailure, PredictionRecord, Strategy


def oracle_state_domains(domains: list[str], slots: dict[tuple[str, str], str]) -> list[str]:
    """The domains a DialogueState keeps, by list scan: the first of each, in
    order. A slot whose domain is not among them raises DialogueState's error."""
    seen: list[str] = []
    for d in domains:
        if d not in seen:
            seen.append(d)
    for (domain, slot), value in slots.items():
        if domain not in seen:
            raise StateInvariantError(f"slot ({domain}, {slot}) = {value!r} references a domain not in {seen}")
    return seen


# The field-by-field readers of a state, a synthetic dialogue and a prediction
# line, as dst_lab.corpus and dst_lab.state_codec had them before each gained
# a branch for valid input: every check in its place, each a get or check call.
# Each library reader must return what its oracle returns, or raise its error.
_DOMAINS, _SLOTS = list[str], dict[str, dict[str, str]]


def read_state(obj: object, where: tuple) -> DialogueState:
    """The state of a ``{"domains": [...], "slots": {domain: {slot: value}}}`` object at
    ``where`` (as ``DialogueState.to_json_obj`` writes it); a domain with slots joins ``domains``."""
    domains = get(check(obj, dict, where), "domains", _DOMAINS, where, default=[])
    nested = get(obj, "slots", _SLOTS, where, default={})
    slots = {(domain, slot): value for domain, slot_map in nested.items() for slot, value in slot_map.items()}
    return DialogueState(domains + [domain for domain in nested if domain not in domains], slots)


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


def oracle_levenshtein_distance(a: str, b: str) -> int:
    rows = len(a) + 1
    cols = len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
    return dist[rows - 1][cols - 1]


def oracle_levenshtein_ratio(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - oracle_levenshtein_distance(a, b) / longest


def oracle_normalize(value: str) -> str:
    return " ".join(value.split()).lower()


def oracle_canonicalize_time(value: str) -> str:
    """Independent (parser-based, no single regex) 24-hour canonicalizer."""
    v = value.strip().lower()
    if v in ("noon", "midday"):
        return "12:00"
    if v == "midnight":
        return "00:00"
    if v.startswith("at "):
        v = v[3:].strip()
    meridiem = None
    for suffix in ("a.m.", "p.m.", "am", "pm"):
        if v.endswith(suffix):
            meridiem = suffix.replace(".", "")
            v = v[: -len(suffix)].strip()
            break
    for sep in (":", "."):
        if sep in v:
            hh, _, mm = v.partition(sep)
            break
    else:
        hh, mm = v, "00"
    hh, mm = hh.strip(), mm.strip()
    if not (hh.isdigit() and mm.isdigit() and len(mm) == 2 and len(hh) in (1, 2)):
        return value
    hour, minute = int(hh), int(mm)
    if minute > 59:
        return value
    if meridiem is not None:
        if hour < 1 or hour > 12:
            return value
        if meridiem == "am" and hour == 12:
            hour = 0
        elif meridiem == "pm" and hour != 12:
            hour += 12
    elif hour > 23:
        return value
    return "%02d:%02d" % (hour, minute)


def oracle_value_form(value: str, group: str, time_canonicalization: bool) -> str:
    v = oracle_normalize(value)
    if group == "time" and time_canonicalization:
        v = oracle_canonicalize_time(v)
    return v


def oracle_values_match(
    pred: str,
    ref: str,
    group: str,
    threshold: float,
    fuzzy_groups: set[str],
    time_canonicalization: bool,
) -> bool:
    p = oracle_value_form(pred, group, time_canonicalization)
    r = oracle_value_form(ref, group, time_canonicalization)
    if group in fuzzy_groups:
        return oracle_levenshtein_ratio(p, r) >= threshold
    return p == r


def _slots_lower(state) -> dict[tuple[str, str], str]:
    return {(d.lower(), s.lower()): v for (d, s), v in state.slots.items()}


def oracle_turn_correct(pred, ref, groups, threshold, fuzzy_groups, canon) -> bool:
    pred_slots = _slots_lower(pred)
    ref_slots = _slots_lower(ref)
    if set(pred_slots.keys()) != set(ref_slots.keys()):
        return False
    for key in ref_slots:
        group = groups(key[0], key[1])
        if not oracle_values_match(
            pred_slots[key], ref_slots[key], group, threshold, fuzzy_groups, canon
        ):
            return False
    return True


def oracle_jga(predictions, references, groups, threshold, fuzzy_groups, canon) -> float:
    keys = sorted(references.keys())
    if not keys:
        return 0.0
    correct = 0
    for key in keys:
        if oracle_turn_correct(
            predictions[key], references[key], groups, threshold, fuzzy_groups, canon
        ):
            correct += 1
    return correct / len(keys)


def oracle_domain_accuracy(predictions, references) -> float:
    keys = sorted(references.keys())
    if not keys:
        return 0.0
    correct = 0
    for key in keys:
        pred_domains = set(d.lower() for d in predictions[key].domains)
        ref_domains = set(d.lower() for d in references[key].domains)
        if pred_domains == ref_domains:
            correct += 1
    return correct / len(keys)


def oracle_jga_per_turn(predictions, references, groups, threshold, fuzzy_groups, canon):
    totals: dict[int, int] = {}
    hits: dict[int, int] = {}
    for key in sorted(references.keys()):
        idx = key[1]
        totals[idx] = totals.get(idx, 0) + 1
        if oracle_turn_correct(
            predictions[key], references[key], groups, threshold, fuzzy_groups, canon
        ):
            hits[idx] = hits.get(idx, 0) + 1
    return {idx: (hits.get(idx, 0) / totals[idx], totals[idx]) for idx in sorted(totals)}


def oracle_group_f1(predictions, references, groups, threshold, fuzzy_groups, canon):
    tally = {g: {"tp": 0, "fp": 0, "fn": 0} for g in ("categorical", "time", "open", "profile")}
    for key in sorted(references.keys()):
        pred_slots = _slots_lower(predictions[key])
        ref_slots = _slots_lower(references[key])
        for slot_key in ref_slots:
            group = groups(slot_key[0], slot_key[1])
            if slot_key in pred_slots and oracle_values_match(
                pred_slots[slot_key], ref_slots[slot_key], group, threshold, fuzzy_groups, canon
            ):
                tally[group]["tp"] += 1
            else:
                tally[group]["fn"] += 1
        for slot_key in pred_slots:
            group = groups(slot_key[0], slot_key[1])
            if slot_key not in ref_slots or not oracle_values_match(
                pred_slots[slot_key], ref_slots[slot_key], group, threshold, fuzzy_groups, canon
            ):
                tally[group]["fp"] += 1
    out = {}
    for group, c in tally.items():
        p = c["tp"] / (c["tp"] + c["fp"]) if c["tp"] + c["fp"] else 0.0
        r = c["tp"] / (c["tp"] + c["fn"]) if c["tp"] + c["fn"] else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        out[group] = (p, r, f1, c["tp"], c["fp"], c["fn"])
    return out


def oracle_error_breakdown(predictions, references, groups, canon, top_k):
    entries: dict[tuple[str, str], dict] = {}

    def entry(slot_key):
        return entries.setdefault(
            slot_key, {"insertions": 0, "deletions": 0, "ratios": []}
        )

    for key in sorted(references.keys()):
        pred_slots = _slots_lower(predictions[key])
        ref_slots = _slots_lower(references[key])
        for slot_key in pred_slots:
            if slot_key not in ref_slots:
                entry(slot_key)["insertions"] += 1
        for slot_key in ref_slots:
            if slot_key not in pred_slots:
                entry(slot_key)["deletions"] += 1
            else:
                group = groups(slot_key[0], slot_key[1])
                ratio = oracle_levenshtein_ratio(
                    oracle_value_form(pred_slots[slot_key], group, canon),
                    oracle_value_form(ref_slots[slot_key], group, canon),
                )
                entry(slot_key)["ratios"].append(ratio)

    def score(item):
        slot_key, e = item
        imperfect = sum(1 for r in e["ratios"] if r < 1.0)
        return (-(e["insertions"] + e["deletions"] + imperfect), slot_key)

    ranked = sorted(entries.items(), key=score)
    return dict(ranked[:top_k])


def oracle_numeric_gradients(net, x, eps: float) -> dict:
    """Central differences one parameter entry at a time, two batch-1 forwards each.

    ``net`` is any layer with ``params()`` and ``forward``; the loss is the sum
    of its outputs. Gradients are flat, keyed by the dotted parameter name.
    """
    numeric = {}
    for name, param in net.params().items():
        flat = param.reshape(-1)
        grad = [0.0] * flat.size
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            f_plus = float(net.forward(x).sum())
            flat[i] = original - eps
            f_minus = float(net.forward(x).sum())
            flat[i] = original
            grad[i] = (f_plus - f_minus) / (2.0 * eps)
        numeric[name] = grad
    return numeric


class OracleLayerNorm:
    """Layer normalisation with means through ``ndarray.mean``.

    ``backward`` returns ``(dx, dgamma, dbeta)`` for ordinary (unstacked)
    parameters; ``forward`` also broadcasts stacked ones.
    """

    EPS = 1e-6

    def __init__(self, gamma: np.ndarray, beta: np.ndarray):
        self.gamma = gamma
        self.beta = beta
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered**2).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        normed = centered * inv_std
        self._cache = (normed, inv_std)
        return normed * self.gamma + self.beta

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        normed, inv_std = self._cache
        dgamma = (dout * normed).sum(axis=tuple(range(dout.ndim - 1)))
        dbeta = dout.sum(axis=tuple(range(dout.ndim - 1)))
        dnormed = dout * self.gamma
        dx = (
            dnormed
            - dnormed.mean(axis=-1, keepdims=True)
            - normed * (dnormed * normed).mean(axis=-1, keepdims=True)
        ) * inv_std
        return dx, dgamma, dbeta


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x * x * x)))


def oracle_gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of the tanh GELU; ``t`` is the forward's tanh."""
    x2 = x * x
    dinner = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * 0.044715 * x2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner


def oracle_softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_feed_forward_backward(params: dict, cache: tuple, dout: np.ndarray) -> tuple[np.ndarray, dict]:
    """Backward pass of the two-layer GELU MLP from its forward cache
    ``(x, pre, tanh, hidden)``; returns the input gradient and the parameter
    gradients by name."""
    x, pre, t, hidden = cache
    grads = {
        "W2": np.tensordot(hidden, dout, axes=((0, 1), (0, 1))),
        "b2": dout.sum(axis=(0, 1)),
    }
    dhidden = dout @ params["W2"].T
    dpre = dhidden * oracle_gelu_grad(pre, t)
    grads["W1"] = np.tensordot(x, dpre, axes=((0, 1), (0, 1)))
    grads["b1"] = dpre.sum(axis=(0, 1))
    return dpre @ params["W1"].T, grads


def oracle_broadcast_cache(a: np.ndarray, batch: int) -> np.ndarray:
    """A cache at ``batch`` as ``MultiHeadAttention.backward`` first read it:
    a stride-0 ``np.broadcast_to`` view, which each ``tensordot`` copies."""
    return np.broadcast_to(a, (batch, *a.shape[1:]))


def oracle_compressor_forward(compressor, memory: np.ndarray) -> np.ndarray:
    """The compressor forward with the query bank copied to the memory's batch
    before decoder layer 0, so every sublayer caches full-batch arrays.

    ``compressor.backward`` after this forward is the backward over those
    copies, the reference for the one that reads batch-1 caches.
    """
    queries = compressor.params()["queries"]
    q = np.broadcast_to(queries, np.broadcast_shapes((memory.shape[0], 1, 1), queries.shape)).copy()
    for layer in compressor.layers:
        q = layer.forward(q, memory)
    return q


def oracle_to_nested(state: DialogueState) -> dict[str, dict[str, str]]:
    """``DialogueState.to_nested`` by one scan of the slots per domain: domains
    in insertion order, each with its slots sorted, a domain without slots
    left out."""
    nested: dict[str, dict[str, str]] = {}
    for domain in state.domains:
        entries = {s: v for (d, s), v in state.slots.items() if d == domain}
        if entries:
            nested[domain] = {s: entries[s] for s in sorted(entries)}
    return nested


def oracle_compact_json(obj: object) -> str:
    """The compact ASCII JSON text of ``obj``, from a new encoder per call."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


# The noisy predictor's perturbations as they were written with ``derive_key``
# over the whole key at every turn. They take the predictor for its
# probabilities and call its own ``_typo`` and ``_reformat_time``.


def oracle_perturb_state(noisy, dialogue_id: str, turn_index: int, gold: DialogueState) -> DialogueState:
    """The gold state with drops, time reformats, typos and at most one
    inserted slot; the domains are filtered to those that hold a slot or are
    gold domains."""
    rng = SplitMix64(derive_key(noisy.seed, "noisy", dialogue_id, turn_index))
    domains = list(gold.domains)
    slots: dict[tuple[str, str], str] = {}
    for (domain, slot), value in sorted(gold.slots.items()):
        if rng.uniform() < noisy.drop_prob:
            continue
        if ":" in value and rng.uniform() < noisy.time_reformat_prob:
            value = noisy._reformat_time(value)
        elif rng.uniform() < noisy.typo_prob:
            value = noisy._typo(rng, value)
        slots[(domain, slot)] = value
    if rng.uniform() < noisy.insert_prob:
        domain = rng.choice(sorted(ONTOLOGY))
        slot = rng.choice(sorted(ONTOLOGY[domain]))
        if (domain, slot) not in gold.slots:
            if domain not in domains:
                domains.append(domain)
            slots[(domain, slot)] = rng.choice(ontology_values(domain, slot))
    kept_domains = [d for d in domains if any(k[0] == d for k in slots) or d in gold.domains]
    return DialogueState(kept_domains, slots)


def oracle_perturb_text(noisy, dialogue_id: str, turn_index: int, text: str) -> str:
    """``text`` with a typo in each word drawn below the typo probability."""
    rng = SplitMix64(derive_key(noisy.seed, "asr", dialogue_id, turn_index))
    out = []
    for word in text.split():
        if rng.uniform() < noisy.typo_prob:
            word = noisy._typo(rng, word)
        out.append(word)
    return " ".join(out)


def oracle_total_rows(
    strategy: Strategy, per_turn_rows: list[int], n_queries: int, *, compress_current: bool = False
) -> int:
    """Rows of the context assembled at turn n, given the embedded rows of turns 1..n.

    Multimodal reads turn n alone, full spoken every turn, and compressed spoken
    ``n_queries`` rows per prior turn plus the current turn (also pooled under
    ``compress_current``).
    """
    if strategy is Strategy.MULTIMODAL:
        return per_turn_rows[-1]
    if strategy is Strategy.FULL_SPOKEN:
        return sum(per_turn_rows)
    prior = (len(per_turn_rows) - 1) * n_queries
    current = n_queries if compress_current else per_turn_rows[-1]
    return prior + current


def oracle_embed_turn(embedder, dialogue, turn_index: int) -> np.ndarray:
    """One turn's embedding from batch-1 forwards of ``embedder``'s encoder
    stub and connector layers, each turn alone."""
    features = dialogue.turn(turn_index).features
    stubbed = embedder.encoder_stub.forward(features[None])[0]
    return embedder.connector.forward(stubbed[:: embedder.stride][None])[0]


def oracle_assemble(
    strategy: Strategy,
    turn_embeddings: list[np.ndarray],
    compressor=None,
    *,
    compress_current: bool = False,
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The context of user turn n, assembled from scratch, given the
    embeddings of turns 1..n; returns its speech part and the
    ``(turn_index, start_row, n_rows)`` span of each turn it holds.

    Multimodal holds turn n alone, full spoken every turn, and compressed
    spoken every prior turn pooled through its own batch-1
    ``compressor.forward`` plus turn n (also pooled under
    ``compress_current``).
    """
    if not turn_embeddings:
        raise ValueError("need at least one turn embedding")
    if strategy is Strategy.COMPRESSED_SPOKEN and compressor is None:
        raise ValueError("compressed_spoken requires a compressor")
    current = len(turn_embeddings)
    turns = [current] if strategy is Strategy.MULTIMODAL else range(1, current + 1)
    parts: list[np.ndarray] = []
    spans: list[tuple[int, int, int]] = []
    row = 0
    for i in turns:
        block = turn_embeddings[i - 1]
        if strategy is Strategy.COMPRESSED_SPOKEN and (i != current or compress_current):
            block = compressor.forward(block[None])[0]
        parts.append(block)
        spans.append((i, row, block.shape[0]))
        row += block.shape[0]
    return np.concatenate(parts, axis=0), spans


def oracle_build_prompt(
    strategy: Strategy,
    dialogue,
    turn_index: int,
    hypotheses: dict[int, str],
    agent_texts: dict[int, str] | None = None,
) -> str:
    """Prompt text for user turn ``turn_index``, rebuilt from scratch.

    Every prior turn is rendered in order: a user turn as its hypothesis
    (which must be given), an agent turn as its ``agent_texts`` entry or else
    its transcript. Spoken prompts carry no transcripts.
    """
    turn = dialogue.turns[turn_index - 1]
    if turn.speaker is not Speaker.USER:
        raise ValueError(f"turn {turn_index} of dialogue {dialogue.id} is not a user turn")
    if strategy is not Strategy.MULTIMODAL:
        return '{"domains": '
    entries = []
    for prior in dialogue.turns[: turn_index - 1]:
        if prior.speaker is Speaker.USER:
            if prior.index not in hypotheses:
                raise ValueError(f"missing hypothesis for prior user turn {prior.index}")
            entries.append(f"USER: {hypotheses[prior.index]}")
        elif agent_texts is not None and prior.index in agent_texts:
            entries.append(f"AGENT: {agent_texts[prior.index]}")
        else:
            entries.append(f"AGENT: {prior.transcript}")
    return '{ "history": ' + json.dumps(" ; ".join(entries), ensure_ascii=True) + ', "user_last_turn": '


# Two-pass JSON repair: extract (and close) the outermost object, then strip
# trailing commas from the fragment in a second scan.


def oracle_extract_json_object(text: str) -> tuple[str, list[str]]:
    """Outermost {...} span, repaired if the text ends mid-object."""
    diagnostics: list[str] = []
    start = text.find("{")
    if start < 0:
        raise ParseFailure("no JSON object found", text)
    depth = 0
    in_string = False
    escaped = False
    end = None
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                end = i + 1
                break
    if end is not None:
        return text[start:end], diagnostics
    fragment = text[start:].rstrip()
    if in_string:
        fragment += '"'
        diagnostics.append("repaired: unterminated string")
    fragment = fragment.rstrip()
    if fragment.endswith(","):
        fragment = fragment[:-1].rstrip()
        diagnostics.append("repaired: trailing comma at end of output")
    # The repairs above touch no brace outside a string, so the scan's depth
    # (at least 1 here) is still the number of unclosed objects.
    fragment += "}" * depth
    diagnostics.append(f"repaired: closed {depth} unterminated object(s)")
    return fragment, diagnostics


def oracle_strip_trailing_commas(text: str) -> tuple[str, bool]:
    out: list[str] = []
    in_string = False
    escaped = False
    changed = False
    for ch in text:
        if in_string:
            out.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
            out.append(ch)
            continue
        if ch in "}]":
            j = len(out) - 1
            while j >= 0 and out[j] in " \t\r\n":
                j -= 1
            if j >= 0 and out[j] == ",":
                del out[j]
                changed = True
        out.append(ch)
    return "".join(out), changed


def oracle_decode_repaired(text: str) -> tuple[object, list[str]]:
    """The first JSON object in ``text`` after repairs, with their diagnostics."""
    fragment, diagnostics = oracle_extract_json_object(text)
    fragment, stripped = oracle_strip_trailing_commas(fragment)
    if stripped:
        diagnostics.append("repaired: trailing comma")
    try:
        return json.loads(fragment), diagnostics
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"unparseable output: {exc.msg}", text) from exc


def oracle_probe_retention(corpus: list[Dialogue], n_queries_list: list[int], hyper) -> dict[int, float]:
    """``probe_retention`` as it was before its configs trained side by side:
    one process trains each query count in turn."""
    if not n_queries_list:
        return {}
    hyper.validate()
    dataset = probe.build_probe_dataset(corpus)
    train_idx, held_idx = probe._split_indices(dataset)
    d_feat = dataset.features.shape[2]
    base = CompressorConfig(d_model=hyper.d_model, n_heads=probe.N_HEADS, seed=hyper.seed)
    frozen = [build_encoder_stub(d_feat, base), build_connector(d_feat, base)]
    train_x = forward(frozen, dataset.features[train_idx])
    held_x = forward(frozen, dataset.features[held_idx])
    results: dict[int, float] = {}
    for n_queries in n_queries_list:
        config = replace(base, n_queries=n_queries)
        stages = [
            build_compressor(config),
            build_readout(n_queries, config, dataset.n_slots, dataset.n_classes),
        ]
        _, logits = probe._train_with_retry(stages, (train_x, dataset.labels[train_idx]), hyper, held_x)
        results[n_queries] = accuracy(logits, dataset.labels[held_idx])
    return results


def oracle_attach_features(dialogues: list[Dialogue], features_dir, read) -> None:
    """``corpus._attach_features`` as it was when it listed ``features_dir``
    once and opened the sidecar of each turn ``read`` names that the listing
    holds."""
    if not features_dir.is_dir():
        return
    listed = set(os.listdir(features_dir))
    directory = os.path.join(features_dir, "")
    cols = None
    for dlg in dialogues:
        for turn in dlg.turns if read is None else [dlg.turn(i) for i in read(dlg)]:
            name = _feature_sidecar_name(dlg.id, turn.index)
            if name in listed:
                turn.features = read_feature_sidecar(directory + name, dlg.id, turn.index, cols)
                cols = turn.features.shape[1]