"""Retention probe: how much per-turn content survives query compression.

Works on synthetic corpora whose user turns all mention the same number of
slot-value pairs (``mentions_per_turn`` set). For each query count, a fresh
compressor and readout are trained to recover the mentioned values from the
compressed turn, and held-out recovery accuracy is reported.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from ..corpus import Dialogue, Speaker, ontology_values, scan_transcript_mentions
from .layers import Layer
from .pipeline import (
    CompressorConfig,
    build_compressor,
    build_connector,
    build_encoder_stub,
    build_readout,
)
from .train import TrainingConfig, TrainingDivergence, TrainingResult, accuracy, forward, train

log = logging.getLogger(__name__)


# every probe config has two attention heads and trains on the first 80% of
# the dialogues by id, scoring on the rest
N_HEADS = 2
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class ProbeHyper:
    lr: float = 0.2
    epochs: int = 600
    seed: int = 0
    d_model: int = 16

    def validate(self) -> None:
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a positive finite number, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ProbeDataset:
    features: np.ndarray  # (n_turns, frames, d_feat)
    labels: np.ndarray  # (n_turns, n_slots)
    dialogue_ids: list[str]
    n_classes: int

    @property
    def n_slots(self) -> int:
        return int(self.labels.shape[1])


def build_probe_dataset(corpus: list[Dialogue]) -> ProbeDataset:
    """Stack user turns into uniform tensors with per-slot value labels."""
    feats: list[np.ndarray] = []
    labels: list[list[int]] = []
    ids: list[str] = []
    n_classes = 0
    expected_pairs: list[tuple[str, str]] | None = None
    for dlg in sorted(corpus, key=lambda d: d.id):
        for turn in dlg.turns:
            if turn.speaker is not Speaker.USER:
                continue
            if turn.features is None:
                raise ValueError(f"turn {turn.index} of {dlg.id} has no features")
            mentions = scan_transcript_mentions(turn.transcript)
            if not mentions:
                raise ValueError(
                    f"turn {turn.index} of {dlg.id} has no parseable mentions; "
                    "generate the probe corpus with mentions_per_turn set"
                )
            pairs = [(d, s) for d, s, _ in mentions]
            if expected_pairs is None:
                expected_pairs = pairs
            elif pairs != expected_pairs:
                raise ValueError(
                    f"probe requires a uniform slot schedule; {dlg.id} turn {turn.index} "
                    f"mentions {pairs}, expected {expected_pairs}"
                )
            row_labels = []
            for domain, slot, value in mentions:
                values = ontology_values(domain, slot)
                row_labels.append(values.index(value))
                n_classes = max(n_classes, len(values))
            feats.append(turn.features)
            labels.append(row_labels)
            ids.append(dlg.id)
    if not feats:
        raise ValueError("corpus has no user turns")
    shapes = {f.shape for f in feats}
    if len(shapes) != 1:
        raise ValueError(f"probe requires uniform turn shapes, found {sorted(shapes)}")
    return ProbeDataset(
        features=np.stack(feats, axis=0),
        labels=np.asarray(labels, dtype=np.int64),
        dialogue_ids=ids,
        n_classes=n_classes,
    )


def _split_indices(dataset: ProbeDataset) -> tuple[np.ndarray, np.ndarray]:
    unique_ids = sorted(set(dataset.dialogue_ids))
    if len(unique_ids) < 2:
        raise ValueError(
            f"probe needs at least 2 dialogues, got {len(unique_ids)}: one dialogue must be held out for scoring"
        )
    n_train = max(1, min(len(unique_ids) - 1, int(round(TRAIN_FRACTION * len(unique_ids)))))
    train_ids = set(unique_ids[:n_train])
    is_train = np.asarray([d in train_ids for d in dataset.dialogue_ids])
    return np.where(is_train)[0], np.where(~is_train)[0]


def _train_with_retry(
    stages: list[Layer], dataset: tuple[np.ndarray, np.ndarray], hyper: ProbeHyper
) -> TrainingResult:
    """Plain gradient descent diverges above a data-dependent step size; retry
    the full schedule from the same initial stages at half the rate when that
    happens."""
    lr = hyper.lr
    last: TrainingDivergence | None = None
    for _ in range(4):
        try:
            return train(stages, dataset, TrainingConfig(lr=lr, epochs=hyper.epochs))
        except TrainingDivergence as exc:
            log.warning("training diverged at lr=%.4f; retrying at %.4f", lr, lr / 2)
            last = exc
            lr /= 2
    raise last


def probe_retention(
    corpus: list[Dialogue],
    n_queries_list: list[int],
    hyper: ProbeHyper | None = None,
) -> dict[int, float]:
    """Held-out slot-recovery accuracy per query count.

    The encoder stub stays frozen (the published two-stage recipe freezes the
    encoder during state-tracking training); the compressor and readout train
    jointly, with the connector frozen so the contrast between query counts
    isolates compressor capacity. Both frozen stages are built once and run
    once over the train rows and once over the held-out rows; only
    ``[compressor, readout]`` is trained.
    """
    if not n_queries_list:
        return {}
    hyper = hyper or ProbeHyper()
    hyper.validate()
    dataset = build_probe_dataset(corpus)
    train_idx, held_idx = _split_indices(dataset)
    d_feat = dataset.features.shape[2]
    base = CompressorConfig(d_model=hyper.d_model, n_heads=N_HEADS, seed=hyper.seed)
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
        outcome = _train_with_retry(stages, (train_x, dataset.labels[train_idx]), hyper)
        acc = accuracy(forward(outcome.stages, held_x), dataset.labels[held_idx])
        log.info(
            "probe n_queries=%d train_loss=%.4f heldout_accuracy=%.4f",
            n_queries,
            outcome.trace[-1],
            acc,
        )
        results[n_queries] = acc
    return results
