"""Desk-scale speech pipeline: stride downsampling, connector, query compressor.

The real system's speech encoder is replaced by synthetic features; this
module provides the trainable stages between those features and a prediction
head. All arithmetic is float64 and deterministic given the configured seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import DecoderLayer, EncoderLayer, Layer, Linear, _Composite, init_matrix, sinusoidal_positions


@dataclass(frozen=True)
class CompressorConfig:
    """Dimensions and seed for the neural stack.

    The full system runs at hidden size 1024 with 16 heads; desk-scale
    defaults keep everything small enough for exhaustive checking.
    """

    d_model: int = 16
    n_heads: int = 2
    n_layers: int = 1
    n_queries: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")


def downsample(features: np.ndarray, stride: int = 6) -> np.ndarray:
    """Keep every stride-th frame starting at frame 0, of a frames x dim
    matrix or of each turn in a (turns, frames, dim) stack."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if features.ndim not in (2, 3) or features.shape[-2] == 0:
        raise ValueError(f"features must be a non-empty frames x dim matrix or stack, got shape {features.shape}")
    return features[..., ::stride, :]


class Connector(_Composite):
    """Input projection plus one pre-norm encoder layer.

    Sinusoidal position encodings are added after the projection; the encoder
    layer itself is position-agnostic.
    """

    def __init__(self, d_in: int, config: CompressorConfig, rng: np.random.Generator):
        super().__init__()
        self.d_in = d_in
        self.d_model = config.d_model
        self.proj = self.add_sublayer("proj", Linear(d_in, config.d_model, rng))
        self.layer = self.add_sublayer("layer", EncoderLayer(config.d_model, config.n_heads, rng))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not np.isfinite(x).all():
            raise ValueError("connector input contains non-finite entries")
        projected = self.proj.forward(x)
        positioned = projected + sinusoidal_positions(x.shape[-2], self.d_model)
        return self.layer.forward(positioned)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dpositioned = self.layer.backward(dout)
        return self.proj.backward(dpositioned)


class Compressor(_Composite):
    """Trainable query bank pooled over a turn with transformer-decoder layers.

    The queries are the target sequence; the turn embedding is the memory.
    Output row count equals n_queries regardless of input length.

    The query bank enters layer 0 unbroadcast, at its own batch: 1, or S
    when gradcheck stacks it as (S, n_queries, d_model). So ``ln1``, query
    self-attention, ``ln2`` and cross-attention's query projection run once
    per forward, and rows split per memory turn from the cross-attention
    scores onward. Backward reads those batch-1 caches at the memory's batch
    (see :mod:`dst_lab.neural.layers`).
    """

    def __init__(self, config: CompressorConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.add_param(
            "queries", rng.uniform(-1, 1, size=(config.n_queries, config.d_model)) / np.sqrt(config.d_model)
        )
        self.layers = [
            self.add_sublayer(f"layer{i}", DecoderLayer(config.d_model, config.n_heads, rng))
            for i in range(config.n_layers)
        ]

    def forward(self, memory: np.ndarray) -> np.ndarray:
        if memory.shape[-1] != self.config.d_model:
            raise ValueError(
                f"memory dim {memory.shape[-1]} does not match d_model {self.config.d_model}"
            )
        queries = self._params["queries"]
        q = queries.reshape((-1,) + queries.shape[-2:])
        for layer in self.layers:
            q = layer.forward(q, memory)
        return q

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dmemory_total: np.ndarray | None = None
        dq = dout
        for layer in reversed(self.layers):
            dq, dmemory = layer.backward(dq)
            dmemory_total = dmemory if dmemory_total is None else dmemory_total + dmemory
        self._grads["queries"] += dq.sum(axis=0)
        return dmemory_total


class Readout(Layer):
    """Flattening linear head: (B, rows, d_model) -> (B, n_heads, n_classes)."""

    def __init__(self, rows: int, d_model: int, n_heads: int, n_classes: int, rng: np.random.Generator):
        super().__init__()
        self.rows = rows
        self.d_model = d_model
        self.n_heads = n_heads
        self.n_classes = n_classes
        self.add_param("W", init_matrix(rng, rows * d_model, n_heads * n_classes))
        self.add_param("b", np.zeros(n_heads * n_classes))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        self._x = flat
        logits = flat @ self._params["W"] + self._params["b"]
        return logits.reshape(-1, self.n_heads, self.n_classes)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dflat = dout.reshape(dout.shape[0], -1)
        self._grads["W"] += self._x.T @ dflat
        self._grads["b"] += dflat.sum(axis=0)
        dx = dflat @ self._params["W"].T
        return dx.reshape(dout.shape[0], self.rows, self.d_model)


def build_connector(d_in: int, config: CompressorConfig) -> Connector:
    return Connector(d_in, config, np.random.default_rng(np.random.SeedSequence([config.seed, 1])))


def build_compressor(config: CompressorConfig) -> Compressor:
    return Compressor(config, np.random.default_rng(np.random.SeedSequence([config.seed, 2])))


def build_encoder_stub(d_feat: int, config: CompressorConfig) -> Linear:
    """Placeholder for the frozen speech encoder: one square linear map."""
    return Linear(d_feat, d_feat, np.random.default_rng(np.random.SeedSequence([config.seed, 0])))


def build_readout(rows: int, config: CompressorConfig, n_heads: int, n_classes: int) -> Readout:
    return Readout(
        rows,
        config.d_model,
        n_heads,
        n_classes,
        np.random.default_rng(np.random.SeedSequence([config.seed, 3])),
    )


def connector_forward(features: np.ndarray, connector: Connector) -> np.ndarray:
    """Connector over a stack of equal-length turns: (turns, frames, d_in) ->
    (turns, frames, d_model).

    Each turn of the stack goes through the same float operations, in the same
    order, as a stack of that turn alone, so its output is bitwise equal to its
    own batch-1 forward (tests/test_neural.py checks this).
    """
    if features.ndim != 3 or 0 in features.shape[:2]:
        raise ValueError(f"features must be a non-empty (turns, frames, d_in) stack, got shape {features.shape}")
    return connector.forward(features)


def compress_turn(h: np.ndarray, compressor: Compressor) -> np.ndarray:
    """Pool a stack of equal-length turn embeddings, (turns, rows, d_model),
    to (turns, n_queries, d_model); each turn's block is bitwise equal to its
    own batch-1 forward."""
    if h.ndim != 3 or 0 in h.shape[:2]:
        raise ValueError(f"turn embeddings must be a non-empty (turns, rows, d_model) stack, got shape {h.shape}")
    return compressor.forward(h)
