"""Transformer building blocks in float64 numpy with analytic backward passes.

All layers operate on batched tensors of shape (B, T, D). Forward calls cache
what the matching backward pass needs; backward accumulates parameter
gradients and returns the input gradient. Gradients are verified against
central finite differences by the gradcheck module.

A parameter may also carry a leading stack axis of size S in place of the
batch axis: a matrix of shape (S, d_in, d_out), a vector of shape (S, 1, n).
Every forward broadcasts it like a batch axis, so a batch-1 input yields S
outputs, one per stacked parameter value. Gradcheck relies on this to
evaluate a block of perturbed parameter copies in one forward; backward
passes support only ordinary parameters.

The elementwise kernels (``gelu_grad``, ``softmax_last``, the GELU factor of
``FeedForward.backward`` and ``LayerNorm.backward``) are ``out=`` ufunc chains.
They write only into temporaries they allocated themselves, never into an
input or a cached array, and they keep every operation, its operands and its
association (``0.5 * x * (1 - t*t) * dinner`` stays
``((0.5*x) * (1-t*t)) * dinner``). So they are bitwise equal to the
straight-line expressions in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools

import numpy as np

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_GELU_C = 0.044715


def init_matrix(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(d_in)
    return rng.uniform(-bound, bound, size=(d_in, d_out))


def _gelu_with_tanh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.tanh(_SQRT_2_OVER_PI * (x + _GELU_C * x * x * x))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Derivative of the tanh GELU at ``x``; ``t`` is the forward's tanh, if cached."""
    x2 = np.multiply(x, x)
    if t is None:
        t = np.multiply(x2, _GELU_C)
        t *= x
        t += x
        t *= _SQRT_2_OVER_PI
        np.tanh(t, out=t)
    # dinner = sqrt(2/pi) * (1 + 3c * x^2), built in place of x^2
    dinner = x2
    dinner *= 3.0 * _GELU_C
    dinner += 1.0
    dinner *= _SQRT_2_OVER_PI
    # 0.5 * x * (1 - t*t) * dinner
    out = np.multiply(x, 0.5)
    tmp = np.multiply(t, t)
    np.subtract(1.0, tmp, out=tmp)
    out *= tmp
    out *= dinner
    # + 0.5 * (1 + t)
    np.add(t, 1.0, out=tmp)
    tmp *= 0.5
    out += tmp
    return out


def softmax_last(x: np.ndarray) -> np.ndarray:
    e = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


@functools.lru_cache(maxsize=256)
def sinusoidal_positions(n: int, d_model: int) -> np.ndarray:
    """Standard fixed sine/cosine position table of shape (n, d_model).

    Tables are cached per shape and shared by every caller, so they are
    read-only.
    """
    positions = np.arange(n, dtype=np.float64)[:, None]
    dims = np.arange(d_model, dtype=np.float64)[None, :]
    angle_rates = 1.0 / np.power(10000.0, (2.0 * np.floor(dims / 2.0)) / d_model)
    angles = positions * angle_rates
    table = np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))
    table.flags.writeable = False
    return table


class Layer:
    """Base: named parameters with matching gradient buffers."""

    def __init__(self) -> None:
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add_param(self, name: str, value: np.ndarray) -> np.ndarray:
        self._params[name] = value.astype(np.float64)
        self._grads[name] = np.zeros_like(self._params[name])
        return self._params[name]

    def params(self) -> dict[str, np.ndarray]:
        return self._params

    def grads(self) -> dict[str, np.ndarray]:
        return self._grads

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0


class Linear(Layer):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.add_param("W", init_matrix(rng, d_in, d_out))
        self.add_param("b", np.zeros(d_out))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self._params["W"] + self._params["b"]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x = self._x
        self._grads["W"] += np.tensordot(x, dout, axes=(tuple(range(x.ndim - 1)), tuple(range(dout.ndim - 1))))
        self._grads["b"] += dout.sum(axis=tuple(range(dout.ndim - 1)))
        return dout @ self._params["W"].T


class LayerNorm(Layer):
    EPS = 1e-6

    def __init__(self, d_model: int):
        super().__init__()
        self.add_param("gamma", np.ones(d_model))
        self.add_param("beta", np.zeros(d_model))
        self._cache: tuple | None = None

    # Means are np.add.reduce over the last axis divided by its length: that
    # is what ndarray.mean computes for float64, bit for bit, without the
    # Python-level wrapper it runs on every call.
    def forward(self, x: np.ndarray) -> np.ndarray:
        d = x.shape[-1]
        mean = np.add.reduce(x, axis=-1, keepdims=True) / d
        centered = x - mean
        var = np.add.reduce(centered**2, axis=-1, keepdims=True) / d
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        normed = centered * inv_std
        self._cache = (normed, inv_std)
        return normed * self._params["gamma"] + self._params["beta"]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        normed, inv_std = self._cache
        d = normed.shape[-1]
        lead = tuple(range(dout.ndim - 1))
        prod = np.multiply(dout, normed)
        self._grads["gamma"] += prod.sum(axis=lead)
        self._grads["beta"] += dout.sum(axis=lead)
        # standard layernorm backward in terms of the normalized activations:
        # dx = (dnormed - mean(dnormed) - normed * mean(dnormed * normed)) * inv_std
        dx = np.multiply(dout, self._params["gamma"])
        np.multiply(dx, normed, out=prod)
        mean_dot = np.add.reduce(prod, axis=-1, keepdims=True)
        mean_dot /= d
        mean = np.add.reduce(dx, axis=-1, keepdims=True)
        mean /= d
        np.multiply(normed, mean_dot, out=prod)
        dx -= mean
        dx -= prod
        dx *= inv_std
        return dx


class MultiHeadAttention(Layer):
    """Scaled dot-product attention; self-attention when memory is the input."""

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        for name in ("Wq", "Wk", "Wv", "Wo"):
            self.add_param(name, init_matrix(rng, d_model, d_model))
        # no key bias: softmax is invariant to a constant shift of every score
        # in a row, so a key bias has an identically zero gradient
        for name in ("bq", "bv", "bo"):
            self.add_param(name, np.zeros(d_model))
        self._cache: tuple | None = None

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, t, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)

    def forward(self, x_q: np.ndarray, x_kv: np.ndarray) -> np.ndarray:
        p = self._params
        q = self._split(x_q @ p["Wq"] + p["bq"])
        k = self._split(x_kv @ p["Wk"])
        v = self._split(x_kv @ p["Wv"] + p["bv"])
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(self.d_head)
        attn = softmax_last(scores)
        context = attn @ v
        merged = self._merge(context)
        out = merged @ p["Wo"] + p["bo"]
        self._cache = (x_q, x_kv, q, k, v, attn, merged)
        return out

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p, g = self._params, self._grads
        x_q, x_kv, q, k, v, attn, merged = self._cache
        g["Wo"] += np.tensordot(merged, dout, axes=((0, 1), (0, 1)))
        g["bo"] += dout.sum(axis=(0, 1))
        dmerged = dout @ p["Wo"].T
        dcontext = self._split(dmerged)
        dattn = dcontext @ v.transpose(0, 1, 3, 2)
        dv = attn.transpose(0, 1, 3, 2) @ dcontext
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= np.sqrt(self.d_head)
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q
        dq_flat, dk_flat, dv_flat = self._merge(dq), self._merge(dk), self._merge(dv)
        g["Wq"] += np.tensordot(x_q, dq_flat, axes=((0, 1), (0, 1)))
        g["bq"] += dq_flat.sum(axis=(0, 1))
        g["Wk"] += np.tensordot(x_kv, dk_flat, axes=((0, 1), (0, 1)))
        g["Wv"] += np.tensordot(x_kv, dv_flat, axes=((0, 1), (0, 1)))
        g["bv"] += dv_flat.sum(axis=(0, 1))
        dx_q = dq_flat @ p["Wq"].T
        dx_kv = dk_flat @ p["Wk"].T + dv_flat @ p["Wv"].T
        return dx_q, dx_kv


class FeedForward(Layer):
    """Two-layer MLP with GELU; hidden width is ``expansion`` times d_model."""

    def __init__(self, d_model: int, rng: np.random.Generator, expansion: int = 4):
        super().__init__()
        d_hidden = expansion * d_model
        self.add_param("W1", init_matrix(rng, d_model, d_hidden))
        self.add_param("b1", np.zeros(d_hidden))
        self.add_param("W2", init_matrix(rng, d_hidden, d_model))
        self.add_param("b2", np.zeros(d_model))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        p = self._params
        pre = x @ p["W1"] + p["b1"]
        hidden, tanh_cache = _gelu_with_tanh(pre)
        self._cache = (x, pre, tanh_cache, hidden)
        return hidden @ p["W2"] + p["b2"]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        p, g = self._params, self._grads
        x, pre, tanh_cache, hidden = self._cache
        g["W2"] += np.tensordot(hidden, dout, axes=((0, 1), (0, 1)))
        g["b2"] += dout.sum(axis=(0, 1))
        dpre = dout @ p["W2"].T
        dpre *= gelu_grad(pre, tanh_cache)
        g["W1"] += np.tensordot(x, dpre, axes=((0, 1), (0, 1)))
        g["b1"] += dpre.sum(axis=(0, 1))
        return dpre @ p["W1"].T


class _Composite(Layer):
    """Layer whose parameters are the union of named sublayers."""

    def __init__(self) -> None:
        super().__init__()
        self._sublayers: dict[str, Layer] = {}

    def add_sublayer(self, name: str, layer: Layer) -> Layer:
        self._sublayers[name] = layer
        return layer

    def params(self) -> dict[str, np.ndarray]:
        out = dict(self._params)
        for name, layer in self._sublayers.items():
            for pname, value in layer.params().items():
                out[f"{name}.{pname}"] = value
        return out

    def grads(self) -> dict[str, np.ndarray]:
        out = dict(self._grads)
        for name, layer in self._sublayers.items():
            for pname, value in layer.grads().items():
                out[f"{name}.{pname}"] = value
        return out

    def zero_grads(self) -> None:
        super().zero_grads()
        for layer in self._sublayers.values():
            layer.zero_grads()


class EncoderLayer(_Composite):
    """Pre-norm self-attention block: x + SA(LN(x)), then x + FF(LN(x))."""

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        super().__init__()
        self.ln1 = self.add_sublayer("ln1", LayerNorm(d_model))
        self.attn = self.add_sublayer("attn", MultiHeadAttention(d_model, n_heads, rng))
        self.ln2 = self.add_sublayer("ln2", LayerNorm(d_model))
        self.ff = self.add_sublayer("ff", FeedForward(d_model, rng))

    def forward(self, x: np.ndarray) -> np.ndarray:
        normed = self.ln1.forward(x)
        a = x + self.attn.forward(normed, normed)
        return a + self.ff.forward(self.ln2.forward(a))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        da = dout + self.ln2.backward(self.ff.backward(dout))
        dq, dkv = self.attn.backward(da)
        return da + self.ln1.backward(dq + dkv)


class DecoderLayer(_Composite):
    """Pre-norm decoder block: query self-attention, cross-attention, feed-forward."""

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        super().__init__()
        self.ln1 = self.add_sublayer("ln1", LayerNorm(d_model))
        self.self_attn = self.add_sublayer("self_attn", MultiHeadAttention(d_model, n_heads, rng))
        self.ln2 = self.add_sublayer("ln2", LayerNorm(d_model))
        self.cross_attn = self.add_sublayer("cross_attn", MultiHeadAttention(d_model, n_heads, rng))
        self.ln3 = self.add_sublayer("ln3", LayerNorm(d_model))
        self.ff = self.add_sublayer("ff", FeedForward(d_model, rng))

    def forward(self, q: np.ndarray, memory: np.ndarray) -> np.ndarray:
        normed = self.ln1.forward(q)
        a = q + self.self_attn.forward(normed, normed)
        b = a + self.cross_attn.forward(self.ln2.forward(a), memory)
        return b + self.ff.forward(self.ln3.forward(b))

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        db = dout + self.ln3.backward(self.ff.backward(dout))
        dq_cross, dmemory = self.cross_attn.backward(db)
        da = db + self.ln2.backward(dq_cross)
        dq_self, dkv_self = self.self_attn.backward(da)
        dq = da + self.ln1.backward(dq_self + dkv_self)
        return dq, dmemory
