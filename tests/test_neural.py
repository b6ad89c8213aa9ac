from __future__ import annotations

import numpy as np
import pytest

from dst_lab.neural.layers import (
    FeedForward,
    LayerNorm,
    MultiHeadAttention,
    _gelu_with_tanh,
    gelu_grad,
    sinusoidal_positions,
    softmax_last,
)
from dst_lab.neural.pipeline import (
    CompressorConfig,
    SpeechEmbedding,
    build_compressor,
    build_connector,
    build_encoder_stub,
    compress_turn,
    connector_forward,
    downsample,
)

from oracles import (
    OracleLayerNorm,
    gelu,
    oracle_feed_forward_backward,
    oracle_gelu_grad,
    oracle_softmax_last,
)

RNG = np.random.default_rng(1234)


def _attention(attn: MultiHeadAttention) -> np.ndarray:
    """The attention weights of the layer's last forward pass."""
    return attn._cache[5]


# ---------------------------------------------------------------------------
# downsample
# ---------------------------------------------------------------------------


def test_downsample_exact_division():
    assert downsample(np.zeros((60, 8)), 6).shape == (10, 8)


def test_downsample_ceil():
    assert downsample(np.zeros((61, 8)), 6).shape == (11, 8)


def test_downsample_identity():
    x = RNG.standard_normal((7, 3))
    assert np.array_equal(downsample(x, 1), x)


def test_downsample_keeps_every_stride_th_frame():
    x = np.arange(12, dtype=float).reshape(12, 1)
    assert np.array_equal(downsample(x, 4).ravel(), [0.0, 4.0, 8.0])


def test_downsample_errors():
    with pytest.raises(ValueError):
        downsample(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        downsample(np.zeros((4, 4)), 0)


# ---------------------------------------------------------------------------
# connector
# ---------------------------------------------------------------------------


def test_connector_shape_contract():
    config = CompressorConfig(d_model=16, n_heads=2, seed=3)
    connector = build_connector(5, config)
    out = connector_forward(RNG.standard_normal((3, 10, 5)), connector)
    assert out.shape == (3, 10, 16)


def test_connector_rejects_nonfinite():
    config = CompressorConfig(d_model=16, n_heads=2, seed=3)
    connector = build_connector(4, config)
    bad = np.full((1, 3, 4), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        connector_forward(bad, connector)


def test_connector_deterministic_given_seed():
    config = CompressorConfig(d_model=16, n_heads=2, seed=9)
    x = RNG.standard_normal((1, 6, 4))
    a = connector_forward(x, build_connector(4, config))
    b = connector_forward(x, build_connector(4, config))
    assert np.array_equal(a, b)


def test_attention_rows_sum_to_one():
    config = CompressorConfig(d_model=16, n_heads=2, seed=3)
    connector = build_connector(4, config)
    connector_forward(RNG.standard_normal((1, 9, 4)), connector)
    attn = _attention(connector.layer.attn)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12


def test_connector_matches_straight_line_oracle():
    """No-abstraction re-computation of the connector forward on a 3x4 input."""
    config = CompressorConfig(d_model=8, n_heads=2, seed=21)
    connector = build_connector(4, config)
    x = np.random.default_rng(0).standard_normal((3, 4))
    expected = connector_forward(x[None], connector)[0]

    p = connector.params()
    h = x @ p["proj.W"] + p["proj.b"]
    h = h + sinusoidal_positions(3, 8)

    def layer_norm(v, gamma, beta):
        mean = v.mean(axis=-1, keepdims=True)
        var = ((v - mean) ** 2).mean(axis=-1, keepdims=True)
        return (v - mean) / np.sqrt(var + 1e-6) * gamma + beta

    normed = layer_norm(h, p["layer.ln1.gamma"], p["layer.ln1.beta"])
    q = (normed @ p["layer.attn.Wq"] + p["layer.attn.bq"]).reshape(3, 2, 4).transpose(1, 0, 2)
    k = (normed @ p["layer.attn.Wk"]).reshape(3, 2, 4).transpose(1, 0, 2)
    v = (normed @ p["layer.attn.Wv"] + p["layer.attn.bv"]).reshape(3, 2, 4).transpose(1, 0, 2)
    ctx_heads = []
    for head in range(2):
        scores = q[head] @ k[head].T / np.sqrt(4.0)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = weights / weights.sum(axis=-1, keepdims=True)
        ctx_heads.append(weights @ v[head])
    ctx = np.concatenate(ctx_heads, axis=-1)
    a = h + ctx @ p["layer.attn.Wo"] + p["layer.attn.bo"]
    normed2 = layer_norm(a, p["layer.ln2.gamma"], p["layer.ln2.beta"])
    hidden = gelu(normed2 @ p["layer.ff.W1"] + p["layer.ff.b1"])
    out = a + hidden @ p["layer.ff.W2"] + p["layer.ff.b2"]

    assert np.allclose(out, expected, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# compressor
# ---------------------------------------------------------------------------


def test_compress_shape_contract():
    config = CompressorConfig(d_model=16, n_heads=2, n_queries=10, seed=4)
    compressor = build_compressor(config)
    out = compress_turn(RNG.standard_normal((2, 37, 16)), compressor)
    assert out.shape == (2, 10, 16)


def test_compress_single_query_attention_pooling():
    config = CompressorConfig(d_model=16, n_heads=2, n_queries=1, seed=4)
    out = compress_turn(RNG.standard_normal((1, 23, 16)), build_compressor(config))
    assert out.shape == (1, 1, 16)


def test_compress_row_count_independent_of_input_length():
    config = CompressorConfig(d_model=8, n_heads=2, n_queries=3, seed=4)
    compressor = build_compressor(config)
    for rows in (1, 2, 17, 64):
        assert compress_turn(RNG.standard_normal((1, rows, 8)), compressor).shape == (1, 3, 8)


def test_compress_dimension_mismatch():
    config = CompressorConfig(d_model=16, n_heads=2, n_queries=2, seed=4)
    with pytest.raises(ValueError, match="does not match d_model"):
        compress_turn(RNG.standard_normal((1, 5, 8)), build_compressor(config))


@pytest.mark.parametrize("shape", [(5, 8), (0, 5, 8), (2, 0, 8), (1, 2, 5, 8)])
def test_connector_and_compressor_take_only_non_empty_stacks(shape):
    config = CompressorConfig(d_model=8, n_heads=2, n_queries=2, seed=4)
    with pytest.raises(ValueError, match="non-empty"):
        connector_forward(np.zeros(shape), build_connector(8, config))
    with pytest.raises(ValueError, match="non-empty"):
        compress_turn(np.zeros(shape), build_compressor(config))


@pytest.mark.parametrize("rows", [1, 3, 7, 12, 25, 40])
def test_stacked_forwards_bitwise_equal_per_turn_forwards(rows):
    """At the run's shapes, one forward over a stack of 1-64 same-length turns
    gives, turn by turn, exactly the batch-1 forward of that turn."""
    config = CompressorConfig(d_model=16, n_heads=2, n_queries=8, seed=5)
    stub, connector, compressor = build_encoder_stub(16, config), build_connector(16, config), build_compressor(config)
    features = np.random.default_rng(rows).standard_normal((64, rows, 16))
    stubbed = np.stack([stub.forward(features[k : k + 1])[0] for k in range(64)])
    embedded = np.stack([connector_forward(stubbed[k : k + 1], connector)[0] for k in range(64)])
    pooled = np.stack([compress_turn(embedded[k : k + 1], compressor)[0] for k in range(64)])
    for size in range(1, 65):
        assert np.array_equal(stub.forward(features[:size]), stubbed[:size])
        assert np.array_equal(connector_forward(stubbed[:size], connector), embedded[:size])
        assert np.array_equal(compress_turn(embedded[:size], compressor), pooled[:size])


def test_cross_attention_matches_brute_force_softmax_mean():
    """Single head: output row = softmax-weighted mean of value-projected rows."""
    rng = np.random.default_rng(7)
    mha = MultiHeadAttention(d_model=6, n_heads=1, rng=rng)
    q_in = rng.standard_normal((1, 2, 6))
    memory = rng.standard_normal((1, 9, 6))
    out = mha.forward(q_in, memory)

    p = mha.params()
    q = q_in[0] @ p["Wq"] + p["bq"]
    k = memory[0] @ p["Wk"]
    v = memory[0] @ p["Wv"] + p["bv"]
    for row in range(2):
        scores = np.array([q[row] @ k[j] / np.sqrt(6.0) for j in range(9)])
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        context = sum(weights[j] * v[j] for j in range(9))
        expected = context @ p["Wo"] + p["bo"]
        assert np.allclose(out[0, row], expected, atol=1e-12, rtol=0)


def test_uniform_attention_is_permutation_invariant():
    """Zeroed query/key weights force uniform attention over memory rows."""
    config = CompressorConfig(d_model=8, n_heads=2, n_queries=4, seed=11)
    compressor = build_compressor(config)
    for layer in compressor.layers:
        layer.cross_attn.params()["Wq"][...] = 0.0
        layer.cross_attn.params()["Wk"][...] = 0.0
        layer.cross_attn.params()["bq"][...] = 0.0
    h = RNG.standard_normal((12, 8))
    base = compress_turn(h[None], compressor)
    permuted = compress_turn(h[None, ::-1].copy(), compressor)
    assert np.allclose(base, permuted, atol=1e-12, rtol=0)
    attn = _attention(compressor.layers[0].cross_attn)
    assert np.allclose(attn, 1.0 / 12.0, atol=0, rtol=0)


def test_compressor_multi_layer():
    config = CompressorConfig(d_model=8, n_heads=2, n_layers=3, n_queries=2, seed=5)
    out = compress_turn(RNG.standard_normal((1, 6, 8)), build_compressor(config))
    assert out.shape == (1, 2, 8)


def test_compressor_attention_rows_sum_to_one():
    config = CompressorConfig(d_model=8, n_heads=2, n_queries=3, seed=5)
    compressor = build_compressor(config)
    compress_turn(RNG.standard_normal((1, 11, 8)), compressor)
    for layer in compressor.layers:
        for attn in (_attention(layer.self_attn), _attention(layer.cross_attn)):
            assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        CompressorConfig(d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        CompressorConfig(n_queries=0)


# ---------------------------------------------------------------------------
# misc layer invariants
# ---------------------------------------------------------------------------


def test_speech_embedding_invariants():
    with pytest.raises(ValueError):
        SpeechEmbedding(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        SpeechEmbedding(np.full((2, 2), np.inf))


def test_layernorm_normalizes():
    ln = LayerNorm(8)
    x = RNG.standard_normal((2, 5, 8)) * 10 + 3
    out = ln.forward(x)
    assert np.abs(out.mean(axis=-1)).max() < 1e-9
    assert np.abs(out.std(axis=-1) - 1.0).max() < 1e-3


# (batch, rows, d_model, stack): batch-1 run shapes, probe training batches, and
# gradcheck's stacked parameter copies (stack > 0: gamma and beta of shape
# (stack, 1, d); batch == stack: a stacked input from an upstream layer)
LAYERNORM_CASES = [
    (1, 3, 16, 0),
    (1, 40, 16, 0),
    (240, 9, 16, 0),
    (240, 8, 16, 0),
    (1, 5, 8, 64),
    (64, 9, 8, 0),
    (1, 1, 4, 0),
    (3, 7, 12, 0),
]


@pytest.mark.parametrize("batch, rows, d, stack", LAYERNORM_CASES)
def test_layernorm_bitwise_equals_mean_oracle(batch, rows, d, stack):
    rng = np.random.default_rng(batch * 1000 + rows * 10 + d + stack)
    ln = LayerNorm(d)
    shape = (stack, 1, d) if stack else (d,)
    ln._params["gamma"] = 1.0 + 0.1 * rng.standard_normal(shape)
    ln._params["beta"] = 0.1 * rng.standard_normal(shape)
    oracle = OracleLayerNorm(ln._params["gamma"], ln._params["beta"])
    x = rng.standard_normal((batch, rows, d)) * 3 + 1
    out = ln.forward(x)
    assert out.tobytes() == oracle.forward(x).tobytes()
    if stack:
        return  # backward passes support only ordinary parameters
    dout = rng.standard_normal(out.shape)
    dx, dgamma, dbeta = oracle.backward(dout)
    kept = _snapshot(dout, *ln._cache)
    assert ln.backward(dout).tobytes() == dx.tobytes()
    assert ln._grads["gamma"].tobytes() == dgamma.tobytes()
    assert ln._grads["beta"].tobytes() == dbeta.tobytes()
    _assert_unchanged(kept)


def test_softmax_last_stable():
    x = np.array([[1000.0, 1000.0, 999.0]])
    s = softmax_last(x)
    assert np.isfinite(s).all()
    assert s.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# in-place kernels: bitwise equal to the straight-line oracles, and no write
# into an input or a cached array
# ---------------------------------------------------------------------------


def _snapshot(*arrays: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(a, a.copy()) for a in arrays]


def _assert_unchanged(snapshot: list[tuple[np.ndarray, np.ndarray]]) -> None:
    for array, copy in snapshot:
        assert array.tobytes() == copy.tobytes()


def _assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# probe training: 240 train rows, 1 or 8 queries over 9 frames, d_model 16
# (hidden 64); then a single row and an odd shape
@pytest.mark.parametrize("shape", [(240, 8, 64), (240, 1, 64), (240, 9, 64), (1, 1, 4), (3, 7, 12)])
@pytest.mark.parametrize("cached_tanh", [True, False])
def test_gelu_grad_bitwise_equals_oracle(shape, cached_tanh):
    x = 3.0 * np.random.default_rng(sum(shape)).standard_normal(shape)
    t = _gelu_with_tanh(x)[1] if cached_tanh else None
    kept = _snapshot(x, *([t] if cached_tanh else []))
    out = gelu_grad(x, t)
    _assert_bitwise(out, oracle_gelu_grad(x, t))
    _assert_unchanged(kept)
    assert not any(np.shares_memory(out, a) for a, _ in kept)


@pytest.mark.parametrize("shape", [(240, 2, 8, 9), (240, 2, 8, 8), (240, 2, 1, 9), (240, 2, 1, 1), (1, 1, 4), (3, 7, 12)])
def test_softmax_last_bitwise_equals_oracle(shape):
    x = 4.0 * np.random.default_rng(sum(shape)).standard_normal(shape)
    kept = _snapshot(x)
    out = softmax_last(x)
    _assert_bitwise(out, oracle_softmax_last(x))
    _assert_unchanged(kept)
    assert not np.shares_memory(out, x)


@pytest.mark.parametrize("shape", [(240, 8, 16), (240, 1, 16), (1, 1, 4), (3, 7, 12)])
def test_feed_forward_backward_bitwise_equals_oracle(shape):
    rng = np.random.default_rng(sum(shape))
    ff = FeedForward(shape[-1], rng)
    ff.forward(rng.standard_normal(shape))
    dout = rng.standard_normal(shape)
    kept = _snapshot(dout, *ff._cache)
    expected_dx, expected_grads = oracle_feed_forward_backward(ff.params(), ff._cache, dout)
    _assert_bitwise(ff.backward(dout), expected_dx)
    for name, grad in expected_grads.items():
        _assert_bitwise(ff.grads()[name], grad)
    _assert_unchanged(kept)


# (query shape, key/value rows or None for self-attention)
@pytest.mark.parametrize("q_shape, kv_rows", [((240, 8, 16), 9), ((240, 8, 16), None), ((1, 1, 4), None), ((3, 7, 12), 5)])
def test_attention_caches_the_oracle_softmax_and_backward_writes_no_cache(q_shape, kv_rows):
    rng = np.random.default_rng(sum(q_shape))
    attn = MultiHeadAttention(q_shape[-1], 2, rng)
    x_q = rng.standard_normal(q_shape)
    x_kv = x_q if kv_rows is None else rng.standard_normal((q_shape[0], kv_rows, q_shape[-1]))
    attn.forward(x_q, x_kv)
    _, _, q, k, _, weights, _ = attn._cache
    _assert_bitwise(weights, oracle_softmax_last(q @ k.transpose(0, 1, 3, 2) / np.sqrt(attn.d_head)))
    kept = _snapshot(*attn._cache)
    attn.backward(rng.standard_normal(q_shape))
    _assert_unchanged(kept)


def test_sinusoidal_positions_shape_and_range():
    table = sinusoidal_positions(11, 16)
    assert table.shape == (11, 16)
    assert np.abs(table).max() <= 1.0


def test_sinusoidal_positions_cached_read_only():
    table = sinusoidal_positions(11, 16)
    assert sinusoidal_positions(11, 16) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
