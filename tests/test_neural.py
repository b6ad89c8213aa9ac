from __future__ import annotations

import numpy as np
import pytest

from dst_lab.neural.layers import (
    LayerNorm,
    MultiHeadAttention,
    sinusoidal_positions,
    softmax_last,
)
from dst_lab.neural.pipeline import (
    CompressorConfig,
    SpeechEmbedding,
    build_compressor,
    build_connector,
    compress_turn,
    connector_forward,
    downsample,
)

from oracles import OracleLayerNorm, gelu

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
    out = connector_forward(RNG.standard_normal((10, 5)), connector)
    assert out.shape == (10, 16)


def test_connector_rejects_nonfinite():
    config = CompressorConfig(d_model=16, n_heads=2, seed=3)
    connector = build_connector(4, config)
    bad = np.full((3, 4), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        connector_forward(bad, connector)


def test_connector_deterministic_given_seed():
    config = CompressorConfig(d_model=16, n_heads=2, seed=9)
    x = RNG.standard_normal((6, 4))
    a = connector_forward(x, build_connector(4, config))
    b = connector_forward(x, build_connector(4, config))
    assert np.array_equal(a, b)


def test_attention_rows_sum_to_one():
    config = CompressorConfig(d_model=16, n_heads=2, seed=3)
    connector = build_connector(4, config)
    connector_forward(RNG.standard_normal((9, 4)), connector)
    attn = _attention(connector.layer.attn)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12


def test_connector_matches_straight_line_oracle():
    """No-abstraction re-computation of the connector forward on a 3x4 input."""
    config = CompressorConfig(d_model=8, n_heads=2, seed=21)
    connector = build_connector(4, config)
    x = np.random.default_rng(0).standard_normal((3, 4))
    expected = connector_forward(x, connector)

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
    out = compress_turn(RNG.standard_normal((37, 16)), compressor)
    assert out.shape == (10, 16)


def test_compress_single_query_attention_pooling():
    config = CompressorConfig(d_model=16, n_heads=2, n_queries=1, seed=4)
    out = compress_turn(RNG.standard_normal((23, 16)), build_compressor(config))
    assert out.shape == (1, 16)


def test_compress_row_count_independent_of_input_length():
    config = CompressorConfig(d_model=8, n_heads=2, n_queries=3, seed=4)
    compressor = build_compressor(config)
    for rows in (1, 2, 17, 64):
        assert compress_turn(RNG.standard_normal((rows, 8)), compressor).shape == (3, 8)


def test_compress_dimension_mismatch():
    config = CompressorConfig(d_model=16, n_heads=2, n_queries=2, seed=4)
    with pytest.raises(ValueError, match="does not match d_model"):
        compress_turn(RNG.standard_normal((5, 8)), build_compressor(config))


def test_compress_accepts_speech_embedding():
    config = CompressorConfig(d_model=8, n_heads=2, n_queries=2, seed=4)
    emb = SpeechEmbedding(RNG.standard_normal((5, 8)), "d0", 1)
    assert compress_turn(emb, build_compressor(config)).shape == (2, 8)


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
    base = compress_turn(h, compressor)
    permuted = compress_turn(h[::-1].copy(), compressor)
    assert np.allclose(base, permuted, atol=1e-12, rtol=0)
    attn = _attention(compressor.layers[0].cross_attn)
    assert np.allclose(attn, 1.0 / 12.0, atol=0, rtol=0)


def test_compressor_multi_layer():
    config = CompressorConfig(d_model=8, n_heads=2, n_layers=3, n_queries=2, seed=5)
    out = compress_turn(RNG.standard_normal((6, 8)), build_compressor(config))
    assert out.shape == (2, 8)


def test_compressor_attention_rows_sum_to_one():
    config = CompressorConfig(d_model=8, n_heads=2, n_queries=3, seed=5)
    compressor = build_compressor(config)
    compress_turn(RNG.standard_normal((11, 8)), compressor)
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
    assert ln.backward(dout).tobytes() == dx.tobytes()
    assert ln._grads["gamma"].tobytes() == dgamma.tobytes()
    assert ln._grads["beta"].tobytes() == dbeta.tobytes()


def test_softmax_last_stable():
    x = np.array([[1000.0, 1000.0, 999.0]])
    s = softmax_last(x)
    assert np.isfinite(s).all()
    assert s.sum() == pytest.approx(1.0)


def test_sinusoidal_positions_shape_and_range():
    table = sinusoidal_positions(11, 16)
    assert table.shape == (11, 16)
    assert np.abs(table).max() <= 1.0


def test_sinusoidal_positions_cached_read_only():
    table = sinusoidal_positions(11, 16)
    assert sinusoidal_positions(11, 16) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
