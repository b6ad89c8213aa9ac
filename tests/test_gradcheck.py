from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dst_lab.neural import gradcheck, layers
from dst_lab.neural.gradcheck import grad_check, numeric_gradients
from dst_lab.neural.pipeline import CompressorConfig
from oracles import oracle_numeric_gradients

CONFIG = CompressorConfig(d_model=8, n_heads=2, n_queries=2, seed=0)


def _config(n_queries: int) -> CompressorConfig:
    return CompressorConfig(d_model=8, n_heads=2, n_queries=n_queries, seed=0)


# every grad_check_suite shape, plus connector (4, 6) and compressor at 2 queries
ORACLE_CASES = (
    [("connector", shape, CONFIG) for shape in ((3, 4), (5, 8), (7, 6), (4, 6))]
    + [
        ("compressor", shape, _config(n_queries))
        for n_queries in (1, 2, 10)
        for shape in ((2, 8), (5, 8), (9, 8))
    ]
    + [("readout", shape, CONFIG) for shape in ((5, 8), (3, 8), (1, 8))]
)


def _assert_matches_oracle(module, shape, config):
    net, x = gradcheck._build(module, shape, config)
    batched = numeric_gradients(net, x, 1e-5)
    oracle = oracle_numeric_gradients(net, x, 1e-5)
    assert list(batched) == list(oracle)
    for name, grad in batched.items():
        np.testing.assert_allclose(grad, oracle[name], rtol=0, atol=1e-9, err_msg=name)


def test_linear_readout_gradients_tight():
    # finite-difference oracle; a linear map should agree almost exactly
    result = grad_check("readout", (5, 8), 1e-5, CONFIG)
    assert result.max_relative_error < 1e-7


def test_compressor_gradients_within_tolerance():
    result = grad_check("compressor", (5, 8), 1e-5, CONFIG)
    assert result.max_relative_error < 1e-4


def test_connector_gradients_within_tolerance():
    result = grad_check("connector", (4, 6), 1e-5, CONFIG)
    assert result.max_relative_error < 1e-4


def test_eps_zero_rejected():
    with pytest.raises(ValueError, match="eps"):
        grad_check("readout", (3, 8), 0.0, CONFIG)


def test_unknown_module_rejected():
    with pytest.raises(ValueError, match="unknown module"):
        grad_check("encoder", (3, 8), 1e-5, CONFIG)


def test_compressor_requires_matching_dim():
    with pytest.raises(ValueError, match="must equal d_model"):
        grad_check("compressor", (3, 4), 1e-5, CONFIG)


def test_eps_non_finite_rejected():
    for eps in (math.nan, math.inf, -1e-5):
        with pytest.raises(ValueError, match="eps"):
            grad_check("readout", (3, 8), eps, CONFIG)


@pytest.mark.parametrize("module,shape,config", ORACLE_CASES)
def test_numeric_gradients_match_serial_oracle(module, shape, config):
    _assert_matches_oracle(module, shape, config)


@pytest.mark.parametrize("block", [1, 7])
def test_numeric_gradients_cross_block_boundaries(monkeypatch, block):
    # readout W has 240 entries and ff.W1 256, so both span many blocks
    monkeypatch.setattr(gradcheck, "_BLOCK", block)
    _assert_matches_oracle("readout", (5, 8), CONFIG)
    _assert_matches_oracle("compressor", (5, 8), CONFIG)


def test_default_block_is_smaller_than_largest_parameters():
    # so the oracle cases at the default block size also cross block boundaries
    net, _ = gradcheck._build("compressor", (5, 8), CONFIG)
    assert max(p.size for p in net.params().values()) > gradcheck._BLOCK


def _snapshot(net):
    return {name: (id(p), p.tobytes()) for name, p in net.params().items()}


def test_parameters_restored_after_numeric_gradients():
    for module, shape in (("connector", (3, 4)), ("compressor", (5, 8)), ("readout", (3, 8))):
        net, x = gradcheck._build(module, shape, CONFIG)
        before = _snapshot(net)
        numeric_gradients(net, x, 1e-5)
        assert _snapshot(net) == before


def test_parameters_restored_when_forward_raises(monkeypatch):
    net, x = gradcheck._build("compressor", (5, 8), CONFIG)
    before = _snapshot(net)
    ff = net.layers[0].ff
    calls = {"n": 0}
    real_forward = ff.forward

    def flaky_forward(inp):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("forward failed")
        return real_forward(inp)

    monkeypatch.setattr(ff, "forward", flaky_forward)
    with pytest.raises(RuntimeError, match="forward failed"):
        numeric_gradients(net, x, 1e-5)
    assert _snapshot(net) == before


def test_scaled_gelu_grad_is_caught(monkeypatch):
    # mutation check: a 1% error in one backward term must fail the gate
    real = layers.gelu_grad
    monkeypatch.setattr(layers, "gelu_grad", lambda x, t=None: 1.01 * real(x, t))
    result = grad_check("compressor", (5, 8), 1e-5, CONFIG)
    assert result.max_relative_error > 1e-4
    # the wrong derivative reaches every parameter upstream of the GELU, so the
    # worst entry can sit in an earlier sublayer; never in W2/b2 behind it
    assert result.worst_param.startswith("layer0.")
    assert not result.worst_param.startswith(("layer0.ff.W2", "layer0.ff.b2"))
    net, x = gradcheck._build("compressor", (5, 8), CONFIG)
    net.zero_grads()
    net.backward(np.ones_like(net.forward(x)))
    analytic = net.grads()["layer0.ff.W1"].reshape(-1)
    numeric = numeric_gradients(net, x, 1e-5)["layer0.ff.W1"]
    rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    assert rel.max() > 1e-4


def test_nan_gradient_fails(monkeypatch):
    monkeypatch.setattr(layers, "gelu_grad", lambda x, t=None: np.full_like(x, np.nan))
    result = grad_check("compressor", (5, 8), 1e-5, CONFIG)
    assert result.max_relative_error == math.inf
    assert re.fullmatch(r"[a-z0-9_.]+\[\d+\]", result.worst_param, flags=re.I)
