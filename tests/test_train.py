from __future__ import annotations

import pickle

import numpy as np
import pytest

from dst_lab.neural import layers
from dst_lab.neural.layers import Layer
from dst_lab.neural.pipeline import CompressorConfig, build_compressor, build_readout
from dst_lab.neural.train import (
    TrainingDivergence,
    accuracy,
    forward,
    softmax_cross_entropy,
    train,
)

from oracles import OracleLayerNorm, oracle_feed_forward_backward, oracle_gelu_grad, oracle_softmax_last


def _separable_dataset(n: int = 40, seed: int = 0):
    """Two linearly separable classes on a 1-row input (readout-only case)."""
    rng = np.random.default_rng(seed)
    centers = np.array([[-2.0, -2.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0]])
    labels = rng.integers(0, 2, size=n)
    x = centers[labels] + 0.3 * rng.standard_normal((n, 4))
    return x[:, None, :], labels[:, None].astype(np.int64)


def _readout_stages(seed: int = 0) -> list[Layer]:
    config = CompressorConfig(d_model=4, n_heads=2, n_queries=1, seed=seed)
    return [build_readout(1, config, n_heads=1, n_classes=2)]


def test_readout_only_reaches_perfect_accuracy():
    dataset = _separable_dataset()
    result = train(_readout_stages(), dataset, lr=0.5, epochs=300)
    logits = forward(result.stages, dataset[0])
    assert accuracy(logits, dataset[1]) == 1.0


def test_convex_case_trace_monotone_for_small_lr():
    dataset = _separable_dataset()
    result = train(_readout_stages(), dataset, lr=0.05, epochs=200)
    trace = np.asarray(result.trace)
    assert (np.diff(trace) <= 1e-12).all()


def test_zero_lr_keeps_parameters_and_trace_constant():
    dataset = _separable_dataset()
    stages = _readout_stages()
    before = {k: v.copy() for k, v in stages[0].params().items()}
    result = train(stages, dataset, lr=0.0, epochs=20)
    assert len(set(result.trace)) == 1
    for name, value in result.stages[0].params().items():
        assert np.array_equal(value, before[name])


def test_same_seed_identical_traces():
    dataset = _separable_dataset()
    a = train(_readout_stages(3), dataset, lr=0.2, epochs=50)
    b = train(_readout_stages(3), dataset, lr=0.2, epochs=50)
    assert a.trace == b.trace


def test_input_pipeline_untouched():
    dataset = _separable_dataset()
    stages = _readout_stages()
    before = {k: v.copy() for k, v in stages[0].params().items()}
    result = train(stages, dataset, lr=0.5, epochs=30)
    assert result.stages[0] is not stages[0]
    for name, value in stages[0].params().items():
        assert np.array_equal(value, before[name])


def test_divergence_raises_with_trace():
    config = CompressorConfig(d_model=4, n_heads=2, n_queries=2, seed=1)
    stages = [build_compressor(config), build_readout(2, config, n_heads=1, n_classes=2)]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3, 4))
    labels = rng.integers(0, 2, size=(8, 1)).astype(np.int64)
    with pytest.raises(TrainingDivergence) as err:
        train(stages, (x, labels), lr=1e6, epochs=500)
    assert len(err.value.trace) >= 1


def test_divergence_survives_pickling():
    # a probe worker sends its config's divergence back to the caller pickled
    err = pickle.loads(pickle.dumps(TrainingDivergence("loss diverged to nan", [2.5, 1.0])))
    assert (type(err), err.args, err.trace) == (TrainingDivergence, ("loss diverged to nan",), [2.5, 1.0])


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        train(
            _readout_stages(),
            (np.zeros((0, 1, 4)), np.zeros((0, 1), dtype=np.int64)),
            lr=0.1,
            epochs=100,
        )


def test_softmax_cross_entropy_gradient_is_probability_gap():
    logits = np.zeros((2, 1, 3))
    labels = np.array([[0], [2]])
    loss, grad = softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(np.log(3.0))
    assert grad[0, 0, 0] == pytest.approx((1 / 3 - 1) / 2)
    assert grad[0, 0, 1] == pytest.approx((1 / 3) / 2)



def _oracle_layer_norm_backward(self, dout):
    oracle = OracleLayerNorm(self._params["gamma"], self._params["beta"])
    oracle._cache = self._cache
    dx, dgamma, dbeta = oracle.backward(dout)
    self._grads["gamma"] += dgamma
    self._grads["beta"] += dbeta
    return dx


def _oracle_feed_forward_backward(self, dout):
    dx, grads = oracle_feed_forward_backward(self._params, self._cache, dout)
    for name, grad in grads.items():
        self._grads[name] += grad
    return dx


@pytest.mark.parametrize("n_queries", [1, 8])
def test_training_on_the_oracle_kernels_is_bitwise_equal(monkeypatch, n_queries):
    """The probe's trained stages, at its two benchmark query counts."""
    rng = np.random.default_rng(n_queries)
    x = rng.standard_normal((48, 9, 16))
    labels = rng.integers(0, 5, size=(48, 3))
    config = CompressorConfig(d_model=16, n_heads=2, n_queries=n_queries, seed=1)
    stages = [build_compressor(config), build_readout(n_queries, config, n_heads=3, n_classes=5)]
    fast = train(stages, (x, labels), lr=0.2, epochs=30)
    monkeypatch.setattr(layers, "gelu_grad", oracle_gelu_grad)
    monkeypatch.setattr(layers, "softmax_last", oracle_softmax_last)
    monkeypatch.setattr(layers.LayerNorm, "backward", _oracle_layer_norm_backward)
    monkeypatch.setattr(layers.FeedForward, "backward", _oracle_feed_forward_backward)
    slow = train(stages, (x, labels), lr=0.2, epochs=30)
    assert fast.trace == slow.trace
    assert slow.trace[-1] < slow.trace[0]
    for fast_stage, slow_stage in zip(fast.stages, slow.stages, strict=True):
        fast_params, slow_params = fast_stage.params(), slow_stage.params()
        assert fast_params.keys() == slow_params.keys()
        for name, value in fast_params.items():
            assert value.tobytes() == slow_params[name].tobytes(), name
