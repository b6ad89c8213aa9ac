"""Finite-difference verification of the hand-rolled backward passes."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..workers import share_out
from .layers import Layer
from .pipeline import CompressorConfig, Compressor, Connector, Readout

_CHECKABLE = ("connector", "compressor", "readout")
# Entries perturbed per forward pass; a block stacks 2 * _BLOCK copies of one
# parameter, which bounds the memory a large CompressorConfig needs.
_BLOCK = 32


@dataclass(frozen=True)
class GradCheckResult:
    module: str
    input_shape: tuple[int, int]
    max_relative_error: float
    worst_param: str


def _build(module: str, input_shape: tuple[int, int], config: CompressorConfig):
    rows, cols = input_shape
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 99]))
    if module == "connector":
        net = Connector(cols, config, rng)
        x = rng.standard_normal((1, rows, cols))
    elif module == "compressor":
        if cols != config.d_model:
            raise ValueError(f"compressor input cols {cols} must equal d_model {config.d_model}")
        net = Compressor(config, rng)
        x = rng.standard_normal((1, rows, cols))
    elif module == "readout":
        net = Readout(rows, cols, n_heads=2, n_classes=3, rng=rng)
        x = rng.standard_normal((1, rows, cols))
    else:
        raise ValueError(f"unknown module {module!r}; expected one of {_CHECKABLE}")
    return net, x


def _owner(net: Layer, name: str) -> tuple[Layer, str]:
    """The layer holding the dotted parameter ``name`` and its key there."""
    *path, key = name.split(".")
    layer = net
    for part in path:
        layer = layer._sublayers[part]
    return layer, key


def numeric_gradients(net: Layer, x: np.ndarray, eps: float) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``net.forward(x).sum()``, flat per parameter.

    Entries are perturbed ``_BLOCK`` at a time: the parameter is replaced by a
    stack of 2k copies whose row 2i holds ``+eps`` and row 2i+1 ``-eps`` at
    entry i, and one forward of the batch-1 input yields all 2k losses. The
    stack axis is placed where the layers broadcast a batch axis, so a 1-d
    parameter becomes (2k, 1, n). The original array is always restored.
    """
    numeric = {}
    for name, param in net.params().items():
        layer, key = _owner(net, name)
        flat = param.reshape(-1)
        grad = np.empty(flat.size)
        stack_shape = (1,) * (2 - param.ndim) + param.shape
        try:
            for start in range(0, flat.size, _BLOCK):
                entries = np.arange(start, min(start + _BLOCK, flat.size))
                rows = np.arange(entries.size)
                stacked = np.tile(flat, (2 * entries.size, 1))
                stacked[2 * rows, entries] = flat[entries] + eps
                stacked[2 * rows + 1, entries] = flat[entries] - eps
                layer._params[key] = stacked.reshape(-1, *stack_shape)
                losses = net.forward(x).reshape(stacked.shape[0], -1).sum(axis=1)
                grad[entries] = (losses[0::2] - losses[1::2]) / (2.0 * eps)
        finally:
            layer._params[key] = param
        numeric[name] = grad
    return numeric


def grad_check(
    module: str,
    input_shape: tuple[int, int],
    eps: float = 1e-5,
    config: CompressorConfig | None = None,
) -> GradCheckResult:
    """Max relative error between analytic and central-difference gradients.

    The scalar loss is the sum of the module outputs. The relative error of a
    parameter entry is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    A non-finite analytic gradient, numeric gradient or relative error makes
    the result ``inf``, naming the first such entry.

    The numeric gradients come from :func:`numeric_gradients`, which relies
    on every layer's forward broadcasting a leading stack axis on its
    parameters (see :mod:`dst_lab.neural.layers`).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a positive finite number, got {eps}")
    config = config or CompressorConfig(d_model=8, n_heads=2, n_queries=2, seed=0)
    net, x = _build(module, input_shape, config)

    net.zero_grads()
    out = net.forward(x)
    net.backward(np.ones_like(out))
    analytic = net.grads()
    numeric = numeric_gradients(net, x, eps)

    worst = 0.0
    worst_param = ""
    for name, grad in numeric.items():
        a = analytic[name].reshape(-1)
        denom = np.maximum(1e-8, np.abs(a) + np.abs(grad))
        rel = np.abs(a - grad) / denom
        bad = ~(np.isfinite(a) & np.isfinite(grad) & np.isfinite(rel))
        if bad.any():
            return GradCheckResult(module, input_shape, math.inf, f"{name}[{int(np.argmax(bad))}]")
        idx = int(np.argmax(rel))
        if rel[idx] > worst:
            worst = float(rel[idx])
            worst_param = f"{name}[{idx}]"
    return GradCheckResult(module, input_shape, worst, worst_param)


def _suite_checks(config: CompressorConfig) -> list[tuple[str, tuple[int, int], CompressorConfig]]:
    """The (module, input shape, config) of each check: three shapes per checkable module."""
    d = config.d_model
    checks = [("connector", shape, config) for shape in ((3, 4), (5, 8), (7, 6))]
    for n_queries in (1, 10):
        cfg = replace(config, n_queries=n_queries)
        checks += [("compressor", shape, cfg) for shape in ((2, d), (5, d), (9, d))]
    return checks + [("readout", shape, config) for shape in ((5, 8), (3, 8), (1, 8))]


def _cost(module: str, input_shape: tuple[int, int], config: CompressorConfig) -> int:
    """A check's time, estimated as its stacked forwards times (4 + the rows
    each stacked copy carries). A copy carries its input rows through the
    connector and the readout, and 2 * n_queries rows through the compressor,
    whose queries pass both self- and cross-attention; the 4 stands for the
    fixed cost of a forward. Serial times at the suite's default config (min
    of 5, one core of a 2-vCPU VM): connector 5.3-8.4 ms, compressor 7.2-7.3 ms
    at 1 query and 21.2-23.0 ms at 10, readout 0.1-0.3 ms; the estimate puts
    52 of their 109 ms in the caller."""
    net, _ = _build(module, input_shape, config)
    forwards = sum(-(-param.size // _BLOCK) for param in net.params().values())
    rows = 2 * config.n_queries if module == "compressor" else input_shape[0]
    return forwards * (4 + rows)


def grad_check_suite(
    eps: float = 1e-5, config: CompressorConfig | None = None
) -> list[GradCheckResult]:
    """The standard verification battery, in :func:`_suite_checks` order. The
    checks are independent, so :func:`share_out` runs them side by side: a
    share sized by :func:`_cost` here, the rest in a forked worker."""
    config = config or CompressorConfig(d_model=8, n_heads=2, n_queries=2, seed=0)
    checks = _suite_checks(config)
    costs = [_cost(*check) for check in checks]
    return share_out(lambda check: grad_check(check[0], check[1], eps, check[2]), checks, costs)
