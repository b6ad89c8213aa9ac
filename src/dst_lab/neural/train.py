"""Full-batch gradient-descent training of a stack of stages."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .layers import Layer


class TrainingDivergence(RuntimeError):
    """Loss became non-finite. Carries the trace up to the failing epoch."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace

    def __reduce__(self):
        # the default rebuilds from ``args`` alone, which lack the trace
        return type(self), (*self.args, self.trace)


@dataclass
class TrainingResult:
    stages: list[Layer]
    trace: list[float]


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over all (batch, head) cells plus its logit gradient.

    ``logits`` has shape (B, H, C) and ``labels`` shape (B, H) with integer
    class ids.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    b, h, _ = logits.shape
    picked = np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]
    loss = float(-picked.mean())
    grad = np.exp(log_probs)
    # each (batch, head) cell is indexed exactly once, so in-place fancy
    # subtraction is safe
    grad[np.arange(b)[:, None], np.arange(h)[None, :], labels] -= 1.0
    grad /= b * h
    return loss, grad


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of (batch, head) cells predicted correctly."""
    return float((logits.argmax(axis=-1) == labels).mean())


def forward(stages: list[Layer], x: np.ndarray) -> np.ndarray:
    """Run ``x`` through ``stages`` in order."""
    for stage in stages:
        x = stage.forward(x)
    return x


def train(
    stages: list[Layer],
    dataset: tuple[np.ndarray, np.ndarray],
    *,
    lr: float,
    epochs: int,
) -> TrainingResult:
    """Train a copy of every stage in ``stages`` by full-batch gradient descent.

    The input stages are left untouched; a stage that must stay frozen is kept
    out of the list and applied to the inputs beforehand. The returned trace
    has ``epochs + 1`` entries: the loss before each step plus the final loss.
    """
    x, labels = dataset
    if x.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    trained = copy.deepcopy(stages)
    trace: list[float] = []
    # overflow is an expected, handled condition: it surfaces as a non-finite
    # loss and raises TrainingDivergence
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            for stage in trained:
                stage.zero_grads()
            loss, dlogits = softmax_cross_entropy(forward(trained, x), labels)
            if not np.isfinite(loss):
                raise TrainingDivergence(f"loss diverged to {loss}", trace)
            trace.append(loss)
            grad = dlogits
            for stage in reversed(trained):
                grad = stage.backward(grad)
            for stage in trained:
                params = stage.params()
                for name, g in stage.grads().items():
                    params[name] -= lr * g
        final_loss, _ = softmax_cross_entropy(forward(trained, x), labels)
        if not np.isfinite(final_loss):
            raise TrainingDivergence(f"loss diverged to {final_loss}", trace)
        trace.append(float(final_loss))
    return TrainingResult(stages=trained, trace=trace)
