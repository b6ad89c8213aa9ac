"""Full-batch gradient-descent training with per-group freeze masks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pipeline import ParameterMask, Pipeline


class TrainingDivergence(RuntimeError):
    """Loss became non-finite. Carries the trace up to the failing epoch."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TrainingConfig:
    lr: float = 0.1
    epochs: int = 100


@dataclass
class TrainingResult:
    pipeline: Pipeline
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


def train(
    pipeline: Pipeline,
    mask: ParameterMask,
    dataset: tuple[np.ndarray, np.ndarray],
    hyper: TrainingConfig,
) -> TrainingResult:
    """Train a copy of ``pipeline`` by full-batch gradient descent.

    The input pipeline is left untouched. Parameter groups with a false mask
    entry are bit-identical between input and output. The returned trace has
    ``epochs + 1`` entries: the loss before each step plus the final loss.
    """
    x, labels = dataset
    if x.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    trained = pipeline.copy()

    # A frozen prefix of the stack never changes during training, so its
    # activations are computed once up front. The arithmetic is identical to
    # recomputing it every epoch.
    stages = trained.ordered_stages()
    split = 0
    while split < len(stages) and not mask.trainable.get(stages[split][0], True):
        split += 1
    cached = x
    for _, stage in stages[:split]:
        cached = stage.forward(cached)
    active = stages[split:]

    def forward_active(inp: np.ndarray) -> np.ndarray:
        out = inp
        for _, stage in active:
            out = stage.forward(out)
        return out

    trace: list[float] = []
    # overflow is an expected, handled condition: it surfaces as a non-finite
    # loss and raises TrainingDivergence
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hyper.epochs):
            trained.zero_grads()
            logits = forward_active(cached)
            loss, dlogits = softmax_cross_entropy(logits, labels)
            if not np.isfinite(loss):
                raise TrainingDivergence(f"loss diverged to {loss}", trace)
            trace.append(loss)
            grad = dlogits
            for _, stage in reversed(active):
                grad = stage.backward(grad)
            for group, grads in trained.group_grads().items():
                if not mask.trainable.get(group, True):
                    continue
                params = trained.group_params()[group]
                for name, g in grads.items():
                    params[name] -= hyper.lr * g
        final_loss, _ = softmax_cross_entropy(forward_active(cached), labels)
        if not np.isfinite(final_loss):
            raise TrainingDivergence(f"loss diverged to {final_loss}", trace)
        trace.append(float(final_loss))
    return TrainingResult(pipeline=trained, trace=trace)
