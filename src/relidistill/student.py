"""The compact student: a feed-forward softmax classifier.

Rectified-linear hidden layers, identity output layer, hand-derived
cross-entropy gradients, and an adaptive-moment optimizer. Everything
runs in float64 for gradient fidelity; checkpoints store float32
little-endian, and a file survives load -> save byte-identically.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ShapeMismatchError
from .fileio import atomic_write_bytes
from .seeding import AUGMENT, INIT, derive_rng, keyed_uniform

CHECKPOINT_MAGIC = b"RCLM0001"

PROB_FLOOR = 1e-12  # clamp before logs; saturated softmax otherwise underflows

# Adaptive-moment decay rates and the update's denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class StudentModel:
    """Weights and biases per layer; ``layer_dims`` is [d, h1, ..., C]."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "StudentModel":
        return StudentModel(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def init_student(layer_dims: list[int], seed: int) -> StudentModel:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ConfigError(f"bad layer dims {layer_dims}")
    rng = derive_rng(seed, INIT)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return StudentModel(list(layer_dims), weights, biases)


def _as_batch(model: StudentModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.layer_dims[0]:
        raise ShapeMismatchError(
            f"input has shape {X.shape}, model expects (*, {model.layer_dims[0]})"
        )
    return X


def _hidden(model: StudentModel, X: np.ndarray) -> list[np.ndarray]:
    """The batch input followed by each hidden layer's rectified output."""
    activations = [X]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        activations.append(np.maximum(activations[-1] @ w + b, 0.0))
    return activations


def forward(model: StudentModel, X: np.ndarray) -> np.ndarray:
    """Batch logits, shape (batch, C)."""
    a = _hidden(model, _as_batch(model, X))[-1]
    return a @ model.weights[-1] + model.biases[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(model: StudentModel, X: np.ndarray) -> np.ndarray:
    return softmax(forward(model, X))


def confidence(model: StudentModel, x: np.ndarray):
    """(max probability, argmax class) per sample; ties -> lowest index.

    Accepts a single feature vector (returns scalars) or a batch
    (returns arrays). The max probability is always >= 1/C.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    probs = predict_proba(model, x)
    predicted = probs.argmax(axis=1)
    p = probs[np.arange(probs.shape[0]), predicted]
    if single:
        return float(p[0]), int(predicted[0])
    return p, predicted.astype(np.int64)


def cross_entropy(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean of -log p[label], with p clamped at PROB_FLOOR."""
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ShapeMismatchError("probabilities (B, C) and labels (B,) expected")
    if labels.size == 0:
        raise ShapeMismatchError("empty batch")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ConfigError("label out of range")
    picked = probs[np.arange(labels.size), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def loss_and_grads(model: StudentModel, X: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its analytic parameter gradients.

    The output-logit gradient is (softmax - one_hot) / batch; hidden
    deltas backpropagate through the rectifier masks.
    """
    X = _as_batch(model, X)
    labels = np.asarray(labels, dtype=np.int64)
    n_layers = len(model.weights)
    activations = _hidden(model, X)
    probs = softmax(activations[-1] @ model.weights[-1] + model.biases[-1])
    loss = cross_entropy(probs, labels)

    batch = X.shape[0]
    delta = probs.copy()
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * n_layers  # type: ignore
    for layer in reversed(range(n_layers)):
        grads[layer] = (activations[layer].T @ delta, delta.sum(axis=0))
        if layer > 0:
            # A rectified output is positive exactly where its input was.
            delta = (delta @ model.weights[layer].T) * (activations[layer] > 0)
    return loss, grads


def backward(model: StudentModel, X: np.ndarray, labels: np.ndarray):
    """Gradients only; see :func:`loss_and_grads`."""
    return loss_and_grads(model, X, labels)[1]


@dataclass
class OptimizerState:
    """Adaptive-moment state; accumulators always mirror parameter shapes."""

    learning_rate: float
    step: int = 0
    moments1: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    moments2: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def init_optimizer(model: StudentModel, learning_rate: float) -> OptimizerState:
    if learning_rate <= 0:
        raise ConfigError("learning rate must be positive")
    state = OptimizerState(learning_rate=learning_rate)
    for w, b in zip(model.weights, model.biases):
        state.moments1.append((np.zeros_like(w), np.zeros_like(b)))
        state.moments2.append((np.zeros_like(w), np.zeros_like(b)))
    return state


def optimizer_step(model: StudentModel, state: OptimizerState, grads) -> None:
    """One bias-corrected adaptive-moment update, in place."""
    if len(grads) != len(model.weights):
        raise ShapeMismatchError("gradient list does not match model layers")
    state.step += 1
    correction1 = 1.0 - BETA1**state.step
    correction2 = 1.0 - BETA2**state.step
    for layer, (gw, gb) in enumerate(grads):
        params = (model.weights[layer], model.biases[layer])
        for param, grad, m, v in zip(
            params, (gw, gb), state.moments1[layer], state.moments2[layer]
        ):
            if grad.shape != param.shape:
                raise ShapeMismatchError(
                    f"gradient shape {grad.shape} != parameter shape {param.shape}"
                )
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            param -= state.learning_rate * (m / correction1) / (np.sqrt(v / correction2) + EPSILON)


@dataclass
class AugmentPolicy:
    """Feature-space weak/strong perturbations.

    Weak adds N(0, sigma_weak^2) noise per entry; strong adds
    N(0, sigma_strong^2) and then zeroes entries with rate p_drop.
    """

    sigma_weak: float = 0.05
    sigma_strong: float = 0.2
    p_drop: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.sigma_weak <= self.sigma_strong:
            raise ConfigError("need 0 <= sigma_weak <= sigma_strong")
        if not 0.0 <= self.p_drop <= 1.0:
            raise ConfigError("p_drop must lie in [0, 1]")


_VIEWS = ("weak", "strong")


def augment(
    X: np.ndarray,
    rows: np.ndarray,
    policy: AugmentPolicy,
    view: str,
    seed: int,
    iteration: int,
) -> np.ndarray:
    """One augmented view of the samples whose indices are ``rows``.

    Each row's perturbation is keyed by (seed, view, iteration, sample
    index) through one :func:`keyed_uniform` draw, so a sample gets the
    same noise whichever batch it sits in. The first lanes feed
    Box-Muller normals; the strong view's drop mask reads its own lanes
    after them.
    """
    X = np.asarray(X, dtype=np.float64)
    if view not in _VIEWS:
        raise ConfigError(f"unknown view {view!r}")
    if X.ndim != 2 or np.shape(rows) != X.shape[:1]:
        raise ShapeMismatchError(f"{np.shape(rows)} row indices for input of shape {X.shape}")
    sigma = policy.sigma_weak if view == "weak" else policy.sigma_strong
    p_drop = policy.p_drop if view == "strong" else 0.0
    if sigma == 0.0 and p_drop == 0.0:
        return X.copy()
    dim = X.shape[1]
    half = (dim + 1) // 2
    u = keyed_uniform(
        seed, AUGMENT, _VIEWS.index(view), iteration,
        rows=rows, width=2 * half + (dim if p_drop > 0.0 else 0),
    )
    radius = np.sqrt(-2.0 * np.log(u[:, :half]))
    angle = 2.0 * np.pi * u[:, half : 2 * half]
    noise = np.hstack([radius * np.cos(angle), radius * np.sin(angle)])[:, :dim]
    out = X + sigma * noise
    if p_drop > 0.0:
        out[u[:, 2 * half :] < p_drop] = 0.0
    return out


def save_checkpoint(model: StudentModel, path: str | Path) -> None:
    """Binary checkpoint: magic, u64 dim count, u64 dims, f32 LE params.

    Parameters are written in layer order, weights before biases,
    weights row-major. The write is atomic (temp file + rename).
    """
    payload = bytearray(CHECKPOINT_MAGIC)
    payload += struct.pack("<Q", len(model.layer_dims))
    payload += struct.pack(f"<{len(model.layer_dims)}Q", *model.layer_dims)
    for w, b in zip(model.weights, model.biases):
        payload += w.astype("<f4").tobytes(order="C")
        payload += b.astype("<f4").tobytes()
    atomic_write_bytes(path, bytes(payload))


def load_checkpoint(path: str | Path) -> StudentModel:
    raw = Path(path).read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic")
    offset = len(CHECKPOINT_MAGIC)
    if len(raw) < offset + 8:
        raise ParseError(f"{path}: truncated checkpoint header")
    (n_dims,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    if n_dims < 2 or len(raw) < offset + 8 * n_dims:
        raise ParseError(f"{path}: truncated layer dims")
    layer_dims = list(struct.unpack_from(f"<{n_dims}Q", raw, offset))
    offset += 8 * n_dims
    n_params = sum(
        fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_dims, layer_dims[1:])
    )
    if len(raw) != offset + 4 * n_params:
        raise ParseError(f"{path}: parameter payload size mismatch")
    if not np.isfinite(np.frombuffer(raw, dtype="<f4", offset=offset)).all():
        raise ParseError(f"{path}: non-finite parameters")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
        w = np.frombuffer(raw, dtype="<f4", count=fan_in * fan_out, offset=offset)
        offset += 4 * fan_in * fan_out
        b = np.frombuffer(raw, dtype="<f4", count=fan_out, offset=offset)
        offset += 4 * fan_out
        weights.append(w.reshape(fan_in, fan_out).astype(np.float64))
        biases.append(b.astype(np.float64))
    return StudentModel([int(d) for d in layer_dims], weights, biases)
