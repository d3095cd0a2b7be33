"""The compact student: a feed-forward softmax classifier.

Rectified-linear hidden layers, identity output layer, hand-derived
cross-entropy gradients, and an adaptive-moment optimizer. Everything
runs in float64 for gradient fidelity; checkpoints store float32
little-endian, and a file survives load -> save byte-identically.

A model is its parameter vector: ``StudentModel(layer_dims, params)``
takes one flat vector, layer by layer the (fan_in, fan_out) weights
row-major, then the fan_out biases. The gradient of
:func:`backprop` (and of :func:`loss_and_grads`, its composition with
:func:`forward_pass`), both optimizer moments and the checkpoint
payload share that layout, and :func:`_layers` is the one place that
spells it out. Checkpoints hold float32, so :func:`save_checkpoint`
refuses parameters beyond ``F32_MAX``.
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
F32_MAX = float(np.finfo(np.float32).max)  # the largest value a checkpoint holds

PROB_FLOOR = 1e-12  # clamp before logs; saturated softmax otherwise underflows

# Rows per forward pass when confidence() scores a batch.
_SCORE_ROWS = 4096

# Adaptive-moment decay rates and the update's denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def _n_params(layer_dims: list[int]) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_dims, layer_dims[1:]))


def _layers(layer_dims: list[int], vec: np.ndarray):
    """Per-layer (weights, biases) views of a vector laid out like
    ``StudentModel.params``: per layer, weights row-major, then biases."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
        weights.append(vec[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(vec[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


@dataclass(eq=False)
class StudentModel:
    """A student MLP; ``layer_dims`` is [d, h1, ..., C].

    The constructor copies ``params``, one vector in checkpoint order,
    to float64; ``weights[l]`` and ``biases[l]`` are views into it, so
    writing either changes ``params``. A vector whose shape is not
    ``(n_params,)`` for ``layer_dims`` raises ShapeMismatchError.
    """

    layer_dims: list[int]
    params: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.layer_dims) < 2 or min(self.layer_dims) < 1:
            raise ConfigError(f"bad layer dims {self.layer_dims}")
        n = _n_params(self.layer_dims)
        self.params = np.array(self.params, dtype=np.float64)
        if self.params.shape != (n,):
            raise ShapeMismatchError(
                f"parameter shape {self.params.shape} != ({n},) for dims {self.layer_dims}"
            )
        self.weights, self.biases = _layers(self.layer_dims, self.params)

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "StudentModel":
        return StudentModel(list(self.layer_dims), self.params)


def init_student(layer_dims: list[int], seed: int) -> StudentModel:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ConfigError(f"bad layer dims {layer_dims}")
    rng = derive_rng(seed, INIT)
    model = StudentModel(list(layer_dims), np.zeros(_n_params(layer_dims)))
    for w in model.weights:
        bound = 1.0 / math.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, w.shape)
    return model


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
    """The batch input followed by each hidden layer's rectified output,
    one array per layer, rectified in place."""
    activations = [X]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = activations[-1] @ w
        z += b
        activations.append(np.maximum(z, 0.0, out=z))
    return activations


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability; ``logits`` is
    left as it was."""
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def forward_pass(model: StudentModel, X: np.ndarray):
    """The one forward pass: (activations, probs), where ``activations``
    is the batch input followed by each hidden layer's output and
    ``probs`` the (batch, C) softmax. :func:`backprop` takes both."""
    activations = _hidden(model, _as_batch(model, X))
    logits = activations[-1] @ model.weights[-1]
    logits += model.biases[-1]
    return activations, softmax(logits)


def predict_proba(model: StudentModel, X: np.ndarray) -> np.ndarray:
    return forward_pass(model, X)[1]


def confidence(model: StudentModel, x: np.ndarray):
    """(max probability, argmax class) per sample; ties -> lowest index.

    Accepts a single feature vector (returns scalars) or a batch
    (returns arrays). The max probability is always >= 1/C. A batch is
    scored ``_SCORE_ROWS`` rows at a time, so scoring a whole dataset
    holds one block's activations, one (rows, h) array per hidden layer,
    not an (N, h) array per layer.
    """
    single = np.ndim(x) == 1
    X = _as_batch(model, x)
    p, predicted = np.empty(len(X)), np.empty(len(X), np.int64)
    for start in range(0, len(X), _SCORE_ROWS):
        probs = predict_proba(model, X[start : start + _SCORE_ROWS])
        rows = slice(start, start + len(probs))
        predicted[rows] = probs.argmax(axis=1)
        p[rows] = probs[np.arange(len(probs)), predicted[rows]]
    if single:
        return float(p[0]), int(predicted[0])
    return p, predicted


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


def backprop(model: StudentModel, activations: list[np.ndarray], probs: np.ndarray, labels):
    """Mean cross-entropy of ``probs`` and its analytic gradient, one
    vector laid out like ``model.params``, from a :func:`forward_pass`
    result; no argument is modified.

    The output-logit gradient is (softmax - one_hot) / batch; hidden
    deltas backpropagate through the rectifier masks.
    """
    labels = np.asarray(labels, dtype=np.int64)
    loss = cross_entropy(probs, labels)
    batch = probs.shape[0]
    shapes = [np.shape(a) for a in activations]
    if shapes != [(batch, d) for d in model.layer_dims[:-1]]:
        raise ShapeMismatchError(
            f"activation shapes {shapes} do not fit dims {model.layer_dims} at batch {batch}"
        )
    delta = probs.copy()
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    grads = np.empty_like(model.params)
    grad_w, grad_b = _layers(model.layer_dims, grads)
    for layer in reversed(range(len(grad_w))):
        np.matmul(activations[layer].T, delta, out=grad_w[layer])
        delta.sum(axis=0, out=grad_b[layer])
        if layer > 0:
            # A rectified output is positive exactly where its input was.
            delta = delta @ model.weights[layer].T
            delta *= activations[layer] > 0
    return loss, grads


def loss_and_grads(model: StudentModel, X: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient on the batch ``X``:
    :func:`backprop` of :func:`forward_pass`."""
    return backprop(model, *forward_pass(model, X), labels)


def backward(model: StudentModel, X: np.ndarray, labels: np.ndarray):
    """Per-layer (weight, bias) gradient pairs; see :func:`loss_and_grads`."""
    return list(zip(*_layers(model.layer_dims, loss_and_grads(model, X, labels)[1])))


@dataclass
class OptimizerState:
    """Adaptive-moment state; both moments are laid out like ``params``."""

    learning_rate: float
    moment1: np.ndarray
    moment2: np.ndarray
    step: int = 0


def init_optimizer(model: StudentModel, learning_rate: float) -> OptimizerState:
    if not 0 < learning_rate < math.inf:
        raise ConfigError("learning rate must be positive and finite")
    return OptimizerState(learning_rate, np.zeros_like(model.params), np.zeros_like(model.params))


def optimizer_step(model: StudentModel, state: OptimizerState, grads: np.ndarray) -> None:
    """One bias-corrected adaptive-moment update, in place.

    ``grads`` is one vector laid out like ``model.params``, as
    :func:`loss_and_grads` returns it.
    """
    if getattr(grads, "shape", None) != model.params.shape:
        raise ShapeMismatchError(
            f"gradient shape {np.shape(grads)} != parameter shape {model.params.shape}"
        )
    state.step += 1
    correction1 = 1.0 - BETA1**state.step
    correction2 = 1.0 - BETA2**state.step
    m, v = state.moment1, state.moment2
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * grads * grads
    model.params -= state.learning_rate * (m / correction1) / (np.sqrt(v / correction2) + EPSILON)


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
        if not 0.0 <= self.sigma_weak <= self.sigma_strong < math.inf:
            raise ConfigError("need 0 <= sigma_weak <= sigma_strong < inf")
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
    """Binary checkpoint: magic, u64 dim count, u64 dims, then ``params``
    as float32 little-endian. The write is atomic (temp file + rename).

    Parameters that float32 cannot hold (NaN, infinite, or beyond
    ``F32_MAX``) raise ConfigError and write nothing: the reader would
    reject the file.
    """
    # NaN fails the comparison; so does anything float32 would round to inf.
    if not np.all(np.abs(model.params) <= F32_MAX):
        raise ConfigError("parameters are not finite in float32; no checkpoint written")
    payload = bytearray(CHECKPOINT_MAGIC)
    payload += struct.pack("<Q", len(model.layer_dims))
    payload += struct.pack(f"<{len(model.layer_dims)}Q", *model.layer_dims)
    payload += model.params.astype("<f4").tobytes()
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
    layer_dims = [int(d) for d in struct.unpack_from(f"<{n_dims}Q", raw, offset)]
    offset += 8 * n_dims
    if min(layer_dims) < 1:
        raise ParseError(f"{path}: layer dims {layer_dims} include a zero")
    if len(raw) != offset + 4 * _n_params(layer_dims):
        raise ParseError(f"{path}: parameter payload size mismatch")
    params = np.frombuffer(raw, dtype="<f4", offset=offset)
    if not np.isfinite(params).all():
        raise ParseError(f"{path}: non-finite parameters")
    return StudentModel(layer_dims, params)
