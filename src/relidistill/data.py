"""Feature datasets: file IO, synthetic benchmarks, simulated teachers.

Features are stored as CSV (``sample_id,f0,...,f{d-1}[,label]``).
Feature values are canonically float32, printed in shortest round-trip
form, so a matrix written to CSV loads back exactly.

True labels travel in a separate CSV column and exist only for
evaluation: the training code receives bare feature arrays and never
sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .consensus import PseudoLabelMatrix
from .errors import ConfigError, DataError, ParseError
from .fileio import atomic_write_text, open_utf8, read_csv, write_csv
from .seeding import BLOBS, TEACHER_SIM, derive_rng
from .text_match import ClassVocab

CONFUSION_UNIFORM = "uniform-error"
CONFUSION_ADJACENT = "adjacent-class"

# Circumradius of the class-center simplex. Fixed (independent of the
# noise spread) so that shrinking the spread really does drive the
# nearest-center error to zero.
CENTER_RADIUS = 4.0


@dataclass
class FeatureDataset:
    """Feature matrix plus ids and optional evaluation-only labels."""

    sample_ids: list[str]
    features: np.ndarray
    true_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise DataError("features must be an (N, d) matrix with d >= 1")
        if self.features.shape[0] != len(self.sample_ids):
            raise DataError("sample ids and feature rows differ in length")
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise DataError("duplicate sample ids")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        if self.true_labels is not None:
            self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
            if self.true_labels.shape != (self.features.shape[0],):
                raise DataError("true labels must align with samples")
            if self.true_labels.size and self.true_labels.min() < 0:
                raise DataError("true labels must be non-negative")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _features_layout(header: list[str]) -> tuple[list[str], list[tuple[slice, type]]]:
    """The features header a file's header must equal (at least ``f0``),
    and its columns: the features, parsed through float32 (the canonical
    on-disk precision), then the label column when there is one."""
    has_label = header[-1:] == ["label"]
    dim = max(1, len(header) - 1 - has_label)
    expected = ["sample_id"] + [f"f{j}" for j in range(dim)] + ["label"] * has_label
    columns = [(slice(1, 1 + dim), np.float32)] + [(slice(-1, None), np.int64)] * has_label
    return expected, columns


def load_features(path: str | Path, n_classes: int | None = None) -> FeatureDataset:
    """Load a feature CSV, with its label column when it has one; given
    ``n_classes``, a label outside 0..n_classes-1 raises naming its line."""
    table = read_csv(path, _features_layout)
    features, *labels = table.arrays
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise table.error(int(np.argmin(finite)), "non-finite feature")
    if labels and n_classes is not None:
        table.check_labels(labels[0], n_classes)
    return FeatureDataset(
        sample_ids=table.sample_ids,
        features=features.astype(np.float64),
        true_labels=labels[0][:, 0] if labels else None,
    )


def save_features_csv(ds: FeatureDataset, path: str | Path) -> None:
    """Write features (and the label column when present) as CSV.

    Values are rounded to float32 and printed in shortest round-trip
    form, so :func:`load_features` reproduces the float32 matrix exactly.
    """
    label_column = [] if ds.true_labels is None else [ds.true_labels.tolist()]
    header = ["sample_id"] + [f"f{j}" for j in range(ds.dim)] + ["label"] * len(label_column)
    values = (
        [np.format_float_positional(v, unique=True) for v in row]
        for row in ds.features.astype(np.float32)
    )
    rows = ([sid, *v, *label] for sid, v, *label in zip(ds.sample_ids, values, *label_column))
    write_csv(path, header, rows)


def load_class_vocab(path: str | Path) -> ClassVocab:
    """One class name per line; the line number is the class index."""
    with open_utf8(path) as fh:
        names = [line.rstrip("\n") for line in fh]
    for lineno, name in enumerate(names, start=1):
        if not name.strip():
            raise ParseError(f"{path}:{lineno}: blank class name")
    try:
        return ClassVocab(names)
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_class_vocab(vocab: ClassVocab, path: str | Path) -> None:
    atomic_write_text(path, "\n".join(vocab.names) + "\n")


def load_labels_csv(path: str | Path, n_classes: int | None = None) -> dict[str, int]:
    """Read a ``sample_id,label`` CSV into a dict; ids must be unique, and
    given ``n_classes``, a label outside 0..n_classes-1 raises naming its line."""
    table = read_csv(path, lambda header: (["sample_id", "label"], [(slice(1, 2), np.int64)]))
    (labels,) = table.arrays
    if n_classes is not None:
        table.check_labels(labels, n_classes)
    return dict(zip(table.sample_ids, labels[:, 0].tolist()))


def _class_centers(n_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic class centers at radius CENTER_RADIUS.

    When C <= d the centers are a regular simplex (scaled basis vectors)
    under a random rotation, so all pairwise distances are equal;
    otherwise C points are drawn on the sphere directly.
    """
    if n_classes <= dim:
        gauss = rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(gauss)
        q *= np.sign(np.diag(r))  # fix the sign convention
        return CENTER_RADIUS * q[:, :n_classes].T
    directions = rng.standard_normal((n_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return CENTER_RADIUS * directions


def make_blobs(
    n_samples: int, n_classes: int, dim: int, spread: float, seed: int
) -> FeatureDataset:
    """Isotropic Gaussian class blobs with balanced labels.

    ``spread`` is the per-coordinate noise standard deviation. Features
    are rounded to float32 so in-memory data matches a file round-trip;
    a spread whose features overflow float32 (``1e300``) raises.
    """
    if dim < 1:
        raise ConfigError("dim must be at least 1")
    if n_classes < 2:
        raise ConfigError("need at least 2 classes")
    if n_samples < n_classes:
        raise ConfigError("need at least one sample per class")
    if spread <= 0:
        raise ConfigError("spread must be positive")
    rng = derive_rng(seed, BLOBS)
    centers = _class_centers(n_classes, dim, rng)
    base = np.arange(n_samples) % n_classes  # balanced up to the remainder
    labels = base[rng.permutation(n_samples)]
    features = centers[labels] + rng.normal(0.0, spread, (n_samples, dim))
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, rejected below
        features = features.astype(np.float32)
    if not np.isfinite(features).all():
        raise ConfigError(f"spread {spread}: features do not fit float32")
    features = features.astype(np.float64)
    return FeatureDataset(
        sample_ids=[f"s{i:05d}" for i in range(n_samples)],
        features=features,
        true_labels=labels,
    )


@dataclass
class SimTeacherSpec:
    """Behavior of one simulated teacher.

    The teacher emits the true label with probability ``accuracy`` and
    otherwise errs per its confusion model. ``correlation`` > 0 makes it
    copy the reference teacher's (spec index 0) emitted label with that
    probability before drawing on its own; the reference itself must
    have correlation 0.
    """

    accuracy: float
    confusion: str = CONFUSION_UNIFORM
    correlation: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigError("accuracy must lie in [0, 1]")
        if not 0.0 <= self.correlation <= 1.0:
            raise ConfigError("correlation must lie in [0, 1]")
        if self.confusion not in (CONFUSION_UNIFORM, CONFUSION_ADJACENT):
            raise ConfigError(f"unknown confusion model {self.confusion!r}")


def simulate_teachers(
    ds: FeatureDataset, specs: list[SimTeacherSpec], n_classes: int
) -> PseudoLabelMatrix:
    """Draw a pseudo-label matrix over ``n_classes`` classes from per-teacher
    accuracy specs; a truth label outside the classes raises."""
    if ds.true_labels is None:
        raise ConfigError("simulated teachers need true labels")
    if len(specs) < 2:
        raise ConfigError("need at least 2 teacher specs")
    if specs[0].correlation != 0.0:
        raise ConfigError("the reference teacher (spec 0) cannot be correlated")
    if np.any(ds.true_labels >= n_classes):
        raise DataError("true labels exceed the class count")

    truth = ds.true_labels
    n = truth.shape[0]
    columns = np.empty((n, len(specs)), dtype=np.int64)
    for t, spec in enumerate(specs):
        rng = derive_rng(spec.seed, TEACHER_SIM, t)
        # Fixed draw order per teacher: copy coin, accuracy coin, error draw.
        copy_coin = rng.random(n)
        acc_coin = rng.random(n)
        if spec.confusion == CONFUSION_UNIFORM:
            offset = rng.integers(1, n_classes, size=n)
            wrong = (truth + offset) % n_classes
        else:
            step = rng.integers(0, 2, size=n) * 2 - 1
            wrong = (truth + step) % n_classes
        own = np.where(acc_coin < spec.accuracy, truth, wrong)
        if t > 0 and spec.correlation > 0.0:
            columns[:, t] = np.where(copy_coin < spec.correlation, columns[:, 0], own)
        else:
            columns[:, t] = own
    return PseudoLabelMatrix(
        sample_ids=list(ds.sample_ids), labels=columns, n_classes=n_classes
    )
