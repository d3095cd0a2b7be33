"""Inter-teacher agreement: reliability scores, partition, mode, masks.

The reliability of a sample is the fraction of ordered teacher pairs
that assigned it the same label. All tag decisions compare integer
agreement counts (never floats), so full agreement and zero agreement
are classified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, InvalidRowError
from .fileio import read_csv, write_csv
from .seeding import MODE_TIE, derive_rng

TAG_RELIABLE = "R"
TAG_LESS_RELIABLE = "LR"
TAG_UNRELIABLE = "UR"
TAGS = (TAG_RELIABLE, TAG_LESS_RELIABLE, TAG_UNRELIABLE)


@dataclass
class PseudoLabelMatrix:
    """N x M matrix of per-teacher class assignments.

    Entries are class indices in 0..C-1: every teacher labeled every
    sample. A sample whose answer could not be labeled is dropped or
    rejected by ``text_match.label_records`` and never reaches a matrix.
    """

    sample_ids: list[str]
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 2 or self.labels.shape[0] != len(self.sample_ids):
            raise DataError("labels must be an (N, M) matrix aligned with sample_ids")
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise DataError("duplicate sample ids in pseudo-label matrix")
        if self.labels.shape[1] < 2:
            raise DataError("reliability needs at least 2 teachers")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise DataError("labels must lie in 0..C-1")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def m(self) -> int:
        return self.labels.shape[1]


@dataclass
class ReliabilityPartition:
    """Per-sample reliability score and R / LR / UR tag."""

    scores: np.ndarray
    tags: np.ndarray

    def indices(self, tag: str) -> np.ndarray:
        if tag not in TAGS:
            raise ConfigError(f"unknown tag {tag!r}")
        return np.flatnonzero(self.tags == tag)

    def counts(self) -> dict[str, int]:
        return {tag: int(np.sum(self.tags == tag)) for tag in TAGS}


def _check_rows(labels: np.ndarray) -> np.ndarray:
    """An (N, M) label matrix whose rows are non-empty and hold no negative label."""
    if labels.shape[1] == 0:
        raise InvalidRowError("empty label row")
    if np.any(labels < 0):
        raise InvalidRowError("row contains a negative label")
    return labels


def _check_row(row) -> np.ndarray:
    return _check_rows(np.asarray(row, dtype=np.int64).reshape(1, -1))[0]


def _class_counts(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(N, C) array: how many teachers gave each row each class.

    Labels in 0..C-1 are a PseudoLabelMatrix invariant.
    """
    offsets = n_classes * np.arange(labels.shape[0])[:, None]
    flat = np.bincount((labels + offsets).ravel(), minlength=labels.shape[0] * n_classes)
    return flat.reshape(labels.shape[0], n_classes)


def agreement_count(labels):
    """Number of ordered pairs (m, n), m != n, with equal labels.

    One row gives an int; an (N, M) matrix gives per-row counts.
    """
    labels = np.asarray(labels, dtype=np.int64)
    single = labels.ndim != 2
    rows = _check_rows(labels.reshape(1, -1) if single else labels)
    m = rows.shape[1]
    if m < 2:
        raise ConfigError("agreement needs at least 2 teachers")
    # Each column matches itself once; those m self-pairs are not counted.
    counts = sum((rows == rows[:, [t]]).sum(axis=1) for t in range(m)) - m
    return int(counts[0]) if single else counts


def partition(matrix: PseudoLabelMatrix) -> ReliabilityPartition:
    """Score and tag every sample: its score, the reliability, is agreeing
    ordered pairs over all M(M-1), in [0, 1]; its tag is R (unanimous), UR
    (all distinct), or LR (between).

    Tags come from the integer agreement count compared against 0 and
    M(M-1), so a sample can never be misfiled by float rounding.
    """
    full = matrix.m * (matrix.m - 1)
    counts = agreement_count(matrix.labels)
    tags = np.full(matrix.n, TAG_LESS_RELIABLE, dtype="U2")
    tags[counts == full] = TAG_RELIABLE
    tags[counts == 0] = TAG_UNRELIABLE
    return ReliabilityPartition(scores=counts / full, tags=tags)


def mode_label(row, rng: np.random.Generator) -> int:
    """Most frequent label in the row.

    Ties are resolved uniformly at random via ``rng``; an untied row
    draws nothing from it. A single-entry row is allowed.
    """
    row = _check_row(row)
    values, counts = np.unique(row, return_counts=True)
    top = values[counts == counts.max()]
    if top.size == 1:
        return int(top[0])
    return int(top[rng.integers(top.size)])


def mode_labels(
    matrix: PseudoLabelMatrix, seed: int, purpose: int = MODE_TIE, rows=None
) -> np.ndarray:
    """Per-row mode labels with the tie rng split per row.

    A tied row ``i`` goes to :func:`mode_label` with
    ``derive_rng(seed, purpose, i)``, so the result does not depend on
    evaluation order or on which rows are consulted. ``rows``, a 1-D
    array of row indices in 0..N-1, limits the result to those rows (in
    that order): ``mode_labels(m, s, p, rows=r)`` equals
    ``mode_labels(m, s, p)[r]``. None means every row.
    """
    labels = matrix.labels
    if rows is None:
        rows = np.arange(matrix.n)
    else:
        rows = np.asarray(rows)
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise ConfigError("rows must be a 1-D array of row indices")
        if rows.size and (rows.min() < 0 or rows.max() >= matrix.n):
            raise ConfigError(f"row indices must lie in 0..{matrix.n - 1}")
        labels = labels[rows.astype(np.intp)]
    counts = _class_counts(labels, matrix.n_classes)
    out = counts.argmax(axis=1)  # the mode of every untied row
    tied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1
    for j in np.flatnonzero(tied):
        out[j] = mode_label(labels[j], rng=derive_rng(seed, purpose, int(rows[j])))
    return out


def multi_hot_mask(row, n_classes: int) -> np.ndarray:
    """Boolean length-C vector: bit c set iff some teacher predicted c."""
    row = _check_row(row)
    if np.any(row >= n_classes):
        raise DataError(f"label out of range for {n_classes} classes")
    return _class_counts(row[None, :], n_classes)[0] > 0


def multi_hot_masks(matrix: PseudoLabelMatrix) -> np.ndarray:
    """(N, C) boolean stack of per-row masks."""
    return _class_counts(matrix.labels, matrix.n_classes) > 0


def _matrix_header(m: int) -> list[str]:
    return ["sample_id"] + [f"teacher_{t}" for t in range(m)]


def write_matrix_csv(matrix: PseudoLabelMatrix, path: str | Path) -> None:
    """CSV with header ``sample_id,teacher_0,...,teacher_{M-1}``."""
    rows = ([sid] + labels for sid, labels in zip(matrix.sample_ids, matrix.labels.tolist()))
    write_csv(path, _matrix_header(matrix.m), rows)


def read_matrix_csv(path: str | Path, n_classes: int | None = None) -> PseudoLabelMatrix:
    """Read a pseudo-label CSV; infers C = max label + 1 when not given.

    A header of fewer than 2 teacher columns is malformed, and a label outside
    0..C-1 (such as -1) raises :class:`ParseError` naming the first row holding one."""
    table = read_csv(
        path,
        lambda header: (_matrix_header(max(2, len(header) - 1)), [(slice(1, None), np.int64)]),
    )
    (labels,) = table.arrays
    if n_classes is None:
        n_classes = max(2, int(labels.max()) + 1 if labels.size else 2)
    table.check_labels(labels, n_classes)
    return PseudoLabelMatrix(sample_ids=table.sample_ids, labels=labels, n_classes=n_classes)


def write_partition_csv(
    part: ReliabilityPartition, sample_ids: list[str], path: str | Path
) -> None:
    """CSV with header ``sample_id,score,tag``."""
    if len(sample_ids) != part.scores.shape[0]:
        raise DataError("sample ids and partition length differ")
    rows = zip(sample_ids, map(repr, part.scores.tolist()), part.tags)
    write_csv(path, ["sample_id", "score", "tag"], rows)
