"""Evaluation: accuracy, the majority-vote baseline, reliability bins.

The reliability report buckets samples by their exact agreement-count
ratio (discrete values, not float ranges). Bins with positive agreement
report majority-vote accuracy; the zero-agreement bin reports each
teacher's individual accuracy, since no vote is meaningful there.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .consensus import (
    PseudoLabelMatrix,
    ReliabilityPartition,
    agreement_count,
    mode_labels,
)
from .errors import DataError
from .seeding import ENSEMBLE


def accuracy(predictions, truths) -> float:
    """Fraction of exactly-equal entries."""
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if predictions.shape != truths.shape or predictions.ndim != 1:
        raise DataError("predictions and truths must be equal-length vectors")
    if predictions.size == 0:
        raise DataError("empty prediction vector")
    return float(np.mean(predictions == truths))


def ensemble_baseline(pl: PseudoLabelMatrix, truths, seed: int) -> float:
    """Accuracy of the per-row mode label with seeded random tie-breaks."""
    truths = np.asarray(truths, dtype=np.int64)
    if truths.shape != (pl.n,):
        raise DataError("truths must align with the pseudo-label matrix")
    return accuracy(mode_labels(pl, seed, purpose=ENSEMBLE), truths)


@dataclass
class ReliabilityBin:
    """One exact score level of the reliability histogram."""

    agreement_count: int
    score: float
    n_samples: int
    majority_accuracy: float | None
    per_teacher_accuracy: list[float] | None


@dataclass
class ReliabilityReport:
    n_samples: int
    n_teachers: int
    bins: list[ReliabilityBin]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_text_table(self) -> str:
        """Aligned columns, one row per reliability level."""
        rows = [("score", "samples", "accuracy")]
        for b in self.bins:
            if b.majority_accuracy is not None:
                acc = f"majority {b.majority_accuracy:.4f}"
            else:
                acc = " ".join(
                    f"t{t}={v:.4f}" for t, v in enumerate(b.per_teacher_accuracy)
                )
            rows.append((f"{b.score:.4f}", str(b.n_samples), acc))
        widths = [max(len(r[c]) for r in rows) for c in range(3)]
        return "\n".join(
            "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
            for row in rows
        )


def reliability_report(
    pl: PseudoLabelMatrix,
    part: ReliabilityPartition,
    truths,
    seed: int,
) -> ReliabilityReport:
    """Per-reliability-level accuracy diagnostic."""
    truths = np.asarray(truths, dtype=np.int64)
    if truths.shape != (pl.n,):
        raise DataError("truths must align with the pseudo-label matrix")
    if part.scores.shape != (pl.n,):
        raise DataError("partition must align with the pseudo-label matrix")

    counts = agreement_count(pl.labels)
    votes = mode_labels(pl, seed, purpose=ENSEMBLE)
    bins: list[ReliabilityBin] = []
    full = pl.m * (pl.m - 1)
    for level in map(int, np.unique(counts)[::-1]):
        members = np.flatnonzero(counts == level)
        if level > 0:
            majority = accuracy(votes[members], truths[members])
            per_teacher = None
        else:
            majority = None
            per_teacher = [
                accuracy(pl.labels[members, t], truths[members]) for t in range(pl.m)
            ]
        bins.append(
            ReliabilityBin(
                agreement_count=level,
                score=level / full,
                n_samples=int(members.size),
                majority_accuracy=majority,
                per_teacher_accuracy=per_teacher,
            )
        )
    return ReliabilityReport(n_samples=pl.n, n_teachers=pl.m, bins=bins)
