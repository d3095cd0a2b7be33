"""Three-stage training curriculum over reliability-partitioned data.

Stage 1 (RKT) trains on unanimously-labeled samples only. Stage 2
(SMKE) widens to partially-agreed samples, choosing per sample between
the student's own confident prediction and the teachers' mode label.
Stage 3 (MMR) trains on everything: low-confidence predictions are
restricted to the union of teacher-suggested classes, and a weak/strong
consistency term regularizes the fit.

Each stage starts from the previous stage's parameters and runs one
shared training loop with its own sample pool and label rule; a
non-finite loss or parameters raise StageError before that stage writes
its checkpoint. The whole run is a deterministic function of
(features, pseudo-labels, configs, seed).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .consensus import (
    PseudoLabelMatrix,
    ReliabilityPartition,
    TAG_RELIABLE,
    TAG_UNRELIABLE,
    check_tie_break,
    mode_label,
    mode_labels,
    multi_hot_mask,
    multi_hot_masks,
    partition,
)
from .data import FeatureDataset
from .errors import ConfigError, DataError, StageError
from .fileio import atomic_write_text
from .seeding import SHUFFLE, derive_rng
from .student import (
    AugmentPolicy,
    StudentModel,
    augment,
    confidence,
    init_optimizer,
    init_student,
    loss_and_grads,
    optimizer_step,
    predict_proba,
    save_checkpoint,
)

STAGE_RKT = "RKT"
STAGE_SMKE = "SMKE"
STAGE_MMR = "MMR"
STAGES = (STAGE_RKT, STAGE_SMKE, STAGE_MMR)

# Values a stage config read from JSON takes for the keys it omits.
STAGE_DEFAULTS = {STAGE_SMKE: {"tau": 0.7}, STAGE_MMR: {"tau": 0.95, "lambda_cons": 0.5}}
DEFAULT_LAMBDA_CONS = STAGE_DEFAULTS[STAGE_MMR]["lambda_cons"]
DEFAULT_HIDDEN_DIMS = [128]

LOSS_SAMPLE_EVERY = 50
F32_MAX = float(np.finfo(np.float32).max)  # checkpoints store float32


@dataclass
class StageConfig:
    """Hyperparameters for one stage.

    ``tau`` is required for SMKE and MMR (and rejected for RKT);
    ``lambda_cons`` is required for MMR only.
    """

    stage: str
    learning_rate: float
    batch_size: int
    max_iter: int
    tau: float | None = None
    lambda_cons: float | None = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}")
        if self.learning_rate <= 0:
            raise ConfigError(f"{self.stage}: learning rate must be positive")
        if self.batch_size < 1 or self.max_iter < 1:
            raise ConfigError(f"{self.stage}: batch size and max iter must be >= 1")
        if self.stage == STAGE_RKT:
            if self.tau is not None or self.lambda_cons is not None:
                raise ConfigError("RKT takes neither tau nor lambda_cons")
            return
        if self.tau is None:
            raise ConfigError(f"{self.stage}: tau is required")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"{self.stage}: tau must lie in [0, 1]")
        if self.stage == STAGE_MMR:
            if self.lambda_cons is None:
                raise ConfigError("MMR: lambda_cons is required")
            if self.lambda_cons < 0:
                raise ConfigError("MMR: lambda_cons must be >= 0")
        elif self.lambda_cons is not None:
            raise ConfigError("SMKE takes no lambda_cons")


@dataclass
class TrainReport:
    """What one stage did.

    ``wall_time_s`` is the only non-deterministic field and is excluded
    from the JSON form so written reports are byte-reproducible.
    """

    stage: str
    iterations: int
    final_loss: float
    loss_curve: list[tuple[int, float]]
    accuracy: float | None = None
    label_sources: dict[str, int] | None = None
    touched_sample_indices: list[int] = field(default_factory=list)
    wall_time_s: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "stage": self.stage,
            "iterations": self.iterations,
            "final_loss": self.final_loss,
            "loss_curve": [[int(i), float(l)] for i, l in self.loss_curve],
            "accuracy": self.accuracy,
            "touched_sample_count": len(self.touched_sample_indices),
        }
        if self.label_sources is not None:
            out["label_sources"] = dict(self.label_sources)
        return out


@dataclass
class CurriculumRun:
    """Result bundle of a full three-stage run."""

    seed: int
    reports: list[TrainReport]
    checkpoint_paths: dict[str, str] = field(default_factory=dict)


def validate_stage_configs(configs: list[StageConfig]) -> None:
    """Exactly one config per stage, in curriculum order."""
    got = [cfg.stage for cfg in configs]
    missing = [stage for stage in STAGES if stage not in got]
    if missing:
        raise ConfigError(f"missing stage config: {', '.join(missing)}")
    if got != list(STAGES):
        raise ConfigError(f"stage configs must be ordered {STAGES}, got {got}")


def _train_stage(
    model: StudentModel, cfg: StageConfig, pool: np.ndarray, seed: int, batch_loss
) -> TrainReport:
    """Train on minibatches of ``pool``, reshuffled each epoch (the short
    tail batch is kept) from the stage's own shuffle stream.

    ``batch_loss(iteration, batch)`` applies the stage's label rule to
    the sample indices in ``batch`` and returns (loss, grads).
    """
    shuffle_rng = derive_rng(seed, SHUFFLE, STAGES.index(cfg.stage))
    optimizer = init_optimizer(model, cfg.learning_rate)
    curve: list[tuple[int, float]] = []
    last_loss = float("nan")
    batches_per_epoch = math.ceil(pool.size / cfg.batch_size)
    for iteration in range(cfg.max_iter):
        start = (iteration % batches_per_epoch) * cfg.batch_size
        if start == 0:
            order = pool[shuffle_rng.permutation(pool.size)]
        loss, grads = batch_loss(iteration, order[start : start + cfg.batch_size])
        if not math.isfinite(loss):
            raise StageError(
                f"{cfg.stage}: training diverged at iteration {iteration} (loss {loss})"
            )
        if iteration % LOSS_SAMPLE_EVERY == 0:
            curve.append((iteration, loss))
        optimizer_step(model, optimizer, grads)
        last_loss = loss
    return TrainReport(
        stage=cfg.stage,
        iterations=cfg.max_iter,
        final_loss=last_loss,
        loss_curve=curve,
        touched_sample_indices=sorted(int(i) for i in pool),
    )


def _smke_labels(probs: np.ndarray, teacher: np.ndarray, tau: float):
    """Stage-2 rule: the student's argmax where its confidence reaches
    ``tau``, else the teachers' label; returns (labels, student_flags)."""
    use_student = probs.max(axis=1) >= tau
    return np.where(use_student, probs.argmax(axis=1), teacher), use_student


def smke_label(
    model: StudentModel,
    x: np.ndarray,
    row: np.ndarray,
    tau: float,
    rng: np.random.Generator | None = None,
    tie_break: str = "random",
) -> int:
    """The stage-2 label rule for one sample, from the current weights.

    Returns the student's own prediction when its confidence reaches
    ``tau``, otherwise the teachers' mode label.
    """
    teacher = mode_label(row, rng=rng, tie_break=tie_break)
    labels, _ = _smke_labels(predict_proba(model, x), np.array([teacher]), tau)
    return int(labels[0])


def mmr_refine(
    probabilities: np.ndarray, row: np.ndarray, n_classes: int, tau: float
) -> int:
    """The stage-3 refined label for one probability vector.

    Confident predictions keep their argmax; below ``tau`` the argmax is
    taken over probabilities restricted to classes some teacher
    suggested. Ties go to the lowest index.
    """
    probs = np.asarray(probabilities, dtype=np.float64).ravel()
    if probs.shape[0] != n_classes:
        raise DataError("probability vector length != class count")
    labels, _ = _refine_batch(probs[None, :], multi_hot_mask(row, n_classes)[None, :], tau)
    return int(labels[0])


def _refine_batch(probs: np.ndarray, masks: np.ndarray, tau: float):
    """Vectorized stage-3 refinement; returns (labels, confident_flags)."""
    confident = probs.max(axis=1) >= tau
    labels = np.where(confident, probs.argmax(axis=1), (probs * masks).argmax(axis=1))
    return labels.astype(np.int64), confident


def run_rkt(
    model: StudentModel,
    X: np.ndarray,
    part: ReliabilityPartition,
    pl: PseudoLabelMatrix,
    cfg: StageConfig,
    seed: int,
) -> TrainReport:
    """Stage 1: supervised training on the unanimous subset."""
    if cfg.stage != STAGE_RKT:
        raise ConfigError(f"expected an RKT config, got {cfg.stage}")
    reliable = part.indices(TAG_RELIABLE)
    if reliable.size == 0:
        raise StageError(
            "no fully-agreed samples to start from; review teacher quality "
            "or the pseudo-labeling step"
        )

    def batch_loss(iteration, batch):
        # Unanimous rows: any teacher column holds the label.
        return loss_and_grads(model, X[batch], pl.labels[batch, 0])

    return _train_stage(model, cfg, reliable, seed, batch_loss)


def run_smke(
    model: StudentModel,
    X: np.ndarray,
    part: ReliabilityPartition,
    pl: PseudoLabelMatrix,
    cfg: StageConfig,
    seed: int,
    tie_break: str = "random",
) -> TrainReport:
    """Stage 2: widen to partial agreement with self-correcting labels.

    Labels are recomputed from the live weights at every batch, so a
    sample's label can flip between student and teacher sources as
    confidence evolves.
    """
    if cfg.stage != STAGE_SMKE:
        raise ConfigError(f"expected an SMKE config, got {cfg.stage}")
    pool = np.flatnonzero(part.tags != TAG_UNRELIABLE)
    if pool.size == 0:
        raise StageError("no samples with any teacher agreement; SMKE cannot run")
    teacher_mode = mode_labels(pl, seed, tie_break=tie_break)
    sources = {"student": 0, "teacher": 0}

    def batch_loss(iteration, batch):
        probs = predict_proba(model, X[batch])
        labels, use_student = _smke_labels(probs, teacher_mode[batch], cfg.tau)
        sources["student"] += int(use_student.sum())
        sources["teacher"] += int((~use_student).sum())
        return loss_and_grads(model, X[batch], labels)

    report = _train_stage(model, cfg, pool, seed, batch_loss)
    report.label_sources = sources
    return report


def run_mmr(
    model: StudentModel,
    X: np.ndarray,
    part: ReliabilityPartition,
    pl: PseudoLabelMatrix,
    cfg: StageConfig,
    policy: AugmentPolicy,
    seed: int,
) -> TrainReport:
    """Stage 3: full-set training with masked refinement and consistency.

    Only the batch rows are perturbed, each keyed by (view, iteration,
    sample index), so a sample's noise is independent of batch
    membership. Confidence and the refined label come from the weak
    view; the combined loss is sup + lambda_cons * cons.
    ``label_sources`` counts refined labels that kept the confident
    argmax ("confident") and those restricted to the teachers' classes
    ("masked").
    """
    if cfg.stage != STAGE_MMR:
        raise ConfigError(f"expected an MMR config, got {cfg.stage}")
    pool = np.arange(pl.n)
    if pool.size == 0:
        raise StageError("empty dataset; MMR cannot run")
    masks = multi_hot_masks(pl)
    lam = float(cfg.lambda_cons)
    sources = {"confident": 0, "masked": 0}

    def batch_loss(iteration, batch):
        x_weak = augment(X[batch], batch, policy, "weak", seed, iteration)
        x_strong = augment(X[batch], batch, policy, "strong", seed, iteration)
        refined, confident = _refine_batch(predict_proba(model, x_weak), masks[batch], cfg.tau)
        sources["confident"] += int(confident.sum())
        sources["masked"] += int((~confident).sum())
        loss_sup, grads_weak = loss_and_grads(model, x_weak, refined)
        loss_cons, grads_strong = loss_and_grads(model, x_strong, refined)
        combined = [
            (gw + lam * gs, bw + lam * bs)
            for (gw, bw), (gs, bs) in zip(grads_weak, grads_strong)
        ]
        return loss_sup + lam * loss_cons, combined

    report = _train_stage(model, cfg, pool, seed, batch_loss)
    report.label_sources = sources
    return report


def _align(ds: FeatureDataset, pl: PseudoLabelMatrix):
    """Match matrix rows to feature rows by sample id, in matrix order."""
    position = {sid: i for i, sid in enumerate(ds.sample_ids)}
    missing = [sid for sid in pl.sample_ids if sid not in position]
    if missing:
        raise DataError(f"pseudo-labeled samples not in the feature set: {missing[:5]}")
    rows = np.array([position[sid] for sid in pl.sample_ids], dtype=np.int64)
    X = ds.features[rows]
    truths = ds.true_labels[rows] if ds.true_labels is not None else None
    return X, truths


def run_curriculum(
    ds: FeatureDataset,
    pl: PseudoLabelMatrix,
    configs: list[StageConfig],
    seed: int,
    policy: AugmentPolicy | None = None,
    hidden_dims: list[int] | None = None,
    checkpoint_dir: str | Path | None = None,
    tie_break: str = "random",
    warm_start: StudentModel | None = None,
) -> tuple[StudentModel, CurriculumRun]:
    """Chain the three stages; checkpoint after each.

    Training sees only the feature view of ``ds``; true labels, when
    present, feed the per-stage accuracy report and nothing else.
    ``checkpoint_dir`` is made at the first checkpoint, and a failed stage
    leaves earlier checkpoints in place. ``hidden_dims``
    None means ``DEFAULT_HIDDEN_DIMS``; ``[]`` gives a linear student.
    """
    validate_stage_configs(configs)
    check_tie_break(tie_break)
    if policy is None:
        policy = AugmentPolicy()
    X, truths = _align(ds, pl)
    part = partition(pl)
    if warm_start is not None:
        if warm_start.layer_dims[0] != X.shape[1] or warm_start.n_classes != pl.n_classes:
            raise ConfigError("warm-start checkpoint does not match data dims")
        model = warm_start.copy()
    else:
        hidden = DEFAULT_HIDDEN_DIMS if hidden_dims is None else hidden_dims
        model = init_student([X.shape[1], *hidden, pl.n_classes], seed)

    run = CurriculumRun(seed=seed, reports=[])
    for cfg in configs:
        started = time.perf_counter()
        if cfg.stage == STAGE_RKT:
            report = run_rkt(model, X, part, pl, cfg, seed)
        elif cfg.stage == STAGE_SMKE:
            report = run_smke(model, X, part, pl, cfg, seed, tie_break=tie_break)
        else:
            report = run_mmr(model, X, part, pl, cfg, policy, seed)
        report.wall_time_s = time.perf_counter() - started
        # NaN fails the comparison; so does anything float32 would round to inf.
        if not all(np.all(np.abs(p) <= F32_MAX) for p in model.weights + model.biases):
            raise StageError(f"{cfg.stage}: parameters are not finite in float32")
        if truths is not None:
            # Clean (unaugmented) forward pass on the aligned set.
            _, predicted = confidence(model, X)
            report.accuracy = float(np.mean(predicted == truths))
        run.reports.append(report)
        if checkpoint_dir is not None:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            path = Path(checkpoint_dir) / f"checkpoint_{cfg.stage.lower()}.bin"
            save_checkpoint(model, path)
            run.checkpoint_paths[cfg.stage] = str(path)
    return model, run


def write_run_report(run: CurriculumRun, path: str | Path) -> None:
    """Deterministic JSON report.

    Checkpoints are referenced by file name (they sit next to the
    report) and timing lives elsewhere, so identical runs produce
    byte-identical report files regardless of where they ran.
    """
    payload = {
        "seed": run.seed,
        "checkpoints": {
            stage: Path(p).name for stage, p in sorted(run.checkpoint_paths.items())
        },
        "stages": [report.to_json_dict() for report in run.reports],
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
