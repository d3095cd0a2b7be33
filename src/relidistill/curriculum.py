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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .consensus import (
    PseudoLabelMatrix,
    ReliabilityPartition,
    TAG_RELIABLE,
    TAG_UNRELIABLE,
    mode_labels,
    multi_hot_mask,
    multi_hot_masks,
    partition,
)
from .data import FeatureDataset
from .errors import ConfigError, DataError, StageError, check_int
from .fileio import atomic_write_text
from .seeding import SHUFFLE, derive_rng
from .student import (
    F32_MAX,
    AugmentPolicy,
    StudentModel,
    augment,
    backprop,
    confidence,
    forward_pass,
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
CHECKPOINT_NAMES = {stage: f"checkpoint_{stage.lower()}.bin" for stage in STAGES}
REPORT_NAME, TIMING_NAME = "train_report.json", "timing.json"
# Every file a run writes; an earlier run's go at this run's first checkpoint.
RUN_FILES = (*CHECKPOINT_NAMES.values(), REPORT_NAME, TIMING_NAME)

# Values a stage config read from JSON takes for the keys it omits.
STAGE_DEFAULTS = {STAGE_SMKE: {"tau": 0.7}, STAGE_MMR: {"tau": 0.95, "lambda_cons": 0.5}}
DEFAULT_HIDDEN_DIMS = [128]

LOSS_SAMPLE_EVERY = 50


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
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"{self.stage}: learning rate must be positive and finite")
        self.batch_size = check_int(self.batch_size, f"{self.stage}: batch_size", 1)
        self.max_iter = check_int(self.max_iter, f"{self.stage}: max_iter", 1)
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
            if not 0 <= self.lambda_cons < math.inf:
                raise ConfigError("MMR: lambda_cons must be finite and >= 0")
        elif self.lambda_cons is not None:
            raise ConfigError("SMKE takes no lambda_cons")


@dataclass
class TrainReport:
    """What one stage did: its entry in ``train_report.json``, so every
    field is deterministic.

    ``touched_sample_count`` is the size of the stage's sample pool.
    """

    stage: str
    iterations: int
    final_loss: float
    loss_curve: list[tuple[int, float]]
    accuracy: float | None = None
    label_sources: dict[str, int] | None = None
    touched_sample_count: int = 0

    def to_json_dict(self) -> dict:
        out = asdict(self)
        if self.label_sources is None:
            del out["label_sources"]
        return out


@dataclass
class CurriculumRun:
    """Result bundle of a full three-stage run. The wall times, per stage
    and for the whole run, are its only non-deterministic fields."""

    seed: int
    reports: list[TrainReport]
    checkpoint_paths: dict[str, str] = field(default_factory=dict)
    stage_wall_time_s: dict[str, float] = field(default_factory=dict)
    total_wall_time_s: float | None = None


def validate_stage_configs(configs: list[StageConfig]) -> None:
    """Exactly one config per stage, in curriculum order."""
    got = [cfg.stage for cfg in configs]
    missing = [stage for stage in STAGES if stage not in got]
    if missing:
        raise ConfigError(f"missing stage config: {', '.join(missing)}")
    if got != list(STAGES):
        raise ConfigError(f"stage configs must be ordered {STAGES}, got {got}")


def _train_stage(
    model: StudentModel, cfg: StageConfig, pool: np.ndarray, seed: int, batch_loss, label_sources
) -> TrainReport:
    """Train on minibatches of ``pool``, reshuffled each epoch (the short
    tail batch is kept) from the stage's own shuffle stream, and report it.

    ``batch_loss(iteration, batch)`` applies the stage's label rule to
    the sample indices in ``batch`` and returns (loss, grads), counting
    the source of each label in ``label_sources`` (None for a stage with
    one source). A non-finite loss, or parameters no float32 checkpoint
    can hold, raise :class:`StageError`.
    """
    shuffle_rng = derive_rng(seed, SHUFFLE, STAGES.index(cfg.stage))
    optimizer = init_optimizer(model, cfg.learning_rate)
    curve: list[tuple[int, float]] = []
    last_loss = float("nan")
    batches_per_epoch = math.ceil(pool.size / cfg.batch_size)
    # Divergence overflows first; the loss and float32 checks report it.
    with np.errstate(over="ignore", invalid="ignore"):
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
    # NaN fails the comparison; so does anything float32 would round to inf.
    if not np.all(np.abs(model.params) <= F32_MAX):
        raise StageError(f"{cfg.stage}: parameters are not finite in float32")
    return TrainReport(
        stage=cfg.stage,
        iterations=cfg.max_iter,
        final_loss=last_loss,
        loss_curve=curve,
        label_sources=label_sources,
        touched_sample_count=int(pool.size),
    )


def _confidence_gate(probs: np.ndarray, tau: float, fallback: np.ndarray):
    """The label rule of stages 2 and 3: the student's argmax where its max
    probability reaches ``tau``, else ``fallback`` (SMKE: the teachers' mode;
    MMR: the masked argmax); returns (labels, confident_flags)."""
    confident = probs.max(axis=1) >= tau
    return np.where(confident, probs.argmax(axis=1), fallback).astype(np.int64), confident


def mmr_refine(
    probabilities: np.ndarray, row: np.ndarray, n_classes: int, tau: float
) -> int:
    """The stage-3 refined label for one probability vector.

    Confident predictions keep their argmax; below ``tau`` the argmax is
    taken over probabilities restricted to classes some teacher
    suggested. Ties go to the lowest index.
    """
    probs = np.asarray(probabilities, dtype=np.float64).ravel()
    if probs.shape[0] != check_int(n_classes, "n_classes", 1):
        raise DataError("probability vector length != class count")
    labels, _ = _refine_batch(probs[None, :], multi_hot_mask(row, n_classes)[None, :], tau)
    return int(labels[0])


def _refine_batch(probs: np.ndarray, masks: np.ndarray, tau: float):
    """Vectorized stage-3 refinement; returns (labels, confident_flags)."""
    return _confidence_gate(probs, tau, (probs * masks).argmax(axis=1))


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

    return _train_stage(model, cfg, reliable, seed, batch_loss, None)


def run_smke(
    model: StudentModel,
    X: np.ndarray,
    part: ReliabilityPartition,
    pl: PseudoLabelMatrix,
    cfg: StageConfig,
    seed: int,
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
    # Batches draw only from the pool; -1 elsewhere is a label no loss accepts.
    teacher_mode = np.full(pl.n, -1, dtype=np.int64)
    teacher_mode[pool] = mode_labels(pl, seed, rows=pool)
    sources = {"student": 0, "teacher": 0}

    def batch_loss(iteration, batch):
        probs = predict_proba(model, X[batch])
        labels, use_student = _confidence_gate(probs, cfg.tau, teacher_mode[batch])
        sources["student"] += int(use_student.sum())
        sources["teacher"] += int((~use_student).sum())
        return loss_and_grads(model, X[batch], labels)

    return _train_stage(model, cfg, pool, seed, batch_loss, sources)


def run_mmr(
    model: StudentModel,
    X: np.ndarray,
    pl: PseudoLabelMatrix,
    cfg: StageConfig,
    policy: AugmentPolicy,
    seed: int,
) -> TrainReport:
    """Stage 3: full-set training with masked refinement and consistency.

    Only the batch rows are perturbed, each keyed by (view, iteration,
    sample index), so a sample's noise is independent of batch
    membership. Confidence and the refined label come from the weak
    view, whose one forward pass also feeds the supervised gradient; the
    combined loss is sup + lambda_cons * cons.
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
        activations, probs = forward_pass(model, x_weak)
        refined, confident = _refine_batch(probs, masks[batch], cfg.tau)
        sources["confident"] += int(confident.sum())
        sources["masked"] += int((~confident).sum())
        loss_sup, grads_weak = backprop(model, activations, probs, refined)
        loss_cons, grads_strong = loss_and_grads(model, x_strong, refined)
        return loss_sup + lam * loss_cons, grads_weak + lam * grads_strong

    return _train_stage(model, cfg, pool, seed, batch_loss, sources)


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
    warm_start: StudentModel | None = None,
) -> tuple[StudentModel, CurriculumRun]:
    """Chain the three stages; checkpoint after each.

    Training sees only the feature view of ``ds``; true labels, when
    present, feed the per-stage accuracy report and nothing else.
    ``checkpoint_dir`` is made at the first checkpoint, and the
    ``RUN_FILES`` an earlier run left there are removed just before it:
    a run that fails before then changes nothing on disk, and a failed
    later stage leaves only this run's earlier checkpoints. ``hidden_dims``
    None means ``DEFAULT_HIDDEN_DIMS``; ``[]`` gives a linear student.
    With ``warm_start`` the checkpoint sets the shape, and ``hidden_dims``,
    when given, must equal its hidden layer widths.
    """
    started = time.perf_counter()
    seed = check_int(seed, "seed")
    validate_stage_configs(configs)
    if policy is None:
        policy = AugmentPolicy()
    X, truths = _align(ds, pl)
    part = partition(pl)
    if warm_start is not None:
        if warm_start.layer_dims[0] != X.shape[1] or warm_start.n_classes != pl.n_classes:
            raise DataError("warm-start checkpoint does not match data dims")
        warm_hidden = list(warm_start.layer_dims[1:-1])
        if hidden_dims is not None and list(hidden_dims) != warm_hidden:
            raise ConfigError(
                f"hidden_dims {list(hidden_dims)} differ from the warm-start "
                f"checkpoint's hidden layers {warm_hidden}"
            )
        model = warm_start.copy()
    else:
        hidden = DEFAULT_HIDDEN_DIMS if hidden_dims is None else hidden_dims
        model = init_student([X.shape[1], *hidden, pl.n_classes], seed)

    run = CurriculumRun(seed=seed, reports=[])
    for cfg in configs:
        stage_started = time.perf_counter()
        if cfg.stage == STAGE_RKT:
            report = run_rkt(model, X, part, pl, cfg, seed)
        elif cfg.stage == STAGE_SMKE:
            report = run_smke(model, X, part, pl, cfg, seed)
        else:
            report = run_mmr(model, X, pl, cfg, policy, seed)
        run.stage_wall_time_s[cfg.stage] = time.perf_counter() - stage_started
        if truths is not None:
            # Clean (unaugmented) forward pass on the aligned set.
            _, predicted = confidence(model, X)
            report.accuracy = float(np.mean(predicted == truths))
        run.reports.append(report)
        if checkpoint_dir is not None:
            checkpoint_dir = Path(checkpoint_dir)
            if not run.checkpoint_paths:
                for name in RUN_FILES:
                    (checkpoint_dir / name).unlink(missing_ok=True)
                checkpoint_dir.mkdir(parents=True, exist_ok=True)
            path = checkpoint_dir / CHECKPOINT_NAMES[cfg.stage]
            save_checkpoint(model, path)
            run.checkpoint_paths[cfg.stage] = str(path)
    run.total_wall_time_s = time.perf_counter() - started
    return model, run


def write_run_report(run: CurriculumRun, out_dir: str | Path) -> None:
    """Write ``run``'s ``train_report.json`` and ``timing.json`` into
    ``out_dir``, each atomically.

    The report is deterministic: checkpoints are named by file name (they
    sit next to it) and the wall times go to the sidecar, so identical
    runs write byte-identical reports wherever they ran.
    """
    report = {
        "seed": run.seed,
        "checkpoints": {
            stage: Path(p).name for stage, p in sorted(run.checkpoint_paths.items())
        },
        "stages": [r.to_json_dict() for r in run.reports],
    }
    timing = {
        "stage_wall_time_s": run.stage_wall_time_s,
        "total_wall_time_s": run.total_wall_time_s,
    }
    for name, payload in ((REPORT_NAME, report), (TIMING_NAME, timing)):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write_text(Path(out_dir) / name, text)
