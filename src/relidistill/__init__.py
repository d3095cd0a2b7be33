"""Reliability-gated multi-teacher curriculum distillation.

Cached free-form teacher outputs become class pseudo-labels via
nearest-class-name cosine matching, get scored by inter-teacher
agreement, and train a compact student classifier through a three-stage
curriculum that widens from unanimous samples to the full dataset.
"""

from .consensus import (
    PseudoLabelMatrix,
    ReliabilityPartition,
    agreement_count,
    mode_label,
    mode_labels,
    multi_hot_mask,
    multi_hot_masks,
    partition,
)
from .curriculum import (
    CurriculumRun,
    StageConfig,
    TrainReport,
    mmr_refine,
    run_curriculum,
    run_mmr,
    run_rkt,
    run_smke,
)
from .data import (
    FeatureDataset,
    SimTeacherSpec,
    load_class_vocab,
    load_features,
    make_blobs,
    save_features_csv,
    simulate_teachers,
)
from .metrics import (
    ReliabilityReport,
    accuracy,
    ensemble_baseline,
    reliability_report,
)
from .student import (
    AugmentPolicy,
    OptimizerState,
    StudentModel,
    augment,
    backward,
    confidence,
    cross_entropy,
    init_optimizer,
    init_student,
    load_checkpoint,
    optimizer_step,
    predict_proba,
    save_checkpoint,
    softmax,
)
from .text_match import (
    ClassVocab,
    PrecomputedTable,
    TeacherRecord,
    TrigramEmbedder,
    assign_pseudo_label,
    embed_text,
    label_records,
    normalize_text,
    read_teacher_records,
    sts,
    write_teacher_records,
)

__version__ = "0.1.0"
