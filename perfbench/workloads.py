"""Benchmark workloads and their seeded input generation.

Each workload is a set of pipeline inputs -- features CSV, teacher
records JSONL, class vocabulary and run config -- generated from one
seed. The library's own simulators draw the features and the teachers'
class choices; this module renders those choices as text and writes the
files. Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The 65 everyday object names of the test suite's full-vocabulary
# checks: the paper's 65-class setting.
OBJECT_VOCAB_65 = [
    "alarm clock", "backpack", "batteries", "bed", "bicycle", "bottle",
    "bucket", "calculator", "calendar", "candles", "chair", "clipboards",
    "computer monitor", "coffee mug", "couch", "curtains", "desk lamp",
    "drill", "eraser", "exit sign", "fan", "file cabinet", "flipflops",
    "flowers", "folder", "fork", "glasses", "hammer", "helmet", "kettle",
    "keyboard", "knives", "lamp shade", "laptop", "marker", "mop", "mouse",
    "notebook", "oven", "paper clip", "pen", "pencil", "postit notes",
    "printer", "push pin", "radio", "refrigerator", "ruler", "scissors",
    "screwdriver", "shelf", "sink", "sneakers", "soda can", "speaker",
    "spoon", "table", "telephone", "toothbrush", "toys", "trash can",
    "television", "vacuum cleaner", "webcam", "window",
]

# The acceptance fixture's shipped stage configs (criterion 6).
FIXTURE_STAGES = (
    dict(stage="RKT", learning_rate=1e-2, batch_size=64, max_iter=1000),
    dict(stage="SMKE", learning_rate=1e-3, batch_size=256, max_iter=1500, tau=0.7),
    dict(stage="MMR", learning_rate=1e-3, batch_size=128, max_iter=1500, tau=0.95,
         lambda_cons=0.5),
)


def _short_stages(rkt: int, smke: int, mmr: int) -> tuple[dict, ...]:
    """The shipped configs with shorter iteration budgets."""
    budgets = {"RKT": rkt, "SMKE": smke, "MMR": mmr}
    return tuple(dict(cfg, max_iter=budgets[cfg["stage"]]) for cfg in FIXTURE_STAGES)


# Free-text answer shapes. ``{x}`` is an optional modifier followed by
# the class name; a share of answers is the bare name instead.
TEMPLATES = (
    "The object is {a} {x}.",
    "It looks like {a} {x}",
    "probably {a} {x}, maybe",
    "I think this is {a} {x}.",
    "This appears to be {a} {x}!",
    "Answer: {x}",
    "I'd say it's {a} {x}",
    "Most likely {a} {x}.",
    "That is clearly {a} {x}",
    "{x}, I believe",
)
MODIFIERS = ("", "red", "small", "old", "black", "plastic")
UNLABELABLE = ("", "?!", "...", " - ")
BARE_SHARE = 1 / 7
UNLABELABLE_SHARE = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    n_samples: int
    n_classes: int
    dim: int
    spread: float
    accuracies: tuple[float, ...]
    stages: tuple[dict, ...]
    free_text: bool  # False: every answer is the verbatim class name

    @property
    def n_records(self) -> int:
        return self.n_samples * len(self.accuracies)

    @property
    def nominal_samples(self) -> int:
        """Sum over stages of batch_size x max_iter."""
        return sum(cfg["batch_size"] * cfg["max_iter"] for cfg in self.stages)


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance fixture: curriculum and student augment dominate;
        # verbatim answers short-circuit text matching.
        Workload(
            name="fixture",
            n_samples=5000, n_classes=10, dim=16, spread=1.3,
            accuracies=(0.70, 0.65, 0.60),
            stages=FIXTURE_STAGES,
            free_text=False,
        ),
        # Free-text answers over 65 classes: ngram text matching dominates.
        Workload(
            name="freetext65",
            n_samples=2000, n_classes=65, dim=32, spread=1.0,
            accuracies=(0.80, 0.75, 0.70),
            stages=_short_stages(300, 300, 300),
            free_text=True,
        ),
        # Many samples and teachers, short stages: per-row consensus,
        # seeding and metrics work and CSV I/O dominate.
        Workload(
            name="wide",
            # Spread 1.0, not the fixture's 1.3: with five teachers the
            # ensemble is strong, and the student needs the cleaner blobs
            # to beat it by a margin that is steady across seeds.
            n_samples=30000, n_classes=10, dim=16, spread=1.0,
            accuracies=(0.70, 0.65, 0.60, 0.62, 0.58),
            stages=_short_stages(100, 100, 100),
            free_text=False,
        ),
    )
}


@dataclass
class Inputs:
    """Paths of the generated files plus the generator's ground truth."""

    features: Path
    teachers: Path
    vocab: Path
    sample_ids: list[str]
    truths: np.ndarray  # (N,) true class per sample
    rendered: np.ndarray  # (N, M) class each teacher answered with
    labelable: np.ndarray  # (N, M) False where the answer has no content
    distinct_text_share: float


def _article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def _render(names: list[str], rendered: np.ndarray, rng: np.random.Generator):
    """Free-text answers for each (sample, teacher) and a labelable mask."""
    shape = rendered.shape
    kind = rng.random(shape)
    template = rng.integers(len(TEMPLATES), size=shape)
    modifier = rng.integers(len(MODIFIERS), size=shape)
    junk = rng.integers(len(UNLABELABLE), size=shape)
    labelable = kind >= UNLABELABLE_SHARE
    texts = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        name = names[rendered[idx]]
        if not labelable[idx]:
            texts[idx] = UNLABELABLE[junk[idx]]
        elif kind[idx] < UNLABELABLE_SHARE + BARE_SHARE:
            texts[idx] = name
        else:
            x = f"{MODIFIERS[modifier[idx]]} {name}".strip()
            texts[idx] = TEMPLATES[template[idx]].format(a=_article(x), x=x)
    return texts, labelable


def generate(rd, workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write one workload's input files into ``out_dir``.

    ``rd`` is the imported library package; its simulators draw the
    features and teacher choices exactly as ``relidistill simulate`` does.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    w = workload
    names = (
        list(OBJECT_VOCAB_65[: w.n_classes])
        if w.free_text
        else [f"class {c:02d}" for c in range(w.n_classes)]
    )
    ds = rd.make_blobs(w.n_samples, w.n_classes, w.dim, w.spread, seed)
    specs = [rd.SimTeacherSpec(accuracy=a, seed=seed) for a in w.accuracies]
    matrix = rd.simulate_teachers(ds, specs, n_classes=w.n_classes)
    if w.free_text:
        texts, labelable = _render(names, matrix.labels, np.random.default_rng([seed, 65]))
    else:
        texts = np.array(names, dtype=object)[matrix.labels]
        labelable = np.ones(matrix.labels.shape, dtype=bool)

    inputs = Inputs(
        features=out_dir / "features.csv",
        teachers=out_dir / "teachers.jsonl",
        vocab=out_dir / "vocab.txt",
        sample_ids=list(ds.sample_ids),
        truths=ds.true_labels,
        rendered=matrix.labels,
        labelable=labelable,
        distinct_text_share=len(set(texts.ravel().tolist())) / texts.size,
    )
    rd.save_features_csv(ds, inputs.features)
    inputs.vocab.write_text("\n".join(names) + "\n", encoding="utf-8")
    with open(inputs.teachers, "w", encoding="utf-8") as fh:
        for i, sid in enumerate(ds.sample_ids):
            for t in range(matrix.m):
                fh.write(json.dumps({"sample_id": sid, "teacher": t, "text": texts[i, t]}) + "\n")
    return inputs


def write_run_config(workload: Workload, seed: int, inputs: Inputs, run_dir: Path,
                     path: Path) -> None:
    """The ``relidistill train`` config for one pipeline run."""
    config = {
        "seed": seed,
        "stages": [dict(cfg) for cfg in workload.stages],
        "paths": {
            "features": str(inputs.features),
            "pseudo_labels": str(run_dir / "pl.csv"),
            "vocab": str(inputs.vocab),
            "output_dir": str(run_dir / "train"),
        },
    }
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
