"""Command-line pipeline: simulate -> label -> partition -> train -> eval.

Teacher outputs are labeled once and materialized to CSV; training
always reads the cached matrix from disk rather than recomputing it.
Every subcommand is deterministic given its inputs and seed.

Exit codes: 0 success, 2 config/validation error, 3 data/parse error,
4 stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import consensus, curriculum, data, fileio, metrics, student, text_match
from .errors import ConfigError, DataError, StageError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STAGE = 4


def _parse_backend(value: str):
    if value == "ngram":
        return text_match.TrigramEmbedder()
    if value.startswith("precomputed:"):
        path = value.split(":", 1)[1]
        if not path:
            raise argparse.ArgumentTypeError("precomputed backend needs a path")
        return text_match.PrecomputedTable.load(path)
    raise argparse.ArgumentTypeError(
        f"backend must be 'ngram' or 'precomputed:<path>', got {value!r}"
    )


def _parse_seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def _require_files(*paths: str | Path) -> None:
    for path in paths:
        if not Path(path).is_file():
            raise DataError(f"input file not found: {path}")


def _load_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return obj


def cmd_simulate(args) -> int:
    spec = _load_json(args.config)
    try:
        n_samples = int(spec["n_samples"])
        n_classes = int(spec["n_classes"])
        dim = int(spec["dim"])
        spread = float(spec["spread"])
        seed = int(spec["seed"]) if args.seed is None else args.seed
        teacher_specs = spec["teachers"]
    except KeyError as exc:
        raise ConfigError(f"simulate config: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"simulate config: {exc}") from None
    if not isinstance(teacher_specs, list) or len(teacher_specs) < 2:
        raise ConfigError("simulate config: need a list of >= 2 teachers")

    names = spec.get("class_names") or [f"class {c:02d}" for c in range(n_classes)]
    if len(names) != n_classes:
        raise ConfigError("class_names length must equal n_classes")
    vocab = text_match.ClassVocab([str(n) for n in names])

    specs = []
    for entry in teacher_specs:
        if not isinstance(entry, dict):
            raise ConfigError(f"bad teacher spec: {entry!r}")
        try:
            specs.append(
                data.SimTeacherSpec(
                    accuracy=float(entry["accuracy"]),
                    confusion=str(entry.get("confusion", data.CONFUSION_UNIFORM)),
                    correlation=float(entry.get("correlation", 0.0)),
                    seed=int(entry.get("seed", seed)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad teacher spec {entry!r}: {exc}") from None

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = data.make_blobs(n_samples, n_classes, dim, spread, seed)
    matrix = data.simulate_teachers(ds, specs, n_classes=n_classes)

    data.save_features_csv(ds, out_dir / "features.csv")
    data.save_class_vocab(vocab, out_dir / "vocab.txt")
    with open(out_dir / "teachers.jsonl", "w", encoding="utf-8") as fh:
        for i, sid in enumerate(matrix.sample_ids):
            for t in range(matrix.m):
                record = {
                    "sample_id": sid,
                    "teacher": t,
                    "text": vocab.names[int(matrix.labels[i, t])],
                }
                fh.write(json.dumps(record) + "\n")
    print(
        f"simulated {n_samples} samples x {dim} dims, {n_classes} classes, "
        f"{len(specs)} teachers -> {out_dir}"
    )
    return EXIT_OK


def cmd_label(args) -> int:
    _require_files(args.records, args.vocab)
    records = text_match.read_teacher_records(args.records)
    vocab = data.load_class_vocab(args.vocab)
    matrix, summary = text_match.label_records(
        records, vocab, args.backend, on_unlabeled=args.on_unlabeled
    )
    consensus.write_matrix_csv(matrix, args.out)
    for t in range(summary.n_teachers):
        print(
            f"teacher_{t}: labeled {summary.per_teacher_labeled[t]}, "
            f"unlabeled {summary.per_teacher_unlabeled[t]}"
        )
    if summary.dropped_sample_ids:
        print(
            f"dropped {len(summary.dropped_sample_ids)} of {summary.n_samples_in} "
            f"samples (policy: {args.on_unlabeled})"
        )
    print(f"wrote {matrix.n} samples x {matrix.m} teachers -> {args.out}")
    return EXIT_OK


def cmd_partition(args) -> int:
    _require_files(args.pseudo_labels)
    matrix = consensus.read_matrix_csv(args.pseudo_labels)
    matrix, dropped = consensus.drop_incomplete_rows(matrix)
    if dropped:
        print(f"excluded {len(dropped)} rows with unlabeled entries")
    part = consensus.partition(matrix)
    consensus.write_partition_csv(part, matrix.sample_ids, args.out)
    counts = part.counts()
    print(
        f"partitioned {matrix.n} samples: "
        + ", ".join(f"{tag}={counts[tag]}" for tag in consensus.TAGS)
        + f" -> {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_json(args.config)
    try:
        paths = cfg["paths"]
        features_path = paths["features"]
        pl_path = paths["pseudo_labels"]
        vocab_path = paths["vocab"]
        out_dir = Path(args.out if args.out is not None else paths["output_dir"])
        seed = int(cfg["seed"]) if args.seed is None else args.seed
        stage_cfgs = curriculum.parse_stage_configs(cfg["stages"])
    except KeyError as exc:
        raise ConfigError(f"train config: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train config: {exc}") from None
    try:
        aug = cfg.get("augment", {})
        policy = student.AugmentPolicy(
            sigma_weak=float(aug.get("sigma_weak", 0.05)),
            sigma_strong=float(aug.get("sigma_strong", 0.2)),
            p_drop=float(aug.get("p_drop", 0.1)),
        )
        hidden = [int(h) for h in cfg.get("hidden_dims", curriculum.DEFAULT_HIDDEN_DIMS)]
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"train config: {exc}") from None
    tie_break = str(cfg.get("mode_tie_break", "random"))
    warm = cfg.get("warm_start_checkpoint")

    _require_files(features_path, pl_path, vocab_path)
    if warm is not None:
        _require_files(warm)
    out_dir.mkdir(parents=True, exist_ok=True)

    ds = data.load_features(features_path)
    vocab = data.load_class_vocab(vocab_path)
    matrix = consensus.read_matrix_csv(pl_path, n_classes=len(vocab))
    matrix, dropped = consensus.drop_incomplete_rows(matrix)
    if dropped:
        print(f"excluded {len(dropped)} pseudo-label rows with unlabeled entries")

    started = time.perf_counter()
    warm_model = student.load_checkpoint(warm) if warm is not None else None
    _, run = curriculum.run_curriculum(
        ds,
        matrix,
        stage_cfgs,
        seed,
        policy=policy,
        hidden_dims=hidden,
        checkpoint_dir=out_dir,
        tie_break=tie_break,
        warm_start=warm_model,
    )

    # Wall time lives in a sidecar so train_report.json stays
    # byte-reproducible across identical runs.
    curriculum.write_run_report(run, out_dir / "train_report.json")
    timing = {
        "stage_wall_time_s": {r.stage: r.wall_time_s for r in run.reports},
        "total_wall_time_s": time.perf_counter() - started,
    }
    fileio.atomic_write_text(
        out_dir / "timing.json", json.dumps(timing, indent=2, sort_keys=True) + "\n"
    )
    for report in run.reports:
        acc = "n/a" if report.accuracy is None else f"{report.accuracy:.4f}"
        print(
            f"{report.stage}: {report.iterations} iters, "
            f"final loss {report.final_loss:.4f}, accuracy {acc}"
        )
    print(f"wrote checkpoints and reports -> {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _require_files(args.checkpoint, args.features)
    model = student.load_checkpoint(args.checkpoint)
    ds = data.load_features(args.features)
    if args.labels is not None:
        _require_files(args.labels)
        by_id = data.load_labels_csv(args.labels)
        missing = [sid for sid in ds.sample_ids if sid not in by_id]
        if missing:
            raise DataError(f"labels missing for samples: {missing[:5]}")
        truths = np.array([by_id[sid] for sid in ds.sample_ids], dtype=np.int64)
    elif ds.true_labels is not None:
        truths = ds.true_labels
    else:
        raise DataError("no labels available: pass --labels or a label column")
    if ds.dim != model.layer_dims[0]:
        raise DataError(
            f"feature dim {ds.dim} does not match checkpoint input {model.layer_dims[0]}"
        )
    _, predicted = student.confidence(model, ds.features)
    result = {
        "accuracy": metrics.accuracy(predicted, truths),
        "n_samples": ds.n,
        "checkpoint": Path(args.checkpoint).name,
    }
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        fileio.atomic_write_text(args.out, text + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relidistill",
        description="Multi-teacher pseudo-labeling, reliability partitioning, "
        "and curriculum distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic features and teacher records")
    p.add_argument("--config", required=True, help="simulation spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_parse_seed, default=None, help="override config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("label", help="convert teacher text records to a label matrix")
    p.add_argument("records", help="teacher records JSONL")
    p.add_argument("vocab", help="class vocabulary, one name per line")
    p.add_argument(
        "--backend",
        type=_parse_backend,
        default=text_match.TrigramEmbedder(),
        help="ngram (default) or precomputed:<tsv-path>",
    )
    p.add_argument(
        "--on-unlabeled",
        choices=("drop", "error"),
        default="drop",
        help="policy for samples with un-embeddable text",
    )
    p.add_argument("--out", required=True, help="output pseudo-label CSV")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("partition", help="score reliability and tag samples")
    p.add_argument("pseudo_labels", help="pseudo-label CSV")
    p.add_argument("--out", required=True, help="output partition CSV")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="run the three-stage curriculum")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--seed", type=_parse_seed, default=None, help="override config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on labeled features")
    p.add_argument("checkpoint", help="model checkpoint path")
    p.add_argument("features", help="feature CSV or binary file")
    p.add_argument("--labels", default=None, help="sample_id,label CSV (optional)")
    p.add_argument("--out", default=None, help="also write the accuracy JSON here")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # parse_args may load a precomputed table (--backend), so it sits
        # inside the error mapping; argparse's own SystemExit(2) passes through.
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
