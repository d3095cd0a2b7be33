"""Command-line pipeline: simulate -> label -> partition -> train -> eval.

Teacher outputs are labeled once and materialized to CSV; training
always reads the cached matrix from disk rather than recomputing it.
Every subcommand is deterministic given its inputs and seed.

Exit codes: 0 success, 2 config/validation error, 3 data/parse error,
4 stage failure, or an allocation the machine refuses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import consensus, curriculum, data, fileio, metrics, student, text_match
from .errors import ConfigError, DataError, StageError, check_int

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STAGE = 4

# Top-level keys of the simulate and train configs, with their types
# (see _typed); teachers, stages and augment are read into dataclasses.
_SIMULATE_KEYS = {
    "n_samples": int, "n_classes": int, "dim": int, "spread": float, "seed": int,
    "teachers": list, "class_names": list[str] | None,
}
_TRAIN_KEYS = {
    "seed": int, "stages": list, "augment": dict, "paths": dict, "hidden_dims": list[int],
    "warm_start_checkpoint": str | None,
}
_PATH_KEYS = dict.fromkeys(("features", "pseudo_labels", "vocab", "output_dir"), str)


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


def _read_config(args, keys: dict, required) -> dict:
    """The top-level object of ``args.config``, checked by :func:`_read_object`;
    a ``--seed`` given on the command line first replaces its ``seed``, which
    must be non-negative."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is the
        # error for an integer over Python's digit limit; nesting deeper
        # than the recursion limit raises RecursionError.
        raise ConfigError(f"invalid JSON in {args.config}: {exc}") from None
    if args.seed is not None and isinstance(obj, dict):
        obj["seed"] = args.seed
    cfg = _read_object(obj, "", keys, required)
    check_int(cfg["seed"], "seed")
    return cfg


def _typed(value, tp, where: str):
    """``value`` checked against ``tp`` (int, float, str, dict, list[T], T | None);
    a float also takes an integer in float range and must be finite (JSON's
    ``NaN``, ``Infinity`` and ``1e400`` are not), a bool is never a number, and
    a string must encode as UTF-8, which a lone surrogate (``"\\ud800"``) cannot."""
    args = typing.get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        tp, args = args[0], typing.get_args(args[0])
    base = typing.get_origin(tp) or tp
    if base is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if not isinstance(value, base) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected {base.__name__}, got {value!r}")
    if base is float and not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    if base is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfigError(f"{where}: not valid UTF-8: {value!r} ({exc.reason})") from None
    if args:
        return [_typed(item, args[0], f"{where}[{i}]") for i, item in enumerate(value)]
    return value


def _read_object(obj, where: str, types: dict, required) -> dict:
    """The typed values of the JSON object at key path ``where`` ("" for
    the top level), whose keys must lie in ``types`` and cover ``required``."""
    label = where or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{label}: expected a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ConfigError(f"{label}: unknown key(s) {unknown}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{label}: missing key(s) {missing}")
    prefix = f"{where}." if where else ""
    return {key: _typed(value, types[key], prefix + key) for key, value in obj.items()}


def _from_json(cls, obj, where: str, **defaults):
    """Dataclass ``cls`` from a JSON object keyed by its fields; ``defaults``
    add to or replace the field defaults, and a field with neither is required."""
    required = [f.name for f in fields(cls) if f.default is MISSING and f.name not in defaults]
    values = _read_object(obj, where, typing.get_type_hints(cls), required)
    return cls(**{**defaults, **values})


def parse_stage_configs(raw: list) -> list[curriculum.StageConfig]:
    """Stage configs from JSON objects, in curriculum order.

    Stage names are case-insensitive; omitted ``tau``/``lambda_cons``
    take the stage's ``curriculum.STAGE_DEFAULTS``.
    """
    configs = []
    for i, entry in enumerate(raw):
        stage = entry.get("stage") if isinstance(entry, dict) else None
        if isinstance(stage, str):
            stage = stage.upper()
            entry = {**curriculum.STAGE_DEFAULTS.get(stage, {}), **entry, "stage": stage}
        configs.append(_from_json(curriculum.StageConfig, entry, f"stages[{i}]"))
    curriculum.validate_stage_configs(configs)
    return configs


def cmd_simulate(args) -> int:
    required = ("n_samples", "n_classes", "dim", "spread", "seed", "teachers")
    spec = _read_config(args, _SIMULATE_KEYS, required)
    n_classes = spec["n_classes"]
    specs = [
        _from_json(data.SimTeacherSpec, entry, f"teachers[{i}]", seed=spec["seed"])
        for i, entry in enumerate(spec["teachers"])
    ]
    names = spec.get("class_names")
    if names is None:
        names = [f"class {c:02d}" for c in range(n_classes)]
    if len(names) != n_classes:
        raise ConfigError("class_names length must equal n_classes")
    vocab = text_match.ClassVocab(names)

    ds = data.make_blobs(spec["n_samples"], n_classes, spec["dim"], spec["spread"], spec["seed"])
    matrix = data.simulate_teachers(ds, specs, n_classes=n_classes)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    data.save_features_csv(ds, out_dir / "features.csv")
    data.save_class_vocab(vocab, out_dir / "vocab.txt")
    records = (
        text_match.TeacherRecord(sid, t, vocab.names[label])
        for sid, row in zip(matrix.sample_ids, matrix.labels.tolist())
        for t, label in enumerate(row)
    )
    text_match.write_teacher_records(records, out_dir / "teachers.jsonl")
    print(
        f"simulated {ds.n} samples x {ds.dim} dims, {n_classes} classes, "
        f"{len(specs)} teachers -> {out_dir}"
    )
    return EXIT_OK


def cmd_label(args) -> int:
    vocab = data.load_class_vocab(args.vocab)
    records = text_match.read_teacher_records(args.records)
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
    matrix = consensus.read_matrix_csv(args.pseudo_labels)
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
    cfg = _read_config(args, _TRAIN_KEYS, ("seed", "stages", "paths"))
    paths = cfg["paths"] if args.out is None else {**cfg["paths"], "output_dir": args.out}
    paths = _read_object(paths, "paths", _PATH_KEYS, required=_PATH_KEYS)
    out_dir = Path(paths["output_dir"])
    stage_cfgs = parse_stage_configs(cfg["stages"])
    policy = _from_json(student.AugmentPolicy, cfg.get("augment", {}), "augment")
    warm = cfg.get("warm_start_checkpoint")

    # out_dir changes only from the first checkpoint on (see run_curriculum),
    # so a warm start may come from it and a run that fails before then
    # leaves an earlier run's files alone.
    vocab = data.load_class_vocab(paths["vocab"])
    ds = data.load_features(paths["features"], n_classes=len(vocab))
    matrix = consensus.read_matrix_csv(paths["pseudo_labels"], n_classes=len(vocab))
    warm_model = student.load_checkpoint(warm) if warm is not None else None
    _, run = curriculum.run_curriculum(
        ds,
        matrix,
        stage_cfgs,
        cfg["seed"],
        policy=policy,
        hidden_dims=cfg.get("hidden_dims"),
        checkpoint_dir=out_dir,
        warm_start=warm_model,
    )
    curriculum.write_run_report(run, out_dir)
    for report in run.reports:
        acc = "n/a" if report.accuracy is None else f"{report.accuracy:.4f}"
        print(
            f"{report.stage}: {report.iterations} iters, "
            f"final loss {report.final_loss:.4f}, accuracy {acc}"
        )
    print(f"wrote checkpoints and reports -> {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = student.load_checkpoint(args.checkpoint)
    # A truth label must be a class the checkpoint can predict.
    n_classes = model.layer_dims[-1]
    ds = data.load_features(args.features, n_classes)
    if args.labels is not None:
        by_id = data.load_labels_csv(args.labels, n_classes)
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
    p.add_argument("--seed", type=int, default=None, help="override config seed")
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
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on labeled features")
    p.add_argument("checkpoint", help="model checkpoint path")
    p.add_argument("features", help="feature CSV")
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
    except MemoryError as exc:  # e.g. a simulate config's dim of 10**8
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
