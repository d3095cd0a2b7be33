#!/usr/bin/env python3
"""relidistill benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload fixture --seed 6 --seconds 36 --trace 0

Run from the root of a relidistill checkout; the library is imported
from ``src/``. The run

1. imports the package and generates the workload's inputs from
   ``--seed`` (several times; the median is ``setup_s``);
2. repeats the user-facing pipeline -- ``relidistill.cli.main`` for
   label, partition, train and eval, then a report step through the
   public API (``ensemble_baseline`` + ``reliability_report``) -- until
   ``--seconds`` have passed, checking every pipeline's outputs;
3. prints, as the last line of standard output, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, as medians over the pipelines run. With ``--trace 1``
untraced and traced pipelines alternate; the traced ones wrap every
public library function from outside (see ``calltrace.py``) and yield the
per-layer metrics. The traced-minus-untraced pipeline time is the
tracing overhead. Details of every run (environment, checks,
determinism digests, call tree) go to ``.perfbench_runs/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "relidistill"
RUNS_DIR = ROOT / ".perfbench_runs"

# Single-threaded BLAS: the student's matrices are small, a second
# thread does not speed training up, and one thread is steadier on a
# shared machine. Set before numpy is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Inputs are generated at least SETUP_REPEATS times and until
# SETUP_BUDGET_S have passed; setup_s takes the median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.5
# Label time is topped up to at least this share of the measured time.
LABEL_SHARE = 0.06
STAGES = ("RKT", "SMKE", "MMR")
DIGESTED = (
    "pl.csv", "partition.csv", "train/train_report.json",
    "train/checkpoint_rkt.bin", "train/checkpoint_smke.bin", "train/checkpoint_mmr.bin",
)

# Spans that must record calls on every workload, as (name, enclosing
# span or None). A patch that misses a binding shows up here as zero
# calls rather than as a zero metric.
EXPECTED_SPANS = (
    ("cli.label", None), ("cli.partition", None), ("cli.train", None),
    ("cli.eval", None), ("metrics.report", None),
    ("text_match.read_teacher_records", "cli.label"),
    ("text_match.label_records", "cli.label"),
    ("text_match.assign_pseudo_label", "text_match.label_records"),
    ("text_match.embed_text", "text_match.label_records"),
    ("consensus.read_matrix_csv", "cli.partition"),
    ("consensus.write_matrix_csv", "cli.label"),
    ("consensus.write_partition_csv", "cli.partition"),
    ("consensus.partition", "cli.partition"),
    ("consensus.partition", "curriculum.run_curriculum"),
    ("consensus.agreement_count", "consensus.partition"),
    ("consensus.mode_labels", "curriculum.run_smke"),
    ("consensus.mode_label", "consensus.mode_labels"),
    ("consensus.multi_hot_masks", "curriculum.run_mmr"),
    ("seeding.derive_rng", "consensus.mode_labels"),
    ("seeding.derive_rng", "curriculum.run_mmr"),
    ("data.load_features", "cli.train"),
    ("data.load_class_vocab", "cli.label"),
    ("student.augment", "curriculum.run_mmr"),
    ("student.predict_proba", "curriculum.run_smke"),
    ("student.loss_and_grads", "curriculum.run_rkt"),
    ("student.optimizer_step", "curriculum.run_rkt"),
    ("student.confidence", "curriculum.run_curriculum"),
    ("student.save_checkpoint", "curriculum.run_curriculum"),
    ("student.load_checkpoint", "cli.eval"),
    ("curriculum.run_rkt", "cli.train"),
    ("curriculum.run_smke", "cli.train"),
    ("curriculum.run_mmr", "cli.train"),
    ("metrics.ensemble_baseline", "metrics.report"),
    ("metrics.reliability_report", "metrics.report"),
    ("consensus.agreement_count", "metrics.reliability_report"),
    ("consensus.mode_label", "metrics.ensemble_baseline"),
    ("seeding.derive_rng", "metrics.ensemble_baseline"),
)
FREE_TEXT_SPANS = (("text_match.sts", "text_match.assign_pseudo_label"),)
LAYERS = ("cli", "text_match", "consensus", "seeding", "data", "student",
          "curriculum", "metrics")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return rows[0], rows[1:]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


class Bench:
    """One workload and seed: inputs, pipeline runs, checks, metrics."""

    def __init__(self, rd, np, workloads, args, work: Path):
        from relidistill import cli

        self.rd, self.np, self.W, self.cli = rd, np, workloads, cli
        self.workload = workloads.WORKLOADS[args.workload]
        self.seed = args.seed
        self.work = work
        self.run_dir = work / "run"
        self.config = work / "run.json"
        self.ops: list[tuple[str, bool, str]] = []
        self.reference_digest: dict[str, str] | None = None

    # -- operations and checks -------------------------------------------

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((name, bool(ok), detail))
        if not ok:
            print(f"FAILED: {name}: {detail}", file=sys.stderr)
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.ops)

    # -- setup ------------------------------------------------------------

    def setup(self, tracer=None) -> float:
        """Generate the inputs; returns the generation wall time."""
        target = self.work / "inputs"
        shutil.rmtree(target, ignore_errors=True)
        span = tracer.span("setup") if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        with span:
            self.inputs = self.W.generate(self.rd, self.workload, self.seed, target)
        elapsed = time.perf_counter() - started
        self.W.write_run_config(self.workload, self.seed, self.inputs, self.run_dir, self.config)
        self.row_of = {sid: i for i, sid in enumerate(self.inputs.sample_ids)}
        return elapsed

    # -- one pipeline -----------------------------------------------------

    def label_argv(self, out: Path) -> list[str]:
        return ["label", str(self.inputs.teachers), str(self.inputs.vocab), "--out", str(out),
                "--on-unlabeled", "drop"]

    def cli_step(self, step: str, argv: list[str], tracer=None) -> float | None:
        """Wall seconds of one ``relidistill`` command, or None if it failed."""
        span = tracer.span(f"cli.{step}") if tracer else contextlib.nullcontext()
        # Each command normally runs in a fresh process: start it without
        # the garbage of earlier steps pending collection.
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            try:
                with span:
                    code = self.cli.main(argv)
            except Exception:  # a crash is a failed step, not a crashed benchmark
                traceback.print_exc()
                code = "exception"
            elapsed = time.perf_counter() - started
        return elapsed if self.op(f"cli {step} exits 0", code == 0, f"exit {code}") else None

    def label_probe(self, label_times: list[float], target_s: float) -> None:
        """Repeat the label step until ``label_times`` sum to ``target_s``.

        On workloads whose label step is short, one timing per pipeline
        is too noisy for a steady throughput figure; the repeats run
        between pipelines so that they sample the whole run. Each repeat
        must write the same pseudo-label file as the pipelines did.
        """
        out = self.work / "probe_pl.csv"
        while sum(label_times) < target_s:
            elapsed = self.cli_step("label", self.label_argv(out))
            if elapsed is None:
                return
            label_times.append(elapsed)
            same = sha256(out) == self.reference_digest["pl.csv"]
            if not self.op("repeated label step writes the same pl.csv", same):
                return

    def pipeline(self, tracer=None) -> dict | None:
        """Run label -> partition -> train -> eval -> report once.

        Returns per-run figures, or None when a step failed.
        """
        rd, inp, run = self.rd, self.inputs, self.run_dir
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir(parents=True)
        steps = (
            ("label", self.label_argv(run / "pl.csv")),
            ("partition", ["partition", str(run / "pl.csv"), "--out", str(run / "partition.csv")]),
            ("train", ["train", "--config", str(self.config)]),
            ("eval", ["eval", str(run / "train" / "checkpoint_mmr.bin"), str(inp.features),
                      "--out", str(run / "eval.json")]),
        )
        times = {}
        for step, argv in steps:
            times[step] = self.cli_step(step, argv, tracer)
            if times[step] is None:
                return None

        span = tracer.span("metrics.report") if tracer else contextlib.nullcontext()
        gc.collect()
        started = time.perf_counter()
        try:
            with span:
                pl = rd.consensus.read_matrix_csv(run / "pl.csv", n_classes=self.workload.n_classes)
                truths = self.np.array([inp.truths[self.row_of[s]] for s in pl.sample_ids])
                ensemble = rd.ensemble_baseline(pl, truths, seed=self.seed)
                report = rd.reliability_report(pl, rd.partition(pl), truths, seed=self.seed)
        except Exception:
            traceback.print_exc()
            self.op("report step completes", False, "exception")
            return None
        times["report"] = time.perf_counter() - started
        self.op("report step completes", True)
        return self.check(times, ensemble, report)

    def check(self, times: dict, ensemble: float, report) -> dict:
        """Output checks and per-run figures of one finished pipeline."""
        np, w, inp, run = self.np, self.workload, self.inputs, self.run_dir
        _, rows = read_csv(run / "pl.csv")
        ids = [r[0] for r in rows]
        labels = np.array([[int(v) for v in r[1:]] for r in rows], dtype=np.int64)
        kept = np.array([self.row_of[s] for s in ids], dtype=np.int64)
        rendered = inp.rendered[kept]
        dropped = len(inp.sample_ids) - len(ids)
        label_accuracy = float(np.mean(labels == rendered))
        if w.free_text:
            complete = inp.labelable.all(axis=1)
            expected = [s for s, ok in zip(inp.sample_ids, complete) if ok]
            self.op("pl.csv keeps exactly the samples whose answers all have content",
                    ids == expected, f"{len(ids)} rows kept, {len(expected)} expected")
        else:
            self.op("pl.csv equals the generated label matrix",
                    ids == inp.sample_ids and np.array_equal(labels, inp.rendered),
                    f"{dropped} rows dropped, label accuracy {label_accuracy}")

        evaluation = json.loads((run / "eval.json").read_text(encoding="utf-8"))
        train_report = json.loads((run / "train" / "train_report.json").read_text(encoding="utf-8"))
        stage_acc = {s["stage"]: s["accuracy"] for s in train_report["stages"]}
        student = evaluation["accuracy"]
        if dropped == 0:
            self.op("eval accuracy equals the MMR accuracy", student == stage_acc["MMR"],
                    f"eval {student} vs MMR {stage_acc['MMR']}")
        if w.name == "fixture":
            # Criterion 6 of the acceptance suite, with its one-point margins.
            one = 0.01
            self.op("curriculum beats the ensemble (criterion 6)",
                    stage_acc["MMR"] > ensemble + one
                    and stage_acc["SMKE"] >= stage_acc["RKT"] + one
                    and stage_acc["MMR"] >= stage_acc["SMKE"] + one,
                    f"ensemble {ensemble} stages {stage_acc}")
        self.op("reliability report covers every sample",
                sum(b.n_samples for b in report.bins) == len(ids), "")

        digest = {name: sha256(run / name) for name in DIGESTED}
        if self.reference_digest is None:
            self.reference_digest = digest
        else:
            same = digest == self.reference_digest
            self.op("outputs byte-identical to the first pipeline of this run", same,
                    "" if same else str([n for n in DIGESTED if digest[n] != self.reference_digest[n]]))

        _, part_rows = read_csv(run / "partition.csv")
        tags = [r[2] for r in part_rows]
        counts = np.zeros((labels.shape[0], w.n_classes), dtype=np.int64)
        np.add.at(counts, (np.arange(labels.shape[0])[:, None], labels), 1)
        top = counts.max(axis=1, keepdims=True)
        sources = train_report["stages"][1].get("label_sources") or {}
        timing = json.loads((run / "train" / "timing.json").read_text(encoding="utf-8"))
        return {
            "times": times,
            "pipeline_s": sum(times.values()),
            "train_samples_per_s": w.nominal_samples / times["train"],
            "student_accuracy": student,
            "ensemble_accuracy": ensemble,
            "accuracy_gain_vs_ensemble": student - ensemble,
            "label_accuracy": label_accuracy,
            "stage_accuracy": stage_acc,
            "rows_dropped": dropped,
            "tag_counts": {t: tags.count(t) for t in ("R", "LR", "UR")},
            "mode_tie_share": float(np.mean((counts == top).sum(axis=1) > 1)),
            "smke_student_label_share": ratio(sources.get("student", 0), sum(sources.values())),
            "stage_wall_time_s": timing["stage_wall_time_s"],
            "digest": digest,
        }

    # -- traced figures ---------------------------------------------------

    def layer_metrics(self, t, fig: dict, setup_tracer) -> dict:
        """Per-layer metrics of one traced pipeline (tracer ``t``)."""
        w = self.workload
        for name, under in EXPECTED_SPANS + (FREE_TEXT_SPANS if w.free_text else ()):
            n = t.calls(name, under)
            self.op(f"traced span {name}" + (f" under {under}" if under else "") + " recorded",
                    n > 0, f"{n} calls")
        self.op("traced span data.save_features_csv under setup recorded",
                setup_tracer.calls("data.save_features_csv", "setup") > 0, "")

        stage_spans = {s: t.total(f"curriculum.run_{s.lower()}") for s in STAGES}
        gaps = {s: fig["stage_wall_time_s"][s] - stage_spans[s] for s in STAGES}
        for s in STAGES:
            self.op(f"timing.json {s} time encloses its traced span", 0 <= gaps[s] <= 0.005 +
                    0.01 * stage_spans[s], f"timing.json minus span {gaps[s]:.6f}s")

        assign = t.calls("text_match.assign_pseudo_label")
        unlabeled = t.errors("text_match.assign_pseudo_label")
        drawn = t.rows("student.augment")
        m = {
            "cli.label_s": t.total("cli.label"),
            "cli.partition_s": t.total("cli.partition"),
            "cli.train_s": t.total("cli.train"),
            "cli.eval_s": t.total("cli.eval"),
            "metrics.report_s": t.total("metrics.report"),
            "text_match.read_records_s": t.total("text_match.read_teacher_records"),
            "text_match.label_records_s": t.total("text_match.label_records"),
            "text_match.embed_s": t.total("text_match.embed_text"),
            "text_match.sts_s": t.total("text_match.sts"),
            "text_match.assign_calls": assign,
            "text_match.embed_calls": t.calls("text_match.embed_text"),
            "text_match.sts_calls": t.calls("text_match.sts"),
            "text_match.shortcircuit_share": 1.0 - ratio(
                t.calls("text_match.embed_text", "text_match.assign_pseudo_label"), assign),
            "text_match.distinct_text_share": self.inputs.distinct_text_share,
            "text_match.unlabeled_records": unlabeled,
            "text_match.unlabeled_share": ratio(unlabeled, assign),
            "consensus.partition_s": t.total("consensus.partition"),
            "consensus.partition_calls": t.calls("consensus.partition"),
            "consensus.mode_labels_s": t.total("consensus.mode_labels"),
            "consensus.masks_s": t.total("consensus.multi_hot_masks"),
            "consensus.agreement_count_calls": t.calls("consensus.agreement_count"),
            "consensus.mode_label_calls": t.calls("consensus.mode_label"),
            "consensus.read_matrix_s": t.total("consensus.read_matrix_csv"),
            "consensus.csv_write_s": t.total("consensus.write_matrix_csv")
            + t.total("consensus.write_partition_csv"),
            "consensus.mode_tie_share": fig["mode_tie_share"],
            "consensus.r_count": fig["tag_counts"]["R"],
            "consensus.lr_count": fig["tag_counts"]["LR"],
            "consensus.ur_count": fig["tag_counts"]["UR"],
            "seeding.derive_rng_calls": t.calls("seeding.derive_rng"),
            "seeding.derive_rng_s": t.total("seeding.derive_rng"),
            "data.load_features_s": t.total("data.load_features"),
            "data.load_class_vocab_s": t.total("data.load_class_vocab"),
            "data.save_features_s": setup_tracer.total("data.save_features_csv"),
            "student.augment_s": t.total("student.augment"),
            "student.augment_calls": t.calls("student.augment"),
            "student.augment_rows_drawn": drawn,
            "student.augment_rows_used_share": ratio(
                t.rows("student.loss_and_grads", "curriculum.run_mmr"), drawn),
            "student.predict_proba_s": t.total("student.predict_proba"),
            "student.predict_proba_rows": t.rows("student.predict_proba"),
            "student.loss_and_grads_s": t.total("student.loss_and_grads"),
            "student.loss_and_grads_rows": t.rows("student.loss_and_grads"),
            "student.optimizer_step_s": t.total("student.optimizer_step"),
            "student.optimizer_steps": t.calls("student.optimizer_step"),
            "student.confidence_s": t.total("student.confidence"),
            "student.save_checkpoint_s": t.total("student.save_checkpoint"),
            "student.load_checkpoint_s": t.total("student.load_checkpoint"),
            "curriculum.smke.student_label_share": fig["smke_student_label_share"],
            "curriculum.timing_json_gap_s": sum(gaps.values()),
            "metrics.ensemble_s": t.total("metrics.ensemble_baseline"),
            "metrics.reliability_report_s": t.total("metrics.reliability_report"),
        }
        for cfg in w.stages:
            key = cfg["stage"].lower()
            span = f"curriculum.run_{key}"
            m[f"curriculum.{key}_s"] = t.total(span)
            m[f"curriculum.{key}.self_s"] = t.self_time(span)
            m[f"curriculum.{key}.samples_per_s"] = ratio(
                cfg["batch_size"] * cfg["max_iter"], t.total(span))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = t.layer_self_time(layer)
        return m


def median_metrics(figures: list[dict], names) -> dict:
    return {name: statistics.median(f[name] for f in figures) for name in names}


def measure(bench: Bench, tracing, args) -> dict:
    """Set up, then run pipelines until ``args.seconds`` have passed."""
    measured = {"setup_s": [], "untraced": [], "traced": [], "label_s": [], "setup_tracer": None}
    if args.trace:
        measured["setup_tracer"] = tracer = tracing.Tracer()
        tracer.install()
        try:
            bench.setup(tracer)
        finally:
            tracer.uninstall()
    else:
        while len(measured["setup_s"]) < SETUP_REPEATS or sum(measured["setup_s"]) < SETUP_BUDGET_S:
            measured["setup_s"].append(bench.setup())

    units = []
    measure_start = time.perf_counter()
    deadline = measure_start + args.seconds
    while True:
        unit_start = time.perf_counter()
        fig = bench.pipeline()
        if fig is None:
            break
        measured["untraced"].append(fig)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                fig = bench.pipeline(tracer)
            finally:
                tracer.uninstall()
            if fig is None:
                break
            fig["layers"] = bench.layer_metrics(tracer, fig, measured["setup_tracer"])
            fig["call_tree"] = tracer.call_tree()
            measured["traced"].append(fig)
        else:
            measured["label_s"].append(fig["times"]["label"])
            bench.label_probe(measured["label_s"], LABEL_SHARE * (time.perf_counter() - measure_start))
        now = time.perf_counter()
        units.append(now - unit_start)
        # Start another pipeline only if at least half of it fits.
        if len(units) >= (1 if args.trace else 2) and now + 0.5 * statistics.median(units) > deadline:
            break
    return measured


def metric_values(bench: Bench, measured: dict, import_s: float, trace: bool) -> dict:
    """The run's per-layer (traced) or end-to-end metrics; empty if none completed."""
    untraced, traced = measured["untraced"], measured["traced"]
    if trace:
        if not traced:
            return {}
        values = median_metrics([f["layers"] for f in traced], traced[0]["layers"])
        base = statistics.median(f["pipeline_s"] for f in untraced)
        overhead = statistics.median(f["pipeline_s"] for f in traced) - base
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = ratio(overhead, base)
        return values
    if not untraced:
        return {}
    values = median_metrics(untraced, (
        "pipeline_s", "train_samples_per_s", "student_accuracy",
        "accuracy_gain_vs_ensemble", "label_accuracy"))
    # Records over busy time: the label step's speed flips between fast
    # and slow states under host contention, and a median of such
    # samples flips with it, where the total does not.
    values["label_records_per_s"] = (
        bench.workload.n_records * len(measured["label_s"]) / sum(measured["label_s"]))
    values["setup_s"] = import_s + statistics.median(measured["setup_s"])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_share"] = ratio(len(bench.ops) - bench.failed, len(bench.ops))
    return values


def run(args) -> int:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = bench_spec["per_layer" if args.trace else "end_to_end"]

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import relidistill as rd
    import_s = time.perf_counter() - started
    if Path(rd.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"error: imported {rd.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    import numpy as np

    import calltrace as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(np)
    work = RUNS_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(rd, np, workloads, args, work)
    try:
        measured = measure(bench, tracing, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = metric_values(bench, measured, import_s, bool(args.trace))

    wanted = [spec["name"] for spec in metric_specs]
    if values and sorted(values) != sorted(wanted):
        print(f"error: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(wanted) - set(values))}, "
              f"extra {sorted(set(values) - set(wanted))}", file=sys.stderr)
        return 3
    if not values:
        print("error: no pipeline completed", file=sys.stderr)

    figures = measured["untraced"] + measured["traced"]
    digests = sorted({json.dumps(f["digest"], sort_keys=True) for f in figures})
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "import_s": import_s,
        "setup_generate_s": measured["setup_s"],
        "label_step_s": measured["label_s"],
        "pipelines": [{k: v for k, v in f.items() if k not in ("layers", "call_tree")}
                      for f in figures],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in bench.ops],
        "metrics": values,
        "call_tree": measured["traced"][0]["call_tree"] if measured["traced"] else None,
    }
    RUNS_DIR.mkdir(exist_ok=True)
    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print("environment: " + json.dumps(env, sort_keys=True))
    for f in figures:
        print(f"pipeline {f['pipeline_s']:.3f}s: " + " ".join(
            f"{k}={v:.3f}" for k, v in f["times"].items())
            + f" student={f['student_accuracy']:.4f} ensemble={f['ensemble_accuracy']:.4f}")
    for d in digests:
        print("digest: " + hashlib.sha256(d.encode()).hexdigest()[:16] + " " + d)
    print(f"details: {out.relative_to(ROOT)}")
    units = {spec["name"]: spec["unit"] for spec in metric_specs}
    failed = bench.failed if values else max(bench.failed, 1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(len(bench.ops), 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
