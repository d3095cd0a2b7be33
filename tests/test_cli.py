import contextlib
import io
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relidistill.cli import main, parse_stage_configs
from relidistill.curriculum import StageConfig
from relidistill.student import init_student, load_checkpoint, save_checkpoint

SIM_SPEC = {
    "n_samples": 240,
    "n_classes": 4,
    "dim": 8,
    "spread": 0.8,
    "seed": 17,
    "teachers": [
        {"accuracy": 0.85, "confusion": "uniform-error"},
        {"accuracy": 0.75, "confusion": "uniform-error"},
        {"accuracy": 0.65, "confusion": "uniform-error"},
    ],
}


def write_run_config(tmp_path: Path, data_dir: Path, out_dir: Path) -> Path:
    config = {
        "seed": 17,
        "stages": [
            {"stage": "RKT", "learning_rate": 1e-3, "batch_size": 32, "max_iter": 60},
            {"stage": "SMKE", "learning_rate": 1e-4, "batch_size": 64, "max_iter": 60, "tau": 0.7},
            {
                "stage": "MMR",
                "learning_rate": 1e-4,
                "batch_size": 32,
                "max_iter": 60,
                "tau": 0.95,
                "lambda_cons": 0.5,
            },
        ],
        "augment": {"sigma_weak": 0.05, "sigma_strong": 0.2, "p_drop": 0.1},
        "paths": {
            "features": str(data_dir / "features.csv"),
            "pseudo_labels": str(data_dir / "pl.csv"),
            "vocab": str(data_dir / "vocab.txt"),
            "output_dir": str(out_dir),
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.fixture()
def pipeline_dir(tmp_path):
    """simulate + label outputs ready for the training stages."""
    data_dir = tmp_path / "data"
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps(SIM_SPEC), encoding="utf-8")
    assert main(["simulate", "--config", str(spec_path), "--out", str(data_dir)]) == 0
    assert (
        main(
            [
                "label",
                str(data_dir / "teachers.jsonl"),
                str(data_dir / "vocab.txt"),
                "--out",
                str(data_dir / "pl.csv"),
            ]
        )
        == 0
    )
    return data_dir


class TestLabel:
    def test_verbatim_names_obvious_matrix(self, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("car\nbicycle\nkettle\n", encoding="utf-8")
        records = tmp_path / "t.jsonl"
        lines = []
        expected = [[0, 1, 0], [2, 2, 2], [1, 0, 1], [0, 0, 2]]
        names = ["car", "bicycle", "kettle"]
        for i, row in enumerate(expected):
            for t, label in enumerate(row):
                lines.append(
                    json.dumps({"sample_id": f"s{i}", "teacher": t, "text": names[label]})
                )
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "pl.csv"
        assert main(["label", str(records), str(vocab), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "sample_id,teacher_0,teacher_1,teacher_2"
        got = [list(map(int, r.split(",")[1:])) for r in rows[1:]]
        assert got == expected

    def test_drop_policy_and_idempotence(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("car\nbicycle\n", encoding="utf-8")
        records = tmp_path / "t.jsonl"
        records.write_text(
            "\n".join(
                [
                    json.dumps({"sample_id": "s0", "teacher": 0, "text": "car"}),
                    json.dumps({"sample_id": "s0", "teacher": 1, "text": "???"}),
                    json.dumps({"sample_id": "s1", "teacher": 0, "text": "bicycle"}),
                    json.dumps({"sample_id": "s1", "teacher": 1, "text": "car"}),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "pl.csv"
        assert main(["label", str(records), str(vocab), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "dropped 1 of 2" in printed
        first = out.read_bytes()
        assert main(["label", str(records), str(vocab), "--out", str(out)]) == 0
        assert out.read_bytes() == first
        rows = out.read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("s1,")

    def test_error_policy_exit_code(self, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("car\nbicycle\n", encoding="utf-8")
        records = tmp_path / "t.jsonl"
        records.write_text(
            json.dumps({"sample_id": "s0", "teacher": 0, "text": "??"})
            + "\n"
            + json.dumps({"sample_id": "s0", "teacher": 1, "text": "car"})
            + "\n",
            encoding="utf-8",
        )
        code = main(
            [
                "label",
                str(records),
                str(vocab),
                "--on-unlabeled",
                "error",
                "--out",
                str(tmp_path / "pl.csv"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "records, flags, message",
        [
            ([], [], "no teacher records to label"),
            (
                [("s0", 0, "car"), ("s0", 1, "car"), ("s1", 0, "bicycle")],
                ["--on-unlabeled", "error"],
                "samples missing teacher labels: ['s1']",
            ),
        ],
        ids=["empty-records", "missing-teacher-record"],
    )
    def test_error_paths_exit_3(self, tmp_path, capsys, records, flags, message):
        vocab, path, out = (tmp_path / name for name in ("vocab.txt", "t.jsonl", "pl.csv"))
        vocab.write_text("car\nbicycle\n", encoding="utf-8")
        path.write_text(
            "".join(
                json.dumps({"sample_id": sid, "teacher": t, "text": text}) + "\n"
                for sid, t, text in records
            ),
            encoding="utf-8",
        )
        assert main(["label", str(path), str(vocab), *flags, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("teacher", [1.7, True, 10**29])
    def test_teacher_id_not_a_small_integer_exit_3(self, tmp_path, teacher):
        # 1.7 and true were read as teacher 1 (exit 0); 10**29 crashed with
        # OverflowError while building the range of expected ids (exit 1).
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("car\nbicycle\n", encoding="utf-8")
        records = tmp_path / "t.jsonl"
        records.write_text(
            json.dumps({"sample_id": "s0", "teacher": 0, "text": "car"})
            + "\n"
            + json.dumps({"sample_id": "s0", "teacher": teacher, "text": "car"})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "pl.csv"
        assert main(["label", str(records), str(vocab), "--out", str(out)]) == 3
        assert not out.exists()

    def test_duplicate_pair_exit_3(self, tmp_path, capsys):
        # The reader rejected this with path:line; label_records now rejects
        # a repeated pair from any source, naming the sample and teacher.
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("car\nbus\n", encoding="utf-8")
        records = tmp_path / "t.jsonl"
        records.write_text(
            "".join(
                json.dumps({"sample_id": "s0", "teacher": t, "text": text}) + "\n"
                for t, text in [(0, "car"), (1, "car"), (0, "bus")]
            ),
            encoding="utf-8",
        )
        out = tmp_path / "pl.csv"
        assert main(["label", str(records), str(vocab), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: duplicate record for sample 's0', teacher 0")
        assert not out.exists()

    @pytest.mark.parametrize("sample_id, text", [(1, "car"), (None, "car"), ("s1", None)])
    def test_non_string_sample_id_or_text_exit_3(self, tmp_path, capsys, sample_id, text):
        # These used to go through str() and exit 0 with wrong rows.
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("car\nbike\nnone of these\n", encoding="utf-8")
        records = tmp_path / "t.jsonl"
        records.write_text(
            json.dumps({"sample_id": "1", "teacher": 0, "text": "car"})
            + "\n"
            + json.dumps({"sample_id": sample_id, "teacher": 1, "text": text})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "pl.csv"
        assert main(["label", str(records), str(vocab), "--out", str(out)]) == 3
        assert f"{records}:2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault", ["non-UTF-8 vocab", "non-UTF-8 records", "lone surrogate sample_id",
                  "lone surrogate text"],
    )
    def test_undecodable_input_exit_3(self, tmp_path, capsys, fault):
        # These escaped cli.main as UnicodeDecodeError or, when pl.csv was
        # written, UnicodeEncodeError (exit 1).
        vocab = tmp_path / "vocab.txt"
        records = tmp_path / "t.jsonl"
        names = "car\nbike\n"
        lines = [json.dumps({"sample_id": "s0", "teacher": t, "text": "car"}) for t in (0, 1)]
        if fault == "non-UTF-8 vocab":
            names = "car\nbik\udcffe\n"  # \udcff is written as the byte 0xff
        elif fault == "non-UTF-8 records":
            lines[1] = lines[1].replace("car", "c\udcffar")
        else:
            field = fault.rsplit(" ", 1)[1]
            lines[1] = json.dumps({"sample_id": "s0", "teacher": 1, "text": "car", field: "\ud800"})
        vocab.write_text(names, encoding="utf-8", errors="surrogateescape")
        records.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        out = tmp_path / "pl.csv"
        assert main(["label", str(records), str(vocab), "--out", str(out)]) == 3
        bad = vocab if fault == "non-UTF-8 vocab" else records
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: ")
        assert not out.exists()

    def test_bad_backend_flag(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["label", "x", "y", "--backend", "bert", "--out", "z"])
        assert excinfo.value.code == 2

    def test_missing_precomputed_table_exit_3(self, tmp_path):
        code = main(
            [
                "label",
                "x",
                "y",
                "--backend",
                f"precomputed:{tmp_path / 'nope.tsv'}",
                "--out",
                "z",
            ]
        )
        assert code == 3


def set_label(pl_csv: Path, line: int, value: str) -> None:
    """Overwrite the last label on ``line`` of a pseudo-label CSV."""
    lines = pl_csv.read_text(encoding="utf-8").splitlines()
    lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + "," + value
    pl_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drop_last_feature_row(data_dir: Path, tmp_path: Path, config: dict) -> None:
    features = data_dir / "features.csv"
    lines = features.read_text(encoding="utf-8").splitlines()
    features.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def warm_start_128_wide(data_dir: Path, tmp_path: Path, config: dict) -> None:
    warm = tmp_path / "warm.bin"
    save_checkpoint(init_student([SIM_SPEC["dim"], 128, SIM_SPEC["n_classes"]], seed=1), warm)
    config.update(hidden_dims=[7], warm_start_checkpoint=str(warm))


# Faults that only run_curriculum detects, each before the run's first
# checkpoint: (edit of the data or config, exit code, stderr text).
EARLY_RUN_FAULTS = {
    "pl-sample-missing-from-features": (drop_last_feature_row, 3, "not in the feature set"),
    "zero-hidden-dim": (lambda d, t, c: c.update(hidden_dims=[0]), 2, "bad layer dims"),
    "hidden-dims-beside-warm-start": (warm_start_128_wide, 2, "hidden_dims [7] differ"),
    "rkt-divergence": (
        lambda d, t, c: c["stages"][0].update(learning_rate=1e200), 4, "RKT: training diverged"
    ),
}


class TestPartition:
    def test_unlabeled_entry_exit_3_writes_nothing(self, tmp_path, capsys):
        # -1 is not a label, and partition excludes no rows.
        pl = tmp_path / "pl.csv"
        pl.write_text("sample_id,teacher_0,teacher_1\na,1,1\nb,0,-1\n", encoding="utf-8")
        out = tmp_path / "part.csv"
        assert main(["partition", str(pl), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {pl}:3: ")
        assert not out.exists()

    def test_partition_csv(self, tmp_path):
        pl = tmp_path / "pl.csv"
        pl.write_text(
            "sample_id,teacher_0,teacher_1,teacher_2\na,4,4,4\nb,4,4,7\nc,1,2,3\n",
            encoding="utf-8",
        )
        out = tmp_path / "part.csv"
        assert main(["partition", str(pl), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",R")
        assert lines[2].endswith(",LR")
        assert lines[3].endswith(",UR")

    def test_missing_input_exit_code(self, tmp_path):
        assert main(["partition", str(tmp_path / "nope.csv"), "--out", "x"]) == 3


class TestTrainEval:
    def test_full_pipeline(self, pipeline_dir, tmp_path, capsys):
        out_dir = tmp_path / "run_out"
        pl_csv = pipeline_dir / "pl.csv"
        assert main(["partition", str(pl_csv), "--out", str(pipeline_dir / "part.csv")]) == 0
        config = write_run_config(tmp_path, pipeline_dir, out_dir)
        assert main(["train", "--config", str(config)]) == 0
        for stage in ("rkt", "smke", "mmr"):
            assert (out_dir / f"checkpoint_{stage}.bin").exists()
        report = json.loads((out_dir / "train_report.json").read_text())
        assert [s["stage"] for s in report["stages"]] == ["RKT", "SMKE", "MMR"]
        assert (out_dir / "timing.json").exists()

        eval_out = tmp_path / "eval.json"
        code = main(
            [
                "eval",
                str(out_dir / "checkpoint_mmr.bin"),
                str(pipeline_dir / "features.csv"),
                "--out",
                str(eval_out),
            ]
        )
        assert code == 0
        result = json.loads(eval_out.read_text())
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["n_samples"] == SIM_SPEC["n_samples"]

    def test_train_missing_stage_exit_2(self, pipeline_dir, tmp_path):
        config = json.loads(write_run_config(tmp_path, pipeline_dir, tmp_path / "o").read_text())
        config["stages"] = config["stages"][:2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2

    def test_train_missing_feature_file_exit_3(self, pipeline_dir, tmp_path):
        config = json.loads(write_run_config(tmp_path, pipeline_dir, tmp_path / "o").read_text())
        config["paths"]["features"] = str(tmp_path / "missing.csv")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 3

    def test_train_bad_feature_leaves_no_output_dir(self, pipeline_dir, tmp_path, capsys):
        # The output directory used to be created before the features were read.
        features = pipeline_dir / "features.csv"
        lines = features.read_text(encoding="utf-8").splitlines()
        fields = lines[5].split(",")
        fields[1] = "oops"
        lines[5] = ",".join(fields)
        features.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_dir = tmp_path / "o"
        config = write_run_config(tmp_path, pipeline_dir, out_dir)
        assert main(["train", "--config", str(config)]) == 3
        assert f"{features}:6:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_class_beyond_vocab_exit_3(self, pipeline_dir, tmp_path, capsys):
        # train checks labels against the vocabulary, not the largest label.
        pl_csv = pipeline_dir / "pl.csv"
        set_label(pl_csv, 4, str(SIM_SPEC["n_classes"]))
        out_dir = tmp_path / "o"
        config = write_run_config(tmp_path, pipeline_dir, out_dir)
        assert main(["train", "--config", str(config)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {pl_csv}:4: labels must lie in 0..3")
        assert not out_dir.exists()

    def test_failed_input_read_leaves_earlier_outputs(self, pipeline_dir, tmp_path, capsys):
        # A run that fails while reading its inputs changes nothing in
        # output_dir: the earlier run's five files keep their bytes.
        out_dir = tmp_path / "o"
        config = write_run_config(tmp_path, pipeline_dir, out_dir)
        assert main(["train", "--config", str(config)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert len(before) == 5
        pl_csv = pipeline_dir / "pl.csv"
        set_label(pl_csv, 3, "-1")
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {pl_csv}:3: ")
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.parametrize("fault", EARLY_RUN_FAULTS)
    def test_failed_rerun_before_first_checkpoint_leaves_earlier_outputs(
        self, pipeline_dir, tmp_path, capsys, fault
    ):
        # Each of these reruns used to remove the earlier run's five files
        # before failing; output_dir changes only from the first checkpoint on.
        edit, code, message = EARLY_RUN_FAULTS[fault]
        out_dir = tmp_path / "o"
        path = write_run_config(tmp_path, pipeline_dir, out_dir)
        assert main(["train", "--config", str(path)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        config = json.loads(path.read_text())
        edit(pipeline_dir, tmp_path, config)
        path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_divergent_training_exit_4(self, pipeline_dir, tmp_path, capsys):
        out_dir = tmp_path / "o"
        config = json.loads(write_run_config(tmp_path, pipeline_dir, out_dir).read_text())
        config["stages"][0]["learning_rate"] = 1e200
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert "RKT" in err
        assert "Warning" not in err
        assert not (out_dir / "checkpoint_rkt.bin").exists()

    def test_failed_rerun_leaves_no_earlier_outputs(self, pipeline_dir, tmp_path, capsys):
        # A diverging rerun used to leave its own RKT and SMKE checkpoints
        # beside the first run's MMR checkpoint, timing.json and a
        # train_report.json that named the first run's seed.
        out_dir = tmp_path / "o"
        path = write_run_config(tmp_path, pipeline_dir, out_dir)
        assert main(["train", "--config", str(path)]) == 0
        config = json.loads(path.read_text())
        config["stages"][2]["learning_rate"] = 1e300
        path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--seed", "4"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: MMR: training diverged")
        assert "Warning" not in err
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "checkpoint_rkt.bin", "checkpoint_smke.bin"
        ]

    def test_rerun_warm_started_from_its_own_output(self, pipeline_dir, tmp_path):
        # The earlier outputs are removed only after the inputs are read,
        # so a warm start may come from the directory the run writes to.
        out_dir = tmp_path / "o"
        path = write_run_config(tmp_path, pipeline_dir, out_dir)
        assert main(["train", "--config", str(path)]) == 0
        config = json.loads(path.read_text())
        config["warm_start_checkpoint"] = str(out_dir / "checkpoint_mmr.bin")
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 0
        assert len(list(out_dir.iterdir())) == 5

    def test_removed_mode_tie_break_key_exit_2(self, pipeline_dir, tmp_path, capsys):
        # Mode ties are always broken by the seeded draw; the key that
        # chose a policy is gone, and the strict reader names it.
        out_dir = tmp_path / "o"
        config = json.loads(write_run_config(tmp_path, pipeline_dir, out_dir).read_text())
        config["mode_tie_break"] = "random"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 2
        assert "mode_tie_break" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_eval_with_labels_file(self, pipeline_dir, tmp_path):
        out_dir = tmp_path / "run_out"
        config = write_run_config(tmp_path, pipeline_dir, out_dir)
        assert main(["train", "--config", str(config)]) == 0
        features = pipeline_dir / "features.csv"
        rows = features.read_text().splitlines()
        header = rows[0].split(",")[:-1]
        stripped = tmp_path / "features_nolabel.csv"
        labels = tmp_path / "labels.csv"
        with open(stripped, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows[1:]:
                fh.write(",".join(row.split(",")[:-1]) + "\n")
        with open(labels, "w", encoding="utf-8") as fh:
            fh.write("sample_id,label\n")
            for row in rows[1:]:
                parts = row.split(",")
                fh.write(f"{parts[0]},{parts[-1]}\n")
        code = main(
            [
                "eval",
                str(out_dir / "checkpoint_mmr.bin"),
                str(stripped),
                "--labels",
                str(labels),
            ]
        )
        assert code == 0

    def test_eval_without_labels_exit_3(self, pipeline_dir, tmp_path):
        out_dir = tmp_path / "run_out"
        config = write_run_config(tmp_path, pipeline_dir, out_dir)
        assert main(["train", "--config", str(config)]) == 0
        rows = (pipeline_dir / "features.csv").read_text(encoding="utf-8").splitlines()
        stripped = tmp_path / "features_nolabel.csv"
        stripped.write_text(
            "".join(row.rsplit(",", 1)[0] + "\n" for row in rows), encoding="utf-8"
        )
        code = main(["eval", str(out_dir / "checkpoint_mmr.bin"), str(stripped)])
        assert code == 3

    def test_eval_zero_width_checkpoint_exit_3(self, pipeline_dir, tmp_path, capsys):
        # dims [8, 0, 4]: a zero-width hidden layer leaves only the output
        # biases, so the payload is 4 floats and the sizes agree.
        checkpoint = tmp_path / "zero.bin"
        checkpoint.write_bytes(
            b"RCLM0001" + struct.pack("<4Q", 3, 8, 0, 4) + np.zeros(4, "<f4").tobytes()
        )
        out = tmp_path / "acc.json"
        features = pipeline_dir / "features.csv"
        code = main(["eval", str(checkpoint), str(features), "--out", str(out)])
        assert code == 3
        assert "layer dims" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("labels-missing-a-sample", "labels missing for samples"),
            ("feature-width", "feature dim 8 does not match checkpoint input 9"),
            ("truncated-header", "truncated checkpoint header"),
            ("truncated-layer-dims", "truncated layer dims"),
        ],
    )
    def test_eval_error_paths_exit_3(self, pipeline_dir, tmp_path, capsys, fault, message):
        features = pipeline_dir / "features.csv"
        checkpoint, out = tmp_path / "model.bin", tmp_path / "acc.json"
        dims = [SIM_SPEC["dim"] + (fault == "feature-width"), 4, SIM_SPEC["n_classes"]]
        save_checkpoint(init_student(dims, seed=1), checkpoint)
        flags = []
        if fault == "labels-missing-a-sample":
            rows = features.read_text(encoding="utf-8").splitlines()[1:-1]
            labels = tmp_path / "labels.csv"
            pairs = [f"{r.split(',')[0]},{r.rsplit(',', 1)[1]}\n" for r in rows]
            labels.write_text("sample_id,label\n" + "".join(pairs), encoding="utf-8")
            flags = ["--labels", str(labels)]
        elif fault.startswith("truncated"):
            # 8 magic bytes, the u64 dim count, then three u64 dims: cut
            # inside the count, or after the second dim.
            end = 12 if fault == "truncated-header" else 8 + 8 + 16
            checkpoint.write_bytes(checkpoint.read_bytes()[:end])
        code = main(["eval", str(checkpoint), str(features), *flags, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, value",
        [("labels-file", "99"), ("labels-file", "-7"), ("label-column", "99"),
         ("label-column", "-4"), ("label-column", "3")],
    )
    def test_eval_truth_label_outside_classes_exit_3(self, tmp_path, capsys, source, value):
        # A 3-class checkpoint scored these as {"accuracy": 0.0} with exit 0;
        # a -4 in the label column exited 3 naming neither file nor line.
        checkpoint, out = tmp_path / "model.bin", tmp_path / "acc.json"
        save_checkpoint(init_student([2, 4, 3], seed=1), checkpoint)
        features, labels = tmp_path / "features.csv", tmp_path / "labels.csv"
        if source == "labels-file":
            features.write_text("sample_id,f0,f1\na,0.5,1\nb,1,0\n", encoding="utf-8")
            named, flags = labels, ["--labels", str(labels)]
            template = "sample_id,label\na,2\nb,{}\n"
        else:
            named, flags = features, []
            template = "sample_id,f0,f1,label\na,0.5,1,2\nb,1,0,{}\n"
        argv = ["eval", str(checkpoint), str(features), *flags, "--out", str(out)]
        named.write_text(template.format(value), encoding="utf-8")
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {named}:3: labels must lie in 0..2, got [{value}]"
        )
        assert not out.exists()
        # The last class is a truth label like any other.
        named.write_text(template.format(2), encoding="utf-8")
        assert main(argv) == 0

    def test_train_truth_label_outside_vocab_exit_3(self, pipeline_dir, tmp_path, capsys):
        # The label column is the truth the stage accuracies are scored on.
        out = tmp_path / "out"
        config = write_run_config(tmp_path, pipeline_dir, out)
        set_label(pipeline_dir / "features.csv", 3, str(SIM_SPEC["n_classes"]))
        assert main(["train", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pipeline_dir / 'features.csv'}:3: labels must lie in 0..3")
        assert not out.exists()


class TestSimulate:
    def test_simulate_outputs_consistent(self, pipeline_dir):
        # teachers.jsonl texts are verbatim vocab names; labeling them
        # reproduces the simulated matrix exactly.
        from relidistill import consensus, data as data_mod

        matrix = consensus.read_matrix_csv(pipeline_dir / "pl.csv")
        ds = data_mod.load_features(pipeline_dir / "features.csv")
        assert matrix.sample_ids == ds.sample_ids
        assert matrix.m == 3

    @pytest.mark.parametrize("n_names", [3, 5])
    def test_class_names_length_differs_exit_2(self, tmp_path, capsys, n_names):
        spec = tmp_path / "sim.json"
        names = [f"class {c}" for c in range(n_names)]
        spec.write_text(json.dumps({**SIM_SPEC, "class_names": names}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: class_names length must equal n_classes")
        assert not out.exists()

    def test_unaffordable_dim_exit_4_creates_nothing(self, tmp_path, capsys):
        # A (dim, dim) matrix of 8e16 bytes, past any address space: the
        # MemoryError escaped cli.main with a traceback (exit 1).
        spec = tmp_path / "sim.json"
        spec.write_text(json.dumps({**SIM_SPEC, "dim": 10**8}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(spec), "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("error: out of memory: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("dim", -1, "dim must be at least 1"), ("dim", 0, "dim must be at least 1"),
         ("spread", 1e300, "features do not fit float32"),
         ("class_names", ["left\nright", "up", "down", "back"], "holds a line break"),
         ("class_names", ["left", "up\rdown", "x", "y"], "holds a line break")],
        ids=["dim-negative", "dim-zero", "spread-beyond-float32", "name-with-LF", "name-with-CR"],
    )
    def test_value_simulate_cannot_write_exit_2_creates_nothing(
        self, tmp_path, capsys, key, value, message
    ):
        # dim -1 escaped as ValueError (exit 1); dim 0 and spread 1e300 (after
        # a numpy overflow warning) exited 3 as data errors; a name holding
        # "\n" exited 0 with a vocab.txt of more lines than classes.
        spec, out = tmp_path / "sim.json", tmp_path / "out"
        spec.write_text(json.dumps({**SIM_SPEC, key: value}), encoding="utf-8")
        assert main(["simulate", "--config", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and not out.exists()

    def test_simulate_rerun_identical(self, tmp_path):
        spec_path = tmp_path / "sim.json"
        spec_path.write_text(json.dumps(SIM_SPEC), encoding="utf-8")
        outs = []
        for i in range(2):
            out = tmp_path / f"d{i}"
            assert main(["simulate", "--config", str(spec_path), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("features.csv", "vocab.txt", "teachers.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def edited(config: dict, path: tuple, value) -> dict:
    """A deep copy of ``config`` with the key or index at ``path`` set to ``value``."""
    config = json.loads(json.dumps(config))
    target = config
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return config


# (command, where to edit, bad value, what stderr must name); each of these
# used to exit 0, except the float overflow, which crashed with exit 1, and
# the non-finite floats (JSON NaN and Infinity; 1e400 parses to inf too),
# which exited 3 or 4, some after writing checkpoints.
MISCONFIGURATIONS = [
    ("train", ("hidden_dims",), "16", "hidden_dims"),
    ("train", ("hiden_dims",), [16], "hiden_dims"),
    ("train", ("warm_start_checkpoit",), "ckpt.bin", "warm_start_checkpoit"),
    ("train", ("augment", "sigma_wek"), 0.01, "sigma_wek"),
    ("train", ("augment",), [0.05, 0.2, 0.1], "augment"),
    ("train", ("stages", 1, "batch_size"), 64.5, "stages[1].batch_size"),
    ("train", ("stages", 0, "learning_rate"), "1e-3", "stages[0].learning_rate"),
    ("train", ("stages", 0, "learning_rate"), 10**400, "stages[0].learning_rate"),
    ("train", ("stages", 2, "tau"), True, "stages[2].tau"),
    ("train", ("stages", 0, "learning_rate"), float("nan"), "stages[0].learning_rate"),
    ("train", ("stages", 1, "learning_rate"), float("inf"), "stages[1].learning_rate"),
    ("train", ("stages", 2, "lambda_cons"), float("nan"), "stages[2].lambda_cons"),
    ("train", ("augment", "sigma_strong"), float("inf"), "augment.sigma_strong"),
    ("simulate", ("teachers", 0, "confussion"), "adjacent-class", "confussion"),
    ("simulate", ("class_names",), "abcd", "class_names"),
    ("simulate", ("n_samples",), 120.9, "n_samples"),
    ("simulate", ("teachers", 1, "seed"), 2.7, "teachers[1].seed"),
    ("simulate", ("spread",), float("nan"), "spread"),
]

MISCONFIGURATION_IDS = [
    f"{command}-{'.'.join(map(str, path))}-{type(value).__name__}"
    for command, path, value, _ in MISCONFIGURATIONS
]


class TestStrictConfigs:
    @pytest.mark.parametrize(
        "command, path, value, named",
        MISCONFIGURATIONS,
        ids=MISCONFIGURATION_IDS,
    )
    def test_misconfiguration_exit_2(self, command, path, value, named, tmp_path, request, capsys):
        out = tmp_path / "out"
        if command == "train":
            pipeline = request.getfixturevalue("pipeline_dir")
            config = json.loads(write_run_config(tmp_path, pipeline, out).read_text())
        else:
            config = SIM_SPEC
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(config, path, value)), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not list(out.glob("checkpoint_*.bin"))
        assert not (out / "train_report.json").exists()
        assert not (out / "teachers.jsonl").exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("missing-file", "cannot read config"),
            ("top-level-list", "config: expected a JSON object, got list"),
            ("stage-not-object", "stages[1]: expected a JSON object, got str"),
        ],
    )
    def test_train_config_error_paths_exit_2(
        self, pipeline_dir, tmp_path, capsys, fault, message
    ):
        out = tmp_path / "out"
        config = json.loads(write_run_config(tmp_path, pipeline_dir, out).read_text())
        path = tmp_path / "bad.json"
        if fault == "top-level-list":
            path.write_text(json.dumps([config]), encoding="utf-8")
        elif fault == "stage-not-object":
            path.write_text(json.dumps(edited(config, ("stages", 1), "SMKE")), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "simulate"])
    def test_non_utf8_config_exit_2(self, command, tmp_path, capsys):
        # A UnicodeDecodeError escaped cli.main here (exit 1).
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": 1, "name": "caf\xe9"}')
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {bad}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, seed_flag",
        [
            ("train", []),
            ("simulate", []),
            ("train", ["--seed", "-2"]),
            ("simulate", ["--seed", "-2"]),
        ],
        ids=["train", "simulate", "train-seed-flag", "simulate-seed-flag"],
    )
    def test_negative_seed_exit_2_creates_nothing(
        self, command, seed_flag, tmp_path, request, capsys
    ):
        out = tmp_path / "out"
        if command == "train":
            pipeline = request.getfixturevalue("pipeline_dir")
            config = json.loads(write_run_config(tmp_path, pipeline, out).read_text())
        else:
            config = SIM_SPEC
        bad = tmp_path / "bad.json"
        seed = 5 if seed_flag else -2
        bad.write_text(json.dumps(edited(config, ("seed",), seed)), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(bad), "--out", str(out), *seed_flag]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, path, named",
        [
            ("simulate", ("class_names",), "class_names[0]"),
            ("train", ("paths", "vocab"), "paths.vocab"),
        ],
        ids=["simulate-class_names", "train-paths.vocab"],
    )
    def test_lone_surrogate_string_exit_2_creates_nothing(
        self, command, path, named, tmp_path, request, capsys
    ):
        # simulate crashed with UnicodeEncodeError (exit 1) after it had
        # written features.csv.
        out = tmp_path / "out"
        if command == "train":
            pipeline = request.getfixturevalue("pipeline_dir")
            config = json.loads(write_run_config(tmp_path, pipeline, out).read_text())
            value = "a\ud800b"
        else:
            config = SIM_SPEC
            value = ["a\ud800b", "b", "c", "d"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(config, path, value)), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{named}: not valid UTF-8" in err
        assert not out.exists()

    # Each of these used to leave an empty output directory behind.
    @pytest.mark.parametrize(
        "path, value, code",
        [
            (("hidden_dims",), [0], 2),
            (("mode_tie_break",), "random", 2),
            (("stages", 0, "learning_rate"), 1e200, 4),
        ],
        ids=["zero-hidden-dim", "removed-tie-break-key", "rkt-divergence"],
    )
    def test_train_failure_leaves_no_output_dir(
        self, pipeline_dir, tmp_path, capsys, path, value, code
    ):
        out = tmp_path / "out"
        config = json.loads(write_run_config(tmp_path, pipeline_dir, out).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(config, path, value)), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(bad)]) == code
        assert "Warning" not in capsys.readouterr().err
        assert not out.exists()

    def test_well_typed_values_keep_their_meaning(self):
        cfgs = parse_stage_configs(
            [
                {"stage": "rkt", "learning_rate": 1, "batch_size": 8, "max_iter": 2},
                {"stage": "Smke", "learning_rate": 1e-3, "batch_size": 8, "max_iter": 2},
                {"stage": "MMR", "learning_rate": 1e-3, "batch_size": 8, "max_iter": 2,
                 "tau": 1, "lambda_cons": 0},
            ]
        )
        assert cfgs == [
            StageConfig("RKT", 1.0, 8, 2),
            StageConfig("SMKE", 1e-3, 8, 2, tau=0.7),
            StageConfig("MMR", 1e-3, 8, 2, tau=1.0, lambda_cons=0.0),
        ]
        assert type(cfgs[0].learning_rate) is float and type(cfgs[2].tau) is float

    def test_out_flag_replaces_output_dir(self, pipeline_dir, tmp_path):
        config = json.loads(write_run_config(tmp_path, pipeline_dir, tmp_path / "o").read_text())
        del config["paths"]["output_dir"]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o2")]) == 0
        assert (tmp_path / "o2" / "checkpoint_mmr.bin").exists()

    def test_empty_hidden_dims_trains_a_linear_student(self, pipeline_dir, tmp_path):
        out = tmp_path / "o"
        config = json.loads(write_run_config(tmp_path, pipeline_dir, out).read_text())
        config["hidden_dims"] = []
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 0
        model = load_checkpoint(out / "checkpoint_mmr.bin")
        assert model.layer_dims == [SIM_SPEC["dim"], SIM_SPEC["n_classes"]]

    def test_hidden_dims_disagreeing_with_warm_start_exit_2(self, pipeline_dir, tmp_path, capsys):
        # This used to exit 0 and train the checkpoint's [8, 128, 4] shape.
        warm = tmp_path / "warm.bin"
        save_checkpoint(init_student([SIM_SPEC["dim"], 128, SIM_SPEC["n_classes"]], seed=1), warm)
        out = tmp_path / "o"
        config = json.loads(write_run_config(tmp_path, pipeline_dir, out).read_text())
        config.update(hidden_dims=[7], warm_start_checkpoint=str(warm))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 2
        assert "hidden_dims" in capsys.readouterr().err
        assert not out.exists()


# The CLI boundary under fuzz. Each input kind below has valid seed
# files; a fuzz test runs the kind's command with one of them mutated,
# through run_cli, which checks the one contract every kind shares.

# A valid teachers file: verbatim, free-text, unmatchable and escaped
# answers, so mutations reach every reader and labeling branch.
FUZZ_VOCAB = b"car\nbicycle\nkettle\n"
FUZZ_RECORDS = "".join(
    json.dumps({"sample_id": sid, "teacher": t, "text": text}) + "\n"
    for sid, t, text in [
        ("s0", 0, "car"), ("s0", 1, "a red car"), ("s1", 0, "Kettle."),
        ("s1", 1, "caf\u00e9 bike"), ("s2", 1, "?!"), ("s2", 0, "bicycle"),
    ]
).encode("utf-8")

# A valid table for FUZZ_VOCAB and FUZZ_RECORDS: it covers every class
# name, misses one answer and holds a zero vector, and its non-ASCII key
# lets mutations reach the UTF-8 check.
FUZZ_TABLE = (
    "car\t1 0 0\nbicycle\t0 1 0\nkettle\t0 0 1\na red car\t0.9 0.1 0\n"
    "Kettle.\t0 0.25 1e-3\ncaf\u00e9 bike\t0.2 0.7 -0.1\n?!\t0 0 0\n"
).encode("utf-8")

# A valid pl.csv; its quoted id lets mutations reach the CSV quoting rules.
FUZZ_PSEUDO_LABELS = (
    b'sample_id,teacher_0,teacher_1,teacher_2\ns0,1,1,1\n"s,1",0,2,1\ns2,2,0,0\ns3,0,1,2\n'
)

# A valid [2, 3, 2] checkpoint (17 parameters) and a features file it
# evaluates; the quoted id lets mutations reach the CSV quoting rules.
FUZZ_CHECKPOINT = (
    b"RCLM0001" + struct.pack("<4Q", 3, 2, 3, 2) + np.linspace(-1, 1, 17, dtype="<f4").tobytes()
)
FUZZ_FEATURES = b'sample_id,f0,f1,label\ns0,0.5,-1.25,0\n"s,1",1e-3,2,1\ns2,3,0,1\n'

# FUZZ_FEATURES without its label column, and the labels as a --labels
# CSV; the quoted id lets mutations reach the CSV quoting rules.
FUZZ_UNLABELED_FEATURES = b'sample_id,f0,f1\ns0,0.5,-1.25\n"s,1",1e-3,2\ns2,3,0\n'
FUZZ_LABELS = b'sample_id,label\ns0,0\n"s,1",1\ns2,1\n'

# A valid simulate config; its non-ASCII class name lets mutations reach
# the UTF-8 checks.
FUZZ_SIM_CONFIG = json.dumps(
    {
        "n_samples": 12, "n_classes": 3, "dim": 2, "spread": 0.5, "seed": 5,
        "teachers": [
            {"accuracy": 0.9},
            {"accuracy": 0.7, "confusion": "adjacent-class", "correlation": 0.3},
        ],
        "class_names": ["car", "café", "bus"],
    },
    ensure_ascii=False,
).encode("utf-8")

# The fixed inputs of the train fuzz: 9 samples of 3 classes that all,
# two or no teachers agree on. The part mutated is a train config's
# object without "paths" and without its closing brace; FUZZ_TRAIN_PATHS
# closes it, and as a key is taken from its last occurrence, no mutation
# can point a path out of the directory the command runs in.
FUZZ_TRAIN_INPUTS = {
    "features.csv": "sample_id,f0,f1,label\n" + "".join(
        f"s{i},{(i % 3) - 1},{(i * 7 % 5) / 4},{i % 3}\n" for i in range(9)
    ),
    "pl.csv": "sample_id,teacher_0,teacher_1,teacher_2\n" + "".join(
        f"s{i},{i % 3},{i % 3 if i < 6 else (i + 1) % 3},{i % 3 if i < 3 else (i + 2) % 3}\n"
        for i in range(9)
    ),
    "vocab.txt": "car\nbus\nvan\n",
}
FUZZ_TRAIN_CONFIG = json.dumps(
    {
        "seed": 3,
        "hidden_dims": [4],
        "stages": [
            {"stage": "RKT", "learning_rate": 0.01, "batch_size": 4, "max_iter": 6},
            {"stage": "SMKE", "learning_rate": 0.01, "batch_size": 4, "max_iter": 6, "tau": 0.7},
            {"stage": "MMR", "learning_rate": 0.01, "batch_size": 4, "max_iter": 6, "tau": 0.9,
             "lambda_cons": 0.5},
        ],
        "augment": {"sigma_weak": 0.05, "sigma_strong": 0.2, "p_drop": 0.1},
    }
).encode("utf-8")[:-1]
FUZZ_TRAIN_PATHS = (
    b', "paths": {"features": "features.csv", "pseudo_labels": "pl.csv", "vocab": "vocab.txt"}}'
)


class FuzzKind(NamedTuple):
    """A command under fuzz: its command line, the exit codes it may give,
    its seed files (name -> bytes; the command line names them relative to
    the directory it runs in), and the paths a failure with exit 4 may
    leave (a failing train stage keeps the checkpoints of those before it)."""

    argv: str
    codes: set[int]
    files: dict[str, bytes]
    kept_on_exit_4: tuple[str, ...] = ()


FUZZ_KINDS = {
    "label": FuzzKind("label t.jsonl v.txt --out pl.csv", {0, 2, 3},
                      {"t.jsonl": FUZZ_RECORDS, "v.txt": FUZZ_VOCAB}),
    "label-precomputed": FuzzKind(
        "label t.jsonl v.txt --backend precomputed:e.tsv --out pl.csv", {0, 2, 3},
        {"t.jsonl": FUZZ_RECORDS, "v.txt": FUZZ_VOCAB, "e.tsv": FUZZ_TABLE},
    ),
    "partition": FuzzKind("partition pl.csv --out part.csv", {0, 2, 3},
                          {"pl.csv": FUZZ_PSEUDO_LABELS}),
    "eval": FuzzKind("eval model.bin features.csv --out acc.json", {0, 3},
                     {"model.bin": FUZZ_CHECKPOINT, "features.csv": FUZZ_FEATURES}),
    "eval-labels": FuzzKind(
        "eval model.bin features.csv --labels labels.csv --out acc.json", {0, 3},
        {"model.bin": FUZZ_CHECKPOINT, "features.csv": FUZZ_UNLABELED_FEATURES,
         "labels.csv": FUZZ_LABELS},
    ),
    "simulate": FuzzKind("simulate --config config.json --out out", {0, 2, 4},
                         {"config.json": FUZZ_SIM_CONFIG}),
    "train": FuzzKind(
        "train --config config.json --out out", {0, 2, 3, 4},
        {**{name: text.encode("utf-8") for name, text in FUZZ_TRAIN_INPUTS.items()},
         "config.json": FUZZ_TRAIN_CONFIG + FUZZ_TRAIN_PATHS},
        ("out", "out/checkpoint_rkt.bin", "out/checkpoint_smke.bin"),
    ),
}


def run_cli(kind: str, replaced: dict[str, bytes] | None = None) -> tuple[int, dict[str, bytes]]:
    """Run ``FUZZ_KINDS[kind]``'s command in a fresh directory holding its
    seed files, ``replaced`` written over them, and check the contract of
    the CLI boundary: the exit code is one of the kind's (never a
    traceback); a failure's stderr starts with ``error:``; and after a
    failure the directory, searched recursively, holds exactly the paths
    it held before, except what the kind may keep after exit 4. Returns
    the exit code and the bytes of each file the run added."""
    row = FUZZ_KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in {**row.files, **(replaced or {})}.items():
            (tmp / name).write_bytes(content)
        before = set(tmp.rglob("*"))
        err, cwd = io.StringIO(), os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(row.argv.split())
        finally:
            os.chdir(cwd)
        assert code in row.codes, err.getvalue()
        after = set(tmp.rglob("*"))
        if code != 0:
            assert err.getvalue().startswith("error:")
            kept = {tmp / name for name in row.kept_on_exit_4} if code == 4 else set()
            assert after - kept == before
        added = (p for p in after - before if p.is_file())
        return code, {str(p.relative_to(tmp)): p.read_bytes() for p in added}


@pytest.mark.parametrize("kind", FUZZ_KINDS)
def test_fuzz_seed_inputs_exit_0(kind):
    # Mutations start from a passing run, so no fuzz passes vacuously.
    code, written = run_cli(kind)
    assert code == 0
    if kind == "label-precomputed":
        assert written["pl.csv"].decode("utf-8").splitlines()[1:] == ["s0,0,0", "s1,2,1"]


def affordable(config: bytes) -> bool:
    """Whether ``config``, where it parses, asks for at most 1 000 of anything
    (samples, dims, classes, hidden units, batch rows, iterations). A few
    inserted digits turn a size of 2 into 29 999, and simulate's class
    centers take a (dim, dim) matrix; such a config asks more of the machine
    than a test may, so it is not run. A seed may take any value."""

    def too_big(value, key=None) -> bool:
        if isinstance(value, dict):
            return any(too_big(v, k) for k, v in value.items())
        if isinstance(value, list):
            return any(too_big(v, key) for v in value)
        return type(value) is int and key != "seed" and value > 1000

    try:
        return not too_big(json.loads(config.decode("utf-8")))
    except ValueError:  # neither UTF-8 nor JSON: the command rejects it
        return True


@st.composite
def mutated_bytes(draw, data: bytes) -> bytes:
    """``data`` with a few bytes flipped, inserted or deleted, maybe truncated."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("flip", "insert", "delete")))
        pos = draw(st.integers(0, max(len(out) - 1, 0)))
        if op == "insert":
            out.insert(pos, draw(st.integers(0, 255)))
        elif op == "flip" and out:
            out[pos] ^= 1 << draw(st.integers(0, 7))
        elif op == "delete" and out:
            del out[pos]
    if draw(st.booleans()):
        del out[draw(st.integers(0, len(out))):]
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(mutated_bytes(FUZZ_RECORDS))
def test_label_fuzzed_teacher_records_exit_cleanly(records_bytes):
    run_cli("label", {"t.jsonl": records_bytes})


@settings(max_examples=60, deadline=None)
@given(mutated_bytes(FUZZ_VOCAB))
def test_label_fuzzed_vocab_exits_cleanly(vocab_bytes):
    run_cli("label", {"v.txt": vocab_bytes})


@settings(max_examples=60, deadline=None)
@given(mutated_bytes(FUZZ_TABLE))
def test_label_fuzzed_precomputed_table_exits_cleanly(table_bytes):
    run_cli("label-precomputed", {"e.tsv": table_bytes})


@settings(max_examples=60, deadline=None)
@given(mutated_bytes(FUZZ_PSEUDO_LABELS))
def test_partition_fuzzed_pseudo_labels_exit_cleanly(pl_bytes):
    run_cli("partition", {"pl.csv": pl_bytes})


@settings(max_examples=60, deadline=None)
@given(mutated_bytes(FUZZ_CHECKPOINT))
def test_eval_fuzzed_checkpoint_exits_cleanly(checkpoint_bytes):
    run_cli("eval", {"model.bin": checkpoint_bytes})


@settings(max_examples=60, deadline=None)
@given(mutated_bytes(FUZZ_FEATURES))
def test_eval_fuzzed_features_exit_cleanly(features_bytes):
    run_cli("eval", {"features.csv": features_bytes})


@settings(max_examples=60, deadline=None)
@given(mutated_bytes(FUZZ_LABELS))
def test_eval_fuzzed_labels_exit_cleanly(labels_bytes):
    run_cli("eval-labels", {"labels.csv": labels_bytes})


@settings(max_examples=60, deadline=None)
@given(mutated_bytes(FUZZ_SIM_CONFIG))
def test_simulate_fuzzed_config_exits_cleanly(config_bytes):
    assume(affordable(config_bytes))
    run_cli("simulate", {"config.json": config_bytes})


@settings(max_examples=60, deadline=None)
@given(mutated_bytes(FUZZ_TRAIN_CONFIG))
def test_train_fuzzed_config_exits_cleanly(config_bytes):
    assume(affordable(config_bytes + b"}"))
    run_cli("train", {"config.json": config_bytes + FUZZ_TRAIN_PATHS})
