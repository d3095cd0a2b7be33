import json
from pathlib import Path

import pytest

from relidistill.cli import main, parse_stage_configs
from relidistill.curriculum import StageConfig
from relidistill.student import load_checkpoint

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


class TestPartition:
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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergent_training_exit_4(self, pipeline_dir, tmp_path, capsys):
        out_dir = tmp_path / "o"
        config = json.loads(write_run_config(tmp_path, pipeline_dir, out_dir).read_text())
        config["stages"][0]["learning_rate"] = 1e200
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 4
        assert "RKT" in capsys.readouterr().err
        assert not (out_dir / "checkpoint_rkt.bin").exists()

    def test_unknown_tie_break_exit_2_before_training(self, pipeline_dir, tmp_path):
        out_dir = tmp_path / "o"
        config = json.loads(write_run_config(tmp_path, pipeline_dir, out_dir).read_text())
        config["mode_tie_break"] = "bogus"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        assert not (out_dir / "checkpoint_rkt.bin").exists()

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
        # binary features carry no label column
        from relidistill import data as data_mod

        ds = data_mod.load_features(pipeline_dir / "features.csv")
        data_mod.save_features_binary(ds, tmp_path / "f.bin")
        code = main(["eval", str(out_dir / "checkpoint_mmr.bin"), str(tmp_path / "f.bin")])
        assert code == 3


class TestSimulate:
    def test_simulate_outputs_consistent(self, pipeline_dir):
        # teachers.jsonl texts are verbatim vocab names; labeling them
        # reproduces the simulated matrix exactly.
        from relidistill import consensus, data as data_mod

        matrix = consensus.read_matrix_csv(pipeline_dir / "pl.csv")
        ds = data_mod.load_features(pipeline_dir / "features.csv")
        assert matrix.sample_ids == ds.sample_ids
        assert matrix.m == 3

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
# used to exit 0, except the float overflow, which crashed with exit 1.
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
    ("simulate", ("teachers", 0, "confussion"), "adjacent-class", "confussion"),
    ("simulate", ("class_names",), "abcd", "class_names"),
    ("simulate", ("n_samples",), 120.9, "n_samples"),
    ("simulate", ("teachers", 1, "seed"), 2.7, "teachers[1].seed"),
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

    @pytest.mark.parametrize("command", ["train", "simulate"])
    def test_negative_seed_exit_2_creates_nothing(self, command, tmp_path, request, capsys):
        out = tmp_path / "out"
        if command == "train":
            pipeline = request.getfixturevalue("pipeline_dir")
            config = json.loads(write_run_config(tmp_path, pipeline, out).read_text())
        else:
            config = SIM_SPEC
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(config, ("seed",), -2)), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    # Each of these used to leave an empty output directory behind.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "path, value, code",
        [
            (("hidden_dims",), [0], 2),
            (("mode_tie_break",), "bogus", 2),
            (("stages", 0, "learning_rate"), 1e200, 4),
        ],
        ids=["zero-hidden-dim", "bogus-tie-break", "rkt-divergence"],
    )
    def test_train_failure_leaves_no_output_dir(self, pipeline_dir, tmp_path, path, value, code):
        out = tmp_path / "out"
        config = json.loads(write_run_config(tmp_path, pipeline_dir, out).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(config, path, value)), encoding="utf-8")
        assert main(["train", "--config", str(bad)]) == code
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
