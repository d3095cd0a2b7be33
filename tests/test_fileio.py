"""Streamed writers replace their target atomically or not at all."""

import csv
import json

import numpy as np
import pytest

import relidistill as rd
from relidistill import consensus, data, fileio
from relidistill.cli import main

OLD = b"old content\n"
REAL_CSV_WRITER = csv.writer


class DiesOnThirdRow:
    """``csv.writer`` stand-in that fails after the header and one row."""

    def __init__(self, fh, *args, **kwargs):
        self._writer = REAL_CSV_WRITER(fh, *args, **kwargs)
        self._rows = 0

    def writerow(self, row):
        self._rows += 1
        if self._rows == 3:
            raise RuntimeError("write failed mid-stream")
        self._writer.writerow(row)


MATRIX = rd.PseudoLabelMatrix(
    ["s00000", "s00001", "s00002"], np.array([[0, 1], [1, 1], [2, 0]]), 3
)
CSV_WRITERS = {
    "pseudo_labels": lambda path: consensus.write_matrix_csv(MATRIX, path),
    "partition": lambda path: consensus.write_partition_csv(
        rd.partition(MATRIX), MATRIX.sample_ids, path
    ),
    "features": lambda path: data.save_features_csv(rd.make_blobs(3, 2, 2, 0.5, seed=1), path),
}


@pytest.mark.parametrize("name", sorted(CSV_WRITERS))
def test_failed_csv_write_keeps_old_file(tmp_path, monkeypatch, name):
    path = tmp_path / "out.csv"
    path.write_bytes(OLD)
    monkeypatch.setattr(csv, "writer", DiesOnThirdRow)
    with pytest.raises(RuntimeError, match="mid-stream"):
        CSV_WRITERS[name](path)
    assert path.read_bytes() == OLD
    assert list(tmp_path.iterdir()) == [path]


def test_failed_simulate_keeps_old_teacher_records(tmp_path, monkeypatch):
    spec = {
        "n_samples": 6, "n_classes": 3, "dim": 2, "spread": 0.5, "seed": 1,
        "teachers": [{"accuracy": 0.9}, {"accuracy": 0.8}],
    }
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_dir = tmp_path / "data"
    out_dir.mkdir()
    (out_dir / "teachers.jsonl").write_bytes(OLD)

    simulate_teachers = data.simulate_teachers

    def with_unnamed_class(ds, specs, n_classes):
        # Sample 1 answers a class with no vocabulary name, so rendering
        # its text fails after sample 0's records are written.
        matrix = simulate_teachers(ds, specs, n_classes=n_classes)
        labels = matrix.labels.copy()
        labels[1, 0] = n_classes
        return rd.PseudoLabelMatrix(matrix.sample_ids, labels, n_classes + 1)

    monkeypatch.setattr(data, "simulate_teachers", with_unnamed_class)
    with pytest.raises(IndexError):
        main(["simulate", "--config", str(spec_path), "--out", str(out_dir)])
    assert (out_dir / "teachers.jsonl").read_bytes() == OLD
    assert not list(out_dir.glob("*.tmp"))


def test_atomic_write_keeps_plain_open_permissions(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    atomic = tmp_path / "atomic.txt"
    fileio.atomic_write_text(atomic, "x")
    assert atomic.stat().st_mode == plain.stat().st_mode
