"""The CSV layer and the atomic writers.

Every CSV reader reports a bad file as ParseError naming the file or the
line, and the CLI turns each of those into exit 3. Streamed writers
replace their target atomically or not at all.
"""

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import relidistill as rd
from relidistill import consensus, data, fileio, student
from relidistill.cli import main
from relidistill.errors import ParseError

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


# reader -> (reader, header, a valid data row). A fault goes into a
# second row placed after a blank line, so it sits on line 4; the
# integer-overflow fault goes into the last column, which holds
# integers in every format.
CSV_READERS = {
    "pseudo_labels": (consensus.read_matrix_csv, ["sample_id", "teacher_0", "teacher_1"], ["a", "1", "0"]),
    "features": (data.load_features, ["sample_id", "f0", "f1", "label"], ["a", "0.5", "-1.5", "1"]),
    "labels": (data.load_labels_csv, ["sample_id", "label"], ["a", "1"]),
}
# fault -> line the error names (None: the file itself)
CSV_FAULTS = {
    "empty file": None,
    "wrong header": None,
    "short row": 4,
    "non-numeric value": 4,
    "integer above int64": 4,
    "1e39 value": 4,
    "duplicate sample_id": 4,
}


def write_faulty_csv(path, reader: str, fault: str) -> None:
    _, header, row = CSV_READERS[reader]
    header, second = list(header), ["b"] + row[1:]
    if fault == "wrong header":
        header[0] = "id"
    elif fault == "short row":
        second.pop()
    elif fault == "non-numeric value":
        second[1] = "x"
    elif fault == "integer above int64":
        second[-1] = str(2**63)
    elif fault == "1e39 value":
        second[1] = "1e39"
    elif fault == "duplicate sample_id":
        second[0] = row[0]
    rows = [header, row, [], second]
    text = "" if fault == "empty file" else "\n".join(",".join(r) for r in rows) + "\n"
    path.write_text(text, encoding="utf-8")


def fault_message(path, fault: str) -> str:
    line = CSV_FAULTS[fault]
    return re.escape(f"{path}: " if line is None else f"{path}:{line}: ")


@pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_csv_fault_names_file_or_line(tmp_path, reader, fault):
    path = tmp_path / "in.csv"
    write_faulty_csv(path, reader, fault)
    with pytest.raises(ParseError, match=fault_message(path, fault)):
        CSV_READERS[reader][0](path)


@pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_csv_fault_exits_3(tmp_path, capsys, reader, fault):
    path = tmp_path / "in.csv"
    write_faulty_csv(path, reader, fault)
    checkpoint = tmp_path / "model.bin"
    student.save_checkpoint(student.init_student([2, 2], seed=0), checkpoint)
    features = tmp_path / "features.csv"
    data.save_features_csv(rd.FeatureDataset(["a", "b"], np.zeros((2, 2))), features)
    out = tmp_path / "out.csv"
    argv = {
        "pseudo_labels": ["partition", str(path), "--out", str(out)],
        "features": ["eval", str(checkpoint), str(path), "--out", str(out)],
        "labels": ["eval", str(checkpoint), str(features), "--labels", str(path), "--out", str(out)],
    }[reader]
    assert main(argv) == 3
    assert re.match("error: " + fault_message(path, fault), capsys.readouterr().err)
    assert not out.exists()


SAMPLE_IDS = st.lists(st.text(st.characters(blacklist_categories=("Cs",))), max_size=6, unique=True)


@st.composite
def pseudo_label_matrices(draw):
    ids = draw(SAMPLE_IDS)
    n_classes = draw(st.integers(2, 5))
    shape = (len(ids), draw(st.integers(2, 4)))
    labels = draw(arrays(np.int64, shape, elements=st.integers(-1, n_classes - 1)))
    return rd.PseudoLabelMatrix(ids, labels, n_classes)


@st.composite
def feature_datasets(draw):
    ids = draw(SAMPLE_IDS)
    shape = (len(ids), draw(st.integers(1, 3)))
    finite32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
    features = draw(arrays(np.float32, shape, elements=finite32)).astype(np.float64)
    labels = draw(st.none() | arrays(np.int64, len(ids), elements=st.integers(0, 2**63 - 1)))
    return rd.FeatureDataset(ids, features, labels)


@settings(max_examples=60, deadline=None)
@given(matrix=pseudo_label_matrices())
def test_matrix_csv_round_trip(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "pl.csv"
    consensus.write_matrix_csv(matrix, path)
    loaded = consensus.read_matrix_csv(path, n_classes=matrix.n_classes)
    assert loaded.sample_ids == matrix.sample_ids
    assert np.array_equal(loaded.labels, matrix.labels)


@settings(max_examples=60, deadline=None)
@given(ds=feature_datasets())
def test_features_csv_round_trip(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("csv") / "features.csv"
    data.save_features_csv(ds, path)
    loaded = data.load_features(path)
    assert loaded.sample_ids == ds.sample_ids
    assert np.array_equal(loaded.features, ds.features)
    if ds.true_labels is None:
        assert loaded.true_labels is None
    else:
        assert np.array_equal(loaded.true_labels, ds.true_labels)


@settings(max_examples=60, deadline=None)
@given(ids=SAMPLE_IDS, data_=st.data())
def test_labels_csv_round_trip(tmp_path_factory, ids, data_):
    labels = {sid: data_.draw(st.integers(-(2**63), 2**63 - 1)) for sid in ids}
    path = tmp_path_factory.mktemp("csv") / "labels.csv"
    fileio.write_csv(path, ["sample_id", "label"], labels.items())
    assert data.load_labels_csv(path) == labels
