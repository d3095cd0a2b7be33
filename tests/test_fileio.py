"""The CSV layer and the atomic writers.

Every CSV reader reports a bad file as ParseError naming the file or the
line, and the CLI turns each of those into exit 3. Streamed writers
replace their target atomically or not at all.
"""

import csv
import io
import json
import re
import tracemalloc
import warnings
from unittest import mock

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


def test_atomic_open_passes_on_an_error_of_the_body(tmp_path):
    # Only an error that names the temp file is raised again naming the target.
    missing = tmp_path / "missing.txt"
    with pytest.raises(FileNotFoundError) as excinfo:
        with fileio.atomic_open(tmp_path / "out.txt") as fh:
            fh.write("x")
            open(missing)
    assert excinfo.value.filename == str(missing)
    assert list(tmp_path.iterdir()) == []


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
    # These two escaped as UnicodeDecodeError and _csv.Error (exit 1).
    "non-UTF-8 byte": 4,
    "field over the csv module's limit": 4,
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
    elif fault == "non-UTF-8 byte":
        second[0] = "b\udcff"  # written as the byte 0xff
    elif fault == "field over the csv module's limit":
        second[0] = "b" * (csv.field_size_limit() + 1)
    rows = [header, row, [], second]
    text = "" if fault == "empty file" else "\n".join(",".join(r) for r in rows) + "\n"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")


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


def test_non_utf8_byte_named_by_file_line(tmp_path):
    # The decoder reads in chunks; the line must count from the file start.
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"".join(b"name %d\n" % i for i in range(5000)) + b"caf\xe9\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:5001: not valid UTF-8")):
        data.load_class_vocab(path)


SAMPLE_IDS = st.lists(st.text(st.characters(blacklist_categories=("Cs",))), max_size=6, unique=True)


@st.composite
def pseudo_label_matrices(draw):
    ids = draw(SAMPLE_IDS)
    n_classes = draw(st.integers(2, 5))
    shape = (len(ids), draw(st.integers(2, 4)))
    labels = draw(arrays(np.int64, shape, elements=st.integers(0, n_classes - 1)))
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


# A quoted field may hold a newline, so a row can start below the line
# count of the rows before it; each fault's row starts on line 5, except
# the short row's, on line 4. These errors named the record number.
QUOTED_NEWLINE_FAULTS = {
    "non-numeric value": ('"a\nb",1,0\nc,1,0\nd,x,0\n', 5),
    "short row": ('"a\nb",1,0\nc,1\n', 4),
    "duplicate sample_id": ('"a\nb",1,0\nc,1,0\nc,0,1\n', 5),
}


@pytest.mark.parametrize("fault", sorted(QUOTED_NEWLINE_FAULTS))
def test_fault_after_quoted_newline_names_physical_line(tmp_path, fault):
    body, line = QUOTED_NEWLINE_FAULTS[fault]
    path = tmp_path / "pl.csv"
    path.write_bytes(("sample_id,teacher_0,teacher_1\n" + body).encode())
    with pytest.raises(ParseError, match=re.escape(f"{path}:{line}: ")):
        consensus.read_matrix_csv(path)


BLOCK = 4
# Row counts on and around the edges of BLOCK-row blocks.
BLOCK_EDGE_ROWS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)
# Ids built from the characters CSV must quote, so rows span lines.
QUOTED_IDS = st.text(st.sampled_from('ab,"\n é'), max_size=4)
# Ids CSV writes as they are, so their blocks take the C parser; the "p"
# keeps them apart from every QUOTED_IDS id.
PLAIN_IDS = st.text(st.sampled_from("ab é\t"), max_size=3).map(lambda s: "p" + s)
INT64 = st.integers(-(2**63), 2**63 - 1).map(str)
FLOAT32 = st.floats(allow_nan=False, allow_infinity=False, width=32).map(str)


@st.composite
def block_edge_csvs(draw):
    """(reader, header, rows, blank-line flags) for a file whose row count
    sits on a block edge; a blank line goes before each flagged row. The
    ids are plain up to a drawn row and drawn from QUOTED_IDS after it, so
    a file may switch from the C parser to csv.reader in any block, or
    never. Only rows after the switch are flagged, since a blank line
    sends its block to csv.reader."""
    reader = draw(st.sampled_from(sorted(CSV_READERS)))
    n = draw(st.sampled_from(BLOCK_EDGE_ROWS))
    if reader == "pseudo_labels":
        m = draw(st.integers(2, 3))
        header = ["sample_id"] + [f"teacher_{t}" for t in range(m)]
        cells = [st.integers(0, 9).map(str)] * m
    elif reader == "features":
        dim, has_label = draw(st.integers(1, 3)), draw(st.booleans())
        header = ["sample_id"] + [f"f{j}" for j in range(dim)] + ["label"] * has_label
        cells = [FLOAT32] * dim + [st.integers(0, 2**63 - 1).map(str)] * has_label
    else:
        header, cells = ["sample_id", "label"], [INT64]
    switch = draw(st.integers(0, n), label="first row with a QUOTED_IDS id")
    ids = draw(st.lists(PLAIN_IDS, min_size=switch, max_size=switch, unique=True))
    ids += draw(st.lists(QUOTED_IDS, min_size=n - switch, max_size=n - switch, unique=True))
    rows = [[sid] + [draw(cell) for cell in cells] for sid in ids]
    blanks = [False] * switch
    blanks += draw(st.lists(st.booleans(), min_size=n - switch, max_size=n - switch))
    return reader, header, rows, blanks


def write_block_edge_csv(path, header, rows, blanks) -> list[int]:
    """Write the file; return the line on which each row starts."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    lines = []
    for row, blank in zip(rows, blanks):
        if blank:
            buf.write("\n")
        lines.append(buf.getvalue().count("\n") + 1)
        writer.writerow(row)
    path.write_bytes(buf.getvalue().encode("utf-8"))
    return lines


def reference_parse(path, reader: str):
    """The file through csv.reader and one np.array over all its rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    ids = [row[0] for row in rows]
    if reader == "pseudo_labels":
        labels = np.array([row[1:] for row in rows], np.int64)
        return ids, labels.reshape(len(rows), len(header) - 1)
    if reader == "labels":
        return ids, np.array([row[1] for row in rows], np.int64)
    dim = len(header) - 1 - (header[-1] == "label")
    features = np.array([row[1 : 1 + dim] for row in rows], np.float32).reshape(len(rows), dim)
    labels = np.array([row[-1] for row in rows], np.int64) if header[-1] == "label" else None
    return ids, features.astype(np.float64), labels


@settings(max_examples=200, deadline=None)
@given(csv_file=block_edge_csvs())
def test_block_edges_parse_like_one_pass(tmp_path_factory, csv_file):
    reader, header, rows, blanks = csv_file
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    write_block_edge_csv(path, header, rows, blanks)
    with mock.patch.object(fileio, "_BLOCK_ROWS", BLOCK):
        loaded = CSV_READERS[reader][0](path)
    expected = reference_parse(path, reader)
    if reader == "pseudo_labels":
        assert loaded.sample_ids == expected[0]
        assert np.array_equal(loaded.labels, expected[1])
        assert loaded.labels.shape == expected[1].shape
    elif reader == "labels":
        assert loaded == dict(zip(expected[0], expected[1].tolist()))
    else:
        assert loaded.sample_ids == expected[0]
        assert np.array_equal(loaded.features, expected[1])
        assert loaded.features.shape == expected[1].shape
        if expected[2] is None:
            assert loaded.true_labels is None
        else:
            assert np.array_equal(loaded.true_labels, expected[2])


@settings(max_examples=200, deadline=None)
@given(csv_file=block_edge_csvs().filter(lambda f: f[2]), data_=st.data())
def test_block_edges_bad_value_names_its_start_line(tmp_path_factory, csv_file, data_):
    reader, header, rows, blanks = csv_file
    i = data_.draw(st.integers(0, len(rows) - 1), label="bad row")
    j = data_.draw(st.integers(1, len(header) - 1), label="bad column")
    rows[i][j] = "x"
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    lines = write_block_edge_csv(path, header, rows, blanks)
    with mock.patch.object(fileio, "_BLOCK_ROWS", BLOCK):
        with pytest.raises(ParseError, match=re.escape(f"{path}:{lines[i]}: expected ")):
            CSV_READERS[reader][0](path)


def read_outcome(reader: str, path):
    """What ``reader`` makes of ``path``, as plain data, or its error message."""
    try:
        loaded = CSV_READERS[reader][0](path)
    except ParseError as exc:
        return str(exc)
    if reader == "pseudo_labels":
        return loaded.sample_ids, loaded.labels.tolist()
    if reader == "features":
        labels = None if loaded.true_labels is None else loaded.true_labels.tolist()
        return loaded.sample_ids, loaded.features.tolist(), labels
    return loaded


# Files (read with BLOCK-row blocks) that must read as the csv.reader
# block path alone reads them: case -> (reader, file text, the result, or
# the error after "path:", or None where csv.reader's answer depends on
# the Python version). np.loadtxt refuses the first two values, which
# Python's int() takes, and takes the last two, which int() refuses.
PLAIN_PATH_CASES = {
    "underscore-digits": ("labels", "sample_id,label\na,1_0\n", {"a": 10}),
    "arabic-indic-digit": ("labels", "sample_id,label\na,\u0661\n", {"a": 1}),
    "padded-int": ("labels", "sample_id,label\na, 1\nb,2 \n", {"a": 1, "b": 2}),
    "extra-field": ("labels", "sample_id,label\na,1\nb,2,3\n", "3: expected 2 fields, got 3"),
    "float-in-int-column": ("labels", "sample_id,label\na,1\nb,3.0\n",
                            "3: expected int64, got ['3.0']"),
    "crlf": ("pseudo_labels", "sample_id,teacher_0,teacher_1\r\na,1,0\r\nb,0,1\r\n",
             (["a", "b"], [[1, 0], [0, 1]])),
    "lone-cr": ("pseudo_labels", "sample_id,teacher_0,teacher_1\ra,1,0\rb,0,1\r",
                (["a", "b"], [[1, 0], [0, 1]])),
    "quoted-ids": ("labels", 'sample_id,label\n"a",1\n"b""c",2\n', {"a": 1, 'b"c': 2}),
    "nul-in-id": ("labels", "sample_id,label\na\0b,1\n", None),
    "id-over-field-limit": (
        "labels", "sample_id,label\na,1\n" + "b" * (csv.field_size_limit() + 1) + ",1\n",
        f"3: field larger than field limit ({csv.field_size_limit()})",
    ),
    "blank-line-at-block-edge": (
        "labels", "sample_id,label\na,1\nb,1\nc,1\nd,1\n\ne,1\r\n\r\nf,2\n\n",
        {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 2},
    ),
    "repeated-id-in-plain-block": ("labels", "sample_id,label\na,1\nb,1\na,2\n",
                                   "4: duplicate sample_id 'a'"),
    "repeated-id-across-blocks": ("labels", "sample_id,label\na,1\nb,1\nc,1\nd,1\ne,1\nb,2\n",
                                  "7: duplicate sample_id 'b'"),
    "float32-overflow": ("features", "sample_id,f0,f1,label\na,1e39,0,1\n",
                         "2: expected float32, got ['1e39', '0']"),
    "nan-literal": ("features", "sample_id,f0,f1,label\na,0,nan,1\n", "2: non-finite feature"),
    "U+001C-padded": ("labels", "sample_id,label\na,\x1c1\n", "2: expected int64, got ['\\x1c1']"),
    "U+01FE-digit": ("labels", "sample_id,label\na,\u01fe\n", "2: expected int64, got ['\u01fe']"),
}


@pytest.mark.parametrize("case", sorted(PLAIN_PATH_CASES))
def test_file_reads_as_the_block_path_reads_it(tmp_path, monkeypatch, case):
    reader, text, expected = PLAIN_PATH_CASES[case]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(fileio, "_BLOCK_ROWS", BLOCK)
    outcome = read_outcome(reader, path)
    if expected is not None:
        assert outcome == (f"{path}:{expected}" if isinstance(expected, str) else expected)
    monkeypatch.setattr(fileio.CsvTable, "_append_plain", lambda *args: False)
    assert read_outcome(reader, path) == outcome


def test_file_of_ids_alone_reads(tmp_path):
    # Lines without a comma: no value for loadtxt and no id to cut at one.
    path = tmp_path / "ids.csv"
    path.write_text("sample_id\na\nb\n", encoding="utf-8")
    table = fileio.read_csv(path, lambda header: (["sample_id"], [(slice(1, None), np.int64)]))
    assert table.sample_ids == ["a", "b"]
    assert table.arrays[0].shape == (2, 0)
    assert table.lines.tolist() == [2, 3]


@pytest.mark.parametrize("value", ["3.0", "3e0", "3E0"])
def test_integer_spelled_as_a_float_never_reaches_loadtxt(tmp_path, monkeypatch, value):
    # numpy releases inside the numpy>=1.24 floor parse "3.0" into an
    # integer column with a DeprecationWarning; what a file may hold must
    # not depend on the numpy release, so such a block takes the block path.
    def loadtxt_parsing_ints_via_floats(lines, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.full((len(lines), 1), 3, dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt_parsing_ints_via_floats)
    path = tmp_path / "labels.csv"
    path.write_text(f"sample_id,label\na,3\nb,{value}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: expected int64, got ['{value}']")):
        data.load_labels_csv(path)


def test_loadtxt_never_sees_an_empty_block(tmp_path, monkeypatch):
    # On no lines loadtxt warns "input contained no data": every block it
    # sees holds a row. A blank line sends its block to csv.reader.
    seen_lines = []
    loadtxt = np.loadtxt

    def counting_loadtxt(lines, *args, **kwargs):
        seen_lines.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    monkeypatch.setattr(fileio, "_BLOCK_ROWS", BLOCK)
    path = tmp_path / "labels.csv"
    rows = {f"s{i}": i for i in range(2 * BLOCK)}
    for body, expected in [
        ("", {}),
        ("\n\n", {}),
        ("".join(f"{sid},{label}\n" for sid, label in rows.items()), rows),
        ("".join(f"{sid},{label}\n\n" for sid, label in rows.items()), rows),
    ]:
        path.write_text("sample_id,label\n" + body, encoding="utf-8")
        assert data.load_labels_csv(path) == expected
    assert seen_lines == [BLOCK] * 2


def test_read_holds_no_run_of_blank_lines(tmp_path, monkeypatch):
    """What a read allocates and frees again does not grow with a run of
    blank lines: csv.reader drops each as it reads it."""
    monkeypatch.setattr(fileio, "_BLOCK_ROWS", 64)

    def transient(blank: int) -> int:
        path = tmp_path / f"{blank}.csv"
        path.write_bytes(b"sample_id,label\r\na,1\r\n" + b"\r\n" * blank + b"b,2\r\n")
        tracemalloc.start()
        try:
            labels = data.load_labels_csv(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels == {"a": 1, "b": 2}
        return peak - retained

    assert transient(20_000) < 1.5 * transient(10_000)


def test_read_holds_one_block_of_rows(tmp_path, monkeypatch):
    """What a read allocates and frees again (its tracemalloc peak minus what
    the result keeps) is one block of string rows, whatever the row count.
    The rows are wide (64 two-digit labels, about 3.5 kB as strings): the
    one per-row cost a read holds until it returns, the set of ids seen,
    is a few dozen bytes a row."""
    monkeypatch.setattr(fileio, "_BLOCK_ROWS", 64)

    def transient(n: int) -> int:
        path = tmp_path / f"{n}.csv"
        labels = 10 + np.arange(n * 64).reshape(n, 64) % 90
        matrix = rd.PseudoLabelMatrix([f"s{i}" for i in range(n)], labels, 100)
        consensus.write_matrix_csv(matrix, path)
        tracemalloc.start()
        try:
            matrix = consensus.read_matrix_csv(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.n == n
        return peak - retained

    assert transient(1024) < 1.5 * transient(512)
