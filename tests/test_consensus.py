import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relidistill as rd
from relidistill.consensus import (
    TAG_LESS_RELIABLE,
    TAG_RELIABLE,
    TAG_UNRELIABLE,
    read_matrix_csv,
    write_matrix_csv,
    write_partition_csv,
)
from relidistill.errors import ConfigError, DataError, InvalidRowError, ParseError
from relidistill.seeding import ENSEMBLE, MODE_TIE, derive_rng


def brute_force_agreement(row) -> int:
    count = 0
    for m in range(len(row)):
        for n in range(len(row)):
            if m != n and row[m] == row[n]:
                count += 1
    return count


label_rows = st.lists(st.integers(0, 11), min_size=2, max_size=5)


@st.composite
def label_matrices(draw):
    """Fully labeled matrices: 2-6 teachers, 2-12 classes, 1-30 samples."""
    m = draw(st.integers(2, 6))
    c = draw(st.integers(2, 12))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, c - 1), min_size=m, max_size=m), min_size=1, max_size=30
        )
    )
    return rd.PseudoLabelMatrix([f"s{i}" for i in range(len(rows))], np.array(rows), c)


class TestReliability:
    @pytest.mark.parametrize(
        "row,expected",
        [([4, 4, 4], 1.0), ([4, 4, 7], 1 / 3), ([1, 2, 3], 0.0), ([1, 1, 2, 2], 1 / 3)],
    )
    def test_known_values(self, row, expected):
        matrix = rd.PseudoLabelMatrix(["s0"], np.array([row]), max(row) + 1)
        assert rd.partition(matrix).scores[0] == pytest.approx(expected, abs=1e-12)

    def test_requires_two_teachers(self):
        with pytest.raises(ConfigError):
            rd.agreement_count([3])

    def test_rejects_unlabeled(self):
        with pytest.raises(InvalidRowError):
            rd.agreement_count([1, -1, 2])

    @settings(max_examples=300, deadline=None)
    @given(label_rows)
    def test_matches_brute_force(self, row):
        assert rd.agreement_count(row) == brute_force_agreement(row)

    @settings(max_examples=200, deadline=None)
    @given(label_rows, st.randoms())
    def test_permutation_invariant(self, row, pyrandom):
        shuffled = list(row)
        pyrandom.shuffle(shuffled)
        assert rd.agreement_count(row) == rd.agreement_count(shuffled)


class TestPartition:
    def test_example_rows(self):
        matrix = rd.PseudoLabelMatrix(
            ["a", "b", "c"], np.array([[4, 4, 4], [4, 4, 7], [1, 2, 3]]), 8
        )
        part = rd.partition(matrix)
        assert list(part.tags) == [TAG_RELIABLE, TAG_LESS_RELIABLE, TAG_UNRELIABLE]
        assert part.scores == pytest.approx([1.0, 1 / 3, 0.0])

    def test_all_unanimous(self):
        matrix = rd.PseudoLabelMatrix(
            [f"s{i}" for i in range(5)], np.full((5, 3), 2), 4
        )
        part = rd.partition(matrix)
        assert part.counts() == {TAG_RELIABLE: 5, TAG_LESS_RELIABLE: 0, TAG_UNRELIABLE: 0}

    def test_two_teachers_never_lr(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=(50, 2))
        matrix = rd.PseudoLabelMatrix([f"s{i}" for i in range(50)], labels, 4)
        part = rd.partition(matrix)
        assert TAG_LESS_RELIABLE not in set(part.tags)

    def test_tags_disjoint_and_cover(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=(200, 4))
        matrix = rd.PseudoLabelMatrix([f"s{i}" for i in range(200)], labels, 3)
        part = rd.partition(matrix)
        assert sum(part.counts().values()) == 200

    def test_stable_under_class_relabeling(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 6, size=(100, 3))
        bijection = rng.permutation(6)
        a = rd.partition(rd.PseudoLabelMatrix([f"s{i}" for i in range(100)], labels, 6))
        b = rd.partition(
            rd.PseudoLabelMatrix([f"s{i}" for i in range(100)], bijection[labels], 6)
        )
        assert np.array_equal(a.tags, b.tags)
        assert np.array_equal(a.scores, b.scores)


class TestModeLabel:
    def test_strict_majority(self):
        rng = derive_rng(42, MODE_TIE, 0)
        state = rng.bit_generator.state
        assert rd.mode_label([4, 4, 7], rng) == 4
        assert rng.bit_generator.state == state

    def test_single_entry(self):
        assert rd.mode_label([5], derive_rng(42, MODE_TIE, 0)) == 5

    def test_tie_seeded_and_in_tied_set(self):
        rng1 = derive_rng(42, MODE_TIE, 0)
        rng2 = derive_rng(42, MODE_TIE, 0)
        a = rd.mode_label([3, 7, 7, 3], rng=rng1)
        b = rd.mode_label([3, 7, 7, 3], rng=rng2)
        assert a == b
        assert a in (3, 7)

    def test_empty_row(self):
        with pytest.raises(InvalidRowError):
            rd.mode_label([], derive_rng(42, MODE_TIE, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=7), st.integers(0, 2**32 - 1))
    def test_mode_has_maximal_frequency(self, row, seed):
        winner = rd.mode_label(row, rng=derive_rng(seed, MODE_TIE, 0))
        counts = {v: row.count(v) for v in set(row)}
        assert counts[winner] == max(counts.values())

    def test_mode_labels_keyed_per_row(self):
        labels = np.array([[3, 7], [3, 7], [3, 7], [3, 7]])
        matrix = rd.PseudoLabelMatrix(["a", "b", "c", "d"], labels, 8)
        first = rd.mode_labels(matrix, seed=11)
        second = rd.mode_labels(matrix, seed=11)
        assert np.array_equal(first, second)
        # identical rows may still break ties differently: per-row streams
        assert set(first) <= {3, 7}


class TestMultiHotMask:
    def test_union(self):
        mask = rd.multi_hot_mask([2, 5, 5], 8)
        assert np.array_equal(np.flatnonzero(mask), [2, 5])
        assert mask.sum() == 2

    def test_unanimous_single_bit(self):
        mask = rd.multi_hot_mask([3, 3, 3], 4)
        assert np.array_equal(mask, [False, False, False, True])

    def test_full_cover(self):
        assert rd.multi_hot_mask([0, 1, 2], 3).all()

    def test_out_of_range(self):
        with pytest.raises(DataError):
            rd.multi_hot_mask([0, 5], 4)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=6))
    def test_popcount_equals_distinct(self, row):
        assert rd.multi_hot_mask(row, 8).sum() == len(set(row))


class TestMatrixPlumbing:
    def test_unlabeled_entry_rejected_at_construction(self):
        # Every teacher labeled every sample: a matrix cannot hold -1.
        with pytest.raises(DataError, match=r"0\.\.C-1"):
            rd.PseudoLabelMatrix(["a"], np.array([[1, -1, 2]]), 4)

    def test_matrix_validation(self):
        with pytest.raises(DataError):
            rd.PseudoLabelMatrix(["a"], np.array([[1]]), 3)  # one teacher
        with pytest.raises(DataError):
            rd.PseudoLabelMatrix(["a"], np.array([[1, 5]]), 3)  # out of range
        with pytest.raises(DataError):
            rd.PseudoLabelMatrix(["a", "a"], np.array([[1, 2], [0, 1]]), 3)

    def test_matrix_csv_round_trip(self, tmp_path):
        labels = np.array([[1, 2, 0], [0, 0, 2]])
        matrix = rd.PseudoLabelMatrix(["s0", "s1"], labels, 3)
        path = tmp_path / "pl.csv"
        write_matrix_csv(matrix, path)
        loaded = read_matrix_csv(path, n_classes=3)
        assert loaded.sample_ids == matrix.sample_ids
        assert np.array_equal(loaded.labels, matrix.labels)
        assert path.read_text().splitlines()[0] == "sample_id,teacher_0,teacher_1,teacher_2"
        # -1 is not part of the format: the read names the row's line.
        path.write_text(path.read_text().replace("0,0,2", "0,0,-1"), encoding="utf-8")
        with pytest.raises(ParseError, match=r":3: labels must lie in 0\.\.2, got \[0, 0, -1\]"):
            read_matrix_csv(path, n_classes=3)

    def test_matrix_csv_bad_header(self, tmp_path):
        path = tmp_path / "pl.csv"
        path.write_text("sample,teacher_0\ns0,1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_matrix_csv(path)

    def test_partition_csv(self, tmp_path):
        matrix = rd.PseudoLabelMatrix(
            ["a", "b"], np.array([[1, 1, 1], [0, 1, 2]]), 3
        )
        part = rd.partition(matrix)
        path = tmp_path / "part.csv"
        write_partition_csv(part, matrix.sample_ids, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,score,tag"
        assert lines[1] == "a,1.0,R"
        assert lines[2] == "b,0.0,UR"


class TestMatrixCallsMatchRowOracles:
    """Each whole-matrix call equals the per-row function applied row by row."""

    @settings(max_examples=200, deadline=None)
    @given(label_matrices())
    def test_agreement_count(self, matrix):
        counts = rd.agreement_count(matrix.labels)
        assert counts.tolist() == [rd.agreement_count(row) for row in matrix.labels]
        assert isinstance(rd.agreement_count(matrix.labels[0]), int)

    @settings(max_examples=200, deadline=None)
    @given(label_matrices())
    def test_partition(self, matrix):
        part = rd.partition(matrix)
        full = matrix.m * (matrix.m - 1)
        for i, row in enumerate(matrix.labels):
            count = rd.agreement_count(row)
            tag = {full: TAG_RELIABLE, 0: TAG_UNRELIABLE}.get(count, TAG_LESS_RELIABLE)
            assert part.scores[i] == count / full
            assert part.tags[i] == tag

    @settings(max_examples=200, deadline=None)
    @given(label_matrices())
    def test_multi_hot_masks(self, matrix):
        expected = np.stack([rd.multi_hot_mask(row, matrix.n_classes) for row in matrix.labels])
        assert np.array_equal(rd.multi_hot_masks(matrix), expected)

    @settings(max_examples=200, deadline=None)
    @given(
        label_matrices(),
        st.integers(0, 2**32 - 1),
        st.sampled_from([MODE_TIE, ENSEMBLE]),
    )
    def test_mode_labels(self, matrix, seed, purpose):
        expected = [
            rd.mode_label(row, rng=derive_rng(seed, purpose, i))
            for i, row in enumerate(matrix.labels)
        ]
        got = rd.mode_labels(matrix, seed, purpose=purpose)
        assert got.tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(label_matrices(), st.integers(0, 2**32 - 1), st.data())
    def test_mode_labels_on_rows(self, matrix, seed, data):
        # Empty, unsorted and repeated selections alike: a row's mode,
        # tie-break included, is keyed by its index in the matrix.
        rows = np.array(
            data.draw(st.lists(st.integers(0, matrix.n - 1), max_size=2 * matrix.n)),
            dtype=np.int64,
        )
        full = rd.mode_labels(matrix, seed)
        got = rd.mode_labels(matrix, seed, rows=rows)
        assert got.dtype == full.dtype
        assert got.tobytes() == full[rows].tobytes()


TWO_CLASS_MATRIX = rd.PseudoLabelMatrix(["a", "b", "c"], np.array([[0, 0], [0, 1], [1, 1]]), 2)

# Checks no other test reaches: (call given a scratch directory, the
# exception it raises, that exception's message).
ARGUMENT_CHECKS = [
    pytest.param(
        lambda tmp: rd.PseudoLabelMatrix(["a"], np.zeros((2, 2)), 3),
        DataError, "labels must be an (N, M) matrix aligned with sample_ids",
        id="matrix-rows-not-aligned",
    ),
    pytest.param(
        lambda tmp: rd.PseudoLabelMatrix(["a"], np.zeros((1, 2)), 1),
        ConfigError, "need at least 2 classes", id="matrix-one-class",
    ),
    pytest.param(
        lambda tmp: rd.mode_labels(TWO_CLASS_MATRIX, 1, rows=np.array([0, 3])),
        ConfigError, "row indices must lie in 0..2", id="mode-labels-row-past-end",
    ),
    pytest.param(
        lambda tmp: rd.mode_labels(TWO_CLASS_MATRIX, 1, rows=np.array([-1])),
        ConfigError, "row indices must lie in 0..2", id="mode-labels-row-negative",
    ),
    pytest.param(
        lambda tmp: rd.mode_labels(TWO_CLASS_MATRIX, 1, rows=np.array([True, False, True])),
        ConfigError, "rows must be a 1-D array of row indices", id="mode-labels-row-mask",
    ),
    pytest.param(
        lambda tmp: rd.mode_labels(TWO_CLASS_MATRIX, 1, rows=np.zeros((1, 2), np.int64)),
        ConfigError, "rows must be a 1-D array of row indices", id="mode-labels-rows-2-d",
    ),
    pytest.param(
        lambda tmp: rd.partition(TWO_CLASS_MATRIX).indices("X"),
        ConfigError, "unknown tag 'X'", id="partition-unknown-tag",
    ),
    pytest.param(
        lambda tmp: write_partition_csv(rd.partition(TWO_CLASS_MATRIX), ["a", "b"], tmp / "p.csv"),
        DataError, "sample ids and partition length differ", id="partition-csv-length",
    ),
]


@pytest.mark.parametrize("call, error, message", ARGUMENT_CHECKS)
def test_argument_checks(call, error, message, tmp_path):
    with pytest.raises(error) as excinfo:
        call(tmp_path)
    assert str(excinfo.value) == message
    assert not list(tmp_path.iterdir())
