import json

import numpy as np
import pytest

import relidistill as rd
from relidistill.errors import DataError


class TestAccuracy:
    def test_identical(self):
        assert rd.accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert rd.accuracy([1, 2], [3, 4]) == 0.0

    def test_two_thirds(self):
        assert rd.accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            rd.accuracy([1], [1, 2])
        with pytest.raises(DataError):
            rd.accuracy([], [])


class TestEnsembleBaseline:
    def _matrix(self, labels, c):
        return rd.PseudoLabelMatrix([f"s{i}" for i in range(len(labels))], np.asarray(labels), c)

    def test_all_correct(self):
        pl = self._matrix(np.full((10, 3), 2), 4)
        assert rd.ensemble_baseline(pl, np.full(10, 2), seed=0) == 1.0

    def test_strict_majority_correct(self):
        truth = np.arange(4) % 3
        labels = np.stack([truth, truth, (truth + 1) % 3], axis=1)
        pl = self._matrix(labels, 3)
        assert rd.ensemble_baseline(pl, truth, seed=0) == 1.0

    def test_fair_coin_on_two_way_tie(self):
        n = 2000
        truth = np.zeros(n, dtype=np.int64)
        labels = np.stack([truth, truth + 1], axis=1)  # one right, one wrong
        pl = self._matrix(labels, 3)
        acc = rd.ensemble_baseline(pl, truth, seed=5)
        sigma = np.sqrt(0.25 / n)
        assert abs(acc - 0.5) <= 3 * sigma

    def test_seeded_determinism(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=(100, 3))
        pl = self._matrix(labels, 4)
        truth = rng.integers(0, 4, size=100)
        assert rd.ensemble_baseline(pl, truth, seed=9) == rd.ensemble_baseline(
            pl, truth, seed=9
        )


class TestReliabilityReport:
    def test_perfect_teachers_single_bin(self):
        pl = rd.PseudoLabelMatrix(["a", "b"], np.full((2, 3), 1), 3)
        part = rd.partition(pl)
        report = rd.reliability_report(pl, part, np.array([1, 1]), seed=0)
        assert len(report.bins) == 1
        assert report.bins[0].score == 1.0
        assert report.bins[0].majority_accuracy == 1.0
        assert report.bins[0].per_teacher_accuracy is None

    def test_zero_bin_reports_per_teacher(self):
        truth = np.arange(12) % 4
        labels = np.stack([truth, (truth + 1) % 4, (truth + 2) % 4], axis=1)
        pl = rd.PseudoLabelMatrix([f"s{i}" for i in range(12)], labels, 4)
        part = rd.partition(pl)
        report = rd.reliability_report(pl, part, truth, seed=0)
        assert len(report.bins) == 1
        bin0 = report.bins[0]
        assert bin0.score == 0.0
        assert bin0.majority_accuracy is None
        assert bin0.per_teacher_accuracy == [1.0, 0.0, 0.0]

    def test_bin_counts_cover_all_samples(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 5, size=(300, 4))
        pl = rd.PseudoLabelMatrix([f"s{i}" for i in range(300)], labels, 5)
        part = rd.partition(pl)
        report = rd.reliability_report(pl, part, rng.integers(0, 5, size=300), seed=0)
        assert sum(b.n_samples for b in report.bins) == 300

    def test_monotone_trend_on_independent_teachers(self, small_teacher_setup):
        ds, pl = small_teacher_setup
        part = rd.partition(pl)
        report = rd.reliability_report(pl, part, ds.true_labels, seed=1)
        voted = [b for b in report.bins if b.majority_accuracy is not None]
        voted.sort(key=lambda b: b.score)
        accs = [b.majority_accuracy for b in voted]
        assert accs == sorted(accs)

    def test_json_and_table_rendering(self, small_teacher_setup):
        ds, pl = small_teacher_setup
        part = rd.partition(pl)
        report = rd.reliability_report(pl, part, ds.true_labels, seed=1)
        parsed = json.loads(report.to_json())
        assert parsed["n_samples"] == pl.n
        table = report.to_text_table()
        lines = table.splitlines()
        assert lines[0].startswith("score")
        assert len(lines) == len(report.bins) + 1


THREE_SAMPLES = rd.PseudoLabelMatrix(["a", "b", "c"], np.array([[0, 0], [0, 1], [1, 1]]), 2)

# Checks no other test reaches: (call, the exception it raises, that
# exception's message).
ARGUMENT_CHECKS = [
    pytest.param(lambda: rd.ensemble_baseline(THREE_SAMPLES, [0, 1], seed=0), DataError,
                 "truths must align with the pseudo-label matrix", id="ensemble-truths"),
    pytest.param(
        lambda: rd.reliability_report(
            THREE_SAMPLES, rd.partition(THREE_SAMPLES), [[0, 1, 1]], seed=0
        ),
        DataError, "truths must align with the pseudo-label matrix", id="report-truths",
    ),
    pytest.param(
        lambda: rd.reliability_report(
            THREE_SAMPLES, rd.ReliabilityPartition(np.ones(2), np.array(["R", "R"])), [0, 1, 1],
            seed=0,
        ),
        DataError, "partition must align with the pseudo-label matrix", id="report-partition",
    ),
]


@pytest.mark.parametrize("call, error, message", ARGUMENT_CHECKS)
def test_argument_checks(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
