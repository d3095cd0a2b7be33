import math

import numpy as np
import pytest

import relidistill as rd
from relidistill.data import load_labels_csv, save_class_vocab
from relidistill.errors import ConfigError, DataError, ParseError
from relidistill.student import init_optimizer, init_student, loss_and_grads, optimizer_step


class TestFeatureIO:
    def test_csv_round_trip(self, tmp_path):
        ds = rd.FeatureDataset(
            ["a", "b", "c"],
            np.array([[1.25, -2.0], [0.5, 3.5], [0.0, 1.0]]),
            np.array([0, 1, 0]),
        )
        path = tmp_path / "f.csv"
        rd.save_features_csv(ds, path)
        loaded = rd.load_features(path)
        assert loaded.sample_ids == ds.sample_ids
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.true_labels, ds.true_labels)

    def test_blobs_csv_round_trip(self, tmp_path):
        ds = rd.make_blobs(40, 3, 5, 0.7, seed=4)
        rd.save_features_csv(ds, tmp_path / "f.csv")
        loaded = rd.load_features(tmp_path / "f.csv")
        assert loaded.sample_ids == ds.sample_ids
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.true_labels, ds.true_labels)

    def test_csv_bad_rows(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("sample_id,f0,f1\na,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            rd.load_features(path)
        path.write_text("sample_id,f0\na,nan\n", encoding="utf-8")
        with pytest.raises(ParseError):
            rd.load_features(path)
        path.write_text("id,f0\na,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            rd.load_features(path)

    def test_vocab_file(self, tmp_path):
        vocab = rd.ClassVocab(["alarm clock", "kettle"])
        path = tmp_path / "vocab.txt"
        save_class_vocab(vocab, path)
        assert rd.load_class_vocab(path).names == vocab.names

    def test_vocab_blank_line_rejected(self, tmp_path):
        # Skipping the blank line would renumber "kettle" from class 2 to 1.
        path = tmp_path / "vocab.txt"
        path.write_text("car\n\nkettle\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            rd.load_class_vocab(path)

    def test_labels_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,label\na,2\nb,0\n", encoding="utf-8")
        assert load_labels_csv(path) == {"a": 2, "b": 0}

    def test_labels_csv_duplicate_id(self, tmp_path):
        # The last of the two rows used to win without a word.
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,label\na,1\na,0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3: duplicate sample_id 'a'"):
            load_labels_csv(path)


class TestMakeBlobs:
    def test_deterministic(self):
        a = rd.make_blobs(100, 4, 8, 0.1, seed=5)
        b = rd.make_blobs(100, 4, 8, 0.1, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.true_labels, b.true_labels)
        assert a.sample_ids == b.sample_ids

    def test_tiny_spread_nearest_center_perfect(self):
        ds = rd.make_blobs(200, 4, 8, 1e-6, seed=3)
        centers = np.stack(
            [ds.features[ds.true_labels == c].mean(axis=0) for c in range(4)]
        )
        dists = ((ds.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assert np.array_equal(dists.argmin(axis=1), ds.true_labels)

    def test_balanced_classes(self):
        ds = rd.make_blobs(103, 4, 6, 0.5, seed=1)
        counts = np.bincount(ds.true_labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            rd.make_blobs(3, 4, 8, 0.5, seed=0)
        with pytest.raises(ConfigError):
            rd.make_blobs(10, 4, 8, 0.0, seed=0)

    def test_linearly_separable_at_unit_spread(self):
        # Oracle: the student optimizer itself, trained on true labels.
        # Frozen fixture run: seed 7 reaches ~0.956 train accuracy.
        ds = rd.make_blobs(5000, 10, 16, 1.0, seed=7)
        model = init_student([16, 10], seed=11)
        opt = init_optimizer(model, 1e-3)
        rng = np.random.default_rng(0)
        done = 0
        while done < 500:
            order = rng.permutation(ds.n)
            for start in range(0, ds.n, 128):
                if done >= 500:
                    break
                batch = order[start : start + 128]
                _, grads = loss_and_grads(model, ds.features[batch], ds.true_labels[batch])
                optimizer_step(model, opt, grads)
                done += 1
        _, pred = rd.confidence(model, ds.features)
        assert float(np.mean(pred == ds.true_labels)) > 0.9


class TestSimulateTeachers:
    def test_perfect_teachers_unanimous(self, small_blobs):
        specs = [rd.SimTeacherSpec(1.0, seed=2) for _ in range(3)]
        pl = rd.simulate_teachers(small_blobs, specs, n_classes=4)
        part = rd.partition(pl)
        assert part.counts()["R"] == small_blobs.n
        assert np.array_equal(pl.labels[:, 0], small_blobs.true_labels)

    def test_zero_accuracy_pairwise_collision_rate(self):
        ds = rd.make_blobs(4000, 21, 4, 0.5, seed=9)
        specs = [rd.SimTeacherSpec(0.0, "uniform-error", 0.0, seed=9) for _ in range(2)]
        pl = rd.simulate_teachers(ds, specs, n_classes=21)
        agree = float(np.mean(pl.labels[:, 0] == pl.labels[:, 1]))
        p = 1.0 / 20.0
        sigma = np.sqrt(p * (1 - p) / ds.n)
        assert abs(agree - p) <= 3 * sigma

    def test_full_correlation_copies_reference(self, small_blobs):
        specs = [
            rd.SimTeacherSpec(0.6, seed=4),
            rd.SimTeacherSpec(0.9, correlation=1.0, seed=4),
        ]
        pl = rd.simulate_teachers(small_blobs, specs, n_classes=4)
        assert np.array_equal(pl.labels[:, 0], pl.labels[:, 1])

    def test_empirical_accuracy_within_3_sigma(self):
        ds = rd.make_blobs(2500, 5, 4, 0.5, seed=8)
        for target in (0.55, 0.8):
            specs = [
                rd.SimTeacherSpec(target, seed=8),
                rd.SimTeacherSpec(target, "adjacent-class", seed=8),
            ]
            pl = rd.simulate_teachers(ds, specs, n_classes=5)
            sigma = np.sqrt(target * (1 - target) / ds.n)
            for t in range(2):
                acc = float(np.mean(pl.labels[:, t] == ds.true_labels))
                assert abs(acc - target) <= 3 * sigma

    def test_requires_true_labels(self):
        ds = rd.FeatureDataset(["a", "b"], np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            rd.simulate_teachers(ds, [rd.SimTeacherSpec(0.5), rd.SimTeacherSpec(0.5)], 2)

    def test_reference_must_be_uncorrelated(self, small_blobs):
        specs = [rd.SimTeacherSpec(0.5, correlation=0.5), rd.SimTeacherSpec(0.5)]
        with pytest.raises(ConfigError):
            rd.simulate_teachers(small_blobs, specs, n_classes=4)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            rd.SimTeacherSpec(1.5)
        with pytest.raises(ConfigError):
            rd.SimTeacherSpec(0.5, confusion="typo")


TWO_SAMPLES = rd.FeatureDataset(["a", "b"], np.zeros((2, 3)), np.array([0, 2]))

# Checks no other test reaches: (call, the exception it raises, that
# exception's message).
ARGUMENT_CHECKS = [
    pytest.param(lambda: rd.FeatureDataset(["a"], np.zeros(3)), DataError,
                 "features must be an (N, d) matrix with d >= 1", id="features-1d"),
    pytest.param(lambda: rd.FeatureDataset(["a"], np.zeros((1, 0))), DataError,
                 "features must be an (N, d) matrix with d >= 1", id="features-no-column"),
    pytest.param(lambda: rd.FeatureDataset(["a"], np.zeros((2, 3))), DataError,
                 "sample ids and feature rows differ in length", id="features-ids-length"),
    pytest.param(lambda: rd.FeatureDataset(["a", "a"], np.zeros((2, 3))), DataError,
                 "duplicate sample ids", id="features-duplicate-id"),
    pytest.param(lambda: rd.FeatureDataset(["a"], [[0.0, np.inf]]), DataError,
                 "features contain non-finite values", id="features-non-finite"),
    pytest.param(lambda: rd.FeatureDataset(["a", "b"], np.zeros((2, 3)), [0]), DataError,
                 "true labels must align with samples", id="labels-length"),
    pytest.param(lambda: rd.FeatureDataset(["a", "b"], np.zeros((2, 3)), [0, -1]), DataError,
                 "true labels must be non-negative", id="labels-negative"),
    pytest.param(lambda: rd.make_blobs(10, 1, 2, 0.5, seed=0), ConfigError,
                 "n_classes must be at least 2, got 1", id="blobs-one-class"),
    # These raised numpy's AxisError and a TypeError, and a bool seed ran seed 1.
    pytest.param(lambda: rd.make_blobs(10.5, 2, 2, 0.5, seed=0), ConfigError,
                 "n_samples must be an integer, got 10.5", id="blobs-fractional-samples"),
    pytest.param(lambda: rd.make_blobs(10, 2, 2.0, 0.5, seed=0), ConfigError,
                 "dim must be an integer, got 2.0", id="blobs-float-dim"),
    pytest.param(lambda: rd.make_blobs(10, 2, 2, 0.5, seed=True), ConfigError,
                 "seed must be an integer, got True", id="blobs-bool-seed"),
    pytest.param(lambda: rd.make_blobs(1, 2, 2, 0.5, seed=0), ConfigError,
                 "n_samples must be at least 2, got 1", id="blobs-fewer-samples-than-classes"),
    # Both said "features do not fit float32".
    pytest.param(lambda: rd.make_blobs(10, 2, 2, math.nan, seed=0), ConfigError,
                 "spread must be positive and finite", id="blobs-spread-nan"),
    pytest.param(lambda: rd.make_blobs(10, 2, 2, math.inf, seed=0), ConfigError,
                 "spread must be positive and finite", id="blobs-spread-inf"),
    pytest.param(lambda: rd.SimTeacherSpec(0.5, correlation=1.5), ConfigError,
                 "correlation must lie in [0, 1]", id="spec-correlation-above-1"),
    pytest.param(lambda: rd.SimTeacherSpec(0.5, correlation=-0.5), ConfigError,
                 "correlation must lie in [0, 1]", id="spec-correlation-below-0"),
    pytest.param(lambda: rd.simulate_teachers(TWO_SAMPLES, [rd.SimTeacherSpec(0.5)], 3),
                 ConfigError, "need at least 2 teacher specs", id="simulate-one-spec"),
    # 2.5 gave a matrix of n_classes 2.5 holding label 2; 1 raised numpy's
    # "low >= high"; a fractional seed simulated its floor.
    pytest.param(lambda: rd.simulate_teachers(TWO_SAMPLES, [rd.SimTeacherSpec(0.5)] * 2, 2.5),
                 ConfigError, "n_classes must be an integer, got 2.5",
                 id="simulate-fractional-classes"),
    pytest.param(lambda: rd.simulate_teachers(TWO_SAMPLES, [rd.SimTeacherSpec(0.5)] * 2, 1),
                 ConfigError, "n_classes must be at least 2, got 1", id="simulate-one-class"),
    pytest.param(lambda: rd.SimTeacherSpec(0.7, seed=1.5), ConfigError,
                 "seed must be an integer, got 1.5", id="spec-fractional-seed"),
    pytest.param(
        lambda: rd.simulate_teachers(TWO_SAMPLES, [rd.SimTeacherSpec(0.5)] * 2, 2),
        DataError, "true labels exceed the class count", id="simulate-label-beyond-classes",
    ),
]


@pytest.mark.parametrize("call, error, message", ARGUMENT_CHECKS)
def test_argument_checks(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
