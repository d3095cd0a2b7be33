import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relidistill as rd
from relidistill.errors import ConfigError, ParseError, ShapeMismatchError
from relidistill.student import PROB_FLOOR, loss_and_grads


def finite_difference_grads(model, X, labels, h=1e-4):
    """Central differences on the full loss; the backward-pass oracle."""

    def loss():
        return rd.cross_entropy(rd.predict_proba(model, X), labels)

    grads = []
    for layer in range(len(model.weights)):
        layer_grads = []
        for params in (model.weights[layer], model.biases[layer]):
            grad = np.zeros_like(params)
            it = np.nditer(params, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = params[idx]
                params[idx] = orig + h
                up = loss()
                params[idx] = orig - h
                down = loss()
                params[idx] = orig
                grad[idx] = (up - down) / (2 * h)
            layer_grads.append(grad)
        grads.append(tuple(layer_grads))
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestForward:
    def test_zero_model_uniform(self):
        model = rd.StudentModel([3, 4], [np.zeros((3, 4))], [np.zeros(4)])
        probs = rd.predict_proba(model, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        model = rd.init_student([6, 9, 4], seed=3)
        probs = rd.predict_proba(model, np.random.default_rng(1).normal(size=(8, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_logit_shift_invariance(self):
        logits = np.random.default_rng(2).normal(size=(4, 5))
        shifted = logits + 17.3
        assert np.max(np.abs(rd.softmax(logits) - rd.softmax(shifted))) < 1e-9

    def test_identity_weight_argmax(self):
        d = 4
        model = rd.StudentModel([d, d], [np.eye(d)], [np.zeros(d)])
        x = np.zeros(d)
        x[2] = 10.0
        probs = rd.predict_proba(model, x)
        assert probs[0].argmax() == 2

    def test_shape_mismatch(self):
        model = rd.init_student([3, 2], seed=0)
        with pytest.raises(ShapeMismatchError):
            rd.forward(model, np.zeros((2, 5)))

    def test_bitwise_repeatable(self):
        model = rd.init_student([5, 7, 3], seed=9)
        X = np.random.default_rng(4).normal(size=(6, 5))
        assert np.array_equal(rd.forward(model, X), rd.forward(model, X))


class TestCrossEntropy:
    def test_half_probability(self):
        loss = rd.cross_entropy(np.array([[0.25, 0.5, 0.25]]), [1])
        assert abs(loss - 0.6931) < 1e-4

    def test_one_hot_correct_zero(self):
        probs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert rd.cross_entropy(probs, [1, 0]) == 0.0

    def test_uniform_is_log_c(self):
        probs = np.full((3, 7), 1 / 7)
        assert rd.cross_entropy(probs, [0, 3, 6]) == pytest.approx(math.log(7))

    def test_label_out_of_range(self):
        with pytest.raises(ConfigError):
            rd.cross_entropy(np.full((1, 3), 1 / 3), [3])

    def test_clamps_zero_probability(self):
        probs = np.array([[1.0, 0.0]])
        assert rd.cross_entropy(probs, [1]) == pytest.approx(-math.log(PROB_FLOOR))


class TestBackward:
    # Seeds chosen so no hidden pre-activation sits within h of the
    # rectifier kink, where central differences are invalid.
    @pytest.mark.parametrize(
        "dims,seed",
        [([5, 8, 3], 0), ([4, 2], 1), ([6, 5, 4, 3], 2), ([5, 7, 6, 4, 3], 7)],
    )
    def test_matches_finite_differences(self, dims, seed):
        model = rd.init_student(dims, seed=seed)
        rng = np.random.default_rng(seed + 50)
        X = rng.normal(size=(8, dims[0]))
        labels = rng.integers(0, dims[-1], 8)
        analytic = rd.backward(model, X, labels)
        numeric = finite_difference_grads(model, X, labels)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_saturated_correct_labels_zero_gradient(self):
        d = 3
        model = rd.StudentModel([d, d], [np.eye(d) * 50.0], [np.zeros(d)])
        X = np.eye(d)  # feeds 50 to its own logit
        labels = np.arange(d)  # argmax everywhere, saturated
        grads = rd.backward(model, X, labels)
        total = sum(float(np.abs(g).sum()) for gw, gb in grads for g in (gw, gb))
        assert total < 1e-6

    def test_duplicated_batch_same_mean_gradient(self):
        model = rd.init_student([4, 6, 3], seed=5)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, 5)
        once = rd.backward(model, X, labels)
        twice = rd.backward(model, np.vstack([X, X]), np.concatenate([labels, labels]))
        for (aw, ab), (bw, bb) in zip(once, twice):
            assert np.max(np.abs(aw - bw)) < 1e-9
            assert np.max(np.abs(ab - bb)) < 1e-9


class TestOptimizer:
    def test_zero_gradient_no_change(self):
        model = rd.init_student([3, 2], seed=7)
        before = [w.copy() for w in model.weights]
        state = rd.init_optimizer(model, 0.05)
        zeros = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(model.weights, model.biases)]
        rd.optimizer_step(model, state, zeros)
        for w, orig in zip(model.weights, before):
            assert np.array_equal(w, orig)

    def test_first_step_magnitude_is_learning_rate(self):
        # One parameter, quadratic objective: step = lr * sign(gradient).
        model = rd.StudentModel([1, 1], [np.array([[2.0]])], [np.array([0.0])])
        state = rd.init_optimizer(model, 0.1)
        rd.optimizer_step(model, state, [(np.array([[1.5]]), np.array([0.0]))])
        assert model.weights[0][0, 0] == pytest.approx(2.0 - 0.1, abs=1e-7)

    def test_deterministic_runs(self):
        def train():
            model = rd.init_student([4, 5, 2], seed=3)
            state = rd.init_optimizer(model, 1e-3)
            rng = np.random.default_rng(11)
            for _ in range(20):
                X = rng.normal(size=(6, 4))
                y = rng.integers(0, 2, 6)
                _, grads = loss_and_grads(model, X, y)
                rd.optimizer_step(model, state, grads)
            return model

        a, b = train(), train()
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shape_mismatch(self):
        model = rd.init_student([3, 2], seed=0)
        state = rd.init_optimizer(model, 1e-3)
        with pytest.raises(ShapeMismatchError):
            rd.optimizer_step(model, state, [(np.zeros((2, 2)), np.zeros(2))])


class TestAugment:
    def test_identity_when_disabled(self):
        X = np.random.default_rng(0).normal(size=(10, 4))
        policy = rd.AugmentPolicy(0.0, 0.0, 0.0)
        rows = np.arange(10)
        assert np.array_equal(rd.augment(X, rows, policy, "weak", 1, 0), X)
        assert np.array_equal(rd.augment(X, rows, policy, "strong", 1, 0), X)

    def test_weak_noise_variance(self):
        X = np.zeros((1000, 100))
        policy = rd.AugmentPolicy(0.05, 0.2, 0.0)
        out = rd.augment(X, np.arange(1000), policy, "weak", 2, 0)
        assert np.isfinite(out).all()
        var = float(out.var())
        assert abs(var - 0.05**2) / 0.05**2 < 0.05

    def test_full_drop_zeroes_everything(self):
        X = np.random.default_rng(3).normal(size=(20, 5))
        policy = rd.AugmentPolicy(0.0, 0.0, 1.0)
        out = rd.augment(X, np.arange(20), policy, "strong", 4, 0)
        assert not np.any(out)

    def test_unknown_view(self):
        with pytest.raises(ConfigError):
            rd.augment(np.zeros((1, 1)), np.arange(1), rd.AugmentPolicy(), "medium", 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 10**9), min_size=1, max_size=12, unique=True),
        st.integers(0, 2**40),
        st.integers(0, 10**6),
        st.randoms(),
    )
    def test_rows_do_not_depend_on_batch(self, rows, seed, iteration, rnd):
        X = np.random.default_rng(len(rows)).normal(size=(len(rows), 7))
        rows = np.array(rows)
        policy = rd.AugmentPolicy(0.05, 0.2, 0.3)
        order = np.array(rnd.sample(range(len(rows)), len(rows)))
        other = np.array([r for r in rnd.sample(range(10**9), 5) if r not in rows], dtype=np.int64)
        for view in ("weak", "strong"):
            batch = rd.augment(X, rows, policy, view, seed, iteration)
            permuted = rd.augment(X[order], rows[order], policy, view, seed, iteration)
            assert np.array_equal(permuted, batch[order])
            mixed = rd.augment(
                np.vstack([np.zeros((other.size, 7)), X]), np.concatenate([other, rows]),
                policy, view, seed, iteration,
            )
            assert np.array_equal(mixed[other.size :], batch)
            for i in range(len(rows)):
                alone = rd.augment(X[i : i + 1], rows[i : i + 1], policy, view, seed, iteration)
                assert np.array_equal(alone[0], batch[i])

    def test_seed_view_and_iteration_change_the_noise(self):
        X = np.zeros((6, 5))
        rows = np.arange(40, 46)
        policy = rd.AugmentPolicy(0.1, 0.1, 0.0)
        base = rd.augment(X, rows, policy, "weak", 6, 3)
        for other in (
            rd.augment(X, rows, policy, "weak", 7, 3),
            rd.augment(X, rows, policy, "strong", 6, 3),
            rd.augment(X, rows, policy, "weak", 6, 4),
        ):
            assert not np.any(other == base)

    @pytest.mark.parametrize("p_drop", [0.0, 0.1, 0.5])
    def test_drop_share(self, p_drop):
        out = rd.augment(
            np.ones((2000, 500)), np.arange(2000), rd.AugmentPolicy(0.0, 0.0, p_drop),
            "strong", 12, 3,
        )
        share = float(np.mean(out == 0.0))
        assert abs(share - p_drop) <= 0.01 * p_drop
        assert np.all((out == 0.0) | (out == 1.0))

    def test_bad_keys_rejected(self):
        X = np.zeros((2, 3))
        policy = rd.AugmentPolicy()
        with pytest.raises(ConfigError):
            rd.augment(X, np.array([0, -1]), policy, "weak", 0, 0)
        with pytest.raises(ConfigError):
            rd.augment(X, np.arange(2), policy, "strong", -3, 0)
        with pytest.raises(ConfigError):
            rd.augment(X, np.arange(2), policy, "weak", 0, -1)
        with pytest.raises(ShapeMismatchError):
            rd.augment(X, np.arange(3), policy, "weak", 0, 0)
        with pytest.raises(ShapeMismatchError):
            rd.augment(np.zeros(2), np.arange(2), policy, "weak", 0, 0)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            rd.AugmentPolicy(sigma_weak=0.3, sigma_strong=0.1)
        with pytest.raises(ConfigError):
            rd.AugmentPolicy(p_drop=1.5)


class TestConfidence:
    def test_uniform_model(self):
        model = rd.StudentModel([2, 5], [np.zeros((2, 5))], [np.zeros(5)])
        p, predicted = rd.confidence(model, np.array([1.0, -1.0]))
        assert p == pytest.approx(0.2)
        assert predicted == 0  # exact tie resolves to the lowest index

    def test_saturated(self):
        model = rd.StudentModel([3, 3], [np.eye(3) * 50.0], [np.zeros(3)])
        p, predicted = rd.confidence(model, np.array([0.0, 1.0, 0.0]))
        assert p > 0.999999
        assert predicted == 1

    def test_lower_bound_one_over_c(self):
        model = rd.init_student([4, 6, 5], seed=8)
        X = np.random.default_rng(9).normal(size=(50, 4))
        p, _ = rd.confidence(model, X)
        assert np.all(p >= 1 / 5)


class TestCheckpoints:
    def test_file_round_trip_bit_exact(self, tmp_path):
        model = rd.init_student([6, 4, 3], seed=12)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        rd.save_checkpoint(model, first)
        rd.save_checkpoint(rd.load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_values_are_f32_of_saved(self, tmp_path):
        model = rd.init_student([3, 2], seed=1)
        path = tmp_path / "m.bin"
        rd.save_checkpoint(model, path)
        loaded = rd.load_checkpoint(path)
        assert loaded.layer_dims == model.layer_dims
        for w, orig in zip(loaded.weights, model.weights):
            assert np.array_equal(w, orig.astype(np.float32).astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
        with pytest.raises(ParseError):
            rd.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = rd.init_student([3, 2], seed=1)
        path = tmp_path / "m.bin"
        rd.save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError):
            rd.load_checkpoint(path)

    def test_non_finite_payload(self, tmp_path):
        model = rd.init_student([3, 2], seed=1)
        model.weights[0][1, 0] = np.nan
        path = tmp_path / "m.bin"
        rd.save_checkpoint(model, path)
        with pytest.raises(ParseError, match="non-finite"):
            rd.load_checkpoint(path)


class TestTrainingDynamics:
    def test_smoothed_loss_decreases(self):
        # Window-50 moving average of the batch loss; the tolerance covers
        # plateau wiggle at the 1e-3 scale (verified for this seed).
        ds = rd.make_blobs(2000, 6, 12, 0.8, seed=21)
        model = rd.init_student([12, 128, 6], seed=21)
        opt = rd.init_optimizer(model, 1e-4)
        rng = np.random.default_rng(21)
        losses = []
        done = 0
        while done < 500:
            order = rng.permutation(ds.n)
            for start in range(0, ds.n, 64):
                if done >= 500:
                    break
                batch = order[start : start + 64]
                loss, grads = loss_and_grads(model, ds.features[batch], ds.true_labels[batch])
                rd.optimizer_step(model, opt, grads)
                losses.append(loss)
                done += 1
        smoothed = np.convolve(np.array(losses), np.ones(50) / 50, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-3)
        assert smoothed[-1] < 0.5 * smoothed[0]
