import json
import math

import numpy as np
import pytest

import relidistill as rd
from relidistill import consensus, curriculum
from relidistill.cli import parse_stage_configs
from relidistill.consensus import TAG_LESS_RELIABLE, TAG_RELIABLE, multi_hot_masks, partition
from relidistill.curriculum import (
    STAGE_DEFAULTS,
    _confidence_gate,
    _refine_batch,
    run_mmr,
    run_rkt,
    run_smke,
    validate_stage_configs,
)
from relidistill.errors import ConfigError, DataError, StageError
from relidistill.student import init_optimizer, loss_and_grads, optimizer_step, predict_proba

from conftest import MODIFIERS, OBJECT_VOCAB_65, TEMPLATES, free_text_answer
from test_acceptance import (
    FIXTURE_SEED,
    FIXTURE_SPREAD,
    ONE_POINT,
    STAGE_CONFIGS,
    TEACHER_ACCURACIES,
)


def model_with_confidence(p_max: float, predicted: int, n_classes: int = 3):
    """Single-layer model whose prediction on e_predicted has max prob p_max."""
    # softmax over (k, 0, ..., 0): e^k / (e^k + C - 1) = p  =>  k = ln(p(C-1)/(1-p))
    k = math.log(p_max * (n_classes - 1) / (1.0 - p_max))
    model = rd.StudentModel([n_classes, n_classes], np.zeros(n_classes * n_classes + n_classes))
    model.weights[0][predicted, predicted] = k
    x = np.zeros(n_classes)
    x[predicted] = 1.0
    return model, x


def rows_trained(n: int, cfg) -> int:
    """Rows a stage over ``n`` samples sees; each epoch ends in a short batch."""
    per_epoch = math.ceil(n / cfg.batch_size)
    return sum(
        min(cfg.batch_size, n - (i % per_epoch) * cfg.batch_size) for i in range(cfg.max_iter)
    )


def record_trained_rows(monkeypatch, features) -> list[int]:
    """Patch the stages' gradient call to record, in order, the index in
    ``features`` of every row a batch trains on."""
    index = {row.tobytes(): i for i, row in enumerate(features)}
    assert len(index) == len(features)
    trained: list[int] = []

    def recording(model, X, labels):
        trained.extend(index[row.tobytes()] for row in X)
        return loss_and_grads(model, X, labels)

    monkeypatch.setattr(curriculum, "loss_and_grads", recording)
    return trained


class TestStageConfig:
    def test_tau_required_for_smke(self):
        with pytest.raises(ConfigError):
            rd.StageConfig("SMKE", 1e-3, 64, 100)

    def test_lambda_required_for_mmr(self):
        with pytest.raises(ConfigError):
            rd.StageConfig("MMR", 1e-3, 64, 100, tau=0.9)

    def test_rkt_rejects_tau(self):
        with pytest.raises(ConfigError):
            rd.StageConfig("RKT", 1e-3, 64, 100, tau=0.5)

    def test_order_and_missing_stage(self):
        rkt = rd.StageConfig("RKT", 1e-3, 64, 100)
        mmr = rd.StageConfig("MMR", 1e-3, 64, 100, tau=0.9, lambda_cons=0.5)
        with pytest.raises(ConfigError, match="SMKE"):
            validate_stage_configs([rkt, mmr])
        smke = rd.StageConfig("SMKE", 1e-3, 64, 100, tau=0.7)
        with pytest.raises(ConfigError, match="ordered"):
            validate_stage_configs([rkt, mmr, smke])

    def test_parse_defaults(self):
        cfgs = parse_stage_configs(
            [
                {"stage": "RKT", "learning_rate": 1e-4, "batch_size": 64, "max_iter": 10},
                {"stage": "SMKE", "learning_rate": 1e-5, "batch_size": 256, "max_iter": 10},
                {"stage": "MMR", "learning_rate": 1e-5, "batch_size": 128, "max_iter": 10},
            ]
        )
        assert cfgs[1].tau == 0.7
        assert cfgs[2].tau == 0.95
        assert cfgs[2].lambda_cons == STAGE_DEFAULTS["MMR"]["lambda_cons"] == 0.5

    def test_reference_scale_config_parses(self):
        # The published 65-class setup: lr 1e-4/1e-5/1e-5, tau 0.7/0.95,
        # batches 64/256/128, iterations 3000/5000/5000.
        cfgs = parse_stage_configs(
            [
                {"stage": "RKT", "learning_rate": 1e-4, "batch_size": 64, "max_iter": 3000},
                {
                    "stage": "SMKE",
                    "learning_rate": 1e-5,
                    "batch_size": 256,
                    "max_iter": 5000,
                    "tau": 0.7,
                },
                {
                    "stage": "MMR",
                    "learning_rate": 1e-5,
                    "batch_size": 128,
                    "max_iter": 5000,
                    "tau": 0.95,
                    "lambda_cons": 0.5,
                },
            ]
        )
        assert [c.stage for c in cfgs] == ["RKT", "SMKE", "MMR"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_stage_configs(
                [{"stage": "RKT", "learning_rate": 1, "batch_size": 1, "max_iter": 1, "momentum": 0.9}]
            )


def smke_rule(model, x, teacher: int, tau: float) -> int:
    """The stage-2 rule for one sample, as ``run_smke`` applies it to a batch."""
    labels, _ = _confidence_gate(predict_proba(model, x), tau, np.array([teacher]))
    return int(labels[0])


class TestSmkeLabel:
    def test_confident_student_wins(self):
        # p = 0.8 at class 3, teachers' mode 5
        model, x = model_with_confidence(0.8, predicted=3, n_classes=10)
        assert smke_rule(model, x, teacher=5, tau=0.7) == 3

    def test_low_confidence_defers_to_teachers(self):
        model, x = model_with_confidence(0.8, predicted=3, n_classes=10)
        assert smke_rule(model, x, teacher=5, tau=0.9) == 5

    def test_tau_zero_always_student(self):
        model, x = model_with_confidence(0.4, predicted=2)
        assert smke_rule(model, x, teacher=0, tau=0.0) == 2

    def test_tau_one_always_teachers(self):
        model, x = model_with_confidence(0.999, predicted=2)
        assert smke_rule(model, x, teacher=0, tau=1.0) == 0


class TestMmrRefine:
    def test_masked_refinement(self):
        probs = np.array([0.1, 0.5, 0.4])
        assert rd.mmr_refine(probs, np.array([0, 2, 2]), 3, tau=0.95) == 2

    def test_confident_keeps_argmax(self):
        probs = np.array([0.1, 0.5, 0.4])
        assert rd.mmr_refine(probs, np.array([0, 2, 2]), 3, tau=0.4) == 1

    def test_full_mask_noop(self):
        probs = np.array([0.1, 0.5, 0.4])
        assert rd.mmr_refine(probs, np.array([0, 1, 2]), 3, tau=0.99) == 1

    def test_refined_always_in_mask_support(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            c = int(rng.integers(3, 9))
            probs = rng.dirichlet(np.ones(c))
            row = rng.integers(0, c, size=int(rng.integers(2, 5)))
            tau = float(rng.random())
            refined = rd.mmr_refine(probs, row, c, tau)
            if probs.max() < tau:
                assert refined in set(int(v) for v in row)


class TestRunRkt:
    def test_perfect_teachers_high_accuracy(self, small_blobs):
        specs = [rd.SimTeacherSpec(1.0, seed=5) for _ in range(3)]
        pl = rd.simulate_teachers(small_blobs, specs, n_classes=4)
        part = partition(pl)
        cfg = rd.StageConfig("RKT", 1e-3, 64, 400)
        model = rd.init_student([small_blobs.dim, 128, 4], seed=5)
        report = run_rkt(model, small_blobs.features, part, pl, cfg, seed=5)
        _, pred = rd.confidence(model, small_blobs.features)
        acc = float(np.mean(pred == small_blobs.true_labels))
        assert acc >= 0.95
        # Oracle: plain supervised training on the same labels does as well.
        oracle = rd.init_student([small_blobs.dim, 128, 4], seed=5)
        opt = init_optimizer(oracle, 1e-3)
        rng = np.random.default_rng(5)
        done = 0
        while done < 400:
            order = rng.permutation(small_blobs.n)
            for start in range(0, small_blobs.n, 64):
                if done >= 400:
                    break
                batch = order[start : start + 64]
                _, grads = loss_and_grads(
                    oracle, small_blobs.features[batch], pl.labels[batch, 0]
                )
                optimizer_step(oracle, opt, grads)
                done += 1
        _, oracle_pred = rd.confidence(oracle, small_blobs.features)
        assert float(np.mean(oracle_pred == small_blobs.true_labels)) >= 0.95
        assert report.touched_sample_count == small_blobs.n

    def test_single_reliable_sample(self):
        ds = rd.make_blobs(20, 2, 4, 0.5, seed=1)
        labels = np.zeros((20, 3), dtype=np.int64)
        labels[:, 1] = 1  # only row 0 unanimous after we fix it
        labels[0] = [1, 1, 1]
        pl = rd.PseudoLabelMatrix(list(ds.sample_ids), labels, 2)
        part = partition(pl)
        assert part.indices(TAG_RELIABLE).size == 1
        cfg = rd.StageConfig("RKT", 1e-3, 8, 25)
        model = rd.init_student([4, 8, 2], seed=2)
        report = run_rkt(model, ds.features, part, pl, cfg, seed=2)
        assert report.iterations == 25
        assert report.touched_sample_count == 1

    def test_empty_reliable_subset(self):
        ds = rd.make_blobs(9, 3, 4, 0.5, seed=2)
        labels = np.tile([0, 1, 2], (9, 1))  # never unanimous
        pl = rd.PseudoLabelMatrix(list(ds.sample_ids), labels, 3)
        cfg = rd.StageConfig("RKT", 1e-3, 4, 10)
        model = rd.init_student([4, 8, 3], seed=3)
        with pytest.raises(StageError):
            run_rkt(model, ds.features, partition(pl), pl, cfg, seed=3)

    def test_float32_overflowing_parameters_raise(self, small_teacher_setup):
        # run_rkt used to return normally holding a bias that no float32
        # checkpoint can store; only run_curriculum checked.
        ds, pl = small_teacher_setup
        model = rd.init_student([ds.dim, 16, 4], seed=9)
        model.biases[-1][0] = 1e39
        cfg = rd.StageConfig("RKT", 1e-3, 32, 10)
        with pytest.raises(StageError, match="RKT: parameters are not finite in float32"):
            run_rkt(model, ds.features, partition(pl), pl, cfg, seed=9)

    def test_touches_only_reliable_samples(self, small_teacher_setup, monkeypatch):
        ds, pl = small_teacher_setup
        part = partition(pl)
        cfg = rd.StageConfig("RKT", 1e-3, 32, 40)
        model = rd.init_student([ds.dim, 16, 4], seed=9)
        trained = record_trained_rows(monkeypatch, ds.features)
        report = run_rkt(model, ds.features, part, pl, cfg, seed=9)
        assert len(trained) == rows_trained(part.indices(TAG_RELIABLE).size, cfg)
        assert set(trained) == set(part.indices(TAG_RELIABLE).tolist())
        assert report.touched_sample_count == part.indices(TAG_RELIABLE).size
        assert 0 < report.touched_sample_count < ds.n

    def test_bit_identical_reruns(self, small_teacher_setup, tmp_path):
        ds, pl = small_teacher_setup
        part = partition(pl)
        cfg = rd.StageConfig("RKT", 1e-3, 32, 60)
        paths = []
        for run in range(2):
            model = rd.init_student([ds.dim, 16, 4], seed=9)
            run_rkt(model, ds.features, part, pl, cfg, seed=9)
            path = tmp_path / f"run{run}.bin"
            rd.save_checkpoint(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestRunSmke:
    def test_touches_only_r_and_lr(self, small_teacher_setup, monkeypatch):
        ds, pl = small_teacher_setup
        part = partition(pl)
        cfg = rd.StageConfig("SMKE", 1e-3, 64, 40, tau=0.7)
        model = rd.init_student([ds.dim, 16, 4], seed=4)
        trained = record_trained_rows(monkeypatch, ds.features)
        report = run_smke(model, ds.features, part, pl, cfg, seed=4)
        allowed = set(part.indices(TAG_RELIABLE).tolist()) | set(
            part.indices(TAG_LESS_RELIABLE).tolist()
        )
        assert len(allowed) < ds.n
        assert len(trained) == rows_trained(len(allowed), cfg)
        assert set(trained) == allowed
        assert report.touched_sample_count == len(allowed)

    @pytest.mark.parametrize("setup", ["acceptance", "four-teachers"])
    def test_draws_tie_breaks_only_for_pool_rows(self, monkeypatch, setup):
        # With 3 teachers only an all-distinct (UR) row ties, so the
        # acceptance fixture's SMKE draws no tie-break; with 4, a 2-2 LR
        # row ties too.
        if setup == "acceptance":
            ds = rd.make_blobs(5000, 10, 16, FIXTURE_SPREAD, seed=FIXTURE_SEED)
            specs = [
                rd.SimTeacherSpec(a, "uniform-error", 0.0, seed=FIXTURE_SEED)
                for a in TEACHER_ACCURACIES
            ]
            pl = rd.simulate_teachers(ds, specs, n_classes=10)
        else:
            ds = rd.make_blobs(200, 4, 5, 0.5, seed=3)
            specs = [rd.SimTeacherSpec(0.5, "uniform-error", 0.0, seed=t) for t in range(4)]
            pl = rd.simulate_teachers(ds, specs, n_classes=4)
        part = partition(pl)
        pool = np.flatnonzero(part.tags != consensus.TAG_UNRELIABLE)
        counts = consensus._class_counts(pl.labels, pl.n_classes)
        tied = np.flatnonzero((counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1)
        assert np.setdiff1d(tied, pool).size > 0  # UR rows tie, and SMKE skips them
        drawn = []
        derive_rng = consensus.derive_rng

        def counting(seed, *keys):
            drawn.append(keys[-1])  # the row index
            return derive_rng(seed, *keys)

        monkeypatch.setattr(consensus, "derive_rng", counting)
        cfg = rd.StageConfig("SMKE", 1e-3, 64, 2, tau=0.7)
        run_smke(rd.init_student([ds.dim, 8, pl.n_classes], seed=2), ds.features, part, pl, cfg, 2)
        assert drawn == np.intersect1d(tied, pool).tolist()
        assert (len(drawn) == 0) == (setup == "acceptance")

    def test_tau_endpoints_branch_counters(self, small_teacher_setup):
        ds, pl = small_teacher_setup
        part = partition(pl)
        model = rd.init_student([ds.dim, 16, 4], seed=6)
        cfg0 = rd.StageConfig("SMKE", 1e-4, 64, 30, tau=0.0)
        report0 = run_smke(model.copy(), ds.features, part, pl, cfg0, seed=6)
        assert report0.label_sources["teacher"] == 0
        assert report0.label_sources["student"] > 0

        p, _ = rd.confidence(model, ds.features)
        assert np.all(p < 1.0)
        cfg1 = rd.StageConfig("SMKE", 1e-4, 64, 30, tau=1.0)
        report1 = run_smke(model.copy(), ds.features, part, pl, cfg1, seed=6)
        assert report1.label_sources["student"] == 0
        assert report1.label_sources["teacher"] > 0


def three_pass_mmr(model, X, pl, cfg, policy, seed):
    """MMR with three forward passes per batch: the weak view goes forward
    once for the refined labels and again inside its gradient. Reusing
    the first pass must not change a byte."""
    masks = multi_hot_masks(pl)
    lam = float(cfg.lambda_cons)
    sources = {"confident": 0, "masked": 0}

    def batch_loss(iteration, batch):
        x_weak = rd.augment(X[batch], batch, policy, "weak", seed, iteration)
        x_strong = rd.augment(X[batch], batch, policy, "strong", seed, iteration)
        refined, confident = _refine_batch(predict_proba(model, x_weak), masks[batch], cfg.tau)
        sources["confident"] += int(confident.sum())
        sources["masked"] += int((~confident).sum())
        loss_sup, grads_weak = loss_and_grads(model, x_weak, refined)
        loss_cons, grads_strong = loss_and_grads(model, x_strong, refined)
        return loss_sup + lam * loss_cons, grads_weak + lam * grads_strong

    return curriculum._train_stage(model, cfg, np.arange(pl.n), seed, batch_loss, sources)


class TestRunMmr:
    def test_matches_three_pass_reference(self, small_teacher_setup, monkeypatch):
        monkeypatch.setattr(curriculum, "LOSS_SAMPLE_EVERY", 3)
        ds, pl = small_teacher_setup
        cfg = rd.StageConfig("MMR", 1e-2, 32, 40, tau=0.6, lambda_cons=0.5)
        policy = rd.AugmentPolicy()
        model = rd.init_student([ds.dim, 16, 4], seed=15)
        reference = model.copy()
        report = run_mmr(model, ds.features, pl, cfg, policy, seed=15)
        expected = three_pass_mmr(reference, ds.features, pl, cfg, policy, seed=15)
        assert model.params.tobytes() == reference.params.tobytes()
        assert len(report.loss_curve) == 14
        assert report.to_json_dict() == expected.to_json_dict()  # curve, sources, final loss
        assert report.label_sources["confident"] > 0 and report.label_sources["masked"] > 0

    def test_lambda_zero_ignores_strong_view(self, small_teacher_setup, tmp_path):
        ds, pl = small_teacher_setup
        paths = []
        # Wildly different strong-view corruption must not matter at lambda=0.
        for i, p_drop in enumerate((0.0, 0.9)):
            model = rd.init_student([ds.dim, 16, 4], seed=8)
            cfg = rd.StageConfig("MMR", 1e-3, 32, 40, tau=0.95, lambda_cons=0.0)
            policy = rd.AugmentPolicy(0.05, 0.5, p_drop)
            run_mmr(model, ds.features, pl, cfg, policy, seed=8)
            path = tmp_path / f"mmr{i}.bin"
            rd.save_checkpoint(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_augmentation_off_combined_loss_scales(self, small_teacher_setup):
        ds, pl = small_teacher_setup
        losses = {}
        for lam in (0.0, 0.5):
            model = rd.init_student([ds.dim, 16, 4], seed=12)
            cfg = rd.StageConfig("MMR", 1e-6, 32, 1, tau=0.95, lambda_cons=lam)
            policy = rd.AugmentPolicy(0.0, 0.0, 0.0)
            report = run_mmr(model, ds.features, pl, cfg, policy, seed=12)
            losses[lam] = report.final_loss
        # identical views: L = (1 + lambda) * L_sup
        assert abs(losses[0.5] - 1.5 * losses[0.0]) < 1e-9

    def test_touches_all_samples(self, small_teacher_setup):
        ds, pl = small_teacher_setup
        model = rd.init_student([ds.dim, 16, 4], seed=13)
        cfg = rd.StageConfig("MMR", 1e-3, 64, 20, tau=0.95, lambda_cons=0.5)
        report = run_mmr(model, ds.features, pl, cfg, rd.AugmentPolicy(), seed=13)
        assert report.touched_sample_count == pl.n

    def test_label_sources_count_every_trained_row(self, small_teacher_setup):
        ds, pl = small_teacher_setup
        cfg = rd.StageConfig("MMR", 1e-3, 64, 25, tau=0.5, lambda_cons=0.5)
        reports = []
        for _ in range(2):
            model = rd.init_student([ds.dim, 16, 4], seed=14)
            reports.append(run_mmr(model, ds.features, pl, cfg, rd.AugmentPolicy(), seed=14))
        sources = reports[0].label_sources
        assert set(sources) == {"confident", "masked"}
        assert sources["confident"] + sources["masked"] == rows_trained(pl.n, cfg)
        assert sources["confident"] > 0 and sources["masked"] > 0
        assert reports[0].to_json_dict() == reports[1].to_json_dict()
        assert reports[0].to_json_dict()["label_sources"] == sources

    def test_tau_endpoints_label_sources(self, small_teacher_setup):
        ds, pl = small_teacher_setup
        model = rd.init_student([ds.dim, 16, 4], seed=6)
        p, _ = rd.confidence(model, ds.features)
        assert np.all(p < 1.0)
        for tau, never in ((0.0, "masked"), (1.0, "confident")):
            cfg = rd.StageConfig("MMR", 1e-4, 64, 30, tau=tau, lambda_cons=0.5)
            report = run_mmr(model.copy(), ds.features, pl, cfg, rd.AugmentPolicy(), seed=6)
            assert report.label_sources[never] == 0
            assert sum(report.label_sources.values()) == rows_trained(pl.n, cfg)

    def test_refine_batch_respects_mask(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(5), size=40)
        masks = rng.random((40, 5)) < 0.4
        masks[:, 0] |= ~masks.any(axis=1)  # ensure nonempty
        refined, confident = _refine_batch(probs, masks.astype(float), tau=0.9)
        for i in range(40):
            if not confident[i]:
                assert masks[i, refined[i]]


class TestRunCurriculum:
    def _configs(self):
        return [
            rd.StageConfig("RKT", 1e-3, 32, 50),
            rd.StageConfig("SMKE", 1e-4, 64, 50, tau=0.7),
            rd.StageConfig("MMR", 1e-4, 32, 50, tau=0.95, lambda_cons=0.5),
        ]

    def test_chains_and_reports(self, small_teacher_setup, tmp_path):
        ds, pl = small_teacher_setup
        model, run = rd.run_curriculum(
            ds, pl, self._configs(), seed=3, checkpoint_dir=tmp_path
        )
        assert [r.stage for r in run.reports] == ["RKT", "SMKE", "MMR"]
        for report in run.reports:
            assert report.accuracy is not None
            assert report.loss_curve[0][0] == 0
        for stage in ("RKT", "SMKE", "MMR"):
            assert (tmp_path / f"checkpoint_{stage.lower()}.bin").exists()

    def test_run_report_and_timing_sidecar(self, small_teacher_setup, tmp_path):
        # The reports hold only deterministic fields; the run's wall times
        # go to timing.json.
        ds, pl = small_teacher_setup
        _, run = rd.run_curriculum(ds, pl, self._configs(), seed=3, checkpoint_dir=tmp_path)
        curriculum.write_run_report(run, tmp_path)
        report = json.loads((tmp_path / "train_report.json").read_text(encoding="utf-8"))
        assert report["checkpoints"]["MMR"] == "checkpoint_mmr.bin"
        stages = [r.to_json_dict() for r in run.reports]
        assert report["stages"] == json.loads(json.dumps(stages))
        assert "label_sources" not in report["stages"][0]
        timing = json.loads((tmp_path / "timing.json").read_text(encoding="utf-8"))
        assert sorted(timing) == ["stage_wall_time_s", "total_wall_time_s"]
        assert timing["stage_wall_time_s"] == run.stage_wall_time_s
        assert timing["total_wall_time_s"] >= sum(run.stage_wall_time_s.values()) > 0

    def test_creates_missing_checkpoint_dir(self, small_teacher_setup, tmp_path):
        # save_checkpoint used to fail on a directory that did not exist.
        ds, pl = small_teacher_setup
        out = tmp_path / "a" / "b"
        rd.run_curriculum(ds, pl, self._configs(), seed=3, checkpoint_dir=out)
        assert (out / "checkpoint_mmr.bin").exists()

    def test_deterministic_end_to_end(self, small_teacher_setup, tmp_path):
        ds, pl = small_teacher_setup
        outs = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            out.mkdir()
            rd.run_curriculum(ds, pl, self._configs(), seed=3, checkpoint_dir=out)
            outs.append(out)
        for stage in ("rkt", "smke", "mmr"):
            a = (outs[0] / f"checkpoint_{stage}.bin").read_bytes()
            b = (outs[1] / f"checkpoint_{stage}.bin").read_bytes()
            assert a == b

    def test_stage_validation_errors(self, small_teacher_setup):
        ds, pl = small_teacher_setup
        with pytest.raises(ConfigError, match="missing stage config: SMKE"):
            rd.run_curriculum(ds, pl, [self._configs()[0], self._configs()[2]], seed=0)

    def test_warm_start_from_checkpoint(self, small_teacher_setup, tmp_path):
        ds, pl = small_teacher_setup
        source = rd.init_student([ds.dim, 16, 4], seed=40)
        path = tmp_path / "source.bin"
        rd.save_checkpoint(source, path)
        warm = rd.load_checkpoint(path)
        model, run = rd.run_curriculum(
            ds, pl, self._configs(), seed=3, hidden_dims=[16], warm_start=warm
        )
        assert run.reports[-1].accuracy is not None
        # hidden_dims used to be ignored next to a warm start.
        with pytest.raises(ConfigError, match="hidden_dims"):
            rd.run_curriculum(ds, pl, self._configs(), seed=3, hidden_dims=[7], warm_start=warm)
        bad = rd.init_student([ds.dim + 1, 16, 4], seed=41)
        with pytest.raises(DataError, match="does not match data dims"):
            rd.run_curriculum(ds, pl, self._configs(), seed=3, warm_start=bad)

    def test_failed_stage_keeps_prior_checkpoints(
        self, small_teacher_setup, tmp_path, monkeypatch
    ):
        ds, pl = small_teacher_setup
        import relidistill.curriculum as cur

        def boom(*args, **kwargs):
            raise StageError("injected failure")

        monkeypatch.setattr(cur, "run_smke", boom)
        with pytest.raises(StageError):
            rd.run_curriculum(ds, pl, self._configs(), seed=3, checkpoint_dir=tmp_path)
        assert (tmp_path / "checkpoint_rkt.bin").exists()
        assert not (tmp_path / "checkpoint_smke.bin").exists()

    def test_refuses_to_checkpoint_non_float32_parameters(self, small_teacher_setup, tmp_path):
        # Finite in float64 but not in the float32 checkpoint: training
        # runs, and the stage fails instead of writing an unloadable file.
        ds, pl = small_teacher_setup
        warm = rd.init_student([ds.dim, 16, 4], seed=40)
        warm.biases[-1][0] = 1e39
        with pytest.raises(StageError, match="RKT: parameters are not finite"):
            rd.run_curriculum(
                ds, pl, self._configs(), seed=3, checkpoint_dir=tmp_path, warm_start=warm
            )
        assert not (tmp_path / "checkpoint_rkt.bin").exists()


def test_free_text_65_classes_gated_like_criterion_6(object_vocab):
    # The paper's own setting: 65 classes, and teachers that answer in free
    # text, mapped back to classes by the trigram matcher before training.
    seed = 6
    ds = rd.make_blobs(2000, 65, 32, 1.0, seed)
    specs = [rd.SimTeacherSpec(a, seed=seed) for a in (0.80, 0.75, 0.70)]
    chosen = rd.simulate_teachers(ds, specs, n_classes=65).labels
    rng = np.random.default_rng([seed, 65])
    template = rng.integers(len(TEMPLATES), size=chosen.shape)
    modifier = rng.integers(len(MODIFIERS), size=chosen.shape)
    records = [
        rd.TeacherRecord(ds.sample_ids[i], t, free_text_answer(
            TEMPLATES[template[i, t]], MODIFIERS[modifier[i, t]], OBJECT_VOCAB_65[c]))
        for (i, t), c in np.ndenumerate(chosen)
    ]
    pl, _ = rd.label_records(records, object_vocab, rd.TrigramEmbedder())
    assert pl.sample_ids == ds.sample_ids and np.mean(pl.labels == chosen) >= 0.98
    configs = [rd.StageConfig(**dict(cfg, max_iter=300)) for cfg in STAGE_CONFIGS]
    _, run = rd.run_curriculum(ds, pl, configs, seed)
    acc = {r.stage: r.accuracy for r in run.reports}
    ensemble = rd.ensemble_baseline(pl, ds.true_labels, seed=seed)
    assert acc["SMKE"] >= acc["RKT"] + ONE_POINT, acc
    assert acc["MMR"] >= acc["SMKE"] + ONE_POINT, acc
    assert acc["MMR"] > ensemble + ONE_POINT, (acc, ensemble)


RKT = rd.StageConfig("RKT", 1e-3, 4, 2)
SMKE = rd.StageConfig("SMKE", 1e-3, 4, 2, tau=0.7)
MMR = rd.StageConfig("MMR", 1e-3, 4, 2, tau=0.9, lambda_cons=0.5)


def stage_args(labels, with_partition=True):
    """The (model, X, part, pl) RKT and SMKE take for ``labels`` over 2
    classes; MMR's (model, X, pl) without it."""
    pl = rd.PseudoLabelMatrix([f"s{i}" for i in range(len(labels))], np.array(labels), 2)
    model, X = rd.init_student([2, 2], 0), np.ones((pl.n, 2))
    return (model, X, partition(pl), pl) if with_partition else (model, X, pl)


# Checks no other test reaches: (call, the exception it raises, that
# exception's message).
ARGUMENT_CHECKS = [
    pytest.param(lambda: rd.StageConfig("FOO", 1e-3, 4, 2), ConfigError,
                 "unknown stage 'FOO'", id="stage-unknown"),
    pytest.param(lambda: rd.StageConfig("RKT", 0.0, 4, 2), ConfigError,
                 "RKT: learning rate must be positive and finite", id="stage-learning-rate-zero"),
    pytest.param(lambda: rd.StageConfig("RKT", math.nan, 4, 2), ConfigError,
                 "RKT: learning rate must be positive and finite", id="stage-learning-rate-nan"),
    pytest.param(lambda: rd.StageConfig("SMKE", math.inf, 4, 2, tau=0.7), ConfigError,
                 "SMKE: learning rate must be positive and finite", id="stage-learning-rate-inf"),
    pytest.param(lambda: rd.StageConfig("SMKE", 1e-3, 0, 2, tau=0.7), ConfigError,
                 "SMKE: batch size and max iter must be >= 1", id="stage-batch-size-zero"),
    pytest.param(lambda: rd.StageConfig("MMR", 1e-3, 4, 0, tau=0.9, lambda_cons=0.5),
                 ConfigError, "MMR: batch size and max iter must be >= 1",
                 id="stage-max-iter-zero"),
    pytest.param(lambda: rd.StageConfig("SMKE", 1e-3, 4, 2, tau=1.5), ConfigError,
                 "SMKE: tau must lie in [0, 1]", id="stage-tau-above-1"),
    pytest.param(lambda: rd.StageConfig("MMR", 1e-3, 4, 2, tau=-0.1, lambda_cons=0.5),
                 ConfigError, "MMR: tau must lie in [0, 1]", id="stage-tau-below-0"),
    pytest.param(lambda: rd.StageConfig("MMR", 1e-3, 4, 2, tau=0.9, lambda_cons=-1.0),
                 ConfigError, "MMR: lambda_cons must be finite and >= 0",
                 id="stage-lambda-negative"),
    pytest.param(lambda: rd.StageConfig("MMR", 1e-3, 4, 2, tau=0.9, lambda_cons=math.nan),
                 ConfigError, "MMR: lambda_cons must be finite and >= 0", id="stage-lambda-nan"),
    pytest.param(lambda: rd.StageConfig("MMR", 1e-3, 4, 2, tau=0.9, lambda_cons=math.inf),
                 ConfigError, "MMR: lambda_cons must be finite and >= 0", id="stage-lambda-inf"),
    pytest.param(lambda: rd.StageConfig("SMKE", 1e-3, 4, 2, tau=0.7, lambda_cons=0.5),
                 ConfigError, "SMKE takes no lambda_cons", id="stage-smke-lambda"),
    pytest.param(lambda: rd.mmr_refine([0.5, 0.5], [0, 1], 3, 0.9), DataError,
                 "probability vector length != class count", id="mmr-refine-length"),
    pytest.param(lambda: run_rkt(*stage_args([[0, 0]]), SMKE, 0), ConfigError,
                 "expected an RKT config, got SMKE", id="run-rkt-smke-config"),
    pytest.param(lambda: run_smke(*stage_args([[0, 0]]), MMR, 0), ConfigError,
                 "expected an SMKE config, got MMR", id="run-smke-mmr-config"),
    pytest.param(lambda: run_mmr(*stage_args([[0, 0]], False), RKT, rd.AugmentPolicy(), 0),
                 ConfigError, "expected an MMR config, got RKT", id="run-mmr-rkt-config"),
    pytest.param(lambda: run_smke(*stage_args([[0, 1], [1, 0]]), SMKE, 0), StageError,
                 "no samples with any teacher agreement; SMKE cannot run",
                 id="run-smke-all-unreliable"),
    pytest.param(lambda: run_mmr(*stage_args(np.zeros((0, 2)), False), MMR,
                                 rd.AugmentPolicy(), 0),
                 StageError, "empty dataset; MMR cannot run", id="run-mmr-empty"),
]


@pytest.mark.parametrize("call, error, message", ARGUMENT_CHECKS)
def test_argument_checks(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
