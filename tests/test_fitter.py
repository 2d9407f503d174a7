import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fit_node_reference,
    pair_loss_and_grad,
    pair_loss_and_grad_reference,
    perturbed,
    random_superquadric,
    reaches,
)
from sqdecomp import (
    ConfigError,
    FitConfig,
    LabeledPointSet,
    OccupancyConfig,
    Superquadric,
    fit_node,
    fit_tree,
    inside_outside_stable,
    label_iou,
    node_loss,
    occupancy,
    recompute_labels,
    surface_points,
)
from sqdecomp import fitter
from sqdecomp import quaternions as quat
from sqdecomp.fitter import (
    _ESCAPE_MARGIN,
    _RACE_DTYPE,
    _PairBatch,
    _pair_rows,
    _race,
    _support,
    _union_below,
    init_node,
)


class TestNodeLoss:
    def test_tightly_enclosed_inside_points(self):
        """Points at the center of both SQs with label 1: the loss collapses
        to -log(sigmoid(s)) because the stable value vanishes there."""
        sq = Superquadric(np.ones(3), np.ones(2))
        pts = np.zeros((16, 3))
        loss = node_loss(sq, sq, pts, np.ones(16), OccupancyConfig(10.0))
        np.testing.assert_allclose(loss, 4.539889921682063e-05, rtol=1e-9)

    def test_surface_point_contributes_log_two(self):
        """An inside-labeled point exactly on the winning surface costs
        -log(1/2)."""
        near = Superquadric(np.ones(3), np.ones(2))
        far = Superquadric(np.full(3, 0.01), np.ones(2), np.array([3.0, 0.0, 0.0]))
        loss = node_loss(near, far, [[1.0, 0.0, 0.0]], [1], OccupancyConfig(10.0))
        np.testing.assert_allclose(loss, 0.6931471805599453, rtol=1e-9)

    def test_sharpness_limit_drives_consistent_loss_to_zero(self):
        sq = Superquadric(np.full(3, 0.4), np.ones(2))
        pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.55, 0.0, 0.0], [0.0, 0.9, 0.0]])
        labels = np.array([1, 1, 0, 0])
        assert node_loss(sq, sq, pts, labels, OccupancyConfig(400.0)) < 1e-8

    def test_empty_points_rejected(self):
        sq = Superquadric(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            node_loss(sq, sq, np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, bad):
        """A NaN or infinite point used to make the loss NaN."""
        sq = Superquadric(np.ones(3), np.ones(2))
        pts = np.random.default_rng(69).uniform(-0.5, 0.5, (200, 3))
        pts[11, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            node_loss(sq, sq, pts, np.ones(200))

    @pytest.mark.parametrize("columns", [2, 4])
    def test_points_not_n_by_3_rejected(self, columns):
        sq = Superquadric(np.ones(3), np.ones(2))
        pts = np.random.default_rng(69).uniform(-0.5, 0.5, (200, columns))
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            node_loss(sq, sq, pts, np.ones(200))

    def test_label_length_mismatch_rejected(self):
        sq = Superquadric(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            node_loss(sq, sq, np.zeros((3, 3)), np.zeros(4))

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_label_outside_zero_one_rejected(self, bad):
        """A label of 2 was credited as outside by the loss but pushed the
        gradient inward; any label but 0 or 1 is now refused."""
        sq = Superquadric(np.ones(3), np.ones(2))
        with pytest.raises(ValueError, match="0 or 1"):
            node_loss(sq, sq, np.zeros((3, 3)), np.array([1.0, 0.0, bad]))


class TestFitConfig:
    def test_defaults_are_valid(self):
        FitConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_depth": 0},
            {"iterations": 0},
            {"restarts": 0},
            {"step_size": 0.0},
            {"step_size": -0.1},
            {"sharpness": 0.0},
            {"seed": -1},
            {"a_min": 0.0},
            {"a_min": 0.5, "a_max": 0.1},
            {"e_min": 1.0, "e_max": 0.5},
            {"iterations": 2.5},
            {"restarts": 1.5},
            {"seed": 0.5},
            {"max_depth": 1.5},
            {"iterations": True},
            {"iterations": np.int64(3)},
            {"sharpness": True},
            {"step_size": np.float32(0.01)},
            {"sharpness": "10"},
            {"step_size": 10**400},
            {"e_max": float("inf")},
            {"a_max": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        """A config checks itself when it is built, so an invalid one never
        reaches a fit. An int field takes only a Python int: 2.5 failed
        the fit with a bare TypeError, True ran one iteration and wrote
        "iterations": true, and an int64 failed save_tree's JSON. A float
        field takes only a finite Python float or int: True was written as
        "sharpness": true, a float32 failed save_tree's JSON, '10' and
        10**400 failed with numpy's bare TypeError, and an infinite bound
        clipped nothing."""
        with pytest.raises(ConfigError):
            FitConfig(**kwargs)

    def test_replace_rechecks(self):
        with pytest.raises(ConfigError, match="restarts"):
            dataclasses.replace(FitConfig(), restarts=0)

    def test_fit_node_with_no_restarts_is_a_config_error(self):
        """fit_node used to take restarts=0 and fail with an IndexError in
        the race; the config now refuses it before any fit starts."""
        pts = np.random.default_rng(69).uniform(-0.5, 0.5, (50, 3))
        labels = (np.linalg.norm(pts, axis=1) < 0.3).astype(np.uint8)
        with pytest.raises(ConfigError, match="restarts"):
            fit_node(pts, labels, FitConfig(restarts=0))

    def test_from_file_parses_keys_and_comments(self, tmp_path):
        p = tmp_path / "fit.cfg"
        p.write_text(
            "# training setup\n"
            "max_depth = 3\n"
            "iterations = 250  # raised from default\n"
            "\n"
            "sharpness = 25\n"
            "step_size = 0.004\n"
        )
        cfg = FitConfig.from_file(p)
        assert cfg.max_depth == 3
        assert cfg.iterations == 250
        assert cfg.sharpness == 25.0
        assert cfg.step_size == 0.004
        assert cfg.restarts == FitConfig().restarts  # untouched fields keep defaults

    def test_from_file_rejects_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("learning_rate = 0.1\n")
        with pytest.raises(ConfigError):
            FitConfig.from_file(p)

    def test_from_file_rejects_unparsable_value(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("iterations = soon\n")
        with pytest.raises(ConfigError):
            FitConfig.from_file(p)

    def test_from_file_rejects_repeated_key_naming_both_lines(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("iterations = 100\n# comment\nsharpness = 20\niterations = 200\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:4: 'iterations' repeats line 1"):
            FitConfig.from_file(p)

    def test_from_file_rejects_missing_separator(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("iterations 100\n")
        with pytest.raises(ConfigError):
            FitConfig.from_file(p)

    def test_from_file_skips_a_leading_byte_order_mark(self, tmp_path):
        """The BOM used to stick to the first key: unknown key '\\ufeffmax_depth'."""
        p = tmp_path / "fit.cfg"
        p.write_bytes(b"\xef\xbb\xbfmax_depth = 3\niterations = 250\n")
        cfg = FitConfig.from_file(p)
        assert (cfg.max_depth, cfg.iterations) == (3, 250)

    def test_from_file_rejects_text_that_is_not_utf8(self, tmp_path):
        """A bare UnicodeDecodeError used to escape, without the path."""
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"iterations = 100\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg: not UTF-8 text"):
            FitConfig.from_file(p)


class TestInitNode:
    def test_box_points_give_pair_offset_along_long_axis(self):
        rng = np.random.default_rng(60)
        pts = rng.uniform([-0.3, -0.1, -0.1], [0.3, 0.1, 0.1], (4000, 3))
        a, b = init_node(pts, np.ones(len(pts), dtype=np.uint8), FitConfig())
        for sq in (a, b):
            assert np.all(np.abs(sq.translation) <= [0.3, 0.1, 0.1])
        gap = a.translation - b.translation
        assert abs(gap[0]) > 0.2  # separated along x, the long axis
        np.testing.assert_allclose(gap[1:], 0.0, atol=0.02)

    def test_single_inside_point_collapses_to_minimum_size(self):
        pts = np.array([[0.2, -0.1, 0.3], [0.5, 0.5, 0.5]])
        labels = np.array([1, 0], dtype=np.uint8)
        cfg = FitConfig()
        a, b = init_node(pts, labels, cfg)
        for sq in (a, b):
            np.testing.assert_array_equal(sq.size, np.full(3, cfg.a_min))
            np.testing.assert_allclose(sq.translation, [0.2, -0.1, 0.3], atol=1e-12)

    def test_symmetric_cloud_gives_symmetric_pair(self):
        rng = np.random.default_rng(61)
        half = rng.uniform(-0.4, 0.4, (2000, 3))
        pts = np.vstack([half, -half])  # exactly symmetric about the origin
        a, b = init_node(pts, np.ones(len(pts), dtype=np.uint8), FitConfig())
        np.testing.assert_allclose(a.translation + b.translation, 0.0, atol=1e-9)
        np.testing.assert_array_equal(a.size, b.size)

    def test_coincident_restarts_share_center(self):
        rng = np.random.default_rng(62)
        pts = rng.uniform(-0.5, 0.5, (500, 3))
        labels = np.ones(500, dtype=np.uint8)
        for r in (1, 2, 3):
            a, b = init_node(pts, labels, FitConfig(), restart=r)
            np.testing.assert_array_equal(a.translation, b.translation)
            np.testing.assert_array_equal(a.size, b.size)

    def test_jittered_restart_requires_rng(self):
        pts = np.zeros((3, 3)) + [0.1, 0.2, 0.3]
        with pytest.raises(ValueError):
            init_node(pts, np.ones(3, dtype=np.uint8), FitConfig(), restart=4, rng=None)

    def test_no_inside_points_rejected(self):
        with pytest.raises(ValueError):
            init_node(np.zeros((5, 3)), np.zeros(5, dtype=np.uint8), FitConfig())


def batch_loss_and_grad(sq_a, sq_b, pts, y, sharpness):
    """``_PairBatch.evaluate`` of one pair: (loss, grad_a, grad_b)."""
    (loss,), grads = _PairBatch(pts, y, sharpness, 1).evaluate(_pair_rows([(sq_a, sq_b)]))
    return loss, grads[0], grads[1]


class TestPairGradient:
    def test_matches_finite_differences_in_situ(self):
        """The 22-parameter loss gradient agrees with central differences on
        random mid-fit configurations. Points near the max switch, the log
        clamp, or the coordinate planes are excluded: the loss is not
        differentiable there and the subgradient convention takes over."""
        rng = np.random.default_rng(63)
        sharpness = 10.0
        checked = 0
        worst = 0.0
        while checked < 100:
            sq_a = random_superquadric(rng)
            sq_b = random_superquadric(rng)
            pts = rng.uniform(-0.8, 0.8, (60, 3))
            y = (rng.random(60) < 0.5).astype(np.float64)
            ga = occupancy(sq_a, pts, OccupancyConfig(sharpness))
            gb = occupancy(sq_b, pts, OccupancyConfig(sharpness))
            from sqdecomp import world_to_local

            ok = (
                (np.abs(ga - gb) > 1e-3)
                & (np.maximum(ga, gb) > 1e-10)
                & (np.maximum(ga, gb) < 1.0 - 1e-10)
                & (np.abs(world_to_local(sq_a, pts)) > 1e-3).all(axis=1)
                & (np.abs(world_to_local(sq_b, pts)) > 1e-3).all(axis=1)
            )
            if ok.sum() < 20:
                continue
            pts, y = pts[ok], y[ok]
            _, grad_a, grad_b = batch_loss_and_grad(sq_a, sq_b, pts, y, sharpness)
            analytic = np.concatenate([grad_a, grad_b])
            step = 1e-6
            numeric = np.empty(22)
            for k in range(22):
                sq, other, idx = (sq_a, sq_b, k) if k < 11 else (sq_b, sq_a, k - 11)
                hi = perturbed(sq, idx, +step)
                lo = perturbed(sq, idx, -step)
                if k < 11:
                    up = node_loss(hi, other, pts, y, OccupancyConfig(sharpness))
                    dn = node_loss(lo, other, pts, y, OccupancyConfig(sharpness))
                else:
                    up = node_loss(other, hi, pts, y, OccupancyConfig(sharpness))
                    dn = node_loss(other, lo, pts, y, OccupancyConfig(sharpness))
                numeric[k] = (up - dn) / (2 * step)
            scale = max(np.linalg.norm(numeric), 1e-10)
            worst = max(worst, np.linalg.norm(analytic - numeric) / scale)
            checked += 1
        assert worst < 1e-3, f"worst in-situ gradient error {worst:.2e}"


    @pytest.mark.parametrize("sharpness", [10.0, 50.0])
    def test_active_set_matches_dense_reference(self, sharpness):
        """Differentiating only each point's winning side where the residual
        is not negligible gives the dense kernel's loss and gradient. The
        pairs are mid-fit: two SQs jittered around a ground truth that
        labels the points, plus coincident pairs (every point a tie, h_a ==
        h_b). The points include deep-inside and far-outside ones, each
        under both labels, so the log clamp is active at some of them."""
        rng = np.random.default_rng(75)
        for case in range(12):
            gt = random_superquadric(rng)
            pts = np.vstack([
                rng.uniform(-0.8, 0.8, (600, 3)),
                gt.translation + rng.normal(0.0, 1e-3, (40, 3)),  # deep inside
                gt.translation + rng.normal(0.0, 4.0, (40, 3)),  # far outside
            ])
            y = (inside_outside_stable(gt, pts) < 1.0).astype(np.float64)
            flip = rng.choice(len(pts), 60, replace=False)
            y[flip] = 1.0 - y[flip]
            sq_a, sq_b = (
                Superquadric(
                    np.clip(gt.size * rng.uniform(0.8, 1.2, 3), 0.005, 1.0),
                    np.clip(gt.exponents + rng.normal(0.0, 0.1, 2), 0.1, 1.9),
                    gt.translation + rng.normal(0.0, 0.05, 3),
                    gt.rotation,
                )
                for _ in range(2)
            )
            if case % 3 == 0:
                sq_b = sq_a
            loss, grad_a, grad_b = batch_loss_and_grad(sq_a, sq_b, pts, y, sharpness)
            ref_loss, ref_a, ref_b = pair_loss_and_grad_reference(sq_a, sq_b, pts, y, sharpness)
            assert abs(loss - ref_loss) <= 1e-13 * abs(ref_loss)
            ref = np.concatenate([ref_a, ref_b])
            err = np.linalg.norm(np.concatenate([grad_a, grad_b]) - ref)
            assert err <= 1e-8 * np.linalg.norm(ref)
            if sq_b is sq_a:
                assert not grad_b.any()

    @pytest.mark.parametrize("sharpness", [10.0, 50.0])
    def test_batch_is_each_pair_alone_bitwise(self, sharpness):
        """Up to five pairs evaluated together, their active rows in one
        feature call, give each pair bitwise the loss and gradients of the
        one-pair reference; so does a value-only call. This holds in
        float64, the dtype of ``node_loss``, and in the race's."""
        rng = np.random.default_rng(76)
        pts = rng.uniform(-0.6, 0.6, (500, 3))
        gt = random_superquadric(rng)
        y = (inside_outside_stable(gt, pts) < 1.0).astype(np.float64)
        pairs = [(random_superquadric(rng), random_superquadric(rng)) for _ in range(4)]
        pairs.append((pairs[0][0], pairs[0][0]))  # coincident: every point a tie
        for dtype in (np.float64, _RACE_DTYPE):
            batch = _PairBatch(pts, y, sharpness, 5, dtype=dtype)
            for live in (5, 3, 1):
                losses, grads = batch.evaluate(_pair_rows(pairs[-live:]))
                values, _ = batch.evaluate(_pair_rows(pairs[-live:]), grad=False)
                for j, (sq_a, sq_b) in enumerate(pairs[-live:]):
                    loss, grad_a, grad_b = pair_loss_and_grad(
                        sq_a, sq_b, pts, y, sharpness, dtype=dtype
                    )
                    assert losses[j] == loss and values[j] == loss
                    assert np.array_equal(grads[2 * j], grad_a)
                    assert np.array_equal(grads[2 * j + 1], grad_b)


class TestFitNode:
    def test_all_outside_labels_give_degenerate_sentinel(self):
        rng = np.random.default_rng(64)
        pts = rng.uniform(-0.5, 0.5, (200, 3))
        cfg = FitConfig(iterations=50, restarts=1)
        fit = fit_node(pts, np.zeros(200, dtype=np.uint8), cfg)
        assert fit.degenerate
        assert fit.iterations == 0
        np.testing.assert_array_equal(fit.sq_a.size, np.full(3, cfg.a_min))
        np.testing.assert_allclose(fit.sq_a.translation, pts.mean(axis=0), atol=1e-12)

    def test_final_loss_not_above_canonical_start(self):
        rng = np.random.default_rng(65)
        gt = Superquadric(np.array([0.3, 0.2, 0.25]), np.ones(2), np.array([0.05, 0.0, 0.0]))
        pts = rng.uniform(-0.6, 0.6, (3000, 3))
        labels = (inside_outside_stable(gt, pts) < 1.0).astype(np.uint8)
        cfg = FitConfig(iterations=120, restarts=2, sharpness=20.0, step_size=0.005)
        fit = fit_node(pts, labels, cfg)
        start = init_node(pts, labels, cfg, restart=0)
        assert fit.loss <= node_loss(*start, pts, labels, OccupancyConfig(cfg.sharpness)) + 1e-12

    def test_recovers_single_ellipsoid_to_99_percent_accuracy(self):
        """Labels generated by one ellipsoid are matched almost pointwise by
        the best of the fitted pair."""
        rng = np.random.default_rng(66)
        gt = Superquadric(np.array([0.3, 0.2, 0.25]), np.ones(2), np.array([0.05, -0.02, 0.0]))
        pts = rng.uniform(-0.6, 0.6, (4000, 3))
        labels = (inside_outside_stable(gt, pts) < 1.0).astype(np.uint8)
        cfg = FitConfig(iterations=300, restarts=2, sharpness=50.0, step_size=0.005, seed=0)
        fit = fit_node(pts, labels, cfg)
        pred_a = inside_outside_stable(fit.sq_a, pts) < 1.0
        pred_b = inside_outside_stable(fit.sq_b, pts) < 1.0
        accuracy = max(
            np.mean((pred_a | pred_b) == labels.astype(bool)),
            np.mean(pred_a == labels.astype(bool)),
            np.mean(pred_b == labels.astype(bool)),
        )
        assert accuracy >= 0.99

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(67)
        pts = rng.uniform(-0.5, 0.5, (800, 3))
        labels = (np.linalg.norm(pts, axis=1) < 0.3).astype(np.uint8)
        cfg = FitConfig(iterations=60, restarts=3, seed=5)
        one = fit_node(pts, labels, cfg)
        two = fit_node(pts, labels, cfg)
        np.testing.assert_array_equal(one.sq_a.params(), two.sq_a.params())
        np.testing.assert_array_equal(one.sq_b.params(), two.sq_b.params())
        assert one.loss == two.loss

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            fit_node(np.zeros((0, 3)), np.zeros(0), FitConfig())

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_label_outside_zero_one_rejected(self, bad):
        rng = np.random.default_rng(69)
        pts = rng.uniform(-0.5, 0.5, (50, 3))
        labels = (np.linalg.norm(pts, axis=1) < 0.3).astype(np.float64)
        labels[7] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            fit_node(pts, labels, FitConfig(iterations=2, restarts=1))

    def test_all_labels_two_rejected_as_labels(self):
        """All-2 labels used to fail later, in init_node, for want of an
        inside point."""
        pts = np.random.default_rng(69).uniform(-0.5, 0.5, (50, 3))
        with pytest.raises(ValueError, match="0 or 1"):
            fit_node(pts, np.full(50, 2, dtype=np.uint8), FitConfig(iterations=2, restarts=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, bad):
        """A NaN or infinite point used to make fit_node return the start
        pair with an infinite loss."""
        pts = np.random.default_rng(69).uniform(-0.5, 0.5, (200, 3))
        pts[11, 1] = bad
        labels = (np.linalg.norm(pts, axis=1) < 0.3).astype(np.uint8)
        with pytest.raises(ValueError, match="finite"):
            fit_node(pts, labels, FitConfig(iterations=2, restarts=1))

    @pytest.mark.parametrize("columns", [2, 4])
    def test_points_not_n_by_3_rejected(self, columns):
        pts = np.random.default_rng(69).uniform(-0.5, 0.5, (200, columns))
        labels = (np.linalg.norm(pts, axis=1) < 0.3).astype(np.uint8)
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            fit_node(pts, labels, FitConfig(iterations=2, restarts=1))

    @pytest.mark.skipif(sys.platform != "linux", reason="reads Linux minor-fault counts")
    def test_iterations_reuse_field_buffers(self):
        """The pair kernel writes into one per-node workspace, so iterations
        do not fault fresh pages in: 200 iterations at 8k points stay far
        below the ~46k minor faults that allocating per call costs in 50,
        whether four restarts run in lock step or one runs alone. Each fit
        is the first of a fresh interpreter: glibc raises its mmap threshold
        after the first large free, so only a process's first large fit
        shows a per-iteration allocation cycle, and earlier tests would hide
        it here."""
        script = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from sqdecomp import FitConfig, fit_node
            rng = np.random.default_rng(68)
            pts = rng.uniform(-0.6, 0.6, (8000, 3))
            labels = (np.linalg.norm(pts, axis=1) < 0.4).astype(np.uint8)
            cfg = FitConfig(iterations=200, restarts=int(sys.argv[1]))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            fit_node(pts, labels, cfg)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = os.path.dirname(os.path.dirname(fitter.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ))
        for restarts in (4, 1):
            done = subprocess.run(
                [sys.executable, "-c", script, str(restarts)],
                env=env, capture_output=True, text=True, check=True,
            )
            faults = int(done.stdout)
            assert faults < 10_000, (
                f"{faults} minor faults in a fresh interpreter's first fit at {restarts} restarts"
            )

    def test_warm_evaluation_allocates_nothing_per_point(self):
        """Every per-point array of an iteration lives in the batch: a warm
        evaluation of four float32 pairs, with or without the gradient,
        has the same tracemalloc peak at 5,000 points as at 20,000. One
        float32 temporary per point would add 60 KB at the larger size.
        The start pairs leave about half of the points active."""
        peaks = {}
        for n in (5000, 20_000):
            rng = np.random.default_rng(69)
            pts = rng.uniform(-0.6, 0.6, (n, 3))
            labels = (np.linalg.norm(pts, axis=1) < 0.4).astype(np.uint8)
            cfg = FitConfig()
            rows = _pair_rows([init_node(pts, labels, cfg, restart=r) for r in range(4)])
            batch = _PairBatch(pts, labels, cfg.sharpness, 4, dtype=_RACE_DTYPE)
            for grad in (True, False):
                batch.evaluate(rows, grad)
                tracemalloc.start()
                try:
                    batch.evaluate(rows, grad)
                    peaks[grad, n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[True, 5000] == peaks[True, 20_000], peaks
        assert peaks[False, 5000] == peaks[False, 20_000], peaks

    def test_diverging_fit_names_node_restart_iteration_and_step_size(self):
        """A step size that makes every restart diverge used to fail with the
        quaternion normalizer's message alone; the error now says where the
        fit diverged and at what step size, and keeps the check's message."""
        pts, labels = race_problem(80, 300)
        cfg = FitConfig(iterations=5, restarts=2, step_size=1e300)
        with pytest.raises(ValueError) as info:
            fit_node(pts, labels, cfg, node=(2, 1))
        assert str(info.value) == (
            "node (2, 1), restart 0 diverged at iteration 0 with step_size 1e+300: "
            "cannot normalize a zero or non-finite quaternion"
        )

    def test_divergence_names_the_first_failing_live_restart(self):
        """When only restart 2's new translation is not finite, the error
        names restart 2 (the second row, after the cut dropped restart 1)
        and the iteration, with the message Superquadric gives for its
        parameters."""
        pts, labels = race_problem(80, 300)
        cfg = FitConfig(iterations=10, restarts=3)
        starts = [init_node(pts, labels, cfg, restart=r) for r in (0, 2)]
        grads = np.zeros((4, 11))
        grads[3, 6] = np.inf  # restart 2, sq_b, t2
        with pytest.raises(ValueError) as info:
            fitter._step(
                cfg, (3, 2), 4, np.array([0, 2]), _pair_rows(starts), np.zeros((2, 22)), grads
            )
        assert str(info.value) == (
            "node (3, 2), restart 2 diverged at iteration 4 with step_size 0.01: "
            "superquadric parameters must be finite"
        )


def race_problem(seed: int, n: int):
    """n points in a cube, labelled by two overlapping ellipsoids."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.5, 0.5, (n, 3))
    centre = rng.uniform(-0.1, 0.1, 3)
    radii = rng.uniform(0.15, 0.3, 3)
    inside = (
        (np.linalg.norm((pts - centre - [0.15, 0, 0]) / radii, axis=1) < 1)
        | (np.linalg.norm((pts - centre + [0.15, 0, 0]) / radii[::-1], axis=1) < 1)
    )
    labels = inside.astype(np.uint8)
    labels[0] = 1  # at least one inside point
    return pts, labels


def reference_survivors(losses, cfg: FitConfig):
    """The restarts that run past the cut, by the reference's losses, and
    the cut's iteration (the whole schedule when nothing is cut)."""
    restarts, cut = cfg.restarts, cfg.iterations // 2
    if restarts > 1 and cut > 0:
        ranked = sorted(range(restarts), key=lambda r: (min(losses[r][:cut]), r))
        return sorted(ranked[: (restarts + 1) // 2]), cut
    return list(range(restarts)), cfg.iterations


def reference_support(pts, labels, cfg: FitConfig):
    """The points the race runs on, the reference's per-restart losses
    there, and whether the escape rule fired: the reference runs on the
    support, and the survivors' pairs at the cut are checked against every
    point left out; if one reaches past the support, it runs again on
    every point."""
    support = _support(pts, labels == 1)
    pairs = {}
    _, losses = fit_node_reference(pts, labels, cfg, support=support, iterates=pairs)
    survivors, _ = reference_survivors(losses, cfg)
    cut = cfg.iterations // 2
    if cut and reaches([pairs[r][cut] for r in survivors], pts[~support], cfg.sharpness):
        _, losses = fit_node_reference(pts, labels, cfg)
        return np.ones(len(pts), dtype=bool), losses, True
    return support, losses, False


def race_on_support(pts, labels, cfg: FitConfig):
    """fitter._race on the node's support, the first race fit_node runs."""
    keep = _support(pts, labels == 1)
    outside = None if keep.all() else pts[~keep]
    return _race(pts[keep], labels[keep], cfg, (1, 1), len(pts), outside)


def check_race_against_reference(pts, labels, cfg: FitConfig) -> None:
    """The raced fit_node equals the sequential reference over the
    survivors, bitwise, and reports that pair's loss over every point. The
    race keeps the reference's survivors, ranked at the cut by every
    restart's running best; each survivor's running best is the
    reference's minimum over all the iterations and the scoring pass; the
    iteration count is exact. The reference runs on the node's support
    with the loss divided by the count of all the points, or on every
    point where a survivor reaches past the support at the cut."""
    support, losses, fired = reference_support(pts, labels, cfg)
    restarts, total = cfg.restarts, cfg.iterations
    survivors, cut = reference_survivors(losses, cfg)
    # A refit also counts the cropped race it discarded at the cut.
    discarded = restarts * (total // 2) if fired else 0
    raced = restarts * cut + len(survivors) * (total - cut)
    finals = {
        r: fit_node_reference(pts, labels, cfg, restarts=[r], support=support)[0]
        for r in survivors
    }
    # min keeps the first of equal objectives, as the reference does.
    ref_a, ref_b, _ = min(finals.values(), key=lambda final: final[2])

    fit = fit_node(pts, labels, cfg)
    np.testing.assert_array_equal(fit.sq_a.params(), ref_a.params())
    np.testing.assert_array_equal(fit.sq_b.params(), ref_b.params())
    assert fit.loss == node_loss(ref_a, ref_b, pts, labels, OccupancyConfig(cfg.sharpness))
    assert fit.iterations == discarded + raced

    found, spent = race_on_support(pts, labels, cfg)
    if fired:
        assert found is None and spent == discarded
        found, spent = _race(pts, labels, cfg, (1, 1), len(pts))
    ids, best_loss, _ = found
    assert list(ids) == survivors
    assert list(best_loss) == [finals[r][2] for r in survivors]
    assert spent == raced


class TestRace:
    @pytest.mark.parametrize("iterations", [1, 7, 40])
    def test_one_restart_is_the_reference_bitwise(self, iterations):
        pts, labels = race_problem(80, 300)
        cfg = FitConfig(iterations=iterations, restarts=1, seed=2)
        support = _support(pts, labels == 1)
        (ref_a, ref_b, _), _ = fit_node_reference(pts, labels, cfg, support=support)
        fit = fit_node(pts, labels, cfg)
        np.testing.assert_array_equal(fit.sq_a.params(), ref_a.params())
        np.testing.assert_array_equal(fit.sq_b.params(), ref_b.params())
        assert fit.loss == node_loss(ref_a, ref_b, pts, labels, OccupancyConfig(cfg.sharpness))
        assert fit.iterations == iterations

    @pytest.mark.parametrize("iterations", [1, 2, 7, 40])
    @pytest.mark.parametrize("restarts", [2, 3, 4, 5])
    def test_raced_fit_is_the_reference_over_survivors(self, restarts, iterations):
        pts, labels = race_problem(80, 300)
        check_race_against_reference(
            pts, labels, FitConfig(iterations=iterations, restarts=restarts, seed=5)
        )

    def test_a_cut_winner_changes_the_result(self):
        """On this problem the overall winner of four restarts over 40
        iterations is cut at iteration 20, so the race returns a different
        pair than running every restart to the end; the checks above would
        hold trivially if no cut ever mattered."""
        pts, labels = race_problem(80, 300)
        cfg = FitConfig(iterations=40, restarts=4, seed=5)
        (_, _, ref_objective), _ = fit_node_reference(
            pts, labels, cfg, support=_support(pts, labels == 1)
        )
        (_, best_loss, _), _ = race_on_support(pts, labels, cfg)
        assert best_loss.min() > ref_objective

    def test_one_feature_call_per_iteration_over_every_slot(self, monkeypatch):
        """Each gradient evaluation hands the active rows of all running
        SQs to the kernel in one feature call, in slot order, and a
        value-only one makes none. At four restarts a call holds rows of
        several slots, more rows than the points. The fit is still the
        reference's over the survivors, bitwise."""
        pts, labels = race_problem(81, 300)
        cfg = FitConfig(iterations=40, restarts=4, seed=5)
        calls = []

        def counted(ws, idx, out):
            calls[-1][1].append((ws.n, idx // ws.n))
            return field_gradient(ws, idx, out)

        def evaluate(batch, rows, grad=True):
            calls.append((grad, []))
            return batch_evaluate(batch, rows, grad)

        field_gradient, batch_evaluate = fitter._field_gradient, fitter._PairBatch.evaluate
        with monkeypatch.context() as patch:
            patch.setattr(fitter, "_field_gradient", counted)
            patch.setattr(fitter._PairBatch, "evaluate", evaluate)
            fit_node(pts, labels, cfg)
        assert sum(grad for grad, _ in calls) >= cfg.iterations
        assert all(len(features) == grad for grad, features in calls)
        slots = [(n, slot) for _, features in calls for n, slot in features]
        assert all((np.diff(slot) >= 0).all() for _, slot in slots)
        assert any(len(np.unique(slot)) > 2 and len(slot) > n for n, slot in slots)
        check_race_against_reference(pts, labels, cfg)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(150, 250),
        restarts=st.integers(1, 5),
        iterations=st.integers(1, 30),
        sharpness=st.sampled_from([10.0, 50.0]),
    )
    def test_race_matches_reference_on_random_problems(
        self, seed, n, restarts, iterations, sharpness
    ):
        pts, labels = race_problem(seed, n)
        cfg = FitConfig(
            iterations=iterations, restarts=restarts, sharpness=sharpness, seed=seed
        )
        check_race_against_reference(pts, labels, cfg)


class TestSupport:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_support_holds_every_inside_point_and_only_its_box(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        pts = scale * rng.normal(size=(n, 3))
        inside = rng.random(n) < 0.3
        inside[rng.integers(n)] = True
        support = _support(pts, inside)
        assert support[inside].all()
        lo, hi = pts[inside].min(axis=0), pts[inside].max(axis=0)
        half = 1.5 * (hi - lo) / 2 + 0.02
        offset = np.abs(pts - (lo + hi) / 2)
        tol = 1e-12 * (1.0 + scale)
        assert (offset[support] <= half + tol).all()
        assert (offset[~support] > half - tol).any(axis=1).all()

    def test_single_inside_point_gets_the_margin_box(self):
        centre = np.array([0.1, -0.2, 0.3])
        steps = np.array([
            [0.0, 0.0, 0.0],
            [0.0199, 0.0, 0.0],
            [0.0, -0.0199, 0.0],
            [0.0199, 0.0199, -0.0199],  # a corner of the box, not of a ball
            [0.0201, 0.0, 0.0],
            [0.0, 0.0, -0.0201],
            [0.5, 0.5, 0.5],
        ])
        inside = np.zeros(len(steps), dtype=bool)
        inside[0] = True
        support = _support(centre + steps, inside)
        assert support.tolist() == [True] * 4 + [False] * 3

    @pytest.mark.parametrize("iterations", [1, 7, 25])
    @pytest.mark.parametrize("restarts", [1, 2, 3, 4, 5])
    def test_fit_is_the_reference_on_the_support_over_every_point(self, restarts, iterations):
        """A strict support: fit_node is bitwise the reference run on
        points[support] with the loss divided by all n points, and not the
        one divided by the support's own count. (At one restart and 7 or 25
        iterations the escape rule fires, and the reference runs on every
        point.)"""
        pts, labels = race_problem(81, 300)
        support = _support(pts, labels == 1)
        assert 0 < support.sum() < len(pts) // 2
        cfg = FitConfig(iterations=iterations, restarts=restarts, seed=3)
        check_race_against_reference(pts, labels, cfg)
        (own_a, _, _), _ = fit_node_reference(pts[support], labels[support], cfg)
        assert not np.array_equal(fit_node(pts, labels, cfg).sq_a.params(), own_a.params())

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(50, 250),
        restarts=st.integers(1, 4),
        iterations=st.integers(1, 20),
        sharpness=st.sampled_from([10.0, 50.0]),
    )
    def test_loss_is_the_full_set_loss(self, seed, n, restarts, iterations, sharpness):
        pts, labels = race_problem(seed, n)
        cfg = FitConfig(
            iterations=iterations, restarts=restarts, sharpness=sharpness, seed=seed
        )
        fit = fit_node(pts, labels, cfg)
        assert fit.loss == node_loss(fit.sq_a, fit.sq_b, pts, labels, OccupancyConfig(cfg.sharpness))

    @pytest.mark.parametrize("iterations", [1, 30])
    def test_support_of_every_point_is_the_uncropped_reference(self, iterations):
        rng = np.random.default_rng(82)
        pts = rng.uniform(-0.5, 0.5, (400, 3))
        labels = (np.linalg.norm(pts / [0.45, 0.4, 0.4], axis=1) < 1).astype(np.uint8)
        assert _support(pts, labels == 1).all()
        cfg = FitConfig(iterations=iterations, restarts=1, seed=1)
        (ref_a, ref_b, ref_loss), _ = fit_node_reference(pts, labels, cfg)
        fit = fit_node(pts, labels, cfg)
        np.testing.assert_array_equal(fit.sq_a.params(), ref_a.params())
        np.testing.assert_array_equal(fit.sq_b.params(), ref_b.params())
        (_, best_loss, _), _ = race_on_support(pts, labels, cfg)
        assert best_loss.min() == ref_loss
        assert fit.loss == node_loss(ref_a, ref_b, pts, labels, OccupancyConfig(cfg.sharpness))


def escapes(rows, outside, sharpness) -> int:
    """How many of the ``outside`` points the escape rule of fitter._race
    finds reached by one of the pairs ``rows`` (L, 2, 12)."""
    return int(np.count_nonzero(_union_below(rows, outside, 1.0 + _ESCAPE_MARGIN / sharpness)))


def escape_counts(monkeypatch) -> list:
    """Record how many points every escape check of fitter._race finds
    reached."""
    counts = []
    check = fitter._union_below

    def counted(rows, outside, level):
        mask = check(rows, outside, level)
        counts.append(int(np.count_nonzero(mask)))
        return mask

    monkeypatch.setattr(fitter, "_union_below", counted)
    return counts


class TestEscapeRule:
    @pytest.mark.parametrize("sharpness", [1.0, 10.0, 50.0])
    def test_threshold(self, sharpness):
        """Spheres of radius 0.2 at the origin: h = (r / 0.2)^2, so a point
        is reached below r = 0.2 sqrt(1 + ln(10) / s); by either SQ of any
        row checked, and only by the rows checked."""
        sphere = Superquadric(np.full(3, 0.2), np.ones(2))
        far = Superquadric(np.full(3, 0.2), np.ones(2), np.array([5.0, 0.0, 0.0]))
        limit = 0.2 * np.sqrt(1.0 + _ESCAPE_MARGIN / sharpness)
        radii = limit * np.array([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0])
        outside = (radii[:, None, None] * np.eye(3)).reshape(-1, 3)
        rows = _pair_rows([(far, far), (far, sphere), (sphere, far)])
        assert escapes(rows, outside, sharpness) == 6
        assert escapes(rows[[0, 2]], outside, sharpness) == 6
        assert escapes(rows[[0]], outside, sharpness) == 0

    def test_reaching_pair_refits_on_every_point(self, monkeypatch):
        """At s = 1 a pair that covers the inside points has an occupancy
        above 1/11 out to about 1.8 times its size, past the support's 1.5
        times: the rule fires, and the fit is bitwise the uncropped race,
        not the cropped one."""
        pts, labels = race_problem(81, 300)
        cfg = FitConfig(iterations=20, restarts=3, sharpness=1.0, seed=4)
        support, _, fired = reference_support(pts, labels, cfg)
        assert fired and support.all()
        counts = escape_counts(monkeypatch)
        check_race_against_reference(pts, labels, cfg)
        assert len(counts) == 2 and counts[0] > 0
        cropped = _support(pts, labels == 1)
        _, losses = fit_node_reference(pts, labels, cfg, support=cropped)
        survivors, _ = reference_survivors(losses, cfg)
        (crop_a, _, _), _ = fit_node_reference(
            pts, labels, cfg, restarts=survivors, support=cropped
        )
        assert not np.array_equal(fit_node(pts, labels, cfg).sq_a.params(), crop_a.params())

    def test_refit_counts_the_discarded_race(self):
        """The cropped race runs 3 restarts to the cut at 10 before the rule
        fires; the refit runs 3 x 10 + 2 x 10. All 80 count."""
        pts, labels = race_problem(81, 300)
        cfg = FitConfig(iterations=20, restarts=3, sharpness=1.0, seed=4)
        assert fit_node(pts, labels, cfg).iterations == 80
        _, report = fit_tree(LabeledPointSet(pts, labels), dataclasses.replace(cfg, max_depth=1))
        assert report.iterations == 80

    @pytest.mark.parametrize("restarts", [1, 4])
    def test_unreached_support_keeps_the_cropped_fit(self, monkeypatch, restarts):
        pts, labels = race_problem(80, 300)
        cfg = FitConfig(iterations=40, restarts=restarts, seed=5)
        support, _, fired = reference_support(pts, labels, cfg)
        assert not fired and not support.all()
        counts = escape_counts(monkeypatch)
        check_race_against_reference(pts, labels, cfg)
        assert counts and not any(counts)

    def test_one_iteration_has_no_check(self, monkeypatch):
        pts, labels = race_problem(81, 300)
        counts = escape_counts(monkeypatch)
        fit_node(pts, labels, FitConfig(iterations=1, restarts=2, sharpness=1.0))
        assert counts == []

    def test_criterion_six_shape_ten_recovers(self, monkeypatch):
        """Criterion 6's shape 10 (truth from seed 42, points from seed 110)
        grows out of its support: cropped, it recovered at IoU 0.860; the
        rule refits it on every point, which recovers it."""
        gt_rng = np.random.default_rng(42)
        for _ in range(11):
            gt = Superquadric(
                gt_rng.uniform(0.15, 0.45, 3),
                gt_rng.uniform(0.4, 1.6, 2),
                gt_rng.uniform(-0.1, 0.1, 3),
                quat.normalize(gt_rng.normal(size=4)),
            )
        pt_rng = np.random.default_rng(110)
        grid = surface_points(gt, 40, 40).reshape(-1, 3)
        pts = pt_rng.uniform(-0.6, 0.6, (7000, 3))
        idx = pt_rng.integers(0, len(grid), 3000)
        pts = np.vstack([pts, grid[idx] + pt_rng.normal(0, 0.05, (3000, 3))])
        labels = (inside_outside_stable(gt, pts) < 1.0).astype(np.uint8)
        cfg = FitConfig(max_depth=1, iterations=400, restarts=4, sharpness=50.0, step_size=0.005)
        counts = escape_counts(monkeypatch)
        fit = fit_node(pts, labels, cfg)
        assert counts[0] > 0
        iou = max(
            label_iou((inside_outside_stable(sq, pts) < 1.0).astype(np.uint8), labels)
            for sq in (fit.sq_a, fit.sq_b)
        )
        assert iou >= 0.95


class TestFitTree:
    def small_pointset(self, seed=70, n=1200):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.6, 0.6, (n, 3))
        labels = (np.linalg.norm((pts - [0.1, 0, 0]) / [0.45, 0.25, 0.25], axis=1) < 1).astype(
            np.uint8
        )
        return LabeledPointSet(pts, labels)

    def test_bit_for_bit_determinism(self):
        ps = self.small_pointset()
        cfg = FitConfig(max_depth=2, iterations=40, restarts=2, seed=3)
        t1, r1 = fit_tree(ps, cfg)
        t2, r2 = fit_tree(ps, cfg)
        for key, node in t1.nodes.items():
            np.testing.assert_array_equal(node.sq_a.params(), t2.nodes[key].sq_a.params())
            np.testing.assert_array_equal(node.sq_b.params(), t2.nodes[key].sq_b.params())
        assert r1.node_losses == r2.node_losses

    def test_depth_three_repeat_runs_are_bit_for_bit_equal(self):
        ps = self.small_pointset(seed=71)
        cfg = FitConfig(max_depth=3, iterations=25, restarts=2, seed=4)
        t1, r1 = fit_tree(ps, cfg)
        t2, r2 = fit_tree(ps, cfg)
        assert len(t1.nodes) == 7 and set(t1.nodes) == set(t2.nodes)
        for key, node in t1.nodes.items():
            np.testing.assert_array_equal(node.sq_a.params(), t2.nodes[key].sq_a.params())
            np.testing.assert_array_equal(node.sq_b.params(), t2.nodes[key].sq_b.params())
        assert r1.node_losses == r2.node_losses

    def test_depth_three_shape(self):
        ps = self.small_pointset(seed=72, n=800)
        cfg = FitConfig(max_depth=3, iterations=10, restarts=1, seed=0)
        tree, report = fit_tree(ps, cfg)
        assert len(tree.nodes) == 7
        assert tree.fitted_depth == 3
        assert len(tree.superquadrics_at_level(3)) == 8
        assert len(report.level_iou) == 3
        assert set(report.node_losses) == set(tree.nodes)

    def test_degenerate_root_propagates_to_children(self):
        rng = np.random.default_rng(73)
        ps = LabeledPointSet(rng.uniform(-0.5, 0.5, (300, 3)), np.zeros(300, dtype=np.uint8))
        cfg = FitConfig(max_depth=2, iterations=30, restarts=1)
        _, report = fit_tree(ps, cfg)
        assert sorted(report.degenerate_nodes) == [(1, 1), (2, 1), (2, 2)]
        assert fit_node(ps.points, ps.labels, cfg).iterations == 0

    def test_report_accounting(self):
        ps = self.small_pointset(seed=74, n=600)
        cfg = FitConfig(max_depth=2, iterations=20, restarts=1, seed=1)
        tree, report = fit_tree(ps, cfg)
        np.testing.assert_allclose(
            report.loss_sum, sum(report.node_losses.values()) * len(ps.points), rtol=1e-12
        )
        assert report.wall_time > 0
        fitted = len(tree.nodes) - len(report.degenerate_nodes)
        assert report.iterations == fitted * cfg.iterations
        for v in report.level_iou:
            assert v is None or 0.0 <= v <= 1.0

    def test_fitted_trees_respect_parameter_bounds(self, dumbbell_fit):
        tree, report, _ = dumbbell_fit
        cfg = report.config
        for node in tree.nodes.values():
            for sq in (node.sq_a, node.sq_b):
                assert np.all(sq.size >= cfg.a_min) and np.all(sq.size <= cfg.a_max)
                assert np.all(sq.exponents >= cfg.e_min)
                assert np.all(sq.exponents <= cfg.e_max)
                assert abs(np.linalg.norm(sq.rotation) - 1.0) <= 1e-9

    def test_dumbbell_root_pair_claims_one_box_each(self, dumbbell_fit):
        """The normalized dumbbell has box centers at x = +-1/3; the fitted
        root pair should land one SQ near each."""
        tree, _, _ = dumbbell_fit
        root = tree.node(1, 1)
        centers = sorted([root.sq_a.translation, root.sq_b.translation], key=lambda t: t[0])
        np.testing.assert_allclose(centers[0], [-1 / 3, 0.0, 0.0], atol=0.1)
        np.testing.assert_allclose(centers[1], [1 / 3, 0.0, 0.0], atol=0.1)

    def test_stored_labels_match_recomputation(self, dumbbell_fit):
        tree, _, _ = dumbbell_fit
        derived = recompute_labels(tree)
        for key, node in tree.nodes.items():
            np.testing.assert_array_equal(derived[key], node.labels)
