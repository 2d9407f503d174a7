"""The twelve acceptance checks, one test per criterion.

Each test prints a single `[criterion N] PASS/FAIL: detail` line (run with
`pytest -s` to see them live; on failure the line appears in the captured
output) and then asserts the stated tolerance.
"""

import time

import numpy as np
import pytest

from helpers import gradient_corpus, occupancy_fd, random_pair, random_superquadric
from sqdecomp import (
    FitConfig,
    LabeledPointSet,
    OccupancyConfig,
    SqPairNode,
    Superquadric,
    export_level_obj,
    fit_node,
    fit_tree,
    inside_outside,
    inside_outside_stable,
    iou,
    label_iou,
    occupancy,
    occupancy_gradient,
    radial_distance,
    recompute_labels,
    sample_labeled_points,
    split_node,
    split_pair,
    surface_points,
    voxel_iou,
    world_to_local,
)
from sqdecomp import quaternions as quat
from sqdecomp.cli import main


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


class TestAcceptance:
    def test_criterion_01_sphere_exactness(self):
        rng = np.random.default_rng(201)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            r = rng.uniform(0.1, 1.0)
            sq = Superquadric(
                np.full(3, r),
                np.ones(2),
                rng.uniform(-0.5, 0.5, 3),
                quat.normalize(rng.normal(size=4)),
            )
            pts = rng.uniform(-1.5, 1.5, (100, 3))
            expected = np.abs(np.linalg.norm(world_to_local(sq, pts), axis=1) - r)
            worst = max(worst, float(np.max(np.abs(radial_distance(sq, pts) - expected))))
        dt = time.perf_counter() - t0
        report(
            1,
            worst <= 1e-12 and dt < 1.0,
            f"max |d - ||x_local| - r|| = {worst:.2e} over 100 spheres x 100 points, {dt:.2f}s",
        )

    def test_criterion_02_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(202)
        cfg = OccupancyConfig(10.0)
        t0 = time.perf_counter()
        worst = 0.0
        for sq, point in gradient_corpus(rng, 1000):
            analytic = occupancy_gradient(sq, point[None, :], cfg)[0]
            numeric = occupancy_fd(sq, point[None, :], cfg, step=1e-5)[0]
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, float(rel))
        dt = time.perf_counter() - t0
        report(
            2,
            worst < 1e-4 and dt < 10.0,
            f"max relative gradient error {worst:.2e} over 1000 pairs, {dt:.1f}s",
        )

    def test_criterion_03_sign_equivalence(self):
        rng = np.random.default_rng(203)
        mismatches = 0
        checked = 0
        for _ in range(100):
            sq = random_superquadric(rng)
            pts = rng.uniform(-1.2, 1.2, (1000, 3))
            f = inside_outside(sq, pts)
            h = inside_outside_stable(sq, pts)
            g = occupancy(sq, pts, OccupancyConfig(10.0))
            keep = np.abs(f - 1.0) >= 1e-12
            raw, stable, soft = f[keep] < 1.0, h[keep] < 1.0, g[keep] > 0.5
            mismatches += int(np.sum(raw != stable) + np.sum(stable != soft))
            checked += int(keep.sum())
        report(
            3,
            mismatches == 0 and checked > 99000,
            f"{mismatches} sign disagreements over {checked} evaluations",
        )

    def split_corpus(self):
        """The shared corpus for criteria 4 and 5: 1000 pairs x 1000 points."""
        rng = np.random.default_rng(204)
        for _ in range(1000):
            sq_a, sq_b = random_pair(rng)
            pts = rng.uniform(-1.2, 1.2, (1000, 3))
            labels = rng.integers(0, 2, 1000).astype(np.uint8)
            yield sq_a, sq_b, pts, labels

    def test_criterion_04_split_partition(self):
        violations = 0
        for sq_a, sq_b, pts, labels in self.split_corpus():
            (_, la), (_, lb) = split_node(SqPairNode(1, 1, sq_a, sq_b), pts, labels)
            if not np.array_equal(la | lb, labels):
                violations += 1
            if np.any(la & lb):
                violations += 1
        report(4, violations == 0, f"{violations} partition violations over 1000 pairs")

    def test_criterion_05_containment_respected(self):
        violations = 0
        decided = 0
        for sq_a, sq_b, pts, _labels in self.split_corpus():
            to_a = split_pair(sq_a, sq_b, pts)
            strictly_a = inside_outside_stable(sq_a, pts) < 1.0
            strictly_b = inside_outside_stable(sq_b, pts) < 1.0
            only_a = strictly_a & ~strictly_b
            only_b = strictly_b & ~strictly_a
            violations += int(np.sum(only_a & ~to_a))
            violations += int(np.sum(only_b & to_a))
            decided += int(only_a.sum() + only_b.sum())
        report(
            5,
            violations == 0 and decided > 0,
            f"{violations} containment violations over {decided} singly-contained points",
        )

    def test_criterion_06_single_sq_recovery(self):
        gt_rng = np.random.default_rng(42)
        cfg = FitConfig(
            max_depth=1, iterations=400, restarts=4, sharpness=50.0, step_size=0.005, seed=0
        )
        t0 = time.perf_counter()
        ious = []
        for k in range(20):
            gt = Superquadric(
                gt_rng.uniform(0.15, 0.45, 3),
                gt_rng.uniform(0.4, 1.6, 2),
                gt_rng.uniform(-0.1, 0.1, 3),
                quat.normalize(gt_rng.normal(size=4)),
            )
            pt_rng = np.random.default_rng(100 + k)
            pts = [pt_rng.uniform(-0.6, 0.6, (7000, 3))]
            grid = surface_points(gt, 40, 40).reshape(-1, 3)
            idx = pt_rng.integers(0, len(grid), 3000)
            pts.append(grid[idx] + pt_rng.normal(0, 0.05, (3000, 3)))
            pts = np.vstack(pts)
            labels = (inside_outside_stable(gt, pts) < 1.0).astype(np.uint8)
            fit = fit_node(pts, labels, cfg)
            best = 0.0
            for sq in (fit.sq_a, fit.sq_b):
                pred = (inside_outside_stable(sq, pts) < 1.0).astype(np.uint8)
                if pred.any():
                    best = max(best, label_iou(pred, labels))
            ious.append(best)
        dt = time.perf_counter() - t0
        ious = np.array(ious)
        successes = int(np.sum(ious >= 0.95))
        report(
            6,
            successes >= 18 and dt < 300.0,
            f"{successes}/20 recoveries at IoU >= 0.95 "
            f"(min {ious.min():.3f}, median {np.median(ious):.3f}), {dt:.0f}s",
        )

    def test_criterion_07_levelwise_refinement_on_dumbbell(self, dumbbell_fit, dumbbell_mesh):
        tree, fit_report, _ = dumbbell_fit
        v1 = voxel_iou(tree.superquadrics_at_level(1), dumbbell_mesh, resolution=64)
        v2 = voxel_iou(tree.superquadrics_at_level(2), dumbbell_mesh, resolution=64)
        report(
            7,
            v2 >= 0.85 and v2 >= v1 - 0.02 and fit_report.wall_time < 120.0,
            f"voxel IoU level 1 {v1:.3f} -> level 2 {v2:.3f}, "
            f"fit took {fit_report.wall_time:.0f}s",
        )

    def test_criterion_08_tree_shape_at_depth_three(self, tmp_path):
        rng = np.random.default_rng(208)
        pts = rng.uniform(-0.6, 0.6, (800, 3))
        labels = (np.linalg.norm(pts, axis=1) < 0.4).astype(np.uint8)
        cfg = FitConfig(max_depth=3, iterations=10, restarts=1, seed=0)
        tree, _ = fit_tree(LabeledPointSet(pts, labels), cfg)
        obj_path = tmp_path / "level_3.obj"
        export_level_obj(tree, 3, obj_path, resolution=6)
        groups = obj_path.read_text().count("g sq_")
        ok = (
            len(tree.nodes) == 7
            and len(tree.superquadrics_at_level(3)) == 8
            and groups == 8
        )
        report(
            8,
            ok,
            f"{len(tree.nodes)} pair nodes, {len(tree.superquadrics_at_level(3))} leaf SQs, "
            f"{groups} OBJ groups",
        )

    def test_criterion_09_estimator_consistency(
        self, sphere_fit, sphere_mesh, dumbbell_fit, dumbbell_mesh
    ):
        gaps = []
        for (tree, _, _), mesh, depth in (
            (sphere_fit, sphere_mesh, 1),
            (dumbbell_fit, dumbbell_mesh, 2),
        ):
            sqs = tree.superquadrics_at_level(depth)
            pointset = sample_labeled_points(mesh, n_surface=0, n_uniform=100000, seed=11)
            gaps.append(abs(iou(sqs, pointset) - voxel_iou(sqs, mesh, resolution=64)))
        rng = np.random.default_rng(209)
        cube_points = rng.uniform(-1.0, 1.0, (100000, 3))
        ball = Superquadric(np.ones(3), np.ones(2))
        ratio = iou([ball], LabeledPointSet(cube_points, np.ones(100000, dtype=np.uint8)))
        analytic_gap = abs(ratio - np.pi / 6.0)
        report(
            9,
            max(gaps) <= 0.02 and analytic_gap <= 0.02,
            f"sampled-vs-voxel gaps {gaps[0]:.4f} (sphere), {gaps[1]:.4f} (dumbbell); "
            f"ball-in-cube {ratio:.4f} vs pi/6 {np.pi / 6:.4f}",
        )

    def test_criterion_10_fit_determinism(self, mesh_dir, tmp_path, capsys):
        argv = [
            "fit",
            str(mesh_dir / "sphere.obj"),
            "--max-depth", "1",
            "--iterations", "80",
            "--restarts", "2",
            "--sharpness", "50",
            "--step-size", "0.005",
            "--samples-uniform", "2000",
            "--samples-surface", "500",
            "--seed", "0",
        ]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(argv + ["--out-dir", str(d1)]) == 0
        assert main(argv + ["--out-dir", str(d2)]) == 0
        capsys.readouterr()
        identical = (d1 / "tree.json").read_bytes() == (d2 / "tree.json").read_bytes()
        report(10, identical, "two identical-flag runs wrote byte-identical tree.json")

    def test_criterion_11_hierarchy_audit(self, sphere_fit, dumbbell_fit):
        mismatched = 0
        nodes = 0
        for tree, _, _ in (sphere_fit, dumbbell_fit):
            derived = recompute_labels(tree)
            for key, node in tree.nodes.items():
                nodes += 1
                if not np.array_equal(derived[key], node.labels):
                    mismatched += 1
        report(
            11,
            mismatched == 0 and nodes >= 4,
            f"{mismatched}/{nodes} nodes disagree with splitter recomputation",
        )

    def test_criterion_12_split_demo_fields(self, tmp_path, capsys):
        assert main(["split-demo", "--preset", "fig3", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()

        def grid(name, cols):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            data = [r.split(",") for r in rows]
            return [np.array([row[c] for row in data], dtype=t).reshape(64, 64)
                    for c, t in cols]

        fa, fb = grid("split_f.csv", [(2, float), (3, float)])
        da, db = grid("split_d.csv", [(2, float), (3, float)])
        (sel,) = grid("split_selector.csv", [(2, "U1")])
        to_a = sel == "A"

        in_a, in_b = fa < 1.0, fb < 1.0
        expected = np.where(
            in_a & ~in_b,
            True,
            np.where(~in_a & in_b, False, np.where(in_a & in_b, fa >= fb, da <= db)),
        )
        pointwise_mismatches = int(np.sum(expected != to_a))

        boundary_violations = 0
        for axis in (0, 1):
            cur = (slice(None), slice(None, -1)) if axis else (slice(None, -1), slice(None))
            nxt = (slice(None), slice(1, None)) if axis else (slice(1, None), slice(None))
            differs = to_a[cur] != to_a[nxt]
            both_inside = in_a[cur] & in_b[cur] & in_a[nxt] & in_b[nxt]
            both_outside = ~in_a[cur] & ~in_b[cur] & ~in_a[nxt] & ~in_b[nxt]
            f_gap = fa - fb
            d_gap = da - db
            boundary_violations += int(
                np.sum(differs & both_inside & (f_gap[cur] * f_gap[nxt] > 0))
            )
            boundary_violations += int(
                np.sum(differs & both_outside & (d_gap[cur] * d_gap[nxt] > 0))
            )
        report(
            12,
            pointwise_mismatches == 0 and boundary_violations == 0,
            f"{pointwise_mismatches} selector mismatches, "
            f"{boundary_violations} boundary cells off the equality locus",
        )
