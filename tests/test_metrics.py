import numpy as np
import pytest

from helpers import random_superquadric
from sqdecomp import (
    EmptyUnionError,
    IoUReport,
    LabeledPointSet,
    SqPairNode,
    SqTree,
    Superquadric,
    icosphere,
    inside_outside_stable,
    iou,
    label_iou,
    level_ious,
    normalize,
    predicted_label,
    sample_labeled_points,
    voxel_iou,
)
from sqdecomp.metrics import voxel_grid


def sphere_sq(r: float) -> Superquadric:
    return Superquadric(np.full(3, r), np.ones(2))


class TestPredictedLabel:
    def test_inside_any_of_several(self):
        sqs = [sphere_sq(0.2), Superquadric(np.full(3, 0.2), np.ones(2), np.array([0.6, 0, 0]))]
        np.testing.assert_array_equal(
            predicted_label(sqs, [[0.0, 0.0, 0.0], [0.6, 0.0, 0.05], [0.0, 0.5, 0.0]]),
            [1, 1, 0],
        )

    def test_surface_point_is_outside_by_strict_threshold(self):
        assert predicted_label([sphere_sq(0.5)], [0.5, 0.0, 0.0])[0] == 0

    def test_empty_sq_list_rejected(self):
        with pytest.raises(ValueError):
            predicted_label([], [0.0, 0.0, 0.0])

    def test_equivalent_to_stable_threshold_for_any_sharpness(self):
        """predicted_label takes no sharpness: it is F^e1 < 1, which is the
        occupancy's g > 0.5 at every sharpness."""
        rng = np.random.default_rng(50)
        for _ in range(4):
            sq = random_superquadric(rng)
            pts = rng.uniform(-1.2, 1.2, (2000, 3))
            h = inside_outside_stable(sq, pts)
            np.testing.assert_array_equal(predicted_label([sq], pts) == 1, h < 1.0)


class TestLabelIoU:
    def test_identical_labels_give_one(self):
        v = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert label_iou(v, v) == 1.0

    def test_disjoint_nonempty_labels_give_zero(self):
        assert label_iou([1, 1, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            p = rng.integers(0, 2, 100)
            t = rng.integers(0, 2, 100)
            if not (p | t).any():
                continue
            assert label_iou(p, t) == label_iou(t, p)

    def test_counts_ratio(self):
        assert label_iou([1, 1, 1, 0], [0, 1, 1, 1]) == pytest.approx(0.5)

    def test_empty_union_raises(self):
        with pytest.raises(EmptyUnionError):
            label_iou(np.zeros(10), np.zeros(10))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            label_iou(np.zeros(4), np.zeros(5))

    def test_bounded_by_unit_interval(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            p = rng.integers(0, 2, 64)
            t = rng.integers(0, 2, 64)
            if not (p | t).any():
                continue
            assert 0.0 <= label_iou(p, t) <= 1.0


class TestSampledIoU:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(53)
        sq = sphere_sq(0.4)
        pts = rng.uniform(-0.6, 0.6, (5000, 3))
        truth = (inside_outside_stable(sq, pts) < 1.0).astype(np.uint8)
        assert iou([sq], LabeledPointSet(pts, truth)) == 1.0

    def test_nested_spheres_match_volume_ratio(self):
        """Predicting a radius-0.3 sphere against radius-0.4 truth gives an
        IoU near the volume ratio (3/4)^3."""
        rng = np.random.default_rng(54)
        pts = rng.uniform(-0.6, 0.6, (200_000, 3))
        truth = (np.linalg.norm(pts, axis=1) < 0.4).astype(np.uint8)
        got = iou([sphere_sq(0.3)], LabeledPointSet(pts, truth))
        assert abs(got - 0.75**3) < 0.01


class TestLevelIoUs:
    def test_one_value_per_complete_level_none_where_undefined(self):
        """All-outside truth: IoU is 0 where a level marks points inside and
        undefined (None) where it marks none; the incomplete level 3 is left
        out."""
        rng = np.random.default_rng(55)
        pts = LabeledPointSet(rng.uniform(-0.5, 0.5, (500, 3)), np.zeros(500, dtype=np.uint8))
        far = Superquadric(np.full(3, 0.01), np.ones(2), np.array([5.0, 0.0, 0.0]))
        tree = SqTree(max_depth=3)
        tree.add_node(SqPairNode(1, 1, far, far))
        tree.add_node(SqPairNode(2, 1, far, sphere_sq(0.3)))
        tree.add_node(SqPairNode(2, 2, far, far))
        tree.add_node(SqPairNode(3, 1, far, far))
        assert level_ious(tree, pts) == [None, 0.0]


class TestVoxelIoU:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            voxel_grid(7)

    def test_grid_covers_sampling_domain(self):
        g = voxel_grid(8)
        assert g.shape == (512, 3)
        step = 1.2 / 8
        np.testing.assert_allclose(g.min(axis=0), -0.6 + step / 2)
        np.testing.assert_allclose(g.max(axis=0), 0.6 - step / 2)

    def test_empty_prediction_gives_zero(self, sphere_mesh):
        far = Superquadric(np.full(3, 0.01), np.ones(2), np.array([5.0, 5.0, 5.0]))
        assert voxel_iou([far], sphere_mesh, resolution=16) == 0.0

    def test_error_shrinks_with_resolution(self):
        """Nested-sphere IoU: the voxel estimate converges on the exact
        volume ratio as the grid refines. The prediction sphere sits strictly
        inside the faceted mesh (its radius is below the mesh inradius), so
        the exact IoU is sphere volume over mesh volume, the latter computed
        by the divergence theorem."""
        mesh = normalize(icosphere(radius=0.4, subdivisions=2))  # radius 0.5 once normalized
        pred = [sphere_sq(0.45)]
        tri = mesh.vertices[mesh.triangles]
        mesh_volume = abs(
            np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0
        )
        exact = (4.0 / 3.0) * np.pi * 0.45**3 / mesh_volume
        coarse = voxel_iou(pred, mesh, resolution=8)
        fine = voxel_iou(pred, mesh, resolution=64)
        assert abs(fine - exact) < abs(coarse - exact) + 0.005
        assert abs(fine - exact) < 0.02

    def test_agrees_with_sampled_estimate(self, sphere_mesh):
        """The two estimators see the same shape through different samples."""
        pred = [sphere_sq(0.42)]
        ps = sample_labeled_points(sphere_mesh, 0, 100_000, seed=17)
        assert abs(iou(pred, ps) - voxel_iou(pred, sphere_mesh, resolution=64)) < 0.02


class TestIoUReport:
    def test_tsv_line_formats_percentages(self):
        rep = IoUReport(per_level=[0.5787, 0.9012], sample_count=1000, method="sampled", seed=3)
        assert rep.tsv_line() == "57.9%\t90.1%"

    def test_tsv_line_marks_undefined_levels(self):
        rep = IoUReport(per_level=[0.25, None], sample_count=10, method="sampled", seed=0)
        assert rep.tsv_line() == "25.0%\t-"

    def test_json_dict_round_trips_fields(self):
        rep = IoUReport(per_level=[1.0], sample_count=5, method="voxel-oracle", seed=9)
        d = rep.to_json_dict()
        assert d["per_level"] == [1.0]
        assert d["sample_count"] == 5
        assert d["method"] == "voxel-oracle"
        assert d["seed"] == 9
