import numpy as np
import pytest

from helpers import random_pair, random_superquadric
from sqdecomp import (
    SliceSpec,
    SqPairNode,
    Superquadric,
    inside_outside_stable,
    radial_distance,
    split_field_2d,
    split_node,
    split_pair,
)
from sqdecomp import quaternions as quat


def sphere_at(x: float) -> Superquadric:
    return Superquadric(np.ones(3), np.ones(2), np.array([x, 0.0, 0.0]))


def child_labels(sq_a, sq_b, points, parent):
    """Side-a and side-b child labels, from the root's split_node."""
    (_, la), (_, lb) = split_node(SqPairNode(1, 1, sq_a, sq_b), points, parent)
    return la, lb


class TestSplitPair:
    def test_point_inside_only_one_goes_there(self):
        to_a = split_pair(sphere_at(-2.0), sphere_at(2.0), [[1.9, 0.0, 0.0]])
        assert not to_a[0]

    def test_equidistant_outside_point_ties_to_a(self):
        to_a = split_pair(sphere_at(-2.0), sphere_at(2.0), [[0.0, 1.0, 0.0]])
        assert to_a[0]

    def test_outside_point_goes_to_nearer_surface(self):
        to_a = split_pair(sphere_at(-2.0), sphere_at(2.0), [[3.5, 0.0, 0.0]])
        assert not to_a[0]

    def test_identical_pair_all_ties_to_a(self):
        rng = np.random.default_rng(20)
        sq = random_superquadric(rng)
        pts = rng.uniform(-1, 1, (200, 3))
        assert split_pair(sq, sq, pts).all()

    def test_assignment_is_a_total_partition(self):
        """One boolean per point: every point goes to exactly one side."""
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b = random_pair(rng)
            pts = rng.uniform(-1.2, 1.2, (200, 3))
            to_a = split_pair(a, b, pts)
            assert to_a.dtype == bool
            assert to_a.shape == (200,)

    def test_containment_is_respected(self):
        """A point strictly inside exactly one SQ is assigned to that SQ."""
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(100):
            a, b = random_pair(rng)
            pts = rng.uniform(-1.2, 1.2, (300, 3))
            ha = inside_outside_stable(a, pts)
            hb = inside_outside_stable(b, pts)
            to_a = split_pair(a, b, pts)
            only_a = (ha < 1.0) & (hb > 1.0)
            only_b = (hb < 1.0) & (ha > 1.0)
            assert np.all(to_a[only_a])
            assert not np.any(to_a[only_b])
            checked += int(only_a.sum() + only_b.sum())
        assert checked > 1000  # the corpus actually exercised the rule

    def test_point_on_one_surface_goes_to_the_other_it_is_inside(self):
        """(0.5, 0, 0) is on sphere a (h_a is exactly 1) and strictly inside
        sphere b; inside is strict, as in predicted_label, so it goes to b."""
        a = Superquadric(np.full(3, 0.5), np.ones(2))
        b = Superquadric(np.full(3, 0.5), np.ones(2), np.array([0.3, 0.0, 0.0]))
        pt = [[0.5, 0.0, 0.0]]
        assert inside_outside_stable(a, pt)[0] == 1.0
        assert inside_outside_stable(b, pt)[0] < 1.0
        assert not split_pair(a, b, pt)[0]

    def test_rigid_equivariance(self):
        """Moving both SQs and the points by one rigid transform does not
        change who gets which point."""
        rng = np.random.default_rng(23)
        for _ in range(20):
            a, b = random_pair(rng)
            pts = rng.uniform(-1.2, 1.2, (300, 3))
            base = split_pair(a, b, pts)
            q_t = quat.normalize(rng.normal(size=4))
            R = quat.to_matrix(q_t)
            shift = rng.uniform(-0.5, 0.5, 3)
            move = lambda sq: Superquadric(
                sq.size,
                sq.exponents,
                R @ sq.translation + shift,
                quat.normalize(quat.multiply(q_t, sq.rotation)),
            )
            moved = split_pair(move(a), move(b), pts @ R.T + shift)
            np.testing.assert_array_equal(moved, base)

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        a, b = random_pair(rng)
        pts = rng.uniform(-1, 1, (500, 3))
        np.testing.assert_array_equal(split_pair(a, b, pts), split_pair(a, b, pts))


class TestChildLabels:
    """split_node ANDs the parent labels with split_pair's side-a mask for
    the side-a child and with its complement for the side-b child."""

    def test_all_zero_parent_gives_all_zero_children(self):
        parent = np.zeros(8, dtype=np.uint8)
        la, lb = child_labels(sphere_at(-2.0), sphere_at(2.0), np.zeros((8, 3)), parent)
        assert not la.any()
        assert not lb.any()

    def test_alternating_assignment_masks_parent(self):
        rng = np.random.default_rng(25)
        a, b = random_pair(rng)
        pts = rng.uniform(-1, 1, (10, 3))
        to_a = split_pair(a, b, pts)
        la, lb = child_labels(a, b, pts, np.ones(10, dtype=np.uint8))
        np.testing.assert_array_equal(la, to_a.astype(np.uint8))
        np.testing.assert_array_equal(lb, (~to_a).astype(np.uint8))

    def test_children_partition_parent_inside_set(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            a, b = random_pair(rng)
            pts = rng.uniform(-1.2, 1.2, (400, 3))
            parent = (rng.random(400) < 0.5).astype(np.uint8)
            ca, cb = child_labels(a, b, pts, parent)
            assert ca.dtype == cb.dtype == np.uint8
            np.testing.assert_array_equal(ca | cb, parent)
            assert not np.any(ca & cb)
            assert ca.sum() + cb.sum() == parent.sum()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            child_labels(sphere_at(-2.0), sphere_at(2.0), np.zeros((4, 3)),
                         np.ones(5, dtype=np.uint8))

    def test_covering_pair_recovers_two_disjoint_boxes(self):
        """With one box-like SQ over each of two separated boxes, the child
        label sets reproduce the per-box inside sets exactly."""
        rng = np.random.default_rng(27)
        pts = rng.uniform(-0.6, 0.6, (5000, 3))
        in_box = lambda c: np.all(np.abs(pts - c) <= 0.15, axis=1)
        box_a = in_box(np.array([-0.3, 0.0, 0.0]))
        box_b = in_box(np.array([0.3, 0.0, 0.0]))
        parent = (box_a | box_b).astype(np.uint8)
        cover = lambda x: Superquadric(
            np.full(3, 0.17), np.array([0.2, 0.2]), np.array([x, 0.0, 0.0])
        )
        la, lb = child_labels(cover(-0.3), cover(0.3), pts, parent)
        np.testing.assert_array_equal(la, box_a.astype(np.uint8))
        np.testing.assert_array_equal(lb, box_b.astype(np.uint8))


class TestSliceSpec:
    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            SliceSpec(axis=3)

    def test_rejects_inverted_extents(self):
        with pytest.raises(ValueError):
            SliceSpec(u_min=0.5, u_max=-0.5)

    def test_rejects_degenerate_resolution(self):
        with pytest.raises(ValueError):
            SliceSpec(nu=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["offset", "u_min", "u_max", "v_min", "v_max"])
    def test_rejects_non_finite_coordinate(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SliceSpec(**{name: value})

    def test_grid_geometry(self):
        spec = SliceSpec(axis=2, offset=0.25, nu=5, nv=3)
        u, v, pts = spec.grid()
        assert pts.shape == (3, 5, 3)
        np.testing.assert_allclose(pts[..., 2], 0.25)  # fixed plane
        np.testing.assert_allclose(pts[0, :, 0], u)  # u sweeps world x
        np.testing.assert_allclose(pts[:, 0, 1], v)  # v sweeps world y

    def test_axis_zero_maps_u_to_y(self):
        spec = SliceSpec(axis=0, offset=-0.1, nu=4, nv=4)
        u, v, pts = spec.grid()
        np.testing.assert_allclose(pts[..., 0], -0.1)
        np.testing.assert_allclose(pts[0, :, 1], u)
        np.testing.assert_allclose(pts[:, 0, 2], v)


class TestSplitField2d:
    def test_selector_matches_pointwise_rule(self):
        rng = np.random.default_rng(28)
        a, b = random_pair(rng)
        spec = SliceSpec(nu=17, nv=13)
        fld = split_field_2d(a, b, spec)
        _, _, pts = spec.grid()
        np.testing.assert_array_equal(fld.to_a.ravel(), split_pair(a, b, pts.reshape(-1, 3)))
        assert fld.h_a.shape == (13, 17)

    def test_mirrored_spheres_give_mirrored_selector(self):
        """Two equal spheres at +-x: flipping u swaps the sides everywhere
        except the tie column on the axis, which goes to A."""
        a = Superquadric(np.full(3, 0.25), np.ones(2), np.array([-0.3, 0.0, 0.0]))
        b = Superquadric(np.full(3, 0.25), np.ones(2), np.array([0.3, 0.0, 0.0]))
        fld = split_field_2d(a, b, SliceSpec(nu=41, nv=21))
        sel = fld.to_a
        mirrored = ~sel[:, ::-1]
        off_axis = np.abs(fld.u) > 1e-12
        np.testing.assert_array_equal(sel[:, off_axis], mirrored[:, off_axis])
        assert sel[:, np.abs(fld.u) <= 1e-12].all()

    def test_field_values_match_direct_evaluation(self):
        """Both slots of the pair's one field pass are bitwise each SQ's
        own evaluators: F^e1 and the radial distance of a and of b."""
        rng = np.random.default_rng(29)
        spec = SliceSpec(axis=1, offset=0.05, nu=9, nv=9)
        _, _, pts = spec.grid()
        pts = pts.reshape(-1, 3)
        for _ in range(20):
            a, b = random_pair(rng)
            fld = split_field_2d(a, b, spec)
            for got, direct in (
                (fld.h_a, inside_outside_stable(a, pts)),
                (fld.h_b, inside_outside_stable(b, pts)),
                (fld.d_a, radial_distance(a, pts)),
                (fld.d_b, radial_distance(b, pts)),
            ):
                np.testing.assert_array_equal(got, direct.reshape(9, 9))
