import numpy as np
import pytest

from helpers import random_pair, random_superquadric
from sqdecomp import (
    SliceSpec,
    Superquadric,
    child_labels,
    inside_outside_stable,
    split_field_2d,
    split_pair,
)
from sqdecomp import quaternions as quat


def sphere_at(x: float) -> Superquadric:
    return Superquadric(np.ones(3), np.ones(2), np.array([x, 0.0, 0.0]))


class TestSplitPair:
    def test_point_inside_only_one_goes_there(self):
        asg = split_pair(sphere_at(-2.0), sphere_at(2.0), [[1.9, 0.0, 0.0]])
        assert not asg.to_a[0]

    def test_equidistant_outside_point_ties_to_a(self):
        asg = split_pair(sphere_at(-2.0), sphere_at(2.0), [[0.0, 1.0, 0.0]])
        assert asg.to_a[0]

    def test_outside_point_goes_to_nearer_surface(self):
        asg = split_pair(sphere_at(-2.0), sphere_at(2.0), [[3.5, 0.0, 0.0]])
        assert not asg.to_a[0]

    def test_identical_pair_all_ties_to_a(self):
        rng = np.random.default_rng(20)
        sq = random_superquadric(rng)
        pts = rng.uniform(-1, 1, (200, 3))
        asg = split_pair(sq, sq, pts)
        assert asg.to_a.all()

    def test_assignment_is_a_total_partition(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b = random_pair(rng)
            pts = rng.uniform(-1.2, 1.2, (200, 3))
            asg = split_pair(a, b, pts)
            assert len(asg) == 200
            assert np.all(asg.to_a | asg.to_b)
            assert not np.any(asg.to_a & asg.to_b)

    def test_containment_is_respected(self):
        """A point strictly inside exactly one SQ is assigned to that SQ."""
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(100):
            a, b = random_pair(rng)
            pts = rng.uniform(-1.2, 1.2, (300, 3))
            ha = inside_outside_stable(a, pts)
            hb = inside_outside_stable(b, pts)
            asg = split_pair(a, b, pts)
            only_a = (ha < 1.0) & (hb > 1.0)
            only_b = (hb < 1.0) & (ha > 1.0)
            assert np.all(asg.to_a[only_a])
            assert np.all(asg.to_b[only_b])
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
        assert not split_pair(a, b, pt).to_a[0]

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
            np.testing.assert_array_equal(moved.to_a, base.to_a)

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        a, b = random_pair(rng)
        pts = rng.uniform(-1, 1, (500, 3))
        np.testing.assert_array_equal(split_pair(a, b, pts).to_a, split_pair(a, b, pts).to_a)


class TestChildLabels:
    def test_all_zero_parent_gives_all_zero_children(self):
        asg = split_pair(sphere_at(-2.0), sphere_at(2.0), np.zeros((8, 3)))
        parent = np.zeros(8, dtype=np.uint8)
        assert not child_labels(parent, asg, "a").any()
        assert not child_labels(parent, asg, "b").any()

    def test_alternating_assignment_masks_parent(self):
        rng = np.random.default_rng(25)
        a, b = random_pair(rng)
        pts = rng.uniform(-1, 1, (10, 3))
        asg = split_pair(a, b, pts)
        parent = np.ones(10, dtype=np.uint8)
        np.testing.assert_array_equal(child_labels(parent, asg, "a"), asg.to_a.astype(np.uint8))
        np.testing.assert_array_equal(child_labels(parent, asg, "b"), asg.to_b.astype(np.uint8))

    def test_children_partition_parent_inside_set(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            a, b = random_pair(rng)
            pts = rng.uniform(-1.2, 1.2, (400, 3))
            parent = (rng.random(400) < 0.5).astype(np.uint8)
            asg = split_pair(a, b, pts)
            ca = child_labels(parent, asg, "a")
            cb = child_labels(parent, asg, "b")
            np.testing.assert_array_equal(ca | cb, parent)
            assert not np.any(ca & cb)
            assert ca.sum() + cb.sum() == parent.sum()

    def test_length_mismatch_rejected(self):
        asg = split_pair(sphere_at(-2.0), sphere_at(2.0), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            child_labels(np.ones(5, dtype=np.uint8), asg, "a")

    def test_unknown_side_rejected(self):
        asg = split_pair(sphere_at(-2.0), sphere_at(2.0), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            child_labels(np.ones(4, dtype=np.uint8), asg, "c")

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
        asg = split_pair(cover(-0.3), cover(0.3), pts)
        np.testing.assert_array_equal(child_labels(parent, asg, "a"), box_a.astype(np.uint8))
        np.testing.assert_array_equal(child_labels(parent, asg, "b"), box_b.astype(np.uint8))


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
        asg = split_pair(a, b, pts.reshape(-1, 3))
        np.testing.assert_array_equal(fld.to_a.ravel(), asg.to_a)
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
        rng = np.random.default_rng(29)
        a, b = random_pair(rng)
        spec = SliceSpec(axis=1, offset=0.05, nu=9, nv=9)
        fld = split_field_2d(a, b, spec)
        _, _, pts = spec.grid()
        np.testing.assert_array_equal(
            fld.h_a, inside_outside_stable(a, pts.reshape(-1, 3)).reshape(9, 9)
        )
