import numpy as np
import pytest

from sqdecomp import quaternions as quat


class TestBasics:
    def test_identity_maps_to_identity_matrix(self):
        np.testing.assert_allclose(quat.to_matrix(quat.IDENTITY), np.eye(3), atol=1e-15)

    def test_normalize_returns_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = quat.normalize(rng.normal(size=4))
            np.testing.assert_allclose(np.linalg.norm(q), 1.0, atol=1e-12)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            quat.normalize(np.zeros(4))


class TestMatrixForm:
    def test_rotation_matrices_are_special_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            R = quat.to_matrix(quat.normalize(rng.normal(size=4)))
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)

    def test_multiply_composes_like_matrix_product(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q1 = quat.normalize(rng.normal(size=4))
            q2 = quat.normalize(rng.normal(size=4))
            np.testing.assert_allclose(
                quat.to_matrix(quat.multiply(q1, q2)),
                quat.to_matrix(q1) @ quat.to_matrix(q2),
                atol=1e-12,
            )

    def test_from_matrix_round_trips_up_to_sign(self):
        """from_matrix canonicalizes to w >= 0; compare after sign-fixing."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = quat.normalize(rng.normal(size=4))
            if q[0] < 0:
                q = -q
            np.testing.assert_allclose(quat.from_matrix(quat.to_matrix(q)), q, atol=1e-9)

    def test_from_matrix_handles_near_pi_rotations(self):
        for axis in np.eye(3):
            q = quat.from_axis_angle(axis, np.pi - 1e-7)
            R = quat.to_matrix(q)
            np.testing.assert_allclose(quat.to_matrix(quat.from_matrix(R)), R, atol=1e-9)


class TestExponentialMap:
    def test_zero_vector_gives_identity(self):
        np.testing.assert_allclose(
            quat.from_rotation_vector(np.zeros(3)), quat.IDENTITY, atol=0
        )

    def test_matches_axis_angle_construction(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-3.0, 3.0)
            np.testing.assert_allclose(
                quat.from_rotation_vector(angle * axis),
                quat.from_axis_angle(axis, angle),
                atol=1e-12,
            )

    def test_small_angles_stay_finite_and_unit(self):
        for scale in (1e-20, 1e-13, 1e-8):
            q = quat.from_rotation_vector(np.array([scale, 0.0, 0.0]))
            assert np.all(np.isfinite(q))
            np.testing.assert_allclose(np.linalg.norm(q), 1.0, atol=1e-12)

    def test_quarter_turn_about_z_rotates_x_to_y(self):
        R = quat.to_matrix(quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2))
        np.testing.assert_allclose(R @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)
