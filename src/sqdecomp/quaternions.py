"""Minimal unit-quaternion helpers.

Conventions used throughout the package:

* scalar-first storage: ``q = [w, x, y, z]``,
* Hamilton product, so ``multiply(q1, q2)`` rotates by q2 first, then q1,
* quaternions act as active rotations: ``world = to_matrix(q) @ local``,
* the exp map takes a rotation vector ``u`` (axis * angle, world frame) to a
  quaternion, which lets optimizers walk the unit sphere via
  ``multiply(from_rotation_vector(step), q)``.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def normalize(q: np.ndarray) -> np.ndarray:
    """Return q scaled to unit norm."""
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize a zero or non-finite quaternion")
    return q / n


def multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (active, world = R @ local)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix, w >= 0.

    Uses the largest-pivot variant of Shepperd's method, stable for all
    rotation angles.
    """
    R = np.asarray(R, dtype=np.float64)
    t = np.trace(R)
    candidates = np.array([t, R[0, 0], R[1, 1], R[2, 2]])
    case = int(np.argmax(candidates))
    if case == 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (R[2, 1] - R[1, 2]) / s,
                (R[0, 2] - R[2, 0]) / s,
                (R[1, 0] - R[0, 1]) / s,
            ]
        )
    elif case == 1:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [
                (R[2, 1] - R[1, 2]) / s,
                0.25 * s,
                (R[0, 1] + R[1, 0]) / s,
                (R[0, 2] + R[2, 0]) / s,
            ]
        )
    elif case == 2:
        s = np.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [
                (R[0, 2] - R[2, 0]) / s,
                (R[0, 1] + R[1, 0]) / s,
                0.25 * s,
                (R[1, 2] + R[2, 1]) / s,
            ]
        )
    else:
        s = np.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2]) * 2.0
        q = np.array(
            [
                (R[1, 0] - R[0, 1]) / s,
                (R[0, 2] + R[2, 0]) / s,
                (R[1, 2] + R[2, 1]) / s,
                0.25 * s,
            ]
        )
    if q[0] < 0:
        q = -q
    return normalize(q)


def from_rotation_vector(u: np.ndarray) -> np.ndarray:
    """Exp map: rotation vector (axis * angle) to unit quaternion."""
    u = np.asarray(u, dtype=np.float64)
    angle = np.linalg.norm(u)
    if angle < 1e-12:
        # First-order expansion; renormalized so the result stays unit.
        return normalize(np.array([1.0, 0.5 * u[0], 0.5 * u[1], 0.5 * u[2]]))
    axis = u / angle
    half = 0.5 * angle
    s = np.sin(half)
    return np.array([np.cos(half), s * axis[0], s * axis[1], s * axis[2]])


def from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion rotating by angle (radians) about axis."""
    axis = normalize(np.asarray(axis, dtype=np.float64))
    half = 0.5 * angle
    s = np.sin(half)
    return np.array([np.cos(half), s * axis[0], s * axis[1], s * axis[2]])
