"""Minimal unit-quaternion helpers.

Conventions used throughout the package:

* scalar-first storage: ``q = [w, x, y, z]``,
* Hamilton product, so ``multiply(q1, q2)`` rotates by q2 first, then q1,
* quaternions act as active rotations: ``world = to_matrix(q) @ local``,
* the exp map takes a rotation vector ``u`` (axis * angle, world frame) to a
  quaternion, which lets optimizers walk the unit sphere via
  ``multiply(from_rotation_vector(step), q)``.

``normalize``, ``multiply``, ``to_matrix`` and ``from_rotation_vector``
also take batches: quaternions as (..., 4) and rotation vectors as (..., 3),
with a result per row (matrices as (..., 3, 3)). Every operation is
elementwise along the batch, so row j of a batched result equals, bit for
bit, the call on row j alone; the fitter retracts all the rotations of a
node's restarts in one call.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, bitwise ``np.linalg.norm`` of
    each row: the dot product runs over contiguous rows, as norm's does
    (a strided dot may sum in another order)."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    return np.sqrt(np.vecdot(v, v))


def normalize(q: np.ndarray) -> np.ndarray:
    """Return q (or every row of a batch) scaled to unit norm."""
    q = np.asarray(q, dtype=np.float64)
    n = norm(q)
    if np.any(n == 0.0) or not np.all(np.isfinite(n)):
        raise ValueError("cannot normalize a zero or non-finite quaternion")
    return q / n[..., None]


# The Hamilton product and the rotation matrix as sums of the pairwise
# products p[4 i + j] = a_i b_j, with components (w, x, y, z) = (0, 1, 2, 3),
# taken term by term in the order of the written-out formulas; a signed
# term is the product times +-1, which is exact. Product:
#   w = w1 w2 - x1 x2 - y1 y2 - z1 z2
#   x = w1 x2 + x1 w2 + y1 z2 - z1 y2
#   y = w1 y2 - x1 z2 + y1 w2 + z1 x2
#   z = w1 z2 + x1 y2 - y1 x2 + z1 w2
_PRODUCT_TERMS = np.array([[0, 5, 10, 15], [1, 4, 11, 14], [2, 7, 8, 13], [3, 6, 9, 12]])
_PRODUCT_SIGNS = np.array([[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]], float)
# Matrix, row-major, each entry 2 (p_a +- p_b) off the diagonal and
# 1 - 2 (p_a + p_b), taken as -2 (p_a + p_b) + 1, on it:
#   1 - 2 (yy + zz)   2 (xy - wz)       2 (xz + wy)
#   2 (xy + wz)       1 - 2 (xx + zz)   2 (yz - wx)
#   2 (xz - wy)       2 (yz + wx)       1 - 2 (xx + yy)
_MATRIX_TERMS = np.array([[10, 6, 7, 6, 5, 11, 7, 11, 5], [15, 3, 2, 3, 15, 1, 2, 1, 10]])
_MATRIX_SIGNS = np.array([1, -1, 1, 1, 1, -1, -1, 1, 1], float)
_MATRIX_SCALES = np.array([-2, 2, 2, 2, -2, 2, 2, 2, -2], float)
_DIAGONAL = _MATRIX_SCALES < 0


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., 16) products a_i b_j at 4 i + j of quaternions (..., 4)."""
    p = np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :]
    return p.reshape(p.shape[:-2] + (16,))


def multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2."""
    terms = np.take(_products(q1, q2), _PRODUCT_TERMS, axis=-1) * _PRODUCT_SIGNS
    out = terms[..., 0] + terms[..., 1]
    out += terms[..., 2]
    out += terms[..., 3]
    return out


def to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (active, world = R @ local)."""
    terms = np.take(_products(q, q), _MATRIX_TERMS, axis=-1)
    m = terms[..., 1, :] * _MATRIX_SIGNS
    m += terms[..., 0, :]
    m *= _MATRIX_SCALES
    np.add(m, 1.0, out=m, where=_DIAGONAL)
    return m.reshape(m.shape[:-1] + (3, 3))


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
    angle = norm(u)
    small = angle < 1e-12
    axis = u / np.where(small, 1.0, angle)[..., None]
    half = 0.5 * angle
    q = np.empty(u.shape[:-1] + (4,))
    q[..., 0] = np.cos(half)
    q[..., 1:] = np.sin(half)[..., None] * axis
    if np.any(small):
        # First-order expansion; renormalized so the result stays unit.
        tiny = u[small]
        q[small] = normalize(np.concatenate([np.ones((len(tiny), 1)), 0.5 * tiny], axis=1))
    return q

