"""Superquadric primitives: implicit fields, occupancy, and analytic gradients.

A superquadric is parameterized by 11 degrees of freedom stored as 12 numbers:

* ``size``        a1, a2, a3 > 0, semi-axis lengths,
* ``exponents``   e1, e2 > 0, shape exponents (e1 acts along local z, e2 in
  the local x/y plane),
* ``translation`` t1, t2, t3,
* ``rotation``    unit quaternion, scalar first (w, x, y, z).

The implicit inside-outside field in the local frame is

    F(x, y, z) = ((x/a1)^(2/e2) + (y/a2)^(2/e2))^(e2/e1) + (z/a3)^(2/e1)

with F < 1 inside, F = 1 on the surface, F > 1 outside. Small exponents make
F explode away from the surface, so comparisons and optimization use the
better-behaved ``F^e1`` (same level sets, same side of 1). All field code
works in log space: coordinates are folded to their absolute values, clamped
at ``COORD_CLAMP``, and combined with ``logaddexp``, which keeps every
intermediate finite for any parameters within bounds.

Gradient layout (11 numbers): a1, a2, a3, e1, e2, t1, t2, t3, u1, u2, u3.
The u block is a world-frame rotation tangent: moving along u means replacing
the rotation q by ``exp(u) * q``. Finite-difference checks must use the same
retraction.

Field evaluators accept a single point of shape (3,) or a batch (n, 3) and
return a scalar or an (n,) array to match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import quaternions as quat

COORD_CLAMP = 1e-9

SIZE_BOUNDS = (0.005, 1.0)
EXPONENT_BOUNDS = (0.1, 1.9)

QUATERNION_NORM_TOL = 1e-9


class NonFiniteGradientError(ArithmeticError):
    """An analytic gradient came out NaN or infinite."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Superquadric:
    """One superquadric in world space. Instances are immutable."""

    size: np.ndarray
    exponents: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotation: np.ndarray = field(default_factory=lambda: quat.IDENTITY.copy())

    def __post_init__(self) -> None:
        size = _readonly(self.size)
        exponents = _readonly(self.exponents)
        translation = _readonly(self.translation)
        rotation = _readonly(self.rotation)
        if size.shape != (3,):
            raise ValueError(f"size must have shape (3,), got {size.shape}")
        if exponents.shape != (2,):
            raise ValueError(f"exponents must have shape (2,), got {exponents.shape}")
        if translation.shape != (3,):
            raise ValueError(f"translation must have shape (3,), got {translation.shape}")
        if rotation.shape != (4,):
            raise ValueError(f"rotation must have shape (4,), got {rotation.shape}")
        if not (np.all(np.isfinite(size)) and np.all(np.isfinite(exponents))
                and np.all(np.isfinite(translation)) and np.all(np.isfinite(rotation))):
            raise ValueError("superquadric parameters must be finite")
        if np.any(size <= 0):
            raise ValueError(f"size components must be positive, got {size}")
        if np.any(exponents <= 0):
            raise ValueError(f"exponents must be positive, got {exponents}")
        if abs(np.linalg.norm(rotation) - 1.0) > QUATERNION_NORM_TOL:
            raise ValueError(
                f"rotation must be a unit quaternion, |q| = {np.linalg.norm(rotation)!r}"
            )
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "rotation", rotation)

    def rotation_matrix(self) -> np.ndarray:
        """3x3 active rotation matrix, world = R @ local + t."""
        return quat.to_matrix(self.rotation)

    def params(self) -> np.ndarray:
        """Flat parameter vector (12,): sizes, exponents, translation, quaternion."""
        return np.concatenate([self.size, self.exponents, self.translation, self.rotation])

    @classmethod
    def from_params(cls, p: np.ndarray) -> "Superquadric":
        """Inverse of :meth:`params`."""
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (12,):
            raise ValueError(f"parameter vector must have shape (12,), got {p.shape}")
        return cls(size=p[0:3], exponents=p[3:5], translation=p[5:8], rotation=p[8:12])


@dataclass(frozen=True)
class OccupancyConfig:
    """Settings for the soft occupancy field g = sigmoid(s * (1 - F^e1))."""

    sharpness: float = 10.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sharpness) and self.sharpness > 0):
            raise ValueError(f"sharpness must be positive and finite, got {self.sharpness}")


def _as_points(x) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        if pts.shape != (3,):
            raise ValueError(f"a single point must have shape (3,), got {pts.shape}")
        return pts[None, :], True
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
    return pts, False


def world_to_local(sq: Superquadric, x) -> np.ndarray:
    """Map world points into the superquadric's local frame: R^T (x - t)."""
    pts, single = _as_points(x)
    local = (pts - sq.translation) @ sq.rotation_matrix()
    return local[0] if single else local


def local_to_world(sq: Superquadric, x) -> np.ndarray:
    """Inverse of :func:`world_to_local`: R @ x + t."""
    pts, single = _as_points(x)
    world = pts @ sq.rotation_matrix().T + sq.translation
    return world[0] if single else world


def _log_field(sq: Superquadric, pts: np.ndarray, grad: bool = False):
    """The one log-space field kernel at world points (n, 3).

    Returns (h, ln_f, local, dh): h = F^e1, ln F, the local coordinates, and
    the (n, 11) gradient of h when ``grad`` is set (else None). Derivatives
    of h pass through the log-space intermediates; the softmax weights
    alpha, beta (and aw1, aw2 inside the xy term) fall out of differentiating
    logaddexp. Coordinates pinned by the clamp contribute zero positional
    derivative.
    """
    rot = sq.rotation_matrix()
    offset = pts - sq.translation
    local = offset @ rot
    a = sq.size
    e1, e2 = sq.exponents

    abs_local = np.maximum(np.abs(local), COORD_CLAMP)
    ln_u = np.log(abs_local / a)
    w1 = (2.0 / e2) * ln_u[:, 0]
    w2 = (2.0 / e2) * ln_u[:, 1]
    ln_s = np.logaddexp(w1, w2)
    term_xy = (e2 / e1) * ln_s
    term_z = (2.0 / e1) * ln_u[:, 2]
    ln_f = np.logaddexp(term_xy, term_z)
    h = np.exp(e1 * ln_f)
    if not grad:
        return h, ln_f, local, None

    alpha = np.exp(term_xy - ln_f)
    beta = np.exp(term_z - ln_f)
    aw1 = np.exp(w1 - ln_s)
    aw2 = np.exp(w2 - ln_s)

    two_h = 2.0 * h
    dh_dlnu = np.stack(
        [two_h * alpha * aw1, two_h * alpha * aw2, two_h * beta], axis=1
    )
    dh_dsize = -dh_dlnu / a
    dh_de1 = h * ln_f - (h / e1) * (alpha * e2 * ln_s + 2.0 * beta * ln_u[:, 2])
    dh_de2 = h * alpha * (ln_s - (2.0 / e2) * (aw1 * ln_u[:, 0] + aw2 * ln_u[:, 1]))

    dlnu_dlocal = np.where(np.abs(local) > COORD_CLAMP, np.sign(local) / abs_local, 0.0)
    dh_dlocal = dh_dlnu * dlnu_dlocal
    world_grad = dh_dlocal @ rot.T
    dh_dt = -world_grad
    dh_du = np.cross(world_grad, offset)

    dh = np.concatenate(
        [dh_dsize, dh_de1[:, None], dh_de2[:, None], dh_dt, dh_du], axis=1
    )
    return h, ln_f, local, dh


def inside_outside(sq: Superquadric, x) -> np.ndarray:
    """Raw implicit field F. F < 1 inside, 1 on the surface, > 1 outside.

    F itself can overflow to inf for points far outside a small-exponent
    superquadric; the sign of F - 1 is still meaningful there. Use
    :func:`inside_outside_stable` for anything quantitative.
    """
    pts, single = _as_points(x)
    _, ln_f, _, _ = _log_field(sq, pts)
    with np.errstate(over="ignore"):
        f = np.exp(ln_f)
    return f[0] if single else f


def inside_outside_stable(sq: Superquadric, x) -> np.ndarray:
    """F^e1: same level sets and same side of 1 as F, but bounded growth."""
    pts, single = _as_points(x)
    h, _, _, _ = _log_field(sq, pts)
    return h[0] if single else h


def occupancy(sq: Superquadric, x, cfg: OccupancyConfig = OccupancyConfig()) -> np.ndarray:
    """Soft occupancy g = sigmoid(s * (1 - F^e1)), in (0, 1), 0.5 on the surface."""
    h = inside_outside_stable(sq, x)
    return expit(cfg.sharpness * (1.0 - h))


def radial_distance(sq: Superquadric, x) -> np.ndarray:
    """Radial Euclidean distance |x_local| * |1 - F^(-e1/2)|.

    Measures how far x is from the surface along the ray through the SQ
    center, in the local frame. Exact for spheres. At the exact center the
    formula degenerates, so points with |x_local| < 1e-12 return min(size)
    (the surface distance along the shortest semi-axis). Points within
    ~COORD_CLAMP of the center (but above 1e-12) are distorted by the
    coordinate clamp; callers only consult d(x) outside the surface, where
    this cannot happen.
    """
    pts, single = _as_points(x)
    _, ln_f, local, _ = _log_field(sq, pts)
    r = np.linalg.norm(local, axis=1)
    d = r * np.abs(1.0 - np.exp(-0.5 * sq.exponents[0] * ln_f))
    d = np.where(r < 1e-12, np.min(sq.size), d)
    return d[0] if single else d


def occupancy_gradient(
    sq: Superquadric, x, cfg: OccupancyConfig = OccupancyConfig()
) -> np.ndarray:
    """Analytic gradient of the occupancy g with respect to the 11 DOF.

    Layout: (a1, a2, a3, e1, e2, t1, t2, t3, u1, u2, u3), where u is the
    world-frame rotation tangent (see the module docstring). Returns (11,)
    for a single point or (n, 11) for a batch.
    """
    pts, single = _as_points(x)
    h, _, _, dh = _log_field(sq, pts, grad=True)
    g = expit(cfg.sharpness * (1.0 - h))
    dg_dh = -cfg.sharpness * g * (1.0 - g)
    grad = dg_dh[:, None] * dh
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(
            "occupancy gradient has non-finite components; parameters or points "
            "are outside the numerically supported range"
        )
    return grad[0] if single else grad


def surface_points(sq: Superquadric, n_eta: int, n_omega: int) -> np.ndarray:
    """World-space surface grid of shape (n_eta, n_omega, 3).

    The surface is swept by the standard trigonometric parameterization
    (eta in [-pi/2, pi/2] from pole to pole, omega in [-pi, pi) around the
    z-axis) with signed-power trig terms. The two pole rows are pinned to
    exactly (0, 0, -a3) and (0, 0, +a3) in the local frame, so every row-0
    (and row n_eta-1) entry is an identical point; consumers that need a
    watertight mesh can deduplicate them.
    """
    if n_eta < 3 or n_omega < 3:
        raise ValueError(f"need n_eta >= 3 and n_omega >= 3, got {n_eta}, {n_omega}")
    e1, e2 = sq.exponents
    eta = np.linspace(-np.pi / 2, np.pi / 2, n_eta)
    omega = np.linspace(-np.pi, np.pi, n_omega, endpoint=False)
    ce, se = np.cos(eta), np.sin(eta)
    # cos(+-pi/2) is ~6e-17 in floats, which a small exponent would blow up
    # into a visible ring; pin the poles exactly.
    ce[0] = ce[-1] = 0.0
    se[0], se[-1] = -1.0, 1.0
    cw, sw = np.cos(omega), np.sin(omega)

    def f(t: np.ndarray, e: float) -> np.ndarray:
        return np.sign(t) * np.abs(t) ** e

    fc_eta = f(ce, e1)[:, None]
    fs_eta = f(se, e1)[:, None]
    local = np.empty((n_eta, n_omega, 3))
    local[:, :, 0] = sq.size[0] * fc_eta * f(cw, e2)[None, :]
    local[:, :, 1] = sq.size[1] * fc_eta * f(sw, e2)[None, :]
    local[:, :, 2] = sq.size[2] * fs_eta
    world = local.reshape(-1, 3) @ sq.rotation_matrix().T + sq.translation
    return world.reshape(n_eta, n_omega, 3)
