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
at ``COORD_CLAMP``, and combined with a log-sum-exp, which keeps every
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


# The value-stage arrays the gradient stage reads, per point.
_GRADIENT_INPUTS = (
    "offset", "local", "abs_local", "ln_u", "w1", "w2", "ln_s", "term_xy", "term_z", "ln_f", "h",
)


class FieldWorkspace:
    """Output buffers of :func:`_log_field` for a fixed number of points.

    A caller that evaluates the field many times at the same points (the
    fitter, every iteration) passes one workspace to every call. The kernel
    then writes into the same memory each time instead of allocating about
    6 MB of short-lived arrays per gradient call at 8k points, which the
    allocator returns to the OS and faults back in on the next call. The
    gradient buffers exist only when ``grad`` is set; a gradient over m
    rows uses their first m rows, and ``picked`` holds the value-stage
    inputs of those rows. A workspace must not be shared between threads.
    """

    def __init__(self, n: int, grad: bool = True):
        self.n = n
        self.grad = grad
        self.offset, self.local, self.abs_local, self.ln_u = (
            np.empty((n, 3)) for _ in range(4)
        )
        self.w1, self.w2, self.ln_s, self.term_xy, self.term_z, self.ln_f, self.h, self.gap = (
            np.empty(n) for _ in range(8)
        )
        if grad:
            self.picked = {name: np.empty_like(getattr(self, name)) for name in _GRADIENT_INPUTS}
            self.alpha, self.beta, self.aw1, self.aw2, self.tmp_a, self.tmp_b = (
                np.empty(n) for _ in range(6)
            )
            self.dh_dlnu, self.dh_dlocal, self.world_grad = (
                np.empty((n, 3)) for _ in range(3)
            )
            self.pinned = np.empty((n, 3), dtype=bool)
            self.dh = np.empty((n, 11))


def _logaddexp(x: np.ndarray, y: np.ndarray, out: np.ndarray, gap: np.ndarray) -> None:
    """out = log(exp(x) + exp(y)) = max(x, y) + log1p(exp(-|x - y|)).

    The formula of ``np.logaddexp``, written as whole-array ufuncs (about
    4x faster than its per-element loop); ``gap`` is scratch.
    """
    np.subtract(x, y, out=gap)
    np.abs(gap, out=gap)
    np.negative(gap, out=gap)
    np.exp(gap, out=gap)
    np.log1p(gap, out=gap)
    np.maximum(x, y, out=out)
    np.add(out, gap, out=out)


def _log_field(sq: Superquadric, pts: np.ndarray, grad: bool = False,
               ws: FieldWorkspace | None = None):
    """The one log-space field kernel at world points (n, 3).

    Returns (h, ln_f, local, dh): h = F^e1, ln F, the local coordinates, and
    the (n, 11) gradient of h when ``grad`` is set (else None; see
    :func:`_field_gradient`, which can also differentiate a subset of the
    points afterwards).

    Every intermediate is written into ``ws`` (a fresh workspace when none
    is given), so the returned arrays are views into the workspace: the
    next call with the same workspace overwrites them. The operations and
    their order are those of the plain expressions in the comments, so the
    results do not depend on whether a workspace is reused.
    """
    if ws is None:
        ws = FieldWorkspace(len(pts), grad)
    if ws.n != len(pts) or (grad and not ws.grad):
        raise ValueError(f"workspace for {ws.n} points (grad={ws.grad}) cannot serve "
                         f"{len(pts)} points (grad={grad})")
    rot = sq.rotation_matrix()
    a = sq.size
    e1, e2 = sq.exponents
    offset, local, abs_local, ln_u = ws.offset, ws.local, ws.abs_local, ws.ln_u
    w1, w2, ln_s, term_xy, term_z, ln_f, h = (
        ws.w1, ws.w2, ws.ln_s, ws.term_xy, ws.term_z, ws.ln_f, ws.h
    )

    np.subtract(pts, sq.translation, out=offset)
    np.matmul(offset, rot, out=local)
    # abs_local = max(|local|, COORD_CLAMP); ln_u = log(abs_local / a)
    np.abs(local, out=abs_local)
    np.maximum(abs_local, COORD_CLAMP, out=abs_local)
    np.divide(abs_local, a, out=ln_u)
    np.log(ln_u, out=ln_u)
    np.multiply(2.0 / e2, ln_u[:, 0], out=w1)
    np.multiply(2.0 / e2, ln_u[:, 1], out=w2)
    _logaddexp(w1, w2, ln_s, ws.gap)
    np.multiply(e2 / e1, ln_s, out=term_xy)
    np.multiply(2.0 / e1, ln_u[:, 2], out=term_z)
    _logaddexp(term_xy, term_z, ln_f, ws.gap)
    np.multiply(e1, ln_f, out=h)
    np.exp(h, out=h)
    if not grad:
        return h, ln_f, local, None
    return h, ln_f, local, _field_gradient(sq, ws)


def _field_gradient(sq: Superquadric, ws: FieldWorkspace,
                    rows: np.ndarray | None = None) -> np.ndarray:
    """Gradient of h over the 11 DOF at the points of ``ws``'s last value
    pass for ``sq``: all of them, or only ``rows`` (point indices in range,
    in the order given; they are not bounds-checked).

    Returns ``ws.dh`` or, for m rows, a view of its first m rows.
    Derivatives of h pass through the log-space intermediates; the softmax
    weights alpha, beta (and aw1, aw2 inside the xy term) fall out of
    differentiating logaddexp. Coordinates pinned by the clamp contribute
    zero positional derivative. Each row depends only on its own point, by
    elementwise operations alone, so a row comes out bitwise the same
    whichever rows are asked for.
    """
    if not ws.grad:
        raise ValueError("workspace has no gradient buffers")
    if rows is None:
        m = ws.n
        inputs = (getattr(ws, name) for name in _GRADIENT_INPUTS)
    else:
        # mode="clip" writes straight into the buffer; "raise" would copy
        # through a temporary.
        m = len(rows)
        inputs = (np.take(getattr(ws, name), rows, axis=0, out=ws.picked[name][:m], mode="clip")
                  for name in _GRADIENT_INPUTS)
    offset, local, abs_local, ln_u, w1, w2, ln_s, term_xy, term_z, ln_f, h = inputs
    rot = sq.rotation_matrix()
    a = sq.size
    e1, e2 = sq.exponents
    alpha, beta, aw1, aw2, tmp_a, tmp_b, dh_dlnu, dh_dlocal, world_grad, pinned, dh = (
        buf if m == ws.n else buf[:m]
        for buf in (ws.alpha, ws.beta, ws.aw1, ws.aw2, ws.tmp_a, ws.tmp_b,
                    ws.dh_dlnu, ws.dh_dlocal, ws.world_grad, ws.pinned, ws.dh)
    )
    for out, num, den in ((alpha, term_xy, ln_f), (beta, term_z, ln_f),
                          (aw1, w1, ln_s), (aw2, w2, ln_s)):
        np.subtract(num, den, out=out)
        np.exp(out, out=out)

    # dh_dlnu = [2h alpha aw1, 2h alpha aw2, 2h beta]
    np.multiply(2.0, h, out=tmp_a)
    np.multiply(tmp_a, alpha, out=dh_dlnu[:, 0])
    np.multiply(dh_dlnu[:, 0], aw1, out=dh_dlnu[:, 0])
    np.multiply(tmp_a, alpha, out=dh_dlnu[:, 1])
    np.multiply(dh_dlnu[:, 1], aw2, out=dh_dlnu[:, 1])
    np.multiply(tmp_a, beta, out=dh_dlnu[:, 2])

    # dh_dsize = -dh_dlnu / a
    dh_dsize = dh[:, 0:3]
    np.negative(dh_dlnu, out=dh_dsize)
    np.divide(dh_dsize, a, out=dh_dsize)

    # dh_de1 = h ln_f - (h / e1) (alpha e2 ln_s + 2 beta ln_u_z)
    dh_de1 = dh[:, 3]
    np.multiply(h, ln_f, out=dh_de1)
    np.multiply(alpha, e2, out=tmp_a)
    np.multiply(tmp_a, ln_s, out=tmp_a)
    np.multiply(2.0, beta, out=tmp_b)
    np.multiply(tmp_b, ln_u[:, 2], out=tmp_b)
    np.add(tmp_a, tmp_b, out=tmp_a)
    np.divide(h, e1, out=tmp_b)
    np.multiply(tmp_b, tmp_a, out=tmp_b)
    np.subtract(dh_de1, tmp_b, out=dh_de1)

    # dh_de2 = h alpha (ln_s - (2 / e2) (aw1 ln_u_x + aw2 ln_u_y))
    dh_de2 = dh[:, 4]
    np.multiply(h, alpha, out=dh_de2)
    np.multiply(aw1, ln_u[:, 0], out=tmp_a)
    np.multiply(aw2, ln_u[:, 1], out=tmp_b)
    np.add(tmp_a, tmp_b, out=tmp_a)
    np.multiply(2.0 / e2, tmp_a, out=tmp_a)
    np.subtract(ln_s, tmp_a, out=tmp_a)
    np.multiply(dh_de2, tmp_a, out=dh_de2)

    # dh_dlocal = dh_dlnu * where(|local| > clamp, sign(local) / abs_local, 0);
    # |local| > clamp exactly where abs_local > clamp.
    np.sign(local, out=dh_dlocal)
    np.divide(dh_dlocal, abs_local, out=dh_dlocal)
    np.greater(abs_local, COORD_CLAMP, out=pinned)
    np.logical_not(pinned, out=pinned)
    np.copyto(dh_dlocal, 0.0, where=pinned)
    np.multiply(dh_dlnu, dh_dlocal, out=dh_dlocal)
    # world_grad = dh_dlocal @ rot.T, one column at a time so that no row
    # depends on how many rows there are
    for i in range(3):
        np.multiply(dh_dlocal[:, 0], rot[i, 0], out=world_grad[:, i])
        for j in (1, 2):
            np.multiply(dh_dlocal[:, j], rot[i, j], out=tmp_a)
            np.add(world_grad[:, i], tmp_a, out=world_grad[:, i])

    # dh_dt = -world_grad
    np.negative(world_grad, out=dh[:, 5:8])
    # dh_du = world_grad x offset, in np.cross's order of operations
    g0, g1, g2 = world_grad[:, 0], world_grad[:, 1], world_grad[:, 2]
    o0, o1, o2 = offset[:, 0], offset[:, 1], offset[:, 2]
    for k, (p, q, r, s) in enumerate(((g1, o2, g2, o1), (g2, o0, g0, o2), (g0, o1, g1, o0))):
        np.multiply(p, q, out=dh[:, 8 + k])
        np.multiply(r, s, out=tmp_a)
        np.subtract(dh[:, 8 + k], tmp_a, out=dh[:, 8 + k])
    return dh


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
    _, d = _field_and_radial(sq, pts)
    return d[0] if single else d


def _field_and_radial(sq: Superquadric, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F^e1 and :func:`radial_distance` at points (n, 3), from one
    :func:`_log_field` pass."""
    h, ln_f, local, _ = _log_field(sq, pts)
    r = np.linalg.norm(local, axis=1)
    d = r * np.abs(1.0 - np.exp(-0.5 * sq.exponents[0] * ln_f))
    return h, np.where(r < 1e-12, np.min(sq.size), d)


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
