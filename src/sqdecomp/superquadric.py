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

Field evaluators accept a single point of shape (3,) or a batch (n, 3) of
finite coordinates (:func:`geometry.as_points`) and return a scalar or an
(n,) array to match. Underneath, the one field kernel (:func:`_value_pass`
and :func:`_field_gradient`) works on a structure-of-arrays layout, so that
every ufunc runs over n contiguous values: points as (3, n) and, in a
:class:`FieldWorkspace` of K superquadric slots, vector intermediates as
(3, K, n) and scalar ones as (K, n). A value pass covers a range of slots
from parameter arrays, each slot's scalars broadcast as (slots, 1) columns;
:func:`_log_field` is its one-slot call. A gradient call takes its rows as
per-slot segments and fills each segment's parameters by broadcast. Each
evaluator transposes its points once per call and uses one slot per
superquadric; the fitter puts all the superquadrics of a node's restarts in
the slots of one workspace and passes their parameters as arrays, never as
Superquadric objects. :func:`check_parameters` is the one validity check,
for one superquadric or a batch of parameter rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import quaternions as quat
from .geometry import as_points

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
        check_parameters(size, exponents, translation, rotation)
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


def check_parameters(size, exponents, translation, rotation) -> None:
    """Raise ValueError unless the parameters make a valid superquadric.

    Takes one superquadric's size (3,), exponents (2,), translation (3,)
    and rotation (4,), or the rows of a batch: (..., 3), (..., 2), (..., 3)
    and (..., 4). The checks run in order over all rows: every number
    finite, sizes and exponents positive, and a unit quaternion within
    ``QUATERNION_NORM_TOL``. The message is the one :class:`Superquadric`
    gives for the first row that fails the first failing check.
    """
    if not (np.isfinite(size).all() and np.isfinite(exponents).all()
            and np.isfinite(translation).all() and np.isfinite(rotation).all()):
        raise ValueError("superquadric parameters must be finite")
    for name, values in (("size components", size), ("exponents", exponents)):
        bad = values <= 0
        if bad.any():
            rows = np.reshape(values, (-1, values.shape[-1]))
            first = rows[np.reshape(bad, rows.shape).any(axis=1)][0]
            raise ValueError(f"{name} must be positive, got {first}")
    norm = quat.norm(rotation)
    bad = np.abs(norm - 1.0) > QUATERNION_NORM_TOL
    if bad.any():
        first = np.reshape(norm, -1)[np.reshape(bad, -1)][0]
        raise ValueError(f"rotation must be a unit quaternion, |q| = {first!r}")


@dataclass(frozen=True)
class OccupancyConfig:
    """Settings for the soft occupancy field g = sigmoid(s * (1 - F^e1))."""

    sharpness: float = 10.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sharpness) and self.sharpness > 0):
            raise ValueError(f"sharpness must be positive and finite, got {self.sharpness}")


def world_to_local(sq: Superquadric, x) -> np.ndarray:
    """Map world points into the superquadric's local frame: R^T (x - t)."""
    pts, single = as_points(x)
    local = (pts - sq.translation) @ sq.rotation_matrix()
    return local[0] if single else local


# FieldWorkspace.params holds one column per slot: what the gradient needs
# of the slot's superquadric, with the value pass's own coefficients: the
# parameter row as given, size (3), e1, e2 and translation (3), then 2/e2,
# e2/e1, 2/e1 and the rotation matrix (9, row-major).
_N_PARAMS = 20
# One gradient block as rows of m values: the parameters, offset (3), the
# kept local (3), ln_s, ln_f and h, abs_local (3), ln_u (3), w1, w2,
# term_xy, term_z and two temporaries, dh_dlnu (3), and the 11 gradient
# components.
_BLOCK_PARTS = (_N_PARAMS, 3, 6, 3, 3, 6, 3, 11)
_BLOCK_ROWS = sum(_BLOCK_PARTS)
_BLOCK_SLICES = tuple(
    slice(end - part, end) for part, end in zip(_BLOCK_PARTS, np.cumsum(_BLOCK_PARTS))
)
# A value pass keeps six scratch values per point and slot (vec (3), w1,
# w2, gap) and writes six (local (3), ln_s, ln_f, h).
_VALUE_SCRATCH = 6


class FieldWorkspace:
    """The points and buffers of the field kernel for K superquadric slots.

    A caller that evaluates the field many times at the same points (the
    fitter, every iteration) builds one workspace and passes it to every
    call, so the kernel writes into the same memory each time instead of
    allocating short-lived arrays that the allocator returns to the OS and
    faults back in. The points, checked by :func:`geometry.as_points`, are
    stored once as (3, n); ``single`` says they were given as one point
    (3,). Slot k holds the last value pass of some superquadric: ``local``
    (3, K, n) and ``ln_s``, ``ln_f``, ``h`` (K, n), which is all a gradient
    keeps per point, plus that superquadric's parameters. The value pass's
    other intermediates (offset, abs_local, ln_u, w1, w2, term_xy, term_z)
    live in scratch and are recomputed, bitwise the same, at gradient rows,
    and in a scratch that holds all K slots. With ``grad`` set the scratch
    also holds one gradient block of up to n rows.
    """

    def __init__(self, points, k: int = 1, grad: bool = False):
        pts, self.single = as_points(points)
        n = len(pts)
        self.n, self.k, self.grad = n, k, grad
        self.points = np.ascontiguousarray(pts.T)
        kept = np.empty((6, k, n))
        self.kept = kept.reshape(6, k * n)
        self.local, self.ln_s, self.ln_f, self.h = kept[0:3], kept[3], kept[4], kept[5]
        self.params = np.empty((_N_PARAMS, k))
        # A value pass never overlaps a gradient call, so its scratch is
        # the gradient block.
        rows = max(_BLOCK_ROWS, _VALUE_SCRATCH * k) if grad else _VALUE_SCRATCH * k
        self.scratch = np.empty(rows * n)
        if grad:
            self.point = np.empty(n, dtype=np.intp)
            self.pinned = np.empty(3 * n, dtype=bool)


def _logaddexp(x: np.ndarray, y: np.ndarray, out: np.ndarray, gap: np.ndarray) -> None:
    """out = log(exp(x) + exp(y)) = max(x, y) + log1p(exp(-|x - y|)).

    The formula of ``np.logaddexp``, written as whole-array ufuncs (about
    4x faster than its per-element loop); ``gap`` is scratch. The gap is
    taken as min(x, y) - max(x, y), which in round-to-nearest is exactly
    -|x - y| and saves a pass.
    """
    np.minimum(x, y, out=gap)
    np.maximum(x, y, out=out)
    np.subtract(gap, out, out=gap)
    np.exp(gap, out=gap)
    np.log1p(gap, out=gap)
    np.add(out, gap, out=out)


def _value_pass(ws: FieldWorkspace, params: np.ndarray, rotation: np.ndarray, first: int = 0):
    """The one log-space field kernel: value passes of K superquadrics at
    the workspace's points into slots ``first`` to ``first + K - 1``.

    ``params`` holds one row (K, 8) per superquadric: size (3), exponents
    (2), translation (3); ``rotation`` its unit quaternions (K, 4). Slot k
    receives h = F^e1, ln F and the local coordinates, and the parameters
    its gradient needs. The operations and their order are those of the
    plain expressions in the comments, with each slot's scalars broadcast
    as (K, 1) columns. Every one but the rotation is elementwise, and the
    rotation is one 3x3 matrix product per slot, so a point's values do not
    depend on the other points, the slot, the workspace or which slots
    share the pass.
    """
    count = len(params)
    if not 0 <= first <= first + count <= ws.k:
        raise ValueError(
            f"slots {first} to {first + count - 1} out of range for a workspace of {ws.k}"
        )
    slots = slice(first, first + count)
    # The slots' parameter columns, which the coefficients below are read
    # from: size, e1, e2, translation, 2/e2, e2/e1, 2/e1, rotation matrix.
    prm = ws.params[:, slots]
    prm[0:8] = params.T
    np.divide(2.0, prm[4], out=prm[8])
    np.divide(prm[4], prm[3], out=prm[9])
    np.divide(2.0, prm[3], out=prm[10])
    rot = quat.to_matrix(rotation)
    prm[11:20] = rot.reshape(count, 9).T
    cols = prm[:, :, None]
    a, (e1, e2), t, (c2e2, ce2e1, c2e1) = cols[0:3], cols[3:5], cols[5:8], cols[8:11]
    scratch = ws.scratch[:_VALUE_SCRATCH * count * ws.n].reshape(_VALUE_SCRATCH, count, ws.n)
    vec, (w1, w2, gap) = scratch[0:3], scratch[3:6]
    local, ln_s, ln_f, h = ws.local[:, slots], ws.ln_s[slots], ws.ln_f[slots], ws.h[slots]

    # local = R^T (x - t)
    np.subtract(ws.points[:, None, :], t, out=vec)
    np.matmul(rot.transpose(0, 2, 1), vec.transpose(1, 0, 2), out=local.transpose(1, 0, 2))
    # vec = ln_u = log(max(|local|, COORD_CLAMP) / a)
    np.abs(local, out=vec)
    np.maximum(vec, COORD_CLAMP, out=vec)
    np.divide(vec, a, out=vec)
    np.log(vec, out=vec)
    # ln_s = logaddexp(w1, w2), w = (2 / e2) ln_u_xy
    np.multiply(c2e2, vec[0], out=w1)
    np.multiply(c2e2, vec[1], out=w2)
    _logaddexp(w1, w2, ln_s, gap)
    # ln_f = logaddexp(term_xy, term_z), term_xy = (e2 / e1) ln_s, term_z = (2 / e1) ln_u_z
    np.multiply(ce2e1, ln_s, out=w1)
    np.multiply(c2e1, vec[2], out=w2)
    _logaddexp(w1, w2, ln_f, gap)
    # h = exp(e1 ln_f)
    np.multiply(e1, ln_f, out=h)
    np.exp(h, out=h)


def _log_field(sq: Superquadric, ws: FieldWorkspace, k: int = 0):
    """The value pass of one superquadric into slot ``k``.

    Returns (h, ln_f, local): h = F^e1 (n,), ln F (n,) and the local
    coordinates (3, n), as views of slot k that the next pass into that
    slot overwrites. A pass also overwrites the last gradient block.
    """
    p = sq.params()
    _value_pass(ws, p[None, :8], p[None, 8:], k)
    return ws.h[k], ws.ln_f[k], ws.local[:, k]


def _field_gradient(ws: FieldWorkspace, idx: np.ndarray, slots, counts) -> np.ndarray:
    """Gradient of h over the 11 DOF at rows of the slots' last value passes.

    ``idx`` holds flat indices ``k * n + i`` (slot k, point i; in range,
    not bounds-checked), at most n of them, as consecutive segments: the
    j-th segment holds ``counts[j]`` rows, all of slot ``slots[j]``, in any
    order. Returns an (m, 11) view into the workspace that the next
    gradient call or value pass overwrites, row j the gradient at
    ``idx[j]``. The block is computed as (rows, m) arrays, each segment's
    superquadric parameters broadcast over its rows, and copied to
    row-major once at the end.

    Derivatives of h pass through the log-space intermediates; the softmax
    weights alpha, beta (and aw1, aw2 inside the xy term) fall out of
    differentiating logaddexp. Coordinates pinned by the clamp contribute
    zero positional derivative. Each row depends only on its own point and
    slot, by elementwise operations alone, so a row comes out bitwise the
    same whichever rows share the call.
    """
    if not ws.grad:
        raise ValueError("workspace has no gradient buffers")
    n, m = ws.n, len(idx)
    if m > n:
        raise ValueError(f"{m} gradient rows exceed the block size {n}")
    blk = ws.scratch[:_BLOCK_ROWS * m].reshape(_BLOCK_ROWS, m)
    prm, offset, kept, abs_local, ln_u, scalars, dh_dlnu, dh_t = (blk[s] for s in _BLOCK_SLICES)
    point = ws.point[:m]
    end = 0
    for k, count in zip(slots, counts):
        rows = slice(end, end + count)
        prm[:, rows] = ws.params[:, k, None]
        np.subtract(idx[rows], k * n, out=point[rows])
        end += count
    if end != m:
        raise ValueError(f"segments hold {end} rows, not {m}")
    # mode="clip" writes straight into the buffer; "raise" would copy
    # through a temporary.
    np.take(ws.points, point, axis=1, out=offset, mode="clip")
    np.take(ws.kept, idx, axis=1, out=kept, mode="clip")
    a, (e1, e2), t, (c2e2, ce2e1, c2e1), rot = (
        prm[0:3], prm[3:5], prm[5:8], prm[8:11], prm[11:20]
    )
    local, (ln_s, ln_f, h) = kept[0:3], kept[3:6]
    w1, w2, term_xy, term_z, tmp_a, tmp_b = scalars

    # The value pass again: offset = x - t, abs_local, ln_u, w1, w2, term_xy, term_z
    np.subtract(offset, t, out=offset)
    np.abs(local, out=abs_local)
    np.maximum(abs_local, COORD_CLAMP, out=abs_local)
    np.divide(abs_local, a, out=ln_u)
    np.log(ln_u, out=ln_u)
    np.multiply(c2e2, ln_u[0], out=w1)
    np.multiply(c2e2, ln_u[1], out=w2)
    np.multiply(ce2e1, ln_s, out=term_xy)
    np.multiply(c2e1, ln_u[2], out=term_z)

    # alpha, beta, aw1, aw2 in place of term_xy, term_z, w1, w2
    for num, den in ((term_xy, ln_f), (term_z, ln_f), (w1, ln_s), (w2, ln_s)):
        np.subtract(num, den, out=num)
        np.exp(num, out=num)
    alpha, beta, aw1, aw2 = term_xy, term_z, w1, w2

    # dh_dlnu = [2h alpha aw1, 2h alpha aw2, 2h beta]
    np.multiply(2.0, h, out=tmp_a)
    np.multiply(tmp_a, alpha, out=dh_dlnu[0])
    np.multiply(dh_dlnu[0], aw1, out=dh_dlnu[0])
    np.multiply(tmp_a, alpha, out=dh_dlnu[1])
    np.multiply(dh_dlnu[1], aw2, out=dh_dlnu[1])
    np.multiply(tmp_a, beta, out=dh_dlnu[2])

    # dh_dsize = -dh_dlnu / a
    dh_dsize = dh_t[0:3]
    np.negative(dh_dlnu, out=dh_dsize)
    np.divide(dh_dsize, a, out=dh_dsize)

    # dh_de1 = h ln_f - (h / e1) (alpha e2 ln_s + 2 beta ln_u_z)
    dh_de1 = dh_t[3]
    np.multiply(h, ln_f, out=dh_de1)
    np.multiply(alpha, e2, out=tmp_a)
    np.multiply(tmp_a, ln_s, out=tmp_a)
    np.multiply(2.0, beta, out=tmp_b)
    np.multiply(tmp_b, ln_u[2], out=tmp_b)
    np.add(tmp_a, tmp_b, out=tmp_a)
    np.divide(h, e1, out=tmp_b)
    np.multiply(tmp_b, tmp_a, out=tmp_b)
    np.subtract(dh_de1, tmp_b, out=dh_de1)

    # dh_de2 = h alpha (ln_s - (2 / e2) (aw1 ln_u_x + aw2 ln_u_y))
    dh_de2 = dh_t[4]
    np.multiply(h, alpha, out=dh_de2)
    np.multiply(aw1, ln_u[0], out=tmp_a)
    np.multiply(aw2, ln_u[1], out=tmp_b)
    np.add(tmp_a, tmp_b, out=tmp_a)
    np.multiply(c2e2, tmp_a, out=tmp_a)
    np.subtract(ln_s, tmp_a, out=tmp_a)
    np.multiply(dh_de2, tmp_a, out=dh_de2)

    # dh_dlocal = dh_dlnu * where(|local| > clamp, sign(local) / abs_local, 0),
    # in place of ln_u; |local| > clamp exactly where abs_local > clamp.
    dh_dlocal = ln_u
    pinned = ws.pinned[:3 * m].reshape(3, m)
    np.sign(local, out=dh_dlocal)
    np.divide(dh_dlocal, abs_local, out=dh_dlocal)
    np.greater(abs_local, COORD_CLAMP, out=pinned)
    np.logical_not(pinned, out=pinned)
    np.copyto(dh_dlocal, 0.0, where=pinned)
    np.multiply(dh_dlnu, dh_dlocal, out=dh_dlocal)
    # world_grad = rot dh_dlocal, in place of abs_local, term by term in
    # the order of the row-major sum
    world_grad = abs_local
    for i in range(3):
        np.multiply(dh_dlocal[0], rot[3 * i], out=world_grad[i])
        for j in (1, 2):
            np.multiply(dh_dlocal[j], rot[3 * i + j], out=tmp_a)
            np.add(world_grad[i], tmp_a, out=world_grad[i])

    # dh_dt = -world_grad
    np.negative(world_grad, out=dh_t[5:8])
    # dh_du = world_grad x offset, in np.cross's order of operations
    g0, g1, g2 = world_grad
    o0, o1, o2 = offset
    for k, (p, q, r, s) in enumerate(((g1, o2, g2, o1), (g2, o0, g0, o2), (g0, o1, g1, o0))):
        np.multiply(p, q, out=dh_t[8 + k])
        np.multiply(r, s, out=tmp_a)
        np.subtract(dh_t[8 + k], tmp_a, out=dh_t[8 + k])
    # Row-major into the block's first 11 rows, whose parameters, offset
    # and local coordinates are no longer needed.
    dh = ws.scratch[:11 * m].reshape(m, 11)
    np.copyto(dh, dh_t.T)
    return dh


def inside_outside(sq: Superquadric, x) -> np.ndarray:
    """Raw implicit field F. F < 1 inside, 1 on the surface, > 1 outside.

    F itself can overflow to inf for points far outside a small-exponent
    superquadric; the sign of F - 1 is still meaningful there. Use
    :func:`inside_outside_stable` for anything quantitative.
    """
    ws = FieldWorkspace(x)
    _, ln_f, _ = _log_field(sq, ws)
    with np.errstate(over="ignore"):
        f = np.exp(ln_f)
    return f[0] if ws.single else f


def inside_outside_stable(sq: Superquadric, x) -> np.ndarray:
    """F^e1: same level sets and same side of 1 as F, but bounded growth."""
    ws = FieldWorkspace(x)
    h, _, _ = _log_field(sq, ws)
    return h[0] if ws.single else h


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
    ws = FieldWorkspace(x)
    _, d = _field_and_radial(sq, ws)
    return d[0] if ws.single else d


def _field_and_radial(sq: Superquadric, ws: FieldWorkspace, k: int = 0):
    """F^e1 and :func:`radial_distance` at the workspace's points, from one
    :func:`_log_field` pass into slot ``k``."""
    h, ln_f, local = _log_field(sq, ws, k)
    r = np.linalg.norm(local, axis=0)
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
    ws = FieldWorkspace(x, grad=True)
    h, _, _ = _log_field(sq, ws)
    dh = _field_gradient(ws, np.arange(ws.n), [0], [ws.n])
    g = expit(cfg.sharpness * (1.0 - h))
    dg_dh = -cfg.sharpness * g * (1.0 - g)
    grad = dg_dh[:, None] * dh
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(
            "occupancy gradient has non-finite components; parameters or points "
            "are outside the numerically supported range"
        )
    return grad[0] if ws.single else grad


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
