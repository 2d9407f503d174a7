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
(3, K, n) and scalar ones as (K, n). A superquadric moves between the
kernel, the fitter and the split as one parameter row (12,), the layout of
:meth:`Superquadric.params`. A value pass fills slots 0 to K-1 from K such
rows, each slot's scalars broadcast as (K, 1) columns; an evaluator
passes its one row. :func:`_radial` reads a slot's radial distance from
that slot alone, its row included. :func:`_union_below`, where some of a
set of rows is below a level of h, is the one test of a union of
superquadrics. The fitter puts all the superquadrics of a node's restarts
in the slots of one workspace and passes them as rows, never as
Superquadric objects. :func:`check_parameters` is the one validity check,
for one row or a batch of rows, and :func:`_expit` the one logistic sigmoid.

A row's gradient of h is linear in 13 numbers of its own, with
coefficients that depend only on its superquadric: grad = M_k f. A
gradient call takes its rows as flat indices k*n + i (slot k, point i) of
any slots in any order and writes each row's 13 features f, from the
values its slot's pass kept at that point; :func:`_gradient_map` builds
each superquadric's 11 x 13 map M_k from its parameter row. A weighted sum
of rows' gradients is therefore M_k applied to the weighted sum of their
features: the fitter sums each superquadric's features and applies its map
once, and :func:`occupancy_gradient` applies the map row by row.

A workspace computes in one dtype. The public evaluators, the split and
the union test use float64; the fitter's race uses float32, and its
features are written out as float64 all the same; the maps are float64.
Within a dtype every result is deterministic; float32 results are not
float64's bits.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

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
        names = ("size", "exponents", "translation", "rotation")
        parts = [_readonly(getattr(self, name)) for name in names]
        for name, length, part in zip(names, (3, 2, 3, 4), parts):
            if part.shape != (length,):
                raise ValueError(f"{name} must have shape ({length},), got {part.shape}")
            object.__setattr__(self, name, part)
        check_parameters(self.params())

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


def check_parameters(rows) -> None:
    """Raise ValueError unless the parameter rows make valid superquadrics.

    Takes one row (12,) in the layout of :meth:`Superquadric.params`, or a
    batch of rows (..., 12). The checks run in order over all rows: every
    number finite, sizes and exponents positive, and a unit quaternion
    within ``QUATERNION_NORM_TOL``. The message is the one
    :class:`Superquadric` gives for the first row that fails the first
    failing check.
    """
    if not np.isfinite(rows).all():
        raise ValueError("superquadric parameters must be finite")
    for name, values in (("size components", rows[..., 0:3]), ("exponents", rows[..., 3:5])):
        bad = values <= 0
        if bad.any():
            flat = np.reshape(values, (-1, values.shape[-1]))
            first = flat[np.reshape(bad, flat.shape).any(axis=1)][0]
            raise ValueError(f"{name} must be positive, got {first}")
    norm = quat.norm(rows[..., 8:12])
    bad = np.abs(norm - 1.0) > QUATERNION_NORM_TOL
    if bad.any():
        first = np.reshape(norm, -1)[np.reshape(bad, -1)][0]
        raise ValueError(f"rotation must be a unit quaternion, |q| = {first!r}")


def is_finite_number(value, kinds=(int, float)) -> bool:
    """Whether a config value is one of the Python types ``kinds`` and
    finite. bool is an int subclass but not a number here, numpy integers
    are not ints and numpy float32 is not a float; nan, inf and ints past
    the double range fail the bound."""
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class OccupancyConfig:
    """Settings for the soft occupancy field g = sigmoid(s * (1 - F^e1))."""

    sharpness: float = 10.0

    def __post_init__(self) -> None:
        if not (is_finite_number(self.sharpness) and self.sharpness > 0):
            raise ValueError(f"sharpness must be positive and finite, got {self.sharpness!r}")


def world_to_local(sq: Superquadric, x) -> np.ndarray:
    """Map world points into the superquadric's local frame: R^T (x - t)."""
    pts, single = as_points(x)
    local = (pts - sq.translation) @ sq.rotation_matrix()
    return local[0] if single else local


# FieldWorkspace.params holds one column per slot: the first eight numbers
# of its parameter row, size (3), e1, e2 and translation (3), then the value
# pass's coefficients 2/e2, e2/e1 and 2/e1, which a gradient row also reads.
_N_PARAMS = 11
# One gradient block as rows of m values: the coefficients (3), and later
# G = dh/dlocal in their place, the values a slot keeps per point (9: local
# (3), ln_u (3), ln_s, ln_f, h), alpha, beta, aw1, aw2, 2h and a temporary,
# and D = dh/dln_u (3).
_BLOCK_PARTS = (3, 9, 6, 3)
_BLOCK_ROWS = sum(_BLOCK_PARTS)
_BLOCK_SLICES = tuple(
    slice(end - part, end) for part, end in zip(_BLOCK_PARTS, np.cumsum(_BLOCK_PARTS))
)
# A value pass keeps three scratch values per point and slot: w1, w2, gap.
_VALUE_SCRATCH = 3
# The features of one gradient row, in order: D (3), h ln_f, 2 h alpha ln_s,
# D_z ln_u_z, D_x ln_u_x + D_y ln_u_y, G (3) and C = G x local (3).
_N_FEATURES = 13


class FieldWorkspace:
    """The points and buffers of the field kernel for K superquadric slots.

    A caller that evaluates the field many times at the same points (the
    fitter, every iteration) builds one workspace and passes it to every
    call, so the kernel writes into the same memory each time instead of
    allocating short-lived arrays that the allocator returns to the OS and
    faults back in. The points, checked by :func:`geometry.as_points`, are
    stored once as (3, n); ``single`` says they were given as one point
    (3,). Slot k holds the last value pass of some superquadric: ``local``
    and ``ln_u`` (3, K, n) and ``ln_s``, ``ln_f``, ``h`` (K, n), which is
    all a gradient row reads of its point, plus the slot's parameter
    column (``params``). The value pass's other intermediates (w1, w2,
    term_xy, term_z) live in scratch; a gradient row recomputes them,
    bitwise the same, from its slot's coefficients. With ``grad`` the
    scratch also holds one gradient block of up to K n rows of any slots,
    and ``slot`` the slot of each of its rows.

    ``dtype`` (float64 by default; the fitter's race asks for float32) is
    that of the points, the kept values, the parameter columns and the
    scratch, so a pass and a gradient call compute in it; a gradient call
    writes its features into the caller's ``out`` in that array's own dtype.
    """

    def __init__(self, points, k: int = 1, grad: bool = False, dtype=np.float64):
        pts, self.single = as_points(points)
        n = len(pts)
        self.n, self.grad, self.dtype = n, grad, dtype
        self.points = np.ascontiguousarray(pts.T, dtype=dtype)
        kept = np.empty((9, k, n), dtype)
        self.kept = kept.reshape(9, k * n)
        self.local, self.ln_u = kept[0:3], kept[3:6]
        self.ln_s, self.ln_f, self.h = kept[6], kept[7], kept[8]
        self.params = np.empty((_N_PARAMS, k), dtype)
        # A value pass never overlaps a gradient call, so its scratch is
        # the gradient block.
        self.scratch = np.empty((_BLOCK_ROWS if grad else _VALUE_SCRATCH) * k * n, dtype)
        if grad:
            self.slot = np.empty(k * n, dtype=np.intp)
            self.pinned = np.empty(3 * k * n, dtype=bool)


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


def _expit(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = 1 / (1 + exp(-x)), the logistic sigmoid, as whole-array ufuncs.

    Where exp(-x) overflows (x below about -88.7 in float32, -709.8 in
    float64) the result is exactly 0. The exp runs in float64 even for
    float32, whose own numpy exp is not monotone. ``out`` may be ``x``.
    """
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out, dtype=np.float64)
    np.add(out, 1.0, out=out)
    return np.reciprocal(out, out=out)


def _value_pass(ws: FieldWorkspace, rows: np.ndarray):
    """The one log-space field kernel: value passes of K superquadrics at
    the workspace's points into slots 0 to K - 1.

    ``rows`` holds one parameter row (K, 12) per superquadric, in the
    layout of :meth:`Superquadric.params`: size (3), exponents (2),
    translation (3) and unit quaternion (4). Slot k receives h = F^e1, ln F
    and the local coordinates, and the parameters its gradient needs. The
    operations and their order are those of the plain expressions in the
    comments, with each slot's scalars broadcast as (K, 1) columns. Every
    one but the rotation is elementwise, and the rotation is one 3x3 matrix
    product per slot, so a point's values do not depend on the other
    points, the slot, the workspace or which slots share the pass.
    """
    count = len(rows)
    # The slots' parameter columns, which the coefficients below are read
    # from: size, e1, e2, translation, 2/e2, e2/e1, 2/e1.
    prm = ws.params[:, :count]
    prm[0:8] = rows[:, 0:8].T
    np.divide(2.0, prm[4], out=prm[8])
    np.divide(prm[4], prm[3], out=prm[9])
    np.divide(2.0, prm[3], out=prm[10])
    # A matmul of mixed dtypes would take a slower loop than either's own.
    rot = quat.to_matrix(rows[:, 8:12]).astype(ws.dtype, copy=False)
    cols = prm[:, :, None]
    a, (e1, e2), t, (c2e2, ce2e1, c2e1) = cols[0:3], cols[3:5], cols[5:8], cols[8:11]
    scratch = ws.scratch[:_VALUE_SCRATCH * count * ws.n].reshape(_VALUE_SCRATCH, count, ws.n)
    w1, w2, gap = scratch
    local, ln_u = ws.local[:, :count], ws.ln_u[:, :count]
    ln_s, ln_f, h = ws.ln_s[:count], ws.ln_f[:count], ws.h[:count]

    # local = R^T (x - t), with x - t in ln_u's place
    np.subtract(ws.points[:, None, :], t, out=ln_u)
    np.matmul(rot.transpose(0, 2, 1), ln_u.transpose(1, 0, 2), out=local.transpose(1, 0, 2))
    # ln_u = log(max(|local|, COORD_CLAMP) / a)
    np.abs(local, out=ln_u)
    np.maximum(ln_u, COORD_CLAMP, out=ln_u)
    np.divide(ln_u, a, out=ln_u)
    np.log(ln_u, out=ln_u)
    # ln_s = logaddexp(w1, w2), w = (2 / e2) ln_u_xy
    np.multiply(c2e2, ln_u[0], out=w1)
    np.multiply(c2e2, ln_u[1], out=w2)
    _logaddexp(w1, w2, ln_s, gap)
    # ln_f = logaddexp(term_xy, term_z), term_xy = (e2 / e1) ln_s, term_z = (2 / e1) ln_u_z
    np.multiply(ce2e1, ln_s, out=w1)
    np.multiply(c2e1, ln_u[2], out=w2)
    _logaddexp(w1, w2, ln_f, gap)
    # h = exp(e1 ln_f)
    np.multiply(e1, ln_f, out=h)
    np.exp(h, out=h)


def _union_below(rows, points, level: float) -> np.ndarray:
    """Mask (n,) of the points (n, 3) where some parameter row of ``rows``
    (..., 12) has h = F^e1 < ``level``, from one one-slot value pass per
    row in one workspace."""
    ws = FieldWorkspace(points)
    out = np.zeros(ws.n, dtype=bool)
    for row in np.reshape(rows, (-1, 12)):
        _value_pass(ws, row[None])
        out |= ws.h[0] < level
    return out


def _field_gradient(ws: FieldWorkspace, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The features of h's gradient at rows of the slots' last value passes.

    ``idx`` holds flat indices ``k * n + i`` (slot k, point i; in range,
    not bounds-checked), at most K n of them, of any slots in any order.
    Writes the ``_N_FEATURES`` features of row j, the gradient at
    ``idx[j]``, into column j of ``out`` (13, m) and returns it. Row j's
    gradient over the 11 DOF is ``M_k @ out[:, j]``, with its slot's map M_k
    from :func:`_gradient_map`, so a caller that sums rows weighted sums
    their features and applies each slot's map once.

    The features are D = dh/dln_u (3), h ln_f, 2 h alpha ln_s, D_z ln_u_z,
    D_x ln_u_x + D_y ln_u_y, G = dh/dlocal = D / local (3), zero where the
    clamp pins a coordinate, and C = G x local (3); the softmax weights
    alpha, beta (and aw1, aw2 inside the xy term) fall out of
    differentiating logaddexp. A row reads its point's kept values and
    three coefficients of its slot, gathered by index, and nothing else:
    its slot's sizes, translation and rotation enter only through the map.
    Each row depends only on its own point and slot, by elementwise
    operations alone, so a row comes out bitwise the same whichever rows
    share the call.
    """
    if not ws.grad:
        raise ValueError("workspace has no gradient buffers")
    m = len(idx)
    if m > len(ws.slot):
        raise ValueError(f"{m} gradient rows exceed the block size {len(ws.slot)}")
    blk = ws.scratch[:_BLOCK_ROWS * m].reshape(_BLOCK_ROWS, m)
    coeffs, kept, scalars, dh_dlnu = (blk[s] for s in _BLOCK_SLICES)
    slot = ws.slot[:m]
    np.floor_divide(idx, ws.n, out=slot)
    # mode="clip" writes straight into the buffer; "raise" would copy
    # through a temporary.
    np.take(ws.params[8:11], slot, axis=1, out=coeffs, mode="clip")
    np.take(ws.kept, idx, axis=1, out=kept, mode="clip")
    c2e2, ce2e1, c2e1 = coeffs
    local, ln_u, (ln_s, ln_f, h) = kept[0:3], kept[3:6], kept[6:9]
    alpha, beta, aw1, aw2, two_h, tmp = scalars

    # The value pass again: term_xy, term_z, w1, w2, in place of alpha, beta, aw1, aw2
    np.multiply(ce2e1, ln_s, out=alpha)
    np.multiply(c2e1, ln_u[2], out=beta)
    np.multiply(c2e2, ln_u[0], out=aw1)
    np.multiply(c2e2, ln_u[1], out=aw2)
    # alpha = exp(term_xy - ln_f), beta = exp(term_z - ln_f), aw = exp(w - ln_s)
    for num, den in ((alpha, ln_f), (beta, ln_f), (aw1, ln_s), (aw2, ln_s)):
        np.subtract(num, den, out=num)
        np.exp(num, out=num)

    # D = [2h alpha aw1, 2h alpha aw2, 2h beta]; 2h alpha in place of alpha
    np.multiply(2.0, h, out=two_h)
    np.multiply(two_h, alpha, out=alpha)
    np.multiply(alpha, aw1, out=dh_dlnu[0])
    np.multiply(alpha, aw2, out=dh_dlnu[1])
    np.multiply(two_h, beta, out=dh_dlnu[2])
    np.copyto(out[0:3], dh_dlnu)
    np.multiply(h, ln_f, out=out[3])
    np.multiply(alpha, ln_s, out=out[4])
    np.multiply(dh_dlnu[2], ln_u[2], out=out[5])
    np.multiply(dh_dlnu[0], ln_u[0], out=tmp)
    np.multiply(dh_dlnu[1], ln_u[1], out=two_h)
    np.add(tmp, two_h, out=out[6])

    # G = D * where(|local| > clamp, sign(local) / max(|local|, clamp), 0),
    # in place of the coefficients, with max(|local|, clamp) in place of
    # alpha, beta, aw1
    dh_dlocal, abs_local = coeffs, scalars[0:3]
    pinned = ws.pinned[:3 * m].reshape(3, m)
    np.abs(local, out=abs_local)
    np.less_equal(abs_local, COORD_CLAMP, out=pinned)
    np.maximum(abs_local, COORD_CLAMP, out=abs_local)
    np.sign(local, out=dh_dlocal)
    np.divide(dh_dlocal, abs_local, out=dh_dlocal)
    np.copyto(dh_dlocal, 0.0, where=pinned)
    np.multiply(dh_dlnu, dh_dlocal, out=dh_dlocal)
    np.copyto(out[7:10], dh_dlocal)
    # C = G x local, in np.cross's order of operations
    g0, g1, g2 = dh_dlocal
    l0, l1, l2 = local
    for k, (p, q, r, s) in enumerate(((g1, l2, g2, l1), (g2, l0, g0, l2), (g0, l1, g1, l0))):
        np.multiply(p, q, out=tmp)
        np.multiply(r, s, out=two_h)
        np.subtract(tmp, two_h, out=out[10 + k])
    return out


def _gradient_map(rows) -> np.ndarray:
    """The maps (K, 11, 13) from a row's features to its gradient of h over
    the 11 DOF, one per parameter row of ``rows`` (K, 12), in float64.

    With the features of :func:`_field_gradient`: dsize = -D / a; de1 =
    h ln_f - (e2 / (2 e1)) 2 h alpha ln_s - D_z ln_u_z / e1; de2 = (1/2) 2 h
    alpha ln_s - (D_x ln_u_x + D_y ln_u_y) / e2; dt = -R G; and du = R C,
    since x - t = R local and (R a) x (R b) = R (a x b).
    """
    rows = np.asarray(rows, dtype=np.float64)
    a, e1, e2 = rows[:, 0:3], rows[:, 3], rows[:, 4]
    rot = quat.to_matrix(rows[:, 8:12])
    maps = np.zeros((len(rows), 11, _N_FEATURES))
    axes = np.arange(3)
    maps[:, axes, axes] = -1.0 / a
    maps[:, 3, 3] = 1.0
    maps[:, 3, 4] = -0.5 * e2 / e1
    maps[:, 3, 5] = -1.0 / e1
    maps[:, 4, 4] = 0.5
    maps[:, 4, 6] = -1.0 / e2
    maps[:, 5:8, 7:10] = -rot
    maps[:, 8:11, 10:13] = rot
    return maps


def inside_outside(sq: Superquadric, x) -> np.ndarray:
    """Raw implicit field F. F < 1 inside, 1 on the surface, > 1 outside.

    F itself can overflow to inf for points far outside a small-exponent
    superquadric; the sign of F - 1 is still meaningful there. Use
    :func:`inside_outside_stable` for anything quantitative.
    """
    ws = FieldWorkspace(x)
    _value_pass(ws, sq.params()[None])
    with np.errstate(over="ignore"):
        f = np.exp(ws.ln_f[0])
    return f[0] if ws.single else f


def inside_outside_stable(sq: Superquadric, x) -> np.ndarray:
    """F^e1: same level sets and same side of 1 as F, but bounded growth."""
    ws = FieldWorkspace(x)
    _value_pass(ws, sq.params()[None])
    return ws.h[0, 0] if ws.single else ws.h[0]


def occupancy(sq: Superquadric, x, cfg: OccupancyConfig = OccupancyConfig()) -> np.ndarray:
    """Soft occupancy g = sigmoid(s * (1 - F^e1)), in (0, 1), 0.5 on the surface."""
    ws = FieldWorkspace(x)
    _value_pass(ws, sq.params()[None])
    g = _expit(cfg.sharpness * (1.0 - ws.h[0]), ws.h[0])
    return g[0] if ws.single else g


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
    _value_pass(ws, sq.params()[None])
    d = _radial(ws, 0)
    return d[0] if ws.single else d


def _radial(ws: FieldWorkspace, k: int):
    """:func:`radial_distance` at the workspace's points, read from slot
    ``k`` of the last value pass: its local coordinates, ln F, and e1 and
    the sizes of its parameter column."""
    r = np.linalg.norm(ws.local[:, k], axis=0)
    d = r * np.abs(1.0 - np.exp(-0.5 * ws.params[3, k] * ws.ln_f[k]))
    return np.where(r < 1e-12, np.min(ws.params[0:3, k]), d)


def occupancy_gradient(
    sq: Superquadric, x, cfg: OccupancyConfig = OccupancyConfig()
) -> np.ndarray:
    """Analytic gradient of the occupancy g with respect to the 11 DOF.

    Layout: (a1, a2, a3, e1, e2, t1, t2, t3, u1, u2, u3), where u is the
    world-frame rotation tangent (see the module docstring). Returns (11,)
    for a single point or (n, 11) for a batch.
    """
    ws = FieldWorkspace(x, grad=True)
    row = sq.params()[None]
    _value_pass(ws, row)
    features = _field_gradient(ws, np.arange(ws.n), np.empty((_N_FEATURES, ws.n)))
    dh = features.T @ _gradient_map(row)[0].T
    g = _expit(cfg.sharpness * (1.0 - ws.h[0]), ws.h[0])
    dg_dh = -cfg.sharpness * g * (1.0 - g)
    grad = dg_dh[:, None] * dh
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(
            "occupancy gradient has non-finite components; parameters or points "
            "are outside the numerically supported range"
        )
    return grad[0] if ws.single else grad


def _check_lattice(n_eta: int, n_omega: int) -> None:
    """Raise ValueError unless :func:`surface_points` can sweep an n_eta by
    n_omega grid."""
    if n_eta < 3 or n_omega < 3:
        raise ValueError(f"need n_eta >= 3 and n_omega >= 3, got {n_eta}, {n_omega}")


def surface_points(sq: Superquadric, n_eta: int, n_omega: int) -> np.ndarray:
    """World-space surface grid of shape (n_eta, n_omega, 3).

    The surface is swept by the standard trigonometric parameterization
    (eta in [-pi/2, pi/2] from pole to pole, omega in [-pi, pi) around the
    z-axis) with signed-power trig terms. The two pole rows are pinned to
    exactly (0, 0, -a3) and (0, 0, +a3) in the local frame, so every row-0
    (and row n_eta-1) entry is an identical point; consumers that need a
    watertight mesh can deduplicate them.
    """
    _check_lattice(n_eta, n_omega)
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
