"""Implicit space separation for a fitted superquadric pair.

Once a node's two superquadrics (a, b) are fitted, every sample point is
assigned to exactly one side, given as one boolean mask that is True on
side a. :func:`sqtree.split_node` ANDs the node's inside labels with the
mask for one child and with its complement for the other. The assignment
needs no surface meshing:

* a point inside exactly one SQ belongs to that SQ,
* a point inside both belongs to the one with the larger F^e1 (the one whose
  surface it is closer to leaving),
* a point outside both belongs to the one with the smaller radial Euclidean
  distance.

"Inside" is F^e1 < 1, the predicate :func:`metrics.predicted_label` uses, so
a point on a surface counts as outside that SQ. Ties go to side a, so the
assignment is a deterministic total function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .superquadric import FieldWorkspace, Superquadric, _field_and_radial


def _pair_fields(sq_a: Superquadric, sq_b: Superquadric, points):
    """(h_a, h_b, d_a, d_b, to_a) at points (n, 3), from one field pass per SQ.

    h is F^e1, d the radial distance and to_a the split rule of the module
    docstring.
    """
    ws = FieldWorkspace(points, 2)
    h_a, d_a = _field_and_radial(sq_a, ws, 0)
    h_b, d_b = _field_and_radial(sq_b, ws, 1)
    in_a, in_b = h_a < 1.0, h_b < 1.0
    # Containment wins outright; the remaining cases compare fields.
    to_a = np.where(in_a == in_b, np.where(in_a, h_a >= h_b, d_a <= d_b), in_a)
    return h_a, h_b, d_a, d_b, to_a


def split_pair(sq_a: Superquadric, sq_b: Superquadric, points) -> np.ndarray:
    """The side-a mask of the points (n, 3): True where a point goes to
    side a, False where it goes to side b."""
    return _pair_fields(sq_a, sq_b, points)[4]


@dataclass(frozen=True)
class SliceSpec:
    """A 2D axis-aligned slice of the domain for split-field visualization.

    ``axis`` is the fixed world axis (0/1/2) and ``offset`` its coordinate.
    The in-plane coordinates (u, v) map to world axes (axis+1)%3, (axis+2)%3.
    """

    axis: int = 2
    offset: float = 0.0
    u_min: float = -0.6
    u_max: float = 0.6
    v_min: float = -0.6
    v_max: float = 0.6
    nu: int = 64
    nv: int = 64

    def __post_init__(self) -> None:
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis}")
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("slice extents must satisfy min < max")
        if self.nu < 2 or self.nv < 2:
            raise ValueError("need at least a 2x2 grid")

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, world points) where points has shape (nv, nu, 3)."""
        u = np.linspace(self.u_min, self.u_max, self.nu)
        v = np.linspace(self.v_min, self.v_max, self.nv)
        uu, vv = np.meshgrid(u, v)
        pts = np.empty((self.nv, self.nu, 3))
        pts[:, :, self.axis] = self.offset
        pts[:, :, (self.axis + 1) % 3] = uu
        pts[:, :, (self.axis + 2) % 3] = vv
        return u, v, pts


@dataclass(frozen=True, eq=False)
class SplitField:
    """Dense per-cell fields of a pair over a slice, for plots and CSV dumps."""

    u: np.ndarray
    v: np.ndarray
    h_a: np.ndarray
    h_b: np.ndarray
    d_a: np.ndarray
    d_b: np.ndarray
    to_a: np.ndarray


def split_field_2d(sq_a: Superquadric, sq_b: Superquadric, spec: SliceSpec) -> SplitField:
    """Evaluate both fields and the selector on a slice grid.

    The fields and the selector come from the pass :func:`split_pair` makes
    on the flattened grid points, so the selector agrees with the pointwise
    rule by construction.
    """
    u, v, pts = spec.grid()
    fields = _pair_fields(sq_a, sq_b, pts.reshape(-1, 3))
    return SplitField(u, v, *(f.reshape(spec.nv, spec.nu) for f in fields))
