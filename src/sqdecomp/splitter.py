"""Implicit space separation for a fitted superquadric pair.

Once a node's two superquadrics (a, b) are fitted, every sample point is
assigned to exactly one side, which becomes the inside/outside ground truth
for the node's children. The assignment needs no surface meshing:

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

from .geometry import as_labels
from .superquadric import FieldWorkspace, Superquadric, _field_and_radial


@dataclass(frozen=True, eq=False)
class SplitAssignment:
    """Boolean partition of a point batch between the two sides of a pair."""

    to_a: np.ndarray

    def __post_init__(self) -> None:
        to_a = np.array(self.to_a, dtype=bool)
        to_a.setflags(write=False)
        object.__setattr__(self, "to_a", to_a)

    @property
    def to_b(self) -> np.ndarray:
        return ~self.to_a

    def side_mask(self, side: str) -> np.ndarray:
        if side == "a":
            return self.to_a
        if side == "b":
            return self.to_b
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")

    def __len__(self) -> int:
        return len(self.to_a)


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


def split_pair(sq_a: Superquadric, sq_b: Superquadric, points) -> SplitAssignment:
    """Assign every point to side a or side b of the pair."""
    return SplitAssignment(_pair_fields(sq_a, sq_b, points)[4])


def child_labels(parent_labels, assignment: SplitAssignment, side: str) -> np.ndarray:
    """Inside labels for one child: parent label AND assigned-to-side.

    The two children's label sets partition the parent's inside points: their
    union is exactly the parent labels and their intersection is empty.
    """
    return as_labels(parent_labels, len(assignment)) & assignment.side_mask(side)


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
