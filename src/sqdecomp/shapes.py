"""Procedural test meshes: boxes, icospheres, and simple compounds."""

from __future__ import annotations

import numpy as np

from . import quaternions as quat
from .geometry import Mesh

# Outward-wound faces of the unit cube [-1, 1]^3, two triangles per side.
_BOX_FACES = np.array(
    [
        [0, 2, 1], [0, 3, 2],  # z = -1
        [4, 5, 6], [4, 6, 7],  # z = +1
        [0, 1, 5], [0, 5, 4],  # y = -1
        [2, 3, 7], [2, 7, 6],  # y = +1
        [1, 2, 6], [1, 6, 5],  # x = +1
        [0, 4, 7], [0, 7, 3],  # x = -1
    ],
    dtype=np.intp,
)

_BOX_CORNERS = np.array(
    [
        [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
    ],
    dtype=np.float64,
)


def box(center=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0)) -> Mesh:
    """Axis-aligned box with the given center and full side lengths."""
    center = np.asarray(center, dtype=np.float64)
    half = 0.5 * np.asarray(size, dtype=np.float64)
    return Mesh(_BOX_CORNERS * half + center, _BOX_FACES)


def icosphere(radius: float = 1.0, subdivisions: int = 2, center=(0.0, 0.0, 0.0)) -> Mesh:
    """Geodesic sphere from a subdivided icosahedron (20 * 4^n triangles).

    Each level splits face (a, b, c) into (a, ab, ca), (b, bc, ab), (c, ca, bc)
    and (ab, bc, ca); the edge midpoints, pushed out to the unit sphere, are
    numbered in the order their edges first appear (faces in order, edges ab,
    bc, ca). Raises ValueError for a negative ``subdivisions``."""
    if subdivisions < 0:
        raise ValueError(f"subdivisions must be >= 0, got {subdivisions}")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.intp)
    verts /= quat.norm(verts)[:, None]

    for _ in range(subdivisions):
        # Every face's edges ab, bc, ca as vertex pairs (3F, 2), in order.
        ends = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2)
        keys = ends.min(axis=1) * len(verts) + ends.max(axis=1)
        _, first, edge = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct edges by first appearance
        number = len(verts) + np.argsort(order)
        mid = verts[ends[first[order]]].sum(axis=1)
        verts = np.vstack([verts, mid / quat.norm(mid)[:, None]])
        (a, b, c), (ab, bc, ca) = faces.T, number[edge].reshape(-1, 3).T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)

    return Mesh(verts * radius + np.asarray(center, dtype=np.float64), faces)


def merge(meshes) -> Mesh:
    """Concatenate meshes into one (disjoint components stay disjoint)."""
    meshes = list(meshes)
    if not meshes:
        raise ValueError("nothing to merge")
    verts, tris, offset = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        tris.append(m.triangles + offset)
        offset += len(m.vertices)
    return Mesh(np.vstack(verts), np.vstack(tris))


def dumbbell(box_side: float = 0.3, center_offset: float = 0.3) -> Mesh:
    """Two disjoint axis-aligned cubes at (+-center_offset, 0, 0)."""
    s = (box_side, box_side, box_side)
    return merge([box((-center_offset, 0.0, 0.0), s), box((center_offset, 0.0, 0.0), s)])
