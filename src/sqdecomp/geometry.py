"""Triangle meshes, OBJ I/O, normalization, inside tests, and point sampling.

The data pipeline turns a watertight triangle mesh into a labeled point set:
normalize the mesh so its bounding box is centered at the origin with longest
side 1, draw points from the axis-aligned domain [-0.6, 0.6]^3 (uniform) and
from the surface (with Gaussian offsets), and label each point by a ray-parity
inside test. Points on the surface count as inside.

Each stage works on whole arrays. The OBJ reader splits each line once and
converts every coordinate and every face reference in one pass per kind;
the writer formats each record kind in one string. The inside test labels
every point outside the mesh's padded vertex box 0 without casting a ray,
and pairs each remaining point only with the triangles a 2D grid across
the ray direction puts near it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SAMPLING_DOMAIN = (-0.6, 0.6)
SURFACE_NOISE_SIGMA = 0.05

# Base ray direction for parity tests: an arbitrary fixed irrational-ish
# direction so axis-aligned geometry almost never produces degenerate hits.
_BASE_DIRECTION = np.array([0.57721566490153287, 0.30102999566398120, 0.78539816339744831])
_MAX_RAY_RETRIES = 32

# Ray-test tolerances, relative to the longest side L of the mesh's vertex
# box: |det| and twice a triangle's area are compared with
# _PARALLEL_EPS * L^2, the ray parameter with _ON_SURFACE_T * L and the
# distance to a parallel triangle's plane with _COPLANAR_DIST * L, so a
# mesh and its points scaled by a power of two keep every label.
_PARALLEL_EPS = 1e-12
_BARY_EPS = 1e-10
_ON_SURFACE_T = 1e-12
_COPLANAR_DIST = 1e-9

# Padding of each triangle's projected bounding box, relative to the mesh
# extent. bary_wide admits points up to _BARY_EPS (relative) outside a
# triangle, plus rounding; this margin is orders of magnitude wider.
_BIN_MARGIN = 1e-6
# The grid is coarsened while the boxes cover more cells than this on average.
_MAX_CELLS_PER_BOX = 16
# Candidate (point, triangle) pairs tested at once: about 200 bytes each,
# so about 20 MB of temporaries.
_PAIR_CHUNK = 100_000


class MeshFormatError(ValueError):
    """The OBJ file is malformed (bad record, bad index, too few vertices)."""


class DegenerateMeshError(ValueError):
    """The mesh cannot be normalized (zero extent) or is otherwise unusable."""


class RayDegeneracyError(RuntimeError):
    """All retry directions produced degenerate ray-triangle intersections."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Indexed triangle mesh. Vertices (v, 3) float64, triangles (t, 3) int."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        vertices = np.array(self.vertices, dtype=np.float64)
        triangles = np.array(self.triangles, dtype=np.intp)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must have shape (v, 3), got {vertices.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError(f"triangles must have shape (t, 3), got {triangles.shape}")
        if len(triangles) and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle indices out of range")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices must be finite")
        vertices.setflags(write=False)
        triangles.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)

    @property
    def triangle_corners(self) -> np.ndarray:
        """Corner coordinates per triangle, shape (t, 3, 3)."""
        return self.vertices[self.triangles]


def as_points(x) -> tuple[np.ndarray, bool]:
    """One point (3,) or a batch (n, 3) as (n, 3) float64 points, and
    whether ``x`` was one point. Every coordinate must be finite. The one
    check of a point input, behind the field evaluators, the inside tests,
    the split, the fit and the tree."""
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 3:
        raise ValueError(f"points must have shape (n, 3) or (3,), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return (pts[None, :], True) if pts.ndim == 1 else (pts, False)


def as_labels(labels, n: int | None = None) -> np.ndarray:
    """Inside labels (n,) as a new uint8 array; any length when ``n`` is None.

    Every value must equal 0 or 1. The check runs before the cast, so 0.5,
    NaN or 256 is refused, not truncated or wrapped to 0 or 1.
    """
    y = np.asarray(labels)
    if y.ndim != 1 or (n is not None and len(y) != n):
        raise ValueError(f"labels must have shape ({'n' if n is None else n},), got {y.shape}")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return y.astype(np.uint8)


@dataclass(frozen=True, eq=False)
class LabeledPointSet:
    """Sample points (n, 3) with uint8 inside labels (n,): the one check of
    a (points, labels) pair, by :func:`as_points` and :func:`as_labels`."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        points = np.array(as_points(self.points)[0])
        if len(points) == 0:
            raise ValueError("point set must not be empty")
        labels = as_labels(self.labels, len(points))
        points.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.points)


def load_mesh(path) -> Mesh:
    """Read a Wavefront OBJ file (v and f records only).

    Faces with more than three vertices are fan-triangulated around their
    first vertex. Texture/normal references (v/vt/vn forms) are accepted and
    ignored. Raises MeshFormatError for malformed records or out-of-range
    indices, OSError if the file cannot be read.

    The file is read once and each line split once. The coordinate tokens
    of every ``v`` record and the vertex references of every ``f`` record
    are collected, then converted in one ``map(float, ...)`` and one
    ``map(int, ...)``. If anything fails, :func:`_check_records` reads the
    lines again, record by record, and raises the error of the first bad
    record in file order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    coords: list[str] = []
    refs: list[str] = []
    counts: list[int] = []
    try:
        for parts in map(str.split, lines):
            # Blank lines, comments and all other record types (vn, vt, g,
            # o, s, usemtl, ...) are ignored.
            if not parts or parts[0] not in ("v", "f"):
                continue
            if len(parts) < 4:
                raise ValueError("short record")
            if parts[0] == "v":
                coords += parts[1:4]
            else:
                counts.append(len(parts) - 1)
                refs += parts[1:]
        verts = np.array(list(map(float, coords))).reshape(-1, 3)
        if "/" in "".join(refs):
            refs = [ref.partition("/")[0] for ref in refs]
        idx = list(map(int, refs))
        if idx and min(idx) < 1:
            raise ValueError("face index below 1")
    except ValueError:
        _check_records(path, lines)  # raises for every failure above
        raise
    if not len(verts):
        raise MeshFormatError(f"{path}: no vertices")
    tris = _fan_triangles(np.array(idx, dtype=np.intp) - 1, counts)
    if len(tris) and tris.max() >= len(verts):
        raise MeshFormatError(f"{path}: face index {tris.max() + 1} exceeds vertex count")
    return Mesh(verts, tris)


def _check_records(path, lines) -> None:
    """Raise the MeshFormatError of the first malformed ``v`` or ``f``
    record in ``lines``, numbered from 1."""
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshFormatError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                for coord in parts[1:4]:
                    float(coord)
            except ValueError as exc:
                raise MeshFormatError(f"{path}:{lineno}: bad vertex coordinate") from exc
        elif parts[0] == "f":
            if len(parts) < 4:
                raise MeshFormatError(f"{path}:{lineno}: face needs at least 3 vertices")
            for ref in parts[1:]:
                try:
                    k = int(ref.split("/")[0])
                except ValueError as exc:
                    raise MeshFormatError(f"{path}:{lineno}: bad face index {ref!r}") from exc
                if k < 1:
                    raise MeshFormatError(
                        f"{path}:{lineno}: face indices must be positive, got {k}"
                    )


def _fan_triangles(idx: np.ndarray, counts: list[int]) -> np.ndarray:
    """Triangles (t, 3) of faces given as consecutive runs of ``counts``
    vertex indices in ``idx``, each fanned around its first vertex: face
    (i0, i1, ..., ik) gives (i0, i1, i2), (i0, i2, i3), ..."""
    sizes = np.array(counts, dtype=np.intp)
    fans = sizes - 2
    first = np.repeat(np.cumsum(sizes) - sizes, fans)
    # Triangle j of a face starts at its corner j + 1.
    corner = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(fans) - fans, fans)
    return np.stack([idx[first], idx[corner], idx[corner + 1]], axis=1)


def write_obj_records(fh, vertices, triangles, base: int = 0) -> None:
    """OBJ v records, then f records for 0-based ``triangles`` that follow
    ``base`` earlier vertices in ``fh``. Coordinates use float repr, so a
    load is bit-exact. Each record kind is formatted from ``tolist()`` rows
    and written in one string."""
    rows = np.asarray(vertices, dtype=np.float64).reshape(-1, 3).tolist()
    fh.write("".join([f"v {x!r} {y!r} {z!r}\n" for x, y, z in rows]))
    rows = (np.asarray(triangles).reshape(-1, 3) + (base + 1)).tolist()
    fh.write("".join([f"f {a} {b} {c}\n" for a, b, c in rows]))


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh as a minimal OBJ file (v and f records)."""
    with open(path, "w", encoding="utf-8") as fh:
        write_obj_records(fh, mesh.vertices, mesh.triangles)


def normalize(mesh: Mesh) -> Mesh:
    """Center the bounding box at the origin and scale its longest side to 1.

    After normalization every vertex lies in [-0.5, 0.5]^3. Raises
    DegenerateMeshError if the mesh has zero extent in all axes.
    """
    if len(mesh.vertices) == 0:
        raise DegenerateMeshError("cannot normalize an empty mesh")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    extent = float(np.max(hi - lo))
    if extent <= 0.0:
        raise DegenerateMeshError("mesh has zero extent; all vertices coincide")
    center = 0.5 * (lo + hi)
    return Mesh((mesh.vertices - center) / extent, mesh.triangles)


def _retry_directions() -> np.ndarray:
    """Fixed, deterministic sequence of unit ray directions."""
    rng = np.random.default_rng(20090103)
    extra = rng.normal(size=(_MAX_RAY_RETRIES - 1, 3))
    dirs = np.vstack([_BASE_DIRECTION, extra])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


_DIRECTIONS = _retry_directions()


def _require_closed_manifold(triangles: np.ndarray) -> None:
    """Raise DegenerateMeshError unless the mesh is closed and manifold.

    Ray parity counts surface crossings, which tells inside from outside
    only when every edge joins two distinct vertices and every undirected
    edge is used by exactly two triangles with opposite orientation. One
    sort of the directed-edge keys finds both faults: a run of equal keys
    is an edge repeated in one orientation, and a binary search finds each
    edge's twin.
    """
    start = triangles.ravel()
    end = np.roll(triangles, -1, axis=1).ravel()
    if np.any(start == end):
        raise DegenerateMeshError("mesh has a triangle with a repeated vertex")
    n = int(triangles.max()) + 1
    keys = np.sort(start * n + end)
    # Sorted, a directed edge used k times is a run of k equal keys: count
    # the runs that start a repeat.
    same = keys[1:] == keys[:-1]
    repeated = int(np.count_nonzero(same & ~np.r_[False, same[:-1]]))
    edges = keys[np.r_[True, ~same]]
    twins = (edges % n) * n + edges // n
    found = np.minimum(np.searchsorted(keys, twins), len(keys) - 1)
    unpaired = int(np.count_nonzero(keys[found] != twins))
    if repeated or unpaired:
        raise DegenerateMeshError(
            f"mesh is not closed and manifold: {unpaired} edges lack an oppositely "
            f"oriented twin and {repeated} are used more than once in the same orientation"
        )


@dataclass(frozen=True)
class _TriangleTerms:
    """Per-triangle Möller–Trumbore quantities for one ray direction, with
    the ``scale`` L of the mesh that the tolerances are relative to."""

    scale: float
    a: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    pvec: np.ndarray
    parallel: np.ndarray
    safe_det: np.ndarray
    normal: np.ndarray
    norm_len: np.ndarray

    @classmethod
    def of(cls, corners: np.ndarray, direction: np.ndarray, scale: float) -> "_TriangleTerms":
        a = corners[:, 0]
        e1 = corners[:, 1] - a
        e2 = corners[:, 2] - a
        pvec = np.cross(direction, e2)
        det = np.einsum("tk,tk->t", e1, pvec)
        parallel = np.abs(det) < _PARALLEL_EPS * scale * scale
        normal = np.cross(e1, e2)
        norm_len = np.linalg.norm(normal, axis=1)
        return cls(scale, a, e1, e2, pvec, parallel, np.where(parallel, 1.0, det), normal,
                   np.where(norm_len == 0, 1.0, norm_len))


def _classify_pairs(points, pair_point, pair_tri, terms: _TriangleTerms, direction):
    """Ray-parity test of points against the triangles paired with them.

    ``pair_point`` and ``pair_tri`` list (point, triangle) pairs; a pair
    left out must be one whose predicate is false. Returns (resolved mask,
    inside labels) per point. A point is unresolved when its ray produced a
    degenerate intersection (hit near a triangle edge/vertex, or ran
    parallel within a triangle's plane) and needs a different direction.
    Points lying on the surface resolve immediately as inside.
    """
    n = len(points)
    det = terms.safe_det[pair_tri]
    s = points[pair_point] - terms.a[pair_tri]
    u = np.einsum("pk,pk->p", s, terms.pvec[pair_tri]) / det
    qvec = np.cross(s, terms.e1[pair_tri])
    v = np.einsum("pk,k->p", qvec, direction) / det
    t_hit = np.einsum("pk,pk->p", qvec, terms.e2[pair_tri]) / det
    del qvec
    plane_dist = np.abs(np.einsum("pk,pk->p", s, terms.normal[pair_tri])) / terms.norm_len[pair_tri]
    del s

    parallel = terms.parallel[pair_tri]
    bary_wide = (u > -_BARY_EPS) & (v > -_BARY_EPS) & (u + v < 1.0 + _BARY_EPS)
    bary_strict = (u > _BARY_EPS) & (v > _BARY_EPS) & (u + v < 1.0 - _BARY_EPS)

    on_surface_t = _ON_SURFACE_T * terms.scale
    on_surface = (~parallel) & (np.abs(t_hit) <= on_surface_t) & bary_wide
    forward = (~parallel) & (t_hit > on_surface_t)
    counted = forward & bary_strict
    grazing = forward & bary_wide & ~bary_strict
    coplanar = parallel & (plane_dist < _COPLANAR_DIST * terms.scale)

    def per_point(mask):
        return np.bincount(pair_point[mask], minlength=n)

    is_on_surface = per_point(on_surface) > 0
    is_degenerate = (per_point(grazing | coplanar) > 0) & ~is_on_surface
    parity = per_point(counted) & 1

    resolved = is_on_surface | ~is_degenerate
    labels = np.where(is_on_surface, 1, parity).astype(np.uint8)
    return resolved, labels


def _plane_basis(direction: np.ndarray) -> np.ndarray:
    """Orthonormal basis (3, 2) of the plane orthogonal to a unit direction."""
    b1 = np.cross(direction, np.eye(3)[np.argmin(np.abs(direction))])
    b1 /= np.linalg.norm(b1)
    return np.stack([b1, np.cross(direction, b1)], axis=1)


@dataclass(frozen=True)
class _BoxGrid:
    """Uniform 2D grid over boxes, with the boxes of each cell in CSR form.

    ``members[start[c]:start[c + 1]]`` are the ids of the boxes that overlap
    cell c = iy * size + ix. Cell ``size**2`` is an extra, always empty cell
    for points outside every box.
    """

    origin: np.ndarray
    top: np.ndarray
    cell: np.ndarray
    size: int
    start: np.ndarray
    members: np.ndarray

    @classmethod
    def build(cls, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray) -> "_BoxGrid":
        if len(ids) == 0:
            lo = hi = np.zeros((1, 2))
        origin, top = lo.min(axis=0), hi.max(axis=0)
        extent = top - origin
        size = max(1, int(np.ceil(np.sqrt(len(ids)))))
        while True:
            cell = np.where(extent > 0, extent / size, 1.0)
            first = _cell_index(lo, origin, cell, size)
            span = _cell_index(hi, origin, cell, size) - first + 1
            count = span[:, 0] * span[:, 1]
            # Long thin boxes cover many cells; coarsen until the CSR is
            # a small multiple of the box count.
            if size == 1 or count.sum() <= _MAX_CELLS_PER_BOX * len(ids):
                break
            size = max(1, size // 2)
        box = np.repeat(np.arange(len(ids)), count)
        k = np.arange(len(box)) - np.repeat(np.cumsum(count) - count, count)
        ix = first[box, 0] + k % span[box, 0]
        iy = first[box, 1] + k // span[box, 0]
        cells = iy * size + ix
        members = ids[box[np.argsort(cells, kind="stable")]]
        start = np.zeros(size * size + 2, dtype=np.intp)
        np.cumsum(np.bincount(cells, minlength=size * size + 1), out=start[1:])
        return cls(origin, top, cell, size, start, members)

    def cells_of(self, xy: np.ndarray) -> np.ndarray:
        """The cell of each point (n, 2); the empty cell outside the grid."""
        index = _cell_index(xy, self.origin, self.cell, self.size)
        cells = index[:, 1] * self.size + index[:, 0]
        inside = np.all((xy >= self.origin) & (xy <= self.top), axis=1)
        cells[~inside] = self.size * self.size
        return cells

    def pairs(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point, box id) pairs for points in the given cells."""
        first = self.start[cells]
        count = self.start[cells + 1] - first
        point = np.repeat(np.arange(len(cells)), count)
        pos = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(len(point))
        return point, self.members[pos]


def _cell_index(xy: np.ndarray, origin, cell, size: int) -> np.ndarray:
    return np.clip(np.floor((xy - origin) / cell), 0, size - 1).astype(np.intp)


def _chunks(weights: np.ndarray, budget: int):
    """Consecutive slices whose weights sum to at most ``budget`` (or one item)."""
    total = np.cumsum(weights)
    begin = 0
    while begin < len(weights):
        base = total[begin - 1] if begin else 0
        end = max(int(np.searchsorted(total, base + budget, side="right")), begin + 1)
        yield slice(begin, end)
        begin = end


def _classify_along(points: np.ndarray, corners: np.ndarray, direction: np.ndarray,
                    scale: float):
    """(resolved mask, inside labels) of points for rays along one direction,
    with the tolerances of a mesh whose vertex box's longest side is ``scale``.

    Equals testing every point against every triangle, but tests each point
    only against the triangles whose projection along the ray can contain
    it: the triangles' projected bounding boxes, padded by a margin far
    wider than the barycentric tolerance, are binned into a uniform grid of
    about sqrt(t) x sqrt(t) cells. Triangles parallel to the ray are tested
    against every point, since their in-plane test has no barycentric
    bound. Work is chunked by candidate pairs, which bounds peak memory.
    """
    terms = _TriangleTerms.of(corners, direction, scale)
    margin = _BIN_MARGIN * scale
    basis = _plane_basis(direction)
    projected = corners @ basis
    binned = np.flatnonzero(~terms.parallel)
    grid = _BoxGrid.build(
        projected[binned].min(axis=1) - margin,
        projected[binned].max(axis=1) + margin,
        binned,
    )
    parallel = np.flatnonzero(terms.parallel)
    cells = grid.cells_of(points @ basis)
    load = grid.start[cells + 1] - grid.start[cells] + len(parallel)
    resolved = np.empty(len(points), dtype=bool)
    labels = np.empty(len(points), dtype=np.uint8)
    for part in _chunks(load, _PAIR_CHUNK):
        pair_point, pair_tri = grid.pairs(cells[part])
        if len(parallel):
            m = part.stop - part.start
            pair_point = np.concatenate([pair_point, np.repeat(np.arange(m), len(parallel))])
            pair_tri = np.concatenate([pair_tri, np.tile(parallel, m)])
        resolved[part], labels[part] = _classify_pairs(
            points[part], pair_point, pair_tri, terms, direction
        )
    return resolved, labels


def point_in_mesh(mesh: Mesh, points) -> np.ndarray:
    """1 for points inside or on the mesh surface, 0 outside.

    Casts a ray per point and counts proper triangle crossings (odd = inside).
    Rays that graze an edge or vertex are retried along the next direction in
    a fixed deterministic sequence, so results never depend on luck. Raises
    RayDegeneracyError if a point stays unresolved after all retries (does not
    happen for watertight meshes) and DegenerateMeshError for meshes with no
    triangles, that are not closed and manifold, or whose triangles all have
    zero area. Zero-area triangles are left out of the parity test. Every
    tolerance is relative to the longest side of the mesh's vertex box.

    After those checks, every point outside the mesh's vertex box, padded
    by ``_BIN_MARGIN`` times the mesh extent, is labeled 0 without a ray:
    on a closed mesh the ray test gives it 0 as well, so the labels are
    the same. Each remaining point is tested only against the triangles a
    uniform grid pairs it with (see :func:`_classify_along`), so the cost
    grows with the points in the box times triangles per grid cell, not
    points times triangles.
    """
    pts, single = as_points(points)
    if len(mesh.triangles) == 0:
        raise DegenerateMeshError("mesh has no triangles; inside test undefined")
    _require_closed_manifold(mesh.triangles)

    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    scale = float(np.max(hi - lo))
    # A zero-area triangle is parallel to every ray, so it never counts a
    # crossing; left in, its zero normal would mark every point coplanar.
    # (areas > 0 keeps it out where L, or L^2, is 0.)
    areas = triangle_areas(mesh)
    corners = mesh.triangle_corners[(areas > 0) & (areas >= 0.5 * _PARALLEL_EPS * scale * scale)]
    if len(corners) == 0:
        raise DegenerateMeshError("every triangle has zero area; inside test undefined")
    labels = np.zeros(len(pts), dtype=np.uint8)
    # Outside the vertex box, padded by _BIN_MARGIN times the mesh extent,
    # a point is outside a closed mesh and too far from every triangle for
    # any tolerance of the ray test: it keeps label 0 and casts no ray.
    pad = _BIN_MARGIN * scale
    unresolved = ((pts >= lo - pad) & (pts <= hi + pad)).all(axis=1)
    for direction in _DIRECTIONS:
        idx = np.flatnonzero(unresolved)
        if len(idx) == 0:
            break
        resolved, lab = _classify_along(pts[idx], corners, direction, scale)
        done = idx[resolved]
        labels[done] = lab[resolved]
        unresolved[done] = False
    if unresolved.any():
        raise RayDegeneracyError(
            f"{int(unresolved.sum())} points could not be classified after "
            f"{_MAX_RAY_RETRIES} ray directions"
        )
    return labels[0] if single else labels


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Area of each triangle, shape (t,)."""
    corners = mesh.triangle_corners
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def sample_surface(mesh: Mesh, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points uniformly by area from the mesh surface."""
    areas = triangle_areas(mesh)
    total = areas.sum()
    if total <= 0:
        raise DegenerateMeshError("mesh surface area is zero")
    tri = rng.choice(len(areas), size=n, p=areas / total)
    corners = mesh.triangle_corners[tri]
    r1 = rng.random(n)
    r2 = rng.random(n)
    sqrt_r1 = np.sqrt(r1)
    w0 = 1.0 - sqrt_r1
    w1 = sqrt_r1 * (1.0 - r2)
    w2 = sqrt_r1 * r2
    return (
        w0[:, None] * corners[:, 0]
        + w1[:, None] * corners[:, 1]
        + w2[:, None] * corners[:, 2]
    )


def sample_labeled_points(
    mesh: Mesh, n_surface: int, n_uniform: int, seed: int
) -> LabeledPointSet:
    """Draw the training point set for a normalized mesh and label it.

    n_uniform points come from the uniform law on [-0.6, 0.6]^3; n_surface
    points are drawn by area from the surface and jittered by isotropic
    Gaussian noise (sigma 0.05). Labels are ray-parity inside tests, surface
    points count as inside. Deterministic for a fixed seed: same mesh, same
    counts, same seed give byte-identical output.
    """
    if n_uniform < 0 or n_surface < 0:
        raise ValueError("sample counts must be non-negative")
    if n_uniform + n_surface == 0:
        raise ValueError("need at least one sample point")
    rng = np.random.default_rng(seed)
    lo, hi = SAMPLING_DOMAIN
    parts = []
    if n_uniform:
        parts.append(rng.uniform(lo, hi, size=(n_uniform, 3)))
    if n_surface:
        base = sample_surface(mesh, n_surface, rng)
        parts.append(base + rng.normal(0.0, SURFACE_NOISE_SIGMA, size=(n_surface, 3)))
    points = np.vstack(parts)
    labels = point_in_mesh(mesh, points)
    return LabeledPointSet(points, labels)
