import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _classify_chunk,
    classify_dense,
    icosphere_reference,
    mesh_scale,
    point_in_mesh_reference,
    triangle_terms,
    write_obj_records_reference,
)
from sqdecomp import (
    DegenerateMeshError,
    Mesh,
    MeshFormatError,
    box,
    dumbbell,
    icosphere,
    load_mesh,
    merge,
    normalize,
    point_in_mesh,
    sample_labeled_points,
    save_mesh,
)
from sqdecomp import geometry
from sqdecomp import quaternions as quat
from sqdecomp.geometry import (
    _BIN_MARGIN,
    _DIRECTIONS,
    _BoxGrid,
    _classify_along,
    _plane_basis,
    write_obj_records,
)


def write_obj(path, text):
    path.write_text(text)
    return path


class TestLoadMesh:
    def test_single_triangle(self, tmp_path):
        p = write_obj(tmp_path / "t.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        mesh = load_mesh(p)
        assert mesh.vertices.shape == (3, 3)
        assert mesh.triangles.shape == (1, 3)
        np.testing.assert_array_equal(mesh.triangles[0], [0, 1, 2])

    def test_vertex_order_preserved(self, tmp_path):
        p = write_obj(tmp_path / "t.obj", "v 5 0 0\nv 0 6 0\nv 0 0 7\nf 1 2 3\n")
        np.testing.assert_array_equal(
            load_mesh(p).vertices, [[5, 0, 0], [0, 6, 0], [0, 0, 7]]
        )

    def test_quad_fan_triangulated(self, tmp_path):
        p = write_obj(
            tmp_path / "q.obj", "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        )
        mesh = load_mesh(p)
        assert len(mesh.triangles) == 2
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])

    def test_slash_forms_accepted(self, tmp_path):
        body = (
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vt 0 0\nvn 0 0 1\n"
            "f 1/1 2/1 3/1\nf 1//1 2//1 3//1\nf 1/1/1 2/1/1 3/1/1\n"
        )
        assert len(load_mesh(write_obj(tmp_path / "s.obj", body)).triangles) == 3

    def test_zero_index_rejected(self, tmp_path):
        """Face indices are 1-based; a 0 reference is a format error."""
        p = write_obj(tmp_path / "z.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(MeshFormatError):
            load_mesh(p)

    def test_out_of_range_index_rejected(self, tmp_path):
        p = write_obj(tmp_path / "o.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")
        with pytest.raises(MeshFormatError):
            load_mesh(p)

    def test_malformed_face_rejected(self, tmp_path):
        p = write_obj(tmp_path / "m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n")
        with pytest.raises(MeshFormatError):
            load_mesh(p)

    def test_short_face_rejected(self, tmp_path):
        p = write_obj(tmp_path / "f2.obj", "v 0 0 0\nv 1 0 0\nf 1 2\n")
        with pytest.raises(MeshFormatError):
            load_mesh(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_mesh(tmp_path / "nope.obj")

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        """A UTF-8 BOM used to hide the first vertex record, which shifted
        every face index by one."""
        body = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 2 4 3\n"
        plain = load_mesh(write_obj(tmp_path / "plain.obj", body))
        marked = tmp_path / "bom.obj"
        marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
        mesh = load_mesh(marked)
        assert mesh.vertices.tobytes() == plain.vertices.tobytes()
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [1, 3, 2]])

    def test_save_load_round_trip(self, tmp_path):
        mesh = box(center=(0.1, -0.2, 0.05), size=(0.4, 0.3, 0.6))
        save_mesh(mesh, tmp_path / "b.obj")
        back = load_mesh(tmp_path / "b.obj")
        np.testing.assert_array_equal(back.vertices, mesh.vertices)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)


# Malformed OBJ bodies and the exact message of each, after "<path>".
MALFORMED_OBJ = [
    ("v 0 0\n", ":1: vertex needs 3 coordinates"),
    ("v 0 0 0\nv 0 0 0 1\nv 1 0\n", ":3: vertex needs 3 coordinates"),
    ("v 0 0 x\n", ":1: bad vertex coordinate"),
    ("v 0 0 0\nv 1 0 0\nf 1 2\n", ":3: face needs at least 3 vertices"),
    ("v 0 0 0\n\nf 1 1 x\n", ":3: bad face index 'x'"),
    ("v 0 0 0\nf 1/1 /2 1\n", ":2: bad face index '/2'"),
    ("v 0 0 0\nf 1 0 1\n", ":2: face indices must be positive, got 0"),
    # Relative (negative) references are not supported.
    ("v 0 0 0\nf 1 -2 1\n", ":2: face indices must be positive, got -2"),
    # Within a line, the first bad reference decides.
    ("v 0 0 0\nf 1 0 x\n", ":2: face indices must be positive, got 0"),
    ("v 0 0 0\nf 1 x 0\n", ":2: bad face index 'x'"),
    ("", ": no vertices"),
    ("# a comment\nvn 0 0 1\nf 1 2 3\n", ": no vertices"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n", ": face index 4 exceeds vertex count"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 7 5\n", ": face index 7 exceeds vertex count"),
    # The first bad record in file order wins, whatever its kind.
    ("v 0 0 0\nf 1 1 x\nv 0 0 y\n", ":2: bad face index 'x'"),
    ("v 0 0 y\nf 1 1 x\n", ":1: bad vertex coordinate"),
    ("v 0 0 0\nf 1 1 1\nv 1\n", ":3: vertex needs 3 coordinates"),
    ("v 0 0 0\nf 1 1 0\nf 1 1\n", ":2: face indices must be positive, got 0"),
    # A trailing comment on a face record is read as a reference.
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 # a comment\n", ":4: bad face index '#'"),
    # Lines are numbered after newline translation.
    ("v 0 0 0\r\nv 1 0 0\rv 0 1\n", ":3: vertex needs 3 coordinates"),
    # Python's float reads these, but a mesh vertex must be finite.
    ("v nan 0 0\n", ":1: bad vertex coordinate"),
    ("v 0 0 0\nv 1e400 0 0\n", ":2: bad vertex coordinate"),
    ("v 0 0 0\nv 0 -inf 0\nf 1 2 1\n", ":2: bad vertex coordinate"),
    ("v 0 0 0\nf 1 1 x\nv 0 0 NaN\n", ":2: bad face index 'x'"),
    ("v 0 0 Infinity\nf 1 1 x\n", ":1: bad vertex coordinate"),
]


class TestLoadMeshErrors:
    @pytest.mark.parametrize("body, message", MALFORMED_OBJ)
    def test_first_bad_record_names_its_line(self, tmp_path, body, message):
        p = tmp_path / "bad.obj"
        p.write_bytes(body.encode())
        with pytest.raises(MeshFormatError, match=f"^{re.escape(str(p) + message)}$"):
            load_mesh(p)

    def test_text_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "bad.obj"
        p.write_bytes(b"v 0 0 0\nv 1 0 0\nv 0 1 0\n# caf\xe9\nf 1 2 3\n")
        with pytest.raises(MeshFormatError, match=f"^{re.escape(str(p))}: not UTF-8 text: "):
            load_mesh(p)


def random_obj_body(rng: np.random.Generator):
    """An OBJ body of random v and f records, formatted every way the
    reader accepts, and the vertices and fan triangles it holds."""
    n = int(rng.integers(3, 30))
    vertices = rng.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    vertices[rng.random((n, 3)) < 0.1] = 0.0
    faces = [rng.choice(n, int(rng.integers(3, 6)), replace=False) for _ in range(20)]
    seps = [" ", "\t", "  ", " \t "]

    def sep():
        return seps[rng.integers(len(seps))]

    def ref(k):
        return [f"{k}", f"{k}/{k}", f"{k}//{k}", f"{k}/1/{k}"][rng.integers(4)]

    lines = [f"v{sep()}" + sep().join(repr(float(c)) for c in v)
             + (" 1.0" if rng.random() < 0.2 else "") for v in vertices]
    lines += [f"f{sep()}" + sep().join(ref(k + 1) for k in face) + sep() for face in faces]
    extra = ["", "# comment", "vt 0.5 0.5", "vn 0 0 1", "g part", "s off", "   "]
    for _ in range(10):
        lines.insert(int(rng.integers(len(lines) + 1)), extra[rng.integers(len(extra))])
    triangles = [[f[0], f[i], f[i + 1]] for f in faces for i in range(1, len(f) - 1)]
    return "\n".join(lines) + "\n", vertices, np.array(triangles)


class TestObjRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_body_loads_bit_exact(self, tmp_path, seed):
        body, vertices, triangles = random_obj_body(np.random.default_rng(seed))
        p = write_obj(tmp_path / "r.obj", body)
        mesh = load_mesh(p)
        assert mesh.vertices.tobytes() == vertices.tobytes()
        np.testing.assert_array_equal(mesh.triangles, triangles)
        save_mesh(mesh, tmp_path / "again.obj")
        back = load_mesh(tmp_path / "again.obj")
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        np.testing.assert_array_equal(back.triangles, mesh.triangles)

    def test_vertices_without_faces(self, tmp_path):
        mesh = load_mesh(write_obj(tmp_path / "v.obj", "v 0 0 0\nv 1 1 1\n"))
        assert mesh.vertices.shape == (2, 3) and mesh.triangles.shape == (0, 3)

    @pytest.mark.parametrize("base", [0, 1, 1000])
    def test_writer_bytes_equal_the_per_row_writer(self, base):
        rng = np.random.default_rng(base)
        mesh = icosphere(subdivisions=2)
        vertices = mesh.vertices * 10.0 ** rng.integers(-20, 20, mesh.vertices.shape)
        got, want = io.StringIO(), io.StringIO()
        write_obj_records(got, vertices, mesh.triangles, base)
        write_obj_records_reference(want, vertices, mesh.triangles, base)
        assert got.getvalue() == want.getvalue()

    def test_writer_takes_lists(self):
        got, want = io.StringIO(), io.StringIO()
        write_obj_records(got, [[0, 1, 2.5]], [[0, 0, 0]], 3)
        write_obj_records_reference(want, [[0, 1, 2.5]], [[0, 0, 0]], 3)
        assert got.getvalue() == want.getvalue() == "v 0.0 1.0 2.5\nf 4 4 4\n"


class TestMeshValidation:
    def test_triangle_index_out_of_range(self):
        with pytest.raises(ValueError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))

    def test_negative_index(self):
        with pytest.raises(ValueError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, -1]]))


class TestIcosphere:
    @pytest.mark.parametrize("subdivisions", range(6))
    def test_array_pass_is_the_face_loop_bitwise(self, subdivisions):
        """One edge-key array pass per level gives the face loop's vertices,
        bit for bit, and its faces, numbered and ordered the same."""
        for radius, center in ((1.0, (0.0, 0.0, 0.0)), (0.4, (0.1, -0.2, 0.3))):
            mesh = icosphere(radius, subdivisions, center)
            vertices, faces = icosphere_reference(radius, subdivisions, center)
            assert mesh.vertices.tobytes() == vertices.tobytes()
            assert mesh.triangles.dtype == faces.dtype
            assert np.array_equal(mesh.triangles, faces)

    def test_negative_subdivisions_rejected(self):
        """A negative count used to return the bare icosahedron."""
        with pytest.raises(ValueError, match="subdivisions must be >= 0, got -3"):
            icosphere(subdivisions=-3)


class TestNormalize:
    def test_unit_cube_centers_at_origin(self):
        mesh = box(center=(0.5, 0.5, 0.5), size=(1, 1, 1))
        out = normalize(mesh)
        np.testing.assert_allclose(out.vertices.min(axis=0), [-0.5, -0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(out.vertices.max(axis=0), [0.5, 0.5, 0.5], atol=1e-15)

    def test_aspect_ratio_preserved(self):
        mesh = box(center=(1.0, 0.5, 0.5), size=(2, 1, 1))
        out = normalize(mesh)
        np.testing.assert_allclose(out.vertices.min(axis=0), [-0.5, -0.25, -0.25], atol=1e-15)
        np.testing.assert_allclose(out.vertices.max(axis=0), [0.5, 0.25, 0.25], atol=1e-15)

    def test_idempotent(self):
        mesh = box(center=(3, 4, 5), size=(0.7, 1.9, 0.2))
        once = normalize(mesh)
        twice = normalize(once)
        np.testing.assert_allclose(twice.vertices, once.vertices, atol=1e-12)

    def test_degenerate_mesh_rejected(self):
        verts = np.zeros((3, 3))
        with pytest.raises(DegenerateMeshError):
            normalize(Mesh(verts, np.array([[0, 1, 2]])))


def parity_raycast_up(mesh: Mesh, point: np.ndarray) -> int:
    """Independent inside test: parity of crossings along the +z ray.

    Project every triangle to the xy plane and count those whose projection
    strictly contains the point's (x, y) with the intersection above z.
    Unlike the library this handles no degeneracies, so callers must keep
    probe points away from edge shadows; agreement on generic points is the
    point of the cross-check.
    """
    x, y, z = point
    crossings = 0
    for tri in mesh.triangles:
        a, b, c = mesh.vertices[tri]
        d1 = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
        d2 = (c[0] - b[0]) * (y - b[1]) - (c[1] - b[1]) * (x - b[0])
        d3 = (a[0] - c[0]) * (y - c[1]) - (a[1] - c[1]) * (x - c[0])
        if not ((d1 > 0 and d2 > 0 and d3 > 0) or (d1 < 0 and d2 < 0 and d3 < 0)):
            continue
        n = np.cross(b - a, c - a)
        if n[2] == 0.0:
            continue
        zi = a[2] - (n[0] * (x - a[0]) + n[1] * (y - a[1])) / n[2]
        if zi > z:
            crossings += 1
    return crossings % 2


def table_mesh() -> Mesh:
    """A four-legged table: one top slab plus four square legs."""
    top = box(center=(0, 0, 0.45), size=(1.0, 1.0, 0.1))
    legs = [
        box(center=(sx * 0.4, sy * 0.4, 0.0), size=(0.1, 0.1, 0.8))
        for sx in (-1, 1)
        for sy in (-1, 1)
    ]
    return merge([top] + legs)


class TestPointInMesh:
    def test_cube_center_inside(self):
        assert point_in_mesh(box(), [0.0, 0.0, 0.0]) == 1

    def test_point_far_outside_cube(self):
        assert point_in_mesh(box(), [2.0, 0.0, 0.0]) == 0

    def test_surface_point_counts_as_inside(self):
        cube = box()
        assert point_in_mesh(cube, [0.5, 0.0, 0.0]) == 1
        assert point_in_mesh(cube, [0.5, 0.5, 0.12]) == 1

    def test_batch_output(self):
        labels = point_in_mesh(box(), np.array([[0, 0, 0], [2, 0, 0], [0.2, 0.1, -0.3]]))
        np.testing.assert_array_equal(labels, [1, 0, 1])

    def test_table_leg_interior(self):
        """A probe inside one leg of the table registers as inside."""
        assert point_in_mesh(table_mesh(), [0.4, 0.4, -0.2]) == 1
        assert point_in_mesh(table_mesh(), [0.0, 0.0, 0.0]) == 0  # air under the top

    def test_table_agrees_with_independent_ray_caster(self):
        mesh = table_mesh()
        rng = np.random.default_rng(40)
        pts = rng.uniform(-0.7, 0.7, (400, 3))
        got = point_in_mesh(mesh, pts)
        expected = np.array([parity_raycast_up(mesh, p) for p in pts], dtype=np.uint8)
        np.testing.assert_array_equal(got, expected)

    def test_table_agrees_with_box_union_membership(self):
        """Second oracle: the table is a union of 5 axis-aligned boxes."""
        mesh = table_mesh()
        rng = np.random.default_rng(41)
        pts = rng.uniform(-0.7, 0.7, (2000, 3))
        inside_top = np.all(np.abs(pts - [0, 0, 0.45]) <= [0.5, 0.5, 0.05], axis=1)
        inside_leg = np.zeros(len(pts), dtype=bool)
        for sx in (-1, 1):
            for sy in (-1, 1):
                c = np.array([sx * 0.4, sy * 0.4, 0.0])
                inside_leg |= np.all(np.abs(pts - c) <= [0.05, 0.05, 0.4], axis=1)
        np.testing.assert_array_equal(
            point_in_mesh(mesh, pts), (inside_top | inside_leg).astype(np.uint8)
        )


def probe_points(mesh: Mesh, rng: np.random.Generator, n: int = 1000) -> np.ndarray:
    """Uniform points around the mesh, jittered and exact surface samples,
    every vertex and every edge midpoint."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pad = 0.1 * (hi - lo).max()
    corners = mesh.triangle_corners[rng.integers(0, len(mesh.triangles), n)]
    surface = np.einsum("nk,nkd->nd", rng.dirichlet(np.ones(3), n), corners)
    start, end = mesh.triangles.ravel(), np.roll(mesh.triangles, -1, axis=1).ravel()
    once = start < end  # each edge of a closed mesh appears in both orientations
    midpoints = 0.5 * (mesh.vertices[start[once]] + mesh.vertices[end[once]])
    return np.vstack([
        rng.uniform(lo - pad, hi + pad, (n, 3)),
        surface + rng.normal(0.0, 0.02 * (hi - lo).max(), surface.shape),
        surface,
        mesh.vertices,
        midpoints,
    ])


def prism_along(direction: np.ndarray, size: float = 0.4, offset=-0.1) -> Mesh:
    """Closed triangular prism extruded along ``direction``, its edges
    ``size`` long, moved by ``offset``: the ray along that direction runs
    parallel to all six side triangles."""
    local = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], float)
    b1 = np.cross(direction, [1.0, 0.0, 0.0])
    b1 /= np.linalg.norm(b1)
    frame = np.stack([b1, np.cross(direction, b1), direction], axis=1)
    faces = [[0, 2, 1], [3, 4, 5], [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
             [2, 0, 3], [2, 3, 5]]
    return Mesh(size * local @ frame.T + offset, faces)


def cylinder(segments: int) -> Mesh:
    """Closed cylinder along z, radius 0.3 and height 1: its side and cap
    triangles are long and thin."""
    angle = 2 * np.pi * np.arange(segments) / segments
    ring = 0.3 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    vertices = np.vstack([
        np.c_[ring, np.full(segments, -0.5)],
        np.c_[ring, np.full(segments, 0.5)],
        [[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]],
    ])
    n = segments
    i = np.arange(n)
    j = (i + 1) % n
    faces = np.vstack([
        np.c_[np.full(n, 2 * n), j, i],
        np.c_[np.full(n, 2 * n + 1), n + i, n + j],
        np.c_[i, j, n + j],
        np.c_[i, n + j, n + i],
    ])
    return Mesh(vertices, faces)


class TestClosedManifoldCheck:
    def test_box_with_a_face_removed_rejected(self):
        cube = box()
        with pytest.raises(DegenerateMeshError, match="closed and manifold"):
            point_in_mesh(Mesh(cube.vertices, cube.triangles[1:]), [0.0, 0.0, 0.0])

    def test_box_with_a_duplicated_face_rejected(self):
        cube = box()
        doubled = np.vstack([cube.triangles, cube.triangles[:1]])
        with pytest.raises(DegenerateMeshError, match="closed and manifold"):
            point_in_mesh(Mesh(cube.vertices, doubled), [0.0, 0.0, 0.0])

    def test_triangle_with_repeated_vertex_rejected(self):
        cube = box()
        tris = np.vstack([cube.triangles, [[0, 0, 1]]])
        with pytest.raises(DegenerateMeshError, match="repeated vertex"):
            point_in_mesh(Mesh(cube.vertices, tris), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("case, unpaired, repeated", [
        ("duplicated face", 0, 3),
        # Three copies of a face repeat its three edges: repeats count
        # distinct directed edges, not uses.
        ("face used three times", 0, 3),
        ("missing face", 3, 0),
        # A fin on edge 0-1 of the box: that edge is used by three
        # triangles, twice as 0 -> 1; the fin's other two edges are unpaired.
        ("edge used three times", 2, 1),
    ])
    def test_message_counts(self, case, unpaired, repeated):
        cube = box()
        tris = {
            "duplicated face": np.vstack([cube.triangles, cube.triangles[:1]]),
            "face used three times": np.vstack([cube.triangles] + [cube.triangles[:1]] * 2),
            "missing face": cube.triangles[1:],
            "edge used three times": np.vstack([cube.triangles, [[0, 1, 8]]]),
        }[case]
        mesh = Mesh(np.vstack([cube.vertices, [[0.0, -1.0, -1.0]]]), tris)
        message = (
            f"mesh is not closed and manifold: {unpaired} edges lack an oppositely "
            f"oriented twin and {repeated} are used more than once in the same orientation"
        )
        with pytest.raises(DegenerateMeshError, match=f"^{re.escape(message)}$"):
            point_in_mesh(mesh, [0.0, 0.0, 0.0])

    def test_open_mesh_rejected_with_every_point_outside_its_box(self):
        cube = box()
        far = np.array([[2.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, 9.0]])
        with pytest.raises(DegenerateMeshError, match="closed and manifold"):
            point_in_mesh(Mesh(cube.vertices, cube.triangles[1:]), far)

    def test_zero_area_triangle_is_left_out(self):
        """Splitting face (0, 1, 5) at the midpoint M of edge 0-1 adds the
        collinear triangle (0, 1, M); the mesh stays closed and manifold and
        must label points as the box does."""
        cube = box()
        mid = len(cube.vertices)
        vertices = np.vstack([cube.vertices, 0.5 * (cube.vertices[0] + cube.vertices[1])])
        split = [[0, mid, 5], [mid, 1, 5], [0, 1, mid]]
        tris = np.vstack([[t for t in cube.triangles if list(t) != [0, 1, 5]], split])
        pts = np.vstack([
            [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.1, 0.2, 0.3]],
            np.random.default_rng(7).uniform(-1.0, 1.0, (2000, 3)),
        ])
        np.testing.assert_array_equal(
            point_in_mesh(Mesh(vertices, tris), pts), point_in_mesh(cube, pts)
        )

    def test_mesh_with_only_zero_area_triangles_rejected(self):
        """A box collapsed onto the x axis stays closed and manifold, but
        every triangle has zero area: no triangle is left to cast rays at."""
        cube = box()
        flat = cube.vertices * np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateMeshError, match="zero area"):
            point_in_mesh(Mesh(flat, cube.triangles), [0.0, 0.0, 0.0])


class TestScaleInvariance:
    """Every ray-test tolerance is relative to the mesh's vertex box, and
    scaling by a power of two is exact in floating point, so a mesh and its
    points scaled by 2^j get bit for bit the labels of the unit-scale mesh."""

    @pytest.mark.parametrize("j", [-24, -20, -16, 8, 20])
    @pytest.mark.parametrize("name", ["box", "icosphere2", "dumbbell"])
    def test_labels_equal_unit_scale_labels(self, name, j):
        mesh = {
            "box": box,
            "icosphere2": lambda: icosphere(subdivisions=2),
            "dumbbell": lambda: normalize(dumbbell()),
        }[name]()
        # Uniform points, and points on the surface: the vertices and the
        # triangles' centroids, which the on-surface tolerance decides.
        pts = np.vstack([
            np.random.default_rng(56).uniform(-0.6, 0.6, (3000, 3)),
            mesh.vertices,
            mesh.triangle_corners.mean(axis=1),
        ])
        scaled = Mesh(np.ldexp(mesh.vertices, j), mesh.triangles)
        np.testing.assert_array_equal(
            point_in_mesh(scaled, np.ldexp(pts, j)), point_in_mesh(mesh, pts)
        )

    @pytest.mark.parametrize("j", [-24, -20, -16, 8, 20])
    def test_points_left_for_the_next_ray_do_not_change_with_scale(self, j):
        """Rays along the prism's six side triangles: the coplanar tolerance
        decides which points one pass leaves unresolved, at any scale."""
        mesh = prism_along(_DIRECTIONS[0])
        pts = probe_points(mesh, np.random.default_rng(57))
        corners, scale = mesh.triangle_corners, mesh_scale(mesh)
        unit = _classify_along(pts, corners, _DIRECTIONS[0], scale)
        scaled = _classify_along(
            np.ldexp(pts, j), np.ldexp(corners, j), _DIRECTIONS[0], np.ldexp(scale, j)
        )
        assert not unit[0].all()
        for got, want in zip(scaled, unit):
            np.testing.assert_array_equal(got, want)


def far_points(mesh: Mesh, rng: np.random.Generator, n: int = 1000) -> np.ndarray:
    """Uniform points over three times the mesh's vertex box, and points
    just inside and just outside point_in_mesh's pad of that box, beside
    every vertex that touches the box: moved out of the box across all or
    some of the faces it touches."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    centre, size = 0.5 * (lo + hi), hi - lo
    pad = _BIN_MARGIN * size.max()
    touching = (mesh.vertices == lo) | (mesh.vertices == hi)
    edge = mesh.vertices[touching.any(axis=1)]
    outward = np.sign(edge - centre) * touching[touching.any(axis=1)]
    some = outward * (rng.random(edge.shape) < 0.5)
    return np.vstack([
        rng.uniform(centre - 1.5 * size, centre + 1.5 * size, (n, 3)),
        edge + 0.5 * pad * outward,
        edge + 2.0 * pad * outward,
        edge + 0.5 * pad * some,
        edge + 2.0 * pad * some,
    ])


class TestBoxPrePass:
    """Points outside the padded vertex box are labeled 0 without a ray;
    every label must still be the brute-force test's."""

    @pytest.mark.parametrize("name", ["box", "dumbbell", "table", "icosphere4"])
    def test_labels_equal_reference_over_three_times_the_box(self, name):
        mesh = {
            "box": box,
            "dumbbell": lambda: normalize(dumbbell()),
            "table": table_mesh,
            "icosphere4": lambda: normalize(icosphere(subdivisions=4)),
        }[name]()
        pts = far_points(mesh, np.random.default_rng(53))
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        outside = ((pts < lo) | (pts > hi)).any(axis=1)
        assert 0.5 < outside.mean() < 1.0
        np.testing.assert_array_equal(point_in_mesh(mesh, pts), point_in_mesh_reference(mesh, pts))

    def test_cube_faces_and_corners_are_inside(self):
        """Points exactly on the vertex box's faces, edges and corners lie
        on the cube's surface: inside, as the brute-force test says."""
        cube = box(center=(0.1, -0.2, 0.3), size=(0.4, 0.6, 0.8))
        lo, hi = cube.vertices.min(axis=0), cube.vertices.max(axis=0)
        rng = np.random.default_rng(54)
        on_faces = rng.uniform(lo, hi, (300, 3))
        axis = rng.integers(3, size=300)
        side = np.where(rng.random((300, 1)) < 0.5, lo, hi)
        on_faces[np.arange(300), axis] = side[np.arange(300), axis]
        pts = np.vstack([cube.vertices, on_faces, 0.5 * (lo + hi)])
        labels = point_in_mesh(cube, pts)
        assert labels.all()
        np.testing.assert_array_equal(labels, point_in_mesh_reference(cube, pts))

    def test_every_point_outside_the_box(self):
        pts = np.array([[2.0, 0.0, 0.0], [0.0, -0.5 - 1e-5, 0.0], [0.6, 0.6, 0.6]])
        assert not point_in_mesh(box(), pts).any()
        assert point_in_mesh(box(), pts[0]) == 0


class TestBinnedMatchesBruteForce:
    """point_in_mesh tests only the triangles its grid pairs with each
    point; its labels must equal those of testing every triangle."""

    MESHES = {
        "box": box,
        "dumbbell": lambda: normalize(dumbbell()),
        "table": table_mesh,
        "icosphere4": lambda: icosphere(subdivisions=4),
    }

    @pytest.mark.parametrize("name", list(MESHES))
    def test_labels_equal_reference(self, name):
        mesh = self.MESHES[name]()
        pts = probe_points(mesh, np.random.default_rng(50))
        np.testing.assert_array_equal(point_in_mesh(mesh, pts), point_in_mesh_reference(mesh, pts))

    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("name", list(MESHES))
    def test_each_direction_equals_reference(self, name, d):
        """One ray direction at a time, the resolved mask and the labels
        both equal the brute-force test's, also at the vertices and edge
        midpoints, whose rays graze."""
        mesh = self.MESHES[name]()
        pts = probe_points(mesh, np.random.default_rng(58))
        corners, scale = mesh.triangle_corners, mesh_scale(mesh)
        resolved, labels = _classify_along(pts, corners, _DIRECTIONS[d], scale)
        # The brute-force test holds (points, triangles, 3) arrays: chunk it.
        step = max(1, 250_000 // len(corners))
        ref = [_classify_chunk(pts[i:i + step], corners, _DIRECTIONS[d], scale)
               for i in range(0, len(pts), step)]
        np.testing.assert_array_equal(resolved, np.concatenate([r for r, _ in ref]))
        np.testing.assert_array_equal(labels, np.concatenate([lab for _, lab in ref]))

    @pytest.mark.parametrize("name", ["box", "dumbbell", "table"])
    def test_prefiltered_reference_is_the_dense_one(self, name):
        """The reference tests only the pairs its box prefilter keeps; for
        every retry direction its resolved mask and labels equal those of
        testing every pair, at the probe points and the far points."""
        mesh = self.MESHES[name]()
        rng = np.random.default_rng(59)
        pts = np.vstack([probe_points(mesh, rng, 300), far_points(mesh, rng, 300)])
        corners, scale = mesh.triangle_corners, mesh_scale(mesh)
        for direction in _DIRECTIONS:
            resolved, labels = _classify_chunk(pts, corners, direction, scale)
            dense_resolved, dense_labels = classify_dense(pts, corners, direction, scale)
            np.testing.assert_array_equal(resolved, dense_resolved)
            np.testing.assert_array_equal(labels, dense_labels)

    @settings(max_examples=25, deadline=None)
    @given(
        size=st.floats(0.05, 2.0),
        offset=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        j=st.integers(-20, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_triangles_parallel_to_the_ray(self, size, offset, j, seed):
        """Triangles parallel to the ray get one plane check per chunk of
        points, so points in their planes are sent on to the next ray
        exactly as the brute-force test sends them. A small pair budget
        spreads the points over many chunks."""
        mesh = prism_along(_DIRECTIONS[0], size, offset)
        mesh = Mesh(np.ldexp(mesh.vertices, j), mesh.triangles)
        corners = mesh.triangle_corners
        scale = mesh_scale(mesh)
        assert np.count_nonzero(triangle_terms(corners, _DIRECTIONS[0], scale)[-1]) == 6
        rng = np.random.default_rng(seed)
        v = mesh.vertices
        coef = rng.uniform(-0.5, 1.5, (300, 2))
        in_side_plane = v[0] + coef[:, :1] * (v[1] - v[0]) + coef[:, 1:] * (v[3] - v[0])
        pts = np.vstack([probe_points(mesh, rng, 300), in_side_plane])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_PAIR_CHUNK", 64)
            resolved, labels = _classify_along(pts, corners, _DIRECTIONS[0], scale)
            got = point_in_mesh(mesh, pts)
        ref_resolved, ref_labels = _classify_chunk(pts, corners, _DIRECTIONS[0], scale)
        np.testing.assert_array_equal(resolved, ref_resolved)
        np.testing.assert_array_equal(labels, ref_labels)
        assert not resolved[-len(in_side_plane):].any()
        np.testing.assert_array_equal(got, point_in_mesh_reference(mesh, pts))
        assert got.any() and not got.all()

    def test_long_thin_triangles_coarsen_the_grid(self):
        """Slivers spanning the mesh would each fill a row of a sqrt(t)-wide
        grid; the grid coarsens so the CSR stays a small multiple of t."""
        mesh = cylinder(200)
        direction = _DIRECTIONS[0]
        projected = mesh.triangle_corners @ _plane_basis(direction)
        scale = mesh_scale(mesh)
        ids = np.flatnonzero(~triangle_terms(mesh.triangle_corners, direction, scale)[-1])
        grid = _BoxGrid.build(projected[ids].min(axis=1), projected[ids].max(axis=1), ids)
        assert grid.size < np.ceil(np.sqrt(len(ids)))
        assert len(grid.members) <= 16 * len(ids)
        pts = probe_points(mesh, np.random.default_rng(52))
        np.testing.assert_array_equal(point_in_mesh(mesh, pts), point_in_mesh_reference(mesh, pts))

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.sampled_from(["box", "icosphere2"]),
        rotation=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda q: np.linalg.norm(q) > 0.1
        ),
        scale=st.floats(0.01, 100.0),
        shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rigidly_moved_meshes(self, shape, rotation, scale, shift, seed):
        mesh = box() if shape == "box" else icosphere(subdivisions=2)
        rot = quat.to_matrix(quat.normalize(np.array(rotation)))
        moved = Mesh(scale * mesh.vertices @ rot.T + np.array(shift), mesh.triangles)
        rng = np.random.default_rng(seed)
        pts = np.vstack([probe_points(moved, rng, 200), far_points(moved, rng, 200)])
        np.testing.assert_array_equal(
            point_in_mesh(moved, pts), point_in_mesh_reference(moved, pts)
        )


class TestSampleLabeledPoints:
    def test_cube_inside_fraction_matches_volume_ratio(self):
        """Uniform samples over the 1.2-wide domain land inside a unit cube
        at close to the volume ratio (1/1.2)^3 = 57.9%."""
        ps = sample_labeled_points(box(), 0, 1000, seed=7)
        frac = ps.labels.mean()
        assert abs(frac - (1.0 / 1.2) ** 3) < 0.05

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            sample_labeled_points(box(), 0, 0, seed=1)
        with pytest.raises(ValueError):
            sample_labeled_points(box(), -1, 10, seed=1)

    def test_deterministic_for_fixed_seed(self, dumbbell_mesh):
        a = sample_labeled_points(dumbbell_mesh, 300, 500, seed=11)
        b = sample_labeled_points(dumbbell_mesh, 300, 500, seed=11)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_points(self, dumbbell_mesh):
        a = sample_labeled_points(dumbbell_mesh, 0, 500, seed=1)
        b = sample_labeled_points(dumbbell_mesh, 0, 500, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_counts_add_up(self, dumbbell_mesh):
        ps = sample_labeled_points(dumbbell_mesh, 123, 456, seed=3)
        assert len(ps) == 123 + 456

    def test_labels_consistent_with_inside_test(self, dumbbell_mesh):
        ps = sample_labeled_points(dumbbell_mesh, 400, 600, seed=5)
        np.testing.assert_array_equal(ps.labels, point_in_mesh(dumbbell_mesh, ps.points))

    def test_surface_samples_concentrate_near_surface(self, sphere_mesh):
        """Near-surface draws sit within a few noise sigmas of radius 0.5."""
        ps = sample_labeled_points(sphere_mesh, 500, 0, seed=9)
        r = np.linalg.norm(ps.points, axis=1)
        assert np.quantile(np.abs(r - 0.5), 0.99) < 4 * 0.05
