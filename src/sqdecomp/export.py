"""Persistence and visualization output: tree JSON, surface OBJ, field CSVs."""

from __future__ import annotations

import json
import os

import numpy as np

from .fitter import FitReport
from .geometry import write_obj_records
from .splitter import SliceSpec, SplitField, split_field_2d
from .sqtree import SqPairNode, SqTree
from .superquadric import Superquadric, surface_points

FORMAT_VERSION = 1


class TreeFormatError(ValueError):
    """The tree JSON file is malformed or has an unsupported version."""


def write_json(doc, path) -> None:
    """Write ``doc`` as JSON with sorted keys, two-space indent and a
    trailing newline, so equal documents give equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_tree(tree: SqTree, report: FitReport | None, path) -> None:
    """Write the fitted tree as JSON.

    All parameters are serialized through Python float repr (17 significant
    digits), so a load/save round-trip is bit-exact. The metadata block is
    :meth:`FitReport.to_json_dict`, which leaves wall-clock time out so that
    identical runs produce identical bytes.
    """
    if not tree.has_level(1):
        raise ValueError("tree has no fitted root; nothing to save")
    nodes = []
    for key in sorted(tree.nodes):
        node = tree.nodes[key]
        nodes.append(
            {
                "depth": node.depth,
                "index": node.index,
                "lambda_a": node.sq_a.params().tolist(),
                "lambda_b": node.sq_b.params().tolist(),
                "degenerate": bool(node.degenerate),
            }
        )
    doc = {
        "format_version": FORMAT_VERSION,
        "max_depth": tree.max_depth,
        "nodes": nodes,
        "metadata": {} if report is None else report.to_json_dict(),
    }
    write_json(doc, path)


def load_tree(path) -> tuple[SqTree, dict]:
    """Read a tree JSON written by :func:`save_tree`.

    Returns the tree (without sample points or labels) and the metadata
    dict. Raises TreeFormatError for text that is not UTF-8 JSON, missing
    fields, a ``format_version``, ``depth``, ``index`` or ``max_depth`` that
    is not a JSON integer, a ``degenerate`` that is not a JSON boolean, a
    ``lambda_a`` or ``lambda_b`` entry that is not a JSON number, a
    ``metadata`` that is present but not a JSON object, or a format version
    this code does not understand. A leading UTF-8 byte-order mark is
    skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TreeFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TreeFormatError(f"{path}: expected a JSON object at top level")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise TreeFormatError(
            f"{path}: unsupported format version {version!r} "
            f"(expected the JSON integer {FORMAT_VERSION})"
        )
    metadata = doc.get("metadata", {})
    if type(metadata) is not dict:
        raise TreeFormatError(f"{path}: metadata must be a JSON object, got {metadata!r}")
    try:
        tree = SqTree(max_depth=_typed(doc["max_depth"], "max_depth", int))
        for entry in sorted(doc["nodes"], key=lambda e: (e["depth"], e["index"])):
            tree.add_node(
                SqPairNode(
                    depth=_typed(entry["depth"], "depth", int),
                    index=_typed(entry["index"], "index", int),
                    sq_a=Superquadric.from_params(_numbers(entry["lambda_a"], "lambda_a")),
                    sq_b=Superquadric.from_params(_numbers(entry["lambda_b"], "lambda_b")),
                    degenerate=_typed(entry.get("degenerate", False), "degenerate", bool),
                )
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TreeFormatError(f"{path}: malformed tree document: {exc}") from exc
    return tree, metadata


def _typed(value, key: str, kind: type):
    """``value`` of field ``key``, which must have exactly the Python type
    ``kind``: a JSON integer for int (``true`` is not one), a JSON boolean
    for bool."""
    if type(value) is not kind:
        raise TypeError(f"{key} must be a JSON {'integer' if kind is int else 'boolean'}, "
                        f"got {value!r}")
    return value


def _numbers(values, key: str) -> np.ndarray:
    """List field ``key`` as float64, every entry a JSON integer or float."""
    if type(values) is not list or any(type(v) not in (int, float) for v in values):
        raise TypeError(f"{key} must be a list of JSON numbers, got {values!r}")
    return np.array(values, dtype=np.float64)


def _triangulate_grid(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated vertices and closed triangulation of a surface grid.

    The grid rows run pole to pole (the two pole rows are constant); rings in
    between are closed in the omega direction. Output is (vertices (v, 3),
    faces (f, 3)) with the south pole first, ring vertices row-major, north
    pole last, wound outward. Faces are the south pole's fan onto the first
    ring, then one strip per pair of neighbouring rings, two triangles per
    quad in ring order, then the north pole's fan onto the last ring.
    """
    n_eta, n_omega, _ = grid.shape
    rings = grid[1:-1].reshape(-1, 3)
    vertices = np.vstack([grid[0, 0][None, :], rings, grid[-1, 0][None, :]])
    # ring[r, c] is the vertex of ring r at column c; after[r, c] is column c + 1.
    ring = np.arange(1, 1 + len(rings), dtype=np.intp).reshape(n_eta - 2, n_omega)
    after = np.roll(ring, -1, axis=1)
    south = np.stack([np.zeros_like(ring[0]), after[0], ring[0]], axis=-1)
    strips = np.stack([ring[:-1], after[:-1], after[1:], ring[:-1], after[1:], ring[1:]], axis=-1)
    north = np.stack([np.full_like(ring[-1], len(vertices) - 1), ring[-1], after[-1]], axis=-1)
    return vertices, np.concatenate([south, strips.reshape(-1, 3), north])


def export_level_obj(tree: SqTree, depth: int, path, resolution: int = 32) -> None:
    """Write the 2^depth surface meshes of one level as a grouped OBJ.

    Each superquadric becomes one `g sq_{d}_{i}_{a|b}` group with a closed
    quad-strip lattice (fan caps at the poles). ``resolution`` is the number
    of parametric samples per direction (>= 3).
    """
    # Every lattice is built before the file is opened, so a resolution
    # that surface_points refuses leaves no file behind.
    meshes = [
        (f"sq_{node.depth}_{node.index}_{side}",
         _triangulate_grid(surface_points(sq, resolution, resolution)))
        for node in tree.level_nodes(depth)
        for side, sq in (("a", node.sq_a), ("b", node.sq_b))
    ]
    with open(path, "w", encoding="utf-8") as fh:
        base = 0
        for name, (vertices, faces) in meshes:
            fh.write(f"g {name}\n")
            write_obj_records(fh, vertices, faces, base)
            base += len(vertices)


# Column lists of the split-field CSVs.
_COMBINED_CSV = ("x", "y", "Fa", "Fb", "da", "db", "selector")
_SPLIT_DEMO_CSVS = {
    "split_f.csv": ("x", "y", "Fa", "Fb"),
    "split_d.csv": ("x", "y", "da", "db"),
    "split_selector.csv": ("x", "y", "selector"),
}


def _split_columns(fld: SplitField) -> dict:
    """Every split-field CSV column by name, as cell strings in row-major order."""
    uu, vv = np.meshgrid(fld.u, fld.v)
    grids = {"x": uu, "y": vv, "Fa": fld.h_a, "Fb": fld.h_b, "da": fld.d_a, "db": fld.d_b}
    columns = {name: [repr(float(v)) for v in g.ravel()] for name, g in grids.items()}
    columns["selector"] = ["A" if a else "B" for a in fld.to_a.ravel()]
    return columns


def _write_csv(path, columns: dict, names) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*(columns[name] for name in names)):
            fh.write(",".join(row) + "\n")


def export_split_csv(sq_a: Superquadric, sq_b: Superquadric, spec: SliceSpec, path) -> None:
    """Write one slice's combined fields as CSV.

    Columns: x,y (slice coordinates), Fa,Fb (the F^e1 values the split rule
    compares), da,db (radial distances), selector (A or B). Row order is
    row-major over the (nv, nu) grid. Deterministic: identical inputs yield
    identical bytes.
    """
    _write_csv(path, _split_columns(split_field_2d(sq_a, sq_b, spec)), _COMBINED_CSV)


def export_split_demo_csvs(
    sq_a: Superquadric, sq_b: Superquadric, spec: SliceSpec, out_dir
) -> list:
    """Write the three split-demo CSVs (F^e1 fields, d fields, selector).

    Returns the written paths: split_f.csv, split_d.csv, split_selector.csv
    inside ``out_dir``. Same grid layout as :func:`export_split_csv`.
    """
    columns = _split_columns(split_field_2d(sq_a, sq_b, spec))
    paths = []
    for name, names in _SPLIT_DEMO_CSVS.items():
        paths.append(os.path.join(out_dir, name))
        _write_csv(paths[-1], columns, names)
    return paths
