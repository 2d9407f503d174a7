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
    dict. Raises TreeFormatError for unparsable JSON, missing fields, or a
    format version this code does not understand.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TreeFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TreeFormatError(f"{path}: expected a JSON object at top level")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise TreeFormatError(
            f"{path}: unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        tree = SqTree(max_depth=int(doc["max_depth"]))
        for entry in sorted(doc["nodes"], key=lambda e: (e["depth"], e["index"])):
            tree.add_node(
                SqPairNode(
                    depth=int(entry["depth"]),
                    index=int(entry["index"]),
                    sq_a=Superquadric.from_params(np.array(entry["lambda_a"])),
                    sq_b=Superquadric.from_params(np.array(entry["lambda_b"])),
                    degenerate=bool(entry.get("degenerate", False)),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise TreeFormatError(f"{path}: malformed tree document: {exc}") from exc
    return tree, doc.get("metadata", {})


def _triangulate_grid(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated vertices and closed triangulation of a surface grid.

    The grid rows run pole to pole (the two pole rows are constant); rings in
    between are closed in the omega direction. Output is (vertices (v, 3),
    faces (f, 3)) with the south pole first, ring vertices row-major, north
    pole last, wound outward.
    """
    n_eta, n_omega, _ = grid.shape
    rings = grid[1:-1]  # (n_eta - 2, n_omega, 3)
    n_rings = n_eta - 2
    vertices = np.vstack([grid[0, 0][None, :], rings.reshape(-1, 3), grid[-1, 0][None, :]])
    south = 0
    north = 1 + n_rings * n_omega

    def ring(r: int, c: int) -> int:
        return 1 + r * n_omega + (c % n_omega)

    faces = []
    for c in range(n_omega):
        faces.append((south, ring(0, c + 1), ring(0, c)))
    for r in range(n_rings - 1):
        for c in range(n_omega):
            a, b = ring(r, c), ring(r, c + 1)
            cc, d = ring(r + 1, c + 1), ring(r + 1, c)
            faces.append((a, b, cc))
            faces.append((a, cc, d))
    for c in range(n_omega):
        faces.append((north, ring(n_rings - 1, c), ring(n_rings - 1, c + 1)))
    return vertices, np.array(faces, dtype=np.intp)


def export_level_obj(tree: SqTree, depth: int, path, resolution: int = 32) -> None:
    """Write the 2^depth surface meshes of one level as a grouped OBJ.

    Each superquadric becomes one `g sq_{d}_{i}_{a|b}` group with a closed
    quad-strip lattice (fan caps at the poles). ``resolution`` is the number
    of parametric samples per direction (>= 3).
    """
    sqs = []
    for node in tree.level_nodes(depth):
        sqs.append((f"sq_{node.depth}_{node.index}_a", node.sq_a))
        sqs.append((f"sq_{node.depth}_{node.index}_b", node.sq_b))
    with open(path, "w", encoding="utf-8") as fh:
        base = 0
        for name, sq in sqs:
            grid = surface_points(sq, resolution, resolution)
            vertices, faces = _triangulate_grid(grid)
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
