"""The benchmark's workloads: inputs made from a seed, timed commands, checks.

Each workload is driven in four steps by ``run.py``:

* ``setup()`` generates and writes the inputs (timed as set-up, repeated);
* ``run()`` executes the workload's commands once (the timed repetition);
* ``capture(raw)`` reads the outputs of that repetition (untimed) and notes
  per-command problems;
* ``check(records)`` adds the checks that need every repetition (identical
  outputs across repetitions, the independent IoU oracle).

``digest(records)`` fingerprints the outputs, so that ``spread.py`` can
check that two runs of one seed, in separate processes, agree.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

import sqdecomp
from sqdecomp import cli, export, quaternions as quat

# fit-dumbbell: CLI defaults (depth 2, 4 restarts, s = 10, 6,000 uniform +
# 2,000 surface samples) except the iteration count, which keeps one
# repetition near 5 s on two cores.
DUMBBELL_ITERATIONS = 100
DUMBBELL_NODES = 3

# recover-sq: the first shapes of the criterion-6 recovery corpus (ground
# truth from seed 42), at 7:3 uniform:surface points, fitted as one node.
RECOVER_SHAPES = 4
RECOVER_UNIFORM = 3500
RECOVER_SURFACE = 1500
RECOVER_CONFIG = dict(
    max_depth=1, iterations=200, restarts=4, sharpness=50.0, step_size=0.005
)

# eval-icosphere: a fixed-layout depth-3 tree, jittered by the seed, against
# the 5,120-triangle icosphere.
EVAL_SUBDIVISIONS = 4
EVAL_DEPTH = 3
EVAL_SAMPLES = 8000
ORACLE_SAMPLES = 40000
# Both IoU estimates carry sampling noise (about 0.8 points for 8,000
# samples); four points is about five standard deviations of the difference.
ORACLE_TOLERANCE = 0.04


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli(argv) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stderr).

    ``cli.main`` is looked up on every call so a traced run sees its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _exit_problems(code: int, stderr: str) -> list[str]:
    return [] if code == 0 else [f"exit {code}: {stderr}"]


def _same_across(records, key: str, command: str) -> None:
    """Flag every repetition whose ``key`` output differs from the first."""
    first = records[0].get(key)
    for rec in records[1:]:
        if rec.get(key) != first:
            rec["problems"][command].append(f"{key} differs from repetition 0")


class Workload:
    name = ""
    # The per-repetition output that must not change between runs of a seed.
    output_key = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.out_dir = os.path.join(workdir, "out")

    def reset(self) -> None:
        """Empty the output directory so no stale output is read back."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

    def digest(self, records) -> str:
        """SHA-256 of the first repetition's ``output_key`` value."""
        value = json.dumps(records[0].get(self.output_key), sort_keys=True)
        return hashlib.sha256(value.encode()).hexdigest()


class FitDumbbell(Workload):
    """``sqdecomp fit`` of the dumbbell, then ``sqdecomp export`` of level 2."""

    name = "fit-dumbbell"
    output_key = "tree_sha256"

    def setup(self) -> None:
        self.mesh = sqdecomp.normalize(sqdecomp.dumbbell())
        self.mesh_path = os.path.join(self.workdir, "dumbbell.obj")
        sqdecomp.save_mesh(self.mesh, self.mesh_path)

    def run(self):
        fit = _cli([
            "fit", self.mesh_path, "--iterations", str(DUMBBELL_ITERATIONS),
            "--seed", str(self.seed), "--threads", "1", "--out-dir", self.out_dir,
        ])
        exported = _cli([
            "export", os.path.join(self.out_dir, "tree.json"), "--level", "2",
            "--out-dir", self.out_dir,
        ])
        return fit, exported

    def capture(self, raw) -> dict:
        (fit_code, fit_err), (exp_code, exp_err) = raw
        rec = {"problems": {"fit": _exit_problems(fit_code, fit_err),
                            "export": _exit_problems(exp_code, exp_err)}}
        tree_path = os.path.join(self.out_dir, "tree.json")
        rec["problems"]["fit"] += check_tree_file(tree_path, DUMBBELL_NODES)
        if os.path.exists(tree_path):
            rec["tree_sha256"] = _sha256(tree_path)
        try:
            with open(os.path.join(self.out_dir, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            rec["level_iou"] = report["level_iou"]
            rec["points"] = report["samples_uniform"] + report["samples_surface"]
        except (OSError, ValueError, KeyError) as exc:
            rec["problems"]["fit"].append(f"report.json: {exc}")
        rec["problems"]["export"] += check_obj_file(
            os.path.join(self.out_dir, "level_2.obj"), groups=4
        )
        return rec

    def check(self, records) -> None:
        _same_across(records, self.output_key, "fit")

    def quality(self, records) -> tuple[float, float]:
        """Deepest-level and lowest training IoU."""
        levels = [float(v) for v in records[0]["level_iou"]]
        return levels[-1], min(levels)

    def properties(self, records) -> dict:
        return {"triangles": len(self.mesh.triangles), "points": records[0].get("points"),
                "sqs": 2 * DUMBBELL_NODES}


def check_tree_file(path, nodes: int) -> list[str]:
    """tree.json must load through ``load_tree`` and hold ``nodes`` nodes."""
    try:
        tree, _ = export.load_tree(path)
    except (OSError, export.TreeFormatError) as exc:
        return [f"tree.json does not load: {exc}"]
    if len(tree.nodes) != nodes:
        return [f"tree.json has {len(tree.nodes)} nodes, expected {nodes}"]
    return []


def check_obj_file(path, groups: int) -> list[str]:
    """The exported OBJ must hold ``groups`` groups, each with faces."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"OBJ missing: {exc}"]
    found = sum(line.startswith("g ") for line in lines)
    faces = sum(line.startswith("f ") for line in lines)
    if found != groups or faces == 0:
        return [f"OBJ has {found} groups and {faces} faces, expected {groups} groups"]
    return []


def recovery_corpus(seed: int):
    """(points, labels) of the first RECOVER_SHAPES criterion-6 shapes.

    Ground-truth shapes come from seed 42 as in criterion 6, so every seed
    fits the same shapes; the sample points come from the workload seed.
    """
    gt_rng = np.random.default_rng(42)
    corpus = []
    for k in range(RECOVER_SHAPES):
        gt = sqdecomp.Superquadric(
            gt_rng.uniform(0.15, 0.45, 3),
            gt_rng.uniform(0.4, 1.6, 2),
            gt_rng.uniform(-0.1, 0.1, 3),
            quat.normalize(gt_rng.normal(size=4)),
        )
        pt_rng = np.random.default_rng((seed, 100 + k))
        uniform = pt_rng.uniform(-0.6, 0.6, (RECOVER_UNIFORM, 3))
        grid = sqdecomp.surface_points(gt, 40, 40).reshape(-1, 3)
        idx = pt_rng.integers(0, len(grid), RECOVER_SURFACE)
        surface = grid[idx] + pt_rng.normal(0, 0.05, (RECOVER_SURFACE, 3))
        pts = np.vstack([uniform, surface])
        labels = (sqdecomp.inside_outside_stable(gt, pts) <= 1.0).astype(np.uint8)
        corpus.append((pts, labels))
    return corpus


class RecoverSq(Workload):
    """Public ``fit_node`` on single-superquadric shapes, one node each."""

    name = "recover-sq"
    output_key = "params"

    def setup(self) -> None:
        self.corpus = recovery_corpus(self.seed)
        self.cfg = sqdecomp.FitConfig(seed=0, **RECOVER_CONFIG)

    def run(self):
        fits = []
        for pts, labels in self.corpus:
            try:
                fits.append(sqdecomp.fit_node(pts, labels, self.cfg))
            except Exception as exc:  # a failing shape is counted, the run goes on
                fits.append(exc)
        return fits

    def capture(self, raw) -> dict:
        rec = {"problems": {}, "params": {}, "iou": []}
        for k, fit in enumerate(raw):
            cmd = f"shape{k}"
            if isinstance(fit, Exception):
                rec["problems"][cmd] = [f"fit_node raised {fit!r}"]
                continue
            params = np.concatenate([fit.sq_a.params(), fit.sq_b.params()])
            rec["problems"][cmd] = [] if np.all(np.isfinite(params)) else ["non-finite parameters"]
            rec["params"][cmd] = params.tobytes().hex()
            pts, labels = self.corpus[k]
            rec["iou"].append(max(
                binary_iou(sqdecomp.inside_outside_stable(sq, pts) <= 1.0, labels)
                for sq in (fit.sq_a, fit.sq_b)
            ))
        return rec

    def check(self, records) -> None:
        first = records[0]["params"]
        for rec in records[1:]:
            for cmd, value in rec["params"].items():
                if value != first.get(cmd):
                    rec["problems"][cmd].append("parameters differ from repetition 0")

    def quality(self, records) -> tuple[float, float]:
        """Median and lowest IoU over the shapes."""
        return float(np.median(records[0]["iou"])), min(records[0]["iou"])

    def properties(self, records) -> dict:
        return {"triangles": 0, "points": sum(len(pts) for pts, _ in self.corpus),
                "sqs": 2 * len(self.corpus)}


def binary_iou(predicted, truth) -> float:
    p = np.asarray(predicted, dtype=bool)
    t = np.asarray(truth, dtype=bool)
    return float(np.count_nonzero(p & t) / max(np.count_nonzero(p | t), 1))


def layout_tree(seed: int, depth: int = EVAL_DEPTH) -> sqdecomp.SqTree:
    """A depth-``depth`` tree whose level-d SQs cover the cells of a bisection.

    Level d bisects each parent cell of the normalized sphere's bounding box
    along axis d-1 (side a on the negative half). Each SQ is an overlapping,
    ellipsoid-like cover of its cell, with seeded jitter in size, exponents,
    position and orientation. Never fitted, so fitter changes cannot alter
    this input.
    """
    rng = np.random.default_rng((seed, 3))

    def cover(signs) -> sqdecomp.Superquadric:
        center = np.zeros(3)
        size = np.full(3, 0.5)
        for axis, sign in enumerate(signs):
            center[axis] = 0.15 * sign
            size[axis] = 0.35
        return sqdecomp.Superquadric(
            size * rng.uniform(0.97, 1.03, 3),
            rng.uniform(0.8, 1.2, 2),
            center + rng.normal(0.0, 0.01, 3),
            quat.from_rotation_vector(rng.normal(0.0, 0.05, 3)),
        )

    tree = sqdecomp.SqTree(max_depth=depth)
    cells = {(1, 1): ()}
    for d in range(1, depth + 1):
        for i in range(1, 2 ** (d - 1) + 1):
            prefix = cells[(d, i)]
            tree.add_node(sqdecomp.SqPairNode(d, i, cover(prefix + (-1,)), cover(prefix + (1,))))
            if d < depth:
                for side, sign in ((sqdecomp.Side.A, -1), (sqdecomp.Side.B, 1)):
                    cells[sqdecomp.sqtree.child_node(d, i, side)] = prefix + (sign,)
    return tree


def convex_inside(vertices, triangles, points) -> np.ndarray:
    """Inside test for a convex closed mesh: behind every face plane.

    Face normals are oriented away from the vertex centroid, so winding does
    not matter. Points on the surface count as inside.
    """
    corners = vertices[triangles]
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    outward = np.einsum("tk,tk->t", normals, corners[:, 0] - vertices.mean(axis=0))
    normals *= np.sign(outward)[:, None]
    offsets = np.einsum("tk,tk->t", normals, corners[:, 0])
    inside = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), 1000):
        chunk = points[start:start + 1000]
        inside[start:start + 1000] = np.all(chunk @ normals.T <= offsets, axis=1)
    return inside


def oracle_level_iou(mesh: sqdecomp.Mesh, tree: sqdecomp.SqTree, seed: int) -> list[float]:
    """Per-level IoU from face half-space labels and ``F^e1 < 1`` unions.

    Uses its own uniform sample of the [-0.6, 0.6]^3 domain and its own
    normalization, so it shares no code path with ``sqdecomp eval``.
    """
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    vertices = (mesh.vertices - 0.5 * (lo + hi)) / np.max(hi - lo)
    points = np.random.default_rng((seed, 7)).uniform(-0.6, 0.6, (ORACLE_SAMPLES, 3))
    truth = convex_inside(vertices, mesh.triangles, points)
    out = []
    for d in range(1, tree.fitted_depth + 1):
        pred = np.zeros(len(points), dtype=bool)
        for sq in tree.superquadrics_at_level(d):
            pred |= sqdecomp.inside_outside_stable(sq, points) < 1.0
        out.append(binary_iou(pred, truth))
    return out


def iou_mismatches(reported, oracle, tolerance: float = ORACLE_TOLERANCE) -> list[str]:
    if len(reported) != len(oracle):
        return [f"{len(reported)} levels reported, expected {len(oracle)}"]
    return [
        f"level {d} IoU {r} vs oracle {o:.4f}"
        for d, (r, o) in enumerate(zip(reported, oracle), start=1)
        if r is None or abs(r - o) > tolerance
    ]


class EvalIcosphere(Workload):
    """``sqdecomp eval`` of a fixed-layout tree against a 5,120-triangle sphere."""

    name = "eval-icosphere"
    output_key = "per_level"

    def setup(self) -> None:
        self.mesh = sqdecomp.icosphere(subdivisions=EVAL_SUBDIVISIONS)
        self.tree = layout_tree(self.seed)
        self.mesh_path = os.path.join(self.workdir, "icosphere.obj")
        self.tree_path = os.path.join(self.workdir, "tree.json")
        sqdecomp.save_mesh(self.mesh, self.mesh_path)
        export.save_tree(self.tree, None, self.tree_path)

    def run(self):
        return _cli([
            "eval", self.tree_path, self.mesh_path, "--samples-uniform", str(EVAL_SAMPLES),
            "--seed", str(self.seed), "--out-dir", self.out_dir,
        ])

    def capture(self, raw) -> dict:
        code, err = raw
        rec = {"problems": {"eval": _exit_problems(code, err)}}
        try:
            with open(os.path.join(self.out_dir, "iou_report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            rec["per_level"] = report["per_level"]
            rec["points"] = report["sample_count"]
        except (OSError, ValueError, KeyError) as exc:
            rec["problems"]["eval"].append(f"iou_report.json: {exc}")
        return rec

    def check(self, records) -> None:
        _same_across(records, self.output_key, "eval")
        oracle = oracle_level_iou(self.mesh, self.tree, self.seed)
        for rec in records:
            if "per_level" in rec:
                rec["problems"]["eval"] += iou_mismatches(rec["per_level"], oracle)

    def quality(self, records) -> tuple[float, float]:
        """Deepest-level and lowest reported IoU."""
        levels = [float(v) for v in records[0]["per_level"]]
        return levels[-1], min(levels)

    def properties(self, records) -> dict:
        return {"triangles": len(self.mesh.triangles), "points": records[0].get("points"),
                "sqs": 2 * len(self.tree.nodes)}


WORKLOADS = {w.name: w for w in (FitDumbbell, RecoverSq, EvalIcosphere)}
