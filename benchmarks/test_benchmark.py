"""Tests of the benchmark itself: span arithmetic, wrapping, output checks.

Run with ``python3 -m pytest benchmarks`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import layers
import sqdecomp
import workloads
from tracing import Span, Tracer, covered, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def _span(name, start, end, parent=None):
    return Span(name, float(start), float(end), parent=parent)


class TestSelfTime:
    def test_union_of_intervals(self):
        assert covered([(0, 2), (1, 3), (5, 6)]) == 4
        assert covered([(4, 5), (0, 1)]) == 2
        assert covered([]) == 0

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            _span("root", 0, 10),
            _span("a", 1, 4, parent=0),
            _span("a.child", 2, 3, parent=1),
            _span("b", 5, 6, parent=0),
        ]
        assert self_times(spans) == [6, 2, 1, 1]

    def test_self_times_sum_to_root_duration(self):
        spans = [
            _span("root", 0, 9),
            _span("a", 0.5, 4, parent=0),
            _span("a.1", 1, 2, parent=1),
            _span("a.2", 2, 3.5, parent=1),
            _span("b", 5, 8.5, parent=0),
        ]
        assert sum(self_times(spans)) == pytest.approx(9)


class TestTracer:
    def _bindings(self):
        return {
            (name, attr): value
            for name, module in list(sys.modules.items())
            if name == "sqdecomp" or name.startswith("sqdecomp.")
            for attr, value in vars(module).items()
        }

    def test_spans_nest_where_callers_look_functions_up(self):
        mesh = sqdecomp.normalize(sqdecomp.box())
        tracer = Tracer()
        try:
            tracer.wrap(sqdecomp.geometry.sample_labeled_points, "sample")
            tracer.wrap(sqdecomp.geometry.point_in_mesh, "pim")
            root = tracer.open("root")
            sqdecomp.sample_labeled_points(mesh, 10, 20, seed=0)
            tracer.close(root)
        finally:
            tracer.restore()
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("root", None), ("sample", 0), ("pim", 1)]
        assert all(s.start <= s.end for s in tracer.spans)

    def test_restore_puts_every_original_back(self):
        before = self._bindings()
        tracer = Tracer()
        layers.install(tracer, [])
        assert sqdecomp.cli.main is not before["sqdecomp.cli", "main"]
        assert sqdecomp.fit_node is not before["sqdecomp", "fit_node"]
        tracer.restore()
        after = self._bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer()
        try:
            tracer.wrap(sqdecomp.geometry.point_in_mesh, "pim")
            with pytest.raises(ValueError):
                sqdecomp.geometry.point_in_mesh(sqdecomp.box(), np.zeros((2, 2)))
        finally:
            tracer.restore()
        assert len(tracer.spans) == 1 and np.isfinite(tracer.spans[0].end)
        assert tracer._stack == []

    def test_unbound_function_is_rejected(self):
        with pytest.raises(LookupError):
            Tracer().wrap(lambda: None, "nothing")

    def test_wrapper_records_counts(self):
        tracer = Tracer()
        try:
            layers.install(tracer, [])
            sqdecomp.geometry.point_in_mesh(sqdecomp.box(), np.zeros((5, 3)))
        finally:
            tracer.restore()
        assert tracer.spans[0].attrs == {"points": 5, "triangles": 12}


class TestGradActive:
    def test_saturated_and_active_points(self):
        sq = sqdecomp.Superquadric(np.full(3, 0.1), np.ones(2), np.zeros(3))
        far = np.full((4, 3), 0.5)
        assert layers.grad_active(sq, sq, far, np.zeros(4), 50.0) == 0
        assert layers.grad_active(sq, sq, far, np.ones(4), 50.0) == 4

    def test_shares_pool_per_node_and_overall(self):
        sq = sqdecomp.Superquadric(np.full(3, 0.1), np.ones(2), np.zeros(3))
        points = np.vstack([np.zeros((2, 3)), np.full((2, 3), 0.5)])
        fit = SimpleNamespace(degenerate=False, sq_a=sq, sq_b=sq)
        cfg = sqdecomp.FitConfig(sharpness=50.0)
        calls = [
            (points, np.array([1, 1, 0, 0]), cfg, (1, 1), fit),  # fits: nothing active
            (points, np.array([1, 1, 1, 1]), cfg, (2, 1), fit),  # far points active
        ]
        shares = layers.grad_active_shares(calls)
        assert shares["1,1"][1] == 0.0
        assert shares["2,1"][1] == 0.5
        assert shares["all"][1] == 0.25


@pytest.fixture
def saved_tree(tmp_path):
    tree = workloads.layout_tree(seed=0, depth=2)
    path = tmp_path / "tree.json"
    sqdecomp.save_tree(tree, None, path)
    return tree, path


class TestOutputChecks:
    def test_tree_check_passes_on_a_saved_tree(self, saved_tree):
        assert workloads.check_tree_file(saved_tree[1], nodes=3) == []

    def test_tree_check_fires_on_a_missing_node(self, saved_tree):
        _, path = saved_tree
        doc = json.loads(path.read_text())
        doc["nodes"] = doc["nodes"][:2]
        path.write_text(json.dumps(doc))
        assert workloads.check_tree_file(path, nodes=3)

    def test_tree_check_fires_on_broken_json(self, saved_tree):
        _, path = saved_tree
        path.write_text(path.read_text()[:-20])
        assert workloads.check_tree_file(path, nodes=3)

    def test_edited_tree_changes_the_hash(self, saved_tree):
        _, path = saved_tree
        records = [{"problems": {"fit": []}, "tree_sha256": workloads._sha256(path)}]
        path.write_text(path.read_text().replace('"degenerate": false', '"degenerate": true', 1))
        records.append({"problems": {"fit": []}, "tree_sha256": workloads._sha256(path)})
        workloads._same_across(records, "tree_sha256", "fit")
        assert records[0]["problems"]["fit"] == [] and records[1]["problems"]["fit"]

    def test_obj_check(self, saved_tree, tmp_path):
        tree, _ = saved_tree
        path = tmp_path / "level_2.obj"
        sqdecomp.export_level_obj(tree, 2, path, resolution=6)
        assert workloads.check_obj_file(path, groups=4) == []
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]))
        assert workloads.check_obj_file(path, groups=4)

    def test_changed_parameters_fire(self):
        records = [
            {"problems": {"shape0": []}, "params": {"shape0": "00ff"}},
            {"problems": {"shape0": []}, "params": {"shape0": "00fe"}},
        ]
        workloads.RecoverSq(0, "unused").check(records)
        assert records[1]["problems"]["shape0"]

    def test_digest_changes_with_the_outputs(self):
        workload = workloads.RecoverSq(0, "unused")
        digest = workload.digest([{"params": {"shape0": "00ff"}}])
        assert digest == workload.digest([{"params": {"shape0": "00ff"}}])
        assert digest != workload.digest([{"params": {"shape0": "00fe"}}])

    def test_convex_oracle_agrees_with_ray_parity(self):
        mesh = sqdecomp.normalize(sqdecomp.icosphere(subdivisions=2))
        pts = np.random.default_rng(0).uniform(-0.6, 0.6, (3000, 3))
        oracle = workloads.convex_inside(mesh.vertices, mesh.triangles, pts)
        assert np.array_equal(oracle, sqdecomp.point_in_mesh(mesh, pts).astype(bool))

    def test_iou_check_passes_correct_and_fires_on_flipped_labels(self):
        mesh = sqdecomp.icosphere(subdivisions=2)
        tree = workloads.layout_tree(seed=0, depth=2)
        oracle = workloads.oracle_level_iou(mesh, tree, seed=0)
        sample = sqdecomp.sample_labeled_points(sqdecomp.normalize(mesh), 0, 20000, seed=1)
        flipped = sqdecomp.LabeledPointSet(sample.points, 1 - sample.labels)
        for pointset, fires in ((sample, False), (flipped, True)):
            reported = [sqdecomp.iou(tree.superquadrics_at_level(d), pointset) for d in (1, 2)]
            assert bool(workloads.iou_mismatches(reported, oracle)) is fires


def test_layout_tree_is_seeded_and_complete():
    a = workloads.layout_tree(seed=3)
    b = workloads.layout_tree(seed=3)
    assert a.fitted_depth == workloads.EVAL_DEPTH
    assert all(
        np.array_equal(a.nodes[k].sq_a.params(), b.nodes[k].sq_a.params()) for k in a.nodes
    )
    c = workloads.layout_tree(seed=4)
    assert not np.array_equal(a.nodes[1, 1].sq_a.params(), c.nodes[1, 1].sq_a.params())


def test_fails_without_the_package(tmp_path):
    """Only the benchmark's own files present: exit non-zero, print no result."""
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fit-dumbbell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
