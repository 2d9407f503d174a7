import json
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import random_pair, random_superquadric, write_obj_records_reference
from sqdecomp import (
    SliceSpec,
    SqPairNode,
    SqTree,
    Superquadric,
    TreeFormatError,
    export_level_obj,
    export_split_csv,
    export_split_demo_csvs,
    inside_outside_stable,
    load_mesh,
    load_tree,
    save_tree,
    split_field_2d,
)
from sqdecomp import export


# The parameter row of a sphere of radius 0.5, with JSON integers where
# the value is whole.
SPHERE_ROW = [0.5, 0.5, 0.5, 1, 1, 0, 0, 0, 1, 0, 0, 0]


def build_tree(depth: int, seed: int = 0) -> SqTree:
    """A complete random tree down to ``depth`` (sizes kept small so every
    surface fits in the unit domain)."""
    rng = np.random.default_rng(seed)
    tree = SqTree(max_depth=depth)
    for d in range(1, depth + 1):
        for i in range(1, 2 ** (d - 1) + 1):
            tree.add_node(
                SqPairNode(
                    depth=d,
                    index=i,
                    sq_a=random_superquadric(rng),
                    sq_b=random_superquadric(rng),
                )
            )
    return tree


class TestTreeRoundTrip:
    def test_parameters_survive_bitwise(self, tmp_path):
        tree = build_tree(2, seed=10)
        path = tmp_path / "tree.json"
        save_tree(tree, None, path)
        loaded, metadata = load_tree(path)
        assert metadata == {}
        assert loaded.max_depth == 2
        assert set(loaded.nodes) == set(tree.nodes)
        for key, node in tree.nodes.items():
            np.testing.assert_array_equal(loaded.nodes[key].sq_a.params(), node.sq_a.params())
            np.testing.assert_array_equal(loaded.nodes[key].sq_b.params(), node.sq_b.params())

    def test_depth_two_document_has_three_node_entries(self, tmp_path):
        path = tmp_path / "tree.json"
        save_tree(build_tree(2, seed=11), None, path)
        doc = json.loads(path.read_text())
        assert len(doc["nodes"]) == 3
        assert [(e["depth"], e["index"]) for e in doc["nodes"]] == [(1, 1), (2, 1), (2, 2)]
        assert all(len(e["lambda_a"]) == 12 and len(e["lambda_b"]) == 12 for e in doc["nodes"])

    def test_save_load_save_produces_identical_bytes(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_tree(build_tree(3, seed=12), None, first)
        loaded, _ = load_tree(first)
        save_tree(loaded, None, second)
        assert first.read_bytes() == second.read_bytes()

    def test_report_metadata_round_trips(self, dumbbell_fit, tmp_path):
        tree, report, _ = dumbbell_fit
        path = tmp_path / "tree.json"
        save_tree(tree, report, path)
        _, metadata = load_tree(path)
        assert metadata["config"]["sharpness"] == 50.0
        assert metadata["config"]["max_depth"] == 2
        assert len(metadata["level_iou"]) == 2
        assert len(metadata["node_losses"]) == len(tree.nodes)
        np.testing.assert_allclose(metadata["loss_sum"], report.loss_sum, rtol=1e-15)

    def test_config_with_the_removed_bound_keys_loads(self, dumbbell_fit, tmp_path):
        """A tree.json written while the parameter box was a FitConfig
        setting echoes a_min, a_max, e_min and e_max in its config; it still
        loads, with its metadata returned as written."""
        tree, report, _ = dumbbell_fit
        path = tmp_path / "tree.json"
        save_tree(tree, report, path)
        doc = json.loads(path.read_text())
        doc["metadata"]["config"].update(a_min=0.005, a_max=1.0, e_min=0.1, e_max=1.9)
        path.write_text(json.dumps(doc, indent=2))
        loaded, metadata = load_tree(path)
        assert metadata == doc["metadata"]
        for key, node in tree.nodes.items():
            np.testing.assert_array_equal(loaded.nodes[key].sq_a.params(), node.sq_a.params())
            np.testing.assert_array_equal(loaded.nodes[key].sq_b.params(), node.sq_b.params())

    def test_degenerate_flag_serialized(self, tmp_path):
        tree = SqTree(max_depth=1)
        sq = Superquadric(np.full(3, 0.01), np.ones(2))
        tree.add_node(SqPairNode(depth=1, index=1, sq_a=sq, sq_b=sq, degenerate=True))
        path = tmp_path / "tree.json"
        save_tree(tree, None, path)
        loaded, _ = load_tree(path)
        assert loaded.node(1, 1).degenerate is True

    def test_empty_tree_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_tree(SqTree(max_depth=1), None, tmp_path / "tree.json")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_tree(tmp_path / "nope.json")

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        """A BOM-prefixed tree used to be refused as not valid JSON."""
        tree = build_tree(2, seed=13)
        path = tmp_path / "tree.json"
        save_tree(tree, None, path)
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded, metadata = load_tree(marked)
        assert metadata == {}
        assert set(loaded.nodes) == set(tree.nodes)
        for key, node in tree.nodes.items():
            np.testing.assert_array_equal(loaded.nodes[key].sq_a.params(), node.sq_a.params())
            np.testing.assert_array_equal(loaded.nodes[key].sq_b.params(), node.sq_b.params())


class TestTreeFormatErrors:
    def test_corrupt_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format_version": 1, "nodes": [')
        with pytest.raises(TreeFormatError):
            load_tree(p)

    def test_wrong_top_level_type(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2, 3]\n")
        with pytest.raises(TreeFormatError):
            load_tree(p)

    def test_unsupported_version(self, tmp_path):
        good = tmp_path / "good.json"
        save_tree(build_tree(1, seed=13), None, good)
        doc = json.loads(good.read_text())
        doc["format_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(TreeFormatError, match="version"):
            load_tree(bad)

    def test_missing_version(self, tmp_path):
        good = tmp_path / "good.json"
        save_tree(build_tree(1, seed=14), None, good)
        doc = json.loads(good.read_text())
        del doc["format_version"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(TreeFormatError):
            load_tree(bad)

    def test_truncated_parameter_vector(self, tmp_path):
        good = tmp_path / "good.json"
        save_tree(build_tree(1, seed=15), None, good)
        doc = json.loads(good.read_text())
        doc["nodes"][0]["lambda_a"] = doc["nodes"][0]["lambda_a"][:5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(TreeFormatError):
            load_tree(bad)

    def test_missing_node_field(self, tmp_path):
        good = tmp_path / "good.json"
        save_tree(build_tree(1, seed=16), None, good)
        doc = json.loads(good.read_text())
        del doc["nodes"][0]["lambda_b"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(TreeFormatError):
            load_tree(bad)

    def test_repeated_node(self, tmp_path):
        """A node list holding the root twice used to load one node, with
        the second entry's parameters."""
        good = tmp_path / "good.json"
        save_tree(build_tree(1, seed=18), None, good)
        doc = json.loads(good.read_text())
        doc["nodes"].append(dict(doc["nodes"][0], lambda_a=doc["nodes"][0]["lambda_b"]))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(TreeFormatError, match=re.escape("node (1, 1) is already in the tree")):
            load_tree(bad)

    def test_text_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"format_version": 1, "max_depth": "\xff"}')
        with pytest.raises(TreeFormatError, match="not valid JSON"):
            load_tree(p)

    @pytest.mark.parametrize("field, value, message", [
        ("degenerate", "false", "degenerate must be a JSON boolean, got 'false'"),
        ("degenerate", 0, "degenerate must be a JSON boolean, got 0"),
        ("degenerate", None, "degenerate must be a JSON boolean, got None"),
        ("depth", 1.9, "depth must be a JSON integer, got 1.9"),
        ("depth", 1.0, "depth must be a JSON integer, got 1.0"),
        ("depth", "1", "depth must be a JSON integer, got '1'"),
        ("depth", True, "depth must be a JSON integer, got True"),
        ("index", 1.0, "index must be a JSON integer, got 1.0"),
        ("index", True, "index must be a JSON integer, got True"),
        ("max_depth", 1.5, "max_depth must be a JSON integer, got 1.5"),
        ("max_depth", True, "max_depth must be a JSON integer, got True"),
        ("max_depth", "2", "max_depth must be a JSON integer, got '2'"),
        ("lambda_a", ["0.5"] + SPHERE_ROW[1:],
         "lambda_a must be a list of JSON numbers, got ['0.5', 0.5, 0.5, 1, 1, 0"),
        ("lambda_b", SPHERE_ROW[:3] + [True, True] + SPHERE_ROW[5:],
         "lambda_b must be a list of JSON numbers, got [0.5, 0.5, 0.5, True, True, 0"),
        ("lambda_a", [10**400] + SPHERE_ROW[1:], "int too large to convert to float"),
        ("format_version", True, "unsupported format version True"),
        ("format_version", 1.0, "unsupported format version 1.0"),
        ("format_version", "1", "unsupported format version '1'"),
        ("metadata", [1, 2], "metadata must be a JSON object, got [1, 2]"),
        ("metadata", None, "metadata must be a JSON object, got None"),
        ("metadata", "{}", "metadata must be a JSON object, got '{}'"),
    ])
    def test_field_of_the_wrong_json_type(self, tmp_path, field, value, message):
        """Types are checked, not coerced: "false" is not False, 1.9 is
        not depth 1, neither "0.5" nor true is a size or an exponent,
        true and 1.0 are not format version 1, and a metadata block that
        is present must be a JSON object."""
        good = tmp_path / "good.json"
        save_tree(build_tree(1, seed=17), None, good)
        doc = json.loads(good.read_text())
        top_level = ("max_depth", "format_version", "metadata")
        (doc if field in top_level else doc["nodes"][0])[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(TreeFormatError, match=re.escape(message)):
            load_tree(bad)

    def test_integer_parameters_load(self, tmp_path):
        """A parameter row may hold JSON integers, which load as floats."""
        good = tmp_path / "good.json"
        save_tree(build_tree(1, seed=19), None, good)
        doc = json.loads(good.read_text())
        doc["nodes"][0]["lambda_a"] = SPHERE_ROW
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        tree, _ = load_tree(path)
        np.testing.assert_array_equal(tree.nodes[(1, 1)].sq_a.params(), SPHERE_ROW)


def obj_groups(path) -> dict:
    """Parse a grouped OBJ into {group name: (n, 3) vertex array} using the
    file's global vertex numbering."""
    all_vertices = []
    groups: dict = {}
    current = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "g":
            current = parts[1]
            groups[current] = []
        elif parts[0] == "v":
            vertex = [float(p) for p in parts[1:4]]
            all_vertices.append(vertex)
            groups[current].append(vertex)
        elif parts[0] == "f":
            idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
            groups.setdefault(current + "/faces", []).append(idx)
    return {k: np.array(v) for k, v in groups.items()}


class TestLevelObjExport:
    def test_level_one_has_two_groups(self, tmp_path):
        path = tmp_path / "level1.obj"
        export_level_obj(build_tree(1, seed=20), 1, path, resolution=12)
        names = [k for k in obj_groups(path) if not k.endswith("/faces")]
        assert names == ["sq_1_1_a", "sq_1_1_b"]

    def test_level_three_has_eight_groups(self, tmp_path):
        path = tmp_path / "level3.obj"
        export_level_obj(build_tree(3, seed=21), 3, path, resolution=8)
        names = [k for k in obj_groups(path) if not k.endswith("/faces")]
        assert len(names) == 8
        assert names[0] == "sq_3_1_a" and names[-1] == "sq_3_4_b"

    def test_bytes_equal_the_per_row_writer(self, tmp_path, monkeypatch):
        tree = build_tree(2, seed=23)
        export_level_obj(tree, 2, tmp_path / "arrays.obj")
        monkeypatch.setattr(export, "write_obj_records", write_obj_records_reference)
        export_level_obj(tree, 2, tmp_path / "rows.obj")
        assert (tmp_path / "arrays.obj").read_bytes() == (tmp_path / "rows.obj").read_bytes()

    def test_output_loads_as_mesh(self, tmp_path):
        path = tmp_path / "level2.obj"
        export_level_obj(build_tree(2, seed=22), 2, path, resolution=10)
        mesh = load_mesh(path)
        assert len(mesh.vertices) > 0
        assert len(mesh.triangles) > 0
        assert mesh.triangles.max() < len(mesh.vertices)

    def test_group_vertices_lie_on_their_surface(self, tmp_path):
        tree = build_tree(1, seed=23)
        path = tmp_path / "level1.obj"
        export_level_obj(tree, 1, path, resolution=16)
        groups = obj_groups(path)
        node = tree.node(1, 1)
        for name, sq in (("sq_1_1_a", node.sq_a), ("sq_1_1_b", node.sq_b)):
            h = inside_outside_stable(sq, groups[name])
            np.testing.assert_allclose(h, 1.0, atol=1e-5)

    def test_each_group_is_a_closed_surface(self, tmp_path):
        """V - E + F = 2 per group, and every edge is shared by exactly two
        triangles with opposite orientation. Resolution 3 leaves one ring
        and no strip, 4 one strip."""
        tree = build_tree(1, seed=24)
        for resolution in (3, 4, 9):
            path = tmp_path / f"level1_{resolution}.obj"
            export_level_obj(tree, 1, path, resolution=resolution)
            groups = obj_groups(path)
            for name in ("sq_1_1_a", "sq_1_1_b"):
                n_vertices = len(groups[name])
                faces = groups[name + "/faces"]
                directed = set()
                for a, b, c in faces:
                    for e in ((a, b), (b, c), (c, a)):
                        assert e not in directed, ("duplicate directed edge", resolution)
                        directed.add(e)
                for e in directed:
                    assert (e[1], e[0]) in directed, ("boundary edge found", resolution)
                n_edges = len(directed) // 2
                assert n_vertices - n_edges + len(faces) == 2, resolution

    def test_unfitted_level_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_level_obj(build_tree(1, seed=25), 2, tmp_path / "x.obj")

    def test_tiny_resolution_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_level_obj(build_tree(1, seed=26), 1, tmp_path / "x.obj", resolution=2)
        assert not (tmp_path / "x.obj").exists()


class TestSplitCsv:
    def make_pair(self, seed=30):
        return random_pair(np.random.default_rng(seed))

    def test_header_and_row_count(self, tmp_path):
        sq_a, sq_b = self.make_pair()
        spec = SliceSpec(nu=9, nv=7)
        path = tmp_path / "split.csv"
        export_split_csv(sq_a, sq_b, spec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,Fa,Fb,da,db,selector"
        assert len(lines) == 9 * 7 + 1
        assert {row.rsplit(",", 1)[1] for row in lines[1:]} <= {"A", "B"}

    def test_values_match_field_evaluation(self, tmp_path):
        sq_a, sq_b = self.make_pair(seed=31)
        spec = SliceSpec(axis=1, offset=0.1, nu=6, nv=5)
        path = tmp_path / "split.csv"
        export_split_csv(sq_a, sq_b, spec, path)
        fld = split_field_2d(sq_a, sq_b, spec)
        rows = path.read_text().splitlines()[1:]
        for iv in range(5):
            for iu in range(6):
                cells = rows[iv * 6 + iu].split(",")
                assert float(cells[0]) == fld.u[iu]
                assert float(cells[1]) == fld.v[iv]
                assert float(cells[2]) == fld.h_a[iv, iu]
                assert float(cells[3]) == fld.h_b[iv, iu]
                assert float(cells[4]) == fld.d_a[iv, iu]
                assert float(cells[5]) == fld.d_b[iv, iu]
                assert cells[6] == ("A" if fld.to_a[iv, iu] else "B")

    def test_reexport_is_byte_identical(self, tmp_path):
        sq_a, sq_b = self.make_pair(seed=32)
        spec = SliceSpec(nu=16, nv=16)
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        export_split_csv(sq_a, sq_b, spec, p1)
        export_split_csv(sq_a, sq_b, spec, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_demo_export_writes_three_csvs(self, tmp_path):
        sq_a, sq_b = self.make_pair(seed=33)
        spec = SliceSpec(nu=8, nv=8)
        paths = export_split_demo_csvs(sq_a, sq_b, spec, tmp_path)
        assert [p.rsplit("/", 1)[-1] for p in paths] == [
            "split_f.csv",
            "split_d.csv",
            "split_selector.csv",
        ]
        headers = [Path(p).read_text().splitlines()[0] for p in paths]
        assert headers == ["x,y,Fa,Fb", "x,y,da,db", "x,y,selector"]
        for p in paths:
            assert len(Path(p).read_text().splitlines()) == 8 * 8 + 1

    def test_demo_selector_agrees_with_combined_export(self, tmp_path):
        sq_a, sq_b = self.make_pair(seed=34)
        spec = SliceSpec(nu=10, nv=10)
        combined = tmp_path / "combined.csv"
        export_split_csv(sq_a, sq_b, spec, combined)
        paths = export_split_demo_csvs(sq_a, sq_b, spec, tmp_path)
        sel_rows = Path(paths[2]).read_text().splitlines()[1:]
        combined_rows = combined.read_text().splitlines()[1:]
        for sel_row, comb_row in zip(sel_rows, combined_rows, strict=True):
            assert sel_row.rsplit(",", 1)[1] == comb_row.rsplit(",", 1)[1]
