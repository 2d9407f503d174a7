"""End-to-end CLI tests driving main() in-process."""

import argparse
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sqdecomp import (
    FitConfig,
    Mesh,
    SqPairNode,
    SqTree,
    Superquadric,
    box,
    load_mesh,
    load_tree,
    save_mesh,
    save_tree,
)
from sqdecomp.cli import build_parser, main

FAST_FIT = [
    "--max-depth", "1",
    "--iterations", "60",
    "--restarts", "2",
    "--sharpness", "50",
    "--step-size", "0.005",
    "--samples-uniform", "1500",
    "--samples-surface", "500",
]

# A value other than the default for every FitConfig field; together they
# make a small fit.
FLAG_VALUES = {
    "max_depth": 1,
    "iterations": 5,
    "step_size": 0.003,
    "restarts": 1,
    "sharpness": 12.5,
    "seed": 3,
}


# OBJ bodies load_mesh refuses, each with the end of its error message;
# fit and eval must exit 1 on each.
BAD_MESHES = {
    "nan": (b"v nan 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", ":1: bad vertex coordinate"),
    "overflow": (b"v 0 0 0\nv 1e400 0 0\nv 0 1 0\nf 1 2 3\n", ":2: bad vertex coordinate"),
    "not-utf8": (b"v 0 0 0\nv 1 0 0\nv 0 1 0\n# \xff\nf 1 2 3\n", ": not UTF-8 text"),
    "huge-index": (
        b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 100000000000000000000000\n",
        ": face index 100000000000000000000000 exceeds vertex count",
    ),
}
# A tree document that is not UTF-8; eval and export must exit 1 on it.
NOT_UTF8_TREE = b'{"format_version": 1, "max_depth": 1, "nodes": [], "note": "\xff"}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitCommand:
    def test_fast_fit_writes_outputs_and_prints_levels(self, capsys, mesh_dir, tmp_path):
        code, out, _ = run(
            capsys,
            ["fit", str(mesh_dir / "sphere.obj"), *FAST_FIT, "--out-dir", str(tmp_path)],
        )
        assert code == 0
        assert out.splitlines()[0].startswith("level 1: IoU ")
        assert (tmp_path / "tree.json").exists()
        assert (tmp_path / "report.json").exists()
        tree, metadata = load_tree(tmp_path / "tree.json")
        assert tree.fitted_depth == 1
        assert metadata["config"]["iterations"] == 60

    def test_sphere_fit_reaches_95_percent(self, capsys, mesh_dir, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "fit", str(mesh_dir / "sphere.obj"),
                "--max-depth", "1",
                "--iterations", "400",
                "--restarts", "4",
                "--sharpness", "50",
                "--step-size", "0.005",
                "--out-dir", str(tmp_path),
            ],
        )
        assert code == 0
        line = out.splitlines()[0]
        value = float(line.split("IoU ")[1].rstrip("%"))
        assert value >= 95.0

    def test_two_runs_are_byte_identical(self, capsys, mesh_dir, tmp_path):
        mesh = str(mesh_dir / "dumbbell.obj")
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert run(capsys, ["fit", mesh, *FAST_FIT, "--out-dir", str(d1)])[0] == 0
        assert run(capsys, ["fit", mesh, *FAST_FIT, "--out-dir", str(d2)])[0] == 0
        assert (d1 / "tree.json").read_bytes() == (d2 / "tree.json").read_bytes()

    def test_report_json_fields(self, capsys, mesh_dir, tmp_path):
        run(capsys, ["fit", str(mesh_dir / "sphere.obj"), *FAST_FIT, "--out-dir", str(tmp_path)])
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["samples_uniform"] == 1500
        assert doc["samples_surface"] == 500
        assert len(doc["level_iou"]) == 1
        assert doc["wall_time_seconds"] > 0
        assert doc["config"]["max_depth"] == 1

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(FitConfig)])
    def test_every_config_flag_reaches_report(self, capsys, mesh_dir, tmp_path, name):
        argv = [
            "fit", str(mesh_dir / "sphere.obj"),
            "--samples-uniform", "300",
            "--samples-surface", "100",
            "--out-dir", str(tmp_path),
        ]
        # The flag under test, plus the three that keep the fit small.
        for key in dict.fromkeys((name, "max_depth", "iterations", "restarts")):
            argv += ["--" + key.replace("_", "-"), str(FLAG_VALUES[key])]
        assert run(capsys, argv)[0] == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert FLAG_VALUES[name] != getattr(FitConfig(), name)
        assert doc["config"][name] == FLAG_VALUES[name]

    def test_tree_metadata_matches_report(self, capsys, mesh_dir, tmp_path):
        mesh = str(mesh_dir / "dumbbell.obj")
        argv = ["fit", mesh, *FAST_FIT, "--max-depth", "2", "--out-dir", str(tmp_path)]
        assert run(capsys, argv)[0] == 0
        _, metadata = load_tree(tmp_path / "tree.json")
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(metadata) == {"config", "level_iou", "node_losses", "loss_sum"}
        assert metadata == {key: report[key] for key in metadata}

    def test_fit_options_are_the_config_flags_and_the_run_flags(self):
        """A fit is set by flags alone: one per FitConfig field, plus the
        sampling, thread and output flags. There is no --config file."""
        config_flags = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(FitConfig)}
        run_flags = {"--samples-uniform", "--samples-surface", "--threads", "--out-dir"}
        assert parser_options("fit") == config_flags | run_flags

    @pytest.mark.parametrize("threads", ["-3", "0", "2"])
    def test_negative_threads_exits_2(self, capsys, mesh_dir, tmp_path, threads):
        """Nodes are fitted on one thread; --threads accepts only 1."""
        code, _, err = run(
            capsys,
            ["fit", str(mesh_dir / "sphere.obj"), *FAST_FIT, "--threads", threads,
             "--out-dir", str(tmp_path)],
        )
        assert code == 2
        assert "--threads" in err
        assert not (tmp_path / "tree.json").exists()

    def test_missing_mesh_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["fit", str(tmp_path / "absent.obj"), *FAST_FIT])
        assert code == 1
        assert "error:" in err

    def test_malformed_mesh_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.obj"
        bad.write_text("v 0 0 0\nf 1 2 3\n")
        code, _, err = run(capsys, ["fit", str(bad), *FAST_FIT])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("kind", sorted(BAD_MESHES))
    def test_bad_mesh_file_exits_1(self, capsys, tmp_path, kind):
        body, message = BAD_MESHES[kind]
        bad = tmp_path / "bad.obj"
        bad.write_bytes(body)
        code, _, err = run(capsys, ["fit", str(bad), *FAST_FIT, "--out-dir", str(tmp_path)])
        assert code == 1
        assert f"error: {bad}{message}" in err
        assert not (tmp_path / "tree.json").exists()

    def test_open_mesh_exits_1(self, capsys, tmp_path):
        """Ray parity cannot label points of a mesh with a hole."""
        cube = box()
        open_box = tmp_path / "open.obj"
        save_mesh(Mesh(cube.vertices, cube.triangles[1:]), open_box)
        code, _, err = run(capsys, ["fit", str(open_box), *FAST_FIT, "--out-dir", str(tmp_path)])
        assert code == 1
        assert "closed and manifold" in err

    def test_zero_max_depth_exits_2(self, capsys, mesh_dir, tmp_path):
        code, _, err = run(
            capsys,
            [
                "fit", str(mesh_dir / "sphere.obj"),
                "--max-depth", "0",
                "--out-dir", str(tmp_path),
            ],
        )
        assert code == 2
        assert "error:" in err

    def test_diverging_step_size_exits_2_naming_it(self, capsys, mesh_dir, tmp_path):
        """A step size that makes the fit diverge used to exit 2 with the
        quaternion normalizer's message alone, after three numpy overflow
        warnings; the error now names the node, restart, iteration and step
        size, and it is all that stderr holds."""
        code, _, err = run(
            capsys,
            [
                "fit", str(mesh_dir / "dumbbell.obj"),
                "--step-size", "1e300",
                "--iterations", "5",
                "--max-depth", "1",
                "--samples-uniform", "300",
                "--samples-surface", "0",
                "--out-dir", str(tmp_path),
            ],
        )
        assert code == 2
        assert err == (
            "error: node (1, 1), restart 0 diverged at iteration 0 with step_size 1e+300: "
            "cannot normalize a zero or non-finite quaternion\n"
        )


@pytest.fixture()
def fitted_dir(capsys, mesh_dir, tmp_path):
    """A completed fast depth-2 dumbbell fit to level the eval/export tests on."""
    argv = [
        "fit", str(mesh_dir / "dumbbell.obj"),
        "--max-depth", "2",
        "--iterations", "80",
        "--restarts", "2",
        "--sharpness", "50",
        "--step-size", "0.005",
        "--samples-uniform", "1500",
        "--samples-surface", "500",
        "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    return tmp_path


class TestEvalCommand:
    def test_eval_prints_tsv_and_writes_reports(self, capsys, mesh_dir, fitted_dir):
        code, out, _ = run(
            capsys,
            [
                "eval", str(fitted_dir / "tree.json"), str(mesh_dir / "dumbbell.obj"),
                "--samples-uniform", "20000",
                "--out-dir", str(fitted_dir),
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "level_1\tlevel_2"
        cells = lines[1].split("\t")
        assert len(cells) == 2
        assert all(c.endswith("%") for c in cells)
        doc = json.loads((fitted_dir / "iou_report.json").read_text())
        assert doc["method"] == "sampled"
        assert doc["sample_count"] == 20000
        assert (fitted_dir / "iou_report.tsv").read_text().splitlines()[0] == "level_1\tlevel_2"

    def test_eval_is_deterministic(self, capsys, mesh_dir, fitted_dir, tmp_path):
        argv = [
            "eval", str(fitted_dir / "tree.json"), str(mesh_dir / "dumbbell.obj"),
            "--samples-uniform", "10000",
            "--seed", "3",
        ]
        d1, d2 = tmp_path / "e1", tmp_path / "e2"
        assert run(capsys, argv + ["--out-dir", str(d1)])[0] == 0
        assert run(capsys, argv + ["--out-dir", str(d2)])[0] == 0
        assert (d1 / "iou_report.tsv").read_bytes() == (d2 / "iou_report.tsv").read_bytes()

    def test_corrupt_tree_exits_1(self, capsys, mesh_dir, tmp_path):
        bad = tmp_path / "tree.json"
        bad.write_text("{this is not json")
        code, _, err = run(
            capsys, ["eval", str(bad), str(mesh_dir / "sphere.obj")]
        )
        assert code == 1
        assert "error:" in err


    @pytest.mark.parametrize("kind", sorted(BAD_MESHES))
    def test_bad_mesh_file_exits_1(self, capsys, tmp_path, kind):
        tree = SqTree(max_depth=1)
        sq = Superquadric(np.full(3, 0.2), np.ones(2))
        tree.add_node(SqPairNode(depth=1, index=1, sq_a=sq, sq_b=sq))
        save_tree(tree, None, tmp_path / "tree.json")
        body, message = BAD_MESHES[kind]
        bad = tmp_path / "bad.obj"
        bad.write_bytes(body)
        code, _, err = run(
            capsys, ["eval", str(tmp_path / "tree.json"), str(bad), "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert f"error: {bad}{message}" in err

    def test_tree_not_utf8_exits_1(self, capsys, mesh_dir, tmp_path):
        bad = tmp_path / "tree.json"
        bad.write_bytes(NOT_UTF8_TREE)
        code, _, err = run(
            capsys, ["eval", str(bad), str(mesh_dir / "sphere.obj"), "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert f"error: {bad}: not valid JSON" in err


class TestExportCommand:
    def test_export_deepest_level_by_default(self, capsys, fitted_dir):
        code, out, _ = run(
            capsys,
            ["export", str(fitted_dir / "tree.json"), "--resolution", "8",
             "--out-dir", str(fitted_dir)],
        )
        assert code == 0
        path = fitted_dir / "level_2.obj"
        assert path.exists()
        assert str(path) in out
        assert path.read_text().count("g sq_") == 4

    def test_export_level_one(self, capsys, fitted_dir):
        code, _, _ = run(
            capsys,
            ["export", str(fitted_dir / "tree.json"), "--level", "1",
             "--resolution", "8", "--out-dir", str(fitted_dir)],
        )
        assert code == 0
        obj = fitted_dir / "level_1.obj"
        assert obj.read_text().count("g sq_") == 2
        mesh = load_mesh(obj)
        assert len(mesh.triangles) > 0

    def test_export_missing_level_exits_2(self, capsys, fitted_dir):
        code, _, err = run(
            capsys,
            ["export", str(fitted_dir / "tree.json"), "--level", "5",
             "--out-dir", str(fitted_dir)],
        )
        assert code == 2
        assert "error:" in err

    def test_export_tiny_resolution_exits_2_without_a_file(self, capsys, fitted_dir, tmp_path):
        code, _, err = run(
            capsys,
            ["export", str(fitted_dir / "tree.json"), "--level", "1",
             "--resolution", "2", "--out-dir", str(tmp_path)],
        )
        assert code == 2
        assert "need n_eta >= 3 and n_omega >= 3, got 2, 2" in err
        assert not (tmp_path / "level_1.obj").exists()

    @pytest.mark.parametrize(
        "flags", [["--resolution", "2"], ["--level", "5"]], ids=["resolution", "level"]
    )
    def test_refused_export_makes_no_out_dir(self, capsys, fitted_dir, tmp_path, flags):
        """The level and the lattice are checked before --out-dir is made:
        both refusals used to leave an empty new directory behind."""
        out_dir = tmp_path / "new"
        code, _, err = run(
            capsys, ["export", str(fitted_dir / "tree.json"), *flags, "--out-dir", str(out_dir)]
        )
        assert code == 2
        assert "error:" in err
        assert not out_dir.exists()

    def test_export_corrupt_tree_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "tree.json"
        bad.write_text('{"format_version": 7}')
        code, _, _ = run(capsys, ["export", str(bad), "--out-dir", str(tmp_path)])
        assert code == 1

    def test_export_tree_without_a_complete_level_exits_1(self, capsys, tmp_path):
        """With no --level, a tree with no complete level is a bad tree
        (exit 1, as eval gives), not a bad --level; --level 0 stays exit 2."""
        tree = SqTree(max_depth=2)
        sq = Superquadric(np.full(3, 0.2), np.ones(2))
        tree.add_node(SqPairNode(depth=1, index=1, sq_a=sq, sq_b=sq))
        path = tmp_path / "tree.json"
        save_tree(tree, None, path)
        doc = json.loads(path.read_text())
        doc["nodes"] = []
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["export", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "tree has no complete level" in err
        code, _, err = run(
            capsys, ["export", str(path), "--level", "0", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "--level must be >= 1, got 0" in err

    def test_export_repeated_node_exits_1(self, capsys, tmp_path):
        tree = SqTree(max_depth=1)
        sq = Superquadric(np.full(3, 0.2), np.ones(2))
        tree.add_node(SqPairNode(depth=1, index=1, sq_a=sq, sq_b=sq))
        path = tmp_path / "tree.json"
        save_tree(tree, None, path)
        doc = json.loads(path.read_text())
        doc["nodes"] *= 2
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["export", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "node (1, 1) is already in the tree" in err

    def test_export_tree_not_utf8_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "tree.json"
        bad.write_bytes(NOT_UTF8_TREE)
        code, _, err = run(capsys, ["export", str(bad), "--out-dir", str(tmp_path)])
        assert code == 1
        assert f"error: {bad}: not valid JSON" in err


class TestSplitDemoCommand:
    def test_preset_writes_three_csvs(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["split-demo", "--preset", "fig3", "--res", "16", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        for name in ("split_f.csv", "split_d.csv", "split_selector.csv"):
            assert (tmp_path / name).exists()
            assert name in out
        sel = (tmp_path / "split_selector.csv").read_text().splitlines()
        assert sel[0] == "x,y,selector"
        assert len(sel) == 16 * 16 + 1

    def test_custom_pair_selector_is_nonconstant(self, capsys, tmp_path):
        sq = "0.3,0.3,0.3,1,1,{x},0,0,1,0,0,0"
        code, _, _ = run(
            capsys,
            [
                "split-demo",
                "--sq-a", sq.format(x=-0.2),
                "--sq-b", sq.format(x=0.2),
                "--res", "12",
                "--out-dir", str(tmp_path),
            ],
        )
        assert code == 0
        rows = (tmp_path / "split_selector.csv").read_text().splitlines()[1:]
        selectors = {r.rsplit(",", 1)[1] for r in rows}
        assert selectors == {"A", "B"}

    def test_zero_size_sq_spec_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "split-demo",
                "--sq-a", "0,0.3,0.3,1,1,0,0,0,1,0,0,0",
                "--sq-b", "0.3,0.3,0.3,1,1,0,0,0,1,0,0,0",
                "--out-dir", str(tmp_path),
            ],
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag", ["--offset", "--slice-min", "--slice-max"])
    def test_non_finite_slice_exits_2_before_making_the_out_dir(self, capsys, tmp_path, flag):
        out = tmp_path / "demo"
        code, _, err = run(capsys, ["split-demo", flag, "nan", "--out-dir", str(out)])
        assert code == 2
        assert "must be finite, got nan" in err
        assert not out.exists()

    def test_half_specified_pair_exits_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["split-demo", "--sq-a", "0.3,0.3,0.3,1,1,0,0,0,1,0,0,0",
             "--out-dir", str(tmp_path)],
        )
        assert code == 2

    def test_wrong_length_sq_spec_exits_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["split-demo", "--sq-a", "1,2,3", "--sq-b", "1,2,3",
             "--out-dir", str(tmp_path)],
        )
        assert code == 2


class TestExitCodeMapping:
    def test_unfitted_saved_tree_evals_to_error(self, capsys, mesh_dir, tmp_path):
        """A structurally valid document whose nodes are inconsistent with its
        claimed depth must not crash with a traceback."""
        tree = SqTree(max_depth=2)
        sq = Superquadric(np.full(3, 0.2), np.ones(2))
        tree.add_node(SqPairNode(depth=1, index=1, sq_a=sq, sq_b=sq))
        path = tmp_path / "tree.json"
        save_tree(tree, None, path)
        doc = json.loads(path.read_text())
        doc["nodes"] = []
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["eval", str(path), str(mesh_dir / "sphere.obj")])
        assert code == 1
        assert "error:" in err

    def test_tree_without_a_complete_level_is_refused_before_the_mesh(self, capsys, tmp_path):
        """eval checks the tree before it reads the mesh: against a missing
        mesh it used to report the missing file, after an empty tree."""
        tree = SqTree(max_depth=2)
        sq = Superquadric(np.full(3, 0.2), np.ones(2))
        tree.add_node(SqPairNode(depth=1, index=1, sq_a=sq, sq_b=sq))
        path = tmp_path / "tree.json"
        save_tree(tree, None, path)
        doc = json.loads(path.read_text())
        doc["nodes"] = []
        path.write_text(json.dumps(doc))
        missing = tmp_path / "missing.obj"
        code, _, err = run(capsys, ["eval", str(path), str(missing), "--out-dir", str(tmp_path)])
        assert code == 1
        assert f"error: {path}: tree has no complete level" in err
        assert "No such file" not in err


def readme_section(command: str) -> str:
    """README's section on ``sqdecomp <command>``, up to the next heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(rf"^### `sqdecomp {command}[ `].*?(?=^#)", readme, re.M | re.S)[0]


def parser_options(command: str) -> set:
    """Every option string the parser gives ``command``, -h and --help aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        flag for action in sub.choices[command]._actions for flag in action.option_strings
    } - {"-h", "--help"}


class TestReadme:
    def test_fit_flag_table_names_every_fit_option(self):
        """README's `fit` flag table lists exactly the options the parser
        gives `fit`; a row `--x-min/--x-max X` would name two."""
        rows = re.findall(r"^\| `(--[^` ]+)", readme_section("fit"), flags=re.MULTILINE)
        documented = [flag for row in rows for flag in row.split("/")]
        assert len(documented) == len(set(documented))
        assert set(documented) == parser_options("fit")

    @pytest.mark.parametrize("command", ["fit", "eval", "export", "split-demo"])
    def test_every_flag_a_section_names_exists(self, command):
        """Every `--flag` in a subcommand's section, prose included, is an
        option of that subcommand, so a removed flag cannot linger in the
        text."""
        named = set(re.findall(r"--[a-z][a-z0-9-]*", readme_section(command)))
        assert named
        assert named <= parser_options(command)
