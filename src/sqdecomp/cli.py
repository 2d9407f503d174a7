"""Command-line interface: fit, eval, export, split-demo.

Exit codes: 0 success, 1 input errors (missing/corrupt files, bad meshes,
unsupported tree versions), 2 configuration errors (bad flag or config-file
values, invalid SQ specs), 3 internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import quaternions as quat
from .export import (
    TreeFormatError,
    export_level_obj,
    export_split_demo_csvs,
    load_tree,
    save_tree,
    write_json,
)
from .fitter import ConfigError, FitConfig, fit_tree
from .geometry import (
    DegenerateMeshError,
    MeshFormatError,
    RayDegeneracyError,
    load_mesh,
    normalize,
    sample_labeled_points,
)
from .metrics import IoUReport, level_ious
from .splitter import SliceSpec
from .superquadric import Superquadric


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config plus one --field-name flag per FitConfig field."""
    p.add_argument("--config", help="key = value config file; flags override it")
    for name, cast in FitConfig.field_casters().items():
        p.add_argument("--" + name.replace("_", "-"), type=cast, default=None)


def _resolve_config(args) -> FitConfig:
    """Defaults, overridden by --config file, overridden by flags."""
    cfg = FitConfig.from_file(args.config) if args.config else FitConfig()
    overrides = {
        name: getattr(args, name)
        for name in FitConfig.field_casters()
        if getattr(args, name) is not None
    }
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _format_iou(value) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def cmd_fit(args) -> int:
    if args.threads != 1:
        raise ConfigError(f"--threads must be 1, got {args.threads}")
    cfg = _resolve_config(args)
    mesh = normalize(load_mesh(args.mesh))
    pointset = sample_labeled_points(
        mesh, args.samples_surface, args.samples_uniform, seed=cfg.seed
    )
    tree, report = fit_tree(pointset, cfg)

    out = _out_dir(args)
    tree_path = os.path.join(out, "tree.json")
    save_tree(tree, report, tree_path)
    report_doc = {
        **report.to_json_dict(),
        "samples_uniform": args.samples_uniform,
        "samples_surface": args.samples_surface,
        "degenerate_nodes": sorted(report.degenerate_nodes),
        "wall_time_seconds": report.wall_time,
    }
    write_json(report_doc, os.path.join(out, "report.json"))

    for depth, value in enumerate(report.level_iou, start=1):
        print(f"level {depth}: IoU {_format_iou(value)}")
    print(f"wrote {tree_path}")
    return 0


def cmd_eval(args) -> int:
    tree, _metadata = load_tree(args.tree)
    depth = tree.fitted_depth
    if depth == 0:
        raise TreeFormatError(f"{args.tree}: tree has no complete level")
    mesh = normalize(load_mesh(args.mesh))
    pointset = sample_labeled_points(
        mesh, args.samples_surface, args.samples_uniform, seed=args.seed
    )
    rep = IoUReport(
        per_level=level_ious(tree, pointset),
        sample_count=len(pointset),
        method="sampled",
        seed=args.seed,
    )

    header = "\t".join(f"level_{d}" for d in range(1, depth + 1))
    print(header)
    print(rep.tsv_line())
    out = _out_dir(args)
    write_json(rep.to_json_dict(), os.path.join(out, "iou_report.json"))
    with open(os.path.join(out, "iou_report.tsv"), "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + rep.tsv_line() + "\n")
    return 0


def cmd_export(args) -> int:
    tree, _metadata = load_tree(args.tree)
    depth = args.level
    if depth is None:
        depth = tree.fitted_depth
        if depth == 0:
            raise TreeFormatError(f"{args.tree}: tree has no complete level")
    if depth < 1:
        raise ConfigError(f"--level must be >= 1, got {depth}")
    out = _out_dir(args)
    path = os.path.join(out, f"level_{depth}.obj")
    export_level_obj(tree, depth, path, resolution=args.resolution)
    print(f"wrote {path}")
    return 0


# A pair with a clear inside-both overlap, distinct exponents, and plenty of
# outside space in the z = 0 slice; the demo default.
_PRESET_PAIRS = {
    "fig3": (
        Superquadric(
            size=(0.32, 0.22, 0.22),
            exponents=(1.0, 1.0),
            translation=(-0.15, 0.0, 0.0),
        ),
        Superquadric(
            size=(0.28, 0.28, 0.20),
            exponents=(0.5, 0.5),
            translation=(0.18, 0.05, 0.0),
            rotation=quat.from_rotation_vector(np.array([0.0, 0.0, np.pi / 6])),
        ),
    ),
}


def _parse_sq_spec(text: str) -> Superquadric:
    """12 comma-separated floats: a1,a2,a3,e1,e2,t1,t2,t3,qw,qx,qy,qz."""
    try:
        values = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad SQ spec {text!r}: {exc}") from exc
    if values.shape != (12,):
        raise ConfigError(f"SQ spec needs 12 numbers, got {len(values)}")
    try:
        return Superquadric.from_params(values)
    except ValueError as exc:
        raise ConfigError(f"bad SQ spec {text!r}: {exc}") from exc


def cmd_split_demo(args) -> int:
    if (args.sq_a is None) != (args.sq_b is None):
        raise ConfigError("--sq-a and --sq-b must be given together")
    if args.sq_a is not None:
        sq_a = _parse_sq_spec(args.sq_a)
        sq_b = _parse_sq_spec(args.sq_b)
    else:
        sq_a, sq_b = _PRESET_PAIRS[args.preset]
    spec = SliceSpec(
        axis=args.axis,
        offset=args.offset,
        u_min=args.slice_min,
        u_max=args.slice_max,
        v_min=args.slice_min,
        v_max=args.slice_max,
        nu=args.res,
        nv=args.res,
    )
    out = _out_dir(args)
    for path in export_split_demo_csvs(sq_a, sq_b, spec, out):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqdecomp",
        description="Decompose a mesh into a binary tree of superquadric pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a tree to a mesh")
    p_fit.add_argument("mesh", help="input OBJ mesh")
    _add_config_flags(p_fit)
    p_fit.add_argument("--samples-uniform", type=int, default=6000)
    p_fit.add_argument("--samples-surface", type=int, default=2000)
    p_fit.add_argument(
        "--threads", type=int, default=1,
        help="must be 1: nodes are fitted in order on one thread; the flag goes "
        "with the next change to benchmarks/",
    )
    p_fit.add_argument("--out-dir", default=".")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="per-level IoU of a fitted tree")
    p_eval.add_argument("tree", help="tree JSON from fit")
    p_eval.add_argument("mesh", help="input OBJ mesh")
    p_eval.add_argument("--samples-uniform", type=int, default=100000)
    p_eval.add_argument("--samples-surface", type=int, default=0)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out-dir", default=".")
    p_eval.set_defaults(func=cmd_eval)

    p_export = sub.add_parser("export", help="write one level's SQs as OBJ")
    p_export.add_argument("tree", help="tree JSON from fit")
    p_export.add_argument("--level", type=int, default=None, help="default: deepest")
    p_export.add_argument("--resolution", type=int, default=32)
    p_export.add_argument("--out-dir", default=".")
    p_export.set_defaults(func=cmd_export)

    p_demo = sub.add_parser("split-demo", help="dump split fields for a pair")
    p_demo.add_argument("--preset", choices=sorted(_PRESET_PAIRS), default="fig3")
    p_demo.add_argument("--sq-a", help="12 comma-separated floats (see docs)")
    p_demo.add_argument("--sq-b", help="12 comma-separated floats (see docs)")
    p_demo.add_argument("--axis", type=int, choices=(0, 1, 2), default=2)
    p_demo.add_argument("--offset", type=float, default=0.0)
    p_demo.add_argument("--slice-min", type=float, default=-0.6)
    p_demo.add_argument("--slice-max", type=float, default=0.6)
    p_demo.add_argument("--res", type=int, default=64)
    p_demo.add_argument("--out-dir", default=".")
    p_demo.set_defaults(func=cmd_split_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MeshFormatError, DegenerateMeshError, TreeFormatError,
            RayDegeneracyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
