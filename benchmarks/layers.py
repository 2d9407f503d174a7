"""Which sqdecomp functions a traced repetition wraps, and the per-layer metrics.

Every wrapped function is a public name of its module, wrapped where its
callers look it up. The private pair loss-and-gradient kernel has no span of
its own: it is measured through ``fit_node``, which spends its time there.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np
from scipy.special import expit

from sqdecomp import cli, export, fitter, geometry, metrics, splitter
from sqdecomp.superquadric import inside_outside_stable

from tracing import Tracer, self_times

# A point "carries gradient" when its BCE residual max(g_a, g_b) - y is at
# least this large; below it the loss is saturated at that point.
ACTIVE_RESIDUAL = 1e-9


def _count_points(span, args, result) -> None:
    span.attrs["points"] = len(np.atleast_2d(args["points"]))


def _count_point_in_mesh(span, args, result) -> None:
    span.attrs["points"] = len(np.atleast_2d(args["points"]))
    span.attrs["triangles"] = len(args["mesh"].triangles)


def _count_predicted_label(span, args, result) -> None:
    span.attrs["sq_points"] = len(args["sqs"]) * len(result)


def _count_obj_bytes(span, args, result) -> None:
    span.attrs["obj_bytes"] = os.path.getsize(args["path"])


def install(tracer: Tracer, fit_calls: list) -> None:
    """Wrap the traced functions; ``fit_calls`` collects each fit_node call."""

    def count_fit_node(span, args, result) -> None:
        span.attrs["points"] = len(np.atleast_2d(args["points"]))
        span.attrs["iterations"] = result.iterations
        span.attrs["degenerate"] = result.degenerate
        fit_calls.append((args["points"], args["labels"], args["cfg"], args["node"], result))

    tracer.wrap(cli.main, "cli.main")
    tracer.wrap(geometry.load_mesh, "geometry.load_mesh")
    tracer.wrap(geometry.sample_labeled_points, "geometry.sample_labeled_points")
    tracer.wrap(geometry.point_in_mesh, "geometry.point_in_mesh", _count_point_in_mesh)
    tracer.wrap(fitter.fit_tree, "fitter.fit_tree")
    tracer.wrap(fitter.fit_node, "fitter.fit_node", count_fit_node)
    tracer.wrap(splitter.split_pair, "splitter.split_pair", _count_points)
    tracer.wrap(metrics.predicted_label, "metrics.predicted_label", _count_predicted_label)
    tracer.wrap(export.save_tree, "export.save_tree")
    tracer.wrap(export.load_tree, "export.load_tree")
    tracer.wrap(export.export_level_obj, "export.export_level_obj", _count_obj_bytes)


def grad_active(sq_a, sq_b, points, labels, sharpness: float) -> int:
    """Points whose |max(g_a, g_b) - y| >= ACTIVE_RESIDUAL at this pair."""
    g = np.maximum(
        expit(sharpness * (1.0 - inside_outside_stable(sq_a, points))),
        expit(sharpness * (1.0 - inside_outside_stable(sq_b, points))),
    )
    return int(np.count_nonzero(np.abs(g - labels) >= ACTIVE_RESIDUAL))


def grad_active_shares(fit_calls) -> dict[str, tuple[float, float]]:
    """(initial, final) share of points carrying gradient, per node and pooled.

    Initial is at restart 0's canonical start pair, final at the returned
    pair. Key ``"d,i"`` pools the calls that fit node (d, i) (on recover-sq,
    every shape is node 1,1); key ``"all"`` pools every call. Degenerate
    fits are left out.
    """
    counts = defaultdict(lambda: [0, 0, 0])
    for points, labels, cfg, node, fit in fit_calls:
        if fit.degenerate:
            continue
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        y = np.asarray(labels, dtype=np.float64)
        start_a, start_b = fitter.init_node(pts, labels, cfg, restart=0)
        initial = grad_active(start_a, start_b, pts, y, cfg.sharpness)
        final = grad_active(fit.sq_a, fit.sq_b, pts, y, cfg.sharpness)
        for key in ("all", f"{node[0]},{node[1]}"):
            counts[key][0] += initial
            counts[key][1] += final
            counts[key][2] += len(pts)
    return {key: (i / n, f / n) for key, (i, f, n) in counts.items()}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans, grad_share: float) -> dict:
    """Per-layer metrics of one traced repetition, as {name: (value, unit)}.

    Every name is reported on every workload; a layer that did not run
    reports zero time and zero work.
    """
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(float)
    for span, self_time in zip(spans, selfs):
        total[span.name] += span.duration
        own[span.name] += self_time
        calls[span.name] += 1
        for key, value in span.attrs.items():
            attrs[span.name, key] += value

    fit_node_s = total["fitter.fit_node"]
    pim_s = total["geometry.point_in_mesh"]
    pred_s = total["metrics.predicted_label"]
    point_iters = sum(
        s.attrs["points"] * s.attrs["iterations"] for s in spans if s.name == "fitter.fit_node"
    )
    point_tris = sum(
        s.attrs["points"] * s.attrs["triangles"] for s in spans if s.name == "geometry.point_in_mesh"
    )
    sq_points = attrs["metrics.predicted_label", "sq_points"]
    return {
        "fitter.fit_node_s": (fit_node_s, "s"),
        "fitter.ns_per_point_iter": (_ratio(fit_node_s, point_iters, 1e9), "ns"),
        "fitter.iterations": (int(attrs["fitter.fit_node", "iterations"]), "count"),
        "fitter.nodes_fitted": (calls["fitter.fit_node"], "count"),
        "fitter.fit_tree_s": (own["fitter.fit_tree"], "s"),
        "fitter.grad_active_share": (grad_share, "ratio"),
        "geometry.point_in_mesh_s": (pim_s, "s"),
        "geometry.ns_per_point_tri": (_ratio(pim_s, point_tris, 1e9), "ns"),
        "geometry.points_labeled": (int(attrs["geometry.point_in_mesh", "points"]), "count"),
        "geometry.sample_s": (own["geometry.sample_labeled_points"], "s"),
        "geometry.load_mesh_s": (total["geometry.load_mesh"], "s"),
        "metrics.predicted_label_s": (pred_s, "s"),
        "metrics.sq_point_evals": (int(sq_points), "count"),
        "metrics.ns_per_sq_point": (_ratio(pred_s, sq_points, 1e9), "ns"),
        "splitter.split_pair_s": (total["splitter.split_pair"], "s"),
        "splitter.points_split": (int(attrs["splitter.split_pair", "points"]), "count"),
        "export.save_tree_s": (total["export.save_tree"], "s"),
        "export.load_tree_s": (total["export.load_tree"], "s"),
        "export.export_level_obj_s": (total["export.export_level_obj"], "s"),
        "export.obj_bytes": (int(attrs["export.export_level_obj", "obj_bytes"]), "bytes"),
        "cli.self_s": (own["cli.main"], "s"),
        "bench.self_s": (own["bench.rep"], "s"),
    }
