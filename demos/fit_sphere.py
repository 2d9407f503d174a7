"""Fit a single superquadric pair to a sphere mesh and report the IoU."""

import numpy as np

from sqdecomp import (
    FitConfig,
    fit_tree,
    icosphere,
    normalize,
    sample_labeled_points,
    voxel_iou,
)

mesh = normalize(icosphere(radius=0.4, subdivisions=2))
points = sample_labeled_points(mesh, n_surface=2000, n_uniform=6000, seed=0)
print(f"{len(points.points)} samples, {int(points.labels.sum())} inside")

cfg = FitConfig(max_depth=1, iterations=400, restarts=4, sharpness=50.0, step_size=0.005, seed=0)
tree, report = fit_tree(points, cfg)

root = tree.node(1, 1)
for name, sq in (("A", root.sq_a), ("B", root.sq_b)):
    a = np.array2string(sq.size, precision=3)
    e = np.array2string(sq.exponents, precision=3)
    t = np.array2string(sq.translation, precision=3)
    print(f"SQ {name}: size {a}  exponents {e}  center {t}")

print(f"training IoU (level 1): {100 * report.level_iou[0]:.1f}%")
print(f"voxel IoU vs mesh:      {100 * voxel_iou([root.sq_a, root.sq_b], mesh):.1f}%")
print(f"fit time: {report.wall_time:.1f}s over {report.iterations} iterations")
