"""Reconstruction quality metrics: sampled and voxel-grid IoU."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SAMPLING_DOMAIN, LabeledPointSet, Mesh, as_labels, point_in_mesh
from .sqtree import SqTree
from .superquadric import FieldWorkspace, _log_field


class EmptyUnionError(ValueError):
    """IoU is undefined: neither prediction nor truth marks any point inside."""


def predicted_label(sqs, points) -> np.ndarray:
    """1 where any of the SQs has F^e1 < 1 (strictly), else 0.

    F^e1 < 1 is exactly occupancy g(x) > 0.5 at any sharpness, so this marks
    the union of the open SQ interiors.
    """
    sqs = list(sqs)
    if not sqs:
        raise ValueError("need at least one superquadric")
    ws = FieldWorkspace(points)
    out = np.zeros(ws.n, dtype=bool)
    for sq in sqs:
        out |= _log_field(sq, ws)[0] < 1.0
    return out.astype(np.uint8)


def label_iou(predicted, truth) -> float:
    """Intersection over union of two binary label vectors (symmetric).

    Both pass :func:`geometry.as_labels`, at one length."""
    p = as_labels(predicted)
    t = as_labels(truth, len(p))
    union = int(np.logical_or(p, t).sum())
    if union == 0:
        raise EmptyUnionError("both label sets are empty; IoU undefined")
    return float(np.logical_and(p, t).sum() / union)


def iou(sqs, pointset: LabeledPointSet) -> float:
    """Sampled IoU between the SQ union and the labeled ground truth."""
    return label_iou(predicted_label(sqs, pointset.points), pointset.labels)


def level_ious(tree: SqTree, pointset: LabeledPointSet) -> list:
    """Sampled IoU of each complete level of ``tree``, top down; None for a
    level whose IoU is undefined (see :class:`EmptyUnionError`)."""
    out = []
    for depth in range(1, tree.fitted_depth + 1):
        try:
            out.append(iou(tree.superquadrics_at_level(depth), pointset))
        except EmptyUnionError:
            out.append(None)
    return out


def voxel_grid(resolution: int) -> np.ndarray:
    """Cell-center coordinates of a resolution^3 grid over the sample domain."""
    if resolution < 8:
        raise ValueError(f"voxel resolution must be >= 8, got {resolution}")
    lo, hi = SAMPLING_DOMAIN
    step = (hi - lo) / resolution
    centers = lo + step * (np.arange(resolution) + 0.5)
    xx, yy, zz = np.meshgrid(centers, centers, centers, indexing="ij")
    return np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)


def voxel_iou(sqs, mesh: Mesh, resolution: int = 64) -> float:
    """IoU on a regular voxel grid, with mesh-inside tests as ground truth.

    Slower than the sampled estimate but independent of the training sample,
    which makes it a useful cross-check of the sampled numbers.
    """
    centers = voxel_grid(resolution)
    truth = point_in_mesh(mesh, centers)
    return label_iou(predicted_label(sqs, centers), truth)


@dataclass(frozen=True)
class IoUReport:
    """Per-level IoU values from one evaluation run."""

    per_level: list
    sample_count: int
    method: str  # "sampled" or "voxel"
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "per_level": [None if v is None else float(v) for v in self.per_level],
        }

    def tsv_line(self) -> str:
        """Levels as tab-separated percentages with one decimal."""
        cells = ["-" if v is None else f"{100.0 * v:.1f}%" for v in self.per_level]
        return "\t".join(cells)
