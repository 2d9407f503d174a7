"""sqdecomp: hierarchical decomposition of meshes into superquadric pair trees.

The pipeline: normalize a watertight mesh, sample labeled points
(geometry), fit a binary tree of superquadric pairs by direct occupancy-loss
optimization (fitter), splitting space between the pair at each node
(splitter), then evaluate (metrics) and persist (export).
"""

from .fitter import ConfigError, FitConfig, FitReport, NodeFit, fit_node, fit_tree, node_loss
from .geometry import (
    DegenerateMeshError,
    LabeledPointSet,
    Mesh,
    MeshFormatError,
    load_mesh,
    normalize,
    point_in_mesh,
    sample_labeled_points,
    save_mesh,
)
from .metrics import (
    EmptyUnionError,
    IoUReport,
    iou,
    label_iou,
    level_ious,
    predicted_label,
    voxel_iou,
)
from .shapes import box, dumbbell, icosphere, merge
from .splitter import SliceSpec, SplitAssignment, child_labels, split_field_2d, split_pair
from .sqtree import Side, SqPairNode, SqTree, parent_node, recompute_labels, split_node
from .superquadric import (
    NonFiniteGradientError,
    OccupancyConfig,
    Superquadric,
    inside_outside,
    inside_outside_stable,
    occupancy,
    occupancy_gradient,
    radial_distance,
    surface_points,
    world_to_local,
)
from .export import (
    TreeFormatError,
    export_level_obj,
    export_split_csv,
    export_split_demo_csvs,
    load_tree,
    save_tree,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateMeshError",
    "EmptyUnionError",
    "FitConfig",
    "FitReport",
    "IoUReport",
    "LabeledPointSet",
    "Mesh",
    "MeshFormatError",
    "NodeFit",
    "NonFiniteGradientError",
    "OccupancyConfig",
    "Side",
    "SliceSpec",
    "SplitAssignment",
    "SqPairNode",
    "SqTree",
    "Superquadric",
    "TreeFormatError",
    "box",
    "child_labels",
    "dumbbell",
    "export_level_obj",
    "export_split_csv",
    "export_split_demo_csvs",
    "fit_node",
    "fit_tree",
    "icosphere",
    "inside_outside",
    "inside_outside_stable",
    "iou",
    "label_iou",
    "level_ious",
    "load_mesh",
    "load_tree",
    "merge",
    "node_loss",
    "normalize",
    "occupancy",
    "occupancy_gradient",
    "parent_node",
    "point_in_mesh",
    "predicted_label",
    "radial_distance",
    "recompute_labels",
    "sample_labeled_points",
    "save_mesh",
    "save_tree",
    "split_field_2d",
    "split_node",
    "split_pair",
    "surface_points",
    "voxel_iou",
    "world_to_local",
]
