"""Binary tree of superquadric pairs.

Every node holds one fitted pair. Node (d, i) lives at depth d >= 1 with
index 1 <= i <= 2^(d-1), so level d holds 2^(d-1) nodes and 2^d
superquadrics. The root is (1, 1). Children of (d, i) are (d+1, 2i-1), grown
from side b, and (d+1, 2i), grown from side a; equivalently the parent SQ of
node (d, i) sits on side a when i is even and side b when i is odd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import as_labels, as_points
from .splitter import split_pair
from .superquadric import Superquadric


class Side(str, Enum):
    A = "a"
    B = "b"


def _check_key(depth: int, index: int) -> None:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not (1 <= index <= 2 ** (depth - 1)):
        raise ValueError(f"index {index} out of range at depth {depth}")


def parent_node(depth: int, index: int) -> tuple[int, int]:
    """Tree coordinates of the parent of node (depth, index)."""
    _check_key(depth, index)
    if depth == 1:
        raise ValueError("the root (1, 1) has no parent")
    return depth - 1, (index + 1) // 2


def child_node(depth: int, index: int, side: Side) -> tuple[int, int]:
    """Child coordinates grown from one side of node (depth, index)."""
    _check_key(depth, index)
    return depth + 1, 2 * index if side is Side.A else 2 * index - 1


@dataclass(eq=False)
class SqPairNode:
    """One tree node: a fitted SQ pair plus this node's inside labels."""

    depth: int
    index: int
    sq_a: Superquadric
    sq_b: Superquadric
    labels: np.ndarray | None = None
    degenerate: bool = False

    def __post_init__(self) -> None:
        _check_key(self.depth, self.index)
        if self.labels is not None:
            self.labels = as_labels(self.labels)

    @property
    def key(self) -> tuple[int, int]:
        return self.depth, self.index


@dataclass(eq=False)
class SqTree:
    """All fitted nodes of one decomposition, keyed by (depth, index).

    ``points`` is the shared sample-point array all node labels refer to; it
    is None for trees restored from disk (parameters only).
    """

    max_depth: int
    points: np.ndarray | None = None
    nodes: dict[tuple[int, int], SqPairNode] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.points is not None:
            self.points = as_points(self.points)[0]

    def add_node(self, node: SqPairNode) -> None:
        if node.depth > self.max_depth:
            raise ValueError(f"node depth {node.depth} exceeds max_depth {self.max_depth}")
        if node.depth > 1 and parent_node(node.depth, node.index) not in self.nodes:
            raise ValueError(f"parent of {node.key} not in tree")
        if node.labels is not None and self.points is not None:
            if len(node.labels) != len(self.points):
                raise ValueError("node labels length does not match tree points")
        self.nodes[node.key] = node

    def node(self, depth: int, index: int) -> SqPairNode:
        key = (depth, index)
        if key not in self.nodes:
            raise KeyError(f"node {key} not in tree")
        return self.nodes[key]

    @property
    def fitted_depth(self) -> int:
        """Deepest level whose nodes are all present (0 for an empty tree)."""
        d = 0
        while d < self.max_depth and self.has_level(d + 1):
            d += 1
        return d

    def has_level(self, depth: int) -> bool:
        return all((depth, i) in self.nodes for i in range(1, 2 ** (depth - 1) + 1))

    def level_nodes(self, depth: int) -> list[SqPairNode]:
        """All nodes of one level, ordered by index. The level must be complete."""
        if not self.has_level(depth):
            raise ValueError(f"level {depth} is not fully fitted")
        return [self.nodes[(depth, i)] for i in range(1, 2 ** (depth - 1) + 1)]

    def superquadrics_at_level(self, depth: int) -> list[Superquadric]:
        """The 2^depth SQs of one level, ordered by (index, side a then b)."""
        out = []
        for node in self.level_nodes(depth):
            out.append(node.sq_a)
            out.append(node.sq_b)
        return out


def split_node(node: SqPairNode, points, labels) -> list[tuple[tuple[int, int], np.ndarray]]:
    """Keys and inside labels of the two children of ``node``, side a first.

    The one place child labels are made: ``labels`` AND the side-a mask of
    :func:`split_pair` for the side-a child, ``labels`` AND its complement
    for the side-b child, so the two label sets partition the inside points.
    """
    to_a = split_pair(node.sq_a, node.sq_b, points)
    y = as_labels(labels, len(to_a))
    return [
        (child_node(node.depth, node.index, Side.A), y & to_a),
        (child_node(node.depth, node.index, Side.B), y & ~to_a),
    ]


def recompute_labels(tree: SqTree) -> dict[tuple[int, int], np.ndarray]:
    """Re-derive every node's labels from the root labels and the split rule.

    Walks the complete levels top-down through :func:`split_node`. Used to
    audit stored label sets. Requires the tree to carry points and root
    labels.
    """
    if tree.points is None:
        raise ValueError("tree carries no points; cannot recompute labels")
    root = tree.node(1, 1)
    if root.labels is None:
        raise ValueError("root node carries no labels")
    out: dict[tuple[int, int], np.ndarray] = {(1, 1): root.labels.copy()}
    for depth in range(1, tree.fitted_depth):
        for node in tree.level_nodes(depth):
            out.update(split_node(node, tree.points, out[node.key]))
    return out
