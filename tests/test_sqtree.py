import numpy as np
import pytest

from helpers import random_pair
from sqdecomp import (
    Side,
    SqPairNode,
    SqTree,
    parent_node,
    recompute_labels,
    split_node,
    split_pair,
)
from sqdecomp.sqtree import child_node


class TestIndexing:
    def test_parent_of_2_2(self):
        assert parent_node(2, 2) == (1, 1)

    def test_parent_of_leftmost_chain(self):
        assert parent_node(3, 1) == (2, 1)

    def test_parent_of_3_4(self):
        assert parent_node(3, 4) == (2, 2)

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            parent_node(1, 1)

    def test_index_range_validated(self):
        with pytest.raises(ValueError):
            parent_node(2, 3)
        with pytest.raises(ValueError):
            parent_node(2, 0)

    def test_child_node_inverts_parent_node(self):
        """parent_node undoes child_node, and side a children have even
        indices, side b children odd ones."""
        for d in (1, 2, 3):
            for i in range(1, 2 ** (d - 1) + 1):
                for side in (Side.A, Side.B):
                    cd, ci = child_node(d, i, side)
                    assert cd == d + 1
                    assert parent_node(cd, ci) == (d, i)
                    assert (ci % 2 == 0) == (side is Side.A)

    def test_sibling_children_are_adjacent(self):
        assert child_node(1, 1, Side.A) == (2, 2)
        assert child_node(1, 1, Side.B) == (2, 1)
        assert child_node(2, 2, Side.A) == (3, 4)
        assert child_node(2, 2, Side.B) == (3, 3)


def make_node(depth, index, rng, labels=None):
    a, b = random_pair(rng)
    return SqPairNode(depth, index, a, b, labels=labels)


class TestTreeStructure:
    def test_add_root_and_children(self):
        rng = np.random.default_rng(30)
        tree = SqTree(max_depth=2)
        tree.add_node(make_node(1, 1, rng))
        tree.add_node(make_node(2, 1, rng))
        tree.add_node(make_node(2, 2, rng))
        assert tree.fitted_depth == 2
        assert tree.has_level(2)

    def test_child_requires_parent(self):
        rng = np.random.default_rng(31)
        tree = SqTree(max_depth=2)
        with pytest.raises(ValueError):
            tree.add_node(make_node(2, 1, rng))

    def test_depth_capped_by_max_depth(self):
        rng = np.random.default_rng(32)
        tree = SqTree(max_depth=1)
        tree.add_node(make_node(1, 1, rng))
        with pytest.raises(ValueError):
            tree.add_node(make_node(2, 1, rng))

    def test_repeated_key_rejected(self):
        """A second node at a key already in the tree used to replace the
        first silently."""
        rng = np.random.default_rng(37)
        tree = SqTree(max_depth=1)
        first = make_node(1, 1, rng)
        tree.add_node(first)
        with pytest.raises(ValueError, match=r"node \(1, 1\) is already in the tree"):
            tree.add_node(make_node(1, 1, rng))
        assert tree.node(1, 1) is first

    def test_labels_must_match_point_count(self):
        rng = np.random.default_rng(33)
        tree = SqTree(max_depth=1, points=np.zeros((10, 3)))
        with pytest.raises(ValueError):
            tree.add_node(make_node(1, 1, rng, labels=np.zeros(7, dtype=np.uint8)))

    def test_missing_node_lookup(self):
        tree = SqTree(max_depth=2)
        with pytest.raises(KeyError):
            tree.node(1, 1)

    def test_leaf_counts_per_level(self):
        rng = np.random.default_rng(34)
        tree = SqTree(max_depth=3)
        for d in (1, 2, 3):
            for i in range(1, 2 ** (d - 1) + 1):
                tree.add_node(make_node(d, i, rng))
        assert len(tree.superquadrics_at_level(1)) == 2
        assert len(tree.superquadrics_at_level(2)) == 4
        assert len(tree.superquadrics_at_level(3)) == 8
        assert len(tree.nodes) == 7

    def test_leaves_ordered_index_then_side(self):
        rng = np.random.default_rng(35)
        tree = SqTree(max_depth=2)
        n1 = make_node(1, 1, rng)
        n21 = make_node(2, 1, rng)
        n22 = make_node(2, 2, rng)
        for n in (n1, n21, n22):
            tree.add_node(n)
        assert tree.superquadrics_at_level(2) == [n21.sq_a, n21.sq_b, n22.sq_a, n22.sq_b]

    def test_unfitted_level_rejected(self):
        rng = np.random.default_rng(36)
        tree = SqTree(max_depth=3)
        tree.add_node(make_node(1, 1, rng))
        with pytest.raises(ValueError):
            tree.superquadrics_at_level(2)


class TestSplitNode:
    def test_children_partition_the_inside_points(self):
        rng = np.random.default_rng(39)
        points = rng.uniform(-1, 1, (500, 3))
        labels = (rng.random(500) < 0.6).astype(np.uint8)
        node = make_node(2, 2, rng)
        to_a = split_pair(node.sq_a, node.sq_b, points)
        (key_a, la), (key_b, lb) = split_node(node, points, labels)
        assert (key_a, key_b) == ((3, 4), (3, 3))
        np.testing.assert_array_equal(la, labels & to_a)
        np.testing.assert_array_equal(lb, labels & ~to_a)
        np.testing.assert_array_equal(la | lb, labels)


class TestRecomputeLabels:
    def test_hand_built_tree_audit_passes(self):
        """Stored child labels derived via the split rule are reproduced."""
        rng = np.random.default_rng(37)
        points = rng.uniform(-1, 1, (500, 3))
        root_labels = (rng.random(500) < 0.6).astype(np.uint8)
        a, b = random_pair(rng)
        to_a = split_pair(a, b, points)
        la, lb = root_labels & to_a, root_labels & ~to_a
        tree = SqTree(max_depth=2, points=points)
        tree.add_node(SqPairNode(1, 1, a, b, labels=root_labels))
        ca, cb = random_pair(rng)
        tree.add_node(SqPairNode(*child_node(1, 1, Side.A), ca, cb, labels=la))
        da, db = random_pair(rng)
        tree.add_node(SqPairNode(*child_node(1, 1, Side.B), da, db, labels=lb))
        derived = recompute_labels(tree)
        for key, node in tree.nodes.items():
            np.testing.assert_array_equal(derived[key], node.labels)

    def test_requires_points(self):
        rng = np.random.default_rng(38)
        tree = SqTree(max_depth=1)
        tree.add_node(make_node(1, 1, rng))
        with pytest.raises(ValueError):
            recompute_labels(tree)
