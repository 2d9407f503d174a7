"""One contract for point and label inputs, at every public entry.

Points are one point (3,) or a batch (n, 3) of finite coordinates, checked
by ``geometry.as_points``; labels are an (n,) vector of values that equal 0
or 1, checked by ``geometry.as_labels`` before any cast. Every entry that
takes points or labels refuses a malformed one with the same ValueError.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdecomp import (
    FitConfig,
    LabeledPointSet,
    SqPairNode,
    SqTree,
    Superquadric,
    box,
    child_labels,
    fit_node,
    inside_outside_stable,
    node_loss,
    point_in_mesh,
    predicted_label,
    split_pair,
)
from sqdecomp.geometry import as_labels, as_points

POINTS = np.array([
    [0.0, 0.0, 0.0],
    [0.3, 0.1, -0.2],
    [-0.2, 0.1, 0.1],
    [0.45, -0.3, 0.2],
    [0.05, 0.0, -0.05],
    [-0.4, 0.4, 0.4],
])
LABELS = [1, 0, 1, 0, 1, 0]
SQ_A = Superquadric(np.full(3, 0.3), np.ones(2), np.array([-0.1, 0.0, 0.0]))
SQ_B = Superquadric(np.full(3, 0.2), np.array([0.5, 1.5]), np.array([0.2, 0.0, 0.0]))

POINT_ENTRIES = {
    "LabeledPointSet": lambda p: LabeledPointSet(p, LABELS),
    "fit_node": lambda p: fit_node(p, LABELS, FitConfig(iterations=2, restarts=1)),
    "node_loss": lambda p: node_loss(SQ_A, SQ_B, p, LABELS),
    "point_in_mesh": lambda p: point_in_mesh(box(), p),
    "predicted_label": lambda p: predicted_label([SQ_A, SQ_B], p),
    "split_pair": lambda p: split_pair(SQ_A, SQ_B, p),
    "inside_outside_stable": lambda p: inside_outside_stable(SQ_A, p),
    "SqTree": lambda p: SqTree(max_depth=1, points=p),
}
LABEL_ENTRIES = {
    "LabeledPointSet": lambda y: LabeledPointSet(POINTS, y),
    "fit_node": lambda y: fit_node(POINTS, y, FitConfig(iterations=2, restarts=1)),
    "node_loss": lambda y: node_loss(SQ_A, SQ_B, POINTS, y),
    "SqPairNode": lambda y: SqPairNode(1, 1, SQ_A, SQ_B, labels=y),
    "child_labels": lambda y: child_labels(y, split_pair(SQ_A, SQ_B, POINTS), "a"),
}


def _with_coordinate(value):
    pts = POINTS.copy()
    pts[2, 1] = value
    return pts


SHAPE = "points must have shape (n, 3) or (3,), got "
BAD_POINTS = {
    "nan point": (_with_coordinate(np.nan), "points must be finite"),
    "inf point": (_with_coordinate(-np.inf), "points must be finite"),
    "(n, 2)": (POINTS[:, :2], SHAPE + "(6, 2)"),
    "(k, 3, 3)": (POINTS.reshape(2, 3, 3), SHAPE + "(2, 3, 3)"),
    "(4,)": (np.zeros(4), SHAPE + "(4,)"),
}
# Each value replaces the third label; integers stay an integer vector, so
# 256 and -255 would wrap to 0 and 1 in a cast to uint8.
BAD_LABELS = [0.5, 1.7, np.nan, 2, 256, -255]


@pytest.mark.parametrize("case", BAD_POINTS)
@pytest.mark.parametrize("entry", POINT_ENTRIES)
def test_malformed_points_refused_alike(entry, case):
    points, message = BAD_POINTS[case]
    with pytest.raises(ValueError) as info:
        POINT_ENTRIES[entry](points)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", BAD_LABELS)
@pytest.mark.parametrize("entry", LABEL_ENTRIES)
def test_labels_other_than_zero_or_one_refused_alike(entry, bad):
    labels = np.array(LABELS[:2] + [bad] + LABELS[3:])
    with pytest.raises(ValueError) as info:
        LABEL_ENTRIES[entry](labels)
    assert str(info.value) == "labels must be 0 or 1"


@pytest.mark.parametrize("entry", POINT_ENTRIES)
def test_well_formed_points_accepted(entry):
    POINT_ENTRIES[entry](POINTS)


@pytest.mark.parametrize("entry", LABEL_ENTRIES)
def test_well_formed_labels_accepted(entry):
    for labels in (LABELS, np.array(LABELS, dtype=np.float64), np.array(LABELS, dtype=bool)):
        LABEL_ENTRIES[entry](labels)


def test_one_point_is_a_batch_of_one():
    pts, single = as_points([0.1, 0.2, 0.3])
    assert single and pts.shape == (1, 3)
    pts, single = as_points(POINTS)
    assert not single and pts is POINTS


def test_labels_come_back_as_a_new_uint8_vector():
    y = np.array(LABELS, dtype=np.uint8)
    out = as_labels(y, len(y))
    assert out.dtype == np.uint8 and out is not y
    np.testing.assert_array_equal(out, y)
    with pytest.raises(ValueError, match=r"labels must have shape \(5,\), got \(6,\)"):
        as_labels(y, 5)
    with pytest.raises(ValueError, match=r"labels must have shape \(n,\), got \(2, 3\)"):
        as_labels(y.reshape(2, 3))


_FLOAT_LABELS = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats()), min_size=1, max_size=12
).map(lambda v: np.array(v, dtype=np.float64))
_INT_LABELS = st.lists(
    st.one_of(st.sampled_from([0, 1]), st.integers(-300, 300)), min_size=1, max_size=12
).map(lambda v: np.array(v, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_FLOAT_LABELS, _INT_LABELS))
def test_point_set_accepts_labels_exactly_when_all_are_zero_or_one(labels):
    valid = all(v == 0 or v == 1 for v in labels.tolist())
    try:
        ps = LabeledPointSet(np.zeros((len(labels), 3)), labels)
    except ValueError as exc:
        assert not valid
        assert str(exc) == "labels must be 0 or 1"
    else:
        assert valid
        np.testing.assert_array_equal(ps.labels, labels)
