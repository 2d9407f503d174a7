"""Direct optimization of superquadric pairs against occupancy labels.

Every tree node solves the same problem: given sample points and binary
inside labels, fit two superquadrics so that the pointwise maximum of their
soft occupancies matches the labels under binary cross-entropy. The loss for
one node is

    L = mean_x BCE(max(g_a(x), g_b(x)), label(x))

Since the sigmoid is monotone, max(g_a, g_b) = sigmoid(s (1 - min(h_a, h_b)))
with h = F^e1, so each iteration takes one field value pass per SQ and one
sigmoid (``superquadric._expit``).
Gradient rows are computed only at the active set: for each point, its
winning side (the smaller h, ties to a), and only where the BCE residual
g - y is at least ``ACTIVE_RESIDUAL`` in size.

The loss is optimized by gradient descent with momentum 0.9, a cosine
step-size decay, and projection of sizes/exponents onto their bounds after
every step. Rotations move on the unit-quaternion sphere via the exp-map
retraction (see superquadric module docstring), so no step can leave the
manifold.

Multi-restart: the first start is a deterministic PCA/moment init with the
pair offset along the long axis, the next three start the pair coincident
(effectively a single-SQ fit) while cycling the principal-axis roles, and
further starts add seeded noise. The R restarts race in one loop with
one cut at mid-schedule, as in successive halving: all of them run to
iteration ``iterations // 2``, where the better half, ceil(R/2) of them by
running-best loss (ties to the lower restart index), is kept and the rest
are dropped; the survivors run on to the end.
A restart that survives does exactly the arithmetic of an uncut one, so
wherever the overall winner survives the result is bit for bit that of
running every restart to the end; at four restarts the cut saves a quarter
of the iterations. The best iterate ever seen by the surviving restarts is
returned, so its objective on the node's support (below), as the race
computes it, never exceeds any restart's initial one.

Each node is fitted on its support: the points inside the axis-aligned box
of its inside-labeled points, each half-extent scaled by
``_SUPPORT_SCALE`` and widened by ``_SUPPORT_MARGIN``. Outside that box
every label is 0, and the pair starts from the inside points, so those
points are left out of every iteration: at the dumbbell's root the support
holds about 40% of the samples, at its children about 20%. A pair that
grows out of the box would meet no negatives there, so at the race's cut
the surviving pairs are checked against the points left out, one
gradient-free value pass per SQ (``superquadric._union_below``): if any
pair reaches one of them, with min(h_a, h_b) < 1 + ``_ESCAPE_MARGIN`` / s
(an occupancy above 1/11), the node is fitted again
on every point from the same starts. The restarts' starts depend only on
the inside points, which the support always holds. The objective
still divides by the node's full point count, so it is the full-set loss
less the terms of the points left out, and the step size, gradient scale
and momentum schedule mean what they mean uncropped. The loss a fit
reports is the full-set loss of the returned pair, from one gradient-free
pass over every point; where the support is every point, the fit is
bitwise the uncropped one.

The running restarts of a node advance in lock step, held as rows of
plain arrays: per restart its id, its pair as two parameter rows (2, 12) in
the layout of ``Superquadric.params``, its velocity (22,), its running best
loss and the pair that reached it; the cut drops the rows of the restarts
it stops. Each iteration makes one value pass over the slots of all
running SQs in the node's one field workspace, computes every restart's
loss at once over (restarts, points) arrays, and differentiates the active
rows of all the SQs in one feature call (``superquadric._field_gradient``).
Each SQ's rows are contiguous there, in slot order: their residual-weighted
feature sum, 13 numbers, goes through the SQ's 11 x 13 map
(``superquadric._gradient_map``) once. Then one momentum step moves every
row: the velocity and parameter updates and one clip of the sizes and
exponents as array operations, and one retraction of all the rotations. The
new rows pass the checks of a Superquadric (``check_parameters``) every
iteration; a step that fails
them names the node, the restart, the iteration and the step size.
Superquadric objects are built only for the returned pair. Every value a
restart gets is bitwise the one it gets run alone.

The race computes in float32 (``_RACE_DTYPE``): its workspace holds the
points, the kept field values, the parameter columns and the scratch in
float32, and so are the occupancy, credited-occupancy, residual and label
arrays of its batch. Whatever is kept, compared against a bound or
reported stays float64: the parameter rows, velocities and momentum step,
each restart's loss (its float32 terms summed in float64), the gradient
features, which the kernel writes out as float64, with their weighted
sums, and the maps. The loss a fit reports (``node_loss``), the escape
check and the split are float64 passes. A fit is deterministic, but no longer
bit for bit a float64 race's.

Nodes without a single inside-labeled point get a degenerate sentinel pair
(two minimum-size SQs at the point centroid) and are not optimized; their
children inherit empty label sets and therefore the same treatment.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import quaternions as quat
from .geometry import LabeledPointSet
from .metrics import level_ious
from .sqtree import SqPairNode, SqTree, split_node
from .superquadric import (
    _N_FEATURES,
    EXPONENT_BOUNDS,
    SIZE_BOUNDS,
    FieldWorkspace,
    OccupancyConfig,
    Superquadric,
    _expit,
    _field_gradient,
    _gradient_map,
    _union_below,
    _value_pass,
    check_parameters,
    is_finite_number,
)

MOMENTUM = 0.9
LOG_CLAMP = 1e-12
# A point enters the gradient when its BCE residual |g - y| is at least this.
ACTIVE_RESIDUAL = 1e-9

# The restarts race to iterations // _CUT_DIVISOR, then half of them stop.
_CUT_DIVISOR = 2
# The field and loss arithmetic of the race; parameters, losses, gradient
# features and maps stay float64.
_RACE_DTYPE = np.float32

# A node's support is the box of its inside points, each half-extent times
# _SUPPORT_SCALE plus _SUPPORT_MARGIN.
_SUPPORT_SCALE = 1.5
_SUPPORT_MARGIN = 0.02
# A pair reaches a point outside the support where min(h_a, h_b) < 1 +
# _ESCAPE_MARGIN / s: there its occupancy is above 1/11, a residual of
# about 0.1 against the point's label 0.
_ESCAPE_MARGIN = float(np.log(10.0))

_JITTER_TRANSLATION = 0.05
_JITTER_ROTATION = 0.3
_INIT_SIZE_FACTOR = 2.0
_INIT_OFFSET_FACTOR = 0.25

# Each step clips a row's sizes and exponents, columns 0:5, to this box.
_BOX_LO = np.array([SIZE_BOUNDS[0]] * 3 + [EXPONENT_BOUNDS[0]] * 2)
_BOX_HI = np.array([SIZE_BOUNDS[1]] * 3 + [EXPONENT_BOUNDS[1]] * 2)


class ConfigError(ValueError):
    """A fit configuration value is invalid."""


@dataclass(frozen=True)
class FitConfig:
    """Everything a fit depends on besides the data itself. An invalid
    value raises ConfigError when the config is built."""

    max_depth: int = 2
    iterations: int = 2000
    step_size: float = 0.01
    restarts: int = 4
    sharpness: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_finite_number(value, int if f.type == "int" else (int, float)):
                raise ConfigError(f"{f.name} must be a finite {f.type}, got {value!r}")
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.step_size <= 0:
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        if self.sharpness <= 0:
            raise ConfigError(f"sharpness must be positive, got {self.sharpness}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def field_casters(cls) -> dict:
        """Field name -> int or float, the parser of its flag values, in field
        order."""
        return {f.name: {"int": int, "float": float}[f.type] for f in fields(cls)}


@dataclass(eq=False)
class NodeFit:
    """Result of fitting one node's pair."""

    sq_a: Superquadric
    sq_b: Superquadric
    loss: float
    degenerate: bool = False
    # Iterations actually run, summed over the node's restarts.
    iterations: int = 0


@dataclass(eq=False)
class FitReport:
    """Bookkeeping for one full tree fit."""

    config: FitConfig
    node_losses: dict[tuple[int, int], float] = field(default_factory=dict)
    level_iou: list = field(default_factory=list)
    degenerate_nodes: list = field(default_factory=list)
    loss_sum: float = 0.0
    wall_time: float = 0.0
    # Iterations run over every restart of every node.
    iterations: int = 0

    def to_json_dict(self) -> dict:
        """Config echo, per-level IoU, per-node losses and their sum.

        Wall-clock time and the iteration count stay out, so identical fits
        give identical dicts and tree.json does not change with the race.
        """
        return {
            "config": asdict(self.config),
            "level_iou": [None if v is None else float(v) for v in self.level_iou],
            "node_losses": [
                [d, i, float(loss)] for (d, i), loss in sorted(self.node_losses.items())
            ],
            "loss_sum": float(self.loss_sum),
        }


def node_loss(
    sq_a: Superquadric,
    sq_b: Superquadric,
    points,
    labels,
    cfg: OccupancyConfig = OccupancyConfig(),
) -> float:
    """Mean clamped BCE between the pair's occupancy and the labels.

    The occupancy is ``sigmoid(s (1 - min(h_a, h_b)))``, which is
    max(g_a, g_b); the value is the loss of :meth:`_PairBatch.evaluate`.
    """
    ps = LabeledPointSet(points, labels)
    batch = _PairBatch(ps.points, ps.labels, cfg.sharpness, 1, grad=False)
    losses, _ = batch.evaluate(_pair_rows([(sq_a, sq_b)]), grad=False)
    return float(losses[0])


def _pair_rows(pairs):
    """The parameter rows (L, 2, 12) of L superquadric pairs, one
    ``Superquadric.params`` row per SQ."""
    return np.array([[sq.params() for sq in pair] for pair in pairs])


class _PairBatch:
    """The pair loss and its active-set gradient for up to ``pairs`` pairs
    of superquadrics at one node's points, evaluated in lock step.

    Pair j's two SQs take field slots 2j (a) and 2j + 1 (b) of one
    :class:`FieldWorkspace`; the loss arrays are (pairs, n) buffers of
    which a call uses the first L rows. Every array an iteration needs
    lives here, so a node's iterations allocate nothing that the allocator
    maps and unmaps. The loss and gradient are sums over the n points
    divided by ``denominator``, n by default: a node fitted on its support
    passes its full point count. ``dtype`` is that of the workspace and of
    the per-point loss arrays, float64 for ``node_loss`` and
    ``_RACE_DTYPE`` in the race; the losses are summed, and the gradient
    features, their sums and the maps computed, in float64 either way.
    """

    def __init__(
        self, points, y, sharpness: float, pairs: int, grad: bool = True,
        denominator: int | None = None, dtype=np.float64,
    ):
        n = len(points)
        self.field = FieldWorkspace(points, 2 * pairs, grad, dtype)
        self.y, self.sharpness = np.asarray(y, dtype), sharpness
        self.denominator = n if denominator is None else denominator
        self.outside = 1.0 - self.y
        self.g, self.credited = np.empty((pairs, n), dtype), np.empty((pairs, n), dtype)
        if grad:
            # Pair j's residuals at [j, 0] and [j, 1]: [j, side, i] is the
            # residual of slot 2j + side at point i.
            self.residual = np.empty((pairs, 2, n), dtype)
            self.a_wins, self.flag = (np.empty((pairs, n), dtype=bool) for _ in range(2))
            self.sides = np.empty((pairs, 2, n), dtype=bool)
            # The active rows, on one side of each pair: at most pairs * n.
            self.rows, self.weight = np.empty(pairs * n, dtype=np.intp), np.empty(pairs * n)
            self.features = np.empty(_N_FEATURES * pairs * n)

    def evaluate(self, rows, grad: bool = True):
        """Losses (L,) of L pairs and, with ``grad``, their (2L, 11)
        gradients: row 2j for pair j's sq_a, row 2j + 1 for its sq_b.

        Pair j is given by ``rows[j]`` (2, 12), each SQ's parameter row, as
        from :func:`_pair_rows`. One value pass over all 2L slots gives
        h_a, h_b; a pair's occupancy is one
        ``g = sigmoid(s (1 - min(h_a, h_b)))``, which equals max(g_a, g_b)
        because the sigmoid is monotone. Each point's max differentiates through
        its winning side, the smaller h (ties to a). Points where the BCE
        log clamp is active contribute zero gradient, which keeps the
        analytic gradient equal to the derivative of the clamped loss
        actually being reported. Gradient rows are computed only for the
        active set: each point's winning side, where the residual g - y is
        at least ``ACTIVE_RESIDUAL`` in size (pooled over a run on the
        support, 97.5% of the pairs' points on the benchmark's fit-dumbbell
        and 40% on its recover-sq). The rows left out are saturated points,
        each of which would change the gradient by less than
        ``s * ACTIVE_RESIDUAL / denominator`` times its field derivative.

        The active rows of all 2L SQs, found once as flat indices k n + i
        in slot order, go through one :func:`_field_gradient` call into
        one (13, m) block of features. Each SQ's rows are contiguous there
        and end where a search of the sorted indices for (k + 1) n says;
        they are summed by one matrix-vector product with their weights,
        and all 2L sums go through their maps from :func:`_gradient_map`
        in one stacked product. Every value a pair gets is bitwise the one
        it gets evaluated alone.
        """
        ws, pairs = self.field, len(rows)
        _value_pass(ws, rows.reshape(2 * pairs, 12))
        ha, hb = ws.h[0:2 * pairs:2], ws.h[1:2 * pairs:2]
        g, credited = self.g[:pairs], self.credited[:pairs]
        # g = sigmoid(s (1 - min(h_a, h_b)))
        np.minimum(ha, hb, out=g)
        np.subtract(1.0, g, out=g)
        np.multiply(self.sharpness, g, out=g)
        _expit(g, g)
        # The occupancy the BCE credits, |g - outside|: exactly g for inside
        # labels and 1 - g for outside ones.
        np.subtract(g, self.outside, out=credited)
        np.abs(credited, out=credited)
        if grad:
            flag = self.flag[:pairs]
            # residual = where(credited < LOG_CLAMP, 0, g - y) in g's place
            # (g is not needed any more), then on both sides at once: a copy
            # from one side to the other would pass through a temporary.
            np.less(credited, LOG_CLAMP, out=flag)
            np.subtract(g, self.y, out=g)
            np.copyto(g, 0.0, where=flag)
            np.copyto(self.residual[:pairs], g[:, None, :])
        # loss = -sum(log(max(credited, LOG_CLAMP))) / denominator, which at
        # denominator n is bitwise the mean; 0 - sum, like a sum of negated
        # terms, is never -0.
        np.maximum(credited, LOG_CLAMP, out=credited)
        np.log(credited, out=credited)
        losses = np.subtract(0.0, credited.sum(axis=1, dtype=np.float64)) / self.denominator
        if not grad:
            return losses, None

        # The active set, split by winning side: sides[j, 0] for a, [j, 1] for b.
        a_wins, sides = self.a_wins[:pairs], self.sides[:pairs]
        np.abs(g, out=g)
        np.greater_equal(g, ACTIVE_RESIDUAL, out=flag)
        np.less_equal(ha, hb, out=a_wins)
        np.logical_and(flag, a_wins, out=sides[:, 0])
        np.logical_not(a_wins, out=a_wins)
        np.logical_and(flag, a_wins, out=sides[:, 1])
        # The active rows as flat indices k n + i (slot k, point i), in slot
        # order, each with its residual / denominator in float64. They are
        # found np.getbufsize() flags at a time, so the index array that
        # np.flatnonzero allocates is no larger than numpy's own ufunc
        # buffers at any point count.
        flat = sides.reshape(-1)
        step, m = np.getbufsize(), 0
        for lo in range(0, flat.size, step):
            part = np.flatnonzero(flat[lo:lo + step])
            np.add(part, lo, out=self.rows[m:m + len(part)])
            m += len(part)
        idx, weight = self.rows[:m], self.weight[:m]
        # Slot k's rows end before the first index at or past (k + 1) n.
        ends = np.searchsorted(idx, ws.n * np.arange(1, 2 * pairs + 1))
        # np.take will not cast into the float64 weights, so the residuals
        # pass through g's buffer, in the batch's dtype.
        picked = g.reshape(-1)[:m]
        np.take(self.residual[:pairs].reshape(-1), idx, out=picked, mode="clip")
        np.divide(picked, self.denominator, out=weight, dtype=np.float64)
        features = self.features[:_N_FEATURES * m].reshape(_N_FEATURES, m)
        _field_gradient(ws, idx, features)
        # dz/dparams = -sharpness * dh/dparams on the winning side only:
        # each slot's weighted feature sum, all through their maps at once.
        sums, lo = np.empty((2 * pairs, _N_FEATURES, 1)), 0
        for k, hi in enumerate(ends):
            np.matmul(features[:, lo:hi], weight[lo:hi], out=sums[k, :, 0])
            lo = hi
        grads = np.matmul(_gradient_map(rows.reshape(2 * pairs, 12)), sums)[:, :, 0]
        grads *= -self.sharpness
        return losses, grads


def _principal_frame(inside: np.ndarray):
    """Centroid, principal directions (columns, right-handed), stds, extent."""
    mu = inside.mean(axis=0)
    centered = inside - mu
    cov = centered.T @ centered / len(inside)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    dirs = evecs[:, order]
    if np.linalg.det(dirs) < 0:
        dirs[:, 2] = -dirs[:, 2]
    stds = np.sqrt(evals)
    proj = centered @ dirs[:, 0]
    extent = float(proj.max() - proj.min()) if len(inside) > 1 else 0.0
    return mu, dirs, stds, extent


def init_node(
    points: np.ndarray,
    labels: np.ndarray,
    cfg: FitConfig,
    restart: int = 0,
    rng: np.random.Generator | None = None,
) -> tuple[Superquadric, Superquadric]:
    """Moment-based initial pair for one restart.

    Restart 0 is the canonical init: two ellipsoids at the inside-point
    centroid offset by +-0.25 of the first principal extent, sized from the
    per-axis standard deviations, oriented along the principal frame. A
    symmetric point set therefore yields a pair symmetric about its centroid.

    Later restarts explore the two failure modes of restart 0:

    * restarts 1-3 start the pair *coincident* at the centroid while cycling
      which principal axis plays the local z role. A coincident pair never
      separates (ties always feed side a), so these restarts amount to a
      single-SQ fit with three axis-role hypotheses, which wins on shapes one
      SQ can represent.
    * restarts >= 4 are offset pairs again, with axis-role cycling plus
      seeded translation/rotation jitter from ``rng``.

    The loss comparison across restarts then selects the right regime for the
    shape at hand. ``points`` and ``labels`` pass the checks of
    :class:`LabeledPointSet`. ``cfg`` is not read.
    """
    ps = LabeledPointSet(points, labels)
    inside = ps.points[ps.labels == 1]
    if len(inside) == 0:
        raise ValueError("init_node needs at least one inside-labeled point")
    mu, dirs, stds, extent = _principal_frame(inside)

    coincident = 1 <= restart <= 3
    role = (restart - 1) % 3 if coincident else restart % 3
    # Columns of the rotation matrix are the world directions of the local
    # x, y, z axes; cyclic permutation keeps the frame right-handed.
    perm = np.roll(np.arange(3), -role)  # role 0: (0,1,2), 1: (1,2,0), 2: (2,0,1)
    rot = dirs[:, perm]
    sizes = np.clip(_INIT_SIZE_FACTOR * stds[perm], *SIZE_BOUNDS)
    q = quat.from_matrix(rot)

    offset = np.zeros(3) if coincident else _INIT_OFFSET_FACTOR * extent * dirs[:, 0]
    exps = np.ones(2)
    pair = []
    for sign in (+1.0, -1.0):
        t = mu + sign * offset
        qq = q
        if restart >= 4:
            if rng is None:
                raise ValueError("jittered restarts need an rng")
            t = t + rng.normal(0.0, _JITTER_TRANSLATION, 3)
            qq = quat.normalize(
                quat.multiply(quat.from_rotation_vector(rng.normal(0.0, _JITTER_ROTATION, 3)), q)
            )
        pair.append(Superquadric(sizes, exps, t, qq))
    return pair[0], pair[1]


def _step(cfg: FitConfig, node: tuple[int, int], t: int, ids, rows, vel, grads):
    """One momentum step of iteration ``t`` for the race's rows: restarts
    ``ids``, their pairs ``rows`` (L, 2, 12), velocities ``vel`` (L, 22)
    and (2L, 11) ``grads``. Returns the new velocities and rows, which pass
    the checks of :class:`Superquadric`."""
    lr = cfg.step_size * 0.5 * (1.0 + np.cos(np.pi * t / cfg.iterations))
    # A diverging step overflows; the checks refuse every non-finite
    # value it leaves, so numpy need not warn as well.
    with np.errstate(over="ignore", invalid="ignore"):
        vel = MOMENTUM * vel - lr * grads.reshape(len(ids), 22)
        move = vel.reshape(len(ids), 2, 11)
        new = rows.copy()
        new[..., 0:8] += move[..., 0:8]
        np.clip(new[..., 0:5], _BOX_LO, _BOX_HI, out=new[..., 0:5])
        turned = quat.multiply(quat.from_rotation_vector(move[..., 8:11]), rows[..., 8:12])
        try:
            new[..., 8:12] = quat.normalize(turned)
            check_parameters(new)
        except ValueError as exc:
            raise _divergence(cfg, node, t, ids, new, turned) from exc
    return vel, new


def _divergence(cfg: FitConfig, node: tuple[int, int], t: int, ids, rows, turned) -> ValueError:
    """The error of the first row whose new pair fails a check, checked as
    that restart alone would be: both rotations normalized, then each SQ's
    row. Runs under :func:`_step`'s errstate."""
    for r, pair, q_pair in zip(ids, rows, turned):
        try:
            for row, q in zip(pair, quat.normalize(q_pair)):
                check_parameters(np.concatenate([row[0:8], q]))
        except ValueError as exc:
            return ValueError(
                f"node {node}, restart {r} diverged at iteration {t} with "
                f"step_size {cfg.step_size}: {exc}"
            )
    return ValueError(f"node {node} diverged at iteration {t}")


def _support(points: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Mask of the points in the axis-aligned box of the ``inside`` points,
    its half-extents scaled by ``_SUPPORT_SCALE`` and widened by
    ``_SUPPORT_MARGIN``; it holds every inside point."""
    lo, hi = points[inside].min(axis=0), points[inside].max(axis=0)
    half = _SUPPORT_SCALE * 0.5 * (hi - lo) + _SUPPORT_MARGIN
    return (np.abs(points - 0.5 * (lo + hi)) <= half).all(axis=1)


def _race(pts, y, cfg: FitConfig, node: tuple[int, int], denominator: int, outside=None):
    """Every restart of one node on the points ``pts``, labels ``y``, in
    one lock-step loop with one cut at ``c = iterations // _CUT_DIVISOR``,
    the objective divided by ``denominator``.

    The running restarts are rows of plain arrays, in restart order. Each
    iteration evaluates every row in one :meth:`_PairBatch.evaluate`, keeps
    each row's pair where its loss beats the row's running best, and moves
    every row by one momentum step. At c the ceil(R/2) rows with the lowest
    running best stay (ties to the lower restart id) and the others are
    dropped; if one of the survivors' current pairs then reaches a point
    of ``outside``, h < 1 + _ESCAPE_MARGIN / s by :func:`_union_below`,
    the race stops there. With c == 0 there is no cut and no check. A last
    gradient-free pass scores the final iterates. Returns the survivors'
    restart ids, running-best losses and the pairs (S, 2, 12) that reached
    them, or None where the escape rule fired, and the iterations run,
    summed over the rows.
    """
    starts = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(node[0], node[1], r))
        )
        starts.append(init_node(pts, y, cfg, restart=r, rng=rng))
    batch = _PairBatch(
        pts, y, cfg.sharpness, cfg.restarts, denominator=denominator, dtype=_RACE_DTYPE
    )
    rows = _pair_rows(starts)
    ids, vel = np.arange(cfg.restarts), np.zeros((cfg.restarts, 22))
    best_loss, best_rows = np.full(cfg.restarts, np.inf), rows.copy()
    cut, spent = cfg.iterations // _CUT_DIVISOR, 0
    for t in range(cfg.iterations + 1):
        if t == cut > 0:
            # The rows are in restart order, so the stable sort breaks ties
            # to the lower restart id.
            kept = np.sort(np.argsort(best_loss, kind="stable")[: (len(ids) + 1) // 2])
            ids, rows, vel, best_loss, best_rows = (
                a[kept] for a in (ids, rows, vel, best_loss, best_rows)
            )
            level = 1.0 + _ESCAPE_MARGIN / cfg.sharpness
            if outside is not None and _union_below(rows, outside, level).any():
                return None, spent
        # The pass after the last step only scores the final iterates.
        last = t == cfg.iterations
        losses, grads = batch.evaluate(rows, grad=not last)
        better = losses < best_loss
        best_loss[better], best_rows[better] = losses[better], rows[better]
        if last:
            return (ids, best_loss, best_rows), spent
        vel, rows = _step(cfg, node, t, ids, rows, vel, grads)
        spent += len(ids)


def fit_node(
    points,
    labels,
    cfg: FitConfig,
    node: tuple[int, int] = (1, 1),
) -> NodeFit:
    """Fit one node's pair with raced restarts; deterministic for a fixed config.

    Restart r of node (d, i) draws its jitter from
    SeedSequence(cfg.seed, spawn_key=(d, i, r)), so a node's fit does not
    depend on which nodes were fitted before it. The race runs on the
    node's support with the objective divided by the full point count; if
    a survivor reaches past the support at the cut, it runs again on every
    point from the same starts, which is bitwise the uncropped fit. The
    restarts that finish the schedule are compared in restart order, a
    later one winning only with a strictly lower objective; the returned
    ``loss`` is the pair's loss over every point,
    ``node_loss(fit.sq_a, fit.sq_b, points, labels)``. ``iterations``
    counts the iterations actually run over all restarts, those of a
    cropped race discarded for a refit included. A node with no
    inside-labeled points returns the degenerate sentinel without
    optimizing.
    """
    ps = LabeledPointSet(points, labels)
    pts, y = ps.points, ps.labels
    occ = OccupancyConfig(cfg.sharpness)

    if int(y.sum()) == 0:
        centroid = pts.mean(axis=0)
        sentinel = Superquadric(np.full(3, SIZE_BOUNDS[0]), np.ones(2), centroid)
        return NodeFit(
            sq_a=sentinel,
            sq_b=sentinel,
            loss=node_loss(sentinel, sentinel, pts, y, occ),
            degenerate=True,
            iterations=0,
        )

    # The race's batch is freed when it returns, before a refit or the
    # full-set pass below allocates its own.
    keep = _support(pts, y == 1)
    outside = None if keep.all() else pts[~keep]
    survivors, iterations = _race(pts[keep], y[keep], cfg, node, len(pts), outside)
    if survivors is None:
        survivors, refit = _race(pts, y, cfg, node, len(pts))
        iterations += refit
    _, best_loss, best_rows = survivors
    # argmin keeps the first of equal losses: a later restart wins only
    # when strictly lower.
    sq_a, sq_b = (Superquadric.from_params(row) for row in best_rows[np.argmin(best_loss)])
    return NodeFit(
        sq_a=sq_a,
        sq_b=sq_b,
        loss=node_loss(sq_a, sq_b, pts, y, occ),
        degenerate=False,
        iterations=iterations,
    )


def fit_tree(pointset: LabeledPointSet, cfg: FitConfig) -> tuple[SqTree, FitReport]:
    """Fit the whole pair tree, breadth-first, down to cfg.max_depth.

    Level d+1's training labels come from splitting each level-d node's
    points between its two SQs (:func:`split_node`). A level's nodes are
    fitted in index order, each added to the tree as soon as it is fitted.
    """
    t0 = time.perf_counter()
    points = pointset.points
    report = FitReport(config=cfg)
    tree = SqTree(max_depth=cfg.max_depth, points=points)

    tasks = [((1, 1), pointset.labels)]
    for depth in range(1, cfg.max_depth + 1):
        if depth > 1:
            tasks = [
                child
                for parent in tree.level_nodes(depth - 1)
                for child in split_node(parent, points, parent.labels)
            ]
        for key, labels in tasks:
            fit = fit_node(points, labels, cfg, node=key)
            tree.add_node(SqPairNode(*key, fit.sq_a, fit.sq_b, labels, fit.degenerate))
            report.node_losses[key] = fit.loss
            report.iterations += fit.iterations
            if fit.degenerate:
                report.degenerate_nodes.append(key)

    report.level_iou = level_ious(tree, pointset)
    report.loss_sum = float(sum(report.node_losses.values()) * len(points))
    report.wall_time = time.perf_counter() - t0
    return tree, report
