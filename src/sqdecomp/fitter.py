"""Direct optimization of superquadric pairs against occupancy labels.

Every tree node solves the same problem: given sample points and binary
inside labels, fit two superquadrics so that the pointwise maximum of their
soft occupancies matches the labels under binary cross-entropy. The loss for
one node is

    L = mean_x BCE(max(g_a(x), g_b(x)), label(x))

Since expit is monotone, max(g_a, g_b) = expit(s (1 - min(h_a, h_b))) with
h = F^e1, so each iteration takes one field value pass per SQ and one expit.
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
further starts add seeded noise. The R restarts race with one cut at
mid-schedule, as in successive halving: all of them run to iteration
``iterations // 2``, and only the better half, ceil(R/2) of them by
running-best loss (ties to the lower restart index), runs on to the end.
A restart that survives does exactly the arithmetic of an uncut one, so
wherever the overall winner survives the result is bit for bit that of
running every restart to the end; at four restarts the cut saves a quarter
of the iterations. The best iterate ever seen by the surviving restarts is
returned, so its objective on the node's support (below) never exceeds
any restart's initial one.

Each node is fitted on its support: the points inside the axis-aligned box
of its inside-labeled points, each half-extent scaled by
``_SUPPORT_SCALE`` and widened by ``_SUPPORT_MARGIN``. Outside that box
every label is 0, and the pair starts from the inside points, so those
points are left out of every iteration: at the dumbbell's root the support
holds about 40% of the samples, at its children about 20%. A pair that
grows out of the box would meet no negatives there, so at the race's cut
one gradient-free value pass checks the surviving pairs against the points
left out: if any pair reaches one of them, with min(h_a, h_b) < 1 +
``_ESCAPE_MARGIN`` / s (an occupancy above 1/11), the node is fitted again
on every point from the same starts. The restarts' starts depend only on
the inside points, which the support always holds. The objective
still divides by the node's full point count, so it is the full-set loss
less the terms of the points left out, and the step size, gradient scale
and momentum schedule mean what they mean uncropped. The loss a fit
reports is the full-set loss of the returned pair, from one gradient-free
pass over every point; where the support is every point, the fit is
bitwise the uncropped one.

The live restarts of a node advance in lock step, held as arrays: per
restart its pair's parameters (2, 8) and quaternions (2, 4), its velocity
(22,), its iteration count, its running best loss and the pair that
reached it. Each iteration makes one value pass over the slots of all live
SQs in the node's one field workspace, computes every restart's loss at
once over (restarts, points) arrays, and differentiates the active rows of
all the SQs in gradient calls of at most n rows each, cut between SQs.
Active rows often fill most of a block, so in practice an iteration makes
about one call per live pair (fit-dumbbell: 4 per iteration before the
cut, 2 after). Then one momentum step moves every live
restart: the velocity and parameter updates and both clips as array
operations, and one retraction of all the rotations. The new parameters
pass the checks of a Superquadric (``check_parameters``) every iteration;
a step that fails them names the node, the restart, the iteration and the
step size. Superquadric objects are built only for the returned pair.
Every value a restart gets is bitwise the one it gets run alone.

Nodes without a single inside-labeled point get a degenerate sentinel pair
(two minimum-size SQs at the point centroid) and are not optimized; their
children inherit empty label sets and therefore the same treatment.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import expit

from . import quaternions as quat
from .geometry import LabeledPointSet
from .metrics import level_ious
from .sqtree import SqPairNode, SqTree, split_node
from .superquadric import (
    EXPONENT_BOUNDS,
    SIZE_BOUNDS,
    FieldWorkspace,
    OccupancyConfig,
    Superquadric,
    _field_gradient,
    _value_pass,
    check_parameters,
)

MOMENTUM = 0.9
LOG_CLAMP = 1e-12
# A point enters the gradient when its BCE residual |g - y| is at least this.
ACTIVE_RESIDUAL = 1e-9

# The restarts race to iterations // _CUT_DIVISOR, then half of them stop.
_CUT_DIVISOR = 2

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


class ConfigError(ValueError):
    """A fit configuration value or config-file entry is invalid."""


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
    a_min: float = SIZE_BOUNDS[0]
    a_max: float = SIZE_BOUNDS[1]
    e_min: float = EXPONENT_BOUNDS[0]
    e_max: float = EXPONENT_BOUNDS[1]

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        if not (np.isfinite(self.sharpness) and self.sharpness > 0):
            raise ConfigError(f"sharpness must be positive, got {self.sharpness}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not (0 < self.a_min <= self.a_max):
            raise ConfigError(f"size bounds must satisfy 0 < a_min <= a_max, got "
                              f"{self.a_min}, {self.a_max}")
        if not (0 < self.e_min <= self.e_max):
            raise ConfigError(f"exponent bounds must satisfy 0 < e_min <= e_max, got "
                              f"{self.e_min}, {self.e_max}")

    @classmethod
    def field_casters(cls) -> dict:
        """Field name -> int or float, the parser of its config-file and flag
        values, in field order."""
        return {f.name: {"int": int, "float": float}[f.type] for f in fields(cls)}

    @classmethod
    def from_file(cls, path) -> "FitConfig":
        """Parse a plain key-value config file (`key = value`, # comments).

        Keys are exactly the FitConfig field names, each at most once;
        unknown or repeated keys and unparsable values raise ConfigError.
        """
        casters = cls.field_casters()
        overrides: dict[str, object] = {}
        key_lines: dict[str, int] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in casters:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in key_lines:
                    raise ConfigError(
                        f"{path}:{lineno}: {key!r} repeats line {key_lines[key]}"
                    )
                key_lines[key] = lineno
                try:
                    overrides[key] = casters[key](value)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        return cls(**overrides)


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

    The occupancy is ``expit(s (1 - min(h_a, h_b)))``, which is
    max(g_a, g_b); the value is the loss of :meth:`_PairBatch.evaluate`.
    """
    ps = LabeledPointSet(points, labels)
    batch = _PairBatch(ps.points, ps.labels.astype(np.float64), cfg.sharpness, 1, grad=False)
    losses, _ = batch.evaluate(*_pair_arrays([(sq_a, sq_b)]), grad=False)
    return float(losses[0])


def _pair_arrays(pairs):
    """(L, 2, 8) parameters and (L, 2, 4) rotations of L superquadric pairs,
    the layout of :meth:`_PairBatch.evaluate`: per SQ its size, exponents
    and translation, then its quaternion."""
    p = np.array([[sq.params() for sq in pair] for pair in pairs])
    return p[..., :8], p[..., 8:]


class _PairBatch:
    """The pair loss and its active-set gradient for up to ``pairs`` pairs
    of superquadrics at one node's points, evaluated in lock step.

    Pair j's two SQs take field slots 2j (a) and 2j + 1 (b) of one
    :class:`FieldWorkspace`; the loss arrays are (pairs, n) buffers of
    which a call uses the first L rows. Every array an iteration needs
    lives here, so a node's iterations allocate nothing that the allocator
    maps and unmaps. The loss and gradient are sums over the n points
    divided by ``denominator``, n by default: a node fitted on its support
    passes its full point count.
    """

    def __init__(
        self, points, y, sharpness: float, pairs: int, grad: bool = True,
        denominator: int | None = None,
    ):
        n = len(points)
        self.field = FieldWorkspace(points, 2 * pairs, grad)
        self.y, self.sharpness = y, sharpness
        self.denominator = n if denominator is None else denominator
        self.inside = y == 1.0
        self.g, self.credited = np.empty((pairs, n)), np.empty((pairs, n))
        if grad:
            self.residual = np.empty((pairs, n))
            self.a_wins, self.flag = (np.empty((pairs, n), dtype=bool) for _ in range(2))
            self.sides = np.empty((pairs, 2, n), dtype=bool)
            self.weight = np.empty(n)

    def evaluate(self, params, rotation, grad: bool = True):
        """Losses (L,) of L pairs and, with ``grad``, their (2L, 11)
        gradients: row 2j for pair j's sq_a, row 2j + 1 for its sq_b.

        Pair j is given by ``params[j]`` (2, 8), each SQ's size, exponents
        and translation, and ``rotation[j]`` (2, 4), as from
        :func:`_pair_arrays`. One value pass over all 2L slots gives h_a,
        h_b; a pair's occupancy is one
        ``g = expit(s (1 - min(h_a, h_b)))``, which equals max(g_a, g_b)
        because expit is monotone. Each point's max differentiates through
        its winning side, the smaller h (ties to a). Points where the BCE
        log clamp is active contribute zero gradient, which keeps the
        analytic gradient equal to the derivative of the clamped loss
        actually being reported. Gradient rows are computed only for the
        active set: each point's winning side, where the residual g - y is
        at least ``ACTIVE_RESIDUAL`` in size (about a third of the points
        in a typical fit). The rows left out are saturated points, each of
        which would change the gradient by less than
        ``s * ACTIVE_RESIDUAL / denominator`` times its field derivative.

        The rows of all 2L SQs go through :func:`_field_gradient` together,
        in blocks of at most n rows cut between SQs, and each SQ's rows are
        summed by their own (m, 11) matrix-vector product; every value a
        pair gets is bitwise the one it gets evaluated alone.
        """
        ws, n, live = self.field, self.field.n, len(params)
        _value_pass(ws, params.reshape(2 * live, 8), rotation.reshape(2 * live, 4))
        ha, hb = ws.h[0:2 * live:2], ws.h[1:2 * live:2]
        g, credited = self.g[:live], self.credited[:live]
        # g = expit(s (1 - min(h_a, h_b)))
        np.minimum(ha, hb, out=g)
        np.subtract(1.0, g, out=g)
        np.multiply(self.sharpness, g, out=g)
        expit(g, out=g)
        # The occupancy the BCE credits: g for inside labels, 1 - g for outside.
        np.subtract(1.0, g, out=credited)
        np.copyto(credited, g, where=self.inside)
        if grad:
            residual, flag = self.residual[:live], self.flag[:live]
            # residual = where(credited < LOG_CLAMP, 0, g - y)
            np.less(credited, LOG_CLAMP, out=flag)
            np.subtract(g, self.y, out=residual)
            np.copyto(residual, 0.0, where=flag)
        # loss = sum(-log(max(credited, LOG_CLAMP))) / denominator, which
        # at denominator n is bitwise the mean
        np.maximum(credited, LOG_CLAMP, out=credited)
        np.log(credited, out=credited)
        np.negative(credited, out=credited)
        losses = credited.sum(axis=1) / self.denominator
        if not grad:
            return losses, None

        # The active set, split by winning side: sides[j, 0] for a, [j, 1] for b.
        a_wins, sides = self.a_wins[:live], self.sides[:live]
        np.abs(residual, out=g)  # g is not needed any more
        np.greater_equal(g, ACTIVE_RESIDUAL, out=flag)
        np.less_equal(ha, hb, out=a_wins)
        np.logical_and(flag, a_wins, out=sides[:, 0])
        np.logical_not(a_wins, out=a_wins)
        np.logical_and(flag, a_wins, out=sides[:, 1])
        # Rows per slot (2j + side), then blocks of whole slots, at most n
        # rows each.
        counts = np.count_nonzero(sides, axis=2).ravel()
        bounds = np.zeros(2 * live + 1, dtype=np.intp)
        np.cumsum(counts, out=bounds[1:])
        flat = sides.reshape(-1)

        # dz/dparams = -sharpness * dh/dparams on the winning side only.
        grads = np.empty((2 * live, 11))
        first = 0
        while first < 2 * live:
            last = first + 1
            while last < 2 * live and bounds[last + 1] - bounds[first] <= n:
                last += 1
            # Flat indices k n + i (slot k, point i) of the block's rows.
            idx = np.flatnonzero(flat[first * n:last * n])
            idx += first * n
            # Each row's residual / denominator: slot k's rows are pair
            # k // 2's residuals where its side is active, in point order.
            weight, lo = self.weight[:len(idx)], bounds[first]
            segments = [slice(bounds[k] - lo, bounds[k + 1] - lo) for k in range(first, last)]
            for k, rows in zip(range(first, last), segments):
                np.compress(flat[k * n:(k + 1) * n], residual[k // 2], out=weight[rows])
            np.divide(weight, self.denominator, out=weight)
            dh = _field_gradient(ws, idx, range(first, last), counts[first:last])
            for k, rows in zip(range(first, last), segments):
                grads[k] = -self.sharpness * (weight[rows] @ dh[rows])
            first = last
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
    :class:`LabeledPointSet`.
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
    sizes = np.clip(_INIT_SIZE_FACTOR * stds[perm], cfg.a_min, cfg.a_max)
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


class _Restarts:
    """Every restart of one node's momentum descent, as arrays, resumable
    at any iteration.

    Restart r's current pair is ``params[r]`` (2, 8), each SQ's size,
    exponents and translation, and ``rotation[r]`` (2, 4); ``vel[r]`` (22,)
    is its velocity in the gradient layout of both SQs, ``t[r]`` the
    iterations it has run, ``best_loss[r]`` its running best loss and
    ``best_params[r]``, ``best_rotation[r]`` the pair that reached it.
    ``live`` lists the restarts still running, in restart order; they
    stand at the same iteration. ``batch`` is the node's :class:`_PairBatch`.
    Superquadrics are built only for the pair :func:`fit_node` returns.
    """

    def __init__(self, starts, cfg: FitConfig, node: tuple[int, int], batch: _PairBatch):
        self.cfg, self.node, self.batch = cfg, node, batch
        self.params, self.rotation = (a.copy() for a in _pair_arrays(starts))
        restarts = len(starts)
        self.vel = np.zeros((restarts, 22))
        self.t = np.zeros(restarts, dtype=np.intp)
        self.best_loss = np.full(restarts, np.inf)
        self.best_params, self.best_rotation = self.params.copy(), self.rotation.copy()
        self.live = np.arange(restarts)

    def record(self, losses) -> None:
        """Keep each live restart's current pair where its loss beats the
        restart's running best."""
        better = losses < self.best_loss[self.live]
        won = self.live[better]
        self.best_loss[won] = losses[better]
        self.best_params[won] = self.params[won]
        self.best_rotation[won] = self.rotation[won]

    def step(self, t: int, grads) -> None:
        """One momentum step of iteration ``t`` for every live restart along
        its (2, 11) rows of ``grads``; the new pairs must pass the checks
        of :class:`Superquadric`."""
        cfg, live = self.cfg, self.live
        lr = cfg.step_size * 0.5 * (1.0 + np.cos(np.pi * t / cfg.iterations))
        # A diverging step overflows; the checks refuse every non-finite
        # value it leaves, so numpy need not warn as well.
        with np.errstate(over="ignore", invalid="ignore"):
            vel = MOMENTUM * self.vel[live] - lr * grads.reshape(len(live), 22)
            self.vel[live] = vel
            vel = vel.reshape(len(live), 2, 11)
            params = self.params[live] + vel[:, :, 0:8]
            params[:, :, 0:3] = np.clip(params[:, :, 0:3], cfg.a_min, cfg.a_max)
            params[:, :, 3:5] = np.clip(params[:, :, 3:5], cfg.e_min, cfg.e_max)
            turned = quat.multiply(quat.from_rotation_vector(vel[:, :, 8:11]), self.rotation[live])
            try:
                rotation = quat.normalize(turned)
                check_parameters(params[..., 0:3], params[..., 3:5], params[..., 5:8], rotation)
            except ValueError as exc:
                raise self._divergence(t, params, turned) from exc
        self.params[live], self.rotation[live] = params, rotation
        self.t[live] += 1

    def _divergence(self, t: int, params, turned) -> ValueError:
        """The error of the first live restart whose new pair fails a check,
        checked as that restart alone would be: both rotations normalized,
        then each SQ's parameters. Runs under :meth:`step`'s errstate."""
        for j, r in enumerate(self.live):
            try:
                rotation = quat.normalize(turned[j])
                for p, q in zip(params[j], rotation):
                    check_parameters(p[0:3], p[3:5], p[5:8], q)
            except ValueError as exc:
                return ValueError(
                    f"node {self.node}, restart {r} diverged at iteration {t} with "
                    f"step_size {self.cfg.step_size}: {exc}"
                )
        return ValueError(f"node {self.node} diverged at iteration {t}")


def _advance(runs: _Restarts, stop: int) -> None:
    """Run the live restarts up to iteration ``stop`` (exclusive) in lock
    step: each iteration evaluates every live pair in one
    :meth:`_PairBatch.evaluate`, then steps them all at once."""
    for t in range(int(runs.t[runs.live[0]]), stop):
        losses, grads = runs.batch.evaluate(runs.params[runs.live], runs.rotation[runs.live])
        runs.record(losses)
        runs.step(t, grads)


def _finish(runs: _Restarts) -> None:
    """Score the live restarts' last iterates too."""
    losses, _ = runs.batch.evaluate(
        runs.params[runs.live], runs.rotation[runs.live], grad=False
    )
    runs.record(losses)


def _support(points: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Mask of the points in the axis-aligned box of the ``inside`` points,
    its half-extents scaled by ``_SUPPORT_SCALE`` and widened by
    ``_SUPPORT_MARGIN``; it holds every inside point."""
    lo, hi = points[inside].min(axis=0), points[inside].max(axis=0)
    half = _SUPPORT_SCALE * 0.5 * (hi - lo) + _SUPPORT_MARGIN
    return (np.abs(points - 0.5 * (lo + hi)) <= half).all(axis=1)


def _escapes(runs: _Restarts, outside: np.ndarray) -> int:
    """How many of the ``outside`` points, all labeled 0, the current pair
    of some live restart reaches: min(h_a, h_b) < 1 + _ESCAPE_MARGIN / s.
    One gradient-free value pass over those points."""
    live = runs.live
    ws = FieldWorkspace(outside, 2 * len(live))
    _value_pass(ws, runs.params[live].reshape(-1, 8), runs.rotation[live].reshape(-1, 4))
    reached = ws.h < 1.0 + _ESCAPE_MARGIN / runs.cfg.sharpness
    return int(np.count_nonzero(reached.any(axis=0)))


def _to_cut(runs: _Restarts, cut: int) -> None:
    """Run every restart to iteration ``cut``, then keep live the ceil(R/2)
    with the lowest running-best objective (ties to the lower restart
    index). With ``cut`` 0 every restart stays live."""
    restarts = len(runs.live)
    if cut > 0:
        _advance(runs, cut)
        ranked = sorted(range(restarts), key=lambda r: (runs.best_loss[r], r))
        runs.live = np.sort(ranked[: (restarts + 1) // 2])


def _race(pts, y, cfg: FitConfig, node: tuple[int, int]) -> _Restarts:
    """Every restart of one node, raced with one cut at mid-schedule, on
    the node's support with the objective divided by its full point count.

    All restarts run to ``c = iterations // _CUT_DIVISOR`` (:func:`_to_cut`);
    the survivors run on to the end, the rest stop at c. At the cut, one
    value pass checks the survivors' current pairs against the points
    outside the support (:func:`_escapes`). If any pair reaches one of
    them, it could settle in a basin the support cannot see, so the node
    is raced again from the same starts on every point, which is bitwise
    its uncropped fit. With c == 0 there is no cut and no check. Returns
    the restarts, with the survivors ``live``.
    """
    keep = _support(pts, y == 1)
    sub, sub_y = pts[keep], y[keep]
    starts = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(node[0], node[1], r))
        )
        starts.append(init_node(sub, sub_y, cfg, restart=r, rng=rng))
    batch = _PairBatch(
        sub, sub_y.astype(np.float64), cfg.sharpness, cfg.restarts, denominator=len(pts)
    )
    cut = cfg.iterations // _CUT_DIVISOR
    runs = _Restarts(starts, cfg, node, batch)
    _to_cut(runs, cut)
    if cut > 0 and not keep.all() and _escapes(runs, pts[~keep]):
        del runs, batch  # free the support's buffers before the full set's
        batch = _PairBatch(pts, y.astype(np.float64), cfg.sharpness, cfg.restarts)
        runs = _Restarts(starts, cfg, node, batch)
        _to_cut(runs, cut)
    _advance(runs, cfg.iterations)
    return runs


def fit_node(
    points,
    labels,
    cfg: FitConfig,
    node: tuple[int, int] = (1, 1),
) -> NodeFit:
    """Fit one node's pair with raced restarts; deterministic for a fixed config.

    Restart r of node (d, i) draws its jitter from
    SeedSequence(cfg.seed, spawn_key=(d, i, r)), so a node's fit does not
    depend on which nodes were fitted before it. The restarts that finish
    the schedule are compared in restart order, a later one winning only
    with a strictly lower objective on the node's support; the returned
    ``loss`` is the pair's loss over every point,
    ``node_loss(fit.sq_a, fit.sq_b, points, labels)``.
    ``iterations`` counts the iterations actually run over all restarts. A
    node with no inside-labeled points returns the degenerate sentinel
    without optimizing.
    """
    ps = LabeledPointSet(points, labels)
    pts, y = ps.points, ps.labels
    occ = OccupancyConfig(cfg.sharpness)

    if int(y.sum()) == 0:
        centroid = pts.mean(axis=0)
        sentinel = Superquadric(np.full(3, cfg.a_min), np.ones(2), centroid)
        return NodeFit(
            sq_a=sentinel,
            sq_b=sentinel,
            loss=node_loss(sentinel, sentinel, pts, y, occ),
            degenerate=True,
            iterations=0,
        )

    runs = _race(pts, y, cfg, node)
    _finish(runs)
    # min keeps the first of equal losses: a later restart wins only when
    # strictly lower.
    best = min(runs.live, key=lambda r: runs.best_loss[r])
    sq_a, sq_b = (
        Superquadric(p[0:3], p[3:5], p[5:8], q)
        for p, q in zip(runs.best_params[best], runs.best_rotation[best])
    )
    iterations = int(runs.t.sum())
    # Free the support's buffers before the full-set pass allocates its own.
    del runs
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
