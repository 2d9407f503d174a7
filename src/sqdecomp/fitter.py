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
returned, so the final loss never exceeds any restart's initial one.

Nodes without a single inside-labeled point get a degenerate sentinel pair
(two minimum-size SQs at the point centroid) and are not optimized; their
children inherit empty label sets and therefore the same treatment.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
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
    _log_field,
)

MOMENTUM = 0.9
LOG_CLAMP = 1e-12
# A point enters the gradient when its BCE residual |g - y| is at least this.
ACTIVE_RESIDUAL = 1e-9

# The restarts race to iterations // _CUT_DIVISOR, then half of them stop.
_CUT_DIVISOR = 2

_JITTER_TRANSLATION = 0.05
_JITTER_ROTATION = 0.3
_INIT_SIZE_FACTOR = 2.0
_INIT_OFFSET_FACTOR = 0.25


class ConfigError(ValueError):
    """A fit configuration value or config-file entry is invalid."""


@dataclass(frozen=True)
class FitConfig:
    """Everything a fit depends on besides the data itself."""

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

    def validate(self) -> None:
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

    def occupancy(self) -> OccupancyConfig:
        return OccupancyConfig(sharpness=self.sharpness)

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
        cfg = cls(**overrides)
        cfg.validate()
        return cfg


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
    max(g_a, g_b); the value is that of :func:`_pair_loss_and_grad`, whose
    active-set gradient is discarded here.
    """
    pts, y = _points_and_labels(points, labels)
    loss, _, _ = _pair_loss_and_grad(sq_a, sq_b, pts, y.astype(np.float64), cfg.sharpness)
    return float(loss)


def _points_and_labels(points, labels):
    """(n, 3) float points and (n,) labels, each label 0 or 1."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.atleast_1d(np.asarray(labels))
    if len(pts) == 0:
        raise ValueError("need at least one point")
    if y.shape != (len(pts),):
        raise ValueError(f"labels shape {y.shape} does not match {len(pts)} points")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return pts, y


def _pair_loss_and_grad(sq_a, sq_b, points, y, sharpness, ws_a=None, ws_b=None):
    """Loss plus its (11,) gradients for both SQs, from an active set.

    A value pass for each SQ gives h_a, h_b; the pair's occupancy is one
    ``g = expit(s (1 - min(h_a, h_b)))``, which equals max(g_a, g_b)
    because expit is monotone. Each point's max differentiates through its
    winning side, the smaller h (ties to a). Points where the BCE log clamp
    is active contribute zero gradient, which keeps the analytic gradient
    equal to the derivative of the clamped loss actually being reported.
    Gradient rows are computed only for the active set: each point's
    winning side, where the residual g - y is at least ``ACTIVE_RESIDUAL``
    in size (about a third of the points in a typical fit). The rows left
    out are saturated points, each of which would change the mean-loss
    gradient by less than ``s * ACTIVE_RESIDUAL / n`` times its field
    derivative. ``ws_a`` and ``ws_b`` are optional gradient workspaces for
    the two SQs (see :class:`FieldWorkspace`).
    """
    n = len(points)
    ws_a = FieldWorkspace(n) if ws_a is None else ws_a
    ws_b = FieldWorkspace(n) if ws_b is None else ws_b
    ha, _, _, _ = _log_field(sq_a, points, ws=ws_a)
    hb, _, _, _ = _log_field(sq_b, points, ws=ws_b)
    a_wins = ha <= hb
    g = expit(sharpness * (1.0 - np.minimum(ha, hb)))

    # The occupancy the BCE credits: g for inside labels, 1 - g for outside.
    credited = np.where(y == 1.0, g, 1.0 - g)
    loss = -np.log(np.maximum(credited, LOG_CLAMP)).mean()
    residual = np.where(credited < LOG_CLAMP, 0.0, g - y)
    active = np.abs(residual) >= ACTIVE_RESIDUAL

    # dz/dparams = -sharpness * dh/dparams on the winning side only.
    grads = []
    for sq, ws, wins in ((sq_a, ws_a, a_wins), (sq_b, ws_b, ~a_wins)):
        rows = np.flatnonzero(active & wins)
        dh = _field_gradient(sq, ws, rows)
        grads.append(-sharpness * ((residual[rows] / n) @ dh))
    return loss, grads[0], grads[1]


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
    shape at hand.
    """
    inside = points[np.asarray(labels) == 1]
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


class _Restart:
    """One restart's momentum descent, resumable at any iteration.

    Holds the parameters, the velocity, the next iteration ``t``, the
    running best loss and the pair that reached it. ``advance`` steps it to
    an iteration, ``finish`` runs the post-loop evaluation of the last
    iterate. The two field workspaces are overwritten by every call, so the
    restarts of one node can share them; fit_tree's threads never do.
    """

    def __init__(self, sq_a, sq_b, points, y, cfg: FitConfig, ws_a, ws_b):
        self.points, self.y, self.cfg = points, y, cfg
        self.ws_a, self.ws_b = ws_a, ws_b
        self.pa = np.concatenate([sq_a.size, sq_a.exponents, sq_a.translation])
        self.pb = np.concatenate([sq_b.size, sq_b.exponents, sq_b.translation])
        self.qa, self.qb = sq_a.rotation, sq_b.rotation
        self.vel = np.zeros(22)
        self.t = 0
        self.cur = (sq_a, sq_b)
        self.best_loss = np.inf
        self.best = (sq_a, sq_b)

    def _loss_and_grad(self):
        return _pair_loss_and_grad(
            *self.cur, self.points, self.y, self.cfg.sharpness, self.ws_a, self.ws_b
        )

    def advance(self, stop: int) -> None:
        """Run iterations ``t`` up to ``stop`` (exclusive)."""
        cfg = self.cfg
        for t in range(self.t, stop):
            loss, ga, gb = self._loss_and_grad()
            if loss < self.best_loss:
                self.best_loss, self.best = loss, self.cur
            lr = cfg.step_size * 0.5 * (1.0 + np.cos(np.pi * t / cfg.iterations))
            self.vel = MOMENTUM * self.vel - lr * np.concatenate([ga, gb])
            self.pa = self.pa + self.vel[0:8]
            self.pb = self.pb + self.vel[11:19]
            for p in (self.pa, self.pb):
                p[0:3] = np.clip(p[0:3], cfg.a_min, cfg.a_max)
                p[3:5] = np.clip(p[3:5], cfg.e_min, cfg.e_max)
            self.qa = quat.normalize(
                quat.multiply(quat.from_rotation_vector(self.vel[8:11]), self.qa)
            )
            self.qb = quat.normalize(
                quat.multiply(quat.from_rotation_vector(self.vel[19:22]), self.qb)
            )
            self.cur = (
                Superquadric(self.pa[:3], self.pa[3:5], self.pa[5:8], self.qa),
                Superquadric(self.pb[:3], self.pb[3:5], self.pb[5:8], self.qb),
            )
        self.t = max(self.t, stop)

    def finish(self):
        """Score the last iterate too; the best pair and its loss."""
        loss, _, _ = self._loss_and_grad()
        if loss < self.best_loss:
            self.best_loss, self.best = loss, self.cur
        return self.best[0], self.best[1], float(self.best_loss)


def _race(pts, y, cfg: FitConfig, node: tuple[int, int]):
    """Every restart of one node, raced with one cut at mid-schedule.

    All restarts run to ``c = iterations // _CUT_DIVISOR``; the ceil(R/2)
    with the lowest running-best loss (ties to the lower restart index) run
    on to the end, the rest stop at c. With c == 0 every restart runs to
    the end. Returns all restarts and the survivors, each in restart order.
    """
    starts = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(node[0], node[1], r))
        )
        starts.append(init_node(pts, y, cfg, restart=r, rng=rng))
    ws_a, ws_b = FieldWorkspace(len(pts)), FieldWorkspace(len(pts))
    yf = y.astype(np.float64)
    runs = [_Restart(a, b, pts, yf, cfg, ws_a, ws_b) for a, b in starts]
    cut = cfg.iterations // _CUT_DIVISOR
    survivors = runs
    if cut > 0:
        for run in runs:
            run.advance(cut)
        ranked = sorted(range(len(runs)), key=lambda r: (runs[r].best_loss, r))
        survivors = [runs[r] for r in sorted(ranked[: (len(runs) + 1) // 2])]
    for run in survivors:
        run.advance(cfg.iterations)
    return runs, survivors


def fit_node(
    points,
    labels,
    cfg: FitConfig,
    node: tuple[int, int] = (1, 1),
) -> NodeFit:
    """Fit one node's pair with raced restarts; deterministic for a fixed config.

    Restart r of node (d, i) draws its jitter from
    SeedSequence(cfg.seed, spawn_key=(d, i, r)), so results do not depend on
    scheduling order. The restarts that finish the schedule are compared in
    restart order, a later one winning only with a strictly lower loss.
    ``iterations`` counts the iterations actually run over all restarts. A
    node with no inside-labeled points returns the degenerate sentinel
    without optimizing.
    """
    pts, y = _points_and_labels(points, labels)
    occ = cfg.occupancy()

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

    runs, survivors = _race(pts, y, cfg, node)
    best: tuple[Superquadric, Superquadric, float] | None = None
    for run in survivors:
        result = run.finish()
        if best is None or result[2] < best[2]:
            best = result
    return NodeFit(
        sq_a=best[0],
        sq_b=best[1],
        loss=best[2],
        degenerate=False,
        iterations=sum(run.t for run in runs),
    )


def fit_tree(
    pointset: LabeledPointSet,
    cfg: FitConfig,
    threads: int = 1,
) -> tuple[SqTree, FitReport]:
    """Fit the whole pair tree, breadth-first, down to cfg.max_depth.

    Level d+1's training labels come from splitting each level-d node's
    points between its two SQs. ``threads`` caps the worker count for
    fitting the nodes of one level in parallel (0 means one per CPU);
    results are identical for any thread count.
    """
    cfg.validate()
    if threads < 0:
        raise ConfigError(f"threads must be >= 0, got {threads}")
    t0 = time.perf_counter()
    points = pointset.points
    report = FitReport(config=cfg)
    tree = SqTree(max_depth=cfg.max_depth, points=points)

    workers = threads if threads > 0 else (os.cpu_count() or 1)

    tasks = [((1, 1), pointset.labels)]
    for depth in range(1, cfg.max_depth + 1):
        if depth > 1:
            tasks = [
                child
                for parent in tree.level_nodes(depth - 1)
                for child in split_node(parent, points, parent.labels)
            ]
        if workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                fits = list(
                    pool.map(lambda t: fit_node(points, t[1], cfg, node=t[0]), tasks)
                )
        else:
            fits = [fit_node(points, labels, cfg, node=key) for key, labels in tasks]
        for (key, labels), fit in zip(tasks, fits):
            tree.add_node(SqPairNode(*key, fit.sq_a, fit.sq_b, labels, fit.degenerate))
            report.node_losses[key] = fit.loss
            report.iterations += fit.iterations
            if fit.degenerate:
                report.degenerate_nodes.append(key)

    report.level_iou = level_ious(tree, pointset)
    report.loss_sum = float(sum(report.node_losses.values()) * len(points))
    report.wall_time = time.perf_counter() - t0
    return tree, report
