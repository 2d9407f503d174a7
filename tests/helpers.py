"""Shared corpus generators and finite-difference harnesses for the tests."""

import numpy as np
from scipy.special import expit

from sqdecomp import OccupancyConfig, Superquadric, occupancy
from sqdecomp import quaternions as quat
from sqdecomp.fitter import (
    _RACE_DTYPE,
    ACTIVE_RESIDUAL,
    LOG_CLAMP,
    MOMENTUM,
    FitConfig,
    init_node,
)
from sqdecomp.geometry import (
    _BARY_EPS,
    _COPLANAR_DIST,
    _DIRECTIONS,
    _ON_SURFACE_T,
    _PARALLEL_EPS,
    RayDegeneracyError,
)
from sqdecomp.superquadric import (
    _N_FEATURES,
    COORD_CLAMP,
    FieldWorkspace,
    _expit,
    _field_gradient,
    _gradient_map,
    _value_pass,
)


def random_superquadric(rng: np.random.Generator, margin: float = 0.05) -> Superquadric:
    """Draw one superquadric safely interior to the parameter bounds.

    ``margin`` keeps sizes and exponents away from the clip boundaries so
    finite-difference probes (step 1e-5) never leave the valid region.
    """
    size = rng.uniform(0.005 + margin, 1.0 - margin, 3)
    exponents = rng.uniform(0.1 + margin, 1.9 - margin, 2)
    translation = rng.uniform(-0.3, 0.3, 3)
    rotation = quat.normalize(rng.normal(size=4))
    return Superquadric(size, exponents, translation, rotation)


def random_pair(rng: np.random.Generator):
    return random_superquadric(rng), random_superquadric(rng)


def perturbed(sq: Superquadric, index: int, delta: float) -> Superquadric:
    """Shift one of the 11 degrees of freedom by delta.

    Indices 0..7 are (a1, a2, a3, e1, e2, t1, t2, t3); 8..10 are the
    components of a world-frame rotation tangent applied by retraction.
    """
    p = sq.params()
    if index < 8:
        p = p.copy()
        p[index] += delta
        return Superquadric(p[:3], p[3:5], p[5:8], p[8:12])
    u = np.zeros(3)
    u[index - 8] = delta
    q = quat.normalize(quat.multiply(quat.from_rotation_vector(u), sq.rotation))
    return Superquadric(sq.size, sq.exponents, sq.translation, q)


def occupancy_fd(sq: Superquadric, x, cfg: OccupancyConfig, step: float = 1e-5) -> np.ndarray:
    """Central-difference occupancy gradient over the 11 DOF, shape (n, 11)."""
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = np.empty((len(pts), 11))
    for k in range(11):
        hi = occupancy(perturbed(sq, k, +step), pts, cfg)
        lo = occupancy(perturbed(sq, k, -step), pts, cfg)
        out[:, k] = (hi - lo) / (2.0 * step)
    return out


def gradient_corpus(rng: np.random.Generator, n: int):
    """Yield n well-conditioned (sq, point) pairs for gradient checks.

    Points are kept at F in [0.2, 5] and at least 1e-3 away from the local
    coordinate planes, where fractional powers stay smooth.
    """
    from sqdecomp import inside_outside, world_to_local

    made = 0
    while made < n:
        sq = random_superquadric(rng)
        pts = sq.translation + rng.uniform(-0.8, 0.8, (64, 3))
        f = inside_outside(sq, pts)
        local = world_to_local(sq, pts)
        ok = (f >= 0.2) & (f <= 5.0) & (np.abs(local) >= 1e-3).all(axis=1)
        for p in pts[ok]:
            yield sq, p
            made += 1
            if made == n:
                return


def triangle_terms(corners: np.ndarray, direction: np.ndarray, scale: float):
    """Möller–Trumbore terms of each triangle for rays along ``direction``:
    corner a, edges e1 and e2, pvec, det, and the mask of the triangles
    parallel to the ray (|det| below _PARALLEL_EPS * scale^2)."""
    a = corners[:, 0]
    e1 = corners[:, 1] - a
    e2 = corners[:, 2] - a
    pvec = np.cross(direction, e2)
    det = np.einsum("tk,tk->t", e1, pvec)
    return a, e1, e2, pvec, det, np.abs(det) < _PARALLEL_EPS * scale * scale


def _classify_chunk(points: np.ndarray, corners: np.ndarray, direction: np.ndarray, scale: float):
    """:func:`classify_dense`, with the crossing test evaluated only at the
    (point, triangle) pairs that can pass it.

    A pair counts only where its hit is within the widened triangle
    (``bary_wide``) and not behind the point by more than the on-surface
    tolerance. Such a hit is a combination of the triangle's corners with
    weights of at least -_BARY_EPS, so in a frame of two axes across the ray
    and one along it the point lies inside the box of the triangle's
    corners across the ray and not past the box's far end along it. The
    weights allow 2 _BARY_EPS times the box's extent, at most sqrt(3)
    scale, past each bound; each is padded by 4 _BARY_EPS scale, which
    leaves room for rounding, and the far end also by the on-surface
    tolerance. Triangles parallel to the ray get the dense plane check.
    """
    a, e1, e2, pvec, det, parallel = triangle_terms(corners, direction, scale)
    # Rows: two unit axes across the ray, then the ray's direction.
    across = np.linalg.svd(direction[None, :])[2][1:]
    frame = np.vstack([across, direction])
    p, c = points @ frame.T, corners @ frame.T
    lo, hi = c.min(axis=1), c.max(axis=1)
    pad = 4.0 * _BARY_EPS * scale
    near = ~parallel[None, :] & (p[:, None, 2] <= hi[None, :, 2] + pad + _ON_SURFACE_T * scale)
    for k in (0, 1):
        near &= (p[:, None, k] >= lo[None, :, k] - pad) & (p[:, None, k] <= hi[None, :, k] + pad)
    point, tri = np.nonzero(near)

    s = points[point] - a[tri]
    u = np.einsum("pk,pk->p", s, pvec[tri]) / det[tri]
    qvec = np.cross(s, e1[tri])
    v = qvec @ direction / det[tri]
    t_hit = np.einsum("pk,pk->p", qvec, e2[tri]) / det[tri]
    bary_wide = (u > -_BARY_EPS) & (v > -_BARY_EPS) & (u + v < 1.0 + _BARY_EPS)
    bary_strict = (u > _BARY_EPS) & (v > _BARY_EPS) & (u + v < 1.0 - _BARY_EPS)
    forward = t_hit > _ON_SURFACE_T * scale

    normal = np.cross(e1[parallel], e2[parallel])
    norm_len = np.linalg.norm(normal, axis=1)
    norm_len = np.where(norm_len == 0, 1.0, norm_len)
    s = points[:, None, :] - a[parallel]
    plane_dist = np.abs(np.einsum("ntk,tk->nt", s, normal)) / norm_len
    coplanar = (plane_dist < _COPLANAR_DIST * scale).any(axis=1)

    def some(pairs):
        return np.bincount(point[pairs], minlength=len(points)) > 0

    is_on_surface = some((np.abs(t_hit) <= _ON_SURFACE_T * scale) & bary_wide)
    is_degenerate = (some(forward & bary_wide & ~bary_strict) | coplanar) & ~is_on_surface
    parity = np.bincount(point[forward & bary_strict], minlength=len(points)) & 1
    resolved = is_on_surface | ~is_degenerate
    labels = np.where(is_on_surface, 1, parity).astype(np.uint8)
    return resolved, labels


def classify_dense(points: np.ndarray, corners: np.ndarray, direction: np.ndarray, scale: float):
    """Ray-parity test for one chunk of points against all triangles, with
    the tolerances of a mesh whose vertex box's longest side is ``scale``.

    The brute-force reference for ``geometry.point_in_mesh``, which tests
    only the pairs its grid finds, written over every (point, triangle)
    pair. Returns (resolved mask, inside labels). A point is unresolved
    when its ray produced a degenerate intersection (hit near a triangle
    edge/vertex, or ran parallel within a triangle's plane) and needs a
    different direction. Points lying on the surface resolve immediately as
    inside.
    """
    a, e1, e2, pvec, det, parallel = triangle_terms(corners, direction, scale)
    safe_det = np.where(parallel, 1.0, det)

    normal = np.cross(e1, e2)
    norm_len = np.linalg.norm(normal, axis=1)
    norm_len = np.where(norm_len == 0, 1.0, norm_len)

    s = points[:, None, :] - a[None, :, :]          # (n, t, 3)
    u = np.einsum("ntk,tk->nt", s, pvec) / safe_det
    qvec = np.cross(s, e1[None, :, :])
    v = np.einsum("ntk,k->nt", qvec, direction) / safe_det
    t_hit = np.einsum("ntk,tk->nt", qvec, e2) / safe_det

    plane_dist = np.abs(np.einsum("ntk,tk->nt", s, normal)) / norm_len

    bary_wide = (u > -_BARY_EPS) & (v > -_BARY_EPS) & (u + v < 1.0 + _BARY_EPS)
    bary_strict = (u > _BARY_EPS) & (v > _BARY_EPS) & (u + v < 1.0 - _BARY_EPS)

    on_surface = (~parallel[None, :]) & (np.abs(t_hit) <= _ON_SURFACE_T * scale) & bary_wide
    forward = (~parallel[None, :]) & (t_hit > _ON_SURFACE_T * scale)
    counted = forward & bary_strict
    grazing = forward & bary_wide & ~bary_strict
    coplanar = parallel[None, :] & (plane_dist < _COPLANAR_DIST * scale)

    is_on_surface = on_surface.any(axis=1)
    is_degenerate = (grazing | coplanar).any(axis=1) & ~is_on_surface
    parity = counted.sum(axis=1) & 1

    resolved = is_on_surface | ~is_degenerate
    labels = np.where(is_on_surface, 1, parity).astype(np.uint8)
    return resolved, labels


def mesh_scale(mesh) -> float:
    """Longest side L of the mesh's vertex box, which ``point_in_mesh``'s
    tolerances are relative to."""
    return float(np.ptp(mesh.vertices, axis=0).max())


def point_in_mesh_reference(mesh, points) -> np.ndarray:
    """``point_in_mesh`` labels by the brute-force predicate, same retry order."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    corners = mesh.triangle_corners
    scale = mesh_scale(mesh)
    labels = np.zeros(len(pts), dtype=np.uint8)
    unresolved = np.ones(len(pts), dtype=bool)
    chunk = max(1, int(2_000_000 / len(corners)))
    for direction in _DIRECTIONS:
        idx = np.flatnonzero(unresolved)
        for start in range(0, len(idx), chunk):
            sel = idx[start:start + chunk]
            resolved, lab = _classify_chunk(pts[sel], corners, direction, scale)
            labels[sel[resolved]] = lab[resolved]
            unresolved[sel[resolved]] = False
    if unresolved.any():
        raise RayDegeneracyError(f"{int(unresolved.sum())} points unresolved")
    return labels


def reaches(pairs, points, sharpness: float) -> bool:
    """Whether any of the ``pairs`` has min(h_a, h_b) < 1 + ln(10) / s at
    one of the ``points``, each SQ's field from its own one-slot pass:
    the escape rule of ``fitter._race``."""
    ws = FieldWorkspace(points)
    limit = 1.0 + np.log(10.0) / sharpness

    def below(sq):
        _value_pass(ws, sq.params()[None])
        return (ws.h[0] < limit).any()

    return any(below(sq) for pair in pairs for sq in pair)


def write_obj_records_reference(fh, vertices, triangles, base: int = 0) -> None:
    """``geometry.write_obj_records`` one record per write, as it was
    before it formatted whole arrays: the bytes it must keep."""
    for v in vertices:
        fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
    for t in triangles:
        fh.write(f"f {base + t[0] + 1} {base + t[1] + 1} {base + t[2] + 1}\n")


def field_gradient_reference(sq, points):
    """The (n, 11) gradient of h at every point, each row by the chain rule
    through the log-space field written out in plain float64 numpy: the
    per-row formula the field kernel used before it split a row's gradient
    into features and a per-SQ map."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    a, (e1, e2), rot = sq.size, sq.exponents, sq.rotation_matrix()
    offset = pts - sq.translation
    local = offset @ rot
    abs_local = np.maximum(np.abs(local), COORD_CLAMP)
    ln_u = np.log(abs_local / a)
    w = (2.0 / e2) * ln_u[:, :2]
    ln_s = np.logaddexp(w[:, 0], w[:, 1])
    term_xy, term_z = (e2 / e1) * ln_s, (2.0 / e1) * ln_u[:, 2]
    ln_f = np.logaddexp(term_xy, term_z)
    h = np.exp(e1 * ln_f)
    alpha, beta = np.exp(term_xy - ln_f), np.exp(term_z - ln_f)
    aw = np.exp(w - ln_s[:, None])
    dh_dlnu = np.column_stack([2 * h * alpha * aw[:, 0], 2 * h * alpha * aw[:, 1], 2 * h * beta])
    dh_de1 = h * ln_f - (h / e1) * (alpha * e2 * ln_s + 2 * beta * ln_u[:, 2])
    dh_de2 = h * alpha * (ln_s - (2.0 / e2) * (aw[:, 0] * ln_u[:, 0] + aw[:, 1] * ln_u[:, 1]))
    # A coordinate the clamp pins contributes no positional derivative.
    dh_dlocal = np.where(np.abs(local) > COORD_CLAMP, dh_dlnu * np.sign(local) / abs_local, 0.0)
    world = dh_dlocal @ rot.T
    return np.column_stack([-dh_dlnu / a, dh_de1, dh_de2, -world, np.cross(world, offset)])


def field_and_gradient(sq, points):
    """h at every point and its (n, 11) gradient at every row, computed
    alone: a one-slot workspace, one full-row feature call and the SQ's
    map."""
    ws = FieldWorkspace(points, grad=True)
    _value_pass(ws, sq.params()[None])
    h = ws.h[0].copy()
    features = _field_gradient(ws, np.arange(len(points)), np.empty((_N_FEATURES, len(points))))
    return h, features.T @ _gradient_map(sq.params()[None])[0].T


def pair_loss_and_grad(
    sq_a, sq_b, points, y, sharpness, ws=None, denominator=None, dtype=_RACE_DTYPE
):
    """Loss plus its (11,) gradients for both SQs of one pair.

    The one-pair reference for ``fitter._PairBatch.evaluate``, which runs
    the pairs of all restarts together: the same arithmetic written for one
    pair, as the fitter ran it before its restarts were batched (one value
    pass over the pair, the loss over 1-D arrays, and per SQ one feature
    call over its own active rows, their weighted sum and its map). The
    field and loss terms are computed in ``dtype``, by default the race's,
    and summed in float64; the features and their weights are float64.
    ``ws`` is an optional two-slot gradient workspace at ``points`` of that
    dtype. The loss and the gradient sum over the points and divide by
    ``denominator``, by default their count, which makes the loss their
    mean.
    """
    n = len(points)
    denominator = n if denominator is None else denominator
    ws = FieldWorkspace(points, 2, grad=True, dtype=dtype) if ws is None else ws
    y = np.asarray(y, ws.dtype)
    _value_pass(ws, np.array([sq_a.params(), sq_b.params()]))
    ha, hb = ws.h[0], ws.h[1]
    a_wins = ha <= hb
    g = sharpness * (1.0 - np.minimum(ha, hb))
    _expit(g, g)
    credited = np.where(y == 1.0, g, 1.0 - g)
    loss = -np.log(np.maximum(credited, LOG_CLAMP)).sum(dtype=np.float64) / denominator
    residual = np.where(credited < LOG_CLAMP, 0.0, g - y)
    active = np.abs(residual) >= ACTIVE_RESIDUAL
    maps = _gradient_map([sq_a.params(), sq_b.params()])
    grads = []
    for k, wins in ((0, a_wins), (1, ~a_wins)):
        rows = np.flatnonzero(active & wins)
        features = _field_gradient(ws, k * n + rows, np.empty((_N_FEATURES, len(rows))))
        weight = residual[rows].astype(np.float64) / denominator
        grads.append(-sharpness * (maps[k] @ (features @ weight)))
    return loss, grads[0], grads[1]


def pair_loss_and_grad_reference(sq_a, sq_b, points, y, sharpness):
    """Loss plus its (11,) gradients for both SQs.

    The dense reference for ``fitter._PairBatch.evaluate``, which computes
    gradient rows only for each point's winning side where the residual is
    not negligible. This one differentiates both SQs at every point.

    The max over the pair differentiates through the achieving branch (ties
    to a). Points where the BCE log clamp is active contribute zero gradient,
    which keeps the analytic gradient equal to the derivative of the clamped
    loss actually being reported.
    """
    ha, grad_a_h = field_and_gradient(sq_a, points)
    hb, grad_b_h = field_and_gradient(sq_b, points)
    ga = expit(sharpness * (1.0 - ha))
    gb = expit(sharpness * (1.0 - hb))
    a_wins = ga >= gb
    g = np.where(a_wins, ga, gb)

    positive = y == 1.0
    losses = np.where(
        positive,
        -np.log(np.maximum(g, LOG_CLAMP)),
        -np.log(np.maximum(1.0 - g, LOG_CLAMP)),
    )
    loss = losses.mean()

    clamped = np.where(positive, g < LOG_CLAMP, 1.0 - g < LOG_CLAMP)
    dz = np.where(clamped, 0.0, g - y) / len(y)
    # dz/dparams = -sharpness * dh/dparams on the winning branch only.
    grad_a = -sharpness * (np.where(a_wins, dz, 0.0) @ grad_a_h)
    grad_b = -sharpness * (np.where(a_wins, 0.0, dz) @ grad_b_h)
    return loss, grad_a, grad_b


def optimize_pair_reference(
    sq_a, sq_b, points, y, cfg: FitConfig, denominator=None, iterates=None
):
    """Momentum descent from one start, every iteration to the end.

    The loop ``fitter.fit_node`` ran per restart before its restarts raced,
    on the loss of :func:`pair_loss_and_grad` with ``denominator``, in the
    race's dtype.
    Returns the best iterate seen, its loss, and the loss of every
    iteration in order (the post-loop evaluation of the last iterate not
    included). A list ``iterates`` receives the pair of every iteration.
    """
    ws = FieldWorkspace(points, 2, grad=True, dtype=_RACE_DTYPE)
    pa = np.concatenate([sq_a.size, sq_a.exponents, sq_a.translation])
    pb = np.concatenate([sq_b.size, sq_b.exponents, sq_b.translation])
    qa, qb = sq_a.rotation, sq_b.rotation
    vel = np.zeros(22)

    def build(p, q):
        return Superquadric(p[:3], p[3:5], p[5:8], q)

    cur_a, cur_b = sq_a, sq_b
    best_loss = np.inf
    best = (sq_a, sq_b)
    losses = []
    for t in range(cfg.iterations):
        if iterates is not None:
            iterates.append((cur_a, cur_b))
        loss, ga, gb = pair_loss_and_grad(cur_a, cur_b, points, y, cfg.sharpness, ws, denominator)
        losses.append(loss)
        if loss < best_loss:
            best_loss, best = loss, (cur_a, cur_b)
        lr = cfg.step_size * 0.5 * (1.0 + np.cos(np.pi * t / cfg.iterations))
        vel = MOMENTUM * vel - lr * np.concatenate([ga, gb])
        pa = pa + vel[0:8]
        pb = pb + vel[11:19]
        for p in (pa, pb):
            p[0:3] = np.clip(p[0:3], cfg.a_min, cfg.a_max)
            p[3:5] = np.clip(p[3:5], cfg.e_min, cfg.e_max)
        qa = quat.normalize(quat.multiply(quat.from_rotation_vector(vel[8:11]), qa))
        qb = quat.normalize(quat.multiply(quat.from_rotation_vector(vel[19:22]), qb))
        cur_a, cur_b = build(pa, qa), build(pb, qb)
    loss, _, _ = pair_loss_and_grad(cur_a, cur_b, points, y, cfg.sharpness, ws, denominator)
    if loss < best_loss:
        best_loss, best = loss, (cur_a, cur_b)
    return best[0], best[1], float(best_loss), losses


def fit_node_reference(
    points, labels, cfg: FitConfig, node=(1, 1), restarts=None, support=None, iterates=None
):
    """The sequential restart loop of ``fitter.fit_node`` before the race.

    Runs each restart in ``restarts`` (default: all of ``cfg.restarts``) to
    the end, in order, on the points selected by the mask ``support``
    (default: every point) with the loss divided by the count of all the
    points, in the race's dtype, and keeps the best by strict ``<``. Returns that (sq_a, sq_b,
    objective) and a dict of each run restart's per-iteration objectives.
    A dict ``iterates`` receives each run restart's list of per-iteration
    pairs. The labels must hold at least one inside point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.asarray(labels)
    denominator = len(pts)
    if support is not None:
        pts, y = pts[support], y[support]
    best = None
    losses = {}
    for r in range(cfg.restarts) if restarts is None else restarts:
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(node[0], node[1], r))
        )
        start_a, start_b = init_node(pts, y, cfg, restart=r, rng=rng)
        *result, losses[r] = optimize_pair_reference(
            start_a, start_b, pts, y, cfg, denominator,
            None if iterates is None else iterates.setdefault(r, []),
        )
        if best is None or result[2] < best[2]:
            best = result
    return best, losses


def icosphere_reference(radius: float = 1.0, subdivisions: int = 2, center=(0.0, 0.0, 0.0)):
    """``shapes.icosphere`` as it was built before its array pass: a Python
    loop over the faces with a dict of edge midpoints. Returns the
    vertices and faces it must keep, bit for bit."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v / np.linalg.norm(v) for v in verts]

    for _ in range(subdivisions):
        midpoint_cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key not in midpoint_cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint_cache[key] = len(verts) - 1
            return midpoint_cache[key]

        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            next_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = next_faces

    vertices = np.array(verts) * radius + np.asarray(center, dtype=np.float64)
    return vertices, np.array(faces, dtype=np.intp)
