import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from helpers import (
    field_gradient_reference,
    gradient_corpus,
    occupancy_fd,
    random_superquadric,
)
from sqdecomp import (
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
from sqdecomp import quaternions as quat
from sqdecomp.fitter import _ESCAPE_MARGIN
from sqdecomp.superquadric import (
    _N_FEATURES,
    EXPONENT_BOUNDS,
    QUATERNION_NORM_TOL,
    SIZE_BOUNDS,
    FieldWorkspace,
    _expit,
    _field_gradient,
    _gradient_map,
    _logaddexp,
    _radial,
    _union_below,
    _value_pass,
    check_parameters,
)


def unit_sphere() -> Superquadric:
    return Superquadric(np.ones(3), np.ones(2))


def one_slot_pass(sq, ws):
    """The value pass of ``sq``'s one row into slot 0 of ``ws``: its h, ln F
    and local coordinates, as views that the next pass overwrites."""
    _value_pass(ws, sq.params()[None])
    return ws.h[0], ws.ln_f[0], ws.local[:, 0]


def full_features(sq, pts):
    """The (13, n) gradient features of ``sq`` at every point, computed
    alone: a one-slot workspace and one full-row call."""
    ws = FieldWorkspace(pts, grad=True)
    _value_pass(ws, sq.params()[None])
    return _field_gradient(ws, np.arange(len(pts)), np.empty((_N_FEATURES, len(pts))))


def pinned_points(sqs):
    """Points where the clamp pins the local coordinates of ``sqs``: each
    SQ's center (all three pinned) and a point on each local axis (two)."""
    pts = []
    for sq in sqs:
        axes = sq.rotation_matrix().T  # rows: the local axes in world space
        pts.append(sq.translation[None, :])
        pts.append(sq.translation + 0.3 * axes)
    return np.vstack(pts)


class TestConstruction:
    def test_sizes_must_be_positive(self):
        """Construction rejects non-positive sizes; the optimizer's bound
        box (a_min..a_max etc.) is enforced by the fitter's projection, not
        here, so out-of-box but positive shapes remain representable."""
        with pytest.raises(ValueError):
            Superquadric(np.array([0.0, 1.0, 1.0]), np.ones(2))
        with pytest.raises(ValueError):
            Superquadric(np.array([-0.2, 0.5, 0.5]), np.ones(2))

    def test_exponents_must_be_positive(self):
        with pytest.raises(ValueError):
            Superquadric(np.ones(3) * 0.5, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            Superquadric(np.ones(3) * 0.5, np.array([1.0, -1.0]))

    def test_quaternion_must_be_unit(self):
        with pytest.raises(ValueError):
            Superquadric(np.ones(3) * 0.5, np.ones(2), np.zeros(3), np.array([1.0, 1.0, 0.0, 0.0]))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        defects=st.lists(
            st.sampled_from(["nan", "inf", "-inf", "zero size", "negative size",
                             "zero exponent", "negative exponent", "non-unit"]),
            max_size=2,
        ),
    )
    def test_batch_check_rejects_what_superquadric_rejects(self, seed, rows, defects):
        """The shared check over a batch raises the message that building
        the first failing row's superquadric gives, under the written-out
        predicates; a batch without defects passes."""
        rng = np.random.default_rng(seed)
        size = rng.uniform(0.01, 1.0, (rows, 3))
        exponents = rng.uniform(0.1, 1.9, (rows, 2))
        translation = rng.uniform(-1.0, 1.0, (rows, 3))
        rotation = quat.normalize(rng.normal(size=(rows, 4)))
        for defect in defects:
            r, c = rng.integers(rows), rng.integers(3)
            if defect in ("nan", "inf", "-inf"):
                values = [size, exponents, translation, rotation][rng.integers(4)]
                values[r, c % values.shape[1]] = float(defect)
            elif defect.endswith("size"):
                size[r, c] = 0.0 if defect.startswith("zero") else -rng.uniform(0.0, 1.0)
            elif defect.endswith("exponent"):
                exponents[r, c % 2] = 0.0 if defect.startswith("zero") else -rng.uniform(0.0, 1.0)
            else:
                rotation[r] *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.5, -1.0)

        def written_out(size, exponents, translation, rotation):
            """(rank of the first failing check, its message), or None."""
            if not all(np.all(np.isfinite(v)) for v in (size, exponents, translation, rotation)):
                return 0, "superquadric parameters must be finite"
            if np.any(size <= 0):
                return 1, f"size components must be positive, got {size}"
            if np.any(exponents <= 0):
                return 2, f"exponents must be positive, got {exponents}"
            if abs(np.linalg.norm(rotation) - 1.0) > QUATERNION_NORM_TOL:
                return 3, f"rotation must be a unit quaternion, |q| = {np.linalg.norm(rotation)!r}"
            return None

        failures = []
        for r in range(rows):
            failure = written_out(size[r], exponents[r], translation[r], rotation[r])
            if failure is None:
                Superquadric(size[r], exponents[r], translation[r], rotation[r])
                continue
            with pytest.raises(ValueError) as info:
                Superquadric(size[r], exponents[r], translation[r], rotation[r])
            assert str(info.value) == failure[1]
            failures.append((failure[0], r, failure[1]))
        batch = np.concatenate([size, exponents, translation, rotation], axis=1)
        if not failures:
            check_parameters(batch)
            return
        with pytest.raises(ValueError) as info:
            check_parameters(batch)
        assert str(info.value) == min(failures)[2]

    def test_params_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sq = random_superquadric(rng)
            back = Superquadric.from_params(sq.params())
            np.testing.assert_array_equal(back.params(), sq.params())

    def test_fields_are_read_only(self):
        sq = unit_sphere()
        with pytest.raises(ValueError):
            sq.size[0] = 2.0


class TestWorldToLocal:
    def test_identity_frame_is_identity_map(self):
        sq = unit_sphere()
        np.testing.assert_array_equal(world_to_local(sq, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_translation_is_subtracted(self):
        sq = Superquadric(np.ones(3), np.ones(2), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(world_to_local(sq, [1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])

    def test_quarter_turn_about_z_applies_inverse_rotation(self):
        q = quat.from_rotation_vector(np.array([0.0, 0.0, np.pi / 2]))
        sq = Superquadric(np.ones(3), np.ones(2), np.zeros(3), q)
        np.testing.assert_allclose(
            world_to_local(sq, [1.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-12
        )


class TestInsideOutside:
    def test_sphere_surface_point_is_one(self):
        np.testing.assert_allclose(inside_outside(unit_sphere(), [1.0, 0.0, 0.0]), 1.0, atol=1e-12)

    def test_sphere_center_is_zero(self):
        np.testing.assert_allclose(inside_outside(unit_sphere(), [0.0, 0.0, 0.0]), 0.0, atol=1e-12)

    def test_ellipsoid_halfway_point(self):
        sq = Superquadric(np.array([1.0, 2.0, 1.0]), np.ones(2))
        np.testing.assert_allclose(inside_outside(sq, [0.0, 1.0, 0.0]), 0.25, atol=1e-12)

    def test_batch_shape(self):
        pts = np.zeros((5, 3))
        assert inside_outside(unit_sphere(), pts).shape == (5,)

    def test_strictly_increasing_along_rays(self):
        """F grows strictly with distance from the center along any ray."""
        rng = np.random.default_rng(8)
        for _ in range(30):
            sq = random_superquadric(rng)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            t = np.linspace(0.05, 1.5, 40)
            pts = (t[:, None] * u) @ sq.rotation_matrix().T + sq.translation
            f = inside_outside(sq, pts)
            assert np.all(np.diff(f) > 0)

    def test_rigid_invariance(self):
        """Transforming the SQ and the point together leaves F unchanged."""
        rng = np.random.default_rng(9)
        for _ in range(30):
            sq = random_superquadric(rng)
            pts = rng.uniform(-1.5, 1.5, (20, 3))
            q_t = quat.normalize(rng.normal(size=4))
            shift = rng.uniform(-1, 1, 3)
            R = quat.to_matrix(q_t)
            moved = Superquadric(
                sq.size,
                sq.exponents,
                R @ sq.translation + shift,
                quat.normalize(quat.multiply(q_t, sq.rotation)),
            )
            np.testing.assert_allclose(
                inside_outside(moved, pts @ R.T + shift),
                inside_outside(sq, pts),
                rtol=1e-10,
                atol=1e-10,
            )


class TestStableVariant:
    def test_surface_point_is_one(self):
        sq = Superquadric(np.array([0.5, 0.7, 0.9]), np.ones(2))
        np.testing.assert_allclose(inside_outside_stable(sq, [0.5, 0.0, 0.0]), 1.0, atol=1e-9)

    def test_unit_sphere_at_two(self):
        np.testing.assert_allclose(
            inside_outside_stable(unit_sphere(), [2.0, 0.0, 0.0]), 4.0, atol=1e-12
        )

    def test_fractional_first_exponent_takes_root(self):
        """With e1 = 0.5 and F = 4 the stable value is sqrt(4) = 2."""
        sq = Superquadric(np.ones(3), np.array([0.5, 1.0]))
        x = np.array([0.0, 0.0, np.sqrt(2.0)])
        np.testing.assert_allclose(inside_outside(sq, x), 4.0, rtol=1e-12)
        np.testing.assert_allclose(inside_outside_stable(sq, x), 2.0, rtol=1e-12)

    def test_sign_equivalence_with_raw_f_and_occupancy(self):
        rng = np.random.default_rng(10)
        cfgs = [OccupancyConfig(s) for s in (0.5, 10.0, 200.0)]
        for _ in range(40):
            sq = random_superquadric(rng)
            pts = rng.uniform(-1.2, 1.2, (500, 3))
            f = inside_outside(sq, pts)
            h = inside_outside_stable(sq, pts)
            keep = np.abs(f - 1.0) >= 1e-12
            np.testing.assert_array_equal((f < 1)[keep], (h < 1)[keep])
            for cfg in cfgs:
                g = occupancy(sq, pts, cfg)
                np.testing.assert_array_equal((g > 0.5)[keep], (f < 1)[keep])


class TestFieldKernel:
    @pytest.mark.parametrize(
        "exponents", [None, (0.1, 0.1), (1.9, 1.9), (0.1, 1.9), (1.9, 0.1)]
    )
    def test_value_only_and_gradient_calls_give_identical_h(self, exponents):
        """Every field evaluator and the fitter read h from one kernel, so
        a gradient workspace must not change a single bit of h, and neither
        must the slot, or reusing one workspace across different SQs."""
        rng = np.random.default_rng(90)
        pts = rng.uniform(-1.2, 1.2, (3000, 3))
        shared = FieldWorkspace(pts, k=3, grad=True)
        for trial in range(5):
            sq = random_superquadric(rng)
            if exponents is not None:
                sq = Superquadric(sq.size, exponents, sq.translation, sq.rotation)
            h, ln_f, local = (a.copy() for a in one_slot_pass(sq, FieldWorkspace(pts)))
            assert local.shape == (3, len(pts))
            assert np.array_equal(local, world_to_local(sq, pts).T)
            assert np.array_equal(h, inside_outside_stable(sq, pts))
            ws = FieldWorkspace(pts, grad=True)
            h_g, ln_f_g, local_g = one_slot_pass(sq, ws)
            assert np.shares_memory(h_g, ws.h)
            assert np.array_equal(h, h_g)
            assert np.array_equal(ln_f, ln_f_g)
            assert np.array_equal(local, local_g)
            out = np.empty((_N_FEATURES, len(pts)))
            dh = _field_gradient(ws, np.arange(len(pts)), out)
            assert dh is out
            k = trial % 3
            _value_pass(shared, np.tile(sq.params(), (k + 1, 1)))
            assert np.array_equal(shared.h[k], h)
            rows = k * len(pts) + np.arange(len(pts))
            assert np.array_equal(_field_gradient(shared, rows, np.empty_like(dh)), dh)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        slots=st.integers(1, 9),
        n=st.sampled_from([1, 37, 3000, 4500, 20_000]),
        grad=st.booleans(),
    )
    def test_value_pass_over_slots_is_one_slot_pass_bitwise(self, seed, slots, n, grad):
        """One value pass over up to nine slots (of a workspace of up to
        ten) writes each slot bit for bit what a one-slot pass of its row
        writes, and the gradient rows that follow are bitwise the one-slot
        ones too."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.2, 1.2, (n, 3))
        sqs = [random_superquadric(rng) for _ in range(slots)]
        ws = FieldWorkspace(pts, slots + 1, grad=grad)
        _value_pass(ws, np.array([sq.params() for sq in sqs]))
        for k, sq in enumerate(sqs):
            alone = FieldWorkspace(pts, grad=grad)
            h, ln_f, local = one_slot_pass(sq, alone)
            assert np.array_equal(ws.h[k], h)
            assert np.array_equal(ws.ln_f[k], ln_f)
            assert np.array_equal(ws.ln_s[k], alone.ln_s[0])
            assert np.array_equal(ws.ln_u[:, k], alone.ln_u[:, 0])
            assert np.array_equal(ws.local[:, k], local)
            assert np.array_equal(ws.params[:, k], alone.params[:, 0])
            if grad:
                rows = np.flatnonzero(rng.random(n) < 0.5)
                dh = _field_gradient(ws, k * n + rows, np.empty((_N_FEATURES, len(rows))))
                assert np.array_equal(dh, _field_gradient(alone, rows, np.empty_like(dh)))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 8),
        n=st.integers(1, 300),
        sharpness=st.sampled_from([None, 1.0, 10.0, 50.0]),
    )
    def test_union_below_is_any_slot_of_one_pass_bitwise(self, seed, rows, n, sharpness):
        """The union test, one one-slot pass per row, marks exactly the
        points where one pass over all the rows has some slot below the
        level: at level 1 (``predicted_label``) and at the escape rule's
        1 + ln(10) / s, on random points, the SQs' centers and axes, and
        points on each SQ's surface at that level (h = level there, up to
        rounding, since h scales as the square of a local scale factor)."""
        rng = np.random.default_rng(seed)
        level = 1.0 if sharpness is None else 1.0 + _ESCAPE_MARGIN / sharpness
        sqs = [random_superquadric(rng) for _ in range(rows)]
        on_level = [
            surface_points(
                Superquadric(np.sqrt(level) * sq.size, sq.exponents, sq.translation, sq.rotation),
                6,
                8,
            ).reshape(-1, 3)
            for sq in sqs
        ]
        pts = np.vstack([rng.uniform(-1.2, 1.2, (n, 3)), pinned_points(sqs), *on_level])
        params = np.array([sq.params() for sq in sqs])
        ws = FieldWorkspace(pts, rows)
        _value_pass(ws, params)
        expected = (ws.h < level).any(axis=0)
        assert np.array_equal(_union_below(params, pts, level), expected)
        assert np.array_equal(_union_below(params[None], pts, level), expected)

    def test_workspace_must_fit_the_call(self):
        pts = np.zeros((4, 3))
        rows = np.tile(unit_sphere().params(), (3, 1))
        with pytest.raises(ValueError):
            _value_pass(FieldWorkspace(pts, k=2), rows)
        with pytest.raises(ValueError):
            _field_gradient(FieldWorkspace(pts), np.arange(4), np.empty((_N_FEATURES, 4)))
        ws = FieldWorkspace(pts, k=2, grad=True)
        _value_pass(ws, rows[:2])
        _field_gradient(ws, np.arange(8), np.empty((_N_FEATURES, 8)))
        with pytest.raises(ValueError, match="block"):
            _field_gradient(ws, np.arange(9), np.empty((_N_FEATURES, 9)))
        with pytest.raises(ValueError):
            _field_gradient(ws, np.arange(4), np.empty((_N_FEATURES, 3)))
        with pytest.raises(ValueError, match="shape"):
            FieldWorkspace(np.zeros((4, 2)))

    @pytest.mark.parametrize("exponents", [None, (0.1, 0.1), (1.9, 0.1)])
    def test_row_subset_gradient_is_bitwise_the_full_rows(self, exponents):
        """The fitter differentiates only some rows of some slots; each row
        must equal its row of the SQ's own full-row call bit for bit,
        whatever the subset, whichever slot of a shared workspace the SQ
        holds and wherever in the call the row lands."""
        rng = np.random.default_rng(91)
        for _ in range(4):
            sqs = [random_superquadric(rng) for _ in range(rng.integers(1, 9))]
            if exponents is not None:
                sqs = [Superquadric(sq.size, exponents, sq.translation, sq.rotation)
                       for sq in sqs]
            pts = np.vstack([rng.uniform(-1.2, 1.2, (2000, 3)), pinned_points(sqs[:3])])
            n = len(pts)
            full = full_features(sqs[-1], pts)
            ws = FieldWorkspace(pts, k=len(sqs), grad=True)
            _value_pass(ws, np.array([sq.params() for sq in sqs]))
            for rows in (
                np.zeros(0, dtype=np.intp),
                np.array([n - 1]),
                np.arange(n),
                np.flatnonzero(rng.random(n) < 0.3),
                rng.permutation(n)[:700],
            ):
                out = np.empty((_N_FEATURES, len(rows)))
                dh = _field_gradient(ws, (len(sqs) - 1) * n + rows, out)
                assert np.array_equal(dh, full[:, rows])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        slots=st.integers(1, 8),
        n=st.integers(1, 400),
        share=st.floats(0.0, 1.0),
        exponents=st.sampled_from([None, (0.1, 0.1), (1.9, 0.1)]),
    )
    def test_interleaved_rows_in_any_chunks_are_bitwise_the_full_rows(
        self, seed, slots, n, share, exponents
    ):
        """The fitter hands the active rows of all its slots to the kernel
        in one call. Rows of up to eight slots, interleaved in random order
        and cut into random calls of up to the block's K n rows, must each
        come out bitwise their slot's one-slot full-row features."""
        rng = np.random.default_rng(seed)
        sqs = [random_superquadric(rng) for _ in range(slots)]
        if exponents is not None:
            sqs = [Superquadric(sq.size, exponents, sq.translation, sq.rotation) for sq in sqs]
        pts = np.vstack([rng.uniform(-1.2, 1.2, (n, 3)), pinned_points(sqs[:3])])
        n = len(pts)
        full = np.array([full_features(sq, pts) for sq in sqs])
        ws = FieldWorkspace(pts, k=slots, grad=True)
        _value_pass(ws, np.array([sq.params() for sq in sqs]))
        idx = rng.permutation(np.flatnonzero(rng.random(slots * n) < share))
        start = 0
        while start < len(idx):
            chunk = idx[start:start + rng.integers(1, slots * n + 1)]
            out = np.full((_N_FEATURES, len(chunk)), np.nan)
            assert _field_gradient(ws, chunk, out) is out
            slot, point = np.divmod(chunk, n)
            assert np.array_equal(out, full[slot, :, point].T)
            start += len(chunk)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        size=st.lists(st.one_of(st.sampled_from(SIZE_BOUNDS), st.floats(*SIZE_BOUNDS)),
                      min_size=3, max_size=3),
        exponents=st.lists(
            st.one_of(st.sampled_from(EXPONENT_BOUNDS), st.floats(*EXPONENT_BOUNDS)),
            min_size=2, max_size=2,
        ),
    )
    def test_float32_kernel_is_finite_and_near_float64(self, seed, size, exponents):
        """The race's float32 field kernel, at rows on the size and exponent
        bounds and at points in [-1.7, 1.7]^3 with the SQ's center and axes
        (where the clamp pins the local coordinates): the value pass and
        every gradient feature are finite and raise no overflow, invalid or
        divide warning, and h is within a relative 1e-4 of float64's. The
        error comes from rounding the points and the log-space terms to
        float32 (about 3e-5 at worst over 3,000 such rows); h itself stays
        below about 4 (1.7 sqrt(3) / 0.005)^2, far from float32's range.
        Each feature is within 1e-3 of float64's, relative to its largest
        float64 value, at the rows whose local coordinates are all at least
        1e-3 in size (about 2e-4 at worst over 90,000 such rows). Nearer a
        coordinate plane a float32 local coordinate carries a large
        relative error, which G = D / local passes on."""
        rng = np.random.default_rng(seed)
        sq = Superquadric(np.array(size), np.array(exponents), rng.uniform(-0.5, 0.5, 3),
                          quat.normalize(rng.normal(size=4)))
        pts = np.vstack([rng.uniform(-1.7, 1.7, (300, 3)), pinned_points([sq])])
        rows = np.arange(len(pts))
        h, features = {}, {}
        for dtype in (np.float64, np.float32):
            ws = FieldWorkspace(pts, grad=True, dtype=dtype)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                _value_pass(ws, sq.params()[None])
                features[dtype] = _field_gradient(ws, rows, np.empty((_N_FEATURES, len(rows))))
            assert ws.h.dtype == dtype
            assert np.isfinite(ws.kept).all() and np.isfinite(features[dtype]).all()
            h[dtype] = ws.h[0].astype(np.float64)
        np.testing.assert_allclose(h[np.float32], h[np.float64], rtol=1e-4, atol=0)
        away = (np.abs(world_to_local(sq, pts)) >= 1e-3).all(axis=1)
        exact, rounded = features[np.float64][:, away], features[np.float32][:, away]
        scale = np.abs(exact).max(axis=1, initial=0.0)
        assert (np.abs(rounded - exact).max(axis=1, initial=0.0) <= 1e-3 * scale).all()

    def test_logaddexp_matches_numpy(self):
        """Within 4e-16 max(1, |x|, |y|) of np.logaddexp, on equal arguments,
        on gaps up to 1e3, and at the clamp's extremes: with e2 = 0.1 a
        clamped coordinate gives w1 = 20 log(1e-9 / a), down to about -414."""
        rng = np.random.default_rng(92)
        base = np.concatenate([rng.uniform(-420.0, 40.0, 3000), [0.0, -320.0, -414.5]])
        gap = np.concatenate([
            np.zeros(200),
            rng.choice([-1.0, 1.0], 2803) * 10.0 ** rng.uniform(-12.0, 3.0, 2803),
        ])
        clamp_w1 = 20.0 * np.log(1e-9 / rng.uniform(0.005, 1.0, 500))
        x = np.concatenate([base, base + 0.0, clamp_w1, clamp_w1])
        y = np.concatenate([base + gap, base, clamp_w1 + rng.uniform(-1e3, 1e3, 500),
                            rng.uniform(-420.0, 0.0, 500)])
        out, scratch = np.empty_like(x), np.empty_like(x)
        _logaddexp(x, y, out, scratch)
        bound = 4e-16 * np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
        assert np.all(np.abs(out - np.logaddexp(x, y)) <= bound)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
    def test_expit_matches_scipy(self, data, dtype):
        """Within rtol 1e-6 (float32) or 1e-14 (float64), plus the smallest
        normal, of ``scipy.special.expit`` over [-1e4, 1e4], and 0 exactly
        where it is 0. The draws include both sides of the edge where
        exp(-x) overflows (about -88.7 in float32, -709.8 in float64). The
        result lies in [0, 1], does not decrease on sorted input, is written
        into ``out`` and returned, and raises no RuntimeWarning."""
        info = np.finfo(dtype)
        edge = dtype(-np.log(info.max))
        values = st.one_of(
            st.floats(-1e4, 1e4, width=info.bits),
            st.floats(float(edge) - 2.0, float(edge) + 2.0, width=info.bits),
        )
        drawn = data.draw(st.lists(values, min_size=1, max_size=300))
        near_edge = [np.nextafter(edge, dtype(-np.inf)), edge, np.nextafter(edge, dtype(0.0))]
        x = np.sort(np.array(drawn + near_edge, dtype))
        out = np.empty_like(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _expit(x, out) is out
        ref = expit(x)
        rtol = 1e-6 if dtype is np.float32 else 1e-14
        assert np.all(np.abs(out - ref) <= rtol * ref + info.tiny)
        assert np.all(out[ref == 0.0] == 0.0)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(np.diff(out) >= 0.0)

    def test_float32_expit_does_not_decrease(self):
        """On the 2^20 consecutive float32 values from 0.234, where a
        sigmoid built on numpy's float32 exp decreases 1,224 times (on an
        AVX-512 build), the float32 sigmoid never decreases."""
        start = np.float32(0.234).view(np.int32)
        x = np.arange(start, start + 2**20, dtype=np.int32).view(np.float32)
        assert np.all(np.diff(_expit(x, np.empty_like(x))) >= 0.0)


def bounded(bounds):
    """A number in ``bounds``, often one of its two ends."""
    return st.one_of(st.sampled_from(bounds), st.floats(*bounds))


class TestGradientMap:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        shapes=st.lists(
            st.tuples(
                st.lists(bounded(SIZE_BOUNDS), min_size=3, max_size=3),
                st.lists(bounded(EXPONENT_BOUNDS), min_size=2, max_size=2),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_features_through_the_map_are_the_per_row_gradient(self, seed, shapes):
        """In float64, each row's features times its slot's map are the
        per-row chain rule of ``field_gradient_reference`` within 1e-12 of
        the terms each component sums, and a weighted sum of rows'
        gradients is the map applied to the weighted sum of their
        features. One to eight slots share a workspace, with sizes and
        exponents on their bounds or between, at points in [-1.7, 1.7]^3
        and at each SQ's center and a point on each local axis, where the
        clamp pins coordinates. The terms: the map's products, and inside
        them the two of D_x ln_u_x + D_y ln_u_y and the cross product's
        |G| |local|, where cancellation leaves a small result."""
        rng = np.random.default_rng(seed)
        sqs = [
            Superquadric(np.array(size), np.array(exponents), rng.uniform(-0.5, 0.5, 3),
                         quat.normalize(rng.normal(size=4)))
            for size, exponents in shapes
        ]
        pts = np.vstack([rng.uniform(-1.7, 1.7, (200, 3)), pinned_points(sqs)])
        n, slots = len(pts), len(sqs)
        params = np.array([sq.params() for sq in sqs])
        ws = FieldWorkspace(pts, slots, grad=True)
        _value_pass(ws, params)
        maps = _gradient_map(params)
        assert maps.shape == (slots, 11, _N_FEATURES)
        out = np.empty((_N_FEATURES, slots * n))
        features = _field_gradient(ws, np.arange(slots * n), out).reshape(_N_FEATURES, slots, n)
        for k, sq in enumerate(sqs):
            f, local, ln_u = features[:, k], ws.local[:, k], ws.ln_u[:, k]
            grad = f.T @ maps[k].T
            terms = np.abs(f.T) @ np.abs(maps[k].T)
            terms[:, 4] += (np.abs(f[0] * ln_u[0]) + np.abs(f[1] * ln_u[1])) / sq.exponents[1]
            cross = np.linalg.norm(f[7:10], axis=0) * np.linalg.norm(local, axis=0)
            terms[:, 8:11] += cross[:, None]
            reference = field_gradient_reference(sq, pts)
            assert (np.abs(grad - reference) <= 1e-12 * (np.abs(reference) + terms)).all()
            weight = rng.normal(size=n)
            summed = maps[k] @ (f @ weight)
            assert (np.abs(weight @ grad - summed) <= 1e-12 * (np.abs(weight) @ terms)).all()


class TestRadialDistance:
    def test_sphere_reduction_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = rng.uniform(0.05, 0.95)
            c = rng.uniform(-0.4, 0.4, 3)
            sq = Superquadric(np.full(3, r), np.ones(2), c)
            pts = rng.uniform(-1.5, 1.5, (50, 3))
            expected = np.abs(np.linalg.norm(pts - c, axis=1) - r)
            np.testing.assert_allclose(radial_distance(sq, pts), expected, atol=1e-12)

    def test_unit_sphere_at_two_is_one(self):
        assert radial_distance(unit_sphere(), [2.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_exact_surface_point_is_zero(self):
        rng = np.random.default_rng(12)
        sq = Superquadric(np.array([0.3, 0.5, 0.8]), np.ones(2))
        u = rng.normal(size=(20, 3))
        u /= np.linalg.norm(u / sq.size, axis=1, keepdims=True)
        np.testing.assert_allclose(radial_distance(sq, u), 0.0, atol=1e-9)

    def test_center_falls_back_to_smallest_size(self):
        sq = Superquadric(np.array([0.2, 0.5, 0.8]), np.array([0.7, 1.3]))
        assert radial_distance(sq, sq.translation) == pytest.approx(0.2)

    def test_every_slot_of_a_pass_is_its_sq_bitwise(self):
        """``_radial`` reads e1 and the sizes from its slot's own row, so
        each slot of a many-slot pass gives its SQ's ``radial_distance`` bit
        for bit, at the centers (the smallest-size fallback) too."""
        rng = np.random.default_rng(13)
        for slots in (1, 2, 5, 8):
            sqs = [random_superquadric(rng) for _ in range(slots)]
            pts = np.vstack([rng.uniform(-1.2, 1.2, (500, 3)), pinned_points(sqs)])
            ws = FieldWorkspace(pts, slots)
            _value_pass(ws, np.array([sq.params() for sq in sqs]))
            for k, sq in enumerate(sqs):
                assert np.array_equal(_radial(ws, k), radial_distance(sq, pts))


class TestOccupancy:
    def test_surface_is_half(self):
        np.testing.assert_allclose(
            occupancy(unit_sphere(), [1.0, 0.0, 0.0], OccupancyConfig(10.0)), 0.5, atol=1e-9
        )

    def test_center_of_unit_sphere(self):
        g = occupancy(unit_sphere(), [0.0, 0.0, 0.0], OccupancyConfig(10.0))
        np.testing.assert_allclose(g, expit(10.0), rtol=1e-12)
        np.testing.assert_allclose(g, 0.9999546021312976, rtol=1e-12)

    def test_far_outside_unit_sphere(self):
        g = occupancy(unit_sphere(), [2.0, 0.0, 0.0], OccupancyConfig(10.0))
        np.testing.assert_allclose(g, expit(-30.0), rtol=1e-9)

    def test_sharpness_requires_positive(self):
        with pytest.raises(ValueError):
            OccupancyConfig(0.0)

    @pytest.mark.parametrize(
        "sharpness", [float("nan"), float("inf"), -1.0, True, np.float32(10), "10", 10**400],
        ids=["nan", "inf", "negative", "bool", "float32", "str", "past-double-range"],
    )
    def test_sharpness_must_be_a_positive_finite_number(self, sharpness):
        """The check of FitConfig's float fields: True and a float32 used
        to be taken, and '10' and 10**400 failed with numpy's bare
        TypeError."""
        with pytest.raises(ValueError, match="sharpness must be positive and finite, got"):
            OccupancyConfig(sharpness)


class TestOccupancyGradient:
    def test_matches_finite_differences(self):
        """Analytic gradient vs central differences on a well-conditioned corpus."""
        rng = np.random.default_rng(13)
        cfg = OccupancyConfig(10.0)
        worst = 0.0
        for sq, x in gradient_corpus(rng, 200):
            analytic = occupancy_gradient(sq, x, cfg)
            numeric = occupancy_fd(sq, x, cfg)[0]
            scale = max(np.linalg.norm(numeric), 1e-8)
            worst = max(worst, np.linalg.norm(analytic - numeric) / scale)
        assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"

    def test_translation_partials_vanish_at_center(self):
        sq = Superquadric(np.full(3, 0.5), np.ones(2), np.array([0.1, -0.2, 0.3]))
        grad = occupancy_gradient(sq, sq.translation, OccupancyConfig(10.0))
        np.testing.assert_allclose(grad[5:8], 0.0, atol=1e-12)

    def test_growing_size_raises_occupancy_at_surface(self):
        """At a surface point on the +x axis, d(g)/d(a1) must be positive."""
        sq = Superquadric(np.full(3, 0.5), np.ones(2))
        grad = occupancy_gradient(sq, [0.5, 0.0, 0.0], OccupancyConfig(10.0))
        assert grad[0] > 0

    def test_shapes_single_and_batch(self):
        sq = unit_sphere()
        assert occupancy_gradient(sq, [0.3, 0.2, 0.1]).shape == (11,)
        assert occupancy_gradient(sq, np.full((7, 3), 0.2)).shape == (7, 11)

    def test_finite_on_stress_corpus(self):
        """Extreme-but-valid parameters and far points keep gradients finite."""
        rng = np.random.default_rng(14)
        corners = [
            Superquadric(np.full(3, 0.005), np.array([0.1, 0.1])),
            Superquadric(np.full(3, 0.005), np.array([1.9, 1.9])),
            Superquadric(np.ones(3), np.array([0.1, 1.9])),
            Superquadric(np.array([0.005, 1.0, 0.005]), np.array([0.1, 0.1])),
        ]
        pts = np.vstack([rng.uniform(-1.6, 1.6, (200, 3)), np.zeros((1, 3))])
        for sq in corners:
            grad = occupancy_gradient(sq, pts, OccupancyConfig(10.0))
            assert np.all(np.isfinite(grad))


class TestSurfacePoints:
    def test_unit_sphere_grid_lies_on_sphere(self):
        pts = surface_points(unit_sphere(), 24, 32)
        assert pts.shape == (24, 32, 3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=-1), 1.0, atol=1e-6)

    def test_near_cube_stays_in_unit_box(self):
        sq = Superquadric(np.ones(3), np.array([0.1, 0.1]))
        pts = surface_points(sq, 40, 40)
        assert np.max(np.abs(pts)) <= 1.0 + 1e-6

    def test_surface_residual_under_own_sq(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            sq = random_superquadric(rng)
            pts = surface_points(sq, 16, 16).reshape(-1, 3)
            np.testing.assert_allclose(inside_outside_stable(sq, pts), 1.0, atol=1e-5)

    def test_translation_offsets_grid_exactly(self):
        rng = np.random.default_rng(16)
        base = random_superquadric(rng)
        home = Superquadric(base.size, base.exponents, np.zeros(3), base.rotation)
        t = np.array([0.3, -0.1, 0.25])
        moved = Superquadric(base.size, base.exponents, t, base.rotation)
        np.testing.assert_array_equal(
            surface_points(moved, 12, 12), surface_points(home, 12, 12) + t
        )

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            surface_points(unit_sphere(), 2, 10)
