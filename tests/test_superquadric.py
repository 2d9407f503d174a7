import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from helpers import field_and_gradient, gradient_corpus, occupancy_fd, random_superquadric
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
from sqdecomp.superquadric import (
    QUATERNION_NORM_TOL,
    FieldWorkspace,
    _field_gradient,
    _log_field,
    _logaddexp,
    _value_pass,
    check_parameters,
)


def unit_sphere() -> Superquadric:
    return Superquadric(np.ones(3), np.ones(2))


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
        if not failures:
            check_parameters(size, exponents, translation, rotation)
            return
        with pytest.raises(ValueError) as info:
            check_parameters(size, exponents, translation, rotation)
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
            h, ln_f, local = (a.copy() for a in _log_field(sq, FieldWorkspace(pts)))
            assert local.shape == (3, len(pts))
            assert np.array_equal(local, world_to_local(sq, pts).T)
            assert np.array_equal(h, inside_outside_stable(sq, pts))
            ws = FieldWorkspace(pts, grad=True)
            h_g, ln_f_g, local_g = _log_field(sq, ws)
            assert np.array_equal(h, h_g)
            assert np.array_equal(ln_f, ln_f_g)
            assert np.array_equal(local, local_g)
            dh = _field_gradient(ws, np.arange(len(pts)), [0], [len(pts)]).copy()
            assert dh.shape == (len(pts), 11)
            k = trial % 3
            h_w, _, _ = _log_field(sq, shared, k)
            assert np.shares_memory(h_w, shared.h)
            assert np.array_equal(h_w, h)
            rows = k * len(pts) + np.arange(len(pts))
            assert np.array_equal(_field_gradient(shared, rows, [k], [len(pts)]), dh)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        slots=st.integers(1, 9),
        n=st.sampled_from([1, 37, 3000, 4500, 20_000]),
        grad=st.booleans(),
    )
    def test_value_pass_over_slots_is_one_slot_log_field_bitwise(self, seed, slots, n, grad):
        """One value pass over up to nine slots (of a workspace of up to
        ten, whose scratch outgrows the gradient block from ten slots on)
        writes each slot bit for bit what a one-slot ``_log_field`` call
        writes, and the gradient rows that follow are bitwise the one-slot
        ones too."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.2, 1.2, (n, 3))
        sqs = [random_superquadric(rng) for _ in range(slots)]
        ws = FieldWorkspace(pts, slots + 1, grad=grad)
        p = np.array([sq.params() for sq in sqs])
        _value_pass(ws, p[:, :8], p[:, 8:], 1)
        for k, sq in enumerate(sqs, start=1):
            alone = FieldWorkspace(pts, grad=grad)
            h, ln_f, local = _log_field(sq, alone)
            assert np.array_equal(ws.h[k], h)
            assert np.array_equal(ws.ln_f[k], ln_f)
            assert np.array_equal(ws.ln_s[k], alone.ln_s[0])
            assert np.array_equal(ws.local[:, k], local)
            assert np.array_equal(ws.params[:, k], alone.params[:, 0])
            if grad:
                rows = np.flatnonzero(rng.random(n) < 0.5)
                dh = _field_gradient(ws, k * n + rows, [k], [len(rows)])
                assert np.array_equal(dh, _field_gradient(alone, rows, [0], [len(rows)]))

    def test_workspace_must_fit_the_call(self):
        pts = np.zeros((4, 3))
        with pytest.raises(ValueError):
            _log_field(unit_sphere(), FieldWorkspace(pts, k=2), k=2)
        with pytest.raises(ValueError):
            _field_gradient(FieldWorkspace(pts), np.arange(4), [0], [4])
        ws = FieldWorkspace(pts, k=2, grad=True)
        _log_field(unit_sphere(), ws, 0)
        _log_field(unit_sphere(), ws, 1)
        with pytest.raises(ValueError, match="block"):
            _field_gradient(ws, np.arange(5), [0, 1], [4, 1])
        with pytest.raises(ValueError, match="shape"):
            FieldWorkspace(np.zeros((4, 2)))

    @pytest.mark.parametrize("exponents", [None, (0.1, 0.1), (1.9, 0.1)])
    def test_row_subset_gradient_is_bitwise_the_full_rows(self, exponents):
        """The fitter differentiates only some rows of some slots, the rows
        of up to eight SQs in one call; each row must equal its row of the
        SQ's own full-row call bit for bit, whatever the subset, whichever
        SQs share the call and wherever in the call the row lands."""
        rng = np.random.default_rng(91)
        for _ in range(4):
            sqs = [random_superquadric(rng) for _ in range(rng.integers(1, 9))]
            if exponents is not None:
                sqs = [Superquadric(sq.size, exponents, sq.translation, sq.rotation)
                       for sq in sqs]
            pts = [rng.uniform(-1.2, 1.2, (2000, 3))]
            for sq in sqs[:3]:
                axes = sq.rotation_matrix().T  # rows: the local axes in world space
                pts.append(sq.translation[None, :])  # every coordinate pinned by the clamp
                pts.append(sq.translation + 0.3 * axes)  # two coordinates pinned
            pts = np.vstack(pts)
            n = len(pts)
            full = [field_and_gradient(sq, pts)[1] for sq in sqs]
            ws = FieldWorkspace(pts, k=len(sqs), grad=True)
            for k, sq in enumerate(sqs):
                _log_field(sq, ws, k)
            for rows in (
                np.zeros(0, dtype=np.intp),
                np.array([n - 1]),
                np.arange(n),
                np.flatnonzero(rng.random(n) < 0.3),
                rng.permutation(n)[:700],
            ):
                dh = _field_gradient(ws, (len(sqs) - 1) * n + rows, [len(sqs) - 1], [len(rows)])
                assert dh.shape == (len(rows), 11)
                assert np.array_equal(dh, full[-1][rows])
            # Rows of every slot in one call, in blocks of at most n rows cut
            # anywhere: one segment per slot, slots and rows in random order.
            order = rng.permutation(len(sqs))
            idx = np.concatenate(
                [k * n + rng.permutation(np.flatnonzero(rng.random(n) < 0.4)) for k in order]
            )
            cuts = np.sort(rng.choice(np.arange(1, len(idx)), 2 * len(sqs), replace=False))
            for block in np.split(idx, np.union1d(cuts, np.arange(n, len(idx), n))):
                slot, point = np.divmod(block, n)
                starts = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])
                counts = np.diff(np.r_[starts, len(block)])
                dh = _field_gradient(ws, block, slot[starts], counts)
                for k in np.unique(slot):
                    assert np.array_equal(dh[slot == k], full[k][point[slot == k]])

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
