import numpy as np
import pytest

from finslerfields.conformal_solver import sphere_basis, torus_basis
from finslerfields.errors import DegenerateVector, InadmissibleNorm, InvalidSettings
from finslerfields.manifold import (
    CircleNormField,
    ConformalRescaleField,
    ConstantNormField,
    FlatTorus,
    MobiusMap,
    PointwiseAveragedField,
    PullbackField,
    RoundSphereField,
    Sphere2,
    SpherePolyScalar,
    SpherePolyVectorField,
    TorusFourierScalar,
    TorusFourierVectorField,
    TorusTranslation,
    circle_lambda_profile,
    isometry_ratio_invariance,
    lie_derivative,
    sphere_gradient_generators,
    sphere_rotation_generators,
)
from finslerfields.norm_core import EuclideanNorm, RandersNorm, check_axioms


def randers_torus():
    torus = FlatTorus()
    return torus, ConstantNormField(torus, RandersNorm(np.eye(2), [0.5, 0.0]))


def cos_mode_rho(torus):
    """rho(x) = 2 + cos(2 pi x1) on the unit torus."""
    return TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 1.0, 0.0)])


def _sphere_batch(sphere, count=12, seed=0):
    """Seeded points of the sphere with both poles first."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((count, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return sphere.radius * np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], directions])


def _great_circle(sphere, p, tangent, s):
    """The point at arc length s from p along the unit tangent vector."""
    angle = s / sphere.radius
    return np.cos(angle) * p + sphere.radius * np.sin(angle) * tangent


class TestSpherePoints:
    @pytest.mark.parametrize("radius", [1e-6, 1.3, 1e6])
    def test_frame_is_orthonormal_tangent_and_right_handed(self, radius):
        sphere = Sphere2(radius)
        points = _sphere_batch(sphere)
        frame = sphere.frame(points)
        assert frame.shape == (len(points), 3, 2)
        np.testing.assert_allclose(np.swapaxes(frame, 1, 2) @ frame,
                                   np.broadcast_to(np.eye(2), (len(points), 2, 2)), atol=1e-15)
        assert np.max(np.abs(np.einsum("mia,mi->ma", frame, points / radius))) <= 1e-15
        orientation = np.linalg.det(np.concatenate([frame, points[:, :, None] / radius], axis=2))
        np.testing.assert_allclose(orientation, 1.0, atol=1e-14)

    def test_fibonacci_points_lie_on_the_sphere_in_both_hemispheres(self):
        sphere = Sphere2(2.0)
        points = sphere.fibonacci_points(40)
        np.testing.assert_allclose(np.linalg.norm(points, axis=1), 2.0, rtol=1e-15)
        assert points[:, 2].min() < -1.9 and points[:, 2].max() > 1.9

    def test_metric_is_the_length_of_the_ambient_vector(self):
        # the frame is one of many at each point; the round metric reads any of them alike
        sphere = Sphere2(1.3)
        field = RoundSphereField(sphere)
        points = _sphere_batch(sphere, 10)
        rng = np.random.default_rng(0)
        ambient = rng.standard_normal((len(points), 3))
        tangent = ambient - np.einsum("mi,mi->m", ambient, points)[:, None] * points / 1.3**2
        ys = np.einsum("mia,mi->ma", sphere.frame(points), tangent)
        np.testing.assert_allclose(field.evals(points, ys), np.linalg.norm(tangent, axis=1),
                                   rtol=1e-14)

    @pytest.mark.parametrize("radius", [1e-6, 1.0, 1e6])
    def test_points_off_the_sphere_are_rejected(self, radius):
        sphere = Sphere2(radius)
        sphere.frame(radius * np.array([0.6, 0.0, 0.8 + 1e-9]))
        with pytest.raises(ValueError, match="off the sphere"):
            sphere.frame(radius * np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8 + 1e-7]]))
        with pytest.raises(ValueError, match="off the sphere"):
            sphere.frame(np.zeros(3))


class TestMetricEval:
    def test_torus_constant_norm_is_x_independent(self):
        torus, field = randers_torus()
        for x in torus.grid_points(3):
            assert field.eval(x, np.array([1.0, 0.0])) == pytest.approx(1.5, abs=1e-14)

    def test_round_sphere_is_the_frame_length_at_both_poles(self):
        field = RoundSphereField(Sphere2(1.7))
        for pole in ([0.0, 0.0, 1.7], [0.0, 0.0, -1.7]):
            assert field.eval(np.array(pole), np.array([0.6, -0.8])) == pytest.approx(1.0, abs=1e-15)
            np.testing.assert_array_equal(field.grads_x(np.array([pole]), np.array([[0.6, -0.8]])),
                                          np.zeros((1, 2)))

    @pytest.mark.parametrize("norm", [RandersNorm(np.eye(2), [0.3, 0.0]),
                                      EuclideanNorm(np.diag([1.0, 4.0]))],
                             ids=["randers", "anisotropic"])
    def test_sphere_rejects_a_norm_the_frame_turns(self, norm):
        # the frame jumps across the equator, so such a field is not continuous; the solve
        # would return 0/3 with a gap of 1e15 and no flag
        with pytest.raises(InvalidSettings, match="multiple of the Euclidean"):
            ConstantNormField(Sphere2(1.0), norm)

    def test_sphere_accepts_a_multiple_of_the_euclidean_norm(self):
        field = ConstantNormField(Sphere2(2.0), EuclideanNorm(9.0 * np.eye(2)))
        assert field.eval(np.array([0.0, 0.0, 2.0]), np.array([0.6, 0.8])) == pytest.approx(3.0)

    def test_conformal_rescale_multiplies(self):
        torus, base = randers_torus()
        field = ConformalRescaleField(base, cos_mode_rho(torus))
        x = np.array([0.0, 0.37])
        y = np.array([1.0, 0.0])
        assert field.eval(x, y) == pytest.approx(3.0 * base.eval(x, y), rel=1e-14)

    def test_sphere_rescale_gradients_match_finite_differences(self):
        # grad_x is the derivative along the frame vectors at fixed frame components,
        # which the round factor |y| does not notice: differences along great circles
        sphere = Sphere2(1.3)
        # 2 + (0.3, -0.1, 0.5).p + 0.2 |p|^2 in q = p / R
        rho = SpherePolyScalar(sphere, {(0, 0, 0): 2.0, (1, 0, 0): 0.39, (0, 1, 0): -0.13, (0, 0, 1): 0.65,
                                        (2, 0, 0): 0.338, (0, 2, 0): 0.338, (0, 0, 2): 0.338})
        field = ConformalRescaleField(RoundSphereField(sphere), rho)
        y = np.array([0.6, -0.9])
        h = 1e-6
        for pt in _sphere_batch(sphere, 4):
            fd = np.array([
                (field.eval(_great_circle(sphere, pt, e, h), y)
                 - field.eval(_great_circle(sphere, pt, e, -h), y)) / (2 * h)
                for e in sphere.frame(pt).T
            ])
            np.testing.assert_allclose(field.grads_x(pt[None], y[None])[0], fd, atol=1e-7)

    def test_torus_rescale_flow_oracle(self):
        # translation flow of d/dx1 against the Lie derivative on a rescaled field
        torus, base = randers_torus()
        field = ConformalRescaleField(base, cos_mode_rho(torus))
        v = TorusFourierVectorField.coordinate(torus, 0)
        x = np.array([0.23, 0.61])
        y = np.array([0.8, 0.4])
        exact = lie_derivative(field, v, x, y)[0]
        for t in (1e-4, 1e-5):
            flow = TorusTranslation(torus, [t, 0.0])
            pulled = PullbackField(field, flow)
            fd = (pulled.eval(x, y) - field.eval(x, y)) / t
            assert abs(fd - exact) <= 100.0 * t

    def test_slices_pass_axiom_checks(self):
        torus, base = randers_torus()
        field = ConformalRescaleField(base, cos_mode_rho(torus))
        for x in torus.grid_points(2):
            assert check_axioms(field.norm_at(x), samples=50, seed=1).passed


class TestLieDerivative:
    def test_translation_field_on_constant_norm_vanishes(self):
        torus, field = randers_torus()
        v = TorusFourierVectorField.coordinate(torus, 0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(size=2)
            y = rng.standard_normal(2)
            assert abs(lie_derivative(field, v, x, y)[0]) <= 1e-14

    def test_rotations_kill_round_metric(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        rng = np.random.default_rng(2)
        points = sphere.fibonacci_points(24)
        for i in range(24):
            pt = points[i]
            for v in sphere_rotation_generators(sphere):
                y = rng.standard_normal(2)
                assert abs(lie_derivative(field, v, pt, y)[0]) <= 1e-8

    def test_translation_flow_is_conformal_with_y_independent_factor(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        v = _translation_generator(sphere, 0.4)
        rng = np.random.default_rng(3)
        factors_by_point = []
        points = sphere.fibonacci_points(12)
        for i in range(12):
            pt = points[i]
            vals = []
            for _ in range(6):
                y = rng.standard_normal(2)
                vals.append(lie_derivative(field, v, pt, y)[0] / field.eval(pt, y))
            assert max(vals) - min(vals) <= 1e-6
            factors_by_point.append(vals[0])
        assert max(factors_by_point) - min(factors_by_point) > 0.1  # non-constant factor

    def test_flow_oracle_first_order_agreement(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        v = _translation_generator(sphere, 0.4)
        pt = np.array([0.5, -0.2, np.sqrt(0.71)])
        y = np.array([0.7, 0.3])
        exact = lie_derivative(field, v, pt, y)[0]
        errs = []
        for t in (1e-4, 1e-5):
            flow = MobiusMap.translation(sphere, 0.4 * t)
            pulled = PullbackField(field, flow)
            errs.append(abs((pulled.eval(pt, y) - field.eval(pt, y)) / t - exact))
        assert errs[0] <= 1e-4 * 100.0
        assert errs[1] <= 1e-5 * 100.0

    def test_linearity_in_the_field(self):
        torus = FlatTorus()
        base = ConstantNormField(torus, RandersNorm(np.eye(2), [0.5, 0.0]))
        field = ConformalRescaleField(base, cos_mode_rho(torus))
        mode = TorusFourierScalar(torus, terms=[((1, 1), 0.7, -0.2)])
        v = TorusFourierVectorField.coordinate(torus, 0, mode)
        w = TorusFourierVectorField.coordinate(torus, 1, cos_mode_rho(torus))
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(size=2)
            y = rng.standard_normal(2)
            a, b = rng.standard_normal(2)
            combo = TorusFourierVectorField(
                torus,
                (
                    _scaled_scalar(mode, a),
                    _scaled_scalar(cos_mode_rho(torus), b),
                ),
            )
            lhs = lie_derivative(field, combo, x, y)[0]
            rhs = a * lie_derivative(field, v, x, y)[0] + b * lie_derivative(field, w, x, y)[0]
            assert abs(lhs - rhs) <= 1e-10

    def test_homogeneity_in_y(self):
        torus, base = randers_torus()
        field = ConformalRescaleField(base, cos_mode_rho(torus))
        v = TorusFourierVectorField.coordinate(
            torus, 1, TorusFourierScalar(torus, terms=[((0, 1), 0.5, 0.25)])
        )
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(size=2)
            y = rng.standard_normal(2)
            base_val = lie_derivative(field, v, x, y)[0]
            for lam in (0.5, 2.0, 7.0):
                assert abs(lie_derivative(field, v, x, lam * y)[0] - lam * base_val) <= 1e-8

    def test_degenerate_direction_rejected(self):
        torus, field = randers_torus()
        v = TorusFourierVectorField.coordinate(torus, 0)
        with pytest.raises(DegenerateVector):
            lie_derivative(field, v, np.zeros(2), np.zeros(2))

    def test_linearity_on_the_sphere(self):
        from finslerfields.manifold import CombinationVectorField

        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        elements = sphere_rotation_generators(sphere) + sphere_gradient_generators(sphere)
        rng = np.random.default_rng(9)
        points = sphere.fibonacci_points(10)
        for i in range(10):
            pt = points[i]
            y = rng.standard_normal(2)
            coeffs = rng.standard_normal(6)
            combo = CombinationVectorField(elements, coeffs)
            expected = sum(
                c * lie_derivative(field, el, pt, y)[0] for c, el in zip(coeffs, elements)
            )
            assert abs(lie_derivative(field, combo, pt, y)[0] - expected) <= 1e-10

    def test_rotating_the_sphere_leaves_the_scalar(self):
        # L_V F at (p, y) equals L_{M V} F at (M p, M y) for a rotation M: the frames at
        # p and at M p are unrelated, so the scalar does not depend on the frame
        sphere = Sphere2(1.3)
        field = RoundSphereField(sphere)
        matrix = np.array([[0.2, 0.0, 0.0], [-0.4, 0.1, 0.7], [0.0, 0.5, -0.3]])
        shift = np.array([1.0, 0.0, -0.2])
        v = _affine_field(sphere, matrix, shift)
        rot = _rodrigues([0.3, -0.5, 0.8], 0.7)
        moved = _affine_field(sphere, rot @ matrix @ rot.T, rot @ shift)
        rng = np.random.default_rng(10)
        for p in _sphere_batch(sphere, 6):
            y = np.cross(p, rng.standard_normal(3))
            here = lie_derivative(field, v, p, sphere.frame(p).T @ y)[0]
            there = lie_derivative(field, moved, rot @ p, sphere.frame(rot @ p).T @ (rot @ y))[0]
            assert there == pytest.approx(here, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("rescaled", [False, True], ids=["round", "rescaled"])
    def test_lie_derivative_is_the_rate_along_the_ambient_flow(self, rescaled):
        # d/dt F(phi_t p, D phi_t y) at t = 0 by central differences, for each affine ansatz
        # field: phi_t = exp(t A) for a rotation, RK4 on the flow and its Jacobian otherwise
        sphere = Sphere2(1.3)
        field = RoundSphereField(sphere)
        if rescaled:
            rho = SpherePolyScalar(sphere, {(0, 0, 0): 2.0, (0, 0, 1): 0.5})
            field = ConformalRescaleField(field, rho)

        def value(p, v):
            return field.evals(p, sphere.frame(p).T @ v)[0]

        rng = np.random.default_rng(11)
        h = 1e-5
        for element in sphere_basis(sphere, 1).elements:
            matrix, shift = _affine_parts(element)
            for p in _sphere_batch(sphere, 4, seed=12):
                y = np.cross(p, rng.standard_normal(3))
                if np.array_equal(matrix, -matrix.T) and not shift.any():
                    steps = [_skew_exp(t * matrix) for t in (h, -h)]
                    moved = [(step @ p, step @ y) for step in steps]
                else:
                    moved = [_rk4_flow(sphere, matrix, shift, p, y, t) for t in (h, -h)]
                rate = (value(*moved[0]) - value(*moved[1])) / (2 * h)
                exact = lie_derivative(field, element, p, sphere.frame(p).T @ y)[0]
                assert abs(rate - exact) <= 1e-8 * value(p, y)


class TestPullback:
    def test_torus_translation_preserves_constant_field(self):
        torus, field = randers_torus()
        pulled = PullbackField(field, TorusTranslation(torus, [0.3, 0.8]))
        rng = np.random.default_rng(6)
        for _ in range(8):
            x = rng.uniform(size=2)
            y = rng.standard_normal(2)
            assert pulled.eval(x, y) == pytest.approx(field.eval(x, y), abs=1e-12)

    def test_sphere_rotation_is_isometry(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        rot = MobiusMap.rotation(sphere, [0.3, -0.5, 0.8], 0.7)
        pulled = PullbackField(field, rot)
        rng = np.random.default_rng(7)
        points = sphere.fibonacci_points(20)
        for i in range(20):
            pt = points[i]
            y = rng.standard_normal(2)
            assert pulled.eval(pt, y) == pytest.approx(field.eval(pt, y), rel=1e-10)

    def test_scaling_mobius_is_conformal(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        pulled = PullbackField(field, MobiusMap.scaling(sphere, 2.0))
        rng = np.random.default_rng(8)
        points = sphere.fibonacci_points(15)
        for i in range(15):
            pt = points[i]
            ratios = []
            for _ in range(5):
                y = rng.standard_normal(2)
                ratios.append(pulled.eval(pt, y) / field.eval(pt, y))
            assert max(ratios) - min(ratios) <= 1e-8

    def test_pulled_slice_norm_matches_values(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        mob = MobiusMap.translation(sphere, 0.3 + 0.1j)
        pulled = PullbackField(field, mob)
        pt = np.array([0.2, 0.4, -np.sqrt(0.8)])
        slice_norm = pulled.norm_at(pt)
        y = np.array([1.1, -0.7])
        assert float(slice_norm(y)) == pytest.approx(pulled.eval(pt, y), rel=1e-12)


class TestAveragedField:
    def test_riemannian_field_is_fixed_point(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        averaged = PointwiseAveragedField(field, 256)
        points = sphere.fibonacci_points(6)
        for i in range(6):
            pt = points[i]
            np.testing.assert_allclose(
                averaged.matrix_at(pt), field.norm_at(pt).matrix, atol=1e-10
            )

    def test_randers_torus_averages_to_constant_flat_metric(self):
        torus, field = randers_torus()
        averaged = PointwiseAveragedField(field, 512)
        mats = [averaged.matrix_at(x) for x in torus.grid_points(3)]
        for mat in mats[1:]:
            np.testing.assert_allclose(mat, mats[0], atol=1e-12)
        assert np.linalg.eigvalsh(mats[0])[0] > 0.0

    def test_rescale_squares_through_the_average(self):
        torus, base = randers_torus()
        rho = cos_mode_rho(torus)
        rescaled = ConformalRescaleField(base, rho)
        averaged_base = PointwiseAveragedField(base, 512)
        averaged_rescaled = PointwiseAveragedField(rescaled, 512)
        for x in torus.grid_points(4):
            expected = rho.value(x) ** 2 * averaged_base.matrix_at(x)
            assert np.max(np.abs(averaged_rescaled.matrix_at(x) - expected)) <= 1e-6

    def test_conformal_field_rescales_averaged_metric_derivative(self):
        # for V = d/dx1 and factor phi = (d1 rho)/rho, the averaged metric G
        # satisfies L_V G = 2 phi G; x-derivatives of G taken by differences
        torus, base = randers_torus()
        rho = cos_mode_rho(torus)
        field = ConformalRescaleField(base, rho)
        averaged = PointwiseAveragedField(field, 256)
        h = 1e-4
        for x in ([0.13, 0.4], [0.31, 0.9], [0.72, 0.05]):
            x = np.array(x)
            dg = (averaged.matrix_at(x + [h, 0.0]) - averaged.matrix_at(x - [h, 0.0])) / (2 * h)
            g = averaged.matrix_at(x)
            phi = rho.grads(x[None])[0, 0] / rho.value(x)
            assert np.max(np.abs(dg - 2.0 * phi * g)) <= 1e-5 * np.max(np.abs(g))


class TestRatioInvariance:
    def test_torus_translation(self):
        torus, field = randers_torus()
        assert isometry_ratio_invariance(field, TorusTranslation(torus, [0.2, 0.5])) == 0.0

    def test_sphere_rotation(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        rot = MobiusMap.rotation(sphere, [0.0, 0.0, 1.0], 0.9)
        assert isometry_ratio_invariance(field, rot) <= 1e-10

    def test_mobius_translation(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        mob = MobiusMap.translation(sphere, 0.3)
        assert isometry_ratio_invariance(field, mob) <= 1e-8


def _circle():
    """The circle of length 2 pi as a 1-torus."""
    return FlatTorus([[2.0 * np.pi]])


class TestCircleProfile:
    def test_reversible_field_has_unit_ratio(self):
        circle = _circle()
        scale = TorusFourierScalar(circle, const=1.5, terms=[((1,), 0.3, 0.0)])
        field = CircleNormField(circle, forward=scale, backward=scale)
        profile = circle_lambda_profile(field)
        assert profile.constant
        assert np.max(np.abs(profile.values - 1.0)) <= 1e-12

    def test_varying_ratio_flagged_nonconstant(self):
        circle = _circle()
        field = CircleNormField(
            circle,
            forward=TorusFourierScalar(circle, const=2.0, terms=[((1,), 0.0, 1.0)]),
            backward=TorusFourierScalar(circle, const=1.0),
        )
        profile = circle_lambda_profile(field)
        assert not profile.constant
        assert profile.xs.shape == (256, 1)
        expected = np.maximum(2.0 + np.sin(profile.xs[:, 0]), 1.0)
        np.testing.assert_allclose(profile.values, expected, atol=1e-12)
        assert profile.spread > 1.9

    def test_constant_anisotropy_ratio(self):
        circle = _circle()
        field = CircleNormField(
            circle,
            forward=TorusFourierScalar(circle, const=1.4),
            backward=TorusFourierScalar(circle, const=0.7),
        )
        profile = circle_lambda_profile(field)
        assert profile.constant
        assert profile.values[0] == pytest.approx(2.0, abs=1e-14)

    def test_batched_ratio_equals_the_one_point_evaluations(self):
        circle = _circle()
        field = CircleNormField(
            circle,
            forward=TorusFourierScalar(circle, const=2.0, terms=[((1,), 0.0, 1.0), ((3,), 0.2, -0.1)]),
            backward=TorusFourierScalar(circle, const=1.0, terms=[((2,), 0.3, 0.0)]),
        )
        xs = circle.grid_points(64, offset=(0.0,))
        plus = [field.eval(x, 1.0) for x in xs]
        minus = [field.eval(x, -1.0) for x in xs]
        expected = [max(p / m, m / p) for p, m in zip(plus, minus)]
        np.testing.assert_array_equal(field.ratio(xs), expected)

    def test_circle_average_uses_both_sides(self):
        circle = _circle()
        field = CircleNormField(
            circle,
            forward=TorusFourierScalar(circle, const=1.4),
            backward=TorusFourierScalar(circle, const=0.7),
        )
        averaged = PointwiseAveragedField(field, 16)
        expected = 0.5 * (1.4**2 + 0.7**2)
        assert averaged.matrix_at([0.3])[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_fourier_scalar_on_the_circle_is_the_harmonic_sum(self):
        # const + sum a cos(2 pi n x / L) + b sin(2 pi n x / L) on the circle of length L
        length = 2.0 * np.pi
        circle = FlatTorus([[length]])
        terms = [(1, 0.0, 1.0), (3, 0.2, -0.1)]
        scalar = TorusFourierScalar(circle, const=2.0, terms=[((n,), a, b) for n, a, b in terms])
        xs = circle.grid_points(64, offset=(0.0,))
        assert xs.shape == (64, 1)
        x = xs[:, 0]
        phases = [(n, a, b, 2 * np.pi * n * x / length) for n, a, b in terms]
        expected = 2.0 + sum(a * np.cos(psi) + b * np.sin(psi) for _, a, b, psi in phases)
        derivative = sum((2 * np.pi * n / length) * (b * np.cos(psi) - a * np.sin(psi))
                         for n, a, b, psi in phases)
        np.testing.assert_allclose(scalar.values(xs), expected, rtol=0, atol=1e-15)
        assert scalar.grads(xs).shape == (64, 1)
        np.testing.assert_allclose(scalar.grads(xs)[:, 0], derivative, rtol=0, atol=1e-14)

    def test_circle_norm_is_the_one_dimensional_randers_norm(self):
        circle = _circle()
        forward = TorusFourierScalar(circle, const=2.0, terms=[((1,), 0.0, 1.0)])
        field = CircleNormField(circle, forward=forward, backward=TorusFourierScalar(circle, const=0.5))
        for x in circle.grid_points(7, offset=(0.2,)):
            norm = field.norm_at(x)
            assert norm.dim == 1
            for y in (1.0, -1.0, 2.5, -0.3):
                assert norm(np.array([y])) == pytest.approx(field.eval(x, y), rel=1e-14)
        # q = 0 is not a norm: F(-1) = 0
        flat = CircleNormField(circle, forward=forward, backward=TorusFourierScalar(circle))
        with pytest.raises(InadmissibleNorm):
            flat.norm_at([0.1])


class TestTorusDimension:
    @pytest.mark.parametrize("lattice", [[[1.0, 2.0]], [1.0, 2.0], [[]], np.zeros((2, 2, 2)), [[np.nan]]],
                             ids=["2x1", "vector", "empty", "3-axis", "nan"])
    def test_lattice_that_is_not_a_finite_square_matrix_is_rejected(self, lattice):
        with pytest.raises(InvalidSettings, match="matrix"):
            FlatTorus(lattice)

    @pytest.mark.parametrize("lattice", [[[0.0]], np.diag([1.0, 1.0, 0.0])],
                             ids=["zero circle", "flat 3-torus"])
    def test_degenerate_lattice_of_any_dimension_is_rejected(self, lattice):
        with pytest.raises(InvalidSettings, match="degenerate"):
            FlatTorus(lattice)

    def test_three_torus_points_and_translations(self):
        torus = FlatTorus(np.diag([1.0, 2.0, 3.0]))
        assert torus.dim == 3
        grid = torus.grid_points(3, offset=(0.0, 0.0, 0.0))
        assert grid.shape == (27, 3)
        np.testing.assert_allclose(grid[:3], [[0, 0, 0], [0, 0, 1], [0, 0, 2]], atol=1e-15)
        shift = TorusTranslation(torus, [0.5, 1.5, 2.5])
        np.testing.assert_array_equal(shift.differential(grid), np.broadcast_to(np.eye(3), (27, 3, 3)))
        np.testing.assert_allclose(shift.apply(grid[1]), [0.5, 1.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("lattice", [[[2.0]], np.eye(3)], ids=["circle", "3-torus"])
    def test_grid_without_an_offset_is_the_two_torus_only(self, lattice):
        torus = FlatTorus(lattice)
        with pytest.raises(InvalidSettings, match=f"{torus.dim} entries"):
            torus.grid_points(3)
        with pytest.raises(InvalidSettings, match=f"{torus.dim} entries"):
            torus.grid_points(3, offset=(0.31, 0.47))
        assert FlatTorus().grid_points(3).shape == (9, 2)

    def test_constant_norm_on_the_circle_has_one_point_gradient_entry(self):
        circle = _circle()
        field = ConstantNormField(circle, EuclideanNorm(np.eye(1)))
        points = circle.grid_points(5, offset=(0.0,))
        ys = np.array([[1.0], [-2.0], [0.5], [3.0], [-1.0]])
        np.testing.assert_array_equal(field.grads_x(points, ys), np.zeros((5, 1)))
        np.testing.assert_allclose(field.evals(points, ys), np.abs(ys[:, 0]), rtol=0, atol=1e-15)

    def test_three_torus_fourier_scalar(self):
        torus = FlatTorus(np.diag([1.0, 2.0, 3.0]))
        scalar = TorusFourierScalar(torus, const=0.5, terms=[((1, 0, -2), 0.3, 0.4)])
        points = np.random.default_rng(4).uniform(size=(9, 3))
        psi = 2 * np.pi * (points[:, 0] - 2 * points[:, 2] / 3.0)
        np.testing.assert_allclose(scalar.values(points), 0.5 + 0.3 * np.cos(psi) + 0.4 * np.sin(psi),
                                   rtol=0, atol=1e-15)
        dpsi = 2 * np.pi * np.array([1.0, 0.0, -2.0 / 3.0])
        expected = (0.4 * np.cos(psi) - 0.3 * np.sin(psi))[:, None] * dpsi
        np.testing.assert_allclose(scalar.grads(points), expected, rtol=0, atol=1e-14)
        # the vector-field ansatz is the 2-torus's: its table has a 2 x 2 Jacobian
        for other in (torus, FlatTorus([[2.0]])):
            with pytest.raises(InvalidSettings, match="lives on a 2-torus"):
                TorusFourierVectorField.coordinate(other, 0)

    def test_circle_field_on_a_two_torus_is_rejected(self):
        torus = FlatTorus()
        with pytest.raises(InvalidSettings, match="1-torus"):
            CircleNormField(torus, TorusFourierScalar(torus, const=1.0), TorusFourierScalar(torus, const=1.0))

    def test_mode_of_the_wrong_length_is_rejected(self):
        with pytest.raises(InvalidSettings, match="entries"):
            TorusFourierScalar(FlatTorus(), terms=[((1,), 1.0, 0.0)])

    def test_norm_of_another_dimension_is_rejected(self):
        with pytest.raises(InvalidSettings, match="norm has dimension 3"):
            ConstantNormField(FlatTorus(), EuclideanNorm(np.eye(3)))
        with pytest.raises(InvalidSettings, match="norm has dimension 2"):
            ConstantNormField(_circle(), EuclideanNorm(np.eye(2)))

    @pytest.mark.parametrize("lattice", [[[2.0]], np.eye(3)], ids=["circle", "3-torus"])
    def test_torus_basis_takes_the_two_torus_only(self, lattice):
        with pytest.raises(InvalidSettings, match="2-torus"):
            torus_basis(FlatTorus(lattice), 1)


def _stereographic(sphere, points):
    """z = R (p1 + i p2) / (R - p3), away from the north pole."""
    r = sphere.radius
    return r * (points[:, 0] + 1j * points[:, 1]) / (r - points[:, 2])


def _from_stereographic(sphere, z):
    r2 = sphere.radius**2
    u = np.abs(z) ** 2
    return sphere.radius * np.stack([2 * sphere.radius * z.real, 2 * sphere.radius * z.imag,
                                     u - r2], axis=-1) / (u + r2)[:, None]


def _general_mobius(sphere):
    """A Mobius map that is no rotation, translation or scaling on its own."""
    parts = (MobiusMap.translation(sphere, 0.4 - 0.3j), MobiusMap.scaling(sphere, 1.7 + 0.4j),
             MobiusMap.rotation(sphere, [0.2, -0.7, 0.4], 1.1))
    return MobiusMap(sphere, parts[0].lorentz @ parts[1].lorentz @ parts[2].lorentz)


class TestMobiusDifferential:
    def _fd_differential(self, sphere, mob, pt, h=1e-6):
        """Differences of the image along great circles through pt, read in the image frame."""
        cols = [(mob.apply(_great_circle(sphere, pt, e, h))
                 - mob.apply(_great_circle(sphere, pt, e, -h))) / (2 * h) for e in sphere.frame(pt).T]
        return sphere.frame(mob.apply(pt)).T @ np.stack(cols, axis=1)

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    def test_differential_matches_finite_differences_at_both_poles(self, radius):
        sphere = Sphere2(radius)
        for mob in (_general_mobius(sphere), MobiusMap.scaling(sphere, 3.0),
                    MobiusMap.translation(sphere, 0.5 * radius)):
            for pt in _sphere_batch(sphere, 6, seed=1):
                fd = self._fd_differential(sphere, mob, pt, h=1e-6 * radius)
                np.testing.assert_allclose(mob.differential(pt), fd, atol=1e-6 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("radius", [1e-6, 1.3, 1e6])
    def test_constructors_match_their_closed_forms(self, radius):
        sphere = Sphere2(radius)
        points = _sphere_batch(sphere, 20, seed=2)
        north, rest = points[0], points[1:]
        rot = MobiusMap.rotation(sphere, [0.3, -0.5, 0.8], 0.7)
        np.testing.assert_allclose(rot.apply(points), points @ _rodrigues([0.3, -0.5, 0.8], 0.7).T,
                                   rtol=0, atol=1e-14 * radius)
        for scale in (2.5, 0.8 + 0.6j, 1e-8, 1e8):
            mob = MobiusMap.scaling(sphere, scale)
            np.testing.assert_allclose(mob.apply(north), north, rtol=0, atol=1e-15 * radius)
            expected = _from_stereographic(sphere, scale * _stereographic(sphere, rest))
            np.testing.assert_allclose(mob.apply(rest), expected, rtol=0, atol=1e-12 * radius)
        for shift in (0.3, 0.4 - 1.2j):
            mob = MobiusMap.translation(sphere, shift * radius)
            np.testing.assert_allclose(mob.apply(north), north, rtol=0, atol=1e-15 * radius)
            expected = _from_stereographic(sphere, _stereographic(sphere, rest) + shift * radius)
            np.testing.assert_allclose(mob.apply(rest), expected, rtol=0, atol=1e-13 * radius)

    def test_rotation_differential_is_the_rotation_in_the_frames(self):
        sphere = Sphere2(1.3)
        points = _sphere_batch(sphere, 8, seed=3)
        matrix = _rodrigues([1.0, 2.0, -0.5], 2.2)
        rot = MobiusMap.rotation(sphere, [1.0, 2.0, -0.5], 2.2)
        expected = np.swapaxes(sphere.frame(points @ matrix.T), 1, 2) @ matrix @ sphere.frame(points)
        np.testing.assert_allclose(rot.differential(points), expected, rtol=0, atol=1e-14)

    def test_identity_matrix_is_the_identity(self):
        sphere = Sphere2(1.0)
        mob = MobiusMap(sphere, np.eye(4))
        points = _sphere_batch(sphere, 3)
        np.testing.assert_array_equal(mob.apply(points), points)
        identity = np.broadcast_to(np.eye(2), (len(points), 2, 2))
        np.testing.assert_allclose(mob.differential(points), identity, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("matrix", [2.0 * np.eye(4), np.diag([-1.0, 1.0, 1.0, 1.0]),
                                        np.zeros((4, 4)), np.full((4, 4), np.nan)],
                             ids=["scaled", "time-reversing", "zero", "nan"])
    def test_non_lorentz_matrix_is_rejected(self, matrix):
        with pytest.raises(ValueError, match="Lorentz"):
            MobiusMap(Sphere2(1.0), matrix)

    @pytest.mark.parametrize("radius", [1e-8, 1.0, 1e8])
    def test_rotation_is_accepted_at_any_radius(self, radius):
        sphere = Sphere2(radius)
        quarter = MobiusMap.rotation(sphere, [0.0, 0.0, 1.0], 0.5 * np.pi)
        pt = radius * np.array([0.6, 0.0, 0.8])
        # the rotation about the polar axis turns (p1, p2) and keeps p3
        np.testing.assert_allclose(quarter.apply(pt), radius * np.array([0.0, 0.6, 0.8]),
                                   rtol=0, atol=1e-15 * radius)

    def test_rotation_composition_matches(self):
        sphere = Sphere2(1.0)
        first = MobiusMap.rotation(sphere, [1.0, 0.0, 0.0], 0.4)
        second = MobiusMap.rotation(sphere, [0.0, 1.0, 0.0], 0.9)
        composed = MobiusMap(sphere, second.lorentz @ first.lorentz)
        pt = np.array([0.5, -0.3, np.sqrt(0.66)])
        step1 = first.apply(pt)
        np.testing.assert_allclose(composed.apply(pt), second.apply(step1), atol=1e-12)
        chained = second.differential(step1) @ first.differential(pt)
        np.testing.assert_allclose(composed.differential(pt), chained, atol=1e-10)


class TestFlatTorusLattice:
    @pytest.mark.parametrize("scale", [1e-7, 1e7])
    def test_scaled_unit_lattice_is_accepted(self, scale):
        torus = FlatTorus(scale * np.eye(2))
        np.testing.assert_allclose(torus.frac(scale * np.array([0.25, 0.5])), [0.25, 0.5], rtol=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_degenerate_lattice_is_rejected_at_any_scale(self, scale):
        with pytest.raises(InvalidSettings, match="degenerate"):
            FlatTorus(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestVectorFieldRepresentations:
    def test_torus_fields_are_periodic(self):
        torus = FlatTorus(np.array([[2.0, 0.0], [0.5, 1.0]]))
        mode = TorusFourierScalar(torus, terms=[((2, -1), 0.3, 0.7)])
        v = TorusFourierVectorField.coordinate(torus, 0, mode)
        x = np.array([0.4, 0.9])
        for shift in torus.lattice.T:
            np.testing.assert_allclose(v.value(x + shift), v.value(x), atol=1e-12)
            np.testing.assert_allclose(v.jacobian(x + shift), v.jacobian(x), atol=1e-12)

    def test_sphere_field_jacobian_matches_finite_differences_at_both_poles(self):
        # E^T DX E: differences of the ambient field E X along great circles, read in the frame
        sphere = Sphere2(1.3)
        v = SpherePolyVectorField(sphere, {(1, 1, 0): [0.6, 0.2, -0.1], (0, 0, 2): [0.0, -0.4, 0.3],
                                           (0, 1, 0): [1.0, 0.0, 0.5]})
        h = 1e-6

        def ambient(p):
            return sphere.frame(p) @ v.value(p)

        for pt in _sphere_batch(sphere, 4, seed=4):
            fd = np.stack([(ambient(_great_circle(sphere, pt, e, h))
                            - ambient(_great_circle(sphere, pt, e, -h))) / (2 * h)
                           for e in sphere.frame(pt).T], axis=1)
            np.testing.assert_allclose(v.jacobian(pt), sphere.frame(pt).T @ fd, atol=1e-8)

    def test_rotation_generators_close_cyclically(self):
        sphere = Sphere2(1.0)
        r1, r2, r3 = sphere_rotation_generators(sphere)
        pt = np.array([0.3, 0.8, -np.sqrt(0.27)])
        bracket = r2.jacobian(pt) @ r1.value(pt) - r1.jacobian(pt) @ r2.value(pt)
        np.testing.assert_allclose(bracket, r3.value(pt), atol=1e-12)


def _affine_field(sphere, matrix, shift):
    """The tangent projection of w(q) = matrix q + shift, q = p / R."""
    units = [tuple(u) for u in np.eye(3, dtype=int)]
    return SpherePolyVectorField(sphere, {(0, 0, 0): shift, **dict(zip(units, np.transpose(matrix)))})


def _affine_parts(field):
    """(matrix, shift) of a field of degree <= 1."""
    zero = np.zeros(3)
    units = [tuple(u) for u in np.eye(3, dtype=int)]
    assert set(field.coeffs) <= {(0, 0, 0), *units}
    return (np.column_stack([field.coeffs.get(u, zero) for u in units]),
            field.coeffs.get((0, 0, 0), zero))


def _translation_generator(sphere, b):
    """The generator of z -> z + b t in z = R (p1 + i p2) / (R - p3), for real b."""
    matrix = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return _affine_field(sphere, b / sphere.radius * matrix, b / sphere.radius * np.eye(3)[0])


def _rodrigues(axis, angle):
    """The rotation by angle about axis, counterclockwise seen from its tip."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.cross(k, np.eye(3)).T    # cross @ v = k x v
    return np.eye(3) + np.sin(angle) * cross + (1.0 - np.cos(angle)) * cross @ cross


def _skew_exp(skew):
    """exp of a skew 3x3 matrix."""
    axis = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
    angle = np.linalg.norm(axis)
    return np.eye(3) if angle == 0.0 else _rodrigues(axis, angle)


def _rk4_flow(sphere, matrix, shift, p, y, t):
    """One RK4 step of length t for the ambient flow of the projected affine field and
    its Jacobian acting on y: (phi_t p, D phi_t y)."""
    r2 = sphere.radius**2

    def rates(state):
        x, v = state
        w = matrix @ x + sphere.radius * shift
        jac = matrix - np.outer(x, w + matrix.T @ x) / r2 - (x @ w) / r2 * np.eye(3)
        return np.array([w - (x @ w) * x / r2, jac @ v])

    state = np.array([p, y], dtype=float)
    k1 = rates(state)
    k2 = rates(state + 0.5 * t * k1)
    k3 = rates(state + 0.5 * t * k2)
    k4 = rates(state + t * k3)
    return state + t * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _scaled_scalar(scalar, factor):
    """factor * scalar as a Fourier scalar with scaled coefficients."""
    return TorusFourierScalar(scalar.torus, const=factor * scalar.const,
                              terms=[(k, factor * a, factor * b) for k, a, b in scalar.terms])


def test_constant_scalar_interface():
    c = TorusFourierScalar(FlatTorus(), const=2.5)
    assert c.value(np.zeros(2)) == 2.5
    np.testing.assert_allclose(c.grads(np.zeros((1, 2))), np.zeros((1, 2)))
