import numpy as np
import pytest

from finslerfields.errors import ChartDomainError, DegenerateVector
from finslerfields.manifold import (
    ChartPoint,
    Circle,
    CircleFourierScalar,
    CircleNormField,
    ConformalRescaleField,
    ConstantNormField,
    ConstantScalar,
    FlatTorus,
    MobiusMap,
    PointwiseAveragedField,
    PullbackField,
    RoundSphereField,
    Sphere2,
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


class TestSphereCharts:
    def test_transition_is_involutive(self):
        sphere = Sphere2(1.3)
        p = np.array([0.8, -0.4])
        assert np.max(np.abs(sphere.transition(sphere.transition(p)) - p)) <= 1e-10

    def test_transition_jacobian_and_hessian_match_finite_differences(self):
        sphere = Sphere2(1.0)
        p = np.array([0.7, 0.2])
        h = 1e-6
        jac_fd = np.stack(
            [(sphere.transition(p + h * e) - sphere.transition(p - h * e)) / (2 * h)
             for e in np.eye(2)], axis=1)
        np.testing.assert_allclose(sphere.transition_jacobian(p), jac_fd, atol=1e-8)
        hess_fd = np.stack(
            [(sphere.transition_jacobian(p + h * e) - sphere.transition_jacobian(p - h * e)) / (2 * h)
             for e in np.eye(2)], axis=2)
        np.testing.assert_allclose(sphere.transition_hessian(p), hess_fd, atol=1e-7)

    def test_ambient_agrees_across_charts(self):
        sphere = Sphere2(2.0)
        pt0 = ChartPoint(0, np.array([1.1, -0.6]))
        pt1 = sphere.convert(pt0, 1)
        np.testing.assert_allclose(sphere.ambient(pt0), sphere.ambient(pt1), atol=1e-12)
        assert np.linalg.norm(sphere.ambient(pt0)) == pytest.approx(2.0, abs=1e-12)

    def test_chart_assignment_prefers_bounded_coordinate(self):
        sphere = Sphere2(1.0)
        near_north = sphere.chart_point(10.0 + 0.0j)
        assert near_north.chart == 1
        assert np.linalg.norm(near_north.coords) <= 0.2

    def test_metric_agrees_on_overlap(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.uniform(0.6, 1.4, size=2)  # inside the overlap annulus
            pt0 = ChartPoint(0, p)
            pt1 = sphere.convert(pt0, 1)
            y = rng.standard_normal(2)
            pushed = sphere.transition_jacobian(p) @ y
            assert abs(field.eval(pt0, y) - field.eval(pt1, pushed)) <= 1e-8

    def test_pole_transition_rejected(self):
        with pytest.raises(ChartDomainError):
            Sphere2(1.0).transition(np.zeros(2))


class TestMetricEval:
    def test_torus_constant_norm_is_x_independent(self):
        torus, field = randers_torus()
        for x in torus.grid_points(3):
            assert field.eval(x, np.array([1.0, 0.0])) == pytest.approx(1.5, abs=1e-14)

    def test_round_sphere_origin_factor(self):
        field = RoundSphereField(Sphere2(1.0))
        origin = ChartPoint(0, np.zeros(2))
        assert field.eval(origin, np.array([1.0, 0.0])) == pytest.approx(2.0, abs=1e-14)

    def test_conformal_rescale_multiplies(self):
        torus, base = randers_torus()
        field = ConformalRescaleField(base, cos_mode_rho(torus))
        x = np.array([0.0, 0.37])
        y = np.array([1.0, 0.0])
        assert field.eval(x, y) == pytest.approx(3.0 * base.eval(x, y), rel=1e-14)

    def test_sphere_rescale_gradients_match_finite_differences(self):
        from finslerfields.manifold import AmbientPolyScalar

        sphere = Sphere2(1.0)
        rho = AmbientPolyScalar(sphere, const=2.0, linear=[0.3, -0.1, 0.5],
                                quadratic=0.2 * np.eye(3))
        field = ConformalRescaleField(RoundSphereField(sphere), rho)
        y = np.array([0.6, -0.9])
        h = 1e-6
        for pt in (ChartPoint(0, np.array([0.4, 0.7])), ChartPoint(1, np.array([-0.3, 0.2]))):
            fd = np.array([
                (field.eval(ChartPoint(pt.chart, pt.coords + h * e), y)
                 - field.eval(ChartPoint(pt.chart, pt.coords - h * e), y)) / (2 * h)
                for e in np.eye(2)
            ])
            np.testing.assert_allclose(field.grad_x(pt, y), fd, atol=1e-7)

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
            pt = _point_at(points, i)
            for v in sphere_rotation_generators(sphere):
                y = rng.standard_normal(2)
                assert abs(lie_derivative(field, v, pt, y)[0]) <= 1e-8

    def test_translation_flow_is_conformal_with_y_independent_factor(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        v = SpherePolyVectorField(sphere, {(0, 0): 0.4})  # generator of z -> z + 0.4 t
        rng = np.random.default_rng(3)
        factors_by_point = []
        points = sphere.fibonacci_points(12)
        for i in range(12):
            pt = _point_at(points, i)
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
        v = SpherePolyVectorField(sphere, {(0, 0): 0.4})
        pt = ChartPoint(0, np.array([0.5, -0.2]))
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
            pt = _point_at(points, i)
            y = rng.standard_normal(2)
            coeffs = rng.standard_normal(6)
            combo = CombinationVectorField(elements, coeffs)
            expected = sum(
                c * lie_derivative(field, el, pt, y)[0] for c, el in zip(coeffs, elements)
            )
            assert abs(lie_derivative(field, combo, pt, y)[0] - expected) <= 1e-10

    def test_chart_invariance_of_the_scalar(self):
        # evaluating L_V F in either chart representation gives the same number
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        v = sphere_gradient_generators(sphere)[0]
        p = np.array([0.9, 0.5])
        pt0 = ChartPoint(0, p)
        pt1 = sphere.convert(pt0, 1)
        y = np.array([0.3, -1.2])
        pushed = sphere.transition_jacobian(p) @ y
        assert lie_derivative(field, v, pt0, y)[0] == pytest.approx(
            lie_derivative(field, v, pt1, pushed)[0], abs=1e-10
        )


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
            pt = _point_at(points, i)
            y = rng.standard_normal(2)
            assert pulled.eval(pt, y) == pytest.approx(field.eval(pt, y), rel=1e-10)

    def test_scaling_mobius_is_conformal(self):
        sphere = Sphere2(1.0)
        field = RoundSphereField(sphere)
        pulled = PullbackField(field, MobiusMap.scaling(sphere, 2.0))
        rng = np.random.default_rng(8)
        points = sphere.fibonacci_points(15)
        for i in range(15):
            pt = _point_at(points, i)
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
        pt = ChartPoint(0, np.array([0.2, 0.4]))
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
            pt = _point_at(points, i)
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
            phi = rho.grad(x)[0] / rho.value(x)
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


class TestCircleProfile:
    def test_reversible_field_has_unit_ratio(self):
        circle = Circle()
        scale = CircleFourierScalar(circle, const=1.5, terms=[(1, 0.3, 0.0)])
        field = CircleNormField(circle, forward=scale, backward=scale)
        profile = circle_lambda_profile(field)
        assert profile.constant
        assert np.max(np.abs(profile.values - 1.0)) <= 1e-12

    def test_varying_ratio_flagged_nonconstant(self):
        circle = Circle()
        field = CircleNormField(
            circle,
            forward=CircleFourierScalar(circle, const=2.0, terms=[(1, 0.0, 1.0)]),
            backward=CircleFourierScalar(circle, const=1.0),
        )
        profile = circle_lambda_profile(field, grid=256)
        assert not profile.constant
        expected = np.maximum(2.0 + np.sin(profile.xs), 1.0)
        np.testing.assert_allclose(profile.values, expected, atol=1e-12)
        assert profile.spread > 1.9

    def test_constant_anisotropy_ratio(self):
        circle = Circle()
        field = CircleNormField(
            circle,
            forward=CircleFourierScalar(circle, const=1.4),
            backward=CircleFourierScalar(circle, const=0.7),
        )
        profile = circle_lambda_profile(field)
        assert profile.constant
        assert profile.values[0] == pytest.approx(2.0, abs=1e-14)

    def test_batched_ratio_equals_the_one_point_evaluations(self):
        circle = Circle()
        field = CircleNormField(
            circle,
            forward=CircleFourierScalar(circle, const=2.0, terms=[(1, 0.0, 1.0), (3, 0.2, -0.1)]),
            backward=CircleFourierScalar(circle, const=1.0, terms=[(2, 0.3, 0.0)]),
        )
        xs = circle.sample_points(64)
        plus = [field.eval(x, 1.0) for x in xs]
        minus = [field.eval(x, -1.0) for x in xs]
        expected = [max(p / m, m / p) for p, m in zip(plus, minus)]
        np.testing.assert_array_equal(field.ratio(xs), expected)

    def test_profile_csv_export(self, tmp_path):
        circle = Circle()
        field = CircleNormField(
            circle,
            forward=CircleFourierScalar(circle, const=1.4),
            backward=CircleFourierScalar(circle, const=0.7),
        )
        path = circle_lambda_profile(field, grid=16).to_csv(tmp_path / "profile.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 17

    def test_circle_average_uses_both_sides(self):
        circle = Circle()
        field = CircleNormField(
            circle,
            forward=CircleFourierScalar(circle, const=1.4),
            backward=CircleFourierScalar(circle, const=0.7),
        )
        averaged = PointwiseAveragedField(field, 16)
        expected = 0.5 * (1.4**2 + 0.7**2)
        assert averaged.matrix_at(0.3)[0, 0] == pytest.approx(expected, abs=1e-14)


class TestMobiusDifferential:
    def _fd_differential(self, sphere, mob, pt, h=1e-7):
        image = mob.apply(pt)
        cols = []
        for e in np.eye(2):
            plus = sphere.convert(mob.apply(ChartPoint(pt.chart, pt.coords + h * e)), image.chart)
            minus = sphere.convert(mob.apply(ChartPoint(pt.chart, pt.coords - h * e)), image.chart)
            cols.append((plus.coords - minus.coords) / (2 * h))
        return np.stack(cols, axis=1)

    def test_all_chart_combinations(self):
        sphere = Sphere2(1.0)
        mob = MobiusMap(sphere, [[1.2 + 0.3j, 0.4], [-0.1j, 1.0]])
        cases = [
            ChartPoint(0, np.array([0.2, 0.1])),    # stays in chart 0
            ChartPoint(0, np.array([1.2, 0.9])),    # crosses into chart 1
            ChartPoint(1, np.array([0.15, -0.1])),  # near-pole source
            ChartPoint(1, np.array([1.1, 0.8])),    # chart 1 to chart 0
        ]
        for pt in cases:
            jac = mob.differential(pt)
            fd = self._fd_differential(sphere, mob, pt)
            np.testing.assert_allclose(jac, fd, atol=1e-6)

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_scaled_identity_is_accepted_as_the_identity(self, scale):
        sphere = Sphere2(1.0)
        mob = MobiusMap(sphere, scale * np.eye(2))
        points = ChartPoint(np.array([0, 0, 1]), np.array([[0.2, 0.1], [1.0, -0.9], [0.3, 0.4]]))
        image = mob.apply(points)
        np.testing.assert_array_equal(image.chart, points.chart)
        np.testing.assert_allclose(image.coords, points.coords, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(mob.differential(points), np.broadcast_to(np.eye(2), (3, 2, 2)),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_singular_matrix_is_rejected_at_any_scale(self, scale):
        with pytest.raises(ValueError, match="singular"):
            MobiusMap(Sphere2(1.0), scale * np.array([[1.0, 2.0], [2.0, 4.0]]))

    @pytest.mark.parametrize("radius", [1e-8, 1.0, 1e8])
    def test_rotation_is_accepted_at_any_radius(self, radius):
        sphere = Sphere2(radius)
        quarter = MobiusMap.rotation(sphere, [0.0, 0.0, 1.0], 0.5 * np.pi)
        pt = ChartPoint(0, radius * np.array([0.3, 0.2]))
        # the rotation about the polar axis multiplies z by a unit complex number
        image = quarter.apply(pt)
        assert image.chart == 0
        assert np.linalg.norm(image.coords) == pytest.approx(np.linalg.norm(pt.coords), rel=1e-12)

    def test_rotation_composition_matches(self):
        sphere = Sphere2(1.0)
        first = MobiusMap.rotation(sphere, [1.0, 0.0, 0.0], 0.4)
        second = MobiusMap.rotation(sphere, [0.0, 1.0, 0.0], 0.9)
        composed = MobiusMap(sphere, second.matrix @ first.matrix)
        pt = ChartPoint(0, np.array([0.5, -0.3]))
        step1 = first.apply(pt)
        two_steps = sphere.convert(second.apply(step1), composed.apply(pt).chart)
        np.testing.assert_allclose(composed.apply(pt).coords, two_steps.coords, atol=1e-12)
        chained = second.differential(step1) @ first.differential(pt)
        np.testing.assert_allclose(composed.differential(pt), chained, atol=1e-10)


class TestFlatTorusLattice:
    @pytest.mark.parametrize("scale", [1e-7, 1e7])
    def test_scaled_unit_lattice_is_accepted(self, scale):
        torus = FlatTorus(scale * np.eye(2))
        np.testing.assert_allclose(torus.frac(scale * np.array([0.25, 0.5])), [0.25, 0.5], rtol=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_degenerate_lattice_is_rejected_at_any_scale(self, scale):
        with pytest.raises(ValueError, match="degenerate"):
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

    def test_sphere_field_jacobian_matches_finite_differences_in_second_chart(self):
        sphere = Sphere2(1.0)
        v = SpherePolyVectorField(sphere, {(1, 1): 0.6 + 0.2j, (0, 2): -0.4j})
        q = np.array([0.8, -0.5])
        pt = ChartPoint(1, q)
        h = 1e-6
        fd = np.stack(
            [(v.value(ChartPoint(1, q + h * e)) - v.value(ChartPoint(1, q - h * e))) / (2 * h)
             for e in np.eye(2)], axis=1)
        np.testing.assert_allclose(v.jacobian(pt), fd, atol=1e-7)

    def test_rotation_generators_close_cyclically(self):
        sphere = Sphere2(1.0)
        r1, r2, r3 = sphere_rotation_generators(sphere)
        pt = ChartPoint(0, np.array([0.3, 0.8]))
        bracket = r2.jacobian(pt) @ r1.value(pt) - r1.jacobian(pt) @ r2.value(pt)
        np.testing.assert_allclose(bracket, r3.value(pt), atol=1e-12)


def _point_at(points, i):
    """Point i of a sphere batch."""
    return ChartPoint(points.chart[i], points.coords[i])


def _scaled_scalar(scalar, factor):
    """factor * scalar as a Fourier scalar with scaled coefficients."""
    return TorusFourierScalar(scalar.torus, const=factor * scalar.const,
                              terms=[(k, factor * a, factor * b) for k, a, b in scalar.terms])


def test_constant_scalar_interface():
    c = ConstantScalar(2.5)
    assert c.value(np.zeros(2)) == 2.5
    np.testing.assert_allclose(c.grad(np.zeros(2)), np.zeros(2))
