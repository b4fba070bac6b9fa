import numpy as np
import pytest

from finslerfields.averaging import (
    average,
    averaged_norm,
    sample_indicatrix,
    verify_equivariance,
)
from finslerfields.errors import HypothesisViolation
from finslerfields.norm_core import EuclideanNorm, RandersNorm, scale_norm

# Independent Simpson + finite-difference oracle values for Randers(I, (0.3, 0)):
# diagonal averaged matrix and total Hessian-metric measure of the indicatrix.
RANDERS_03_DIAG = (1.0381125, 0.9825907)
RANDERS_03_TOTAL_MEASURE = 6.3947803


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def simpson(values, step):
    coeffs = np.ones(len(values))
    coeffs[1:-1:2] = 4.0
    coeffs[2:-1:2] = 2.0
    return float(np.sum(coeffs * values) * step / 3.0)


class TestSampleIndicatrix:
    def test_round_circle_uniform_weights(self):
        quad = sample_indicatrix(EuclideanNorm(np.eye(2)), 64)
        assert quad.total_weight == pytest.approx(2.0 * np.pi, abs=1e-3)
        assert np.ptp(quad.weights) < 1e-14

    def test_nodes_sit_on_unit_level(self):
        norm = RandersNorm(np.eye(2), [0.5, 0.0])
        quad = sample_indicatrix(norm, 128)
        assert np.max(np.abs(norm(quad.points) - 1.0)) <= 1e-10
        assert np.all(quad.weights > 0.0)

    def test_ellipse_measure_matches_arc_length_oracle(self):
        # metric-Q arc length of the Q-unit ellipse via direct 1-D quadrature
        q = np.diag([1.0, 4.0])
        ts = np.linspace(0.0, 2.0 * np.pi, 20001)
        ellipse_speed = []
        for t in ts:
            deriv = np.array([-np.sin(t), np.cos(t) / 2.0])
            ellipse_speed.append(np.sqrt(deriv @ q @ deriv))
        oracle = simpson(np.array(ellipse_speed), ts[1] - ts[0])
        quad = sample_indicatrix(EuclideanNorm(q), 256)
        assert quad.total_weight == pytest.approx(oracle, abs=1e-9)

    def test_randers_measure_converges_under_refinement(self):
        norm = RandersNorm(np.eye(2), [0.5, 0.0])
        totals = [sample_indicatrix(norm, res).total_weight for res in (64, 256, 1024)]
        assert all(np.isfinite(totals))
        assert abs(totals[1] - totals[0]) <= 1e-12
        assert abs(totals[2] - totals[1]) <= 1e-12

    def test_randers_measure_frozen_value(self):
        norm = RandersNorm(np.eye(2), [0.3, 0.0])
        quad = sample_indicatrix(norm, 1024)
        assert quad.total_weight == pytest.approx(RANDERS_03_TOTAL_MEASURE, abs=1e-6)

    def test_sphere_measure_converges_to_area(self):
        norm = EuclideanNorm(np.eye(3))
        coarse = abs(sample_indicatrix(norm, 512).total_weight - 4.0 * np.pi)
        fine = abs(sample_indicatrix(norm, 2048).total_weight - 4.0 * np.pi)
        assert fine < coarse / 3.0

    def test_resolution_floors(self):
        with pytest.raises(ValueError):
            sample_indicatrix(EuclideanNorm(np.eye(2)), 8)
        with pytest.raises(ValueError):
            sample_indicatrix(EuclideanNorm(np.eye(3)), 100)

    def test_table_export_shape(self):
        quad = sample_indicatrix(EuclideanNorm(np.eye(2)), 32)
        assert quad.to_table().shape == (32, 3)

    def test_convexity_violation_propagates(self):
        from finslerfields.errors import ConvexityViolation
        from finslerfields.norm_core import GenericNorm

        quartic = GenericNorm(2, lambda y: (y[:, 0] ** 4 + y[:, 1] ** 4) ** 0.25)
        with pytest.raises(ConvexityViolation):
            sample_indicatrix(quartic, 64)


class TestAveragedNorm:
    def test_euclidean_fixed_point(self):
        q = np.array([[1.0, 0.2], [0.2, 3.0]])
        result = average(EuclideanNorm(q), 256)
        assert np.max(np.abs(result.matrix - q)) <= 1e-12

    def test_small_drift_continuity(self):
        for t in (0.1, 0.05):
            mat = average(RandersNorm(np.eye(2), [t, 0.0]), 512).matrix
            assert np.max(np.abs(mat - np.eye(2))) <= t

    def test_randers_diagonal_frozen_values(self):
        mat = average(RandersNorm(np.eye(2), [0.3, 0.0]), 1024).matrix
        assert abs(mat[0, 1]) <= 1e-10
        assert mat[0, 0] == pytest.approx(RANDERS_03_DIAG[0], abs=1e-6)
        assert mat[1, 1] == pytest.approx(RANDERS_03_DIAG[1], abs=1e-6)
        refined = average(RandersNorm(np.eye(2), [0.3, 0.0]), 2048).matrix
        assert np.max(np.abs(refined - mat)) <= 1e-6

    def test_three_dimensional_average(self):
        q = np.diag([1.0, 2.0, 5.0])
        assert np.max(np.abs(average(EuclideanNorm(q), 2048).matrix - q)) <= 1e-12
        mat = average(RandersNorm(np.eye(3), [0.2, 0.0, 0.0]), 2048).matrix
        assert np.linalg.eigvalsh(mat)[0] > 0.0
        assert abs(mat[1, 1] - mat[2, 2]) <= 1e-6  # rotational symmetry about axis 1
        assert np.max(np.abs(mat - np.diag(np.diag(mat)))) <= 1e-8

    @pytest.mark.parametrize("p,q", [(1.4, 0.7), (1.0, 1.0), (0.3, 2.5)])
    def test_one_dimensional_average_is_the_mean_square(self, p, q):
        # ((p + q)/2) |y| + ((p - q)/2) y: its indicatrix is 1/p and -1/q under counting measure
        norm = RandersNorm([[(0.5 * (p + q)) ** 2]], [0.5 * (p - q)])
        quad = sample_indicatrix(norm, 16)
        np.testing.assert_allclose(quad.points, [[1 / p], [-1 / q]], rtol=1e-15)
        np.testing.assert_array_equal(quad.weights, [1.0, 1.0])
        assert average(norm, 16).matrix[0, 0] == pytest.approx(0.5 * (p**2 + q**2), abs=1e-14)

    def test_average_evaluates_tensors_once(self):
        norm = RandersNorm(np.eye(2), [0.3, 0.0])
        calls = []
        batch = norm.tensor_batch

        def counting(ys, **kwargs):
            calls.append(len(ys))
            return batch(ys, **kwargs)

        norm.tensor_batch = counting
        average(norm, 256)
        assert calls == [256]

    def test_quadrature_keeps_node_tensors(self):
        norm = RandersNorm(np.eye(3), [0.2, 0.1, 0.0])
        quad = sample_indicatrix(norm, 512)
        assert quad.tensors.shape == (len(quad.weights), 3, 3)
        np.testing.assert_array_equal(quad.tensors, norm.tensor_batch(quad.points))

    def test_mismatched_quadrature_rejected(self):
        quad = sample_indicatrix(RandersNorm(np.eye(2), [0.5, 0.0]), 64)
        with pytest.raises(ValueError):
            averaged_norm(EuclideanNorm(np.eye(2)), quad)


class TestEquivariance:
    def test_trivial_identity(self):
        norm = EuclideanNorm(np.eye(2))
        assert verify_equivariance(norm, norm, np.eye(2), 1.0, resolution=64) == 0.0

    def test_linear_isometry_case(self):
        base = RandersNorm(np.eye(2), [0.3, 0.0])
        rot = rotation(np.pi / 6.0)
        composed = RandersNorm(rot.T @ base.a @ rot, rot.T @ base.b)
        assert verify_equivariance(composed, base, rot, 1.0, resolution=1024) <= 1e-6

    def test_pure_scaling_case(self):
        base = RandersNorm(np.eye(2), [0.3, 0.0])
        assert verify_equivariance(scale_norm(base, 2.0), base, np.eye(2), 2.0) <= 1e-8

    def test_residual_nonincreasing_under_refinement(self):
        base = RandersNorm(np.eye(2), [0.3, 0.0])
        rot = rotation(0.4)
        composed = RandersNorm(rot.T @ base.a @ rot, rot.T @ base.b)
        coarse = verify_equivariance(composed, base, rot, 1.0, resolution=64)
        fine = verify_equivariance(composed, base, rot, 1.0, resolution=128)
        assert fine <= max(0.5 * coarse, 1e-12)

    def test_hypothesis_violation_raises(self):
        base = RandersNorm(np.eye(2), [0.3, 0.0])
        with pytest.raises(HypothesisViolation):
            verify_equivariance(base, base, rotation(0.5), 1.0, resolution=64)

    def test_symmetry_of_norm_is_inherited_by_average(self):
        # reflection across the drift axis is an isometry of the norm
        base = RandersNorm(np.eye(2), [0.3, 0.0])
        reflect = np.diag([1.0, -1.0])
        mat = average(base, 512).matrix
        assert np.max(np.abs(reflect.T @ mat @ reflect - mat)) <= 1e-10
