import numpy as np
import pytest

from finslerfields.errors import ConvexityViolation, DegenerateVector, InadmissibleNorm
from finslerfields.norm_core import (
    HESSIAN_FD_STEP,
    EuclideanNorm,
    GenericNorm,
    RandersNorm,
    central_hessian,
    check_axioms,
    norm_from_dict,
    reversibility_sup,
    scale_norm,
)


def randers_05():
    return RandersNorm(np.eye(2), [0.5, 0.0])


def reference_tensor(norm, y):
    """Central-difference Hessian of F^2/2 at y, with the step GenericNorm takes."""
    y = np.asarray(y, dtype=float)[None]
    return central_hessian(lambda v: 0.5 * norm(v) ** 2, y,
                           HESSIAN_FD_STEP * np.linalg.norm(y, axis=1))[0]


def quartic_norm():
    return GenericNorm(2, lambda y: (y[:, 0] ** 4 + y[:, 1] ** 4) ** 0.25)


def generic_quadratic(q):
    """sqrt(y^T q y) as a GenericNorm with batched analytic gradient and Hessian of F."""
    def quad(y):
        return np.einsum("mi,ij,mj->m", y, q, y)

    return GenericNorm(
        2,
        lambda y: np.sqrt(quad(y)),
        grad=lambda y: y @ q / np.sqrt(quad(y))[:, None],
        hess=lambda y: (q / np.sqrt(quad(y))[:, None, None]
                        - np.einsum("mi,mj->mij", y @ q, y @ q) / quad(y)[:, None, None] ** 1.5),
    )


class TestEval:
    def test_euclidean_identity(self):
        norm = EuclideanNorm(np.eye(2))
        assert norm([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)

    def test_randers_axis_values(self):
        norm = randers_05()
        assert norm([1.0, 0.0]) == pytest.approx(1.5, abs=1e-14)
        assert norm([-1.0, 0.0]) == pytest.approx(0.5, abs=1e-14)

    def test_zero_vector_maps_to_zero(self):
        assert EuclideanNorm(np.eye(2))([0.0, 0.0]) == 0.0
        assert randers_05()([0.0, 0.0]) == 0.0

    def test_batch_evaluation(self):
        norm = randers_05()
        ys = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(norm(ys), [1.5, 0.5, 2.0], atol=1e-14)


class TestConstruction:
    def test_randers_inadmissible_drift_rejected(self):
        with pytest.raises(InadmissibleNorm):
            RandersNorm(np.eye(2), [1.0, 0.0])

    def test_randers_drift_measured_in_dual_norm(self):
        # |b|_euclidean > 1 but the a-dual norm is below 1
        RandersNorm(np.diag([9.0, 1.0]), [1.2, 0.0])
        with pytest.raises(InadmissibleNorm):
            RandersNorm(np.diag([1.0, 9.0]), [1.2, 0.0])

    def test_non_spd_matrix_rejected(self):
        with pytest.raises(ValueError):
            EuclideanNorm(np.diag([1.0, -1.0]))

    def test_serialization_roundtrip(self):
        for norm in (EuclideanNorm(np.diag([1.0, 4.0])), randers_05()):
            clone = norm_from_dict(norm.to_dict())
            y = np.array([0.3, -1.2])
            assert clone(y) == pytest.approx(float(norm(y)), rel=1e-15)


class TestFundamentalTensor:
    def test_euclidean_tensor_is_q_for_any_base(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        norm = EuclideanNorm(q)
        for y in ([1.0, 0.0], [0.4, -2.0], [3.0, 5.0]):
            np.testing.assert_allclose(norm.fundamental_tensor(y), q, atol=1e-14)

    def test_randers_quadratic_form_on_base_equals_norm_squared(self):
        norm = randers_05()
        y = np.array([1.0, 0.0])
        assert y @ norm.fundamental_tensor(y) @ y == pytest.approx(2.25, abs=1e-12)

    def test_randers_full_matrix_off_axis(self):
        # frozen closed-form value at y = (0, 1); finite differences agree to 1e-4
        norm = randers_05()
        expected = np.array([[1.25, 0.5], [0.5, 1.0]])
        analytic = norm.fundamental_tensor([0.0, 1.0])
        np.testing.assert_allclose(analytic, expected, atol=1e-12)
        np.testing.assert_allclose(reference_tensor(norm, [0.0, 1.0]), expected, atol=1e-4)

    def test_finite_difference_matches_analytic_randers(self):
        norm = RandersNorm(np.array([[1.3, 0.2], [0.2, 0.9]]), [0.2, -0.3])
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = rng.standard_normal(2)
            y /= np.linalg.norm(y)
            analytic = norm.fundamental_tensor(y)
            np.testing.assert_allclose(reference_tensor(norm, y), analytic, atol=1e-4)

    def test_tensor_scale_invariance(self):
        norm = randers_05()
        y = np.array([0.6, -0.8])
        g1 = norm.fundamental_tensor(y)
        g2 = norm.fundamental_tensor(2.0 * y)
        assert np.max(np.abs(g1 - g2)) <= 1e-8

    def test_euler_identity(self):
        rng = np.random.default_rng(2)
        norm = RandersNorm(np.array([[1.1, -0.1], [-0.1, 0.8]]), [0.1, 0.25])
        for _ in range(20):
            y = rng.standard_normal(2)
            f2 = float(norm(y)) ** 2
            assert y @ norm.fundamental_tensor(y) @ y == pytest.approx(f2, rel=1e-8)
            assert y @ reference_tensor(norm, y) @ y == pytest.approx(f2, rel=1e-5)

    def test_degenerate_base_rejected(self):
        with pytest.raises(DegenerateVector):
            randers_05().fundamental_tensor([1e-10, 0.0])

    def test_quartic_raises_convexity_violation_on_axis(self):
        with pytest.raises(ConvexityViolation) as err:
            quartic_norm().fundamental_tensor([1.0, 0.0])
        assert abs(err.value.eigenvalue) < 1e-4

    def test_generic_with_analytic_derivatives(self):
        q = np.diag([2.0, 3.0])
        np.testing.assert_allclose(
            generic_quadratic(q).fundamental_tensor([0.3, 0.7]), q,
            atol=1e-12,
        )


class TestHomogeneity:
    def test_positive_homogeneity_closed_forms(self):
        rng = np.random.default_rng(0)
        for norm in (EuclideanNorm(np.array([[2.0, 0.4], [0.4, 1.0]])), randers_05()):
            for _ in range(50):
                y = rng.standard_normal(2)
                f = float(norm(y))
                for lam in (0.5, 2.0, 7.0):
                    assert abs(float(norm(lam * y)) - lam * f) <= 1e-12 * lam * f


class TestAxiomReport:
    def test_euclidean_identity_passes_with_unit_eigenvalue(self):
        report = check_axioms(EuclideanNorm(np.eye(2)), samples=100, seed=1)
        assert report.passed
        assert report.min_tensor_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_randers_passes_eigenvalue_scan(self):
        report = check_axioms(randers_05(), samples=1000, seed=3)
        assert report.passed
        assert report.min_tensor_eigenvalue > 0.1

    def test_quartic_fails_strong_convexity(self):
        # the fundamental tensor degenerates on the axes
        norm = quartic_norm()
        axis_hess = central_hessian(lambda y: 0.5 * norm(y) ** 2,
                                    np.array([[1.0, 0.0]]), np.array([1e-5]))[0]
        assert abs(np.linalg.eigvalsh(axis_hess)[0]) < 1e-6
        report = check_axioms(norm, samples=400, seed=0)
        assert not report.convexity_pass
        assert not report.passed

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            check_axioms(randers_05(), samples=0)


class TestReversibility:
    def test_euclidean_is_reversible(self):
        assert reversibility_sup(EuclideanNorm(np.eye(2))) == pytest.approx(1.0, abs=1e-12)

    def test_randers_05_ratio_three(self):
        assert reversibility_sup(randers_05()) == pytest.approx(3.0, abs=1e-6)

    def test_randers_03_against_dense_scan(self):
        norm = RandersNorm(np.eye(2), [0.3, 0.0])
        thetas = np.linspace(0.0, 2.0 * np.pi, 100001)
        us = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        dense = float(np.max(norm(us) / norm(-us)))
        value = reversibility_sup(norm)
        assert value == pytest.approx(dense, abs=1e-6)
        assert value == pytest.approx(13.0 / 7.0, abs=1e-9)

    def test_three_dimensional_grid(self):
        norm = RandersNorm(np.eye(3), [0.4, 0.0, 0.0])
        value = reversibility_sup(norm, resolution=4000)
        assert value == pytest.approx(1.4 / 0.6, abs=1e-3)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            reversibility_sup(randers_05(), resolution=4)


def test_scale_norm_stays_in_family():
    norm = randers_05()
    doubled = scale_norm(norm, 2.0)
    assert isinstance(doubled, RandersNorm)
    y = np.array([0.2, 0.9])
    assert float(doubled(y)) == pytest.approx(2.0 * float(norm(y)), rel=1e-14)


def test_scale_norm_keeps_generic_analytic_tensor():
    # (cF)'' = c F'', so c F keeps the base's analytic tensor, scaled by c^2
    base = generic_quadratic(np.array([[2.0, 0.5], [0.5, 3.0]]))
    scaled = scale_norm(base, 2.0)
    ys = np.array([[0.3, 0.7], [-1.2, 0.4], [0.05, -0.02]])
    np.testing.assert_allclose(scaled(ys), 2.0 * base(ys), rtol=1e-15)
    np.testing.assert_allclose(scaled.tensor_batch(ys), 4.0 * base.tensor_batch(ys), rtol=1e-14)
    np.testing.assert_allclose(scaled.fundamental_tensor(ys[0]),
                               4.0 * base.fundamental_tensor(ys[0]), rtol=1e-14)
