"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance and expected dimension is pinned here; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from finslerfields.averaging import average, verify_equivariance
from finslerfields.conformal_solver import extract_structure_constants, sphere_basis, solve_fields, torus_basis
from finslerfields.experiments import ExperimentConfig, run_experiment
from finslerfields.lie_algebra import (
    abelian_algebra,
    ad_matrix,
    ad_nilpotent,
    ad_semisimple,
    affine_algebra,
    cartan_solvability,
    derived_series,
    direct_sum,
    is_solvable,
    killing_form,
    killing_gram,
    killing_radical,
    killing_signature,
    rotation_algebra,
)
from finslerfields.manifold import (
    ConformalRescaleField,
    ConstantNormField,
    FlatTorus,
    PointwiseAveragedField,
    RoundSphereField,
    Sphere2,
    TorusFourierScalar,
)
from finslerfields.norm_core import EuclideanNorm, RandersNorm, scale_norm

ROUNDOFF_FLOOR = 1e-12


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False


def report(criterion, seconds, detail):
    print(f"PASS criterion {criterion} ({seconds:.2f}s): {detail}")


def test_criterion_1_averaging_fixed_point():
    q = np.diag([1.0, 4.0])
    with Stopwatch() as clock:
        result = average(EuclideanNorm(q), 256)
        error = float(np.max(np.abs(result.matrix - q)))
    assert error <= 1e-9
    assert clock.seconds < 1.0
    report(1, clock.seconds, f"fixed-point error {error:.2e} <= 1e-9")


def test_criterion_2_averaging_equivariance():
    base = RandersNorm(np.eye(2), [0.3, 0.0])
    angle = np.pi / 6.0
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    composed = RandersNorm(rot.T @ base.a @ rot, rot.T @ base.b)
    with Stopwatch() as clock:
        rot_coarse = verify_equivariance(composed, base, rot, 1.0, resolution=1024)
        rot_fine = verify_equivariance(composed, base, rot, 1.0, resolution=2048)
        scale_res = verify_equivariance(scale_norm(base, 2.0), base, np.eye(2), 2.0,
                                        resolution=1024)
    assert rot_coarse <= 1e-6
    # refinement must halve the residual or already sit at the round-off floor
    assert rot_fine <= 0.5 * rot_coarse or rot_fine <= ROUNDOFF_FLOOR
    assert scale_res <= 1e-8
    assert clock.seconds < 5.0
    report(2, clock.seconds,
           f"rotation {rot_coarse:.2e} -> {rot_fine:.2e}, scaling {scale_res:.2e}")


def test_criterion_3_rescale_law_through_average():
    torus = FlatTorus()
    base = ConstantNormField(torus, RandersNorm(np.eye(2), [0.5, 0.0]))
    rho = TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 1.0, 0.0)])
    rescaled = ConformalRescaleField(base, rho)
    with Stopwatch() as clock:
        averaged_base = PointwiseAveragedField(base, 256)
        averaged_rescaled = PointwiseAveragedField(rescaled, 256)
        worst = 0.0
        for x in torus.grid_points(4):
            expected = rho.value(x) ** 2 * averaged_base.matrix_at(x)
            worst = max(worst, float(np.max(np.abs(averaged_rescaled.matrix_at(x) - expected))))
    assert worst <= 1e-6
    assert clock.seconds < 10.0
    report(3, clock.seconds, f"max deviation over 16 points {worst:.2e} <= 1e-6")


def test_criterion_4_round_sphere_exception():
    with Stopwatch() as clock:
        result = run_experiment("s2-round", ExperimentConfig(name="s2-round"))
    assert result.killing_dim == 3
    assert result.conformal_dim == 6
    assert result.gap >= 1e4
    assert result.passed
    assert clock.seconds < 30.0
    report(4, clock.seconds,
           f"killing 3, conformal 6, spectral gap {result.gap:.2e} >= 1e4")


def test_criterion_5_randers_torus_rigidity():
    config = ExperimentConfig(name="randers-torus")
    basis = torus_basis(FlatTorus(), config.degree)
    assert 45 <= basis.n_fields <= 55  # the stated ansatz size
    with Stopwatch() as clock:
        result = run_experiment("randers-torus", config)
    assert result.killing_dim == 2
    assert result.conformal_dim == 2
    rho_check = [c for c in result.checks if c.name == "max conformal-factor norm"][0]
    assert rho_check.passed and rho_check.value <= 1e-6
    stability = [c for c in result.checks if "stable" in c.name][0]
    assert stability.passed
    assert result.passed
    assert clock.seconds < 60.0
    report(5, clock.seconds,
           f"killing 2 = conformal 2, factor norm {rho_check.value:.2e}, stable under doubling")


def test_criterion_6_riemannian_torus_control():
    with Stopwatch() as clock:
        result = run_experiment("riemannian-torus", ExperimentConfig(name="riemannian-torus"))
    assert result.killing_dim == 2
    assert result.conformal_dim == 2
    assert result.passed
    assert clock.seconds < 60.0
    report(6, clock.seconds, "killing 2, conformal 2 on the flat torus")


def test_criterion_7_rescaled_metric_loses_transitivity():
    with Stopwatch() as clock:
        result = run_experiment(
            "rescaled-randers-torus", ExperimentConfig(name="rescaled-randers-torus")
        )
    fraction = result.extra["nontransitive_fraction"]
    assert fraction >= 0.9
    assert result.extra["control_killing_dim"] == 2
    assert result.extra["control_transitive_fraction"] == 1.0
    assert result.passed
    assert clock.seconds < 90.0
    report(7, clock.seconds,
           f"non-transitive at {100 * fraction:.0f}% of points; constant factor restores rank")


def test_criterion_8_killing_form_dichotomy():
    with Stopwatch() as clock:
        sphere = Sphere2(1.0)
        basis = sphere_basis(sphere, 2)
        solved = solve_fields(RoundSphereField(sphere), basis)
        killing_fields = [basis.combination(c) for c in solved.killing_basis]
        conformal_fields = [basis.combination(c) for c in solved.conformal_basis]
        sphere_killing, _ = extract_structure_constants(killing_fields)
        sphere_conformal, _ = extract_structure_constants(conformal_fields)

        torus = FlatTorus()
        torus_field = ConstantNormField(torus, RandersNorm(np.eye(2), [0.5, 0.0]))
        torus_solved = solve_fields(torus_field, torus_basis(torus, 2), mode="killing")
        torus_fields = [torus_basis(torus, 2).combination(c) for c in torus_solved.killing_basis]
        torus_killing, _ = extract_structure_constants(torus_fields)

        for algebra in (sphere_killing, torus_killing):
            for e in np.eye(algebra.dim):
                assert killing_form(algebra, e, e) <= 1e-8
                assert ad_semisimple(algebra, e)
        signature = killing_signature(sphere_conformal)
    assert signature == (3, 3, 0)
    gram = killing_gram(sphere_conformal)
    assert np.max(np.linalg.eigvalsh(gram)) > 1e-8  # the non-compact directions exist
    assert clock.seconds < 10.0
    report(8, clock.seconds,
           f"killing bases negative semidefinite + semisimple; conformal signature {signature}")


def test_criterion_9_lie_algebra_suite():
    with Stopwatch() as clock:
        rotation = rotation_algebra()
        np.testing.assert_allclose(killing_gram(rotation), -2.0 * np.eye(3), atol=1e-12)

        affine = affine_algebra()
        assert derived_series(affine) == [2, 1, 0]
        assert is_solvable(affine) and cartan_solvability(affine)
        assert killing_form(affine, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

        mixed = direct_sum(rotation, abelian_algebra(1))
        radical = killing_radical(mixed)
        assert radical.shape[0] == 1
        np.testing.assert_allclose(np.abs(radical[0]), [0.0, 0.0, 0.0, 1.0], atol=1e-12)

        rng = np.random.default_rng(0)
        for algebra in (rotation, affine, abelian_algebra(3), mixed):
            for _ in range(1000):
                u = rng.standard_normal(algebra.dim)
                if ad_semisimple(algebra, u) and ad_nilpotent(algebra, u):
                    assert np.linalg.norm(ad_matrix(algebra, u), 2) <= 1e-8
    assert clock.seconds < 5.0
    report(9, clock.seconds,
           "rotation B = -2I, affine solvable twice over, radical found, pivot holds on 4x1000 samples")


def test_criterion_10_circle_reversibility_criterion():
    with Stopwatch() as clock:
        result = run_experiment("circle-lambda", ExperimentConfig(name="circle-lambda"))
    varying = result.extra["varying_spread"]
    constant = result.extra["constant_spread"]
    assert varying > 1.9
    assert constant <= 1e-10
    assert result.passed
    assert clock.seconds < 1.0
    report(10, clock.seconds,
           f"varying spread {varying:.3f} flagged, constant spread {constant:.1e}")
