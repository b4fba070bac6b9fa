"""The batched evaluation path against per-point references."""

import warnings

import numpy as np
import pytest

from finslerfields.conformal_solver import (
    SolverConfig,
    assemble_system,
    build_collocation,
    null_space,
    solve_fields,
    sphere_basis,
    torus_basis,
)
from finslerfields.errors import ChartDomainError, DegenerateVector
from finslerfields.manifold import (
    AmbientPolyScalar,
    ChartPoint,
    CombinationVectorField,
    ConformalRescaleField,
    ConstantNormField,
    ConstantScalar,
    FlatTorus,
    RoundSphereField,
    Sphere2,
    TorusFourierScalar,
    lie_derivative,
    stack_points,
)
from finslerfields.norm_core import RandersNorm

# Batched and per-row assembly sum the same terms in a different order, so
# they agree to round-off relative to the largest entry.
ASSEMBLY_RTOL = 1e-12


def reference_assemble(field, basis, collocation, mode):
    """Per-row assembly through the one-point lie_derivative and field.eval."""
    rows = []
    for pt, y in collocation:
        row = [lie_derivative(field, el, pt, y) for el in basis.elements]
        if mode == "conformal":
            row += [-phi.value(pt) * field.eval(pt, y) for phi in basis.rho_elements]
        rows.append(row)
    return np.array(rows)


def randers_torus_field(torus):
    return ConstantNormField(torus, RandersNorm(np.eye(2), [0.4, -0.2]))


def _torus_cases():
    torus = FlatTorus(np.array([[1.0, 0.3], [0.0, 1.2]]))
    base = randers_torus_field(torus)
    rho = TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 0.7, 0.2), ((1, 1), 0.0, 0.3)])
    return [
        ("randers torus", base, torus_basis(torus, 1), SolverConfig(x_density=4)),
        ("rescaled randers torus", ConformalRescaleField(base, rho), torus_basis(torus, 1),
         SolverConfig(x_density=4)),
    ]


def _sphere_cases():
    sphere = Sphere2(1.3)
    rho = AmbientPolyScalar(sphere, const=2.0, linear=[0.2, -0.1, 0.5], quadratic=0.3 * np.eye(3))
    config = SolverConfig(sphere_points=16)
    return [
        ("round sphere", RoundSphereField(sphere), sphere_basis(sphere, 2), config),
        ("rescaled sphere", ConformalRescaleField(RoundSphereField(sphere), rho),
         sphere_basis(sphere, 2), config),
    ]


CASES = _torus_cases() + _sphere_cases()


@pytest.mark.parametrize("name,field,basis,config", CASES, ids=[c[0] for c in CASES])
def test_batched_assembly_matches_per_row_reference(name, field, basis, config):
    collocation = build_collocation(basis.manifold, config)
    reference = reference_assemble(field, basis, collocation, "conformal")
    scale = np.max(np.abs(reference))
    assert scale > 0.0
    for mode, expected in (("killing", reference[:, : basis.n_fields]), ("conformal", reference)):
        batched = assemble_system(field, basis, collocation, mode)
        assert batched.shape == expected.shape
        assert np.max(np.abs(batched - expected)) <= ASSEMBLY_RTOL * scale


def test_sphere_collocation_covers_both_charts():
    _, _, basis, config = _sphere_cases()[0]
    assert {pt.chart for pt, _ in build_collocation(basis.manifold, config)} == {0, 1}


def test_rescaled_torus_has_nonzero_grad_x():
    _, field, basis, config = _torus_cases()[1]
    pt, y = build_collocation(basis.manifold, config)[0]
    assert np.linalg.norm(field.grad_x(pt, y)) > 0.1


def _basis_cases():
    torus = FlatTorus()
    sphere = Sphere2(0.8)
    torus_points = stack_points(torus.grid_points(5))
    sphere_points = stack_points(sphere.fibonacci_points(30))
    assert set(sphere_points.chart) == {0, 1}
    t_basis, s_basis = torus_basis(torus, 2), sphere_basis(sphere, 2)
    rng = np.random.default_rng(3)
    return [
        ("torus elements", t_basis.elements, torus_points),
        ("sphere elements", s_basis.elements, sphere_points),
        ("torus combination", [t_basis.combination(rng.standard_normal(t_basis.n_fields))],
         torus_points),
        ("sphere combination", [s_basis.combination(rng.standard_normal(s_basis.n_fields))],
         sphere_points),
    ]


def _one_point(points, i):
    if isinstance(points, ChartPoint):
        return ChartPoint(int(points.chart[i]), points.coords[i])
    return points[i]


BASIS_CASES = _basis_cases()


@pytest.mark.parametrize("name,fields,points", BASIS_CASES, ids=[c[0] for c in BASIS_CASES])
def test_batched_vector_fields_match_one_point_calls(name, fields, points):
    m = len(points.coords) if isinstance(points, ChartPoint) else len(points)
    for vf in fields:
        values, jacobians = vf.values(points), vf.jacobians(points)
        assert values.shape == (m, 2) and jacobians.shape == (m, 2, 2)
        for i in range(m):
            pt = _one_point(points, i)
            np.testing.assert_allclose(values[i], vf.value(pt), rtol=0, atol=1e-13)
            np.testing.assert_allclose(jacobians[i], vf.jacobian(pt), rtol=0, atol=1e-12)


def test_batched_scalars_match_one_point_calls():
    sphere = Sphere2(1.7)
    points = stack_points(sphere.fibonacci_points(20))
    torus = FlatTorus()
    cases = [
        (AmbientPolyScalar(sphere, const=1.0, linear=[0.1, 0.2, 0.3], quadratic=np.ones((3, 3))),
         points),
        (ConstantScalar(3.0), points),
        (TorusFourierScalar(torus, const=0.5, terms=[((2, -1), 0.3, 0.4)]),
         stack_points(torus.grid_points(4))),
    ]
    for scalar, pts in cases:
        values, grads = scalar.values(pts), scalar.grads(pts)
        for i in range(len(values)):
            pt = _one_point(pts, i)
            assert values[i] == pytest.approx(scalar.value(pt), abs=1e-13)
            np.testing.assert_allclose(grads[i], scalar.grad(pt), rtol=0, atol=1e-13)


def test_chart_one_jacobians_match_finite_differences():
    sphere = Sphere2(1.3)
    vf = sphere_basis(sphere, 2).combination(np.linspace(-1.0, 1.0, 12))
    q = np.array([[0.3, -0.4], [-0.9, 0.2], [0.05, 0.6]])
    points = ChartPoint(np.ones(3, dtype=int), q)
    h = 1e-6
    fd = np.stack([
        (vf.values(ChartPoint(points.chart, q + h * e)) - vf.values(ChartPoint(points.chart, q - h * e)))
        / (2 * h)
        for e in np.eye(2)
    ], axis=-1)
    np.testing.assert_allclose(vf.jacobians(points), fd, atol=1e-6)


def test_chart_one_origin_in_a_batch_is_rejected():
    sphere = Sphere2(1.0)
    vf = sphere_basis(sphere, 1).elements[0]
    points = ChartPoint(np.array([0, 1]), np.array([[0.2, 0.1], [0.0, 0.0]]))
    with pytest.raises(ChartDomainError):
        vf.values(points)


@pytest.mark.parametrize("field", [
    randers_torus_field(FlatTorus()),
    ConformalRescaleField(randers_torus_field(FlatTorus()), ConstantScalar(2.0)),
    RoundSphereField(Sphere2(1.0)),
])
def test_batched_grad_y_keeps_direction_safeguards(field):
    points = stack_points(_two_points(field.manifold))
    good = np.array([[1.0, 0.0], [0.3, -0.7]])
    field.grads_y(points, good)
    with pytest.raises(DegenerateVector):
        field.grads_y(points, np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        field.grads_y(points, np.array([[np.nan, 1.0], [0.3, -0.7]]))
    with pytest.raises(DegenerateVector):
        field.grad_y(_one_point(points, 0), np.zeros(2))
    with pytest.raises(ValueError):
        field.grad_y(_one_point(points, 0), np.array([np.nan, 1.0]))


def _two_points(manifold):
    if isinstance(manifold, Sphere2):
        return [ChartPoint(0, [0.2, 0.4]), ChartPoint(1, [0.5, -0.1])]
    return [np.array([0.1, 0.2]), np.array([0.7, 0.4])]


def _orthonormal_kernel(matrix):
    dim, basis, svals = null_space(matrix)
    _, ref_svals, ref_vt = np.linalg.svd(matrix, full_matrices=True)
    ref_padded = np.zeros(matrix.shape[1])
    ref_padded[: len(ref_svals)] = ref_svals
    ref_dim = int((ref_padded < 1e-8 * ref_padded[0]).sum())
    assert dim == ref_dim
    assert basis.shape == (dim, matrix.shape[1])
    assert np.max(np.abs(matrix @ basis.T)) <= 1e-12 * max(1.0, svals[0])
    np.testing.assert_allclose(basis @ basis.T, np.eye(dim), atol=1e-12)
    return dim


def test_null_space_wide_matrix():
    rng = np.random.default_rng(0)
    wide = rng.standard_normal((3, 7))
    assert _orthonormal_kernel(wide) == 4


def test_null_space_tall_rank_deficient():
    rng = np.random.default_rng(1)
    tall = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 8))
    assert _orthonormal_kernel(tall) == 5


def test_collapsed_gap_is_flagged_without_warning():
    torus = FlatTorus()
    # a threshold inside the nonzero spectrum leaves no gap around it
    config = SolverConfig(x_density=6, tol_ratio=0.5, verify=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        report = solve_fields(randers_torus_field(torus), torus_basis(torus, 1), config=config)
    assert report.killing_gap < 1e2
    assert any("killing spectral gap" in flag for flag in report.flags)


@pytest.mark.parametrize("degree", [0, 3, 4])
def test_sphere_basis_rejects_unsupported_degrees(degree):
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        sphere_basis(Sphere2(1.0), degree)


def test_combination_of_batches_is_linear():
    sphere = Sphere2(1.0)
    elements = sphere_basis(sphere, 2).elements
    coeffs = np.arange(len(elements), dtype=float) - 5.0
    points = stack_points(sphere.fibonacci_points(16))
    combo = CombinationVectorField(elements, coeffs)
    expected = sum(c * el.values(points) for c, el in zip(coeffs, elements))
    np.testing.assert_allclose(combo.values(points), expected, atol=1e-12)
