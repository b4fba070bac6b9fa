"""The harmonic sphere ansatz and its one-point solve, degree by degree."""

import numpy as np
import pytest

from finslerfields.conformal_solver import (
    FieldBasis,
    SolverConfig,
    harmonic_polynomials,
    solve_fields,
    sphere_basis,
)
from finslerfields.manifold import RoundSphereField, Sphere2, SpherePolyVectorField, field_tables


def monomial_basis(sphere, degree):
    """The span oracle: the tangent projections of the monomial maps q^e e_k with |e| <= d
    that the projection and q1^2 = 1 - q2^2 - q3^2 leave independent (e1 = 0, or e1 = 1
    and k = 3, or e1 = 1, k = 2 and e2 = 0)."""
    eye = np.eye(3)
    return [SpherePolyVectorField(sphere, {(e1, e2, n - e1 - e2): eye[k]})
            for n in range(degree + 1) for e1 in (0, 1) for e2 in range(n - e1 + 1)
            for k in range(3) if e1 == 0 or k == 2 or (k == 1 and e2 == 0)]


def product_rule(degree):
    """Nodes (m, 3) and weights (m,) on the unit sphere, Gauss-Legendre in z times equal
    angles in phi, exact for the polynomials of the given degree."""
    z, weights = np.polynomial.legendre.leggauss(degree // 2 + 1)
    phi = 2.0 * np.pi * np.arange(degree + 1) / (degree + 1)
    r = np.sqrt(1.0 - z**2)[:, None]
    nodes = np.stack(np.broadcast_arrays(r * np.cos(phi), r * np.sin(phi), z[:, None]), axis=-1)
    return nodes.reshape(-1, 3), np.repeat(weights * (2.0 * np.pi / len(phi)), len(phi))


@pytest.mark.parametrize("degree", range(14))
def test_harmonic_polynomials_are_orthonormal_on_the_sphere(degree):
    exps, coefficients = harmonic_polynomials(degree)
    assert coefficients.shape == (len(exps), 2 * degree + 1)
    nodes, weights = product_rule(2 * degree)
    values = np.prod(nodes[:, None, :] ** exps, axis=-1) @ coefficients
    gram = values.T @ (weights[:, None] * values)
    assert np.max(np.abs(gram - np.eye(2 * degree + 1))) <= 1e-12


@pytest.mark.parametrize("degree", range(1, 7))
def test_harmonic_ansatz_spans_the_monomial_ansatz(degree):
    sphere = Sphere2(1.0)
    points = sphere.fibonacci_points(200)
    harmonic, monomial = sphere_basis(sphere, degree).elements, monomial_basis(sphere, degree)

    def rank(fields):
        values = field_tables(fields, points)[:, :2].reshape(-1, len(fields))
        svals = np.linalg.svd(values, compute_uv=False)
        return int(np.sum(svals > 1e-9 * svals[0]))

    assert len(harmonic) == len(monomial)
    assert rank(list(harmonic)) == rank(list(harmonic) + monomial) == len(harmonic)


@pytest.mark.parametrize("degree", range(6))
def test_sphere_basis_records_each_element_and_one_block_array_per_degree(degree):
    basis = sphere_basis(Sphere2(1.0), degree)
    assert basis.n_fields == len(basis.labels) == (degree + 2) ** 2 + (degree + 1) ** 2 - 2
    expected = [(l, kind, m) for l in range(1, degree + 2) for m in range(2 * l + 1)
                for kind in ("grad", "curl")[:1 + (l <= degree)]]
    assert list(basis.labels) == expected
    assert [kind for _, kind in basis.blocks] == ["harmonic"] * (degree + 1)
    for l, (cols, _) in enumerate(basis.blocks, start=1):
        kinds = ("grad", "curl")[:1 + (l <= degree)]
        assert cols.shape == (2 * l + 1, len(kinds))
        assert [[basis.labels[c] for c in row] for row in cols.tolist()] == [
            [(l, kind, m) for kind in kinds] for m in range(2 * l + 1)]


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("radius", [1e-3, 1e-1, 1e1, 1e3])
def test_one_point_spectra_do_not_depend_on_the_radius(radius, degree):
    # the ansatz is built in units of the radius, so every radius solves the r = 1 system
    reports = [solve_fields(RoundSphereField(sphere), sphere_basis(sphere, degree))
               for sphere in (Sphere2(1.0), Sphere2(radius))]
    assert [r.system["factor_rows"] for r in reports] == [6, 6]
    scale = reports[0].killing_singular_values[0]
    for kind in ("killing", "conformal"):
        reference, scaled = (getattr(r, f"{kind}_singular_values") for r in reports)
        np.testing.assert_allclose(scaled, reference, rtol=0, atol=1e-12 * scale)


def _principal_angle(basis_a, basis_b):
    """Largest principal angle between two row-orthonormal bases of equal dimension, in its
    sine form, from numpy's SVD."""
    residual = basis_a.T - basis_b.T @ (basis_b @ basis_a.T)
    return float(np.arcsin(min(1.0, np.linalg.norm(residual, 2))))


@pytest.mark.parametrize("n_points,bound", [(150, 1e-2), (2000, 1e-4)])
def test_one_point_solve_is_the_limit_of_the_every_point_solve(n_points, bound):
    # the one-point Gram matrix of each degree is the exact mean over the sphere, of which the
    # Fibonacci points' is a quadrature: 2.7e-3 relative at 150 points, 5.7e-5 at 2000
    sphere = Sphere2(1.0)
    basis = sphere_basis(sphere, 2)
    config = SolverConfig(sphere_points=n_points)
    one_point, every_point = (solve_fields(RoundSphereField(sphere), b, config=config)
                              for b in (basis, FieldBasis(sphere, basis.elements, 2)))
    assert (one_point.system["factor_rows"], every_point.system["factor_rows"]) == (6, 6 * n_points)
    for kind in ("killing", "conformal"):
        (dim, svals, kernel), (ref_dim, ref_svals, ref_kernel) = (
            [getattr(r, f"{kind}_{attr}") for attr in ("dim", "singular_values", "basis")]
            for r in (one_point, every_point))
        assert dim == ref_dim == {"killing": 3, "conformal": 6}[kind]
        assert _principal_angle(kernel, ref_kernel) <= 1e-12
        kept = basis.n_fields - dim
        assert np.max(np.abs(svals[:kept] - ref_svals[:kept])) <= bound * svals[0]


@pytest.mark.parametrize("mode", ["killing", "conformal"])
def test_each_harmonic_spectrum_has_multiplicity_two_l_plus_one(mode):
    sphere = Sphere2(1.3)
    basis = sphere_basis(sphere, 3)
    report = solve_fields(RoundSphereField(sphere), basis, mode)
    spectra, start = report.block_singular_values, 0
    union = report.conformal_singular_values if mode == "conformal" else report.killing_singular_values
    for cols, _ in basis.blocks:
        copies = spectra[start:start + len(cols)]
        start += len(cols)
        for value in copies[0]:
            assert all(np.array_equal(copy, copies[0]) for copy in copies)
            assert np.count_nonzero(union == value) == len(cols)
    assert start == len(spectra) == report.system["blocks"]
