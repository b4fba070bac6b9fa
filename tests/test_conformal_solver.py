import numpy as np
import pytest

from finslerfields.conformal_solver import (
    VERIFY_TOL_FACTOR,
    FieldBasis,
    SolverConfig,
    _spectral_gap,
    assemble_system,
    build_collocation,
    extract_structure_constants,
    lie_bracket_fields,
    null_space,
    pushforward_subspace_angle,
    solve_fields,
    sphere_basis,
    sphere_monomial_rho,
    torus_basis,
    torus_fourier_modes,
    transitivity_check,
)
from finslerfields.errors import ClosureFailure, UnderdeterminedSystem
from finslerfields.lie_algebra import killing_gram, killing_signature
from finslerfields.manifold import (
    AmbientPolyScalar,
    ConformalRescaleField,
    ConstantNormField,
    FlatTorus,
    MobiusMap,
    RoundSphereField,
    Sphere2,
    TorusFourierScalar,
    TorusFourierVectorField,
    TorusTranslation,
)
from finslerfields.norm_core import EuclideanNorm, RandersNorm


def randers_field(torus, b=(0.5, 0.0)):
    return ConstantNormField(torus, RandersNorm(np.eye(2), np.array(b)))


class TestNullSpace:
    def test_zero_matrix_has_full_kernel(self):
        dim, basis, _ = null_space(np.zeros((5, 3)))
        assert dim == 3
        assert basis.shape == (3, 3)

    def test_identity_has_trivial_kernel(self):
        dim, basis, svals = null_space(np.eye(3))
        assert dim == 0
        assert basis.shape == (0, 3)
        np.testing.assert_allclose(svals, np.ones(3))

    def test_rank_one_outer_product(self):
        a = np.outer(np.array([1.0, 2.0, -1.0, 0.5]), np.array([0.3, -0.7, 1.1]))
        dim, basis, _ = null_space(a)
        assert dim == 2
        assert np.max(np.abs(a @ basis.T)) <= 1e-12

    def test_wide_matrix_padding(self):
        a = np.array([[1.0, 0.0, 0.0, 0.0]])
        dim, basis, svals = null_space(a)
        assert dim == 3
        assert len(svals) == 4
        assert np.max(np.abs(a @ basis.T)) <= 1e-12

    def test_spectral_gap_values(self):
        svals = np.array([1.0, 1e-2, 1e-12])
        assert _spectral_gap(svals, 1, 3) == pytest.approx(1e10)
        assert _spectral_gap(svals, 0, 3) == np.inf
        assert _spectral_gap(svals, 3, 3) == np.inf
        assert _spectral_gap(np.array([1.0, 5e-8, 1e-9]), 1, 3) == pytest.approx(50.0)


class TestBasisConstruction:
    def test_mode_count_max_norm_two(self):
        assert len(torus_fourier_modes(2)) == 12

    def test_degree_two_torus_basis_has_fifty_fields(self):
        basis = torus_basis(FlatTorus(), 2)
        assert basis.n_fields == 50
        assert basis.n_rho == 25

    def test_sphere_basis_counts(self):
        basis = sphere_basis(Sphere2(1.0), 2)
        assert basis.n_fields == 12
        assert basis.n_rho == 9

    def test_elements_linearly_independent_over_collocation(self):
        for basis in (torus_basis(FlatTorus(), 2), sphere_basis(Sphere2(1.0), 2)):
            pairs = build_collocation(basis.manifold, SolverConfig())
            points = {id(pt): pt for pt, _ in pairs}.values()
            rows = np.vstack([
                np.concatenate([el.value(pt) for el in basis.elements]).reshape(
                    len(basis.elements), 2
                ).T
                for pt in points
            ])
            svals = np.linalg.svd(rows, compute_uv=False)
            assert svals[-1] > 1e-8 * svals[0]


class TestAssemble:
    def test_translations_on_constant_norm_give_zero_matrix(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 0)
        assert basis.n_fields == 2
        field = randers_field(torus)
        pairs = build_collocation(torus, SolverConfig(x_density=4))
        matrix = assemble_system(field, basis, pairs, "killing")
        assert np.max(np.abs(matrix)) <= 1e-14

    def test_six_generator_conformal_system_has_six_dim_kernel(self):
        sphere = Sphere2(1.0)
        basis = sphere_basis(sphere, degree=1)  # generators only
        field = RoundSphereField(sphere)
        pairs = build_collocation(sphere, SolverConfig(sphere_points=60))
        matrix = assemble_system(field, basis, pairs, "conformal")
        dim, kernel, _ = null_space(matrix)
        projected_rank = np.linalg.matrix_rank(kernel[:, :6], tol=1e-10)
        assert projected_rank == 6

    def test_degree_one_randers_kernel_projects_to_translations(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 1)
        field = randers_field(torus)
        pairs = build_collocation(torus, SolverConfig(x_density=6))
        matrix = assemble_system(field, basis, pairs, "conformal")
        dim, kernel, _ = null_space(matrix)
        assert dim == 2
        field_part = kernel[:, : basis.n_fields]
        # all weight on the two constant coordinate fields
        assert np.max(np.abs(field_part[:, 2:])) <= 1e-10
        assert np.max(np.abs(kernel[:, basis.n_fields:])) <= 1e-10

    def test_row_bound_enforced(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 2)
        field = randers_field(torus)
        pairs = build_collocation(torus, SolverConfig(x_density=3, n_extra_directions=0))
        with pytest.raises(UnderdeterminedSystem):
            assemble_system(field, basis, pairs, "conformal")

    def test_unknown_mode_rejected(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 0)
        with pytest.raises(ValueError):
            assemble_system(randers_field(torus), basis, [], "isometric")


class TestSolveFields:
    def test_flat_riemannian_torus(self):
        torus = FlatTorus()
        field = ConstantNormField(torus, EuclideanNorm(np.eye(2)))
        report = solve_fields(field, torus_basis(torus, 2))
        assert report.killing_dim == 2
        assert report.conformal_dim == 2

    def test_randers_torus_conformal_implies_killing(self):
        torus = FlatTorus()
        report = solve_fields(randers_field(torus), torus_basis(torus, 2))
        assert report.killing_dim == 2
        assert report.conformal_dim == 2
        assert np.max(np.linalg.norm(report.conformal_factors, axis=1)) <= 1e-6

    def test_round_sphere_dimensions(self):
        sphere = Sphere2(1.0)
        report = solve_fields(RoundSphereField(sphere), sphere_basis(sphere, 2))
        assert report.killing_dim == 3
        assert report.conformal_dim == 6
        assert report.conformal_gap >= 1e4

    def test_mode_monotonicity(self):
        torus = FlatTorus()
        for field in (
            randers_field(torus),
            ConstantNormField(torus, EuclideanNorm(np.array([[1.0, 0.2], [0.2, 2.0]]))),
        ):
            report = solve_fields(field, torus_basis(torus, 2))
            assert report.killing_dim <= report.conformal_dim

    def test_killing_kernel_embeds_in_conformal_kernel(self):
        # a Killing solution padded with zero factor coefficients satisfies
        # the joint system as well
        torus = FlatTorus()
        field = randers_field(torus)
        basis = torus_basis(torus, 2)
        config = SolverConfig()
        pairs = build_collocation(torus, config)
        a_conformal = assemble_system(field, basis, pairs, "conformal")
        report = solve_fields(field, basis, mode="killing", config=config)
        for coeffs in report.killing_basis:
            padded = np.concatenate([coeffs, np.zeros(basis.n_rho)])
            assert np.max(np.abs(a_conformal @ padded)) <= 1e-10

    def test_dimensions_stable_under_density_and_seed(self):
        torus = FlatTorus()
        field = randers_field(torus)
        basis = torus_basis(torus, 2)
        reference = solve_fields(field, basis, config=SolverConfig(verify=False))
        denser = solve_fields(
            field, basis, config=SolverConfig(x_density=16, verify=False)
        )
        reseeded = solve_fields(
            field, basis, config=SolverConfig(seed=42, verify=False)
        )
        for other in (denser, reseeded):
            assert other.killing_dim == reference.killing_dim
            assert other.conformal_dim == reference.conformal_dim

    def test_out_of_sample_residuals_below_ten_tolerances(self):
        sphere = Sphere2(1.0)
        report = solve_fields(RoundSphereField(sphere), sphere_basis(sphere, 2))
        assert report.max_residual <= 10.0 * report.tolerance_used

    def test_no_conformal_field_leaves_an_empty_factor_table(self):
        # without the coordinate fields the ansatz holds no conformal field of the Randers torus
        torus = FlatTorus()
        full = torus_basis(torus, 1)
        basis = FieldBasis(torus, full.elements[2:], full.rho_elements, 1)
        report = solve_fields(randers_field(torus), basis)
        assert report.conformal_dim == 0
        assert report.conformal_factors.shape == (0, basis.n_rho)
        assert report.conformal_factor_residuals.shape == (0,)

    def test_killing_mode_skips_conformal_solve(self):
        torus = FlatTorus()
        report = solve_fields(randers_field(torus), torus_basis(torus, 2), mode="killing")
        assert report.killing_dim == 2
        assert report.conformal_dim is None

    def test_dependent_rho_basis_is_flagged_not_counted(self):
        sphere = Sphere2(1.0)
        basis = sphere_basis(sphere, 2, rho_elements=sphere_monomial_rho(sphere))
        report = solve_fields(RoundSphereField(sphere), basis)
        assert report.conformal_dim == 6
        assert any("spurious" in flag for flag in report.flags)

    def test_failed_verification_is_flagged(self):
        # at radius 1e4 the unscaled sphere ansatz returns a spurious dimension
        # whose out-of-sample residual is far above ten tolerances
        sphere = Sphere2(1e4)
        report = solve_fields(RoundSphereField(sphere), sphere_basis(sphere, 2))
        assert report.max_residual > VERIFY_TOL_FACTOR * report.tolerance_used
        assert "verification residual above tolerance" in report.flags

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    def test_passed_verification_is_not_flagged(self, radius):
        sphere = Sphere2(radius)
        report = solve_fields(RoundSphereField(sphere), sphere_basis(sphere, 2))
        assert (report.killing_dim, report.conformal_dim) == (3, 6)
        assert report.flags == []

    def test_skew_lattice_torus_keeps_both_dimensions(self):
        torus = FlatTorus(np.array([[2.0, 0.5], [0.0, 1.0]]))
        field = ConstantNormField(torus, RandersNorm(np.eye(2), [0.4, 0.1]))
        report = solve_fields(field, torus_basis(torus, 2))
        assert report.killing_dim == 2
        assert report.conformal_dim == 2
        assert np.max(np.linalg.norm(report.conformal_factors, axis=1)) <= 1e-6

    def test_anisotropic_randers_torus(self):
        torus = FlatTorus()
        norm = RandersNorm(np.array([[1.5, 0.3], [0.3, 0.8]]), [0.2, -0.25])
        report = solve_fields(ConstantNormField(torus, norm), torus_basis(torus, 2))
        assert report.killing_dim == 2
        assert report.conformal_dim == 2

    def test_sphere_of_radius_two(self):
        sphere = Sphere2(2.0)
        report = solve_fields(RoundSphereField(sphere), sphere_basis(sphere, 2))
        assert report.killing_dim == 3
        assert report.conformal_dim == 6
        assert report.conformal_gap >= 1e4

    def test_rescaled_torus_killing_space_shrinks_to_one(self):
        torus = FlatTorus()
        rho = TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 1.0, 0.0)])
        field = ConformalRescaleField(randers_field(torus), rho)
        report = solve_fields(field, torus_basis(torus, 2), mode="killing")
        assert report.killing_dim == 1
        # the surviving field is the translation along the second coordinate
        coeffs = report.killing_basis[0]
        assert abs(coeffs[1]) > 0.99
        assert np.max(np.abs(np.delete(coeffs, 1))) <= 1e-8

    def test_rescaled_sphere_keeps_only_the_axial_rotation(self):
        # rho = 2 + n3/2 breaks all isometries except rotation about the pole
        sphere = Sphere2(1.0)
        rho = AmbientPolyScalar(sphere, const=2.0, linear=[0.0, 0.0, 0.5])
        field = ConformalRescaleField(RoundSphereField(sphere), rho)
        basis = sphere_basis(sphere, 2)
        report = solve_fields(field, basis, mode="killing")
        assert report.killing_dim == 1
        coeffs = report.killing_basis[0]
        assert abs(coeffs[2]) > 0.99  # the polar rotation generator
        assert np.max(np.abs(np.delete(coeffs, 2))) <= 1e-8
        assert report.max_residual <= 10.0 * report.tolerance_used


class TestKillingSpaceInvariance:
    def test_torus_translation_preserves_killing_span(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 2)
        report = solve_fields(randers_field(torus), basis, mode="killing")
        fields = [basis.combination(c) for c in report.killing_basis]
        shift = TorusTranslation(torus, [0.25, 0.3])
        points = torus.grid_points(4)
        assert pushforward_subspace_angle(fields, shift, points) <= 1e-6

    def test_sphere_rotation_preserves_killing_span(self):
        sphere = Sphere2(1.0)
        basis = sphere_basis(sphere, 2)
        report = solve_fields(RoundSphereField(sphere), basis, mode="killing")
        fields = [basis.combination(c) for c in report.killing_basis]
        rot = MobiusMap.rotation(sphere, [0.3, -0.5, 0.8], 0.7)
        points = sphere.fibonacci_points(25)
        assert pushforward_subspace_angle(fields, rot, points) <= 1e-6


class TestBrackets:
    def test_commuting_translations(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 1)
        v = TorusFourierVectorField.coordinate(torus, 0)
        w = TorusFourierVectorField.coordinate(torus, 1)
        bracket, residual = lie_bracket_fields(v, w, basis)
        assert residual <= 1e-12
        assert np.max(np.abs(bracket.coefficients)) <= 1e-12

    def test_rotations_close_on_third_generator(self):
        sphere = Sphere2(1.0)
        basis = sphere_basis(sphere, 2)
        r1, r2, r3 = basis.elements[0], basis.elements[1], basis.elements[2]
        bracket, residual = lie_bracket_fields(r1, r2, basis)
        assert residual <= 1e-10
        expected = np.zeros(basis.n_fields)
        expected[2] = 1.0
        np.testing.assert_allclose(bracket.coefficients, expected, atol=1e-10)

    def test_rotation_with_gradient_stays_in_conformal_algebra(self):
        sphere = Sphere2(1.0)
        basis = sphere_basis(sphere, 2)
        rotation = basis.elements[0]
        gradient = basis.elements[5]
        _, residual = lie_bracket_fields(rotation, gradient, basis)
        assert residual <= 1e-8

    def test_closure_failure_raises(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 1)
        v = TorusFourierVectorField.coordinate(
            torus, 0, TorusFourierScalar(torus, terms=[((1, 0), 1.0, 0.0)])
        )
        w = TorusFourierVectorField.coordinate(
            torus, 1, TorusFourierScalar(torus, terms=[((1, 0), 1.0, 0.0)])
        )
        with pytest.raises(ClosureFailure):
            lie_bracket_fields(v, w, basis)


class TestStructureConstants:
    def test_torus_killing_is_abelian(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 2)
        report = solve_fields(randers_field(torus), basis, mode="killing")
        fields = [basis.combination(c) for c in report.killing_basis]
        algebra, residual = extract_structure_constants(fields)
        assert residual <= 1e-10
        assert np.max(np.abs(algebra.constants)) <= 1e-10

    def test_single_field_has_zero_constants(self):
        torus = FlatTorus()
        algebra, residual = extract_structure_constants([TorusFourierVectorField.coordinate(torus, 0)])
        assert residual == 0.0
        assert algebra.constants.shape == (1, 1, 1) and not algebra.constants.any()

    def test_brackets_leaving_the_span_raise(self):
        torus = FlatTorus()
        mode = TorusFourierScalar(torus, terms=[((1, 0), 1.0, 0.0)])
        fields = [TorusFourierVectorField.coordinate(torus, i, mode) for i in (0, 1)]
        with pytest.raises(ClosureFailure):
            extract_structure_constants(fields)

    def test_sphere_killing_algebra_is_rotation_type(self):
        sphere = Sphere2(1.0)
        basis = sphere_basis(sphere, 2)
        report = solve_fields(RoundSphereField(sphere), basis, mode="killing")
        fields = [basis.combination(c) for c in report.killing_basis]
        algebra, _ = extract_structure_constants(fields)
        eigs = np.linalg.eigvalsh(killing_gram(algebra))
        assert np.all(eigs < -1e-8)  # negative definite Killing form

    def test_sphere_conformal_algebra_signature(self):
        sphere = Sphere2(1.0)
        basis = sphere_basis(sphere, 2)
        report = solve_fields(RoundSphereField(sphere), basis)
        fields = [basis.combination(c) for c in report.conformal_basis]
        algebra, _ = extract_structure_constants(fields)
        assert killing_signature(algebra) == (3, 3, 0)


class TestTransitivity:
    def test_two_translations_span_everywhere(self):
        torus = FlatTorus()
        fields = [
            TorusFourierVectorField.coordinate(torus, 0),
            TorusFourierVectorField.coordinate(torus, 1),
        ]
        assert all(transitivity_check(fields, torus.grid_points(4)))

    def test_single_field_never_spans(self):
        torus = FlatTorus()
        fields = [TorusFourierVectorField.coordinate(torus, 0)]
        assert not any(transitivity_check(fields, torus.grid_points(4)))

    def test_rescaled_killing_fields_fail_to_span(self):
        torus = FlatTorus()
        rho = TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 1.0, 0.0)])
        field = ConformalRescaleField(randers_field(torus), rho)
        basis = torus_basis(torus, 2)
        report = solve_fields(field, basis, mode="killing")
        fields = [basis.combination(c) for c in report.killing_basis]
        results = transitivity_check(fields, torus.grid_points(8))
        assert not any(results)
