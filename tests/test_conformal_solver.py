import dataclasses

import numpy as np
import pytest

from finslerfields import conformal_solver
from finslerfields.conformal_solver import (
    VERIFY_TOL_FACTOR,
    FieldBasis,
    SolverConfig,
    _spectral_gap,
    assemble_system,
    build_collocation,
    collocation_rows,
    extract_structure_constants,
    field_from_spec,
    null_space,
    pushforward_subspace_angle,
    solve_fields,
    sphere_basis,
    torus_basis,
    torus_fourier_modes,
    transitivity_check,
)
from finslerfields.errors import ClosureFailure, InvalidSettings, UnderdeterminedSystem
from finslerfields.experiments import ExperimentConfig
from finslerfields.lie_algebra import (
    compact_decomposition_check,
    derived_series,
    killing_gram,
    killing_signature,
    rotation_algebra,
)
from finslerfields.manifold import (
    ConformalRescaleField,
    ConstantNormField,
    FlatTorus,
    MobiusMap,
    RoundSphereField,
    ScalarField,
    Sphere2,
    SpherePolyScalar,
    SpherePolyVectorField,
    TorusFourierScalar,
    TorusFourierVectorField,
    TorusTranslation,
    field_tables,
    sphere_gradient_generators,
    sphere_rotation_generators,
    stack_points,
)
from finslerfields.norm_core import EuclideanNorm, RandersNorm


def randers_field(torus, b=(0.5, 0.0)):
    return ConstantNormField(torus, RandersNorm(np.eye(2), np.array(b)))


class ExpCosScalar(ScalarField):
    """exp(a cos 2 pi x1) on the unit torus: not a Fourier polynomial, but its log-derivative is."""

    def __init__(self, a):
        self.a = a

    def jets(self, points):
        x1 = stack_points(points)[:, 0]
        value = np.exp(self.a * np.cos(2.0 * np.pi * x1))
        d1 = -2.0 * np.pi * self.a * np.sin(2.0 * np.pi * x1) * value
        return np.stack([value, d1, np.zeros_like(d1)], axis=-1)


RESCALINGS = {
    "2+cos": lambda torus: TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 1.0, 0.0)]),
    "exp(0.7cos)": lambda torus: ExpCosScalar(0.7),
}
BASE_NORMS = {"randers": RandersNorm(np.eye(2), [0.5, 0.0]), "flat": EuclideanNorm(np.eye(2))}


def full_systems(field, basis, collocation):
    """The (P*D, A) rows N = (L_B F)/F from ``assemble_system``, and N centred over each fan."""
    evals = field.evals(*collocation_rows(collocation))
    rows = assemble_system(field, basis, collocation) / evals[:, None]
    fans = rows.reshape(*collocation[1].shape[:2], basis.n_fields)
    return rows, (fans - fans.mean(axis=1, keepdims=True)).reshape(rows.shape)


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

    @pytest.mark.parametrize("degree", range(9))
    def test_sphere_basis_counts(self, degree):
        # the vector spherical harmonics of degree <= d + 1: 3 gradients at d = 0, 11 at d = 1
        assert sphere_basis(Sphere2(1.0), degree).n_fields == (degree + 2) ** 2 + (degree + 1) ** 2 - 2

    @pytest.mark.parametrize("degree", range(7))
    def test_sphere_basis_spans_all_projected_maps(self, degree):
        # the oracle: all monomial maps q^e e_k with |e| <= d, projected; at sampled points
        # the kept fields have full rank, and all the maps together add nothing to it
        sphere = Sphere2(1.7)
        points = sphere.fibonacci_points(2 * (degree + 2) ** 2)
        every = [SpherePolyVectorField(sphere, {e: unit}) for e in np.ndindex((degree + 1,) * 3)
                 if sum(e) <= degree for unit in np.eye(3)]
        kept = list(sphere_basis(sphere, degree).elements)

        def rank(fields):
            values = field_tables(fields, points)[:, :2].reshape(-1, len(fields))
            svals = np.linalg.svd(values, compute_uv=False)
            return int(np.sum(svals > 1e-9 * svals[0]))

        assert rank(kept) == rank(kept + every) == len(kept)

    def test_elements_linearly_independent_over_collocation(self):
        for basis in (torus_basis(FlatTorus(), 2), sphere_basis(Sphere2(1.0), 2)):
            points, _ = build_collocation(basis.manifold, SolverConfig())
            values = np.stack([el.values(points) for el in basis.elements], axis=-1)
            rows = values.reshape(-1, basis.n_fields)
            svals = np.linalg.svd(rows, compute_uv=False)
            assert svals[-1] > 1e-8 * svals[0]


class TestAssemble:
    def test_translations_on_constant_norm_give_zero_matrix(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 0)
        assert basis.n_fields == 2
        field = randers_field(torus)
        collocation = build_collocation(torus, SolverConfig(x_density=4))
        matrix = assemble_system(field, basis, collocation)
        assert np.max(np.abs(matrix)) <= 1e-14

    def test_degree_one_conformal_system_has_six_dim_kernel(self):
        sphere = Sphere2(1.0)
        basis = sphere_basis(sphere, degree=1)  # affine maps: 6 generators and 5 that are not
        report = solve_fields(RoundSphereField(sphere), basis, config=SolverConfig(sphere_points=60))
        assert report.conformal_dim == 6
        assert np.linalg.matrix_rank(report.conformal_basis, tol=1e-10) == 6

    def test_degree_one_randers_kernel_projects_to_translations(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 1)
        report = solve_fields(randers_field(torus), basis, config=SolverConfig(x_density=6))
        assert report.conformal_dim == 2
        # all weight on the two constant coordinate fields, and no factor
        assert np.max(np.abs(report.conformal_basis[:, 2:])) <= 1e-10
        assert np.max(np.abs(report.conformal_factors)) <= 1e-10

    def test_row_bound_enforced(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 2)
        field = randers_field(torus)
        collocation = build_collocation(torus, SolverConfig(x_density=3, n_extra_directions=0))
        with pytest.raises(UnderdeterminedSystem):
            assemble_system(field, basis, collocation)

    @pytest.mark.parametrize("n_directions,rows", [(3, 75), (4, 100)])
    def test_row_bound_counts_the_fit_rows_only(self, n_directions, rows):
        # 25 fit points at degree 2 (50 unknowns): under 3 x 50 rows, although the
        # fit and verification rows evaluated together would meet the bound
        torus = FlatTorus()
        config = SolverConfig(x_density=5, n_directions=n_directions, n_extra_directions=0)
        with pytest.raises(UnderdeterminedSystem, match=rf"^{rows} rows for 50 unknowns"):
            solve_fields(randers_field(torus), torus_basis(torus, 2), config=config)

    def test_unknown_mode_rejected(self):
        torus = FlatTorus()
        basis = torus_basis(torus, 0)
        with pytest.raises(ValueError, match="isometric"):
            solve_fields(randers_field(torus), basis, mode="isometric")


class TestSolveFields:
    @pytest.mark.parametrize("key,value", [
        ("x_density", 1), ("sphere_points", 15),
        ("n_directions", 0), ("n_extra_directions", -1), ("n_directions", 2), ("seed", -1),
    ])
    def test_solver_config_rejects_settings_that_change_counts(self, key, value):
        # with one direction per point the centred system is zero, so every field
        # would read as conformal
        with pytest.raises(ValueError, match=key):
            SolverConfig(**{"n_extra_directions": 0, key: value})

    @pytest.mark.parametrize("cls,key,value", [
        (cls, key, value) for cls in (SolverConfig, ExperimentConfig)
        for key, value in [("x_density", "8"), ("x_density", 8.5), ("sphere_points", np.int64(150)),
                           ("n_directions", True), ("seed", None)]
    ] + [(ExperimentConfig, "degree", 2.0), (ExperimentConfig, "resolution", "1024")])
    def test_integer_settings_take_python_ints(self, cls, key, value):
        with pytest.raises(InvalidSettings, match=f"\\['{key}'\\] must be integers"):
            cls(**{key: value})

    def test_integer_check_reads_annotations_that_are_types(self):
        # this module does not postpone annotations, so the new field's type is int itself
        @dataclasses.dataclass
        class Sized(SolverConfig):
            count: int = 3

        assert dataclasses.fields(Sized)[-1].type is int
        assert Sized().count == 3
        for value in ("3", 3.5, True):
            with pytest.raises(InvalidSettings, match="\\['count'\\] must be integers"):
                Sized(count=value)

    @pytest.mark.parametrize("rho", [
        lambda torus: TorusFourierScalar(torus, const=-1.0),
        lambda torus: TorusFourierScalar(torus, const=0.5, terms=[((1, 0), 1.0, 0.0)]),
        lambda torus: TorusFourierScalar(torus, const=np.nan),
    ], ids=["negative", "sign-changing", "nan"])
    def test_field_that_is_not_positive_is_rejected(self, rho):
        # rho = 0.5 + cos 2 pi x1 used to give K/C 1/2 with no flag
        torus = FlatTorus()
        field = ConformalRescaleField(randers_field(torus), rho(torus))
        with pytest.raises(InvalidSettings, match="the field is not positive"):
            solve_fields(field, torus_basis(torus, 1))

    def test_solver_config_accepts_the_smallest_settings(self):
        config = SolverConfig(x_density=2, sphere_points=16, n_directions=3, n_extra_directions=0)
        assert (config.x_density, config.sphere_points) == (2, 16)

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
        # a Killing field has (L_V F)/F = 0 in every direction, so it also
        # solves the system centred over each fan
        torus = FlatTorus()
        field = randers_field(torus)
        basis = torus_basis(torus, 2)
        config = SolverConfig()
        _, centred = full_systems(field, basis, build_collocation(torus, config))
        report = solve_fields(field, basis, mode="killing", config=config)
        for coeffs in report.killing_basis:
            assert np.max(np.abs(centred @ coeffs)) <= 1e-10

    def test_dimensions_stable_under_density_and_seed(self):
        torus = FlatTorus()
        field = randers_field(torus)
        basis = torus_basis(torus, 2)
        reference = solve_fields(field, basis, config=SolverConfig())
        denser = solve_fields(field, basis, config=SolverConfig(x_density=16))
        reseeded = solve_fields(field, basis, config=SolverConfig(seed=42))
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
        basis = FieldBasis(torus, full.elements[2:], 1)
        report = solve_fields(randers_field(torus), basis)
        assert report.conformal_dim == 0
        n_verification = len(build_collocation(torus, SolverConfig(), offset_points=True)[0])
        assert report.conformal_factors.shape == (0, n_verification)

    def test_killing_mode_skips_conformal_solve(self):
        torus = FlatTorus()
        report = solve_fields(randers_field(torus), torus_basis(torus, 2), mode="killing")
        assert report.killing_dim == 2
        assert report.conformal_dim is None

    @pytest.mark.parametrize("mode", ["killing", "conformal"])
    @pytest.mark.parametrize("norm", list(BASE_NORMS))
    def test_failed_verification_is_flagged(self, norm, mode):
        # rho = 2 + cos 2 pi (8 x1 - 0.31) is 3 with zero gradient at every point
        # of the default fit grid, so the fit reads both translations as Killing
        # where only d2 is; the disjoint verification grid sees rho vary
        torus = FlatTorus()
        phase = 2.0 * np.pi * 0.31
        rho = TorusFourierScalar(torus, const=2.0,
                                 terms=[((8, 0), np.cos(phase), np.sin(phase))])
        field = ConformalRescaleField(ConstantNormField(torus, BASE_NORMS[norm]), rho)
        report = solve_fields(field, torus_basis(torus, 2), mode=mode)
        assert report.killing_dim == 2
        assert report.max_residual > VERIFY_TOL_FACTOR * report.tolerance_used
        assert "verification residual above tolerance" in report.flags

    @pytest.mark.parametrize("degree,x_density", [(2, 4), (4, 8)])
    def test_torus_grid_that_aliases_the_ansatz_is_rejected(self, degree, x_density):
        # a degree-d trigonometric polynomial is determined by its samples on an
        # n x n grid only from n = 2d + 1 on; (4, 8) gave 10/23, caught only
        # by the verification flag
        torus = FlatTorus()
        with pytest.raises(UnderdeterminedSystem,
                           match=rf"x_density {x_density} < 2 \* degree {degree} "):
            solve_fields(randers_field(torus), torus_basis(torus, degree),
                         config=SolverConfig(x_density=x_density))

    @pytest.mark.parametrize("degree,sphere_points", [(3, 24), (11, 150)])
    def test_sphere_points_that_cannot_carry_the_ansatz_are_rejected(self, degree, sphere_points):
        # (d + 2)^2 is the dimension of the polynomials of degree <= d + 1 on the sphere;
        # degree 11 at 150 points gave C = 11, caught only by the verification flag
        sphere = Sphere2(1.0)
        with pytest.raises(UnderdeterminedSystem,
                           match=rf"sphere_points {sphere_points} < \(degree {degree} \+ 2\)\^2"):
            solve_fields(RoundSphereField(sphere), sphere_basis(sphere, degree),
                         config=SolverConfig(sphere_points=sphere_points))

    @pytest.mark.parametrize("kind", ["flat_torus", "sphere"])
    def test_a_degree_the_sampling_cannot_carry_is_rejected_before_the_basis(self, monkeypatch,
                                                                             kind):
        def unbuilt(*args):
            raise AssertionError("the basis was built")

        monkeypatch.setattr(conformal_solver, "torus_basis", unbuilt)
        monkeypatch.setattr(conformal_solver, "sphere_basis", unbuilt)
        metric = {"kind": "round"} if kind == "sphere" else {
            "kind": "constant_norm", "norm": {"family": "euclidean", "dim": 2, "q": np.eye(2).tolist()}}
        with pytest.raises(UnderdeterminedSystem):
            field_from_spec({"manifold": {"kind": kind}, "metric": metric, "degree": 200})

    def test_field_spec_reads_its_solver_section(self):
        spec = {"manifold": {"kind": "sphere"}, "metric": {"kind": "round"}, "degree": 1,
                "solver": {"sphere_points": 40, "seed": 3}}
        _, basis, config = field_from_spec(spec)
        assert (basis.n_fields, config) == (11, SolverConfig(sphere_points=40, seed=3))

    def test_torus_grid_of_two_degrees_plus_one_is_accepted(self):
        torus = FlatTorus()
        report = solve_fields(randers_field(torus), torus_basis(torus, 2),
                              config=SolverConfig(x_density=5))
        assert (report.killing_dim, report.conformal_dim) == (2, 2)

    @pytest.mark.parametrize("degree", range(1, 7))
    @pytest.mark.parametrize("radius", [1e-6, 1e-4, 1e-3, 1e-2, 1.0, 1e2, 1e3, 1e4, 1e6])
    def test_passed_verification_is_not_flagged(self, radius, degree):
        # the ansatz is built in units of the radius, so every scale gives the r = 1 system
        sphere = Sphere2(radius)
        report = solve_fields(RoundSphereField(sphere), sphere_basis(sphere, degree))
        assert (report.killing_dim, report.conformal_dim) == (3, 6)
        assert report.conformal_gap >= 1e4
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

    @pytest.mark.parametrize("degree", [2, 4])
    @pytest.mark.parametrize("norm", list(BASE_NORMS))
    @pytest.mark.parametrize("rescaling", list(RESCALINGS))
    def test_rescaled_torus_conformal_fields_are_the_base_killing_fields(self, rescaling, norm,
                                                                         degree):
        # rho F is conformal to F, so its conformal fields are the translations d1, d2
        # that are Killing for F; only d2 is Killing for rho F, and the factor of
        # c1 d1 + c2 d2 is c1 d1 log rho, outside the ansatz for rho = 2 + cos
        torus = FlatTorus()
        rho = RESCALINGS[rescaling](torus)
        field = ConformalRescaleField(ConstantNormField(torus, BASE_NORMS[norm]), rho)
        config = SolverConfig(x_density=4 * degree)   # resolves the top Fourier mode of the ansatz
        report = solve_fields(field, torus_basis(torus, degree), config=config)
        assert (report.killing_dim, report.conformal_dim) == (1, 2)
        assert report.conformal_gap >= 1e4
        assert report.flags == []
        assert np.max(np.abs(report.conformal_basis[:, 2:])) <= 1e-10
        points, _ = build_collocation(torus, config, offset_points=True)
        log_derivative = rho.grads(points)[:, 0] / rho.values(points)
        expected = report.conformal_basis[:, :1] * log_derivative
        assert np.max(np.abs(report.conformal_factors - expected)) <= 1e-8

    @pytest.mark.parametrize("radius", [1e-4, 1.0, 1e4])
    def test_ansatz_conformal_throughout_keeps_its_full_kernel(self, radius):
        # the six generators make the centred system zero up to round-off; its
        # kernel is read against the uncentred system's scale, not its own
        sphere = Sphere2(radius)
        basis = FieldBasis(sphere, sphere_rotation_generators(sphere)
                           + sphere_gradient_generators(sphere), 1)
        report = solve_fields(RoundSphereField(sphere), basis)
        assert (report.killing_dim, report.conformal_dim) == (3, 6)
        assert report.flags == []

    def test_rescaled_sphere_keeps_only_the_axial_rotation(self):
        # rho = 2 + n3/2 breaks all isometries except rotation about the pole
        sphere = Sphere2(1.0)
        rho = SpherePolyScalar(sphere, {(0, 0, 0): 2.0, (0, 0, 1): 0.5})
        field = ConformalRescaleField(RoundSphereField(sphere), rho)
        basis = sphere_basis(sphere, 2)
        report = solve_fields(field, basis, mode="killing")
        assert report.killing_dim == 1
        points = sphere.fibonacci_points(50)
        solved = basis.combination(report.killing_basis[0]).values(points)
        polar = sphere_rotation_generators(sphere)[2].values(points)   # p x e3
        scale = np.sum(solved * polar) / np.sum(polar * polar)
        assert abs(scale) > 0.1
        assert np.max(np.abs(solved - scale * polar)) <= 1e-8
        assert report.max_residual <= 10.0 * report.tolerance_used

    def test_rescaled_sphere_keeps_the_conformal_algebra(self):
        # rho F is conformal to F, so all six conformal fields of the round sphere remain
        sphere = Sphere2(1.0)
        rho = SpherePolyScalar(sphere, {(0, 0, 0): 2.0, (0, 0, 1): 0.5})
        field = ConformalRescaleField(RoundSphereField(sphere), rho)
        report = solve_fields(field, sphere_basis(sphere, 2))
        assert (report.killing_dim, report.conformal_dim) == (1, 6)
        assert report.conformal_gap >= 1e4
        assert report.flags == []


def _factor_solve_cases():
    torus, sphere = FlatTorus(), Sphere2(1.3)
    rho = TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 1.0, 0.0)])
    return {
        "randers torus": (randers_field(torus), torus_basis(torus, 2), SolverConfig()),
        "rescaled torus": (ConformalRescaleField(randers_field(torus), rho), torus_basis(torus, 2),
                           SolverConfig()),
        "round sphere": (RoundSphereField(sphere), sphere_basis(sphere, 2), SolverConfig()),
        "three-direction fan": (randers_field(torus), torus_basis(torus, 2),
                                SolverConfig(n_directions=3, n_extra_directions=0)),
    }


class TestFactorSolve:
    """The per-point jet factors against the full (P*D, A) systems they replace."""

    @pytest.mark.parametrize("case", list(_factor_solve_cases()))
    def test_factor_solve_equals_the_full_systems(self, case):
        field, basis, config = _factor_solve_cases()[case]
        rows, centred = full_systems(field, basis, build_collocation(basis.manifold, config))
        report = solve_fields(field, basis, config=config)
        k_dim, _, k_svals = null_space(rows)
        c_dim, _, c_svals = null_space(centred, k_svals[0])
        scale = 1e-12 * k_svals[0]
        assert np.max(np.abs(report.killing_singular_values - k_svals)) <= scale
        assert np.max(np.abs(report.conformal_singular_values - c_svals)) <= scale
        assert (report.killing_dim, report.conformal_dim) == (k_dim, c_dim)

    @pytest.mark.parametrize("case", list(_factor_solve_cases()))
    def test_jet_wise_verification_equals_the_full_matrix_residuals(self, case):
        field, basis, config = _factor_solve_cases()[case]
        verification = build_collocation(basis.manifold, config, offset_points=True)
        rows, centred = full_systems(field, basis, verification)
        report = solve_fields(field, basis, config=config)
        fan_means = rows.reshape(verification[1].shape[0], -1, basis.n_fields).mean(axis=1)
        # the residuals are themselves round-off, so they agree to round-off of the system's scale
        atol = 1e-17 * report.killing_singular_values[0]
        assert report.residuals["killing"] == pytest.approx(
            np.max(np.abs(rows @ report.killing_basis.T)), rel=0, abs=atol)
        assert report.residuals["conformal"] == pytest.approx(
            np.max(np.abs(centred @ report.conformal_basis.T)), rel=0, abs=atol)
        np.testing.assert_allclose(report.conformal_factors, report.conformal_basis @ fan_means.T,
                                   rtol=0, atol=1e-16 * report.killing_singular_values[0])

    @pytest.mark.parametrize("case,system", [
        ("randers torus", {"rows": 640, "factor_rows": 384, "unknowns": 50}),
        # fewer than six directions: each point's factor keeps its D rows
        ("three-direction fan", {"rows": 192, "factor_rows": 192, "unknowns": 50}),
    ])
    def test_report_records_the_system_sizes(self, case, system):
        field, basis, config = _factor_solve_cases()[case]
        assert solve_fields(field, basis, mode="killing", config=config).system == system


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


def _solved_fields(field, basis, mode):
    report = solve_fields(field, basis, mode=mode)
    coefficients = report.killing_basis if mode == "killing" else report.conformal_basis
    return [basis.combination(c) for c in coefficients]


def _torus_killing_fields():
    torus = FlatTorus()
    return _solved_fields(randers_field(torus), torus_basis(torus, 2), "killing")


def _sphere_fields(mode):
    sphere = Sphere2(1.0)
    return _solved_fields(RoundSphereField(sphere), sphere_basis(sphere, 2), mode)


def _rotations_and_gradients():
    sphere = Sphere2(1.0)
    return sphere_rotation_generators(sphere) + sphere_gradient_generators(sphere)


def _translations():
    torus = FlatTorus()
    return [TorusFourierVectorField.coordinate(torus, i) for i in (0, 1)]


def _modes_times_coordinates():
    torus = FlatTorus()
    mode = TorusFourierScalar(torus, terms=[((1, 0), 1.0, 0.0)])
    return [TorusFourierVectorField.coordinate(torus, i, mode) for i in (0, 1)]


def _rotation_and_gradient():
    # the rotation about e1 turns the gradient of p2 into that of p3
    sphere = Sphere2(1.0)
    return [sphere_rotation_generators(sphere)[0], sphere_gradient_generators(sphere)[1]]


class TestStructureConstants:
    @pytest.mark.parametrize("fields", [_torus_killing_fields, _translations],
                             ids=["solved", "translations"])
    def test_torus_killing_is_abelian(self, fields):
        algebra, residual = extract_structure_constants(fields())
        assert residual <= 1e-10
        assert np.max(np.abs(algebra.constants)) <= 1e-10

    def test_rotations_close_on_the_third_generator(self):
        # [r1, r2] = r3 cyclically: the constants of the rotation algebra
        algebra, residual = extract_structure_constants(sphere_rotation_generators(Sphere2(1.0)))
        assert residual <= 1e-10
        np.testing.assert_allclose(algebra.constants, rotation_algebra().constants, atol=1e-10)

    def test_single_field_has_zero_constants(self):
        torus = FlatTorus()
        algebra, residual = extract_structure_constants([TorusFourierVectorField.coordinate(torus, 0)])
        assert residual == 0.0
        assert algebra.constants.shape == (1, 1, 1) and not algebra.constants.any()

    @pytest.mark.parametrize("fields", [_modes_times_coordinates, _rotation_and_gradient],
                             ids=["torus-modes", "rotation-and-gradient"])
    def test_brackets_leaving_the_span_raise(self, fields):
        with pytest.raises(ClosureFailure):
            extract_structure_constants(fields())

    def test_sphere_killing_algebra_is_rotation_type(self):
        algebra, _ = extract_structure_constants(_sphere_fields("killing"))
        eigs = np.linalg.eigvalsh(killing_gram(algebra))
        assert np.all(eigs < -1e-8)  # negative definite Killing form

    @pytest.mark.parametrize("fields",
                             [lambda: _sphere_fields("conformal"), _rotations_and_gradients],
                             ids=["solved", "rotations-and-gradients"])
    def test_sphere_conformal_algebra_signature(self, fields):
        algebra, residual = extract_structure_constants(fields())
        assert residual <= 1e-8
        assert killing_signature(algebra) == (3, 3, 0)

    @pytest.mark.parametrize("lattice", [None, [[1.0, 0.3], [0.0, 1.2]]], ids=["unit", "skewed"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_solved_randers_torus_algebra_reads_as_abelian(self, degree, lattice):
        # the extracted constants are round-off, up to 2e-15 at degree 3: measured against
        # their own size rather than the fields' they read as a solvable, non-compact algebra
        torus = FlatTorus(None if lattice is None else np.array(lattice))
        fields = _solved_fields(randers_field(torus), torus_basis(torus, degree), "conformal")
        algebra, _ = extract_structure_constants(fields)
        assert not algebra.constants.any()
        assert derived_series(algebra) == [2, 0]
        assert killing_signature(algebra) == (0, 0, 2)
        report = compact_decomposition_check(algebra)
        assert (report.compact_type, report.derived_dim, report.center_dim) == (True, 0, 2)

    @pytest.mark.parametrize("radius", [1e-8, 1.0, 1e10])
    def test_closure_is_judged_at_the_fields_scale(self, radius):
        # residuals scale with R: so(3) re-expands to 5.7e-6 at R = 1e10, and the pair below,
        # which does not close, to 0.97 R, under an absolute 1e-6 for R <= 1e-6
        sphere = Sphere2(radius)
        algebra, _ = extract_structure_constants(sphere_rotation_generators(sphere))
        np.testing.assert_allclose(algebra.constants, rotation_algebra().constants, atol=1e-8)
        pair = [sphere_rotation_generators(sphere)[0], sphere_basis(sphere, 2).elements[-1]]
        with pytest.raises(ClosureFailure):
            extract_structure_constants(pair)

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_solved_sphere_algebras_at_any_radius(self, degree, radius):
        sphere = Sphere2(radius)
        basis = sphere_basis(sphere, degree)
        report = solve_fields(RoundSphereField(sphere), basis)
        killing, _ = extract_structure_constants([basis.combination(c) for c in report.killing_basis])
        conformal, _ = extract_structure_constants(
            [basis.combination(c) for c in report.conformal_basis])
        decomposition = compact_decomposition_check(killing)
        assert (decomposition.compact_type, decomposition.derived_dim) == (True, 3)
        assert killing_signature(conformal) == (3, 3, 0)


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
