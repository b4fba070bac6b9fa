"""Null-space solver for Killing and conformal vector fields of a Finsler field.

The conformality condition L_V F = rho * F is linear in (V, rho).  Within a
finite ansatz of vector fields and scalar factor functions it becomes a dense
linear system, one row per collocation pair (x, y); the kernel is extracted
by SVD with a relative singular-value threshold and audited through the
spectral gap around that threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ClosureFailure, UnderdeterminedSystem
from .lie_algebra import LieAlgebraSC, null_space
from .manifold import (
    AmbientPolyScalar,
    CombinationVectorField,
    FlatTorus,
    Sphere2,
    SpherePolyVectorField,
    TorusFourierScalar,
    TorusFourierVectorField,
    sample_points,
    sphere_gradient_generators,
    sphere_rotation_generators,
    stack_points,
)

DEFAULT_TOL_RATIO = 1e-8
MIN_ROW_FACTOR = 3
GAP_WARN = 1e2
# A verification residual above this multiple of ``tolerance_used`` fails the self-check.
VERIFY_TOL_FACTOR = 10.0


def torus_fourier_modes(degree):
    """(0, 0) plus one representative per +-k pair with max-norm <= degree."""
    ks = []
    for k1 in range(-degree, degree + 1):
        for k2 in range(-degree, degree + 1):
            if (k2 > 0) or (k2 == 0 and k1 > 0):
                ks.append((k1, k2))
    return ks


@dataclass
class FieldBasis:
    """Finite-dimensional ansatz: vector-field elements plus scalar factor functions."""

    manifold: object
    elements: list
    rho_elements: list
    degree: int

    @property
    def n_fields(self):
        return len(self.elements)

    @property
    def n_rho(self):
        return len(self.rho_elements)

    def combination(self, coefficients):
        return CombinationVectorField(self.elements, coefficients)


def torus_basis(torus, degree):
    """Coordinate fields times Fourier modes up to the given degree, same modes for rho."""
    elements = [
        TorusFourierVectorField.coordinate(torus, 0),
        TorusFourierVectorField.coordinate(torus, 1),
    ]
    rho = [TorusFourierScalar(torus, const=1.0)]
    for k in torus_fourier_modes(degree):
        cos_mode = TorusFourierScalar(torus, terms=[(k, 1.0, 0.0)])
        sin_mode = TorusFourierScalar(torus, terms=[(k, 0.0, 1.0)])
        for index in (0, 1):
            elements.append(TorusFourierVectorField.coordinate(torus, index, cos_mode))
            elements.append(TorusFourierVectorField.coordinate(torus, index, sin_mode))
        rho.append(cos_mode)
        rho.append(sin_mode)
    return FieldBasis(manifold=torus, elements=elements, rho_elements=rho, degree=degree)


def sphere_harmonic_rho(sphere):
    """Nine independent restrictions of ambient polynomials of degree <= 2."""
    def quad(i, j, scale=1.0):
        q = np.zeros((3, 3))
        q[i, j] += 0.5 * scale
        q[j, i] += 0.5 * scale
        return q

    out = [AmbientPolyScalar(sphere, const=1.0)]
    for i in range(3):
        linear = np.zeros(3)
        linear[i] = 1.0
        out.append(AmbientPolyScalar(sphere, linear=linear))
    out.append(AmbientPolyScalar(sphere, quadratic=quad(0, 1, 2.0)))
    out.append(AmbientPolyScalar(sphere, quadratic=quad(0, 2, 2.0)))
    out.append(AmbientPolyScalar(sphere, quadratic=quad(1, 2, 2.0)))
    out.append(AmbientPolyScalar(sphere, quadratic=np.diag([1.0, -1.0, 0.0])))
    out.append(AmbientPolyScalar(sphere, quadratic=np.diag([-1.0, -1.0, 2.0])))
    return out


def sphere_monomial_rho(sphere):
    """All ten degree-<=2 ambient monomials; dependent on the sphere (sum of squares = R^2)."""
    out = [AmbientPolyScalar(sphere, const=1.0)]
    for i in range(3):
        linear = np.zeros(3)
        linear[i] = 1.0
        out.append(AmbientPolyScalar(sphere, linear=linear))
    for i in range(3):
        q = np.zeros((3, 3))
        q[i, i] = 1.0
        out.append(AmbientPolyScalar(sphere, quadratic=q))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        q = np.zeros((3, 3))
        q[i, j] = q[j, i] = 0.5
        out.append(AmbientPolyScalar(sphere, quadratic=q))
    return out


SPHERE_DEGREES = (1, 2)


def sphere_basis(sphere, degree=2, rho_elements=None):
    """Conformal generators plus the remaining chart polynomials of degree <= 2.

    The six generators (three rotations, three gradient fields) span the
    holomorphic chart polynomials; for degree 2 the antiholomorphic monomials
    are appended so the ansatz does not presuppose the answer.  Other degrees
    raise ValueError rather than being recorded for an ansatz they do not
    describe.
    """
    if degree not in SPHERE_DEGREES:
        raise ValueError(f"sphere_basis supports degrees {SPHERE_DEGREES}, got {degree!r}")
    elements = sphere_rotation_generators(sphere) + sphere_gradient_generators(sphere)
    if degree == 2:
        for j, k in ((0, 1), (1, 1), (0, 2)):
            elements.append(SpherePolyVectorField(sphere, {(j, k): 1.0}))
            elements.append(SpherePolyVectorField(sphere, {(j, k): 1.0j}))
    if rho_elements is None:
        rho_elements = sphere_harmonic_rho(sphere)
    return FieldBasis(manifold=sphere, elements=elements, rho_elements=rho_elements, degree=degree)


# ---------------------------------------------------------------------------
# collocation


@dataclass
class SolverConfig:
    x_density: int = 8          # per-axis grid on the torus
    sphere_points: int = 150    # Fibonacci points on the sphere
    n_directions: int = 8       # fixed directions per point
    n_extra_directions: int = 2  # seeded random supplement
    seed: int = 0
    tol_ratio: float = DEFAULT_TOL_RATIO
    verify: bool = True


def _directions(count, offset, extra, rng):
    angles = np.arange(count) * (2.0 * np.pi / count) + offset
    if extra > 0:
        angles = np.concatenate([angles, rng.uniform(0.0, 2.0 * np.pi, size=extra)])
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def build_collocation(manifold, config, offset_points=False):
    """List of (point, direction) pairs; the offset variant is disjoint from the default."""
    rng = np.random.default_rng(config.seed + (1 if offset_points else 0))
    pairs = []
    if isinstance(manifold, FlatTorus):
        shift = (0.31, 0.47) if not offset_points else (0.11, 0.79)
        points = manifold.grid_points(config.x_density, offset=shift)
        base_angle = 0.2141 if not offset_points else 0.5903
    elif isinstance(manifold, Sphere2):
        count = config.sphere_points if not offset_points else config.sphere_points + 37
        points = manifold.fibonacci_points(count)
        base_angle = 0.1309 if not offset_points else 0.4441
    else:
        raise ValueError("collocation supports the torus and the sphere")
    for pt in points:
        dirs = _directions(config.n_directions, base_angle, config.n_extra_directions, rng)
        for y in dirs:
            pairs.append((pt, y))
    return pairs


def _collocation_arrays(collocation):
    """The points of a list of (point, direction) pairs as one batch, and an (m, 2) direction array."""
    points = stack_points([pt for pt, _ in collocation])
    return points, np.array([y for _, y in collocation], dtype=float).reshape(-1, 2)


def assemble_system(field, basis, collocation, mode):
    """Dense collocation matrix for L_V F = 0 (killing) or L_V F - rho F = 0 (conformal).

    One row per (x, y) pair; field columns hold (L_{B_a} F)(x, y), and in
    conformal mode the trailing columns hold -phi_b(x) F(x, y), so the Killing
    matrix is the leading ``basis.n_fields`` columns of the conformal one.
    Every row is evaluated at once through the batched field methods.
    """
    if mode not in ("killing", "conformal"):
        raise ValueError(f"unknown mode {mode!r}")
    n_unknowns = basis.n_fields + (basis.n_rho if mode == "conformal" else 0)
    if len(collocation) < MIN_ROW_FACTOR * n_unknowns:
        raise UnderdeterminedSystem(
            f"{len(collocation)} rows for {n_unknowns} unknowns "
            f"(need >= {MIN_ROW_FACTOR}x)"
        )
    points, ys = _collocation_arrays(collocation)
    values = np.stack([el.values(points) for el in basis.elements], axis=1)
    jacobians = np.stack([el.jacobians(points) for el in basis.elements], axis=1)
    # L_V F = V^i dF/dx^i + (dV^i/dx^j) y^j dF/dy^i for every row m and element a
    lift = field.grads_y(points, ys)[:, :, None] * ys[:, None, :]
    rows = (np.einsum("mai,mi->ma", values, field.grads_x(points, ys))
            + np.einsum("maij,mij->ma", jacobians, lift))
    if mode == "killing":
        return rows
    rho = np.stack([phi.values(points) for phi in basis.rho_elements], axis=1)
    return np.hstack([rows, -rho * field.evals(points, ys)[:, None]])


def _spectral_gap(svals, null_dim, total_cols):
    """Ratio between the smallest nonzero and the largest zero-classified singular value."""
    svals = np.asarray(svals, dtype=float)
    if null_dim == 0 or null_dim >= total_cols:
        return np.inf
    kept = svals[total_cols - null_dim - 1]
    discarded = svals[total_cols - null_dim]
    if discarded == 0.0:
        return np.inf
    return float(kept / discarded)


@dataclass
class SolveReport:
    """Dimensions, bases, factors, and audit data returned by the field solver."""

    mode: str
    basis_degree: int
    killing_dim: int
    killing_basis: np.ndarray
    killing_singular_values: np.ndarray
    killing_gap: float
    conformal_dim: int | None = None
    conformal_basis: np.ndarray | None = None
    conformal_factors: np.ndarray | None = None
    conformal_factor_residuals: np.ndarray | None = None
    conformal_singular_values: np.ndarray | None = None
    conformal_gap: float | None = None
    residuals: dict = dataclass_field(default_factory=dict)
    tolerance_used: float = 0.0
    flags: list = dataclass_field(default_factory=list)

    @property
    def gap(self):
        return self.conformal_gap if self.conformal_gap is not None else self.killing_gap

    @property
    def max_residual(self):
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def verification_bound(self):
        return VERIFY_TOL_FACTOR * self.tolerance_used


def solve_fields(field, basis, mode="conformal", config=None):
    """Compute the Killing (and optionally conformal) fields within the ansatz.

    The Killing system is always solved.  In conformal mode the joint system
    in (V, rho) is solved as well; the conformal dimension is the rank of the
    kernel's projection onto the field coefficients, which guards against
    spurious kernel vectors supported on a dependent rho basis.  Factors of
    all fields are recovered by one least-squares solve of (L_V F)/F against
    the rho basis, and out-of-sample residuals are evaluated on a disjoint
    collocation set.
    Each collocation set is assembled once: the Killing matrix is the field
    block of the conformal one.  Safeguards that fire are recorded in
    ``flags``, among them a verification residual above ``VERIFY_TOL_FACTOR``
    times the tolerance.
    """
    config = config or SolverConfig()
    n = basis.n_fields
    collocation = build_collocation(basis.manifold, config)
    system = assemble_system(field, basis, collocation, mode)

    a_killing = system[:, :n]
    k_dim, k_basis, k_svals = null_space(a_killing, config.tol_ratio)
    k_gap = _spectral_gap(k_svals, k_dim, n)
    tolerance = config.tol_ratio * float(k_svals[0]) if k_svals[0] > 0 else config.tol_ratio

    report = SolveReport(
        mode=mode,
        basis_degree=basis.degree,
        killing_dim=k_dim,
        killing_basis=k_basis,
        killing_singular_values=k_svals,
        killing_gap=k_gap,
        tolerance_used=tolerance,
    )
    if k_gap < GAP_WARN:
        report.flags.append("ill-conditioned: killing spectral gap below 1e2")

    if mode == "conformal":
        c_dim_raw, c_null, c_svals = null_space(system, config.tol_ratio)
        c_gap = _spectral_gap(c_svals, c_dim_raw, n + basis.n_rho)
        if c_dim_raw > 0:
            proj = c_null[:, :n]
            _, p_svals, p_vt = np.linalg.svd(proj, full_matrices=False)
            c_dim = int((p_svals > 1e-8 * max(p_svals[0], 1e-300)).sum())
            c_basis = p_vt[:c_dim]
        else:
            c_dim, c_basis = 0, np.zeros((0, n))
        if c_dim < c_dim_raw:
            report.flags.append("spurious rho-only kernel vector: rho basis is dependent")
        tolerance = config.tol_ratio * float(c_svals[0]) if c_svals[0] > 0 else config.tol_ratio
        report.tolerance_used = tolerance
        report.conformal_dim = c_dim
        report.conformal_basis = c_basis
        report.conformal_singular_values = c_svals
        report.conformal_gap = c_gap
        if c_gap < GAP_WARN:
            report.flags.append("ill-conditioned: conformal spectral gap below 1e2")

        # (L_V F)/F = (A_killing c)/F and the rho columns of the conformal
        # system are -phi_b(x) F, so both reuse the assembled matrix.
        fvals = field.evals(*_collocation_arrays(collocation))
        phi_rows = -system[:, n:] / fvals[:, None]
        targets = (a_killing @ c_basis.T) / fvals[:, None]
        fits, *_ = np.linalg.lstsq(phi_rows, targets, rcond=None)
        report.conformal_factors = fits.T
        report.conformal_factor_residuals = np.max(np.abs(phi_rows @ fits - targets), axis=0)

    if config.verify:
        verification = build_collocation(basis.manifold, config, offset_points=True)
        a_ver = assemble_system(field, basis, verification, mode)
        if k_dim > 0:
            report.residuals["killing"] = float(np.max(np.abs(a_ver[:, :n] @ k_basis.T)))
        else:
            report.residuals["killing"] = 0.0
        if mode == "conformal" and report.conformal_dim:
            stacked = np.hstack([report.conformal_basis, report.conformal_factors])
            report.residuals["conformal"] = float(np.max(np.abs(a_ver @ stacked.T)))
        if report.max_residual > report.verification_bound:
            report.flags.append("verification residual above tolerance")
    return report


# ---------------------------------------------------------------------------
# bracket and algebra extraction


def _evaluation_matrix(values):
    """Columns of field values, each flattened point by point, from a sequence of (m, 2) arrays."""
    return np.stack([v.ravel() for v in values], axis=1)


def _bracket_values(v_values, v_jacobians, w_values, w_jacobians):
    """[V, W] = DW V - DV W at every point, flattened point by point.

    Leading axes before the (m, 2) point axes are kept, so a stack of field
    pairs gives one flattened bracket per pair.
    """
    brackets = (np.einsum("...ij,...j->...i", w_jacobians, v_values)
                - np.einsum("...ij,...j->...i", v_jacobians, w_values))
    *lead, m, dim = brackets.shape
    return brackets.reshape(*lead, m * dim)


def lie_bracket_fields(v, w, basis, sample_count=40, tol=1e-6):
    """Bracket [V, W] re-expanded in the basis by least squares.

    Returns the expanded field and the pointwise expansion residual; raises
    ClosureFailure when the bracket leaves the span of the basis.
    """
    points = stack_points(sample_points(basis.manifold, sample_count, seed=11))
    emat = _evaluation_matrix([el.values(points) for el in basis.elements])
    target = _bracket_values(v.values(points), v.jacobians(points),
                             w.values(points), w.jacobians(points))
    coeffs, *_ = np.linalg.lstsq(emat, target, rcond=None)
    residual = float(np.max(np.abs(emat @ coeffs - target)))
    if residual > tol:
        raise ClosureFailure(residual, f"bracket leaves the basis span (residual {residual:.3e})")
    return basis.combination(coeffs), residual


def extract_structure_constants(fields, sample_count=60, tol=1e-6):
    """Structure constants of a list of fields whose brackets close in their span.

    Each field is evaluated once; the brackets of all pairs are formed from
    those arrays and expanded in one least-squares solve.
    """
    if not fields:
        raise ValueError("need at least one field")
    points = stack_points(sample_points(fields[0].manifold, sample_count, seed=11))
    values = np.stack([vf.values(points) for vf in fields])
    jacobians = np.stack([vf.jacobians(points) for vf in fields])
    n = len(fields)
    first, second = np.triu_indices(n, 1)
    emat = _evaluation_matrix(values)
    targets = _bracket_values(values[first], jacobians[first], values[second], jacobians[second]).T
    coeffs, *_ = np.linalg.lstsq(emat, targets, rcond=None)
    worst = float(np.max(np.abs(emat @ coeffs - targets), initial=0.0))
    if worst > tol:
        raise ClosureFailure(worst, f"brackets leave the span (residual {worst:.3e})")
    constants = np.zeros((n, n, n))
    constants[first, second] = coeffs.T
    constants[second, first] = -coeffs.T
    return LieAlgebraSC(constants), worst


def transitivity_check(fields, points, threshold_ratio=1e-8):
    """Whether the fields span the tangent space at each point."""
    if not fields:
        raise ValueError("need at least one field")
    needed = fields[0].manifold.dim
    points = stack_points(points)
    frames = np.stack([vf.values(points) for vf in fields], axis=1)
    svals = np.linalg.svd(frames, compute_uv=False)
    smax = np.maximum(svals[:, 0], 1e-300)
    ranks = (svals > threshold_ratio * smax[:, None]).sum(axis=1)
    return [bool(rank >= needed) for rank in ranks]


def pushforward_subspace_angle(fields, diffeo, points):
    """Largest principal angle between span{f_* V} and span{V} on sampled values.

    The pushed field f_*V at f(x) is df(x) V(x), so both spans are compared
    through their values at the image points.
    """
    points = stack_points(points)
    jac, image = diffeo.differential(points), diffeo.apply(points)
    pushed = [np.einsum("mij,mj->mi", jac, vf.values(points)) for vf in fields]
    q1, _ = np.linalg.qr(_evaluation_matrix(pushed))
    q2, _ = np.linalg.qr(_evaluation_matrix([vf.values(image) for vf in fields]))
    cosines = np.linalg.svd(q1.T @ q2, compute_uv=False)
    cosines = np.clip(cosines, -1.0, 1.0)
    return float(np.max(np.arccos(cosines)))
