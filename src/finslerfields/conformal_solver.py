"""Null-space solver for Killing and conformal vector fields of a Finsler field.

V is Killing when L_V F = 0 and conformal when (L_V F)/F does not depend on
the direction y, that function of x being its conformal factor.  Both are
linear in V.  Within a finite ansatz of vector fields they become linear
systems in the field coefficients, one row per collocation pair (x, y): the
rows (L_B F)/F, and the same rows centred over each point's fan, one fixed fan
of equal angles that the seed turns (``build_collocation``).  A point's
rows are its field jets times its element jets, so the solve works on at
most six rows per point, and a field invariant under the torus's translations
or the sphere's rotations is solved from one point, block by block
(``solve_fields``).  What does not depend on the field is shared across a
run: equal specs get one manifold and one basis (``field_from_spec``), and the
collocations and element tables are kept in ``manifold.RESULTS``.  Each kernel
is read from batched SVDs of small factors, block by block, by the Lie layer's
one rank rule with its fixed relative threshold ``RANK_TOL``
(``lie_algebra.block_split``), and audited through the spectral gap around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, fields
from functools import lru_cache

import numpy as np

from .errors import InvalidSettings, UnderdeterminedSystem
# null_space is re-exported: the package and its callers import it from here
from .lie_algebra import RANK_TOL, block_split, bracket_constants, null_space
from .manifold import (
    CombinationVectorField,
    RESULTS,
    ConformalRescaleField,
    ConstantNormField,
    FlatTorus,
    RoundSphereField,
    Sphere2,
    SpherePolyVectorField,
    TorusFourierScalar,
    TorusFourierVectorField,
    _distinct_terms,
    field_tables,
    stack_points,
)
from .norm_core import GOLDEN_ANGLE, norm_from_dict, record_array, record_keys, record_kind

MIN_ROW_FACTOR = 3
GAP_WARN = 1e2
# A verification residual above this multiple of ``tolerance_used`` fails the self-check.
VERIFY_TOL_FACTOR = 10.0
# Largest pointwise residual of the brackets of extracted fields re-expanded in their
# span, relative to the brackets' scale, and the sample points it is read at (see
# ``extract_structure_constants``).
BRACKET_TOL = 1e-6
BRACKET_SAMPLES = 60


def torus_fourier_modes(degree):
    """One representative per +-k pair of the nonzero k with max-norm <= degree."""
    return [(k1, k2) for k1 in range(-degree, degree + 1) for k2 in range(degree + 1) if k2 > 0 or k1 > 0]


@dataclass(frozen=True)
class FieldBasis:
    """Finite-dimensional ansatz of vector-field elements, shared by the solves that use it.

    ``blocks`` records how the symmetries act on the columns: None, or (cols, kind) pairs that
    hold every column once, cols an (nb, w) index array of nb blocks of w columns.  A torus
    translation leaves a "fixed" block as it is and turns each (cos, sin) column pair of a
    "turned" block by its phase, which the grid must resolve at twice its degree.  A sphere
    rotation acts on the 2l + 1 rows of a "harmonic" array of degree l by one orthogonal
    matrix, the same in each column.  ``labels`` names each element, (l, kind, m) on the sphere.
    """

    manifold: object
    elements: tuple
    degree: int
    blocks: tuple = dataclass_field(default=None, compare=False)
    labels: tuple = dataclass_field(default=None, compare=False)

    def __post_init__(self):
        if self.blocks is not None:
            columns = np.sort(np.concatenate([cols.ravel() for cols, _ in self.blocks]))
            if not np.array_equal(columns, np.arange(self.n_fields)):
                raise ValueError("the blocks must hold every column of the basis once")

    @property
    def n_fields(self):
        return len(self.elements)

    def combination(self, coefficients):
        return CombinationVectorField(self.elements, coefficients)


def _check_degree(degree):
    if type(degree) is not int or degree < 0:
        raise InvalidSettings(f"degree must be a non-negative int, got {degree!r}")


def torus_basis(torus, degree):
    """Coordinate fields times Fourier modes up to the given degree, on a 2-torus.

    Its blocks are the two constant fields, fixed, and the four fields (cos, sin) e_0
    and (cos, sin) e_1 of each pair +-k, turned.
    """
    _check_degree(degree)
    if torus.dim != 2:
        raise InvalidSettings(f"torus_basis takes a 2-torus, got a {torus.dim}-torus")
    elements = [TorusFourierVectorField.coordinate(torus, i) for i in (0, 1)]
    pairs = torus_fourier_modes(degree)
    for k in pairs:
        modes = [TorusFourierScalar(torus, terms=[(k, 1.0, 0.0)]),
                 TorusFourierScalar(torus, terms=[(k, 0.0, 1.0)])]
        elements.extend(TorusFourierVectorField.coordinate(torus, i, mode)
                        for i in (0, 1) for mode in modes)
    blocks = ((np.arange(2)[None], "fixed"), (2 + np.arange(4 * len(pairs)).reshape(-1, 4), "turned"))
    return FieldBasis(manifold=torus, elements=tuple(elements), degree=degree, blocks=blocks)


def _exponents(degree):
    return np.array([(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree - a + 1)],
                    dtype=int).reshape(-1, 3)


def _sphere_moments(exps):
    """The integrals of the monomials x^a y^b z^c of (..., 3) exponents over the unit sphere:
    2 G((a + 1)/2) G((b + 1)/2) G((c + 1)/2) / G((a + b + c + 3)/2) if a, b, c are even, else 0."""
    gamma = np.array([math.gamma((k + 1) / 2.0) for k in range(exps.sum(axis=-1).max() + 3)])
    even = np.all(exps % 2 == 0, axis=-1)
    return np.where(even, 2.0 * gamma[exps].prod(axis=-1) / gamma[exps.sum(axis=-1) + 2], 0.0)


def harmonic_polynomials(degree):
    """The (K, 3) exponents of the degree-l monomials and the (K, 2l + 1) coefficients over
    them of an L^2(S^2)-orthonormal basis of the harmonic polynomials of degree l: the
    kernel of the Laplacian on the monomials (one SVD), orthonormalised by the Cholesky
    factor of its Gram matrix of closed-form integrals (``_sphere_moments``)."""
    exps, lower = _exponents(degree), _exponents(degree - 2)
    # d^2/dq_k^2 q^e = e_k (e_k - 1) q^(e - 2 u_k), which maps onto degree l - 2
    hits = np.all(lower[:, None, None] == exps[:, None] - 2 * np.eye(3, dtype=int), axis=-1)
    kernel = np.linalg.svd(np.einsum("ijk,jk->ij", hits, exps * (exps - 1)))[2][len(lower):].T
    gram = kernel.T @ _sphere_moments(exps[:, None] + exps[None]) @ kernel
    return exps, kernel @ np.linalg.inv(np.linalg.cholesky(gram)).T


def _merged(keys, vectors):
    """The distinct (K, 3) keys without a negative entry and the (K, 3, M) sums of their vectors."""
    keep = keys.min(axis=1) >= 0
    keys, sums = _distinct_terms([(keys[keep], vectors[keep])])
    return keys, sums[..., 0]


def sphere_basis(sphere, degree=2):
    """The vector spherical harmonics grad h, l = 1 ... d + 1, and q x grad h, l = 1 ... d, of
    q = p / R (Hill, Am. J. Phys. 22, 1954), h over ``harmonic_polynomials(l)``.

    They are ((d + 2)^2 - 1) + ((d + 1)^2 - 1) polynomial maps of q, 3 gradients at d = 0 and
    11 at d = 1, and span the projected monomial maps q^e e_k with |e| <= d.  Degree l is one
    harmonic block array, the columns [grad, curl] of each m, and ``labels`` holds (l, kind, m).
    The system assembled on functions of q does not depend on the radius.
    """
    _check_degree(degree)
    eye = np.eye(3, dtype=int)
    elements, labels, blocks = [], [], []
    for l in range(1, degree + 2):
        exps, coef = harmonic_polynomials(l)
        # d/dq_k c q^e = c e_k q^(e - u_k), with the (3,) vectors of every m on the last axis
        grad = _merged((exps[:, None] - eye).reshape(-1, 3),
                       np.einsum("ek,kc,em->ekcm", exps, eye, coef).reshape(-1, 3, 2 * l + 1))
        # q x sum_f v_f q^f = sum_f sum_j (u_j x v_f) q^(f + u_j)
        curl = _merged((grad[0][:, None] + eye).reshape(-1, 3),
                       np.cross(eye[None, :, :, None], grad[1][:, None], axis=2).reshape(-1, 3, 2 * l + 1))
        kinds = [("grad", grad), ("curl", curl)][:1 + (l <= degree)]
        cols = len(elements) + np.arange(len(kinds) * (2 * l + 1)).reshape(-1, len(kinds))
        blocks.append((cols, "harmonic"))
        for m in range(2 * l + 1):
            for kind, (keys, vectors) in kinds:
                elements.append(SpherePolyVectorField(sphere, dict(zip(map(tuple, keys), vectors[:, :, m]))))
                labels.append((l, kind, m))
    return FieldBasis(sphere, tuple(elements), degree, blocks=tuple(blocks), labels=tuple(labels))


# A spec's manifold kinds: the class, the name its errors give, its section's keys besides "kind"
# (each an array of that shape, None for any), its metric kinds and their keys, its basis rule.
MANIFOLD_KINDS = {
    "flat_torus": (FlatTorus, "the torus", {"lattice": None}, {"constant_norm": ("norm", "rescale")},
                   torus_basis),
    "sphere": (Sphere2, "the sphere", {"radius": ()}, {"round": ()}, sphere_basis),
}


@lru_cache(maxsize=32)
def _shared(kind, key, degree=None):
    """The one manifold of a kind and key, or with a degree its one basis, which equal specs share."""
    manifold_class, *_, basis_rule = MANIFOLD_KINDS[kind]
    return manifold_class(key) if degree is None else basis_rule(_shared(kind, key), degree)


def field_from_spec(spec):
    """The (field, basis, config) of a ``solve-fields`` config in the README's format, by
    default on the unit square or sphere, unrescaled, at degree 2 and with the default
    solver settings; its ``name`` is not read.  Specs whose manifold sections (after
    defaults) and degrees are equal share one manifold and one basis.

    An unknown key at any level, a section that is not an object, a degree that is not a
    non-negative int or that the sampling cannot resolve (checked before the basis is
    built), or an entry that is not finite numbers of the right shape raises InvalidSettings.
    """
    record_keys(spec, "the config", ("manifold", "metric", "degree", "solver", "name"))
    config = SolverConfig(**record_keys(spec.get("solver", {}), "solver",
                                        [f.name for f in fields(SolverConfig)]))
    degree = spec.get("degree", 2)
    kind = record_kind(spec.get("manifold"), "manifold", {k: e[2] for k, e in MANIFOLD_KINDS.items()})
    manifold_class, owner, shapes, metrics, _ = MANIFOLD_KINDS[kind]
    metric_kind = record_kind(spec.get("metric"), "metric", metrics)
    section, metric = spec["manifold"], spec["metric"]
    manifold = manifold_class(**{key: record_array(section, key, owner, shape)
                                 for key, shape in shapes.items() if key in section})
    manifold = _shared(kind, manifold.key)
    if metric_kind == "round":
        field = RoundSphereField(manifold)
    else:
        field = ConstantNormField(manifold, norm_from_dict(metric.get("norm")))
    if "rescale" in metric:
        rescale = record_keys(metric["rescale"], "rescale", ("const", "terms"))
        terms = rescale.get("terms", [])
        if not isinstance(terms, list) or not all(isinstance(t, list) and len(t) == 3 for t in terms):
            raise InvalidSettings(f"a rescale term is [k, a, b], got {terms}")
        modes = [[record_array(dict(zip("kab", term)), key, "a rescale term [k, a, b]", shape)
                  for key, shape in (("k", (manifold.dim,)), ("a", ()), ("b", ()))] for term in terms]
        rho = TorusFourierScalar(manifold, record_array({"const": 0, **rescale}, "const", "rescale", ()), modes)
        field = ConformalRescaleField(field, rho)
    _check_degree(degree)
    manifold.require_sampling(config, degree)
    return field, _shared(kind, manifold.key, degree), config


# ---------------------------------------------------------------------------
# collocation


@dataclass
class SolverConfig:
    """Collocation settings, validated on construction: each can change a count."""

    x_density: int = 8          # per-axis grid on the torus
    sphere_points: int = 150    # Fibonacci points on the sphere
    n_directions: int = 10      # directions per point, at equal angles
    seed: int = 0               # turns the fan by that many golden angles

    def __post_init__(self):
        # every int field (a subclass's too) takes a Python int, not a bool; f.type is int or "int"
        wrong = [f.name for f in fields(self)
                 if f.type in (int, "int") and type(getattr(self, f.name)) is not int]
        if wrong:
            raise InvalidSettings(f"settings {wrong} must be integers")
        if self.seed < 0:
            raise InvalidSettings(f"seed must be >= 0, got {self.seed}")
        # the fan turns by seed golden angles, a float product that is exact below 2**53
        if self.seed >= 2**53:
            raise InvalidSettings(f"seed must be below 2**53, got {self.seed}")
        if self.x_density < 2 or self.sphere_points < 16:
            raise InvalidSettings("x_density must be >= 2 and sphere_points >= 16")
        # centring over a fan of D directions leaves D - 1 equations per point: none at D = 1,
        # and at D = 2 one for the two of a traceless symmetric form; 4 equal angles are 2 lines,
        # on which a reversible field reads the same rows at y and -y, so D = 2 again
        if self.n_directions < 3 or self.n_directions == 4:
            raise InvalidSettings(f"n_directions must be >= 3 and not 4, got {self.n_directions}")


def build_collocation(manifold, config, offset_points=False):
    """The P distinct sample points (P, n) and the (D, 2) fan that every point takes, read-only.

    The fan is D = ``n_directions`` equal angles, from the base angle 0.2141 turned by
    ``seed`` golden angles (modulo the step 2 pi / D).  The offset variant's points are
    disjoint from the default's, and its fan is turned by half a step, so the two fans
    share no direction.  The points are the manifold's ``collocation_points``, and a
    collocation is kept in ``RESULTS`` by its ``key`` and the settings.
    """

    def compute():
        points = manifold.collocation_points(config, offset_points)
        step = 2.0 * np.pi / config.n_directions
        base = (0.2141 + config.seed * GOLDEN_ANGLE) % step + (0.5 * step if offset_points else 0.0)
        angles = base + step * np.arange(config.n_directions)
        return points, np.stack([np.cos(angles), np.sin(angles)], axis=-1)

    settings = tuple(getattr(config, f.name) for f in fields(SolverConfig))
    return RESULTS.get(("collocation", type(manifold), manifold.key, settings, offset_points), compute)


def collocation_rows(collocation):
    """The row-aligned (points, ys) of a collocation: each point repeated once per direction."""
    points, fan = collocation
    return np.repeat(points, len(fan), axis=0), np.tile(fan, (len(points), 1))


def _require_rows(collocation, basis):
    """Rejects a collocation with fewer than ``MIN_ROW_FACTOR`` rows per unknown."""
    n_rows = len(collocation[0]) * len(collocation[1])
    if n_rows < MIN_ROW_FACTOR * basis.n_fields:
        raise UnderdeterminedSystem(f"{n_rows} rows for {basis.n_fields} unknowns "
                                    f"(need >= {MIN_ROW_FACTOR}x)")


def _field_jets(field, points, fan):
    """Field 1-jets over F, (P, D, 6), and F itself, (P, D, 1), from one ``jets`` on the P
    points and the D fan directions apart, with a leading axis of 1 for jets that do not
    depend on the point (a constant norm's).

    L_V F = V^i dF/dx^i + (dV^i/dx^j) y^j dF/dy^i: the field's 1-jet (dF/dx, y (x) dF/dy) per
    row, dotted with an element's (V, DV).  A field that is not positive and finite at every
    row raises InvalidSettings.
    """
    evals, grads_x, grads_y = field.jets(points[:, None], fan[None])
    outer = (grads_y[..., None] * fan[:, None]).reshape(grads_y.shape[:-1] + (4,))
    field_jets = np.concatenate([grads_x, outer], axis=-1)
    evals = evals[..., None]
    if not np.all(np.isfinite(evals) & (evals > 0.0)):
        raise InvalidSettings(f"the field is not positive: min F = {evals.min():.3e} at a collocation row")
    field_jets /= evals
    return field_jets, evals


def assemble_system(field, basis, collocation):
    """Dense collocation matrix of the Killing condition L_V F = 0.

    One row per point and direction of the (points, fan) ``collocation``, point by
    point; column a holds (L_{B_a} F)(x, y), F times the field jets over F, (P, D, 6),
    times the element jets, (P, 6, A).
    """
    _require_rows(collocation, basis)
    element_jets = field_tables(basis.elements, collocation[0])
    jets, evals = _field_jets(field, *collocation)
    return (evals * (jets @ element_jets)).reshape(-1, basis.n_fields)


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


def _block_stack(rows, cols, kind, n_points):
    """The stack of one point's (m, A) rows with the Gram matrix of the block array ``cols``
    over P = ``n_points`` fit points: sqrt(P) F (nb, m, w) of a fixed block's rows F; sqrt(P / 2)
    [F; FJ] of a turned one's, J mapping each (cos, sin) column pair (c, s) to (-s, c), as the
    grid's phase means of cos^2 and sin^2 are 1/2 and of cos sin 0; and of a harmonic array of
    nb = 2l + 1 blocks one sqrt(P / nb) [F_1; ...; F_nb] (1, nb m, w), the mean over m."""
    block = rows[:, cols].transpose(1, 0, 2)
    nb, m, w = block.shape
    if kind == "fixed":
        return np.sqrt(n_points) * block
    if kind == "harmonic":
        return np.sqrt(n_points / nb) * block.reshape(1, nb * m, w)
    quarter = (block.reshape(nb, m, w // 2, 2)[..., ::-1] * [-1.0, 1.0]).reshape(nb, m, w)
    return np.sqrt(n_points / 2.0) * np.concatenate([block, quarter], axis=1)


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
    conformal_singular_values: np.ndarray | None = None
    conformal_gap: float | None = None
    residuals: dict = dataclass_field(default_factory=dict)
    block_singular_values: list = dataclass_field(default_factory=list)
    tolerance_used: float = 0.0
    flags: list = dataclass_field(default_factory=list)
    system: dict = dataclass_field(default_factory=dict)

    @property
    def gap(self):
        return self.conformal_gap if self.conformal_gap is not None else self.killing_gap

    @property
    def singular_values(self):
        """The conformal system's singular values when it was solved, else the Killing system's."""
        if self.conformal_singular_values is not None:
            return self.conformal_singular_values
        return self.killing_singular_values

    @property
    def max_residual(self):
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def verification_bound(self):
        return VERIFY_TOL_FACTOR * self.tolerance_used


def solve_fields(field, basis, mode="conformal", config=None):
    """Compute the Killing (and optionally conformal) fields within the ansatz.

    The Killing fields are the kernel of the rows N = (L_B F)/F, one per point
    and direction, and the conformal fields that of N centred over each fan;
    the factor of each is the fan mean of N c at the verification points.
    Neither system is formed: at a point N_p = J_p E_p (field jets over F
    times element jets) and C_p = (J_p - 1 j_p) E_p, j_p the fan mean of J_p,
    so N^T N = C^T C + D M^T M with M_p = j_p E_p.  A batched QR of the
    centred jets gives the factors R_p; a QR of the stacked R_p E_p gives R_C,
    and the kernels are read from R_C and [R_C; sqrt(D) M] against the largest
    singular value of N (a conformal ansatz has a round-off centred system).

    The field jets come first, on the points and the fan apart.  When they are
    exactly equal at every fit point and the basis records its ``blocks``, the
    element table is read at one fit point and each block array is solved from
    its ``_block_stack``.  On the torus that is a field that does not vary along
    it: every other point's rows are F turned by its phase, and the grid
    resolves degree 2d.  On the sphere, ``Sphere2.check_norm`` admits only
    multiples of the round norm, so equal frame-read jets are those of an
    SO(3)-invariant field; its Gram matrix commutes with rotations, which act
    on degree l irreducibly, so by Schur's lemma it is G_l (x) I_{2l+1}, G_l the
    mean over m at one point (the fan's equal angles sum the rows' products
    exactly, blind to how the frame turns).  Otherwise the table is read at
    every fit point and all columns form one block.  The spectrum is the union
    of the blocks', ``block_singular_values`` holds each block's for the system
    ``singular_values`` reports, and ``system["blocks"]`` counts them.
    Residuals are evaluated jet-wise on a disjoint collocation set, from the
    elements that some kernel vector holds; only the fit rows count towards
    ``MIN_ROW_FACTOR``, and the settings must resolve the basis degree (the
    manifold's ``require_sampling``).  Safeguards that fire go to ``flags``,
    among them a verification residual above ``VERIFY_TOL_FACTOR`` tolerances.
    """
    if mode not in ("killing", "conformal"):
        raise ValueError(f"unknown mode {mode!r}")
    config = config or SolverConfig()
    _check_degree(basis.degree)
    basis.manifold.require_sampling(config, basis.degree)
    n = basis.n_fields
    fit_points, fit_fan = fit = build_collocation(basis.manifold, config)
    ver_points, ver_fan = build_collocation(basis.manifold, config, offset_points=True)
    _require_rows(fit, basis)
    n_points = len(fit_points)
    jets, ver_jets = _field_jets(field, *fit)[0], _field_jets(field, ver_points, ver_fan)[0]
    one_point = basis.blocks is not None and bool(np.all(jets == jets[0]))
    if one_point:
        jets = jets[:1]
    elements = field_tables(basis.elements, fit_points[:1] if one_point else fit_points)
    means = jets.mean(axis=1, keepdims=True)
    factors = np.linalg.qr(jets - means, mode="r")
    fan_means = np.sqrt(len(fit_fan)) * (means @ elements)[:, 0]
    stacked_factors = (factors @ elements).reshape(-1, n)
    if one_point:
        # each block array's stacks of 2 min(D, 6) rows per block, whose SVDs are as cheap as of their R
        blocks = [cols for cols, _ in basis.blocks]
        centred = [_block_stack(stacked_factors, cols, kind, n_points) for cols, kind in basis.blocks]
        stacked = [np.concatenate([c, _block_stack(fan_means, cols, kind, n_points)], axis=1)
                   for c, (cols, kind) in zip(centred, basis.blocks)]
    else:
        # R_C, and the R of [R_C; sqrt(D) M], of all columns
        blocks, centred = [np.arange(n)[None]], [np.linalg.qr(stacked_factors[None], mode="r")]
        stacked = [np.linalg.qr(np.concatenate([centred[0], fan_means[None]], axis=1), mode="r")]
    _, k_basis, k_svals, k_blocks = block_split(blocks, stacked, n)
    k_gap = _spectral_gap(k_svals, len(k_basis), n)

    report = SolveReport(
        mode=mode,
        basis_degree=basis.degree,
        killing_dim=len(k_basis),
        killing_basis=k_basis,
        killing_singular_values=k_svals,
        killing_gap=k_gap,
        block_singular_values=k_blocks,
        tolerance_used=RANK_TOL * (float(k_svals[0]) or 1.0),
        system={"rows": n_points * len(fit_fan), "factor_rows": len(stacked_factors), "unknowns": n,
                "blocks": sum(len(cols) for cols in blocks)},
    )
    if k_gap < GAP_WARN:
        report.flags.append("ill-conditioned: killing spectral gap below 1e2")
    kernels = [k_basis]
    if mode == "conformal":
        _, c_basis, c_svals, report.block_singular_values = block_split(
            blocks, centred, n, float(k_svals[0]))
        report.conformal_dim = c_dim = len(c_basis)
        report.conformal_basis = c_basis
        report.conformal_singular_values = c_svals
        report.conformal_gap = _spectral_gap(c_svals, c_dim, n)
        if report.conformal_gap < GAP_WARN:
            report.flags.append("ill-conditioned: conformal spectral gap below 1e2")
        kernels.append(c_basis)

    # the verification reads the elements that some kernel row holds, and no other
    support = np.flatnonzero(np.any(np.vstack(kernels) != 0.0, axis=0))
    ver_elements = (field_tables([basis.elements[a] for a in support], ver_points) if len(support)
                    else np.zeros((len(ver_points), 6, 0)))
    killing = ver_jets @ (ver_elements @ k_basis.take(support, axis=1).T)
    report.residuals["killing"] = float(np.max(np.abs(killing), initial=0.0))
    if mode == "conformal":
        ver_means = ver_jets.mean(axis=1, keepdims=True)
        c_jets = ver_elements @ c_basis.take(support, axis=1).T
        report.conformal_factors = (ver_means @ c_jets)[:, 0].T
        if c_dim:
            report.residuals["conformal"] = float(np.max(np.abs((ver_jets - ver_means) @ c_jets)))
    if report.max_residual > report.verification_bound:
        report.flags.append("verification residual above tolerance")
    return report


# ---------------------------------------------------------------------------
# bracket and algebra extraction


def extract_structure_constants(fields):
    """Structure constants of a list of fields whose brackets close in their span.

    The fields are evaluated in one stacked table (combinations of the same
    elements as one evaluation of those elements); the brackets of all pairs
    are formed from it and expanded in one least-squares solve.  Constants
    scale as s = max|V| / max|x| over the sample points (about 1 on a sphere
    of any radius) and brackets as s max|V|: constants at or below
    RANK_TOL * s are exact zeros, and a residual above BRACKET_TOL * s * max|V|
    raises ClosureFailure.
    """
    if not fields:
        raise ValueError("need at least one field")
    points = fields[0].manifold.sample(BRACKET_SAMPLES, seed=11)
    jets = field_tables(fields, points)
    values, jacobians = jets[:, :2], jets[:, 2:].reshape(len(jets), 2, 2, -1)
    first, second = np.triu_indices(len(fields), 1)
    # [V, W] = DW V - DV W, one column per pair, flattened point by point as the values are
    brackets = (np.einsum("mijp,mjp->mip", jacobians[..., second], values[..., first])
                - np.einsum("mijp,mjp->mip", jacobians[..., first], values[..., second]))
    generators = values.reshape(-1, len(fields))
    size = float(np.max(np.abs(values)))
    scale = size / float(np.max(np.abs(points)))
    return bracket_constants(generators, brackets.reshape(len(generators), -1),
                             BRACKET_TOL * scale * size, scale)


def transitivity_check(fields, points):
    """Whether the fields span the tangent space of the 2-manifold at each point.

    The (2, k) frame A of their values at a point has singular values with s1 s2 the
    square root of the sum of its 2 x 2 minors squared (Cauchy-Binet) and s1^2 + s2^2 =
    |A|_F^2, so s1 is the larger root and s2 = s1 s2 / s1, accurate to round-off of s1
    as an SVD's; the frame spans when s2 is above ``RANK_TOL`` times s1.
    """
    if not fields:
        raise ValueError("need at least one field")
    values = field_tables(fields, points)[:, :2]
    # the minors a_i b_j - a_j b_i of the rows a, b, each pair i < j twice
    outer = values[:, 0, :, None] * values[:, 1, None, :]
    product = np.sqrt(0.5 * np.sum((outer - np.swapaxes(outer, 1, 2)) ** 2, axis=(1, 2)))
    frobenius = np.sum(values**2, axis=(1, 2))
    s1 = np.sqrt(0.5 * (frobenius + np.sqrt(np.maximum(frobenius**2 - 4.0 * product**2, 0.0))))
    s1 = np.maximum(s1, 1e-300)
    return (product / s1 > RANK_TOL * s1).tolist()


def pushforward_subspace_angle(fields, diffeo, points):
    """Largest principal angle between span{f_* V} and span{V} on sampled values.

    The pushed field f_*V at f(x) is df(x) V(x), so both spans are compared
    through their values at the image points.
    """
    points = stack_points(points)
    jac, image = diffeo.differential(points), diffeo.apply(points)
    pushed = np.einsum("mij,mjb->mib", jac, field_tables(fields, points)[:, :2])
    q1, _ = np.linalg.qr(pushed.reshape(-1, len(fields)))
    q2, _ = np.linalg.qr(field_tables(fields, image)[:, :2].reshape(-1, len(fields)))
    cosines = np.linalg.svd(q1.T @ q2, compute_uv=False)
    cosines = np.clip(cosines, -1.0, 1.0)
    return float(np.max(np.arccos(cosines)))
