"""Finite-dimensional Lie algebras by structure constants.

Provides the Killing form, solvability via the derived series and via the
Cartan criterion, the Killing-form radical, semisimplicity and nilpotency of
adjoint maps, and the compact-type decomposition into derived algebra plus
center.

One threshold, ``RANK_TOL``, and one reference, the algebra's scale s (its
largest |constant|), decide what counts as zero: s for brackets, the center
and ad(u) per unit |u|, s^2 for the Killing form.  A zero algebra reads as
abelian under every test, and so does a round-off one, since
``bracket_constants`` writes constants at or below RANK_TOL times the scale
of their fields as exact zeros.  Every kernel and span, here and in the
field solver, comes from one rank rule, ``block_split``, batched SVDs of a
block-diagonal matrix with the reference from its caller; ``_split`` and
``null_space`` are its one-block case.  Nilpotency compares ad(u)^n with
|ad(u)|^n, free of scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ClosureFailure, IdealCheckError, InvalidSettings

RANK_TOL = 1e-8
ANTISYM_TOL = 1e-10
JACOBI_TOL = 1e-8


class LieAlgebraSC:
    """Lie algebra with [e_i, e_j] = sum_k constants[i, j, k] e_k."""

    def __init__(self, constants):
        constants = np.asarray(constants, dtype=float)
        if constants.ndim != 3 or len(set(constants.shape)) != 1:
            raise ValueError("structure constants must form an (n, n, n) array")
        self.constants = constants
        self.dim = constants.shape[0]
        self.scale = float(np.max(np.abs(constants), initial=0.0))
        anti = float(np.max(np.abs(constants + constants.transpose(1, 0, 2)), initial=0.0))
        if anti > ANTISYM_TOL * self.scale:
            raise ValueError(f"antisymmetry residual {anti:.3e} exceeds {ANTISYM_TOL:.0e} s")
        jac = self.jacobi_residual()
        if jac > JACOBI_TOL * self.scale**2:
            raise ValueError(f"Jacobi residual {jac:.3e} exceeds {JACOBI_TOL:.0e} s^2")

    def jacobi_residual(self):
        c = self.constants
        term = np.einsum("jkm,iml->ijkl", c, c)
        total = term + np.einsum("kim,jml->ijkl", c, c) + np.einsum("ijm,kml->ijkl", c, c)
        return float(np.max(np.abs(total), initial=0.0))

    def bracket(self, u, v):
        return np.einsum("i,j,ijk->k", u, v, self.constants)

    def to_dict(self):
        c = self.constants
        entries = [[int(i), int(j), int(k), float(c[i, j, k])]
                   for i, j in zip(*np.triu_indices(self.dim, 1)) for k in np.flatnonzero(c[i, j])]
        return {"dim": self.dim, "entries": entries}

    @classmethod
    def from_dict(cls, data):
        """The algebra of a ``to_dict`` record; a record of another form, or constants that fail
        the constructor's antisymmetry or Jacobi check, raise InvalidSettings."""
        n = data.get("dim") if isinstance(data, dict) and set(data) == {"dim", "entries"} else None
        entries = data["entries"] if type(n) is int and n >= 0 else None
        if not isinstance(entries, list) or not all(
                isinstance(e, list) and len(e) == 4 and all(type(i) is int and 0 <= i < n for i in e[:3])
                and e[0] != e[1] and type(e[3]) in (int, float) and np.isfinite(e[3]) for e in entries):
            raise InvalidSettings("constants are {'dim': n, 'entries': [[i, j, k, value], ...]} with n >= 0, "
                                  f"i, j, k in range(n), i != j and finite values; got {data!r}")
        c = np.zeros((n, n, n))
        for i, j, k, val in entries:
            c[i, j, k] = float(val)
            c[j, i, k] = -float(val)
        try:
            return cls(c)
        except ValueError as exc:
            raise InvalidSettings(f"the constants are not a Lie algebra: {exc}") from exc


def ad_matrix(algebra, u):
    """Matrix of the map w -> [u, w] in the defining basis."""
    u = np.asarray(u, dtype=float)
    return np.einsum("i,ijk->kj", u, algebra.constants)


def killing_form(algebra, u, w):
    """tr(ad(u) ad(w)); symmetric, bilinear, and bracket-associative."""
    return float(np.trace(ad_matrix(algebra, u) @ ad_matrix(algebra, w)))


def killing_gram(algebra):
    """Gram matrix tr(ad(e_i) ad(e_j)) of the Killing form in the defining basis."""
    c = algebra.constants
    gram = np.einsum("ijk,lkj->il", c, c)
    return 0.5 * (gram + gram.T)


def block_split(blocks, stacks, n, reference=None):
    """Row-space rows, kernel rows, singular values and block spectra of a block-diagonal
    matrix of n columns, by one batched SVD per array of equal blocks.

    ``stacks`` holds the (nb, m, w) rows of each (nb, w) column array of ``blocks``, or a
    factor with their Gram matrix, or one (1, m, w) stack that all nb blocks share, whose
    one SVD is spread over them; a wide stack is padded with zero rows, so that the
    columns without a singular value get a zero one.  Singular values below RANK_TOL
    times ``reference`` (by default the largest) count as zero, and all do against a
    zero reference, as of a zero matrix.  Each row is a right singular vector placed in
    its block's columns.  The singular values are the union of the blocks', descending,
    and the spectra each block's, in the order of ``blocks``.
    """
    spectra = []
    for cols, stack in zip(blocks, stacks):
        nb, m, w = stack.shape
        if m < w:
            stack = np.concatenate([stack, np.zeros((nb, w - m, w))], axis=1)
        s, vt = np.linalg.svd(stack, full_matrices=False)[1:]
        spectra.append((s, vt) if nb == len(cols) else (s.repeat(len(cols), 0), vt.repeat(len(cols), 0)))
    svals = np.sort(np.concatenate([s.ravel() for s, _ in spectra]))[::-1]
    reference = float(svals.max(initial=0.0)) if reference is None else reference
    split = ([], [])
    for cols, (s, vt) in zip(blocks, spectra):
        nonzero = (s >= RANK_TOL * reference) & (reference > 0.0)
        for rows, mask in zip(split, (nonzero, ~nonzero)):
            block, index = np.nonzero(mask)
            rows.append(np.zeros((len(block), n)))
            rows[-1][np.arange(len(block))[:, None], cols[block]] = vt[block, index]
    return np.vstack(split[0]), np.vstack(split[1]), svals, [row for s, _ in spectra for row in s]


def _split(matrix, reference=None):
    """Row-space and kernel bases (rows) of a matrix, and its n singular values: the one-block
    ``block_split``, after a tall matrix is replaced by its square R factor (same singular
    values and V)."""
    matrix = np.asarray(matrix, dtype=float)
    rows, n = matrix.shape
    if rows > n:
        matrix = np.linalg.qr(matrix, mode="r")
    return block_split([np.arange(n)[None]], [matrix[None]], n, reference)[:3]


def null_space(matrix, reference=None):
    """Kernel dimension, an orthonormal kernel basis (rows) and the singular values (see ``_split``)."""
    _, kernel, svals = _split(matrix, reference)
    return len(kernel), kernel, svals


def _bracket_span(algebra, basis_a, basis_b):
    brackets = np.einsum("ai,bj,ijk->abk", basis_a, basis_b, algebra.constants)
    return _split(brackets.reshape(len(basis_a) * len(basis_b), algebra.dim), algebra.scale)[0]


def derived_series(algebra):
    """Dimensions of g, [g, g], [[g, g], [g, g]], ... until stabilization."""
    current = np.eye(algebra.dim)
    dims = [algebra.dim]
    while True:
        nxt = _bracket_span(algebra, current, current)
        dims.append(nxt.shape[0])
        if nxt.shape[0] == 0 or nxt.shape[0] == current.shape[0]:
            return dims
        current = nxt


def is_solvable(algebra):
    return derived_series(algebra)[-1] == 0


def derived_subspace(algebra):
    return _bracket_span(algebra, np.eye(algebra.dim), np.eye(algebra.dim))


def cartan_solvability(algebra):
    """Solvability via B(g, [g, g]) = 0."""
    derived = derived_subspace(algebra)
    if derived.shape[0] == 0:
        return True
    gram = killing_gram(algebra)
    worst = float(np.max(np.abs(gram @ derived.T)))
    return worst <= RANK_TOL * algebra.scale**2


def killing_radical(algebra):
    """Kernel of the Killing form, verified to be a solvable ideal.

    Returns an orthonormal row basis; raises IdealCheckError when the kernel
    fails the ideal property, which signals broken input constants.
    """
    _, radical, _ = null_space(killing_gram(algebra), algebra.scale**2)
    if radical.shape[0] not in (0, algebra.dim):
        # rows [e_i, r] for every basis vector e_i and radical vector r
        brackets = np.einsum("rj,ijk->irk", radical, algebra.constants)
        worst = float(np.max(np.abs(brackets - brackets @ (radical.T @ radical))))
        if worst > RANK_TOL * algebra.scale:
            raise IdealCheckError(f"Killing-form kernel is not an ideal (residual {worst:.3e})")
    if radical.shape[0] > 0:
        sub, _ = subalgebra_constants(algebra, radical)
        if not is_solvable(sub):
            raise IdealCheckError("Killing-form kernel failed the solvability check")
    return radical


def bracket_constants(generators, brackets, tol, scale):
    """Structure constants of n generators (columns) and the worst expansion residual.

    ``brackets`` holds the brackets of the pairs i < j as columns, in
    ``np.triu_indices(n, 1)`` order; one least-squares solve expands them all.
    A residual above ``tol`` raises ClosureFailure, and constants at or below
    RANK_TOL times ``scale`` are written as exact zeros.
    """
    n = generators.shape[1]
    first, second = np.triu_indices(n, 1)
    coeffs, *_ = np.linalg.lstsq(generators, brackets, rcond=None)
    worst = float(np.max(np.abs(generators @ coeffs - brackets), initial=0.0))
    if worst > tol:
        raise ClosureFailure(worst, f"brackets leave the span (residual {worst:.3e})")
    coeffs[np.abs(coeffs) <= RANK_TOL * scale] = 0.0
    constants = np.zeros((n, n, n))
    constants[first, second] = coeffs.T
    constants[second, first] = -coeffs.T
    return LieAlgebraSC(constants), worst


def subalgebra_constants(algebra, basis):
    """Structure constants of the span of the given (row) basis vectors."""
    basis = np.asarray(basis, dtype=float)
    first, second = np.triu_indices(len(basis), 1)
    brackets = np.einsum("pi,pj,ijk->kp", basis[first], basis[second], algebra.constants)
    return bracket_constants(basis.T, brackets, RANK_TOL * algebra.scale, algebra.scale)


def ad_semisimple(algebra, u):
    """Whether ad(u) is diagonalizable over C.

    Eigenvalues are clustered with radius RANK_TOL * |u| s; each cluster must
    have geometric multiplicity equal to its size.  A warning is emitted when
    the clustering is ambiguous (distinct eigenvalues within 10x of the radius).
    """
    mat = ad_matrix(algebra, u)
    radius = RANK_TOL * algebra.scale * float(np.linalg.norm(u))
    if radius == 0.0:
        return True
    eigs = np.linalg.eigvals(mat)
    clusters = []
    for lam in sorted(eigs, key=lambda z: (z.real, z.imag)):
        for cluster in clusters:
            if abs(lam - cluster[0] / cluster[1]) <= radius:
                cluster[0] += lam
                cluster[1] += 1
                break
        else:
            clusters.append([lam, 1])
    centers = [c[0] / c[1] for c in clusters]
    if len(centers) > 1:
        gaps = [
            abs(a - b) for idx, a in enumerate(centers) for b in centers[idx + 1:]
        ]
        if min(gaps) < 10.0 * radius:
            warnings.warn("eigenvalue clusters of ad(u) are within 10x of the tolerance radius")
    n = algebra.dim
    for center, count in ((c[0] / c[1], c[1]) for c in clusters):
        shifted = mat - center * np.eye(n)
        svals = np.linalg.svd(shifted, compute_uv=False)
        rank = int((svals > radius).sum())
        if rank != n - count:
            return False
    return True


def ad_nilpotent(algebra, u):
    """Whether ad(u)^n vanishes relative to |ad(u)|^n."""
    mat = ad_matrix(algebra, u)
    norm = float(np.linalg.norm(mat, 2))
    if norm == 0.0:
        return True
    power = np.linalg.matrix_power(mat, algebra.dim)
    return float(np.linalg.norm(power, 2)) <= RANK_TOL * norm**algebra.dim


def center_basis(algebra):
    """Orthonormal basis of {u : [u, g] = 0}."""
    # u is central iff u^T C = 0 for the (n, n^2) stacked constants C: the kernel of the tall C^T
    n = algebra.dim
    return null_space(algebra.constants.reshape(n, n * n).T, algebra.scale)[1]


@dataclass
class CompactDecompositionReport:
    """Outcome of the compact-type check g = [g, g] + center."""

    compact_type: bool
    max_gram_eigenvalue: float
    derived_dim: int
    center_dim: int
    direct_sum: bool
    kernel_equals_center: bool


def compact_decomposition_check(algebra):
    """For negative-semidefinite Killing form, verify g = [g, g] (+) center.

    When the Killing form has a positive eigenvalue the report only records
    that the algebra is not of compact type.
    """
    derived = derived_subspace(algebra)
    center = center_basis(algebra)
    compact = killing_signature(algebra)[0] == 0
    direct_sum = kernel_equals_center = False
    if compact:
        joint_rank = len(_split(np.vstack([derived, center]))[0])
        direct_sum = len(derived) + len(center) == algebra.dim == joint_rank
        kernel = killing_radical(algebra)
        kernel_equals_center = len(kernel) == len(center)
        if kernel_equals_center and len(kernel) > 0:
            cosines = np.linalg.svd(kernel @ center.T, compute_uv=False)
            kernel_equals_center = bool(np.min(cosines) > 1.0 - RANK_TOL)
    return CompactDecompositionReport(
        compact_type=compact,
        max_gram_eigenvalue=float(np.linalg.eigvalsh(killing_gram(algebra))[-1]) if algebra.dim else 0.0,
        derived_dim=len(derived),
        center_dim=len(center),
        direct_sum=direct_sum,
        kernel_equals_center=kernel_equals_center,
    )


def killing_signature(algebra):
    """(positive, negative, zero) eigenvalue counts of the Killing-form Gram matrix."""
    eigs = np.linalg.eigvalsh(killing_gram(algebra))
    pos = int((eigs > RANK_TOL * algebra.scale**2).sum())
    neg = int((eigs < -RANK_TOL * algebra.scale**2).sum())
    return pos, neg, algebra.dim - pos - neg


# ---------------------------------------------------------------------------
# reference algebras used across the test and acceptance suites


def rotation_algebra():
    """[e1, e2] = e3 cyclically; Killing form -2 I."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return LieAlgebraSC(c)


def affine_algebra():
    """Two-dimensional algebra [x, y] = y."""
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    return LieAlgebraSC(c)


def abelian_algebra(n):
    return LieAlgebraSC(np.zeros((n, n, n)))


def direct_sum(first, second):
    n = first.dim + second.dim
    c = np.zeros((n, n, n))
    c[: first.dim, : first.dim, : first.dim] = first.constants
    c[first.dim:, first.dim:, first.dim:] = second.constants
    return LieAlgebraSC(c)
