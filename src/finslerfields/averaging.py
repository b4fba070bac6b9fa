"""Indicatrix quadrature and the averaged Euclidean norm of a Minkowski norm.

The unit level set {F = 1} carries the volume measure of the Hessian metric;
averaging the fundamental tensor against that measure produces an inner
product.  In dimension 1 the indicatrix is the two points 1/F(1) and
-1/F(-1) under counting measure, so a norm p y (y > 0), q |y| (y < 0)
averages to (p^2 + q^2) / 2.  The construction commutes with positive
scalings and linear maps that intertwine two norms, which is what
``verify_equivariance`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvexityViolation, HypothesisViolation, InvalidSettings

NODE_TOL = 1e-10
# Largest relative residual of the sampled hypothesis F1 = c * F2 o l, at this many directions.
HYPOTHESIS_TOL = 1e-8
HYPOTHESIS_SAMPLES = 64


@dataclass(frozen=True)
class IndicatrixQuadrature:
    """Nodes on {F = 1} with weights for the Hessian-metric surface measure.

    ``tensors`` holds the (m, n, n) fundamental tensors at the nodes, which the
    weights already needed, so averaging does not evaluate them again.
    """

    points: np.ndarray
    weights: np.ndarray
    tensors: np.ndarray
    resolution: int

    def to_table(self):
        """Rows of (node coordinates..., weight) for debugging exports."""
        return np.hstack([self.points, self.weights[:, None]])


@dataclass(frozen=True)
class AveragedNorm:
    """Inner-product matrix produced by indicatrix averaging."""

    matrix: np.ndarray


def _reference_grid(n, resolution):
    """Unit directions u (m, n), tangent frames du (m, n - 1, n) and the cell measure.

    The 0-sphere is its two points +-1 with empty frames and unit cells, at any
    resolution >= 1; the circle is split into equal arcs; the 2-sphere into a
    theta-phi grid with cell centres in theta, so no node sits on a pole.
    """
    if n == 1:
        if resolution < 1:
            raise InvalidSettings("resolution must be >= 1 for n = 1")
        return np.array([[1.0], [-1.0]]), np.zeros((2, 0, 1)), 1.0
    if n == 2:
        if resolution < 16:
            raise InvalidSettings("resolution must be >= 16 for n = 2")
        step = 2.0 * np.pi / resolution
        theta = np.arange(resolution) * step
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        du = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :]
        return u, du, step
    if n == 3:
        if resolution < 256:
            raise InvalidSettings("resolution must be >= 256 for n = 3")
        n_theta = max(8, int(round(np.sqrt(resolution / 2.0))))
        step = np.pi / n_theta
        theta = (np.arange(n_theta) + 0.5) * step
        phi = np.arange(2 * n_theta) * step
        tt, pp = (a.ravel() for a in np.meshgrid(theta, phi, indexing="ij"))
        st, ct = np.sin(tt), np.cos(tt)
        sp, cp = np.sin(pp), np.cos(pp)
        u = np.stack([st * cp, st * sp, ct], axis=1)
        du_t = np.stack([ct * cp, ct * sp, -st], axis=1)
        du_p = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=1)
        return u, np.stack([du_t, du_p], axis=1), step * step
    raise InvalidSettings(f"indicatrix sampling is implemented for n = 1, 2 and 3, got n = {n}")


def sample_indicatrix(norm, resolution):
    """Quadrature nodes, weights and tensors on the indicatrix of a 1-D, 2-D or 3-D norm.

    Nodes are radial projections y = u/F(u) of a reference-sphere grid, whose
    tangent frames push forward to dy = du/F - u (grad F . du)/F^2.  The
    weight at a node is sqrt(det G) times the reference cell measure, where
    G = dy g dy^T is the Gram matrix of the pushed frame in the fundamental
    tensor g at that node.
    """
    u, du, cell = _reference_grid(norm.dim, resolution)
    f = np.asarray(norm(u), dtype=float)
    y = u / f[:, None]
    df = np.einsum("mki,mi->mk", du, norm.gradient_batch(u))
    dy = du / f[:, None, None] - u[:, None, :] * (df / f[:, None] ** 2)[:, :, None]
    g = norm.tensor_batch(y)
    gram = dy @ g @ dy.swapaxes(-1, -2)
    # an (m, 1, 1) Gram matrix on the circle is its own determinant
    det = gram[:, 0, 0] if norm.dim == 2 else np.linalg.det(gram)
    if np.min(det) <= 0.0:
        raise ConvexityViolation(float(np.min(det)),
                                 "indicatrix tangent Gram matrix is not positive definite")
    weights = np.sqrt(det) * cell
    if np.any(weights <= 0.0):
        raise ValueError("non-positive quadrature weight encountered")
    node_err = float(np.max(np.abs(np.asarray(norm(y)) - 1.0)))
    if node_err > NODE_TOL:
        raise ValueError(f"indicatrix node residual {node_err:.3e} exceeds {NODE_TOL:.0e}")
    return IndicatrixQuadrature(points=y, weights=weights, tensors=g, resolution=int(resolution))


def averaged_norm(norm, quadrature):
    """Weight-averaged fundamental tensor over an indicatrix quadrature of this norm."""
    on_level = float(np.max(np.abs(np.asarray(norm(quadrature.points)) - 1.0)))
    if on_level > 1e-8:
        raise ValueError("quadrature was not built from this norm")
    total = quadrature.weights.sum()
    mat = np.einsum("m,mij->ij", quadrature.weights, quadrature.tensors) / total
    mat = 0.5 * (mat + mat.T)
    if np.linalg.eigvalsh(mat)[0] <= 0.0:
        raise ValueError("averaged matrix is not positive definite")
    return AveragedNorm(matrix=mat)


def average(norm, resolution):
    """Convenience wrapper: sample the indicatrix and average in one call."""
    return averaged_norm(norm, sample_indicatrix(norm, resolution))


def verify_equivariance(norm1, norm2, lmap, c, resolution=1024):
    """Residual of the identity (averaged F1) = c^2 l^T (averaged F2) l.

    The caller asserts F1 = c * F2 o l; that hypothesis is sampled first and
    a violation raises.  The returned residual is the max-abs entry of the
    matrix identity, which must vanish up to quadrature error.
    """
    if norm1.dim != norm2.dim:
        raise ValueError("norms must have equal dimension")
    lmap = np.asarray(lmap, dtype=float)
    c = float(c)
    theta = np.arange(HYPOTHESIS_SAMPLES) * (2.0 * np.pi / HYPOTHESIS_SAMPLES) + 0.1
    if norm1.dim == 2:
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        rng = np.random.default_rng(7)
        dirs = rng.standard_normal((HYPOTHESIS_SAMPLES, norm1.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    lhs = np.asarray(norm1(dirs), dtype=float)
    rhs = c * np.asarray(norm2(dirs @ lmap.T), dtype=float)
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)))
    if worst > HYPOTHESIS_TOL:
        raise HypothesisViolation(f"sampled F1 != c*F2(l .): relative residual {worst:.3e}")

    q1 = average(norm1, resolution).matrix
    q2 = average(norm2, resolution).matrix
    return float(np.max(np.abs(q1 - c**2 * (lmap.T @ q2 @ lmap))))
