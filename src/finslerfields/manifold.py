"""Model manifolds (circle, flat torus, round 2-sphere) and Finsler fields on them.

Points on the sphere are chart-tagged: chart 0 is the stereographic chart
covering everything but the north pole, chart 1 the antipodal one, and the
transition p -> R^2 p / |p|^2 is its own inverse.  Vector fields on the
sphere are stored as complex-coefficient polynomials in (z, conj(z)) in
chart 0 and pushed through the transition differential where needed.

Scalars, vector fields and solvable Finsler fields evaluate a whole batch of
points in one call (``values``, ``grads``, ``jacobians``, ``evals``,
``grads_x``, ``grads_y``); a batch is an (m, 2) array on the torus and a
``ChartPoint`` holding (m,) charts and (m, 2) coords on the sphere.  The
one-point methods (``value``, ``grad``, ``jacobian``, ``eval``, ``grad_x``,
``grad_y``) are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, DegenerateVector
from .norm_core import DEGENERATE_FLOOR, EuclideanNorm, GenericNorm, RandersNorm, scale_norm
from .averaging import average

CHART_ASSIGN_FACTOR = 1.5


# ---------------------------------------------------------------------------
# manifolds and points


@dataclass(frozen=True)
class ChartPoint:
    """A sphere point in one chart; (m,) charts with (m, 2) coords are a batch of m points."""

    chart: int
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))


def stack_points(points):
    """One batch from a point, a batch, or a sequence of points (see the module docstring)."""
    if isinstance(points, ChartPoint):
        return ChartPoint(np.atleast_1d(points.chart), np.atleast_2d(points.coords))
    if len(points) and isinstance(points[0], ChartPoint):
        return ChartPoint(np.array([p.chart for p in points]), np.array([p.coords for p in points]))
    return np.asarray(points, dtype=float).reshape(-1, 2)


def _point_count(points):
    pts = stack_points(points)
    return len(pts.coords if isinstance(pts, ChartPoint) else pts)


@dataclass(frozen=True)
class Circle:
    length: float = 2.0 * np.pi

    dim = 1

    def wrap(self, x):
        return float(x) % self.length

    def sample_points(self, count):
        return [i * self.length / count for i in range(count)]


class FlatTorus:
    """R^2 modulo the lattice spanned by the columns of ``lattice``."""

    dim = 2

    def __init__(self, lattice=None):
        self.lattice = np.eye(2) if lattice is None else np.asarray(lattice, dtype=float)
        if abs(np.linalg.det(self.lattice)) < 1e-12:
            raise ValueError("lattice basis is degenerate")
        self.inv_lattice = np.linalg.inv(self.lattice)

    def frac(self, x):
        """Lattice coordinates of a (2,) point or an (m, 2) batch."""
        return np.asarray(x, dtype=float) @ self.inv_lattice.T

    def wrap(self, x):
        return (self.frac(x) % 1.0) @ self.lattice.T

    def grid_points(self, per_axis, offset=(0.31, 0.47)):
        pts = []
        for i in range(per_axis):
            for j in range(per_axis):
                xi = np.array([(i + offset[0]) / per_axis, (j + offset[1]) / per_axis])
                pts.append(self.lattice @ xi)
        return pts


class Sphere2:
    """Round 2-sphere of radius R in two stereographic charts."""

    dim = 2

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    # The chart formulas below act on a (2,) point or an (m, 2) batch alike.

    def transition(self, p):
        """The chart transition p -> R^2 p / |p|^2 (an involution)."""
        p = np.asarray(p, dtype=float)
        u = np.sum(p * p, axis=-1)
        if np.any(u == 0.0):
            raise ChartDomainError("transition undefined at the chart origin (pole)")
        return self.radius**2 * p / u[..., None]

    def transition_jacobian(self, p):
        p = np.asarray(p, dtype=float)
        u = np.sum(p * p, axis=-1)[..., None, None]
        return self.radius**2 * (np.eye(2) * u - 2.0 * p[..., :, None] * p[..., None, :]) / u**2

    def transition_hessian(self, p):
        """H[i, j, k] = d^2 T_i / dp_j dp_k for the transition map."""
        p = np.asarray(p, dtype=float)
        u = np.sum(p * p, axis=-1)[..., None, None, None]
        pi, pj, pk = p[..., :, None, None], p[..., None, :, None], p[..., None, None, :]
        eye = np.eye(2)
        dij, dik, djk = eye[:, :, None], eye[:, None, :], eye[None, :, :]
        h = (
            2.0 * (dij * pk - dik * pj - djk * pi) / u**2
            - 4.0 * pk * (dij * u - 2.0 * pi * pj) / u**3
        )
        return self.radius**2 * h

    def chart_point(self, numerator, denominator=1.0 + 0.0j):
        """Point from the projective pair (P : Q) with z = P/Q in chart 0."""
        p, q = complex(numerator), complex(denominator)
        if p == 0 and q == 0:
            raise ChartDomainError("projective pair (0, 0) is not a point")
        if abs(p) <= CHART_ASSIGN_FACTOR * self.radius * abs(q):
            z = p / q
            return ChartPoint(0, np.array([z.real, z.imag]))
        w = self.radius**2 * (q / p).conjugate()
        return ChartPoint(1, np.array([w.real, w.imag]))

    def to_complex(self, pt):
        return complex(pt.coords[0], pt.coords[1])

    def projective_pair(self, pt):
        """(P, Q) with z = P/Q; valid in either chart, including the pole w = 0."""
        if pt.chart == 0:
            return self.to_complex(pt), 1.0 + 0.0j
        return complex(self.radius**2, 0.0), self.to_complex(pt).conjugate()

    def convert(self, pt, chart):
        if pt.chart == chart:
            return pt
        return ChartPoint(chart, self.transition(pt.coords))

    # These take a ChartPoint: one point, or a batch with (m,) charts.

    def conformal_factor(self, pt):
        u = np.sum(pt.coords**2, axis=-1)
        return 2.0 * self.radius**2 / (self.radius**2 + u)

    def conformal_factor_grad(self, pt):
        u = np.sum(pt.coords**2, axis=-1)
        lam = 2.0 * self.radius**2 / (self.radius**2 + u)
        return -lam[..., None] * 2.0 * pt.coords / (self.radius**2 + u)[..., None]

    def ambient(self, pt):
        """Unit-sphere-scale ambient position (|n| = R)."""
        r2 = self.radius**2
        u = np.sum(pt.coords**2, axis=-1)
        d = r2 + u
        horizontal = 2.0 * r2 * pt.coords / d[..., None]
        vertical = self.radius * (u - r2) / d
        vertical = np.where(np.asarray(pt.chart) == 1, -vertical, vertical)
        return np.concatenate([horizontal, vertical[..., None]], axis=-1)

    def ambient_jacobian(self, pt):
        """dn/dcoords, a 3x2 matrix per point."""
        r2 = self.radius**2
        p = pt.coords
        d = (r2 + np.sum(p * p, axis=-1))[..., None, None]
        horizontal = 2.0 * r2 * (np.eye(2) * d - 2.0 * p[..., :, None] * p[..., None, :]) / d**2
        vertical = 4.0 * self.radius * r2 * p[..., None, :] / d**2
        vertical = np.where(np.asarray(pt.chart)[..., None, None] == 1, -vertical, vertical)
        return np.concatenate([horizontal, vertical], axis=-2)

    def from_ambient(self, n):
        n = np.asarray(n, dtype=float)
        norm = float(np.linalg.norm(n))
        if abs(norm - self.radius) > 1e-8 * self.radius:
            raise ChartDomainError(f"|n| = {norm:.6f} is not on the sphere of radius {self.radius}")
        denom = self.radius - n[2]
        if abs(denom) > 1e-300:
            return self.chart_point(complex(n[0], n[1]) * self.radius, complex(denom, 0.0))
        return ChartPoint(1, np.zeros(2))

    def fibonacci_points(self, count):
        i = np.arange(count)
        t = 1.0 - 2.0 * (i + 0.5) / count
        golden = np.pi * (3.0 - np.sqrt(5.0))
        r = np.sqrt(np.maximum(1.0 - t * t, 0.0))
        pts = np.stack([r * np.cos(golden * i), r * np.sin(golden * i), t], axis=1) * self.radius
        return [self.from_ambient(n) for n in pts]


# ---------------------------------------------------------------------------
# scalar fields


class ScalarField:
    """Scalar function on a manifold; subclasses implement the batched ``values``/``grads``."""

    def value(self, pt):
        return float(self.values(pt)[0])

    def grad(self, pt):
        return self.grads(pt)[0]


class ConstantScalar(ScalarField):
    def __init__(self, value):
        self._value = float(value)

    def values(self, points):
        return np.full(_point_count(points), self._value)

    def grads(self, points):
        return np.zeros((_point_count(points), 2))


class TorusFourierScalar(ScalarField):
    """const + sum of cos/sin modes exp(2 pi i k . xi) in lattice coordinates."""

    def __init__(self, torus, const=0.0, terms=()):
        self.torus = torus
        self.const = float(const)
        self.terms = [(np.array(k, dtype=float), float(a), float(b)) for k, a, b in terms]
        self._modes = np.array([k for k, _, _ in self.terms]).reshape(-1, 2)
        self._cos = np.array([a for _, a, _ in self.terms])
        self._sin = np.array([b for _, _, b in self.terms])

    def _phases(self, points):
        return 2.0 * np.pi * (self.torus.frac(stack_points(points)) @ self._modes.T)

    def values(self, points):
        psi = self._phases(points)
        return self.const + np.cos(psi) @ self._cos + np.sin(psi) @ self._sin

    def grads(self, points):
        psi = self._phases(points)
        dpsi = 2.0 * np.pi * (self._modes @ self.torus.inv_lattice)
        return (-np.sin(psi) * self._cos + np.cos(psi) * self._sin) @ dpsi


class AmbientPolyScalar(ScalarField):
    """Polynomial of degree <= 2 in the ambient coordinates, restricted to the sphere."""

    def __init__(self, sphere, const=0.0, linear=None, quadratic=None):
        self.sphere = sphere
        self.const = float(const)
        self.linear = np.zeros(3) if linear is None else np.asarray(linear, dtype=float)
        q = np.zeros((3, 3)) if quadratic is None else np.asarray(quadratic, dtype=float)
        self.quadratic = 0.5 * (q + q.T)

    def values(self, points):
        n = self.sphere.ambient(stack_points(points))
        return self.const + n @ self.linear + np.einsum("mi,ij,mj->m", n, self.quadratic, n)

    def grads(self, points):
        pts = stack_points(points)
        n = self.sphere.ambient(pts)
        dn = self.sphere.ambient_jacobian(pts)
        return np.einsum("mi,mij->mj", self.linear + 2.0 * n @ self.quadratic, dn)


class CircleFourierScalar:
    """const + sum of cos/sin harmonics on a circle of given length."""

    def __init__(self, circle, const=0.0, terms=()):
        self.circle = circle
        self.const = float(const)
        self.terms = [(int(n), float(a), float(b)) for n, a, b in terms]

    def value(self, x):
        out = self.const
        for n, a, b in self.terms:
            psi = 2.0 * np.pi * n * x / self.circle.length
            out += a * np.cos(psi) + b * np.sin(psi)
        return out


# ---------------------------------------------------------------------------
# vector fields


class VectorField:
    """Vector field; subclasses implement the batched ``values`` (m, 2) and ``jacobians`` (m, 2, 2)."""

    manifold = None

    def value(self, pt):
        return self.values(pt)[0]

    def jacobian(self, pt):
        return self.jacobians(pt)[0]


class TorusFourierVectorField(VectorField):
    """Fourier scalar times a coordinate field, or a general two-component field.

    The one-point methods use the components' one-point ``value``/``grad``,
    so any object with those two methods can serve as a component there.
    """

    def __init__(self, torus, components):
        self.manifold = torus
        self.components = components  # pair of TorusFourierScalar / ConstantScalar

    @classmethod
    def coordinate(cls, torus, index, scalar=None):
        scalar = ConstantScalar(1.0) if scalar is None else scalar
        zero = ConstantScalar(0.0)
        comps = (scalar, zero) if index == 0 else (zero, scalar)
        return cls(torus, comps)

    def value(self, x):
        return np.array([c.value(x) for c in self.components])

    def jacobian(self, x):
        return np.stack([c.grad(x) for c in self.components])

    def values(self, points):
        return np.stack([c.values(points) for c in self.components], axis=-1)

    def jacobians(self, points):
        return np.stack([c.grads(points) for c in self.components], axis=1)


class SpherePolyVectorField(VectorField):
    """Vector field on the sphere given by f(z, conj z) d/dz + conj in chart 0.

    ``coeffs`` maps (j, k) to the complex coefficient of z^j conj(z)^k.
    Holomorphic entries (k = 0, degree <= 2) extend to the whole sphere;
    antiholomorphic monomials are smooth away from the north pole only, which
    is all the solver's ansatz needs.
    """

    def __init__(self, sphere, coeffs):
        self.manifold = sphere
        self.coeffs = {tuple(key): complex(val) for key, val in coeffs.items()}

    def _chart0(self, p):
        """f, df/dz and df/dconj(z) at chart-0 coordinates p of shape (m, 2)."""
        z = p[:, 0] + 1j * p[:, 1]
        zbar = z.conjugate()
        f, fz, fzbar = (np.zeros(len(z), dtype=complex) for _ in range(3))
        for (j, k), c in self.coeffs.items():
            f += c * z**j * zbar**k
            if j > 0:
                fz += j * c * z ** (j - 1) * zbar**k
            if k > 0:
                fzbar += k * c * z**j * zbar ** (k - 1)
        return f, fz, fzbar

    def _split(self, points):
        """Chart-0 coordinates of every point, the chart-1 mask, and the chart-1 coordinates."""
        pts = stack_points(points)
        one = pts.chart == 1
        q = pts.coords[one]
        p = pts.coords.copy()
        p[one] = self.manifold.transition(q)
        return p, one, q

    def values(self, points):
        p, one, _ = self._split(points)
        f, _, _ = self._chart0(p)
        v = np.stack([f.real, f.imag], axis=-1)
        v[one] = np.einsum("mij,mj->mi", self.manifold.transition_jacobian(p[one]), v[one])
        return v

    def jacobians(self, points):
        p, one, q = self._split(points)
        f, fz, fzbar = self._chart0(p)
        dfdx = fz + fzbar
        dfdy = 1j * (fz - fzbar)
        jac = np.stack([np.stack([dfdx.real, dfdy.real], axis=-1),
                        np.stack([dfdx.imag, dfdy.imag], axis=-1)], axis=1)
        # chart 1: V1(q) = T'(p) V0(p) with p = T(q), so
        # dV1/dq = T''(p)[V0, T'(q) .] + T'(p) dV0/dp T'(q)
        sphere, p1 = self.manifold, p[one]
        v = np.stack([f[one].real, f[one].imag], axis=-1)
        jq = sphere.transition_jacobian(q)
        jp = sphere.transition_jacobian(p1)
        second_order = np.einsum("mijk,mj,mkl->mil", sphere.transition_hessian(p1), v, jq)
        jac[one] = second_order + jp @ jac[one] @ jq
        return jac


class CombinationVectorField(VectorField):
    """Linear combination of basis fields with fixed coefficients."""

    def __init__(self, elements, coefficients):
        if not elements:
            raise ValueError("need at least one element")
        self.manifold = elements[0].manifold
        self.elements = list(elements)
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.shape != (len(self.elements),):
            raise ValueError("coefficient count must match element count")

    def values(self, points):
        points = stack_points(points)
        return np.tensordot(self.coefficients, [el.values(points) for el in self.elements], axes=1)

    def jacobians(self, points):
        points = stack_points(points)
        return np.tensordot(self.coefficients, [el.jacobians(points) for el in self.elements], axes=1)


def sphere_rotation_generators(sphere):
    """The three Killing fields of the round metric, cyclic so(3) brackets."""
    r = sphere.radius
    return [
        SpherePolyVectorField(sphere, {(0, 0): 0.5j * r, (2, 0): -0.5j / r}),
        SpherePolyVectorField(sphere, {(0, 0): 0.5 * r, (2, 0): 0.5 / r}),
        SpherePolyVectorField(sphere, {(1, 0): 1j}),
    ]


def sphere_gradient_generators(sphere):
    """Gradient-type conformal fields (non-Killing) completing the conformal algebra."""
    r = sphere.radius
    return [
        SpherePolyVectorField(sphere, {(0, 0): 0.5 * r, (2, 0): -0.5 / r}),
        SpherePolyVectorField(sphere, {(0, 0): -0.5j * r, (2, 0): -0.5j / r}),
        SpherePolyVectorField(sphere, {(1, 0): 1.0}),
    ]


# ---------------------------------------------------------------------------
# diffeomorphisms


class TorusTranslation:
    def __init__(self, torus, shift):
        self.manifold = torus
        self.shift = np.asarray(shift, dtype=float)

    def apply(self, x):
        return self.manifold.wrap(np.asarray(x, dtype=float) + self.shift)

    def differential(self, x):
        return np.eye(2)


_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_FLIP = np.array([[1.0, 0.0], [0.0, -1.0]])


def _conformal_matrix(alpha):
    return np.array([[alpha.real, -alpha.imag], [alpha.imag, alpha.real]])


class MobiusMap:
    """Fractional linear map z -> (az + b)/(cz + d) on the chart-0 coordinate."""

    def __init__(self, sphere, matrix):
        self.manifold = sphere
        self.matrix = np.asarray(matrix, dtype=complex)
        if abs(np.linalg.det(self.matrix)) < 1e-14:
            raise ValueError("Mobius matrix is singular")

    @classmethod
    def rotation_about_pole(cls, sphere, angle):
        return cls(sphere, [[np.exp(1j * angle), 0.0], [0.0, 1.0]])

    @classmethod
    def rotation(cls, sphere, axis, angle):
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        su2 = np.cos(angle / 2.0) * np.eye(2, dtype=complex) + 1j * np.sin(angle / 2.0) * (
            axis[0] * _SIGMA[0] + axis[1] * _SIGMA[1] + axis[2] * _SIGMA[2]
        )
        r = sphere.radius
        scale = np.array([[r, 0.0], [0.0, 1.0]], dtype=complex)
        unscale = np.array([[1.0 / r, 0.0], [0.0, 1.0]], dtype=complex)
        return cls(sphere, scale @ su2 @ unscale)

    @classmethod
    def translation(cls, sphere, b):
        return cls(sphere, [[1.0, complex(b)], [0.0, 1.0]])

    @classmethod
    def scaling(cls, sphere, s):
        return cls(sphere, [[complex(s), 0.0], [0.0, 1.0]])

    def apply(self, pt):
        p, q = self.manifold.projective_pair(pt)
        (a, b), (c, d) = self.matrix
        return self.manifold.chart_point(a * p + b * q, c * p + d * q)

    def _effective(self, in_chart, out_chart):
        r2 = self.manifold.radius**2
        swap = np.array([[0.0, r2], [1.0, 0.0]], dtype=complex)
        mat = self.matrix
        if in_chart == 1:
            mat = mat @ swap
        if out_chart == 1:
            mat = swap @ mat
        return mat

    def differential(self, pt):
        """Real 2x2 differential from the chart of ``pt`` to the chart of its image."""
        image = self.apply(pt)
        mat = self._effective(pt.chart, image.chart)
        zeta = self.manifold.to_complex(pt)
        if pt.chart == 1:
            zeta = zeta.conjugate()
        (a, b), (c, d) = mat
        denom = c * zeta + d
        if abs(denom) < 1e-14:
            raise ChartDomainError("Mobius differential evaluated at a pole of the chart map")
        deriv = (a * d - b * c) / denom**2
        jac = _conformal_matrix(deriv)
        if pt.chart == 1:
            jac = jac @ _FLIP
        if image.chart == 1:
            jac = _FLIP @ jac
        return jac


# ---------------------------------------------------------------------------
# Finsler fields


class FinslerField:
    """Chart-based assignment of a Minkowski norm to each tangent space.

    Solvable fields implement the batched ``evals`` (m,), ``grads_x`` and
    ``grads_y`` (m, 2) over a batch of points and an (m, 2) array of
    directions; ``eval``, ``grad_x`` and ``grad_y`` are their one-point forms.
    """

    manifold = None

    def evals(self, points, ys):
        raise NotImplementedError

    def grads_x(self, points, ys):
        raise NotImplementedError

    def grads_y(self, points, ys):
        raise NotImplementedError

    def eval(self, pt, y):
        return float(self.evals(pt, y)[0])

    def grad_x(self, pt, y):
        return self.grads_x(pt, y)[0]

    def grad_y(self, pt, y):
        return self.grads_y(pt, y)[0]

    def norm_at(self, pt):
        raise NotImplementedError


def _as_directions(ys):
    return np.atleast_2d(np.asarray(ys, dtype=float))


def _checked_directions(ys, floor):
    """(m, 2) directions and their lengths; rejects non-finite and near-zero directions."""
    ys = _as_directions(ys)
    if not np.all(np.isfinite(ys)):
        raise ValueError("direction has non-finite entries")
    lengths = np.linalg.norm(ys, axis=-1)
    if np.any(lengths < floor):
        raise DegenerateVector(f"|y| = {lengths.min():.3e} below floor {floor:.0e}")
    return ys, lengths


class ConstantNormField(FinslerField):
    """The same Minkowski norm on every tangent space of a flat torus."""

    def __init__(self, torus, norm):
        self.manifold = torus
        self.norm = norm

    def evals(self, points, ys):
        return self.norm(_as_directions(ys))

    def grads_x(self, points, ys):
        return np.zeros((len(_as_directions(ys)), 2))

    def grads_y(self, points, ys):
        ys, _ = _checked_directions(ys, DEGENERATE_FLOOR)
        return self.norm.gradient_batch(ys)

    def norm_at(self, pt):
        return self.norm


class RoundSphereField(FinslerField):
    """The round metric of a 2-sphere in stereographic charts."""

    def __init__(self, sphere):
        self.manifold = sphere

    def evals(self, points, ys):
        lengths = np.linalg.norm(_as_directions(ys), axis=-1)
        return self.manifold.conformal_factor(stack_points(points)) * lengths

    def grads_x(self, points, ys):
        lengths = np.linalg.norm(_as_directions(ys), axis=-1)
        return self.manifold.conformal_factor_grad(stack_points(points)) * lengths[:, None]

    def grads_y(self, points, ys):
        ys, lengths = _checked_directions(ys, 1e-12)
        lam = self.manifold.conformal_factor(stack_points(points))
        return lam[:, None] * ys / lengths[:, None]

    def norm_at(self, pt):
        lam = self.manifold.conformal_factor(pt)
        return EuclideanNorm(lam**2 * np.eye(2))


class ConformalRescaleField(FinslerField):
    """rho(x) * F(x, y) for a positive scalar field rho."""

    def __init__(self, base, rho):
        self.manifold = base.manifold
        self.base = base
        self.rho = rho

    def evals(self, points, ys):
        return self.rho.values(points) * self.base.evals(points, ys)

    def grads_x(self, points, ys):
        return (
            self.rho.grads(points) * self.base.evals(points, ys)[:, None]
            + self.rho.values(points)[:, None] * self.base.grads_x(points, ys)
        )

    def grads_y(self, points, ys):
        return self.rho.values(points)[:, None] * self.base.grads_y(points, ys)

    def norm_at(self, pt):
        return scale_norm(self.base.norm_at(pt), self.rho.value(pt))


class CircleNormField(FinslerField):
    """One-dimensional field F(x, y) = p(x) y for y > 0, q(x) |y| for y < 0."""

    def __init__(self, circle, forward, backward):
        self.manifold = circle
        self.forward = forward
        self.backward = backward

    def eval(self, x, y):
        y = float(np.asarray(y).reshape(()))
        if y >= 0.0:
            return self.forward.value(x) * y
        return self.backward.value(x) * (-y)

    def ratio(self, x):
        """max(F(x, +1)/F(x, -1), F(x, -1)/F(x, +1))."""
        plus = self.eval(x, 1.0)
        minus = self.eval(x, -1.0)
        return max(plus / minus, minus / plus)


def pull_norm(norm, jac):
    """The norm y -> F(J y), staying in closed form for the built-in families."""
    jac = np.asarray(jac, dtype=float)
    if isinstance(norm, EuclideanNorm):
        return EuclideanNorm(jac.T @ norm.matrix @ jac)
    if isinstance(norm, RandersNorm):
        return RandersNorm(jac.T @ norm.a @ jac, jac.T @ norm.b)
    return GenericNorm(norm.dim, lambda y: float(norm(jac @ np.asarray(y, dtype=float))))


class PullbackField(FinslerField):
    """(f^*F)(x, y) = F(f(x), df(x) y) for a built-in diffeomorphism f."""

    def __init__(self, base, diffeo):
        self.manifold = base.manifold
        self.base = base
        self.diffeo = diffeo

    def eval(self, pt, y):
        image = self.diffeo.apply(pt)
        jac = self.diffeo.differential(pt)
        return self.base.eval(image, jac @ np.asarray(y, dtype=float))

    def grad_y(self, pt, y):
        image = self.diffeo.apply(pt)
        jac = self.diffeo.differential(pt)
        return jac.T @ self.base.grad_y(image, jac @ np.asarray(y, dtype=float))

    def norm_at(self, pt):
        image = self.diffeo.apply(pt)
        return pull_norm(self.base.norm_at(image), self.diffeo.differential(pt))


class PointwiseAveragedField(FinslerField):
    """Riemannian field obtained by averaging each tangent-space norm."""

    def __init__(self, source, resolution):
        self.manifold = source.manifold
        self.source = source
        self.resolution = int(resolution)

    def matrix_at(self, pt):
        if isinstance(self.manifold, Circle):
            fwd = self.source.eval(pt, 1.0)
            bwd = self.source.eval(pt, -1.0)
            return np.array([[0.5 * (fwd**2 + bwd**2)]])
        return average(self.source.norm_at(pt), self.resolution).matrix

    def norm_at(self, pt):
        return EuclideanNorm(self.matrix_at(pt))

    def eval(self, pt, y):
        return float(self.norm_at(pt)(np.asarray(y, dtype=float)))

    def grad_y(self, pt, y):
        return self.norm_at(pt).gradient(np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# operations


def lie_derivative(field, vector_field, pt, y):
    """(L_V F)(x, y) through the complete lift of V.

    Equals V^i dF/dx^i + y^j (dV^i/dx^j) dF/dy^i; the x-derivatives of F are
    analytic for every built-in field kind.
    """
    y = np.asarray(y, dtype=float)
    if float(np.linalg.norm(y)) < 1e-12:
        raise DegenerateVector("Lie derivative undefined at y = 0")
    v = vector_field.value(pt)
    jac = vector_field.jacobian(pt)
    return float(v @ field.grad_x(pt, y) + (jac @ y) @ field.grad_y(pt, y))


def pullback_metric(field, diffeo):
    return PullbackField(field, diffeo)


def averaged_metric_field(field, resolution):
    return PointwiseAveragedField(field, resolution)


def sample_points(manifold, count, seed=0):
    """Deterministic sample points for residual sweeps."""
    if isinstance(manifold, Circle):
        return manifold.sample_points(count)
    if isinstance(manifold, FlatTorus):
        rng = np.random.default_rng(seed)
        return [manifold.lattice @ rng.uniform(size=2) for _ in range(count)]
    if isinstance(manifold, Sphere2):
        return manifold.fibonacci_points(count)
    raise ValueError(f"unsupported manifold {manifold!r}")


def isometry_ratio_invariance(field, diffeo, samples=32, seed=0):
    """Max deviation of F(x,y)/F(x,y') from its value at the mapped data.

    Conformal maps preserve per-point norm ratios, so this residual should
    vanish for any built-in conformal diffeomorphism of the field.
    """
    rng = np.random.default_rng(seed)
    pts = sample_points(field.manifold, samples, seed=seed)
    worst = 0.0
    for pt in pts:
        angles = rng.uniform(0.0, 2.0 * np.pi, size=2)
        y1 = np.array([np.cos(angles[0]), np.sin(angles[0])])
        y2 = np.array([np.cos(angles[1]), np.sin(angles[1])])
        image = diffeo.apply(pt)
        jac = diffeo.differential(pt)
        ratio = field.eval(pt, y1) / field.eval(pt, y2)
        mapped = field.eval(image, jac @ y1) / field.eval(image, jac @ y2)
        worst = max(worst, abs(ratio - mapped))
    return worst


@dataclass
class LambdaProfile:
    xs: np.ndarray
    values: np.ndarray
    spread: float
    constant: bool
    tol: float

    def to_csv(self, path):
        lines = ["x,value"]
        lines += [f"{x:.12e},{v:.12e}" for x, v in zip(self.xs, self.values)]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return path


def circle_lambda_profile(field, grid=256, tol=1e-10):
    """Reversibility ratio along a circle field and a constancy flag."""
    if not isinstance(field.manifold, Circle):
        raise ValueError("lambda profile is defined for circle fields")
    xs = np.array(field.manifold.sample_points(grid))
    values = np.array([field.ratio(x) for x in xs])
    spread = float(values.max() - values.min())
    return LambdaProfile(xs=xs, values=values, spread=spread, constant=spread <= tol, tol=tol)
