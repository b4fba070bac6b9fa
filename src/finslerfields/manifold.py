"""Model manifolds (flat tori of any dimension, round 2-sphere) and Finsler fields on them.

The circle of length L is the 1-torus ``FlatTorus([[L]])``; the vector-field
ansatz and the solver take the 2-torus and the sphere.

A sphere point is its ambient position p, a (3,) array with |p| = R, and a
tangent vector at p is a (2,) array of components in the orthonormal frame
``Sphere2.frame(p)``, the columns e1, e2 of a (3, 2) array.  The frame is
defined at every point, both poles included.  It is not smooth, and need not
be: every formula is pointwise, and the sphere's Finsler fields are isotropic
in the frame, so the turning of the frame along a flow drops out of their
Lie derivatives.  A sphere vector field is the tangent projection
X(p) = w - (p.w) p / R^2 of a polynomial map w of R^3, and its 1-jet is the
ambient one read in the frame: E^T X and E^T DX E.  Mobius maps are Lorentz
matrices acting on the null cone.

Point sets are batches: an (m, n) array on the n-torus, the circle included
as (m, 1), and an (m, 3) array on the sphere.  Grids, Fibonacci points and
``sample_points`` come back as one batch.  Scalars, vector fields and
Finsler fields evaluate a whole batch in one call: a scalar's ``jets``, value
then gradient, of which ``values`` and ``grads`` are slices; a vector field's
``values`` and ``jacobians``; and a solvable Finsler field's ``jets``, F then
dF/dx and dF/dy, of which ``evals`` is the first.  Circle, pullback and
averaged fields are evaluation-only and state ``evals`` alone.  The one-point
methods ``value``, ``jacobian`` and ``eval`` are batches of one, kept because
the benchmark (``bench/``) calls or wraps them by name.  Diffeomorphisms
(``apply``, ``differential``), pullback and averaged fields and
``lie_derivative`` take one point or a batch with the same formulas.

Each field family has one jet rule, shared by its scalars and vector fields.
On a torus, Fourier terms are gathered by mode (``_distinct_terms``) into a
jet matrix on [1, cos psi, sin psi], contracted with that dictionary from one
``frac`` (``_fourier_jets``); on the sphere, polynomials in q = p / R go
through the monomials of q and their frame derivatives (``_monomials``).  A
list of vector fields of one class on one manifold is one (m, 6, B) table of
1-jets, values then the row-major Jacobian (``field_tables``), through its
class's ``_tables``.  A combination contracts its coefficients with the table
of its own elements, recursively for a nested one, and a single field is a
table of one column.  Element tables and the solver's collocations are kept
read-only in ``RESULTS``, one process-wide cache by value, so that a run
computes each once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from threading import Lock

import numpy as np

from .errors import InvalidSettings
from .lie_algebra import RANK_TOL
from .norm_core import (EuclideanNorm, GenericNorm, RandersNorm, checked_vectors, fibonacci_directions,
                        scale_norm)
from .averaging import average


# ---------------------------------------------------------------------------
# shared results

# about 2.5 times the tables and collocations that a default run keeps (3.2 MB), and what an
# entry costs beyond its arrays (its key and slot), so that small entries count too
CACHE_BYTES, ENTRY_BYTES = 8 << 20, 1 << 10


class ResultCache:
    """Read-only arrays by key, least recently used evicted first past ``budget`` bytes.  A
    result is the same found or computed, and one larger than the budget is not kept."""

    def __init__(self, budget):
        self.budget, self.nbytes, self.entries, self.lock = budget, 0, OrderedDict(), Lock()

    def get(self, key, compute):
        """``compute()``'s array or tuple of arrays, made read-only and kept under ``key``, which
        may hold objects that compare by identity, such as field elements."""
        with self.lock:
            if key in self.entries:
                self.entries.move_to_end(key)
                return self.entries[key][0]
        value = compute()
        arrays = value if isinstance(value, tuple) else (value,)
        for array in arrays:
            array.flags.writeable = False
        size = ENTRY_BYTES + sum(array.nbytes for array in arrays)
        with self.lock:
            if size <= self.budget and key not in self.entries:
                self.entries[key], self.nbytes = (value, size), self.nbytes + size
                while self.nbytes > self.budget:
                    self.nbytes -= self.entries.popitem(last=False)[1][1]
        return value

    def clear(self):
        with self.lock:
            self.nbytes = 0
            self.entries.clear()


RESULTS = ResultCache(CACHE_BYTES)


# ---------------------------------------------------------------------------
# manifolds and points


def stack_points(points):
    """One batch from a point or a batch (see the module docstring)."""
    return np.atleast_2d(np.asarray(points, dtype=float))


class FlatTorus:
    """R^n modulo the lattice spanned by the columns of the (n, n) ``lattice`` (default I_2)."""

    def __init__(self, lattice=None):
        self.lattice = np.eye(2) if lattice is None else np.asarray(lattice, dtype=float)
        if (self.lattice.ndim != 2 or not 0 < len(self.lattice) == self.lattice.shape[1]
                or not np.all(np.isfinite(self.lattice))):
            raise InvalidSettings(f"lattice must be a finite (n, n) matrix, got {self.lattice.tolist()}")
        self.dim = len(self.lattice)
        # |det L| against |L|_F^n: both scale as s^n under L -> s L, a torus of the same shape
        if abs(np.linalg.det(self.lattice)) <= 1e-12 * np.sum(self.lattice**2) ** (self.dim / 2):
            raise InvalidSettings("lattice basis is degenerate")
        self.inv_lattice = np.linalg.inv(self.lattice)

    def frac(self, x):
        """Lattice coordinates of an (n,) point or an (m, n) batch."""
        return np.asarray(x, dtype=float) @ self.inv_lattice.T

    def wrap(self, x):
        return (self.frac(x) % 1.0) @ self.lattice.T

    def grid_points(self, per_axis, offset=None):
        """The (per_axis**n, n) offset grid in lattice coordinates, first index outermost.

        Only the 2-torus has a default offset, (0.31, 0.47)."""
        offset = (0.31, 0.47) if offset is None and self.dim == 2 else offset
        if np.shape(offset) != (self.dim,):
            raise InvalidSettings(f"a grid on a {self.dim}-torus takes an offset of {self.dim} entries")
        index = np.indices((per_axis,) * self.dim).reshape(self.dim, -1).T
        return ((index + np.asarray(offset)) / per_axis) @ self.lattice.T


class Sphere2:
    """Round 2-sphere of radius R: the points p of R^3 with |p| = R."""

    dim = 2

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise InvalidSettings("radius must be positive")
        self.radius = float(radius)

    def frame(self, points):
        """Orthonormal tangent frames (..., 3, 2) at (..., 3) points, with e1 x e2 = p / |p|.

        The branchless frame of Duff et al., "Building an orthonormal basis,
        revisited", JCGT 6(1) (2017): accurate at every point, both poles
        included, and discontinuous across the equator, which no pointwise
        formula notices.  Points off the sphere by more than 1e-8 R raise.
        """
        p = np.asarray(points, dtype=float)
        length = np.sqrt(np.sum(p * p, axis=-1))
        off = np.abs(length - self.radius)
        if np.any(off > 1e-8 * self.radius):
            raise ValueError(f"|p| is {off.max():.3e} off the sphere of radius {self.radius}")
        x, y, z = np.moveaxis(p, -1, 0) / length
        sign = np.where(z >= 0.0, 1.0, -1.0)
        a = -1.0 / (sign + z)
        b = x * y * a
        e1 = np.stack([1.0 + sign * x * x * a, sign * b, -sign * x], axis=-1)
        return np.stack([e1, np.stack([b, sign + y * y * a, -y], axis=-1)], axis=-1)

    def fibonacci_points(self, count):
        return fibonacci_directions(count) * self.radius


# ---------------------------------------------------------------------------
# scalar fields


class ScalarField:
    """Scalar function on a manifold.  Subclasses implement the batched ``jets`` (m, 1 + n),
    the value then the gradient, of which ``values``, ``grads`` and ``value`` are slices."""

    def values(self, points):
        return self.jets(points)[:, 0]

    def grads(self, points):
        return self.jets(points)[:, 1:]

    def value(self, pt):
        return float(self.jets(pt)[0, 0])


class TorusFourierScalar(ScalarField):
    """const + sum of cos/sin modes exp(2 pi i k . xi) in lattice coordinates, k of length n.

    A constant is a scalar without modes.  Its jet matrix (``_fourier_matrix``) is built once,
    at its first ``jets`` call, and its jets sum the modes with the same arithmetic at every
    batch size, so a point's value does not depend on the batch it is evaluated in.
    """

    def __init__(self, torus, const=0.0, terms=()):
        self.torus = torus
        self.const = float(const)
        self.terms = [(np.array(k, dtype=float), float(a), float(b)) for k, a, b in terms]
        if any(k.shape != (torus.dim,) or np.any(k != np.round(k)) for k, _, _ in self.terms):
            raise InvalidSettings(f"a mode on a {torus.dim}-torus has {torus.dim} entries, each an integer")
        self._terms = (np.array([k for k, _, _ in self.terms], dtype=int).reshape(-1, torus.dim),
                       np.array([(a, b) for _, a, b in self.terms]).reshape(-1, 2))   # modes, (a, b)

    @cached_property
    def _matrix(self):
        modes, jet = _fourier_matrix(self.torus, [self])
        return modes, jet[..., 0]

    def jets(self, points):
        return _fourier_jets(self.torus, *self._matrix, points)


def _distinct_terms(terms):
    """The distinct integer keys (K, d) of S owners' terms, in lexicographic order, and the
    (K, ..., S) sums of their values per key and owner.  ``terms`` holds one pair of
    (T, d) keys and (T, ...) values per owner."""
    keys, values = (np.concatenate(part) for part in zip(*terms))
    owner = np.repeat(np.arange(len(terms)), [len(key) for key, _ in terms])
    distinct, row = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((len(distinct),) + values.shape[1:] + (len(terms),))
    np.add.at(sums, (row.ravel(), ..., owner), values)
    return distinct, sums


def _fourier_matrix(torus, scalars):
    """The distinct modes (K, n) of Fourier scalars and their (1 + 2K, 1 + n, S) jet matrix
    on [1, cos psi, sin psi]: column 0 holds the coefficients, and columns 1 + j the
    derivatives d/dx^j, where dpsi/dx = 2 pi k L^-1 (xi = L^-1 x) enters a sin coefficient
    times it on the cos row and minus a cos one on the sin row."""
    modes, coef = _distinct_terms([scalar._terms for scalar in scalars])   # (K, 2, S)
    modes = modes.astype(float)
    k, dpsi = len(modes), (2.0 * np.pi * (modes @ torus.inv_lattice))[:, :, None]
    jet = np.zeros((1 + 2 * k, 1 + torus.dim, len(scalars)))
    jet[0, 0] = [scalar.const for scalar in scalars]
    jet[1:k + 1, 0], jet[k + 1:, 0] = coef[:, 0], coef[:, 1]
    jet[1:k + 1, 1:] = dpsi * coef[:, None, 1]
    jet[k + 1:, 1:] = -(dpsi * coef[:, None, 0])
    return modes, jet


def _fourier_jets(torus, modes, jet, points):
    """[1, cos psi, sin psi] over the K modes, psi = 2 pi k . xi from one ``frac``, contracted
    with a (1 + 2K, ...) jet matrix: (m,) + its trailing shape.  One scalar's (1 + 2K, 1 + n)
    matrix goes through einsum, whose arithmetic is the same at every batch size, and a
    stack of them through one matmul."""
    psi = torus.frac(stack_points(points)) @ modes.T
    psi *= 2.0 * np.pi
    dictionary = np.ones((len(psi), 1 + 2 * len(modes)))
    np.cos(psi, out=dictionary[:, 1:1 + len(modes)])
    np.sin(psi, out=dictionary[:, 1 + len(modes):])
    if jet.ndim == 2:
        return np.einsum("mk,kj->mj", dictionary, jet)
    return (dictionary @ jet.reshape(len(jet), -1)).reshape((len(psi),) + jet.shape[1:])


class SpherePolyScalar(ScalarField):
    """sum c_e q^e over the monomials of the unit point q = p / R, restricted to the sphere.

    ``coeffs`` maps exponents (i, j, k) to the coefficient of q1^i q2^j q3^k.  The
    gradient is read in the frame, E^T grad rho, from the monomials' frame derivatives.
    """

    def __init__(self, sphere, coeffs):
        self.sphere = sphere
        self.coeffs = {tuple(key): float(val) for key, val in coeffs.items()}
        self._exps = np.array(list(self.coeffs), dtype=int).reshape(-1, 3)
        self._coef = np.array(list(self.coeffs.values()))

    def jets(self, points):
        p = stack_points(points)
        monomials, along = _monomials(p / self.sphere.radius, np.swapaxes(self.sphere.frame(p), 1, 2),
                                      self._exps)
        return np.concatenate([monomials[:, None], along / self.sphere.radius], axis=1) @ self._coef


# ---------------------------------------------------------------------------
# vector fields


class VectorField:
    """Vector field with batched ``values`` (m, 2) and ``jacobians`` (m, 2, 2).

    Each class implements one stacking rule ``_tables`` that evaluates the
    1-jets of a list of its elements at once (see ``field_tables``); a single
    field is that rule with one element.
    """

    manifold = None

    def values(self, points):
        return field_tables([self], points)[:, :2, 0]

    def jacobians(self, points):
        return field_tables([self], points)[:, 2:, 0].reshape(-1, 2, 2)

    def value(self, pt):
        return self.values(pt)[0]

    def jacobian(self, pt):
        return self.jacobians(pt)[0]


class TorusFourierVectorField(VectorField):
    """Fourier scalar times a coordinate field, or a general two-component field, on a 2-torus."""

    def __init__(self, torus, components):
        if torus.dim != 2:
            raise InvalidSettings(f"a torus vector field lives on a 2-torus, got dimension {torus.dim}")
        self.manifold = torus
        self.components = components  # pair of TorusFourierScalar

    @classmethod
    def coordinate(cls, torus, index, scalar=None):
        scalar = TorusFourierScalar(torus, const=1.0) if scalar is None else scalar
        zero = TorusFourierScalar(torus)
        return cls(torus, (scalar, zero) if index == 0 else (zero, scalar))

    @staticmethod
    def _tables(elements, points):
        """(m, 6, A) jets through the Fourier rule: the jet matrix of the 2A components
        (see ``_fourier_matrix``), [r, j, i, a] in its gradient columns, turned to the
        table's values then row-major Jacobian [r, i, j, a] before the one matmul."""
        torus = elements[0].manifold
        modes, jet = _fourier_matrix(torus, [el.components[i] for i in (0, 1) for el in elements])
        jet = jet.reshape(len(jet), 3, 2, -1)
        jet = np.concatenate([jet[:, 0], np.swapaxes(jet[:, 1:], 1, 2).reshape(len(jet), 4, -1)], axis=1)
        return _fourier_jets(torus, modes, jet, points)


class SpherePolyVectorField(VectorField):
    """The tangent projection X(p) = w - (p.w) p / R^2 of a polynomial map w of R^3.

    ``coeffs`` maps exponents (i, j, k) to the (3,) ambient coefficient of the
    monomial q1^i q2^j q3^k of the unit point q = p / R, and w(p) is R times
    their sum: the field is R times a function of q, so its frame components
    scale with R and its frame Jacobian does not.
    """

    def __init__(self, sphere, coeffs):
        self.manifold = sphere
        self.coeffs = {tuple(key): np.asarray(val, dtype=float) for key, val in coeffs.items()}
        self._terms = (np.array(list(self.coeffs), dtype=int).reshape(-1, 3),
                       np.array(list(self.coeffs.values())).reshape(-1, 3))   # exponents, vectors

    @staticmethod
    def _tables(elements, points):
        """(m, 6, A) jets E^T X and E^T DX E from one matmul of the monomials of q = p / R
        and one of their frame derivatives against the (K, 3, A) coefficients, written
        into one preallocated table.

        With E^T q = 0 the projection leaves E^T w in the values and -(q.w) I in
        the Jacobian: E^T DX E = E^T Dw E - (q.w) I.
        """
        sphere = elements[0].manifold
        exps, coef = _distinct_terms([el._terms for el in elements])
        m, n_fields = len(points), len(elements)
        coef = coef.reshape(len(exps), 3 * n_fields)
        q, rows = points / sphere.radius, np.transpose(sphere.frame(points), (0, 2, 1))
        monomials, along = _monomials(q, rows, exps)   # its (m, K, 3) temporaries end here
        w = (monomials @ coef).reshape(m, 3, n_fields)
        # E^T Dw E = E^T (Dw E): the frame derivatives [m c, i b] turned to [m, i, c b]
        along = np.transpose((along.reshape(2 * m, -1) @ coef).reshape(m, 2, 3, n_fields),
                             (0, 2, 1, 3)).reshape(m, 3, -1)
        jets = np.empty((m, 3, 2, n_fields))   # E^T w at [:, 0], E^T Dw E at [:, 1 + i, j]
        np.matmul(rows, w, out=jets[:, 0])
        jets[:, 0] *= sphere.radius
        np.matmul(rows, along, out=jets[:, 1:].reshape(m, 2, -1))
        normal = np.einsum("mi,mib->mb", q, w)
        jets[:, 1, 0] -= normal
        jets[:, 2, 1] -= normal
        return jets.reshape(m, 6, n_fields)


def _monomials(q, rows, exps):
    """Monomials q^e (m, K) of (K, 3) exponents and their derivatives along the frame rows,
    (m, 2, K): q_j^e from a table of powers, d/dq_l q^e = e_l q_l^(e_l - 1) times the others."""
    axes = np.arange(3)
    powers = np.ones(q.shape + (exps.max(initial=0) + 1,))
    for e in range(1, powers.shape[-1]):
        powers[..., e] = powers[..., e - 1] * q
    factors = powers[:, axes, exps]
    lowered = exps * powers[:, axes, np.maximum(exps - 1, 0)]
    derivatives = lowered * factors[..., [1, 2, 0]] * factors[..., [2, 0, 1]]   # (m, K, l)
    return factors.prod(axis=-1), rows @ np.transpose(derivatives, (0, 2, 1))


class CombinationVectorField(VectorField):
    """Linear combination of vector fields with fixed coefficients, combinations included.

    It keeps its elements as a tuple and its coefficients as given, and is evaluated
    as the table of its elements with the coefficients contracted in (see ``field_tables``).
    """

    def __init__(self, elements, coefficients):
        if not elements:
            raise ValueError("need at least one element")
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (len(elements),):
            raise ValueError("coefficient count must match element count")
        self.manifold = elements[0].manifold
        self.elements, self.coefficients = tuple(elements), coefficients


def field_tables(fields, points):
    """The (m, 6, B) 1-jets of B vector fields: values at [:, :2] and the Jacobian
    dV^i/dx^j at [:, 2 + 2 i + j], so that [:, 2:] reshapes to (m, 2, 2, B).

    Fields that are all basis elements are the elements of one table, from one call of
    their class's ``_tables`` or from ``RESULTS``, keyed by the elements (compared by
    identity) and the points' bytes, and returned as it is, read-only.  Otherwise each
    field is a column of its own: a combination's coefficients contracted with the table
    of its elements, by the same rule for a nested one.  Elements of different classes
    or manifolds raise ValueError.
    """
    points = stack_points(points)
    if not any(isinstance(vf, CombinationVectorField) for vf in fields):
        return _element_table(tuple(fields), points)
    return np.stack([field_tables(vf.elements, points).reshape(-1, len(vf.elements)) @ vf.coefficients
                     if isinstance(vf, CombinationVectorField) else _element_table((vf,), points).ravel()
                     for vf in fields], axis=-1).reshape(len(points), 6, -1)


def _element_table(elements, points):
    """The read-only (m, 6, A) table of a tuple of elements, found in or kept in ``RESULTS``,
    which keeps only the tables of elements of one class on one manifold."""

    def compute():
        first = elements[0]
        if any(type(el) is not type(first) or el.manifold is not first.manifold for el in elements):
            raise ValueError("field_tables takes fields of one class on one manifold")
        return type(first)._tables(elements, points)

    return RESULTS.get(("field_tables", elements, points.shape, points.tobytes()), compute)


def sphere_rotation_generators(sphere):
    """The three Killing fields p x e_k of the round metric, cyclic so(3) brackets."""
    units = np.eye(3, dtype=int)
    cross = np.cross(units[:, None], units)   # e_l x e_k at [l, k]
    return [SpherePolyVectorField(sphere, {tuple(u): c for u, c in zip(units, cross[:, k])})
            for k in range(3)]


def sphere_gradient_generators(sphere):
    """The fields R e_k - (p.e_k) p / R, R^2 times the gradients of the heights p_k / R:
    with the rotations they span the conformal algebra."""
    return [SpherePolyVectorField(sphere, {(0, 0, 0): e}) for e in np.eye(3)]


# ---------------------------------------------------------------------------
# diffeomorphisms


class TorusTranslation:
    """x -> x + shift on a flat torus; an (n,) point or an (m, n) batch."""

    def __init__(self, torus, shift):
        self.manifold = torus
        self.shift = np.asarray(shift, dtype=float)

    def apply(self, x):
        return self.manifold.wrap(np.asarray(x, dtype=float) + self.shift)

    def differential(self, x):
        dim = self.manifold.dim
        return np.broadcast_to(np.eye(dim), np.shape(x)[:-1] + (dim, dim))


# (t, x, y, z) as the Hermitian matrix t + x s_1 + y s_2 + z s_3 for the basis s_a below,
# which is (t - z) (zeta, 1)(zeta, 1)^H on the null cone, zeta = (x + i y) / (t - z)
_SPIN_BASIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]], [[1, 0], [0, -1]]],
                       dtype=complex)
_MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])


class MobiusMap:
    """The conformal map of an orthochronous Lorentz matrix L acting on the null cone.

    A point p is the null ray of (R, p), and its image is R q / t for
    (t, q) = L (R, p).  ``rotation``, ``translation`` and ``scaling`` act on
    the stereographic coordinate z = R (p1 + i p2) / (R - p3) as a rotation,
    z -> z + b and z -> s z: a spin matrix M acting on (z / R, 1) acts on the
    null vectors through L_ab = tr(S_a M S_b M^H) / 2 (Penrose and Rindler,
    Spinors and Space-Time, vol. 1, ch. 1).  ``apply`` and ``differential``
    take one (3,) point or an (m, 3) batch, and no point is singular.
    """

    def __init__(self, sphere, lorentz):
        self.manifold = sphere
        self.lorentz = np.asarray(lorentz, dtype=float)
        # L^T eta L = eta up to round-off in the entries of L, which grow with the boost
        drift = np.max(np.abs(self.lorentz.T @ _MINKOWSKI @ self.lorentz - _MINKOWSKI))
        if not (self.lorentz[0, 0] > 0.0 and drift <= 1e-10 * np.sum(self.lorentz**2)):
            raise ValueError("not an orthochronous Lorentz matrix")

    @classmethod
    def _spin(cls, sphere, matrix):
        """The map z / R -> (a z / R + b) / (c z / R + d) of matrix [[a, b], [c, d]]."""
        spin = np.asarray(matrix, dtype=complex)
        spin = spin / np.sqrt(np.linalg.det(spin))
        lorentz = 0.5 * np.einsum("aij,jk,bkl,li->ab", _SPIN_BASIS, spin, _SPIN_BASIS, spin.conj().T)
        return cls(sphere, lorentz.real)

    @classmethod
    def rotation(cls, sphere, axis, angle):
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        generator = np.tensordot(axis, _SPIN_BASIS[1:], axes=1)
        return cls._spin(sphere, np.cos(angle / 2.0) * np.eye(2) + 1j * np.sin(angle / 2.0) * generator)

    @classmethod
    def translation(cls, sphere, b):
        return cls._spin(sphere, [[1.0, complex(b) / sphere.radius], [0.0, 1.0]])

    @classmethod
    def scaling(cls, sphere, s):
        return cls._spin(sphere, [[complex(s), 0.0], [0.0, 1.0]])

    def _null_images(self, points):
        """(t, q) = L (1, p / R): the image direction is q / t."""
        unit = np.asarray(points, dtype=float) / self.manifold.radius
        tq = self.lorentz[:, 0] + unit @ self.lorentz[:, 1:].T
        return tq[..., :1], tq[..., 1:]

    def apply(self, points):
        t, q = self._null_images(points)
        return self.manifold.radius * q / t

    def differential(self, points):
        """E(f(p))^T Df E(p), from the ambient Df = (L_qq - (q / t) L_tq) / t of f(p) = R q / t,
        where L_qq is the spatial block of L and L_tq its first row past L_tt."""
        t, q = self._null_images(points)
        image = q / t
        df = (self.lorentz[1:, 1:] - image[..., :, None] * self.lorentz[0, 1:]) / t[..., None]
        frames = self.manifold.frame
        return np.swapaxes(frames(self.manifold.radius * image), -1, -2) @ df @ frames(points)


# ---------------------------------------------------------------------------
# Finsler fields


class FinslerField:
    """Assignment of a Minkowski norm to each tangent space, in coordinates or in a frame.

    A solvable field implements one batched rule, ``jets``: F (m,), dF/dx and dF/dy (m, n)
    over a batch of points and an (m, n) array of directions, which the solver and
    ``lie_derivative`` read.  ``evals`` is its first entry and ``eval`` the one-point form.
    An evaluation-only field implements ``evals`` alone, and its ``jets`` raises.
    """

    manifold = None

    def jets(self, points, ys):
        """(F, dF/dx, dF/dy) over a batch: (m,), (m, n) and (m, n)."""
        raise NotImplementedError(f"{type(self).__name__} has no x-derivatives")

    def evals(self, points, ys):
        return self.jets(points, ys)[0]

    def eval(self, pt, y):
        return float(self.evals(pt, y)[0])

    def norm_at(self, pt):
        raise NotImplementedError


class ConstantNormField(FinslerField):
    """The same Minkowski norm on every tangent space of a flat torus.

    On the sphere the frame turns, and jumps across the equator, so only a
    multiple of the Euclidean norm is a continuous metric there
    (``RoundSphereField``); any other norm raises InvalidSettings.
    """

    def __init__(self, torus, norm):
        if norm.dim != torus.dim:
            raise InvalidSettings(f"the norm has dimension {norm.dim} and the manifold {torus.dim}")
        if isinstance(torus, Sphere2):
            angles = np.arange(16) * (np.pi / 8.0)
            values = norm(np.stack([np.cos(angles), np.sin(angles)], axis=-1))
            if np.ptp(values) > RANK_TOL * np.max(values):
                raise InvalidSettings("a sphere's constant norm must be a multiple of the "
                                      "Euclidean one")
        self.manifold = torus
        self.norm = norm

    def jets(self, points, ys):
        ys = stack_points(ys)
        return self.norm(ys), np.zeros((len(ys), self.manifold.dim)), self.norm.gradient_batch(ys)

    def norm_at(self, pt):
        return self.norm


class RoundSphereField(ConstantNormField):
    """The round metric of a 2-sphere: the Euclidean norm in the orthonormal frame."""

    def __init__(self, sphere):
        super().__init__(sphere, EuclideanNorm(np.eye(2)))


class ConformalRescaleField(FinslerField):
    """rho(x) * F(x, y) for a positive scalar field rho."""

    def __init__(self, base, rho):
        self.manifold = base.manifold
        self.base = base
        self.rho = rho

    def jets(self, points, ys):
        """d(rho F)/dx = F grad rho + rho dF/dx and d(rho F)/dy = rho dF/dy, rho's jets once."""
        rho, (evals, grads_x, grads_y) = self.rho.jets(points), self.base.jets(points, ys)
        return rho[:, 0] * evals, rho[:, 1:] * evals[:, None] + rho[:, :1] * grads_x, rho[:, :1] * grads_y

    def norm_at(self, pt):
        return scale_norm(self.base.norm_at(pt), self.rho.values(pt)[0])


class CircleNormField(FinslerField):
    """F(x, y) = p(x) y for y >= 0 and q(x) |y| for y < 0 on a 1-torus, p and q Fourier scalars."""

    def __init__(self, circle, forward, backward):
        if circle.dim != 1:
            raise InvalidSettings(f"a circle field lives on a 1-torus, got dimension {circle.dim}")
        self.manifold = circle
        self.forward = forward
        self.backward = backward

    def evals(self, points, ys):
        y = stack_points(ys)[:, 0]
        return np.where(y >= 0.0, self.forward.values(points) * y, self.backward.values(points) * -y)

    def ratio(self, points):
        """max(F(x, +1)/F(x, -1), F(x, -1)/F(x, +1)) over an (m, 1) batch."""
        plus, minus = self.forward.values(points), self.backward.values(points)
        return np.maximum(plus / minus, minus / plus)

    def norm_at(self, pt):
        """The Randers norm ((p + q)/2) |y| + ((p - q)/2) y, admissible exactly when p, q > 0."""
        p, q = self.forward.values(pt)[0], self.backward.values(pt)[0]
        return RandersNorm([[(0.5 * (p + q)) ** 2]], [0.5 * (p - q)])


def pull_norm(norm, jac):
    """The norm y -> F(J y), staying in closed form for the built-in families."""
    jac = np.asarray(jac, dtype=float)
    if isinstance(norm, EuclideanNorm):
        return EuclideanNorm(jac.T @ norm.matrix @ jac)
    if isinstance(norm, RandersNorm):
        return RandersNorm(jac.T @ norm.a @ jac, jac.T @ norm.b)
    return GenericNorm(norm.dim, lambda ys: norm(ys @ jac.T))


class PullbackField(FinslerField):
    """(f^*F)(x, y) = F(f(x), df(x) y) for a built-in diffeomorphism f."""

    def __init__(self, base, diffeo):
        self.manifold = base.manifold
        self.base = base
        self.diffeo = diffeo

    def evals(self, points, ys):
        points = stack_points(points)
        pushed = np.einsum("mij,mj->mi", self.diffeo.differential(points), stack_points(ys))
        return self.base.evals(self.diffeo.apply(points), pushed)

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
        return average(self.source.norm_at(pt), self.resolution).matrix

    def norm_at(self, pt):
        return EuclideanNorm(self.matrix_at(pt))

    def evals(self, points, ys):
        """sqrt(y^T G(x) y) over a batch, with ``matrix_at`` called once per distinct point."""
        points, ys = stack_points(points), stack_points(ys)
        seen = {}
        first = [seen.setdefault(point.tobytes(), i) for i, point in enumerate(points)]
        mats = {i: self.matrix_at(points[i]) for i in seen.values()}
        products = np.einsum("mij,mj->mi", np.array([mats[i] for i in first]), ys)
        return np.sqrt(np.einsum("mi,mi->m", products, ys))


# ---------------------------------------------------------------------------
# operations


def lie_derivative(field, vector_field, points, ys):
    """(L_V F)(x, y) through the complete lift of V, as an (m,) array over a batch.

    Equals V^i dF/dx^i + y^j (dV^i/dx^j) dF/dy^i; the x-derivatives of F are
    analytic for every solvable field kind.  On the sphere every term is read
    in the frame, where the frame's own turning along V would add a rotation
    of y, which a norm isotropic in the frame (every sphere field here) ignores.
    """
    ys = checked_vectors(ys, 1e-12)
    points = stack_points(points)
    jets = field_tables([vector_field], points)[..., 0]
    _, grads_x, grads_y = field.jets(points, ys)
    return (np.einsum("mi,mi->m", jets[:, :2], grads_x)
            + np.einsum("mij,mj,mi->m", jets[:, 2:].reshape(-1, 2, 2), ys, grads_y))


def sample_points(manifold, count, seed=0):
    """Deterministic sample points for residual sweeps."""
    if isinstance(manifold, FlatTorus):
        return np.random.default_rng(seed).uniform(size=(count, manifold.dim)) @ manifold.lattice.T
    if isinstance(manifold, Sphere2):
        return manifold.fibonacci_points(count)
    raise ValueError(f"unsupported manifold {manifold!r}")


# Largest spread of the reversibility ratio that still counts as constant, over a grid of
# this many points.
LAMBDA_TOL = 1e-10
LAMBDA_GRID = 256


@dataclass
class LambdaProfile:
    xs: np.ndarray
    values: np.ndarray
    spread: float
    constant: bool


def circle_lambda_profile(field):
    """Reversibility ratio on a grid of (LAMBDA_GRID, 1) points and a constancy flag (spread
    <= LAMBDA_TOL)."""
    if not isinstance(field, CircleNormField):
        raise ValueError("lambda profile is defined for circle fields")
    xs = field.manifold.grid_points(LAMBDA_GRID, offset=(0.0,))
    values = field.ratio(xs)
    spread = float(values.max() - values.min())
    return LambdaProfile(xs=xs, values=values, spread=spread, constant=spread <= LAMBDA_TOL)
