"""Minkowski norms on R^n: evaluation, derivatives, and convexity diagnostics.

A Minkowski norm is positive away from the origin, positively 1-homogeneous,
and strongly convex in the sense that the Hessian of F^2/2 is positive
definite at every nonzero vector.  Three families are provided: Euclidean
norms sqrt(y^T Q y), Randers norms sqrt(y^T a y) + b.y, and a generic wrapper
around a user-supplied batched callable with optional analytic derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvexityViolation, DegenerateVector, InadmissibleNorm, InvalidSettings

DEGENERATE_FLOOR = 1e-8
# Central-difference steps relative to |y|.  Second differences carry about
# 4 eps / step**2 of roundoff, so Hessians take a step near eps**(1/4)
# rather than the gradients' step.
GRADIENT_FD_STEP = 1e-5
HESSIAN_FD_STEP = 1e-4
# Axiom gates: smallest tensor eigenvalue over the largest, relative
# homogeneity residual, and smallest sampled value of F.
PD_RATIO = 1e-8
HOMOGENEITY_TOL = 1e-10
POSITIVITY_FLOOR = 1e-12


def _check_spd(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidSettings(f"{name} must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-10 * scale:
        raise InvalidSettings(f"{name} must be symmetric")
    mat = 0.5 * (mat + mat.T)
    if np.linalg.eigvalsh(mat)[0] <= 0.0:
        raise InvalidSettings(f"{name} must be positive definite")
    return mat


def checked_vectors(ys, floor):
    """A vector or an (m, n) batch as an (m, n) array; non-finite entries raise ValueError,
    and a vector shorter than ``floor`` raises DegenerateVector."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if not np.all(np.isfinite(ys)):
        raise ValueError("vector has non-finite entries")
    lengths = np.linalg.norm(ys, axis=-1)
    if np.any(lengths < floor):
        raise DegenerateVector(f"|y| = {lengths.min():.3e} below floor {floor:.0e}")
    return ys


def _quadratic_norm(y, mat):
    """sqrt(y^T mat y) over the last axis, with the same arithmetic for every batch size."""
    return np.sqrt(np.maximum(np.einsum("...i,...i->...", y @ mat, y), 0.0))


def _on_stencil(func, ys, steps, offsets):
    """func at ys + steps * offsets as an (m, k) array, from one call on all m * k points."""
    ys = np.asarray(ys, dtype=float)
    points = ys[:, None, :] + np.asarray(steps, dtype=float)[:, None, None] * offsets
    return np.asarray(func(points.reshape(-1, ys.shape[1])), dtype=float).reshape(len(ys), -1)


def central_gradient(func, ys, steps):
    """Second-order central difference gradients of a batched scalar function.

    ``func`` maps an (M, n) array to (M,) values; ``ys`` is an (m, n) batch and
    ``steps`` its (m,) steps.  The whole (m, 2n, n) stencil y +- step e_i is one call.
    """
    eye = np.eye(np.shape(ys)[1])
    plus, minus = np.split(_on_stencil(func, ys, steps, np.vstack([eye, -eye])), 2, axis=1)
    return (plus - minus) / (2.0 * np.asarray(steps)[:, None])


def central_hessian(func, ys, steps):
    """Second-order central difference Hessians of a batched scalar function.

    Arguments as for ``central_gradient``; the (m, 1 + 2n^2, n) stencil holds
    y, y +- e_i and y +- (e_i +- e_j)/2 (steps times unit vectors) and is one call.
    """
    n = np.shape(ys)[1]
    eye = np.eye(n)
    iu, ju = np.triu_indices(n, 1)
    plus, minus = eye[iu] + eye[ju], eye[iu] - eye[ju]
    cross = 0.5 * np.stack([plus, minus, -minus, -plus], axis=1).reshape(-1, n)
    vals = _on_stencil(func, ys, steps, np.vstack([np.zeros((1, n)), eye, -eye, cross]))
    h2 = (np.asarray(steps) ** 2)[:, None]
    f0, fp, fm, pairs = np.split(vals, [1, n + 1, 2 * n + 1], axis=1)
    pp, pm, mp, mm = (pairs[:, k::4] for k in range(4))
    hess = np.empty((len(vals), n, n))
    hess[:, np.arange(n), np.arange(n)] = (fp - 2.0 * f0 + fm) / h2
    hess[:, iu, ju] = hess[:, ju, iu] = (pp - pm - mp + mm) / h2
    return hess


def _shaped(values, shape, name):
    """values as a float array of the given shape, or ValueError naming the callable."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{name} returned shape {values.shape}, expected {shape}")
    return values


@dataclass(frozen=True)
class FundamentalTensor:
    """Hessian inner product of F^2/2 at a fixed nonzero base vector."""

    base: np.ndarray
    matrix: np.ndarray

    def inner(self, u, v=None):
        u = np.asarray(u, dtype=float)
        v = u if v is None else np.asarray(v, dtype=float)
        return float(u @ self.matrix @ v)


class MinkowskiNorm:
    """Base interface; concrete families supply ``__call__`` and the batched formulas.

    ``gradient_batch`` and ``tensor_batch`` take an (m, dim) array, check it
    once and hand the rows to the family's ``_gradients`` and ``_tensors``.
    The one-point forms ``_tensor_matrix_any`` and ``fundamental_tensor`` are
    batches of one, kept because the benchmark (``bench/``) wraps them by
    name.  The closed-form families bind both batched entry points as their
    own class attributes, so a tool that patches and later restores a
    family's attributes (``bench/tracing.py``) restores that family instead
    of leaving the base-class patch behind.
    """

    dim: int

    def __call__(self, y):
        raise NotImplementedError

    def _checked(self, ys):
        """ys as an (m, dim) array of finite vectors at or above the degeneracy floor."""
        if np.ndim(ys) != 2 or np.shape(ys)[1] != self.dim:
            raise ValueError(f"expected vectors of length {self.dim}, got shape {np.shape(ys)}")
        return checked_vectors(ys, DEGENERATE_FLOOR)

    def gradient_batch(self, ys):
        """Gradients of F at an (m, dim) batch of nonzero vectors."""
        return self._gradients(self._checked(ys))

    def _gradients(self, ys):
        raise NotImplementedError

    def _tensors(self, ys):
        """Closed-form Hessians of F^2/2 at checked rows, or None without a closed form."""
        return None

    def tensor_batch(self, ys):
        """Hessians of F^2/2 at an (m, dim) batch, without the positive-definiteness gate.

        The family's closed form when it has one, else central differences at
        ``HESSIAN_FD_STEP`` times |y|.
        """
        ys = self._checked(ys)
        mats = self._tensors(ys)
        if mats is None:
            mats = central_hessian(lambda v: 0.5 * self(v) ** 2, ys,
                                   HESSIAN_FD_STEP * np.linalg.norm(ys, axis=1))
        return mats

    def _tensor_matrix_any(self, y):
        """Tensor matrix at one vector without the positive-definiteness gate: a batch of one."""
        return self.tensor_batch(np.asarray(y, dtype=float)[None])[0]

    def fundamental_tensor(self, y):
        """Fundamental tensor at a nonzero base vector y, verified positive definite.

        Raises
        ------
        DegenerateVector
            If |y| is below the degeneracy floor.
        ConvexityViolation
            If the resulting matrix is not positive definite; the offending
            eigenvalue is attached to the exception.
        """
        mat = self._tensor_matrix_any(y)
        mat = 0.5 * (mat + mat.T)
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] <= PD_RATIO * max(abs(eigs[-1]), 1e-300):
            raise ConvexityViolation(eigs[0])
        return FundamentalTensor(base=np.array(y, dtype=float), matrix=mat)

    def to_dict(self):
        raise ValueError("this norm family is not serializable")


class EuclideanNorm(MinkowskiNorm):
    """F(y) = sqrt(y^T Q y) for symmetric positive-definite Q."""

    gradient_batch = MinkowskiNorm.gradient_batch
    tensor_batch = MinkowskiNorm.tensor_batch

    def __init__(self, matrix):
        self.matrix = _check_spd(matrix, "Q")
        self.dim = self.matrix.shape[0]

    def __call__(self, y):
        return _quadratic_norm(np.asarray(y, dtype=float), self.matrix)

    def _gradients(self, ys):
        return (ys @ self.matrix) / self(ys)[:, None]

    def _tensors(self, ys):
        return np.broadcast_to(self.matrix, (len(ys),) + self.matrix.shape).copy()

    def to_dict(self):
        return {"family": "euclidean", "dim": self.dim, "q": self.matrix.tolist()}


class RandersNorm(MinkowskiNorm):
    """F(y) = sqrt(y^T a y) + b.y with the a-dual norm of b strictly below 1."""

    gradient_batch = MinkowskiNorm.gradient_batch
    tensor_batch = MinkowskiNorm.tensor_batch

    def __init__(self, a, b):
        self.a = _check_spd(a, "a")
        self.b = np.asarray(b, dtype=float)
        self.dim = self.a.shape[0]
        if self.b.shape != (self.dim,):
            raise InvalidSettings("b must match the dimension of a")
        dual = float(np.sqrt(self.b @ np.linalg.solve(self.a, self.b)))
        if dual >= 1.0:
            raise InadmissibleNorm(f"a-dual norm of b is {dual:.6f} >= 1")
        self.dual_norm = dual

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        alpha = np.sqrt(np.maximum(np.einsum("...i,ij,...j->...", y, self.a, y), 0.0))
        return alpha + y @ self.b

    def _gradients(self, ys):
        return (ys @ self.a) / _quadratic_norm(ys, self.a)[:, None] + self.b

    def _tensors(self, ys):
        # (F / alpha) (a - l l^T) + grad F grad F^T, with l = a y / alpha the gradient of alpha
        alpha = _quadratic_norm(ys, self.a)
        grad = self._gradients(ys)
        ell = grad - self.b
        core = self.a - ell[:, :, None] * ell[:, None, :]
        fval = alpha + np.einsum("mi,i->m", ys, self.b)
        return (fval / alpha)[:, None, None] * core + grad[:, :, None] * grad[:, None, :]

    def to_dict(self):
        return {"family": "randers", "dim": self.dim, "a": self.a.tolist(), "b": self.b.tolist()}


class GenericNorm(MinkowskiNorm):
    """Norm from a batched callable, with optional analytic gradient and Hessian of F.

    ``func`` maps an (m, dim) array of row vectors to their (m,) values, the
    optional ``grad`` maps it to (m, dim) gradients and ``hess``, the Hessian
    of F, to (m, dim, dim).  A result of another shape raises ``ValueError``.
    Without the derivatives, gradients and tensors are central differences
    that evaluate ``func`` once per batch, on the whole stencil.
    """

    def __init__(self, dim, func, grad=None, hess=None):
        self.dim = int(dim)
        self.func = func
        self.grad = grad
        self.hess = hess

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        rows = y.reshape(-1, self.dim)
        values = _shaped(self.func(rows), (len(rows),), "norm callable").reshape(y.shape[:-1])
        return float(values) if y.ndim == 1 else values

    def _gradients(self, ys):
        if self.grad is None:
            return central_gradient(self, ys, GRADIENT_FD_STEP * np.linalg.norm(ys, axis=1))
        return _shaped(self.grad(ys), ys.shape, "grad")

    def _tensors(self, ys):
        if self.grad is None or self.hess is None:
            return None
        g = self._gradients(ys)
        hess = _shaped(self.hess(ys), ys.shape + (self.dim,), "hess")
        return self(ys)[:, None, None] * hess + g[:, :, None] * g[:, None, :]


def record_keys(record, name, known):
    """record, once it is a dict without a key outside ``known``; else InvalidSettings."""
    if not isinstance(record, dict):
        raise InvalidSettings(f"{name} must be an object, got {type(record).__name__}")
    unknown = sorted(set(record) - set(known))
    if unknown:
        raise InvalidSettings(f"unknown settings {unknown}; known: {sorted(known)}")
    return record


def record_kind(record, name, kinds, key="kind"):
    """record[key], one of ``kinds`` (each mapped to the other keys it takes), once record has no other."""
    kind = record.get(key) if isinstance(record, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise InvalidSettings(f"unsupported {name} {key} {kind!r}; known: {sorted(kinds)}")
    record_keys(record, name, (key, *kinds[kind]))
    return kind


def record_array(record, key, owner="norm record", shape=None):
    """record[key] as a float array of finite numbers (of ``shape`` unless None), else InvalidSettings."""
    try:
        array = np.asarray(record[key])
    except (KeyError, ValueError):  # no entry, or a ragged list
        array = np.asarray(None)
    if array.dtype.kind not in "iuf" or not np.all(np.isfinite(array)) or shape not in (None, array.shape):
        shaped = "" if shape is None else f" of shape {shape}"
        raise InvalidSettings(f"{owner} needs a numeric array {key!r}{shaped}")
    return array.astype(float)


NORM_FAMILIES = {"euclidean": ("dim", "q"), "randers": ("dim", "a", "b")}


def norm_from_dict(data):
    """Rebuild a closed-form norm from its serialized record, checked as ``record_kind`` does;
    a ``dim`` other than that of its matrices raises InvalidSettings."""
    if record_kind(data, "norm record", NORM_FAMILIES, key="family") == "euclidean":
        norm = EuclideanNorm(record_array(data, "q"))
    else:
        norm = RandersNorm(record_array(data, "a"), record_array(data, "b"))
    dim = data.get("dim", norm.dim)
    if type(dim) is not int or dim != norm.dim:
        raise InvalidSettings(f"the norm record has dim {dim!r} and matrices of dimension {norm.dim}")
    return norm


def scale_norm(norm, c):
    """Return the norm c*F, staying inside the closed-form families when possible."""
    c = float(c)
    if c <= 0.0:
        raise ValueError("scale factor must be positive")
    if isinstance(norm, EuclideanNorm):
        return EuclideanNorm(c**2 * norm.matrix)
    if isinstance(norm, RandersNorm):
        return RandersNorm(c**2 * norm.a, c * norm.b)
    hess = getattr(norm, "hess", None)
    return GenericNorm(norm.dim, lambda ys: c * norm(ys), lambda ys: c * norm.gradient_batch(ys),
                       None if hess is None else lambda ys: c * hess(ys))


@dataclass
class AxiomReport:
    """Sampled verification of positivity, homogeneity, and strong convexity.

    The tensor eigenvalues are NaN when the tensor could not be evaluated.
    """

    samples: int
    min_norm: float
    max_homogeneity_residual: float
    min_tensor_eigenvalue: float
    max_tensor_eigenvalue: float
    positivity_pass: bool
    homogeneity_pass: bool
    convexity_pass: bool
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return self.positivity_pass and self.homogeneity_pass and self.convexity_pass


def check_axioms(norm, samples=200, seed=0):
    """Sample directions and report how far the norm is from the axioms.

    Failures are recorded in the report rather than raised, so degenerate
    inputs (e.g. quartic pseudo-norms) can be diagnosed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, norm.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # canonical directions are checked deterministically: degeneracies of
    # non-convex candidates often sit exactly on the axes
    axes = np.vstack([np.eye(norm.dim), -np.eye(norm.dim)])
    dirs = np.vstack([axes, dirs])

    values = np.asarray(norm(dirs), dtype=float)
    min_norm = float(values.min())

    lams = np.array([0.5, 2.0, 7.0])[:, None]
    scaled = np.asarray(norm(lams[:, :, None] * dirs), dtype=float)
    max_resid = float(np.max(np.abs(scaled - lams * values) / np.maximum(lams * values, 1e-300)))

    positivity_pass = min_norm > POSITIVITY_FLOOR
    homogeneity_pass = max_resid <= HOMOGENEITY_TOL
    failures = []
    if not positivity_pass:
        failures.append(f"min F over samples is {min_norm:.3e}")
    if not homogeneity_pass:
        failures.append(f"homogeneity residual {max_resid:.3e}")
    try:
        mats = norm.tensor_batch(dirs)
    except Exception as exc:  # a norm that cannot be differentiated is reported, not raised
        failures.append(f"tensor evaluation failed: {exc}")
        min_eig = max_eig = np.nan
        convexity_pass = False
    else:
        eigs = np.linalg.eigvalsh(0.5 * (mats + mats.transpose(0, 2, 1)))
        min_eig, max_eig = float(eigs[:, 0].min()), float(eigs[:, -1].max())
        convexity_pass = bool(min_eig > PD_RATIO * max(max_eig, 1e-300))
        if not convexity_pass:
            failures.append(f"fundamental tensor eigenvalue {min_eig:.3e} (max {max_eig:.3e})")
    return AxiomReport(
        samples=samples,
        min_norm=min_norm,
        max_homogeneity_residual=max_resid,
        min_tensor_eigenvalue=min_eig,
        max_tensor_eigenvalue=max_eig,
        positivity_pass=positivity_pass,
        homogeneity_pass=homogeneity_pass,
        convexity_pass=convexity_pass,
        failures=failures,
    )


def _golden_max(fn, a, b, iters=90):
    """Golden-section maximization on [a, b]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
    return max(f1, f2)


def fibonacci_directions(count):
    """(count, 3) unit vectors on a Fibonacci spiral from the north pole to the south."""
    i = np.arange(count)
    t = 1.0 - 2.0 * (i + 0.5) / count
    golden = np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    return np.stack([r * np.cos(golden * i), r * np.sin(golden * i), t], axis=1)


def reversibility_sup(norm, resolution=256):
    """Largest ratio F(y)/F(-y) over directions, symmetrized to be >= 1.

    In dimension two the grid maximum is refined by golden-section search;
    higher dimensions use the direction grid alone.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if norm.dim == 1:
        r = float(norm(np.array([1.0]))) / float(norm(np.array([-1.0])))
        return max(r, 1.0 / r)
    if norm.dim == 2:
        def ratio(theta):
            u = np.array([np.cos(theta), np.sin(theta)])
            return float(norm(u)) / float(norm(-u))

        thetas = np.arange(resolution) * (2.0 * np.pi / resolution)
        u = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        k = int(np.argmax(np.asarray(norm(u)) / np.asarray(norm(-u))))
        span = 2.0 * np.pi / resolution
        best = _golden_max(ratio, thetas[k] - span, thetas[k] + span)
        return max(best, 1.0 / best)
    dirs = fibonacci_directions(resolution)
    vals = np.asarray(norm(dirs)) / np.asarray(norm(-dirs))
    return float(max(vals.max(), 1.0 / vals.min()))
