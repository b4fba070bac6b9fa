"""One batched path for norm derivatives: one-point forms, fallbacks and input checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslerfields.averaging import average
from finslerfields.errors import DegenerateVector
from finslerfields.manifold import pull_norm
from finslerfields.norm_core import (
    HESSIAN_FD_STEP,
    EuclideanNorm,
    GenericNorm,
    RandersNorm,
    central_hessian,
    check_axioms,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _unit(theta):
    return np.array([np.cos(theta), np.sin(theta)])


angles = st.floats(0.0, 2.0 * np.pi)


@st.composite
def randers_norms(draw):
    """SPD a with eigenvalues in [0.1, 10] and a drift of a-dual norm <= 0.9."""
    rot = _rotation(draw(angles))
    lams = np.array([draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))])
    a = rot @ np.diag(lams) @ rot.T
    b = draw(st.floats(0.0, 0.9)) * (rot @ np.diag(np.sqrt(lams)) @ rot.T) @ _unit(draw(angles))
    return RandersNorm(0.5 * (a + a.T), b)


@st.composite
def nonzero_vectors(draw, count=3):
    return np.array([10.0 ** draw(st.floats(-3.0, 3.0)) * _unit(draw(angles))
                     for _ in range(count)])


def _families(randers):
    return [EuclideanNorm(randers.a), randers, GenericNorm(2, randers)]


def _reference_tensors(norm, ys):
    """Central-difference Hessians of F^2/2 at HESSIAN_FD_STEP |y|, as GenericNorm takes them."""
    ys = np.asarray(ys, dtype=float)
    return central_hessian(lambda v: 0.5 * norm(v) ** 2, ys,
                           HESSIAN_FD_STEP * np.linalg.norm(ys, axis=1))


@PROPERTY
@given(randers_norms(), nonzero_vectors())
def test_one_point_forms_are_row_zero_of_the_batch(randers, ys):
    for norm in _families(randers):
        np.testing.assert_array_equal(norm._tensor_matrix_any(ys[0]), norm.tensor_batch(ys)[0])


@PROPERTY
@given(randers_norms(), nonzero_vectors())
def test_finite_difference_tensor_matches_closed_form(randers, ys):
    # at HESSIAN_FD_STEP, central differences stay within 1e-6 of the closed
    # form; the derivative-free GenericNorm takes them
    euclid, _, generic = _families(randers)
    pairs = [(_reference_tensors(euclid, ys), euclid.tensor_batch(ys)),
             (_reference_tensors(randers, ys), randers.tensor_batch(ys)),
             (generic.tensor_batch(ys), randers.tensor_batch(ys))]
    for fd, analytic in pairs:
        scale = np.max(np.abs(analytic), axis=(1, 2))[:, None, None]
        assert np.all(np.abs(fd - analytic) <= 1e-6 * scale)


@PROPERTY
@given(randers_norms(), nonzero_vectors())
def test_euler_identity(randers, ys):
    for norm in _families(randers)[:2]:
        g = norm.tensor_batch(ys)
        np.testing.assert_allclose(np.einsum("mi,mij,mj->m", ys, g, ys), norm(ys) ** 2, rtol=1e-10)


def all_families():
    randers = RandersNorm(np.array([[1.3, 0.2], [0.2, 0.9]]), [0.2, -0.3])
    return _families(randers)


FAMILY_IDS = ["euclidean", "randers", "generic"]


@pytest.mark.parametrize("norm", all_families(), ids=FAMILY_IDS)
def test_closed_form_or_reference_differences_on_every_path(norm):
    # the derivative-free GenericNorm has no closed form and takes the reference
    y = np.array([0.6, -1.7])
    closed = norm._tensors(y[None])
    expected = _reference_tensors(norm, [y])[0] if closed is None else closed[0]
    np.testing.assert_array_equal(norm.tensor_batch([y])[0], expected)
    np.testing.assert_array_equal(norm._tensor_matrix_any(y), expected)
    np.testing.assert_array_equal(norm.fundamental_tensor(y), expected)


@pytest.mark.parametrize("norm", all_families(), ids=FAMILY_IDS)
def test_zero_vector_rejected_on_every_path(norm):
    for call in (lambda: norm.gradient_batch([[0.0, 0.0]]),
                 lambda: norm.gradient_batch([[1.0, 0.0], [0.0, 0.0]]),
                 lambda: norm.tensor_batch([[0.0, 0.0]]),
                 lambda: norm.fundamental_tensor([0.0, 0.0])):
        with pytest.raises(DegenerateVector):
            call()


@pytest.mark.parametrize("norm", all_families(), ids=FAMILY_IDS)
def test_non_finite_and_misshapen_input_rejected_on_every_path(norm):
    for call in (lambda: norm.tensor_batch([[np.nan, 0.0]]),
                 lambda: norm._tensor_matrix_any([np.inf, 0.0]),
                 lambda: norm.gradient_batch([[1.0, np.nan]]),
                 lambda: norm.gradient_batch([[np.nan, 1.0]]),
                 lambda: norm.gradient_batch([1.0, 0.0]),
                 lambda: norm.tensor_batch([[1.0, 0.0, 0.0]])):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("func", [lambda y: 1.0, lambda y: (y[0] ** 4 + y[1] ** 4) ** 0.25],
                         ids=["scalar", "one-vector"])
def test_misshapen_callable_output_rejected_on_every_path(func):
    # a callable that does not map (m, dim) rows to (m,) values fails loudly
    norm = GenericNorm(2, func)
    ys = np.array([[1.0, 0.0], [0.3, 0.8], [-0.5, 0.2]])
    for call in (lambda: norm(ys),
                 lambda: norm.gradient_batch(ys),
                 lambda: norm.tensor_batch(ys),
                 lambda: average(norm, 64)):
        with pytest.raises(ValueError, match="returned shape"):
            call()


def test_pulled_generic_norm_evaluates_batches():
    randers = all_families()[1]
    jac = np.array([[1.2, 0.3], [-0.4, 0.8]])
    ys = np.array([[1.0, 0.0], [0.3, 0.8], [-0.5, 0.2], [0.0, -2.0]])
    pulled = pull_norm(GenericNorm(2, randers), jac)
    np.testing.assert_allclose(pulled(ys), [float(randers(jac @ y)) for y in ys], rtol=1e-14)


def _counted_randers():
    """A row-wise Randers callable that records the size of each batch it is given."""
    calls = []

    def func(ys):
        calls.append(len(ys))
        x, y = ys[:, 0], ys[:, 1]
        return np.sqrt(1.3 * x * x + 0.4 * x * y + 0.9 * y * y) + 0.2 * x - 0.3 * y

    return GenericNorm(2, func), calls


@pytest.mark.parametrize("m", [1, 50])
def test_stencil_is_one_call(m):
    norm, calls = _counted_randers()
    thetas = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    ys = np.logspace(-2, 2, m)[:, None] * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    # one call on the whole stencil: 2n points per row for gradients, 1 + 2n^2 for tensors
    for evaluate, points in ((norm.gradient_batch, 4),
                             (norm.tensor_batch, 9)):
        calls.clear()
        batch = evaluate(ys)
        assert calls == [m * points]
        for i in range(m):
            np.testing.assert_array_equal(evaluate(ys[i:i + 1])[0], batch[i])


def test_failed_tensor_evaluation_fails_convexity():
    # the supplied Hessian has the wrong shape, so every tensor evaluation fails
    randers = RandersNorm(np.eye(2), [0.5, 0])
    norm = GenericNorm(2, randers, randers.gradient_batch, lambda ys: np.zeros(len(ys)))
    report = check_axioms(norm, samples=5)
    assert not report.convexity_pass
    assert not report.passed
    assert np.isnan(report.min_tensor_eigenvalue)
    assert any("tensor evaluation failed" in f for f in report.failures)


@pytest.mark.parametrize("norm", all_families()[1:], ids=FAMILY_IDS[1:])
def test_check_axioms_matches_per_direction_loop(norm):
    report = check_axioms(norm, samples=20, seed=4)
    rng = np.random.default_rng(4)
    dirs = rng.standard_normal((20, 2))
    dirs = np.vstack([np.eye(2), -np.eye(2), dirs / np.linalg.norm(dirs, axis=1)[:, None]])
    eigs = np.array([np.linalg.eigvalsh(norm.fundamental_tensor(d)) for d in dirs])
    assert report.min_norm == pytest.approx(min(float(norm(d)) for d in dirs), rel=1e-14)
    assert report.min_tensor_eigenvalue == pytest.approx(eigs[:, 0].min(), rel=1e-12)
    assert report.max_tensor_eigenvalue == pytest.approx(eigs[:, -1].max(), rel=1e-12)
