"""The batched evaluation path against per-point references."""

import warnings
from collections import Counter

import numpy as np
import pytest

from finslerfields.conformal_solver import (
    SolverConfig,
    _field_jets,
    assemble_system,
    build_collocation,
    collocation_rows,
    null_space,
    solve_fields,
    sphere_basis,
    torus_basis,
)
from finslerfields import lie_algebra, manifold
from finslerfields.averaging import average
from finslerfields.errors import DegenerateVector, InvalidSettings
from finslerfields.manifold import (
    CombinationVectorField,
    ConformalRescaleField,
    ConstantNormField,
    FlatTorus,
    MobiusMap,
    PointwiseAveragedField,
    PullbackField,
    RoundSphereField,
    Sphere2,
    SpherePolyScalar,
    TorusFourierScalar,
    TorusTranslation,
    lie_derivative,
    stack_points,
)
from finslerfields.norm_core import EuclideanNorm, RandersNorm

# Batched and per-row assembly sum the same terms in a different order, so
# they agree to round-off relative to the largest entry.
ASSEMBLY_RTOL = 1e-12


def reference_assemble(field, basis, collocation):
    """Per-row assembly through the one-point lie_derivative."""
    points, ys = collocation_rows(collocation)
    return np.array([[lie_derivative(field, el, points[i], y)[0] for el in basis.elements]
                     for i, y in enumerate(ys)])


def randers_torus_field(torus):
    return ConstantNormField(torus, RandersNorm(np.eye(2), [0.4, -0.2]))


def _torus_cases():
    torus = FlatTorus(np.array([[1.0, 0.3], [0.0, 1.2]]))
    base = randers_torus_field(torus)
    rho = TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 0.7, 0.2), ((1, 1), 0.0, 0.3)])
    return [
        ("randers torus", base, torus_basis(torus, 1), SolverConfig(x_density=4)),
        ("rescaled randers torus", ConformalRescaleField(base, rho), torus_basis(torus, 1),
         SolverConfig(x_density=4)),
    ]


def _sphere_cases():
    sphere = Sphere2(1.3)
    # 2 + (0.2, -0.1, 0.5).p + 0.3 |p|^2 in q = p / R
    rho = SpherePolyScalar(sphere, {(0, 0, 0): 2.0, (1, 0, 0): 0.26, (0, 1, 0): -0.13, (0, 0, 1): 0.65,
                                    (2, 0, 0): 0.507, (0, 2, 0): 0.507, (0, 0, 2): 0.507})
    config = SolverConfig(sphere_points=16)
    return [
        ("round sphere", RoundSphereField(sphere), sphere_basis(sphere, 2), config),
        ("rescaled sphere", ConformalRescaleField(RoundSphereField(sphere), rho),
         sphere_basis(sphere, 2), config),
    ]


CASES = _torus_cases() + _sphere_cases()


@pytest.mark.parametrize("name,field,basis,config", CASES, ids=[c[0] for c in CASES])
def test_batched_assembly_matches_per_row_reference(name, field, basis, config):
    collocation = build_collocation(basis.manifold, config)
    reference = reference_assemble(field, basis, collocation)
    scale = np.max(np.abs(reference))
    assert scale > 0.0
    batched = assemble_system(field, basis, collocation)
    assert batched.shape == reference.shape
    assert np.max(np.abs(batched - reference)) <= ASSEMBLY_RTOL * scale


EVALUATED = ((manifold.TorusFourierVectorField, ("values", "jacobians")),
             (manifold.SpherePolyVectorField, ("values", "jacobians")),
             (TorusFourierScalar, ("jets",)),
             (SpherePolyScalar, ("jets",)))


@pytest.mark.parametrize("case", [CASES[0], CASES[2]], ids=[CASES[0][0], CASES[2][0]])
def test_assembly_evaluates_each_element_once_per_distinct_point(monkeypatch, case):
    """One stacked evaluation of all elements per assembly, on the P distinct points.

    Torus elements take one ``frac``, sphere elements one tangent frame; no
    scalar is evaluated on its own.
    """
    _, field, basis, config = case
    manifold.RESULTS.clear()
    calls = []

    def counted(original, label, batch):
        def wrapper(*args):
            calls.append((label, len(args[batch])))
            return original(*args)
        return wrapper

    for cls, methods in EVALUATED:
        for meth in methods:
            monkeypatch.setattr(cls, meth, counted(getattr(cls, meth), f"{cls.__name__}.{meth}", 1))
    rule = type(basis.elements[0])
    monkeypatch.setattr(rule, "_tables", staticmethod(counted(rule._tables, "stacked", 1)))
    monkeypatch.setattr(FlatTorus, "frac", counted(FlatTorus.frac, "frac", 1))
    monkeypatch.setattr(Sphere2, "frame", counted(Sphere2.frame, "frame", 1))
    torus = isinstance(basis.manifold, FlatTorus)
    n_points = config.x_density**2 if torus else config.sphere_points
    collocation = build_collocation(basis.manifold, config)
    system = assemble_system(field, basis, collocation)
    assert len(system) == n_points * config.n_directions
    counts = Counter(calls)
    assert counts == {("stacked", n_points): 1, ("frac" if torus else "frame", n_points): 1}


def _reference_tables(basis, points):
    """Element values (m, 2, A) and Jacobians (m, 2, 2, A), element by element.

    Torus elements through their component scalars' jets; sphere elements point by
    point through the ambient field X = R (w - (q.w) q) of q = p / R and its
    full ambient Jacobian, read in the frame.
    """
    if isinstance(basis.manifold, FlatTorus):
        jets = np.stack([np.stack([c.jets(points) for c in el.components], axis=1)
                         for el in basis.elements], axis=-1)   # [m, i, 0 or 1 + j, a]
        return jets[:, :, 0], jets[:, :, 1:]
    sphere = basis.manifold
    values = np.zeros((len(points), 2, basis.n_fields))
    jacobians = np.zeros((len(points), 2, 2, basis.n_fields))
    for i, p in enumerate(points):
        q, frame = p / sphere.radius, sphere.frame(p)
        for a, el in enumerate(basis.elements):
            w = sum(c * np.prod(q ** np.array(e)) for e, c in el.coeffs.items())
            dw = np.column_stack([
                sum(c * e[l] * np.prod(q ** np.maximum(np.array(e) - np.eye(3, dtype=int)[l], 0))
                    for e, c in el.coeffs.items()) for l in range(3)])
            dx = dw - np.outer(q, w + dw.T @ q) - (q @ w) * np.eye(3)
            values[i, :, a] = sphere.radius * frame.T @ (w - (q @ w) * q)
            jacobians[i, :, :, a] = frame.T @ dx @ frame
    return values, jacobians


def _table_cases():
    skewed = FlatTorus(np.array([[1.0, 0.3], [0.0, 1.2]]))
    sphere = Sphere2(1.3)
    return [("torus degree 2", torus_basis(skewed, 2), skewed.grid_points(7)),
            ("sphere degree 2", sphere_basis(sphere, 2), sphere.fibonacci_points(40))]


TABLE_CASES = _table_cases()


@pytest.mark.parametrize("name,basis,points", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_stacked_tables_match_element_by_element(name, basis, points):
    table = manifold.field_tables(basis.elements, points)
    values, jacobians = _reference_tables(basis, points)
    assert table.shape == (len(values), 6, basis.n_fields)
    stacked_jacobians = table[:, 2:].reshape(len(points), 2, 2, -1)
    for stacked, reference in ((table[:, :2], values), (stacked_jacobians, jacobians)):
        assert np.max(np.abs(stacked - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_dictionary_rule_on_a_skewed_lattice():
    """On L = [[1, 0.3], [0, 1.2]] the phase derivatives 2 pi k L^-1 are not those of
    2 pi k L^-T, which the identity lattice would not tell apart."""
    torus = FlatTorus(np.array([[1.0, 0.3], [0.0, 1.2]]))
    elements = torus_basis(torus, 2).elements
    points = torus.grid_points(6)
    table = manifold.field_tables(elements, points)
    step = 1e-6
    for a, el in enumerate(elements):
        for j, shift in enumerate(step * np.eye(2)):
            difference = (el.values(points + shift) - el.values(points - shift)) / (2.0 * step)
            np.testing.assert_allclose(table[:, [2 + j, 4 + j], a], difference, rtol=0, atol=1e-7)
        np.testing.assert_array_equal(table[..., a], manifold.field_tables([el], points)[..., 0])
    coeffs = np.random.default_rng(7).normal(size=len(elements))
    combined = manifold.field_tables([CombinationVectorField(elements, coeffs)], points)[..., 0]
    np.testing.assert_allclose(combined, table @ coeffs, rtol=0,
                               atol=1e-14 * np.max(np.abs(table @ coeffs)))


def _jets_cases():
    torus = FlatTorus(np.array([[1.0, 0.3], [0.0, 1.2]]))
    rho = TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 0.7, 0.2), ((1, 1), 0.0, 0.3)])
    rho2 = TorusFourierScalar(torus, const=1.5, terms=[((0, 1), 0.4, -0.3)])
    randers = randers_torus_field(torus)
    sphere = Sphere2(1.3)
    return [("randers torus", randers, torus.grid_points(5)),
            ("euclidean torus", ConstantNormField(torus, EuclideanNorm([[2.0, 0.3], [0.3, 1.0]])),
             torus.grid_points(5)),
            ("rescaled randers torus", ConformalRescaleField(randers, rho), torus.grid_points(5)),
            # a base with dF/dx != 0
            ("twice rescaled randers torus",
             ConformalRescaleField(ConformalRescaleField(randers, rho), rho2), torus.grid_points(5)),
            ("round sphere", RoundSphereField(sphere), sphere.fibonacci_points(25))]


JETS_CASES = _jets_cases()


@pytest.mark.parametrize("name,field,points", JETS_CASES, ids=[c[0] for c in JETS_CASES])
def test_one_jets_evaluation_equals_the_one_point_norms(name, field, points):
    # F and dF/dy of the batched jets against each point's own norm, norm_at(pt)
    angles = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, len(points))
    ys = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    values, _, grads_y = field.jets(points, ys)
    assert values.shape == (len(points),) and grads_y.shape == ys.shape
    for i, pt in enumerate(points):
        norm = field.norm_at(pt)
        assert values[i] == pytest.approx(norm(ys[i]), rel=1e-13)
        assert values[i] == pytest.approx(field.eval(pt, ys[i]), rel=1e-15)
        np.testing.assert_allclose(grads_y[i], norm.gradient_batch(ys[i:i + 1])[0], rtol=0, atol=1e-13)


@pytest.mark.parametrize("name,field,points", JETS_CASES[:4], ids=[c[0] for c in JETS_CASES[:4]])
def test_torus_jets_match_central_differences(name, field, points):
    # the rescaled fields' jets follow the product rule; differences of evals check it
    points = np.asarray(points, dtype=float)
    angles = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, len(points))
    ys = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    _, grads_x, grads_y = field.jets(points, ys)
    step = 1e-6
    for j, shift in enumerate(step * np.eye(2)):
        fd_x = (field.evals(points + shift, ys) - field.evals(points - shift, ys)) / (2 * step)
        fd_y = (field.evals(points, ys + shift) - field.evals(points, ys - shift)) / (2 * step)
        np.testing.assert_allclose(grads_x[:, j], fd_x, rtol=0, atol=1e-7)
        np.testing.assert_allclose(grads_y[:, j], fd_y, rtol=0, atol=1e-7)


@pytest.mark.parametrize("offset_points", [False, True])
@pytest.mark.parametrize("name,field,basis,config", CASES, ids=[c[0] for c in CASES])
def test_jets_taken_apart_equal_the_row_aligned_jets(name, field, basis, config, offset_points):
    # the P points against the D directions, broadcast, give the P D rows' jets bit for bit,
    # with a leading axis of 1 where they do not depend on the point
    points, fan = collocation = build_collocation(basis.manifold, config, offset_points)
    row_points, ys = collocation_rows(collocation)
    rows = field.jets(row_points, ys)
    apart = field.jets(points[:, None], fan[None])
    assert len(apart[0]) == (1 if isinstance(field, ConstantNormField) else len(points))
    for part, row_part in zip(apart, rows):
        np.testing.assert_array_equal(np.broadcast_to(part, (len(points),) + part.shape[1:]).reshape(
            row_part.shape), row_part)
    field_jets, evals = _field_jets(field, points, fan)
    expected = np.hstack([rows[1], (rows[2][:, :, None] * ys[:, None, :]).reshape(-1, 4)]) / rows[0][:, None]
    np.testing.assert_array_equal(np.broadcast_to(field_jets, (len(points), len(fan), 6)).reshape(-1, 6),
                                  expected)


@pytest.mark.parametrize("name,field,basis,config", [CASES[1], CASES[3]], ids=[CASES[1][0], CASES[3][0]])
def test_a_solve_evaluates_the_norm_on_the_fans_and_rho_on_the_points(monkeypatch, name, field, basis,
                                                                        config):
    # P + D evaluations per collocation in place of P D: the norm on the fit and verification
    # fans alone, and rho on the fit and verification points alone
    calls = []
    for owner, method in ((type(field.base.norm), "gradient_batch"), (type(field.rho), "jets")):
        def counted(self, batch, original=getattr(owner, method), method=method):
            calls.append((method, len(batch)))
            return original(self, batch)
        monkeypatch.setattr(owner, method, counted)
    solve_fields(field, basis, "killing", config)
    fit, verification = (build_collocation(basis.manifold, config, offset) for offset in (False, True))
    assert sorted(calls) == sorted([("gradient_batch", config.n_directions)] * 2
                                   + [("jets", len(fit[0])), ("jets", len(verification[0]))])


def test_sphere_collocation_covers_both_hemispheres_on_the_sphere():
    _, _, basis, config = _sphere_cases()[0]
    points, _ = build_collocation(basis.manifold, config)
    np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.3, rtol=1e-15)
    assert points[:, 2].min() < -1.2 and points[:, 2].max() > 1.2


def test_rescaled_torus_has_nonzero_grad_x():
    _, field, basis, config = _torus_cases()[1]
    points, fan = build_collocation(basis.manifold, config)
    assert np.linalg.norm(field.jets(points[:1], fan[:1])[1][0]) > 0.1


def reference_collocation(manifold, config, offset_points=False):
    """The per-point collocation loop: every point takes the one fan of equal angles, from
    0.2141 turned by ``seed`` golden angles, and by half a step more on the offset points."""
    if isinstance(manifold, FlatTorus):
        shift = (0.31, 0.47) if not offset_points else (0.11, 0.79)
        points = manifold.grid_points(config.x_density, offset=shift)
    else:
        count = config.sphere_points if not offset_points else config.sphere_points + 37
        points = manifold.fibonacci_points(count)
    step = 2.0 * np.pi / config.n_directions
    base = np.mod(0.2141 + config.seed * np.pi * (3.0 - np.sqrt(5.0)), step)
    if offset_points:
        base += step / 2.0
    index, ys = [], []
    for i in range(len(points)):
        for j in range(config.n_directions):
            angle = base + j * step
            index.append(i)
            ys.append([np.cos(angle), np.sin(angle)])
    return points[np.array(index)], np.array(ys)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("offset_points", [False, True])
@pytest.mark.parametrize("manifold", [FlatTorus(np.array([[1.0, 0.3], [0.0, 1.2]])), Sphere2(1.3)],
                         ids=["torus", "sphere"])
def test_collocation_batch_equals_the_per_point_loop(manifold, offset_points, seed):
    config = SolverConfig(x_density=5, sphere_points=40, n_directions=7, seed=seed)
    collocation = build_collocation(manifold, config, offset_points)
    assert collocation[1].shape == (7, 2)
    points, ys = collocation_rows(collocation)
    expected_points, expected_ys = reference_collocation(manifold, config, offset_points)
    assert ys.shape == (len(points), 2) == (len(expected_ys), 2)
    np.testing.assert_array_equal(ys, expected_ys)
    np.testing.assert_array_equal(points, expected_points)


def _basis_cases():
    torus = FlatTorus()
    sphere = Sphere2(0.8)
    torus_points = stack_points(torus.grid_points(5))
    sphere_points = np.vstack([[0.0, 0.0, 0.8], [0.0, 0.0, -0.8], sphere.fibonacci_points(30)])
    t_basis, s_basis = torus_basis(torus, 2), sphere_basis(sphere, 2)
    rng = np.random.default_rng(3)
    return [
        ("torus elements", t_basis.elements, torus_points),
        ("sphere elements", s_basis.elements, sphere_points),
        ("torus combination", [t_basis.combination(rng.standard_normal(t_basis.n_fields))],
         torus_points),
        ("sphere combination", [s_basis.combination(rng.standard_normal(s_basis.n_fields))],
         sphere_points),
    ]


BASIS_CASES = _basis_cases()


@pytest.mark.parametrize("name,fields,points", BASIS_CASES, ids=[c[0] for c in BASIS_CASES])
def test_batched_vector_fields_match_one_point_calls(name, fields, points):
    m = len(points)
    for vf in fields:
        values, jacobians = vf.values(points), vf.jacobians(points)
        assert values.shape == (m, 2) and jacobians.shape == (m, 2, 2)
        for i in range(m):
            pt = points[i]
            np.testing.assert_allclose(values[i], vf.value(pt), rtol=0, atol=1e-13)
            np.testing.assert_allclose(jacobians[i], vf.jacobian(pt), rtol=0, atol=1e-12)


def test_batched_scalars_match_one_point_calls():
    # the value and gradient columns of one jets call are the one-point calls; on the tori the
    # gradients are central differences of the values, and a repeated mode adds its coefficients
    sphere = Sphere2(1.7)
    circle, skewed = FlatTorus([[2.0]]), FlatTorus(np.array([[1.0, 0.3], [0.0, 1.2]]))
    torus3 = FlatTorus(np.array([[1.0, 0.2, 0.0], [0.0, 1.1, 0.3], [0.1, 0.0, 0.9]]))
    r2 = 1.7**2   # 1 + (0.1, 0.2, 0.3).p + (p1 + p2 + p3)^2 in q = p / R
    sphere_rho = SpherePolyScalar(sphere, {
        (0, 0, 0): 1.0, (1, 0, 0): 0.17, (0, 1, 0): 0.34, (0, 0, 1): 0.51, (2, 0, 0): r2,
        (0, 2, 0): r2, (0, 0, 2): r2, (1, 1, 0): 2 * r2, (1, 0, 1): 2 * r2, (0, 1, 1): 2 * r2})
    tori = [
        TorusFourierScalar(FlatTorus(), const=3.0),
        TorusFourierScalar(circle, const=2.0, terms=[((1,), 0.0, 1.0), ((3,), 0.2, -0.1)]),
        TorusFourierScalar(skewed, const=0.5, terms=[((2, -1), 0.3, 0.4), ((1, 1), -0.2, 0.1)]),
        TorusFourierScalar(torus3, const=1.0, terms=[((1, 0, -2), 0.3, 0.4), ((0, 1, 1), 0.1, -0.2)]),
    ]
    cases = [(sphere_rho, stack_points(sphere.fibonacci_points(20)))]
    cases += [(scalar, scalar.torus.sample(16, seed=5)) for scalar in tori]
    for scalar, pts in cases:
        jets = scalar.jets(pts)
        assert jets.shape == (len(pts), 1 + len(pts[0]) - (scalar is sphere_rho))
        np.testing.assert_array_equal(scalar.values(pts), jets[:, 0])
        np.testing.assert_array_equal(scalar.grads(pts), jets[:, 1:])
        for i, pt in enumerate(pts):
            assert jets[i, 0] == pytest.approx(scalar.value(pt), abs=1e-13)
            np.testing.assert_allclose(jets[i, 1:], scalar.grads(pt[None])[0], rtol=0, atol=1e-13)
    step = 1e-6
    for scalar in tori:
        pts = scalar.torus.sample(16, seed=6)
        for j, shift in enumerate(step * np.eye(scalar.torus.dim)):
            difference = (scalar.values(pts + shift) - scalar.values(pts - shift)) / (2.0 * step)
            np.testing.assert_allclose(scalar.grads(pts)[:, j], difference, rtol=0, atol=1e-8)
    pts = skewed.sample(16, seed=7)
    repeated = TorusFourierScalar(skewed, const=0.5, terms=[((2, -1), 0.3, 0.4), ((1, 1), -0.2, 0.1),
                                                            ((2, -1), 0.1, -0.3)])
    summed = TorusFourierScalar(skewed, const=0.5, terms=[((1, 1), -0.2, 0.1),
                                                          ((2, -1), 0.3 + 0.1, 0.4 + -0.3)])
    np.testing.assert_array_equal(repeated.jets(pts), summed.jets(pts))


def _pole_batch(sphere):
    """Both poles, then seeded points."""
    rng = np.random.default_rng(2)
    directions = rng.standard_normal((4, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return sphere.radius * np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], directions])


def test_sphere_jacobians_match_finite_differences_along_great_circles():
    # E^T DX E against differences of the ambient field E X, read in the frame at the point,
    # and a cubic scalar's frame gradient E^T grad rho against differences of its values
    sphere = Sphere2(1.3)
    vf = sphere_basis(sphere, 2).combination(np.linspace(-1.0, 1.0, 23))
    rho = SpherePolyScalar(sphere, {(0, 0, 0): 1.0, (1, 0, 0): 0.3, (0, 1, 2): -0.4, (2, 1, 0): 0.2,
                                    (0, 0, 3): 0.5})
    points = _pole_batch(sphere)
    frames = sphere.frame(points)
    h = 1e-6

    def differences(evaluate):
        def moved(a, s):
            return np.cos(s / 1.3) * points + 1.3 * np.sin(s / 1.3) * frames[..., a]
        return np.stack([(evaluate(moved(a, h)) - evaluate(moved(a, -h))) / (2 * h) for a in (0, 1)],
                        axis=-1)

    fd = differences(lambda moved: np.einsum("mia,ma->mi", sphere.frame(moved), vf.values(moved)))
    np.testing.assert_allclose(vf.jacobians(points), np.swapaxes(frames, 1, 2) @ fd, atol=1e-7)
    np.testing.assert_allclose(rho.grads(points), differences(rho.values), atol=1e-8)


def test_sphere_field_without_monomials_is_zero():
    points = _pole_batch(Sphere2(1.0))
    vf = manifold.SpherePolyVectorField(Sphere2(1.0), {})
    np.testing.assert_array_equal(vf.values(points), np.zeros((6, 2)))
    np.testing.assert_array_equal(vf.jacobians(points), np.zeros((6, 2, 2)))


def test_frames_tables_and_jets_are_finite_at_both_poles():
    sphere = Sphere2(1.3)
    points = _pole_batch(sphere)
    basis = sphere_basis(sphere, 2)
    rho = SpherePolyScalar(sphere, {(0, 0, 0): 2.0, (0, 0, 1): 0.65})   # 2 + 0.5 p3
    field = ConformalRescaleField(RoundSphereField(sphere), rho)
    angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False) + 0.3
    fan = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    collocation = (points, fan)
    for table in (sphere.frame(points), manifold.field_tables(basis.elements, points),
                  assemble_system(field, basis, collocation)):
        assert np.all(np.isfinite(table))
    assert np.max(np.abs(assemble_system(field, basis, collocation))) > 0.1


def test_point_off_the_sphere_in_a_batch_is_rejected():
    sphere = Sphere2(1.0)
    vf = sphere_basis(sphere, 1).elements[0]
    points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0 + 1e-6]])
    with pytest.raises(ValueError, match="off the sphere"):
        vf.values(points)
    with pytest.raises(ValueError, match="off the sphere"):
        lie_derivative(ConformalRescaleField(RoundSphereField(sphere), SpherePolyScalar(sphere, {(0, 0, 0): 2.0})),
                       vf, points, np.ones((2, 2)))


@pytest.mark.parametrize("field", [
    randers_torus_field(FlatTorus()),
    ConformalRescaleField(randers_torus_field(FlatTorus()), TorusFourierScalar(FlatTorus(), const=2.0)),
    RoundSphereField(Sphere2(1.0)),
    PullbackField(RoundSphereField(Sphere2(1.0)), MobiusMap.translation(Sphere2(1.0), 0.3)),
])
def test_batched_grad_y_keeps_direction_safeguards(field):
    # a solvable field checks y for dF/dy in its jets, of which evals is the first entry; a
    # pullback's evals meets the same checks in its base's jets
    points = _two_points(field.manifold)
    good = np.array([[1.0, 0.0], [0.3, -0.7]])
    for evaluate in (field.evals,) if isinstance(field, PullbackField) else (field.jets, field.evals):
        evaluate(points, good)
        with pytest.raises(DegenerateVector):
            evaluate(points, np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            evaluate(points, np.array([[np.nan, 1.0], [0.3, -0.7]]))
        with pytest.raises(DegenerateVector):
            evaluate(points[:1], np.zeros((1, 2)))
        with pytest.raises(ValueError):
            evaluate(points[:1], np.array([[np.nan, 1.0]]))


def test_evaluation_only_fields_have_no_jets():
    circle, torus = FlatTorus([[1.0]]), FlatTorus()
    one = TorusFourierScalar(circle, const=1.0)
    pulled = PullbackField(randers_torus_field(torus), TorusTranslation(torus, [0.3, 0.8]))
    averaged = PointwiseAveragedField(randers_torus_field(torus), 64)
    points, ys = _two_points(torus), np.array([[1.0, 0.0], [0.3, -0.7]])
    with pytest.raises(NotImplementedError, match="CircleNormField has no x-derivatives"):
        manifold.CircleNormField(circle, one, one).jets(points[:, :1], ys[:, :1])
    for field in (pulled, averaged):
        name = f"{type(field).__name__} has no x-derivatives"
        with pytest.raises(NotImplementedError, match=name):
            field.jets(points, ys)
        with pytest.raises(NotImplementedError, match=name):
            solve_fields(field, torus_basis(torus, 1), "conformal", SolverConfig(x_density=4))


def _two_points(manifold):
    if isinstance(manifold, Sphere2):
        return np.array([[0.0, 0.0, -1.0], [0.6, 0.0, 0.8]])
    return np.array([[0.1, 0.2], [0.7, 0.4]])


def _orthonormal_kernel(matrix):
    dim, basis, svals = null_space(matrix)
    _, ref_svals, ref_vt = np.linalg.svd(matrix, full_matrices=True)
    ref_padded = np.zeros(matrix.shape[1])
    ref_padded[: len(ref_svals)] = ref_svals
    ref_dim = int((ref_padded < 1e-8 * ref_padded[0]).sum())
    assert dim == ref_dim
    assert basis.shape == (dim, matrix.shape[1])
    assert np.max(np.abs(svals - ref_padded)) <= 1e-12 * ref_padded[0]
    assert np.max(np.abs(matrix @ basis.T)) <= 1e-12 * max(1.0, svals[0])
    np.testing.assert_allclose(basis @ basis.T, np.eye(dim), atol=1e-12)
    assert _kernel_angle(basis, ref_vt[matrix.shape[1] - dim:]) <= 1e-8
    return dim


def test_null_space_wide_matrix():
    rng = np.random.default_rng(0)
    wide = rng.standard_normal((3, 7))
    assert _orthonormal_kernel(wide) == 4


def test_null_space_tall_rank_deficient():
    rng = np.random.default_rng(1)
    tall = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 8))
    assert _orthonormal_kernel(tall) == 5


@pytest.mark.parametrize("rows,cols,rank", [(9, 8, 3), (40, 9, 5), (600, 30, 21), (2560, 75, 73)])
def test_null_space_of_tall_matrix_matches_full_svd(rows, cols, rank):
    # a tall matrix goes through its R factor; the reference is the SVD of the whole matrix
    rng = np.random.default_rng(rows)
    tall = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    assert _orthonormal_kernel(tall) == cols - rank


def _kernel_angle(basis_a, basis_b):
    """Largest principal angle between two row-orthonormal bases of equal dimension."""
    if len(basis_a) == 0:
        return 0.0
    # the sine form keeps angles near zero accurate, where arccos of a cosine does not
    residual = basis_a.T - basis_b.T @ (basis_b @ basis_a.T)
    return float(np.arcsin(min(1.0, np.linalg.norm(residual, 2))))


@pytest.mark.parametrize("name,field,basis,config", CASES, ids=[c[0] for c in CASES])
def test_killing_kernel_is_that_of_the_rows_before_division_by_f(name, field, basis, config):
    # dividing each row by F > 0 rescales rows and leaves the kernel as it is
    system = assemble_system(field, basis, build_collocation(basis.manifold, config))
    report = solve_fields(field, basis, mode="killing", config=config)
    ref_dim, ref_kernel, _ = null_space(system)
    assert report.killing_dim == ref_dim
    assert _kernel_angle(report.killing_basis, ref_kernel) <= 1e-8


def test_collapsed_gap_is_flagged_without_warning(monkeypatch):
    torus = FlatTorus()
    # a threshold inside the nonzero spectrum leaves no gap around it
    monkeypatch.setattr(lie_algebra, "RANK_TOL", 0.5)
    config = SolverConfig(x_density=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        report = solve_fields(randers_torus_field(torus), torus_basis(torus, 1), config=config)
    assert report.killing_gap < 1e2
    assert any("killing spectral gap" in flag for flag in report.flags)


@pytest.mark.parametrize("degree", [-1, 2.0, "2", True])
@pytest.mark.parametrize("build", [lambda d: sphere_basis(Sphere2(1.0), d),
                                   lambda d: torus_basis(FlatTorus(), d)], ids=["sphere", "torus"])
def test_basis_builders_reject_a_degree_that_is_not_a_non_negative_int(build, degree):
    with pytest.raises(InvalidSettings, match="degree must be a non-negative int"):
        build(degree)


def test_combination_of_batches_is_linear():
    """A combination, a combination of combinations and the field table of both
    all equal the coefficient-weighted sum of the elements."""
    for _, basis, points in TABLE_CASES:
        elements = basis.elements
        coeffs = np.arange(len(elements), dtype=float) - 5.0
        combo = CombinationVectorField(elements, coeffs)
        halves = [CombinationVectorField(elements, 0.5 * coeffs),
                  CombinationVectorField(elements[:2], [1.0, -2.0])]
        nested = CombinationVectorField(halves, [2.0, 0.0])
        for method in ("values", "jacobians"):
            expected = sum(c * getattr(el, method)(points) for c, el in zip(coeffs, elements))
            scale = np.max(np.abs(expected))
            for vf in (combo, nested):
                assert np.max(np.abs(getattr(vf, method)(points) - expected)) <= 1e-14 * scale
        table = manifold.field_tables([combo, elements[3], nested], points)
        np.testing.assert_allclose(table[..., 0], table[..., 2], rtol=0,
                                   atol=1e-14 * np.max(np.abs(table[..., 0])))
        np.testing.assert_allclose(table[:, :2, 1], elements[3].values(points), rtol=0, atol=1e-14)
        np.testing.assert_allclose(table[:, 2:, 1].reshape(-1, 2, 2), elements[3].jacobians(points),
                                   rtol=0, atol=1e-14)


def test_field_tables_rejects_mixed_classes_and_manifolds():
    (_, torus_basis_2, points), (_, sphere_basis_2, _) = TABLE_CASES
    with pytest.raises(ValueError, match="one class on one manifold"):
        manifold.field_tables([torus_basis_2.elements[2], sphere_basis_2.elements[0]], points)
    other = torus_basis(FlatTorus(), 1)
    with pytest.raises(ValueError, match="one class on one manifold"):
        manifold.field_tables([torus_basis_2.elements[2], other.elements[2]], points)


# ---------------------------------------------------------------------------
# diffeomorphisms, pullbacks and averaged fields


def _mobius_batch(sphere):
    """A general Mobius map and a batch with both poles and the preimage of the north pole."""
    parts = (MobiusMap.translation(sphere, 0.4 - 0.3j), MobiusMap.scaling(sphere, 1.7 + 0.4j),
             MobiusMap.rotation(sphere, [0.2, -0.7, 0.4], 1.1))
    mob = MobiusMap(sphere, parts[0].lorentz @ parts[1].lorentz @ parts[2].lorentz)
    north = np.array([0.0, 0.0, sphere.radius])
    rng = np.random.default_rng(5)
    directions = rng.standard_normal((30, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    preimage = MobiusMap(sphere, np.linalg.inv(mob.lorentz)).apply(north)
    return mob, np.vstack([north, -north, preimage, sphere.radius * directions])


def test_mobius_batch_matches_one_point_calls():
    sphere = Sphere2(1.3)
    mob, points = _mobius_batch(sphere)
    images, jacobians = mob.apply(points), mob.differential(points)
    assert images.shape == (33, 3) and jacobians.shape == (33, 2, 2)
    assert np.all(np.isfinite(jacobians))
    for i, pt in enumerate(points):
        np.testing.assert_allclose(images[i], mob.apply(pt), rtol=0, atol=1e-13)
        np.testing.assert_allclose(jacobians[i], mob.differential(pt), rtol=0, atol=1e-13)
    np.testing.assert_allclose(images[2], [0.0, 0.0, 1.3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(images, axis=1), 1.3, rtol=1e-14)


def test_torus_translation_batch_matches_one_point_calls():
    torus = FlatTorus(np.array([[1.0, 0.3], [0.0, 1.2]]))
    shift = TorusTranslation(torus, [0.7, 1.1])
    points = torus.grid_points(3)
    assert shift.differential(points).shape == (9, 2, 2)
    for i, x in enumerate(points):
        np.testing.assert_allclose(shift.apply(points)[i], shift.apply(x), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(shift.differential(points)[i], shift.differential(x))


def _pullback_cases():
    sphere = Sphere2(1.3)
    mob, sphere_points = _mobius_batch(sphere)
    rho = SpherePolyScalar(sphere, {(0, 0, 0): 2.0, (1, 0, 0): 0.26, (0, 1, 0): -0.13, (0, 0, 1): 0.65})
    torus = FlatTorus(np.array([[1.0, 0.3], [0.0, 1.2]]))
    torus_rho = TorusFourierScalar(torus, const=2.0, terms=[((1, 1), 0.4, -0.3)])
    return [
        ("round sphere", RoundSphereField(sphere), mob, sphere_points),
        ("rescaled sphere", ConformalRescaleField(RoundSphereField(sphere), rho), mob, sphere_points),
        ("rescaled torus", ConformalRescaleField(randers_torus_field(torus), torus_rho),
         TorusTranslation(torus, [0.3, 0.8]), torus.grid_points(4)),
    ]


PULLBACK_CASES = _pullback_cases()


@pytest.mark.parametrize("name,base,diffeo,points", PULLBACK_CASES,
                         ids=[c[0] for c in PULLBACK_CASES])
def test_pullback_matches_the_one_point_chain(name, base, diffeo, points):
    pulled = PullbackField(base, diffeo)
    m = len(points)
    ys = np.random.default_rng(6).standard_normal((m, 2))
    values = pulled.evals(points, ys)
    assert values.shape == (m,)
    for i in range(m):
        pt = points[i]
        image, jac = diffeo.apply(pt), diffeo.differential(pt)
        assert values[i] == pytest.approx(base.eval(image, jac @ ys[i]), rel=1e-13)


def _averaged_cases():
    """Averaged fields with a batch of three distinct points, each repeated."""
    torus, sphere = FlatTorus(), Sphere2(1.3)
    rho = TorusFourierScalar(torus, const=2.0, terms=[((1, 0), 0.5, 0.2)])
    sphere_points = np.array([[0.0, 0.0, 1.3], [0.5, -1.2, 0.0], [0.0, 0.0, -1.3]])
    repeat = np.array([0, 1, 2, 0, 2, 2, 1, 0])
    return [
        ("rescaled randers torus",
         PointwiseAveragedField(ConformalRescaleField(randers_torus_field(torus), rho), 64),
         torus.grid_points(2)[[0, 1, 3]][repeat]),
        ("round sphere", PointwiseAveragedField(RoundSphereField(sphere), 64),
         sphere_points[repeat]),
    ]


AVERAGED_CASES = _averaged_cases()


@pytest.mark.parametrize("name,field,points", AVERAGED_CASES, ids=[c[0] for c in AVERAGED_CASES])
def test_averaged_field_averages_each_distinct_point_once(monkeypatch, name, field, points):
    calls = []

    def counted(norm, resolution):
        calls.append(resolution)
        return average(norm, resolution)

    monkeypatch.setattr(manifold, "average", counted)
    ys = np.random.default_rng(7).standard_normal((8, 2))
    values = field.evals(points, ys)
    assert calls == [64] * 3
    for i in range(8):
        pt = points[i]
        assert values[i] == pytest.approx(EuclideanNorm(field.matrix_at(pt))(ys[i]), rel=1e-14)


@pytest.mark.parametrize("name,field,points", AVERAGED_CASES, ids=[c[0] for c in AVERAGED_CASES])
def test_averaged_field_y_differences_match_the_averaged_norm(name, field, points):
    ys = np.random.default_rng(8).standard_normal((8, 2))
    step = 1e-6
    fd = np.stack([(field.evals(points, ys + shift) - field.evals(points, ys - shift)) / (2 * step)
                   for shift in step * np.eye(2)], axis=-1)
    for i in range(8):
        expected = EuclideanNorm(field.matrix_at(points[i])).gradient_batch(ys[i:i + 1])[0]
        np.testing.assert_allclose(fd[i], expected, rtol=0, atol=1e-7)
