import numpy as np
import pytest

from finslerfields.errors import IdealCheckError, InvalidSettings
from finslerfields.lie_algebra import (
    RANK_TOL,
    LieAlgebraSC,
    abelian_algebra,
    ad_matrix,
    ad_nilpotent,
    ad_semisimple,
    affine_algebra,
    block_split,
    cartan_solvability,
    compact_decomposition_check,
    derived_series,
    direct_sum,
    is_solvable,
    killing_form,
    killing_gram,
    killing_radical,
    killing_signature,
    rotation_algebra,
    subalgebra_constants,
)


class TestConstruction:
    def test_antisymmetry_enforced(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 1.0  # missing the antisymmetric partner
        with pytest.raises(ValueError):
            LieAlgebraSC(c)

    def test_jacobi_enforced(self):
        c = np.zeros((3, 3, 3))
        # [e1,e2]=e3 and [e1,e3]=e1 leave a nonzero Jacobi cycle
        for i, j, k, v in ((0, 1, 2, 1.0), (0, 2, 0, 1.0)):
            c[i, j, k] = v
            c[j, i, k] = -v
        with pytest.raises(ValueError):
            LieAlgebraSC(c)

    def test_a_record_that_fails_jacobi_is_invalid_settings(self):
        # [e0, e1] = e0, [e1, e2] = e1, [e0, e2] = e2: the Jacobi sum of (e0, e1, e2) is e0 - e1
        record = {"dim": 3, "entries": [[0, 1, 0, 1.0], [1, 2, 1, 1.0], [0, 2, 2, 1.0]]}
        with pytest.raises(InvalidSettings, match="not a Lie algebra: Jacobi residual"):
            LieAlgebraSC.from_dict(record)
        c = np.zeros((3, 3, 3))
        for i, j, k, v in record["entries"]:
            c[i, j, k], c[j, i, k] = v, -v
        with pytest.raises(ValueError, match="Jacobi residual") as raised:
            LieAlgebraSC(c)
        assert not isinstance(raised.value, InvalidSettings)

    def test_serialization_roundtrip(self):
        algebra = rotation_algebra()
        clone = LieAlgebraSC.from_dict(algebra.to_dict())
        np.testing.assert_allclose(clone.constants, algebra.constants, atol=1e-14)


class TestAdjoint:
    def test_abelian_everything_zero(self):
        algebra = abelian_algebra(4)
        assert np.max(np.abs(ad_matrix(algebra, np.ones(4)))) == 0.0

    def test_rotation_first_generator(self):
        algebra = rotation_algebra()
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(ad_matrix(algebra, [1.0, 0.0, 0.0]), expected, atol=1e-14)

    def test_affine_diagonal_action(self):
        algebra = affine_algebra()
        np.testing.assert_allclose(
            ad_matrix(algebra, [1.0, 0.0]), np.diag([0.0, 1.0]), atol=1e-14
        )


class TestKillingForm:
    def test_rotation_form_is_minus_two_identity(self):
        algebra = rotation_algebra()
        np.testing.assert_allclose(killing_gram(algebra), -2.0 * np.eye(3), atol=1e-14)

    def test_affine_values(self):
        algebra = affine_algebra()
        assert killing_form(algebra, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
        assert killing_form(algebra, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        assert killing_form(algebra, [0.0, 1.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_abelian_form_vanishes(self):
        assert np.max(np.abs(killing_gram(abelian_algebra(3)))) == 0.0

    def test_bracket_associativity(self):
        # invariance identity B([w1, w2], w3) = B(w1, [w2, w3])
        rng = np.random.default_rng(0)
        for algebra in (rotation_algebra(), affine_algebra(),
                        direct_sum(rotation_algebra(), abelian_algebra(1))):
            for _ in range(25):
                w1, w2, w3 = rng.standard_normal((3, algebra.dim))
                lhs = killing_form(algebra, algebra.bracket(w1, w2), w3)
                rhs = killing_form(algebra, w1, algebra.bracket(w2, w3))
                assert abs(lhs - rhs) <= 1e-8


class TestSolvability:
    def test_affine_derived_series(self):
        assert derived_series(affine_algebra()) == [2, 1, 0]
        assert is_solvable(affine_algebra())

    def test_rotation_is_perfect(self):
        assert derived_series(rotation_algebra()) == [3, 3]
        assert not is_solvable(rotation_algebra())

    def test_abelian_series(self):
        assert derived_series(abelian_algebra(4)) == [4, 0]
        assert is_solvable(abelian_algebra(4))

    def test_cartan_criterion_matches_derived_series(self):
        algebras = [
            rotation_algebra(),
            affine_algebra(),
            abelian_algebra(3),
            direct_sum(rotation_algebra(), abelian_algebra(1)),
            direct_sum(affine_algebra(), abelian_algebra(2)),
        ]
        for algebra in algebras:
            assert cartan_solvability(algebra) == is_solvable(algebra)


class TestKillingRadical:
    def test_rotation_radical_trivial(self):
        assert killing_radical(rotation_algebra()).shape[0] == 0

    def test_abelian_radical_is_everything(self):
        assert killing_radical(abelian_algebra(3)).shape[0] == 3

    def test_direct_sum_radical_is_abelian_summand(self):
        algebra = direct_sum(rotation_algebra(), abelian_algebra(1))
        radical = killing_radical(algebra)
        assert radical.shape[0] == 1
        direction = np.abs(radical[0])
        np.testing.assert_allclose(direction, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_radical_is_solvable_ideal(self):
        algebra = direct_sum(affine_algebra(), abelian_algebra(1))
        radical = killing_radical(algebra)  # raises IdealCheckError on failure
        sub, residual = subalgebra_constants(algebra, radical)
        assert residual <= 1e-10
        assert is_solvable(sub)


class TestAdSemisimpleAndNilpotent:
    def test_rotation_generator_semisimple_not_nilpotent(self):
        algebra = rotation_algebra()
        u = np.array([1.0, 0.0, 0.0])
        assert ad_semisimple(algebra, u)
        assert not ad_nilpotent(algebra, u)

    def test_affine_nilpotent_generator(self):
        algebra = affine_algebra()
        y = np.array([0.0, 1.0])
        assert ad_nilpotent(algebra, y)
        assert not ad_semisimple(algebra, y)

    def test_clusters_near_the_radius_warn(self):
        # [x, y] = y, [x, z] = (1 + 3e-8) z: ad(x) has eigenvalues 1 and 1 + 3e-8, two
        # clusters 3e-8 apart, within 10x of the radius RANK_TOL * |ad(x)|
        c = np.zeros((3, 3, 3))
        c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
        c[0, 2, 2], c[2, 0, 2] = 1.0 + 3e-8, -(1.0 + 3e-8)
        with pytest.warns(UserWarning, match="within 10x of the tolerance radius"):
            assert ad_semisimple(LieAlgebraSC(c), [1.0, 0.0, 0.0])

    def test_zero_map_is_both(self):
        algebra = abelian_algebra(2)
        assert ad_semisimple(algebra, np.ones(2))
        assert ad_nilpotent(algebra, np.ones(2))

    def test_semisimple_and_nilpotent_forces_zero(self):
        rng = np.random.default_rng(1)
        algebras = [rotation_algebra(), affine_algebra(), abelian_algebra(3),
                    direct_sum(rotation_algebra(), abelian_algebra(1))]
        for algebra in algebras:
            for _ in range(200):
                u = rng.standard_normal(algebra.dim)
                if ad_semisimple(algebra, u) and ad_nilpotent(algebra, u):
                    assert np.linalg.norm(ad_matrix(algebra, u), 2) <= 1e-8


class TestCompactDecomposition:
    def test_rotation_plus_center(self):
        algebra = direct_sum(rotation_algebra(), abelian_algebra(1))
        report = compact_decomposition_check(algebra)
        assert report.compact_type
        assert report.derived_dim == 3
        assert report.center_dim == 1
        assert report.direct_sum
        assert report.kernel_equals_center

    def test_pure_rotation(self):
        report = compact_decomposition_check(rotation_algebra())
        assert report.compact_type
        assert report.derived_dim == 3
        assert report.center_dim == 0
        assert report.direct_sum
        assert report.max_gram_eigenvalue == pytest.approx(-2.0)

    def test_abelian(self):
        report = compact_decomposition_check(abelian_algebra(3))
        assert report.compact_type
        assert report.derived_dim == 0
        assert report.center_dim == 3
        assert report.direct_sum

    def test_zero_algebra(self):
        report = compact_decomposition_check(LieAlgebraSC.from_dict({"dim": 0, "entries": []}))
        assert (report.compact_type, report.direct_sum, report.derived_dim, report.center_dim) == (
            True, True, 0, 0)
        assert report.max_gram_eigenvalue == 0.0

    def test_affine_not_compact_type(self):
        report = compact_decomposition_check(affine_algebra())
        assert not report.compact_type
        assert report.max_gram_eigenvalue > 0.0


class TestSignature:
    def test_rotation_signature(self):
        assert killing_signature(rotation_algebra()) == (0, 3, 0)

    def test_direct_sum_signature_has_kernel(self):
        algebra = direct_sum(rotation_algebra(), abelian_algebra(2))
        assert killing_signature(algebra) == (0, 3, 2)

    def test_a_small_factor_keeps_the_signs_of_its_killing_form(self):
        # so(3) + 1e-2 sl(2, R), [h, e] = 2e, [h, f] = -2f, [e, f] = h scaled by 1e-2: Killing
        # eigenvalues -2 (x3), -4e-4, 4e-4 and 8e-4, all above RANK_TOL s^2 = 1e-8 in size
        c = np.zeros((3, 3, 3))
        for i, j, k, v in ((0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)):
            c[i, j, k], c[j, i, k] = 1e-2 * v, -1e-2 * v
        algebra = direct_sum(rotation_algebra(), LieAlgebraSC(c))
        np.testing.assert_allclose(np.linalg.eigvalsh(killing_gram(algebra)),
                                   [-2.0, -2.0, -2.0, -4e-4, 4e-4, 8e-4], rtol=1e-12)
        assert killing_signature(algebra) == (2, 4, 0)

    def test_round_off_killing_form_of_a_nilpotent_algebra_is_zero(self):
        # Heisenberg [x, y] = z plus 1e-16 noise: its Killing form is round-off, which
        # measured against its own largest eigenvalue has a sign
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
        noise = 1e-16 * np.random.default_rng(0).standard_normal((3, 3, 3))
        algebra = LieAlgebraSC(c + noise - noise.transpose(1, 0, 2))
        assert killing_signature(algebra) == (0, 0, 3)
        assert killing_radical(algebra).shape[0] == 3
        report = compact_decomposition_check(algebra)
        assert (report.compact_type, report.derived_dim, report.center_dim) == (True, 1, 1)
        assert not report.direct_sum


def _block_diagonal_case(rng):
    """(blocks, stacks, n) of a block-diagonal matrix on shuffled columns: two rank-2 tall
    (5, 3) blocks, three wide (2, 4) ones, one wide (2, 4) block with both singular values
    1e-6, and one block of two columns and no rows."""
    stacks = [rng.standard_normal((2, 5, 2)) @ rng.standard_normal((2, 2, 3)),
              rng.standard_normal((3, 2, 4)),
              1e-6 * np.linalg.qr(rng.standard_normal((1, 4, 2)))[0].transpose(0, 2, 1),
              np.zeros((1, 0, 2))]
    n = sum(stack.shape[0] * stack.shape[2] for stack in stacks)
    columns = rng.permutation(n)
    blocks, start = [], 0
    for stack in stacks:
        nb, _, w = stack.shape
        blocks.append(columns[start:start + nb * w].reshape(nb, w))
        start += nb * w
    return blocks, stacks, n


def _dense(blocks, stacks, n):
    rows = []
    for cols, stack in zip(blocks, stacks):
        for c, block in zip(cols, stack):
            dense = np.zeros((len(block), n))
            dense[:, c] = block
            rows.append(dense)
    return np.vstack(rows)


def _sin_angle(first, second):
    """Sine of the largest principal angle between the row spans of two orthonormal bases."""
    assert first.shape == second.shape
    if not len(first):
        return 0.0
    return float(np.linalg.norm(first - first @ second.T @ second, 2))


@pytest.mark.parametrize("relative", [None, 1e3], ids=["largest", "given"])
def test_block_split_matches_the_svd_of_the_dense_matrix(relative):
    """Spectra, kernel and row space of a block-diagonal matrix equal those of one dense SVD
    under the same rank rule, and every row lives in its own block's columns; against
    1e3 sigma_max the 1e-6 block joins the kernel."""
    blocks, stacks, n = _block_diagonal_case(np.random.default_rng(5))
    dense = _dense(blocks, stacks, n)
    _, s, vt = np.linalg.svd(dense)
    s = np.concatenate([s, np.zeros(n - len(s))])
    reference = None if relative is None else relative * s[0]
    row_space, kernel, svals, spectra = block_split(blocks, stacks, n, reference)
    np.testing.assert_allclose(svals, s, rtol=0, atol=1e-12 * s[0])
    nonzero = s >= RANK_TOL * (s[0] if reference is None else reference)
    assert len(kernel) == n - nonzero.sum() == (12 if relative is None else 14)
    assert _sin_angle(row_space, vt[nonzero]) <= 1e-8
    assert _sin_angle(kernel, vt[~nonzero]) <= 1e-8
    np.testing.assert_allclose(np.vstack([row_space, kernel]) @ np.vstack([row_space, kernel]).T,
                               np.eye(n), atol=1e-12)
    block_columns = [set(c) for cols in blocks for c in cols]
    for row in np.vstack([row_space, kernel]):
        assert any(set(np.flatnonzero(row)) <= columns for columns in block_columns)
    assert len(spectra) == len(block_columns)
    for spectrum, (cols, block) in zip(spectra, ((c, b) for cs, st in zip(blocks, stacks)
                                                 for c, b in zip(cs, st))):
        expected = np.linalg.svd(block, compute_uv=False) if len(block) else []
        np.testing.assert_allclose(spectrum, np.pad(expected, (0, len(cols) - len(expected))),
                                   rtol=0, atol=1e-12 * s[0])


@pytest.mark.parametrize("reference", [None, 1.0])
def test_block_split_of_no_columns(reference):
    row_space, kernel, svals, spectra = block_split([np.zeros((1, 0), dtype=int)], [np.zeros((1, 0, 0))],
                                                    0, reference)
    assert row_space.shape == kernel.shape == (0, 0)
    assert svals.shape == (0,) and [len(s) for s in spectra] == [0]
