"""Sampled families, kernels, and positivity checks."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colligate.testfn as testfn
from colligate import (
    DimensionError,
    FormatError,
    HermitianKernel,
    PointSet,
    StructureError,
    TableDiagnostics,
    ToleranceError,
    agler_norm_lower_bound,
    cp_kernel_check,
    disc_points,
    disc_table,
    eval_map,
    evaluate_all,
    is_admissible,
    is_psd,
    random_colligation,
    random_representation,
    schur_agler_witness_check,
    szego_samples,
    validate_test_family,
)
from colligate import TestFunctionTable as FunctionTable

TWO_POINTS = [0.0, 0.5]
FOUR_POINTS = [0.0, 0.5, -1.0 / 3.0, 0.25j]


def pairwise_diagnostics(t: FunctionTable, atol: float = 0.0) -> TableDiagnostics:
    """The three family invariants checked point by point and pair by pair."""
    v = t.values
    bad_points = tuple(i for i in range(t.n) if float(np.max(np.abs(v[:, i]))) >= 1.0)
    bad_base = tuple(j for j in range(t.m) if float(np.abs(v[j, 0])) > atol)
    bad_pairs = tuple(
        (i, k)
        for i in range(t.n)
        for k in range(i + 1, t.n)
        if float(np.max(np.abs(v[:, i] - v[:, k]))) <= atol
    )
    return TableDiagnostics(
        contractive=not bad_points,
        contractivity_violations=bad_points,
        base_point_centered=not bad_base,
        base_point_violations=bad_base,
        separating=not bad_pairs,
        separation_violations=bad_pairs,
    )


def kron_witness_reference(f: np.ndarray, s: HermitianKernel, bound: float) -> np.ndarray:
    """The witness matrix assembled block by block with np.kron."""
    n, d, df = s.n, f.shape[1], s.block_dim
    size = d * df
    out = np.zeros((n * size, n * size), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            head = bound**2 * np.eye(d) - f[i].conj().T @ f[j]
            out[i * size : (i + 1) * size, j * size : (j + 1) * size] = np.kron(
                head, s.block(i, j).conj()
            )
    return out


class TestPointSet:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            PointSet(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PointSet(())


class TestTable:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            FunctionTable(PointSet(("a", "b")), np.zeros((1, 3)))

    def test_same_family_requires_identical_samples(self):
        t = disc_table(TWO_POINTS)
        assert t.same_family(disc_table(TWO_POINTS))
        assert not t.same_family(disc_table([0.0, 0.25]))

    def test_eval_map_is_the_column(self):
        t = disc_table(FOUR_POINTS)
        npt.assert_array_equal(eval_map(t, 0), np.zeros(1))
        npt.assert_array_equal(eval_map(t, 1), np.array([0.5]))
        with pytest.raises(IndexError):
            eval_map(t, 4)

    def test_bidisc_lookup(self):
        values = np.array([[0.0, 0.5], [0.0, 1.0 / 3.0]], dtype=complex)
        t = FunctionTable(PointSet(("o", "p")), values)
        npt.assert_allclose(eval_map(t, 1), [0.5, 1.0 / 3.0])


class TestValidateTestFamily:
    def test_good_family_passes(self):
        assert validate_test_family(disc_table(FOUR_POINTS)).passed

    def test_modulus_one_breaks_contractivity(self):
        t = disc_table([0.0, 1.0])
        diag = validate_test_family(t)
        assert not diag.contractive
        assert 1 in diag.contractivity_violations

    def test_nonzero_base_point_flagged(self):
        values = np.array([[0.1, 0.5]], dtype=complex)
        t = FunctionTable(PointSet(("o", "p")), values)
        diag = validate_test_family(t)
        assert not diag.base_point_centered

    def test_equal_columns_break_separation(self):
        values = np.array([[0.0, 0.5, 0.5]], dtype=complex)
        t = FunctionTable(PointSet(("o", "p", "q")), values)
        diag = validate_test_family(t)
        assert not diag.separating
        assert (1, 2) in diag.separation_violations
        assert not diag.passed

    def test_matches_the_pairwise_reference(self):
        rng = np.random.default_rng(3)
        values = 0.8 * (rng.uniform(-0.7, 0.7, (3, 40)) + 1j * rng.uniform(-0.7, 0.7, (3, 40)))
        values[:, 17] = values[:, 5]  # duplicated column
        values[:, 30] = values[:, 5]  # and a third copy of it
        values[:, 9] = values[:, 2] + 1e-12  # near duplicate, separated only at atol 0
        values[1, 23] = np.exp(0.3j)  # unit modulus
        values[2, 0] = 0.25  # nonzero base entry
        t = FunctionTable(PointSet(tuple(f"x{k}" for k in range(40))), values)
        for atol in (0.0, 1e-9):
            diag = validate_test_family(t, atol)
            assert diag == pairwise_diagnostics(t, atol)
            assert not diag.passed
        assert validate_test_family(t).separation_violations == ((5, 17), (5, 30), (17, 30))
        assert (2, 9) in validate_test_family(t, 1e-9).separation_violations

    def test_single_point_table(self):
        t = FunctionTable(PointSet(("o",)), np.zeros((2, 1), dtype=complex))
        assert validate_test_family(t) == pairwise_diagnostics(t)

    @pytest.mark.parametrize("atol", [-1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_nonnegative(self, atol):
        with pytest.raises(ToleranceError):
            validate_test_family(disc_table(FOUR_POINTS), atol)


class TestHermitianKernel:
    def test_assemble_places_blocks(self):
        pts = PointSet(("a", "b"))
        blocks = np.arange(16, dtype=float).reshape(2, 2, 2, 2).astype(complex)
        k = HermitianKernel(pts, blocks)
        full = k.assemble()
        npt.assert_array_equal(full[:2, :2], blocks[0, 0])
        npt.assert_array_equal(full[:2, 2:], blocks[0, 1])
        npt.assert_array_equal(full[2:, :2], blocks[1, 0])

    def test_hermiticity_defect(self):
        pts = PointSet(("a", "b"))
        sym = np.zeros((2, 2, 1, 1), dtype=complex)
        sym[0, 1] = 2.0
        sym[1, 0] = 2.0
        assert HermitianKernel(pts, sym).hermiticity_defect() == 0.0
        skew = sym.copy()
        skew[1, 0] = -2.0
        assert HermitianKernel(pts, skew).hermiticity_defect() == pytest.approx(4.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
    def test_non_finite_blocks_are_a_format_error(self, bad):
        blocks = np.ones((2, 2, 1, 1), dtype=complex)
        blocks[1, 0] = bad
        with pytest.raises(FormatError, match="non-finite"):
            HermitianKernel(PointSet(("a", "b")), blocks)

    @pytest.mark.parametrize("power", [0, -1])
    def test_szego_power_below_one_is_an_error(self, power):
        with pytest.raises(StructureError, match="power"):
            szego_samples(TWO_POINTS, power=power)


class TestIsAdmissible:
    def test_szego_samples_are_admissible(self):
        t = disc_table(TWO_POINTS)
        assert is_admissible(szego_samples(TWO_POINTS), t)

    def test_constant_kernel_is_rejected(self):
        # the scaled matrix is [[1, 1], [1, 3/4]] with determinant -1/4
        t = disc_table(TWO_POINTS)
        ones = HermitianKernel(t.points, np.ones((2, 2, 1, 1), dtype=complex))
        assert not is_admissible(ones, t)

    def test_single_point_reduces_to_plain_positivity(self):
        t = disc_table([0.0])
        good = HermitianKernel(t.points, np.full((1, 1, 1, 1), 2.0, dtype=complex))
        bad = HermitianKernel(t.points, np.full((1, 1, 1, 1), -1.0, dtype=complex))
        assert is_admissible(good, t)
        assert not is_admissible(bad, t)

    def test_operator_valued_kernel(self):
        t = disc_table(TWO_POINTS)
        p = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
        blocks = szego_samples(TWO_POINTS).blocks * p
        assert is_admissible(HermitianKernel(t.points, blocks), t)

    def test_point_set_mismatch_is_an_error(self):
        with pytest.raises(StructureError):
            is_admissible(szego_samples(TWO_POINTS), disc_table([0.0, 0.25]))

    def test_restriction_preserves_admissibility(self):
        full = FOUR_POINTS
        assert is_admissible(szego_samples(full), disc_table(full))
        for keep in ([0, 1], [0, 2, 3]):
            zs = [full[i] for i in keep]
            assert is_admissible(szego_samples(zs), disc_table(zs))


class TestCpKernelCheck:
    def test_unit_sample_reduces_to_plain_positivity(self):
        t = disc_table(TWO_POINTS)
        fixed = szego_samples(TWO_POINTS)

        def k(i, j, g):
            return g[0] * fixed.block(i, j)

        ones = np.ones(1)
        eye = np.eye(1)
        sample = ([0, 1], [eye, eye], [ones, ones])
        assert cp_kernel_check(k, t, [sample]) == is_psd(fixed.assemble())

    def test_zero_kernel_passes_everything(self):
        t = disc_table(FOUR_POINTS)

        def k(i, j, g):
            return np.zeros((2, 2))

        rng = np.random.default_rng(0)
        samples = [
            (
                [0, 2, 3],
                [rng.standard_normal((2, 2)) for _ in range(3)],
                [rng.standard_normal(1) for _ in range(3)],
            )
        ]
        assert cp_kernel_check(k, t, samples)

    def test_negative_diagonal_kernel_fails(self):
        t = disc_table(TWO_POINTS)

        def k(i, j, g):
            return -np.sum(g) * np.eye(1) if i == j else np.zeros((1, 1))

        f = np.array([1.0])
        sample = ([0, 1], [np.eye(1), np.eye(1)], [f, f])
        assert not cp_kernel_check(k, t, [sample])

    def test_operator_weights_conjugate_the_assembly(self):
        t = disc_table(TWO_POINTS)
        fixed = szego_samples(TWO_POINTS)

        def k(i, j, g):
            return g[0] * fixed.block(i, j)

        ones = np.ones(1)
        weights = [np.array([[3.0]]), np.array([[0.5]])]
        sample = ([0, 1], weights, [ones, ones])
        assert cp_kernel_check(k, t, [sample])

    def test_malformed_sample_is_an_error(self):
        t = disc_table(TWO_POINTS)
        with pytest.raises(StructureError):
            cp_kernel_check(lambda i, j, g: np.eye(1), t, [([0], [np.eye(1)])])


class TestWitnessCheck:
    def test_zero_function_reduces_to_kernel_positivity(self):
        s = szego_samples(FOUR_POINTS)
        f = [np.zeros((1, 1))] * 4
        assert schur_agler_witness_check(f, s, 1.0)

    def test_doubled_coordinate_fails_at_one(self):
        s = szego_samples(TWO_POINTS)
        f = [np.array([[2.0 * z]]) for z in TWO_POINTS]
        assert not schur_agler_witness_check(f, s, 1.0)

    def test_doubled_coordinate_passes_at_two(self):
        s = szego_samples(TWO_POINTS)
        f = [np.array([[2.0 * z]]) for z in TWO_POINTS]
        assert schur_agler_witness_check(f, s, 2.0)

    def test_negative_bound_is_an_error(self):
        s = szego_samples(TWO_POINTS)
        with pytest.raises(ValueError):
            schur_agler_witness_check([np.zeros((1, 1))] * 2, s, -1.0)

    @pytest.mark.parametrize("bound", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_bound_must_be_finite_and_nonnegative(self, bound):
        s = szego_samples(TWO_POINTS)
        with pytest.raises(StructureError, match="bound"):
            schur_agler_witness_check([np.zeros((1, 1))] * 2, s, bound)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("block_dim", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matrix_matches_the_kron_reference(self, monkeypatch, d, block_dim, n):
        rng = np.random.default_rng(100 * d + 10 * block_dim + n)
        zs = [0.0] + list(0.8 * rng.random(n - 1) * np.exp(2j * np.pi * rng.random(n - 1)))
        szego = szego_samples(zs)
        pos = np.array([[2.0, 0.5 - 0.5j], [0.5 + 0.5j, 1.0]])[:block_dim, :block_dim]
        s = HermitianKernel(szego.points, szego.blocks * pos)
        f = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        seen = []
        monkeypatch.setattr(testfn, "is_psd", lambda m, atol: seen.append(m) or True)
        assert schur_agler_witness_check(f, s, 1.7)
        (got,) = seen
        assert got.shape == (n * d * block_dim,) * 2
        npt.assert_allclose(got, kron_witness_reference(f, s, 1.7), rtol=0, atol=1e-13)

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_the_bound(self, c1, c2):
        lo, hi = sorted([c1, c2])
        s = szego_samples(FOUR_POINTS)
        f = [np.array([[1.3 * z]]) for z in FOUR_POINTS]
        if schur_agler_witness_check(f, s, lo):
            assert schur_agler_witness_check(f, s, hi)


class TestNormLowerBound:
    def test_zero_function_gives_zero(self):
        s = szego_samples(TWO_POINTS)
        assert agler_norm_lower_bound([np.zeros((1, 1))] * 2, [s]) == 0.0

    def test_doubled_coordinate_gives_two(self):
        s = szego_samples(TWO_POINTS)
        f = [np.array([[2.0 * z]]) for z in TWO_POINTS]
        assert agler_norm_lower_bound(f, [s]) == pytest.approx(2.0, abs=1e-8)

    def test_coordinate_stays_below_one(self):
        s = szego_samples(TWO_POINTS)
        f = [np.array([[z]]) for z in TWO_POINTS]
        assert agler_norm_lower_bound(f, [s]) <= 1.0 + 1e-8

    def test_more_kernels_cannot_lower_the_bound(self):
        f = [np.array([[1.5 * z]]) for z in FOUR_POINTS]
        one = [szego_samples(FOUR_POINTS)]
        two = one + [szego_samples(FOUR_POINTS, power=2)]
        assert agler_norm_lower_bound(f, two) >= agler_norm_lower_bound(f, one) - 1e-9

    @pytest.mark.parametrize("atol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_a_positive_number(self, atol):
        s = szego_samples(TWO_POINTS)
        f = [np.array([[2.0 * z]]) for z in TWO_POINTS]
        with pytest.raises(ToleranceError):
            agler_norm_lower_bound(f, [s], atol=atol)

    def test_tolerance_below_double_spacing_still_ends(self):
        s = szego_samples(TWO_POINTS)
        f = [np.array([[2.0 * z]]) for z in TWO_POINTS]
        assert agler_norm_lower_bound(f, [s], atol=1e-300) == pytest.approx(2.0, abs=1e-8)

    def test_empty_kernel_list_is_an_error(self):
        with pytest.raises(StructureError):
            agler_norm_lower_bound([np.zeros((1, 1))], [])

    def test_non_positive_kernel_is_an_error(self):
        pts = disc_points(TWO_POINTS)
        bad = HermitianKernel(pts, -np.ones((2, 2, 1, 1), dtype=complex))
        with pytest.raises(StructureError):
            agler_norm_lower_bound([np.zeros((1, 1))] * 2, [bad])

    @pytest.mark.parametrize("seed", range(8))
    def test_realized_functions_stay_within_the_unit_bound(self, seed):
        table = disc_table(FOUR_POINTS)
        d = 1 + seed % 3
        rep = random_representation(1, 2 + seed % 3, seed=100 + seed)
        col = random_colligation(d, rep, table, seed=200 + seed)
        kernels = [szego_samples(FOUR_POINTS), szego_samples(FOUR_POINTS, power=2)]
        bound = agler_norm_lower_bound(list(evaluate_all(col)), kernels)
        assert bound <= 1.0 + 1e-8
