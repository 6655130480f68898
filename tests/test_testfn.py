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


def sweep_separation(t: FunctionTable, atol: float = 0.0) -> tuple[tuple[int, int], ...]:
    """Separation violations by one sweep per point against every later point."""
    v = t.values
    bad_pairs = []
    for i in range(t.n - 1):
        gaps = np.max(np.abs(v[:, i + 1 :] - v[:, i : i + 1]), axis=0)
        bad_pairs.extend((i, i + 1 + int(k)) for k in np.flatnonzero(gaps <= atol))
    return tuple(bad_pairs)


def planted_table(m: int, n: int, seed: int) -> FunctionTable:
    """Random table with exact and near-duplicate columns planted at
    random, a few of them next to each other."""
    rng = np.random.default_rng(seed)
    values = 0.6 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / 2
    values[:, 0] = 0.0
    for _ in range(n // 3):
        src, dst = rng.integers(0, n, size=2)
        values[:, dst] = values[:, src] + rng.choice([0.0, 1e-12, 1e-10, 1e-8]) * rng.standard_normal(m)
    if n > 1:
        values[:, n - 1] = values[:, n - 2]
    return FunctionTable(PointSet(tuple(f"x{k}" for k in range(n))), values)


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


def bisection_bound(f, kernels, atol: float = 1e-9) -> float:
    """The norm bound by blind bisection on c**2 from 0, as first written.

    Widens from twice the largest value norm plus one, at least eight
    times and then while rounding stays below atol, and bisects the
    bracket to atol; the Newton-placed bracket is held to this reference.
    """
    f = np.asarray(f, dtype=np.complex128)

    def passes(c):
        return all(schur_agler_witness_check(f, s, c, atol) for s in kernels)

    if passes(0.0):
        return 0.0
    top = 2.0 * max(float(np.linalg.norm(v, ord=2)) for v in f) + 1.0
    hi2 = top * top
    least = 256.0 * hi2
    while not passes(np.sqrt(hi2)):
        hi2 *= 2.0
        if hi2 < least:
            continue
        norm = max(np.linalg.norm(s.assemble(), 2) for s in kernels)
        if not hi2 * np.finfo(float).eps * norm < atol:
            raise StructureError("no bound passes before rounding exceeds atol")
    lo2 = 0.0
    while hi2 - lo2 > atol:
        mid = (lo2 + hi2) / 2.0
        if not lo2 < mid < hi2:
            break
        if passes(np.sqrt(mid)):
            hi2 = mid
        else:
            lo2 = mid
    return float(np.sqrt(hi2))


def random_disc_values(n: int, d: int, seed: int) -> tuple[list, np.ndarray]:
    """n points of the disc (0 first) and the values there of a random
    contractive colligation with value dimension d."""
    rng = np.random.default_rng(seed)
    radii = 0.9 * np.sqrt(rng.random(n - 1))
    zs = [0.0] + list(radii * np.exp(2j * np.pi * rng.random(n - 1)))
    rep = random_representation(1, d + 4, seed=seed + 1)
    return zs, evaluate_all(random_colligation(d, rep, disc_table(zs), seed=seed + 2))


def operator_kernels(zs) -> list[HermitianKernel]:
    """Szego kernels of power 1 and 2 tensored with fixed positive 2 x 2 blocks."""
    pos = np.array([[2.0, 0.5 - 0.5j], [0.5 + 0.5j, 1.0]])
    pos_sq = np.array([[1.0, 0.25j], [-0.25j, 1.0]])
    szego = szego_samples(zs)
    return [
        HermitianKernel(szego.points, szego.blocks * pos),
        HermitianKernel(szego.points, szego_samples(zs, power=2).blocks * pos_sq),
    ]


@pytest.fixture
def witness_checks(monkeypatch):
    """Count the calls of testfn.schur_agler_witness_check."""
    calls = []
    check = testfn.schur_agler_witness_check

    def counted(*args, **kwargs):
        calls.append(None)
        return check(*args, **kwargs)

    monkeypatch.setattr(testfn, "schur_agler_witness_check", counted)
    return calls


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
        with pytest.raises(StructureError, match=r"point index 4 outside 0\.\.3"):
            eval_map(t, 4)
        with pytest.raises(StructureError, match="point index -1"):
            eval_map(t, -1)

    def test_eval_map_takes_an_index_array(self):
        t = disc_table(FOUR_POINTS)
        npt.assert_array_equal(eval_map(t, np.array([3, 1, 3])), t.values[:, [3, 1, 3]])
        assert eval_map(t, np.arange(4)).shape == (1, 4)
        with pytest.raises(StructureError, match=r"point index 4 outside 0\.\.3"):
            eval_map(t, np.array([0, 4, -1]))

    @pytest.mark.parametrize("index", [2.0, False, np.bool_(True), np.array([1.0]),
                                       np.array([False]), np.zeros((1, 1), dtype=int)],
                             ids=repr)
    def test_eval_map_refuses_booleans_and_non_integers(self, index):
        with pytest.raises(StructureError, match="point index must be an integer"):
            eval_map(disc_table(FOUR_POINTS), index)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 300])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("budget", [1, 50, None])
    def test_chunked_sweep_matches_the_per_point_sweep(self, monkeypatch, n, m, budget):
        # budget 1 makes one-row chunks, 50 a few rows, None the default
        if budget is not None:
            monkeypatch.setattr(testfn, "_SEPARATION_BUDGET", budget * m * n)
        t = planted_table(m, n, seed=1000 * m + n)
        found = []
        for atol in (0.0, 1e-11, 1e-9, 1e-7):
            diag = validate_test_family(t, atol)
            assert diag.separation_violations == sweep_separation(t, atol)
            if n <= 40:
                assert diag == pairwise_diagnostics(t, atol)
            found.append(len(diag.separation_violations))
        if n > 1:
            assert (n - 2, n - 1) in validate_test_family(t).separation_violations
        if n == 300:
            # the near duplicates separate at 0 but not at the larger atols
            assert found[0] < found[-1]

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

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), complex(0.0, float("-inf")), complex(0.0, float("nan"))],
    )
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

    def test_out_of_range_sample_index_is_a_structure_error(self):
        t = disc_table(TWO_POINTS)
        sample = ([2], [np.eye(1)], [np.ones(1)])
        with pytest.raises(StructureError, match=r"sample point index 2 outside 0\.\.1"):
            cp_kernel_check(lambda i, j, g: np.eye(1), t, [sample])

    def test_an_empty_sample_is_skipped(self):
        # the empty sample is passed over; the next one still decides
        t = disc_table(TWO_POINTS)

        def k(i, j, g):
            return -np.eye(1) if i == j else np.zeros((1, 1))

        f = np.array([1.0])
        failing = ([0, 1], [np.eye(1), np.eye(1)], [f, f])
        assert cp_kernel_check(k, t, [([], [], [])]) is True
        assert cp_kernel_check(k, t, [([], [], []), failing]) is False


def _cp(sample, block=np.eye(1)):
    """cp_kernel_check on the two-point disc with a constant kernel block."""
    return lambda: cp_kernel_check(lambda i, j, g: block, disc_table(TWO_POINTS), [sample])


ONE = np.ones(1)
GUARDS = {
    "table without a function": (
        lambda: FunctionTable(disc_points(TWO_POINTS), np.zeros((0, 2))),
        StructureError, "a family needs at least one test function",
    ),
    "coefficient vector of another length": (
        _cp(([0], [np.eye(1)], [np.ones(3)])),
        DimensionError, "coefficient vector has length 3, expected 1",
    ),
    "kernel blocks of three axes": (
        lambda: HermitianKernel(disc_points(TWO_POINTS), np.zeros((2, 2, 1))),
        DimensionError, "kernel blocks must be 4-D (n, n, d, d), got shape (2, 2, 1)",
    ),
    "kernel grid for other points": (
        lambda: HermitianKernel(disc_points(TWO_POINTS), np.zeros((3, 3, 1, 1))),
        DimensionError, "kernel grid is 3x3 for 2 points",
    ),
    "non-square kernel blocks": (
        lambda: HermitianKernel(disc_points(TWO_POINTS), np.zeros((2, 2, 1, 2))),
        DimensionError, "kernel blocks must be square, got 1x2",
    ),
    "sample pieces of different lengths": (
        _cp(([0, 1], [np.eye(1)], [ONE, ONE])),
        DimensionError, "sample pieces must share one length, got 2, 1, 2",
    ),
    "sample operators of different sizes": (
        _cp(([0, 1], [np.eye(1), np.eye(2)], [ONE, ONE])),
        DimensionError, "sample operators must be square and equal sized",
    ),
    "kernel block of another size": (
        _cp(([0, 1], [np.eye(1), np.eye(1)], [ONE, ONE]), block=np.eye(2)),
        DimensionError, "kernel block is (2, 2), expected (1, 1)",
    ),
    "fractional sample point index": (
        _cp(([1.5], [np.eye(1)], [ONE])),
        StructureError, "sample point index must be an integer, got 1.5",
    ),
    "boolean sample point index": (
        _cp(([True], [np.eye(1)], [ONE])),
        StructureError, "sample point index must be an integer, got True",
    ),
    "numpy float sample point index": (
        _cp(([np.float64(1.9)], [np.eye(1)], [ONE])),
        StructureError, f"sample point index must be an integer, got {np.float64(1.9)!r}",
    ),
    "witness values for fewer points": (
        lambda: schur_agler_witness_check([np.zeros((1, 1))], szego_samples(TWO_POINTS), 1.0),
        StructureError, "1 function values supplied for 2 kernel points",
    ),
    "norm bound over a kernel on other points": (
        lambda: agler_norm_lower_bound([np.zeros((1, 1))], [szego_samples(TWO_POINTS)]),
        StructureError, "kernel sampled on 2 points, function values on 1",
    ),
    "no function value": (
        lambda: schur_agler_witness_check([], szego_samples(TWO_POINTS), 1.0),
        StructureError, "at least one function value is required",
    ),
    "non-square function values": (
        lambda: schur_agler_witness_check([np.zeros((1, 2))] * 2, szego_samples(TWO_POINTS), 1.0),
        DimensionError, "function values must be square, got 1x2",
    ),
    "witness values of different shapes": (
        lambda: schur_agler_witness_check([np.eye(1), np.eye(2)], szego_samples(TWO_POINTS), 1.0),
        DimensionError, "function values must share one shape, got (1, 1) and (2, 2)",
    ),
    "norm bound over values of different shapes": (
        lambda: agler_norm_lower_bound([np.eye(1), np.eye(2)], [szego_samples(TWO_POINTS)]),
        DimensionError, "function values must share one shape, got (1, 1) and (2, 2)",
    ),
}


class TestGuards:
    """Each refusal of bad input, with its class and its full message."""

    @pytest.mark.parametrize("case", list(GUARDS))
    def test_bad_input_is_refused_with_its_message(self, case):
        call, error, message = GUARDS[case]
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message


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

    def test_zero_function_passes_at_a_bound_whose_square_nears_the_float_max(self):
        # the bound's square is about 1e308: symmetrizing by (m + m*) / 2
        # would overflow to inf before the halving
        s = szego_samples(TWO_POINTS)
        assert schur_agler_witness_check([np.zeros((1, 1))] * 2, s, 1e154)

    @pytest.mark.parametrize("bound", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_bound_must_be_finite_and_nonnegative(self, bound):
        s = szego_samples(TWO_POINTS)
        with pytest.raises(StructureError, match="bound"):
            schur_agler_witness_check([np.zeros((1, 1))] * 2, s, bound)

    def test_bound_whose_square_overflows_is_named(self):
        s = szego_samples(TWO_POINTS)
        with pytest.raises(StructureError, match=r"bound 1e\+155"):
            schur_agler_witness_check([np.zeros((1, 1))] * 2, s, 1e155)

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

    @pytest.mark.parametrize("z, exact", [(0.01, 90.0), (0.001, 900.0)])
    def test_a_bound_far_above_the_value_norms_is_reached(self, z, exact):
        # 0 at the base point and 0.9 at z: the smallest interpolant is 0.9 w / z
        f = [np.zeros((1, 1)), np.array([[0.9]])]
        bound = agler_norm_lower_bound(f, [szego_samples([0.0, z])])
        assert bound == pytest.approx(exact, rel=1e-6)

    def test_a_kernel_no_bound_can_pass_is_an_error(self):
        # c^2 [[1, 1], [1, 1]] - diag(0, 0.81) has an eigenvalue near -0.405
        # for every c; widened without a limit, eigvalsh's rounding at
        # c^2 near 9e15 passed it
        ones = HermitianKernel(disc_points(TWO_POINTS), np.ones((2, 2, 1, 1)))
        f = [np.zeros((1, 1)), np.array([[0.9]])]
        with pytest.raises(StructureError, match="before rounding exceeds atol"):
            agler_norm_lower_bound(f, [ones])

    @pytest.fixture
    def newton_stops_short(self, monkeypatch):
        """Newton slopes a million times too steep: each step falls far short
        of the threshold, so the widening loop has to place the bracket."""
        lowest_pair = testfn._lowest_pair

        def steep(head, s):
            lowest, slope = lowest_pair(head, s)
            return lowest, slope * 1e6

        monkeypatch.setattr(testfn, "_lowest_pair", steep)

    def test_a_bracket_short_of_the_bound_is_widened_to_it(self, request):
        zs, atol = [0.0, 0.5, -0.3j, 0.25 + 0.25j], 1e-9
        f = [np.array([[2.0 * z]]) for z in zs]
        kernels = [szego_samples(zs), szego_samples(zs, power=2)]
        _, exact, newton_checks = testfn._norm_bracket(f, kernels, atol)
        request.getfixturevalue("newton_stops_short")
        lo, hi, checks = testfn._norm_bracket(f, kernels, atol)
        assert checks > 10 * newton_checks
        assert all(schur_agler_witness_check(f, s, hi, atol) for s in kernels)
        assert not all(schur_agler_witness_check(f, s, lo, atol) for s in kernels)
        assert abs(hi**2 - exact**2) <= atol

    def test_widening_stops_where_rounding_exceeds_atol(self, newton_stops_short):
        ones = HermitianKernel(disc_points(TWO_POINTS), np.ones((2, 2, 1, 1)))
        f = [np.zeros((1, 1)), np.array([[0.9]])]
        with pytest.raises(StructureError, match="before rounding exceeds atol") as info:
            agler_norm_lower_bound(f, [ones])
        # refused by the limit on the widening loop, not on a Newton step
        caller = next(e for e in info.traceback if e.name == "_norm_bracket")
        assert str(caller.statement).strip() == "reach(hi)"

    def test_large_values_keep_eight_widenings(self):
        # 0 and 1e3 at z = 0.1 need c = 1e4, five doublings above the first
        # top, where rounding already exceeds the default atol
        f = [np.zeros((1, 1)), np.array([[1e3]])]
        bound = agler_norm_lower_bound(f, [szego_samples([0.0, 0.1])])
        assert bound == pytest.approx(1e4, rel=1e-6)

    def test_values_whose_square_overflows_are_named(self):
        s = szego_samples(TWO_POINTS)
        f = [np.array([[0.5]]), np.array([[1e160]])]
        with pytest.raises(StructureError, match=r"point 1 has norm 1\.000e\+160"):
            agler_norm_lower_bound(f, [s])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_stacked_values_are_a_format_error(self, bad):
        f = np.zeros((2, 1, 1), dtype=complex)
        f[1, 0, 0] = bad
        with pytest.raises(FormatError, match="function value"):
            agler_norm_lower_bound(f, [szego_samples(TWO_POINTS)])

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

    @pytest.mark.parametrize(
        "n, d, family",
        [(2, 1, "szego"), (2, 3, "operator"), (5, 2, "szego"), (8, 1, "operator"),
         (13, 3, "szego"), (20, 2, "operator"), (32, 1, "szego"), (32, 2, "szego"),
         (32, 3, "szego"), (32, 2, "operator")],
    )
    def test_the_bracket_is_certified_and_matches_bisection(self, n, d, family):
        atol = 1e-9
        for seed in range(3):
            zs, f = random_disc_values(n, d, seed=1000 * n + 10 * d + seed)
            if family == "szego":
                kernels = [szego_samples(zs), szego_samples(zs, power=2)]
            else:
                kernels = operator_kernels(zs)
            for ks in (kernels[:1], kernels):
                lo, hi, _ = testfn._norm_bracket(f, ks, atol)
                assert hi == agler_norm_lower_bound(f, ks, atol)
                assert all(schur_agler_witness_check(f, s, hi, atol) for s in ks)
                assert not all(schur_agler_witness_check(f, s, lo, atol) for s in ks)
                assert hi**2 - lo**2 <= atol
                assert abs(hi**2 - bisection_bound(f, ks, atol) ** 2) <= atol

    def test_the_certify_large_shape_takes_few_checks(self, witness_checks):
        zs, f = random_disc_values(32, 2, seed=4)
        kernels = [szego_samples(zs), szego_samples(zs, power=2)]
        _, _, checks = testfn._norm_bracket(f, kernels, 1e-9)
        assert checks == len(witness_checks)
        assert checks <= 15

    def test_a_tiny_tolerance_takes_no_more_checks_than_bisection(self, witness_checks):
        s = szego_samples(TWO_POINTS)
        f = [np.array([[2.0 * z]]) for z in TWO_POINTS]
        lo, hi, checks = testfn._norm_bracket(f, [s], 1e-300)
        assert checks == len(witness_checks)
        # the parent's blind bisection took 56 checks here
        assert checks <= 56
        # the bracket ends as two adjacent doubles, certified at both
        assert lo < hi == np.nextafter(lo, np.inf)
        assert schur_agler_witness_check(f, s, hi, 1e-300)
        assert not schur_agler_witness_check(f, s, lo, 1e-300)
