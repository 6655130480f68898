"""Sampled families, kernels, and positivity checks."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colligate.testfn as testfn
from colligate import realization
from colligate import (
    DimensionError,
    FormatError,
    HermitianKernel,
    PointSet,
    Representation,
    StructureError,
    TableDiagnostics,
    ToleranceError,
    agler_norm_lower_bound,
    coordinate_representation,
    cp_kernel_check,
    disc_points,
    disc_table,
    eval_map,
    evaluate_all,
    is_admissible,
    is_psd,
    load_kernel,
    product,
    random_colligation,
    random_representation,
    rep_apply,
    save_kernel,
    schur_agler_witness_check,
    szego_samples,
    validate_test_family,
)
from colligate import TestFunctionTable as FunctionTable
from conftest import bidisc_table, random_table

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
    return labelled(values)


def labelled(values) -> FunctionTable:
    """A table of the given values on points labelled x0, x1, ..."""
    values = np.atleast_2d(values)
    return FunctionTable(PointSet(tuple(f"x{k}" for k in range(values.shape[1]))), values)


def axis_table() -> FunctionTable:
    """Disc points on the imaginary axis, some repeated or 1e-12 apart:
    only one part of one function varies, so the sort key ties often."""
    y = np.linspace(-0.9, 0.9, 37)
    return labelled(1j * np.concatenate([[0.0], y, y[::5], y[::7] + 1e-12]))


def grid_table() -> FunctionTable:
    """A bidisc grid 0.25 apart on the real and on the imaginary axes, with
    its first row repeated: many points share one coordinate."""
    g = np.linspace(-0.75, 0.75, 7)
    pairs = [(a, b) for a in g for b in g] + [(1j * a, 1j * b) for a in g for b in g]
    return labelled(np.array([(0.0, 0.0)] + pairs + pairs[:7]).T)


def large_table() -> FunctionTable:
    """A planted table scaled by 1e150, beside columns at +-1e308 whose
    differences overflow: far from contractive."""
    big = [[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308], [1e308, 1e308]]
    return labelled(np.hstack([1e150 * planted_table(2, 80, seed=7).values, np.array(big).T]))


# each table with the positive atols to try beside 0.0
SWEEP_TABLES = {
    "disc points on the imaginary axis": lambda: (axis_table(), (1e-12, 1e-9, 0.05)),
    "bidisc grid": lambda: (grid_table(), (1e-12, 0.25, 0.3)),
    "large non-contractive values": lambda: (large_table(), (1e138, 1e140, 1e142, 1e300)),
    "every column equal": lambda: (labelled(np.zeros((3, 50))), (1.0,)),
}


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


# (n, d, kernel family) of the norm-bound grid; certify-large's shape is (32, 2, szego)
BRACKET_GRID = [
    (2, 1, "szego"), (2, 3, "operator"), (5, 2, "szego"), (8, 1, "operator"),
    (13, 3, "szego"), (20, 2, "operator"), (32, 1, "szego"), (32, 2, "szego"),
    (32, 3, "szego"), (32, 2, "operator"),
]


def bracket_case(n: int, d: int, family: str, seed: int):
    """(zs, values, kernels) of one grid case: random contractive values
    against the Szego kernels of power 1 and 2, or their operator forms."""
    zs, f = random_disc_values(n, d, seed=1000 * n + 10 * d + seed)
    if family == "szego":
        return zs, f, [szego_samples(zs), szego_samples(zs, power=2)]
    return zs, f, operator_kernels(zs)


def min_newton_reference(f, kernels, atol: float) -> tuple[float, int]:
    """The Newton point and the number of eigh calls of the loop that each
    step took all kernels' lowest pairs and followed the binding one, the
    kernel with the smallest eigenvalue, as first written."""
    f = np.asarray(f, dtype=np.complex128)
    gram = np.einsum("iba,jbc->ijac", f.conj(), f)
    eye, eps = np.eye(f.shape[1]), np.finfo(float).eps
    t, calls = 0.0, 0

    def lowest_pair(head, s):
        vals, vecs = np.linalg.eigh(testfn._witness_matrix(head, s))
        v = vecs[:, 0].reshape(s.n, head.shape[2], s.block_dim)
        slope = np.einsum("iac,ijce,jae->", v.conj(), s.blocks.conj(), v)
        return float(vals[0]), float(slope.real)

    for _ in range(64):
        lowest, slope = min(lowest_pair(t * eye - gram, s) for s in kernels)
        calls += len(kernels)
        phi = lowest + atol
        if phi >= 0.0 or slope <= 0.0:
            break
        step = -phi / slope
        t += step
        if step <= max(atol, 4.0 * eps * t):
            break
    return t, calls


@pytest.fixture
def eigensolves(monkeypatch):
    """Count numpy's eigh and eigvalsh calls by name: in the norm bound these
    are its witness checks and steps, the warm start's diagonal blocks and
    the kernel checks."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        solve = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return solve(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


@pytest.fixture
def iterates(monkeypatch):
    """Every t the norm bound's step loop reaches, the warm start included."""
    seen = []
    furthest_step = testfn._furthest_step

    def recorded(t, *args):
        step, failing, last = furthest_step(t, *args)
        seen.extend((t, t + step))
        return step, failing, last

    monkeypatch.setattr(testfn, "_furthest_step", recorded)
    return seen


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

    def test_same_family_takes_the_same_table_without_comparing(self, monkeypatch):
        t = disc_table(FOUR_POINTS)
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(1) or array_equal(a, b))
        assert t.same_family(t) and compared == []
        # an equal copy is still compared by value
        changed = t.values.copy()
        changed[0, 3] += 1e-16j
        assert t.same_family(FunctionTable(t.points, t.values.copy())) and compared == [1]
        assert not t.same_family(FunctionTable(t.points, changed)) and compared == [1, 1]

    def test_later_writes_to_the_values_change_nothing(self):
        # the repro: writing v[0, 1] = 0.9 moved evaluate_all by 0.56
        v = np.array([[0.0, 0.5]], dtype=complex)
        t = FunctionTable(disc_points(TWO_POINTS), v)
        assert not np.shares_memory(t.values, v) and not t.values.flags.writeable
        col = random_colligation(1, random_representation(1, 2, seed=1), t, seed=1)
        before = evaluate_all(col)
        v[0, 1] = 0.9
        npt.assert_array_equal(t.values, [[0.0, 0.5]])
        npt.assert_array_equal(evaluate_all(col), before)
        with pytest.raises(ValueError):
            t.values[0, 1] = 0.9

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
    def test_sorted_sweep_matches_the_per_point_sweep(self, n, m):
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

    @pytest.mark.parametrize("case", list(SWEEP_TABLES))
    def test_sorted_sweep_matches_on_ties_and_large_values(self, case):
        t, atols = SWEEP_TABLES[case]()
        for atol in (0.0, *atols):
            # the references' differences of +-1e308 overflow; the library's
            # read as inf without a warning
            with np.errstate(over="ignore"):
                pairs, diag = sweep_separation(t, atol), pairwise_diagnostics(t, atol)
            assert validate_test_family(t, atol).separation_violations == pairs
            assert validate_test_family(t, atol) == diag

    @pytest.mark.parametrize("atol", [0.0, 2.0**-20, 1e-9, 0.1])
    def test_a_pair_at_atol_is_flagged_and_one_ulp_beyond_is_not(self, atol):
        beyond = np.nextafter(atol, np.inf)
        # points 1 and 2 lie exactly atol from the base point, in a real and an
        # imaginary direction; points 3 and 4 lie one ulp of atol further out
        values = np.array([[0, atol, 0, beyond, 0], [0, 0, 1j * atol, 0, -1j * beyond]])
        t = FunctionTable(PointSet(tuple("abcde")), values)
        diag = validate_test_family(t, atol)
        assert diag == pairwise_diagnostics(t, atol)
        expected = ((0, 1), (0, 2), (1, 2)) + (((1, 3),) if atol else ())
        assert diag.separation_violations == expected

    def test_equal_columns_and_columns_one_ulp_apart_are_flagged(self):
        # the keys of two equal columns can differ in their last bits, and at
        # an atol of one ulp of the values, in the normal and the subnormal
        # range, the keys' own rounding is as wide as the window: only the
        # window's widening keeps such pairs inside it
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            parts = rng.choice([1.0, 1e-310]) * rng.uniform(0.5, 0.95, 2 * m) * rng.choice([-1, 1], 2 * m)
            moved = parts.copy()
            k = rng.integers(2 * m)
            moved[k] = np.nextafter(parts[k], rng.choice([-np.inf, np.inf]))
            x, y = parts[:m] + 1j * parts[m:], moved[:m] + 1j * moved[m:]
            for t, atol in (
                (labelled(np.array([np.zeros(m), x, x]).T), 0.0),
                (labelled(np.array([np.zeros(m), x, y]).T), float(np.max(np.abs(y - x)))),
            ):
                diag = validate_test_family(t, atol)
                assert diag == pairwise_diagnostics(t, atol)
                assert (1, 2) in diag.separation_violations

    @settings(max_examples=60)
    @given(
        steps=st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                       min_size=2, max_size=12),
        atol=st.sampled_from([0.0, 2.0**-30, 1e-9, 0.3]),
        scale=st.sampled_from([1.0, 1e-300, 1e150]),
    )
    def test_columns_a_few_ulps_around_atol_apart_match_the_pairwise_reference(
        self, steps, atol, scale
    ):
        # each column is a path of steps of atol, or one ulp more or less,
        # through the real and imaginary parts of three functions
        sizes = [0.0, np.nextafter(atol, -np.inf) if atol else 0.0, atol, np.nextafter(atol, np.inf)]
        moves = np.array([[np.sign(s) * sizes[abs(s)] for s in row] for row in steps])
        parts = scale * np.cumsum(moves, axis=0).T
        t = labelled(parts[:3] + 1j * parts[3:])
        for tol in (atol, scale * atol):
            assert validate_test_family(t, tol) == pairwise_diagnostics(t, tol)

    def test_five_thousand_points_match_the_per_point_sweep(self):
        t = planted_table(2, 5000, seed=5000)
        for atol in (0.0, 1e-9):
            diag = validate_test_family(t, atol)
            assert diag.separation_violations == sweep_separation(t, atol)
            assert diag.separating is False

    def test_tens_of_thousands_of_pairs_keep_their_order(self):
        # 400 columns taking two values in turn: 39,800 flagged pairs, more
        # than the sweep builds at once, the two values' indices interleaved
        t = labelled(np.tile([[0.0, 0.5j], [0.0, 0.25]], 200))
        for atol in (0.0, 0.1):
            assert validate_test_family(t, atol).separation_violations == sweep_separation(t, atol)

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

    def test_later_writes_to_the_blocks_change_nothing(self):
        # the repro: writing b[0, 1] = b[1, 0] = 5.0 turned is_admissible False
        b = szego_samples(TWO_POINTS).blocks.copy()
        k = HermitianKernel(disc_points(TWO_POINTS), b)
        assert not np.shares_memory(k.blocks, b) and not k.blocks.flags.writeable
        assert is_admissible(k, disc_table(TWO_POINTS))
        b[0, 1] = b[1, 0] = 5.0
        npt.assert_array_equal(k.blocks, szego_samples(TWO_POINTS).blocks)
        assert is_admissible(k, disc_table(TWO_POINTS))
        with pytest.raises(ValueError):
            k.blocks[0, 1] = 5.0

    def test_built_and_loaded_kernels_are_adopted_read_only(self, tmp_path):
        s = szego_samples(TWO_POINTS, power=2)
        assert s.blocks.dtype == np.complex128 and not s.blocks.flags.writeable
        path = str(tmp_path / "k.json")
        save_kernel(s, path)
        back = load_kernel(path)
        assert not back.blocks.flags.writeable
        npt.assert_array_equal(back.blocks, s.blocks)
        with pytest.raises(ValueError, match="read-only"):
            back.blocks[0, 0] = 2.0

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


def agler_model(family: str, d: int, m: int, seed: int):
    """A random isometric colligation over six points whose family is dense,
    coordinate (m to m + 2 coordinates dealt round-robin) or a product of
    the two, so a split."""
    table = random_table(m, 6, seed=seed)
    n = m + seed % 3
    coordinate = random_colligation(
        d, coordinate_representation([n // m + (j < n % m) for j in range(m)]), table,
        seed=seed + 1)
    dense = random_colligation(d, random_representation(m, n, seed=seed + 2), table,
                               seed=seed + 3)
    return {"dense": dense, "coordinate": coordinate, "split": product(dense, coordinate)}[family]


def agler_kernel(col, rep):
    """Gamma(i, j)[g] = G_i* rho(g) G_j, with rho(g) = rep_apply(rep, g) and
    G_i = (I - D L(x_i))^{-1} C from the resolvent kernel."""
    gs = np.concatenate([g for _, g, _ in realization._resolvents(col, np.arange(col.table.n))])
    return lambda i, j, g: gs[i].conj().T @ rep_apply(rep, g) @ gs[j]


class TestCpKernelCheck:
    def test_a_unital_homomorphism_is_completely_positive(self):
        # g -> g I_2 at 2 x 2 sample operators: block (a, b) is
        # conj(f_a) f_b O_a* O_b, a Gram matrix
        sample = ([0, 0], [np.eye(2), [[0, 1], [0, 0]]], [[1], [1]])
        assert cp_kernel_check(lambda i, j, g: g[0] * np.eye(2), disc_table(TWO_POINTS),
                               [sample])

    def test_the_conjugate_sits_on_the_row_argument(self):
        # as in Gamma(i, j)[1 - conj(psi(x_i)) psi(x_j)]: a kernel that is a sum
        # of scalar positive kernels passes under either convention, so the
        # arguments themselves are pinned
        seen = {}

        def k(i, j, g):
            seen[i, j] = np.asarray(g)
            return np.zeros((1, 1))

        f = [np.array([1.0, 2.0j]), np.array([1j, 3.0])]
        assert cp_kernel_check(k, random_table(2, 2, seed=3), [([0, 1], [np.eye(1)] * 2, f)])
        for a, b in np.ndindex(2, 2):
            npt.assert_array_equal(seen[a, b], f[a].conj() * f[b])

    @settings(max_examples=40)
    @given(
        family=st.sampled_from(["dense", "coordinate", "split"]),
        d=st.integers(1, 3),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_the_agler_kernel_of_a_realization_is_completely_positive(self, family, d, m,
                                                                     seed):
        # I - F(x_i)* F(x_j) = Gamma(i, j)[1 - conj(psi(x_i)) psi(x_j)], and Gamma
        # is completely positive since rho is a *-representation; negating one
        # P_k makes the sample at e_k minus a Gram matrix
        col = agler_model(family, d, m, seed)
        n, psi, values = col.table.n, col.table.values, evaluate_all(col)
        gamma = agler_kernel(col, col.rep)
        residual = max(
            float(np.abs(np.eye(d) - values[i].conj().T @ values[j]
                         - gamma(i, j, 1.0 - psi[:, i].conj() * psi[:, j])).max())
            for i in range(n) for j in range(n)
        )
        assert residual <= 1e-12
        rng = np.random.default_rng(seed)
        samples = [
            (rng.integers(0, n, size=count),
             [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for _ in range(count)],
             [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(count)])
            for count in (1, 2, 3, 4)
        ]
        assert cp_kernel_check(gamma, col.table, samples)
        k = seed % m
        stack = col.rep._stack.copy()
        stack[k] *= -1.0
        negated = agler_kernel(col, Representation(tuple(stack)))
        unit = np.eye(m)[k]
        sample = (range(n), [np.eye(d)] * n, [unit] * n)
        assert not cp_kernel_check(negated, col.table, [sample])

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
        StructureError, "1 function values supplied for 2 kernel points",
    ),
    "norm bound over a second kernel on other points": (
        lambda: agler_norm_lower_bound(
            [np.eye(1), np.eye(1)],
            [szego_samples(TWO_POINTS), szego_samples([0.0, 0.25, 0.5])],
        ),
        StructureError, "2 function values supplied for 3 kernel points",
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
    "kernel blocks of strings": (
        lambda: HermitianKernel(disc_points(TWO_POINTS), "abc"),
        FormatError, "kernel must be an array of numbers",
    ),
    "disc table of a string": (
        lambda: disc_table(["a"]),
        FormatError, "disc points must be an array of numbers",
    ),
    "Szego samples of a string": (
        lambda: szego_samples(["0", "x"]),
        FormatError, "disc points must be an array of numbers",
    ),
    "witness value stack of strings": (
        lambda: schur_agler_witness_check(np.array([[["a"]], [["b"]]]),
                                          szego_samples(TWO_POINTS), 1.0),
        FormatError, "function value must be an array of numbers",
    ),
    "sample indices without a length": (
        _cp((5, [np.eye(1)], [ONE])),
        StructureError, "each sample must be (indices, operators, functions)",
    ),
    "sample operators without a length": (
        _cp(([0], 5, [ONE])),
        StructureError, "each sample must be (indices, operators, functions)",
    ),
    "coefficient vector of strings": (
        _cp(([0], [np.eye(1)], ["a"])),
        FormatError, "coefficient vector must be an array of numbers",
    ),
    "witness bound as a string": (
        lambda: schur_agler_witness_check([np.zeros((1, 1))] * 2, szego_samples(TWO_POINTS), "x"),
        StructureError, "bound must be finite and nonnegative, got x",
    ),
    "witness bound None": (
        lambda: schur_agler_witness_check([np.zeros((1, 1))] * 2, szego_samples(TWO_POINTS), None),
        StructureError, "bound must be finite and nonnegative, got None",
    ),
    "boolean witness bound": (
        lambda: schur_agler_witness_check([np.zeros((1, 1))] * 2, szego_samples(TWO_POINTS), True),
        StructureError, "bound must be finite and nonnegative, got True",
    ),
    "NaN witness bound": (
        lambda: schur_agler_witness_check([np.zeros((1, 1))] * 2, szego_samples(TWO_POINTS),
                                          float("nan")),
        StructureError, "bound must be finite and nonnegative, got nan",
    ),
    "integer witness bound beyond the doubles": (
        lambda: schur_agler_witness_check([np.zeros((1, 1))] * 2, szego_samples(TWO_POINTS),
                                          10**400),
        StructureError, f"bound must be finite and nonnegative, got {10**400}",
    ),
    "disc points of a string": (
        lambda: disc_points(["a"]),
        FormatError, "disc points must be an array of numbers",
    ),
    "disc points beyond the doubles": (
        lambda: disc_points([10**400]),
        FormatError, "disc points must be an array of numbers",
    ),
    "admissibility of a string kernel": (
        lambda: is_admissible("x", disc_table(TWO_POINTS)),
        StructureError,
        "admissibility takes a HermitianKernel and a TestFunctionTable, got str and "
        "TestFunctionTable",
    ),
    "admissibility over a table of the wrong type": (
        lambda: is_admissible(szego_samples(TWO_POINTS), disc_points(TWO_POINTS)),
        StructureError,
        "admissibility takes a HermitianKernel and a TestFunctionTable, got HermitianKernel "
        "and PointSet",
    ),
    "disc points of a scalar": (
        lambda: disc_points(5),
        DimensionError, "disc points must be 1-D, got shape ()",
    ),
    "disc table of rows": (
        lambda: disc_table([[0.0, 0.5]]),
        DimensionError, "disc points must be 1-D, got shape (1, 2)",
    ),
    "point labels of a scalar": (
        lambda: PointSet(5),
        StructureError, "point labels must be a sequence, got 5",
    ),
    "Szego power as a string": (
        lambda: szego_samples(TWO_POINTS, power="x"),
        StructureError, "power must be an integer, got 'x'",
    ),
    "fractional Szego power": (
        lambda: szego_samples(TWO_POINTS, power=1.5),
        StructureError, "power must be an integer, got 1.5",
    ),
    "boolean Szego power": (
        lambda: szego_samples(TWO_POINTS, power=True),
        StructureError, "power must be an integer, got True",
    ),
    "Szego power below one": (
        lambda: szego_samples(TWO_POINTS, power=0),
        StructureError, "power must be at least 1, got 0",
    ),
    "norm bound over an int in a kernel list": (
        lambda: agler_norm_lower_bound([np.zeros((1, 1))], [5]),
        StructureError, "kernel must be a HermitianKernel, got int",
    ),
    "norm bound over a kernel list that is not iterable": (
        lambda: agler_norm_lower_bound([np.zeros((1, 1))], 5),
        StructureError, "kernels must be an iterable of HermitianKernels, got int",
    ),
    "witness check against a string kernel": (
        lambda: schur_agler_witness_check([np.zeros((1, 1))], "x", 1.0),
        StructureError, "kernel must be a HermitianKernel, got str",
    ),
    "norm bound over an int for the values": (
        lambda: agler_norm_lower_bound(5, [szego_samples(TWO_POINTS)]),
        StructureError, "function values must be an iterable of square matrices, got int",
    ),
    "norm bound over None for the values": (
        lambda: agler_norm_lower_bound(None, [szego_samples(TWO_POINTS)]),
        StructureError, "function values must be an iterable of square matrices, got NoneType",
    ),
    "witness check over None for the values": (
        lambda: schur_agler_witness_check(None, szego_samples(TWO_POINTS), 1.0),
        StructureError, "function values must be an iterable of square matrices, got NoneType",
    ),
    "kernel on an int point set": (
        lambda: HermitianKernel(5, np.ones((1, 1, 1, 1))),
        StructureError, "a kernel takes a PointSet, got int",
    ),
    "validation of a string": (
        lambda: validate_test_family("x"),
        StructureError, "family validation takes a TestFunctionTable, got str",
    ),
    "validation of a point set": (
        lambda: validate_test_family(disc_points(TWO_POINTS)),
        StructureError, "family validation takes a TestFunctionTable, got PointSet",
    ),
    "table on a string point set": (
        lambda: FunctionTable("x", np.zeros((1, 1))),
        StructureError, "a test function table takes a PointSet, got str",
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


class TestDiscPoints:
    def test_labels_are_the_coordinates_as_python_complex_strings(self):
        zs = [0, -0.0, 0.5, np.float32(0.25), np.complex64(0.3 + 0.1j), -0.25j]
        expected = tuple(str(complex(z)) for z in zs)
        assert expected[:3] == ("0j", "(-0+0j)", "(0.5+0j)")
        assert disc_points(zs).labels == expected
        assert disc_points(np.array(zs, dtype=complex)).labels == expected

    def test_any_iterable_of_points_is_read_once(self):
        for build in (disc_points, lambda zs: disc_table(zs).points,
                      lambda zs: szego_samples(zs).points):
            assert build(z for z in TWO_POINTS).labels == ("0j", "(0.5+0j)")


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
    @settings(max_examples=25)
    def test_monotone_in_the_bound(self, c1, c2):
        lo, hi = sorted([c1, c2])
        s = szego_samples(FOUR_POINTS)
        f = [np.array([[1.3 * z]]) for z in FOUR_POINTS]
        if schur_agler_witness_check(f, s, lo):
            assert schur_agler_witness_check(f, s, hi)


def membership_case(domain: str, n: int, seed: int):
    """A table on n points of the disc or the bidisc, base point first, and
    an admissible kernel on it: the Szego kernel to power 1 or 2, or the
    product Szego kernel 1 / ((1 - z1 conj(w1)) (1 - z2 conj(w2)))."""
    rng = np.random.default_rng(seed)
    m = 2 if domain == "bidisc" else 1
    points = 0.9 * np.sqrt(rng.random((m, n))) * np.exp(2j * np.pi * rng.random((m, n)))
    points[:, 0] = 0.0
    if domain == "bidisc":
        table = bidisc_table([tuple(p) for p in points.T.tolist()])
    else:
        table = disc_table(points[0])
    power = 2 if domain == "disc-2" else 1
    v = table.values
    szego = np.prod(1.0 / (1.0 - v[:, :, None] * v[:, None, :].conj()), axis=0) ** power
    return table, HermitianKernel(table.points, szego[:, :, None, None])


class TestSchurAglerMembership:
    """The transfer function of an isometric colligation is in the
    Schur-Agler class of its test functions: against every admissible
    kernel its values pass the witness check at bound 1."""

    @settings(max_examples=60)
    @given(
        domain=st.sampled_from(["disc-1", "disc-2", "bidisc"]),
        family=st.sampled_from(["coordinate", "dense"]),
        d=st.integers(1, 3),
        extra=st.integers(0, 3),
        n=st.integers(2, 8),
        seed=st.integers(0, 2**16),
    )
    def test_realized_values_pass_at_bound_one(self, domain, family, d, extra, n, seed):
        table, s = membership_case(domain, n, seed)
        assert validate_test_family(table).passed and is_admissible(s, table)
        state = table.m + extra
        if family == "coordinate":
            rep = realization._round_robin_representation(table.m, state)
        else:
            rep = random_representation(table.m, state, seed=seed + 1)
        f = evaluate_all(random_colligation(d, rep, table, seed=seed + 2))
        assert schur_agler_witness_check(f, s, 1.0)
        assert agler_norm_lower_bound(f, [s]) <= 1.0 + 1e-8

    @pytest.mark.parametrize("domain", ["disc-1", "disc-2", "bidisc"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_constant_just_above_one_is_not_in_the_class(self, domain, d):
        table, s = membership_case(domain, 5, seed=d)
        c = 1.0 + 1e-6
        f = np.repeat(c * np.eye(d, dtype=complex)[None], table.n, axis=0)
        assert not schur_agler_witness_check(f, s, 1.0)
        assert agler_norm_lower_bound(f, [s]) == pytest.approx(c, abs=1e-8)


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

    def test_a_failing_kernel_of_zero_slope_ends_newton(self, monkeypatch):
        # v = (1, -1)/sqrt(2) spans the kernel of the all-ones matrix, so the
        # lowest eigenvalue -0.5 has slope v* S v = 0 at t = 0
        ones = HermitianKernel(disc_points(TWO_POINTS), np.ones((2, 2, 1, 1)))
        f = [np.array([[0.5]]), np.array([[-0.5]])]
        steps = []
        furthest_step = testfn._furthest_step

        def recorded(t, gram, kernels, atol, last):
            step, failing, nxt = furthest_step(t, gram, kernels, atol, last)
            steps.append((t, gram, last, step, failing))
            return step, failing, nxt

        monkeypatch.setattr(testfn, "_furthest_step", recorded)
        with pytest.raises(StructureError, match="before rounding exceeds atol"):
            agler_norm_lower_bound(f, [ones])
        # Newton's first step, from the warm start 0.25 - atol
        [(t, gram, last, step, failing)] = steps
        assert last is None and t == pytest.approx(0.25)
        assert step == 0.0 and failing == []
        lowest, slope = testfn._lowest_pair(t * np.eye(1) - gram, ones)
        assert lowest == pytest.approx(-0.5) and slope == 0.0

    @pytest.fixture
    def newton_stops_short(self, monkeypatch):
        """Every step a millionth of its length: each falls far short of the
        threshold, so the widening loop has to place the bracket."""
        furthest_step = testfn._furthest_step

        def short(*args):
            step, failing, last = furthest_step(*args)
            return step * 1e-6, failing, last

        monkeypatch.setattr(testfn, "_furthest_step", short)

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

    def test_kernels_given_as_a_generator_are_read_once(self):
        # a spent generator made the bound 0.0: every check passed on no kernel
        s = szego_samples(TWO_POINTS)
        f = [np.array([[2.0 * z]]) for z in TWO_POINTS]
        assert agler_norm_lower_bound(f, (k for k in [s])) == agler_norm_lower_bound(f, [s])

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

    @pytest.mark.parametrize("n, d, family", BRACKET_GRID)
    def test_the_bracket_is_certified_and_matches_bisection(self, n, d, family):
        atol = 1e-9
        for seed in range(3):
            zs, f, kernels = bracket_case(n, d, family, seed)
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

    @pytest.mark.parametrize("n, d, family", BRACKET_GRID)
    def test_newton_takes_no_more_eighs_than_the_binding_kernel_loop(self, n, d, family,
                                                                     eigensolves):
        atol = 1e-9
        for seed in range(3):
            _, f, kernels = bracket_case(n, d, family, seed)
            bounds = []
            for order in (kernels, kernels[::-1]):
                for ks in (order[:1], order):
                    _, reference = min_newton_reference(f, ks, atol)
                    eigensolves["eigh"] = 0
                    _, hi, _ = testfn._norm_bracket(f, ks, atol)
                    # Newton's first step alone: one eigh per kernel
                    assert eigensolves["eigh"] <= len(ks) <= reference, (seed, len(ks))
                bounds.append(hi)
            # the kernels' order moves the Newton steps, not the certified bound
            assert abs(bounds[0] - bounds[1]) <= atol

    def test_the_grid_takes_one_eigh_per_kernel_and_few_eigvalsh(self, eigensolves):
        cases = [bracket_case(*case, seed)[1:] for case in BRACKET_GRID for seed in range(3)]
        eigensolves.update(eigh=0, eigvalsh=0)
        calls = 0
        for f, kernels in cases:
            for order in (kernels, kernels[::-1]):
                for ks in (order[:1], order):
                    testfn._norm_bracket(f, ks, 1e-9)
                    calls += len(ks)
        # Newton from t = 0 with an eigh at every step took 1,326 eigh and
        # 637 eigvalsh here
        assert eigensolves["eigh"] <= calls == 180
        assert eigensolves["eigvalsh"] <= 2039

    def test_the_certify_large_shape_takes_few_eighs(self, eigensolves):
        zs, f = random_disc_values(32, 2, seed=4)
        kernels = [szego_samples(zs), szego_samples(zs, power=2)]
        # (eigh, eigvalsh) in each order; Newton from t = 0 with an eigh at
        # every step took (9, 6), and the binding-kernel loop 12 eigh in either order
        for ks, most in ((kernels, (2, 14)), (kernels[::-1], (2, 15))):
            eigensolves.update(eigh=0, eigvalsh=0)
            testfn._norm_bracket(f, ks, 1e-9)
            assert eigensolves["eigh"] <= most[0] and eigensolves["eigvalsh"] <= most[1]
            assert eigensolves["eigh"] < min_newton_reference(f, ks, 1e-9)[1]

    @pytest.mark.parametrize("n, d, family", BRACKET_GRID)
    def test_no_step_passes_the_certified_bound(self, n, d, family, iterates):
        atol = 1e-9
        for seed in range(3):
            _, f, kernels = bracket_case(n, d, family, seed)
            for order in (kernels, kernels[::-1]):
                for ks in (order[:1], order):
                    iterates.clear()
                    _, hi, _ = testfn._norm_bracket(f, ks, atol)
                    # Newton from t = 0 reached 3.75e-10 above hi**2
                    assert max(iterates) <= hi**2 + atol, (seed, len(ks))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_the_batched_value_norms_match_the_per_point_loop(self, d):
        # _norm_bracket takes every ‖f(x_i)‖₂ in one call; the start t₀ and
        # the overflow refusal need each to equal the one-matrix norm exactly
        rng = np.random.default_rng(40 + d)
        f = rng.standard_normal((50, d, d)) + 1j * rng.standard_normal((50, d, d))
        loop = [float(np.linalg.norm(v, ord=2)) for v in f]
        assert np.linalg.norm(f, ord=2, axis=(1, 2)).tolist() == loop

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (5, 2), (32, 2), (13, 3)])
    def test_the_gram_grid_matches_the_einsum_reference(self, n, d):
        _, f = random_disc_values(max(n, 2), d, seed=7 * n + d)
        f = f[:n]
        gram = testfn._gram(f)
        assert gram.shape == (n, n, d, d)
        npt.assert_allclose(gram, np.einsum("iba,jbc->ijac", f.conj(), f), rtol=0, atol=1e-15)
