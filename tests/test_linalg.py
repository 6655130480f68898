"""Dense-matrix helpers: ranks, positivity, isometric completions."""

from __future__ import annotations

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colligate import (
    DimensionError,
    FormatError,
    OrthogonalityError,
    PaddingError,
    RankError,
    StructureError,
    ToleranceError,
    check_general,
    injective_on_range,
    is_isometry,
    is_psd,
    isometric_factor,
    max_abs,
    orthonormal_range_basis,
    random_isometry,
    split_blocks,
)
from colligate.linalg import _isometry_defect, as_matrix
from conftest import conforming_pair


def _randc(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestMaxAbs:
    def test_picks_largest_modulus(self):
        assert max_abs(np.array([[1.0, -2.0], [0.5j, 1.5 + 2j]])) == pytest.approx(2.5)

    def test_empty_is_zero(self):
        assert max_abs(np.zeros((0, 3))) == 0.0

    def test_nan_counts_as_infinite(self):
        assert max_abs(np.array([[1.0, np.nan]])) == np.inf

    @pytest.mark.parametrize(
        "value, expected",
        [
            (np.array(-2.5), 2.5),
            (np.array([[-0.0]]), 0.0),
            (np.array([[1.0, -np.inf]]), np.inf),
            (np.array([[1.0, complex(2.0, np.nan)]]), np.inf),
            (np.array([[complex(np.inf, 1.0)]]), np.inf),
        ],
    )
    def test_zero_d_signed_zero_and_non_finite_inputs(self, value, expected):
        worst = max_abs(value)
        assert type(worst) is float and worst == expected
        assert not np.signbit(worst)


class TestIsIsometry:
    def test_accepts_unitary(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(_randc(rng, 5, 5))
        assert is_isometry(q)

    def test_accepts_tall_isometry(self):
        assert is_isometry(random_isometry(6, 2, seed=1))

    def test_rejects_contraction(self):
        assert not is_isometry(0.5 * np.eye(3))

    def test_wide_matrix_is_an_error(self):
        with pytest.raises(DimensionError):
            is_isometry(np.ones((2, 4)))

    def test_tolerance_boundary(self):
        m = np.eye(3) * np.sqrt(1.0 + 5e-7)
        assert is_isometry(m, atol=1e-6)
        assert not is_isometry(m, atol=1e-8)


class TestIsometryDefect:
    """``_isometry_defect`` takes I off the Gram product's diagonal in place;
    the reference subtracts a fresh identity."""

    @staticmethod
    def reference(a: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return max_abs(a.conj().T @ a - np.eye(a.shape[1]))

    @pytest.mark.parametrize("rows, cols", [(5, 2), (4, 4), (3, 0), (0, 0), (1, 1)])
    def test_bit_identical_to_subtracting_the_identity(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        for a in (_randc(rng, rows, cols), random_isometry(max(rows, cols), cols, seed=3)):
            a = np.ascontiguousarray(a[:rows])
            assert _isometry_defect(a) == self.reference(a)
            assert _isometry_defect(a.T.copy().T) == self.reference(a)

    @pytest.mark.parametrize("entry", [-0.0, complex(-0.0, -0.0), np.inf, -np.inf,
                                       complex(0.0, np.inf), np.nan, complex(1.0, np.nan)],
                             ids=repr)
    def test_signed_zero_and_non_finite_entries(self, entry):
        for a in (np.array([[entry]], dtype=complex), np.array([[1.0, 0.0], [0.0, entry], [0.0, 0.0]])):
            defect = _isometry_defect(a.astype(complex))
            assert defect == self.reference(a.astype(complex))
            assert type(defect) is float and not np.signbit(defect)

    def test_the_input_is_left_as_it_was(self):
        a = random_isometry(4, 3, seed=8)
        kept = a.copy()
        _isometry_defect(a)
        npt.assert_array_equal(a, kept)


class TestIsPsd:
    def test_gram_matrix_passes(self):
        rng = np.random.default_rng(2)
        g = _randc(rng, 4, 6)
        assert is_psd(g @ g.conj().T)

    def test_negative_direction_fails(self):
        assert not is_psd(np.diag([1.0, -0.1, 3.0]))

    def test_non_hermitian_fails(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert not is_psd(m)

    def test_empty_matrix_passes(self):
        assert is_psd(np.zeros((0, 0)))

    def test_entries_near_the_float_max_do_not_overflow(self):
        big = np.diag([1e308, 1.7e308])
        assert is_psd(big)
        assert not is_psd(-big)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_gram_positivity_property(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        g = _randc(rng, rows, cols)
        assert is_psd(g @ g.conj().T, atol=1e-10)


class TestNumericalRank:
    def test_outer_product_has_rank_one(self):
        rng = np.random.default_rng(3)
        u = _randc(rng, 5, 1)
        v = _randc(rng, 1, 4)
        assert orthonormal_range_basis(u @ v).shape[1] == 1

    def test_sum_of_independent_outer_products(self):
        rng = np.random.default_rng(4)
        m = sum(_randc(rng, 6, 1) @ _randc(rng, 1, 6) for _ in range(3))
        assert orthonormal_range_basis(m).shape[1] == 3

    def test_threshold_is_absolute_below_unit_scale(self):
        rng = np.random.default_rng(5)
        tiny = 1e-20 * _randc(rng, 4, 4)
        assert orthonormal_range_basis(tiny).shape[1] == 0

    def test_scaling_does_not_change_rank_above_unit_scale(self):
        rng = np.random.default_rng(6)
        u = _randc(rng, 5, 2)
        m = 1e8 * (u @ u.conj().T)
        assert orthonormal_range_basis(m).shape[1] == 2


class TestOrthonormalRangeBasis:
    def test_columns_are_orthonormal_and_span(self):
        rng = np.random.default_rng(7)
        m = _randc(rng, 6, 3) @ _randc(rng, 3, 5)
        q = orthonormal_range_basis(m)
        assert q.shape == (6, 3)
        npt.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
        npt.assert_allclose(q @ (q.conj().T @ m), m, atol=1e-10)

    def test_zero_matrix_gives_empty_basis(self):
        assert orthonormal_range_basis(np.zeros((4, 2))).shape == (4, 0)

    def test_matrix_without_columns_gives_empty_basis(self):
        basis = orthonormal_range_basis(np.zeros((3, 0)))
        assert basis.shape == (3, 0) and basis.dtype == np.complex128


class TestIsometricFactor:
    def test_reconstructs_the_input(self):
        rng = np.random.default_rng(8)
        d2 = _randc(rng, 6, 2)
        left, y = isometric_factor(d2, 3)
        assert left.shape == (6, 3)
        assert is_isometry(left, atol=1e-12)
        npt.assert_allclose(left @ y, d2, atol=1e-12)

    def test_padding_respects_orthogonal_to(self):
        e = np.eye(6, dtype=np.complex128)
        d2 = e[:, :1] @ np.ones((1, 2))
        other = e[:, 3:5]
        left, y = isometric_factor(d2, 3, orthogonal_to=other)
        npt.assert_allclose(left @ y, d2, atol=1e-12)
        assert max_abs(left.conj().T @ other) < 1e-12

    def test_rank_above_target_is_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(RankError):
            isometric_factor(_randc(rng, 5, 4), 2)

    def test_overlapping_ranges_are_rejected(self):
        e = np.eye(4, dtype=np.complex128)
        with pytest.raises(OrthogonalityError):
            isometric_factor(e[:, :2], 2, orthogonal_to=e[:, 1:3])

    def test_no_room_to_pad_is_rejected(self):
        e = np.eye(3, dtype=np.complex128)
        with pytest.raises(PaddingError):
            isometric_factor(e[:, :1], 2, orthogonal_to=e[:, 1:])

    def test_zero_input_with_zero_columns(self):
        left, y = isometric_factor(np.zeros((4, 2)), 0)
        assert left.shape == (4, 0)
        assert y.shape == (0, 2)


def _range_intersection_dim(a: np.ndarray, b: np.ndarray) -> int:
    """Dimension of the intersection of ranges by rank counting."""
    ra = orthonormal_range_basis(a).shape[1]
    rb = orthonormal_range_basis(b).shape[1]
    return ra + rb - orthonormal_range_basis(np.hstack([a, b])).shape[1]


class TestInjectiveOnRange:
    def test_vacuous_when_range_is_trivial(self):
        assert injective_on_range(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_detects_kernel_overlap(self):
        # mstar kills e0; r's range contains e0
        mstar = np.diag([0.0, 1.0, 1.0])
        r = np.eye(3)[:, :1]
        assert not injective_on_range(mstar, r)

    def test_passes_when_kernel_misses_range(self):
        mstar = np.diag([0.0, 1.0, 1.0])
        r = np.eye(3)[:, 1:]
        assert injective_on_range(mstar, r)

    def test_flat_operator_cannot_be_injective_on_big_range(self):
        mstar = np.ones((1, 3))
        r = np.eye(3)[:, :2]
        assert not injective_on_range(mstar, r)

    def test_against_kernel_intersection_oracle(self):
        # injectivity on range(r) fails exactly when ker(mstar) meets
        # range(r) nontrivially; compare with a rank-counting oracle on
        # small known-rank constructions
        rng = np.random.default_rng(10)
        for rows, cols, rank_m, rank_r in itertools.product(
            range(1, 5), range(1, 5), range(0, 4), range(0, 4)
        ):
            rank_m = min(rank_m, rows, cols)
            rank_r = min(rank_r, cols)
            mstar = (
                _randc(rng, rows, rank_m) @ _randc(rng, rank_m, cols)
                if rank_m
                else np.zeros((rows, cols), dtype=np.complex128)
            )
            r = (
                _randc(rng, cols, rank_r) @ _randc(rng, rank_r, 3)
                if rank_r
                else np.zeros((cols, 3), dtype=np.complex128)
            )
            _, _, vh = np.linalg.svd(mstar)
            kernel = vh[rank_m:].conj().T
            q = orthonormal_range_basis(r)
            if q.shape[1] == 0 or kernel.shape[1] == 0:
                expected = True
            else:
                expected = _range_intersection_dim(kernel, q) == 0
            assert injective_on_range(mstar, r) == expected, (
                rows,
                cols,
                rank_m,
                rank_r,
            )


class TestRandomIsometry:
    def test_deterministic_per_seed(self):
        npt.assert_array_equal(random_isometry(5, 3, seed=11), random_isometry(5, 3, seed=11))

    def test_distinct_seeds_differ(self):
        assert max_abs(random_isometry(5, 3, seed=0) - random_isometry(5, 3, seed=1)) > 1e-3

    def test_is_isometry(self):
        assert is_isometry(random_isometry(7, 4, seed=12), atol=1e-12)

    def test_too_few_rows_is_an_error(self):
        with pytest.raises(DimensionError):
            random_isometry(2, 3, seed=0)

    @pytest.mark.parametrize("seed", [-1, -5, None, True, False, 1.0, 2.5, "3", [3]], ids=repr)
    def test_a_seed_that_is_not_a_nonnegative_integer_is_refused(self, seed):
        # numpy would raise a bare ValueError for a negative seed, and draw
        # an unseeded stream for None
        with pytest.raises(StructureError) as info:
            random_isometry(2, 2, seed)
        assert str(info.value) == f"seed must be a nonnegative integer, got {seed!r}"

    @pytest.mark.parametrize("rows, cols, name, value", [
        (2.5, 2, "rows", 2.5), (3, 2.0, "cols", 2.0), (True, 1, "rows", True), ("3", 2, "rows", "3"),
    ])
    def test_a_dimension_that_is_not_an_integer_is_refused(self, rows, cols, name, value):
        with pytest.raises(StructureError) as info:
            random_isometry(rows, cols, 0)
        assert type(info.value) is StructureError
        assert str(info.value) == f"{name} must be an integer, got {value!r}"

    def test_a_numpy_integer_seed_is_the_same_seed(self):
        npt.assert_array_equal(random_isometry(4, 2, np.int64(7)), random_isometry(4, 2, 7))
        npt.assert_array_equal(random_isometry(4, 2, np.uint8(0)), random_isometry(4, 2, 0))


GUARDS = {
    "3-D matrix": (
        lambda: as_matrix(np.zeros((2, 2, 2)), "witness"),
        DimensionError, "witness must be 2-D, got shape (2, 2, 2)",
    ),
    "non-square psd candidate": (
        lambda: is_psd(np.zeros((2, 3))),
        DimensionError, "psd candidate must be square, got (2, 3)",
    ),
    "negative target dimension": (
        lambda: isometric_factor(np.eye(2), -1),
        DimensionError, "target_dim must be nonnegative",
    ),
    "fractional target dimension": (
        lambda: isometric_factor(np.eye(2), 1.5),
        StructureError, "target_dim must be an integer, got 1.5",
    ),
    "orthogonal_to of another height": (
        lambda: isometric_factor(np.eye(2), 2, orthogonal_to=np.eye(3)),
        DimensionError, "orthogonal_to has 3 rows, expected 2",
    ),
    "injectivity over mismatched shapes": (
        lambda: injective_on_range(np.zeros((2, 3)), np.zeros((2, 2))),
        DimensionError, "mstar has 3 columns but r has 2 rows",
    ),
    "isometry candidate of strings": (
        lambda: is_isometry("abc"),
        FormatError, "matrix must be an array of numbers",
    ),
    "ragged witness": (
        lambda: as_matrix([[1.0, 2.0], [3.0]], "witness"),
        FormatError, "witness must be an array of numbers",
    ),
    "matrix entry beyond the doubles": (
        lambda: as_matrix([[10**400]]),
        FormatError, "matrix must be an array of numbers",
    ),
    "isometry of negative width": (
        lambda: random_isometry(2, -1, 0),
        DimensionError, "cannot build a 2x-1 isometry, need rows >= cols >= 0",
    ),
    "boolean tolerance of a psd test": (
        lambda: is_psd(-0.5 * np.eye(2), atol=True),
        ToleranceError, "atol must be finite and nonnegative, got True",
    ),
    "numpy boolean tolerance": (
        lambda: is_isometry(np.eye(2), atol=np.True_),
        ToleranceError, "atol must be finite and nonnegative, got True",
    ),
    "boolean tolerance of a general check": (
        lambda: _general_check_at(True),
        ToleranceError, "atol must be finite and nonnegative, got True",
    ),
    "tolerance None": (
        lambda: is_psd(np.eye(2), atol=None),
        ToleranceError, "atol must be finite and nonnegative, got None",
    ),
    "tolerance as a string": (
        lambda: orthonormal_range_basis(np.eye(2), atol="1e-9"),
        ToleranceError, "atol must be finite and nonnegative, got 1e-9",
    ),
    "complex tolerance": (
        lambda: is_psd(np.eye(2), atol=1j),
        ToleranceError, "atol must be finite and nonnegative, got 1j",
    ),
    "integer tolerance beyond the doubles": (
        lambda: is_psd(np.eye(2), atol=10**400),
        ToleranceError, f"atol must be finite and nonnegative, got {10**400}",
    ),
    "largest modulus of a string": (
        lambda: max_abs("x"),
        FormatError, "max_abs takes an array of numbers, got str",
    ),
    "largest modulus of None": (
        lambda: max_abs(None),
        FormatError, "max_abs takes an array of numbers, got NoneType",
    ),
    "largest modulus of a list holding an object": (
        lambda: max_abs([1.0, object()]),
        FormatError, "max_abs takes an array of numbers, got list",
    ),
}


def _general_check_at(atol):
    """check_general on a product split of value dimension 1 with the witness
    (A, 1, C1, B2), whose verdict at the default atol is False."""
    s = split_blocks(conforming_pair("general", 1, 2, 2, 1, seed=5)[2])
    return check_general(s, s.A, np.eye(1), s.C1, s.B2, atol=atol)


class TestGuards:
    """Each refusal of bad input, with its class and its full message."""

    @pytest.mark.parametrize("case", list(GUARDS))
    def test_bad_input_is_refused_with_its_message(self, case):
        call, error, message = GUARDS[case]
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message

    def test_the_boolean_tolerance_case_fails_at_the_default_atol(self):
        assert not _general_check_at(1e-9).verdict

    def test_a_huge_finite_entry_is_no_isometry(self):
        # the Gram product overflows without a numpy warning
        assert not is_isometry(np.array([[1e300, 0.0], [0.0, 1.0]]))
