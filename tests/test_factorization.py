"""Split views, the three factorization routes, and their certificates."""

from __future__ import annotations

import zlib

import numpy as np
import numpy.testing as npt
import pytest

from colligate import (
    VARIANTS,
    ColligateError,
    Colligation,
    DimensionError,
    FormatError,
    Representation,
    StructureError,
    WitnessError,
    check_both_vanishing,
    check_general,
    check_vanishing_selfadjoint,
    disc_table,
    evaluate,
    extract_both_vanishing,
    extract_general,
    extract_vanishing_selfadjoint,
    find_LY_witness,
    is_isometry,
    max_abs,
    product,
    random_colligation,
    random_representation,
    solve_general_witnesses,
    split_blocks,
    verify_factorization,
)
from colligate import factorization
from colligate.factorization import VARIANT_TABLE
from conftest import (
    blaschke_colligation,
    bidisc_table,
    conforming_pair,
    coordinate_colligation,
    invertible_pair,
    random_table,
)

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def squared_coordinate():
    table = disc_table([0.0, 0.5, -1.0 / 3.0, 0.25j])
    return product(coordinate_colligation(table), coordinate_colligation(table))


def toy_split(b1=5.0):
    """Hand-built split parent, not isometric, for exercising edge paths."""
    rep = Representation((np.eye(2, dtype=complex),), split=(1, 1))
    table = disc_table([0.0, 0.5])
    col = Colligation(
        rep=rep,
        table=table,
        A=np.zeros((1, 1), dtype=complex),
        B=np.array([[b1, 0.0]], dtype=complex),
        C=np.array([[0.5], [0.0]], dtype=complex),
        D=np.zeros((2, 2), dtype=complex),
    )
    return split_blocks(col)


class TestSplitBlocks:
    def test_blaschke_blocks(self):
        s = split_blocks(blaschke_colligation())
        r = np.sqrt(3.0) / 2.0
        npt.assert_array_equal(s.A, [[0.0]])
        npt.assert_array_equal(s.B1, [[1.0]])
        npt.assert_array_equal(s.B2, [[0.0]])
        npt.assert_array_equal(s.C1, [[0.5]])
        npt.assert_array_equal(s.C2, [[r]])
        npt.assert_array_equal(s.D1, [[0.0]])
        npt.assert_array_equal(s.D2, [[r]])
        npt.assert_array_equal(s.D3, [[-0.5]])
        assert s.dims == (1, 1)
        assert s.value_dim == 1

    def test_missing_split_is_an_error(self):
        table = random_table(1, 3, seed=0)
        col = random_colligation(1, random_representation(1, 3, seed=1), table, seed=2)
        with pytest.raises(StructureError):
            split_blocks(col)

    def test_stray_lower_left_block_is_an_error(self):
        col = blaschke_colligation()
        d = col.D.copy()
        d[1, 0] = 0.25
        bent = Colligation(rep=col.rep, table=col.table, A=col.A, B=col.B, C=col.C, D=d)
        with pytest.raises(StructureError):
            split_blocks(bent)


class TestVanishingSelfadjoint:
    def test_blaschke_witness_passes(self):
        s = split_blocks(blaschke_colligation())
        cert = check_vanishing_selfadjoint(s, np.array([[0.5]]))
        assert cert.verdict
        assert max(cert.residuals.values()) <= 1e-12

    def test_wrong_witness_fails_on_the_gram_condition(self):
        s = split_blocks(blaschke_colligation())
        cert = check_vanishing_selfadjoint(s, np.array([[1.0 / 3.0]]))
        assert not cert.verdict
        assert cert.residuals["gram_match"] == pytest.approx(5.0 / 36.0, abs=1e-15)

    def test_non_selfadjoint_witness_is_flagged(self):
        s = split_blocks(blaschke_colligation())
        cert = check_vanishing_selfadjoint(s, np.array([[0.5j]]))
        assert not cert.verdict
        assert cert.residuals["witness_selfadjoint"] == pytest.approx(1.0)

    def test_singular_witness_reports_infinite_compression(self):
        s = split_blocks(blaschke_colligation())
        cert = check_vanishing_selfadjoint(s, np.zeros((1, 1)))
        assert not cert.verdict
        assert cert.residuals["compression_match"] == float("inf")

    def test_blaschke_extraction_is_exact(self):
        s = split_blocks(blaschke_colligation())
        first, second = extract_vanishing_selfadjoint(s, np.array([[0.5]]))
        r = np.sqrt(3.0) / 2.0
        npt.assert_allclose(first.matrix(), FLIP, atol=1e-12)
        npt.assert_allclose(
            second.matrix(), np.array([[0.5, r], [r, -0.5]]), atol=1e-12
        )
        parent = blaschke_colligation()
        assert verify_factorization(parent, first, second) <= 1e-12

    def test_extraction_refuses_a_failing_witness(self):
        s = split_blocks(blaschke_colligation())
        with pytest.raises(WitnessError) as info:
            extract_vanishing_selfadjoint(s, np.array([[1.0 / 3.0]]))
        assert info.value.certificate is not None
        assert not info.value.certificate.verdict

    def test_inconsistent_witness_cannot_produce_factors(self):
        # conditions hold on the toy blocks, yet the rebuilt first
        # factor is far from isometric and must be refused
        s = toy_split(b1=5.0)
        cert = check_vanishing_selfadjoint(s, np.array([[0.5]]))
        assert cert.verdict
        with pytest.raises(WitnessError, match="first"):
            extract_vanishing_selfadjoint(s, np.array([[0.5]]))


class TestBothVanishing:
    def test_squared_coordinate_witness_is_found(self):
        s = split_blocks(squared_coordinate())
        left, y = find_LY_witness(s)
        npt.assert_allclose(left, [[1.0]], atol=1e-14)
        npt.assert_allclose(y, [[1.0]], atol=1e-14)
        cert = check_both_vanishing(s, left, y)
        assert cert.verdict
        assert max(cert.residuals.values()) <= 1e-14

    def test_scaled_y_misses_d2(self):
        s = split_blocks(squared_coordinate())
        cert = check_both_vanishing(s, np.array([[1.0]]), np.array([[2.0]]))
        assert not cert.verdict
        assert cert.residuals["d2_factors"] == pytest.approx(1.0, abs=1e-15)

    def test_non_isometric_left_witness_is_flagged(self):
        s = split_blocks(squared_coordinate())
        cert = check_both_vanishing(s, np.array([[0.5]]), np.array([[2.0]]))
        assert cert.residuals["l_isometry"] == pytest.approx(0.75, abs=1e-15)

    def test_search_requires_the_vanishing_pattern(self):
        s = split_blocks(blaschke_colligation())
        with pytest.raises(StructureError):
            find_LY_witness(s)

    def test_squared_coordinate_extraction(self):
        s = split_blocks(squared_coordinate())
        first, second = extract_both_vanishing(s, np.array([[1.0]]), np.array([[1.0]]))
        npt.assert_allclose(first.matrix(), FLIP, atol=1e-14)
        npt.assert_allclose(second.matrix(), FLIP, atol=1e-14)
        assert verify_factorization(squared_coordinate(), first, second) == 0.0

    def test_extraction_refuses_a_failing_witness(self):
        s = split_blocks(squared_coordinate())
        with pytest.raises(WitnessError):
            extract_both_vanishing(s, np.array([[1.0]]), np.array([[2.0]]))

    def test_zero_d2_pads_the_witness_from_nothing(self):
        rep = Representation((np.eye(2, dtype=complex),), split=(1, 1))
        table = disc_table([0.0, 0.5])
        col = Colligation(
            rep=rep,
            table=table,
            A=np.zeros((1, 1), dtype=complex),
            B=np.array([[0.5, 0.0]], dtype=complex),
            C=np.array([[0.0], [0.5]], dtype=complex),
            D=np.zeros((2, 2), dtype=complex),
        )
        s = split_blocks(col)
        left, y = find_LY_witness(s)
        assert is_isometry(left, atol=1e-14)
        npt.assert_allclose(y, np.zeros((1, 1)), atol=1e-14)

    def test_bidisc_product_factors_into_the_two_coordinates(self):
        table = bidisc_table([(0.0, 0.0), (0.5, 1.0 / 3.0), (-0.25, 0.5j)])
        parent = product(
            coordinate_colligation(table, which=0),
            coordinate_colligation(table, which=1),
        )
        assert abs(evaluate(parent, 1)[0, 0] - 1.0 / 6.0) < 1e-14
        s = split_blocks(parent)
        left, y = find_LY_witness(s)
        first, second = extract_both_vanishing(s, left, y)
        npt.assert_allclose(first.matrix(), FLIP, atol=1e-14)
        npt.assert_allclose(second.matrix(), FLIP, atol=1e-14)
        npt.assert_array_equal(first.rep.projections[0], [[1.0]])
        npt.assert_array_equal(second.rep.projections[1], [[1.0]])


class TestGeneral:
    def test_factor_witnesses_certify_the_product(self):
        first, second, parent, witnesses = conforming_pair(
            "general", 2, 3, 2, 2, seed=42
        )
        s = split_blocks(parent)
        cert = check_general(
            s, witnesses["A1"], witnesses["A2"], witnesses["X1"], witnesses["Y2"]
        )
        assert cert.verdict
        assert max(cert.residuals.values()) <= 1e-12

    def test_blaschke_rejects_a_fabricated_tuple(self):
        s = split_blocks(blaschke_colligation())
        r = np.sqrt(3.0) / 2.0
        cert = check_general(
            s,
            np.array([[1.0]]),
            np.array([[0.5]]),
            np.array([[1.0]]),
            np.array([[r]]),
        )
        assert not cert.verdict
        assert cert.residuals["column_isometry"] == pytest.approx(1.0, abs=1e-15)
        assert cert.residuals["a_splits"] == pytest.approx(0.5, abs=1e-15)

    def test_squared_coordinate_zero_tuple(self):
        s = split_blocks(squared_coordinate())
        zero = np.zeros((1, 1))
        one = np.ones((1, 1))
        cert = check_general(s, zero, zero, one, one)
        assert cert.verdict
        first, second = extract_general(s, zero, zero, one, one)
        npt.assert_allclose(first.matrix(), FLIP, atol=1e-14)
        npt.assert_allclose(second.matrix(), FLIP, atol=1e-14)
        assert verify_factorization(squared_coordinate(), first, second) == 0.0

    def test_solver_recovers_the_factor_data(self):
        # both base blocks invertible: the least-squares completion is
        # the exact one
        for seed in range(5):
            first, second, parent = invertible_pair(2, 3, 3, 2, seed=7 + seed)
            s = split_blocks(parent)
            x1, y2 = solve_general_witnesses(s, first.A, second.A)
            npt.assert_allclose(x1, first.C, atol=1e-8)
            npt.assert_allclose(y2, second.B, atol=1e-8)
            cert = check_general(s, first.A, second.A, x1, y2)
            assert cert.verdict

    def test_solver_reports_failure_with_residuals(self):
        s = split_blocks(squared_coordinate())
        zero = np.zeros((1, 1))
        with pytest.raises(WitnessError) as info:
            solve_general_witnesses(s, zero, zero)
        cert = info.value.certificate
        assert cert is not None
        assert cert.residuals["d2_splits"] == pytest.approx(1.0, abs=1e-15)

    def test_solver_rejects_a_misshapen_pair(self):
        s = split_blocks(blaschke_colligation())
        with pytest.raises(DimensionError, match="witness A1"):
            solve_general_witnesses(s, np.eye(2), np.eye(1))

    def test_solver_rejects_a_base_mismatch(self):
        s = split_blocks(blaschke_colligation())
        with pytest.raises(WitnessError):
            solve_general_witnesses(s, np.array([[1.0]]), np.array([[1.0]]))


class TestVariantTable:
    def test_variant_names_and_order(self):
        assert VARIANTS == ("vanishing-selfadjoint", "both-vanishing", "general")
        assert tuple(VARIANT_TABLE) == VARIANTS

    @pytest.mark.parametrize("name", VARIANTS)
    def test_given_witnesses_lead_the_argument_order(self, name):
        v = VARIANT_TABLE[name]
        assert v.witnesses[: len(v.given)] == v.given
        assert v.complete is not None or v.given == v.witnesses

    def test_dispatch_reads_the_module_attribute_at_call_time(self, monkeypatch):
        calls = []
        original = factorization.check_vanishing_selfadjoint

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(factorization, "check_vanishing_selfadjoint", spy)
        s = split_blocks(blaschke_colligation())
        cert = VARIANT_TABLE["vanishing-selfadjoint"].check(s, {"A": np.array([[0.5]])})
        assert cert.verdict and len(calls) == 1

    def test_both_vanishing_search_finds_the_pair(self):
        s = split_blocks(squared_coordinate())
        found = VARIANT_TABLE["both-vanishing"].search(s, {})
        assert list(found) == ["L", "Y"]
        assert VARIANT_TABLE["both-vanishing"].check(s, found).verdict

    def test_both_vanishing_search_certifies_a_failed_pattern(self):
        s = split_blocks(blaschke_colligation())
        with pytest.raises(WitnessError) as info:
            VARIANT_TABLE["both-vanishing"].search(s, {})
        cert = info.value.certificate
        assert cert.residuals == {
            "parent_base_vanishes": 0.0,
            "c1_vanishes": 0.5,
            "b2_vanishes": 0.0,
        }
        assert not cert.verdict

    def test_both_vanishing_search_turns_a_rank_failure_into_a_witness_error(self):
        wide = Colligation(
            rep=Representation((np.eye(4, dtype=complex),), split=(2, 2)),
            table=disc_table([0.0, 0.5]),
            A=np.zeros((1, 1), dtype=complex),
            B=np.zeros((1, 4), dtype=complex),
            C=np.zeros((4, 1), dtype=complex),
            D=np.block([[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 4))]]),
        )
        s = split_blocks(wide)
        with pytest.raises(WitnessError, match="no witness pair exists: rank 2"):
            VARIANT_TABLE["both-vanishing"].search(s, {})

    def test_general_search_keeps_the_given_pair(self):
        first, second, parent = invertible_pair(2, 2, 2, 2, seed=11)
        s = split_blocks(parent)
        found = VARIANT_TABLE["general"].search(s, {"A1": first.A, "A2": second.A})
        assert list(found) == ["A1", "A2", "X1", "Y2"]
        first_back, _ = VARIANT_TABLE["general"].extract(s, found)
        npt.assert_array_equal(first_back.A, first.A)


class TestNonFiniteWitness:
    def test_nan_witness_is_a_format_error(self):
        s = split_blocks(blaschke_colligation())
        with pytest.raises(FormatError, match="non-finite") as info:
            check_vanishing_selfadjoint(s, [[float("nan")]])
        assert isinstance(info.value, ColligateError)
        assert isinstance(info.value, ValueError)


class TestVerifyFactorization:
    def test_family_mismatch_is_an_error(self):
        parent = squared_coordinate()
        other = disc_table([0.0, 0.25])
        f = coordinate_colligation(other)
        with pytest.raises(StructureError):
            verify_factorization(parent, f, f)

    def test_value_dim_mismatch_is_an_error(self):
        table = random_table(1, 3, seed=600)
        one = random_colligation(1, random_representation(1, 2, seed=601), table, seed=602)
        two = random_colligation(2, random_representation(1, 2, seed=603), table, seed=604)
        with pytest.raises(DimensionError):
            verify_factorization(two, one, one)


VARIANT_SWEEP = [
    ("vanishing-selfadjoint", 1e-8),
    ("both-vanishing", 1e-8),
    ("general", 1e-8),
]


@pytest.mark.parametrize("variant,tol", VARIANT_SWEEP)
def test_round_trip_over_random_models(variant, tol):
    rng = np.random.default_rng(zlib.crc32(variant.encode()))
    for trial in range(10):
        seed = int(rng.integers(0, 2**31))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        n1 = max(d, int(rng.integers(1, 5)))
        n2 = max(d, int(rng.integers(1, 5)))
        first, second, parent, witnesses = conforming_pair(
            variant, d, n1, n2, m, seed=seed
        )
        s = split_blocks(parent)
        if variant == "vanishing-selfadjoint":
            cert = check_vanishing_selfadjoint(s, witnesses["A"])
            out = extract_vanishing_selfadjoint(s, witnesses["A"])
        elif variant == "both-vanishing":
            left, y = find_LY_witness(s)
            cert = check_both_vanishing(s, left, y)
            out = extract_both_vanishing(s, left, y)
        else:
            cert = check_general(
                s, witnesses["A1"], witnesses["A2"], witnesses["X1"], witnesses["Y2"]
            )
            out = extract_general(
                s, witnesses["A1"], witnesses["A2"], witnesses["X1"], witnesses["Y2"]
            )
        assert cert.verdict, (variant, seed, cert.residuals)
        f1, f2 = out
        assert is_isometry(f1.matrix(), atol=tol)
        assert is_isometry(f2.matrix(), atol=tol)
        assert verify_factorization(parent, f1, f2) <= tol
