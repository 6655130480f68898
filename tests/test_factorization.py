"""Split views, the three factorization routes, and their certificates."""

from __future__ import annotations

import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colligate import (
    VARIANTS,
    ColligateError,
    Colligation,
    DimensionError,
    FormatError,
    Representation,
    StructureError,
    ToleranceError,
    WitnessError,
    check_both_vanishing,
    check_general,
    check_vanishing_selfadjoint,
    coordinate_representation,
    direct_sum,
    disc_table,
    evaluate,
    evaluate_all,
    extract_both_vanishing,
    extract_general,
    extract_vanishing_selfadjoint,
    find_LY_witness,
    is_isometry,
    max_abs,
    product,
    random_colligation,
    random_isometry,
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
    is_coordinate,
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

    def test_a_representation_that_does_not_reduce_is_an_error(self):
        col = blaschke_colligation()
        p = np.array(col.rep.projections[0])
        p[0, 1] = 0.25
        bent = Colligation(rep=Representation((p,), split=col.rep.split), table=col.table,
                           A=col.A, B=col.B, C=col.C, D=col.D)
        with pytest.raises(StructureError) as info:
            split_blocks(bent)
        assert str(info.value) == "representation does not reduce along the recorded split"

    def test_stray_lower_left_block_is_an_error(self):
        col = blaschke_colligation()
        d = col.D.copy()
        d[1, 0] = 0.25
        bent = Colligation(rep=col.rep, table=col.table, A=col.A, B=col.B, C=col.C, D=d)
        with pytest.raises(StructureError):
            split_blocks(bent)

    @pytest.mark.parametrize("atol", [float("inf"), float("nan"), -1.0])
    def test_non_finite_or_negative_tolerance_is_refused(self, atol):
        # an infinite or NaN atol would let any stray block through
        with pytest.raises(ToleranceError):
            split_blocks(blaschke_colligation(), atol=atol)


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
        with pytest.raises(WitnessError, match="vanishing pattern fails") as info:
            find_LY_witness(s)
        assert info.value.certificate.residuals == pytest.approx(
            {"parent_base_vanishes": 0.0, "c1_vanishes": 0.5, "b2_vanishes": 0.0},
            abs=1e-15,
        )

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

    def test_a_search_without_a_completion_returns_the_given_witnesses(self):
        s = split_blocks(blaschke_colligation())
        a = np.array([[0.5]], dtype=complex)
        found = VARIANT_TABLE["vanishing-selfadjoint"].search(s, {"A": a})
        assert list(found) == ["A"] and found["A"] is a
        assert VARIANT_TABLE["vanishing-selfadjoint"].check(s, found).verdict

    @pytest.mark.parametrize("variant, given, names", [
        ("general", {}, "'A1' and 'A2'"),
        ("general", {"A1": np.eye(2)}, "'A1' and 'A2'"),
        ("vanishing-selfadjoint", {}, "'A'"),
    ])
    def test_a_search_missing_a_given_witness_is_refused(self, variant, given, names):
        first, second, parent = invertible_pair(2, 2, 2, 2, seed=11)
        with pytest.raises(StructureError) as info:
            VARIANT_TABLE[variant].search(split_blocks(parent), given)
        assert str(info.value) == f"{variant} variant needs a witness document with {names}"


def acceptance_shape(variant: str, seed: int) -> tuple[int, int, int, int]:
    """(d, m, n1, n2) on the grid of acceptance criterion 3."""
    d = 1 + seed % 3
    m = 1 + (seed // 3) % 3
    n1 = 1 + (seed // 9) % 4
    n2 = 1 + (seed // 7) % 4
    if variant != "general":
        n1, n2 = max(n1, d), max(n2, d)
    return d, m, n1, n2


def slack_split():
    """Split parent whose rebuilt first factor misses isometry by 4e-9."""
    rep = Representation((np.eye(2, dtype=complex),), split=(1, 1))
    col = Colligation(
        rep=rep,
        table=disc_table([0.0, 0.5]),
        A=np.zeros((1, 1), dtype=complex),
        B=np.array([[1.0 + 2e-9, 0.0]], dtype=complex),
        C=np.array([[0.0], [1.0]], dtype=complex),
        D=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    )
    return split_blocks(col)


class TestFourTuple:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_extracts_a_general_four_tuple(self, variant):
        v = VARIANT_TABLE[variant]
        for seed in range(60):
            d, m, n1, n2 = acceptance_shape(variant, seed)
            _, _, parent, witnesses = conforming_pair(
                variant, d, n1, n2, m, seed=500 + 1000 * len(variant) + seed
            )
            s = split_blocks(parent)
            if witnesses is None:
                witnesses = v.search(s, {})
            f1, f2 = v.extract(s, witnesses)
            cert = check_general(s, f1.A, f2.A, f1.C, f2.B)
            assert cert.verdict, (variant, seed, cert.residuals)
            assert max(cert.residuals.values()) <= 1e-12, (variant, seed)

    def test_both_vanishing_slack_is_atol(self):
        s = slack_split()
        one = np.ones((1, 1))
        assert check_both_vanishing(s, one, one).verdict
        with pytest.raises(WitnessError, match="first factor is not isometric") as info:
            extract_both_vanishing(s, one, one)
        assert info.value.certificate.verdict

    def test_general_slack_is_ten_atol(self):
        s = slack_split()
        zero, one = np.zeros((1, 1)), np.ones((1, 1))
        first, _ = extract_general(s, zero, zero, one, one)
        assert 1e-9 < first.isometry_defect() <= 1e-8

    def test_extracted_factors_do_not_share_the_witness_arrays(self):
        s = split_blocks(squared_coordinate())
        left, y = np.ones((1, 1), dtype=complex), np.ones((1, 1), dtype=complex)
        first, second = extract_both_vanishing(s, left, y)
        assert not np.shares_memory(first.C, left)
        assert not np.shares_memory(second.B, y)

    @pytest.mark.parametrize("atol", [float("nan"), float("inf"), -1e-9])
    def test_a_check_refuses_a_non_finite_or_negative_tolerance(self, atol):
        # an infinite atol would pass the infinite compression residual
        # of a singular witness
        s = split_blocks(blaschke_colligation())
        with pytest.raises(ToleranceError):
            check_vanishing_selfadjoint(s, np.zeros((1, 1)), atol=atol)
        one = np.ones((1, 1))
        with pytest.raises(ToleranceError):
            check_both_vanishing(split_blocks(squared_coordinate()), one, one, atol=atol)


class TestNonFiniteWitness:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_huge_finite_witness_fails_with_an_infinite_residual(self, variant):
        # its products overflow: no numpy warning, the residual reads inf
        first, second, parent, witnesses = conforming_pair(variant, 1, 2, 2, 1, seed=5)
        s = split_blocks(parent)
        if witnesses is None:
            left, y = find_LY_witness(s)
            witnesses = {"L": left * 1e300, "Y": y}
        else:
            witnesses = {k: w * 1e300 for k, w in witnesses.items()}
        cert = VARIANT_TABLE[variant].check(s, witnesses)
        assert not cert.verdict
        assert max(cert.residuals.values()) == float("inf")

    def test_a_huge_selfadjoint_witness_fails_on_the_gram_condition(self):
        s = split_blocks(blaschke_colligation())
        cert = check_vanishing_selfadjoint(s, [[1e300]])
        assert not cert.verdict
        assert cert.residuals["gram_match"] == float("inf")
        assert cert.residuals["witness_selfadjoint"] == 0.0

    def test_an_overflowed_coupling_fails_injectivity_without_testing_it(self):
        # A1* B1 + X1* D1 overflows: its range cannot be tested, so the
        # injectivity condition reads as failed rather than refusing the input
        _, _, parent, w = conforming_pair("general", 1, 2, 2, 1, seed=5)
        cert = check_general(split_blocks(parent), [[1.7e308]], w["A2"],
                             [[1.7e308], [1.7e308]], w["Y2"])
        assert not cert.verdict
        assert cert.residuals["injectivity"] == 1.0
        assert cert.residuals["column_isometry"] == float("inf")

    def test_nan_witness_is_a_format_error(self):
        s = split_blocks(blaschke_colligation())
        with pytest.raises(FormatError, match="non-finite") as info:
            check_vanishing_selfadjoint(s, [[float("nan")]])
        assert isinstance(info.value, ColligateError)
        assert isinstance(info.value, ValueError)


SPLIT_BLOCKS = ("B1", "B2", "C1", "C2", "D1", "D2", "D3")


def held_case(variant: str, kind: str, seed: int = 31):
    """(split, witnesses): the split of a product of two random factors of
    the variant's shape, on a coordinate or a dense split, and every
    witness as a fresh writable array that the caller holds."""
    _, _, parent, witnesses = conforming_pair(
        variant, 2, 3, 3, 2, seed, coordinate=kind == "coordinate"
    )
    assert is_coordinate(parent.rep) == (kind == "coordinate")
    s = split_blocks(parent)
    if witnesses is None:
        witnesses = VARIANT_TABLE[variant].search(s, {})
    return s, {k: np.array(w) for k, w in witnesses.items()}


class TestAdoption:
    """The split and the extracted factors copy no block of the parent, and
    no holder can write into a block that another colligation keeps."""

    @pytest.mark.parametrize("kind", ["coordinate", "dense"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_split_blocks_are_read_only_views_of_the_parent(self, variant, kind):
        s, _ = held_case(variant, kind)
        assert s.A is s.parent.A
        for name in SPLIT_BLOCKS:
            block = getattr(s, name)
            assert np.shares_memory(block, getattr(s.parent, name[0])), name
            assert not block.flags.writeable, name
            with pytest.raises(ValueError):
                block.setflags(write=True)
            with pytest.raises(ValueError):
                block[...] = 0.0

    @pytest.mark.parametrize("kind", ["coordinate", "dense"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_factors_share_the_parent_blocks_and_not_the_witnesses(self, variant, kind):
        s, witnesses = held_case(variant, kind)
        first, second = VARIANT_TABLE[variant].extract(s, witnesses)
        for factor, shared in ((first, {"B": s.B1, "D": s.D1}), (second, {"C": s.C2, "D": s.D3})):
            for name in "ABCD":
                block = getattr(factor, name)
                assert not block.flags.writeable, name
                assert np.shares_memory(block, getattr(s.parent, name)) == (name in shared), name
                if name in shared:
                    assert block is shared[name]
                for w in witnesses.values():
                    assert not np.shares_memory(block, w), name
        before = [evaluate_all(first), evaluate_all(second)]
        for w in witnesses.values():
            w[...] = 7.0
        npt.assert_array_equal(evaluate_all(first), before[0])
        npt.assert_array_equal(evaluate_all(second), before[1])

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
    def test_a_non_finite_factor_is_refused_by_the_isometry_test(self, entry):
        # the blocks are adopted unchecked: the defect reads inf and refuses them
        s = split_blocks(squared_coordinate())
        one, zero = np.ones((1, 1), dtype=complex), np.zeros((1, 1), dtype=complex)
        cert = check_both_vanishing(s, one, one)
        x1 = np.array([[entry]], dtype=complex)
        with pytest.raises(WitnessError, match="first factor is not isometric") as info:
            factorization._factors(s, cert, zero, zero, x1, one, 1e-9)
        assert info.value.certificate is cert


# (first factor coordinate, second factor coordinate) for each parent family
FAMILIES = {"coordinate": (True, True), "dense": (False, False), "mixed": (True, False)}


class TestUnitaryFreedom:
    """The conditions fix the witnesses only up to a unitary V on the value
    space: (A1 V, V* A2, X1 V, V* Y2) passes check_general when (A1, A2, X1,
    Y2) does, (L V, V* Y) gets the verdict of (L, Y), and the factors
    extracted from the moved witnesses are F1 V and V* F2."""

    @settings(max_examples=40)
    @given(
        variant=st.sampled_from(["general", "both-vanishing"]),
        family=st.sampled_from(sorted(FAMILIES)),
        d=st.integers(1, 3),
        m=st.integers(1, 3),
        extra=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        seed=st.integers(0, 2**16),
    )
    def test_a_unitary_moves_witnesses_and_factors(self, variant, family, d, m, extra, seed):
        f1, f2, parent, _ = conforming_pair(
            variant, d, d + extra[0], d + extra[1], m, seed, coordinate=FAMILIES[family]
        )
        assert is_coordinate(parent.rep) == (family == "coordinate")
        s = split_blocks(parent)
        v = random_isometry(d, d, seed + 4)
        vh = v.conj().T
        if variant == "general":
            check, extract = check_general, extract_general
            witnesses = (f1.A, f2.A, f1.C, f2.B)
            moved = (f1.A @ v, vh @ f2.A, f1.C @ v, vh @ f2.B)
        else:
            check, extract = check_both_vanishing, extract_both_vanishing
            left, y = find_LY_witness(s)
            witnesses, moved = (left, y), (left @ v, vh @ y)
        assert check(s, *witnesses).verdict
        assert check(s, *moved).verdict
        g1, g2 = extract(s, *witnesses)
        h1, h2 = extract(s, *moved)
        assert max_abs(evaluate_all(h1) - evaluate_all(g1) @ v) <= 1e-13
        assert max_abs(evaluate_all(h2) - vh @ evaluate_all(g2)) <= 1e-13
        gap = verify_factorization(parent, h1, h2) - verify_factorization(parent, g1, g2)
        assert abs(gap) <= 1e-13


class TestCrossVariantConsistency:
    """The special variants are instances of the general four-tuple:
    both-vanishing through (0, 0, L, Y) and vanishing-selfadjoint through
    (0, a, C1 a^-1, a^-1 C1* D2).  Wherever a special check passes, the
    general check passes on the mapped tuple."""

    @settings(max_examples=60)
    @given(
        variant=st.sampled_from(["both-vanishing", "vanishing-selfadjoint"]),
        family=st.sampled_from(sorted(FAMILIES)),
        d=st.integers(1, 3),
        m=st.integers(1, 3),
        extra=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        seed=st.integers(0, 2**16),
    )
    def test_a_special_pass_is_a_general_pass(self, variant, family, d, m, extra, seed):
        _, _, parent, witnesses = conforming_pair(
            variant, d, d + extra[0], d + extra[1], m, seed, coordinate=FAMILIES[family]
        )
        s = split_blocks(parent)
        zero = np.zeros((d, d), dtype=complex)
        if variant == "both-vanishing":
            left, y = find_LY_witness(s)
            special = check_both_vanishing(s, left, y)
            mapped = (zero, zero, left, y)
        else:
            a = witnesses["A"]
            special = check_vanishing_selfadjoint(s, a)
            a_inv = np.linalg.inv(a)
            mapped = (zero, a, s.C1 @ a_inv, a_inv @ s.C1.conj().T @ s.D2)
        assume(special.verdict)
        general = check_general(s, *mapped)
        assert general.verdict, general.residuals
        assert max(general.residuals.values()) <= 1e-12, general.residuals


class TestForcedRefusals:
    """A split parent with A = C1 = B2 = 0 and rank(D2) > d has no witness.
    Every general four-tuple has rank(X1 Y2) <= d, so by Eckart-Young
    ||D2 - X1 Y2||_2 >= sigma_{d+1}(D2), and the largest entry, d2_splits,
    is at least sigma_{d+1}(D2) / sqrt(n1 n2).  The parent need not be
    isometric: the checkers take any split."""

    @settings(max_examples=60)
    @given(
        family=st.sampled_from(["coordinate", "dense"]),
        d=st.integers(1, 3),
        m=st.integers(1, 3),
        extra=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**16),
    )
    def test_a_rank_above_d_refuses_every_witness(self, family, d, m, extra, scale, seed):
        rng = np.random.default_rng(seed)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        n1, n2 = d + extra[0], d + extra[1]
        rank = min(n1, n2)
        sigma = np.sort(rng.uniform(0.1, 1.0, rank))[::-1]
        d2 = (random_isometry(n1, rank, seed) * sigma) @ random_isometry(n2, rank, seed + 1).conj().T
        reps = (
            coordinate_representation([n // m + (j < n % m) for j in range(m)])
            if family == "coordinate" else random_representation(m, n, seed + k)
            for k, n in enumerate((n1, n2), start=2)
        )
        parent = Colligation(
            rep=direct_sum(*reps),
            table=random_table(m, 4, seed),
            A=np.zeros((d, d)),
            B=np.hstack([gaussian(d, n1), np.zeros((d, n2))]),
            C=np.vstack([np.zeros((n1, d)), gaussian(n2, d)]),
            D=np.block([[gaussian(n1, n1), d2], [np.zeros((n2, n1)), gaussian(n2, n2)]]),
        )
        s = split_blocks(parent)
        with pytest.raises(WitnessError, match=f"no witness pair exists: rank {rank} exceeds"):
            find_LY_witness(s)
        # the best rank-d split of D2, and a drawn one
        u, _, vh = np.linalg.svd(d2)
        pairs = ((u[:, :d] * sigma[:d], vh[:d]), (scale * gaussian(n1, d), gaussian(d, n2)))
        for x1, y2 in pairs:
            cert = check_general(s, gaussian(d, d), gaussian(d, d), x1, y2)
            assert not cert.verdict
            assert cert.residuals["d2_splits"] >= sigma[d] / np.sqrt(n1 * n2)


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


ONE = np.eye(1)
GUARDS = {
    "split view of a string": (
        lambda: split_blocks("x"),
        StructureError, "a split view takes a Colligation, got str",
    ),
    "vanishing-selfadjoint check of a colligation": (
        lambda: check_vanishing_selfadjoint(blaschke_colligation(), ONE),
        StructureError, "a factorization check takes a SplitColligation, got Colligation",
    ),
    "vanishing-selfadjoint extraction of an int": (
        lambda: extract_vanishing_selfadjoint(5, ONE),
        StructureError, "a factorization check takes a SplitColligation, got int",
    ),
    "both-vanishing check of a colligation": (
        lambda: check_both_vanishing(blaschke_colligation(), ONE, ONE),
        StructureError, "a factorization check takes a SplitColligation, got Colligation",
    ),
    "both-vanishing extraction of None": (
        lambda: extract_both_vanishing(None, ONE, ONE),
        StructureError, "a factorization check takes a SplitColligation, got NoneType",
    ),
    "general check of a colligation": (
        lambda: check_general(blaschke_colligation(), ONE, ONE, ONE, ONE),
        StructureError, "a factorization check takes a SplitColligation, got Colligation",
    ),
    "general extraction of a string": (
        lambda: extract_general("x", ONE, ONE, ONE, ONE),
        StructureError, "a factorization check takes a SplitColligation, got str",
    ),
    "(L, Y) search over a colligation": (
        lambda: find_LY_witness(blaschke_colligation()),
        StructureError, "a witness search takes a SplitColligation, got Colligation",
    ),
    "general completion over None": (
        lambda: solve_general_witnesses(None, ONE, ONE),
        StructureError, "a witness search takes a SplitColligation, got NoneType",
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
