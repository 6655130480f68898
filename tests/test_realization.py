"""Representations, block operators, transfer functions, products."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from colligate import (
    Colligation,
    DimensionError,
    Representation,
    SingularResolventError,
    StructureError,
    ToleranceError,
    coordinate_representation,
    direct_sum,
    disc_table,
    evaluate,
    evaluate_all,
    gramian_identity_check,
    max_abs,
    product,
    random_colligation,
    random_isometry,
    random_representation,
    random_selfadjoint_base_colligation,
    random_vanishing_colligation,
    rep_apply,
    rep_is_reducible,
    verify_factorization,
)
from conftest import (
    blaschke_colligation,
    conforming_pair,
    coordinate_colligation,
    random_table,
)


def singular_colligation() -> Colligation:
    """I - D L(x_1) = 1 - 2 * 0.5 vanishes: the resolvent at point 1 is singular."""
    return Colligation(
        rep=coordinate_representation([1]),
        table=disc_table([0.0, 0.5]),
        A=np.zeros((1, 1), dtype=complex),
        B=np.ones((1, 1), dtype=complex),
        C=np.ones((1, 1), dtype=complex),
        D=np.array([[2.0]], dtype=complex),
    )


def pairwise_gramian_residual(col: Colligation) -> float:
    """The defect identity checked pair by pair with N x N products."""
    eye_state = np.eye(col.state_dim)
    lams, gs, fs = [], [], []
    for i in range(col.table.n):
        lam = rep_apply(col.rep, col.table.values[:, i])
        g = np.linalg.solve(eye_state - col.D @ lam, col.C)
        lams.append(lam)
        gs.append(g)
        fs.append(col.A + col.B @ (lam @ g))
    worst = 0.0
    for i in range(col.table.n):
        for j in range(col.table.n):
            lhs = np.eye(col.value_dim) - fs[j].conj().T @ fs[i]
            rhs = gs[j].conj().T @ (eye_state - lams[j].conj().T @ lams[i]) @ gs[i]
            worst = max(worst, max_abs(lhs - rhs))
    return worst


class TestRepresentation:
    def test_coordinate_projections_validate(self):
        rep = coordinate_representation([2, 1, 3])
        rep.validate(0.0)
        assert rep.state_dim == 6
        assert rep.m == 3

    def test_zero_sized_summands_are_allowed(self):
        rep = coordinate_representation([0, 2, 0])
        rep.validate(0.0)
        assert rep.m == 3
        npt.assert_array_equal(rep.projections[1], np.eye(2))

    def test_random_rep_satisfies_the_axioms(self):
        rep = random_representation(3, 5, seed=0)
        defects = rep.defects()
        assert set(defects) == {"hermitian", "idempotent", "orthogonal", "unital"}
        assert max(defects.values()) < 1e-12

    def test_non_projection_is_rejected(self):
        p = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        q = np.eye(2) - p
        with pytest.raises(StructureError):
            Representation((p, q)).validate()

    def test_not_summing_to_identity_is_rejected(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(StructureError):
            Representation((p, p)).validate()

    def test_split_must_cover_the_space(self):
        with pytest.raises(StructureError):
            Representation((np.eye(3, dtype=complex),), split=(1, 1))

    def test_restrict_takes_corner_blocks(self):
        rep = direct_sum(
            coordinate_representation([1, 2]), coordinate_representation([2, 1])
        )
        first = rep.restrict(0)
        second = rep.restrict(1)
        assert first.state_dim == 3
        assert second.state_dim == 3
        npt.assert_array_equal(first.projections[0], np.diag([1.0, 0.0, 0.0]))
        npt.assert_array_equal(second.projections[1], np.diag([0.0, 0.0, 1.0]))

    def test_rep_apply_is_a_unital_star_homomorphism(self):
        rng = np.random.default_rng(1)
        rep = random_representation(3, 6, seed=2)
        for _ in range(20):
            g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lg = rep_apply(rep, g)
            assert max_abs(rep_apply(rep, g * h) - lg @ rep_apply(rep, h)) < 1e-12
            assert max_abs(rep_apply(rep, np.conj(g)) - lg.conj().T) < 1e-12
        npt.assert_allclose(rep_apply(rep, np.ones(3)), np.eye(6), atol=1e-12)

    def test_reducibility_sees_the_block_structure(self):
        rep = direct_sum(
            random_representation(2, 3, seed=3), random_representation(2, 2, seed=4)
        )
        assert rep_is_reducible(rep)
        u = random_isometry(5, 5, seed=5)
        mixed = Representation(
            tuple(u @ p @ u.conj().T for p in rep.projections), split=rep.split
        )
        assert not rep_is_reducible(mixed)

    def test_reducibility_needs_a_split(self):
        with pytest.raises(StructureError):
            rep_is_reducible(random_representation(2, 4, seed=6))


class TestColligation:
    def test_block_shapes_are_enforced(self):
        rep = coordinate_representation([2])
        table = disc_table([0.0, 0.5])
        blocks = dict(
            A=np.zeros((1, 1), dtype=complex),
            B=np.zeros((1, 2), dtype=complex),
            C=np.zeros((2, 1), dtype=complex),
            D=np.zeros((2, 2), dtype=complex),
        )
        Colligation(rep=rep, table=table, **blocks)
        bad = dict(blocks, B=np.zeros((1, 3), dtype=complex))
        with pytest.raises(DimensionError):
            Colligation(rep=rep, table=table, **bad)

    def test_from_matrix_partitions(self):
        col = blaschke_colligation()
        rebuilt = Colligation.from_matrix(
            col.matrix(), col.value_dim, col.rep, col.table
        )
        npt.assert_array_equal(rebuilt.B, col.B)
        npt.assert_array_equal(rebuilt.D, col.D)

    def test_validation_rejects_non_isometry(self):
        col = blaschke_colligation()
        broken = Colligation.from_matrix(
            col.matrix() * 1.01, col.value_dim, col.rep, col.table
        )
        with pytest.raises(StructureError):
            broken.validate(1e-9)

    @pytest.mark.parametrize("atol", [float("nan"), float("inf"), -1.0])
    def test_validation_rejects_a_bad_tolerance(self, atol):
        col = blaschke_colligation()
        broken = Colligation.from_matrix(
            col.matrix() * 1.01, col.value_dim, col.rep, col.table
        )
        with pytest.raises(ToleranceError):
            broken.validate(atol)
        with pytest.raises(ToleranceError):
            broken.rep.validate(atol)


class TestEvaluate:
    def test_base_point_returns_the_a_block(self):
        col = random_colligation(2, random_representation(2, 4, seed=7), random_table(2, 4, seed=8), seed=9)
        npt.assert_array_equal(evaluate(col, 0), col.A)

    def test_blaschke_value(self):
        col = blaschke_colligation()
        value = evaluate(col, 1)
        assert abs(value[0, 0] - 0.4) < 1e-12

    def test_evaluate_all_stacks_every_point(self):
        col = blaschke_colligation()
        stack = evaluate_all(col)
        assert stack.shape == (4, 1, 1)
        npt.assert_allclose(stack[1], evaluate(col, 1))

    def test_singular_resolvent_is_reported(self):
        with pytest.raises(SingularResolventError):
            evaluate(singular_colligation(), 1)

    def test_every_batched_caller_names_the_singular_point(self):
        col = singular_colligation()
        calls = (
            lambda: evaluate_all(col),
            lambda: gramian_identity_check(col),
            lambda: verify_factorization(col, col, col),
        )
        for call in calls:
            with pytest.raises(SingularResolventError, match="point index 1"):
                call()


class TestProduct:
    def test_transfer_functions_multiply(self):
        for seed in range(25):
            m = 1 + seed % 3
            table = random_table(m, 4, seed=100 + seed)
            col1 = random_colligation(
                1 + seed % 3, random_representation(m, 2 + seed % 4, seed), table, seed
            )
            col2 = random_colligation(
                1 + seed % 3, random_representation(m, 1 + seed % 4, seed + 1), table, seed + 2
            )
            combined = product(col1, col2)
            for i in range(table.n):
                expected = evaluate(col1, i) @ evaluate(col2, i)
                assert max_abs(evaluate(combined, i) - expected) < 1e-10

    def test_isometry_is_preserved(self):
        table = random_table(2, 4, seed=200)
        col1 = random_colligation(2, random_representation(2, 3, seed=201), table, seed=202)
        col2 = random_colligation(2, random_representation(2, 4, seed=203), table, seed=204)
        assert product(col1, col2).isometry_defect() < 1e-12

    def test_split_records_the_summands(self):
        table = random_table(1, 3, seed=205)
        col1 = random_colligation(1, random_representation(1, 2, seed=206), table, seed=207)
        col2 = random_colligation(1, random_representation(1, 3, seed=208), table, seed=209)
        assert product(col1, col2).rep.split == (2, 3)

    def test_value_dimension_mismatch_is_an_error(self):
        table = random_table(1, 3, seed=210)
        col1 = random_colligation(1, random_representation(1, 2, seed=211), table, seed=212)
        col2 = random_colligation(2, random_representation(1, 2, seed=213), table, seed=214)
        with pytest.raises(DimensionError):
            product(col1, col2)

    def test_family_mismatch_is_an_error(self):
        col1 = coordinate_colligation(disc_table([0.0, 0.5]))
        col2 = coordinate_colligation(disc_table([0.0, 0.25]))
        with pytest.raises(StructureError):
            product(col1, col2)

    def test_squared_coordinate(self):
        table = disc_table([0.0, 0.5, -1.0 / 3.0])
        squared = product(coordinate_colligation(table), coordinate_colligation(table))
        assert abs(evaluate(squared, 1)[0, 0] - 0.25) < 1e-14
        assert abs(evaluate(squared, 2)[0, 0] - 1.0 / 9.0) < 1e-14


class TestGramianIdentity:
    def test_isometric_colligations_satisfy_it(self):
        for seed in range(25):
            m = 1 + seed % 3
            table = random_table(m, 4, seed=300 + seed)
            col = random_colligation(
                1 + seed % 3, random_representation(m, 2 + seed % 5, seed), table, seed
            )
            assert gramian_identity_check(col) < 1e-12

    def test_perturbation_is_detected(self):
        table = random_table(2, 5, seed=400)
        col = random_colligation(2, random_representation(2, 4, seed=401), table, seed=402)
        u = col.matrix().copy()
        u[0, 0] += 1e-3
        bumped = Colligation.from_matrix(u, col.value_dim, col.rep, col.table)
        assert gramian_identity_check(bumped) > 1e-7
        assert abs(gramian_identity_check(bumped) - pairwise_gramian_residual(bumped)) < 1e-13

    @pytest.mark.parametrize("seed", range(24))
    def test_gram_products_match_the_pairwise_loop(self, seed):
        m, n_state, d = 1 + seed % 3, 1 + seed % 8, 1 + (seed // 8) % 3
        table = random_table(m, 2 + seed % 5, seed=600 + seed)
        rep = random_representation(m, n_state, seed=700 + seed)
        col = random_colligation(d, rep, table, seed=800 + seed)
        assert abs(gramian_identity_check(col) - pairwise_gramian_residual(col)) < 1e-13
        u = col.matrix().copy()
        u[d - 1, 0] += 1e-3
        bumped = Colligation.from_matrix(u, d, rep, table)
        assert abs(gramian_identity_check(bumped) - pairwise_gramian_residual(bumped)) < 1e-13


class TestVerifyFactorization:
    @pytest.mark.parametrize("variant", ["vanishing-selfadjoint", "both-vanishing", "general"])
    def test_stacked_form_is_bit_identical_to_the_pointwise_form(self, variant):
        for seed in range(20):
            d, n1, n2, m = 1 + seed % 3, 1 + seed % 4, 1 + (seed // 4) % 4, 1 + seed % 3
            first, second, parent, _ = conforming_pair(variant, d, max(n1, d), max(n2, d), m, 900 + seed)
            for f1, f2 in ((first, second), (second, first)):
                pointwise = max(
                    max_abs(evaluate(parent, i) - evaluate(f1, i) @ evaluate(f2, i))
                    for i in range(parent.table.n)
                )
                assert verify_factorization(parent, f1, f2) == pointwise


class TestStructuredGenerators:
    def test_vanishing_generator_zeroes_the_base_value(self):
        rep = random_representation(2, 4, seed=500)
        table = random_table(2, 4, seed=501)
        col = random_vanishing_colligation(2, rep, table, seed=502)
        assert max_abs(col.A) == 0.0
        assert col.isometry_defect() < 1e-12

    def test_vanishing_generator_needs_room(self):
        rep = random_representation(1, 1, seed=503)
        table = random_table(1, 3, seed=504)
        with pytest.raises(DimensionError):
            random_vanishing_colligation(2, rep, table, seed=505)

    def test_selfadjoint_generator_controls_the_spectrum(self):
        rep = random_representation(2, 5, seed=506)
        table = random_table(2, 4, seed=507)
        col = random_selfadjoint_base_colligation(3, rep, table, seed=508)
        assert max_abs(col.A - col.A.conj().T) < 1e-12
        eigs = np.linalg.eigvalsh((col.A + col.A.conj().T) / 2)
        assert eigs.min() > 0.2
        assert eigs.max() < 0.9
        assert col.isometry_defect() < 1e-12

    def test_selfadjoint_generator_rejects_bad_spectrum(self):
        rep = random_representation(1, 2, seed=509)
        table = random_table(1, 3, seed=510)
        with pytest.raises(ValueError):
            random_selfadjoint_base_colligation(
                1, rep, table, seed=511, spectrum=(0.0, 1.0)
            )

    @pytest.mark.parametrize("spectrum", [(0.0, 0.5), (0.5, 1.0), (0.6, 0.4)])
    def test_bad_spectrum_is_a_structure_error(self, spectrum):
        rep = random_representation(1, 2, seed=509)
        table = random_table(1, 3, seed=510)
        with pytest.raises(StructureError, match="spectrum"):
            random_selfadjoint_base_colligation(1, rep, table, seed=511, spectrum=spectrum)
