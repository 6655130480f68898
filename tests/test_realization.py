"""Representations, block operators, transfer functions, products."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from colligate import factorization, realization
from colligate import TestFunctionTable as FunctionTable
from colligate import (
    Colligation,
    DimensionError,
    FormatError,
    PointSet,
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
    load_colligation,
    max_abs,
    product,
    random_colligation,
    random_isometry,
    random_representation,
    random_selfadjoint_base_colligation,
    random_vanishing_colligation,
    rep_apply,
    rep_is_reducible,
    save_colligation,
    split_blocks,
    verify_factorization,
)
from colligate.factorization import VARIANT_TABLE
from colligate.linalg import _adopted
from conftest import (
    blaschke_colligation,
    conforming_pair,
    coordinate_colligation,
    is_coordinate,
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


def coordinate_rep(rng: np.random.Generator, m: int, n: int) -> Representation:
    """Coordinate family dealing n coordinates at random over m functions,
    so some projections are zero (always when m > n)."""
    labels = rng.integers(0, m, size=n)
    return Representation(
        tuple(np.diag((labels == j).astype(complex)) for j in range(m))
    )


def conjugated(col: Colligation, w: np.ndarray) -> Colligation:
    """``col`` in the state basis w: P_j -> W P_j W*, U -> diag(I, W) U diag(I, W*)."""
    d = col.value_dim
    rep = Representation(tuple(w @ p @ w.conj().T for p in col.rep.projections))
    v = np.eye(d + col.state_dim, dtype=complex)
    v[d:, d:] = w
    return Colligation.from_matrix(v @ col.matrix() @ v.conj().T, d, rep, col.table)


class KernelCalls(list):
    """("solve", shape) with the full stack shape of each solve; ``products``
    holds the operand shapes (a.shape, b.shape) of each np.matmul call.
    clear() empties both."""

    def __init__(self):
        super().__init__()
        self.products = []

    def clear(self):
        super().clear()
        self.products.clear()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Records every np.linalg.solve and np.matmul call into a KernelCalls."""
    calls = KernelCalls()
    solve, matmul = np.linalg.solve, np.matmul

    def counted_solve(a, b):
        calls.append(("solve", a.shape))
        return solve(a, b)

    def counted_matmul(a, b, **kwargs):
        calls.products.append((np.shape(a), np.shape(b)))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np, "matmul", counted_matmul)
    return calls


def dense_resolvent(col: Colligation, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference per-point evaluation for every family: L(x_i) summed here
    as psi_1 P_1 + ... + psi_m P_m, the product D L(x_i), then one full
    solve; returns (L_i, G_i)."""
    lam = np.zeros((col.state_dim, col.state_dim), dtype=complex)
    for psi, p in zip(col.table.values[:, i], col.rep.projections):
        lam += psi * p
    return lam, np.linalg.solve(np.eye(col.state_dim) - col.D @ lam, col.C)


def dense_evaluate(col: Colligation, i: int) -> np.ndarray:
    lam, g = dense_resolvent(col, i)
    return col.A + col.B @ (lam @ g)


def pairwise_gramian_residual(col: Colligation) -> float:
    """The defect identity checked pair by pair with N x N products."""
    eye_state = np.eye(col.state_dim)
    lams, gs, fs = [], [], []
    for i in range(col.table.n):
        lam, g = dense_resolvent(col, i)
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

    @pytest.mark.parametrize("half", [-1, 2, 7])
    def test_restrict_refuses_a_half_outside_zero_and_one(self, half):
        rep = direct_sum(coordinate_representation([1, 1]), coordinate_representation([2, 0]))
        with pytest.raises(StructureError, match="half"):
            rep.restrict(half)

    @pytest.mark.parametrize("half", [0, 1, np.int64(1), np.uint8(0)], ids=repr)
    def test_restrict_takes_a_numpy_integer_half(self, half):
        rep = direct_sum(coordinate_representation([1]), coordinate_representation([2]))
        assert rep.restrict(half).state_dim == (1, 2)[int(half)]

    def test_later_writes_to_the_callers_arrays_change_nothing(self):
        projections = [np.diag([1.0, 0.0, 1.0]).astype(complex), np.diag([0.0, 1.0, 0.0])]
        table = random_table(2, 4, seed=12)
        col = random_colligation(2, Representation(tuple(projections)), table, seed=13)
        before = evaluate_all(col)
        projections[0][:] = 0.0
        projections[1][0, 1] = 0.5
        npt.assert_array_equal(evaluate_all(col), before)
        with pytest.raises(ValueError):
            col.rep.projections[0][0, 0] = 0.5

    def test_builders_keep_one_read_only_stack_each(self):
        parts = coordinate_representation([1, 2]), random_representation(2, 3, seed=9)
        joined = direct_sum(*parts)
        halves = joined.restrict(0), joined.restrict(1)
        for rep in (*parts, joined, *halves):
            assert not rep._stack.flags.writeable
            assert all(np.shares_memory(p, rep._stack) for p in rep.projections)
        for half, part in zip(halves, parts):
            assert not np.shares_memory(half._stack, joined._stack)
            npt.assert_array_equal(half._stack, part._stack)
            assert is_coordinate(half) == is_coordinate(part)

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

    def test_a_huge_finite_entry_reads_as_an_infinite_defect(self):
        # the Gram product overflows: no numpy warning, and the defect is inf
        col = blaschke_colligation()
        d = np.array(col.D)
        d[0, 0] = 1e300
        huge = Colligation(rep=col.rep, table=col.table, A=col.A, B=col.B, C=col.C, D=d)
        assert huge.isometry_defect() == float("inf")
        with pytest.raises(StructureError) as info:
            huge.validate(1e-9)
        assert str(info.value) == "block operator fails isometry by inf"

    def test_later_writes_to_the_callers_blocks_change_nothing(self):
        ref = blaschke_colligation()
        blocks = {name: getattr(ref, name).copy() for name in "ABCD"}
        col = Colligation(rep=ref.rep, table=ref.table, **blocks)
        before = evaluate_all(col)
        # a nonzero lower-left D block would also move the kernel off the
        # block back-substitution path
        blocks["D"][1, 0] = 0.25
        blocks["B"][0, 1] = 0.5
        npt.assert_array_equal(evaluate_all(col), before)
        for name in "ABCD":
            with pytest.raises(ValueError):
                getattr(col, name)[0, 0] = 0.5

    def test_from_matrix_blocks_are_read_only_views_of_one_copy(self):
        ref = blaschke_colligation()
        u = ref.matrix()
        col = Colligation.from_matrix(u, ref.value_dim, ref.rep, ref.table)
        for name in "ABCD":
            block = getattr(col, name)
            assert not np.shares_memory(block, u)
            with pytest.raises(ValueError):
                block.setflags(write=True)

    def test_later_writes_to_the_callers_matrix_change_nothing(self):
        ref = blaschke_colligation()
        u = ref.matrix()
        col = Colligation.from_matrix(u, ref.value_dim, ref.rep, ref.table)
        before = evaluate_all(col)
        u[...] = 0.25
        npt.assert_array_equal(col.matrix(), ref.matrix())
        npt.assert_array_equal(evaluate_all(col), before)

    def test_block_matrices_are_the_blocks_written_in_place(self):
        table = random_table(2, 4, seed=23)
        first = random_colligation(2, random_representation(2, 3, seed=24), table, seed=25)
        second = random_colligation(2, random_representation(2, 4, seed=26), table, seed=27)
        joined = product(first, second)
        for col in (first, second, joined):
            npt.assert_array_equal(col.matrix(), np.block([[col.A, col.B], [col.C, col.D]]))
        npt.assert_array_equal(
            joined.D, np.block([[first.D, first.C @ second.B], [np.zeros((4, 3)), second.D]])
        )

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


def _blocks(d: int, n: int) -> dict[str, np.ndarray]:
    return dict(A=np.zeros((d, d)), B=np.zeros((d, n)), C=np.zeros((n, d)), D=np.zeros((n, n)))


GUARDS = {
    "no projection": (
        lambda: Representation(()),
        StructureError, "a representation needs at least one projection",
    ),
    "projections of two shapes": (
        lambda: Representation((np.eye(2), np.eye(3))),
        DimensionError, "projections must share one square shape, got (3, 3)",
    ),
    "restrict without a split": (
        lambda: coordinate_representation([1, 2]).restrict(0),
        StructureError, "restriction requires a split",
    ),
    "boolean half": (
        lambda: direct_sum(coordinate_representation([1]), coordinate_representation([2])).restrict(True),
        StructureError, "restriction takes half 0 or 1, got True",
    ),
    "integral float half": (
        lambda: direct_sum(coordinate_representation([1]), coordinate_representation([2])).restrict(1.0),
        StructureError, "restriction takes half 0 or 1, got 1.0",
    ),
    "numpy float half": (
        lambda: direct_sum(coordinate_representation([1]), coordinate_representation([2])).restrict(
            np.float64(0.0)),
        StructureError, "restriction takes half 0 or 1, got np.float64(0.0)",
    ),
    "negative block size": (
        lambda: coordinate_representation([2, -1]),
        StructureError, "block sizes must be nonnegative",
    ),
    "zero total dimension": (
        lambda: coordinate_representation([0, 0]),
        StructureError, "total state dimension must be at least 1",
    ),
    "no block sizes": (
        lambda: coordinate_representation([]),
        StructureError, "total state dimension must be at least 1",
    ),
    "no function": (
        lambda: random_representation(0, 3, seed=0),
        StructureError, "need at least one function and one state dimension",
    ),
    "no state dimension": (
        lambda: random_representation(2, 0, seed=0),
        StructureError, "need at least one function and one state dimension",
    ),
    "direct sum over different families": (
        lambda: direct_sum(coordinate_representation([1, 1]), coordinate_representation([1, 1, 1])),
        StructureError, "representations act for 2 and 3 functions",
    ),
    "representation on another state space": (
        lambda: Colligation(rep=coordinate_representation([1, 2]), table=disc_table([0.0, 0.5]),
                            **_blocks(1, 2)),
        DimensionError, "representation acts on dimension 3, state blocks have dimension 2",
    ),
    "representation for another family": (
        lambda: Colligation(rep=coordinate_representation([1, 1]), table=disc_table([0.0, 0.5]),
                            **_blocks(1, 2)),
        StructureError, "representation has 2 projections for 1 test functions",
    ),
    "rectangular A block": (
        lambda: Colligation(coordinate_representation([1]), disc_table([0.0, 0.5]), np.zeros((1, 2)),
                            np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))),
        DimensionError, "diagonal blocks must be square",
    ),
    "adopted B block of another width": (
        lambda: _adopted(Colligation, coordinate_representation([2]), disc_table([0.0, 0.5]),
                         *{**_blocks(1, 2), "B": np.zeros((1, 3))}.values()),
        DimensionError, "off-diagonal blocks (1, 3), (2, 1) do not match "
        "value dimension 1 and state dimension 2",
    ),
    "adopted blocks on another state space": (
        lambda: _adopted(Colligation, coordinate_representation([1, 2]), disc_table([0.0, 0.5]),
                         *_blocks(1, 2).values()),
        DimensionError, "representation acts on dimension 3, state blocks have dimension 2",
    ),
    "adopted blocks for another family": (
        lambda: _adopted(Colligation, coordinate_representation([1, 1]), disc_table([0.0, 0.5]),
                         *_blocks(1, 2).values()),
        StructureError, "representation has 2 projections for 1 test functions",
    ),
    "misshapen block operator": (
        lambda: Colligation.from_matrix(np.eye(3), 1, coordinate_representation([3]),
                                        disc_table([0.0, 0.5])),
        DimensionError, "block operator is (3, 3), expected (4, 4)",
    ),
    "fractional split": (
        lambda: Representation(coordinate_representation([1, 1, 1]).projections, split=(1.5, 1.5)),
        StructureError, "split must be a sequence of integers, got (1.5, 1.5)",
    ),
    "boolean split": (
        lambda: Representation(coordinate_representation([1, 1]).projections, split=(True, True)),
        StructureError, "split must be a sequence of integers, got (True, True)",
    ),
    "scalar split": (
        lambda: Representation(coordinate_representation([1, 1]).projections, split=2),
        StructureError, "split must be a sequence of integers, got 2",
    ),
    "split of three blocks": (
        lambda: Representation(coordinate_representation([1, 1, 1]).projections, split=(1, 1, 1)),
        StructureError, "split (1, 1, 1) does not partition state dimension 3",
    ),
    "fractional block sizes": (
        lambda: coordinate_representation([1.5, 1.5]),
        StructureError, "block sizes must be a sequence of integers, got [1.5, 1.5]",
    ),
    "integral float block size": (
        lambda: coordinate_representation([2.0]),
        StructureError, "block sizes must be a sequence of integers, got [2.0]",
    ),
    "boolean block size": (
        lambda: coordinate_representation([True, 1]),
        StructureError, "block sizes must be a sequence of integers, got [True, 1]",
    ),
    "fractional value dimension": (
        lambda: Colligation.from_matrix(np.eye(3), 1.5, coordinate_representation([2]),
                                        disc_table([0.0, 0.5])),
        StructureError, "value_dim must be an integer, got 1.5",
    ),
    "integral float value dimension to absorb": (
        lambda: random_vanishing_colligation(1.0, coordinate_representation([1, 1]),
                                             random_table(2, 3, seed=1), seed=0),
        StructureError, "value_dim must be an integer, got 1.0",
    ),
    "fractional value dimension of a random colligation": (
        lambda: random_colligation(1.5, coordinate_representation([1, 1]),
                                   random_table(2, 3, seed=1), seed=0),
        StructureError, "value_dim must be an integer, got 1.5",
    ),
    "fractional number of functions": (
        lambda: random_representation(2.5, 3, 0),
        StructureError, "m must be an integer, got 2.5",
    ),
    "fractional state dimension": (
        lambda: random_representation(2, 3.5, 0),
        StructureError, "state_dim must be an integer, got 3.5",
    ),
    "boolean state dimension": (
        lambda: random_representation(1, True, 0),
        StructureError, "state_dim must be an integer, got True",
    ),
    "negative seed": (
        lambda: random_representation(2, 3, -5),
        StructureError, "seed must be a nonnegative integer, got -5",
    ),
    "no seed": (
        lambda: random_colligation(1, coordinate_representation([1, 1]), random_table(2, 3, seed=1),
                                   seed=None),
        StructureError, "seed must be a nonnegative integer, got None",
    ),
    "negative seed of a vanishing colligation": (
        lambda: random_vanishing_colligation(1, coordinate_representation([1, 1]),
                                             random_table(2, 3, seed=1), seed=-1),
        StructureError, "seed must be a nonnegative integer, got -1",
    ),
    "fractional seed of a selfadjoint base colligation": (
        lambda: random_selfadjoint_base_colligation(1, coordinate_representation([1, 1]),
                                                    random_table(2, 3, seed=1), seed=0.5),
        StructureError, "seed must be a nonnegative integer, got 0.5",
    ),
    "coefficient vector of strings": (
        lambda: rep_apply(coordinate_representation([1, 1]), "ab"),
        FormatError, "coefficient vector must be an array of numbers",
    ),
    "block of strings": (
        lambda: Colligation(rep=coordinate_representation([1]), table=disc_table([0.0, 0.5]),
                            **{**_blocks(1, 1), "A": "abc"}),
        FormatError, "A must be an array of numbers",
    ),
    "string representation": (
        lambda: Colligation("x", disc_table([0.0]), *[np.zeros((1, 1))] * 4),
        StructureError, "a colligation takes a Representation and a TestFunctionTable, "
        "got str and TestFunctionTable",
    ),
    "string table": (
        lambda: Colligation(coordinate_representation([1]), "x", *[np.zeros((1, 1))] * 4),
        StructureError, "a colligation takes a Representation and a TestFunctionTable, "
        "got Representation and str",
    ),
    "product of a string": (
        lambda: product("x", blaschke_colligation()),
        StructureError, "a product takes a Colligation, got str",
    ),
    "product with None": (
        lambda: product(blaschke_colligation(), None),
        StructureError, "a product takes a Colligation, got NoneType",
    ),
    "verification of a string parent": (
        lambda: verify_factorization("x", blaschke_colligation(), blaschke_colligation()),
        StructureError, "factorization verification takes a Colligation, got str",
    ),
    "verification of an integer factor": (
        lambda: verify_factorization(blaschke_colligation(), blaschke_colligation(), 5),
        StructureError, "factorization verification takes a Colligation, got int",
    ),
    "evaluation of a string": (
        lambda: evaluate("x", 0),
        StructureError, "evaluation takes a Colligation, got str",
    ),
    "evaluation of None at every point": (
        lambda: evaluate_all(None),
        StructureError, "evaluation takes a Colligation, got NoneType",
    ),
    "Gramian identity of a float": (
        lambda: gramian_identity_check(1.5),
        StructureError, "the Gramian identity takes a Colligation, got float",
    ),
    "projections of an int": (
        lambda: Representation(5),
        StructureError, "projections must be a sequence, got 5",
    ),
    "direct sum with a string": (
        lambda: direct_sum(coordinate_representation([1]), "x"),
        StructureError,
        "a direct sum takes a Representation and a Representation, got Representation and str",
    ),
    "action of None": (
        lambda: rep_apply(None, [1.0]),
        StructureError, "a representation's action takes a Representation, got NoneType",
    ),
    "reducibility of a colligation": (
        lambda: rep_is_reducible(blaschke_colligation()),
        StructureError, "reducibility takes a Representation, got Colligation",
    ),
    "block operator over a string representation": (
        lambda: Colligation.from_matrix(np.eye(2), 1, "x", disc_table([0.0])),
        StructureError, "a colligation takes a Representation and a TestFunctionTable, "
        "got str and TestFunctionTable",
    ),
    "random colligation over an int representation": (
        lambda: random_colligation(1, 5, disc_table([0.0]), 0),
        StructureError, "a colligation takes a Representation and a TestFunctionTable, "
        "got int and TestFunctionTable",
    ),
    "vanishing colligation over a string representation": (
        lambda: random_vanishing_colligation(1, "x", disc_table([0.0]), 0),
        StructureError, "a colligation takes a Representation and a TestFunctionTable, "
        "got str and TestFunctionTable",
    ),
    "selfadjoint base colligation over None": (
        lambda: random_selfadjoint_base_colligation(1, None, disc_table([0.0]), 0),
        StructureError, "a colligation takes a Representation and a TestFunctionTable, "
        "got NoneType and TestFunctionTable",
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

    def test_integer_sizes_of_any_integer_type_are_kept_as_ints(self):
        rep = Representation(coordinate_representation([1, 2]).projections,
                             split=[np.int64(1), np.uint8(2)])
        assert rep.split == (1, 2)
        assert all(type(n) is int for n in rep.split)
        assert rep.restrict(1).state_dim == 2
        assert coordinate_representation(np.array([2, 0, 1])).state_dim == 3
        assert coordinate_representation(n for n in (1, 2)).state_dim == 3


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

    def test_an_index_array_stacks_the_values(self):
        col = blaschke_colligation()
        picked = np.array([3, 1, 1, 0])
        values = evaluate(col, picked)
        assert values.shape == (4, 1, 1)
        npt.assert_array_equal(values, evaluate_all(col)[picked])
        npt.assert_array_equal(evaluate(col, np.int64(2)), evaluate(col, 2))
        assert evaluate(col, np.array([], dtype=int)).shape == (0, 1, 1)

    @pytest.mark.parametrize(
        "index",
        [1.5, 1.0, True, np.True_, "1", None, [0, 1.5], np.array([True, False]),
         np.array([[0, 1]]), [True, 1], (0, False), [1, np.True_]],
        ids=repr,
    )
    def test_a_non_integer_index_is_a_structure_error(self, index):
        # numpy reads a listed True as 1, and the message shows the caller's index
        with pytest.raises(StructureError) as info:
            evaluate(blaschke_colligation(), index)
        assert str(info.value) == (
            f"point index must be an integer or a 1-D array of integers in 0..3, got {index!r}"
        )

    def test_an_index_array_names_its_first_index_outside_the_table(self):
        with pytest.raises(StructureError, match=r"point index 7 outside 0\.\.3"):
            evaluate(blaschke_colligation(), np.array([1, 7, -2]))

    def test_singular_resolvent_is_reported(self):
        with pytest.raises(SingularResolventError):
            evaluate(singular_colligation(), 1)

    def test_every_batched_caller_names_the_singular_point(self):
        # the colligation itself, then products whose D1 or D3 block it is,
        # on a coordinate split (singular at point 1) and a dense one (point 2)
        single = singular_colligation()
        shift = coordinate_colligation(single.table)
        _, dense, _, dense_shift = singular_at_point_two()
        cases = [(col, 1) for col in (single, product(single, shift), product(shift, single))]
        cases += [(col, 2) for col in (product(dense, dense_shift), product(dense_shift, dense))]
        for col, index in cases:
            assert col is single or realization._triangular_split(col)
            calls = (
                lambda: evaluate_all(col),
                lambda: gramian_identity_check(col),
                lambda: verify_factorization(col, col, col),
            )
            for call in calls:
                with pytest.raises(SingularResolventError, match=f"point index {index};"):
                    call()


class TestStructuredKernel:
    """The per-point kernel against the dense reference, on every path."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coordinate_families_match_the_dense_reference(self, d, m):
        # the factor-many-small shape grid, on coordinate families
        rng = np.random.default_rng(10 * d + m)
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                table = random_table(m, 4, seed=int(rng.integers(2**32)))
                first, second = (
                    random_colligation(d, coordinate_rep(rng, m, n), table,
                                       seed=int(rng.integers(2**32)))
                    for n in (n1, n2)
                )
                for col in (first, second, product(first, second)):
                    reference = np.stack([dense_evaluate(col, i) for i in range(table.n)])
                    assert max_abs(evaluate_all(col) - reference) <= 1e-13
                    gap = gramian_identity_check(col) - pairwise_gramian_residual(col)
                    assert abs(gap) <= 1e-13

    def test_each_path_makes_its_own_solves(self, monkeypatch, kernel_calls):
        rng = np.random.default_rng(14)
        table = random_table(2, 4, seed=15)
        first = random_colligation(2, coordinate_rep(rng, 2, 3), table, seed=16)
        second = random_colligation(2, coordinate_rep(rng, 2, 2), table, seed=17)
        joined = product(first, second)

        # the D P_j and B P_j tables once per call, then per chunk one
        # (c, 1, m) @ (m, N^2) product for -D L_k, one (m d, N) @ (c, N, d)
        # product for every B P_j G_k and one (c, 1, m) @ (c, m, d^2) product
        # summing them: never one product per point, and no L_k
        def tables(n):
            return [((n, n), (2, n, n)), ((2, n), (2, n, n))]

        def chunk(c, n=5):
            return [((c, 1, 2), (2, n * n)), ((4, n), (c, n, 2)), ((c, 1, 2), (c, 2, 4))]

        # coordinate families take the same products: the four points go as
        # one chunk, one full solve, or the D3 block before the D1 block on the split
        evaluate_all(first)
        assert kernel_calls == [("solve", (4, 3, 3))]
        assert kernel_calls.products == tables(3) + chunk(4, 3)
        kernel_calls.clear()
        evaluate_all(joined)
        assert kernel_calls == [("solve", (4, 2, 2)), ("solve", (4, 3, 3))]
        assert kernel_calls.products == tables(5) + chunk(4)
        kernel_calls.clear()
        dense = conjugated(joined, random_isometry(5, 5, seed=18))
        evaluate_all(dense)
        assert kernel_calls == [("solve", (4, 5, 5))]
        assert kernel_calls.products == tables(5) + chunk(4)
        # a dense product builds the same full stacks, then solves two slices
        # of them: the n2 x n2 block, then the n1 x n1 block
        split = product(random_colligation(2, random_representation(2, 3, seed=19), table, seed=20),
                        random_colligation(2, random_representation(2, 2, seed=21), table, seed=22))
        kernel_calls.clear()
        evaluate_all(split)
        assert kernel_calls == [("solve", (4, 2, 2)), ("solve", (4, 3, 3))]
        assert kernel_calls.products == tables(5) + chunk(4)
        # the Gramian identity takes H itself: the projection stack is its table
        kernel_calls.clear()
        gramian_identity_check(dense)
        assert kernel_calls.products == [((5, 5), (2, 5, 5)), ((4, 1, 2), (2, 25)),
                                         ((10, 5), (4, 5, 2)), ((4, 1, 2), (4, 2, 10))]
        monkeypatch.setattr(realization, "_RESOLVENT_BUDGET", 3 * 25)
        kernel_calls.clear()
        evaluate_all(dense)
        assert kernel_calls == [("solve", (3, 5, 5)), ("solve", (1, 5, 5))]
        assert kernel_calls.products == tables(5) + chunk(3) + chunk(1)
        # its chunks hold as many points as one full solve would
        kernel_calls.clear()
        evaluate_all(split)
        assert kernel_calls == [("solve", (3, 2, 2)), ("solve", (3, 3, 3)),
                                ("solve", (1, 2, 2)), ("solve", (1, 3, 3))]
        assert kernel_calls.products == tables(5) + chunk(3) + chunk(1)

    def test_a_tiny_lower_left_entry_takes_the_full_solve(self, kernel_calls):
        rng = np.random.default_rng(19)
        table = random_table(2, 4, seed=20)
        joined = product(
            random_colligation(2, coordinate_rep(rng, 2, 3), table, seed=21),
            random_colligation(2, coordinate_rep(rng, 2, 2), table, seed=22),
        )
        u = joined.matrix().copy()
        u[2 + 3, 2] = 1e-300  # D[n1, 0]
        nudged = Colligation.from_matrix(u, 2, joined.rep, table)
        values = evaluate_all(nudged)
        assert kernel_calls == [("solve", (4, 5, 5))]
        reference = np.stack([dense_evaluate(nudged, i) for i in range(table.n)])
        assert max_abs(values - reference) <= 1e-13

    @pytest.mark.parametrize("seed", range(8))
    def test_a_unitary_change_of_basis_changes_no_value(self, seed):
        rng = np.random.default_rng(30 + seed)
        d, m, n1, n2 = 1 + seed % 3, 1 + (seed // 3) % 3, 1 + seed % 4, 2 + seed % 3
        table = random_table(m, 5, seed=40 + seed)
        col = product(
            random_colligation(d, coordinate_rep(rng, m, n1), table, seed=50 + seed),
            random_colligation(d, coordinate_rep(rng, m, n2), table, seed=60 + seed),
        )
        u = col.matrix().copy()
        u[0, d] += 1e-3  # B, so the lower-left D block stays zero
        bumped = Colligation.from_matrix(u, d, col.rep, table)
        w = random_isometry(n1 + n2, n1 + n2, seed=70 + seed)
        for model in (col, bumped):
            moved = conjugated(model, w)
            assert max_abs(evaluate_all(moved) - evaluate_all(model)) <= 1e-12
            assert abs(gramian_identity_check(moved) - gramian_identity_check(model)) <= 1e-12
        assert gramian_identity_check(bumped) > 1e-7

    @pytest.mark.parametrize("seed", range(4))
    def test_a_block_diagonal_change_of_basis_keeps_the_split(self, seed, kernel_calls):
        d, n1, n2 = 1 + seed % 2, 2 + seed % 2, 3
        first, second, col, _ = conforming_pair("general", d, n1, n2, 2, seed=80 + seed,
                                                coordinate=True)
        w1, w2 = random_isometry(n1, n1, seed=90 + seed), random_isometry(n2, n2, seed=95 + seed)
        w = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        w[:n1, :n1], w[n1:, n1:] = w1, w2
        # diag(W1, W2) keeps the lower-left D block and the off-diagonal projection
        # blocks exact zeros, so the split still back-substitutes, now densely
        plain = conjugated(col, w)
        moved = Colligation.from_matrix(plain.matrix(), d, Representation(
            plain.rep.projections, split=(n1, n2)), col.table)
        moved.validate()
        assert not is_coordinate(moved.rep)
        assert realization._triangular_split(moved) == n1
        kernel_calls.clear()
        values = evaluate_all(moved)
        assert kernel_calls == [("solve", (4, n2, n2)), ("solve", (4, n1, n1))]
        assert max_abs(values - evaluate_all(col)) <= 1e-13
        witnesses = (first.A, second.A, first.C, second.B)
        moved_witnesses = (first.A, second.A, w1 @ first.C, second.B @ w2.conj().T)
        cert = factorization.check_general(split_blocks(col), *witnesses)
        moved_cert = factorization.check_general(split_blocks(moved), *moved_witnesses)
        assert cert.verdict and moved_cert.verdict
        for name, residual in cert.residuals.items():
            assert abs(moved_cert.residuals[name] - residual) <= 1e-13, name
        g1, g2 = factorization.extract_general(split_blocks(moved), *moved_witnesses)
        for factor, model, wk in ((g1, first, w1), (g2, second, w2)):
            expected = conjugated(model, wk)
            assert max_abs(factor.matrix() - expected.matrix()) <= 1e-13
            assert max_abs(factor.rep._stack - expected.rep._stack) <= 1e-13
        assert verify_factorization(moved, g1, g2) <= 1e-13


CHUNK = realization._GRAMIAN_CHUNK


class TestDenseKernel:
    """Families that are not coordinate: D L(x_i) from the cached D P_j."""

    @pytest.mark.parametrize("seed", range(12))
    def test_dense_families_match_the_reference(self, seed):
        rng = np.random.default_rng(90 + seed)
        d, m, n1, n2 = 1 + seed % 3, 1 + (seed // 3) % 3, 2 + seed % 4, 2 + seed % 3
        table = random_table(m, 6, seed=91 + seed)
        first = random_colligation(d, random_representation(m, n1, seed=92 + seed), table,
                                   seed=93 + seed)
        second = random_colligation(d, random_representation(m, n2, seed=94 + seed), table,
                                    seed=95 + seed)
        coordinate = product(
            random_colligation(d, coordinate_rep(rng, m, n1), table, seed=96 + seed),
            random_colligation(d, coordinate_rep(rng, m, n2), table, seed=97 + seed),
        )
        w = random_isometry(n1 + n2, n1 + n2, seed=98 + seed)
        for col in (first, second, product(first, second), product(second, first),
                    conjugated(coordinate, w)):
            assert not is_coordinate(col.rep)
            reference = np.stack([dense_evaluate(col, i) for i in range(table.n)])
            assert max_abs(evaluate_all(col) - reference) <= 1e-13
            for chunk, gs, hs in realization._resolvents(col, np.arange(table.n)):
                for i, g, h in zip(chunk, gs, hs):
                    lam, g_ref = dense_resolvent(col, i)
                    assert max_abs(g - g_ref) <= 1e-13
                    assert max_abs(h - lam @ g_ref) <= 1e-13

    @pytest.mark.parametrize("where", ["D", "P"])
    def test_a_tiny_stray_entry_takes_the_full_solve(self, kernel_calls, where):
        # 1e-300 at D[n1, 0] or at P_1[0, n1]: I - D L(x) is no longer
        # block triangular, so the dense product is solved whole
        table = random_table(2, 4, seed=150)
        joined = product(
            random_colligation(2, random_representation(2, 3, seed=151), table, seed=152),
            random_colligation(2, random_representation(2, 2, seed=153), table, seed=154),
        )
        assert realization._triangular_split(joined) == 3
        nudged = _stray(joined, where)
        assert realization._triangular_split(nudged) == 0
        values = evaluate_all(nudged)
        assert kernel_calls == [("solve", (4, 5, 5))]
        reference = np.stack([dense_evaluate(nudged, i) for i in range(table.n)])
        assert max_abs(values - reference) <= 1e-13

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_a_dense_value_does_not_depend_on_its_chunk(self, monkeypatch, kernel_calls, n, m):
        table = random_table(m, 8, seed=140 + 10 * n + m)
        # at N = 1 the family is v P v* for a unit phase v, dense unless
        # |v|^2 rounds to exactly 1; this seed keeps it dense
        col = random_colligation(2, random_representation(m, n, seed=144 + n), table,
                                 seed=142 + m)
        assert not is_coordinate(col.rep)
        alone = []
        for i in range(8):
            _, g, h = next(realization._resolvents(col, np.array([i])))
            _, _, bh = next(realization._resolvents(col, np.array([i]), col.B))
            alone.append((g[0], h[0], bh[0]))
        values = np.stack([evaluate(col, i) for i in range(8)])
        for points in range(1, 9):
            monkeypatch.setattr(realization, "_RESOLVENT_BUDGET", points * n * n)
            kernel_calls.clear()
            npt.assert_array_equal(evaluate_all(col), values)
            assert max(shape[0] for _, shape in kernel_calls) == points
            for chunk, gs, hs in realization._resolvents(col, np.arange(8)):
                for i, g, h in zip(chunk, gs, hs):
                    npt.assert_array_equal(g, alone[i][0])
                    npt.assert_array_equal(h, alone[i][1])
            for chunk, gs, bhs in realization._resolvents(col, np.arange(8), col.B):
                for i, g, bh in zip(chunk, gs, bhs):
                    npt.assert_array_equal(g, alone[i][0])
                    npt.assert_array_equal(bh, alone[i][2])

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n1", [1, 3])
    def test_a_left_factor_multiplies_the_identity_path(self, rows, n1):
        # every family sums psi_j (W P_j) G, which matches W @ H by rounding
        for name, col in chunked_models(6, n1, seed=170 + 10 * n1 + rows).items():
            w = np.random.default_rng(rows).standard_normal((rows, col.state_dim)) + 0.5j
            plain = list(realization._resolvents(col, np.arange(6)))
            left = list(realization._resolvents(col, np.arange(6), w))
            assert len(left) == len(plain)
            for (at, g, h), (at_w, g_w, wh) in zip(plain, left):
                npt.assert_array_equal(at_w, at)
                npt.assert_array_equal(g_w, g)
                assert wh.shape == (at.size, rows, col.value_dim)
                assert max_abs(wh - w @ h) <= 1e-13, name

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 33])
    def test_gramian_halves_match_the_pairwise_loop(self, d, n):
        table = random_table(2, n, seed=100 * d + n)
        rep = random_representation(2, 3 + d, seed=200 * d + n)
        col = random_colligation(d, rep, table, seed=300 * d + n)
        u = col.matrix().copy()
        u[d - 1, 0] += 1e-3
        u[d, d + 1] -= 2e-3  # C, and with it every G_i
        bumped = Colligation.from_matrix(u, d, rep, table)
        for model in (col, bumped, Colligation.from_matrix(1.01 * u, d, rep, table)):
            gap = gramian_identity_check(model) - pairwise_gramian_residual(model)
            assert abs(gap) <= 1e-13
        assert gramian_identity_check(bumped) > 1e-7

    def test_projections_are_read_only_views_of_one_stack(self):
        rep = random_representation(3, 5, seed=110)
        projections = [p.copy() for p in rep.projections]
        held = Representation(tuple(projections))
        assert held._stack.shape == (3, 5, 5)
        assert not held._stack.flags.writeable
        for j, p in enumerate(held.projections):
            assert np.shares_memory(p, held._stack)
            assert not p.flags.writeable
            npt.assert_array_equal(p, projections[j])
            npt.assert_array_equal(held._stack[j].reshape(5, 5), projections[j])
        g = np.array([0.5, -0.25j, 0.125])
        explicit = sum(c * p for c, p in zip(g, projections))
        assert max_abs(rep_apply(held, g) - explicit) <= 1e-15

    def test_later_writes_change_no_value(self):
        table = random_table(2, 5, seed=111)
        pristine = random_colligation(2, random_representation(2, 4, seed=112), table, seed=113)
        projections = [p.copy() for p in pristine.rep.projections]
        blocks = {name: getattr(pristine, name).copy() for name in "ABCD"}
        col = Colligation(rep=Representation(tuple(projections)), table=table, **blocks)
        # before the first evaluation
        projections[0][0, 1] = 0.75
        blocks["D"][0, 0] = 0.75
        before = evaluate_all(col)
        npt.assert_array_equal(before, evaluate_all(pristine))
        # and after it
        projections[1][:] = 0.0
        blocks["D"][:] = 0.0
        npt.assert_array_equal(evaluate_all(col), before)


def chunked_models(n_points: int, n1: int, seed: int) -> dict[str, Colligation]:
    """One colligation for each kernel path, with state dimension n1 on
    the first three (so N = 1 when n1 = 1)."""
    rng = np.random.default_rng(seed)
    table = random_table(2, n_points, seed=seed)
    coordinate = random_colligation(2, coordinate_rep(rng, 2, n1), table, seed=seed + 1)
    other = random_colligation(2, coordinate_rep(rng, 2, 2), table, seed=seed + 2)
    dense = random_colligation(2, random_representation(2, n1, seed=seed + 3), table,
                               seed=seed + 4)
    return {
        "coordinate": coordinate,
        "split": product(coordinate, other),
        "dense": dense,
        "dense product": product(dense, other),
    }


def singular_at_point_two() -> tuple[Colligation, ...]:
    """(single, dense, shift, dense_shift) over five points, one chunk:
    I - D L(x_2) vanishes, 1 - 2 * 0.5 on the coordinate single and
    I - 2 (0.5 P + 0.5 (I - P)) on the dense one; shift shares the single's
    table, and the random isometric dense_shift, regular everywhere, the
    dense one's."""
    table = disc_table([0.0, 0.25, 0.5, -0.25, 0.125])
    single = Colligation(
        rep=coordinate_representation([1]),
        table=table,
        A=np.zeros((1, 1), dtype=complex),
        B=np.ones((1, 1), dtype=complex),
        C=np.ones((1, 1), dtype=complex),
        D=np.array([[2.0]], dtype=complex),
    )
    half = np.full((2, 2), 0.5, dtype=complex)
    values = np.vstack([table.values, [0.0, 0.1, 0.5, -0.3, 0.2]])
    dense = Colligation(
        rep=Representation((half, np.eye(2) - half)),
        table=FunctionTable(table.points, values),
        A=np.zeros((1, 1), dtype=complex),
        B=np.ones((1, 2), dtype=complex),
        C=np.ones((2, 1), dtype=complex),
        D=2.0 * np.eye(2, dtype=complex),
    )
    dense_shift = random_colligation(1, random_representation(2, 3, seed=160), dense.table,
                                     seed=161)
    return single, dense, coordinate_colligation(table), dense_shift


class TestChunkedKernel:
    """Points go through the kernel in chunks of max(1, budget // N^2): every
    chunk builds the full N x N stack, split or not."""

    @pytest.mark.parametrize("n1", [1, 3, 4])
    @pytest.mark.parametrize("n_points", range(2, 8))
    def test_a_value_does_not_depend_on_its_chunk(self, monkeypatch, kernel_calls,
                                                  n_points, n1):
        # three points per chunk: from one chunk of fewer points to three chunks
        models = chunked_models(n_points, n1, seed=120 + 10 * n_points + n1)
        assert is_coordinate(models["coordinate"].rep)
        assert models["split"].rep.split is not None
        assert not is_coordinate(models["dense"].rep)
        for name, col in models.items():
            kernel_calls.clear()
            whole = gramian_identity_check(col)
            side = max(shape[-1] for _, shape in kernel_calls)
            # both products solve their diagonal blocks, but every chunk
            # builds the full N x N stack and is sized by it
            assert (side < col.state_dim) == (name in ("split", "dense product"))
            with monkeypatch.context() as patch:
                patch.setattr(realization, "_RESOLVENT_BUDGET", 3 * col.state_dim ** 2)
                kernel_calls.clear()
                values = evaluate_all(col)
                assert max(shape[0] for _, shape in kernel_calls) == min(3, n_points)
                assert values.shape == (n_points, 2, 2)
                for i in range(n_points):
                    npt.assert_array_equal(evaluate(col, i), values[i])
                picked = np.array([n_points - 1, 0, n_points - 1])
                npt.assert_array_equal(evaluate(col, picked), values[picked])
                assert gramian_identity_check(col) == whole

    def test_a_singular_point_inside_a_chunk_is_named(self):
        single, dense, shift, dense_shift = singular_at_point_two()
        assert not is_coordinate(dense.rep)
        for col in (single, product(single, shift), product(shift, single), dense,
                    product(dense, dense_shift), product(dense_shift, dense)):
            calls = (
                lambda: evaluate_all(col),
                lambda: evaluate(col, np.array([4, 2, 1])),
                lambda: gramian_identity_check(col),
                lambda: verify_factorization(col, col, col),
            )
            for call in calls:
                with pytest.raises(SingularResolventError, match="point index 2;"):
                    call()
            assert np.isfinite(evaluate(col, np.array([0, 1, 3, 4]))).all()

    def test_the_first_singular_point_asked_is_named(self):
        # 1 - 2 * 0.5 vanishes at points 2 and 3: whichever is asked first is named
        table = FunctionTable(PointSet(("0", "a", "b", "c")), [[0, 0.25, 0.5, 0.5]])
        col = Colligation(coordinate_representation([1]), table, np.zeros((1, 1)),
                          np.ones((1, 1)), np.ones((1, 1)), np.array([[2.0]]))
        for call, index in ((lambda: evaluate_all(col), 2),
                            (lambda: evaluate(col, np.array([3, 1, 2])), 3),
                            (lambda: evaluate(col, np.array([1, 2, 3])), 2)):
            with pytest.raises(SingularResolventError, match=f"point index {index};"):
                call()

    def test_a_split_names_a_point_of_its_lower_right_block_first(self):
        # 1 - 4 * 0.25 and 1 - 2 * 0.5: f1 is singular at point 1, f2 at
        # point 2, and the n2 x n2 block, the second factor's, is solved first
        table = disc_table([0.0, 0.25, 0.5, -0.25])
        f1, f2 = (
            Colligation(rep=coordinate_representation([1]), table=table,
                        A=np.zeros((1, 1)), B=np.ones((1, 1)), C=np.ones((1, 1)),
                        D=np.array([[d]]))
            for d in (4.0, 2.0)
        )
        with pytest.raises(SingularResolventError, match="point index 2;"):
            evaluate_all(product(f1, f2))
        with pytest.raises(SingularResolventError, match="point index 1;"):
            evaluate_all(product(f2, f1))

    @pytest.mark.parametrize("budget", [9, 25, 60, 1 << 15])
    def test_no_solve_stack_exceeds_the_budget(self, monkeypatch, kernel_calls, budget):
        monkeypatch.setattr(realization, "_RESOLVENT_BUDGET", budget)
        for name, col in chunked_models(9, 3, seed=130).items():
            kernel_calls.clear()
            evaluate_all(col)
            gramian_identity_check(col)
            shapes = [shape for _, shape in kernel_calls]
            limit = max(budget, col.state_dim ** 2)
            assert max(np.prod(shape) for shape in shapes) <= limit
            # and no (c, 1, m) @ (m, N^2) product of a dense chunk
            assert all(a[0] * b[-1] <= limit for a, b in kernel_calls.products if len(a) == 3)
            # every point once per call, through both blocks on either split
            systems = 2 if name in ("split", "dense product") else 1
            assert sum(shape[0] for shape in shapes) == 2 * 9 * systems

    def test_the_default_budget_holds_at_large_state_dimension(self, kernel_calls):
        table = random_table(3, 20, seed=131)
        col = random_colligation(2, random_representation(3, 64, seed=132), table, seed=133)
        evaluate_all(col)
        assert [shape for _, shape in kernel_calls] == [(8, 64, 64), (8, 64, 64), (4, 64, 64)]

    def test_a_split_chunk_is_sized_by_its_blocks(self, kernel_calls):
        # N = 64 + 64: the budget holds 2 points of the full 128 x 128
        # stack, solved as its two 64 x 64 blocks
        rng = np.random.default_rng(134)
        table = random_table(2, 20, seed=135)
        col = product(
            random_colligation(2, coordinate_rep(rng, 2, 64), table, seed=136),
            random_colligation(2, coordinate_rep(rng, 2, 64), table, seed=137),
        )
        evaluate_all(col)
        assert [shape for _, shape in kernel_calls] == [(2, 64, 64)] * 20


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

    @pytest.mark.parametrize("huge, block", [("A", "A"), ("BC", "D")])
    def test_an_overflowing_product_is_refused_with_its_block(self, huge, block):
        # unvalidated factors with 1e200 entries: A A or C B overflows to inf,
        # without a numpy warning
        blocks = {name: np.array([[1e200 if name in huge else 0.5]]) for name in "ABCD"}
        col = Colligation(rep=coordinate_representation([1]), table=disc_table([0.0, 0.5]),
                          **blocks)
        with pytest.raises(FormatError) as info:
            product(col, col)
        assert str(info.value) == f"{block} contains non-finite entries"

    def test_product_blocks_are_fresh_and_read_only(self):
        table = random_table(2, 4, seed=215)
        col1 = random_colligation(2, random_representation(2, 3, seed=216), table, seed=217)
        col2 = random_colligation(2, random_representation(2, 2, seed=218), table, seed=219)
        joined = product(col1, col2)
        for name in "ABCD":
            block = getattr(joined, name)
            assert block.dtype == np.complex128 and not block.flags.writeable
            for factor in (col1, col2):
                assert not np.shares_memory(block, getattr(factor, name))

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


VARIANT_FACTORS = {
    "vanishing-selfadjoint": (random_vanishing_colligation, random_selfadjoint_base_colligation),
    "both-vanishing": (random_vanishing_colligation, random_vanishing_colligation),
    "general": (random_colligation, random_colligation),
}


def extracted_case(variant: str, kind: str, d: int, seed: int):
    """(parent, f1, f2): the product of two random isometric factors of the
    variant's shape, and the factors its extractor rebuilds from it.

    ``kind`` picks the factors' representations: "coordinate" (a parent on
    a coordinate split), "dense" (a dense parent) or "mixed" (a coordinate
    first factor under a dense parent).
    """
    rng = np.random.default_rng(seed)
    m = 1 + seed % 3
    table = random_table(m, 6, seed=seed)
    n1, n2 = d + int(rng.integers(0, 3)), d + int(rng.integers(0, 3))
    dense1, dense2 = random_representation(m, n1, seed + 1), random_representation(m, n2, seed + 2)
    reps = {
        "coordinate": (coordinate_rep(rng, m, n1), coordinate_rep(rng, m, n2)),
        "dense": (dense1, dense2),
        "mixed": (coordinate_rep(rng, m, n1), dense2),
    }[kind]
    make1, make2 = VARIANT_FACTORS[variant]
    first, second = make1(d, reps[0], table, seed + 3), make2(d, reps[1], table, seed + 4)
    parent = product(first, second)
    assert is_coordinate(parent.rep) == (kind == "coordinate")
    s, v = split_blocks(parent), VARIANT_TABLE[variant]
    if variant == "both-vanishing":
        witnesses = v.search(s, {})
    else:
        known = {"A": second.A, "A1": first.A, "A2": second.A, "X1": first.C, "Y2": second.B}
        witnesses = {k: known[k] for k in v.witnesses}
    return (parent, *v.extract(s, witnesses))


@pytest.fixture
def evaluations(monkeypatch):
    """Records [colligation, values] for each call of the module-level
    evaluate; values stay None when the call raises."""
    calls = []
    original = realization.evaluate

    def recorded(col, i):
        calls.append([col, None])
        calls[-1][1] = original(col, i)
        return calls[-1][1]

    monkeypatch.setattr(realization, "evaluate", recorded)
    return calls


def three_passes(parent: Colligation, f1: Colligation, f2: Colligation) -> float:
    """verify_factorization's residual from three separate evaluations."""
    return max_abs(evaluate_all(parent) - evaluate_all(f1) @ evaluate_all(f2))


def _ulp_up(m: np.ndarray, at: tuple[int, int]) -> np.ndarray:
    out = np.array(m)
    out[at] = np.nextafter(out[at].real, np.inf) + 1j * out[at].imag
    return out


def _with(col: Colligation, **parts) -> Colligation:
    fields = dict(rep=col.rep, table=col.table, A=col.A, B=col.B, C=col.C, D=col.D)
    return Colligation(**{**fields, **parts})


def _stray(parent: Colligation, where: str) -> Colligation:
    """``parent`` with 1e-300 just outside the block pattern of its split:
    in the lower-left D block, or off the diagonal blocks of P_1."""
    n1 = parent.rep.split[0]
    if where == "D":
        d = np.array(parent.D)
        d[n1, 0] = 1e-300
        return _with(parent, D=d)
    projections = list(parent.rep.projections)
    projections[0] = np.array(projections[0])
    projections[0][0, n1] = 1e-300
    return _with(parent, rep=Representation(tuple(projections), split=parent.rep.split))


FALLBACKS = {
    "first D off by one ulp": lambda p, f1, f2: (p, _with(f1, D=_ulp_up(f1.D, (0, 0))), f2),
    "second projection changed": lambda p, f1, f2: (p, f1, _with(f2, rep=Representation(
        (_ulp_up(f2.rep.projections[0], (0, 0)),) + f2.rep.projections[1:]))),
    "lower-left D entry": lambda p, f1, f2: (_stray(p, "D"), f1, f2),
    "off-diagonal projection entry": lambda p, f1, f2: (_stray(p, "P"), f1, f2),
    "swapped factors": lambda p, f1, f2: (p, f2, f1),
    "first B off by one ulp": lambda p, f1, f2: (p, _with(f1, B=_ulp_up(f1.B, (0, 0))), f2),
    "second C off by one ulp": lambda p, f1, f2: (p, f1, _with(f2, C=_ulp_up(f2.C, (0, 0)))),
}

KIND_FLAGS = {"coordinate": True, "dense": False, "mixed": (True, False)}


class TestVerifyFactorization:
    @pytest.mark.parametrize("variant", ["vanishing-selfadjoint", "both-vanishing", "general"])
    def test_stacked_form_is_bit_identical_to_the_pointwise_form(self, variant):
        # factors in their own order share the parent's blocks and take one
        # resolvent pass, which may round differently; swapped, they take
        # three passes, bit-identical to the pointwise form
        for seed in range(20):
            d, n1, n2, m = 1 + seed % 3, 1 + seed % 4, 1 + (seed // 4) % 4, 1 + seed % 3
            first, second, parent, _ = conforming_pair(variant, d, max(n1, d), max(n2, d), m, 900 + seed)
            for f1, f2 in ((first, second), (second, first)):
                pointwise = max(
                    max_abs(evaluate(parent, i) - evaluate(f1, i) @ evaluate(f2, i))
                    for i in range(parent.table.n)
                )
                if f1 is second:
                    assert verify_factorization(parent, f1, f2) == pointwise
                    continue
                reference = max(
                    max_abs(dense_evaluate(parent, i) - dense_evaluate(f1, i) @ dense_evaluate(f2, i))
                    for i in range(parent.table.n)
                )
                residual = verify_factorization(parent, f1, f2)
                assert abs(residual - pointwise) <= 1e-14
                assert abs(residual - reference) <= 1e-12

    @pytest.mark.parametrize("kind", ["coordinate", "dense", "mixed"])
    @pytest.mark.parametrize("variant", ["vanishing-selfadjoint", "both-vanishing", "general"])
    def test_one_pass_evaluates_the_defect_colligation(self, evaluations, variant, kind):
        for d in range(1, 5):
            parent, f1, f2 = extracted_case(variant, kind, d, seed=300 + 10 * d)
            evaluations.clear()
            residual = verify_factorization(parent, f1, f2)
            [(defect, values)] = evaluations
            assert defect.rep is parent.rep and defect.table is parent.table
            assert defect.value_dim == d
            n1 = parent.rep.split[0]
            npt.assert_array_equal(defect.D[:n1, :n1], parent.D[:n1, :n1])
            npt.assert_array_equal(defect.D[n1:, n1:], parent.D[n1:, n1:])
            assert not defect.D[n1:, :n1].any()
            assert residual == max_abs(values)
            assert residual <= 1e-12
            difference = evaluate_all(parent) - evaluate_all(f1) @ evaluate_all(f2)
            assert max_abs(values - difference) <= 1e-14
            for i in range(parent.table.n):
                dense = dense_evaluate(parent, i) - dense_evaluate(f1, i) @ dense_evaluate(f2, i)
                assert max_abs(values[i] - dense) <= 1e-12

    @pytest.mark.parametrize("size", [1e-6, 1e-3])
    @pytest.mark.parametrize("block", ["f1.A", "f1.C", "f2.A", "f2.B"])
    @pytest.mark.parametrize("kind", ["coordinate", "dense", "mixed"])
    def test_a_bumped_witness_block_is_measured_as_by_three_passes(self, evaluations, kind,
                                                                  block, size):
        # the bumped factor still shares the parent's blocks, so one pass runs,
        # and it must see a defect of the bump's size, not only rounding
        for variant in VARIANT_TABLE:
            parent, f1, f2 = extracted_case(variant, kind, 2, seed=330)
            factors = {"f1": f1, "f2": f2}
            name, field = block.split(".")
            old = getattr(factors[name], field)
            phases = np.random.default_rng(5).random(old.shape)
            factors[name] = _with(factors[name], **{field: old + size * np.exp(2j * np.pi * phases)})
            f1, f2 = factors["f1"], factors["f2"]
            assert factorization._shares_blocks(parent, f1, f2)
            evaluations.clear()
            residual = verify_factorization(parent, f1, f2)
            assert len(evaluations) == 1
            assert residual > size / 10
            assert abs(residual - three_passes(parent, f1, f2)) <= 1e-12

    @pytest.mark.parametrize("kind", ["coordinate", "dense", "mixed"])
    @pytest.mark.parametrize("overflow", ["A1 A2", "A1 A2 of both signs", "X1 Y2"])
    def test_an_overflowing_witness_product_reads_inf(self, evaluations, kind, overflow):
        # inf and inf - inf = NaN entries both read as inf, with no warning
        parent, f1, f2 = extracted_case("general", kind, 2, seed=340)
        huge, mixed = np.full((2, 2), 1e200), np.array([[1e200, 1e200], [-1e200, -1e200]])
        f1, f2 = {
            "A1 A2": (_with(f1, A=huge), _with(f2, A=huge)),
            "A1 A2 of both signs": (_with(f1, A=huge), _with(f2, A=mixed)),
            "X1 Y2": (_with(f1, C=np.full(f1.C.shape, 1e200)), _with(f2, B=np.full(f2.B.shape, 1e200))),
        }[overflow]
        assert factorization._shares_blocks(parent, f1, f2)
        evaluations.clear()
        assert verify_factorization(parent, f1, f2) == np.inf
        assert len(evaluations) == 1
        with np.errstate(over="ignore", invalid="ignore"):
            assert three_passes(parent, f1, f2) == np.inf

    def test_overflowing_swapped_factors_read_inf_without_a_warning(self, evaluations):
        # swapped, the factors share no block and take three passes, whose
        # product of values overflows: it saturates as the one pass does
        parent, f1, f2 = extracted_case("general", "dense", 2, seed=310)
        huge = np.full((2, 2), 1e200)
        f1, f2 = _with(f1, A=huge), _with(f2, A=huge)
        assert verify_factorization(parent, f2, f1) == np.inf
        assert [col for col, _ in evaluations] == [parent, f2, f1]

    @pytest.mark.parametrize("kind", ["coordinate", "dense"])
    @pytest.mark.parametrize("trigger", list(FALLBACKS))
    def test_each_fallback_trigger_evaluates_three_times(self, evaluations, trigger, kind):
        parent, f1, f2 = FALLBACKS[trigger](*extracted_case("general", kind, 2, seed=77))
        expected = three_passes(parent, f1, f2)
        evaluations.clear()
        assert verify_factorization(parent, f1, f2) == expected
        assert [col for col, _ in evaluations] == [parent, f1, f2]

    @pytest.mark.parametrize("kind", ["coordinate", "dense", "mixed"])
    def test_the_block_test_reads_slices_without_restricting(self, monkeypatch, kind):
        # the one-pass test copies no corner and runs no tolerance check
        parent, f1, f2 = extracted_case("general", kind, 2, seed=78)
        calls = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(Representation, "restrict",
                            counted("restrict", Representation.restrict))
        for module in (realization, factorization):
            monkeypatch.setattr(module, "rep_is_reducible",
                                counted("rep_is_reducible", module.rep_is_reducible))
        assert factorization._shares_blocks(parent, f1, f2)
        assert verify_factorization(parent, f1, f2) <= 1e-12
        assert calls == []

    @pytest.mark.parametrize("kind", ["coordinate", "dense", "mixed"])
    def test_products_extractions_and_round_trips_share_blocks(self, tmp_path, kind):
        # a product, or an extractor, that builds B or C another way must
        # fail here rather than fall silently into three passes
        for variant in VARIANT_TABLE:
            for d in range(1, 4):
                first, second, parent, _ = conforming_pair(
                    variant, d, d + 1, d + 2, 1 + d % 3, 400 + 10 * d, coordinate=KIND_FLAGS[kind]
                )
                assert factorization._shares_blocks(parent, first, second)
                triple = extracted_case(variant, kind, d, seed=310 + 10 * d)
                assert factorization._shares_blocks(*triple)
                paths = [tmp_path / f"{name}.json" for name in ("parent", "f1", "f2")]
                for col, path in zip(triple, paths):
                    save_colligation(col, path)
                assert factorization._shares_blocks(*map(load_colligation, paths))

    def test_each_solve_carries_one_value_dimension(self, monkeypatch):
        columns = []
        original = realization._solve

        def recorded(a, b, at):
            columns.append(b.shape[-1])
            return original(a, b, at)

        monkeypatch.setattr(realization, "_solve", recorded)
        for d in range(1, 5):
            parent, f1, f2 = extracted_case("general", "dense", d, seed=320 + 10 * d)
            columns.clear()
            assert verify_factorization(parent, f1, f2) <= 1e-12
            assert columns and set(columns) == {d}

    def test_a_singular_point_is_named_as_by_three_passes(self, evaluations):
        single, dense, shift, dense_shift = singular_at_point_two()
        for f1, f2 in ((single, shift), (shift, single), (dense, dense),
                       (dense, dense_shift), (dense_shift, dense)):
            parent = product(f1, f2)
            with pytest.raises(SingularResolventError) as three:
                three_passes(parent, f1, f2)
            evaluations.clear()
            with pytest.raises(SingularResolventError) as one:
                verify_factorization(parent, f1, f2)
            assert str(one.value) == str(three.value)
            assert "point index 2;" in str(one.value)
            assert len(evaluations) == 1 and evaluations[0][0].value_dim == 1


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
