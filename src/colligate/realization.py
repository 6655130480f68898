"""Colligations over finite test-function families.

A colligation packages an isometric block operator U = [[A, B], [C, D]]
with a finite unital *-representation given by orthogonal projections,
one per test function.  Its transfer function

    f(x) = A + B L(x) (I - D L(x))^{-1} C,    L(x) = sum_j psi_j(x) P_j

is evaluated pointwise on the family's point set.  Products of
colligations realize products of transfer functions and carry a state
split that the factorization checks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import DimensionError, SingularResolventError, StructureError
from .linalg import (
    DEFAULT_ATOL,
    _adopted,
    _check_atol,
    _check_finite,
    _expect,
    _integer,
    _is_integer,
    _isometry_defect,
    _rng,
    _rng_isometry,
    _saturating,
    as_matrix,
    max_abs,
    random_isometry,
)
from .testfn import TestFunctionTable, _coefficients, _point_indices

__all__ = [
    "Representation",
    "Colligation",
    "coordinate_representation",
    "random_representation",
    "direct_sum",
    "rep_apply",
    "rep_is_reducible",
    "evaluate",
    "evaluate_all",
    "product",
    "gramian_identity_check",
    "random_colligation",
    "random_vanishing_colligation",
    "random_selfadjoint_base_colligation",
]

# points per row chunk of the Gramian residual
_GRAMIAN_CHUNK = 8
# entries of one (c, N, N) stack of resolvent matrices: a chunk of the
# resolvent kernel holds max(1, _RESOLVENT_BUDGET // N^2) points
_RESOLVENT_BUDGET = 1 << 15
# the interval random_selfadjoint_base_colligation draws A's eigenvalues from
_SPECTRUM = (0.25, 0.85)


@dataclass(frozen=True, eq=False)
class Representation:
    """Finite unital *-representation: one projection per test function.

    The projections must be Hermitian idempotents that are mutually
    orthogonal and sum to the identity; defects() measures how far a
    given family strays from that.  ``split`` optionally records that
    the state space is an ordered direct sum of two blocks.  The
    projections are copied once into one read-only stack, and
    ``projections`` holds views of it, so a later write to the caller's
    arrays cannot change the representation.
    """

    projections: tuple[np.ndarray, ...]
    split: tuple[int, int] | None = None
    # the read-only (m, N, N) array whose rows the projections are views of
    _stack: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not np.iterable(self.projections):
            raise StructureError(f"projections must be a sequence, got {self.projections!r}")
        mats = [as_matrix(p, "projection") for p in self.projections]
        if not mats:
            raise StructureError("a representation needs at least one projection")
        n = mats[0].shape[0]
        for p in mats:
            if p.shape != (n, n):
                raise DimensionError(
                    f"projections must share one square shape, got {p.shape}"
                )
        self._adopt(np.array(mats), self.split)

    def _adopt(self, stack: np.ndarray, split: tuple[int, int] | None = None) -> None:
        """Freeze ``stack`` and make it the projections' one home; check
        ``split`` against its dimension."""
        stack.setflags(write=False)
        n = stack.shape[1]
        object.__setattr__(self, "projections", tuple(stack))
        object.__setattr__(self, "_stack", stack)
        if split is not None:
            parts = _integers(split, "split")
            if len(parts) != 2 or min(parts) < 1 or sum(parts) != n:
                raise StructureError(
                    f"split {split} does not partition state dimension {n}"
                )
            split = parts
        object.__setattr__(self, "split", split)

    @property
    def state_dim(self) -> int:
        return self.projections[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.projections)

    def defects(self) -> dict[str, float]:
        """Worst-case residuals of the projection-family axioms."""
        p = self._stack
        herm = max_abs(p - p.conj().transpose(0, 2, 1))
        idem = max_abs(p @ p - p)
        # pair by pair: a batched p[a] @ p[b] copies every pair and was slower
        pairs = combinations(range(self.m), 2)
        orth = max([max_abs(p[a] @ p[b]) for a, b in pairs], default=0.0)
        total = max_abs(p.sum(axis=0) - np.eye(self.state_dim))
        return {"hermitian": herm, "idempotent": idem, "orthogonal": orth, "unital": total}

    def validate(self, atol: float = DEFAULT_ATOL) -> None:
        _check_atol(atol)
        for name, value in self.defects().items():
            if value > atol:
                raise StructureError(
                    f"projection family fails the {name} axiom by {value:.3e}"
                )

    def restrict(self, half: int) -> "Representation":
        """Corner restriction to one block of the split (0 or 1)."""
        if self.split is None:
            raise StructureError("restriction requires a split")
        if not (_is_integer(half) and half in (0, 1)):
            raise StructureError(f"restriction takes half 0 or 1, got {half!r}")
        n1, _ = self.split
        sl = slice(0, n1) if half == 0 else slice(n1, self.state_dim)
        return _adopted(Representation, self._stack[:, sl, sl].copy())


def _integers(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints: booleans and fractional entries are
    refused, not truncated."""
    items = tuple(values) if np.iterable(values) else (None,)
    if not all(_is_integer(v) for v in items):
        raise StructureError(f"{name} must be a sequence of integers, got {values!r}")
    return tuple(int(v) for v in items)


def coordinate_representation(sizes: Sequence[int]) -> Representation:
    """Projections onto consecutive coordinate blocks of the given sizes.

    Zero-sized blocks give zero projections, which is legal as long as
    the total is at least 1.
    """
    sizes = _integers(sizes, "block sizes")
    if any(s < 0 for s in sizes):
        raise StructureError("block sizes must be nonnegative")
    n = sum(sizes)
    if n < 1:
        raise StructureError("total state dimension must be at least 1")
    stack = np.zeros((len(sizes), n, n), dtype=np.complex128)
    offset = 0
    for j, s in enumerate(sizes):
        stack[j, offset : offset + s, offset : offset + s] = np.eye(s)
        offset += s
    return _adopted(Representation, stack)


def _round_robin_representation(m: int, state_dim: int) -> Representation:
    """Coordinate representation of m blocks dealt round-robin: the first
    state_dim % m blocks take one coordinate more than the others."""
    return coordinate_representation(
        [state_dim // m + (1 if r < state_dim % m else 0) for r in range(m)]
    )


def random_representation(m: int, state_dim: int, seed: int) -> Representation:
    """Random projection family: a seeded unitary conjugating a
    round-robin coordinate partition of the state space."""
    m, state_dim = _integer(m, "m"), _integer(state_dim, "state_dim")
    if m < 1 or state_dim < 1:
        raise StructureError("need at least one function and one state dimension")
    rng = _rng(seed)
    v = _rng_isometry(rng, state_dim, state_dim)
    stack = _round_robin_representation(m, state_dim)._stack
    return _adopted(Representation, v @ stack @ v.conj().T)


def direct_sum(rep1: Representation, rep2: Representation) -> Representation:
    """Block-diagonal sum; records the split of the two summands."""
    _expect("a direct sum", (rep1, Representation), (rep2, Representation))
    if rep1.m != rep2.m:
        raise StructureError(
            f"representations act for {rep1.m} and {rep2.m} functions"
        )
    n1, n2 = rep1.state_dim, rep2.state_dim
    stack = np.zeros((rep1.m, n1 + n2, n1 + n2), dtype=np.complex128)
    stack[:, :n1, :n1] = rep1._stack
    stack[:, n1:, n1:] = rep2._stack
    return _adopted(Representation, stack, (n1, n2))


def rep_apply(rep: Representation, g) -> np.ndarray:
    """Apply the representation to a coefficient vector: sum g_j P_j,
    one product of g with the flat (m, N^2) view of the projection stack."""
    _expect("a representation's action", (rep, Representation))
    gv = _coefficients(g, rep.m)
    n = rep.state_dim
    return (gv @ rep._stack.reshape(rep.m, n * n)).reshape(n, n)


def rep_is_reducible(rep: Representation, atol: float = DEFAULT_ATOL) -> bool:
    """True iff every projection is block diagonal for the split."""
    _expect("reducibility", (rep, Representation))
    _check_atol(atol)
    if rep.split is None:
        raise StructureError("reducibility is relative to a split, none recorded")
    n1, stack = rep.split[0], rep._stack
    return max(max_abs(stack[:, :n1, n1:]), max_abs(stack[:, n1:, :n1])) <= atol


@dataclass(frozen=True, eq=False)
class Colligation:
    """Isometric block operator with a representation and a value table.

    A is value_dim square, D is state_dim square, B and C are the
    off-diagonal blocks of U = [[A, B], [C, D]].  Instances are plain
    data: isometry is measured by isometry_defect() and enforced by
    validate(), not by the constructor, so perturbed operators can be
    studied with the same type.  The constructor copies the four blocks, so a
    later write to the caller's arrays cannot change the colligation, and
    ``_adopted`` takes blocks no caller holds; ``_adopt`` checks and freezes both.
    """

    rep: Representation
    table: TestFunctionTable
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        blocks = (np.array(as_matrix(getattr(self, k), k)) for k in "ABCD")
        self._adopt(self.rep, self.table, *blocks)

    @property
    def value_dim(self) -> int:
        return self.A.shape[0]

    @property
    def state_dim(self) -> int:
        return self.D.shape[0]

    def matrix(self) -> np.ndarray:
        """The full block operator [[A, B], [C, D]]."""
        return _block2(self.A, self.B, self.C, self.D)

    def isometry_defect(self) -> float:
        return _isometry_defect(self.matrix())

    def validate(self, atol: float = DEFAULT_ATOL) -> None:
        self.rep.validate(atol)
        defect = self.isometry_defect()
        if defect > atol:
            raise StructureError(
                f"block operator fails isometry by {defect:.3e}"
            )

    def _adopt(self, rep, table, a, b, c, d) -> None:
        """The one check of the blocks against each other, the representation
        and the table; then freeze them and make them A, B, C and D."""
        _expect("a colligation", (rep, Representation), (table, TestFunctionTable))
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "table", table)
        dim, n = a.shape[0], d.shape[0]
        if a.shape != (dim, dim) or d.shape != (n, n):
            raise DimensionError("diagonal blocks must be square")
        if b.shape != (dim, n) or c.shape != (n, dim):
            raise DimensionError(
                f"off-diagonal blocks {b.shape}, {c.shape} do not match "
                f"value dimension {dim} and state dimension {n}"
            )
        if self.rep.state_dim != n:
            raise DimensionError(
                f"representation acts on dimension {self.rep.state_dim}, "
                f"state blocks have dimension {n}"
            )
        if self.rep.m != self.table.m:
            raise StructureError(
                f"representation has {self.rep.m} projections for "
                f"{self.table.m} test functions"
            )
        for name, block in zip("ABCD", (a, b, c, d)):
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    @classmethod
    def from_matrix(
        cls,
        u,
        value_dim: int,
        rep: Representation,
        table: TestFunctionTable,
    ) -> "Colligation":
        """Partition a (value_dim + state_dim) square matrix into blocks:
        ``u`` is copied once, and the blocks are read-only views of the copy."""
        _expect("a colligation", (rep, Representation), (table, TestFunctionTable))
        m = np.array(as_matrix(u, "block operator"))
        d = _integer(value_dim, "value_dim")
        n = rep.state_dim
        if m.shape != (d + n, d + n):
            raise DimensionError(
                f"block operator is {m.shape}, expected {(d + n, d + n)}"
            )
        m.setflags(write=False)
        return _adopted(cls, rep, table, m[:d, :d], m[:d, d:], m[d:, :d], m[d:, d:])


def _block2(a: np.ndarray, b: np.ndarray, c, d: np.ndarray) -> np.ndarray:
    """The 2 x 2 block matrix [[a, b], [c, d]], written into one fresh
    array; ``c`` may be a scalar filling its block."""
    r, s = a.shape
    out = np.empty((r + d.shape[0], s + d.shape[1]), dtype=np.complex128)
    out[:r, :s] = a
    out[:r, s:] = b
    out[r:, :s] = c
    out[r:, s:] = d
    return out


def _solve(a: np.ndarray, b: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` over the (c, M, M) stack ``a``, item k at point
    index ``at[k]``.  The batched solve and ``np.linalg.slogdet`` factor
    every item with the same LAPACK LU, so after a failure the first item
    of determinant sign 0 names the singular point."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        k = (np.linalg.slogdet(a).sign == 0).argmax()
        raise SingularResolventError(
            f"resolvent is singular at point index {at[k]}; the sampled family "
            "or the operator violates contractivity"
        ) from exc


def _triangular_split(col: Colligation) -> int:
    """n1 of the recorded split (n1, n2) when D's lower-left block and the
    off-diagonal blocks of every projection are exact zeros, else 0.  Then
    I - D L(x) is block upper triangular at n1 at every point."""
    if col.rep.split is None:
        return 0
    n1, stack = col.rep.split[0], col.rep._stack
    if col.D[n1:, :n1].any() or stack[:, :n1, n1:].any() or stack[:, n1:, :n1].any():
        return 0
    return n1


def _resolvents(col: Colligation, at: np.ndarray, left=None):
    """Yield (chunk, G, W H) for the 1-D array ``at`` of point indices that
    passed the point-index rule, chunk by chunk: G[k] = (I - D L_k)^{-1} C
    and H[k] = L_k G[k] at point index chunk[k], W the matrix ``left`` with
    N columns, or the identity when it is None.

    The one resolvent kernel of the module: every evaluation and the
    Gramian identity go through it, so a singular resolvent is reported
    the same way, with its point index, wherever it shows up.  Every
    family forms each D P_j and W P_j once per call (m N^3 and m r N^2;
    with no W the projection stack is its own table), then O(m N^2) per
    point, and no L_k is formed.  A chunk of c points with coefficient
    rows psi holds max(1, _RESOLVENT_BUDGET // N^2) points, so every stack
    of I - D L_k stays under the budget, and chunks are yielded one at a
    time.  In a chunk, D L_k = sum_j psi_kj D P_j is one batched
    (c, 1, m) @ (m, N^2) product over a flat view, and W L_k G_k =
    sum_j psi_kj (W P_j) G_k one (m r, N) @ (c, N, d) product and one
    (c, 1, m) @ (c, m, r d) product.

    Whenever ``_triangular_split`` finds an exact split n1, as ``product``
    writes it, the block triangular system is back-substituted on slices
    of the full stack: the n2 x n2 block first with C[n1:], then the
    n1 x n1 block with C[:n1] - R12 G2, R12 its upper right.  So a chunk
    names the first point singular in its n2 x n2 block if it has one,
    and only else the first in its n1 x n1 block.

    Each point's matrix is built by its one-point operation whatever the
    chunk; numpy runs the solve and the products after it item by item
    over the stack, so a point's G and W H do not depend on its chunk.
    """
    psi = col.table.values[:, at].T.copy()
    stack, n = col.rep._stack, col.state_dim
    dp = np.matmul(col.D, stack).reshape(-1, n * n)
    wp = stack if left is None else np.matmul(left, stack)
    n1 = _triangular_split(col)
    step = max(1, _RESOLVENT_BUDGET // n**2)
    for start in range(0, at.size, step):
        chunk, coef = at[start : start + step], psi[start : start + step, None, :]
        resolvent = np.matmul(-coef, dp).reshape(chunk.size, n * n)
        # I - D L_k in place: every (n + 1)-th entry of the flat -D L_k is on its diagonal
        resolvent[:, :: n + 1] += 1.0
        resolvent = resolvent.reshape(chunk.size, n, n)
        g = _solve(resolvent[:, n1:, n1:], col.C[n1:], chunk)
        if n1:
            g1 = _solve(resolvent[:, :n1, :n1], col.C[:n1] - resolvent[:, :n1, n1:] @ g, chunk)
            g = np.concatenate([g1, g], axis=1)
        # (c, m r, d) as (c, m, r d): row j of item k is W P_j G_k, flattened
        terms = np.matmul(wp.reshape(-1, n), g).reshape(chunk.size, len(wp), -1)
        wh = np.matmul(coef, terms).reshape(chunk.size, wp.shape[1], -1)
        # a generator keeps its locals alive across yield: free the chunk's stacks first
        del resolvent, terms
        yield chunk, g, wh


def evaluate(col: Colligation, i) -> np.ndarray:
    """Transfer function of ``col`` at point index ``i``, shape (d, d).

    ``i`` may also be a 1-D integer array of point indices; the values
    are then stacked as shape (k, d, d), and each is bit-identical to
    the one-point value.  Solves (I - D L) x = C directly at every call
    and returns A + B L x, with B L x from the kernel's ``left=B``.  At
    the base point L vanishes and the result is exactly the A block.
    """
    _expect("evaluation", (col, Colligation))
    at = np.atleast_1d(_point_indices(col.table, i))
    values = np.empty((at.size, col.value_dim, col.value_dim), dtype=np.complex128)
    stop = 0
    for chunk, _, bh in _resolvents(col, at, col.B):
        start, stop = stop, stop + chunk.size
        values[start:stop] = col.A + bh
    return values[0] if np.ndim(i) == 0 else values


def evaluate_all(col: Colligation) -> np.ndarray:
    """Transfer function on every point, stacked as shape (n, d, d)."""
    _expect("evaluation", (col, Colligation))
    return evaluate(col, np.arange(col.table.n))


def _require_compatible(*cols: Colligation, what: str = "a product") -> None:
    """Every colligation shares the value dimension and the exact sampled
    family of the first: the precondition of a product and its check."""
    for col in cols:
        _expect(what, (col, Colligation))
    dims = [col.value_dim for col in cols]
    if len(set(dims)) > 1:
        raise DimensionError(f"value dimensions differ: {', '.join(map(str, dims))}")
    if not all(cols[0].table.same_family(col.table) for col in cols[1:]):
        raise StructureError("factors are sampled on different families")


def product(col1: Colligation, col2: Colligation) -> Colligation:
    """Colligation realizing the pointwise product of two transfer functions.

    Both factors must share the value dimension and the exact same
    sampled family.  The result acts on the direct sum of the state
    spaces, keeps a split recording the two summands, and is isometric
    whenever both factors are.  Its transfer function at every point is
    evaluate(col1, i) @ evaluate(col2, i).
    """
    _require_compatible(col1, col2)
    with _saturating():
        a = col1.A @ col2.A
        b = np.hstack([col1.B, col1.A @ col2.B])
        c = np.vstack([col1.C @ col2.A, col2.C])
        d = _block2(col1.D, col1.C @ col2.B, 0.0, col2.D)
    # factors that were never validated can overflow: refused as by the constructor
    for name, block in zip("ABCD", (a, b, c, d)):
        _check_finite(block, name)
    return _adopted(Colligation, direct_sum(col1.rep, col2.rep), col1.table, a, b, c, d)


def gramian_identity_check(col: Colligation) -> float:
    """Worst residual of the defect identity over all point pairs.

    For G_i = (I - D L_i)^{-1} C the identity

        I - f(x_j)* f(x_i) = G_j* (I - L_j* L_i) G_i

    holds exactly for isometric colligations; the returned number is
    the largest entrywise deviation over all (i, j).

    With H_i = L_i G_i the residual of the pair is
    R_ij = I - F_j* F_i - G_j* G_i + H_j* H_i, plain algebra that needs
    no projection axiom, so perturbed colligations are measured the same
    way.  The columns [F_i; G_i; H_i] are stacked once into K, of shape
    (d + 2N, n d).  Since R_ji = R_ij*, only the upper block triangle is
    formed: the points j go in row chunks of _GRAMIAN_CHUNK, and each
    chunk's [F_j; G_j; -H_j]* is multiplied with the columns of K from
    the chunk's first point on.  That is about n^2 d^2 (d + 2N) / 2
    flops, O(n N d) memory for K and O(n d^2 _GRAMIAN_CHUNK) for the
    residuals of one chunk.
    """
    _expect("the Gramian identity", (col, Colligation))
    n_points = col.table.n
    d = col.value_dim
    n_state = col.state_dim
    # column i * d + r of the flat stack is column r of [F_i; G_i; H_i]
    stack = np.empty((d + 2 * n_state, n_points, d), dtype=np.complex128)
    for chunk, g, h in _resolvents(col, np.arange(n_points)):
        points = slice(chunk[0], chunk[-1] + 1)
        stack[:d, points] = (col.A + col.B @ h).transpose(1, 0, 2)
        stack[d : d + n_state, points] = g.transpose(1, 0, 2)
        stack[d + n_state :, points] = h.transpose(1, 0, 2)
    stack = stack.reshape(d + 2 * n_state, n_points * d)
    eye = np.eye(d)[:, None, :]
    worst = 0.0
    for start in range(0, n_points, _GRAMIAN_CHUNK):
        first = start * d
        rows = stack[:, first : min(start + _GRAMIAN_CHUNK, n_points) * d].conj().T
        rows[:, d + n_state :] *= -1.0
        residual = rows @ stack[:, first:]
        # viewed as (row point, row, column point, column): I_d from every block
        residual.reshape(-1, d, n_points - start, d)[...] -= eye
        worst = max(worst, max_abs(residual))
    return worst


def random_colligation(
    value_dim: int,
    rep: Representation,
    table: TestFunctionTable,
    seed: int,
) -> Colligation:
    """Uniformly random isometric colligation over the given data."""
    _expect("a colligation", (rep, Representation), (table, TestFunctionTable))
    size = _integer(value_dim, "value_dim") + rep.state_dim
    u = random_isometry(size, size, seed)
    return Colligation.from_matrix(u, value_dim, rep, table)


def _absorbed_value_dim(value_dim: int, rep: Representation) -> int:
    """``value_dim`` as an int, refused when the state space is smaller."""
    d = _integer(value_dim, "value_dim")
    if rep.state_dim < d:
        raise DimensionError(
            f"state dimension {rep.state_dim} cannot absorb value dimension {d}"
        )
    return d


def _completed(
    rng: np.random.Generator,
    first: np.ndarray,
    rep: Representation,
    table: TestFunctionTable,
) -> Colligation:
    """Colligation whose first block column is the isometric ``first``,
    completed by random orthonormal columns spanning its complement."""
    u, s, _ = np.linalg.svd(first, full_matrices=True)
    rank = int(np.count_nonzero(s > 1e-12)) if s.size else 0
    # first is (d + n) x d of rank at most d: its complement has room for n
    rest = u[:, rank:] @ _rng_isometry(rng, u.shape[0] - rank, rep.state_dim)
    return Colligation.from_matrix(np.hstack([first, rest]), first.shape[1], rep, table)


def random_vanishing_colligation(
    value_dim: int,
    rep: Representation,
    table: TestFunctionTable,
    seed: int,
) -> Colligation:
    """Random isometric colligation whose base-point value is exactly zero.

    Needs state_dim >= value_dim: the first block column is [0; C] with
    C a random isometry, completed by random orthonormal columns.
    """
    _expect("a colligation", (rep, Representation), (table, TestFunctionTable))
    d = _absorbed_value_dim(value_dim, rep)
    rng = _rng(seed)
    c = _rng_isometry(rng, rep.state_dim, d)
    first = np.vstack([np.zeros((d, d), dtype=np.complex128), c])
    return _completed(rng, first, rep, table)


def random_selfadjoint_base_colligation(
    value_dim: int,
    rep: Representation,
    table: TestFunctionTable,
    seed: int,
) -> Colligation:
    """Random isometric colligation whose base-point value is a
    selfadjoint invertible strict contraction.

    The A block is built with eigenvalues drawn from ``_SPECTRUM`` (kept
    away from 0 and 1), and the C block is chosen so the first block
    column is isometric.  Needs state_dim >= value_dim.
    """
    _expect("a colligation", (rep, Representation), (table, TestFunctionTable))
    d = _absorbed_value_dim(value_dim, rep)
    rng = _rng(seed)
    v = _rng_isometry(rng, d, d)
    eigs = rng.uniform(*_SPECTRUM, size=d)
    a = v @ np.diag(eigs) @ v.conj().T
    a = (a + a.conj().T) / 2.0
    root = v @ np.diag(np.sqrt(1.0 - eigs**2)) @ v.conj().T
    w = _rng_isometry(rng, rep.state_dim, d)
    return _completed(rng, np.vstack([a, w @ root]), rep, table)
