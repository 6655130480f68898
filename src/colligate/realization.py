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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, SingularResolventError, StructureError
from .linalg import (
    DEFAULT_ATOL,
    _check_atol,
    _rng_isometry,
    as_matrix,
    max_abs,
    random_isometry,
)
from .testfn import TestFunctionTable, eval_map

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


@dataclass(frozen=True, eq=False)
class Representation:
    """Finite unital *-representation: one projection per test function.

    The projections must be Hermitian idempotents that are mutually
    orthogonal and sum to the identity; defects() measures how far a
    given family strays from that.  ``split`` optionally records that
    the state space is an ordered direct sum of two blocks.
    """

    projections: tuple[np.ndarray, ...]
    split: tuple[int, int] | None = None

    def __post_init__(self):
        mats = tuple(as_matrix(p, "projection") for p in self.projections)
        if not mats:
            raise StructureError("a representation needs at least one projection")
        n = mats[0].shape[0]
        for p in mats:
            if p.shape != (n, n):
                raise DimensionError(
                    f"projections must share one square shape, got {p.shape}"
                )
        object.__setattr__(self, "projections", mats)
        if self.split is not None:
            n1, n2 = self.split
            if n1 < 1 or n2 < 1 or n1 + n2 != n:
                raise StructureError(
                    f"split {self.split} does not partition state dimension {n}"
                )
            object.__setattr__(self, "split", (int(n1), int(n2)))

    @property
    def state_dim(self) -> int:
        return self.projections[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.projections)

    def defects(self) -> dict[str, float]:
        """Worst-case residuals of the projection-family axioms."""
        herm = max(max_abs(p - p.conj().T) for p in self.projections)
        idem = max(max_abs(p @ p - p) for p in self.projections)
        orth = 0.0
        for a in range(self.m):
            for b in range(a + 1, self.m):
                orth = max(
                    orth, max_abs(self.projections[a] @ self.projections[b])
                )
        total = max_abs(sum(self.projections) - np.eye(self.state_dim))
        return {
            "hermitian": herm,
            "idempotent": idem,
            "orthogonal": orth,
            "unital": total,
        }

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
        n1, _ = self.split
        sl = slice(0, n1) if half == 0 else slice(n1, self.state_dim)
        return Representation(tuple(p[sl, sl].copy() for p in self.projections))


def coordinate_representation(sizes: Sequence[int]) -> Representation:
    """Projections onto consecutive coordinate blocks of the given sizes.

    Zero-sized blocks give zero projections, which is legal as long as
    the total is at least 1.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 0 for s in sizes):
        raise StructureError("block sizes must be nonnegative")
    n = sum(sizes)
    if n < 1:
        raise StructureError("total state dimension must be at least 1")
    mats = []
    offset = 0
    for s in sizes:
        p = np.zeros((n, n), dtype=np.complex128)
        p[offset : offset + s, offset : offset + s] = np.eye(s)
        mats.append(p)
        offset += s
    return Representation(tuple(mats))


def _round_robin_representation(m: int, state_dim: int) -> Representation:
    """Coordinate representation of m blocks dealt round-robin: the first
    state_dim % m blocks take one coordinate more than the others."""
    return coordinate_representation(
        [state_dim // m + (1 if r < state_dim % m else 0) for r in range(m)]
    )


def random_representation(m: int, state_dim: int, seed: int) -> Representation:
    """Random projection family: a seeded unitary conjugating a
    round-robin coordinate partition of the state space."""
    if m < 1 or state_dim < 1:
        raise StructureError("need at least one function and one state dimension")
    rng = np.random.default_rng(seed)
    v = _rng_isometry(rng, state_dim, state_dim)
    base = _round_robin_representation(m, state_dim)
    return Representation(
        tuple(v @ p @ v.conj().T for p in base.projections)
    )


def direct_sum(rep1: Representation, rep2: Representation) -> Representation:
    """Block-diagonal sum; records the split of the two summands."""
    if rep1.m != rep2.m:
        raise StructureError(
            f"representations act for {rep1.m} and {rep2.m} functions"
        )
    n1, n2 = rep1.state_dim, rep2.state_dim
    mats = []
    for p1, p2 in zip(rep1.projections, rep2.projections):
        p = np.zeros((n1 + n2, n1 + n2), dtype=np.complex128)
        p[:n1, :n1] = p1
        p[n1:, n1:] = p2
        mats.append(p)
    return Representation(tuple(mats), split=(n1, n2))


def rep_apply(rep: Representation, g) -> np.ndarray:
    """Apply the representation to a coefficient vector: sum g_j P_j."""
    gv = np.asarray(g, dtype=np.complex128).reshape(-1)
    if gv.shape[0] != rep.m:
        raise DimensionError(
            f"coefficient vector has length {gv.shape[0]}, expected {rep.m}"
        )
    out = np.zeros((rep.state_dim, rep.state_dim), dtype=np.complex128)
    for coeff, p in zip(gv, rep.projections):
        out += coeff * p
    return out


def rep_is_reducible(rep: Representation, atol: float = DEFAULT_ATOL) -> bool:
    """True iff every projection is block diagonal for the split."""
    if rep.split is None:
        raise StructureError("reducibility is relative to a split, none recorded")
    n1, _ = rep.split
    worst = 0.0
    for p in rep.projections:
        worst = max(worst, max_abs(p[:n1, n1:]), max_abs(p[n1:, :n1]))
    return worst <= atol


@dataclass(frozen=True, eq=False)
class Colligation:
    """Isometric block operator with a representation and a value table.

    A is value_dim square, D is state_dim square, B and C are the
    off-diagonal blocks of U = [[A, B], [C, D]].  Instances are plain
    data: isometry is measured by isometry_defect() and enforced by
    validate(), not by the constructor, so perturbed operators can be
    studied with the same type.
    """

    rep: Representation
    table: TestFunctionTable
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        b = as_matrix(self.B, "B")
        c = as_matrix(self.C, "C")
        d = as_matrix(self.D, "D")
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
        for name, val in (("A", a), ("B", b), ("C", c), ("D", d)):
            object.__setattr__(self, name, val)

    @property
    def value_dim(self) -> int:
        return self.A.shape[0]

    @property
    def state_dim(self) -> int:
        return self.D.shape[0]

    def matrix(self) -> np.ndarray:
        """The full block operator [[A, B], [C, D]]."""
        return np.block([[self.A, self.B], [self.C, self.D]])

    def isometry_defect(self) -> float:
        u = self.matrix()
        return max_abs(u.conj().T @ u - np.eye(u.shape[1]))

    def validate(self, atol: float = DEFAULT_ATOL) -> None:
        self.rep.validate(atol)
        defect = self.isometry_defect()
        if defect > atol:
            raise StructureError(
                f"block operator fails isometry by {defect:.3e}"
            )

    @classmethod
    def from_matrix(
        cls,
        u,
        value_dim: int,
        rep: Representation,
        table: TestFunctionTable,
    ) -> "Colligation":
        """Partition a (value_dim + state_dim) square matrix into blocks."""
        m = as_matrix(u, "block operator")
        d = int(value_dim)
        n = rep.state_dim
        if m.shape != (d + n, d + n):
            raise DimensionError(
                f"block operator is {m.shape}, expected {(d + n, d + n)}"
            )
        return cls(
            rep=rep,
            table=table,
            A=m[:d, :d].copy(),
            B=m[:d, d:].copy(),
            C=m[d:, :d].copy(),
            D=m[d:, d:].copy(),
        )


def _resolvent(col: Colligation, i: int) -> tuple[np.ndarray, np.ndarray]:
    """L_i = L(x_i) and G_i = (I - D L_i)^{-1} C at point index ``i``.

    The one resolvent solve of the module: every evaluation and the
    Gramian identity go through it, so a singular resolvent is reported
    the same way, with its point index, wherever it shows up.
    """
    lam = rep_apply(col.rep, eval_map(col.table, i))
    lhs = np.eye(col.state_dim) - col.D @ lam
    try:
        g = np.linalg.solve(lhs, col.C)
    except np.linalg.LinAlgError as exc:
        raise SingularResolventError(
            f"resolvent is singular at point index {i}; the sampled family "
            "or the operator violates contractivity"
        ) from exc
    return lam, g


def evaluate(col: Colligation, i: int) -> np.ndarray:
    """Transfer function of ``col`` at point index ``i``.

    Solves (I - D L) x = C directly at every call and returns
    A + B L x.  At the base point L vanishes and the result is exactly
    the A block.
    """
    lam, g = _resolvent(col, i)
    return col.A + col.B @ (lam @ g)


def evaluate_all(col: Colligation) -> np.ndarray:
    """Transfer function on every point, stacked as shape (n, d, d)."""
    return np.stack([evaluate(col, i) for i in range(col.table.n)])


def product(col1: Colligation, col2: Colligation) -> Colligation:
    """Colligation realizing the pointwise product of two transfer functions.

    Both factors must share the value dimension and the exact same
    sampled family.  The result acts on the direct sum of the state
    spaces, keeps a split recording the two summands, and is isometric
    whenever both factors are.  Its transfer function at every point is
    evaluate(col1, i) @ evaluate(col2, i).
    """
    if col1.value_dim != col2.value_dim:
        raise DimensionError(
            f"value dimensions {col1.value_dim} and {col2.value_dim} differ"
        )
    if not col1.table.same_family(col2.table):
        raise StructureError("factors are sampled on different families")
    n1 = col1.state_dim
    n2 = col2.state_dim
    a = col1.A @ col2.A
    b = np.hstack([col1.B, col1.A @ col2.B])
    c = np.vstack([col1.C @ col2.A, col2.C])
    d = np.block(
        [
            [col1.D, col1.C @ col2.B],
            [np.zeros((n2, n1), dtype=np.complex128), col2.D],
        ]
    )
    return Colligation(
        rep=direct_sum(col1.rep, col2.rep),
        table=col1.table,
        A=a,
        B=b,
        C=c,
        D=d,
    )


def gramian_identity_check(col: Colligation) -> float:
    """Worst residual of the defect identity over all point pairs.

    For G_i = (I - D L_i)^{-1} C the identity

        I - f(x_j)* f(x_i) = G_j* (I - L_j* L_i) G_i

    holds exactly for isometric colligations; the returned number is
    the largest entrywise deviation over all (i, j).

    With H_i = L_i G_i the residual of the pair is
    I - F_j* F_i - G_j* G_i + H_j* H_i, plain algebra that needs no
    projection axiom, so perturbed colligations are measured the same
    way.  The columns [F_i; G_i; H_i] are stacked once into K, of shape
    (d + 2N, n d), and each point row j of residuals is one product of
    [F_j; G_j; -H_j]* with K: O(n^2 d^2 (d + 2N)) flops and O(n N d)
    memory.
    """
    n_points = col.table.n
    d = col.value_dim
    n_state = col.state_dim
    stack = np.empty((d + 2 * n_state, n_points * d), dtype=np.complex128)
    for i in range(n_points):
        lam, g = _resolvent(col, i)
        h = lam @ g
        cols = slice(i * d, (i + 1) * d)
        stack[:d, cols] = col.A + col.B @ h
        stack[d : d + n_state, cols] = g
        stack[d + n_state :, cols] = h
    eye_row = np.tile(np.eye(d), n_points)
    worst = 0.0
    for j in range(n_points):
        w = stack[:, j * d : (j + 1) * d].copy()
        w[d + n_state :] *= -1.0
        worst = max(worst, max_abs(eye_row - w.conj().T @ stack))
    return worst


def random_colligation(
    value_dim: int,
    rep: Representation,
    table: TestFunctionTable,
    seed: int,
) -> Colligation:
    """Uniformly random isometric colligation over the given data."""
    if rep.m != table.m:
        raise StructureError(
            f"representation has {rep.m} projections for {table.m} functions"
        )
    u = random_isometry(value_dim + rep.state_dim, value_dim + rep.state_dim, seed)
    return Colligation.from_matrix(u, value_dim, rep, table)


def _complete_columns(
    rng: np.random.Generator, first: np.ndarray, extra: int
) -> np.ndarray:
    """Random orthonormal columns spanning the complement of ``first``."""
    total = first.shape[0]
    u, s, _ = np.linalg.svd(first, full_matrices=True)
    rank = int(np.count_nonzero(s > 1e-12)) if s.size else 0
    comp = u[:, rank:]
    if comp.shape[1] < extra:
        raise DimensionError("complement too small to complete the operator")
    mix = _rng_isometry(rng, comp.shape[1], extra)
    return comp @ mix


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
    n = rep.state_dim
    d = int(value_dim)
    if n < d:
        raise DimensionError(
            f"state dimension {n} cannot absorb value dimension {d}"
        )
    rng = np.random.default_rng(seed)
    c = _rng_isometry(rng, n, d)
    first = np.vstack([np.zeros((d, d), dtype=np.complex128), c])
    rest = _complete_columns(rng, first, n)
    u = np.hstack([first, rest])
    return Colligation.from_matrix(u, d, rep, table)


def random_selfadjoint_base_colligation(
    value_dim: int,
    rep: Representation,
    table: TestFunctionTable,
    seed: int,
    spectrum: tuple[float, float] = (0.25, 0.85),
) -> Colligation:
    """Random isometric colligation whose base-point value is a
    selfadjoint invertible strict contraction.

    The A block is built with eigenvalues drawn from ``spectrum`` (kept
    away from 0 and 1), and the C block is chosen so the first block
    column is isometric.  Needs state_dim >= value_dim.
    """
    lo, hi = spectrum
    if not 0.0 < lo <= hi < 1.0:
        raise StructureError(f"spectrum must sit inside (0, 1), got {spectrum}")
    n = rep.state_dim
    d = int(value_dim)
    if n < d:
        raise DimensionError(
            f"state dimension {n} cannot absorb value dimension {d}"
        )
    rng = np.random.default_rng(seed)
    v = _rng_isometry(rng, d, d)
    eigs = rng.uniform(lo, hi, size=d)
    a = v @ np.diag(eigs) @ v.conj().T
    a = (a + a.conj().T) / 2.0
    root = v @ np.diag(np.sqrt(1.0 - eigs**2)) @ v.conj().T
    w = _rng_isometry(rng, n, d)
    c = w @ root
    first = np.vstack([a, c])
    rest = _complete_columns(rng, first, n)
    u = np.hstack([first, rest])
    return Colligation.from_matrix(u, d, rep, table)
