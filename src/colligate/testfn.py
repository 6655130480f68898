"""Finite test-function families, sampled kernels, and positivity checks.

A family is stored as a table of values: row j holds test function j
sampled on a fixed finite point set whose index 0 entry is the base
point.  Kernels over the same point set are stored as dense blocks.
The checks in this module are all finite-sample certificates: they can
refute positivity on the sampled data but never prove the full
quantified statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, StructureError, ToleranceError
from .linalg import DEFAULT_ATOL, _check_atol, _check_finite, _integer, as_matrix, is_psd, max_abs

__all__ = [
    "PointSet",
    "TestFunctionTable",
    "TableDiagnostics",
    "HermitianKernel",
    "validate_test_family",
    "eval_map",
    "is_admissible",
    "cp_kernel_check",
    "schur_agler_witness_check",
    "agler_norm_lower_bound",
    "disc_points",
    "disc_table",
    "szego_samples",
]

# complex differences held at once by the point-separation sweep
_SEPARATION_BUDGET = 1 << 15


@dataclass(frozen=True)
class PointSet:
    """Ordered distinct point labels; index 0 is the base point."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if not self.labels:
            raise StructureError("point set must contain at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise StructureError("point labels must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class TestFunctionTable:
    """Values of m test functions on n points, shape (m, n).

    values[j, i] is test function j at point i.  Shape and finiteness
    are enforced here; the semantic invariants (strict contractivity,
    vanishing at the base point, point separation) are reported by
    validate_test_family so that broken tables can still be inspected.
    """

    points: PointSet
    values: np.ndarray

    def __post_init__(self):
        v = as_matrix(self.values, "test function table")
        if v.shape[0] < 1:
            raise StructureError("a family needs at least one test function")
        if v.shape[1] != self.points.n:
            raise DimensionError(
                f"table has {v.shape[1]} columns for {self.points.n} points"
            )
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.points.n

    def same_family(self, other: "TestFunctionTable") -> bool:
        """Identical points and identical sampled values."""
        return self.points == other.points and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True)
class TableDiagnostics:
    """Per-invariant verdicts for a table, with offending indices."""

    contractive: bool
    contractivity_violations: tuple[int, ...]
    base_point_centered: bool
    base_point_violations: tuple[int, ...]
    separating: bool
    separation_violations: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return self.contractive and self.base_point_centered and self.separating


def validate_test_family(
    t: TestFunctionTable, atol: float = 0.0
) -> TableDiagnostics:
    """Check the three family invariants, reporting instead of raising.

    Contractivity is strict: every sampled value must have modulus
    below 1.  The base-point column must vanish within atol, and every
    pair of points must be separated by more than atol under at least
    one test function.  The default atol of 0.0 demands exact zeros and
    accepts any nonzero separation.
    """
    _check_atol(atol)
    v = t.values
    bad_points = tuple(
        int(i) for i in np.flatnonzero(np.max(np.abs(v), axis=0) >= 1.0)
    )
    bad_base = tuple(int(j) for j in np.flatnonzero(np.abs(v[:, 0]) > atol))
    bad_pairs = []
    # row chunks of points i against every point k after the chunk's first,
    # at most _SEPARATION_BUDGET differences at once; the pairs with k <= i
    # are masked, and np.nonzero keeps the (i, k) order of a pair-by-pair sweep
    chunk = max(1, _SEPARATION_BUDGET // (t.m * t.n))
    for start in range(0, t.n - 1, chunk):
        stop = min(start + chunk, t.n - 1)
        gaps = np.max(np.abs(v[:, None, start + 1 :] - v[:, start:stop, None]), axis=0)
        later = np.arange(t.n - start - 1) >= np.arange(stop - start)[:, None]
        rows, cols = np.nonzero((gaps <= atol) & later)
        bad_pairs.extend(zip((rows + start).tolist(), (cols + start + 1).tolist()))
    return TableDiagnostics(
        contractive=not bad_points,
        contractivity_violations=bad_points,
        base_point_centered=not bad_base,
        base_point_violations=bad_base,
        separating=not bad_pairs,
        separation_violations=tuple(bad_pairs),
    )


def _coefficients(g, m: int) -> np.ndarray:
    """``g`` as a flat complex vector of one coefficient per test function."""
    gv = np.asarray(g, dtype=np.complex128).reshape(-1)
    if gv.shape[0] != m:
        raise DimensionError(f"coefficient vector has length {gv.shape[0]}, expected {m}")
    return gv


def eval_map(t: TestFunctionTable, i) -> np.ndarray:
    """Column i of the table: all m test functions at point i, shape (m,).

    ``i`` may also be a 1-D integer array of point indices; then the
    result holds their columns, shape (m, k).  Every evaluation at a
    point index goes through this type and range check: booleans and
    non-integers are refused, whether scalars or arrays.
    """
    idx = np.asarray(i)
    if idx.dtype.kind not in "iu" or idx.ndim > 1:
        raise StructureError(
            "point index must be an integer or a 1-D array of integers in "
            f"0..{t.n - 1}, got {i!r}"
        )
    flat = idx.reshape(-1)
    outside = flat[(flat < 0) | (flat >= t.n)]
    if outside.size:
        raise StructureError(f"point index {outside[0]} outside 0..{t.n - 1}")
    return t.values[:, idx]


@dataclass(frozen=True, eq=False)
class HermitianKernel:
    """Kernel samples on a point set: an n x n grid of d x d blocks.

    blocks[i, j] holds the kernel at (point i, point j); the assembled
    n*d square matrix is expected to be Hermitian.
    """

    points: PointSet
    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=np.complex128)
        if b.ndim != 4:
            raise DimensionError(
                f"kernel blocks must be 4-D (n, n, d, d), got shape {b.shape}"
            )
        n = self.points.n
        if b.shape[0] != n or b.shape[1] != n:
            raise DimensionError(
                f"kernel grid is {b.shape[0]}x{b.shape[1]} for {n} points"
            )
        if b.shape[2] != b.shape[3]:
            raise DimensionError(
                f"kernel blocks must be square, got {b.shape[2]}x{b.shape[3]}"
            )
        _check_finite(b, "kernel")
        object.__setattr__(self, "blocks", b)

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def block_dim(self) -> int:
        return self.blocks.shape[2]

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[i, j]

    def assemble(self) -> np.ndarray:
        """Flatten the block grid into one n*d square matrix."""
        return _assemble(self.blocks)

    def hermiticity_defect(self) -> float:
        a = self.assemble()
        return max_abs(a - a.conj().T)


def _assemble(grid: np.ndarray) -> np.ndarray:
    """Flatten an (n, n, k, k) block grid into one n*k square matrix.

    Block (i, j) fills rows i*k to (i+1)*k and columns j*k to (j+1)*k.
    """
    n, k = grid.shape[0], grid.shape[2]
    return grid.transpose(0, 2, 1, 3).reshape(n * k, n * k)


def is_admissible(
    s: HermitianKernel, t: TestFunctionTable, atol: float = DEFAULT_ATOL
) -> bool:
    """True iff ``s`` stays positive against every function in ``t``.

    For each test function psi the matrix with (i, j) block
    (1 - psi(x_i) * conj(psi(x_j))) * S(x_i, x_j) must be positive
    semidefinite.  Row index carries the first kernel argument.
    """
    if s.points != t.points:
        raise StructureError("kernel and table are sampled on different points")
    for j in range(t.m):
        psi = t.values[j]
        factor = 1.0 - psi[:, None] * psi[None, :].conj()
        if not is_psd(_assemble(s.blocks * factor[:, :, None, None]), atol):
            return False
    return True


def cp_kernel_check(
    k: Callable[[int, int, np.ndarray], np.ndarray],
    t: TestFunctionTable,
    samples: Sequence[tuple],
    atol: float = DEFAULT_ATOL,
) -> bool:
    """Sampled complete-positivity check for a two-argument kernel.

    ``k(i, j, g)`` must return the kernel block at (point i, point j)
    applied to the coefficient vector g of length t.m.  Each sample is a
    triple (indices, operators, functions): point indices, one square
    matrix per index, and one length-m coefficient vector per index.
    For every sample the assembly with (a, b) block

        operators[b]* @ k(i_a, i_b, conj(f_b) * f_a) @ operators[a]

    must be positive semidefinite.  This refutes complete positivity on
    the sampled data; it cannot certify the full quantified property.
    """
    for sample in samples:
        try:
            indices, operators, functions = sample
        except (TypeError, ValueError) as exc:
            raise StructureError(
                "each sample must be (indices, operators, functions)"
            ) from exc
        count = len(indices)
        if len(operators) != count or len(functions) != count:
            raise DimensionError(
                "sample pieces must share one length, got "
                f"{count}, {len(operators)}, {len(functions)}"
            )
        if count == 0:
            continue
        ops = [as_matrix(op, "sample operator") for op in operators]
        dim = ops[0].shape[0]
        for op in ops:
            if op.shape != (dim, dim):
                raise DimensionError("sample operators must be square and equal sized")
        funs = [_coefficients(f, t.m) for f in functions]
        at = [_integer(i, "sample point index") for i in indices]
        for i in at:
            if not 0 <= i < t.n:
                raise StructureError(f"sample point index {i} outside 0..{t.n - 1}")
        grid = np.zeros((count, count, dim, dim), dtype=np.complex128)
        for a in range(count):
            for b in range(count):
                block = as_matrix(
                    k(at[a], at[b], np.conj(funs[b]) * funs[a]),
                    "kernel value",
                )
                if block.shape != (dim, dim):
                    raise DimensionError(
                        f"kernel block is {block.shape}, expected {(dim, dim)}"
                    )
                grid[a, b] = ops[b].conj().T @ block @ ops[a]
        if not is_psd(_assemble(grid), atol):
            return False
    return True


def schur_agler_witness_check(
    fvals,
    s: HermitianKernel,
    bound: float,
    atol: float = DEFAULT_ATOL,
) -> bool:
    """Positivity of the bound witness against one kernel.

    fvals is the list of d x d function values, one per point of s.
    Checks that the matrix with (i, j) block

        (bound**2 * I - f(x_i)* @ f(x_j)) kron conj(S(x_i, x_j))

    is positive semidefinite.  The adjoint sits on the row index and the
    kernel block enters conjugated; this is the pairing that stays
    positive for operator-valued functions (the unconjugated pairing is
    a partial transpose of it and can go indefinite for value dimension
    2 and up).  For scalar values and scalar kernels it coincides with
    the classical Pick-matrix arrangement.
    """
    if not (np.isfinite(bound) and bound >= 0):
        raise StructureError(f"bound must be finite and nonnegative, got {bound}")
    f = _as_value_stack(fvals)
    if f.shape[0] != s.n:
        raise StructureError(
            f"{f.shape[0]} function values supplied for {s.n} kernel points"
        )
    try:
        square = float(bound) ** 2
    except OverflowError:
        raise StructureError(
            f"bound {bound} is too large to square in double precision"
        ) from None
    gram = np.einsum("iba,jbc->ijac", f.conj(), f)
    return is_psd(_witness_matrix(square * np.eye(f.shape[1]) - gram, s), atol)


def _witness_matrix(head: np.ndarray, s: HermitianKernel) -> np.ndarray:
    """Assemble the matrix with (i, j) block head[i, j] kron conj(S(x_i, x_j)).

    ``head`` is an (n, n, d, d) grid, or broadcasts to one.  The one home
    of the witness layout, shared by the check and the norm bound's
    Newton steps.
    """
    n, d, df = s.n, head.shape[2], s.block_dim
    conj = s.blocks.conj()[:, :, None, :, None, :]
    # np.kron's layout for every (i, j): kron(A, B)[a*df + c, b*df + e] is
    # A[a, b] * B[c, e]; the 6-D product is unnamed, so freed before is_psd
    shape = (n, n, d * df, d * df)
    return _assemble((head[:, :, :, None, :, None] * conj).reshape(shape))


def agler_norm_lower_bound(
    fvals,
    kernels: Sequence[HermitianKernel],
    atol: float = DEFAULT_ATOL,
) -> float:
    """Smallest bound passing the witness check on every sampled kernel.

    Returns the upper end of a bracket [lo, hi] on the bound that the
    witness check itself certifies: it passes at hi and fails at lo, and
    hi**2 - lo**2 is at most atol.  This is a lower bound for the true
    norm: adding kernels can only push it up.  atol is the bracket width
    to stop at, so it must be positive; a width below the spacing of
    doubles stops at two adjacent doubles.
    """
    return _norm_bracket(fvals, kernels, atol)[1]


def _norm_bracket(
    fvals, kernels: Sequence[HermitianKernel], atol: float
) -> tuple[float, float, int]:
    """The certified bracket (lo, hi) of agler_norm_lower_bound and the
    number of witness checks spent on it.

    With t = c**2 the witness matrix is the pencil t P - Q, P the
    witness matrix on the identity head and Q the one on the Gram head.
    Newton steps from t = 0 on
    phi(t) = min over kernels of lambda_min(t P - Q) + atol place the
    bracket: phi is concave and nondecreasing, since P is positive, so
    each step, with slope v* P v for the binding eigenvector v, lands at
    or below the threshold.  A bracket around the Newton point, about
    max(atol, 4 eps t) wide, is then widened by doubling until the check
    passes at its top and fails at its bottom, and bisected as far as atol.
    Each Newton step costs one eigh per kernel.
    """
    _check_atol(atol)
    if atol == 0.0:
        raise ToleranceError(
            "the norm bound bisects to a bracket narrower than atol, "
            "so atol must be positive"
        )
    if not kernels:
        raise StructureError("at least one kernel is required")
    f = _as_value_stack(fvals)
    for s in kernels:
        if s.n != f.shape[0]:
            raise StructureError(
                f"kernel sampled on {s.n} points, function values on {f.shape[0]}"
            )
        if not is_psd(s.assemble(), atol):
            raise StructureError("every kernel must be positive as assembled")

    norms = [float(np.linalg.norm(f[i], ord=2)) for i in range(f.shape[0])]
    i = int(np.argmax(norms))
    top = 2.0 * norms[i] + 1.0
    if np.isinf(top * top):
        raise StructureError(
            f"function value at point {i} has norm {norms[i]:.3e}, "
            "too large to square in double precision"
        )
    checks = 0

    def passes(t: float) -> bool:
        nonlocal checks
        for s in kernels:
            checks += 1
            if not schur_agler_witness_check(f, s, np.sqrt(t), atol):
                return False
        return True

    if passes(0.0):
        return 0.0, 0.0, checks
    eps = np.finfo(float).eps
    # values of a Schur-Agler class function pass at 1, others can need far
    # more.  Past 256 top**2, go on only while eigvalsh's rounding, about
    # eps * t * |S|, stays below atol: beyond it a pass could be rounding alone
    least = 256.0 * top * top
    norm = None

    def reach(t: float) -> None:
        nonlocal norm
        if t < least:
            return
        if norm is None:
            norm = max(np.linalg.norm(s.assemble(), 2) for s in kernels)
        if not t * eps * norm < atol:
            raise StructureError("no bound passes the witness check before rounding exceeds atol")

    gram = np.einsum("iba,jbc->ijac", f.conj(), f)
    eye = np.eye(f.shape[1])
    t = 0.0
    # from below on a concave phi, Newton needs no safeguard; the cap only
    # bounds a plateau whose slope vanishes at the threshold
    for _ in range(64):
        lowest, slope = min(_lowest_pair(t * eye - gram, s) for s in kernels)
        phi = lowest + atol
        if phi >= 0.0 or slope <= 0.0:
            break
        step = -phi / slope
        t += step
        reach(t)
        if step <= max(atol, 4.0 * eps * t):
            break

    # three quarters, so that each width, doubled or halved, stays clear of
    # atol by more than the rounding of the square roots in the report
    w = 0.75 * max(atol, 4.0 * eps * t)
    lo, hi = max(t - w / 2.0, 0.0), t + w / 2.0
    lo_fails = lo == 0.0
    while not passes(hi):
        lo, lo_fails = hi, True
        w *= 2.0
        hi = lo + w
        reach(hi)
    while not lo_fails and passes(lo):
        hi = lo
        w *= 2.0
        lo = max(hi - w, 0.0)
        lo_fails = lo == 0.0
    while hi - lo > atol:
        mid = (lo + hi) / 2.0
        # adjacent doubles: an atol below their spacing is never reached
        if not lo < mid < hi:
            break
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return float(np.sqrt(lo)), float(np.sqrt(hi)), checks


def _lowest_pair(head: np.ndarray, s: HermitianKernel) -> tuple[float, float]:
    """Smallest eigenvalue of the witness matrix on ``head`` and v* P v for
    its eigenvector v, P being the witness matrix on the identity head."""
    vals, vecs = np.linalg.eigh(_witness_matrix(head, s))
    v = vecs[:, 0].reshape(s.n, head.shape[2], s.block_dim)
    # P's (i, j) block is I kron conj(S(x_i, x_j)), so v* P v pairs only
    # equal value indices a
    slope = np.einsum("iac,ijce,jae->", v.conj(), s.blocks.conj(), v)
    return float(vals[0]), float(slope.real)


def _as_value_stack(fvals) -> np.ndarray:
    """Stack per-point function values into shape (n, d, d)."""
    if isinstance(fvals, np.ndarray) and fvals.ndim == 3:
        stack = np.asarray(fvals, dtype=np.complex128)
        _check_finite(stack, "function value")
    else:
        mats = [as_matrix(f, "function value") for f in fvals]
        if not mats:
            raise StructureError("at least one function value is required")
        ragged = [m.shape for m in mats if m.shape != mats[0].shape]
        if ragged:
            raise DimensionError(
                f"function values must share one shape, got {mats[0].shape} and {ragged[0]}"
            )
        stack = np.stack(mats)
    if stack.shape[1] != stack.shape[2]:
        raise DimensionError(
            f"function values must be square, got {stack.shape[1]}x{stack.shape[2]}"
        )
    return stack


def disc_points(zs: Sequence[complex]) -> PointSet:
    """Point set labeled by the complex coordinates themselves."""
    return PointSet(tuple(str(complex(z)) for z in zs))


def disc_table(zs: Sequence[complex]) -> TestFunctionTable:
    """Single-function family: the coordinate sampled at ``zs``.

    The first entry must be 0 so the base point sits at index 0.
    """
    values = np.asarray([list(zs)], dtype=np.complex128)
    return TestFunctionTable(disc_points(zs), values)


def szego_samples(zs: Sequence[complex], power: int = 1) -> HermitianKernel:
    """Scalar kernel 1 / (1 - z * conj(w)) ** power sampled at ``zs``."""
    if power < 1:
        raise StructureError(f"power must be at least 1, got {power}")
    z = np.asarray(list(zs), dtype=np.complex128)
    denom = 1.0 - z[:, None] * z[None, :].conj()
    blocks = (1.0 / denom ** power)[:, :, None, None]
    return HermitianKernel(disc_points(zs), blocks)
