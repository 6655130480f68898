"""Finite test-function families, sampled kernels, and positivity checks.

A family is stored as a table of values: row j holds test function j
sampled on a fixed finite point set whose index 0 entry is the base
point.  Kernels over the same point set are stored as dense blocks.
The checks in this module are all finite-sample certificates: they can
refute positivity on the sampled data but never prove the full
quantified statement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, StructureError, ToleranceError
from .linalg import DEFAULT_ATOL, _adopted, _as_array, _check_atol, _check_finite, _finite_real
from .linalg import _expect, _integer, _is_integer, _saturating, as_matrix, is_psd, max_abs

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


@dataclass(frozen=True)
class PointSet:
    """Ordered distinct point labels; index 0 is the base point."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not np.iterable(self.labels):
            raise StructureError(f"point labels must be a sequence, got {self.labels!r}")
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
    ``values`` is copied once and the copy is read-only, so a later write
    to the caller's array cannot change the table.
    """

    points: PointSet
    values: np.ndarray

    def __post_init__(self):
        _expect("a test function table", (self.points, PointSet))
        v = np.array(as_matrix(self.values, "test function table"))
        v.setflags(write=False)
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
        """The same table, or identical points and identical sampled values."""
        _expect("a family comparison", (other, TestFunctionTable))
        return self is other or (
            self.points == other.points and np.array_equal(self.values, other.values)
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


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@functools.lru_cache(maxsize=64)
def _key_weights(m: int) -> np.ndarray:
    """The separation sort's weights on the 2m real and imaginary parts of a
    column: a generic positive combination (golden-ratio Weyl weights), so
    that points sharing a coordinate, such as disc points on the imaginary
    axis or a bidisc grid, do not tie.  They sum to 1/2, so no key overflows."""
    c = np.modf(np.arange(1, 2 * m + 1) * 0.6180339887498949)[0]
    c /= 2.0 * c.sum()
    c.flags.writeable = False
    return c


def validate_test_family(
    t: TestFunctionTable, atol: float = 0.0
) -> TableDiagnostics:
    """Check the three family invariants, reporting instead of raising.

    Contractivity is strict: every sampled value must have modulus
    below 1.  The base-point column must vanish within atol, and every
    pair of points must be separated by more than atol under at least
    one test function.  The default atol of 0.0 demands exact zeros and
    accepts any nonzero separation.

    Separation sorts the points by one real projection of their columns
    and tests each point only against the later points within its window
    of that projection, so it typically costs O(m n log n) time and O(m n)
    memory at each step.  The worst case is many points inside one window,
    such as a table of near-equal columns or an atol as wide as the
    values; it tests every pair, O(m n**2) time as a sweep over all pairs
    would, still in O(m n) memory at each step.
    """
    _expect("family validation", (t, TestFunctionTable))
    _check_atol(atol)
    v = t.values
    m, n = v.shape
    size = np.abs(v)
    top = np.max(size, axis=0)
    bad_points = tuple(np.flatnonzero(top >= 1.0).tolist())
    bad_base = tuple(np.flatnonzero(size[:, 0] > atol).tolist())
    key = _key_weights(m) @ np.concatenate([v.real, v.imag])
    order = np.argsort(key)
    key = key[order]
    # a pair within atol in every function is within atol in each real and
    # imaginary part, so within atol / 2 in the key.  But a tested |difference|
    # may read an ulp below the exact one, and each key, key difference and
    # key + width round, by at most about 2m eps times the key's weighted sum
    # of |parts| (at most max |v| / 2) and, below the normal range, by a few
    # of the smallest normals: widen the window by twice all of that
    scale = 0.5 * float(top.max())
    width = (atol / 2.0 + 4.0 * (m + 1) * _EPS * scale) * (1.0 + 4.0 * _EPS) + 4.0 * m * _TINY
    # step s tests sorted position p against p + s for every p whose window
    # still holds p + s; the keys are sorted, so a window that ends before
    # p + s ends before every later position too
    at, step, codes = np.arange(n - 1), 1, []
    with _saturating():
        while True:
            at = at[key[at + step] <= key[at] + width]
            if not at.size:
                break
            a, b = order[at], order[at + step]
            near = np.max(np.abs(v[:, a] - v[:, b]), axis=0) <= atol
            a, b = a[near], b[near]
            codes.append(np.minimum(a, b) * n + np.maximum(a, b))
            step += 1
            at = at[at < n - step]
    # pairs are coded as i * n + k and sorted into (i, k) order
    codes = np.sort(np.concatenate(codes)) if codes else codes
    # the pairs are built in slices: one list of millions of them at once
    # spends most of its time in the cyclic garbage collector
    bad_pairs = []
    for start in range(0, len(codes), 1 << 15):
        rows, cols = np.divmod(codes[start : start + (1 << 15)], n)
        bad_pairs.extend(zip(rows.tolist(), cols.tolist()))
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
    gv = _as_array(g, "coefficient vector").reshape(-1)
    if gv.shape[0] != m:
        raise DimensionError(f"coefficient vector has length {gv.shape[0]}, expected {m}")
    return gv


def eval_map(t: TestFunctionTable, i) -> np.ndarray:
    """Column i of the table: all m test functions at point i, shape (m,).

    ``i`` may also be a 1-D integer array of point indices; then the
    result holds their columns, shape (m, k).  Every evaluation at a
    point index goes through the type and range check of _point_indices:
    booleans and non-integers are refused, as scalars, items or arrays.
    """
    _expect("point evaluation", (t, TestFunctionTable))
    return t.values[:, _point_indices(t, i)]


def _point_indices(t: TestFunctionTable, i) -> np.ndarray:
    """``i`` as an integer array of point indices of ``t``, shaped as given:
    the one point-index rule.  A list or tuple is read item by item, since
    numpy reads True as 1; an array is read by its dtype alone."""
    listed = isinstance(i, (list, tuple))
    idx = np.asarray(i) if not listed or all(map(_is_integer, i)) else None
    if idx is None or idx.dtype.kind not in "iu" or idx.ndim > 1:
        raise StructureError(
            "point index must be an integer or a 1-D array of integers in "
            f"0..{t.n - 1}, got {i!r}"
        )
    flat = idx.reshape(-1)
    outside = flat[(flat < 0) | (flat >= t.n)]
    if outside.size:
        raise StructureError(f"point index {outside[0]} outside 0..{t.n - 1}")
    return idx


@dataclass(frozen=True, eq=False)
class HermitianKernel:
    """Kernel samples on a point set: an n x n grid of d x d blocks.

    blocks[i, j] holds the kernel at (point i, point j); the assembled
    n*d square matrix is expected to be Hermitian.  ``blocks`` is copied
    once and the copy is read-only, so a later write to the caller's
    array cannot change the kernel.
    """

    points: PointSet
    blocks: np.ndarray

    def __post_init__(self):
        self._adopt(self.points, np.array(_as_array(self.blocks, "kernel")))

    def _adopt(self, points: PointSet, b: np.ndarray) -> None:
        """The one check of the block grid; then freeze it and make it ``blocks``."""
        _expect("a kernel", (points, PointSet))
        object.__setattr__(self, "points", points)
        if b.ndim != 4:
            raise DimensionError(
                f"kernel blocks must be 4-D (n, n, d, d), got shape {b.shape}"
            )
        n = points.n
        if b.shape[0] != n or b.shape[1] != n:
            raise DimensionError(
                f"kernel grid is {b.shape[0]}x{b.shape[1]} for {n} points"
            )
        if b.shape[2] != b.shape[3]:
            raise DimensionError(
                f"kernel blocks must be square, got {b.shape[2]}x{b.shape[3]}"
            )
        _check_finite(b, "kernel")
        b.setflags(write=False)
        object.__setattr__(self, "blocks", b)

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def block_dim(self) -> int:
        return self.blocks.shape[2]

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
    _expect("admissibility", (s, HermitianKernel), (t, TestFunctionTable))
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

        operators[a]* @ k(i_a, i_b, conj(f_a) * f_b) @ operators[b]

    must be positive semidefinite: the adjoint and the conjugate sit on the
    row index, as in the Agler decomposition
    I - F(x_i)* F(x_j) = Gamma(i, j)[1 - conj(psi(x_i)) psi(x_j)].  This
    refutes complete positivity on the sampled data; it cannot certify the
    full quantified property.
    """
    _expect("a complete-positivity check", (t, TestFunctionTable))
    if not (callable(k) and np.iterable(samples)):
        kinds = f"{type(k).__name__} and {type(samples).__name__}"
        raise StructureError(f"the kernel must be callable and the samples iterable, got {kinds}")
    for sample in samples:
        try:
            indices, operators, functions = sample
            lengths = (len(indices), len(operators), len(functions))
        except (TypeError, ValueError) as exc:
            raise StructureError(
                "each sample must be (indices, operators, functions)"
            ) from exc
        count = lengths[0]
        if lengths != (count,) * 3:
            raise DimensionError(
                f"sample pieces must share one length, got {', '.join(map(str, lengths))}"
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
                    k(at[a], at[b], np.conj(funs[a]) * funs[b]),
                    "kernel value",
                )
                if block.shape != (dim, dim):
                    raise DimensionError(
                        f"kernel block is {block.shape}, expected {(dim, dim)}"
                    )
                grid[a, b] = ops[a].conj().T @ block @ ops[b]
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
    if not (_finite_real(bound) and bound >= 0):
        raise StructureError(f"bound must be finite and nonnegative, got {bound}")
    _kernel_list((s,))
    f = _as_value_stack(fvals)
    _same_points(f, s)
    try:
        square = float(bound) ** 2
    except OverflowError:
        raise StructureError(
            f"bound {bound} is too large to square in double precision"
        ) from None
    return is_psd(_witness_matrix(square * np.eye(f.shape[1]) - _gram(f), s), atol)


def _same_points(f: np.ndarray, s: HermitianKernel | PointSet) -> None:
    """The one check that a value stack has one value per point of s, a
    kernel or a PointSet."""
    if f.shape[0] != s.n:
        raise StructureError(f"{f.shape[0]} function values supplied for {s.n} points")


def _kernel_list(kernels) -> list[HermitianKernel]:
    """``kernels`` read once into a list, a generator included: the one
    type check of the witness check's and the norm bound's kernels."""
    if not np.iterable(kernels):
        raise StructureError(
            f"kernels must be an iterable of HermitianKernels, got {type(kernels).__name__}"
        )
    kernels = list(kernels)
    for s in kernels:
        _expect("a witness check", (s, HermitianKernel))
    return kernels


def _gram(f: np.ndarray) -> np.ndarray:
    """The (n, n, d, d) grid of f(x_i)* f(x_j): one Gram product of the
    (d, n*d) flattening [f(x_0) ... f(x_n-1)] of an (n, d, d) value stack."""
    n, d = f.shape[0], f.shape[1]
    flat = f.transpose(1, 0, 2).reshape(d, n * d)
    return (flat.conj().T @ flat).reshape(n, d, n, d).transpose(0, 2, 1, 3)


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

    With t = c**2 the witness matrix of kernel k is the pencil
    t P_k - Q_k, P_k the witness matrix on the identity head and Q_k the
    one on the Gram head.  Steps from t_0 place the bracket, t_0 being
    the largest |f(x_i)|**2 - atol / mu_ki over mu_ki > 0, or 0, with mu_ki
    the top eigenvalue of S_k(x_i, x_i): below t_0 the (i, i) block alone
    fails the check.  Each phi_k(t) = lambda_min(t P_k - Q_k) + atol is
    concave and nondecreasing, since P_k is positive, so a kernel with
    phi_k(t) >= 0 passes at every larger t and is dropped for good.  A step
    goes to the furthest target -phi_k / slope_k of the kernels still
    failing: Newton's slope v* P_k v on the first step, one eigh per
    kernel, and the chord through the previous point on every later one,
    one eigvalsh per kernel still failing.  Each target lies at or below
    its own kernel's root, so no step overshoots the threshold.  A bracket
    around the last point, about max(atol, 4 eps t) wide, is then widened
    by doubling until the check passes at its top and fails at its
    bottom, and bisected as far as atol.
    """
    _check_atol(atol)
    if atol == 0.0:
        raise ToleranceError(
            "the norm bound bisects to a bracket narrower than atol, "
            "so atol must be positive"
        )
    # read once: a generator would be spent by the checks below
    kernels = _kernel_list(kernels)
    if not kernels:
        raise StructureError("at least one kernel is required")
    f = _as_value_stack(fvals)
    for s in kernels:
        # every kernel, not just the first to fail at t = 0: the steps read them all
        _same_points(f, s)
        if not is_psd(s.assemble(), atol):
            raise StructureError("every kernel must be positive as assembled")

    norms = np.linalg.norm(f, ord=2, axis=(1, 2))
    i = int(np.argmax(norms))
    top = 2.0 * float(norms[i]) + 1.0
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

    # t_0: one batched eigvalsh of each kernel's n diagonal blocks
    squares, diag, t = np.square(norms), np.arange(f.shape[0]), 0.0
    for s in kernels:
        mu = np.linalg.eigvalsh(s.blocks[diag, diag])[:, -1]
        t = max(t, float(np.max(squares[mu > 0] - atol / mu[mu > 0], initial=0.0)))
    gram = _gram(f)
    failing, last = kernels, None
    # from below on concave phi_k, neither Newton nor the chord needs a
    # safeguard; the cap only bounds a plateau whose slope vanishes at the threshold
    for _ in range(64):
        step, failing, last = _furthest_step(t, gram, failing, atol, last)
        if step == 0.0:
            break
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


def _furthest_step(
    t: float, gram: np.ndarray, kernels: list[HermitianKernel], atol: float,
    last: tuple | None,
) -> tuple[float, list[HermitianKernel], tuple | None]:
    """The largest step -phi_k / slope_k at t over the kernels failing there,
    those kernels, and (t, their phi_k) as the next call's ``last``; 0.0 when
    none fails or a failing slope is not positive.  A kernel passing here
    passes at every larger t.  With ``last`` None the slope is Newton's,
    v* P_k v from one eigh; else it is the chord from ``last``, from eigvalsh
    alone, which on concave phi_k is no less than the slope at t."""
    head = t * np.eye(gram.shape[2]) - gram
    step, failing, phis = 0.0, [], []
    for k, s in enumerate(kernels):
        if last is None:
            lowest, slope = _lowest_pair(head, s)
        else:
            lowest = np.linalg.eigvalsh(_witness_matrix(head, s))[0]
            slope = (lowest + atol - last[1][k]) / (t - last[0])
        phi = lowest + atol
        if phi >= 0.0:
            continue
        if slope <= 0.0:
            return 0.0, failing, None
        step = max(step, -phi / slope)
        failing.append(s)
        phis.append(phi)
    return step, failing, (t, phis)


def _lowest_pair(head: np.ndarray, s: HermitianKernel) -> tuple[float, float]:
    """Smallest eigenvalue of the witness matrix on ``head`` and v* P v for
    its eigenvector v, P being the witness matrix on the identity head."""
    vals, vecs = np.linalg.eigh(_witness_matrix(head, s))
    n, d, df = s.n, head.shape[2], s.block_dim
    # P's (i, j) block is I kron conj(S(x_i, x_j)), so v* P v sums
    # w_a* conj(S) w_a over the value index a, w_a being v's entries at a
    w = vecs[:, 0].reshape(n, d, df).transpose(0, 2, 1).reshape(n * df, d)
    slope = np.vdot(w, s.assemble().conj() @ w)
    return float(vals[0]), float(slope.real)


def _as_value_stack(fvals) -> np.ndarray:
    """Stack per-point function values into shape (n, d, d)."""
    if isinstance(fvals, np.ndarray) and fvals.ndim == 3:
        stack = _as_array(fvals, "function value")
        _check_finite(stack, "function value")
    elif not np.iterable(fvals):
        raise StructureError(
            f"function values must be an iterable of square matrices, got {type(fvals).__name__}"
        )
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


def _disc_array(zs) -> np.ndarray:
    """``zs`` as a 1-D complex array: the one conversion of disc points."""
    z = _as_array(list(zs) if np.iterable(zs) else zs, "disc points")
    if z.ndim != 1:
        raise DimensionError(f"disc points must be 1-D, got shape {z.shape}")
    return z


def disc_points(zs: Sequence[complex]) -> PointSet:
    """Point set labeled by the complex coordinates themselves."""
    return PointSet(tuple(map(str, _disc_array(zs).tolist())))


def disc_table(zs: Sequence[complex]) -> TestFunctionTable:
    """Single-function family: the coordinate sampled at ``zs``.

    The first entry must be 0 so the base point sits at index 0.
    """
    z = _disc_array(zs)
    return TestFunctionTable(disc_points(z), z[None, :])


def szego_samples(zs: Sequence[complex], power: int = 1) -> HermitianKernel:
    """Scalar kernel 1 / (1 - z * conj(w)) ** power sampled at ``zs``."""
    if _integer(power, "power") < 1:
        raise StructureError(f"power must be at least 1, got {power}")
    z = _disc_array(zs)
    denom = 1.0 - z[:, None] * z[None, :].conj()
    blocks = (1.0 / denom ** power)[:, :, None, None]
    return _adopted(HermitianKernel, disc_points(z), blocks)
