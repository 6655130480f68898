"""Dense complex linear algebra predicates and factorizations.

All routines take 2-D complex numpy arrays, never mutate their inputs,
and compare against absolute tolerances.  The callers feed blocks of
isometries, so entries are O(1) and absolute and relative scales agree;
no relative tolerance knob is offered.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    OrthogonalityError,
    PaddingError,
    RankError,
    StructureError,
    ToleranceError,
)

DEFAULT_ATOL = 1e-9

# Acceptance cutoff for residual norms while padding a basis by
# Gram-Schmidt.  Directions this short are treated as already spanned;
# a trace argument guarantees every genuinely missing direction shows a
# residual of at least 1/sqrt(n), far above the cutoff.
_PADDING_CUTOFF = 1e-8

__all__ = [
    "DEFAULT_ATOL",
    "max_abs",
    "is_isometry",
    "is_psd",
    "orthonormal_range_basis",
    "isometric_factor",
    "injective_on_range",
    "random_isometry",
]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D complex128 array with finite entries."""
    a = _as_2d_array(m, name)
    _check_finite(a, name)
    return a


def _as_2d_array(m, name: str) -> np.ndarray:
    """``m`` as a 2-D complex128 array, whose entries may be non-finite."""
    a = _as_array(m, name)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def _as_array(x, name: str) -> np.ndarray:
    """``x`` as a complex128 array: the one conversion of array input from
    outside the package, so numpy's refusal of it, an int beyond the doubles
    included, is a FormatError."""
    try:
        return np.asarray(x, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{name} must be an array of numbers") from exc


def max_abs(m) -> float:
    """Largest entry magnitude, 0.0 for empty arrays.

    A NaN entry counts as infinitely large, so a residual that overflowed
    to NaN fails every ``<= atol`` test instead of passing all of them.
    """
    a = np.asarray(m)
    if not a.size:
        return 0.0
    try:
        worst = float(np.abs(a).max())
    except TypeError as exc:  # strings, None and other objects have no modulus
        raise FormatError(f"max_abs takes an array of numbers, got {type(m).__name__}") from exc
    return math.inf if math.isnan(worst) else worst


def is_isometry(m, atol: float = DEFAULT_ATOL) -> bool:
    """True iff the columns of ``m`` are orthonormal within ``atol``.

    Requires at least as many rows as columns; a wide matrix cannot have
    orthonormal columns and is rejected outright.
    """
    _check_atol(atol)
    a = as_matrix(m)
    rows, cols = a.shape
    if rows < cols:
        raise DimensionError(
            f"isometry candidate must be square or tall, got {rows}x{cols}"
        )
    return _isometry_defect(a) <= atol


def _isometry_defect(a: np.ndarray) -> float:
    """Largest entry of a* a - I, I taken off the product's diagonal in place."""
    with _saturating():
        gram = a.conj().T @ a
        gram.reshape(-1)[:: a.shape[1] + 1] -= 1.0
        return max_abs(gram)


def _saturating() -> np.errstate:
    """Context for residuals of finite input: an entry that overflows to inf
    or NaN reads as inf through max_abs, without a numpy warning."""
    return np.errstate(over="ignore", invalid="ignore")


def is_psd(m, atol: float = DEFAULT_ATOL) -> bool:
    """True iff ``m`` is Hermitian and positive semidefinite within ``atol``.

    Hermitian means the entrywise defect of m - m* stays below atol;
    semidefinite means the smallest eigenvalue of the Hermitian part
    (m + m*)/2 is at least -atol.
    """
    _check_atol(atol)
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"psd candidate must be square, got {a.shape}")
    if a.shape[0] == 0:
        return True
    if max_abs(a - a.conj().T) > atol:
        return False
    # halved before the sum, which overflows for entries near the float max
    eigs = np.linalg.eigvalsh(a / 2.0 + a.conj().T / 2.0)
    return bool(eigs[0] >= -atol)


def orthonormal_range_basis(m, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Orthonormal basis of the range of ``m`` at its numerical rank.

    The rank counts singular values above atol times the larger of
    sigma_max and 1.  Returns an n x r matrix with orthonormal columns;
    r may be zero.
    """
    _check_atol(atol)
    a = as_matrix(m)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.count_nonzero(s > atol * max(float(s[0]), 1.0)))
    return u[:, :r]


def _pad_complement(span: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal vectors completing ``span``, taken in index order.

    Projects the standard basis vectors onto the complement of the
    (orthonormal) columns of ``span`` one index at a time, keeping each
    residual that survives the cutoff.  Two projection passes keep the
    result orthogonal to working precision even for short residuals.
    """
    n = span.shape[0]
    kept: list[np.ndarray] = []
    for i in range(n):
        if len(kept) == count:
            break
        v = np.zeros(n, dtype=np.complex128)
        v[i] = 1.0
        for _ in range(2):
            v = v - span @ (span.conj().T @ v)
            for c in kept:
                v = v - c * np.vdot(c, v)
        norm = float(np.linalg.norm(v))
        if norm > _PADDING_CUTOFF:
            kept.append(v / norm)
    if len(kept) < count:
        raise PaddingError(
            f"orthogonal complement holds only {len(kept)} of the "
            f"{count} padding vectors required"
        )
    if not kept:
        return np.zeros((n, 0), dtype=np.complex128)
    return np.column_stack(kept)


def isometric_factor(
    d2,
    target_dim: int,
    orthogonal_to=None,
    atol: float = DEFAULT_ATOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``d2 = L @ Y`` with L an isometry of ``target_dim`` columns.

    L starts from an orthonormal basis of range(d2) and is padded, in
    standard-basis index order, with unit vectors orthogonal to both
    range(d2) and range(orthogonal_to).  Y is L* @ d2.

    Raises RankError when rank(d2) exceeds target_dim, OrthogonalityError
    when range(d2) is not orthogonal to range(orthogonal_to) within atol,
    and PaddingError when the complement cannot supply the padding.
    """
    _check_atol(atol)
    a = as_matrix(d2, "d2")
    n = a.shape[0]
    if _integer(target_dim, "target_dim") < 0:
        raise DimensionError("target_dim must be nonnegative")
    q = orthonormal_range_basis(a, atol)
    if q.shape[1] > target_dim:
        raise RankError(
            f"rank {q.shape[1]} exceeds the requested {target_dim} columns"
        )
    spans = [q]
    if orthogonal_to is not None:
        o = as_matrix(orthogonal_to, "orthogonal_to")
        if o.shape[0] != n:
            raise DimensionError(
                f"orthogonal_to has {o.shape[0]} rows, expected {n}"
            )
        if q.size and o.size:
            defect = max_abs(q.conj().T @ o)
            if defect > atol:
                raise OrthogonalityError(
                    f"range(d2) is not orthogonal to range(orthogonal_to), "
                    f"defect {defect:.3e} exceeds atol {atol:.3e}"
                )
        spans.append(orthonormal_range_basis(o, atol))
    pad = _pad_complement(np.column_stack(spans), target_dim - q.shape[1])
    left = np.column_stack([q, pad])
    return left, left.conj().T @ a


def injective_on_range(mstar, r, atol: float = DEFAULT_ATOL) -> bool:
    """True iff ``mstar`` is injective on the range of ``r``.

    Checks that the smallest singular value of mstar restricted to an
    orthonormal basis of range(r) exceeds atol.  Vacuously true when r
    has numerical rank zero.
    """
    _check_atol(atol)
    ms = as_matrix(mstar, "mstar")
    rm = as_matrix(r, "r")
    if ms.shape[1] != rm.shape[0]:
        raise DimensionError(
            f"mstar has {ms.shape[1]} columns but r has {rm.shape[0]} rows"
        )
    q = orthonormal_range_basis(rm, atol)
    k = q.shape[1]
    if k == 0:
        return True
    if ms.shape[0] < k:
        return False
    s = np.linalg.svd(ms @ q, compute_uv=False)
    return bool(s[-1] > atol)


def random_isometry(rows: int, cols: int, seed: int) -> np.ndarray:
    """Deterministic random isometry from a seeded complex Gaussian.

    Draws a rows x cols standard complex Gaussian with
    numpy.random.default_rng(seed) and orthonormalizes it by QR, fixing
    column phases so the triangular factor has a positive diagonal.
    """
    rows, cols = _integer(rows, "rows"), _integer(cols, "cols")
    if not rows >= cols >= 0:
        raise DimensionError(
            f"cannot build a {rows}x{cols} isometry, need rows >= cols >= 0"
        )
    return _rng_isometry(_rng(seed), rows, cols)


def _adopted(cls, *fields):
    """A ``cls`` over arrays no caller holds, or read-only views of another
    object's: the one construction that skips the public copy.  The class's
    ``_adopt`` checks, freezes and sets every field."""
    obj = cls.__new__(cls)
    obj._adopt(*fields)
    return obj


def _rng(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)`` for a nonnegative integer seed.
    Anything else is refused: numpy raises a bare ValueError for a
    negative seed and draws an unseeded stream for ``None``."""
    if not _is_integer(seed) or seed < 0:
        raise StructureError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(int(seed))


def _is_integer(value) -> bool:
    """The one test of an integer argument: an int or a numpy integer, and
    never a bool, so a fraction or a flag is refused rather than truncated."""
    return type(value) is int or isinstance(value, np.integer)


def _expect(what: str, *pairs) -> None:
    """StructureError naming what ``what`` takes unless isinstance(value, cls) for
    each (value, cls): the one type test of a package-typed argument."""
    for value, cls in pairs:
        if not isinstance(value, cls):
            takes = " and ".join(f"a {c.__name__}" for _, c in pairs)
            got = " and ".join(type(v).__name__ for v, _ in pairs)
            raise StructureError(f"{what} takes {takes}, got {got}")


def _integer(value, name: str) -> int:
    """``value`` as an int, refused with StructureError unless _is_integer."""
    if not _is_integer(value):
        raise StructureError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _rng_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return q * phase.conj()


def _finite_real(x) -> bool:
    """The one test of a real-number argument: a real number of finite double
    value, never a bool (True would read as 1.0).  A float skips the ABC test."""
    if not (isinstance(x, float) or (isinstance(x, Real) and not isinstance(x, bool))):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the doubles
        return False


def _check_atol(atol: float) -> None:
    if not (_finite_real(atol) and atol >= 0.0):
        raise ToleranceError(f"atol must be finite and nonnegative, got {atol}")


def _check_finite(a: np.ndarray, name: str) -> None:
    # false when either part of a complex entry is NaN or infinite
    if not np.isfinite(a).all():
        raise FormatError(f"{name} contains non-finite entries")
