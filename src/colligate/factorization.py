"""Factorization of split colligations into two smaller colligations.

A colligation whose representation reduces along a recorded state split
and whose D block has the upper-triangular pattern

    U = [[A,  B1, B2],
         [C1, D1, D2],
         [C2, 0,  D3]]

is the candidate product of two factors.  Three checkable conditions
identify when such a product splits back, one per supported variant:

  vanishing-selfadjoint   first factor vanishes at the base point, the
                          second takes a selfadjoint invertible value A
  both-vanishing          both factors vanish at the base point; the
                          witness is an isometric factor D2 = L Y
  general                 no base-point constraint; the witness is a
                          four-tuple (A1, A2, X1, Y2) splitting A, B2,
                          C1, D2 simultaneously

Each checker returns a certificate with named residuals.  The first
two variants are special cases of the general one: their witnesses map
to the four-tuple (A1, A2, X1, Y2) as

  vanishing-selfadjoint   (0, a, C1 a^-1, a^-1 C1* D2)
  both-vanishing          (0, 0, L, Y)

so every extractor rebuilds the same two factors [[A1, B1], [X1, D1]]
and [[A2, Y2], [C2, D3]] and refuses them unless both are isometric.
VARIANT_TABLE holds one Variant record per variant: its witness names
and the search that completes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    OrthogonalityError,
    PaddingError,
    RankError,
    StructureError,
    WitnessError,
)
from .linalg import (
    DEFAULT_ATOL,
    _adopted,
    _check_atol,
    _expect,
    _isometry_defect,
    _saturating,
    as_matrix,
    injective_on_range,
    isometric_factor,
    max_abs,
)
# evaluate stays bound in this namespace: bench/test_bench.py patches it here
from .realization import evaluate  # noqa: F401
from .realization import Colligation, _require_compatible, _triangular_split
from .realization import evaluate_all, rep_is_reducible

__all__ = [
    "VARIANTS",
    "SplitColligation",
    "FactorizationCertificate",
    "split_blocks",
    "check_vanishing_selfadjoint",
    "extract_vanishing_selfadjoint",
    "find_LY_witness",
    "check_both_vanishing",
    "extract_both_vanishing",
    "check_general",
    "solve_general_witnesses",
    "extract_general",
    "verify_factorization",
]


@dataclass(frozen=True)
class Variant:
    """One supported factorization route, as an entry of VARIANT_TABLE.

    ``witnesses`` names the witness matrices in the argument order of
    ``check_<name>`` and ``extract_<name>`` (dashes become underscores).
    ``given`` is the leading part of them that only a witness document
    can supply.  ``complete`` names the function that finds the rest
    from the split and the given witnesses; without one, ``given`` is
    all of ``witnesses``.

    Functions are looked up in this module by name when called, so a
    wrapper installed on the module attribute is the one that runs.
    """

    name: str
    witnesses: tuple[str, ...]
    given: tuple[str, ...]
    complete: str | None = None

    def check(
        self, s: SplitColligation, witnesses: dict, atol: float = DEFAULT_ATOL
    ) -> FactorizationCertificate:
        return self._call("check", s, witnesses, atol)

    def extract(
        self, s: SplitColligation, witnesses: dict, atol: float = DEFAULT_ATOL
    ) -> tuple[Colligation, Colligation]:
        return self._call("extract", s, witnesses, atol)

    def _call(self, prefix: str, s: SplitColligation, witnesses: dict, atol: float):
        fn = globals()[f"{prefix}_{self.name.replace('-', '_')}"]
        return fn(s, *(witnesses[k] for k in self.witnesses), atol=atol)

    def search(
        self, s: SplitColligation, given: dict, atol: float = DEFAULT_ATOL
    ) -> dict[str, np.ndarray]:
        """Every witness, the ones past ``given`` found by ``complete``.

        Raises StructureError when ``given`` lacks one of the variant's
        given witnesses, and WitnessError when the search shows that no
        witness of the required form exists at this tolerance.
        """
        if not all(k in given for k in self.given):
            raise StructureError(
                f"{self.name} variant needs a witness document with {_quoted(self.given)}"
            )
        known = tuple(given[k] for k in self.given)
        found = globals()[self.complete](s, *known, atol=atol) if self.complete else ()
        return dict(zip(self.witnesses, known + tuple(found)))


def _quoted(names) -> str:
    return " and ".join(f"'{k}'" for k in names)


VARIANT_TABLE = {
    v.name: v
    for v in (
        Variant("vanishing-selfadjoint", ("A",), ("A",)),
        Variant("both-vanishing", ("L", "Y"), (), "find_LY_witness"),
        Variant(
            "general",
            ("A1", "A2", "X1", "Y2"),
            ("A1", "A2"),
            "solve_general_witnesses",
        ),
    )
}

VARIANTS = tuple(VARIANT_TABLE)


@dataclass(frozen=True, eq=False)
class SplitColligation:
    """Block view of a colligation along its recorded state split.

    B and C split into (B1, B2) and (C1, C2); the D block splits into
    [[D1, D2], [D21, D3]] with D21 required to vanish.  Every block is a
    read-only slice of the parent's, so a write into one raises ValueError;
    the parent is kept for its table and the corners of its representation.
    """

    parent: Colligation
    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    D3: np.ndarray

    @property
    def value_dim(self) -> int:
        return self.A.shape[0]

    @property
    def dims(self) -> tuple[int, int]:
        return self.parent.rep.split


def split_blocks(col: Colligation, atol: float = DEFAULT_ATOL) -> SplitColligation:
    """Carve the split block view out of a colligation.

    Fails when no split is recorded, when the representation does not
    reduce along it, or when the lower-left D block exceeds atol.
    """
    _expect("a split view", (col, Colligation))
    if col.rep.split is None:
        raise StructureError("colligation carries no state split")
    if not rep_is_reducible(col.rep, atol):
        raise StructureError(
            "representation does not reduce along the recorded split"
        )
    n1, _ = col.rep.split
    d21 = col.D[n1:, :n1]
    stray = max_abs(d21)
    if stray > atol:
        raise StructureError(
            f"lower-left D block must vanish, largest entry {stray:.3e}"
        )
    return SplitColligation(
        parent=col,
        A=col.A,
        B1=col.B[:, :n1],
        B2=col.B[:, n1:],
        C1=col.C[:n1, :],
        C2=col.C[n1:, :],
        D1=col.D[:n1, :n1],
        D2=col.D[:n1, n1:],
        D3=col.D[n1:, n1:],
    )


@dataclass(frozen=True, eq=False)
class FactorizationCertificate:
    """Outcome of one factorization check.

    residuals maps condition names to the measured defects; verdict is
    true when every condition holds within atol.  The witnesses that
    were checked ride along for reporting.
    """

    variant: str
    witnesses: dict[str, np.ndarray]
    residuals: dict[str, float]
    atol: float
    verdict: bool


def _certificate(
    variant: str, witnesses: dict, residuals: dict, atol: float
) -> FactorizationCertificate:
    """The one place a verdict is drawn: every residual within a finite atol."""
    _check_atol(atol)
    return FactorizationCertificate(
        variant=variant,
        witnesses=witnesses,
        residuals=residuals,
        atol=atol,
        verdict=all(v <= atol for v in residuals.values()),
    )


def _witness(m, name: str, shape: tuple[int, int]) -> np.ndarray:
    w = as_matrix(m, f"witness {name}")
    if w.shape != shape:
        raise DimensionError(f"witness {name} is {w.shape}, expected {shape}")
    return w


def _passed(cert: FactorizationCertificate) -> dict[str, np.ndarray]:
    """The witnesses of a passing certificate; a failing one is refused."""
    if not cert.verdict:
        raise WitnessError("conditions fail, nothing to extract", certificate=cert)
    return cert.witnesses


def _factors(
    s: SplitColligation, cert: FactorizationCertificate, a1, a2, x1, y2, slack: float
) -> tuple[Colligation, Colligation]:
    """The factors [[A1, B1], [X1, D1]] and [[A2, Y2], [C2, D3]].

    B1, D1, C2 and D3 are views of the parent, A1, A2, X1 and Y2 copies.
    Both must be isometric within ``slack``, a non-finite block reading as
    an infinite defect.  A certified check makes a refusal unreachable in
    exact arithmetic; it fires only on numerically inconsistent witnesses,
    which must be reported rather than silently accepted.
    """
    rep, table = s.parent.rep, s.parent.table
    a1, a2, x1, y2 = (np.array(w) for w in (a1, a2, x1, y2))
    factors = (
        _adopted(Colligation, rep.restrict(0), table, a1, s.B1, x1, s.D1),
        _adopted(Colligation, rep.restrict(1), table, a2, y2, s.C2, s.D3),
    )
    for name, col in zip(("first", "second"), factors):
        if not _isometry_defect(col.matrix()) <= slack:
            raise WitnessError(
                f"extracted {name} factor is not isometric at {slack:.3e}; "
                "the witness is numerically inconsistent",
                certificate=cert,
            )
    return factors


def check_vanishing_selfadjoint(
    s: SplitColligation, a, atol: float = DEFAULT_ATOL
) -> FactorizationCertificate:
    """Certificate for the vanishing/selfadjoint factorization conditions.

    The witness ``a`` is the claimed base-point value of the second
    factor.  Conditions: the parent A and B2 blocks vanish, a is
    selfadjoint with smallest singular value above atol, C1* C1 equals
    a squared, and C1 a^-2 C1* D2 reproduces D2.  A singular witness
    has an infinite compression residual.
    """
    _expect("a factorization check", (s, SplitColligation))
    _check_atol(atol)  # the solves below run only when smin > atol >= 0
    d = s.value_dim
    aw = _witness(a, "a", (d, d))
    smin = float(np.linalg.svd(aw, compute_uv=False)[-1]) if d else 0.0
    with _saturating():
        residuals = {
            "parent_base_vanishes": max_abs(s.A),
            "parent_b2_vanishes": max_abs(s.B2),
            "witness_selfadjoint": max_abs(aw - aw.conj().T),
            "witness_invertible": max(0.0, atol - smin),
            "gram_match": max_abs(s.C1.conj().T @ s.C1 - aw @ aw),
            "compression_match": float("inf"),
        }
    if smin > atol:
        # C1 a^-2 C1* D2 via two solves against a, never an inverse
        x = np.linalg.solve(aw, s.C1.conj().T @ s.D2)
        x = np.linalg.solve(aw, x)
        residuals["compression_match"] = max_abs(s.C1 @ x - s.D2)
    return _certificate("vanishing-selfadjoint", {"A": aw}, residuals, atol)


def extract_vanishing_selfadjoint(
    s: SplitColligation, a, atol: float = DEFAULT_ATOL
) -> tuple[Colligation, Colligation]:
    """Rebuild the two factors certified by check_vanishing_selfadjoint.

    The general four-tuple (0, a, C1 a^-1, a^-1 C1* D2): the first
    factor vanishes at the base point exactly, the second takes the
    value ``a`` there.
    """
    cert = check_vanishing_selfadjoint(s, a, atol)
    aw = _passed(cert)["A"]
    x1 = np.linalg.solve(aw.T, s.C1.T).T
    y2 = np.linalg.solve(aw, s.C1.conj().T @ s.D2)
    return _factors(s, cert, np.zeros_like(aw), aw, x1, y2, 10.0 * atol)


def _vanishing_pattern(s: SplitColligation) -> dict[str, float]:
    """Largest entries of the parent A, C1 and B2 blocks, which the
    both-vanishing pattern requires to vanish."""
    return {
        "parent_base_vanishes": max_abs(s.A),
        "c1_vanishes": max_abs(s.C1),
        "b2_vanishes": max_abs(s.B2),
    }


def find_LY_witness(
    s: SplitColligation, atol: float = DEFAULT_ATOL
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for the (L, Y) witness of the both-vanishing pattern.

    Requires the parent A, C1 and B2 blocks to vanish within atol, then
    factors D2 = L Y with L an isometry into the first state block that
    is orthogonal to range(D1).  Every failure shows that no witness
    pair of the required form exists at this tolerance and raises
    WitnessError; a failed vanishing pattern rides along as the
    certificate.
    """
    _expect("a witness search", (s, SplitColligation))
    pattern = _vanishing_pattern(s)
    worst = max(pattern.values())
    if worst > atol:
        raise WitnessError(
            f"required vanishing pattern fails, largest entry {worst:.3e}",
            certificate=_certificate("both-vanishing", {}, pattern, atol),
        )
    try:
        return isometric_factor(s.D2, s.value_dim, orthogonal_to=s.D1, atol=atol)
    except (RankError, OrthogonalityError, PaddingError) as exc:
        raise WitnessError(f"no witness pair exists: {exc}") from exc


def check_both_vanishing(
    s: SplitColligation, left, y, atol: float = DEFAULT_ATOL
) -> FactorizationCertificate:
    """Certificate for the both-vanishing factorization conditions.

    Conditions: the parent A, C1 and B2 blocks vanish, L is an isometry
    with range orthogonal to range(D1), and D2 factors as L Y.
    """
    _expect("a factorization check", (s, SplitColligation))
    n1, n2 = s.dims
    d = s.value_dim
    lw = _witness(left, "L", (n1, d))
    yw = _witness(y, "Y", (d, n2))
    with _saturating():
        residuals = {
            **_vanishing_pattern(s),
            "l_isometry": _isometry_defect(lw),
            "l_range_orthogonal": max_abs(lw.conj().T @ s.D1),
            "d2_factors": max_abs(s.D2 - lw @ yw),
        }
    return _certificate("both-vanishing", {"L": lw, "Y": yw}, residuals, atol)


def extract_both_vanishing(
    s: SplitColligation, left, y, atol: float = DEFAULT_ATOL
) -> tuple[Colligation, Colligation]:
    """Rebuild the two factors certified by check_both_vanishing.

    The general four-tuple (0, 0, L, Y): both factors vanish at the
    base point exactly.
    """
    cert = check_both_vanishing(s, left, y, atol)
    w = _passed(cert)
    zero = np.zeros((s.value_dim,) * 2, dtype=np.complex128)
    return _factors(s, cert, zero, zero, w["L"], w["Y"], atol)


def check_general(
    s: SplitColligation, a1, a2, x1, y2, atol: float = DEFAULT_ATOL
) -> FactorizationCertificate:
    """Certificate for the general factorization conditions.

    The witness four-tuple must split the parent blocks as A = A1 A2,
    B2 = A1 Y2, C1 = X1 A2, D2 = X1 Y2, with [A1; X1] an isometric
    column and A2* injective on range(A1* B1 + X1* D1).  The last
    condition is boolean and its residual is reported as 0 or 1.
    """
    _expect("a factorization check", (s, SplitColligation))
    d = s.value_dim
    n1, n2 = s.dims
    a1w = _witness(a1, "A1", (d, d))
    a2w = _witness(a2, "A2", (d, d))
    x1w = _witness(x1, "X1", (n1, d))
    y2w = _witness(y2, "Y2", (d, n2))
    with _saturating():
        coupling = a1w.conj().T @ s.B1 + x1w.conj().T @ s.D1
        # an overflowed coupling has no range to test: the condition fails
        injective = np.isfinite(coupling).all() and injective_on_range(
            a2w.conj().T, coupling, atol
        )
        residuals = {
            "a_splits": max_abs(s.A - a1w @ a2w),
            "b2_splits": max_abs(s.B2 - a1w @ y2w),
            "c1_splits": max_abs(s.C1 - x1w @ a2w),
            "d2_splits": max_abs(s.D2 - x1w @ y2w),
            "column_isometry": max_abs(a1w.conj().T @ a1w + x1w.conj().T @ x1w - np.eye(d)),
            "injectivity": 0.0 if injective else 1.0,
        }
    witnesses = {"A1": a1w, "A2": a2w, "X1": x1w, "Y2": y2w}
    return _certificate("general", witnesses, residuals, atol)


def solve_general_witnesses(
    s: SplitColligation, a1, a2, atol: float = DEFAULT_ATOL
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares completion of a general witness from (A1, A2).

    X1 solves X1 A2 = C1 by right division with the pseudo-inverse, Y2
    solves A1 Y2 = B2 by left division, and the full four-tuple is then
    re-checked.  Raises WitnessError carrying the measured residuals if
    the completed tuple fails any condition; for singular A1 or A2 the
    least-squares pick can miss witnesses another completion would find.
    """
    _expect("a witness search", (s, SplitColligation))
    d = s.value_dim
    a1w = _witness(a1, "A1", (d, d))
    a2w = _witness(a2, "A2", (d, d))
    gap = max_abs(s.A - a1w @ a2w)
    if gap > atol:
        raise WitnessError(
            f"A1 A2 misses the parent base block by {gap:.3e}"
        )
    x1 = s.C1 @ np.linalg.pinv(a2w)
    y2 = np.linalg.pinv(a1w) @ s.B2
    cert = check_general(s, a1w, a2w, x1, y2, atol)
    if not cert.verdict:
        raise WitnessError(
            "least-squares completion fails the conditions", certificate=cert
        )
    return x1, y2


def extract_general(
    s: SplitColligation, a1, a2, x1, y2, atol: float = DEFAULT_ATOL
) -> tuple[Colligation, Colligation]:
    """Rebuild the two factors certified by check_general.

    The factors are [[A1, B1], [X1, D1]] and [[A2, Y2], [C2, D3]].
    """
    cert = check_general(s, a1, a2, x1, y2, atol)
    w = _passed(cert)
    return _factors(s, cert, w["A1"], w["A2"], w["X1"], w["Y2"], 10.0 * atol)


def _shares_blocks(parent: Colligation, f1: Colligation, f2: Colligation) -> bool:
    """True iff the parent's split is exactly block triangular
    (``_triangular_split``) and f1 and f2 carry exactly the blocks that
    ``_factors`` takes from it: f1 its B1, D1 and first diagonal block of
    every projection, f2 its C2, D3 and second diagonal block.  Every test
    reads slices of the parent's arrays; nothing is copied."""
    n1, stack = _triangular_split(parent), parent.rep._stack
    shared = (
        (f1.B, parent.B[:, :n1]), (f1.D, parent.D[:n1, :n1]), (f1.rep._stack, stack[:, :n1, :n1]),
        (f2.C, parent.C[n1:]), (f2.D, parent.D[n1:, n1:]), (f2.rep._stack, stack[:, n1:, n1:]),
    )
    return bool(n1) and all(np.array_equal(mine, theirs) for mine, theirs in shared)


def verify_factorization(
    parent: Colligation, f1: Colligation, f2: Colligation
) -> float:
    """Worst pointwise defect of parent = f1 * f2 over all points.

    All three colligations must share the value dimension and the exact
    same sampled family.  Factors that carry the parent's blocks
    (``_shares_blocks``) take one resolvent pass with d right-hand sides
    over the defect colligation: the parent's blocks with A - A1 A2,
    B2 - A1 Y2, C1 - X1 A2 and D2 - X1 Y2.  Its transfer function is
    F - F1 F2, since F is affine in (A, B2, C1, D2) once B1, D1, C2 and D3
    are fixed, and its D keeps the parent's diagonal blocks and zero
    lower-left block, so the split solve names a singular point as the
    parent's own pass does.  Any other triple takes three separate passes.
    """
    _require_compatible(parent, f1, f2, what="factorization verification")
    with _saturating():
        if not _shares_blocks(parent, f1, f2):
            return max_abs(evaluate_all(parent) - evaluate_all(f1) @ evaluate_all(f2))
        n1 = parent.rep.split[0]
        b, c, d = parent.B.copy(), parent.C.copy(), parent.D.copy()
        a = parent.A - f1.A @ f2.A
        b[:, n1:] -= f1.A @ f2.B
        c[:n1] -= f1.C @ f2.A
        d[:n1, n1:] -= f1.C @ f2.B
        return max_abs(evaluate_all(_adopted(Colligation, parent.rep, parent.table, a, b, c, d)))
