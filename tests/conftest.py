"""Shared random-model builders for the test suite."""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from colligate import (
    Colligation,
    Representation,
    TestFunctionTable,
    PointSet,
    coordinate_representation,
    product,
    random_colligation,
    random_representation,
    random_selfadjoint_base_colligation,
    random_vanishing_colligation,
    validate_test_family,
)

# one profile for the whole run: every property test draws the same examples
# on every run, and no run writes an example database under .hypothesis/
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")
# Hypothesis also caches the literals of the package's modules under its home
# directory, database or not, while collecting: a directory removed at exit
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def random_table(m: int, n: int, seed: int, radius: float = 0.85) -> TestFunctionTable:
    """Random sampled family: base column zero, entries inside ``radius``.

    Random draws separate the points almost surely; the validation at
    the end turns an unlucky seed into a loud failure instead of a
    silently broken model.
    """
    rng = np.random.default_rng(seed)
    values = np.zeros((m, n), dtype=np.complex128)
    mags = rng.uniform(0.1, radius, size=(m, n - 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, n - 1))
    values[:, 1:] = mags * np.exp(1j * phases)
    table = TestFunctionTable(PointSet(tuple(f"x{k}" for k in range(n))), values)
    assert validate_test_family(table).passed
    return table


def conforming_pair(
    variant: str,
    value_dim: int,
    n1: int,
    n2: int,
    m: int,
    seed: int,
    n_points: int = 4,
    coordinate: bool | tuple[bool, bool] = False,
):
    """Two random isometric factors whose product satisfies ``variant``.

    Returns (first, second, parent, witnesses) where witnesses is None
    for the both-vanishing variant (its witness is found by search).
    The factors' families are random dense ones, or with ``coordinate``
    the state coordinates dealt round-robin over the m functions;
    ``coordinate`` may also be a pair, one flag per factor.
    """
    table = random_table(m, n_points, seed)
    flags = (coordinate, coordinate) if isinstance(coordinate, bool) else coordinate
    rep1, rep2 = (
        coordinate_representation([n // m + (j < n % m) for j in range(m)])
        if flag else random_representation(m, n, seed + k)
        for k, (flag, n) in enumerate(zip(flags, (n1, n2)), start=1)
    )
    if variant == "vanishing-selfadjoint":
        first = random_vanishing_colligation(value_dim, rep1, table, seed + 3)
        second = random_selfadjoint_base_colligation(value_dim, rep2, table, seed + 4)
        witnesses = {"A": second.A}
    elif variant == "both-vanishing":
        first = random_vanishing_colligation(value_dim, rep1, table, seed + 3)
        second = random_vanishing_colligation(value_dim, rep2, table, seed + 4)
        witnesses = None
    elif variant == "general":
        first = random_colligation(value_dim, rep1, table, seed + 3)
        second = random_colligation(value_dim, rep2, table, seed + 4)
        witnesses = {"A1": first.A, "A2": second.A, "X1": first.C, "Y2": second.B}
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return first, second, product(first, second), witnesses


def invertible_pair(value_dim: int, n1: int, n2: int, m: int, seed: int):
    """Two factors whose base blocks are invertible, and their product.

    Both blocks are selfadjoint strict contractions bounded away from
    zero, so the least-squares witness completion is exact.
    """
    table = random_table(m, 4, seed)
    first = random_selfadjoint_base_colligation(
        value_dim, random_representation(m, n1, seed + 1), table, seed + 3
    )
    second = random_selfadjoint_base_colligation(
        value_dim, random_representation(m, n2, seed + 2), table, seed + 4
    )
    return first, second, product(first, second)


def blaschke_colligation(
    zs=(0.0, 0.5, -1.0 / 3.0, 0.25j),
) -> Colligation:
    """Degree-two inner function with the closed-form 3x3 block operator."""
    from colligate import disc_table

    r = np.sqrt(3.0) / 2.0
    table = disc_table(list(zs))
    rep = Representation((np.eye(2, dtype=np.complex128),), split=(1, 1))
    return Colligation(
        rep=rep,
        table=table,
        A=np.array([[0.0]], dtype=np.complex128),
        B=np.array([[1.0, 0.0]], dtype=np.complex128),
        C=np.array([[0.5], [r]], dtype=np.complex128),
        D=np.array([[0.0, r], [0.0, -0.5]], dtype=np.complex128),
    )


def coordinate_colligation(table: TestFunctionTable, which: int = 0) -> Colligation:
    """One-dimensional shift realizing the test function ``which``.

    The block operator is the flip [[0, 1], [1, 0]]; the projection
    pattern routes the chosen function through the single state
    dimension.
    """
    projections = tuple(
        np.array([[1.0 if j == which else 0.0]], dtype=np.complex128)
        for j in range(table.m)
    )
    rep = Representation(projections)
    return Colligation(
        rep=rep,
        table=table,
        A=np.array([[0.0]], dtype=np.complex128),
        B=np.array([[1.0]], dtype=np.complex128),
        C=np.array([[1.0]], dtype=np.complex128),
        D=np.array([[0.0]], dtype=np.complex128),
    )


def is_coordinate(rep: Representation) -> bool:
    """True iff every projection is diagonal with 0/1 entries: the
    fixture deals state coordinates, not a dense family."""
    return all(
        (p == np.diag(np.diag(p))).all() and np.isin(np.diag(p), (0.0, 1.0)).all()
        for p in rep.projections
    )


def bidisc_table(pairs) -> TestFunctionTable:
    """Two-coordinate family sampled at the given (z1, z2) pairs."""
    values = np.asarray(list(zip(*pairs)), dtype=np.complex128)
    labels = tuple(str(p) for p in pairs)
    return TestFunctionTable(PointSet(labels), values)
