"""The package's public surface."""

from __future__ import annotations

import ast
from pathlib import Path

import colligate
from colligate import errors

EXPORTED = {
    "__version__",
    "agler_norm_lower_bound",
    "check_both_vanishing",
    "check_general",
    "check_vanishing_selfadjoint",
    "ColligateError",
    "Colligation",
    "coordinate_representation",
    "cp_kernel_check",
    "decode_matrix",
    "DEFAULT_ATOL",
    "digest_file",
    "DimensionError",
    "direct_sum",
    "disc_points",
    "disc_table",
    "dumps_canonical",
    "encode_matrix",
    "eval_map",
    "evaluate",
    "evaluate_all",
    "extract_both_vanishing",
    "extract_general",
    "extract_vanishing_selfadjoint",
    "FactorizationCertificate",
    "find_LY_witness",
    "FormatError",
    "gramian_identity_check",
    "HermitianKernel",
    "injective_on_range",
    "is_admissible",
    "is_isometry",
    "is_psd",
    "isometric_factor",
    "load_colligation",
    "load_kernel",
    "load_table",
    "load_values",
    "load_witness",
    "max_abs",
    "numerical_rank",
    "OrthogonalityError",
    "orthonormal_range_basis",
    "PaddingError",
    "PointSet",
    "product",
    "random_colligation",
    "random_isometry",
    "random_representation",
    "random_selfadjoint_base_colligation",
    "random_vanishing_colligation",
    "RankError",
    "rep_apply",
    "rep_is_reducible",
    "Representation",
    "save_colligation",
    "save_kernel",
    "save_table",
    "save_values",
    "save_witness",
    "schur_agler_witness_check",
    "SingularResolventError",
    "solve_general_witnesses",
    "split_blocks",
    "SplitColligation",
    "StructureError",
    "szego_samples",
    "TableDiagnostics",
    "TestFunctionTable",
    "ToleranceError",
    "validate_test_family",
    "VARIANTS",
    "verify_factorization",
    "WitnessError",
}


def test_exported_names_are_pinned():
    assert set(colligate.__all__) == EXPORTED
    assert len(colligate.__all__) == len(EXPORTED)


def test_every_exported_name_resolves():
    for name in colligate.__all__:
        assert hasattr(colligate, name), name


def _raised_names():
    """(where, name) for every raise with an exception in the package.

    The name is the class raised, or the called or raised name for any
    other expression, so a raised variable also counts against the guard.
    """
    for path in sorted(Path(colligate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(target, "attr", None) or getattr(target, "id", None)
                yield f"{path.name}:{node.lineno}", name


def test_every_raise_names_a_colligate_error():
    # the CLI maps ColligateError to exit code 2; any other class raised
    # by the library would escape as a traceback
    raised = list(_raised_names())
    assert len(raised) > 50
    stray = [
        f"{where} raises {name}"
        for where, name in raised
        if not (
            isinstance(getattr(errors, str(name), None), type)
            and issubclass(getattr(errors, name), errors.ColligateError)
        )
    ]
    assert not stray
