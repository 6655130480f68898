"""The package's public surface."""

from __future__ import annotations

import colligate

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
