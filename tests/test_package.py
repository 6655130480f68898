"""The package's public surface."""

from __future__ import annotations

import ast
import builtins
import inspect
from pathlib import Path

import numpy as np
import numpy.testing as npt

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


def _raises():
    """(where, node) for every raise with an exception in the package."""
    for path in sorted(Path(colligate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                yield f"{path.name}:{node.lineno}", node


def _raised_names():
    """(where, name) for every raise with an exception in the package.

    The name is the class raised, or the called or raised name for any
    other expression, so a raised variable also counts against the guard.
    """
    for where, node in _raises():
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        yield where, getattr(target, "attr", None) or getattr(target, "id", None)


def _message_template(exc: ast.expr) -> str | None:
    """The literal message of a raised call, each f-string field as {}."""
    if not (isinstance(exc, ast.Call) and exc.args):
        return None
    msg = exc.args[0]
    if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
        return msg.value
    if isinstance(msg, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in msg.values
        )
    return None


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


def test_every_raise_message_has_one_site():
    # a rule raised from two sites is checked twice; give it one home
    sites: dict[str, list[str]] = {}
    for where, node in _raises():
        template = _message_template(node.exc)
        if template is not None:
            sites.setdefault(template, []).append(where)
    assert len(sites) > 50
    assert not {t: w for t, w in sites.items() if len(w) > 1}


def _unused_imports(path: Path) -> list[str]:
    """Names the module at ``path`` imports and never reads, except where
    the import statement's first line is marked ``# noqa: F401``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{node.lineno} {alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]


def test_every_imported_name_is_used():
    # an import left behind by a change is dead code; mark a deliberate one
    # with noqa: F401 on its line
    package = Path(colligate.__file__).parent
    unused = [found for path in sorted(package.glob("*.py")) for found in _unused_imports(path)]
    assert not unused


def _private_names_unread(package: Path) -> list[str]:
    """``_``-prefixed functions and classes defined in the package that no
    module reads as a name, an attribute, an imported name or a string."""
    defined, read = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{where} {name}" for where, name in defined if name not in read]


def test_every_private_name_is_used():
    # a private helper that nothing reads any more is dead code, such as a
    # builder or a scan left behind when its last caller went
    assert not _private_names_unread(Path(colligate.__file__).parent)


def _sites(package: Path, hit) -> list[str]:
    """``module.function`` once for each node of the package that ``hit``
    accepts, naming the innermost function holding it (``<module>`` outside any)."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for node in ast.walk(tree):
            name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for child in ast.iter_child_nodes(node):
                owner[child] = name or owner.get(node, "<module>")
        found += [f"{path.stem}.{owner[node]}" for node in ast.walk(tree) if hit(node)]
    return found


def test_only_adopted_skips_the_public_copy():
    # an object made by __new__ skips __post_init__ and the copy of the
    # caller's arrays; linalg._adopted is the one place allowed to do that
    def reads_new(node):
        return isinstance(node, ast.Attribute) and node.attr == "__new__"

    assert _sites(Path(colligate.__file__).parent, reads_new) == ["linalg._adopted"]


def test_one_handler_maps_a_singular_solve():
    # a LinAlgError is turned into SingularResolventError in one place, the
    # resolvent kernel's _solve, and caught there once, not again to retry
    def catches_linalg_error(node):
        return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
            getattr(part, "id", getattr(part, "attr", None)) == "LinAlgError"
            for part in ast.walk(node.type)
        )

    handlers = _sites(Path(colligate.__file__).parent, catches_linalg_error)
    assert handlers == ["realization._solve"]


PACKAGE_TYPES = {
    "Colligation", "SplitColligation", "Representation", "TestFunctionTable", "PointSet",
    "HermitianKernel",
}


def test_only_expect_tests_for_a_package_type():
    # the type test of an argument of a package type has one home: no
    # isinstance names one of the six classes, and the one isinstance over a
    # variable class, a lowercase name that is not a builtin, is linalg._expect's
    def tests_for_a_package_type(node):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
            return False
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        names = [getattr(k, "id", None) or getattr(k, "attr", None) for k in kinds]
        return any(
            name in PACKAGE_TYPES or (isinstance(k, ast.Name) and name.islower()
                                      and not hasattr(builtins, name))
            for k, name in zip(kinds, names)
        )

    assert _sites(Path(colligate.__file__).parent, tests_for_a_package_type) == ["linalg._expect"]


SENTINELS = ("x", 5, None, 1.5, object())


def test_no_public_callable_leaks_a_foreign_exception(tmp_path, monkeypatch):
    # every required positional argument of an exported callable set to one
    # sentinel at a time: the only escapes are a ColligateError, which the CLI
    # maps to exit code 2, and a FileNotFoundError for a str path that does not exist.
    # A save_* that took a sentinel for its document would write it here
    monkeypatch.chdir(tmp_path)
    swept, leaks = 0, {}
    for name in colligate.__all__:
        obj = getattr(colligate, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        swept += 1
        params = inspect.signature(obj).parameters.values()
        count = sum(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        for sentinel in SENTINELS:
            try:
                obj(*[sentinel] * count)
            except errors.ColligateError:
                pass
            except Exception as exc:
                if not (isinstance(exc, FileNotFoundError) and isinstance(sentinel, str)):
                    leaks.setdefault(name, set()).add(type(exc).__name__)
    assert swept > 50
    assert not leaks, f"{len(leaks)} callables leak: {leaks}"


def _package_objects() -> list:
    """One object of each of the six package types."""
    table = colligate.disc_table([0.0, 0.5])
    col = colligate.random_colligation(1, colligate.coordinate_representation([1]), table, 0)
    joined = colligate.product(col, col)
    kernel = colligate.szego_samples([0.0, 0.5])
    return [table.points, table, kernel, joined.rep, joined, colligate.split_blocks(joined)]


PUBLIC_METHODS = {
    "Colligation.from_matrix", "Colligation.isometry_defect", "Colligation.matrix",
    "Colligation.validate", "HermitianKernel.assemble", "HermitianKernel.hermiticity_defect",
    "Representation.defects", "Representation.restrict", "Representation.validate",
    "TestFunctionTable.same_family",
}


def test_no_public_method_leaks_a_foreign_exception():
    # the sentinels of the callable sweep, -1 and True, in every required
    # argument of every public method of the package types
    objects = _package_objects()
    assert {type(obj).__name__ for obj in objects} == PACKAGE_TYPES
    swept, leaks = set(), {}
    for obj in objects:
        for name, attr in inspect.getmembers(type(obj)):
            if name.startswith("_") or not (inspect.isfunction(attr) or inspect.ismethod(attr)):
                continue
            method = getattr(obj, name)
            where = f"{type(obj).__name__}.{name}"
            swept.add(where)
            params = inspect.signature(method).parameters.values()
            count = sum(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
            for sentinel in SENTINELS + (-1, True):
                try:
                    method(*[sentinel] * count)
                except errors.ColligateError:
                    pass
                except Exception as exc:
                    leaks.setdefault(where, set()).add(type(exc).__name__)
    assert not leaks, f"{len(leaks)} methods leak: {leaks}"
    assert swept == PUBLIC_METHODS


def _held_arrays(obj) -> list[np.ndarray]:
    """Every array an object holds as a field or inside a tuple field."""
    held = []
    for value in vars(obj).values():
        items = value if isinstance(value, tuple) else (value,)
        held.extend(item for item in items if isinstance(item, np.ndarray))
    return held


def test_public_constructors_keep_no_caller_array():
    # each public class copies the caller's arrays once and freezes the
    # copies; complex128 input is where a conversion would not copy
    values = np.array([[0.0, 0.5]], dtype=complex)
    blocks = np.array(colligate.szego_samples([0.0, 0.5]).blocks)
    projection = np.eye(2, dtype=complex)
    a, b = np.zeros((1, 1), dtype=complex), np.array([[1.0, 0.0]], dtype=complex)
    c, d = np.array([[0.5], [0.8]], dtype=complex), np.array([[0.0, 0.8], [0.0, -0.5]], dtype=complex)
    rep = colligate.Representation((projection,))
    table = colligate.TestFunctionTable(colligate.disc_points([0.0, 0.5]), values)
    built = [
        rep,
        table,
        colligate.HermitianKernel(table.points, blocks),
        colligate.Colligation(rep, table, a, b, c, d),
    ]
    before = [[x.copy() for x in _held_arrays(obj)] for obj in built]
    for caller in (values, blocks, projection, a, b, c, d):
        caller += 1.0
    for obj, saved in zip(built, before):
        held = _held_arrays(obj)
        assert held and len(held) == len(saved), type(obj).__name__
        for x, y in zip(held, saved):
            npt.assert_array_equal(x, y, err_msg=type(obj).__name__)
            assert not x.flags.writeable, type(obj).__name__
