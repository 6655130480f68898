"""Golden CLI corpus: every subcommand's report and output files, byte for byte.

Each case runs ``main`` in a fresh working directory that holds copies of
the documents in ``tests/golden/inputs`` and names them by relative path,
so argv, input digests and output paths are the same everywhere.  The
expected stdout of case ``c`` is ``tests/golden/c/stdout``; every file
the case writes is stored next to it under its own name.

Reports with exit code 0 or 1 must match byte for byte.  Reports with
exit code 2 must match once the ``detail`` line is dropped, and for a
missing witness the detail must still name each missing witness.

The corpus is regenerated, only when a report is meant to change, with

    PYTHONPATH=src python tests/test_golden_cli.py --regenerate

and a change that should move report floats by rounding only is first
checked with

    PYTHONPATH=src python tests/test_golden_cli.py --diff

which regenerates into a temporary directory, lists every changed leaf,
and exits 1 when a key, a verdict, an exit code, any other non-float leaf
or a written file changed, or a float moved by more than FLOAT_DRIFT.

Every stored report with a positive ``bound`` is also checked against its
inputs: the witness check passes at the bound and fails at the lower end
of the reported bracket, so a regenerated bound is shown certified, not
only stored.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from colligate import load_kernel, load_values, schur_agler_witness_check
from colligate.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# Largest move of a report float that --diff accepts.  Absolute, since
# residual leaves sit near eps, where no relative bound can hold.
FLOAT_DRIFT = 1e-14

VSA = ["--variant", "vanishing-selfadjoint"]
BV = ["--variant", "both-vanishing"]
GEN = ["--variant", "general"]


def _variant_cases(command: str) -> list[tuple]:
    """check or factor over all three variants: (id, argv, code, missing)."""
    out = ["-o", "out"] if command == "factor" else []
    rows = [
        ("vsa-file-pass", ["blaschke.json", *VSA, "--witness", "half.json"], 0, ()),
        ("vsa-file-fail", ["blaschke.json", *VSA, "--witness", "third.json"], 1, ()),
        ("vsa-auto-pass", ["blaschke.json", *VSA, "--witness", "half.json", "--auto"], 0, ()),
        ("vsa-auto-fail", ["blaschke.json", *VSA, "--witness", "third.json", "--auto"], 1, ()),
        ("vsa-missing", ["blaschke.json", *VSA], 2, ("A",)),
        ("vsa-missing-auto", ["blaschke.json", *VSA, "--auto"], 2, ("A",)),
        ("vsa-wrong-names", ["blaschke.json", *VSA, "--witness", "ly.json"], 2, ("A",)),
        ("bv-file-pass", ["squared.json", *BV, "--witness", "ly.json"], 0, ()),
        ("bv-file-fail", ["squared.json", *BV, "--witness", "ly_bad.json"], 1, ()),
        ("bv-file-auto", ["squared.json", *BV, "--witness", "ly.json", "--auto"], 0, ()),
        ("bv-auto-pass", ["squared.json", *BV, "--auto"], 0, ()),
        ("bv-auto-fail", ["blaschke.json", *BV, "--auto"], 1, ()),
        ("bv-missing", ["squared.json", *BV], 2, ("L", "Y")),
        ("bv-wrong-names", ["squared.json", *BV, "--witness", "half.json"], 2, ("L", "Y")),
        ("gen-file-pass", ["gen.json", *GEN, "--witness", "gen_full.json"], 0, ()),
        ("gen-file-fail", ["gen.json", *GEN, "--witness", "gen_bad.json"], 1, ()),
        ("gen-file-auto", ["gen.json", *GEN, "--witness", "gen_full.json", "--auto"], 0, ()),
        ("gen-auto-pass", ["gen.json", *GEN, "--witness", "gen_pair.json", "--auto"], 0, ()),
        ("gen-auto-fail", ["squared.json", *GEN, "--witness", "zero_a.json", "--auto"], 1, ()),
        ("gen-auto-gap", ["gen.json", *GEN, "--witness", "gen_gap.json", "--auto"], 1, ()),
        ("gen-missing", ["gen.json", *GEN], 2, ("A1", "A2")),
        ("gen-missing-auto", ["gen.json", *GEN, "--auto"], 2, ("A1", "A2")),
        ("gen-missing-xy", ["gen.json", *GEN, "--witness", "gen_pair.json"], 2, ("X1", "Y2")),
    ]
    return [(f"{command}-{cid}", [command, *argv, *out], code, missing)
            for cid, argv, code, missing in rows]


CASES = [
    ("eval-all", ["eval", "blaschke.json"], 0, ()),
    ("eval-all-flag", ["eval", "gen.json", "--all"], 0, ()),
    ("eval-point", ["eval", "squared.json", "--point", "2"], 0, ()),
    ("eval-bad-point", ["eval", "blaschke.json", "--point", "9"], 2, ()),
    ("eval-bad-table", ["eval", "bad_col.json"], 2, ()),
    ("eval-nan-atol", ["eval", "blaschke.json", "--atol", "nan"], 2, ()),
    *_variant_cases("check"),
    *_variant_cases("factor"),
    ("multiply", ["multiply", "gen_f1.json", "gen_f2.json", "-o", "prod.json"], 0, ()),
    ("multiply-bad-table", ["multiply", "bad_col.json", "blaschke.json", "-o", "prod.json"], 2, ()),
    ("verify-pass", ["verify", "gen.json", "gen_f1.json", "gen_f2.json"], 0, ()),
    ("verify-swapped", ["verify", "gen.json", "gen_f2.json", "gen_f1.json"], 1, ()),
    ("random-disc", ["random", "--table", "table.json", "--value-dim", "2",
                     "--state-dims", "3,2", "--seed", "5", "-o", "rand.json"], 0, ()),
    ("random-two-functions", ["random", "--table", "table2.json", "--value-dim", "1",
                              "--state-dims", "3,2", "--seed", "7", "-o", "rand.json"], 0, ()),
    ("random-bad-table", ["random", "--table", "bad_table.json", "--value-dim", "1",
                          "--state-dims", "1,1", "-o", "rand.json"], 2, ()),
    ("random-bad-dims", ["random", "--table", "table.json", "--value-dim", "1",
                         "--state-dims", "3", "-o", "rand.json"], 2, ()),
    ("admissible-pass", ["admissible", "szego.json", "table.json"], 0, ()),
    ("admissible-fail", ["admissible", "ones.json", "table.json"], 1, ()),
    ("admissible-bad-table", ["admissible", "szego.json", "bad_table.json"], 2, ()),
    ("norm-bound", ["norm-bound", "vals.json", "--kernels", "s2.json"], 0, ()),
    ("norm-bound-two-kernels", ["norm-bound", "vals.json", "--kernels", "s2.json,s2sq.json"], 0, ()),
    ("norm-bound-mismatch", ["norm-bound", "vals4.json", "--kernels", "s2.json"], 2, ()),
    ("norm-bound-operator", ["norm-bound", "vals_op.json", "--kernels", "s3_op.json"], 0, ()),
    ("norm-bound-operator-two-kernels",
     ["norm-bound", "vals_op.json", "--kernels", "s3_op.json,s3sq_op.json"], 0, ()),
]


def _run(case_dir: Path, argv: list[str]) -> tuple[int, bytes, dict[str, bytes]]:
    """Run one case in ``case_dir`` (already holding the inputs)."""
    before = set(os.listdir(case_dir))
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(case_dir)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    written = {
        name: (case_dir / name).read_bytes()
        for name in sorted(set(os.listdir(case_dir)) - before)
    }
    return code, buf.getvalue().encode("utf-8"), written


def _without_detail(report: bytes) -> bytes:
    return b"\n".join(
        line for line in report.split(b"\n") if not line.startswith(b'  "detail": ')
    )


@pytest.mark.parametrize(
    "case, argv, code, missing", CASES, ids=[c[0] for c in CASES]
)
def test_golden_report(tmp_path, case, argv, code, missing):
    shutil.copytree(INPUTS, tmp_path, dirs_exist_ok=True)
    got_code, stdout, written = _run(tmp_path, argv)
    expected_dir = GOLDEN / case
    expected = (expected_dir / "stdout").read_bytes()
    assert got_code == code
    if code == 2:
        assert _without_detail(stdout) == _without_detail(expected)
        detail = next(
            line for line in stdout.decode().splitlines() if line.startswith('  "detail": ')
        )
        for name in missing:
            assert f"'{name}'" in detail
    else:
        assert stdout == expected
    stored = {p.name for p in expected_dir.iterdir()} - {"stdout"}
    assert set(written) == stored
    for name, data in written.items():
        assert data == (expected_dir / name).read_bytes(), name


def _bound_cases() -> list[str]:
    """Every stored case whose report carries a positive bound."""
    return sorted(
        path.parent.name for path in GOLDEN.glob("*/stdout")
        if json.loads(path.read_bytes()).get("bound", 0.0) > 0.0
    )


def test_every_successful_norm_bound_is_guarded():
    assert _bound_cases() == sorted(
        case for case, argv, code, _ in CASES if argv[0] == "norm-bound" and code == 0
    )


@pytest.mark.parametrize("case", _bound_cases())
def test_stored_bound_is_certified_by_the_witness_check(case):
    report = json.loads((GOLDEN / case / "stdout").read_bytes())
    argv, atol, bound = report["argv"], report["atol"], report["bound"]
    _, values = load_values(str(INPUTS / argv[1]))
    paths = argv[argv.index("--kernels") + 1].split(",")
    kernels = [load_kernel(str(INPUTS / p)) for p in paths]
    lo, hi = report["bracket"]
    assert hi == bound
    assert all(schur_agler_witness_check(values, s, bound, atol) for s in kernels)
    assert not all(schur_agler_witness_check(values, s, lo, atol) for s in kernels)
    assert bound**2 - lo**2 <= atol


def test_corpus_covers_every_subcommand():
    assert {argv[0] for _, argv, _, _ in CASES} == {
        "eval", "check", "factor", "multiply", "verify", "random",
        "admissible", "norm-bound",
    }


def test_diff_allows_only_small_float_drift():
    old = {"residual": 1.1e-16, "verdict": True, "exact": 0, "values": [0.5, "x"]}
    assert _leaf_changes(old, old) == []
    moved = dict(old, residual=1.7e-16, exact=2e-16)
    assert [c[0] for c in _leaf_changes(old, moved)] == ["$.residual", "$.exact"]
    assert all(c[3] for c in _leaf_changes(old, moved))
    refused = [
        dict(old, residual=1.1e-16 + 2 * FLOAT_DRIFT),
        dict(old, verdict=False),
        dict(old, values=[0.5, "y"]),
        dict(old, values=[0.5]),
        dict(old, exact=1),
        {**old, "extra": 0.0},
    ]
    for new in refused:
        (change,) = _leaf_changes(old, new)
        assert not change[3], new


def test_diff_looks_beneath_a_changed_key_list():
    old = {"bound": 0.5, "gone": 1, "nested": {"x": 0.25, "y": "a"}}
    new = {"bound": 0.5 + FLOAT_DRIFT / 2, "nested": {"x": 0.25 + 2 * FLOAT_DRIFT, "z": 0},
           "bracket": [0.0, 1.0]}
    changes = _leaf_changes(old, new)
    assert [c[:3] for c in changes] == [
        ("$ keys", ["gone"], ["bracket"]),
        ("$.bound", 0.5, 0.5 + FLOAT_DRIFT / 2),
        ("$.nested keys", ["y"], ["z"]),
        ("$.nested.x", 0.25, 0.25 + 2 * FLOAT_DRIFT),
    ]
    assert [c[3] for c in changes] == [False, True, False, False]
    (order,) = _leaf_changes({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert order == ("$ key order", ["a", "b"], ["b", "a"], False)


def _write_inputs(directory: Path) -> None:
    """Build the input documents with the library and the test builders."""
    from colligate import (
        HermitianKernel,
        disc_table,
        product,
        save_colligation,
        save_kernel,
        save_table,
        save_values,
        save_witness,
        szego_samples,
    )
    from conftest import blaschke_colligation, coordinate_colligation, invertible_pair

    def path(name):
        return str(directory / name)

    zs = [0.0, 0.5, -1.0 / 3.0, 0.25j]
    table = disc_table(zs)
    save_table(table, path("table.json"))
    save_table(disc_table([0.1, 0.5, -1.0 / 3.0]), path("bad_table.json"))
    save_colligation(blaschke_colligation(), path("blaschke.json"))
    save_colligation(blaschke_colligation(zs=(0.1, 0.5, -1.0 / 3.0)), path("bad_col.json"))
    save_colligation(
        product(coordinate_colligation(table), coordinate_colligation(table)),
        path("squared.json"),
    )
    save_witness({"A": np.array([[0.5]])}, path("half.json"))
    save_witness({"A": np.array([[1.0 / 3.0]])}, path("third.json"))
    save_witness({"L": np.array([[1.0]]), "Y": np.array([[1.0]])}, path("ly.json"))
    save_witness({"L": np.array([[1.0]]), "Y": np.array([[0.5]])}, path("ly_bad.json"))
    save_witness({"A1": np.zeros((1, 1)), "A2": np.zeros((1, 1))}, path("zero_a.json"))

    first, second, parent = invertible_pair(2, 2, 2, 2, seed=11)
    save_colligation(parent, path("gen.json"))
    save_colligation(first, path("gen_f1.json"))
    save_colligation(second, path("gen_f2.json"))
    save_table(parent.table, path("table2.json"))
    full = {"A1": first.A, "A2": second.A, "X1": first.C, "Y2": second.B}
    save_witness(full, path("gen_full.json"))
    save_witness(dict(full, X1=first.C + 1e-3), path("gen_bad.json"))
    save_witness({"A1": first.A, "A2": second.A}, path("gen_pair.json"))
    save_witness({"A1": 2.0 * first.A, "A2": second.A}, path("gen_gap.json"))

    save_kernel(szego_samples(zs), path("szego.json"))
    points = szego_samples(zs).points
    save_kernel(HermitianKernel(points, np.ones((4, 4, 1, 1), dtype=complex)), path("ones.json"))
    zs2 = [0.0, 0.5]
    save_kernel(szego_samples(zs2), path("s2.json"))
    save_kernel(szego_samples(zs2, power=2), path("s2sq.json"))
    save_values(disc_table(zs2).points, np.array([[[2.0 * z]] for z in zs2]), path("vals.json"))
    save_values(points, np.zeros((4, 1, 1)), path("vals4.json"))

    # operator-valued: 2 x 2 values against Szego kernels tensored with a
    # fixed positive 2 x 2 matrix (block_dim 2)
    zs3 = [0.0, 0.5, 0.25j]
    szego3 = szego_samples(zs3)
    pos = np.array([[2.0, 0.5 - 0.5j], [0.5 + 0.5j, 1.0]])
    pos_sq = np.array([[1.0, 0.25j], [-0.25j, 1.0]])
    save_kernel(HermitianKernel(szego3.points, szego3.blocks * pos), path("s3_op.json"))
    save_kernel(
        HermitianKernel(szego3.points, szego_samples(zs3, power=2).blocks * pos_sq),
        path("s3sq_op.json"),
    )
    values = np.array([[[z, 0.5], [0.25j, -z]] for z in zs3])
    save_values(szego3.points, values, path("vals_op.json"))


def _generate(root: Path) -> None:
    """Write the whole corpus from the current library into ``root``."""
    sys.path.insert(0, str(Path(__file__).parent))
    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    _write_inputs(inputs)
    for case, argv, code, _ in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(inputs, tmp, dirs_exist_ok=True)
            got_code, stdout, written = _run(Path(tmp), argv)
        if got_code != code:
            raise SystemExit(f"{case}: exit code {got_code}, expected {code}")
        (root / case).mkdir()
        (root / case / "stdout").write_bytes(stdout)
        for name, data in written.items():
            (root / case / name).write_bytes(data)


def regenerate() -> None:
    """Rewrite the whole corpus from the current library."""
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    _generate(GOLDEN)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaf_changes(old, new, where: str = "$") -> list[tuple]:
    """Every leaf where two parsed reports differ, as (where, old, new, allowed).

    Only a float moving by at most FLOAT_DRIFT is allowed; an integer
    written for a float that is exactly zero counts as a float when the
    other side is one.  A change of keys, length or any other leaf is not.
    When two dicts' keys differ, the removed and added keys (or, if only
    their order moved, both key lists) are one change, and the keys they
    share are still compared.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        changes = []
        if list(old) != list(new):
            removed = [k for k in old if k not in new]
            added = [k for k in new if k not in old]
            if removed or added:
                changes.append((f"{where} keys", removed, added, False))
            else:
                changes.append((f"{where} key order", list(old), list(new), False))
        return changes + [c for k in old if k in new
                          for c in _leaf_changes(old[k], new[k], f"{where}.{k}")]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [(f"{where} length", len(old), len(new), False)]
        return [c for k, (a, b) in enumerate(zip(old, new))
                for c in _leaf_changes(a, b, f"{where}[{k}]")]
    if type(old) is type(new) and old == new:
        return []
    floats = (_is_number(old) and _is_number(new)
              and (isinstance(old, float) or isinstance(new, float)))
    return [(where, old, new, floats and abs(new - old) <= FLOAT_DRIFT)]


def _corpus_changes(old_root: Path, new_root: Path) -> list[tuple]:
    """Every change from one corpus to another, as (where, old, new, allowed).

    Reports are compared leaf by leaf; the inputs and every written file
    must stay byte for byte.
    """
    changes = []
    files = sorted({p.relative_to(root) for root in (old_root, new_root)
                    for p in root.rglob("*") if p.is_file()})
    for rel in files:
        old, new = old_root / rel, new_root / rel
        if not (old.is_file() and new.is_file()):
            changes.append((str(rel), *("present" if f.is_file() else "absent"
                                        for f in (old, new)), False))
            continue
        old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
        if old_bytes == new_bytes:
            continue
        if rel.name != "stdout":
            changes.append((str(rel), "bytes", "changed bytes", False))
            continue
        changes += _leaf_changes(json.loads(old_bytes), json.loads(new_bytes), f"{rel} $")
    return changes


def diff() -> int:
    """Regenerate into a temporary directory and list every change to the
    corpus; 1 when any change is more than float drift, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        _generate(Path(tmp))
        changes = _corpus_changes(GOLDEN, Path(tmp))
    for where, old, new, allowed in changes:
        print(f"{'drift' if allowed else 'FAIL '}  {where}: {old!r} -> {new!r}")
    failed = sum(not allowed for *_, allowed in changes)
    print(f"{len(changes)} changed leaves, {failed} beyond a float drift of {FLOAT_DRIFT:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        regenerate()
    elif sys.argv[1:] == ["--diff"]:
        sys.exit(diff())
    else:
        raise SystemExit(__doc__)
