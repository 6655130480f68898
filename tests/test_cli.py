"""Subcommand behavior: reports, exit codes, file outputs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from colligate import (
    Colligation,
    HermitianKernel,
    disc_table,
    evaluate_all,
    load_colligation,
    product,
    random_colligation,
    random_representation,
    save_colligation,
    save_kernel,
    save_table,
    save_values,
    save_witness,
    szego_samples,
    verify_factorization,
)
import colligate
from colligate import realization
from colligate.cli import main
from conftest import (
    blaschke_colligation,
    conforming_pair,
    coordinate_colligation,
    invertible_pair,
    random_table,
)


@pytest.fixture()
def workdir(tmp_path):
    col = blaschke_colligation()
    save_colligation(col, str(tmp_path / "blaschke.json"))
    save_witness({"A": np.array([[0.5]])}, str(tmp_path / "half.json"))
    save_witness({"A": np.array([[1.0 / 3.0]])}, str(tmp_path / "third.json"))
    table = disc_table([0.0, 0.5, -1.0 / 3.0, 0.25j])
    save_table(table, str(tmp_path / "table.json"))
    squared = product(coordinate_colligation(table), coordinate_colligation(table))
    save_colligation(squared, str(tmp_path / "squared.json"))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestEval:
    def test_all_points(self, workdir, capsys):
        code, report = run(capsys, "eval", workdir / "blaschke.json")
        assert code == 0
        assert [e["index"] for e in report["evaluations"]] == [0, 1, 2, 3]
        value = report["evaluations"][1]["value"]
        assert value[0][0][0] == pytest.approx(0.4, abs=1e-12)

    def test_single_point(self, workdir, capsys):
        code, report = run(capsys, "eval", workdir / "blaschke.json", "--point", "2")
        assert code == 0
        assert len(report["evaluations"]) == 1
        assert report["evaluations"][0]["label"] == "(-0.3333333333333333+0j)"

    def test_out_of_range_point(self, workdir, capsys):
        code, report = run(capsys, "eval", workdir / "blaschke.json", "--point", "9")
        assert code == 2
        assert report["error"] == "StructureError"

    def test_missing_file(self, workdir, capsys):
        code, report = run(capsys, "eval", workdir / "nope.json")
        assert code == 2
        assert report["error"] == "FileNotFoundError"

    def test_the_module_runs_as_a_program(self, workdir):
        # in a subprocess: runpy warns when it re-runs an imported module
        env = dict(os.environ, PYTHONPATH=str(Path(colligate.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "colligate.cli", "eval", str(workdir / "nope.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert json.loads(done.stdout)["error"] == "FileNotFoundError"

    def test_all_points_match_single_point_reports(self, workdir, capsys):
        _, every = run(capsys, "eval", workdir / "squared.json", "--all")
        for entry in every["evaluations"]:
            _, one = run(capsys, "eval", workdir / "squared.json", "--point", entry["index"])
            assert one["evaluations"] == [entry]

    def test_every_batched_caller_reaches_the_module_evaluate(self, workdir, capsys,
                                                              monkeypatch):
        # the benchmark injects its faults into realization.evaluate alone, so
        # evaluate_all, verify_factorization and eval --all must all call it
        shift = coordinate_colligation(disc_table([0.0, 0.5, -1.0 / 3.0, 0.25j]))
        squared = product(shift, shift)
        clean = evaluate_all(squared)
        assert verify_factorization(squared, shift, shift) <= 1e-15
        original = realization.evaluate
        monkeypatch.setattr(realization, "evaluate", lambda col, i: original(col, i) + 1.0)
        npt.assert_array_equal(evaluate_all(squared), clean + 1.0)
        # (x^2 + 1) - (x + 1)^2 = -2x, largest at x = 0.5
        assert verify_factorization(squared, shift, shift) == pytest.approx(1.0)
        _, report = run(capsys, "eval", workdir / "squared.json", "--all")
        assert report["evaluations"][1]["value"][0][0][0] == pytest.approx(1.25, abs=1e-12)

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("A", 10**400, id="A-1e400"),
            pytest.param("value_dim", 3, id="value_dim-3"),
            pytest.param("value_dim", True, id="value_dim-true"),
            pytest.param("split", [True, True], id="split-true-true"),
        ],
    )
    def test_malformed_colligation_exits_two(self, workdir, capsys, field, value):
        doc = json.loads((workdir / "blaschke.json").read_text())
        if field == "A":
            doc["A"][0][0][0] = value
        else:
            doc[field] = value
        (workdir / "bad.json").write_text(json.dumps(doc))
        code, report = run(capsys, "eval", workdir / "bad.json")
        assert (code, report["error"]) == (2, "FormatError")

    def test_a_projection_of_another_shape_exits_two(self, workdir, capsys):
        table = random_table(2, 4, seed=0)
        col = random_colligation(1, random_representation(2, 3, seed=1), table, seed=2)
        path = workdir / "two.json"
        save_colligation(col, str(path))
        doc = json.loads(path.read_text())
        doc["projections"][1] = doc["projections"][1][:2]
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "eval", path)
        assert (code, report["error"]) == (2, "FormatError")
        assert report["detail"].startswith(f"{path}.projections[1]: ")

    def test_deeply_nested_json_exits_two(self, workdir, capsys):
        path = workdir / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, report = run(capsys, "eval", path)
        assert (code, report["error"]) == (2, "FormatError")
        assert report["detail"].startswith(f"{path}: not valid JSON (")

    def test_reports_carry_input_digests(self, workdir, capsys):
        code, report = run(capsys, "eval", workdir / "blaschke.json")
        digest = report["inputs"][str(workdir / "blaschke.json")]
        assert digest.startswith("sha256:")


class TestCheck:
    def test_passing_witness(self, workdir, capsys):
        code, report = run(
            capsys,
            "check",
            workdir / "blaschke.json",
            "--variant",
            "vanishing-selfadjoint",
            "--witness",
            workdir / "half.json",
        )
        assert code == 0
        assert report["verdict"] is True
        assert report["witness_source"] == "file"
        assert max(report["residuals"].values()) <= 1e-12

    def test_failing_witness_reports_the_residual(self, workdir, capsys):
        code, report = run(
            capsys,
            "check",
            workdir / "blaschke.json",
            "--variant",
            "vanishing-selfadjoint",
            "--witness",
            workdir / "third.json",
        )
        assert code == 1
        assert report["verdict"] is False
        assert report["residuals"]["gram_match"] == 5.0 / 36.0

    def test_auto_search_for_both_vanishing(self, workdir, capsys):
        code, report = run(
            capsys,
            "check",
            workdir / "squared.json",
            "--variant",
            "both-vanishing",
            "--auto",
        )
        assert code == 0
        assert report["witness_source"] == "auto"
        assert report["witnesses"]["L"] == [[[1.0, 0.0]]]
        assert report["witnesses"]["Y"] == [[[1.0, 0.0]]]

    def test_auto_search_failure_is_a_false_verdict(self, workdir, capsys):
        code, report = run(
            capsys,
            "check",
            workdir / "blaschke.json",
            "--variant",
            "both-vanishing",
            "--auto",
        )
        assert code == 1
        assert report["verdict"] is False
        assert report["residuals"]["c1_vanishes"] == 0.5

    def test_missing_witness_without_auto(self, workdir, capsys):
        code, report = run(
            capsys, "check", workdir / "squared.json", "--variant", "both-vanishing"
        )
        assert code == 2
        assert report["error"] == "StructureError"

    def test_general_auto_completes_the_tuple(self, workdir, capsys, tmp_path):
        first, second, parent = invertible_pair(2, 3, 3, 2, seed=11)
        save_colligation(parent, str(tmp_path / "parent.json"))
        save_witness(
            {"A1": first.A, "A2": second.A}, str(tmp_path / "pair.json")
        )
        code, report = run(
            capsys,
            "check",
            tmp_path / "parent.json",
            "--variant",
            "general",
            "--witness",
            tmp_path / "pair.json",
            "--auto",
        )
        assert code == 0
        assert report["witness_source"] == "auto"
        assert set(report["witnesses"]) == {"A1", "A2", "X1", "Y2"}

    def test_general_file_witness_reports_only_its_four_matrices(self, workdir, capsys, tmp_path):
        first, second, parent = invertible_pair(2, 3, 3, 2, seed=11)
        save_colligation(parent, str(tmp_path / "parent.json"))
        save_witness(
            {"A": np.eye(2), "A1": first.A, "A2": second.A, "X1": first.C, "Y2": second.B},
            str(tmp_path / "full.json"),
        )
        code, report = run(
            capsys, "check", tmp_path / "parent.json", "--variant", "general",
            "--witness", tmp_path / "full.json",
        )
        assert code == 0
        assert report["witness_source"] == "file"
        assert list(report["witnesses"]) == ["A1", "A2", "X1", "Y2"]

    def test_general_solver_failure_carries_residuals(self, workdir, capsys, tmp_path):
        save_witness(
            {"A1": np.zeros((1, 1)), "A2": np.zeros((1, 1))},
            str(tmp_path / "zeros.json"),
        )
        code, report = run(
            capsys,
            "check",
            workdir / "squared.json",
            "--variant",
            "general",
            "--witness",
            tmp_path / "zeros.json",
            "--auto",
        )
        assert code == 1
        assert report["verdict"] is False
        assert report["residuals"]["d2_splits"] == 1.0


class TestHugeEntries:
    """A finite entry whose products overflow reads as an infinite residual,
    with no numpy warning on the way."""

    def test_a_huge_witness_fails_the_check_with_exit_one(self, workdir, capsys):
        save_witness({"A": np.array([[1e300]])}, str(workdir / "huge.json"))
        code, report = run(capsys, "check", workdir / "blaschke.json",
                           "--variant", "vanishing-selfadjoint", "--witness", workdir / "huge.json")
        assert code == 1
        assert report["verdict"] is False
        assert report["residuals"]["gram_match"] == float("inf")

    @pytest.mark.parametrize("command", ["check", "factor"])
    def test_a_general_witness_near_the_float_max_fails_with_exit_one(self, workdir, capsys,
                                                                      command):
        # its coupling A1* B1 + X1* D1 overflows; RuntimeWarnings are errors here
        _, _, parent, w = conforming_pair("general", 1, 2, 2, 1, seed=5)
        save_colligation(parent, str(workdir / "parent.json"))
        save_witness({"A1": np.array([[1.7e308]]), "A2": w["A2"],
                      "X1": np.array([[1.7e308], [1.7e308]]), "Y2": w["Y2"]},
                     str(workdir / "huge.json"))
        out = ["-o", workdir / "f"] if command == "factor" else []
        code, report = run(capsys, command, workdir / "parent.json", "--variant", "general",
                           "--witness", workdir / "huge.json", *out)
        assert code == 1
        assert report["verdict"] is False
        assert report["residuals"]["injectivity"] == 1.0
        assert report["residuals"]["column_isometry"] == float("inf")
        assert not (workdir / "f.f1.json").exists()

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_a_huge_block_entry_is_refused_with_exit_two(self, workdir, capsys, command):
        col = blaschke_colligation()
        d = np.array(col.D)
        d[0, 0] = 1e300
        huge = workdir / "huge.json"
        save_colligation(Colligation(rep=col.rep, table=col.table, A=col.A, B=col.B, C=col.C, D=d),
                         str(huge))
        blaschke = workdir / "blaschke.json"
        argv = {
            "check": [huge, "--variant", "vanishing-selfadjoint", "--witness", workdir / "half.json"],
            "verify": [huge, blaschke, blaschke],
        }[command]
        code, report = run(capsys, command, *argv)
        assert code == 2
        assert report["error"] == "StructureError"
        assert report["detail"] == "block operator fails isometry by inf"


class TestFactor:
    def test_writes_two_loadable_factors(self, workdir, capsys):
        stem = workdir / "out"
        code, report = run(
            capsys,
            "factor",
            workdir / "blaschke.json",
            "--variant",
            "vanishing-selfadjoint",
            "--witness",
            workdir / "half.json",
            "-o",
            stem,
        )
        assert code == 0
        assert report["product_residual"] <= 1e-12
        first = load_colligation(str(stem) + ".f1.json")
        second = load_colligation(str(stem) + ".f2.json")
        npt.assert_allclose(first.matrix(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        r = np.sqrt(3.0) / 2.0
        npt.assert_allclose(second.matrix(), [[0.5, r], [r, -0.5]], atol=1e-12)

    def test_failing_witness_writes_nothing(self, workdir, capsys):
        stem = workdir / "bad"
        code, report = run(
            capsys,
            "factor",
            workdir / "blaschke.json",
            "--variant",
            "vanishing-selfadjoint",
            "--witness",
            workdir / "third.json",
            "-o",
            stem,
        )
        assert code == 1
        assert report["verdict"] is False
        assert not (workdir / "bad.f1.json").exists()

    def test_round_trip_through_verify(self, workdir, capsys):
        stem = workdir / "sq"
        code, _ = run(
            capsys,
            "factor",
            workdir / "squared.json",
            "--variant",
            "both-vanishing",
            "--auto",
            "-o",
            stem,
        )
        assert code == 0
        code, report = run(
            capsys,
            "verify",
            workdir / "squared.json",
            str(stem) + ".f1.json",
            str(stem) + ".f2.json",
        )
        assert code == 0
        assert report["residual"] <= 1e-12


class TestMultiplyVerifyRandom:
    def test_multiply_reproduces_the_square(self, workdir, capsys):
        out = workdir / "prod.json"
        code, report = run(
            capsys,
            "multiply",
            workdir / "blaschke.json",
            workdir / "blaschke.json",
            "-o",
            out,
        )
        assert code == 0
        assert report["split"] == [2, 2]
        col = load_colligation(str(out))
        stack = evaluate_all(col)
        assert stack[1][0, 0] == pytest.approx(0.16, abs=1e-12)

    def test_verify_flags_a_wrong_parent(self, workdir, capsys):
        code, report = run(
            capsys,
            "verify",
            workdir / "squared.json",
            workdir / "blaschke.json",
            workdir / "blaschke.json",
        )
        assert code == 1
        assert report["verdict"] is False
        assert report["residual"] > 1e-3

    def test_random_is_deterministic_per_seed(self, workdir, capsys):
        a = workdir / "r1.json"
        b = workdir / "r2.json"
        for out in (a, b):
            code, report = run(
                capsys,
                "random",
                "--table",
                workdir / "table.json",
                "--value-dim",
                "2",
                "--state-dims",
                "3,2",
                "--seed",
                "5",
                "-o",
                out,
            )
            assert code == 0
            assert report["isometry_defect"] < 1e-12
        assert a.read_bytes() == b.read_bytes()
        col = load_colligation(str(a))
        col.validate(1e-9)
        assert col.rep.split == (3, 2)

    def test_random_rejects_malformed_dims(self, workdir, capsys):
        code, report = run(
            capsys,
            "random",
            "--table",
            workdir / "table.json",
            "--value-dim",
            "1",
            "--state-dims",
            "3",
            "-o",
            workdir / "r.json",
        )
        assert code == 2
        assert report["error"] == "StructureError"


    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_random_refuses_a_negative_seed(self, workdir, capsys, seed):
        code, report = run(
            capsys,
            "random",
            "--table",
            workdir / "table.json",
            "--value-dim",
            "1",
            "--state-dims",
            "2,2",
            "--seed",
            seed,
            "-o",
            workdir / "r.json",
        )
        assert code == 2
        assert report["error"] == "StructureError"
        assert report["detail"] == f"seed must be a nonnegative integer, got {seed}"
        assert not (workdir / "r.json").exists()

class TestAdmissibleAndNormBound:
    def test_szego_kernel_is_admissible(self, workdir, capsys):
        zs = [0.0, 0.5, -1.0 / 3.0, 0.25j]
        save_kernel(szego_samples(zs), str(workdir / "szego.json"))
        code, report = run(
            capsys, "admissible", workdir / "szego.json", workdir / "table.json"
        )
        assert code == 0
        assert report["verdict"] is True

    def test_constant_kernel_is_not(self, workdir, capsys):
        zs = [0.0, 0.5, -1.0 / 3.0, 0.25j]
        pts = szego_samples(zs).points
        ones = HermitianKernel(pts, np.ones((4, 4, 1, 1), dtype=complex))
        save_kernel(ones, str(workdir / "ones.json"))
        code, report = run(
            capsys, "admissible", workdir / "ones.json", workdir / "table.json"
        )
        assert code == 1
        assert report["verdict"] is False

    def test_norm_bound_for_the_doubled_coordinate(self, workdir, capsys):
        zs = [0.0, 0.5]
        save_kernel(szego_samples(zs), str(workdir / "s2.json"))
        table = disc_table(zs)
        stack = np.array([[[2.0 * z]] for z in zs], dtype=complex)
        save_values(table.points, stack, str(workdir / "vals.json"))
        code, report = run(
            capsys,
            "norm-bound",
            workdir / "vals.json",
            "--kernels",
            workdir / "s2.json",
        )
        assert code == 0
        assert report["bound"] == pytest.approx(2.0, abs=1e-8)

    def test_boolean_block_dim_exits_two(self, workdir, capsys):
        save_kernel(szego_samples([0.0, 0.5, -1.0 / 3.0, 0.25j]), str(workdir / "szego.json"))
        doc = json.loads((workdir / "szego.json").read_text())
        doc["block_dim"] = True
        (workdir / "bad.json").write_text(json.dumps(doc))
        code, report = run(capsys, "admissible", workdir / "bad.json", workdir / "table.json")
        assert (code, report["error"]) == (2, "FormatError")

    def test_label_mismatch_is_rejected(self, workdir, capsys):
        save_kernel(szego_samples([0.0, 0.5]), str(workdir / "s2.json"))
        table = disc_table([0.0, 0.5, -1.0 / 3.0, 0.25j])
        stack = np.zeros((4, 1, 1), dtype=complex)
        save_values(table.points, stack, str(workdir / "v4.json"))
        code, report = run(
            capsys,
            "norm-bound",
            workdir / "v4.json",
            "--kernels",
            workdir / "s2.json",
        )
        assert code == 2
        assert report["error"] == "StructureError"


def _tolerance_argv(command, workdir):
    """A well-formed invocation of ``command`` on the workdir files."""
    zs = [0.0, 0.5, -1.0 / 3.0, 0.25j]
    save_kernel(szego_samples(zs), str(workdir / "szego.json"))
    save_values(disc_table(zs).points, np.zeros((4, 1, 1)), str(workdir / "zeros.json"))
    blaschke, squared = workdir / "blaschke.json", workdir / "squared.json"
    return {
        "eval": ["eval", blaschke],
        "check": ["check", blaschke, "--variant", "vanishing-selfadjoint", "--witness", workdir / "half.json"],
        "factor": ["factor", blaschke, "--variant", "vanishing-selfadjoint", "--witness", workdir / "half.json", "-o", workdir / "f"],
        "multiply": ["multiply", blaschke, squared, "-o", workdir / "m.json"],
        "verify": ["verify", blaschke, blaschke, squared],
        "random": ["random", "--table", workdir / "table.json", "--value-dim", "1", "--state-dims", "1,1", "-o", workdir / "r.json"],
        "admissible": ["admissible", workdir / "szego.json", workdir / "table.json"],
        "norm-bound": ["norm-bound", workdir / "zeros.json", "--kernels", workdir / "szego.json"],
    }[command]


COMMANDS = ["eval", "check", "factor", "multiply", "verify", "random", "admissible", "norm-bound"]


class TestTolerance:
    @pytest.mark.parametrize("atol", ["nan", "-1", "inf", "-inf"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_finite_or_negative_atol_exits_two(self, workdir, capsys, command, atol):
        code, report = run(capsys, *_tolerance_argv(command, workdir), f"--atol={atol}")
        assert code == 2
        assert report["error"] == "ToleranceError"
        assert set(report) == {"command", "argv", "atol", "inputs", "error", "detail"}

    def test_norm_bound_needs_a_positive_atol(self, workdir, capsys):
        code, report = run(capsys, *_tolerance_argv("norm-bound", workdir), "--atol", "0")
        assert code == 2
        assert report["error"] == "ToleranceError"

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "norm-bound"])
    def test_zero_atol_is_accepted_elsewhere(self, workdir, capsys, command):
        _, report = run(capsys, *_tolerance_argv(command, workdir), "--atol", "0")
        assert report.get("error") != "ToleranceError"

    def test_overflowing_isometry_defect_is_not_a_pass(self, workdir, capsys):
        col = blaschke_colligation()
        u = col.matrix()
        u[2, 2] = -1e300 + 1e300j
        huge = Colligation.from_matrix(u, col.value_dim, col.rep, col.table)
        save_colligation(huge, str(workdir / "huge.json"))
        with np.errstate(over="ignore", invalid="ignore"):
            code, report = run(capsys, "eval", workdir / "huge.json")
        assert (code, report["error"]) == (2, "StructureError")
        assert report["detail"] == "block operator fails isometry by inf"

    def test_nan_atol_does_not_evaluate_a_non_isometric_colligation(self, workdir, capsys):
        col = blaschke_colligation()
        bumped = Colligation.from_matrix(col.matrix() * 1.01, col.value_dim, col.rep, col.table)
        save_colligation(bumped, str(workdir / "bumped.json"))
        code, report = run(capsys, "eval", workdir / "bumped.json")
        assert (code, report["error"]) == (2, "StructureError")
        code, report = run(capsys, "eval", workdir / "bumped.json", "--atol", "nan")
        assert (code, report["error"]) == (2, "ToleranceError")
        assert "evaluations" not in report


class TestArgumentErrors:
    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_variant_exits_two(self, workdir):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "check",
                    str(workdir / "blaschke.json"),
                    "--variant",
                    "sideways",
                ]
            )
        assert info.value.code == 2
