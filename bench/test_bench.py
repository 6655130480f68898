"""Smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import compare
import run
import speed
import tracing

SPEC = run.spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def cg():
    return run.import_colligate()


def _line(record):
    record["setup_s"] = None if record["trace"] else {"scaled": [0.1, 0.2, 0.3],
                                                      "wall": [0.2, 0.4, 0.6]}
    return run.result_line(record, SPEC)


def _measure(cg, workload, seed=5, trace=False):
    return run.measure(cg, workload, seed, 0.01, trace, size="toy")


def test_spec_names_the_workloads_and_metrics():
    assert WORKLOADS == ["cli-pipeline", "certify-large", "factor-many-small"]
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "pass_s", "accuracy_digits", "ok_ratio", "peak_rss_mb"]
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert layer_names == set(tracing.layer_metrics(tracing.summarize([])))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(cg, workload, trace):
    line = _line(_measure(cg, workload, trace=trace))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for v in line["metrics"].values():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_set(cg, workload):
    one, two = _measure(cg, workload, seed=1), _measure(cg, workload, seed=2)
    assert one["input_digest"] != two["input_digest"]
    assert _line(one)["metrics"].keys() == _line(two)["metrics"].keys()
    assert _measure(cg, workload, seed=1)["input_digest"] == one["input_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_tracer_uninstalls(cg, workload):
    original = cg.evaluate
    first, second = (_measure(cg, workload, trace=True) for _ in range(2))
    assert first["counts_repeat"] and second["counts_repeat"]
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert first["spans"] and all(len(span) == 6 for span in first["spans"])
    assert cg.evaluate is original and cg.realization.evaluate is original
    assert cg.Colligation.validate.__qualname__ == "Colligation.validate"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_evaluate_result_raises_fail_ratio(cg, workload, monkeypatch):
    original = cg.realization.evaluate

    def perturbed(col, i):
        return original(col, i) + 1e-3

    for mod in (cg, cg.realization, cg.factorization, cg.cli):
        monkeypatch.setattr(mod, "evaluate", perturbed)
    line = _line(_measure(cg, workload))
    assert line["failed"] > 0 and not line["correct"]
    assert line["metrics"]["ok_ratio"]["value"] < 1.0


@pytest.mark.parametrize("workload,name,op", [("cli-pipeline", "evaluate", "eval"),
                                              ("certify-large", "evaluate_all", "evaluate_all")])
def test_points_in_wrong_order_raise_fail_ratio(cg, workload, name, op, monkeypatch):
    """A fault made the same way on every call must still show: the
    expected values do not come from the library's evaluation."""
    original = getattr(cg.realization, name)
    if name == "evaluate":
        def permuted(col, i):
            return original(col, col.table.n - 1 - i)
    else:
        def permuted(col):
            return original(col)[::-1]

    for mod in (cg, cg.realization, cg.factorization, cg.cli):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, permuted)
    record = _measure(cg, workload)
    assert any(f.startswith(op + ":") for f in record["failures"])
    assert not _line(record)["correct"]


def test_swapped_factors_fail_even_when_verify_misses_them(cg, monkeypatch):
    """Round trips are checked against the product of the factors they
    started from, not only against verify_factorization's own residual."""
    extract = cg.extract_general

    def swapped(*args, **kwargs):
        f1, f2 = extract(*args, **kwargs)
        return f2, f1

    monkeypatch.setattr(cg, "extract_general", swapped)
    monkeypatch.setattr(cg, "verify_factorization", lambda parent, f1, f2: 0.0)
    record = _measure(cg, "factor-many-small")
    assert any(f.startswith("round_trip:") for f in record["failures"])


def test_command_line_run_prints_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "factor-many-small", "--seed", "3",
         "--seconds", "0.01", "--trace", "0", "--size", "toy"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for m in SPEC["end_to_end"]:
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']} " in line
                   for line in lines)
    record = json.loads(
        (run.ROOT / ".bench_results" / "factor-many-small-seed3-trace0.json").read_text())
    env = record["environment"]
    assert env["blas_threads"] == run.BLAS_THREADS <= env["nproc"]
    assert env["seed"] == 3 and env["numpy"] and env["python"]
    assert len(record["setup_s"]["scaled"]) == len(record["setup_s"]["wall"]) == run.SETUP_REPS


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_speed_probe_scales_by_mean_speed_inside_each_pass():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # ticks at 1.0 and 1.5 run at half the reference speed, the one at 3.0 at full speed
    probe.samples = [(0.5, ref), (1.0, 2 * ref), (1.5, 2 * ref), (3.0, ref)]
    scaled = probe.scale([(0.9, 2.0), (2.5, 3.5), (4.0, 4.5)])
    assert scaled[0] == pytest.approx((1.1 - 4 * ref) * 0.5)
    assert scaled[1] == pytest.approx((1.0 - ref) * 1.0)
    # no tick inside: the run's mean speed, (1 + 0.5 + 0.5 + 1) / 4
    assert scaled[2] == pytest.approx(0.5 * 0.75)


def test_speed_probe_samples_and_restores_the_alarm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 5 * speed.TICK
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_accuracy_digits_is_headroom_below_tolerance():
    from workloads import Op

    ops = [Op("a", True, [(1e-14, 1e-10), (0.0, 1e-9)]), Op("b", True, [(1e-12, 1e-8)])]
    assert run.accuracy_digits(ops) == pytest.approx(4.0)


def test_compare_verdicts():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    faster = [v * 0.8 for v in parent]
    assert compare.judge(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.judge(parent[:5], faster[:5], "lower", 0.1)["verdict"] == "better"
    assert compare.judge(parent, [v * 1.3 for v in parent], "lower", 0.1)["verdict"] == "regressed"
    assert compare.judge(parent, [v * 1.05 for v in parent], "lower", 0.1)["verdict"] == "ok"
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    assert compare.judge(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.judge([5.0] * 10, [4.0] * 10, "higher", 0.1)["verdict"] == "regressed"
    # any extra failed operation is a regression, however small against the bound
    assert compare.judge(parent, faster, "lower", 0.1, 0, 1)["verdict"] == "regressed"
    assert compare.judge([1.0] * 10, [0.9999] * 10, "higher", 0.01, 0, 3)["verdict"] == "regressed"
    assert compare.judge(parent, faster, "lower", 0.1, 2, 2)["verdict"] == "gain"
    # an exact-per-seed metric regresses when one pair drops past the margin,
    # even though the medians agree within the relative bound
    digits = [5.0, 5.2, 4.9, 5.1, 5.0, 5.3, 4.8, 5.0, 5.1, 5.2]
    one_lost = digits[:3] + [digits[3] - 0.8] + digits[4:]
    assert compare.judge(digits, one_lost, "higher", 0.25)["verdict"] == "ok"
    assert compare.judge(digits, one_lost, "higher", 0.25,
                         paired_margin=0.5)["verdict"] == "regressed"
    assert compare.judge(digits, [d - 0.1 for d in digits], "higher", 0.25,
                         paired_margin=0.5)["verdict"] == "ok"
