"""Benchmark harness for colligate: one workload per process, timed from outside.

Run from the repository root:

    python3 bench/run.py --workload cli-pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, plus the tracing
overhead.  Pass and set-up times are scaled to a reference host speed by
the probe in speed.py; the raw wall times are kept in the record.  The
last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A full record, with the
environment, every pass time and the spans of the median traced pass, goes
to .bench_results/.

colligate is imported from src/ next to this directory, never from an
installed copy; without it the harness exits with an error and no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # fixed on every run, at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is first imported, by speed

import speed  # noqa: E402
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cli-pipeline", "certify-large", "factor-many-small")
SETUP_REPS = 5  # set-up processes per run; setup_s is their median
MIN_PASSES = 3
EPS = sys.float_info.epsilon


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_colligate():
    """Import colligate from the checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "colligate" / "__init__.py").is_file():
        raise SystemExit(f"error: no colligate sources in {src}")
    sys.path.insert(0, str(src))
    import colligate
    import colligate.cli  # noqa: F401  (the package does not import it)

    if src.resolve() not in Path(colligate.__file__).resolve().parents:
        raise SystemExit(f"error: colligate imported from {colligate.__file__}, not {src}")
    return colligate


@contextlib.contextmanager
def workdir(tag: str):
    path = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_times(workload: str, seed: int, size: str) -> dict:
    """SETUP_REPS fresh processes that import colligate and make the inputs.

    Each is timed from just before it is started until it has made its
    inputs: wall time, and the time scaled by the speed probe it runs
    (``--spawned-at`` passes the start; perf_counter is one system-wide
    monotonic clock on Linux).
    """
    wall, scaled = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(start),
                "--workload", workload, "--seed", str(seed), "--size", size]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        wall.append(time.perf_counter() - start)
        scaled.append(float(done.stdout.strip().splitlines()[-1]))
    return {"scaled": scaled, "wall": wall}


def setup_only(args) -> int:
    """Import colligate and make the inputs under the probe; print the scaled time."""
    with speed.SpeedProbe() as probe:
        cg = import_colligate()
        from workloads import WORKLOADS

        with workdir(args.workload + "-setup") as wd:
            WORKLOADS[args.workload].setup(cg, args.seed, wd, args.size)
        end = time.perf_counter()
    print(probe.scale([(args.setup_only, end)])[0])
    return 0


def accuracy_digits(ops) -> float:
    """Least headroom, in decimal digits, of any residual below its pinned tolerance."""
    digits = math.inf
    for op in ops:
        for value, tol in op.residuals:
            value = value if math.isfinite(value) else 1e300
            digits = min(digits, math.log10(tol / max(value, EPS)))
    return digits


def measure(cg, workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, then warm up and run passes for ``seconds``; return the run's record."""
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    tracer = tracing.Tracer() if trace else None
    # only running totals are kept, so memory does not grow with the pass count
    tally = {"attempted": 0, "failed": 0, "digits": math.inf, "failures": []}

    def one_pass(traced: bool, inputs, expected) -> tuple:
        if traced:
            tracer.install(cg)
        try:
            start = time.perf_counter()
            outcomes = wl.run_pass(cg, inputs, tracer.span if traced else contextlib.nullcontext)
            end = time.perf_counter()
        finally:
            if traced:
                tracer.uninstall()
        ops = wl.check(outcomes, expected)
        tally["attempted"] += len(ops)
        tally["digits"] = min(tally["digits"], accuracy_digits(ops))
        for op in ops:
            if not op.ok:
                tally["failed"] += 1
                if len(tally["failures"]) < 10:
                    tally["failures"].append(f"{op.name}: {op.detail}")
        return start, end

    with workdir(workload) as wd:
        start = time.perf_counter()
        inputs = wl.setup(cg, seed, wd, size)
        setup_inproc = time.perf_counter() - start
        expected = wl.expect(inputs)
        # the window holds the untimed warm-up pass; a round of passes that
        # would end past it is not started, so a run measures for ``seconds``
        deadline = time.perf_counter() + seconds
        plain, traced, summaries, spans = [], [], [], []
        with speed.SpeedProbe() as probe:
            start, end = one_pass(False, inputs, expected)
            warmup = end - start
            while True:
                round_start = time.perf_counter()
                plain.append(one_pass(False, inputs, expected))
                if trace:
                    traced.append(one_pass(True, inputs, expected))
                    pass_spans = tracer.take()
                    summaries.append(tracing.summarize(pass_spans))
                    spans.append(pass_spans)
                now = time.perf_counter()
                if now + (now - round_start) > deadline and len(plain) >= MIN_PASSES:
                    break
    scaled = probe.scale(plain)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "input_digest": inputs["digest"],
        "attempted": tally["attempted"], "failed": tally["failed"],
        "failures": tally["failures"],
        "setup_inproc_s": setup_inproc, "warmup_pass_s": warmup,
        "pass_s": _timing(scaled),
        "wall_pass_s": _timing([end - start for start, end in plain]),
        "speed": {"tick_s": speed.TICK, "samples": len(probe.samples),
                  "reference_s": speed.REFERENCE_S, "fast_state_s": probe.fast_state_s()},
        "accuracy_digits": tally["digits"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        layers = [tracing.layer_metrics(s) for s in summaries]
        counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
        q = stats.quartiles
        record.update({
            "traced_pass_s": _timing(probe.scale(traced)),
            "tracing_overhead_s": q(probe.scale(traced))[1] - q(scaled)[1],
            # times are medians; counts repeat, so median_low keeps them exact integers
            "layers": {k: q([m[k] for m in layers])[1] if k.endswith("_s")
                       else statistics.median_low([m[k] for m in layers]) for k in layers[0]},
            "inclusive_s": {g: q([s["inclusive_s"].get(g, 0.0) for s in summaries])[1]
                            for g in tracing.TIME_GROUPS},
            "counts_repeat": all(c == counts[0] for c in counts),
            # every pass's spans stay in memory; the median traced pass is written out
            "spans": spans[sorted(range(len(traced)), key=lambda i: traced[i][1] - traced[i][0])
                           [len(traced) // 2]],
        })
    return record


def _timing(samples) -> dict:
    q1, med, q3 = stats.quartiles(samples)
    return {"median": med, "q1": q1, "q3": q3, "count": len(samples),
            "tail": stats.tail(samples), "samples": samples}


def result_line(record: dict, bench: dict) -> dict:
    """The final output object: every end-to-end or every per-layer metric."""
    if record["trace"]:
        values = record["layers"]
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": stats.quartiles(record["setup_s"]["scaled"])[1],
            "pass_s": record["pass_s"]["median"],
            "accuracy_digits": record["accuracy_digits"],
            "ok_ratio": 1.0 - record["failed"] / record["attempted"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
        wanted = bench["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _print_summary(record: dict, line: dict, bench: dict) -> None:
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={line['attempted']} failed={line['failed']}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} ({better[name]} is better)")
    t = record["pass_s"]
    print(f"#   pass_s quartiles {t['q1']:.4g} / {t['median']:.4g} / {t['q3']:.4g} s "
          f"over {t['count']} passes, tail {t['tail']}")
    if record["trace"]:
        print(f"#   tracing overhead {record['tracing_overhead_s']:.4g} s per pass; "
              f"counts repeat: {record['counts_repeat']}")
    for failure in record["failures"]:
        print(f"#   FAILED {failure}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"# {name}: exit {done.returncode}\n{done.stderr.strip()}")
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the benchmark's own tests")
    parser.add_argument("--setup-only", type=float, metavar="SPAWNED_AT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bench = spec()
    if args.setup_only is not None:
        return setup_only(args)
    cg = import_colligate()
    if args.workload == "all":
        return run_all(args)

    setup = None if args.trace else setup_times(args.workload, args.seed, args.size)
    record = measure(cg, args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    record["setup_s"] = setup
    record["environment"] = environment(args.seed)
    line = result_line(record, bench)
    record["metrics"] = line["metrics"]
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(record.pop("spans"), fh)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_summary(record, line, bench)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
