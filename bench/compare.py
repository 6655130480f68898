"""Compare a parent and a change checkout with the benchmark, in alternating pairs.

    python3 bench/compare.py --parent ../parent --change . --pairs 10

Each pair runs ``bench/run.py --trace 0`` once in each checkout on the same
seed, alternating which side goes first.  Every run measures for the
benchmark's ``run_seconds``, the length its bounds were sized at, and pair
``i`` uses seed ``FIRST_SEED + i``.  Both checkouts must carry the same
benchmark (BENCHMARK.json and every file under its paths).

For every workload and end-to-end metric it reports each side's median and
quartiles and one verdict:

* ``regressed``: more operations failed on the change than on the parent,
  whatever the metric; or the change's median is worse than the parent's by
  more than the bound; or, for a metric that is exact per seed
  (``accuracy_digits``), some pair dropped by more than its absolute margin;
* ``gain``: the change wins at least 9 in 10 of the pairs (ties count for
  neither), at least 10 pairs ran, and the medians differ by more than the
  parent's interquartile range;
* ``better``: every change run reads better than every parent run;
* ``unresolved``: the run-to-run spread (interquartile range over median,
  either side) is wider than the metric's bound;
* ``ok``: none of these, so no regression beyond the bound.

The exit code is 1 when any pairing regressed, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import stats

MIN_PAIRS = 10
WIN_SHARE = 0.9
FIRST_SEED = 1
# Metrics that are exact for a given code and seed, with the largest drop
# one pair may show: 0.5 digits is a worst residual about 3 times larger.
PAIRED_MARGIN = {"accuracy_digits": 0.5}


def benchmark_digest(checkout: Path) -> str:
    """Digest of BENCHMARK.json and every file under its paths."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    h = hashlib.sha256((checkout / "BENCHMARK.json").read_bytes())
    for rel in spec["paths"]:
        for f in sorted((checkout / rel).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(checkout)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def judge(parent: list, change: list, better: str, bound: float,
          parent_failed: int = 0, change_failed: int = 0, paired_margin: float | None = None) -> dict:
    """Verdict for one metric on one workload from paired samples (same order)."""
    sign = 1.0 if better == "higher" else -1.0  # sign * value grows when it improves
    p1, pmed, p3 = stats.quartiles(parent)
    c1, cmed, c3 = stats.quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    pairs = min(len(parent), len(change))
    worse_by = -sign * (cmed - pmed) / abs(pmed) if pmed else (0.0 if cmed == pmed else math.inf)
    widest = max(stats.spread(parent), stats.spread(change))
    worst_pair = max(-sign * (c - p) for p, c in zip(parent, change))
    gain = (pairs >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * pairs)
            and sign * (cmed - pmed) > (p3 - p1))
    if change_failed > parent_failed or (paired_margin is not None
                                         and worst_pair > paired_margin):
        verdict = "regressed"
    elif gain:
        verdict = "gain"
    elif min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "better"
    elif widest > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {"verdict": verdict, "pairs": pairs, "wins": wins, "ties": ties,
            "parent": {"q1": p1, "median": pmed, "q3": p3},
            "change": {"q1": c1, "median": cmed, "q3": c3},
            "worse_by": worse_by, "worst_pair": worst_pair, "spread": widest, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    if benchmark_digest(parent) != benchmark_digest(change):
        print("error: the two checkouts carry different benchmarks", file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    report = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                where = parent if side == "parent" else change
                runs[side].append(run_once(where, workload, FIRST_SEED + i))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        row = {"failed": failed}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                      for side, rs in runs.items()}
            row[m["name"]] = judge(values["parent"], values["change"], m["better"],
                                   m["bound"], failed["parent"], failed["change"],
                                   PAIRED_MARGIN.get(m["name"]))
        report[workload] = row
        cells = "  ".join(f"{m['name']}={row[m['name']]['verdict']}"
                          f"({row[m['name']]['parent']['median']:.4g}"
                          f"->{row[m['name']]['change']['median']:.4g} {m['unit']})"
                          for m in spec["end_to_end"])
        print(f"{workload}: failed {failed['parent']}->{failed['change']}  {cells}", flush=True)
    print(json.dumps(report))
    regressed = any(v["verdict"] == "regressed" for row in report.values()
                    for k, v in row.items() if k != "failed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
