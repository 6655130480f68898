"""The three benchmark workloads: inputs from a seed, one pass, its oracles.

Every workload is a closed loop: one caller runs passes back to back, and
a pass is a fixed sequence of operations on inputs generated once from the
workload seed.  The library only ever sees those generated inputs.

A workload has four steps, split so the harness can time each one apart:

* ``setup(cg, seed, workdir, size)`` makes the inputs (and writes them, for
  the file-based workload) and returns them with a digest of their content;
* ``expect(inputs)`` precomputes, with numpy alone, what the oracles compare
  against;
* ``run_pass(cg, inputs, span)`` runs the operations and returns their raw
  outcomes without judging them, so the checks stay outside the timed pass;
* ``check(outcomes, expected)`` turns outcomes into ``Op`` verdicts.

``cg`` is the imported ``colligate`` package.  Passes look every library
function up on it at call time, so a tracer or a test that rebinds a name
sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Pinned tolerances: the acceptance suite's and the CLI default atol.
GRAMIAN_TOL = 1e-10
ROUND_TRIP_TOL = 1e-8
CLI_TOL = 1e-9
CHECK_TOL = 1e-9

# A perturbation far above every tolerance, used to build negatives.
BUMP = 0.1


@dataclass
class Op:
    """Verdict on one operation: ok or not, and its residuals as (value, tol)."""

    name: str
    ok: bool
    residuals: list = field(default_factory=list)
    detail: str = ""


def _failed(name, outcome):
    """Op for an outcome that raised, or None when it returned normally."""
    if isinstance(outcome, BaseException):
        return Op(name, False, detail=f"raised {type(outcome).__name__}: {outcome}")
    return None


def _residual_op(name, value, tol):
    return Op(name, bool(value <= tol), [(float(value), tol)],
              "" if value <= tol else f"residual {value:.3e} above {tol:.0e}")


def _attempt(outcomes, name, fn, *args, **kwargs):
    """Run one operation, recording its return value or the exception."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises is a failed operation
        result = exc
    outcomes.append((name, result))
    return result


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return "sha256:" + h.hexdigest()


def _random_table(cg, rng, m: int, n: int, radius: float = 0.85):
    """m test functions on n points: base column zero, the rest in the disc."""
    values = np.zeros((m, n), dtype=np.complex128)
    mags = rng.uniform(0.1, radius, size=(m, n - 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, n - 1))
    values[:, 1:] = mags * np.exp(1j * phases)
    return cg.TestFunctionTable(cg.PointSet(tuple(f"x{k}" for k in range(n))), values)


def _disc_points(rng, n: int, radius: float = 0.85) -> list:
    mags = rng.uniform(0.1, radius, size=n - 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n - 1)
    return [0.0] + list(mags * np.exp(1j * phases))


def _seeds(rng, count: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def reference_values(col) -> np.ndarray:
    """Transfer function on every point, shape (n, d, d), from the blocks alone.

    A + B L (I - D L)^{-1} C with L = sum_j g_j P_j built from the table's
    columns and the representation's projections.  Only numpy is used, so a
    fault in the library's evaluation, for instance points in the wrong
    order, cannot hide in the expected values.  Points go in chunks of about
    1 MB of stacked state matrices, so the oracle does not raise the process's
    peak memory, which is a metric of the library.
    """
    projections = np.stack(col.rep.projections)
    n, state = col.table.n, col.D.shape[0]
    step = max(1, (1 << 20) // (16 * state * state))
    values = []
    for start in range(0, n, step):
        lam = np.einsum("jn,jab->nab", col.table.values[:, start:start + step], projections)
        x = np.linalg.solve(np.eye(state) - col.D @ lam, col.C)
        values.append(col.A + col.B @ (lam @ x))
    return np.concatenate(values)


def _pointwise_product(v1, v2) -> np.ndarray:
    return np.einsum("nij,njk->nik", v1, v2)


def _round_robin(m: int, size: int) -> list:
    """Block sizes of the coordinate representation the CLI's `random` builds."""
    return [size // m + (1 if j < size % m else 0) for j in range(m)]


# ---------------------------------------------------------------- cli-pipeline


class CliPipeline:
    """random x2 -> multiply -> eval --all -> check -> factor -> verify, in-process.

    Chosen because file decode and encode plus table validation dominate it;
    it has no Gramian and no norm bound, so gains there must leave it flat.
    """

    SIZES = {
        "full": {"n": 256, "m": 2, "d": 4, "dims": (32, 32)},
        "toy": {"n": 12, "m": 2, "d": 2, "dims": (2, 2)},
    }

    @staticmethod
    def setup(cg, seed, workdir, size):
        p = CliPipeline.SIZES[size]
        rng = np.random.default_rng(seed)
        table = _random_table(cg, rng, p["m"], p["n"])
        seeds = _seeds(rng, 2)
        paths = {k: os.path.join(workdir, f"{k}.json")
                 for k in ("table", "witness", "f1", "f2", "prod")}
        paths["stem"] = os.path.join(workdir, "out")
        # The factors `random` will draw, built here only to read off the
        # general-variant witness pair (A1, A2) = the factors' base blocks.
        n1, n2 = p["dims"]
        factors = []
        for s in seeds:
            rep = cg.direct_sum(
                cg.coordinate_representation(_round_robin(p["m"], n1)),
                cg.coordinate_representation(_round_robin(p["m"], n2)),
            )
            factors.append(cg.random_colligation(p["d"], rep, table, seed=s))
        cg.save_table(table, paths["table"])
        cg.save_witness({"A1": factors[0].A, "A2": factors[1].A}, paths["witness"])
        with open(paths["table"], "rb") as fh, open(paths["witness"], "rb") as gh:
            digest = "sha256:" + hashlib.sha256(fh.read() + gh.read()).hexdigest()
        return {"params": p, "seeds": seeds, "paths": paths, "factors": factors,
                "digest": digest}

    @staticmethod
    def expect(inputs):
        f1, f2 = inputs["factors"]
        return {"values": _pointwise_product(reference_values(f1), reference_values(f2)),
                "labels": list(f1.table.points.labels), "params": inputs["params"]}

    @staticmethod
    def argvs(inputs):
        p, path, (s1, s2) = inputs["params"], inputs["paths"], inputs["seeds"]
        dims = ",".join(str(k) for k in p["dims"])
        witness = ["--witness", path["witness"], "--auto"]
        return [
            ["random", "--table", path["table"], "--value-dim", str(p["d"]),
             "--state-dims", dims, "--seed", str(s1), "-o", path["f1"]],
            ["random", "--table", path["table"], "--value-dim", str(p["d"]),
             "--state-dims", dims, "--seed", str(s2), "-o", path["f2"]],
            ["multiply", path["f1"], path["f2"], "-o", path["prod"]],
            ["eval", path["prod"], "--all"],
            ["check", path["prod"], "--variant", "general"] + witness,
            ["factor", path["prod"], "--variant", "general"] + witness + ["-o", path["stem"]],
            ["verify", path["prod"], path["stem"] + ".f1.json", path["stem"] + ".f2.json"],
        ]

    @staticmethod
    def run_pass(cg, inputs, span):
        outcomes = []
        for argv in CliPipeline.argvs(inputs):
            out = io.StringIO()
            try:
                with span("cli." + argv[0]), contextlib.redirect_stdout(out):
                    code = cg.cli.main(argv)
            except (Exception, SystemExit) as exc:  # argparse exits on bad argv
                outcomes.append((argv[0], exc))
                continue
            outcomes.append((argv[0], (code, out.getvalue())))
        return outcomes

    @staticmethod
    def check(outcomes, expected):
        p = expected["params"]
        n1, n2 = p["dims"]
        ops = []
        for name, outcome in outcomes:
            op = _failed(name, outcome)
            if op is None:
                op = CliPipeline._check_report(name, *outcome, p, n1 + n2, expected)
            ops.append(op)
        return ops

    @staticmethod
    def _check_report(name, code, text, p, factor_dim, expected):
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return Op(name, False, detail=f"report is not JSON: {exc}")
        if code != 0 or "error" in report:
            return Op(name, False, detail=f"exit {code}: {report.get('detail', '')}")
        try:
            if name == "random":
                ok = (report["value_dim"] == p["d"] and report["state_dim"] == factor_dim
                      and report["split"] == list(p["dims"]))
                residuals = [(report["isometry_defect"], CLI_TOL)]
            elif name == "multiply":
                ok = (report["state_dim"] == 2 * factor_dim
                      and report["split"] == [factor_dim, factor_dim])
                residuals = []
            elif name == "eval":
                evaluations = report["evaluations"]
                values = np.array([[[complex(*z) for z in row] for row in e["value"]]
                                   for e in evaluations])
                ok = (values.shape == expected["values"].shape
                      and [e["index"] for e in evaluations] == list(range(len(evaluations)))
                      and [e["label"] for e in evaluations] == expected["labels"])
                gap = float(np.max(np.abs(values - expected["values"]))) if ok else np.inf
                residuals = [(gap, CLI_TOL)]
            elif name == "check":
                ok = report["verdict"] is True and report["witness_source"] == "auto"
                residuals = [(v, CLI_TOL) for v in report["residuals"].values()]
            elif name == "factor":
                ok = report["verdict"] is True and all(
                    os.path.isfile(f) for f in report["outputs"].values())
                residuals = [(report["product_residual"], CLI_TOL)]
            else:
                ok = report["verdict"] is True
                residuals = [(report["residual"], CLI_TOL)]
        except (KeyError, TypeError, ValueError) as exc:
            return Op(name, False, detail=f"malformed report: {exc!r}")
        ok = ok and all(v <= tol for v, tol in residuals)
        return Op(name, bool(ok), residuals, "" if ok else "unexpected report content")


# --------------------------------------------------------------- certify-large


class CertifyLarge:
    """Gramian identity, evaluation and product check at N=64, plus a norm bound.

    Chosen because the batched-resolvent and norm-bound changes act here,
    in memory, with file I/O bypassed.
    """

    SIZES = {
        "full": {"n": 128, "m": 3, "d": 4, "dims": (32, 32), "disc_n": 32,
                 "disc_d": 2, "disc_state": 6},
        "toy": {"n": 6, "m": 2, "d": 2, "dims": (2, 2), "disc_n": 4,
                "disc_d": 1, "disc_state": 2},
    }

    @staticmethod
    def setup(cg, seed, workdir, size):
        p = CertifyLarge.SIZES[size]
        rng = np.random.default_rng(seed)
        s = _seeds(rng, 6)
        table = _random_table(cg, rng, p["m"], p["n"])
        f1 = cg.random_colligation(
            p["d"], cg.random_representation(p["m"], p["dims"][0], s[0]), table, s[1])
        f2 = cg.random_colligation(
            p["d"], cg.random_representation(p["m"], p["dims"][1], s[2]), table, s[3])
        zs = _disc_points(rng, p["disc_n"])
        disc = cg.disc_table(zs)
        small = cg.random_colligation(
            p["disc_d"], cg.random_representation(1, p["disc_state"], s[4]), disc, s[5])
        szego = cg.szego_samples(zs)
        pair = [0.0, 0.5]
        return {
            "f1": f1, "f2": f2, "parent": cg.product(f1, f2),
            "disc": disc, "values": reference_values(small),
            "kernels": [szego, cg.szego_samples(zs, power=2)],
            "ones": cg.HermitianKernel(szego.points, np.ones(szego.blocks.shape, complex)),
            "doubled": [np.array([[2.0 * z]]) for z in pair],
            "pair_kernel": cg.szego_samples(pair),
            "digest": _digest(table.values, f1.matrix(), f2.matrix(), np.array(zs),
                              small.matrix()),
        }

    @staticmethod
    def expect(inputs):
        return {
            "values": _pointwise_product(reference_values(inputs["f1"]),
                                         reference_values(inputs["f2"])),
            "norm_floor": max(float(np.linalg.norm(v, ord=2)) for v in inputs["values"]),
        }

    @staticmethod
    def run_pass(cg, inputs, span):
        o = []
        parent = inputs["parent"]
        _attempt(o, "gramian", cg.gramian_identity_check, parent)
        _attempt(o, "evaluate_all", cg.evaluate_all, parent)
        _attempt(o, "verify", cg.verify_factorization, parent, inputs["f1"], inputs["f2"])
        _attempt(o, "norm_bound", cg.agler_norm_lower_bound, inputs["values"], inputs["kernels"])
        for k, kernel in enumerate(inputs["kernels"]):
            _attempt(o, f"admissible_{k + 1}", cg.is_admissible, kernel, inputs["disc"])
        _attempt(o, "inadmissible", cg.is_admissible, inputs["ones"], inputs["disc"])
        _attempt(o, "bound_oracle", cg.agler_norm_lower_bound, inputs["doubled"],
                 [inputs["pair_kernel"]])
        return o

    @staticmethod
    def check(outcomes, expected):
        ops = []
        for name, r in outcomes:
            op = _failed(name, r)
            if op is not None:
                ops.append(op)
            elif name == "gramian":
                ops.append(_residual_op(name, r, GRAMIAN_TOL))
            elif name == "evaluate_all":
                if r.shape != expected["values"].shape:
                    ops.append(Op(name, False, detail=f"shape {r.shape}"))
                else:
                    ops.append(_residual_op(
                        name, float(np.max(np.abs(r - expected["values"]))), ROUND_TRIP_TOL))
            elif name == "verify":
                ops.append(_residual_op(name, r, ROUND_TRIP_TOL))
            elif name == "norm_bound":
                # a contractive realization: the bound sits between the largest
                # sampled value norm and 1
                ok = expected["norm_floor"] - ROUND_TRIP_TOL <= r <= 1.0 + ROUND_TRIP_TOL
                ops.append(Op(name, ok, detail="" if ok else f"bound {r!r}"))
            elif name == "bound_oracle":
                ok = abs(r - 2.0) <= ROUND_TRIP_TOL
                ops.append(Op(name, ok, detail="" if ok else f"bound of 2z is {r!r}"))
            else:
                ok = bool(r) == (name != "inadmissible")
                ops.append(Op(name, ok, detail="" if ok else f"verdict {r!r}"))
        return ops


# ----------------------------------------------------------- factor-many-small


class FactorManySmall:
    """300 small conforming round trips, 100 per variant, each with a negative.

    Chosen because it runs the same realization, factorization and linalg
    code at the small-size extreme, where per-call overhead dominates: a
    batching change tuned for N=128 that adds fixed cost shows here.  The
    perturbed negatives exercise the reject path.
    """

    SIZES = {"full": {"per_variant": 100}, "toy": {"per_variant": 3}}

    @staticmethod
    def setup(cg, seed, workdir, size):
        count = FactorManySmall.SIZES[size]["per_variant"]
        rng = np.random.default_rng(seed)
        cases = []
        for variant in cg.VARIANTS:
            for k in range(count):
                # the shape grid of the acceptance round-trip criterion
                d = 1 + k % 3
                m = 1 + (k // 3) % 3
                n1 = 1 + (k // 9) % 4
                n2 = 1 + (k // 7) % 4
                if variant != "general":
                    n1, n2 = max(n1, d), max(n2, d)
                cases.append(FactorManySmall._case(cg, rng, variant, d, m, n1, n2))
        return {"cases": cases,
                "digest": _digest(*(c["first"].matrix() for c in cases),
                                  *(c["second"].matrix() for c in cases))}

    @staticmethod
    def _case(cg, rng, variant, d, m, n1, n2):
        s = _seeds(rng, 4)
        table = _random_table(cg, rng, m, 4)
        rep1 = cg.random_representation(m, n1, s[0])
        rep2 = cg.random_representation(m, n2, s[1])
        if variant == "vanishing-selfadjoint":
            first = cg.random_vanishing_colligation(d, rep1, table, s[2])
            second = cg.random_selfadjoint_base_colligation(d, rep2, table, s[3])
            witness = {"A": second.A}
        elif variant == "both-vanishing":
            first = cg.random_vanishing_colligation(d, rep1, table, s[2])
            second = cg.random_vanishing_colligation(d, rep2, table, s[3])
            witness = None
        else:
            first = cg.random_colligation(d, rep1, table, s[2])
            second = cg.random_colligation(d, rep2, table, s[3])
            witness = {"A1": first.A, "A2": second.A}
            # the least-squares completion needs invertible base blocks;
            # otherwise the full witness is given
            if min(np.linalg.svd(w, compute_uv=False)[-1] for w in witness.values()) < 1e-3:
                witness.update(X1=first.C, Y2=second.B)
        return {"variant": variant, "first": first, "second": second, "witness": witness}

    @staticmethod
    def expect(inputs):
        # what every round trip must reproduce: the product of the two
        # factors it started from, pointwise
        return {"products": [_pointwise_product(reference_values(c["first"]),
                                                reference_values(c["second"]))
                             for c in inputs["cases"]]}

    @staticmethod
    def run_pass(cg, inputs, span):
        outcomes = []
        for case in inputs["cases"]:
            trip = _attempt(outcomes, "round_trip", FactorManySmall._round_trip, cg, case)
            if isinstance(trip, BaseException):
                outcomes.append(("negative", trip))
                continue
            # bump the witness that every variant's conditions pin down
            args = list(trip["args"])
            k = 1 if case["variant"] == "both-vanishing" else 0
            args[k] = args[k] + BUMP * np.eye(*args[k].shape)
            check = getattr(cg, "check_" + case["variant"].replace("-", "_"))
            _attempt(outcomes, "negative", check, trip["split"], *args)
        return outcomes

    @staticmethod
    def _round_trip(cg, case):
        variant, w = case["variant"], case["witness"]
        parent = cg.product(case["first"], case["second"])
        s = cg.split_blocks(parent)
        if variant == "vanishing-selfadjoint":
            args = (w["A"],)
            cert = cg.check_vanishing_selfadjoint(s, *args)
            f1, f2 = cg.extract_vanishing_selfadjoint(s, *args)
        elif variant == "both-vanishing":
            args = cg.find_LY_witness(s)
            cert = cg.check_both_vanishing(s, *args)
            f1, f2 = cg.extract_both_vanishing(s, *args)
        else:
            if "X1" in w:
                x1, y2 = w["X1"], w["Y2"]
            else:
                x1, y2 = cg.solve_general_witnesses(s, w["A1"], w["A2"])
            args = (w["A1"], w["A2"], x1, y2)
            cert = cg.check_general(s, *args)
            f1, f2 = cg.extract_general(s, *args)
        isometric = (cg.is_isometry(f1.matrix(), atol=ROUND_TRIP_TOL)
                     and cg.is_isometry(f2.matrix(), atol=ROUND_TRIP_TOL))
        residual = cg.verify_factorization(parent, f1, f2)
        return {"split": s, "args": args, "cert": cert, "factors": (f1, f2),
                "isometric": isometric, "residual": residual}

    @staticmethod
    def check(outcomes, expected):
        ops = []
        # outcomes come in (round_trip, negative) pairs, one pair per case
        for k, (name, r) in enumerate(outcomes):
            op = _failed(name, r)
            if op is not None:
                ops.append(op)
            elif name == "negative":
                ops.append(Op(name, not r.verdict,
                              detail="" if not r.verdict else "perturbed witness accepted"))
            else:
                residuals = [(v, CHECK_TOL) for v in r["cert"].residuals.values()]
                for f in r["factors"]:
                    u = f.matrix()
                    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))))
                    residuals.append((defect, ROUND_TRIP_TOL))
                residuals.append((r["residual"], ROUND_TRIP_TOL))
                f1, f2 = r["factors"]
                got = _pointwise_product(reference_values(f1), reference_values(f2))
                residuals.append((float(np.max(np.abs(got - expected["products"][k // 2]))),
                                  ROUND_TRIP_TOL))
                ok = (r["cert"].verdict and r["isometric"]
                      and all(v <= tol for v, tol in residuals))
                ops.append(Op(name, bool(ok), residuals, "" if ok else "round trip fails"))
        return ops


WORKLOADS = {
    "cli-pipeline": CliPipeline,
    "certify-large": CertifyLarge,
    "factor-many-small": FactorManySmall,
}
