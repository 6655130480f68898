"""Span tracing of the colligate layers, applied from outside the library.

``Tracer.install(cg)`` replaces each public entry point listed in ``TRACED``
with a span-recording wrapper, in every colligate module namespace that
bound the original function object (so ``cli.load_colligation`` and
``factorization.evaluate`` are covered), plus ``Colligation.validate``.
``uninstall`` puts the originals back.  Hot helpers such as ``as_matrix``
and ``max_abs`` are left alone.

A span is ``(name, group, start, end, parent, nbytes)``; spans stay in memory and
are written out by the harness when the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

_READS = ("load_colligation", "load_table", "load_kernel", "load_witness",
          "load_values", "digest_file")
_WRITES = ("save_colligation", "save_table", "save_kernel", "save_witness", "save_values")

# Every traced function, as (module, name), and the metric group its time joins.
TRACED = {
    **{("fileio", f): "fileio.decode" for f in _READS[:-1] + ("decode_matrix",)},
    **{("fileio", f): "fileio.encode" for f in _WRITES + ("encode_matrix", "dumps_canonical")},
    ("fileio", "digest_file"): "fileio.digest",
    ("testfn", "validate_test_family"): "testfn.validate_test_family",
    # the witness checks are the norm bound's inner step, timed with it
    ("testfn", "agler_norm_lower_bound"): "testfn.agler_norm_lower_bound",
    ("testfn", "schur_agler_witness_check"): "testfn.agler_norm_lower_bound",
    ("testfn", "is_admissible"): "testfn.is_admissible",
    ("linalg", "is_psd"): "linalg.is_psd",
    ("linalg", "is_isometry"): "linalg.is_isometry",
    ("linalg", "isometric_factor"): "linalg.isometric_factor",
    ("realization", "gramian_identity_check"): "realization.gramian_identity_check",
    ("realization", "evaluate"): "realization.evaluate",
    ("realization", "evaluate_all"): "realization.evaluate_all",
    ("realization", "rep_apply"): "realization.rep_apply",
    ("realization", "product"): "realization.product",
    ("factorization", "split_blocks"): "factorization.split_blocks",
    **{("factorization", f"check_{v}"): "factorization.check"
       for v in ("vanishing_selfadjoint", "both_vanishing", "general")},
    **{("factorization", f"extract_{v}"): "factorization.extract"
       for v in ("vanishing_selfadjoint", "both_vanishing", "general")},
    ("factorization", "find_LY_witness"): "factorization.witness_search",
    ("factorization", "solve_general_witnesses"): "factorization.witness_search",
    ("factorization", "verify_factorization"): "factorization.verify_factorization",
}
CLI_GROUPS = tuple(f"cli.{c}" for c in ("random", "multiply", "eval", "check", "factor", "verify"))

# Per-layer metrics: self-time groups, call counts and byte counts.
TIME_GROUPS = CLI_GROUPS + tuple(dict.fromkeys(TRACED.values())) + ("realization.validate",)
COUNTED = ("fileio.decode_matrix", "testfn.validate_test_family",
           "testfn.schur_agler_witness_check", "linalg.is_psd",
           "realization.evaluate", "realization.rep_apply")

_MODULES = ("cli", "fileio", "testfn", "realization", "factorization", "linalg")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller; its name is also its group."""
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, name, start, 0)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, group, start, nbytes):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, group, start, end, parent, nbytes)

    def _wrap(self, fn, name: str, group: str):
        short = name.rsplit(".", 1)[1]
        reads, writes = short in _READS, short in _WRITES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nbytes = _size(args[0]) if reads and args else 0
            idx = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if writes and len(args) > 1:
                    nbytes = _size(args[1])
                self._close(idx, name, group, start, nbytes)

        return traced

    def install(self, cg) -> None:
        modules = [cg] + [getattr(cg, m) for m in _MODULES]
        for (home, fname) in TRACED:
            original = getattr(getattr(cg, home), fname)
            wrapper = self._wrap(original, f"{home}.{fname}", TRACED[(home, fname)])
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        cls = cg.Colligation
        self._patched.append((cls, "validate", cls.validate))
        cls.validate = self._wrap(cls.validate, "realization.validate", "realization.validate")

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patched):
            setattr(target, attr, value)
        self._patched.clear()

    def take(self) -> list:
        """Return the finished spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list) -> dict:
    """Self and inclusive time per group, call counts and bytes, for one pass.

    Inclusive time counts only the outermost span of a group, so nested
    calls inside one group are not counted twice.
    """
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    nbytes = {"fileio.bytes_read": 0, "fileio.bytes_written": 0}
    for k, (name, g, start, end, parent, size) in enumerate(spans):
        self_s[g] += (end - start) - child[k]
        calls[name] += 1
        if size:
            short = name.rsplit(".", 1)[1]
            nbytes["fileio.bytes_read" if short in _READS else "fileio.bytes_written"] += size
        outer = parent
        while outer >= 0 and spans[outer][1] != g:
            outer = spans[outer][4]
        if outer < 0:
            incl_s[g] += end - start
    return {"self_s": dict(self_s), "inclusive_s": dict(incl_s),
            "calls": dict(calls), "bytes": nbytes}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metric values (name -> number) of one pass summary."""
    out = {f"{g}_s": summary["self_s"].get(g, 0.0) for g in TIME_GROUPS}
    out.update({f"{c}.calls": summary["calls"].get(c, 0) for c in COUNTED})
    out.update(summary["bytes"])
    return out
