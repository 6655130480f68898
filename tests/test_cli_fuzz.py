"""Exit-code contract under mutated input documents and options.

Each example takes one well-formed invocation, mutates one node of one of
its input documents (the toy documents of ``tests/golden/inputs``) and
runs ``main`` in a fresh directory.  Whatever the mutation, no exception
may escape, the exit code must be 0, 1 or 2, and exit 1 must come with a
false verdict or a residual in the report.  ``random`` also runs with
mutated integer options.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from colligate.cli import main

INPUTS = Path(__file__).parent / "golden" / "inputs"

INVOCATIONS = {
    "eval": ["eval", "blaschke.json"],
    "check": ["check", "gen.json", "--variant", "general", "--witness", "gen_pair.json", "--auto"],
    "check-both-vanishing": ["check", "squared.json", "--variant", "both-vanishing",
                             "--witness", "ly.json"],
    "factor": ["factor", "blaschke.json", "--variant", "vanishing-selfadjoint",
               "--witness", "half.json", "-o", "out"],
    "multiply": ["multiply", "gen_f1.json", "gen_f2.json", "-o", "prod.json"],
    "verify": ["verify", "gen.json", "gen_f1.json", "gen_f2.json"],
    "random": ["random", "--table", "table2.json", "--value-dim", "1",
               "--state-dims", "2,1", "-o", "rand.json"],
    "admissible": ["admissible", "szego.json", "table.json"],
    "norm-bound": ["norm-bound", "vals.json", "--kernels", "s2.json"],
}

REPLACEMENTS = [True, False, None, 10**400, -(10**400), 0, -1, 10**6, "NaN",
                float("nan"), float("inf"), 1e300, [], {}, [[]], "x"]


def _paths(node, prefix=()):
    """Every path into a JSON tree, the root excluded."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, kind, replacement):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "wrap":
        parent[key] = [parent[key]]
    elif kind == "unwrap":
        value = parent[key]
        parent[key] = value[0] if isinstance(value, list) and value else value
    elif kind == "duplicate" and isinstance(parent, list):
        parent.append(parent[key])
    else:
        parent[key] = replacement


def _input_files(argv) -> list[str]:
    return [a for a in argv if (INPUTS / a).is_file()]


@st.composite
def mutations(draw, argv):
    files = _input_files(argv)
    name = draw(st.sampled_from(files))
    doc = json.loads((INPUTS / name).read_text())
    path = draw(st.sampled_from(list(_paths(doc))))
    kind = draw(st.sampled_from(["replace", "drop", "wrap", "unwrap", "duplicate"]))
    _mutate(doc, path, kind, draw(st.sampled_from(REPLACEMENTS)))
    return name, json.dumps(doc)


@pytest.mark.parametrize("invocation", list(INVOCATIONS))
def test_mutated_inputs_keep_the_exit_code_contract(invocation):
    argv = INVOCATIONS[invocation]

    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(mutations(argv))
    def run(mutation):
        name, text = mutation
        with tempfile.TemporaryDirectory() as tmp:
            for f in _input_files(argv):
                shutil.copyfile(INPUTS / f, Path(tmp, f))
            Path(tmp, name).write_text(text)
            out = io.StringIO()
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(out):
                    code = main(list(argv))
            finally:
                os.chdir(cwd)
        report = json.loads(out.getvalue())
        assert code in (0, 1, 2)
        if code == 1:
            assert report.get("verdict") is False or any(
                k in report for k in ("residual", "residuals", "product_residual")
            ), report

    run()


# small magnitudes only, so no draw allocates anything large
STATE_DIMS = ["0,2", "-1,1", "a,b", "3", "2,1", "1,1", "1,-2", "0,0", ",", "1,2,3", "", "2, 1"]


@settings(max_examples=60)
@given(st.integers(-8, 8), st.integers(-8, 8), st.sampled_from(STATE_DIMS))
@example(seed=-1, value_dim=1, state_dims="2,1")
@example(seed=0, value_dim=0, state_dims="0,2")
@example(seed=3, value_dim=-2, state_dims="-1,1")
def test_mutated_random_options_keep_the_exit_code_contract(seed, value_dim, state_dims):
    # random has no verdict: it writes a colligation or refuses its input;
    # the --option=value form keeps argparse from reading "-1,1" as an option
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["random", "--table", str(INPUTS / "table2.json"),
                     f"--value-dim={value_dim}", f"--state-dims={state_dims}",
                     f"--seed={seed}", "-o", str(Path(tmp, "rand.json"))])
        written = Path(tmp, "rand.json").exists()
    report = json.loads(out.getvalue())
    assert code in (0, 2), report
    assert (code == 0) == written == ("error" not in report), report
