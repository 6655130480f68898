"""Document round trips, canonical bytes, malformed-input rejection."""

from __future__ import annotations

import gc
import json
import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colligate.fileio as fileio
from colligate import (
    ColligateError,
    DimensionError,
    FormatError,
    HermitianKernel,
    StructureError,
    decode_matrix,
    digest_file,
    dumps_canonical,
    disc_table,
    encode_matrix,
    evaluate_all,
    load_colligation,
    load_kernel,
    load_table,
    load_values,
    load_witness,
    random_colligation,
    random_representation,
    save_colligation,
    save_kernel,
    save_table,
    save_values,
    save_witness,
    szego_samples,
)
from conftest import blaschke_colligation, random_table


class TestCanonicalSerializer:
    def test_floats_carry_seventeen_digits(self):
        assert dumps_canonical(0.1) == "0.10000000000000001\n"
        assert dumps_canonical(0.5) == "0.5\n"

    def test_ints_stay_ints(self):
        assert dumps_canonical({"n": 3}) == '{\n  "n": 3\n}\n'
        assert dumps_canonical({"n": np.int64(3)}) == '{\n  "n": 3\n}\n'

    @pytest.mark.parametrize(
        "x", [0, -1, 2**63, 2**70, True, False, None, "aé", np.int64(7)], ids=repr
    )
    def test_scalars_are_spelled_as_json_dumps_spells_them(self, x):
        # numpy integers are spelled as the Python int of the same value
        assert fileio._fmt_scalar(x) == json.dumps(int(x) if isinstance(x, np.integer) else x)

    def test_empty_objects_stay_inline(self):
        assert dumps_canonical({}) == "{}\n"
        assert dumps_canonical({"inputs": {}}) == '{\n  "inputs": {}\n}\n'

    def test_flat_lists_are_inline(self):
        assert dumps_canonical([1, 2, 3]) == "[1, 2, 3]\n"
        assert dumps_canonical([[1, 2], [3, 4]]) == "[[1, 2], [3, 4]]\n"

    def test_non_finite_literals(self):
        assert dumps_canonical(float("inf")) == "Infinity\n"
        assert dumps_canonical(float("nan")) == "NaN\n"

    def test_unknown_type_is_a_format_error(self):
        with pytest.raises(FormatError, match="cannot serialize object"):
            dumps_canonical({"x": object()})
        with pytest.raises(FormatError, match="cannot serialize set"):
            dumps_canonical([{1}, 2])

    def test_reports_parse_back_exactly(self):
        value = 5.0 / 36.0
        text = dumps_canonical({"residual": value})
        assert json.loads(text)["residual"] == value


class TestMatrixCodec:
    def test_round_trip(self):
        m = np.array([[0.5 + 0.25j, -1.0], [3.0e-17, 2.0 + 2.0j]])
        npt.assert_array_equal(decode_matrix(encode_matrix(m), "here"), m)

    def test_rejects_ragged_rows(self):
        with pytest.raises(FormatError, match="row 1"):
            decode_matrix([[[1, 0], [2, 0]], [[3, 0]]], "here")

    def test_encoders_refuse_arrays_of_strings(self, tmp_path):
        path = str(tmp_path / "out.json")
        for call, message in (
            (lambda: encode_matrix("abc"), "matrix must be an array of numbers"),
            (lambda: save_witness({"A": [["a"]]}, path), "witness A must be an array of numbers"),
            (lambda: save_values(disc_table([0.0]).points, [[["a"]]], path),
             "function value must be an array of numbers"),
        ):
            with pytest.raises(FormatError) as info:
                call()
            assert str(info.value) == message

    def test_rejects_non_pairs(self):
        with pytest.raises(FormatError, match="pair"):
            decode_matrix([[[1, 0, 0]]], "here")
        with pytest.raises(FormatError, match="pair"):
            decode_matrix([[["1", "0"]]], "here")
        with pytest.raises(FormatError, match="pair"):
            decode_matrix([[[True, False]]], "here")

    def test_rejects_integers_beyond_double_range(self):
        with pytest.raises(FormatError, match=r"entry \(0, 1\)"):
            decode_matrix([[[0, 0], [10**400, 0]]], "m")

    def test_rejects_non_finite_entries(self):
        with pytest.raises(FormatError, match="non-finite"):
            decode_matrix([[[float("inf"), 0.0]]], "here")


CODEC = settings(max_examples=200)

EDGE_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 2.0**53, 1e16, 0.1, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-310, 1.7976931348623157e308, -1.7976931348623157e308,
]
FINITE = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def complex_matrices(draw) -> np.ndarray:
    """Finite complex matrices, 1 x k and k x 1 included."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    parts = draw(st.lists(FINITE, min_size=2 * r * c, max_size=2 * r * c))
    return np.array(parts).view(np.complex128).reshape(r, c)


NESTINGS = [
    lambda m: m,
    lambda m: {"kind": "x", "m": m},
    lambda m: [m, m],
    lambda m: {"grid": [[m, m], [m, m]], "n": 2},
]

# leaf, pair, row and whole-matrix replacements the decoder must reject
# or read exactly as the per-entry walk does
LEAVES = [True, False, "1", "0.5", None, 10**400, -(10**400), 2 * 10**308, float("nan"),
          float("inf"), 3, 2**53 + 1, 2**63, -(2**63) - 1, 2**64 + 1, 2**70, 10**308,
          [1.0], [1.0, 0.0], [[1.0]], {}]
PAIRS = [(1.0, 0.0), [1.0], [3], [1.0, 0.0, 0.0], [1, 2, 3], [], [[1.0], 0.0],
         [[1.0, 0.0]], [[1.0], [0.0]], [1.0, [0.0]], [True, 1.0], [0.5, False], [None, 0.0],
         ["1", "0"], [10**400, 0], [0.0, 2 * 10**308], "x", 1.0, None]
ROWS = [(), [], "row", 1.0, None, {}]
WHOLE = [[], [[]], [[], []], [[], [], []], (), "m", None, 1.0, {}, [[[]]], [[[[1.0, 0.0]]]],
         [[[[1.0, 0.0]], [[0.5, 0.0]]]], [[[1, 0]], [[0, 1]]]]


@st.composite
def mutated_documents(draw):
    doc = encode_matrix(draw(complex_matrices()))
    r, c = draw(st.integers(0, len(doc) - 1)), draw(st.integers(0, len(doc[0]) - 1))
    kind = draw(st.sampled_from(["leaf", "pair", "row", "ragged", "tuple-row", "every-leaf",
                                 "every-pair", "zero-width", "deeper", "whole"]))
    if kind == "leaf":
        doc[r][c][draw(st.integers(0, 1))] = draw(st.sampled_from(LEAVES))
    elif kind == "pair":
        doc[r][c] = draw(st.sampled_from(PAIRS))
    elif kind == "row":
        doc[r] = draw(st.sampled_from(ROWS))
    elif kind == "ragged":
        doc[r] = doc[r][:-1] if draw(st.booleans()) else doc[r] + [[0.0, 0.0]]
    elif kind == "tuple-row":
        doc[r] = tuple(doc[r])
    elif kind == "every-leaf":
        # the same leaf in every pair, so the shape stays rectangular
        leaf, part = draw(st.sampled_from(LEAVES)), draw(st.integers(0, 1))
        for row in doc:
            for pair in row:
                pair[part] = leaf
    elif kind == "every-pair":
        pair = draw(st.sampled_from(PAIRS))
        doc = [[pair for _ in row] for row in doc]
    elif kind == "zero-width":
        doc = [[] for _ in doc]
    elif kind == "deeper":
        doc = draw(st.sampled_from([[doc], [[[pair] for pair in row] for row in doc],
                                    [[[[x] for x in pair] for pair in row] for row in doc]]))
    else:
        return draw(st.sampled_from(WHOLE))
    return doc


def _decoded(decode, obj):
    """(shape, bytes) of a decoded matrix, or the FormatError message."""
    try:
        a = decode(obj, "m")
    except FormatError as exc:
        return str(exc)
    return a.shape, a.dtype, a.tobytes()


class TestArrayCodec:
    """The array-at-a-time codec against the list form and the per-entry walk."""

    @CODEC
    @given(complex_matrices(), st.sampled_from(range(len(NESTINGS))))
    def test_array_prints_as_its_list_form(self, m, depth):
        nest = NESTINGS[depth]
        assert dumps_canonical(nest(m)) == dumps_canonical(nest(encode_matrix(m)))

    @CODEC
    @given(complex_matrices())
    def test_printed_array_decodes_to_the_same_bytes(self, m):
        doc = json.loads(dumps_canonical(m))
        assert _decoded(decode_matrix, doc) == _decoded(fileio._decode_entries, doc)
        # -0.0 is written as 0, so only the values are compared
        npt.assert_array_equal(decode_matrix(doc, "m"), m)

    @settings(CODEC, max_examples=400)
    @given(mutated_documents())
    def test_mutated_documents_decode_as_the_walk_does(self, doc):
        assert _decoded(decode_matrix, doc) == _decoded(fileio._decode_entries, doc)

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param([[[1.0], [0.5]]], id="pairs-of-length-1"),
            pytest.param([[[1.0, 0.0, 0.0]], [[0.5, 0.0, 0.0]]], id="pairs-of-length-3"),
            pytest.param([[[1.0, 0.0], [0.5]]], id="one-short-pair"),
            pytest.param([[[True, False]]], id="booleans"),
            pytest.param([[[1.0, 0.0], [0.0, True]]], id="one-boolean"),
            pytest.param([[[None, 0.0]]], id="null"),
            pytest.param([[["1", "0"]]], id="strings"),
            pytest.param([[[0.5, "0"]]], id="one-string"),
            pytest.param([[[[1.0, 0.0]]]], id="nested-pairs"),
            pytest.param([[[[1.0], [0.0]]]], id="nested-leaves"),
            pytest.param([[[[1.0, 0.0]]], [[[0.5, 0.0]]]], id="nested-rows"),
            pytest.param([[], []], id="zero-width-rows"),
            pytest.param([[[1.0, 0.0]], []], id="one-zero-width-row"),
            pytest.param([[[10**400, 0]]], id="beyond-double"),
            pytest.param([[[1.0, 0.0], [0, -(10**400)]]], id="one-beyond-double"),
            pytest.param([[[2**53 + 1, 2**64 + 1], [-(2**63) - 1, 10**308]]], id="large-ints"),
        ],
    )
    def test_named_mutations_decode_as_the_walk_does(self, doc):
        assert _decoded(decode_matrix, doc) == _decoded(fileio._decode_entries, doc)

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[complex(float("nan"), 1.0), 2.0]]),
            np.array([[1.0], [complex(0.0, float("inf"))]]),
            np.array([[-float("inf"), complex(float("inf"), float("nan"))]]),
            np.zeros((0, 3), dtype=complex),
            np.zeros((3, 0), dtype=complex),
        ],
    )
    def test_non_finite_and_empty_arrays_print_as_their_list_form(self, m):
        for nest in NESTINGS:
            assert dumps_canonical(nest(m)) == dumps_canonical(nest(encode_matrix(m)))

    def test_non_finite_literals_inside_a_matrix(self):
        m = np.array([[complex(float("nan"), float("inf")), -float("inf")]])
        assert dumps_canonical(m) == "[\n  [[NaN, Infinity], [-Infinity, 0]]\n]\n"


class TestColligationFile:
    def test_round_trip_is_exact(self, tmp_path):
        col = blaschke_colligation()
        path = str(tmp_path / "col.json")
        save_colligation(col, path)
        back = load_colligation(path)
        npt.assert_array_equal(back.matrix(), col.matrix())
        npt.assert_array_equal(back.table.values, col.table.values)
        assert back.table.points.labels == col.table.points.labels
        assert back.rep.split == col.rep.split
        for p, q in zip(back.rep.projections, col.rep.projections):
            npt.assert_array_equal(p, q)

    def test_resave_is_byte_identical(self, tmp_path):
        table = random_table(2, 4, seed=0)
        col = random_colligation(2, random_representation(2, 5, seed=1), table, seed=2)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_colligation(col, str(first))
        save_colligation(load_colligation(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_wrong_kind_is_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "kernel"}')
        with pytest.raises(FormatError, match="kind"):
            load_colligation(str(path))

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "colligation", "value_dim": 1}')
        with pytest.raises(FormatError, match="split"):
            load_colligation(str(path))

    def test_bad_split_is_rejected(self, tmp_path):
        col = blaschke_colligation()
        path = tmp_path / "col.json"
        save_colligation(col, str(path))
        doc = json.loads(path.read_text())
        doc["split"] = [0, 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="split"):
            load_colligation(str(path))

    def test_projection_count_must_match(self, tmp_path):
        col = blaschke_colligation()
        path = tmp_path / "col.json"
        save_colligation(col, str(path))
        doc = json.loads(path.read_text())
        doc["projections"].append(doc["projections"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="projection"):
            load_colligation(str(path))

    def test_a_projection_of_another_shape_is_named(self, tmp_path):
        table = random_table(2, 4, seed=0)
        col = random_colligation(1, random_representation(2, 3, seed=1), table, seed=2)
        path = tmp_path / "col.json"
        save_colligation(col, str(path))
        doc = json.loads(path.read_text())
        doc["projections"][1] = encode_matrix(np.eye(2))
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as info:
            load_colligation(str(path))
        assert str(info.value) == f"{path}.projections[1]: shape (2, 2), expected (3, 3)"

    def test_loaded_projections_are_read_only(self, tmp_path):
        path = str(tmp_path / "col.json")
        save_colligation(blaschke_colligation(), path)
        rep = load_colligation(path).rep
        assert not rep._stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rep.projections[0][0, 0] = 2.0

    def test_not_json_is_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(FormatError, match="JSON"):
            load_colligation(str(path))

    def test_undecodable_bytes_are_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b'{"kind": "\xff"}')
        with pytest.raises(FormatError, match="JSON"):
            load_colligation(str(path))

    def test_huge_integer_entry_is_a_format_error(self, tmp_path):
        path = tmp_path / "col.json"
        save_colligation(blaschke_colligation(), str(path))
        doc = json.loads(path.read_text())
        doc["D"][0][0][0] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"\.D: entry \(0, 0\)"):
            load_colligation(str(path))

    def test_value_dim_must_match_the_a_block(self, tmp_path):
        path = tmp_path / "col.json"
        save_colligation(blaschke_colligation(), str(path))
        doc = json.loads(path.read_text())
        doc["value_dim"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="value_dim"):
            load_colligation(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [("value_dim", True), ("split", [True, True]), ("split", [1, True])],
    )
    def test_booleans_are_not_integers(self, tmp_path, field, value):
        path = tmp_path / "col.json"
        save_colligation(blaschke_colligation(), str(path))
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=field):
            load_colligation(str(path))


class TestTableAndKernelFiles:
    def test_table_round_trip(self, tmp_path):
        table = random_table(3, 5, seed=3)
        path = str(tmp_path / "t.json")
        save_table(table, path)
        back = load_table(path)
        npt.assert_array_equal(back.values, table.values)
        assert back.points.labels == table.points.labels

    def test_kernel_round_trip_and_bytes(self, tmp_path):
        k = szego_samples([0.0, 0.5, -0.25j], power=2)
        first = tmp_path / "k.json"
        second = tmp_path / "k2.json"
        save_kernel(k, str(first))
        back = load_kernel(str(first))
        npt.assert_array_equal(back.blocks, k.blocks)
        save_kernel(back, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_kernel_block_shape_must_match(self, tmp_path):
        k = szego_samples([0.0, 0.5])
        path = tmp_path / "k.json"
        save_kernel(k, str(path))
        doc = json.loads(path.read_text())
        doc["block_dim"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="blocks"):
            load_kernel(str(path))

    @pytest.mark.parametrize(
        "block_dim", [pytest.param(10**400, id="1e400"), pytest.param(10**6, id="1e6")]
    )
    def test_huge_block_dim_is_rejected_without_allocating(self, tmp_path, block_dim):
        path = tmp_path / "k.json"
        save_kernel(szego_samples([0.0, 0.5]), str(path))
        doc = json.loads(path.read_text())
        doc["block_dim"] = block_dim
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="shape"):
            load_kernel(str(path))

    def test_boolean_block_dim_is_rejected(self, tmp_path):
        path = tmp_path / "k.json"
        save_kernel(szego_samples([0.0, 0.5]), str(path))
        doc = json.loads(path.read_text())
        doc["block_dim"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="block_dim"):
            load_kernel(str(path))


class TestWitnessFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "w.json")
        w = {
            "A1": np.array([[0.5 + 0.1j]]),
            "A2": np.array([[0.25]]),
            "X1": np.array([[1.0], [0.0]]),
        }
        save_witness(w, path)
        back = load_witness(path)
        assert set(back) == set(w)
        for key in w:
            npt.assert_array_equal(back[key], w[key])

    def test_unknown_name_is_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"kind": "witness", "Q": [[[1, 0]]]}')
        with pytest.raises(FormatError, match="Q"):
            load_witness(str(path))

    def test_empty_witness_is_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"kind": "witness"}')
        with pytest.raises(FormatError):
            load_witness(str(path))


class TestValuesFile:
    def test_round_trip(self, tmp_path):
        col = blaschke_colligation()
        stack = evaluate_all(col)
        path = str(tmp_path / "v.json")
        save_values(col.table.points, stack, path)
        points, back = load_values(path)
        assert points.labels == col.table.points.labels
        npt.assert_array_equal(back, stack)

    def test_negative_zero_round_trips_byte_for_byte(self, tmp_path):
        # json reads -0 back as the integer 0, so -0.0 must be written as 0
        stack = np.array([[[complex(-0.0, 0.25)]], [[complex(0.5, -0.0)]]])
        path = tmp_path / "v.json"
        save_values(disc_table([0.0, 0.5]).points, stack, str(path))
        saved = path.read_bytes()
        save_values(*load_values(str(path)), str(path))
        assert path.read_bytes() == saved
        assert dumps_canonical([-0.0, np.float64(-0.0)]) == "[0, 0]\n"

    def test_ragged_value_shapes_are_rejected(self, tmp_path):
        path = tmp_path / "v.json"
        doc = {
            "kind": "values",
            "labels": ["a", "b"],
            "values": [[[[0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="shape"):
            load_values(str(path))


TWO_POINTS = disc_table([0.0, 0.5]).points
UNREAD = pytest.mark.xfail(strict=True, raises=FormatError, reason="saver writes a dimension 0")

# (save, load, the arguments before the path) for one document each
SAVER_CASES = {
    "colligation": lambda: (save_colligation, load_colligation, (blaschke_colligation(),)),
    "table": lambda: (save_table, load_table, (blaschke_colligation().table,)),
    "Szego kernel": lambda: (save_kernel, load_kernel, (szego_samples([0.0, 0.5]),)),
    "Szego kernel of power 2": lambda: (save_kernel, load_kernel,
                                         (szego_samples([0.0, 0.5, 0.25j], 2),)),
    "kernel of 2x2 blocks": lambda: (save_kernel, load_kernel, (
        HermitianKernel(TWO_POINTS, np.arange(16.0).reshape(2, 2, 2, 2) / 7.0 + 0.5j),)),
    "witness": lambda: (save_witness, load_witness,
                        ({"X1": np.array([[1.0], [-0.0]]), "A1": np.array([[0.5 + 0.1j]])},)),
    "witness of an unknown name": lambda: (save_witness, load_witness, ({"Q": np.eye(1)},)),
    "witness of no matrices": lambda: (save_witness, load_witness, ({},)),
    "witness with a NaN": lambda: (save_witness, load_witness, ({"A": np.array([[np.nan]])},)),
    "1-D witness": lambda: (save_witness, load_witness, ({"A": np.ones(3)},)),
    "values": lambda: (save_values, load_values, (TWO_POINTS, np.array([[[0.5j]], [[-0.0]]]))),
    "scalar values": lambda: (save_values, load_values, (TWO_POINTS, 0.5)),
    "three values on two points": lambda: (save_values, load_values,
                                           (TWO_POINTS, np.zeros((3, 2, 2)))),
    "values of shape 2x3": lambda: (save_values, load_values, (TWO_POINTS, np.zeros((2, 2, 3)))),
    "infinite value": lambda: (save_values, load_values, (TWO_POINTS, np.full((2, 1, 1), np.inf))),
    # open: a dimension 0 is written, as [] for a matrix with no rows, and
    # refused by the loader
    "values of shape 0x0": pytest.param(
        lambda: (save_values, load_values, (TWO_POINTS, np.zeros((2, 0, 0)))), marks=UNREAD),
    "witness with no rows": pytest.param(
        lambda: (save_witness, load_witness, ({"Y": np.zeros((0, 2))},)), marks=UNREAD),
    "kernel of 0x0 blocks": pytest.param(
        lambda: (save_kernel, load_kernel, (HermitianKernel(TWO_POINTS, np.zeros((2, 2, 0, 0))),)),
        marks=UNREAD),
    "colligation of value dimension 0": pytest.param(
        lambda: (save_colligation, load_colligation, (random_colligation(
            0, random_representation(1, 1, 0), disc_table([0.0, 0.5]), 0),)), marks=UNREAD),
}


@pytest.mark.parametrize("case", SAVER_CASES.values(), ids=list(SAVER_CASES))
def test_each_saver_refuses_or_writes_what_its_loader_reads(case, tmp_path):
    # refused with a ColligateError and no file, or loaded and saved again byte for byte
    save, load, args = case()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    try:
        save(*args, str(first))
    except ColligateError:
        assert not list(tmp_path.iterdir())
        return
    loaded = load(str(first))
    save(*(loaded if isinstance(loaded, tuple) else (loaded,)), str(second))
    assert second.read_bytes() == first.read_bytes()


LOADERS = [load_colligation, load_table, load_kernel, load_witness, load_values]


@pytest.fixture()
def documents(tmp_path):
    """One valid file per loader, keyed by the loader's name."""
    col = blaschke_colligation()
    paths = {name: str(tmp_path / f"{name}.json") for name in (f.__name__ for f in LOADERS)}
    save_colligation(col, paths["load_colligation"])
    save_table(col.table, paths["load_table"])
    save_kernel(szego_samples([0.0, 0.5]), paths["load_kernel"])
    save_witness({"A": np.array([[0.5]])}, paths["load_witness"])
    save_values(col.table.points, evaluate_all(col), paths["load_values"])
    return paths


class TestDocumentGuards:
    @pytest.mark.parametrize("load", LOADERS, ids=lambda f: f.__name__)
    def test_deeply_nested_json_is_a_format_error(self, tmp_path, load):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(FormatError, match=r"deep\.json: not valid JSON \(.*recursion"):
            load(str(path))

    @pytest.mark.parametrize("load", LOADERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("text", ["[]", "3", '"colligation"', "null"])
    def test_a_document_must_be_an_object(self, tmp_path, load, text):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            load(str(path))
        assert str(info.value) == f"{path}: document must be a JSON object"

    @pytest.mark.parametrize("values", [[[[[0, 0]]]], [], {"a": [[[0, 0]]]}, None])
    def test_values_need_one_matrix_per_label(self, tmp_path, values):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"kind": "values", "labels": ["a", "b"], "values": values}))
        with pytest.raises(FormatError) as info:
            load_values(str(path))
        assert str(info.value) == f"{path}: need one value matrix per label"


class TestCollectorPause:
    """Every loader pauses the cyclic collector and restores its state."""

    @pytest.mark.parametrize("load", LOADERS, ids=lambda f: f.__name__)
    def test_paused_while_parsing_and_decoding(self, documents, monkeypatch, load):
        seen = []

        def recording(wrapped):
            def call(*args):
                seen.append(gc.isenabled())
                return wrapped(*args)
            return call

        monkeypatch.setattr(fileio, "_read_json", recording(fileio._read_json))
        monkeypatch.setattr(fileio, "decode_matrix", recording(fileio.decode_matrix))
        assert gc.isenabled()
        load(documents[load.__name__])
        assert len(seen) >= 2 and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("load", LOADERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_after_a_load(self, documents, tmp_path, load, enabled):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "nothing"}')
        try:
            if not enabled:
                gc.disable()
            load(documents[load.__name__])
            assert gc.isenabled() == enabled
            with pytest.raises(FormatError, match="kind is 'nothing'"):
                load(str(bad))
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


class TestDigest:
    def test_prefix_and_stability(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("{}\n")
        d1 = digest_file(str(path))
        assert d1.startswith("sha256:")
        assert d1 == digest_file(str(path))
        path.write_text("{ }\n")
        assert digest_file(str(path)) != d1


class TestPaths:
    """A path is a str or an os.PathLike.  open() takes an int, a bool
    included, as a file descriptor and closes it on return."""

    @pytest.fixture
    def pipe(self):
        r, w = os.pipe()
        os.set_blocking(r, False)
        yield r, w
        os.close(r)
        os.close(w)

    @pytest.mark.parametrize("kind", ["descriptor", "bool", "float"])
    def test_a_path_of_another_type_is_refused_and_no_descriptor_closed(self, pipe, kind):
        r, w = pipe
        table = random_table(1, 2, seed=0)
        calls = [(lambda p: save_table(table, p), w), (load_table, r), (digest_file, r)]
        for call, fd in calls:
            # True is fd 1, standard output
            path = {"descriptor": fd, "bool": True, "float": 3.5}[kind]
            message = f"a path must be a str or os.PathLike, got {type(path).__name__}"
            with pytest.raises(StructureError) as info:
                call(path)
            assert str(info.value) == message
            os.fstat(r)
            os.fstat(w)
        with pytest.raises(BlockingIOError):
            os.read(r, 1)

    def test_a_path_object_is_read_and_written(self, tmp_path):
        table = random_table(1, 2, seed=0)
        path = tmp_path / "t.json"
        save_table(table, path)
        npt.assert_array_equal(load_table(path).values, table.values)
        assert digest_file(path) == digest_file(str(path))


GUARDS = {
    "0-d matrix to encode": (
        lambda: encode_matrix(np.float64(1.0)),
        DimensionError, "matrix must be 2-D, got shape ()",
    ),
    "1-d matrix to encode": (
        lambda: encode_matrix([1.0, 2.0]),
        DimensionError, "matrix must be 2-D, got shape (2,)",
    ),
    "colligation document of a representation": (
        lambda: save_colligation(random_representation(1, 2, 0), "c.json"),
        StructureError, "a colligation document takes a Colligation, got Representation",
    ),
    "table document of a colligation": (
        lambda: save_table(blaschke_colligation(), "t.json"),
        StructureError, "a table document takes a TestFunctionTable, got Colligation",
    ),
    "kernel document of a table": (
        lambda: save_kernel(disc_table([0.0, 0.5]), "k.json"),
        StructureError, "a kernel document takes a HermitianKernel, got TestFunctionTable",
    ),
    "witness document of a list of pairs": (
        lambda: save_witness([("A", np.eye(1))], "w.json"),
        StructureError, "a witness document takes a dict, got list",
    ),
    "values document on a table": (
        lambda: save_values(disc_table([0.0, 0.5]), np.zeros((2, 1, 1)), "v.json"),
        StructureError, "a values document takes a PointSet, got TestFunctionTable",
    ),
}


class TestGuards:
    """Each refusal of bad input, with its class and its full message."""

    @pytest.mark.parametrize("case", list(GUARDS))
    def test_bad_input_is_refused_with_its_message(self, case, tmp_path, monkeypatch):
        # in an empty directory: a refused document writes no file
        monkeypatch.chdir(tmp_path)
        call, error, message = GUARDS[case]
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message
        assert not list(tmp_path.iterdir())
