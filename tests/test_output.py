"""The output text layer against the standard library's writers, byte for byte.

The references are the formatters the CLI used before the output module:
json.dumps(indent=2, sort_keys=True) plus a newline for every JSON
document, csv.writer with one cell rule (empty for NaN, inf for +-inf,
an integral value as an int, else repr) for samples.csv, the list of
_encode_float values through json.dumps for samples.json, and csv.writer
of the float-or-None columns for phase_map.csv.
"""

import csv
import dataclasses
import io
import json
import math
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_gms import cli, output
from threshold_gms.criteria import classify_columns
from threshold_gms.distributions import Exponential, MarkPair, _encode_float
from threshold_gms.montecarlo import ReplicationPlan, run
from threshold_gms.validation import FINITE_EXAMPLE, TRANSIENT_EXAMPLE


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def reference_csv_cell(v) -> str:
    v = float(v)
    if math.isnan(v):
        return ""
    if math.isinf(v):
        return "inf"
    if v.is_integer():
        return str(int(v))
    return repr(v)


def reference_samples_csv(headers, columns) -> str:
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["rep", *headers])
    for i, row in enumerate(zip(*columns)):
        writer.writerow([i, *map(reference_csv_cell, row)])
    return handle.getvalue()


def reference_samples_json(columns: dict) -> str:
    return reference_json({key: [_encode_float(float(v)) for v in column] for key, column in columns.items()})


def reference_csv_rows(rows) -> str:
    handle = io.StringIO(newline="")
    csv.writer(handle).writerows(rows)
    return handle.getvalue()


# Floats at the edges of the range where Ryu's notation matches repr's, and past them.
EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    sys.float_info.min,
    1e-9,
    -1e-9,
    1e-5,
    1.5e-5,
    -3.25e-5,
    math.nextafter(1e-4, 0.0),
    1e-4,
    0.1,
    1.0,
    math.nextafter(1e16, 0.0),
    1e16,
    -1.2345e17,
    2.0**53,
    2.0**53 + 2.0,
    2.0**63,
    -(2.0**63),
    2.0**64,
    2.0**100,
    1e300,
    sys.float_info.max,
    math.nan,
    math.inf,
    -math.inf,
]
EDGE_INTS = [
    0, -1, 2**53 + 1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, 2**100, -(2**100), 2**128 - 1,
]
# Text with number-like pieces, escapes, non-ASCII and control characters.
EDGE_TEXTS = [
    "", "1.1e-9", " 1e-9", "1e-9,\n", "\n 1e-09\n", "0.00001", "10.00001", ' "a": 1e-9', "\\", '"', "é", "\x7f",
    "\x00", "\x1f\t", "\u2028",
]

floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(),
    st.floats(1e-5, 1e-4),
    st.floats(min_value=1e16),
    st.floats(-1e-300, 1e-300),
)
leaves = st.one_of(
    floats,
    st.sampled_from(EDGE_INTS),
    st.integers(),
    st.sampled_from(EDGE_TEXTS),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.sampled_from(EDGE_TEXTS), st.text(max_size=6)), children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
    ),
    max_leaves=20,
)

# Every kind of value the document writer tells apart, once each.
DOCUMENT_PANEL = [
    {"tail_tolerance": 1e-9, "bound": 9.996152899064052e-10, "n": 120, "big": 1e16, "mid": 1.5e-5},
    {"seed": 2**63, "low": -(2**63), "u64": 2**64 - 1},
    {"seed": 2**64, "initial": "x.csv"},
    {"seed": 2**100},
    {"seed": 2**128 - 1},
    {"initial": "initial-ÿé.csv"},
    {"text": "1.1e-9", "value": 1.1e-9, "list": ["1e-9", 1e-9, " 1e-09"]},
    {"control": "\x00\x1f\n\t", "value": [-0.0, 5e-324, 1e-310]},
    {"nan": math.nan},
    {"inf": [math.inf, -math.inf]},
    {1: "int key", 2: [1e-9]},
    {"empty": [], "nested": {"a": {}, "b": [[], {}]}, "tuple": (1e-7, (2e17, "x"))},
    [],
    {},
    (),
    1e-9,
    "1e-9",
    None,
    [1e-9],
    {"deep": [[[[[1e-20]]]]]},
    # Fixed notation in [1e-5, 1e-4) next to a larger number whose text ends like it.
    {"small": [1.5e-5, -1e-5, 10.00001, 100.000012, 9.999999999999999e-05]},
]


@pytest.mark.parametrize("obj", DOCUMENT_PANEL, ids=range(len(DOCUMENT_PANEL)))
def test_json_text_is_json_dumps_on_a_fixed_panel(obj):
    assert output.json_text(obj) == reference_json(obj)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_json_text_is_json_dumps(obj):
    assert output.json_text(obj) == reference_json(obj)


def test_json_text_takes_json_dumps_past_orjson_nesting(tmp_path):
    deep = [1e-9]
    for _ in range(300):
        deep = [deep]
    assert output.json_text(deep) == reference_json(deep)
    path = tmp_path / "doc.json"
    output.write_json(path, {"deep": deep})
    assert path.read_bytes() == reference_json({"deep": deep}).encode()


def test_json_text_refuses_what_json_dumps_refuses():
    """A value json.dumps cannot write is refused as json.dumps refuses it, even one orjson would write."""
    from dataclasses import dataclass

    @dataclass
    class Point:
        x: float

    for obj in ({"p": Point(1.0)}, {"a": np.int64(3)}, {"k": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(obj)
        with pytest.raises(TypeError):
            output.json_text(obj)


sample_values = st.lists(
    st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.integers(-(2**70), 2**70).map(float)), max_size=40
)


@settings(max_examples=200, deadline=None)
@given(sample_values)
def test_csv_cells_are_the_csv_cell_rule(values):
    assert output.csv_cells(np.array(values, dtype=np.float64)) == [reference_csv_cell(v) for v in values]


@settings(max_examples=200, deadline=None)
@given(sample_values)
def test_json_cells_are_the_encode_float_texts(values):
    texts = output.json_cells(np.array(values, dtype=np.float64))
    assert texts == [json.dumps(_encode_float(float(v))) for v in values]


@pytest.mark.parametrize("segment", [output.SEGMENT_ROWS, 1, 3])
@settings(max_examples=50, deadline=None)
@given(columns=st.lists(st.lists(st.sampled_from(EDGE_FLOATS), min_size=7, max_size=7), min_size=1, max_size=4))
def test_sample_files_are_the_csv_writer_and_json_dumps_bytes(tmp_path_factory, segment, columns):
    """Both sample formats, whole and in segments, on every edge value in every column."""
    tmp = tmp_path_factory.mktemp("samples")
    arrays = [np.array(column) for column in columns]
    headers = [f"c{j}" for j in range(len(columns))]
    output.write_rows(
        tmp / "samples.csv",
        output.csv_layout(["rep", *headers]),
        7,
        lambda lo, hi: (output.number_texts(np.arange(lo, hi)), *(output.csv_cells(a[lo:hi]) for a in arrays)),
        segment,
    )
    assert (tmp / "samples.csv").read_bytes() == reference_samples_csv(headers, arrays).encode()
    keyed = dict(zip(headers[::-1], arrays))  # written in sorted key order, not in the given one
    output.write_json_columns(tmp / "samples.json", keyed, segment)
    assert (tmp / "samples.json").read_bytes() == reference_samples_json(keyed).encode()


def test_a_table_with_no_rows_is_its_header(tmp_path):
    output.write_rows(tmp_path / "empty.csv", output.csv_layout(["rep", "count"]), 0, lambda lo, hi: ())
    assert (tmp_path / "empty.csv").read_bytes() == reference_samples_csv(["count"], [[]]).encode()


optional_floats = st.lists(st.one_of(st.none(), st.sampled_from(EDGE_FLOATS), st.floats()), max_size=30)


@settings(max_examples=200, deadline=None)
@given(optional_floats)
def test_optional_float_texts_are_what_csv_writer_writes(values):
    # A leading field, as in a phase-map row: csv.writer quotes a row of one empty field.
    texts = output.optional_float_texts(values)
    assert ",".join(["x", *texts]) + "\r\n" == reference_csv_rows([["x", *values]])


def _limit_params(path, params) -> str:
    path.write_text(json.dumps(params.to_json()))
    return str(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command,params,reps",
    [
        # Past one segment of rows; counts and masses, the masses below 1e-4 in places.
        ("ladder-mc", TRANSIENT_EXAMPLE, output.SEGMENT_ROWS + 5),
        # Masses past 1e16 in every row.
        ("ladder-mc", dataclasses.replace(TRANSIENT_EXAMPLE, lambda_extinct=1e25), 50),
        ("limit-mc", FINITE_EXAMPLE, 300),
        ("limit-mc", dataclasses.replace(FINITE_EXAMPLE, lambda_birth=1e25), 50),
        # Divergent pairs: inf and NaN sentinels.
        ("ladder-mc", FINITE_EXAMPLE, 50),
        ("limit-mc", TRANSIENT_EXAMPLE, 50),
    ],
    ids=["count", "count-huge-mass", "limit", "limit-huge-mass", "count-divergent", "limit-divergent"],
)
def test_ladder_commands_write_the_reference_bytes(tmp_path, fmt, command, params, reps):
    """samples.* and summary.json are what csv.writer and json.dumps write of the same run's columns."""
    out = tmp_path / "out"
    argv = [command, "--params", _limit_params(tmp_path / "p.json", params), "--reps", str(reps), "--seed", "31"]
    assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 0
    _, task, columns = cli._LADDER_COMMANDS[command]
    result = run(ReplicationPlan(task=task, params=params, replications=reps, base_seed=31))
    values = [result.samples if column == "samples" else result.aux[column] for _, _, column in columns]
    if fmt == "csv":
        want = reference_samples_csv([header for header, _, _ in columns], values)
        assert (out / "samples.csv").read_bytes() == want.encode()
    else:
        want = reference_samples_json({key: column for (_, key, _), column in zip(columns, values)})
        assert (out / "samples.json").read_bytes() == want.encode()
    summary = json.loads((out / "summary.json").read_text())
    assert (out / "summary.json").read_text() == reference_json(summary)


def test_phase_map_is_the_csv_writer_bytes(tmp_path):
    """A grid whose values reach past both ends of Ryu's range: tiny and huge rates, inf and 1e-9-sized values."""
    grid = {
        "alpha_fitness": [1.0, 2.0, 1e-9, 3e20],
        "alpha_threshold": [1.0, 2.0, 1e-5],
        "lambda_birth": [1.0, 1e-7],
        "lambda_extinct": [0.7, 2e17],
    }
    spec = ";".join(f"{axis}={','.join(map(repr, values))}" for axis, values in grid.items())
    assert cli.main(["classify", "--grid", spec, "--out", str(tmp_path / "grid")]) == 0
    pairs = [MarkPair(Exponential(a), Exponential(b)) for a in grid["alpha_fitness"] for b in grid["alpha_threshold"]]
    rates = list(product(grid["lambda_birth"], grid["lambda_extinct"]))
    columns = classify_columns(pairs, rates, list(product(range(len(pairs)), range(len(rates)))))
    flags = ["true" if flag else "false" for flag in columns.null_recurrent_like]
    rows = [list(cli._PHASE_MAP.head.strip().split(","))]
    rows += [
        [*combo, *cells]
        for combo, cells in zip(
            product(*(map(repr, values) for values in grid.values())),
            zip(*columns[:3], flags, *columns[4:]),
        )
    ]
    text = (tmp_path / "grid" / "phase_map.csv").read_bytes().decode()
    assert "e-" in text and "e+" in text
    assert text == reference_csv_rows(rows)
