"""Byte identity of geometry.write_columns, the one CSV writer of every trace.

write_columns formats the leading positional float columns of a large
table's chunks with one orjson call each and every other value with
float.__repr__, and writes in row chunks.  The reference is the plain
per-row join of each value's repr (a string column as it is): on every
drawn table both must give the same text, byte for byte.  Columns are
drawn as runs, so equal neighbours, 0.0 next to -0.0 and NaNs with
different bits are common.  The chunk size is drawn small as well, so
that tables straddle it cheaply; the explicit examples straddle the real
one.  The orjson threshold is drawn as 0 (every table takes the orjson
path) or as shipped (every drawn table is too small for it).  Where a test
must show which chunks took orjson, it spies on orjson.dumps.
"""

import io
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softgrip import geometry
from softgrip.geometry import (
    CSV_CHUNK_ROWS,
    ORJSON_MIN_CELLS,
    fk_trace,
    sample_trajectory,
    write_columns,
    write_fk_trace_csv,
)

NAN_PAYLOAD = float(np.array([0x7FF8_0000_0000_0001], dtype=np.int64).view(np.float64)[0])

# Values whose shortest repr is easy to get wrong, or that compare equal to
# a neighbour with other bits.
EDGE_VALUES = [
    0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, sys.float_info.max, -sys.float_info.max,
    0.1, 0.30000000000000004, 1e-05, 9007199254740993.0, 123456789.12345679, -1.4, -0.8,
    # Where float.__repr__ and orjson switch notation, and integral values.
    float(np.nextafter(1e-4, 0)), 1e-4, float(np.nextafter(1e16, 0)), 1e16,
    1.0, 100.0, 1e15,
]

signed_zeros = st.sampled_from([0.0, -0.0])  # equal as floats, apart as bits
values = st.one_of(signed_zeros, st.sampled_from(EDGE_VALUES), st.floats(width=64))
labels = st.sampled_from(["approach", "sliding", "closed", "", "x y", "é"])
chunks = st.sampled_from([1, 2, 7, 16])
min_cells = st.sampled_from([0, ORJSON_MIN_CELLS])


def runs_column(draw, elements, n, dtype):
    """n values drawn as runs of 1-5 equal values, the pattern repeated to length."""
    runs = draw(st.lists(st.tuples(elements, st.integers(1, 5)), min_size=1, max_size=30))
    pattern = np.array([v for v, count in runs for _ in range(count)], dtype=dtype)
    return np.resize(pattern, n)


@st.composite
def tables(draw):
    chunk = draw(chunks)
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from([chunk - 1, chunk, chunk + 1])
                       .filter(lambda k: k > 0)))
    columns = [runs_column(draw, draw(st.sampled_from([values, signed_zeros])), n, np.float64)
               for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))),
                       runs_column(draw, labels, n, object))
    return chunk, draw(min_cells), columns


def reference(header, columns):
    rows = zip(*(c.tolist() for c in columns))
    return header + "\n" + "".join(
        ",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows
    )


def written(header, columns, chunk=CSV_CHUNK_ROWS, cells=ORJSON_MIN_CELLS):
    stream = io.StringIO()
    with mock.patch.object(geometry, "CSV_CHUNK_ROWS", chunk), \
            mock.patch.object(geometry, "ORJSON_MIN_CELLS", cells):
        write_columns(header, [columns], len(columns[0]), stream)
    return stream.getvalue()


ROWS = CSV_CHUNK_ROWS + 1


@settings(max_examples=100, deadline=None)
@given(tables())
@example((2, 0, [np.array([0.0, -0.0, -0.0, 0.0, 0.0])]))
@example((CSV_CHUNK_ROWS, 0, [np.resize([0.0, 0.0, -0.0], ROWS), np.full(ROWS, math.nan),
                              np.linspace(-0.8, -1.9, ROWS)]))
@example((CSV_CHUNK_ROWS, ORJSON_MIN_CELLS, [  # 5 x ROWS cells: the orjson path as shipped
    np.linspace(-0.8, -1.9, ROWS), np.linspace(1e-4, 1e16, ROWS),
    np.resize(np.array(["approach", "sliding"], dtype=object), ROWS),
    np.resize(EDGE_VALUES, ROWS), np.linspace(-1.9, -0.8, ROWS)]))
@example((3, 0, [np.linspace(-0.8, -1.9, 10), np.array(["a", "b"] * 5, dtype=object),
                 np.linspace(1e-4, 1e16, 10), np.array([1e-5] + [1.0] * 9)]))
@example((CSV_CHUNK_ROWS, 0, [np.array([1.0]), np.array(["closed"], dtype=object)]))
def test_write_columns_matches_the_per_row_repr_join(table):
    chunk, cells, columns = table
    assert written("h", columns, chunk, cells) == reference("h", columns)


LABEL_CUTS = [
    [2],  # inside the first chunk
    [4],  # exactly at the first chunk edge
    [3, 4, 5],  # just before, at and after it
    list(range(1, 12)),  # at every row
]


@pytest.mark.parametrize("cells", [0, ORJSON_MIN_CELLS])  # the orjson path, the repr path
@pytest.mark.parametrize("cuts", LABEL_CUTS)
def test_labels_that_change_inside_a_chunk_and_at_its_edge(cells, cuts):
    # 12 rows in chunks of 4; the phase column changes at the given rows.
    phase = np.array(["approach"] * 12, dtype=object)
    for k, cut in enumerate(cuts):
        phase[cut:] = ("sliding", "closed", "é")[k % 3]
    columns = [np.linspace(-0.8, -1.9, 12), np.linspace(1e-4, 1e15, 12), phase]
    assert written("a,b,phase", columns, 4, cells) == reference("a,b,phase", columns)
    two = [*columns, phase[::-1].copy()]  # two label columns, with changes of their own
    assert written("a,b,p,q", two, 4, cells) == reference("a,b,p,q", two)


def text_of(writer, data):
    stream = io.StringIO()
    writer(data, stream)
    return stream.getvalue()


def test_runs_and_strings_straddle_every_chunk_edge(dumps_calls):
    # Runs of 250 (signed zeros, NaN) and of 334 labels cross the 3-row chunk
    # edges, and a float column follows the labels.  The 250 chunks before
    # the first NaN, at row 750, take orjson; the rest float.__repr__.
    n = 1000
    columns = [np.repeat([0.0, -0.0, 1.5, np.nan], n // 4), np.linspace(0.0, 1.0, n),
               np.repeat(np.array(["approach", "sliding", "é"], dtype=object), 334)[:n],
               np.full(n, -1.4)]
    want = written("a,b,c,d", columns)
    assert written("a,b,c,d", columns, 3, n) == want
    assert dumps_calls == [3] * 250


def test_a_small_trace_never_calls_orjson(geom, dumps_calls):
    trace = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 0.015))
    assert len(trace) == 41
    assert text_of(write_fk_trace_csv, trace).count("\n") == 42
    assert not dumps_calls


def test_write_columns_keeps_zero_signs_within_a_run():
    # 0.0 == -0.0, yet each keeps its sign on both paths.
    column = np.array([0.0, 0.0, -0.0, -0.0, 0.0])
    for cells in (0, ORJSON_MIN_CELLS):
        assert written("z", [column], cells=cells) == "z\n0.0\n0.0\n-0.0\n-0.0\n0.0\n"


def test_orjson_writes_positional_floats_as_float_repr():
    # Random bit patterns whose exponent lies in the positional range: any
    # orjson whose text differs from repr there must fail here, not change an
    # artifact.
    rng = np.random.default_rng(20180618)
    n = 250_000
    exponent = rng.integers(1023 - 14, 1023 + 54, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    values = (sign | exponent | mantissa).view(np.float64)
    values = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
    assert len(values) >= 200_000
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    assert text[1:-1].split(",") == list(map(float.__repr__, values.tolist()))


def test_small_runs_never_import_orjson(tmp_path):
    # A default-step sweep and a plan write a few hundred cells, far below
    # ORJSON_MIN_CELLS, so their process never pays orjson's import.
    estimate = tmp_path / "est.json"
    estimate.write_text('{"estimate": {"centroid_m": [0, 0, 0.1], "extents_m": [0.08, 0.08, 0.12],'
                        ' "point_count": 5000, "dominant_axis": "Z"}}')
    code = ("import sys; from softgrip.cli import main; rc = main(sys.argv[1:]); "
            "sys.exit(rc or 'orjson' in sys.modules)")
    for argv in (["fk", "--from", "-0.8", "--to", "-1.4", "--out", tmp_path / "fk"],
                 ["plan", "--estimate", estimate, "--mass", "0.1", "--out", tmp_path / "plan"]):
        proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv[0], proc.stderr)
