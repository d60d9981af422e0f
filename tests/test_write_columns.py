"""Byte identity of geometry.write_columns, the one CSV writer of every trace.

write_columns calls float.__repr__ once per run of bit-identical values
and writes in row chunks.  The reference is the plain per-row join of each
value's repr (a string column as it is): on every drawn table both must
give the same text, byte for byte.  Columns are drawn as runs, so equal
neighbours, 0.0 next to -0.0 and NaNs with different bits are common.  The
chunk size is drawn small as well, so that tables straddle it cheaply; the
explicit examples straddle the real one.
"""

import io
import math
import sys
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softgrip import geometry
from softgrip.geometry import CSV_CHUNK_ROWS, write_columns

NAN_PAYLOAD = float(np.array([0x7FF8_0000_0000_0001], dtype=np.int64).view(np.float64)[0])

# Values whose shortest repr is easy to get wrong, or that compare equal to
# a neighbour with other bits.
EDGE_VALUES = [
    0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, sys.float_info.max, -sys.float_info.max,
    0.1, 0.30000000000000004, 1e-05, 0.0001, 1e16, 9999999999999998.0,
    9007199254740993.0, 123456789.12345679, -1.4, -0.8,
]

signed_zeros = st.sampled_from([0.0, -0.0])  # equal as floats, apart as bits
values = st.one_of(signed_zeros, st.sampled_from(EDGE_VALUES), st.floats(width=64))
labels = st.sampled_from(["approach", "sliding", "closed", "", "x y", "é"])
chunks = st.sampled_from([1, 2, 7, 16])


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
    return chunk, columns


def reference(header, columns):
    rows = zip(*(c.tolist() for c in columns))
    return header + "\n" + "".join(
        ",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows
    )


def written(header, columns, chunk=CSV_CHUNK_ROWS):
    stream = io.StringIO()
    with mock.patch.object(geometry, "CSV_CHUNK_ROWS", chunk):
        write_columns(header, columns, stream)
    return stream.getvalue()


ROWS = CSV_CHUNK_ROWS + 1


@settings(max_examples=100, deadline=None)
@given(tables())
@example((2, [np.array([0.0, -0.0, -0.0, 0.0, 0.0])]))
@example((CSV_CHUNK_ROWS, [np.resize([0.0, 0.0, -0.0], ROWS), np.full(ROWS, math.nan),
                           np.linspace(-0.8, -1.9, ROWS)]))
@example((CSV_CHUNK_ROWS, [np.array([1.0]), np.array(["closed"], dtype=object)]))
def test_write_columns_matches_the_per_row_repr_join(table):
    chunk, columns = table
    assert written("h", columns, chunk) == reference("h", columns)


def test_write_columns_keeps_zero_signs_within_a_run():
    # 0.0 == -0.0, so only the bit view keeps them in separate runs.
    column = np.array([0.0, 0.0, -0.0, -0.0, 0.0])
    assert written("z", [column]) == "z\n0.0\n0.0\n-0.0\n-0.0\n0.0\n"
