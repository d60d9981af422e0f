"""write_columns writes a trace in one process, whatever the CPU count.

The CSV writer once split a large table into one share per CPU and
formatted every later share in a forked child.  That path is gone: every
chunk is formatted in the writer's own process, with orjson for a large
table.  These tests pin the CPU count, make os.fork raise, lower the orjson
threshold and the chunk size, so that small tables take the orjson path on
any host and straddle the chunk edges, and compare the text with the one
written at the shipped settings (float.__repr__ for these small tables).
orjson.dumps is spied on to show that every chunk took it.
"""

import io
import os

import pytest

from softgrip import geometry
from softgrip.geometry import fk_trace, sample_trajectory, write_fk_trace_csv
from softgrip.simulate import SlideConfig, simulate_slide, write_slide_trace_csv


def text_of(writer, data):
    stream = io.StringIO()
    writer(data, stream)
    return stream.getvalue()


def chunk_rows(data, chunk):
    """The row count of each chunk of `chunk` rows that `data` is written in."""
    return [min(chunk, len(data) - lo) for lo in range(0, len(data), chunk)]


@pytest.fixture(autouse=True)
def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): pin the CPUs the process sees to n."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def split(monkeypatch):
    """split(cells, chunk): orjson from `cells` cells, `chunk` rows per write."""
    def set_to(cells, chunk=geometry.CSV_CHUNK_ROWS):
        monkeypatch.setattr(geometry, "ORJSON_MIN_CELLS", cells)
        monkeypatch.setattr(geometry, "CSV_CHUNK_ROWS", chunk)
    return set_to


@pytest.fixture(scope="module")
def traces():
    """(writer, trace, its text as shipped) of a 1e-3 rad fk and slide trace:
    4,808 and 6,606 cells, written with float.__repr__ as shipped."""
    geom = geometry.default_geometry()
    fk = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 1e-3))
    slide = simulate_slide(geom, SlideConfig(step=1e-3))
    return [(write_fk_trace_csv, fk, text_of(write_fk_trace_csv, fk)),
            (write_slide_trace_csv, slide, text_of(write_slide_trace_csv, slide))]


@pytest.mark.parametrize("chunk", [7, 64, 4096, geometry.CSV_CHUNK_ROWS])
def test_traces_on_two_cpus_match_the_in_process_text(traces, cpus, dumps_calls, split, chunk):
    # Orjson from 500 cells: every chunk of both traces takes it, and the
    # slide's phase changes fall inside chunks and straddle their edges.
    cpus(2)
    split(500, chunk)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert dumps_calls == [n for _, data, _ in traces for n in chunk_rows(data, chunk)]


def test_slide_runs_and_phases_straddle_the_share_edge(traces, cpus, dumps_calls, split):
    # The middle row, where a two-way split once cut the table, falls inside
    # a run of equal rows and of one phase; with 7-row chunks it is also a
    # chunk edge's neighbour.
    _, slide, want = traces[1]
    cpus(2)
    split(500, 7)
    bound = len(slide) // 2
    y_sim, phase = slide.columns.y_sim, slide.columns.phase
    assert y_sim[bound - 1] == y_sim[bound] and phase[bound - 1] == phase[bound]
    assert text_of(write_slide_trace_csv, slide) == want
    assert dumps_calls == chunk_rows(slide, 7)


def test_one_cpu_starts_no_worker(traces, cpus, dumps_calls, split):
    cpus(1)
    split(500)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert dumps_calls == [n for _, data, _ in traces
                           for n in chunk_rows(data, geometry.CSV_CHUNK_ROWS)]
