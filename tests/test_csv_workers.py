"""write_columns writes a trace in one process, whatever the CPU count.

The CSV writer once split a large table into one share per CPU and
formatted every later share in a forked child.  That path is gone: every
chunk is formatted in the writer's own process, with orjson for a large
table.  These tests pin the CPU count, make os.fork raise, lower the orjson
threshold and the chunk size, so that small tables take the orjson path on
any host and straddle the chunk edges, and compare the text with the one
written at the shipped settings (float.__repr__ for these small tables).
"""

import io
import math
import os

import numpy as np
import pytest

from softgrip import geometry
from softgrip.geometry import fk_trace, sample_trajectory, write_columns, write_fk_trace_csv
from softgrip.simulate import SlideConfig, simulate_slide, write_slide_trace_csv


def text_of(writer, data):
    stream = io.StringIO()
    writer(data, stream)
    return stream.getvalue()


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


@pytest.fixture
def chunks(monkeypatch):
    """One entry per chunk write_columns formats: True when it was given orjson."""
    seen, cell_texts = [], geometry._cell_texts

    def spy(columns, dumps):
        seen.append(dumps is not None)
        return cell_texts(columns, dumps)

    monkeypatch.setattr(geometry, "_cell_texts", spy)
    return seen


@pytest.fixture(scope="module")
def traces():
    geom = geometry.default_geometry()
    fk = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 1e-3))
    slide = simulate_slide(geom, SlideConfig(step=1e-3))
    return [(write_fk_trace_csv, fk, text_of(write_fk_trace_csv, fk)),
            (write_slide_trace_csv, slide, text_of(write_slide_trace_csv, slide))]


@pytest.mark.parametrize("chunk", [7, 64, 4096, geometry.CSV_CHUNK_ROWS])
def test_traces_on_two_cpus_match_the_in_process_text(traces, cpus, chunks, split, chunk):
    cpus(2)
    split(500, chunk)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert chunks == [True] * sum(math.ceil(len(data) / chunk) for _, data, _ in traces)


def test_slide_runs_and_phases_straddle_the_share_edge(traces, cpus, chunks, split):
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
    assert chunks and all(chunks)


def test_runs_and_strings_straddle_every_edge(cpus, chunks, split):
    # Runs of 250 (signed zeros, NaN) and of 334 labels cross the 3-row chunk
    # edges; a chunk holding a NaN falls back to float.__repr__ for its run.
    n = 1000
    columns = [np.repeat([0.0, -0.0, 1.5, np.nan], n // 4), np.linspace(0.0, 1.0, n),
               np.repeat(np.array(["approach", "sliding", "é"], dtype=object), 334)[:n],
               np.full(n, -1.4)]
    want = io.StringIO()
    write_columns("a,b,c,d", columns, want)
    cpus(4)
    split(n, 3)
    got = io.StringIO()
    write_columns("a,b,c,d", columns, got)
    assert got.getvalue() == want.getvalue()
    assert chunks == [False] + [True] * math.ceil(n / 3)


def test_one_cpu_starts_no_worker(traces, cpus, chunks, split):
    cpus(1)
    split(500)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert chunks == [True] * sum(math.ceil(len(data) / geometry.CSV_CHUNK_ROWS)
                                  for _, data, _ in traces)


def test_a_small_trace_never_starts_a_worker(geom, cpus, chunks):
    cpus(64)
    trace = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 0.015))
    assert len(trace) == 41
    assert text_of(write_fk_trace_csv, trace).count("\n") == 42
    assert chunks == [False]
