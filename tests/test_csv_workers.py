"""write_columns on the worker path writes the same bytes as in-process.

A table of at least PARALLEL_MIN_CELLS cells per share is split into one
share per available CPU, and every share after the first is formatted by a
worker process (softgrip._csvworker).  These tests lower the threshold and
pin the CPU count, so that small tables take the worker path on any host,
and compare the text with the one written in-process.
"""

import io
import os
import subprocess
import sys

import numpy as np
import pytest

from softgrip import _csvworker, geometry
from softgrip.geometry import fk_trace, sample_trajectory, write_columns, write_fk_trace_csv
from softgrip.simulate import SlideConfig, simulate_slide, write_slide_trace_csv

REAL_POPEN = subprocess.Popen


def text_of(writer, data):
    stream = io.StringIO()
    writer(data, stream)
    return stream.getvalue()


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): pin the CPUs write_columns sees to n."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def popen(monkeypatch):
    """The worker processes started, through the real Popen."""
    started = []

    def spy(*args, **kwargs):
        started.append(REAL_POPEN(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


@pytest.fixture
def split(monkeypatch):
    """split(cells, chunk): worker shares from `cells` cells, `chunk` rows per write."""
    def set_to(cells, chunk=geometry.CSV_CHUNK_ROWS):
        monkeypatch.setattr(geometry, "PARALLEL_MIN_CELLS", cells)
        monkeypatch.setattr(geometry, "CSV_CHUNK_ROWS", chunk)
    return set_to


@pytest.fixture(scope="module")
def traces():
    geom = geometry.default_geometry()
    fk = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 1e-3))
    slide = simulate_slide(geom, SlideConfig(step=1e-3))
    return [(write_fk_trace_csv, fk, text_of(write_fk_trace_csv, fk)),
            (write_slide_trace_csv, slide, text_of(write_slide_trace_csv, slide))]


@pytest.mark.parametrize("chunk", [7, 64, geometry.CSV_CHUNK_ROWS])
def test_traces_on_two_cpus_match_the_in_process_text(traces, cpus, popen, split, chunk):
    cpus(2)
    split(500, chunk)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert len(popen) == 2 and all(p.returncode == 0 for p in popen)


def test_slide_runs_and_phases_straddle_the_share_edge(traces, cpus, popen, split):
    _, slide, want = traces[1]
    cpus(2)
    split(500, 7)
    bound = geometry._share_bounds(slide.columns, 2)[1]
    y_sim, phase = slide.columns.y_sim, slide.columns.phase
    assert y_sim[bound - 1] == y_sim[bound] and phase[bound - 1] == phase[bound]
    assert text_of(write_slide_trace_csv, slide) == want
    assert len(popen) == 1


def test_runs_and_strings_straddle_every_edge(cpus, popen, split):
    # Runs of 250 (signed zeros, NaN) and of 334 labels: whatever the bounds,
    # runs and labels cross both the share and the chunk edges.
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
    assert len(popen) == 3 and all(p.returncode == 0 for p in popen)


def test_one_cpu_starts_no_worker(traces, cpus, popen, split):
    cpus(1)
    split(500)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert popen == []


def test_four_cpus_start_three_workers_per_table(traces, cpus, popen, split):
    cpus(4)
    split(500, 64)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert len(popen) == 6 and all(p.returncode == 0 for p in popen)


def test_a_worker_that_cannot_start_leaves_its_share_to_the_parent(
        traces, cpus, split, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("no processes left")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    cpus(3)
    split(500, 64)
    for writer, data, want in traces:
        assert text_of(writer, data) == want


def test_a_failing_worker_leaves_its_share_to_the_parent(traces, cpus, split, monkeypatch):
    started = []

    def failing(argv, **kwargs):
        started.append(REAL_POPEN([sys.executable, "-c", "import sys; sys.exit(1)"], **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", failing)
    cpus(2)
    split(500, 64)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert [p.returncode for p in started] == [1, 1]


def test_an_error_in_the_parent_kills_and_reaps_the_workers(traces, cpus, popen, split):
    class Full(io.StringIO):
        def write(self, text):
            if self.tell():
                raise OSError("disk full")
            return super().write(text)

    _, fk, _ = traces[0]
    cpus(3)
    split(500, 64)
    with pytest.raises(OSError, match="disk full"):
        write_fk_trace_csv(fk, Full())
    assert len(popen) == 2 and all(p.returncode is not None for p in popen)


def test_a_small_trace_never_starts_a_worker(geom, cpus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    cpus(64)
    trace = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 0.015))
    assert len(trace) == 41
    assert text_of(write_fk_trace_csv, trace).count("\n") == 42


def test_the_worker_imports_neither_numpy_nor_the_package(
        traces, cpus, split, monkeypatch, tmp_path):
    log = tmp_path / "imports.txt"
    started = []

    def traced(argv, **kwargs):
        assert argv[1:4] == ["-I", "-S", _csvworker.__file__]
        with log.open("w") as err:
            started.append(REAL_POPEN([argv[0], "-X", "importtime", *argv[1:]],
                                      **{**kwargs, "stderr": err}))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", traced)
    cpus(2)
    split(500, 64)
    _, slide, want = traces[1]
    assert text_of(write_slide_trace_csv, slide) == want
    assert len(started) == 1 and started[0].returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip() for line in log.read_text().splitlines()]
    assert "pickle" in imported
    assert not [m for m in imported if m.split(".")[0] in ("numpy", "softgrip")]
