"""write_columns on the forked path writes the same bytes as in one process.

A table of at least PARALLEL_MIN_CELLS cells per share is split into one
share per available CPU, and every share after the first is formatted by a
child process forked from the writer.  These tests lower the threshold and
pin the CPU count, so that small tables take the forked path on any host,
and compare the text with the one written in one process.
"""

import io
import os
import signal
import time

import numpy as np
import pytest

from softgrip import geometry
from softgrip.geometry import fk_trace, sample_trajectory, write_columns, write_fk_trace_csv
from softgrip.simulate import SlideConfig, simulate_slide, write_slide_trace_csv

REAL_FORK, REAL_WAITPID = os.fork, os.waitpid


def text_of(writer, data):
    stream = io.StringIO()
    writer(data, stream)
    return stream.getvalue()


def reaped(pid):
    """True when pid is no child of this process any more: neither running nor a zombie."""
    try:
        REAL_WAITPID(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): pin the CPUs write_columns sees to n."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def children(monkeypatch):
    """{pid: exit code} of the children forked, through the real fork and
    waitpid; None while a child is unreaped."""
    codes = {}

    def fork():
        pid = REAL_FORK()
        if pid:
            codes[pid] = None
        return pid

    def waitpid(pid, options):
        done = REAL_WAITPID(pid, options)
        if pid in codes:
            codes[pid] = os.waitstatus_to_exitcode(done[1])
        return done

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return codes


@pytest.fixture
def split(monkeypatch):
    """split(cells, chunk): shares from `cells` cells, `chunk` rows per write."""
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
def test_traces_on_two_cpus_match_the_in_process_text(traces, cpus, children, split, chunk):
    cpus(2)
    split(500, chunk)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert list(children.values()) == [0, 0]


def test_slide_runs_and_phases_straddle_the_share_edge(traces, cpus, children, split):
    _, slide, want = traces[1]
    cpus(2)
    split(500, 7)
    bound = len(slide) // 2
    y_sim, phase = slide.columns.y_sim, slide.columns.phase
    assert y_sim[bound - 1] == y_sim[bound] and phase[bound - 1] == phase[bound]
    assert text_of(write_slide_trace_csv, slide) == want
    assert list(children.values()) == [0]


def test_runs_and_strings_straddle_every_edge(cpus, children, split):
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
    assert list(children.values()) == [0, 0, 0]


def test_one_cpu_starts_no_worker(traces, cpus, children, split):
    cpus(1)
    split(500)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert children == {}


def test_four_cpus_start_three_workers_per_table(traces, cpus, children, split):
    cpus(4)
    split(500, 64)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert list(children.values()) == [0] * 6


def test_a_worker_that_cannot_start_leaves_its_share_to_the_parent(
        traces, cpus, split, monkeypatch):
    def refuse():
        raise OSError("no processes left")

    monkeypatch.setattr(os, "fork", refuse)
    cpus(3)
    split(500, 64)
    for writer, data, want in traces:
        assert text_of(writer, data) == want


def test_a_failing_worker_leaves_its_share_to_the_parent(traces, cpus, split, monkeypatch):
    started = []

    def failing():
        pid = REAL_FORK()
        if pid == 0:
            os._exit(1)
        started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", failing)
    cpus(2)
    split(500, 64)
    for writer, data, want in traces:
        assert text_of(writer, data) == want
    assert len(started) == 2 and all(map(reaped, started))


def test_an_error_in_the_parent_kills_and_reaps_the_workers(
        traces, cpus, children, split, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            if self.tell():
                raise OSError("disk full")
            return super().write(text)

    parent, format_rows = os.getpid(), geometry.format_rows

    def stuck(row, columns):  # a child ends only when it is killed, or after 60 s
        if os.getpid() != parent:
            time.sleep(60)
            os._exit(0)
        return format_rows(row, columns)

    monkeypatch.setattr(geometry, "format_rows", stuck)
    _, fk, _ = traces[0]
    cpus(3)
    split(500, 64)
    with pytest.raises(OSError, match="disk full"):
        write_fk_trace_csv(fk, Full())
    assert list(children.values()) == [-signal.SIGKILL] * 2
    assert all(map(reaped, children))


def test_a_small_trace_never_starts_a_worker(geom, cpus, monkeypatch):
    def refuse():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(os, "fork", refuse)
    cpus(64)
    trace = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 0.015))
    assert len(trace) == 41
    assert text_of(write_fk_trace_csv, trace).count("\n") == 42


def test_a_child_that_raises_exits_without_the_parents_cleanup(
        traces, cpus, children, split, monkeypatch, tmp_path):
    # Every child's formatting raises.  A child that let it propagate would
    # run the parent's cleanup, which kills earlier siblings, and, back in
    # this test, close its copy of the stream, which still holds the header.
    parent = os.getpid()
    format_rows, kill = geometry.format_rows, os.kill
    kills = tmp_path / "kills.txt"

    def failing(row, columns):
        if os.getpid() != parent:
            raise ValueError("formatting failed")
        return format_rows(row, columns)

    def logged(pid, sig):
        with kills.open("a") as log:
            log.write(f"{os.getpid()} killed {pid}\n")
        kill(pid, sig)

    monkeypatch.setattr(geometry, "format_rows", failing)
    monkeypatch.setattr(os, "kill", logged)
    cpus(3)
    split(500, 64)
    writer, fk, want = traces[0]
    path = tmp_path / "fk.csv"
    try:
        with path.open("w", encoding="utf-8", newline="") as stream:
            writer(fk, stream)
    finally:
        if os.getpid() != parent:
            os._exit(2)  # an escaped child: never run the rest of the session
    assert list(children.values()) == [1, 1]
    assert not kills.exists()
    text = path.read_text(encoding="utf-8")
    assert text.count(geometry.FK_TRACE_HEADER) == 1
    assert text == want
