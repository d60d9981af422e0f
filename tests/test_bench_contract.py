"""The traced benchmark's hold on the package.

bench/spans.py wraps layer functions by name, counts the rows of a trace
with len() and the bytes a writer wrote with stream.tell().  These checks
load it by path, as the benchmark does, so a rename or a change of those
return values fails here rather than silently in a traced run.
"""

import importlib
import importlib.util
import os
from pathlib import Path

import pytest

from softgrip.geometry import fk_trace, sample_trajectory, write_fk_trace_csv
from softgrip.simulate import SlideConfig, simulate_slide, write_slide_trace_csv

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("softgrip_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    for layer, attrs in spans.LAYERS.items():
        module = importlib.import_module(f"softgrip.{layer}")
        for attr in attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(getattr(owner, fn_name)), f"{layer}.{attr}"


def test_trace_lengths_are_row_counts(spans, geom):
    trajectory = sample_trajectory(geom, -0.8, -1.4, 0.015)
    assert spans._rows((), fk_trace(geom, trajectory)) == {"items": 41}
    slide = simulate_slide(geom, SlideConfig())
    rows = len(sample_trajectory(geom, -0.8, -1.9, 0.015, window="ignore"))
    assert spans._rows((), slide) == {"items": len(slide.records)} == {"items": rows}


def test_written_bytes_are_the_file_size(spans, geom, tmp_path):
    trace = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 0.015))
    slide = simulate_slide(geom, SlideConfig())
    for name, writer, data in [("fk.csv", write_fk_trace_csv, trace),
                               ("slide.csv", write_slide_trace_csv, slide)]:
        path = tmp_path / name
        with path.open("w", encoding="utf-8") as stream:
            writer(data, stream)
            written = spans._written((data, stream), None)
        assert written == {"bytes": path.stat().st_size}


def test_driven_sweep_runs(spans):
    assert spans.drive("4242", "-0.8", "-1.4", "0.015") == 0


def test_written_bytes_are_the_file_size_on_the_worker_path(spans, geom, tmp_path,
                                                            monkeypatch):
    # A 1e-5 rad trace is split across a forked child on two CPUs; the
    # parent appends its text, so tell() still ends at the file size.
    forked, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", spy)
    trace = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 1e-5))
    path = tmp_path / "fk.csv"
    with path.open("w", encoding="utf-8") as stream:
        write_fk_trace_csv(trace, stream)
        written = spans._written((trace, stream), None)
    assert len(forked) == 1
    assert written == {"bytes": path.stat().st_size}
