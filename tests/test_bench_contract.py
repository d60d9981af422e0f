"""The traced benchmark's hold on the package.

bench/spans.py wraps layer functions by name, counts the rows of a trace
with len() and the bytes a writer wrote with stream.tell().  These checks
load it by path, as the benchmark does, so a rename or a change of those
return values fails here rather than silently in a traced run.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softgrip
from softgrip import geometry
from softgrip.geometry import fk_trace, sample_trajectory, write_fk_trace_csv
from softgrip.simulate import SlideConfig, simulate_slide, write_slide_trace_csv

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Run in a fresh interpreter: importing softgrip.cli must load every traced
# layer, since Tracer.install reads them from sys.modules, and install
# rebinds module globals, which would leave this process traced.
INSTALL_CHECK = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("spans", {str(SPANS_PATH)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import softgrip.cli
missing = [layer for layer in spans.LAYERS if "softgrip." + layer not in sys.modules]
assert not missing, missing
names = [spans.metric_name(layer, attr) for layer, attrs in spans.LAYERS.items()
         for attr in attrs]
spans.Tracer().install(names)
for layer, attrs in spans.LAYERS.items():
    for attr in attrs:
        owner_name, _, fn_name = attr.rpartition(".")
        module = sys.modules["softgrip." + layer]
        owner = getattr(module, owner_name) if owner_name else module
        assert hasattr(getattr(owner, fn_name), "__wrapped__"), (layer, attr)
"""


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


def test_cli_import_loads_every_layer_and_install_wraps_every_name():
    env = dict(os.environ, PYTHONPATH=str(Path(softgrip.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", INSTALL_CHECK], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_trace_lengths_are_row_counts(spans, geom):
    trajectory = sample_trajectory(geom, -0.8, -1.4, 0.015)
    assert spans._rows((), fk_trace(geom, trajectory)) == {"items": 41}
    slide = simulate_slide(geom, SlideConfig())
    rows = len(sample_trajectory(geom, -0.8, -1.9, 0.015))
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


def test_written_bytes_are_the_file_size_on_the_orjson_path(spans, geom, tmp_path,
                                                            monkeypatch):
    # A 1e-5 rad trace is formatted in chunks by orjson, in this process
    # alone, so tell() ends at the file size.
    def refuse():
        raise AssertionError("the writer forked")

    monkeypatch.setattr(os, "fork", refuse)
    trace = fk_trace(geom, sample_trajectory(geom, -0.8, -1.4, 1e-5))
    assert len(trace) * len(trace.columns) >= geometry.ORJSON_MIN_CELLS
    path = tmp_path / "fk.csv"
    with path.open("w", encoding="utf-8") as stream:
        write_fk_trace_csv(trace, stream)
        written = spans._written((trace, stream), None)
    assert written == {"bytes": path.stat().st_size}
