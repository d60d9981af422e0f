"""The traced benchmark's hold on the package.

bench/spans.py wraps layer functions by name, counts the rows of a trace
with len() and the bytes a writer wrote with stream.tell().  These checks
load it by path, as the benchmark does, so a rename or a change of those
return values fails here rather than silently in a traced run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softgrip
from softgrip import geometry, make_cylinder, uniform_box_noise, write_cloud_xyz
from softgrip.geometry import fk_trace, sample_trajectory, write_fk_trace_csv
from softgrip.simulate import SlideConfig, simulate_slide, write_slide_trace_csv

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SRC = str(Path(softgrip.__file__).resolve().parents[1])

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
    env = dict(os.environ, PYTHONPATH=SRC)
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


# A traced command, as the benchmark starts it.
TRACED_RUN = (f"import sys; sys.path.insert(0, {str(SPANS_PATH.parent)!r}); import spans; "
              "sys.exit(spans.child_main(sys.argv[1:]))")


def test_a_traced_estimate_counts_parsed_points_at_the_crop_and_kept_ones_at_the_parse(
        tmp_path):
    # Each parsed block goes through transform_cloud and crop_cloud, so their
    # calls count blocks, crop_cloud sees every parsed point, and parse_cloud
    # returns (and len() counts) each view's kept points.
    views = []
    for k in range(2):
        cloud = make_cylinder(0.05, 0.1, 4_000, seed=k)
        noise = uniform_box_noise(1_000, side_m=0.2, seed=10 + k, center=(0.0, 0.4, 0.0))
        with open(tmp_path / f"view_{k}.xyz", "w") as fh:
            write_cloud_xyz(cloud, fh)
            write_cloud_xyz(noise, fh)
        pose = np.eye(4)
        pose[:3, 3] = (0.0, 0.0, 0.01 * k)
        views.append({"cloud": f"view_{k}.xyz", "transform": pose.ravel().tolist()})
    (tmp_path / "scene.json").write_text(json.dumps({"views": views}))
    summary = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(summary), "estimate",
         "--manifest", str(tmp_path / "scene.json"), "--roi=-0.06,-0.06,-0.07,0.06,0.06,0.08",
         "--out", str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads((tmp_path / "run" / "estimate.json").read_text())["stage_counts"]
    assert (counts["merged"], counts["cropped"]) == (10_000, 8_000)  # the noise is cropped
    traced = json.loads(summary.read_text())
    parse, crop = traced["perception.parse_cloud"], traced["perception.crop_cloud"]
    assert parse["calls"] == 2 and crop["calls"] == traced["perception.transform_cloud"]["calls"] > 2
    assert crop["counts"] == {"seen": counts["merged"], "kept": counts["cropped"]}
    assert parse["counts"] == {"items": counts["cropped"]}
