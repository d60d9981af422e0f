import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from softgrip import (
    Box,
    SlideConfig,
    crop_cloud,
    estimate_object,
    make_cylinder,
    merge_clouds,
    transform_cloud,
    uniform_box_noise,
    write_cloud_xyz,
)
from softgrip import geometry, perception
from softgrip.cli import main
from softgrip.perception import PointCloud, ScenePose


def run_cli(*args):
    return main([str(a) for a in args])


def write_scene(tmp_path, cloud, name="view0.xyz", pose=None):
    pose = pose if pose is not None else np.eye(4)
    cloud_path = tmp_path / name
    with open(cloud_path, "w") as fh:
        write_cloud_xyz(cloud, fh)
    return {"cloud": name, "transform": [float(v) for v in np.asarray(pose).ravel()]}


def write_manifest(tmp_path, views, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"views": views}))
    return path


def write_estimate(tmp_path, extents, centroid=(0.0, 0.0, 0.1), name="est.json"):
    est = {
        "centroid_m": list(centroid),
        "extents_m": list(extents),
        "point_count": 5000,
        "dominant_axis": "XYZ"[int(np.argmax(extents))],
    }
    path = tmp_path / name
    path.write_text(json.dumps({"estimate": est}))
    return path


def rigid_pose(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    mat = np.eye(4)
    mat[:3, :3] = q
    mat[:3, 3] = rng.uniform(-0.5, 0.5, 3)
    return mat


# ---------------------------------------------------------------------------
# fk
# ---------------------------------------------------------------------------

def test_fk_single_theta(tmp_path):
    out = tmp_path / "run"
    assert run_cli("fk", "--theta", -0.8, "--out", out) == 0
    lines = (out / "fk_trace.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "theta,y_b,delta,b,alpha,x_left,x_right,y_tip"


def test_fk_range_has_41_rows(tmp_path):
    out = tmp_path / "run"
    assert run_cli("fk", "--from", -0.8, "--to", -1.4, "--step", 0.015, "--out", out) == 0
    lines = (out / "fk_trace.csv").read_text().splitlines()
    assert len(lines) == 42  # header + 41 samples


def test_fk_strict_out_of_window_exits_3(tmp_path):
    assert run_cli("fk", "--theta", -3.2, "--strict", "--out", tmp_path / "run") == 3


def printed_warnings(err):
    return [line for line in err.splitlines() if line.startswith("softgrip: warning:")]


def test_fk_sweep_with_both_ends_outside_the_window_warns_once(tmp_path, capsys):
    assert run_cli("fk", "--from", -0.5, "--to", -1.6, "--out", tmp_path / "run") == 0
    assert printed_warnings(capsys.readouterr().err) == [
        "softgrip: warning: theta=-1.6 outside operating window [-1.4, -0.8]"
    ]


def test_fk_strict_sweep_outside_the_window_names_the_lower_end(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("fk", "--from", -0.5, "--to", -1.6, "--strict", "--out", out) == 3
    assert capsys.readouterr().err == (
        "softgrip: theta=-1.6 outside operating window [-1.4, -0.8]\n"
    )
    assert not out.exists()


def test_slide_and_planner_sweeps_print_no_warning(tmp_path, capsys):
    # Only fk checks the window; the slide runs past theta_closed by design.
    assert run_cli("simulate-slide", "--out", tmp_path / "slide") == 0
    envelope = write_estimate(tmp_path, (0.08, 0.08, 0.12), name="envelope.json")
    assert run_cli("plan", "--estimate", envelope, "--mass", 0.1, "--out", tmp_path / "e") == 0
    pinch = write_estimate(tmp_path, (0.03, 0.03, 0.008), centroid=(0.0, 0.0, 0.004),
                           name="pinch.json")
    assert run_cli("plan", "--estimate", pinch, "--mass", 0.02, "--out", tmp_path / "p") == 0
    assert capsys.readouterr().err == ""


def test_ctrl_c_exits_130_with_one_line_and_no_traceback(tmp_path, monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(geometry, "fk_trace", interrupted)
    try:
        rc = run_cli("fk", "--theta", -1.0, "--out", tmp_path / "run")
    except KeyboardInterrupt:  # left to propagate, it would end the pytest session
        pytest.fail("KeyboardInterrupt escaped main")
    assert rc == 130
    assert capsys.readouterr().err == "softgrip: interrupted\n"
    assert not (tmp_path / "run").exists()


def test_fk_conflicting_arguments_exit_2(tmp_path):
    rc = run_cli("fk", "--theta", -0.8, "--from", -0.8, "--to", -1.4,
                 "--out", tmp_path / "run")
    assert rc == 2


def test_fk_bad_geometry_config_exits_2(tmp_path):
    bad = tmp_path / "geom.json"
    bad.write_text('{"r1": 1}')
    rc = run_cli("fk", "--theta", -0.8, "--geometry", bad, "--out", tmp_path / "run")
    assert rc == 2


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_single_view_cylinder(tmp_path, capsys):
    cloud = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=5000, seed=0,
                          center=(0.0, 0.0, 0.06))
    manifest = write_manifest(tmp_path, [write_scene(tmp_path, cloud)])
    out = tmp_path / "run"
    assert run_cli("estimate", "--manifest", manifest, "--trim", 0.0, "--out", out) == 0
    payload = json.loads((out / "estimate.json").read_text())
    ex, ey, ez = payload["estimate"]["extents_m"]
    assert ex == pytest.approx(0.08, rel=0.02)
    assert ey == pytest.approx(0.08, rel=0.02)
    assert ez == pytest.approx(0.12, rel=0.02)
    assert payload["decision"]["approach"] == "horizontal"
    assert "merged 5000 points" in capsys.readouterr().out


def test_estimate_two_views_match_single(tmp_path):
    full = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=5000, seed=0,
                         center=(0.0, 0.0, 0.06))
    single_manifest = write_manifest(tmp_path, [write_scene(tmp_path, full, "full.xyz")],
                                     name="single.json")

    views = []
    for i, mask in enumerate((full.points[:, 0] <= 0.005, full.points[:, 0] >= -0.005)):
        half = PointCloud(full.points[mask], full.frame_id)
        pose = rigid_pose(30 + i)
        inv = np.eye(4)
        inv[:3, :3] = pose[:3, :3].T
        inv[:3, 3] = -pose[:3, :3].T @ pose[:3, 3]
        camera_half = transform_cloud(half, ScenePose(inv))
        views.append(write_scene(tmp_path, camera_half, f"half{i}.xyz", pose))
    double_manifest = write_manifest(tmp_path, views, name="double.json")

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("estimate", "--manifest", single_manifest, "--trim", 0.0, "--out", out_a) == 0
    assert run_cli("estimate", "--manifest", double_manifest, "--trim", 0.0, "--out", out_b) == 0
    ext_a = json.loads((out_a / "estimate.json").read_text())["estimate"]["extents_m"]
    ext_b = json.loads((out_b / "estimate.json").read_text())["estimate"]["extents_m"]
    for a, b in zip(ext_a, ext_b):
        assert b == pytest.approx(a, rel=0.01)


def test_estimate_roi_filters_clutter(tmp_path):
    cyl = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=2000, seed=1,
                        center=(0.0, 0.0, 0.06))
    manifest = write_manifest(tmp_path, [write_scene(tmp_path, cyl)])
    out = tmp_path / "run"
    assert run_cli("estimate", "--manifest", manifest, "--trim", 0.0,
                   "--roi=-0.06,-0.06,-0.01,0.06,0.06,0.13", "--out", out) == 0
    payload = json.loads((out / "estimate.json").read_text())
    assert payload["stage_counts"]["cropped"] == 2000


def test_views_cropped_before_merging_give_the_crop_of_the_merged_cloud(tmp_path, capsys):
    # Each camera view holds part of the cylinder plus clutter outside the box.
    cyl = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=3000, seed=4,
                        center=(0.0, 0.0, 0.06))
    clutter = uniform_box_noise(400, side_m=0.3, seed=5, center=(0.3, 0.0, 0.06))
    views, global_views = [], []
    for i, mask in enumerate((cyl.points[:, 0] <= 0.01, cyl.points[:, 0] >= -0.01)):
        pose = rigid_pose(40 + i)
        part = np.vstack([cyl.points[mask], clutter.points[i::2]])
        camera = transform_cloud(PointCloud(part), ScenePose(np.linalg.inv(pose)))
        views.append(write_scene(tmp_path, camera, f"view{i}.xyz", pose))
        global_views.append(transform_cloud(camera, ScenePose(pose)))
    manifest = write_manifest(tmp_path, views)
    roi = Box((-0.06, -0.06, -0.01), (0.06, 0.06, 0.13))
    out = tmp_path / "run"
    assert run_cli("estimate", "--manifest", manifest, "--trim", 0.01,
                   "--roi=-0.06,-0.06,-0.01,0.06,0.06,0.13", "--out", out) == 0

    merged = merge_clouds(global_views)
    cropped = crop_cloud(merged, roi)
    assert 0 < len(cropped) < len(merged)
    payload = json.loads((out / "estimate.json").read_text())
    assert payload["estimate"] == estimate_object(cropped, trim_fraction=0.01).to_dict()
    assert payload["stage_counts"] == {
        "view_0_parsed": len(global_views[0]), "view_1_parsed": len(global_views[1]),
        "merged": len(merged), "cropped": len(cropped),
        "retained": payload["estimate"]["point_count"],
    }
    stdout = capsys.readouterr().out
    assert f"merged {len(merged)} points from 2 view(s)" in stdout
    assert f"{len(cropped)} points inside the region of interest" in stdout


def test_estimate_empty_after_crop_exits_4(tmp_path):
    cloud = make_cylinder(n_points=500, seed=2)
    manifest = write_manifest(tmp_path, [write_scene(tmp_path, cloud)])
    rc = run_cli("estimate", "--manifest", manifest,
                 "--roi", "5,5,5,6,6,6", "--out", tmp_path / "run")
    assert rc == 4


def test_estimate_malformed_cloud_exits_2(tmp_path):
    (tmp_path / "bad.xyz").write_text("1 2 oops\n")
    manifest = write_manifest(
        tmp_path, [{"cloud": "bad.xyz", "transform": [float(v) for v in np.eye(4).ravel()]}]
    )
    assert run_cli("estimate", "--manifest", manifest, "--out", tmp_path / "run") == 2


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_plan_envelope_for_80mm_cylinder(tmp_path):
    est = write_estimate(tmp_path, (0.08, 0.08, 0.12))
    out = tmp_path / "run"
    assert run_cli("plan", "--estimate", est, "--mass", 0.1, "--out", out) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["plan"]["approach"] == "horizontal"
    assert payload["validation"]["passed"] is True
    csv_lines = (out / "plan_trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "theta,arm_compensation_mm"
    assert float(csv_lines[1].split(",")[1]) == 0.0


def test_plan_pinch_for_coin(tmp_path):
    est = write_estimate(tmp_path, (0.03, 0.03, 0.008), centroid=(0.0, 0.0, 0.004))
    out = tmp_path / "run"
    assert run_cli("plan", "--estimate", est, "--mass", 0.02, "--out", out) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["plan"]["approach"] == "vertical"
    assert payload["plan"]["target_theta"] == -1.4


def test_plan_oversized_object_exits_5(tmp_path):
    est = write_estimate(tmp_path, (0.3, 0.3, 0.3))
    assert run_cli("plan", "--estimate", est, "--mass", 0.1, "--out", tmp_path / "run") == 5


def test_plan_midsize_object_is_horizontal(tmp_path):
    est = write_estimate(tmp_path, (0.05, 0.05, 0.06))
    out = tmp_path / "run"
    assert run_cli("plan", "--estimate", est, "--mass", 0.1, "--out", out) == 0
    assert json.loads((out / "plan.json").read_text())["plan"]["approach"] == "horizontal"


def _estimate_and_plan(tmp_path, diameter_m, mass, config=()):
    """Size a 120 mm tall cylinder at x = 0.3 m, then plan from its estimate.json;
    returns the estimate's decision and plan.json."""
    cloud = make_cylinder(diameter_m, 0.12, 5000, seed=3, center=(0.3, 0.0, 0.06))
    manifest = write_manifest(tmp_path, [write_scene(tmp_path, cloud)])
    est_out, plan_out = tmp_path / "est_run", tmp_path / "plan_run"
    assert run_cli(*config, "estimate", "--manifest", manifest, "--out", est_out) == 0
    assert run_cli(*config, "plan", "--estimate", est_out / "estimate.json", "--mass", mass,
                   "--out", plan_out) == 0
    decision = json.loads((est_out / "estimate.json").read_text())["decision"]
    return decision, json.loads((plan_out / "plan.json").read_text())


def test_plan_validates_the_workspace_limited_approach(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workspace_limits": {"min_corner": [-0.1, -0.1, -0.1],
                                                    "max_corner": [0.1, 0.1, 0.1]}}))
    decision, payload = _estimate_and_plan(tmp_path, 0.09, 1.2, ("--config", cfg))
    assert decision == {"approach": "vertical", "reason": "workspace_limited"}
    assert payload["plan"]["approach"] == "vertical"
    validation = payload["validation"]
    # The vertical hinged limit at ~90 mm is ~1.126 kg; the horizontal one ~1.226 kg.
    assert validation["payload_limit_kg"] == pytest.approx(1.126, abs=0.005)
    assert validation["payload_ok"] is False and validation["passed"] is False
    assert validation["predicted_deflection_mm"] is None


def test_plan_takes_a_midsize_tall_object_horizontally(tmp_path):
    decision, payload = _estimate_and_plan(tmp_path, 0.05, 0.1)
    assert decision == {"approach": "horizontal", "reason": "dominant_vertical_extent"}
    assert payload["plan"]["approach"] == "horizontal"
    assert payload["validation"]["passed"] is True


def test_plan_overweight_reports_failure_but_exits_0(tmp_path):
    est = write_estimate(tmp_path, (0.08, 0.08, 0.12))
    out = tmp_path / "run"
    assert run_cli("plan", "--estimate", est, "--mass", 5.0, "--out", out) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["validation"]["passed"] is False
    assert payload["validation"]["payload_margin_kg"] < 0


def test_plan_unhinged_20mm_missing_capacity_exits_2(tmp_path):
    est = write_estimate(tmp_path, (0.02, 0.02, 0.008), centroid=(0.0, 0.0, 0.004))
    rc = run_cli("plan", "--estimate", est, "--mass", 0.01, "--unhinged",
                 "--out", tmp_path / "run")
    assert rc == 2


# ---------------------------------------------------------------------------
# simulate-slide
# ---------------------------------------------------------------------------

def test_simulate_slide_default_closes_at_minus_1_9(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("simulate-slide", "--out", out) == 0
    summary = json.loads((out / "slide_summary.json").read_text())
    assert summary["closure_theta"] == -1.9
    assert summary["warnings"] == []
    lines = (out / "slide_trace.csv").read_text().splitlines()
    assert lines[0] == "theta,y_free,y_sim,bend,flex,phase"
    assert "closure at -1.9000 rad" in capsys.readouterr().out


def test_simulate_slide_no_contact(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate-slide", "--surface-y-mm", 500.0, "--out", out) == 0
    summary = json.loads((out / "slide_summary.json").read_text())
    assert summary["warnings"] == ["no_contact"]
    assert run_cli("simulate-slide", "--surface-y-mm", 500.0, "--require-contact",
                   "--out", tmp_path / "run2") == 6


def test_simulate_slide_reads_config_block(tmp_path, monkeypatch):
    cfg = tmp_path / "run_config.json"
    cfg.write_text(json.dumps({"slide": {"surface_y_mm": 500.0}}))
    monkeypatch.setenv("SOFTGRIP_CONFIG", str(cfg))
    out = tmp_path / "run"
    assert run_cli("simulate-slide", "--require-contact", "--out", out) == 6


# ---------------------------------------------------------------------------
# determinism and provenance
# ---------------------------------------------------------------------------

def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_every_command_is_byte_identical_across_runs(tmp_path):
    cloud = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=2000, seed=0,
                          center=(0.0, 0.0, 0.06))
    manifest = write_manifest(tmp_path, [write_scene(tmp_path, cloud)])
    est = write_estimate(tmp_path, (0.08, 0.08, 0.12))

    commands = [
        ("fk", "--from", -0.8, "--to", -1.4),
        ("estimate", "--manifest", manifest, "--trim", 0.01),
        ("plan", "--estimate", est, "--mass", 0.1),
        ("simulate-slide",),
    ]
    for i, cmd in enumerate(commands):
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        assert run_cli(*cmd, "--out", out_a) == 0
        assert run_cli(*cmd, "--out", out_b) == 0
        assert _tree_bytes(out_a) == _tree_bytes(out_b)


def test_estimate_output_feeds_plan(tmp_path):
    # Full pipeline: scene manifest -> estimate.json -> plan.json.
    cloud = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=3000, seed=6,
                          center=(0.0, 0.0, 0.06))
    manifest = write_manifest(tmp_path, [write_scene(tmp_path, cloud)])
    est_out = tmp_path / "est_run"
    plan_out = tmp_path / "plan_run"
    assert run_cli("estimate", "--manifest", manifest, "--trim", 0.0, "--out", est_out) == 0
    assert run_cli("plan", "--estimate", est_out / "estimate.json", "--mass", 0.1,
                   "--out", plan_out) == 0
    payload = json.loads((plan_out / "plan.json").read_text())
    assert payload["plan"]["approach"] == "horizontal"
    assert payload["validation"]["passed"] is True


def test_run_manifest_records_input_hashes(tmp_path):
    cloud = make_cylinder(n_points=300, seed=3)
    manifest = write_manifest(tmp_path, [write_scene(tmp_path, cloud)])
    out = tmp_path / "run"
    assert run_cli("estimate", "--manifest", manifest, "--out", out) == 0
    recorded = json.loads((out / "run_manifest.json").read_text())
    assert recorded["command"] == "estimate"
    assert len(recorded["inputs"]) == 2  # manifest + cloud
    assert all(len(h) == 64 for h in recorded["inputs"].values())
    assert "estimate.json" in recorded["outputs"]


def test_run_manifest_hashes_are_the_input_file_digests(tmp_path):
    cloud = make_cylinder(n_points=300, seed=3)
    manifest = write_manifest(tmp_path, [write_scene(tmp_path, cloud)])
    out = tmp_path / "run"
    assert run_cli("estimate", "--manifest", manifest, "--out", out) == 0
    recorded = json.loads((out / "run_manifest.json").read_text())["inputs"]
    for path in (manifest, tmp_path / "view0.xyz"):
        assert recorded[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_manifest_hashes_every_byte_of_a_view_refused_in_the_middle(tmp_path, monkeypatch):
    # The view is read once, a block at a time: the orjson tier takes the
    # blocks before the comment line, the per-line parser the rest, and the
    # hash still covers the whole file.
    cloud = make_cylinder(n_points=12_000, seed=5)
    rows = [f"{x!r} {y!r} {z!r}\n" for x, y, z in cloud.points.tolist()]
    rows.insert(len(rows) // 2, "# a comment among the records\n")
    view = tmp_path / "view0.xyz"
    view.write_text("".join(rows))
    assert view.stat().st_size > 3 * perception._JSON_CHUNK_BYTES
    manifest = write_manifest(tmp_path, [{"cloud": "view0.xyz",
                                          "transform": np.eye(4).ravel().tolist()}])
    out = tmp_path / "run"
    calls, per_line = [], perception._parse_xyz_record
    monkeypatch.setattr(perception, "_parse_xyz_record",
                        lambda *args: calls.append(args) or per_line(*args))
    assert run_cli("estimate", "--manifest", manifest, "--trim", 0.0, "--out", out) == 0
    assert 0 < len(calls) < len(cloud) * 2 // 3  # from the refused chunk on
    recorded = json.loads((out / "run_manifest.json").read_text())["inputs"]
    assert recorded[str(view)] == hashlib.sha256(view.read_bytes()).hexdigest()
    counts = json.loads((out / "estimate.json").read_text())["stage_counts"]
    assert counts["view_0_parsed"] == len(cloud)


def test_run_manifest_hashes_the_run_config(tmp_path):
    cfg = tmp_path / "run_config.json"
    cfg.write_text(json.dumps({"slide": {"flex_gain": 2.0}}))
    assert run_cli("simulate-slide", "--out", tmp_path / "plain") == 0
    assert run_cli("--config", cfg, "simulate-slide", "--out", tmp_path / "run") == 0
    traces = [(tmp_path / run / "slide_trace.csv").read_bytes() for run in ("plain", "run")]
    assert traces[0] != traces[1]
    recorded = json.loads((tmp_path / "run" / "run_manifest.json").read_text())["inputs"]
    assert recorded == {str(cfg): hashlib.sha256(cfg.read_bytes()).hexdigest()}


def test_capacity_file_that_is_not_json_exits_2_and_names_it(tmp_path, capsys):
    cap = tmp_path / "cap.json"
    cap.write_text("{not json")
    est = write_estimate(tmp_path, (0.08, 0.08, 0.12))
    out = tmp_path / "run"
    assert run_cli("plan", "--estimate", est, "--mass", 0.1, "--capacity", cap,
                   "--out", out) == 2
    assert f"{cap} is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("softgrip")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = tmp_path / "run"
    proc = subprocess.run([exe, "fk", "--theta", "-0.8", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "fk_trace.csv").is_file()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# invalid arguments exit with their documented code, not a traceback
# ---------------------------------------------------------------------------

def test_plan_negative_mass_exits_2(tmp_path):
    est = write_estimate(tmp_path, (0.08, 0.08, 0.12))
    assert run_cli("plan", "--estimate", est, "--mass", -1, "--out", tmp_path / "run") == 2


def test_plan_residual_fraction_above_one_exits_2(tmp_path):
    est = write_estimate(tmp_path, (0.08, 0.08, 0.12))
    rc = run_cli("plan", "--estimate", est, "--mass", 0.1, "--residual-fraction", 2,
                 "--out", tmp_path / "run")
    assert rc == 2


def _cylinder_manifest(tmp_path):
    cloud = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=500, seed=0,
                          center=(0.0, 0.0, 0.06))
    return write_manifest(tmp_path, [write_scene(tmp_path, cloud)])


def test_estimate_trim_out_of_range_exits_2(tmp_path):
    manifest = _cylinder_manifest(tmp_path)
    rc = run_cli("estimate", "--manifest", manifest, "--trim", 0.7, "--out", tmp_path / "run")
    assert rc == 2


def test_estimate_degenerate_roi_exits_2(tmp_path):
    manifest = _cylinder_manifest(tmp_path)
    rc = run_cli("estimate", "--manifest", manifest, "--roi=0,0,0,0,0,0",
                 "--out", tmp_path / "run")
    assert rc == 2


def test_fk_nan_step_exits_3(tmp_path):
    rc = run_cli("fk", "--from", -0.8, "--to", -1.4, "--step", "nan", "--out", tmp_path / "run")
    assert rc == 3


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_fk_non_finite_theta_exits_3(tmp_path, theta):
    out = tmp_path / "run"
    assert run_cli("fk", f"--theta={theta}", "--out", out) == 3
    assert not out.exists()


def test_simulate_slide_step_beyond_the_sample_cap_exits_3(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate-slide", "--step", 1e-12, "--out", out) == 3
    assert not out.exists()


@pytest.mark.parametrize("make_cloud", [lambda path: None, lambda path: path.mkdir()],
                         ids=["missing", "directory"])
def test_estimate_unreadable_cloud_exits_2_and_names_it(tmp_path, capsys, make_cloud):
    make_cloud(tmp_path / "view0.xyz")
    identity = [float(v) for v in np.eye(4).ravel()]
    manifest = write_manifest(tmp_path, [{"cloud": "view0.xyz", "transform": identity}])
    out = tmp_path / "run"
    assert run_cli("estimate", "--manifest", manifest, "--out", out) == 2
    assert str(tmp_path / "view0.xyz") in capsys.readouterr().err
    assert not out.exists()


def _fifo(tmp_path):
    path = tmp_path / "view0.xyz"
    os.mkfifo(path)
    return path


@pytest.mark.parametrize("make_cloud", [_fifo, lambda tmp_path: Path("/dev/zero")],
                         ids=["fifo", "dev-zero"])
def test_a_cloud_that_is_not_a_regular_file_exits_2_and_names_it(tmp_path, make_cloud):
    # A child capped in time and address space, so that a read which blocks
    # or never ends fails the test instead of hanging it or filling memory.
    cloud = make_cloud(tmp_path)
    identity = [float(v) for v in np.eye(4).ravel()]
    manifest = write_manifest(tmp_path, [{"cloud": str(cloud), "transform": identity}])
    code = ("import resource, sys; from softgrip.cli import main; "
            "resource.setrlimit(resource.RLIMIT_AS, "
            "(1_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1])); "
            "sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-c", code, "estimate", "--manifest", str(manifest),
                           "--out", str(out)], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"softgrip: cannot read {cloud}: not a regular file\n"
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-m", "softgrip", "fk", "--theta", "-0.8",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len((out / "fk_trace.csv").read_text().splitlines()) == 2


def test_warning_is_one_short_stderr_line(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "softgrip", "fk", "--theta", "1e300",
                           "--out", str(tmp_path / "run")], capture_output=True, text=True)
    assert proc.returncode == 3  # the chain is undefined that far out
    lines = proc.stderr.splitlines()
    assert [line for line in lines if line.startswith("softgrip: warning:")] == [
        "softgrip: warning: theta=1e+300 outside operating window [-1.4, -0.8]"
    ]
    assert not any("cli.py:" in line for line in lines)
    assert all(len(line) <= 200 for line in lines)


# ---------------------------------------------------------------------------
# malformed input exits 2 with one message line, never a traceback
# ---------------------------------------------------------------------------

IDENTITY = [float(v) for v in np.eye(4).ravel()]


def _args(*argv):
    return lambda tmp_path: list(argv)


def _with_config(raw, then):
    """argv for a run config holding raw, followed by then(tmp_path)."""
    def build(tmp_path):
        path = tmp_path / "run_config.json"
        path.write_text(json.dumps(raw))
        return ["--config", path, *then(tmp_path)]
    return build


def _estimate_with_manifest(raw, *argv):
    def build(tmp_path):
        write_scene(tmp_path, make_cylinder(n_points=200, seed=0))
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(raw))
        return ["estimate", "--manifest", path, *argv]
    return build


def _estimate(*argv):
    return _estimate_with_manifest({"views": [{"cloud": "view0.xyz", "transform": IDENTITY}]},
                                   *argv)


def _shipped(name):
    return json.loads(resources.files("softgrip.data").joinpath(name).read_text())


def _plan_with_capacity(mutate):
    """argv for a plan whose --capacity file is the shipped table after mutate(table)."""
    def build(tmp_path):
        table = _shipped("capacity_default.json")
        mutate(table)
        path = tmp_path / "capacity.json"
        path.write_text(json.dumps(table))
        return ["plan", "--estimate", write_estimate(tmp_path, (0.08, 0.08, 0.12)),
                "--mass", 0.1, "--capacity", path]
    return build


def _set(*keys, value):
    """A mutation setting table[keys[0]][keys[1]]... to value."""
    def mutate(table):
        for key in keys[:-1]:
            table = table[key]
        table[keys[-1]] = value
    return mutate


def _fk_with_geometry(**fields):
    def build(tmp_path):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({**_shipped("geometry_default.json"), **fields}))
        return ["fk", "--theta", -0.8, "--geometry", path]
    return build


MALFORMED_INPUTS = {
    "slide step is a string": (
        _with_config({"slide": {"step": "0.01"}}, _args("simulate-slide")), "'step'"),
    "slide theta_from is null": (
        _with_config({"slide": {"theta_from": None}}, _args("simulate-slide")), "'theta_from'"),
    "slide flex_gain is a string": (
        _with_config({"slide": {"flex_gain": "x"}}, _args("simulate-slide")), "'flex_gain'"),
    "geometry is a block, not a path": (
        _with_config({"geometry": {"r1": 20.0}}, _args("fk", "--theta", -0.8)), "'geometry'"),
    "roi block without max_corner": (
        _with_config({"roi": {"min_corner": [0, 0, 0]}}, _estimate()), "'max_corner'"),
    "roi flag with a word": (_estimate("--roi", "1,2,a,4,5,6"), "--roi"),
    "manifest is a list": (_estimate_with_manifest([1, 2]), "scene.json"),
    "manifest cloud is a number": (
        _estimate_with_manifest({"views": [{"cloud": 5, "transform": IDENTITY}]}), "'cloud'"),
    "manifest transform is not numeric": (
        _estimate_with_manifest({"views": [{"cloud": "view0.xyz", "transform": ["a"] * 16}]}),
        "'transform'"),
    "flex gain is nan": (_args("simulate-slide", "--flex-gain", "nan"), "'flex_gain'"),
    "capacity payload is nan": (
        _plan_with_capacity(_set("entries", 3, "max_payload_kg", value=math.nan)),
        "item 3 key 'max_payload_kg'"),
    "capacity hinged is a string": (
        _plan_with_capacity(_set("entries", 0, "hinged", value="false")), "'hinged'"),
    "capacity diameter is a string": (
        _plan_with_capacity(_set("entries", 0, "diameter_mm", value="20")), "'diameter_mm'"),
    "capacity payload is a bool": (
        _plan_with_capacity(_set("entries", 0, "max_payload_kg", value=True)),
        "'max_payload_kg'"),
    "capacity entry has an unknown key": (
        _plan_with_capacity(_set("entries", 0, "colour", value="red")), "'colour'"),
    "capacity curve pair has 3 numbers": (
        _plan_with_capacity(_set("deflection_curves", "hinged", 1, value=[0.2, 1.0, 2.0])),
        "'hinged' item 1"),
    "run config key has a typo": (
        _with_config({"geometery": "g.json"}, _args("fk", "--theta", -0.8)), "'geometery'"),
    "manifest transform of numeric strings": (
        _estimate_with_manifest({"views": [{"cloud": "view0.xyz",
                                            "transform": [str(v) for v in IDENTITY]}]}),
        "'transform'"),
    "manifest transform of booleans": (
        _estimate_with_manifest({"views": [{"cloud": "view0.xyz",
                                            "transform": [bool(v) for v in IDENTITY]}]}),
        "'transform'"),
    "geometry lengths overflow": (
        _fk_with_geometry(r1=1e199, r2=1e200), "geometry.json: need |r1|"),
}


@pytest.mark.parametrize("build, named", list(MALFORMED_INPUTS.values()),
                         ids=list(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_message(tmp_path, capsys, build, named):
    out = tmp_path / "run"
    assert run_cli(*build(tmp_path), "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("softgrip: ") and err.count("\n") == 1, err
    assert named in err
    assert not out.exists()


def test_out_naming_an_existing_file_exits_2_and_names_it(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert run_cli("fk", "--theta", -0.8, "--out", taken) == 2
    err = capsys.readouterr().err
    assert err.startswith("softgrip: ") and str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_malformed_record_names_its_cloud(tmp_path, capsys):
    good = write_scene(tmp_path, make_cylinder(n_points=200, seed=0), "good.xyz")
    (tmp_path / "bad.xyz").write_text("0.0 0.1 0.2\n0.0 0.1 0.0x1\n")
    manifest = write_manifest(tmp_path, [good, {"cloud": "bad.xyz", "transform": IDENTITY}])
    assert run_cli("estimate", "--manifest", manifest, "--out", tmp_path / "run") == 2
    err = capsys.readouterr().err
    assert f"softgrip: {tmp_path / 'bad.xyz'}: malformed number '0.0x1' (line 2, column 3)" in err


def test_bad_roi_fails_before_any_cloud_is_parsed(tmp_path, monkeypatch):
    manifest = _cylinder_manifest(tmp_path)
    parsed = []
    monkeypatch.setattr("softgrip.cli.parse_cloud", parsed.append)
    rc = run_cli("estimate", "--manifest", manifest, "--roi", "1,2,a,4,5,6",
                 "--out", tmp_path / "run")
    assert rc == 2
    assert parsed == []


# ---------------------------------------------------------------------------
# non-finite flag values exit with their documented code, never as JSON NaN
# ---------------------------------------------------------------------------

def _plan(extents, *argv):
    return lambda tmp_path: ["plan", "--estimate", write_estimate(tmp_path, extents), *argv]


ENVELOPE, PINCH = (0.08, 0.08, 0.12), (0.03, 0.03, 0.006)

NON_FINITE_FLAGS = {
    "fk step is nan": (_args("fk", "--theta", -1.0, "--step", "nan"), 3),
    "fk step is inf": (_args("fk", "--theta", -1.0, "--step", "inf"), 3),
    "fk step is zero": (_args("fk", "--theta", -1.0, "--step", 0), 3),
    "plan mass is inf": (_plan(ENVELOPE, "--mass", "inf"), 2),
    "plan mass is nan": (_plan(PINCH, "--mass", "nan"), 2),
    "plan squeeze margin is inf": (_plan(ENVELOPE, "--mass", 0.1,
                                         "--squeeze-margin-mm", "inf"), 2),
    "plan squeeze margin is -inf": (_plan(ENVELOPE, "--mass", 0.1,
                                          "--squeeze-margin-mm=-inf"), 2),
    "pinch surface is nan": (_plan(PINCH, "--mass", 0.02, "--surface-y-mm", "nan"), 2),
}


@pytest.mark.parametrize("build, code", list(NON_FINITE_FLAGS.values()),
                         ids=list(NON_FINITE_FLAGS))
def test_non_finite_flag_exits_with_one_message(tmp_path, capsys, build, code):
    out = tmp_path / "run"
    assert run_cli(*build(tmp_path), "--out", out) == code
    err = capsys.readouterr().err
    assert err.startswith("softgrip: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_flag_the_command_ignores_cannot_put_nan_into_the_manifest(tmp_path, capsys):
    # An envelope plan ignores --surface-y-mm; the manifest records it as given.
    out = tmp_path / "run"
    rc = run_cli(*_plan(ENVELOPE, "--mass", 0.1, "--surface-y-mm", "nan")(tmp_path),
                 "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("softgrip: cannot write ") and err.count("\n") == 1, err
    assert "run_manifest.json" in err
    assert not (out / "run_manifest.json").exists()


# Flags the planner ignores or takes as given, recorded as given in the manifest.
UNRECORDABLE_FLAGS = {
    "envelope surface is nan": _plan(ENVELOPE, "--mass", 0.1, "--surface-y-mm", "nan"),
    "pinch squeeze margin is inf": _plan(PINCH, "--mass", 0.02, "--squeeze-margin-mm", "inf"),
    "pinch residual fraction is nan": _plan(PINCH, "--mass", 0.02,
                                            "--residual-fraction", "nan"),
    "pinch surface is -inf": _plan(PINCH, "--mass", 0.02, "--surface-y-mm=-inf"),
}


@pytest.mark.parametrize("build", list(UNRECORDABLE_FLAGS.values()),
                         ids=list(UNRECORDABLE_FLAGS))
def test_a_flag_the_manifest_cannot_hold_leaves_no_run_directory(tmp_path, capsys, build):
    out = tmp_path / "run"
    assert run_cli(*build(tmp_path), "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("softgrip: cannot write ") and err.count("\n") == 1, err
    assert "run_manifest.json" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes come from the error classes
# ---------------------------------------------------------------------------

def test_require_contact_exits_6_with_one_message_after_a_complete_run(tmp_path, capsys):
    plain, out = tmp_path / "plain", tmp_path / "run"
    assert run_cli("simulate-slide", "--surface-y-mm", 500.0, "--out", plain) == 0
    capsys.readouterr()
    assert run_cli("simulate-slide", "--surface-y-mm", 500.0, "--require-contact",
                   "--out", out) == 6
    captured = capsys.readouterr()
    assert captured.out == "simulate-slide: no contact over the sweep\n"
    assert captured.err.startswith("softgrip: ") and captured.err.count("\n") == 1
    assert "--require-contact" in captured.err
    recorded = json.loads((out / "run_manifest.json").read_text())
    assert recorded["outputs"] == ["slide_summary.json", "slide_trace.csv"]
    assert recorded["parameters"]["require_contact"] is True
    for name in recorded["outputs"]:
        assert (out / name).read_bytes() == (plain / name).read_bytes()


def test_empty_crop_exits_4_with_one_message(tmp_path, capsys):
    manifest = _cylinder_manifest(tmp_path)
    out = tmp_path / "run"
    assert run_cli("estimate", "--manifest", manifest, "--roi", "5,5,5,6,6,6",
                   "--out", out) == 4
    assert capsys.readouterr().err == "softgrip: region of interest removed every point\n"
    assert not out.exists()


WIDE, WIDE_AND_FLAT = (0.2, 0.3, 0.12), (0.2, 0.3, 0.006)


@pytest.mark.parametrize("extents", [WIDE, WIDE_AND_FLAT], ids=["envelope", "pinch"])
def test_ungraspable_plan_exits_5_with_the_planner_message(tmp_path, capsys, extents):
    out = tmp_path / "run"
    assert run_cli(*_plan(extents, "--mass", 0.1)(tmp_path), "--out", out) == 5
    assert capsys.readouterr().err == (
        "softgrip: object diameter 200.0 mm exceeds the maximum aperture 103.0 mm\n")
    assert not out.exists()


# The planner checks its own flags before the object's size.
BAD_FLAGS_ON_UNGRASPABLE = {
    "envelope residual fraction is 2": _plan(WIDE, "--mass", 0.1, "--residual-fraction", 2),
    "pinch surface is nan": _plan(WIDE_AND_FLAT, "--mass", 0.1, "--surface-y-mm", "nan"),
}


@pytest.mark.parametrize("build", list(BAD_FLAGS_ON_UNGRASPABLE.values()),
                         ids=list(BAD_FLAGS_ON_UNGRASPABLE))
def test_a_bad_planner_flag_exits_2_before_an_ungraspable_object(tmp_path, capsys, build):
    out = tmp_path / "run"
    assert run_cli(*build(tmp_path), "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("softgrip: ") and err.count("\n") == 1, err
    assert "aperture" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# empty paths are refused, never read as the default
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flag", ["geometry", "capacity"])
def test_an_empty_model_path_exits_2_and_names_the_flag(tmp_path, capsys, flag):
    if flag == "geometry":
        argv = ["fk", "--theta", -0.8]
    else:
        argv = ["plan", "--estimate", write_estimate(tmp_path, ENVELOPE), "--mass", 0.1]
    out = tmp_path / "run"
    assert run_cli(*argv, f"--{flag}", "", "--out", out) == 2
    assert capsys.readouterr().err == f"softgrip: --{flag} must not be empty\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["geometry", "capacity"])
def test_an_empty_model_path_in_the_run_config_exits_2_and_names_the_key(tmp_path, capsys,
                                                                          key):
    if key == "geometry":
        argv = ["fk", "--theta", -0.8]
    else:
        argv = ["plan", "--estimate", write_estimate(tmp_path, ENVELOPE), "--mass", 0.1]
    cfg = tmp_path / "ce" / "cfg.json"  # resolving "" against its directory names "ce"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps({key: ""}))
    out = tmp_path / "run"
    assert run_cli("--config", cfg, *argv, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"softgrip: run config {cfg} key '{key}' must not be empty\n")
    assert not out.exists()


def test_an_empty_out_exits_2_before_anything_is_read_or_written(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run_config.json"
    cfg.write_text("{not json")  # reading it would exit 2 naming it
    assert run_cli("--config", cfg, "fk", "--theta", -0.8, "--out", "") == 2
    assert capsys.readouterr().err == "softgrip: --out must not be empty\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run_config.json"]


# ---------------------------------------------------------------------------
# simulate-slide flags and defaults
# ---------------------------------------------------------------------------

def test_every_slide_config_field_is_a_simulate_slide_flag(tmp_path):
    given = {"surface_y_mm": 150.0, "theta_from": -0.9, "theta_to": -1.8, "step": 0.05,
             "flex_gain": 2.0, "flex_offset": 0.5}
    assert set(given) == {f.name for f in fields(SlideConfig)}
    out = tmp_path / "run"
    argv = [arg for key, value in given.items() for arg in (f"--{key.replace('_', '-')}", value)]
    assert run_cli("simulate-slide", *argv, "--out", out) == 0
    parameters = json.loads((out / "run_manifest.json").read_text())["parameters"]
    assert {key: parameters[key] for key in given} == given
    assert json.loads((out / "slide_summary.json").read_text())["surface_y_mm"] == 150.0
    rows = (out / "slide_trace.csv").read_text().splitlines()[1:]
    assert [float(rows[i].split(",")[0]) for i in (0, -1)] == [-0.9, -1.8]
    assert len(rows) == 19
    assert float(rows[0].split(",")[4]) == 0.5 + 2.0 * float(rows[0].split(",")[3])


def test_default_slide_range_follows_the_geometry(tmp_path, capsys):
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps({**_shipped("geometry_default.json"),
                                "theta_open": -0.6, "theta_closed": -1.0}))
    out = tmp_path / "run"
    assert run_cli("simulate-slide", "--geometry", path, "--out", out) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "slide_summary.json").read_text())
    assert summary["closure_theta"] == -1.0 - 0.5  # the geometry's slide_floor
    first = (out / "slide_trace.csv").read_text().splitlines()[1]
    assert float(first.split(",")[0]) == -0.6
