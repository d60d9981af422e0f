"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here and nowhere else."""

import json
import time

import numpy as np

from softgrip import (
    MotorTrajectory,
    ObjectEstimate,
    PerturbationModel,
    PointCloud,
    ScenePose,
    SlideConfig,
    aperture,
    estimate_object,
    forward_kinematics,
    inverse_kinematics,
    fingertip_jacobian,
    make_cylinder,
    merge_clouds,
    plan_envelope_grasp,
    plan_pinch_grasp,
    sample_trajectory,
    simulate_free,
    simulate_slide,
    slider_displacement,
    transform_cloud,
    uniform_box_noise,
    write_cloud_xyz,
)
from softgrip.cli import main as cli_main
from softgrip.perception import GLOBAL_FRAME


def report(criterion: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {criterion} failed: {description}"


def estimate_for(extents, centroid=(0.0, 0.0, 0.1)):
    return ObjectEstimate(centroid=centroid, extents=extents, point_count=5000,
                          dominant_axis="XYZ"[int(np.argmax(extents))])


def test_criterion_01_kinematic_symmetry(geom):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for th in rng.uniform(-1.9, -0.8, 1000):
        a = forward_kinematics(geom, float(th))
        b = forward_kinematics(geom, -float(th))
        ok &= abs(a.x_left + a.x_right) <= 1e-12
        ok &= (a.y_b, a.delta, a.b, a.alpha, a.x_left, a.x_right, a.y_tip) == (
            b.y_b, b.delta, b.b, b.alpha, b.x_left, b.x_right, b.y_tip
        )
    elapsed = time.perf_counter() - start
    report(1, f"mirror symmetry and evenness at 1000 angles in {elapsed:.3f}s",
           ok and elapsed < 1.0)


def test_criterion_02_fk_ik_roundtrip(geom):
    start = time.perf_counter()
    worst = 0.0
    for th in np.linspace(geom.theta_closed, geom.theta_open, 100):
        solved = inverse_kinematics(geom, aperture(geom, float(th)))
        worst = max(worst, abs(solved - float(th)))
    elapsed = time.perf_counter() - start
    report(2, f"roundtrip worst error {worst:.2e} rad in {elapsed:.3f}s",
           worst <= 1e-6 and elapsed < 1.0)


def test_criterion_03_jacobian_vs_finite_differences(geom):
    h = 1e-6
    worst = 0.0
    for th in np.linspace(geom.theta_closed + 1e-3, geom.theta_open - 1e-3, 50):
        th = float(th)
        jx, jy = fingertip_jacobian(geom, th)
        plus = forward_kinematics(geom, th + h)
        minus = forward_kinematics(geom, th - h)
        fd_x = (plus.x_left - minus.x_left) / (2 * h)
        fd_y = (plus.y_tip - minus.y_tip) / (2 * h)
        worst = max(worst,
                    abs(jx - fd_x) / max(abs(fd_x), 1.0),
                    abs(jy - fd_y) / max(abs(fd_y), 1.0))
    report(3, f"analytic vs central differences worst rel err {worst:.2e}",
           worst <= 1e-6)


def test_criterion_04_trajectory_sampling(geom):
    traj = sample_trajectory(geom, -0.8, -1.4, 0.015)
    report(4, f"standard sweep yields {len(traj)} samples ending at {traj.samples[-1]}",
           len(traj) == 41 and traj.samples[-1] == -1.4)


def test_criterion_05_perception_oracle():
    truth = (0.08, 0.08, 0.12)
    clean = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=5000, seed=0)
    est_clean = estimate_object(clean, trim_fraction=0.0)
    clean_ok = all(abs(e - t) / t <= 0.02 for e, t in zip(est_clean.extents, truth))

    noisy = merge_clouds([clean, uniform_box_noise(50, side_m=1.0, seed=8)])
    est_noisy = estimate_object(noisy, trim_fraction=0.01)
    noisy_ok = all(abs(e - t) / t <= 0.05 for e, t in zip(est_noisy.extents, truth))

    rng = np.random.default_rng(77)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    pose = np.eye(4)
    pose[:3, :3] = q
    pose[:3, 3] = rng.uniform(-0.5, 0.5, 3)
    inv = np.eye(4)
    inv[:3, :3] = q.T
    inv[:3, 3] = -q.T @ pose[:3, 3]
    halves = []
    for mask in (clean.points[:, 0] <= 0.005, clean.points[:, 0] >= -0.005):
        half = PointCloud(clean.points[mask], GLOBAL_FRAME)
        camera = transform_cloud(half, ScenePose(inv))
        halves.append(transform_cloud(PointCloud(camera.points), ScenePose(pose)))
    est_merged = estimate_object(merge_clouds(halves), trim_fraction=0.0)
    merge_ok = all(
        abs(m - s) / s <= 0.01 for m, s in zip(est_merged.extents, est_clean.extents)
    )

    report(5, "cylinder extents within 2% clean, 5% with outliers, 1% two-view",
           clean_ok and noisy_ok and merge_ok)


def test_criterion_06_compensation_identities(geom):
    env = plan_envelope_grasp(geom, estimate_for((0.08, 0.08, 0.12)))
    base = slider_displacement(geom, env.motor_trajectory.samples[0])
    env_dev = max(
        abs(slider_displacement(geom, th) + comp - base)
        for th, comp in env.arm_compensation
    )

    pinch = plan_pinch_grasp(geom, estimate_for((0.03, 0.03, 0.008)))
    tip_base = forward_kinematics(geom, pinch.motor_trajectory.samples[0]).y_tip
    pinch_dev = max(
        abs(forward_kinematics(geom, th).y_tip + comp - tip_base)
        for th, comp in pinch.arm_compensation
    )
    report(6, f"root deviation {env_dev:.2e} mm, fingertip deviation {pinch_dev:.2e} mm",
           env_dev <= 1e-9 and pinch_dev <= 1e-9)


def test_criterion_07_capacity_ratios(capacity):
    unhinged_ratio = capacity.max_payload("vertical", False) / capacity.max_payload(
        "horizontal", False
    )
    hinged_ratio = capacity.max_payload("horizontal", True) / capacity.max_payload(
        "vertical", True
    )
    gain_v = capacity.hinge_gain("vertical")
    gain_h = capacity.hinge_gain("horizontal")
    anchor = capacity.payload_limit(140.0, "horizontal", False)
    ok = (
        abs(unhinged_ratio - 1.43) <= 0.005
        and abs(hinged_ratio - 1.0833) <= 0.005
        and abs(gain_v - 1.32) <= 0.01
        and abs(gain_h - 3.52) <= 0.01
        and anchor < 0.12
    )
    report(7, f"ratios {unhinged_ratio:.4f}/{hinged_ratio:.4f}, gains "
              f"{gain_v:.4f}/{gain_h:.4f}, 140mm anchor {anchor:.3f} kg", ok)


def test_criterion_08_deflection_ordering(capacity):
    hinged = capacity.deflection_curves["hinged"]
    unhinged = capacity.deflection_curves["unhinged"]
    same_grid = [f for f, _ in hinged] == [f for f, _ in unhinged]
    ordered = all(dh < du for (_, dh), (_, du) in zip(hinged, unhinged))
    increasing = all(
        all(b > a for (_, a), (_, b) in zip(curve, curve[1:]))
        for curve in (hinged, unhinged)
    )
    report(8, "hinged deflection below unhinged at every sample, both increasing",
           same_grid and ordered and increasing)


def test_criterion_09_slide_simulation(geom):
    start = time.perf_counter()
    trace = simulate_slide(geom, SlideConfig())
    elapsed = time.perf_counter() - start

    sliding = [r for r in trace.records if r.phase == "sliding"]
    surface_exact = bool(sliding) and all(r.y_sim == trace.surface_y_mm for r in sliding)
    flex = [r.flex for r in trace.records]
    closure_idx = next(i for i, r in enumerate(trace.records) if r.phase == "closed")
    nondecreasing = all(b >= a for a, b in zip(flex[: closure_idx + 1], flex[1: closure_idx + 1]))
    constant_after = all(f == flex[closure_idx] for f in flex[closure_idx:])
    report(9, f"surface tracking exact, flex monotone then settled, closure at "
              f"{trace.closure_theta} rad in {elapsed:.3f}s",
           surface_exact and nondecreasing and constant_after
           and trace.closure_theta == -1.9 and elapsed < 1.0)


def test_criterion_10_free_sim_fidelity(geom):
    traj = sample_trajectory(geom, geom.theta_open, geom.theta_closed, 0.015)

    clean = simulate_free(geom, traj)
    zero_ok = all(
        r.x_left_sim == r.x_left_model and r.y_tip_sim == r.y_tip_model
        for r in clean.records
    )

    pert = PerturbationModel(x_bias_mm=3.0)
    closing = simulate_free(geom, traj, pert)
    opening = simulate_free(
        geom, MotorTrajectory(samples=tuple(reversed(traj.samples))), pert
    )
    backlash_ok = all(
        a.x_left_sim == b.x_left_sim
        for a, b in zip(closing.records, reversed(opening.records))
    )

    hinged = simulate_free(geom, traj, PerturbationModel(x_bias_mm=-10.0))
    unhinged = simulate_free(geom, traj, PerturbationModel(x_bias_mm=10.0))
    bias_ok = True
    for rh, ru in zip(hinged.records, unhinged.records):
        dev_h = rh.x_left_sim - rh.x_left_model
        dev_u = ru.x_left_sim - ru.x_left_model
        bias_ok &= dev_h * dev_u < 0
        bias_ok &= abs(dev_h) <= 10.0 + 1e-12 and abs(dev_u) <= 10.0 + 1e-12

    report(10, "zero perturbation exact, zero backlash symmetric, bias bounded opposite",
           zero_ok and backlash_ok and bias_ok)


def test_criterion_11_cli_determinism(tmp_path):
    cloud = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=2000, seed=0,
                          center=(0.0, 0.0, 0.06))
    cloud_path = tmp_path / "view0.xyz"
    with open(cloud_path, "w") as fh:
        write_cloud_xyz(cloud, fh)
    manifest = tmp_path / "scene.json"
    manifest.write_text(json.dumps(
        {"views": [{"cloud": "view0.xyz",
                    "transform": [float(v) for v in np.eye(4).ravel()]}]}
    ))
    est_path = tmp_path / "est.json"
    est_path.write_text(json.dumps({
        "centroid_m": [0.0, 0.0, 0.06],
        "extents_m": [0.08, 0.08, 0.12],
        "point_count": 2000,
        "dominant_axis": "Z",
    }))

    commands = [
        ["fk", "--from", "-0.8", "--to", "-1.4"],
        ["estimate", "--manifest", str(manifest)],
        ["plan", "--estimate", str(est_path), "--mass", "0.1"],
        ["simulate-slide"],
    ]
    identical = True
    for i, cmd in enumerate(commands):
        out_a, out_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert cli_main(cmd + ["--out", str(out_a)]) == 0
        assert cli_main(cmd + ["--out", str(out_b)]) == 0
        bytes_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
        bytes_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
        identical &= bytes_a == bytes_b
    report(11, "all four commands byte-identical across repeated runs", identical)
