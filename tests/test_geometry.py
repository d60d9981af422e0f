"""Kinematic chain tests.

Frozen expected values come from tools/fk_oracle.py (50-digit evaluation
of the chain, independent of the package implementation); rerun that
script after any change to the default geometry.
"""

import io
import math
import warnings

import numpy as np
import pytest

from softgrip import (
    ConfigError,
    DomainError,
    GripperGeometry,
    InvalidRangeError,
    MotorTrajectory,
    OperatingRangeWarning,
    OutOfRangeError,
    aperture,
    aperture_window,
    base_length,
    fingertip_angle,
    fingertip_jacobian,
    fingertip_positions,
    fk_trace,
    forward_kinematics,
    inverse_kinematics,
    sample_trajectory,
    slider_coordinate,
    slider_displacement,
    write_fk_trace_csv,
)
from softgrip import geometry as geometry_mod
from softgrip.cli import main

# Output of tools/fk_oracle.py for the shipped default geometry.
FROZEN_STATES = {
    -0.8: {"y_b": 433.1613290765572, "delta": 591.8386709234428, "b": 725.72240726081155,
           "alpha": 1.4813456361118766, "x_left": -51.480791189000013,
           "x_right": 51.480791189000013, "y_tip": 438.32082062717914},
    -1.0: {"y_b": 410.38474331466626, "delta": 614.61525668533374, "b": 744.41380545391464,
           "alpha": 1.4530332070055023, "x_left": -39.653731425903721,
           "x_right": 39.653731425903721, "y_tip": 437.09105214307002},
    -1.4: {"y_b": 360.41958449163151, "delta": 664.58041550836849, "b": 786.1724547942873,
           "alpha": 1.3671304408228878, "x_left": -4.0504639420312671,
           "x_right": 4.0504639420312671, "y_tip": 431.31931187768934},
    -1.9: {"y_b": 302.82643468350652, "delta": 722.17356531649348, "b": 835.42483709902693,
           "alpha": 1.1484509644022871, "x_left": 83.158358709177226,
           "x_right": -83.158358709177226, "y_tip": 403.09463520984245},
}
APERTURE_OPEN = 102.96158237800003
APERTURE_CLOSED = 8.1009278840625342

ORACLE_ATOL = 1e-9


def small_geometry(**overrides):
    """Compact linkage for the standalone arithmetic cases."""
    base = dict(r1=20.0, r2=60.0, e=100.0, c=10.0, d=30.0, l=150.0,
                delta_x=5.0, delta_y=10.0, theta_open=-0.8, theta_closed=-1.4)
    base.update(overrides)
    return GripperGeometry(**base)


# ---------------------------------------------------------------------------
# slider coordinate / displacement
# ---------------------------------------------------------------------------

def test_slider_coordinate_at_zero_is_r1_plus_r2():
    g = small_geometry()
    assert slider_coordinate(g, 0.0) == pytest.approx(80.0, abs=1e-12)


def test_slider_coordinate_at_right_angle():
    g = small_geometry()
    expected = math.sqrt(60.0 ** 2 - 20.0 ** 2)
    assert slider_coordinate(g, math.pi / 2) == pytest.approx(expected, abs=1e-12)


def test_slider_coordinate_frozen(geom):
    assert slider_coordinate(geom, -0.8) == pytest.approx(
        FROZEN_STATES[-0.8]["y_b"], abs=ORACLE_ATOL
    )


def test_slider_coordinate_is_even(geom):
    for th in np.linspace(-1.9, -0.8, 25):
        assert slider_coordinate(geom, float(th)) == slider_coordinate(geom, -float(th))


def test_slider_displacement_is_composition(geom):
    th = -0.8
    expected = geom.e - geom.c - slider_coordinate(geom, th)
    assert slider_displacement(geom, th) == expected
    assert slider_displacement(geom, th) == pytest.approx(
        FROZEN_STATES[-0.8]["delta"], abs=ORACLE_ATOL
    )


def test_slider_displacement_zero_when_offsets_cancel():
    probe = small_geometry()
    y_b = slider_coordinate(probe, -1.0)
    g = small_geometry(e=y_b, c=0.0)
    assert slider_displacement(g, -1.0) == 0.0


def test_slider_displacement_even(geom):
    for th in (-0.9, -1.2, -1.7):
        assert slider_displacement(geom, th) == slider_displacement(geom, -th)


# ---------------------------------------------------------------------------
# base length / fingertip angle / fingertip positions
# ---------------------------------------------------------------------------

def test_base_length_degenerate_and_pythagorean():
    g = small_geometry()
    assert base_length(g, 0.0) == 30.0
    assert base_length(g, 40.0) == 50.0


def test_base_length_frozen_via_chain(geom):
    delta = slider_displacement(geom, -1.4)
    assert base_length(geom, delta) == pytest.approx(
        FROZEN_STATES[-1.4]["b"], abs=ORACLE_ATOL
    )


def test_base_length_never_below_d(geom):
    for th in np.linspace(-1.9, -0.8, 50):
        st = forward_kinematics(geom, float(th))
        assert st.b >= geom.d


def test_base_length_equals_d_iff_delta_zero():
    probe = small_geometry()
    y_b = slider_coordinate(probe, -1.0)
    g = small_geometry(e=y_b, c=0.0)
    st = forward_kinematics(g, -1.0)
    assert st.delta == 0.0
    assert st.b == g.d


def test_fingertip_angle_zero_displacement():
    g = small_geometry()
    assert fingertip_angle(g, 0.0, 30.0) == pytest.approx(math.acos(0.1), abs=1e-15)


def test_fingertip_angle_half_base_displacement():
    g = small_geometry()
    expected = math.pi / 6 + math.acos(0.1)
    assert fingertip_angle(g, 15.0, 30.0) == pytest.approx(expected, abs=1e-15)


def test_fingertip_angle_frozen(geom):
    st = forward_kinematics(geom, -1.0)
    assert st.alpha == pytest.approx(FROZEN_STATES[-1.0]["alpha"], abs=ORACLE_ATOL)


def test_fingertip_angle_rejects_impossible_base():
    g = small_geometry()
    with pytest.raises(DomainError):
        fingertip_angle(g, 100.0, 2 * g.l + 1.0)


def test_fingertip_positions_right_angle():
    g = small_geometry()
    x_left, x_right, y_tip = fingertip_positions(g, math.pi / 2)
    assert x_left == pytest.approx(-g.delta_x, abs=1e-12)
    assert x_right == pytest.approx(g.delta_x, abs=1e-12)
    assert y_tip == pytest.approx(g.l + g.delta_y, abs=1e-12)


def test_fingertip_positions_mirror_identity_exact():
    g = small_geometry()
    for alpha in np.linspace(0.1, math.pi / 2, 40):
        x_left, x_right, _ = fingertip_positions(g, float(alpha))
        assert x_left + x_right == 0.0


def test_fingertip_positions_frozen(geom):
    st = forward_kinematics(geom, -0.8)
    assert st.x_left == pytest.approx(FROZEN_STATES[-0.8]["x_left"], abs=ORACLE_ATOL)
    assert st.y_tip == pytest.approx(FROZEN_STATES[-0.8]["y_tip"], abs=ORACLE_ATOL)


# ---------------------------------------------------------------------------
# forward kinematics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", sorted(FROZEN_STATES))
def test_forward_kinematics_matches_oracle(geom, theta):
    st = forward_kinematics(geom, theta)
    for field, expected in FROZEN_STATES[theta].items():
        assert getattr(st, field) == pytest.approx(expected, abs=ORACLE_ATOL), field


def test_closing_reduces_aperture(geom):
    assert aperture(geom, geom.theta_open) > aperture(geom, geom.theta_closed)


def test_y_tip_decreases_while_closing(geom):
    thetas = np.linspace(geom.theta_open, geom.theta_closed, 200)
    tips = [forward_kinematics(geom, float(th)).y_tip for th in thetas]
    assert all(b < a for a, b in zip(tips, tips[1:]))


def test_monotonicities_over_operating_range(geom):
    thetas = np.linspace(geom.theta_closed, geom.theta_open, 200)
    y_bs = [slider_coordinate(geom, float(th)) for th in thetas]
    deltas = [slider_displacement(geom, float(th)) for th in thetas]
    assert all(b > a for a, b in zip(y_bs, y_bs[1:]))
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_forward_kinematics_even(geom):
    rng = np.random.default_rng(3)
    for th in rng.uniform(-1.9, -0.8, 100):
        a = forward_kinematics(geom, float(th))
        b = forward_kinematics(geom, -float(th))
        assert (a.y_b, a.delta, a.b, a.alpha, a.x_left, a.x_right, a.y_tip) == (
            b.y_b, b.delta, b.b, b.alpha, b.x_left, b.x_right, b.y_tip
        )


def test_check_window_modes(geom):
    with pytest.warns(OperatingRangeWarning):
        geometry_mod.check_window(geom, -1.6)
    with pytest.raises(DomainError, match="outside operating window"):
        geometry_mod.check_window(geom, np.array([-1.0, -1.6]), strict=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geometry_mod.check_window(geom, np.array([geom.theta_closed, geom.theta_open]))
        geometry_mod.check_window(geom, np.array([geom.theta_closed, geom.theta_open]), True)
        # The chain itself checks no window: the sliding regime runs past it.
        forward_kinematics(geom, -1.6)
        fingertip_jacobian(geom, -1.6)


# ---------------------------------------------------------------------------
# inverse kinematics
# ---------------------------------------------------------------------------

def test_ik_roundtrip_100_points(geom):
    for th in np.linspace(geom.theta_closed, geom.theta_open, 100):
        target = aperture(geom, float(th))
        assert abs(inverse_kinematics(geom, target) - float(th)) <= 1e-6


def test_ik_forward_roundtrip_on_targets(geom):
    ap_closed, ap_open = aperture_window(geom)
    for target in np.linspace(ap_closed, ap_open, 100):
        theta = inverse_kinematics(geom, float(target))
        assert abs(aperture(geom, theta) - float(target)) <= 1e-6


def test_ik_rejects_unreachable_targets(geom):
    ap_closed, ap_open = aperture_window(geom)
    with pytest.raises(OutOfRangeError):
        inverse_kinematics(geom, ap_open + 1.0)
    with pytest.raises(OutOfRangeError):
        inverse_kinematics(geom, ap_closed - 1.0)


def _aperture_grid(g, thetas):
    # Independent vectorized evaluation of the chain (numpy ufuncs, not the
    # package's scalar path).
    y_b = g.r1 * np.cos(thetas) + np.sqrt(g.r2 ** 2 - g.r1 ** 2 * np.sin(thetas) ** 2)
    delta = g.e - g.c - y_b
    b = np.sqrt(g.d ** 2 + delta ** 2)
    alpha = np.arcsin(delta / b) + np.arccos(b / (2 * g.l))
    return 2.0 * (g.delta_x - g.l * np.cos(alpha))


def test_ik_against_dense_grid_oracle(geom):
    ap_closed, ap_open = aperture_window(geom)
    target = 0.5 * (ap_closed + ap_open)
    thetas = np.linspace(geom.theta_closed, geom.theta_open, 1_000_000)
    grid_theta = float(thetas[np.argmin(np.abs(_aperture_grid(geom, thetas) - target))])
    solved = inverse_kinematics(geom, target)
    grid_spacing = (geom.theta_open - geom.theta_closed) / (len(thetas) - 1)
    assert abs(solved - grid_theta) <= 2 * grid_spacing


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------

def test_jacobian_matches_central_differences(geom):
    h = 1e-6
    for th in np.linspace(geom.theta_closed + 1e-3, geom.theta_open - 1e-3, 50):
        th = float(th)
        jx, jy = fingertip_jacobian(geom, th)
        plus = forward_kinematics(geom, th + h)
        minus = forward_kinematics(geom, th - h)
        fd_x = (plus.x_left - minus.x_left) / (2 * h)
        fd_y = (plus.y_tip - minus.y_tip) / (2 * h)
        assert abs(jx - fd_x) <= 1e-6 * max(abs(fd_x), 1.0)
        assert abs(jy - fd_y) <= 1e-6 * max(abs(fd_y), 1.0)


def test_jacobian_is_odd(geom):
    for th in (-0.9, -1.1, -1.3):
        jx, jy = fingertip_jacobian(geom, th)
        jx_m, jy_m = fingertip_jacobian(geom, -th)
        assert jx == -jx_m
        assert jy == -jy_m


def test_jacobian_reduction_at_zero_displacement():
    # With delta = 0 the base-angle term contributes nothing: the angle rate
    # collapses to (d delta / d theta) / b.
    probe = small_geometry()
    y_b = slider_coordinate(probe, -1.0)
    g = small_geometry(e=y_b, c=0.0)
    th = -1.0
    st = forward_kinematics(g, th)
    assert st.delta == 0.0

    sin_t, cos_t = math.sin(th), math.cos(th)
    root = math.sqrt(g.r2 ** 2 - (g.r1 * sin_t) ** 2)
    d_delta = g.r1 * sin_t + (g.r1 ** 2 * sin_t * cos_t) / root
    d_alpha = d_delta / st.b

    jx, jy = fingertip_jacobian(g, th)
    assert jx == pytest.approx(-g.l * math.sin(st.alpha) * d_alpha, rel=1e-12)
    assert jy == pytest.approx(g.l * math.cos(st.alpha) * d_alpha, rel=1e-12)


def test_jacobian_singularity_raises(geom):
    # Past the extended window the base length crosses 2l; expect a domain
    # error there, not garbage derivatives.
    with pytest.raises(DomainError):
        fingertip_jacobian(geom, -1.96)


# ---------------------------------------------------------------------------
# trajectory sampling
# ---------------------------------------------------------------------------

def test_sample_trajectory_standard_sweep(geom):
    traj = sample_trajectory(geom, -0.8, -1.4, 0.015)
    assert len(traj) == 41
    assert traj.samples[0] == -0.8
    assert traj.samples[-1] == -1.4


def test_sample_trajectory_single_step(geom):
    traj = sample_trajectory(geom, -1.4 + 0.015, -1.4, 0.015)
    assert len(traj) == 2


def test_sample_trajectory_sliding_range_terminal(geom):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # sampling checks no window: the slide runs past it
        traj = sample_trajectory(geom, -0.8, -1.9, 0.015)
    assert traj.samples[-1] == -1.9
    diffs = np.diff(traj.samples)
    assert np.all(diffs < 0)


def test_sample_trajectory_degenerate_inputs(geom):
    with pytest.raises(InvalidRangeError):
        sample_trajectory(geom, -1.0, -1.0, 0.015)
    with pytest.raises(InvalidRangeError):
        sample_trajectory(geom, -0.8, -1.4, 0.0)
    with pytest.raises(InvalidRangeError):
        sample_trajectory(geom, -0.8, -1.4, -0.015)


def test_sample_trajectory_caps_the_sample_count(geom, monkeypatch):
    with pytest.raises(InvalidRangeError, match="samples"):
        sample_trajectory(geom, -0.8, -1.9, 1e-12)
    with pytest.raises(InvalidRangeError, match="samples"):
        sample_trajectory(geom, -0.8, -1.4, 5e-324)  # the step count overflows to inf
    monkeypatch.setattr(geometry_mod, "MAX_TRAJECTORY_SAMPLES", 41)
    assert len(sample_trajectory(geom, -0.8, -1.4, 0.015)) == 41
    monkeypatch.setattr(geometry_mod, "MAX_TRAJECTORY_SAMPLES", 40)
    with pytest.raises(InvalidRangeError, match="more than 40 samples"):
        sample_trajectory(geom, -0.8, -1.4, 0.015)


def test_motor_trajectory_monotonicity_enforced():
    with pytest.raises(InvalidRangeError):
        MotorTrajectory(samples=(-0.8, -0.9, -0.85))
    with pytest.raises(InvalidRangeError):
        MotorTrajectory(samples=())
    MotorTrajectory(samples=(-0.8,))


@pytest.mark.parametrize(
    "samples", [(math.nan,), (-math.inf,), (-0.8, math.nan), (-0.8, -math.inf)]
)
def test_motor_trajectory_rejects_non_finite_samples(samples):
    with pytest.raises(InvalidRangeError, match="finite"):
        MotorTrajectory(samples=samples)


# ---------------------------------------------------------------------------
# symmetry sweep, CSV, config loading
# ---------------------------------------------------------------------------

def test_mirror_symmetry_exact_over_extended_window(geom):
    rng = np.random.default_rng(11)
    for th in rng.uniform(-1.9, -0.8, 1000):
        st = forward_kinematics(geom, float(th))
        assert st.x_left + st.x_right == 0.0


def test_fk_trace_csv_format(geom):
    traj = sample_trajectory(geom, -0.8, -1.4, 0.015)
    states = fk_trace(geom, traj)
    buf = io.StringIO()
    write_fk_trace_csv(states, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "theta,y_b,delta,b,alpha,x_left,x_right,y_tip"
    assert len(lines) == 42
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -0.8


def test_load_geometry_roundtrip(tmp_path, geom):
    # A geometry file of the shipped values gives the shipped trace.
    import json
    from dataclasses import asdict

    path = tmp_path / "geom.json"
    path.write_text(json.dumps(asdict(geom)))
    sweep = ["fk", "--from", "-0.8", "--to", "-1.4"]
    assert main([*sweep, "--geometry", str(path), "--out", str(tmp_path / "file")]) == 0
    assert main([*sweep, "--out", str(tmp_path / "shipped")]) == 0
    assert ((tmp_path / "file" / "fk_trace.csv").read_bytes()
            == (tmp_path / "shipped" / "fk_trace.csv").read_bytes())


@pytest.mark.parametrize("mutation", [
    lambda d: d.pop("r1"),
    lambda d: d.update(extra_field=1.0),
    lambda d: d.update(r1="not-a-number"),
])
def test_load_geometry_rejects_bad_configs(tmp_path, geom, mutation, capsys):
    import json
    from dataclasses import asdict

    raw = asdict(geom)
    mutation(raw)
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert main(["fk", "--theta", "-0.8", "--geometry", str(path), "--out", str(out)]) == 2
    assert f"geometry {path}" in capsys.readouterr().err
    assert not out.exists()


def test_geometry_invariants_enforced():
    with pytest.raises(ConfigError):
        small_geometry(r1=70.0)  # r1 >= r2
    with pytest.raises(ConfigError):
        small_geometry(d=-1.0)
    with pytest.raises(ConfigError):
        small_geometry(theta_open=-1.4, theta_closed=-0.8)
    with pytest.raises(ConfigError):
        # base length exceeds 2l inside the window
        GripperGeometry(r1=20.0, r2=60.0, e=400.0, c=0.0, d=30.0, l=150.0,
                        delta_x=5.0, delta_y=10.0, theta_open=-0.8, theta_closed=-1.4)


def test_geometry_rejects_legs_too_short_for_the_slide_overtravel(geom):
    # Inside the operating window b stays below 2*400 mm, but at the
    # slide floor (-1.9 rad) it reaches 835.4 mm.
    import dataclasses

    with pytest.raises(ConfigError):
        dataclasses.replace(geom, l=400.0)


def test_ik_at_a_window_end_on_zero(geom):
    # At theta = 0 the slider-crank cosine rounds to just above 1 for this
    # linkage; the solver must still return the window end.
    import dataclasses

    g = dataclasses.replace(geom, theta_open=0.0, theta_closed=-0.6)
    theta = inverse_kinematics(g, aperture(g, 0.0))
    assert g.theta_closed <= theta <= g.theta_open
    assert abs(theta) <= 1e-6


def test_geometry_check_covers_zero_inside_the_window():
    # Both window ends are fine, but b peaks at theta = 0 inside the window.
    with pytest.raises(ConfigError):
        GripperGeometry(r1=120.0, r2=360.0, e=432.5, c=0.0, d=20.0, l=20.0,
                        delta_x=0.0, delta_y=0.0, theta_open=0.8, theta_closed=-0.3)


@pytest.mark.parametrize("overrides", [
    # The finger triangle's '-' root for delta is the chain's branch over
    # part of the window (e.g. at -1.0 rad), unlike the default linkage.
    {},
    # The fingertip angle is negative throughout (alpha ~ -0.5 rad).
    dict(e=-90.0, c=0.0, d=5.0),
    # A window of positive motor angles.
    dict(theta_open=1.4, theta_closed=0.8),
])
def test_ik_roundtrip_on_the_small_linkage(overrides):
    g = small_geometry(**overrides)
    for th in np.linspace(g.theta_closed, g.theta_open, 61):
        theta = inverse_kinematics(g, aperture(g, th))
        assert theta == pytest.approx(th, abs=1e-9)
