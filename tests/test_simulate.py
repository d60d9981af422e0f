import io

import numpy as np
import pytest

from softgrip import (
    ConfigError,
    GripperGeometry,
    InsufficientDataError,
    InvariantViolationError,
    MotorTrajectory,
    PerturbationModel,
    SlideConfig,
    SlideRecord,
    flex_feedback_direction,
    forward_kinematics,
    sample_trajectory,
    simulate_free,
    simulate_slide,
    write_slide_trace_csv,
)
from softgrip.inputs import from_dict

# From tools/fk_oracle.py: fingertip height at the sliding-closed angle.
SLIDE_SURFACE_Y = 403.09463520984245


def closing_traj(geom, step=0.015):
    return sample_trajectory(geom, geom.theta_open, geom.theta_closed, step)


def opening_traj(geom, step=0.015):
    return sample_trajectory(geom, geom.theta_closed, geom.theta_open, step)


# ---------------------------------------------------------------------------
# free simulation
# ---------------------------------------------------------------------------

def test_zero_perturbation_equals_model_bitwise(geom):
    trace = simulate_free(geom, closing_traj(geom))
    for r in trace.records:
        assert r.x_left_sim == r.x_left_model
        assert r.y_tip_sim == r.y_tip_model
        assert r.theta_eff == r.theta


def test_zero_backlash_open_close_traces_identical(geom):
    pert = PerturbationModel(x_bias_mm=3.0)
    closing = simulate_free(geom, closing_traj(geom), pert)
    reverse = MotorTrajectory(samples=tuple(reversed(closing_traj(geom).samples)))
    opening = simulate_free(geom, reverse, pert)
    close_by_index = list(reversed(closing.records))
    for r, other in zip(opening.records, close_by_index):
        assert r.theta == other.theta
        assert r.x_left_sim == other.x_left_sim
        assert r.y_tip_sim == other.y_tip_sim


def test_backlash_hysteresis_envelope(geom):
    width = 0.05
    pert = PerturbationModel(backlash_width_rad=width)
    closing = simulate_free(geom, closing_traj(geom), pert)
    reverse = MotorTrajectory(samples=tuple(reversed(closing_traj(geom).samples)))
    opening = simulate_free(geom, reverse, pert)

    # Steady state rides half the play on each side of the command, so the
    # branches sit one full backlash width apart in effective angle.
    half = width / 2.0
    for r in closing.records[8:]:
        assert r.theta_eff == pytest.approx(r.theta + half, abs=1e-12)
    for r in opening.records[8:]:
        assert r.theta_eff == pytest.approx(r.theta - half, abs=1e-12)

    # Against the ideal chain at shifted angles: the open/close split at one
    # command angle equals the x spread across one full backlash width.
    open_by_theta = {r.theta: r for r in opening.records[8:]}
    checked = 0
    for r in closing.records[8:]:
        other = open_by_theta.get(r.theta)
        if other is None:
            continue
        checked += 1
        split = abs(r.x_left_sim - other.x_left_sim)
        expected = abs(
            forward_kinematics(geom, r.theta + half).x_left
            - forward_kinematics(geom, r.theta - half).x_left
        )
        assert split == pytest.approx(expected, abs=1e-12)
    assert checked >= 20


def test_backlash_engages_after_transient(geom):
    width = 0.06
    pert = PerturbationModel(backlash_width_rad=width)
    trace = simulate_free(geom, closing_traj(geom), pert)
    # The run starts centered in the play and only reaches the steady lag
    # after w/2 of command travel: the reversal dead-band in action.
    assert trace.records[0].theta_eff == trace.records[0].theta
    transient = int(np.ceil((width / 2.0) / 0.015))
    steady = trace.records[transient + 1]
    assert steady.theta_eff == pytest.approx(steady.theta + width / 2.0, abs=1e-12)


def test_x_bias_directions_oppose(geom):
    hinged = PerturbationModel(x_bias_mm=-10.0)
    unhinged = PerturbationModel(x_bias_mm=10.0)
    traj = closing_traj(geom)
    trace_h = simulate_free(geom, traj, hinged)
    trace_u = simulate_free(geom, traj, unhinged)
    for rh, ru in zip(trace_h.records, trace_u.records):
        dev_h = rh.x_left_sim - rh.x_left_model
        dev_u = ru.x_left_sim - ru.x_left_model
        assert dev_h * dev_u < 0
        assert abs(dev_h) <= 10.0 + 1e-12
        assert abs(dev_u) <= 10.0 + 1e-12
    # negative bias narrows the opening (left tip pulled toward center)
    assert trace_h.records[0].x_left_sim > trace_h.records[0].x_left_model
    assert trace_u.records[0].x_left_sim < trace_u.records[0].x_left_model


def test_noise_is_seeded_and_bounded(geom):
    pert = PerturbationModel(noise_sd_mm=0.25, seed=123)
    traj = closing_traj(geom)
    a = simulate_free(geom, traj, pert)
    b = simulate_free(geom, traj, pert)
    assert all(
        ra.x_left_sim == rb.x_left_sim and ra.y_tip_sim == rb.y_tip_sim
        for ra, rb in zip(a.records, b.records)
    )
    c = simulate_free(geom, traj, PerturbationModel(noise_sd_mm=0.25, seed=7))
    assert any(ra.x_left_sim != rc.x_left_sim for ra, rc in zip(a.records, c.records))
    # y deviation carries no structural bias and stays within 4 sigma
    for r in a.records:
        assert abs(r.y_tip_sim - r.y_tip_model) <= 4 * 0.25


def test_perturbation_model_caps(geom):
    with pytest.raises(InvariantViolationError):
        PerturbationModel(x_bias_mm=11.0)
    with pytest.raises(InvariantViolationError):
        PerturbationModel(backlash_width_rad=-0.1)
    with pytest.raises(InvariantViolationError):
        PerturbationModel(noise_sd_mm=-1.0)


# ---------------------------------------------------------------------------
# sliding simulation
# ---------------------------------------------------------------------------

def test_slide_default_config_mirrors_reference_trace(geom):
    trace = simulate_slide(geom, SlideConfig())
    assert trace.surface_y_mm == pytest.approx(SLIDE_SURFACE_Y, abs=1e-9)
    assert trace.closure_theta == -1.9
    assert trace.records[-1].phase == "closed"
    assert trace.contact_theta == geom.theta_open
    assert not trace.warnings


def test_slide_y_sim_equals_surface_during_sliding(geom):
    trace = simulate_slide(geom, SlideConfig())
    sliding = [r for r in trace.records if r.phase == "sliding"]
    assert sliding
    for r in sliding:
        assert r.y_sim == trace.surface_y_mm  # exact, not approximate


def test_slide_y_sim_is_min_everywhere(geom):
    trace = simulate_slide(geom, SlideConfig(surface_y_mm=420.0))
    for r in trace.records:
        assert r.y_sim == min(r.y_free, trace.surface_y_mm)
        assert r.y_sim <= r.y_free
        assert (r.bend == 0.0) == (r.y_sim == r.y_free)


def test_slide_flex_nondecreasing_then_constant(geom):
    trace = simulate_slide(geom, SlideConfig())
    flex = [r.flex for r in trace.records]
    closure_idx = next(i for i, r in enumerate(trace.records) if r.phase == "closed")
    for a, b in zip(flex, flex[1:]):
        assert b >= a
    tail = flex[closure_idx:]
    assert all(f == tail[0] for f in tail)


def test_slide_phase_order(geom):
    # Surface between the open and closed tip heights: contact mid-sweep is
    # impossible for a monotone closing sweep, so phases go straight from
    # sliding to closed; an unreachable surface yields approach-only.
    for surface in (SLIDE_SURFACE_Y, 420.0, 500.0):
        trace = simulate_slide(geom, SlideConfig(surface_y_mm=surface))
        order = {"approach": 0, "sliding": 1, "closed": 2}
        ranks = [order[r.phase] for r in trace.records]
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))
        assert trace.records[-1].phase == "closed"


def test_slide_early_closure_when_surface_releases(geom):
    # Surface midway: the ideal tip retreats above it before theta_to, the
    # bend hits zero, and the run is closed from that sample on.
    trace = simulate_slide(geom, SlideConfig(surface_y_mm=420.0))
    assert trace.contact_theta == geom.theta_open
    assert trace.closure_theta > -1.9
    closed = [r for r in trace.records if r.phase == "closed"]
    assert len(closed) > 1
    assert all(r.bend == 0.0 for r in closed)


def test_slide_no_contact_warning(geom):
    # Surface beyond the fingertip reach over the whole sweep.
    trace = simulate_slide(geom, SlideConfig(surface_y_mm=500.0))
    assert all(r.bend == 0.0 for r in trace.records)
    assert trace.warnings == ("no_contact",)
    assert trace.contact_theta is None
    assert all(r.phase == "approach" for r in trace.records[:-1])


def test_slide_peak_bend_matches_first_contact(geom):
    trace = simulate_slide(geom, SlideConfig())
    first = trace.records[0]
    assert trace.peak_bend == first.bend
    assert first.bend == pytest.approx(
        forward_kinematics(geom, geom.theta_open).y_tip - SLIDE_SURFACE_Y, abs=1e-9
    )


def test_slide_config_validation():
    with pytest.raises(ConfigError):
        SlideConfig(theta_from=-1.9, theta_to=-0.8)
    with pytest.raises(ConfigError):
        SlideConfig(step=0.0)
    with pytest.raises(ConfigError):
        from_dict(SlideConfig, {"surface_y_mm": 1.0, "bogus": 2.0}, "slide config")


def test_slide_trace_csv(geom):
    trace = simulate_slide(geom, SlideConfig())
    buf = io.StringIO()
    write_slide_trace_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "theta,y_free,y_sim,bend,flex,phase"
    assert len(lines) == len(trace.records) + 1
    assert lines[-1].endswith(",closed")


# ---------------------------------------------------------------------------
# flex feedback
# ---------------------------------------------------------------------------

def rec(theta, flex):
    return SlideRecord(theta=theta, y_free=0.0, y_sim=0.0, bend=0.0, flex=flex, phase="sliding")


def test_feedback_constant_at_offset_descends():
    records = [rec(-0.8 - 0.015 * i, 2.0) for i in range(5)]
    assert flex_feedback_direction(records, flex_offset=2.0) == "descend"


def test_feedback_rising_past_threshold_ascends():
    records = [rec(-0.8 - 0.015 * i, 2.0 + 3.0 * i) for i in range(5)]
    assert flex_feedback_direction(records, flex_offset=2.0, ascend_threshold=1.0) == "ascend"


def test_feedback_rise_then_plateau_holds():
    flex = [0.0, 0.3, 0.6, 0.8, 0.9, 0.9, 0.9, 0.9]
    records = [rec(-0.8 - 0.015 * i, f) for i, f in enumerate(flex)]
    assert flex_feedback_direction(records, ascend_threshold=1.0) == "hold"


def test_feedback_on_slide_trace_plateau(geom):
    trace = simulate_slide(geom, SlideConfig())
    suffix = trace.records[-10:]
    assert flex_feedback_direction(suffix, ascend_threshold=1.0) == "hold"


def test_feedback_on_no_contact_trace_descends(geom):
    trace = simulate_slide(geom, SlideConfig(surface_y_mm=500.0, flex_offset=1.5))
    assert flex_feedback_direction(trace.records, flex_offset=1.5) == "descend"


def test_mid_sweep_contact_covers_all_three_phases():
    # A linkage whose fingertip height rises toward the surface and retreats
    # again mid-sweep exercises the full approach -> sliding -> closed
    # ordering with a rise-then-plateau flex signal.
    g = GripperGeometry(r1=20.0, r2=60.0, e=73.2, c=0.0, d=30.0, l=150.0,
                        delta_x=5.0, delta_y=10.0,
                        theta_open=-0.8, theta_closed=-1.4)
    cfg = SlideConfig(surface_y_mm=159.8, theta_from=-0.8, theta_to=-1.9)
    trace = simulate_slide(g, cfg)

    phases = [r.phase for r in trace.records]
    assert "approach" in phases and "sliding" in phases and "closed" in phases
    order = {"approach": 0, "sliding": 1, "closed": 2}
    ranks = [order[p] for p in phases]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))
    assert trace.contact_theta is not None
    assert trace.contact_theta < cfg.theta_from  # onset mid-sweep, not at start

    for r in trace.records:
        if r.phase == "sliding":
            assert r.y_sim == trace.surface_y_mm

    flex = [r.flex for r in trace.records]
    rises = sum(1 for a, b in zip(flex, flex[1:]) if b > a)
    assert rises >= 2
    closed_at = phases.index("closed")
    assert all(f == flex[closed_at] for f in flex[closed_at:])
    assert flex_feedback_direction(trace.records[closed_at - 1:], ascend_threshold=5.0) == "hold"


def test_feedback_needs_two_records():
    with pytest.raises(InsufficientDataError):
        flex_feedback_direction([rec(-0.8, 0.0)])
