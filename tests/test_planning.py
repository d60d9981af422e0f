import io
from dataclasses import replace

import numpy as np
import pytest

from softgrip import (
    MissingCapacityDataError,
    ObjectEstimate,
    ObjectTooLargeError,
    SurfaceConflictError,
    aperture,
    aperture_window,
    decide_approach,
    forward_kinematics,
    plan_envelope_grasp,
    plan_pinch_grasp,
    slider_displacement,
    validate_plan,
    write_plan_csv,
)

# From tools/fk_oracle.py for the default geometry.
ENVELOPE_FULL_CLOSE_COMP = 72.741744584925688
PINCH_FULL_CLOSE_COMP = 7.0015087494897967


def estimate_for(diameter_m, height_m, centroid=(0.0, 0.0, 0.1)):
    extents = (diameter_m, diameter_m, height_m)
    axis = "XYZ"[int(np.argmax(extents))]
    return ObjectEstimate(centroid=centroid, extents=extents,
                          point_count=5000, dominant_axis=axis)


# ---------------------------------------------------------------------------
# envelope plans
# ---------------------------------------------------------------------------

def test_envelope_compensation_cancels_root_motion(geom):
    plan = plan_envelope_grasp(geom, estimate_for(0.08, 0.12))
    theta0 = plan.motor_trajectory.samples[0]
    base = slider_displacement(geom, theta0)
    for theta, comp in plan.arm_compensation:
        assert abs(slider_displacement(geom, theta) + comp - base) <= 1e-9


def test_envelope_first_compensation_is_zero(geom):
    plan = plan_envelope_grasp(geom, estimate_for(0.08, 0.12))
    assert plan.arm_compensation[0][1] == 0.0
    assert plan.approach == "horizontal"


def test_envelope_target_matches_squeezed_aperture(geom):
    plan = plan_envelope_grasp(geom, estimate_for(0.09, 0.12), squeeze_margin_mm=5.0)
    assert aperture(geom, plan.target_theta) == pytest.approx(85.0, abs=1e-5)


def test_envelope_compensation_magnitude_at_target(geom):
    plan = plan_envelope_grasp(geom, estimate_for(0.08, 0.12))
    theta0 = plan.motor_trajectory.samples[0]
    final_theta, final_comp = plan.arm_compensation[-1]
    expected = slider_displacement(geom, theta0) - slider_displacement(geom, final_theta)
    assert final_comp == pytest.approx(expected, abs=1e-12)
    assert abs(final_comp) < ENVELOPE_FULL_CLOSE_COMP  # partial closure never exceeds full travel


def test_envelope_compensation_is_continuous(geom):
    plan = plan_envelope_grasp(geom, estimate_for(0.08, 0.12))
    comps = [c for _, c in plan.arm_compensation]
    assert max(abs(b - a) for a, b in zip(comps, comps[1:])) < 5.0


def test_envelope_degenerate_start_equals_target(geom):
    # Squeeze target right at the open aperture: the plan holds in place.
    _, ap_open = aperture_window(geom)
    est = estimate_for(ap_open / 1000.0, 0.12)
    plan = plan_envelope_grasp(geom, est, squeeze_margin_mm=0.0)
    assert plan.target_theta == geom.theta_open
    assert len(plan.motor_trajectory) == 1
    assert plan.arm_compensation == ((geom.theta_open, 0.0),)


def test_envelope_rejects_oversized_object(geom):
    with pytest.raises(ObjectTooLargeError):
        plan_envelope_grasp(geom, estimate_for(0.14, 0.2))


def test_decision_and_planner_share_one_aperture_test(geom):
    # On this linkage the open aperture a is 102.9715823779999 mm.  The width
    # one ulp above a / 1000 m is above a / 1000 in meters, yet it rounds back
    # to a in millimeters, so a test in each unit would disagree there.
    wide = replace(geom, delta_x=89.005)
    width = np.nextafter(aperture_window(wide)[1] / 1000.0, 1.0)
    assert width == 0.1029715823779999
    assert decide_approach(estimate_for(width, 0.12), wide).approach == "horizontal"
    for w in width + np.spacing(width) * np.arange(-2, 3):
        est = estimate_for(float(w), 0.12)
        refused = decide_approach(est, wide).approach == "ungraspable"
        try:
            plan_envelope_grasp(wide, est)
        except ObjectTooLargeError:
            assert refused, w
        else:
            assert not refused, w


def test_envelope_squeeze_clamps_to_closed_with_warning(geom):
    ap_closed, _ = aperture_window(geom)
    est = estimate_for(0.081, 0.12)
    plan = plan_envelope_grasp(geom, est, squeeze_margin_mm=81.0 - ap_closed + 1.0)
    assert plan.target_theta == geom.theta_closed
    assert "squeeze_clamped_to_closed" in plan.warnings


def test_envelope_residual_fraction(geom):
    est = estimate_for(0.08, 0.12)
    full = plan_envelope_grasp(geom, est)
    half = plan_envelope_grasp(geom, est, residual_fraction=0.5)
    assert full.residual_uncompensated == 0.0
    theta0 = full.motor_trajectory.samples[0]
    total = slider_displacement(geom, full.target_theta) - slider_displacement(geom, theta0)
    assert half.residual_uncompensated == pytest.approx(0.5 * total, abs=1e-12)
    # compensated share halves step for step
    for (_, c_full), (_, c_half) in zip(full.arm_compensation, half.arm_compensation):
        assert c_half == pytest.approx(0.5 * c_full, abs=1e-12)


def test_envelope_plans_are_deterministic(geom):
    est = estimate_for(0.08, 0.12)
    assert plan_envelope_grasp(geom, est) == plan_envelope_grasp(geom, est)


# ---------------------------------------------------------------------------
# pinch plans
# ---------------------------------------------------------------------------

def test_pinch_holds_world_fingertip_height(geom):
    plan = plan_pinch_grasp(geom, estimate_for(0.03, 0.008))
    theta0 = plan.motor_trajectory.samples[0]
    base = forward_kinematics(geom, theta0).y_tip
    for theta, comp in plan.arm_compensation:
        world = forward_kinematics(geom, theta).y_tip + comp
        assert abs(world - base) <= 1e-9
    assert plan.approach == "vertical"


def test_pinch_total_compensation_matches_oracle(geom):
    plan = plan_pinch_grasp(geom, estimate_for(0.03, 0.008))
    assert plan.arm_compensation[-1][1] == pytest.approx(
        PINCH_FULL_CLOSE_COMP, abs=1e-9
    )


def test_pinch_rejects_tall_object(geom):
    with pytest.raises(ObjectTooLargeError):
        plan_pinch_grasp(geom, estimate_for(0.03, 0.012))


def test_pinch_rejects_wide_object(geom):
    with pytest.raises(ObjectTooLargeError):
        plan_pinch_grasp(geom, estimate_for(0.2, 0.008))


def test_pinch_surface_conflict(geom):
    tip_open = forward_kinematics(geom, geom.theta_open).y_tip
    with pytest.raises(SurfaceConflictError):
        plan_pinch_grasp(geom, estimate_for(0.03, 0.008), surface_y_mm=tip_open + 1.0)
    plan_pinch_grasp(geom, estimate_for(0.03, 0.008), surface_y_mm=tip_open - 1.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_zero_mass_always_passes_payload(geom, capacity):
    plan = plan_envelope_grasp(geom, estimate_for(0.08, 0.12))
    report = validate_plan(plan, estimate_for(0.08, 0.12), 0.0, capacity)
    assert report.payload_ok
    assert report.passed
    assert report.payload_margin_kg == report.payload_limit_kg


def test_overweight_mass_fails_with_margin(geom, capacity):
    est = estimate_for(0.08, 0.12)
    plan = plan_envelope_grasp(geom, est)
    limit = capacity.payload_limit(80.0, "horizontal", True)
    report = validate_plan(plan, est, limit + 0.5, capacity)
    assert not report.payload_ok
    assert report.payload_margin_kg == pytest.approx(-0.5, abs=1e-9)
    assert report.messages


def test_validation_predicts_deflection_horizontal_only(geom, capacity):
    est = estimate_for(0.08, 0.12)
    plan = plan_envelope_grasp(geom, est)
    report = validate_plan(plan, est, 0.65, capacity)
    assert report.predicted_deflection_mm is not None
    expected = capacity.predict_deflection(True, 0.65 / report.payload_limit_kg)
    assert report.predicted_deflection_mm == pytest.approx(expected, abs=1e-12)

    pinch_est = estimate_for(0.03, 0.008)
    pinch = plan_pinch_grasp(geom, pinch_est)
    pinch_report = validate_plan(pinch, pinch_est, 0.05, capacity)
    assert pinch_report.predicted_deflection_mm is None


def test_validation_missing_capacity_data(geom, capacity):
    pinch_est = estimate_for(0.02, 0.008)
    plan = plan_pinch_grasp(geom, pinch_est)
    with pytest.raises(MissingCapacityDataError):
        validate_plan(plan, pinch_est, 0.05, capacity, hinged=False)
    report = validate_plan(plan, pinch_est, 0.05, capacity, hinged=True)
    assert report.payload_ok


def test_plan_csv_format(geom):
    plan = plan_envelope_grasp(geom, estimate_for(0.08, 0.12))
    buf = io.StringIO()
    write_plan_csv(plan, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "theta,arm_compensation_mm"
    assert len(lines) == len(plan.arm_compensation) + 1
    theta, comp = lines[1].split(",")
    assert float(theta) == plan.motor_trajectory.samples[0]
    assert float(comp) == 0.0
