"""Grasp planning: enveloping grasps, pinch grasps for small-height
objects, and capacity validation of a plan.

Both planners emit an arm-compensation trajectory alongside the motor
trajectory.  An enveloping grasp must keep the root of the grasp (the
slider displacement) fixed in the world while the fingers wrap, so the arm
translates opposite the slider motion.  A pinch grasp must keep the
fingertip height fixed while closing, because the tips drop as the motor
closes.  Object estimates arrive in meters; everything here works in
millimeters, converted once on entry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import IO, Optional

import numpy as np

from .capacity import CapacityModel
from .errors import ConfigError, ObjectTooLargeError, SurfaceConflictError
from .geometry import (
    GripperGeometry,
    MotorTrajectory,
    Sweep,
    aperture_window,
    eq_by_value,
    forward_kinematics,
    inverse_kinematics,
    sample_trajectory,
    slider_displacement,
    write_columns,
)
from .perception import (
    APPROACH_HORIZONTAL,
    APPROACH_VERTICAL,
    SMALL_HEIGHT_THRESHOLD_M,
    ObjectEstimate,
    exceeds_aperture,
    is_small_height,
    object_diameter_mm,
)

__all__ = [
    "GraspPlan", "ValidationReport", "plan_envelope_grasp", "plan_pinch_grasp",
    "validate_plan", "write_plan_csv",
]

DEFAULT_SQUEEZE_MARGIN_MM = 5.0


@dataclass(frozen=True)
class GraspPlan:
    """Motor trajectory plus arm compensation for one grasp.

    arm_compensation_mm is the arm displacement along the grasp axis at
    each motor sample, a read-only float64 column; the first displacement
    is always 0.  residual_uncompensated records the slider displacement
    deliberately left to the fingers.
    """

    approach: str
    motor_trajectory: MotorTrajectory | Sweep
    arm_compensation_mm: np.ndarray
    residual_uncompensated: float
    target_theta: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.arm_compensation_mm.flags.writeable = False

    __eq__ = eq_by_value

    @cached_property
    def arm_compensation(self) -> tuple[tuple[float, float], ...]:
        """(theta, displacement mm) pairs, one per motor sample."""
        return tuple(zip(self.motor_trajectory.samples.tolist(),
                         self.arm_compensation_mm.tolist()))

    def to_dict(self) -> dict:
        return {
            "approach": self.approach,
            "target_theta": self.target_theta,
            "motor_trajectory": self.motor_trajectory.samples.tolist(),
            "step": self.motor_trajectory.step,
            "arm_compensation": list(map(list, self.arm_compensation)),
            "residual_uncompensated_mm": self.residual_uncompensated,
            "warnings": list(self.warnings),
        }


def plan_envelope_grasp(
    geom: GripperGeometry,
    est: ObjectEstimate,
    squeeze_margin_mm: float = DEFAULT_SQUEEZE_MARGIN_MM,
    *,
    residual_fraction: float = 0.0,
    approach: str = APPROACH_HORIZONTAL,
) -> GraspPlan:
    """Enveloping grasp, closing from fully open.

    The target motor angle reaches an aperture of (object diameter -
    squeeze margin), clamped to the operating window.  Per sample, the arm
    compensation cancels the slider displacement change so the grasp root
    stays fixed while closing; residual_fraction > 0 leaves that share of
    the motion uncompensated (recorded in residual_uncompensated).  The
    compensation does not depend on the approach: the plan records the
    approach decided for the object (perception.decide_approach), and
    validate_plan checks the payload for it.

    Raises ConfigError for a non-finite squeeze margin and
    ObjectTooLargeError when the object cannot fit inside the fully open
    fingers.
    """
    if not 0.0 <= residual_fraction <= 1.0:
        raise ConfigError(f"residual_fraction must be in [0, 1], got {residual_fraction}")
    if not math.isfinite(squeeze_margin_mm):
        raise ConfigError(f"squeeze margin must be finite, got {squeeze_margin_mm}")
    diameter = object_diameter_mm(est)
    ap_closed, ap_open = aperture_window(geom)
    if (too_wide := exceeds_aperture(est, geom)) is not None:
        raise too_wide

    plan_warnings: list[str] = []
    target_aperture = diameter - squeeze_margin_mm
    if target_aperture <= ap_closed:
        target_theta = geom.theta_closed
        plan_warnings.append("squeeze_clamped_to_closed")
    elif target_aperture >= ap_open:
        target_theta = geom.theta_open
        plan_warnings.append("squeeze_clamped_to_open")
    else:
        target_theta = inverse_kinematics(geom, target_aperture)

    theta_start = geom.theta_open
    if target_theta == theta_start:
        trajectory = MotorTrajectory(samples=(theta_start,))
    else:
        trajectory = sample_trajectory(geom, theta_start, target_theta)

    keep = 1.0 - residual_fraction
    delta_start = slider_displacement(geom, theta_start)
    shift = keep * (delta_start - slider_displacement(geom, trajectory.samples))
    residual = residual_fraction * (
        slider_displacement(geom, target_theta) - delta_start
    )
    return GraspPlan(
        approach=approach,
        motor_trajectory=trajectory,
        arm_compensation_mm=shift,
        residual_uncompensated=float(residual),
        target_theta=target_theta,
        warnings=tuple(plan_warnings),
    )


def plan_pinch_grasp(
    geom: GripperGeometry,
    est: ObjectEstimate,
    surface_y_mm: float = float("-inf"),
) -> GraspPlan:
    """Vertical pinch grasp for a small-height object on a surface.

    Closes fully; per sample the arm compensation restores the fingertip
    height lost while closing, so the tips hold a constant height above
    the surface.  The gripper is centered so the midpoint between the
    fingertips (x = 0 in the center frame) aligns with the object
    centroid, placing the object between the cushion centers.

    surface_y_mm is the support surface coordinate measured along the
    finger axis (larger = farther from the gripper body); the default -inf
    means no surface, and NaN raises ConfigError.  The plan fails with
    SurfaceConflictError when the fingertips cannot reach the surface.
    """
    if math.isnan(surface_y_mm):
        raise ConfigError("surface_y_mm must not be nan")
    if not is_small_height(est):
        raise ObjectTooLargeError(
            f"object height {est.extents[2] * 1000.0:.1f} mm exceeds the "
            f"{SMALL_HEIGHT_THRESHOLD_M * 1000:g} mm pinch class; use the envelope planner"
        )
    if (too_wide := exceeds_aperture(est, geom)) is not None:
        raise too_wide

    theta_start = geom.theta_open
    tip_start = forward_kinematics(geom, theta_start).y_tip
    if tip_start < surface_y_mm:
        raise SurfaceConflictError(
            f"fingertips reach y = {tip_start:.1f} mm but the surface sits at "
            f"{surface_y_mm:.1f} mm"
        )

    trajectory = sample_trajectory(geom, theta_start, geom.theta_closed)
    tips = forward_kinematics(geom, trajectory.samples).y_tip
    return GraspPlan(
        approach=APPROACH_VERTICAL,
        motor_trajectory=trajectory,
        arm_compensation_mm=tip_start - tips,
        residual_uncompensated=0.0,
        target_theta=geom.theta_closed,
        warnings=(),
    )


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail verdicts of a plan against the capacity model."""

    payload_ok: bool
    payload_limit_kg: float
    payload_margin_kg: float
    predicted_deflection_mm: Optional[float]
    aperture_ok: bool
    messages: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.payload_ok and self.aperture_ok

    def to_dict(self) -> dict:
        return {**asdict(self), "messages": list(self.messages), "passed": self.passed}


def validate_plan(
    plan: GraspPlan,
    est: ObjectEstimate,
    mass_kg: float,
    capacity: CapacityModel,
    hinged: bool = True,
) -> ValidationReport:
    """Check a plan's payload against the capacity table.

    The payload limit is interpolated at the object diameter for the
    plan's approach direction.  Deflection is predicted for horizontal
    approaches only (it is not observed vertically).  Raises
    MissingCapacityDataError when the table has no covering entries.
    """
    if not (math.isfinite(mass_kg) and mass_kg >= 0):
        raise ConfigError(f"mass must be finite and non-negative, got {mass_kg}")
    diameter = object_diameter_mm(est)
    limit = capacity.payload_limit(diameter, plan.approach, hinged)
    margin = limit - mass_kg
    payload_ok = mass_kg <= limit
    messages = []
    if not payload_ok:
        messages.append(
            f"mass {mass_kg:.3f} kg exceeds the {limit:.3f} kg limit "
            f"(margin {margin:.3f} kg)"
        )

    deflection = None
    if plan.approach == APPROACH_HORIZONTAL and limit > 0:
        deflection = capacity.predict_deflection(hinged, mass_kg / limit)

    aperture_ok = "squeeze_clamped_to_closed" not in plan.warnings
    if not aperture_ok:
        messages.append("squeeze target below the closed aperture; grip force marginal")

    return ValidationReport(
        payload_ok=payload_ok,
        payload_limit_kg=limit,
        payload_margin_kg=margin,
        predicted_deflection_mm=deflection,
        aperture_ok=aperture_ok,
        messages=tuple(messages),
    )


PLAN_TRAJECTORY_HEADER = "theta,arm_compensation_mm"


def write_plan_csv(plan: GraspPlan, stream: IO[str]) -> None:
    """Write the compensation trajectory as CSV."""
    columns = (plan.motor_trajectory.samples, plan.arm_compensation_mm)
    write_columns(PLAN_TRAJECTORY_HEADER, [columns], len(plan.motor_trajectory), stream)
