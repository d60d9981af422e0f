"""Quasi-static simulation of the real gripper's deviation from the ideal
chain: backlash hysteresis and lateral bias for free motion, and the
compliant sliding contact with a synthetic flex-sensor signal.

The contact model is a kinematic clamp: when the ideal fingertip would
pass the support surface, the penetration is absorbed as finger bend and
the simulated tip rides the surface.  The flex signal is affine in the
running maximum of the bend, so it never decreases while contact develops
and settles once the gripper closes.  Every stochastic term is driven by
an explicit seed; the default simulation is fully deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import IO, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError, InvariantViolationError
from .geometry import (
    DEFAULT_STEP,
    GripperGeometry,
    MotorTrajectory,
    OperatingRangeWarning,
    Trace,
    forward_kinematics,
    sample_trajectory,
    tip_height,
    write_columns,
)

__all__ = [
    "FreeTrace", "PerturbationModel", "SlideConfig", "SlideRecord", "SlideTrace",
    "flex_feedback_direction", "simulate_free", "simulate_slide", "write_slide_trace_csv",
]

X_BIAS_CAP_MM = 10.0  # deviations beyond ~1 cm are outside the modeled regime

PHASE_APPROACH = "approach"
PHASE_SLIDING = "sliding"
PHASE_CLOSED = "closed"
PHASES = (PHASE_APPROACH, PHASE_SLIDING, PHASE_CLOSED)  # indexed by phase code


@dataclass(frozen=True)
class PerturbationModel:
    """Deviation of the physical mechanism from the ideal chain.

    x_bias_mm shifts the opening laterally: positive widens it beyond the
    model (unreinforced fingers overshoot the modeled maximum opening),
    negative narrows it (the hinge chain keeps the fingers from opening
    fully).  backlash_width_rad is the mechanism dead-band: the effective
    angle trails the command by the full width across a direction
    reversal.  Noise is a +-4 sigma clipped gaussian applied to the
    reported tip coordinates.
    """

    x_bias_mm: float = 0.0
    backlash_width_rad: float = 0.0
    noise_sd_mm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if abs(self.x_bias_mm) > X_BIAS_CAP_MM:
            raise InvariantViolationError(
                f"|x_bias_mm| capped at {X_BIAS_CAP_MM:g} mm, got {self.x_bias_mm}"
            )
        if self.backlash_width_rad < 0:
            raise InvariantViolationError("backlash_width_rad must be >= 0")
        if self.noise_sd_mm < 0:
            raise InvariantViolationError("noise_sd_mm must be >= 0")


class FreeRecord(NamedTuple):
    """One free-motion sample: ideal chain vs perturbed mechanism."""

    theta: float
    theta_eff: float
    x_left_model: float
    y_tip_model: float
    x_left_sim: float
    y_tip_sim: float


@dataclass(frozen=True)
class FreeTrace(Trace):
    """Free-motion columns: a FreeRecord of arrays."""


def simulate_free(
    geom: GripperGeometry,
    trajectory: MotorTrajectory,
    perturbation: PerturbationModel = PerturbationModel(),
) -> FreeTrace:
    """Free (contactless) motion of the left fingertip along a trajectory.

    Backlash is the standard play operator with half-width w = width/2:
    theta_eff is dragged inside [theta - w, theta + w], so a sustained
    closing sweep rides theta + w, a sustained opening sweep rides
    theta - w, and a reversal freezes the mechanism for one full width of
    command travel.  A trajectory is monotone, so the operator reduces to
    theta_eff = min(theta_0, theta + w) when closing and max(theta_0,
    theta - w) when opening.  With an all-zero perturbation the simulated
    columns equal the model columns bit for bit.
    """
    half_play = perturbation.backlash_width_rad / 2.0
    theta = trajectory.samples
    if len(theta) > 1 and theta[1] < theta[0]:
        theta_eff = np.minimum(theta[0], theta + half_play)
    else:
        theta_eff = np.maximum(theta[0], theta - half_play)
    model = forward_kinematics(geom, theta)
    state = forward_kinematics(geom, theta_eff)
    x_sim = state.x_left - perturbation.x_bias_mm
    y_sim = state.y_tip
    sd = perturbation.noise_sd_mm
    if sd > 0:
        rng = np.random.default_rng(perturbation.seed)
        noise = np.clip(rng.normal(0.0, sd, (len(theta), 2)), -4 * sd, 4 * sd)
        x_sim = x_sim + noise[:, 0]
        y_sim = y_sim + noise[:, 1]
    return FreeTrace(FreeRecord(theta, theta_eff, model.x_left, model.y_tip, x_sim, y_sim))


@dataclass(frozen=True)
class SlideConfig:
    """Sliding-mode run configuration.

    surface_y_mm is the flat-surface coordinate along the finger axis in
    the gripper center frame (larger = farther from the gripper body);
    None resolves to the fingertip height at theta_to, which makes the
    sliding phase persist over the whole sweep and closure land exactly on
    theta_to.  flex_gain/flex_offset define the affine synthetic flex
    signal in reading units.
    """

    surface_y_mm: Optional[float] = None
    theta_from: float = -0.8
    theta_to: float = -1.9
    step: float = DEFAULT_STEP
    flex_gain: float = 1.0
    flex_offset: float = 0.0

    def __post_init__(self):
        if not self.theta_to < self.theta_from:
            raise ConfigError(
                f"need theta_to < theta_from, got [{self.theta_to}, {self.theta_from}]"
            )
        if self.step <= 0:
            raise ConfigError(f"step must be positive, got {self.step}")


class SlideRecord(NamedTuple):
    theta: float
    y_free: float
    y_sim: float
    bend: float
    flex: float
    phase: str


@dataclass(frozen=True)
class SlideTrace(Trace):
    """Per-step sliding-contact columns (a SlideRecord of arrays) plus run
    summary.

    Invariants: y_sim = min(y_free, surface) at every step; phases occur
    in the order approach -> sliding -> closed with each possibly empty;
    flex is non-decreasing until the closed event and constant after it.
    """

    surface_y_mm: float
    contact_theta: Optional[float]
    closure_theta: float
    peak_bend: float
    warnings: tuple[str, ...] = ()


def simulate_slide(geom: GripperGeometry, cfg: SlideConfig) -> SlideTrace:
    """Close the motor against a flat surface and record the contact.

    Contact exists wherever the ideal tip coordinate would pass the
    surface (y_free > surface); the penetration becomes finger bend and
    the simulated tip stays on the surface.  The run ends closed at
    theta_to; if sliding ends earlier (the ideal tip retreats off the
    surface) the trace is closed from that sample on.  A run that never
    touches the surface carries a "no_contact" warning.
    """
    floor = geom.slide_floor
    if cfg.theta_from > geom.theta_open + 1e-12 or cfg.theta_to < floor - 1e-12:
        warnings.warn(
            f"slide range [{cfg.theta_to}, {cfg.theta_from}] exceeds the extended "
            f"window [{floor}, {geom.theta_open}]",
            OperatingRangeWarning,
            stacklevel=2,
        )

    trajectory = sample_trajectory(geom, cfg.theta_from, cfg.theta_to, cfg.step)
    theta = trajectory.samples
    y_free = tip_height(geom, theta)
    # The last sample is theta_to exactly, so its tip height is the default surface.
    surface = cfg.surface_y_mm if cfg.surface_y_mm is not None else float(y_free[-1])
    y_sim = np.minimum(y_free, surface)
    bend = y_free - y_sim
    touching = bend > 0.0

    # Closed from the first zero bend after contact, else at the last sample.
    contacted = np.logical_or.accumulate(touching)
    released = np.flatnonzero(contacted & ~touching)
    closure = int(released[0]) if len(released) else len(theta) - 1

    # The running maximum of the bend, made the flex signal in place: x * gain
    # + offset has the bits of offset + gain * x.
    flex = np.maximum.accumulate(bend)
    flex[closure:] = flex[closure]
    flex *= cfg.flex_gain
    flex += cfg.flex_offset
    phase = touching.astype(np.int8)
    phase[closure:] = PHASES.index(PHASE_CLOSED)

    return SlideTrace(
        SlideRecord(theta, y_free, y_sim, bend, flex, np.array(PHASES, dtype=object)[phase]),
        surface_y_mm=surface,
        contact_theta=float(theta[np.argmax(touching)]) if contacted[-1] else None,
        closure_theta=float(theta[closure]),
        peak_bend=float(bend.max()),
        warnings=() if contacted[-1] else ("no_contact",),
    )


DIRECTION_DESCEND = "descend"
DIRECTION_HOLD = "hold"
DIRECTION_ASCEND = "ascend"
FLEX_OFFSET_ATOL = 1e-9  # a flex this close to its offset reads as no contact


def flex_feedback_direction(
    records: Sequence[SlideRecord],
    flex_offset: float = 0.0,
    ascend_threshold: float = 1.0,
) -> str:
    """Manipulator guidance from a flex-trace suffix.

    "descend" when the flex signal never leaves its offset (no contact
    yet: keep approaching the surface); "ascend" when the per-step flex
    rate exceeds the max-contact threshold (back off); otherwise "hold",
    covering both a settled plateau (rates in the dead-band) and a
    contained rise.  Needs at least two records.
    """
    if len(records) < 2:
        raise InsufficientDataError(
            f"need at least 2 trace records, got {len(records)}"
        )
    flex = [r.flex for r in records]
    if all(abs(f - flex_offset) <= FLEX_OFFSET_ATOL for f in flex):
        return DIRECTION_DESCEND
    rates = [b - a for a, b in zip(flex, flex[1:])]
    if max(rates) > ascend_threshold:
        return DIRECTION_ASCEND
    return DIRECTION_HOLD


SLIDE_TRACE_HEADER = "theta,y_free,y_sim,bend,flex,phase"


def write_slide_trace_csv(trace: SlideTrace, stream: IO[str]) -> None:
    write_columns(SLIDE_TRACE_HEADER, trace.columns, stream)
