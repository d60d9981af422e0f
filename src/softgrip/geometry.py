"""Closed-form kinematics of the slider-crank-driven two-finger gripper.

The motor angle theta drives a slider-crank whose slider coordinate y_b
moves the finger bases apart; each finger is a rigid isosceles triangle
with leg length l, so the fingertip rotation angle alpha and the fingertip
coordinates follow in closed form.  All lengths are millimeters, all
angles radians.  Motor angles are negative by convention (fully open
-0.8 rad, fully closed -1.4 rad for the default geometry); the chain is
evaluated on |theta|, so it is even in theta bit for bit and the sign is a
labeling choice.

Every chain function takes a scalar or a numpy array of angles, is
vectorized elementwise and checks no operating window, which the sliding
regime exceeds; only check_window checks it, and only it warns.  All
functions are safe to call concurrently.  Trajectories and traces hold
read-only float64 columns; write_columns writes every trace, in one
process, with the floats of a large one formatted by orjson in C.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import groupby
from typing import IO, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InvalidRangeError,
    OutOfRangeError,
)
from .inputs import from_dict, read_package_json

__all__ = [
    "DEFAULT_STEP", "FingerState", "GripperGeometry", "MotorTrajectory",
    "OperatingRangeWarning", "Trace", "aperture", "aperture_window", "base_length",
    "default_geometry", "fingertip_angle", "fingertip_height", "fingertip_jacobian",
    "fingertip_positions", "fk_trace", "forward_kinematics", "inverse_kinematics",
    "sample_trajectory", "slider_coordinate", "slider_displacement", "tip_height",
    "write_columns", "write_fk_trace_csv",
]

DEFAULT_STEP = 0.015  # rad, the standard actuation increment

# How far past theta_closed the sliding regime may drive the motor.
SLIDE_OVERTRAVEL = 0.5  # rad

# Most full-step samples sample_trajectory produces for one sweep (the
# clamped end may add one).  Checked before anything is allocated: 1e-6 rad
# over the 1.1 rad slide range (1.1M samples) passes, 1e-7 (11M) does not.
MAX_TRAJECTORY_SAMPLES = 10_000_000

# Largest magnitude of any length (mm).  Far beyond any mechanism, and small
# enough that no square of a length, or of a sum of two, overflows a float.
MAX_LENGTH_MM = math.sqrt(sys.float_info.max) / 4

# Rows write_columns formats and writes per stream.write call.
CSV_CHUNK_ROWS = 1024

# Fewest cells of a table for which write_columns formats floats with orjson.
# Importing orjson after numpy takes ~8 ms, and it saves ~0.5 us per cell
# against float.__repr__ (2-vCPU VM): it repays its import from ~16,000 cells.
ORJSON_MIN_CELLS = 20_000

FloatOrArray = float | np.ndarray  # chain inputs and outputs, elementwise


class OperatingRangeWarning(UserWarning):
    """Motor angle outside the declared operating window (soft check)."""


@dataclass(frozen=True)
class GripperGeometry:
    """Mechanism constants of the gripper.

    r1/r2 are the crank and connecting-rod lengths, e and c the frame
    offsets of the slider axis (only e - c enters the math; both are kept
    because they are separate physical measurements), d the lateral offset
    of the finger base, l the finger leg length, and delta_x/delta_y the
    offsets from the fingertip rotation point to the gripper center frame.
    """

    r1: float
    r2: float
    e: float
    c: float
    d: float
    l: float
    delta_x: float
    delta_y: float
    theta_open: float = -0.8
    theta_closed: float = -1.4

    def __post_init__(self):
        for name in ("r1", "r2", "e", "c", "d", "l", "delta_x", "delta_y"):
            value = getattr(self, name)
            if not abs(value) <= MAX_LENGTH_MM:
                raise ConfigError(f"need |{name}| <= {MAX_LENGTH_MM:.3g} mm, got {value}")
        if not (self.r2 > self.r1 > 0):
            raise ConfigError(f"need r2 > r1 > 0, got r1={self.r1}, r2={self.r2}")
        if self.d <= 0 or self.l <= 0:
            raise ConfigError(f"need d > 0 and l > 0, got d={self.d}, l={self.l}")
        if not self.theta_closed < self.theta_open:
            raise ConfigError(
                f"need theta_closed < theta_open, got "
                f"[{self.theta_closed}, {self.theta_open}]"
            )
        # The fingertip angle needs b <= 2*l wherever the motor may go.  delta
        # is monotone in |theta| on [0, pi] and b = hypot(d, delta) is convex
        # in delta, so b peaks at an end of the |theta| range: the two window
        # ends, or theta = 0 when the window straddles it.
        ends = np.array([self.slide_floor, self.theta_open,
                         min(max(0.0, self.slide_floor), self.theta_open)])
        b = base_length(self, slider_displacement(self, ends))
        if np.any(b > 2 * self.l):
            raise ConfigError(
                f"base length exceeds 2*l at theta={ends[np.argmax(b)]:.6g}; "
                "geometry incompatible with the isosceles finger model"
            )

    @property
    def slide_floor(self) -> float:
        """Lowest motor angle the sliding regime is allowed to reach."""
        return self.theta_closed - SLIDE_OVERTRAVEL


class FingerState(NamedTuple):
    """Full kinematic snapshot at one motor angle, or its columns over an
    array of angles.

    x_left and x_right are the fingertip x coordinates in the gripper
    center frame; the mirror symmetry x_left == -x_right is exact by
    construction.  Both fingertips share the same y coordinate y_tip.
    """

    theta: float
    y_b: float
    delta: float
    b: float
    alpha: float
    x_left: float
    x_right: float
    y_tip: float

    @property
    def aperture(self) -> float:
        """Lateral fingertip distance x_right - x_left (mm)."""
        return self.x_right - self.x_left


def _same(a, b) -> bool:
    """Value equality that compares arrays, also inside tuples, elementwise."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def eq_by_value(self, other) -> bool:
    """``==`` of a dataclass that holds arrays: field by field, arrays by value."""
    if type(other) is not type(self):
        return NotImplemented
    return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True)
class MotorTrajectory:
    """Strictly monotone sequence of motor angles with its nominal step.

    samples is held as a read-only float64 array, copied from any sequence
    of numbers.  A single-sample trajectory is allowed (degenerate
    hold-in-place plan); sample_trajectory itself always produces at least
    two samples.  Every sample must be finite, and step finite and positive.
    """

    samples: np.ndarray
    step: float = DEFAULT_STEP

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1 or not len(samples):
            raise InvalidRangeError("a trajectory needs a flat sequence of at least one sample")
        if not np.isfinite(samples).all():
            raise InvalidRangeError("trajectory samples must be finite")
        if not (math.isfinite(self.step) and self.step > 0):
            raise InvalidRangeError(f"step must be finite and positive, got {self.step}")
        diffs = np.diff(samples)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise InvalidRangeError("trajectory samples must be strictly monotone")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    __eq__ = eq_by_value

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples.tolist())


@dataclass(frozen=True)
class Trace:
    """Per-sample rows held as columns.

    columns is a NamedTuple of equal-length arrays, one per field of the
    row type (float64, or str for a label); they are made read-only.
    records builds the rows themselves, one row type instance of Python
    scalars per sample, on first use.
    """

    columns: tuple

    def __post_init__(self):
        for column in self.columns:
            column.flags.writeable = False

    __eq__ = eq_by_value

    def __len__(self) -> int:
        return len(self.columns[0])

    @cached_property
    def records(self) -> tuple:
        return tuple(map(type(self.columns), *(c.tolist() for c in self.columns)))


def check_window(geom: GripperGeometry, theta: FloatOrArray, strict: bool = False) -> None:
    """Operating-window check of a scalar or array theta: emits
    OperatingRangeWarning, or raises DomainError when strict."""
    lo, hi = float(np.min(theta)), float(np.max(theta))
    if geom.theta_closed <= lo and hi <= geom.theta_open:
        return
    msg = (f"theta={lo if lo < geom.theta_closed else hi:.6g} outside operating window "
           f"[{geom.theta_closed}, {geom.theta_open}]")
    if strict:
        raise DomainError(msg)
    warnings.warn(msg, OperatingRangeWarning, stacklevel=2)


def slider_coordinate(geom: GripperGeometry, theta: FloatOrArray) -> FloatOrArray:
    """Slider coordinate y_b = r1*cos(theta) + sqrt(r2^2 - r1^2*sin^2(theta)).

    Evaluated on |theta|; the radicand is strictly positive whenever r2 > r1.
    """
    theta = np.abs(theta)
    s = geom.r1 * np.sin(theta)
    return geom.r1 * np.cos(theta) + np.sqrt(geom.r2 ** 2 - s * s)


def slider_displacement(geom: GripperGeometry, theta: FloatOrArray) -> FloatOrArray:
    """Slider displacement delta = e - c - y_b(theta)."""
    return geom.e - geom.c - slider_coordinate(geom, theta)


def base_length(geom: GripperGeometry, delta: FloatOrArray) -> FloatOrArray:
    """Finger base length b = sqrt(d^2 + delta^2); always >= d."""
    return np.hypot(geom.d, delta)


def fingertip_angle(geom: GripperGeometry, delta: FloatOrArray, b: FloatOrArray) -> FloatOrArray:
    """Fingertip rotation alpha = arcsin(delta/b) + arccos(b/(2*l)).

    Raises DomainError when b > 2*l (no isosceles triangle with leg l has
    that base) or b <= 0.
    """
    if np.any(b <= 0):
        raise DomainError(f"base length must be positive, got {np.min(b)}")
    ratio = b / (2 * geom.l)
    if np.any(ratio > 1):
        raise DomainError(
            f"base length {np.max(b):.6f} exceeds 2*l = {2 * geom.l:.6f}; "
            "fingertip angle undefined"
        )
    return np.arcsin(delta / b) + np.arccos(ratio)


def fingertip_positions(
    geom: GripperGeometry, alpha: FloatOrArray
) -> tuple[FloatOrArray, FloatOrArray, FloatOrArray]:
    """Fingertip coordinates (x_left, x_right, y_tip) in the center frame.

    x_left = l*cos(alpha) - delta_x and x_right is its exact mirror; both
    tips sit at fingertip_height.
    """
    reach = geom.l * np.cos(alpha)
    return reach - geom.delta_x, geom.delta_x - reach, fingertip_height(geom, alpha)


def fingertip_height(geom: GripperGeometry, alpha: FloatOrArray) -> FloatOrArray:
    """Fingertip y coordinate y_tip = l*sin(alpha) + delta_y, shared by both tips."""
    return geom.l * np.sin(alpha) + geom.delta_y


def forward_kinematics(geom: GripperGeometry, theta: FloatOrArray) -> FingerState:
    """Evaluate the full chain at a motor angle or an array of them."""
    y_b = slider_coordinate(geom, theta)
    delta = geom.e - geom.c - y_b
    b = base_length(geom, delta)
    alpha = fingertip_angle(geom, delta, b)
    return FingerState(theta, y_b, delta, b, alpha, *fingertip_positions(geom, alpha))


def tip_height(geom: GripperGeometry, theta: FloatOrArray) -> FloatOrArray:
    """Fingertip height y_tip at a motor angle or an array of them: the chain
    of forward_kinematics, bit for bit, keeping no other column, so each
    intermediate is freed once the next link has used it."""
    delta = slider_displacement(geom, theta)
    alpha = fingertip_angle(geom, delta, base_length(geom, delta))
    del delta
    return fingertip_height(geom, alpha)


def aperture(geom: GripperGeometry, theta: FloatOrArray) -> FloatOrArray:
    """Fingertip aperture x_right - x_left at a motor angle (mm)."""
    return forward_kinematics(geom, theta).aperture


def aperture_window(geom: GripperGeometry) -> tuple[float, float]:
    """(aperture at theta_closed, aperture at theta_open)."""
    return tuple(aperture(geom, np.array([geom.theta_closed, geom.theta_open])).tolist())


def inverse_kinematics(geom: GripperGeometry, target_aperture: float) -> float:
    """Motor angle whose aperture matches the target, in closed form.

    The aperture fixes cos(alpha).  The sign of sin(alpha), the root of the
    finger triangle (d - l*cos(alpha))^2 + (delta - l*sin(alpha))^2 = l^2
    for the slider displacement delta, and the sign of theta are not fixed
    by it; which ones the chain takes depends on the geometry.  All eight
    branches are mapped back through the slider-crank, clamped to the
    window, and the one whose aperture is nearest the target is returned.
    Raises OutOfRangeError when the target lies outside the achievable
    [closed, open] aperture window by more than rounding: a target
    interpolated to an end of the window, ap_closed + 1.0 * (ap_open -
    ap_closed), can land 1.5 ulp past it.
    """
    ap_lo, ap_hi = sorted(aperture_window(geom))
    slack = 4 * math.ulp(max(abs(ap_lo), abs(ap_hi)))
    if not ap_lo - slack <= target_aperture <= ap_hi + slack:
        raise OutOfRangeError(
            f"target aperture {target_aperture:.6f} mm outside achievable "
            f"[{ap_lo:.6f}, {ap_hi:.6f}] mm"
        )
    pm = np.array([1.0, -1.0])
    cos_alpha = (geom.delta_x - target_aperture / 2) / geom.l
    sin_alpha = pm * math.sqrt(max(0.0, 1.0 - cos_alpha ** 2))
    reach = math.sqrt(max(0.0, geom.l ** 2 - (geom.d - geom.l * cos_alpha) ** 2))
    y_b = geom.e - geom.c - (geom.l * sin_alpha[:, None] + pm * reach).ravel()
    cos_theta = (y_b ** 2 + geom.r1 ** 2 - geom.r2 ** 2) / (2 * y_b * geom.r1)
    # Rounding can push the cosine just past +-1 (to 1 + 7e-16 at theta = 0).
    theta = pm[:, None] * np.arccos(np.minimum(np.maximum(cos_theta, -1.0), 1.0))
    theta = np.minimum(np.maximum(theta.ravel(), geom.theta_closed), geom.theta_open)
    residual = np.abs(aperture(geom, theta) - target_aperture)
    return float(theta[residual.argmin()])


def fingertip_jacobian(
    geom: GripperGeometry, theta: FloatOrArray
) -> tuple[FloatOrArray, FloatOrArray]:
    """Analytic (dx_left/dtheta, dy_tip/dtheta) in mm/rad.

    Differentiates the chain at |theta|; the chain is even, so the
    derivative is sign(theta) times that.  Raises DomainError at the
    b -> 2*l singularity where the fingertip angle's derivative blows up.
    """
    sin_t, cos_t = np.sin(np.abs(theta)), np.cos(np.abs(theta))
    root = np.sqrt(geom.r2 ** 2 - (geom.r1 * sin_t) ** 2)
    d_delta = geom.r1 * sin_t + (geom.r1 ** 2 * sin_t * cos_t) / root

    delta = slider_displacement(geom, theta)
    b = base_length(geom, delta)
    spread = 4 * geom.l ** 2 - b * b
    if np.any(spread <= 0):
        raise DomainError(
            f"chain singular at theta={np.extract(spread <= 0, theta)[0]:.6g}: "
            "base length reaches 2*l"
        )
    d_alpha = (geom.d / (b * b) - delta / (b * np.sqrt(spread))) * d_delta

    alpha = fingertip_angle(geom, delta, b)
    sign = np.sign(theta)
    return sign * (-geom.l * np.sin(alpha) * d_alpha), sign * (geom.l * np.cos(alpha) * d_alpha)


def sample_trajectory(
    geom: GripperGeometry,
    theta_from: float,
    theta_to: float,
    step: float = DEFAULT_STEP,
) -> MotorTrajectory:
    """Inclusive monotone sampling from theta_from to theta_to.

    The final sample is clamped to theta_to exactly.  Raises
    InvalidRangeError for non-finite bounds or step, a zero span, a
    non-positive step or more than MAX_TRAJECTORY_SAMPLES full-step samples.
    """
    if not all(map(math.isfinite, (theta_from, theta_to, step))):
        raise InvalidRangeError(
            f"bounds and step must be finite, got {theta_from}, {theta_to}, {step}"
        )
    if step <= 0:
        raise InvalidRangeError(f"step must be positive, got {step}")
    span = theta_to - theta_from
    if span == 0:
        raise InvalidRangeError("theta_from and theta_to are equal")
    steps = abs(span) / step + 1e-9
    if steps >= MAX_TRAJECTORY_SAMPLES:
        raise InvalidRangeError(
            f"step {step} over [{theta_from}, {theta_to}] needs more than "
            f"{MAX_TRAJECTORY_SAMPLES} samples"
        )

    direction = 1.0 if span > 0 else -1.0
    n_full = int(math.floor(steps))
    samples = theta_from + direction * step * np.arange(n_full + 1)
    if abs(samples[-1] - theta_to) <= 1e-12:
        samples[-1] = theta_to
    else:
        samples = np.append(samples, theta_to)
    return MotorTrajectory(samples=samples, step=step)


def fk_trace(geom: GripperGeometry, trajectory: MotorTrajectory) -> Trace:
    """Forward kinematics along a trajectory: a FingerState of columns."""
    return Trace(forward_kinematics(geom, trajectory.samples))


def _is_positional(block: np.ndarray) -> bool:
    """True when every value of block is zero or of a magnitude in [1e-4, 1e16):
    the values that float.__repr__ and orjson both write in positional
    notation, and so write alike.  False for NaN and +-inf."""
    magnitude = np.abs(block)
    return bool(np.all((magnitude >= 1e-4) & (magnitude < 1e16) | (magnitude == 0)))


def _cell_texts(columns: Sequence[np.ndarray], dumps) -> list[list[str]]:
    """The text of one chunk of rows, as lists of row texts of one or more cells.

    With ``dumps`` (orjson.dumps), a chunk whose positional float64 columns
    lead and whose other columns, if any, follow them (the fk and slide
    traces) is one text of all rows but the last newline (_labelled_text).
    Otherwise a positional run of adjacent float64 columns is one list from
    one ``dumps`` call of the run's 2-D array; any other float64 column is a
    list of float.__repr__ texts, and any other column a list of strings.
    """
    lead = next((i for i, c in enumerate(columns) if c.dtype != np.float64), len(columns))
    if dumps and lead and all(c.dtype != np.float64 for c in columns[lead:]):
        block = np.column_stack(columns[:lead])
        if _is_positional(block):
            return [[_labelled_text(block, columns[lead:], dumps)]]
    texts = []
    for is_float, group in groupby(columns, key=lambda c: c.dtype == np.float64):
        group = list(group)
        if not is_float:
            texts += [c.tolist() for c in group]
            continue
        block = np.column_stack(group)
        if dumps and _is_positional(block):
            texts.append(dumps(block)[2:-2].decode().split("],["))
        else:
            texts += [list(map(float.__repr__, c.tolist())) for c in group]
    return texts


def _labelled_text(block: np.ndarray, labels: Sequence[np.ndarray], dumps) -> str:
    """The rows of a positional float64 block followed by label columns (none,
    or the slide trace's phase), without the last row's newline: one orjson
    text per run of rows with equal labels, their labels written in place of
    each row separator "],[", so no row is joined on its own."""
    changed = np.zeros(len(block) - 1, dtype=bool)
    for column in labels:
        changed |= column[1:] != column[:-1]
    cuts = [0, *(np.flatnonzero(changed) + 1).tolist(), len(block)]
    texts = [column.tolist() for column in labels]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        end = "".join(f",{text[lo]}" for text in texts) + "\n"
        parts += [dumps(block[lo:hi])[2:-2].decode().replace("],[", end), end]
    parts[-1] = parts[-1][:-1]
    return "".join(parts)


def write_columns(header: str, columns: Sequence[np.ndarray], stream: IO[str]) -> None:
    """Write equal-length columns as CSV rows under ``header``.

    A float64 value is written as float.__repr__ writes it: the shortest
    text that reads back to the same value.  Any other column holds
    strings, written as they are.  Rows go to ``stream`` CSV_CHUNK_ROWS at a
    time, so the text of the whole table is never held at once.

    A table of at least ORJSON_MIN_CELLS cells formats each chunk's runs of
    adjacent float64 columns with orjson.dumps, whose shortest round-trip
    digits are those of float.__repr__.  Only a run whose every value is
    zero or of a magnitude in [1e-4, 1e16) takes that path, where both
    write positional notation; any other run (NaN, +-inf, a tiny or huge
    value) is written with float.__repr__, so the bytes are the same either
    way.
    """
    dumps = None
    if len(columns[0]) * len(columns) >= ORJSON_MIN_CELLS:
        import orjson  # here, so that a small table never pays its ~8 ms import

        dumps = partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY)
    stream.write(header + "\n")
    for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        texts = _cell_texts([c[lo:lo + CSV_CHUNK_ROWS] for c in columns], dumps)
        row = ",".join(["{}"] * len(texts)) + "\n"
        stream.write("".join(map(row.format, *texts)))


FK_TRACE_HEADER = "theta,y_b,delta,b,alpha,x_left,x_right,y_tip"


def write_fk_trace_csv(trace: Trace, stream: IO[str]) -> None:
    """Write an fk_trace result as CSV with the standard trace header."""
    write_columns(FK_TRACE_HEADER, trace.columns, stream)


def default_geometry() -> GripperGeometry:
    """The illustrative geometry shipped with the package.

    The mechanism constants are not published for the physical gripper;
    these values satisfy every chain-domain and monotonicity constraint
    over [-1.9, -0.8] rad (see tools/fk_oracle.py) and give a ~103 mm
    maximum aperture with a ~7 mm fingertip height swing.
    """
    return from_dict(GripperGeometry, read_package_json("geometry_default.json"),
                     "geometry config")
