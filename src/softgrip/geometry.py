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
functions are safe to call concurrently.  A Sweep and the traces made
along it are made CSV_CHUNK_ROWS rows at a time, so that writing one holds
a chunk, not the sweep; the chain is elementwise, so a chunk has the bits
of the same rows of the whole array.  Held columns are read-only float64
arrays.  write_columns writes every trace, in one process, with the
leading float columns of a large one's chunks formatted by one orjson call
per chunk.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

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
    "OperatingRangeWarning", "Sweep", "Trace", "aperture", "aperture_window", "base_length",
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

# Rows a Sweep and its traces are made in, and write_columns formats and
# writes per stream.write call.
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

    @property
    def ends(self) -> tuple[float, float]:
        return float(self.samples[0]), float(self.samples[-1])

    def chunks(self) -> Iterator[np.ndarray]:
        """The samples, CSV_CHUNK_ROWS at a time."""
        rows = CSV_CHUNK_ROWS
        return (self.samples[lo:lo + rows] for lo in range(0, len(self), rows))


@dataclass(frozen=True)
class Sweep:
    """Inclusive monotone sampling from theta_from to theta_to, whose samples
    are made a chunk at a time: theta_from + k*step toward theta_to, the last
    sample clamped to theta_to exactly.

    chunks() makes them CSV_CHUNK_ROWS at a time, each checked strictly
    monotone, also across its edge with the chunk before; samples joins
    them, read-only, on first use.  Raises InvalidRangeError for non-finite
    bounds or step, a zero span, a non-positive step or more than
    MAX_TRAJECTORY_SAMPLES full-step samples.
    """

    theta_from: float
    theta_to: float
    step: float = DEFAULT_STEP
    rows: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.theta_from, self.theta_to, self.step))):
            raise InvalidRangeError(
                f"bounds and step must be finite, got {self.theta_from}, {self.theta_to}, "
                f"{self.step}"
            )
        if self.step <= 0:
            raise InvalidRangeError(f"step must be positive, got {self.step}")
        span = self.theta_to - self.theta_from
        if span == 0:
            raise InvalidRangeError("theta_from and theta_to are equal")
        steps = abs(span) / self.step + 1e-9
        if steps >= MAX_TRAJECTORY_SAMPLES:
            raise InvalidRangeError(
                f"step {self.step} over [{self.theta_from}, {self.theta_to}] needs more than "
                f"{MAX_TRAJECTORY_SAMPLES} samples"
            )
        # The last full step either lands on theta_to, which replaces it, or
        # falls short of it, and theta_to follows.
        n_full = int(math.floor(steps))
        clamped = abs(self.theta_from + self._stride * n_full - self.theta_to) <= 1e-12
        object.__setattr__(self, "rows", n_full + (1 if clamped else 2))

    @property
    def _stride(self) -> float:
        return (1.0 if self.theta_to > self.theta_from else -1.0) * self.step

    def __len__(self) -> int:
        return self.rows

    def __iter__(self):
        return iter(self.samples.tolist())

    @property
    def ends(self) -> tuple[float, float]:
        return self.theta_from, self.theta_to

    def _block(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo to hi - 1: the bits of the same rows of the whole arange."""
        theta = self.theta_from + self._stride * np.arange(lo, hi)
        if hi == self.rows:
            theta[-1] = self.theta_to
        return theta

    def last_chunk(self) -> np.ndarray:
        """The chunk that chunks() ends with, made alone."""
        return self._block((self.rows - 1) // CSV_CHUNK_ROWS * CSV_CHUNK_ROWS, self.rows)

    def chunks(self) -> Iterator[np.ndarray]:
        rows, before = CSV_CHUNK_ROWS, None
        for lo in range(0, self.rows, rows):
            theta = self._block(lo, min(lo + rows, self.rows))
            steps = np.diff(theta) if before is None else np.diff(theta, prepend=before)
            if not np.all(steps > 0 if self._stride > 0 else steps < 0):
                raise InvalidRangeError("trajectory samples must be strictly monotone")
            before = theta[-1]
            yield theta

    @cached_property
    def samples(self) -> np.ndarray:
        samples = np.concatenate(list(self.chunks()))
        samples.flags.writeable = False
        return samples


@dataclass(frozen=True, eq=False)
class Trace:
    """Per-sample rows, made a chunk at a time.

    chunks() makes the chunks afresh on each call, so that a writer holds
    one at a time: NamedTuples of equal-length arrays, one per field of the
    row type (float64, or str for a label), CSV_CHUNK_ROWS rows each for a
    trace made along a trajectory.  rows is their total, known before any
    is made.  columns joins them, read-only, and records builds the rows
    themselves, one row type instance of Python scalars per sample, each on
    first use.  Traces are equal when their columns and other fields are.
    """

    rows: int
    chunks: Callable[[], Iterator[tuple]]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return _same(self.columns, other.columns) and all(
            _same(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self) if f.name not in ("rows", "chunks"))

    def __len__(self) -> int:
        return self.rows

    @cached_property
    def columns(self) -> tuple:
        chunks = list(self.chunks())
        columns = (chunks[0] if len(chunks) == 1
                   else type(chunks[0])(*map(np.concatenate, zip(*chunks))))
        for column in columns:
            column.flags.writeable = False
        return columns

    @cached_property
    def records(self) -> tuple:
        return tuple(map(type(self.columns), *(c.tolist() for c in self.columns)))


def check_window(geom: GripperGeometry, theta: FloatOrArray, strict: bool = False) -> None:
    """Operating-window check of a scalar or array theta (of a monotone
    trajectory, its two ends suffice): emits OperatingRangeWarning, or
    raises DomainError when strict."""
    lo, hi = float(np.min(theta)), float(np.max(theta))
    if geom.theta_closed <= lo and hi <= geom.theta_open:
        return
    msg = (f"theta={lo if lo < geom.theta_closed else hi:.6g} outside operating window "
           f"[{geom.theta_closed}, {geom.theta_open}]")
    if strict:
        raise DomainError(msg)
    warnings.warn(msg, OperatingRangeWarning, stacklevel=2)


def check_domain(geom: GripperGeometry, trajectory: MotorTrajectory | Sweep) -> None:
    """Raise the DomainError that fingertip_angle raises on the whole
    trajectory, before any chunk of a trace along it is made or written.

    GripperGeometry proves b <= 2*l on [slide_floor, theta_open], so only a
    trajectory that leaves that range takes this pass, over the base length
    alone."""
    lo, hi = sorted(trajectory.ends)
    if geom.slide_floor <= lo and hi <= geom.theta_open:
        return
    _base_ratio(geom, max(float(np.max(base_length(geom, slider_displacement(geom, theta))))
                          for theta in trajectory.chunks()))


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
    ratio = _base_ratio(geom, b)
    return np.arcsin(delta / b) + np.arccos(ratio)


def _base_ratio(geom: GripperGeometry, b: FloatOrArray) -> FloatOrArray:
    """b / (2*l), or DomainError where no isosceles triangle with leg l has base b."""
    if np.any(b <= 0):
        raise DomainError(f"base length must be positive, got {np.min(b)}")
    ratio = b / (2 * geom.l)
    if np.any(ratio > 1):
        raise DomainError(
            f"base length {np.max(b):.6f} exceeds 2*l = {2 * geom.l:.6f}; "
            "fingertip angle undefined"
        )
    return ratio


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
) -> Sweep:
    """Inclusive monotone sampling from theta_from to theta_to, at least two
    samples, the last clamped to theta_to exactly: a Sweep, which checks its
    arguments and makes no sample until one is read."""
    return Sweep(theta_from, theta_to, step)


def fk_trace(geom: GripperGeometry, trajectory: MotorTrajectory | Sweep) -> Trace:
    """Forward kinematics along a trajectory: a Trace of FingerState chunks,
    one per chunk of the trajectory.  A trajectory on which the chain is
    undefined raises DomainError here, before any chunk is made."""
    check_domain(geom, trajectory)
    return Trace(len(trajectory),
                 lambda: map(partial(forward_kinematics, geom), trajectory.chunks()))


def _is_positional(block: np.ndarray) -> bool:
    """True when every value of block is zero or of a magnitude in [1e-4, 1e16):
    the values that float.__repr__ and orjson both write in positional
    notation, and so write alike.  False for NaN and +-inf."""
    magnitude = np.abs(block)
    return bool(np.all((magnitude >= 1e-4) & (magnitude < 1e16) | (magnitude == 0)))


def _chunk_text(columns: Sequence[np.ndarray], dumps) -> str:
    """The text of one chunk of rows, each row ending in a newline.

    With ``dumps`` (orjson.dumps), a chunk whose leading float64 columns
    form a positional block gets that block's row texts from one ``dumps``
    call, split at each "],[" between its rows.  Every other cell is
    written as float.__repr__ writes a float and as it is for a string.
    """
    lead = next((i for i, c in enumerate(columns) if c.dtype != np.float64), len(columns))
    texts = []
    if dumps and lead:
        block = np.column_stack(columns[:lead])
        if _is_positional(block):
            texts.append(dumps(block)[2:-2].decode().split("],["))
            columns = columns[lead:]
    texts += [list(map(float.__repr__, c.tolist())) if c.dtype == np.float64 else c.tolist()
              for c in columns]
    return "\n".join(map(",".join, zip(*texts))) + "\n"


def write_columns(header: str, chunks: Iterable[Sequence[np.ndarray]], rows: int,
                  stream: IO[str]) -> None:
    """Write a table of ``rows`` rows, given as chunks of equal-length
    columns, as CSV rows under ``header``.

    Each chunk is taken when the one before it is written, so a trace's
    chunks are made as they are written.  A float64 value is written as
    float.__repr__ writes it: the shortest text that reads back to the same
    value.  Any other column holds strings, written as they are.  Rows go
    to ``stream`` at most CSV_CHUNK_ROWS at a time, so the text of the whole
    table is never held at once.

    A table of at least ORJSON_MIN_CELLS cells (``rows`` times the columns
    of a chunk) formats each chunk's leading float64 columns with one
    orjson.dumps call, whose shortest round-trip digits are those of
    float.__repr__, and joins each row of its text to the row's other cells.
    Only a block whose every value is zero or of a magnitude in [1e-4, 1e16)
    takes that path, where both write positional notation; any other chunk
    (NaN, +-inf, a tiny or huge value) is written with float.__repr__, so
    the bytes are the same either way.
    """
    dumps = None
    stream.write(header + "\n")
    for columns in chunks:
        if dumps is None and rows * len(columns) >= ORJSON_MIN_CELLS:
            import orjson  # here, so that a small table never pays its ~8 ms import

            dumps = partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY)
        for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            stream.write(_chunk_text([c[lo:lo + CSV_CHUNK_ROWS] for c in columns], dumps))


FK_TRACE_HEADER = "theta,y_b,delta,b,alpha,x_left,x_right,y_tip"


def write_fk_trace_csv(trace: Trace, stream: IO[str]) -> None:
    """Write an fk_trace result as CSV with the standard trace header."""
    write_columns(FK_TRACE_HEADER, trace.chunks(), len(trace), stream)


def default_geometry() -> GripperGeometry:
    """The illustrative geometry shipped with the package.

    The mechanism constants are not published for the physical gripper;
    these values satisfy every chain-domain and monotonicity constraint
    over [-1.9, -0.8] rad (see tools/fk_oracle.py) and give a ~103 mm
    maximum aperture with a ~7 mm fingertip height swing.
    """
    return from_dict(GripperGeometry, read_package_json("geometry_default.json"),
                     "geometry config")
