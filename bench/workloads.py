"""Seeded inputs, command sequences and output checks for the CLI benchmark.

Every input file is generated here from the workload seed, with
``softgrip.synthetic``, before any timing starts; the program under test
only ever sees the files written here.  A workload is one cycle of jobs,
and a job is the command sequence a user would type.  Each command
carries the exit code it must return and a check of what it wrote; a
mismatch in either counts as a failed operation.

Expected values never come from the package itself: trace values are
compared with the 50-digit chain in ``tools/fk_oracle.py``, stage counts
with a numpy replay of the documented pipeline on the generated points,
and extents with the generating dimensions.
"""

from __future__ import annotations

import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from softgrip.synthetic import make_cylinder, uniform_box_noise

MASS_KG = "0.1"
SQUEEZE_MARGIN_MM = 5.0  # the CLI's --squeeze-margin-mm default
TRACE_ATOL = 1e-9  # mm, and rad for alpha; the acceptance suite's ORACLE_ATOL
IK_ATOL_MM = 1e-6  # the bisection's tol_mm
EXTENT_RTOL = 0.01
THETA_OPEN, THETA_CLOSED, SLIDE_TO = -0.8, -1.4, -1.9
DEFAULT_STEP = 0.015

FK_HEADER = "theta,y_b,delta,b,alpha,x_left,x_right,y_tip"
SLIDE_HEADER = "theta,y_free,y_sim,bend,flex,phase"
PLAN_HEADER = "theta,arm_compensation_mm"

WHY = {
    "scene_ingest": (
        "Parsing 3 x 100k points dominates and transform and merge matter across "
        "3 views, while kinematics is one IK call: ingest work shows here and "
        "kinematics work must not."
    ),
    "kinematics_sweep": (
        "The per-sample Python chain and the CSV writers dominate fk and "
        "simulate-slide at 1e-5 rad steps; no cloud is read, so ingest work must "
        "show no change here."
    ),
    "batch_small": (
        "Small inputs through every layer, so interpreter start, import and config "
        "set-up dominate; a change that adds per-process cost or a slow parse-error "
        "path shows here."
    ),
}

Check = Callable[[Path, str], list[str]]


@dataclass
class Op:
    """One CLI command with the exit code and artifacts it must produce."""

    command: str
    args: list[str]
    out: str  # output directory, relative to the work directory
    expect_rc: int = 0
    check: Check | None = None
    items: int = 0  # merged cloud points (estimate) or trace rows (fk, simulate-slide)

    def argv(self) -> list[str]:
        return [self.command, *self.args, "--out", self.out]


@dataclass
class Job:
    key: str  # jobs with one key run the same commands on the same inputs
    ops: list[Op]


@dataclass
class Workload:
    name: str
    jobs: list[Job]  # one cycle; a run repeats it
    drive: Op | None = None  # traced runs only: spans.drive, which the CLI cannot reach


class Oracle:
    """The 50-digit reference chain of tools/fk_oracle.py."""

    def __init__(self, path: Path):
        spec = importlib.util.spec_from_file_location("softgrip_fk_oracle", path)
        self._module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self._module)

    def state(self, theta: float) -> dict[str, float]:
        raw = self._module.chain(self._module.mp.mpf(theta))
        return {name: float(value) for name, value in raw.items()}

    def aperture(self, theta: float) -> float:
        state = self.state(theta)
        return state["x_right"] - state["x_left"]


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------

def _xyz_text(points: np.ndarray, comment: str) -> list[str]:
    """Shortest-roundtrip lines, so the parser sees exactly these doubles."""
    return [f"# {comment}"] + [f"{x!r} {y!r} {z!r}" for x, y, z in points.tolist()]


def _pcd_text(points: np.ndarray) -> list[str]:
    n = len(points)
    header = [
        "# .PCD v0.7 - Point Cloud Data file format",
        "VERSION .7",
        "FIELDS x y z",
        "SIZE 8 8 8",
        "TYPE F F F",
        "COUNT 1 1 1",
        f"WIDTH {n}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {n}",
        "DATA ascii",
    ]
    return header + [f"{x!r} {y!r} {z!r}" for x, y, z in points.tolist()]


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _pose(angle_deg: float, translation) -> np.ndarray:
    a = math.radians(angle_deg)
    mat = np.eye(4)
    mat[:2, :2] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    mat[:3, 3] = translation
    return mat


def _to_global(camera_points: np.ndarray, flat_pose: list[float]) -> np.ndarray:
    """Replay of the documented camera-to-global step, p' = R p + t."""
    mat = np.ascontiguousarray(np.asarray(flat_pose, dtype=np.float64).reshape(4, 4))
    return camera_points @ mat[:3, :3].T + mat[:3, 3]


def _retained(points: np.ndarray, trim: float) -> int:
    """Replay of the documented percentile trim: points inside every [p, 1-p] range."""
    lo, hi = np.percentile(points, [100 * trim, 100 * (1 - trim)], axis=0)
    return int(np.count_nonzero(np.all((points >= lo) & (points <= hi), axis=1)))


def _write_estimate(path: Path, extents, dominant: str) -> None:
    payload = {"estimate": {
        "centroid_m": [0.3, 0.0, extents[2] / 2],
        "extents_m": list(extents),
        "point_count": 20000,
        "dominant_axis": dominant,
    }}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _compare(label: str, got: float, want: float, atol: float) -> list[str]:
    return [] if abs(got - want) <= atol else [f"{label}: {got!r} vs {want!r} (atol {atol:g})"]


def sample_count(theta_from: float, theta_to: float, step: float) -> int:
    """Samples of the documented inclusive sweep with its end clamped to theta_to."""
    n_full = int(math.floor(abs(theta_to - theta_from) / step + 1e-9))
    last = theta_from + math.copysign(step, theta_to - theta_from) * n_full
    return n_full + 1 + (abs(last - theta_to) > 1e-12)


def _spot_rows(rng: np.random.Generator, n_rows: int) -> list[int]:
    return sorted({0, n_rows - 1, *rng.integers(0, n_rows, 4).tolist()})


def _csv_rows(path: Path, header: str, n_rows: int) -> tuple[list[str], list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = []
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header {lines[:1]!r}")
    if len(lines) - 1 != n_rows:
        problems.append(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    return lines[1:], problems


def check_fk(oracle: Oracle, step: float, spots: list[int]) -> Check:
    n_rows = sample_count(THETA_OPEN, THETA_CLOSED, step)
    columns = FK_HEADER.split(",")

    def check(out: Path, stderr: str) -> list[str]:
        rows, problems = _csv_rows(out / "fk_trace.csv", FK_HEADER, n_rows)
        if problems:
            return problems
        for i in spots:
            values = [float(v) for v in rows[i].split(",")]
            theta = values[0]
            want_theta = THETA_CLOSED if i == n_rows - 1 else THETA_OPEN - step * i
            problems += _compare(f"fk row {i} theta", theta, want_theta, 1e-12)
            ref = oracle.state(theta)
            for name, value in zip(columns[1:], values[1:]):
                problems += _compare(f"fk row {i} {name}", value, ref[name], TRACE_ATOL)
        return problems

    return check


def check_slide(oracle: Oracle, step: float, spots: list[int]) -> Check:
    n_rows = sample_count(THETA_OPEN, SLIDE_TO, step)

    def check(out: Path, stderr: str) -> list[str]:
        rows, problems = _csv_rows(out / "slide_trace.csv", SLIDE_HEADER, n_rows)
        summary = _read_json(out / "slide_summary.json")
        problems += _compare("contact_theta", summary["contact_theta"], THETA_OPEN, 1e-12)
        problems += _compare("closure_theta", summary["closure_theta"], SLIDE_TO, 1e-12)
        surface = summary["surface_y_mm"]
        problems += _compare("surface_y_mm", surface, oracle.state(SLIDE_TO)["y_tip"], TRACE_ATOL)
        if problems:
            return problems
        for i in spots:
            theta, y_free, y_sim, bend = (float(v) for v in rows[i].split(",")[:4])
            problems += _compare(f"slide row {i} y_free", y_free,
                                 oracle.state(theta)["y_tip"], TRACE_ATOL)
            if y_sim != min(y_free, surface) or bend != y_free - y_sim:
                problems.append(f"slide row {i}: y_sim/bend not clamped to the surface")
        return problems

    return check


def check_estimate(stage_counts: dict[str, int], dims: tuple[float, float, float],
                   approach: str) -> Check:
    def check(out: Path, stderr: str) -> list[str]:
        payload = _read_json(out / "estimate.json")
        problems = []
        if payload["stage_counts"] != stage_counts:
            problems.append(f"stage_counts {payload['stage_counts']} != {stage_counts}")
        for axis, got, want in zip("xyz", payload["estimate"]["extents_m"], dims):
            if abs(got - want) > EXTENT_RTOL * want:
                problems.append(f"extent {axis} {got!r} m vs generating {want!r} m")
        if payload["decision"]["approach"] != approach:
            problems.append(f"approach {payload['decision']['approach']!r}, expected {approach!r}")
        return problems

    return check


def check_plan(oracle: Oracle, estimate_path: Path, envelope: bool) -> Check:
    """Validation passes; the target and the compensation follow the chain."""

    def check(out: Path, stderr: str) -> list[str]:
        payload = _read_json(out / "plan.json")
        plan = payload["plan"]
        problems = [] if payload["validation"]["passed"] else ["plan validation failed"]
        rows, csv_problems = _csv_rows(out / "plan_trajectory.csv", PLAN_HEADER,
                                       len(plan["motor_trajectory"]))
        problems += csv_problems
        target = plan["target_theta"]
        start = oracle.state(THETA_OPEN)
        if envelope:
            extents = _read_json(estimate_path)["estimate"]["extents_m"]
            want = min(extents[0], extents[1]) * 1000.0 - SQUEEZE_MARGIN_MM
            problems += _compare("aperture at target_theta", oracle.aperture(target), want,
                                 IK_ATOL_MM)
        else:
            problems += _compare("pinch target_theta", target, THETA_CLOSED, 0.0)
        if plan["approach"] != ("horizontal" if envelope else "vertical"):
            problems.append(f"approach {plan['approach']!r}")
        for i in (0, len(rows) - 1) if rows else ():
            theta, comp = (float(v) for v in rows[i].split(","))
            ref = oracle.state(theta)
            key = "delta" if envelope else "y_tip"
            problems += _compare(f"plan row {i} compensation", comp, start[key] - ref[key],
                                 TRACE_ATOL)
        return problems

    return check


def check_parse_error(line: int, column: int) -> Check:
    where = f"(line {line}, column {column})"

    def check(out: Path, stderr: str) -> list[str]:
        return [] if where in stderr else [f"stderr does not name {where}: {stderr[-300:]!r}"]

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _plan_op(oracle: Oracle, work: Path, job: str, estimate: str, envelope: bool) -> Op:
    return Op("plan", ["--estimate", estimate, "--mass", MASS_KG], f"{job}/plan",
              check=check_plan(oracle, work / estimate, envelope))


def _fk_op(oracle: Oracle, rng, job: str, step: float) -> Op:
    n = sample_count(THETA_OPEN, THETA_CLOSED, step)
    args = ["--from", repr(THETA_OPEN), "--to", repr(THETA_CLOSED)]
    if step != DEFAULT_STEP:
        args += ["--step", repr(step)]
    return Op("fk", args, f"{job}/fk", items=n,
              check=check_fk(oracle, step, _spot_rows(rng, n)))


def _slide_op(oracle: Oracle, rng, job: str, step: float) -> Op:
    n = sample_count(THETA_OPEN, SLIDE_TO, step)
    args = [] if step == DEFAULT_STEP else ["--step", repr(step)]
    return Op("simulate-slide", args, f"{job}/slide", items=n,
              check=check_slide(oracle, step, _spot_rows(rng, n)))


def scene_ingest(work: Path, seed: int, oracle: Oracle, points_per_view: int = 100_000) -> Workload:
    """3 views of an 80 x 120 mm cylinder with ~10 % outliers, then one plan."""
    rng = np.random.default_rng([seed, 1])
    diameter, height = 0.08, 0.12
    center = np.array([0.30 + rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02), height / 2])
    half = np.array([diameter / 2, diameter / 2, height / 2]) + 0.01
    roi = np.concatenate([center - half, center + half])
    n_noise = points_per_view // 10

    views, global_views = [], []
    for k, angle in enumerate((0.0, 120.0, 240.0)):
        body = make_cylinder(diameter, height, points_per_view - n_noise,
                             seed=int(rng.integers(2**31)), center=tuple(center)).points
        # Outliers fill a box beside the object, outside the crop box.
        noise = uniform_box_noise(n_noise, side_m=0.2, seed=int(rng.integers(2**31)),
                                  center=tuple(center + [0.0, 0.4, 0.0])).points
        glob = np.vstack([body, noise])
        flat = _pose(angle, rng.uniform(-0.5, 0.5, 3)).ravel().tolist()
        mat = np.asarray(flat).reshape(4, 4)
        camera = (glob - mat[:3, 3]) @ mat[:3, :3]
        name = f"view_{k}.pcd" if k == 2 else f"view_{k}.xyz"
        lines = _pcd_text(camera) if k == 2 else _xyz_text(camera, f"view {k}, seed {seed}")
        _write_lines(work / "scene" / name, lines)
        views.append({"cloud": name, "transform": flat})
        global_views.append(_to_global(camera, flat))
    _write_lines(work / "scene" / "manifest.json", [json.dumps({"views": views}, indent=2)])

    merged = np.vstack(global_views)
    cropped = merged[np.all((merged >= roi[:3]) & (merged <= roi[3:]), axis=1)]
    if len(cropped) != 3 * (points_per_view - n_noise):
        raise RuntimeError("scene generator: the crop box does not separate the outliers")
    stage_counts = {f"view_{k}_parsed": points_per_view for k in range(3)}
    stage_counts.update(merged=len(merged), cropped=len(cropped),
                        retained=_retained(cropped, 0.01))

    roi_arg = ",".join(repr(float(v)) for v in roi)
    estimate = Op("estimate", ["--manifest", "scene/manifest.json", "--roi", roi_arg],
                  "jobs/scene/estimate", items=len(merged),
                  check=check_estimate(stage_counts, (diameter, diameter, height), "horizontal"))
    plan = _plan_op(oracle, work, "jobs/scene", "jobs/scene/estimate/estimate.json", envelope=True)
    return Workload("scene_ingest", [Job("scene", [estimate, plan])])


def kinematics_sweep(work: Path, seed: int, oracle: Oracle, step: float = 1e-5) -> Workload:
    """Dense fk and simulate-slide sweeps plus one plan per planner; no cloud is read."""
    rng = np.random.default_rng([seed, 2])
    d = 0.09 + rng.uniform(-0.002, 0.002)
    _write_estimate(work / "estimates" / "envelope.json", (d, d, 0.12), "Z")
    w = 0.04 + rng.uniform(-0.002, 0.002)
    _write_estimate(work / "estimates" / "pinch.json", (w, w, 0.006), "X")
    ops = [
        _fk_op(oracle, rng, "jobs/sweep", step),
        _slide_op(oracle, rng, "jobs/sweep", step),
        _plan_op(oracle, work, "jobs/sweep/envelope", "estimates/envelope.json", envelope=True),
        _plan_op(oracle, work, "jobs/sweep/pinch", "estimates/pinch.json", envelope=False),
    ]
    drive = Op("--drive", [str(seed), repr(THETA_OPEN), repr(THETA_CLOSED), repr(step)], "drive")
    return Workload("kinematics_sweep", [Job("sweep", ops)], drive=drive)


BATCH_TRIM = "0.002"  # the default 1 % trim biases a disc's width ~1 % low
BATCH_CYCLE = 10


def batch_small(work: Path, seed: int, oracle: Oracle, points: int = 10_000) -> Workload:
    """Ten small jobs; even jobs size a ~90 mm cylinder, odd ones a 40 x 6 mm disc,
    and the tenth job's cloud has a malformed record near its end."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for i in range(BATCH_CYCLE):
        envelope = i % 2 == 0
        width = 0.09 + rng.uniform(-0.002, 0.002) if envelope else 0.04
        dims = (width, width, 0.12 if envelope else 0.006)
        center = (0.3 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), dims[2] / 2)
        pts = make_cylinder(dims[0], dims[2], points, seed=int(rng.integers(2**31)),
                            center=center).points
        lines = _xyz_text(pts, f"batch job {i}, seed {seed}")
        job = f"jobs/batch_{i}"
        scene = f"batch/scene_{i}"
        _write_lines(work / scene / "manifest.json", [json.dumps(
            {"views": [{"cloud": "cloud.xyz", "transform": np.eye(4).ravel().tolist()}]})])
        args = ["--manifest", f"{scene}/manifest.json", "--trim", BATCH_TRIM]
        if i == BATCH_CYCLE - 1:
            bad = len(lines) - 3  # 0-based index of a record near the end
            x, y, _ = lines[bad].split()
            lines[bad] = f"{x} {y} 0.0x1"
            _write_lines(work / scene / "cloud.xyz", lines)
            op = Op("estimate", args, f"{job}/estimate", expect_rc=2,
                    check=check_parse_error(bad + 1, 3))
            # A batch script stops at the first failing command.
            jobs.append(Job(f"batch_{i}", [op]))
            continue
        _write_lines(work / scene / "cloud.xyz", lines)
        counts = {"view_0_parsed": points, "merged": points,
                  "retained": _retained(pts, float(BATCH_TRIM))}
        approach = "horizontal" if envelope else "vertical"
        estimate = Op("estimate", args, f"{job}/estimate", items=points,
                      check=check_estimate(counts, dims, approach))
        jobs.append(Job(f"batch_{i}", [
            estimate,
            _plan_op(oracle, work, job, f"{job}/estimate/estimate.json", envelope),
            _slide_op(oracle, rng, job, DEFAULT_STEP),
            _fk_op(oracle, rng, job, DEFAULT_STEP),
        ]))
    return Workload("batch_small", jobs)


WORKLOADS = {
    "scene_ingest": scene_ingest,
    "kinematics_sweep": kinematics_sweep,
    "batch_small": batch_small,
}
