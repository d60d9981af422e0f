"""Batch command-line front end.

Wires geometry/capacity configs, scene manifests, planning, and the
sliding simulator into reproducible runs.  Every command writes its
artifacts plus a run manifest (input hashes, no timestamps) into one
output directory, so repeated runs with the same inputs are byte
identical.

Exit codes are a stable contract: 0 ok, else the ``exit_code`` of the
error that ended the run (see softgrip.errors).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
import tempfile
import warnings
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import IO, Callable, Optional

from . import geometry as geometry_mod
from .capacity import default_capacity_model, load_capacity_model
from .errors import (ConfigError, EmptyCloudError, InvalidPoseError, NoContactError, ParseError,
                     ResourceError, SoftgripError)
from .geometry import GripperGeometry, default_geometry
from .inputs import HashingReader, decode_json, from_dict
from .perception import (
    DEFAULT_TRIM_FRACTION,
    DEFAULT_WORKSPACE,
    Box,
    ObjectEstimate,
    PointCloud,
    crop_cloud,
    decide_approach,
    estimate_object,
    is_small_height,
    load_scene_manifest,
    merge_clouds,
    parse_cloud,
    transform_cloud,
)
from .planning import (DEFAULT_SQUEEZE_MARGIN_MM, plan_envelope_grasp, plan_pinch_grasp,
                       validate_plan, write_plan_csv)
from .simulate import SlideConfig, simulate_slide, write_slide_trace_csv

CONFIG_ENV_VAR = "SOFTGRIP_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Optional JSON run configuration.

    ``slide`` stays a raw object: command-line flags merge into it before
    it is checked as a SlideConfig.
    """

    geometry: Optional[str] = None
    capacity: Optional[str] = None
    roi: Optional[Box] = None
    workspace_limits: Optional[Box] = None
    slide: dict = field(default_factory=dict)

    @property
    def workspace(self) -> Box:
        """The reachable box of the approach decision."""
        return self.workspace_limits or DEFAULT_WORKSPACE


class RunDir:
    """Reads the inputs and writes the artifacts and provenance of one invocation.

    Entered around the command, it stages every artifact in a plain mkdir
    (so with the umask's mode) in a hidden ``.NAME.XXXX`` directory in
    --out's nearest existing ancestor, on its filesystem; finalize renames
    the stage onto --out, and on exit whatever was not published goes.
    An --out that is a file or a non-empty directory is refused on entry,
    before the command's work."""

    def __init__(self, args):
        if not args.out:  # Path("") is the working directory
            raise ConfigError("--out must not be empty")
        self.path = Path(args.out)
        self.command = args.command
        self.parameters = {key: value for key, value in sorted(vars(args).items())
                           if key not in ("func", "command", "config", "out")}
        self.inputs: dict = {}  # path -> sha256 of the bytes read
        self.outputs: list[str] = []

    def __enter__(self) -> RunDir:
        try:  # a hidden directory made before a failure goes with its finalizer
            self._refuse_taken_out()
            self._hidden = tempfile.TemporaryDirectory(
                prefix=f".{self.path.name}.", ignore_cleanup_errors=True,
                dir=next((path for path in self.path.parents if path.exists()), self.path.parent))
            self.stage = Path(self._hidden.name, "run")
            self.stage.mkdir()
        except OSError as exc:
            raise self._cannot_write(exc) from exc
        return self

    def __exit__(self, *exc_info) -> None:
        self._hidden.cleanup()

    def _refuse_taken_out(self) -> None:
        """Raise the error finalize's os.replace gives for an --out that is not
        a directory or not empty."""
        try:
            is_dir = stat.S_ISDIR(os.lstat(self.path).st_mode)
        except FileNotFoundError:
            return
        if not is_dir:
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        with os.scandir(self.path) as entries:
            if next(entries, None) is not None:
                raise OSError(errno.ENOTEMPTY, os.strerror(errno.ENOTEMPTY))

    def open_input(self, path) -> HashingReader:
        """Open an input file, whose hash is recorded from the bytes read."""
        reader = HashingReader(path)
        self.inputs[str(path)] = reader.sha256
        return reader

    def read_json(self, path):
        """Read a JSON input once: hash its bytes and decode the same bytes."""
        with self.open_input(path) as reader:
            return decode_json(reader.read(), path)

    def write(self, name: str, fill: Callable[[IO[str]], object]) -> Path:
        """Stage one artifact, streamed by ``fill(stream)``; return its published path."""
        try:
            with (self.stage / name).open("w", encoding="utf-8") as stream:
                fill(stream)
        except OSError as exc:
            raise self._cannot_write(exc, name) from exc
        self.outputs.append(name)
        return self.path / name

    def write_json(self, name: str, payload: dict) -> Path:
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:  # NaN or infinity, which JSON cannot hold
            raise ConfigError(f"cannot write {self.path / name}: {exc}") from exc
        return self.write(name, lambda stream: stream.write(text))

    def finalize(self) -> None:
        """Stage the run manifest and rename the stage onto --out, which
        os.replace refuses if it became a file or a non-empty directory
        during the run."""
        self.write_json("run_manifest.json", {
            "command": self.command,
            "parameters": self.parameters,
            "inputs": {path: sha.hexdigest() for path, sha in sorted(self.inputs.items())},
            "outputs": sorted(self.outputs),
        })
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            os.replace(self.stage, self.path)
        except OSError as exc:
            raise self._cannot_write(exc) from exc

    def _cannot_write(self, exc: OSError, name: str = "") -> ConfigError:
        """The error of a failed write, naming --out and never the stage."""
        reason = exc if exc.filename is None else OSError(exc.errno, exc.strerror)
        return ConfigError(f"cannot write {self.path / name}: {reason}")


def _load_model(args, cfg: RunConfig, run: RunDir, key: str, parse, default):
    """Parse the JSON file named by --KEY, else by the run config's KEY
    (relative to the config's directory); with neither, the shipped default."""
    path, source = getattr(args, key), f"--{key}"
    if path is None:
        path, source = getattr(cfg, key), f"run config {args.config} key {key!r}"
        if path:  # an absolute path in the config replaces its directory
            path = Path(args.config).parent / path
    if path == "":
        raise ConfigError(f"{source} must not be empty")
    return default() if path is None else parse(run.read_json(Path(path)), f"{key} {path}")


# ---------------------------------------------------------------------------
# fk
# ---------------------------------------------------------------------------

def cmd_fk(args, cfg: RunConfig, run: RunDir, geom: GripperGeometry) -> None:
    if args.theta is not None:
        if args.theta_from is not None or args.theta_to is not None:
            raise ConfigError("use either --theta or --from/--to, not both")
        trajectory = geometry_mod.MotorTrajectory(samples=(args.theta,), step=args.step)
    else:
        if args.theta_from is None or args.theta_to is None:
            raise ConfigError("need --theta or both --from and --to")
        trajectory = geometry_mod.sample_trajectory(geom, args.theta_from, args.theta_to, args.step)
    geometry_mod.check_window(geom, trajectory.ends, args.strict)

    trace = geometry_mod.fk_trace(geom, trajectory)
    out_path = run.write(
        "fk_trace.csv", lambda stream: geometry_mod.write_fk_trace_csv(trace, stream)
    )
    run.finalize()
    print(f"fk: wrote {len(trace)} rows to {out_path}")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _box(flag: str) -> Box:
    """The box of an --roi flag, "x0,y0,z0,x1,y1,z1"."""
    try:
        values = [float(v) for v in flag.split(",")]
    except ValueError:
        values = []
    if len(values) != 6:
        raise ConfigError("--roi needs 6 comma-separated numbers: x0,y0,z0,x1,y1,z1")
    return from_dict(Box, {"min_corner": values[:3], "max_corner": values[3:]}, "--roi")


def cmd_estimate(args, cfg: RunConfig, run: RunDir, geom: GripperGeometry) -> None:
    roi = _box(args.roi) if args.roi else cfg.roi
    manifest_path = Path(args.manifest)
    views = load_scene_manifest(run.read_json(manifest_path), f"manifest {manifest_path}")

    # Each view is parsed from its file a block at a time, and each block is
    # put in the global frame and cropped as soon as it is parsed, so a view
    # is only ever held as its kept points; merge_clouds takes them view by
    # view into one array.  Transforming and cropping keep order point by
    # point, so this is the crop of the merged views.
    stage_counts: dict[str, int] = {}

    def kept(i: int, cloud_path: Path, pose) -> PointCloud:
        parsed, far = f"view_{i}_parsed", []
        stage_counts[parsed] = 0

        def keep(block):
            stage_counts[parsed] += len(block)
            try:
                if not far:
                    cloud = transform_cloud(PointCloud(block), pose)
                    return (cloud if roi is None else crop_cloud(cloud, roi)).points
            except InvalidPoseError as exc:  # raised once the view is parsed, as parse errors come first
                far.append(str(exc))
            return block[:0]

        # An unreadable cloud raises ConfigError, which names it already.
        with run.open_input(cloud_path) as stream:
            try:
                cloud = parse_cloud(stream, keep)
                if far:
                    raise InvalidPoseError(far[0])
            except (ParseError, InvalidPoseError) as exc:
                raise type(exc)(f"{cloud_path}: {exc}") from exc
        return cloud

    # A generator of calls, so that no view is held once merge_clouds has it.
    each = (kept(i, manifest_path.parent / cloud_rel, pose)
            for i, (cloud_rel, pose) in enumerate(views))
    merged = merge_clouds(each)
    total = sum(stage_counts.values())
    stage_counts["merged"] = total
    print(f"estimate: merged {total} points from {len(views)} view(s)")

    if roi is not None:
        stage_counts["cropped"] = len(merged)
        print(f"estimate: {len(merged)} points inside the region of interest")
        if merged.is_empty:
            raise EmptyCloudError("region of interest removed every point")

    est = estimate_object(merged, trim_fraction=args.trim)
    stage_counts["retained"] = est.point_count
    decision = decide_approach(est, geom, cfg.workspace)

    payload = {
        "estimate": est.to_dict(),
        "decision": decision.to_dict(),
        "stage_counts": stage_counts,
    }
    out_path = run.write_json("estimate.json", payload)
    run.finalize()
    ex, ey, ez = est.extents
    print(
        f"estimate: extents ({ex:.4f}, {ey:.4f}, {ez:.4f}) m, "
        f"dominant {est.dominant_axis}, approach {decision.approach} "
        f"({decision.reason}); wrote {out_path}"
    )


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def cmd_plan(args, cfg: RunConfig, run: RunDir, geom: GripperGeometry) -> None:
    capacity = _load_model(args, cfg, run, "capacity", load_capacity_model,
                           default_capacity_model)
    raw = run.read_json(Path(args.estimate))
    if isinstance(raw, dict) and "estimate" in raw:
        raw = raw["estimate"]
    est = ObjectEstimate.from_dict(raw, f"estimate {args.estimate}")

    # estimate's decision picks the approach.  Each planner checks its flags
    # before it refuses an ungraspable object, so route by the decision's own
    # small-height rule rather than by its verdict.
    decision = decide_approach(est, geom, cfg.workspace)
    if is_small_height(est):
        surface = args.surface_y_mm if args.surface_y_mm is not None else float("-inf")
        plan = plan_pinch_grasp(geom, est, surface_y_mm=surface)
    else:
        plan = plan_envelope_grasp(
            geom,
            est,
            squeeze_margin_mm=args.squeeze_margin_mm,
            residual_fraction=args.residual_fraction,
            approach=decision.approach,
        )

    report = validate_plan(plan, est, args.mass, capacity, hinged=not args.unhinged)

    run.write("plan_trajectory.csv", lambda stream: write_plan_csv(plan, stream))
    out_path = run.write_json(
        "plan.json", {"plan": plan.to_dict(), "validation": report.to_dict()}
    )
    run.finalize()
    verdict = "pass" if report.passed else "FAIL"
    print(
        f"plan: {plan.approach} grasp to theta {plan.target_theta:.4f} rad, "
        f"validation {verdict}; wrote {out_path}"
    )


# ---------------------------------------------------------------------------
# simulate-slide
# ---------------------------------------------------------------------------

def cmd_simulate_slide(args, cfg: RunConfig, run: RunDir, geom: GripperGeometry) -> None:
    # The geometry's slide range, then the run config's slide block, then the flags.
    flags = {f.name: getattr(args, f.name) for f in fields(SlideConfig)}
    block = {"theta_from": geom.theta_open, "theta_to": geom.slide_floor, **cfg.slide,
             **{key: value for key, value in flags.items() if value is not None}}
    trace = simulate_slide(geom, from_dict(SlideConfig, block, "slide config"))

    run.write("slide_trace.csv", lambda stream: write_slide_trace_csv(trace, stream))
    # Made by the writer's pass over the trace's chunks, so read without another.
    summary = {
        "surface_y_mm": trace.surface_y_mm,
        "contact_theta": trace.contact_theta,
        "closure_theta": trace.closure_theta,
        "peak_bend_mm": trace.peak_bend,
        "warnings": list(trace.warnings),
    }
    out_path = run.write_json("slide_summary.json", summary)
    run.finalize()

    if trace.contact_theta is None:
        print("simulate-slide: no contact over the sweep")
        if args.require_contact:
            raise NoContactError("--require-contact: no contact over the sweep")
    else:
        print(
            f"simulate-slide: contact at {trace.contact_theta:.4f} rad, "
            f"closure at {trace.closure_theta:.4f} rad, "
            f"peak bend {trace.peak_bend:.3f} mm"
        )
    print(f"simulate-slide: wrote {out_path}")


# ---------------------------------------------------------------------------
# parser / entry points
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softgrip",
        description="Slider-crank soft-gripper toolkit: kinematics, sizing, "
        "planning, and sliding-contact simulation.",
    )
    parser.add_argument(
        "--config",
        default=os.environ.get(CONFIG_ENV_VAR),
        help=f"run config JSON (default from ${CONFIG_ENV_VAR})",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--geometry", help="geometry JSON (default: shipped geometry)")
    common.add_argument("--out", default="softgrip_run", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fk = sub.add_parser("fk", parents=[common], help="forward-kinematics trace to CSV")
    p_fk.add_argument("--theta", type=float, help="single motor angle (rad)")
    p_fk.add_argument("--from", dest="theta_from", type=float, help="sweep start (rad)")
    p_fk.add_argument("--to", dest="theta_to", type=float, help="sweep end (rad)")
    p_fk.add_argument("--step", type=float, default=geometry_mod.DEFAULT_STEP)
    p_fk.add_argument("--strict", action="store_true", help="error outside the operating window")
    p_fk.set_defaults(func=cmd_fk)

    p_est = sub.add_parser("estimate", parents=[common],
                           help="size an object from a scene manifest")
    p_est.add_argument("--manifest", required=True, help="scene manifest JSON")
    p_est.add_argument("--roi", help="crop box x0,y0,z0,x1,y1,z1 (meters)")
    p_est.add_argument("--trim", type=float, default=DEFAULT_TRIM_FRACTION,
                       help="percentile trim fraction")
    p_est.set_defaults(func=cmd_estimate)

    p_plan = sub.add_parser("plan", parents=[common], help="plan a grasp from an object estimate")
    p_plan.add_argument("--capacity", help="capacity JSON (default: shipped table)")
    p_plan.add_argument("--estimate", required=True, help="estimate JSON from 'estimate'")
    p_plan.add_argument("--mass", type=float, required=True, help="object mass (kg)")
    p_plan.add_argument("--unhinged", action="store_true",
                        help="validate for the unreinforced finger configuration")
    p_plan.add_argument("--squeeze-margin-mm", type=float, default=DEFAULT_SQUEEZE_MARGIN_MM)
    p_plan.add_argument("--surface-y-mm", type=float, help="support surface for pinch plans")
    p_plan.add_argument("--residual-fraction", type=float, default=0.0)
    p_plan.set_defaults(func=cmd_plan)

    p_sl = sub.add_parser("simulate-slide", parents=[common],
                          help="sliding-contact simulation to CSV")
    for f in fields(SlideConfig):  # --theta-from sets theta_from, and so on
        p_sl.add_argument(f"--{f.name.replace('_', '-')}", type=float,
                          help="overrides the run config's slide block")
    p_sl.add_argument("--require-contact", action="store_true", help="exit 6 when no contact")
    p_sl.set_defaults(func=cmd_simulate_slide)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"softgrip: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's warning display
        warnings.showwarning = _print_warning
        try:
            with RunDir(args) as run:
                raw = {} if args.config is None else run.read_json(args.config)
                cfg = from_dict(RunConfig, raw, f"run config {args.config}")
                geom = _load_model(args, cfg, run, "geometry",
                                   partial(from_dict, GripperGeometry), default_geometry)
                args.func(args, cfg, run, geom)
        except (SoftgripError, MemoryError) as exc:  # MemoryError: numpy's, or a mapping's
            error = exc if isinstance(exc, SoftgripError) else ResourceError(
                "out of memory" + (f": {exc}" if str(exc) else ""))
            print(f"softgrip: {error}", file=sys.stderr)
            return error.exit_code
        except KeyboardInterrupt:
            print("softgrip: interrupted", file=sys.stderr)
            return 130
    return 0


def console_main() -> None:
    sys.exit(main())
