"""Batch command-line front end.

Wires geometry/capacity configs, scene manifests, planning, and the
sliding simulator into reproducible runs.  Every command writes its
artifacts plus a run manifest (input hashes, no timestamps) into one
output directory, so repeated runs with the same inputs are byte
identical.

Exit codes are a stable contract: 0 ok, 2 configuration or parse error,
3 kinematic domain error, 4 empty result after cropping, 5 infeasible
grasp, 6 no contact under --require-contact.  Errors carry their code as
``exit_code`` (see softgrip.errors).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Callable, Optional

from . import geometry as geometry_mod
from .capacity import default_capacity_model, load_capacity_model
from .errors import ConfigError, ParseError, SoftgripError
from .geometry import default_geometry, geometry_from_dict
from .inputs import decode_json, from_dict, read_bytes, read_json
from .perception import (
    APPROACH_UNGRASPABLE,
    DEFAULT_WORKSPACE,
    Box,
    ObjectEstimate,
    crop_cloud,
    decide_approach,
    estimate_object,
    is_small_height,
    load_scene_manifest,
    merge_clouds,
    parse_cloud,
    transform_cloud,
)
from .planning import plan_envelope_grasp, plan_pinch_grasp, validate_plan, write_plan_csv
from .simulate import SlideConfig, simulate_slide, write_slide_trace_csv

EXIT_OK = 0
EXIT_EMPTY = 4
EXIT_INFEASIBLE = 5
EXIT_NO_CONTACT = 6

CONFIG_ENV_VAR = "SOFTGRIP_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Optional JSON run configuration.

    ``slide`` stays a raw object: command-line flags merge into it before
    SlideConfig.from_dict checks it.
    """

    geometry: Optional[str] = None
    capacity: Optional[str] = None
    roi: Optional[Box] = None
    workspace_limits: Optional[Box] = None
    slide: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        """The config in ``path`` (none: every key absent), with its file
        paths resolved against its directory."""
        if path is None:
            return cls()
        cfg = from_dict(cls, read_json(path, ConfigError), f"run config {path}")
        base = Path(path).parent  # an absolute path in the file replaces it
        return replace(cfg, **{
            key: str(base / value) for key in ("geometry", "capacity")
            if (value := getattr(cfg, key)) is not None
        })


class RunDir:
    """Reads the inputs and writes the artifacts and provenance of one invocation."""

    def __init__(self, args):
        self.path = Path(args.out)
        self.command = args.command
        self.parameters = _public_parameters(args)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []

    def record_input(self, path) -> bytes:
        """Read an input file, record its hash and return the bytes hashed."""
        data = read_bytes(path)
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        return data

    def read_json(self, path):
        """Read a JSON input once: hash its bytes and decode the same bytes."""
        return decode_json(self.record_input(path), path)

    def write(self, name: str, fill: Callable[[IO[str]], object]) -> Path:
        """Write one artifact by streaming ``fill(stream)`` into its file; the
        directory appears with the first of them, once the parameters are
        known to fit the run manifest."""
        if not self.outputs:
            self._json_text("run_manifest.json", self.parameters)
        target = self.path / name
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            with target.open("w", encoding="utf-8") as stream:
                fill(stream)
        except OSError as exc:
            raise ConfigError(f"cannot write {target}: {exc}") from exc
        self.outputs.append(name)
        return target

    def _json_text(self, name: str, payload: dict) -> str:
        try:
            return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:  # NaN or infinity, which JSON cannot hold
            raise ConfigError(f"cannot write {self.path / name}: {exc}") from exc

    def write_json(self, name: str, payload: dict) -> Path:
        text = self._json_text(name, payload)
        return self.write(name, lambda stream: stream.write(text))

    def finalize(self) -> None:
        manifest = {
            "command": self.command,
            "parameters": self.parameters,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": sorted(self.outputs),
        }
        self.write_json("run_manifest.json", manifest)


def _load_model(args, cfg: RunConfig, run: RunDir, key: str, parse, default):
    """Parse the JSON file named by --KEY, else by the run config's KEY;
    with neither, the shipped default."""
    path = getattr(args, key, None) or getattr(cfg, key)
    return default() if path is None else parse(run.read_json(Path(path)), f"{key} {path}")


def _public_parameters(args) -> dict:
    skip = {"func", "command", "config", "out"}
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip}


# ---------------------------------------------------------------------------
# fk
# ---------------------------------------------------------------------------

def cmd_fk(args, cfg: RunConfig) -> int:
    run = RunDir(args)
    geom = _load_model(args, cfg, run, "geometry", geometry_from_dict, default_geometry)
    window = "strict" if args.strict else "warn"

    if args.theta is not None:
        if args.theta_from is not None or args.theta_to is not None:
            raise ConfigError("use either --theta or --from/--to, not both")
        trajectory = geometry_mod.MotorTrajectory(samples=(args.theta,), step=args.step)
        geometry_mod.check_window(geom, args.theta, window)
    else:
        if args.theta_from is None or args.theta_to is None:
            raise ConfigError("need --theta or both --from and --to")
        trajectory = geometry_mod.sample_trajectory(
            geom, args.theta_from, args.theta_to, args.step, window=window
        )

    trace = geometry_mod.fk_trace(geom, trajectory, window="ignore")
    out_path = run.write(
        "fk_trace.csv", lambda stream: geometry_mod.write_fk_trace_csv(trace, stream)
    )
    run.finalize()
    print(f"fk: wrote {len(trace)} rows to {out_path}")
    return EXIT_OK


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


def cmd_estimate(args, cfg: RunConfig) -> int:
    run = RunDir(args)
    geom = _load_model(args, cfg, run, "geometry", geometry_from_dict, default_geometry)
    roi = _box(args.roi) if args.roi else cfg.roi
    workspace = cfg.workspace_limits or DEFAULT_WORKSPACE
    manifest_path = Path(args.manifest)
    views = load_scene_manifest(run.read_json(manifest_path), f"manifest {manifest_path}")

    stage_counts: dict[str, int] = {}
    global_clouds = []
    for i, (cloud_rel, pose) in enumerate(views):
        cloud_path = manifest_path.parent / cloud_rel
        try:  # an unreadable cloud raises ConfigError, which names it already
            cloud = parse_cloud(run.record_input(cloud_path))
        except ParseError as exc:
            raise ParseError(f"{cloud_path}: {exc}") from exc
        stage_counts[f"view_{i}_parsed"] = len(cloud)
        global_clouds.append(transform_cloud(cloud, pose))

    merged = merge_clouds(global_clouds)
    stage_counts["merged"] = len(merged)
    print(f"estimate: merged {len(merged)} points from {len(views)} view(s)")

    if roi is not None:
        merged = crop_cloud(merged, roi)
        stage_counts["cropped"] = len(merged)
        print(f"estimate: {len(merged)} points inside the region of interest")
        if merged.is_empty:
            print("estimate: region of interest removed every point", file=sys.stderr)
            return EXIT_EMPTY

    est = estimate_object(merged, trim_fraction=args.trim)
    stage_counts["retained"] = est.point_count
    decision = decide_approach(est, geom, workspace)

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
    return EXIT_OK


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def cmd_plan(args, cfg: RunConfig) -> int:
    run = RunDir(args)
    geom = _load_model(args, cfg, run, "geometry", geometry_from_dict, default_geometry)
    capacity = _load_model(args, cfg, run, "capacity", load_capacity_model,
                           default_capacity_model)
    raw = run.read_json(Path(args.estimate))
    if isinstance(raw, dict) and "estimate" in raw:
        raw = raw["estimate"]
    est = ObjectEstimate.from_dict(raw, f"estimate {args.estimate}")

    decision = decide_approach(est, geom, cfg.workspace_limits or DEFAULT_WORKSPACE)
    if decision.approach == APPROACH_UNGRASPABLE:
        print(f"plan: object ungraspable ({decision.reason})", file=sys.stderr)
        return EXIT_INFEASIBLE

    if is_small_height(est):
        surface = args.surface_y_mm if args.surface_y_mm is not None else float("-inf")
        plan = plan_pinch_grasp(geom, est, surface_y_mm=surface)
    else:
        plan = plan_envelope_grasp(
            geom,
            est,
            squeeze_margin_mm=args.squeeze_margin_mm,
            residual_fraction=args.residual_fraction,
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
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate-slide
# ---------------------------------------------------------------------------

def cmd_simulate_slide(args, cfg: RunConfig) -> int:
    run = RunDir(args)
    geom = _load_model(args, cfg, run, "geometry", geometry_from_dict, default_geometry)

    block = dict(cfg.slide)
    for key in ("surface_y_mm", "theta_from", "theta_to", "step", "flex_gain", "flex_offset"):
        if getattr(args, key) is not None:
            block[key] = getattr(args, key)
    slide_cfg = SlideConfig.from_dict(block)

    trace = simulate_slide(geom, slide_cfg)

    run.write("slide_trace.csv", lambda stream: write_slide_trace_csv(trace, stream))
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
            return EXIT_NO_CONTACT
    else:
        print(
            f"simulate-slide: contact at {trace.contact_theta:.4f} rad, "
            f"closure at {trace.closure_theta:.4f} rad, "
            f"peak bend {trace.peak_bend:.3f} mm"
        )
    print(f"simulate-slide: wrote {out_path}")
    return EXIT_OK


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
    sub = parser.add_subparsers(dest="command", required=True)

    p_fk = sub.add_parser("fk", help="forward-kinematics trace to CSV")
    p_fk.add_argument("--geometry", help="geometry JSON (default: shipped geometry)")
    p_fk.add_argument("--theta", type=float, help="single motor angle (rad)")
    p_fk.add_argument("--from", dest="theta_from", type=float, help="sweep start (rad)")
    p_fk.add_argument("--to", dest="theta_to", type=float, help="sweep end (rad)")
    p_fk.add_argument("--step", type=float, default=geometry_mod.DEFAULT_STEP)
    p_fk.add_argument("--strict", action="store_true", help="error outside the operating window")
    p_fk.add_argument("--out", default="softgrip_run", help="output directory")
    p_fk.set_defaults(func=cmd_fk)

    p_est = sub.add_parser("estimate", help="size an object from a scene manifest")
    p_est.add_argument("--geometry")
    p_est.add_argument("--manifest", required=True, help="scene manifest JSON")
    p_est.add_argument("--roi", help="crop box x0,y0,z0,x1,y1,z1 (meters)")
    p_est.add_argument("--trim", type=float, default=0.01, help="percentile trim fraction")
    p_est.add_argument("--out", default="softgrip_run")
    p_est.set_defaults(func=cmd_estimate)

    p_plan = sub.add_parser("plan", help="plan a grasp from an object estimate")
    p_plan.add_argument("--geometry")
    p_plan.add_argument("--capacity", help="capacity JSON (default: shipped table)")
    p_plan.add_argument("--estimate", required=True, help="estimate JSON from 'estimate'")
    p_plan.add_argument("--mass", type=float, required=True, help="object mass (kg)")
    p_plan.add_argument("--unhinged", action="store_true",
                        help="validate for the unreinforced finger configuration")
    p_plan.add_argument("--squeeze-margin-mm", type=float, default=5.0)
    p_plan.add_argument("--surface-y-mm", type=float, help="support surface for pinch plans")
    p_plan.add_argument("--residual-fraction", type=float, default=0.0)
    p_plan.add_argument("--out", default="softgrip_run")
    p_plan.set_defaults(func=cmd_plan)

    p_sl = sub.add_parser("simulate-slide", help="sliding-contact simulation to CSV")
    p_sl.add_argument("--geometry")
    p_sl.add_argument("--surface-y-mm", type=float, help="surface coordinate (mm)")
    p_sl.add_argument("--theta-from", type=float)
    p_sl.add_argument("--theta-to", type=float)
    p_sl.add_argument("--step", type=float)
    p_sl.add_argument("--flex-gain", type=float)
    p_sl.add_argument("--flex-offset", type=float)
    p_sl.add_argument("--require-contact", action="store_true", help="exit 6 when no contact")
    p_sl.add_argument("--out", default="softgrip_run")
    p_sl.set_defaults(func=cmd_simulate_slide)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"softgrip: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's warning display
        warnings.showwarning = _print_warning
        try:
            cfg = RunConfig.load(args.config)
            return args.func(args, cfg)
        except SoftgripError as exc:
            print(f"softgrip: {exc}", file=sys.stderr)
            return exc.exit_code


def console_main() -> None:
    sys.exit(main())
