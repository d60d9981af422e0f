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
import io
import json
import os
import sys
from pathlib import Path

from . import capacity as capacity_mod
from . import geometry as geometry_mod
from .errors import ConfigError, ParseError, SoftgripError
from .perception import (
    APPROACH_UNGRASPABLE,
    DEFAULT_WORKSPACE,
    ObjectEstimate,
    RegionOfInterest,
    WorkspaceLimits,
    crop_cloud,
    decide_approach,
    estimate_object,
    load_scene_manifest,
    merge_clouds,
    parse_cloud,
    transform_cloud,
)
from .planning import (
    SMALL_HEIGHT_THRESHOLD_MM,
    plan_envelope_grasp,
    plan_pinch_grasp,
    validate_plan,
    write_plan_csv,
)
from .simulate import SlideConfig, simulate_slide, write_slide_trace_csv

EXIT_OK = 0
EXIT_EMPTY = 4
EXIT_INFEASIBLE = 5
EXIT_NO_CONTACT = 6

CONFIG_ENV_VAR = "SOFTGRIP_CONFIG"


class RunConfig:
    """Optional JSON run configuration; paths resolve against its directory."""

    def __init__(self, raw: dict, base_dir: Path):
        self.raw = raw
        self.base_dir = base_dir

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls({}, Path.cwd())
        p = Path(path)
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read run config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"run config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"run config {path} must be a JSON object")
        return cls(raw, p.parent)

    def resolve_path(self, value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else self.base_dir / p

    def path_for(self, key: str) -> Path | None:
        value = self.raw.get(key)
        return None if value is None else self.resolve_path(value)

    def block(self, key: str) -> dict:
        value = self.raw.get(key, {})
        if not isinstance(value, dict):
            raise ConfigError(f"run config block {key!r} must be an object")
        return value


class RunDir:
    """Collects artifacts and provenance for one invocation."""

    def __init__(self, out_dir: str):
        self.path = Path(out_dir)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []

    def record_input(self, path) -> bytes:
        """Read an input file, record its hash and return the bytes hashed."""
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        return data

    def write_text(self, name: str, text: str) -> Path:
        """Write one artifact; the directory appears with the first of them."""
        self.path.mkdir(parents=True, exist_ok=True)
        target = self.path / name
        target.write_text(text, encoding="utf-8")
        self.outputs.append(name)
        return target

    def write_json(self, name: str, payload: dict) -> Path:
        return self.write_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def finalize(self, command: str, parameters: dict) -> None:
        manifest = {
            "command": command,
            "parameters": parameters,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": sorted(self.outputs),
        }
        self.write_text(
            "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )


def _load_geometry(args, cfg: RunConfig, run: RunDir):
    path = Path(args.geometry) if getattr(args, "geometry", None) else cfg.path_for("geometry")
    if path is None:
        return geometry_mod.default_geometry()
    geom = geometry_mod.load_geometry(path)
    run.record_input(path)
    return geom


def _load_capacity(args, cfg: RunConfig, run: RunDir):
    path = Path(args.capacity) if getattr(args, "capacity", None) else cfg.path_for("capacity")
    if path is None:
        return capacity_mod.default_capacity_model()
    model = capacity_mod.load_capacity_file(path)
    run.record_input(path)
    return model


def _public_parameters(args) -> dict:
    skip = {"func", "command", "config", "out"}
    params = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        params[key] = value
    return params


# ---------------------------------------------------------------------------
# fk
# ---------------------------------------------------------------------------

def cmd_fk(args, cfg: RunConfig) -> int:
    run = RunDir(args.out)
    geom = _load_geometry(args, cfg, run)
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

    states = geometry_mod.fk_trace(geom, trajectory, window="ignore")
    buf = io.StringIO()
    geometry_mod.write_fk_trace_csv(states, buf)
    out_path = run.write_text("fk_trace.csv", buf.getvalue())
    run.finalize("fk", _public_parameters(args))
    print(f"fk: wrote {len(states)} rows to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _roi_from_args(args, cfg: RunConfig) -> RegionOfInterest | None:
    if args.roi:
        vals = [float(v) for v in args.roi.split(",")]
        if len(vals) != 6:
            raise ConfigError("--roi needs 6 comma-separated numbers: x0,y0,z0,x1,y1,z1")
        return RegionOfInterest(tuple(vals[:3]), tuple(vals[3:]))
    block = cfg.block("roi")
    return RegionOfInterest.from_dict(block) if block else None


def _workspace_from_config(cfg: RunConfig) -> WorkspaceLimits:
    block = cfg.block("workspace_limits")
    return WorkspaceLimits.from_dict(block) if block else DEFAULT_WORKSPACE


def cmd_estimate(args, cfg: RunConfig) -> int:
    run = RunDir(args.out)
    geom = _load_geometry(args, cfg, run)
    manifest_path = Path(args.manifest)
    views = load_scene_manifest(manifest_path)
    run.record_input(manifest_path)

    stage_counts: dict[str, int] = {}
    global_clouds = []
    for i, (cloud_rel, pose) in enumerate(views):
        cloud_path = manifest_path.parent / cloud_rel
        cloud = parse_cloud(run.record_input(cloud_path))
        stage_counts[f"view_{i}_parsed"] = len(cloud)
        global_clouds.append(transform_cloud(cloud, pose))

    merged = merge_clouds(global_clouds)
    stage_counts["merged"] = len(merged)
    print(f"estimate: merged {len(merged)} points from {len(views)} view(s)")

    roi = _roi_from_args(args, cfg)
    if roi is not None:
        merged = crop_cloud(merged, roi)
        stage_counts["cropped"] = len(merged)
        print(f"estimate: {len(merged)} points inside the region of interest")
        if merged.is_empty:
            print("estimate: region of interest removed every point", file=sys.stderr)
            return EXIT_EMPTY

    est = estimate_object(merged, trim_fraction=args.trim)
    stage_counts["retained"] = est.point_count
    decision = decide_approach(est, geom, _workspace_from_config(cfg))

    payload = {
        "estimate": est.to_dict(),
        "decision": decision.to_dict(),
        "stage_counts": stage_counts,
    }
    out_path = run.write_json("estimate.json", payload)
    run.finalize("estimate", _public_parameters(args))
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

def _read_estimate(path: Path) -> ObjectEstimate:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read estimate {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"estimate {path} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict) and "estimate" in raw:
        raw = raw["estimate"]
    return ObjectEstimate.from_dict(raw)


def cmd_plan(args, cfg: RunConfig) -> int:
    run = RunDir(args.out)
    geom = _load_geometry(args, cfg, run)
    capacity = _load_capacity(args, cfg, run)
    estimate_path = Path(args.estimate)
    est = _read_estimate(estimate_path)
    run.record_input(estimate_path)

    decision = decide_approach(est, geom, _workspace_from_config(cfg))
    if decision.approach == APPROACH_UNGRASPABLE:
        print(f"plan: object ungraspable ({decision.reason})", file=sys.stderr)
        return EXIT_INFEASIBLE

    height_mm = est.extents[2] * 1000.0
    if height_mm <= SMALL_HEIGHT_THRESHOLD_MM:
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

    buf = io.StringIO()
    write_plan_csv(plan, buf)
    run.write_text("plan_trajectory.csv", buf.getvalue())
    out_path = run.write_json(
        "plan.json", {"plan": plan.to_dict(), "validation": report.to_dict()}
    )
    run.finalize("plan", _public_parameters(args))
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
    run = RunDir(args.out)
    geom = _load_geometry(args, cfg, run)

    block = dict(cfg.block("slide"))
    for key, flag in (
        ("surface_y_mm", args.surface_y_mm),
        ("theta_from", args.theta_from),
        ("theta_to", args.theta_to),
        ("step", args.step),
        ("flex_gain", args.flex_gain),
        ("flex_offset", args.flex_offset),
    ):
        if flag is not None:
            block[key] = flag
    slide_cfg = SlideConfig.from_dict(block)

    trace = simulate_slide(geom, slide_cfg)

    buf = io.StringIO()
    write_slide_trace_csv(trace, buf)
    run.write_text("slide_trace.csv", buf.getvalue())
    summary = {
        "surface_y_mm": trace.surface_y_mm,
        "contact_theta": trace.contact_theta,
        "closure_theta": trace.closure_theta,
        "peak_bend_mm": trace.peak_bend,
        "warnings": list(trace.warnings),
    }
    out_path = run.write_json("slide_summary.json", summary)
    run.finalize("simulate-slide", _public_parameters(args))

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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        return args.func(args, cfg)
    except SoftgripError as exc:
        print(f"softgrip: {exc}", file=sys.stderr)
        return exc.exit_code


def console_main() -> None:
    sys.exit(main())
