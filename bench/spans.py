"""Span tracer for one softgrip process of the traced benchmark run.

A traced command starts this module instead of the plain CLI one-liner::

    python -c "import sys; sys.path.insert(0, BENCH_DIR); import spans; \
sys.exit(spans.child_main(sys.argv[1:]))" SUMMARY.json fk --from -0.8 ...

It wraps the public functions of each layer module, runs
``softgrip.cli.main`` inside a root span ``cli.main.<command>`` and, when
the command ends, writes per-function call counts, self times and work
counts to SUMMARY.json.  Spans stay in memory until then, so tracing adds
no I/O to the measured work.  A function's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# Layer -> public functions traced, in the order the CLI reaches them.
LAYERS = {
    "perception": [
        "load_scene_manifest", "load_cloud", "parse_cloud", "transform_cloud",
        "merge_clouds", "crop_cloud", "estimate_object", "decide_approach",
    ],
    "geometry": [
        "default_geometry", "sample_trajectory", "fk_trace", "write_fk_trace_csv",
        "inverse_kinematics", "fingertip_jacobian",
    ],
    "planning": ["plan_envelope_grasp", "plan_pinch_grasp", "validate_plan", "write_plan_csv"],
    "capacity": ["default_capacity_model", "CapacityModel.payload_limit"],
    "simulate": ["simulate_slide", "write_slide_trace_csv", "simulate_free"],
}

# Not reachable from the CLI; the traced kinematics run drives them directly.
DRIVEN = ["geometry.fingertip_jacobian", "simulate.simulate_free"]

CLI_COMMANDS = ["estimate", "plan", "fk", "simulate-slide"]


def metric_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


def _rows(args, result):
    return {"items": len(result)}


def _kept(args, result):
    return {"kept": len(result), "seen": len(args[0])}


def _retained(args, result):
    return {"kept": result.point_count, "seen": len(args[0])}


def _written(args, result):
    # The CLI hands each writer a fresh StringIO, so its position is the size.
    return {"bytes": args[1].tell()}


def _ik_residual(args, result):
    from softgrip.geometry import aperture

    geom, target = args[0], args[1]
    return {"residual_mm": abs(aperture(geom, result) - target)}


# Work counts recorded when a call returns; they are summed, except maxima.
MEASURES = {
    "perception.parse_cloud": _rows,
    "perception.crop_cloud": _kept,
    "perception.estimate_object": _retained,
    "geometry.fk_trace": _rows,
    "geometry.write_fk_trace_csv": _written,
    "geometry.inverse_kinematics": _ik_residual,
    "simulate.simulate_slide": _rows,
    "simulate.write_slide_trace_csv": _written,
}
MAXIMA = {"residual_mm"}


class Tracer:
    """In-memory spans: [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, result)
            return result

        return traced

    def install(self, names: list[str]) -> None:
        """Wrap each named function and rebind every softgrip reference to it."""
        import softgrip.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer, attrs in LAYERS.items():
            module = sys.modules[f"softgrip.{layer}"]
            for attr in attrs:
                name = metric_name(layer, attr)
                if name not in names:
                    continue
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, fn_name)
                wrapper = self.wrap(name, original, MEASURES.get(name))
                setattr(owner, fn_name, wrapper)
                wrappers[original] = wrapper
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "softgrip" and not mod_name.startswith("softgrip."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def summary(self) -> dict:
        """Per name: calls, self time, total time and summed work counts."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, _, start, end, counts) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "total_s": 0.0, "counts": {}})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["s"] += end - start - covered[i]
            for key, value in (counts or {}).items():
                prev = entry["counts"].get(key, 0)
                entry["counts"][key] = max(prev, value) if key in MAXIMA else prev + value
        return out


def drive(seed: str, theta_from: str, theta_to: str, step: str) -> int:
    """Sweep the Jacobian and the perturbed free-motion simulator over one range."""
    import numpy as np
    from softgrip import geometry, simulate

    geom = geometry.default_geometry()
    trajectory = geometry.sample_trajectory(geom, float(theta_from), float(theta_to),
                                            float(step))
    rng = np.random.default_rng(int(seed))
    perturbation = simulate.PerturbationModel(
        x_bias_mm=float(rng.uniform(-3.0, 3.0)),
        backlash_width_rad=0.02,
        noise_sd_mm=0.05,
        seed=int(seed),
    )
    jacobian = [geometry.fingertip_jacobian(geom, theta) for theta in trajectory]
    free = simulate.simulate_free(geom, trajectory, perturbation)
    return 0 if len(jacobian) == len(free) == len(trajectory) else 1


def child_main(argv: list[str]) -> int:
    summary_path, args = argv[0], argv[1:]
    tracer = Tracer()
    try:
        if args[0] == "--drive":
            tracer.install(DRIVEN)
            return drive(*args[1:5])  # the trailing --out is unused: the sweep writes nothing
        import softgrip.cli

        tracer.install([metric_name(layer, attr) for layer, attrs in LAYERS.items()
                        for attr in attrs])
        return tracer.wrap(f"cli.main.{args[0]}", softgrip.cli.main)(args)
    finally:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
