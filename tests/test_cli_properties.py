"""Properties of the CLI: whatever argv, run config and cloud bytes it is
given, it returns one of its documented exit codes and never raises; and
``plan`` grasps an object from the approach ``estimate`` decides for it.

argv is drawn in the ``--flag=value`` form with values argparse accepts, so
a drawn command always reaches the command code; argparse's own rejections
(exit 2 by SystemExit) are covered by test_cli.py.  Steps and angles are
drawn so a sweep either stays below a few thousand samples or is refused
before anything is allocated, which keeps every example to milliseconds.
"""

import json
import math
import os
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from softgrip import Box, ObjectEstimate, decide_approach, default_geometry
from softgrip.cli import CONFIG_ENV_VAR, main
from softgrip.inputs import from_dict
from softgrip.perception import APPROACH_UNGRASPABLE

EXIT_CODES = {0, 2, 3, 4, 5, 6}

SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324]
number = st.one_of(st.floats(-5.0, 5.0), st.integers(-3, 3), st.sampled_from(SPECIALS))
# Steps below 5e-3 rad that still pass the sample cap would make sweeps of
# millions of rows; 1e-300 is refused by the cap.
step = st.one_of(st.floats(5e-3, 1.0), st.sampled_from([0.0, -0.01, math.nan, math.inf, 1e-300]))
text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=12)
scalar = st.one_of(number, text, st.booleans(), st.none())
json_value = st.recursive(scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(text, inner, max_size=4)), max_leaves=8)


def corner():
    return st.one_of(st.lists(number, min_size=3, max_size=3), json_value)


def block(fields):
    """A config block: known keys with drawn values, sometimes junk keys or junk."""
    known = st.fixed_dictionaries({}, optional=fields)
    return st.one_of(known, st.dictionaries(text, scalar, max_size=2), json_value)


box_block = block({"min_corner": corner(), "max_corner": corner()})
slide_block = block({
    "surface_y_mm": st.one_of(number, st.none()), "theta_from": number, "theta_to": number,
    "step": step, "flex_gain": scalar, "flex_offset": scalar,
})
path_value = st.one_of(st.sampled_from(["geom.json", "cap.json", "missing.json", ".", ""]),
                       json_value)
run_config = st.one_of(
    st.fixed_dictionaries({}, optional={
        "geometry": path_value, "capacity": path_value, "roi": box_block,
        "workspace_limits": box_block, "slide": slide_block, "bogus": scalar,
    }),
    json_value,
)

TOKENS = ["0", "0.05", "-0.05", "1e-3", "nan", "inf", "1e400", "0.0x1", "x", "#", "", "VERSION"]
point = st.lists(st.floats(-0.1, 0.1).map(repr), min_size=3, max_size=3).map(" ".join)
cloud_line = st.one_of(point, st.lists(st.one_of(st.sampled_from(TOKENS), point), max_size=4)
                       .map(" ".join))
cloud_bytes = st.one_of(
    st.lists(cloud_line, max_size=30).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=64),
)
transform = st.one_of(
    st.just([float(i % 5 == 0) for i in range(16)]),  # identity
    st.lists(number, min_size=16, max_size=16),
    json_value,
)

flag = number.map(repr)
WORK = "<work>"  # replaced by the example's directory
COMMAND_FLAGS = {
    "fk": {"--theta": flag, "--from": flag, "--to": flag, "--step": step.map(repr),
           "--geometry": st.sampled_from(["geom.json", "cap.json", "missing.json"]).map(
               lambda name: f"{WORK}/{name}"),
           "--strict": st.none()},
    "estimate": {"--roi": st.one_of(st.lists(number, min_size=6, max_size=6).map(
                     lambda v: ",".join(map(repr, v))), text),
                 "--trim": st.one_of(st.floats(0.0, 0.1).map(repr), flag)},
    "plan": {"--squeeze-margin-mm": flag, "--surface-y-mm": flag,
             "--residual-fraction": flag, "--unhinged": st.none(),
             "--capacity": st.sampled_from(["cap.json", "geom.json", "missing.json"]).map(
                 lambda name: f"{WORK}/{name}")},
    "simulate-slide": {"--surface-y-mm": flag, "--theta-from": flag, "--theta-to": flag,
                       "--step": step.map(repr), "--flex-gain": flag, "--flex-offset": flag,
                       "--require-contact": st.none()},
}
REQUIRED = {"estimate": {"--manifest": f"{WORK}/manifest.json"}, "plan": {"--mass": "0.1"}}


@st.composite
def argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = draw(st.fixed_dictionaries({}, optional=COMMAND_FLAGS[command]))
    args = [command] + [f if v is None else f"{f}={v}" for f, v in flags.items()]
    args += [f"{f}={v}" for f, v in REQUIRED.get(command, {}).items()]
    if command == "plan":
        args.append(f"--estimate={WORK}/{draw(st.sampled_from(['envelope.json', 'pinch.json']))}")
        if draw(st.booleans()):
            args.append(f"--mass={draw(flag)}")  # the last --mass wins
    return args


def estimate(extents):
    return {"estimate": {"centroid_m": [0.0, 0.0, 0.1], "extents_m": extents,
                         "point_count": 100, "dominant_axis": "Z"}}


@settings(max_examples=60, deadline=None)
@given(argv(), st.none() | run_config, cloud_bytes, transform,
       st.sampled_from([False] * 9 + [True]))
def test_main_returns_a_documented_exit_code(args, config, cloud, pose, out_is_a_file):
    data = resources.files("softgrip.data")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(CONFIG_ENV_VAR, None)
        work = Path(tmp)
        (work / "geom.json").write_text(data.joinpath("geometry_default.json").read_text())
        (work / "cap.json").write_text(data.joinpath("capacity_default.json").read_text())
        (work / "cloud.xyz").write_bytes(cloud)
        (work / "manifest.json").write_text(
            json.dumps({"views": [{"cloud": "cloud.xyz", "transform": pose}]}))
        (work / "envelope.json").write_text(json.dumps(estimate([0.09, 0.09, 0.12])))
        (work / "pinch.json").write_text(json.dumps(estimate([0.03, 0.03, 0.006])))
        out = work / "out"
        if out_is_a_file:
            out.write_text("taken")
        prefix = []
        if config is not None:
            (work / "config.json").write_text(json.dumps(config))
            prefix = ["--config", str(work / "config.json")]
        rc = main(prefix + [a.replace(WORK, tmp) for a in args] + ["--out", str(out)])
    assert rc in EXIT_CODES


# Mostly widths the capacity table covers (20-140 mm); the open aperture is ~103 mm.
width = st.one_of(st.floats(0.02, 0.12), st.sampled_from([0.0, 0.01, 0.103]))
coordinate = st.floats(-0.5, 0.5)
xyz = st.tuples(coordinate, coordinate, coordinate)


@st.composite
def workspace(draw):
    lo = draw(xyz)
    return {"min_corner": list(lo),
            "max_corner": [v + draw(st.floats(1e-3, 1.0)) for v in lo]}


@settings(max_examples=100, deadline=None)
@given(st.tuples(width, width, st.floats(0.0, 0.2)), xyz, st.sampled_from("XYZ"), workspace())
def test_plan_follows_the_approach_decision(extents, centroid, dominant, limits):
    raw = {"centroid_m": list(centroid), "extents_m": list(extents), "point_count": 100,
           "dominant_axis": dominant}
    est = ObjectEstimate.from_dict(raw)
    decision = decide_approach(est, default_geometry(), from_dict(Box, limits, "workspace"))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(CONFIG_ENV_VAR, None)
        work = Path(tmp)
        (work / "config.json").write_text(json.dumps({"workspace_limits": limits}))
        (work / "estimate.json").write_text(json.dumps({"estimate": raw}))
        rc = main(["--config", str(work / "config.json"), "plan",
                   "--estimate", str(work / "estimate.json"), "--mass", "0.1",
                   "--out", str(work / "out")])
        assert (rc == 5) == (decision.approach == APPROACH_UNGRASPABLE), (rc, decision)
        if rc == 0:
            plan = json.loads((work / "out" / "plan.json").read_text())["plan"]
            assert plan["approach"] == decision.approach
