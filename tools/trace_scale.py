#!/usr/bin/env python3
"""Fresh-process `fk` and `simulate-slide` sweeps at 1e-3 to 1e-7 rad steps, and `plan`.

    python3 tools/trace_scale.py                    # working tree against HEAD
    python3 tools/trace_scale.py --base HEAD~1 --repeats 7
    python3 tools/trace_scale.py --base ../parent   # a checkout of the parent

The trace counterpart of tools/ingest_scale.py.  Each case runs
``softgrip fk --from -0.8 --to -1.4 --step S`` or ``softgrip
simulate-slide --step S`` in a fresh interpreter with ``src`` on
PYTHONPATH, for the working tree and for --base (checked out with ``git
worktree`` under .bench_work/, or a checkout's directory used as it is),
the two sides alternated and their order swapped every repeat.  One more
case runs fk at 1e-7 rad: 6M rows and ~813 MB of CSV, the finest decade
step the sample cap allows over fk's range (over the slide's it is 11M
samples, past the cap).  Two more cases run each command at 1e-5 rad with
``--geometry``, a copy of the shipped geometry JSON, so that an input is
read and hashed.  The last case
runs ``softgrip plan --estimate FILE --mass 0.1`` on a small estimate JSON,
so that all three CSV writers are compared.  The children are started by
bench/launcher.py, so that ``ru_maxrss`` is the child's own.
Printed per case and side: the median wall time of the child and the median
of its peak RSS (``ru_maxrss`` from ``os.wait4``).  Every run of a case, on
both sides, must write the same files with the same bytes: the CSV,
``slide_summary.json``, ``plan.json`` and ``run_manifest.json``, in a run
directory with the same mode bits, and leave no ``.OUT.*`` staging entry
beside it.  Files are hashed a MiB at a time, and each run directory is
removed once its files are hashed, so that the disk holds one run's files
at a time; the worktree is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

from bench_pairs import CLI_CODE, ROOT, WORKTREE, print_medians, worktree

sys.path.insert(0, str(ROOT / "bench"))
from run import Launcher  # noqa: E402

STEPS = ("1e-3", "1e-5", "1e-6")
FK_ONLY_STEP = "1e-7"  # 6M fk rows; the slide's 11M are past the sample cap
# Command arguments before --step.
COMMANDS = {
    "fk": ["fk", "--from", "-0.8", "--to", "-1.4"],
    "simulate-slide": ["simulate-slide"],
}
GEOMETRY_STEP = "1e-5"  # of the cases that read --geometry
# The estimate the plan case reads: an 80 mm cylinder, 120 mm tall.
ESTIMATE = {"estimate": {"centroid_m": [0.0, 0.0, 0.1], "extents_m": [0.08, 0.08, 0.12],
                         "point_count": 5000, "dominant_axis": "Z"}}


def run_case(launcher: Launcher, tree: Path, args: list[str],
             out: Path) -> tuple[float, float, str]:
    """Wall seconds, peak RSS (MB) and the sha256 of the mode bits of the run
    directory ``out`` of one fresh process and of every file's name and
    bytes in it, after which ``out`` is removed again."""
    argv = [sys.executable, "-c", CLI_CODE, str(tree / "src"), *args, "--out", str(out)]
    stderr = out.with_suffix(".stderr")
    reply = launcher.run(argv, out.parent, stderr)
    if reply["rc"] != 0:
        raise SystemExit(f"{tree}: {' '.join(args)} exited {reply['rc']}: "
                         f"{stderr.read_text()[-300:]}")
    staged = sorted(path.name for path in out.parent.glob(f".{out.name}.*"))
    if staged:
        raise SystemExit(f"{tree}: {' '.join(args)} left {staged} beside {out}")
    digest = hashlib.sha256(b"%o\0" % (out.stat().st_mode & 0o7777))
    for path in sorted(out.iterdir()):
        digest.update(b"%s\0%d\0" % (path.name.encode(), path.stat().st_size))
        with path.open("rb") as stream:
            for block in iter(partial(stream.read, 1 << 20), b""):
                digest.update(block)
    shutil.rmtree(out)  # a 1e-7 rad fk trace is ~813 MB of text
    return reply["wall"], reply["maxrss_kb"] / 1024, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    rows = []
    with Launcher() as launcher, tempfile.TemporaryDirectory(prefix="trace_scale_") as tmp, \
            worktree(args.base, WORKTREE.with_name("trace_base")) as base:
        geometry = Path(tmp) / "geometry.json"  # one path, as the manifests record it
        shutil.copyfile(ROOT / "src" / "softgrip" / "data" / "geometry_default.json", geometry)
        cases = [[*COMMANDS[command], "--step", step] for command in COMMANDS for step in STEPS]
        cases.append([*COMMANDS["fk"], "--step", FK_ONLY_STEP])
        cases += [[*COMMANDS[command], "--step", GEOMETRY_STEP, "--geometry", str(geometry)]
                  for command in COMMANDS]
        estimate = Path(tmp) / "estimate.json"
        estimate.write_text(json.dumps(ESTIMATE), encoding="utf-8")
        cases.append(["plan", "--estimate", str(estimate), "--mass", "0.1"])
        for c, case in enumerate(cases):
            runs = {"base": [], "change": []}
            for i in range(args.repeats):
                order = [("base", base), ("change", ROOT)]
                for k, (name, tree) in enumerate(order if i % 2 == 0 else order[::-1]):
                    out = Path(tmp) / f"case{c}_{i}_{k}"
                    runs[name].append(run_case(launcher, tree, case, out))
            same = len({digest for side in runs.values() for *_, digest in side}) == 1
            prefix = len(COMMANDS.get(case[0], case[:1]))  # leaves the fk range out
            label = " ".join(case[:1] + case[prefix:])
            label = label.replace(str(geometry), "FILE").replace(str(estimate), "FILE")
            rows.append((label, runs, same))
            print(f"{label}: done", file=sys.stderr)

    return 0 if print_medians(rows, args.base, "case", "files sha256") else 1


if __name__ == "__main__":
    sys.exit(main())
