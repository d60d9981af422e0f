#!/usr/bin/env python3
"""Fresh-process `fk` and `simulate-slide` sweeps at 1e-3, 1e-5 and 1e-6 rad steps.

    python3 tools/trace_scale.py                    # working tree against HEAD
    python3 tools/trace_scale.py --base HEAD~1 --repeats 7

The trace counterpart of tools/ingest_scale.py.  Each case runs
``softgrip fk --from -0.8 --to -1.4 --step S`` or ``softgrip
simulate-slide --step S`` in a fresh interpreter with ``src`` on
PYTHONPATH, for the working tree and for --base (checked out with ``git
worktree`` under .bench_work/), the two sides alternated and their order
swapped every repeat.  The children are started by bench/launcher.py, so
that ``ru_maxrss`` is the child's own.  Printed per case and side: the
median wall time of the child and the median of its peak RSS
(``ru_maxrss`` from ``os.wait4``).  Every run of a case, on both sides,
must write a CSV with the same sha256.  Each run directory is removed once
its CSV is hashed, and the worktree at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, WORKTREE, worktree

sys.path.insert(0, str(ROOT / "bench"))
from run import Launcher  # noqa: E402

STEPS = ("1e-3", "1e-5", "1e-6")
# Command arguments before --step, and the CSV the command writes.
COMMANDS = {
    "fk": (["fk", "--from", "-0.8", "--to", "-1.4"], "fk_trace.csv"),
    "simulate-slide": (["simulate-slide"], "slide_trace.csv"),
}
# The first argument is the src directory to import softgrip from.
CLI_CODE = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
            "from softgrip.cli import main; sys.exit(main(sys.argv[1:]))")


def run_case(launcher: Launcher, tree: Path, command: str, step: str,
             out: Path) -> tuple[float, float, str]:
    """Wall seconds, peak RSS (MB) and the CSV's sha256 of one fresh process,
    whose run directory ``out`` is removed again."""
    args, csv = COMMANDS[command]
    argv = [sys.executable, "-c", CLI_CODE, str(tree / "src"), *args, "--step", step,
            "--out", str(out)]
    stderr = out.with_suffix(".stderr")
    reply = launcher.run(argv, out.parent, stderr)
    if reply["rc"] != 0:
        raise SystemExit(f"{tree}: {command} --step {step} exited {reply['rc']}: "
                         f"{stderr.read_text()[-300:]}")
    digest = hashlib.sha256((out / csv).read_bytes()).hexdigest()
    shutil.rmtree(out)  # a 1e-6 rad trace is ~100 MB of text
    return reply["wall"], reply["maxrss_kb"] / 1024, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    rows = []
    with Launcher() as launcher, tempfile.TemporaryDirectory(prefix="trace_scale_") as tmp, \
            worktree(args.base, WORKTREE.with_name("trace_base")) as base:
        for command in COMMANDS:
            for step in STEPS:
                runs = {"base": [], "change": []}
                for i in range(args.repeats):
                    order = [("base", base), ("change", ROOT)]
                    for k, (name, tree) in enumerate(order if i % 2 == 0 else order[::-1]):
                        out = Path(tmp) / f"{command}_{step}_{i}_{k}"
                        runs[name].append(run_case(launcher, tree, command, step, out))
                same = len({digest for side in runs.values() for *_, digest in side}) == 1
                rows.append((f"{command} --step {step}", runs, same))
                print(f"{command} --step {step}: done", file=sys.stderr)

    print(f"| case | {args.base} s | change s | {args.base} MB | change MB | CSV sha256 |")
    print("|---|---|---|---|---|---|")
    for case, runs, same in rows:
        wall = {name: statistics.median(r[0] for r in side) for name, side in runs.items()}
        rss = {name: statistics.median(r[1] for r in side) for name, side in runs.items()}
        print(f"| {case} | {wall['base']:.3f} | {wall['change']:.3f} | {rss['base']:.1f} "
              f"| {rss['change']:.1f} | {'identical' if same else 'DIFFERS'} |")
    return 0 if all(same for *_, same in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
