#!/usr/bin/env python3
"""Closed-loop benchmark of the softgrip command-line tool.

    python3 bench/run.py --workload scene_ingest --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client drives the real CLI.  Every command is a fresh interpreter,
``python -c "...softgrip.cli.main..."`` with ``src`` on PYTHONPATH, and the
next one starts only after the previous one has exited, so one child runs
at a time; launcher.py starts them, so that each one's peak RSS is its
own.  Inputs are generated from the seed before timing starts (see
workloads.py); every exit code and artifact is checked, and an operation
whose exit code or check differs from the expectation counts as failed.

``--trace 0`` times the commands untraced and ends with the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced cycles of the
workload, runs each traced command under spans.py, and ends with the
per-layer metrics, averaged per job.  Either way the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a readable report and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import CLI_COMMANDS, DRIVEN, LAYERS, MAXIMA, metric_name

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tools" / "fk_oracle.py"
WORK = ROOT / ".bench_work"

CLI_CODE = "import sys; from softgrip.cli import main; sys.exit(main(sys.argv[1:]))"
TRACED_CODE = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import spans; "
               "sys.exit(spans.child_main(sys.argv[1:]))")
SETUP_CODE = ("import softgrip.cli; from softgrip.geometry import default_geometry; "
              "from softgrip.capacity import default_capacity_model; "
              "default_geometry(); default_capacity_model()")


@dataclass
class Child:
    rc: int
    wall: float
    stderr: str


@dataclass
class OpResult:
    command: str
    expect_rc: int
    items: int
    wall: float
    ok: bool
    summary: dict | None = None


class Launcher:
    """Client of launcher.py, which starts every child so that ru_maxrss is the child's own.

    Start it before loading anything large: the launcher inherits this
    process's peak RSS at that moment.
    """

    def __init__(self):
        env = dict(os.environ)
        env.pop("SOFTGRIP_CONFIG", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, stderr: Path) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "stderr": str(stderr)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


@dataclass
class Runner:
    """Runs the workload's commands one at a time and keeps the run's counters."""

    launcher: Launcher
    work: Path
    traced: bool = False
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)

    def spawn(self, argv: list[str]) -> Child:
        stderr = self.work / "stderr.txt"
        reply = self.launcher.run(argv, self.work, stderr)
        self.peak_rss_mb = max(self.peak_rss_mb, reply["maxrss_kb"] / 1024)
        text = stderr.read_text(encoding="utf-8", errors="replace")
        return Child(reply["rc"], reply["wall"], text)

    def record(self, problems: list[str], label: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems

    def setup_wall(self) -> float:
        child = self.spawn([sys.executable, "-c", SETUP_CODE])
        self.record([] if child.rc == 0 else [f"exit code {child.rc}: {child.stderr[-300:]!r}"],
                    "set-up")
        return child.wall

    def run_op(self, key: str, op) -> OpResult:
        out = self.work / op.out
        shutil.rmtree(out, ignore_errors=True)
        summary_path = self.work / "spans.json"
        summary_path.unlink(missing_ok=True)
        prefix = [sys.executable, "-c", TRACED_CODE, str(summary_path)] if self.traced else \
            [sys.executable, "-c", CLI_CODE]
        child = self.spawn(prefix + op.argv())
        if child.rc != op.expect_rc:
            problems = [f"exit code {child.rc}, expected {op.expect_rc}: {child.stderr[-300:]!r}"]
        else:
            try:
                problems = op.check(out, child.stderr) if op.check else []
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if not problems and op.expect_rc == 0 and out.is_dir():
            problems = self._rerun_problems(key, out)
        summary = None
        if self.traced:
            try:
                summary = json.loads(summary_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"no span summary: {exc!r}")
        ok = self.record(problems, f"{key} {op.command}")
        return OpResult(op.command, op.expect_rc, op.items, child.wall, ok, summary)

    def _rerun_problems(self, key: str, out: Path) -> list[str]:
        """Artifacts of one job must be byte-identical every time it runs."""
        digest = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
        first = self.hashes.setdefault(key, digest.hexdigest())
        return [] if first == digest.hexdigest() else ["artifacts differ from an earlier run"]

    def run_job(self, job) -> list[OpResult]:
        results = []
        for i, op in enumerate(job.ops):
            results.append(self.run_op(f"{job.key}/{i}", op))
            if not results[-1].ok:
                break  # later commands read this one's output
        return results


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest sample with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0  # none only if an earlier op failed


def end_to_end(jobs: list[list[OpResult]], setup: list[float], runner: Runner):
    """Gated metrics {name: (value, unit)} plus report lines for the rest.

    Times cover every attempted command that should succeed; an expected
    error (the malformed cloud) counts in its job's time only.
    """
    walls, items = defaultdict(list), defaultdict(int)
    job_walls = [sum(r.wall for r in job) for job in jobs]
    for job in jobs:
        for r in job:
            if r.expect_rc == 0:
                walls[r.command].append(r.wall)
                items[r.command] += r.items
    metrics = {
        "setup_s": (_median(setup), "s"),
        "job_s_p50": (_median(job_walls), "s"),
        "plan_s": (_median(walls["plan"]), "s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
    }

    def line(name, value, unit, note=""):
        return f"{name:<14} {value:>14.6g} {unit:<9} {note}".rstrip()

    report = [line(name, value, unit) for name, (value, unit) in metrics.items()]
    report[1] += f" n={len(job_walls)} jobs"
    t = tail(job_walls)
    if t:
        report.append(line("job_s_tail", t[1], "s", f"p{t[0]:.0f}, n={len(job_walls)} jobs"))
    else:
        report.append(f"{'job_s_tail':<14} {'n/a':>14} s         needs > 10 jobs, "
                      f"have {len(job_walls)}")
    for name, command in (("estimate_s", "estimate"), ("fk_s", "fk"),
                          ("slide_s", "simulate-slide")):
        if walls[command]:
            report.append(line(name, statistics.median(walls[command]), "s",
                               f"n={len(walls[command])}"))
    if walls["estimate"]:
        report.append(line("points_per_s", items["estimate"] / sum(walls["estimate"]), "points/s"))
    trace_rows = items["fk"] + items["simulate-slide"]
    if trace_rows:
        trace_s = sum(walls["fk"]) + sum(walls["simulate-slide"])
        report.append(line("rows_per_s", trace_rows / trace_s, "rows/s"))
    report.append(line("error_rate", runner.failed / max(runner.attempted, 1), "ratio",
                       f"{runner.failed}/{runner.attempted} operations"))
    return metrics, report


# Per-function statistics beyond .calls and .s, derived from the spans' work counts.
EXTRAS = {
    "perception.parse_cloud": [("items", "count"), ("points_per_s", "points/s")],
    "perception.crop_cloud": [("kept_ratio", "ratio")],
    "perception.estimate_object": [("retained_ratio", "ratio")],
    "geometry.fk_trace": [("items", "count"), ("us_per_sample", "us")],
    "geometry.write_fk_trace_csv": [("bytes", "B")],
    "geometry.inverse_kinematics": [("residual_mm", "mm")],
    "simulate.simulate_slide": [("items", "count"), ("us_per_sample", "us")],
    "simulate.write_slide_trace_csv": [("bytes", "B")],
}


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit), in a fixed order."""
    spec = []
    for layer, attrs in LAYERS.items():
        spec.append((f"{layer}.s", "s"))
        for attr in attrs:
            name = metric_name(layer, attr)
            spec += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
            spec += [(f"{name}.{stat}", unit) for stat, unit in EXTRAS.get(name, [])]
    spec += [(f"cli.main.{command}.s", "s") for command in CLI_COMMANDS]
    spec += [("cli.self_s", "s"), ("cli.process_s", "s"), ("job.inproc_s", "s"),
             ("job.untraced_s_p50", "s"), ("job.traced_s_p50", "s"), ("trace.overhead_s", "s")]
    return spec


def _merge(into: dict, summary: dict) -> None:
    for name, entry in summary.items():
        acc = into.setdefault(name, {"calls": 0, "s": 0.0, "total_s": 0.0,
                                     "counts": defaultdict(float)})
        acc["calls"] += entry["calls"]
        acc["s"] += entry["s"]
        acc["total_s"] += entry["total_s"]
        for key, value in entry["counts"].items():
            acc["counts"][key] = max(acc["counts"][key], value) if key in MAXIMA \
                else acc["counts"][key] + value


def per_layer(traced: list[list[OpResult]], drives: list[dict], untraced: list[list[OpResult]]):
    """Per-job means of the traced jobs' spans, 0 for a layer the workload never reaches."""
    n = len(traced)
    stats: dict[str, dict] = {}
    cli_roots = defaultdict(lambda: [0.0, 0.0])  # command -> [in-process s, self s]
    process_s = 0.0
    for job in traced:
        for r in job:
            summary = dict(r.summary or {})
            root = summary.pop(f"cli.main.{r.command}", None)
            if root:
                cli_roots[r.command][0] += root["total_s"]
                cli_roots[r.command][1] += root["s"]
                process_s += r.wall - root["total_s"]
            _merge(stats, summary)
    driven: dict[str, dict] = {}
    for summary in drives:
        _merge(driven, summary)

    values: dict[str, float] = {}
    for layer, attrs in LAYERS.items():
        layer_s = 0.0
        for attr in attrs:
            name = metric_name(layer, attr)
            entry = (driven if name in DRIVEN else stats).get(name)
            calls, s = (entry["calls"], entry["s"]) if entry else (0, 0.0)
            counts = entry["counts"] if entry else defaultdict(float)
            if name not in DRIVEN:
                layer_s += s
            values[f"{name}.calls"] = calls / n
            values[f"{name}.s"] = s / n
            for stat, _ in EXTRAS.get(name, []):
                if stat in ("items", "bytes"):
                    value = counts[stat] / n
                elif stat == "points_per_s":
                    value = counts["items"] / s if s else 0.0
                elif stat == "us_per_sample":
                    value = 1e6 * s / counts["items"] if counts["items"] else 0.0
                elif stat.endswith("_ratio"):
                    value = counts["kept"] / counts["seen"] if counts["seen"] else 0.0
                else:
                    value = counts[stat]
                values[f"{name}.{stat}"] = value
        values[f"{layer}.s"] = layer_s / n
    for command in CLI_COMMANDS:
        values[f"cli.main.{command}.s"] = cli_roots[command][0] / n
    values["cli.self_s"] = sum(v[1] for v in cli_roots.values()) / n
    values["cli.process_s"] = process_s / n
    values["job.inproc_s"] = sum(v[0] for v in cli_roots.values()) / n
    untraced_p50 = statistics.median(sum(r.wall for r in job) for job in untraced)
    traced_p50 = statistics.median(sum(r.wall for r in job) for job in traced)
    values["job.untraced_s_p50"] = untraced_p50
    values["job.traced_s_p50"] = traced_p50
    values["trace.overhead_s"] = traced_p50 - untraced_p50
    return values


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def metadata(seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "commit": commit,
            "src_lines": src_lines}


def run_workload(launcher: Launcher, workload, seconds: float, traced: bool, work: Path) -> dict:
    """Measure one built workload; returns the result object for the last line."""
    runner = Runner(launcher, work)
    runner.setup_wall()  # the first interpreter start also writes bytecode caches
    cycle = workload.jobs
    if not traced:
        # One set-up sample after each job spreads them over the run, as the
        # host's speed drifts within seconds.
        jobs, setup = [], []
        start = time.perf_counter()
        while not jobs or time.perf_counter() - start < seconds:
            jobs.append(runner.run_job(cycle[len(jobs) % len(cycle)]))
            setup.append(runner.setup_wall())
        metrics, report = end_to_end(jobs, setup, runner)
    else:
        untraced, traced_jobs, drives = [], [], []
        start = time.perf_counter()
        while not traced_jobs or time.perf_counter() - start < seconds:
            runner.traced = False
            untraced += [runner.run_job(job) for job in cycle]
            runner.traced = True
            traced_jobs += [runner.run_job(job) for job in cycle]
            if workload.drive:
                drives.append(runner.run_op("drive", workload.drive).summary or {})
        values = per_layer(traced_jobs, drives, untraced)
        metrics = {name: (values[name], unit) for name, unit in per_layer_spec()}
        report = [f"{name:<44} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    for line in report:
        print(line)
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scene_ingest", "kinematics_sweep", "batch_small", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "softgrip" / "cli.py", ORACLE):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} is missing; run from a softgrip checkout",
                  file=sys.stderr)
            return 2
    with Launcher() as launcher:
        sys.path.insert(0, str(SRC))
        from workloads import WHY, WORKLOADS, Oracle

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        oracle = Oracle(ORACLE)
        print(f"# meta {json.dumps(metadata(args.seed))}")
        results = {}
        for name in names:
            work = WORK / f"{name}-{args.seed}-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                workload = WORKLOADS[name](work, args.seed, oracle)
                print(f"# workload {name}: {WHY[name]}")
                results[name] = run_workload(launcher, workload, args.seconds, bool(args.trace),
                                             work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run is using it
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
