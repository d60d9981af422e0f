#!/usr/bin/env python3
"""Alternating parent/change runs of the CLI benchmark, summarised in one JSON file.

    python3 tools/bench_pairs.py --slug 7 --pairs 10 --seed 4242
    python3 tools/bench_pairs.py --slug 7 --base HEAD~1   # once the change is committed

The change is this checkout's working tree; the parent is --base (default
HEAD), checked out with ``git worktree`` under .bench_work/ and removed
again at the end, or, when --base names a directory, the checkout there
(a ``git clone`` of the parent, say), used as it is.  Each pair runs the
unchanged ``bench/run.py --workload W --seed S --seconds T --trace 0`` of
both trees, one after the other, the order swapped every pair so that
drift of the host's speed hits both alike.  BENCH_<slug>.json gets, per end-to-end metric, both sides' values,
medians and quartiles and the number of pairs the change won, plus each
side's error rate, ``src/`` line count and ``src/softgrip/*.py`` sha256
(src_digest), the Python and numpy versions and whether
PYTHONDONTWRITEBYTECODE was set.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKTREE = ROOT / ".bench_work" / "parent"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def worktree(base: str, path: Path = WORKTREE):
    """Revision ``base`` checked out with ``git worktree`` at ``path``, removed at
    exit; or ``base`` itself when it is the directory of a checkout."""
    if Path(base).is_dir():
        yield Path(base).resolve()
        return
    path.parent.mkdir(exist_ok=True)
    git("worktree", "add", "--detach", "--force", str(path), git("rev-parse", base))
    try:
        yield path
    finally:
        git("worktree", "remove", "--force", str(path))


def src_digest(tree: Path) -> str:
    """sha256 over tree's src/softgrip/*.py, each file's name, size and bytes
    in name order: equal for equal sources, however they were checked out
    (a side's ``commit`` reads its checkout's HEAD, which for the change is
    the parent, or ``unknown``)."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "softgrip").glob("*.py")):
        data = path.read_bytes()
        digest.update(b"%s\0%d\0%s" % (path.name.encode(), len(data), data))
    return digest.hexdigest()


def bench(tree: Path, args) -> tuple[dict, dict]:
    """One run of tree's bench/run.py: its metadata line and its result line."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    lines = subprocess.run(argv, cwd=tree, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
    return meta, json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(better: str, parent: list[float], change: list[float]) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    q_parent, q_change = quartiles(parent), quartiles(change)
    return {
        "better": better,
        "parent": {"median": q_parent[1], "q1": q_parent[0], "q3": q_parent[2],
                   "values": parent},
        "change": {"median": q_change[1], "q1": q_change[0], "q3": q_change[2],
                   "values": change},
        "change_wins": wins,
        "pairs": len(parent),
        "median_gap": abs(q_parent[1] - q_change[1]),
        "parent_iqr": q_parent[2] - q_parent[0],
    }


def side(metas: list[dict], results: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    meta = metas[0]
    return {"commit": meta["commit"], "src_lines": meta["src_lines"],
            "error_rate": failed / attempted if attempted else None,
            "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slug", required=True, help="writes BENCH_<slug>.json")
    parser.add_argument("--base", default="HEAD",
                        help="parent revision (default HEAD), or a checkout's directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    direction = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {"parent": ([], []), "change": ([], [])}
    with worktree(args.base) as parent:
        digests = {"parent": src_digest(parent), "change": src_digest(ROOT)}
        for i in range(args.pairs):
            order = [("parent", parent), ("change", ROOT)]
            for name, tree in order if i % 2 == 0 else order[::-1]:
                meta, result = bench(tree, args)
                runs[name][0].append(meta)
                runs[name][1].append(result)
                print(f"pair {i + 1}/{args.pairs} {name}: failed {result['failed']} of "
                      f"{result['attempted']}", file=sys.stderr)

    parent_results, change_results = runs["parent"][1], runs["change"][1]
    metrics = {}
    for metric in parent_results[0]["metrics"]:
        better = direction.get(metric.rsplit(".", 1)[-1])
        if better is None:
            continue
        metrics[metric] = summary(
            better, [r["metrics"][metric]["value"] for r in parent_results],
            [r["metrics"][metric]["value"] for r in change_results])
    meta = runs["change"][0][0]
    report = {
        "slug": args.slug,
        "command": f"bench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "python": meta["python"],
        "numpy": meta["numpy"],
        "nproc": meta["nproc"],
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "parent": {"base": args.base, **side(*runs["parent"]), "src_sha256": digests["parent"]},
        "change": {"base": "working tree", **side(*runs["change"]),
                   "src_sha256": digests["change"]},
        "metrics": metrics,
    }
    out = ROOT / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
