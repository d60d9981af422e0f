#!/usr/bin/env python3
"""Fresh-process `estimate` on 10k, 200k and 1M-point scenes, 1 and 3 views each,
and on each size as one view in each other record shape of RECORDS.

    python3 tools/ingest_scale.py                    # working tree against HEAD
    python3 tools/ingest_scale.py --base HEAD~1 --repeats 5
    python3 tools/ingest_scale.py --base ../parent   # a checkout of the parent

Each scene is a seeded softgrip.synthetic cylinder with uniform outliers
beside it (one point in ten), N points in total, written as shortest
round-trip XYZ text, one space between fields: as one view, or split in
three views, each in its own camera frame.  These go through the orjson
tier of the parse.  The malformed case is the one-view scene with its
last-but-two record replaced by one that does not parse: orjson converts
the view's chunks up to the one that holds that record, and from that
chunk on the per-line parser reads the rest up to that record.  The
"\\r\\n", tab "\\r\\n" and two-space views are rewritten to single
spaces a chunk at a time and read by orjson too; so is the view whose
"# café" header line is UTF-8 but not ASCII, and the PCD view, whose
header is read line by line first.  The "%+.6f" view's "+0.1" is not
JSON; orjson reads it once each "+" before a digit is deleted.  The "bad
utf-8" view has a malformed record early and a byte that is not UTF-8
near its end: the UTF-8 error is reported, as it comes before any other.
The "shortening" view keeps its first 3k records and has "1 2 3" for
every one after them (outside the box), so its points per byte rise
tenfold after the first chunk and its point array grows many times.
Every case runs ``softgrip estimate --roi`` (the box keeps the cylinder) in a fresh
interpreter with ``src`` on PYTHONPATH, for the working tree and for
--base (checked out with ``git worktree`` under .bench_work/, or a
checkout's directory used as it is), the two sides alternated and their
order swapped every repeat.  The children are started by
bench/launcher.py, a small process started before any scene is
generated, because Linux carries the spawning process's peak RSS into a
child's ``ru_maxrss`` at exec.
Printed per case and side: the median wall time of the child and the
median of its peak RSS (``ru_maxrss`` from ``os.wait4``).  Both sides must
write the same estimate.json and run_manifest.json into a run directory
with the same mode bits, or for the malformed cases exit 2 with the same
stderr and no run directory.  The manifest holds the sha256 of each input:
the 10k views are hashed by CPython's built-in SHA-256 and the 200k and 1M
views, each over 1 MiB, by OpenSSL's.  No run may leave a ``.OUT.*``
staging entry beside its run directory, which is removed after each run.
The worktree and the scenes are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import CLI_CODE, ROOT, WORKTREE, print_medians, worktree

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
from run import Launcher  # noqa: E402
from softgrip import make_cylinder, uniform_box_noise  # noqa: E402

SIZES = (10_000, 200_000, 1_000_000)
VIEWS = (1, 3)
BAD_RECORD = "0.0 0.0x1 0.0\n"  # written in place of a malformed view's last-but-two record
BAD_UTF8 = b"0.0 0.0 0.0 \xff\n"  # not UTF-8: the "bad utf-8" view's last-but-two record
LONG_RECORDS = 3_000  # kept by a "shortening" view; the rest are SHORT_RECORD
SHORT_RECORD = b"1 2 3\n"
PCD_HEADER = ("# view {k} of {views}, seed {seed}\nVERSION .7\nFIELDS x y z\nSIZE 8 8 8\n"
              "TYPE F F F\nCOUNT 1 1 1\nWIDTH {n}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
              "POINTS {n}\nDATA ascii\n")
# The record format and header of each kind of scene.
RECORDS = {
    "": ("{!r} {!r} {!r}\n", "# view {k} of {views}, seed {seed}\n"),
    "bad record": ("{!r} {!r} {!r}\n", "# view {k} of {views}, seed {seed}\n"),
    "tab crlf": ("{!r}\t{!r}\t{!r}\r\n", "# view {k} of {views}, seed {seed}\r\n"),
    "crlf": ("{!r} {!r} {!r}\r\n", "# view {k} of {views}, seed {seed}\r\n"),
    "two spaces": ("{!r}  {!r}  {!r}\n", "# view {k} of {views}, seed {seed}\n"),
    "%+.6f": ("{:+.6f} {:+.6f} {:+.6f}\n", "# view {k} of {views}, seed {seed}\n"),
    "# caf\u00e9": ("{!r} {!r} {!r}\n", "# caf\u00e9 view {k} of {views}, seed {seed}\n"),
    "bad utf-8": ("{!r} {!r} {!r}\n", "# view {k} of {views}, seed {seed}\n"),
    "pcd": ("{!r} {!r} {!r}\n", PCD_HEADER),
    "shortening": ("{!r} {!r} {!r}\n", "# view {k} of {views}, seed {seed}\n"),
}
FAILING = ("bad record", "bad utf-8")  # kinds whose estimate exits 2
ROI = (-0.06, -0.06, -0.01, 0.06, 0.06, 0.13)


def _pose(k: int) -> np.ndarray:
    """Camera-to-global transform of view k: a turn about z and an offset."""
    angle = np.radians(120.0 * k + 15.0)
    c, s = np.cos(angle), np.sin(angle)
    pose = np.eye(4)
    pose[:3, :3] = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    pose[:3, 3] = (0.4 * c, 0.4 * s, 0.05)
    return pose


def write_scene(folder: Path, n_points: int, n_views: int, seed: int,
                kind: str = "") -> Path:
    """A scene of n_points in total over n_views XYZ or PCD files, whose
    records and header ``kind`` picks from RECORDS; returns its manifest.
    The last view of a "bad record" scene ends in BAD_RECORD and two good
    records; that of a "bad utf-8" scene has BAD_RECORD as its third record
    and BAD_UTF8 as its last-but-two; a "shortening" view's records after
    its first LONG_RECORDS are SHORT_RECORD."""
    record, header = RECORDS[kind]
    n_noise = n_points // 10
    cylinder = make_cylinder(n_points=n_points - n_noise, seed=seed, center=(0.0, 0.0, 0.06))
    noise = uniform_box_noise(n_noise, side_m=0.1, seed=seed + 1, center=(0.3, 0.0, 0.06))
    points = np.random.default_rng(seed).permutation(np.vstack([cylinder.points, noise.points]))
    folder.mkdir(parents=True)
    views = []
    for k, part in enumerate(np.array_split(points, n_views)):
        pose = _pose(k)
        camera = (part - pose[:3, 3]) @ pose[:3, :3]  # global to camera: R^T (p - t)
        rows = [record.format(*point).encode() for point in camera.tolist()]
        if kind == "bad record" and k == n_views - 1:
            rows[-3] = BAD_RECORD.encode()
        if kind == "bad utf-8" and k == n_views - 1:
            rows[2], rows[-3] = BAD_RECORD.encode(), BAD_UTF8
        if kind == "shortening":
            rows[LONG_RECORDS:] = [SHORT_RECORD] * (len(rows) - LONG_RECORDS)
        with open(folder / f"view_{k}.xyz", "wb") as fh:
            fh.write(header.format(k=k, views=n_views, seed=seed, n=len(rows)).encode())
            fh.writelines(rows)
        views.append({"cloud": f"view_{k}.xyz", "transform": pose.ravel().tolist()})
    manifest = folder / "manifest.json"
    manifest.write_text(json.dumps({"views": views}), encoding="utf-8")
    return manifest


def run_estimate(launcher: Launcher, tree: Path, manifest: Path, out: Path,
                 rc: int) -> tuple[float, float, bytes]:
    """Wall seconds, peak RSS (MB) and output of one fresh estimate process
    that must exit ``rc``: the mode bits of ``out`` (or "none") and its
    estimate.json and run_manifest.json on 0, else its stderr; ``out`` is
    removed again."""
    argv = [sys.executable, "-c", CLI_CODE, str(tree / "src"), "estimate", "--manifest",
            str(manifest), "--roi=" + ",".join(map(repr, ROI)), "--out", str(out)]
    stderr = out.with_suffix(".stderr")
    reply = launcher.run(argv, manifest.parent, stderr)
    if reply["rc"] != rc:
        raise SystemExit(f"{tree}: estimate exited {reply['rc']}, not {rc}, on {manifest}: "
                         f"{stderr.read_text()[-300:]}")
    staged = sorted(path.name for path in out.parent.glob(f".{out.name}.*"))
    if staged:
        raise SystemExit(f"{tree}: estimate left {staged} beside {out}")
    mode = b"%o" % (out.stat().st_mode & 0o7777) if out.exists() else b"none"
    files = [out / "estimate.json", out / "run_manifest.json"] if rc == 0 else [stderr]
    output = b"\0".join([mode, *(path.read_bytes() for path in files)])
    shutil.rmtree(out, ignore_errors=True)
    return reply["wall"], reply["maxrss_kb"] / 1024, output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="parent revision (default HEAD), or a checkout's directory")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=4242)
    args = parser.parse_args(argv)

    rows = []
    with Launcher() as launcher, tempfile.TemporaryDirectory(prefix="ingest_scale_") as tmp, \
            worktree(args.base, WORKTREE.with_name("ingest_base")) as base:
        cases = [(n, v, "") for n in SIZES for v in VIEWS]
        cases += [(n, 1, kind) for kind in list(RECORDS)[1:] for n in SIZES]
        for i, (n_points, n_views, kind) in enumerate(cases):
            case = f"{n_points // 1000}k x {n_views}{', ' * bool(kind)}{kind}"
            manifest = write_scene(Path(tmp) / f"case_{i}", n_points, n_views, args.seed, kind)
            runs = {"base": [], "change": []}
            for i in range(args.repeats):
                order = [("base", base), ("change", ROOT)]
                for name, tree in order if i % 2 == 0 else order[::-1]:
                    runs[name].append(run_estimate(launcher, tree, manifest,
                                                   Path(tmp) / name,
                                                   2 if kind in FAILING else 0))
            same = len({output for side in runs.values() for *_, output in side}) == 1
            rows.append((case, runs, same))
            print(f"{case}: done", file=sys.stderr)

    same = print_medians(rows, args.base, "points x views",
                         "estimate.json, run_manifest.json or stderr")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
