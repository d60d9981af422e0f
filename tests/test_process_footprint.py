"""What a fresh command-line process loads, holds and maps.

Each test runs softgrip.cli.main in a child interpreter, with the package's
source first on its path, and reads what only the child's own state shows:
the modules it loaded, its peak RSS (ru_maxrss), or how it ends under an
address-space limit.
"""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import softgrip
from softgrip import make_cylinder, uniform_box_noise

SRC = str(Path(softgrip.__file__).resolve().parents[1])

# Runs main on the arguments and prints the names of the modules loaded by then.
MODULES_AFTER_MAIN = (
    "import json, sys; sys.path.insert(0, sys.argv.pop(1)); from softgrip.cli import main; "
    "code = main(sys.argv[1:]); print(json.dumps(sorted(sys.modules))); sys.exit(code)")

KINEMATICS = [["fk", "--from", "-0.8", "--to", "-1.4", "--step", "1e-3"],
              ["simulate-slide", "--step", "1e-3"]]


def modules_after(*args) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", MODULES_AFTER_MAIN, SRC, *map(str, args)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def write_view(path: Path, points: np.ndarray) -> None:
    path.write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist()))


@pytest.mark.parametrize("args", KINEMATICS, ids=lambda args: args[0])
def test_a_run_that_reads_no_input_never_loads_openssl(tmp_path, args):
    # hashlib loads OpenSSL's _hashlib (~3.5 MB); only a read input is hashed.
    assert "_hashlib" not in modules_after(*args, "--out", tmp_path / "run")


@pytest.mark.parametrize("args", KINEMATICS, ids=lambda args: args[0])
def test_a_geometry_file_is_still_hashed_into_the_run_manifest(tmp_path, args):
    geometry = tmp_path / "geometry.json"
    geometry.write_bytes(resources.files("softgrip.data").joinpath("geometry_default.json")
                         .read_bytes())
    assert "_hashlib" in modules_after(*args, "--geometry", geometry, "--out", tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert manifest["inputs"] == {str(geometry): hashlib.sha256(geometry.read_bytes()).hexdigest()}


def test_estimate_never_imports_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma (~13 ms, 1.3 MB) through np.unique;
    # estimate_object's percentiles take the same bits without it.
    write_view(tmp_path / "view.xyz", make_cylinder(0.05, 0.1, 2_000, seed=1).points)
    identity = np.eye(4).ravel().tolist()
    (tmp_path / "scene.json").write_text(
        json.dumps({"views": [{"cloud": "view.xyz", "transform": identity}]}))
    loaded = modules_after("estimate", "--manifest", tmp_path / "scene.json", "--trim", "0.05",
                           "--out", tmp_path / "run")
    assert "numpy.ma" not in loaded
    assert json.loads((tmp_path / "run" / "estimate.json").read_text())["stage_counts"] \
        == {"view_0_parsed": 2_000, "merged": 2_000, "retained": 1_600}


# Forks a child per code string from a fresh interpreter, so that each
# child's ru_maxrss is its own (Linux carries the forking process's peak into
# it at exec), and prints how many KiB the second adds to the first.
PEAK_RSS = """
import os, sys
def peak_kib(code, *args):
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(sys.executable, [sys.executable, "-c", code, *args])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    assert status == 0, status
    return usage.ru_maxrss
cli = "import sys; sys.path.insert(0, sys.argv[1]); import softgrip.cli; "
base = peak_kib(cli, sys.argv[1])
run = peak_kib(cli + "sys.exit(softgrip.cli.main(sys.argv[2:]))", *sys.argv[1:])
print(run - base)
"""


def added_peak_kib(tmp_path, *args) -> int:
    """KiB that running main on args adds to the peak RSS of importing softgrip.cli."""
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, SRC, *args,
                           "--out", str(tmp_path / "run")],
                          capture_output=True, text=True, check=True)
    return int(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, from the child's own exec")
def test_a_fine_slide_holds_little_more_than_its_columns(tmp_path):
    # 110,001 samples, made and written 1,024 rows at a time: one chunk of
    # the six columns and its text, the orjson import and what any small run
    # adds to the interpreter, ~1.9 MiB.  Holding the six columns for the
    # whole sweep (0.88 MB each) read ~7.3 MiB.
    assert added_peak_kib(tmp_path, "simulate-slide", "--step", "1e-5") < 3 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, from the child's own exec")
@pytest.mark.parametrize("args", [["fk", "--from", "-0.8", "--to", "-1.4"], ["simulate-slide"]],
                         ids=lambda args: args[0])
def test_a_trace_at_a_millionth_of_a_radian_holds_one_chunk(tmp_path, args):
    # 600,001 fk rows or 1,100,001 slide rows: the peak does not grow with
    # the step, ~1.7-1.9 MiB as at 1e-5 rad, where holding every column read
    # 43 MiB (fk) and 56 MiB (slide).
    assert added_peak_kib(tmp_path, *args, "--step", "1e-6") < 3 * 1024


# Runs main on the arguments in a child whose address space is capped at its
# size after importing softgrip.cli plus argv[2] MiB.
ADDRESS_SPACE_CAPPED = """
import resource, sys
sys.path.insert(0, sys.argv.pop(1))
import softgrip.cli
extra = int(sys.argv.pop(1)) * 2**20
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + extra, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(softgrip.cli.main(sys.argv[1:]))
"""


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A manifest of three 100k-point views (about 18 MB of text), a tenth of
    each view outliers outside the crop box, as the bench's scene."""
    work = tmp_path_factory.mktemp("scene")
    views = []
    for k in range(3):
        body = make_cylinder(0.08, 0.12, 90_000, seed=k).points
        noise = uniform_box_noise(10_000, side_m=0.2, seed=10 + k, center=(0.0, 0.4, 0.0)).points
        write_view(work / f"view_{k}.xyz", np.vstack([body, noise]))
        views.append({"cloud": f"view_{k}.xyz", "transform": np.eye(4).ravel().tolist()})
    (work / "manifest.json").write_text(json.dumps({"views": views}))
    return work / "manifest.json"


ROI = "--roi=-0.06,-0.06,-0.07,0.06,0.06,0.07"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, from the child's own exec")
def test_estimate_holds_each_view_only_as_its_kept_points(tmp_path, scene):
    # Each block is transformed and cropped as it is parsed, so a view is held
    # only as its 90k kept points (2.1 MB), ~14.6-14.7 MiB above the import
    # with the OpenBLAS buffers.  Transforming and cropping each whole view
    # read ~17.3 MiB, and a reference cycle that kept each view's array until
    # the garbage collector ran ~21 MiB.
    assert added_peak_kib(tmp_path, "estimate", "--manifest", str(scene), ROI) < 16 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmSize from /proc/self/status")
@pytest.mark.parametrize("extra_mib", [80, 120])
def test_estimate_of_three_large_views_fits_a_capped_address_space(tmp_path, scene, extra_mib):
    # Each view's kept points and the merged array double in place as they
    # fill and are trimmed to their points: about 56 MiB above the import here
    # (58 MiB when each view was transformed and cropped whole), where
    # mapping a record per 6 bytes of each file (four times the file) took
    # 135 MiB and ended in an OSError.  One OpenBLAS thread, so that the cap
    # does not depend on the host's CPUs.
    proc = subprocess.run(
        [sys.executable, "-c", ADDRESS_SPACE_CAPPED, SRC, str(extra_mib), "estimate",
         "--manifest", str(scene), ROI, "--out", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    counts = json.loads((tmp_path / "run" / "estimate.json").read_text())["stage_counts"]
    assert counts["merged"] == 300_000 and counts["cropped"] == 270_000
