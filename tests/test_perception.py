import hashlib
import io
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from softgrip import (
    Box,
    ConfigError,
    EmptyCloudError,
    FrameMismatchError,
    InvalidPoseError,
    ObjectEstimate,
    ParseError,
    PointCloud,
    ScenePose,
    aperture_window,
    crop_cloud,
    decide_approach,
    estimate_object,
    make_cylinder,
    merge_clouds,
    parse_cloud,
    transform_cloud,
    uniform_box_noise,
    write_cloud_xyz,
)
import softgrip
from softgrip import perception
from softgrip.inputs import HashingReader
from softgrip.perception import GLOBAL_FRAME


def random_rigid_pose(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    mat = np.eye(4)
    mat[:3, :3] = q
    mat[:3, 3] = rng.uniform(-1, 1, 3)
    return ScenePose(mat)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_plain_xyz():
    cloud = parse_cloud("0 0 0\n1 2 3\n")
    assert len(cloud) == 2
    assert cloud.points[1].tolist() == [1.0, 2.0, 3.0]


def test_parse_skips_comments_and_blank_lines():
    cloud = parse_cloud("# header\n\n0.5 0.5 0.5\n# trailing\n")
    assert len(cloud) == 1


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_cloud("0 0 0\n1 oops 3\n")
    assert err.value.line == 2
    assert err.value.column == 2

    with pytest.raises(ParseError) as err:
        parse_cloud("0 0\n")
    assert err.value.line == 1


def test_parse_rejects_non_finite():
    with pytest.raises(ParseError):
        parse_cloud("0 0 nan\n")


def test_parse_pcd_subset():
    text = (
        "# .PCD v0.7 - Point Cloud Data file format\n"
        "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
        "WIDTH 2\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\nDATA ascii\n"
        "0.1 0.2 0.3\n1.0 1.0 1.0\n"
    )
    cloud = parse_cloud(text)
    assert len(cloud) == 2
    assert cloud.points[0].tolist() == [0.1, 0.2, 0.3]


def test_parse_pcd_rejects_extra_fields():
    text = (
        "VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\nTYPE F F F F\n"
        "COUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\nPOINTS 1\nDATA ascii\n0 0 0 0\n"
    )
    with pytest.raises(ParseError, match="unsupported fields"):
        parse_cloud(text)


def test_parse_pcd_rejects_binary_mode():
    text = (
        "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
        "WIDTH 1\nHEIGHT 1\nPOINTS 1\nDATA binary\n"
    )
    with pytest.raises(ParseError, match="unsupported PCD mode"):
        parse_cloud(text)


def test_parse_pcd_point_count_mismatch():
    text = (
        "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
        "WIDTH 3\nHEIGHT 1\nPOINTS 3\nDATA ascii\n0 0 0\n"
    )
    with pytest.raises(ParseError, match="POINTS declares"):
        parse_cloud(text)


def test_generated_cylinder_roundtrips_bit_identically():
    cloud = make_cylinder(n_points=5000, seed=42)
    buf = io.StringIO()
    write_cloud_xyz(cloud, buf)
    text = buf.getvalue()
    assert len(text.splitlines()) == 5000
    reparsed = parse_cloud(text)
    assert np.array_equal(reparsed.points, cloud.points)


# ---------------------------------------------------------------------------
# streamed parsing: every view's lines come from its bytes, and records go to orjson
# ---------------------------------------------------------------------------

CLEAN_POINTS = [[0.1, 0.2, 0.3], [-1.0, 0.002, 4.0]]
CLEAN_PCD = b"VERSION .7\nFIELDS x y z\nPOINTS 2\nDATA ascii\n0.1 0.2 0.3\n-1 2e-3 4\n"


def _fail(*args):
    raise AssertionError("per-line parser reached")


def _count_calls(monkeypatch, name):
    """Wrap perception.<name> so that each call is appended to the returned list."""
    calls, original = [], getattr(perception, name)
    monkeypatch.setattr(perception, name, lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize("data", [
    b"# view\n0.1 0.2 0.3\n\n-1 2e-3 4\n",
    b"# view\r\n0.1 0.2 0.3\r\n\r\n-1 2e-3 4\r\n",
    b"\t\n  # view\n  0.1\t0.2 0.3  \n-1 2e-3 4",
    b"# view\n0.1\t0.2\t0.3\n-1\t2e-3\t4\n",
    b"# view\n0.1  0.2  0.3\n-1  2e-3  4\n",
    b"# view\r\n0.1 0.2 0.3 \r\n-1 2e-3 4\t\r\n",
    "# caf\u00e9\n0.1 0.2 0.3\n-1 2e-3 4\n".encode("utf-8"),
    CLEAN_PCD,
    CLEAN_PCD.replace(b"\n", b"\r\n"),
    b"# .PCD v0.7\n\nVERSION .7\n# fields\nFIELDS x y z\nPOINTS 2\nDATA ascii\n\n0.1 0.2 0.3\n-1 2e-3 4\n",
    "# view\r\n0.1 0.2 0.3\r\n-1 2e-3 4\r\n",
    b"# view\n+0.1 +0.2 +0.3\n-1 +2e-3 +4\n",
    b"# view\n+0.100000 +0.200000 +0.300000\n-1.000000 +0.002000 +4.000000\n",
])
def test_clean_views_never_reach_the_per_line_parser(monkeypatch, data):
    monkeypatch.setattr(perception, "_parse_xyz_record", _fail)
    assert parse_cloud(data).points.tolist() == CLEAN_POINTS


@pytest.mark.parametrize("data", [
    b"0.1 0.2 0.3\n# between records\n-1 2e-3 4\n",
    b"# view\r0.1 0.2 0.3\r-1 2e-3 4\r",
    CLEAN_PCD + b"# trailing\n",
])
def test_other_views_go_to_the_per_line_parser_and_give_the_same_points(monkeypatch, data):
    calls = _count_calls(monkeypatch, "_parse_xyz_record")
    assert parse_cloud(data).points.tolist() == CLEAN_POINTS
    assert len(calls) == len(CLEAN_POINTS)


@pytest.mark.parametrize("data, points", [
    (CLEAN_PCD.replace(b"\n-1", b"\n# between records\n-1"), CLEAN_POINTS),
    (CLEAN_PCD.replace(b"x y z", b"x y"), None),
])
def test_the_pcd_header_is_read_once(monkeypatch, data, points):
    # A view that orjson refuses, and one whose header is malformed.
    calls = _count_calls(monkeypatch, "_pcd_header")
    if points is None:
        with pytest.raises(ParseError, match="unsupported fields") as err:
            parse_cloud(data)
        assert err.value.line == 2
    else:
        assert parse_cloud(data).points.tolist() == points
    assert len(calls) == 1


def test_load_cloud_refuses_what_is_not_a_regular_file():
    with pytest.raises(ConfigError, match="not a regular file"):
        perception.load_cloud("/dev/null")


@pytest.fixture(scope="module")
def large_views():
    """A seeded 200k-point XYZ view, its \\r\\n twin and a PCD twin, as bytes."""
    points = np.random.default_rng(10).normal(size=(200_000, 3))
    body = "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist()).encode()
    xyz = b"# seeded view\n" + body
    pcd = b"VERSION .7\nFIELDS x y z\nPOINTS %d\nDATA ascii\n" % len(points) + body
    return points, {"xyz": xyz, "crlf": xyz.replace(b"\n", b"\r\n"), "pcd": pcd}


@pytest.mark.parametrize("kind", ["xyz", "crlf", "pcd"])
def test_parsing_a_large_view_allocates_at_most_half_again_its_size(large_views, kind):
    points, views = large_views
    data = views[kind]
    tracemalloc.start()
    try:
        cloud = parse_cloud(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cloud.points.tobytes() == points.tobytes()
    assert peak <= 1.5 * len(data)


@pytest.fixture(scope="module")
def bad_view():
    """A seeded 50k-point XYZ view, as bytes, whose last-but-two record is malformed."""
    lines = [f"{x!r} {y!r} {z!r}\n"
             for x, y, z in np.random.default_rng(11).normal(size=(50_000, 3)).tolist()]
    lines[-3] = "0.5 oops 0.5\n"
    return ("# seeded view\n" + "".join(lines)).encode()


def test_a_plain_view_that_falls_back_reads_its_bytes_without_a_decoded_copy(bad_view):
    # The per-line records (~2.5 times the text when every record went
    # through them) are the peak, not a str of the view and one string per
    # line besides (~5.4 times).
    data = bad_view
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="malformed number 'oops'") as err:
            parse_cloud(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (err.value.line, err.value.column) == (49_999, 2)
    assert peak <= 3.5 * len(data)


def test_a_refused_view_is_not_converted_twice(monkeypatch, bad_view):
    # The chunks before the bad record's are kept from the orjson tier; only
    # the rest goes to the per-line parser.
    calls = _count_calls(monkeypatch, "_parse_xyz_record")
    with pytest.raises(ParseError, match="malformed number 'oops'") as err:
        parse_cloud(bad_view)
    assert (err.value.line, err.value.column) == (49_999, 2)
    assert len(calls) < 49_998 // 2


def test_a_view_file_is_parsed_and_hashed_in_one_read(tmp_path, large_views):
    points, views = large_views
    path = tmp_path / "view.xyz"
    path.write_bytes(views["crlf"])
    with HashingReader(path) as stream:
        cloud = parse_cloud(stream)
        assert stream.sha256.hexdigest() == hashlib.sha256(views["crlf"]).hexdigest()
    assert cloud.points.tobytes() == points.tobytes()
    assert perception.load_cloud(path).points.tobytes() == points.tobytes()


def test_a_file_with_more_rows_than_its_bound_is_still_read_whole(tmp_path, monkeypatch,
                                                                  large_views):
    # As if the file grew after its size was taken: the orjson tier stops at
    # the bound, and the per-line parser reads the rest.
    points, views = large_views
    path = tmp_path / "view.xyz"
    path.write_bytes(views["xyz"])
    monkeypatch.setattr(perception, "max_records", lambda nbytes: 10_000)
    calls = _count_calls(monkeypatch, "_parse_xyz_record")
    assert perception.load_cloud(path).points.tobytes() == points.tobytes()
    assert len(points) - 10_000 <= len(calls) < len(points)


def test_a_file_whose_records_shorten_is_mapped_again_and_read_by_orjson(tmp_path, monkeypatch):
    # The first chunk's 60-byte records set the array to a tenth of the rows
    # that follow; it is mapped again, larger, each time it fills.
    long = np.random.default_rng(12).normal(size=(3_000, 3))
    data = "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in long.tolist()).encode() \
        + b"1 2 3\n" * 100_000
    path = tmp_path / "view.xyz"
    path.write_bytes(data)
    want = np.vstack([long, np.tile([1.0, 2.0, 3.0], (100_000, 1))])
    records = _count_calls(monkeypatch, "_parse_xyz_record")
    mapped = _count_calls(monkeypatch, "_unwritten")
    assert perception.load_cloud(path).points.tobytes() == want.tobytes()
    assert not records
    rows = [args[0] for args in mapped]
    assert len(rows) > 2 and rows == sorted(rows) and rows[-1] <= perception.max_records(len(data))
    assert parse_cloud(data).points.tobytes() == want.tobytes()


def test_a_mapping_the_system_refuses_is_a_memory_error(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    path = tmp_path / "view.xyz"
    path.write_bytes(b"1 2 3\n" * 10)
    monkeypatch.setattr(perception.mmap, "mmap", refuse)
    with pytest.raises(MemoryError, match="cannot map 10 points: Cannot allocate memory"):
        perception.load_cloud(path)


@pytest.mark.parametrize("data", [
    b"1 2 3\n4 oops 6\n" + b"7 8 9\n" * 30_000 + b"\xff\n",  # after a malformed record
    b"1 2 3\n" * 30_000 + b"# caf\xc3",  # a character cut by the end of the file
    b"# caf\xc3\xa9\n" + b"1 2 3\n" * 30_000 + b"\xed\xa0\x80\n",  # an encoded surrogate
])
def test_the_utf8_error_of_a_file_names_its_position_in_the_file(tmp_path, data):
    path = tmp_path / "view.xyz"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    for parse in (lambda: parse_cloud(data), lambda: perception.load_cloud(path)):
        with pytest.raises(ParseError) as err:
            parse()
        assert str(err.value) == f"input is not UTF-8 text: {whole.value}"


# A fresh interpreter forks the measured child, so that the child's ru_maxrss
# is its own: Linux carries the forking process's peak into it at exec.
PEAK_RSS = """
import os, sys
def peak_kib(code):
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(sys.executable, [sys.executable, "-c", code, *sys.argv[1:]])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    assert status == 0, status
    return usage.ru_maxrss
read = "import sys; sys.path.insert(0, sys.argv[1]); from softgrip import perception; "
base = peak_kib(read + "perception.parse_cloud(b'1 2 3')")
print(peak_kib(read + "perception.load_cloud(sys.argv[2])") - base)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, from the child's own exec")
def test_reading_a_view_from_its_file_never_holds_the_file(tmp_path, large_views):
    # The points (24 bytes each, 0.41 times this file) and a few blocks are
    # all a parse of the file should add to the interpreter's peak; holding
    # the file's bytes as well takes at least 1.41 times its size.
    _, views = large_views
    path = tmp_path / "view.xyz"
    path.write_bytes(views["xyz"])
    src = str(Path(softgrip.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, src, str(path)],
                          capture_output=True, text=True, check=True)
    assert 1024 * int(proc.stdout) < len(views["xyz"])


# ---------------------------------------------------------------------------
# transform / merge / crop
# ---------------------------------------------------------------------------

def test_transform_identity_keeps_points():
    cloud = parse_cloud("1 2 3\n4 5 6\n")
    out = transform_cloud(cloud, ScenePose.identity())
    assert np.array_equal(out.points, cloud.points)
    assert out.frame_id == GLOBAL_FRAME


def test_transform_pure_translation():
    cloud = parse_cloud("0 0 0\n")
    mat = np.eye(4)
    mat[:3, 3] = (1.0, 0.0, 0.0)
    out = transform_cloud(cloud, ScenePose(mat))
    assert out.points[0].tolist() == [1.0, 0.0, 0.0]


def test_transform_preserves_pairwise_distances():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(-1, 1, size=(60, 3)))
    out = transform_cloud(cloud, random_rigid_pose(17))
    d_in = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=-1)
    d_out = np.linalg.norm(out.points[:, None] - out.points[None, :], axis=-1)
    scale = np.maximum(d_in, 1e-12)
    assert np.max(np.abs(d_in - d_out) / scale) <= 1e-9


def test_pose_validation():
    bad = np.eye(4)
    bad[3, 3] = 2.0
    with pytest.raises(InvalidPoseError):
        ScenePose(bad)
    skewed = np.eye(4)
    skewed[0, 1] = 0.01
    with pytest.raises(InvalidPoseError):
        ScenePose(skewed)
    with pytest.raises(InvalidPoseError):
        ScenePose.from_flat([1.0] * 12)


def test_merge_single_cloud_is_identity():
    cloud = make_cylinder(n_points=100, seed=1)
    merged = merge_clouds([cloud])
    assert np.array_equal(merged.points, cloud.points)


def test_merge_is_order_free_for_extents():
    a = make_cylinder(n_points=300, seed=2)
    b = uniform_box_noise(50, side_m=0.2, seed=3)
    ab = estimate_object(merge_clouds([a, b]), trim_fraction=0.0)
    ba = estimate_object(merge_clouds([b, a]), trim_fraction=0.0)
    assert ab.extents == ba.extents


def test_merge_takes_an_iterator_of_clouds_into_an_array_of_the_given_size():
    a, b = make_cylinder(n_points=30, seed=1), make_cylinder(n_points=20, seed=2)
    want = np.vstack([a.points, b.points])
    for size in (0, 10, 30, 50, 1000):  # the array grows when the clouds hold more
        merged = merge_clouds(iter([a, b]), size)
        assert merged.points.tobytes() == want.tobytes()
        assert merged.frame_id == a.frame_id
    assert merge_clouds(iter([a, PointCloud(np.empty((0, 3)), a.frame_id)]), 30).points.tobytes() \
        == a.points.tobytes()
    with pytest.raises(EmptyCloudError):
        merge_clouds(iter([]), 10)
    with pytest.raises(FrameMismatchError):
        merge_clouds(iter([a, PointCloud(b.points, "camera")]), 50)


def test_merge_sizes_its_array_from_the_first_two_clouds_and_doubles_it():
    clouds = [make_cylinder(n_points=n, seed=n) for n in (30, 20, 40, 100)]
    seen, mapped = [], []
    unwritten = perception._unwritten

    def mapping(rows, head=None):
        mapped.append(rows)
        return unwritten(rows, head)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perception, "_unwritten", mapping)
        out = merge_clouds(iter(clouds), lambda n: seen.append(n) or n + 10)
    assert out.points.tobytes() == np.vstack([c.points for c in clouds]).tobytes()
    assert seen == [50] and mapped == [60, 120, 240]


def test_merge_rejects_frame_mix():
    a = make_cylinder(n_points=10, seed=1)
    b = PointCloud(a.points, "camera")
    with pytest.raises(FrameMismatchError):
        merge_clouds([a, b])


def test_crop_inclusive_and_idempotent():
    cloud = parse_cloud("0 0 0\n0.5 0.5 0.5\n2 2 2\n")
    roi = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    once = crop_cloud(cloud, roi)
    assert len(once) == 2  # the corner point is retained
    twice = crop_cloud(once, roi)
    assert np.array_equal(once.points, twice.points)


def test_crop_monotone_in_roi():
    cloud = uniform_box_noise(500, side_m=1.0, seed=9)
    large = crop_cloud(cloud, Box((-0.4,) * 3, (0.4,) * 3))
    small = crop_cloud(cloud, Box((-0.2,) * 3, (0.2,) * 3))
    large_set = {tuple(p) for p in large.points}
    assert all(tuple(p) in large_set for p in small.points)


def test_crop_isolates_labeled_object():
    cylinder = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=1500, seed=4,
                             center=(0.0, 0.0, 0.06))
    clutter = uniform_box_noise(400, side_m=1.0, seed=5, center=(0.6, 0.0, 0.2))
    scene = merge_clouds([cylinder, clutter])
    roi = Box((-0.06, -0.06, -0.01), (0.06, 0.06, 0.13))
    inside = crop_cloud(scene, roi)
    cylinder_set = {tuple(p) for p in cylinder.points}
    assert len(inside) >= 1500 * 0.99
    # nothing from the clutter block survives
    assert all(tuple(p) in cylinder_set for p in inside.points)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def test_estimate_single_point_zero_extents():
    est = estimate_object(parse_cloud("0.1 0.2 0.3\n"), trim_fraction=0.0)
    assert est.extents == (0.0, 0.0, 0.0)
    assert est.centroid == (0.1, 0.2, 0.3)
    assert est.dominant_axis == "X"  # deterministic tie-break


def test_estimate_empty_cloud_raises():
    with pytest.raises(EmptyCloudError):
        estimate_object(PointCloud(np.empty((0, 3))), trim_fraction=0.0)


def test_estimate_cylinder_extents_within_2_percent():
    cloud = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=5000, seed=0)
    est = estimate_object(cloud, trim_fraction=0.0)
    assert est.extents[0] == pytest.approx(0.08, rel=0.02)
    assert est.extents[1] == pytest.approx(0.08, rel=0.02)
    assert est.extents[2] == pytest.approx(0.12, rel=0.02)
    assert est.dominant_axis == "Z"
    assert abs(est.centroid[2]) < 0.005


def test_estimate_with_outliers_and_trim_within_5_percent():
    cylinder = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=5000, seed=0)
    outliers = uniform_box_noise(50, side_m=1.0, seed=8)
    noisy = merge_clouds([cylinder, outliers])
    est = estimate_object(noisy, trim_fraction=0.01)
    assert est.extents[0] == pytest.approx(0.08, rel=0.05)
    assert est.extents[1] == pytest.approx(0.08, rel=0.05)
    assert est.extents[2] == pytest.approx(0.12, rel=0.05)


def test_estimate_invariant_under_permutation():
    cloud = make_cylinder(n_points=800, seed=12)
    rng = np.random.default_rng(13)
    shuffled = PointCloud(rng.permutation(cloud.points), cloud.frame_id)
    a = estimate_object(cloud, trim_fraction=0.01)
    b = estimate_object(shuffled, trim_fraction=0.01)
    assert a.extents == b.extents
    assert a.centroid == pytest.approx(b.centroid, abs=1e-12)


def test_two_half_views_match_full_cloud_within_1_percent():
    full = make_cylinder(diameter_m=0.08, height_m=0.12, n_points=5000, seed=0)
    left = PointCloud(full.points[full.points[:, 0] <= 0.005], GLOBAL_FRAME)
    right = PointCloud(full.points[full.points[:, 0] >= -0.005], GLOBAL_FRAME)

    # Ship each half through a rigid camera pose and back.
    restored = []
    for half, seed in ((left, 21), (right, 22)):
        pose = random_rigid_pose(seed)
        inv = np.eye(4)
        inv[:3, :3] = pose.rotation.T
        inv[:3, 3] = -pose.rotation.T @ pose.translation
        camera_view = transform_cloud(half, ScenePose(inv))
        restored.append(transform_cloud(PointCloud(camera_view.points), pose))

    merged = merge_clouds(restored)
    est_full = estimate_object(full, trim_fraction=0.0)
    est_merged = estimate_object(merged, trim_fraction=0.0)
    for a, b in zip(est_merged.extents, est_full.extents):
        assert a == pytest.approx(b, rel=0.01)


# ---------------------------------------------------------------------------
# approach decision
# ---------------------------------------------------------------------------

def make_estimate(extents, centroid=(0.0, 0.0, 0.1)):
    axis = "XYZ"[int(np.argmax(extents))]
    return ObjectEstimate(centroid=centroid, extents=extents,
                          point_count=1000, dominant_axis=axis)


def test_small_height_goes_vertical(geom):
    decision = decide_approach(make_estimate((0.03, 0.03, 0.008)), geom)
    assert decision.approach == "vertical"
    assert decision.reason == "small_height"


def test_tall_object_goes_horizontal(geom):
    decision = decide_approach(make_estimate((0.06, 0.06, 0.20)), geom)
    assert decision.approach == "horizontal"
    assert decision.reason == "dominant_vertical_extent"
    assert aperture_window(geom)[1] > 60.0


def test_oversized_object_ungraspable(geom):
    decision = decide_approach(make_estimate((0.3, 0.3, 0.3)), geom)
    assert decision.approach == "ungraspable"
    assert decision.reason == "exceeds_aperture"


def test_out_of_workspace_falls_back_vertical(geom):
    limits = Box((-0.5, -0.5, 0.0), (0.5, 0.5, 0.5))
    decision = decide_approach(
        make_estimate((0.06, 0.06, 0.20), centroid=(2.0, 0.0, 0.1)), geom, limits
    )
    assert decision.approach == "vertical"
    assert decision.reason == "workspace_limited"


def test_medium_flat_object_goes_horizontal(geom):
    decision = decide_approach(make_estimate((0.06, 0.05, 0.04)), geom)
    assert decision.approach == "horizontal"
    assert decision.reason == "fits_aperture"


def test_decision_is_deterministic(geom):
    est = make_estimate((0.06, 0.06, 0.20))
    assert decide_approach(est, geom) == decide_approach(est, geom)


def test_wide_but_flat_object_ungraspable(geom):
    decision = decide_approach(make_estimate((0.4, 0.4, 0.005)), geom)
    assert decision.approach == "ungraspable"
