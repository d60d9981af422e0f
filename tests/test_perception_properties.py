"""Property-based checks of the fast point-cloud ingest.

parse_cloud reads every view's lines from its bytes, converts its records
with orjson a chunk at a time, and from the first chunk orjson refuses
reads the rest with the per-line parser.  Two references: that per-line
parser alone, reached by making the orjson tier refuse; and a parse of the
decoded text (str.splitlines) line by line, kept here as the reference for
the line source and for the UTF-8 error.  On every drawn file, at any chunk
size, and read from bytes or from a file a block at a time, parse_cloud
must return the same array bit for bit as both, or raise the same
ParseError at the same line and column.  estimate_object is checked bit for
bit against the formulas it replaced.
"""

import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softgrip import (EmptyCloudError, ParseError, PointCloud, ScenePose, estimate_object,
                      parse_cloud, transform_cloud)
from softgrip import perception
from softgrip.inputs import HashingReader

# Decimal strings whose correct rounding is easy to get wrong.
HARD_DECIMALS = [
    "2.2250738585072011e-308", "2.2250738585072012e-308", "4.9406564584124654e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623157e308",
    "9007199254740993", "0.1000000000000000055511151231257827021181583404541015625",
    "123456789012345678901234567890e-20", "1e-400", "-1e-400", "-0", "0e0",
    "0." + "3" * 400, "1" * 300, "-0.0", "0", str(-(2**53 + 1)), str(2**63),
    str(2**64), str(-(2**63) - 1), str(10**20), "9" * 400,
    # Signed tokens: JSON refuses "+1", so the tier deletes a "+" that starts
    # a token before a digit; "1e+5" keeps its own.
    "+1.5", "+0", "+0.000000", "1e+5", "+1e+5", "+.5",
]

# Tokens the per-line parser rejects, or that numpy might read differently.
ODD_TOKENS = [
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1_0", "1__0",
    "0x10", "0x1p3", "+.5", "-.5e-3", "1.e3", "1d3", "1,5", "#", "#1", "1#", "١",
    "１", "1\x002", "'1'", '"1"', "3j", "1e", "e1", ".", "+", "--1", "0b1",
]

SEPARATORS = [" ", "  ", "\t", " \t ", "\xa0", " ", "\x1f", "\r"]
NEWLINES = ["\n", "\r\n", "\r", "\x0b", "\x85", " "]

finite_repr = st.floats(allow_nan=False, allow_infinity=False).map(repr)
token = st.one_of(
    finite_repr,
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(HARD_DECIMALS),
    st.sampled_from(ODD_TOKENS),
)


@st.composite
def record(draw, tokens=token):
    n = draw(st.sampled_from([3, 3, 3, 3, 2, 4, 1]))
    fields = draw(st.lists(tokens, min_size=n, max_size=n))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=n, max_size=n))
    text = "".join(f + s for f, s in zip(fields, seps)).rstrip(" ")
    if draw(st.integers(0, 9)) == 0:
        text += draw(st.sampled_from([" # note", "#", " #1"]))
    return draw(st.sampled_from(["", " ", "\t"])) + text


filler = st.sampled_from(["", "   ", "# comment", "  # indented comment", "#"])


@st.composite
def record_lines(draw):
    """Mostly clean rows, so the fast path is taken as well as left.

    The clean rows of one file share a width, which is 3 most of the time;
    a file may add odd rows: clean ones with an inline '#' or a non-finite
    last field, or rows of drawn tokens.
    """
    width = draw(st.sampled_from([3, 3, 3, 2, 4]))
    clean = st.lists(finite_repr, min_size=width, max_size=width).map(" ".join)
    commented = st.tuples(clean, st.sampled_from([" # note", " #", "\t#1"])).map("".join)
    non_finite = st.tuples(clean, st.sampled_from(["nan", "-inf", "Infinity", "1e400"])).map(
        lambda row_token: row_token[0].rsplit(" ", 1)[0] + " " + row_token[1])
    if draw(st.booleans()):
        rows = st.one_of(clean, filler)
    else:
        rows = st.one_of(clean, clean, clean, commented, non_finite, record(), filler)
    return draw(st.lists(rows, max_size=12))


@st.composite
def cloud_files(draw):
    lines = draw(record_lines())
    if draw(st.booleans()):
        n = sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))
        points = n + draw(st.sampled_from([0, 0, 0, 1, -1]))
        header = ["VERSION .7", "FIELDS x y z", "SIZE 8 8 8", "TYPE F F F", "COUNT 1 1 1",
                  f"WIDTH {n}", "HEIGHT 1", "VIEWPOINT 0 0 0 1 0 0 0", f"POINTS {points}",
                  "DATA ascii"]
        lines = draw(st.sampled_from([[], ["# .PCD v0.7"]])) + header + lines
    newline = draw(st.sampled_from(NEWLINES))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text.encode("utf-8") if draw(st.booleans()) else text


def _outcome(data):
    try:
        cloud = parse_cloud(data)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("cloud", cloud.points.shape, cloud.points.tobytes(), cloud.frame_id)


def per_line_outcome(data):
    """parse_cloud with the orjson tier refusing every chunk."""
    with mock.patch.object(perception, "_json_rows", lambda source, empty: (np.empty((0, 3)), 0)):
        return _outcome(data)


def decoded_text_outcome(data):
    """_outcome of a parse of data's decoded text, line by line: how parse_cloud
    read any view that was not plain ASCII before it read lines from bytes."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ("error", f"input is not UTF-8 text: {exc}", None, None)
    try:
        records = perception._meaningful_lines(data.splitlines())
        declared, first = perception._read_header(records)
        rows = [perception._parse_xyz_record(line.split(), n)
                for n, line in itertools.chain([first] if first else [], records)]
        if declared is not None and declared[0] != len(rows):
            raise ParseError(f"POINTS declares {declared[0]} records but data has {len(rows)}",
                             line=declared[1])
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    cloud = PointCloud(np.array(rows, dtype=np.float64).reshape(len(rows), 3))
    return ("cloud", cloud.points.shape, cloud.points.tobytes(), cloud.frame_id)


# The orjson tier's chunk size as shipped (None), or of tens of bytes, a line
# or two: then a file has chunk cuts, and chunks refused in its middle.
chunk_sizes = st.one_of(st.none(), st.integers(1, 80))


# "error": no tier may warn on any input, such as a blank chunk.
@pytest.mark.filterwarnings("error::UserWarning")
@settings(max_examples=300, deadline=None)
@given(cloud_files(), chunk_sizes)
@example(b"1 2\r3\n", None)
@example(b"1 2 3\n4 5\r6\n", 6)
@example(b"1 2 3\n4 5 6\n7 8 oops\n1 2 3\n", 6)
@example(b"1 2 3\n-0 0 1\n4 5 6\n", 6)
@example(b"1 2 3\n4 5 6\n\n", 6)
@example(b"# v\n1 2 3\n4 5 6\n 7 8 9\n1 2 3", 6)
@example(b"1 2 3\n\n4 5 6\n7 8 oops\n", 8)  # lines counted before the blank one is rewritten away
@example(b"+1 +-1 2\n", None)
@example(b"++1 2 3\n", None)
@example(b"+.5 1e+5 +0\n-0 +1 2\n", None)
@example(b"1 +2\t+3\r\n+4 5 6\n1 + 2\n", 6)
def test_fast_parse_matches_per_line_parser(data, chunk_bytes):
    with mock.patch.object(perception, "_JSON_CHUNK_BYTES",
                           chunk_bytes or perception._JSON_CHUNK_BYTES):
        assert _outcome(data) == per_line_outcome(data)


def with_non_ascii_comment(data):
    """data and a last line '# café', which makes the view UTF-8 but not ASCII."""
    line = "\n# caf\u00e9\n"
    return data + (line.encode("utf-8") if isinstance(data, bytes) else line)


@settings(max_examples=300, deadline=None)
@given(cloud_files(), chunk_sizes, st.booleans())
@example(b"1 2\r3\n", None, False)
@example(b"1 2 3\n4 5\x0c6\n", 6, True)
def test_reading_lines_from_bytes_matches_reading_the_decoded_text(data, chunk_bytes, comment):
    data = with_non_ascii_comment(data) if comment else data
    decoded = decoded_text_outcome(data)
    with mock.patch.object(perception, "_JSON_CHUNK_BYTES",
                           chunk_bytes or perception._JSON_CHUNK_BYTES):
        assert _outcome(data) == decoded
    assert per_line_outcome(data) == decoded


@pytest.fixture(scope="module")
def view_file(tmp_path_factory):
    """view_file(data): the path of a file that holds data."""
    path = tmp_path_factory.mktemp("views") / "view.xyz"

    def write(data):
        path.write_bytes(data)
        return path
    return write


# Bytes that are not UTF-8: a bad start byte, a cut or bad two- or three-byte
# character, an encoded surrogate and a code point beyond U+10FFFF.
NOT_UTF8 = [b"\xff", b"\xc3", b"\xc3(", b"\xe2\x82", b"\xe2\x82(", b"\xed\xa0\x80",
            b"\xf4\x90\x80\x80"]


@settings(max_examples=300, deadline=None)
@given(cloud_files(), st.one_of(st.integers(1, 80), st.integers(1, perception._JSON_CHUNK_BYTES)),
       st.one_of(st.none(), st.tuples(st.integers(0, 1000), st.sampled_from(NOT_UTF8))))
@example(b"1 2 3\n4 oops 6\n7 8 9\n", 1, (22, b"\xff"))  # after a malformed record
@example(b"1 2 3\n4 5 6\n", 7, (12, b"\xe2\x82"))  # cut by the end of the file
@example("# caf\u00e9\n1 2 3\n4 5 6\n", 6, None)  # a character cut by a block
def test_a_view_read_from_its_file_parses_as_its_bytes(view_file, data, block, bad):
    # The file is read in blocks of the drawn size; the reference is the
    # decoded text, parsed line by line.  Every byte is hashed, unless the
    # view is not UTF-8.
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    if bad is not None:
        at = bad[0] % (len(raw) + 1)
        raw = raw[:at] + bad[1] + raw[at:]
    want = decoded_text_outcome(raw)
    with mock.patch.object(perception, "_JSON_CHUNK_BYTES", block), \
            HashingReader(view_file(raw)) as stream:
        assert _outcome(stream) == want
        if not (want[0] == "error" and want[1].startswith("input is not UTF-8")):
            assert stream.sha256.hexdigest() == hashlib.sha256(raw).hexdigest()
    assert _outcome(raw) == want


def estimate_by_the_old_formulas(points, trim):
    """(centroid, extents, count) from np.percentile over the whole array and
    the mean of a boolean-indexed copy, or None if no point is retained."""
    if trim == 0.0:
        lo, hi = points.min(axis=0), points.max(axis=0)
    else:
        lo, hi = np.percentile(points, [100 * trim, 100 * (1 - trim)], axis=0)
    retained = points[np.all((points >= lo) & (points <= hi), axis=1)]
    if not len(retained):
        return None
    return retained.mean(axis=0).tobytes(), (hi - lo).tobytes(), len(retained)


def estimate_now(points, trim):
    try:
        est = estimate_object(PointCloud(points), trim)
    except EmptyCloudError:
        return None
    return (np.array(est.centroid).tobytes(), np.array(est.extents).tobytes(), est.point_count)


coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300]), st.floats(-1e6, 1e6))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 300), st.just(3)), elements=coordinates),
       st.one_of(st.just(0.0), st.sampled_from([0.002, 0.01, 0.25]), st.floats(0.0, 0.25)))
@example(np.full((4, 3), -0.0), 0.0)
@example(np.full((4, 3), -0.0), 0.01)
def test_estimate_gives_the_bits_of_the_old_formulas(points, trim):
    assert estimate_now(points, trim) == estimate_by_the_old_formulas(points, trim)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 400), elements=coordinates),
       st.one_of(st.sampled_from([0.0, 0.002, 0.01, 0.25, 0.5]), st.floats(0.0, 0.5)))
@example(np.array([0.0, -0.0, -0.0, 0.0, 0.0]), 0.25)
@example(np.array([-0.0]), 0.01)
def test_percentiles_give_the_bits_of_np_percentile(column, trim):
    q = [100 * trim, 100 * (1 - trim)]
    want = np.percentile(column.copy(), q, overwrite_input=True)
    assert perception.percentiles(column.copy(), q).tobytes() == want.tobytes()
    assert np.percentile(column, q).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 9, 1000, 270_000])
def test_estimate_gives_the_bits_of_the_old_formulas_on_large_clouds(n):
    rng = np.random.default_rng(n)
    points = rng.normal(size=(n, 3)) * [0.04, 0.04, 0.06] + [0.3, 0.0, 0.06]
    for trim in (0.0, 0.002, 0.01, 0.25, float(rng.uniform(0, 0.25))):
        assert estimate_now(points, trim) == estimate_by_the_old_formulas(points, trim)


@pytest.mark.parametrize("text", HARD_DECIMALS)
def test_fast_parse_rounds_like_float(text):
    if not math.isfinite(float(text)):
        with pytest.raises(ParseError, match="non-finite coordinate") as err:
            parse_cloud(f"{text} {text} 1\n")
        assert (err.value.line, err.value.column) == (1, 1)
        return
    points = parse_cloud(f"{text} {text} 1\n").points
    assert points.tobytes() == np.array([[float(text), float(text), 1.0]]).tobytes()


def _decimal_strings(rng, n):
    """n finite decimal strings in forms JSON reads: 1-40 digits, the first
    not 0 (or "0." before them), perhaps a point, an exponent -330..310."""
    texts = []
    while len(texts) < n:
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 41))))
        form = rng.integers(0, 3)
        if form == 0:
            mantissa = str(rng.integers(1, 10)) + digits
        elif form == 1:
            mantissa = str(rng.integers(1, 10)) + "." + digits
        else:
            mantissa = "0." + digits
        text = "-" * int(rng.integers(0, 2)) + mantissa + f"e{rng.integers(-330, 311)}"
        if math.isfinite(float(text)):
            texts.append(text)
    return texts


def test_orjson_tier_reads_numbers_as_float_does():
    # Random bit patterns written with repr, and long decimal strings, as
    # single-space records: any orjson that reads a number differently from
    # float() must fail here, not change an estimate.json.  The per-line parser
    # is made to fail, so that every chunk must be taken by the orjson tier.
    rng = np.random.default_rng(20210701)
    values = np.frombuffer(rng.bytes(8 * 220_000), dtype=np.float64)
    values = values[np.isfinite(values)]
    assert len(values) >= 200_000
    tokens = list(map(float.__repr__, values.tolist())) + _decimal_strings(rng, 40_000)
    tokens = [tokens[i] for i in rng.permutation(len(tokens))]
    tokens += ["1"] * (-len(tokens) % 3)
    data = "".join(f"{a} {b} {c}\n" for a, b, c in zip(*[iter(tokens)] * 3)).encode()
    assert len(data) > 2 * perception._JSON_CHUNK_BYTES
    with mock.patch.object(perception, "_parse_xyz_record", side_effect=AssertionError("refused")):
        points = parse_cloud(data).points
    assert points.tobytes() == np.array(list(map(float, tokens))).reshape(-1, 3).tobytes()


def test_clean_records_take_the_fast_path(monkeypatch):
    def per_line(tokens, line_no):
        raise AssertionError("per-line parser reached on clean records")

    monkeypatch.setattr(perception, "_parse_xyz_record", per_line)
    xyz = parse_cloud("# view\n0.1 0.2 0.3\n\n-1 2e-3 4\n")
    pcd = parse_cloud("VERSION .7\nFIELDS x y z\nPOINTS 2\nDATA ascii\n0.1 0.2 0.3\n-1 2e-3 4\n")
    assert xyz.points.tolist() == pcd.points.tolist() == [[0.1, 0.2, 0.3], [-1.0, 0.002, 4.0]]


@st.composite
def rotations(draw):
    """Proper rotations from drawn unit quaternions."""
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    norm = np.linalg.norm(q)
    if norm < 1e-3:
        q, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    w, x, y, z = q / norm
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@settings(max_examples=100, deadline=None)
@given(
    rotations(),
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    arrays(np.float64, st.tuples(st.integers(0, 3000), st.just(3)),
           elements=st.floats(-1e3, 1e3)),
)
# The two gemm kernels round an underflowed product to zeros of opposite sign
# here (-0.0 against 0.0), so equal values are all that can be promised.
@example(np.array([[0.82695805, -0.56226363, 0.0], [-0.56226363, -0.82695805, -0.0],
                   [0.0, 0.0, -1.0]]),
         [-0.0, 0.0, 0.0], np.full((2, 3), -5e-324))
def test_transform_matches_strided_product_values(rot, translation, points):
    mat = np.eye(4)
    mat[:3, :3] = rot
    mat[:3, 3] = translation
    pose = ScenePose(mat)
    cloud = PointCloud(points)
    expected = cloud.points @ pose.rotation.T + pose.translation
    got = transform_cloud(cloud, pose).points
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("seed", range(3))
def test_transform_matches_strided_product_on_large_views(seed):
    # Views this size are where BLAS picks a different path for the strided operand.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    mat = np.eye(4)
    mat[:3, :3] = q * np.sign(np.linalg.det(q))
    mat[:3, 3] = rng.uniform(-1.0, 1.0, 3)
    pose = ScenePose(mat)
    cloud = PointCloud(rng.normal(size=(100_000, 3)))
    expected = cloud.points @ pose.rotation.T + pose.translation
    assert transform_cloud(cloud, pose).points.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text", ["1_0 2 3", "١٢ 2 3", "１ 2.5 3"])
def test_records_numpy_rejects_but_float_accepts_still_parse(text):
    # The orjson tier refuses these; the per-line fallback reads them.
    assert parse_cloud(text).points.tolist() == [[float(t) for t in text.split()]]
