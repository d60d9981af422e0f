"""Point-cloud ingestion, calibrated merging, cropping, and object sizing.

Clouds are meters; the gripper geometry is millimeters.  The one unit
conversion is object_diameter_mm, and exceeds_aperture, which decide_approach
and both planners call, is the one test of an object against the open
fingers.  Parsing covers plain ASCII XYZ ("x y z" per line, '#' comments) and
ASCII PCD v0.7 with FIELDS x y z, read as lines from the view's bytes and
converted by orjson or float().
"""

from __future__ import annotations

import codecs
import io
import itertools
import math
import mmap
import os
import re
from dataclasses import asdict, dataclass, field
from typing import IO, BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyCloudError,
    FrameMismatchError,
    InvalidPoseError,
    ObjectTooLargeError,
    ParseError,
)
from .geometry import GripperGeometry, aperture_window
from .inputs import HashingReader, from_dict

__all__ = [
    "ApproachDecision", "Box", "ObjectEstimate", "PointCloud", "ScenePose", "crop_cloud",
    "decide_approach", "estimate_object", "exceeds_aperture", "load_cloud", "merge_clouds",
    "object_diameter_mm", "parse_cloud", "transform_cloud", "write_cloud_xyz",
]

GLOBAL_FRAME = "global"
CAMERA_FRAME = "camera"

AXIS_NAMES = ("X", "Y", "Z")
DEFAULT_TRIM_FRACTION = 0.01  # of the points cut from each end of each axis


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable (N, 3) cloud of finite coordinates plus a frame label."""

    points: np.ndarray
    frame_id: str = CAMERA_FRAME

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0


@dataclass(frozen=True, eq=False)
class ScenePose:
    """Camera-to-global rigid transform as a 4x4 row-major matrix.

    ``rotation_t`` is R^T as its own C-contiguous array, the right-hand operand
    of transform_cloud.  For two or more points the strided view ``rotation.T``
    gives the same values (both go to BLAS gemm, though the sign of an
    underflowed zero may differ), but OpenBLAS can take a far slower path for it
    (~40 ms against ~2 ms per 100k-point view, measured on a 2-vCPU x86-64 VM).
    A single point goes to gemv, whose plain and transposed kernels sum in
    different orders, so transform_cloud keeps the strided view there.
    """

    transform: np.ndarray
    rotation_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.transform, dtype=np.float64)
        if mat.shape != (4, 4):
            raise InvalidPoseError(f"transform must be 4x4, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise InvalidPoseError("transform contains non-finite values")
        if not np.allclose(mat[3], (0.0, 0.0, 0.0, 1.0), atol=1e-9):
            raise InvalidPoseError(f"bottom row must be (0,0,0,1), got {mat[3]}")
        rot = mat[:3, :3]
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-6:
            raise InvalidPoseError("rotation block is not orthonormal within 1e-6")
        if np.linalg.det(rot) < 0:
            raise InvalidPoseError("rotation block is a reflection (det < 0)")
        mat = np.ascontiguousarray(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "transform", mat)
        rot_t = np.ascontiguousarray(rot.T)
        rot_t.setflags(write=False)
        object.__setattr__(self, "rotation_t", rot_t)

    @classmethod
    def identity(cls) -> "ScenePose":
        return cls(np.eye(4))

    @classmethod
    def from_flat(cls, values: Sequence[float]) -> "ScenePose":
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.shape != (16,):
            raise InvalidPoseError(f"expected 16 row-major numbers, got {arr.shape}")
        return cls(arr.reshape(4, 4))

    @property
    def rotation(self) -> np.ndarray:
        return self.transform[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.transform[:3, 3]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in the global frame (meters, bounds inclusive): the
    region of interest a cloud is cropped to, or the manipulator's
    reachable workspace."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.min_corner)
        hi = tuple(float(v) for v in self.max_corner)
        if len(lo) != 3 or len(hi) != 3:
            raise ConfigError("corners must have 3 components")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ConfigError(f"need min < max per axis, got {lo} vs {hi}")
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)

    def contains(self, point: Sequence[float]) -> bool:
        return all(a <= p <= b for a, p, b in zip(self.min_corner, point, self.max_corner))


@dataclass(frozen=True)
class ObjectEstimate:
    """Centroid and per-axis extents of a (trimmed) cloud, meters."""

    centroid: tuple[float, float, float]
    extents: tuple[float, float, float]
    point_count: int
    dominant_axis: str

    def __post_init__(self):
        if any(e < 0 for e in self.extents):
            raise ConfigError(f"extents must be non-negative, got {self.extents}")
        if self.dominant_axis not in AXIS_NAMES:
            raise ConfigError(f"dominant_axis must be one of {AXIS_NAMES}")

    def to_dict(self) -> dict:
        return {_ESTIMATE_KEYS.get(k, k): list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, raw: dict, what: str = "object estimate") -> "ObjectEstimate":
        """Inverse of to_dict."""
        if isinstance(raw, dict):
            fields_by_key = {key: name for name, key in _ESTIMATE_KEYS.items()}
            raw = {fields_by_key.get(k, k): v for k, v in raw.items()}
        return from_dict(cls, raw, what)


_ESTIMATE_KEYS = {"centroid": "centroid_m", "extents": "extents_m"}  # JSON keys with units


# ---------------------------------------------------------------------------
# Parsing and writing
# ---------------------------------------------------------------------------

def _parse_xyz_record(tokens: list[str], line_no: int) -> tuple[float, float, float]:
    if len(tokens) != 3:
        raise ParseError(
            f"expected 3 fields per record, got {len(tokens)}",
            line=line_no,
            column=min(len(tokens) + 1, 4),
        )
    out = []
    for col, tok in enumerate(tokens, start=1):
        try:
            val = float(tok)
        except ValueError:
            raise ParseError(f"malformed number {tok!r}", line=line_no, column=col) from None
        if not math.isfinite(val):
            raise ParseError(f"non-finite coordinate {tok!r}", line=line_no, column=col)
        out.append(val)
    return tuple(out)


_PCD_HEADER_KEYS = {
    "VERSION", "FIELDS", "SIZE", "TYPE", "COUNT",
    "WIDTH", "HEIGHT", "VIEWPOINT", "POINTS", "DATA",
}

def _meaningful_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """Yield (line number, counted from ``start``, line as given) of each line
    that is neither blank nor a '#' comment."""
    for line_no, line in enumerate(lines, start):
        text = line.lstrip()
        if text and not text.startswith("#"):
            yield line_no, line


def _pcd_header(lines: Iterator[tuple[int, str]]) -> tuple[int, int] | None:
    """Check a PCD header, consuming meaningful lines through its DATA line.

    Returns (declared point count, line number of POINTS), or None when the
    header declares no count.
    """
    header: dict[str, list[str]] = {}
    header_lines: dict[str, int] = {}
    for line_no, text in lines:
        tokens = text.split()
        key = tokens[0].upper()
        if key not in _PCD_HEADER_KEYS:
            raise ParseError(f"unexpected token {tokens[0]!r} in PCD header", line=line_no, column=1)
        header[key] = tokens[1:]
        header_lines[key] = line_no
        if key == "DATA":
            break
    else:
        raise ParseError("PCD header has no DATA line")

    fields = [f.lower() for f in header.get("FIELDS", [])]
    if fields != ["x", "y", "z"]:
        raise ParseError(
            f"unsupported fields {' '.join(fields) or '<none>'}; only 'x y z' is supported",
            line=header_lines.get("FIELDS"),
        )
    mode = [m.lower() for m in header.get("DATA", [])]
    if mode != ["ascii"]:
        raise ParseError(
            f"unsupported PCD mode {' '.join(mode) or '<none>'}; only 'ascii' is supported",
            line=header_lines.get("DATA"),
        )
    types = [t.upper() for t in header.get("TYPE", [])]
    if types and types != ["F", "F", "F"]:
        raise ParseError(f"unsupported TYPE {' '.join(types)}", line=header_lines.get("TYPE"))
    sizes = header.get("SIZE", [])
    if sizes and any(s not in ("4", "8") for s in sizes):
        raise ParseError(f"unsupported SIZE {' '.join(sizes)}", line=header_lines.get("SIZE"))
    if "POINTS" not in header:
        return None
    try:
        return int(header["POINTS"][0]), header_lines["POINTS"]
    except (IndexError, ValueError):
        raise ParseError("malformed POINTS value", line=header_lines["POINTS"]) from None


def _read_header(lines: Iterator[tuple[int, str]]) -> tuple[tuple[int, int] | None,
                                                            tuple[int, str] | None]:
    """Read a view's meaningful lines through its first record.

    Returns the POINTS count as _pcd_header gives it (None for plain XYZ),
    and the first record as (line number, line), or None when there is none.
    """
    first = next(lines, None)
    if first is None or first[1].split()[0].upper() != "VERSION":
        return None, first
    declared = _pcd_header(itertools.chain([first], lines))
    return declared, next(lines, None)


def _lines(lines: Iterable[bytes]) -> Iterator[str]:
    """The lines of "\n"-lines of UTF-8 bytes as str.splitlines gives them: no
    line break that splitlines knows spans a "\n"."""
    text = map(bytes.decode, lines, itertools.repeat("utf-8"), itertools.repeat("surrogatepass"))
    return itertools.chain.from_iterable(map(str.splitlines, text))


_JSON_CHUNK_BYTES = 1 << 17  # the read block; bounds the tier's transient copies (5 or 6 times)
_NUMBER_BYTES = b"0123456789.eE+-"
_SIGN = re.compile(rb"\+(?<![^ \t\n]\+)(?=[0-9])")  # a "+" that starts a token, before a digit


def max_records(nbytes: int) -> int:
    """An upper bound on the records in nbytes of cloud text: each takes at
    least 6 bytes ("1 2 3\n"), the last perhaps 5."""
    return nbytes // 6 + 1


def expected_records(nbytes: int, rows: int, span: int) -> int:
    """Rows to map for the records in nbytes of cloud text whose first span
    bytes held ``rows``: those, and the rest at their density and a quarter
    more; at most max_records(nbytes), which ``rows`` passes only if a file
    grew after its size was taken."""
    rest = math.ceil(1.25 * rows * max(nbytes - span, 0) / max(span, 1))
    return min(max_records(nbytes), rows + rest)


def _unwritten(rows: int, head: np.ndarray | None = None) -> np.ndarray:
    """An uninitialised (rows, 3) float64 array in a mapping of its own, its
    first rows a copy of ``head``: its pages count in RSS only once written
    (numpy would ask for huge pages for 4 MB or more, so RSS would grow 2 MB
    at a time), and the whole mapping goes back to the system when the
    array is freed, whatever its size.  A mapping the system refuses (an
    address-space limit) raises MemoryError."""
    try:
        mapping = mmap.mmap(-1, 24 * max(rows, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as exc:
        raise MemoryError(f"cannot map {rows} points: {exc.strerror}") from exc
    out = np.frombuffer(mapping, dtype=np.float64).reshape(-1, 3)[:rows]
    if head is not None:
        out[:len(head)] = head
    return out


def _utf8_error(exc: UnicodeDecodeError, offset: int) -> ParseError:
    """The error of decoding a whole view, from exc, raised by decoding its
    bytes from ``offset`` on: CPython's text, with the positions in the view."""
    start, end = offset + exc.start, offset + exc.end
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if end == start + 1
             else f"bytes in position {start}-{end - 1}")
    return ParseError(f"input is not UTF-8 text: 'utf-8' codec can't decode {where}: {exc.reason}")


class _Source:
    """The bytes of a view, read forward once through ``read(n)`` in blocks of
    _JSON_CHUNK_BYTES (longer only to finish a longer line), and handed out as
    "\n"-lines or as chunks of whole lines.  When ``utf8`` is set, each block
    is checked as it is read, so a decode error is raised before any line
    holding those bytes is; text that was a str is not checked."""

    def __init__(self, read: Callable[[int], bytes], utf8: bool):
        self._read = read
        self._utf8 = codecs.getincrementaldecoder("utf-8")() if utf8 else None
        self._offset = 0  # of the next block in the view
        self.buf, self.pos = b"", 0  # the unread bytes are buf[pos:]
        self.start = 0  # where in buf the last line handed out began
        self.eof = False

    def _more(self) -> bool:
        """Append the next block to the unread bytes; False at the end.  A
        block is as long as the unread bytes when they are longer, so that a
        long line is read in linear time."""
        if self.eof:
            return False
        block = self._read(max(_JSON_CHUNK_BYTES, len(self.buf) - self.pos))
        self._check(block)
        if not block:
            self.eof = True
            return False
        self.buf, self.pos = self.buf[self.pos:] + block, 0
        return True

    def _check(self, block: bytes) -> None:
        decoder, offset = self._utf8, self._offset
        self._offset += len(block)
        if decoder is None:
            return
        pending = decoder.getstate()[0]  # the bytes of a character the last block cut
        if block.isascii() and not pending:
            return
        try:
            decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:
            self.eof = True
            raise _utf8_error(exc, offset - len(pending)) from exc

    def lines(self) -> Iterator[bytes]:
        """The unread "\n"-lines, the last perhaps without its "\n"."""
        while True:
            end = self.buf.find(b"\n", self.pos) + 1
            if not end:
                if self._more():
                    continue
                if self.pos == len(self.buf):
                    return
                end = len(self.buf)
            self.start, self.pos = self.pos, end
            yield self.buf[self.start:end]

    def chunks(self) -> Iterator[bytes]:
        """The unread bytes as chunks of whole lines, one per block read, each
        ending in "\n" (the view's last line gets one).  The source moves past
        a chunk only when the next one is asked for, so it stays at the start
        of the chunk its reader stopped at."""
        while True:
            end = self.buf.rfind(b"\n", self.pos) + 1
            if end:
                yield self.buf[self.pos:end]
                self.pos = end
            if not self._more():
                if self.pos < len(self.buf):
                    yield self.buf[self.pos:] + b"\n"
                    self.pos = len(self.buf)
                return

    def drain(self) -> None:
        """Read, hash and check the rest, keeping none of it."""
        while not self.eof:
            self.buf, self.pos = b"", 0
            self._more()


def _json_rows(source: _Source, nbytes: int) -> tuple[np.ndarray, int]:
    """The rows orjson converts from source's chunks, one call per chunk, and
    the number of "\n"-lines they span; source stays at the first chunk
    refused.  The rows go into one array (_unwritten) mapped at the first
    chunk for the nbytes of the view (expected_records), and again from the
    rows and bytes so far whenever it is full; a chunk that would pass
    max_records(nbytes) rows (a file that grew after its size was taken) is
    refused.  A chunk is taken only where that gives float()'s doubles:
    its lines are three fields of bytes "0-9.eE+-", one space apart, each
    ending in "\n" (a "+" that starts a token before a digit is deleted
    first; a chunk with other blanks, space, tab and "\r" before "\n", is
    rewritten so, without its blank lines); they form a JSON array (no empty
    field, "+1", ".5", "1.", "01" or overflow); and no "-0" token (JSON's int
    0) sits in a chunk with a 0."""
    import orjson  # here, so that a command that reads no cloud never loads it

    out, n, lines, span = None, 0, 0, 0
    for chunk in source.chunks():
        count = chunk.count(b"\n")
        span += len(chunk)
        chunk = _SIGN.sub(b"", chunk) if b"+" in chunk else chunk
        seps = chunk.translate(None, _NUMBER_BYTES)
        # "\r" is counted on the chunk: with the numbers gone, "1\r2\n" looks like "\r\n".
        if seps != b"  \n" * (len(seps) // 3) and not seps.translate(None, b" \t\r\n") \
                and chunk.count(b"\r") == chunk.count(b"\r\n"):
            fields = map(bytes.split, chunk.split(b"\n"))
            chunk = b"".join(b" ".join(f) + b"\n" for f in fields if f)
            seps = chunk.translate(None, _NUMBER_BYTES)
        if seps != b"  \n" * (len(seps) // 3):
            break
        text = memoryview(chunk.translate(bytes.maketrans(b" \n", b",,")))[:-1]  # no last ","
        try:
            block = np.array(orjson.loads(b"".join((b"[", text, b"]"))), dtype=float).reshape(-1, 3)
        except (ValueError, TypeError, OverflowError):
            break
        if not np.isfinite(block).all() or not block.all() and b",-0," in b",%b," % text:
            break
        if out is None or n + len(block) > len(out):
            rows = expected_records(nbytes, n + len(block), span)
            if rows < n + len(block):  # more rows than the bound: the file grew
                break
            out = _unwritten(rows, out[:n] if n else None)
        out[n:n + len(block)] = block
        n += len(block)
        lines += count
    return (out[:n] if n else np.empty((0, 3))), lines


def _records(source: _Source, nbytes: int) -> np.ndarray:
    """The points of the records of a view of nbytes: the header read line
    by line, then _json_rows from the first record's "\n"-line, then float()
    line by line from the first chunk it refuses."""
    records = _meaningful_lines(_lines(source.lines()))
    declared, first = _read_header(records)
    points, head = np.empty((0, 3)), [first] if first else []
    if first:
        after, source.pos = source.pos, source.start  # the first record's "\n"-line
        points, lines = _json_rows(source, nbytes)
        if lines:  # the per-line loop resumes at the refused chunk, numbered on from the first record
            head, records = [], _meaningful_lines(_lines(source.lines()), first[0] + lines)
        else:  # nothing taken: read on after the first record, where the header reader stopped
            source.pos = after
    rows = [_parse_xyz_record(line.split(), n) for n, line in itertools.chain(head, records)]
    if rows:
        points = np.concatenate((points, np.array(rows, dtype=np.float64)))
    if declared is not None and declared[0] != len(points):
        raise ParseError(
            f"POINTS declares {declared[0]} records but data has {len(points)}",
            line=declared[1],
        )
    return points


def parse_cloud(data: bytes | str | BinaryIO) -> PointCloud:
    """Parse ASCII XYZ or the ASCII PCD v0.7 x/y/z subset into a camera-frame cloud.

    ``data`` is the view's bytes or text, or a binary file read from its
    position on, once, a block at a time.  The rows orjson converts go into
    one array (_unwritten), mapped for the size of the bytes or the file at
    the density of the first chunk of records (expected_records), and
    mapped again larger whenever it fills.  Only the pages of that array
    that are written count in RSS.
    Lines come from the bytes alone (_lines).  The leading blank and '#'
    lines and a PCD header through DATA are read once, line by line.  From
    the first record's line on, _json_rows converts chunks of records with
    orjson, and from the first chunk it refuses float() reads the rest line
    by line; both give the same doubles.  Raises ParseError with the
    line/column of the first malformed record, or, before any other, the
    error of bytes that are not UTF-8, wherever they are.
    """
    if isinstance(data, (bytes, str)):
        raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
        source, nbytes = _Source(io.BytesIO(raw).read, isinstance(data, bytes)), len(raw)
    else:
        source, nbytes = _Source(data.read, True), os.fstat(data.fileno()).st_size
    try:
        return PointCloud(_records(source, nbytes))
    except ParseError:
        source.drain()  # the UTF-8 error comes first
        raise


def load_cloud(path) -> PointCloud:
    with HashingReader(path) as stream:
        return parse_cloud(stream)


def write_cloud_xyz(cloud: PointCloud, stream: IO[str]) -> None:
    """Write as plain XYZ using shortest-roundtrip floats, one point per line."""
    for x, y, z in cloud.points:
        stream.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


# ---------------------------------------------------------------------------
# Transform / merge / crop / estimate
# ---------------------------------------------------------------------------

def transform_cloud(cloud: PointCloud, pose: ScenePose) -> PointCloud:
    """Apply p' = R p + t to every point and relabel to the global frame."""
    rot_t = pose.rotation_t if len(cloud) > 1 else pose.rotation.T
    pts = cloud.points @ rot_t
    pts += pose.translation
    return PointCloud(pts, GLOBAL_FRAME)


def merge_clouds(clouds: Iterable[PointCloud],
                 size: int | Callable[[int], int] | None = None) -> PointCloud:
    """Concatenate clouds that share one frame.

    The clouds are taken one at a time, and none is held once it is copied:
    a lone cloud is returned as it is; from a second on, all are copied into
    one array (_unwritten) of ``size`` points (their total, for a sequence,
    if None), or, if ``size`` is a function, of ``size(n)`` for the n points
    of the first two; it is mapped again twice as large whenever they hold
    more.
    """
    if size is None:
        clouds = list(clouds)
        size = sum(map(len, clouds))
    lone, out, n, frames = None, None, 0, set()
    for cloud in clouds:
        frames.add(cloud.frame_id)
        if lone is None and out is None:
            lone = cloud
        else:
            if out is None:  # a second cloud: from here on, one array
                both = len(lone) + len(cloud)
                out = _unwritten(max(size(both) if callable(size) else size, both), lone.points)
                n, lone = len(lone), None
            elif n + len(cloud) > len(out):
                out = _unwritten(max(2 * len(out), n + len(cloud)), out[:n])
            out[n:n + len(cloud)] = cloud.points
            n += len(cloud)
        del cloud  # not held while the next one is made
    if not frames:
        raise EmptyCloudError("nothing to merge")
    if len(frames) != 1:
        raise FrameMismatchError(f"clouds span multiple frames: {sorted(frames)}")
    return lone if out is None else PointCloud(out[:n], frames.pop())


def crop_cloud(cloud: PointCloud, roi: Box) -> PointCloud:
    """Keep points inside the box, bounds inclusive.  Idempotent."""
    if cloud.is_empty:
        return cloud
    lo = np.array(roi.min_corner)
    hi = np.array(roi.max_corner)
    mask = np.all((cloud.points >= lo) & (cloud.points <= hi), axis=1)
    return PointCloud(cloud.points[mask], cloud.frame_id)


def percentiles(column: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """np.percentile(column, q, overwrite_input=True) of a 1-D float64 column
    without NaN, bit for bit, by numpy's own steps for its default "linear"
    method, but without the np.unique that imports numpy.ma (~13 ms and
    1.3 MB in a process that has not).  Reorders column."""
    n = len(column)
    virtual = (n - 1) * np.true_divide(q, 100)
    below = np.floor(virtual)
    above = below + 1
    past_end = virtual >= n - 1  # where numpy takes the last value
    below[past_end] = above[past_end] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    column.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    a, b = column[below], column[above]
    t = virtual - below
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def estimate_object(cloud: PointCloud,
                    trim_fraction: float = DEFAULT_TRIM_FRACTION) -> ObjectEstimate:
    """Percentile-trimmed axis-aligned extents plus centroid.

    Per axis the [p, 1-p] percentile range defines the extent; the centroid
    is the mean of the points retained inside all three ranges.  With
    trim_fraction 0 this is the exact bounding box.  Ties for the dominant
    axis break deterministically X before Y before Z.
    """
    if not 0 <= trim_fraction < 0.5:
        raise ConfigError(f"trim_fraction must be in [0, 0.5), got {trim_fraction}")
    if cloud.is_empty:
        raise EmptyCloudError("cannot estimate an empty cloud")

    pts = cloud.points
    if trim_fraction == 0.0:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    else:  # per axis from one column copy, which the partition may reorder
        q = [100 * trim_fraction, 100 * (1 - trim_fraction)]
        lo, hi = np.array([percentiles(pts[:, k].copy(), q) for k in range(3)]).T
    mask = np.all((pts >= lo) & (pts <= hi), axis=1)
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise EmptyCloudError("no points remain after trimming")

    extents = hi - lo
    # The mean of the retained rows without a copy of them: numpy sums axis 0
    # of a C-order array row by row, as it does for pts[mask].mean(axis=0).
    centroid = np.add.reduce(pts, axis=0, where=mask[:, None]) / count
    dominant = AXIS_NAMES[int(np.argmax(extents))]
    return ObjectEstimate(
        centroid=tuple(float(v) for v in centroid),
        extents=tuple(float(v) for v in extents),
        point_count=count,
        dominant_axis=dominant,
    )


# ---------------------------------------------------------------------------
# Approach decision
# ---------------------------------------------------------------------------

DEFAULT_WORKSPACE = Box((-10.0, -10.0, -10.0), (10.0, 10.0, 10.0))

APPROACH_HORIZONTAL = "horizontal"
APPROACH_VERTICAL = "vertical"
APPROACH_UNGRASPABLE = "ungraspable"

# Objects at most this tall (m) are pinched from above; taller ones are enveloped.
SMALL_HEIGHT_THRESHOLD_M = 0.010


@dataclass(frozen=True)
class ApproachDecision:
    approach: str
    reason: str

    def to_dict(self) -> dict:
        return asdict(self)


def object_diameter_mm(est: ObjectEstimate) -> float:
    """Graspable lateral extent: the smaller horizontal dimension, in mm."""
    return min(est.extents[0], est.extents[1]) * 1000.0


def exceeds_aperture(est: ObjectEstimate, geom: GripperGeometry) -> ObjectTooLargeError | None:
    """The error that refuses an object wider than the fully open fingers,
    or None when it fits."""
    diameter = object_diameter_mm(est)
    ap_open = aperture_window(geom)[1]
    if diameter > ap_open:
        return ObjectTooLargeError(f"object diameter {diameter:.1f} mm exceeds the maximum "
                                   f"aperture {ap_open:.1f} mm")
    return None


def is_small_height(est: ObjectEstimate) -> bool:
    """Whether an object is low enough for a vertical pinch grasp from above."""
    return est.extents[2] <= SMALL_HEIGHT_THRESHOLD_M


def decide_approach(
    est: ObjectEstimate, geom: GripperGeometry, limits: Box = DEFAULT_WORKSPACE
) -> ApproachDecision:
    """Pick the grasp approach from the dominant object dimension.

    Total and deterministic.  Rules, in order: an object wider than the open
    fingers (exceeds_aperture, as in the planners) is ungraspable; small-height
    objects are approached vertically (the manipulator must not hit the
    support surface); a horizontally reachable object is approached
    horizontally (tall objects because their dominant extent is vertical);
    outside the workspace box the approach falls back to vertical.
    """
    if exceeds_aperture(est, geom) is not None:
        return ApproachDecision(APPROACH_UNGRASPABLE, "exceeds_aperture")
    if is_small_height(est):
        return ApproachDecision(APPROACH_VERTICAL, "small_height")
    if limits.contains(est.centroid):
        if est.dominant_axis == "Z":
            return ApproachDecision(APPROACH_HORIZONTAL, "dominant_vertical_extent")
        return ApproachDecision(APPROACH_HORIZONTAL, "fits_aperture")
    return ApproachDecision(APPROACH_VERTICAL, "workspace_limited")


# ---------------------------------------------------------------------------
# Scene manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class View:
    """One view of a scene manifest: a cloud file and its camera-to-global
    transform as 16 row-major numbers."""

    cloud: str
    transform: tuple[float, ...]
    pose: ScenePose = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pose", ScenePose.from_flat(self.transform))


@dataclass(frozen=True)
class SceneManifest:
    views: tuple[View, ...]


def load_scene_manifest(raw, what: str = "manifest") -> list[tuple[str, ScenePose]]:
    """The (cloud path, pose) of each view of a decoded scene manifest,
    {"views": [{"cloud": path, "transform": [16 row-major numbers]}]}.

    Cloud paths are returned as given (the caller resolves them relative to
    the manifest location).
    """
    views = from_dict(SceneManifest, raw, what, ParseError).views
    if not views:
        raise ParseError(f"{what} key 'views' must not be empty")
    return [(view.cloud, view.pose) for view in views]
