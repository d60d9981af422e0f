"""The fk and slide traces, made a chunk at a time, equal the whole-array traces.

A Sweep and the traces along it are made CSV_CHUNK_ROWS rows at a time,
and the slide carries its state (the running maximum of the bend, the first
contact, the flex held from closure on) from chunk to chunk.  The reference
here makes every column of the sweep at once: the sampling and the slide as
they were before the traces were chunked.  At chunk sizes drawn down to one
row, every column, the slide summary and the written CSV must equal it bit
for bit.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softgrip import geometry
from softgrip.cli import main
from softgrip.errors import InvalidRangeError
from softgrip.geometry import (
    MotorTrajectory,
    Sweep,
    default_geometry,
    fk_trace,
    forward_kinematics,
    sample_trajectory,
    tip_height,
    write_columns,
    write_fk_trace_csv,
)
from softgrip.simulate import (
    PHASE_CLOSED,
    PHASES,
    SLIDE_TRACE_HEADER,
    SlideConfig,
    SlideRecord,
    simulate_slide,
    write_slide_trace_csv,
)

GEOM = default_geometry()


def whole_samples(theta_from, theta_to, step):
    """The sweep's samples from one arange, the last clamped to theta_to."""
    span = theta_to - theta_from
    direction = 1.0 if span > 0 else -1.0
    n_full = int(math.floor(abs(span) / step + 1e-9))
    samples = theta_from + direction * step * np.arange(n_full + 1)
    if abs(samples[-1] - theta_to) <= 1e-12:
        samples[-1] = theta_to
    else:
        samples = np.append(samples, theta_to)
    return samples


def whole_slide(geom, cfg):
    """The slide's columns and summary, each column made for the whole sweep."""
    theta = whole_samples(cfg.theta_from, cfg.theta_to, cfg.step)
    y_free = tip_height(geom, theta)
    surface = cfg.surface_y_mm if cfg.surface_y_mm is not None else float(y_free[-1])
    y_sim = np.minimum(y_free, surface)
    bend = y_free - y_sim
    touching = bend > 0.0
    contacted = np.logical_or.accumulate(touching)
    released = np.flatnonzero(contacted & ~touching)
    closure = int(released[0]) if len(released) else len(theta) - 1
    flex = np.maximum.accumulate(bend)
    flex[closure:] = flex[closure]
    flex *= cfg.flex_gain
    flex += cfg.flex_offset
    phase = touching.astype(np.int8)
    phase[closure:] = PHASES.index(PHASE_CLOSED)
    columns = SlideRecord(theta, y_free, y_sim, bend, flex, np.array(PHASES, dtype=object)[phase])
    summary = {
        "surface_y_mm": surface,
        "contact_theta": float(theta[np.argmax(touching)]) if contacted[-1] else None,
        "closure_theta": float(theta[closure]),
        "peak_bend": float(bend.max()),
        "warnings": () if contacted[-1] else ("no_contact",),
    }
    return columns, summary, closure


def same_columns(got, want):
    assert type(got) is type(want)
    for name, a, b in zip(want._fields, got, want):
        if b.dtype == object:
            assert a.tolist() == b.tolist(), name
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def text(header, columns):
    stream = io.StringIO()
    write_columns(header, [columns], len(columns[0]), stream)
    return stream.getvalue()


@st.composite
def sweeps(draw):
    """(theta_from, theta_to, step) of 2 to 300 closing samples; the step's
    fraction decides whether theta_to is the last full step or follows it."""
    theta_from = draw(st.floats(-1.0, -0.8))
    theta_to = draw(st.floats(-1.9, -1.1))
    full = draw(st.integers(1, 299))
    fraction = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.99))
    return theta_from, theta_to, (theta_from - theta_to) / (full + fraction)


# Surfaces: the tip height at theta_to (None), the reference tip height at a
# drawn row (the release of contact lands there), above every tip (no
# contact) or below every tip (contact to the end).
SURFACES = st.one_of(st.none(), st.integers(0, 299), st.sampled_from(["above", "below"]),
                     st.floats(400.0, 445.0))


def surface_for(pick, sweep):
    if pick is None or isinstance(pick, float):
        return pick
    y_free = tip_height(GEOM, whole_samples(*sweep))
    if pick == "above":
        return float(y_free.max()) + 1.0
    if pick == "below":
        return float(y_free.min()) - 1.0
    return float(y_free[min(pick, len(y_free) - 1)])


def check_slide(chunk, sweep, pick):
    theta_from, theta_to, step = sweep
    cfg = SlideConfig(surface_y_mm=surface_for(pick, sweep), theta_from=theta_from,
                      theta_to=theta_to, step=step, flex_gain=2.5, flex_offset=-0.25)
    want, summary, closure = whole_slide(GEOM, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "CSV_CHUNK_ROWS", chunk)
        trace = simulate_slide(GEOM, cfg)
        stream = io.StringIO()
        write_slide_trace_csv(trace, stream)  # the writer's pass fills the summary
        got = {key: getattr(trace, key) for key in summary}
        columns = trace.columns
    assert stream.getvalue() == text(SLIDE_TRACE_HEADER, want)
    assert got == summary
    same_columns(columns, want)
    return closure


def check_fk(chunk, sweep):
    want = forward_kinematics(GEOM, whole_samples(*sweep))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "CSV_CHUNK_ROWS", chunk)
        for trajectory in (sample_trajectory(GEOM, *sweep),
                           MotorTrajectory(whole_samples(*sweep), sweep[2])):
            trace = fk_trace(GEOM, trajectory)
            assert len(trace) == len(want[0])
            stream = io.StringIO()
            write_fk_trace_csv(trace, stream)
            assert stream.getvalue() == text(geometry.FK_TRACE_HEADER, want)
            same_columns(trace.columns, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), sweeps(), SURFACES)
@example(1, (-0.8, -1.9, 0.015), None)
@example(7, (-0.8, -1.9, 0.015), "above")
@example(7, (-0.8, -1.9, 0.015), "below")
def test_chunked_traces_equal_the_whole_array_traces(chunk, sweep, pick):
    check_slide(chunk, sweep, pick)
    check_fk(chunk, sweep)


@pytest.mark.parametrize("chunk, release", [(8, 21), (8, 24), (8, 8), (1, 5), (64, 63)])
def test_closure_inside_a_chunk_and_on_its_edge(chunk, release):
    # The tip height falls along a closing sweep, so a surface at the
    # reference tip height of row `release` releases the contact there: inside
    # a chunk, or on the first row of one (24 and 8 with 8-row chunks).
    closure = check_slide(chunk, (-0.8, -1.9, 0.015), release)
    assert closure == release


@pytest.mark.parametrize("pick, warned", [("above", ("no_contact",)), ("below", ())])
def test_no_contact_and_contact_to_the_end(pick, warned):
    trace = simulate_slide(GEOM, SlideConfig(surface_y_mm=surface_for(pick, (-0.8, -1.9, 0.015))))
    assert trace.warnings == warned
    assert trace.closure_theta == -1.9


@pytest.mark.parametrize("chunk", [1, 2, 3, 1024])
def test_a_step_below_an_ulp_is_refused_inside_a_chunk_and_across_its_edge(monkeypatch, chunk):
    # -0.8 - k*1e-17 rounds to the same float for several k in a row.
    monkeypatch.setattr(geometry, "CSV_CHUNK_ROWS", chunk)
    sweep = Sweep(-0.8, -0.8 - 4e-16, 1e-17)
    with pytest.raises(InvalidRangeError, match="strictly monotone"):
        list(sweep.chunks())


def test_a_sweep_makes_no_sample_until_one_is_read(monkeypatch):
    made = []
    monkeypatch.setattr(Sweep, "_block", lambda self, lo, hi: made.append((lo, hi)))
    sweep = sample_trajectory(GEOM, -0.8, -1.9, 1e-6)
    trace = fk_trace(GEOM, sweep)
    assert len(trace) == len(sweep) == 1_100_001
    assert made == []


def test_a_sweep_past_the_chain_domain_fails_before_its_first_byte(tmp_path, capsys):
    # The chain is undefined from about -3.0 rad on: the error names the
    # largest base length of the whole sweep, not of the first chunk that
    # fails, and nothing is written.
    out = tmp_path / "run"
    assert main(["fk", "--from", "-0.8", "--to", "-3.2", "--step", "1e-5",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "softgrip: warning: theta=-3.2 outside operating window [-1.4, -0.8]\n"
        "softgrip: base length 890.294895 exceeds 2*l = 840.000000; "
        "fingertip angle undefined\n")
    assert not out.exists()


def test_a_step_below_an_ulp_exits_3_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["fk", "--from", "-0.8", "--to", "-0.8000000000000004", "--step", "1e-17",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "softgrip: trajectory samples must be strictly monotone\n"
    assert not out.exists()
