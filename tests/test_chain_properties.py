"""Property-based checks of the array-native kinematic chain."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softgrip import (
    ConfigError,
    GripperGeometry,
    SlideConfig,
    aperture,
    aperture_window,
    default_geometry,
    forward_kinematics,
    inverse_kinematics,
    simulate_slide,
)

GEOM = default_geometry()

angle_arrays = arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(GEOM.slide_floor, GEOM.theta_open),
)


@settings(max_examples=50, deadline=None)
@given(angle_arrays)
def test_array_fk_equals_scalar_fk_bitwise(thetas):
    columns = forward_kinematics(GEOM, thetas)
    scalar = [forward_kinematics(GEOM, float(th)) for th in thetas]
    for field in columns._fields[1:]:
        assert np.array_equal(getattr(columns, field), [getattr(s, field) for s in scalar]), field


@settings(max_examples=50, deadline=None)
@given(angle_arrays)
def test_fk_is_even_bitwise(thetas):
    plus = forward_kinematics(GEOM, thetas)
    minus = forward_kinematics(GEOM, -thetas)
    for field in plus._fields[1:]:
        assert np.array_equal(getattr(plus, field), getattr(minus, field)), field


@st.composite
def geometries(draw):
    """Geometries the constructor accepts, well away from the default one."""
    r1 = draw(st.floats(5.0, 150.0))
    r2 = r1 * draw(st.floats(1.2, 4.0))
    l = draw(st.floats(20.0, 500.0))
    theta_open = draw(st.floats(-1.2, 1.2))
    try:
        return GripperGeometry(
            r1=r1, r2=r2, e=draw(st.floats(r2 - r1 - l, r1 + r2 + l)), c=0.0,
            d=draw(st.floats(5.0, 100.0)), l=l,
            delta_x=draw(st.floats(-20.0, 20.0)), delta_y=draw(st.floats(-20.0, 20.0)),
            theta_open=theta_open, theta_closed=theta_open - draw(st.floats(0.2, 1.0)),
        )
    except ConfigError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(GEOM), geometries()), st.floats(0.0, 1.0))
def test_ik_reproduces_the_target_aperture(geom, fraction):
    ap_closed, ap_open = aperture_window(geom)
    target = ap_closed + fraction * (ap_open - ap_closed)
    theta = inverse_kinematics(geom, target)
    assert geom.theta_closed <= theta <= geom.theta_open
    assert abs(aperture(geom, theta) - target) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(395.0, 445.0), st.floats(1e-3, 0.1))
def test_slide_clamps_to_the_surface_at_every_step(surface, step):
    trace = simulate_slide(GEOM, SlideConfig(surface_y_mm=surface, step=step))
    for r in trace.records:
        assert r.y_sim == min(r.y_free, surface)
        assert r.bend == r.y_free - r.y_sim
