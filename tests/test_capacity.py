import copy
import json
from importlib import resources

import pytest

from softgrip import (
    InvariantViolationError,
    MissingCapacityDataError,
    ParseError,
    load_capacity_model,
)

RATIO_TOL = 0.005
GAIN_TOL = 0.01


def raw_default_table():
    text = resources.files("softgrip.data").joinpath("capacity_default.json").read_text()
    return json.loads(text)


def test_default_table_loads(capacity):
    assert capacity.entries
    assert set(capacity.deflection_curves) == {"hinged", "unhinged"}


def test_unhinged_max_ratio(capacity):
    ratio = capacity.max_payload("vertical", False) / capacity.max_payload("horizontal", False)
    assert ratio == pytest.approx(1.43, abs=RATIO_TOL)


def test_hinged_max_ratio(capacity):
    ratio = capacity.max_payload("horizontal", True) / capacity.max_payload("vertical", True)
    assert ratio == pytest.approx(1.0833, abs=RATIO_TOL)


def test_hinge_gains_at_reference_diameter(capacity):
    assert capacity.hinge_gain("vertical") == pytest.approx(1.32, abs=GAIN_TOL)
    assert capacity.hinge_gain("horizontal") == pytest.approx(3.52, abs=GAIN_TOL)


def test_unhinged_horizontal_140mm_below_scale_mass(capacity):
    assert capacity.payload_limit(140.0, "horizontal", False) < 0.12


def test_unhinged_20mm_is_missing(capacity):
    # The unreinforced fingers twist on 20 mm objects; no measurement exists.
    with pytest.raises(MissingCapacityDataError):
        capacity.payload_limit(20.0, "horizontal", False)
    with pytest.raises(MissingCapacityDataError):
        capacity.payload_limit(20.0, "vertical", False)
    assert capacity.payload_limit(20.0, "vertical", True) > 0


def test_payload_interpolation_between_diameters(capacity):
    low = capacity.payload_limit(60.0, "vertical", True)
    high = capacity.payload_limit(80.0, "vertical", True)
    mid = capacity.payload_limit(70.0, "vertical", True)
    assert mid == pytest.approx(0.5 * (low + high), abs=1e-12)


def test_payload_outside_hull_is_missing(capacity):
    with pytest.raises(MissingCapacityDataError):
        capacity.payload_limit(150.0, "vertical", True)
    with pytest.raises(MissingCapacityDataError):
        capacity.payload_limit(10.0, "vertical", True)


def test_hinged_at_least_unhinged_everywhere(capacity):
    for (d, a, h), payload in capacity.entries.items():
        if not h:
            assert capacity.entries[(d, a, True)] >= payload


def test_deflection_ordering_and_monotonicity(capacity):
    hinged = capacity.deflection_curves["hinged"]
    unhinged = capacity.deflection_curves["unhinged"]
    assert [f for f, _ in hinged] == [f for f, _ in unhinged]
    for (_, dh), (_, du) in zip(hinged, unhinged):
        assert dh < du
    for curve in (hinged, unhinged):
        values = [d for _, d in curve]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_predict_deflection_interpolates(capacity):
    d0 = capacity.predict_deflection(True, 0.0)
    d1 = capacity.predict_deflection(True, 1.0)
    mid = capacity.predict_deflection(True, 0.1)
    assert d0 < mid < d1
    # clamped outside [0, 1]
    assert capacity.predict_deflection(True, 2.0) == d1


def test_rejects_inverted_deflection_ordering():
    raw = raw_default_table()
    raw["deflection_curves"]["hinged"][3][1] = 99.0
    with pytest.raises(InvariantViolationError):
        load_capacity_model(raw)


def test_rejects_non_increasing_deflection():
    raw = raw_default_table()
    raw["deflection_curves"]["unhinged"][2][1] = raw["deflection_curves"]["unhinged"][1][1]
    with pytest.raises(InvariantViolationError):
        load_capacity_model(raw)


def test_rejects_hinged_below_unhinged():
    raw = raw_default_table()
    for entry in raw["entries"]:
        if entry["diameter_mm"] == 80 and entry["approach"] == "vertical" and entry["hinged"]:
            entry["max_payload_kg"] = 0.1
    with pytest.raises(InvariantViolationError):
        load_capacity_model(raw)


def test_rejects_empty_table():
    raw = raw_default_table()
    raw["entries"] = []
    with pytest.raises(InvariantViolationError):
        load_capacity_model(raw)


def test_rejects_malformed_payloads():
    with pytest.raises(ParseError):
        load_capacity_model({"entries": "nope", "deflection_curves": {}})
    raw = raw_default_table()
    del raw["entries"][0]["approach"]
    with pytest.raises(ParseError):
        load_capacity_model(raw)


def test_rejects_duplicate_entries():
    raw = raw_default_table()
    raw["entries"].append(copy.deepcopy(raw["entries"][0]))
    with pytest.raises(ParseError):
        load_capacity_model(raw)
