"""Data-driven payload capacity and deflection model.

Capacity entries map (object diameter mm, approach direction, hinge
reinforcement flag) to a maximum liftable payload.  Deflection curves give
finger deflection versus payload fraction (0, 0.2, ..., 1.0 of that
configuration's maximum) for the horizontal approach, where deflection is
observed.  The shipped table is illustrative: absolute magnitudes are not
available for the hardware, so the values are anchored to the one known
absolute bound (the unreinforced horizontal capacity at 140 mm sits below
the 0.12 kg hand-scale mass) and scaled to satisfy the measured ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import InvariantViolationError, MissingCapacityDataError, ParseError
from .inputs import decode_json, read_json

__all__ = [
    "CapacityModel", "REFERENCE_DIAMETER_MM", "default_capacity_model", "load_capacity_file",
    "load_capacity_model",
]

APPROACHES = ("horizontal", "vertical")
HINGE_CONFIGS = ("hinged", "unhinged")

# Reference object diameter: the capacity optimum for the reinforced
# configuration; hinge gains are quoted at this diameter.
REFERENCE_DIAMETER_MM = 80.0


@dataclass(frozen=True)
class CapacityModel:
    """Validated capacity table plus per-configuration deflection curves.

    entries: {(diameter_mm, approach, hinged): max_payload_kg}
    deflection_curves: {"hinged"|"unhinged": ((payload_fraction, mm), ...)}

    Immutable after load; safe to share across concurrent planners.
    """

    entries: dict
    deflection_curves: dict

    # -- lookups ----------------------------------------------------------

    def _curve(self, approach: str, hinged: bool) -> list[tuple[float, float]]:
        pts = sorted(
            (d, p) for (d, a, h), p in self.entries.items()
            if a == approach and h == hinged
        )
        return pts

    def payload_limit(self, diameter_mm: float, approach: str, hinged: bool) -> float:
        """Maximum payload (kg) at a diameter, linearly interpolated.

        Raises MissingCapacityDataError outside the measured diameter hull
        for that configuration (e.g. 20 mm without hinges, where the
        fingers twist and no measurement exists).
        """
        _check_approach(approach)
        pts = self._curve(approach, hinged)
        if not pts:
            raise MissingCapacityDataError(
                f"no capacity data for approach={approach}, hinged={hinged}"
            )
        diams = [d for d, _ in pts]
        if diameter_mm < diams[0] or diameter_mm > diams[-1]:
            raise MissingCapacityDataError(
                f"diameter {diameter_mm:g} mm outside measured range "
                f"[{diams[0]:g}, {diams[-1]:g}] mm for approach={approach}, "
                f"hinged={hinged}"
            )
        for (d0, p0), (d1, p1) in zip(pts, pts[1:]):
            if d0 <= diameter_mm <= d1:
                if d1 == d0:
                    return p0
                w = (diameter_mm - d0) / (d1 - d0)
                return p0 + w * (p1 - p0)
        return pts[-1][1]

    def max_payload(self, approach: str, hinged: bool) -> float:
        """Largest payload across the diameter curve for a configuration."""
        _check_approach(approach)
        vals = [p for (_, a, h), p in self.entries.items() if a == approach and h == hinged]
        if not vals:
            raise MissingCapacityDataError(
                f"no capacity data for approach={approach}, hinged={hinged}"
            )
        return max(vals)

    def hinge_gain(self, approach: str, diameter_mm: float = REFERENCE_DIAMETER_MM) -> float:
        """Reinforced/unreinforced payload ratio at a diameter."""
        return self.payload_limit(diameter_mm, approach, True) / self.payload_limit(
            diameter_mm, approach, False
        )

    def predict_deflection(self, hinged: bool, payload_fraction: float) -> float:
        """Interpolated deflection (mm) at a payload fraction in [0, 1]."""
        curve = self.deflection_curves["hinged" if hinged else "unhinged"]
        frac = min(max(payload_fraction, 0.0), 1.0)
        for (f0, d0), (f1, d1) in zip(curve, curve[1:]):
            if f0 <= frac <= f1:
                if f1 == f0:
                    return d0
                w = (frac - f0) / (f1 - f0)
                return d0 + w * (d1 - d0)
        return curve[-1][1]


def _check_approach(approach: str) -> None:
    if approach not in APPROACHES:
        raise ValueError(f"approach must be one of {APPROACHES}, got {approach!r}")


def _validate(model: CapacityModel) -> CapacityModel:
    if not model.entries:
        raise InvariantViolationError("capacity table is empty")
    for (d, a, h), p in model.entries.items():
        if d <= 0:
            raise InvariantViolationError(f"non-positive diameter {d}")
        if p < 0:
            raise InvariantViolationError(f"negative payload at ({d}, {a}, {h})")
        if a not in APPROACHES:
            raise InvariantViolationError(f"approach must be one of {APPROACHES}, got {a!r}")

    # Reinforcement never hurts: hinged >= unhinged wherever both measured.
    for (d, a, h), p in model.entries.items():
        if h:
            continue
        hinged_p = model.entries.get((d, a, True))
        if hinged_p is not None and hinged_p < p:
            raise InvariantViolationError(
                f"hinged payload {hinged_p} below unhinged {p} at {d} mm, {a}"
            )

    for name in HINGE_CONFIGS:
        curve = model.deflection_curves.get(name)
        if not curve or len(curve) < 2:
            raise InvariantViolationError(f"deflection curve {name!r} missing or too short")
        fracs = [f for f, _ in curve]
        defl = [m for _, m in curve]
        if any(f1 <= f0 for f0, f1 in zip(fracs, fracs[1:])):
            raise InvariantViolationError(f"deflection curve {name!r} fractions not increasing")
        if fracs[0] < 0 or fracs[-1] > 1:
            raise InvariantViolationError(f"deflection curve {name!r} fractions outside [0, 1]")
        if any(d1 <= d0 for d0, d1 in zip(defl, defl[1:])):
            raise InvariantViolationError(
                f"deflection curve {name!r} must strictly increase with payload"
            )

    hinged_curve = dict(model.deflection_curves["hinged"])
    for frac, d_unhinged in model.deflection_curves["unhinged"]:
        d_hinged = hinged_curve.get(frac)
        if d_hinged is not None and d_hinged >= d_unhinged:
            raise InvariantViolationError(
                f"hinged deflection {d_hinged} not below unhinged {d_unhinged} "
                f"at payload fraction {frac}"
            )
    return model


def capacity_model_from_dict(raw: dict) -> CapacityModel:
    """Build and validate a model from the capacity JSON structure."""
    if not isinstance(raw, dict):
        raise ParseError("capacity data must be a JSON object")
    entries_raw = raw.get("entries")
    curves_raw = raw.get("deflection_curves")
    if not isinstance(entries_raw, list):
        raise ParseError("capacity data needs an 'entries' array")
    if not isinstance(curves_raw, dict):
        raise ParseError("capacity data needs a 'deflection_curves' object")

    entries = {}
    for i, item in enumerate(entries_raw):
        try:
            key = (
                float(item["diameter_mm"]),
                str(item["approach"]),
                bool(item["hinged"]),
            )
            payload = float(item["max_payload_kg"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"capacity entry {i} malformed: {exc}") from exc
        if key in entries:
            raise ParseError(f"duplicate capacity entry for {key}")
        entries[key] = payload

    curves = {}
    for name in HINGE_CONFIGS:
        seq = curves_raw.get(name, [])
        try:
            curves[name] = tuple((float(f), float(d)) for f, d in seq)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"deflection curve {name!r} malformed: {exc}") from exc

    return _validate(CapacityModel(entries=entries, deflection_curves=curves))


def load_capacity_model(source) -> CapacityModel:
    """Load a capacity model from JSON text/bytes or a parsed dict."""
    if isinstance(source, (bytes, str)):
        source = decode_json(source, "capacity data")
    return capacity_model_from_dict(source)


def load_capacity_file(path) -> CapacityModel:
    return capacity_model_from_dict(read_json(path))


def default_capacity_model() -> CapacityModel:
    """The illustrative table shipped with the package."""
    text = resources.files("softgrip.data").joinpath("capacity_default.json").read_text()
    return load_capacity_model(text)
