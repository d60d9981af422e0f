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

from .errors import InvariantViolationError, MissingCapacityDataError, ParseError
from .inputs import from_dict, read_package_json

__all__ = [
    "CapacityModel", "REFERENCE_DIAMETER_MM", "default_capacity_model", "load_capacity_model",
]

APPROACHES = ("horizontal", "vertical")
HINGE_CONFIGS = ("hinged", "unhinged")

# Reference object diameter: the capacity optimum for the reinforced
# configuration; hinge gains are quoted at this diameter.
REFERENCE_DIAMETER_MM = 80.0


@dataclass(frozen=True)
class CapacityEntry:
    """One measured configuration of the capacity file."""

    diameter_mm: float
    approach: str
    hinged: bool
    max_payload_kg: float


@dataclass(frozen=True)
class DeflectionCurves:
    """(payload fraction, deflection mm) pairs per hinge configuration."""

    hinged: tuple[tuple[float, float], ...]
    unhinged: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class CapacityTable:
    """The capacity file as written: {"comment", "entries", "deflection_curves"}."""

    entries: tuple[CapacityEntry, ...]
    deflection_curves: DeflectionCurves
    comment: str = ""


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
        """The (diameter, payload) pairs of one configuration, by diameter."""
        if approach not in APPROACHES:
            raise ValueError(f"approach must be one of {APPROACHES}, got {approach!r}")
        pts = sorted(
            (d, p) for (d, a, h), p in self.entries.items()
            if a == approach and h == hinged
        )
        if not pts:
            raise MissingCapacityDataError(
                f"no capacity data for approach={approach}, hinged={hinged}"
            )
        return pts

    def payload_limit(self, diameter_mm: float, approach: str, hinged: bool) -> float:
        """Maximum payload (kg) at a diameter, linearly interpolated.

        Raises MissingCapacityDataError outside the measured diameter hull
        for that configuration (e.g. 20 mm without hinges, where the
        fingers twist and no measurement exists).
        """
        pts = self._curve(approach, hinged)
        diams = [d for d, _ in pts]
        if diameter_mm < diams[0] or diameter_mm > diams[-1]:
            raise MissingCapacityDataError(
                f"diameter {diameter_mm:g} mm outside measured range "
                f"[{diams[0]:g}, {diams[-1]:g}] mm for approach={approach}, "
                f"hinged={hinged}"
            )
        return _interpolate(pts, diameter_mm)

    def max_payload(self, approach: str, hinged: bool) -> float:
        """Largest payload across the diameter curve for a configuration."""
        return max(p for _, p in self._curve(approach, hinged))

    def hinge_gain(self, approach: str) -> float:
        """Reinforced/unreinforced payload ratio at REFERENCE_DIAMETER_MM."""
        return self.payload_limit(REFERENCE_DIAMETER_MM, approach, True) / self.payload_limit(
            REFERENCE_DIAMETER_MM, approach, False
        )

    def predict_deflection(self, hinged: bool, payload_fraction: float) -> float:
        """Interpolated deflection (mm) at a payload fraction in [0, 1]."""
        curve = self.deflection_curves["hinged" if hinged else "unhinged"]
        frac = min(max(payload_fraction, 0.0), 1.0)
        return _interpolate(curve, frac)


def _interpolate(pts, x: float) -> float:
    """Linear interpolation at x on (x, y) pairs with strictly increasing x;
    the last y where no segment holds x."""
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= x <= x1:
            return y0 + (x - x0) / (x1 - x0) * (y1 - y0)
    return pts[-1][1]


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
        curve = model.deflection_curves[name]
        if len(curve) < 2:
            raise InvariantViolationError(f"deflection curve {name!r} has fewer than 2 points")
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


def load_capacity_model(raw, what: str = "capacity data") -> CapacityModel:
    """Load a capacity model from a decoded JSON object."""
    table = from_dict(CapacityTable, raw, what, ParseError)
    entries = {}
    for e in table.entries:
        key = (e.diameter_mm, e.approach, e.hinged)
        if key in entries:
            raise ParseError(f"{what} has a duplicate entry for {key}")
        entries[key] = e.max_payload_kg
    curves = {name: getattr(table.deflection_curves, name) for name in HINGE_CONFIGS}
    return _validate(CapacityModel(entries=entries, deflection_curves=curves))


def default_capacity_model() -> CapacityModel:
    """The illustrative table shipped with the package."""
    return load_capacity_model(read_package_json("capacity_default.json"))
