"""Quantities and the built-in unit table.

All conversions are linear (value * factor) except Celsius, which carries
an affine offset to kelvin. The table is fixed; there is no runtime unit
registration.
"""

from __future__ import annotations

import math

from eaclab.errors import UnitError
from eaclab.records import record

# unit -> (dimension, factor, offset). canonical value = value * factor + offset.
_UNIT_TABLE: dict[str, tuple[str, float, float]] = {
    "": ("dimensionless", 1.0, 0.0),
    "s": ("time", 1.0, 0.0),
    "min": ("time", 60.0, 0.0),
    "h": ("time", 3600.0, 0.0),
    "m^3": ("volume", 1.0, 0.0),
    "mL": ("volume", 1e-6, 0.0),
    "m^3/s": ("flow", 1.0, 0.0),
    "mL/min": ("flow", 1e-6 / 60.0, 0.0),
    "K": ("temperature", 1.0, 0.0),
    "degC": ("temperature", 1.0, 273.15),
    "Hz": ("frequency", 1.0, 0.0),
    "V": ("voltage", 1.0, 0.0),
    "mol/kg": ("molality", 1.0, 0.0),
    "g": ("mass", 1.0, 0.0),
    "S/cm": ("conductivity", 1.0, 0.0),
}

# Canonical unit per dimension (factor 1, offset 0).
CANONICAL_UNITS: dict[str, str] = {
    "dimensionless": "",
    "time": "s",
    "volume": "m^3",
    "flow": "m^3/s",
    "temperature": "K",
    "frequency": "Hz",
    "voltage": "V",
    "molality": "mol/kg",
    "mass": "g",
    "conductivity": "S/cm",
}


def known_units() -> frozenset[str]:
    return frozenset(_UNIT_TABLE)


def unit_dimension(unit: str) -> str:
    try:
        return _UNIT_TABLE[unit][0]
    except KeyError:
        raise UnitError(f"unknown unit {unit!r}") from None


@record(frozen=True)
class Quantity:
    """A finite number tagged with a registered unit ('' = dimensionless)."""

    value: float
    unit: str = ""

    def __post_init__(self) -> None:
        if self.unit not in _UNIT_TABLE:
            raise UnitError(f"unknown unit {self.unit!r}")
        if not math.isfinite(self.value):
            raise UnitError(f"non-finite value {self.value!r}")

    def to_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit}

    @classmethod
    def from_dict(cls, obj: dict) -> "Quantity":
        return cls(value=obj["value"], unit=obj.get("unit", ""))


def value_in(q: Quantity, target_unit: str) -> float:
    """``q``'s value in ``target_unit``, which must share its dimension
    (UnitError otherwise). A value beyond every float in that unit is
    returned as an infinity, so that it compares as out of any range."""
    src_dim, src_factor, src_offset = _UNIT_TABLE[q.unit]
    if target_unit not in _UNIT_TABLE:
        raise UnitError(f"unknown unit {target_unit!r}")
    dst_dim, dst_factor, dst_offset = _UNIT_TABLE[target_unit]
    if src_dim != dst_dim:
        raise UnitError(
            f"incompatible units: {q.unit!r} ({src_dim}) -> {target_unit!r} ({dst_dim})"
        )
    base = q.value * src_factor + src_offset
    value = (base - dst_offset) / dst_factor
    if math.isinf(value):  # perhaps only on the way through the canonical unit
        value = q.value * (src_factor / dst_factor) + (src_offset - dst_offset) / dst_factor
    return value


def canonical_value(q: Quantity) -> float:
    """``value_in`` the canonical unit of the quantity's dimension."""
    return value_in(q, CANONICAL_UNITS[unit_dimension(q.unit)])


def canonicalize_units(q: Quantity, target_unit: str) -> Quantity:
    """Convert ``q`` to ``target_unit``; both must share a dimension, and
    the value must be finite in it (UnitError otherwise)."""
    return Quantity(value=value_in(q, target_unit), unit=target_unit)


def to_canonical(q: Quantity) -> Quantity:
    """Convert to the canonical unit of the quantity's dimension."""
    return canonicalize_units(q, CANONICAL_UNITS[unit_dimension(q.unit)])
