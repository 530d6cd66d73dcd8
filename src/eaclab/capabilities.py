"""Per-device-type contracts and the capability registry.

A ``CapabilitySchema`` declares the operations a device type supports,
their parameter envelopes and clocks, the safety envelope, state-transition
latencies, and the calibration validity window. Specs are range-checked
against these contracts before anything touches a device. Built-in and
custom device types are written alike, in the lab config's form.
"""

from __future__ import annotations

import math
import operator

from eaclab.errors import (
    DuplicateCapabilityError,
    UnknownCapabilityError,
    UnknownOperationError,
    UnitError,
)
from eaclab.records import field, record
from eaclab.units import Quantity, canonicalize_units, known_units, to_canonical, unit_dimension

# Calibration validity window for every built-in device type, in simulated
# seconds. Short on purpose: desk-scale runs, not annual service cycles.
DEFAULT_CALIBRATION_WINDOW_S = 30 * 24 * 3600

# The clock of an operation whose schema declares no ``duration_s``.
DEFAULT_DURATION_S = 1.0

OPERATION_KINDS = frozenset({"configure", "actuate", "read", "connect", "disconnect"})


@record(frozen=True)
class ParamSchema:
    unit: str
    min: float
    max: float
    optional: bool = False

    def __post_init__(self) -> None:
        if self.min > self.max:
            raise ValueError(f"min {self.min} > max {self.max}")


@record(frozen=True)
class OperationSchema:
    name: str
    params: dict[str, ParamSchema] = field(default_factory=dict)
    kind: str = "actuate"
    idempotent: bool = False
    # Name of a companion configure op the compiler must emit before this
    # one, consuming the matching subset of the step's params.
    configure_via: str | None = None
    # Seconds, or the names of two params whose canonical values divide
    # to seconds (volume / flow_rate).
    duration_s: float | tuple[str, str] = DEFAULT_DURATION_S

    def __post_init__(self) -> None:
        if self.kind not in OPERATION_KINDS:
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind == "read" and not self.idempotent:
            raise ValueError("read operations must be idempotent")

    def duration(self, params: dict[str, Quantity]) -> float:
        """The operation's clock in seconds; ``params`` are canonical."""
        if isinstance(self.duration_s, tuple):
            numerator, denominator = self.duration_s
            return params[numerator].value / params[denominator].value
        return self.duration_s


COMPARATORS = {
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
    "==": operator.eq,
}


@record(frozen=True)
class SafetyPredicate:
    field: str
    comparator: str  # one of COMPARATORS
    threshold: Quantity

    def __post_init__(self) -> None:
        if self.comparator not in COMPARATORS:
            raise ValueError(
                f"unknown safety comparator {self.comparator!r} for {self.field}"
            )

    def holds(self, commanded: float, threshold: float) -> bool:
        """Whether a value, in canonical units, satisfies the predicate."""
        return COMPARATORS[self.comparator](commanded, threshold)


@record(frozen=True)
class SafetyEnvelope:
    conditions: tuple[SafetyPredicate, ...] = ()

    def violations(self, values: dict[str, Quantity]):
        """(predicate, value, threshold) of each condition that ``values``
        break, value and threshold in canonical units; a condition on a
        field ``values`` lacks is not checked."""
        for predicate in self.conditions:
            quantity = values.get(predicate.field)
            if quantity is None:
                continue
            value = to_canonical(quantity).value
            threshold = to_canonical(predicate.threshold).value
            if not predicate.holds(value, threshold):
                yield predicate, value, threshold


@record(frozen=True)
class TransitionLatency:
    warmup: float = 0.0
    cooldown: float = 0.0
    reconfigure: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.warmup < 0 or self.cooldown < 0:
            raise ValueError("latencies must be >= 0")
        for value in self.reconfigure.values():
            if value < 0:
                raise ValueError("latencies must be >= 0")

    def cost(self, old_mode: str | None, new_mode: str | None) -> float:
        """Latency charged when a device switches between compatibility modes."""
        if new_mode is None or old_mode == new_mode:
            return 0.0
        if old_mode is not None and (old_mode, new_mode) in self.reconfigure:
            return self.reconfigure[(old_mode, new_mode)]
        return self.warmup + self.cooldown


@record(frozen=True)
class CapabilitySchema:
    capability: str
    operations: dict[str, OperationSchema]
    safety: SafetyEnvelope = SafetyEnvelope()
    transitions: TransitionLatency = TransitionLatency()
    calibration_window: float = DEFAULT_CALIBRATION_WINDOW_S

    def __post_init__(self) -> None:
        for op in self.operations.values():
            where = f"{self.capability}.{op.name}"
            # Lifecycle nodes carry no params.
            _check_clock(op, {} if op.name in _LIFECYCLE_OPERATIONS else op.params, where)
            if op.configure_via is not None:
                if op.configure_via not in self.operations:
                    raise ValueError(f"{where}.configure_via names no operation: "
                                     f"{op.configure_via!r}")
                # The configure node's clock is evaluated on this step's params.
                _check_clock(self.operations[op.configure_via], op.params,
                             f"{where}.configure_via")

    def operation(self, name: str) -> OperationSchema:
        try:
            return self.operations[name]
        except KeyError:
            raise UnknownOperationError(
                f"{self.capability} has no operation {name!r}"
            ) from None


# The (numerator, denominator) dimensions whose canonical values divide to
# seconds: m^3 / (m^3/s), s / 1 and 1 / Hz.
_CLOCK_DIMENSIONS = frozenset({
    ("volume", "flow"), ("time", "dimensionless"), ("dimensionless", "frequency"),
})


def _check_clock(op: OperationSchema, params: dict[str, ParamSchema], where: str) -> None:
    """Refuse a ratio clock unless it names two required ``params``, the
    numerator with ``min`` >= 0 and the denominator with ``min`` > 0, so a
    range-checked step never gives a negative clock or divides by zero, and
    unless their units divide to a time."""
    if isinstance(op.duration_s, tuple):
        numerator, denominator = (params.get(name) for name in op.duration_s)
        if (numerator is None or denominator is None or len(set(op.duration_s)) < 2
                or numerator.optional or denominator.optional
                or numerator.min < 0 or denominator.min <= 0):
            raise ValueError(
                f"{where}.duration_s {list(op.duration_s)} must name two required "
                f"params, the first with min >= 0 and the second with min > 0"
            )
        dimensions = (unit_dimension(numerator.unit), unit_dimension(denominator.unit))
        if dimensions not in _CLOCK_DIMENSIONS:
            raise ValueError(
                f"{where}.duration_s {list(op.duration_s)} must divide to a time "
                f"(volume/flow, time/dimensionless or dimensionless/frequency), "
                f"not {dimensions[0]}/{dimensions[1]}"
            )


@record(frozen=True)
class Violation:
    code: str  # out_of_range | missing_param | unknown_param | bad_unit
    param: str
    message: str


@record(frozen=True)
class ValidationReport:
    capability: str
    operation: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class CapabilityRegistry:
    """Write-once-per-name store of capability schemas."""

    def __init__(self) -> None:
        self._schemas: dict[str, CapabilitySchema] = {}
        self._frozen = False

    def freeze(self) -> "CapabilityRegistry":
        """Refuse every later ``register``, so the registry can be shared."""
        self._frozen = True
        return self

    def register(self, schema: CapabilitySchema) -> None:
        if self._frozen:
            raise TypeError(f"registry is frozen; cannot register {schema.capability!r}")
        if schema.capability in self._schemas:
            raise DuplicateCapabilityError(schema.capability)
        self._schemas[schema.capability] = schema

    def get(self, capability: str) -> CapabilitySchema:
        try:
            return self._schemas[capability]
        except KeyError:
            raise UnknownCapabilityError(capability) from None

    def __contains__(self, capability: str) -> bool:
        return capability in self._schemas

    def check_param_ranges(
        self, capability: str, op: str, params: dict[str, Quantity]
    ) -> ValidationReport:
        """Range- and completeness-check params against the operation schema.

        Values are canonicalized to the declared unit before comparison, so
        any dimensionally identical restatement passes or fails identically.
        """
        schema = self.get(capability).operation(op)
        violations: list[Violation] = []
        for name, pschema in schema.params.items():
            if name not in params:
                if not pschema.optional:
                    violations.append(
                        Violation("missing_param", name, f"missing parameter {name!r}")
                    )
                continue
            q = params[name]
            try:  # raises on an unknown unit or a dimension mismatch
                value = canonicalize_units(q, pschema.unit).value
            except (UnitError, KeyError):
                violations.append(
                    Violation(
                        "bad_unit",
                        name,
                        f"{name!r}: unit {q.unit!r} incompatible with {pschema.unit!r}",
                    )
                )
                continue
            if not (pschema.min <= value <= pschema.max):
                violations.append(
                    Violation(
                        "out_of_range",
                        name,
                        f"{name!r}={value:g} {pschema.unit} outside "
                        f"[{pschema.min:g}, {pschema.max:g}]",
                    )
                )
        for name in params:
            if name not in schema.params:
                violations.append(
                    Violation("unknown_param", name, f"unknown parameter {name!r}")
                )
        return ValidationReport(
            capability=capability, operation=op, violations=tuple(violations)
        )


# The potentiostat's EIS settings, which measure_eis sets through configure.
_EIS_PARAMS = {
    "eac": {"unit": "V", "min": 0.001, "max": 1.0},
    "freq_min": {"unit": "Hz", "min": 1.0, "max": 1e6},
    "freq_max": {"unit": "Hz", "min": 1.0, "max": 1e6},
    "n_freq": {"min": 1, "max": 100},
}

# The five built-in device types, in the lab config's ``capabilities`` form
# and parsed by ``schema_from_dict`` like any custom capability.
BUILTIN_CAPABILITIES = {
    "pump": {"operations": {
        "dispense": {"params": {"flow_rate": {"unit": "mL/min", "min": 0.1, "max": 10.0},
                                "volume": {"unit": "mL", "min": 0.01, "max": 50.0}},
                     "duration_s": ["volume", "flow_rate"]},
        "stop": {"idempotent": True},
    }},
    "valve": {"operations": {
        "set": {"params": {"dest": {"min": 1, "max": 6}}, "idempotent": True, "duration_s": 2.0},
    }},
    "balance": {"operations": {"read": {"kind": "read"}, "tare": {"idempotent": True}}},
    "relay": {"operations": {
        "on": {"params": {"channel": {"min": 1, "max": 8}}, "idempotent": True},
        "off": {"params": {"channel": {"min": 1, "max": 8}}, "idempotent": True},
    }},
    "potentiostat": {"operations": {
        "configure": {"params": _EIS_PARAMS, "kind": "configure", "idempotent": True},
        # concentration is a sample annotation carried through to telemetry.
        "measure_eis": {"params": {**_EIS_PARAMS, "concentration": {
                            "unit": "mol/kg", "min": 0.0, "max": 1000.0, "optional": True}},
                        "kind": "read", "configure_via": "configure"},
    }},
}

# Every capability has these; one may redeclare them. Their nodes carry no
# parameters, so their clocks must be numbers.
_LIFECYCLE_OPERATIONS = {
    "connect": {"kind": "connect", "idempotent": True},
    "disconnect": {"kind": "disconnect", "idempotent": True},
}


def finite_number(obj: dict, key: str, where: str, default: float | None = None) -> float:
    """``obj[key]``, which must be a finite JSON number, as a float."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{where}.{key} must be a finite number, not {value!r}")
    return float(value)


def _flag(obj: dict, key: str, where: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{where}.{key} must be true or false, not {value!r}")
    return value


def _clock(obj: dict, where: str) -> float | tuple[str, str]:
    value = obj.get("duration_s", DEFAULT_DURATION_S)
    if isinstance(value, list) and len(value) == 2 and all(isinstance(n, str) for n in value):
        return tuple(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise ValueError(f"{where}.duration_s must be seconds >= 0 or [numerator, "
                         f"denominator] parameter names, not {value!r}")
    return float(value)


def _parse_operation(name: str, obj: dict, where: str) -> OperationSchema:
    params = {}
    for pname, p in obj.get("params", {}).items():
        at = f"{where}.params.{pname}"
        unit = p.get("unit", "")
        if not isinstance(unit, str) or unit not in known_units():
            raise ValueError(f"{at}.unit must name a unit of the unit table, not {unit!r}")
        params[pname] = ParamSchema(
            unit=unit,
            min=finite_number(p, "min", at),
            max=finite_number(p, "max", at),
            optional=_flag(p, "optional", at, False),
        )
    kind = obj.get("kind", "actuate")
    return OperationSchema(
        name=name,
        params=params,
        kind=kind,
        idempotent=_flag(obj, "idempotent", where, kind == "read"),
        configure_via=obj.get("configure_via"),
        duration_s=_clock(obj, where),
    )


def schema_from_dict(name: str, obj: dict) -> CapabilitySchema:
    """Build a capability schema from its lab-config JSON form; a malformed
    field is a ValueError that names it, and keys not read are ignored."""
    operations = {
        op_name: _parse_operation(op_name, op_obj, f"{name}.{op_name}")
        for op_name, op_obj in {**_LIFECYCLE_OPERATIONS, **obj.get("operations", {})}.items()
    }
    safety_obj = obj.get("safety", {})
    conditions = tuple(
        SafetyPredicate(
            field=c["field"],
            comparator=c["comparator"],
            threshold=Quantity.from_dict(c["threshold"]),
        )
        for c in safety_obj.get("conditions", [])
    )
    trans_obj = obj.get("transitions", {})
    where = f"{name}.transitions"
    latencies = trans_obj.get("reconfigure", {})
    reconfigure = {}
    for key in latencies:
        old, arrow, new = key.partition("->")
        if not (old and arrow and new):
            raise ValueError(f"{where}.reconfigure key {key!r} must read '<from>-><to>'")
        reconfigure[old, new] = finite_number(latencies, key, f"{where}.reconfigure")
    window = finite_number(obj, "calibration_window", name, DEFAULT_CALIBRATION_WINDOW_S)
    if window <= 0:
        raise ValueError(f"{name}.calibration_window must be > 0, not {window!r}")
    return CapabilitySchema(
        capability=name,
        operations=operations,
        safety=SafetyEnvelope(conditions=conditions),
        transitions=TransitionLatency(
            warmup=finite_number(trans_obj, "warmup", where, 0.0),
            cooldown=finite_number(trans_obj, "cooldown", where, 0.0),
            reconfigure=reconfigure,
        ),
        calibration_window=window,
    )


def builtin_registry() -> CapabilityRegistry:
    """Registry of the five built-in device types."""
    return registry_from_lab_config({})


def registry_from_lab_config(config: dict) -> CapabilityRegistry:
    """Built-in fleet plus any custom capabilities from a lab config."""
    registry = CapabilityRegistry()
    for capabilities in (BUILTIN_CAPABILITIES, config.get("capabilities", {})):
        for name, obj in capabilities.items():
            registry.register(schema_from_dict(name, obj))
    return registry
