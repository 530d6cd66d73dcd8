"""Per-device-type contracts and the capability registry.

A ``CapabilitySchema`` declares the operations a device type supports,
their parameter envelopes, the safety envelope, state-transition
latencies, and the calibration validity window. Specs are range-checked
against these contracts before anything touches a device.
"""

from __future__ import annotations

import operator

from eaclab.errors import (
    DuplicateCapabilityError,
    UnknownCapabilityError,
    UnknownOperationError,
    UnitError,
)
from eaclab.records import field, record
from eaclab.units import Quantity, canonicalize_units

# Calibration validity window for every built-in device type, in simulated
# seconds. Short on purpose: desk-scale runs, not annual service cycles.
DEFAULT_CALIBRATION_WINDOW_S = 30 * 24 * 3600

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

    def __post_init__(self) -> None:
        if self.kind not in OPERATION_KINDS:
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind == "read" and not self.idempotent:
            raise ValueError("read operations must be idempotent")


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

    def operation(self, name: str) -> OperationSchema:
        try:
            return self.operations[name]
        except KeyError:
            raise UnknownOperationError(
                f"{self.capability} has no operation {name!r}"
            ) from None


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

    def names(self) -> list[str]:
        return sorted(self._schemas)

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


def _lifecycle_ops() -> dict[str, OperationSchema]:
    return {
        "connect": OperationSchema("connect", kind="connect", idempotent=True),
        "disconnect": OperationSchema("disconnect", kind="disconnect", idempotent=True),
    }


def builtin_registry() -> CapabilityRegistry:
    """Registry preloaded with the five built-in device types."""
    registry = CapabilityRegistry()

    registry.register(
        CapabilitySchema(
            capability="pump",
            operations={
                **_lifecycle_ops(),
                "dispense": OperationSchema(
                    "dispense",
                    params={
                        "flow_rate": ParamSchema("mL/min", 0.1, 10.0),
                        "volume": ParamSchema("mL", 0.01, 50.0),
                    },
                    kind="actuate",
                    idempotent=False,
                ),
                "stop": OperationSchema("stop", kind="actuate", idempotent=True),
            },
        )
    )
    registry.register(
        CapabilitySchema(
            capability="valve",
            operations={
                **_lifecycle_ops(),
                "set": OperationSchema(
                    "set",
                    params={"dest": ParamSchema("", 1, 6)},
                    kind="actuate",
                    idempotent=True,
                ),
            },
        )
    )
    registry.register(
        CapabilitySchema(
            capability="balance",
            operations={
                **_lifecycle_ops(),
                "read": OperationSchema("read", kind="read", idempotent=True),
                "tare": OperationSchema("tare", kind="actuate", idempotent=True),
            },
        )
    )
    registry.register(
        CapabilitySchema(
            capability="relay",
            operations={
                **_lifecycle_ops(),
                "on": OperationSchema(
                    "on",
                    params={"channel": ParamSchema("", 1, 8)},
                    kind="actuate",
                    idempotent=True,
                ),
                "off": OperationSchema(
                    "off",
                    params={"channel": ParamSchema("", 1, 8)},
                    kind="actuate",
                    idempotent=True,
                ),
            },
        )
    )
    pstat_params = {
        "eac": ParamSchema("V", 0.001, 1.0),
        "freq_min": ParamSchema("Hz", 1.0, 1e6),
        "freq_max": ParamSchema("Hz", 1.0, 1e6),
        "n_freq": ParamSchema("", 1, 100),
    }
    registry.register(
        CapabilitySchema(
            capability="potentiostat",
            operations={
                **_lifecycle_ops(),
                "configure": OperationSchema(
                    "configure", params=dict(pstat_params), kind="configure",
                    idempotent=True,
                ),
                "measure_eis": OperationSchema(
                    "measure_eis",
                    params={
                        **pstat_params,
                        # Sample annotation carried through to telemetry.
                        "concentration": ParamSchema("mol/kg", 0.0, 1000.0, optional=True),
                    },
                    kind="read",
                    idempotent=True,
                    configure_via="configure",
                ),
            },
        )
    )
    return registry


def _parse_operation(name: str, obj: dict) -> OperationSchema:
    params = {
        pname: ParamSchema(
            unit=p.get("unit", ""),
            min=float(p["min"]),
            max=float(p["max"]),
            optional=bool(p.get("optional", False)),
        )
        for pname, p in obj.get("params", {}).items()
    }
    return OperationSchema(
        name=name,
        params=params,
        kind=obj.get("kind", "actuate"),
        idempotent=bool(obj.get("idempotent", obj.get("kind") == "read")),
        configure_via=obj.get("configure_via"),
    )


def schema_from_dict(name: str, obj: dict) -> CapabilitySchema:
    """Build a capability schema from its lab-config JSON form."""
    operations = {**_lifecycle_ops()}
    for op_name, op_obj in obj.get("operations", {}).items():
        operations[op_name] = _parse_operation(op_name, op_obj)
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
    reconfigure = {
        tuple(key.split("->", 1)): float(value)
        for key, value in trans_obj.get("reconfigure", {}).items()
    }
    return CapabilitySchema(
        capability=name,
        operations=operations,
        safety=SafetyEnvelope(conditions=conditions),
        transitions=TransitionLatency(
            warmup=float(trans_obj.get("warmup", 0.0)),
            cooldown=float(trans_obj.get("cooldown", 0.0)),
            reconfigure=reconfigure,
        ),
        calibration_window=float(
            obj.get("calibration_window", DEFAULT_CALIBRATION_WINDOW_S)
        ),
    )


def registry_from_lab_config(config: dict) -> CapabilityRegistry:
    """Built-in fleet plus any custom capabilities from a lab config."""
    registry = builtin_registry()
    for name, obj in config.get("capabilities", {}).items():
        registry.register(schema_from_dict(name, obj))
    return registry
