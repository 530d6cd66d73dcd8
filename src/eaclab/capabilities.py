"""Per-device-type contracts and the capability registry.

A ``CapabilitySchema`` declares the operations a device type supports,
their parameter envelopes, clocks and wire frames, the safety envelope,
state-transition latencies, and the calibration validity window. Specs are
range-checked against these contracts before anything touches a device.
Built-in and custom device types are written alike, in the lab config's
form.
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
    integer: bool = False
    # The name of a param, in the same unit, that this one must be below.
    below: str | None = None

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
    # The wire frame as parts: literal bytes; XOR_CHECKSUM, the XOR of the
    # bytes before it; and fields (param, scale, pack, format), the param's
    # value in this operation's unit times scale, rounded and packed by the
    # struct integer code pack, or else written as text by format: "number"
    # (an integral value as an integer, any other as its repr) or an
    # integer format such as "03d", which rounds. None: the generic text frame.
    frame: tuple[bytes | str | tuple[str, float, str | None, str | None], ...] | None = None

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

    def refuse_other_dimensions(self, units: dict[str, str], where: str) -> None:
        """Raise ValueError if a field named in ``units`` (field -> unit)
        has another dimension than its condition's threshold."""
        for predicate in self.conditions:
            unit = units.get(predicate.field)
            if unit is None:
                continue
            dimension = unit_dimension(unit)
            threshold = predicate.threshold.unit
            if dimension != unit_dimension(threshold):
                raise ValueError(
                    f"{where}.{predicate.field} in {unit!r} ({dimension}) cannot be compared "
                    f"with its safety threshold in {threshold!r} ({unit_dimension(threshold)})"
                )


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
            params = {} if op.name in _LIFECYCLE_OPERATIONS else op.params
            _check_clock(op, params, where)
            if op.configure_via is not None:
                if op.configure_via not in self.operations:
                    raise ValueError(f"{where}.configure_via names no operation: "
                                     f"{op.configure_via!r}")
                # The configure node's clock and frame are evaluated on this
                # step's params, of which the configure node takes its own.
                configure = self.operations[op.configure_via]
                _check_clock(configure, op.params, f"{where}.configure_via")
                _check_frame(configure, op.params, f"{where}.configure_via")
                params = {k: p for k, p in params.items() if k not in configure.params}
            _check_frame(op, params, where)

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


def _check_frame(op: OperationSchema, params: dict[str, ParamSchema], where: str) -> None:
    """Refuse a frame field unless its param is one of ``params``, those the
    node carries, required and in ``op``'s unit; declared integer if the
    field writes it as an unscaled integer; and, if packed, with bounds that
    fit the packing."""
    for part in op.frame or ():
        if not isinstance(part, tuple):
            continue
        name, scale, pack, text = part
        at, p = f"{where}.frame field {name!r}", params.get(name)
        if p is None or p.optional or p.unit != getattr(op.params.get(name), "unit", None):
            raise ValueError(f"{at} must name a required param that the node carries")
        if text != "number" and scale == 1 and not p.integer:
            raise ValueError(f"{at} writes an integer, so the param must be declared integer")
        low, high = _PACK_RANGES.get(pack, (-math.inf, math.inf))
        if p.min * scale < low or p.max * scale > high:
            raise ValueError(f"{at}: [{p.min:g}, {p.max:g}] times {scale:g} does not fit {pack!r}")


@record(frozen=True)
class Violation:
    code: str  # out_of_range | missing_param | unknown_param | bad_unit | bad_value
    param: str
    message: str


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
    ) -> list[Violation]:
        """Range- and completeness-check params against the operation
        schema; the violations, in the schema's param order, then unknown
        params in ``params``' order. A param in range must also be integral
        if declared integer, and below the param it names in ``below``
        when that param is given.

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
            elif pschema.integer and not value.is_integer():
                violations.append(Violation("bad_value", name, f"{name!r}={value:g} is not an integer"))
            elif pschema.below in params:  # None names no param
                try:  # a bad unit there is reported there
                    bound = canonicalize_units(params[pschema.below], pschema.unit).value
                except (UnitError, KeyError):
                    continue
                if not value < bound:
                    violations.append(Violation("out_of_range", name, (
                        f"{name!r}={value:g} {pschema.unit} is not below "
                        f"{pschema.below!r}={bound:g} {pschema.unit}")))
        for name in params:
            if name not in schema.params:
                violations.append(
                    Violation("unknown_param", name, f"unknown parameter {name!r}")
                )
        return violations


# The potentiostat's EIS settings, which measure_eis sets through configure.
_EIS_PARAMS = {
    "eac": {"unit": "V", "min": 0.001, "max": 1.0},
    "freq_min": {"unit": "Hz", "min": 1.0, "max": 1e6, "below": "freq_max"},
    "freq_max": {"unit": "Hz", "min": 1.0, "max": 1e6},
    "n_freq": {"min": 1, "max": 100, "integer": True},
}

# The five built-in device types, in the lab config's ``capabilities`` form
# and parsed by ``schema_from_dict`` like any custom capability. Where a
# vendor frame is only partly known (the pump's payload and checksum, the
# relay's off code, the potentiostat's text protocol), the rest is this
# package's convention, kept decodable so it can be tested without the
# vendor's documentation.
BUILTIN_CAPABILITIES = {
    "pump": {"operations": {
        "dispense": {"params": {"flow_rate": {"unit": "mL/min", "min": 0.1, "max": 10.0},
                                "volume": {"unit": "mL", "min": 0.01, "max": 50.0}},
                     "duration_s": ["volume", "flow_rate"],
                     # E9 0E 08 is the vendor's dispense opcode.
                     "frame": [{"bytes": [0xE9, 0x0E, 0x08]},
                               {"param": "flow_rate", "scale": 1000, "pack": "<I"},
                               {"param": "volume", "scale": 1000, "pack": "<I"},
                               {"checksum": "xor"}]},
        "stop": {"idempotent": True, "frame": ["STOP\r"]},
    }},
    "valve": {"operations": {
        "set": {"params": {"dest": {"min": 1, "max": 6, "integer": True}},
                "idempotent": True, "duration_s": 2.0,
                "frame": ["G", {"param": "dest", "format": "03d"}, "\r"]},
    }},
    "balance": {"operations": {"read": {"kind": "read", "frame": ["SI\r"]},
                               "tare": {"idempotent": True, "frame": ["TARE\r"]}}},
    # An HID feature report: 00, then FF for on and FD for off, then the channel.
    "relay": {"operations": {
        "on": {"params": {"channel": {"min": 1, "max": 8, "integer": True}}, "idempotent": True,
               "frame": [{"bytes": [0x00, 0xFF]}, {"param": "channel", "pack": "B"}]},
        "off": {"params": {"channel": {"min": 1, "max": 8, "integer": True}}, "idempotent": True,
                "frame": [{"bytes": [0x00, 0xFD]}, {"param": "channel", "pack": "B"}]},
    }},
    "potentiostat": {"operations": {
        "configure": {"params": _EIS_PARAMS, "kind": "configure", "idempotent": True,
                      "frame": ["CFG eac=", {"param": "eac", "format": "number"},
                                " fmax=", {"param": "freq_max", "format": "number"},
                                " fmin=", {"param": "freq_min", "format": "number"},
                                " n=", {"param": "n_freq", "format": "d"}, "\r"]},
        # concentration is a sample annotation carried through to telemetry.
        "measure_eis": {"params": {**_EIS_PARAMS, "concentration": {
                            "unit": "mol/kg", "min": 0.0, "max": 1000.0, "optional": True}},
                        "kind": "read", "configure_via": "configure", "frame": ["MEAS\r"]},
    }},
}

# Every capability has these; one may redeclare them, and keeps their frame
# unless it declares its own. Their nodes carry no parameters, so their
# clocks must be numbers and their frames constant.
_LIFECYCLE_OPERATIONS = {
    "connect": {"kind": "connect", "idempotent": True, "frame": ["HELLO\r"]},
    "disconnect": {"kind": "disconnect", "idempotent": True, "frame": ["BYE\r"]},
}

# A frame's checksum part; each struct integer code a packed field may use
# (one byte, or a byte order and a size), with the least and the greatest
# integer it holds; a text field's formats (an integer one zero-padded, as
# spaces would not read back); and the characters a text field may write.
XOR_CHECKSUM = "xor"
_PACK_RANGES = {
    order + code: (0, 256 ** size - 1) if code.isupper() else (-(256 ** size // 2), 256 ** size // 2 - 1)
    for code, size in (("b", 1), ("B", 1), ("h", 2), ("H", 2), ("i", 4), ("I", 4), ("q", 8), ("Q", 8))
    for order in (("<", ">", "") if size == 1 else ("<", ">"))
}
_TEXT_FORMATS = frozenset({"number", "d", *(f"0{width}d" for width in range(2, 10))})
_NUMBER_CHARACTERS = "0123456789+-.e"


def finite_number(obj: dict, key: str, where: str, default: float | None = None) -> float:
    """``obj[key]``, which must be a finite JSON number, as a float."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{where}.{key} must be a finite number, not {value!r}")
    return float(value)


def finite_quantity(obj: dict, where: str) -> Quantity:
    """A lab's ``{"value", "unit"}`` object, whose value must be a finite
    JSON number (not a boolean)."""
    finite_number(obj, "value", where)
    return Quantity.from_dict(obj)


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


def _parse_frame(frame, where: str) -> tuple:
    """A lab's ``frame`` list as parts: text and ``{"bytes": [...]}`` as
    bytes, ``{"checksum": "xor"}`` as XOR_CHECKSUM and ``{"param", "scale",
    "pack" or "format"}`` as a field, whose param ``_check_frame``
    checks. A text field must end the frame or be followed by text that
    starts with a character no number holds, which is where a reader ends
    the field."""
    if not isinstance(frame, list) or not frame:
        raise ValueError(f"{where}.frame must be a non-empty list, not {frame!r}")
    parts = []
    for i, part in enumerate(frame):
        at = f"{where}.frame[{i}]"
        if parts and isinstance(parts[-1], tuple) and parts[-1][2] is None and not (
                isinstance(part, str) and part[:1] not in _NUMBER_CHARACTERS):
            raise ValueError(f"{at} follows a text field, so it must be text that starts "
                             f"with a character no number holds")
        if isinstance(part, dict) and "param" in part:
            pack, text = part.get("pack"), part.get("format")
            part = (part["param"], finite_number(part, "scale", at, 1.0), pack, text)
            if not (isinstance(part[0], str) and part[1] > 0 and (
                    text is None and isinstance(pack, str) and pack in _PACK_RANGES
                    or pack is None and isinstance(text, str) and text in _TEXT_FORMATS)):
                raise ValueError(f"{at} must name a param, with a scale > 0 and either a 'pack' "
                                 f"code such as '<I' or a 'format': 'number' or such as '03d'")
        elif part == {"checksum": XOR_CHECKSUM}:
            part = XOR_CHECKSUM
        elif isinstance(part, str) and part:
            part = part.encode("utf-8")
        elif isinstance(part, dict) and isinstance(part.get("bytes"), list) and part["bytes"] \
                and all(type(b) is int and 0 <= b <= 255 for b in part["bytes"]):
            part = bytes(part["bytes"])
        else:
            raise ValueError(f"{at} must be non-empty text, bytes 0..255, the xor checksum or "
                             f"a param field, not {part!r}")
        parts.append(part)
    return tuple(parts)


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
            integer=_flag(p, "integer", at, False),
            below=p.get("below"),
        )
    for pname, p in params.items():
        other = params.get(p.below) if isinstance(p.below, str) and p.below != pname else None
        if p.below is not None and getattr(other, "unit", None) != p.unit:
            raise ValueError(f"{where}.params.{pname}.below must name another param of the "
                             f"operation in {p.unit!r}, not {p.below!r}")
    kind = obj.get("kind", "actuate")
    frame = obj.get("frame", _LIFECYCLE_OPERATIONS.get(name, {}).get("frame"))
    if frame is not None or "frame" in obj:
        frame = _parse_frame(frame, where)
    return OperationSchema(
        name=name,
        params=params,
        kind=kind,
        idempotent=_flag(obj, "idempotent", where, kind == "read"),
        configure_via=obj.get("configure_via"),
        duration_s=_clock(obj, where),
        frame=frame,
    )


def schema_from_dict(name: str, obj: dict) -> CapabilitySchema:
    """Build a capability schema from its lab-config JSON form; a malformed
    field is a ValueError that names it, and keys not read are ignored."""
    operations = {
        op_name: _parse_operation(op_name, op_obj, f"{name}.{op_name}")
        for op_name, op_obj in {**_LIFECYCLE_OPERATIONS, **obj.get("operations", {})}.items()
    }
    safety = SafetyEnvelope(conditions=tuple(
        SafetyPredicate(
            field=c["field"],
            comparator=c["comparator"],
            threshold=finite_quantity(c["threshold"], f"{name}.safety.{c['field']}.threshold"),
        )
        for c in obj.get("safety", {}).get("conditions", [])
    ))
    for op_name, operation in operations.items():
        safety.refuse_other_dimensions(
            {pname: p.unit for pname, p in operation.params.items()}, f"{name}.{op_name}.params"
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
        safety=safety,
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
