"""Centralized lab state: device records and event sourcing, built from a
lab config with each device's simulator section.

All mutation flows through ``apply_event``; the state itself is immutable,
so replaying a run log over the genesis state always reproduces the final
snapshot byte for byte.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType

from eaclab.canon import canonical_bytes
from eaclab.capabilities import (
    CapabilityRegistry, CapabilitySchema, finite_number, finite_quantity, json_value,
)
from eaclab.errors import IllegalTransitionError, SequenceGapError, SpecSchemaError
from eaclab.records import field, record, replace
from eaclab.units import Quantity

DEVICE_STATUSES = frozenset({"offline", "idle", "busy", "fault", "cooling", "warming"})

# Closed status-transition graph. Self-loops are always legal no-ops, and
# any status may transition to fault.
_TRANSITIONS = frozenset(
    {
        ("offline", "idle"),
        ("idle", "offline"),
        ("idle", "busy"),
        ("busy", "idle"),
        ("fault", "idle"),
        ("idle", "warming"),
        ("warming", "idle"),
        ("idle", "cooling"),
        ("cooling", "idle"),
    }
)

EVENT_KINDS = frozenset({"dispatch", "telemetry", "fault", "transition", "precheck"})


def transition_allowed(old: str, new: str) -> bool:
    return old == new or new == "fault" or (old, new) in _TRANSITIONS


@record(frozen=True)
class DeviceRecord:
    device_id: str
    capability: str
    status: str = "idle"
    observed: dict[str, Quantity] = field(default_factory=dict)
    holder: str | None = None
    last_calibrated: float = 0.0
    mode: str | None = None
    # Static attributes from the lab config (e.g. ports: 6) used by
    # binding constraints.
    attrs: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in DEVICE_STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if (self.holder is not None) != (self.status == "busy"):
            raise ValueError("holder must be set iff status is busy")

    def to_dict(self) -> dict:
        return {
            "device_id": self.device_id,
            "capability": self.capability,
            "status": self.status,
            "observed": {k: q.to_dict() for k, q in sorted(self.observed.items())},
            "holder": self.holder,
            "last_calibrated": self.last_calibrated,
            "mode": self.mode,
            "attrs": dict(sorted(self.attrs.items())),
        }


@record(frozen=True)
class StateEvent:
    seq: int
    time: float
    device_id: str
    kind: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "device_id": self.device_id,
            "kind": self.kind,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "StateEvent":
        return cls(
            seq=obj["seq"],
            time=obj["time"],
            device_id=obj["device_id"],
            kind=obj["kind"],
            payload=obj.get("payload", {}),
        )


@record(frozen=True)
class LabState:
    devices: dict[str, DeviceRecord] = field(default_factory=dict)
    clock: float = 0.0
    next_seq: int = 0  # the events folded so far, and the seq of the next


def genesis_from_lab_config(config: dict) -> LabState:
    """Build the genesis state from a lab-config document. ``devices`` must
    be a list of objects, each with an id and a capability, a device's id
    a non-empty string, its capability and status strings, its mode a
    string or null, and its ``attrs`` and ``observed`` objects; ValueError
    names the device and field if not."""
    devices: dict[str, DeviceRecord] = {}
    for index, entry in enumerate(json_value(config.get("devices", []), list, "devices")):
        where = f"devices[{index}]"
        device_id = json_value(entry, dict, where, "device_id", "capability")["device_id"]
        if not isinstance(device_id, str) or not device_id:
            raise ValueError(f"{where}.device_id must be a non-empty string, not {device_id!r}")
        if device_id in devices:
            raise SpecSchemaError("duplicate_id", device_id, "duplicate device_id")
        capability, status = entry["capability"], entry.get("status", "idle")
        mode = entry.get("mode")
        for key, value in (("capability", capability), ("status", status), ("mode", mode)):
            if not (isinstance(value, str) or key == "mode" and value is None):
                kind = "a string or null" if key == "mode" else "a string"
                raise ValueError(f"{device_id}.{key} must be {kind}, not {value!r}")
        attrs = json_value(entry.get("attrs", {}), dict, f"{device_id}.attrs")
        observed = json_value(entry.get("observed", {}), dict, f"{device_id}.observed")
        devices[device_id] = DeviceRecord(
            device_id=device_id,
            capability=capability,
            status=status,
            last_calibrated=finite_number(entry, "last_calibrated", device_id, 0.0),
            mode=mode,
            observed={
                k: finite_quantity(v, f"{device_id}.observed.{k}")
                for k, v in observed.items()
            },
            attrs={k: finite_number(attrs, k, f"{device_id}.attrs") for k in attrs},
        )
    return LabState(devices=devices)


@record(frozen=True)
class SimDeviceConfig:
    """A lab device's ``sim`` section, which ``shims.SimDevice`` runs. It is
    read with the rest of the lab, so that a command checks it without
    loading the simulator."""

    device_id: str
    capability: str
    seed: int = 0
    # concentration (mol/kg) -> conductivity (S/cm), piecewise-linear.
    conductivity_table: Mapping[float, float] = field(default_factory=dict)
    # valve port -> concentration of the vial behind it.
    port_concentrations: Mapping[int, float] = field(default_factory=dict)
    # first-order thermal ramp parameters.
    temperature_start: float = 293.0
    temperature_setpoint: float = 293.0
    temperature_tau: float = 30.0

    def __post_init__(self) -> None:
        if type(self.seed) is not int:
            raise TypeError(f"sim seed of {self.device_id} must be an integer, not {self.seed!r}")
        numbers = (
            self.temperature_start,
            self.temperature_setpoint,
            self.temperature_tau,
            *self.conductivity_table,
            *self.conductivity_table.values(),
            *self.port_concentrations.values(),
        )
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError(f"sim section of {self.device_id} has a non-finite number")
        if self.temperature_tau <= 0:
            raise ValueError(f"temperature_tau must be > 0, not {self.temperature_tau}")
        # Read-only views of private copies: one config may serve many fleets.
        for name in ("conductivity_table", "port_concentrations"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @classmethod
    def from_lab_entry(cls, entry: dict) -> "SimDeviceConfig":
        """A device entry of a lab document, which ``genesis_from_lab_config``
        has read; its ``sim`` section and tables must be objects."""
        where = f"{entry['device_id']}.sim"
        sim = json_value(entry.get("sim", {}), dict, where)
        tables = {
            name: json_value(sim.get(name, {}), dict, f"{where}.{name}")
            for name in ("conductivity_table", "port_concentrations")
        }
        return cls(
            device_id=entry["device_id"],
            capability=entry["capability"],
            seed=sim.get("seed", 0),
            conductivity_table={
                float(k): float(v) for k, v in tables["conductivity_table"].items()
            },
            port_concentrations={
                int(k): float(v) for k, v in tables["port_concentrations"].items()
            },
            temperature_start=float(sim.get("temperature_start", 293.0)),
            temperature_setpoint=float(sim.get("temperature_setpoint", 293.0)),
            temperature_tau=float(sim.get("temperature_tau", 30.0)),
        )


def apply_event(state: LabState, event: StateEvent) -> LabState:
    """Fold one event into the state; ``next_seq`` and clock always advance.

    States share their ``devices`` dict until an event changes a record,
    so the dict of a state is never mutated once the state exists.
    """
    if event.seq != state.next_seq:
        raise SequenceGapError(
            f"expected seq {state.next_seq}, got {event.seq}"
        )
    devices = state.devices
    record = devices.get(event.device_id)
    if record is None and event.device_id:
        raise SpecSchemaError("bad_value", event.device_id, "unknown device")

    changed = None
    if record is not None:
        kind = event.kind
        if kind == "telemetry":
            observed = dict(record.observed)
            for name, value in event.payload.items():
                if isinstance(value, dict) and "value" in value:
                    observed[name] = Quantity(value["value"], value.get("unit", ""))
                elif isinstance(value, (int, float)) and not isinstance(value, bool):
                    observed[name] = Quantity(float(value))
            changed = replace(record, observed=observed)
        elif kind == "transition":
            new_status = event.payload["to"]
            if new_status not in DEVICE_STATUSES:
                raise IllegalTransitionError(f"unknown status {new_status!r}")
            if not transition_allowed(record.status, new_status):
                raise IllegalTransitionError(
                    f"{record.device_id}: {record.status} -> {new_status}"
                )
            holder = event.payload.get("holder") if new_status == "busy" else None
            mode = event.payload.get("mode", record.mode)
            changed = replace(record, status=new_status, holder=holder, mode=mode)
        elif kind == "fault":
            # A fault being retried in place leaves the device operational.
            if event.payload.get("disposition") != "recover":
                changed = replace(record, status="fault", holder=None)
        # dispatch and precheck events carry provenance only; no record change.
    if changed is not None:
        devices = dict(devices)
        devices[changed.device_id] = changed

    # ``max(state.clock, event.time)``, which keeps the first of equals.
    clock = event.time if event.time > state.clock else state.clock
    return LabState(devices, clock, state.next_seq + 1)


def replay(genesis: LabState, events) -> LabState:
    state = genesis
    for event in events:
        state = apply_event(state, event)
    return state


def gate(
    record: DeviceRecord, clock: float, run_id: str | None, schema: CapabilitySchema | None
) -> tuple[str | None, str] | None:
    """The live-state gate: why ``record``'s device may not take a node at
    ``clock`` for run ``run_id``, or None if it may.

    The device must be idle or held by the run. Its calibration age must
    be within the schema's window, and its observed values must satisfy
    the schema's safety envelope; ``schema`` is None for a lifecycle node
    (connect or teardown), which is exempt from both. The reason is
    (predicate, detail), with predicate None when the device is not free,
    else ``calibration_lapsed`` or ``safety:<field>``.
    """
    if record.holder not in (None, run_id):
        return None, f"occupied by {record.holder}"
    if record.holder is None and record.status != "idle":
        return None, "device faulted" if record.status == "fault" else f"device {record.status}"
    if schema is None:
        return None
    age = clock - record.last_calibrated
    if age > schema.calibration_window:
        return "calibration_lapsed", (
            f"calibration age {age:.0f}s exceeds window {schema.calibration_window:.0f}s"
        )
    for predicate, value, threshold in schema.safety.violations(record.observed):
        return f"safety:{predicate.field}", (
            f"observed {predicate.field}={value:g} violates {predicate.comparator} {threshold:g}"
        )
    return None


def query_eligible(
    state: LabState,
    capability: str,
    constraints: dict | None,
    registry: CapabilityRegistry,
) -> list[str]:
    """Devices of a capability that satisfy constraints and pass the gate
    at the state's clock, with no run holding them, sorted by device_id.

    Constraint keys of the form ``min_<attr>`` require attrs[attr] >= value;
    any other key requires exact attribute equality.
    """
    schema = registry.get(capability)
    eligible = []
    for device_id in sorted(state.devices):
        record = state.devices[device_id]
        if record.capability != capability:
            continue
        if gate(record, state.clock, None, schema) is not None:
            continue
        if constraints and not _constraints_ok(record, constraints):
            continue
        eligible.append(device_id)
    return eligible


def _constraints_ok(record: DeviceRecord, constraints: dict) -> bool:
    for key, value in constraints.items():
        if key.startswith("min_"):
            attr = record.attrs.get(key[4:])
            if attr is None or attr < value:
                return False
        else:
            if record.attrs.get(key) != value:
                return False
    return True


def snapshot(state: LabState) -> bytes:
    """Canonical byte serialization; equal states produce identical bytes."""
    return canonical_bytes(
        {
            "clock": state.clock,
            "next_seq": state.next_seq,
            "devices": {
                device_id: record.to_dict()
                for device_id, record in sorted(state.devices.items())
            },
        }
    )
