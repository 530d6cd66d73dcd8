"""The wire-frame interpreter and the deterministic simulated device fleet.

Each operation of a capability declares its wire frame as data (see
``eaclab.capabilities``): literal bytes, param fields and an XOR checksum.
``encode_operation`` writes any declared frame, and ``decode_operation``
reads a frame back into its operation and params, so the built-in and the
custom device types are spoken to by the same code. An operation that
declares no frame is sent the generic text frame ``OP <name> <k>=<v>...``.
"""

from __future__ import annotations

import math
import random
import re
import struct
from collections.abc import Iterable

from eaclab.capabilities import (
    XOR_CHECKSUM,
    CapabilityRegistry,
    CapabilitySchema,
    OperationSchema,
    registry_from_lab_config,
    xor_checksum,
)
from eaclab.errors import FrameParseError, SimFault
from eaclab.labstate import SimDeviceConfig
from eaclab.records import record
from eaclab.units import Quantity, canonicalize_units

_BALANCE_NUMBER_RE = re.compile(r"\d+\.\d+")
# What a ``number`` text field writes (see ``_fmt_number``), and what an
# integer format's field writes.
_NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?")
_INTEGER = re.compile(rb"-?[0-9]+")
_GENERIC_FRAME = re.compile(r"OP (\S+)((?: \S+=[^ \r]+)*)\r")


@record(frozen=True)
class WireFrame:
    device_id: str
    data: bytes
    direction: str = "to_device"  # to_device | from_device

    def hex(self) -> str:
        return self.data.hex()


def parse_balance_line(line: str) -> dict:
    """Extract mass (grams) and stability from a balance report line."""
    match = _BALANCE_NUMBER_RE.search(line)
    if not match:
        raise FrameParseError(f"no mass in balance line {line!r}")
    return {"mass": float(match.group()), "stable": "?" not in line}


def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def encode_operation(
    operation: OperationSchema, params: dict[str, Quantity], device_id: str = ""
) -> WireFrame:
    """The frame that carries ``operation`` with ``params``, which the
    static check has passed, to ``device_id``."""
    if operation.frame is None:
        parts = " ".join(
            f"{name}={_fmt_number(q.value)}{(':' + q.unit) if q.unit else ''}"
            for name, q in sorted(params.items())
        )
        text = f"OP {operation.name}" + (f" {parts}" if parts else "") + "\r"
        return WireFrame(device_id=device_id, data=text.encode("utf-8"))
    data = bytearray()
    for part in operation.frame:
        if isinstance(part, bytes):
            data += part
        elif part == XOR_CHECKSUM:
            data.append(xor_checksum(data))
        else:
            name, scale, pack, text = part
            value = canonicalize_units(params[name], operation.params[name].unit).value * scale
            if pack is not None:
                data += struct.pack(pack, round(value))
            elif text == "number":
                data += _fmt_number(value).encode("ascii")
            else:
                data += format(round(value), text).encode("ascii")
    return WireFrame(device_id=device_id, data=bytes(data))


def _decode_frame(frame: tuple, data: bytes) -> dict | None:
    """The params of ``data`` if it is written in ``frame``, else None. A
    text field ends where its number does: the parser lets only the end of
    the frame or text that no number starts with follow one."""
    params, at = {}, 0
    for part in frame:
        if isinstance(part, bytes):
            if not data.startswith(part, at):
                return None
            at += len(part)
        elif part == XOR_CHECKSUM:
            if at == len(data) or data[at] != xor_checksum(data[:at]):
                return None
            at += 1
        else:
            name, scale, pack, text = part
            if pack is not None:
                end = at + struct.calcsize(pack)
                if end > len(data):
                    return None
                value = struct.unpack(pack, data[at:end])[0]
            else:
                match = (_NUMBER if text == "number" else _INTEGER).match(data, at)
                if match is None:
                    return None
                end = match.end()
                value = float(match.group()) if text == "number" else int(match.group())
            params[name] = value if scale == 1 else value / scale
            at = end
    return params if at == len(data) else None


def decode_operation(capability: CapabilitySchema, frame: WireFrame) -> tuple[str, dict]:
    """Inverse of ``encode_operation``: the operation of ``capability`` that
    ``frame`` is written in, and its params as numbers in the operation's
    units (as sent, for the generic text frame)."""
    data = frame.data
    for operation in capability.operations.values():
        if operation.frame is not None:
            params = _decode_frame(operation.frame, data)
            if params is not None:
                return operation.name, params
    match = _GENERIC_FRAME.fullmatch(data.decode("utf-8", errors="replace"))
    operation = capability.operations.get(match.group(1)) if match else None
    if operation is None or operation.frame is not None:
        raise FrameParseError(f"no {capability.capability} operation is sent as {data!r}")
    params = {}
    for token in match.group(2).split():
        name, value = token.split("=", 1)
        params[name] = float(value.split(":")[0])
    return operation.name, params


def interpolate_conductivity(table: dict[float, float], concentration: float) -> float:
    """Piecewise-linear lookup with flat extrapolation beyond the table."""
    if not table:
        raise SimFault("device_error", "no conductivity table configured")
    points = sorted(table.items())
    if concentration <= points[0][0]:
        return points[0][1]
    if concentration >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= concentration <= x1:
            return y0 + (y1 - y0) * (concentration - x0) / (x1 - x0)
    raise AssertionError("unreachable")


@record
class SimResult:
    replies: list[WireFrame]
    telemetry: dict[str, float]


class SimDevice:
    """One deterministic simulated instrument. It keeps no clock: a node
    ends when its operation's declared clock says."""

    def __init__(self, config: SimDeviceConfig, seed: int = 0):
        self.config = config
        self.rng = random.Random(config.seed + seed)
        self.power_on_time = 0.0

    def temperature_at(self, now: float) -> float:
        cfg = self.config
        dt = max(0.0, now - self.power_on_time)
        return cfg.temperature_setpoint + (
            cfg.temperature_start - cfg.temperature_setpoint
        ) * math.exp(-dt / cfg.temperature_tau)

    def step(self, frame: WireFrame, now: float, fleet: "SimFleet") -> SimResult:
        cfg = self.config
        operation, params = fleet.decode(cfg.capability, frame)
        telemetry: dict[str, float] = {}
        replies = [WireFrame(cfg.device_id, b"OK\r", "from_device")]

        if operation == "connect":
            self.power_on_time = now
        elif cfg.capability == "pump" and operation == "dispense":
            if not fleet.selection_queue:
                raise SimFault("no_liquid_detected", "no source selected before dispense")
            fleet.cell_queue.append(fleet.selection_queue.pop(0))
            telemetry["dispensed_volume"] = params["volume"]
        elif cfg.capability == "valve" and operation == "set":
            port = int(params["dest"])
            fleet.selected_port = port
            fleet.selection_queue.append(cfg.port_concentrations.get(port))
            telemetry["dest"] = float(port)
        elif cfg.capability == "balance" and operation == "read":
            mass = 10.0 + 5.0 * self.rng.random()
            line = f"  {mass:.3f} g"
            replies.append(WireFrame(cfg.device_id, line.encode(), "from_device"))
            telemetry.update(parse_balance_line(line))
            telemetry["stable"] = float(telemetry.pop("stable"))
        elif cfg.capability == "potentiostat" and operation == "measure_eis":
            if not fleet.cell_queue:
                raise SimFault("device_error", "measurement cell is empty")
            concentration = fleet.cell_queue.pop(0)
            if concentration is None:
                raise SimFault("device_error", "cell filled from an unmapped port")
            telemetry["conductivity"] = interpolate_conductivity(
                cfg.conductivity_table, concentration
            )
            telemetry["concentration"] = concentration
            telemetry["temperature"] = self.temperature_at(now)

        return SimResult(replies=replies, telemetry=telemetry)


class SimFleet:
    """The simulated lab: devices plus the shared fluid path between them."""

    def __init__(
        self, configs: Iterable[SimDeviceConfig], registry: CapabilityRegistry, seed: int = 0
    ):
        """Each device's generator is seeded with its config's seed + ``seed``;
        frames are read by the operations ``registry`` declares."""
        self.devices = {c.device_id: SimDevice(c, seed) for c in configs}
        self.registry = registry
        self.selected_port: int | None = None
        # Fluid path is a pipeline: valve selections queue up for the pump,
        # dispensed aliquots queue up for the measurement cell.
        self.selection_queue: list[float | None] = []
        self.cell_queue: list[float | None] = []
        # The decoding of each distinct frame a capability is sent. Devices
        # only read the params dict, so its callers share it.
        self.decoded: dict[tuple[str, bytes], tuple[str, dict]] = {}

    @classmethod
    def from_lab_config(cls, config: dict) -> "SimFleet":
        return cls(
            [SimDeviceConfig.from_lab_entry(e) for e in config.get("devices", [])],
            registry_from_lab_config(config),
        )

    def decode(self, capability: str, frame: WireFrame) -> tuple[str, dict]:
        """``frame`` decoded by ``capability``'s operations, once per fleet."""
        key = (capability, frame.data)
        decoded = self.decoded.get(key)
        if decoded is None:
            decoded = self.decoded[key] = decode_operation(self.registry.get(capability), frame)
        return decoded

    def step(self, device_id: str, frame: WireFrame, now: float) -> SimResult:
        return self.devices[device_id].step(frame, now, self)
