"""Wire-level codecs and the deterministic simulated device fleet.

Codecs translate unified operations into the byte frames each vendor
protocol expects. Where a vendor frame is only partially known (pump
payload, relay off-code, potentiostat text protocol), the completion is a
documented in-house convention kept round-trip decodable so it stays
testable without vendor documentation.
"""

from __future__ import annotations

import math
import random
import re
import struct
from collections.abc import Iterable

from eaclab.errors import FrameParseError, RangeError, SimFault
from eaclab.labstate import SimDeviceConfig
from eaclab.records import record
from eaclab.units import Quantity, canonicalize_units

PUMP_DISPENSE_PREFIX = bytes([0xE9, 0x0E, 0x08])
_RELAY_ON = 0xFF
_RELAY_OFF = 0xFD
_BALANCE_NUMBER_RE = re.compile(r"\d+\.\d+")

# Generic session frames shared by every capability's codec.
CONNECT_FRAME = b"HELLO\r"
DISCONNECT_FRAME = b"BYE\r"
MEASURE_FRAME = b"MEAS\r"
STOP_FRAME = b"STOP\r"
TARE_FRAME = b"TARE\r"
READ_FRAME = b"SI\r"


@record(frozen=True)
class WireFrame:
    device_id: str
    data: bytes
    direction: str = "to_device"  # to_device | from_device

    def __post_init__(self) -> None:
        if not self.data:
            raise RangeError("empty wire frame")
        if self.direction not in ("to_device", "from_device"):
            raise RangeError(f"bad direction {self.direction!r}")

    def hex(self) -> str:
        return self.data.hex()


def _xor_checksum(payload: bytes) -> int:
    value = 0
    for b in payload:
        value ^= b
    return value


def encode_pump_dispense(flow_rate: float, volume: float, device_id: str = "") -> WireFrame:
    """flow_rate in mL/min, volume in mL.

    Frame: E9 0E 08 | u32le(flow*1000) | u32le(volume*1000) | xor checksum
    over all preceding bytes. The three-byte prefix is the vendor opcode;
    payload and checksum are this package's convention.
    """
    if not (0.1 <= flow_rate <= 10.0):
        raise RangeError(f"flow_rate {flow_rate} outside [0.1, 10] mL/min")
    if not (0.01 <= volume <= 50.0):
        raise RangeError(f"volume {volume} outside [0.01, 50] mL")
    body = PUMP_DISPENSE_PREFIX + struct.pack(
        "<II", round(flow_rate * 1000), round(volume * 1000)
    )
    return WireFrame(device_id=device_id, data=body + bytes([_xor_checksum(body)]))


def decode_pump_dispense(frame: WireFrame) -> tuple[float, float]:
    data = frame.data
    if len(data) != 12 or data[:3] != PUMP_DISPENSE_PREFIX:
        raise FrameParseError("not a pump dispense frame")
    if data[11] != _xor_checksum(data[:11]):
        raise FrameParseError("pump frame checksum mismatch")
    flow_milli, volume_milli = struct.unpack("<II", data[3:11])
    return flow_milli / 1000.0, volume_milli / 1000.0


def encode_valve_set(dest: int, device_id: str = "", ports: int = 6) -> WireFrame:
    """ASCII frame G + zero-padded three-digit port + carriage return."""
    if not isinstance(dest, int) or not (1 <= dest <= ports):
        raise RangeError(f"dest {dest} outside 1..{ports}")
    return WireFrame(device_id=device_id, data=b"G%03d\r" % dest)


def decode_valve_set(frame: WireFrame) -> int:
    match = re.fullmatch(rb"G(\d{3})\r", frame.data)
    if not match:
        raise FrameParseError("not a valve set frame")
    return int(match.group(1))


def parse_balance_line(line: str) -> dict:
    """Extract mass (grams) and stability from a balance report line."""
    match = _BALANCE_NUMBER_RE.search(line)
    if not match:
        raise FrameParseError(f"no mass in balance line {line!r}")
    return {"mass": float(match.group()), "stable": "?" not in line}


def encode_relay(channel: int, on: bool, device_id: str = "") -> WireFrame:
    """HID feature report [0x00, code, channel]; on=FF, off=FD."""
    if not isinstance(channel, int) or not (1 <= channel <= 8):
        raise RangeError(f"channel {channel} outside 1..8")
    code = _RELAY_ON if on else _RELAY_OFF
    return WireFrame(device_id=device_id, data=bytes([0x00, code, channel]))


def decode_relay(frame: WireFrame) -> tuple[int, bool]:
    data = frame.data
    if len(data) != 3 or data[0] != 0x00 or data[1] not in (_RELAY_ON, _RELAY_OFF):
        raise FrameParseError("not a relay frame")
    return data[2], data[1] == _RELAY_ON


def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def configure_potentiostat(
    eac: float, freq_min: float, freq_max: float, n_freq: int, device_id: str = ""
) -> WireFrame:
    """Key-sorted text frame: CFG eac=<v> fmax=<v> fmin=<v> n=<v>\\r."""
    if not (0.001 <= eac <= 1.0):
        raise RangeError(f"eac {eac} outside [0.001, 1.0] V")
    if not (1 <= freq_min < freq_max <= 1e6):
        raise RangeError(f"bad frequency window [{freq_min}, {freq_max}]")
    if not (1 <= n_freq <= 100):
        raise RangeError(f"n_freq {n_freq} outside 1..100")
    text = (
        f"CFG eac={_fmt_number(eac)} fmax={_fmt_number(freq_max)} "
        f"fmin={_fmt_number(freq_min)} n={int(n_freq)}\r"
    )
    return WireFrame(device_id=device_id, data=text.encode("ascii"))


def decode_potentiostat_config(frame: WireFrame) -> dict:
    text = frame.data.decode("ascii", errors="replace")
    match = re.fullmatch(
        r"CFG eac=(\S+) fmax=(\S+) fmin=(\S+) n=(\d+)\r", text
    )
    if not match:
        raise FrameParseError(f"not a potentiostat config frame: {text!r}")
    return {
        "eac": float(match.group(1)),
        "freq_max": float(match.group(2)),
        "freq_min": float(match.group(3)),
        "n_freq": int(match.group(4)),
    }


def _q(params: dict[str, Quantity], name: str, unit: str) -> float:
    return canonicalize_units(params[name], unit).value


def encode_operation(
    capability: str, operation: str, params: dict[str, Quantity], device_id: str = ""
) -> WireFrame:
    """Unified operation -> vendor frame for every built-in capability."""
    if operation == "connect":
        return WireFrame(device_id=device_id, data=CONNECT_FRAME)
    if operation == "disconnect":
        return WireFrame(device_id=device_id, data=DISCONNECT_FRAME)
    if capability == "pump":
        if operation == "dispense":
            return encode_pump_dispense(
                _q(params, "flow_rate", "mL/min"), _q(params, "volume", "mL"), device_id
            )
        if operation == "stop":
            return WireFrame(device_id=device_id, data=STOP_FRAME)
    if capability == "valve" and operation == "set":
        return encode_valve_set(int(_q(params, "dest", "")), device_id)
    if capability == "balance":
        if operation == "read":
            return WireFrame(device_id=device_id, data=READ_FRAME)
        if operation == "tare":
            return WireFrame(device_id=device_id, data=TARE_FRAME)
    if capability == "relay" and operation in ("on", "off"):
        return encode_relay(int(_q(params, "channel", "")), operation == "on", device_id)
    if capability == "potentiostat":
        if operation == "configure":
            return configure_potentiostat(
                _q(params, "eac", "V"),
                _q(params, "freq_min", "Hz"),
                _q(params, "freq_max", "Hz"),
                int(_q(params, "n_freq", "")),
                device_id,
            )
        if operation == "measure_eis":
            return WireFrame(device_id=device_id, data=MEASURE_FRAME)
    # Custom capabilities: canonical text frame, round-trip decodable.
    parts = " ".join(
        f"{name}={_fmt_number(q.value)}{(':' + q.unit) if q.unit else ''}"
        for name, q in sorted(params.items())
    )
    text = f"OP {operation}" + (f" {parts}" if parts else "") + "\r"
    return WireFrame(device_id=device_id, data=text.encode("utf-8"))


def decode_operation(capability: str, frame: WireFrame) -> tuple[str, dict]:
    """Inverse of ``encode_operation``; returns (operation, params-as-floats)."""
    data = frame.data
    if data == CONNECT_FRAME:
        return "connect", {}
    if data == DISCONNECT_FRAME:
        return "disconnect", {}
    if capability == "pump":
        if data == STOP_FRAME:
            return "stop", {}
        flow, volume = decode_pump_dispense(frame)
        return "dispense", {"flow_rate": flow, "volume": volume}
    if capability == "valve":
        return "set", {"dest": decode_valve_set(frame)}
    if capability == "balance":
        if data == READ_FRAME:
            return "read", {}
        if data == TARE_FRAME:
            return "tare", {}
        raise FrameParseError("unknown balance frame")
    if capability == "relay":
        channel, on = decode_relay(frame)
        return ("on" if on else "off"), {"channel": channel}
    if capability == "potentiostat":
        if data == MEASURE_FRAME:
            return "measure_eis", {}
        return "configure", decode_potentiostat_config(frame)
    text = data.decode("utf-8", errors="replace")
    match = re.fullmatch(r"OP (\S+)((?: \S+=[^ \r]+)*)\r", text)
    if not match:
        raise FrameParseError(f"unknown frame for {capability}: {data!r}")
    params = {}
    for token in match.group(2).split():
        name, value = token.split("=", 1)
        params[name] = float(value.split(":")[0])
    return match.group(1), params


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

    def __init__(self, configs: Iterable[SimDeviceConfig], seed: int = 0):
        """Each device's generator is seeded with its config's seed + ``seed``."""
        self.devices = {c.device_id: SimDevice(c, seed) for c in configs}
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
            [SimDeviceConfig.from_lab_entry(e) for e in config.get("devices", [])]
        )

    def decode(self, capability: str, frame: WireFrame) -> tuple[str, dict]:
        """``decode_operation(capability, frame)``, parsed once per fleet."""
        key = (capability, frame.data)
        decoded = self.decoded.get(key)
        if decoded is None:
            decoded = self.decoded[key] = decode_operation(capability, frame)
        return decoded

    def step(self, device_id: str, frame: WireFrame, now: float) -> SimResult:
        return self.devices[device_id].step(frame, now, self)
