import math

import pytest
from hypothesis import assume, given, strategies as st

from eaclab.capabilities import (
    BUILTIN_CAPABILITIES,
    CapabilityRegistry,
    builtin_registry,
    schema_from_dict,
)
from eaclab.errors import FrameParseError, SimFault
from eaclab.shims import (
    SimFleet,
    WireFrame,
    decode_operation,
    encode_operation,
    interpolate_conductivity,
    parse_balance_line,
)
from eaclab.units import Quantity

REGISTRY = builtin_registry()


def _encode(capability: str, operation: str, device_id: str = "", **params) -> WireFrame:
    """``operation`` of a built-in ``capability`` encoded with ``params``,
    each a number in the operation's unit."""
    schema = REGISTRY.get(capability).operation(operation)
    quantities = {name: Quantity(float(v), schema.params[name].unit) for name, v in params.items()}
    return encode_operation(schema, quantities, device_id)


def _decode(capability: str, frame: WireFrame) -> tuple[str, dict]:
    return decode_operation(REGISTRY.get(capability), frame)


def test_valve_dest5_golden_bytes():
    assert _encode("valve", "set", dest=5).data == bytes([0x47, 0x30, 0x30, 0x35, 0x0D])


def test_relay_channel1_on_golden_bytes():
    assert _encode("relay", "on", channel=1).data == bytes([0x00, 0xFF, 0x01])
    assert _encode("relay", "off", channel=8).data == bytes([0x00, 0xFD, 0x08])


def test_pump_frame_prefix_and_checksum():
    frame = _encode("pump", "dispense", flow_rate=4.0, volume=0.7)
    assert frame.data[:3] == bytes([0xE9, 0x0E, 0x08])
    assert len(frame.data) == 12
    # Checksum recomputed independently.
    xor = 0
    for b in frame.data[:11]:
        xor ^= b
    assert frame.data[11] == xor
    # Payload layout: little-endian microliter-ish fixed point (x1000).
    assert frame.data[3:7] == (4000).to_bytes(4, "little")
    assert frame.data[7:11] == (700).to_bytes(4, "little")


def test_the_constant_and_text_frames_are_unchanged():
    assert _encode("pump", "stop").data == b"STOP\r"
    assert _encode("balance", "read").data == b"SI\r"
    assert _encode("balance", "tare").data == b"TARE\r"
    assert _encode("potentiostat", "measure_eis", concentration=0.43).data == b"MEAS\r"
    assert _encode("potentiostat", "configure", eac=0.25, freq_min=20000, freq_max=592000,
                   n_freq=10).data == b"CFG eac=0.25 fmax=592000 fmin=20000 n=10\r"
    for capability in BUILTIN_CAPABILITIES:
        assert _encode(capability, "connect").data == b"HELLO\r"
        assert _encode(capability, "disconnect").data == b"BYE\r"


@given(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)
def test_pump_round_trip(flow, volume):
    op, params = _decode("pump", _encode("pump", "dispense", flow_rate=flow, volume=volume))
    assert op == "dispense"
    assert abs(params["flow_rate"] - flow) <= 0.0005
    assert abs(params["volume"] - volume) <= 0.0005


def test_pump_checksum_corruption_detected():
    data = bytearray(_encode("pump", "dispense", flow_rate=1.0, volume=1.0).data)
    data[5] ^= 0x01
    with pytest.raises(FrameParseError):
        _decode("pump", WireFrame("p", bytes(data)))


@given(st.integers(min_value=1, max_value=6))
def test_valve_round_trip(dest):
    assert _decode("valve", _encode("valve", "set", dest=dest)) == ("set", {"dest": dest})


@given(st.integers(min_value=1, max_value=8), st.booleans())
def test_relay_round_trip(channel, on):
    operation = "on" if on else "off"
    frame = _encode("relay", operation, channel=channel)
    assert _decode("relay", frame) == (operation, {"channel": channel})


def test_balance_line_parsing():
    assert parse_balance_line("  12.345 g") == {"mass": 12.345, "stable": True}
    assert parse_balance_line("?  12.345 g") == {"mass": 12.345, "stable": False}
    with pytest.raises(FrameParseError):
        parse_balance_line("ERR")


@given(
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=99),
)
def test_potentiostat_round_trip(eac, n_freq):
    frame = _encode("potentiostat", "configure", eac=eac, freq_min=100.0, freq_max=1e5,
                    n_freq=n_freq)
    decoded = _decode("potentiostat", frame)
    assert decoded == ("configure",
                       {"eac": eac, "freq_max": 1e5, "freq_min": 100.0, "n_freq": n_freq})


def test_encode_operation_dispatch():
    frame = _encode("valve", "set", "valve_1", dest=3)
    assert frame == WireFrame("valve_1", b"G003\r")
    assert _decode("valve", frame) == ("set", {"dest": 3})
    assert _encode("pump", "connect", "p").data == b"HELLO\r"


HEATER = schema_from_dict("heater", {"operations": {
    "heat_to": {"params": {"temperature": {"unit": "K", "min": 250, "max": 400}}},
    # A redeclared lifecycle operation keeps its frame unless it declares one.
    "connect": {"kind": "connect", "idempotent": True, "duration_s": 0.5},
    "disconnect": {"kind": "disconnect", "idempotent": True, "frame": ["QUIT\r"]},
}})


def test_custom_capability_text_frame_round_trip():
    frame = encode_operation(
        HEATER.operation("heat_to"), {"temperature": Quantity(310.0, "K")}, "h1"
    )
    assert frame.data == b"OP heat_to temperature=310:K\r"
    assert decode_operation(HEATER, frame) == ("heat_to", {"temperature": 310.0})
    assert encode_operation(HEATER.operation("connect"), {}).data == b"HELLO\r"
    assert encode_operation(HEATER.operation("disconnect"), {}).data == b"QUIT\r"
    with pytest.raises(FrameParseError):
        decode_operation(HEATER, WireFrame("h1", b"OP melt\r"))
    with pytest.raises(FrameParseError):
        decode_operation(HEATER, WireFrame("h1", b"BYE\r"))


def _in_range(param, draw):
    """A value ``draw`` picks inside ``param``'s bounds that the static
    check passes: integral if declared integer, and a whole number of the
    steps of the integer frame field that writes it, if one does."""
    if param.integer:
        return float(draw(st.integers(math.ceil(param.min), math.floor(param.max))))
    if param.scales:
        (scale,) = param.scales
        return draw(st.integers(math.ceil(param.min * scale), math.floor(param.max * scale))) / scale
    return draw(st.floats(param.min, param.max, allow_nan=False))


def _assert_round_trip(schema, operation, draw):
    """Draw params in ``operation``'s declared ranges, encode them and check
    that ``schema`` decodes the frame to the operation and what was sent."""
    op = schema.operation(operation)
    values = {name: _in_range(p, draw) for name, p in op.params.items() if not p.optional}
    for name, p in op.params.items():
        if p.below is not None:
            assume(values[name] < values[p.below])
    sent = {name: Quantity(v, op.params[name].unit) for name, v in values.items()}
    registry = CapabilityRegistry()
    registry.register(schema)
    assert registry.check_param_ranges(schema.capability, operation, sent) == []
    name, decoded = decode_operation(schema, encode_operation(op, sent))
    assert name == operation
    fields = [part for part in op.frame or () if isinstance(part, tuple)]
    assert sorted(decoded) == sorted({param for param, _, _, _ in fields})
    # What the check passes, an integer field carries without rounding.
    for param, _, _, _ in fields:
        assert decoded[param] == pytest.approx(values[param], rel=1e-12)


BUILTIN_OPERATIONS = [(c, o) for c in sorted(BUILTIN_CAPABILITIES)
                      for o in REGISTRY.get(c).operations]


@given(st.sampled_from(BUILTIN_OPERATIONS), st.data())
def test_every_builtin_operation_round_trips(which, data):
    capability, operation = which
    _assert_round_trip(REGISTRY.get(capability), operation, data.draw)


# Literal separators: text of bytes no number holds, so a text field may
# come before one.
_SEPARATORS = st.text("GxyQ=;, :\r", min_size=1, max_size=3)
_PACKS = ("B", "b", "<H", ">h", "<I", ">i", "<q", ">Q")


@st.composite
def custom_capabilities(draw):
    """A custom capability whose ``probe`` operation declares a drawn frame
    over drawn params, with each field's range made to fit its field."""
    params, frame = {}, []
    for i in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            frame.append(draw(st.one_of(
                _SEPARATORS, st.lists(st.integers(0, 255), min_size=1, max_size=3)
                .map(lambda b: {"bytes": b}))))
        kind = draw(st.sampled_from(["pack", "number", "integer"]))
        scale = draw(st.sampled_from([1, 10, 1000]))
        integer = scale == 1 and kind != "number" or draw(st.booleans())
        name = f"p{i}"
        field = {"param": name, "scale": scale}
        if kind == "pack":
            field["pack"] = pack = draw(st.sampled_from(_PACKS))
            bits = {"b": 8, "h": 16, "i": 32, "q": 64}[pack[-1].lower()]
            signed = pack[-1].islower()
            high = (2 ** (bits - signed) - 1) // scale
            low = -(2 ** (bits - 1)) // scale + 1 if signed else 0
        else:
            field["format"] = "number" if kind == "number" else draw(
                st.sampled_from(["d", "03d", "05d"]))
            low, high = -10**6, 10**6
        bound_a = draw(st.integers(max(low, -1000), min(high, 1000)))
        bound_b = draw(st.integers(max(low, -1000), min(high, 1000)))
        params[name] = {"min": min(bound_a, bound_b), "max": max(bound_a, bound_b),
                        "integer": integer}
        frame.append(field)
        if kind != "pack" or draw(st.booleans()):
            frame.append(draw(_SEPARATORS))
    if draw(st.booleans()) or not frame:
        frame.append({"checksum": "xor"})
    return schema_from_dict("probe", {"operations": {"probe": {"params": params,
                                                                "frame": frame}}})


@given(custom_capabilities(), st.data())
def test_a_drawn_custom_frame_round_trips(schema, data):
    _assert_round_trip(schema, "probe", data.draw)


def test_interpolate_conductivity_piecewise_linear():
    table = {0.0: 0.0, 2.0: 4.0, 4.0: 2.0}
    assert interpolate_conductivity(table, 1.0) == pytest.approx(2.0)
    assert interpolate_conductivity(table, 3.0) == pytest.approx(3.0)
    # Flat extrapolation beyond the table.
    assert interpolate_conductivity(table, -1.0) == 0.0
    assert interpolate_conductivity(table, 9.0) == 2.0


def _fleet(lab_config) -> SimFleet:
    return SimFleet.from_lab_config(lab_config)


def test_dispense_duration(campaign_dag):
    # The campaign fills 0.7 mL at 4 mL/min, which takes 10.5 s.
    for k in range(6):
        assert campaign_dag.nodes[f"fill#{k}"].est_duration == pytest.approx(10.5)


def test_fluid_path_queues(lab_config):
    fleet = _fleet(lab_config)
    pump = _encode("pump", "dispense", "pump_1", flow_rate=4.0, volume=0.7)
    measure = _encode("potentiostat", "measure_eis", "pstat_1")
    # Dispense before any valve selection raises the sensing fault.
    with pytest.raises(SimFault) as err:
        fleet.step("pump_1", pump, 0.0)
    assert err.value.kind == "no_liquid_detected"
    # Pipelined select/select/fill/fill/measure/measure keeps order.
    fleet.step("valve_1", _encode("valve", "set", "valve_1", dest=5), 0.0)
    fleet.step("valve_1", _encode("valve", "set", "valve_1", dest=6), 2.0)
    fleet.step("pump_1", pump, 4.0)
    fleet.step("pump_1", pump, 15.0)
    first = fleet.step("pstat_1", measure, 30.0)
    second = fleet.step("pstat_1", measure, 31.0)
    assert first.telemetry["concentration"] == 2.15
    assert second.telemetry["concentration"] == 2.58
    # Cell now empty again.
    with pytest.raises(SimFault):
        fleet.step("pstat_1", measure, 32.0)


def test_thermal_ramp_first_order(lab_config):
    fleet = _fleet(lab_config)
    device = fleet.devices["pstat_1"]
    fleet.step("pstat_1", _encode("potentiostat", "connect", "pstat_1"), 0.0)

    # Independent closed form: T(t) = 298 + (293 - 298) e^(-t/30).
    for t in (0.0, 10.0, 30.0, 120.0):
        expected = 298.0 + (293.0 - 298.0) * math.exp(-t / 30.0)
        assert device.temperature_at(t) == pytest.approx(expected)


def test_sim_determinism(lab_config):
    a = _fleet(lab_config)
    b = _fleet(lab_config)
    read = _encode("balance", "read", "balance_1")
    masses_a = [a.step("balance_1", read, float(t)).telemetry["mass"] for t in range(5)]
    masses_b = [b.step("balance_1", read, float(t)).telemetry["mass"] for t in range(5)]
    assert masses_a == masses_b
