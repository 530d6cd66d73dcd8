import json

import pytest
from hypothesis import given, strategies as st

from eaclab.errors import FrameParseError, RangeError, SimFault
from eaclab.shims import (
    SimFleet,
    WireFrame,
    configure_potentiostat,
    decode_operation,
    decode_potentiostat_config,
    decode_pump_dispense,
    decode_relay,
    decode_valve_set,
    encode_operation,
    encode_pump_dispense,
    encode_relay,
    encode_valve_set,
    interpolate_conductivity,
    parse_balance_line,
)
from eaclab.units import Quantity


def test_valve_dest5_golden_bytes():
    assert encode_valve_set(5).data == bytes([0x47, 0x30, 0x30, 0x35, 0x0D])


def test_relay_channel1_on_golden_bytes():
    assert encode_relay(1, on=True).data == bytes([0x00, 0xFF, 0x01])


def test_pump_frame_prefix_and_checksum():
    frame = encode_pump_dispense(4.0, 0.7)
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


@given(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)
def test_pump_round_trip(flow, volume):
    decoded_flow, decoded_volume = decode_pump_dispense(encode_pump_dispense(flow, volume))
    assert abs(decoded_flow - flow) <= 0.0005
    assert abs(decoded_volume - volume) <= 0.0005


def test_pump_envelope_enforced():
    with pytest.raises(RangeError):
        encode_pump_dispense(0.05, 1.0)
    with pytest.raises(RangeError):
        encode_pump_dispense(1.0, 60.0)


def test_pump_checksum_corruption_detected():
    data = bytearray(encode_pump_dispense(1.0, 1.0).data)
    data[5] ^= 0x01
    with pytest.raises(FrameParseError):
        decode_pump_dispense(WireFrame("p", bytes(data)))


@given(st.integers(min_value=1, max_value=6))
def test_valve_round_trip(dest):
    assert decode_valve_set(encode_valve_set(dest)) == dest


def test_valve_range():
    with pytest.raises(RangeError):
        encode_valve_set(0)
    with pytest.raises(RangeError):
        encode_valve_set(7)


@given(st.integers(min_value=1, max_value=8), st.booleans())
def test_relay_round_trip(channel, on):
    assert decode_relay(encode_relay(channel, on)) == (channel, on)


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
    frame = configure_potentiostat(eac, 100.0, 1e5, n_freq)
    decoded = decode_potentiostat_config(frame)
    assert decoded == {"eac": eac, "freq_max": 1e5, "freq_min": 100.0, "n_freq": n_freq}


def test_potentiostat_frequency_window_ordering():
    with pytest.raises(RangeError):
        configure_potentiostat(0.25, 1e5, 100.0, 10)


def test_encode_operation_dispatch():
    frame = encode_operation(
        "valve", "set", {"dest": Quantity(3.0)}, "valve_1"
    )
    assert frame.data == b"G003\r"
    op, params = decode_operation("valve", frame)
    assert (op, params) == ("set", {"dest": 3})
    assert encode_operation("pump", "connect", {}, "p").data == b"HELLO\r"


def test_custom_capability_text_frame_round_trip():
    frame = encode_operation(
        "heater", "heat_to", {"temperature": Quantity(310.0, "K")}, "h1"
    )
    op, params = decode_operation("heater", frame)
    assert op == "heat_to"
    assert params == {"temperature": 310.0}


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
    pump = encode_pump_dispense(4.0, 0.7, "pump_1")
    measure = encode_operation("potentiostat", "measure_eis", {}, "pstat_1")
    # Dispense before any valve selection raises the sensing fault.
    with pytest.raises(SimFault) as err:
        fleet.step("pump_1", pump, 0.0)
    assert err.value.kind == "no_liquid_detected"
    # Pipelined select/select/fill/fill/measure/measure keeps order.
    fleet.step("valve_1", encode_valve_set(5, "valve_1"), 0.0)
    fleet.step("valve_1", encode_valve_set(6, "valve_1"), 2.0)
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
    fleet.step("pstat_1", encode_operation("potentiostat", "connect", {}, "pstat_1"), 0.0)
    import math

    # Independent closed form: T(t) = 298 + (293 - 298) e^(-t/30).
    for t in (0.0, 10.0, 30.0, 120.0):
        expected = 298.0 + (293.0 - 298.0) * math.exp(-t / 30.0)
        assert device.temperature_at(t) == pytest.approx(expected)


def test_sim_determinism(lab_config):
    a = _fleet(lab_config)
    b = _fleet(lab_config)
    read = encode_operation("balance", "read", {}, "balance_1")
    masses_a = [a.step("balance_1", read, float(t)).telemetry["mass"] for t in range(5)]
    masses_b = [b.step("balance_1", read, float(t)).telemetry["mass"] for t in range(5)]
    assert masses_a == masses_b
