import random

import pytest
from hypothesis import given, strategies as st

from eaclab.capabilities import registry_from_lab_config
from eaclab.compiler import OpNode
from eaclab.errors import IllegalTransitionError, SequenceGapError
from eaclab.executor import runtime_precheck
from eaclab.labstate import (
    DEVICE_STATUSES,
    DeviceRecord,
    LabState,
    StateEvent,
    apply_event,
    genesis_from_lab_config,
    query_eligible,
    replay,
    snapshot,
    transition_allowed,
)
from eaclab.units import Quantity

from conftest import SAFE_TCELL
from workloads import with_device

# Independent restatement of the legal moves: self-loops, any -> fault,
# plus the explicit edge list.
_EDGE_ORACLE = {
    ("offline", "idle"), ("idle", "offline"),
    ("idle", "busy"), ("busy", "idle"),
    ("fault", "idle"),
    ("idle", "warming"), ("warming", "idle"),
    ("idle", "cooling"), ("cooling", "idle"),
}


def test_transition_graph_membership_oracle():
    for old in DEVICE_STATUSES:
        for new in DEVICE_STATUSES:
            expected = old == new or new == "fault" or (old, new) in _EDGE_ORACLE
            assert transition_allowed(old, new) == expected, (old, new)


def test_busy_requires_holder():
    with pytest.raises(ValueError):
        DeviceRecord("d", "pump", status="busy")
    with pytest.raises(ValueError):
        DeviceRecord("d", "pump", status="idle", holder="run-1")
    DeviceRecord("d", "pump", status="busy", holder="run-1")


def test_genesis_from_lab_config(lab_config, genesis):
    assert set(genesis.devices) == {
        e["device_id"] for e in lab_config["devices"]
    }
    assert genesis.devices["valve_1"].attrs == {"ports": 6.0}
    assert genesis.next_seq == 0


def _state():
    return LabState(devices={"d": DeviceRecord("d", "pump")})


def test_sequence_gap_rejected():
    state = _state()
    with pytest.raises(SequenceGapError):
        apply_event(state, StateEvent(seq=3, time=0, device_id="d", kind="dispatch"))


def test_telemetry_updates_observed_and_clock():
    state = apply_event(
        _state(),
        StateEvent(0, 5.0, "d", "telemetry", {"mass": {"value": 2.5, "unit": "g"}}),
    )
    assert state.devices["d"].observed["mass"] == Quantity(2.5, "g")
    assert state.clock == 5.0 and state.next_seq == 1


def test_clock_is_monotone():
    state = apply_event(_state(), StateEvent(0, 9.0, "d", "dispatch"))
    state = apply_event(state, StateEvent(1, 4.0, "d", "dispatch"))
    assert state.clock == 9.0


@given(st.lists(st.sampled_from([0, 0.0, -0.0, 5, 5.0]) | st.integers(-2, 9)
                | st.floats(-2, 9), min_size=1, max_size=6))
def test_the_clock_is_max_of_the_clock_and_the_event_time(times):
    """To the type and sign: of equal times the clock keeps the earlier, as
    ``max`` does, since ``5`` and ``5.0`` (or ``0.0`` and ``-0.0``) print
    apart in a snapshot."""
    state = _state()
    expected = state.clock
    for seq, time in enumerate(times):
        state = apply_event(state, StateEvent(seq, time, "d", "dispatch"))
        expected = max(expected, time)
        assert repr(state.clock) == repr(expected)


def test_illegal_transition_rejected():
    state = _state()
    with pytest.raises(IllegalTransitionError):
        apply_event(state, StateEvent(0, 0, "d", "transition", {"to": "cooling_fast"}))
    busy = apply_event(
        state, StateEvent(0, 0, "d", "transition", {"to": "busy", "holder": "r"})
    )
    with pytest.raises(IllegalTransitionError):
        apply_event(busy, StateEvent(1, 0, "d", "transition", {"to": "offline"}))


def test_fault_event_dispositions():
    paused = apply_event(
        _state(), StateEvent(0, 0, "d", "fault", {"kind": "device_error", "disposition": "pause"})
    )
    assert paused.devices["d"].status == "fault"
    retried = apply_event(
        _state(), StateEvent(0, 0, "d", "fault", {"kind": "comm_timeout", "disposition": "recover"})
    )
    assert retried.devices["d"].status == "idle"


def _random_events(seed: int, n: int) -> list[StateEvent]:
    rng = random.Random(seed)
    events = []
    status = "idle"
    for seq in range(n):
        kind = rng.choice(["telemetry", "dispatch", "transition", "precheck"])
        payload = {}
        if kind == "telemetry":
            payload = {"x": {"value": rng.uniform(0, 10), "unit": ""}}
        elif kind == "transition":
            target = rng.choice(["idle", "busy", "fault"])
            if not transition_allowed(status, target):
                target = status
            payload = {"to": target}
            if target == "busy":
                payload["holder"] = "r"
            status = target
        events.append(StateEvent(seq, float(seq), "d", kind, payload))
    return events


@pytest.mark.parametrize("seed", range(20))
def test_replay_reproduces_snapshot_byte_identically(seed):
    events = _random_events(seed, 30)
    state = replay(_state(), events)
    assert snapshot(replay(_state(), events)) == snapshot(state)
    # Replaying a strict prefix then the rest also converges.
    mid = replay(replay(_state(), events[:11]), events[11:])
    assert snapshot(mid) == snapshot(state)


def test_query_eligible_filters(genesis, registry):
    assert query_eligible(genesis, "pump", None, registry) == ["pump_1", "pump_2"]
    assert query_eligible(genesis, "valve", {"min_ports": 6}, registry) == ["valve_1"]
    assert query_eligible(genesis, "valve", {"min_ports": 8}, registry) == []
    assert query_eligible(genesis, "valve", {"ports": 6}, registry) == ["valve_1"]
    busy = with_device(
        genesis, DeviceRecord("pump_1", "pump", status="busy", holder="r")
    )
    assert query_eligible(busy, "pump", None, registry) == ["pump_2"]


_GATED = registry_from_lab_config(
    {"capabilities": {"tcell": {**SAFE_TCELL, "calibration_window": 100}}}
)


@given(
    status=st.sampled_from(sorted(DEVICE_STATUSES)),
    last_calibrated=st.floats(-300, 300),
    clock=st.floats(0, 300),
    temperature=st.none() | st.tuples(st.floats(300, 420), st.sampled_from(["K", "degC"])),
)
def test_planning_and_dispatch_ask_the_same_gate(status, last_calibrated, clock, temperature):
    """A device is eligible to plan on exactly when a run that holds no
    device may dispatch an operation to it: status, holder, calibration
    age and observed safety are one rule."""
    observed = {}
    if temperature is not None:
        value, unit = temperature
        observed["temperature"] = Quantity(value if unit == "K" else value - 273.15, unit)
    record = DeviceRecord(
        "tcell_1", "tcell", status=status,
        holder="another-run" if status == "busy" else None,
        last_calibrated=last_calibrated, observed=observed,
    )
    state = LabState(devices={"tcell_1": record}, clock=clock)
    node = OpNode("s0", "a", "scan", "measure")
    listed = query_eligible(state, "tcell", None, _GATED) == ["tcell_1"]
    fault = runtime_precheck(node, "tcell_1", state, _GATED, "run-x", "tcell")
    assert listed == (fault is None)


def test_query_eligible_respects_calibration_window(genesis, registry):
    from eaclab.records import replace

    stale = replace(genesis, clock=2_592_000.0 + 1.0)
    assert query_eligible(stale, "pump", None, registry) == []
    fresh = replace(genesis, clock=2_592_000.0)
    assert query_eligible(fresh, "pump", None, registry) == ["pump_1", "pump_2"]
