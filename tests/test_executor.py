import json
import math
import random

import pytest

from eaclab.canon import canonical_json
from eaclab.capabilities import registry_from_lab_config
from eaclab.compiler import OpNode, compile_spec
from eaclab.errors import (
    CheckpointMismatchError,
    StabilizationTimeoutError,
    StillBlockedError,
)
from eaclab.executor import (
    STABILIZE_REL_TOL,
    Checkpoint,
    FaultEvent,
    execute,
    handle_fault,
    resume,
    stabilize_wait,
)
from eaclab.labstate import StateEvent, apply_event, genesis_from_lab_config, replay, snapshot
from eaclab.scheduler import plan_hash, schedule
from eaclab.shims import SimDevice, SimDeviceConfig, SimFleet
from eaclab.specmodel import expand_sweeps, parse_spec, spec_hash

from conftest import CAMPAIGN_PATH, SCAN_SPEC, tcell_lab
from workloads import with_device


def _campaign_setup(lab_config, policy="batched"):
    registry = registry_from_lab_config(lab_config)
    genesis = genesis_from_lab_config(lab_config)
    spec = expand_sweeps(parse_spec(CAMPAIGN_PATH.read_text()))
    dag = compile_spec(spec, registry, genesis)
    plan = schedule(dag, genesis, registry, policy=policy)
    return registry, genesis, spec, dag, plan


def _execute(lab_config, plan, dag, genesis, registry, spec, fault_schedule=None):
    fleet = SimFleet.from_lab_config(lab_config)
    return execute(
        plan,
        dag,
        genesis,
        registry,
        fleet,
        run_id="run-t",
        spec_hash=spec_hash(spec),
        fault_schedule=fault_schedule,
    )


def _dispatch_index(result, node_id):
    for event in result.log:
        if event.kind == "dispatch" and event.payload.get("node_id") == node_id:
            return event.payload["index"]
    raise AssertionError(f"no dispatch for {node_id}")


def _dispatch_indices(result):
    return [e.payload["index"] for e in result.log if e.kind == "dispatch"]


def _random_campaign(seed):
    """Seeded variant of the campaign: sweep length, ports, volumes, and
    whether measurements wait for the cell temperature."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    doc = json.loads(CAMPAIGN_PATH.read_text())
    select, fill, measure = doc["steps"]
    select["repeat"] = {"dest": [rng.randint(1, 6) for _ in range(n)]}
    fill["repeat"] = {"volume": [rng.choice([0.5, 0.7, 1.0]) for _ in range(n)]}
    measure["repeat"] = {"concentration": [0.43] * n}
    if rng.random() < 0.5:
        del measure["stabilization"]
    return expand_sweeps(parse_spec(json.dumps(doc)))


@pytest.mark.parametrize("seed", range(6))
def test_dispatch_indices_are_one_to_n(lab_config, seed):
    """Every dispatch, stabilize waits included, gets the next index."""
    rng = random.Random(seed)
    registry = registry_from_lab_config(lab_config)
    genesis = genesis_from_lab_config(lab_config)
    spec = expand_sweeps(parse_spec(CAMPAIGN_PATH.read_text()))
    if seed:
        spec = _random_campaign(seed)
    dag = compile_spec(spec, registry, genesis)
    for policy in ("fifo", "batched"):
        plan = schedule(dag, genesis, registry, policy=policy)
        clean = _execute(lab_config, plan, dag, genesis, registry, spec)
        indices = _dispatch_indices(clean)
        assert indices == list(range(1, len(indices) + 1))
        assert clean.uninjected == ()

        waits = [
            e.payload["index"] for e in clean.log
            if e.kind == "dispatch" and "frame" not in e.payload
        ]
        operations = sorted(set(indices) - set(waits))
        # Stabilize waits and an index past the end inject nothing.
        for target in [*waits, len(indices) + 1, rng.choice(operations)]:
            kind = rng.choice(["comm_timeout", "device_error", "implicit_violation"])
            faulted = _execute(
                lab_config, plan, dag, genesis, registry, spec, {target: kind}
            )
            got = _dispatch_indices(faulted)
            assert got == list(range(1, len(got) + 1))
            missed = target not in operations
            assert faulted.uninjected == ((target,) if missed else ())
            injected = [
                e for e in faulted.log
                if e.kind == "fault"
                and e.payload["detail"] == f"injected at dispatch {target}"
            ]
            assert len(injected) == (0 if missed else 1)
            if missed:
                assert faulted.log == clean.log


def test_fault_free_run_completes(lab_config):
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    result = _execute(lab_config, plan, dag, genesis, registry, spec)
    assert result.status == "completed"
    assert len(result.telemetry) == 6
    assert result.checkpoint is None
    for record in result.state.devices.values():
        assert record.status == "idle"


def test_run_log_replay_reproduces_snapshot(lab_config):
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    result = _execute(lab_config, plan, dag, genesis, registry, spec)
    assert snapshot(replay(genesis, result.log)) == snapshot(result.state)


def test_telemetry_carries_provenance(lab_config):
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    result = _execute(lab_config, plan, dag, genesis, registry, spec)
    for record in result.telemetry:
        assert record.spec_hash == spec_hash(spec)
        assert record.plan_hash == plan_hash(plan)


def test_deterministic_execution(lab_config):
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    a = _execute(lab_config, plan, dag, genesis, registry, spec)
    b = _execute(lab_config, plan, dag, genesis, registry, spec)
    log_a = "\n".join(canonical_json(e.to_dict()) for e in a.log)
    log_b = "\n".join(canonical_json(e.to_dict()) for e in b.log)
    assert log_a == log_b
    assert a.wire == b.wire


def test_timeout_on_idempotent_read_recovers(lab_config):
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    baseline = _execute(lab_config, plan, dag, genesis, registry, spec)
    index = _dispatch_index(baseline, "select#0")
    result = _execute(
        lab_config, plan, dag, genesis, registry, spec,
        fault_schedule={index: "comm_timeout"},
    )
    assert result.status == "completed"
    faults = [e for e in result.log if e.kind == "fault"]
    assert [f.payload["disposition"] for f in faults] == ["recover"]
    retries = [
        e for e in result.log
        if e.kind == "dispatch" and e.payload.get("node_id") == "select#0"
    ]
    assert len(retries) == 2  # original dispatch plus exactly one retry
    assert [r.fields for r in result.telemetry] == [
        r.fields for r in baseline.telemetry
    ]


def test_timeout_on_dispense_pauses_with_checkpoint(lab_config):
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    baseline = _execute(lab_config, plan, dag, genesis, registry, spec)
    index = _dispatch_index(baseline, "fill#0")
    result = _execute(
        lab_config, plan, dag, genesis, registry, spec,
        fault_schedule={index: "comm_timeout"},
    )
    assert result.status == "paused"
    assert result.fault.kind == "comm_timeout"
    checkpoint = result.checkpoint
    assert checkpoint is not None
    assert checkpoint.plan_hash == plan_hash(plan)
    assert checkpoint.last_committed_node is not None
    assert result.state.devices["pump_1"].status == "fault"
    committed_nodes = {
        e.payload["node_id"] for e in result.log if e.kind == "dispatch"
    }
    assert checkpoint.last_committed_node in committed_nodes


def test_resume_after_clearing_matches_baseline(lab_config):
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    baseline = _execute(lab_config, plan, dag, genesis, registry, spec)
    index = _dispatch_index(baseline, "fill#0")
    paused = _execute(
        lab_config, plan, dag, genesis, registry, spec,
        fault_schedule={index: "comm_timeout"},
    )
    state = paused.state

    # Still blocked while the pump remains faulted.
    with pytest.raises(StillBlockedError):
        resume(
            paused.checkpoint, plan, dag, state, registry,
            SimFleet.from_lab_config(lab_config), spec_hash=spec_hash(spec),
        )

    clear = StateEvent(
        state.next_seq, state.clock, "pump_1", "transition", {"to": "idle"}
    )
    state = apply_event(state, clear)
    resumed = resume(
        paused.checkpoint, plan, dag, state, registry,
        SimFleet.from_lab_config(lab_config), spec_hash=spec_hash(spec),
    )
    assert resumed.status == "completed"
    combined = paused.telemetry + resumed.telemetry
    assert len(combined) == len(baseline.telemetry)
    for got, want in zip(combined, baseline.telemetry):
        assert got.node_id == want.node_id
        assert got.fields == want.fields
        assert got.time == want.time


def _paused_and_resumed(lab_config):
    """The fill#0 timeout run, the operator's clear event and the resume."""
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    baseline = _execute(lab_config, plan, dag, genesis, registry, spec)
    index = _dispatch_index(baseline, "fill#0")
    paused = _execute(
        lab_config, plan, dag, genesis, registry, spec,
        fault_schedule={index: "comm_timeout"},
    )
    state = paused.state
    clear = StateEvent(
        state.next_seq, state.clock, "pump_1", "transition", {"to": "idle"}
    )
    resumed = resume(
        paused.checkpoint, plan, dag, apply_event(state, clear), registry,
        SimFleet.from_lab_config(lab_config), spec_hash=spec_hash(spec),
        last_dispatch=max(_dispatch_indices(paused)),
    )
    return genesis, paused, clear, resumed


def test_resume_continues_dispatch_numbering(lab_config):
    _, paused, _, resumed = _paused_and_resumed(lab_config)
    assert resumed.status == "completed"
    indices = _dispatch_indices(paused) + _dispatch_indices(resumed)
    assert indices == list(range(1, len(indices) + 1))


def test_one_precheck_gates_each_dispatch(lab_config):
    """The live-state gate runs once per dispatch, right before it: each
    precheck is followed at once by the dispatch or fault of its node, on
    its device, at its time."""
    logs = []
    for policy in ("fifo", "batched"):
        registry, genesis, spec, dag, plan = _campaign_setup(lab_config, policy)
        clean = _execute(lab_config, plan, dag, genesis, registry, spec)
        assert sum(e.kind == "precheck" for e in clean.log) == 36
        logs.append(clean.log)
    aborted = _execute(
        lab_config, plan, dag, genesis, registry, spec,
        {_dispatch_index(clean, "fill#0"): "implicit_violation"},
    )
    assert aborted.status == "aborted"
    _, paused, clear, resumed = _paused_and_resumed(lab_config)
    logs += [aborted.log, paused.log + [clear] + resumed.log]
    for log in logs:
        for gate, after in zip(log, log[1:] + [None]):
            if gate.kind != "precheck":
                continue
            assert after is not None and after.kind in ("dispatch", "fault"), gate
            assert after.payload["node_id"] == gate.payload["node_id"]
            assert (after.device_id, after.time) == (gate.device_id, gate.time)
        prechecks = sum(e.kind == "precheck" for e in log)
        assert prechecks == sum(e.kind == "dispatch" for e in log)


def test_folding_a_run_log_never_mutates_a_state(lab_config):
    """States share their devices dict until an event changes a record, so
    no fold may write into a dict an earlier state still holds."""
    genesis, paused, clear, resumed = _paused_and_resumed(lab_config)
    log = paused.log + [clear] + resumed.log
    assert {e.kind for e in log} >= {"precheck", "dispatch", "telemetry", "transition", "fault"}
    states = [genesis]
    taken = [snapshot(genesis)]
    for event in log:
        states.append(apply_event(states[-1], event))
        taken.append(snapshot(states[-1]))
        if event.kind in ("precheck", "dispatch"):
            assert states[-1].devices is states[-2].devices
    assert snapshot(replay(genesis, log)) == taken[-1]
    assert [snapshot(state) for state in states] == taken


def test_abort_tears_down_newest_connection_first(lab_config):
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    clean = _execute(lab_config, plan, dag, genesis, registry, spec)
    operations = [
        e.payload["index"] for e in clean.log
        if e.kind == "dispatch" and "frame" in e.payload
    ]
    several_open = 0
    for index in operations:
        aborted = _execute(
            lab_config, plan, dag, genesis, registry, spec,
            {index: "implicit_violation"},
        )
        assert aborted.status == "aborted"
        fault_at = next(i for i, e in enumerate(aborted.log) if e.kind == "fault")
        opened: list[str] = []
        for event in aborted.log[:fault_at]:
            if event.kind == "transition" and event.payload["to"] == "busy":
                opened.append(event.device_id)
            elif event.kind == "transition" and event.payload["to"] == "idle":
                opened.remove(event.device_id)
        torn_down = [
            e.device_id for e in aborted.log[fault_at:]
            if e.kind == "dispatch" and e.payload["op"] == "disconnect"
        ]
        assert torn_down == opened[::-1]
        several_open += len(opened) > 1 and opened[::-1] != sorted(opened, reverse=True)
    # Some abort has open connections whose newest-first order is not
    # their descending id order, so the check above tells the two apart.
    assert several_open


def test_resume_rejects_mismatched_plan(lab_config):
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    checkpoint = Checkpoint("run-t", None, 0, "0" * 64)
    with pytest.raises(CheckpointMismatchError):
        resume(
            checkpoint, plan, dag, genesis, registry,
            SimFleet.from_lab_config(lab_config), spec_hash=spec_hash(spec),
        )


def test_calibration_lapse_aborts_before_actuation(lab_config):
    lab = lab_config
    registry = registry_from_lab_config(lab)
    genesis = genesis_from_lab_config(lab)
    spec = parse_spec(
        json.dumps(
            {
                "spec_id": "stale",
                "version": "1.0.0",
                "resources": [{"name": "stat", "capability": "potentiostat"}],
                "steps": [
                    {
                        "id": "m",
                        "binding": "stat",
                        "op": "measure_eis",
                        "params": {
                            "eac": {"value": 0.25, "unit": "V"},
                            "freq_min": {"value": 100, "unit": "Hz"},
                            "freq_max": {"value": 10000, "unit": "Hz"},
                            "n_freq": {"value": 10},
                        },
                    }
                ],
            }
        )
    )
    dag = compile_spec(spec, registry, genesis)
    plan = schedule(dag, genesis, registry)
    # Calibration lapses between planning and execution: the device's
    # last calibration turns out to predate the 30-day window.
    from eaclab.records import replace

    stale = with_device(
        genesis, replace(genesis.devices["pstat_1"], last_calibrated=-2_600_000.0)
    )
    result = _execute(lab, plan, dag, stale, registry, spec)
    assert result.status == "aborted"
    assert result.fault.kind == "implicit_violation"
    assert result.fault.predicate == "calibration_lapsed"
    # The first operation's own gate stops it.
    assert result.fault.node_id == "m:cfg"
    frames = [bytes.fromhex(f["hex"]) for f in result.wire if f["direction"] == "to_device"]
    # Only lifecycle frames reached the wire: connect then abort teardown.
    assert frames == [b"HELLO\r", b"BYE\r"]
    assert result.state.devices["pstat_1"].status == "idle"


def test_an_unsafe_observed_value_aborts_before_actuation():
    """The observed-safety branch of the dispatch gate: a cell that has
    grown too hot since planning stops at its first operation."""
    lab = tcell_lab({"device_id": "tcell_1", "capability": "tcell"})
    registry = registry_from_lab_config(lab)
    genesis = genesis_from_lab_config(lab)
    spec = parse_spec(json.dumps(SCAN_SPEC))
    dag = compile_spec(spec, registry, genesis)
    plan = schedule(dag, genesis, registry)
    from eaclab.records import replace
    from eaclab.units import Quantity

    hot = with_device(genesis, replace(
        genesis.devices["tcell_1"], observed={"temperature": Quantity(370.0, "K")}
    ))
    result = _execute(lab, plan, dag, hot, registry, spec)
    assert result.status == "aborted"
    assert (result.fault.kind, result.fault.predicate) == ("implicit_violation", "safety:temperature")
    assert result.fault.node_id == "s0"
    assert result.fault.detail == "observed temperature=370 violates <= 360"
    frames = [bytes.fromhex(f["hex"]) for f in result.wire if f["direction"] == "to_device"]
    assert frames == [b"HELLO\r", b"BYE\r"]
    assert result.state.devices["tcell_1"].status == "idle"


def test_a_clock_under_one_second_is_the_clock_of_the_run():
    """A node ends when its declared clock says, however short: each of
    two 0.25 s pulses is dispatched at its planned start."""
    lab = {
        "devices": [{"device_id": "zap_1", "capability": "zapper"}],
        "capabilities": {"zapper": {"operations": {"pulse": {"duration_s": 0.25}}}},
    }
    registry = registry_from_lab_config(lab)
    genesis = genesis_from_lab_config(lab)
    spec = parse_spec(json.dumps({
        "spec_id": "pulses",
        "version": "1.0.0",
        "resources": [{"name": "z", "capability": "zapper"}],
        "steps": [
            {"id": "p0", "binding": "z", "op": "pulse", "params": {}},
            {"id": "p1", "binding": "z", "op": "pulse", "params": {}, "depends_on": ["p0"]},
        ],
    }))
    dag = compile_spec(spec, registry, genesis)
    plan = schedule(dag, genesis, registry)
    durations = {a.node_id: a.end - a.start for a in plan.assignments}
    assert durations["p0"] == durations["p1"] == 0.25
    result = _execute(lab, plan, dag, genesis, registry, spec)
    assert result.status == "completed"
    dispatched = {e.payload["node_id"]: e.time for e in result.log if e.kind == "dispatch"}
    assert dispatched == {a.node_id: a.start for a in plan.assignments}
    assert result.state.clock == plan.makespan


def _thermal_device(start, setpoint, tau):
    return SimDevice(
        SimDeviceConfig(
            device_id="d",
            capability="potentiostat",
            temperature_start=start,
            temperature_setpoint=setpoint,
            temperature_tau=tau,
        )
    )


def _stab_node(mode, duration, signal="temperature"):
    return OpNode(
        node_id="s:stab",
        binding="b",
        operation="stabilize",
        kind="stabilize",
        est_duration=duration,
        stab={"mode": mode, "duration_s": duration, "signal": signal},
    )


def test_fixed_delay_waits_exactly():
    device = _thermal_device(293.0, 298.0, 30.0)
    assert stabilize_wait(_stab_node("fixed_delay", 7.0), 0.0, device) == 7.0


def test_setpoint_then_hold_first_crossing_oracle():
    device = _thermal_device(293.0, 298.0, 30.0)
    elapsed = stabilize_wait(_stab_node("setpoint_then_hold", 5.0), 0.0, device)
    # Oracle: T(t) = 298 - 5 e^(-t/30) enters the 1% band at the first
    # integer t with 5 e^(-t/30) <= 2.98, then holds 5 more seconds.
    band = 298.0 * STABILIZE_REL_TOL
    t_band = math.ceil(30.0 * math.log(5.0 / band))
    assert elapsed == float(t_band + 5)


def test_stabilization_timeout():
    device = _thermal_device(293.0, 400.0, 1e9)
    with pytest.raises(StabilizationTimeoutError, match="^signal never held its band within 600s$"):
        stabilize_wait(_stab_node("setpoint_then_hold", 5.0), 0.0, device)


_STATUS_OF = {"recover": "completed", "pause": "paused", "abort": "aborted"}


@pytest.mark.parametrize("kind", ["comm_timeout", "device_error", "no_liquid_detected",
                                  "implicit_violation"])
def test_every_fault_end_follows_the_rules(lab_config, kind):
    """Each fault kind at each operation dispatch index of the reference
    campaign ends as ``handle_fault`` says: ``recover`` retries once and
    completes, a pause checkpoints, an abort leaves no device busy, and a
    paused run resumed after a clear has the fault-free run's telemetry."""
    registry, genesis, spec, dag, plan = _campaign_setup(lab_config)
    clean = _execute(lab_config, plan, dag, genesis, registry, spec)
    operations = [
        e.payload["index"] for e in clean.log
        if e.kind == "dispatch" and "frame" in e.payload
    ]
    outcomes = set()
    for index in operations:
        result = _execute(lab_config, plan, dag, genesis, registry, spec, {index: kind})
        (logged,) = [e for e in result.log if e.kind == "fault"]
        payload = logged.payload
        fault = FaultEvent(payload["kind"], logged.device_id, payload["node_id"],
                           payload["detail"], payload["predicate"])
        node = dag.nodes[fault.node_id]
        disposition = handle_fault(fault, node)
        assert payload["disposition"] == disposition
        assert result.status == _STATUS_OF[disposition]
        outcomes.add(disposition)
        if disposition == "recover":
            retried = [e for e in result.log
                       if e.kind == "dispatch" and e.payload["node_id"] == node.node_id]
            assert len(retried) == 2
            assert result.fault is None and result.checkpoint is None
            continue
        assert result.fault == fault
        if disposition == "abort":
            assert result.checkpoint is None
            assert all(r.status != "busy" for r in result.state.devices.values())
            continue
        assert result.checkpoint is not None
        state = result.state
        clear = StateEvent(state.next_seq, state.clock, fault.device_id, "transition",
                           {"to": "idle"})
        resumed = resume(
            result.checkpoint, plan, dag, apply_event(state, clear), registry,
            SimFleet.from_lab_config(lab_config), spec_hash=spec_hash(spec),
            last_dispatch=max(_dispatch_indices(result)),
        )
        assert resumed.status == "completed"
        combined = result.telemetry + resumed.telemetry
        assert [(r.node_id, r.time, r.fields) for r in combined] == [
            (r.node_id, r.time, r.fields) for r in clean.telemetry
        ]
    assert outcomes == {
        "comm_timeout": {"recover", "pause"},
        "device_error": {"pause"},
        "no_liquid_detected": {"pause"},
        "implicit_violation": {"abort"},
    }[kind]
