"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
pass/fail lines inline).
"""

import json
import random
import time

import pytest

from eaclab.canon import canonical_json
from eaclab.capabilities import registry_from_lab_config
from eaclab.compiler import compile_spec, static_check
from eaclab.errors import EacError, UnschedulableError
from eaclab.executor import execute, resume
from eaclab.labstate import (
    StateEvent,
    apply_event,
    genesis_from_lab_config,
    replay,
    snapshot,
)
from eaclab.scheduler import plan_hash, resolve_bindings, schedule
from eaclab.shims import SimFleet, encode_pump_dispense, encode_relay, encode_valve_set
from eaclab.specmodel import expand_sweeps, parse_spec, spec_hash

from conftest import CAMPAIGN_PATH, LAB_PATH
from workloads import (
    TelemetryStore,
    brute_force_makespan,
    count_mode_transitions,
    payoff_workload,
    random_dag,
    with_device,
)


def _report(number: int, name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (> {budget}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def _campaign_run(lab, policy="batched", fault_schedule=None, state=None):
    registry = registry_from_lab_config(lab)
    genesis = genesis_from_lab_config(lab)
    spec = expand_sweeps(parse_spec(CAMPAIGN_PATH.read_text()))
    dag = compile_spec(spec, registry, genesis)
    plan = schedule(dag, genesis, registry, policy=policy)
    result = execute(
        plan,
        dag,
        state if state is not None else genesis,
        registry,
        SimFleet.from_lab_config(lab),
        run_id="run-acc",
        spec_hash=spec_hash(spec),
        fault_schedule=fault_schedule,
    )
    store = TelemetryStore()
    for rec in result.telemetry:
        store.record(rec)
    return result, plan, dag, spec, registry, genesis, store


def test_criterion_1_golden_wire_frames():
    started = time.perf_counter()
    assert encode_valve_set(5).data == bytes([0x47, 0x30, 0x30, 0x35, 0x0D])
    assert encode_relay(1, on=True).data == bytes([0x00, 0xFF, 0x01])
    assert encode_pump_dispense(4.0, 0.7).data[:3] == bytes([0xE9, 0x0E, 0x08])
    _report(1, "golden wire frames", started, 1.0)


def test_criterion_2_end_to_end_campaign(lab_config):
    started = time.perf_counter()
    registry = registry_from_lab_config(lab_config)
    genesis = genesis_from_lab_config(lab_config)
    spec = expand_sweeps(parse_spec(CAMPAIGN_PATH.read_text()))
    assert static_check(spec, registry, genesis) == []

    dag = compile_spec(spec, registry, genesis)
    # Each measure is dependency-dominated by its dispense: the fill node
    # is an ancestor of the measure node through dep edges.
    for k in range(6):
        ancestors, frontier = set(), [f"measure#{k}"]
        while frontier:
            nid = frontier.pop()
            for pred in dag.predecessors(nid):
                if pred not in ancestors:
                    ancestors.add(pred)
                    frontier.append(pred)
        assert f"fill#{k}" in ancestors

    result, plan, dag, spec, registry, genesis, store = _campaign_run(lab_config)
    assert result.status == "completed"
    assert len(result.telemetry) == 6
    report = store.report_argmax("run-acc", "conductivity")
    assert report["at"]["concentration"].value == pytest.approx(2.15)
    _report(2, "end-to-end campaign", started, 10.0)


def _invalid_spec_corpus(seed=7):
    """Generated corpus of invalid spec documents, >= 50 across 5 families."""
    rng = random.Random(seed)
    base = json.loads(CAMPAIGN_PATH.read_text())
    corpus = []

    def variant():
        return json.loads(json.dumps(base))

    for i in range(12):  # out-of-range parameters
        doc = variant()
        doc["steps"][1]["params"]["flow_rate"]["value"] = rng.choice(
            [-5.0, 0.0, 10.001 + i, 1e9]
        )
        corpus.append(("out_of_range", doc))
    for i in range(12):  # unknown capabilities
        doc = variant()
        doc["resources"][i % 3]["capability"] = f"warp_core_{i}"
        corpus.append(("unknown_capability", doc))
    for i in range(12):  # cyclic dependencies
        doc = variant()
        doc["steps"][0]["depends_on"] = [doc["steps"][(i % 2) + 1]["id"]]
        corpus.append(("dependency_cycle", doc))
    for i in range(12):  # unsatisfiable bindings
        doc = variant()
        doc["resources"][i % 3]["selector"] = f"ghost_device_{i}"
        corpus.append(("unsatisfiable_binding", doc))
    for i in range(12):  # unknown operations or bad units
        doc = variant()
        if i % 2:
            doc["steps"][0]["op"] = f"levitate_{i}"
        else:
            doc["steps"][1]["params"]["volume"]["unit"] = "parsec"
        corpus.append(("unknown_operation/bad_unit", doc))
    return corpus


def test_criterion_3_static_safety_gate(lab_config):
    started = time.perf_counter()
    registry = registry_from_lab_config(lab_config)
    genesis = genesis_from_lab_config(lab_config)
    corpus = _invalid_spec_corpus()
    assert len(corpus) >= 50
    wire_frames = []
    rejected = 0
    for family, doc in corpus:
        try:
            spec = expand_sweeps(parse_spec(json.dumps(doc)))
            diagnostics = static_check(spec, registry, genesis)
            if any(d.severity == "error" for d in diagnostics):
                rejected += 1
                continue
            dag = compile_spec(spec, registry, genesis)
            schedule(dag, genesis, registry)
        except (EacError, UnschedulableError):
            rejected += 1
            continue
        pytest.fail(f"invalid spec accepted ({family}): {doc}")
    assert rejected == len(corpus)
    assert wire_frames == []  # nothing was ever dispatched
    _report(3, "static safety gate", started, 10.0)


def test_criterion_4_scheduler_soundness_and_quality():
    started = time.perf_counter()
    gaps = []
    for seed in range(1000):
        dag, state, registry = random_dag(seed)
        fifo = schedule(dag, state, registry, policy="fifo")
        batched = schedule(dag, state, registry, policy="batched")
        for plan in (fifo, batched):
            done_at = {a.node_id: a.end for a in plan.assignments}
            by_node = {a.node_id: a for a in plan.assignments}
            assert set(done_at) == set(dag.nodes)
            for src, dst, _ in dag.edges:  # dependency soundness
                assert by_node[dst].start >= done_at[src] - 1e-9
            per_device = {}
            for a in plan.assignments:
                per_device.setdefault(a.device_id, []).append(a)
            for assignments in per_device.values():  # exclusivity
                assignments.sort(key=lambda a: (a.start, a.end))
                for prev, cur in zip(assignments, assignments[1:]):
                    assert cur.start >= prev.end - 1e-9
        assert batched.makespan <= fifo.makespan + 1e-9
        if len(dag.nodes) <= 8:
            devices = resolve_bindings(dag, state, registry)
            optimal = brute_force_makespan(dag, state, registry, devices)
            assert batched.makespan >= optimal - 1e-9
            gaps.append(batched.makespan / optimal - 1.0)
    mean_gap = sum(gaps) / len(gaps)
    print(
        f"scheduler quality: {len(gaps)} small instances, "
        f"mean optimality gap {100 * mean_gap:.2f}%"
    )
    _report(4, "scheduler soundness and quality", started, 60.0)


def test_criterion_5_state_batching_payoff():
    started = time.perf_counter()
    spec, registry, state = payoff_workload()
    dag = compile_spec(spec, registry, state)
    fifo = schedule(dag, state, registry, policy="fifo")
    batched = schedule(dag, state, registry, policy="batched")
    assert count_mode_transitions(batched, dag, state) == 1
    assert count_mode_transitions(fifo, dag, state) == 3
    assert fifo.makespan - batched.makespan >= 200.0
    _report(5, "state-batching payoff", started, 1.0)


def test_criterion_6_deterministic_fault_handling(lab_config):
    started = time.perf_counter()
    baseline, plan, dag, spec, registry, genesis, _ = _campaign_run(lab_config)

    def index_of(node_id):
        for event in baseline.log:
            if event.kind == "dispatch" and event.payload.get("node_id") == node_id:
                return event.payload["index"]
        raise AssertionError(node_id)

    # Byte-identical logs for a fixed seed and fault schedule.
    schedule_map = {index_of("select#0"): "comm_timeout"}
    a, *_ = _campaign_run(lab_config, fault_schedule=schedule_map)
    b, *_ = _campaign_run(lab_config, fault_schedule=schedule_map)
    assert [canonical_json(e.to_dict()) for e in a.log] == [
        canonical_json(e.to_dict()) for e in b.log
    ]
    assert a.wire == b.wire

    # Timeout on the idempotent valve read path recovers via one retry.
    assert a.status == "completed"
    retries = [
        e for e in a.log
        if e.kind == "dispatch" and e.payload.get("node_id") == "select#0"
    ]
    assert len(retries) == 2

    # Timeout on a dispense pauses with a valid checkpoint.
    paused, *_ = _campaign_run(
        lab_config, fault_schedule={index_of("fill#0"): "comm_timeout"}
    )
    assert paused.status == "paused"
    assert paused.checkpoint is not None
    assert paused.checkpoint.plan_hash == plan_hash(plan)

    # Resume after clearing matches the fault-free baseline element-wise.
    state = paused.state
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
    _report(6, "deterministic fault handling", started, 30.0)


def test_criterion_7_implicit_failure_gating(lab_config):
    started = time.perf_counter()
    from eaclab.records import replace

    registry = registry_from_lab_config(lab_config)
    genesis = genesis_from_lab_config(lab_config)
    spec = parse_spec(
        json.dumps(
            {
                "spec_id": "stale-gate",
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
    stale = with_device(
        genesis, replace(genesis.devices["pstat_1"], last_calibrated=-2_600_000.0)
    )
    result = execute(
        plan, dag, stale, registry, SimFleet.from_lab_config(lab_config),
        run_id="run-stale", spec_hash=spec_hash(spec),
    )
    assert result.status == "aborted"
    assert result.fault.kind == "implicit_violation"
    sent = [bytes.fromhex(f["hex"]) for f in result.wire if f["direction"] == "to_device"]
    # No actuate frame reached the wire; the one opened connection was
    # torn down (disconnect frame present).
    assert sent == [b"HELLO\r", b"BYE\r"]
    assert result.state.devices["pstat_1"].status == "idle"
    _report(7, "implicit-failure gating", started, 10.0)


def test_criterion_8_replay_and_provenance(lab_config):
    started = time.perf_counter()
    result, plan, dag, spec, registry, genesis, _ = _campaign_run(lab_config)
    assert snapshot(replay(genesis, result.log)) == snapshot(result.state)
    for record in result.telemetry:
        assert record.spec_hash == spec_hash(spec)
        assert record.plan_hash == plan_hash(plan)
    # A faulted run's log replays identically too.
    fault_index = next(
        e.payload["index"] for e in result.log
        if e.kind == "dispatch" and e.payload.get("node_id") == "fill#0"
    )
    paused, *_ = _campaign_run(
        lab_config, fault_schedule={fault_index: "comm_timeout"}
    )
    assert snapshot(replay(genesis, paused.log)) == snapshot(paused.state)
    _report(8, "replay and provenance", started, 10.0)
