import json

import pytest

from eaclab.capabilities import TransitionLatency
from eaclab.compiler import compile_spec, topo_order
from eaclab.errors import UnschedulableError
from eaclab.labstate import DeviceRecord
from eaclab.scheduler import (
    POLICIES,
    Assignment,
    ExecutionPlan,
    batch_compatible,
    plan_hash,
    resolve_bindings,
    schedule,
)
from eaclab.specmodel import parse_spec

from workloads import (
    brute_force_makespan,
    campaign_workload,
    count_mode_transitions,
    latency_dag,
    payoff_workload,
    random_dag,
    reference_list_schedule,
    with_device,
)


def _chain_spec():
    return parse_spec(
        json.dumps(
            {
                "spec_id": "chain",
                "version": "1.0.0",
                "resources": [{"name": "p", "capability": "pump"}],
                "steps": [
                    {
                        "id": "a",
                        "binding": "p",
                        "op": "dispense",
                        "params": {
                            "flow_rate": {"value": 1.0, "unit": "mL/min"},
                            "volume": {"value": 1.0, "unit": "mL"},
                        },
                    },
                    {"id": "b", "binding": "p", "op": "stop", "depends_on": ["a"]},
                ],
            }
        )
    )


def _assert_plan_invariants(plan, dag):
    done_at = {a.node_id: a.end for a in plan.assignments}
    by_node = {a.node_id: a for a in plan.assignments}
    assert set(done_at) == set(dag.nodes)
    for src, dst, _ in dag.edges:
        assert by_node[dst].start >= done_at[src] - 1e-9, (src, dst)
    per_device = {}
    for a in plan.assignments:
        per_device.setdefault(a.device_id, []).append(a)
    for assignments in per_device.values():
        assignments.sort(key=lambda a: (a.start, a.end))
        for prev, cur in zip(assignments, assignments[1:]):
            assert cur.start >= prev.end - 1e-9, (prev, cur)


def test_chain_makespan_is_duration_sum(genesis, registry):
    dag = compile_spec(_chain_spec(), registry, genesis)
    plan = schedule(dag, genesis, registry, policy="fifo")
    # connect 1 + dispense 60 (1 mL at 1 mL/min) + stop 1 + teardown 1.
    assert plan.makespan == pytest.approx(63.0)
    _assert_plan_invariants(plan, dag)


def test_fifo_follows_topological_order(campaign_dag, genesis, registry):
    plan = schedule(campaign_dag, genesis, registry, policy="fifo")
    position = {nid: i for i, nid in enumerate(topo_order(campaign_dag))}
    per_device = {}
    for a in sorted(plan.assignments, key=lambda a: (a.start, position[a.node_id])):
        per_device.setdefault(a.device_id, []).append(a.node_id)
    for order in per_device.values():
        assert order == sorted(order, key=position.__getitem__)


def test_resolve_bindings_deterministic_and_load_balanced(campaign_dag, genesis, registry):
    devices = resolve_bindings(campaign_dag, genesis, registry)
    assert devices == {"pump": "pump_1", "valve": "valve_1", "stat": "pstat_1"}
    faulted = with_device(genesis, DeviceRecord("pump_1", "pump", status="fault"))
    assert resolve_bindings(campaign_dag, faulted, registry)["pump"] == "pump_2"
    faulted = with_device(faulted, DeviceRecord("pump_2", "pump", status="fault"))
    with pytest.raises(UnschedulableError):
        resolve_bindings(campaign_dag, faulted, registry)


def test_selector_pins_device(genesis, registry):
    doc = {
        "spec_id": "sel",
        "version": "1.0.0",
        "resources": [{"name": "p", "capability": "pump", "selector": "pump_2"}],
        "steps": [{"id": "s", "binding": "p", "op": "stop"}],
    }
    dag = compile_spec(parse_spec(json.dumps(doc)), registry, genesis)
    assert resolve_bindings(dag, genesis, registry) == {"p": "pump_2"}


def test_payoff_transition_counts_and_makespan_gap():
    spec, registry, state = payoff_workload()
    dag = compile_spec(spec, registry, state)
    fifo = schedule(dag, state, registry, policy="fifo")
    batched = schedule(dag, state, registry, policy="batched")
    assert count_mode_transitions(fifo, dag, state) == 3
    assert count_mode_transitions(batched, dag, state) == 1
    assert fifo.makespan - batched.makespan >= 200.0
    _assert_plan_invariants(fifo, dag)
    _assert_plan_invariants(batched, dag)


def test_batch_grouping_on_payoff():
    spec, registry, state = payoff_workload()
    dag = compile_spec(spec, registry, state)
    batches = schedule(dag, state, registry, policy="batched").batches
    by_mode = {b.mode: set(b.members) for b in batches}
    assert by_mode == {"T298": {"j1", "j2", "j4"}, "T310": {"j3"}}


def _batch_workloads():
    for seed in range(300):
        yield random_dag(seed)
    for n in (1, 6, 24, 48):
        spec, registry, state = campaign_workload(n)
        yield compile_spec(spec, registry, state), state, registry


def test_batches_are_each_devices_runs_of_one_mode_in_plan_order():
    """The batches partition the plan's mode-bearing nodes into each
    device's maximal runs of one mode, in plan order (start, then node id),
    and every batch in a new mode is one mode transition of the plan."""
    for dag, state, registry in _batch_workloads():
        for policy in POLICIES:
            plan = schedule(dag, state, registry, policy=policy)
            device_of = {a.node_id: a.device_id for a in plan.assignments}
            runs: dict[str, list[str]] = {}  # device -> its mode-bearing nodes in plan order
            for a in sorted(plan.assignments, key=lambda a: (a.start, a.node_id)):
                if dag.nodes[a.node_id].mode is not None:
                    runs.setdefault(a.device_id, []).append(a.node_id)
            batches: dict[str, list] = {}  # device -> its batches
            for batch in plan.batches:
                assert {device_of[nid] for nid in batch.members} == {batch.device_id}
                assert {dag.nodes[nid].mode for nid in batch.members} == {batch.mode}
                batches.setdefault(batch.device_id, []).append(batch)
            transitions = 0
            for device, nodes in runs.items():
                own = sorted(batches.pop(device), key=lambda b: nodes.index(b.members[0]))
                assert [nid for batch in own for nid in batch.members] == nodes
                modes = [b.mode for b in own]
                assert all(a != b for a, b in zip(modes, modes[1:])), modes
                transitions += sum(a != b for a, b in zip([state.devices[device].mode, *modes], modes))
            assert batches == {}
            assert transitions == count_mode_transitions(plan, dag, state)


def test_each_eis_configuration_runs_in_one_batch_with_its_measurement(campaign_dag, genesis, registry):
    for policy in POLICIES:
        plan = schedule(campaign_dag, genesis, registry, policy=policy)
        members = {batch.members for batch in plan.batches}
        assert {(f"measure#{k}:cfg", f"measure#{k}") for k in range(6)} <= members


@pytest.mark.parametrize("seed", range(60))
def test_random_dags_satisfy_invariants(seed):
    dag, state, registry = random_dag(seed)
    for policy in ("fifo", "batched"):
        plan = schedule(dag, state, registry, policy=policy)
        _assert_plan_invariants(plan, dag)
    fifo = schedule(dag, state, registry, policy="fifo")
    batched = schedule(dag, state, registry, policy="batched")
    assert batched.makespan <= fifo.makespan + 1e-9


@pytest.mark.parametrize("seed", [1, 2, 6, 10, 14, 19, 20, 22])
def test_small_instances_close_to_brute_force(seed):
    dag, state, registry = random_dag(seed)
    assert len(dag.nodes) <= 8
    plan = schedule(dag, state, registry, policy="batched")
    devices = resolve_bindings(dag, state, registry)
    optimal = brute_force_makespan(dag, state, registry, devices)
    assert plan.makespan >= optimal - 1e-9  # oracle is a true lower bound
    assert plan.makespan <= 2.0 * optimal + 1e-9  # list scheduling stays sane


def test_plan_hash_deterministic(campaign_dag, genesis, registry):
    a = schedule(campaign_dag, genesis, registry)
    b = schedule(campaign_dag, genesis, registry)
    assert plan_hash(a) == plan_hash(b)
    assert a.serialize() == b.serialize()


def test_plan_round_trips_through_its_json():
    """``resume`` continues the plan it reads back from plan.json."""
    workloads = [random_dag(seed) for seed in range(60)]
    for n in (1, 6, 24):
        spec, registry, state = campaign_workload(n)
        workloads.append((compile_spec(spec, registry, state), state, registry))
    for dag, state, registry in workloads:
        for policy in ("fifo", "batched"):
            plan = schedule(dag, state, registry, policy=policy)
            loaded = ExecutionPlan.from_dict(json.loads(plan.serialize()))
            assert loaded == plan
            assert loaded.serialize() == plan.serialize()
            assert plan_hash(loaded) == plan_hash(plan)


def test_plan_from_dict_rejects_an_unknown_policy(campaign_dag, genesis, registry):
    doc = schedule(campaign_dag, genesis, registry).to_dict()
    doc["policy"] = "lifo"
    with pytest.raises(ValueError):
        ExecutionPlan.from_dict(doc)


def test_a_batched_schedule_builds_the_assignments_of_the_returned_plan_only(monkeypatch):
    """Both list-schedule passes run; only the chosen one becomes records."""
    spec, registry, genesis = campaign_workload(48)
    dag = compile_spec(spec, registry, genesis)
    built = []
    init = Assignment.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Assignment, "__init__", counted)
    plan = schedule(dag, genesis, registry, policy="batched")
    assert len(built) == len(dag.nodes) == 246
    assert built == list(plan.assignments)


def _reference_plans(dag, state, registry):
    """The plan ``schedule`` should give under each policy, built as it
    builds one from the slots of the reference passes,
    ``workloads.reference_list_schedule``."""
    devices = resolve_bindings(dag, state, registry)
    fifo = reference_list_schedule(dag, state, registry, devices, prefer_mode_match=False)
    greedy = reference_list_schedule(dag, state, registry, devices, prefer_mode_match=True)
    if max(slot[3] for slot in greedy) > max(slot[3] for slot in fifo):
        greedy = fifo
    return {
        policy: ExecutionPlan(
            assignments=tuple(Assignment(nid, device, start, end, cost)
                              for start, nid, device, end, cost in chosen),
            batches=batch_compatible(dag, chosen),
            makespan=max(slot[3] for slot in chosen),
            policy=policy,
        )
        for policy, chosen in (("fifo", fifo), ("batched", greedy))
    }


@pytest.mark.parametrize("make, seeds", [(random_dag, range(1000)), (latency_dag, range(3000))],
                         ids=["random_dag", "latency_dag"])
def test_schedule_gives_the_plan_of_the_reference_passes(make, seeds):
    """``latency_dag`` adds what ``random_dag`` lacks: ``reconfigure``
    tables, devices that start in a mode, bindings that share a device,
    zero-duration nodes and edges repeated per edge kind."""
    for seed in seeds:
        dag, state, registry = make(seed)
        expected = _reference_plans(dag, state, registry)
        for policy in POLICIES:
            assert schedule(dag, state, registry, policy=policy) == expected[policy], (seed, policy)


def test_latency_dags_satisfy_invariants_and_the_brute_force_bound():
    for seed in range(300):
        dag, state, registry = latency_dag(seed)
        fifo = schedule(dag, state, registry, policy="fifo")
        batched = schedule(dag, state, registry, policy="batched")
        _assert_plan_invariants(fifo, dag)
        _assert_plan_invariants(batched, dag)
        assert batched.makespan <= fifo.makespan, seed
        if len(dag.nodes) <= 8:
            devices = resolve_bindings(dag, state, registry)
            optimal = brute_force_makespan(dag, state, registry, devices)
            assert batched.makespan >= optimal - 1e-9, seed


@pytest.mark.parametrize("policy, calls", [("batched", 492), ("fifo", 246)])
def test_a_schedule_asks_one_transition_cost_per_pick(monkeypatch, policy, calls):
    """On the reference lab no capability charges a transition, so each of
    the 246 picks of a pass asks the cost it is charged and nothing else;
    ``batched`` runs two passes."""
    spec, registry, genesis = campaign_workload(48)
    dag = compile_spec(spec, registry, genesis)
    asked = []
    cost = TransitionLatency.cost

    def counted(self, old_mode, new_mode):
        asked.append(new_mode)
        return cost(self, old_mode, new_mode)

    monkeypatch.setattr(TransitionLatency, "cost", counted)
    schedule(dag, genesis, registry, policy=policy)
    assert len(asked) == calls
