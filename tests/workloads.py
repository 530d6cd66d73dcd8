"""Constructed workloads shared by the scheduler and acceptance tests, and
the test-only helpers and reference oracles the program does not ship."""

import argparse
import heapq
import importlib.util
import json
import math
import random
from pathlib import Path

from eaclab.canon import sha256_hex
from eaclab.capabilities import CapabilityRegistry, registry_from_lab_config, schema_from_dict
from eaclab.compiler import Diagnostic, OpNode, WorkflowDAG, topo_rank
from eaclab.errors import EacError, UnitError
from eaclab.labstate import DeviceRecord, LabState, genesis_from_lab_config
from eaclab.records import field, record, replace
from eaclab.specmodel import expand_sweeps, parse_spec, serialize_spec
from eaclab.telemetry import TelemetryRecord
from eaclab.units import (
    CANONICAL_UNITS, Quantity, canonicalize_units, to_canonical, unit_dimension,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Single reader device that starts the day holding temperature mode T310;
# four scan jobs at [298, 298, 310, 298] K with a 100 s reconfiguration
# penalty. FIFO pays three mode switches, batching pays one.
PAYOFF_LAB = {
    "devices": [
        {"device_id": "reader_1", "capability": "reader", "mode": "T310"}
    ],
    "capabilities": {
        "reader": {
            "operations": {
                "scan": {
                    "params": {"temperature": {"unit": "K", "min": 200, "max": 400}},
                    "kind": "read",
                }
            },
            "transitions": {"warmup": 0, "cooldown": 100},
        }
    },
}

PAYOFF_TEMPS = [298, 298, 310, 298]

PAYOFF_SPEC = {
    "spec_id": "two-temperature-batch",
    "version": "1.0.0",
    "resources": [{"name": "r", "capability": "reader"}],
    "steps": [
        {
            "id": f"j{i + 1}",
            "binding": "r",
            "op": "scan",
            "params": {"temperature": {"value": t, "unit": "K"}},
        }
        for i, t in enumerate(PAYOFF_TEMPS)
    ],
}


def payoff_workload():
    registry = registry_from_lab_config(PAYOFF_LAB)
    state = genesis_from_lab_config(PAYOFF_LAB)
    spec = parse_spec(json.dumps(PAYOFF_SPEC))
    return spec, registry, state


def campaign_doc(n: int, fill_ml: float | None = None) -> dict:
    """The Li2SO4 campaign document with its three sweeps lengthened to
    ``n`` points.

    Ports cycle 1..6 and fill volumes cycle through 0.5..1.0 mL, so
    fills of different lengths share the pump and the batched policy has
    real choices to make; with ``fill_ml`` every fill has that volume, as
    in the benchmark's campaign_scale.
    """
    doc = json.loads((CONFIGS / "li2so4_campaign.json").read_text())
    doc["spec_id"] = f"campaign-{n}"
    select, fill, measure = doc["steps"]
    ports = [i % 6 + 1 for i in range(n)]
    select["repeat"] = {"dest": ports}
    fill["repeat"] = {"volume": [fill_ml if fill_ml is not None
                                 else round(0.5 + 0.1 * ((5 * i) % 6), 1) for i in range(n)]}
    measure["repeat"] = {"concentration": [0.43 * p for p in ports]}
    return doc


def campaign_template(n: int, fill_ml: float | None = None):
    """``campaign_doc(n, fill_ml)``, parsed, as ``plan`` compiles it, with
    the reference lab. Returns (template, registry, genesis)."""
    lab = json.loads((CONFIGS / "reference_lab.json").read_text())
    spec = parse_spec(json.dumps(campaign_doc(n, fill_ml)))
    return spec, registry_from_lab_config(lab), genesis_from_lab_config(lab)


def campaign_workload(n: int, fill_ml: float | None = None):
    """``campaign_template(n, fill_ml)`` with its template expanded.
    Returns (expanded spec, registry, genesis)."""
    spec, registry, genesis = campaign_template(n, fill_ml)
    return expand_sweeps(spec), registry, genesis


def campaign_spec_json(n: int, fill_ml: float | None = None):
    """``campaign_workload(n, fill_ml)`` written out as ``run`` writes
    ``spec.json`` and parsed again, as ``resume`` reads it. Returns
    (parsed expansion, registry, genesis)."""
    spec, registry, genesis = campaign_workload(n, fill_ml)
    return parse_spec(serialize_spec(spec)), registry, genesis


def perfbench_inputs():
    """The benchmark's input builders, ``perfbench/inputs.py``, as a module."""
    path = CONFIGS.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def sweep_refusal(doc: dict) -> tuple[str, str] | None:
    """The (code, locus) a spec document whose template is valid is refused
    with for its sweeps, or None: ``unknown_sweep_param`` or ``bad_value``
    at the first step that sweeps an undeclared param with a number or
    sweeps a number that is not finite, else ``duplicate_id`` at the first
    id that repeats among the ids of its expansion, each written out. The
    reference for the sweep checks ``parse_spec`` makes without expanding."""
    for step in doc["steps"]:
        repeat = step.get("repeat") or {}
        numbers = [(name, v) for name, values in repeat.items()
                   for v in values if not isinstance(v, dict)]
        if any(name not in step.get("params", {}) for name, _ in numbers):
            return "unknown_sweep_param", f"steps[{step['id']}]"
        if not all(math.isfinite(v) for _, v in numbers):
            return "bad_value", f"steps[{step['id']}]"
    seen: set[str] = set()
    for step in doc["steps"]:
        repeat = step.get("repeat")
        ids = [step["id"]] if not repeat else [
            f"{step['id']}#{k}" for k in range(math.prod(map(len, repeat.values())))]
        for step_id in ids:
            if step_id in seen:
                return "duplicate_id", step_id
            seen.add(step_id)
    return None


def sweep_columns(step) -> list[tuple[list[Quantity], list[int]]]:
    """Per swept param of a parsed step, its distinct quantities and for
    each value the index of its quantity, keyed and converted value by
    value: the reference for ``StepSpec.columns``, which the parse sets
    as it validates the values."""
    columns = []
    for pname, values in step.repeat.items():
        quantities: list[Quantity] = []
        seen: dict = {}
        indices = []
        for value in values:
            # A number becomes a float in the template's unit, so 1 and 1.0
            # give one quantity; 0.0 and -0.0 are equal but print apart. A
            # quantity keeps its value's type.
            if isinstance(value, dict):
                key = (repr(value["value"]), value.get("unit", ""))
            else:
                key = value if value else repr(float(value))
            if key not in seen:
                seen[key] = len(quantities)
                quantities.append(
                    Quantity.from_dict(value) if isinstance(value, dict)
                    else Quantity(float(value), step.params[pname].unit)
                )
            indices.append(seen[key])
        columns.append((quantities, indices))
    return columns


def with_device(state: LabState, device: DeviceRecord) -> LabState:
    """``state`` with ``device`` added, or replacing the record of its id."""
    return replace(state, devices={**state.devices, device.device_id: device})


class NoDataError(EacError):
    """Query over an empty record set."""


@record
class TelemetryStore:
    """Telemetry records kept in memory, for tests that query a run's records."""

    _records: list[TelemetryRecord] = field(default_factory=list)

    def record(self, rec: TelemetryRecord) -> None:
        self._records.append(rec)

    def query(self, run_id: str) -> list[TelemetryRecord]:
        return [r for r in self._records if r.run_id == run_id]

    def __len__(self) -> int:
        return len(self._records)

    def report_argmax(self, run_id: str, field_name: str) -> dict:
        """Record maximizing a field; ties go to the earliest record."""
        best: TelemetryRecord | None = None
        best_value = float("-inf")
        for rec in self.query(run_id):
            if field_name not in rec.fields:
                continue
            value = rec.fields[field_name].value
            if value > best_value:
                best, best_value = rec, value
        if best is None:
            raise NoDataError(f"no records with field {field_name!r} in run {run_id!r}")
        return {"value": best_value, "at": dict(best.fields)}


def count_mode_transitions(plan, dag: WorkflowDAG, state: LabState) -> int:
    """Number of device mode switches a plan incurs (initial switch included)."""
    current: dict[str, str | None] = {}
    transitions = 0
    for a in sorted(plan.assignments, key=lambda a: (a.start, a.node_id)):
        node = dag.nodes[a.node_id]
        if node.mode is None:
            continue
        prev = current.get(a.device_id, state.devices[a.device_id].mode
                           if a.device_id in state.devices else None)
        if prev != node.mode:
            transitions += 1
        current[a.device_id] = node.mode
    return transitions


def random_dag(seed: int):
    """Seeded random workflow instance: DAG, lab state, and registry."""
    rng = random.Random(seed)
    n = rng.randint(4, 20)
    n_devices = rng.randint(1, 5)
    n_bindings = rng.randint(1, n_devices)
    warmup = rng.choice([0, 10, 30])
    cooldown = rng.choice([0, 20, 50])
    lab = {
        "devices": [
            {"device_id": f"w{i}", "capability": "work"} for i in range(n_devices)
        ],
        "capabilities": {
            "work": {
                "operations": {"go": {"params": {}}},
                "transitions": {"warmup": warmup, "cooldown": cooldown},
            }
        },
    }
    registry = registry_from_lab_config(lab)
    state = genesis_from_lab_config(lab)

    nodes = {}
    for i in range(n):
        nid = f"n{i:02d}"
        nodes[nid] = OpNode(
            node_id=nid,
            binding=f"b{rng.randrange(n_bindings)}",
            operation="go",
            kind="action",
            est_duration=float(rng.randint(1, 5)),
            mode=rng.choice([None, "T298", "T310", "T330"]),
        )
    ids = sorted(nodes)
    edges = set()
    for j in range(1, n):
        # Keep the graph connected enough that enumeration stays tractable.
        if rng.random() < 0.7:
            edges.add((ids[rng.randrange(j)], ids[j], "flow"))
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(j)
            if rng.random() < 0.3:
                edges.add((ids[i], ids[j], "flow"))
    dag = WorkflowDAG(
        nodes=nodes,
        edges=tuple(sorted(edges)),
        bindings={f"b{i}": {"capability": "work"} for i in range(n_bindings)},
    )
    return dag, state, registry


def latency_dag(seed: int):
    """Seeded random workflow instance whose devices pay for mode changes:
    DAG, lab state, and registry.

    Unlike ``random_dag``'s, its capabilities have ``reconfigure`` tables
    with zero and nonzero entries (about a third charge nothing at all),
    its devices may start in a mode, each capability has more bindings
    than devices, so that bindings share a device, some nodes take no
    time, and some edges are repeated under another edge kind. Durations
    and latencies are not all whole numbers, so start times are sums
    that round.
    """
    rng = random.Random(seed)
    modes = ["A", "B", "C"]
    capabilities, devices, bindings = {}, [], []
    for c in range(rng.randint(1, 3)):
        free = rng.random() < 0.3
        capabilities[f"c{c}"] = {
            "operations": {"go": {"params": {}}},
            "transitions": {
                "warmup": 0 if free else rng.choice([0, 0, 4]),
                "cooldown": 0 if free else rng.choice([0, 0.3, 6]),
                "reconfigure": {
                    f"{old}->{new}": 0 if free else rng.choice([0, 0, 0.1, 7.5])
                    for old in modes for new in modes if old != new and rng.random() < 0.5
                },
            },
        }
        n_devices = rng.randint(1, 2)
        devices += [{"device_id": f"c{c}d{k}", "capability": f"c{c}",
                     "mode": rng.choice([None, *modes])} for k in range(n_devices)]
        bindings += [(f"c{c}b{k}", f"c{c}") for k in range(n_devices + rng.randint(1, 2))]
    # Its own capabilities alone: parsing the built-in ones costs more
    # than scheduling the instance.
    registry = CapabilityRegistry()
    for name, obj in capabilities.items():
        registry.register(schema_from_dict(name, obj))
    state = genesis_from_lab_config({"devices": devices})

    n = rng.randint(2, 14)
    ids = [f"n{i:02d}" for i in range(n)]
    nodes = {
        nid: OpNode(
            node_id=nid,
            binding=rng.choice(bindings)[0],
            operation="go",
            kind="action",
            est_duration=rng.choice([0.0, 0.0, 0.1, 0.7, 1.0, 2.5, 4.0]),
            mode=rng.choice([None, *modes]),
        )
        for nid in ids
    }
    kinds = ["flow", "dep", "setup", "teardown"]
    edges = set()
    for j in range(1, n):
        for _ in range(rng.randint(0, 2)):
            src, kind = ids[rng.randrange(j)], rng.choice(kinds)
            edges.add((src, ids[j], kind))
            if rng.random() < 0.3:
                edges.add((src, ids[j], rng.choice([k for k in kinds if k != kind])))
    dag = WorkflowDAG(
        nodes=nodes,
        edges=tuple(sorted(edges)),
        bindings={name: {"capability": cap} for name, cap in bindings},
    )
    return dag, state, registry


def brute_force_makespan(dag, state, registry, devices) -> float:
    """Exact minimum makespan over every dispatch order, for small DAGs.

    Enumerates topological orders with memoized branch-and-bound; inserting
    idle time never helps in this model, so this is optimal.
    """
    from eaclab.capabilities import TransitionLatency

    latencies: dict[str, TransitionLatency] = {}
    for nid, node in dag.nodes.items():
        cap = dag.bindings.get(node.binding, {}).get("capability")
        latencies[nid] = (
            registry.get(cap).transitions if cap and cap in registry
            else TransitionLatency()
        )
    preds = {nid: dag.predecessors(nid) for nid in dag.nodes}
    succs = {nid: dag.successors(nid) for nid in dag.nodes}
    all_ids = frozenset(dag.nodes)
    init_mode = {
        d: (state.devices[d].mode if d in state.devices else None)
        for d in set(devices.values())
    }
    best = [float("inf")]
    seen: dict = {}

    def dfs(done: frozenset, done_at, free, mode, current: float):
        if current >= best[0]:
            return
        if done == all_ids:
            best[0] = current
            return
        frontier = tuple(
            sorted((nid, done_at[nid]) for nid in done if any(s not in done for s in succs[nid]))
        )
        key = (done, frontier, tuple(sorted(free.items())), tuple(sorted(mode.items())))
        prior = seen.get(key)
        if prior is not None and prior <= current:
            return
        seen[key] = current
        ready = [nid for nid in sorted(all_ids - done) if all(p in done for p in preds[nid])]
        for nid in ready:
            node = dag.nodes[nid]
            device = devices[node.binding]
            cost = latencies[nid].cost(mode[device], node.mode)
            earliest = max([done_at[p] for p in preds[nid]] or [0.0])
            start = max(earliest, free[device]) + cost
            end = start + node.est_duration
            new_mode = dict(mode)
            if node.mode is not None:
                new_mode[device] = node.mode
            new_free = dict(free)
            new_free[device] = end
            new_done_at = dict(done_at)
            new_done_at[nid] = end
            dfs(done | {nid}, new_done_at, new_free, new_mode, max(current, end))

    dfs(frozenset(), {}, {d: 0.0 for d in init_mode}, dict(init_mode), 0.0)
    return best[0]


class _FifoQueue:
    """Ready nodes in topological order."""

    def __init__(self, rank: dict[str, int]) -> None:
        self._rank = rank
        self._heap: list[tuple[int, str, float]] = []

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, nid: str, earliest: float) -> None:
        heapq.heappush(self._heap, (self._rank[nid], nid, earliest))

    def pop(self, free, mode) -> tuple[str, float]:
        _, nid, earliest = heapq.heappop(self._heap)
        return nid, earliest


class _BatchedQueue:
    """Ready nodes by the batched key, least first.

    The key of a ready node on device d is (cost > 0, start, est_duration,
    node_id), where cost is the transition latency from d's mode to the
    node's mode and start = max(earliest, free[d]) + cost. Only the device
    of the last pick changes its free time and mode, so nodes are kept in
    one group per (binding, mode): every node of a group has the same cost.
    Within a cost-free group the order is exact without any re-scoring:
    nodes whose earliest start has passed free[d] ("available") all start
    at free[d] and are ordered by (est_duration, node_id); the others
    ("waiting") start at their earliest and are ordered by (earliest,
    est_duration, node_id). free[d] only grows, so a node moves from
    waiting to available at most once. When every ready node would pay a
    transition, the keys are computed one by one, as floating-point sums
    may tie where their addends do not.
    """

    def __init__(self, dag: WorkflowDAG, devices: dict[str, str], latency: dict) -> None:
        self._dag = dag
        self._devices = devices
        self._latency = latency
        self._earliest: dict[str, float] = {}  # the ready nodes
        self._waiting: dict[tuple, list[tuple[float, float, str]]] = {}
        self._available: dict[tuple, list[tuple[float, str]]] = {}

    def __bool__(self) -> bool:
        return bool(self._earliest)

    def push(self, nid: str, earliest: float) -> None:
        node = self._dag.nodes[nid]
        self._earliest[nid] = earliest
        group = (node.binding, node.mode)
        self._available.setdefault(group, [])
        heapq.heappush(
            self._waiting.setdefault(group, []), (earliest, node.est_duration, nid)
        )

    def pop(self, free: dict[str, float], mode: dict[str, str | None]) -> tuple[str, float]:
        best = None
        for group in list(self._waiting):
            binding, node_mode = group
            device = self._devices[binding]
            if self._latency[binding].cost(mode.get(device), node_mode) > 0:
                continue
            top = self._top(group, free[device])
            if top is not None and (best is None or top < best):
                best = top
        if best is None:
            best = min(self._key(nid, free, mode) for nid in self._earliest)
        nid = best[-1]
        return nid, self._earliest.pop(nid)

    def _top(self, group: tuple, free: float) -> tuple | None:
        """Least (start, est_duration, node_id) of a cost-free group."""
        live = self._earliest
        waiting, available = self._waiting[group], self._available[group]
        while waiting and (waiting[0][0] <= free or waiting[0][2] not in live):
            _, duration, nid = heapq.heappop(waiting)
            if nid in live:
                heapq.heappush(available, (duration, nid))
        while available and available[0][1] not in live:
            heapq.heappop(available)
        if available:
            return (free, *available[0])
        if waiting:
            return waiting[0]
        del self._waiting[group], self._available[group]
        return None

    def _key(self, nid: str, free, mode) -> tuple:
        node = self._dag.nodes[nid]
        device = self._devices[node.binding]
        cost = self._latency[node.binding].cost(mode.get(device), node.mode)
        start = max(self._earliest[nid], free[device]) + cost
        return (cost > 0, start, node.est_duration, nid)


def reference_list_schedule(
    dag: WorkflowDAG,
    state: LabState,
    registry: CapabilityRegistry,
    devices: dict[str, str],
    prefer_mode_match: bool,
) -> list[tuple[float, str, str, float, float]]:
    """Graham list scheduling: repeatedly dispatch the least ready node.
    The reference that ``scheduler.schedule``'s two passes over its
    integer index of the DAG are tested against, with a queue object per
    policy over string-keyed dicts.

    ``fifo`` takes ready nodes in topological order, ``batched`` by the
    key described at ``_BatchedQueue``. A node's earliest start (the end of
    its last predecessor, or 0) is fixed once it becomes ready. Each device
    starts free at 0 in its mode in ``state``. Returns (start, node_id,
    device, end, transition) tuples by start, then node_id.
    """
    rank = topo_rank(dag)
    predecessors, successors = dag.predecessor_index, dag.successor_index
    free: dict[str, float] = dict.fromkeys(devices.values(), 0.0)
    mode: dict[str, str | None] = {
        device: state.devices[device].mode if device in state.devices else None
        for device in free
    }
    latency = {
        binding: registry.get(dag.bindings[binding]["capability"]).transitions
        for binding in devices
    }

    # Predecessor index entries, an edge counted once per edge kind, as the
    # successor loop below decrements once per entry.
    unmet = {nid: len(predecessors[nid]) for nid in rank}
    earliest = dict.fromkeys(rank, 0.0)  # the latest end of a finished predecessor
    slots: list[tuple[float, str, str, float, float]] = []
    ready = (
        _BatchedQueue(dag, devices, latency) if prefer_mode_match else _FifoQueue(rank)
    )
    for nid, count in unmet.items():
        if count == 0:
            ready.push(nid, 0.0)
    while ready:
        nid, at = ready.pop(free, mode)
        node = dag.nodes[nid]
        device = devices[node.binding]
        cost = latency[node.binding].cost(mode.get(device), node.mode)
        start = max(at, free[device]) + cost
        end = start + node.est_duration
        slots.append((start, nid, device, end, cost))
        free[device] = end
        if node.mode is not None:
            mode[device] = node.mode
        for succ in successors[nid]:
            if end > earliest[succ]:
                earliest[succ] = end
            unmet[succ] -= 1
            if unmet[succ] == 0:
                ready.push(succ, earliest[succ])

    slots.sort()  # node ids are unique, so (start, node_id) decides
    return slots


def dependency_cycle_recursive(steps) -> list[str] | None:
    """One cycle of the steps' dependency relation, found by a recursive
    depth-first search: the reference ``specmodel._dependency_cycle``, which
    keeps its own stack, is tested against. Recursion limits the depth."""
    adjacency = {s.step_id: s.depends_on for s in steps}
    WHITE, GREY, BLACK = 0, 1, 2
    color = {sid: WHITE for sid in adjacency}
    stack: list[str] = []

    def visit(sid: str) -> list[str] | None:
        color[sid] = GREY
        stack.append(sid)
        for dep in adjacency[sid]:
            if color[dep] == GREY:
                return stack[stack.index(dep):] + [dep]
            if color[dep] == WHITE:
                found = visit(dep)
                if found:
                    return found
        stack.pop()
        color[sid] = BLACK
        return None

    for sid in sorted(adjacency):
        if color[sid] == WHITE:
            found = visit(sid)
            if found:
                return found
    return None


def _value_in(q, unit: str) -> float | None:
    """``q``'s value in ``unit``, or None in another dimension. Past every
    float on the way through the canonical unit, it is ``q``'s value
    times the ratio of the two units: an infinity only when it is past
    every float in ``unit`` too."""
    if unit_dimension(q.unit) != unit_dimension(unit):
        return None
    try:
        return canonicalize_units(q, unit).value
    except UnitError:
        return q.value * (to_canonical(Quantity(1.0, q.unit)).value
                          / to_canonical(Quantity(1.0, unit)).value)


def _param_problems(schema, op, params) -> list[tuple[str, str]]:
    """(code, message) of each range, unit, completeness, ``integer``,
    frame-resolution and ``below`` problem of one step's params, in the
    operation's param order, then each unknown param by name, written
    out apart from ``capabilities``: the reference for
    ``ParamSchema.check`` and ``check_below``."""
    configure = schema.operations.get(op.configure_via)
    frames = [op.frame or (), getattr(configure, "frame", None) or ()]
    # (param, scale) of every field that writes an integer.
    integer_fields = [(part[0], part[1]) for frame in frames for part in frame
                      if isinstance(part, tuple) and part[3] != "number"]
    problems = []
    for name, p in op.params.items():
        if name not in params:
            if not p.optional:
                problems.append(("missing_param", f"missing parameter {name!r}"))
            continue
        value = _value_in(params[name], p.unit)
        if value is None:
            problems.append(("bad_unit", f"{name!r}: unit {params[name].unit!r} "
                                         f"incompatible with {p.unit!r}"))
            continue
        coarse = [scale for param, scale in integer_fields if param == name and math.isfinite(
            value) and not math.isclose(value * scale, round(value * scale), rel_tol=1e-12,
                                        abs_tol=1e-12)]
        if not p.min <= value <= p.max:
            problems.append(("out_of_range", f"{name!r}={value:g} {p.unit} outside "
                                             f"[{p.min:g}, {p.max:g}]"))
        elif p.integer and value != int(value):
            problems.append(("bad_value", f"{name!r}={value:g} is not an integer"))
        elif coarse:
            problems.append(("bad_value", f"{name!r}={value:g} {p.unit} is not a whole "
                                          f"number of {1 / coarse[0]:g} {p.unit}"))
        elif p.below in params:
            bound = _value_in(params[p.below], p.unit)
            if bound is not None and value >= bound:
                problems.append(("out_of_range", f"{name!r}={value:g} {p.unit} is not below "
                                                 f"{p.below!r}={bound:g} {p.unit}"))
    problems.extend(("unknown_param", f"unknown parameter {name!r}")
                    for name in sorted(params) if name not in op.params)
    return problems


def static_check_per_step(spec, registry, state) -> list[Diagnostic]:
    """The static check with every step checked on its own: the reference
    ``compiler.static_check``, which checks each distinct value once, is
    tested against. ``spec`` is parsed, so it has no cycle."""
    diagnostics: list[Diagnostic] = []
    for binding in spec.resources:
        if binding.capability not in registry:
            diagnostics.append(Diagnostic(
                "unknown_capability", binding.binding_name,
                f"capability {binding.capability!r} is not registered",
            ))
            continue
        if not any(
            record.capability == binding.capability
            and (binding.selector is None or device_id == binding.selector)
            for device_id, record in state.devices.items()
        ):
            diagnostics.append(Diagnostic(
                "unsatisfiable_binding", binding.binding_name,
                f"no device provides capability {binding.capability!r}",
            ))
    for step in spec.steps:
        binding = spec.binding(step.binding)
        if binding.capability not in registry:
            continue
        schema = registry.get(binding.capability)
        if step.operation not in schema.operations:
            diagnostics.append(Diagnostic(
                "unknown_operation", step.step_id,
                f"{binding.capability} has no operation {step.operation!r}",
            ))
            continue
        for code, message in _param_problems(
                schema, schema.operation(step.operation), step.params):
            diagnostics.append(Diagnostic(code, step.step_id, message))
        for predicate in schema.safety.conditions:
            if predicate.field not in step.params:
                continue
            quantity = step.params[predicate.field]
            commanded = _value_in(quantity, CANONICAL_UNITS[unit_dimension(quantity.unit)])
            threshold = to_canonical(predicate.threshold).value
            if not predicate.holds(commanded, threshold):
                diagnostics.append(Diagnostic(
                    "safety_violation", step.step_id,
                    f"{predicate.field} {predicate.comparator} {threshold:g} violated "
                    f"by commanded value {commanded:g}",
                ))
    return diagnostics


def lowered_params_per_step(spec, registry) -> dict[str, dict]:
    """``params``, ``mode`` and ``est_duration``, as ``OpNode`` fields, of
    every configure and main node of a clean spec, with each step's
    params converted on their own: the reference for the nodes
    ``compiler.compile_spec`` lowers once per distinct configuration."""
    lowered: dict[str, dict] = {}
    for step in spec.steps:
        schema = registry.get(spec.binding(step.binding).capability)
        op = schema.operation(step.operation)
        canonical = {name: to_canonical(q) for name, q in step.params.items()}
        if "temperature" in canonical:
            mode = f"T{round(canonical['temperature'].value)}"
        elif op.kind == "configure" or op.configure_via is not None:
            cfg = {name: q.to_dict() for name, q in sorted(canonical.items())}
            mode = "cfg-" + sha256_hex(cfg)[:8]
        else:
            mode = None
        main = canonical
        if op.configure_via is not None:
            cfg_schema = schema.operation(op.configure_via)
            cfg = {k: q for k, q in canonical.items() if k in cfg_schema.params}
            main = {k: q for k, q in canonical.items() if k not in cfg_schema.params}
            lowered[f"{step.step_id}:cfg"] = {
                "params": cfg,
                "mode": mode,
                "est_duration": cfg_schema.duration(cfg),
            }
        lowered[step.step_id] = {
            "params": main,
            "mode": mode,
            "est_duration": op.duration(canonical),
        }
    return lowered


class ReferenceUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, its subparsers' included, raise
    ``ReferenceUsageError`` rather than print usage text and exit."""

    def error(self, message):
        raise ReferenceUsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The ``argparse`` parser ``eaclab.cli`` read its command line with
    before ``cli.COMMANDS``: the reference its table is checked against."""
    parser = _Parser(
        prog="eaclab",
        description="Declarative experiment stack: validate, plan, and run "
        "experiment configs against a simulated device fleet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="statically check a spec")
    p.add_argument("spec")
    p.add_argument("--lab", default=None)

    p = sub.add_parser("plan", help="compile and schedule a spec")
    p.add_argument("spec")
    p.add_argument("--lab", default=None)
    p.add_argument("--policy", choices=("fifo", "batched"), default="batched")

    p = sub.add_parser("run", help="execute a spec in simulation")
    p.add_argument("spec")
    p.add_argument("--lab", default=None)
    p.add_argument("--policy", choices=("fifo", "batched"), default="batched")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject", default=None,
                   help="fault schedule: kind@index[,kind@index...] or JSON file")
    p.add_argument("--out", default="runs")

    p = sub.add_parser("state", help="print the device table")
    p.add_argument("--lab", default=None)
    p.add_argument("--run", default=None, help="run directory to replay")

    p = sub.add_parser("resume", help="continue a paused run")
    p.add_argument("run_dir")
    p.add_argument("--lab", default=None)
    p.add_argument("--clear", default=None,
                   help="device id whose fault an operator has cleared")

    return parser
