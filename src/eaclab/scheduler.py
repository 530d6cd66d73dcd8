"""State-aware assignment of workflow nodes to devices over virtual time.

Two policies ship in-tree: ``fifo`` processes nodes in deterministic
topological order; ``batched`` prefers ready nodes whose mode matches the
target device's current mode, amortizing reconfiguration latency, and
falls back to the FIFO ordering whenever that would finish sooner (so a
batched plan never loses to FIFO). Under both policies the plan lists its
batches, each device's maximal runs of nodes in one mode, as it runs them.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from eaclab.canon import canonical_json, sha256_text
from eaclab.capabilities import CapabilityRegistry
from eaclab.compiler import WorkflowDAG, topo_rank, validate_dag
from eaclab.errors import UnschedulableError
from eaclab.labstate import LabState, query_eligible
from eaclab.records import record

POLICIES = ("fifo", "batched")


@record(frozen=True)
class Assignment:
    node_id: str
    device_id: str
    start: float
    end: float
    transition: float = 0.0  # latency charged immediately before start

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "device_id": self.device_id,
            "start": self.start,
            "end": self.end,
            "transition": self.transition,
        }


@record(frozen=True)
class Batch:
    batch_id: str
    device_id: str
    mode: str
    members: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "batch_id": self.batch_id,
            "device_id": self.device_id,
            "mode": self.mode,
            "members": list(self.members),
        }


@record(frozen=True)
class ExecutionPlan:
    assignments: tuple[Assignment, ...]
    batches: tuple[Batch, ...]
    makespan: float
    policy: str

    def to_dict(self) -> dict:
        return {
            "assignments": [a.to_dict() for a in self.assignments],
            "batches": [b.to_dict() for b in self.batches],
            "makespan": self.makespan,
            "policy": self.policy,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ExecutionPlan":
        """The plan ``to_dict`` describes: ``from_dict(p.to_dict()) == p``."""
        if obj["policy"] not in POLICIES:
            raise ValueError(f"unknown policy {obj['policy']!r}")
        return cls(
            assignments=tuple(
                Assignment(
                    node_id=a["node_id"],
                    device_id=a["device_id"],
                    start=float(a["start"]),
                    end=float(a["end"]),
                    transition=float(a["transition"]),
                )
                for a in obj["assignments"]
            ),
            batches=tuple(
                Batch(b["batch_id"], b["device_id"], b["mode"], tuple(b["members"]))
                for b in obj["batches"]
            ),
            makespan=float(obj["makespan"]),
            policy=obj["policy"],
        )

    # The plan is frozen, so its canonical text is computed on first use and
    # cached on the instance; serialize and plan_hash share the one encoding.

    @cached_property
    def _canonical_text(self) -> str:
        return canonical_json(self.to_dict())

    def serialize(self) -> str:
        return self._canonical_text


def plan_hash(plan: ExecutionPlan) -> str:
    return sha256_text(plan.serialize())


@record(frozen=True)
class Checkpoint:
    """Where a paused run stopped: the last node it committed, the state
    epoch of its log (the number of events it holds, the replayed state's
    ``next_seq``), and the hash of the plan it was paused under."""

    run_id: str
    last_committed_node: str | None
    state_epoch: int
    plan_hash: str

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "last_committed_node": self.last_committed_node,
            "state_epoch": self.state_epoch,
            "plan_hash": self.plan_hash,
        }


def resolve_bindings(
    dag: WorkflowDAG,
    state: LabState,
    registry: CapabilityRegistry,
) -> dict[str, str]:
    """Map each binding to one concrete device, deterministically.

    Bindings are resolved in order of first appearance in the topological
    order; each takes the eligible device with the fewest bindings already
    mapped to it, ties broken by ascending device id.
    """
    order = list(dict.fromkeys(dag.nodes[nid].binding for nid in topo_rank(dag)))
    load: dict[str, int] = {}
    resolved: dict[str, str] = {}
    for binding in order:
        info = dag.bindings[binding]
        capability = info["capability"]
        candidates = query_eligible(state, capability, info.get("constraints"), registry)
        selector = info.get("selector")
        if selector is not None:
            candidates = [d for d in candidates if d == selector]
        if not candidates:
            raise UnschedulableError(
                f"no eligible device for binding {binding!r} ({capability})"
            )
        candidates.sort(key=lambda d: (load.get(d, 0), d))
        resolved[binding] = candidates[0]
        load[candidates[0]] = load.get(candidates[0], 0) + 1
    return resolved


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


def _run_list_schedule(
    dag: WorkflowDAG,
    state: LabState,
    registry: CapabilityRegistry,
    devices: dict[str, str],
    prefer_mode_match: bool,
) -> list[tuple[float, str, str, float, float]]:
    """Graham list scheduling: repeatedly dispatch the least ready node.

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


def schedule(
    dag: WorkflowDAG,
    state: LabState,
    registry: CapabilityRegistry,
    policy: str = "batched",
) -> ExecutionPlan:
    """Produce a deterministic, invariant-satisfying execution plan."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    validate_dag(dag)
    if not dag.nodes:
        return ExecutionPlan(assignments=(), batches=(), makespan=0.0, policy=policy)
    devices = resolve_bindings(dag, state, registry)
    chosen = _run_list_schedule(dag, state, registry, devices, prefer_mode_match=False)
    makespan = max(slot[3] for slot in chosen)
    if policy == "batched":
        greedy = _run_list_schedule(dag, state, registry, devices, prefer_mode_match=True)
        greedy_makespan = max(slot[3] for slot in greedy)
        if greedy_makespan <= makespan:
            chosen, makespan = greedy, greedy_makespan
    return ExecutionPlan(
        assignments=tuple(
            Assignment(nid, device, start, end, cost) for start, nid, device, end, cost in chosen
        ),
        batches=batch_compatible(dag, chosen),
        makespan=makespan,
        policy=policy,
    )


def batch_compatible(
    dag: WorkflowDAG, slots: list[tuple[float, str, str, float, float]]
) -> tuple[Batch, ...]:
    """The batches of a plan: each device's maximal runs of one mode.

    ``slots`` are the plan's (start, node_id, device, end, transition)
    tuples in plan order, by start, then node_id. A batch is a run of a
    device's consecutive mode-bearing nodes that share one mode. A node
    without a mode neither joins nor ends a batch, as the device keeps its
    mode across it. Batches are numbered in the plan order of their first
    members.
    """
    batches: list[tuple[str, str, list[str]]] = []
    latest: dict[str, tuple[str, str, list[str]]] = {}  # device -> its latest batch
    for _, nid, device, _, _ in slots:
        mode = dag.nodes[nid].mode
        if mode is None:
            continue
        batch = latest.get(device)
        if batch is None or batch[1] != mode:
            batch = latest[device] = (device, mode, [])
            batches.append(batch)
        batch[2].append(nid)
    return tuple(
        Batch(f"b{i}", device, mode, tuple(members))
        for i, (device, mode, members) in enumerate(batches)
    )
