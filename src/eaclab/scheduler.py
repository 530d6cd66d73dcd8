"""State-aware assignment of workflow nodes to devices over virtual time.

Two policies ship in-tree: ``fifo`` dispatches nodes in deterministic
topological order; ``batched`` prefers ready nodes whose mode matches the
target device's current mode, amortizing reconfiguration latency, and
falls back to the FIFO plan whenever that would finish sooner (so a
batched plan never loses to FIFO). Both list-scheduling passes read the
DAG's integer index, ``WorkflowDAG.graph``, and one call's columns of it.
Under both policies the plan lists its batches, each device's maximal
runs of nodes in one mode, as it runs them.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from eaclab.canon import canonical_json, sha256_text
from eaclab.capabilities import CapabilityRegistry
from eaclab.compiler import Graph, WorkflowDAG, validate_dag
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
    graph, nodes = validate_dag(dag), dag.nodes
    order = list(dict.fromkeys(nodes[graph.ids[i]].binding for i in graph.order))
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


class _DagIndex:
    """The per-node columns of one ``schedule`` call, over the indices of
    the DAG's ``Graph``, read by both passes beside it.

    Device j is the j-th resolved device id in sorted order. Per node the
    columns hold its device, ``est_duration``, mode and the transition
    latency of its binding's capability.

    ``group`` is each node's ready group in the batched pass. A binding
    whose capability charges no transition (warmup, cooldown and every
    ``reconfigure`` entry zero) keeps its ready nodes in one group, whose
    ``group_latency`` is None: its cost is never asked. Every other binding
    keeps one group per (binding, mode), so all nodes of a group pay one
    transition cost on the group's device.
    """

    def __init__(self, dag: WorkflowDAG, graph: Graph, state: LabState,
                 registry: CapabilityRegistry, devices: dict[str, str]) -> None:
        self.device_ids = sorted(set(devices.values()))
        device_index = dict(zip(self.device_ids, range(len(self.device_ids))))
        self.initial_mode = [state.devices[device].mode if device in state.devices else None
                             for device in self.device_ids]
        # binding -> (device, latency, the latency if it ever charges, else None)
        bound = {}
        for binding, device in devices.items():
            latency = registry.get(dag.bindings[binding]["capability"]).transitions
            charges = latency.warmup or latency.cooldown or any(latency.reconfigure.values())
            bound[binding] = (device_index[device], latency, latency if charges else None)
        nodes = [dag.nodes[nid] for nid in graph.ids]
        per_node = [bound[node.binding] for node in nodes]
        self.device = [b[0] for b in per_node]
        self.latency = [b[1] for b in per_node]
        self.duration = [node.est_duration for node in nodes]
        self.mode = [node.mode for node in nodes]
        groups: dict[tuple[str, str | None], int] = {}
        self.group = [
            groups.setdefault((node.binding, node.mode if b[2] else None), len(groups))
            for node, b in zip(nodes, per_node)
        ]
        self.group_device = [bound[binding][0] for binding, _ in groups]
        self.group_latency = [bound[binding][2] for binding, _ in groups]
        self.group_mode = [mode for _, mode in groups]


def _list_schedule(graph: Graph, ix: _DagIndex,
                   batched: bool) -> list[tuple[float, int, int, float, float]]:
    """Graham list scheduling: repeatedly dispatch the least ready node.

    ``fifo`` takes the nodes in ``graph.order``, as the least-ranked ready
    node is always the next one in it. ``batched`` takes the ready node of
    least key (cost > 0, start, est_duration, node), where cost is the
    transition latency from its device's mode to the node's mode and
    start = max(earliest, free[device]) + cost. Only the device of
    the last pick changes its free time and mode, so ready nodes are kept
    in ``_DagIndex.group``s, each of one cost. Within a cost-free group the
    order is exact without any re-scoring: nodes whose earliest start has
    passed the device's free time ("available") all start then and are
    ordered by (est_duration, node); the others ("waiting") start at their
    earliest and are ordered by (earliest, est_duration, node). Free times
    only grow, so a node moves from waiting to available at most once.
    When every ready node would pay a transition, the keys are computed one
    by one, as floating-point sums may tie where their addends do not.

    A node's earliest start (the end of its last predecessor, or 0) is
    fixed once it becomes ready. Each device starts free at 0 in its lab
    mode. Returns (start, node, device, end, transition) in pick order.
    """
    device, duration, modes, latency = ix.device, ix.duration, ix.mode, ix.latency
    successors, group = graph.successors, ix.group
    group_device, group_latency, group_mode = ix.group_device, ix.group_latency, ix.group_mode
    unmet = [len(preds) for preds in graph.predecessors]  # an edge once per edge kind
    earliest = [0.0] * len(unmet)  # the latest end of a finished predecessor
    free = [0.0] * len(ix.device_ids)
    mode = ix.initial_mode.copy()
    ready: set[int] = set()
    active: dict[int, None] = {}  # the groups that may hold ready nodes
    waiting: list[list[tuple[float, float, int]]] = [[] for _ in group_device]  # per group
    available: list[list[tuple[float, int]]] = [[] for _ in group_device]
    if batched:
        for i, count in enumerate(unmet):
            if count == 0:
                ready.add(i)
                active[group[i]] = None
                heapq.heappush(waiting[group[i]], (0.0, duration[i], i))
    slots: list[tuple[float, int, int, float, float]] = []
    for i in graph.order:  # the fifo pick; batched makes its own
        if batched:
            best, emptied = None, []
            for g in active:
                d = group_device[g]
                if group_latency[g] is not None and group_latency[g].cost(
                        mode[d], group_mode[g]) > 0:
                    continue
                at, wait, avail = free[d], waiting[g], available[g]
                while wait and (wait[0][0] <= at or wait[0][2] not in ready):
                    _, length, j = heapq.heappop(wait)
                    if j in ready:
                        heapq.heappush(avail, (length, j))
                while avail and avail[0][1] not in ready:
                    heapq.heappop(avail)
                if avail:
                    top = (at, *avail[0])
                elif wait:
                    top = wait[0]
                else:
                    emptied.append(g)
                    continue
                if best is None or top < best:
                    best = top
            for g in emptied:
                del active[g]
            if best is None:  # every ready node pays a transition
                for j in ready:
                    d = device[j]
                    cost = latency[j].cost(mode[d], modes[j])
                    key = (cost > 0, max(earliest[j], free[d]) + cost, duration[j], j)
                    if best is None or key < best:
                        best = key
            i = best[-1]
            ready.remove(i)
        d = device[i]
        cost = latency[i].cost(mode[d], modes[i])
        start = max(earliest[i], free[d]) + cost
        end = start + duration[i]
        slots.append((start, i, d, end, cost))
        free[d] = end
        if modes[i] is not None:
            mode[d] = modes[i]
        for succ in successors[i]:
            if end > earliest[succ]:
                earliest[succ] = end
            unmet[succ] -= 1
            if unmet[succ] == 0 and batched:
                ready.add(succ)
                active[group[succ]] = None
                heapq.heappush(waiting[group[succ]], (earliest[succ], duration[succ], succ))
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
    graph = validate_dag(dag)
    if not dag.nodes:
        return ExecutionPlan(assignments=(), batches=(), makespan=0.0, policy=policy)
    ix = _DagIndex(dag, graph, state, registry, resolve_bindings(dag, state, registry))
    chosen = _list_schedule(graph, ix, batched=False)
    makespan = max(slot[3] for slot in chosen)
    if policy == "batched":
        greedy = _list_schedule(graph, ix, batched=True)
        greedy_makespan = max(slot[3] for slot in greedy)
        if greedy_makespan <= makespan:
            chosen, makespan = greedy, greedy_makespan
    # Node indices are unique, so (start, node) decides the plan order.
    ids, device_ids = graph.ids, ix.device_ids
    chosen = [(start, ids[i], device_ids[d], end, cost)
              for start, i, d, end, cost in sorted(chosen)]
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
