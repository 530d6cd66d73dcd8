"""Static checking and lowering of specs into workflow DAGs.

A spec is checked and lowered with its sweeps, or expanded: a swept step
gives the diagnostics and nodes of its instances ``step#k``, in expansion
order, and each distinct configuration of its sweep is checked and
lowered once.

Lowering rules: each used binding gets one connect node before its first
operation and one teardown node after its last; operations that declare a
companion configure op are split into configure + measure nodes;
stabilization constraints lower to stabilize nodes. Original step
dependencies become edges between the lowered node groups. Every node's
``est_duration`` is the clock its operation's schema declares, except a
stabilize node's, which is its declared hold. Live-state checks are not
lowered to nodes: the executor checks live state right before every
dispatch.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from eaclab.canon import sha256_hex
from eaclab.capabilities import DEFAULT_DURATION_S, CapabilityRegistry, OperationSchema
from eaclab.errors import CompileError, CycleError
from eaclab.labstate import LabState
from eaclab.records import field, record
from eaclab.specmodel import ExperimentSpec, instance_ids, step_instances
from eaclab.units import Quantity, to_canonical


@record(frozen=True)
class Diagnostic:
    """A static error of a spec."""

    code: str
    locus: str
    message: str

    def render(self) -> str:
        return f"{self.code} error {self.locus}: {self.message}"


@record(frozen=True)
class OpNode:
    node_id: str
    binding: str
    operation: str
    kind: str
    params: dict[str, Quantity] = field(default_factory=dict)
    idempotent: bool = False
    est_duration: float = DEFAULT_DURATION_S
    mode: str | None = None
    # Stabilization detail for stabilize nodes: mode/duration_s/signal.
    stab: dict | None = None


@record(frozen=True)
class WorkflowDAG:
    nodes: dict[str, OpNode]
    edges: tuple[tuple[str, str, str], ...]
    # binding name -> {capability, selector, constraints}
    bindings: dict[str, dict] = field(default_factory=dict)

    # The adjacency indexes and the topological order below are computed on
    # first use and cached on the instance; they are derived from the
    # fields, so equality never sees them.

    @cached_property
    def successor_index(self) -> dict[str, tuple[str, ...]]:
        """Sorted successors of every node (an edge repeated per edge kind)."""
        return _adjacency(self.nodes, ((src, dst) for src, dst, _ in self.edges))

    @cached_property
    def predecessor_index(self) -> dict[str, tuple[str, ...]]:
        """Sorted predecessors of every node (an edge repeated per edge kind)."""
        return _adjacency(self.nodes, ((dst, src) for src, dst, _ in self.edges))

    @cached_property
    def _topo_rank(self) -> dict[str, int] | None:
        """Kahn's algorithm, ties broken by ascending node_id; None on a cycle."""
        indegree = {nid: 0 for nid in self.nodes}
        for _, dst, _ in self.edges:
            indegree[dst] += 1
        ready = [nid for nid, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        rank: dict[str, int] = {}
        successors = self.successor_index
        while ready:
            nid = heapq.heappop(ready)
            rank[nid] = len(rank)
            for succ in successors[nid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        return rank if len(rank) == len(self.nodes) else None

    def successors(self, node_id: str) -> list[str]:
        return list(self.successor_index.get(node_id, ()))

    def predecessors(self, node_id: str) -> list[str]:
        return list(self.predecessor_index.get(node_id, ()))


def _adjacency(nodes, pairs) -> dict[str, tuple[str, ...]]:
    index: dict[str, list[str]] = {nid: [] for nid in nodes}
    for key, value in pairs:
        index.setdefault(key, []).append(value)
    return {key: tuple(sorted(values)) for key, values in index.items()}


def validate_dag(dag: WorkflowDAG) -> None:
    """Check the structural DAG invariants; raises CycleError/CompileError."""
    for src, dst, _ in dag.edges:
        if src not in dag.nodes or dst not in dag.nodes:
            raise CompileError(f"edge endpoint missing: {src} -> {dst}")
    # Raises CycleError on a cycle. An acyclic graph needs no reachability
    # check: walking back along predecessors from any node ends at a node
    # that has none.
    topo_rank(dag)


def topo_rank(dag: WorkflowDAG) -> dict[str, int]:
    """Position of every node in ``topo_order(dag)``, computed once per DAG.

    The mapping is shared by every caller and must not be modified. Raises
    CycleError, on every call, if the graph has a cycle.
    """
    rank = dag._topo_rank
    if rank is None:
        raise CycleError("workflow graph contains a cycle")
    return rank


def topo_order(dag: WorkflowDAG) -> list[str]:
    """Deterministic topological order, ties broken by ascending node_id."""
    return list(topo_rank(dag))


def _canonical_params(params: dict[str, Quantity]) -> dict[str, Quantity]:
    return {name: to_canonical(q) for name, q in params.items()}


def _configuration(capability: str, operation: str, params: dict[str, Quantity]) -> tuple:
    """A step configuration as a key: equal keys give equal checks and nodes,
    since every message and node formats canonical values, in which ``-0.0``
    is ``0.0`` and an int is a float."""
    return capability, operation, tuple([(name, q.value, q.unit) for name, q in params.items()])


def _step_mode(op: OperationSchema, params: dict[str, Quantity]) -> str | None:
    """Device-condition compatibility class for state batching; ``params``
    are the step's canonical params."""
    if "temperature" in params:
        return f"T{round(params['temperature'].value)}"
    if op.kind == "configure" or op.configure_via is not None:
        return "cfg-" + sha256_hex({name: q.to_dict() for name, q in params.items()})[:8]
    return None


def _problems(
    registry: CapabilityRegistry, capability: str, operation: str, params: dict[str, Quantity]
) -> list[tuple[str, str]]:
    """(code, message) of every static error of one step configuration."""
    schema = registry.get(capability)
    if operation not in schema.operations:
        return [("unknown_operation", f"{capability} has no operation {operation!r}")]
    problems = [(violation.code, violation.message)
                for violation in registry.check_param_ranges(capability, operation, params)]
    for predicate, commanded, threshold in schema.safety.violations(params):
        problems.append((
            "safety_violation",
            f"{predicate.field} {predicate.comparator} {threshold:g} violated "
            f"by commanded value {commanded:g}",
        ))
    return problems


def static_check(
    spec: ExperimentSpec, registry: CapabilityRegistry, state: LabState
) -> list[Diagnostic]:
    """All statically decidable errors; empty list means compilable.

    ``spec`` may keep its sweeps: the diagnostics are then those of its
    expansion, each problem of a swept step reported at every instance
    ``step#k`` that has it, in expansion order, without building the
    instances: their ids are built only where a problem is. A sweep
    repeats few configurations over many steps, so each distinct
    configuration is checked once per call and its problems are reported
    at every step that has it. Dependency cycles are not looked for here:
    ``parse_spec`` refuses them.
    """
    diagnostics: list[Diagnostic] = []
    registered: dict[str, str] = {}  # binding -> its capability, when registered
    for binding in spec.resources:
        if binding.capability not in registry:
            diagnostics.append(
                Diagnostic(
                    "unknown_capability", binding.binding_name,
                    f"capability {binding.capability!r} is not registered",
                )
            )
            continue
        registered[binding.binding_name] = binding.capability
        candidates = [
            d for d in sorted(state.devices)
            if state.devices[d].capability == binding.capability
            and (binding.selector is None or d == binding.selector)
        ]
        if not candidates:
            diagnostics.append(
                Diagnostic(
                    "unsatisfiable_binding", binding.binding_name,
                    f"no device provides capability {binding.capability!r}",
                )
            )

    problems: dict[tuple, list[tuple[str, str]]] = {}

    def problems_of(capability: str, operation: str, params: dict[str, Quantity]) -> list:
        key = _configuration(capability, operation, params)
        if key not in problems:
            problems[key] = _problems(registry, capability, operation, params)
        return problems[key]

    for step in spec.steps:
        capability = registered.get(step.binding)
        if capability is None:
            continue  # already diagnosed at the binding
        if step.repeat is None:
            for code, message in problems_of(capability, step.operation, step.params):
                diagnostics.append(Diagnostic(code, step.step_id, message))
            continue
        distinct, which = step.sweep
        found = [problems_of(capability, step.operation, params) for params in distinct]
        if any(found):
            for step_id, index in zip(instance_ids(step), which):
                for code, message in found[index]:
                    diagnostics.append(Diagnostic(code, step_id, message))
    return diagnostics


def _lowering(
    op: OperationSchema, cfg_op: OperationSchema | None, params: dict[str, Quantity]
) -> tuple:
    """How one step configuration lowers: (configure params or None, main
    params, mode, configure clock, main clock). ``cfg_op`` is the schema of
    ``op``'s companion configure operation, if it has one."""
    canonical = _canonical_params(params)
    mode = _step_mode(op, canonical)
    if cfg_op is None:
        return None, canonical, mode, None, op.duration(canonical)
    cfg_params = {k: v for k, v in canonical.items() if k in cfg_op.params}
    main = {k: v for k, v in canonical.items() if k not in cfg_op.params}
    return cfg_params, main, mode, cfg_op.duration(cfg_params), op.duration(canonical)


def compile_spec(
    spec: ExperimentSpec,
    registry: CapabilityRegistry,
    state: LabState,
    diagnostics: list[Diagnostic] | None = None,
) -> WorkflowDAG:
    """Lower a statically clean spec to a WorkflowDAG.

    ``spec`` may keep its sweeps: the DAG is then that of its expansion,
    node for node and in the same order, without building the instances.
    Each distinct configuration (of a swept step, one of
    ``StepSpec.sweep``) is lowered once per call and each step's stabilize
    duration converted once; every instance ``step#k`` is stamped from
    them, with the ids and dependencies of ``step_instances``.
    Raises CompileError if the spec has static errors. ``diagnostics`` is
    ``static_check(spec, registry, state)`` when the caller has already
    run it; otherwise the spec is checked here.
    """
    if diagnostics is None:
        diagnostics = static_check(spec, registry, state)
    if diagnostics:
        raise CompileError(
            "spec has static errors: " + "; ".join(d.render() for d in diagnostics)
        )

    nodes: dict[str, OpNode] = {}
    edges: list[tuple[str, str, str]] = []
    used_bindings: dict = {}  # binding -> its CapabilitySchema, in order of first use
    last_on_binding: dict[str, list[str]] = {}
    lowerings: dict[tuple, tuple] = {}  # configuration -> its _lowering

    for step, ids, deps in step_instances(spec):
        binding = spec.binding(step.binding)
        schema = registry.get(binding.capability)
        op = schema.operation(step.operation)
        connect_id = f"connect:{step.binding}"
        if step.binding not in used_bindings:
            used_bindings[step.binding] = schema
            last_on_binding[step.binding] = []
            nodes[connect_id] = OpNode(
                node_id=connect_id,
                binding=step.binding,
                operation="connect",
                kind="connect",
                idempotent=True,
                est_duration=schema.operation("connect").duration({}),
            )

        cfg_op = None if op.configure_via is None else schema.operation(op.configure_via)
        configurations, which = ([step.params], [0]) if step.repeat is None else step.sweep
        lowered = []
        for params in configurations:
            key = _configuration(binding.capability, step.operation, params)
            if key not in lowerings:
                lowerings[key] = _lowering(op, cfg_op, params)
            lowered.append(lowerings[key])
        stab = None
        if step.stabilization is not None:
            stab = {
                "mode": step.stabilization.mode,
                "duration_s": to_canonical(step.stabilization.duration).value,
                "signal": step.stabilization.signal,
            }
        main_kind = "measure" if op.kind == "read" else "action"

        for step_id, index, step_deps in zip(ids, which, deps):
            cfg_params, params, mode, cfg_duration, main_duration = lowered[index]
            flow: list[str] = []  # the step's nodes, in flow order
            if cfg_op is not None:
                cfg_id = f"{step_id}:cfg"
                nodes[cfg_id] = OpNode(
                    node_id=cfg_id,
                    binding=step.binding,
                    operation=op.configure_via,
                    kind="action",
                    params=cfg_params,
                    idempotent=cfg_op.idempotent,
                    est_duration=cfg_duration,
                    mode=mode,
                )
                flow.append(cfg_id)
            if stab is not None:
                # Stabilization gates the step: the wait completes before
                # the main operation is dispatched.
                stab_id = f"{step_id}:stab"
                nodes[stab_id] = OpNode(
                    node_id=stab_id,
                    binding=step.binding,
                    operation="stabilize",
                    kind="stabilize",
                    idempotent=True,
                    est_duration=stab["duration_s"],
                    stab=stab,
                )
                flow.append(stab_id)
            nodes[step_id] = OpNode(
                node_id=step_id,
                binding=step.binding,
                operation=step.operation,
                kind=main_kind,
                params=params,
                idempotent=op.idempotent,
                est_duration=main_duration,
                mode=mode,
            )
            flow.append(step_id)

            # Every step's last node is its main node, named by its id, so
            # a dependency edge needs no lookup, even of a later step.
            first = flow[0]
            edges.append((connect_id, first, "setup"))
            edges.extend((src, dst, "flow") for src, dst in zip(flow, flow[1:]))
            edges.extend((dep, first, "dep") for dep in step_deps)
            # Mutual exclusion between same-binding steps is the scheduler's
            # job (one device runs one node at a time); no ordering edge is
            # added so batching may reorder independent steps.
            last_on_binding[step.binding].append(step_id)

    for binding_name, schema in used_bindings.items():
        teardown_id = f"teardown:{binding_name}"
        nodes[teardown_id] = OpNode(
            node_id=teardown_id,
            binding=binding_name,
            operation="disconnect",
            kind="teardown",
            idempotent=True,
            est_duration=schema.operation("disconnect").duration({}),
        )
        edges.extend((last, teardown_id, "teardown") for last in last_on_binding[binding_name])

    unique_edges = tuple(sorted(set(edges)))
    bindings = {
        name: {
            "capability": spec.binding(name).capability,
            "selector": spec.binding(name).selector,
            "constraints": dict(spec.binding(name).constraints),
        }
        for name in used_bindings
    }
    dag = WorkflowDAG(nodes=nodes, edges=unique_edges, bindings=bindings)
    validate_dag(dag)
    return dag


def render_tree(dag: WorkflowDAG) -> str:
    """Human-readable rendering in topological order, one line per node.

    Each line starts with the node's depth, the number of edges on the
    longest path from a root to it, written as a number rather than as
    indentation, so the text grows linearly in the number of nodes however
    deep the DAG is.
    """
    depth: dict[str, int] = {}
    lines = []
    predecessors = dag.predecessor_index
    for nid in topo_rank(dag):
        preds = predecessors[nid]
        depth[nid] = 0 if not preds else max(depth[p] for p in preds) + 1
        node = dag.nodes[nid]
        lines.append(f"{depth[nid]} {nid} [{node.kind}] {node.binding}.{node.operation}")
    return "\n".join(lines)
