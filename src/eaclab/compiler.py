"""Static checking and lowering of specs into workflow DAGs.

A spec is checked and lowered with its sweeps, or expanded: a swept step
gives the diagnostics and nodes of its instances ``step#k``, in expansion
order. The check looks at each distinct value of each param once, so it
costs what the distinct values cost, however many instances a sweep's
product makes; lowering builds each distinct configuration of a sweep
once. An expanded spec, whose instance steps share their params dicts
and stabilizations (``expand_sweeps``, ``parse_spec``), is checked once
per distinct configuration of its steps and lowered as its template is.

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
import itertools
from functools import cached_property

from eaclab.canon import sha256_hex
from eaclab.capabilities import (
    DEFAULT_DURATION_S,
    CapabilityRegistry,
    CapabilitySchema,
    OperationSchema,
    Violation,
)
from eaclab.errors import CompileError, CycleError
from eaclab.labstate import LabState
from eaclab.records import field, record
from eaclab.specmodel import ExperimentSpec, StepSpec, instance_ids, step_instances
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


def _step_mode(op: OperationSchema, params: dict[str, Quantity]) -> str | None:
    """Device-condition compatibility class for state batching; ``params``
    are the step's canonical params."""
    if "temperature" in params:
        return f"T{round(params['temperature'].value)}"
    if op.kind == "configure" or op.configure_via is not None:
        return "cfg-" + sha256_hex({name: q.to_dict() for name, q in params.items()})[:8]
    return None


def static_check(
    spec: ExperimentSpec, registry: CapabilityRegistry, state: LabState
) -> list[Diagnostic]:
    """All statically decidable errors; empty list means compilable.

    ``spec`` may keep its sweeps: the diagnostics are then those of its
    expansion, each problem of a swept step reported at every instance
    ``step#k`` that has it, in expansion order. No instance is built: each
    distinct value of each param is checked once per call, across steps,
    and so is each distinct pair of values that ``below`` relates and each
    safety predicate at each distinct value of its field; missing and
    unknown params are found once per step. The cost grows with the
    distinct values a spec writes, not with its instances: a step is
    walked instance by instance only when one of its values fails, to
    report each instance's problems in order. An unswept step is checked
    once per configuration, its capability, operation and params dict:
    the steps of an expansion that share a params dict take its problems,
    each at its own id. Dependency cycles are not looked for here:
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

    memo: tuple[dict, dict, dict] = ({}, {}, {})  # values, below pairs, safety
    # An unswept step's problems, as (code, message) pairs, by its
    # configuration: its capability, operation and params dict, which
    # the steps of a parsed or expanded spec share when they are equal.
    configurations: dict[tuple, list[tuple[str, str]]] = {}
    for step in spec.steps:
        capability = registered.get(step.binding)
        if capability is None:
            continue  # already diagnosed at the binding
        if step.repeat is not None:
            diagnostics.extend(_step_diagnostics(step, capability, registry, memo))
            continue
        key = (capability, step.operation, id(step.params))
        problems = configurations.get(key)
        if problems is None:
            problems = configurations[key] = [
                (d.code, d.message) for d in _step_diagnostics(step, capability, registry, memo)]
        if problems:
            diagnostics.extend(Diagnostic(code, step.step_id, message) for code, message in problems)
    return diagnostics


def _step_diagnostics(
    step: StepSpec, capability: str, registry: CapabilityRegistry, memo: tuple[dict, dict, dict],
) -> list[Diagnostic]:
    """The diagnostics of one step of a registered capability."""
    schema = registry.get(capability)
    op = schema.operations.get(step.operation)
    if op is None:
        message = f"{capability} has no operation {step.operation!r}"
        return [Diagnostic("unknown_operation", step_id, message) for step_id in instance_ids(step)]
    return _check_step(step, capability, schema, op, memo)


def _check_step(
    step: StepSpec, capability: str, schema: CapabilitySchema, op: OperationSchema,
    memo: tuple[dict, dict, dict],
) -> list[Diagnostic]:
    """The diagnostics of one step of a registered operation: those of its
    instances in expansion order, each instance's in the order of
    ``check_param_ranges`` and then of the safety conditions. ``memo``
    holds the checks of a call's distinct values, pairs and safety values.
    """
    values, pairs, safety = memo
    # Each param the step gives, in its instances' order, with its distinct
    # quantities; and each swept param with its sweep column, which picks
    # one of them per instance (an unswept param has one).
    given: dict[str, list[Quantity]] = {name: [q] for name, q in step.params.items()}
    columns: dict[str, int] = {}
    if step.repeat is not None:
        for column, (name, (quantities, _)) in enumerate(zip(step.repeat, step.columns)):
            given[name], columns[name] = quantities, column
    failing = not given.keys() <= op.params.keys()  # an unknown param

    # Each declared param given: ParamSchema.check of each distinct quantity.
    checked: dict[str, list[tuple]] = {}
    operation = op.name
    for name, pschema in op.params.items():
        if name not in given:
            failing = failing or not pschema.optional
            continue
        results = checked[name] = []
        for q in given[name]:
            key = (capability, operation, name, q.value, q.unit)
            result = values.get(key)
            if result is None:
                result = values[key] = pschema.check(name, q)
            failing = failing or result[1] is not None
            results.append(result)
    # Each param given with the one it must be below: check_below of each
    # distinct pair of its passing values and the other's, by their indices.
    below: dict[str, dict[tuple[int, int], Violation | None]] = {}
    for name, pschema in op.params.items():
        if name in checked and pschema.below in checked:
            table = below[name] = {}
            for i, (value, violation) in enumerate(checked[name]):
                for j, (bound, _) in enumerate(checked[pschema.below] if violation is None else ()):
                    key = (capability, operation, name, value, bound)
                    if key not in pairs:
                        pairs[key] = pschema.check_below(name, value, bound)
                    table[i, j] = pairs[key]
                    failing = failing or pairs[key] is not None
    # Each field of a safety condition given: the conditions that each of
    # its distinct quantities breaks.
    broken: dict[str, list[list[tuple]]] = {}
    for predicate in schema.safety.conditions:
        name = predicate.field
        if name in given and name not in broken:
            broken[name] = []
            for q in given[name]:
                key = (capability, name, q.value, q.unit)
                if key not in safety:
                    safety[key] = list(schema.safety.violations({name: q}))
                failing = failing or bool(safety[key])
                broken[name].append(safety[key])
    if not failing:
        return []

    diagnostics = []
    combos = itertools.product(*(indices for _, indices in step.columns)) if step.repeat else [()]
    for step_id, combo in zip(instance_ids(step), combos):
        at = {name: combo[column] for name, column in columns.items()}
        for name, pschema in op.params.items():
            if name not in checked:
                if not pschema.optional:
                    diagnostics.append(
                        Diagnostic("missing_param", step_id, f"missing parameter {name!r}"))
                continue
            violation = checked[name][at.get(name, 0)][1]
            if violation is None and name in below:
                violation = below[name][at.get(name, 0), at.get(pschema.below, 0)]
            if violation is not None:
                diagnostics.append(Diagnostic(violation.code, step_id, violation.message))
        diagnostics.extend(Diagnostic("unknown_param", step_id, f"unknown parameter {name!r}")
                           for name in given if name not in op.params)
        for predicate in schema.safety.conditions:
            name = predicate.field
            for breaks, commanded, threshold in broken[name][at.get(name, 0)] if name in given else ():
                if breaks is predicate:
                    diagnostics.append(Diagnostic("safety_violation", step_id, (
                        f"{name} {predicate.comparator} {threshold:g} violated "
                        f"by commanded value {commanded:g}")))
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


class _StepGroup:
    """What ``compile_spec`` resolves once for the steps of one binding,
    operation and stabilization object: the binding's capability schema,
    the operation and its configure operation, the connect node's id, the
    stabilize detail in canonical units and the main node's kind; and
    ``lowered``, the ``_lowering`` of each params dict by its identity."""

    def __init__(self, spec: ExperimentSpec, registry: CapabilityRegistry, step: StepSpec):
        self.schema = schema = registry.get(spec.binding(step.binding).capability)
        self.op = op = schema.operation(step.operation)
        self.cfg_op = None if op.configure_via is None else schema.operation(op.configure_via)
        self.connect_id = f"connect:{step.binding}"
        self.stab = None
        if step.stabilization is not None:
            self.stab = {
                "mode": step.stabilization.mode,
                "duration_s": to_canonical(step.stabilization.duration).value,
                "signal": step.stabilization.signal,
            }
        self.main_kind = "measure" if op.kind == "read" else "action"
        self.lowered: dict[int, tuple] = {}


def compile_spec(
    spec: ExperimentSpec,
    registry: CapabilityRegistry,
    state: LabState,
    diagnostics: list[Diagnostic] | None = None,
) -> WorkflowDAG:
    """Lower a statically clean spec to a WorkflowDAG.

    ``spec`` may keep its sweeps: the DAG is then that of its expansion,
    node for node and in the same order, without building the instances.
    The steps of one binding, operation and stabilization object have
    their schema, operation and stabilize duration resolved once
    (``_StepGroup``), and each of their distinct params dicts (of a swept
    step, the configurations of ``StepSpec.sweep``) is lowered once per
    call; every instance ``step#k`` is stamped from them, with the ids and
    dependencies of ``step_instances``. So an expanded spec whose
    instances share their params and stabilizations, as ``expand_sweeps``
    and ``parse_spec`` make them, lowers at the cost of its template.
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
    groups: dict[tuple, _StepGroup] = {}  # (binding, operation, id(stabilization)) -> its group

    for step, ids, deps in step_instances(spec):
        key = (step.binding, step.operation, id(step.stabilization))
        group = groups.get(key)
        if group is None:
            group = groups[key] = _StepGroup(spec, registry, step)
        schema, op, cfg_op, connect_id = group.schema, group.op, group.cfg_op, group.connect_id
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

        configurations, which = ([step.params], [0]) if step.repeat is None else step.sweep
        lowered = []
        for params in configurations:
            lowering = group.lowered.get(id(params))
            if lowering is None:
                lowering = group.lowered[id(params)] = _lowering(op, cfg_op, params)
            lowered.append(lowering)
        stab, main_kind = group.stab, group.main_kind

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
