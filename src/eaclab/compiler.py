"""Static checking and lowering of specs into workflow DAGs.

A spec is checked and lowered with its sweeps, or expanded: a swept step
gives the diagnostics and nodes of its instances ``step#k``, in expansion
order. The check of a clean spec costs its distinct values, however many
instances a sweep's product makes, and lowering builds each distinct
configuration of a sweep once. An expanded spec, whose instance steps
share their params dicts and stabilizations (``expand_sweeps``,
``parse_spec``), is checked and lowered at the cost of its template.

Lowering rules: each used binding gets one connect node before its first
operation and one teardown node after its last; operations that declare a
companion configure op are split into configure + measure nodes;
stabilization constraints lower to stabilize nodes. Original step
dependencies become edges between the lowered node groups. Every node's
``est_duration`` is the clock its operation's schema declares, except a
stabilize node's, which is its declared hold. Live-state checks are not
lowered to nodes: the executor checks live state right before every
dispatch.

A DAG's adjacency lives in one integer index, ``WorkflowDAG.graph``,
built once per DAG by ``compile_spec``'s own check and then shared by
``validate_dag``, the scheduler, the executor and ``render_tree``.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from eaclab.canon import sha256_hex
from eaclab.capabilities import (
    DEFAULT_DURATION_S,
    CapabilityRegistry,
    CapabilitySchema,
    OperationSchema,
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

    @cached_property
    def graph(self) -> Graph:
        """The DAG's index, built on first use; equality never sees it."""
        return Graph(self.nodes, self.edges)

    def successors(self, node_id: str) -> list[str]:
        return self._adjacent(node_id, self.graph.successors)

    def predecessors(self, node_id: str) -> list[str]:
        return self._adjacent(node_id, self.graph.predecessors)

    def _adjacent(self, node_id: str, lists: list[list[int]]) -> list[str]:
        ids, i = self.graph.ids, self.graph.index.get(node_id)
        return [] if i is None else [ids[j] for j in sorted(lists[i])]


class Graph:
    """A DAG's edges as lists over integer node indices, built in one pass.

    Node i is the i-th node id in sorted order (``ids``; ``index`` maps
    back), so comparing indices breaks every tie as comparing node ids
    does. ``successors`` and ``predecessors`` hold each node's neighbours
    in edge order, an edge repeated per edge kind. ``order`` is Kahn's
    topological order, ties broken by least index, or None on a cycle;
    ``rank`` maps each node id to its position in it. An edge whose
    endpoint is not a node raises CompileError.
    """

    def __init__(self, nodes: dict[str, OpNode], edges) -> None:
        self.ids = ids = sorted(nodes)
        self.index = index = dict(zip(ids, range(len(ids))))
        self.successors = successors = [[] for _ in ids]
        self.predecessors = predecessors = [[] for _ in ids]
        for src, dst, _ in edges:
            try:
                i, j = index[src], index[dst]
            except KeyError:
                raise CompileError(f"edge endpoint missing: {src} -> {dst}") from None
            successors[i].append(j)
            predecessors[j].append(i)
        unmet = [len(preds) for preds in predecessors]
        ready = [i for i, count in enumerate(unmet) if count == 0]  # ascending: a heap
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for j in successors[i]:
                unmet[j] -= 1
                if unmet[j] == 0:
                    heapq.heappush(ready, j)
        self.order = order if len(order) == len(ids) else None

    @cached_property
    def rank(self) -> dict[str, int]:
        return {self.ids[i]: position for position, i in enumerate(self.order)}


def validate_dag(dag: WorkflowDAG) -> Graph:
    """The DAG's index, once checked; raises CompileError/CycleError on
    every call. An acyclic graph needs no reachability check: walking back
    along predecessors from any node ends at a node that has none."""
    graph = dag.graph
    if graph.order is None:
        raise CycleError("workflow graph contains a cycle")
    return graph


def topo_rank(dag: WorkflowDAG) -> dict[str, int]:
    """Position of every node in ``topo_order(dag)``: the DAG's cached
    mapping, which callers must not modify; raises as ``validate_dag`` does."""
    return validate_dag(dag).rank


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
    expansion, in expansion order. A step's verdict, ``_check_step``, looks
    at its distinct values only, through one memo per call, and is kept per
    configuration: capability, operation, params dict and sweep, which the
    equal steps of a parsed or expanded spec share. Only a failing step is
    reported, at the cost of its configurations: each distinct one of its
    instances (``StepSpec.sweep``) gives ``registry.check_param_ranges``
    and then the safety conditions it breaks, once per call, at every
    instance ``step#k`` that has it. Dependency cycles are not looked for
    here: ``parse_spec`` refuses them.
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
    # (schema, operation or None, fails) by (capability, operation, id(params),
    # id(repeat)); a failing configuration's (code, message)s by the first three.
    verdicts: dict[tuple, tuple] = {}
    problems: dict[tuple, list[tuple[str, str]]] = {}
    for step in spec.steps:
        capability = registered.get(step.binding)
        if capability is None:
            continue  # already diagnosed at the binding
        operation = step.operation
        key = (capability, operation, id(step.params), id(step.repeat))
        verdict = verdicts.get(key)
        if verdict is None:
            schema = registry.get(capability)
            op = schema.operations.get(operation)
            verdict = verdicts[key] = (
                schema, op, op is None or _check_step(step, capability, schema, op, memo))
        schema, op, fails = verdict
        if not fails:
            continue
        ids = instance_ids(step)
        if op is None:
            message = f"{capability} has no operation {operation!r}"
            diagnostics.extend(Diagnostic("unknown_operation", i, message) for i in ids)
            continue
        configurations, which = ([step.params], [0]) if step.repeat is None else step.sweep
        for step_id, index in zip(ids, which):
            params = configurations[index]
            at = (capability, operation, id(params))
            if at not in problems:
                problems[at] = [
                    (v.code, v.message)
                    for v in registry.check_param_ranges(capability, operation, params)
                ] + [
                    ("safety_violation", f"{predicate.field} {predicate.comparator} "
                     f"{threshold:g} violated by commanded value {commanded:g}")
                    for predicate, commanded, threshold in schema.safety.violations(params)
                ]
            diagnostics.extend(Diagnostic(code, step_id, text) for code, text in problems[at])
    return diagnostics


def _check_step(
    step: StepSpec, capability: str, schema: CapabilitySchema, op: OperationSchema,
    memo: tuple[dict, dict, dict],
) -> bool:
    """Whether any instance of a step of a registered operation has a
    problem, found from the step's distinct values alone: a param unknown
    or missing, a value ``ParamSchema.check`` fails, a pair of values
    ``below`` relates that fails ``check_below``, or a value a safety
    condition refuses. ``memo`` holds the checks of a call's distinct
    values, pairs and safety values.
    """
    values, pairs, safety = memo
    # Each param the step gives, with its distinct quantities (a swept one's column's).
    given: dict[str, list[Quantity]] = {name: [q] for name, q in step.params.items()}
    if step.repeat is not None:
        given.update(zip(step.repeat, (quantities for quantities, _ in step.columns)))
    if not given.keys() <= op.params.keys():
        return True  # an unknown param

    # Each declared param given: ParamSchema.check of each distinct quantity.
    checked: dict[str, list[float]] = {}
    operation = op.name
    for name, pschema in op.params.items():
        if name not in given:
            if not pschema.optional:
                return True
            continue
        checked[name] = []
        for q in given[name]:
            key = (capability, operation, name, q.value, q.unit)
            result = values.get(key)
            if result is None:
                result = values[key] = pschema.check(name, q)
            if result[1] is not None:
                return True
            checked[name].append(result[0])
    # Each param given with the one it must be below: check_below of each
    # distinct pair of their values.
    for name, pschema in op.params.items():
        if name in checked and pschema.below in checked:
            for value in checked[name]:
                for bound in checked[pschema.below]:
                    key = (capability, operation, name, value, bound)
                    if key not in pairs:
                        pairs[key] = pschema.check_below(name, value, bound)
                    if pairs[key] is not None:
                        return True
    # Each field of a safety condition given: whether any condition
    # refuses one of its distinct quantities.
    for predicate in schema.safety.conditions:
        name = predicate.field
        for q in given.get(name, ()):
            key = (capability, name, q.value, q.unit)
            if key not in safety:
                safety[key] = any(schema.safety.violations({name: q}))
            if safety[key]:
                return True
    return False


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
    graph = validate_dag(dag)
    ids, predecessors = graph.ids, graph.predecessors
    depth = [0] * len(ids)
    lines = []
    for i in graph.order:
        if predecessors[i]:
            depth[i] = max([depth[j] for j in predecessors[i]]) + 1
        node = dag.nodes[ids[i]]
        lines.append(f"{depth[i]} {ids[i]} [{node.kind}] {node.binding}.{node.operation}")
    return "\n".join(lines)
