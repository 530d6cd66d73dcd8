"""Plan execution against the simulated fleet.

Strictly single-threaded and deterministic: dispatch order is a pure
function of the plan, every log append goes through one serialized event
sequence, and virtual time advances only here. Faults map to pause /
abort / recover dispositions; paused runs checkpoint and can resume
deterministically.
"""

from __future__ import annotations

from eaclab.capabilities import CapabilityRegistry
from eaclab.compiler import OpNode, WorkflowDAG, topo_rank
from eaclab.errors import SimFault, StabilizationTimeoutError, StillBlockedError
from eaclab.labstate import LabState, StateEvent, apply_event, gate
from eaclab.records import field, record
from eaclab.scheduler import Checkpoint, ExecutionPlan, plan_hash as compute_plan_hash
from eaclab.shims import SimFleet, WireFrame, encode_operation
from eaclab.telemetry import TelemetryRecord
from eaclab.units import Quantity

FAULT_KINDS = frozenset(
    {"device_error", "comm_timeout", "no_liquid_detected", "implicit_violation"}
)

# Stabilization defaults; the hold duration itself comes from the step.
STABILIZE_REL_TOL = 1e-2
STABILIZE_CAP_S = 600.0

_RETRY_BUDGET = 1  # automatic retries for idempotent operations

_TELEMETRY_UNITS = {
    "conductivity": "S/cm",
    "concentration": "mol/kg",
    "temperature": "K",
    "mass": "g",
    "dispensed_volume": "mL",
}


@record(frozen=True)
class FaultEvent:
    kind: str
    device_id: str
    node_id: str
    detail: str = ""
    predicate: str | None = None  # violated predicate for implicit_violation

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "implicit_violation" and not self.predicate:
            raise ValueError("implicit_violation must name its predicate")


@record
class RunResult:
    run_id: str
    status: str  # completed | paused | aborted
    telemetry: list[TelemetryRecord]
    log: list[StateEvent]
    wire: list[dict]
    state: LabState
    checkpoint: Checkpoint | None = None
    fault: FaultEvent | None = None
    # Fault-schedule indices no operation dispatch carried, so nothing was
    # injected there (a stabilize wait, or a dispatch the run never reached).
    uninjected: tuple[int, ...] = ()


def runtime_precheck(
    node,
    device_id: str,
    state: LabState,
    registry: CapabilityRegistry,
    run_id: str,
    capability: str,
) -> FaultEvent | None:
    """The live-state gate, run immediately before every dispatch.

    Lifecycle operations (connect/disconnect/teardown) are exempt from
    calibration and safety checks so that teardown is always executable.
    """
    record = state.devices.get(device_id)
    if record is None:
        return FaultEvent("device_error", device_id, node.node_id, "unknown device")
    lifecycle = node.kind in ("connect", "teardown")
    blocked = gate(record, state.clock, run_id, None if lifecycle else registry.get(capability))
    if blocked is None:
        return None
    predicate, detail = blocked
    kind = "device_error" if predicate is None else "implicit_violation"
    return FaultEvent(kind, device_id, node.node_id, detail, predicate=predicate)


def handle_fault(fault: FaultEvent, node) -> str:
    """Deterministic fault -> disposition mapping."""
    if fault.kind == "comm_timeout":
        # A timed-out non-idempotent command may have partially executed;
        # only idempotent operations are safe to retry.
        return "recover" if node.idempotent else "pause"
    if fault.kind in ("device_error", "no_liquid_detected"):
        return "pause"
    return "abort"  # implicit_violation


def stabilize_wait(node, start: float, device) -> float:
    """Elapsed seconds for a stabilize node.

    fixed_delay waits exactly the declared duration. setpoint_then_hold
    samples the simulated signal at 1 s resolution, completes once the
    signal has stayed within the relative band for the hold duration, and
    raises StabilizationTimeoutError at the cap.
    """
    stab = node.stab
    if stab["mode"] == "fixed_delay":
        return float(stab["duration_s"])
    hold = float(stab["duration_s"])
    target = device.config.temperature_setpoint
    band = abs(target) * STABILIZE_REL_TOL
    in_band_since: float | None = None
    t = 0.0
    while t <= STABILIZE_CAP_S:
        value = device.temperature_at(start + t)
        if abs(value - target) <= band:
            if in_band_since is None:
                in_band_since = t
            if t - in_band_since >= hold:
                return t
        else:
            in_band_since = None
        t += 1.0
    raise StabilizationTimeoutError(f"signal never held its band within {STABILIZE_CAP_S:.0f}s")


@record
class _RunContext:
    run_id: str
    dag: WorkflowDAG
    state: LabState
    registry: CapabilityRegistry
    fleet: SimFleet
    spec_hash: str
    plan_hash: str
    fault_schedule: dict[int, str]
    log: list[StateEvent] = field(default_factory=list)
    wire: list[dict] = field(default_factory=list)
    dispatch_count: int = 0
    connected: list[str] = field(default_factory=list)  # device ids, open order
    last_committed: str | None = None
    telemetry: list[TelemetryRecord] = field(default_factory=list)

    def emit(self, kind: str, device_id: str, time: float, payload: dict) -> None:
        event = StateEvent(self.state.next_seq, time, device_id, kind, payload)
        self.state = apply_event(self.state, event)
        self.log.append(event)

    def dump_frame(self, frame: WireFrame, time: float) -> None:
        self.wire.append(
            {
                "device_id": frame.device_id,
                "direction": frame.direction,
                "hex": frame.hex(),
                "time": time,
            }
        )


def _dispatch_order(plan: ExecutionPlan, dag: WorkflowDAG) -> list:
    """Plan order by start time, dependency-consistent on ties."""
    rank = topo_rank(dag)
    return sorted(plan.assignments, key=lambda a: (a.start, rank[a.node_id]))


def _node_capability(dag: WorkflowDAG, node) -> str:
    return dag.bindings[node.binding]["capability"]


def _quantify(values: dict[str, float]) -> dict[str, Quantity]:
    return {
        name: Quantity(float(value), _TELEMETRY_UNITS.get(name, ""))
        for name, value in values.items()
    }


def execute(
    plan: ExecutionPlan,
    dag: WorkflowDAG,
    state: LabState,
    registry: CapabilityRegistry,
    fleet: SimFleet,
    run_id: str,
    spec_hash: str,
    fault_schedule: dict[int, str] | None = None,
) -> RunResult:
    """Execute a plan from the start. See ``resume`` for continuation."""
    ctx = _RunContext(
        run_id=run_id,
        dag=dag,
        state=state,
        registry=registry,
        fleet=fleet,
        spec_hash=spec_hash,
        plan_hash=compute_plan_hash(plan),
        fault_schedule=dict(fault_schedule or {}),
    )
    return _run(ctx, _dispatch_order(plan, dag), skip_through=None)


def resume(
    checkpoint: Checkpoint,
    plan: ExecutionPlan,
    dag: WorkflowDAG,
    state: LabState,
    registry: CapabilityRegistry,
    fleet: SimFleet,
    spec_hash: str,
    last_dispatch: int = 0,
) -> RunResult:
    """Continue a paused run from the node after its checkpoint.

    The caller has checked that the checkpoint, plan, DAG and state belong
    together: ``plan`` is the plan whose hash the checkpoint names, it
    assigns exactly the nodes of ``dag``, the checkpoint's node is one of
    them and the one the log committed last, and ``state`` is at the
    checkpoint's epoch (plus any operator events). ``eaclab.cli`` makes these checks when it reads the run
    directory. Committed nodes are replayed silently through the simulator
    (same frames, same seeds) to rebuild device state without re-logging,
    then execution proceeds normally. Dispatch indices continue after
    ``last_dispatch``, the highest index the run has logged so far.
    Raises StillBlockedError if the blocking condition is still present.
    """
    order = _dispatch_order(plan, dag)
    last = checkpoint.last_committed_node
    first = 0 if last is None else [a.node_id for a in order].index(last) + 1
    if first < len(order):
        a = order[first]
        node = dag.nodes[a.node_id]
        blocked = runtime_precheck(
            node, a.device_id, state, registry, checkpoint.run_id,
            _node_capability(dag, node),
        )
        if blocked is not None:
            raise StillBlockedError(f"{blocked.kind}: {blocked.detail}")
    ctx = _RunContext(
        run_id=checkpoint.run_id,
        dag=dag,
        state=state,
        registry=registry,
        fleet=fleet,
        spec_hash=spec_hash,
        plan_hash=checkpoint.plan_hash,
        fault_schedule={},
        dispatch_count=last_dispatch,
        last_committed=checkpoint.last_committed_node,
    )
    return _run(ctx, order, skip_through=checkpoint.last_committed_node)


def _run(ctx: _RunContext, order: list, skip_through: str | None) -> RunResult:
    predecessors = ctx.dag.predecessor_index
    done_at: dict[str, float] = {}
    device_free: dict[str, float] = {}
    silent = skip_through is not None

    for assignment in order:
        node = ctx.dag.nodes[assignment.node_id]
        device_id = assignment.device_id
        capability = _node_capability(ctx.dag, node)
        earliest = max((done_at[p] for p in predecessors[node.node_id]), default=0.0)
        start = max(earliest, device_free.get(device_id, 0.0)) + assignment.transition

        if silent:
            # Committed prefix: rebuild simulator state without logging.
            end = _silent_replay(ctx, node, device_id, capability, start)
            silent = node.node_id != skip_through
        else:
            end = _execute_node(ctx, node, device_id, capability, start)
            if isinstance(end, RunResult):
                return end
            ctx.last_committed = node.node_id
        done_at[node.node_id] = end
        device_free[device_id] = end

    return _result(ctx, "completed")


def _result(ctx: _RunContext, status: str, fault: FaultEvent | None = None) -> RunResult:
    """The run as it stands; only a paused run carries a checkpoint."""
    checkpoint = None
    if status == "paused":
        checkpoint = Checkpoint(
            run_id=ctx.run_id,
            last_committed_node=ctx.last_committed,
            state_epoch=ctx.state.epoch,
            plan_hash=ctx.plan_hash,
        )
    return RunResult(
        run_id=ctx.run_id,
        status=status,
        telemetry=ctx.telemetry,
        log=ctx.log,
        wire=ctx.wire,
        state=ctx.state,
        checkpoint=checkpoint,
        fault=fault,
        uninjected=tuple(sorted(ctx.fault_schedule)),
    )


def _track_session(ctx: _RunContext, node, device_id: str) -> None:
    """Keep ``ctx.connected``, the devices with an open session, in open order."""
    if node.kind == "connect" and device_id not in ctx.connected:
        ctx.connected.append(device_id)
    elif node.kind == "teardown" and device_id in ctx.connected:
        ctx.connected.remove(device_id)


def _silent_replay(ctx, node, device_id, capability, start: float) -> float:
    if node.kind == "stabilize":
        elapsed = stabilize_wait(node, start, ctx.fleet.devices[device_id])
        return start + elapsed
    frame = encode_operation(capability, node.operation, node.params, device_id)
    ctx.fleet.step(device_id, frame, start)
    _track_session(ctx, node, device_id)
    return start + node.est_duration


def _precheck_and_log(ctx, node, device_id, capability, time: float) -> FaultEvent | None:
    fault = runtime_precheck(
        node, device_id, ctx.state, ctx.registry, ctx.run_id, capability
    )
    ctx.emit(
        "precheck",
        device_id,
        time,
        {
            "node_id": node.node_id,
            "result": "pass" if fault is None else "fail",
            "detail": fault.detail if fault else "",
        },
    )
    return fault


def _dispatch(ctx, node, device_id: str, time: float, frame: WireFrame | None = None) -> int:
    """Log the next dispatch index, with the frame sent if there is one."""
    ctx.dispatch_count += 1
    payload = {"node_id": node.node_id, "op": node.operation, "index": ctx.dispatch_count}
    if frame is not None:
        payload["frame"] = frame.hex()
    ctx.emit("dispatch", device_id, time, payload)
    if frame is not None:
        ctx.dump_frame(frame, time)
    return ctx.dispatch_count


def _execute_node(ctx, node, device_id, capability, start: float):
    """Run one node; returns its end time, or a RunResult on pause/abort."""
    fault = _precheck_and_log(ctx, node, device_id, capability, start)
    if fault is not None:
        return _stop(ctx, fault, handle_fault(fault, node), start)

    if node.kind == "stabilize":
        try:
            elapsed = stabilize_wait(node, start, ctx.fleet.devices[device_id])
        except StabilizationTimeoutError as exc:
            fault = FaultEvent("device_error", device_id, node.node_id, str(exc))
            return _stop(ctx, fault, "pause", start)
        _dispatch(ctx, node, device_id, start)
        end = start + elapsed
        ctx.emit("telemetry", device_id, end, {"stabilize_elapsed": elapsed})
        return end

    frame = encode_operation(capability, node.operation, node.params, device_id)
    attempts = 0
    while True:
        index = _dispatch(ctx, node, device_id, start, frame)
        injected = ctx.fault_schedule.pop(index, None)
        try:
            if injected is not None:
                raise SimFault(injected, f"injected at dispatch {index}")
            result = ctx.fleet.step(device_id, frame, start)
        except SimFault as exc:
            fault = FaultEvent(
                exc.kind if exc.kind in FAULT_KINDS else "device_error",
                device_id,
                node.node_id,
                exc.detail or str(exc),
                predicate="calibration_lapsed" if exc.kind == "implicit_violation" else None,
            )
            disposition = handle_fault(fault, node)
            if disposition == "recover" and attempts < _RETRY_BUDGET:
                attempts += 1
                ctx.emit("fault", device_id, start, _fault_payload(fault, "recover"))
                continue
            return _stop(ctx, fault, disposition, start)
        break

    for reply in result.replies:
        ctx.dump_frame(reply, start)

    end = start + node.est_duration

    _track_session(ctx, node, device_id)
    if node.kind == "connect":
        ctx.emit("transition", device_id, end, {"to": "busy", "holder": ctx.run_id})
    elif node.kind == "teardown":
        ctx.emit("transition", device_id, end, {"to": "idle"})

    if result.telemetry:
        fields = _quantify(result.telemetry)
        ctx.emit(
            "telemetry",
            device_id,
            end,
            {name: q.to_dict() for name, q in sorted(fields.items())},
        )
        if node.kind == "measure":
            # Step-level annotation params ride along with the measurement.
            merged = dict(fields)
            for name, q in node.params.items():
                merged.setdefault(name, q)
            record = TelemetryRecord(
                run_id=ctx.run_id,
                node_id=node.node_id,
                device_id=device_id,
                time=end,
                fields=merged,
                spec_hash=ctx.spec_hash,
                plan_hash=ctx.plan_hash,
            )
            ctx.telemetry.append(record)

    return end


def _fault_payload(fault: FaultEvent, disposition: str) -> dict:
    return {
        "kind": fault.kind,
        "node_id": fault.node_id,
        "detail": fault.detail,
        "predicate": fault.predicate,
        "disposition": disposition,
    }


def _stop(ctx, fault: FaultEvent, disposition: str, time: float) -> RunResult:
    """End the run on a fault: log it, and on abort close every open
    connection, newest first. A fault that stops the run is not retried in
    place, so ``recover`` pauses."""
    if disposition == "recover":
        disposition = "pause"
    ctx.emit("fault", fault.device_id, time, _fault_payload(fault, disposition))
    if disposition != "abort":
        return _result(ctx, "paused", fault)
    for device_id in reversed(ctx.connected):
        node = OpNode(
            node_id=f"abort-teardown:{device_id}",
            binding="",
            operation="disconnect",
            kind="teardown",
            idempotent=True,
            est_duration=0.0,
        )
        _precheck_and_log(ctx, node, device_id, "", time)
        _dispatch(ctx, node, device_id, time, encode_operation("", "disconnect", {}, device_id))
        ctx.emit("transition", device_id, time, {"to": "idle"})
    ctx.connected.clear()
    return _result(ctx, "aborted", fault)
