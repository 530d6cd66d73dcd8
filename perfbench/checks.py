"""Output checkers that do not trust the program under test.

Each checker takes plain data (parsed JSON, bytes) and returns a list of
error strings; an empty list means the output is correct. Hashes are
recomputed with hashlib, conductivities with this file's own
interpolation, and plan soundness from the plan and the DAG's edge list
alone. The one exception is the replay check, which by definition runs
the program's public ``replay`` over its own log.

``self_test`` feeds every checker a correct output and a deliberately
broken one, and reports a checker that fails to tell them apart.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

EPS = 1e-9
TEMPERATURE_REL_TOL = 0.01

# Fault kind -> disposition, as documented for the executor. comm_timeout
# depends on whether the node is idempotent.
DISPOSITIONS = {
    "device_error": "pause",
    "no_liquid_detected": "pause",
    "implicit_violation": "abort",
}
RUN_STATUS = {"recover": "completed", "pause": "paused", "abort": "aborted"}


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def sha256(obj) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


def read_run(run_dir: Path) -> dict:
    """Everything a run directory holds, parsed once."""
    def lines(name):
        path = run_dir / name
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        return text, [json.loads(line) for line in text.splitlines() if line.strip()]

    log_text, log = lines("log.ndjson")
    telemetry_text, telemetry = lines("telemetry.ndjson")
    return {
        "log": log,
        "telemetry": telemetry,
        "telemetry_text": telemetry_text,
        "plan": json.loads((run_dir / "plan.json").read_text(encoding="utf-8")),
        "spec": json.loads((run_dir / "spec.json").read_text(encoding="utf-8")),
        "result": json.loads((run_dir / "result.json").read_text(encoding="utf-8")),
        "snapshot": (run_dir / "snapshot.json").read_bytes(),
    }


# -- plans ------------------------------------------------------------------

def check_plan(plan: dict, nodes: dict, edges: list) -> list[str]:
    """Every node assigned once, dependencies respected, no device double-booked."""
    errors = []
    assignments = plan["assignments"]
    counts = Counter(a["node_id"] for a in assignments)
    for nid in nodes:
        if counts[nid] != 1:
            errors.append(f"plan: node {nid} assigned {counts[nid]} times")
    for nid in sorted(set(counts) - set(nodes)):
        errors.append(f"plan: unknown node {nid} assigned")
    by_id = {a["node_id"]: a for a in assignments}
    for src, dst in edges:
        if src in by_id and dst in by_id and by_id[dst]["start"] < by_id[src]["end"] - EPS:
            errors.append(f"plan: {dst} starts before its predecessor {src} ends")
    per_device = defaultdict(list)
    for a in assignments:
        if a["end"] < a["start"] - EPS or a["transition"] < 0:
            errors.append(f"plan: {a['node_id']} has a negative duration")
        per_device[a["device_id"]].append(a)
    for device, items in per_device.items():
        items.sort(key=lambda a: (a["start"], a["end"]))
        for prev, cur in zip(items, items[1:]):
            if cur["start"] - cur["transition"] < prev["end"] - EPS:
                errors.append(
                    f"plan: {device} runs {prev['node_id']} and {cur['node_id']} at once"
                )
    top = max((a["end"] for a in assignments), default=0.0)
    if not math.isclose(plan["makespan"], top, abs_tol=EPS):
        errors.append(f"plan: makespan {plan['makespan']} is not the last end {top}")
    return errors


def check_makespan_bounds(plan: dict, edges: list) -> list[str]:
    """makespan >= max(critical path, busiest device's load)."""
    duration = {a["node_id"]: a["end"] - a["start"] for a in plan["assignments"]}
    succs = defaultdict(list)
    indegree = {nid: 0 for nid in duration}
    for src, dst in edges:
        if src in duration and dst in duration:
            succs[src].append(dst)
            indegree[dst] += 1
    finish = {}
    ready = [nid for nid, d in indegree.items() if d == 0]
    longest = {nid: 0.0 for nid in duration}
    while ready:
        nid = ready.pop()
        finish[nid] = longest[nid] + duration[nid]
        for succ in succs[nid]:
            longest[succ] = max(longest[succ], finish[nid])
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    critical = max(finish.values(), default=0.0)
    load = defaultdict(float)
    for a in plan["assignments"]:
        load[a["device_id"]] += a["end"] - a["start"]
    busiest = max(load.values(), default=0.0)
    errors = []
    if len(finish) != len(duration):
        errors.append("bounds: dependency graph has a cycle")
    if plan["makespan"] < max(critical, busiest) - EPS:
        errors.append(
            f"bounds: makespan {plan['makespan']} below critical path {critical} "
            f"or busiest device load {busiest}"
        )
    return errors


def check_policies(batched: dict, fifo: dict) -> list[str]:
    if batched["makespan"] > fifo["makespan"] + EPS:
        return [f"policies: batched makespan {batched['makespan']} > fifo {fifo['makespan']}"]
    return []


def mode_transitions(plan: dict, modes: dict, initial: dict) -> int:
    """Device mode switches along a plan, the first switch from genesis included."""
    current = dict(initial)
    switches = 0
    for a in sorted(plan["assignments"], key=lambda a: (a["start"], a["node_id"])):
        mode = modes.get(a["node_id"])
        if mode is None:
            continue
        if current.get(a["device_id"]) != mode:
            switches += 1
        current[a["device_id"]] = mode
    return switches


# -- measurements -----------------------------------------------------------

def interpolate(table: dict, x: float) -> float:
    """Piecewise-linear through the lab table, flat beyond its ends."""
    points = sorted((float(k), float(v)) for k, v in table.items())
    if x <= points[0][0]:
        return points[0][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return points[-1][1]


def _sim(lab: dict, device_id: str) -> dict:
    for entry in lab["devices"]:
        if entry["device_id"] == device_id:
            return entry.get("sim", {})
    return {}


def check_measurements(run: dict, lab: dict) -> list[str]:
    """Concentration = annotation = vial behind the selected port; conductivity
    and temperature as the lab config says."""
    errors = []
    steps = {s["id"]: s for s in run["spec"]["steps"]}
    capability = {r["name"]: r["capability"] for r in run["spec"]["resources"]}
    device_of = {a["node_id"]: a["device_id"] for a in run["plan"]["assignments"]}
    for rec in run["telemetry"]:
        nid = rec["node_id"]
        fields = rec["fields"]
        step = steps.get(nid)
        if step is None:
            errors.append(f"telemetry: record for unknown step {nid}")
            continue
        frontier, seen, select = list(step.get("depends_on", [])), set(), None
        while frontier and select is None:
            sid = frontier.pop(0)
            if sid in seen:
                continue
            seen.add(sid)
            dep = steps[sid]
            if capability[dep["binding"]] == "valve" and dep["op"] == "set":
                select = dep
            frontier.extend(dep.get("depends_on", []))
        if select is None:
            errors.append(f"telemetry: {nid} has no valve selection upstream")
            continue
        port = str(int(select["params"]["dest"]["value"]))
        vial = float(_sim(lab, device_of[select["id"]])["port_concentrations"][port])
        annotation = step["params"]["concentration"]["value"]
        measured = fields["concentration"]["value"]
        if not (math.isclose(measured, annotation, rel_tol=1e-12)
                and math.isclose(annotation, vial, rel_tol=1e-12)):
            errors.append(
                f"telemetry: {nid} measured {measured}, annotated {annotation}, "
                f"vial behind port {port} holds {vial}"
            )
        sim = _sim(lab, rec["device_id"])
        expected = interpolate(sim["conductivity_table"], vial)
        if not math.isclose(fields["conductivity"]["value"], expected, rel_tol=1e-9):
            errors.append(
                f"telemetry: {nid} conductivity {fields['conductivity']['value']} "
                f"!= {expected}"
            )
        setpoint = float(sim["temperature_setpoint"])
        temperature = fields["temperature"]["value"]
        if abs(temperature - setpoint) > TEMPERATURE_REL_TOL * setpoint:
            errors.append(f"telemetry: {nid} temperature {temperature} off {setpoint}")
    return errors


# -- provenance -------------------------------------------------------------

def check_hashes(run: dict) -> list[str]:
    errors = []
    spec_hash, plan_hash = sha256(run["spec"]), sha256(run["plan"])
    if run["result"]["spec_hash"] != spec_hash:
        errors.append("hashes: result.json spec_hash does not match spec.json")
    if run["result"]["plan_hash"] != plan_hash:
        errors.append("hashes: result.json plan_hash does not match plan.json")
    for rec in run["telemetry"]:
        if rec["spec_hash"] != spec_hash or rec["plan_hash"] != plan_hash:
            errors.append(f"hashes: telemetry record {rec['node_id']} has stale provenance")
            break
    return errors


def check_replay(run: dict, replay_bytes) -> list[str]:
    """replay_bytes(log events) -> canonical snapshot bytes of the replayed state."""
    if replay_bytes(run["log"]) + b"\n" != run["snapshot"]:
        return ["replay: replaying log.ndjson over genesis does not give snapshot.json"]
    return []


# -- faults -----------------------------------------------------------------

def expected_disposition(kind: str, idempotent: bool) -> str:
    if kind == "comm_timeout":
        return "recover" if idempotent else "pause"
    return DISPOSITIONS[kind]


def injected_dispatch(log: list, index: int) -> dict | None:
    """The operation dispatch an injection at ``index`` targets, if any."""
    for event in log:
        payload = event["payload"]
        if event["kind"] == "dispatch" and "frame" in payload and payload["index"] == index:
            return event
    return None


def check_disposition(run: dict, kind: str, index: int, nodes: dict) -> list[str]:
    """The fault injected at ``index`` is handled as the disposition table says."""
    dispatch = injected_dispatch(run["log"], index)
    if dispatch is None:
        return [f"faults: no operation dispatch with index {index}"]
    node_id = dispatch["payload"]["node_id"]
    faults = [e for e in run["log"] if e["kind"] == "fault"]
    if not faults:
        return [f"faults: {kind}@{index} at {node_id} left no fault event"]
    fault = faults[0]["payload"]
    want = expected_disposition(kind, nodes[node_id]["idempotent"])
    errors = []
    if fault["kind"] != kind or fault["node_id"] != node_id:
        errors.append(f"faults: {kind}@{index} logged as {fault['kind']} at {fault['node_id']}")
    if fault["disposition"] != want:
        errors.append(
            f"faults: {kind} at {node_id} disposed as {fault['disposition']}, want {want}"
        )
    if run["result"]["status"] != RUN_STATUS[want]:
        errors.append(f"faults: {kind}@{index} ended {run['result']['status']}")
    return errors


def check_released(run: dict) -> list[str]:
    """No device is left busy, and every device the run held was released."""
    errors = []
    devices = json.loads(run["snapshot"])["devices"]
    for device_id, record in sorted(devices.items()):
        if record["status"] == "busy":
            errors.append(f"teardown: {device_id} left busy")
    held = {}
    for event in run["log"]:
        if event["kind"] == "transition":
            held[event["device_id"]] = event["payload"]["to"] == "busy"
    for device_id, still in sorted(held.items()):
        if still:
            errors.append(f"teardown: {device_id} never released")
    return errors


def check_same_telemetry(run: dict, clean_text: str) -> list[str]:
    if run["telemetry_text"] != clean_text:
        return ["telemetry: differs from the fault-free run"]
    return []


# -- self-test --------------------------------------------------------------

def self_test(clean: dict, aborted: dict, abort_fault: tuple, dag: tuple,
              fifo: dict, lab: dict, replay_bytes) -> list[str]:
    """Each checker must pass the real output and fail a broken copy of it.

    ``clean`` is a fault-free run of the reference campaign, ``aborted`` the
    same campaign aborted by ``abort_fault`` = (kind, index), ``dag`` its
    (nodes, edges) and ``fifo`` its fifo plan.
    """
    nodes, edges = dag
    kind, index = abort_fault
    problems = []

    def expect(name, good, bad):
        if good:
            problems.append(f"self-test {name}: correct output rejected: {good[0]}")
        if not bad:
            problems.append(f"self-test {name}: broken output accepted")

    def broken(output, mutate):
        output = copy.deepcopy(output)
        mutate(output)
        return output

    plan = clean["plan"]

    def overlap(p):
        a, b = [x for x in p["assignments"]
                if x["device_id"] == "valve_1" and x["end"] > x["start"]][:2]
        b["start"], b["end"] = a["start"], a["end"]
    expect("overlapping assignment", check_plan(plan, nodes, edges),
           check_plan(broken(plan, overlap), nodes, edges))

    def drop_teardown(p):
        p["assignments"] = [x for x in p["assignments"] if not x["node_id"].startswith("teardown:")]
    expect("missing teardown in plan", [], check_plan(broken(plan, drop_teardown), nodes, edges))

    def early(p):
        a = next(x for x in p["assignments"] if x["node_id"] == "measure#0")
        a["start"] -= 1.0
    expect("dependency order", [], check_plan(broken(plan, early), nodes, edges))

    def shrink(p):
        p["makespan"] = p["makespan"] / 2
    expect("makespan bounds", check_makespan_bounds(plan, edges),
           check_makespan_bounds(broken(plan, shrink), edges))

    expect("policy order", check_policies(plan, fifo),
           check_policies(dict(plan, makespan=fifo["makespan"] + 1), fifo))

    def field(name, factor):
        def mutate(run):
            run["telemetry"][1]["fields"][name]["value"] *= factor
        return mutate
    expect("conductivity", check_measurements(clean, lab),
           check_measurements(broken(clean, field("conductivity", 1.001)), lab))
    expect("concentration", [], check_measurements(broken(clean, field("concentration", 2.0)), lab))
    expect("temperature", [], check_measurements(broken(clean, field("temperature", 0.98)), lab))

    def tamper_snapshot(run):
        run["snapshot"] = run["snapshot"].replace(b'"status":"idle"', b'"status":"fault"', 1)
    expect("tampered snapshot", check_replay(clean, replay_bytes),
           check_replay(broken(clean, tamper_snapshot), replay_bytes))

    def tamper_plan(run):
        run["plan"]["assignments"][0]["end"] += 1.0
    expect("plan hash", check_hashes(clean), check_hashes(broken(clean, tamper_plan)))

    def tamper_spec(run):
        run["spec"]["steps"][0]["params"]["dest"]["value"] = 2.0
    expect("spec hash", [], check_hashes(broken(clean, tamper_spec)))

    def wrong_disposition(run):
        next(e for e in run["log"] if e["kind"] == "fault")["payload"]["disposition"] = "pause"
    expect("disposition", check_disposition(aborted, kind, index, nodes),
           check_disposition(broken(aborted, wrong_disposition), kind, index, nodes))

    def skip_teardown(run):
        released = [i for i, e in enumerate(run["log"])
                    if e["kind"] == "transition" and e["payload"]["to"] == "idle"]
        del run["log"][released[-1]]
    expect("missing teardown after abort", check_released(aborted),
           check_released(broken(aborted, skip_teardown)))

    def changed_telemetry(run):
        run["telemetry_text"] = run["telemetry_text"].replace("0.43", "0.44", 1)
    expect("resumed telemetry", check_same_telemetry(clean, clean["telemetry_text"]),
           check_same_telemetry(broken(clean, changed_telemetry), clean["telemetry_text"]))
    return problems
