"""One workload of the eaclab benchmark, run in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --probe --workload NAME

Run from the root of a checkout; the program is imported from ./src and
every file this writes goes under ./.perfbench. Every end-to-end timing is
an ``eaclab`` command as a user runs it: in-process ``eaclab.cli.main``
with stdout and stderr captured, or, for ``cli_s``, a cold
``python -m eaclab.cli`` subprocess. Commands run one at a time and no
thread is started.

The workload repeats whole rounds of the same commands for about
``--seconds``; per-layer figures are per round.
Every command's output is checked by ``checks.py``. The last line of
stdout is the result object; with ``--probe`` it is this process's set-up
time alone.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import inputs
from spans import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE_LAB = ROOT / "configs" / "reference_lab.json"
REFERENCE_CAMPAIGN = ROOT / "configs" / "li2so4_campaign.json"

WORKLOADS = ("campaign_scale", "agent_ensemble", "fault_sweep")
TIMED = ("verdict_s", "plan_s", "run_s", "resume_s", "cli_s")
INJECT_KINDS = {
    "timeout": "comm_timeout",
    "error": "device_error",
    "noliquid": "no_liquid_detected",
    "implicit": "implicit_violation",
}
# campaign_scale and fault_sweep have one spec each, so they repeat their
# short commands between the long ones (in ``between``); short commands
# spread over the round sample the same stretch of time as the long ones.
# agent_ensemble runs a cold validate on every COLD_EVERY-th spec.
COLD_EVERY = 25
SUBPROCESS_TIMEOUT_S = 60

# Machine speed on a shared host drifts by ten to twenty percent over a
# few seconds, and eaclab's commands slow down with it. A fixed
# calibration kernel therefore runs at least every CALIBRATION_INTERVAL_S,
# and right before and after any command longer than that. Each timing is
# scaled by REFERENCE_KERNEL_S / (the mean kernel time within SMOOTHING_S
# of it): the figures are seconds at the speed at which the kernel takes
# REFERENCE_KERNEL_S, about what it took on the machine the bounds were
# set on. The kernel mixes a plain loop with allocation-heavy dict work,
# as eaclab's code does, so that it slows down as eaclab does.
REFERENCE_KERNEL_S = 0.004
CALIBRATION_INTERVAL_S = 0.1
SMOOTHING_S = 0.5


def kernel() -> float:
    """Wall time of a fixed pure-Python workload of about REFERENCE_KERNEL_S."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        rng = random.Random(1)
        items = [{"id": f"n{rng.randrange(100000):05d}", "v": rng.random(), "t": (i, str(i))}
                 for i in range(1500)]
        items.sort(key=lambda o: (o["v"], o["id"]))
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def set_up(workload: str):
    """Import the program, read the lab config, build registry and genesis.

    Returns (the cli module, lab, registry, genesis, setup_s, import_s), the
    two times scaled to the reference speed.
    """
    sys.path.insert(0, str(SRC))
    began = time.perf_counter()
    import eaclab.cli as cli
    imported = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"eaclab was imported from {cli.__file__}, not from {SRC}")
    lab = json.loads(REFERENCE_LAB.read_text(encoding="utf-8"))
    if workload == "agent_ensemble":
        lab = inputs.ensemble_lab(lab)
    from eaclab.capabilities import registry_from_lab_config
    from eaclab.labstate import genesis_from_lab_config
    registry = registry_from_lab_config(lab)
    genesis = genesis_from_lab_config(lab)
    done = time.perf_counter()
    scale = REFERENCE_KERNEL_S / statistics.mean(kernel() for _ in range(3))
    return cli, lab, registry, genesis, (done - began) * scale, (imported - began) * scale


def reference_dag(text: str, registry, genesis) -> tuple[dict, list, dict]:
    """(nodes, edges, modes) of the DAG eaclab compiles a spec text to."""
    from eaclab.compiler import compile_spec
    from eaclab.specmodel import expand_sweeps, parse_spec
    dag = compile_spec(expand_sweeps(parse_spec(text)), registry, genesis)
    nodes = {nid: {"idempotent": n.idempotent} for nid, n in dag.nodes.items()}
    edges = [(src, dst) for src, dst, _ in dag.edges]
    modes = {nid: n.mode for nid, n in dag.nodes.items() if n.mode is not None}
    return nodes, edges, modes


def replayer(genesis):
    """log events -> snapshot bytes of genesis with the log replayed over it."""
    from eaclab.labstate import StateEvent, replay, snapshot
    return lambda log: snapshot(replay(genesis, [StateEvent.from_dict(e) for e in log]))


class Spec:
    """One spec file the workload feeds to eaclab, and what it should do."""

    def __init__(self, key: str, path: Path, expect: str | None):
        self.key = key
        self.path = str(path.relative_to(ROOT))
        self.expect = expect  # planted diagnostic code, None if the spec is valid
        self.nodes: dict = {}
        self.edges: list = []
        self.modes: dict = {}
        self.inject_index: int | None = None


class Bench:
    def __init__(self, cli, lab: dict, registry, genesis, args, tracer: Tracer | None):
        self.cli = cli
        self.lab = lab
        self.registry = registry
        self.genesis = genesis
        self.seed = args.seed
        self.tracer = tracer
        self.work = WORK / "runs" / args.workload
        self.lab_path = str(REFERENCE_LAB.relative_to(ROOT))
        self.layer: dict[str, float] = defaultdict(float)
        self.hashes: dict[str, dict[str, str]] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rng = random.Random(args.seed)
        self.replay_bytes = replayer(genesis)
        self.initial_modes = {e["device_id"]: e.get("mode") for e in lab["devices"]}
        self.kernels: list[tuple[float, float]] = []  # (time, kernel_s)
        self.timings: list[tuple[str, float, float]] = []  # (metric, start, elapsed)
        self.calibrate()

    def calibrate(self) -> None:
        self.kernels.append((time.perf_counter(), kernel()))

    def timed(self, metric: str | None, fn):
        """Run fn(), recording its wall time under ``metric``."""
        if time.perf_counter() - self.kernels[-1][0] > CALIBRATION_INTERVAL_S:
            self.calibrate()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            if metric is not None:
                self.timings.append((metric, start, elapsed))
            if elapsed > CALIBRATION_INTERVAL_S:
                self.calibrate()

    def scaled(self) -> dict[str, list[float]]:
        """Every timing at the reference speed, by metric."""
        self.calibrate()
        times = [t for t, _ in self.kernels]
        out: dict[str, list[float]] = defaultdict(list)
        for metric, start, elapsed in self.timings:
            after = bisect.bisect_left(times, start + elapsed)
            lo = min(after - 1, bisect.bisect_left(times, start - SMOOTHING_S))
            hi = max(after + 1, bisect.bisect_right(times, start + elapsed + SMOOTHING_S))
            local = statistics.mean(k for _, k in self.kernels[lo:hi])
            out[metric].append(elapsed * REFERENCE_KERNEL_S / local)
        return out

    def scale(self) -> float:
        """Mean factor from this run's wall time to the reference speed."""
        return REFERENCE_KERNEL_S / statistics.mean(k for _, k in self.kernels)

    # -- commands ------------------------------------------------------------

    def call(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.active = True
            try:
                code = self.cli.main(argv)
            finally:
                if tracer is not None:
                    tracer.active = False
        return code, out.getvalue(), err.getvalue()

    def command(self, argv: list[str], metric: str | None) -> tuple[int, str, str]:
        """One counted eaclab command; its time goes to ``metric``."""
        self.attempted += 1
        return self.timed(metric, lambda: self.call(argv))

    def fail(self, where: str, problems: list[str]) -> None:
        for problem in problems:
            self.errors.append(f"{where}: {problem}")

    def validate(self, spec: Spec) -> None:
        code, _, err = self.command(
            ["validate", spec.path, "--lab", self.lab_path], "verdict_s")
        codes = {line.split()[0] for line in err.splitlines() if line.strip()}
        if spec.expect is None and (code != 0 or codes):
            self.fail(spec.key, [f"valid spec rejected ({code}): {err.strip()[:200]}"])
        elif spec.expect is not None and (code != 2 or codes != {spec.expect}):
            self.fail(spec.key, [f"expected {spec.expect}, got exit {code} with {sorted(codes)}"])

    def validates(self, spec: Spec, count: int) -> None:
        for _ in range(count):
            self.validate(spec)

    def plan(self, spec: Spec, policy: str) -> dict:
        code, out, err = self.command(
            ["plan", spec.path, "--lab", self.lab_path, "--policy", policy],
            "plan_s" if policy == "batched" else None)
        if code != 0:
            self.fail(spec.key, [f"plan --policy {policy} exited {code}: {err.strip()[:200]}"])
            return {"assignments": [], "makespan": 0.0}
        plan = json.loads(out)
        self.fail(spec.key, checks.check_plan(plan, spec.nodes, spec.edges))
        self.fail(spec.key, checks.check_makespan_bounds(plan, spec.edges))
        self.note_plan_hash(spec, policy, checks.sha256(plan))
        return plan

    def plans(self, spec: Spec) -> None:
        """Plan with both policies, compare them and count plan quality."""
        fifo = self.plan(spec, "fifo")
        batched = self.plan(spec, "batched")
        self.fail(spec.key, checks.check_policies(batched, fifo))
        self.layer["scheduler.makespan_fifo_sim_s"] += fifo["makespan"]
        self.layer["scheduler.makespan_batched_sim_s"] += batched["makespan"]
        self.layer["scheduler.mode_transitions"] += checks.mode_transitions(
            batched, spec.modes, self.initial_modes)

    def note_plan_hash(self, spec: Spec, policy: str, digest: str) -> None:
        known = self.hashes.setdefault(spec.key, {}).setdefault(policy, digest)
        if known != digest:
            self.fail(spec.key, [f"{policy} planning is not repeatable: {known} then {digest}"])

    def run(self, spec: Spec, out: Path, inject: str | None = None,
            metric: str | None = "run_s") -> tuple[Path, dict]:
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", spec.path, "--lab", self.lab_path, "--seed", str(self.seed),
                "--out", str(out.relative_to(ROOT))]
        if inject is not None:
            argv += ["--inject", inject]
        code, stdout, err = self.command(argv, metric)
        summary = json.loads(stdout.splitlines()[0])
        run_dir = out / summary["run_id"]
        data = checks.read_run(run_dir)
        want = 0 if summary["status"] == "completed" else 3
        if code != want:
            self.fail(spec.key, [f"run exited {code} for status {summary['status']}"])
        self.note_plan_hash(spec, "batched", data["result"]["plan_hash"])
        self.check_run(spec, data)
        self.layer["cli.run_dir_bytes"] += dir_bytes(run_dir)
        return run_dir, data

    def resume(self, spec: Spec, run_dir: Path, device: str) -> dict:
        before = dir_bytes(run_dir)
        code, _, err = self.command(
            ["resume", str(run_dir.relative_to(ROOT)), "--lab", self.lab_path,
             "--clear", device], "resume_s")
        data = checks.read_run(run_dir)
        if code != 0 or data["result"]["status"] != "completed":
            self.fail(spec.key, [f"resume exited {code}: {err.strip()[:200]}"])
        self.check_run(spec, data)
        self.layer["cli.run_dir_bytes"] += dir_bytes(run_dir) - before
        return data

    def check_run(self, spec: Spec, data: dict) -> None:
        problems = checks.check_hashes(data) + checks.check_replay(data, self.replay_bytes)
        if data["result"]["status"] != "paused":
            problems += checks.check_released(data)
        if data["result"]["status"] == "completed":
            problems += checks.check_measurements(data, self.lab)
        self.fail(spec.key, problems)

    def faulted(self, spec: Spec, kind: str, index: int, clean_telemetry: str,
                run_metric: str | None = "run_s") -> None:
        """Run with one injected fault, resume if it paused, check the outcome."""
        out = self.work / "inject"
        run_dir, data = self.run(spec, out, inject=f"{kind}@{index}", metric=run_metric)
        if checks.injected_dispatch(data["log"], index) is None:
            # No operation carries this dispatch index, so the injection is
            # silently dropped and the run completes: a failed operation.
            self.failed += 1
            if data["result"]["status"] != "completed":
                self.fail(spec.key, [f"{kind}@{index} without a target ended "
                                     f"{data['result']['status']}"])
            self.fail(spec.key, checks.check_same_telemetry(data, clean_telemetry))
            return
        self.fail(spec.key, checks.check_disposition(data, INJECT_KINDS[kind], index, spec.nodes))
        status = data["result"]["status"]
        if status == "paused":
            device = [e for e in data["log"] if e["kind"] == "fault"][-1]["device_id"]
            data = self.resume(spec, run_dir, device)
        if status != "aborted":
            self.fail(spec.key, checks.check_same_telemetry(data, clean_telemetry))

    def cold_validate(self, spec: Spec) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        argv = [sys.executable, "-m", "eaclab.cli", "validate", spec.path,
                "--lab", self.lab_path]
        self.attempted += 1
        proc = self.timed("cli_s", lambda: subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S))
        if proc.returncode != (0 if spec.expect is None else 2):
            self.fail(spec.key, [f"cold validate exited {proc.returncode}"])

    # -- inputs --------------------------------------------------------------

    def add_spec(self, key: str, path: Path, expect: str | None = None) -> Spec:
        spec = Spec(key, path, expect)
        if expect is None:
            spec.nodes, spec.edges, spec.modes = reference_dag(
                path.read_text(encoding="utf-8"), self.registry, self.genesis)
        return spec

    def self_test(self) -> None:
        """Run the checkers' self-test on real reference-campaign outputs."""
        base = self.work / "selftest"
        shutil.rmtree(base, ignore_errors=True)
        lab = json.loads(REFERENCE_LAB.read_text(encoding="utf-8"))
        from eaclab.capabilities import registry_from_lab_config
        from eaclab.labstate import genesis_from_lab_config
        genesis = genesis_from_lab_config(lab)
        nodes, edges, _ = reference_dag(
            REFERENCE_CAMPAIGN.read_text(), registry_from_lab_config(lab), genesis)
        spec = str(REFERENCE_CAMPAIGN.relative_to(ROOT))
        lab_path = str(REFERENCE_LAB.relative_to(ROOT))
        runs = {}
        for name, extra in (("clean", []), ("aborted", ["--inject", "implicit@5"])):
            _, out, _ = self.call(["run", spec, "--lab", lab_path, "--out",
                                   str((base / name).relative_to(ROOT))] + extra)
            runs[name] = checks.read_run(base / name / json.loads(out)["run_id"])
        _, out, _ = self.call(["plan", spec, "--lab", lab_path, "--policy", "fifo"])
        problems = checks.self_test(
            runs["clean"], runs["aborted"], ("implicit_violation", 5), (nodes, edges),
            json.loads(out), lab, replayer(genesis))
        self.fail("checkers", problems)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# -- workloads -----------------------------------------------------------------

def campaign_scale(bench: Bench):
    doc = inputs.campaign_scale(json.loads(REFERENCE_CAMPAIGN.read_text()), bench.lab)
    spec = bench.add_spec(doc["spec_id"], inputs.write_json(
        WORK / "inputs" / "campaign_scale.json", doc))
    injections: list[int] = []  # two fill dispatches in the middle third

    def between(cold: bool) -> None:
        bench.validates(spec, 4)
        if cold:
            bench.cold_validate(spec)

    def one_round() -> None:
        between(cold=True)
        bench.plans(spec)
        for _ in range(2):
            between(cold=False)
            bench.plan(spec, "batched")
        for _ in range(2):
            between(cold=True)
            _, clean = bench.run(spec, bench.work / "clean")
        if not injections:
            fills = [e["payload"]["index"] for e in clean["log"]
                     if e["kind"] == "dispatch" and e["payload"].get("op") == "dispense"]
            third = len(fills) // 3
            injections.extend(bench.rng.sample(fills[third:len(fills) - third], 2))
        for index in injections:
            between(cold=False)
            # A paused run is about half as long as a clean one; timing it
            # too would put the median of run_s between two clusters.
            bench.faulted(spec, "error", index, clean["telemetry_text"], run_metric=None)
        between(cold=True)

    return one_round


def agent_ensemble(bench: Bench):
    bench.lab_path = str(inputs.write_json(
        WORK / "inputs" / "ensemble_lab.json", bench.lab).relative_to(ROOT))
    base = json.loads(REFERENCE_CAMPAIGN.read_text())
    specs = []
    for doc, expect in inputs.agent_ensemble(bench.seed, base, bench.lab):
        path = inputs.write_json(WORK / "inputs" / "agent" / f"{doc['spec_id']}.json", doc)
        specs.append(bench.add_spec(doc["spec_id"], path, expect))
    accepted = [s for s in specs if s.expect is None]
    inject = {s.key for s in accepted[::inputs.INJECT_EVERY]}

    def one_round() -> None:
        for i, spec in enumerate(specs):
            bench.validate(spec)
            if spec.expect is not None:
                continue
            bench.plans(spec)
            _, clean = bench.run(spec, bench.work / "clean" / f"{i:03d}")
            if spec.key in inject:
                if spec.inject_index is None:
                    spec.inject_index = bench.rng.choice(
                        [e["payload"]["index"] for e in clean["log"]
                         if e["kind"] == "dispatch" and "frame" in e["payload"]])
                bench.faulted(spec, "error", spec.inject_index, clean["telemetry_text"])
            if i % COLD_EVERY == 0:
                bench.cold_validate(spec)

    return one_round


def fault_sweep(bench: Bench):
    spec = bench.add_spec("li2so4-reference", REFERENCE_CAMPAIGN)
    ops = inputs.fault_sweep(bench.seed)

    def between() -> None:
        bench.validates(spec, 4)
        for _ in range(4):
            bench.plan(spec, "batched")
        for _ in range(3):
            bench.cold_validate(spec)

    def one_round() -> None:
        bench.plans(spec)
        _, clean = bench.run(spec, bench.work / "clean")
        for i, (kind, index) in enumerate(ops):
            bench.faulted(spec, kind, index, clean["telemetry_text"])
            if i % 36 == 35:
                between()

    return one_round


# -- per-layer figures ---------------------------------------------------------

def layer_hooks() -> dict:
    def dag_size(counts, args, dag):
        counts["dags"] += 1
        counts["compiler.dag_nodes"] += len(dag.nodes)
        counts["compiler.dag_edges"] += len(dag.edges)

    def steps(counts, args, spec):
        counts["expansions"] += 1
        counts["specmodel.steps"] += len(spec.steps)

    def run_result(counts, args, result):
        counts["executor.dispatches"] += sum(e.kind == "dispatch" for e in result.log)
        counts["executor.retries"] += sum(
            e.kind == "fault" and e.payload.get("disposition") == "recover" for e in result.log)
        counts["shims.wire_frames"] += len(result.wire)
        counts["telemetry.records"] += len(result.telemetry)

    return {
        "compiler.compile_spec": dag_size,
        "specmodel.expand_sweeps": steps,
        "executor.execute": run_result,
        "executor.resume": run_result,
    }


def per_layer(tracer: Tracer, bench: Bench, rounds: int, import_s: float) -> dict:
    """Per-round figures; times are self times at the reference speed."""
    scale = bench.scale()
    s = {name: ns / 1e9 / rounds * scale for name, ns in tracer.self_ns.items()}
    c = {name: n / rounds for name, n in tracer.calls.items()}
    k = tracer.counts
    values = {
        "compiler.adjacency_s": (s.get("compiler.adjacency", 0.0), "s/round"),
        "compiler.adjacency_calls": (c.get("compiler.adjacency", 0), "count/round"),
        "compiler.topo_order_s": (s.get("compiler.topo_order", 0.0), "s/round"),
        "compiler.topo_order_calls": (c.get("compiler.topo_order", 0), "count/round"),
        "compiler.compile_spec_s": (s.get("compiler.compile_spec", 0.0), "s/round"),
        "compiler.render_tree_s": (s.get("compiler.render_tree", 0.0), "s/round"),
        "compiler.dag_nodes": (k["compiler.dag_nodes"] / max(k["dags"], 1), "count"),
        "compiler.dag_edges": (k["compiler.dag_edges"] / max(k["dags"], 1), "count"),
        "compiler.static_check_s": (s.get("compiler.static_check", 0.0), "s/round"),
        "scheduler.schedule_s": (s.get("scheduler.schedule", 0.0), "s/round"),
        "scheduler.schedule_calls": (c.get("scheduler.schedule", 0), "count/round"),
        "scheduler.batch_compatible_s": (s.get("scheduler.batch_compatible", 0.0), "s/round"),
        "scheduler.resolve_bindings_s": (s.get("scheduler.resolve_bindings", 0.0), "s/round"),
        "scheduler.makespan_fifo_sim_s": (bench.layer["scheduler.makespan_fifo_sim_s"] / rounds, "sim_s/round"),
        "scheduler.makespan_batched_sim_s": (bench.layer["scheduler.makespan_batched_sim_s"] / rounds, "sim_s/round"),
        "scheduler.mode_transitions": (bench.layer["scheduler.mode_transitions"] / rounds, "count/round"),
        "specmodel.parse_spec_s": (s.get("specmodel.parse_spec", 0.0), "s/round"),
        "specmodel.expand_sweeps_s": (s.get("specmodel.expand_sweeps", 0.0), "s/round"),
        "specmodel.steps": (k["specmodel.steps"] / max(k["expansions"], 1), "count"),
        "capabilities.check_param_ranges_s": (s.get("capabilities.check_param_ranges", 0.0), "s/round"),
        "capabilities.registry_s": (s.get("capabilities.registry", 0.0), "s/round"),
        "labstate.genesis_s": (s.get("labstate.genesis", 0.0), "s/round"),
        "labstate.apply_event_s": (s.get("labstate.apply_event", 0.0), "s/round"),
        "labstate.apply_event_calls": (c.get("labstate.apply_event", 0), "count/round"),
        "labstate.replay_s": (s.get("labstate.replay", 0.0), "s/round"),
        "labstate.query_eligible_s": (s.get("labstate.query_eligible", 0.0), "s/round"),
        "executor.execute_s": (s.get("executor.execute", 0.0), "s/round"),
        "executor.resume_s": (s.get("executor.resume", 0.0), "s/round"),
        "executor.dispatches": (k["executor.dispatches"] / rounds, "count/round"),
        "executor.prechecks": (c.get("executor.runtime_precheck", 0), "count/round"),
        "executor.retries": (k["executor.retries"] / rounds, "count/round"),
        "shims.encode_operation_s": (s.get("shims.encode_operation", 0.0), "s/round"),
        "shims.fleet_step_s": (s.get("shims.fleet_step", 0.0), "s/round"),
        "shims.wire_frames": (k["shims.wire_frames"] / rounds, "count/round"),
        "telemetry.records": (k["telemetry.records"] / rounds, "count/round"),
        "canon.canonical_json_s": (s.get("canon.canonical_json", 0.0), "s/round"),
        "canon.sha256_hex_s": (s.get("canon.sha256_hex", 0.0), "s/round"),
        "cli.run_dir_bytes": (bench.layer["cli.run_dir_bytes"] / rounds, "bytes/round"),
        "cli.self_s": (s.get("cli", 0.0), "s/round"),
        "cli.import_s": (import_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"n": len(ordered), "median": statistics.median(ordered)}
    for pct in (99, 90):
        if len(ordered) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
            break
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="measure set-up only and print it")
    args = parser.parse_args()

    cli, lab, registry, genesis, setup_s, import_s = set_up(args.workload)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    bench = Bench(cli, lab, registry, genesis, args, None)
    bench.self_test()
    tracer = None
    if args.trace:
        tracer = bench.tracer = Tracer()
        tracer.install(layer_hooks())
    one_round = {"campaign_scale": campaign_scale, "agent_ensemble": agent_ensemble,
                 "fault_sweep": fault_sweep}[args.workload](bench)

    began = time.perf_counter()
    rounds = 0
    while True:
        round_began = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        # Stop when less than half of another round would fit, so that a
        # run measures --seconds on average.
        if now - began + (now - round_began) / 2 > args.seconds:
            break
    measured_s = time.perf_counter() - began

    scaled = bench.scaled()
    e2e = {name: summary(scaled[name]) for name in TIMED}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        metrics = {name: {"value": e2e[name]["median"], "unit": "s"} for name in TIMED}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    else:
        metrics = per_layer(tracer, bench, rounds, import_s)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "measured_s": measured_s, "speed_scale": bench.scale(),
        "calibrations": len(bench.kernels), "attempted": bench.attempted,
        "failed": bench.failed, "timings": e2e, "metrics": metrics,
        "plan_hashes": bench.hashes, "errors": bench.errors[:50],
    }
    out = inputs.write_json(
        WORK / "out" / f"{args.workload}-s{args.seed}-t{args.trace}.json", report)
    for key, policies in sorted(bench.hashes.items()):
        print(f"plan-hash {key} fifo={policies.get('fifo')} batched={policies.get('batched')}")
    for name, stats in e2e.items():
        print(f"{name} " + " ".join(f"{k}={v:.6g}" for k, v in stats.items())
              + (" (traced)" if tracer else ""))
    print(f"{rounds} rounds in {measured_s:.1f} s; report in {out.relative_to(ROOT)}")
    for problem in bench.errors[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "setup": {"setup_s": setup_s, "import_s": import_s},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
