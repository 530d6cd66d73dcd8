"""Command-line entry point: validate, plan, run, state, resume.

Standard output carries machine-parseable canonical JSON/NDJSON only;
human-readable renderings and diagnostics go to standard error. Exit
codes: 0 success, 2 validation error, 3 runtime fault (paused/aborted),
4 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from types import MappingProxyType

from eaclab.canon import canonical_json, sha256_text
from eaclab.capabilities import registry_from_lab_config
from eaclab.compiler import Diagnostic, compile_spec, render_tree, static_check
from eaclab.errors import (
    CheckpointMismatchError,
    EacError,
    SpecSchemaError,
    SpecSyntaxError,
    StillBlockedError,
    UnschedulableError,
)
from eaclab.labstate import (
    StateEvent,
    apply_event,
    genesis_from_lab_config,
    replay,
    snapshot,
)
from eaclab.records import replace
from eaclab.shims import SimDeviceConfig
from eaclab.specmodel import check_sweeps, expand_sweeps, parse_spec, serialize_spec

# The scheduler is imported by the commands that plan, and the executor,
# ``SimFleet`` and telemetry by those that run, so ``validate`` and
# ``state`` load neither.

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_USAGE = 4

_INJECT_ALIASES = {
    "timeout": "comm_timeout",
    "comm_timeout": "comm_timeout",
    "error": "device_error",
    "device_error": "device_error",
    "noliquid": "no_liquid_detected",
    "no_liquid_detected": "no_liquid_detected",
    "implicit": "implicit_violation",
    "implicit_violation": "implicit_violation",
}


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, its subparsers' included, are one
    ``usage error:`` line (exit 4) rather than usage text and a message."""

    def error(self, message):
        raise _Usage(message)


# What malformed input documents raise while they are turned into objects;
# ``RecursionError`` is JSON nested too deeply to decode.
_DAMAGE = (EacError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
           RecursionError)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}".splitlines()[0]


def _read_bytes(path: Path | str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc}") from exc


def _read_text(path: Path | str) -> str:
    """The file's text, decoded from its exact bytes (no newline translation)."""
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Usage(f"{path} is not UTF-8 text: {exc}") from exc


def _loads(text: str, path: Path | str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _Usage(f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _Usage(f"{what} {path} is nested too deeply: {exc}") from exc


def _read_json(path: Path | str, what: str):
    return _loads(_read_text(path), path, what)


@functools.lru_cache(maxsize=1)
def _lab_from_bytes(data: bytes):
    """The simulator configs, registry and genesis state of a lab file's bytes.

    Memoised on the bytes, so a process parses an unchanged lab once.
    Exceptions are not cached. All three are read-only, since every later
    command with the same bytes gets the same objects: the configs are a
    tuple of frozen ``SimDeviceConfig``s, one per device, whose tables are
    mapping proxies; the registry refuses ``register``; and the genesis
    state's device table, and each record's ``observed`` and ``attrs``,
    are mapping proxies. Parsing every
    device's ``sim`` section here makes a bad one fail every command, not
    only ``run``, and gives ``run`` and ``resume`` their fleet's configs.
    """
    lab = json.loads(data.decode("utf-8"))
    registry = registry_from_lab_config(lab).freeze()
    genesis = genesis_from_lab_config(lab)
    configs = tuple(SimDeviceConfig.from_lab_entry(entry) for entry in lab.get("devices", []))
    devices = {
        device_id: replace(
            record,
            observed=MappingProxyType(record.observed),
            attrs=MappingProxyType(record.attrs),
        )
        for device_id, record in genesis.devices.items()
    }
    return configs, registry, replace(genesis, devices=MappingProxyType(devices))


def _load_lab(path: str | None):
    """The lab's simulator configs, registry and genesis state; errors fail closed.

    The file is read on every call, so an edited lab takes effect at once.
    """
    if path is None:
        path = os.environ.get("EAC_LAB")
    if path is None:
        raise _Usage("no lab config: pass --lab or set EAC_LAB")
    data = _read_bytes(path)
    try:
        return _lab_from_bytes(data)
    except UnicodeDecodeError as exc:
        raise _Usage(f"lab config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _Usage(f"lab config {path} is not valid JSON: {exc}") from exc
    except _DAMAGE as exc:
        raise _Usage(f"lab config {path} is invalid: {_describe(exc)}") from exc


def _parse_inject(arg: str | None) -> dict[int, str]:
    """Fault schedule from ``kind@index[,kind@index...]`` or a JSON file
    mapping dispatch indices to kinds, e.g. ``{"14": "error"}``."""
    if not arg:
        return {}
    if "@" in arg:
        entries = [part.partition("@")[::2] for part in arg.split(",")]
    else:
        doc = _read_json(arg, "--inject file")
        if not isinstance(doc, dict):
            raise _Usage(f"--inject file {arg} must hold a JSON object")
        entries = [(kind, index) for index, kind in doc.items()]
    schedule_map = {}
    for kind, index in entries:
        if not isinstance(kind, str) or kind not in _INJECT_ALIASES or not index.isdecimal():
            raise _Usage(f"bad --inject entry {kind}@{index}")
        schedule_map[int(index)] = _INJECT_ALIASES[kind]
    return schedule_map


def _spec_text(data: bytes) -> str:
    """A spec file's text; bytes that are not UTF-8 are a syntax error."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise SpecSyntaxError(f"not UTF-8 text: {exc.reason}", line, column) from exc


def _validate_pipeline(spec_path: str, lab_path: str | None):
    """Parse a spec, check its sweeps and statically check it at its template.

    Returns (spec, diagnostics, sim_configs, registry, genesis). The spec is
    the template, with its sweeps: a command that compiles it expands it.
    It is None when the spec has errors, and the diagnostics are then its
    errors.
    """
    sim_configs, registry, genesis = _load_lab(lab_path)
    data = _read_bytes(spec_path)
    try:
        spec = parse_spec(_spec_text(data))
        check_sweeps(spec)
    except SpecSyntaxError as exc:
        error = Diagnostic("syntax", "error", f"{exc.line}:{exc.column}", str(exc))
        return None, [error], sim_configs, registry, genesis
    except SpecSchemaError as exc:
        error = Diagnostic(exc.code, "error", exc.locus, str(exc))
        return None, [error], sim_configs, registry, genesis
    diagnostics = static_check(spec, registry, genesis)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        return None, errors, sim_configs, registry, genesis
    return spec, diagnostics, sim_configs, registry, genesis


def _report(diagnostics: list[Diagnostic]) -> None:
    for diagnostic in diagnostics:
        print(diagnostic.render(), file=sys.stderr)


def cmd_validate(args) -> int:
    spec, diagnostics, *_ = _validate_pipeline(args.spec, args.lab)
    _report(diagnostics)
    return EXIT_OK if spec is not None else EXIT_VALIDATION


def cmd_plan(args) -> int:
    from eaclab.scheduler import schedule

    spec, diagnostics, _, registry, genesis = _validate_pipeline(args.spec, args.lab)
    _report(diagnostics)
    if spec is None:
        return EXIT_VALIDATION
    dag = compile_spec(expand_sweeps(spec), registry, genesis, diagnostics)
    try:
        plan = schedule(dag, genesis, registry, policy=args.policy)
    except UnschedulableError as exc:
        print(f"unsatisfiable_binding error $: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(plan.serialize())
    print(render_tree(dag), file=sys.stderr)
    return EXIT_OK


def _run_dir(out: str, run_id: str) -> Path:
    path = Path(out) / run_id
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: str, data: bytes, mode: str = "wb") -> None:
    """One binary write: the same bytes, ``\\n`` line ends, on every platform."""
    with open(path, mode) as fh:
        fh.write(data)


def _ndjson(dicts) -> bytes:
    return "".join([canonical_json(d) + "\n" for d in dicts]).encode("utf-8")


def _write_run_artifacts(
    run_dir: Path, result, plan, shash: str, seed: int, plan_read: str | None = None
):
    """Write a run's artifacts but ``spec.json``. A resume passes
    ``plan_read``, the text of ``plan.json`` it read: the logs and
    ``telemetry.csv`` are then appended to, and ``plan.json`` rewritten only
    if changed."""
    from eaclab.scheduler import plan_hash
    from eaclab.telemetry import export_csv

    base = f"{run_dir}{os.sep}"
    append = plan_read is not None
    mode = "ab" if append else "wb"
    _write(base + "log.ndjson", _ndjson(event.to_dict() for event in result.log), mode)
    _write(base + "telemetry.ndjson", _ndjson(rec.to_dict() for rec in result.telemetry), mode)
    _write(base + "wire.ndjson", _ndjson(result.wire), mode)
    csv_text = export_csv(result.telemetry, header=not append)
    _write(base + "telemetry.csv", csv_text.encode("utf-8"), mode)
    plan_text = plan.serialize() + "\n"
    if plan_text != plan_read:
        _write(base + "plan.json", plan_text.encode("utf-8"))
    _write(base + "snapshot.json", snapshot(result.state) + b"\n")
    summary = {
        "run_id": result.run_id,
        "status": result.status,
        "seed": seed,
        "spec_hash": shash,
        "plan_hash": plan_hash(plan),
        "telemetry_count": len(result.telemetry),
    }
    _write(base + "result.json", _ndjson([summary]))
    if result.checkpoint is not None:
        _write(base + "checkpoint.json", _ndjson([result.checkpoint.to_dict()]))
    elif os.path.exists(base + "checkpoint.json"):
        os.unlink(base + "checkpoint.json")
    return summary


def _report_run(result, summary: dict) -> int:
    """Print a run's summary, then on stderr the injections nothing carried
    and the fault that stopped it; the exit code of ``run`` and ``resume``."""
    print(canonical_json(summary))
    if result.uninjected:
        print(
            "nothing injected at dispatch "
            + ", ".join(str(i) for i in result.uninjected)
            + ": no operation dispatch carries that index",
            file=sys.stderr,
        )
    if result.fault is not None:
        print(
            f"fault {result.fault.kind} at {result.fault.node_id}: "
            f"{result.fault.detail}",
            file=sys.stderr,
        )
    return EXIT_OK if result.status == "completed" else EXIT_RUNTIME


def cmd_run(args) -> int:
    from eaclab.executor import execute
    from eaclab.scheduler import schedule
    from eaclab.shims import SimFleet

    # The seed goes into the run id, and so into a directory name.
    if not -2**63 <= args.seed < 2**63:
        raise _Usage(f"--seed must lie in the signed 64-bit range {-2**63}..{2**63 - 1}")
    spec, diagnostics, sim_configs, registry, genesis = _validate_pipeline(args.spec, args.lab)
    _report(diagnostics)
    if spec is None:
        return EXIT_VALIDATION
    spec = expand_sweeps(spec)
    dag = compile_spec(spec, registry, genesis, diagnostics)
    try:
        plan = schedule(dag, genesis, registry, policy=args.policy)
    except UnschedulableError as exc:
        print(f"unsatisfiable_binding error $: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    fleet = SimFleet(sim_configs, args.seed)
    spec_text = serialize_spec(spec)
    shash = sha256_text(spec_text)
    run_id = f"run-{shash[:8]}-s{args.seed}"
    result = execute(
        plan,
        dag,
        genesis,
        registry,
        fleet,
        run_id=run_id,
        spec_hash=shash,
        fault_schedule=_parse_inject(args.inject),
    )
    run_dir = _run_dir(args.out, run_id)
    _write(f"{run_dir}{os.sep}spec.json", (spec_text + "\n").encode("utf-8"))
    return _report_run(result, _write_run_artifacts(run_dir, result, plan, shash, args.seed))


def _load_run_state(run_dir: Path, genesis):
    log_path = run_dir / "log.ndjson"
    if not log_path.is_file():
        raise _Usage(f"no event log in {run_dir}")
    try:
        events = [
            StateEvent.from_dict(json.loads(line))
            for line in _read_text(log_path).splitlines()
            if line.strip()
        ]
        return replay(genesis, events), events
    except _DAMAGE as exc:
        raise _Usage(f"event log {log_path} is damaged: {_describe(exc)}") from exc


def cmd_state(args) -> int:
    _, registry, genesis = _load_lab(args.lab)
    if args.run:
        state, _ = _load_run_state(Path(args.run), genesis)
    else:
        state = genesis
    table = []
    for device_id in sorted(state.devices):
        record = state.devices[device_id]
        window = (
            registry.get(record.capability).calibration_window
            if record.capability in registry
            else None
        )
        table.append(
            {
                "device_id": device_id,
                "capability": record.capability,
                "status": record.status,
                "holder": record.holder,
                "calibration_age_s": state.clock - record.last_calibrated,
                "calibration_window_s": window,
            }
        )
    print(canonical_json(table))
    for row in table:
        print(
            f"{row['device_id']:<16} {row['capability']:<14} {row['status']:<8} "
            f"cal_age={row['calibration_age_s']:.0f}s",
            file=sys.stderr,
        )
    return EXIT_OK


def _resume_mismatch(checkpoint, summary_plan_hash, plan, dag, state) -> str | None:
    """Why the paused run's plan, spec and log do not belong together, if so."""
    from eaclab.scheduler import plan_hash

    if plan_hash(plan) != summary_plan_hash:
        return "plan.json does not match the plan hash in result.json"
    assigned = [a.node_id for a in plan.assignments]
    if len(assigned) != len(dag.nodes) or set(assigned) != set(dag.nodes):
        return "plan.json does not assign exactly the nodes compiled from spec.json"
    for a in plan.assignments:
        capability = dag.bindings[dag.nodes[a.node_id].binding]["capability"]
        record = state.devices.get(a.device_id)
        if record is None or record.capability != capability:
            return (
                f"plan.json assigns {a.node_id} to {a.device_id!r}, "
                f"which is not a {capability} of the lab"
            )
    if checkpoint.state_epoch != state.epoch:
        return (
            f"checkpoint is at state epoch {checkpoint.state_epoch}, "
            f"log.ndjson replays to epoch {state.epoch}"
        )
    return None


def cmd_resume(args) -> int:
    from eaclab.executor import Checkpoint, resume
    from eaclab.scheduler import ExecutionPlan
    from eaclab.shims import SimFleet

    run_dir = Path(args.run_dir)
    if not (run_dir / "checkpoint.json").exists():
        raise _Usage(f"no checkpoint in {run_dir}")
    sim_configs, registry, genesis = _load_lab(args.lab)
    plan_path = run_dir / "plan.json"
    try:
        checkpoint = Checkpoint.from_dict(
            _read_json(run_dir / "checkpoint.json", "checkpoint")
        )
        summary = _read_json(run_dir / "result.json", "run summary")
        seed = summary.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise _Usage(
                f"run directory {run_dir} is damaged: "
                f"seed in result.json must be an integer, not {seed!r}"
            )
        shash = summary["spec_hash"]
        summary_plan_hash = summary["plan_hash"]
        # The run continues the plan it was paused under; it is not planned
        # again. The text read is kept, so that an unchanged plan.json is
        # not rewritten.
        plan_read = _read_text(plan_path)
        plan = ExecutionPlan.from_dict(_loads(plan_read, plan_path, "plan"))
        # spec.json is the text whose hash the run recorded, plus a newline.
        spec_text = _read_text(run_dir / "spec.json").removesuffix("\n")
        spec = parse_spec(spec_text)
        if sha256_text(spec_text) != shash:
            print(
                "checkpoint mismatch: spec.json does not match the spec hash in result.json",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
        dag = compile_spec(spec, registry, genesis)
    except _DAMAGE as exc:
        raise _Usage(f"run directory {run_dir} is damaged: {_describe(exc)}") from exc
    state, events = _load_run_state(run_dir, genesis)
    try:
        # Dispatch indices of the resumed part continue the run's numbering.
        last_dispatch = max(
            (int(e.payload["index"]) for e in events if e.kind == "dispatch"), default=0
        )
    except _DAMAGE as exc:
        raise _Usage(f"event log in {run_dir} is damaged: {_describe(exc)}") from exc
    mismatch = _resume_mismatch(checkpoint, summary_plan_hash, plan, dag, state)
    if mismatch is not None:
        print(f"checkpoint mismatch: {mismatch}", file=sys.stderr)
        return EXIT_VALIDATION

    appended: list[StateEvent] = []
    if args.clear:
        if args.clear not in state.devices:
            raise _Usage(f"--clear names no device of the lab: {args.clear!r}")
        event = StateEvent(
            seq=state.next_seq,
            time=state.clock,
            device_id=args.clear,
            kind="transition",
            payload={"to": "idle", "by": "operator"},
        )
        state = apply_event(state, event)
        appended.append(event)

    fleet = SimFleet(sim_configs, seed)
    try:
        result = resume(
            checkpoint, plan, dag, state, registry, fleet,
            spec_hash=shash, last_dispatch=last_dispatch,
        )
    except CheckpointMismatchError as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StillBlockedError as exc:
        print(f"still blocked: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    result.log[:0] = appended
    return _report_run(result, _write_run_artifacts(run_dir, result, plan, shash, seed, plan_read))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it."""
    parser = _Parser(
        prog="eaclab",
        description="Declarative experiment stack: validate, plan, and run "
        "experiment configs against a simulated device fleet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="statically check a spec")
    p.add_argument("spec")
    p.add_argument("--lab", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plan", help="compile and schedule a spec")
    p.add_argument("spec")
    p.add_argument("--lab", default=None)
    p.add_argument("--policy", choices=("fifo", "batched"), default="batched")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="execute a spec in simulation")
    p.add_argument("spec")
    p.add_argument("--lab", default=None)
    p.add_argument("--policy", choices=("fifo", "batched"), default="batched")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject", default=None,
                   help="fault schedule: kind@index[,kind@index...] or JSON file")
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("state", help="print the device table")
    p.add_argument("--lab", default=None)
    p.add_argument("--run", default=None, help="run directory to replay")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("resume", help="continue a paused run")
    p.add_argument("run_dir")
    p.add_argument("--lab", default=None)
    p.add_argument("--clear", default=None,
                   help="device id whose fault an operator has cleared")
    p.set_defaults(func=cmd_resume)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; callable repeatedly in one
    process."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help, printed to stdout
        return EXIT_OK
    except (_Usage, OSError) as exc:
        # One line, even when a path or an argument holds a newline.
        message = str(exc).replace("\n", "\\n")
        print(f"usage error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
