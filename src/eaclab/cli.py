"""Command-line entry point: validate, plan, run, state, resume.

Standard output carries machine-parseable canonical JSON/NDJSON only;
human-readable renderings and diagnostics go to standard error. Exit
codes: 0 success, 2 validation error, 3 runtime fault (paused/aborted),
4 usage error.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from types import MappingProxyType, SimpleNamespace

from eaclab.canon import canonical_json, sha256_text
from eaclab.capabilities import registry_from_lab_config
from eaclab.compiler import Diagnostic, compile_spec, render_tree, static_check
from eaclab.errors import (
    EacError,
    SpecSchemaError,
    SpecSyntaxError,
    StillBlockedError,
    UnschedulableError,
)
from eaclab.labstate import (
    SimDeviceConfig,
    StateEvent,
    apply_event,
    genesis_from_lab_config,
    replay,
    snapshot,
)
from eaclab.records import replace
from eaclab.specmodel import expand_sweeps, parse_spec, serialize_spec

# The scheduler is imported by the commands that plan or read a run
# directory, and the executor, ``SimFleet`` and telemetry only by those
# that run, once every check has passed: ``validate`` loads none of them,
# and ``state`` or a refused ``resume`` loads no part of the simulator.

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
    """A usage error: ``main`` prints it as one ``usage error:`` line, exit 4."""


class _Mismatch(Exception):
    """Run-directory files that disagree with each other or with the lab:
    ``main`` prints it as one ``checkpoint mismatch:`` line, exit 2."""


# The JSON types of the run-directory fields, by the names errors give them.
_JSON_TYPES = {"a string": (str,), "an integer": (int,), "a string or null": (str, type(None))}

# What malformed input documents raise while they are turned into objects;
# ``RecursionError`` is JSON nested too deeply to decode.
_DAMAGE = (EacError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
           RecursionError)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}".splitlines()[0]


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc}") from exc


def _read_text(path: str) -> str:
    """The file's text, decoded from its exact bytes (no newline translation)."""
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Usage(f"{path} is not UTF-8 text: {exc}") from exc


def _read_json(path: str, what: str, **decoding):
    try:
        return json.loads(_read_text(path), **decoding)
    except json.JSONDecodeError as exc:
        raise _Usage(f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _Usage(f"{what} {path} is nested too deeply: {exc}") from exc


@functools.lru_cache(maxsize=1)
def _lab_from_bytes(data: bytes):
    """The simulator configs, registry, genesis state and hash of a lab
    file's bytes.

    Memoised on the bytes, so a process parses an unchanged lab once.
    Exceptions are not cached. The hash, the sha256 of the lab's canonical
    JSON, is a function that hashes it at its first call: only ``run``,
    ``resume`` and ``state --run`` record or check it and load ``hashlib``.
    The others are read-only, since every later command with the same
    bytes gets the same objects: the configs are a tuple of frozen
    ``SimDeviceConfig``s, one per device, whose tables are mapping
    proxies; the registry refuses ``register``; and the genesis state's
    device table, and each record's ``observed`` and ``attrs``, are
    mapping proxies. Parsing every device's ``sim`` section here makes a
    bad one fail every command, not only ``run``, and gives ``run`` and
    ``resume`` their fleet's configs. A device of a capability the
    registry does not hold, or an observed value of another dimension than
    its capability's safety threshold, fails every command the same way.
    """
    lab = json.loads(data.decode("utf-8"))
    registry = registry_from_lab_config(lab).freeze()
    genesis = genesis_from_lab_config(lab)
    configs = tuple(SimDeviceConfig.from_lab_entry(entry) for entry in lab.get("devices", []))
    devices = {}
    for device_id, record in genesis.devices.items():
        if record.capability not in registry:
            raise ValueError(
                f"{device_id}.capability names no registered capability: {record.capability!r}"
            )
        registry.get(record.capability).safety.refuse_other_dimensions(
            {name: q.unit for name, q in record.observed.items()}, f"{device_id}.observed"
        )
        devices[device_id] = replace(
            record,
            observed=MappingProxyType(record.observed),
            attrs=MappingProxyType(record.attrs),
        )
    lab_hash = functools.cache(functools.partial(sha256_text, canonical_json(lab)))
    return configs, registry, replace(genesis, devices=MappingProxyType(devices)), lab_hash


def _load_lab(path: str | None):
    """The lab's simulator configs, registry, genesis state and hash; errors
    fail closed.

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
    mapping dispatch indices to kinds, e.g. ``{"14": "error"}``.

    An index is ASCII digits, and at most one entry names each dispatch.
    """
    if not arg:
        return {}
    if "@" in arg:
        entries = [part.partition("@")[::2] for part in arg.split(",")]
    else:
        # An object decodes to its (key, value) pairs, a key given twice
        # included; an array still decodes to a list.
        doc = _read_json(arg, "--inject file", object_pairs_hook=tuple)
        if not isinstance(doc, tuple):
            raise _Usage(f"--inject file {arg} must hold a JSON object")
        entries = [(kind, index) for index, kind in doc]
    schedule_map = {}
    for kind, index in entries:
        if not (isinstance(kind, str) and kind in _INJECT_ALIASES
                and index.isascii() and index.isdecimal()):
            raise _Usage(f"bad --inject entry {kind}@{index}")
        if int(index) in schedule_map:
            raise _Usage(f"bad --inject entry {kind}@{index}: "
                         f"another entry names dispatch {int(index)}")
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
    """Parse a spec and statically check it at its template.

    Returns (spec, diagnostics, lab), ``lab`` as ``_load_lab`` returns it.
    The spec is the template, with its sweeps, which ``compile_spec``
    lowers without expanding them. It is None when the spec has errors,
    and the diagnostics are then its errors; otherwise there are none.
    """
    lab = _load_lab(lab_path)
    _, registry, genesis, _ = lab
    data = _read_bytes(spec_path)
    try:
        spec = parse_spec(_spec_text(data))
    except SpecSyntaxError as exc:
        return None, [Diagnostic("syntax", f"{exc.line}:{exc.column}", str(exc))], lab
    except SpecSchemaError as exc:
        return None, [Diagnostic(exc.code, exc.locus, str(exc))], lab
    diagnostics = static_check(spec, registry, genesis)
    return None if diagnostics else spec, diagnostics, lab


def _report(diagnostics: list[Diagnostic]) -> None:
    for diagnostic in diagnostics:
        print(diagnostic.render(), file=sys.stderr)


def cmd_validate(args) -> int:
    spec, diagnostics, _ = _validate_pipeline(args.spec, args.lab)
    _report(diagnostics)
    return EXIT_OK if spec is not None else EXIT_VALIDATION


def cmd_plan(args) -> int:
    from eaclab.scheduler import schedule

    spec, diagnostics, (_, registry, genesis, _) = _validate_pipeline(args.spec, args.lab)
    _report(diagnostics)
    if spec is None:
        return EXIT_VALIDATION
    dag = compile_spec(spec, registry, genesis, diagnostics)
    try:
        plan = schedule(dag, genesis, registry, policy=args.policy)
    except UnschedulableError as exc:
        print(f"unsatisfiable_binding error $: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(plan.serialize())
    print(render_tree(dag), file=sys.stderr)
    return EXIT_OK


def _write(path: str, data: bytes, mode: str = "wb") -> None:
    """One binary write: the same bytes, ``\\n`` line ends, on every platform."""
    with open(path, mode) as fh:
        fh.write(data)


def _ndjson(dicts) -> bytes:
    return "".join([canonical_json(d) + "\n" for d in dicts]).encode("utf-8")


def _write_run_artifacts(run_dir: str, result, head: dict, mode: str = "wb") -> dict:
    """Write a run's logs, ``telemetry.csv``, snapshot, summary and
    checkpoint, and return the summary. ``head`` holds the summary's keys
    that a resume keeps; a resume (``mode`` ``"ab"``) appends to the logs
    and ``telemetry.csv``."""
    from eaclab.telemetry import export_csv

    base = f"{run_dir}{os.sep}"
    _write(base + "log.ndjson", _ndjson(event.to_dict() for event in result.log), mode)
    _write(base + "telemetry.ndjson", _ndjson(rec.to_dict() for rec in result.telemetry), mode)
    _write(base + "wire.ndjson", _ndjson(result.wire), mode)
    csv_text = export_csv(result.telemetry, header=mode == "wb")
    _write(base + "telemetry.csv", csv_text.encode("utf-8"), mode)
    _write(base + "snapshot.json", snapshot(result.state) + b"\n")
    summary = {
        "run_id": result.run_id,
        "status": result.status,
        **head,
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
    last = float("inf")  # a completed run reached every dispatch it had
    if result.status != "completed":
        last = max((e.payload["index"] for e in result.log if e.kind == "dispatch"), default=0)
    for indices, reason in (
        ([i for i in result.uninjected if i <= last], "no operation dispatch carries that index"),
        ([i for i in result.uninjected if i > last], f"the run stopped at dispatch {last}"),
    ):
        if indices:
            print(
                f"nothing injected at dispatch {', '.join(map(str, indices))}: {reason}",
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
    from eaclab.scheduler import plan_hash, schedule
    from eaclab.shims import SimFleet

    # The seed goes into the run id, and so into a directory name.
    if not -2**63 <= args.seed < 2**63:
        raise _Usage(f"--seed must lie in the signed 64-bit range {-2**63}..{2**63 - 1}")
    spec, diagnostics, lab = _validate_pipeline(args.spec, args.lab)
    sim_configs, registry, genesis, lab_hash = lab
    _report(diagnostics)
    if spec is None:
        return EXIT_VALIDATION
    dag = compile_spec(spec, registry, genesis, diagnostics)
    try:
        plan = schedule(dag, genesis, registry, policy=args.policy)
    except UnschedulableError as exc:
        print(f"unsatisfiable_binding error $: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    fault_schedule = _parse_inject(args.inject)
    # spec.json holds the expansion, so that a resume reads no sweeps.
    spec_text = serialize_spec(expand_sweeps(spec))
    shash = sha256_text(spec_text)
    run_id = f"run-{shash[:8]}-s{args.seed}"
    # The run directory is made, and the spec and plan written, before any
    # device acts: a run that cannot keep its record does not start.
    run_dir = os.path.join(args.out, run_id)
    os.makedirs(run_dir, exist_ok=True)
    _write(f"{run_dir}{os.sep}spec.json", (spec_text + "\n").encode("utf-8"))
    _write(f"{run_dir}{os.sep}plan.json", (plan.serialize() + "\n").encode("utf-8"))
    result = execute(plan, dag, genesis, registry, SimFleet(sim_configs, registry, args.seed),
                     run_id=run_id, spec_hash=shash, fault_schedule=fault_schedule)
    head = {"seed": args.seed, "spec_hash": shash, "plan_hash": plan_hash(plan),
            "lab_hash": lab_hash()}
    return _report_run(result, _write_run_artifacts(run_dir, result, head))


def _read_run(run_dir: str, lab, paused: bool):
    """Read the run directory ``run_dir`` and check that its files hold
    together and fit ``lab``: the one reader of a run directory, shared by
    ``state --run`` and ``resume`` (``paused``, which needs a checkpoint).

    The checks run in the order README's "Faults and resume" lists, before
    anything is written or the executor loads: damage is a usage error
    (exit 4), disagreement a checkpoint mismatch (exit 2). Returns the
    replayed state, the highest dispatch index logged, the summary keys a
    resume keeps, the checkpoint or None, the plan, and spec.json's DAG.
    """
    from eaclab.scheduler import Checkpoint, ExecutionPlan, plan_hash

    _, registry, genesis, lab_hash = lab
    path = functools.partial(os.path.join, run_dir)
    if paused and not os.path.exists(path("checkpoint.json")):
        raise _Usage(f"no checkpoint in {run_dir}")
    log_path = path("log.ndjson")
    if not os.path.isfile(log_path):
        raise _Usage(f"no event log in {run_dir}")

    def damaged(why: str) -> _Usage:
        return _Usage(f"run directory {run_dir} is damaged: {why}")

    def fields(name: str, doc, **kinds: str) -> list:
        """The values of ``kinds``' keys in ``doc``, each of the JSON type named."""
        for key, kind in kinds.items():
            if key not in doc or type(doc[key]) not in _JSON_TYPES[kind]:
                shown = repr(doc[key]) if key in doc else "missing"
                raise damaged(f"{key} in {name} must be {kind}, not {shown}")
        return [doc[key] for key in kinds]

    try:
        summary = _read_json(path("result.json"), "run summary")
        run_id, seed, shash, phash = fields(
            "result.json", summary,
            run_id="a string", seed="an integer", spec_hash="a string", plan_hash="a string",
        )
    except _DAMAGE as exc:
        raise damaged(_describe(exc)) from exc
    # Another lab is named before the log is replayed over its genesis
    # state, where the run's own events may not fit it.
    if summary.get("lab_hash") != lab_hash():
        raise _Mismatch("the lab does not match the lab hash in result.json"
                        if "lab_hash" in summary else "result.json records no lab hash")
    lines = _read_text(log_path).splitlines()
    # A resumed run continues the run's dispatch numbering. A run pauses
    # right after its last committed node: the node of the last dispatch
    # before the last pausing fault, less the faulting node's own
    # dispatches (retries, or its dispatch before an earlier pause).
    last_dispatch, committed = 0, None
    dispatched: list = []  # the node of every dispatch, in log order

    def events():
        """The log's events, each decoded once ``replay`` has folded the
        one before it, so the damage named is the first damaged line's;
        each folded event's dispatch index and pausing fault are noted."""
        nonlocal last_dispatch, committed
        scan = json.JSONDecoder().scan_once
        for line in lines:
            if not line.strip():
                continue
            # The C scanner decodes a line that is one JSON value alone. A
            # line it does not consume whole goes to json.loads, which takes
            # JSON whitespace around a value or raises for the damage.
            try:
                obj, end = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None
            if end != len(line):
                obj = json.loads(line)
            event = StateEvent.from_dict(obj)
            yield event
            if event.kind == "dispatch":
                last_dispatch = max(last_dispatch, int(event.payload["index"]))
                dispatched.append(event.payload.get("node_id"))
            elif event.kind == "fault" and event.payload.get("disposition") == "pause":
                faulted = event.payload.get("node_id")
                committed = next((n for n in reversed(dispatched) if n != faulted), None)

    try:
        state = replay(genesis, events())
    except _DAMAGE as exc:
        raise _Usage(f"event log {log_path} is damaged: {_describe(exc)}") from exc

    try:
        checkpoint = None
        if os.path.exists(path("checkpoint.json")):
            checkpoint = Checkpoint(*fields(
                "checkpoint.json", _read_json(path("checkpoint.json"), "checkpoint"),
                run_id="a string", last_committed_node="a string or null",
                state_epoch="an integer", plan_hash="a string",
            ))
        plan = ExecutionPlan.from_dict(_read_json(path("plan.json"), "plan"))
        # spec.json is the text whose hash the run recorded, plus a newline.
        spec_text = _read_text(path("spec.json")).removesuffix("\n")
        spec = parse_spec(spec_text)
        if sha256_text(spec_text) != shash:
            raise _Mismatch("spec.json does not match the spec hash in result.json")
        dag = compile_spec(spec, registry, genesis)
    except _DAMAGE as exc:
        raise damaged(_describe(exc)) from exc

    if plan_hash(plan) != phash:
        raise _Mismatch("plan.json does not match the plan hash in result.json")
    assigned = [a.node_id for a in plan.assignments]
    if len(assigned) != len(dag.nodes) or set(assigned) != set(dag.nodes):
        raise _Mismatch("plan.json does not assign exactly the nodes compiled from spec.json")
    for a in plan.assignments:
        capability = dag.bindings[dag.nodes[a.node_id].binding]["capability"]
        record = state.devices.get(a.device_id)
        if record is None or record.capability != capability:
            raise _Mismatch(
                f"plan.json assigns {a.node_id} to {a.device_id!r}, "
                f"which is not a {capability} of the lab"
            )
    if checkpoint is not None:
        if checkpoint.plan_hash != phash:
            raise _Mismatch("checkpoint.json does not match the plan hash in result.json")
        if checkpoint.run_id != run_id:
            raise _Mismatch("checkpoint.json does not match the run id in result.json")
        if checkpoint.last_committed_node not in (None, *assigned):
            raise _Mismatch(
                f"checkpoint.json names {checkpoint.last_committed_node!r}, "
                "which plan.json does not assign"
            )
        if checkpoint.state_epoch != state.next_seq:
            raise _Mismatch(
                f"checkpoint is at state epoch {checkpoint.state_epoch}, "
                f"log.ndjson replays to epoch {state.next_seq}"
            )
        if checkpoint.last_committed_node != committed:
            claimed, logged = (
                "null" if node is None else repr(node)
                for node in (checkpoint.last_committed_node, committed)
            )
            raise _Mismatch(
                f"checkpoint.json has committed {claimed}, log.ndjson has committed {logged}"
            )
    head = {"seed": seed, "spec_hash": shash, "plan_hash": phash, "lab_hash": lab_hash()}
    return state, last_dispatch, head, checkpoint, plan, dag


def cmd_state(args) -> int:
    lab = _load_lab(args.lab)
    _, registry, genesis, _ = lab
    state = _read_run(args.run, lab, paused=False)[0] if args.run else genesis
    table = []
    for device_id in sorted(state.devices):
        record = state.devices[device_id]
        table.append(
            {
                "device_id": device_id,
                "capability": record.capability,
                "status": record.status,
                "holder": record.holder,
                "calibration_age_s": state.clock - record.last_calibrated,
                "calibration_window_s": registry.get(record.capability).calibration_window,
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


def cmd_resume(args) -> int:
    lab = _load_lab(args.lab)
    sim_configs, registry, _, _ = lab
    state, last_dispatch, head, checkpoint, plan, dag = _read_run(args.run_dir, lab, paused=True)
    # Only a run directory that passed every check loads the executor.
    from eaclab.executor import resume
    from eaclab.shims import SimFleet

    appended: list[StateEvent] = []
    if args.clear:
        if args.clear not in state.devices:
            raise _Usage(f"--clear names no device of the lab: {args.clear!r}")
        payload = {"to": "idle", "by": "operator"}
        event = StateEvent(state.next_seq, state.clock, args.clear, "transition", payload)
        state = apply_event(state, event)
        appended.append(event)

    fleet = SimFleet(sim_configs, registry, head["seed"])
    try:
        result = resume(
            checkpoint, plan, dag, state, registry, fleet,
            spec_hash=head["spec_hash"], last_dispatch=last_dispatch,
        )
    except StillBlockedError as exc:
        print(f"still blocked: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    result.log[:0] = appended
    return _report_run(result, _write_run_artifacts(args.run_dir, result, head, "ab"))


# A negative number is a positional argument (or a value), not an option.
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")

_LAB = {"--lab": (None, str, "lab config file; the default is $EAC_LAB")}
_POLICY = {"--policy": ("batched", ("fifo", "batched"), "scheduling policy")}

# The command line. Each command has its handler, a summary, the name of
# its one positional argument (None for none) and its options. An option
# maps to its default, its type (``str`` or ``int``) or tuple of choices,
# and its help.
COMMANDS = {
    "validate": (cmd_validate, "statically check a spec", "spec", _LAB),
    "plan": (cmd_plan, "compile and schedule a spec", "spec", {**_LAB, **_POLICY}),
    "run": (cmd_run, "execute a spec in simulation", "spec", {
        **_LAB,
        **_POLICY,
        "--seed": (0, int, "simulator seed, also part of the run id"),
        "--inject": (None, str, "fault schedule: kind@index[,kind@index...] or a JSON file"),
        "--out": ("runs", str, "directory that receives the run directory"),
    }),
    "state": (cmd_state, "print the device table", None, {
        **_LAB, "--run": (None, str, "run directory whose event log to replay"),
    }),
    "resume": (cmd_resume, "continue a paused run", "run_dir", {
        **_LAB, "--clear": (None, str, "device id whose fault an operator has cleared"),
    }),
}


def _choices(names) -> str:
    return ", ".join(map(repr, names))


def _help(command: str | None) -> str:
    """The usage text of one command, or of the program when None."""
    if command is None:
        lines = [
            f"usage: eaclab {{{','.join(COMMANDS)}}} ...",
            "",
            "Declarative experiment stack: validate, plan, and run experiment",
            "configs against a simulated device fleet.",
            "",
            "commands:",
            *(f"  {name:<10}{summary}" for name, (_, summary, _, _) in COMMANDS.items()),
            "",
            "eaclab COMMAND --help lists the command's options.",
        ]
        return "\n".join(lines)
    _, summary, positional, options = COMMANDS[command]
    forms = {
        name: f"{name} {{{','.join(kind)}}}" if isinstance(kind, tuple)
        else f"{name} {name[2:].upper()}"
        for name, (_, kind, _) in options.items()
    }
    usage = ["usage: eaclab", command, *([positional.upper()] if positional else [])]
    usage += [f"[{form}]" for form in forms.values()]
    lines = [" ".join(usage), "", summary, "", "options:"]
    for name, (default, _, text) in options.items():
        default = "" if default is None else f" (default: {default})"
        lines.append(f"  {forms[name]:<26}{text}{default}")
    return "\n".join(lines)


def parse_args(argv: list[str]):
    """The handler and arguments of a command line, read by ``COMMANDS``, or
    None when the line asks for help, which is then printed.

    An option's value is the next argument, whatever it is, or the text
    after ``=``. Any other argument that starts with ``-`` is an unknown
    option, unless it is ``-`` or a negative number; every argument after
    ``--`` is positional. ``-h`` or ``--help`` anywhere asks for help, that
    of the command when one leads the line.
    """
    if "-h" in argv or "--help" in argv:
        print(_help(argv[0] if argv[0] in COMMANDS else None))
        return None
    if not argv:
        raise _Usage("the following arguments are required: command")
    command, *rest = argv
    if command not in COMMANDS:
        raise _Usage(
            f"argument command: invalid choice: {command!r} (choose from {_choices(COMMANDS)})"
        )
    handler, _, positional, options = COMMANDS[command]
    values = {name[2:]: default for name, (default, _, _) in options.items()}
    positionals = []
    args = iter(rest)
    for arg in args:
        if arg == "--":
            positionals += args
            break
        name, eq, value = arg.partition("=")
        if name not in options:
            if arg[:1] == "-" and arg != "-" and not _NEGATIVE_NUMBER.match(arg):
                raise _Usage(f"unrecognized arguments: {arg}")
            positionals.append(arg)
            continue
        if not eq:
            value = next(args, None)
            if value is None:
                raise _Usage(f"argument {name}: expected one argument")
        kind = options[name][1]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _Usage(f"argument {name}: invalid int value: {value!r}") from None
        elif kind is not str and value not in kind:
            raise _Usage(
                f"argument {name}: invalid choice: {value!r} (choose from {_choices(kind)})"
            )
        values[name[2:]] = value
    if positional is not None:
        if not positionals:
            raise _Usage(f"the following arguments are required: {positional}")
        values[positional] = positionals.pop(0)
    if positionals:
        raise _Usage(f"unrecognized arguments: {' '.join(positionals)}")
    return handler, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; callable repeatedly in one
    process. ``argv`` defaults to ``sys.argv[1:]``."""
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            return EXIT_OK
        handler, args = parsed
        return handler(args)
    except _Mismatch as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (_Usage, OSError) as exc:
        # One line, even when a path or an argument holds a newline.
        message = str(exc).replace("\n", "\\n")
        print(f"usage error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
