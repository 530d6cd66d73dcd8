import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eaclab
from eaclab.capabilities import BUILTIN_CAPABILITIES
from eaclab.records import field, record, replace
from conftest import CAMPAIGN_PATH, LAB_PATH, run_main


def test_every_exported_name_resolves():
    missing = [name for name in eaclab.__all__ if not hasattr(eaclab, name)]
    assert missing == []
    assert len(set(eaclab.__all__)) == len(eaclab.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from eaclab import *", namespace)
    assert set(eaclab.__all__) <= set(namespace)
    assert len(eaclab.__all__) == 33


def test_dir_lists_exported_names_and_others_are_missing():
    assert set(eaclab.__all__) <= set(dir(eaclab))
    with pytest.raises(AttributeError, match="has no attribute 'plan_hash'"):
        eaclab.plan_hash


def test_every_benchmark_span_names_a_function_of_the_program():
    """``perfbench/spans.py`` wraps the program's functions by name, so a
    renamed or deleted one breaks a traced benchmark run."""
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for home, attr, _ in spans.SPANS:
        target = importlib.import_module(f"eaclab.{home}")
        for name in attr.split("."):
            target = getattr(target, name)
        assert callable(target), (home, attr)


def test_the_scaling_script_runs():
    """``perfbench/scaling.py`` times the layers through their public calls,
    which no other test makes as it does; at 6 points it prints one JSON
    line of them."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/scaling.py", "6"],
                          cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    figures = json.loads(lines[0])
    assert figures["n"] == 6
    assert set(figures) == {
        "n", "nodes", "edges", "check_compile_s", "schedule_fifo_s",
        "schedule_batched_s", "execute_s", "replay_s",
    }


def test_cold_import_of_the_cli_loads_neither_dataclasses_nor_inspect():
    """A cold command pays for every module ``import eaclab.cli`` loads; the
    records are built without ``dataclasses``, which would bring ``inspect``."""
    probe = "import sys, eaclab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(eaclab.__file__).parents[1])}
    # -S: no site-packages, so only the interpreter core and eaclab load modules.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"


RUN_ONLY = {"eaclab.executor", "eaclab.scheduler", "eaclab.telemetry", "csv", "hashlib"}
# Modules no command loads: the command line is read by ``cli.COMMANDS``,
# not ``argparse`` (which brings ``gettext`` and ``locale``), and paths are
# joined by ``os.path``. ``jsonschema`` is a test dependency only.
NEVER_LOADED = {"argparse", "gettext", "locale", "pathlib", "jsonschema"}
SPEC_AND_LAB = (str(CAMPAIGN_PATH), "--lab", str(LAB_PATH))


def _cold(*args):
    """(exit code, modules loaded) of a fresh ``python -S -X importtime``
    process importing eaclab from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(eaclab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args], capture_output=True, text=True, env=env
    )
    loaded = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, loaded


def test_import_of_the_package_loads_no_layer():
    """Exported names are resolved on first use, not when eaclab is imported."""
    code, loaded = _cold("-c", "import eaclab")
    assert code == 0
    assert "eaclab" in loaded
    assert sorted(m for m in loaded if m.startswith("eaclab.")) == []


def test_import_of_the_cli_and_a_cold_validate_load_no_run_only_module():
    code, loaded = _cold("-c", "import eaclab.cli")
    assert code == 0
    assert "eaclab.compiler" in loaded
    assert sorted(RUN_ONLY & loaded) == []
    code, loaded = _cold("-m", "eaclab.cli", "validate", *SPEC_AND_LAB)
    assert code == 0
    assert "eaclab.specmodel" in loaded
    assert sorted(RUN_ONLY & loaded) == []
    assert sorted(NEVER_LOADED & loaded) == []


def test_a_cold_plan_loads_the_scheduler_and_a_cold_run_the_executor(tmp_path):
    code, loaded = _cold("-m", "eaclab.cli", "plan", *SPEC_AND_LAB)
    assert code == 0
    assert "eaclab.scheduler" in loaded
    assert sorted({"eaclab.executor", "eaclab.telemetry", "csv"} & loaded) == []
    assert sorted(NEVER_LOADED & loaded) == []
    code, loaded = _cold("-m", "eaclab.cli", "run", *SPEC_AND_LAB, "--out", str(tmp_path))
    assert code == 0
    assert RUN_ONLY <= loaded
    assert sorted(NEVER_LOADED & loaded) == []


# What only a run that passed every check of its run directory loads.
SIMULATOR = {"eaclab.executor", "eaclab.shims", "eaclab.telemetry", "csv"}


def _paused_run(tmp_path):
    code, out, _ = run_main(["run", *SPEC_AND_LAB, "--out", str(tmp_path), "--inject", "timeout@5"])
    assert code == 3
    return tmp_path / json.loads(out)["run_id"]


def test_a_run_directory_is_checked_before_the_simulator_loads(tmp_path):
    """``state --run`` and a ``resume`` that the run-directory reader
    refuses, here for an edited ``spec.json``, load neither the executor,
    the simulator nor telemetry's ``csv``."""
    run_dir = _paused_run(tmp_path)
    spec = run_dir / "spec.json"
    spec.write_bytes(spec.read_bytes()[:-1] + b" \n")
    for argv in (["state", "--run", str(run_dir)], ["resume", str(run_dir)]):
        code, loaded = _cold("-m", "eaclab.cli", *argv, "--lab", str(LAB_PATH))
        assert code == 2
        assert "eaclab.scheduler" in loaded
        assert sorted(SIMULATOR & loaded) == []


def test_only_the_reader_opens_a_run_directory_file_for_reading(tmp_path, monkeypatch):
    """``cli._read_run`` is the one function that reads a run directory:
    ``state --run`` and ``resume`` open each of its files for reading under
    it, through the shared file helpers, and nowhere else."""
    from eaclab import cli

    run_dir = _paused_run(tmp_path)
    helpers = {"_read_bytes", "_read_text", "_read_json"}
    readers = []

    def recorded(path, mode="r", *args, **kwargs):
        if os.path.dirname(os.path.abspath(path)) == str(run_dir) and "r" in mode:
            frame, names = sys._getframe(1), []
            while frame is not None:
                if frame.f_globals.get("__name__") == "eaclab.cli":
                    names.append(frame.f_code.co_name)
                frame = frame.f_back
            readers.append((os.path.basename(path), next(n for n in names if n not in helpers)))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recorded, raising=False)
    for argv in (["state", "--run", str(run_dir)], ["resume", str(run_dir), "--clear", "pump_1"],
                 ["state", "--run", str(run_dir)]):
        assert run_main([*argv, "--lab", str(LAB_PATH)])[0] == 0
    assert {owner for _, owner in readers} == {"_read_run"}
    assert {name for name, _ in readers} == {
        "log.ndjson", "result.json", "checkpoint.json", "plan.json", "spec.json"
    }


def test_each_command_builds_the_dag_index_once(tmp_path, monkeypatch):
    """``compile_spec``'s own check builds a DAG's ``Graph``, which the
    schedule, the execution and the rendering then read: ``plan``, ``run``,
    ``state --run`` and ``resume`` build one each, and ``validate``, which
    lowers nothing, builds none."""
    from eaclab import compiler

    run_dir = _paused_run(tmp_path)
    built = []
    init = compiler.Graph.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(compiler.Graph, "__init__", counted)
    counts = {}
    for name, argv in (
        ("validate", ["validate", *SPEC_AND_LAB]),
        ("plan", ["plan", *SPEC_AND_LAB]),
        ("run", ["run", *SPEC_AND_LAB, "--out", str(tmp_path / "again")]),
        ("state --run", ["state", "--run", str(run_dir), "--lab", str(LAB_PATH)]),
        ("resume", ["resume", str(run_dir), "--clear", "pump_1", "--lab", str(LAB_PATH)]),
    ):
        built.clear()
        counts[name] = (run_main(argv)[0], len(built))
    assert counts == {"validate": (0, 0), "plan": (0, 1), "run": (0, 1),
                      "state --run": (0, 1), "resume": (0, 1)}


def test_only_the_compiler_reads_the_edges_of_a_dag():
    """A DAG's edges are read once, into its ``Graph``: every other reader
    of its adjacency or order goes through that index."""
    reads = _owners_in_package(lambda node: isinstance(node, ast.Attribute)
                               and node.attr == "edges")
    assert reads == {("compiler.py", "graph")}


# Counts the record ``__init__``s a process compiles and prints the count as
# the last line of stderr; with arguments it runs ``eaclab.cli`` on them.
_COUNT_INIT_COMPILES = """
import atexit, runpy, sys
compiled = []
def hook(event, args):
    source = args[0] if event == "compile" else None
    if isinstance(source, (str, bytes)) and source[:17] in ("def __init__(self", b"def __init__(self"):
        compiled.append(source)
sys.addaudithook(hook)
atexit.register(lambda: print(len(compiled), file=sys.__stderr__))
if len(sys.argv) > 1:
    sys.argv[0] = "eaclab"
    runpy.run_module("eaclab.cli", run_name="__main__")
else:
    import eaclab.cli
"""


@pytest.mark.parametrize("command, compiled", [
    ((), 2),  # the class-level defaults SafetyEnvelope() and TransitionLatency()
    (("validate", *SPEC_AND_LAB), 13),
    (("plan", *SPEC_AND_LAB), 18),
    (("run", *SPEC_AND_LAB, "--out"), 24),
])
def test_a_cold_command_compiles_only_the_records_it_makes(tmp_path, command, compiled):
    """A record's ``__init__`` is compiled at the class's first instance, so
    importing the CLI compiles 2 of the 19 record classes it loads."""
    if command[-1:] == ("--out",):
        command += (str(tmp_path),)
    env = {**os.environ, "PYTHONPATH": str(Path(eaclab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _COUNT_INIT_COMPILES, *command],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == str(compiled)


def _fresh_record(frozen):
    """A new record class, whose ``__init__`` no instance has compiled yet."""

    @record(frozen=frozen)
    class Probe:
        a: int
        b: str = "b"
        c: list = field(default_factory=list)

        def __post_init__(self):
            if self.a < 0:
                raise ValueError(f"a={self.a} must be >= 0")

    return Probe


def _made(cls, args, kwargs):
    try:
        made = cls(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(made), vars(made)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),
    ((1, "x", [2]), {}),
    ((1,), {"c": [3], "b": "y"}),
    ((), {"a": 1}),
    ((), {}),  # missing a
    ((1,), {"d": 2}),  # unknown keyword
    ((1, "x", [], 4), {}),  # too many
    ((1,), {"a": 2}),  # a twice
    ((-1,), {}),  # __post_init__ raises
])
def test_a_first_instance_is_made_like_a_later_one(frozen, args, kwargs):
    warm = _fresh_record(frozen)
    warm(0)
    assert _made(_fresh_record(frozen), args, kwargs) == _made(warm, args, kwargs)


@pytest.mark.parametrize("frozen", [False, True])
def test_a_class_works_after_its_first_instance_fails(frozen):
    Probe = _fresh_record(frozen)
    with pytest.raises(ValueError, match="a=-1 must be >= 0"):
        Probe(-1)
    first, second = Probe(1), Probe(2, c=[5])
    assert Probe.__init__.__qualname__.endswith("Probe.__init__")
    assert Probe.__init__.__code__.co_varnames[:4] == ("self", "a", "b", "c")
    assert (first.c, second.c) == ([], [5])
    assert Probe(1).c is not first.c
    with pytest.raises(ValueError, match="a=-2 must be >= 0"):
        Probe(-2)


@pytest.mark.parametrize("frozen", [False, True])
def test_replace_on_a_first_instance(frozen):
    Probe = _fresh_record(frozen)
    first = Probe(1, c=[1])
    assert replace(first, b="y") == Probe(1, "y", [1])
    with pytest.raises(ValueError, match="a=-1 must be >= 0"):
        replace(first, a=-1)


def test_an_init_replaced_before_the_first_instance_stays_in_place():
    """A wrapper set over the class's ``__init__`` before its first instance
    (say, a test counting instances) sees every instance."""
    Probe = _fresh_record(False)
    init = Probe.__init__
    seen = []

    def counted(self, *args, **kwargs):
        seen.append(args)
        init(self, *args, **kwargs)

    Probe.__init__ = counted
    assert [Probe(1).a, Probe(2).a] == [1, 2]
    assert seen == [(1,), (2,)]
    assert Probe.__init__ is counted


def _json_encoding_uses(tree):
    """Names of ``json.dump``, ``json.dumps`` and ``JSONEncoder`` that a
    module's syntax tree imports or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json"):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.attr] if node.value.id == "json" else []
        elif isinstance(node, (ast.Attribute, ast.Name)):
            names = [getattr(node, "attr", None) or node.id]
        else:
            continue
        yield from (name for name in names if name in ("dump", "dumps", "JSONEncoder"))


def test_only_canon_encodes_json():
    """Every JSON the package writes goes through ``canon``'s one encoder:
    no other module calls ``json.dump``/``json.dumps`` or builds a
    ``JSONEncoder``, which would cost an encoder per call or give other bytes."""
    package = Path(eaclab.__file__).parent
    uses = {
        path.name: list(_json_encoding_uses(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(package.glob("*.py"))
    }
    assert uses.pop("canon.py") == ["JSONEncoder"]
    assert {name: found for name, found in uses.items() if found} == {}


def test_a_run_builds_no_json_encoder(tmp_path, monkeypatch):
    """``canon`` builds its C encoder once, at import; ``json.dumps`` and
    ``JSONEncoder.encode`` build one per call."""
    import json.encoder

    import eaclab.executor  # everything a run imports, before the count starts

    built = []
    make = json.encoder.c_make_encoder

    def counted(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(json.encoder, "c_make_encoder", counted)
    code, _, _ = run_main(["run", *SPEC_AND_LAB, "--out", str(tmp_path)])
    assert code == 0
    assert len(built) == 0
    json.dumps({"counted": True})
    assert len(built) == 1


def test_only_capabilities_and_shims_name_a_builtin_capability():
    """What a built-in device type is lives in ``capabilities``' literal, and
    its wire codec and simulator in ``shims``: no other module may branch
    on, or otherwise spell, a built-in capability's name."""
    package = Path(eaclab.__file__).parent
    names = set(BUILTIN_CAPABILITIES)
    found = {
        path.name: sorted(
            {node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in names}
        )
        for path in sorted(package.glob("*.py"))
        if path.name not in ("capabilities.py", "shims.py")
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_only_the_simulator_names_a_builtin_capability_in_shims():
    """Frames are data, so the codec in ``shims`` spells no built-in
    capability's name: only the simulator's ``SimDevice.step`` does."""
    names = set(BUILTIN_CAPABILITIES)
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if isinstance(node, ast.Constant) and node.value in names:
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse((Path(eaclab.__file__).parent / "shims.py").read_text(encoding="utf-8")), "")
    assert found == {"SimDevice.step"}


def _owners(tree, matches):
    """Names of the innermost functions enclosing each node ``matches`` accepts."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if matches(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_executor_builds_results_and_logs_dispatches_in_one_place_each():
    """A run ends through ``_result``, the one ``RunResult(...)`` call, and
    every dispatch (operation, stabilize wait, abort teardown) is numbered
    and logged by ``_dispatch``, the one place the ``"dispatch"`` kind is
    spelled."""
    path = Path(eaclab.__file__).parent / "executor.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    results = _owners(tree, lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name) and node.func.id == "RunResult")
    dispatches = _owners(tree, lambda node: isinstance(node, ast.Constant)
                         and node.value == "dispatch")
    assert (results, dispatches) == (["_result"], ["_dispatch"])


def _owners_in_package(matches):
    """(module file, innermost function) of every node ``matches`` accepts
    in the package's modules."""
    return {
        (path.name, owner)
        for path in sorted(Path(eaclab.__file__).parent.glob("*.py"))
        for owner in _owners(ast.parse(path.read_text(encoding="utf-8")), matches)
    }


def test_only_the_parse_walk_reads_a_sweep_and_sets_its_columns():
    """A swept step's values are walked once, by ``_sweep_column``, whose
    one caller ``_parse_step`` sets the step's ``columns`` from that walk
    and makes its refusal: no other place walks a sweep or sets them."""

    def calls_sweep_column(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_sweep_column")

    def sets_columns(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "columns" and isinstance(node.ctx, ast.Store)
        return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.slice, ast.Constant) and node.slice.value == "columns")

    assert _owners_in_package(calls_sweep_column) == {("specmodel.py", "_parse_step")}
    assert _owners_in_package(sets_columns) == {("specmodel.py", "_parse_step")}


def test_only_the_gate_compares_a_calibration():
    """The calibration rule is written once, in ``labstate.gate``, which
    planning (``query_eligible``) and every dispatch (``runtime_precheck``)
    ask: no other comparison reads a window or a calibration time."""
    names = {"calibration_window", "last_calibrated"}

    def compares_calibration(node):
        return isinstance(node, ast.Compare) and any(
            (isinstance(n, ast.Attribute) and n.attr in names)
            or (isinstance(n, ast.Name) and n.id in names)
            for n in ast.walk(node)
        )

    assert _owners_in_package(compares_calibration) == {("labstate.py", "gate")}


def test_only_the_safety_envelope_applies_the_safety_comparator():
    """``SafetyEnvelope.violations`` is the one caller of
    ``SafetyPredicate.holds``; the static check applies it to commanded
    values and the gate to observed ones."""

    def calls_holds(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "holds")

    assert _owners_in_package(calls_holds) == {("capabilities.py", "violations")}


def _module_state(module):
    """What a call could leave behind in ``module``: each global, and each
    attribute of its classes, by identity, with the contents of a mutable
    container and the size of a function's cache."""
    namespaces = {module.__name__: vars(module)}
    namespaces.update({f"{module.__name__}.{name}": vars(value)
                       for name, value in vars(module).items()
                       if isinstance(value, type) and value.__module__ == module.__name__})
    state = {}
    for where, namespace in namespaces.items():
        for name, value in namespace.items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set, bytearray)):
                held = type(value)(value)
            elif hasattr(value, "cache_info"):
                held = value.cache_info().currsize
            else:
                held = None
            state[f"{where}.{name}"] = (id(value), held)
    return state


def test_runs_leave_no_state_in_the_executor_or_the_simulator(tmp_path):
    """Every memo of a run (frames built, frames parsed) belongs to the
    run: two runs of different specs leave the globals of ``executor`` and
    ``shims``, and their classes, as they found them."""
    from eaclab import executor, shims
    from workloads import campaign_doc

    before = [_module_state(executor), _module_state(shims)]
    longer = tmp_path / "campaign-12.json"
    longer.write_text(json.dumps(campaign_doc(12)))
    for spec in (CAMPAIGN_PATH, longer):
        code, _, _ = run_main(["run", str(spec), "--lab", str(LAB_PATH), "--out", str(tmp_path)])
        assert code == 0
    assert [_module_state(executor), _module_state(shims)] == before
