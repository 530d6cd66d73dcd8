"""Every function of the package earns its place: a corpus of commands, run
in one process, reaches all of them but a declared few, each with its
reason."""

import copy
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import eaclab
from conftest import BAD_TCELL, CAMPAIGN_PATH, LAB_PATH, SAFE_TCELL, TCELL, run_main, with_edit
from test_cli import BAD_DEVICE, BAD_FRAME, BAD_SHAPE, BAD_SIM, DROPPED, UNSENDABLE
from test_schema import MUTATIONS, _mutated
from workloads import perfbench_inputs

PACKAGE = Path(eaclab.__file__).parent

# (module file, qualified name) -> why no command reaches it.
UNREACHED = {
    ("compiler.py", "WorkflowDAG.successors"): "perfbench/spans.py names it; deleted with that file's next change",
    ("compiler.py", "WorkflowDAG.predecessors"): "perfbench/spans.py names it; deleted with that file's next change",
    ("compiler.py", "WorkflowDAG._adjacent"): "serves successors and predecessors alone",
    ("compiler.py", "topo_order"): "perfbench/spans.py names it; deleted with that file's next change",
    ("shims.py", "SimFleet.from_lab_config"): "perfbench/scaling.py builds its fleet with it",
    ("specmodel.py", "spec_hash"): "perfbench/scaling.py hashes its specs with it",
    ("capabilities.py", "builtin_registry"): "public API: the registry without a lab",
    ("__init__.py", "__getattr__"): "public API: the lazy exports of eaclab.__all__",
    ("__init__.py", "__dir__"): "public API: the lazy exports of eaclab.__all__",
    ("records.py", "_build.<locals>.__eq__"): "value equality of records, for their callers",
    ("records.py", "_build.<locals>.__hash__"): "a frozen record hashes its fields",
    ("records.py", "_build.<locals>.__repr__"): "a record prints its fields",
    ("records.py", "_build.<locals>.values"): "the field tuple of a one-field record",
    ("records.py", "_refuse_set"): "a frozen record refuses assignment; only a bug reaches it",
    ("records.py", "_refuse_delete"): "a frozen record refuses deletion; only a bug reaches it",
}

FAULT_KINDS = ("timeout", "error", "noliquid", "implicit")
# A balance tared and read, which no other input of the corpus weighs with.
WEIGH_SPEC = {
    "spec_id": "weigh", "version": "1.0.0",
    "resources": [{"name": "b", "capability": "balance"}],
    "steps": [{"id": "tare", "binding": "b", "op": "tare"},
              {"id": "read", "binding": "b", "op": "read", "depends_on": ["tare"]}],
}
# Dispatches of the reference campaign: a connect, a fill, a configure, a
# stabilize wait, a measure, the last teardown, and one past the run.
FAULT_INDICES = (1, 5, 12, 14, 15, 36, 40)


def _functions() -> set[tuple[str, str]]:
    """(module file, qualified name) of every function the package defines,
    nested ones included; class bodies and comprehensions are not functions."""
    found = set()

    def visit(code, path):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found.add((path.name, const.co_qualname))
                visit(const, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path)
    return found


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _bad_labs(tmp: Path):
    """The lab configs the BAD_* rows describe, each a file."""
    reference = json.loads(LAB_PATH.read_text())

    def lab(**edits):
        edited = copy.deepcopy(reference)
        edited.update(edits)
        return edited

    docs = [lab(capabilities={"tcell": with_edit(TCELL, path, value)})
            for path, value, _ in BAD_TCELL.values()]
    for path, value, _ in BAD_FRAME.values():
        where = ("operations", "connect") if path[0] == "connect" else ("operations", "scan", *path)
        docs.append(lab(capabilities={"tcell": with_edit(TCELL, where, value)}))
    for sim, _ in BAD_SIM.values():
        docs.append(with_edit(reference, ("devices", 0, "sim"), sim))
    for device_id, key, value, _ in BAD_DEVICE.values():
        devices = copy.deepcopy(reference["devices"])
        device = next((d for d in devices if d["device_id"] == device_id), None)
        if device is None:
            devices.append(device := {"device_id": device_id})
        device[key] = value
        if value is DROPPED:
            del device[key]
        docs.append(lab(devices=devices))
    with_tcell = lab(capabilities={"tcell": SAFE_TCELL})
    docs += [with_edit(with_tcell, path, value) if path else value
             for path, value, _ in BAD_SHAPE.values()]
    return [_write(tmp / f"bad-lab-{i}.json", doc) for i, doc in enumerate(docs)]


# Edits of the reference campaign that the parse refuses for a value, a
# reference or a sweep, beyond the shapes of test_schema's MUTATIONS.
_SPEC_EDITS = [
    lambda d: d.update(version="one"),
    lambda d: d["resources"][1].update(constraints={"min_ports": float("nan")}),
    lambda d: d["resources"].append(dict(d["resources"][0])),
    lambda d: d["steps"][0].update(binding="ghost"),
    lambda d: d["steps"][0].update(depends_on=["ghost"]),
    lambda d: d["steps"][0].update(depends_on=["measure"]),
    lambda d: d["steps"].append(dict(d["steps"][0])),
    lambda d: d["steps"][0]["params"].update(x={"value": 1, "unit": "parsec"}),
    lambda d: d["steps"][0]["params"].update(x={"value": 10**400}),
    lambda d: d["steps"][0]["params"].update(x={"value": float("inf")}),
    lambda d: d["steps"][0]["params"].update({"": {"value": 1}}),
    lambda d: d["steps"][2]["stabilization"].update(mode="hover"),
    lambda d: d["steps"][2]["stabilization"].update(duration={"value": 1, "unit": "mL"}),
    lambda d: d["steps"][2]["stabilization"].update(duration={"value": 1, "unit": "furlong"}),
    lambda d: d["steps"][0].update(repeat={"dest": []}),
    lambda d: d["steps"][0].update(repeat={"dest": [10**400]}),
    lambda d: d["steps"][0].update(repeat={"ghost": [1]}),
    lambda d: d["steps"][0].update(repeat={"dest": [1, float("inf")]}),
    lambda d: d["steps"][1].update(id="select#0", depends_on=[]),
]


def _bad_specs(tmp: Path) -> list[str]:
    """Spec files that ``validate`` refuses: test_schema's MUTATIONS, the
    edits above, test_cli's UNSENDABLE values, and texts that are not a
    JSON object."""
    docs = [_mutated(path, value) for path, value in MUTATIONS.values()]
    for edit in _SPEC_EDITS:
        docs.append(json.loads(CAMPAIGN_PATH.read_text()))
        edit(docs[-1])
    for step_id, param, value, _ in UNSENDABLE.values():
        doc = json.loads(CAMPAIGN_PATH.read_text())
        step = next(step for step in doc["steps"] if step["id"] == step_id)
        step.pop("repeat")
        step["params"][param] = value if isinstance(value, dict) else {
            **step["params"][param], "value": value}
        docs.append(doc)
    paths = [_write(tmp / f"bad-spec-{i}.json", doc) for i, doc in enumerate(docs)]
    for i, text in enumerate(["{\n  broken", "[]", "\ufeff{}", "[" * 100_000, "\udcff"]):
        path = tmp / f"bad-text-{i}.json"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        paths.append(str(path))
    return paths


def _corpus(tmp: Path) -> None:
    spec, lab = str(CAMPAIGN_PATH), str(LAB_PATH)
    for argv in (["validate", spec], ["plan", spec], ["plan", spec, "--policy", "fifo"],
                 ["state"], ["run", spec, "--out", str(tmp / "clean")]):
        run_main([*argv, "--lab", lab])
    (clean,) = (tmp / "clean").iterdir()
    run_main(["state", "--run", str(clean), "--lab", lab])
    run_main(["resume", str(clean), "--lab", lab])
    for kind in FAULT_KINDS:
        for index in FAULT_INDICES:
            out = tmp / f"{kind}-{index}"
            run_main(["run", spec, "--lab", lab, "--out", str(out), "--inject", f"{kind}@{index}"])
            (run_dir,) = out.iterdir()
            run_main(["state", "--run", str(run_dir), "--lab", lab])
            run_main(["resume", str(run_dir), "--lab", lab])
            for device in ("pump_1", "pstat_1"):
                run_main(["resume", str(run_dir), "--lab", lab, "--clear", device])
    (run_dir / "result.json").write_text("{}")  # the last run directory, damaged
    run_main(["state", "--run", str(run_dir), "--lab", lab])
    run_main(["run", _write(tmp / "weigh.json", WEIGH_SPEC), "--lab", lab, "--out", str(tmp)])
    inputs = perfbench_inputs()
    ensemble = inputs.ensemble_lab(json.loads(LAB_PATH.read_text()))
    ensemble_path = _write(tmp / "ensemble-lab.json", ensemble)
    agents = inputs.agent_ensemble(1, json.loads(CAMPAIGN_PATH.read_text()), ensemble)
    for i, (doc, _) in enumerate(agents):
        path = _write(tmp / f"agent-{i}.json", doc)
        for argv in (["validate", path], ["plan", path],
                     ["run", path, "--out", str(tmp / "agents")])[:1 + 2 * (i % 10 == 0)]:
            run_main([*argv, "--lab", ensemble_path])
    for path in _bad_labs(tmp):
        run_main(["validate", spec, "--lab", path])
    for path in _bad_specs(tmp):
        run_main(["validate", path, "--lab", lab])
    for argv in (["--help"], ["plan", "--help"], ["validate"], ["validate", spec, "--bogus"],
                 ["plan", spec, "--lab", lab, "--policy", "lifo"],
                 ["run", spec, "--lab", lab, "--inject", "error@x"],
                 ["validate", str(tmp / "missing.json"), "--lab", lab]):
        run_main(argv)


# Records the code objects a fresh process calls as it imports each module
# of the package, so that what only an import runs counts, and then as it
# runs the corpus; the corpus's own imports are not recorded. Prints (file,
# qualified name) of each.
_RECORD_CORPUS = """
import importlib, json, pathlib, sys
called = set()
profile = lambda frame, event, arg: event == "call" and called.add(frame.f_code)
sys.setprofile(profile)
for module in sys.argv[2:]:
    importlib.import_module(module)
sys.setprofile(None)
import test_reach
sys.setprofile(profile)
test_reach._corpus(pathlib.Path(sys.argv[1]))
sys.setprofile(None)
print(json.dumps(sorted({(code.co_filename, code.co_qualname) for code in called})))
"""


def test_every_function_but_a_declared_few_is_reached_by_a_command(tmp_path):
    """Run the corpus in one fresh process with ``sys.setprofile`` recording
    each code object called, and compare the package's functions none of
    them reached with ``UNREACHED``: a function that a change leaves
    unreached is either removed or declared there, with its reason."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(PACKAGE.parent), str(here)))}
    modules = [f"eaclab.{path.stem}".removesuffix(".__init__")
               for path in sorted(PACKAGE.glob("*.py"))]
    proc = subprocess.run([sys.executable, "-c", _RECORD_CORPUS, str(tmp_path), *modules],
                          cwd=here, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    reached = {(Path(filename).name, name) for filename, name in json.loads(proc.stdout)
               if Path(filename).parent == PACKAGE}
    assert sorted(_functions() - reached) == sorted(UNREACHED)
