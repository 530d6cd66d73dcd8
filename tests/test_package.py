import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eaclab
from eaclab.capabilities import BUILTIN_CAPABILITIES
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


def test_a_cold_plan_loads_the_scheduler_and_a_cold_run_the_executor(tmp_path):
    code, loaded = _cold("-m", "eaclab.cli", "plan", *SPEC_AND_LAB)
    assert code == 0
    assert "eaclab.scheduler" in loaded
    assert sorted({"eaclab.executor", "eaclab.telemetry", "csv"} & loaded) == []
    code, loaded = _cold("-m", "eaclab.cli", "run", *SPEC_AND_LAB, "--out", str(tmp_path))
    assert code == 0
    assert RUN_ONLY <= loaded


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
