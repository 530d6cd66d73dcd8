import ast
import os
import subprocess
import sys
from pathlib import Path

import eaclab


def test_every_exported_name_resolves():
    missing = [name for name in eaclab.__all__ if not hasattr(eaclab, name)]
    assert missing == []
    assert len(set(eaclab.__all__)) == len(eaclab.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from eaclab import *", namespace)
    assert set(eaclab.__all__) <= set(namespace)


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
