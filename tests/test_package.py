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
