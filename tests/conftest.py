import contextlib
import io
import json
from pathlib import Path

import pytest

from eaclab.capabilities import registry_from_lab_config
from eaclab.cli import main
from eaclab.compiler import compile_spec
from eaclab.labstate import genesis_from_lab_config
from eaclab.specmodel import expand_sweeps, parse_spec

REPO_ROOT = Path(__file__).resolve().parent.parent
LAB_PATH = REPO_ROOT / "configs" / "reference_lab.json"
CAMPAIGN_PATH = REPO_ROOT / "configs" / "li2so4_campaign.json"


def run_main(argv):
    """``eaclab.cli.main(argv)`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def lab_config():
    return json.loads(LAB_PATH.read_text())


@pytest.fixture(scope="session")
def registry(lab_config):
    return registry_from_lab_config(lab_config)


@pytest.fixture
def genesis(lab_config):
    return genesis_from_lab_config(lab_config)


@pytest.fixture(scope="session")
def campaign_text():
    return CAMPAIGN_PATH.read_text()


@pytest.fixture
def campaign_spec(campaign_text):
    return expand_sweeps(parse_spec(campaign_text))


@pytest.fixture
def campaign_dag(campaign_spec, registry, genesis):
    return compile_spec(campaign_spec, registry, genesis)
