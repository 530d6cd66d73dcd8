import contextlib
import copy
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


# A custom capability with a ratio clock (a count of samples over a rate),
# and edits of it that a lab config must be refused for: (path, value, what
# the one-line error says).
TCELL = {
    "operations": {
        "scan": {
            "params": {
                "temperature": {"unit": "K", "min": 250, "max": 400},
                "samples": {"min": 0, "max": 1000},
                "rate": {"unit": "Hz", "min": 0.5, "max": 5},
            },
            "kind": "read",
            "duration_s": ["samples", "rate"],
        },
    },
    "transitions": {"warmup": 20, "cooldown": 45, "reconfigure": {"T298->T310": 12}},
}
_SCAN = ("operations", "scan")
_TEMPERATURE = (*_SCAN, "params", "temperature")
_SAMPLES = (*_SCAN, "params", "samples")
_RATE = (*_SCAN, "params", "rate")
_RATIO = "tcell.scan.duration_s ['samples', 'rate'] must name two required params"


def _safety(threshold: dict) -> dict:
    """A safety section bounding the temperature by ``threshold``."""
    return {"conditions": [{"field": "temperature", "comparator": "<=", "threshold": threshold}]}


def _safety_without(key: str) -> dict:
    """A safety section whose one condition has no ``key``."""
    safety = _safety({"value": 360, "unit": "K"})
    del safety["conditions"][0][key]
    return safety


BAD_TCELL = {
    "idempotent": ((*_SCAN, "idempotent"), "false",
                   "tcell.scan.idempotent must be true or false, not 'false'"),
    "optional": ((*_TEMPERATURE, "optional"), "false",
                 "tcell.scan.params.temperature.optional must be true or false"),
    "configure_via": ((*_SCAN, "configure_via"), "heat",
                      "tcell.scan.configure_via names no operation: 'heat'"),
    "reconfigure": (("transitions", "reconfigure"), {"T298": 30},
                    "tcell.transitions.reconfigure key 'T298' must read"),
    "window": (("calibration_window",), -5, "tcell.calibration_window must be > 0"),
    "window_nan": (("calibration_window",), float("nan"),
                   "tcell.calibration_window must be a finite number"),
    "min_nan": ((*_TEMPERATURE, "min"), float("nan"),
                "tcell.scan.params.temperature.min must be a finite number"),
    "max_inf": ((*_TEMPERATURE, "max"), float("inf"),
                "tcell.scan.params.temperature.max must be a finite number"),
    "unit_unknown": ((*_TEMPERATURE, "unit"), "furlong",
                     "tcell.scan.params.temperature.unit must name a unit of the unit table"),
    "unit_type": ((*_TEMPERATURE, "unit"), 5,
                  "tcell.scan.params.temperature.unit must name a unit of the unit table, not 5"),
    "warmup_nan": (("transitions", "warmup"), float("nan"),
                   "tcell.transitions.warmup must be a finite number"),
    "cooldown_text": (("transitions", "cooldown"), "45",
                      "tcell.transitions.cooldown must be a finite number"),
    "latency_nan": (("transitions", "reconfigure", "T298->T310"), float("nan"),
                    "tcell.transitions.reconfigure.T298->T310 must be a finite number"),
    "clock_nan": ((*_SCAN, "duration_s"), float("nan"), "tcell.scan.duration_s must be seconds"),
    "clock_negative": ((*_SCAN, "duration_s"), -1, "tcell.scan.duration_s must be seconds"),
    "clock_shape": ((*_SCAN, "duration_s"), ["rate"], "tcell.scan.duration_s must be seconds"),
    "clock_twice": ((*_SCAN, "duration_s"), ["rate", "rate"],
                    "tcell.scan.duration_s ['rate', 'rate'] must name two required params"),
    "clock_unknown": ((*_SCAN, "duration_s"), ["rate", "ghost"],
                      "tcell.scan.duration_s ['rate', 'ghost'] must name two required params"),
    "clock_optional": ((*_RATE, "optional"), True, _RATIO),
    "clock_zero_divisor": ((*_RATE, "min"), 0, _RATIO),
    "clock_negative_numerator": ((*_SAMPLES, "min"), -1, _RATIO),
    # K / Hz is not a time.
    "clock_dimension": ((*_SCAN, "duration_s"), ["temperature", "rate"],
                        "tcell.scan.duration_s ['temperature', 'rate'] must divide to a time "
                        "(volume/flow, time/dimensionless or dimensionless/frequency), "
                        "not temperature/frequency"),
    "threshold_bool": (("safety",), _safety({"value": True, "unit": "K"}),
                       "tcell.safety.temperature.threshold.value must be a finite number, not True"),
    "field_missing": (("safety",), _safety_without("field"),
                      "tcell.safety.conditions[0] has no 'field'"),
    "comparator_missing": (("safety",), _safety_without("comparator"),
                           "tcell.safety.conditions[0] has no 'comparator'"),
    "threshold_missing": (("safety",), _safety_without("threshold"),
                          "tcell.safety.conditions[0] has no 'threshold'"),
    # The scan's temperature is in K, so a threshold in mL cannot bound it.
    "threshold_dimension": (("safety",), _safety({"value": 360, "unit": "mL"}),
                            "tcell.scan.params.temperature in 'K' (temperature) cannot be "
                            "compared with its safety threshold in 'mL' (volume)"),
    # Lifecycle nodes carry no params, so their clocks cannot be ratios.
    "clock_connect": (("operations", "connect"),
                      {"kind": "connect", "duration_s": ["temperature", "rate"]},
                      "tcell.connect.duration_s ['temperature', 'rate'] must name"),
    # A configure node's clock is evaluated on the params of the step it
    # configures, which here has no rate.
    "clock_configure": (
        ("operations",),
        {
            "scan": {"params": {"temperature": {"unit": "K", "min": 250, "max": 400}},
                     "kind": "read", "configure_via": "warm"},
            "warm": {"params": {"temperature": {"unit": "K", "min": 250, "max": 400},
                                "rate": {"unit": "Hz", "min": 0.5, "max": 5}},
                     "kind": "configure", "duration_s": ["temperature", "rate"]},
        },
        "tcell.scan.configure_via.duration_s ['temperature', 'rate'] must name",
    ),
}


def with_edit(obj: dict, path: tuple, value) -> dict:
    """A deep copy of ``obj`` with the value at ``path`` set to ``value``."""
    edited = copy.deepcopy(obj)
    *parents, key = path
    target = edited
    for parent in parents:
        target = target[parent]
    target[key] = value
    return edited


# TCELL with a safety envelope, checked against commanded and observed
# temperatures, a one-step spec that scans on it, and the reference lab
# with it and the given device entries.
SAFE_TCELL = {**TCELL, "safety": _safety({"value": 360, "unit": "K"})}
SCAN_SPEC = {
    "spec_id": "one-scan",
    "version": "1.0.0",
    "resources": [{"name": "a", "capability": "tcell"}],
    "steps": [{
        "id": "s0",
        "binding": "a",
        "op": "scan",
        "params": {
            "temperature": {"value": 300, "unit": "K"},
            "samples": {"value": 10},
            "rate": {"value": 5, "unit": "Hz"},
        },
    }],
}


def tcell_lab(*devices: dict) -> dict:
    lab = json.loads(LAB_PATH.read_text())
    lab["capabilities"] = {"tcell": copy.deepcopy(SAFE_TCELL)}
    lab["devices"] += devices
    return lab


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
