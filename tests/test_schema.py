"""``schema/experiment_spec.schema.json`` against the parser.

The schema is what an agent can check a spec with before eaclab sees it.
It must accept every spec eaclab's own inputs are made of, and refuse a
structurally damaged document exactly when ``parse_spec`` refuses it for
its shape: a wrong type, a missing or unknown field, or an empty string or
version the schema bounds.
"""

import copy
import json

import pytest
from jsonschema import Draft202012Validator

from eaclab.cli import main
from eaclab.errors import SpecSchemaError
from eaclab.specmodel import parse_spec

from conftest import CAMPAIGN_PATH, LAB_PATH, REPO_ROOT
from workloads import perfbench_inputs

SCHEMA = json.loads((REPO_ROOT / "schema" / "experiment_spec.schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)
CAMPAIGN = json.loads(CAMPAIGN_PATH.read_text())
LAB = json.loads(LAB_PATH.read_text())

# The reference campaign's parts, by path.
SELECT, FILL, MEASURE = ("steps", 0), ("steps", 1), ("steps", 2)
VALVE = ("resources", 1)
STAB = (*MEASURE, "stabilization")
VOLUME = (*FILL, "params", "volume")
DROP = object()

# Structural damage to the reference campaign: (path, new value, or DROP
# to delete the key).
MUTATIONS = {
    "drop_spec_id": (("spec_id",), DROP),
    "drop_version": (("version",), DROP),
    "drop_resources": (("resources",), DROP),
    "drop_steps": (("steps",), DROP),
    "drop_binding_name": ((*VALVE, "name"), DROP),
    "drop_capability": ((*VALVE, "capability"), DROP),
    "drop_step_id": ((*SELECT, "id"), DROP),
    "drop_step_binding": ((*SELECT, "binding"), DROP),
    "drop_op": ((*SELECT, "op"), DROP),
    "drop_mode": ((*STAB, "mode"), DROP),
    "drop_duration": ((*STAB, "duration"), DROP),
    "drop_value": ((*VOLUME, "value"), DROP),
    "drop_signal": ((*STAB, "signal"), DROP),  # setpoint_then_hold without signal
    "drop_metadata": (("metadata",), DROP),
    "drop_constraints": ((*VALVE, "constraints"), DROP),
    "drop_unit": ((*VOLUME, "unit"), DROP),
    "unknown_top": (("notes",), "x"),
    "unknown_resource": ((*VALVE, "notes"), "x"),
    "unknown_step": ((*SELECT, "notes"), "x"),
    "unknown_stabilization": ((*STAB, "notes"), "x"),
    "unknown_quantity": ((*VOLUME, "notes"), "x"),
    "type_spec_id": (("spec_id",), 5),
    "type_version": (("version",), 1.0),
    "type_resources": (("resources",), {}),
    "type_steps": (("steps",), "select"),
    "type_metadata": (("metadata",), ["x"]),
    "type_metadata_value": (("metadata", "objective"), 1),
    "type_binding_name": ((*VALVE, "name"), ["valve"]),
    "type_selector": ((*VALVE, "selector"), 1),
    "type_constraints": ((*VALVE, "constraints"), [6]),
    "type_constraint": ((*VALVE, "constraints", "min_ports"), "6"),
    "type_params": ((*SELECT, "params"), []),
    "type_quantity": ((*SELECT, "params", "dest"), 1),
    "type_value": ((*VOLUME, "value"), "0.7"),
    "type_unit": ((*VOLUME, "unit"), 1),
    "type_depends_on": ((*FILL, "depends_on"), "select"),
    "type_dependency": ((*FILL, "depends_on", 0), 0),
    "type_repeat": ((*SELECT, "repeat"), [1, 2]),
    "type_sweep": ((*SELECT, "repeat", "dest"), 3),
    "type_sweep_value": ((*SELECT, "repeat", "dest", 0), "1"),
    "type_stabilization": ((*STAB,), "hold"),
    "type_signal": ((*STAB, "signal"), 1),
    "empty_spec_id": (("spec_id",), ""),
    "empty_version": (("version",), ""),
    "empty_binding_name": ((*VALVE, "name"), ""),
    "empty_step_id": ((*SELECT, "id"), ""),
    "empty_signal": ((*STAB, "signal"), ""),  # setpoint_then_hold with an empty signal
    "empty_selector": ((*VALVE, "selector"), ""),
    "bool_value": ((*VOLUME, "value"), True),
    "bool_constraint": ((*VALVE, "constraints", "min_ports"), True),
    "bool_sweep_value": ((*SELECT, "repeat", "dest", 0), False),
    "fixed_delay_without_signal": ((*STAB,), {"mode": "fixed_delay",
                                              "duration": {"value": 5, "unit": "s"}}),
}

# Empty names the schema refuses and ``parse_spec`` leaves to the name
# checks, which refuse them as they refuse any other unknown name:
# (path, the code ``validate`` gives).
EMPTY_NAMES = {
    "empty_capability": ((*VALVE, "capability"), "unknown_capability"),
    "empty_op": ((*SELECT, "op"), "unknown_operation"),
    "empty_step_binding": ((*SELECT, "binding"), "dangling_binding"),
}

SHAPE_CODES = {"bad_type", "missing_field", "unknown_field"}


def _mutated(path, value):
    doc = copy.deepcopy(CAMPAIGN)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _parse_refusal(doc):
    """The ``SpecSchemaError`` ``parse_spec`` refuses doc with, or None."""
    try:
        parse_spec(json.dumps(doc))
    except SpecSchemaError as exc:
        return exc
    return None


def _refused_for_shape(exc) -> bool:
    """Whether a parse error is one the schema states: a wrong type, a
    missing or unknown field, or a ``bad_value`` for an empty string or a
    version (``spec_id`` and ``version`` are the document's, at ``$``)."""
    if exc is None:
        return False
    if exc.code in SHAPE_CODES:
        return True
    return exc.code == "bad_value" and (exc.locus == "$" or str(exc).endswith(" is empty"))


def _schema_errors(doc):
    return [error.message for error in VALIDATOR.iter_errors(doc)]


def test_the_schema_is_a_valid_draft_2020_12_schema():
    Draft202012Validator.check_schema(SCHEMA)


def test_the_schema_accepts_the_reference_and_benchmark_specs():
    inputs = perfbench_inputs()
    docs = [CAMPAIGN, inputs.campaign_scale(copy.deepcopy(CAMPAIGN), LAB)]
    docs += [doc for doc, _ in inputs.agent_ensemble(0, copy.deepcopy(CAMPAIGN),
                                                     inputs.ensemble_lab(LAB))]
    assert len(docs) == 2 + inputs.ENSEMBLE_SPECS
    for doc in docs:
        assert _schema_errors(doc) == [], doc["spec_id"]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_the_schema_refuses_exactly_what_the_parser_refuses_for_its_shape(name):
    doc = _mutated(*MUTATIONS[name])
    refusal = _parse_refusal(doc)
    assert bool(_schema_errors(doc)) == _refused_for_shape(refusal), refusal


@pytest.mark.parametrize("name", sorted(EMPTY_NAMES))
def test_an_empty_name_the_schema_refuses_is_refused_by_validate(tmp_path, capsys, name):
    path, code = EMPTY_NAMES[name]
    doc = _mutated(path, "")
    assert _schema_errors(doc) != []
    assert not _refused_for_shape(_parse_refusal(doc))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["validate", str(spec), "--lab", str(LAB_PATH)]) == 2
    assert capsys.readouterr().err.split()[0] == code
