import copy
import itertools
import json
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from eaclab import specmodel
from eaclab.canon import canonical_json
from eaclab.capabilities import registry_from_lab_config
from eaclab.compiler import compile_spec, static_check
from eaclab.errors import SpecSchemaError, SpecSyntaxError
from eaclab.labstate import genesis_from_lab_config
from eaclab.records import replace
from eaclab.specmodel import (
    StepSpec,
    _dependency_cycle,
    expand_sweeps,
    parse_spec,
    serialize_spec,
    spec_hash,
    validate_spec,
)
from eaclab.units import Quantity

from conftest import CAMPAIGN_PATH, LAB_PATH
from workloads import (
    campaign_doc,
    dependency_cycle_recursive,
    perfbench_inputs,
    static_check_per_step,
    sweep_columns,
    sweep_refusal,
)

MINIMAL = {
    "spec_id": "t",
    "version": "1.0.0",
    "resources": [{"name": "p", "capability": "pump"}],
    "steps": [
        {
            "id": "fill",
            "binding": "p",
            "op": "dispense",
            "params": {
                "flow_rate": {"value": 1.0, "unit": "mL/min"},
                "volume": {"value": 1.0, "unit": "mL"},
            },
        }
    ],
}


def _doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


def _by_id(spec) -> dict[str, StepSpec]:
    return {step.step_id: step for step in spec.steps}


def test_parse_minimal():
    spec = parse_spec(json.dumps(MINIMAL))
    assert spec.spec_id == "t"
    assert spec.steps[0].params["volume"].unit == "mL"


def _fills(*volumes, stabilization=None) -> dict:
    """MINIMAL with one fill per volume, each a quantity object or a value
    in mL, and each with ``stabilization`` if given."""
    steps = []
    for k, volume in enumerate(volumes):
        step = copy.deepcopy(MINIMAL["steps"][0])
        step["id"] = f"fill{k}"
        step["params"]["volume"] = volume if isinstance(volume, dict) else {
            "value": volume, "unit": "mL"}
        if stabilization is not None:
            step["stabilization"] = copy.deepcopy(stabilization)
        steps.append(step)
    return _doc(steps=steps)


def test_equal_quantities_share_one_object_and_only_equal_ones():
    """A document's equal quantities, params and stabilizations are one
    object each; 1 and 1.0 are one quantity, but 0.0 and -0.0, which print
    apart, are two."""
    hold = {"mode": "fixed_delay", "duration": {"value": -0.0, "unit": "s"}}
    spec = parse_spec(json.dumps(_fills(1, 1.0, 0.0, -0.0, 0.0, 1, stabilization=hold)))
    volumes = [step.params["volume"] for step in spec.steps]
    assert [v.value for v in volumes] == [1.0, 1.0, 0.0, -0.0, 0.0, 1.0]
    assert [id(v) for v in volumes] == [id(volumes[k]) for k in (0, 0, 2, 3, 2, 0)]
    params = [id(step.params) for step in spec.steps]
    assert params == [params[k] for k in (0, 0, 2, 3, 2, 0)]
    assert spec.steps[0].params["flow_rate"] is spec.steps[3].params["flow_rate"]
    assert len({id(step.stabilization) for step in spec.steps}) == 1
    assert '"value":-0.0' in serialize_spec(spec)
    assert serialize_spec(spec) == serialize_spec(
        parse_spec(json.dumps(_fills(1, 1.0, 0.0, -0.0, 0.0, 1, stabilization=hold))))


@pytest.mark.parametrize("volume, code", [
    ({"value": True, "unit": "mL"}, "bad_type"),
    ({"value": 1, "unit": "mL", "note": "x"}, "unknown_field"),
    ({"value": 1, "unit": None}, "bad_type"),
    ({"value": "1", "unit": "mL"}, "bad_type"),
])
def test_a_quantity_equal_to_an_earlier_one_but_malformed_is_refused(volume, code):
    """A quantity is shared only with one that parses the same way: one
    that differs in a way the parse refuses is refused, after a valid
    quantity of the same value."""
    with pytest.raises(SpecSchemaError) as err:
        parse_spec(json.dumps(_fills(1, volume)))
    assert (err.value.code, err.value.locus) == (code, "steps[fill1].params.volume")


def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("{\n  broken")
    assert err.value.line == 2
    assert err.value.code == "syntax"


@pytest.mark.parametrize(
    "mutate,code",
    [
        (lambda d: d.pop("version"), "missing_field"),
        (lambda d: d.update(version="one"), "bad_value"),
        (lambda d: d.update(extra=1), "unknown_field"),
        (lambda d: d.update(spec_id=7), "bad_type"),
        (lambda d: d["steps"][0].pop("op"), "missing_field"),
        (lambda d: d["steps"][0].update(binding="ghost"), "dangling_binding"),
        (lambda d: d["steps"][0].update(depends_on=["ghost"]), "dangling_dependency"),
        (lambda d: d["steps"][0]["params"].update(x={"value": 1, "unit": "parsec"}), "bad_unit"),
        (lambda d: d["steps"][0].update(repeat={"volume": []}), "empty_sweep"),
    ],
)
def test_schema_errors(mutate, code):
    doc = _doc()
    mutate(doc)
    with pytest.raises(SpecSchemaError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == code


@pytest.mark.parametrize(
    "where, value, code",
    [
        ("params", float("nan"), "bad_value"),
        ("params", -float("inf"), "bad_value"),
        ("min_ports", "6", "bad_type"),
        ("min_ports", True, "bad_type"),
        ("min_ports", None, "bad_type"),
        ("min_ports", [6], "bad_type"),
        ("min_ports", float("nan"), "bad_value"),
        ("ports", float("inf"), "bad_value"),
    ],
)
def test_a_number_that_is_not_a_finite_number_is_a_schema_error(where, value, code):
    """A quantity value, at its param, or a binding constraint, at its binding."""
    doc = _doc()
    if where == "params":
        doc["steps"][0]["params"]["x"] = {"value": value}
        locus = "steps[fill].params.x"
    else:
        doc["resources"][0]["constraints"] = {where: value}
        locus = "resources[0]"
    with pytest.raises(SpecSchemaError) as err:
        parse_spec(json.dumps(doc))
    assert (err.value.code, err.value.locus) == (code, locus)


def test_a_constraint_may_be_any_finite_number():
    doc = _doc()
    doc["resources"][0]["constraints"] = {"min_ports": 6, "ports": 6.5, "depth": -1, "big": 10**400}
    assert parse_spec(json.dumps(doc)).resources[0].constraints == doc["resources"][0]["constraints"]


def test_duplicate_json_key_rejected():
    text = json.dumps(MINIMAL)[:-1] + ',"spec_id":"again"}'
    with pytest.raises(SpecSchemaError) as err:
        parse_spec(text)
    assert err.value.code == "duplicate_key"


def test_duplicate_step_id_rejected():
    doc = _doc()
    doc["steps"].append(dict(doc["steps"][0]))
    with pytest.raises(SpecSchemaError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == "duplicate_id"


def test_dependency_cycle_detected():
    doc = _doc()
    second = dict(doc["steps"][0], id="b", depends_on=["fill"])
    doc["steps"][0]["depends_on"] = ["b"]
    doc["steps"].append(second)
    with pytest.raises(SpecSchemaError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == "dependency_cycle"


def _random_dep_graph(rng_seed: int, n: int, extra_edges: int):
    """Random step graph; returns (doc, has_cycle) with cycle decided by
    an independent reachability check over the raw edge list."""
    import random

    rng = random.Random(rng_seed)
    ids = [f"s{i}" for i in range(n)]
    edges = set()
    for _ in range(extra_edges):
        a, b = rng.sample(ids, 2)
        edges.add((a, b))
    # Oracle: cycle iff some node reaches itself through the edges.
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)

    def reaches(src, dst):
        seen, stack = set(), [src]
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w == dst:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    has_cycle = any(reaches(v, v) for v in ids)
    doc = _doc(
        steps=[
            {
                "id": sid,
                "binding": "p",
                "op": "stop",
                "depends_on": sorted(b for a, b in edges if a == sid),
            }
            for sid in ids
        ]
    )
    return doc, has_cycle


@pytest.mark.parametrize("seed", range(40))
def test_cycle_detection_matches_reachability_oracle(seed):
    doc, has_cycle = _random_dep_graph(seed, n=6, extra_edges=seed % 9)
    if has_cycle:
        with pytest.raises(SpecSchemaError) as err:
            parse_spec(json.dumps(doc))
        assert err.value.code == "dependency_cycle"
    else:
        parse_spec(json.dumps(doc))


@given(st.data())
def test_the_cycle_search_finds_the_cycle_the_recursive_search_finds(data):
    """Drawn dependency graphs, self-loops and cycles included: the search
    with its own stack returns what the recursive one returns."""
    ids = [f"s{i}" for i in range(data.draw(st.integers(1, 9)))]
    steps = tuple(
        StepSpec(sid, "p", "stop", depends_on=tuple(data.draw(
            st.lists(st.sampled_from(ids), max_size=4, unique=True))))
        for sid in data.draw(st.permutations(ids))
    )
    assert _dependency_cycle(steps) == dependency_cycle_recursive(steps)


def _chain(n: int) -> tuple[StepSpec, ...]:
    """Step ``s{i}`` depends on ``s{i+1}``: a chain ``n`` steps deep."""
    return tuple(
        StepSpec(f"s{i:05d}", "p", "stop", depends_on=(f"s{i + 1:05d}",) if i + 1 < n else ())
        for i in range(n)
    )


def test_the_cycle_search_has_no_depth_limit():
    chain = _chain(20_000)
    assert _dependency_cycle(chain) is None
    closed = chain[:-1] + (replace(chain[-1], depends_on=("s00000",)),)
    assert _dependency_cycle(closed) == [f"s{i:05d}" for i in range(20_000)] + ["s00000"]
    with pytest.raises(RecursionError):
        dependency_cycle_recursive(chain)


def _expand_and_validate(spec):
    """(id, dependencies) of every instance, by the expansion rules, after a
    full ``validate_spec`` of the expansion, which raises as it would."""
    shapes = {s.step_id: s.repeat and tuple(map(len, s.repeat.values())) for s in spec.steps}
    instances = {
        s.step_id: [f"{s.step_id}#{k}" for k in range(math.prod(shapes[s.step_id]))]
        if s.repeat else [s.step_id]
        for s in spec.steps
    }
    steps = []
    for s in spec.steps:
        for k, instance_id in enumerate(instances[s.step_id]):
            deps = []
            for dep in s.depends_on:
                paired = s.repeat and shapes[dep] == shapes[s.step_id]
                deps += [instances[dep][k]] if paired else instances[dep]
            steps.append(StepSpec(instance_id, s.binding, s.operation, depends_on=tuple(deps)))
    validate_spec(replace(spec, steps=tuple(steps)))
    return [(step.step_id, step.depends_on) for step in steps]


# Ids a swept step's instances may collide with, or look like without
# being one (an index past the sweep, or a suffix that is not an index).
_LOOKALIKES = ["{}#0", "{}#1", "{}#2", "{}#7", "{}#x", "{}#0#0"]


@pytest.mark.parametrize("seed", range(120))
def test_expansion_breaks_only_unique_ids(seed, monkeypatch):
    """Swept step graphs whose literal ids collide with instance ids:
    ``parse_spec`` raises exactly when a full validation of the expansion
    would, with the same code, locus and message, and otherwise returns a
    spec whose expansion passes ``validate_spec``."""
    rng = random.Random(seed)
    doc, has_cycle = _random_dep_graph(seed, n=6, extra_edges=seed % 5)
    if has_cycle:
        return
    steps = doc["steps"]
    for step in steps:
        if rng.random() < 0.5:
            step["repeat"] = {
                f"k{j}": [{"value": v} for v in range(rng.randint(1, 3))]
                for j in range(rng.randint(1, 2))
            }
    renames = {}
    for step in rng.sample(steps, rng.randint(0, 3)):
        renames[step["id"]] = rng.choice(_LOOKALIKES).format(rng.choice(steps)["id"])
    for step in steps:
        step["id"] = renames.get(step["id"], step["id"])
        step["depends_on"] = [renames.get(dep, dep) for dep in step["depends_on"]]
    text = json.dumps(doc)
    with monkeypatch.context() as unchecked:  # the template, its sweeps unchecked
        unchecked.setattr(specmodel, "_check_sweeps", lambda spec, refusals: None)
        try:
            template = parse_spec(text)
        except SpecSchemaError:
            return  # two steps renamed alike
    try:
        expected = _expand_and_validate(template)
    except SpecSchemaError as err:
        with pytest.raises(SpecSchemaError) as raised:
            parse_spec(text)
        assert (raised.value.code, raised.value.locus, str(raised.value)) == (
            err.code, err.locus, str(err))
        assert err.code == "duplicate_id"
        return
    expanded = expand_sweeps(parse_spec(text))
    validate_spec(expanded)
    assert [(step.step_id, step.depends_on) for step in expanded.steps] == expected


def test_a_literal_id_like_an_instance_id_pairs_by_its_own_step():
    """``fill#7`` is a step of its own, not an instance of ``fill``: it is not
    swept, so it depends on every instance of ``dose``."""
    doc = _doc()
    doc["steps"][0]["repeat"] = {"volume": [1, 2]}
    doc["steps"] += [
        {"id": "dose", "binding": "p", "op": "stop", "repeat": {"k": [{"value": 1}, {"value": 2}]}},
        {"id": "fill#7", "binding": "p", "op": "stop", "depends_on": ["dose"]},
    ]
    expanded = expand_sweeps(parse_spec(json.dumps(doc)))
    assert _by_id(expanded)["fill#7"].depends_on == ("dose#0", "dose#1")


def test_serialize_round_trip_and_hash_stability():
    spec = parse_spec(json.dumps(MINIMAL))
    again = parse_spec(serialize_spec(spec))
    assert again == spec
    assert spec_hash(again) == spec_hash(spec)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_sweep_cardinality_matches_cartesian_product(n_flow, n_vol):
    doc = _doc()
    doc["steps"][0]["repeat"] = {
        "flow_rate": [1.0 + i for i in range(n_flow)],
        "volume": [1.0 + i for i in range(n_vol)],
    }
    expanded = expand_sweeps(parse_spec(json.dumps(doc)))
    assert len(expanded.steps) == n_flow * n_vol
    # Row-major: first-listed parameter is the outer loop.
    combos = list(itertools.product(
        [1.0 + i for i in range(n_flow)], [1.0 + i for i in range(n_vol)]
    ))
    for k, step in enumerate(expanded.steps):
        assert step.step_id == f"fill#{k}"
        assert step.params["flow_rate"].value == combos[k][0]
        assert step.params["volume"].value == combos[k][1]
        assert step.repeat is None


def test_expansion_idempotent():
    spec = parse_spec(json.dumps(MINIMAL))
    assert expand_sweeps(spec) is spec
    doc = _doc()
    doc["steps"][0]["repeat"] = {"volume": [1, 2]}
    once = expand_sweeps(parse_spec(json.dumps(doc)))
    assert expand_sweeps(once) is once


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("sweeps, renamed, error", [
    # Step by step, an undeclared param, then a number that is not finite...
    ([{"volume": [1, NAN]}, {"pressure": [1]}], None,
     (SpecSchemaError, "bad_value at steps[fill]: sweep 'volume' value nan is not finite")),
    ([{"pressure": [1]}, {"volume": [NAN]}], None,
     (SpecSchemaError, "unknown_sweep_param at steps[fill]: sweep over unknown parameter 'pressure'")),
    # ... at the first instance that has one, in row-major order ...
    ([{"flow_rate": [1, INF], "volume": [NAN, 2]}], None,
     (SpecSchemaError, "bad_value at steps[fill]: sweep 'volume' value nan is not finite")),
    ([{"flow_rate": [1, -INF], "volume": [2, 3]}], None,
     (SpecSchemaError, "bad_value at steps[fill]: sweep 'flow_rate' value -inf is not finite")),
    # ... and only then ids.
    ([{"volume": [2, INF]}], "fill#1",
     (SpecSchemaError, "bad_value at steps[fill]: sweep 'volume' value inf is not finite")),
    ([{"volume": [1, 2]}], "fill#1", (SpecSchemaError, "duplicate_id at fill#1: duplicate step id")),
    # An undeclared param swept with numbers, and a sweep that ends in one
    # that is not finite.
    ([{"volume": [1.0], "pressure": [1, 2]}], None,
     (SpecSchemaError, "unknown_sweep_param at steps[fill]: sweep over unknown parameter 'pressure'")),
    ([{"volume": [1.0, INF]}], None,
     (SpecSchemaError, "bad_value at steps[fill]: sweep 'volume' value inf is not finite")),
])
def test_check_sweeps_raises_what_the_expansion_raises(sweeps, renamed, error):
    """``parse_spec`` checks a template's sweeps for what expanding them
    would break, in this order, without expanding them."""
    doc = _doc()
    doc["steps"].append(dict(doc["steps"][0], id=renamed or "again"))
    for step, repeat in zip(doc["steps"], sweeps):
        step["repeat"] = repeat
    with pytest.raises(error[0]) as raised:
        parse_spec(json.dumps(doc))
    assert str(raised.value) == error[1] == sweep_refusal(doc)


# The agent_ensemble specs of the benchmark (seed 1) that parse, all but
# those with a planted cycle, and the lab they and the campaign run on: the
# reference lab and two temperature cells.
_INPUTS = perfbench_inputs()
_ENSEMBLE_LAB = _INPUTS.ensemble_lab(json.loads(LAB_PATH.read_text()))
_ENSEMBLE_REGISTRY = registry_from_lab_config(_ENSEMBLE_LAB)
_ENSEMBLE_GENESIS = genesis_from_lab_config(_ENSEMBLE_LAB)
_AGENT_SPECS = [doc for doc, code in _INPUTS.agent_ensemble(
    1, json.loads(CAMPAIGN_PATH.read_text()), _ENSEMBLE_LAB) if code != "dependency_cycle"]
_SWEPT_VALUES = [0.5, 1, 2.0, 6, 298.0, {"value": 1.0, "unit": "mL"}, {"value": 310, "unit": "K"}]
# A quantity of a param in each unit that is past every float in that unit.
_PAST_EVERY_FLOAT = {"mL": {"value": 1e303, "unit": "m^3"},
                     "mL/min": {"value": -1e303, "unit": "m^3/s"},
                     "s": {"value": 1e306, "unit": "h"}}


def _planted_values(draw, step: dict, name: str, pschema) -> list:
    """One to four values of a sweep of ``name``, a param of ``step`` and
    declared by ``pschema`` if not None: its own value, values in its
    range, and values planted to fail: out of range, a fraction of an
    integer or of a frame field's step, one not below the param its ``below`` names (or equal to the
    one it bounds), a temperature the cells' envelope refuses, a
    quantity in a foreign unit, and one past every float in its own."""
    pool = [step["params"][name]["value"]]
    if pschema is not None:
        pool += [pschema.min, pschema.max, (pschema.min + pschema.max) / 2, pschema.max + 1,
                 {"value": pschema.max, "unit": "mL" if pschema.unit == "K" else "K"}]
        pool += [pschema.min + 0.5] if pschema.integer else []
        pool += [pschema.min + 0.5 / scale for scale in pschema.scales]
        pool += [step["params"][other]["value"] for other in ("freq_min", "freq_max")
                 if name in ("freq_min", "freq_max") and other in step["params"]]
        pool += [370] if name == "temperature" else []
        pool += [_PAST_EVERY_FLOAT[pschema.unit]] if pschema.unit in _PAST_EVERY_FLOAT else []
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


def _drawn_sweep_edit(draw, doc: dict):
    """Edit one step of ``doc``: sweep an undeclared param, sweep a number
    that is not finite, make it a literal step, unswept, with the id of
    an instance of another step, or sweep two or three of its params at
    once, with values planted to fail the static check. Returns
    what the edit names: the new id, or the swept step, whose id a later
    edit may change; None when the drawn id is taken."""
    step = draw(st.sampled_from(doc["steps"]))
    edit = draw(st.sampled_from(["undeclared", "non_finite", "instance_id", "values"]))
    if edit == "instance_id":
        swept = [s for s in doc["steps"] if s is not step and s.get("repeat")]
        other = draw(st.sampled_from(swept or doc["steps"]))
        new_id = f"{other['id']}#{draw(st.integers(0, 3))}"
        if new_id in {s["id"] for s in doc["steps"]}:
            return None
        for s in doc["steps"]:
            s["depends_on"] = [new_id if dep == step["id"] else dep
                               for dep in s.get("depends_on", [])]
        step["id"] = new_id
        step.pop("repeat", None)
        return new_id
    if edit == "values":
        capability = {r["name"]: r["capability"] for r in doc["resources"]}[step["binding"]]
        operation = (_ENSEMBLE_REGISTRY.get(capability).operations.get(step["op"])
                     if capability in _ENSEMBLE_REGISTRY else None)
        declared = getattr(operation, "params", {})
        names = sorted(step["params"])
        names = draw(st.lists(st.sampled_from(names), min_size=min(2, len(names)),
                              max_size=min(3, len(names)), unique=True))
        repeat = step.setdefault("repeat", {})
        for name in names:
            repeat[name] = _planted_values(draw, step, name, declared.get(name))
        if len(names) < 2:  # and a param it does not declare, swept with quantities
            repeat["extra"] = draw(st.lists(st.sampled_from(_SWEPT_VALUES[-2:]), min_size=1,
                                            max_size=2))
        return step
    values = draw(st.lists(st.sampled_from(_SWEPT_VALUES), min_size=1, max_size=3))
    if edit == "undeclared":
        name = "ghost"
    else:
        name = draw(st.sampled_from(sorted(step["params"])))
        values.insert(draw(st.integers(0, len(values))),
                      draw(st.sampled_from([NAN, INF, -INF])))
    step.setdefault("repeat", {})[name] = values
    return step


@st.composite
def _edited_docs(draw):
    """The campaign at a few points or one of the benchmark's agent specs,
    with one or two drawn sweep edits: (document, the loci the edits
    name)."""
    if draw(st.booleans()):
        doc = campaign_doc(draw(st.integers(1, 6)))
    else:
        doc = copy.deepcopy(draw(st.sampled_from(_AGENT_SPECS)))
    edits = [_drawn_sweep_edit(draw, doc) for _ in range(draw(st.integers(1, 2)))]
    return doc, {f"steps[{edit['id']}]" if isinstance(edit, dict) else edit for edit in edits}


def _with_repeat(step_id: str, repeat: dict) -> tuple[dict, set[str]]:
    """The reference campaign with ``repeat`` as the sweeps of its step
    ``step_id``."""
    doc = json.loads(CAMPAIGN_PATH.read_text())
    next(step for step in doc["steps"] if step["id"] == step_id)["repeat"] = repeat
    return doc, {f"steps[{step_id}]"}


_MILLILITRE = {"value": 1.0, "unit": "mL"}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_edited_docs())
# Two unknown params swept in an order that the reread spec.json sorts:
# each is reported by name, in both.
@example(_with_repeat("select", {"dest": [2], "ghost": [_MILLILITRE], "extra": [_MILLILITRE]}))
# Numbers that are not finite in two params, none at a sweep's first value:
# the first instance that holds one takes the last such param's first.
@example(_with_repeat("measure", {"eac": [0.25, INF, NAN], "freq_min": [20000, 30000],
                                  "concentration": [0.43, 0.86, -INF, NAN]}))
@example(_with_repeat("measure", {"eac": [0.25, 0.5, -INF], "freq_min": [20000, NAN, INF],
                                  "n_freq": [10, 12]}))
def test_a_parsed_spec_checks_lowers_and_expands(edited):
    """Parsing is total: the campaign at a few points and the benchmark's
    agent specs, with sweep edits that expanding would break, either are
    refused by ``parse_spec`` where an edit names, or parse to a spec that
    ``static_check`` checks, and that, when clean, ``compile_spec`` lowers
    and ``expand_sweeps`` expands. The check of the template, which looks
    at each distinct value once, gives the diagnostics that the per-step
    oracle gives its expansion, planted failures of sweeps over several
    params of one step included; and so does the check of the expansion,
    and of the expansion written out and parsed again, as ``resume``
    reads it, which check each distinct configuration of their unswept
    steps once. A failing value drawn twice gives a failing configuration
    that repeats, reported at each instance that has it."""
    doc, named = edited
    try:
        spec = parse_spec(json.dumps(doc))
    except SpecSchemaError as err:
        assert err.code in ("unknown_sweep_param", "bad_value", "duplicate_id")
        assert err.locus in named
        assert str(err) == sweep_refusal(doc)
        return
    assert sweep_refusal(doc) is None
    diagnostics = static_check(spec, _ENSEMBLE_REGISTRY, _ENSEMBLE_GENESIS)
    expanded = expand_sweeps(spec)
    assert diagnostics == static_check_per_step(expanded, _ENSEMBLE_REGISTRY, _ENSEMBLE_GENESIS)
    assert static_check(expanded, _ENSEMBLE_REGISTRY, _ENSEMBLE_GENESIS) == diagnostics
    reread = parse_spec(serialize_spec(expanded))
    assert static_check(reread, _ENSEMBLE_REGISTRY, _ENSEMBLE_GENESIS) == diagnostics
    if not diagnostics:
        compile_spec(spec, _ENSEMBLE_REGISTRY, _ENSEMBLE_GENESIS, diagnostics)


_NUMBERS = st.sampled_from([1, 1.0, 0, 0.0, -0.0, 2, 2.0, 2.5, -3, 1e-3])
_QUANTITIES = st.builds(
    lambda value, unit: {"value": value} if unit is None else {"value": value, "unit": unit},
    _NUMBERS, st.sampled_from([None, "", "mL", "m^3", "mL/min"]))


@settings(max_examples=200, deadline=None)
@given(volume=st.lists(st.one_of(_NUMBERS, _QUANTITIES), min_size=1, max_size=6),
       flow=st.lists(_NUMBERS, min_size=1, max_size=4),
       extra=st.lists(_QUANTITIES, min_size=0, max_size=3))
@example(volume=[1, 1.0, 0.0, -0.0, {"value": 1, "unit": "mL"}, {"value": 1.0, "unit": "mL"},
                 {"value": -0.0, "unit": "mL"}, {"value": 0}, {"value": 1, "unit": "mL"}, 1],
         flow=[2, 2.0, 0, -0.0], extra=[{"value": 1}, {"value": 1.0}, {"value": 1}])
def test_the_parse_walk_gives_the_columns_value_by_value(volume, flow, extra):
    """A step's columns, which the parse sets as it validates its swept
    values, are the reference's, computed value by value: ints and floats,
    1 and 1.0, 0.0 and -0.0, repeated values, quantity objects with int and
    float values and a param the step does not declare swept with
    quantities."""
    doc = _doc()
    doc["steps"][0]["repeat"] = {"volume": volume, "flow_rate": flow}
    if extra:
        doc["steps"][0]["repeat"]["extra"] = extra
    step = parse_spec(json.dumps(doc)).steps[0]

    def printed(columns):
        return [([(repr(q.value), q.unit) for q in quantities], indices)
                for quantities, indices in columns]

    expected = printed(sweep_columns(step))
    assert printed(step.columns) == expected


def test_unknown_sweep_param_raises():
    doc = _doc()
    doc["steps"][0]["repeat"] = {"pressure": [1, 2]}
    with pytest.raises(SpecSchemaError) as err:
        parse_spec(json.dumps(doc))
    assert (err.value.code, err.value.locus) == ("unknown_sweep_param", "steps[fill]")


@pytest.mark.parametrize(
    "value, code",
    [
        ("abc", "bad_type"),
        (None, "bad_type"),
        (True, "bad_type"),
        ({"v": 1}, "unknown_field"),
        ({"unit": "mL"}, "missing_field"),
        ({"value": 1, "unit": "furlong"}, "bad_unit"),
        ({"value": float("nan"), "unit": "mL"}, "bad_value"),
    ],
)
def test_malformed_sweep_value_is_a_schema_error(value, code):
    doc = _doc()
    doc["steps"][0]["repeat"] = {"volume": [1, value]}
    with pytest.raises(SpecSchemaError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == code


def test_aligned_sweeps_pair_index_wise():
    doc = _doc()
    doc["steps"][0]["repeat"] = {"volume": [1, 2, 3]}
    doc["steps"].append(
        {
            "id": "after",
            "binding": "p",
            "op": "stop",
            "depends_on": ["fill"],
            "params": {"k": {"value": 0}},
            "repeat": {"k": [10, 20, 30]},
        }
    )
    expanded = expand_sweeps(parse_spec(json.dumps(doc)))
    for i in range(3):
        assert _by_id(expanded)[f"after#{i}"].depends_on == (f"fill#{i}",)


def test_mismatched_sweeps_fan_in():
    doc = _doc()
    doc["steps"][0]["repeat"] = {"volume": [1, 2, 3]}
    doc["steps"].append(
        {"id": "after", "binding": "p", "op": "stop", "depends_on": ["fill"]}
    )
    expanded = expand_sweeps(parse_spec(json.dumps(doc)))
    assert _by_id(expanded)["after"].depends_on == ("fill#0", "fill#1", "fill#2")
    validate_spec(expanded)


def test_quantity_valued_sweep_entries_set_units():
    doc = _doc()
    doc["steps"][0]["repeat"] = {
        "volume": [{"value": 500, "unit": "mL"}, {"value": 1, "unit": "mL"}]
    }
    expanded = expand_sweeps(parse_spec(json.dumps(doc)))
    assert _by_id(expanded)["fill#0"].params["volume"].value == 500
    assert _by_id(expanded)["fill#0"].params["volume"].unit == "mL"


def test_expansion_builds_each_swept_configuration_once(monkeypatch):
    """campaign_scale's 144 instances have 13 distinct swept values (6
    ports, one 0.7 mL fill, 6 concentrations): 13 param dicts, each shared
    by the instances that have its values."""
    calls = []
    build = specmodel._swept_params

    def counted_build(step, quantities):
        calls.append(step.step_id)
        return build(step, quantities)

    monkeypatch.setattr(specmodel, "_swept_params", counted_build)
    expanded = expand_sweeps(parse_spec(json.dumps(campaign_doc(48, fill_ml=0.7))))
    assert len(expanded.steps) == 144
    assert len(calls) == 13
    assert len({id(step.params) for step in expanded.steps}) == 13


def test_instances_share_params_only_when_they_print_alike():
    """1 and 1.0 become one float quantity, but -0.0 is not 0.0, and a
    quantity keeps its value's type: every instance's params serialize as
    when built for that instance alone."""
    sweep = [1, 1.0, 0, 0.0, -0.0, 2, {"value": 1, "unit": "mL"}, {"value": 1.0, "unit": "mL"},
             {"value": -0.0, "unit": "mL"}, {"value": 0, "unit": "mL"}, {"value": 1}, 1]
    doc = _doc()
    doc["steps"][0]["repeat"] = {"volume": sweep, "scale": [{"value": 2}, {"value": 2.0}]}
    template = parse_spec(json.dumps(doc))
    expanded = expand_sweeps(template)
    combos = list(itertools.product(sweep, [{"value": 2}, {"value": 2.0}]))
    assert len(expanded.steps) == len(combos)
    unit = template.steps[0].params["volume"].unit
    for step, (volume, scale) in zip(expanded.steps, combos):
        alone = dict(template.steps[0].params)
        alone["volume"] = (Quantity.from_dict(volume) if isinstance(volume, dict)
                           else Quantity(float(volume), unit))
        alone["scale"] = Quantity.from_dict(scale)
        assert canonical_json({n: q.to_dict() for n, q in step.params.items()}) == canonical_json(
            {n: q.to_dict() for n, q in alone.items()})
        assert list(step.params) == list(alone)
