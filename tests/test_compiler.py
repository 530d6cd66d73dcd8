import itertools
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eaclab import compiler, specmodel, units
from eaclab.capabilities import (
    CapabilityRegistry,
    ParamSchema,
    builtin_registry,
    registry_from_lab_config,
)
from eaclab.compiler import (
    Diagnostic,
    WorkflowDAG,
    compile_spec,
    render_tree,
    static_check,
    topo_order,
    validate_dag,
)
from eaclab.errors import CompileError, CycleError, SpecSchemaError
from eaclab.labstate import DeviceRecord, LabState, genesis_from_lab_config
from eaclab.specmodel import expand_sweeps, parse_spec, serialize_spec

from conftest import LAB_PATH
from workloads import (
    campaign_doc,
    campaign_spec_json,
    campaign_template,
    campaign_workload,
    lowered_params_per_step,
    static_check_per_step,
    sweep_refusal,
    with_device,
)


def _state(*records):
    return LabState(devices={r.device_id: r for r in records})


def _single_measure_spec():
    return parse_spec(
        json.dumps(
            {
                "spec_id": "one-eis",
                "version": "1.0.0",
                "resources": [{"name": "stat", "capability": "potentiostat"}],
                "steps": [
                    {
                        "id": "m",
                        "binding": "stat",
                        "op": "measure_eis",
                        "params": {
                            "eac": {"value": 0.25, "unit": "V"},
                            "freq_min": {"value": 100, "unit": "Hz"},
                            "freq_max": {"value": 10000, "unit": "Hz"},
                            "n_freq": {"value": 10},
                        },
                    }
                ],
            }
        )
    )


def test_single_measure_lowers_to_four_nodes(genesis, registry):
    dag = compile_spec(_single_measure_spec(), registry, genesis)
    assert set(dag.nodes) == {"connect:stat", "m:cfg", "m", "teardown:stat"}
    assert topo_order(dag) == ["connect:stat", "m:cfg", "m", "teardown:stat"]
    assert dag.nodes["m"].kind == "measure"
    assert dag.nodes["m:cfg"].operation == "configure"
    # Configure consumed the shared params; the measure node keeps none.
    assert set(dag.nodes["m:cfg"].params) == {"eac", "freq_min", "freq_max", "n_freq"}
    assert dag.nodes["m"].params == {}


def test_node_count_formula(campaign_spec, campaign_dag):
    bindings = {s.binding for s in campaign_spec.steps}
    per_step = 0
    for s in campaign_spec.steps:
        per_step += 1  # main
        if s.operation == "measure_eis":
            per_step += 1  # split-off configure
        if s.stabilization is not None:
            per_step += 1
    expected = per_step + 2 * len(bindings)  # connect + teardown per binding
    assert len(campaign_dag.nodes) == expected == 36


def test_compile_is_deterministic(campaign_spec, registry, genesis):
    a = compile_spec(campaign_spec, registry, genesis)
    b = compile_spec(campaign_spec, registry, genesis)
    assert a == b
    assert list(a.nodes) == list(b.nodes)


def test_every_edge_is_forward_in_topo_order(campaign_dag):
    position = {nid: i for i, nid in enumerate(topo_order(campaign_dag))}
    for src, dst, _ in campaign_dag.edges:
        assert position[src] < position[dst], (src, dst)


def test_measure_dominated_by_fill(campaign_dag):
    # measure#k is downstream of fill#k: a dep edge enters its configure
    # node and fill#k is an ancestor of the measure node itself.
    for k in range(6):
        assert (f"fill#{k}", f"measure#{k}:cfg", "dep") in campaign_dag.edges
        ancestors = set()
        frontier = [f"measure#{k}"]
        while frontier:
            nid = frontier.pop()
            for pred in campaign_dag.predecessors(nid):
                if pred not in ancestors:
                    ancestors.add(pred)
                    frontier.append(pred)
        assert f"fill#{k}" in ancestors
        assert f"select#{k}" in ancestors


def test_stabilize_precedes_measure(campaign_dag):
    for k in range(6):
        assert (f"measure#{k}:stab", f"measure#{k}", "flow") in campaign_dag.edges
        stab = campaign_dag.nodes[f"measure#{k}:stab"]
        assert stab.stab == {
            "mode": "setpoint_then_hold",
            "duration_s": 5.0,
            "signal": "temperature",
        }


def test_est_durations(campaign_dag):
    assert campaign_dag.nodes["select#0"].est_duration == 2.0
    # 0.7 mL at 4 mL/min.
    assert campaign_dag.nodes["fill#0"].est_duration == pytest.approx(10.5)
    assert campaign_dag.nodes["connect:pump"].est_duration == 1.0


def test_static_check_clean_campaign(campaign_spec, registry, genesis):
    assert static_check(campaign_spec, registry, genesis) == []


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_step_order_does_not_change_the_dag(campaign_text, campaign_dag, registry, genesis, order):
    """Dependency edges are added once every step is lowered, so a step may
    depend on a step listed after it."""
    doc = json.loads(campaign_text)
    doc["steps"] = [doc["steps"][i] for i in order]
    dag = compile_spec(expand_sweeps(parse_spec(json.dumps(doc))), registry, genesis)
    assert dag == campaign_dag


def test_compile_spec_takes_the_callers_static_check(campaign_spec, campaign_dag, registry, genesis):
    diagnostics = static_check(campaign_spec, registry, genesis)
    assert compile_spec(campaign_spec, registry, genesis, diagnostics) == campaign_dag
    error = Diagnostic("out_of_range", "fill#0", "volume too large")
    with pytest.raises(CompileError, match="out_of_range"):
        compile_spec(campaign_spec, registry, genesis, [error])


def test_static_check_diagnostic_codes(registry, genesis):
    spec = parse_spec(
        json.dumps(
            {
                "spec_id": "bad",
                "version": "1.0.0",
                "resources": [
                    {"name": "x", "capability": "chromatograph"},
                    {"name": "b", "capability": "balance", "selector": "balance_99"},
                    {"name": "p", "capability": "pump"},
                ],
                "steps": [
                    {
                        "id": "s1",
                        "binding": "p",
                        "op": "levitate",
                    },
                    {
                        "id": "s2",
                        "binding": "p",
                        "op": "dispense",
                        "params": {
                            "flow_rate": {"value": 99, "unit": "mL/min"},
                            "volume": {"value": 1, "unit": "mL"},
                        },
                    },
                ],
            }
        )
    )
    codes = sorted(d.code for d in static_check(spec, registry, genesis))
    assert codes == [
        "out_of_range",
        "unknown_capability",
        "unknown_operation",
        "unsatisfiable_binding",
    ]
    rendered = [d.render() for d in static_check(spec, registry, genesis)]
    assert any(line.startswith("unknown_capability error x:") for line in rendered)


def test_unsatisfiable_selector(registry, genesis):
    spec = parse_spec(
        json.dumps(
            {
                "spec_id": "sel",
                "version": "1.0.0",
                "resources": [
                    {"name": "p", "capability": "pump", "selector": "pump_99"}
                ],
                "steps": [{"id": "s", "binding": "p", "op": "stop"}],
            }
        )
    )
    codes = [d.code for d in static_check(spec, registry, genesis)]
    assert codes == ["unsatisfiable_binding"]
    with pytest.raises(CompileError):
        compile_spec(spec, registry, genesis)


def test_static_safety_predicate(genesis):
    from eaclab.capabilities import schema_from_dict, builtin_registry

    registry = builtin_registry()
    registry.register(
        schema_from_dict(
            "heater",
            {
                "operations": {
                    "heat_to": {
                        "params": {"temperature": {"unit": "K", "min": 0, "max": 1000}}
                    }
                },
                "safety": {
                    "conditions": [
                        {
                            "field": "temperature",
                            "comparator": "<=",
                            "threshold": {"value": 360, "unit": "K"},
                        }
                    ]
                },
            },
        )
    )
    state = with_device(genesis, DeviceRecord("heat_1", "heater"))
    spec = parse_spec(
        json.dumps(
            {
                "spec_id": "hot",
                "version": "1.0.0",
                "resources": [{"name": "h", "capability": "heater"}],
                "steps": [
                    {
                        "id": "roast",
                        "binding": "h",
                        "op": "heat_to",
                        "params": {"temperature": {"value": 400, "unit": "K"}},
                    }
                ],
            }
        )
    )
    codes = [d.code for d in static_check(spec, registry, state)]
    assert codes == ["safety_violation"]


def test_validate_dag_rejects_cycles_and_dangling_edges():
    from eaclab.compiler import OpNode

    nodes = {
        "a": OpNode("a", "b1", "x", "action"),
        "b": OpNode("b", "b1", "x", "action"),
    }
    cyclic = WorkflowDAG(nodes=nodes, edges=(("a", "b", "flow"), ("b", "a", "flow")))
    for _ in range(2):  # the cached failure raises on every call
        with pytest.raises(CycleError):
            topo_order(cyclic)
        with pytest.raises(CycleError):
            validate_dag(cyclic)
    dangling = WorkflowDAG(nodes=nodes, edges=(("a", "ghost", "flow"),))
    with pytest.raises(CompileError):
        validate_dag(dangling)


def test_cached_indexes_stay_out_of_identity(campaign_spec, registry, genesis):
    dag = compile_spec(campaign_spec, registry, genesis)
    fresh = compile_spec(campaign_spec, registry, genesis)
    assert dag == fresh
    order = topo_order(dag)
    order.reverse()  # callers get their own list
    assert topo_order(dag) == topo_order(fresh)
    for nid, node in dag.nodes.items():
        assert dag.successors(nid) == sorted(d for s, d, _ in dag.edges if s == nid)
        assert dag.predecessors(nid) == sorted(s for s, d, _ in dag.edges if d == nid)
    assert dag == fresh
    assert "predecessor_index" in dag.__dict__ and "predecessor_index" not in fresh.__dict__


def test_render_tree_mentions_every_node(campaign_dag):
    text = render_tree(campaign_dag)
    for nid in campaign_dag.nodes:
        assert nid in text


def test_mode_assignment_from_temperature(genesis):
    registry = builtin_registry()
    from eaclab.capabilities import schema_from_dict

    registry.register(
        schema_from_dict(
            "reader",
            {
                "operations": {
                    "scan": {
                        "params": {"temperature": {"unit": "K", "min": 200, "max": 400}},
                        "kind": "read",
                    }
                }
            },
        )
    )
    state = with_device(genesis, DeviceRecord("reader_1", "reader"))
    spec = parse_spec(
        json.dumps(
            {
                "spec_id": "modes",
                "version": "1.0.0",
                "resources": [{"name": "r", "capability": "reader"}],
                "steps": [
                    {
                        "id": "scan",
                        "binding": "r",
                        "op": "scan",
                        "params": {"temperature": {"value": 25, "unit": "degC"}},
                    }
                ],
            }
        )
    )
    dag = compile_spec(spec, registry, state)
    # 25 degC canonicalizes to 298.15 K and rounds to the T298 class.
    assert dag.nodes["scan"].mode == "T298"


def _count_lowering(monkeypatch, spec, registry, genesis) -> Counter:
    """The unit conversions and mode digests of one ``compile_spec(spec)``."""
    diagnostics = static_check(spec, registry, genesis)
    counts = Counter()
    convert, digest = units.canonicalize_units, compiler.sha256_hex

    def counted_convert(*args):
        counts["conversions"] += 1
        return convert(*args)

    def counted_digest(obj):
        counts["digests"] += 1
        return digest(obj)

    monkeypatch.setattr(units, "canonicalize_units", counted_convert)
    monkeypatch.setattr(compiler, "sha256_hex", counted_digest)
    compile_spec(spec, registry, genesis, diagnostics)
    return counts


def test_compile_converts_each_quantity_once_and_hashes_each_configuration_once(monkeypatch):
    """At N=48 the campaign has 48 selects (1 param), fills (2) and measures
    (5, plus a stabilize duration), but each sweep takes only 6 distinct
    configurations, and a configuration's params are converted once: 6 * (1
    + 2 + 5) conversions. The 48 measures share one stabilization, whose
    duration is converted once, as in the template: 49 in all. The
    measures' 6 configurations, one per port's concentration, are hashed
    once each."""
    counts = _count_lowering(monkeypatch, *campaign_workload(48))
    assert counts == {"conversions": 49, "digests": 6}
    # The spec.json that resume reads shares equal quantities, params and
    # stabilizations as the expansion does.
    assert _count_lowering(monkeypatch, *campaign_spec_json(48)) == {"conversions": 49,
                                                                     "digests": 6}


def test_compile_of_the_template_converts_each_stabilize_duration_once(monkeypatch):
    """The template lowers the same 6 configurations per sweep, 48
    conversions and 6 digests, and converts the measure's one stabilize
    duration once, not at each of its 48 instances."""
    counts = _count_lowering(monkeypatch, *campaign_template(48))
    assert counts == {"conversions": 49, "digests": 6}


@pytest.mark.parametrize("workload", [campaign_workload, campaign_template, campaign_spec_json])
def test_static_check_checks_each_value_once(monkeypatch, workload):
    """At N=48 the campaign_scale spec has 144 instance steps but 18
    distinct param values: 6 ports, a flow rate and a 0.7 mL fill, 4 EIS
    settings and 6 concentrations. Each is checked once, in the expanded
    spec that ``resume`` reads and in the template alike; the EIS window's
    one pair is not checked again."""
    spec, registry, genesis = workload(48, fill_ml=0.7)
    calls = Counter()
    check = ParamSchema.check

    def counted_check(self, name, q):
        calls[name] += 1
        return check(self, name, q)

    monkeypatch.setattr(ParamSchema, "check", counted_check)
    assert static_check(spec, registry, genesis) == []
    assert len(expand_sweeps(spec).steps) == 144
    assert calls == {"dest": 6, "flow_rate": 1, "volume": 1, "eac": 1, "freq_min": 1,
                     "freq_max": 1, "n_freq": 1, "concentration": 6}


def test_a_template_walks_its_swept_values_once_at_parse(monkeypatch):
    """campaign_scale's template sweeps 144 values, of 13 distinct
    quantities (6 ports, one 0.7 mL fill, 6 concentrations): parsing it
    builds each once, and the static check of the parsed template then
    builds no Quantity, reading the columns the parse set."""
    built = []
    post_init = units.Quantity.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    _, registry, genesis = campaign_template(1)
    monkeypatch.setattr(units.Quantity, "__post_init__", counted)
    template = parse_spec(json.dumps(campaign_doc(48, fill_ml=0.7)))
    parsed = {id(q) for q in built}
    built.clear()
    assert static_check(template, registry, genesis) == []
    assert built == []
    swept = [q for step in template.steps for quantities, _ in step.columns for q in quantities]
    assert sum(len(values) for step in template.steps for values in step.repeat.values()) == 144
    assert len(swept) == 13
    assert {id(q) for q in swept} <= parsed


def _count_range_checks(monkeypatch, spec, registry, genesis) -> tuple[list, int]:
    """``static_check(spec)``, and how many times it called
    ``check_param_ranges``."""
    calls = []
    check = CapabilityRegistry.check_param_ranges

    def counted(self, capability, op, params):
        calls.append(op)
        return check(self, capability, op, params)

    monkeypatch.setattr(CapabilityRegistry, "check_param_ranges", counted)
    return static_check(spec, registry, genesis), len(calls)


@pytest.mark.parametrize("workload", [campaign_template, campaign_spec_json])
def test_a_clean_spec_is_not_checked_configuration_by_configuration(monkeypatch, workload):
    """campaign_scale's template and its spec.json pass on their distinct
    values alone: no configuration is range-checked whole."""
    assert _count_range_checks(monkeypatch, *workload(48, fill_ml=0.7)) == ([], 0)


def test_a_failing_configuration_is_checked_once_and_reported_at_each_step(monkeypatch):
    """With a flow rate the pump cannot write, the 48 fills of
    campaign_scale's spec.json share one failing params dict: it is
    range-checked once, and its problem reported at each of the 48, as
    the per-step oracle reports them."""
    spec, registry, genesis = campaign_workload(48, fill_ml=0.7)
    doc = json.loads(serialize_spec(spec))
    for step in doc["steps"]:
        if step["op"] == "dispense":
            step["params"]["flow_rate"] = {"value": 4.0005, "unit": "mL/min"}
    spec = parse_spec(json.dumps(doc))
    diagnostics, calls = _count_range_checks(monkeypatch, spec, registry, genesis)
    assert calls == 1
    assert len(diagnostics) == 48
    assert diagnostics[0].render() == ("bad_value error fill#0: 'flow_rate'=4.0005 mL/min "
                                       "is not a whole number of 0.001 mL/min")
    assert diagnostics == static_check_per_step(spec, registry, genesis)


def _count_step_checks(monkeypatch, spec, registry, genesis) -> tuple[list, int]:
    """``static_check(spec)``, and how many times it checked a step."""
    calls = []
    check_step = compiler._check_step

    def counted(step, *args):
        calls.append(step.step_id)
        return check_step(step, *args)

    monkeypatch.setattr(compiler, "_check_step", counted)
    return static_check(spec, registry, genesis), len(calls)


@pytest.mark.parametrize("workload", [campaign_workload, campaign_spec_json])
def test_static_check_checks_each_unswept_configuration_once(monkeypatch, workload):
    """The 144 steps of the expanded campaign at N=48 have 13 distinct
    configurations: 6 selects, one 0.7 mL fill and 6 measures. Each is
    checked once, in the expansion and in spec.json as resume reads it."""
    spec, registry, genesis = workload(48, fill_ml=0.7)
    assert len(spec.steps) == 144
    assert _count_step_checks(monkeypatch, spec, registry, genesis) == ([], 13)


def test_parsing_spec_json_builds_each_distinct_quantity_once(monkeypatch):
    """spec.json of the campaign at N=48 writes 432 quantities, of 19
    distinct raw quantities: 18 param values and the stabilize duration.
    Parsing builds one Quantity for each, and equal params share one dict,
    one per distinct configuration."""
    spec, _, _ = campaign_workload(48, fill_ml=0.7)
    text = serialize_spec(spec)
    raw = []
    for step in json.loads(text)["steps"]:
        raw += step["params"].values()
        raw += [step["stabilization"]["duration"]] if "stabilization" in step else []
    assert len(raw) == 432
    built = Counter()
    quantity = specmodel.Quantity

    def counted(value, unit=""):
        built[repr(value), unit] += 1
        return quantity(value, unit)

    monkeypatch.setattr(specmodel, "Quantity", counted)
    parsed = parse_spec(text)
    assert built.keys() == {(repr(float(q["value"])), q.get("unit", "")) for q in raw}
    assert len(built) == sum(built.values()) == 19
    assert parsed == spec
    assert len({id(step.params) for step in parsed.steps}) == 13


def test_a_failing_configuration_is_reported_at_every_step_that_has_it(monkeypatch):
    """A port no valve has, a fill between two steps of the pump's frame and
    a window the potentiostat cannot scan, each swept twice: every instance
    that has one is reported, in the template, in the expansion and in
    spec.json as resume reads it, which checks each configuration once."""
    doc = campaign_doc(4, fill_ml=0.7)
    select, fill, measure = doc["steps"]
    select["repeat"]["dest"] = [7, 1, 7, 2]
    fill["repeat"]["volume"] = [0.7004, 0.7, 0.7004, 0.7]
    measure["params"]["freq_min"]["value"] = 600000
    template = parse_spec(json.dumps(doc))
    registry = registry_from_lab_config(json.loads(LAB_PATH.read_text()))
    genesis = genesis_from_lab_config(json.loads(LAB_PATH.read_text()))
    expanded = expand_sweeps(template)
    expected = static_check_per_step(expanded, registry, genesis)
    assert [(d.code, d.locus) for d in expected] == [
        ("out_of_range", "select#0"), ("out_of_range", "select#2"),
        ("bad_value", "fill#0"), ("bad_value", "fill#2"),
        *[("out_of_range", f"measure#{k}") for k in range(4)],
    ]
    assert static_check(template, registry, genesis) == expected
    assert static_check(expanded, registry, genesis) == expected
    reread = parse_spec(serialize_spec(expanded))
    # 3 selects, 2 fills and 4 measures (one per concentration).
    assert _count_step_checks(monkeypatch, reread, registry, genesis) == (expected, 9)


# A custom capability with a configure-gated operation, a temperature mode
# and safety thresholds inside its ranges, for the draws below.
OVEN = {
    "operations": {
        "tune": {"params": {"gain": {"min": -1, "max": 1}}, "kind": "configure",
                 "idempotent": True},
        "bake": {"params": {"gain": {"min": -1, "max": 1},
                            "hold": {"unit": "s", "min": 0, "max": 60},
                            "cycles": {"min": 1, "max": 10}},
                 "configure_via": "tune", "duration_s": ["hold", "cycles"]},
        "heat": {"params": {"temperature": {"unit": "K", "min": 250, "max": 500},
                            "hold": {"unit": "s", "min": 0, "max": 60, "optional": True}}},
    },
    "safety": {"conditions": [
        {"field": "temperature", "comparator": "<=", "threshold": {"value": 450, "unit": "K"}},
        {"field": "gain", "comparator": ">=", "threshold": {"value": -0.5}},
    ]},
}
_OVEN_LAB = json.loads(LAB_PATH.read_text())
_OVEN_LAB["capabilities"] = {"oven": OVEN}
_OVEN_LAB["devices"].append({"device_id": "oven_1", "capability": "oven"})
OVEN_REGISTRY = registry_from_lab_config(_OVEN_LAB)
OVEN_GENESIS = genesis_from_lab_config(_OVEN_LAB)
# binding -> (capability, the operations a draw picks from, one unknown)
DRAWN_BINDINGS = {
    "pump": ("pump", ["dispense", "stop"]),
    "valve": ("valve", ["set"]),
    "stat": ("potentiostat", ["measure_eis", "configure"]),
    "oven": ("oven", ["tune", "bake", "heat"]),
    "ghost": ("warp_drive", ["go"]),
}
# Ints and floats, both zeros, values in and out of every range above.
DRAWN_VALUES = [0, 0.0, -0.0, 1, 1.0, 0.5, 2.5, 6, 10, 25, 60, 298.15, 450, 500, 600, -1]
DRAWN_UNITS = ["", "s", "K", "degC", "mL", "mL/min", "Hz", "V", "mol/kg"]


def _drawn_quantity(draw, pschema, damaged: bool):
    """A value of ``pschema``'s range in its unit; in a damaged spec, with
    odds of 1 in 4 any drawn value and with odds of 1 in 4 any drawn unit."""
    values = DRAWN_VALUES
    if pschema is not None and not (damaged and not draw(st.integers(0, 3))):
        values = [pschema.min, pschema.max, (pschema.min + pschema.max) / 2]
        values += [0, 0.0, -0.0] if pschema.min <= 0 <= pschema.max else []
    value = draw(st.sampled_from(values))
    if pschema is None or (damaged and not draw(st.integers(0, 3))):
        return value, draw(st.sampled_from(DRAWN_UNITS))
    return value, pschema.unit


def _drawn_step(draw, index: int, damaged: bool) -> dict:
    """A step, swept or not; a damaged spec's steps may also name unknown
    capabilities and operations, miss params and have unknown ones."""
    bindings = sorted(DRAWN_BINDINGS) if damaged else sorted(set(DRAWN_BINDINGS) - {"ghost"})
    binding = draw(st.sampled_from(bindings))
    capability, operations = DRAWN_BINDINGS[binding]
    op = draw(st.sampled_from(operations + ["levitate"] if damaged else operations))
    schemas = {}
    if capability in OVEN_REGISTRY and op in OVEN_REGISTRY.get(capability).operations:
        schemas = dict(OVEN_REGISTRY.get(capability).operation(op).params)
    names = [name for name in schemas if not (damaged and not draw(st.integers(0, 5)))]
    if damaged and not draw(st.integers(0, 3)):
        names.append("bogus")
    params = {}
    for name in names:
        value, unit = _drawn_quantity(draw, schemas.get(name), damaged)
        params[name] = {"value": value, "unit": unit}
    step = {"id": f"s{index}", "binding": binding, "op": op, "params": params,
            "depends_on": [f"s{i}" for i in range(index) if draw(st.booleans())]}
    if names and draw(st.booleans()):
        name = draw(st.sampled_from(names))
        sweep = []
        for _ in range(draw(st.integers(1, 4))):
            value, unit = _drawn_quantity(draw, schemas.get(name), damaged)
            sweep.append(draw(st.sampled_from([value, {"value": value, "unit": unit}])))
        step["repeat"] = {name: sweep}
    return step


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_checks_and_lowering_once_per_configuration_match_each_step_alone(data):
    """Checking and lowering each distinct configuration once gives every
    step the diagnostics and nodes it gets when checked and lowered alone."""
    damaged = data.draw(st.booleans())
    steps = [_drawn_step(data.draw, i, damaged) for i in range(data.draw(st.integers(1, 4)))]
    doc = {"spec_id": "drawn", "version": "1.0.0", "steps": steps,
           "resources": [{"name": name, "capability": capability}
                         for name, (capability, _) in sorted(DRAWN_BINDINGS.items())
                         if any(step["binding"] == name for step in steps)]}
    spec = expand_sweeps(parse_spec(json.dumps(doc)))
    diagnostics = static_check(spec, OVEN_REGISTRY, OVEN_GENESIS)
    assert diagnostics == static_check_per_step(spec, OVEN_REGISTRY, OVEN_GENESIS)
    if diagnostics:
        return
    nodes = compile_spec(spec, OVEN_REGISTRY, OVEN_GENESIS, diagnostics).nodes
    for node_id, fields in lowered_params_per_step(spec, OVEN_REGISTRY).items():
        assert {name: getattr(nodes[node_id], name) for name in fields} == fields


NON_FINITE = [float("nan"), float("inf"), -float("inf")]
# Suffixes that make a step's id look like an instance id of another step.
LOOKALIKE_SUFFIXES = ["#0", "#1", "#x", "#0#0"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_the_template_check_matches_the_check_of_the_expansion(data):
    """``validate`` parses a spec, which checks its sweeps, and then checks
    the spec at its template, without expanding it. That gives the
    diagnostics of the expansion, each step checked alone; a spec whose
    expansion would break is refused by ``parse_spec``, at the step or
    instance id a drawn edit names. Beyond the draws above, a step may
    sweep one more param, declared or not, with numbers, non-finite ones
    too, or with quantities only (an undeclared param swept with numbers is
    an error, with quantities a new param), and ids may look like instance
    ids of other steps. A clean template, which ``plan`` and ``run``
    compile as it is, lowers to its expansion's DAG."""
    damaged = data.draw(st.booleans())
    steps = [_drawn_step(data.draw, i, damaged) for i in range(data.draw(st.integers(1, 4)))]
    swept = []  # the steps that sweep one more param
    for step in steps:
        if data.draw(st.booleans()):
            swept.append(step)
            name = data.draw(st.sampled_from(sorted(step["params"]) + ["extra"]))
            quantities = data.draw(st.booleans())
            values = DRAWN_VALUES if quantities else DRAWN_VALUES + NON_FINITE
            step.setdefault("repeat", {})[name] = [
                {"value": value, "unit": data.draw(st.sampled_from(DRAWN_UNITS))}
                if quantities else value
                for value in data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=3))
            ]
    renames: dict[str, str] = {}
    for step in steps:
        if data.draw(st.booleans()):
            lookalike = data.draw(st.sampled_from(steps))["id"] + data.draw(
                st.sampled_from(LOOKALIKE_SUFFIXES))
            if lookalike not in {s["id"] for s in steps} | set(renames.values()):
                renames[step["id"]] = lookalike
    for step in steps:
        step["id"] = renames.get(step["id"], step["id"])
        step["depends_on"] = [renames.get(dep, dep) for dep in step["depends_on"]]
    doc = {"spec_id": "drawn", "version": "1.0.0", "steps": steps,
           "resources": [{"name": name, "capability": capability}
                         for name, (capability, _) in sorted(DRAWN_BINDINGS.items())
                         if any(step["binding"] == name for step in steps)]}
    try:
        template = parse_spec(json.dumps(doc))
    except SpecSchemaError as err:
        named = {f"steps[{step['id']}]" for step in swept} | set(renames.values())
        assert err.code in ("unknown_sweep_param", "bad_value", "duplicate_id")
        assert err.locus in named
        assert (err.code, err.locus) == sweep_refusal(doc)
        return
    assert sweep_refusal(doc) is None
    expected = static_check_per_step(expand_sweeps(template), OVEN_REGISTRY, OVEN_GENESIS)
    assert static_check(template, OVEN_REGISTRY, OVEN_GENESIS) == expected
    if expected:
        return
    # A clean template lowers to the DAG of its expansion, node order included.
    dag = compile_spec(template, OVEN_REGISTRY, OVEN_GENESIS)
    expanded = compile_spec(expand_sweeps(template), OVEN_REGISTRY, OVEN_GENESIS)
    assert list(dag.nodes) == list(expanded.nodes)
    assert dag.nodes == expanded.nodes
    assert dag.edges == expanded.edges
    assert dag.bindings == expanded.bindings
