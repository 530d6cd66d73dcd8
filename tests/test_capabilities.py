import pytest
from hypothesis import given, strategies as st

from eaclab.capabilities import (
    BUILTIN_CAPABILITIES,
    DEFAULT_CALIBRATION_WINDOW_S,
    CapabilityRegistry,
    CapabilitySchema,
    OperationSchema,
    ParamSchema,
    SafetyPredicate,
    TransitionLatency,
    builtin_registry,
    registry_from_lab_config,
    schema_from_dict,
)
from eaclab.errors import (
    DuplicateCapabilityError,
    UnknownCapabilityError,
    UnknownOperationError,
)
from eaclab.units import Quantity, canonicalize_units

from conftest import BAD_TCELL, TCELL, with_edit


def test_builtin_fleet_names():
    registry = builtin_registry()
    names = ["balance", "potentiostat", "pump", "relay", "valve"]
    # builtin_registry registers the literal's entries, and it has these five.
    assert sorted(BUILTIN_CAPABILITIES) == names
    assert [registry.get(name).capability for name in names] == names


def test_calibration_window_constant():
    assert DEFAULT_CALIBRATION_WINDOW_S == 30 * 24 * 3600
    assert builtin_registry().get("pump").calibration_window == 2_592_000


def test_write_once_registration():
    registry = CapabilityRegistry()
    schema = CapabilitySchema("heater", operations={})
    registry.register(schema)
    with pytest.raises(DuplicateCapabilityError):
        registry.register(schema)
    with pytest.raises(UnknownCapabilityError):
        registry.get("chiller")
    with pytest.raises(UnknownOperationError):
        schema.operation("melt")


def test_pump_envelope():
    registry = builtin_registry()
    op = registry.get("pump").operation("dispense")
    assert op.params["flow_rate"].min == 0.1
    assert op.params["flow_rate"].max == 10.0
    assert op.params["volume"].min == 0.01
    assert op.params["volume"].max == 50.0
    assert not op.idempotent


def test_potentiostat_envelope_and_configure_via():
    registry = builtin_registry()
    op = registry.get("potentiostat").operation("measure_eis")
    assert op.configure_via == "configure"
    assert op.idempotent
    assert op.params["eac"].min == 0.001 and op.params["eac"].max == 1.0
    assert op.params["freq_min"].max == 1e6
    assert op.params["n_freq"].max == 100


def _violation_codes(registry, capability, op, params):
    violations = registry.check_param_ranges(capability, op, params)
    return sorted((v.code, v.param) for v in violations)


def test_range_check_codes_match_set_difference_oracle():
    registry = builtin_registry()
    schema = registry.get("pump").operation("dispense")
    supplied = {
        "volume": Quantity(100.0, "mL"),  # out of range
        "ghost": Quantity(1.0),  # unknown
    }
    # Oracle built directly from the two name sets plus bound checks.
    required = {n for n, p in schema.params.items() if not p.optional}
    expected = sorted(
        [("missing_param", n) for n in required - set(supplied)]
        + [("unknown_param", n) for n in set(supplied) - set(schema.params)]
        + [("out_of_range", "volume")]
    )
    assert _violation_codes(registry, "pump", "dispense", supplied) == expected


def test_range_check_passes_in_band():
    registry = builtin_registry()
    violations = registry.check_param_ranges(
        "pump",
        "dispense",
        {"flow_rate": Quantity(4.0, "mL/min"), "volume": Quantity(0.7, "mL")},
    )
    assert violations == []


def test_bad_unit_flagged():
    registry = builtin_registry()
    violations = registry.check_param_ranges(
        "pump",
        "dispense",
        {"flow_rate": Quantity(1.0, "V"), "volume": Quantity(0.7, "mL")},
    )
    assert [v.code for v in violations] == ["bad_unit"]


@given(st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
def test_range_check_invariant_under_unit_restatement(volume_ml):
    """A dimensionally equal restatement validates identically."""
    registry = builtin_registry()
    base = {"flow_rate": Quantity(1.0, "mL/min"), "volume": Quantity(volume_ml, "mL")}
    restated = dict(base, volume=canonicalize_units(base["volume"], "m^3"))
    a = registry.check_param_ranges("pump", "dispense", base)
    b = registry.check_param_ranges("pump", "dispense", restated)
    assert [v.code for v in a] == [v.code for v in b]


def test_transition_latency_cost():
    latency = TransitionLatency(
        warmup=60.0, cooldown=100.0, reconfigure={("T298", "T310"): 30.0}
    )
    assert latency.cost("T298", "T298") == 0.0
    assert latency.cost("T298", None) == 0.0
    assert latency.cost("T298", "T310") == 30.0
    assert latency.cost("T310", "T298") == 160.0  # no entry: warmup + cooldown
    assert latency.cost(None, "T298") == 160.0


def test_schema_from_dict_custom_capability():
    schema = schema_from_dict(
        "heater",
        {
            "operations": {
                "heat_to": {
                    "params": {"temperature": {"unit": "K", "min": 280, "max": 360}},
                    "kind": "configure",
                    "idempotent": True,
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
            "transitions": {"warmup": 60, "cooldown": 100},
            "reconcile_ops": {"temperature": "heat_to"},
        },
    )
    assert "connect" in schema.operations  # lifecycle ops always present
    assert schema.operation("heat_to").params["temperature"].max == 360
    assert schema.safety.conditions[0].comparator == "<="
    assert schema.transitions.cost("T298", "T310") == 160.0


@pytest.mark.parametrize(
    "comparator, value, holds",
    [("<=", 350, True), ("<=", 351, False), (">=", 350, True), ("<", 350, False),
     (">", 351, True), ("==", 350, True), ("==", 349, False)],
)
def test_safety_predicate_holds(comparator, value, holds):
    predicate = SafetyPredicate("temperature", comparator, Quantity(350.0, "K"))
    assert predicate.holds(value, 350.0) is holds


@pytest.mark.parametrize("comparator", ["=<", "!=", "", "le"])
def test_unknown_safety_comparator_is_rejected(comparator):
    condition = {"field": "temperature", "comparator": comparator,
                 "threshold": {"value": 350, "unit": "K"}}
    with pytest.raises(ValueError, match="comparator"):
        schema_from_dict("cell", {"safety": {"conditions": [condition]}})


def test_read_operations_must_be_idempotent():
    with pytest.raises(ValueError):
        OperationSchema("peek", kind="read", idempotent=False)
    with pytest.raises(ValueError):
        ParamSchema("", min=2, max=1)


def test_operation_clocks():
    registry = builtin_registry()
    canonical = {"volume": Quantity(7e-7, "m^3"), "flow_rate": Quantity(4e-6 / 60, "m^3/s")}
    assert registry.get("pump").operation("dispense").duration_s == ("volume", "flow_rate")
    assert registry.get("pump").operation("dispense").duration(canonical) == 7e-7 / (4e-6 / 60)
    assert registry.get("valve").operation("set").duration({}) == 2.0
    assert registry.get("relay").operation("on").duration({}) == 1.0  # the default
    assert registry.get("balance").operation("connect").duration({}) == 1.0


def test_builtin_redeclared_in_a_lab_is_a_duplicate():
    with pytest.raises(DuplicateCapabilityError):
        registry_from_lab_config({"capabilities": {"valve": {}}})


def test_custom_capability_clocks_and_reconfigure():
    schema = schema_from_dict("tcell", TCELL)
    scan = schema.operation("scan")
    assert scan.duration_s == ("samples", "rate")
    canonical = {"samples": Quantity(300.0), "rate": Quantity(2.0, "Hz")}
    assert scan.duration(canonical) == 150.0
    assert schema.transitions.reconfigure == {("T298", "T310"): 12.0}


@pytest.mark.parametrize("damage", sorted(BAD_TCELL))
def test_malformed_capability_is_refused_naming_the_field(damage):
    path, value, named = BAD_TCELL[damage]
    with pytest.raises(ValueError) as refused:
        schema_from_dict("tcell", with_edit(TCELL, path, value))
    assert named in str(refused.value)


# Bounds the wire encoders checked again before frames were data, and values
# a frame would truncate, each now refused by the static check alone:
# (capability, operation, params, the (code, param) of each violation).
STATIC_REFUSALS = {
    "pump_envelope": ("pump", "dispense", {"flow_rate": Quantity(0.05, "mL/min"),
                                           "volume": Quantity(60.0, "mL")},
                      [("out_of_range", "flow_rate"), ("out_of_range", "volume")]),
    "valve_range": ("valve", "set", {"dest": Quantity(0.0)}, [("out_of_range", "dest")]),
    "valve_range_above": ("valve", "set", {"dest": Quantity(7.0)}, [("out_of_range", "dest")]),
    "valve_fraction": ("valve", "set", {"dest": Quantity(2.5)}, [("bad_value", "dest")]),
    "relay_fraction": ("relay", "on", {"channel": Quantity(1.5)}, [("bad_value", "channel")]),
    "frequency_window_swapped": ("potentiostat", "configure", {
        "eac": Quantity(0.25, "V"), "freq_min": Quantity(1e5, "Hz"),
        "freq_max": Quantity(100.0, "Hz"), "n_freq": Quantity(10.0)}, [("out_of_range", "freq_min")]),
    "frequency_window_equal": ("potentiostat", "measure_eis", {
        "eac": Quantity(0.25, "V"), "freq_min": Quantity(1e5, "Hz"),
        "freq_max": Quantity(1e5, "Hz"), "n_freq": Quantity(10.0)}, [("out_of_range", "freq_min")]),
    "n_freq_fraction": ("potentiostat", "measure_eis", {
        "eac": Quantity(0.25, "V"), "freq_min": Quantity(100.0, "Hz"),
        "freq_max": Quantity(1e5, "Hz"), "n_freq": Quantity(10.5)}, [("bad_value", "n_freq")]),
}


@pytest.mark.parametrize("row", sorted(STATIC_REFUSALS))
def test_the_static_check_refuses_each_declared_bound(row):
    capability, operation, params, expected = STATIC_REFUSALS[row]
    assert _violation_codes(builtin_registry(), capability, operation, params) == expected
