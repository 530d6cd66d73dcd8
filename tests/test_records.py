"""eaclab's records behave as the ``@dataclass`` classes they replace.

Each record is checked against a ``dataclasses`` twin made here from the
same fields and defaults: equality, hash and repr agree over drawn values,
frozen fields refuse assignment and deletion, ``replace`` re-runs
``__post_init__``, each instance gets its own default-factory dict, and a
filled ``cached_property`` stays out of equality.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from eaclab.executor import RunResult
from eaclab.labstate import DEVICE_STATUSES, DeviceRecord, LabState
from eaclab.records import FrozenInstanceError, replace
from eaclab.scheduler import Assignment, Batch, ExecutionPlan
from eaclab.shims import SimDeviceConfig, SimResult
from eaclab.units import Quantity, known_units

from workloads import TelemetryStore


def factory():
    return dataclasses.field(default_factory=dict)


TWINS = {
    Quantity: dataclasses.make_dataclass(
        "Quantity", [("value", float), ("unit", str, "")], frozen=True
    ),
    DeviceRecord: dataclasses.make_dataclass(
        "DeviceRecord",
        [
            ("device_id", str),
            ("capability", str),
            ("status", str, "idle"),
            ("observed", dict, factory()),
            ("holder", str, None),
            ("last_calibrated", float, 0.0),
            ("mode", str, None),
            ("attrs", dict, factory()),
        ],
        frozen=True,
    ),
    ExecutionPlan: dataclasses.make_dataclass(
        "ExecutionPlan",
        [
            ("assignments", tuple),
            ("batches", tuple),
            ("makespan", float),
            ("policy", str),
        ],
        frozen=True,
    ),
}
REQUIRED = {
    Quantity: {"value": 1.0},
    DeviceRecord: {"device_id": "d", "capability": "pump"},
    ExecutionPlan: {"assignments": (), "batches": (), "makespan": 0.0, "policy": "fifo"},
}

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text(max_size=4)
QUANTITIES = st.builds(Quantity, FLOATS, st.sampled_from(sorted(known_units())))


@st.composite
def device_records(draw):
    status = draw(st.sampled_from(sorted(DEVICE_STATUSES)))
    return DeviceRecord(
        device_id=draw(NAMES),
        capability=draw(NAMES),
        status=status,
        observed=draw(st.dictionaries(NAMES, QUANTITIES, max_size=2)),
        holder=draw(NAMES) if status == "busy" else None,
        last_calibrated=draw(FLOATS),
        mode=draw(st.none() | NAMES),
        attrs=draw(st.dictionaries(NAMES, FLOATS, max_size=2)),
    )


PLANS = st.builds(
    ExecutionPlan,
    st.lists(st.builds(Assignment, NAMES, NAMES, FLOATS, FLOATS, FLOATS), max_size=3).map(tuple),
    st.lists(
        st.builds(Batch, NAMES, NAMES, NAMES, st.lists(NAMES, max_size=2).map(tuple)),
        max_size=2,
    ).map(tuple),
    FLOATS,
    st.sampled_from(["fifo", "batched"]),
)
RECORDS = st.one_of(QUANTITIES, device_records(), PLANS)


def _twin(record):
    cls = type(record)
    return TWINS[cls](**{name: getattr(record, name) for name in cls._fields})


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("cls", sorted(TWINS, key=lambda c: c.__name__))
def test_twin_has_the_same_fields_and_defaults(cls):
    twin = TWINS[cls]
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    assert repr(cls(**REQUIRED[cls])) == repr(twin(**REQUIRED[cls]))


@given(RECORDS, RECORDS)
def test_eq_hash_and_repr_match_the_dataclass_twin(a, b):
    for record in (a, b):
        assert repr(record) == repr(_twin(record))
        assert _hash(record) == _hash(_twin(record))
        assert record == replace(record) and not record != replace(record)
        assert record != _twin(record)
    assert (a == b) == (_twin(a) == _twin(b))
    assert (a != b) == (_twin(a) != _twin(b))


@given(RECORDS)
def test_fields_refuse_assignment_and_deletion(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    assert repr(record) == repr(_twin(record))


@given(device_records())
def test_replace_runs_post_init(record):
    with pytest.raises(ValueError, match="unknown status"):
        replace(record, status="nope")
    with pytest.raises(ValueError, match="holder"):
        replace(record, holder=None if record.status == "busy" else "step")
    with pytest.raises(TypeError):
        replace(record, colour="red")
    assert replace(record, mode="m").mode == "m"


def test_each_instance_gets_its_own_default_factory_value():
    a, b = DeviceRecord("a", "pump"), DeviceRecord("b", "pump")
    for name in ("observed", "attrs"):
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    assert LabState().devices is not LabState().devices
    assert TelemetryStore()._records is not TelemetryStore()._records
    shared = {"k": 1.0}
    assert DeviceRecord("c", "pump", attrs=shared).attrs is shared


@given(PLANS)
def test_a_filled_cached_property_stays_out_of_equality(plan):
    copy = replace(plan)
    assert "_canonical_text" not in copy.__dict__
    plan.serialize()
    assert "_canonical_text" in plan.__dict__
    assert plan == copy and hash(plan) == hash(copy)
    assert repr(plan) == repr(copy)


def test_mutable_records_are_unhashable_and_assignable():
    result = SimResult(replies=[], telemetry={})
    result.telemetry = {"mass": 7.0}
    assert result == SimResult(replies=[], telemetry={"mass": 7.0})
    assert TelemetryStore.__hash__ is None and RunResult.__hash__ is None
    with pytest.raises(TypeError):
        hash(result)
    with pytest.raises(ValueError, match="temperature_tau"):
        SimDeviceConfig("pstat_1", "potentiostat", temperature_tau=0.0)
