import json

import pytest

from eaclab.canon import canonical_json
from eaclab.errors import ProvenanceError
from eaclab.telemetry import TelemetryRecord, export_csv
from eaclab.units import Quantity

from workloads import NoDataError, TelemetryStore


def _record(node_id: str, conductivity: float, concentration: float, run_id="r1"):
    return TelemetryRecord(
        run_id=run_id,
        node_id=node_id,
        device_id="pstat_1",
        time=float(len(node_id)),
        fields={
            "conductivity": Quantity(conductivity, "S/cm"),
            "concentration": Quantity(concentration, "mol/kg"),
        },
        spec_hash="s" * 64,
        plan_hash="p" * 64,
    )


def test_missing_provenance_rejected():
    with pytest.raises(ProvenanceError):
        TelemetryRecord("r", "n", "d", 0.0, {}, spec_hash="", plan_hash="p")
    with pytest.raises(ProvenanceError):
        TelemetryRecord("r", "n", "d", 0.0, {}, spec_hash="s", plan_hash="")


def test_query_preserves_insertion_order():
    store = TelemetryStore()
    records = [_record(f"m{i}", 0.01 * i, 0.5 * i) for i in range(4)]
    for rec in records:
        store.record(rec)
    store.record(_record("other", 1.0, 1.0, run_id="r2"))
    assert store.query("r1") == records
    assert len(store) == 5


def test_report_argmax():
    store = TelemetryStore()
    for i, cond in enumerate([0.03, 0.07, 0.05]):
        store.record(_record(f"m{i}", cond, 0.5 * (i + 1)))
    report = store.report_argmax("r1", "conductivity")
    assert report["value"] == 0.07
    assert report["at"]["concentration"].value == 1.0


def test_report_argmax_tie_goes_to_earliest():
    store = TelemetryStore()
    store.record(_record("first", 0.07, 1.0))
    store.record(_record("second", 0.07, 2.0))
    assert store.report_argmax("r1", "conductivity")["at"]["concentration"].value == 1.0


def test_report_argmax_empty_raises():
    with pytest.raises(NoDataError):
        TelemetryStore().report_argmax("r1", "conductivity")


def test_ndjson_round_trip():
    rec = _record("m0", 0.05, 1.5)
    lines = canonical_json(rec.to_dict()).splitlines()
    assert len(lines) == 1
    assert TelemetryRecord.from_dict(json.loads(lines[0])) == rec


def test_csv_export_columns():
    lines = export_csv([_record("m0", 0.05, 1.5)]).strip().splitlines()
    assert lines[0] == "concentration,conductivity,temperature"
    assert lines[1].split(",")[:2] == ["1.5", "0.05"]
