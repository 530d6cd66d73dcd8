"""Append-only measurement records with spec/plan provenance hashes."""

from __future__ import annotations

import csv
import io

from eaclab.errors import ProvenanceError
from eaclab.records import record
from eaclab.units import Quantity


@record(frozen=True)
class TelemetryRecord:
    run_id: str
    node_id: str
    device_id: str
    time: float
    fields: dict[str, Quantity]
    spec_hash: str
    plan_hash: str

    def __post_init__(self) -> None:
        if not self.spec_hash or not self.plan_hash:
            raise ProvenanceError(
                f"record for {self.node_id!r} is missing a provenance hash"
            )

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "node_id": self.node_id,
            "device_id": self.device_id,
            "time": self.time,
            "fields": {k: q.to_dict() for k, q in sorted(self.fields.items())},
            "spec_hash": self.spec_hash,
            "plan_hash": self.plan_hash,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TelemetryRecord":
        return cls(
            run_id=obj["run_id"],
            node_id=obj["node_id"],
            device_id=obj["device_id"],
            time=obj["time"],
            fields={k: Quantity.from_dict(v) for k, v in obj["fields"].items()},
            spec_hash=obj["spec_hash"],
            plan_hash=obj["plan_hash"],
        )


_CSV_COLUMNS = ("concentration", "conductivity", "temperature")


def export_csv(records: list[TelemetryRecord], header: bool = True) -> str:
    """Plot-friendly view of ``records``, one row each: concentration,
    conductivity, temperature.

    ``header=False`` gives the rows only, to append to an export."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if header:
        writer.writerow(_CSV_COLUMNS)
    for rec in records:
        writer.writerow([_field_value(rec, name) for name in _CSV_COLUMNS])
    return buf.getvalue()


def _field_value(rec: TelemetryRecord, name: str) -> str:
    q = rec.fields.get(name)
    return "" if q is None else repr(q.value)
