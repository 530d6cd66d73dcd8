"""Declarative experiment stack for automated lab campaigns.

Specs are validated against a capability registry, compiled to a workflow
DAG, scheduled against live lab state, and executed on a simulated device
fleet with fault handling and full provenance.
"""

from eaclab.canon import canonical_json, sha256_hex
from eaclab.capabilities import (
    CapabilityRegistry,
    CapabilitySchema,
    builtin_registry,
    registry_from_lab_config,
)
from eaclab.compiler import WorkflowDAG, compile_spec, static_check
from eaclab.executor import Checkpoint, FaultEvent, RunResult, execute, resume
from eaclab.labstate import (
    DeviceRecord,
    LabState,
    StateEvent,
    apply_event,
    genesis_from_lab_config,
    query_eligible,
    replay,
    snapshot,
)
from eaclab.scheduler import ExecutionPlan, schedule
from eaclab.shims import SimFleet
from eaclab.specmodel import (
    ExperimentSpec,
    expand_sweeps,
    parse_spec,
    serialize_spec,
    spec_hash,
)
from eaclab.telemetry import TelemetryRecord, TelemetryStore
from eaclab.units import Quantity, canonicalize_units

__version__ = "0.1.0"

__all__ = [
    "CapabilityRegistry",
    "CapabilitySchema",
    "Checkpoint",
    "DeviceRecord",
    "ExecutionPlan",
    "ExperimentSpec",
    "FaultEvent",
    "LabState",
    "Quantity",
    "RunResult",
    "SimFleet",
    "StateEvent",
    "TelemetryRecord",
    "TelemetryStore",
    "WorkflowDAG",
    "apply_event",
    "builtin_registry",
    "canonical_json",
    "canonicalize_units",
    "compile_spec",
    "execute",
    "expand_sweeps",
    "genesis_from_lab_config",
    "parse_spec",
    "query_eligible",
    "registry_from_lab_config",
    "replay",
    "resume",
    "schedule",
    "serialize_spec",
    "sha256_hex",
    "snapshot",
    "spec_hash",
    "static_check",
]
