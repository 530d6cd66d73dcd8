"""Declarative experiment stack for automated lab campaigns.

Specs are validated against a capability registry, compiled to a workflow
DAG, scheduled against live lab state, and executed on a simulated device
fleet with fault handling and full provenance.

``import eaclab`` loads none of the layers: each exported name is imported
from its module on first access (PEP 562) and then kept in this module, so
a program, or a command of ``eaclab.cli``, loads only the layers it uses.
"""

__version__ = "0.1.0"

# Exported names by the module that defines them.
_EXPORTS = {
    "canon": ("canonical_json", "sha256_hex"),
    "capabilities": (
        "CapabilityRegistry",
        "CapabilitySchema",
        "builtin_registry",
        "registry_from_lab_config",
    ),
    "compiler": ("WorkflowDAG", "compile_spec", "static_check"),
    "executor": ("Checkpoint", "FaultEvent", "RunResult", "execute", "resume"),
    "labstate": (
        "DeviceRecord",
        "LabState",
        "StateEvent",
        "apply_event",
        "genesis_from_lab_config",
        "query_eligible",
        "replay",
        "snapshot",
    ),
    "scheduler": ("ExecutionPlan", "schedule"),
    "shims": ("SimFleet",),
    "specmodel": ("ExperimentSpec", "expand_sweeps", "parse_spec", "serialize_spec", "spec_hash"),
    "telemetry": ("TelemetryRecord",),
    "units": ("Quantity", "canonicalize_units"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
