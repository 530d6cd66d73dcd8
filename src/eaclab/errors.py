"""Exception hierarchy and the closed set of diagnostic codes."""

from __future__ import annotations


class EacError(Exception):
    """Base class for all errors raised by this package."""


# Closed set of machine-readable diagnostic codes. Every SpecError and
# Diagnostic emitted anywhere in the stack uses one of these.
DIAGNOSTIC_CODES = frozenset(
    {
        "syntax",
        "missing_field",
        "unknown_field",
        "bad_type",
        "duplicate_id",
        "duplicate_key",
        "dangling_dependency",
        "dangling_binding",
        "dependency_cycle",
        "bad_unit",
        "bad_value",
        "empty_sweep",
        "unknown_sweep_param",
        "unknown_capability",
        "unknown_operation",
        "missing_param",
        "unknown_param",
        "out_of_range",
        "unsatisfiable_binding",
        "safety_violation",
    }
)


class SpecSyntaxError(EacError):
    """Malformed spec document. Carries line/column of the failure."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.code = "syntax"
        self.line = line
        self.column = column


class SpecSchemaError(EacError):
    """Structurally invalid spec: carries a diagnostic code and locus."""

    def __init__(self, code: str, locus: str, message: str):
        assert code in DIAGNOSTIC_CODES, code
        super().__init__(f"{code} at {locus}: {message}")
        self.code = code
        self.locus = locus


class UnitError(EacError):
    """Unknown unit or dimensionally incompatible conversion."""


class DuplicateCapabilityError(EacError):
    """Capability name registered twice."""


class UnknownCapabilityError(EacError):
    """Capability name not present in the registry."""


class UnknownOperationError(EacError):
    """Operation name not declared by the capability."""


class SequenceGapError(EacError):
    """Event sequence number does not match the expected next value."""


class IllegalTransitionError(EacError):
    """Device status transition not in the closed transition graph."""


class CompileError(EacError):
    """compile() called with an uncheckable or erroneous spec."""


class CycleError(EacError):
    """Graph contains a cycle where a DAG was required."""


class UnschedulableError(EacError):
    """No eligible device exists for a binding that must be placed."""


class CheckpointMismatchError(EacError):
    """Checkpoint's plan hash does not match the supplied plan."""


class StillBlockedError(EacError):
    """Resume attempted while the blocking condition persists."""


class StabilizationTimeoutError(EacError):
    """Stabilization signal never entered its band before the cap."""


class RangeError(EacError):
    """Codec parameter outside the encodable range."""


class FrameParseError(EacError):
    """Wire frame or device reply line could not be decoded."""


class SimFault(EacError):
    """Simulated device raised an injected or probabilistic fault."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.detail = detail


class ProvenanceError(EacError):
    """Telemetry record missing its spec or plan hash."""
