"""Declarative experiment specifications: parsing, validation, sweep expansion.

The external format is a single UTF-8 JSON document (see
``schema/experiment_spec.schema.json``). Parsing is total: a document either
yields a fully validated ``ExperimentSpec`` or raises ``SpecSyntaxError`` /
``SpecSchemaError`` with a diagnostic code from the closed set.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from functools import cached_property

from eaclab.canon import canonical_json, sha256_hex
from eaclab.errors import SpecSchemaError, SpecSyntaxError, UnitError
from eaclab.records import field, record, replace
from eaclab.units import Quantity, to_canonical

_VERSION_RE = re.compile(r"^\d+\.\d+\.\d+$")

STABILIZATION_MODES = frozenset({"fixed_delay", "setpoint_then_hold"})


@record(frozen=True)
class ResourceBinding:
    binding_name: str
    capability: str
    selector: str | None = None
    constraints: dict[str, float] = field(default_factory=dict)


@record(frozen=True)
class StabilizationConstraint:
    mode: str
    duration: Quantity
    signal: str | None = None


@record(frozen=True)
class StepSpec:
    """One step of a spec. A swept step that ``parse_spec`` returns also
    has ``columns``, set by the parse walk (``_sweep_column``) and not a
    field, so out of equality and repr: per swept param, in ``repeat``
    order, its distinct quantities, and for each of its values the index of
    its quantity. Instance ``k`` takes the ``k``-th combination of these
    indices in row-major order. The lists must not be modified."""

    step_id: str
    binding: str
    operation: str
    params: dict[str, Quantity] = field(default_factory=dict)
    depends_on: tuple[str, ...] = ()
    stabilization: StabilizationConstraint | None = None
    repeat: dict[str, tuple] | None = None

    @cached_property
    def sweep(self) -> tuple[list[dict[str, Quantity]], list[int]]:
        """The distinct params of a swept step's instances, and for each
        instance in expansion order the index of its params, built from
        the ``columns`` the parse set.

        Instances whose swept quantities are the same share one dict; every
        unswept param is the template's own quantity. Computed once per
        step, so that a template's lowering and its expansion share it; the
        lists and dicts must not be modified.
        """
        columns = self.columns
        distinct: list[dict[str, Quantity]] = []
        combos: dict[tuple[int, ...], int] = {}
        which: list[int] = []
        for combo in itertools.product(*(indices for _, indices in columns)):
            index = combos.get(combo)
            if index is None:
                index = combos[combo] = len(distinct)
                distinct.append(_swept_params(self, [
                    quantities[i] for (quantities, _), i in zip(columns, combo)
                ]))
            which.append(index)
        return distinct, which


@record(frozen=True)
class ExperimentSpec:
    spec_id: str
    version: str
    resources: tuple[ResourceBinding, ...]
    steps: tuple[StepSpec, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def binding(self, name: str) -> ResourceBinding:
        for r in self.resources:
            if r.binding_name == name:
                return r
        raise KeyError(name)


def _reject_duplicate_keys(pairs):
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SpecSchemaError("duplicate_key", key, f"duplicate key {key!r}")
            seen.add(key)
    return out


# The decoder ``json.loads(text, object_pairs_hook=...)`` builds anew per
# call, built once.
_DECODER = json.JSONDecoder(object_pairs_hook=_reject_duplicate_keys)


def _require(obj: dict, key: str, locus: str):
    if key not in obj:
        raise SpecSchemaError("missing_field", locus, f"missing required field {key!r}")
    return obj[key]


def _check_no_unknown(obj: dict, allowed: frozenset[str], locus: str) -> None:
    if obj.keys() <= allowed:
        return
    for key in obj:
        if key not in allowed:
            raise SpecSchemaError("unknown_field", locus, f"unknown field {key!r}")


def _expect(value, types, locus: str, what: str):
    if not isinstance(value, types):
        raise SpecSchemaError("bad_type", locus, f"{what} has wrong type")
    return value


def _parse_quantity(obj, locus: str, keep_type: bool = False) -> Quantity:
    """A quantity object of a document, its value a float, or of the
    type it is written in with ``keep_type``."""
    _expect(obj, dict, locus, "quantity")
    _check_no_unknown(obj, _QUANTITY_FIELDS, locus)
    value = _require(obj, "value", locus)
    _expect(value, (int, float), locus, "quantity value")
    if isinstance(value, bool):
        raise SpecSchemaError("bad_type", locus, "quantity value has wrong type")
    unit = obj.get("unit", "")
    _expect(unit, str, locus, "quantity unit")
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a float
        raise SpecSchemaError("bad_value", locus, "quantity value is too large for a float") from None
    if not math.isfinite(value):
        raise SpecSchemaError("bad_value", locus, f"quantity value {value!r} is not finite")
    try:
        return Quantity(obj["value"] if keep_type else value, unit)
    except UnitError as exc:
        raise SpecSchemaError("bad_unit", locus, str(exc)) from exc


def _sweep_column(pname: str, values, template: Quantity | None, locus: str):
    """Walk the values of a sweep of ``pname`` at step ``locus`` once:
    validate each, key it and convert each distinct key to a quantity.
    ``template`` is the step's own quantity of ``pname``, None if it
    declares none.

    Returns ``(quantities, indices)``, the sweep's distinct quantities and
    for each value the index of its quantity. If the step is to be refused
    for this sweep, it returns ``(None, at)`` instead: ``at`` None if a
    number sweeps a param the step does not declare, else the index of the
    sweep's first number that is not finite (``_parse_step`` makes the
    refusal). A number becomes a float in the template's unit, so 1 and
    1.0 give one quantity; 0.0 and -0.0 are equal but print apart, so a
    zero is keyed by its text. A quantity object is keyed by its value's
    text and its unit and keeps its value's type. A malformed value raises
    at the first value that has it, whatever the sweep is refused for; each
    distinct key is validated once.
    """
    quantities: list[Quantity] = []
    indices: list[int] = []
    seen: dict = {}  # a value's key -> the index of its quantity
    refused = None  # the first refused value's index: len(indices), as none before it was refused
    for value in values:
        kind = type(value)
        if kind is float or kind is int:
            key = value if value else repr(float(value))
        elif kind is dict:
            key = _quantity_key(value)  # None for a malformed one, which raises below
            if key is not None:
                key = (*key, type(value["value"]))
        else:
            raise SpecSchemaError("bad_type", locus, f"sweep {pname!r} value has wrong type")
        index = seen.get(key)
        if index is None:
            if kind is dict:
                quantity = _parse_quantity(value, f"{locus}.repeat.{pname}", keep_type=True)
            else:
                try:
                    number = float(value)
                except OverflowError:
                    raise SpecSchemaError(
                        "bad_value", locus, f"sweep {pname!r} value is too large for a float"
                    ) from None
                if template is None or not math.isfinite(number):
                    if refused is None:
                        refused = len(indices)
                    continue
                quantity = Quantity(number, template.unit)
            index = seen[key] = len(quantities)
            quantities.append(quantity)
        indices.append(index)
    if refused is None:
        return quantities, indices
    return None, None if template is None else refused


def _quantity_key(obj):
    """A key under which equal quantities of a document share one parse:
    ``obj``'s value and unit, if ``obj`` is a quantity object whose parse
    depends on nothing else (a dict of an int or float ``value`` and
    perhaps a str ``unit``); None otherwise. Equal keys parse to equal
    quantities or fail alike: 1 and 1.0 both give 1.0, and a zero is keyed
    by its text, since 0.0 and -0.0 are equal but print apart."""
    if type(obj) is dict:
        value, unit = obj.get("value"), obj.get("unit", "")
        if type(value) in _NUMBER_TYPES and type(unit) is str and len(obj) == 1 + ("unit" in obj):
            return value if value else repr(value), unit
    return None


def _stabilization_key(obj):
    """As ``_quantity_key``, for a stabilization object: its mode, its
    duration's key and its signal, or None."""
    if type(obj) is dict and obj.keys() <= _STAB_FIELDS:
        mode, signal = obj.get("mode"), obj.get("signal")
        duration = _quantity_key(obj.get("duration"))
        if type(mode) is str and (signal is None or type(signal) is str) and duration is not None:
            return mode, duration, signal
    return None


_NUMBER_TYPES = (int, float)
_QUANTITY_FIELDS = frozenset({"value", "unit"})
_TOP_FIELDS = frozenset({"spec_id", "version", "resources", "steps", "metadata"})
_RESOURCE_FIELDS = frozenset({"name", "capability", "selector", "constraints"})
_STEP_FIELDS = frozenset(
    {"id", "binding", "op", "params", "depends_on", "stabilization", "repeat"}
)
_STAB_FIELDS = frozenset({"mode", "duration", "signal"})


def _parse_resource(obj, index: int) -> ResourceBinding:
    locus = f"resources[{index}]"
    _expect(obj, dict, locus, "resource binding")
    _check_no_unknown(obj, _RESOURCE_FIELDS, locus)
    name = _expect(_require(obj, "name", locus), str, locus, "binding name")
    capability = _expect(_require(obj, "capability", locus), str, locus, "capability")
    if not name:
        raise SpecSchemaError("bad_value", locus, "binding name is empty")
    selector = obj.get("selector")
    if selector is not None:
        _expect(selector, str, locus, "selector")
    constraints = obj.get("constraints", {})
    _expect(constraints, dict, locus, "constraints")
    for key, value in constraints.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecSchemaError("bad_type", locus, f"constraint {key!r} is not a number")
        if isinstance(value, float) and not math.isfinite(value):
            raise SpecSchemaError("bad_value", locus, f"constraint {key!r} is not finite")
    return ResourceBinding(
        binding_name=name,
        capability=capability,
        selector=selector,
        constraints=dict(constraints),
    )


def _parse_stabilization(obj, locus: str) -> StabilizationConstraint:
    _expect(obj, dict, locus, "stabilization")
    _check_no_unknown(obj, _STAB_FIELDS, locus)
    mode = _expect(_require(obj, "mode", locus), str, locus, "stabilization mode")
    if mode not in STABILIZATION_MODES:
        raise SpecSchemaError("bad_value", locus, f"unknown stabilization mode {mode!r}")
    duration = _parse_quantity(_require(obj, "duration", locus), locus + ".duration")
    try:
        seconds = to_canonical(duration)
    except UnitError as exc:
        raise SpecSchemaError("bad_unit", locus, str(exc)) from exc
    if seconds.unit != "s" or seconds.value < 0:
        raise SpecSchemaError("bad_value", locus, "duration must be a time >= 0")
    signal = obj.get("signal")
    if signal is not None:
        _expect(signal, str, locus, "signal")
    if mode == "setpoint_then_hold" and not signal:
        raise SpecSchemaError(
            "missing_field", locus, "setpoint_then_hold requires a signal name"
        )
    return StabilizationConstraint(mode=mode, duration=duration, signal=signal)


def _parse_step(obj, index: int, memo: tuple[dict, dict, dict], refusals: list) -> StepSpec:
    """One step of a document. ``memo`` is the document's: its quantities
    and stabilizations by key, and its params dicts by the identities of
    their quantities, so that equal ones, such as the instances of an
    expanded sweep, share one object.

    Each swept value is walked once, by ``_sweep_column``, which validates
    it, keys it and converts each distinct key; the step's ``columns`` are
    set from that walk. If its sweeps would expand to an invalid step, the
    walk's notes give the step's refusal, which goes to ``refusals`` for
    ``_check_sweeps`` to raise once every step is read:
    ``unknown_sweep_param`` at the first param, in ``repeat`` order, swept
    with a number it does not declare, else ``bad_value`` at the first
    instance, in row-major order, that holds a number that is not finite.
    That instance holds the first param whose first value is not finite,
    if there is one, and otherwise the first such value of the last param
    that has one, every other param at its first value."""
    quantities, stabilizations, configurations = memo
    locus = f"steps[{index}]"
    _expect(obj, dict, locus, "step")
    _check_no_unknown(obj, _STEP_FIELDS, locus)
    step_id = _expect(_require(obj, "id", locus), str, locus, "step id")
    if not step_id:
        raise SpecSchemaError("bad_value", locus, "step id is empty")
    locus = f"steps[{step_id}]"
    binding = _expect(_require(obj, "binding", locus), str, locus, "binding")
    op = _expect(_require(obj, "op", locus), str, locus, "op")
    raw_params = obj.get("params", {})
    _expect(raw_params, dict, locus, "params")
    params: dict[str, Quantity] = {}
    for pname, pval in raw_params.items():
        if not pname:
            raise SpecSchemaError("bad_value", locus, "empty param name")
        key = _quantity_key(pval)
        quantity = quantities.get(key)
        if quantity is None:
            quantity = _parse_quantity(pval, f"{locus}.params.{pname}")
            if key is not None:
                quantities[key] = quantity
        params[pname] = quantity
    params = configurations.setdefault(tuple(zip(params, map(id, params.values()))), params)
    depends_on = obj.get("depends_on", [])
    _expect(depends_on, list, locus, "depends_on")
    for dep in depends_on:
        _expect(dep, str, locus, "dependency id")
    stabilization = None
    raw_stabilization = obj.get("stabilization")
    if raw_stabilization is not None:
        key = _stabilization_key(raw_stabilization)
        stabilization = stabilizations.get(key)
        if stabilization is None:
            stabilization = _parse_stabilization(raw_stabilization, locus + ".stabilization")
            if key is not None:
                stabilizations[key] = stabilization
    repeat = columns = None
    if obj.get("repeat") is not None:
        raw_repeat = _expect(obj["repeat"], dict, locus, "repeat")
        repeat, columns, refused = {}, [], []
        for pname, values in raw_repeat.items():
            _expect(values, list, locus, "sweep values")
            if not values:
                raise SpecSchemaError("empty_sweep", locus, f"sweep {pname!r} has no values")
            column = _sweep_column(pname, values, params.get(pname), locus)
            if column[0] is None:
                refused.append((pname, column[1]))
            else:
                columns.append(column)
            repeat[pname] = tuple(values)
        if refused:
            unknown = [pname for pname, at in refused if at is None]
            if unknown:
                refusals.append(SpecSchemaError(
                    "unknown_sweep_param", locus, f"sweep over unknown parameter {unknown[0]!r}"))
            else:
                pname, at = next((note for note in refused if note[1] == 0), refused[-1])
                refusals.append(SpecSchemaError(
                    "bad_value", locus, f"sweep {pname!r} value {repeat[pname][at]!r} is not finite"))
    step = StepSpec(
        step_id=step_id,
        binding=binding,
        operation=op,
        params=params,
        depends_on=tuple(depends_on),
        stabilization=stabilization,
        repeat=repeat,
    )
    if columns is not None:
        step.__dict__["columns"] = columns  # not a field: out of equality and repr
    return step


def _dependency_cycle(steps: tuple[StepSpec, ...]) -> list[str] | None:
    """Return one cycle (as a list of step ids) if the dependency relation has one.

    A depth-first search from each step in id order, following dependencies
    in listed order. It keeps its own stack, so a chain of any length is
    searched without recursion.
    """
    adjacency = {s.step_id: s.depends_on for s in steps}
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(adjacency, WHITE)
    for root in sorted(adjacency):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path = [root]
        pending = [iter(adjacency[root])]  # the unvisited dependencies along the path
        while pending:
            for dep in pending[-1]:
                if color[dep] == GREY:
                    return path[path.index(dep):] + [dep]
                if color[dep] == WHITE:
                    color[dep] = GREY
                    path.append(dep)
                    pending.append(iter(adjacency[dep]))
                    break
            else:
                pending.pop()
                color[path.pop()] = BLACK
    return None


def validate_spec(spec: ExperimentSpec) -> None:
    """Enforce spec-level invariants; raises SpecSchemaError on violation."""
    binding_names = set()
    for r in spec.resources:
        if r.binding_name in binding_names:
            raise SpecSchemaError(
                "duplicate_id", r.binding_name, "duplicate binding name"
            )
        binding_names.add(r.binding_name)
    step_ids = set()
    for s in spec.steps:
        if s.step_id in step_ids:
            raise SpecSchemaError("duplicate_id", s.step_id, "duplicate step id")
        step_ids.add(s.step_id)
    for s in spec.steps:
        if s.binding not in binding_names:
            raise SpecSchemaError(
                "dangling_binding", s.step_id, f"undeclared binding {s.binding!r}"
            )
        for dep in s.depends_on:
            if dep not in step_ids:
                raise SpecSchemaError(
                    "dangling_dependency", s.step_id, f"unknown dependency {dep!r}"
                )
    cycle = _dependency_cycle(spec.steps)
    if cycle:
        raise SpecSchemaError(
            "dependency_cycle", cycle[0], "dependency cycle: " + " -> ".join(cycle)
        )


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and fully validate a spec document.

    Equal quantities and stabilizations of the document are decoded once
    and share one object, and so do steps' equal params dicts: the steps
    of an expanded sweep, as a run's ``spec.json`` holds them, then share
    their configurations as ``expand_sweeps`` makes them share, and the
    static check and lowering key on those objects.
    """
    try:
        if text.startswith("\ufeff"):  # ``json.loads`` checks this; ``decode`` does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise SpecSyntaxError("nested too deeply to decode", 1, 1) from exc
    _expect(doc, dict, "$", "document")
    _check_no_unknown(doc, _TOP_FIELDS, "$")
    spec_id = _expect(_require(doc, "spec_id", "$"), str, "$", "spec_id")
    if not spec_id:
        raise SpecSchemaError("bad_value", "$", "spec_id is empty")
    version = _expect(_require(doc, "version", "$"), str, "$", "version")
    if not _VERSION_RE.match(version):
        raise SpecSchemaError("bad_value", "$", f"not a semantic version: {version!r}")
    raw_resources = _expect(_require(doc, "resources", "$"), list, "$", "resources")
    raw_steps = _expect(_require(doc, "steps", "$"), list, "$", "steps")
    metadata = doc.get("metadata", {})
    _expect(metadata, dict, "$", "metadata")
    for key, value in metadata.items():
        _expect(value, str, "metadata", "metadata value")
    memo: tuple[dict, dict, dict] = ({}, {}, {})
    refusals: list[SpecSchemaError] = []
    spec = ExperimentSpec(
        spec_id=spec_id,
        version=version,
        resources=tuple(_parse_resource(r, i) for i, r in enumerate(raw_resources)),
        steps=tuple(_parse_step(s, i, memo, refusals) for i, s in enumerate(raw_steps)),
        metadata=dict(metadata),
    )
    validate_spec(spec)
    _check_sweeps(spec, refusals)
    return spec


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Canonical dict form; parse(serialize(spec)) == spec."""
    steps = []
    for s in spec.steps:
        obj: dict = {
            "id": s.step_id,
            "binding": s.binding,
            "op": s.operation,
            "params": {n: q.to_dict() for n, q in s.params.items()},
            "depends_on": list(s.depends_on),
        }
        if s.stabilization is not None:
            stab: dict = {
                "mode": s.stabilization.mode,
                "duration": s.stabilization.duration.to_dict(),
            }
            if s.stabilization.signal is not None:
                stab["signal"] = s.stabilization.signal
            obj["stabilization"] = stab
        if s.repeat is not None:
            obj["repeat"] = {n: list(v) for n, v in s.repeat.items()}
        steps.append(obj)
    resources = []
    for r in spec.resources:
        obj = {"name": r.binding_name, "capability": r.capability}
        if r.selector is not None:
            obj["selector"] = r.selector
        if r.constraints:
            obj["constraints"] = dict(r.constraints)
        resources.append(obj)
    return {
        "spec_id": spec.spec_id,
        "version": spec.version,
        "resources": resources,
        "steps": steps,
        "metadata": dict(spec.metadata),
    }


def serialize_spec(spec: ExperimentSpec) -> str:
    return canonical_json(spec_to_dict(spec))


def spec_hash(spec: ExperimentSpec) -> str:
    return sha256_hex(spec_to_dict(spec))


def instance_ids(step: StepSpec) -> list[str]:
    """The ids a step expands to: ``<step_id>#<k>`` for each combination of
    a swept step's values, in row-major order, and its own id otherwise."""
    if step.repeat is None:
        return [step.step_id]
    count = math.prod(len(values) for values in step.repeat.values())
    return [f"{step.step_id}#{k}" for k in range(count)]


def _check_sweeps(spec: ExperimentSpec, refusals: list[SpecSchemaError]) -> None:
    """Raise what expanding the sweeps of ``spec``, a validated spec, would
    raise, so that every spec ``parse_spec`` returns expands, checks and
    lowers.

    Each is a ``SpecSchemaError``. First the first of ``refusals``, the
    step refusals the parse walk made (``_parse_step``), at
    ``steps[<id>]``. Then ``duplicate_id`` at the first instance id that
    repeats, in expansion order.

    Of validate_spec's rules, an expansion can break only unique step ids:
    its bindings are the template's, which exist; every dependency is an
    instance of a template step; and with unique ids each expanded edge
    projects onto the template edge it was made from, so a cycle in the
    expansion would project onto one in the template, which has none. A
    spec without sweeps, such as an expansion, returns at once.
    """
    if refusals:
        raise refusals[0]
    # Every instance id holds a '#' after its template's id, and template
    # ids are unique, so two ids can be equal only if a template id has one.
    if all(step.repeat is None for step in spec.steps) or not any(
            "#" in step.step_id for step in spec.steps):
        return
    step_ids: set[str] = set()
    for step in spec.steps:
        for step_id in instance_ids(step):
            if step_id in step_ids:
                raise SpecSchemaError("duplicate_id", step_id, "duplicate step id")
            step_ids.add(step_id)


def _swept_params(step: StepSpec, quantities: list[Quantity]) -> dict[str, Quantity]:
    params = dict(step.params)
    params.update(zip(step.repeat, quantities))  # type: ignore[arg-type]
    return params


def step_instances(spec: ExperimentSpec):
    """Each step of ``spec`` with the ids of its instances and the
    dependencies of each instance, in expansion order: triples ``(step,
    ids, deps)``, ``deps[k]`` a tuple of instance ids for ``ids[k]``.

    Instance ids are those of ``instance_ids``. A dependency between two
    steps swept with identical shapes pairs up index-wise; otherwise every
    instance of the dependency is a predecessor. A step none of whose
    dependencies is swept keeps its own ``depends_on``; the lists must not
    be modified.
    """
    # Swept steps first: a step may depend on one listed after it.
    swept = {
        step.step_id: (instance_ids(step), tuple(map(len, step.repeat.values())))
        for step in spec.steps if step.repeat is not None
    }
    for step in spec.steps:
        ids, shape = swept.get(step.step_id, ([step.step_id], None))
        if not swept or not any(dep in swept for dep in step.depends_on):
            yield step, ids, [step.depends_on] * len(ids)
            continue
        deps = []
        for k in range(len(ids)):
            instance_deps: list[str] = []
            for dep in step.depends_on:
                if dep not in swept:
                    instance_deps.append(dep)
                elif swept[dep][1] == shape:
                    instance_deps.append(swept[dep][0][k])
                else:
                    instance_deps.extend(swept[dep][0])
            deps.append(tuple(instance_deps))
        yield step, ids, deps


def expand_sweeps(spec: ExperimentSpec) -> ExperimentSpec:
    """Replace every repeat clause with concrete per-value steps.

    ``spec`` is a spec as ``parse_spec`` returns it. Instance ids and
    dependencies are those of ``step_instances``. Instances with equal
    swept values share their params (``StepSpec.sweep``). Idempotent: a
    spec without repeat clauses is returned unchanged.
    ``compiler.compile_spec`` lowers a spec with its sweeps, so only a
    caller that needs the instance steps themselves, such as ``run``
    writing ``spec.json``, expands one.
    """
    if all(s.repeat is None for s in spec.steps):
        return spec
    new_steps: list[StepSpec] = []
    for step, ids, deps in step_instances(spec):
        distinct, which = ([step.params], [0]) if step.repeat is None else step.sweep
        for instance_id, index, instance_deps in zip(ids, which, deps):
            new_steps.append(
                StepSpec(
                    step_id=instance_id,
                    binding=step.binding,
                    operation=step.operation,
                    params=distinct[index],
                    depends_on=instance_deps,
                    stabilization=step.stabilization,
                )
            )
    return replace(spec, steps=tuple(new_steps))
