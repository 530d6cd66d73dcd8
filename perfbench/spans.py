"""Per-layer spans, recorded from outside the program.

``Tracer.install`` wraps public functions and methods of the ``eaclab``
modules. Several modules import functions by name (``from eaclab.compiler
import compile_spec``), so a function is replaced under every module
attribute that holds it, not only in its home module. Spans nest on one
stack (the program is single-threaded); a span's self time is its
duration minus the time of the spans it encloses. Spans are recorded only
while the tracer is active, so the benchmark's own calls into the program
(building reference DAGs, replaying logs for checks) are not counted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (home module, attribute, span name). Dotted attributes are methods.
SPANS = (
    ("compiler", "WorkflowDAG.predecessors", "compiler.adjacency"),
    ("compiler", "WorkflowDAG.successors", "compiler.adjacency"),
    ("compiler", "topo_order", "compiler.topo_order"),
    ("compiler", "compile_spec", "compiler.compile_spec"),
    ("compiler", "render_tree", "compiler.render_tree"),
    ("compiler", "static_check", "compiler.static_check"),
    ("scheduler", "schedule", "scheduler.schedule"),
    ("scheduler", "batch_compatible", "scheduler.batch_compatible"),
    ("scheduler", "resolve_bindings", "scheduler.resolve_bindings"),
    ("specmodel", "parse_spec", "specmodel.parse_spec"),
    ("specmodel", "expand_sweeps", "specmodel.expand_sweeps"),
    ("capabilities", "CapabilityRegistry.check_param_ranges", "capabilities.check_param_ranges"),
    ("capabilities", "registry_from_lab_config", "capabilities.registry"),
    ("labstate", "genesis_from_lab_config", "labstate.genesis"),
    ("labstate", "apply_event", "labstate.apply_event"),
    ("labstate", "replay", "labstate.replay"),
    ("labstate", "query_eligible", "labstate.query_eligible"),
    ("executor", "execute", "executor.execute"),
    ("executor", "resume", "executor.resume"),
    ("executor", "runtime_precheck", "executor.runtime_precheck"),
    ("shims", "encode_operation", "shims.encode_operation"),
    ("shims", "SimFleet.step", "shims.fleet_step"),
    ("canon", "canonical_json", "canon.canonical_json"),
    ("canon", "sha256_hex", "canon.sha256_hex"),
    ("cli", "main", "cli"),
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[int]] = []

    def wrap(self, span: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            children = [0]
            tracer._stack.append(children)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                tracer._stack.pop()
                tracer.self_ns[span] += elapsed - children[0]
                tracer.calls[span] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def install(self, hooks: dict) -> None:
        """Wrap every function in SPANS; ``hooks`` maps span name to an
        ``after(counts, args, result)`` callback that derives counters."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "eaclab" or name.startswith("eaclab.")]
        for home, attr, span in SPANS:
            module = sys.modules[f"eaclab.{home}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(span, getattr(cls, method), hooks.get(span)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original, hooks.get(span))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
