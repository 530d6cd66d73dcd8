"""Per-layer times of the campaign at several sweep lengths.

    python3 perfbench/scaling.py [N ...]      (default: 6 24 48 96)

Run from the root of a checkout. For each N it builds the Li2SO4 campaign
with all three sweeps lengthened to N points (as campaign_scale does) and
times each layer through its public call: static check + compile,
schedule with each policy, execute, and replay of the run's log. Each
figure is the median of REPEATS calls. Prints one JSON object per N.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import inputs

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from eaclab.capabilities import registry_from_lab_config  # noqa: E402
from eaclab.compiler import compile_spec, static_check  # noqa: E402
from eaclab.executor import execute  # noqa: E402
from eaclab.labstate import genesis_from_lab_config, replay  # noqa: E402
from eaclab.scheduler import schedule  # noqa: E402
from eaclab.shims import SimFleet  # noqa: E402
from eaclab.specmodel import expand_sweeps, parse_spec, spec_hash  # noqa: E402

REPEATS = 3


def timed(fn):
    samples, result = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def layers(n: int, lab: dict, base: dict) -> dict:
    registry, genesis = registry_from_lab_config(lab), genesis_from_lab_config(lab)
    doc = inputs.campaign_spec(base, lab, [i % 6 + 1 for i in range(n)], [0.7] * n, 4.0,
                               f"campaign-{n}")
    spec = expand_sweeps(parse_spec(json.dumps(doc)))

    def check_compile():
        static_check(spec, registry, genesis)
        return compile_spec(spec, registry, genesis)

    compile_s, dag = timed(check_compile)
    fifo_s, _ = timed(lambda: schedule(dag, genesis, registry, policy="fifo"))
    batched_s, plan = timed(lambda: schedule(dag, genesis, registry, policy="batched"))
    execute_s, result = timed(lambda: execute(
        plan, dag, genesis, registry, SimFleet.from_lab_config(lab),
        run_id="scaling", spec_hash=spec_hash(spec)))
    replay_s, _ = timed(lambda: replay(genesis, result.log))
    return {"n": n, "nodes": len(dag.nodes), "edges": len(dag.edges),
            "check_compile_s": compile_s, "schedule_fifo_s": fifo_s,
            "schedule_batched_s": batched_s, "execute_s": execute_s, "replay_s": replay_s}


def main() -> int:
    lab = json.loads((ROOT / "configs" / "reference_lab.json").read_text())
    base = json.loads((ROOT / "configs" / "li2so4_campaign.json").read_text())
    for n in [int(a) for a in sys.argv[1:]] or [6, 24, 48, 96]:
        print(json.dumps(layers(n, lab, base)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
