"""The eaclab benchmark: one workload per invocation, in a process of its own.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is built from ./src (its
modules are byte-compiled, as an installed package would be), set-up is
measured in PROBES short processes besides the workload process, and the
workload process runs the commands and checks them (see workload.py).
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics, end-to-end ones with --trace 0 and per-layer ones with
--trace 1. Exits non-zero, printing no result, when there is no program to
measure or the workload process fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD = HERE / "workload.py"
WORKLOADS = ("campaign_scale", "agent_ensemble", "fault_sweep")
PROBES = 5
DEADLINE_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.monotonic()

    package = Path.cwd() / "src" / "eaclab"
    if not (package / "__init__.py").is_file():
        print(f"no eaclab package under {package}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(package), quiet=1):
        print("byte-compiling src/eaclab failed", file=sys.stderr)
        return 2

    # A fixed hash seed takes the per-process variation of dict and set
    # layouts out of the timings; eaclab's outputs do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    setups, imports = [], []
    for _ in range(PROBES):
        probe = subprocess.run(
            [sys.executable, str(WORKLOAD), "--probe", "--workload", args.workload],
            capture_output=True, text=True, timeout=60, env=env)
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            return 1
        measured = json.loads(probe.stdout.splitlines()[-1])
        setups.append(measured["setup_s"])
        imports.append(measured["import_s"])

    remaining = DEADLINE_S - (time.monotonic() - began)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKLOAD), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=remaining, env=env)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish within {DEADLINE_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload {args.workload} exited {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    own = result.pop("setup")
    setups.append(own["setup_s"])
    imports.append(own["import_s"])
    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
