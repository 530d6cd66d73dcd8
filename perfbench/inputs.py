"""Seeded inputs for the three workloads.

Every generator is a pure function of its seed: the same seed gives the
same specs, the same lab config and the same fault schedule. The seed
changes values (ports, volumes, temperatures, dependencies, injection
points) but never the number or the kind of operations in a round, so
that per-round work, and the share of failed operations, is the same on
every seed.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

CAMPAIGN_POINTS = 48
ENSEMBLE_SPECS = 200
# Every INJECT_EVERY-th accepted ensemble spec is also run with an injected
# pause and resumed.
INJECT_EVERY = 6

FAULT_KINDS = ("timeout", "error", "noliquid", "implicit")
# The reference campaign's dispatch count: 30 operations and 6 stabilize waits.
REFERENCE_DISPATCHES = 36

# Planted violations, in the order the ensemble generator cycles through them.
VIOLATIONS = (
    "out_of_range",
    "safety_violation",
    "unknown_operation",
    "unknown_capability",
    "unsatisfiable_binding",
    "dependency_cycle",
)

# The custom capability of the ensemble lab: a temperature-controlled cell
# with modes T<kelvin>, warmup/cooldown latencies and a <= safety envelope
# that sits inside the parameter range, so a spec can pass the range check
# and still fail the safety check.
TCELL = {
    "operations": {
        "scan": {
            "params": {"temperature": {"unit": "K", "min": 250, "max": 400}},
            "kind": "read",
        }
    },
    "safety": {
        "conditions": [
            {
                "field": "temperature",
                "comparator": "<=",
                "threshold": {"value": 360, "unit": "K"},
            }
        ]
    },
    "transitions": {
        "warmup": 20,
        "cooldown": 45,
        "reconfigure": {"T298->T310": 12, "T310->T298": 30},
    },
}
TCELL_DEVICES = ("tcell_1", "tcell_2")
SCAN_TEMPERATURES = (298, 310, 330)


def port_concentrations(lab: dict) -> dict[int, float]:
    for entry in lab["devices"]:
        ports = entry.get("sim", {}).get("port_concentrations")
        if ports:
            return {int(k): float(v) for k, v in ports.items()}
    raise ValueError("lab config has no valve with port concentrations")


def campaign_spec(base: dict, lab: dict, ports: list[int], volumes: list[float],
                  flow_rate: float, spec_id: str) -> dict:
    """The Li2SO4 campaign with its three sweeps set to the given points.

    Each concentration annotation is the concentration of the vial behind
    the port the same sweep index selects.
    """
    vials = port_concentrations(lab)
    spec = copy.deepcopy(base)
    spec["spec_id"] = spec_id
    select, fill, measure = spec["steps"]
    select["repeat"] = {"dest": list(ports)}
    fill["params"]["flow_rate"]["value"] = flow_rate
    fill["repeat"] = {"volume": list(volumes)}
    measure["repeat"] = {"concentration": [vials[p] for p in ports]}
    return spec


def campaign_scale(base: dict, lab: dict) -> dict:
    """campaign_scale: the campaign lengthened to CAMPAIGN_POINTS points.

    Ports cycle 1..6 and every fill keeps the reference 0.7 mL: with fills
    of different lengths the batched plan reorders them, and the simulated
    fluid path then pairs each measurement with another vial (see the
    README). The seed picks the injected fill and the simulator seed.
    """
    n = CAMPAIGN_POINTS
    ports = [i % 6 + 1 for i in range(n)]
    return campaign_spec(base, lab, ports, [0.7] * n, 4.0, f"campaign-scale-{n}")


def ensemble_lab(lab: dict) -> dict:
    """The reference lab plus two temperature cells of a custom capability."""
    extended = copy.deepcopy(lab)
    for device_id in TCELL_DEVICES:
        extended["devices"].append(
            {
                "device_id": device_id,
                "capability": "tcell",
                "status": "idle",
                "last_calibrated": 0.0,
                "mode": "T298",
            }
        )
    extended.setdefault("capabilities", {})["tcell"] = copy.deepcopy(TCELL)
    return extended


def _scan_spec(rng: random.Random, n_steps: int, spec_id: str) -> dict:
    steps = []
    for j in range(n_steps):
        deps = sorted(rng.sample(range(j), k=min(j, rng.randint(0, 2))))
        steps.append(
            {
                "id": f"scan{j}",
                "binding": rng.choice(("a", "b")),
                "op": "scan",
                "params": {
                    "temperature": {"value": rng.choice(SCAN_TEMPERATURES), "unit": "K"}
                },
                "depends_on": [f"scan{d}" for d in deps],
            }
        )
    return {
        "spec_id": spec_id,
        "version": "1.0.0",
        "resources": [
            {"name": "a", "capability": "tcell", "selector": TCELL_DEVICES[0]},
            {"name": "b", "capability": "tcell", "selector": TCELL_DEVICES[1]},
        ],
        "steps": steps,
    }


def _plant(spec: dict, code: str, rng: random.Random) -> None:
    """Plant exactly one violation that static checking reports as ``code``."""
    steps = spec["steps"]
    is_scan = steps[0]["op"] == "scan"
    if code == "out_of_range":
        if is_scan:
            step = rng.choice(steps)
            step["params"]["temperature"]["value"] = 240
        else:
            volumes = steps[1]["repeat"]["volume"]
            volumes[rng.randrange(len(volumes))] = 75.0
    elif code == "safety_violation":
        rng.choice(steps)["params"]["temperature"]["value"] = 370
    elif code == "unknown_operation":
        rng.choice(steps)["op"] = "aspirate"
    elif code == "unknown_capability":
        rng.choice(spec["resources"])["capability"] = "centrifuge"
    elif code == "unsatisfiable_binding":
        resource = rng.choice(spec["resources"])
        resource["selector"] = f"{resource['capability']}_9"
    elif code == "dependency_cycle":
        first, second = steps[0], steps[1]
        second["depends_on"] = sorted(set(second.get("depends_on", [])) | {first["id"]})
        first["depends_on"] = [second["id"]]
    else:
        raise ValueError(code)


def agent_ensemble(seed: int, base: dict, lab: dict) -> list[tuple[dict, str | None]]:
    """agent_ensemble: ENSEMBLE_SPECS small distinct specs and their verdicts.

    Returns (spec document, expected diagnostic code or None). When i is
    even, spec i is a campaign variant with 1 + (i//2) % 8 points, random
    ports, and one random volume and flow rate for all its fills (for the
    reason given at campaign_scale). When i is odd, it is a scan spec with
    2 + (i//2) % 7 steps over two cells. Every fifth spec (i % 5 == 4)
    carries one planted violation, cycling through VIOLATIONS. A safety
    violation needs the cell's envelope, so those specs are always scan
    specs.
    """
    rng = random.Random(seed)
    vials = sorted(port_concentrations(lab))
    out: list[tuple[dict, str | None]] = []
    for i in range(ENSEMBLE_SPECS):
        code = VIOLATIONS[(i // 5) % len(VIOLATIONS)] if i % 5 == 4 else None
        spec_id = f"agent-{seed}-{i:03d}"
        if i % 2 == 1 or code == "safety_violation":
            spec = _scan_spec(rng, 2 + (i // 2) % 7, spec_id)
        else:
            n = 1 + (i // 2) % 8
            ports = [rng.choice(vials) for _ in range(n)]
            volume = round(rng.uniform(0.1, 2.0), 2)
            flow = round(rng.uniform(1.0, 8.0), 1)
            spec = campaign_spec(base, lab, ports, [volume] * n, flow, spec_id)
            hold = rng.randint(2, 8)
            spec["steps"][2]["stabilization"]["duration"]["value"] = hold
        if code is not None:
            _plant(spec, code, rng)
        out.append((spec, code))
    return out


def fault_sweep(seed: int) -> list[tuple[str, int]]:
    """fault_sweep: every fault kind at every dispatch index, seeded order."""
    ops = [(kind, k) for kind in FAULT_KINDS for k in range(1, REFERENCE_DISPATCHES + 1)]
    random.Random(seed).shuffle(ops)
    return ops


def write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
