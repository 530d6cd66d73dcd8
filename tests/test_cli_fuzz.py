"""Exit-code contract under fuzzed argv: every command ends in 0, 2, 3 or 4
and never in a traceback, and a usage error (4) is one line on stderr.

Arguments are drawn over the five subcommands and their flags; file
arguments name a valid spec, malformed JSON, a spec holding a value it
refuses (an integer too large for a float, a number that is not finite, a
sweep over an undeclared param, a constraint that is not a number), drawn
bytes that are not UTF-8, a missing path, a directory, a lab with a
damaged ``sim`` section, or a run directory (completed, paused, or damaged
in one of several ways, some of them non-UTF-8 bytes).
Every example runs in this one process, so the parser that ``main`` builds
on its first call serves all of them.
"""

import itertools
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import CAMPAIGN_PATH, LAB_PATH, run_main, with_edit

EXIT_CODES = {0, 2, 3, 4}

# Damaged run directories: (file, rewrite of its text; None deletes it).
DAMAGE = {
    "checkpoint": ("checkpoint.json", lambda text: "not json"),
    "no-checkpoint-field": ("checkpoint.json", lambda text: '{"run_id": "r"}'),
    "no-spec": ("spec.json", None),
    "summary": ("result.json", lambda text: "[]"),
    "plan": ("plan.json", lambda text: '{"policy": "lifo"}'),
    "log": ("log.ndjson", lambda text: "garbage\n"),
    "log-index": ("log.ndjson", lambda text: text.replace('"index":', '"index":"x","i":')),
    "raw-spec": ("spec.json", lambda text: b"\xff\xfe" + text.encode("utf-8")),
    "raw-plan": ("plan.json", lambda text: text.encode("utf-8").replace(b"fill", b"f\xe9ll")),
    "raw-log": ("log.ndjson", lambda text: text.encode("utf-8") + b"\x80\n"),
}
# Labs whose pump_1 carries a damaged `sim` section.
SIM_DAMAGE = {
    "sim-seed": {"seed": "x"},
    "sim-section": [11],
    "sim-table": {"conductivity_table": {"0.43": "high"}},
    "sim-port": {"port_concentrations": {"1.5": 0.43}},
    "sim-tau": {"temperature_tau": -30.0},
    "sim-overflow": {"seed": 1e400},
    "sim-nan": {"temperature_setpoint": float("nan")},
}
# Reference campaigns with one value a validation failure: (path to the
# value, its new value). `select` is the first step, `valve` the second
# binding.
EDITED = {
    "huge-value": (("steps", 0, "params"), {"dest": {"value": 10**400}}),
    "huge-sweep": (("steps", 0, "repeat"), {"dest": [1, 2 * 10**400]}),
    "nan-value": (("steps", 0, "params"), {"dest": {"value": float("nan")}}),
    "nan-sweep": (("steps", 0, "repeat"), {"dest": [1, float("inf")]}),
    "unknown-sweep": (("steps", 0, "repeat"), {"port": [1, 2]}),
    "text-constraint": (("resources", 1, "constraints"), {"min_ports": "6"}),
}
# File contents that are not UTF-8: 0xfe never occurs in UTF-8 text.
RAW_BYTES = st.builds(
    lambda head, tail: head + b"\xfe" + tail, st.binary(max_size=32), st.binary(max_size=32)
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    paths = {
        "spec": str(CAMPAIGN_PATH),
        "lab": str(LAB_PATH),
        "malformed": str(base / "malformed.json"),
        "missing": str(base / "missing.json"),
        "directory": str(base),
        "inject": str(base / "inject.json"),
        "out": str(base / "runs"),
    }
    (base / "malformed.json").write_text('{"spec_id": ')
    for key, (path, value) in EDITED.items():
        spec = with_edit(json.loads(CAMPAIGN_PATH.read_text()), path, value)
        paths[key] = str(base / f"{key}.json")
        (base / f"{key}.json").write_text(json.dumps(spec))
    for key, sim in SIM_DAMAGE.items():
        lab = json.loads(LAB_PATH.read_text())
        lab["devices"][0]["sim"] = sim
        paths[key] = str(base / f"{key}.json")
        (base / f"{key}.json").write_text(json.dumps(lab))
    (base / "inject.json").write_text('{"5": "error"}')

    def run(name, *extra):
        out = base / name
        _, stdout, _ = run_main(
            ["run", paths["spec"], "--lab", paths["lab"], "--out", str(out), *extra]
        )
        return out / json.loads(stdout)["run_id"]

    paths["completed"] = str(run("completed"))
    paused = run("paused", "--inject", "timeout@5")
    paths["paused"] = str(paused)
    for key, (name, rewrite) in DAMAGE.items():
        damaged = base / f"damaged-{key}"
        shutil.copytree(paused, damaged)
        if rewrite is None:
            (damaged / name).unlink()
        else:
            content = rewrite((damaged / name).read_text())
            if isinstance(content, str):
                content = content.encode("utf-8")
            (damaged / name).write_bytes(content)
        paths[f"damaged-{key}"] = str(damaged)
    paths["fresh"] = itertools.count()
    paths["base"] = base
    return paths


INPUTS = ("spec", "malformed", "raw", "missing", "directory", *EDITED)
RUN_DIRS = ("completed", "paused", "missing", "spec", *(f"damaged-{k}" for k in DAMAGE))
# --lab is left out an eighth of the time (a usage error without EAC_LAB);
# "sim" names one of the SIM_DAMAGE labs.
LABS = st.sampled_from(["lab", "lab", "lab", "malformed", "raw", "missing", "sim", None])
FLAG_VALUES = {
    "--policy": st.sampled_from(["fifo", "batched", "lifo"]),
    "--seed": st.sampled_from(["0", "3", "-1", "x", str(2**63), "1" + "0" * 400]),
    "--inject": st.sampled_from(
        ["timeout@5", "implicit@20", "error@14,noliquid@9", "weird@@", "timeout@x",
         "=inject", "=malformed", "=raw", "=missing"]
    ),
    "--run": st.sampled_from(RUN_DIRS),
    "--clear": st.sampled_from(["pump_1", "valve_1", "pump_9", ""]),
}
SUBCOMMANDS = {
    "validate": (INPUTS, ()),
    "plan": (INPUTS, ("--policy",)),
    "run": (INPUTS, ("--policy", "--seed", "--inject")),
    "state": (None, ("--run",)),
    "resume": (RUN_DIRS, ("--clear",)),
}


def _path(files, key, data):
    if key == "paused":
        # resume completes a paused run, so each example gets its own copy.
        copy = files["base"] / f"paused-{next(files['fresh'])}"
        shutil.copytree(files["paused"], copy)
        return str(copy)
    if key == "raw":
        path = files["base"] / f"raw-{next(files['fresh'])}.json"
        path.write_bytes(data.draw(RAW_BYTES))
        return str(path)
    if key == "sim":
        return files[data.draw(st.sampled_from(sorted(SIM_DAMAGE)))]
    return files[key]


def _value(files, flag, drawn, data):
    if flag == "--inject":
        return _path(files, drawn[1:], data) if drawn.startswith("=") else drawn
    if flag == "--run":
        return _path(files, drawn, data)
    return drawn


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_exits_with_a_documented_code(files, data):
    command = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    positional, flags = SUBCOMMANDS[command]
    argv = [command]
    if positional is not None and data.draw(st.integers(0, 9)):
        argv.append(_path(files, data.draw(st.sampled_from(positional)), data))
    lab = data.draw(LABS)
    if lab is not None:
        argv += ["--lab", _path(files, lab, data)]
    if flags:
        for flag in data.draw(st.lists(st.sampled_from(flags), unique=True)):
            argv += [flag, _value(files, flag, data.draw(FLAG_VALUES[flag]), data)]
    if data.draw(st.integers(0, 19)) == 0:
        argv.append(data.draw(st.sampled_from(["--help", "--bogus", "extra"])))
    if command == "run":
        argv += ["--out", files["out"]]
    code, _, err = run_main(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 4:
        assert len(err.splitlines()) == 1, (argv, err)
