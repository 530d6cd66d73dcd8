import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from eaclab import cli, compiler, scheduler, specmodel
from eaclab.canon import canonical_json
from eaclab.capabilities import ParamSchema, schema_from_dict
from eaclab.cli import main
from eaclab.compiler import compile_spec, render_tree, static_check
from eaclab.labstate import snapshot
from eaclab.scheduler import Checkpoint, schedule
from eaclab.shims import SimDeviceConfig
from eaclab.specmodel import expand_sweeps, parse_spec

from conftest import (
    BAD_TCELL, CAMPAIGN_PATH, LAB_PATH, SAFE_TCELL, SCAN_SPEC, TCELL, run_main, tcell_lab,
    with_edit,
)
from workloads import campaign_doc, static_check_per_step

LAB = str(LAB_PATH)
SPEC = str(CAMPAIGN_PATH)


def test_validate_ok(capsys):
    assert main(["validate", SPEC, "--lab", LAB]) == 0


def test_validate_searches_for_dependency_cycles_once(monkeypatch):
    """On the template, in ``parse_spec``: neither the expansion nor the
    static check searches again."""
    calls = []
    search = specmodel._dependency_cycle

    def counted_search(steps):
        calls.append(len(steps))
        return search(steps)

    monkeypatch.setattr(specmodel, "_dependency_cycle", counted_search)
    # Counted too if the compiler imports the search again.
    monkeypatch.setattr(compiler, "_dependency_cycle", counted_search, raising=False)
    assert run_main(["validate", SPEC, "--lab", LAB]) == (0, "", "")
    assert calls == [3]


def _chain_doc(n: int, closed: bool = False) -> dict:
    """``s00000`` depends on ``s00001``, which depends on ``s00002``, and so
    on: a chain ``n`` steps deep, which ``closed`` turns into a cycle."""
    ids = [f"s{i:05d}" for i in range(n)]
    after = ids[1:] + (ids[:1] if closed else [None])
    return {"spec_id": "chain", "version": "1.0.0",
            "resources": [{"name": "p", "capability": "pump"}],
            "steps": [{"id": sid, "binding": "p", "op": "stop",
                       "depends_on": [dep] if dep else []} for sid, dep in zip(ids, after)]}


def test_a_deep_dependency_chain_is_checked_and_planned(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain_doc(5000)))
    assert run_main(["validate", str(path), "--lab", LAB]) == (0, "", "")
    code, out, _ = run_main(["plan", str(path), "--lab", LAB])
    assert code == 0
    assert len(json.loads(out)["assignments"]) == 5002  # and connect, teardown


def test_the_plan_tree_of_a_deep_chain_has_a_constant_size_per_node(tmp_path):
    """Each node's depth is written as a number, not as indentation."""
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain_doc(2000)))
    code, _, err = run_main(["plan", str(path), "--lab", LAB])
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 2002
    assert lines[0] == "0 connect:p [connect] p.connect"
    assert lines[1] == "1 s01999 [action] p.stop"
    assert lines[-1] == "2001 teardown:p [teardown] p.disconnect"
    assert len(err.encode("utf-8")) <= 40 * len(lines)


@pytest.mark.parametrize("command", ["validate", "plan"])
def test_a_deep_dependency_cycle_is_one_diagnostic(tmp_path, command):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_chain_doc(5000, closed=True)))
    cycle = " -> ".join(f"s{i:05d}" for i in [*range(5000), 0])
    assert run_main([command, str(path), "--lab", LAB]) == (
        2, "", f"dependency_cycle error s00000: dependency_cycle at s00000: "
               f"dependency cycle: {cycle}\n")


def test_validate_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(CAMPAIGN_PATH.read_text())
    doc["steps"][1]["params"]["flow_rate"]["value"] = 99.0
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad), "--lab", LAB]) == 2
    err = capsys.readouterr().err
    assert "out_of_range" in err


REFERENCE = json.loads(CAMPAIGN_PATH.read_text())
_SELECT = next(i for i, step in enumerate(REFERENCE["steps"]) if step["id"] == "select")
HUGE = {
    "value": (("steps", _SELECT, "params", "dest", "value"), 10**400,
              "bad_value error steps[select].params.dest: bad_value at steps[select].params.dest: "
              "quantity value is too large for a float\n"),
    "sweep": (("steps", _SELECT, "repeat", "dest", 1), 2 * 10**400,
              "bad_value error steps[select]: bad_value at steps[select]: "
              "sweep 'dest' value is too large for a float\n"),
}


@pytest.mark.parametrize("command", ["validate", "plan", "run"])
@pytest.mark.parametrize("where", sorted(HUGE))
def test_an_integer_too_large_for_a_float_is_a_diagnostic(tmp_path, command, where):
    path, value, line = HUGE[where]
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(with_edit(REFERENCE, path, value)))
    out = ["--out", str(tmp_path / "runs")] if command == "run" else []
    assert run_main([command, str(spec), "--lab", LAB, *out]) == (2, "", line)


_VALVE = next(i for i, binding in enumerate(REFERENCE["resources"]) if binding["name"] == "valve")
NAN = float("nan")
MALFORMED = {
    "constraint-text": (("resources", _VALVE, "constraints", "min_ports"), "6",
                        "bad_type error resources[1]: bad_type at resources[1]: "
                        "constraint 'min_ports' is not a number\n"),
    "constraint-bool": (("resources", _VALVE, "constraints", "min_ports"), True,
                        "bad_type error resources[1]: bad_type at resources[1]: "
                        "constraint 'min_ports' is not a number\n"),
    "constraint-nan": (("resources", _VALVE, "constraints", "min_ports"), NAN,
                       "bad_value error resources[1]: bad_value at resources[1]: "
                       "constraint 'min_ports' is not finite\n"),
    "value-nan": (("steps", _SELECT, "params", "dest", "value"), NAN,
                  "bad_value error steps[select].params.dest: bad_value at steps[select].params.dest: "
                  "quantity value nan is not finite\n"),
    "sweep-nan": (("steps", _SELECT, "repeat", "dest", 1), NAN,
                  "bad_value error steps[select]: bad_value at steps[select]: "
                  "sweep 'dest' value nan is not finite\n"),
    "sweep-unknown": (("steps", _SELECT, "repeat"), {"port": [1, 2]},
                      "unknown_sweep_param error steps[select]: unknown_sweep_param at steps[select]: "
                      "sweep over unknown parameter 'port'\n"),
}


@pytest.mark.parametrize("command", ["validate", "plan", "run"])
@pytest.mark.parametrize("where", sorted(MALFORMED))
def test_a_malformed_number_or_sweep_is_one_diagnostic(tmp_path, command, where):
    path, value, line = MALFORMED[where]
    spec = tmp_path / "malformed.json"
    spec.write_text(json.dumps(with_edit(REFERENCE, path, value)))
    out = ["--out", str(tmp_path / "runs")] if command == "run" else []
    assert run_main([command, str(spec), "--lab", LAB, *out]) == (2, "", line)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("seed", [2**63, -2**63 - 1, 10**400], ids=["2**63", "-2**63-1", "10**400"])
def test_a_seed_beyond_64_bits_is_refused_before_the_run(tmp_path, seed):
    out = tmp_path / "runs"
    assert run_main(["run", SPEC, "--lab", LAB, f"--seed={seed}", "--out", str(out)]) == (
        4, "", "usage error: --seed must lie in the signed 64-bit range "
               "-9223372036854775808..9223372036854775807\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**63 - 1, -2**63])
def test_a_seed_at_either_end_of_64_bits_runs(tmp_path, seed):
    code, out, _ = run_main(["run", SPEC, "--lab", LAB, f"--seed={seed}", "--out", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["run_id"].endswith(f"-s{seed}")


def test_a_spec_that_starts_with_a_byte_order_mark_keeps_its_diagnostic(tmp_path, capsys):
    """``parse_spec`` decodes with one decoder built at import, whose
    ``decode`` does not make ``json.loads``' check for a leading BOM."""
    spec = tmp_path / "bom.json"
    spec.write_bytes(b"\xef\xbb\xbf" + CAMPAIGN_PATH.read_bytes())
    for command in ("validate", "plan"):
        assert main([command, str(spec), "--lab", LAB]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "syntax error 1:1: Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1, column 1)\n"
        )


def test_validate_reports_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad), "--lab", LAB]) == 2
    assert "syntax" in capsys.readouterr().err


def test_missing_lab_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("EAC_LAB", raising=False)
    assert main(["validate", SPEC]) == 4


def test_lab_from_environment(monkeypatch):
    monkeypatch.setenv("EAC_LAB", LAB)
    assert main(["validate", SPEC]) == 0


def test_unknown_subcommand_is_usage_error():
    assert main(["explode"]) == 4


def test_plan_outputs_machine_json(capsys):
    assert main(["plan", SPEC, "--lab", LAB, "--policy", "fifo"]) == 0
    captured = capsys.readouterr()
    plan = json.loads(captured.out)
    assert plan["policy"] == "fifo"
    assert plan["makespan"] > 0
    assert captured.err  # human-readable tree on stderr


def test_state_lists_devices(capsys):
    assert main(["state", "--lab", LAB]) == 0
    table = json.loads(capsys.readouterr().out)
    assert {row["device_id"] for row in table} >= {"pump_1", "valve_1", "pstat_1"}
    assert all(row["status"] == "idle" for row in table)


def _run_clean(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["run", SPEC, "--lab", LAB, "--out", str(out)])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, out / summary["run_id"], summary


def test_run_writes_artifacts(tmp_path, capsys):
    code, run_dir, summary = _run_clean(tmp_path, capsys)
    assert code == 0
    assert summary["status"] == "completed"
    assert summary["telemetry_count"] == 6
    for name in (
        "log.ndjson", "telemetry.ndjson", "wire.ndjson",
        "plan.json", "spec.json", "snapshot.json", "result.json", "telemetry.csv",
    ):
        assert (run_dir / name).exists(), name
    assert not (run_dir / "checkpoint.json").exists()
    telemetry = [
        json.loads(line)
        for line in (run_dir / "telemetry.ndjson").read_text().splitlines()
    ]
    assert len(telemetry) == 6
    assert all(t["spec_hash"] == summary["spec_hash"] for t in telemetry)


def _fill_dispatch_index(run_dir):
    for line in (run_dir / "log.ndjson").read_text().splitlines():
        event = json.loads(line)
        if event["kind"] == "dispatch" and event["payload"].get("node_id") == "fill#0":
            return event["payload"]["index"]
    raise AssertionError("fill#0 never dispatched")


def test_fault_pause_and_resume_via_cli(tmp_path, capsys):
    _, clean_dir, _ = _run_clean(tmp_path, capsys)
    index = _fill_dispatch_index(clean_dir)

    out = tmp_path / "faulted"
    code = main(
        ["run", SPEC, "--lab", LAB, "--out", str(out),
         "--inject", f"timeout@{index}"]
    )
    captured = capsys.readouterr()
    assert code == 3
    summary = json.loads(captured.out.strip().splitlines()[-1])
    assert summary["status"] == "paused"
    run_dir = out / summary["run_id"]
    assert (run_dir / "checkpoint.json").exists()

    # state --run reflects the faulted pump.
    assert main(["state", "--lab", LAB, "--run", str(run_dir)]) == 0
    table = json.loads(capsys.readouterr().out)
    status = {row["device_id"]: row["status"] for row in table}
    assert status["pump_1"] == "fault"

    # Resume without clearing stays blocked.
    assert main(["resume", str(run_dir), "--lab", LAB]) == 3
    capsys.readouterr()

    code = main(["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out.strip().splitlines()[-1])
    assert summary["status"] == "completed"
    assert not (run_dir / "checkpoint.json").exists()
    telemetry = (run_dir / "telemetry.ndjson").read_text().splitlines()
    assert len(telemetry) == 6
    # Resumed telemetry matches the fault-free baseline element-wise.
    baseline = (clean_dir / "telemetry.ndjson").read_text().splitlines()
    got = [json.loads(line)["fields"] for line in telemetry]
    want = [json.loads(line)["fields"] for line in baseline]
    assert got == want


@pytest.mark.parametrize("policy", ["fifo", "batched"])
def test_resumed_run_completes_the_telemetry_csv(tmp_path, capsys, policy):
    """A paused run's resume appends its rows to ``telemetry.csv``, without a
    second header, so the CSV equals the fault-free run's."""
    common = ["--lab", LAB, "--policy", policy]
    assert main(["run", SPEC, *common, "--out", str(tmp_path / "clean")]) == 0
    clean_dir = tmp_path / "clean" / json.loads(capsys.readouterr().out)["run_id"]
    out = tmp_path / "paused"
    assert main(["run", SPEC, *common, "--out", str(out), "--inject", "timeout@5"]) == 3
    run_dir = out / json.loads(capsys.readouterr().out)["run_id"]
    assert main(["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"]) == 0
    clean_csv = (clean_dir / "telemetry.csv").read_bytes()
    assert len(clean_csv.splitlines()) == 7
    assert (run_dir / "telemetry.csv").read_bytes() == clean_csv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["run"],
        ["explode"],
        ["plan", SPEC, "--policy", "bogus"],
        ["validate", SPEC, "--bogus"],
        ["run", SPEC, "--seed", "x"],
        ["validate", SPEC, "extra"],
        ["validate", SPEC, "two\nlines"],
    ],
)
def test_command_line_error_is_one_usage_line(capsys, argv):
    """No usage text is printed: the error is one line, exit 4."""
    _usage_error(capsys, argv)


@pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"]])
def test_help_prints_usage_on_stdout(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: eaclab")
    assert captured.err == ""


@pytest.mark.parametrize("inject, entry", [
    pytest.param(inject, entry, id=inject) for inject, entry in [
        ("weird@@", "weird@@"),
        ("error@5,timeout@5", "timeout@5: another entry names dispatch 5"),
        ("error@5,error@05", "error@05: another entry names dispatch 5"),
        ("error@\u0663", "error@\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("error@\uff15", "error@\uff15"),  # FULLWIDTH DIGIT FIVE
    ]
])
def test_bad_inject_argument_is_usage_error(tmp_path, capsys, inject, entry):
    """Each entry names a dispatch in ASCII digits, and no dispatch twice."""
    err = _usage_error(
        capsys, ["run", SPEC, "--lab", LAB, "--out", str(tmp_path), "--inject", inject]
    )
    assert err == f"usage error: bad --inject entry {entry}\n"
    assert os.listdir(tmp_path) == []


def _usage_error(capsys, argv):
    """Run argv; assert exit 4 with a single usage-error line and no stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert len(captured.err.strip().splitlines()) == 1
    return captured.err


@pytest.mark.parametrize(
    "content",
    ['{"x": "error"}', '{"5": "melt"}', '{"5": 3}', '[5, "error"]', '"error@5"', "not json",
     '{"5": "error", "05": "timeout"}', '{"5": "error", "5": "timeout"}',
     '{"5": "error", "5": "error"}', '{"\\u0663": "error"}', '[["5", "error"]]'],
)
def test_bad_inject_file_is_usage_error(tmp_path, capsys, content):
    inject = tmp_path / "inject.json"
    inject.write_text(content)
    _usage_error(
        capsys, ["run", SPEC, "--lab", LAB, "--out", str(tmp_path), "--inject", str(inject)]
    )
    assert os.listdir(tmp_path) == ["inject.json"]


def test_a_run_that_cannot_keep_its_record_dispatches_nothing(tmp_path, capsys, monkeypatch):
    """The run directory is made before the executor runs: with ``--out``
    an existing file, the run stops at one usage line and no device acts."""
    from eaclab import executor

    def refused(*args, **kwargs):
        raise AssertionError("execute called")

    monkeypatch.setattr(executor, "execute", refused)
    taken = tmp_path / "taken"
    taken.write_text("")
    err = _usage_error(capsys, ["run", SPEC, "--lab", LAB, "--out", str(taken)])
    assert err.startswith("usage error: [Errno 20] Not a directory: ")
    assert os.listdir(tmp_path) == ["taken"]


@pytest.mark.parametrize("fill_ml", [0.5, None])
def test_a_run_builds_and_parses_each_distinct_frame_once(tmp_path, monkeypatch, fill_ml):
    """The executor encodes each distinct (operation, device, params) once
    per run, and the fleet decodes each distinct frame once, so the counts
    do not grow with the sweeps as the dispatches do (36 at 6 points, 246
    at 48)."""
    from eaclab import executor, shims

    calls = {"encode": 0, "decode": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(executor, "encode_operation",
                        counted("encode", executor.encode_operation))
    monkeypatch.setattr(shims, "decode_operation", counted("decode", shims.decode_operation))
    counts = []
    for n in (6, 48):
        spec = tmp_path / f"campaign-{n}.json"
        spec.write_text(json.dumps(campaign_doc(n, fill_ml)))
        code, out, _ = run_main(["run", str(spec), "--lab", LAB, "--out", str(tmp_path)])
        assert code == 0
        counts.append(dict(calls))
        calls.update(encode=0, decode=0)
    assert counts[0] == counts[1]
    # At 0.5 mL every fill is one frame; fills of six volumes are six.
    assert counts[0] == ({"encode": 25, "decode": 15} if fill_ml else {"encode": 30, "decode": 20})


def test_inject_file_schedules_a_fault(tmp_path, capsys):
    inject = tmp_path / "inject.json"
    inject.write_text('{"5": "error"}')
    code = main(["run", SPEC, "--lab", LAB, "--out", str(tmp_path), "--inject", str(inject)])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "paused"


def _node_at(run_dir, index):
    for line in (run_dir / "log.ndjson").read_text().splitlines():
        event = json.loads(line)
        if event["kind"] == "dispatch" and event["payload"]["index"] == index:
            return event["payload"]["node_id"]
    raise AssertionError(f"no dispatch {index}")


def _stabilize_index(run_dir):
    for line in (run_dir / "log.ndjson").read_text().splitlines():
        event = json.loads(line)
        if event["kind"] == "dispatch" and "frame" not in event["payload"]:
            return event["payload"]["index"]
    raise AssertionError("no stabilize wait dispatched")


def test_inject_without_target_says_so_on_stderr(tmp_path, capsys):
    _, clean_dir, clean = _run_clean(tmp_path, capsys)
    wait = _stabilize_index(clean_dir)
    out = tmp_path / "missed"
    code = main(
        ["run", SPEC, "--lab", LAB, "--out", str(out), "--inject", f"error@{wait},error@999"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == clean
    assert captured.err == (
        f"nothing injected at dispatch {wait}, 999: "
        "no operation dispatch carries that index\n"
    )


def test_an_injection_past_the_dispatch_a_run_stopped_at_says_so(tmp_path, capsys):
    """A paused run never reaches its later dispatches, which a full run
    makes: their line says the run stopped, not that no dispatch carries
    the index. A stabilize wait before the pause keeps its own line."""
    _, clean_dir, _ = _run_clean(tmp_path, capsys)
    wait = _stabilize_index(clean_dir)
    out = tmp_path / "stopped"
    code = main(
        ["run", SPEC, "--lab", LAB, "--out", str(out),
         "--inject", f"error@{wait},error@{wait + 1},error@{wait + 4},error@999"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["status"] == "paused"
    assert captured.err == (
        f"nothing injected at dispatch {wait}: no operation dispatch carries that index\n"
        f"nothing injected at dispatch {wait + 4}, 999: the run stopped at dispatch {wait + 1}\n"
        f"fault device_error at {_node_at(clean_dir, wait + 1)}: "
        f"injected at dispatch {wait + 1}\n"
    )


def _paused_run(tmp_path, capsys):
    out = tmp_path / "paused"
    assert main(["run", SPEC, "--lab", LAB, "--out", str(out), "--inject", "error@5"]) == 3
    summary = json.loads(capsys.readouterr().out)
    return out / summary["run_id"]


# An edit that deletes the key it names.
MISSING = object()


def _damage(path, content):
    """Delete the file (``content`` None), write ``content`` over it, or set
    the keys of the dict ``content`` in its JSON object."""
    if content is None:
        path.unlink()
    elif isinstance(content, dict):
        doc = {**json.loads(path.read_text()), **content}
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not MISSING}))
    else:
        path.write_text(content)


@pytest.mark.parametrize(
    "name, content",
    [
        ("checkpoint.json", "not json"),
        ("checkpoint.json", '{"run_id": "r"}'),
        ("checkpoint.json", None),
        ("spec.json", "{"),
        ("spec.json", None),
        ("result.json", "[]"),
        ("result.json", "{}"),
        ("plan.json", '{"policy": "lifo"}'),
        ("plan.json", None),
        ("log.ndjson", "garbage\n"),
        ("log.ndjson", None),
        ("log.ndjson", '{"seq":0,"time":0,"device_id":"","kind":"dispatch","payload":{"index":"x"}}'),
        pytest.param("checkpoint.json", {"run_id": 123}, id="checkpoint.json-run_id=123"),
        pytest.param("checkpoint.json", {"state_epoch": "15"}, id="checkpoint.json-state_epoch='15'"),
        pytest.param("checkpoint.json", {"last_committed_node": 5},
                     id="checkpoint.json-last_committed_node=5"),
        pytest.param("result.json", {"seed": MISSING}, id="result.json-no seed"),
    ],
)
def test_resume_on_damaged_run_dir_is_usage_error(tmp_path, capsys, name, content):
    run_dir = _paused_run(tmp_path, capsys)
    _damage(run_dir / name, content)
    before = _dir_bytes(run_dir)
    _usage_error(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
    assert _dir_bytes(run_dir) == before


def _joined(lines, i):
    """Lines ``i`` and ``i + 1`` written as one line."""
    return [*lines[:i], lines[i] + lines[i + 1], *lines[i + 2:]]


def _split(lines, i):
    """Line ``i`` split in two after its first comma."""
    cut = lines[i].index(",") + 1
    return [*lines[:i], lines[i][:cut], lines[i][cut:], *lines[i + 1:]]


def _edited(lines, i, edit):
    return [*lines[:i], edit(lines[i]), *lines[i + 1:]]


def _extra_data(line):
    return f"JSONDecodeError: Extra data: line 1 column {len(line) + 1} (char {len(line)})"


def _no_property_name(line):
    cut = line.index(",") + 1
    return ("JSONDecodeError: Expecting property name enclosed in double quotes: "
            f"line 1 column {cut + 1} (char {cut})")


# A paused run's event log edited, and the damage ``state --run`` and
# ``resume`` name for it: the first damaged line's, or None when the edit
# leaves a log that reads as the original.
@pytest.mark.parametrize(
    "edit, named",
    [
        pytest.param(lambda lines: _joined(lines, 3), lambda lines: _extra_data(lines[3]),
                     id="two events on one line"),
        pytest.param(lambda lines: _split(lines, 3), lambda lines: _no_property_name(lines[3]),
                     id="one event over two lines"),
        pytest.param(lambda lines: _split(_joined(lines, 3), 5),
                     lambda lines: _extra_data(lines[3]),
                     id="as many lines as events, joined before split"),
        pytest.param(lambda lines: _joined(_split(lines, 3), 5),
                     lambda lines: _no_property_name(lines[3]),
                     id="as many lines as events, split before joined"),
        pytest.param(lambda lines: _edited(lines, 4, lambda line: f" \t{line}\t "),
                     lambda lines: None, id="an event padded with spaces and tabs"),
        pytest.param(lambda lines: _edited(lines, 4, lambda line: "\ufeff" + line),
                     lambda lines: "JSONDecodeError: Unexpected UTF-8 BOM (decode using "
                                   "utf-8-sig): line 1 column 1 (char 0)",
                     id="a BOM at the start of a later line"),
        pytest.param(lambda lines: _edited(lines, 4, lambda line: f"[{line}]"),
                     lambda lines: "TypeError: list indices must be integers or slices, not str",
                     id="a line that is a JSON list"),
    ],
)
def test_a_damaged_event_log_is_named_alike_by_state_and_resume(tmp_path, capsys, edit, named):
    run_dir = _paused_run(tmp_path, capsys)
    log = run_dir / "log.ndjson"
    lines = log.read_text(encoding="utf-8").splitlines()
    state = ["state", "--lab", LAB, "--run", str(run_dir)]
    intact = run_main(state)
    log.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    damage = named(lines)
    if damage is None:
        assert run_main(state) == intact
        assert run_main(["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])[::2] == (0, "")
        return
    before = _dir_bytes(run_dir)
    for argv in (state, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"]):
        assert run_main(argv) == (4, "", f"usage error: event log {log} is damaged: {damage}\n")
    assert _dir_bytes(run_dir) == before


def test_the_first_damaged_line_of_an_event_log_is_named(tmp_path, capsys):
    """The log is decoded as it is folded, so an event that does not fold
    is named before a later line that does not decode."""
    run_dir = _paused_run(tmp_path, capsys)
    log = run_dir / "log.ndjson"
    lines = log.read_text().splitlines()
    lines[2] = lines[2].replace('"seq":2,', '"seq":99,')
    lines[9] = "garbage"
    log.write_text("".join(line + "\n" for line in lines))
    for argv in (["state", "--lab", LAB, "--run", str(run_dir)],
                 ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"]):
        assert run_main(argv) == (
            4, "", f"usage error: event log {log} is damaged: "
                   "SequenceGapError: expected seq 2, got 99\n")


def _dir_bytes(run_dir):
    return {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}


def _lab_hash(lab_path) -> str:
    """The sha256 of the canonical JSON of a lab file, as a run records it."""
    lab = json.loads(Path(lab_path).read_text())
    return hashlib.sha256(canonical_json(lab).encode("utf-8")).hexdigest()


def _unbound(summary: bytes, lab_path) -> bytes:
    """A run's summary less its lab hash, which must be that of ``lab_path``."""
    key = f'"lab_hash":"{_lab_hash(lab_path)}",'.encode("utf-8")
    assert summary.count(key) == 1
    return summary.replace(key, b"")


@pytest.mark.parametrize("seed", [1.5, True, "1", MISSING])
def test_resume_with_a_seed_that_is_not_an_integer_is_usage_error(tmp_path, capsys, seed):
    """A damaged or missing seed in result.json is refused, as a ``sim``
    seed is, and the run directory is left as it was."""
    run_dir = _paused_run(tmp_path, capsys)
    _damage(run_dir / "result.json", {"seed": seed})
    before = _dir_bytes(run_dir)
    err = _usage_error(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
    assert err == (
        f"usage error: run directory {run_dir} is damaged: seed in result.json "
        f"must be an integer, not {'missing' if seed is MISSING else repr(seed)}\n"
    )
    assert _dir_bytes(run_dir) == before


def test_resume_of_a_checkpoint_for_another_plan_is_rejected(tmp_path, capsys):
    """A run paused under another plan (for instance by an eaclab whose
    compiler lowered steps differently) cannot be resumed."""
    run_dir = _paused_run(tmp_path, capsys)
    path = run_dir / "checkpoint.json"
    checkpoint = json.loads(path.read_text())
    checkpoint["plan_hash"] = "ab" * 32
    path.write_text(json.dumps(checkpoint))
    code = main(["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("checkpoint mismatch: ")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("name, edit, line", [
    ("checkpoint.json", {"run_id": "run-other"},
     "checkpoint.json does not match the run id in result.json"),
    ("checkpoint.json", {"last_committed_node": "fill#99"},
     "checkpoint.json names 'fill#99', which plan.json does not assign"),
    ("result.json", {"lab_hash": MISSING}, "result.json records no lab hash"),
    ("checkpoint.json", {"last_committed_node": None},
     "checkpoint.json has committed null, log.ndjson has committed 'select#0'"),
    ("checkpoint.json", {"last_committed_node": "measure#0"},
     "checkpoint.json has committed 'measure#0', log.ndjson has committed 'select#0'"),
])
def test_resume_of_a_run_dir_whose_files_disagree_is_rejected(tmp_path, capsys, name, edit, line):
    """A checkpoint of another run, of a node the plan does not hold, or of
    another node than the log committed last, and a run that names no lab,
    are refused, and nothing is written. A checkpoint that committed less
    would dispatch the log's committed nodes again; one that committed
    more would skip nodes never dispatched."""
    run_dir = _paused_run(tmp_path, capsys)
    _damage(run_dir / name, edit)
    before = _dir_bytes(run_dir)
    for argv in (["resume", str(run_dir), "--clear", "pump_1"], ["state", "--run", str(run_dir)]):
        assert _mismatch(capsys, [*argv, "--lab", LAB]) == f"checkpoint mismatch: {line}\n"
    assert _dir_bytes(run_dir) == before


def _edited_lab(tmp_path, name, edit):
    """The reference lab after ``edit(lab)``, as a file."""
    lab = json.loads(LAB_PATH.read_text())
    edit(lab)
    path = tmp_path / f"lab-{name}.json"
    path.write_text(json.dumps(lab))
    return str(path)


def _device(lab, device_id):
    return next(d for d in lab["devices"] if d["device_id"] == device_id)


def _pstat_as_tcell(lab):
    lab["capabilities"] = {"tcell": TCELL}
    _device(lab, "pstat_1")["capability"] = "tcell"


def test_a_run_is_bound_to_its_lab(tmp_path, capsys):
    """A run paused on one lab is neither resumed nor replayed on another,
    and nothing is written: one whose simulator physics differ, one without
    a device the log names, one whose device the log's events do not fit,
    and one whose device the spec cannot bind. The lab is compared before
    the log is replayed over it or the spec compiled against it.
    Reformatting the lab file does not change its hash."""
    run_dir = _paused_run(tmp_path, capsys)
    labs = [
        _lab_with_sim(tmp_path, "pstat_1", temperature_tau=1e9),
        _edited_lab(tmp_path, "no-pstat",
                    lambda lab: lab["devices"].remove(_device(lab, "pstat_1"))),
        _edited_lab(tmp_path, "pump-offline",
                    lambda lab: _device(lab, "pump_1").update(status="offline")),
        _edited_lab(tmp_path, "pstat-tcell", _pstat_as_tcell),
    ]
    before = _dir_bytes(run_dir)
    for lab in labs:
        for argv in (["resume", str(run_dir), "--clear", "pump_1"],
                     ["state", "--run", str(run_dir)]):
            err = _mismatch(capsys, [*argv, "--lab", lab])
            assert err == ("checkpoint mismatch: "
                           "the lab does not match the lab hash in result.json\n")
    assert _dir_bytes(run_dir) == before
    reformatted = tmp_path / "reformatted.json"
    reformatted.write_text(json.dumps(json.loads(LAB_PATH.read_text()), indent=3))
    assert main(["resume", str(run_dir), "--lab", str(reformatted), "--clear", "pump_1"]) == 0
    assert json.loads(capsys.readouterr().out)["lab_hash"] == _lab_hash(LAB)


def test_resume_rejects_mismatched_plan(tmp_path, capsys):
    """A checkpoint that names another plan than the run's is refused when
    the run directory is read, before the executor is called."""
    run_dir = _paused_run(tmp_path, capsys)
    checkpoint = Checkpoint("run-t", None, 0, "0" * 64)
    (run_dir / "checkpoint.json").write_text(canonical_json(checkpoint.to_dict()))
    before = _dir_bytes(run_dir)
    err = _mismatch(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
    assert err == (
        "checkpoint mismatch: checkpoint.json does not match the plan hash in result.json\n"
    )
    assert _dir_bytes(run_dir) == before


def test_resume_clear_of_unknown_device_is_usage_error(tmp_path, capsys):
    run_dir = _paused_run(tmp_path, capsys)
    _usage_error(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_9"])


def _lab_with_sim(tmp_path, device_id, **sim):
    """The reference lab with ``sim`` keys of one device set, as a file."""
    return _edited_lab(tmp_path, device_id,
                       lambda lab: _device(lab, device_id).setdefault("sim", {}).update(sim))


def test_resume_that_stops_again_names_the_fault(tmp_path, capsys):
    """A resume that pauses again says why, in the line ``run`` prints: on a
    lab whose cell never warms, the first stabilize wait times out. The
    timeout at dispatch 5 pauses the run at ``fill#0``, before that wait."""
    cold = _lab_with_sim(tmp_path, "pstat_1", temperature_tau=1e9)
    out = tmp_path / "paused"
    assert main(["run", SPEC, "--lab", cold, "--out", str(out), "--inject", "timeout@5"]) == 3
    run_dir = out / json.loads(capsys.readouterr().out)["run_id"]
    code = main(["resume", str(run_dir), "--lab", cold, "--clear", "pump_1"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["status"] == "paused"
    detail = "signal never held its band within 600s"
    assert captured.err == f"fault device_error at measure#0:stab: {detail}\n"
    logged = [json.loads(line) for line in (run_dir / "log.ndjson").read_text().splitlines()]
    faults = [event["payload"] for event in logged if event["kind"] == "fault"]
    assert faults[-1]["node_id"] == "measure#0:stab"
    assert faults[-1]["detail"] == detail
    # The log of a run paused twice still implies its checkpoint's node.
    assert json.loads((run_dir / "checkpoint.json").read_text())["last_committed_node"] == "fill#1"
    assert main(["state", "--run", str(run_dir), "--lab", cold]) == 0


def test_fault_probability_is_an_unread_sim_key(tmp_path, capsys):
    """The simulator has no stochastic faults: a lab that still sets
    ``fault_probability`` runs the campaign to the reference lab's bytes,
    but for the lab hash each run records."""
    lab = _lab_with_sim(tmp_path, "pump_1", fault_probability=0.3)
    run_dirs = []
    for name, lab_path in (("reference", LAB), ("knob", lab)):
        out = tmp_path / name
        assert main(["run", SPEC, "--lab", lab_path, "--out", str(out)]) == 0
        files = _dir_bytes(out / json.loads(capsys.readouterr().out)["run_id"])
        run_dirs.append({**files, "result.json": _unbound(files["result.json"], lab_path)})
    assert run_dirs[0] == run_dirs[1]


@pytest.mark.parametrize("target", ["missing", "file", "empty_dir"])
def test_state_of_a_run_without_event_log_is_usage_error(tmp_path, capsys, target):
    run = {"missing": tmp_path / "nope", "file": CAMPAIGN_PATH, "empty_dir": tmp_path}[target]
    _usage_error(capsys, ["state", "--lab", LAB, "--run", str(run)])


def test_a_lab_that_canonical_json_cannot_encode_fails_every_command_closed(tmp_path, capsys):
    """A run records its lab's hash, taken over the lab's canonical JSON, so
    a NaN even in a key the loader does not read is refused at load."""
    lab = json.loads(LAB_PATH.read_text())
    lab["notes"] = float("nan")
    path = tmp_path / "lab.json"
    path.write_text(json.dumps(lab))
    for command, extra in (("validate", []), ("plan", []), ("run", ["--out", str(tmp_path)])):
        err = _usage_error(capsys, [command, SPEC, "--lab", str(path), *extra])
        assert err.startswith(f"usage error: lab config {path} is invalid: ValueError: ")
    assert sorted(os.listdir(tmp_path)) == ["lab.json"]


def test_state_of_a_log_with_unknown_event_kind_is_usage_error(tmp_path, capsys):
    """The log of a run on this lab is replayed, so an event kind it does
    not know is named."""
    run_dir = _paused_run(tmp_path, capsys)
    (run_dir / "log.ndjson").write_text(
        '{"seq":0,"time":0,"device_id":"valve_1","kind":"reconcile",'
        '"payload":{"desired":{"dest":{"value":3,"unit":""}}}}\n'
    )
    err = _usage_error(capsys, ["state", "--lab", LAB, "--run", str(run_dir)])
    assert err.startswith(f"usage error: event log {run_dir / 'log.ndjson'} is damaged: ")
    assert "reconcile" in err


def _tcell_files(tmp_path, comparator, temperature=390, unread_keys=False):
    lab = json.loads(LAB_PATH.read_text())
    lab["devices"].append({"device_id": "tcell_1", "capability": "tcell"})
    tcell = lab["capabilities"]["tcell"] = {
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
                    "comparator": comparator,
                    "threshold": {"value": 350, "unit": "K"},
                }
            ]
        },
    }
    if unread_keys:
        # Keys older lab configs carry and the loader does not read.
        tcell["operations"]["scan"]["blocking"] = False
        tcell["safety"]["cooldown_required"] = {"field": "temperature"}
        tcell["exclusive"] = False
        tcell["reconcile_ops"] = {"temperature": "scan"}
    spec = {
        "spec_id": "hot-scan",
        "version": "1.0.0",
        "resources": [{"name": "cell", "capability": "tcell"}],
        "steps": [
            {
                "id": "scan",
                "binding": "cell",
                "op": "scan",
                "params": {"temperature": {"value": temperature, "unit": "K"}},
            }
        ],
    }
    lab_path, spec_path = tmp_path / "lab.json", tmp_path / "spec.json"
    lab_path.write_text(json.dumps(lab))
    spec_path.write_text(json.dumps(spec))
    return str(lab_path), str(spec_path)


def test_unknown_safety_comparator_fails_closed(tmp_path, capsys):
    lab, spec = _tcell_files(tmp_path, "=<")
    err = _usage_error(capsys, ["validate", spec, "--lab", lab])
    assert "=<" in err


def test_known_safety_comparator_rejects_hot_scan(tmp_path, capsys):
    lab, spec = _tcell_files(tmp_path, "<=")
    assert main(["validate", spec, "--lab", lab]) == 2
    assert "safety_violation" in capsys.readouterr().err


def test_unread_capability_keys_change_no_output(tmp_path, capsys):
    outcomes = []
    for unread_keys in (False, True):
        base = tmp_path / str(unread_keys)
        base.mkdir()
        lab, spec = _tcell_files(base, "<=", 330, unread_keys)
        outcome = []
        for argv in (["validate", spec], ["plan", spec], ["run", spec, "--out", str(base / "runs")]):
            code = main([*argv, "--lab", lab])
            out = capsys.readouterr().out
            outcome.append((code, _unbound(out.encode(), lab) if argv[0] == "run" else out))
        runs = base / "runs"
        files = [f for f in sorted(runs.rglob("*")) if f.is_file()]
        outcome.append([(f.relative_to(runs), _unbound(f.read_bytes(), lab)
                         if f.name == "result.json" else f.read_bytes()) for f in files])
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1]
    assert [code for code, _ in outcomes[0][:3]] == [0, 0, 0]
    assert outcomes[0][3]


def _lab_with_capabilities(tmp_path, capabilities, devices=()):
    lab = json.loads(LAB_PATH.read_text())
    lab["capabilities"] = capabilities
    lab["devices"] += [{"device_id": d, "capability": c} for d, c in devices]
    lab_path = tmp_path / "lab.json"
    lab_path.write_text(json.dumps(lab))
    return str(lab_path)


@pytest.mark.parametrize("damage", sorted(BAD_TCELL))
def test_malformed_capability_fails_closed(tmp_path, capsys, damage):
    path, value, named = BAD_TCELL[damage]
    lab = _lab_with_capabilities(tmp_path, {"tcell": with_edit(TCELL, path, value)})
    for command, extra in (("validate", []), ("plan", []), ("run", ["--out", str(tmp_path)])):
        err = _usage_error(capsys, [command, SPEC, "--lab", lab, *extra])
        assert err.startswith(f"usage error: lab config {lab} is invalid: ValueError: ")
        assert named in err
    assert os.listdir(tmp_path) == ["lab.json"]


def test_lab_that_redeclares_a_builtin_capability_fails_closed(tmp_path, capsys):
    lab = _lab_with_capabilities(tmp_path, {"tcell": TCELL, "pump": {}})
    err = _usage_error(capsys, ["validate", SPEC, "--lab", lab])
    assert err.startswith(f"usage error: lab config {lab} is invalid: DuplicateCapabilityError")


# A custom doser whose operations declare their clocks: a fixed one, a
# ratio of two params (12 / 4 Hz = 3 s), its configure op's and its connect's.
DOSER = {
    "operations": {
        "connect": {"kind": "connect", "idempotent": True, "duration_s": 0.5},
        "prime": {"duration_s": 7.5},
        "tune": {"params": {"rate": {"unit": "Hz", "min": 0.5, "max": 10}},
                 "kind": "configure", "idempotent": True, "duration_s": 0.25},
        "dose": {"params": {"amount": {"min": 0, "max": 100},
                            "rate": {"unit": "Hz", "min": 0.5, "max": 10}},
                 "configure_via": "tune", "duration_s": ["amount", "rate"]},
    }
}
DOSER_CLOCKS = {"connect:d": 0.5, "prime": 7.5, "dose:cfg": 0.25, "dose": 3.0,
                "teardown:d": 1.0}


@pytest.mark.parametrize("policy", ["fifo", "batched"])
def test_plan_takes_each_node_clock_from_its_operation_schema(tmp_path, capsys, policy):
    lab = _lab_with_capabilities(tmp_path, {"doser": DOSER}, [("doser_1", "doser")])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "spec_id": "dose",
        "version": "1.0.0",
        "resources": [{"name": "d", "capability": "doser"}],
        "steps": [
            {"id": "prime", "binding": "d", "op": "prime"},
            {"id": "dose", "binding": "d", "op": "dose", "depends_on": ["prime"],
             "params": {"amount": {"value": 12}, "rate": {"value": 4, "unit": "Hz"}}},
        ],
    }))
    assert main(["plan", str(spec), "--lab", lab, "--policy", policy]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert {a["node_id"]: a["end"] - a["start"] for a in plan["assignments"]} == DOSER_CLOCKS


def _dispatch_indices(run_dir):
    events = [json.loads(line) for line in (run_dir / "log.ndjson").read_text().splitlines()]
    return [e["payload"]["index"] for e in events if e["kind"] == "dispatch"]


def test_resumed_run_continues_dispatch_numbering(tmp_path, capsys):
    out = tmp_path / "paused"
    assert main(["run", SPEC, "--lab", LAB, "--out", str(out), "--inject", "timeout@5"]) == 3
    run_dir = out / json.loads(capsys.readouterr().out)["run_id"]
    assert _dispatch_indices(run_dir) == [1, 2, 3, 4, 5]
    assert main(["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"]) == 0
    indices = _dispatch_indices(run_dir)
    assert indices == list(range(1, len(indices) + 1))
    assert len(indices) == 37


def _mixed_sequence(tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads(CAMPAIGN_PATH.read_text())
    doc["steps"][1]["params"]["flow_rate"]["value"] = 99.0
    bad.write_text(json.dumps(doc))
    out = str(tmp_path / "runs")
    return [
        ["explode"],
        ["validate", "--lab", LAB],
        ["--help"],
        ["validate", str(bad), "--lab", LAB],
        ["plan", SPEC, "--lab", LAB, "--policy", "fifo"],
        ["run", SPEC, "--lab", LAB, "--out", out, "--inject", "timeout@5"],
        ["run", SPEC, "--lab", LAB, "--out", out],
    ]


def test_main_is_repeatable_in_one_process(tmp_path, capsys):
    """Every call reads its command line alike, whatever calls came before."""
    sequence = _mixed_sequence(tmp_path)
    passes = []
    for _ in range(2):
        outcomes = []
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        passes.append(outcomes)
    assert passes[0] == passes[1]
    assert [code for code, _, _ in passes[0]] == [4, 4, 0, 2, 0, 3, 0]
    assert passes[0][2][1].startswith("usage: eaclab")


def test_forward_dependency_gives_a_sound_plan(tmp_path, capsys, registry, genesis):
    """A step may depend on a step listed after it."""
    doc = json.loads(CAMPAIGN_PATH.read_text())
    doc["steps"][0]["depends_on"] = ["fill"]  # select#k waits for fill#k
    del doc["steps"][1]["depends_on"]
    spec = tmp_path / "forward.json"
    spec.write_text(json.dumps(doc))
    dag = compile_spec(expand_sweeps(parse_spec(spec.read_text())), registry, genesis)
    assert ("fill#0", "select#0", "dep") in dag.edges
    assert main(["validate", str(spec), "--lab", LAB]) == 0
    for policy in ("fifo", "batched"):
        assert main(["plan", str(spec), "--lab", LAB, "--policy", policy]) == 0
        plan = json.loads(capsys.readouterr().out)
        starts = {a["node_id"]: a["start"] for a in plan["assignments"]}
        ends = {a["node_id"]: a["end"] for a in plan["assignments"]}
        assert len(plan["assignments"]) == len(dag.nodes)
        assert sorted(starts) == sorted(dag.nodes)
        for src, dst, _ in dag.edges:
            assert starts[dst] >= ends[src] - 1e-9, (src, dst)


def test_step_order_does_not_change_plan_or_run(tmp_path, capsys):
    """The campaign with ``fill`` listed before the ``select`` it depends on
    plans and runs as the campaign does."""
    doc = json.loads(CAMPAIGN_PATH.read_text())
    doc["steps"] = doc["steps"][::-1]
    spec = tmp_path / "reversed.json"
    spec.write_text(json.dumps(doc))
    for policy in ("fifo", "batched"):
        outputs = [run_main(["plan", path, "--lab", LAB, "--policy", policy])
                   for path in (SPEC, str(spec))]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]
    telemetry = []
    for path in (SPEC, str(spec)):
        out = tmp_path / "runs"
        code, stdout, _ = run_main(["run", path, "--lab", LAB, "--out", str(out)])
        assert code == 0
        run_dir = out / json.loads(stdout)["run_id"]
        telemetry.append([json.loads(line)["fields"] for line in
                          (run_dir / "telemetry.ndjson").read_text().splitlines()])
    assert telemetry[0] == telemetry[1]


def _faulted_device(run_dir):
    events = [json.loads(line) for line in (run_dir / "log.ndjson").read_text().splitlines()]
    return [e for e in events if e["kind"] == "fault"][-1]["device_id"]


def _mismatch(capsys, argv):
    """Run argv; assert exit 2 with one checkpoint-mismatch line and no stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("checkpoint mismatch: ")
    assert len(captured.err.strip().splitlines()) == 1
    return captured.err


def test_resume_of_a_truncated_log_is_rejected(tmp_path, capsys):
    out = tmp_path / "paused"
    assert main(["run", SPEC, "--lab", LAB, "--out", str(out), "--inject", "error@6"]) == 3
    run_dir = out / json.loads(capsys.readouterr().out)["run_id"]
    device = _faulted_device(run_dir)
    assert json.loads((run_dir / "checkpoint.json").read_text())["state_epoch"] == 18
    log = run_dir / "log.ndjson"
    kept = "".join(log.read_text().splitlines(keepends=True)[:10])
    log.write_text(kept)
    err = _mismatch(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", device])
    assert "epoch 18" in err and "epoch 10" in err
    assert log.read_text() == kept
    assert (run_dir / "checkpoint.json").exists()


def _rehash(run_dir, plan):
    """Write plan.json and point result.json and the checkpoint at its hash."""
    text = canonical_json(plan)
    (run_dir / "plan.json").write_text(text + "\n")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    for name in ("result.json", "checkpoint.json"):
        doc = json.loads((run_dir / name).read_text())
        doc["plan_hash"] = digest
        (run_dir / name).write_text(json.dumps(doc))


def test_resume_of_a_plan_that_result_json_does_not_name_is_rejected(tmp_path, capsys):
    run_dir = _paused_run(tmp_path, capsys)
    plan = json.loads((run_dir / "plan.json").read_text())
    plan["makespan"] += 1.0
    (run_dir / "plan.json").write_text(json.dumps(plan))
    err = _mismatch(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
    assert "result.json" in err


def test_resume_of_a_plan_with_the_keys_an_older_eaclab_wrote_is_rejected(tmp_path, capsys):
    """A plan.json that still holds ``status`` and ``pending_recovery``, with
    hashes that name it, is not the plan it reads back as."""
    run_dir = _paused_run(tmp_path, capsys)
    plan = json.loads((run_dir / "plan.json").read_text())
    _rehash(run_dir, {**plan, "status": "ok", "pending_recovery": None})
    before = (run_dir / "plan.json").read_bytes()
    err = _mismatch(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
    assert err == "checkpoint mismatch: plan.json does not match the plan hash in result.json\n"
    assert (run_dir / "plan.json").read_bytes() == before


def test_a_run_directory_whose_snapshot_holds_an_epoch_resumes(tmp_path):
    """``tests/data/paused-run-with-epoch`` is the reference campaign paused
    by ``--inject timeout@5``, as eaclab wrote it while the state carried an
    ``epoch`` beside ``next_seq``. Its checkpoint's ``state_epoch`` is the
    count of events its log holds, so it resumes as a run paused now does,
    to the same bytes."""
    old = tmp_path / "old"
    shutil.copytree(Path(__file__).parent / "data" / "paused-run-with-epoch", old)
    assert b'"epoch":15' in (old / "snapshot.json").read_bytes()
    code, out, _ = run_main(["run", SPEC, "--lab", LAB, "--out", str(tmp_path / "new"),
                             "--inject", "timeout@5"])
    assert code == 3
    new = tmp_path / "new" / json.loads(out)["run_id"]
    assert sorted(os.listdir(old)) == sorted(os.listdir(new))
    resumed = [run_main(["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
               for run_dir in (old, new)]
    assert resumed[0] == resumed[1] and resumed[0][0] == 0
    for name in os.listdir(new):
        assert (old / name).read_bytes() == (new / name).read_bytes(), name


@pytest.mark.parametrize("edit", ["pre_node", "missing_node", "wrong_capability"])
def test_resume_of_a_plan_for_another_dag_is_rejected(tmp_path, capsys, edit):
    """A plan whose hashes agree but whose nodes or devices do not fit the
    spec and lab, such as a plan with the ``:pre`` precheck nodes an older
    eaclab lowered, is refused, never a KeyError."""
    run_dir = _paused_run(tmp_path, capsys)
    plan = json.loads((run_dir / "plan.json").read_text())
    fill = next(a for a in plan["assignments"] if a["node_id"] == "fill#1")
    if edit == "pre_node":
        plan["assignments"].append({**fill, "node_id": "fill#1:pre"})
    elif edit == "missing_node":
        plan["assignments"].remove(fill)
    else:
        fill["device_id"] = "pstat_1"
    _rehash(run_dir, plan)
    _mismatch(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])


def test_resume_on_a_lab_without_a_planned_device_is_rejected(tmp_path, capsys):
    """Paused before its potentiostat was first used, a run cannot resume on
    a lab that has renamed that potentiostat: it is another lab, and a run
    directory that claims that lab assigns a device the lab does not have."""
    out = tmp_path / "paused"
    assert main(["run", SPEC, "--lab", LAB, "--out", str(out), "--inject", "error@1"]) == 3
    run_dir = out / json.loads(capsys.readouterr().out)["run_id"]
    assert "pstat_1" not in (run_dir / "log.ndjson").read_text()
    lab = json.loads(LAB_PATH.read_text())
    for device in lab["devices"]:
        if device["device_id"] == "pstat_1":
            device["device_id"] = "pstat_9"
    renamed = tmp_path / "renamed.json"
    renamed.write_text(json.dumps(lab))
    device = _faulted_device(run_dir)
    argv = ["resume", str(run_dir), "--lab", str(renamed), "--clear", device]
    err = _mismatch(capsys, argv)
    assert err == "checkpoint mismatch: the lab does not match the lab hash in result.json\n"
    _damage(run_dir / "result.json", {"lab_hash": _lab_hash(renamed)})
    err = _mismatch(capsys, argv)
    assert "'pstat_1'" in err


def test_resume_continues_the_persisted_plan(tmp_path, capsys, monkeypatch):
    run_dir = _paused_run(tmp_path, capsys)
    plan_text = (run_dir / "plan.json").read_text()

    def no_schedule(*args, **kwargs):
        raise AssertionError("resume must not plan the spec again")

    monkeypatch.setattr(scheduler, "schedule", no_schedule)
    assert main(["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "completed"
    assert (run_dir / "plan.json").read_text() == plan_text


def test_plan_calls_the_scheduler_module_function(capsys, monkeypatch):
    """The CLI imports ``schedule`` when it plans, so a replacement of
    ``eaclab.scheduler.schedule`` (a test's, or a tracer's) is the one called."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["policy"])
        return schedule(*args, **kwargs)

    monkeypatch.setattr(scheduler, "schedule", counted)
    assert main(["plan", SPEC, "--lab", LAB, "--policy", "fifo"]) == 0
    assert calls == ["fifo"]


def test_resume_rewrites_neither_plan_nor_spec(tmp_path, capsys, monkeypatch):
    """Their bytes are those resume has just read and checked."""
    run_dir = _paused_run(tmp_path, capsys)
    written = []

    def recorded(path, data, mode="wb"):
        written.append(os.path.basename(path))
        return write(path, data, mode)

    write = cli._write
    monkeypatch.setattr(cli, "_write", recorded)
    assert main(["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"]) == 0
    assert written and not {"plan.json", "spec.json"} & set(written)


def test_resume_of_an_edited_spec_is_rejected(tmp_path, capsys):
    """An edited spec.json would run under the plan and the telemetry spec
    hash of the spec it replaced; it is refused and nothing is written."""
    out = tmp_path / "paused"
    assert main(["run", SPEC, "--lab", LAB, "--out", str(out), "--inject", "error@20"]) == 3
    run_dir = out / json.loads(capsys.readouterr().out)["run_id"]
    assert _faulted_device(run_dir) == "pstat_1"
    path = run_dir / "spec.json"
    spec = json.loads(path.read_text())
    fill = next(step for step in spec["steps"] if step["id"] == "fill#5")
    assert fill["params"]["volume"]["value"] == 0.7
    fill["params"]["volume"]["value"] = 0.9
    path.write_text(canonical_json(spec) + "\n")
    before = _dir_bytes(run_dir)
    err = _mismatch(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pstat_1"])
    assert err == "checkpoint mismatch: spec.json does not match the spec hash in result.json\n"
    assert _dir_bytes(run_dir) == before


NOT_UTF8 = b"\xff\xfe{}"


def test_spec_that_is_not_utf8_is_a_syntax_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{\n  "spec_id": "\xc3("}')
    assert main(["validate", str(spec), "--lab", LAB]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("syntax error 2:15: not UTF-8 text")
    assert len(captured.err.strip().splitlines()) == 1
    spec.write_bytes(NOT_UTF8)
    for command in ("validate", "plan", "run"):
        argv = [command, str(spec), "--lab", LAB]
        assert main(argv + (["--out", str(tmp_path)] if command == "run" else [])) == 2
        assert capsys.readouterr().err.startswith("syntax error 1:1: not UTF-8 text")


def test_lab_and_inject_files_that_are_not_utf8_are_usage_errors(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    raw.write_bytes(NOT_UTF8)
    err = _usage_error(capsys, ["validate", SPEC, "--lab", str(raw)])
    assert err.startswith(f"usage error: lab config {raw} is not UTF-8 text")
    _usage_error(capsys, ["state", "--lab", str(raw)])
    err = _usage_error(
        capsys, ["run", SPEC, "--lab", LAB, "--out", str(tmp_path), "--inject", str(raw)]
    )
    assert "is not UTF-8 text" in err


@pytest.mark.parametrize("name", ["checkpoint.json", "result.json", "plan.json", "spec.json", "log.ndjson"])
def test_run_dir_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, name):
    run_dir = _paused_run(tmp_path, capsys)
    (run_dir / name).write_bytes(NOT_UTF8)
    err = _usage_error(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
    assert "is not UTF-8 text" in err
    if name == "log.ndjson":
        _usage_error(capsys, ["state", "--lab", LAB, "--run", str(run_dir)])


def test_json_nested_too_deeply_fails_closed(tmp_path, capsys):
    """JSON too deep to decode is a syntax error as a spec and a usage
    error as a lab, an --inject file or a line of a run's event log."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["validate", str(deep), "--lab", LAB]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("syntax error 1:1: nested too deeply")
    assert len(captured.err.strip().splitlines()) == 1
    err = _usage_error(capsys, ["validate", SPEC, "--lab", str(deep)])
    assert err.startswith(f"usage error: lab config {deep} is invalid: RecursionError")
    err = _usage_error(
        capsys, ["run", SPEC, "--lab", LAB, "--out", str(tmp_path), "--inject", str(deep)]
    )
    assert err.startswith(f"usage error: --inject file {deep} is nested too deeply")
    run_dir = _paused_run(tmp_path, capsys)
    with open(run_dir / "log.ndjson", "a") as fh:
        fh.write(deep.read_text() + "\n")
    for argv in (
        ["state", "--lab", LAB, "--run", str(run_dir)],
        ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"],
    ):
        assert "log.ndjson is damaged: RecursionError" in _usage_error(capsys, argv)


def _fresh_process(argv):
    """(exit code, stdout, stderr) of ``python -m eaclab.cli argv``."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "eaclab.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_lab_memo_follows_the_bytes_of_the_lab_file(tmp_path, capsys):
    """Labs alternated, rewritten in place, and made invalid in one process
    give what a fresh process gives for the same files."""
    tcell_lab, tcell_spec = _tcell_files(tmp_path, "<=", 330)
    edited = tmp_path / "edited.json"
    steps = [
        (None, tcell_lab),                        # the tcell lab: accepted
        (None, LAB),                              # no tcell device: rejected
        (None, tcell_lab),
        (None, LAB),
        (Path(tcell_lab).read_bytes(), str(edited)),
        (LAB_PATH.read_bytes(), str(edited)),     # rewritten: new verdict
        (b'{"devices": [{"capability": "pump"}]}', str(edited)),  # invalid
        (b'{"devices": ', str(edited)),           # not JSON
        (Path(tcell_lab).read_bytes(), str(edited)),
    ]
    outcomes = []
    for content, lab in steps:
        if content is not None:
            edited.write_bytes(content)
        code = main(["validate", tcell_spec, "--lab", lab])
        captured = capsys.readouterr()
        got = (code, captured.out, captured.err)
        assert got == _fresh_process(["validate", tcell_spec, "--lab", lab])
        outcomes.append(code)
    assert outcomes == [0, 2, 0, 2, 0, 2, 4, 4, 0]


def test_lab_is_parsed_once_for_unchanged_bytes(tmp_path, capsys):
    cli._lab_from_bytes.cache_clear()
    for argv in _mixed_sequence(tmp_path):
        main(argv)
    main(["state", "--lab", LAB])
    capsys.readouterr()
    info = cli._lab_from_bytes.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 4, 1)


def test_sim_sections_are_parsed_once_with_the_lab(tmp_path, capsys, monkeypatch):
    """validate, plan, run, a paused run and its resume all take their
    simulator configs from the memoised lab: one parse per device."""
    parse = SimDeviceConfig.from_lab_entry.__func__
    parsed = []

    def counted(cls, entry):
        parsed.append(entry["device_id"])
        return parse(cls, entry)

    monkeypatch.setattr(SimDeviceConfig, "from_lab_entry", classmethod(counted))
    cli._lab_from_bytes.cache_clear()
    assert main(["validate", SPEC, "--lab", LAB]) == 0
    assert main(["plan", SPEC, "--lab", LAB]) == 0
    assert main(["run", SPEC, "--lab", LAB, "--out", str(tmp_path / "clean")]) == 0
    capsys.readouterr()
    paused = _paused_run(tmp_path, capsys)
    assert main(["resume", str(paused), "--lab", LAB, "--clear", "pump_1"]) == 0
    devices = [entry["device_id"] for entry in json.loads(LAB_PATH.read_text())["devices"]]
    assert sorted(parsed) == sorted(devices)


def test_memoised_lab_cannot_be_changed(tmp_path, capsys):
    """What the memo hands out refuses every change, and commands that
    try nothing leave it as it was."""
    sequence = _mixed_sequence(tmp_path)
    first = [run_main(argv) for argv in sequence]
    configs, registry, genesis, lab_hash = cli._load_lab(LAB)
    before = snapshot(genesis)
    with pytest.raises(TypeError):
        registry.register(schema_from_dict("heater", {}))
    with pytest.raises(TypeError):
        registry.register(registry.get("pump"))
    assert "heater" not in registry
    by_id = {config.device_id: config for config in configs}
    with pytest.raises(TypeError):
        configs[0] = None
    with pytest.raises(AttributeError):
        by_id["pump_1"].seed = 7
    with pytest.raises(AttributeError):
        by_id["pstat_1"].conductivity_table = {}
    with pytest.raises(TypeError):
        by_id["pstat_1"].conductivity_table[0.5] = 1.0
    with pytest.raises(TypeError):
        by_id["valve_1"].port_concentrations[1] = 9.0
    with pytest.raises(TypeError):
        genesis.devices["pump_1"] = None
    with pytest.raises(TypeError):
        genesis.devices["valve_1"].attrs["ports"] = 2.0
    assert [run_main(argv) for argv in sequence] == first
    assert all(a is b for a, b in zip(cli._load_lab(LAB), (configs, registry, genesis, lab_hash)))
    assert lab_hash() == _lab_hash(LAB)
    assert snapshot(genesis) == before


def _count_expansions(monkeypatch) -> list:
    calls = []

    def counted(spec):
        calls.append(len(spec.steps))
        return expand_sweeps(spec)

    monkeypatch.setattr(cli, "expand_sweeps", counted)
    monkeypatch.setattr(specmodel, "expand_sweeps", counted)
    return calls


def _count_value_checks(monkeypatch) -> Counter:
    """Count ``ParamSchema.check`` calls by param, and refuse to build a
    swept step's configurations."""
    checks = Counter()
    check = ParamSchema.check

    def counted_check(self, name, q):
        checks[name] += 1
        return check(self, name, q)

    def no_configuration(step, quantities):
        raise AssertionError("validate must not build a configuration")

    monkeypatch.setattr(ParamSchema, "check", counted_check)
    monkeypatch.setattr(specmodel, "_swept_params", no_configuration)
    return checks


def test_validate_checks_a_sweep_at_its_template(tmp_path, monkeypatch):
    """campaign_scale's spec: three swept steps, 144 instances, checked as
    18 distinct values without building one instance step or one swept
    configuration."""
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(campaign_doc(48, fill_ml=0.7)))
    expansions = _count_expansions(monkeypatch)
    checks = _count_value_checks(monkeypatch)
    assert run_main(["validate", str(path), "--lab", LAB]) == (0, "", "")
    assert expansions == []
    assert sum(checks.values()) == 18


def _eis_sweep_doc(bad_n_freq=None) -> dict:
    """The reference campaign without its sweeps, its measure sweeping
    three EIS settings over 20 values each: 8000 instances."""
    doc = json.loads(CAMPAIGN_PATH.read_text())
    for step in doc["steps"]:
        del step["repeat"]
    measure = next(step for step in doc["steps"] if step["id"] == "measure")
    measure["repeat"] = {"eac": [0.01 * (k + 1) for k in range(20)],
                         "freq_min": [100.0 * (k + 1) for k in range(20)],
                         "n_freq": [10 + k for k in range(19)] + [bad_n_freq or 29]}
    return doc


def test_validate_checks_each_swept_value_once(tmp_path, monkeypatch):
    """A 3 x 20 sweep is 8000 configurations but 60 swept values: validate
    checks those 60 and each unswept value once, and builds no
    configuration."""
    path = tmp_path / "eis.json"
    path.write_text(json.dumps(_eis_sweep_doc()))
    checks = _count_value_checks(monkeypatch)
    assert run_main(["validate", str(path), "--lab", LAB]) == (0, "", "")
    assert checks == {"eac": 20, "freq_min": 20, "n_freq": 20, "freq_max": 1,
                      "concentration": 1, "dest": 1, "flow_rate": 1, "volume": 1}


def test_a_failing_swept_value_is_reported_at_each_instance_that_has_it(tmp_path):
    """One bad value of a 3 x 20 sweep is reported at the 400 instances that
    hold it, in expansion order, as the per-step oracle reports the
    expanded spec."""
    doc = _eis_sweep_doc(bad_n_freq=29.5)
    path = tmp_path / "eis.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(["validate", str(path), "--lab", LAB])
    lines = err.splitlines()
    assert (code, out, len(lines)) == (2, "", 400)
    assert lines[0] == "bad_value error measure#19: 'n_freq'=29.5 is not an integer"
    assert lines[-1] == "bad_value error measure#7999: 'n_freq'=29.5 is not an integer"
    registry, genesis = cli._load_lab(LAB)[1:3]
    expanded = expand_sweeps(parse_spec(json.dumps(doc)))
    expected = static_check_per_step(expanded, registry, genesis)
    assert err == "".join(d.render() + "\n" for d in expected)


@pytest.mark.parametrize("command", ["plan", "run"])
def test_plan_and_run_build_each_swept_configuration_once(tmp_path, monkeypatch, command):
    """The check of the template, its lowering and the expansion ``run``
    writes to spec.json share the swept params: the reference campaign's
    18 instances have 13 distinct swept values."""
    expansions = _count_expansions(monkeypatch)
    builds = []
    build = specmodel._swept_params

    def counted_build(step, quantities):
        builds.append(step.step_id)
        return build(step, quantities)

    monkeypatch.setattr(specmodel, "_swept_params", counted_build)
    extra = ["--out", str(tmp_path)] if command == "run" else []
    assert run_main([command, SPEC, "--lab", LAB, *extra])[0] == 0
    assert expansions == ([3] if command == "run" else [])
    assert len(builds) == 13


def test_plan_lowers_the_template_without_expanding_it(monkeypatch):
    """``plan`` compiles the checked template and never expands it; its
    output is the plan and tree of the expansion's DAG, byte for byte.
    (That ``run`` expands once, for spec.json, is the case above.)"""
    registry, genesis = cli._load_lab(LAB)[1:3]
    dag = compile_spec(expand_sweeps(parse_spec(CAMPAIGN_PATH.read_text())), registry, genesis)
    expected = (0, schedule(dag, genesis, registry).serialize() + "\n", render_tree(dag) + "\n")

    def no_expansion(spec):
        raise AssertionError("plan must not expand the spec")

    monkeypatch.setattr(cli, "expand_sweeps", no_expansion)
    assert run_main(["plan", SPEC, "--lab", LAB]) == expected


@pytest.mark.parametrize("command", ["validate", "plan", "run"])
def test_each_command_checks_the_spec_once(tmp_path, capsys, monkeypatch, command):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return static_check(*args, **kwargs)

    monkeypatch.setattr(cli, "static_check", counted)
    monkeypatch.setattr(compiler, "static_check", counted)
    extra = ["--out", str(tmp_path)] if command == "run" else []
    assert main([command, SPEC, "--lab", LAB, *extra]) == 0
    assert len(calls) == 1


# Damaged `sim` sections of pump_1, and what each one names in the diagnostic.
BAD_SIM = {
    "seed": ({"seed": "x"}, "sim seed of pump_1 must be an integer, not 'x'"),
    "float": ({"seed": 1.5}, "must be an integer, not 1.5"),
    "bool": ({"seed": True}, "must be an integer, not True"),
    "string": ({"seed": "1"}, "must be an integer, not '1'"),
    "section": ("x", "pump_1.sim must be an object, not 'x'"),
    "section_list": ([], "pump_1.sim must be an object, not []"),
    "table": ({"conductivity_table": [0.43]},
              "pump_1.sim.conductivity_table must be an object, not [0.43]"),
    "ports_list": ({"port_concentrations": [0.43]},
                   "pump_1.sim.port_concentrations must be an object, not [0.43]"),
    "port": ({"port_concentrations": {"a": 0.43}}, "invalid literal for int()"),
    "tau": ({"temperature_tau": 0}, "temperature_tau must be > 0"),
    "overflow": ({"temperature_tau": 10**400}, "OverflowError"),
    "nan": ({"port_concentrations": {"1": float("nan")}}, "non-finite number"),
}


@pytest.mark.parametrize("damage", sorted(BAD_SIM))
def test_bad_sim_section_fails_every_command_closed(tmp_path, capsys, damage):
    sim, named = BAD_SIM[damage]
    lab = json.loads(LAB_PATH.read_text())
    lab["devices"][0]["sim"] = sim
    lab_path = tmp_path / "lab.json"
    lab_path.write_text(json.dumps(lab))
    for command, extra in (("validate", []), ("plan", []), ("run", ["--out", str(tmp_path)])):
        err = _usage_error(capsys, [command, SPEC, "--lab", str(lab_path), *extra])
        assert err.startswith(f"usage error: lab config {lab_path} is invalid: ")
        assert named in err
    assert os.listdir(tmp_path) == ["lab.json"]


# A field value that stands for the field's absence.
DROPPED = object()


def _lab_with_device(tmp_path, device_id, /, **fields):
    """The reference lab with fields of one device set, or dropped where
    their value is ``DROPPED``, as a file; a device the lab does not hold
    is added."""
    lab = json.loads(LAB_PATH.read_text())
    device = next((d for d in lab["devices"] if d["device_id"] == device_id), None)
    if device is None:
        device = {"device_id": device_id}
        lab["devices"].append(device)
    device.update(fields)
    for key, value in fields.items():
        if value is DROPPED:
            del device[key]
    path = tmp_path / "lab.json"
    path.write_text(json.dumps(lab))
    return str(path)


# Device fields a lab is refused for: numbers that are not finite JSON
# numbers, ids that are not non-empty strings, a capability, status or
# mode of another JSON type, a missing id or capability, and capabilities
# the lab does not register. (device, field, value, what the one-line
# error says.)
BAD_DEVICE = {
    "id_missing": ("pstat_1", "device_id", DROPPED, "devices[5] has no 'device_id'"),
    "capability_missing": ("pstat_1", "capability", DROPPED, "devices[5] has no 'capability'"),
    "id_number": ("pstat_1", "device_id", 7,
                  "devices[5].device_id must be a non-empty string, not 7"),
    "id_null": ("pstat_1", "device_id", None,
                "devices[5].device_id must be a non-empty string, not None"),
    "id_bool": ("pstat_1", "device_id", True,
                "devices[5].device_id must be a non-empty string, not True"),
    "id_float": ("pump_1", "device_id", 2.5,
                 "devices[0].device_id must be a non-empty string, not 2.5"),
    "id_empty": ("relay_1", "device_id", "",
                 "devices[4].device_id must be a non-empty string, not ''"),
    "mode_list": ("pstat_1", "mode", [], "pstat_1.mode must be a string or null, not []"),
    "mode_number": ("pstat_1", "mode", 3, "pstat_1.mode must be a string or null, not 3"),
    "status_list": ("valve_1", "status", ["idle"],
                    "valve_1.status must be a string, not ['idle']"),
    "capability_list": ("pump_2", "capability", ["pump"],
                        "pump_2.capability must be a string, not ['pump']"),
    "attr_text": ("valve_1", "attrs", {"ports": "6"},
                  "valve_1.attrs.ports must be a finite number, not '6'"),
    "attr_bool": ("valve_1", "attrs", {"ports": True},
                  "valve_1.attrs.ports must be a finite number, not True"),
    "attr_nan": ("valve_1", "attrs", {"ports": float("nan")},
                 "valve_1.attrs.ports must be a finite number, not nan"),
    "calibrated_text": ("pstat_1", "last_calibrated", "0",
                        "pstat_1.last_calibrated must be a finite number, not '0'"),
    "calibrated_bool": ("pstat_1", "last_calibrated", False,
                        "pstat_1.last_calibrated must be a finite number, not False"),
    "calibrated_null": ("pstat_1", "last_calibrated", None,
                        "pstat_1.last_calibrated must be a finite number, not None"),
    "attrs_list": ("pstat_1", "attrs", [1], "pstat_1.attrs must be an object, not [1]"),
    "observed_list": ("pstat_1", "observed", [], "pstat_1.observed must be an object, not []"),
    "observed_value_list": ("pstat_1", "observed", {"temperature": [298]},
                            "pstat_1.observed.temperature must be an object, not [298]"),
    "observed_bool": ("pstat_1", "observed", {"temperature": {"value": True, "unit": "K"}},
                      "pstat_1.observed.temperature.value must be a finite number, not True"),
    "calibrated_inf": ("pstat_1", "last_calibrated", float("-inf"),
                       "pstat_1.last_calibrated must be a finite number, not -inf"),
    "capability_unknown": ("ghost_1", "capability", "ghost",
                           "ghost_1.capability names no registered capability: 'ghost'"),
    "capability_misspelt": ("pstat_1", "capability", "potentostat",
                            "pstat_1.capability names no registered capability: 'potentostat'"),
}


@pytest.mark.parametrize("damage", sorted(BAD_DEVICE))
def test_bad_device_field_fails_every_command_closed(tmp_path, capsys, damage):
    device_id, key, value, named = BAD_DEVICE[damage]
    lab_path = _lab_with_device(tmp_path, device_id, **{key: value})
    for command, extra in (("validate", []), ("plan", []), ("run", ["--out", str(tmp_path)])):
        err = _usage_error(capsys, [command, SPEC, "--lab", lab_path, *extra])
        assert err == f"usage error: lab config {lab_path} is invalid: ValueError: {named}\n"
    assert os.listdir(tmp_path) == ["lab.json"]


_TCELL_AT = ("capabilities", "tcell")
_CONDITION_AT = (*_TCELL_AT, "safety", "conditions", 0)
# Objects and lists of a lab document given as another JSON type: (path in
# the reference lab with SAFE_TCELL as its custom capability, () for the
# whole document, value, what the one-line error says).
BAD_SHAPE = {
    "lab_list": ((), [], "the lab must be an object, not []"),
    "devices_object": (("devices",), {"a": 1}, "devices must be a list, not {'a': 1}"),
    "device_number": (("devices", 1), 5, "devices[1] must be an object, not 5"),
    "capabilities_list": (("capabilities",), ["tcell"],
                          "capabilities must be an object, not ['tcell']"),
    "capability_list": (_TCELL_AT, [], "tcell must be an object, not []"),
    "operations_list": ((*_TCELL_AT, "operations"), ["scan"],
                        "tcell.operations must be an object, not ['scan']"),
    "operation_list": ((*_TCELL_AT, "operations", "scan"), [],
                       "tcell.scan must be an object, not []"),
    "params_list": ((*_TCELL_AT, "operations", "scan", "params"), ["temperature"],
                    "tcell.scan.params must be an object, not ['temperature']"),
    "param_list": ((*_TCELL_AT, "operations", "scan", "params", "temperature"), [250, 400],
                   "tcell.scan.params.temperature must be an object, not [250, 400]"),
    "safety_list": ((*_TCELL_AT, "safety"), [], "tcell.safety must be an object, not []"),
    "conditions_object": ((*_TCELL_AT, "safety", "conditions"), {},
                          "tcell.safety.conditions must be a list, not {}"),
    "condition_list": (_CONDITION_AT, ["temperature"],
                       "tcell.safety.conditions[0] must be an object, not ['temperature']"),
    "threshold_list": ((*_CONDITION_AT, "threshold"), [360],
                       "tcell.safety.temperature.threshold must be an object, not [360]"),
    "transitions_list": ((*_TCELL_AT, "transitions"), [],
                         "tcell.transitions must be an object, not []"),
    "reconfigure_list": ((*_TCELL_AT, "transitions", "reconfigure"), [],
                         "tcell.transitions.reconfigure must be an object, not []"),
}


@pytest.mark.parametrize("damage", sorted(BAD_SHAPE))
def test_a_lab_field_of_another_json_type_fails_every_command_closed(tmp_path, capsys, damage):
    path, value, named = BAD_SHAPE[damage]
    lab = json.loads(LAB_PATH.read_text())
    lab["capabilities"] = {"tcell": SAFE_TCELL}
    lab_path = tmp_path / "lab.json"
    lab_path.write_text(json.dumps(with_edit(lab, path, value) if path else value))
    for command, extra in (("validate", []), ("plan", []), ("run", ["--out", str(tmp_path)])):
        err = _usage_error(capsys, [command, SPEC, "--lab", str(lab_path), *extra])
        assert err == f"usage error: lab config {lab_path} is invalid: ValueError: {named}\n"
    assert os.listdir(tmp_path) == ["lab.json"]


_TEMPERATURE_TEXT = {"param": "temperature", "format": "number"}
_FIELD = ("must name a param, with a scale > 0 and either a 'pack' code such as '<I' or a "
          "'format': 'number' or such as '03d'")
_PART = "must be non-empty text, bytes 0..255, the xor checksum or a param field, not"
_AFTER_TEXT = ("follows a text field, so it must be text that starts with a character no "
               "number holds")
# Frames and param declarations of TCELL's scan a lab is refused for:
# (path under TCELL's scan, or "connect", value, what the one-line error says).
BAD_FRAME = {
    "not_a_list": (("frame",), "S\r", "tcell.scan.frame must be a non-empty list, not 'S\\r'"),
    "empty": (("frame",), [], "tcell.scan.frame must be a non-empty list, not []"),
    "null": (("frame",), None, "tcell.scan.frame must be a non-empty list, not None"),
    "part": (("frame",), ["S", 5], f"tcell.scan.frame[1] {_PART} 5"),
    "empty_text": (("frame",), [""], f"tcell.scan.frame[0] {_PART} ''"),
    "byte": (("frame",), [{"bytes": [0, 256]}], f"tcell.scan.frame[0] {_PART} {{'bytes': [0, 256]}}"),
    "no_bytes": (("frame",), [{"bytes": []}], f"tcell.scan.frame[0] {_PART} {{'bytes': []}}"),
    "checksum": (("frame",), ["S", {"checksum": "crc8"}],
                 f"tcell.scan.frame[1] {_PART} {{'checksum': 'crc8'}}"),
    "param_name": (("frame",), [{"param": 3, "format": "d"}], f"tcell.scan.frame[0] {_FIELD}"),
    "param_unknown": (("frame",), [{"param": "ghost", "format": "number"}],
                      "tcell.scan.frame field 'ghost' must name a required param that the "
                      "node carries"),
    "pack_and_format": (("frame",), [{"param": "rate", "pack": "B", "format": "d"}],
                        f"tcell.scan.frame[0] {_FIELD}"),
    "neither": (("frame",), [{"param": "rate"}], f"tcell.scan.frame[0] {_FIELD}"),
    "pack_code": (("frame",), [{"param": "rate", "scale": 10, "pack": "f"}],
                  f"tcell.scan.frame[0] {_FIELD}"),
    # A native size would differ between machines.
    "pack_native": (("frame",), [{"param": "rate", "scale": 10, "pack": "I"}],
                    f"tcell.scan.frame[0] {_FIELD}"),
    "pack_overflow": (("frame",), [{"param": "temperature", "scale": 10, "pack": "B"}],
                      "tcell.scan.frame field 'temperature': [250, 400] times 10 does not "
                      "fit 'B'"),
    # Space padding would not read back.
    "format": (("frame",), [{"param": "rate", "scale": 10, "format": "5d"}],
               f"tcell.scan.frame[0] {_FIELD}"),
    "scale": (("frame",), [{**_TEMPERATURE_TEXT, "scale": 0}], f"tcell.scan.frame[0] {_FIELD}"),
    "scale_text": (("frame",), [{**_TEMPERATURE_TEXT, "scale": "10"}],
                   "tcell.scan.frame[0].scale must be a finite number, not '10'"),
    # An unscaled integer field over a param that may be fractional.
    "integer_field": (("frame",), [{"param": "temperature", "format": "d"}, "\r"],
                      "tcell.scan.frame field 'temperature' writes an integer, so the param "
                      "must be declared integer"),
    # A reader could not tell where the first number ends.
    "text_then_text": (("frame",), [_TEMPERATURE_TEXT, {"param": "rate", "format": "number"}],
                       f"tcell.scan.frame[1] {_AFTER_TEXT}"),
    "text_then_digits": (("frame",), [_TEMPERATURE_TEXT, "5x", {"checksum": "xor"}],
                         f"tcell.scan.frame[1] {_AFTER_TEXT}"),
    "text_then_bytes": (("frame",), [_TEMPERATURE_TEXT, {"bytes": [13]}],
                        f"tcell.scan.frame[1] {_AFTER_TEXT}"),
    # The same bytes as the connect frame, which a reader takes first; split
    # text and a checksum write what they write.
    "same_as_connect": (("frame",), ["HELLO\r"], "tcell.connect and tcell.scan declare the same "
                        "constant frame b'HELLO\\r', which no reader could tell apart"),
    "same_as_disconnect": (("frame",), ["BY", {"bytes": [0x45]}, "\r"],
                           "tcell.disconnect and tcell.scan declare the same constant frame "
                           "b'BYE\\r', which no reader could tell apart"),
    # A connect node carries no params.
    "connect_field": (("connect",), {"kind": "connect", "frame": ["C", _TEMPERATURE_TEXT]},
                      "tcell.connect.frame field 'temperature' must name a required param "
                      "that the node carries"),
    "integer_flag": (("params", "samples", "integer"), "yes",
                     "tcell.scan.params.samples.integer must be true or false, not 'yes'"),
    "below_unit": (("params", "temperature", "below"), "rate",
                   "tcell.scan.params.temperature.below must name another param of the "
                   "operation in 'K', not 'rate'"),
    "below_self": (("params", "rate", "below"), "rate",
                   "tcell.scan.params.rate.below must name another param of the operation "
                   "in 'Hz', not 'rate'"),
}


@pytest.mark.parametrize("damage", sorted(BAD_FRAME))
def test_a_malformed_frame_fails_every_command_closed(tmp_path, capsys, damage):
    path, value, named = BAD_FRAME[damage]
    if path[0] == "connect":
        tcell = with_edit(TCELL, ("operations", "connect"), value)
    else:
        tcell = with_edit(TCELL, ("operations", "scan", *path), value)
    lab_path = _lab_with_capabilities(tmp_path, {"tcell": tcell})
    for command, extra in (("validate", []), ("plan", []), ("run", ["--out", str(tmp_path)])):
        err = _usage_error(capsys, [command, SPEC, "--lab", lab_path, *extra])
        assert err == f"usage error: lab config {lab_path} is invalid: ValueError: {named}\n"
    assert os.listdir(tmp_path) == ["lab.json"]


def test_a_configure_frame_writes_only_what_its_step_carries(tmp_path, capsys):
    """A configure node carries the step's params that its operation
    declares, so its frame may write only those."""
    warm = {"params": {"temperature": {"unit": "K", "min": 250, "max": 400},
                       "rate": {"unit": "Hz", "min": 0.5, "max": 5}},
            "kind": "configure", "frame": ["W", {"param": "rate", "format": "number"}, "\r"]}
    scan = {"params": {"temperature": {"unit": "K", "min": 250, "max": 400}},
            "kind": "read", "configure_via": "warm"}
    lab_path = _lab_with_capabilities(
        tmp_path, {"tcell": {"operations": {"scan": scan, "warm": warm}}})
    err = _usage_error(capsys, ["validate", SPEC, "--lab", lab_path])
    assert err == (f"usage error: lab config {lab_path} is invalid: ValueError: tcell.scan."
                   f"configure_via.frame field 'rate' must name a required param that the "
                   f"node carries\n")


# The reference campaign without its sweeps, a param of one step set to a
# value no frame carries faithfully, and the one line every command refuses
# it with: a frequency window the potentiostat cannot scan, integer params
# that the frame would truncate, values between two steps of a scaled
# integer field, which the frame would round, and quantities (a value and
# its unit) too large for a float in the param's unit, which are out of
# range, not in another unit.
UNSENDABLE = {
    "window_equal": ("measure", "freq_min", 592000,
                     "out_of_range error measure: 'freq_min'=592000 Hz is not below "
                     "'freq_max'=592000 Hz"),
    "window_swapped": ("measure", "freq_max", 100,
                       "out_of_range error measure: 'freq_min'=20000 Hz is not below "
                       "'freq_max'=100 Hz"),
    "dest_fraction": ("select", "dest", 2.5,
                      "bad_value error select: 'dest'=2.5 is not an integer"),
    "n_freq_fraction": ("measure", "n_freq", 10.5,
                        "bad_value error measure: 'n_freq'=10.5 is not an integer"),
    # The dispense frame writes thousandths of a mL and of a mL/min.
    "volume_resolution": ("fill", "volume", 0.7004,
                          "bad_value error fill: 'volume'=0.7004 mL is not a whole number "
                          "of 0.001 mL"),
    "flow_rate_resolution": ("fill", "flow_rate", 4.0005,
                             "bad_value error fill: 'flow_rate'=4.0005 mL/min is not a whole "
                             "number of 0.001 mL/min"),
    "volume_past_every_float": ("fill", "volume", {"value": 1e303, "unit": "m^3"},
                                "out_of_range error fill: 'volume'=inf mL outside [0.01, 50]"),
    "flow_rate_past_every_float": ("fill", "flow_rate", {"value": -1e303, "unit": "m^3/s"},
                                   "out_of_range error fill: 'flow_rate'=-inf mL/min outside "
                                   "[0.1, 10]"),
}


@pytest.mark.parametrize("row", sorted(UNSENDABLE))
def test_a_value_no_frame_carries_is_refused_before_anything_runs(tmp_path, capsys, row):
    step_id, param, value, line = UNSENDABLE[row]
    doc = json.loads(CAMPAIGN_PATH.read_text())
    for step in doc["steps"]:
        del step["repeat"]
        if step["id"] == step_id:
            if isinstance(value, dict):
                step["params"][param] = value
            else:
                step["params"][param]["value"] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    for command, extra in (("validate", []), ("plan", []),
                           ("run", ["--out", str(tmp_path / "runs")])):
        assert main([command, str(spec), "--lab", LAB, *extra]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line + "\n")
    assert os.listdir(tmp_path) == ["spec.json"]


# An oven whose safety condition bounds its bake's hold by 30 s, its
# hold's range, and the one line every command refuses a bake of 1e306 h
# with, a hold past every float in seconds: out of range when the range is
# in seconds, where the condition (a minimum) holds; a broken condition
# when the range is in hours, where the hold is in range.
PAST_EVERY_FLOAT = {
    "range": ({"unit": "s", "min": 0, "max": 60}, ">=",
              "out_of_range error bake: 'hold'=inf s outside [0, 60]"),
    "safety": ({"unit": "h", "min": 0, "max": 1e306}, "<=",
               "safety_violation error bake: hold <= 30 violated by commanded value inf"),
}


@pytest.mark.parametrize("row", sorted(PAST_EVERY_FLOAT))
def test_a_safety_field_past_every_float_is_refused_before_anything_runs(tmp_path, capsys, row):
    hold, comparator, line = PAST_EVERY_FLOAT[row]
    oven = {"operations": {"bake": {"params": {"hold": hold}}},
            "safety": {"conditions": [{"field": "hold", "comparator": comparator,
                                       "threshold": {"value": 30, "unit": "s"}}]}}
    lab = _lab_with_capabilities(tmp_path, {"oven": oven}, [("oven_1", "oven")])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "spec_id": "long-bake", "version": "1.0.0",
        "resources": [{"name": "oven", "capability": "oven"}],
        "steps": [{"id": "bake", "binding": "oven", "op": "bake",
                   "params": {"hold": {"value": 1e306, "unit": "h"}}}],
    }))
    for command, extra in (("validate", []), ("plan", []),
                           ("run", ["--out", str(tmp_path / "runs")])):
        assert main([command, str(spec), "--lab", lab, *extra]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line + "\n")
    assert sorted(os.listdir(tmp_path)) == ["lab.json", "spec.json"]


_HOT_TCELL = {"device_id": "tcell_1", "capability": "tcell",
              "observed": {"temperature": {"value": 370, "unit": "K"}}}


def _scan_files(tmp_path, *devices):
    lab_path, spec_path = tmp_path / "lab.json", tmp_path / "spec.json"
    lab_path.write_text(json.dumps(tcell_lab(*devices)))
    spec_path.write_text(json.dumps(SCAN_SPEC))
    return str(lab_path), str(spec_path)


def test_a_device_observed_unsafe_is_not_planned(tmp_path, capsys):
    """Planning asks the gate every dispatch asks: a cell observed above its
    safety limit is not eligible, so ``plan`` and ``run`` refuse the spec
    before anything is sent."""
    lab, spec = _scan_files(tmp_path, _HOT_TCELL)
    for command, extra in (("plan", []), ("run", ["--out", str(tmp_path / "runs")])):
        assert main([command, spec, "--lab", lab, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "unsatisfiable_binding error $: no eligible device for binding 'a' (tcell)\n"
        )
    assert sorted(os.listdir(tmp_path)) == ["lab.json", "spec.json"]


def test_an_observed_value_the_threshold_cannot_bound_fails_every_command_closed(tmp_path, capsys):
    """370 mL is not a temperature: the lab is refused, not planned on as
    3.7e-4 below a 360 K limit."""
    lab, spec = _scan_files(tmp_path, {**_HOT_TCELL, "observed": {
        "temperature": {"value": 370, "unit": "mL"}}})
    for command, extra in (("validate", []), ("plan", []), ("run", ["--out", str(tmp_path)])):
        err = _usage_error(capsys, [command, spec, "--lab", lab, *extra])
        assert err == (
            f"usage error: lab config {lab} is invalid: ValueError: tcell_1.observed.temperature "
            "in 'mL' (volume) cannot be compared with its safety threshold in 'K' (temperature)\n"
        )
    assert sorted(os.listdir(tmp_path)) == ["lab.json", "spec.json"]


def test_a_safe_device_is_planned_beside_an_unsafe_one(tmp_path, capsys):
    lab, spec = _scan_files(tmp_path, _HOT_TCELL, {"device_id": "tcell_2", "capability": "tcell"})
    assert main(["plan", spec, "--lab", lab]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert {a["device_id"] for a in plan["assignments"]} == {"tcell_2"}
    assert main(["run", spec, "--lab", lab, "--out", str(tmp_path / "runs")]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "completed"


@pytest.mark.parametrize("status", ["warming", "cooling"])
def test_resume_onto_a_device_that_is_not_idle_pauses_with_one_line(tmp_path, capsys, status):
    """The pause comes before the potentiostat is first used; when it has
    since gone warming or cooling (an operator's event appended to the log,
    the checkpoint moved to the epoch after it), the resume stops at its
    connect."""
    out = tmp_path / "paused"
    assert main(["run", SPEC, "--lab", LAB, "--out", str(out), "--inject", "error@1"]) == 3
    run_dir = out / json.loads(capsys.readouterr().out)["run_id"]
    last = json.loads((run_dir / "log.ndjson").read_text().splitlines()[-1])
    event = {"seq": last["seq"] + 1, "time": last["time"], "device_id": "pstat_1",
             "kind": "transition", "payload": {"to": status, "by": "operator"}}
    with open(run_dir / "log.ndjson", "a") as fh:
        fh.write(canonical_json(event) + "\n")
    checkpoint = json.loads((run_dir / "checkpoint.json").read_text())
    checkpoint["state_epoch"] += 1
    (run_dir / "checkpoint.json").write_text(canonical_json(checkpoint))
    code = main(["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["status"] == "paused"
    assert captured.err == f"fault device_error at connect:stat: device {status}\n"
