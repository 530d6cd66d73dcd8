import json

import pytest

from eaclab import cli
from eaclab.cli import main

from conftest import CAMPAIGN_PATH, LAB_PATH

LAB = str(LAB_PATH)
SPEC = str(CAMPAIGN_PATH)


def test_validate_ok(capsys):
    assert main(["validate", SPEC, "--lab", LAB]) == 0


def test_validate_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(CAMPAIGN_PATH.read_text())
    doc["steps"][1]["params"]["flow_rate"]["value"] = 99.0
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad), "--lab", LAB]) == 2
    err = capsys.readouterr().err
    assert "out_of_range" in err


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


def test_bad_inject_argument_is_usage_error(tmp_path):
    assert main(
        ["run", SPEC, "--lab", LAB, "--out", str(tmp_path), "--inject", "weird@@"]
    ) == 4


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
    ['{"x": "error"}', '{"5": "melt"}', '{"5": 3}', '[5, "error"]', '"error@5"', "not json"],
)
def test_bad_inject_file_is_usage_error(tmp_path, capsys, content):
    inject = tmp_path / "inject.json"
    inject.write_text(content)
    _usage_error(
        capsys, ["run", SPEC, "--lab", LAB, "--out", str(tmp_path), "--inject", str(inject)]
    )


def test_inject_file_schedules_a_fault(tmp_path, capsys):
    inject = tmp_path / "inject.json"
    inject.write_text('{"5": "error"}')
    code = main(["run", SPEC, "--lab", LAB, "--out", str(tmp_path), "--inject", str(inject)])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "paused"


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


def _paused_run(tmp_path, capsys):
    out = tmp_path / "paused"
    assert main(["run", SPEC, "--lab", LAB, "--out", str(out), "--inject", "error@5"]) == 3
    summary = json.loads(capsys.readouterr().out)
    return out / summary["run_id"]


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
    ],
)
def test_resume_on_damaged_run_dir_is_usage_error(tmp_path, capsys, name, content):
    run_dir = _paused_run(tmp_path, capsys)
    if content is None:
        (run_dir / name).unlink()
    else:
        (run_dir / name).write_text(content)
    _usage_error(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_1"])


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


def test_resume_clear_of_unknown_device_is_usage_error(tmp_path, capsys):
    run_dir = _paused_run(tmp_path, capsys)
    _usage_error(capsys, ["resume", str(run_dir), "--lab", LAB, "--clear", "pump_9"])


@pytest.mark.parametrize("target", ["missing", "file", "empty_dir"])
def test_state_of_a_run_without_event_log_is_usage_error(tmp_path, capsys, target):
    run = {"missing": tmp_path / "nope", "file": CAMPAIGN_PATH, "empty_dir": tmp_path}[target]
    _usage_error(capsys, ["state", "--lab", LAB, "--run", str(run)])


def test_state_of_a_log_with_unknown_event_kind_is_usage_error(tmp_path, capsys):
    (tmp_path / "log.ndjson").write_text(
        '{"seq":0,"time":0,"device_id":"valve_1","kind":"reconcile",'
        '"payload":{"desired":{"dest":{"value":3,"unit":""}}}}\n'
    )
    err = _usage_error(capsys, ["state", "--lab", LAB, "--run", str(tmp_path)])
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
            outcome.append((code, capsys.readouterr().out))
        runs = base / "runs"
        files = [f for f in sorted(runs.rglob("*")) if f.is_file()]
        outcome.append([(f.relative_to(runs), f.read_bytes()) for f in files])
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1]
    assert [code for code, _ in outcomes[0][:3]] == [0, 0, 0]
    assert outcomes[0][3]


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
    """The parser built on the first call serves every later call alike."""
    cli.build_parser.cache_clear()
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
    assert cli.build_parser.cache_info().misses == 1
