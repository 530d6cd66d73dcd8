"""Run-artifact fingerprint: executor and CLI changes must not move a run.

The reference campaign is run through ``eaclab.cli.main`` clean under
both policies, and with every fault kind injected at every operation
dispatch index of the clean batched run. Paused runs are resumed with
``--clear`` of the faulted device. Each command's exit code, stdout and
stderr, and the sha256 of every file its run directory holds, go into
one digest per group:

- clean: the fault-free fifo and batched runs;
- recovered: injections retried in place, so the run completes;
- resumed: injections that pause, the paused run and then its resume;
- aborted: injections that abort and tear down.

A change meant to move outputs must say so and update the digest of the
group it moves; the other groups show that nothing else moved.
"""

import hashlib
import json

import pytest

from conftest import CAMPAIGN_PATH, LAB_PATH, run_main

LAB = str(LAB_PATH)
SPEC = str(CAMPAIGN_PATH)
INJECT_KINDS = ("timeout", "error", "noliquid", "implicit")

RUN_FINGERPRINTS = {
    "clean": "28a5cf61d5aef8439e99349895f9954641cfa7d74dd3adefebbdadd1f1ae35c7",
    "recovered": "ee5975e53c2ea14334246b079ca77685d90a452c4f5cd7e04eea24f8fc4dbdd3",
    "resumed": "2b94f5b0dd07705278f6ac67250ec0db8b25966317676b1c8491a531d6a39fd8",
    "aborted": "a473a810e3013721218ae9d9366623ddffc68c124e7768a459131b1f59231165",
}


def _record(digest, label, call, run_dir):
    code, out, err = call
    digest.update(f"{label} exit={code}\n{out}{err}".encode("utf-8"))
    for path in sorted(run_dir.iterdir()):
        file_digest = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{path.name} {file_digest}\n".encode("utf-8"))


def _run(base, name, *extra):
    out = base / name
    call = run_main(["run", SPEC, "--lab", LAB, "--out", str(out), *extra])
    summary = json.loads(call[1])
    return call, summary, out / summary["run_id"]


def _operation_dispatches(run_dir):
    indices = []
    for line in (run_dir / "log.ndjson").read_text().splitlines():
        event = json.loads(line)
        if event["kind"] == "dispatch" and "frame" in event["payload"]:
            indices.append(event["payload"]["index"])
    return indices


def _faulted_device(run_dir):
    events = [json.loads(line) for line in (run_dir / "log.ndjson").read_text().splitlines()]
    return [e for e in events if e["kind"] == "fault"][-1]["device_id"]


def fingerprints(base):
    """Digest per group of the reference campaign's runs under ``base``."""
    groups = {name: hashlib.sha256() for name in RUN_FINGERPRINTS}
    clean_dir = None
    for policy in ("fifo", "batched"):
        call, _, clean_dir = _run(base, f"clean-{policy}", "--policy", policy)
        _record(groups["clean"], f"clean {policy}", call, clean_dir)
    for kind in INJECT_KINDS:
        for index in _operation_dispatches(clean_dir):
            label = f"{kind}@{index}"
            call, summary, run_dir = _run(base, label, "--inject", label)
            if summary["status"] == "completed":
                _record(groups["recovered"], label, call, run_dir)
            elif summary["status"] == "aborted":
                _record(groups["aborted"], label, call, run_dir)
            else:
                _record(groups["resumed"], label, call, run_dir)
                device = _faulted_device(run_dir)
                resumed = run_main(["resume", str(run_dir), "--lab", LAB, "--clear", device])
                _record(groups["resumed"], f"{label} resumed", resumed, run_dir)
    return {name: digest.hexdigest() for name, digest in groups.items()}


@pytest.fixture(scope="module")
def run_fingerprints(tmp_path_factory):
    return fingerprints(tmp_path_factory.mktemp("fingerprint"))


@pytest.mark.parametrize("group", sorted(RUN_FINGERPRINTS))
def test_run_fingerprint_is_unchanged(run_fingerprints, group):
    assert run_fingerprints[group] == RUN_FINGERPRINTS[group]
