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
    "clean": "3cff3e026f870fef95daf56672dba100097e54eceeae8a3fc2f1cb4f813de4bd",
    "recovered": "bee12ef39172789f7c91cbe8fc6dd38e22dba2b24e357c8720819095a9be76b6",
    "resumed": "1750d0793a1ce7c9c222c90cd5466b86ea557bf0406590ea9b072655ec09baf0",
    "aborted": "e4d00c47a1a5e44212f745dbbbd83a05e6531a50a8fec15379ad42988016034b",
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
