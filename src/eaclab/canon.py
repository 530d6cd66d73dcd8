"""Canonical JSON serialization and content hashing.

Every on-disk artifact (specs, plans, snapshots, log lines) goes through
these helpers so that equal values always serialize to identical bytes.
"""

from __future__ import annotations

import json

# The one encoder of the package; ``json.dumps`` would build it anew per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj: object) -> str:
    return _ENCODER.encode(obj)


def canonical_bytes(obj: object) -> bytes:
    return canonical_json(obj).encode("utf-8")


def sha256_hex(obj: object) -> str:
    return sha256_text(canonical_json(obj))


def sha256_text(text: str) -> str:
    """Digest of an already serialized artifact; ``sha256_text(canonical_json(x))
    == sha256_hex(x)``, so a caller that writes the text need not encode twice.

    ``hashlib`` is imported on the first hash, so a command that hashes
    nothing (``validate``) never loads it."""
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()
