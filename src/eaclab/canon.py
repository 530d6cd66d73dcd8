"""Canonical JSON serialization and content hashing.

Every on-disk artifact (specs, plans, snapshots, log lines) goes through
these helpers so that equal values always serialize to identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)

if c_make_encoder is None:  # an interpreter without the ``_json`` accelerator

    def canonical_json(obj: object) -> str:
        return _ENCODER.encode(obj)

else:
    # The C encoder ``json.dumps`` builds anew per call, built once: the same
    # bytes and errors, but without circular-reference markers, since nothing
    # eaclab encodes is cyclic.
    _encode = c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, None, ":", ",", True, False, False
    )

    def canonical_json(obj: object) -> str:
        return "".join(_encode(obj, 0))


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
