"""Shared envelope for certificate files, and the bytes of every JSON document.

Every certificate serializes as ``{type, schema_version, scheme_params,
payload}``.  The scheme parameters (``family.scheme_params``, read from the
generator's own constants) pin the deterministic generation scheme, so a
verifier can refuse certificates produced under a different family.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

from .family import SCHEMA_VERSION, scheme_params

# The one spelling of the JSON layout.  ``indent`` keeps it on the
# pure-Python encoder, whose chunks ``iterencode`` hands out one at a time.
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


class CertificateFormatError(ValueError):
    """Envelope malformed or produced under an incompatible scheme."""


def iterdumps(doc: dict) -> Iterator[str]:
    """The bytes of every JSON document the package writes, in order, as the
    encoder makes them, so a writer need not hold the whole document as text."""
    yield from _ENCODER.iterencode(doc)
    yield "\n"


def wrap(payload: dict) -> dict:
    return {
        "type": "witness",
        "schema_version": SCHEMA_VERSION,
        "scheme_params": scheme_params(),
        "payload": payload,
    }


def unwrap(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    if doc.get("type") != "witness":
        raise CertificateFormatError(f"expected a 'witness' certificate, got {doc.get('type')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CertificateFormatError(f"unsupported schema version: {doc.get('schema_version')!r}")
    if doc.get("scheme_params") != scheme_params():
        raise CertificateFormatError("certificate was produced under a different scheme")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise CertificateFormatError("certificate payload must be a JSON object")
    return payload
