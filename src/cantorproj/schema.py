"""Shared envelope for certificate files.

Every certificate serializes as ``{type, schema_version, scheme_params,
payload}``.  The scheme parameters (``family.scheme_params``, read from the
generator's own constants) pin the deterministic generation scheme, so a
verifier can refuse certificates produced under a different family.
"""

from __future__ import annotations

from .family import scheme_params

SCHEMA_VERSION = 1


class CertificateFormatError(ValueError):
    """Envelope malformed or produced under an incompatible scheme."""


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
