"""Exact counterexample lab for projections over the ternary Cantor set.

Everything is computed in exact arithmetic over eventually periodic ternary
words: a deterministic dense family with tagged approximant sequences, the
punctured product space, exact projection images with their open-plus-isolated
decompositions, and machine-checkable witnesses that the projection restricted
to a closed piece with interior is never an open map onto its image.

Each exported name is imported from its module on first use (PEP 562), so
importing the package loads none of its modules.
"""

from importlib import import_module

__version__ = "0.1.0"

_OWNERS = {
    "words": "CantorPoint ClopenSet PieceError Rect RectUnion WordError all_words "
    "parse_clopen parse_point parse_rect_union repr_point",
    "family": "Family FamilyError",
    "images": "ImageSet image_member image_trace project_union",
    "certify": "CertificationError decompose lc2_certificate lc2_valid resolvable_probe",
    "witness": "SearchBudgetExceeded WitnessCertificate falsify_restriction "
    "verify_witness witness_from_dict witness_to_dict",
    "schema": "CertificateFormatError",
    "cli": "RunConfig",
    "suites": "run_all",
}
_EXPORTS = {name: module for module, names in _OWNERS.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
