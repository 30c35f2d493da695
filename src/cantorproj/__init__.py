"""Exact counterexample lab for projections over the ternary Cantor set.

Everything is computed in exact arithmetic over eventually periodic ternary
words: a deterministic dense family with tagged approximant sequences, the
punctured product space, exact projection images with their open-plus-isolated
decompositions, and machine-checkable witnesses that the projection restricted
to a closed piece with interior is never an open map onto its image.
"""

from .words import (
    CantorPoint,
    ClopenSet,
    PieceError,
    Rect,
    RectUnion,
    WordError,
    all_words,
    parse_clopen,
    parse_point,
    parse_rect_union,
    repr_point,
)
from .family import Family, FamilyError
from .images import ImageSet, image_member, image_trace, project_union
from .certify import (
    CertificationError,
    NonMonotoneTraceError,
    decompose,
    lc2_certificate,
    lc2_valid,
    piecewise_open_check,
    resolvable_probe,
    scattered_check,
    stabilization_probe,
)
from .witness import (
    SearchBudgetExceeded,
    WitnessCertificate,
    falsify_restriction,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)
from .schema import CertificateFormatError
from .suites import RunConfig, run_all

__version__ = "0.1.0"

__all__ = [
    "CantorPoint",
    "CertificateFormatError",
    "CertificationError",
    "ClopenSet",
    "Family",
    "FamilyError",
    "ImageSet",
    "NonMonotoneTraceError",
    "PieceError",
    "Rect",
    "RectUnion",
    "RunConfig",
    "SearchBudgetExceeded",
    "WitnessCertificate",
    "WordError",
    "all_words",
    "decompose",
    "falsify_restriction",
    "image_member",
    "image_trace",
    "lc2_certificate",
    "lc2_valid",
    "parse_clopen",
    "parse_point",
    "parse_rect_union",
    "piecewise_open_check",
    "project_union",
    "repr_point",
    "resolvable_probe",
    "run_all",
    "scattered_check",
    "stabilization_probe",
    "verify_witness",
    "witness_from_dict",
    "witness_to_dict",
]
