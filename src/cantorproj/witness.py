"""Witnesses that no closed piece with interior projects openly.

``falsify_restriction`` searches the dense family for a nested pair of base
cylinders shrinking fast enough, then exhibits approximants that the image
of the small rectangle misses even though they belong to the projection of
the piece.  ``verify_witness`` rechecks every clause of such a certificate
using only word arithmetic and the family generators, and names the first
clause that fails.

This module is the verifier kernel: it imports only ``words``, ``family``
and ``schema``, never the projection or certification code, so a verdict
of ``verify`` trusts no more than those modules and this one.
``tests/test_package.py`` walks the imports to hold that line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .family import Family, stable_index
from .schema import CertificateFormatError, unwrap, wrap
from .words import (
    CantorPoint,
    ClopenSet,
    PieceError,
    Rect,
    RectUnion,
    parse_point,
    repr_point,
)


class SearchBudgetExceeded(RuntimeError):
    """The dense-pair scan hit its budget before finding a witness."""

    def __init__(self, stage: str, budget: int) -> None:
        super().__init__(f"search budget {budget} exhausted while picking {stage}")
        self.stage = stage
        self.budget = budget


@dataclass(frozen=True)
class MissingApproximant:
    """An approximant absent from the small image, with in-piece evidence."""

    index: int
    point: CantorPoint
    evidence: CantorPoint


@dataclass(frozen=True)
class WitnessCertificate:
    """Everything needed to recheck the non-openness argument.

    The coarse base sits inside the second factor; the fine base is a strict
    refinement less than half its diameter.  The witness point lies in the
    small rectangle, while the listed approximants of the fine sequence
    converge to its first coordinate from inside the projected piece.
    """

    n_coarse: int
    n_fine: int
    rect: Rect
    piece_complement: RectUnion
    witness_x: CantorPoint
    witness_y: CantorPoint
    base_coarse: str
    base_fine: str
    missing: tuple[MissingApproximant, ...]


def rect_outside(complement: RectUnion, rect: Rect) -> bool:
    """Whether the rectangle avoids the piece complement entirely."""
    return all(
        rect.x_set.intersect(r.x_set).is_empty()
        or rect.y_set.intersect(r.y_set).is_empty()
        for r in complement.rects
    )


def _first_index(
    fam: Family, x_set: ClopenSet, bases: ClopenSet, start: int, budget: int, stage: str
) -> int:
    # The least n in [start, budget) whose base cylinder lies in bases and
    # whose x point lies in x_set.  The base word is tested first, then the
    # x head's digits to the set's depth: no pair or point is built.
    depth = x_set.depth
    for n in range(start, budget):
        if bases.holds_word(fam.base_word(n)) and x_set.holds_word(fam.x_digits(n, depth)):
            return n
    raise SearchBudgetExceeded(stage, budget)


def falsify_restriction(
    fam: Family,
    piece_complement: RectUnion,
    rect: Rect,
    budget: int = 10_000,
    samples: int = 20,
) -> WitnessCertificate:
    """Produce a non-openness witness for the piece at the given rectangle.

    The rectangle must be nonempty and disjoint from the piece complement.
    """
    if rect.is_empty():
        raise PieceError("rectangle misses the space")
    if not rect_outside(piece_complement, rect):
        raise PieceError("rectangle leaves the piece")

    n_coarse = _first_index(fam, rect.x_set, rect.y_set, 0, budget, "the coarse base")
    coarse = fam.base_word(n_coarse)
    coarse_set = ClopenSet((coarse,))
    # Each nonempty word is the base of one index only, so a base past
    # n_coarse that starts with the coarse word refines it strictly.
    n_fine = _first_index(fam, rect.x_set, coarse_set, n_coarse + 1, budget, "the fine base")
    fine = fam.base_word(n_fine)
    band = coarse_set.minus(ClopenSet((fine,)))
    evidence = repr_point(band.words[0])
    # From stable_index on, every approximant agrees with x_fine to the x
    # factor's depth and so lies in it: only a corrupted family gets here.
    missing, i, bound = [], 0, stable_index(n_fine, rect.x_set.depth) + samples
    while len(missing) < samples:
        if i >= bound:
            raise SearchBudgetExceeded("missing approximants", budget)
        q = fam.approximant(n_fine, i)
        if rect.x_set.member(q):
            missing.append(MissingApproximant(i, q, evidence))
        i += 1

    pair = fam.dense_pair(n_fine)
    return WitnessCertificate(
        n_coarse=n_coarse,
        n_fine=n_fine,
        rect=rect,
        piece_complement=piece_complement,
        witness_x=pair.x,
        witness_y=pair.y,
        base_coarse=coarse,
        base_fine=fine,
        missing=tuple(missing),
    )


def verify_witness(
    fam: Family, cert: WitnessCertificate, samples: int
) -> tuple[bool, str | None]:
    """Recheck every clause; on failure name the first clause violated.

    Geometry is checked against the base words stored in the certificate;
    the final clause ties those words back to the generated family, so a
    certificate from any conforming producer is accepted and any tampering
    is pinned to the clause it breaks.
    """
    coarse = ClopenSet((cert.base_coarse,))
    fine = ClopenSet((cert.base_fine,))

    def clauses():
        yield "n_fine_gt_n_coarse", cert.n_fine > cert.n_coarse
        yield "coarse_base_inside_y_factor", coarse.subset(cert.rect.y_set)
        yield "diameter_gap", 2 * fine.diam() < coarse.diam()
        yield "bases_nested", fine.subset(coarse)
        yield "rect_inside_piece", rect_outside(cert.piece_complement, cert.rect)
        yield "witness_in_rect", cert.rect.x_set.member(cert.witness_x) and fine.member(
            cert.witness_y
        )
        yield "witness_in_x", fam.in_x(cert.witness_x, cert.witness_y)
        pair = fam.dense_pair(cert.n_fine)
        yield "witness_is_dense_pair", cert.witness_x == pair.x and cert.witness_y == pair.y
        # At least one sample, and each a different approximant: repeated
        # or absent entries would count evidence that is not there.  Indices
        # read from a file may be of any JSON type; only integers compare.
        yield "missing_count", 0 < samples <= len(cert.missing)
        checked = cert.missing[:samples]
        indices = [entry.index for entry in checked]
        yield "missing_indices_increasing", all(
            type(i) is int for i in indices
        ) and all(a < b for a, b in zip(indices, indices[1:]))
        for entry in checked:
            tag = f"[i={entry.index}] "
            # Identity with the fine sequence is the exclusion certificate:
            # the removed column of that approximant is the fine base itself,
            # so no second coordinate inside it survives.
            yield tag + "missing_identity", fam.recognize(entry.point) == (
                cert.n_fine,
                entry.index,
            )
            yield tag + "missing_in_x_factor", cert.rect.x_set.member(entry.point)
            yield tag + "evidence_inside_coarse_base", coarse.member(entry.evidence)
            yield tag + "evidence_outside_fine_base", not fine.member(entry.evidence)
            yield tag + "evidence_in_x", fam.in_x(entry.point, entry.evidence)
            yield tag + "evidence_in_piece", not cert.piece_complement.covers(
                entry.point, entry.evidence
            )
        yield "base_words_match", (
            cert.base_coarse == fam.base_word(cert.n_coarse)
            and cert.base_fine == fam.base_word(cert.n_fine)
        )

    for name, ok in clauses():
        if not ok:
            return False, name
    return True, None


def witness_to_dict(cert: WitnessCertificate) -> dict:
    payload = {
        "n_coarse": cert.n_coarse,
        "n_fine": cert.n_fine,
        "rect": cert.rect.as_dict(),
        "piece_complement": cert.piece_complement.as_dict(),
        "witness": {"x": str(cert.witness_x), "y": str(cert.witness_y)},
        "bases": {"coarse": cert.base_coarse, "fine": cert.base_fine},
        "missing": [
            {"i": m.index, "point": str(m.point), "evidence": str(m.evidence)}
            for m in cert.missing
        ],
    }
    return wrap(payload)


def _typed(value, kind: type):
    # JSON booleans are ints to isinstance; only the exact type passes.
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _rect_from_dict(r: dict) -> Rect:
    return Rect(
        ClopenSet(tuple(_typed(r["x"], list))), ClopenSet(tuple(_typed(r["y"], list)))
    )


def _missing_from_dict(m: dict) -> MissingApproximant:
    # The index keeps its JSON type: the verifier's clause rejects non-ints.
    return MissingApproximant(m["i"], parse_point(m["point"]), parse_point(m["evidence"]))


def _field(payload: dict, name: str, parse):
    try:
        return parse(payload[name])
    except (KeyError, TypeError, AttributeError, ValueError) as err:
        raise CertificateFormatError(f"malformed payload field {name!r}: {err!r}") from None


def witness_from_dict(doc: dict) -> WitnessCertificate:
    """Read a certificate written by :func:`witness_to_dict`.

    A missing field, one of a type the verifier cannot compare, or a malformed
    literal raises :class:`CertificateFormatError` naming the payload field, so
    a malformed file is a format error and never a rejection or a traceback.
    """
    payload = unwrap(doc)
    return WitnessCertificate(
        n_coarse=_field(payload, "n_coarse", lambda n: _typed(n, int)),
        n_fine=_field(payload, "n_fine", lambda n: _typed(n, int)),
        rect=_field(payload, "rect", _rect_from_dict),
        piece_complement=_field(
            payload,
            "piece_complement",
            lambda rs: RectUnion(tuple(map(_rect_from_dict, _typed(rs, list)))),
        ),
        witness_x=_field(payload, "witness", lambda w: parse_point(w["x"])),
        witness_y=_field(payload, "witness", lambda w: parse_point(w["y"])),
        base_coarse=_field(payload, "bases", lambda b: _typed(b["coarse"], str)),
        base_fine=_field(payload, "bases", lambda b: _typed(b["fine"], str)),
        missing=_field(
            payload, "missing", lambda ms: tuple(map(_missing_from_dict, _typed(ms, list)))
        ),
    )


def witness_dumps(cert: WitnessCertificate) -> str:
    return json.dumps(witness_to_dict(cert), sort_keys=True, indent=2) + "\n"
