"""Witnesses that no closed piece with interior projects openly.

``falsify_restriction`` searches the dense family for a nested pair of base
cylinders shrinking fast enough, then exhibits approximants that the image
of the small rectangle misses even though they belong to the projection of
the piece.  ``verify_witness`` rechecks every clause of such a certificate
using only word arithmetic and the family generators, and names the first
clause that fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .certify import decompose
from .family import Family
from .images import (
    ImageSet,
    PieceError,
    Rect,
    RectUnion,
    image_member,
    image_trace,
    project_rect,
    project_union,
)
from .schema import CertificateFormatError, unwrap, wrap
from .words import CantorPoint, ClopenSet, all_words, parse_point, repr_point


class SearchBudgetExceeded(RuntimeError):
    """The dense-pair scan hit its budget before finding a witness."""

    def __init__(self, stage: str, budget: int) -> None:
        super().__init__(f"search budget {budget} exhausted while picking {stage}")
        self.stage = stage
        self.budget = budget


class NonMonotoneTraceError(RuntimeError):
    """The open-part trace of a growing union shrank."""


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

    n_coarse = None
    for n in range(budget):
        word = fam.base_word(n)
        if rect.x_set.member(fam.dense_pair(n).x) and ClopenSet((word,)).subset(rect.y_set):
            n_coarse = n
            break
    if n_coarse is None:
        raise SearchBudgetExceeded("the coarse base", budget)

    coarse = fam.base_word(n_coarse)
    n_fine = None
    for n in range(n_coarse + 1, budget):
        word = fam.base_word(n)
        if (
            len(word) > len(coarse)
            and word.startswith(coarse)
            and rect.x_set.member(fam.dense_pair(n).x)
        ):
            n_fine = n
            break
    if n_fine is None:
        raise SearchBudgetExceeded("the fine base", budget)

    fine = fam.base_word(n_fine)
    band = ClopenSet((coarse,)).minus(ClopenSet((fine,)))
    evidence = repr_point(band.words[0])
    missing = []
    i = 0
    while len(missing) < samples:
        if i > 1000 + 10 * samples:
            raise SearchBudgetExceeded("missing approximants", budget)
        q = fam.approximant(n_fine, i).point
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
    except (KeyError, TypeError, AttributeError) as err:
        raise CertificateFormatError(f"malformed payload field {name!r}: {err!r}") from None


def witness_from_dict(doc: dict) -> WitnessCertificate:
    """Read a certificate written by :func:`witness_to_dict`.

    A missing field, or one of a type the verifier cannot compare, raises
    :class:`CertificateFormatError` naming the payload field, so a malformed
    file is a format error and never a rejection or a traceback.
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


# -- scattered families ---------------------------------------------------


def scattered_check(members: list[ClopenSet], depth: int) -> tuple[bool, dict]:
    """Check the family is scattered using isolating sets of bounded depth.

    Every nonempty subfamily must contain a member that a union of depth-d
    cylinders isolates from the rest.  Returns the full assignment, or the
    first subfamily with no isolated member.
    """
    if not 1 <= len(members) <= 12:
        raise PieceError("family size must be between 1 and 12")
    for j, m in enumerate(members):
        if m.is_empty():
            raise PieceError(f"member {j} is empty")
        for k in range(j + 1, len(members)):
            if not m.intersect(members[k]).is_empty():
                raise PieceError(f"members {j} and {k} overlap")
    words = all_words(depth)
    meets = [
        {w for w in words if not ClopenSet((w,)).intersect(m).is_empty()}
        for m in members
    ]
    assignments = []
    for mask in range(1, 2 ** len(members)):
        sub = [j for j in range(len(members)) if mask >> j & 1]
        found = None
        for t0 in sub:
            blocked = set().union(*(meets[j] for j in sub if j != t0))
            isolating = ClopenSet(tuple(w for w in words if w not in blocked))
            if members[t0].subset(isolating):
                found = {"members": sub, "isolated": t0, "witness": list(isolating.words)}
                break
        if found is None:
            return False, {"members": sub}
        assignments.append(found)
    return True, {"assignments": assignments}


# -- piecewise openness ---------------------------------------------------


def _region_rects(rect: Rect, complement: RectUnion) -> list[Rect]:
    """The rectangle minus the complement, one rectangle per column of a common grid."""
    dx = max([rect.x_set.depth()] + [r.x_set.depth() for r in complement.rects])
    out = []
    for wx in all_words(dx):
        col = ClopenSet((wx,))
        if col.intersect(rect.x_set).is_empty():
            continue
        ys = rect.y_set
        for r in complement.rects:
            if col.subset(r.x_set):
                ys = ys.minus(r.y_set)
        if not ys.is_empty():
            out.append(Rect(col, ys))
    return out


def _pieces_disjoint(cover: list[RectUnion]) -> bool:
    for s in range(len(cover)):
        for t in range(s + 1, len(cover)):
            joined = RectUnion(cover[s].rects + cover[t].rects)
            if _region_rects(Rect(ClopenSet(("",)), ClopenSet(("",))), joined):
                return False
    return True


def piecewise_open_check(
    fam: Family, cover: list[RectUnion], depth: int, samples: int = 3
) -> tuple[bool, dict | None]:
    """Look for a piece and rectangle whose image trace is not relatively open.

    Pieces are given by their open complements inside the square.  For each
    piece and each basic rectangle of bounded depth, the exact image of the
    clipped rectangle is decomposed; an isolated limit point whose dropped
    approximants re-enter the projection of the piece is a violation and is
    returned as a mini certificate.  A clean scan only means no violation at
    this depth.
    """
    if not _pieces_disjoint(cover):
        raise PieceError("pieces are not pairwise disjoint")
    basics = [w for d in range(depth + 1) for w in all_words(d)]
    for idx, complement in enumerate(cover):
        for wx in basics:
            for wy in basics:
                region = _region_rects(
                    Rect(ClopenSet((wx,)), ClopenSet((wy,))), complement
                )
                if not region:
                    continue
                img = ImageSet(
                    tuple(project_rect(fam, r.x_set, r.y_set) for r in region)
                )
                dec = decompose(fam, img)
                for iso in dec.isolated:
                    found = _piece_evidence(fam, img, complement, iso.seq, samples)
                    if found:
                        return False, {
                            "piece": idx,
                            "rect": {"x": wx, "y": wy},
                            "seq": iso.seq,
                            "limit": str(iso.point),
                            "samples": found,
                        }
    return True, None


def _piece_evidence(
    fam: Family, img: ImageSet, complement: RectUnion, seq: int, samples: int
) -> list[dict]:
    """Missing approximants of the sequence that the piece still projects."""
    base = ClopenSet((fam.base_word(seq),))
    out: list[dict] = []
    for i in range(samples + 30):
        if len(out) >= samples:
            break
        q = fam.approximant(seq, i).point
        if image_member(fam, img, q):
            continue
        blocked = base
        for r in complement.rects:
            if r.x_set.member(q):
                blocked = blocked.union(r.y_set)
        free = blocked.complement()
        if free.is_empty():
            continue
        y = repr_point(free.words[0])
        out.append({"i": i, "point": str(q), "evidence": str(y)})
    return out


# -- stabilization --------------------------------------------------------


def stabilization_probe(fam: Family, rects: list[Rect], depth: int) -> dict:
    """Track the image decomposition along growing prefixes of a stream.

    The open-part trace must grow monotonically; isolated points may migrate
    into the open part as later rectangles restore their approximants.
    """
    steps = []
    prev_trace: set[str] = set()
    prev_iso: set[str] = set()
    for k in range(1, len(rects) + 1):
        img = project_union(fam, RectUnion(tuple(rects[:k])))
        dec = decompose(fam, img)
        trace = set(image_trace(fam, dec.open_part, depth))
        iso = {str(d.point) for d in dec.isolated}
        if not prev_trace <= trace:
            raise NonMonotoneTraceError(
                f"open-part trace shrank at step {k}: lost {sorted(prev_trace - trace)}"
            )
        steps.append(
            {
                "step": k,
                "open_trace": sorted(trace),
                "isolated": sorted(iso),
                "arrived": sorted(iso - prev_iso),
                "departed": sorted(prev_iso - iso),
            }
        )
        prev_trace, prev_iso = trace, iso
    return {"depth": depth, "steps": steps}
