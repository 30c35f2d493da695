"""Certified structure of projection images.

Every image splits into an open part plus finitely many isolated limit
points, a closed set; this module computes that split, which is the image's
LC₂ presentation, certifies it, and probes exact closures of clopen slices
through the image.  The scans built on the split live here too: scattered
families, piecewise openness of a closed cover, and the split along a
growing union of rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import Family, stable_index
from .images import (
    ImageSet,
    TailSet,
    adjust_open,
    image_member,
    image_trace,
    project_union,
    removal_sequences,
    settled_index,
)
from .words import (
    WHOLE_SPACE,
    CantorPoint,
    ClopenSet,
    PieceError,
    Rect,
    RectUnion,
    all_words,
    repr_point,
    separation_depth,
)


class CertificationError(RuntimeError):
    """An internally produced certificate failed its own check."""


class NonMonotoneTraceError(RuntimeError):
    """The open-part trace of a growing union shrank."""


@dataclass(frozen=True)
class IsolatedPoint:
    """A limit point kept in the image while its approximants drop out."""

    seq: int
    point: CantorPoint
    separator: str
    missing_index: int

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "point": str(self.point),
            "separator": self.separator,
            "missing_index": self.missing_index,
        }


@dataclass(frozen=True)
class Decomposition:
    """Image = union of certified-open pieces + isolated points."""

    open_part: ImageSet
    isolated: tuple[IsolatedPoint, ...]

    def as_dict(self) -> dict:
        return {
            "open_pieces": [p.as_dict() for p in self.open_part.pieces],
            "isolated": [d.as_dict() for d in self.isolated],
        }


def _missing_in(fam: Family, img: ImageSet, n: int, separator: str) -> int:
    # The separator is a prefix of the limit, so no approximant below
    # ``stable_index(n, len(separator))`` starts with it; the scan skips them.
    # For an isolated n the approximant at the settled index is off the image.
    start = stable_index(n, len(separator))
    for i in range(start, settled_index(img, n, len(separator)) + 1):
        q = fam.approximant(n, i)
        if q.starts_with(separator) and not image_member(fam, img, q):
            return i
    raise CertificationError(f"no missing approximant found for sequence {n}")


def decompose(fam: Family, img: ImageSet) -> Decomposition:
    """Split an image into its open part and isolated limit points.

    Raises :class:`CertificationError` if any certificate check fails,
    which would indicate a bug rather than bad input.
    """
    # An isolated point is a point of the image outside its open part.
    # Adjusting keeps each piece's place in the canonical order, so the open
    # part lists its pieces in the image's order.
    open_part = ImageSet(tuple(adjust_open(p) for p in img.pieces))
    points: dict[int, CantorPoint] = {}
    for n in removal_sequences(img):
        x = fam.dense_pair(n).x
        if image_member(fam, img, x) and not image_member(fam, open_part, x):
            points[n] = x
    isolated = []
    for n, x in points.items():
        depth = 1 + max(
            (separation_depth(x, y) for m, y in points.items() if m != n),
            default=0,
        )
        sep = x.digits(depth)
        isolated.append(IsolatedPoint(n, x, sep, _missing_in(fam, img, n, sep)))
    dec = Decomposition(open_part, tuple(isolated))
    _certify_decomposition(fam, img, dec)
    return dec


def decomposition_member(fam: Family, dec: Decomposition, p: CantorPoint) -> bool:
    if any(d.point == p for d in dec.isolated):
        return True
    return image_member(fam, dec.open_part, p)


def certificate_points(fam: Family, img: ImageSet) -> list[CantorPoint]:
    """Points that exercise every removal record of an image."""
    out: list[CantorPoint] = []
    for piece in img.pieces:
        for ts in piece.removals:
            out.append(fam.dense_pair(ts.seq).x)
            probes = set(ts.extras)
            if ts.start is not None:
                probes.update({max(0, ts.start - 1), ts.start, ts.start + 1})
            else:
                probes.add(max(ts.extras, default=0) + 1)
            for i in sorted(probes):
                out.append(fam.approximant(ts.seq, i))
    return out


def _certify_decomposition(
    fam: Family, img: ImageSet, dec: Decomposition, probes: tuple[CantorPoint, ...] = ()
) -> None:
    """Recheck the split per isolated point, then against the image at the
    isolated points, ``probes`` and the image's certificate points."""
    for d in dec.isolated:
        if image_member(fam, dec.open_part, d.point):
            raise CertificationError(f"isolated point of sequence {d.seq} is in the open part")
        if not d.point.starts_with(d.separator):
            raise CertificationError(f"separator misses its own point ({d.seq})")
        for other in dec.isolated:
            if other.seq != d.seq and other.point.starts_with(d.separator):
                raise CertificationError(
                    f"separator of {d.seq} also contains the point of {other.seq}"
                )
        missing = fam.approximant(d.seq, d.missing_index)
        if not missing.starts_with(d.separator) or image_member(fam, img, missing):
            raise CertificationError(f"missing-approximant witness broken for {d.seq}")
    points = [d.point for d in dec.isolated] + list(probes) + certificate_points(fam, img)
    for p in points:
        if decomposition_member(fam, dec, p) != image_member(fam, img, p):
            raise CertificationError(f"reconstruction differs at {p}")


def lc2_certificate(fam: Family, img: ImageSet) -> Decomposition:
    """The image's LC₂ presentation, which is its decomposition."""
    return decompose(fam, img)


def lc2_valid(
    fam: Family,
    img: ImageSet,
    dec: Decomposition,
    probe_depth: int = 4,
    extra_points: tuple[CantorPoint, ...] = (),
) -> bool:
    """Whether the split passes :func:`decompose`'s recheck, also probed at
    every depth-``probe_depth`` representative and ``extra_points``."""
    probes = (*map(repr_point, all_words(probe_depth)), *extra_points)
    try:
        _certify_decomposition(fam, img, dec, probes)
    except CertificationError:
        return False
    return True


@dataclass(frozen=True)
class ClosureSplit:
    """Exact closures of F intersect E and F minus E for clopen F.

    ``inter_hull`` is the closure of the intersection.  The closure of the
    difference is ``diff_clopen`` plus the listed tails (with their limits)
    and sporadic points.
    """

    inter_hull: ClopenSet
    diff_clopen: ClopenSet
    diff_tails: tuple[TailSet, ...]
    diff_points: tuple[CantorPoint, ...]


def closure_split(fam: Family, img: ImageSet, f: ClopenSet) -> ClosureSplit:
    covered = img.hull
    # Each piece is dense in its hull, which it misses by a countable set,
    # so the closure of F & E is the union of the piece.hull & F.
    inter_hull = covered.intersect(f)
    diff_clopen = f.intersect(img.outside)

    tails: list[TailSet] = []
    points: list[CantorPoint] = []
    for n in removal_sequences(img):
        x = fam.dense_pair(n).x
        stab = settled_index(img, n, f.depth)
        for i in range(stab):
            q = fam.approximant(n, i)
            if f.member(q) and covered.member(q) and not image_member(fam, img, q):
                points.append(q)
        if not (f.member(x) and covered.member(x)):
            continue
        # From the settled index on the image holds every approximant or none.
        if not image_member(fam, img, fam.approximant(n, stab)):
            tails.append(TailSet(n, stab))
            points.append(x)  # limit of the removed tail, hence in the closure
        elif not image_member(fam, img, x):
            points.append(x)
    return ClosureSplit(inter_hull, diff_clopen, tuple(tails), tuple(points))


def resolvable_probe(fam: Family, img: ImageSet, f: ClopenSet) -> bool:
    """True iff cl(F and E) intersect cl(F minus E) is not all of F.

    The intersection is a clopen core plus countably many points; a nonempty
    clopen set is uncountable, so the intersection exhausts F exactly when F
    already sits inside the clopen core.

    The core is ``inter_hull & (F - hull)``, the two clopen parts of
    :func:`closure_split`, computed here from those two clopen sets alone
    (no tails, points or membership tests), with ``F - hull`` taken as F
    intersect the complement the image keeps.  It is empty: ``inter_hull``,
    the union of ``piece.hull & F``, lies inside the image hull, and
    ``F - hull`` lies outside it.  The intersection of the closures is
    therefore countable, never all of a nonempty F, and every image is
    resolvable.
    """
    if f.is_empty():
        raise PieceError("resolvability probe needs a nonempty closed set")
    core = img.hull.intersect(f).intersect(f.intersect(img.outside))
    return not f.subset(core)


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
    dx = max([rect.x_set.depth] + [r.x_set.depth for r in complement.rects])
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
            if _region_rects(Rect(WHOLE_SPACE, WHOLE_SPACE), joined):
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
                img = project_union(fam, RectUnion(tuple(region)))
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
        q = fam.approximant(seq, i)
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
