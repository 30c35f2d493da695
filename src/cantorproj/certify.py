"""Certified structure of projection images.

Every image splits into an open part plus finitely many isolated limit
points, a closed set; this module computes that split, which is the image's
LC₂ presentation, certifies it, and tests clopen windows for resolvability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import Family, stable_index
from .images import (
    ImageSet,
    TailSet,
    adjust_open,
    canonical,
    image_member,
    removal_sequences,
    settled_index,
)
from .words import CantorPoint, ClopenSet, PieceError, all_words, repr_point, separation_depth


class CertificationError(RuntimeError):
    """An internally produced certificate failed its own check."""


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


def _isolated_records(form: ImageSet) -> list[TailSet]:
    """Records of a normal form that miss a tail of approximants and keep their limit."""
    return [ts for ts in form.pieces[0].removals if ts.start is not None and not ts.with_limit]


def decompose(fam: Family, img: ImageSet) -> Decomposition:
    """Split an image into its open part and isolated limit points.

    Raises :class:`CertificationError` if any certificate check fails,
    which would indicate a bug rather than bad input.
    """
    # An isolated point is a limit the image holds while it misses a tail of
    # that limit's approximants, read off the image's normal form.  Adjusting
    # keeps each piece's place in the canonical order, so the open part lists
    # its pieces in the image's order.
    want = canonical(fam, img)
    open_part = ImageSet(tuple(adjust_open(p) for p in img.pieces))
    records = {ts.seq: ts for ts in _isolated_records(want)}
    points = {n: fam.dense_pair(n).x for n in records}
    isolated = []
    for n, x in points.items():
        depth = 1 + max(
            (separation_depth(x, y) for m, y in points.items() if m != n),
            default=0,
        )
        # From ``stable_index(n, depth)`` on every approximant starts with the
        # separator; the image misses the first one that the record covers or
        # the hull misses, at the tail start at the latest.
        start, ts = stable_index(n, depth), records[n]
        missing = next(i for i in range(start, max(start, ts.start) + 1)
                       if ts.covers_index(i) or not img.hull.member(fam.approximant(n, i)))
        isolated.append(IsolatedPoint(n, x, x.digits(depth), missing))
    dec = Decomposition(open_part, tuple(isolated))
    _certify_decomposition(fam, img, dec, want)
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


def _certify_decomposition(fam: Family, img: ImageSet, dec: Decomposition, want: ImageSet) -> None:
    """Recheck the split per isolated point, then as one equality with ``want``, the
    image's normal form.  Unequal forms mean unequal sets, which differ on the hulls at
    a point ending in 2^ω, which no record removes, or at an approximant up to a settled
    index or at a limit; the error names the first such point, where ``image_member``
    disagrees.  Equal forms leave the open part's openness to check."""
    removed = frozenset(removal_sequences(img))
    for d in dec.isolated:
        if d.seq < 0 or d.missing_index < 0:
            raise CertificationError(f"isolated entry of sequence {d.seq} has a negative index")
        if image_member(fam, dec.open_part, d.point):
            raise CertificationError(f"isolated point of sequence {d.seq} is in the open part")
        if not image_member(fam, img, d.point):
            raise CertificationError(f"isolated point of sequence {d.seq} is not in the image")
        if d.seq not in removed:  # bounds seq before its pair is read
            raise CertificationError(f"isolated entry of sequence {d.seq} has no removal")
        if d.point != fam.dense_pair(d.seq).x:
            raise CertificationError(f"isolated point of sequence {d.seq} is not its limit")
        if not d.point.starts_with(d.separator):
            raise CertificationError(f"separator misses its own point ({d.seq})")
        for other in dec.isolated:
            if other.seq != d.seq and other.point.starts_with(d.separator):
                raise CertificationError(
                    f"separator of {d.seq} also contains the point of {other.seq}"
                )
        # Past both bounds membership and the separator test are constant.
        bound = max(settled_index(img, d.seq), stable_index(d.seq, len(d.separator)))
        missing = fam.approximant(d.seq, min(d.missing_index, bound))
        if not missing.starts_with(d.separator) or image_member(fam, img, missing):
            raise CertificationError(f"missing-approximant witness broken for {d.seq}")
    held = frozenset(d.seq for d in dec.isolated)
    got = canonical(fam, dec.open_part, held)
    if got != want:
        both = ImageSet(got.pieces + img.pieces)
        points = [CantorPoint(w, "2") for w in both.hull.minus(got.hull.intersect(img.hull)).words]
        for n in removal_sequences(both):
            points += [fam.approximant(n, i) for i in range(settled_index(both, n) + 1)]
            points.append(fam.dense_pair(n).x)
        p = next(p for p in points if image_member(fam, got, p) != image_member(fam, img, p))
        raise CertificationError(f"reconstruction differs at {p}")
    for ts in _isolated_records(got):  # a limit of points that the open part misses
        if ts.seq not in held:
            raise CertificationError(f"open part is not open at {fam.dense_pair(ts.seq).x}")


def lc2_certificate(fam: Family, img: ImageSet) -> Decomposition:
    """The same as :func:`decompose`, kept only for ``bench/workloads.py``."""
    return decompose(fam, img)


def lc2_valid(
    fam: Family, img: ImageSet, dec: Decomposition, probe_depth: int = 4,
    extra_points: tuple[CantorPoint, ...] = (),
) -> bool:
    """Whether the split passes :func:`decompose`'s exact recheck and, as a cross-check,
    matches the image at the depth-4 representatives.  ``probe_depth`` and
    ``extra_points`` are kept only for ``bench/workloads.py``, which also probes
    its certificate points."""
    try:
        _certify_decomposition(fam, img, dec, canonical(fam, img))
    except CertificationError:
        return False
    probes = (*map(repr_point, all_words(probe_depth)), *extra_points)
    return all(decomposition_member(fam, dec, p) == image_member(fam, img, p) for p in probes)


@dataclass(frozen=True)
class ClosureSplit:
    """The clopen parts of the closures of F intersect E and F minus E, for clopen F."""

    inter_hull: ClopenSet
    diff_clopen: ClopenSet


def closure_split(fam: Family, img: ImageSet, f: ClopenSet) -> ClosureSplit:
    # Kept for the benchmark's ``certify.closure_splits`` counter (``bench/run.py``).
    # Each piece is dense in its hull, so the closure of F & E is hull & F, and
    # F - E adds only countably many points to F & outside.
    return ClosureSplit(img.hull.intersect(f), f.intersect(img.outside))


def resolvable_probe(fam: Family, img: ImageSet, f: ClopenSet) -> bool:
    """True iff cl(F and E) intersect cl(F minus E) is not all of F.

    The intersection is a clopen core plus countably many points; a nonempty
    clopen set is uncountable, so the intersection exhausts F exactly when F
    already sits inside the clopen core.

    The core is ``inter_hull & (F - hull)``, the two clopen parts of
    :func:`closure_split`, with ``F - hull`` taken as F intersect the
    complement the image keeps.  It is empty: ``inter_hull``, the union of
    ``piece.hull & F``, lies inside the image hull, and ``F - hull`` lies
    outside it.  The intersection of the closures is therefore countable,
    never all of a nonempty F, and every image is resolvable.
    """
    if f.is_empty():
        raise PieceError("resolvability probe needs a nonempty closed set")
    core = img.hull.intersect(f).intersect(f.intersect(img.outside))
    return not f.subset(core)
