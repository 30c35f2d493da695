"""Exact projection images of rectangles inside the punctured square.

The first-coordinate projection of a clopen rectangle intersected with the
punctured square is a clopen set minus an explicitly described countable set
of approximants.  ``ImagePiece`` records one rectangle's image as its clopen
hull together with per-sequence removal descriptions (``TailSet``); an
``ImageSet`` is a finite union of pieces with union semantics, so a point
removed in one piece but present in another belongs to the set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .family import Family, stable_index
from .words import CantorPoint, ClopenSet, PieceError, RectUnion, all_words, repr_point


@dataclass(frozen=True)
class TailSet:
    """Removed members of one approximant sequence.

    ``{approximant(seq, i) : i >= start}`` when ``start`` is not None, plus
    the sporadic indices in ``extras``; with ``with_limit`` the limit point
    of the sequence is removed as well.  The closure of the denoted set adds
    exactly the limit when an infinite tail is present.
    """

    seq: int
    start: int | None
    extras: frozenset[int] = frozenset()
    with_limit: bool = False

    def __post_init__(self) -> None:
        if self.start is not None:
            bad = {i for i in self.extras if i >= self.start}
            if bad:
                raise PieceError(f"extras must precede the tail start: {sorted(bad)}")

    def covers_index(self, i: int) -> bool:
        if self.start is not None and i >= self.start:
            return True
        return i in self.extras

    def sort_key(self) -> tuple:
        return (self.seq, -1 if self.start is None else self.start,
                tuple(sorted(self.extras)), self.with_limit)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "start": self.start,
            "extras": sorted(self.extras),
            "with_limit": self.with_limit,
        }


@dataclass(frozen=True)
class ImagePiece:
    """Clopen hull minus the listed removals."""

    hull: ClopenSet
    removals: tuple[TailSet, ...] = ()

    def sort_key(self) -> tuple:
        return (self.hull.words, tuple(ts.sort_key() for ts in self.removals))

    def as_dict(self) -> dict:
        return {
            "hull": list(self.hull.words),
            "removals": [ts.as_dict() for ts in self.removals],
        }


@dataclass(frozen=True)
class ImageSet:
    """Union of image pieces, in a canonical order."""

    pieces: tuple[ImagePiece, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pieces", tuple(sorted(self.pieces, key=ImagePiece.sort_key))
        )

    # Both are kept in the instance __dict__, outside the fields, ==, hash
    # and repr.
    @cached_property
    def hull(self) -> ClopenSet:
        """Union of the piece hulls, computed on first use and kept."""
        return ClopenSet(tuple(w for p in self.pieces for w in p.hull.words))

    @cached_property
    def outside(self) -> ClopenSet:
        """Complement of the hull, computed on first use and kept."""
        return self.hull.complement()

    def as_dict(self) -> dict:
        return {"pieces": [p.as_dict() for p in self.pieces]}


def fin_indices(fam: Family, y_set: ClopenSet) -> tuple[int, ...]:
    """Sequences whose base cylinder contains the whole second factor.

    A normalized clopen set sits inside a cylinder iff that cylinder's word
    is a prefix of the common prefix of its words, so the answer is the
    finite chain of nonempty prefixes of that common prefix.
    """
    if y_set.is_empty():
        raise PieceError("second factor is empty")
    lcp = y_set.common_prefix()
    return tuple(fam.base_index(lcp[:k]) for k in range(1, len(lcp) + 1))


def project_rect(fam: Family, x_set: ClopenSet, y_set: ClopenSet) -> ImagePiece:
    """Image of (x_set x y_set) within the space, projected on coordinate 1.

    A point survives iff some y in the second factor avoids its removed
    column; that fails exactly for approximants of the finitely many
    sequences whose base swallows the whole second factor.  A removal has
    an infinite tail only when the hull holds the sequence's limit.
    """
    if x_set.is_empty() or y_set.is_empty():
        raise PieceError("empty rectangle factor")
    depth = x_set.depth
    removals = []
    for n in fin_indices(fam, y_set):
        # Beyond this index the approximant agrees with its limit to the
        # full depth of the hull, so membership stabilizes.
        start_min = stable_index(n, depth)
        extras = frozenset(
            i for i in range(start_min) if x_set.member(fam.approximant(n, i))
        )
        if x_set.member(fam.dense_pair(n).x):
            removals.append(TailSet(n, start_min, extras))
        elif extras:
            removals.append(TailSet(n, None, extras))
    return ImagePiece(x_set, tuple(sorted(removals, key=TailSet.sort_key)))


def project_union(fam: Family, u: RectUnion) -> ImageSet:
    return ImageSet(tuple(project_rect(fam, r.x_set, r.y_set) for r in u.rects))


def piece_member(fam: Family, piece: ImagePiece, p: CantorPoint) -> bool:
    """Hull membership minus removals; a piece without removals skips recognition."""
    if not piece.hull.member(p):
        return False
    if not piece.removals:
        return True
    for ts in piece.removals:
        if ts.with_limit and p == fam.dense_pair(ts.seq).x:
            return False
    hit = fam.recognize(p)
    if hit is None:
        return True
    n, i = hit
    return not any(ts.seq == n and ts.covers_index(i) for ts in piece.removals)


def image_member(fam: Family, img: ImageSet, p: CantorPoint) -> bool:
    for piece in img.pieces:
        if piece_member(fam, piece, p):
            return True
    return False


def image_trace(fam: Family, img: ImageSet, depth: int) -> tuple[str, ...]:
    """Depth-d cylinders whose canonical representative lies in the image."""
    return tuple(
        w for w in all_words(depth) if image_member(fam, img, repr_point(w))
    )


def removal_sequences(img: ImageSet) -> tuple[int, ...]:
    """Sequences with a removal record in some piece, in increasing order."""
    return tuple(sorted({ts.seq for p in img.pieces for ts in p.removals}))


def settled_index(img: ImageSet, n: int) -> int:
    """An index from which membership of ``approximant(n, i)`` is constant.

    From ``stable_index`` of the deepest hull on, the approximants lie in
    exactly the hulls that hold the limit, and past every tail start and
    sporadic index each piece removes all of them or none.
    """
    return max(
        [stable_index(n, max([0] + [p.hull.depth for p in img.pieces]))]
        + [ts.start for p in img.pieces for ts in p.removals
           if ts.seq == n and ts.start is not None]
        + [i + 1 for p in img.pieces for ts in p.removals
           if ts.seq == n for i in ts.extras]
    )


def canonical(fam: Family, img: ImageSet, held: frozenset[int] = frozenset()) -> ImageSet:
    """The image with the limits of ``held`` put back, in normal form, so that equal
    sets have equal forms.  It is one piece: the hull and, per sequence, the indices
    up to the settled index whose approximant the hull holds and the set misses, the
    least start of an infinite tail of them, and the limit if the set misses it."""
    hull, removals = img.hull, []
    for n in removal_sequences(img):
        last, x = settled_index(img, n), fam.dense_pair(n).x
        off = [i for i in range(last + 1)
               if hull.member(q := fam.approximant(n, i)) and not image_member(fam, img, q)]
        start = None
        while off and off[-1] == (last if start is None else start - 1):
            start = off.pop()
        with_limit = n not in held and hull.member(x) and not image_member(fam, img, x)
        if off or start is not None or with_limit:
            removals.append(TailSet(n, start, frozenset(off), with_limit))
    return ImageSet((ImagePiece(hull, tuple(removals)),))


def adjust_open(piece: ImagePiece) -> ImagePiece:
    """Remove the limit of every infinite tail, keeping the removal order.

    :func:`project_rect` records an infinite tail only when the hull holds
    its limit, so the adjusted piece is its hull minus a countable closed
    set, an open set; under union semantics the dropped limits are
    recovered by whichever piece keeps them interior.
    """
    return ImagePiece(piece.hull, tuple(
        ts if ts.start is None else replace(ts, with_limit=True)
        for ts in piece.removals
    ))
