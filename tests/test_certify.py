"""Open-plus-isolated decompositions, locally-closed form, closure probes."""

import dataclasses
import itertools
import random
import re

import pytest

from cantorproj import (
    CantorPoint,
    ClopenSet,
    Family,
    ImageSet,
    PieceError,
    Rect,
    RectUnion,
    all_words,
    decompose,
    image_member,
    image_trace,
    lc2_valid,
    parse_rect_union,
    project_union,
    repr_point,
    resolvable_probe,
    words,
)
from cantorproj.certify import (
    CertificationError,
    IsolatedPoint,
    _certify_decomposition,
    certificate_points,
    closure_split,
    decomposition_member,
)
from cantorproj.family import stable_index
from cantorproj.images import TailSet, canonical, piece_member, removal_sequences, settled_index
from cantorproj.oracle import TRACE_DEPTH, brute_union_trace
from cantorproj.suites import _random_rect_union, clopen_antichains
from cantorproj.words import flip

WHOLE = ClopenSet(("",))


def img_of(fam, literal):
    return project_union(fam, parse_rect_union(literal))


class TestDecompose:
    def test_deep_missing_scan_work_guard(self, work):
        # Work counts, not wall clock: the missing scan of each isolated
        # point starts at the first approximant that can start with its
        # separator.  base_index('02020202') is 58,310, and reading that
        # sequence's pair grows both columns to 58,311 heads, but only the
        # 8 pairs read are built.  Eager pair points and a scan from 0 built
        # 1,582 approximants and 118,204 points here, and building every
        # scanned pair built 58,311 pairs.
        work.watch(CantorPoint, "__init__", "points")
        fresh = Family()
        dec = decompose(fresh, img_of(fresh, "ε x 02020202"))
        assert [d.missing_index for d in dec.isolated] == [
            0, 7, 9, 73, 76, 466, 472, 470
        ]
        assert work == {"points": 23}
        assert work.sizes(fresh) == {
            "x_heads": 58311, "y_heads": 58311, "pairs": 8, "approximants": 15, "recognitions": 15
        }

    def test_whole_square_trivial(self, fam):
        dec = decompose(fam, img_of(fam, "ε x ε"))
        assert dec.isolated == ()
        assert len(dec.open_part.pieces) == 1
        assert dec.open_part.pieces[0].removals == ()

    def test_single_isolated_limit(self, fam):
        x1 = fam.dense_pair(1).x
        img = img_of(fam, f"{x1.digits(3)} x 00")
        dec = decompose(fam, img)
        assert [iso.seq for iso in dec.isolated] == [1]
        iso = dec.isolated[0]
        assert iso.point == x1
        assert ClopenSet((iso.separator,)).member(x1)
        missing = fam.approximant(1, iso.missing_index)
        assert ClopenSet((iso.separator,)).member(missing)
        assert not image_member(fam, img, missing)

    def test_two_isolated_limits(self, fam):
        img = img_of(fam, "0 x 00")
        dec = decompose(fam, img)
        assert sorted(iso.seq for iso in dec.isolated) == [0, 1]
        seps = [ClopenSet((iso.separator,)) for iso in dec.isolated]
        assert seps[0].intersect(seps[1]).is_empty()

    def test_open_part_omits_isolated_points(self, fam):
        img = img_of(fam, "0 x 00")
        dec = decompose(fam, img)
        for iso in dec.isolated:
            assert not any(
                piece_member(fam, piece, iso.point) for piece in dec.open_part.pieces
            )
            assert decomposition_member(fam, dec, iso.point)

    def test_isolation_matches_holders_rule(self, fam):
        # The reference: a limit is isolated iff some hull holds it and
        # every piece whose hull holds it removes an infinite tail of its
        # approximants.  decompose reads the same thing off the normal form.
        def holders_rule(img, n):
            x = fam.dense_pair(n).x
            holders = [p for p in img.pieces if p.hull.member(x)]
            return bool(holders) and all(
                any(ts.seq == n and ts.start is not None for ts in p.removals)
                for p in holders
            )

        rng = random.Random(1547)
        with_isolated = 0
        for _ in range(300):
            img = project_union(fam, _random_rect_union(rng, 3))
            want = [n for n in removal_sequences(img) if holders_rule(img, n)]
            assert [d.seq for d in decompose(fam, img).isolated] == want
            with_isolated += bool(want)
        assert with_isolated > 30

    def test_union_keeps_limit_interior(self, fam):
        x1 = fam.dense_pair(1).x
        img = img_of(fam, f"{x1.digits(3)} x 00; {x1.digits(3)} x 02")
        dec = decompose(fam, img)
        assert all(iso.seq != 1 for iso in dec.isolated)
        assert decomposition_member(fam, dec, x1)

    def test_pointwise_reconstruction(self, fam):
        for literal in ("0 x 00", "002 x 00; 02 x 2", "2 x 0; 0 x 2", "ε x 00"):
            img = img_of(fam, literal)
            dec = decompose(fam, img)
            probes = certificate_points(fam, img)
            probes += [repr_point(w) for w in ("", "00", "02", "20", "222")]
            for p in probes:
                assert decomposition_member(fam, dec, p) == image_member(fam, img, p)

    def test_tampered_decomposition_detected(self, fam):
        img = img_of(fam, "0 x 00")
        dec = decompose(fam, img)
        chopped = dataclasses.replace(dec, isolated=dec.isolated[:-1])
        lost = dec.isolated[-1].point
        assert image_member(fam, img, lost)
        assert not decomposition_member(fam, chopped, lost)

    @pytest.mark.parametrize(
        "tamper, message, check, literal",
        [
            pytest.param(tamper, message, check, (image or ["0 x 00"])[0], id=name + suffix)
            for name, tamper, message, *image in [
                ("open-part-is-image",
                 lambda img, dec, a, b: dataclasses.replace(dec, open_part=img),
                 "isolated point of sequence 0 is in the open part"),
                ("other-separator",
                 lambda img, dec, a, b: _first_separator(dec, b.separator),
                 "separator misses its own point (0)"),
                ("empty-separator",
                 lambda img, dec, a, b: _first_separator(dec, ""),
                 "separator of 0 also contains the point of 1"),
                ("deep-separator",
                 lambda img, dec, a, b: _first_separator(dec, a.point.digits(10)),
                 "missing-approximant witness broken for 0"),
                ("dropped-point",
                 lambda img, dec, a, b: dataclasses.replace(dec, isolated=(a,)),
                 "reconstruction differs at"),
                # The image holds approximant(2, 30), and no probe lands on it.
                ("sporadic-removal",
                 lambda img, dec, a, b: _first_piece_removes(dec, 2, 30),
                 f"reconstruction differs at {Family().approximant(2, 30)}",
                 "0 x 00; 2 x 2"),
                # The hulls differ, at 2^ω, a point that no record removes.
                ("dropped-piece",
                 lambda img, dec, a, b: dataclasses.replace(
                     dec, open_part=ImageSet(dec.open_part.pieces[:1])),
                 f"reconstruction differs at {CantorPoint('2', '2')}",
                 "0 x 00; 2 x 2"),
                # An extra entry whose limit, x_3 = (20)^ω, is off the hull.
                ("extra-point",
                 lambda img, dec, a, b: dataclasses.replace(dec, isolated=dec.isolated + (
                     IsolatedPoint(3, Family().dense_pair(3).x, "2", 0),)),
                 "isolated point of sequence 3 is not in the image",
                 "0 x 200"),
                # The image as its own open part: the same set, holding x_0
                # while it misses a tail of its approximants.
                ("open-part-not-open",
                 lambda img, dec, a, b: dataclasses.replace(dec, open_part=img, isolated=()),
                 f"open part is not open at {Family().dense_pair(0).x}",
                 "0 x 00; 2 x 2"),
            ]
            for suffix, check in [("", "certify"), ("-lc2_valid", "lc2_valid")]
        ],
    )
    def test_certification_rejects_tampering(self, fam, tamper, message, check, literal):
        # lc2_valid reruns the same recheck, so it rejects every tampering
        # that _certify_decomposition does.
        img = img_of(fam, literal)
        dec = decompose(fam, img)
        a, b = dec.isolated
        tampered = tamper(img, dec, a, b)
        if check == "certify":
            with pytest.raises(CertificationError, match=re.escape(message)):
                _certify_decomposition(fam, img, tampered, canonical(fam, img))
        else:
            assert not lc2_valid(fam, img, tampered)


def _first_separator(dec, separator):
    first = dataclasses.replace(dec.isolated[0], separator=separator)
    return dataclasses.replace(dec, isolated=(first,) + dec.isolated[1:])


def _first_piece_removes(dec, n, i):
    # A sporadic removal of approximant(n, i) in the first open piece.
    first, *rest = dec.open_part.pieces
    removals = sorted(first.removals + (TailSet(n, None, frozenset({i})),), key=TailSet.sort_key)
    first = dataclasses.replace(first, removals=tuple(removals))
    return dataclasses.replace(dec, open_part=ImageSet((first, *rest)))


class TestLC2:
    def test_valid_on_samples(self, fam):
        for literal in ("0 x 00", "002 x 00", "2 x 0; 0 x 2", "ε x ε"):
            img = img_of(fam, literal)
            dec = decompose(fam, img)
            assert lc2_valid(fam, img, dec)

    def test_cover_isolates_points(self, fam):
        # The separators cover the isolated points, one point each.
        img = img_of(fam, "0 x 00")
        dec = decompose(fam, img)
        assert len(dec.isolated) == 2
        for d in dec.isolated:
            held = [e.seq for e in dec.isolated if e.point.starts_with(d.separator)]
            assert held == [d.seq]

    def test_tampered_cover_rejected(self, fam):
        img = img_of(fam, "0 x 00")
        dec = decompose(fam, img)
        bald = dataclasses.replace(dec, isolated=dec.isolated[:-1])
        assert not lc2_valid(fam, img, bald)

    def test_emptied_cover_rejected(self, fam):
        img = img_of(fam, "0 x 00")
        dec = decompose(fam, img)
        flipped = tuple(
            dataclasses.replace(d, separator=flip(d.separator[0]) + d.separator[1:])
            for d in dec.isolated
        )
        assert not lc2_valid(fam, img, dataclasses.replace(dec, isolated=flipped))

    def test_swapped_labels_rejected(self, fam):
        # Each entry names the other sequence's limit and separator, with a
        # missing index that both sequences happen to satisfy: every other
        # check passes, so only binding a point to its sequence rejects it.
        img = img_of(fam, "0 x 200")
        dec = decompose(fam, img)
        a, b = dec.isolated
        assert (a.seq, b.seq) == (5, 8)
        swapped = dataclasses.replace(dec, isolated=(
            dataclasses.replace(a, point=b.point, separator=b.separator, missing_index=1),
            dataclasses.replace(b, point=a.point, separator=a.separator, missing_index=1),
        ))
        assert not lc2_valid(fam, img, swapped)
        message = "isolated point of sequence 5 is not its limit"
        with pytest.raises(CertificationError, match=message):
            _certify_decomposition(fam, img, swapped, canonical(fam, img))


    @pytest.mark.parametrize("field", ["seq", "missing_index"])
    def test_negative_entry_index_rejected(self, fam, field):
        # Rejected as a broken entry, not raised as the family's FamilyError.
        img = img_of(fam, "0 x 200")
        dec = decompose(fam, img)
        entry = dataclasses.replace(dec.isolated[0], **{field: -1})
        bad = dataclasses.replace(dec, isolated=(entry, *dec.isolated[1:]))
        assert not lc2_valid(fam, img, bad)
        with pytest.raises(CertificationError, match="has a negative index"):
            _certify_decomposition(fam, img, bad, canonical(fam, img))

    def test_far_entry_sequence_rejected_before_any_pair(self, work):
        # An entry's sequence must carry a removal of the image, a bound
        # known before any pair is read: seq=10**6 grows no x head.
        fresh = Family()
        img = img_of(fresh, "0 x 200")
        dec = decompose(fresh, img)
        far = dataclasses.replace(dec.isolated[0], seq=10**6)
        bad = dataclasses.replace(dec, isolated=(far, *dec.isolated[1:]))
        before = work.sizes(fresh)
        assert not lc2_valid(fresh, img, bad)
        assert work.sizes(fresh) == before
        with pytest.raises(CertificationError, match="sequence 1000000 has no removal"):
            _certify_decomposition(fresh, img, bad, canonical(fresh, img))

    def test_far_missing_index_checked_at_its_bound(self, monkeypatch):
        # Past settled_index and the separator's stable index, image
        # membership and "starts with the separator" are constant, so index
        # 10**7 gets the verdict of that bound, and no approximant past it,
        # whose word has that many digits, is built.
        fresh = Family()
        img = img_of(fresh, "0 x 200")
        dec = decompose(fresh, img)
        bounds = {d.seq: max(settled_index(img, d.seq), stable_index(d.seq, len(d.separator)))
                  for d in dec.isolated}
        for d in dec.isolated:
            b = bounds[d.seq]
            assert d.missing_index <= b
            assert {fresh.approximant(d.seq, i).starts_with(d.separator)
                    and not image_member(fresh, img, fresh.approximant(d.seq, i))
                    for i in range(b, b + 8)} == {True}
        asked = []
        approximant = Family.approximant

        def recording(self, n, i):
            asked.append((n, i))
            return approximant(self, n, i)

        monkeypatch.setattr(Family, "approximant", recording)
        far = dataclasses.replace(dec, isolated=tuple(
            dataclasses.replace(d, missing_index=10**7) for d in dec.isolated))
        assert lc2_valid(fresh, img, far)
        assert {n for n, _ in asked} >= set(bounds)
        assert all(i <= bounds[n] for n, i in asked if n in bounds)


# Every basic rectangle W x V with |W| + |V| <= 3: 1 + 4 + 12 + 32 of them.
SHALLOW_RECTS = [
    Rect(ClopenSet((wx,)), ClopenSet((wy,)))
    for depth in range(4)
    for dx in range(depth + 1)
    for wx in all_words(dx)
    for wy in all_words(depth - dx)
]


class TestCompleteRange:
    """The LC2 claim over complete finite ranges: every image is an open set plus
    finitely many isolated points, and ``decompose`` rechecks each split exactly."""

    @staticmethod
    def _isolated_counts(fam, images):
        counts = [len(decompose(fam, img).isolated) for img in images]
        return counts.count(0), len(counts) - counts.count(0), sum(counts)

    def test_rectangles_of_depth_two_factors(self, fam):
        factors = clopen_antichains(2)
        images = [project_union(fam, RectUnion((Rect(x, y),))) for x in factors for y in factors]
        assert len(images) == 225
        # (open images, images with isolated points, isolated points)
        assert self._isolated_counts(fam, images) == (169, 56, 80)

    def test_unions_of_two_shallow_basic_rectangles(self, fam):
        unions = [RectUnion(pair) for pair in itertools.combinations(SHALLOW_RECTS, 2)]
        assert (len(SHALLOW_RECTS), len(unions)) == (49, 1176)
        images = [project_union(fam, u) for u in unions]
        assert self._isolated_counts(fam, images) == (530, 646, 1192)
        for u, img in zip(unions, images):
            trace = frozenset(image_trace(fam, img, TRACE_DEPTH))
            assert trace == brute_union_trace(fam, u, 20), str(u)


class TestClosureSplit:
    def test_window_on_tail_hull(self, fam):
        x1 = fam.dense_pair(1).x
        img = img_of(fam, f"{x1.digits(3)} x 00")
        f = ClopenSet((x1.digits(3),))
        inter_hull, diff_clopen = closure_split(img, f)
        assert inter_hull == f
        assert diff_clopen.is_empty()

    def test_disjoint_window(self, fam):
        x1 = fam.dense_pair(1).x
        img = img_of(fam, f"{x1.digits(3)} x 00")
        inter_hull, diff_clopen = closure_split(img, ClopenSet(("2",)))
        assert inter_hull.is_empty()
        assert diff_clopen == ClopenSet(("2",))

    def test_whole_space_window(self, fam):
        img = img_of(fam, "0 x 00")
        assert closure_split(img, WHOLE) == (ClopenSet(("0",)), ClopenSet(("2",)))


PROBE_IMAGES = ("0 x 00", "002 x 00", "ε x ε", "2 x 0; 0 x 2")


class TestResolvableProbe:
    def test_bulk_law_small(self, fam):
        images = [img_of(fam, s) for s in PROBE_IMAGES]
        cells = ("00", "02", "20", "22")
        windows = [WHOLE] + [ClopenSet((w,)) for w in cells]
        windows += [ClopenSet((a, b)) for a in cells for b in cells if a < b]
        for img in images:
            for f in windows:
                assert resolvable_probe(fam, img, f)

    def test_probe_skips_the_normalising_pass(self, fam, work):
        # Work counts, not wall clock, over the 255 depth-3 windows.
        # intersect and complement build their normal forms directly:
        # sending each of the 765 intersections and the one complement
        # through the constructor's pass made 766 calls.  An image whose
        # hull is the whole space has an empty outside, and intersect hands
        # back an operand on both, so its probe builds no set.  A partial
        # hull still walks.  When every intersection walked, each of the
        # three images built 765 sets, three per window.
        windows = clopen_antichains(3)
        assert len(windows) == 255
        pins = {"ε x 0": 0, "0 x 00; 02 x 2; 2 x 0": 0, "0 x 00": 733}
        images = {literal: img_of(fam, literal) for literal in pins}
        for img in images.values():
            img.outside
        work.watch(words, "_normalize_words", "normalize")
        work.watch(ClopenSet, "_normal", "built")
        work.watch(ClopenSet, "__init__", "built")
        for literal, built in pins.items():
            work.clear()
            assert all([resolvable_probe(fam, images[literal], f) for f in windows])
            assert (work["normalize"], work["built"]) == (0, built), literal

    def test_empty_window_rejected(self, fam):
        with pytest.raises(PieceError):
            resolvable_probe(fam, img_of(fam, "0 x 00"), ClopenSet(()))
