"""Non-openness witnesses and their verifier."""

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cantorproj import (
    CantorPoint,
    ClopenSet,
    Family,
    PieceError,
    Rect,
    RectUnion,
    SearchBudgetExceeded,
    all_words,
    falsify_restriction,
    family,
    parse_rect_union,
    repr_point,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)
from cantorproj.cli import main as cli_main
from cantorproj.family import approximant_depth
from cantorproj.schema import CertificateFormatError
from cantorproj.suites import WITNESS_MUTATIONS, make_family, mutate_witness
from cantorproj.witness import witness_dumps
from cantorproj.words import flip

WHOLE = ClopenSet(("",))
TRIVIAL = RectUnion(())


def cert_for(fam, literal, samples=8):
    union = parse_rect_union(literal)
    return falsify_restriction(fam, TRIVIAL, union.rects[0], samples=samples)


def forge(entry):
    # The entry with its point's last prefix digit flipped: a point the
    # family does not recognise as that approximant.
    p = entry.point
    return replace(entry, point=CantorPoint(p.prefix[:-1] + flip(p.prefix[-1]), p.cycle))


class TestFalsify:
    def test_whole_square(self, fam):
        cert = cert_for(fam, "ε x ε")
        ok, clause = verify_witness(fam, cert, samples=8)
        assert ok and clause is None

    def test_geometry(self, fam):
        cert = cert_for(fam, "2 x 0")
        assert cert.n_fine > cert.n_coarse
        assert cert.base_fine.startswith(cert.base_coarse)
        assert len(cert.base_fine) > len(cert.base_coarse)
        fine, coarse = ClopenSet((cert.base_fine,)), ClopenSet((cert.base_coarse,))
        assert 2 * fine.diam() < coarse.diam()

    def test_missing_points_outside_image(self, fam):
        cert = cert_for(fam, "2 x 0")
        w = cert.rect.x_set
        fine = ClopenSet((cert.base_fine,))
        for entry in cert.missing:
            assert w.member(entry.point)
            assert fam.recognize(entry.point) == (cert.n_fine, entry.index)
            assert not fine.member(entry.evidence)
            assert fam.in_x(entry.point, entry.evidence)

    def test_all_depth_one_rects(self, fam):
        for wx in ("0", "2"):
            for wy in ("0", "2"):
                cert = cert_for(fam, f"{wx} x {wy}", samples=5)
                ok, clause = verify_witness(fam, cert, samples=5)
                assert ok, clause

    def test_budget_exhaustion(self, fam):
        rect = parse_rect_union("ε x ε").rects[0]
        with pytest.raises(SearchBudgetExceeded) as err:
            falsify_restriction(fam, TRIVIAL, rect, budget=1, samples=3)
        assert err.value.budget == 1

    def test_sample_scan_stops_at_its_bound(self, monkeypatch):
        # Work guard: with every approximant's first digit flipped none lies
        # in the x factor, and the scan gives up after stable_index(n_fine,
        # depth) + samples builds, 10 here.
        fam = make_family("approximant-digit")
        calls, build = [], fam.approximant
        monkeypatch.setattr(fam, "approximant", lambda n, i: calls.append(n) or build(n, i))
        rect = parse_rect_union("2 x 0").rects[0]
        with pytest.raises(SearchBudgetExceeded) as err:
            falsify_restriction(fam, TRIVIAL, rect, samples=10)
        assert err.value.stage == "missing approximants"
        assert len(calls) <= family.stable_index(calls[0], 1) + 10 == 10

    def test_empty_rect_rejected(self, fam):
        with pytest.raises(PieceError):
            falsify_restriction(
                fam, TRIVIAL, Rect(ClopenSet(()), WHOLE), samples=3
            )

    def test_rect_must_avoid_complement(self, fam):
        rect = parse_rect_union("0 x 0").rects[0]
        overlap = RectUnion((parse_rect_union("00 x ε").rects[0],))
        with pytest.raises(PieceError):
            falsify_restriction(fam, overlap, rect, samples=3)

    # Each piece is the square outside its complement.  A complement over
    # every x, as "ε x 00" and "ε x 20" are, meets every fibre, so evidence
    # drawn outside the rectangle's y-band could fall inside it.
    @pytest.mark.parametrize(
        "literal, inside", [("2 x 2", "0 x 0"), ("ε x 00", "0 x 2"), ("ε x 20", "0 x 0")]
    )
    def test_nontrivial_piece(self, fam, literal, inside):
        complement = parse_rect_union(literal)
        rect = parse_rect_union(inside).rects[0]
        cert = falsify_restriction(fam, complement, rect, samples=6)
        for entry in cert.missing:
            assert not complement.covers(entry.point, entry.evidence)
        ok, clause = verify_witness(Family(), cert, samples=6)
        assert ok, clause


def basic_rects(total):
    """Every basic rectangle W x V with |W| + |V| <= total.

    A closed piece with interior holds one of them, so together they cover
    every piece down to that depth.
    """
    return [
        Rect(ClopenSet((wx,)), ClopenSet((wy,)))
        for depth in range(total + 1)
        for dx in range(depth + 1)
        for wx in all_words(dx)
        for wy in all_words(depth - dx)
    ]


BASIC_RECTS = basic_rects(4)


def triangle(s):
    return s * (s + 1) // 2


class TestCompleteRange:
    @staticmethod
    def _worst_case(rects, certs, depth):
        # The search's worst case over |W| + |V| <= D, in closed form: the
        # largest n_coarse is T(2^(D+1) - 1) - 1 and the largest n_fine
        # T(2^(D+1)) - 2, with T(s) = s(s+1)/2, and ε x 2^D reaches both.
        s = 2 ** (depth + 1)
        worst = certs[rects.index(Rect(WHOLE, ClopenSet(("2" * depth,))))]
        assert max(cert.n_coarse for cert in certs) == worst.n_coarse == triangle(s - 1) - 1
        assert max(cert.n_fine for cert in certs) == worst.n_fine == triangle(s) - 2
        return worst.n_coarse, worst.n_fine

    def test_every_basic_rectangle_to_depth_five(self, work):
        # One family falsifies all 321 rectangles and a second, fresh one
        # verifies every certificate.  Work count, not wall clock: the
        # verifier sweeps the base table to the largest n_fine, 2,078, and
        # reads its 2,079 y heads.  To depth four, first fit at each
        # forward step read 7,750 and a y-prefix first fit 125,249.
        rects = basic_rects(5)
        maker, checker = Family(), Family()
        certs = [falsify_restriction(maker, TRIVIAL, rect) for rect in rects]
        verdicts = [verify_witness(checker, c, samples=len(c.missing)) for c in certs]
        assert len(rects) == 321
        assert verdicts == [(True, None)] * 321
        assert max(cert.n_fine for cert in certs) == 2_078
        assert self._worst_case(rects, certs, 5) == (2_015, 2_078)
        assert work.sizes(checker)["y_heads"] == 2_079
        # Every byte of the 321 certificates, not only the two the CLI pins.
        dumps = "\n".join(map(witness_dumps, certs)).encode()
        assert hashlib.sha256(dumps).hexdigest() == (
            "7292e2db7d373845b3ddb3812404d448b33e44e4bb3dcde2d7ccd4d27f5f39e5"
        )

    def test_every_basic_rectangle_to_depth_six(self, work):
        # The same range to depth six, 769 rectangles.  The verifier sweeps
        # the base table to the largest n_fine, 8,254, and reads its 8,255
        # y heads.
        rects = basic_rects(6)
        maker, checker = Family(), Family()
        certs = [falsify_restriction(maker, TRIVIAL, rect) for rect in rects]
        verdicts = [verify_witness(checker, c, samples=len(c.missing)) for c in certs]
        assert len(rects) == 769
        assert verdicts == [(True, None)] * 769
        assert max(cert.n_fine for cert in certs) == 8_254
        assert self._worst_case(rects, certs, 6) == (8_127, 8_254)
        assert work.sizes(checker)["y_heads"] == 8_255

    def test_pairs_are_built_only_where_the_base_fits(self):
        # Work count: the coarse search tests each base word against the y
        # factor, and both searches test x on the x head's digits, so on a
        # fresh family falsify builds one pair, the fine index's, for the
        # witness point.  Over these 129 rectangles that is 129 pairs, where
        # an x test on each fitting index's built point took 3,180.
        for rect in BASIC_RECTS:
            fresh = Family()
            cert = falsify_restriction(fresh, TRIVIAL, rect)
            assert list(fresh._pairs) == [cert.n_fine], rect
            assert ClopenSet((fresh.base_word(cert.n_fine),)).subset(rect.y_set), rect

    @settings(max_examples=25)
    @given(st.sampled_from(BASIC_RECTS))
    def test_shared_family_certificate_is_the_fresh_one(self, fam, rect):
        shared = falsify_restriction(fam, TRIVIAL, rect)
        assert witness_dumps(shared) == witness_dumps(falsify_restriction(Family(), TRIVIAL, rect))


def _sibling(word):
    # The cylinder next to the word's: its last digit flipped.
    return word[:-1] + flip(word[-1])


def _evidence(cert, word):
    return replace(cert, missing=tuple(replace(m, evidence=repr_point(word)) for m in cert.missing))


def _forged_fine(cert):
    # Evidence in the real fine base, outside a forged finer one: only the
    # family's own base, which in_x reads, sees it.
    forged = cert.witness_y.digits(len(cert.base_fine) + 1)
    return _evidence(replace(cert, base_fine=forged), _sibling(forged))


# Mutations that break the five clauses no catalogued mutation reaches
# first.  They stay out of suites._MUTATIONS, whose list fixes the bytes of
# ``check``.
UNCATALOGUED = {
    "witness_in_rect": lambda c: replace(
        c, witness_y=repr_point(_sibling(c.base_fine[:len(c.base_coarse) + 1]))),
    "[i=0] missing_in_x_factor": lambda c: replace(c, rect=Rect(
        ClopenSet((c.witness_x.digits(approximant_depth(c.n_fine, c.missing[0].index) + 1),)),
        c.rect.y_set)),
    "[i=0] evidence_inside_coarse_base": lambda c: _evidence(c, _sibling(c.base_coarse)),
    "[i=0] evidence_in_x": _forged_fine,
    "base_words_match": lambda c: replace(c, base_coarse=c.base_coarse[:-1]),
    # A negative coarse index is named here, before base_word could reject it.
    "n_fine_gt_n_coarse": lambda c: replace(c, n_coarse=-1),
}
# Where an uncatalogued mutation fails an earlier clause first: on 0,2 x 00
# the coarse base 00 cut to 0 leaves the y factor.
FIRST_ELSEWHERE = {("base_words_match", "0,2 x 00"): "coarse_base_inside_y_factor"}


class TestMutations:
    def test_catalog_covers_ten_distinct_clauses(self):
        assert len(WITNESS_MUTATIONS) == 10
        assert len({clause for _, clause in WITNESS_MUTATIONS}) == 10
        # The benchmark draws from this list by a seeded choice, so its
        # order is part of every seeded run.
        assert [kind for kind, _ in WITNESS_MUTATIONS] == [
            "swap-order", "detached-y-factor", "fat-coarse", "detached-fine",
            "complement-swallows-rect", "witness-not-in-x", "witness-borrowed",
            "truncated-missing", "forged-approximant", "evidence-in-fine",
        ]

    @pytest.mark.parametrize("literal", ["ε x ε", "2 x 0", "0,2 x 00"])
    def test_each_mutation_pins_its_clause(self, fam, literal):
        cert = cert_for(fam, literal)
        k = len(cert.missing)
        assert cert.missing[0].index == 0
        for kind, expected in WITNESS_MUTATIONS:
            mutated = mutate_witness(fam, cert, kind)
            ok, clause = verify_witness(fam, mutated, samples=k)
            assert not ok, kind
            assert clause == expected, (kind, clause)
        for clause, mutate in UNCATALOGUED.items():
            expected = FIRST_ELSEWHERE.get((clause, literal), clause)
            assert verify_witness(fam, mutate(cert), samples=k) == (False, expected)

    @pytest.mark.parametrize("literal", ["ε x ε", "2 x 0", "0,2 x 00"])
    def test_a_complement_covering_an_entry_meets_the_rect(self, fam, literal):
        # evidence_in_piece is never the first clause to fail: the clauses
        # before it put (point, evidence) in the rectangle, so a complement
        # rectangle covering an entry meets the rectangle, however small.
        cert = cert_for(fam, literal)
        for entry in cert.missing:
            depth = approximant_depth(cert.n_fine, entry.index) + 1
            cover = RectUnion((Rect(ClopenSet((entry.point.digits(depth),)),
                                    ClopenSet((entry.evidence.digits(depth),))),))
            assert cover.covers(entry.point, entry.evidence)
            forged = replace(cert, piece_complement=cover)
            got = verify_witness(fam, forged, samples=len(cert.missing))
            assert got == (False, "rect_inside_piece")

    def test_mutations_survive_serialization(self, fam):
        cert = cert_for(fam, "2 x 0")
        for kind, expected in WITNESS_MUTATIONS:
            mutated = mutate_witness(fam, cert, kind)
            back = witness_from_dict(json.loads(json.dumps(witness_to_dict(mutated))))
            ok, clause = verify_witness(fam, back, samples=len(cert.missing))
            assert (ok, clause) == (False, expected)


class TestEvidenceShape:
    """Empty or repeated evidence is rejected, outside ``WITNESS_MUTATIONS``."""

    def test_empty_missing(self, fam):
        cert = replace(cert_for(fam, "2 x 0"), missing=())
        assert verify_witness(fam, cert, samples=0) == (False, "missing_count")

    def test_repeated_entry(self, fam):
        cert = cert_for(fam, "2 x 0")
        cert = replace(cert, missing=(cert.missing[0],) * 3)
        got = verify_witness(fam, cert, samples=3)
        assert got == (False, "missing_indices_increasing")

    def test_decreasing_indices(self, fam):
        cert = cert_for(fam, "2 x 0")
        cert = replace(cert, missing=cert.missing[::-1])
        got = verify_witness(fam, cert, samples=len(cert.missing))
        assert got == (False, "missing_indices_increasing")

    def test_every_entry_is_evidence(self, fam):
        # ``samples`` is the count the certificate must hold, not a cut:
        # entries past it are checked like the rest.
        cert = cert_for(fam, "2 x 0", samples=3)
        repeated = replace(cert, missing=cert.missing[:2] + cert.missing[:1])
        assert verify_witness(fam, repeated, samples=2) == (
            False,
            "missing_indices_increasing",
        )
        forged = replace(cert, missing=cert.missing[:2] + (forge(cert.missing[2]),))
        assert verify_witness(fam, forged, samples=2) == (False, "[i=2] missing_identity")

    @settings(max_examples=30)
    @given(st.data())
    def test_forged_entry_rejected_at_any_position(self, fam, data):
        cert = cert_for(fam, "2 x 0")
        k = len(cert.missing)
        pos = data.draw(st.integers(0, k - 1), label="position")
        samples = data.draw(st.integers(1, k), label="samples")
        missing = list(cert.missing)
        missing[pos] = forge(missing[pos])
        got = verify_witness(fam, replace(cert, missing=tuple(missing)), samples)
        assert got == (False, f"[i={missing[pos].index}] missing_identity")


class TestSerialization:
    def test_roundtrip_identity(self, fam):
        cert = cert_for(fam, "0 x 2")
        assert witness_from_dict(witness_to_dict(cert)) == cert

    @pytest.mark.parametrize("literal", ["01^(0)", "021"])
    def test_malformed_literal_is_format_error(self, fam, literal):
        # A string of the right type that is no point literal names its field.
        doc = witness_to_dict(cert_for(fam, "0 x 2"))
        doc["payload"]["witness"]["x"] = literal
        with pytest.raises(CertificateFormatError, match="'witness'"):
            witness_from_dict(doc)

    @pytest.mark.parametrize("base, word", [("coarse", "1"), ("fine", "0a")])
    def test_malformed_base_word_is_format_error(self, fam, base, word):
        # A base word is checked for its digits here, not by the verifier.
        doc = witness_to_dict(cert_for(fam, "0 x 2"))
        doc["payload"]["bases"][base] = word
        with pytest.raises(CertificateFormatError, match="'bases'"):
            witness_from_dict(doc)

    def test_envelope_rejects_wrong_kind(self, fam):
        doc = witness_to_dict(cert_for(fam, "0 x 2"))
        doc["type"] = "lc2"
        with pytest.raises(CertificateFormatError):
            witness_from_dict(doc)

    def test_envelope_rejects_foreign_scheme(self, fam):
        doc = witness_to_dict(cert_for(fam, "0 x 2"))
        doc["scheme_params"]["dense_tail_cycle"] = "02"
        with pytest.raises(CertificateFormatError):
            witness_from_dict(doc)

    def test_envelope_follows_the_depth_rule(self, fam, monkeypatch):
        # The pin is read from the generator's constants, so a certificate
        # written under another depth rule no longer matches it.
        doc = witness_to_dict(cert_for(fam, "0 x 2"))
        monkeypatch.setattr(family, "DEPTH_OFFSET", family.DEPTH_OFFSET + 1)
        with pytest.raises(CertificateFormatError):
            witness_from_dict(doc)


def _paths(node, path=()):
    # Every dict key and list slot under the payload, outermost first.
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=40)
    | st.floats(min_value=-3, max_value=40)
    | st.text(alphabet="02^()x", max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["x", "y", "i", "point", "evidence", "coarse", "fine"]),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)


class TestMalformedPayloads:
    """A damaged certificate is accepted, rejected or a format error, never a crash."""

    @settings(max_examples=80)
    @given(st.data())
    def test_verify_exit_code_total(self, fam, data):
        doc = witness_to_dict(cert_for(fam, "2 x 0", samples=2))
        path = data.draw(st.sampled_from(list(_paths(doc["payload"]))))
        *head, last = path
        parent = doc["payload"]
        for key in head:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = data.draw(_json_values)
        out, err = io.StringIO(), io.StringIO()
        with (
            mock.patch("sys.stdin", io.StringIO(json.dumps(doc))),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            code = cli_main(["verify", "-"])
        assert code in (0, 1, 2), (path, code)
        if code == 2:
            assert err.getvalue().startswith("error:")
