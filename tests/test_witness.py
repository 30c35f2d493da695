"""Non-openness witnesses, their verifier, and the auxiliary checks."""

import contextlib
import io
import json
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cantorproj import (
    ClopenSet,
    NonMonotoneTraceError,
    PieceError,
    Rect,
    RectUnion,
    SearchBudgetExceeded,
    falsify_restriction,
    family,
    parse_point,
    parse_rect_union,
    piecewise_open_check,
    scattered_check,
    stabilization_probe,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)
from cantorproj.cli import main as cli_main
from cantorproj.schema import CertificateFormatError
from cantorproj.suites import WITNESS_MUTATIONS, mutate_witness

WHOLE = ClopenSet(("",))
TRIVIAL = RectUnion(())


def cert_for(fam, literal, samples=8):
    union = parse_rect_union(literal)
    return falsify_restriction(fam, TRIVIAL, union.rects[0], samples=samples)


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

    def test_nontrivial_piece(self, fam):
        # piece = everything outside the [2] x [2] corner
        complement = parse_rect_union("2 x 2")
        rect = parse_rect_union("0 x 0").rects[0]
        cert = falsify_restriction(fam, complement, rect, samples=6)
        ok, clause = verify_witness(fam, cert, samples=6)
        assert ok, clause


class TestMutations:
    def test_catalog_covers_ten_distinct_clauses(self):
        assert len(WITNESS_MUTATIONS) == 10
        assert len({clause for _, clause in WITNESS_MUTATIONS}) == 10

    @pytest.mark.parametrize("literal", ["ε x ε", "2 x 0"])
    def test_each_mutation_pins_its_clause(self, fam, literal):
        cert = cert_for(fam, literal)
        k = len(cert.missing)
        for kind, expected in WITNESS_MUTATIONS:
            mutated = mutate_witness(fam, cert, kind)
            ok, clause = verify_witness(fam, mutated, samples=k)
            assert not ok, kind
            assert clause == expected, (kind, clause)

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

    def test_only_checked_entries_count(self, fam):
        # Entries past ``samples`` are not evidence and are not inspected.
        cert = cert_for(fam, "2 x 0")
        cert = replace(cert, missing=cert.missing[:2] + cert.missing[:1])
        assert verify_witness(fam, cert, samples=2) == (True, None)


class TestSerialization:
    def test_roundtrip_identity(self, fam):
        cert = cert_for(fam, "0 x 2")
        assert witness_from_dict(witness_to_dict(cert)) == cert

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


class TestScattered:
    def test_singleton(self):
        ok, detail = scattered_check([WHOLE], depth=1)
        assert ok
        assert detail["assignments"][0]["isolated"] == 0

    def test_interleaved_pair_depth_sensitive(self):
        a = ClopenSet(("00", "20"))
        b = ClopenSet(("02", "22"))
        ok1, detail1 = scattered_check([a, b], depth=1)
        assert not ok1
        assert detail1["members"] == [0, 1]
        ok2, detail2 = scattered_check([a, b], depth=2)
        assert ok2
        assert len(detail2["assignments"]) == 3

    def test_nested_family(self):
        members = [ClopenSet(("00",)), ClopenSet(("02",)), ClopenSet(("2",))]
        ok, detail = scattered_check(members, depth=2)
        assert ok

    def test_overlap_rejected(self):
        with pytest.raises(PieceError):
            scattered_check([WHOLE, ClopenSet(("0",))], depth=1)

    def test_empty_member_rejected(self):
        with pytest.raises(PieceError):
            scattered_check([ClopenSet(())], depth=1)

    def test_size_limits(self):
        with pytest.raises(PieceError):
            scattered_check([], depth=1)


class TestPiecewiseOpen:
    def test_full_piece_is_violated(self, fam):
        ok, violation = piecewise_open_check(fam, [TRIVIAL], depth=1)
        assert not ok
        assert violation["piece"] == 0
        assert violation["samples"]

    def test_violation_cross_validates(self, fam):
        ok, violation = piecewise_open_check(fam, [TRIVIAL], depth=1)
        assert not ok
        rect = Rect(
            ClopenSet((violation["rect"]["x"],)), ClopenSet((violation["rect"]["y"],))
        )
        cert = falsify_restriction(fam, TRIVIAL, rect, samples=4)
        okv, clause = verify_witness(fam, cert, samples=4)
        assert okv, clause

    def test_empty_pieces_scan_clean(self, fam):
        covered = RectUnion((Rect(WHOLE, WHOLE),))
        ok, violation = piecewise_open_check(fam, [covered], depth=1)
        assert ok and violation is None

    def test_overlapping_pieces_rejected(self, fam):
        with pytest.raises(PieceError):
            piecewise_open_check(fam, [TRIVIAL, TRIVIAL], depth=1)

    # Under "ε x 20" the first free word, "2", lies in the complement, so
    # evidence that ignored the complement would be caught here.
    @pytest.mark.parametrize("literal", ["ε x 00", "ε x 20"])
    def test_evidence_avoids_piece_complement(self, fam, literal):
        complement = parse_rect_union(literal)
        ok, violation = piecewise_open_check(fam, [complement], depth=1)
        assert not ok and violation["samples"]
        for sample in violation["samples"]:
            x, y = parse_point(sample["point"]), parse_point(sample["evidence"])
            assert fam.in_x(x, y)
            assert not complement.covers(x, y)


class TestStabilization:
    def test_tail_restored_along_stream(self, fam):
        x1 = fam.dense_pair(1).x
        w = x1.digits(3)
        rects = [
            parse_rect_union(f"{w} x 00").rects[0],
            parse_rect_union(f"{w} x 02").rects[0],
        ]
        report = stabilization_probe(fam, rects, depth=3)
        steps = report["steps"]
        assert str(x1) in steps[0]["isolated"]
        assert str(x1) in steps[1]["departed"]
        assert str(x1) not in steps[1]["isolated"]

    def test_traces_grow(self, fam):
        rects = [
            parse_rect_union("0 x 0").rects[0],
            parse_rect_union("20 x 2").rects[0],
            parse_rect_union("22 x 00").rects[0],
        ]
        report = stabilization_probe(fam, rects, depth=2)
        seen = set()
        for step in report["steps"]:
            assert seen <= set(step["open_trace"])
            seen = set(step["open_trace"])

    def test_error_type_exported(self):
        assert issubclass(NonMonotoneTraceError, RuntimeError)
