"""The named self-check suites: coverage, determinism, fault response."""

import inspect
import json
from collections import defaultdict
from fractions import Fraction

import pytest

from cantorproj import Family, Rect, RectUnion, certify, family, suites, words
from cantorproj.cli import RunConfig
from cantorproj.suites import (
    FAULTS,
    SUITES,
    make_family,
    mutate_witness,
    run_all,
    run_suite,
)
from cantorproj.witness import falsify_restriction
from cantorproj.words import WHOLE_SPACE, ClopenSet


def test_suite_names_are_stable():
    names = [name for name, _ in SUITES]
    assert names == [
        "core-normal-form-canonicity",
        "core-boolean-laws",
        "core-point-value-injective",
        "core-stage-cylinder-agreement",
        "core-diam-law",
        "family-determinism",
        "family-distinctness",
        "family-approximant-convergence",
        "family-enumeration-totality",
        "family-density",
        "lab-oracle-equivalence",
        "lab-decomposition-soundness",
        "lab-lc2",
        "lab-resolvability",
        "lab-witness",
        "lab-witness-mutations",
    ]


def test_report_shape_and_determinism():
    cfg = RunConfig(seed=7)
    one = run_all(cfg)
    two = run_all(cfg)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    assert one["all_pass"] is True
    assert one["config"]["seed"] == 7
    assert {s["name"] for s in one["suites"]} == {name for name, _ in SUITES}


def test_single_suite_run(fam):
    result = run_suite("core-diam-law", fam, RunConfig())
    assert result["passed"]
    assert result["detail"]["checks"] > 0


def test_unknown_suite_rejected(fam):
    with pytest.raises(ValueError):
        run_suite("no-such-suite", fam, RunConfig())


def test_fault_injection_breaks_convergence():
    report = run_all(RunConfig(), fault="approximant-digit")
    assert report["all_pass"] is False
    by_name = {s["name"]: s for s in report["suites"]}
    assert not by_name["family-approximant-convergence"]["passed"]
    # word-level suites are indifferent to the corrupted generator
    assert by_name["core-boolean-laws"]["passed"]


def test_fault_verdicts_apart_from_wording():
    # Which check catches the corrupted generator first may change its error
    # strings; which suites fail, and how many checks the counted ones ran,
    # may not.
    report = run_all(RunConfig(), fault="approximant-digit")
    failed = {s["name"]: s["detail"] for s in report["suites"] if not s["passed"]}
    assert sorted(failed) == [
        "family-approximant-convergence",
        "lab-decomposition-soundness",
        "lab-lc2",
        "lab-witness",
        "lab-witness-mutations",
    ]
    assert failed["family-approximant-convergence"]["checks"] == 1071
    assert failed["lab-decomposition-soundness"]["checks"] == 4934
    for name in ("lab-lc2", "lab-witness", "lab-witness-mutations"):
        assert set(failed[name]) == {"error"}, name


def _primitive_unreduced(monkeypatch):
    monkeypatch.setattr(words, "_primitive", lambda cycle: cycle)


def _complement_drops_last_gap(monkeypatch):
    real = ClopenSet.complement
    monkeypatch.setattr(ClopenSet, "complement", lambda s: ClopenSet._normal(real(s).words[:-1]))


def _ratio_drops_cycle_term(monkeypatch):
    real = words._ratio
    monkeypatch.setattr(words, "_ratio", lambda p: (real(p)[0] - int(p.cycle, 3), real(p)[1]))


def _diam_tripled(monkeypatch):
    real = ClopenSet.diam
    monkeypatch.setattr(ClopenSet, "diam", lambda s: 3 * real(s))


def _cylinder_20_shifted(monkeypatch):
    # The stages are cut from one another, not read off a digit word, so a
    # misplaced cylinder shows.
    real = suites._cylinder_ends

    def shifted(word):
        lo, hi = real(word)
        if word != "20":
            return lo, hi
        return lo + Fraction(1, 27), hi + Fraction(1, 27)

    monkeypatch.setattr(suites, "_cylinder_ends", shifted)


def _pads_taken_across_families(monkeypatch):
    # A column memo hoisted out of the instance: the second family's columns
    # find the first one's pads taken, so the two exports differ.
    init, shared = family._Column.__init__, {False: defaultdict(set), True: defaultdict(set)}

    def hoisted(column, ranks, y):
        init(column, ranks, y)
        column._taken = shared[y]

    monkeypatch.setattr(family._Column, "__init__", hoisted)


def _raw_freshness_key(monkeypatch):
    # The key is not canonical: "" at pad 2 and "0" at pad 1 are one stream,
    # 00(20)^ω, yet get two keys, so a column repeats a point.
    monkeypatch.setattr(family, "dense_key", lambda word, k: (word, k))


def _first_fit_one_index_late(monkeypatch):
    real = family.Family._first_fit
    monkeypatch.setattr(family.Family, "_first_fit", lambda fam, w: real(fam, w) + 1)


def _rank_table_drops_22(monkeypatch):
    # No x word starts with 22, and a pad of zeros cannot make one.
    real = family.lenlex_word
    monkeypatch.setattr(
        family, "lenlex_word", lambda r: "20" + w[2:] if (w := real(r)).startswith("22") else w
    )


# One corruption per suite, and the first failure record it draws.
FAULT_TABLE = [
    ("core-normal-form-canonicity", _primitive_unreduced, {"p": "^(00)", "q": "^(0)"}),
    (
        "core-boolean-laws",
        _complement_drops_last_gap,
        {"law": "double_complement", "a": "ε", "b": "ε", "c": "202"},
    ),
    ("core-point-value-injective", _ratio_drops_cycle_term, {"point": "22^(20)", "m": 10}),
    ("core-stage-cylinder-agreement", _cylinder_20_shifted, {"stage": 2}),
    ("core-diam-law", _diam_tripled, {"word": ""}),
    ("family-determinism", _pads_taken_across_families, {"law": "export_bytes"}),
    ("family-distinctness", _raw_freshness_key, {"axis": "x", "n": 2, "clash": 1}),
    ("family-enumeration-totality", _first_fit_one_index_late, {"n": 6, "law": "anchor_in_base"}),
    ("family-density", _rank_table_drops_22, {"word": "220"}),
]


@pytest.mark.parametrize(
    "name, corrupt, first", FAULT_TABLE, ids=[name for name, _, _ in FAULT_TABLE]
)
def test_a_corruption_fails_its_suite(monkeypatch, name, corrupt, first):
    assert run_suite(name, Family(), RunConfig())["passed"]
    corrupt(monkeypatch)
    result = run_suite(name, Family(), RunConfig())
    assert result["passed"] is False
    assert result["detail"]["failures"][0] == first


def test_resolvability_suite_catches_a_wrong_closure_split(fam, monkeypatch):
    # The core is empty only while the split is right: with both clopen parts
    # the whole window, the core is F and no window is resolvable.
    monkeypatch.setattr(certify, "closure_split", lambda img, f: (f, f))
    result = run_suite("lab-resolvability", fam, RunConfig())
    assert result["passed"] is False
    assert result["detail"]["checks"] == 180


def test_unknown_mutation_rejected(fam):
    cert = falsify_restriction(fam, RectUnion(()), Rect(WHOLE_SPACE, WHOLE_SPACE), samples=2)
    with pytest.raises(ValueError, match="^unknown mutation 'bogus'$"):
        mutate_witness(fam, cert, "bogus")


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match="^unknown fault 'bogus'; known faults: approximant-digit$"):
        make_family("bogus")
    assert FAULTS == ("approximant-digit",)


def test_every_suite_is_a_generator_function():
    assert [name for name, suite in SUITES if not inspect.isgeneratorfunction(suite)] == []


def _fake_suite(fam, cfg, rng):
    # Seven failures among passes: run_suite counts all, keeps five.
    for k in range(11):
        yield k % 3 == 0 or {"k": k}
    return {"steps": 3}


def _crashing_suite(fam, cfg, rng):
    yield True
    raise ArithmeticError("boom")


def test_run_suite_owns_the_report(fam, monkeypatch):
    monkeypatch.setattr(suites, "SUITES", [("fake", _fake_suite), ("crash", _crashing_suite)])
    result = run_suite("fake", fam, RunConfig())
    assert result["passed"] is False
    assert result["detail"] == {
        "checks": 11,
        "failures": [{"k": 1}, {"k": 2}, {"k": 4}, {"k": 5}, {"k": 7}],
        "steps": 3,
    }
    crashed = run_suite("crash", fam, RunConfig())
    assert crashed["passed"] is False
    assert crashed["detail"] == {"error": "ArithmeticError: boom"}

