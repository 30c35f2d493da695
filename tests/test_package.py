"""The names the package root exports."""

import re
from pathlib import Path

import cantorproj
from cantorproj import certify, family, oracle, schema, suites, words

README = Path(__file__).resolve().parents[1] / "README.md"

# Module-level copies of ClopenSet and CantorPoint methods, and a wrapper
# around a base word: each concept has one path, so none of these exists.
REMOVED = (
    "Cylinder",
    "complement",
    "diam",
    "intersect",
    "is_empty",
    "member",
    "point_value",
    "subset",
    "union",
)


def test_all_is_bound_unique_and_sorted():
    names = cantorproj.__all__
    assert [name for name in names if not hasattr(cantorproj, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_all_is_the_documented_api():
    # The README's "Python API" section backticks exactly the exported names.
    section = README.read_text(encoding="utf-8").split("## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert set(re.findall(r"`([^`]+)`", section)) == set(cantorproj.__all__)


def test_all_has_no_removed_name():
    assert set(REMOVED).isdisjoint(cantorproj.__all__)
    assert [name for name in REMOVED if hasattr(words, name)] == []


def test_single_use_helpers_are_gone():
    # Suites draw from clopen_antichains, certificates have one kind, and
    # RunConfig converts through dataclasses.asdict.
    assert not hasattr(suites, "small_clopens")
    assert not hasattr(schema, "CERTIFICATE_KINDS")
    assert not hasattr(suites.RunConfig, "as_dict")
    # The oracle owns the removed columns, image_member the open-part test
    # and family the scheme pin.
    assert not hasattr(family, "Fiber")
    assert not hasattr(family.Family, "removed_fibers")
    assert not hasattr(oracle, "in_x_truncated")
    assert not hasattr(certify, "_open_member")
    assert schema.scheme_params is family.scheme_params
