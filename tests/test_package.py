"""The names the package root exports."""

import cantorproj
from cantorproj import schema, suites, words

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


def test_all_has_no_removed_name():
    assert set(REMOVED).isdisjoint(cantorproj.__all__)
    assert [name for name in REMOVED if hasattr(words, name)] == []


def test_single_use_helpers_are_gone():
    # Suites draw from clopen_antichains, certificates have one kind, and
    # RunConfig converts through dataclasses.asdict.
    assert not hasattr(suites, "small_clopens")
    assert not hasattr(schema, "CERTIFICATE_KINDS")
    assert not hasattr(suites.RunConfig, "as_dict")
