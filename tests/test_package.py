"""The names the package root exports, and the package's import graph."""

import ast
import re
from dataclasses import fields
from importlib import import_module
from pathlib import Path

import cantorproj
from cantorproj import certify, cli, family, oracle, schema, suites, words

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(cantorproj.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

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


def test_exports_resolve_to_their_owner():
    # The root imports each name on first use from the module its table
    # names, and that module is where the name is defined.
    for name in cantorproj.__all__:
        owner = import_module(f"cantorproj.{cantorproj._EXPORTS[name]}")
        value = getattr(cantorproj, name)
        assert value is getattr(owner, name), name
        assert value.__module__ == owner.__name__, name
    assert set(cantorproj.__all__) <= set(dir(cantorproj))


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
    assert not hasattr(cli.RunConfig, "as_dict")
    # The oracle owns the removed columns, image_member the open-part test,
    # family the scheme pin and _normalize_words the whole normal form.
    assert not hasattr(family, "Fiber")
    assert not hasattr(family.Family, "removed_fibers")
    assert not hasattr(oracle, "in_x_truncated")
    assert not hasattr(certify, "_open_member")
    assert not hasattr(words, "_is_normal")
    # An approximant is its point, and recognition memoises only hits.
    assert not hasattr(family, "Approximant")
    assert not hasattr(family, "_UNSEEN")
    # The decomposition is the LC2 presentation, and decompose finds its
    # isolated sequences inline.
    assert not hasattr(certify, "LC2Certificate")
    assert not hasattr(certify, "_isolated_seqs")
    # Isolation is read off the image's normal form, not off the raw records.
    assert not hasattr(certify, "_tail_isolated")
    # The missing index is read off the normal form's record, not rescanned.
    assert not hasattr(certify, "_missing_in")
    # The length-lex order is one closed form, lenlex_word(rank + 1).
    assert not hasattr(family, "lenlex_nonempty")
    # No command read the bounded scans; falsify and verify certify the claim.
    scans = ("scattered_check", "piecewise_open_check", "_region_rects", "_pieces_disjoint",
             "_piece_evidence", "stabilization_probe", "NonMonotoneTraceError")
    assert [name for name in scans if hasattr(certify, name)] == []
    assert set(scans).isdisjoint(cantorproj.__all__)
    assert schema.scheme_params is family.scheme_params
    # decompose is the one LC2 name, and the closure split is a pair of clopen parts.
    assert "lc2_certificate" not in cantorproj.__all__
    assert not hasattr(certify, "ClosureSplit")
    # A cylinder's interval is read off its end points, and the stages are
    # cut in the oracle.
    assert [n for n in ("RationalInterval", "cylinder_interval", "cantor_stage")
            if hasattr(words, n)] == []
    # Tests build a fiber's witness y inline, and the zero point is
    # repr_point("").
    assert not hasattr(family.Family, "fiber_witness")
    assert not hasattr(words, "ZERO_POINT")
    # RunConfig is the six flag knobs; the suites own their fixed sizes.
    assert [n for n in ("suite_size", "probes") if hasattr(cli.RunConfig, n)] == []
    assert cli.INT_KNOBS == tuple(f.name for f in fields(cli.RunConfig))
    assert len(cli.INT_KNOBS) == 6


def test_package_code_never_names_the_bench_only_names():
    # certify.py keeps lc2_certificate, a second name for decompose, for the
    # benchmark alone; no other module may call, import or re-export it.
    bench_only = {"lc2_certificate"}
    found = []
    for module in MODULES:
        if module == "certify":
            continue
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = node.value.split()  # the root's export table lists names in strings
            else:
                continue
            found += [(module, node.lineno, name) for name in bench_only.intersection(names)]
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_module_s_private_names():
    # Each rule has one owner, read through a public name: no module imports
    # a sibling's underscore name, or reads an underscore attribute of an
    # object other than self, cls or a class it defines.  The digit check
    # that family shares is public, though not exported from the root.
    found = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        own = {"self", "cls"} | {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [(module, node.lineno, a.name) for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Attribute) and _private(node.attr) and not (
                isinstance(node.value, ast.Name) and node.value.id in own
            ):
                found.append((module, node.lineno, node.attr))
    assert found == []
    assert hasattr(words, "check_digits") and not hasattr(words, "_check_digits")
    assert "check_digits" not in cantorproj.__all__


def _imports(module: str) -> list[ast.Import | ast.ImportFrom]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _package_imports(module: str) -> dict[str, list[str]]:
    """The sibling modules one module imports, each with the names it takes."""
    out: dict[str, list[str]] = {}
    for node in _imports(module):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return out


def _closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_package_imports(name))
    return seen


def test_package_imports_are_relative():
    # The graph reads relative imports only, so an absolute import of the
    # package would be an edge it cannot see.
    absolute = []
    for module in MODULES:
        for node in _imports(module):
            if isinstance(node, ast.Import):
                absolute += [(module, alias.name) for alias in node.names]
            elif node.level == 0:
                absolute.append((module, node.module))
    assert [pair for pair in absolute if pair[1].split(".")[0] == "cantorproj"] == []


def test_names_are_imported_from_their_owner():
    # One import path per name: no module takes a name from a sibling that
    # itself imported it.
    for module in MODULES:
        for source, names in _package_imports(module).items():
            assert source in MODULES, (module, source)
            borrowed = {n for taken in _package_imports(source).values() for n in taken}
            assert borrowed.isdisjoint(names), (module, source, borrowed & set(names))


def test_cli_imports_each_command_s_machinery_inside_it():
    # At module level cli.py takes only the verifier kernel, so a verify
    # run loads no projection, certification, suite or oracle code.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    top = {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert top.isdisjoint({"certify", "images", "suites", "oracle"})


def test_verifier_kernel_trusts_words_family_schema_only():
    # verify's verdict rests on these modules alone, never on projection
    # or certification code.
    assert _closure("witness") == {"words", "family", "schema", "witness"}


def test_oracle_imports_no_exact_machinery():
    assert _closure("oracle") == {"words", "family", "oracle"}


def test_no_floats():
    # Everything is exact: no float literal, no float(), and from math only
    # the integer functions.
    allowed = {"isqrt", "lcm", "gcd"}
    found = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((module, node.lineno, repr(node.value)))
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append((module, node.lineno, "float"))
            elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "math" for alias in node.names
            ):
                found.append((module, node.lineno, "import math"))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                bad = [alias.name for alias in node.names if alias.name not in allowed]
                found += [(module, node.lineno, f"math.{name}") for name in bad]
    assert found == []


def _wc_lines(modules: set[str]) -> int:
    # What ``wc -l`` prints: the count of newline bytes.
    return sum((PACKAGE / f"{m}.py").read_bytes().count(b"\n") for m in modules)


def test_readme_line_counts_match_the_closures():
    text = " ".join(README.read_text(encoding="utf-8").split())
    trusted = re.search(r"`schema.py`, ([\d,]+) lines in all", text)
    oracle_base = re.search(r"\(([\d,]+) lines with itself\)", text)
    assert int(trusted[1].replace(",", "")) == _wc_lines(_closure("witness"))
    assert int(oracle_base[1].replace(",", "")) == _wc_lines(_closure("oracle"))
