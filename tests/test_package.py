"""The names the package root exports, and the package's import graph."""

import ast
import re
from importlib import import_module
from pathlib import Path

import cantorproj
from cantorproj import certify, cli, family, oracle, schema, suites, words

import reference

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BENCH = ROOT / "bench"
PACKAGE = Path(cantorproj.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# Package names that only bench/ files read, kept until the benchmark's next
# change stops reading them: a second name for decompose, and the codec's
# text form of one certificate.
BENCH_ONLY = {"lc2_certificate", "witness_dumps"}

# Module-level copies of ClopenSet and CantorPoint methods, a wrapper
# around a base word, and the shared run config that each command's own
# flags replace: each concept has one path, so none of these exists.
REMOVED = (
    "Cylinder",
    "RunConfig",
    "complement",
    "diam",
    "intersect",
    "is_empty",
    "member",
    "point_value",
    "subset",
    "union",
)


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


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
    # Suites draw from clopen_antichains, and certificates have one kind.
    assert not hasattr(suites, "small_clopens")
    assert not hasattr(schema, "CERTIFICATE_KINDS")
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
    # Each command declares its own flags, and the suites own their fixed
    # sizes, so no shared run config or knob table exists.
    config = ("RunConfig", "INT_KNOBS", "COMMAND_KNOBS", "KNOB_HELP", "_config", "_samples")
    assert [n for n in config if hasattr(cli, n)] == []
    # Tests read a digit off digits() and diagonal pairs off the oracle, and
    # one writer writes every command's output.
    assert not hasattr(words.CantorPoint, "digit")
    assert not hasattr(family, "diag_pair") and hasattr(oracle, "diag_pair")
    assert [n for n in ("_emit", "_emit_json") if hasattr(cli, n)] == []
    # No command reads the plain scans, the slicing decoder or the truncated
    # traces; they are the tests' reference, beside the tests.
    tests_only = ("first_fit_bases", "scanned_dense_pairs", "decode_tag",
                  "scanned_missing_index", "normal_point", "scan_member", "clopen_cover",
                  "brute_union_trace", "brute_split_traces", "project_rect_truncated",
                  "truncated_member")
    assert [n for n in tests_only if hasattr(oracle, n)] == []
    assert [n for n in tests_only if not hasattr(reference, n)] == []


def test_one_json_byte_format():
    # schema's one encoder is the one call that spells the JSON layout;
    # iterdumps reads it, for every command and for witness_dumps.
    found = []
    for module in MODULES:
        tree = _tree(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
                found.append((module, ast.unparse(node.func)))
    assert found == [("schema", "json.JSONEncoder")]


def test_cli_has_one_writer():
    # _run alone reads --format and writes a command's output.
    tree = _tree("cli")
    readers = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr in ("format", "stdout"):
                    readers.add(fn.name)
    assert readers == {"_run"}


def _definitions(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _names(node: ast.AST, strings: bool) -> list[str]:
    """The names one node spells; with ``strings``, also the words of a string."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split()  # the root's export table lists names in strings
    return []


def test_every_package_function_has_a_reader():
    # No dead helpers: a module-level def or class is named by a package
    # module outside its own body, or by the root's export table, or else by
    # a bench file; tests are not readers.  Python itself calls the root's
    # dunder hooks.  Exactly the bench-only names have bench/ alone.
    readers: dict[str, list[tuple[str, int]]] = {}
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            for name in _names(node, strings=module == "__init__"):
                readers.setdefault(name, []).append((module, node.lineno))
    bench = {
        name
        for path in BENCH.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _names(node, strings=False)
    }
    unread, bench_only = [], set()
    for module in MODULES:
        for d in _definitions(_tree(module)):
            if d.name.startswith("__") or any(
                other != module or not d.lineno <= line <= d.end_lineno
                for other, line in readers.get(d.name, ())
            ):
                continue
            if d.name in bench:
                bench_only.add(d.name)
            else:
                unread.append((module, d.name))
    assert unread == []
    assert bench_only == BENCH_ONLY


def test_package_code_never_names_the_bench_only_names():
    # Each bench-only name stays in its defining module; no other module may
    # call, import or re-export it.
    found, owners = [], set()
    for module in MODULES:
        tree = _tree(module)
        own = BENCH_ONLY.intersection(d.name for d in _definitions(tree))
        owners |= own
        for node in ast.walk(tree):
            names = BENCH_ONLY.difference(own).intersection(_names(node, strings=True))
            found += [(module, node.lineno, name) for name in names]
    assert found == []
    assert owners == BENCH_ONLY


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_module_s_private_names():
    # Each rule has one owner, read through a public name: no module imports
    # a sibling's underscore name, or reads an underscore attribute of an
    # object other than self, cls or a class it defines.  The digit check
    # that family shares is public, though not exported from the root.
    found = []
    for module in MODULES:
        tree = _tree(module)
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
    return [
        node for node in ast.walk(_tree(module)) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


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
    tree = _tree("cli")
    top = {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert top.isdisjoint({"certify", "images", "suites", "oracle"})


def test_verifier_kernel_trusts_words_family_schema_only():
    # verify's verdict rests on these modules alone, never on projection
    # or certification code.
    assert _closure("witness") == {"words", "family", "schema", "witness"}


def test_oracle_imports_no_exact_machinery():
    # The oracle, and the tests' reference beside it, re-derive answers
    # from words and family alone.
    assert _closure("oracle") == {"words", "family", "oracle"}
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, node.module
            modules = [node.module]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        taken |= {m for m in modules if m.split(".")[0] == "cantorproj"}
    assert taken <= {"cantorproj.words", "cantorproj.family", "cantorproj.oracle"}
    assert set().union(*(_closure(m.split(".")[1]) for m in taken)) == {
        "words", "family", "oracle"
    }


def test_no_floats():
    # Everything is exact: no float literal, no float(), and from math only
    # the integer functions.
    allowed = {"isqrt", "lcm", "gcd"}
    found = []
    for module in MODULES:
        tree = _tree(module)
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
