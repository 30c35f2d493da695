"""End-to-end command line behavior, including exit codes."""

import ast
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cantorproj import Family, RectUnion, cli, schema, suites, witness
from cantorproj.cli import build_parser, main
from cantorproj.witness import witness_dumps, witness_from_dict, witness_to_dict
from cantorproj.words import parse_rect

ALL_KNOB_FLAGS = {"--depth", "--n-max", "--i-max", "--truncation", "--budget", "--seed"}
COMMAND_FLAGS = {
    "construct": {"--n-max", "--i-max"},
    "image": {"--depth"},
    "falsify": {"--budget"},
    "verify": set(),
    "check": {"--seed"},
}
# Size flags that check does not take: its sizes are suites constants.
CHECK_SIZE_FLAGS = ["--depth", "--n-max", "--i-max", "--truncation", "--budget"]
# Each command line with the size knob it reads; every size knob appears once.
SIZE_KNOB_READERS = [
    (["construct"], "n_max"),
    (["construct"], "i_max"),
    (["image", "ε x ε"], "depth"),
    (["falsify", "ε x ε"], "budget"),
]


def _flag(knob):
    return "--" + knob.replace("_", "-")


# A bad value of each size knob and of falsify's --samples, named by its
# command and flag.
BAD_VALUES = [
    *([*argv, _flag(knob), "-3"] for argv, knob in SIZE_KNOB_READERS),
    ["falsify", "2 x 0", "--samples", "0"],
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "construct", "--n-max", "3", "--i-max", "2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["dense_pairs"]) == 3
        assert doc["scheme_params"]["dense_tail_cycle"] == "20"

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "construct", "--n-max", "2", "--format", "text")
        assert code == 0
        assert out.splitlines()[0].startswith("n=0 ")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "fam.json"
        code, out, _ = run(capsys, "construct", "--n-max", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["dense_pairs"]

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "construct", "--n-max", "6", "--out", str(a))
        run(capsys, "construct", "--n-max", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestImage:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "image", "0 x 00", "--depth", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["image"]["pieces"][0]["hull"] == ["0"]
        assert doc["trace"]["words"] == ["00", "02"]
        assert len(doc["decomposition"]["isolated"]) == 2

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "image", "0 x 00", "--format", "text")
        assert code == 0
        assert "isolated" in out

    def test_bad_literal(self, capsys):
        code, _, err = run(capsys, "image", "nonsense")
        assert code == 2
        assert "error:" in err

    def test_empty_word_is_not_the_whole_space(self, capsys):
        code, out, err = run(capsys, "image", "0, x 00")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_literal(self, capsys):
        code, out, err = run(capsys, "image", "")
        assert code == 2 and out == ""
        assert err == "error: empty rectangle union literal\n"

    def test_certification_failure_exits_one(self, capsys, monkeypatch):
        from cantorproj import certify

        def refuse(fam, img):
            raise certify.CertificationError("reconstruction differs")

        monkeypatch.setattr(certify, "decompose", refuse)
        code, out, err = run(capsys, "image", "0 x 00")
        assert code == 1 and out == ""
        assert err == "error: reconstruction differs\n"

    def test_certification_failure_leaves_out_empty(self, tmp_path, capsys, monkeypatch):
        from cantorproj import certify

        def refuse(fam, img):
            raise certify.CertificationError("reconstruction differs")

        monkeypatch.setattr(certify, "decompose", refuse)
        target = tmp_path / "img.json"
        for fmt in ("json", "text"):
            code, out, err = run(capsys, "image", "0 x 00", "--format", fmt, "--out", str(target))
            assert code == 1 and out == ""
            assert err == "error: reconstruction differs\n"
            assert target.read_bytes() == b""


class TestFalsifyVerify:
    def test_roundtrip_through_file(self, tmp_path, capsys):
        cert_file = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "falsify", "2 x 0", "--samples", "4", "--out", str(cert_file)
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_out_file_is_witness_dumps(self, tmp_path, capsys):
        # The file holds the codec's own bytes: the certificate read back
        # from it dumps to the same text.
        cert_file = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "falsify", "2 x 0", "--samples", "3", "--out", str(cert_file)
        )
        assert code == 0
        raw = cert_file.read_text(encoding="utf-8")
        assert raw == witness_dumps(witness_from_dict(json.loads(raw)))

    def test_piece_roundtrip(self, tmp_path, capsys):
        cert_file = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "falsify", "0 x 0", "--piece", "2 x ε", "--samples", "3",
            "--out", str(cert_file),
        )
        assert code == 0
        doc = json.loads(cert_file.read_text())
        assert doc["payload"]["piece_complement"] == [{"x": ["2"], "y": [""]}]
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 0 and json.loads(out)["ok"] is True

    def test_rect_outside_the_piece(self, capsys):
        code, out, err = run(capsys, "falsify", "0 x 0", "--piece", "0 x ε")
        assert code == 2 and out == ""
        assert "rectangle leaves the piece" in err

    @pytest.mark.parametrize("piece", ["", " "], ids=["empty", "blank"])
    def test_empty_piece_literal(self, capsys, piece):
        # Only a missing --piece means the whole space; '' is an empty literal.
        code, out, err = run(capsys, "falsify", "0 x 0", "--piece", piece)
        assert code == 2 and out == ""
        assert "empty rectangle union literal" in err

    def test_self_verification_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # The reason goes to stderr; neither stdout nor --out gets a line
        # in place of the certificate.
        def refuse(fam, cert, samples):
            return False, "base_words_match"

        monkeypatch.setattr(cli, "verify_witness", refuse)
        target = tmp_path / "w.json"
        for out_args in ([], ["--out", str(target)]):
            code, out, err = run(capsys, "falsify", "2 x 0", "--samples", "2", *out_args)
            assert (code, out) == (1, "")
            assert "base_words_match" in err
        assert target.read_bytes() == b""

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        cert_file = tmp_path / "w.json"
        run(capsys, "falsify", "2 x 0", "--samples", "4", "--out", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc["payload"]["n_coarse"], doc["payload"]["n_fine"] = (
            doc["payload"]["n_fine"],
            doc["payload"]["n_coarse"],
        )
        cert_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 1
        assert json.loads(out)["clause"] == "n_fine_gt_n_coarse"

    def test_negative_coarse_index_fails_its_clause(self, tmp_path, capsys):
        # Rejected at the first clause, exit 1, not by base_word's format
        # error at the last one.
        cert_file = tmp_path / "w.json"
        run(capsys, "falsify", "2 x 0", "--samples", "2", "--out", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc["payload"]["n_coarse"] = -1
        cert_file.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert_file))
        assert (code, err) == (1, "")
        assert json.loads(out) == {"clause": "n_fine_gt_n_coarse", "ok": False, "samples": 2}

    @pytest.mark.parametrize(
        "edit, clause",
        [
            (lambda m: [], "missing_count"),
            (lambda m: m[:1] * 3, "missing_indices_increasing"),
            (lambda m: [{**m[0], "i": "0"}] + m[1:], "missing_indices_increasing"),
            (lambda m: m[:-1] + [{**m[-1], "point": m[0]["point"]}], "[i=1] missing_identity"),
        ],
        ids=["empty", "repeated", "string-index", "last-point-forged"],
    )
    def test_evidence_shape_rejected(self, tmp_path, capsys, edit, clause):
        cert_file = tmp_path / "w.json"
        run(capsys, "falsify", "2 x 0", "--samples", "2", "--out", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc["payload"]["missing"] = edit(doc["payload"]["missing"])
        cert_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 1
        assert json.loads(out)["clause"] == clause

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda p: p.pop("rect"), "rect"),
            (lambda p: p.update(missing=5), "missing"),
            (lambda p: p["missing"][1].pop("point"), "missing"),
            (lambda p: p["bases"].update(coarse="1"), "bases"),
        ],
        ids=["no-rect", "missing-not-a-list", "entry-without-point", "base-not-digits"],
    )
    def test_malformed_payload_is_format_error(self, tmp_path, capsys, edit, field):
        cert_file = tmp_path / "w.json"
        run(capsys, "falsify", "2 x 0", "--samples", "2", "--out", str(cert_file))
        doc = json.loads(cert_file.read_text())
        edit(doc["payload"])
        cert_file.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert_file))
        assert code == 2 and out == ""
        assert f"malformed payload field {field!r}" in err

    def test_text_format(self, tmp_path, capsys):
        cert_file = tmp_path / "w.json"
        code, out, _ = run(capsys, "falsify", "2 x 0", "--samples", "3", "--format", "text")
        assert code == 0
        assert re.fullmatch(
            r"witness for 2x0: coarse n=\d+ base=[02]+, fine n=\d+ base=[02]+, "
            r"3 missing approximants\n",
            out,
        )
        run(capsys, "falsify", "2 x 0", "--samples", "3", "--out", str(cert_file))
        code, out, _ = run(capsys, "verify", str(cert_file), "--format", "text")
        assert (code, out) == (0, "witness ok\n")
        doc = json.loads(cert_file.read_text())
        doc["payload"]["n_fine"] = doc["payload"]["n_coarse"]
        cert_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert_file), "--format", "text")
        assert (code, out) == (1, "witness FAILED at n_fine_gt_n_coarse\n")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "certificate must be a JSON object"),
            (lambda doc: {**doc, "schema_version": 2}, "unsupported schema version: 2"),
            (lambda doc: {**doc, "payload": [doc["payload"]]},
             "certificate payload must be a JSON object"),
        ],
        ids=["document-not-an-object", "schema-version-2", "payload-not-an-object"],
    )
    def test_envelope_is_format_error(self, tmp_path, capsys, edit, message):
        cert_file = tmp_path / "w.json"
        run(capsys, "falsify", "2 x 0", "--samples", "2", "--out", str(cert_file))
        cert_file.write_text(json.dumps(edit(json.loads(cert_file.read_text()))))
        code, out, err = run(capsys, "verify", str(cert_file))
        assert code == 2 and out == ""
        assert message in err

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "falsify", "0 x 0", "--budget", "1")
        assert code == 3
        assert "budget" in err

    def test_budget_exit_names_the_coarse_base(self, capsys):
        code, out, err = run(capsys, "falsify", "2 x 0", "--budget", "1")
        assert (code, out) == (3, "")
        assert "the coarse base" in err

    @pytest.mark.parametrize("literal", ["01^(0)", "021"])
    def test_malformed_literal_is_format_error(self, tmp_path, capsys, literal):
        cert_file = tmp_path / "w.json"
        run(capsys, "falsify", "2 x 0", "--samples", "2", "--out", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc["payload"]["witness"]["x"] = literal
        cert_file.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert_file))
        assert code == 2 and out == ""
        assert "error: malformed payload field 'witness'" in err

    def test_rejects_rect_union(self, capsys):
        code, _, err = run(capsys, "falsify", "0 x 0; 2 x 2")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_falsify_samples_below_one(self, capsys, value):
        code, out, err = run(capsys, "falsify", "2 x 0", "--samples", value)
        assert code == 2 and out == ""
        assert "samples must be at least 1" in err

    def test_garbage_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "verify", str(bad))
        assert code == 2


class TestInputBoundary:
    """Unreadable input is a usage or format error: exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["verify"], b"\xff\xfe"),
            (["verify"], None),
            (["verify"], b"[" * 200_000 + b"]" * 200_000),
            (["construct", "--n-max", "2", "--out"], None),
        ],
        ids=["verify-not-utf8", "verify-a-directory", "verify-deep-nesting",
             "construct-out-a-directory"],
    )
    def test_exit_code_two(self, tmp_path, capsys, argv, content):
        # No content puts a directory where the command wants a file.
        target = tmp_path / "input"
        if content is None:
            target.mkdir()
        else:
            target.write_bytes(content)
        code, out, err = run(capsys, *argv, str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


    def test_out_checked_before_work(self, tmp_path, capsys, monkeypatch):
        class Unbuilt:
            def __init__(self):
                pytest.fail("a Family was built before --out was checked")

        monkeypatch.setattr(cli, "Family", Unbuilt)
        argv = ["construct", "--n-max", "2000", "--i-max", "10", "--out", str(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_verify_out_in_place(self, tmp_path, capsys):
        # The early --out check truncates nothing, so verify still reads the
        # certificate that its verdict then replaces.
        cert = tmp_path / "w.json"
        run(capsys, "falsify", "2 x 0", "--samples", "3", "--out", str(cert))
        code, out, _ = run(capsys, "verify", str(cert), "--out", str(cert))
        assert code == 0 and out == ""
        assert json.loads(cert.read_text()) == {"clause": None, "ok": True, "samples": 3}


class TestCheck:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--format", "text")
        assert code == 0
        assert "all suites passed" in out

    def test_fault_injection_fails(self, capsys):
        code, out, _ = run(
            capsys, "check", "--inject-fault", "approximant-digit", "--format", "text"
        )
        assert code == 1
        assert "family-approximant-convergence: FAIL" in out

    def test_unknown_fault_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "--inject-fault", "bogus")
        assert code == 2 and out == ""
        assert err == "error: unknown fault 'bogus'; known faults: approximant-digit\n"


class TestDefaults:
    def test_search_defaults_have_one_owner(self):
        assert suites.BUDGET is witness.BUDGET
        assert build_parser().parse_args(["falsify", "ε x ε"]).budget == witness.BUDGET
        assert build_parser().parse_args(["falsify", "ε x ε"]).samples == witness.SAMPLES
        fn = witness.falsify_restriction
        assert fn.__defaults__ == (witness.BUDGET, witness.SAMPLES)

    def test_witness_dumps_is_the_json_byte_format(self):
        cert = witness.falsify_restriction(Family(), RectUnion(()), parse_rect("2 x 0"), samples=3)
        assert witness_dumps(cert) == "".join(schema.iterdumps(witness_to_dict(cert)))


DEEP_IMAGE = ["image", "ε x 0202", "--depth", "16"]
DEEP_IMAGE_MD5 = "2050eaf5df4a63988f8c3abf2165cadd"
DEEP_IMAGE_TEXT_MD5 = "e93bb62b07aa7a7f5247ec7c5ea1f536"


class _Recorder:
    def __init__(self, limit=None):
        self.writes = []
        self.limit = limit

    def write(self, text):
        if self.limit is not None and len(self.writes) == self.limit:
            raise AssertionError(f"more than {self.limit} writes")
        self.writes.append(text)


def _batches(chunks):
    size = cli.WRITE_BATCH
    return ["".join(chunks[i:i + size]) for i in range(0, len(chunks), size)]


class TestWriter:
    """``_run`` streams either output the same way: each write joins the
    next ``WRITE_BATCH`` chunks of one stream, the encoder's chunks of the
    document or the chunks of text a command hands it, whose join is the
    text, newlines included."""

    def test_json_is_written_in_bounded_batches(self):
        sink = _Recorder()
        with contextlib.redirect_stdout(sink):
            assert main(DEEP_IMAGE) == 0
        text = "".join(sink.writes)
        assert hashlib.md5(text.encode()).hexdigest() == DEEP_IMAGE_MD5
        doc = json.loads(text)
        # Each write joins the next WRITE_BATCH chunks of the stream, so no
        # write holds the document.
        chunks = list(schema.iterdumps(doc))
        assert text == "".join(chunks)
        assert len(sink.writes) > 1
        assert sink.writes == _batches(chunks)

    def test_text_is_written_in_bounded_batches(self):
        # The text streams as the document does, and the trace line, as
        # long as the trace, comes as its words, so it spans many writes.
        argv = [*DEEP_IMAGE, "--format", "text"]
        sink = _Recorder()
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        text = "".join(sink.writes)
        assert hashlib.md5(text.encode()).hexdigest() == DEEP_IMAGE_TEXT_MD5
        _, _, stream = cli.cmd_image(build_parser().parse_args(argv))
        chunks = list(stream)
        assert len(sink.writes) > 1
        assert sink.writes == _batches(chunks)
        trace_line = text.splitlines()[-1]
        assert trace_line.startswith("trace[16]: ") and chunks[-1] == "\n"
        assert len(trace_line) > 2 * cli.WRITE_BATCH * len(", " + "0" * 16)

    def test_listed_text_is_written_once(self, monkeypatch):
        # A command may hand its text as a list; the writer reads it on
        # from batch to batch, not from its head again.  The recorder stops
        # a writer that starts over instead of letting it write forever.
        monkeypatch.setattr(cli, "WRITE_BATCH", 2)
        args = build_parser().parse_args(["verify", "-", "--format", "text"])
        sink = _Recorder(limit=5)
        with contextlib.redirect_stdout(sink):
            assert cli._run(args, (0, {}, ["a", "b\n", "c", "d\n", "e\n"])) == 0
        assert sink.writes == ["ab\n", "cd\n", "e\n"]

    def test_text_trace_of_the_empty_word_reads_none(self, capsys):
        # As a joined line would read it: the depth-0 trace ["",] joins to "".
        code, out, _ = run(capsys, "image", "0 x 00", "--depth", "0", "--format", "text")
        assert code == 0 and out.endswith("\ntrace[0]: none\n")

    def test_out_writes_the_stdout_bytes(self, tmp_path, capsys):
        target = tmp_path / "img.json"
        code, out, _ = run(capsys, *DEEP_IMAGE)
        assert code == 0
        assert run(capsys, *DEEP_IMAGE, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()
        assert hashlib.md5(target.read_bytes()).hexdigest() == DEEP_IMAGE_MD5

    def test_no_lines_write_one_newline(self, tmp_path, capsys):
        argv = ["construct", "--n-max", "0", "--i-max", "0", "--format", "text"]
        assert run(capsys, *argv) == (0, "\n", "")
        target = tmp_path / "empty.txt"
        assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == b"\n"

    def test_cli_never_names_dumps(self):
        # The writer reads the stream alone.  An AST walk, not a patch of
        # schema.dumps, since a by-name import would dodge the patch.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
        assert "iterdumps" in names
        assert "dumps" not in names


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "construct", "--bogus")[0] == 2

    @pytest.mark.parametrize(
        "argv, knob", SIZE_KNOB_READERS, ids=[_flag(knob) for _, knob in SIZE_KNOB_READERS]
    )
    def test_negative_size_flag(self, capsys, argv, knob):
        code, out, err = run(capsys, *argv, _flag(knob), "-3")
        assert code == 2 and out == ""
        assert "natural number" in err

    @pytest.mark.parametrize("argv", BAD_VALUES, ids=[f"{a[0]} {a[-2]}" for a in BAD_VALUES])
    def test_bad_value_leaves_no_out(self, tmp_path, capsys, argv):
        # A bad value fails at parse time, before the --out target is made.
        target = tmp_path / "new.json"
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert not target.exists()

    def test_negative_seed_allowed(self, capsys):
        code, _, _ = run(capsys, "check", "--seed", "-3")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [["construct", "--depth", "3"], ["verify", "--budget", "5", "w.json"],
         ["verify", "w.json", "--samples", "1"],
         *(["check", flag, "3"] for flag in CHECK_SIZE_FLAGS)],
        ids=["construct--depth", "verify--budget", "verify--samples",
             *(f"check{f}" for f in CHECK_SIZE_FLAGS)],
    )
    def test_knob_of_another_command_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_own_knobs(self, capsys, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert shown & ALL_KNOB_FLAGS == COMMAND_FLAGS[command]


def test_python_dash_m_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "cantorproj", "construct", "--n-max", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["dense_pairs"]) == 2


# Runs ``python -m cantorproj <args>`` in this process, then prints the
# package modules it loaded.
LOADED_BY_RUN = """
import runpy, sys
sys.argv = ["cantorproj", *sys.argv[1:]]
try:
    runpy.run_module("cantorproj", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "cantorproj")))
"""
KERNEL_RUN = [
    "cantorproj",
    "cantorproj.cli",
    "cantorproj.family",
    "cantorproj.schema",
    "cantorproj.witness",
    "cantorproj.words",
]


def _loaded_by(*args):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", LOADED_BY_RUN, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_verify_loads_only_its_kernel(tmp_path, capsys):
    # The verdict trusts witness, words, family and schema; the run loads
    # them, the command line and the package root, and nothing else.
    cert, verdict = tmp_path / "w.json", tmp_path / "verdict.json"
    assert run(capsys, "falsify", "2 x 0", "--samples", "3", "--out", str(cert))[0] == 0
    assert _loaded_by("verify", str(cert), "--out", str(verdict)) == KERNEL_RUN
    assert json.loads(verdict.read_text())["ok"] is True


@pytest.mark.parametrize(
    "args",
    [["construct", "--n-max", "2"], ["falsify", "2 x 0", "--samples", "3"]],
    ids=["construct", "falsify"],
)
def test_construct_and_falsify_load_only_the_kernel(tmp_path, args):
    # Their flags are read off argparse's namespace, so neither loads the
    # suites nor, through them, the projection, certification or oracle code.
    out = tmp_path / "out.json"
    assert _loaded_by(*args, "--out", str(out)) == KERNEL_RUN
    assert json.loads(out.read_text())
