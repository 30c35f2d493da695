"""End-to-end command line behavior, including exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cantorproj import cli
from cantorproj.cli import build_parser, main
from cantorproj.witness import witness_dumps, witness_from_dict

ALL_KNOB_FLAGS = {"--depth", "--n-max", "--i-max", "--truncation", "--budget", "--seed"}
COMMAND_FLAGS = {
    "construct": {"--n-max", "--i-max"},
    "image": {"--depth"},
    "falsify": {"--budget"},
    "verify": set(),
    "check": ALL_KNOB_FLAGS,
}
# Each command line with a size knob it reads; every size knob appears, and
# ``check`` reads all five.
SIZE_KNOB_READERS = [
    (["construct"], "n_max"),
    (["construct"], "i_max"),
    (["image", "ε x ε"], "depth"),
    (["falsify", "ε x ε"], "budget"),
    (["check"], "truncation"),
    (["check"], "depth"),
    (["check"], "n_max"),
    (["check"], "i_max"),
    (["check"], "budget"),
]


def _flag(knob):
    return "--" + knob.replace("_", "-")


def _reader_ids(spell):
    # A knob's first reader is named by the knob alone, a repeat by its
    # command too, so every knob keeps one case under its plain name.
    ids, seen = [], set()
    for argv, knob in SIZE_KNOB_READERS:
        ids.append(spell(knob) if knob not in seen else f"{argv[0]} {spell(knob)}")
        seen.add(knob)
    return ids


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

    def test_verify_only(self, capsys):
        code, out, _ = run(capsys, "falsify", "0 x 0", "--samples", "3", "--verify-only")
        assert code == 0
        assert json.loads(out)["ok"] is True

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

    @pytest.mark.parametrize(
        "edit, clause",
        [
            (lambda m: [], "missing_count"),
            (lambda m: m[:1] * 3, "missing_indices_increasing"),
            (lambda m: [{**m[0], "i": "0"}] + m[1:], "missing_indices_increasing"),
        ],
        ids=["empty", "repeated", "string-index"],
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
        ],
        ids=["no-rect", "missing-not-a-list", "entry-without-point"],
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

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_verify_samples_below_one(self, tmp_path, capsys, value):
        cert_file = tmp_path / "w.json"
        run(capsys, "falsify", "2 x 0", "--samples", "4", "--out", str(cert_file))
        code, out, err = run(capsys, "verify", str(cert_file), "--samples", value)
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


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "construct", "--bogus")[0] == 2

    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CANTORPROJ_DEPTH", "1")
        code, out, _ = run(capsys, "image", "ε x ε")
        assert code == 0
        assert json.loads(out)["trace"]["depth"] == 1

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CANTORPROJ_DEPTH", "1")
        code, out, _ = run(capsys, "image", "ε x ε", "--depth", "2")
        assert json.loads(out)["trace"]["depth"] == 2

    @pytest.mark.parametrize("argv, knob", SIZE_KNOB_READERS, ids=_reader_ids(_flag))
    def test_negative_size_flag(self, capsys, argv, knob):
        code, out, err = run(capsys, *argv, _flag(knob), "-3")
        assert code == 2 and out == ""
        assert "natural number" in err

    @pytest.mark.parametrize("argv, knob", SIZE_KNOB_READERS, ids=_reader_ids(str.upper))
    def test_negative_size_env(self, capsys, monkeypatch, argv, knob):
        monkeypatch.setenv("CANTORPROJ_" + knob.upper(), "-1")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "natural number" in err

    def test_negative_seed_allowed(self, capsys):
        code, _, _ = run(capsys, "check", "--seed", "-3")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [["construct", "--depth", "3"], ["verify", "--budget", "5", "w.json"]],
        ids=["construct--depth", "verify--budget"],
    )
    def test_knob_of_another_command_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    def test_env_of_another_command_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("CANTORPROJ_BUDGET", "-1")
        code, out, _ = run(capsys, "construct", "--n-max", "1")
        assert code == 0
        assert len(json.loads(out)["dense_pairs"]) == 1

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_own_knobs(self, capsys, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert shown & ALL_KNOB_FLAGS == COMMAND_FLAGS[command]

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("CANTORPROJ_DEPTH", "three")
        code, _, err = run(capsys, "image", "ε x ε")
        assert code == 2
        assert "CANTORPROJ_DEPTH" in err


def test_python_dash_m_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "cantorproj", "construct", "--n-max", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["dense_pairs"]) == 2
