import json
import os
import subprocess
import sys

import jsonschema
import pytest

from faultlines.cli import config_from_args, main
from faultlines.explorer import ExplorerConfig
from faultlines.mcs import McsConfig
from faultlines.solver import DomainConfig

from helpers import CORPUS, DOCS, ROOT, corpus_manifest


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse errors
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_args(name):
    entry = corpus_manifest()[name]
    return [
        "run",
        str(CORPUS / entry["source"]),
        "--ce-file",
        str(CORPUS / entry["ce"]),
        *entry["args"],
    ]


# --- golden files ---------------------------------------------------------------


def test_absminus_text_golden(capsys):
    code, out, _ = run_cli(capsys, *corpus_args("absminus"))
    assert code == 0
    assert out == (CORPUS / "expected" / "absminus.txt").read_text()


def test_absminus_json_golden(capsys):
    code, out, _ = run_cli(capsys, *corpus_args("absminus"), "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == (CORPUS / "expected" / "absminus.json").read_bytes()


@pytest.mark.parametrize("name", sorted(corpus_manifest()))
def test_corpus_json_fixtures(capsys, name):
    code, out, _ = run_cli(capsys, *corpus_args(name), "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == (CORPUS / "expected" / f"{name}.json").read_bytes()


# --- json schema and round-trip -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(corpus_manifest()))
def test_json_validates_against_shipped_schema(capsys, name):
    schema = json.loads((DOCS / "report-schema.json").read_text())
    code, out, _ = run_cli(capsys, *corpus_args(name), "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(out), schema)


def test_json_roundtrip_bytes(capsys):
    from faultlines.report import dumps_document

    _, out, _ = run_cli(capsys, *corpus_args("absminus"), "--format", "json")
    raw = out.encode("utf-8")
    assert dumps_document(json.loads(out)) == raw


# --- counterexample input forms -------------------------------------------------------


def test_inline_bindings_match_ce_file(capsys):
    entry = corpus_manifest()["absminus"]
    src = str(CORPUS / entry["source"])
    code1, out1, _ = run_cli(
        capsys, "run", src, "--in", "i=0", "--in", "j=1", *entry["args"]
    )
    code2, out2, _ = run_cli(capsys, *corpus_args("absminus"))
    assert code1 == code2 == 0
    assert out1 == out2


def test_both_ce_sources_is_usage_error(capsys):
    entry = corpus_manifest()["absminus"]
    code, _, err = run_cli(
        capsys,
        "run",
        str(CORPUS / entry["source"]),
        "--in",
        "i=0",
        "--ce-file",
        str(CORPUS / entry["ce"]),
    )
    assert code == 2
    assert "not both" in err


def test_bad_binding_is_usage_error(capsys):
    src = str(CORPUS / "absminus.src")
    assert run_cli(capsys, "run", src, "--in", "i0")[0] == 2
    assert run_cli(capsys, "run", src, "--in", "i=zero", "--in", "j=1")[0] == 2


def test_wrong_ce_keys_is_usage_error(capsys):
    src = str(CORPUS / "absminus.src")
    code, _, err = run_cli(capsys, "run", src, "--in", "i=0")
    assert code == 2
    assert "j" in err
    code, _, err = run_cli(
        capsys, "run", src, "--in", "i=0", "--in", "j=1", "--in", "zz=2"
    )
    assert code == 2 and "zz" in err


# --- exit codes -----------------------------------------------------------------------


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "run", str(CORPUS / "nope.src"), "--in", "i=0")
    assert code == 1
    assert "cannot read" in err


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.src"
    bad.write_text("/*@ ensures \\result == x; */ int f (int x) { while (x > 0) { } return x; }")
    code, _, err = run_cli(capsys, "run", str(bad), "--in", "x=0")
    assert code == 1
    assert "loop" in err


@pytest.mark.parametrize(
    "source, message",
    [
        (
            "/*@ ensures \\result == x; */\nint f (int x) {\n  return x + ²;\n}\n",
            "error: line 3:14: unexpected character '²'",
        ),
        (
            "/*@ ensures \\result == x; */\nint f (int x) {\n  int é = x;\n"
            "  return é + ١;\n}\n",
            "error: line 3:7: unexpected character 'é'",
        ),
    ],
    ids=["superscript-digit", "non-ascii-identifier"],
)
def test_non_ascii_character_exits_1(tmp_path, capsys, source, message):
    bad = tmp_path / "bad.src"
    bad.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(bad), "--in", "x=0")
    assert code == 1
    assert out == ""
    assert err.strip() == message


def test_typecheck_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.src"
    bad.write_text("/*@ ensures \\result == x; */ int f (int x) { return m; }")
    code, _, err = run_cli(capsys, "run", str(bad), "--in", "x=0")
    assert code == 1
    assert "'m'" in err


def test_implies_in_body_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.src"
    bad.write_text(
        "/*@ ensures \\result == x; */ int f (int x) { if (x > 0 ==> x > 1) { x = 1; } return x; }"
    )
    code, _, err = run_cli(capsys, "run", str(bad), "--in", "x=0")
    assert code == 1
    assert "'==>' is only allowed in annotations" in err


def test_non_violating_ce_exits_3(capsys):
    # hand simulation: AbsMinus(5, 3) follows the i >= j branch and returns
    # 5 - 3 = 2 = |5-3|, so the postcondition holds
    code, _, err = run_cli(
        capsys, "run", str(CORPUS / "absminus.src"), "--in", "i=5", "--in", "j=3"
    )
    assert code == 3
    assert "does not violate" in err


def test_precondition_violating_ce_exits_3(tmp_path, capsys):
    src = tmp_path / "pre.src"
    src.write_text(
        "/*@ requires x > 0; ensures \\result == x + 1; */ int f (int x) { return x; }"
    )
    code, _, err = run_cli(capsys, "run", str(src), "--in", "x=-5")
    assert code == 3
    assert "precondition" in err


def test_domain_overflow_on_initial_path_is_usage_error(capsys):
    # TwicePlusOne(1) returns y + 3 = 5, outside [0, 3]
    code, out, err = run_cli(
        capsys, "run", str(CORPUS / "twiceplusone.src"), "--in", "x=1", "--domain=0:3"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.rstrip().endswith("; widen --domain")
    assert "Traceback" not in err


def test_usage_error_on_bad_flags(capsys):
    assert run_cli(capsys, "run", str(CORPUS / "absminus.src"), "--bmcs", "0")[0] == 2
    assert run_cli(capsys, "run", str(CORPUS / "absminus.src"), "--domain", "4:-4")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


# --- flags -----------------------------------------------------------------------------


def test_bcond_zero_reports_only_initial(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        str(CORPUS / "absminus.src"),
        "--in",
        "i=0",
        "--in",
        "j=1",
        "--bcond",
        "0",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [d["kind"] for d in doc["diagnoses"]] == ["initial_path"]


def test_no_incremental_changes_statistics_only(capsys):
    base = corpus_args("absminus") + ["--format", "json"]
    code1, out1, _ = run_cli(capsys, *base)
    code2, out2, _ = run_cli(capsys, *base, "--no-incremental")
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["settings"]["incremental"] is True
    assert doc2["settings"]["incremental"] is False
    s1, s2 = doc1.pop("statistics"), doc2.pop("statistics")
    doc1["settings"].pop("incremental")
    doc2["settings"].pop("incremental")
    assert doc1 == doc2
    assert s1["solver_assertions"] < s2["solver_assertions"]


def test_dot_dump(tmp_path, capsys):
    dot = tmp_path / "absminus.dot"
    code, _, _ = run_cli(capsys, *corpus_args("absminus"), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith('digraph "AbsMinus"')
    assert "k_1 = k_0 + 2 @ 10" in text


def test_config_from_args_defaults_match_cli():
    assert config_from_args([]) == ExplorerConfig(
        b_cond=2, mcs=McsConfig(b_mcs=3, k_max=2), dom=DomainConfig()
    )


def test_config_from_args_negative_domain():
    assert config_from_args(["--domain=-8:8"]).dom == DomainConfig(-8, 8)
    assert config_from_args(["--domain", "-8:8"]).dom == DomainConfig(-8, 8)


def test_negative_domain_both_spellings_match(capsys):
    argv = ["run", str(CORPUS / "absminus.src"), "--in", "i=0", "--in", "j=1", "--format", "json"]
    spaced = run_cli(capsys, *argv, "--domain", "-128:127")
    joined = run_cli(capsys, *argv, "--domain=-128:127")
    assert spaced[0] == 0
    assert spaced == joined
    assert '"lo": -128' in spaced[1]


def test_config_from_args_rejects_bad_flags():
    with pytest.raises(SystemExit) as e:
        config_from_args(["--bcond", "-1"])
    assert e.value.code == 2


def test_import_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, faultlines, faultlines.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"


def test_installed_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "faultlines.cli", "--help"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout
