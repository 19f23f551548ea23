import json
import os
import subprocess
import sys

import jsonschema
import pytest

from faultlines.cli import config_from_args, main
from faultlines.explorer import ExplorerConfig
from faultlines.mcs import McsConfig
from faultlines.records import shown
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


@pytest.mark.parametrize(
    "bindings, ce_text, message",
    [
        (["i=0", "j=1", "i=1"], None, "--in binds 'i' twice"),
        (["k" * 5000 + "=0", "k" * 5000 + "=1"], None,
         f"--in binds '{'k' * 20}'... (5000 characters) twice"),
        ([], '{"i": 0, "j": 1, "i": 1}', "counterexample file binds 'i' twice"),
    ],
    ids=["in", "in-long-name", "ce-file"],
)
def test_name_bound_twice_is_usage_error(tmp_path, capsys, bindings, ce_text, message):
    # the last value used to win without a word
    args = ["run", str(CORPUS / "absminus.src")]
    for b in bindings:
        args += ["--in", b]
    if ce_text is not None:
        ce = tmp_path / "ce.json"
        ce.write_text(ce_text)
        args += ["--ce-file", str(ce)]
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"faultlines: error: {message}"


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


# From Python 3.12 the JSON decoder nests as deep as the C recursion limit
# allows (under 2,000 levels on 3.12.1, under 10,000 on 3.13.0), so 1,000
# levels decode there and are refused as not an object of integers.
@pytest.mark.parametrize("depth, message", [
    (1_000, "counterexample file nests too deeply" if sys.version_info < (3, 12)
     else "counterexample file must be a JSON object of integers"),
    (100_000, "counterexample file nests too deeply"),
], ids=["1000", "100000"])
def test_deeply_nested_ce_file_is_usage_error(tmp_path, capsys, depth, message):
    ce = tmp_path / "deep.ce.json"
    ce.write_text('{"i": 0, "j": 1, "k": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run_cli(capsys, "run", str(CORPUS / "absminus.src"), "--ce-file", str(ce))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"faultlines: error: {message}"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unwritable_report_exits_1(fmt):
    # stdout stays buffered, as by default, so the report is still in the
    # buffer when the interpreter exits
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "faultlines.cli", "run", str(CORPUS / "absminus.src"),
             "--in", "i=0", "--in", "j=1", "--format", fmt],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write report: [Errno 28] No space left on device\n"


def test_non_utf8_program_exits_1(tmp_path, capsys):
    bad = tmp_path / "latin1.src"
    bad.write_bytes(b"/*@ ensures \\result == x; */\n// caf\xe9\nint f (int x) { return x; }\n")
    code, out, err = run_cli(capsys, "run", str(bad), "--in", "x=0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read program: ")
    assert "Traceback" not in err


def test_non_utf8_ce_file_is_usage_error(tmp_path, capsys):
    ce = tmp_path / "bad.ce.json"
    ce.write_bytes(b'{"i": 0, "j": 1\xff}')
    code, out, err = run_cli(capsys, "run", str(CORPUS / "absminus.src"), "--ce-file", str(ce))
    assert code == 2
    assert out == ""
    assert "cannot read counterexample file" in err


def test_over_long_literal_exits_1(tmp_path, capsys):
    # more digits than Python's 4,300-digit limit for `int`
    digits = "1" * 5000
    bad = tmp_path / "long.src"
    bad.write_text(f"/*@ ensures \\result == x; */\nint f (int x) {{ return {digits}; }}\n")
    code, out, err = run_cli(capsys, "run", str(bad), "--in", "x=0")
    assert code == 1
    assert out == ""
    assert err == (
        "error: line 2:24: integer literal out of 64-bit range: "
        f"{digits[:20]!r}... (5000 characters)\n"
    )


@pytest.mark.parametrize(
    "source, message",
    [
        (
            "/*@ ensures x " + "z" * 5000 + "; */ int f(int x) { return x; }",
            f"line 1:15: expected ';', found '{'z' * 20}'... (5000 characters)",
        ),
        (
            "/*@ ensures \\result == x; */ int f(int x) { " + "0" * 5000 + "1; return x; }",
            f"line 1:45: expected statement, found '{'0' * 20}'... (5001 characters)",
        ),
    ],
    ids=["comparison", "statement"],
)
def test_over_long_token_is_cut_in_the_parse_error(tmp_path, capsys, source, message):
    bad = tmp_path / "long.src"
    bad.write_text(source)
    code, out, err = run_cli(capsys, "run", str(bad), "--in", "x=0")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_over_long_ce_integer_is_usage_error(tmp_path, capsys):
    ce = tmp_path / "long.ce.json"
    ce.write_text('{"i": 0, "j": ' + "1" * 5000 + "}")
    code, out, err = run_cli(capsys, "run", str(CORPUS / "absminus.src"), "--ce-file", str(ce))
    assert code == 2
    assert out == ""
    assert "counterexample file holds an integer with too many digits" in err
    assert "Traceback" not in err


def test_over_long_in_value_is_usage_error(capsys):
    src = str(CORPUS / "absminus.src")
    code, out, err = run_cli(capsys, "run", src, "--in", "i=0", "--in", "j=" + "1" * 5000)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].endswith("error: --in value for 'j' has too many digits")
    assert "1111" not in err
    code, _, err = run_cli(capsys, "run", src, "--in", "i=0", "--in", "j=1" + "x" * 10)
    assert code == 2
    assert err.splitlines()[-1].endswith("--in value for 'j' is not an integer: '1xxxxxxxxxx'")


@pytest.mark.parametrize(
    "binding, message",
    [
        ("j=" + "x" * 5000, f"value for 'j' is not an integer: '{'x' * 20}'... (5000 characters)"),
        ("x" * 5000, f"--in expects NAME=INT, got '{'x' * 20}'... (5000 characters)"),
        ("y" * 5000 + "=x", f"value for '{'y' * 20}'... (5000 characters) is not an integer: 'x'"),
    ],
)
def test_malformed_in_binding_is_cut_in_the_error(capsys, binding, message):
    src = str(CORPUS / "absminus.src")
    code, out, err = run_cli(capsys, "run", src, "--in", "i=0", "--in", binding)
    assert code == 2
    assert out == ""
    assert len(err.encode("utf-8")) < 300
    assert err.splitlines()[-1].endswith(message)


def test_over_long_unknown_input_name_is_cut_in_the_error(capsys):
    src = str(CORPUS / "absminus.src")
    name = "k" * 5000
    code, out, err = run_cli(capsys, "run", src, "--in", "i=0", "--in", "j=1", "--in", name + "=1")
    assert code == 2
    assert out == ""
    assert len(err.encode("utf-8")) < 300
    message = f"counterexample has unknown key(s): '{'k' * 20}'... (5000 characters)"
    assert err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("name", ["j", "j" * 5000])
def test_missing_parameter_is_named_in_the_error(tmp_path, capsys, name):
    src = tmp_path / "two.src"
    src.write_text(f"/*@ ensures \\result == i; */\nint f (int i, int {name}) {{ return i; }}\n")
    code, out, err = run_cli(capsys, "run", str(src), "--in", "i=0")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"faultlines: error: counterexample misses parameter(s): {shown(name)}"
    )


def test_result_outside_ensures_lists_each_misuse(tmp_path, capsys):
    bad = tmp_path / "result.src"
    bad.write_text(
        "/*@ requires \\result > 0; ensures \\result == x; */\nint f (int x) {\n"
        "  int y = x;\n  y = y + \\result;\n  return y;\n}\n"
    )
    code, out, err = run_cli(capsys, "run", str(bad), "--in", "x=0")
    assert code == 1
    assert out == ""
    assert err == (
        "error: line 4:11: \\result is not allowed in function bodies\n"
        "error: line 1:14: \\result is only allowed in 'ensures'\n"
    )


BODY_SPEC = "ensures \\result == x;"

# (annotations, body, stderr).  Every operand of the wrong sort is reported
# and the walk goes on below it, so one run lists every misuse; a name in a
# diagnostic is cut as in a parse error.
TYPECHECK_FAILURES = [
    (BODY_SPEC, "  if (x) { x = 1; }\n",
     "error: line 3:7: expected a condition, found an integer expression\n"),
    (BODY_SPEC, "  int y = x > 0;\n",
     "error: line 3:13: expected an integer expression, found a condition\n"),
    (BODY_SPEC, "  if (x < 1 < 2) { x = 1; }\n",
     "error: line 3:9: expected an integer expression, found a condition\n"),
    (BODY_SPEC, "  if (!x) { x = 1; }\n",
     "error: line 3:8: expected a condition, found an integer expression\n"),
    (BODY_SPEC, "  x = x > 0 ==> m > 1;\n  x = -(x == 1) + 1;\n",
     "error: line 3:13: expected an integer expression, found a condition\n"
     "error: line 3:13: '==>' is only allowed in annotations\n"
     "error: line 3:17: use of undeclared variable 'm'\n"
     "error: line 4:11: expected an integer expression, found a condition\n"),
    ("requires x + (x > 0) > 1;\n  @ ensures \\result;", "",
     "error: line 1:21: expected an integer expression, found a condition\n"
     "error: line 2:13: expected a condition, found an integer expression\n"),
    (BODY_SPEC, "  int y = " + "z" * 5000 + ";\n",
     f"error: line 3:11: use of undeclared variable '{'z' * 20}'... (5000 characters)\n"),
]


@pytest.mark.parametrize("spec, body, stderr", TYPECHECK_FAILURES,
                         ids=["if-integer", "decl-condition", "comparison-chain", "not-integer",
                              "implies-assigned", "annotations", "long-undeclared-name"])
def test_typecheck_failure_stderr_is_pinned(tmp_path, capsys, spec, body, stderr):
    bad = tmp_path / "bad.src"
    bad.write_text(f"/*@ {spec} */\nint f (int x) {{\n{body}  return x;\n}}\n")
    assert run_cli(capsys, "run", str(bad), "--in", "x=0") == (1, "", stderr)


def _nested_ifs(depth):
    body = "x = x + 1;"
    for i in range(depth):
        body = f"if (x > {i}) {{ {body} }}"
    return f"/*@ ensures \\result == x + 1; */\nint f (int x) {{\n  {body}\n  return x;\n}}\n"


@pytest.mark.parametrize(
    "source",
    [
        "/*@ ensures \\result == x; */ int f (int x) { return " + " + ".join(["x"] * 1500) + "; }",
        _nested_ifs(400),
    ],
    ids=["long-sum", "nested-ifs"],
)
def test_deep_program_exits_1(tmp_path, capsys, source):
    deep = tmp_path / "deep.src"
    deep.write_text(source)
    code, out, err = run_cli(capsys, "run", str(deep), "--in", "x=1", "--bcond", "0")
    assert code == 1
    assert out == ""
    assert err == "error: program nests too deeply to analyse\n"


def test_deeply_parenthesised_condition_runs(tmp_path, capsys):
    # the parser spends two frames per parenthesis and reads `(` the same way
    # in a condition and in an integer expression
    src = tmp_path / "parens.src"
    src.write_text(
        "/*@ ensures \\result == 1; */\nint f (int x) {\n  int r = 0;\n"
        f"  if ({'(' * 400}x{')' * 400} > 0) {{\n    r = 1;\n  }}\n  return r;\n}}\n"
    )
    code, out, err = run_cli(capsys, "run", str(src), "--in", "x=-5", "--domain=-10:10",
                             "--bcond", "1")
    assert (code, err) == (0, "")
    assert "  deviated condition: line 4 (d4): x_0 > 0\n" in out


def test_long_path_exits_1(tmp_path, capsys):
    # the solver's search recurses once per decided variable: 1,200 versions
    # of x go past the interpreter's recursion limit
    body = "".join("  x = x + 1;\n" for _ in range(1200))
    chain = tmp_path / "chain.src"
    chain.write_text(
        f"/*@ ensures \\result == x + 1201; */\nint f (int x) {{\n{body}  return x;\n}}\n"
    )
    got = run_cli(capsys, "run", str(chain), "--in", "x=1", "--bcond", "1", "--kmax", "1",
                  "--bmcs", "3")
    assert got == (1, "", "error: program path is too long for the solver's search\n")


@pytest.mark.parametrize("op, sign", [("&&", "-"), ("||", "")], ids=["and", "or"])
def test_long_condition_chain_runs_and_writes_dot(tmp_path, capsys, op, sign):
    # a 400-term chain nests 399 levels deep, one per operator, and prints as
    # the parser nested it, every inner chain in parentheses; x = -5 fails it
    terms = [f"x > {sign}{i}" for i in range(1, 401)]
    src = tmp_path / "chain.src"
    src.write_text(
        "/*@ ensures \\result == 1; */\nint f (int x) {\n  int r = 0;\n"
        f"  if ({f' {op} '.join(terms)}) {{\n    r = 1;\n  }}\n  return r;\n}}\n"
    )
    label = f"x_0 > {sign}1 {op} x_0 > {sign}2"
    for i in range(3, 401):
        label = f"({label}) {op} x_0 > {sign}{i}"
    dot = tmp_path / "chain.dot"
    code, out, err = run_cli(capsys, "run", str(src), "--in", "x=-5", "--domain=-10:10",
                             "--bcond", "1", "--dot", str(dot))
    assert (code, err) == (0, "")
    assert f"  deviated condition: line 4 (d4): {label}\n" in out
    assert f'"d4" [shape=diamond, label="{label}\\\\nline 4"];' in dot.read_text()


def test_nested_ifs_below_the_limit_run(tmp_path, capsys):
    src = tmp_path / "nested.src"
    src.write_text(_nested_ifs(300))
    code, out, _ = run_cli(capsys, "run", str(src), "--in", "x=1", "--bcond", "0")
    assert code == 0
    assert "diagnosis 1: initial path" in out


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


TRITYPE = ROOT / "perfbench" / "tritype" / "tritype.src"
NOT_PRE = "error: counterexample violates the precondition\n"
NOT_POST = "error: counterexample does not violate the postcondition\n"
# returns x: f(-5) breaks both annotations, and the precondition is checked first
REQUIRES_ONLY = "/*@ requires x > 0; ensures \\result == x + 1; */ int f (int x) { return x; }"


@pytest.mark.parametrize(
    "program, inputs, flags, code, err, dot_written",
    [
        # Tritype requires i >= 0 && j >= 0 && k >= 0, checked before the domain box
        pytest.param(TRITYPE, ("i=-1", "j=1", "k=1"), (), 3, NOT_PRE, True,
                     id="violates-requires"),
        pytest.param(TRITYPE, ("i=-1", "j=1", "k=1"), ("--domain=0:3",), 3, NOT_PRE, True,
                     id="violates-requires-outside-domain"),
        pytest.param(REQUIRES_ONLY, ("x=-5",), (), 3, NOT_PRE, True,
                     id="violates-one-line-requires"),
        # AbsMinus(5, 3) returns 2 = |5-3|: the postcondition holds, but only a
        # path inside the domain box is followed to the postcondition
        pytest.param(CORPUS / "absminus.src", ("i=5", "j=3"), ("--domain=0:3",), 2,
                     "error: i = 5 escapes the domain box [0, 3]; widen --domain\n", True,
                     id="satisfies-ensures-outside-domain"),
        pytest.param(CORPUS / "absminus.src", ("i=5", "j=3"), (), 3, NOT_POST, True,
                     id="satisfies-ensures"),
    ],
)
def test_not_a_counterexample_is_pinned(tmp_path, capsys, program, inputs, flags, code, err,
                                        dot_written):
    if isinstance(program, str):  # source text rather than a file
        (tmp_path / "program.src").write_text(program)
        program = tmp_path / "program.src"
    dot = tmp_path / "graph.dot"
    args = ["run", str(program), *(a for i in inputs for a in ("--in", i)), *flags]
    got = run_cli(capsys, *args, "--dot", str(dot))
    assert got == (code, "", err)
    assert dot.exists() == dot_written


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


def test_dot_dump(tmp_path, capsys):
    dot = tmp_path / "absminus.dot"
    code, _, _ = run_cli(capsys, *corpus_args("absminus"), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith('digraph "AbsMinus"')
    assert "k_1 = k_0 + 2 @ 10" in text


def test_negated_guard_renders_lowered(tmp_path, capsys):
    # a guard prints as its lowered formula, in negation normal form
    src = tmp_path / "notguard.src"
    src.write_text(
        "/*@ ensures \\result == x + 1; */\nint f (int x) {\n  int y = x;\n"
        "  if (!(x > 0) && x != 5) {\n    y = x + 1;\n  }\n  return y;\n}\n"
    )
    dot = tmp_path / "notguard.dot"
    code, out, _ = run_cli(
        capsys, "run", str(src), "--in", "x=1", "--domain=-16:16", "--dot", str(dot)
    )
    assert code == 0
    assert "  deviated condition: line 4 (d4): x_0 <= 0 && x_0 != 5\n" in out
    assert '"d4" [shape=diamond, label="x_0 <= 0 && x_0 != 5\\\\nline 4"];' in dot.read_text()


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


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_import_does_not_load_numpy():
    for modules, cwd in [("faultlines, faultlines.cli", ROOT), ("reference", ROOT / "tests")]:
        code = f"import sys, {modules}; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_src_env(), cwd=str(cwd), check=True)
        assert proc.stdout.strip() == "False", modules


def test_readme_library_example_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_readme_example.py")],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "diagnosis 1: initial path" in proc.stdout.splitlines()


def test_cold_import_loads_no_dataclasses_inspect_or_ast():
    # in a fresh interpreter: pytest has loaded these modules itself
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_cold_import.py")],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert str(ROOT / "src" / "faultlines" / "cli.py") in proc.stdout


def test_installed_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "faultlines.cli", "--help"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout
