import hashlib
import itertools
import operator

import numpy as np
import pytest

from faultlines.frontend import (
    BoolAnd,
    Cmp,
    Decl,
    EvalError,
    If,
    Implies,
    Mul,
    ParseError,
    ResultRef,
    Return,
    Sub,
    UnsupportedConstructError,
    VarRef,
    _tokenize,
    interpret,
    parse_program,
    pretty,
    typecheck,
)

from helpers import ROOT, corpus_entry, random_program

IDENTITY = """\
/*@ ensures \\result == x; */
int f (int x) {
  return x;
}
"""


def test_parse_absminus_shape():
    text, _, _ = corpus_entry("absminus")
    fn = parse_program(text)
    assert fn.name == "AbsMinus"
    assert fn.param_names == ("i", "j")
    assert fn.precondition is None
    # ((i < j) ==> (\result == j-i)) && ((i >= j) ==> (\result == i-j))
    post = fn.postcondition
    assert isinstance(post, BoolAnd)
    left, right = post.lhs, post.rhs
    assert isinstance(left, Implies) and isinstance(right, Implies)
    assert isinstance(left.antecedent, Cmp) and left.antecedent.op == "<"
    assert isinstance(left.consequent, Cmp) and left.consequent.op == "=="
    assert isinstance(left.consequent.lhs, ResultRef)
    assert isinstance(right.antecedent, Cmp) and right.antecedent.op == ">="
    # body: decl result, decl k = 0, if, if/else, return
    kinds = [type(s) for s in fn.body]
    assert kinds == [Decl, Decl, If, If, Return]
    assert fn.body[1].init.value == 0
    assert fn.body[2].loc.line == 9
    assert fn.body[3].loc.line == 11


def test_parse_identity_function():
    fn = parse_program(IDENTITY)
    assert fn.name == "f"
    assert isinstance(fn.body[-1], Return)
    assert isinstance(fn.body[-1].expr, VarRef)
    assert isinstance(fn.postcondition, Cmp)


def test_loop_rejected():
    text = """\
/*@ ensures \\result == 0; */
int f (int x) {
  while (x > 0) { x = x - 1; }
  return x;
}
"""
    with pytest.raises(UnsupportedConstructError, match="loop"):
        parse_program(text)
    with pytest.raises(UnsupportedConstructError, match="loop"):
        parse_program(text.replace("while", "for"))


def test_float_literal_rejected():
    with pytest.raises(UnsupportedConstructError, match="float"):
        parse_program("/*@ ensures \\result == 0; */ int f (int x) { return 1.5; }")
    with pytest.raises(UnsupportedConstructError, match="float"):
        parse_program("/*@ ensures \\result == 0; */ int f (float x) { return 0; }")


def test_division_rejected():
    with pytest.raises(UnsupportedConstructError, match="operator"):
        parse_program("/*@ ensures \\result == 0; */ int f (int x) { return x / 2; }")


def test_result_in_body_rejected():
    with pytest.raises(ParseError, match="result"):
        parse_program("/*@ ensures \\result == 0; */ int f (int x) { return \\result; }")


def test_missing_ensures_rejected():
    with pytest.raises(ParseError, match="ensures"):
        parse_program("int f (int x) { return x; }")


def test_return_must_be_last():
    text = """\
/*@ ensures \\result == 0; */
int f (int x) {
  if (x > 0) { return 1; }
  return 0;
}
"""
    with pytest.raises(ParseError, match="return"):
        parse_program(text)


def test_literal_out_of_64bit_range():
    big = str(2**63)
    with pytest.raises(ParseError, match="64-bit"):
        parse_program(f"/*@ ensures \\result == 0; */ int f (int x) {{ return {big}; }}")


def test_syntax_error_carries_location():
    try:
        parse_program("/*@ ensures \\result == 0; */ int f (int x) { return x +; }")
    except ParseError as e:
        assert e.loc.line == 1 and e.loc.column > 1
    else:
        pytest.fail("expected a parse error")


def _token_rows(src):
    return [(t.kind, t.text, t.loc.line, t.loc.column) for t in _tokenize(src)]


# sha256 over one "kind\ttext\tline\tcolumn" line per token, and the token
# count, as the character-by-character lexer produced them for the five
# corpus programs and Tritype
PINNED_TOKEN_DIGESTS = {
    "absminus": (103, "1d501fbedd758bbd19d959d94fb9a81a2d96f20c8beb7cc011323010c5707304"),
    "atleastten": (60, "443a2d89ad40e78135f9e8860879a962eaa8669406b0bd3187ca41630c066434"),
    "bonus": (81, "b00578347860db9146842043c9e681e65d11c8ae61b33ced50d3845169158ca6"),
    "capatten": (63, "e8c7f905341e87f71fa71d83f83034213bffe80bc0f17e3f214aeda8a9382c1b"),
    "tritype": (391, "6fee69afcfd0b2dfd0d49dc299bca1ade1ba70135353213d8252e15294ab2e92"),
    "twiceplusone": (32, "5b00932581f8762b6ee7a5c1960852a89773559c501a22055891d5cda4a9b247"),
}


def _token_digest(src):
    rows = _token_rows(src)
    text = "\n".join("\t".join(map(str, row)) for row in rows)
    return len(rows), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_TOKEN_DIGESTS))
def test_tokens_of_corpus_and_tritype_are_pinned(name):
    if name == "tritype":
        text = (ROOT / "perfbench" / "tritype" / "tritype.src").read_text()
    else:
        text, _, _ = corpus_entry(name)
    assert _token_digest(text) == PINNED_TOKEN_DIGESTS[name]


def test_tokens_pinned_crlf_tabs_and_comments():
    src = (
        "// leading comment\r\n/*@ ensures \\result == x; */\r\nint f (int x) {\r\n"
        "\tint y = x; /* block\r\n comment */ y = y*2;\r\n\treturn y; // done\r\n}\r\n"
    )
    assert _token_rows(src) == [
        ("annot_open", "/*@", 2, 1), ("ensures", "ensures", 2, 5),
        ("result", "\\result", 2, 13), ("==", "==", 2, 21), ("ident", "x", 2, 24),
        (";", ";", 2, 25), ("annot_close", "*/", 2, 27),
        ("int", "int", 3, 1), ("ident", "f", 3, 5), ("(", "(", 3, 7), ("int", "int", 3, 8),
        ("ident", "x", 3, 12), (")", ")", 3, 13), ("{", "{", 3, 15),
        ("int", "int", 4, 2), ("ident", "y", 4, 6), ("=", "=", 4, 8), ("ident", "x", 4, 10),
        (";", ";", 4, 11),
        ("ident", "y", 5, 13), ("=", "=", 5, 15), ("ident", "y", 5, 17), ("*", "*", 5, 18),
        ("num", "2", 5, 19), (";", ";", 5, 20),
        ("return", "return", 6, 2), ("ident", "y", 6, 9), (";", ";", 6, 10),
        ("}", "}", 7, 1), ("eof", "", 8, 1),
    ]


def test_tokens_pinned_jml_continuation_and_close_outside_annotation():
    # `@` after a line break inside `/*@ ... */` is skipped; outside an
    # annotation `*/*` is `*` followed by a block comment
    src = (
        "/*@ requires x > 0;\n @ ensures\n @   \\result >= x ==> x != 0; */\n"
        "int f (int x) { return x */* c */ 2 - 9223372036854775807; }"
    )
    assert _token_rows(src) == [
        ("annot_open", "/*@", 1, 1), ("requires", "requires", 1, 5), ("ident", "x", 1, 14),
        (">", ">", 1, 16), ("num", "0", 1, 18), (";", ";", 1, 19),
        ("ensures", "ensures", 2, 4),
        ("result", "\\result", 3, 6), (">=", ">=", 3, 14), ("ident", "x", 3, 17),
        ("==>", "==>", 3, 19), ("ident", "x", 3, 23), ("!=", "!=", 3, 25), ("num", "0", 3, 28),
        (";", ";", 3, 29), ("annot_close", "*/", 3, 31),
        ("int", "int", 4, 1), ("ident", "f", 4, 5), ("(", "(", 4, 7), ("int", "int", 4, 8),
        ("ident", "x", 4, 12), (")", ")", 4, 13), ("{", "{", 4, 15),
        ("return", "return", 4, 17), ("ident", "x", 4, 24), ("*", "*", 4, 26),
        ("num", "2", 4, 35), ("-", "-", 4, 37), ("num", "9223372036854775807", 4, 39),
        (";", ";", 4, 58), ("}", "}", 4, 60), ("eof", "", 4, 61),
    ]


def test_tokens_pinned_operators_and_keywords():
    src = (
        "/*@ ensures !(\\result <= 0) || \\resultx < 1 && x == -1; */ class C { "
        "int g(int x,int y){if(x>=y)x=y;else{y=x;}return x-y;} }"
    )
    assert {row[2] for row in _token_rows(src)} == {1}
    assert [(kind, text, col) for kind, text, _, col in _token_rows(src)] == [
        ("annot_open", "/*@", 1), ("ensures", "ensures", 5), ("!", "!", 13), ("(", "(", 14),
        ("result", "\\result", 15), ("<=", "<=", 23), ("num", "0", 26), (")", ")", 27),
        ("||", "||", 29), ("result", "\\result", 32), ("ident", "x", 39), ("<", "<", 41),
        ("num", "1", 43), ("&&", "&&", 45), ("ident", "x", 48), ("==", "==", 50),
        ("-", "-", 53), ("num", "1", 54), (";", ";", 55), ("annot_close", "*/", 57),
        ("class", "class", 60), ("ident", "C", 66), ("{", "{", 68), ("int", "int", 70),
        ("ident", "g", 74), ("(", "(", 75), ("int", "int", 76), ("ident", "x", 80),
        (",", ",", 81), ("int", "int", 82), ("ident", "y", 86), (")", ")", 87),
        ("{", "{", 88), ("if", "if", 89), ("(", "(", 91), ("ident", "x", 92),
        (">=", ">=", 93), ("ident", "y", 95), (")", ")", 96), ("ident", "x", 97),
        ("=", "=", 98), ("ident", "y", 99), (";", ";", 100), ("else", "else", 101),
        ("{", "{", 105), ("ident", "y", 106), ("=", "=", 107), ("ident", "x", 108),
        (";", ";", 109), ("}", "}", 110), ("return", "return", 111), ("ident", "x", 118),
        ("-", "-", 119), ("ident", "y", 120), (";", ";", 121), ("}", "}", 122),
        ("}", "}", 124), ("eof", "", 125),
    ]


MALFORMED = [
    ("int f /* open\n x", ParseError, "unterminated comment", 1, 7),
    ("return 1.5;", UnsupportedConstructError, "unsupported construct: float literal", 1, 8),
    ("  while (x) {}", UnsupportedConstructError, "unsupported construct: loop", 1, 3),
    ("int f (double x)", UnsupportedConstructError,
     "unsupported construct: floating-point type", 1, 8),
    ("x = x / 2;", UnsupportedConstructError, "unsupported construct: operator '/'", 1, 7),
    ("x = x % 2;", UnsupportedConstructError, "unsupported construct: operator '%'", 1, 7),
    ("int _x;", ParseError, "unexpected character '_'", 1, 5),
    ("int x; @", ParseError, "unexpected character '@'", 1, 8),
    ("/*@ ensures @ x; */", ParseError, "unexpected character '@'", 1, 13),
    ("return 9223372036854775808;", ParseError,
     "integer literal out of 64-bit range: 9223372036854775808", 1, 8),
    ("/*@ ensures x == 0; // c\n */", UnsupportedConstructError,
     "unsupported construct: operator '/'", 1, 21),
    ("/*@ ensures x == 0;\n /*@ */", UnsupportedConstructError,
     "unsupported construct: operator '/'", 2, 2),
    ("int f (int x) { return x */ 2; }", UnsupportedConstructError,
     "unsupported construct: operator '/'", 1, 27),
    # identifiers and literals are ASCII only (docs/grammar.md)
    ("return x + ²;", ParseError, "unexpected character '²'", 1, 12),
    ("int é = x;", ParseError, "unexpected character 'é'", 1, 5),
    ("return x + ١;", ParseError, "unexpected character '١'", 1, 12),
    ("int x1²;", ParseError, "unexpected character '²'", 1, 7),
]


@pytest.mark.parametrize("src, cls, message, line, column", MALFORMED)
def test_malformed_input_error_is_pinned(src, cls, message, line, column):
    with pytest.raises(cls) as info:
        _tokenize(src)
    assert type(info.value) is cls
    assert info.value.message == message
    assert (info.value.loc.line, info.value.loc.column) == (line, column)


def test_typecheck_absminus_clean():
    text, _, _ = corpus_entry("absminus")
    assert typecheck(parse_program(text)) == []


def test_typecheck_undeclared_variable():
    fn = parse_program("/*@ ensures \\result == x; */ int f (int x) { return m + x; }")
    diags = typecheck(fn)
    assert len(diags) == 1
    assert "'m'" in diags[0].message
    assert diags[0].loc.line == 1


def test_typecheck_nonlinear_product():
    fn = parse_program(
        "/*@ ensures \\result == 0; */ int f (int i, int j) { int k = i*j; return k; }"
    )
    diags = typecheck(fn)
    assert any("non-linear" in d.message for d in diags)
    # constant products stay linear
    fn2 = parse_program(
        "/*@ ensures \\result == 0; */ int f (int i) { int k = 2*i + i*3; return k; }"
    )
    assert typecheck(fn2) == []


def test_typecheck_redeclaration():
    fn = parse_program(
        "/*@ ensures \\result == 0; */ int f (int x) { int y = 0; int y = 1; return y; }"
    )
    assert any("redeclaration" in d.message for d in typecheck(fn))


def test_typecheck_use_before_assignment():
    fn = parse_program(
        """/*@ ensures \\result == 0; */
int f (int x) {
  int y;
  if (x > 0) { y = 1; }
  return y;
}
"""
    )
    assert any("before assignment" in d.message for d in typecheck(fn))


IMPLIES_IN_BODY = (
    "/*@ ensures \\result == x; */ int f (int x) { if (x > 0 ==> x > 1) { x = 1; } return x; }"
)


def test_implies_in_if_condition_rejected():
    # the parser accepts '==>' in any condition; the typechecker rejects it
    fn = parse_program(IMPLIES_IN_BODY)
    diags = typecheck(fn)
    assert [d.message for d in diags] == ["'==>' is only allowed in annotations"]


def test_assignment_to_undeclared():
    fn = parse_program("/*@ ensures \\result == 0; */ int f (int x) { q = 1; return x; }")
    assert any("undeclared" in d.message for d in typecheck(fn))


def test_annotation_vars_must_be_parameters():
    fn = parse_program(
        "/*@ ensures \\result == y; */ int f (int x) { int y = x; return y; }"
    )
    assert any("not a parameter" in d.message for d in typecheck(fn))


def test_mul_parse_shape():
    fn = parse_program("/*@ ensures \\result == 0; */ int f (int x) { return 2*x - x*3; }")
    body = fn.body[0].expr
    assert isinstance(body, Sub)
    assert isinstance(body.lhs, Mul) and isinstance(body.rhs, Mul)


def _all_locs(node, acc):
    if hasattr(node, "loc"):
        acc.append(node.loc)
    for attr in ("lhs", "rhs", "operand", "antecedent", "consequent", "cond", "init", "expr"):
        child = getattr(node, attr, None)
        if child is not None and not isinstance(child, str):
            _all_locs(child, acc)
    for attr in ("body", "then_body", "else_body"):
        for child in getattr(node, attr, ()):
            _all_locs(child, acc)
    return acc


def test_locations_within_input_bounds():
    text, _, _ = corpus_entry("absminus")
    fn = parse_program(text)
    lines = text.splitlines()
    for loc in _all_locs(fn, []):
        assert 1 <= loc.line <= len(lines)
        assert 1 <= loc.column <= len(lines[loc.line - 1]) + 1


def test_pretty_roundtrip_corpus():
    from helpers import corpus_manifest

    for name in corpus_manifest():
        text, _, _ = corpus_entry(name)
        fn = parse_program(text)
        again = parse_program(pretty(fn))
        assert again == fn


def test_pretty_roundtrip_random_programs():
    rng = np.random.default_rng(20250809)
    for _ in range(60):
        text = random_program(rng)
        fn = parse_program(text)
        assert typecheck(fn) == []
        again = parse_program(pretty(fn))
        assert again == fn


def test_interpret_absminus():
    text, _, _ = corpus_entry("absminus")
    fn = parse_program(text)
    failing = interpret(fn, {"i": 0, "j": 1})
    assert failing.result == -1
    assert not failing.postcondition_holds
    # hand simulation of (5, 3): i > j path gives 5 - 3 = 2 = |5-3|
    passing = interpret(fn, {"i": 5, "j": 3})
    assert passing.result == 2
    assert passing.postcondition_holds


def test_interpret_precondition():
    fn = parse_program(
        "/*@ requires x > 0; ensures \\result == x; */ int f (int x) { return x; }"
    )
    assert interpret(fn, {"x": 3}).precondition_holds
    assert not interpret(fn, {"x": -1}).precondition_holds


@pytest.mark.parametrize(
    "op, py",
    [
        ("==", operator.eq),
        ("!=", operator.ne),
        ("<", operator.lt),
        ("<=", operator.le),
        (">", operator.gt),
        (">=", operator.ge),
    ],
)
def test_interpret_comparison_matches_python(op, py):
    fn = parse_program(
        f"/*@ ensures x {op} y; */ int f (int x, int y) "
        f"{{ int r = 0; if (x {op} y) {{ r = 1; }} return r; }}"
    )
    for x, y in itertools.product(range(-2, 3), repeat=2):
        out = interpret(fn, {"x": x, "y": y})
        assert out.result == int(py(x, y)), (x, y)
        assert out.postcondition_holds is py(x, y), (x, y)


@pytest.mark.parametrize(
    "cond, py",
    [
        ("(a > 0) && (b > 0)", lambda a, b: a and b),
        ("(a > 0) || (b > 0)", lambda a, b: a or b),
        ("!(a > 0)", lambda a, b: not a),
        ("(a > 0) ==> (b > 0)", lambda a, b: (not a) or b),
    ],
)
def test_interpret_connective_matches_python(cond, py):
    # the parser accepts `==>` in an `if` too; typecheck rejects it there
    fn = parse_program(
        f"/*@ ensures {cond}; */ int f (int a, int b) "
        f"{{ int r = 0; if ({cond}) {{ r = 1; }} return r; }}"
    )
    for a, b in itertools.product((0, 1), repeat=2):
        out = interpret(fn, {"a": a, "b": b})
        expected = py(a > 0, b > 0)
        assert out.result == int(expected), (a, b)
        assert out.postcondition_holds is expected, (a, b)


def test_interpret_missing_input_raises():
    fn = parse_program("/*@ ensures \\result == x; */ int f (int x, int y) { return x; }")
    with pytest.raises(EvalError, match=r"^missing input\(s\): y$"):
        interpret(fn, {"x": 1})


def test_paren_ambiguity():
    fn = parse_program(
        "/*@ ensures ((\\result == x)); */ int f (int x) { int y = (x + 1) - 1; "
        "if ((y) < (x + 2)) { y = x; } return y; }"
    )
    assert typecheck(fn) == []
    stmt = fn.body[1]
    assert isinstance(stmt, If) and isinstance(stmt.cond, Cmp)


def test_use_after_scope_rejected():
    fn = parse_program(
        """/*@ ensures \\result == 0; */
int f (int c) {
  if (c > 0) { int t = 1; }
  return t;
}
"""
    )
    assert any("'t'" in d.message for d in typecheck(fn))


def test_braceless_if_branch():
    fn = parse_program(
        "/*@ ensures \\result == 0; */ int f (int c) { int x = 0; "
        "if (c > 0) x = 1; else x = 2; return x; }"
    )
    assert typecheck(fn) == []
    stmt = fn.body[1]
    assert isinstance(stmt, If)
    assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1
