import hashlib
import itertools
import operator

import numpy as np
import pytest

from faultlines.frontend import (
    Arith,
    Cmp,
    Decl,
    INT64_MAX,
    EvalError,
    Function,
    If,
    Logic,
    ParseError,
    ResultRef,
    Return,
    SourceLoc,
    UnsupportedConstructError,
    VarRef,
    _tokenize,
    interpret,
    parse_program,
    typecheck,
)

from helpers import ROOT, corpus_entry, random_program
from reference import pretty

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
    assert isinstance(post, Logic) and post.op == "&&"
    left, right = post.lhs, post.rhs
    assert isinstance(left, Logic) and left.op == "==>"
    assert isinstance(right, Logic) and right.op == "==>"
    assert isinstance(left.lhs, Cmp) and left.lhs.op == "<"
    assert isinstance(left.rhs, Cmp) and left.rhs.op == "=="
    assert isinstance(left.rhs.lhs, ResultRef)
    assert isinstance(right.lhs, Cmp) and right.lhs.op == ">="
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
    fn = parse_program("/*@ ensures \\result == 0; */ int f (int x) { return \\result; }")
    assert [(d.message, d.loc.line, d.loc.column) for d in typecheck(fn)] == [
        ("\\result is not allowed in function bodies", 1, 53)
    ]


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


def test_zero_padded_literal_parses_to_its_value():
    # longer than Python's 4,300-digit limit for `int`, but in 64-bit range
    padded = "0" * 5000 + str(INT64_MAX)
    fn = parse_program(f"/*@ ensures \\result == 0; */ int f (int x) {{ return {padded}; }}")
    assert fn.body[-1].expr.value == INT64_MAX


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
     "integer literal out of 64-bit range: '9223372036854775808'", 1, 8),
    # longer than Python's 4,300-digit limit for `int`
    pytest.param("return " + "1" * 5000 + ";", ParseError,
                 f"integer literal out of 64-bit range: {'1' * 20!r}... (5000 characters)", 1, 8,
                 id="5000-digit-literal"),
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


NONLINEAR = "non-linear term: product of two variables"

# Every body diagnostic, in order: `(x - x) * y` stays non-linear although
# `x - x` folds to 0, and `2 * (3 - 1) * x` is linear.
ILL_TYPED_BODY = """\
/*@ requires x > 0; ensures \\result == x; */
int f (int x, int y, int x) {
  int a = m + x;
  q = 1;
  int b;
  if (x > 0) { b = 1; }
  a = b + 1;
  int a = 2;
  a = x * y;
  a = (x - x) * y;
  a = 2 * (3 - 1) * x + x * -2;
  if (x > 0 ==> y * 2 > 0) { a = 1; }
  if (!(x * y > 0) || (u < 0)) { int c = 1; }
  a = c;
  return a;
}
"""

# Every annotation diagnostic; `==>` is legal here.
ILL_TYPED_ANNOTATIONS = """\
/*@ requires x * y > 0 && z > 0;
  @ ensures (\\result * x == 0) ==> !(w == (x - x) * y) || \\result == 2 * (3 - 1) * x - \\result * 3;
  @*/
int f (int x, int y) {
  int z = x;
  return z;
}
"""


def _result_in_requires_and_body():
    # the postcondition again as the precondition, and `\result * x` returned
    fn = parse_program(ILL_TYPED_ANNOTATIONS)
    at = SourceLoc
    ret = Return(Arith("*", ResultRef(at(6, 10)), VarRef("x", at(6, 20)), at(6, 15)), at(6, 3))
    return Function(
        name=fn.name, params=fn.params, body=(ret,), precondition=fn.postcondition,
        postcondition=fn.postcondition, loc=fn.loc,
    )


@pytest.mark.parametrize(
    "fn, expected",
    [
        (
            parse_program(ILL_TYPED_BODY),
            [
                ("duplicate parameter 'x'", 2, 26),
                ("use of undeclared variable 'm'", 3, 11),
                ("assignment to undeclared variable 'q'", 4, 3),
                ("variable 'b' may be used before assignment", 7, 7),
                ("redeclaration of 'a'", 8, 7),
                (NONLINEAR, 9, 9),
                (NONLINEAR, 10, 15),
                ("'==>' is only allowed in annotations", 12, 13),
                (NONLINEAR, 13, 11),
                ("use of undeclared variable 'u'", 13, 24),
                ("use of undeclared variable 'c'", 14, 7),
            ],
        ),
        (
            parse_program(ILL_TYPED_ANNOTATIONS),
            [
                (NONLINEAR, 1, 16),
                ("annotation refers to 'z', which is not a parameter", 1, 27),
                (NONLINEAR, 2, 22),
                ("annotation refers to 'w', which is not a parameter", 2, 38),
                (NONLINEAR, 2, 51),
            ],
        ),
        (
            _result_in_requires_and_body(),
            [
                ("\\result is not allowed in function bodies", 6, 10),
                (NONLINEAR, 6, 15),
                ("\\result is only allowed in 'ensures'", 2, 14),
                (NONLINEAR, 2, 22),
                ("annotation refers to 'w', which is not a parameter", 2, 38),
                (NONLINEAR, 2, 51),
                ("\\result is only allowed in 'ensures'", 2, 59),
                ("\\result is only allowed in 'ensures'", 2, 88),
                (NONLINEAR, 2, 22),
                ("annotation refers to 'w', which is not a parameter", 2, 38),
                (NONLINEAR, 2, 51),
            ],
        ),
    ],
    ids=["body", "annotations", "result-outside-ensures"],
)
def test_typecheck_diagnostics_are_pinned(fn, expected):
    assert [(d.message, d.loc.line, d.loc.column) for d in typecheck(fn)] == expected


def test_mul_parse_shape():
    fn = parse_program("/*@ ensures \\result == 0; */ int f (int x) { return 2*x - x*3; }")
    body = fn.body[0].expr
    assert isinstance(body, Arith) and body.op == "-"
    assert body.lhs.op == "*" and body.rhs.op == "*"


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


EVERY_OPERATOR = """\
/*@ requires a > 0 || b > 0 && c > 0;
  @ ensures a > 0 ==> b > 0 ==> \\result == a - b - c; */
int f (int a, int b, int c) {
  int r = 3 * a + a * -2 - -(a - b);
  if (!(a <= b) && a != c || b >= c) {
    r = r - 1;
  } else r = r + c * 2;
  if (a < b) { r = -r; }
  if (a == b) { r = r + 1; }
  return r;
}
"""


def test_pretty_text_of_every_operator_is_pinned():
    # `&&` binds tighter than `||`, `==>` and `-` group to the right and
    # the left, and every operator prints fully parenthesised
    assert pretty(parse_program(EVERY_OPERATOR)) == """\
/*@
 @ requires ((a > 0) || (((b > 0) && (c > 0))));
 @ ensures ((a > 0) ==> (((b > 0) ==> (\\result == ((a - b) - c)))));
 @ */
int f (int a, int b, int c) {
  int r = (((3 * a) + (a * -(2))) - -((a - b)));
  if (((((!(a <= b)) && (a != c))) || (b >= c))) {
    r = (r - 1);
  } else {
    r = (r + (c * 2));
  }
  if (a < b) {
    r = -(r);
  }
  if (a == b) {
    r = (r + 1);
  }
  return r;
}
"""


# Conditions stand in `ensures` and integer expressions in `return`; each
# prints fully parenthesised, so the text shows how the parser grouped it.
GROUPING = [
    ("ensures", "a > 0 ==> b > 0 ==> c > 0", "((a > 0) ==> (((b > 0) ==> (c > 0))))"),
    ("ensures", "a > 0 || b > 0 && c > 0 ==> x == 0",
     "((((a > 0) || (((b > 0) && (c > 0))))) ==> (x == 0))"),
    ("ensures", "!x + 1 > 0", "!((x + 1) > 0)"),
    ("ensures", "!a < b && !!(c >= 0) || a != b",
     "((((!(a < b)) && (!(!(c >= 0))))) || (a != b))"),
    ("ensures", "a - b - c != x * 2 + 1", "((a - b) - c) != ((x * 2) + 1)"),
    ("ensures", "((((a)))) <= ((b + (c)))", "a <= (b + c)"),
    ("ensures", "(((a > 0))) || ((b > 0 && (c > 0)))", "((a > 0) || (((b > 0) && (c > 0))))"),
    ("ensures", "\\result == -x * 2 - -a", "\\result == ((-(x) * 2) - -(a))"),
    ("ensures", "a + b * c - x >= -(a - b) ==> !(a == b) ==> (c < 0 ==> x <= 1)",
     "((((a + (b * c)) - x) >= -((a - b))) ==> (((!(a == b)) ==> (((c < 0) ==> (x <= 1))))))"),
    ("return", "a - b - c", "((a - b) - c)"),
    ("return", "-x * 2", "(-(x) * 2)"),
    ("return", "a + b * 3 - -c * 4", "((a + (b * 3)) - (-(c) * 4))"),
    ("return", "((a)) - ((b - (c)))", "(a - (b - c))"),
    ("return", "- - x + 2 * -(a + b) * 3", "(-(-(x)) + ((2 * -((a + b))) * 3))"),
]


def _grouping_program(clause, text):
    ensures, ret = (text, "a") if clause == "ensures" else ("\\result == a", text)
    return parse_program(
        f"/*@ ensures {ensures}; */ int f (int a, int b, int c, int x) {{ return {ret}; }}"
    )


@pytest.mark.parametrize("clause, text, grouped", GROUPING)
def test_operator_grouping_is_pinned(clause, text, grouped):
    lines = pretty(_grouping_program(clause, text)).splitlines()
    if clause == "ensures":
        assert lines[1] == f" @ ensures {grouped};"
    else:
        assert lines[-2] == f"  return {grouped};"


def _preorder(node):
    label = getattr(node, "op", None) or getattr(node, "name", None) or getattr(node, "value", "")
    yield type(node).__name__, label, node.loc.line, node.loc.column
    for child in ("lhs", "rhs", "operand"):
        if hasattr(node, child):
            yield from _preorder(getattr(node, child))


def test_node_locations_of_a_mixed_condition_are_pinned():
    # an operator node is at its operator token, a prefix node at its prefix
    fn = _grouping_program("ensures", "!x + 1 > 0 && -x * 2 < (a) ==> b == \\result")
    assert list(_preorder(fn.postcondition)) == [
        ("Logic", "==>", 1, 40),
        ("Logic", "&&", 1, 24),
        ("BoolNot", "", 1, 13),
        ("Cmp", ">", 1, 20),
        ("Arith", "+", 1, 16),
        ("VarRef", "x", 1, 14),
        ("IntLit", 1, 1, 18),
        ("IntLit", 0, 1, 22),
        ("Cmp", "<", 1, 34),
        ("Arith", "*", 1, 30),
        ("Neg", "", 1, 27),
        ("VarRef", "x", 1, 28),
        ("IntLit", 2, 1, 32),
        ("VarRef", "a", 1, 37),
        ("Cmp", "==", 1, 46),
        ("VarRef", "b", 1, 44),
        ("ResultRef", "", 1, 49),
    ]


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


@pytest.mark.parametrize(
    "expr, py",
    [
        ("a + b", lambda a, b, c: a + b),
        ("a - b - c", lambda a, b, c: (a - b) - c),
        ("a - b * c", lambda a, b, c: a - b * c),
        ("3 * a", lambda a, b, c: 3 * a),
        ("a * -2", lambda a, b, c: a * -2),
        ("-a", lambda a, b, c: -a),
        ("-(a - b)", lambda a, b, c: -(a - b)),
    ],
)
def test_interpret_arithmetic_matches_python(expr, py):
    # the interpreter does not typecheck, so `b * c` runs here
    fn = parse_program(
        f"/*@ ensures \\result == {expr}; */ int f (int a, int b, int c) "
        f"{{ int r = {expr}; return r; }}"
    )
    for a, b, c in itertools.product(range(-2, 3), repeat=3):
        out = interpret(fn, {"a": a, "b": b, "c": c})
        assert out.result == py(a, b, c), (a, b, c)
        assert out.postcondition_holds, (a, b, c)


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
