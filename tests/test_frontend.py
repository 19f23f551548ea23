import numpy as np
import pytest

from faultlines.frontend import (
    BoolAnd,
    Cmp,
    Decl,
    If,
    Implies,
    Mul,
    ParseError,
    ResultRef,
    Return,
    Sub,
    UnsupportedConstructError,
    VarRef,
    interpret,
    parse_program,
    pretty,
    typecheck,
)

from helpers import corpus_entry, random_program

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
