"""Frontend for the annotated mini language.

The input language is a single-function, integer-only imperative subset
(Java-flavoured syntax): declarations, assignments, `if`/`else`, and one
final `return`.  A specification is attached in a ``/*@ requires E;
ensures E; */`` comment block in front of the function; `\\result` refers
to the returned value and is only legal inside `ensures`.

This module provides:

* the AST node types (every node carries a 1-based :class:`SourceLoc`,
  which AST equality and hashing ignore),
* :func:`parse_program`: the lexer is one regular expression over the
  ASCII character classes of ``docs/grammar.md``, so any other character
  is a parse error; the parser reads conditions and integer expressions
  alike, by precedence climbing over one table of binding powers,
* :func:`typecheck` (the sort of each operand, scoping, definite
  assignment, linearity),
* :func:`interpret` (reference semantics used as an oracle elsewhere).

Loops, floats, calls, arrays and non-linear arithmetic are rejected.
All functions here are pure; parsing the same text twice yields equal
ASTs, so values can be shared freely across threads.  Equality compares
structure only, so a re-printed program parses equal to its source.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from functools import partial
from typing import Iterator, NamedTuple, Optional

from .records import Node, shown

INT64_MAX = 2**63 - 1

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
# what each comparison means, for the interpreter and formula evaluation
CMP_EVAL = dict(
    zip(CMP_OPS, (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge))
)
# what each arithmetic operator means, for the interpreter
ARITH_EVAL = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class FrontendError(Exception):
    """Base class for parse-time failures; carries a source location."""

    def __init__(self, message: str, loc: "SourceLoc"):
        super().__init__(f"line {loc.line}:{loc.column}: {message}")
        self.message = message
        self.loc = loc


class ParseError(FrontendError):
    pass


class UnsupportedConstructError(FrontendError):
    pass


class SourceLoc(NamedTuple):
    """1-based (line, column) position inside the input text."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------
#
# Arithmetic expressions.  A product (`Arith` with op `*`) is kept general
# so the typechecker can report a linearity diagnostic for `x*y`; in a
# well-typed program one operand of every multiplication mentions no
# variable.


class Expr(Node):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value", "loc")


class VarRef(Expr):
    __slots__ = ("name", "loc")


class ResultRef(Expr):
    """`\\result` -- only permitted inside `ensures` annotations."""

    __slots__ = ("loc",)


class Neg(Expr):
    __slots__ = ("operand", "loc")


class Arith(Expr):
    __slots__ = ("op", "lhs", "rhs", "loc")  # op: '+', '-' or '*'


class BoolExpr(Node):
    __slots__ = ()


class Cmp(BoolExpr):
    __slots__ = ("op", "lhs", "rhs", "loc")  # op: one of CMP_OPS


class Logic(BoolExpr):
    __slots__ = ("op", "lhs", "rhs", "loc")  # op: '&&', '||' or '==>' (annotations only)


class BoolNot(BoolExpr):
    __slots__ = ("operand", "loc")


class Stmt(Node):
    __slots__ = ()


class Decl(Stmt):
    __slots__ = ("name", "init", "loc")  # init: an Expr, or None


class Assign(Stmt):
    __slots__ = ("target", "rhs", "loc")


class If(Stmt):
    __slots__ = ("cond", "then_body", "else_body", "loc")  # tuples; else_body () if absent


class Return(Stmt):
    __slots__ = ("expr", "loc")


class Param(Node):
    __slots__ = ("name", "loc")


class Function(Node):
    # params and body are tuples; precondition is a BoolExpr or None
    __slots__ = ("name", "params", "body", "precondition", "postcondition", "loc")

    @property
    def param_names(self) -> tuple:
        return tuple(p.name for p in self.params)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {"class", "int", "if", "else", "return", "requires", "ensures"}
_LOOP_KEYWORDS = {"while", "for", "do"}
_FLOAT_KEYWORDS = {"float", "double"}

# One alternative per token class, ASCII classes only (docs/grammar.md);
# a position no alternative matches holds an unexpected character.  The
# group name is the token kind where one exists.  Alternatives sharing a
# first character are ordered as the grammar needs: `*/` before `*`,
# `/*@` before a block comment before an unterminated one before `/`.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<annot_close>\*/)
  | (?P<op>==>|[=!<>]=|&&|\|\||[=<>!+\-*(){};,])
  | (?P<num>[0-9]+\.?)
  | (?P<result>\\result)
  | (?P<annot_open>/\*@)
  | (?P<comment>//[^\n]*|/\*[\s\S]*?\*/)
  | (?P<open_comment>/\*)
  | (?P<bad_op>[/%])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # 'ident' | 'num' | 'result' | 'annot_open' | 'annot_close' | 'eof' | literal text
    text: str
    loc: SourceLoc


def _tokenize(src: str) -> list[Token]:
    line_starts = [0] + [m.end() for m in re.finditer("\n", src)]

    def loc(pos: int) -> SourceLoc:
        line = bisect_right(line_starts, pos)
        return SourceLoc(line, pos - line_starts[line - 1] + 1)

    toks: list[Token] = []
    match = _TOKEN_RE.match
    pos, n = 0, len(src)
    in_annot = False
    while pos < n:
        m = match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", loc(pos))
        kind, text, end = m.lastgroup, m.group(), m.end()
        if kind == "ws":
            # a leading `@` on a continuation line of /*@ ... */ is skipped
            if in_annot and src.startswith("@", end) and "\n" in text:
                end += 1
            pos = end
            continue
        if kind == "ident":
            if text in _LOOP_KEYWORDS:
                raise UnsupportedConstructError("unsupported construct: loop", loc(pos))
            if text in _FLOAT_KEYWORDS:
                raise UnsupportedConstructError(
                    "unsupported construct: floating-point type", loc(pos)
                )
            if text in _KEYWORDS:
                kind = text
        elif kind == "op":
            kind = text
        elif kind == "num":
            if text[-1] == ".":
                raise UnsupportedConstructError("unsupported construct: float literal", loc(pos))
            # `int` refuses over 4,300 digits: compare lengths first (INT64_MAX has 19)
            digits = text.lstrip("0")
            if len(digits) > 19 or int(digits or "0") > INT64_MAX:
                raise ParseError(f"integer literal out of 64-bit range: {shown(text)}", loc(pos))
        elif kind == "annot_close":
            if not in_annot:
                # outside an annotation this is `*`, and the `/` is lexed anew
                kind = text = "*"
                end = pos + 1
            in_annot = False
        elif kind == "result":
            pass
        elif in_annot or kind == "bad_op":
            # comments do not nest in an annotation: there `/` is an operator
            raise UnsupportedConstructError(
                f"unsupported construct: operator '{text[0]}'", loc(pos)
            )
        elif kind == "annot_open":
            in_annot = True
        elif kind == "open_comment":
            raise ParseError("unterminated comment", loc(pos))
        else:  # a comment
            pos = end
            continue
        toks.append(Token(kind, text, loc(pos)))
        pos = end
    toks.append(Token("eof", "", loc(n)))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Binding powers for precedence climbing (Pratt 1973), with the node each
# operator builds.  An operator of power p reads its right operand at
# power p + 1, so it groups to the left; `==>` reads it at p and groups
# to the right.
_INFIX = {"==>": (1, Logic), "||": (2, Logic), "&&": (3, Logic),
          **dict.fromkeys(CMP_OPS, (5, Cmp)), "+": (6, Arith), "-": (6, Arith), "*": (7, Arith)}
_PREFIX = {"!": (4, BoolNot), "-": (7, Neg)}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Optional[Token]:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what or kind!r}, found {shown(t.text or t.kind)}", t.loc)
        return self.next()

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> Function:
        wrapped = False
        if self.accept("class"):
            self.expect("ident", "class name")
            self.expect("{")
            wrapped = True
        pre, post = self.parse_annotations()
        fn = self.parse_function(pre, post)
        if wrapped:
            self.expect("}")
        self.expect("eof", "end of input")
        return fn

    def parse_annotations(self):
        pre: Optional[BoolExpr] = None
        post: Optional[BoolExpr] = None
        while self.at("annot_open"):
            self.next()
            while not self.at("annot_close"):
                t = self.peek()
                if t.kind == "requires":
                    self.next()
                    if pre is not None:
                        raise ParseError("duplicate requires clause", t.loc)
                    pre = self.parse_expr()
                    self.expect(";")
                elif t.kind == "ensures":
                    self.next()
                    if post is not None:
                        raise ParseError("duplicate ensures clause", t.loc)
                    post = self.parse_expr()
                    self.expect(";")
                else:
                    raise ParseError("expected 'requires' or 'ensures' in annotation", t.loc)
            self.next()
        if post is None:
            raise ParseError("missing 'ensures' annotation before function", self.peek().loc)
        return pre, post

    def parse_function(self, pre, post) -> Function:
        kw = self.expect("int", "function return type 'int'")
        name = self.expect("ident", "function name")
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                self.expect("int", "parameter type 'int'")
                p = self.expect("ident", "parameter name")
                params.append(Param(p.text, p.loc))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect("{")
        body = self.parse_stmts()
        self.expect("}")
        if not body or not isinstance(body[-1], Return):
            raise ParseError("function must end with a return statement", kw.loc)
        for s in _walk_stmts(body[:-1]):
            if isinstance(s, Return):
                raise ParseError("return must be the last statement of the function", s.loc)
        return Function(
            name=name.text,
            params=tuple(params),
            body=tuple(body),
            precondition=pre,
            postcondition=post,
            loc=kw.loc,
        )

    def parse_stmts(self) -> list[Stmt]:
        out: list[Stmt] = []
        while not self.at("}") and not self.at("eof"):
            out.append(self.parse_stmt())
        return out

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        if t.kind == "int":
            self.next()
            name = self.expect("ident", "variable name")
            init = None
            if self.accept("="):
                init = self.parse_expr()
            self.expect(";")
            return Decl(name.text, init, name.loc)
        if t.kind == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_branch()
            else_body: tuple = ()
            if self.accept("else"):
                else_body = self.parse_branch()
            return If(cond, then_body, else_body, t.loc)
        if t.kind == "return":
            self.next()
            e = self.parse_expr()
            self.expect(";")
            return Return(e, t.loc)
        if t.kind == "ident":
            self.next()
            self.expect("=", "'=' in assignment")
            rhs = self.parse_expr()
            self.expect(";")
            return Assign(t.text, rhs, t.loc)
        raise ParseError(f"expected statement, found {shown(t.text or t.kind)}", t.loc)

    def parse_branch(self) -> tuple:
        if self.accept("{"):
            body = self.parse_stmts()
            self.expect("}")
            return tuple(body)
        return (self.parse_stmt(),)

    def parse_expr(self, min_bp: int = 1):
        """An integer expression or a condition, by precedence climbing.

        Only infix operators of power `min_bp` or more are taken; the
        typechecker judges whether each operand is of the right sort.
        """
        t = self.peek()
        if t.kind in _PREFIX:
            self.next()
            bp, node = _PREFIX[t.kind]
            lhs = node(self.parse_expr(bp + 1), t.loc)
        else:
            lhs = self.parse_atom()
        while True:
            t = self.peek()
            bp, node = _INFIX.get(t.kind, (0, None))
            if bp < min_bp:
                return lhs
            self.next()
            lhs = node(t.kind, lhs, self.parse_expr(bp if t.kind == "==>" else bp + 1), t.loc)

    def parse_atom(self):
        t = self.peek()
        if t.kind == "num":
            self.next()
            return IntLit(int(t.text.lstrip("0") or "0"), t.loc)
        if t.kind == "ident":
            self.next()
            return VarRef(t.text, t.loc)
        if t.kind == "result":
            self.next()
            return ResultRef(t.loc)
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        raise ParseError(f"expected expression, found {shown(t.text or t.kind)}", t.loc)


def _walk_stmts(stmts) -> Iterator[Stmt]:
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from _walk_stmts(s.then_body)
            yield from _walk_stmts(s.else_body)


def parse_program(text: str) -> Function:
    """Parse a one-function source file into a typed AST.

    Raises :class:`ParseError` / :class:`UnsupportedConstructError` with a
    source location on malformed or out-of-language input.
    """
    return _Parser(_tokenize(text)).parse_program()


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------


class Diagnostic(NamedTuple):
    message: str
    loc: SourceLoc

    def __str__(self) -> str:
        return f"line {self.loc.line}:{self.loc.column}: {self.message}"


class _Checker:
    def __init__(self, fn: Function):
        self.fn = fn
        self.diags: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        declared = {p.name: p.loc for p in self.fn.params}
        if len(declared) != len(self.fn.params):
            seen: set = set()
            for p in self.fn.params:
                if p.name in seen:
                    self.diag(f"duplicate parameter {shown(p.name)}", p.loc)
                seen.add(p.name)
        # one declaration per name per function: initialisers assign
        # version 0, which must be unambiguous downstream
        self.ever_declared = set(declared)
        params = set(declared)
        self.check_stmts(self.fn.body, [declared], set(declared))
        if self.fn.precondition is not None:
            self.check_bool(self.fn.precondition, partial(self.annot_name, params, False), True)
        self.check_bool(self.fn.postcondition, partial(self.annot_name, params, True), True)
        return self.diags

    def diag(self, message: str, loc: SourceLoc) -> None:
        self.diags.append(Diagnostic(message, loc))

    # The two rules for a name: the `leaf` argument of the walkers below.

    def body_name(self, scopes: list[dict], assigned: set, e) -> None:
        if isinstance(e, ResultRef):
            self.diag("\\result is not allowed in function bodies", e.loc)
        elif not any(e.name in frame for frame in scopes):
            self.diag(f"use of undeclared variable {shown(e.name)}", e.loc)
        elif e.name not in assigned:
            self.diag(f"variable {shown(e.name)} may be used before assignment", e.loc)

    def annot_name(self, params: set, allow_result: bool, e) -> None:
        if isinstance(e, ResultRef):
            if not allow_result:
                self.diag("\\result is only allowed in 'ensures'", e.loc)
        elif e.name not in params:
            self.diag(f"annotation refers to {shown(e.name)}, which is not a parameter", e.loc)

    def check_stmts(self, stmts, scopes: list[dict], assigned: set) -> None:
        # the loop updates `scopes` and `assigned` in place, and `leaf` reads them
        leaf = partial(self.body_name, scopes, assigned)
        for s in stmts:
            if isinstance(s, Decl):
                if s.name in self.ever_declared:
                    self.diag(f"redeclaration of {shown(s.name)}", s.loc)
                self.ever_declared.add(s.name)
                if s.init is not None:
                    self.check_expr(s.init, leaf, False)
                scopes[-1][s.name] = s.loc
                if s.init is not None:
                    assigned.add(s.name)
            elif isinstance(s, Assign):
                if not any(s.target in frame for frame in scopes):
                    self.diag(f"assignment to undeclared variable {shown(s.target)}", s.loc)
                self.check_expr(s.rhs, leaf, False)
                assigned.add(s.target)
            elif isinstance(s, If):
                self.check_bool(s.cond, leaf, False)
                a_then = set(assigned)
                a_else = set(assigned)
                self.check_stmts(s.then_body, scopes + [{}], a_then)
                self.check_stmts(s.else_body, scopes + [{}], a_else)
                visible = set().union(*[set(f) for f in scopes])
                assigned |= (a_then & a_else & visible)
            elif isinstance(s, Return):
                self.check_expr(s.expr, leaf, False)

    def check_expr(self, e, leaf, annotation: bool) -> bool:
        """Check `e`, judging each name by `leaf`; True iff `e` mentions a name.

        A product is linear when one operand mentions no name: `(i - i) * j`
        is refused although `i - i` folds to 0.
        """
        if isinstance(e, BoolExpr):
            self.diag("expected an integer expression, found a condition", e.loc)
            self.check_bool(e, leaf, annotation)
            return False
        if isinstance(e, IntLit):
            return False
        if isinstance(e, (VarRef, ResultRef)):
            leaf(e)
            return True
        if isinstance(e, Neg):
            return self.check_expr(e.operand, leaf, annotation)
        lhs = self.check_expr(e.lhs, leaf, annotation)
        rhs = self.check_expr(e.rhs, leaf, annotation)
        if lhs and rhs and e.op == "*":
            self.diag("non-linear term: product of two variables", e.loc)
        return lhs or rhs

    def check_bool(self, b, leaf, annotation: bool) -> None:
        if isinstance(b, Cmp):
            self.check_expr(b.lhs, leaf, annotation)
            self.check_expr(b.rhs, leaf, annotation)
        elif isinstance(b, Logic):
            # the parser accepts '==>' anywhere, so an `if` can carry one
            if b.op == "==>" and not annotation:
                self.diag("'==>' is only allowed in annotations", b.loc)
            self.check_bool(b.lhs, leaf, annotation)
            self.check_bool(b.rhs, leaf, annotation)
        elif isinstance(b, BoolNot):
            self.check_bool(b.operand, leaf, annotation)
        else:
            self.diag("expected a condition, found an integer expression", b.loc)
            self.check_expr(b, leaf, annotation)


def typecheck(fn: Function) -> list[Diagnostic]:
    """Check sorts, scoping, definite assignment, linearity, and where `\\result` and `==>` stand.

    Returns an empty list iff the function is well-formed; never raises.
    """
    return _Checker(fn).run()


# ---------------------------------------------------------------------------
# Reference interpreter
# ---------------------------------------------------------------------------


class EvalError(Exception):
    pass


class RunResult:
    __slots__ = ("result", "postcondition_holds", "precondition_holds")

    def __init__(self, result: int, postcondition_holds: bool, precondition_holds: bool):
        self.result, self.postcondition_holds = result, postcondition_holds
        self.precondition_holds = precondition_holds


# Each evaluator tests exact node types, most frequent first as counted on
# the `mutants` benchmark's failing-input search, which calls `interpret`
# about 20,000 times; the node classes have no subclasses.


def eval_expr(e: Expr, env: dict) -> int:
    t = type(e)
    if t is IntLit:
        return e.value
    if t is VarRef:
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name}") from None
    if t is Arith:
        return ARITH_EVAL[e.op](eval_expr(e.lhs, env), eval_expr(e.rhs, env))
    if t is Neg:
        return -eval_expr(e.operand, env)
    if t is ResultRef:
        try:
            return env["\\result"]
        except KeyError:
            raise EvalError("\\result outside postcondition evaluation") from None
    raise TypeError(f"not an expression: {e!r}")


def eval_bool(b: BoolExpr, env: dict) -> bool:
    t = type(b)
    if t is Logic:
        # the right operand is evaluated only when the left one does not decide
        lhs = eval_bool(b.lhs, env)
        if b.op == "&&":
            return lhs and eval_bool(b.rhs, env)
        if b.op == "||":
            return lhs or eval_bool(b.rhs, env)
        return (not lhs) or eval_bool(b.rhs, env)
    if t is Cmp:
        l, r = eval_expr(b.lhs, env), eval_expr(b.rhs, env)
        return CMP_EVAL[b.op](l, r)
    if t is BoolNot:
        return not eval_bool(b.operand, env)
    raise TypeError(f"not a boolean expression: {b!r}")


def _exec_stmts(stmts, env: dict) -> Optional[int]:
    for s in stmts:
        t = type(s)
        if t is Assign:
            env[s.target] = eval_expr(s.rhs, env)
        elif t is Decl:
            if s.init is not None:
                env[s.name] = eval_expr(s.init, env)
        elif t is If:
            branch = s.then_body if eval_bool(s.cond, env) else s.else_body
            r = _exec_stmts(branch, env)
            if r is not None:
                return r
        elif t is Return:
            return eval_expr(s.expr, env)
    return None


def interpret(fn: Function, inputs: dict) -> RunResult:
    """Run the function on concrete inputs and evaluate its specification.

    Specification expressions see parameters at their input values (and
    `\\result` bound to the returned value), matching the constraint
    encoding used downstream.
    """
    names = fn.param_names
    missing = [p for p in names if p not in inputs]
    if missing:
        raise EvalError(f"missing input(s): {', '.join(missing)}")
    env = {p: int(inputs[p]) for p in names}
    spec_env = dict(env)
    pre_ok = True
    if fn.precondition is not None:
        pre_ok = eval_bool(fn.precondition, spec_env)
    result = _exec_stmts(fn.body, env)
    if result is None:
        raise EvalError("function did not return")
    spec_env["\\result"] = result
    post_ok = eval_bool(fn.postcondition, spec_env)
    return RunResult(result=result, postcondition_holds=post_ok, precondition_holds=pre_ok)
