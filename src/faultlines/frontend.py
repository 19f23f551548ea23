"""Frontend for the annotated mini language.

The input language is a single-function, integer-only imperative subset
(Java-flavoured syntax): declarations, assignments, `if`/`else`, and one
final `return`.  A specification is attached in a ``/*@ requires E;
ensures E; */`` comment block in front of the function; `\\result` refers
to the returned value and is only legal inside `ensures`.

This module provides:

* the AST node types (every node carries a 1-based :class:`SourceLoc`,
  which AST equality and hashing ignore),
* :func:`parse_program` (lexer + recursive-descent parser),
* :func:`typecheck` (scoping, definite assignment, linearity),
* :func:`pretty` (canonical re-printing, parse-equivalent),
* :func:`interpret` (reference semantics used as an oracle elsewhere).

Loops, floats, calls, arrays and non-linear arithmetic are rejected.
All functions here are pure; parsing the same text twice yields equal
ASTs, so values can be shared freely across threads.  Equality compares
structure only, so a :func:`pretty` re-print parses equal to its source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


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


@dataclass(frozen=True, order=True)
class SourceLoc:
    """1-based (line, column) position inside the input text."""

    line: int
    column: int

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError(f"invalid source location {self.line}:{self.column}")

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------
#
# Arithmetic expressions.  `Mul` is kept general so the typechecker can
# report a linearity diagnostic for `x*y`; well-typed programs only ever
# contain multiplications with a constant-valued side (see `mul_const_view`).


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class VarRef(Expr):
    name: str
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class ResultRef(Expr):
    """`\\result` -- only permitted inside `ensures` annotations."""

    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr
    loc: SourceLoc = field(compare=False)


class BoolExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Cmp(BoolExpr):
    op: str  # one of CMP_OPS
    lhs: Expr
    rhs: Expr
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class BoolAnd(BoolExpr):
    lhs: BoolExpr
    rhs: BoolExpr
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class BoolOr(BoolExpr):
    lhs: BoolExpr
    rhs: BoolExpr
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class BoolNot(BoolExpr):
    operand: BoolExpr
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class Implies(BoolExpr):
    """`a ==> b`; only legal inside annotations."""

    antecedent: BoolExpr
    consequent: BoolExpr
    loc: SourceLoc = field(compare=False)


class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class Decl(Stmt):
    name: str
    init: Optional[Expr]
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class Assign(Stmt):
    target: str
    rhs: Expr
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class If(Stmt):
    cond: BoolExpr
    then_body: tuple
    else_body: tuple  # empty tuple for `else`-less ifs
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class Return(Stmt):
    expr: Expr
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class Param:
    name: str
    loc: SourceLoc = field(compare=False)


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple
    body: tuple
    precondition: Optional[BoolExpr]
    postcondition: BoolExpr
    loc: SourceLoc = field(compare=False)
    ensures_loc: SourceLoc = field(compare=False)

    @property
    def param_names(self) -> tuple:
        return tuple(p.name for p in self.params)


def mul_const_view(e: Mul) -> Optional[tuple[int, Expr]]:
    """View a Mul node as (constant, expr) when one side is constant.

    Returns None when both sides mention variables (the linearity
    diagnostic case).
    """
    lc = const_value(e.lhs)
    if lc is not None:
        return lc, e.rhs
    rc = const_value(e.rhs)
    if rc is not None:
        return rc, e.lhs
    return None


def const_value(e: Expr) -> Optional[int]:
    """Constant-fold an expression; None when it mentions a variable."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Neg):
        v = const_value(e.operand)
        return None if v is None else -v
    if isinstance(e, Add):
        a, b = const_value(e.lhs), const_value(e.rhs)
        return None if a is None or b is None else a + b
    if isinstance(e, Sub):
        a, b = const_value(e.lhs), const_value(e.rhs)
        return None if a is None or b is None else a - b
    if isinstance(e, Mul):
        a, b = const_value(e.lhs), const_value(e.rhs)
        return None if a is None or b is None else a * b
    return None


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {"class", "int", "if", "else", "return", "requires", "ensures"}
_LOOP_KEYWORDS = {"while", "for", "do"}
_FLOAT_KEYWORDS = {"float", "double"}
_MULTI_OPS = ("==>", "==", "!=", "<=", ">=", "&&", "||")
_SINGLE_OPS = "=<>!+-*(){};,"


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'num' | 'result' | 'annot_open' | 'annot_close' | 'eof' | literal text
    text: str
    loc: SourceLoc


def _tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    in_annot = False
    at_annot_line_start = False

    def loc() -> SourceLoc:
        return SourceLoc(line, col)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and src[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = src[i]
        if c in " \t\r\n":
            if c == "\n" and in_annot:
                at_annot_line_start = True
            advance()
            continue
        if in_annot and at_annot_line_start and c == "@":
            # continuation marker inside a /*@ ... */ block
            at_annot_line_start = False
            advance()
            continue
        at_annot_line_start = False
        if not in_annot and src.startswith("/*@", i):
            toks.append(Token("annot_open", "/*@", loc()))
            in_annot = True
            advance(3)
            continue
        if in_annot and src.startswith("*/", i):
            toks.append(Token("annot_close", "*/", loc()))
            in_annot = False
            advance(2)
            continue
        if not in_annot and src.startswith("//", i):
            while i < n and src[i] != "\n":
                advance()
            continue
        if not in_annot and src.startswith("/*", i):
            start = loc()
            advance(2)
            while i < n and not src.startswith("*/", i):
                advance()
            if i >= n:
                raise ParseError("unterminated comment", start)
            advance(2)
            continue
        if src.startswith("\\result", i):
            toks.append(Token("result", "\\result", loc()))
            advance(7)
            continue
        if c.isdigit():
            start = loc()
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                raise UnsupportedConstructError("unsupported construct: float literal", start)
            text = src[i:j]
            value = int(text)
            if value > INT64_MAX:
                raise ParseError(f"integer literal out of 64-bit range: {text}", start)
            toks.append(Token("num", text, start))
            advance(j - i)
            continue
        if c.isalpha():
            start = loc()
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
            if text in _LOOP_KEYWORDS:
                raise UnsupportedConstructError("unsupported construct: loop", start)
            if text in _FLOAT_KEYWORDS:
                raise UnsupportedConstructError("unsupported construct: floating-point type", start)
            toks.append(Token(text if text in _KEYWORDS else "ident", text, start))
            advance(j - i)
            continue
        matched = False
        for op in _MULTI_OPS:
            if src.startswith(op, i):
                toks.append(Token(op, op, loc()))
                advance(len(op))
                matched = True
                break
        if matched:
            continue
        if c in _SINGLE_OPS:
            toks.append(Token(c, c, loc()))
            advance()
            continue
        if c in "/%":
            raise UnsupportedConstructError(f"unsupported construct: operator '{c}'", loc())
        raise ParseError(f"unexpected character {c!r}", loc())
    toks.append(Token("eof", "", loc()))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.in_ensures = False

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
            shown = t.text or t.kind
            raise ParseError(f"expected {what or kind!r}, found {shown!r}", t.loc)
        return self.next()

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> Function:
        wrapped = False
        if self.accept("class"):
            self.expect("ident", "class name")
            self.expect("{")
            wrapped = True
        pre, post, ensures_loc = self.parse_annotations()
        fn = self.parse_function(pre, post, ensures_loc)
        if wrapped:
            self.expect("}")
        self.expect("eof", "end of input")
        return fn

    def parse_annotations(self):
        pre: Optional[BoolExpr] = None
        post: Optional[BoolExpr] = None
        ensures_loc: Optional[SourceLoc] = None
        while self.at("annot_open"):
            self.next()
            while not self.at("annot_close"):
                t = self.peek()
                if t.kind == "requires":
                    self.next()
                    if pre is not None:
                        raise ParseError("duplicate requires clause", t.loc)
                    pre = self.parse_bool_expr()
                    self.expect(";")
                elif t.kind == "ensures":
                    self.next()
                    if post is not None:
                        raise ParseError("duplicate ensures clause", t.loc)
                    self.in_ensures = True
                    post = self.parse_bool_expr()
                    self.in_ensures = False
                    ensures_loc = t.loc
                    self.expect(";")
                else:
                    raise ParseError("expected 'requires' or 'ensures' in annotation", t.loc)
            self.next()
        if post is None:
            raise ParseError("missing 'ensures' annotation before function", self.peek().loc)
        return pre, post, ensures_loc

    def parse_function(self, pre, post, ensures_loc) -> Function:
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
            ensures_loc=ensures_loc,
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
            cond = self.parse_bool_expr()
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
        shown = t.text or t.kind
        raise ParseError(f"expected statement, found {shown!r}", t.loc)

    def parse_branch(self) -> tuple:
        if self.accept("{"):
            body = self.parse_stmts()
            self.expect("}")
            return tuple(body)
        return (self.parse_stmt(),)

    # boolean expressions: implies (right-assoc) > or > and > not > primary

    def parse_bool_expr(self) -> BoolExpr:
        return self.parse_implies()

    def parse_implies(self) -> BoolExpr:
        lhs = self.parse_or()
        t = self.peek()
        if t.kind == "==>":
            self.next()
            rhs = self.parse_implies()
            return Implies(lhs, rhs, t.loc)
        return lhs

    def parse_or(self) -> BoolExpr:
        lhs = self.parse_and()
        while self.at("||"):
            t = self.next()
            lhs = BoolOr(lhs, self.parse_and(), t.loc)
        return lhs

    def parse_and(self) -> BoolExpr:
        lhs = self.parse_bool_unary()
        while self.at("&&"):
            t = self.next()
            lhs = BoolAnd(lhs, self.parse_bool_unary(), t.loc)
        return lhs

    def parse_bool_unary(self) -> BoolExpr:
        t = self.peek()
        if t.kind == "!":
            self.next()
            return BoolNot(self.parse_bool_unary(), t.loc)
        if t.kind == "(":
            # Ambiguous: '(' may open a nested boolean expression or a
            # parenthesised arithmetic operand of a comparison.  Try the
            # boolean reading first and backtrack on failure.
            snapshot = self.pos
            try:
                self.next()
                inner = self.parse_bool_expr()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = snapshot
        return self.parse_cmp()

    def parse_cmp(self) -> Cmp:
        lhs = self.parse_expr()
        t = self.peek()
        if t.kind not in CMP_OPS:
            shown = t.text or t.kind
            raise ParseError(f"expected comparison operator, found {shown!r}", t.loc)
        self.next()
        rhs = self.parse_expr()
        return Cmp(t.kind, lhs, rhs, t.loc)

    # arithmetic: additive > multiplicative > unary > atom

    def parse_expr(self) -> Expr:
        lhs = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "+":
                self.next()
                lhs = Add(lhs, self.parse_term(), t.loc)
            elif t.kind == "-":
                self.next()
                lhs = Sub(lhs, self.parse_term(), t.loc)
            else:
                return lhs

    def parse_term(self) -> Expr:
        lhs = self.parse_unary()
        while self.at("*"):
            t = self.next()
            lhs = Mul(lhs, self.parse_unary(), t.loc)
        return lhs

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.kind == "-":
            self.next()
            return Neg(self.parse_unary(), t.loc)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return IntLit(int(t.text), t.loc)
        if t.kind == "ident":
            self.next()
            return VarRef(t.text, t.loc)
        if t.kind == "result":
            self.next()
            if not self.in_ensures:
                raise ParseError("\\result is only allowed inside 'ensures'", t.loc)
            return ResultRef(t.loc)
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        shown = t.text or t.kind
        raise ParseError(f"expected expression, found {shown!r}", t.loc)


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


@dataclass(frozen=True)
class Diagnostic:
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
                    self.diags.append(Diagnostic(f"duplicate parameter '{p.name}'", p.loc))
                seen.add(p.name)
        # one declaration per name per function: initialisers assign
        # version 0, which must be unambiguous downstream
        self.ever_declared = set(declared)
        assigned = set(declared)
        self.check_stmts(self.fn.body, [declared], assigned)
        param_set = set(p.name for p in self.fn.params)
        if self.fn.precondition is not None:
            self.check_annot(self.fn.precondition, param_set, allow_result=False)
        self.check_annot(self.fn.postcondition, param_set, allow_result=True)
        return self.diags

    def check_stmts(self, stmts, scopes: list[dict], assigned: set) -> None:
        for s in stmts:
            if isinstance(s, Decl):
                if s.name in self.ever_declared:
                    self.diags.append(Diagnostic(f"redeclaration of '{s.name}'", s.loc))
                self.ever_declared.add(s.name)
                if s.init is not None:
                    self.check_expr(s.init, scopes, assigned)
                scopes[-1][s.name] = s.loc
                if s.init is not None:
                    assigned.add(s.name)
            elif isinstance(s, Assign):
                if not any(s.target in frame for frame in scopes):
                    self.diags.append(
                        Diagnostic(f"assignment to undeclared variable '{s.target}'", s.loc)
                    )
                self.check_expr(s.rhs, scopes, assigned)
                assigned.add(s.target)
            elif isinstance(s, If):
                self.check_bool(s.cond, scopes, assigned)
                a_then = set(assigned)
                a_else = set(assigned)
                self.check_stmts(s.then_body, scopes + [{}], a_then)
                self.check_stmts(s.else_body, scopes + [{}], a_else)
                visible = set().union(*[set(f) for f in scopes])
                assigned |= (a_then & a_else & visible)
            elif isinstance(s, Return):
                self.check_expr(s.expr, scopes, assigned)

    def check_expr(self, e: Expr, scopes, assigned) -> None:
        if isinstance(e, VarRef):
            if not any(e.name in frame for frame in scopes):
                self.diags.append(Diagnostic(f"use of undeclared variable '{e.name}'", e.loc))
            elif e.name not in assigned:
                self.diags.append(
                    Diagnostic(f"variable '{e.name}' may be used before assignment", e.loc)
                )
        elif isinstance(e, ResultRef):
            self.diags.append(Diagnostic("\\result is not allowed in function bodies", e.loc))
        elif isinstance(e, Neg):
            self.check_expr(e.operand, scopes, assigned)
        elif isinstance(e, (Add, Sub)):
            self.check_expr(e.lhs, scopes, assigned)
            self.check_expr(e.rhs, scopes, assigned)
        elif isinstance(e, Mul):
            self.check_expr(e.lhs, scopes, assigned)
            self.check_expr(e.rhs, scopes, assigned)
            if mul_const_view(e) is None:
                self.diags.append(
                    Diagnostic("non-linear term: product of two variables", e.loc)
                )

    def check_annot(self, b: BoolExpr, params: set, allow_result: bool) -> None:
        if isinstance(b, Cmp):
            self.check_annot_expr(b.lhs, params, allow_result)
            self.check_annot_expr(b.rhs, params, allow_result)
        elif isinstance(b, (BoolAnd, BoolOr)):
            self.check_annot(b.lhs, params, allow_result)
            self.check_annot(b.rhs, params, allow_result)
        elif isinstance(b, BoolNot):
            self.check_annot(b.operand, params, allow_result)
        elif isinstance(b, Implies):
            self.check_annot(b.antecedent, params, allow_result)
            self.check_annot(b.consequent, params, allow_result)

    def check_annot_expr(self, e: Expr, params: set, allow_result: bool) -> None:
        if isinstance(e, VarRef):
            if e.name not in params:
                self.diags.append(
                    Diagnostic(
                        f"annotation refers to '{e.name}', which is not a parameter", e.loc
                    )
                )
        elif isinstance(e, ResultRef):
            if not allow_result:
                self.diags.append(Diagnostic("\\result is only allowed in 'ensures'", e.loc))
        elif isinstance(e, Neg):
            self.check_annot_expr(e.operand, params, allow_result)
        elif isinstance(e, (Add, Sub, Mul)):
            self.check_annot_expr(e.lhs, params, allow_result)
            self.check_annot_expr(e.rhs, params, allow_result)
            if isinstance(e, Mul) and mul_const_view(e) is None:
                self.diags.append(
                    Diagnostic("non-linear term: product of two variables", e.loc)
                )

    def check_bool(self, b: BoolExpr, scopes, assigned) -> None:
        if isinstance(b, Cmp):
            self.check_expr(b.lhs, scopes, assigned)
            self.check_expr(b.rhs, scopes, assigned)
        elif isinstance(b, (BoolAnd, BoolOr)):
            self.check_bool(b.lhs, scopes, assigned)
            self.check_bool(b.rhs, scopes, assigned)
        elif isinstance(b, BoolNot):
            self.check_bool(b.operand, scopes, assigned)
        elif isinstance(b, Implies):
            # the parser accepts '==>' in any condition, so an `if` can carry
            # one; it is rejected here, as annotations are checked elsewhere
            self.diags.append(Diagnostic("'==>' is only allowed in annotations", b.loc))
            self.check_bool(b.antecedent, scopes, assigned)
            self.check_bool(b.consequent, scopes, assigned)


def typecheck(fn: Function) -> list[Diagnostic]:
    """Check scoping, definite assignment and linearity.

    Returns an empty list iff the function is well-formed; never raises.
    """
    return _Checker(fn).run()


# ---------------------------------------------------------------------------
# Pretty printing (canonical form; reparses to an equal AST modulo locations)
# ---------------------------------------------------------------------------


def _p_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, VarRef):
        return str(e.name)
    if isinstance(e, ResultRef):
        return "\\result"
    if isinstance(e, Neg):
        return f"-({_p_expr(e.operand)})"
    if isinstance(e, Add):
        return f"({_p_expr(e.lhs)} + {_p_expr(e.rhs)})"
    if isinstance(e, Sub):
        return f"({_p_expr(e.lhs)} - {_p_expr(e.rhs)})"
    if isinstance(e, Mul):
        return f"({_p_expr(e.lhs)} * {_p_expr(e.rhs)})"
    raise TypeError(f"not an expression: {e!r}")


def _p_bool(b: BoolExpr) -> str:
    if isinstance(b, Cmp):
        return f"{_p_expr(b.lhs)} {b.op} {_p_expr(b.rhs)}"
    if isinstance(b, BoolAnd):
        return f"(({_p_bool(b.lhs)}) && ({_p_bool(b.rhs)}))"
    if isinstance(b, BoolOr):
        return f"(({_p_bool(b.lhs)}) || ({_p_bool(b.rhs)}))"
    if isinstance(b, BoolNot):
        return f"!({_p_bool(b.operand)})"
    if isinstance(b, Implies):
        return f"(({_p_bool(b.antecedent)}) ==> ({_p_bool(b.consequent)}))"
    raise TypeError(f"not a boolean expression: {b!r}")


def _p_stmts(stmts, indent: str) -> list[str]:
    lines = []
    for s in stmts:
        if isinstance(s, Decl):
            init = f" = {_p_expr(s.init)}" if s.init is not None else ""
            lines.append(f"{indent}int {s.name}{init};")
        elif isinstance(s, Assign):
            lines.append(f"{indent}{s.target} = {_p_expr(s.rhs)};")
        elif isinstance(s, Return):
            lines.append(f"{indent}return {_p_expr(s.expr)};")
        elif isinstance(s, If):
            lines.append(f"{indent}if ({_p_bool(s.cond)}) {{")
            lines.extend(_p_stmts(s.then_body, indent + "  "))
            if s.else_body:
                lines.append(f"{indent}}} else {{")
                lines.extend(_p_stmts(s.else_body, indent + "  "))
            lines.append(f"{indent}}}")
    return lines


def pretty(fn: Function) -> str:
    """Render the AST back to parseable source text (canonical layout)."""
    lines = ["/*@"]
    if fn.precondition is not None:
        lines.append(f" @ requires {_p_bool(fn.precondition)};")
    lines.append(f" @ ensures {_p_bool(fn.postcondition)};")
    lines.append(" @ */")
    params = ", ".join(f"int {p.name}" for p in fn.params)
    lines.append(f"int {fn.name} ({params}) {{")
    lines.extend(_p_stmts(fn.body, "  "))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference interpreter
# ---------------------------------------------------------------------------


class EvalError(Exception):
    pass


@dataclass
class RunResult:
    result: int
    postcondition_holds: bool
    precondition_holds: bool


def eval_expr(e: Expr, env: dict) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, VarRef):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name}") from None
    if isinstance(e, ResultRef):
        try:
            return env["\\result"]
        except KeyError:
            raise EvalError("\\result outside postcondition evaluation") from None
    if isinstance(e, Neg):
        return -eval_expr(e.operand, env)
    if isinstance(e, Add):
        return eval_expr(e.lhs, env) + eval_expr(e.rhs, env)
    if isinstance(e, Sub):
        return eval_expr(e.lhs, env) - eval_expr(e.rhs, env)
    if isinstance(e, Mul):
        return eval_expr(e.lhs, env) * eval_expr(e.rhs, env)
    raise TypeError(f"not an expression: {e!r}")


def eval_bool(b: BoolExpr, env: dict) -> bool:
    if isinstance(b, Cmp):
        l, r = eval_expr(b.lhs, env), eval_expr(b.rhs, env)
        return {
            "==": l == r,
            "!=": l != r,
            "<": l < r,
            "<=": l <= r,
            ">": l > r,
            ">=": l >= r,
        }[b.op]
    if isinstance(b, BoolAnd):
        return eval_bool(b.lhs, env) and eval_bool(b.rhs, env)
    if isinstance(b, BoolOr):
        return eval_bool(b.lhs, env) or eval_bool(b.rhs, env)
    if isinstance(b, BoolNot):
        return not eval_bool(b.operand, env)
    if isinstance(b, Implies):
        return (not eval_bool(b.antecedent, env)) or eval_bool(b.consequent, env)
    raise TypeError(f"not a boolean expression: {b!r}")


def _exec_stmts(stmts, env: dict) -> Optional[int]:
    for s in stmts:
        if isinstance(s, Decl):
            if s.init is not None:
                env[s.name] = eval_expr(s.init, env)
        elif isinstance(s, Assign):
            env[s.target] = eval_expr(s.rhs, env)
        elif isinstance(s, If):
            branch = s.then_body if eval_bool(s.cond, env) else s.else_body
            r = _exec_stmts(branch, env)
            if r is not None:
                return r
        elif isinstance(s, Return):
            return eval_expr(s.expr, env)
    return None


def interpret(fn: Function, inputs: dict) -> RunResult:
    """Run the function on concrete inputs and evaluate its specification.

    Specification expressions see parameters at their input values (and
    `\\result` bound to the returned value), matching the constraint
    encoding used downstream.
    """
    missing = [p for p in fn.param_names if p not in inputs]
    if missing:
        raise EvalError(f"missing input(s): {', '.join(missing)}")
    env = {p: int(inputs[p]) for p in fn.param_names}
    pre_ok = True
    if fn.precondition is not None:
        pre_ok = eval_bool(fn.precondition, dict(env))
    result = _exec_stmts(fn.body, env)
    if result is None:
        raise EvalError("function did not return")
    spec_env = {p: int(inputs[p]) for p in fn.param_names}
    spec_env["\\result"] = result
    post_ok = eval_bool(fn.postcondition, spec_env)
    return RunResult(result=result, postcondition_holds=post_ok, precondition_holds=pre_ok)
