"""Reference code that only the tests run, kept out of the runtime package.

:func:`pretty` re-prints a program in canonical form, every operator
fully parenthesised, so the text shows how the parser grouped it and
parses back to an equal AST (locations aside).  :func:`enumerate_paths`
lists a graph's entry-to-exit paths and :func:`formula_vars` the names a
formula reads.  This module imports no numpy, so a process that needs
only these functions does not load it.
"""

from __future__ import annotations

from faultlines.cfg import ELSE, NEXT, THEN, Cfg, CfgError
from faultlines.formulas import And, Atom, Formula, Or
from faultlines.frontend import (
    Arith,
    Assign,
    BoolExpr,
    BoolNot,
    Cmp,
    Decl,
    Expr,
    Function,
    If,
    IntLit,
    Logic,
    Neg,
    ResultRef,
    Return,
    VarRef,
)


def _p_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, VarRef):
        return str(e.name)
    if isinstance(e, ResultRef):
        return "\\result"
    if isinstance(e, Neg):
        return f"-({_p_expr(e.operand)})"
    if isinstance(e, Arith):
        return f"({_p_expr(e.lhs)} {e.op} {_p_expr(e.rhs)})"
    raise TypeError(f"not an expression: {e!r}")


def _p_bool(b: BoolExpr) -> str:
    if isinstance(b, Cmp):
        return f"{_p_expr(b.lhs)} {b.op} {_p_expr(b.rhs)}"
    if isinstance(b, Logic):
        return f"(({_p_bool(b.lhs)}) {b.op} ({_p_bool(b.rhs)}))"
    if isinstance(b, BoolNot):
        return f"!({_p_bool(b.operand)})"
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


def enumerate_paths(cfg: Cfg, limit: int = 2**10):
    """Yield every entry-to-exit path as a list of node ids (DFS order)."""
    count = 0

    def rec(nid, acc):
        nonlocal count
        acc = acc + [nid]
        if nid == cfg.exit:
            count += 1
            if count > limit:
                raise CfgError(f"more than {limit} paths")
            yield acc
            return
        out = cfg.edges[nid]
        for label in (THEN, ELSE, NEXT):
            if label in out:
                yield from rec(out[label], acc)

    yield from rec(cfg.entry, [])


def formula_vars(f: Formula) -> set:
    if isinstance(f, Atom):
        return set(f.lhs.names) | set(f.rhs.names)
    if isinstance(f, (And, Or)):
        out: set = set()
        for i in f.items:
            out |= formula_vars(i)
        return out
    return set()
