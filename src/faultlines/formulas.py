"""Linear-integer constraint vocabulary shared by the solver and diagnoses.

Values here are immutable and hashable: versioned variable names
(:class:`SsaName`), canonical linear terms (:class:`LinTerm`), boolean
formulas over linear atoms (:class:`Formula`), and a path's constraint
system (:class:`ConstraintSet`): its hard constraints are plain formulas,
and only its soft ones, the suspects a report can name, are numbered
:class:`Constraint` records with a kind and a source line.  Formulas
have no negation node: they are built in negation normal form, and
:func:`negate` flips atom operators and swaps `And`/`Or`.

:func:`linterm_from_expr` and :func:`bool_expr_to_formula` lower source
expressions and conditions.  They take a renaming map, a function from a
source variable name to the :class:`SsaName` it stands for, so the graph
builder renames and lowers in one walk.

Rendering is stable and documented (used verbatim in reports and golden
files): a constraint prints as e.g. ``k_1 = k_0 + 2 @ line 10``.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, NamedTuple

from .frontend import (
    CMP_EVAL,
    Arith,
    BoolExpr,
    BoolNot,
    Cmp,
    Expr,
    IntLit,
    Logic,
    Neg,
    ResultRef,
    SourceLoc,
    VarRef,
)
from .records import Node, validated

CMP_FLIP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
CMP_RENDER = {"==": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class UnboundVariableError(Exception):
    pass


class NonLinearError(Exception):
    pass


class SsaName(NamedTuple):
    """A versioned variable: version 0 is the input/initial value."""

    base: str
    version: int

    def __str__(self) -> str:
        return f"{self.base}_{self.version}"


# ---------------------------------------------------------------------------
# Linear terms
# ---------------------------------------------------------------------------


class LinTerm(NamedTuple):
    """Canonical linear term: sorted coefficient pairs plus a constant.

    Zero coefficients are never stored, so algebraically equal terms
    compare (and hash) equal.
    """

    coeffs: tuple  # tuple[(SsaName, int), ...] sorted by name, nonzero
    const: int = 0

    @staticmethod
    def of(coeffs: Mapping[SsaName, int] | Iterable = (), const: int = 0) -> "LinTerm":
        acc: dict[SsaName, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for name, c in items:
            acc[name] = acc.get(name, 0) + int(c)
        pairs = tuple(sorted((n, c) for n, c in acc.items() if c != 0))
        return LinTerm(pairs, int(const))

    @staticmethod
    def var(name: SsaName) -> "LinTerm":
        return LinTerm(((name, 1),), 0)

    @staticmethod
    def constant(v: int) -> "LinTerm":
        return LinTerm((), int(v))

    def __add__(self, other: "LinTerm") -> "LinTerm":
        return LinTerm.of(list(self.coeffs) + list(other.coeffs), self.const + other.const)

    def __sub__(self, other: "LinTerm") -> "LinTerm":
        return self + (-other)

    def __neg__(self) -> "LinTerm":
        return self.scale(-1)

    def scale(self, k: int) -> "LinTerm":
        if k == 0:
            return LinTerm((), 0)
        return LinTerm(tuple((n, c * k) for n, c in self.coeffs), self.const * k)

    @property
    def names(self) -> tuple:
        return tuple(n for n, _ in self.coeffs)

    def eval(self, model: Mapping[SsaName, int]) -> int:
        total = self.const
        for n, c in self.coeffs:
            try:
                total += c * model[n]
            except KeyError:
                raise UnboundVariableError(str(n)) from None
        return total

    def render(self) -> str:
        # positive terms first, then negative, constant last: "j_0 - i_0 + 2"
        pos = [(n, c) for n, c in self.coeffs if c > 0]
        neg = [(n, c) for n, c in self.coeffs if c < 0]
        parts: list[str] = []
        for n, c in pos + neg:
            mag = abs(c)
            txt = str(n) if mag == 1 else f"{mag}*{n}"
            if not parts:
                parts.append(txt if c > 0 else f"-{txt}")
            else:
                parts.append(f"+ {txt}" if c > 0 else f"- {txt}")
        if self.const != 0 or not parts:
            if not parts:
                parts.append(str(self.const))
            else:
                parts.append(f"+ {self.const}" if self.const > 0 else f"- {-self.const}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()


def linterm_from_expr(e: Expr, var, result: SsaName | None = None) -> LinTerm:
    """Lower a source expression to a canonical LinTerm over versioned names.

    `var` is the renaming map: it gives the SsaName a source variable
    stands for at this point of the program.  `result` is the name
    `\\result` stands for; it is given only for the postcondition, so
    `\\result` is refused anywhere else.  A product scales the operand
    that has coefficients by the one that has none; NonLinearError when
    both have coefficients (unreachable for typechecked programs).
    """

    def lin(e: Expr) -> LinTerm:
        if isinstance(e, IntLit):
            return LinTerm.constant(e.value)
        if isinstance(e, VarRef):
            return LinTerm.var(var(e.name))
        if isinstance(e, ResultRef) and result is not None:
            return LinTerm.var(result)
        if isinstance(e, Neg):
            return -lin(e.operand)
        if isinstance(e, Arith):
            a, b = lin(e.lhs), lin(e.rhs)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if not a.coeffs:
                return b.scale(a.const)
            if not b.coeffs:
                return a.scale(b.const)
            raise NonLinearError("product of two variables")
        raise TypeError(f"not an expression: {e!r}")

    return lin(e)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula(Node):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("op", "lhs", "rhs")  # op: '==', '!=', '<', '<=', '>' or '>='; LinTerm sides

    def __str__(self) -> str:
        return f"{self.lhs.render()} {CMP_RENDER[self.op]} {self.rhs.render()}"


class And(Formula):
    __slots__ = ("items",)

    def __str__(self) -> str:
        return _render(self)


class Or(Formula):
    __slots__ = ("items",)

    def __str__(self) -> str:
        return _render(self)


class BoolConst(Formula):
    __slots__ = ("value",)

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def _render(f: Formula) -> str:
    """Text of an And/Or, nested And/Or items in parentheses.  The parser
    nests a `&&` or `||` chain one level per operator, so this, :func:`negate`
    and :func:`eval_formula` recurse in one frame per level."""
    parts = []
    for i in f.items:
        parts.append(f"({_render(i)})" if isinstance(i, (And, Or)) else str(i))
    return (" && " if isinstance(f, And) else " || ").join(parts)


def negate(f: Formula) -> Formula:
    """Logical negation in negation normal form; atoms flip their operator."""
    if isinstance(f, Atom):
        return Atom(CMP_FLIP[f.op], f.lhs, f.rhs)
    if isinstance(f, BoolConst):
        return FALSE if f.value else TRUE
    if isinstance(f, (And, Or)):
        items = tuple(map(negate, f.items))
        return Or(items) if isinstance(f, And) else And(items)
    raise TypeError(f"not a formula: {f!r}")


def formula_vars(f: Formula) -> set:
    if isinstance(f, Atom):
        return set(f.lhs.names) | set(f.rhs.names)
    if isinstance(f, (And, Or)):
        out: set = set()
        for i in f.items:
            out |= formula_vars(i)
        return out
    return set()


def eval_formula(f: Formula, model: Mapping[SsaName, int]) -> bool:
    """Evaluate under a total assignment; raises UnboundVariableError."""
    if isinstance(f, Atom):
        return CMP_EVAL[f.op](f.lhs.eval(model), f.rhs.eval(model))
    if isinstance(f, (And, Or)):
        want = isinstance(f, Or)  # the item value that decides the result
        for i in f.items:
            if eval_formula(i, model) == want:
                return want
        return not want
    if isinstance(f, BoolConst):
        return f.value
    raise TypeError(f"not a formula: {f!r}")


def bool_expr_to_formula(b: BoolExpr, var, result: SsaName | None = None, *,
                         guard: bool = False) -> Formula:
    """Lower a condition, its operands as :func:`linterm_from_expr` does.

    The result is in negation normal form: `!b` lowers to the
    :func:`negate` of `b`, and `a ==> b` to `Or(negate(a), b)`.  `==>`
    lowers only in annotations, so a `guard` (an `if` condition) refuses
    it.
    """

    def form(b: BoolExpr) -> Formula:
        if isinstance(b, Cmp):
            return Atom(b.op, linterm_from_expr(b.lhs, var, result),
                        linterm_from_expr(b.rhs, var, result))
        if isinstance(b, Logic) and not (guard and b.op == "==>"):
            lhs, rhs = form(b.lhs), form(b.rhs)
            if b.op == "&&":
                return And((lhs, rhs))
            if b.op == "||":
                return Or((lhs, rhs))
            return Or((negate(lhs), rhs))
        if isinstance(b, BoolNot):
            return negate(form(b.operand))
        raise TypeError(f"not a boolean expression: {b!r}")

    return form(b)


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


class ConstraintKind(enum.Enum):
    ASSIGNMENT = "assignment"
    SYNTHETIC_COPY = "synthetic_copy"


class Constraint(NamedTuple):
    """A soft constraint: its formula with the id, kind and source line
    that a report names it by."""

    id: int
    formula: Formula
    kind: ConstraintKind
    loc: SourceLoc

    def render(self) -> str:
        return f"{self.formula} @ line {self.loc.line}"

    def __str__(self) -> str:
        return self.render()


def assign_to_constraint(
    target: SsaName,
    rhs: LinTerm,
    loc: SourceLoc,
    synthetic: bool = False,
    cid: int = -1,
) -> Constraint:
    """Build the equality constraint `target == rhs` for an assignment."""
    kind = ConstraintKind.SYNTHETIC_COPY if synthetic else ConstraintKind.ASSIGNMENT
    return Constraint(cid, Atom("==", LinTerm.var(target), rhs), kind, loc)


@validated
class ConstraintSet(NamedTuple):
    """Hard/soft split of a path's constraints.

    The hard part is plain formulas: the input equalities, then the
    postcondition or the guard value that a deviation forces.  The soft
    part is the path's assignments and synthetic copies (the removal
    candidates), as :class:`Constraint` records with unique ids.
    """

    hard: tuple
    soft: tuple

    def _validate(self) -> None:
        for f in self.hard:
            if not isinstance(f, Formula):
                raise ValueError(f"hard entry is not a formula: {f!r}")
        for c in self.soft:
            if not isinstance(c, Constraint):
                raise ValueError(f"soft entry is not a constraint: {c!r}")
        if len({c.id for c in self.soft}) != len(self.soft):
            raise ValueError("soft constraint ids must be unique")

    @staticmethod
    def of(hard: Iterable[Formula], soft: Iterable[Constraint]) -> "ConstraintSet":
        return ConstraintSet(tuple(hard), tuple(soft))
