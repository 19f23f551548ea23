"""Linear-integer constraint vocabulary shared by the solver and diagnoses.

Values here are immutable and hashable: versioned variable names
(:class:`SsaName`), canonical linear terms (:class:`LinTerm`), boolean
formulas over linear atoms (:class:`Formula`), and provenance-tagged
constraints (:class:`Constraint` / :class:`ConstraintSet`).

:func:`linterm_from_expr` and :func:`bool_expr_to_formula` lower source
expressions and conditions.  They take a renaming map, a function from a
source variable name to the :class:`SsaName` it stands for, so the graph
builder renames and lowers in one walk.

Rendering is stable and documented (used verbatim in reports and golden
files): a constraint prints as e.g. ``k_1 = k_0 + 2 @ line 10``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .frontend import (
    CMP_EVAL,
    Add,
    BoolAnd,
    BoolExpr,
    BoolNot,
    BoolOr,
    Cmp,
    Expr,
    Implies,
    IntLit,
    Mul,
    Neg,
    ResultRef,
    SourceLoc,
    Sub,
    VarRef,
    mul_const_view,
)

CMP_FLIP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
CMP_RENDER = {"==": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class UnboundVariableError(Exception):
    pass


class NonLinearError(Exception):
    pass


@dataclass(frozen=True, order=True)
class SsaName:
    """A versioned variable: version 0 is the input/initial value."""

    base: str
    version: int

    def __str__(self) -> str:
        return f"{self.base}_{self.version}"


# ---------------------------------------------------------------------------
# Linear terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinTerm:
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
    `\\result` is refused anywhere else.  Raises NonLinearError on a
    variable-by-variable product (unreachable for typechecked programs).
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
        if isinstance(e, Add):
            return lin(e.lhs) + lin(e.rhs)
        if isinstance(e, Sub):
            return lin(e.lhs) - lin(e.rhs)
        if isinstance(e, Mul):
            view = mul_const_view(e)
            if view is None:
                raise NonLinearError("product of two variables")
            k, sub = view
            return lin(sub).scale(k)
        raise TypeError(f"not an expression: {e!r}")

    return lin(e)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    op: str  # '==', '!=', '<', '<=', '>', '>='
    lhs: LinTerm
    rhs: LinTerm

    def __str__(self) -> str:
        return f"{self.lhs.render()} {CMP_RENDER[self.op]} {self.rhs.render()}"


@dataclass(frozen=True)
class And(Formula):
    items: tuple

    def __str__(self) -> str:
        return " && ".join(_paren(i) for i in self.items)


@dataclass(frozen=True)
class Or(Formula):
    items: tuple

    def __str__(self) -> str:
        return " || ".join(_paren(i) for i in self.items)


@dataclass(frozen=True)
class Not(Formula):
    item: Formula

    def __str__(self) -> str:
        return f"!({self.item})"


@dataclass(frozen=True)
class BoolConst(Formula):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def _paren(f: Formula) -> str:
    if isinstance(f, (And, Or)):
        return f"({f})"
    return str(f)


def disj(items: Iterable[Formula]) -> Formula:
    items = tuple(items)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(items)


def nnf(f: Formula) -> Formula:
    """Push negations to the atoms (Not nodes are eliminated)."""
    if isinstance(f, (Atom, BoolConst)):
        return f
    if isinstance(f, And):
        return And(tuple(nnf(i) for i in f.items))
    if isinstance(f, Or):
        return Or(tuple(nnf(i) for i in f.items))
    if isinstance(f, Not):
        return negate(f.item)
    raise TypeError(f"not a formula: {f!r}")


def negate(f: Formula) -> Formula:
    """Logical negation in negation normal form; atoms flip their operator."""
    if isinstance(f, Atom):
        return Atom(CMP_FLIP[f.op], f.lhs, f.rhs)
    if isinstance(f, BoolConst):
        return FALSE if f.value else TRUE
    if isinstance(f, And):
        return Or(tuple(negate(i) for i in f.items))
    if isinstance(f, Or):
        return And(tuple(negate(i) for i in f.items))
    if isinstance(f, Not):
        return nnf(f.item)
    raise TypeError(f"not a formula: {f!r}")


def formula_vars(f: Formula) -> set:
    if isinstance(f, Atom):
        return set(f.lhs.names) | set(f.rhs.names)
    if isinstance(f, (And, Or)):
        out: set = set()
        for i in f.items:
            out |= formula_vars(i)
        return out
    if isinstance(f, Not):
        return formula_vars(f.item)
    return set()


def eval_formula(f: Formula, model: Mapping[SsaName, int]) -> bool:
    """Evaluate under a total assignment; raises UnboundVariableError."""
    if isinstance(f, Atom):
        return CMP_EVAL[f.op](f.lhs.eval(model), f.rhs.eval(model))
    if isinstance(f, And):
        return all(eval_formula(i, model) for i in f.items)
    if isinstance(f, Or):
        return any(eval_formula(i, model) for i in f.items)
    if isinstance(f, Not):
        return not eval_formula(f.item, model)
    if isinstance(f, BoolConst):
        return f.value
    raise TypeError(f"not a formula: {f!r}")


def bool_expr_to_formula(b: BoolExpr, var, result: SsaName | None = None) -> Formula:
    """Lower a condition, its operands as :func:`linterm_from_expr` does.

    `==>` is rewritten as Or(Not a, b); like `\\result`, it lowers only
    when `result` is given, i.e. in the postcondition.
    """

    def form(b: BoolExpr) -> Formula:
        if isinstance(b, Cmp):
            return Atom(b.op, linterm_from_expr(b.lhs, var, result),
                        linterm_from_expr(b.rhs, var, result))
        if isinstance(b, BoolAnd):
            return And((form(b.lhs), form(b.rhs)))
        if isinstance(b, BoolOr):
            return Or((form(b.lhs), form(b.rhs)))
        if isinstance(b, BoolNot):
            return Not(form(b.operand))
        if isinstance(b, Implies) and result is not None:
            return Or((Not(form(b.antecedent)), form(b.consequent)))
        raise TypeError(f"not a boolean expression: {b!r}")

    return form(b)


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


class ConstraintKind(enum.Enum):
    INPUT = "input"
    ASSIGNMENT = "assignment"
    SYNTHETIC_COPY = "synthetic_copy"
    GUARD = "guard"
    POSTCONDITION = "postcondition"

    @property
    def is_soft(self) -> bool:
        return self in (ConstraintKind.ASSIGNMENT, ConstraintKind.SYNTHETIC_COPY)


@dataclass(frozen=True)
class Constraint:
    """A formula with provenance: stable id, kind, source line, path slot."""

    id: int
    formula: Formula
    kind: ConstraintKind
    loc: SourceLoc
    path_index: int = -1

    def at_path_index(self, i: int) -> "Constraint":
        return replace(self, path_index=i)

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


@dataclass(frozen=True)
class ConstraintSet:
    """Hard/soft split of a path's constraints.

    Input, postcondition and deviation-guard constraints are hard;
    assignments and synthetic copies are soft (removal candidates).
    """

    hard: tuple
    soft: tuple

    def __post_init__(self) -> None:
        for c in self.hard:
            if c.kind.is_soft:
                raise ValueError(f"{c.kind.value} constraint cannot be hard: {c}")
        for c in self.soft:
            if not c.kind.is_soft:
                raise ValueError(f"{c.kind.value} constraint cannot be soft: {c}")
        ids = [c.id for c in self.hard] + [c.id for c in self.soft]
        if len(ids) != len(set(ids)):
            raise ValueError("constraint ids must be unique")

    @staticmethod
    def of(hard: Iterable[Constraint], soft: Iterable[Constraint]) -> "ConstraintSet":
        return ConstraintSet(tuple(hard), tuple(soft))
