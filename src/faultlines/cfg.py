"""Control-flow graph construction in dynamic single-assignment (DSA) form.

:func:`build_cfg` lowers a typechecked function into a DAG of assignment
blocks and two-way decision nodes (one per `if`); join points are
materialised as empty blocks so every branch region is single-entry /
single-exit.  Variables are renamed while the graph is built, so that on
every entry-to-exit path each versioned name is assigned at most once: the
builder threads the latest version of each name through the statements and
lowers each branch of an `if` on its own copy.  At the join, a branch that
does not assign a variable the other branch assigns receives a synthetic
copy (flagged, located at the governing decision) so the variable's latest
version is path-independent afterwards.  Version 0 always denotes the
input/initial value: parameters start at version 0 and a declaration
initialiser assigns version 0; ordinary assignments create fresh versions.
Constraint ids (`cid`) number assignments in that same walk order.

A bare-variable `return x` binds the specification's result directly to
x's final version.  Any other returned expression becomes an ordinary
(soft, suspectable) assignment to the reserved variable `_ret` at the
return statement's line.

Construction is single-threaded per function; the resulting graph is
treated as immutable and may be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .formulas import (
    Formula,
    SsaName,
    assign_to_constraint,
    bool_expr_to_formula,
    linterm_from_expr,
)
from .frontend import (
    Add,
    Assign,
    BoolAnd,
    BoolExpr,
    BoolNot,
    BoolOr,
    Cmp,
    Decl,
    Expr,
    Function,
    If,
    Implies,
    IntLit,
    Mul,
    Neg,
    ResultRef,
    Return,
    SourceLoc,
    Sub,
    VarRef,
)

RESULT_VAR = "_ret"

THEN = "then"
ELSE = "else"
NEXT = "next"


@dataclass
class Assignment:
    target: SsaName
    rhs: Expr  # SSA-named expression tree
    loc: SourceLoc
    synthetic: bool = False
    init: bool = False
    cid: int = -1


@dataclass
class Entry:
    id: str


@dataclass
class Exit:
    id: str


@dataclass
class Block:
    id: str
    assignments: list


@dataclass
class Decision:
    id: str
    guard: BoolExpr  # SSA-named
    loc: SourceLoc


@dataclass
class Cfg:
    name: str
    params: tuple
    param_locs: dict
    nodes: dict
    edges: dict  # id -> list[(label, dst)]
    entry: str
    exit: str
    decision_order: tuple
    result_var: str
    return_loc: SourceLoc
    ensures_loc: SourceLoc
    postcondition: BoolExpr  # over SsaName; \result is the final result version
    _formula_cache: dict = field(default_factory=dict, repr=False)

    def successors(self, nid: str) -> list:
        return self.edges.get(nid, [])

    def succ(self, nid: str, label: str) -> str:
        for lab, dst in self.successors(nid):
            if lab == label:
                return dst
        raise KeyError(f"node {nid} has no {label!r} edge")

    def decisions(self) -> list:
        return [self.nodes[d] for d in self.decision_order]


class CfgError(Exception):
    pass


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _rename(node, var, result: Optional[SsaName] = None):
    """Copy an expression or condition, mapping each VarRef name by `var`.

    `result` is the name `\\result` stands for; it is given only for the
    postcondition, the one place where `\\result` and `==>` may occur.
    """
    if isinstance(node, IntLit):
        return node
    if isinstance(node, VarRef):
        return VarRef(var(node.name), node.loc)
    if isinstance(node, ResultRef) and result is not None:
        return VarRef(result, node.loc)
    if isinstance(node, Implies) and result is not None:
        return Implies(
            _rename(node.antecedent, var, result),
            _rename(node.consequent, var, result),
            node.loc,
        )
    if isinstance(node, (Neg, BoolNot)):
        return type(node)(_rename(node.operand, var, result), node.loc)
    if isinstance(node, (Add, Sub, Mul, BoolAnd, BoolOr)):
        return type(node)(
            _rename(node.lhs, var, result), _rename(node.rhs, var, result), node.loc
        )
    if isinstance(node, Cmp):
        return Cmp(
            node.op, _rename(node.lhs, var, result), _rename(node.rhs, var, result), node.loc
        )
    raise CfgError(f"unsupported expression: {node!r}")


def _version0(name: str) -> SsaName:
    return SsaName(name, 0)


def _current(env: dict):
    """Map a name to its latest version in `env` (0 when never assigned)."""
    return lambda name: SsaName(name, env.get(name, 0))


class _Builder:
    def __init__(self):
        self.nodes: dict = {}
        self.edges: dict = {}
        self.block_n = 0
        self.synth_n = 0
        self.cid = 0
        self.decision_ids: set = set()
        self.decision_order: list = []
        self.result_var: Optional[str] = None
        self.return_loc: Optional[SourceLoc] = None

    def add(self, node) -> str:
        self.nodes[node.id] = node
        self.edges.setdefault(node.id, [])
        return node.id

    def link(self, src: str, label: str, dst: str) -> None:
        self.edges.setdefault(src, []).append((label, dst))

    def new_block(self, assignments: list) -> str:
        nid = f"n{self.block_n}"
        self.block_n += 1
        return self.add(Block(nid, assignments))

    def new_decision(self, guard: BoolExpr, loc: SourceLoc) -> str:
        nid = f"d{loc.line}"
        while nid in self.decision_ids:
            nid += "x"
        self.decision_ids.add(nid)
        # creation order is source preorder, i.e. depth-first from entry
        self.decision_order.append(nid)
        return self.add(Decision(nid, guard, loc))

    def assignment(self, target: SsaName, rhs: Expr, loc: SourceLoc, **flags) -> Assignment:
        """An assignment numbered with the next constraint id."""
        self.cid += 1
        return Assignment(target, rhs, loc, cid=self.cid - 1, **flags)

    def assign(self, env: dict, base: str, rhs: Expr, loc: SourceLoc, init=False) -> Assignment:
        """`base` := `rhs`: a fresh version, or version 0 for an initialiser."""
        rhs = _rename(rhs, _current(env))
        env[base] = 0 if init else env.get(base, 0) + 1
        return self.assignment(SsaName(base, env[base]), rhs, loc, init=init)

    def seq(self, stmts, attach, env: dict) -> tuple:
        """Wire a statement list after `attach` = (src id, edge label).

        `env` maps each source name to its latest version and is updated in
        place to the versions live after the list.
        """
        pending: list = []

        def flush(at):
            nonlocal pending
            if pending:
                b = self.new_block(pending)
                pending = []
                self.link(at[0], at[1], b)
                return (b, NEXT)
            return at

        for s in stmts:
            if isinstance(s, Decl):
                if s.init is not None:
                    pending.append(self.assign(env, s.name, s.init, s.loc, init=True))
            elif isinstance(s, Assign):
                pending.append(self.assign(env, s.target, s.rhs, s.loc))
            elif isinstance(s, If):
                attach = flush(attach)
                d = self.new_decision(_rename(s.cond, _current(env)), s.loc)
                self.link(attach[0], attach[1], d)
                env_t, env_e = dict(env), dict(env)
                t_at = self.seq(s.then_body, (d, THEN), env_t)
                e_at = self.seq(s.else_body, (d, ELSE), env_e)
                copies = self.unify(env, env_t, env_e, s.loc)
                join = self.new_block([])
                for label, at in ((THEN, t_at), (ELSE, e_at)):
                    if copies[label] and at == (d, label):
                        # empty branch: the copies get a block of their own
                        bid = f"s{self.synth_n}"
                        self.synth_n += 1
                        self.add(Block(bid, copies[label]))
                        self.link(d, label, bid)
                        at = (bid, NEXT)
                    elif copies[label]:
                        self.nodes[at[0]].assignments.extend(copies[label])
                    self.link(at[0], at[1], join)
                attach = (join, NEXT)
            elif isinstance(s, Return):
                if isinstance(s.expr, VarRef):
                    self.result_var = s.expr.name
                else:
                    self.result_var = RESULT_VAR
                    pending.append(self.assign(env, RESULT_VAR, s.expr, s.loc))
                self.return_loc = s.loc
                attach = flush(attach)
            else:
                raise CfgError(f"unsupported statement: {s!r}")
        return flush(attach)

    def unify(self, env: dict, env_t: dict, env_e: dict, loc: SourceLoc) -> dict:
        """Merge the branch environments into `env` at an `if`'s join.

        Returns, per branch label, the synthetic copies that make each
        variable's latest version path-independent past the join.
        """
        copies: dict = {THEN: [], ELSE: []}
        # unify everything both branches know about; names known to only
        # one side are branch-local and dead past the join
        for base in [b for b in env_t if b in env_e]:
            vt, ve = env_t[base], env_e[base]
            env[base] = max(vt, ve)
            if vt != ve:
                # the branch holding the *lower* version lacks the assignment
                # and receives the copy, located at the governing decision
                copy = self.assignment(
                    SsaName(base, env[base]),
                    VarRef(SsaName(base, min(vt, ve)), loc),
                    loc,
                    synthetic=True,
                )
                copies[THEN if vt < ve else ELSE].append(copy)
        return copies


def build_cfg(fn: Function) -> Cfg:
    """Lower a typechecked function to its control-flow graph in DSA form."""
    b = _Builder()
    entry = b.add(Entry("entry"))
    exit_ = b.add(Exit("exit"))
    env: dict = {p: 0 for p in fn.param_names}
    attach = b.seq(fn.body, (entry, NEXT), env)
    b.link(attach[0], attach[1], exit_)
    if b.result_var is None:
        raise CfgError("function has no return statement")
    result_name = SsaName(b.result_var, env.get(b.result_var, 0))
    return Cfg(
        name=fn.name,
        params=fn.param_names,
        param_locs={p.name: p.loc for p in fn.params},
        nodes=b.nodes,
        edges=b.edges,
        entry=entry,
        exit=exit_,
        decision_order=tuple(b.decision_order),
        result_var=b.result_var,
        return_loc=b.return_loc,
        ensures_loc=fn.ensures_loc,
        postcondition=_rename(fn.postcondition, _version0, result_name),
    )


def to_dsa(g: Cfg) -> Cfg:
    """Return `g`, which :func:`build_cfg` already built in DSA form.

    Kept only for ``perfbench/run.py``, which still times it as a step.
    """
    return g


# ---------------------------------------------------------------------------
# Derived views
# ---------------------------------------------------------------------------


def guard_formula(cfg: Cfg, decision_id: str) -> Formula:
    key = ("guard", decision_id)
    if key not in cfg._formula_cache:
        node = cfg.nodes[decision_id]
        cfg._formula_cache[key] = bool_expr_to_formula(node.guard)
    return cfg._formula_cache[key]


def post_formula(cfg: Cfg) -> Formula:
    if "post" not in cfg._formula_cache:
        cfg._formula_cache["post"] = bool_expr_to_formula(cfg.postcondition)
    return cfg._formula_cache["post"]


def assignment_constraints(cfg: Cfg) -> dict:
    """cid -> soft Constraint for every block assignment."""
    if "assignments" not in cfg._formula_cache:
        cfg._formula_cache["assignments"] = {
            a.cid: assign_to_constraint(a.target, a.rhs, a.loc, a.synthetic, a.cid)
            for a in iter_assignments(cfg)
        }
    return cfg._formula_cache["assignments"]


def iter_assignments(cfg: Cfg):
    """All block assignments in deterministic (cid) order."""
    out = []
    for nid in sorted(cfg.nodes):
        node = cfg.nodes[nid]
        if isinstance(node, Block):
            out.extend(node.assignments)
    return sorted(out, key=lambda a: a.cid)


def enumerate_paths(cfg: Cfg, limit: int = 2**10):
    """Yield every entry-to-exit path as a list of node ids (DFS order)."""
    count = 0

    def rec(nid, acc):
        nonlocal count
        acc = acc + [nid]
        node = cfg.nodes[nid]
        if isinstance(node, Exit):
            count += 1
            if count > limit:
                raise CfgError(f"more than {limit} paths")
            yield acc
            return
        if isinstance(node, Decision):
            yield from rec(cfg.succ(nid, THEN), acc)
            yield from rec(cfg.succ(nid, ELSE), acc)
        else:
            yield from rec(cfg.successors(nid)[0][1], acc)

    yield from rec(cfg.entry, [])


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(cfg: Cfg) -> str:
    """Graphviz rendering; node labels carry constraint text and lines."""
    lines = [f'digraph "{_esc(cfg.name)}" {{', "  node [shape=box];"]
    for nid in sorted(cfg.nodes):
        node = cfg.nodes[nid]
        if isinstance(node, Entry):
            lines.append(f'  "{nid}" [shape=circle, label="entry"];')
        elif isinstance(node, Exit):
            lines.append(f'  "{nid}" [shape=doublecircle, label="exit"];')
        elif isinstance(node, Decision):
            label = f"{_guard_text(node.guard)}\\nline {node.loc.line}"
            lines.append(f'  "{nid}" [shape=diamond, label="{_esc(label)}"];')
        elif isinstance(node, Block):
            rows = []
            for a in node.assignments:
                txt = f"{a.target} = {linterm_from_expr(a.rhs).render()}"
                if a.synthetic:
                    txt += " (synthetic)"
                rows.append(f"{txt} @ {a.loc.line}")
            label = "\\n".join(rows) if rows else "(join)"
            lines.append(f'  "{nid}" [label="{_esc(label)}"];')
    for src in sorted(cfg.edges):
        for label, dst in cfg.edges[src]:
            attr = f' [label="{label}"]' if label in (THEN, ELSE) else ""
            lines.append(f'  "{src}" -> "{dst}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _guard_text(guard: BoolExpr) -> str:
    return str(bool_expr_to_formula(guard))
