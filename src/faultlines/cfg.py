"""Control-flow graph construction in dynamic single-assignment (DSA) form.

:func:`build_cfg` lowers a typechecked function into a DAG of assignment
blocks and two-way decision nodes (one per `if`); the entry, the exit and
the join points are empty blocks, so every branch region is single-entry /
single-exit.  Each node maps its edge labels to their targets: a decision
has `then` and `else`, every other block `next`, and the exit none.

Variables are renamed while the graph is built, so that on every
entry-to-exit path each versioned name is assigned at most once: the
builder threads the latest version of each name through the statements and
lowers each branch of an `if` on its own copy.  At the join, a branch that
does not assign a variable the other branch assigns receives a synthetic
copy (flagged, located at the governing decision) so the variable's latest
version is path-independent afterwards.  Version 0 always denotes the
input/initial value: parameters start at version 0 and a declaration
initialiser assigns version 0; ordinary assignments create fresh versions.
Assignments, the only soft constraints, are numbered 0, 1, ... in that
same walk order; the hard constraints of a diagnosis are plain formulas
and carry no id.

Each expression is lowered to a linear formula over versioned names as it
is renamed (:func:`~faultlines.formulas.linterm_from_expr`), so the graph
holds no syntax trees: an assignment carries its right-hand side as a
:class:`~faultlines.formulas.LinTerm` over earlier versions together with
its soft constraint `target = rhs` (which holds its id, line and kind,
assignment or synthetic copy), and decision guards and the pre-
and postcondition are :class:`~faultlines.formulas.Formula` values.

A bare-variable `return x` binds the specification's result directly to
x's final version.  Any other returned expression becomes an ordinary
(soft, suspectable) assignment to the reserved variable `_ret` at the
return statement's line.

Construction is single-threaded per function; the resulting graph is
treated as immutable and may be shared across threads.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .formulas import (
    TRUE,
    Constraint,
    ConstraintKind,
    Formula,
    LinTerm,
    SsaName,
    assign_to_constraint,
    bool_expr_to_formula,
    linterm_from_expr,
)
from .frontend import Assign, Decl, Expr, Function, If, Return, SourceLoc, VarRef

RESULT_VAR = "_ret"

THEN = "then"
ELSE = "else"
NEXT = "next"


class Assignment(NamedTuple):
    target: SsaName
    rhs: LinTerm  # affine in earlier versions
    constraint: Constraint  # the soft `target = rhs`


class Block:
    __slots__ = ("id", "assignments")

    def __init__(self, id: str, assignments: list):
        self.id, self.assignments = id, assignments


class Decision:
    __slots__ = ("id", "guard", "loc")

    def __init__(self, id: str, guard: Formula, loc: SourceLoc):
        self.id, self.guard, self.loc = id, guard, loc


class Cfg:
    __slots__ = ("name", "nodes", "edges", "entry", "exit", "decision_order",
                 "result_var", "precondition", "postcondition")

    def __init__(self, name, nodes, edges, entry, exit, decision_order,
                 result_var, precondition, postcondition):
        # edges: id -> {label: dst}; entry, exit: ids of empty blocks;
        # precondition: over version-0 names, TRUE without `requires`;
        # postcondition: \result is the final result version
        self.name, self.nodes, self.edges = name, nodes, edges
        self.entry, self.exit, self.decision_order = entry, exit, decision_order
        self.result_var = result_var
        self.precondition, self.postcondition = precondition, postcondition


class CfgError(Exception):
    pass


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


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
        self.decision_order: list = []
        self.result_var: Optional[str] = None

    def add(self, node) -> str:
        self.nodes[node.id] = node
        self.edges[node.id] = {}
        return node.id

    def link(self, src: str, label: str, dst: str) -> None:
        self.edges[src][label] = dst

    def new_block(self, assignments: list) -> str:
        nid = f"n{self.block_n}"
        self.block_n += 1
        return self.add(Block(nid, assignments))

    def new_decision(self, guard: Formula, loc: SourceLoc) -> str:
        nid = f"d{loc.line}"
        while nid in self.nodes:
            nid += "x"
        # creation order is source preorder, i.e. depth-first from entry
        self.decision_order.append(nid)
        return self.add(Decision(nid, guard, loc))

    def assignment(self, target: SsaName, rhs: LinTerm, loc: SourceLoc, synthetic=False):
        """An assignment and its soft constraint, numbered with the next id."""
        cid, self.cid = self.cid, self.cid + 1
        return Assignment(target, rhs, assign_to_constraint(target, rhs, loc, synthetic, cid))

    def assign(self, env: dict, base: str, rhs: Expr, loc: SourceLoc, init=False) -> Assignment:
        """`base` := `rhs`: a fresh version, or version 0 for an initialiser."""
        term = linterm_from_expr(rhs, _current(env))
        env[base] = 0 if init else env.get(base, 0) + 1
        return self.assignment(SsaName(base, env[base]), term, loc)

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
                guard = bool_expr_to_formula(s.cond, _current(env), guard=True)
                d = self.new_decision(guard, s.loc)
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
                    LinTerm.var(SsaName(base, min(vt, ve))),
                    loc,
                    synthetic=True,
                )
                copies[THEN if vt < ve else ELSE].append(copy)
        return copies


def build_cfg(fn: Function) -> Cfg:
    """Lower a typechecked function to its control-flow graph in DSA form.

    `\\result` lowers only in the postcondition and `==>` only in the
    annotations; anywhere else (which typechecking rules out) they raise
    TypeError.
    """
    b = _Builder()
    entry = b.add(Block("entry", []))
    exit_ = b.add(Block("exit", []))
    env: dict = {p: 0 for p in fn.param_names}
    attach = b.seq(fn.body, (entry, NEXT), env)
    b.link(attach[0], attach[1], exit_)
    if b.result_var is None:
        raise CfgError("function has no return statement")
    result_name = SsaName(b.result_var, env.get(b.result_var, 0))
    return Cfg(
        name=fn.name,
        nodes=b.nodes,
        edges=b.edges,
        entry=entry,
        exit=exit_,
        decision_order=tuple(b.decision_order),
        result_var=b.result_var,
        precondition=bool_expr_to_formula(fn.precondition, _version0) if fn.precondition else TRUE,
        postcondition=bool_expr_to_formula(fn.postcondition, _version0, result_name),
    )


def to_dsa(g: Cfg) -> Cfg:
    """Return `g`, which :func:`build_cfg` already built in DSA form.

    Kept only for ``perfbench/run.py``, which still times it as a step.
    """
    return g


def iter_assignments(cfg: Cfg):
    """All block assignments in deterministic (cid) order."""
    out = []
    for nid in sorted(cfg.nodes):
        node = cfg.nodes[nid]
        if isinstance(node, Block):
            out.extend(node.assignments)
    return sorted(out, key=lambda a: a.constraint.id)


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
        if nid == cfg.entry:
            lines.append(f'  "{nid}" [shape=circle, label="entry"];')
        elif nid == cfg.exit:
            lines.append(f'  "{nid}" [shape=doublecircle, label="exit"];')
        elif isinstance(node, Decision):
            label = f"{node.guard}\\nline {node.loc.line}"
            lines.append(f'  "{nid}" [shape=diamond, label="{_esc(label)}"];')
        else:
            rows = []
            for a in node.assignments:
                c = a.constraint
                txt = f"{a.target} = {a.rhs.render()}"
                if c.kind is ConstraintKind.SYNTHETIC_COPY:
                    txt += " (synthetic)"
                rows.append(f"{txt} @ {c.loc.line}")
            label = "\\n".join(rows) if rows else "(join)"
            lines.append(f'  "{nid}" [label="{_esc(label)}"];')
    for src in sorted(cfg.edges):
        for label, dst in cfg.edges[src].items():
            attr = f' [label="{label}"]' if label in (THEN, ELSE) else ""
            lines.append(f'  "{src}" -> "{dst}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"

