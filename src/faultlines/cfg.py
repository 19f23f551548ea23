"""Control-flow graph construction and the single-assignment transform.

:func:`build_cfg` lowers a typechecked function into a DAG of assignment
blocks and two-way decision nodes (one per `if`); join points are
materialised as empty blocks so every branch region is single-entry /
single-exit.  All variable references initially carry version 0.

:func:`to_dsa` renames assignment targets so that on every entry-to-exit
path each versioned name is assigned at most once.  Versions are unified
at join points: a branch that does not assign a variable the other branch
assigns receives a synthetic copy (flagged, located at the governing
decision) so the variable's latest version is path-independent afterwards.
Version 0 always denotes the input/initial value: parameters start at
version 0 and a declaration initialiser assigns version 0; ordinary
assignments create fresh versions.

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
    raw_postcondition: BoolExpr  # over source names + \result
    raw_precondition: Optional[BoolExpr]
    postcondition: Optional[BoolExpr] = None  # over SsaName, set by to_dsa
    is_dsa: bool = False
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


class _Builder:
    def __init__(self, fn: Function):
        self.fn = fn
        self.nodes: dict = {}
        self.edges: dict = {}
        self.block_n = 0
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

    def seq(self, stmts, attach) -> tuple:
        """Wire a statement list after `attach` = (src id, edge label)."""
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
                    init = _rename(s.init, _version0)
                    pending.append(Assignment(SsaName(s.name, 0), init, s.loc, init=True))
            elif isinstance(s, Assign):
                pending.append(Assignment(SsaName(s.target, 0), _rename(s.rhs, _version0), s.loc))
            elif isinstance(s, If):
                attach = flush(attach)
                d = self.new_decision(_rename(s.cond, _version0), s.loc)
                self.link(attach[0], attach[1], d)
                t_at = self.seq(s.then_body, (d, THEN))
                e_at = self.seq(s.else_body, (d, ELSE))
                join = self.new_block([])
                self.link(t_at[0], t_at[1], join)
                self.link(e_at[0], e_at[1], join)
                attach = (join, NEXT)
            elif isinstance(s, Return):
                if isinstance(s.expr, VarRef):
                    self.result_var = s.expr.name
                else:
                    self.result_var = RESULT_VAR
                    pending.append(
                        Assignment(SsaName(RESULT_VAR, 0), _rename(s.expr, _version0), s.loc)
                    )
                self.return_loc = s.loc
                attach = flush(attach)
            else:
                raise CfgError(f"unsupported statement: {s!r}")
        return flush(attach)


def build_cfg(fn: Function) -> Cfg:
    """Lower a typechecked function to its (pre-DSA) control-flow graph."""
    b = _Builder(fn)
    entry = b.add(Entry("entry"))
    exit_ = b.add(Exit("exit"))
    attach = b.seq(fn.body, (entry, NEXT))
    b.link(attach[0], attach[1], exit_)
    if b.result_var is None:
        raise CfgError("function has no return statement")
    cfg = Cfg(
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
        raw_postcondition=fn.postcondition,
        raw_precondition=fn.precondition,
    )
    return cfg


# ---------------------------------------------------------------------------
# Postdominators (for locating join points)
# ---------------------------------------------------------------------------


def _topo_order(cfg: Cfg) -> list:
    indeg: dict = {n: 0 for n in cfg.nodes}
    for src, outs in cfg.edges.items():
        for _, dst in outs:
            indeg[dst] += 1
    ready = [cfg.entry]
    order = []
    while ready:
        nid = ready.pop()
        order.append(nid)
        for _, dst in cfg.edges.get(nid, []):
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    if len(order) != len(cfg.nodes):
        raise CfgError("control-flow graph is not acyclic")
    return order


def _postdom_sets(cfg: Cfg) -> dict:
    order = _topo_order(cfg)
    pd: dict = {}
    for nid in reversed(order):
        succs = [dst for _, dst in cfg.edges.get(nid, [])]
        if not succs:
            pd[nid] = {nid}
        else:
            common = set.intersection(*(pd[s] for s in succs))
            pd[nid] = {nid} | common
    return pd


def _ipostdom(cfg: Cfg, pd: dict, decision_id: str) -> str:
    t = cfg.succ(decision_id, THEN)
    e = cfg.succ(decision_id, ELSE)
    common = pd[t] & pd[e]
    nearest = [p for p in common if common <= pd[p]]
    if len(nearest) != 1:
        raise CfgError(f"no unique join point for {decision_id}")
    return nearest[0]


# ---------------------------------------------------------------------------
# DSA transform
# ---------------------------------------------------------------------------


def _current(env: dict):
    """Map a name to its latest version in `env` (0 when never assigned)."""
    return lambda name: SsaName(name.base, env.get(name.base, 0))


class _DsaWalker:
    def __init__(self, g: Cfg):
        self.g = g
        self.pd = _postdom_sets(g)
        self.nodes: dict = {}
        self.edges: dict = {nid: list(outs) for nid, outs in g.edges.items()}
        self.decision_order: list = []
        self.cid = 0
        self.synth_n = 0

    def next_cid(self) -> int:
        c = self.cid
        self.cid += 1
        return c

    def walk(self, nid: str, env: dict, until: str):
        """Process nodes from `nid` up to (exclusive) `until`.

        Returns the id of the last processed node, or None if the segment
        was empty.
        """
        last = None
        while nid != until:
            node = self.g.nodes[nid]
            if isinstance(node, Entry):
                self.nodes[nid] = Entry(nid)
            elif isinstance(node, Exit):
                self.nodes[nid] = Exit(nid)
                return nid
            elif isinstance(node, Block):
                new_assignments = []
                for a in node.assignments:
                    rhs2 = _rename(a.rhs, _current(env))
                    base = a.target.base
                    version = 0 if a.init else env.get(base, 0) + 1
                    env[base] = version
                    new_assignments.append(
                        Assignment(
                            SsaName(base, version),
                            rhs2,
                            a.loc,
                            synthetic=a.synthetic,
                            init=a.init,
                            cid=self.next_cid(),
                        )
                    )
                self.nodes[nid] = Block(nid, new_assignments)
            elif isinstance(node, Decision):
                guard2 = _rename(node.guard, _current(env))
                self.nodes[nid] = Decision(nid, guard2, node.loc)
                self.decision_order.append(nid)
                join = _ipostdom(self.g, self.pd, nid)
                env_t = dict(env)
                env_e = dict(env)
                last_t = self.walk(self.g.succ(nid, THEN), env_t, join)
                last_e = self.walk(self.g.succ(nid, ELSE), env_e, join)
                synth: dict = {THEN: [], ELSE: []}
                # unify everything both branches know about; names known to
                # only one side are branch-local and dead past the join
                for base in [b for b in env_t if b in env_e]:
                    vt, ve = env_t[base], env_e[base]
                    if vt == ve:
                        env[base] = vt
                        continue
                    hi, lo = max(vt, ve), min(vt, ve)
                    copy = Assignment(
                        SsaName(base, hi),
                        VarRef(SsaName(base, lo), node.loc),
                        node.loc,
                        synthetic=True,
                        cid=self.next_cid(),
                    )
                    # the branch holding the *lower* version lacks the
                    # assignment and receives the copy
                    synth[THEN if vt < ve else ELSE].append(copy)
                    env[base] = hi
                self._attach_synthetics(nid, THEN, last_t, join, synth[THEN])
                self._attach_synthetics(nid, ELSE, last_e, join, synth[ELSE])
                last = nid
                nid = join
                continue
            else:
                raise CfgError(f"unknown node {node!r}")
            last = nid
            succs = self.edges.get(nid, [])
            if not succs:
                return last
            nid = succs[0][1]
        return last

    def _attach_synthetics(self, dec: str, label: str, last, join: str, copies: list):
        if not copies:
            return
        if last is None:
            # empty branch: splice a fresh block onto the decision edge
            bid = f"s{self.synth_n}"
            self.synth_n += 1
            self.nodes[bid] = Block(bid, copies)
            outs = self.edges[dec]
            self.edges[dec] = [
                (lab, bid if lab == label else dst) for lab, dst in outs
            ]
            self.edges[bid] = [(NEXT, join)]
        else:
            host = self.nodes[last]
            if not isinstance(host, Block):
                raise CfgError(f"cannot place synthetic copies after {last}")
            host.assignments.extend(copies)


def to_dsa(g: Cfg) -> Cfg:
    """Rename assignments so each version is assigned at most once per path."""
    if g.is_dsa:
        return g
    w = _DsaWalker(g)
    env: dict = {p: 0 for p in g.params}
    w.walk(g.entry, env, until=None)
    result_name = SsaName(g.result_var, env.get(g.result_var, 0))
    post = _rename(g.raw_postcondition, _version0, result_name)
    return Cfg(
        name=g.name,
        params=g.params,
        param_locs=g.param_locs,
        nodes=w.nodes,
        edges=w.edges,
        entry=g.entry,
        exit=g.exit,
        decision_order=tuple(w.decision_order),
        result_var=g.result_var,
        return_loc=g.return_loc,
        ensures_loc=g.ensures_loc,
        raw_postcondition=g.raw_postcondition,
        raw_precondition=g.raw_precondition,
        postcondition=post,
        is_dsa=True,
    )


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
    if cfg.postcondition is None:
        raise CfgError("postcondition formula requires a DSA-form graph")
    if "post" not in cfg._formula_cache:
        cfg._formula_cache["post"] = bool_expr_to_formula(cfg.postcondition)
    return cfg._formula_cache["post"]


def assignment_constraints(cfg: Cfg) -> dict:
    """cid -> soft Constraint for every block assignment of a DSA graph."""
    if not cfg.is_dsa:
        raise CfgError("assignment constraints require a DSA-form graph")
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
