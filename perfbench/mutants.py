"""Seeded generator of single-mutation programs with path-wise specifications.

Programs follow the shape of ``tests/helpers.random_program``: one to three
parameters, one to three locals initialised up front, nested ``if``
statements up to depth two, and linear assignments.  The generator keeps
the program as a small syntax tree, so it can

* derive the ``ensures`` clause of the *unmutated* program by symbolic
  execution: every path contributes ``(path condition) ==> \\result == e``,
  with the condition and ``e`` linear in the parameters;
* seed exactly one mutation (a changed constant, a changed comparison
  operator, or a dropped assignment inside a branch) and name the source
  line a localization should report;
* search a small input box for the smallest failing input with the
  reference interpreter ``faultlines.frontend.interpret``.

A mutant with no failing input in the box is equivalent there and is
redrawn.  Nothing else is filtered: neither run time nor localization
outcome plays any part in the draw.

All randomness comes from ``random.Random(seed)``, so a seed gives
byte-identical programs on every platform.
"""

from __future__ import annotations

import copy
import functools
import itertools
import random
from dataclasses import dataclass, field

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
SEARCH_BOX = (-4, 4)
MAX_REDRAWS = 1000


@dataclass
class Expr:
    terms: list  # [(coef, var)], coef in {-2, -1, 1, 2}
    const: int


@dataclass
class Guard:
    op: str
    lhs: Expr
    rhs: Expr
    # optional second comparison joined by "&&" or "||"
    conn: str = ""
    op2: str = ""
    lhs2: Expr = None
    rhs2: Expr = None


@dataclass
class Assign:
    target: str
    rhs: Expr
    line: int = 0
    dropped: bool = False


@dataclass
class If:
    guard: Guard
    then_body: list
    else_body: list = None
    line: int = 0


@dataclass
class Program:
    params: list
    locals_: list  # [(name, Expr)]
    body: list
    ret: str
    local_lines: list = field(default_factory=list)


@dataclass(frozen=True)
class Mutant:
    """One generated localization task."""

    index: int
    kind: str  # "constant", "operator" or "dropped"
    original: str  # unmutated source text
    source: str  # mutated source text
    seeded_line: int
    inputs: dict  # failing input, parameter name -> value


# ---------------------------------------------------------------------------
# Drawing programs (same distribution as tests/helpers.random_program)
# ---------------------------------------------------------------------------


def _draw_expr(rng: random.Random, visible: list) -> Expr:
    terms = []
    for _ in range(rng.randint(1, 2)):
        v = visible[rng.randrange(len(visible))]
        c = rng.randint(-2, 2)
        terms.append((1 if c == 0 else c, v))
    return Expr(terms, rng.randint(-3, 3))


def _draw_guard(rng: random.Random, visible: list) -> Guard:
    g = Guard(rng.choice(CMP_OPS), _draw_expr(rng, visible), _draw_expr(rng, visible))
    if rng.randrange(4) == 0:
        g.conn = rng.choice(("&&", "||"))
        g.op2 = rng.choice(("<", ">="))
        g.lhs2 = _draw_expr(rng, visible)
        g.rhs2 = _draw_expr(rng, visible)
    return g


def _draw_stmts(rng: random.Random, visible: list, depth: int, max_depth: int) -> list:
    out = []
    for _ in range(rng.randint(1, 3)):
        if rng.randrange(10) < 6 or depth >= max_depth:
            target = visible[rng.randrange(len(visible))]
            out.append(Assign(target, _draw_expr(rng, visible)))
        else:
            guard = _draw_guard(rng, visible)
            then_body = _draw_stmts(rng, visible, depth + 1, max_depth)
            else_body = None
            if rng.randrange(2) == 0:
                else_body = _draw_stmts(rng, visible, depth + 1, max_depth)
            out.append(If(guard, then_body, else_body))
    return out


def draw_program(rng: random.Random, max_params: int = 3, max_depth: int = 2) -> Program:
    params = [f"p{i}" for i in range(rng.randint(1, max_params))]
    visible = list(params)
    locals_ = []
    for i in range(rng.randint(1, 3)):
        locals_.append((f"v{i}", _draw_expr(rng, visible)))
        visible.append(f"v{i}")
    body = _draw_stmts(rng, visible, 0, max_depth)
    return Program(params, locals_, body, visible[rng.randrange(len(visible))])


# ---------------------------------------------------------------------------
# Rendering (assigns line numbers as a side effect)
# ---------------------------------------------------------------------------


def _term_text(c: int, v: str) -> str:
    return v if c == 1 else f"-{v}" if c == -1 else f"{c}*{v}"


def render_expr(e: Expr) -> str:
    body = " + ".join(_term_text(c, v) for c, v in e.terms)
    return f"{body} + {e.const}" if e.const >= 0 else f"{body} - {-e.const}"


def render_guard(g: Guard) -> str:
    text = f"{render_expr(g.lhs)} {g.op} {render_expr(g.rhs)}"
    if g.conn:
        text = f"({text}) {g.conn} ({render_expr(g.lhs2)} {g.op2} {render_expr(g.rhs2)})"
    return text


def render(prog: Program, ensures: str) -> str:
    lines = [f"/*@ ensures {ensures}; */"]
    header = ", ".join(f"int {p}" for p in prog.params)
    lines.append(f"int Rand ({header}) {{")
    prog.local_lines = []
    for name, e in prog.locals_:
        lines.append(f"  int {name} = {render_expr(e)};")
        prog.local_lines.append(len(lines))

    def stmts(body, indent):
        for s in body:
            if isinstance(s, Assign):
                lines.append("" if s.dropped else f"{indent}{s.target} = {render_expr(s.rhs)};")
                s.line = len(lines)
            else:
                lines.append(f"{indent}if ({render_guard(s.guard)}) {{")
                s.line = len(lines)
                stmts(s.then_body, indent + "  ")
                if s.else_body is not None:
                    lines.append(f"{indent}}} else {{")
                    stmts(s.else_body, indent + "  ")
                lines.append(f"{indent}}}")

    stmts(prog.body, "  ")
    lines.append(f"  return {prog.ret};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Specification by symbolic execution over the unmutated program's paths
# ---------------------------------------------------------------------------


def _lin(e: Expr, env: dict) -> dict:
    """Linear form {param: coef, "": const} of `e` under symbolic `env`."""
    out = {"": e.const}
    for c, v in e.terms:
        for name, k in env[v].items():
            out[name] = out.get(name, 0) + c * k
    return {n: k for n, k in out.items() if k != 0 or n == ""}


def render_lin(form: dict) -> str:
    parts = []
    for name in sorted(n for n in form if n):
        c = form[name]
        text = _term_text(abs(c), name)
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    const = form.get("", 0)
    if not parts:
        return str(const)
    if const:
        parts.append(f"+ {const}" if const > 0 else f"- {-const}")
    return " ".join(parts)


def _sym_guard(g: Guard, env: dict) -> str:
    text = f"{render_lin(_lin(g.lhs, env))} {g.op} {render_lin(_lin(g.rhs, env))}"
    if g.conn:
        second = f"{render_lin(_lin(g.lhs2, env))} {g.op2} {render_lin(_lin(g.rhs2, env))}"
        text = f"({text}) {g.conn} ({second})"
    return text


def _paths(body: list, env: dict, cond: tuple):
    """Yield (path condition tuple, final env) for every path through `body`."""
    if not body:
        yield cond, env
        return
    head, rest = body[0], body[1:]
    if isinstance(head, Assign):
        env = dict(env)
        if not head.dropped:
            env[head.target] = _lin(head.rhs, env)
        yield from _paths(rest, env, cond)
        return
    g = _sym_guard(head.guard, env)
    for branch, lit in ((head.then_body, f"({g})"), (head.else_body or [], f"!({g})")):
        for c2, env2 in _paths(branch, env, cond + (lit,)):
            yield from _paths(rest, env2, c2)


def derive_ensures(prog: Program) -> str:
    env = {p: {p: 1, "": 0} for p in prog.params}
    for name, e in prog.locals_:
        env[name] = _lin(e, env)
    clauses = []
    for cond, final in _paths(prog.body, env, ()):
        eq = f"\\result == {render_lin(final[prog.ret])}"
        clauses.append(f"({' && '.join(cond)} ==> {eq})" if cond else f"({eq})")
    return " && ".join(clauses)


# ---------------------------------------------------------------------------
# Mutation and failing-input search
# ---------------------------------------------------------------------------


def _walk(body: list, depth: int = 0):
    for s in body:
        yield s, depth
        if isinstance(s, If):
            yield from _walk(s.then_body, depth + 1)
            yield from _walk(s.else_body or [], depth + 1)


def _branch_assignments(body: list):
    """(assignment, enclosing if) for every assignment inside a branch."""
    for s in body:
        if isinstance(s, If):
            for inner in (s.then_body, s.else_body or []):
                for t in inner:
                    if isinstance(t, Assign):
                        yield t, s
                yield from _branch_assignments(inner)


def _mutate(rng: random.Random, prog: Program):
    """Apply one mutation in place; returns (kind, node whose line is seeded).

    For a constant the node is the local index (int), the Assign or the If
    holding it; for a dropped assignment it is the enclosing If, whose line
    carries the synthetic copy that stands for the missing assignment.
    """
    stmts = [s for s, _ in _walk(prog.body)]
    ifs = [s for s in stmts if isinstance(s, If)]
    drops = list(_branch_assignments(prog.body))
    kinds = ["constant"] + (["operator"] if ifs else []) + (["dropped"] if drops else [])
    kind = rng.choice(kinds)
    if kind == "operator":
        node = rng.choice(ifs)
        node.guard.op = rng.choice([op for op in CMP_OPS if op != node.guard.op])
        return kind, node
    if kind == "dropped":
        assign, owner = rng.choice(drops)
        assign.dropped = True
        return kind, owner
    sites = [("local", i) for i in range(len(prog.locals_))]
    sites += [("stmt", s) for s in stmts]
    where, node = rng.choice(sites)
    if where == "local":
        expr = prog.locals_[node][1]
    elif isinstance(node, Assign):
        expr = node.rhs
    else:
        g = node.guard
        expr = rng.choice([g.lhs, g.rhs] + ([g.lhs2, g.rhs2] if g.conn else []))
    expr.const += rng.choice((-2, -1, 1, 2))
    return kind, node


def _seeded_line(prog: Program, node) -> int:
    return prog.local_lines[node] if isinstance(node, int) else node.line


@functools.lru_cache(maxsize=None)
def _box_points(arity: int) -> tuple:
    lo, hi = SEARCH_BOX
    points = itertools.product(range(lo, hi + 1), repeat=arity)
    return tuple(sorted(points, key=lambda v: (max(map(abs, v), default=0), sum(map(abs, v)), v)))


def box_inputs(params: list):
    """Every input of the search box, smallest magnitude first."""
    for values in _box_points(len(params)):
        yield dict(zip(params, values))


def find_failing_input(source: str):
    from faultlines.frontend import interpret, parse_program

    fn = parse_program(source)
    for inputs in box_inputs(list(fn.param_names)):
        if not interpret(fn, inputs).postcondition_holds:
            return inputs
    return None


def draw_mutant(rng: random.Random, index: int) -> Mutant:
    """Draw programs until one mutation has a failing input in the box."""
    for _ in range(MAX_REDRAWS):
        prog = draw_program(rng)
        ensures = derive_ensures(prog)
        original = render(prog, ensures)
        mutant = copy.deepcopy(prog)
        kind, node = _mutate(rng, mutant)
        source = render(mutant, ensures)
        inputs = find_failing_input(source)
        if inputs is not None:
            return Mutant(index, kind, original, source, _seeded_line(mutant, node), inputs)
    raise RuntimeError(f"no non-equivalent mutant after {MAX_REDRAWS} draws")


def generate(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [draw_mutant(rng, i) for i in range(count)]
