"""Shared test utilities: pipeline shortcuts, random generators, oracles.

The oracles here are deliberately independent of the solver: they decide
satisfiability by exhaustive valuation enumeration over the domain box
(vectorised with numpy, which only the tests need).  `bruteforce_mcs` is
the exhaustive MCS oracle that the MCS enumeration is checked against.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from faultlines.cfg import build_cfg
from faultlines.cli import config_from_args  # noqa: F401  (re-exported for the tests)
from faultlines.explorer import Counterexample
from faultlines.formulas import (
    And,
    Atom,
    BoolConst,
    Constraint,
    ConstraintKind,
    ConstraintSet,
    Formula,
    LinTerm,
    Or,
    SsaName,
    UnboundVariableError,
    eval_formula,
    negate,
)
from faultlines.frontend import CMP_EVAL, Function, parse_program, typecheck
from faultlines.solver import DomainConfig
from reference import formula_vars

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
DOCS = ROOT / "docs"


def corpus_manifest() -> dict:
    return json.loads((CORPUS / "manifest.json").read_text())


def corpus_entry(name: str):
    entry = corpus_manifest()[name]
    text = (CORPUS / entry["source"]).read_text()
    ce_map = json.loads((CORPUS / entry["ce"]).read_text())
    return text, ce_map, entry


def compile_source(text: str) -> tuple:
    """Parse + typecheck + DSA graph; fails the test on diagnostics."""
    fn = parse_program(text)
    diags = typecheck(fn)
    assert not diags, [str(d) for d in diags]
    return fn, build_cfg(fn)


def ce_for(fn: Function, mapping) -> Counterexample:
    return Counterexample.of(mapping, fn.param_names)


# ---------------------------------------------------------------------------
# Exhaustive valuation oracle
# ---------------------------------------------------------------------------


def value_grids(names, dom: DomainConfig) -> dict:
    names = list(names)
    if not names:
        return {}
    axes = np.meshgrid(*([np.arange(dom.lo, dom.hi + 1)] * len(names)), indexing="ij")
    return {n: ax.ravel() for n, ax in zip(names, axes)}


def exhaustive_sat(formulas, dom: DomainConfig, names=None):
    """Return one satisfying assignment (dict) or None, by full enumeration."""
    formulas = list(formulas)
    if names is None:
        names = sorted(set().union(set(), *(formula_vars(f) for f in formulas)))
    else:
        names = sorted(names)
    if not names:
        return {} if all(eval_formula(f, {}) for f in formulas) else None
    grids = value_grids(names, dom)
    ok = np.ones(next(iter(grids.values())).shape, dtype=bool)
    for f in formulas:
        ok &= eval_formula_grid(f, grids)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    i = int(hits[0])
    return {n: int(grids[n][i]) for n in names}


def eval_formula_grid(f: Formula, grids: Mapping[SsaName, np.ndarray]) -> np.ndarray:
    """Vectorised evaluation over parallel arrays of variable values.

    Used by the exhaustive-enumeration test oracles; all arrays must share
    one shape and the result is a boolean array of that shape.
    """
    if isinstance(f, Atom):
        def term(t: LinTerm) -> np.ndarray:
            total = np.full(_grid_shape(grids), t.const, dtype=np.int64)
            for n, c in t.coeffs:
                if n not in grids:
                    raise UnboundVariableError(str(n))
                total = total + c * grids[n]
            return total

        return CMP_EVAL[f.op](term(f.lhs), term(f.rhs))
    if isinstance(f, And):
        out = np.ones(_grid_shape(grids), dtype=bool)
        for i in f.items:
            out &= eval_formula_grid(i, grids)
        return out
    if isinstance(f, Or):
        out = np.zeros(_grid_shape(grids), dtype=bool)
        for i in f.items:
            out |= eval_formula_grid(i, grids)
        return out
    if isinstance(f, BoolConst):
        return np.full(_grid_shape(grids), f.value, dtype=bool)
    raise TypeError(f"not a formula: {f!r}")


def _grid_shape(grids: Mapping[SsaName, np.ndarray]):
    for v in grids.values():
        return np.shape(v)
    return ()


# ---------------------------------------------------------------------------
# Exhaustive MCS oracle
# ---------------------------------------------------------------------------


class McsUsageError(Exception):
    pass


_MAX_ORACLE_SOFT = 12
_MAX_GRID_CELLS = 5_000_000


def _formulas(constraints) -> tuple:
    return tuple(c.formula for c in constraints)


def bruteforce_mcs(cs: ConstraintSet, dom: DomainConfig = DomainConfig(-4, 4)) -> set:
    """Exhaustive MCS oracle; returns the set of MCSs as id-frozensets.

    Enumerates every valuation of the domain box to decide satisfiability
    and every soft subset by increasing size.  Guarded to oracle scale
    (<= 12 soft constraints, small boxes).
    """
    if len(cs.soft) > _MAX_ORACLE_SOFT:
        raise McsUsageError(f"oracle limited to {_MAX_ORACLE_SOFT} soft constraints")
    n = len(cs.soft)
    names = sorted(set().union(*map(formula_vars, cs.hard + _formulas(cs.soft)), set()))
    width = dom.hi - dom.lo + 1
    if width ** max(len(names), 1) > _MAX_GRID_CELLS:
        raise McsUsageError("domain box too large for the exhaustive oracle")

    if names:
        axes = np.meshgrid(*([np.arange(dom.lo, dom.hi + 1)] * len(names)), indexing="ij")
        grids = {name: ax.ravel() for name, ax in zip(names, axes)}
        hard_ok = np.ones(width ** len(names), dtype=bool)
        for f in cs.hard:
            hard_ok &= eval_formula_grid(f, grids)
        packed = np.zeros(width ** len(names), dtype=np.int64)
        for i, c in enumerate(cs.soft):
            packed |= eval_formula_grid(c.formula, grids).astype(np.int64) << i
        masks = set(int(m) for m in np.unique(packed[hard_ok]))
    else:
        hard_sat = all(eval_formula(f, {}) for f in cs.hard)
        if not hard_sat:
            masks = set()
        else:
            bits = 0
            for i, c in enumerate(cs.soft):
                if eval_formula(c.formula, {}):
                    bits |= 1 << i
            masks = {bits}

    if not masks:
        return set()  # hard alone unsatisfiable: no removal can help
    full = (1 << n) - 1
    if full in masks:
        return set()  # nothing to correct
    found_bits: list[int] = []
    found: set = set()
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            bits = 0
            for i in subset:
                bits |= 1 << i
            if any(f & bits == f for f in found_bits):
                continue  # superset of an already-found MCS
            if any(mask | bits == full for mask in masks):
                found_bits.append(bits)
                found.add(frozenset(cs.soft[i].id for i in subset))
    return found


# ---------------------------------------------------------------------------
# Reference explorer
# ---------------------------------------------------------------------------


def reference_run(cfg, ce, config=None, incremental: bool = True):
    """`explorer.run` as generate-then-reject: every flip set, from the entry.

    Each combination of up to `b_cond` decisions is propagated from the
    entry and counted as unreached or overflowed when it fails.  Its
    report must equal the explorer's byte for byte, statistics included.
    """
    from faultlines.explorer import (
        DeviationUnreachedError,
        ExplorerConfig,
        OverflowAbandonedError,
        NothingToLocalizeError,
        Report,
        Statistics,
        _Backend,
        diagnose,
        input_constraints,
        path_satisfies_post,
        propagate,
    )

    config = config or ExplorerConfig()
    if not eval_formula(cfg.precondition, {SsaName(name, 0): v for name, v in ce.items}):
        raise NothingToLocalizeError("counterexample violates the precondition")
    trace0 = propagate(cfg, ce, (), config.dom)
    if path_satisfies_post(trace0, cfg):
        raise NothingToLocalizeError("counterexample does not violate the postcondition")

    stats = Statistics()
    backend = _Backend(config.dom, input_constraints(ce), incremental)
    diagnoses = [diagnose(trace0, cfg, ce, config, backend=backend)]
    stats.paths_explored += 1
    stats.mcs_enumerations += 1

    marks: dict = {}
    explored_prefixes: list = []
    b = min(config.b_cond, len(cfg.decision_order))
    for d in range(1, b + 1):
        for candidate in itertools.combinations(cfg.decision_order, d):
            try:
                trace = propagate(cfg, ce, candidate, config.dom)
            except DeviationUnreachedError:
                stats.rejected_unreached += 1
                continue
            except OverflowAbandonedError:
                stats.overflow_abandoned += 1
                continue
            last = max(i for i, s in enumerate(trace.decisions) if s.deviated)
            last_node = trace.decisions[last].node
            if marks.get(last_node, b + 1) <= d:
                stats.rejected_marked += 1
                continue
            seq = tuple((s.node, s.taken) for s in trace.decisions[: last + 1])
            if any(seq[: len(p)] == p for p in explored_prefixes):
                stats.rejected_prefix += 1
                continue
            stats.paths_explored += 1
            explored_prefixes.append(seq)
            if path_satisfies_post(trace, cfg):
                diagnoses.append(diagnose(trace, cfg, ce, config, backend=backend))
                stats.mcs_enumerations += 1
                marks.setdefault(last_node, d)
            else:
                stats.paths_ignored += 1

    totals = backend.solver.stats
    stats.solver_checks = totals["checks"]
    stats.solver_propagations = totals["propagations"]
    stats.solver_assertions = totals["assertions"]
    return Report(
        program=cfg.name,
        counterexample=ce,
        config=config,
        incremental=incremental,
        diagnoses=tuple(diagnoses),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Random constraint systems
# ---------------------------------------------------------------------------


def _loc(line=1):
    from faultlines.frontend import SourceLoc

    return SourceLoc(line, 1)


def random_linterm(rng, names, max_terms=3):
    k = rng.integers(1, min(max_terms, len(names)) + 1)
    picked = rng.choice(len(names), size=k, replace=False)
    coeffs = {}
    for idx in picked:
        c = 0
        while c == 0:
            c = int(rng.integers(-3, 4))
        coeffs[names[int(idx)]] = c
    return LinTerm.of(coeffs, int(rng.integers(-6, 7)))


def random_atom(rng, names) -> Atom:
    ops = ["==", "!=", "<", "<=", ">", ">="]
    return Atom(
        ops[int(rng.integers(0, len(ops)))],
        random_linterm(rng, names),
        random_linterm(rng, names),
    )


def random_formula(rng, names, depth=1):
    roll = rng.integers(0, 10)
    if depth <= 0 or roll < 5:
        return random_atom(rng, names)
    if roll < 7:
        return And(tuple(random_formula(rng, names, depth - 1) for _ in range(2)))
    if roll < 9:
        return Or(tuple(random_formula(rng, names, depth - 1) for _ in range(2)))
    return negate(random_formula(rng, names, depth - 1))


def random_system(rng, max_vars=4, max_soft=8, max_hard=2) -> ConstraintSet:
    n_vars = int(rng.integers(1, max_vars + 1))
    names = [SsaName(f"v{i}", 0) for i in range(n_vars)]
    n_hard = int(rng.integers(0, max_hard + 1))
    n_soft = int(rng.integers(1, max_soft + 1))
    hard = [random_formula(rng, names) for _ in range(n_hard)]
    soft = [
        Constraint(i, random_atom(rng, names), ConstraintKind.ASSIGNMENT, _loc())
        for i in range(n_soft)
    ]
    return ConstraintSet.of(hard, soft)


# ---------------------------------------------------------------------------
# Random annotated programs (source text)
# ---------------------------------------------------------------------------


def random_program(rng, max_params=3, max_depth=2) -> str:
    """A random well-typed program: all variables initialised up front."""
    n_params = int(rng.integers(1, max_params + 1))
    params = [f"p{i}" for i in range(n_params)]
    locals_ = [f"v{i}" for i in range(int(rng.integers(1, 4)))]
    visible = list(params)
    lines = []

    def expr() -> str:
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            v = visible[int(rng.integers(0, len(visible)))]
            c = int(rng.integers(-2, 3))
            if c == 0:
                c = 1
            terms.append(v if c == 1 else f"{c}*{v}" if c != -1 else f"-{v}")
        const = int(rng.integers(-3, 4))
        body = " + ".join(terms)
        return f"{body} + {const}" if const >= 0 else f"{body} - {-const}"

    def guard() -> str:
        op = ["==", "!=", "<", "<=", ">", ">="][int(rng.integers(0, 6))]
        g = f"{expr()} {op} {expr()}"
        if rng.integers(0, 4) == 0:
            op2 = ["&&", "||"][int(rng.integers(0, 2))]
            g = f"({g}) {op2} ({expr()} {['<', '>='][int(rng.integers(0, 2))]} {expr()})"
        return g

    def stmts(depth, indent) -> None:
        for _ in range(int(rng.integers(1, 4))):
            roll = int(rng.integers(0, 10))
            if roll < 6 or depth >= max_depth:
                target = visible[int(rng.integers(0, len(visible)))]
                lines.append(f"{indent}{target} = {expr()};")
            else:
                lines.append(f"{indent}if ({guard()}) {{")
                stmts(depth + 1, indent + "  ")
                if rng.integers(0, 2) == 0:
                    lines.append(f"{indent}}} else {{")
                    stmts(depth + 1, indent + "  ")
                lines.append(f"{indent}}}")

    header = ", ".join(f"int {p}" for p in params)
    lines.append("/*@ ensures \\result == 0; */")
    lines.append(f"int Rand ({header}) {{")
    for v in locals_:
        lines.append(f"  int {v} = {expr()};")
        visible.append(v)
    stmts(0, "  ")
    ret = visible[int(rng.integers(0, len(visible)))]
    lines.append(f"  return {ret};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# MCS ground-truth checks (solver-independent where it matters)
# ---------------------------------------------------------------------------


def is_correction_set(cs: ConstraintSet, ids: frozenset, dom: DomainConfig) -> bool:
    keep = list(cs.hard) + [c.formula for c in cs.soft if c.id not in ids]
    names = set().union(set(), *map(formula_vars, cs.hard + _formulas(cs.soft)))
    return exhaustive_sat(keep, dom, names) is not None


def assert_mcs_properties(cs: ConstraintSet, result, dom: DomainConfig) -> None:
    """Correction + irreducibility for every emitted MCS (exhaustive oracle)."""
    for m in result.mcs_list:
        assert is_correction_set(cs, m.ids, dom), f"not a correction set: {m}"
        for c in m.members:
            rest = m.ids - {c.id}
            assert not is_correction_set(cs, rest, dom), f"reducible: {m} minus {c}"


def solver_sat_without(cs: ConstraintSet, removed: frozenset, dom: DomainConfig) -> bool:
    """Fresh-solver satisfiability of hard + (soft minus `removed`)."""
    from faultlines.solver import UNSAT, Solver

    s = Solver(dom)
    for f in cs.hard:
        s.assert_hard(f)
    for c in cs.soft:
        if c.id not in removed:
            s.assert_hard(c.formula)
    return s.check() is not UNSAT


def assert_mcs_properties_solver(cs: ConstraintSet, result, dom: DomainConfig) -> None:
    """Correction + irreducibility via fresh solver checks (any domain size)."""
    for m in result.mcs_list:
        assert solver_sat_without(cs, m.ids, dom), f"not a correction set: {m}"
        for c in m.members:
            assert not solver_sat_without(cs, m.ids - {c.id}, dom), f"reducible: {m}"
