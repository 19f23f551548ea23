import sys

import numpy as np
import pytest

from faultlines.formulas import (
    And,
    Atom,
    Constraint,
    ConstraintKind,
    FALSE,
    LinTerm,
    Or,
    SsaName,
    eval_formula,
)
from faultlines.frontend import SourceLoc
from faultlines.solver import UNSAT, DomainConfig, Solver, SolverUsageError

from helpers import exhaustive_sat, random_formula
from reference import formula_vars

LOC = SourceLoc(1, 1)
SMALL = DomainConfig(-4, 4)


def var(name, version=0):
    return LinTerm.var(SsaName(name, version))


def const(v):
    return LinTerm.constant(v)


def eq(a, b):
    return Atom("==", a, b)


def soft(cid, formula):
    return Constraint(cid, formula, ConstraintKind.ASSIGNMENT, LOC)


# --- construction -------------------------------------------------------------


def test_default_solver():
    s = Solver()
    assert s.dom == DomainConfig(-32768, 32767)
    r = s.check()
    assert r is not UNSAT and r.model == {}


def test_degenerate_domain_forces_zero():
    s = Solver(DomainConfig(0, 0))
    s.assert_hard(Atom("<=", var("x"), const(100)))
    r = s.check()
    assert r.model == {SsaName("x", 0): 0}


def test_oracle_scale_domain():
    s = Solver(SMALL)
    s.assert_hard(Atom(">=", var("x"), const(-100)))
    r = s.check()
    assert r.model[SsaName("x", 0)] == -4


def test_invalid_domain():
    with pytest.raises(ValueError):
        DomainConfig(3, 2)


# --- push / pop ----------------------------------------------------------------


def test_push_pop_releases_constraints():
    s = Solver(SMALL)
    fid = s.push()
    s.assert_hard(eq(var("x"), const(1)))
    assert s.check().model[SsaName("x", 0)] == 1
    s.pop(fid)
    assert s.check().model == {}  # x is unconstrained (and unregistered) again


def test_nested_push_pop_lifo():
    s = Solver(SMALL)
    s.assert_hard(Atom(">=", var("x"), const(0)))
    f1 = s.push()
    s.assert_hard(Atom(">=", var("x"), const(2)))
    f2 = s.push()
    s.assert_hard(Atom(">=", var("x"), const(4)))
    assert s.check().model[SsaName("x", 0)] == 4
    s.pop(f2)
    assert s.check().model[SsaName("x", 0)] == 2
    s.pop(f1)
    assert s.check().model[SsaName("x", 0)] == 0


def test_pop_restores_sat_after_unsat():
    s = Solver(SMALL)
    s.assert_hard(eq(var("x"), const(1)))
    fid = s.push()
    s.assert_hard(eq(var("x"), const(2)))
    assert s.check() is UNSAT
    s.pop(fid)
    r = s.check()
    assert r is not UNSAT and r.model[SsaName("x", 0)] == 1


def test_pop_base_frame_errors():
    s = Solver(SMALL)
    with pytest.raises(SolverUsageError):
        s.pop()
    fid = s.push()
    s.pop(fid)
    with pytest.raises(SolverUsageError):
        s.pop(fid)


def _depth() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_check_that_raises_leaves_the_state_as_it_was():
    # the search recurses once per variable it labels: a recursion limit a
    # few frames above this one makes it raise part-way down a 60-link chain
    s = Solver(SMALL)
    for i in range(59):
        s.assert_hard(Atom("<=", var("x", i), var("x", i + 1)))
    fid = s.push()
    s.assert_hard(Atom(">=", var("x", 59), const(0)))
    # x59 = 0 is refuted before the search raises at x59 = 1
    s.assert_hard(Or((Atom(">=", var("x", 0), const(1)), Atom(">=", var("x", 59), const(1)))))
    before = (list(s.lo), list(s.hi))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 20)
    try:
        with pytest.raises(RecursionError):
            s.check()
    finally:
        sys.setrecursionlimit(limit)
    assert (s.lo, s.hi, s.trail, list(s.queue), s.learned) == (*before, [], [], [])
    s.pop(fid)
    fresh = Solver(SMALL)
    for i in range(59):
        fresh.assert_hard(Atom("<=", var("x", i), var("x", i + 1)))
    assert s.check() == fresh.check()


# --- assertions ----------------------------------------------------------------


def test_counterexample_pinning():
    s = Solver()
    s.assert_hard(eq(var("i"), const(0)))
    s.assert_hard(eq(var("j"), const(1)))
    r = s.check()
    assert r.model == {SsaName("i", 0): 0, SsaName("j", 0): 1}


def enabled(*sels):
    return LinTerm.of((sel.var, 1) for sel in sels)


def test_soft_constraint_selector():
    s = Solver(SMALL)
    sel = s.assert_soft(soft(1, eq(var("k", 1), var("k", 0) + const(2))))
    assert sel.id == 1
    fid = s.push()
    s.assert_hard(eq(enabled(sel), const(1)))
    r = s.check()
    assert r.model[SsaName("k", 1)] == r.model[SsaName("k", 0)] + 2
    assert r.disabled == frozenset()
    s.pop(fid)
    s.assert_hard(eq(enabled(sel), const(0)))
    r = s.check()
    assert r is not UNSAT and r.disabled == {1}
    s.assert_hard(eq(enabled(sel), const(1)))  # contradicts sel == 0: unsat
    assert s.check() is UNSAT


def test_assert_false_is_unsat():
    s = Solver(SMALL)
    s.assert_hard(FALSE)
    assert s.check() is UNSAT


def test_disabled_soft_constraint_is_ignored():
    s = Solver(SMALL)
    s.assert_hard(eq(var("x"), const(1)))
    sel = s.assert_soft(soft(0, eq(var("x"), const(2))))
    s.assert_hard(eq(enabled(sel), const(0)))
    r = s.check()
    assert r is not UNSAT
    assert r.disabled == {0}


# --- cardinality over selectors, as hard formulas ------------------------------------


def at_most_disabled(sels, k):
    return Atom(">=", enabled(*sels), const(len(sels) - k))


def test_at_most_zero_enforces_all():
    s = Solver(SMALL)
    sels = [
        s.assert_soft(soft(0, eq(var("x"), const(1)))),
        s.assert_soft(soft(1, eq(var("y"), const(2)))),
    ]
    s.assert_hard(at_most_disabled(sels, 0))
    r = s.check()
    assert r.disabled == frozenset()
    assert r.model[SsaName("x", 0)] == 1 and r.model[SsaName("y", 0)] == 2


def test_at_most_n_is_no_restriction():
    s = Solver(SMALL)
    sels = [
        s.assert_soft(soft(0, eq(var("x"), const(1)))),
        s.assert_soft(soft(1, eq(var("x"), const(2)))),
    ]
    s.assert_hard(at_most_disabled(sels, len(sels)))
    assert s.check() is not UNSAT


def test_deviation_set_disables_exactly_one_candidate():
    """The worked deviation system: models must drop one of two candidates."""
    dom = SMALL
    hard = [
        eq(var("i"), const(0)),
        eq(var("j"), const(1)),
        And((eq(var("k", 1), const(1)), Atom("!=", var("i"), var("j")))),
    ]
    softs = [
        soft(0, eq(var("k", 0), const(0))),
        soft(1, eq(var("k", 1), var("k", 0) + const(2))),
    ]
    # brute-force: which single removals leave a satisfiable system?
    removable = set()
    for drop in (0, 1):
        keep = hard + [c.formula for c in softs if c.id != drop]
        if exhaustive_sat(keep, dom) is not None:
            removable.add(drop)
    assert removable == {0, 1}

    s = Solver(dom)
    for h in hard:
        s.assert_hard(h)
    sels = [s.assert_soft(c) for c in softs]
    s.assert_hard(at_most_disabled(sels, 1))
    seen = set()
    while True:
        r = s.check()
        if r is UNSAT:
            break
        assert len(r.disabled) == 1
        assert set(r.disabled) <= removable
        seen.add(tuple(sorted(r.disabled)))
        s.assert_hard(
            Or(
                tuple(
                    eq(LinTerm.var(sel.var), const(1))
                    for sel in sels
                    if sel.id in r.disabled
                )
            )
        )
    assert seen == {(0,), (1,)}


# --- check ---------------------------------------------------------------------


def test_second_deviation_constraints_unsat():
    s = Solver()
    for f in (
        eq(var("i"), const(0)),
        eq(var("j"), const(1)),
        eq(var("k", 0), const(0)),
        eq(var("k", 1), var("k", 0) + const(2)),
        eq(var("k", 1), const(1)),
        Atom("!=", var("i"), var("j")),
    ):
        s.assert_hard(f)
    assert s.check() is UNSAT


def test_two_equations_unique_solution():
    dom = DomainConfig(-8, 8)
    f1 = eq(var("x") + var("y"), const(3))
    f2 = eq(var("x") - var("y"), const(1))
    # brute force over 17^2 valuations: the system has exactly one solution
    solutions = []
    for x in range(-8, 9):
        for y in range(-8, 9):
            m = {SsaName("x", 0): x, SsaName("y", 0): y}
            if eval_formula(f1, m) and eval_formula(f2, m):
                solutions.append((x, y))
    assert solutions == [(2, 1)]
    s = Solver(dom)
    s.assert_hard(f1)
    s.assert_hard(f2)
    r = s.check()
    assert r.model == {SsaName("x", 0): 2, SsaName("y", 0): 1}


def test_strict_inequalities_normalized():
    s = Solver(SMALL)
    s.assert_hard(Atom("<", var("x"), const(-3)))
    assert s.check().model[SsaName("x", 0)] == -4
    s2 = Solver(SMALL)
    s2.assert_hard(Atom(">", var("x"), const(3)))
    assert s2.check().model[SsaName("x", 0)] == 4


def test_disequality_splits_at_bound():
    s = Solver(DomainConfig(0, 1))
    s.assert_hard(Atom("!=", var("x"), const(0)))
    assert s.check().model[SsaName("x", 0)] == 1


def _ne(a, b):
    return Atom("!=", a, b)


X0, Y0 = SsaName("x", 0), SsaName("y", 0)


@pytest.mark.parametrize(
    "hard, softs, model, disabled, propagations",
    [
        ([_ne(var("x"), const(0))], [], {X0: 1}, [], 3),
        ([_ne(var("x"), const(5))], [], {X0: 0}, [], 3),
        ([_ne(var("x"), const(2))], [], {X0: 0}, [], 2),
        ([_ne(var("x").scale(3), const(0))], [], {X0: 1}, [], 3),
        ([_ne(var("x").scale(3), const(1)), Atom("<=", var("x"), const(0))], [], {X0: 0}, [], 4),
        ([_ne(var("x"), const(v)) for v in (0, 1, 2)], [], {X0: 3}, [], 9),
        ([_ne(var("x"), var("y")), eq(var("y"), const(0))], [], {X0: 1, Y0: 0}, [], 6),
        ([_ne(var("x") + var("y").scale(2), const(3))], [], {X0: 0, Y0: 0}, [], 3),
        ([_ne(var("x"), const(0)), Atom("<=", var("x"), const(0))], [], None, None, 2),
        (
            [Or((_ne(var("x"), const(0)), eq(var("y"), const(9)))), Atom("<=", var("y"), const(3))],
            [], {X0: 1, Y0: 0}, [], 7,
        ),
        ([eq(var("x"), const(0))], [_ne(var("x"), const(0))], {X0: 0}, [0], 4),
    ],
    ids=["pinch-lo", "pinch-hi", "interior", "scaled", "scaled-no-multiple", "three-values",
         "two-vars", "two-vars-free", "refuted", "in-disjunction", "soft"],
)
def test_disequality_propagation_is_pinned(hard, softs, model, disabled, propagations):
    # the propagation count shows how much `!=` prunes before search, which
    # the model alone does not
    s = Solver(DomainConfig(0, 5))
    for f in hard:
        s.assert_hard(f)
    for cid, f in enumerate(softs):
        s.assert_soft(soft(cid, f))
    r = s.check()
    if model is None:
        assert r is UNSAT
    else:
        assert (r.model, sorted(r.disabled)) == (model, disabled)
    assert s.stats["propagations"] == propagations


@pytest.mark.parametrize(
    "hard, model, propagations",
    [
        ([eq(var("x").scale(3), const(7))], None, 1),
        ([eq(var("x").scale(2) - var("y").scale(3), const(1))], {X0: -4, Y0: -3}, 5),
        ([Atom("<=", var("y").scale(2) - var("x"), const(-3))], {X0: -5, Y0: -5}, 4),
        ([eq(var("x") + var("y"), const(4)), Atom(">=", var("x") - var("y"), const(2))],
         {X0: 3, Y0: 1}, 11),
        ([eq(var("x"), var("y")), eq(var("y"), var("z")), eq(var("z"), var("x") - const(5))],
         None, 9),
        ([Or((eq(var("x"), const(3)), Atom("<=", var("y"), const(-4)))),
          Atom(">=", var("x") + var("y"), const(6))], {X0: 3, Y0: 3}, 8),
        ([eq(var("x").scale(-2), var("y")), Atom(">=", var("y"), const(3))], {X0: -2, Y0: 4}, 7),
    ],
    ids=["no-multiple", "two-vars", "upper-bound", "equation-and-bound", "cycle-refuted",
         "in-disjunction", "negative-coefficient"],
)
def test_linear_propagation_is_pinned(hard, model, propagations):
    # `==` and `<=` tighten bounds by one rule; the propagation count shows
    # how much each system prunes before search, which the model alone does not
    s = Solver(DomainConfig(-5, 5))
    for f in hard:
        s.assert_hard(f)
    r = s.check()
    assert (r if r is UNSAT else r.model) == model
    assert s.stats["propagations"] == propagations


# --- learned bounds -------------------------------------------------------------


def _state(s):
    return (list(s.names), dict(s.ids), list(s.lo), list(s.hi), list(s.is_sel), list(s.props),
            [list(w) for w in s.watchers], list(s.selectors), list(s.learned), list(s.frames),
            list(s.trail), list(s.queue))


def _learned(s):
    return [(s.names[idx], v) for idx, v in s.learned]


def _x_equals_y_or_y_plus_2(s):
    # bounds propagation leaves x in [-2, 4]: search refutes x = -2 .. 0
    s.assert_hard(eq(var("x") + var("y"), const(2)))
    s.assert_hard(Or((eq(var("x"), var("y")), eq(var("x"), var("y") + const(2)))))


def test_second_check_starts_from_the_learned_bound():
    s = Solver(SMALL)
    _x_equals_y_or_y_plus_2(s)
    assert s.check().model == {X0: 1, Y0: 1}
    assert (_learned(s), s.stats["propagations"]) == ([(X0, 1)], 12)
    s.assert_hard(_ne(var("x"), const(1)))
    assert s.check().model == {X0: 2, Y0: 0}
    assert (_learned(s), s.stats["propagations"]) == ([(X0, 1)], 12 + 8)
    fresh = Solver(SMALL)
    _x_equals_y_or_y_plus_2(fresh)
    fresh.assert_hard(_ne(var("x"), const(1)))
    assert fresh.check().model == {X0: 2, Y0: 0}
    assert (_learned(fresh), fresh.stats["propagations"]) == ([(X0, 2)], 17)


def test_a_bound_learned_in_a_frame_goes_with_it():
    s = Solver(SMALL)
    s.assert_hard(eq(var("x") + var("y"), const(2)))
    before = _state(s)
    fid = s.push()
    s.assert_hard(Or((eq(var("x"), var("y")), eq(var("x"), var("y") + const(2)))))
    assert s.check().model == {X0: 1, Y0: 1}
    assert _learned(s) == [(X0, 1)]
    s.pop(fid)
    assert _state(s) == before
    s.assert_hard(Atom("<", var("x"), const(1)))  # holds only below the bound
    assert s.check().model == {X0: -2, Y0: 4}


def test_no_bound_is_learned_on_a_selector():
    # selectors are labelled 1 before 0: an enabled first decision refutes nothing
    s = Solver(SMALL)
    s.assert_hard(eq(var("x"), const(1)))
    sel = s.assert_soft(soft(0, eq(var("x"), const(1))))
    assert s.check().disabled == frozenset()
    s.assert_hard(eq(enabled(sel), const(0)))
    assert s.check().disabled == {0}
    assert s.learned == []


def test_learned_bounds_keep_every_answer_of_a_check_sequence():
    # each step may pop or push a frame, then adds a formula and checks
    rng = np.random.default_rng(5)
    learned = 0
    for _ in range(120):
        s = Solver(SMALL)
        frames = [[]]  # the live formulas of each frame
        for f in _random_conjunction(rng, max_vars=3, max_atoms=9):
            roll = rng.random()
            if roll < 0.25 and len(frames) > 1:
                s.pop()
                frames.pop()
            elif roll < 0.5:
                s.push()
                frames.append([])
            s.assert_hard(f)
            frames[-1].append(f)
            live = [g for frame in frames for g in frame]
            got = s.check()
            learned += len(s.learned)
            assert (got is UNSAT) == (exhaustive_sat(live, SMALL) is None), live
            if got is not UNSAT:
                # a name whose coefficients cancel is never registered: any value works
                model = {n: SMALL.lo for f in live for n in formula_vars(f)}
                model.update(got.model)
                assert all(eval_formula(g, model) for g in live), live
    assert learned >= 40  # bounds were live at that many checks


# --- properties -----------------------------------------------------------------


def _random_conjunction(rng, max_vars=5, max_atoms=8):
    names = [SsaName(f"v{i}", 0) for i in range(int(rng.integers(1, max_vars + 1)))]
    return [random_formula(rng, names) for _ in range(int(rng.integers(1, max_atoms + 1)))]


def test_check_agrees_with_exhaustive_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(150):
        formulas = _random_conjunction(rng)
        s = Solver(SMALL)
        for f in formulas:
            s.assert_hard(f)
        got = s.check()
        expected = exhaustive_sat(formulas, SMALL)
        assert (got is UNSAT) == (expected is None)
        if got is not UNSAT:
            # variables whose coefficients cancel inside every atom are never
            # registered; any value works for them when re-evaluating
            names = set().union(*(formula_vars(f) for f in formulas))
            model = {n: SMALL.lo for n in names}
            model.update(got.model)
            for f in formulas:
                assert eval_formula(f, model)


def test_push_pop_purity_random_interleavings():
    rng = np.random.default_rng(3)
    for _ in range(40):
        formulas = _random_conjunction(rng, max_vars=3, max_atoms=6)
        # interleaved: half the formulas inside a pushed frame, popped and re-added
        s = Solver(SMALL)
        half = len(formulas) // 2
        for f in formulas[:half]:
            s.assert_hard(f)
        fid = s.push()
        for f in formulas[half:]:
            s.assert_hard(f)
        first = s.check()
        s.pop(fid)
        s.push()
        for f in formulas[half:]:
            s.assert_hard(f)
        second = s.check()
        # fresh solver over the same net constraint set
        fresh = Solver(SMALL)
        for f in formulas:
            fresh.assert_hard(f)
        reference = fresh.check()
        for r in (first, second):
            assert (r is UNSAT) == (reference is UNSAT)
            if r is not UNSAT:
                assert r.model == reference.model


def test_determinism_identical_assertions_identical_models():
    rng = np.random.default_rng(11)
    for _ in range(20):
        formulas = _random_conjunction(rng)

        def run():
            s = Solver(SMALL)
            for f in formulas:
                s.assert_hard(f)
            r = s.check()
            return None if r is UNSAT else (r.model, r.disabled)

        assert run() == run()


def test_statistics_monotone():
    s = Solver(SMALL)
    s.assert_hard(eq(var("x"), const(1)))
    snapshots = [dict(s.stats)]
    fid = s.push()
    s.assert_hard(eq(var("y"), var("x")))
    s.check()
    snapshots.append(dict(s.stats))
    s.pop(fid)
    s.check()
    snapshots.append(dict(s.stats))
    for a, b in zip(snapshots, snapshots[1:]):
        for key in a:
            assert b[key] >= a[key]
