import numpy as np
import pytest

from faultlines.formulas import (
    And,
    Atom,
    Constraint,
    ConstraintKind,
    ConstraintSet,
    LinTerm,
    Or,
    SsaName,
)
from faultlines.frontend import SourceLoc
from faultlines.mcs import ALREADY_SAT, HARD_UNSAT, OK, McsConfig, enumerate_mcs, enumerate_on
from faultlines.solver import DomainConfig, Solver

from helpers import assert_mcs_properties, bruteforce_mcs, exhaustive_sat, random_system

I0, J0 = SsaName("i", 0), SsaName("j", 0)
K0, K1 = SsaName("k", 0), SsaName("k", 1)
R1 = SsaName("r", 1)


def var(n):
    return LinTerm.var(n)


def const(v):
    return LinTerm.constant(v)


def _c(cid, formula, kind, line=1):
    return Constraint(cid, formula, kind, SourceLoc(line, 1))


def absminus_postcondition():
    # ((i < j) ==> (r = j - i)) && ((i >= j) ==> (r = i - j)), implies eliminated
    return And(
        (
            Or((Atom(">=", var(I0), var(J0)), Atom("==", var(R1), var(J0) - var(I0)))),
            Or((Atom("<", var(I0), var(J0)), Atom("==", var(R1), var(I0) - var(J0)))),
        )
    )


def c1_system() -> ConstraintSet:
    hard = [
        Atom("==", var(I0), const(0)),
        Atom("==", var(J0), const(1)),
        absminus_postcondition(),
    ]
    soft = [
        _c(0, Atom("==", var(K0), const(0)), ConstraintKind.ASSIGNMENT, 8),
        _c(1, Atom("==", var(K1), var(K0) + const(2)), ConstraintKind.ASSIGNMENT, 10),
        _c(2, Atom("==", var(R1), var(I0) - var(J0)), ConstraintKind.ASSIGNMENT, 14),
    ]
    return ConstraintSet.of(hard, soft)


def c2_system() -> ConstraintSet:
    hard = [
        Atom("==", var(I0), const(0)),
        Atom("==", var(J0), const(1)),
        And((Atom("==", var(K1), const(1)), Atom("!=", var(I0), var(J0)))),
    ]
    soft = [
        _c(0, Atom("==", var(K0), const(0)), ConstraintKind.ASSIGNMENT, 8),
        _c(1, Atom("==", var(K1), var(K0) + const(2)), ConstraintKind.ASSIGNMENT, 10),
    ]
    return ConstraintSet.of(hard, soft)


# --- the worked example -----------------------------------------------------------


def test_c1_has_exactly_one_mcs():
    result = enumerate_mcs(c1_system(), McsConfig(b_mcs=3, k_max=2))
    assert result.flag == "ok"
    assert [m.ids for m in result.mcs_list] == [frozenset({2})]
    assert result.mcs_list[0].members[0].loc.line == 14


def test_c1_agrees_with_bruteforce():
    assert bruteforce_mcs(c1_system(), DomainConfig(-8, 8)) == {frozenset({2})}


def test_c2_single_mcs_is_latest_on_path():
    result = enumerate_mcs(c2_system(), McsConfig(b_mcs=1, k_max=2))
    assert [m.ids for m in result.mcs_list] == [frozenset({1})]
    assert result.mcs_list[0].members[0].loc.line == 10


def test_c2_with_budget_two_reports_both_singletons():
    # brute force confirms both singletons are correction sets
    oracle = bruteforce_mcs(c2_system(), DomainConfig(-8, 8))
    assert oracle == {frozenset({1}), frozenset({0})}
    result = enumerate_mcs(c2_system(), McsConfig(b_mcs=2, k_max=2))
    assert [m.ids for m in result.mcs_list] == [frozenset({1}), frozenset({0})]


# --- the brute-force oracle ---------------------------------------------------------


def test_bruteforce_satisfiable_soft_set_is_empty():
    cs = ConstraintSet.of(
        [],
        [
            _c(0, Atom("==", var(K0), const(0)), ConstraintKind.ASSIGNMENT),
            _c(1, Atom("<=", var(K0), const(3)), ConstraintKind.ASSIGNMENT),
        ],
    )
    assert bruteforce_mcs(cs, DomainConfig(-4, 4)) == set()
    assert enumerate_mcs(cs).flag == ALREADY_SAT


def test_bruteforce_two_independent_contradictions():
    x, y = SsaName("x", 0), SsaName("y", 0)
    cs = ConstraintSet.of(
        [],
        [
            _c(0, Atom("==", var(x), const(1)), ConstraintKind.ASSIGNMENT),
            _c(1, Atom("==", var(x), const(2)), ConstraintKind.ASSIGNMENT),
            _c(2, Atom("==", var(y), const(1)), ConstraintKind.ASSIGNMENT),
            _c(3, Atom("==", var(y), const(2)), ConstraintKind.ASSIGNMENT),
        ],
    )
    # every MCS must break both contradictions: one x-atom plus one y-atom
    expected = {
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    }
    assert bruteforce_mcs(cs, DomainConfig(-4, 4)) == expected
    result = enumerate_mcs(cs, McsConfig(b_mcs=10, k_max=4), DomainConfig(-4, 4))
    assert result.id_sets() == expected


def test_bruteforce_size_guard():
    import pytest

    from helpers import McsUsageError

    soft = [
        _c(i, Atom("==", var(K0), const(i)), ConstraintKind.ASSIGNMENT) for i in range(13)
    ]
    with pytest.raises(McsUsageError):
        bruteforce_mcs(ConstraintSet.of([], soft), DomainConfig(-4, 4))


# --- flags ---------------------------------------------------------------------------


def test_hard_unsat_flag():
    hard = [
        Atom("==", var(I0), const(0)),
        Atom("==", var(I0), const(1)),
    ]
    soft = [_c(0, Atom("==", var(K0), const(0)), ConstraintKind.ASSIGNMENT)]
    result = enumerate_mcs(ConstraintSet.of(hard, soft))
    assert result.flag == HARD_UNSAT
    assert len(result) == 0


def test_flag_matches_exhaustive_satisfiability_random_systems():
    # the MCS oracle returns set() for all three outcomes, so the flag's
    # precedence is checked on its own: hard_unsat before already_sat
    rng = np.random.default_rng(17)
    dom = DomainConfig(-4, 4)
    seen = set()
    for _ in range(120):
        cs = random_system(rng, max_vars=3, max_soft=6, max_hard=3)
        hard = list(cs.hard)
        if exhaustive_sat(hard, dom) is None:
            expected = HARD_UNSAT
        elif exhaustive_sat(hard + [c.formula for c in cs.soft], dom) is not None:
            expected = ALREADY_SAT
        else:
            expected = OK
        result = enumerate_mcs(cs, McsConfig(b_mcs=2, k_max=1), dom)
        assert result.flag == expected
        if expected != OK:
            assert len(result) == 0
        seen.add(expected)
    assert seen == {OK, ALREADY_SAT, HARD_UNSAT}


# --- ordering and bounds ---------------------------------------------------------


def test_results_sorted_by_cardinality_then_latest_first():
    x, y = SsaName("x", 0), SsaName("y", 0)
    # every correction set must drop the hard x-conflict plus one y-atom,
    # so both MCSs have size 2 and only the tie-break orders them
    hard = [Atom("==", var(x), const(0))]
    soft = [
        _c(0, Atom("==", var(x), const(1)), ConstraintKind.ASSIGNMENT),
        _c(1, Atom("==", var(y), const(1)), ConstraintKind.ASSIGNMENT),
        _c(2, Atom("==", var(y), const(2)), ConstraintKind.ASSIGNMENT),
    ]
    cs = ConstraintSet.of(hard, soft)
    result = enumerate_mcs(cs, McsConfig(b_mcs=10, k_max=3), DomainConfig(-4, 4))
    cards = [m.cardinality for m in result.mcs_list]
    assert cards == sorted(cards) == [2, 2]
    assert result.id_sets() == bruteforce_mcs(cs, DomainConfig(-4, 4)) == {
        frozenset({0, 1}),
        frozenset({0, 2}),
    }
    # latest-on-path first: {0,2} carries the later member
    assert result.mcs_list[0].ids == frozenset({0, 2})
    assert_mcs_properties(cs, result, DomainConfig(-4, 4))


def test_equal_size_mcs_come_latest_in_soft_list_first():
    x, y = SsaName("x", 0), SsaName("y", 0)
    hard = [Atom("==", var(x), const(0))]
    soft = [
        _c(0, Atom("==", var(y), const(1)), ConstraintKind.ASSIGNMENT),
        _c(1, Atom("==", var(x), var(y)), ConstraintKind.ASSIGNMENT),
    ]
    cs = ConstraintSet.of(hard, soft)
    dom = DomainConfig(-8, 8)
    result = enumerate_mcs(cs, McsConfig(b_mcs=3, k_max=1), dom)
    assert [m.ids for m in result.mcs_list] == [frozenset({1}), frozenset({0})]
    result = enumerate_mcs(cs, McsConfig(b_mcs=1, k_max=1), dom)
    assert [m.ids for m in result.mcs_list] == [frozenset({1})]


def test_b_mcs_truncates():
    result = enumerate_mcs(c2_system(), McsConfig(b_mcs=1, k_max=2))
    assert len(result.mcs_list) == 1


def test_k_max_limits_cardinality():
    x, y = SsaName("x", 0), SsaName("y", 0)
    hard = [
        Atom("==", var(x), const(0)),
        Atom("==", var(y), const(0)),
    ]
    soft = [
        _c(0, Atom("==", var(x), const(1)), ConstraintKind.ASSIGNMENT),
        _c(1, Atom("==", var(y), const(1)), ConstraintKind.ASSIGNMENT),
    ]
    # the only MCS is {0, 1}, so k_max = 1 finds nothing
    cs = ConstraintSet.of(hard, soft)
    assert enumerate_mcs(cs, McsConfig(b_mcs=5, k_max=1), DomainConfig(-4, 4)).mcs_list == ()
    full = enumerate_mcs(cs, McsConfig(b_mcs=5, k_max=2), DomainConfig(-4, 4))
    assert full.id_sets() == {frozenset({0, 1})}


@pytest.mark.parametrize(
    "config, ids, stats",
    [
        (McsConfig(10, 3), [[2, 3], [1, 3], [0, 3]], (8, 176, 17)),
        (McsConfig(2, 2), [[2, 3], [1, 3]], (7, 157, 13)),
    ],
    ids=["three-mcs", "budget-two"],
)
def test_enumerate_on_with_blocking_clauses_is_pinned(config, ids, stats):
    # x3 = x0 + 3 along the chain and x3 = 2*x0 both break under x0 = 1,
    # x3 = 0: each cardinality-2 MCS pairs {3} with one chain link, and every
    # model after the first must pass the blocking clauses of those before
    x = [SsaName("x", i) for i in range(4)]
    s = Solver(DomainConfig(-5, 5))
    s.assert_hard(Atom("==", var(x[0]), const(1)))
    s.assert_hard(Atom("==", var(x[3]), const(0)))
    softs = [
        Atom("==", var(x[1]), var(x[0]) + const(1)),
        Atom("==", var(x[2]), var(x[1]) + const(1)),
        Atom("==", var(x[3]), var(x[2]) + const(1)),
        Atom("==", var(x[3]), var(x[0]).scale(2)),
    ]
    sels = [s.assert_soft(_c(i, f, ConstraintKind.ASSIGNMENT)) for i, f in enumerate(softs)]
    result = enumerate_on(s, sels, config)
    assert result.flag == OK
    assert [sorted(m.ids) for m in result] == ids
    assert (s.stats["checks"], s.stats["propagations"], s.stats["assertions"]) == stats


# --- oracle equivalence and invariants on random systems -----------------------------


def test_oracle_equivalence_random_systems():
    rng = np.random.default_rng(99)
    dom = DomainConfig(-4, 4)
    for _ in range(80):
        cs = random_system(rng, max_vars=4, max_soft=6)
        config = McsConfig(b_mcs=10**9, k_max=len(cs.soft))
        result = enumerate_mcs(cs, config, dom)
        assert result.id_sets() == bruteforce_mcs(cs, dom)
        assert_mcs_properties(cs, result, dom)
        cards = [m.cardinality for m in result.mcs_list]
        assert cards == sorted(cards)
