"""Bounded enumeration of Minimal Correction Sets over hard/soft constraints.

A correction set is a set of soft constraints whose removal makes the
hard constraints plus the remaining soft ones satisfiable; an MCS is an
irreducible one.  Every condition on the soft constraints' 0/1
selectors, the blocking clauses included, is a hard linear bound on a
sum of selectors.  Enumeration checks the hard constraints alone
(`enabled == 0`, where `enabled` sums every selector), then for
k = 0, 1, ... asserts "at most k disabled" (`enabled >= n - k`) and
repeatedly asks the solver for models.  Level 0 is the satisfiability
check: a model there means nothing to correct.  At k >= 1 each model's
disabled set is a new MCS (smaller MCSs were exhausted at earlier k, and
per found MCS a blocking clause, its members' selectors summing to at
least 1, excludes duplicates and supersets).  Each cardinality level is
exhausted before results are ordered and the `b_mcs` cut is applied, so
the documented tie-break is independent of solver search order: it
compares the members' positions in the selector list, which follows the
path, latest first.
"""

from __future__ import annotations

from typing import NamedTuple

from .formulas import Atom, ConstraintSet, LinTerm
from .records import validated
from .solver import UNSAT, DomainConfig, Solver


@validated
class McsConfig(NamedTuple):
    b_mcs: int = 3  # maximum number of MCSs returned
    k_max: int = 2  # maximum MCS cardinality

    def _validate(self) -> None:
        if self.b_mcs < 1 or self.k_max < 1:
            raise ValueError("b_mcs and k_max must be >= 1")


class Mcs(NamedTuple):
    """An irreducible correction set; members ordered latest-on-path first."""

    members: tuple  # Constraint, latest selector first

    @property
    def ids(self) -> frozenset:
        return frozenset(c.id for c in self.members)

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        inner = ", ".join(c.render() for c in self.members)
        return f"{{{inner}}}"


# enumeration outcome flags
OK = "ok"
ALREADY_SAT = "already_sat"  # hard + soft satisfiable: nothing to correct
HARD_UNSAT = "hard_unsat"  # hard alone unsatisfiable: no removal helps


class McsResult:
    __slots__ = ("mcs_list", "flag")

    def __init__(self, mcs_list: tuple, flag: str):
        self.mcs_list, self.flag = mcs_list, flag

    def __iter__(self):
        return iter(self.mcs_list)

    def __len__(self) -> int:
        return len(self.mcs_list)

    def id_sets(self) -> set:
        return {m.ids for m in self.mcs_list}


def enumerate_on(solver: Solver, sels, config: McsConfig) -> McsResult:
    """Core enumeration over a solver whose hard/soft state is asserted.

    `sels` are the selectors of the soft constraints, in path order.  An
    MCS lists its members latest first, and a level lists its MCSs by
    their members' positions in `sels`, compared latest first.  Frames
    pushed here are popped before returning, so the caller's assertion
    stack is preserved.
    """
    position = {sel.id: i for i, sel in enumerate(sels)}
    enabled = LinTerm.of((sel.var, 1) for sel in sels)

    fid = solver.push()
    solver.assert_hard(Atom("==", enabled, LinTerm.constant(0)))
    hard_only = solver.check()
    solver.pop(fid)
    if hard_only is UNSAT:
        return McsResult((), HARD_UNSAT)

    found: list[Mcs] = []
    blocks: list = []
    for k in range(min(config.k_max, len(sels)) + 1):
        fid = solver.push()
        solver.assert_hard(Atom(">=", enabled, LinTerm.constant(len(sels) - k)))
        for b in blocks:
            solver.assert_hard(b)
        level: list = []  # each MCS as its members' positions, latest first
        while True:
            r = solver.check()
            if r is UNSAT:
                break
            if k == 0:  # hard plus every soft constraint holds
                solver.pop(fid)
                return McsResult((), ALREADY_SAT)
            level.append(sorted((position[i] for i in r.disabled), reverse=True))
            members = LinTerm.of((sel.var, 1) for sel in sels if sel.id in r.disabled)
            block = Atom(">=", members, LinTerm.constant(1))
            solver.assert_hard(block)
            blocks.append(block)
        solver.pop(fid)
        level.sort(reverse=True)
        found.extend(Mcs(tuple(sels[p].constraint for p in mcs)) for mcs in level)
        if len(found) >= config.b_mcs:
            del found[config.b_mcs :]
            break
    return McsResult(tuple(found), OK)


def enumerate_mcs(
    cs: ConstraintSet, config: McsConfig = McsConfig(), dom: DomainConfig = DomainConfig()
) -> McsResult:
    """Enumerate up to `b_mcs` MCSs of size <= `k_max` for a constraint set.

    Output is ordered by (cardinality ascending, then latest in `cs.soft`
    first).  Instead of erroring on violated preconditions the result is
    flagged: `already_sat` when hard + soft is satisfiable, `hard_unsat`
    when the hard constraints alone are not.
    """
    solver = Solver(dom)
    for c in cs.hard:
        solver.assert_hard(c.formula)
    return enumerate_on(solver, [solver.assert_soft(c) for c in cs.soft], config)
