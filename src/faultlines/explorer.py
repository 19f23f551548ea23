"""Counterexample-driven path exploration and per-path diagnosis.

Given a DSA-form graph and a failing input, the runner

1. refuses an input that violates the precondition or whose path
   satisfies the postcondition: it is not a counterexample;
2. propagates the counterexample to the exit, collecting the assignment
   constraints of the induced path, and diagnoses that path by MCS
   enumeration (inputs and postcondition hard, assignments soft);
3. flips up to `b_cond` decisions, level by level in lexicographic
   order over the decision order.  A flip set is only extended by a
   decision its own path reaches after its last flip, and that
   execution resumes at the new flip from a snapshot taken there.  The
   other candidates run exactly like a path already executed, so they
   are counted, not executed: as unreached when a requested decision is
   never met, or as overflowed when that path left the domain box.  An
   executed candidate is dropped without solving when its last flipped
   decision already corrected the program at an equal or lower
   deviation level (condition marking), or when it extends an explored
   flip set (prefix deduplication).  That is the same as its path, up to
   its last flip, extending an explored path up to that path's last
   flip: the same inputs taking the same branches give the same guard
   values.  A surviving candidate whose path satisfies the postcondition
   yields a diagnosis: the flipped conditions themselves, plus the MCSs
   of the constraints collected before the last flip conjoined with the
   guard value that forces the flipped branch;
4. assembles a deterministic report (diagnoses ordered by deviation
   count, then discovery; statistics include solver counters).

MCS enumerations share one incremental solver: input equalities sit in
the base frame and each path segment between decisions lives in its own
frame, so a diagnosis re-asserts only the segments its path does not
share with the previous one.  Passing ``incremental=False`` runs the
same code on a fresh solver for every enumeration; diagnoses, checks and
propagations are identical, only the assertion counter differs.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping, NamedTuple, Optional

from .cfg import ELSE, NEXT, THEN, Cfg, Decision
from .formulas import Atom, ConstraintSet, LinTerm, SsaName, eval_formula, negate
from .mcs import McsConfig, McsResult, enumerate_on
from .records import shown, validated
from .solver import DomainConfig, Solver


class ExplorerError(Exception):
    pass


class NothingToLocalizeError(ExplorerError):
    """The input violates the precondition or satisfies the postcondition."""


class DeviationUnreachedError(ExplorerError):
    def __init__(self, missing):
        super().__init__(f"deviation target(s) not on path: {sorted(missing)}")
        self.missing = frozenset(missing)


class OverflowAbandonedError(ExplorerError):
    def __init__(self, name, value, dom, visited=(), snapshots=()):
        super().__init__(f"{name} = {value} escapes the domain box [{dom.lo}, {dom.hi}]")
        self.name = name
        self.value = value
        self.visited = tuple(visited)  # decisions reached before the overflow
        self.snapshots = tuple(snapshots)  # as PathTrace.snapshots, up to the overflow


class Counterexample(NamedTuple):
    """Concrete inputs, one per function parameter, in parameter order."""

    items: tuple

    @staticmethod
    def of(mapping: Mapping, params: Iterable[str]) -> "Counterexample":
        params = tuple(params)
        missing = [p for p in params if p not in mapping]
        if missing:
            raise ExplorerError(
                f"counterexample misses parameter(s): {', '.join(map(shown, missing))}"
            )
        extra = [k for k in mapping if k not in params]
        if extra:
            raise ExplorerError(
                f"counterexample has unknown key(s): {', '.join(map(shown, extra))}"
            )
        bad = [p for p in params if type(mapping[p]) is not int]
        if bad:
            raise ExplorerError(
                f"counterexample has non-integer value(s) for {', '.join(map(shown, bad))}"
            )
        return Counterexample(tuple((p, mapping[p]) for p in params))


@validated
class ExplorerConfig(NamedTuple):
    b_cond: int = 2
    mcs: McsConfig = McsConfig()
    dom: DomainConfig = DomainConfig()

    def _validate(self) -> None:
        if self.b_cond < 0:
            raise ValueError("b_cond must be >= 0")


class DecisionStep(NamedTuple):
    node: str
    taken: str  # THEN or ELSE (the branch actually followed)
    deviated: bool


class Snapshot(NamedTuple):
    """A path's state on arrival at decision `node`, before its guard is read.

    The prefix lists belong to the path that took the snapshot and only
    grow at their ends, so their first `depth` decisions and `depth + 1`
    segments stay as they were on arrival.
    """

    node: str
    depth: int
    model: dict
    decisions: list
    segments: list


class PathTrace:
    __slots__ = ("decisions", "segments", "final_model", "snapshots")

    def __init__(self, decisions, segments, final_model: dict, snapshots=()):
        self.decisions = decisions
        # the soft constraints in path order, in len(decisions)+1 groups;
        # segments[i] precedes decision i
        self.segments = segments
        self.final_model = final_model
        self.snapshots = snapshots  # one per decision reached after the last flip, in path order


class DeviatedCondition(NamedTuple):
    node: str
    loc: object
    guard_text: str


INITIAL_PATH = "initial_path"
DEVIATION_CORRECTS = "deviation_corrects"


class Diagnosis:
    __slots__ = ("kind", "deviated", "mcs", "path", "constraints")

    def __init__(self, kind: str, deviated, mcs: McsResult, path, constraints=None):
        self.kind = kind
        self.deviated = deviated  # DeviatedCondition, in path order (>=1 for deviations)
        self.mcs = mcs
        self.path = path  # DecisionStep sequence of the diagnosed path
        self.constraints = constraints  # the ConstraintSet the MCSs were computed over


class Statistics:
    __slots__ = ("paths_explored", "paths_ignored", "rejected_marked", "rejected_prefix",
                 "rejected_unreached", "overflow_abandoned", "mcs_enumerations",
                 "solver_checks", "solver_propagations", "solver_assertions")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def rejected(self) -> int:
        return self.rejected_marked + self.rejected_prefix


class Report:
    __slots__ = ("program", "counterexample", "config", "incremental", "diagnoses", "stats")

    def __init__(self, program, counterexample, config, incremental, diagnoses, stats):
        self.program, self.counterexample, self.config = program, counterexample, config
        self.incremental, self.diagnoses, self.stats = incremental, diagnoses, stats


# ---------------------------------------------------------------------------
# Constraint templates and concrete propagation
# ---------------------------------------------------------------------------


def input_constraints(ce: Counterexample) -> tuple:
    """The hard equalities `name_0 = value`, in parameter order."""
    return tuple(
        Atom("==", LinTerm.var(SsaName(name, 0)), LinTerm.constant(value))
        for name, value in ce.items
    )


def propagate(
    cfg: Cfg,
    ce: Counterexample,
    deviations: Iterable[str] = (),
    dom: DomainConfig = DomainConfig(),
    *,
    resume: Optional[Snapshot] = None,
) -> PathTrace:
    """Concrete forward execution, flipping the decisions in `deviations`.

    With `resume`, execution starts at that snapshot's decision instead of
    the entry; the snapshot must come from a path that flips the other
    `deviations` and reaches it.

    Raises DeviationUnreachedError when a requested decision is not on
    the resulting path and OverflowAbandonedError when a computed value
    escapes the domain box.
    """
    deviations = frozenset(deviations)
    if resume is None:
        for name, value in ce.items:
            if not dom.lo <= value <= dom.hi:
                raise OverflowAbandonedError(name, value, dom)
        model = {SsaName(name, 0): value for name, value in ce.items}
        decisions: list = []
        segments: list = [[]]
        nid = cfg.entry
    else:
        model = dict(resume.model)
        decisions = resume.decisions[: resume.depth]
        # the shared groups are complete: a new one opens at this decision
        segments = resume.segments[: resume.depth + 1]
        nid = resume.node
    snapshots: list = []
    while nid != cfg.exit:
        node = cfg.nodes[nid]
        if isinstance(node, Decision):
            deviated = nid in deviations
            if deviated:
                snapshots.clear()
            else:
                snapshots.append(
                    Snapshot(nid, len(decisions), dict(model), decisions, segments)
                )
            value = eval_formula(node.guard, model)
            taken = THEN if value else ELSE
            if deviated:
                taken = ELSE if taken == THEN else THEN
            decisions.append(DecisionStep(nid, taken, deviated))
            segments.append([])
            nid = cfg.edges[nid][taken]
            continue
        for a in node.assignments:
            value = a.rhs.eval(model)
            if not dom.lo <= value <= dom.hi:
                visited = (s.node for s in decisions)
                raise OverflowAbandonedError(a.target, value, dom, visited, snapshots)
            model[a.target] = value
            segments[-1].append(a.constraint)
        nid = cfg.edges[nid][NEXT]
    missing = deviations - {s.node for s in decisions}
    if missing:
        raise DeviationUnreachedError(missing)
    return PathTrace(
        decisions=tuple(decisions),
        segments=tuple(tuple(seg) for seg in segments),
        final_model=model,
        snapshots=tuple(snapshots),
    )


def path_satisfies_post(trace: PathTrace, cfg: Cfg) -> bool:
    """Inputs fully determine the path, so concrete evaluation decides it."""
    return eval_formula(cfg.postcondition, trace.final_model)


# ---------------------------------------------------------------------------
# Diagnosis backend
# ---------------------------------------------------------------------------


class _Backend:
    """MCS enumerations on one solver whose frames follow the path.

    Inputs and the segment before the first decision sit in the base
    frame, and frame i + 1 holds the segment after decision step i, so an
    enumeration pops the frames its path does not share with the previous
    one and pushes only its own.  Without `incremental`, each enumeration
    starts over on a new solver that carries on the old one's counters.
    """

    def __init__(self, dom: DomainConfig, inputs: tuple, incremental: bool = True):
        self.dom = dom
        self.inputs = inputs  # the input equalities, hard formulas
        self.incremental = incremental
        self.solver: Optional[Solver] = None
        self.frame_keys: list = []  # the decision step that opens each frame

    def enumerate_for(self, keys, segments, extra_hard, config: McsConfig) -> McsResult:
        """Run one MCS enumeration for a path prefix.

        keys: ((node, taken), ...) decision steps delimiting the segments.
        segments: len(keys)+1 groups of soft constraints in path order.
        extra_hard: formulas (the postcondition or a deviation's guard
        value) that are hard only for this diagnosis.
        """
        if self.solver is None or not self.incremental:
            solver = Solver(self.dom)
            if self.solver is not None:
                solver.stats = self.solver.stats
            for f in self.inputs:
                solver.assert_hard(f)
            for c in segments[0]:
                solver.assert_soft(c)
            self.solver, self.frame_keys = solver, []
        solver = self.solver
        shared = 0
        common = min(len(self.frame_keys), len(keys))
        while shared < common and self.frame_keys[shared] == keys[shared]:
            shared += 1
        if shared < len(self.frame_keys):
            solver.pop(shared + 1)
            del self.frame_keys[shared:]
        for key, segment in zip(keys[shared:], segments[shared + 1 :]):
            solver.push()
            self.frame_keys.append(key)
            for c in segment:
                solver.assert_soft(c)
        fid = solver.push()
        for f in extra_hard:
            solver.assert_hard(f)
        result = enumerate_on(solver, tuple(solver.selectors), config)
        solver.pop(fid)
        return result


# ---------------------------------------------------------------------------
# Diagnoses
# ---------------------------------------------------------------------------


def _deviated_conditions(cfg: Cfg, trace: PathTrace) -> tuple:
    out = []
    for step in trace.decisions:
        if step.deviated:
            node = cfg.nodes[step.node]
            out.append(DeviatedCondition(step.node, node.loc, str(node.guard)))
    return tuple(out)


def diagnose(
    trace: PathTrace,
    cfg: Cfg,
    ce: Counterexample,
    config: ExplorerConfig,
    *,
    backend: Optional[_Backend] = None,
) -> Diagnosis:
    """Diagnose `trace` on `backend`, or on a fresh solver.

    A trace without deviation is diagnosed over its whole path against
    the postcondition; a corrected deviated trace over the path before
    its last flip, against the guard value that forces that flip.
    """
    backend = backend or _Backend(config.dom, input_constraints(ce))
    flips = [i for i, s in enumerate(trace.decisions) if s.deviated]
    if flips:
        kind, last = DEVIATION_CORRECTS, flips[-1]
        # the guard value that forces execution down the flipped branch
        step = trace.decisions[last]
        guard = cfg.nodes[step.node].guard
        extra = guard if step.taken == THEN else negate(guard)
    else:
        kind, last = INITIAL_PATH, len(trace.decisions)
        extra = cfg.postcondition
    keys = tuple((s.node, s.taken) for s in trace.decisions[:last])
    segments = trace.segments[: last + 1]
    result = backend.enumerate_for(keys, segments, (extra,), config.mcs)
    cs = ConstraintSet.of(backend.inputs + (extra,), [c for seg in segments for c in seg])
    return Diagnosis(kind, _deviated_conditions(cfg, trace), result, trace.decisions, cs)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def _skipped(n: int, b: int, flips: int, reached: int, own: bool) -> int:
    """How many flip sets a path decides without executing them.

    A set of at most `b` of the `n` decisions that adds to the path's
    `flips` only decisions outside the `reached` ones runs exactly like
    the path: it is unreached, or overflows where the path did.  `own`
    counts the path's own flip set as well.
    """
    first = flips if own else flips + 1
    return sum(comb(n - reached, d - flips) for d in range(first, b + 1))


def run(
    cfg: Cfg,
    ce: Counterexample,
    config: ExplorerConfig = ExplorerConfig(),
    incremental: bool = True,
) -> Report:
    """Full localization run; see the module docstring for the algorithm."""
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

    n = len(cfg.decision_order)
    b = min(config.b_cond, n)
    stats.rejected_unreached += _skipped(n, b, 0, len(trace0.decisions), own=False)
    marks: dict = {}
    # (flip set, snapshots after its last flip, whether it or a flip set
    # it extends was explored); decisions are numbered depth-first, so a
    # path meets them in decision order and the flip sets of each level
    # come out in lexicographic order
    frontier = [((), trace0.snapshots, False)]
    for d in range(1, b + 1):
        children = []
        for flips, snapshots, extends_explored in frontier:
            for snap in snapshots:
                candidate = flips + (snap.node,)
                try:
                    trace = propagate(cfg, ce, candidate, config.dom, resume=snap)
                except OverflowAbandonedError as e:
                    stats.overflow_abandoned += _skipped(n, b, d, len(e.visited), own=True)
                    children.append((candidate, e.snapshots, extends_explored))
                    continue
                stats.rejected_unreached += _skipped(n, b, d, len(trace.decisions), own=False)
                if marks.get(snap.node, b + 1) <= d:
                    stats.rejected_marked += 1
                    children.append((candidate, trace.snapshots, extends_explored))
                    continue
                children.append((candidate, trace.snapshots, True))
                if extends_explored:
                    stats.rejected_prefix += 1
                    continue
                stats.paths_explored += 1
                if path_satisfies_post(trace, cfg):
                    diagnoses.append(diagnose(trace, cfg, ce, config, backend=backend))
                    stats.mcs_enumerations += 1
                    marks.setdefault(snap.node, d)
                else:
                    stats.paths_ignored += 1
        frontier = children

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
