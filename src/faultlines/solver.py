"""Incremental finite-domain solver for conjunctions of linear formulas.

The engine decides conjunctions of :class:`~faultlines.formulas.Formula`
over bounded integer variables.  It combines bounds-consistency interval
propagation with depth-first search that labels one variable at a time
(first-fail variable choice, smallest value first).  Every linear atom
compiles to one interval node `lo <= sum(c*x) <= hi`, with no lower
bound for `<`, `<=`, `>` and `>=`, and `d != 0` to the disjunction
`d < 0 || d > 0`.  A disjunction prunes only once all but one of its
disjuncts are false.  Complete on finite boxes.

Every asserted formula becomes one propagator: its compiled node, the
variables it watches and an optional selector.  Without a selector the
constraint is hard and enforced outright; with one it is reified: an
enabled selector enforces it, and a box where it cannot hold disables
the selector.

Incrementality: assertions live on a frame stack.  :meth:`Solver.push`
opens a frame and :meth:`Solver.pop` restores the exact pre-push state
(constraints, selectors, registered variables; domains change only
inside :meth:`Solver.check`, which restores them); statistics only
ever grow.  Soft constraints are guarded by 0/1 selector variables, which
callers constrain with ordinary formulas through :meth:`Solver.assert_hard`;
unfixed selectors are decision variables searched after the integers.

A Solver instance must be used from one thread at a time; independent
instances are fully isolated.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

from .formulas import (
    And,
    Atom,
    BoolConst,
    Constraint,
    Formula,
    LinTerm,
    Or,
    SsaName,
)
from .records import validated

SELECTOR_BASE = "_sel"


class SolverUsageError(Exception):
    pass


@validated
class DomainConfig(NamedTuple):
    """Inclusive bounds applied to every integer variable."""

    lo: int = -32768
    hi: int = 32767

    def _validate(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty domain [{self.lo}, {self.hi}]")


class Selector(NamedTuple):
    """0/1 guard variable tied one-to-one to a soft constraint id."""

    id: int
    var: SsaName
    constraint: Constraint


class Sat(NamedTuple):
    """A satisfying assignment plus the selectors it left disabled."""

    model: dict
    disabled: frozenset  # selector ids whose guard variable is 0


UNSAT = None  # check() returns None when no model exists in the box


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# Compiled formula nodes: ('lin', idxs, coefs, lo, hi) meaning
# lo <= sum(coefs*x) <= hi, with lo None when the sum has no lower bound,
# or ('and', nodes) / ('or', nodes).
_FALSE = ("lin", (), (), None, -1)


class _Prop:
    """A compiled constraint, hard when `sel` is None, else reified on it."""

    __slots__ = ("sel", "node", "watch_idxs", "queued")

    def __init__(self, sel, node, watch_idxs):
        self.sel = sel
        self.node = node
        self.watch_idxs = tuple(watch_idxs)
        self.queued = False


class Solver:
    """One handle over an assertion stack; see the module docstring."""

    def __init__(self, dom: DomainConfig = DomainConfig()):
        self.dom = dom
        self.names: list = []  # idx -> SsaName
        self.ids: dict = {}  # SsaName -> idx
        self.lo: list = []
        self.hi: list = []
        self.is_sel: list = []
        self.props: list = []
        self.watchers: list = []  # idx -> props that watch it
        self.selectors: list = []
        self.trail: list = []  # (idx, is_hi, old value)
        self.frames: list = []
        self.queue: deque = deque()
        self.stats = {"checks": 0, "propagations": 0, "assertions": 0}

    # -- variables ----------------------------------------------------------

    def _register(self, name: SsaName) -> int:
        idx = self.ids.get(name)
        if idx is not None:
            return idx
        idx = len(self.names)
        self.names.append(name)
        self.ids[name] = idx
        if name.base == SELECTOR_BASE:
            self.lo.append(0)
            self.hi.append(1)
            self.is_sel.append(True)
        else:
            self.lo.append(self.dom.lo)
            self.hi.append(self.dom.hi)
            self.is_sel.append(False)
        self.watchers.append([])
        return idx

    # -- frames ---------------------------------------------------------------

    def push(self) -> int:
        self.frames.append((len(self.props), len(self.names), len(self.selectors)))
        return len(self.frames)

    def pop(self, frame_id: Optional[int] = None) -> None:
        if not self.frames:
            raise SolverUsageError("pop on base frame")
        if frame_id is None:
            frame_id = len(self.frames)
        if not 1 <= frame_id <= len(self.frames):
            raise SolverUsageError(f"pop targets dead frame {frame_id}")
        props_len, vars_len, sels_len = self.frames[frame_id - 1]
        del self.frames[frame_id - 1 :]
        for p in reversed(self.props[props_len:]):
            for v in p.watch_idxs:
                top = self.watchers[v].pop()
                assert top is p
        del self.props[props_len:]
        del self.selectors[sels_len:]
        for name in self.names[vars_len:]:
            del self.ids[name]
        for column in (self.names, self.lo, self.hi, self.is_sel, self.watchers):
            del column[vars_len:]

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            idx, is_hi, old = self.trail.pop()
            if is_hi:
                self.hi[idx] = old
            else:
                self.lo[idx] = old

    # -- assertions -----------------------------------------------------------

    def assert_hard(self, f: Formula) -> None:
        self.stats["assertions"] += 1
        for conjunct in self._conjuncts(f):
            node, idxs = self._compile(conjunct)
            if node is not True:
                self._install(None, node, sorted(set(idxs)))

    def assert_soft(self, c: Constraint) -> Selector:
        self.stats["assertions"] += 1
        sel_var = SsaName(SELECTOR_BASE, c.id)
        sel_idx = self._register(sel_var)
        node, idxs = self._compile(c.formula)
        if node is True:
            node = ("lin", (), (), None, 0)  # trivially satisfied
        self._install(sel_idx, node, sorted(set(idxs) | {sel_idx}))
        sel = Selector(c.id, sel_var, c)
        self.selectors.append(sel)
        return sel

    def _conjuncts(self, f: Formula):
        if isinstance(f, And):
            for i in f.items:
                yield from self._conjuncts(i)
        else:
            yield f

    def _install(self, sel: Optional[int], node, watch_idxs) -> None:
        prop = _Prop(sel, _FALSE if node is False else node, watch_idxs)
        self.props.append(prop)
        for v in prop.watch_idxs:
            self.watchers[v].append(prop)

    def _compile(self, f: Formula):
        """Formula -> (node, watched idxs); True/False for constants."""
        if isinstance(f, BoolConst):
            return f.value, []
        if isinstance(f, Atom):
            diff = f.lhs - f.rhs
            op = f.op
            if op == "!=":
                zero = LinTerm.constant(0)
                return self._compile(Or((Atom("<", diff, zero), Atom(">", diff, zero))))
            if op in (">", ">="):
                diff = -diff
            # sum(c*x) <= -const, or < -const as <= -const - 1 on integers
            hi = -diff.const - 1 if op in ("<", ">") else -diff.const
            lo = hi if op == "==" else None
            idxs = tuple(self._register(n) for n, _ in diff.coeffs)
            coefs = tuple(c for _, c in diff.coeffs)
            if not idxs:
                return (lo is None or lo <= 0) and 0 <= hi, []
            return ("lin", idxs, coefs, lo, hi), list(idxs)
        if isinstance(f, (And, Or)):
            nodes, idxs = [], []
            for item in f.items:
                node, sub = self._compile(item)
                if node is True:
                    if isinstance(f, Or):
                        return True, []
                    continue
                if node is False:
                    if isinstance(f, And):
                        return False, []
                    continue
                nodes.append(node)
                idxs.extend(sub)
            if not nodes:
                return (isinstance(f, And)), []
            if len(nodes) == 1:
                return nodes[0], idxs
            return ("and" if isinstance(f, And) else "or", tuple(nodes)), idxs
        raise TypeError(f"not a formula: {f!r}")

    # -- propagation ------------------------------------------------------------

    def _touch(self, idx: int) -> None:
        for p in self.watchers[idx]:
            if not p.queued:
                p.queued = True
                self.queue.append(p)

    def _set_lo(self, idx: int, v: int) -> bool:
        if v > self.lo[idx]:
            self.trail.append((idx, False, self.lo[idx]))
            self.lo[idx] = v
            if v > self.hi[idx]:
                return False
            self._touch(idx)
        return True

    def _set_hi(self, idx: int, v: int) -> bool:
        if v < self.hi[idx]:
            self.trail.append((idx, True, self.hi[idx]))
            self.hi[idx] = v
            if v < self.lo[idx]:
                return False
            self._touch(idx)
        return True

    def _lin_bounds(self, idxs, coefs):
        mn = mx = 0
        lo, hi = self.lo, self.hi
        for i, c in zip(idxs, coefs):
            if c > 0:
                mn += c * lo[i]
                mx += c * hi[i]
            else:
                mn += c * hi[i]
                mx += c * lo[i]
        return mn, mx

    def _status(self, node):
        """True if the node holds for every point of the current box,
        False if for none, None otherwise."""
        kind = node[0]
        if kind == "lin":
            _, idxs, coefs, lo, hi = node
            mn, mx = self._lin_bounds(idxs, coefs)
            if mn > hi or (lo is not None and mx < lo):
                return False
            if mx <= hi and (lo is None or mn >= lo):
                return True
            return None
        if kind == "and":
            result = True
            for sub in node[1]:
                st = self._status(sub)
                if st is False:
                    return False
                if st is None:
                    result = None
            return result
        # 'or'
        result = False
        for sub in node[1]:
            st = self._status(sub)
            if st is True:
                return True
            if st is None:
                result = None
        return result

    def _enforce(self, node) -> bool:
        kind = node[0]
        if kind == "lin":
            return self._enforce_lin(node)
        if kind == "and":
            for sub in node[1]:
                if not self._enforce(sub):
                    return False
            return True
        # 'or': unit propagation over disjuncts
        unit = None
        for sub in node[1]:
            st = self._status(sub)
            if st is True:
                return True
            if st is None:
                if unit is not None:
                    return True  # two live disjuncts: nothing to do yet
                unit = sub
        if unit is None:
            return False  # every disjunct is falsified
        return self._enforce(unit)

    def _enforce_lin(self, node) -> bool:
        _, idxs, coefs, lo_sum, hi_sum = node
        mn, mx = self._lin_bounds(idxs, coefs)
        if mn > hi_sum or (lo_sum is not None and mx < lo_sum):
            return False
        if mx <= hi_sum and (lo_sum is None or mn >= lo_sum):
            return True
        lo, hi = self.lo, self.hi
        for i, c in zip(idxs, coefs):
            cmin, cmax = (c * lo[i], c * hi[i]) if c > 0 else (c * hi[i], c * lo[i])
            # the other terms span [mn - cmin, mx - cmax]
            if lo_sum is not None:
                a = lo_sum - (mx - cmax)  # need c*x >= a
                if not (self._set_lo(i, _ceil_div(a, c)) if c > 0 else self._set_hi(i, a // c)):
                    return False
            b = hi_sum - (mn - cmin)  # need c*x <= b
            if not (self._set_hi(i, b // c) if c > 0 else self._set_lo(i, _ceil_div(b, c))):
                return False
        return True

    def _drain_failed(self) -> None:
        while self.queue:
            self.queue.popleft().queued = False

    def _propagate_all(self) -> bool:
        lo, hi = self.lo, self.hi
        while self.queue:
            p = self.queue.popleft()
            p.queued = False
            self.stats["propagations"] += 1
            sel = p.sel
            if sel is None or lo[sel] == 1:
                ok = self._enforce(p.node)
            else:  # disabled: ignored; free: disabled once the node cannot hold
                ok = hi[sel] == 0 or self._status(p.node) is not False or self._set_hi(sel, 0)
            if not ok:
                self._drain_failed()
                return False
        return True

    # -- search -------------------------------------------------------------

    def check(self) -> Optional[Sat]:
        """Search for a model of the current assertions.

        The solver's observable state is untouched by the call, also when
        the search raises; only the statistics advance.
        """
        self.stats["checks"] += 1
        mark = len(self.trail)
        for p in self.props:
            if not p.queued:
                p.queued = True
                self.queue.append(p)
        try:
            if not (self._propagate_all() and self._dfs()):
                return UNSAT
            model = {}
            disabled = []
            for idx, name in enumerate(self.names):
                if self.is_sel[idx]:
                    continue
                model[name] = self.lo[idx]
            for sel in self.selectors:
                if self.lo[self.ids[sel.var]] == 0:
                    disabled.append(sel.id)
            return Sat(model, frozenset(disabled))
        finally:  # a search that raised leaves queued propagators behind
            self._drain_failed()
            self._undo_to(mark)

    def _pick_var(self) -> Optional[int]:
        best = None
        best_size = None
        lo, hi = self.lo, self.hi
        for idx in range(len(self.names)):
            if self.is_sel[idx] or lo[idx] == hi[idx]:
                continue
            size = hi[idx] - lo[idx]
            if best_size is None or size < best_size:
                best, best_size = idx, size
        if best is not None:
            return best
        for idx in range(len(self.names)):
            if self.is_sel[idx] and lo[idx] != hi[idx]:
                return idx
        return None

    def _dfs(self) -> bool:
        idx = self._pick_var()
        if idx is None:
            return True
        lo0, hi0 = self.lo[idx], self.hi[idx]
        values = (1, 0) if self.is_sel[idx] else range(lo0, hi0 + 1)
        for v in values:
            mark = len(self.trail)
            ok = self._set_lo(idx, v) and self._set_hi(idx, v)
            if ok:
                if self._propagate_all() and self._dfs():
                    return True
            else:
                self._drain_failed()
            self._undo_to(mark)
        return False

