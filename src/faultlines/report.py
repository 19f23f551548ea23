"""Deterministic text and JSON renderings of a localization report.

The text layout and the JSON field names are stable: golden files in the
corpus are byte-compared against them.  Two runs over identical inputs
produce identical bytes (reports carry no timings or volatile data).
"""

from __future__ import annotations

import json

from .explorer import INITIAL_PATH, Diagnosis, Report
from .formulas import Atom, Constraint, ConstraintKind, LinTerm
from .mcs import ALREADY_SAT, HARD_UNSAT

SCHEMA_VERSION = 1

SYNTHETIC_NOTE = "possible missing assignment in this branch"
HARD_UNSAT_NOTE = "no assignment repair: with these inputs the requirement has no solution in the domain box"
ALREADY_SAT_NOTE = "path constraints are satisfiable: nothing to correct"

def _member_note(c: Constraint):
    if c.kind is ConstraintKind.SYNTHETIC_COPY:
        return SYNTHETIC_NOTE
    return None


def _flag_note(flag: str):
    if flag == HARD_UNSAT:
        return HARD_UNSAT_NOTE
    if flag == ALREADY_SAT:
        return ALREADY_SAT_NOTE
    return None


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------


def _path_text(diag: Diagnosis) -> str:
    parts = []
    for step in diag.path:
        star = "*" if step.deviated else ""
        parts.append(f"{step.node}:{step.taken}{star}")
    return " ".join(parts) if parts else "(no decisions)"


def render_text(report: Report) -> str:
    lines = []
    lines.append(f"program: {report.program}")
    ce = ", ".join(f"{k}={v}" for k, v in report.counterexample.items)
    lines.append(f"counterexample: {ce if ce else '(none)'}")
    config = report.config
    lines.append(
        "settings: "
        f"b_cond={config.b_cond} b_mcs={config.mcs.b_mcs} k_max={config.mcs.k_max} "
        f"domain=[{config.dom.lo},{config.dom.hi}] "
        f"incremental={'on' if report.incremental else 'off'}"
    )
    for i, diag in enumerate(report.diagnoses, start=1):
        lines.append("")
        if diag.kind == INITIAL_PATH:
            lines.append(f"diagnosis {i}: initial path")
        else:
            lines.append(f"diagnosis {i}: deviation corrects the failure")
            for dev in diag.deviated:
                lines.append(
                    f"  deviated condition: line {dev.loc.line} ({dev.node}): {dev.guard_text}"
                )
        lines.append(f"  path: {_path_text(diag)}")
        note = _flag_note(diag.mcs.flag)
        if note is not None:
            lines.append(f"  {note}")
        for j, mcs in enumerate(diag.mcs.mcs_list, start=1):
            lines.append(f"  mcs {j} (size {mcs.cardinality}):")
            for c in mcs.members:
                kind = c.kind.value.replace("_", " ")
                suffix = f" ({SYNTHETIC_NOTE})" if _member_note(c) else ""
                lines.append(f"    - line {c.loc.line}: {c.formula} [{kind}]{suffix}")
    s = report.stats
    lines.append("")
    lines.append("statistics:")
    lines.append(f"  paths explored: {s.paths_explored}")
    lines.append(f"  paths ignored (still failing): {s.paths_ignored}")
    lines.append(f"  candidates rejected (marking/prefix): {s.rejected}")
    lines.append(f"  candidates with unreached deviation: {s.rejected_unreached}")
    lines.append(f"  paths abandoned (overflow): {s.overflow_abandoned}")
    lines.append(f"  mcs enumerations: {s.mcs_enumerations}")
    lines.append(f"  solver checks: {s.solver_checks}")
    lines.append(f"  solver propagations: {s.solver_propagations}")
    lines.append(f"  solver assertions: {s.solver_assertions}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _linterm_doc(t: LinTerm) -> dict:
    return {"coeffs": {str(n): c for n, c in t.coeffs}, "constant": t.const}


def _member_doc(c: Constraint) -> dict:
    assert isinstance(c.formula, Atom)
    return {
        "id": c.id,
        "line": c.loc.line,
        "kind": c.kind.value,
        "text": c.render(),
        "note": _member_note(c),
        "formula": {
            "op": c.formula.op,
            "lhs": _linterm_doc(c.formula.lhs),
            "rhs": _linterm_doc(c.formula.rhs),
        },
    }


def _diagnosis_doc(diag: Diagnosis) -> dict:
    return {
        "kind": diag.kind,
        "deviations": [
            {"decision": dev.node, "line": dev.loc.line, "guard": dev.guard_text}
            for dev in diag.deviated
        ],
        "path": [
            {"decision": s.node, "taken": s.taken, "deviated": s.deviated}
            for s in diag.path
        ],
        "mcs_flag": diag.mcs.flag,
        "mcs": [
            {
                "size": m.cardinality,
                "members": [_member_doc(c) for c in m.members],
            }
            for m in diag.mcs.mcs_list
        ],
    }


def report_document(report: Report) -> dict:
    s, config = report.stats, report.config
    return {
        "schema_version": SCHEMA_VERSION,
        "program": report.program,
        "counterexample": {k: v for k, v in report.counterexample.items},
        "settings": {
            "b_cond": config.b_cond,
            "b_mcs": config.mcs.b_mcs,
            "k_max": config.mcs.k_max,
            "domain": {"lo": config.dom.lo, "hi": config.dom.hi},
            "incremental": report.incremental,
        },
        "diagnoses": [_diagnosis_doc(d) for d in report.diagnoses],
        "statistics": {
            "paths_explored": s.paths_explored,
            "paths_ignored": s.paths_ignored,
            "rejected_marking_prefix": s.rejected,
            "rejected_unreached": s.rejected_unreached,
            "overflow_abandoned": s.overflow_abandoned,
            "mcs_enumerations": s.mcs_enumerations,
            "solver_checks": s.solver_checks,
            "solver_propagations": s.solver_propagations,
            "solver_assertions": s.solver_assertions,
        },
    }


def dumps_document(doc: dict) -> bytes:
    """Canonical JSON encoding; re-encoding a parsed document round-trips."""
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def render_json(report: Report) -> bytes:
    return dumps_document(report_document(report))
