"""Fault localization for annotated integer programs.

Pipeline: parse an annotated source file, build its control-flow graph
in single-assignment form, propagate a failing input through
the graph while deviating a bounded number of branch decisions, and
enumerate bounded-size minimal correction sets over each interesting
path's constraint system.  Suspects are reported per path, mapped back
to source lines.
"""

from .cfg import Cfg, build_cfg, render_dot
from .explorer import (
    Counterexample,
    DeviationUnreachedError,
    Diagnosis,
    ExplorerConfig,
    NothingToLocalizeError,
    PathTrace,
    Report,
    diagnose,
    path_satisfies_post,
    propagate,
    run,
)
from .formulas import (
    Atom,
    Constraint,
    ConstraintKind,
    ConstraintSet,
    Formula,
    LinTerm,
    SsaName,
    assign_to_constraint,
    eval_formula,
    negate,
)
from .frontend import Diagnostic, Function, SourceLoc, parse_program, typecheck
from .mcs import Mcs, McsConfig, McsResult, enumerate_mcs
from .report import render_json, render_text, report_document
from .solver import UNSAT, DomainConfig, Sat, Selector, Solver

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Cfg",
    "Constraint",
    "ConstraintKind",
    "ConstraintSet",
    "Counterexample",
    "DeviationUnreachedError",
    "Diagnosis",
    "Diagnostic",
    "DomainConfig",
    "ExplorerConfig",
    "Formula",
    "Function",
    "LinTerm",
    "Mcs",
    "McsConfig",
    "McsResult",
    "NothingToLocalizeError",
    "PathTrace",
    "Report",
    "Sat",
    "Selector",
    "Solver",
    "SourceLoc",
    "SsaName",
    "UNSAT",
    "assign_to_constraint",
    "build_cfg",
    "diagnose",
    "enumerate_mcs",
    "eval_formula",
    "negate",
    "parse_program",
    "path_satisfies_post",
    "propagate",
    "render_dot",
    "render_json",
    "render_text",
    "report_document",
    "run",
    "typecheck",
    "__version__",
]
