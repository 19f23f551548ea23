"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s -q` to see the lines as the
criteria execute (or `-rA` for a summary of captured output).
"""

import time

import numpy as np
import pytest

from faultlines.cfg import Block
from faultlines.explorer import Counterexample, path_satisfies_post, propagate, run
from faultlines.formulas import eval_formula
from faultlines.frontend import interpret
from faultlines.mcs import McsConfig, enumerate_mcs
from faultlines.report import report_document
from faultlines.solver import UNSAT, DomainConfig, Solver

from helpers import (
    assert_mcs_properties_solver,
    bruteforce_mcs,
    ce_for,
    compile_source,
    config_from_args,
    corpus_entry,
    corpus_manifest,
    exhaustive_sat,
    is_correction_set,
    random_formula,
    random_system,
)
from reference import enumerate_paths, formula_vars

SMALL = DomainConfig(-4, 4)


def _report_line(num: int, ok: bool, summary: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {summary}")


@pytest.fixture(scope="module")
def corpus_runs():
    out = {}
    for name in sorted(corpus_manifest()):
        text, ce_map, entry = corpus_entry(name)
        fn, g = compile_source(text)
        ce = ce_for(fn, ce_map)
        config = config_from_args(entry["args"])
        out[name] = (fn, g, ce, config, run(g, ce, config))
    return out


@pytest.fixture(scope="module")
def mcs_batch():
    """>= 500 random hard/soft systems with both enumeration results."""
    rng = np.random.default_rng(20250809)
    batch = []
    start = time.monotonic()
    for _ in range(500):
        cs = random_system(rng, max_vars=4, max_soft=8, max_hard=2)
        config = McsConfig(b_mcs=10**9, k_max=len(cs.soft))
        got = enumerate_mcs(cs, config, SMALL)
        want = bruteforce_mcs(cs, SMALL)
        batch.append((cs, got, want))
    elapsed = time.monotonic() - start
    return batch, elapsed


def test_criterion_1_absminus_golden_run():
    text, ce_map, entry = corpus_entry("absminus")
    fn, g = compile_source(text)
    ce = ce_for(fn, ce_map)
    config = config_from_args(entry["args"])
    assert (config.b_cond, config.mcs.b_mcs, config.mcs.k_max) == (2, 1, 2)
    start = time.monotonic()
    report = run(g, ce, config)
    elapsed = time.monotonic() - start

    checks = {}
    checks["two diagnoses"] = [d.kind for d in report.diagnoses] == [
        "initial_path",
        "deviation_corrects",
    ]
    initial, deviation = report.diagnoses[0], report.diagnoses[-1]
    checks["initial MCS is exactly line 14"] = [
        [c.loc.line for c in m.members] for m in initial.mcs.mcs_list
    ] == [[14]]
    checks["deviated condition is line 11"] = [
        d.loc.line for d in deviation.deviated
    ] == [11]
    checks["deviation MCS is exactly line 10"] = [
        [c.loc.line for c in m.members] for m in deviation.mcs.mcs_list
    ] == [[10]]
    checks["line-9 deviation counted as ignored"] = report.stats.paths_ignored == 1
    checks["double deviation rejected"] = report.stats.rejected == 1
    checks["rejection used no solver call"] = report.stats.mcs_enumerations == 2
    checks["runtime under 1 s"] = elapsed < 1.0

    ok = all(checks.values())
    _report_line(1, ok, f"AbsMinus golden run ({elapsed:.2f}s)")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_2_mcs_oracle_equivalence(mcs_batch):
    batch, elapsed = mcs_batch
    mismatches = sum(1 for _, got, want in batch if got.id_sets() != want)
    ok = mismatches == 0 and len(batch) >= 500 and elapsed < 60.0
    _report_line(
        2,
        ok,
        f"MCS enumeration equals brute force on {len(batch)} random systems "
        f"({mismatches} mismatches, {elapsed:.1f}s)",
    )
    assert ok


def test_criterion_3_mcs_correction_and_irreducibility(mcs_batch, corpus_runs):
    batch, _ = mcs_batch
    violations = 0
    emitted = 0
    for cs, got, _ in batch:
        for m in got.mcs_list:
            emitted += 1
            if not is_correction_set(cs, m.ids, SMALL):
                violations += 1
                continue
            for c in m.members:
                if is_correction_set(cs, m.ids - {c.id}, SMALL):
                    violations += 1
                    break
    for name, (_, _, _, config, report) in corpus_runs.items():
        for diag in report.diagnoses:
            for m in diag.mcs.mcs_list:
                emitted += 1
            try:
                assert_mcs_properties_solver(diag.constraints, diag.mcs, config.dom)
            except AssertionError:
                violations += 1
    ok = violations == 0 and emitted > 0
    _report_line(
        3,
        ok,
        f"every emitted MCS ({emitted}) is a correction set and irreducible "
        f"({violations} violations)",
    )
    assert ok


def test_criterion_4_solver_oracle_equivalence():
    rng = np.random.default_rng(41)
    start = time.monotonic()
    disagreements = 0
    n = 1000
    for _ in range(n):
        from faultlines.formulas import SsaName

        names = [SsaName(f"v{i}", 0) for i in range(int(rng.integers(1, 6)))]
        formulas = [
            random_formula(rng, names) for _ in range(int(rng.integers(1, 9)))
        ]
        s = Solver(SMALL)
        for f in formulas:
            s.assert_hard(f)
        got = s.check()
        want = exhaustive_sat(formulas, SMALL)
        if (got is UNSAT) != (want is None):
            disagreements += 1
            continue
        if got is not UNSAT:
            model = {n_: SMALL.lo for f in formulas for n_ in formula_vars(f)}
            model.update(got.model)
            if not all(eval_formula(f, model) for f in formulas):
                disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 30.0
    _report_line(
        4,
        ok,
        f"solver agrees with exhaustive enumeration on {n} conjunctions "
        f"({disagreements} disagreements, {elapsed:.1f}s)",
    )
    assert ok


def test_criterion_5_incremental_equivalence_and_benefit(corpus_runs):
    identical = True
    strictly_lower = True
    details = []
    for name, (fn, g, ce, config, fast) in corpus_runs.items():
        slow = run(g, ce, config, incremental=False)
        doc_fast, doc_slow = report_document(fast), report_document(slow)
        for doc in (doc_fast, doc_slow):
            doc.pop("statistics")
            doc["settings"].pop("incremental")
        if doc_fast != doc_slow:
            identical = False
            details.append(f"{name}: diagnoses differ")
        if len(g.decision_order) >= 2:
            a, b = fast.stats.solver_assertions, slow.stats.solver_assertions
            details.append(f"{name}: {a} < {b}")
            if not a < b:
                strictly_lower = False
    ok = identical and strictly_lower
    _report_line(
        5,
        ok,
        "incremental and fresh-solver runs agree; assertion counts strictly "
        f"lower with >= 2 decisions ({'; '.join(details)})",
    )
    assert ok


def test_criterion_6_dsa_invariant_and_semantics(corpus_runs):
    double_assignments = 0
    semantic_mismatches = 0
    wide = DomainConfig(-(2**40), 2**40)
    for name, (fn, g, ce, config, _) in corpus_runs.items():
        for path in enumerate_paths(g):
            seen = set()
            for nid in path:
                node = g.nodes[nid]
                if isinstance(node, Block):
                    for a in node.assignments:
                        if a.target in seen:
                            double_assignments += 1
                        seen.add(a.target)
        if len(fn.param_names) <= 3:
            axes = np.meshgrid(
                *([np.arange(-4, 5)] * len(fn.param_names)), indexing="ij"
            )
            from faultlines.formulas import SsaName

            result_name = max(
                (
                    n
                    for n in formula_vars(g.postcondition)
                    if n.base == g.result_var
                ),
                key=lambda n: n.version,
            )
            for idx in range(axes[0].size):
                inputs = {
                    p: int(ax.ravel()[idx]) for p, ax in zip(fn.param_names, axes)
                }
                expected = interpret(fn, inputs).result
                trace = propagate(g, Counterexample.of(inputs, fn.param_names), (), wide)
                if trace.final_model[result_name] != expected:
                    semantic_mismatches += 1
    ok = double_assignments == 0 and semantic_mismatches == 0
    _report_line(
        6,
        ok,
        "single assignment per path on all corpus CFGs; DSA execution matches "
        f"the interpreter on [-4,4]^params ({double_assignments} double "
        f"assignments, {semantic_mismatches} mismatches)",
    )
    assert ok


def test_criterion_7_certified_deviations(corpus_runs):
    violations = 0
    certified = 0
    for name, (fn, g, ce, config, report) in corpus_runs.items():
        for diag in report.diagnoses:
            if diag.kind != "deviation_corrects":
                continue
            certified += 1
            flips = {d.node for d in diag.deviated}
            replay = propagate(g, ce, flips, config.dom)
            if not path_satisfies_post(replay, g):
                violations += 1
    ok = violations == 0 and certified > 0
    _report_line(
        7,
        ok,
        f"all {certified} corrected deviations re-simulate to a passing run "
        f"({violations} violations)",
    )
    assert ok
