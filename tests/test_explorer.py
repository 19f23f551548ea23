from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultlines.cfg import THEN, ELSE
from faultlines.explorer import (
    Counterexample,
    DeviationUnreachedError,
    ExplorerConfig,
    ExplorerError,
    NothingToLocalizeError,
    OverflowAbandonedError,
    diagnose,
    path_satisfies_post,
    propagate,
    run,
)
from faultlines.formulas import SsaName
from faultlines.frontend import interpret
from faultlines.mcs import HARD_UNSAT, OK, Mcs, McsConfig, McsResult
from faultlines.report import render_json, report_document
from faultlines.solver import DomainConfig

from helpers import (
    ROOT,
    assert_mcs_properties_solver,
    bruteforce_mcs,
    ce_for,
    compile_source,
    config_from_args,
    corpus_entry,
    corpus_manifest,
    random_program,
    reference_run,
)


def absminus():
    text, ce_map, entry = corpus_entry("absminus")
    fn, g = compile_source(text)
    return fn, g, ce_for(fn, ce_map), config_from_args(entry["args"])


def _collected_texts(trace):
    return [str(c.formula) for segment in trace.segments for c in segment]


# --- counterexamples ----------------------------------------------------------------


@pytest.mark.parametrize(
    "mapping, refused",
    [
        ({"i": 0.5, "j": 1}, "'i'"),
        ({"i": 0, "j": True}, "'j'"),
        ({"i": "7", "j": False}, "'i', 'j'"),
        ({"i": 7.0, "j": None}, "'i', 'j'"),
        ({"i": np.int64(7), "j": 1}, "'i'"),
        ({"i": 0, "k" * 50: [1]}, "'kkkkkkkkkkkkkkkkkkkk'... (50 characters)"),
    ],
    ids=["float", "bool", "str-and-bool", "whole-float-and-none", "numpy-int", "long-key"],
)
def test_counterexample_refuses_a_value_that_is_not_an_int(mapping, refused):
    with pytest.raises(ExplorerError) as e:
        Counterexample.of(mapping, mapping)
    assert str(e.value) == f"counterexample has non-integer value(s) for {refused}"
    assert Counterexample.of({"i": 0, "j": -1}, ["i", "j"]).items == (("i", 0), ("j", -1))


# --- propagate -------------------------------------------------------------------


def test_propagate_initial_path():
    fn, g, ce, _ = absminus()
    trace = propagate(g, ce)
    assert [(s.node, s.taken, s.deviated) for s in trace.decisions] == [
        ("d9", THEN, False),
        ("d11", ELSE, False),
    ]
    assert _collected_texts(trace) == ["k_0 = 0", "k_1 = k_0 + 2", "result_1 = i_0 - j_0"]
    assert trace.final_model[SsaName("result", 1)] == -1


def test_propagate_first_deviation_still_fails():
    fn, g, ce, _ = absminus()
    trace = propagate(g, ce, {"d9"})
    assert [(s.node, s.taken, s.deviated) for s in trace.decisions] == [
        ("d9", ELSE, True),
        ("d11", ELSE, False),
    ]
    assert "k_1 = k_0" in _collected_texts(trace)  # the synthetic copy
    assert trace.final_model[SsaName("result", 1)] == -1
    assert not path_satisfies_post(trace, g)


def test_propagate_second_deviation_corrects():
    fn, g, ce, _ = absminus()
    trace = propagate(g, ce, {"d11"})
    assert [(s.node, s.taken, s.deviated) for s in trace.decisions] == [
        ("d9", THEN, False),
        ("d11", THEN, True),
    ]
    assert trace.final_model[SsaName("result", 1)] == 1
    assert path_satisfies_post(trace, g)


NESTED = """\
/*@ ensures \\result == 0; */
int f (int a, int b) {
  int x = 0;
  if (a > 0) {
    if (b > 0) { x = 1; }
  }
  return x;
}
"""


def test_propagate_deviation_unreached():
    fn, g = compile_source(NESTED)
    ce = ce_for(fn, {"a": -1, "b": 1})
    with pytest.raises(DeviationUnreachedError):
        propagate(g, ce, {"d5"})


def test_propagate_overflow_abandoned():
    fn, g = compile_source(
        "/*@ ensures \\result == 0; */ int f (int x) { int y = x + x; return y; }"
    )
    ce = ce_for(fn, {"x": 5})
    with pytest.raises(OverflowAbandonedError):
        propagate(g, ce, (), DomainConfig(-8, 8))


OVERFLOW_LATE = """\
/*@ ensures \\result == 0; */
int f (int x) {
  int y = 0;
  if (x > 0) { y = 1; }
  if (x > 1) { y = x + x; }
  if (x > 2) { y = 2; }
  return y;
}
"""


def test_overflow_error_carries_decisions_reached_before_it():
    fn, g = compile_source(OVERFLOW_LATE)
    first, second, _ = g.decision_order
    dom = DomainConfig(-8, 8)
    with pytest.raises(OverflowAbandonedError) as e:
        propagate(g, ce_for(fn, {"x": 5}), (), dom)
    assert e.value.visited == (first, second)
    with pytest.raises(OverflowAbandonedError) as e:
        propagate(g, ce_for(fn, {"x": 9}), (), dom)  # the input itself
    assert e.value.visited == ()
    # flipping the second decision skips the overflowing assignment
    assert len(propagate(g, ce_for(fn, {"x": 5}), {second}, dom).decisions) == 3


def _resume_cases():
    for name in sorted(corpus_manifest()):
        text, ce_map, entry = corpus_entry(name)
        fn, g = compile_source(text)
        yield name, g, ce_for(fn, ce_map), config_from_args(entry["args"]).dom
    text = (ROOT / "perfbench" / "tritype" / "tritype.src").read_text()
    fn, g = compile_source(text)
    for inputs in ({"i": 1, "j": 2, "k": 1}, {"i": 2, "j": 3, "k": 4}, {"i": 1, "j": 1, "k": 1}):
        yield "tritype", g, ce_for(fn, inputs), DomainConfig(-128, 127)
    fn, g = compile_source(OVERFLOW_LATE)
    yield "overflow_late", g, ce_for(fn, {"x": -5}), DomainConfig(-8, 8)


def test_resumed_trace_equals_propagate_from_entry():
    # every flip set whose flips are all reached, grown as `run` grows them
    seen, overflowed = 0, 0
    for name, g, ce, dom in _resume_cases():
        order = {nid: i for i, nid in enumerate(g.decision_order)}
        frontier = [((), propagate(g, ce, (), dom).snapshots)]
        while frontier:
            children = []
            for flips, snapshots in frontier:
                for snap in snapshots:
                    flips2 = flips + (snap.node,)
                    try:
                        got = propagate(g, ce, flips2, dom, resume=snap)
                    except OverflowAbandonedError as e:
                        overflowed += 1
                        with pytest.raises(OverflowAbandonedError) as from_entry:
                            propagate(g, ce, flips2, dom)
                        got, want = e, from_entry.value
                        assert str(got) == str(want), (name, flips2)
                        assert got.visited == want.visited, (name, flips2)
                        assert [x.node for x in got.snapshots] == [x.node for x in want.snapshots]
                        children.append((flips2, got.snapshots))
                        continue
                    seen += 1
                    want = propagate(g, ce, flips2, dom)
                    assert got.decisions == want.decisions, (name, flips2)
                    assert got.segments == want.segments, (name, flips2)
                    assert got.final_model == want.final_model, (name, flips2)
                    assert [x.node for x in got.snapshots] == [x.node for x in want.snapshots]
                    path_order = [order[x.node] for x in got.decisions]
                    assert path_order == sorted(path_order), (name, flips2)
                    children.append((flips2, got.snapshots))
            frontier = children
    assert seen >= 50 and overflowed >= 1


def test_path_satisfies_post_identity():
    fn, g = compile_source("/*@ ensures \\result == x; */ int f (int x) { return x; }")
    trace = propagate(g, ce_for(fn, {"x": 7}))
    assert path_satisfies_post(trace, g)


# --- diagnose: the initial path ------------------------------------------------------


def test_diagnose_initial_absminus():
    fn, g, ce, config = absminus()
    trace = propagate(g, ce)
    diag = diagnose(trace, g, ce, config)
    assert diag.kind == "initial_path"
    assert diag.deviated == ()
    assert [m.ids for m in diag.mcs.mcs_list] == [frozenset({4})]
    member = diag.mcs.mcs_list[0].members[0]
    assert member.loc.line == 14
    assert str(member.formula) == "result_1 = i_0 - j_0"


def test_diagnose_initial_constant_return():
    fn, g = compile_source(
        "/*@ ensures \\result == x; */ int f (int x) { int r = 5; return r; }"
    )
    ce = ce_for(fn, {"x": 3})
    trace = propagate(g, ce)
    diag = diagnose(trace, g, ce, ExplorerConfig())
    assert [str(m) for m in diag.mcs.mcs_list] == ["{r_0 = 5 @ line 1}"]


def test_diagnose_initial_two_assignment_chain():
    fn, g = compile_source(
        """/*@ ensures \\result == 2; */
int f (int a) {
  int x = 1;
  int r = x;
  return r;
}
"""
    )
    ce = ce_for(fn, {"a": 0})
    trace = propagate(g, ce)
    config = ExplorerConfig(mcs=McsConfig(b_mcs=5, k_max=2))
    diag = diagnose(trace, g, ce, config)
    got = {frozenset(str(c.formula) for c in m.members) for m in diag.mcs.mcs_list}
    assert got == {frozenset({"r_0 = x_0"}), frozenset({"x_0 = 1"})}
    # brute-force subset oracle agrees on the id sets
    oracle = bruteforce_mcs(diag.constraints, DomainConfig(-4, 4))
    assert {m.ids for m in diag.mcs.mcs_list} == oracle
    # latest on path first
    assert str(diag.mcs.mcs_list[0].members[0].formula) == "r_0 = x_0"


# --- diagnose: a corrected deviation --------------------------------------------------


def test_diagnose_deviation_absminus():
    fn, g, ce, config = absminus()
    trace = propagate(g, ce, {"d11"})
    diag = diagnose(trace, g, ce, config)
    assert diag.kind == "deviation_corrects"
    assert [(d.node, d.loc.line) for d in diag.deviated] == [("d11", 11)]
    assert len(diag.mcs.mcs_list) == 1
    member = diag.mcs.mcs_list[0].members[0]
    assert member.loc.line == 10
    assert str(member.formula) == "k_1 = k_0 + 2"


def test_diagnose_deviation_with_larger_budget_adds_initializer():
    fn, g, ce, _ = absminus()
    trace = propagate(g, ce, {"d11"})
    config = ExplorerConfig(mcs=McsConfig(b_mcs=2, k_max=2))
    diag = diagnose(trace, g, ce, config)
    texts = [frozenset(str(c.formula) for c in m.members) for m in diag.mcs.mcs_list]
    assert texts == [frozenset({"k_1 = k_0 + 2"}), frozenset({"k_0 = 0"})]
    assert diag.mcs.mcs_list[1].members[0].loc.line == 8
    oracle = bruteforce_mcs(diag.constraints, DomainConfig(-8, 8))
    assert {m.ids for m in diag.mcs.mcs_list} == oracle


def test_diagnose_deviation_guard_on_inputs_only():
    text, ce_map, entry = corpus_entry("atleastten")
    fn, g = compile_source(text)
    ce = ce_for(fn, ce_map)
    trace = propagate(g, ce, {"d7"})
    assert path_satisfies_post(trace, g)
    diag = diagnose(trace, g, ce, config_from_args(entry["args"]))
    assert diag.mcs.flag == HARD_UNSAT
    assert diag.mcs.mcs_list == ()
    assert [(d.node, d.loc.line) for d in diag.deviated] == [("d7", 7)]


# --- run -------------------------------------------------------------------------------


def test_run_absminus_golden_structure():
    fn, g, ce, config = absminus()
    report = run(g, ce, config)
    assert [d.kind for d in report.diagnoses] == ["initial_path", "deviation_corrects"]
    initial, deviation = report.diagnoses
    assert [m.members[0].loc.line for m in initial.mcs.mcs_list] == [14]
    assert [(d.loc.line) for d in deviation.deviated] == [11]
    assert [m.members[0].loc.line for m in deviation.mcs.mcs_list] == [10]
    s = report.stats
    assert s.paths_explored == 3  # initial + two single deviations
    assert s.paths_ignored == 1  # the line-9 deviation
    assert s.rejected == 1  # the double deviation, skipped before solving
    assert s.mcs_enumerations == 2  # no solver work for the rejected candidate
    assert s.rejected_unreached == 0


def test_run_bcond_zero_only_initial():
    fn, g, ce, _ = absminus()
    config = ExplorerConfig(b_cond=0, mcs=McsConfig(b_mcs=1, k_max=2))
    report = run(g, ce, config)
    assert [d.kind for d in report.diagnoses] == ["initial_path"]
    assert report.stats.paths_explored == 1


def test_run_bcond_exceeding_decisions_truncated():
    fn, g, ce, _ = absminus()
    config = ExplorerConfig(b_cond=99, mcs=McsConfig(b_mcs=1, k_max=2))
    report = run(g, ce, config)
    assert [d.kind for d in report.diagnoses] == ["initial_path", "deviation_corrects"]


def test_run_rejects_non_counterexample():
    fn, g, _, config = absminus()
    ce = ce_for(fn, {"i": 5, "j": 3})
    with pytest.raises(NothingToLocalizeError):
        run(g, ce, config)


def test_run_refuses_input_violating_requires():
    # Tritype requires i >= 0 && j >= 0 && k >= 0
    fn, g = compile_source((ROOT / "perfbench" / "tritype" / "tritype.src").read_text())
    with pytest.raises(NothingToLocalizeError, match="violates the precondition"):
        run(g, ce_for(fn, {"i": -1, "j": 1, "k": 1}))


THREE_IFS_BODY = """\
int ThreeBits (int a, int b, int c) {{
  int u = 0;
  int v = 0;
  int w = 0;
  if (a > 0) {{
    u = 1; }}
  if (b > 0) {{
    v = 1; }}
  if (c > 0) {{
    w = 1; }}
  return u + 2*v + 4*w;
}}
"""


def _three_ifs_source() -> str:
    # intended guards: a > 0, b >= 0, c > 0; the b-guard is seeded wrong
    cases = []
    for ba, bb, bc in product((1, 0), repeat=3):
        ga = "a > 0" if ba else "a <= 0"
        gb = "b >= 0" if bb else "b < 0"
        gc = "c > 0" if bc else "c <= 0"
        val = ba + 2 * bb + 4 * bc
        cases.append(f"((({ga}) && ({gb}) && ({gc})) ==> (\\result == {val}))")
    post = " &&\n @ ".join(cases)
    return f"/*@ ensures\n @ {post}; */\n" + THREE_IFS_BODY.format()


def test_run_three_independent_ifs_unique_correcting_deviation():
    text = _three_ifs_source()
    fn, g = compile_source(text)
    inputs = {"a": 1, "b": 0, "c": 1}
    ce = ce_for(fn, inputs)

    # oracle: exhaustively check all 2^3 decision vectors against the
    # postcondition for these inputs (intended value: 1 + 2 + 4 = 7)
    induced = (THEN, ELSE, THEN)  # a>0 true, b>0 false, c>0 true
    correcting_flip_sets = []
    for vector in product((THEN, ELSE), repeat=3):
        result = (
            (1 if vector[0] == THEN else 0)
            + 2 * (1 if vector[1] == THEN else 0)
            + 4 * (1 if vector[2] == THEN else 0)
        )
        if result == 7:
            flips = frozenset(
                i for i in range(3) if vector[i] != induced[i]
            )
            correcting_flip_sets.append(flips)
    assert correcting_flip_sets == [frozenset({1})]  # only flipping the b-guard

    report = run(g, ce, ExplorerConfig(b_cond=3))
    deviations = [d for d in report.diagnoses if d.kind == "deviation_corrects"]
    assert len(deviations) == 1
    assert [dev.node for dev in deviations[0].deviated] == [g.decision_order[1]]
    b_guard_line = text.splitlines().index("  if (b > 0) {") + 1
    assert deviations[0].deviated[0].loc.line == b_guard_line


def test_run_certified_deviations_and_valid_mcs_on_corpus():
    for name in corpus_manifest():
        text, ce_map, entry = corpus_entry(name)
        fn, g = compile_source(text)
        ce = ce_for(fn, ce_map)
        config = config_from_args(entry["args"])
        report = run(g, ce, config)
        for diag in report.diagnoses:
            if diag.kind == "deviation_corrects":
                flips = {dev.node for dev in diag.deviated}
                replay = propagate(g, ce, flips, config.dom)
                assert path_satisfies_post(replay, g), f"{name}: uncertified deviation"
            assert_mcs_properties_solver(diag.constraints, diag.mcs, config.dom)


# per corpus diagnosis: its hard constraints in assertion order (the inputs,
# then the postcondition or the guard value that forces the last flip) and
# the ids of its soft constraints
CORPUS_HARD_AND_SOFT = {
    "absminus": [
        (["i_0 = 0", "j_0 = 1",
          "(i_0 >= j_0 || result_1 = j_0 - i_0) && (i_0 < j_0 || result_1 = i_0 - j_0)"],
         [0, 1, 4]),
        (["i_0 = 0", "j_0 = 1", "k_1 = 1 && i_0 != j_0"], [0, 1]),
    ],
    "atleastten": [
        (["x_0 = 10", "(x_0 < 10 || flag_1 = 1) && (x_0 >= 10 || flag_1 = 0)"], [0, 2]),
        (["x_0 = 10", "x_0 > 10"], [0]),
    ],
    "bonus": [
        (["n_0 = 5", "(n_0 < 5 || r_1 = 2*n_0) && (n_0 >= 5 || r_1 = n_0)"], [0, 1, 3, 5]),
        (["n_0 = 5", "b_1 = 2"], [0, 1, 3]),
    ],
    "capatten": [
        (["x_0 = 11", "(x_0 <= 10 || y_1 = 10) && (x_0 > 10 || y_1 = x_0)"], [0, 2]),
    ],
    "twiceplusone": [(["x_0 = 0", "_ret_1 = 2*x_0 + 1"], [0, 1])],
}


def test_corpus_hard_constraints_and_soft_ids_are_pinned():
    got = {}
    for name in corpus_manifest():
        text, ce_map, entry = corpus_entry(name)
        fn, g = compile_source(text)
        report = run(g, ce_for(fn, ce_map), config_from_args(entry["args"]))
        got[name] = [
            ([str(f) for f in d.constraints.hard], [c.id for c in d.constraints.soft])
            for d in report.diagnoses
        ]
    assert got == CORPUS_HARD_AND_SOFT


def test_run_marking_keeps_first_correction_only():
    fn, g, ce, config = absminus()
    report = run(g, ce, config)
    last_nodes = [d.deviated[-1].node for d in report.diagnoses if d.deviated]
    assert len(last_nodes) == len(set(last_nodes))


def test_run_incremental_matches_fresh_solvers():
    for name in corpus_manifest():
        text, ce_map, entry = corpus_entry(name)
        fn, g = compile_source(text)
        ce = ce_for(fn, ce_map)
        config = config_from_args(entry["args"])
        fast = run(g, ce, config, incremental=True)
        slow = run(g, ce, config, incremental=False)
        doc_fast = report_document(fast)
        doc_slow = report_document(slow)
        assert doc_fast["settings"]["incremental"] is True, name
        assert doc_slow["settings"]["incremental"] is False, name
        for doc in (doc_fast, doc_slow):
            doc.pop("statistics")
            doc["settings"].pop("incremental")
        assert doc_fast == doc_slow, f"{name}: diagnoses differ between modes"
        # sharing frames may save assertions only: the searches are the same
        assert fast.stats.solver_checks == slow.stats.solver_checks, name
        assert fast.stats.solver_propagations == slow.stats.solver_propagations, name
        if len(g.decision_order) >= 2:
            assert fast.stats.solver_assertions < slow.stats.solver_assertions, name


def test_run_is_deterministic():
    fn, g, ce, config = absminus()
    first = render_json(run(g, ce, config))
    fn2, g2 = compile_source(corpus_entry("absminus")[0])
    second = render_json(run(g2, ce, config))
    assert first == second


def _outcome(explore, g, ce, config):
    # the report prints only the sum of the two rejection counters
    try:
        report = explore(g, ce, config)
    except (NothingToLocalizeError, OverflowAbandonedError) as e:
        return type(e).__name__, str(e)
    return render_json(report), report.stats.rejected_marked, report.stats.rejected_prefix


def _random_case(seed, b_cond, dom):
    rng = np.random.default_rng(seed)
    fn, g = compile_source(random_program(rng, max_depth=3))
    ce = ce_for(fn, {p: int(rng.integers(-6, 7)) for p in fn.param_names})
    return g, ce, ExplorerConfig(b_cond=b_cond, mcs=McsConfig(b_mcs=2, k_max=2), dom=dom)


@pytest.mark.parametrize("dom", [DomainConfig(-12, 12), DomainConfig(-64, 64)], ids=["pm12", "pm64"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b_cond=st.integers(1, 3))
def test_run_matches_reference_explorer(dom, seed, b_cond):
    g, ce, config = _random_case(seed, b_cond, dom)
    assert _outcome(run, g, ce, config) == _outcome(reference_run, g, ce, config)


def _every_soft_constraint(solver, sels, config):
    return McsResult(tuple(Mcs((s.constraint,)) for s in sels), OK)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b_cond=st.integers(1, 3))
def test_run_matches_reference_explorer_default_domain(seed, b_cond):
    # One real diagnosis of a random program can label 65536 values per
    # variable, so this case replaces the MCS enumeration in both explorers
    # with one that reports every soft constraint it was given.
    g, ce, config = _random_case(seed, b_cond, DomainConfig())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("faultlines.explorer.enumerate_on", _every_soft_constraint)
        assert _outcome(run, g, ce, config) == _outcome(reference_run, g, ce, config)


# --- seeded bugs -------------------------------------------------------------------

SEEDED_DOM = DomainConfig(-64, 64)


def _seeded_bug(rng):
    """A random program pinned to its result on random inputs, and a `+ 1` mutant.

    Returns (mutant graph, inputs, mutated line), or None when the draw is
    unusable: the mutant passes, a value leaves SEEDED_DOM, or the two
    programs take different decisions.
    """
    text = random_program(rng, max_depth=3)
    fn, _ = compile_source(text)
    inputs = {p: int(rng.integers(-6, 7)) for p in fn.param_names}
    expected = interpret(fn, inputs).result
    lines = text.replace("\\result == 0;", f"\\result == {expected};", 1).splitlines()
    assigned = [
        i for i, line in enumerate(lines)
        if " = " in line and line.endswith(";") and "return" not in line and "ensures" not in line
    ]
    i = assigned[int(rng.integers(0, len(assigned)))]
    original = compile_source("\n".join(lines) + "\n")
    lines[i] = lines[i][:-1] + " + 1;"
    mutant = compile_source("\n".join(lines) + "\n")
    if interpret(mutant[0], inputs).postcondition_holds:
        return None
    try:
        runs = [propagate(g, ce_for(f, inputs), (), SEEDED_DOM) for f, g in (original, mutant)]
    except OverflowAbandonedError:
        return None
    if [(s.node, s.taken) for s in runs[0].decisions] != [
        (s.node, s.taken) for s in runs[1].decisions
    ]:
        return None
    return mutant[1], ce_for(mutant[0], inputs), i + 1


def test_seeded_bug_is_a_size_one_mcs_of_the_initial_path():
    # The paper's evaluation: undoing the mutated assignment restores the
    # original run, which meets the pinned postcondition, so that
    # assignment alone is a correction set of the mutant's failing path.
    rng = np.random.default_rng(2026)
    config = ExplorerConfig(b_cond=0, mcs=McsConfig(b_mcs=1000, k_max=1), dom=SEEDED_DOM)
    kept, missed = 0, []
    for _ in range(400):
        case = _seeded_bug(rng)
        if case is None:
            continue
        g, ce, line = case
        kept += 1
        initial = run(g, ce, config).diagnoses[0]
        assert initial.kind == "initial_path"
        if not any(m.cardinality == 1 and m.members[0].loc.line == line for m in initial.mcs):
            missed.append((g.name, ce.items, line))
    assert missed == []
    assert kept >= 60
