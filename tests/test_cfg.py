from itertools import product

import numpy as np
import pytest

from faultlines.cfg import (
    Block,
    Decision,
    ELSE,
    NEXT,
    THEN,
    build_cfg,
    enumerate_paths,
    iter_assignments,
    render_dot,
)
from faultlines.explorer import Counterexample, propagate
from faultlines.formulas import TRUE, ConstraintKind, LinTerm, SsaName, eval_formula
from faultlines.frontend import interpret, parse_program
from faultlines.solver import DomainConfig

from helpers import CORPUS, ROOT, compile_source, corpus_entry, corpus_manifest, random_program

WIDE = DomainConfig(-(2**40), 2**40)


def _assignment_texts(cfg):
    out = []
    for nid in sorted(cfg.nodes):
        node = cfg.nodes[nid]
        if isinstance(node, Block):
            for a in node.assignments:
                c = a.constraint
                synthetic = c.kind is ConstraintKind.SYNTHETIC_COPY
                out.append((str(a.target), a.rhs.render(), c.loc.line, synthetic))
    return out


def test_absminus_cfg_two_decisions():
    text, _, _ = corpus_entry("absminus")
    g = build_cfg(parse_program(text))
    assert g.decision_order == ("d9", "d11")
    assert str(g.nodes["d9"].guard) == "i_0 <= j_0"
    _check_edge_maps(g)


def _check_edge_maps(g):
    """Decisions map exactly `then` and `else`, other blocks `next`, the exit
    nothing; each assignment's sides are its constraint's formula."""
    decisions = [nid for nid, node in g.nodes.items() if isinstance(node, Decision)]
    assert sorted(decisions) == sorted(g.decision_order)
    for nid, node in g.nodes.items():
        labels = set(g.edges[nid])
        if isinstance(node, Decision):
            assert labels == {THEN, ELSE}, nid
            continue
        assert isinstance(node, Block), nid
        assert labels == (set() if nid == g.exit else {NEXT}), nid
        if nid in (g.entry, g.exit):
            assert node.assignments == [], nid
        for a in node.assignments:
            f = a.constraint.formula
            assert (f.op, f.lhs, f.rhs) == ("==", LinTerm.var(a.target), a.rhs), nid
    assert set(g.edges) == set(g.nodes)


def test_edge_maps_on_corpus_tritype_and_random_programs():
    texts = [corpus_entry(name)[0] for name in corpus_manifest()]
    texts.append((ROOT / "perfbench" / "tritype" / "tritype.src").read_text())
    rng = np.random.default_rng(5)
    texts += [random_program(rng, max_params=3, max_depth=3) for _ in range(40)]
    for text in texts:
        _check_edge_maps(compile_source(text)[1])


def test_straight_line_cfg_shape():
    fn = parse_program(
        "/*@ ensures \\result == x + 1; */ int f (int x) { int y = x + 1; return y; }"
    )
    g = build_cfg(fn)
    assert g.decision_order == ()
    chain = [g.entry]
    while chain[-1] != g.exit:
        assert list(g.edges[chain[-1]]) == [NEXT]
        chain.append(g.edges[chain[-1]][NEXT])
    assert len(chain) == 3
    assert all(isinstance(g.nodes[n], Block) for n in chain)


NESTED = """\
/*@ ensures \\result == 0; */
int f (int a, int b) {
  int x = 0;
  if (a > 0) {
    if (b > 0) { x = 1; }
  }
  else {
    if (b < 0) { x = 2; }
  }
  return x;
}
"""


def test_nested_ifs_three_decisions_depth_first():
    g = build_cfg(parse_program(NESTED))
    # depth-first: outer first, then the then-branch's, then the else-branch's
    assert g.decision_order == ("d4", "d5", "d8")
    # hand-constructed path set: 4 entry-to-exit paths through the diamonds
    paths = list(enumerate_paths(g))
    assert len(paths) == 4
    dec_seqs = {
        tuple(n for n in p if isinstance(g.nodes[n], Decision)) for p in paths
    }
    assert dec_seqs == {("d4", "d5"), ("d4", "d8")}
    # hand-checked edge set around the outer decision
    assert g.edges["d4"] == {THEN: "d5", ELSE: "d8"}
    for d in ("d5", "d8"):
        for label in (THEN, ELSE):
            dst = g.edges[d][label]
            assert isinstance(g.nodes[dst], Block)


def test_absminus_dsa_matches_worked_example():
    text, _, _ = corpus_entry("absminus")
    g = build_cfg(parse_program(text))
    rows = _assignment_texts(g)
    assert ("k_0", "0", 8, False) in rows
    assert ("k_1", "k_0 + 2", 10, False) in rows
    # the else branch of line 9 gets the synthetic copy, located at line 9
    assert ("k_1", "k_0", 9, True) in rows
    # both branches of the second decision share result_1; no synthetic copy
    assert ("result_1", "j_0 - i_0", 12, False) in rows
    assert ("result_1", "i_0 - j_0", 14, False) in rows
    assert not any(r[0].startswith("result") and r[3] for r in rows)
    assert str(g.nodes["d11"].guard) == "k_1 = 1 && i_0 != j_0"
    post = str(g.postcondition)
    assert "result_1" in post and "i_0" in post and "j_0" in post


def test_dsa_unmodified_variable_keeps_version_zero():
    fn = parse_program(
        "/*@ ensures \\result == x; */ int f (int x) { int y = x; "
        "if (x > 0) { } else { } return y; }"
    )
    g = build_cfg(fn)
    rows = _assignment_texts(g)
    assert rows == [("y_0", "x_0", 1, False)]


def test_dsa_both_branches_share_target_version():
    fn = parse_program(
        "/*@ ensures \\result == 0; */ int f (int c) { int x = 0; "
        "if (c > 0) { x = 1; } else { x = 2; } return x; }"
    )
    g = build_cfg(fn)
    rows = _assignment_texts(g)
    targets = [r[0] for r in rows]
    assert targets.count("x_1") == 2
    assert not any(r[3] for r in rows), "no synthetic copy when both branches assign"


def test_dsa_unbalanced_assignment_counts():
    fn = parse_program(
        "/*@ ensures \\result == 0; */ int f (int c) { int x = 0; "
        "if (c > 0) { x = 1; x = x + 1; } else { x = 5; } return x; }"
    )
    g = build_cfg(fn)
    rows = _assignment_texts(g)
    assert ("x_2", "x_1", 1, True) in rows  # synthetic on the else side
    assert ("x_2", "x_1 + 1", 1, False) in rows
    assert ("x_1", "5", 1, False) in rows


def _paths_have_single_assignment(cfg):
    for path in enumerate_paths(cfg):
        seen = set()
        for nid in path:
            node = cfg.nodes[nid]
            if isinstance(node, Block):
                for a in node.assignments:
                    assert a.target not in seen, f"{a.target} assigned twice on a path"
                    seen.add(a.target)


def test_path_single_assignment_on_corpus():
    for name in corpus_manifest():
        text, _, _ = corpus_entry(name)
        _, g = compile_source(text)
        _paths_have_single_assignment(g)


def test_dsa_properties_on_random_programs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        text = random_program(rng, max_params=3, max_depth=2)
        fn, g = compile_source(text)
        _paths_have_single_assignment(g)
        _check_semantics_preserved(fn, g)
        _check_synthetic_copies_are_identity(fn, g)


def _inputs_grid(fn, lo=-4, hi=4):
    names = fn.param_names
    axes = np.meshgrid(*([np.arange(lo, hi + 1)] * len(names)), indexing="ij")
    for idx in range(axes[0].size):
        yield {n: int(ax.ravel()[idx]) for n, ax in zip(names, axes)}


def _check_semantics_preserved(fn, g):
    result_name = _final_result_name(g)
    for inputs in _inputs_grid(fn):
        expected = interpret(fn, inputs).result
        trace = propagate(g, Counterexample.of(inputs, fn.param_names), (), WIDE)
        assert trace.final_model[result_name] == expected


def _final_result_name(g):
    from faultlines.formulas import formula_vars

    candidates = [
        n for n in formula_vars(g.postcondition) if n.base == g.result_var and n.version > 0
    ]
    if candidates:
        return max(candidates, key=lambda n: n.version)
    return SsaName(g.result_var, 0)


def _check_synthetic_copies_are_identity(fn, g):
    """Dropping synthetic copies and resolving aliases never changes results."""
    result_name = _final_result_name(g)
    for inputs in _inputs_grid(fn):
        ce = Counterexample.of(inputs, fn.param_names)
        trace = propagate(g, ce, (), WIDE)
        # replay the trace skipping synthetic copies, with alias resolution
        model = {SsaName(p, 0): v for p, v in ce.items}
        alias = {}

        def resolve(name):
            while name in alias:
                name = alias[name]
            return name

        nid = g.entry
        steps = iter(trace.decisions)
        while nid != g.exit:
            node = g.nodes[nid]
            if isinstance(node, Decision):
                nid = g.edges[nid][next(steps).taken]
                continue
            if isinstance(node, Block):
                for a in node.assignments:
                    if a.constraint.kind is ConstraintKind.SYNTHETIC_COPY:
                        alias[a.target] = resolve(a.rhs.names[0])
                    else:
                        term = a.rhs
                        value = term.const + sum(
                            c * model[resolve(n)] for n, c in term.coeffs
                        )
                        model[a.target] = value
            nid = g.edges[nid][NEXT]
        assert model[resolve(result_name)] == trace.final_model[result_name]


def test_dot_rendering():
    text, _, _ = corpus_entry("absminus")
    _, g = compile_source(text)
    dot = render_dot(g)
    assert dot.startswith('digraph "AbsMinus"')
    assert "k_1 = k_0 + 2 @ 10" in dot
    assert "(synthetic)" in dot
    assert '[label="then"]' in dot and '[label="else"]' in dot


@pytest.mark.parametrize("name", sorted(corpus_manifest()))
def test_dot_matches_golden(name):
    text, _, _ = corpus_entry(name)
    _, g = compile_source(text)
    golden = (CORPUS / "expected" / f"{name}.dot").read_bytes()
    assert render_dot(g).encode("utf-8") == golden


def test_build_requires_return():
    from faultlines.cfg import CfgError
    from faultlines.frontend import Function, Param, SourceLoc

    # hand-built AST without a return is rejected at CFG construction
    fn = Function(
        name="broken",
        params=(Param("x", SourceLoc(1, 1)),),
        body=(),
        precondition=None,
        postcondition=parse_program(
            "/*@ ensures \\result == x; */ int ok (int x) { return x; }"
        ).postcondition,
        loc=SourceLoc(1, 1),
    )
    with pytest.raises(CfgError):
        build_cfg(fn)


def test_build_refuses_implies_in_if_condition():
    # build_cfg takes a typechecked function; this one is not, and '==>'
    # lowers only in the annotations
    fn = parse_program(
        "/*@ ensures \\result == x; */ int f (int x) { if (x > 0 ==> x > 1) { x = 1; } return x; }"
    )
    with pytest.raises(TypeError, match="==>"):
        build_cfg(fn)


def test_precondition_lowers_as_interpreted():
    fn, g = compile_source((ROOT / "perfbench" / "tritype" / "tritype.src").read_text())
    for i, j, k in product(range(-2, 3), repeat=3):
        model = {SsaName("i", 0): i, SsaName("j", 0): j, SsaName("k", 0): k}
        expected = interpret(fn, {"i": i, "j": j, "k": k}).precondition_holds
        assert eval_formula(g.precondition, model) == expected, (i, j, k)


def test_precondition_lowers_implies_and_defaults_to_true():
    _, g = compile_source(
        "/*@ requires x > 0 ==> y > 0; ensures \\result == x; */ int f (int x, int y) { return x; }"
    )
    assert str(g.precondition) == "x_0 <= 0 || y_0 > 0"
    _, g = compile_source(corpus_entry("absminus")[0])
    assert g.precondition == TRUE


def test_build_refuses_result_in_requires():
    # not typechecked: `\result` lowers only in the postcondition
    fn = parse_program(
        "/*@ requires \\result > 0; ensures \\result == x; */ int f (int x) { return x; }"
    )
    with pytest.raises(TypeError, match="ResultRef"):
        build_cfg(fn)


def test_assignment_ids_are_0_to_n_minus_1():
    # only the n assignments (the soft constraints) are numbered: 0 .. n - 1
    rng = np.random.default_rng(11)
    texts = [corpus_entry(name)[0] for name in corpus_manifest()]
    texts += [random_program(rng, max_params=3, max_depth=2) for _ in range(20)]
    for text in texts:
        _, g = compile_source(text)
        ids = [a.constraint.id for a in iter_assignments(g)]
        assert ids == list(range(len(ids)))


def test_branch_local_declaration_stays_local():
    fn, g = compile_source(
        """/*@ ensures \\result == 0; */
int f (int c) {
  int x = 0;
  if (c > 0) {
    int t = 1;
    x = t;
  }
  return x;
}
"""
    )
    rows = _assignment_texts(g)
    assert ("t_0", "1", 5, False) in rows
    assert ("x_1", "t_0", 6, False) in rows
    assert ("x_1", "x_0", 4, True) in rows  # synthetic copy on the else side
    _paths_have_single_assignment(g)
