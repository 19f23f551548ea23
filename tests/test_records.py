"""Semantics of the record types that the rest of the package relies on.

Formula and AST nodes of different classes never compare equal, AST
equality and hashing ignore source locations, versioned names and source
locations sort as (base, version) and (line, column), configurations
validate their fields with fixed messages, and statistics counters start
at zero.  Source locations are not validated when built, so every token
and AST node the front end makes is checked to point inside its text.
"""

import numpy as np
import pytest

from faultlines.explorer import ExplorerConfig, Statistics
from faultlines.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolConst,
    ConstraintSet,
    LinTerm,
    Or,
    SsaName,
    assign_to_constraint,
)
from faultlines.frontend import (
    Arith,
    BoolNot,
    Cmp,
    IntLit,
    Neg,
    Param,
    SourceLoc,
    VarRef,
    _tokenize,
    parse_program,
)
from faultlines.mcs import McsConfig
from faultlines.solver import DomainConfig

from helpers import CORPUS, ROOT, random_program

X0 = SsaName("x", 0)
AT = SourceLoc(1, 1)
LE = Atom("<=", LinTerm.var(X0), LinTerm.constant(3))
GT = Atom(">", LinTerm.var(X0), LinTerm.constant(3))


# --- formulas -------------------------------------------------------------------


def test_formula_classes_with_equal_fields_are_unequal():
    items = (LE, GT)
    assert And(items) != Or(items)
    assert not And(items) == Or(items)
    assert And(items) == And(items) and hash(And(items)) == hash(And(items))
    assert len({And(items), Or(items), And(items)}) == 2
    assert BoolConst(True) == TRUE and TRUE != FALSE
    assert TRUE != (True,)
    assert And((LE,)) != Or((LE,)) != And((GT,))


def test_ssa_names_sort_by_base_then_version():
    names = [SsaName("b", 0), SsaName("a", 10), SsaName("a", 2), SsaName("_ret", 1)]
    assert sorted(names) == [SsaName("_ret", 1), SsaName("a", 2), SsaName("a", 10), SsaName("b", 0)]
    assert SsaName("a", 2) < SsaName("a", 10) < SsaName("b", 0)
    assert hash(SsaName("a", 1)) == hash(SsaName("a", 1))


def test_constraint_set_rejects_misplaced_kinds_and_duplicate_ids():
    soft = assign_to_constraint(X0, LinTerm.constant(1), AT, cid=0)
    with pytest.raises(ValueError, match=r"^hard entry is not a formula: Constraint\(id=0, "):
        ConstraintSet((soft,), ())
    with pytest.raises(ValueError, match=r"^soft entry is not a constraint: Atom\(op='<=', "):
        ConstraintSet((), (LE,))
    with pytest.raises(ValueError, match=r"^soft constraint ids must be unique$"):
        ConstraintSet((), (soft, soft))
    cs = ConstraintSet.of([LE], [soft])
    assert (cs.hard, cs.soft) == ((LE,), (soft,))


# --- AST and source locations -----------------------------------------------------


def test_ast_equality_and_hash_ignore_locations():
    a, b = SourceLoc(1, 1), SourceLoc(7, 30)
    x_a, x_b = VarRef("x", a), VarRef("x", b)
    assert x_a == x_b and hash(x_a) == hash(x_b)
    sum_a = Arith("+", x_a, IntLit(1, a), a)
    sum_b = Arith("+", x_b, IntLit(1, b), b)
    assert sum_a == sum_b and hash(sum_a) == hash(sum_b)
    assert sum_a != Arith("-", x_a, IntLit(1, a), a)
    assert sum_a != Arith("+", x_a, IntLit(2, a), a)
    fn = parse_program("/*@ ensures \\result == x; */ int f (int x) { return x; }")
    moved = parse_program("\n\n/*@\n @ ensures \\result == x;\n @*/\nint  f(int x){\n return x;}")
    assert fn.loc != moved.loc
    assert fn == moved and hash(fn) == hash(moved)
    assert fn != parse_program("/*@ ensures \\result == x; */ int g (int x) { return x; }")


def test_ast_classes_with_equal_fields_are_unequal():
    x = VarRef("x", AT)
    assert Neg(x, AT) != BoolNot(x, AT)
    assert Arith("+", x, x, AT) != Cmp("+", x, x, AT)
    assert VarRef("x", AT) != Param("x", AT)
    assert IntLit(1, AT) != VarRef(1, AT)
    assert len({Neg(x, AT), BoolNot(x, AT), Neg(x, SourceLoc(2, 2))}) == 2


def test_source_locations_sort_by_line_then_column():
    locs = [SourceLoc(2, 1), SourceLoc(1, 10), SourceLoc(1, 2)]
    assert sorted(locs) == [SourceLoc(1, 2), SourceLoc(1, 10), SourceLoc(2, 1)]
    assert SourceLoc(1, 9) < SourceLoc(2, 1) and max(locs) == SourceLoc(2, 1)
    assert str(SourceLoc(3, 14)) == "3:14"


_CHILDREN = (
    "operand", "lhs", "rhs", "init", "cond", "expr", "then_body", "else_body",
    "params", "body", "precondition", "postcondition",
)


def _ast_locs(node):
    """Every location an AST holds."""
    if isinstance(node, tuple) and not hasattr(node, "loc"):
        for item in node:
            yield from _ast_locs(item)
        return
    if node is None or isinstance(node, (int, str)):
        return
    yield node.loc
    for name in _CHILDREN:
        if hasattr(node, name):
            yield from _ast_locs(getattr(node, name))


def _front_end_texts():
    for path in sorted(CORPUS.glob("*.src")):
        yield path.name, path.read_text()
    yield "tritype", (ROOT / "perfbench" / "tritype" / "tritype.src").read_text()
    rng = np.random.default_rng(13)
    for i in range(40):
        yield f"random{i}", random_program(rng, max_depth=3)


def test_every_token_and_node_points_inside_its_text():
    for name, text in _front_end_texts():
        lines = text.split("\n")
        for tok in _tokenize(text):
            line, col = tok.loc.line, tok.loc.column
            assert 1 <= line <= len(lines) and col >= 1, (name, tok)
            if tok.kind == "eof":
                assert (line, col) == (len(lines), len(lines[-1]) + 1), (name, tok)
            else:
                assert lines[line - 1].startswith(tok.text, col - 1), (name, tok)
        fn = parse_program(text)
        count = 0
        for loc in _ast_locs(fn):
            count += 1
            assert 1 <= loc.line <= len(lines), (name, loc)
            assert 1 <= loc.column <= len(lines[loc.line - 1]), (name, loc)
        assert count >= 4, name


# --- configurations and statistics -------------------------------------------------


def test_configs_keep_keyword_constructors_and_defaults():
    assert (DomainConfig().lo, DomainConfig().hi) == (-32768, 32767)
    assert DomainConfig(-8, 8) == DomainConfig(lo=-8, hi=8)
    assert DomainConfig(lo=5).hi == 32767 and DomainConfig(5, 5).lo == 5
    assert (McsConfig().b_mcs, McsConfig().k_max) == (3, 2)
    config = ExplorerConfig(b_cond=1, mcs=McsConfig(b_mcs=4, k_max=1), dom=DomainConfig(-3, 5))
    assert (config.b_cond, config.mcs.b_mcs, config.mcs.k_max) == (1, 4, 1)
    assert (config.dom.lo, config.dom.hi) == (-3, 5)
    assert ExplorerConfig() == ExplorerConfig(2, McsConfig(), DomainConfig())
    assert ExplorerConfig(b_cond=3) != ExplorerConfig()
    assert hash(ExplorerConfig()) == hash(ExplorerConfig(b_cond=2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DomainConfig(1, 0), "empty domain [1, 0]"),
        (lambda: DomainConfig(lo=40000), "empty domain [40000, 32767]"),
        (lambda: McsConfig(b_mcs=0), "b_mcs and k_max must be >= 1"),
        (lambda: McsConfig(k_max=0), "b_mcs and k_max must be >= 1"),
        (lambda: ExplorerConfig(b_cond=-1), "b_cond must be >= 0"),
    ],
)
def test_config_validation_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_statistics_start_at_zero_and_count_up():
    stats = Statistics()
    counters = (
        "paths_explored", "paths_ignored", "rejected_marked", "rejected_prefix",
        "rejected_unreached", "overflow_abandoned", "mcs_enumerations",
        "solver_checks", "solver_propagations", "solver_assertions",
    )
    assert [getattr(stats, name) for name in counters] == [0] * len(counters)
    assert stats.rejected == 0
    for i, name in enumerate(counters):
        setattr(stats, name, getattr(stats, name) + i + 1)
    stats.rejected_marked += 1
    assert [getattr(stats, name) for name in counters] == [
        1, 2, 4, 4, 5, 6, 7, 8, 9, 10
    ]
    assert stats.rejected == 8
    assert Statistics().paths_explored == 0


def test_mcs_result_iterates_over_its_sets():
    from faultlines.mcs import OK, Mcs, McsResult

    soft = assign_to_constraint(X0, LinTerm.constant(1), AT, cid=7)
    result = McsResult((Mcs((soft,)),), OK)
    assert len(result) == 1 and [m.ids for m in result] == [frozenset({7})]
    assert result.id_sets() == {frozenset({7})} and result.flag == OK
    assert len(McsResult((), OK)) == 0 and list(McsResult((), OK)) == []
