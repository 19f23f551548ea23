import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from faultlines.formulas import (
    And,
    Atom,
    FALSE,
    LinTerm,
    Not,
    Or,
    SsaName,
    TRUE,
    assign_to_constraint,
    bool_expr_to_formula,
    eval_formula,
    formula_vars,
    linterm_from_expr,
    negate,
    nnf,
)
from faultlines.frontend import SourceLoc, parse_program

from helpers import eval_formula_grid

K0 = SsaName("k", 0)
K1 = SsaName("k", 1)
I0 = SsaName("i", 0)
J0 = SsaName("j", 0)
R1 = SsaName("r", 1)
LOC = SourceLoc(10, 3)


def atom(op, lhs, rhs):
    return Atom(op, lhs, rhs)


def var(n):
    return LinTerm.var(n)


def const(v):
    return LinTerm.constant(v)


# --- assign_to_constraint -----------------------------------------------------


def test_assignment_constraint_from_paper_line10():
    c = assign_to_constraint(K1, var(K0) + const(2), LOC, cid=7)
    assert c.render() == "k_1 = k_0 + 2 @ line 10"
    assert c.kind.value == "assignment"
    assert c.id == 7


def test_synthetic_identity_copy():
    x1, x0 = SsaName("x", 1), SsaName("x", 0)
    c = assign_to_constraint(x1, var(x0), LOC, synthetic=True)
    assert c.kind.value == "synthetic_copy"
    assert str(c.formula) == "x_1 = x_0"


def test_assignment_constraint_line12():
    c = assign_to_constraint(R1, var(J0) - var(I0), SourceLoc(12, 3))
    assert str(c.formula) == "r_1 = j_0 - i_0"


# --- negate -------------------------------------------------------------------


def test_negate_guard_from_paper():
    # not(k = 1 && i != j)  ==  k != 1 || i = j
    guard = And((atom("==", var(K1), const(1)), atom("!=", var(I0), var(J0))))
    neg = negate(guard)
    assert neg == Or((atom("!=", var(K1), const(1)), atom("==", var(I0), var(J0))))


def test_negate_constants():
    assert negate(TRUE) == FALSE
    assert negate(FALSE) == TRUE


def test_double_negation_eliminated():
    f = atom("<", var(I0), var(J0))
    assert nnf(Not(Not(f))) == f
    assert negate(Not(f)) == f


# --- eval ---------------------------------------------------------------------


def test_eval_guard_examples():
    assert eval_formula(atom("<=", var(I0), var(J0)), {I0: 0, J0: 1})
    guard = And((atom("==", var(K1), const(1)), atom("!=", var(I0), var(J0))))
    assert not eval_formula(guard, {K1: 2, I0: 0, J0: 1})
    x = SsaName("x", 0)
    assert eval_formula(atom("==", var(x), var(x)), {x: -7})


def test_eval_unbound_variable():
    import pytest

    from faultlines.formulas import UnboundVariableError

    with pytest.raises(UnboundVariableError):
        eval_formula(atom("==", var(I0), const(0)), {})


# --- canonical linear terms ----------------------------------------------------


def test_linterm_canonicalization():
    a = LinTerm.of({I0: 1, J0: 2}, 3)
    b = (var(J0) + var(I0) + var(J0)) + const(3)
    assert a == b
    assert hash(a) == hash(b)
    # cancelling coefficients are dropped entirely
    c = (var(I0) - var(I0)) + const(0)
    assert c == LinTerm.constant(0)
    assert c.coeffs == ()


def test_linterm_from_expr_folds_constants():
    fn = parse_program(
        "/*@ ensures \\result == 0; */ int f (int x) { return 2*x + x*3 - (1+1)*x; }"
    )
    from faultlines.cfg import _rename, _version0

    t = linterm_from_expr(_rename(fn.body[0].expr, _version0))
    assert t == LinTerm.of({SsaName("x", 0): 3}, 0)


def test_linterm_rendering():
    assert (var(J0) - var(I0)).render() == "j_0 - i_0"
    assert (var(K0) + const(2)).render() == "k_0 + 2"
    assert LinTerm.of({I0: -2}, -1).render() == "-2*i_0 - 1"
    assert LinTerm.constant(0).render() == "0"


def test_implies_is_eliminated():
    fn = parse_program(
        "/*@ ensures (x > 0) ==> (\\result == x); */ int f (int x) { return x; }"
    )
    from faultlines.cfg import build_cfg

    post = build_cfg(fn).postcondition
    f = bool_expr_to_formula(post)
    assert isinstance(f, Or)


# --- property tests -------------------------------------------------------------

_NAMES = [SsaName("a", 0), SsaName("b", 0), SsaName("c", 1)]


def _linterms():
    coeff = st.integers(-3, 3)
    return st.builds(
        lambda cs, k: LinTerm.of(dict(zip(_NAMES, cs)), k),
        st.tuples(coeff, coeff, coeff),
        st.integers(-5, 5),
    )


def _atoms():
    return st.builds(
        Atom, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), _linterms(), _linterms()
    )


def _formulas():
    return st.recursive(
        _atoms() | st.just(TRUE) | st.just(FALSE),
        lambda kids: st.builds(lambda a, b: And((a, b)), kids, kids)
        | st.builds(lambda a, b: Or((a, b)), kids, kids)
        | st.builds(Not, kids),
        max_leaves=6,
    )


def _models():
    value = st.integers(-4, 4)
    return st.builds(lambda a, b, c: dict(zip(_NAMES, (a, b, c))), value, value, value)


@settings(max_examples=300, deadline=None)
@given(_formulas(), _models())
def test_negate_flips_evaluation(f, m):
    assert eval_formula(negate(f), m) == (not eval_formula(f, m))


@settings(max_examples=300, deadline=None)
@given(_formulas(), _models())
def test_negate_is_involution_semantically(f, m):
    assert eval_formula(negate(negate(f)), m) == eval_formula(f, m)


@settings(max_examples=200, deadline=None)
@given(_formulas(), _models())
def test_nnf_preserves_evaluation(f, m):
    assert eval_formula(nnf(f), m) == eval_formula(f, m)


@settings(max_examples=100, deadline=None)
@given(_formulas())
def test_grid_eval_matches_scalar_eval(f):
    lo, hi = -2, 2
    axes = np.meshgrid(*([np.arange(lo, hi + 1)] * 3), indexing="ij")
    grids = {n: ax.ravel() for n, ax in zip(_NAMES, axes)}
    vec = eval_formula_grid(f, grids)
    for flat in (0, 17, 124):
        model = {n: int(grids[n][flat]) for n in _NAMES}
        assert bool(vec[flat]) == eval_formula(f, model)


def test_formula_vars():
    f = And((atom("==", var(I0), const(0)), Or((atom("<", var(J0), var(K1)), TRUE))))
    assert formula_vars(f) == {I0, J0, K1}
