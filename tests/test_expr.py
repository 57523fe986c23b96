"""Parser, evaluator, and symbolic derivative tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakgal import expr
from weakgal.expr import (
    Binary, Const, EvalError, ExprAst, ParseError, Pow, Unary, Var, diff, evaluate_many, parse,
)


def test_numeric_literals_and_pi():
    assert parse("2", 1)((0.0,)) == 2.0
    assert parse("2.5e-1", 1)((0.0,)) == 0.25
    assert parse("pi", 1)((0.0,)) == math.pi


def test_variables_are_one_based():
    e = parse("x1 + 2*x3", 3)
    assert e((1.0, 10.0, 100.0)) == 201.0
    with pytest.raises(ParseError):
        parse("x4", 3)
    with pytest.raises(ParseError):
        parse("x0", 3)


def test_precedence_and_associativity():
    assert parse("1 + 2*3", 1)((0.0,)) == 7.0
    assert parse("2*3 ^ 2", 1)((0.0,)) == 18.0
    assert parse("-x1^2", 1)((3.0,)) == -9.0
    assert parse("2 - 3 - 4", 1)((0.0,)) == -5.0
    assert parse("(1+1)^3", 1)((0.0,)) == 8.0


def test_functions():
    x = 0.37
    e = parse("sin(x1) + cos(x1) + exp(x1) + tanh(x1)", 1)
    want = math.sin(x) + math.cos(x) + math.exp(x) + math.tanh(x)
    assert e((x,)) == pytest.approx(want, rel=1e-15)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("sin(x1", 1)
    assert "offset" in str(err.value) or err.value.offset >= 0
    with pytest.raises(ParseError):
        parse("1 +", 1)
    with pytest.raises(ParseError):
        parse("x1 $ 2", 1)


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^2.5", 1)
    with pytest.raises(ParseError):
        parse("x1^x1", 1)
    assert parse("x1^-2", 1)((2.0,)) == 0.25


# Python's grammar, cut down: accepted forms with their trees, then rejected
# forms with the offset of the first bad character in the original text
_ACCEPTED = (
    ("x1^(2)", Pow(Var(1), 2)),
    ("x1^-(2)", Pow(Var(1), -2)),
    ("x1^2.0", Pow(Var(1), 2)),
    ("(x1^2)^3", Pow(Pow(Var(1), 2), 3)),
    ("-x1^2", Unary("neg", Pow(Var(1), 2))),
    ("(sin)(x1)", Unary("sin", Var(1))),
    ("\tx1 +\n 2", Binary("add", Var(1), Const(2.0))),
    ("x01", Var(1)),
    ("x" + "0" * 5000 + "2", Var(2)),
    ("1.e1", Const(10.0)),
    ("(" * 200 + "x1" + ")" * 200, Var(1)),
)
_REJECTED = (
    ("x1^2^3", 3), ("x1 ^ 2 ^ 3", 5), ("x1^--2", 4), ("x1^x1", 3), ("x1^2.5", 3),
    ("01", 0), ("x1 + 007", 5), ("\u0663", 0), ("x1\xa0+ 1", 2), ("x1 + \u0663", 5),
    ("x1**2", 2), ("x1 # c", 3), ("'x1'", 0), ("sin(x1, x2)", 6), ("[x1]", 0),
    ("1_0", 1), ("0x1f", 0), ("0o7", 0), ("0b1", 0), ("1j", 0), ("True", 0), ("None", 0),
    ("+x1", 0), ("x1 // 2", 0), ("sin(*x1)", 4), ("pi(x1)", 0), ("sin", 0), ("x1 if x1 else 2", 0),
    ("1if x1 else 2", 0), ("x2^2 + x4", 7), ("2*^3", 2), ("", 0), ("  ", 2), ("x1 +", 4),
    ("x1 + x" + "9" * 5000, 5),
)


def test_grammar_accepts_and_rejects_each_form_at_its_offset():
    for text, root in _ACCEPTED:
        assert parse(text, 3).root == root, text
    for text, offset in _REJECTED:
        with pytest.raises(ParseError) as err:
            parse(text, 3)
        assert err.value.offset == offset, (text, str(err.value))


def test_too_deep_a_tree_is_an_expr_error_at_each_step():
    with pytest.raises(ParseError, match="nests too deeply"):
        parse("+".join(["x1"] * 1000), 1)
    deep = Var(1)
    for _ in range(5000):
        deep = Unary("neg", deep)
    with pytest.raises(expr.ExprError, match="nests too deeply"):
        ExprAst(deep, 1)
    tree = ExprAst(Var(1), 1)
    object.__setattr__(tree, "root", deep)  # past the construction check
    with pytest.raises(expr.ExprError, match="nests too deeply"):
        diff(tree, 1)
    with pytest.raises(EvalError, match="nests too deeply"):
        evaluate_many(tree, np.array([[0.5]]))


def test_batch_evaluation_shape():
    e = parse("x1*x2", 2)
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = evaluate_many(e, pts)
    assert out.shape == (3,)
    np.testing.assert_allclose(out, [2.0, 12.0, 30.0])
    with pytest.raises(expr.ExprError):
        evaluate_many(e, np.zeros((3, 3)))


def test_call_dispatches_on_shape():
    e = parse("x1^2", 1)
    assert e((3.0,)) == 9.0
    out = e(np.array([[1.0], [2.0]]))
    np.testing.assert_allclose(out, [1.0, 4.0])


def test_division_by_zero_raises():
    e = parse("1/x1", 1)
    with pytest.raises(EvalError):
        evaluate_many(e, np.array([[0.0]]))


def test_zero_to_negative_power_raises():
    e = parse("x1^-1", 1)
    with pytest.raises(EvalError):
        evaluate_many(e, np.array([[0.0]]))


def test_exp_overflow_raises():
    e = parse("exp(x1)", 1)
    with pytest.raises(EvalError):
        evaluate_many(e, np.array([[1000.0]]))


def test_intermediate_overflow_not_masked():
    # 1/exp(1000) would be 0.0 if the overflow were silently accepted
    e = parse("1/exp(x1)", 1)
    with pytest.raises(EvalError):
        evaluate_many(e, np.array([[1000.0]]))


def test_overflowing_literal_rejected_at_its_offset():
    for text, offset in (("1e400", 0), ("x1 + 2*1e309", 7), ("x1^1e400", 3)):
        with pytest.raises(ParseError) as err:
            parse(text, 1)
        assert err.value.offset == offset, text
    assert parse("1e-400 + x1", 1)((2.0,)) == 2.0  # underflow to zero is finite


def test_overflow_raises_eval_error_not_a_warning():
    e = parse("x1*1e308*10", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalError, match="overflow encountered in multiply"):
            evaluate_many(e, np.array([[1.0]]))


def test_error_names_the_op_and_flag():
    cases = (("exp(x1)", 1000.0, "overflow encountered in exp"),
             ("1/x1", 0.0, "divide by zero encountered in divide"),
             ("x1/x1", 0.0, "invalid value encountered in divide"),
             ("x1^-2", 0.0, "divide by zero encountered in power"))
    for text, x, message in cases:
        with pytest.raises(EvalError, match=message):
            evaluate_many(parse(text, 1), np.array([[0.5], [x]]))


def test_constant_folded_to_infinity_raises():
    # inf * x sets no floating-point flag, so the constant itself must be caught
    d = diff(parse("1e200*(1e200*x1)", 1), 1)
    assert d.root == Const(math.inf)
    with pytest.raises(EvalError):
        evaluate_many(d, np.array([[0.5]]))
    with pytest.raises(EvalError):
        evaluate_many(ExprAst(Binary("mul", Const(math.nan), Var(1)), 1), np.array([[0.5]]))


def test_unknown_op_is_an_expr_error():
    for node in (Unary("log", Var(1)), Binary("pow", Var(1), Var(1)), Unary("add", Var(1))):
        with pytest.raises(expr.ExprError, match="unknown"):
            evaluate_many(ExprAst(node, 1), np.array([[0.5]]))


def test_diff_basic_rules():
    pts = np.linspace(0.05, 0.95, 7).reshape(-1, 1)
    cases = [
        ("x1^3", lambda x: 3 * x**2),
        ("sin(pi*x1)", lambda x: math.pi * np.cos(math.pi * x)),
        ("exp(-2*x1)", lambda x: -2 * np.exp(-2 * x)),
        ("tanh(x1)", lambda x: 1 - np.tanh(x) ** 2),
        ("1/(1+x1)", lambda x: -1 / (1 + x) ** 2),
        ("x1*cos(x1)", lambda x: np.cos(x) - x * np.sin(x)),
    ]
    for text, dref in cases:
        d = diff(parse(text, 1), 1)
        np.testing.assert_allclose(
            evaluate_many(d, pts), dref(pts[:, 0]), rtol=1e-12, atol=1e-12
        )


def test_diff_wrt_absent_variable_is_zero():
    d = diff(parse("sin(x1)", 2), 2)
    pts = np.array([[0.3, 0.9], [0.1, 0.5]])
    np.testing.assert_array_equal(evaluate_many(d, pts), [0.0, 0.0])


def test_diff_matches_finite_differences_property():
    rng = np.random.default_rng(20240817)
    texts = [
        "sin(pi*x1)*cos(x2)",
        "exp(-x1*x2) + x2^3",
        "tanh(2*x1 - x2) / (2 + x1)",
        "(x1 + x2)^4 - x1*x2",
        "cos(x1)^2 * sin(x2)",
    ]
    h = 1e-5
    for text in texts:
        e = parse(text, 2)
        for i in (1, 2):
            d = diff(e, i)
            for _ in range(10):
                p = rng.uniform(0.1, 0.9, size=2)
                pp = p.copy()
                pm = p.copy()
                pp[i - 1] += h
                pm[i - 1] -= h
                fd = (e(tuple(pp)) - e(tuple(pm))) / (2 * h)
                got = d(tuple(p))
                assert abs(got - fd) <= 1e-6 * (1.0 + abs(fd)), (text, i, p)


def test_constant_folding_neutral_elements():
    # smart constructors drop additive/multiplicative identities
    e = diff(parse("x1 + 0*x2", 2), 1)
    assert e.root == Const(1.0)


def _scanning_eval(node, pts):
    """The per-node scanning walk that the trapped evaluator replaced, kept as
    its reference: every intermediate is checked for finiteness."""

    def finite(value):
        if not np.all(np.isfinite(np.asarray(value))):
            raise EvalError("non-finite intermediate value")
        return value

    if isinstance(node, Const):
        return finite(node.value)
    if isinstance(node, Var):
        return pts[:, node.index - 1]
    if isinstance(node, Unary):
        a = _scanning_eval(node.arg, pts)
        ops = {"neg": np.negative, "sin": np.sin, "cos": np.cos, "tanh": np.tanh}
        if node.op == "exp":
            return finite(np.exp(a))
        return ops[node.op](a)
    if isinstance(node, Binary):
        a = _scanning_eval(node.left, pts)
        b = _scanning_eval(node.right, pts)
        if node.op == "div" and np.any(np.asarray(b, dtype=np.float64) == 0.0):
            raise EvalError("division by zero")
        ops = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}
        return finite(ops[node.op](a, b))
    a = np.asarray(_scanning_eval(node.base, pts), dtype=np.float64)
    if node.exponent < 0 and np.any(a == 0.0):
        raise EvalError("zero raised to a negative power")
    return finite(np.power(a, node.exponent))


def _reference_many(ast, pts):
    with np.errstate(all="ignore"):
        out = np.asarray(_scanning_eval(ast.root, pts), dtype=np.float64)
    return np.full(pts.shape[0], float(out)) if out.ndim == 0 else out


def _outcome(evaluate, ast, pts):
    """The bytes of the result, or None if evaluation raised EvalError."""
    try:
        out = evaluate(ast, pts)
    except EvalError:
        return None
    assert out.dtype == np.float64 and out.shape == (pts.shape[0],)
    return out.tobytes()


_CONSTANTS = st.sampled_from([0.0, -0.0, 1.0, 1e200, -1e200, 1e-200]) | st.floats(-4.0, 4.0)
_LEAVES = _CONSTANTS.map(Const) | st.integers(1, 2).map(Var)
_TREES = st.recursive(
    _LEAVES,
    lambda children: (
        st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp", "tanh"]), children)
        | st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children)
        | st.builds(Pow, children, st.integers(-3, 5))
    ),
    max_leaves=20,
).map(lambda root: ExprAst(root, 2))
_COORDS = st.sampled_from([0.0, -0.0, 1.0, 800.0, -800.0]) | st.floats(-3.0, 3.0)
_POINTS = st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=6).map(
    lambda rows: np.array(rows, dtype=np.float64)
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_TREES, _POINTS)
def test_trapped_evaluation_matches_scanning_walk(ast, pts):
    """Both raise EvalError or both return the same bits, on a tree and on its
    derivative (whose folded constants can overflow to infinity)."""
    for tree in (ast, diff(ast, 1)):
        assert _outcome(evaluate_many, tree, pts) == _outcome(_reference_many, tree, pts), tree

