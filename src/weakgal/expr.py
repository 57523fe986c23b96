"""Closed-form scalar expressions over variables x1..xd.

Coefficients, right-hand sides, and exact solutions are all small expression
trees: parse them from text, evaluate them on batches of points, and
differentiate them symbolically (differentiation is closed over the node set,
which is why power exponents are restricted to integers).  The text grammar is
Python's expression grammar cut down to numbers, ``pi``, ``x1..xd``,
``+ - * /``, unary minus, ``sin cos exp tanh`` and ``^``, which binds tightest
and is never chained; ``parse`` states it in full.

Evaluation never lets NaN/Inf escape silently.  The parser rejects a literal
that overflows to infinity, and each evaluation runs under one floating-point
trap: the first op that overflows, divides by zero or makes an invalid value
raises ``EvalError``, even if later ops would mask it.  The error names the
numpy op and the flag (``overflow encountered in exp``), not the sample.
"""

from __future__ import annotations

import ast as pyast
import math
import re
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ExprError",
    "ParseError",
    "EvalError",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Pow",
    "ExprAst",
    "parse",
    "evaluate_many",
    "diff",
    "const",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
]


class ExprError(ValueError):
    """Base class for malformed expressions; a failed evaluation is an ``EvalError``."""


class ParseError(ExprError):
    """Syntax or name error; ``offset`` is the character position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Evaluation produced a non-finite value or divided by zero: a numerical failure."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, i.e. Var(1) is x1


@dataclass(frozen=True)
class Unary:
    op: str  # one of: neg sin cos exp tanh
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of: add sub mul div
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Const, Var, Unary, Binary, Pow]

_FUNCTIONS = ("sin", "cos", "exp", "tanh")


# ---------------------------------------------------------------------------
# smart constructors
#
# Light neutral-element folding only; it keeps derivative trees compact.
# Folding 0*e -> 0 assumes subexpressions are total on the evaluation domain,
# which holds for every expression this package builds internally.


def const(value: float) -> Const:
    return Const(float(value))


def _is_const(node: Node, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def add(left: Node, right: Node) -> Node:
    if _is_const(left, 0.0):
        return right
    if _is_const(right, 0.0):
        return left
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value + right.value)
    return Binary("add", left, right)


def sub(left: Node, right: Node) -> Node:
    if _is_const(right, 0.0):
        return left
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value - right.value)
    if _is_const(left, 0.0):
        return neg(right)
    return Binary("sub", left, right)


def mul(left: Node, right: Node) -> Node:
    if _is_const(left, 0.0) or _is_const(right, 0.0):
        return Const(0.0)
    if _is_const(left, 1.0):
        return right
    if _is_const(right, 1.0):
        return left
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value * right.value)
    return Binary("mul", left, right)


def div(left: Node, right: Node) -> Node:
    if _is_const(right, 1.0):
        return left
    if _is_const(left, 0.0):
        return Const(0.0)
    return Binary("div", left, right)


def neg(arg: Node) -> Node:
    if isinstance(arg, Const):
        return Const(-arg.value)
    return Unary("neg", arg)


@dataclass(frozen=True)
class ExprAst:
    """An expression tree together with the dimension it is declared over.

    All variable indices in ``root`` lie in 1..dim (checked at construction).
    """

    root: Node
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ExprError(f"dimension must be >= 1, got {self.dim}")
        try:
            hi = _max_var_index(self.root)
        except RecursionError:
            raise ExprError("expression nests too deeply") from None
        if hi > self.dim:
            raise ExprError(f"expression uses x{hi} but dim={self.dim}")

    def __call__(self, x):
        """Values on a batch of points (n, dim), or the value at a single point
        (a sequence of length dim) as a float."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            return evaluate_many(self, x)
        return float(evaluate_many(self, x.reshape(1, -1))[0])


def _max_var_index(node: Node) -> int:
    if isinstance(node, Const):
        return 0
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Unary):
        return _max_var_index(node.arg)
    if isinstance(node, Binary):
        return max(_max_var_index(node.left), _max_var_index(node.right))
    if isinstance(node, Pow):
        return _max_var_index(node.base)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# parsing

_BAD_TEXT = re.compile(r"[^A-Za-z0-9 \t\n\r\f\v.+\-*/^()]|\*\*")  # off the alphabet, or Python's **
_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_BINARY_OPS = {pyast.Add: "add", pyast.Sub: "sub", pyast.Mult: "mul", pyast.Div: "div"}


def parse(text: str, dim: int) -> ExprAst:
    """Parse ``text`` into an expression over x1..x<dim>.

    The grammar is Python's expression grammar, read by Python's parser with
    ``^`` as ``**``, restricted to decimal numbers, ``pi``, ``x1..x<dim>``,
    ``+ - * /``, unary minus, one-argument ``sin cos exp tanh`` and ``^``.
    ``^`` binds tightest; its exponent is an integer literal with at most one
    minus sign, so ``x1^2^3`` is an error.  Any other input, ``**`` included,
    raises ``ParseError`` whose ``offset`` indexes ``text``.
    """
    bad = _BAD_TEXT.search(text)
    if bad:
        raise ParseError(f"unexpected {bad.group()!r}", bad.start())
    body = re.sub(r"\s", " ", text).lstrip()  # eval mode rejects an indent
    source = body.replace("^", "**")
    # origin[i] is the offset in text of source[i]; each ^ became two characters
    origin = [len(text) - len(body) + i for i, ch in enumerate(body) for _ in range(1 + (ch == "^"))]
    origin.append(len(text))

    def fail(message: str, col: int):
        raise ParseError(message, origin[min(col, len(source))]) from None

    def segment(node: pyast.expr) -> str:
        return text[origin[node.col_offset]:origin[node.end_col_offset]]

    def number(node: pyast.expr, what: str) -> float:
        if not (isinstance(node, pyast.Constant) and _NUMBER.fullmatch(segment(node))):
            fail(f"expected {what}, got {segment(node)!r}", node.col_offset)
        value = float(segment(node))
        if not math.isfinite(value):
            fail(f"number {segment(node)} overflows the float range", node.col_offset)
        return value

    def exponent(node: pyast.expr) -> int:
        value = number(node, "an integer literal as power exponent")
        if value != int(value):
            fail(f"power exponent must be an integer, got {segment(node)}", node.col_offset)
        return int(value)

    def walk(node: pyast.expr) -> Node:
        match node:
            case pyast.Constant():
                return Const(number(node, "a number literal"))
            case pyast.Name("pi"):
                return Const(math.pi)
            case pyast.Name(name) if re.fullmatch(r"x\d+", name) and 1 <= float(name[1:]) <= dim:
                return Var(int(float(name[1:])))  # int() refuses a string of over 4300 digits
            case pyast.UnaryOp(pyast.USub(), operand):
                return Unary("neg", walk(operand))
            case pyast.BinOp(base, pyast.Pow(), pyast.UnaryOp(pyast.USub(), power_of)):
                return Pow(walk(base), -exponent(power_of))
            case pyast.BinOp(base, pyast.Pow(), power_of):
                return Pow(walk(base), exponent(power_of))
            case pyast.BinOp(left, op, right) if type(op) in _BINARY_OPS:
                return Binary(_BINARY_OPS[type(op)], walk(left), walk(right))
            case pyast.Call(pyast.Name(name), [arg]) if name in _FUNCTIONS:
                return Unary(name, walk(arg))  # keywords need '=', which is rejected above
        fail(f"not in the grammar over x1..x{dim}: {segment(node)!r}", node.col_offset)

    try:
        with warnings.catch_warnings():  # "1if" warns, and is never in the grammar
            warnings.simplefilter("error", SyntaxWarning)
            root = walk(pyast.parse(source, mode="eval").body)
    except SyntaxError as err:
        fail(err.msg, err.offset - 1 if err.offset else len(source))
    except (RecursionError, MemoryError):  # MemoryError: the parser's stack overflowed
        raise ParseError("expression nests too deeply", 0) from None
    return ExprAst(root, dim)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_many(ast: ExprAst, points: np.ndarray) -> np.ndarray:
    """Evaluate on a batch of points, shape (n, dim) -> (n,)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != ast.dim:
        raise ExprError(
            f"points must have shape (n, {ast.dim}), got {points.shape}"
        )
    if not np.all(np.isfinite(points)):
        raise EvalError("non-finite evaluation point")
    # with finite points and constants, the op making the first non-finite
    # intermediate raises a flag, even if later ops would mask the value
    try:
        with np.errstate(all="raise", under="ignore"):
            out = np.asarray(_eval_node(ast.root, points), dtype=np.float64)
    except FloatingPointError as err:
        raise EvalError(f"non-finite intermediate value: {err}") from None
    except RecursionError:
        raise EvalError("expression nests too deeply to evaluate") from None
    if out.ndim == 0:
        out = np.full(points.shape[0], float(out))
    return out


_OPS = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
}


def _eval_node(node: Node, pts: np.ndarray):
    if isinstance(node, Const):
        # diff's folding can make an infinite constant, and inf*x raises no flag
        if not math.isfinite(node.value):
            raise EvalError(f"non-finite constant {node.value!r}")
        return node.value
    if isinstance(node, Var):
        return pts[:, node.index - 1]
    if isinstance(node, Pow):
        return np.power(np.asarray(_eval_node(node.base, pts), dtype=np.float64), node.exponent)
    if isinstance(node, Unary):
        args = (_eval_node(node.arg, pts),)
    elif isinstance(node, Binary):
        args = (_eval_node(node.left, pts), _eval_node(node.right, pts))
    else:
        raise TypeError(f"not an expression node: {node!r}")
    op = _OPS.get(node.op)
    if op is None or op.nin != len(args):
        raise ExprError(f"unknown {type(node).__name__.lower()} op {node.op!r}")
    return op(*args)


# ---------------------------------------------------------------------------
# differentiation


def diff(ast: ExprAst, i: int) -> ExprAst:
    """Exact partial derivative with respect to x<i> (1-based)."""
    if not 1 <= i <= ast.dim:
        raise ExprError(f"derivative index {i} out of range 1..{ast.dim}")
    try:
        return ExprAst(_diff_node(ast.root, i), ast.dim)
    except RecursionError:
        raise ExprError("expression nests too deeply to differentiate") from None


def _diff_node(node: Node, i: int) -> Node:
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.index == i else 0.0)
    if isinstance(node, Unary):
        da = _diff_node(node.arg, i)
        if node.op == "neg":
            return neg(da)
        if node.op == "sin":
            return mul(Unary("cos", node.arg), da)
        if node.op == "cos":
            return neg(mul(Unary("sin", node.arg), da))
        if node.op == "exp":
            return mul(Unary("exp", node.arg), da)
        if node.op == "tanh":
            # tanh' = 1 - tanh^2
            return mul(sub(Const(1.0), Pow(Unary("tanh", node.arg), 2)), da)
        raise ExprError(f"unknown unary op {node.op!r}")
    if isinstance(node, Binary):
        dl = _diff_node(node.left, i)
        dr = _diff_node(node.right, i)
        if node.op == "add":
            return add(dl, dr)
        if node.op == "sub":
            return sub(dl, dr)
        if node.op == "mul":
            return add(mul(dl, node.right), mul(node.left, dr))
        if node.op == "div":
            # (u/v)' = (u'v - uv') / v^2
            num = sub(mul(dl, node.right), mul(node.left, dr))
            return div(num, Pow(node.right, 2))
        raise ExprError(f"unknown binary op {node.op!r}")
    if isinstance(node, Pow):
        db = _diff_node(node.base, i)
        if node.exponent == 0:
            return Const(0.0)
        lower = node.base if node.exponent == 2 else Pow(node.base, node.exponent - 1)
        return mul(mul(Const(float(node.exponent)), lower), db)
    raise TypeError(f"not an expression node: {node!r}")
