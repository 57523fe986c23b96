"""Closed-form scalar expressions over variables x1..xd.

Coefficients, right-hand sides, and exact solutions are all small expression
trees: parse them from text, evaluate them on batches of points, and
differentiate them symbolically (differentiation is closed over the node set,
which is why power exponents are restricted to integers).

Evaluation never lets NaN/Inf escape silently.  The parser rejects a literal
that overflows to infinity, and each evaluation runs under one floating-point
trap: the first op that overflows, divides by zero or makes an invalid value
raises ``EvalError``, even if later ops would mask it.  The error names the
numpy op and the flag (``overflow encountered in exp``), not the sample.
"""

from __future__ import annotations

import math
import re
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
    "evaluate",
    "evaluate_many",
    "diff",
    "to_string",
    "const",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "func",
]


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Syntax or name error; ``offset`` is the character position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Raised when evaluation produces a non-finite value or divides by zero."""


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


def _is_const(node: Node, value: float | None = None) -> bool:
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


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


def power(base: Node, exponent: int) -> Node:
    if exponent != int(exponent):
        raise ExprError(f"power exponent must be an integer, got {exponent!r}")
    exponent = int(exponent)
    if exponent == 1:
        return base
    return Pow(base, exponent)


def func(name: str, arg: Node) -> Node:
    if name not in _FUNCTIONS:
        raise ExprError(f"unknown function {name!r}")
    return Unary(name, arg)


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
        hi = _max_var_index(self.root)
        if hi > self.dim:
            raise ExprError(f"expression uses x{hi} but dim={self.dim}")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            return evaluate_many(self, x)
        return evaluate(self, x)

    def diff(self, i: int) -> "ExprAst":
        return diff(self, i)

    def __str__(self) -> str:
        return to_string(self)


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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        for kind in ("number", "name", "op"):
            val = m.group(kind)
            if val is not None:
                if kind == "number" and not math.isfinite(float(val)):
                    raise ParseError(f"number {val} overflows the float range", m.start(kind))
                tokens.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over: expr -> term -> unary -> power -> atom.

    Precedence (tightest first): ^, unary minus, * /, + -.  Binary levels are
    left-associative.  Power exponents must be integer literals, optionally
    signed, so that differentiation stays closed.
    """

    def __init__(self, text: str, dim: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Binary("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = Binary("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                node = Pow(node, self.exponent())
            else:
                return node

    def exponent(self) -> int:
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
            kind, val, off = self.peek()
        if kind != "number":
            raise ParseError("power exponent must be an integer literal", off)
        self.next()
        as_float = float(val)
        if as_float != int(as_float):
            raise ParseError(f"power exponent must be an integer, got {val}", off)
        return sign * int(as_float)

    def atom(self) -> Node:
        kind, val, off = self.next()
        if kind == "number":
            return Const(float(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if val == "pi":
                return Const(math.pi)
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(val, arg)
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                index = int(m.group(1))
                if index < 1 or index > self.dim:
                    raise ParseError(
                        f"variable {val} out of range for dimension {self.dim}", off
                    )
                return Var(index)
            raise ParseError(f"unknown identifier {val!r}", off)
        raise ParseError(f"expected a value, got {val!r}" if val else "unexpected end of input", off)


def parse(text: str, dim: int) -> ExprAst:
    """Parse ``text`` into an expression over x1..x<dim>."""
    return ExprAst(_Parser(text, dim).parse(), dim)


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
    if out.ndim == 0:
        out = np.full(points.shape[0], float(out))
    return out


def evaluate(ast: ExprAst, x) -> float:
    """Evaluate at a single point (sequence of length dim)."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return float(evaluate_many(ast, x)[0])


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
    return ExprAst(_diff_node(ast.root, i), ast.dim)


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
            return mul(func("cos", node.arg), da)
        if node.op == "cos":
            return neg(mul(func("sin", node.arg), da))
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
        return mul(mul(Const(float(node.exponent)), power(node.base, node.exponent - 1)), db)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# printing

# precedence levels used to decide parenthesization; larger binds tighter
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _node_level(node: Node) -> int:
    if isinstance(node, Binary):
        return _LEVEL_ADD if node.op in ("add", "sub") else _LEVEL_MUL
    if isinstance(node, Unary):
        return _LEVEL_NEG if node.op == "neg" else _LEVEL_ATOM
    if isinstance(node, Pow):
        return _LEVEL_POW
    if isinstance(node, Const) and (node.value < 0 or math.copysign(1.0, node.value) < 0):
        return _LEVEL_NEG  # prints with a leading minus
    return _LEVEL_ATOM


def _wrap(node: Node, minimum: int) -> str:
    text = _print_node(node)
    if _node_level(node) < minimum:
        return f"({text})"
    return text


def _print_node(node: Node) -> str:
    if isinstance(node, Const):
        return repr(node.value)  # round-trips float64 exactly, as print->parse->eval needs
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"-{_wrap(node.arg, _LEVEL_NEG)}"
        return f"{node.op}({_print_node(node.arg)})"
    if isinstance(node, Binary):
        if node.op in ("add", "sub"):
            sym = "+" if node.op == "add" else "-"
            left = _wrap(node.left, _LEVEL_ADD)
            right = _wrap(node.right, _LEVEL_ADD + 1)
            return f"{left} {sym} {right}"
        sym = "*" if node.op == "mul" else "/"
        left = _wrap(node.left, _LEVEL_MUL)
        right = _wrap(node.right, _LEVEL_MUL + 1)
        return f"{left} {sym} {right}"
    if isinstance(node, Pow):
        base = _wrap(node.base, _LEVEL_ATOM)
        if node.exponent < 0:
            return f"{base}^-{-node.exponent}"
        return f"{base}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


def to_string(ast: ExprAst) -> str:
    """Render to text that reparses to an equivalent tree."""
    return _print_node(ast.root)
