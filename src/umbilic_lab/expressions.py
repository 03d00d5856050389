"""Minimal arithmetic expression grammar for custom metrics and surfaces.

Supported: + - * / ^  sin cos sinh cosh exp sqrt, numeric literals, variables
x0 ... x{N-1}.  Expressions parse to a small AST that evaluates on numpy
arrays and differentiates symbolically, so expression-defined maps get
analytic Jacobians and Hessians.
"""

import functools
import math
import operator
import re

import numpy as np

from .errors import ExpressionError

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|([A-Za-z_]\w*)|(\*\*|[()+\-*/^,]))")

FUNCTIONS = {
    "sin": (np.sin, lambda a: ("cos", a)),
    "cos": (np.cos, lambda a: ("neg", ("sin", a))),
    "sinh": (np.sinh, lambda a: ("cosh", a)),
    "cosh": (np.cosh, lambda a: ("sinh", a)),
    "exp": (np.exp, lambda a: ("exp", a)),
    "sqrt": (np.sqrt, None),  # derivative handled specially
}
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv}
_OPS = {**_ARITH, "pow": operator.pow, "neg": operator.neg,
        **{name: fn for name, (fn, _d) in FUNCTIONS.items()}}


def tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"cannot tokenize {text[pos:]!r}", expression=text)
        num, ident, op = m.groups()
        if num is not None:
            tokens.append(("num", float(text[m.start():m.end()].strip())))
        elif ident is not None:
            tokens.append(("ident", ident))
        else:
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}", expression=self.text)

    def parse(self):
        node = self.expr()
        if self.i != len(self.tokens):
            raise ExpressionError("trailing input", expression=self.text)
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        # unary minus binds looser than ^, so -x0^2 means -(x0^2)
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.factor())
        if self.peek() == ("op", "+"):
            self.take()
            return self.factor()
        node = self.primary()
        if self.peek() == ("op", "^"):
            self.take()
            return ("pow", node, self.factor())  # right-associative
        return node

    def primary(self):
        kind, val = self.take()
        if kind == "num":
            return ("const", val)
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return (val, arg)
            m = re.fullmatch(r"x(\d+)", val)
            if not m:
                raise ExpressionError(f"unknown identifier {val!r}", expression=self.text)
            return ("var", int(m.group(1)))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError("unexpected token", expression=self.text, token=val)


def parse(text):
    return _Parser(tokenize(text), text).parse()


def free_vars(node):
    op = node[0]
    if op == "const":
        return set()
    if op == "var":
        return {node[1]}
    return set().union(*(free_vars(c) for c in node[1:]))


def _is_const(node, value=None):
    return node[0] == "const" and (value is None or node[1] == value)


def _intern(node, memo):
    """The one node in ``memo`` equal to ``node``, whose kids are interned;
    a constant keeps its sign of zero, though -0.0 == 0.0."""
    op = node[0]
    key = ((op, node[1], math.copysign(1.0, node[1])) if op == "const"
           else node if op == "var" else (op,) + tuple(map(id, node[1:])))
    return memo.setdefault(key, node)


def _share(node, memo):
    """``node`` rebuilt from interned subtrees, so equal subtrees are one."""
    if node[0] not in ("const", "var"):
        node = (node[0],) + tuple([_share(c, memo) for c in node[1:]])
    return _intern(node, memo)


def _simp(node, memo):
    """Light constant folding; keeps derivative trees small.  ``memo``,
    shared by the trees of one map, interns each result and maps id(tree)
    to (tree, result), and each result to itself, so a shared subtree is
    folded once; holding the tree keeps its id unique."""
    hit = memo.get(id(node))
    if hit is None:
        out = _intern(node if node[0] in ("const", "var") else _fold(
            (node[0],) + tuple([_simp(c, memo) for c in node[1:]])), memo)
        hit = memo[id(node)] = memo[id(out)] = (node, out)
    return hit[1]


def _fold(node):
    """One folding step on a node whose kids are folded already."""
    op, *kids = node
    if all(k[0] == "const" for k in kids):
        # on 0-d operands, as a tree walk computes a constant
        return ("const", float(_OPS[op](*[np.asarray(k[1], dtype=float)
                                         for k in kids])))
    if op == "add":
        if _is_const(kids[0], 0.0):
            return kids[1]
        if _is_const(kids[1], 0.0):
            return kids[0]
    if op == "sub" and _is_const(kids[1], 0.0):
        return kids[0]
    if op == "mul":
        if _is_const(kids[0], 0.0) or _is_const(kids[1], 0.0):
            return ("const", 0.0)
        if _is_const(kids[0], 1.0):
            return kids[1]
        if _is_const(kids[1], 1.0):
            return kids[0]
    if op == "div" and _is_const(kids[0], 0.0):
        return ("const", 0.0)
    if op == "pow":
        if _is_const(kids[1], 1.0):
            return kids[0]
        if _is_const(kids[1], 0.0):
            return ("const", 1.0)
    return node


def diff(node, var, memo=None):
    """Symbolic derivative d(node)/d(x_var), constant-folded.  ``memo`` is
    that of ``_simp`` and also holds derivatives under (id(tree), var), so
    a shared subtree is differentiated once."""
    memo = {} if memo is None else memo
    return _simp(_diff(node, var, memo), memo)


def _diff(node, var, memo):
    hit = memo.get((id(node), var))
    if hit is None:
        hit = memo[id(node), var] = (node, _derive(node, var, memo))
    return hit[1]


def _derive(node, var, memo):
    """One differentiation rule; kids are differentiated through ``memo``."""
    d = functools.partial(_diff, var=var, memo=memo)
    op = node[0]
    if op == "const":
        return ("const", 0.0)
    if op == "var":
        return ("const", 1.0 if node[1] == var else 0.0)
    if op == "neg":
        return ("neg", d(node[1]))
    if op == "add" or op == "sub":
        return (op, d(node[1]), d(node[2]))
    if op == "mul":
        a, b = node[1], node[2]
        return ("add", ("mul", d(a), b), ("mul", a, d(b)))
    if op == "div":
        a, b = node[1], node[2]
        return ("div", ("sub", ("mul", d(a), b), ("mul", a, d(b))),
                ("mul", b, b))
    if op == "pow":
        a, b = node[1], _simp(node[2], memo)  # folds exponents such as -2 and (1/2)
        if _is_const(b):
            # d(a^c) = c * a^(c-1) * a'
            return ("mul", ("mul", b, ("pow", a, ("const", b[1] - 1.0))), d(a))
        # general a^b = exp(b log a): not in the grammar; reject
        raise ExpressionError("only constant exponents are differentiable")
    if op == "sqrt":
        a = node[1]
        return ("div", d(a), ("mul", ("const", 2.0), ("sqrt", a)))
    if op in FUNCTIONS:
        outer = FUNCTIONS[op][1](node[1])
        return ("mul", outer, d(node[1]))
    raise ExpressionError(f"bad node {op!r}")


def _compile(trees):
    """Flat evaluation plan of interned ``trees``: (slots, steps, outputs).

    Each distinct subtree is one node (see ``_share``) and one slot, filled
    by one step that applies the node's numpy operation to operands of the
    kind a walk of the tree would give it, so results are bit-identical.  A
    constant used only in + - * / against an operand that depends on x is
    stored once as a float; any other constant is broadcast to the batch
    shape per call, as a tree walk does, because ``pow`` and the functions
    take different paths on 0-d and batch operands.
    """
    slot_of, nodes, varies, broadcast = {}, [], [], set()

    def visit(node):
        if id(node) not in slot_of:
            op = node[0]
            kids = () if op in ("const", "var") else tuple(map(visit, node[1:]))
            for i, k in enumerate(kids):
                if nodes[k][0] == "const" and not (
                        op in _ARITH and varies[kids[1 - i]]):
                    broadcast.add(k)
            slot_of[id(node)] = len(nodes)
            nodes.append((op, node[1], kids))
            varies.append(op == "var" or any(varies[k] for k in kids))
        return slot_of[id(node)]

    outputs = [visit(t) for t in trees]
    slots, steps = [], []       # x and the batch shape go after the nodes
    for s, (op, arg, kids) in enumerate(nodes):
        slots.append(arg if op == "const" and s not in broadcast else None)
        if op == "var":
            steps.append((s, operator.itemgetter((Ellipsis, arg)), len(nodes), None))
        elif op == "const" and s in broadcast:
            steps.append((s, functools.partial(np.full, fill_value=arg),
                          len(nodes) + 1, None))
        elif op != "const":
            steps.append((s, _OPS[op], *kids, None)[:4])
    return slots, steps, outputs


def _run(plan, shape, x):
    """Evaluate a compiled plan on x of shape (..., nvars) into (...) + shape."""
    slots, steps, outputs = plan
    x = np.asarray(x, dtype=float)
    v = slots + [x, x.shape[:-1]]
    for s, fn, a, b in steps:
        v[s] = fn(v[a]) if b is None else fn(v[a], v[b])
    if x.ndim == 1:         # one point: every value is a scalar
        return np.fromiter(map(v.__getitem__, outputs), float).reshape(shape)
    out = np.empty(x.shape[:-1] + (len(outputs),))
    for k, s in enumerate(outputs):
        out[..., k] = v[s]
    return out.reshape(x.shape[:-1] + shape)


class ExpressionMap:
    """Vector-valued map R^nvars -> R^k from component expressions.

    Jacobian and Hessian come from symbolic differentiation, so the map
    counts as analytically differentiable.  Value, Jacobian and Hessian
    are each compiled once into a flat plan (see ``_compile``).
    """

    def __init__(self, component_texts, nvars):
        self.nvars = nvars
        # equal subtrees are one node, so each is differentiated once
        memo = {}
        self.components = [_share(parse(t) if isinstance(t, str) else t, memo)
                           for t in component_texts]
        for c in self.components:
            bad = [v for v in free_vars(c) if v >= nvars]
            if bad:
                raise ExpressionError("variable index out of range", indices=bad)
        k, n = len(self.components), nvars
        self._grads = [diff(c, v, memo) for c in self.components for v in range(n)]
        self._hess = [diff(g, v, memo) for g in self._grads for v in range(n)]
        self._value = _compile(self.components), (k,)
        self._jacobian = _compile(self._grads), (k, n)
        self._hessian = _compile(self._hess), (k, n, n)

    def __call__(self, x):
        return _run(*self._value, x)

    def jacobian(self, x):
        return _run(*self._jacobian, x)

    def hessian(self, x):
        return _run(*self._hessian, x)

    def jet(self):
        """x -> (..., k, n + n*n): each component's gradient, then its
        Hessian, bit-identical to ``jacobian`` and ``hessian`` from one plan
        run.  Compiles that plan on each call; charts never need it."""
        k, n = len(self.components), self.nvars
        trees = [t for c in range(k) for t in (self._grads[c * n:(c + 1) * n]
                                               + self._hess[c * n * n:(c + 1) * n * n])]
        return functools.partial(_run, _compile(trees), (k, n + n * n))
