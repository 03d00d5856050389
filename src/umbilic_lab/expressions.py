"""Minimal arithmetic expression grammar for custom metrics and surfaces.

Supported: + - * / ^  sin cos sinh cosh exp sqrt, numeric literals, variables
x0 ... x{N-1}, read by Python's own parser.  Expressions parse to a small
tree that evaluates on numpy arrays and differentiates symbolically, so
expression-defined maps get analytic Jacobians and Hessians.
"""

import ast
import functools
import math
import operator
import re
import warnings

import numpy as np

from .errors import ExpressionError

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
_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?", re.ASCII)
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
           ast.Pow: "pow"}


def parse(text):
    """The tree of ``text``, Python arithmetic with ``^`` for ``**``, read by
    ``ast.parse`` and never run; integer literals may keep leading zeros."""
    source = re.sub(r"\s+", " ", text).strip()
    if re.search(r"[^0-9A-Za-z_.+\-*/^() ]", source):
        raise ExpressionError("expression text must be ASCII arithmetic",
                              expression=text)
    source = re.sub(r"(?<![\w.])0+(?=\d+(?![\w.]))", "", source.replace("^", "**"))
    try:
        with warnings.catch_warnings():     # "1if x0 else 2" warns, then is rejected
            warnings.simplefilter("ignore", SyntaxWarning)
            return _tree(ast.parse(source, mode="eval").body, source)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ExpressionError(f"cannot parse: {str(exc) or 'nests too deeply'}",
                              expression=text) from None


def _tree(node, source):
    """The expression tuple of one ``ast`` node of the grammar."""
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _BINARY:
        return (_BINARY[type(node.op)], _tree(node.left, source),
                _tree(node.right, source))
    if kind is ast.UnaryOp and type(node.op) in (ast.USub, ast.UAdd):
        arg = _tree(node.operand, source)
        return ("neg", arg) if type(node.op) is ast.USub else arg
    # in "(sin)(x0)" the name starts after the call: not a call of sin
    if (kind is ast.Call and type(node.func) is ast.Name
            and node.func.id in FUNCTIONS and len(node.args) == 1
            and not node.keywords and node.func.col_offset == node.col_offset):
        return (node.func.id, _tree(node.args[0], source))
    if kind is ast.Name and re.fullmatch(r"x\d+", node.id):
        return ("var", int(node.id[1:]))
    literal = source[node.col_offset:node.end_col_offset]
    if kind is ast.Constant and _NUMBER.fullmatch(literal):
        return ("const", float(literal))
    raise ValueError(f"{literal!r} is not in the grammar")


def free_vars(node):
    found, todo = set(), [node]
    while todo:
        node = todo.pop()
        if node[0] == "var":
            found.add(node[1])
        elif node[0] != "const":
            todo.extend(node[1:])
    return found


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
        try:    # sharing, derivatives and plans recurse once per tree level
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
        except RecursionError:
            raise ExpressionError("expression nests too deeply") from None

    def __call__(self, x):
        return _run(*self._value, x)

    def jacobian(self, x):
        return _run(*self._jacobian, x)

    def hessian(self, x):
        return _run(*self._hessian, x)

    def jet(self):
        """x -> (jacobian(x), hessian(x)), bit-identical to the two plans but
        from one plan run.  Compiles that plan on each call; charts never
        need it."""
        k, n = len(self.components), self.nvars
        plan = _compile([t for c in range(k) for t in (
            self._grads[c * n:(c + 1) * n] + self._hess[c * n * n:(c + 1) * n * n])])

        def jet(x):
            both = _run(plan, (k, n + n * n), x)
            return both[..., :n], both[..., n:].reshape(both.shape[:-1] + (n, n))
        return jet
