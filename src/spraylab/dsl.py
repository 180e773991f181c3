"""The .spray problem format: parse, compile to a tape, evaluate.

A problem file is line oriented:

    file   := header stmt+
    header := "dim" INT
    stmt   := "spray" IDENT "=" expr
            | "metric" IDENT "=" expr
            | "guard" "=" expr
            | "const" IDENT "=" NUMBER

Expressions use +, -, *, / with the usual precedence, right-associative ^
binding tighter than unary minus, parentheses, one-argument function calls
(sqrt, exp, ln, abs, atan, sin, cos) and the chart variables x1..xn, y1..yn.
'#' starts a comment.  Statements run in order: a const is declared once,
before its first use, under a name that is no chart variable's (x<digits>,
y<digits>).  Constants are substituted at parse time, so a parsed tree
holds only numbers, variables and operations; families of problems are
swept by re-parsing with overrides, not by the tree.

`parse` scans each line into its tokens by one `findall` and reads them by
index: an expression in one precedence loop, in which an infix operator
first reduces the pending ones that bind at least as tightly (none, for
the right-associative ^).  A line's error is its first character that
starts no token, or number beyond float range, if it has one.  The trees
are the grammar's recursive descent's, node for node, each number the
`float` of its token, so every value keeps its bits; a subtree that recurs
in one parse is one object, which a tape walks once.

`parse` gives a `ProblemDef` of trees.  On first use the problem compiles
its expressions, and separately its guards, into a `Tape`: one list of
operations over all the roots, in which each distinct subtree is one slot
(an evaluation procedure in the sense of Griewank and Walther, Evaluating
Derivatives, 2nd ed., ch. 2).  `evaluate` runs a tape, or a bare tree, over
floats, numpy arrays, point or block jets or the oracle's Taylor2; it is
the one evaluator, and every value it gives has the bits a recursive walk
of the tree would give.  `pretty` prints a tree back as text.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from . import jets
from .errors import ArityError, DimensionError, ParamError, SpraySyntaxError

FUNCTIONS = ("sqrt", "exp", "ln", "abs", "atan", "sin", "cos")

_TOKEN = re.compile(
    r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"  # a number
    r"|[A-Za-z_][A-Za-z_0-9]*"  # a name
    r"|\S"  # an operator, or a character that starts no token
)
_INFIX = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}


@dataclass(frozen=True)
class Node:
    """One expression-tree node; `kind` picks which fields are meaningful.

    `==`, `hash` and `repr` are the dataclass's, value for value and
    character for character (fields compared in a tuple, an identical pair
    equal at once), but each walks the tree by an explicit stack, so that a
    deep tree takes no Python frames."""

    kind: str  # num | var | neg | add | sub | mul | div | pow | powi | call
    a: "Node | None" = None
    b: "Node | None" = None
    value: float = 0.0
    name: str = ""
    k: int = 0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            x, y = pairs.pop()
            for u, v in ((x.kind, y.kind), (x.a, y.a), (x.b, y.b), (x.value, y.value),
                         (x.name, y.name), (x.k, y.k)):
                if u is v:
                    continue
                if u.__class__ is Node and v.__class__ is Node:
                    pairs.append((u, v))
                elif not u == v:
                    return False
        return True

    def __hash__(self):
        hashes: dict[int, _Hash] = {}  # id(node) -> its hash, for the tuples above it
        stack = [self]
        while stack:
            node = stack[-1]
            below = [c for c in (node.a, node.b) if c.__class__ is Node and id(c) not in hashes]
            if below:
                stack += below
                continue
            stack.pop()
            a, b = (hashes[id(c)] if c.__class__ is Node else c for c in (node.a, node.b))
            hashes[id(node)] = _Hash(hash((node.kind, a, b, node.value, node.name, node.k)))
        return hashes[id(self)].h

    def __repr__(self):
        out = []
        stack: list = [self]  # nodes, and text to write as it is
        while stack:
            item = stack.pop()
            if item.__class__ is not Node:
                out.append(item if item.__class__ is str else repr(item))
                continue
            stack += (f", value={item.value!r}, name={item.name!r}, k={item.k!r})", item.b,
                      ", b=", item.a, f"{item.__class__.__qualname__}(kind={item.kind!r}, a=")
        return "".join(out)


class _Hash:
    """Stands in a tuple for a node whose hash is known: the tuple's hash is
    the one it has with the node in its place."""

    __slots__ = ("h",)

    def __init__(self, h: int):
        self.h = h

    def __hash__(self) -> int:
        return self.h


def num(v: float) -> Node:
    return Node("num", value=float(v))


def var(name: str) -> Node:
    return Node("var", name=name)


def neg(a: Node) -> Node:
    return Node("neg", a=a)


def add(a: Node, b: Node) -> Node:
    return Node("add", a=a, b=b)


def sub(a: Node, b: Node) -> Node:
    return Node("sub", a=a, b=b)


def mul(a: Node, b: Node) -> Node:
    return Node("mul", a=a, b=b)


def div(a: Node, b: Node) -> Node:
    return Node("div", a=a, b=b)


def powi(a: Node, k: int) -> Node:
    return Node("powi", a=a, k=k)


def call(name: str, a: Node) -> Node:
    return Node("call", a=a, name=name)


@dataclass(frozen=True)
class ProblemDef:
    """A parsed problem: spray coefficients or one metric, plus guards."""

    dim: int
    kind: str  # "spray" | "metric"
    exprs: tuple[Node, ...]
    guards: tuple[Node, ...] = ()
    name: str = ""
    consts: dict = field(default_factory=dict, compare=False)

    @cached_property
    def tape(self) -> "Tape":
        """One tape over `exprs`, compiled on first use."""
        return Tape(self.exprs, self.dim)

    @cached_property
    def guard_tape(self) -> "Tape":
        """One tape over `guards`, compiled on first use."""
        return Tape(self.guards, self.dim)

    def guard_values(self, point: Sequence[float]) -> list[float]:
        return evaluate(self.guard_tape, list(point), dim=self.dim)


class _Line:
    """One source line, scanned into its tokens by one `findall`, with ""
    after the last, and parsed by index into them."""

    def __init__(self, number: int, src: str):
        self.number, self.src = number, src
        self.toks = _TOKEN.findall(src) + [""]

    def fail(self, i: int, expected: str, error=None):
        """Raise the line's first token that no rule reads, if it has one,
        as a scan of the whole line before parsing would; else `error` of
        the column of token i, or a syntax error that expected `expected`
        there."""
        cols = []
        for m in _TOKEN.finditer(self.src):
            cols.append(m.start() + 1)
            kind = _kind(m.group())
            if kind in ("bad", "big"):
                raise SpraySyntaxError(self.number, cols[-1], "a token" if kind == "bad"
                                       else "a number within float range", m.group())
        col = cols[i] if i < len(cols) else 1
        raise error(col) if error else SpraySyntaxError(self.number, col, expected, self.toks[i])

    def leaf(self, i: int, dim: int, consts: dict, shared: dict) -> Node | None:
        """The number or variable at token i, kept in `shared` under its
        text; None if the token names the function of a call."""
        tok = self.toks[i]
        kind = _kind(tok)
        if kind == "name" and self.toks[i + 1] == "(":
            if tok not in FUNCTIONS:
                self.fail(i, f"one of {', '.join(FUNCTIONS)}")
            return None
        if kind == "num":
            node = num(float(tok))
        elif kind != "name":
            self.fail(i, "a value")
        elif tok in consts:
            node = num(consts[tok])
        elif tok[0] in "xy" and tok[1:].isdigit():
            if not 1 <= int(tok[1:]) <= dim:
                self.fail(i, "", lambda col: DimensionError(
                    f"line {self.number}, col {col}: variable {tok} out of range for dim {dim}"))
            node = var(tok)
        else:
            self.fail(i, "a variable, declared const or function")
        shared[tok] = node
        return node

    def expr(self, i: int, dim: int, consts: dict, shared: dict) -> Node:
        """The expression from token i to the end of the line."""
        toks = self.toks
        vals: list[Node] = []
        ops: list[str] = []  # pending kinds; "(" or the function name per open group
        args: list[int] = []  # the argument count of each open call
        while True:
            tok = toks[i]
            if tok == "-" or tok == "(":
                ops.append("neg" if tok == "-" else "(")
                i += 1
                continue
            node = shared.get(tok)
            if node is None or toks[i + 1] == "(":
                node = self.leaf(i, dim, consts, shared)
                if node is None:
                    ops.append(tok)
                    args.append(1)
                    i += 2
                    continue
            vals.append(node)
            while True:  # after an operand
                i += 1
                tok = toks[i]
                kind = _INFIX.get(tok)
                if kind != "pow":  # ^ reduces nothing; a closer reduces to its group
                    prec = _PREC[kind] if kind else 1
                    while ops and _PREC.get(ops[-1], 0) >= prec:
                        k = ops.pop()
                        b = None if k == "neg" else vals.pop()
                        vals[-1] = _shared(shared, k, vals[-1], b)
                if kind:
                    ops.append(kind)
                    i += 1
                    break
                if not ops:
                    if tok:
                        self.fail(i, "end of expression")
                    return vals[0]
                if tok == ")":
                    group = ops.pop()
                    if group != "(":
                        n = args.pop()
                        if n != 1:
                            self.fail(i, "", lambda col: ArityError(
                                f"line {self.number}: {group} takes 1 argument, got {n}"))
                        vals[-1] = _shared(shared, group, vals[-1])
                elif tok == "," and ops[-1] != "(":
                    args[-1] += 1
                    i += 1
                    break
                else:
                    self.fail(i, "')'")


def _kind(tok: str) -> str:
    """"num", "big" (a number beyond float range), "name", "op" or "bad" (a
    character that starts no token) for a token of `_TOKEN`."""
    if tok[:1].isdecimal() or tok[:1] == "." and tok != ".":
        return "num" if float(tok) < math.inf else "big"
    if tok.isascii() and tok.isidentifier():
        return "name"
    return "op" if tok in "-+*/^()=," else "bad"


def _shared(shared: dict, kind: str, a: Node, b: Node | None = None) -> Node:
    """The node of `kind`, or the call of the function `kind`, over a and
    b, kept in `shared` under the three, so that it is one object."""
    key = (kind, id(a), id(b))
    if key not in shared:
        shared[key] = (_make_pow(a, b) if kind == "pow" else Node(kind, a, b) if kind in _PREC
                       else call(kind, a))
    return shared[key]


def _make_pow(base: Node, expo: Node) -> Node:
    lit = expo
    sign = 1
    while lit.kind == "neg":
        sign, lit = -sign, lit.a
    if lit.kind == "num" and float(lit.value).is_integer():
        return powi(base, sign * int(lit.value))
    # non-integer exponent routes through exp(e * ln(base)) and inherits
    # the positivity requirement on the base
    return Node("pow", a=base, b=expo)


def parse(text: str, consts: dict | None = None, name: str = "") -> ProblemDef:
    """Parse .spray source. `consts` overrides file-level const declarations."""
    overrides = dict(consts or {})
    bad = sorted(k for k, v in overrides.items() if not math.isfinite(v))
    if bad:
        raise ParamError(f"const override for {', '.join(bad)} is not a finite number")
    lines = text.splitlines()
    dim = 0
    values: dict = {}  # const name -> its value in force, the override if given
    shared: dict = {}  # token, or (kind, id, id) of an operation -> its one node
    sprays: dict[int, Node] = {}
    metric: Node | None = None
    guards: list[Node] = []
    for number, raw in enumerate(lines, start=1):
        src = raw.split("#", 1)[0].rstrip()
        if not src:
            continue
        line = _Line(number, src)
        toks = line.toks
        kw = toks[0]
        if not dim:
            if kw != "dim":
                line.fail(0, "'dim INT' header")
            if _kind(toks[1]) != "num" or not float(toks[1]).is_integer() or float(toks[1]) < 1:
                line.fail(1, "a positive integer dim")
            if toks[2]:
                line.fail(2, "end of line")
            dim = int(float(toks[1]))
        elif kw == "const":
            cname = toks[1]
            if _kind(cname) != "name":
                line.fail(1, "a constant name")
            if toks[2] != "=":
                line.fail(2, "'='")
            j = 4 if toks[3] == "-" else 3
            if _kind(toks[j]) != "num":
                line.fail(j, "a number")
            if toks[j + 1]:
                line.fail(j + 1, "end of line")
            if cname[0] in "xy" and cname[1:].isdigit():
                line.fail(1, "a constant name that is not a chart variable")
            if cname in values:
                line.fail(1, f"a single declaration of {cname}")
            values[cname] = overrides.get(cname, (-1.0 if j == 4 else 1.0) * float(toks[j]))
        elif kw in ("spray", "metric", "guard"):
            ident = toks[1]
            at = 2 if kw == "guard" else 3  # the first token of the expression
            if kw != "guard" and _kind(ident) != "name":
                line.fail(1, "a component name")
            if toks[at - 1] != "=":
                line.fail(at - 1, "'='")
            node = line.expr(at, dim, values, shared)
            if kw == "guard":
                guards.append(node)
            elif kw == "spray":
                if metric is not None:
                    raise SpraySyntaxError(number, 1, "no spray statements in a metric file", kw)
                i = int(ident[1:]) - 1 if ident[0] == "G" and ident[1:].isdigit() else -1
                if not 0 <= i < dim:
                    line.fail(1, f"a component name G1..G{dim}")
                if i in sprays:
                    line.fail(1, f"a single definition of {ident}")
                sprays[i] = node
            else:
                if sprays:
                    raise SpraySyntaxError(number, 1, "no metric statements in a spray file", kw)
                if metric is not None:
                    line.fail(1, "a single metric statement")
                metric = node
        else:
            line.fail(0, "'spray', 'metric', 'guard' or 'const'")

    if not dim:
        raise SpraySyntaxError(1, 1, "'dim INT' header", "")
    unknown = set(overrides) - set(values)
    if unknown:
        raise ParamError(f"const override for undeclared name(s): {', '.join(sorted(unknown))}")
    missing = [f"G{i+1}" for i in range(dim) if i not in sprays]
    if metric is None and missing:
        raise SpraySyntaxError(len(lines), 1, f"definitions for {', '.join(missing)}", "")
    exprs = (metric,) if metric is not None else tuple(sprays[i] for i in range(dim))
    return ProblemDef(dim=dim, kind="spray" if metric is None else "metric", exprs=exprs,
                      guards=tuple(guards), name=name, consts=values)


class Tape:
    """One evaluation procedure over the trees `roots`, in a chart of `dim`.

    Each distinct node gets one slot: numbers are keyed by `float.hex`, so
    0.0 and -0.0 stay apart, variables by their env index, operations by
    their function and operand slots, so a subtree that occurs many times
    is one slot.  The ops are in the post-order of a recursive walk over
    the roots in order (operands left to right, except that a real power
    evaluates its exponent before its base), emitted at a node's first
    occurrence; the first op that fails is the one a walk of the trees
    would fail at first.  A real power u^e is lowered to exp(e * ln(u)).
    Each op slot is freed after its last use unless it is an output.
    """

    def __init__(self, roots: Sequence[Node], dim: int):
        self.dim = dim
        self.consts: list = []  # slot -> number, None for the other slots
        self.loads: list[tuple[int, int]] = []  # (slot, env index)
        ops: list[tuple] = []  # (out, fn, a, b), b = -1 for a unary fn
        slots: dict[tuple, int] = {}

        def slot(key: tuple, value=None, op=None) -> int:
            if key not in slots:
                slots[key] = len(self.consts)
                self.consts.append(value)
                if op is not None:
                    ops.append((slots[key],) + op)
            return slots[key]

        def op(fn, a: int, b: int = -1) -> int:
            return slot((fn, a, b), op=(fn, a, b))

        walked: dict[int, int] = {}  # id(node) -> its slot, so a shared subtree is walked once

        def walk(root: Node) -> int:
            """The root's slot, its nodes emitted in post-order by an
            explicit stack, so that a deep tree takes no Python frames.  A
            node with operands is pushed under a None, which pops once its
            operands are walked; the operands are pushed last first, a
            real power's base before its exponent."""
            stack = [root]
            while stack:
                node = stack.pop()
                if node is not None:
                    if id(node) in walked:
                        continue
                    k = node.kind
                    if k in _BINARY:
                        stack += (node, None, node.b, node.a)
                        continue
                    if k == "pow":
                        stack += (node, None, node.a, node.b)
                        continue
                    if k in ("neg", "powi", "call"):
                        stack += (node, None, node.a)
                        continue
                    if k == "num":
                        s = slot(("num", float(node.value).hex()), node.value)
                    elif k == "var":
                        idx = int(node.name[1:]) - 1 + (dim if node.name[0] == "y" else 0)
                        if ("var", idx) not in slots:
                            self.loads.append((len(self.consts), idx))
                        s = slot(("var", idx))
                    else:
                        raise ValueError(f"unknown node kind {k!r}")
                else:  # the operands of the node below are walked
                    node = stack.pop()
                    k, a = node.kind, walked[id(node.a)]
                    if k in _BINARY:
                        s = op(_BINARY[k], a, walked[id(node.b)])
                    elif k == "pow":
                        s = op(jets.exp, op(operator.mul, walked[id(node.b)], op(jets.ln, a)))
                    elif k == "powi":
                        s = op(jets.powi, a, slot(("int", node.k), node.k))
                    elif k == "neg":
                        s = op(operator.neg, a)
                    else:
                        s = op(_CALLS[node.name], a)
                walked[id(node)] = s
            return walked[id(root)]

        self.outputs = tuple(walk(r) for r in roots)
        last: dict[int, int] = {}  # slot -> index of the last op that reads it
        for i, (_, _, a, b) in enumerate(ops):
            last[a] = last[b] = i
        freed = {o[0] for o in ops} - set(self.outputs)
        dead: list[list[int]] = [[] for _ in ops]
        for s, i in last.items():
            if s in freed:
                dead[i].append(s)
        self.ops = [o + (tuple(d),) for o, d in zip(ops, dead)]


def evaluate(expr: "Node | Tape", env: Sequence, dim: int | None = None):
    """Evaluate a tape, or one tree, over any numeric environment (floats,
    arrays, point or block jets, or the oracle's Taylor2).

    `env` lists the 2n variable values as x1..xn, y1..yn.  A tape gives the
    list of its roots' values; a bare tree, compiled to a one-root tape in
    a chart of `dim` (by default len(env)//2), gives its value.
    """
    if isinstance(expr, Tape):
        tape = expr
        if dim is not None and dim != tape.dim:
            raise ValueError(f"a tape of dim {tape.dim} evaluated at dim {dim}")
    else:
        tape = Tape((expr,), len(env) // 2 if dim is None else dim)
    vals = list(tape.consts)
    for s, v in tape.loads:
        vals[s] = env[v]
    for out, fn, a, b, dead in tape.ops:
        vals[out] = fn(vals[a]) if b < 0 else fn(vals[a], vals[b])
        for s in dead:
            vals[s] = None
    outs = [vals[s] for s in tape.outputs]
    return outs if tape is expr else outs[0]


_CALLS = {
    "sqrt": jets.sqrt,
    "exp": jets.exp,
    "ln": jets.ln,
    "abs": jets.absval,
    "atan": jets.atan,
    "sin": jets.sin,
    "cos": jets.cos,
}
_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4, "powi": 4}


def pretty(node: Node) -> str:
    """Canonical text form.

    For a tree of finite numbers, parsing it back gives a tree with the
    same value, bit for bit, at every point, though not always an identical
    tree: a negative number prints in parentheses, `(-2)`, and parses back
    as the negation of 2, which is exactly -2; and a real power with an
    integral exponent, which `parse` never builds, parses back as an
    integer power.
    """
    out = []
    stack: list = [(node, 0)]  # (node, its parent's precedence), and text
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, parent_prec = item
        k = node.kind
        if k == "num":
            v = node.value
            text = repr(int(abs(v))) if float(v).is_integer() and abs(v) < 1e15 else repr(abs(v))
            out.append(f"(-{text})" if math.copysign(1.0, v) < 0 else text)
            continue
        if k == "var":
            out.append(node.name)
            continue
        if k == "call":
            out.append(f"{node.name}(")
            stack += (")", (node.a, 0))
            continue
        prec = _PREC[k]
        if k == "neg":
            parts = ["-", (node.a, prec)]
        elif k == "powi":
            parts = [(node.a, prec + 1), f"^(-{-node.k})" if node.k < 0 else f"^{node.k}"]
        elif k == "pow":
            parts = [(node.a, prec + 1), "^", (node.b, prec + 1)]
        else:
            sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[k]
            right_bump = 1 if k in ("sub", "div") else 0
            parts = [(node.a, prec), sym, (node.b, prec + right_bump)]
        if prec < parent_prec or (k == "neg" and parent_prec > 0):
            parts = ["(", *parts, ")"]
        stack += reversed(parts)
    return "".join(out)
