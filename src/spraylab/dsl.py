"""Parser and evaluator for the .spray problem format.

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
'#' starts a comment. Constants are substituted at parse time, so a parsed
tree contains only numbers, variables and operations; families of problems
are swept by re-parsing with overrides, not by the tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from . import jets
from .errors import ArityError, DimensionError, ParamError, SpraySyntaxError

FUNCTIONS = ("sqrt", "exp", "ln", "abs", "atan", "sin", "cos")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()=,])"
    r"|(?P<bad>\S))"
)


@dataclass(frozen=True)
class Node:
    """One expression-tree node; `kind` picks which fields are meaningful."""

    kind: str  # num | var | neg | add | sub | mul | div | pow | powi | call
    a: "Node | None" = None
    b: "Node | None" = None
    value: float = 0.0
    name: str = ""
    k: int = 0


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

    def var_index(self, name: str) -> int:
        group, idx = name[0], int(name[1:])
        return (idx - 1) if group == "x" else (self.dim + idx - 1)

    def guard_values(self, point: Sequence[float]) -> list[float]:
        return [evaluate(g, list(point), dim=self.dim) for g in self.guards]


class _Tokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.toks: list[tuple[str, str, int]] = []  # (type, text, col)
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                break
            pos = m.end()
            col = m.start(m.lastgroup) + 1
            if m.lastgroup == "bad":
                raise SpraySyntaxError(line, col, "a token", m.group("bad"))
            self.toks.append((m.lastgroup, m.group(m.lastgroup), col))
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("end", "", -1)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, text: str, what: str):
        typ, tok, col = self.next()
        if tok != text:
            raise SpraySyntaxError(self.line, col if col > 0 else 1, what, tok)
        return tok

    def done(self) -> bool:
        return self.i >= len(self.toks)


class _ExprParser:
    def __init__(self, toks: _Tokens, dim: int, consts: dict):
        self.t = toks
        self.dim = dim
        self.consts = consts

    def parse(self) -> Node:
        node = self.expr()
        if not self.t.done():
            typ, tok, col = self.t.peek()
            raise SpraySyntaxError(self.t.line, col, "end of expression", tok)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.t.peek()[1] in ("+", "-"):
            op = self.t.next()[1]
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.t.peek()[1] in ("*", "/"):
            op = self.t.next()[1]
            rhs = self.unary()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def unary(self) -> Node:
        if self.t.peek()[1] == "-":
            self.t.next()
            return neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.t.peek()[1] == "^":
            self.t.next()
            expo = self.unary()  # right-assoc, unary minus allowed in exponent
            return self._make_pow(base, expo)
        return base

    def _make_pow(self, base: Node, expo: Node) -> Node:
        lit = expo
        sign = 1
        while lit.kind == "neg":
            sign, lit = -sign, lit.a
        if lit.kind == "num" and float(lit.value).is_integer():
            return powi(base, sign * int(lit.value))
        # non-integer exponent routes through exp(e * ln(base)) and inherits
        # the positivity requirement on the base
        return Node("pow", a=base, b=expo)

    def atom(self) -> Node:
        typ, tok, col = self.t.next()
        if typ == "num":
            return num(float(tok))
        if tok == "(":
            node = self.expr()
            self.t.expect(")", "')'")
            return node
        if typ == "ident":
            if self.t.peek()[1] == "(":
                return self.call(tok, col)
            return self.name(tok, col)
        raise SpraySyntaxError(self.t.line, col if col > 0 else 1, "a value", tok)

    def call(self, fname: str, col: int) -> Node:
        if fname not in FUNCTIONS:
            raise SpraySyntaxError(self.t.line, col, f"one of {', '.join(FUNCTIONS)}", fname)
        self.t.expect("(", "'('")
        args = [self.expr()]
        while self.t.peek()[1] == ",":
            self.t.next()
            args.append(self.expr())
        self.t.expect(")", "')'")
        if len(args) != 1:
            raise ArityError(f"line {self.t.line}: {fname} takes 1 argument, got {len(args)}")
        return call(fname, args[0])

    def name(self, tok: str, col: int) -> Node:
        if tok in self.consts:
            return num(self.consts[tok])
        m = re.fullmatch(r"([xy])([0-9]+)", tok)
        if m:
            idx = int(m.group(2))
            if not 1 <= idx <= self.dim:
                raise DimensionError(
                    f"line {self.t.line}, col {col}: variable {tok} out of range for dim {self.dim}"
                )
            return var(tok)
        raise SpraySyntaxError(self.t.line, col, "a variable, declared const or function", tok)


def parse(text: str, consts: dict | None = None, name: str = "") -> ProblemDef:
    """Parse .spray source. `consts` overrides file-level const declarations."""
    overrides = dict(consts or {})
    decl: dict[str, float] = {}
    dim = 0
    sprays: dict[int, Node] = {}
    metric: Node | None = None
    guards: list[Node] = []
    seen_header = False

    lines = text.splitlines()
    # Collect const declarations first so overrides can be validated, then
    # parse statements in order.
    pending: list[tuple[int, str]] = []
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            pending.append((ln, stripped))

    if not pending:
        raise SpraySyntaxError(1, 1, "'dim INT' header", "")

    for ln, src in pending:
        toks = _Tokens(src, ln)
        typ, kw, col = toks.next()
        if not seen_header:
            if kw != "dim":
                raise SpraySyntaxError(ln, col, "'dim INT' header", kw)
            t2, v, c2 = toks.next()
            if t2 != "num" or not float(v).is_integer() or int(float(v)) < 1:
                raise SpraySyntaxError(ln, c2 if c2 > 0 else 1, "a positive integer dim", v)
            dim = int(float(v))
            if not toks.done():
                raise SpraySyntaxError(ln, toks.peek()[2], "end of line", toks.peek()[1])
            seen_header = True
            continue

        if kw == "const":
            t2, cname, c2 = toks.next()
            if t2 != "ident":
                raise SpraySyntaxError(ln, c2 if c2 > 0 else 1, "a constant name", cname)
            toks.expect("=", "'='")
            sign = 1.0
            t3, v, c3 = toks.next()
            if v == "-":
                sign = -1.0
                t3, v, c3 = toks.next()
            if t3 != "num":
                raise SpraySyntaxError(ln, c3 if c3 > 0 else 1, "a number", v)
            if not toks.done():
                raise SpraySyntaxError(ln, toks.peek()[2], "end of line", toks.peek()[1])
            decl[cname] = sign * float(v)
            continue

        if kw in ("spray", "metric", "guard"):
            consts_now = dict(decl)
            consts_now.update({k: v for k, v in overrides.items() if k in decl})
            if kw == "guard":
                toks.expect("=", "'='")
                guards.append(_ExprParser(toks, dim, consts_now).parse())
                continue
            t2, ident, c2 = toks.next()
            if t2 != "ident":
                raise SpraySyntaxError(ln, c2 if c2 > 0 else 1, "a component name", ident)
            toks.expect("=", "'='")
            node = _ExprParser(toks, dim, consts_now).parse()
            if kw == "spray":
                if metric is not None:
                    raise SpraySyntaxError(ln, 1, "no spray statements in a metric file", kw)
                m = re.fullmatch(r"G([0-9]+)", ident)
                if not m or not 1 <= int(m.group(1)) <= dim:
                    raise SpraySyntaxError(ln, c2, f"a component name G1..G{dim}", ident)
                i = int(m.group(1)) - 1
                if i in sprays:
                    raise SpraySyntaxError(ln, c2, f"a single definition of {ident}", ident)
                sprays[i] = node
            else:
                if sprays:
                    raise SpraySyntaxError(ln, 1, "no metric statements in a spray file", kw)
                if metric is not None:
                    raise SpraySyntaxError(ln, c2, "a single metric statement", ident)
                metric = node
            continue

        raise SpraySyntaxError(ln, col if col > 0 else 1, "'spray', 'metric', 'guard' or 'const'", kw)

    unknown = set(overrides) - set(decl)
    if unknown:
        raise ParamError(f"const override for undeclared name(s): {', '.join(sorted(unknown))}")

    if metric is not None:
        exprs: tuple[Node, ...] = (metric,)
        kind = "metric"
    else:
        missing = [f"G{i+1}" for i in range(dim) if i not in sprays]
        if missing:
            raise SpraySyntaxError(len(lines), 1, f"definitions for {', '.join(missing)}", "")
        exprs = tuple(sprays[i] for i in range(dim))
        kind = "spray"

    resolved = dict(decl)
    resolved.update({k: v for k, v in overrides.items() if k in decl})
    return ProblemDef(dim=dim, kind=kind, exprs=exprs, guards=tuple(guards), name=name, consts=resolved)


def _var_value(name: str, env: Sequence, dim: int):
    idx = int(name[1:]) - 1
    return env[idx] if name[0] == "x" else env[dim + idx]


def evaluate(node: Node, env: Sequence, dim: int | None = None):
    """Evaluate a tree over any numeric environment (floats, arrays or jets).

    `env` lists the 2n variable values as x1..xn, y1..yn; `dim` defaults to
    len(env)//2.
    """
    n = len(env) // 2 if dim is None else dim
    return _eval(node, env, n)


_CALLS = {
    "sqrt": jets.sqrt,
    "exp": jets.exp,
    "ln": jets.ln,
    "abs": jets.absval,
    "atan": jets.atan,
    "sin": jets.sin,
    "cos": jets.cos,
}


def _eval(node: Node, env: Sequence, dim: int):
    k = node.kind
    if k == "num":
        return node.value
    if k == "var":
        return _var_value(node.name, env, dim)
    if k == "neg":
        return -_eval(node.a, env, dim)
    if k == "add":
        return _eval(node.a, env, dim) + _eval(node.b, env, dim)
    if k == "sub":
        return _eval(node.a, env, dim) - _eval(node.b, env, dim)
    if k == "mul":
        return _eval(node.a, env, dim) * _eval(node.b, env, dim)
    if k == "div":
        return _eval(node.a, env, dim) / _eval(node.b, env, dim)
    if k == "powi":
        return jets.powi(_eval(node.a, env, dim), node.k)
    if k == "pow":
        return jets.exp(_eval(node.b, env, dim) * jets.ln(_eval(node.a, env, dim)))
    if k == "call":
        return _CALLS[node.name](_eval(node.a, env, dim))
    raise ValueError(f"unknown node kind {k!r}")


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4, "powi": 4}


def pretty(node: Node) -> str:
    """Canonical text form; parses back to an identical tree."""
    return _fmt(node, 0)


def _fmt(node: Node, parent_prec: int) -> str:
    k = node.kind
    if k == "num":
        v = node.value
        return repr(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(v)
    if k == "var":
        return node.name
    if k == "call":
        return f"{node.name}({_fmt(node.a, 0)})"
    prec = _PREC[k]
    if k == "neg":
        inner = _fmt(node.a, prec)
        out = f"-{inner}"
    elif k == "powi":
        if node.k < 0:
            out = f"{_fmt(node.a, prec + 1)}^(-{-node.k})"
        else:
            out = f"{_fmt(node.a, prec + 1)}^{node.k}"
    elif k == "pow":
        out = f"{_fmt(node.a, prec + 1)}^{_fmt(node.b, prec + 1)}"
    else:
        sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[k]
        right_bump = 1 if k in ("sub", "div") else 0
        out = f"{_fmt(node.a, prec)}{sym}{_fmt(node.b, prec + right_bump)}"
    return f"({out})" if prec < parent_prec or (k == "neg" and parent_prec > 0) else out


def pretty_problem(pd: ProblemDef) -> str:
    lines = [f"dim {pd.dim}"]
    if pd.kind == "spray":
        for i, e in enumerate(pd.exprs):
            lines.append(f"spray G{i+1} = {pretty(e)}")
    else:
        lines.append(f"metric L = {pretty(pd.exprs[0])}")
    for g in pd.guards:
        lines.append(f"guard = {pretty(g)}")
    return "\n".join(lines) + "\n"
