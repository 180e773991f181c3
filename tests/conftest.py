"""Shared fixtures for the spraylab test suite."""

from __future__ import annotations

import dataclasses
import math
import operator
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import pytest

from spraylab import classify, dsl, geometry, jets, metrize, sampling
from spraylab.errors import (ArityError, DimensionError, DomainError, ParamError,
                             PathError, PreconditionError, SamplingError, SpraySyntaxError)


def classified(spray, count, seed=7, box=None):
    """The classification report a verdict reads, at order 4 and the
    default tolerances."""
    return classify.classify_spray(spray, count=count, seed=seed, box=box)


def loop_sample_points(dim, count=64, seed=7, box=None, accept=None):
    """`sampling.sample_points` as it drew one tangent try at a time: one
    `rng.uniform` per try and one Y_FLOOR test per point."""
    if count < 1:
        raise SamplingError("sample count must be at least 1")
    box = box or sampling.SampleBox()
    rng = np.random.default_rng(seed)
    m = 2 * dim
    nb = -(-count // m)
    budget = 10 * (nb + nb * m)

    candidates = rejected = 0

    def ok(pt: np.ndarray) -> bool:
        nonlocal candidates, rejected
        if np.max(np.abs(pt[dim:])) < sampling.Y_FLOOR:
            return False
        candidates += 1
        if accept is None:
            return True
        try:
            good = bool(accept(pt))
        except Exception:
            good = False
        rejected += not good
        return good

    bases = np.empty((nb, dim))
    ys = np.empty((nb, m, dim))
    b = 0
    while b < nb:
        if budget <= 0:
            raise SamplingError(
                f"sampling exhausted after rejections: {b}/{nb} base groups filled"
            )
        budget -= 1
        x = rng.uniform(box.x_lo, box.x_hi, size=dim)
        group = np.empty((m, dim))
        k = 0
        tries = 10 * m
        start = budget
        while k < m and tries > 0 and budget > 0:
            tries -= 1
            budget -= 1
            y = rng.uniform(box.y_lo, box.y_hi, size=dim)
            if ok(np.concatenate([x, y])):
                group[k] = y
                k += 1
        if k == m:
            bases[b] = x
            ys[b] = group
            b += 1
        else:
            budget = max(budget, start - m)
    return sampling.SampleSet(bases, ys, candidates, rejected)


def loop_jsonable(obj):
    """A report value as JSON-safe types, by the copy each command made of
    its whole report before `cli.Report.json_bytes` wrote it: the reference
    for the writer's rules."""
    if type(obj) is float:
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): loop_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [loop_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [loop_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if obj is None or isinstance(obj, str):
        return obj
    return f"<{type(obj).__name__}>"


def loop_lambda(field, x) -> float:
    """`LambdaField.__call__` as it integrated one target at a time: the
    nodes built one by one, `accept` asked at each in path order, one
    `omega` call for the nodes before the first veto, and each node's dot
    product `om_k @ d`.  The reference for the block requests' bits and
    errors; it reads and fills the field's cache as the call did."""
    xa = np.asarray(x, dtype=float)
    key = xa.tobytes()
    if key in field._cache:
        return field._cache[key]
    d = xa - field.x0
    xs = []
    veto = None
    for t, _ in field._rule:
        xt = field.x0 + t * d
        try:
            ok = field.accept is None or field.accept(xt)
        except Exception as exc:
            veto = exc
            break
        if not ok:
            veto = PathError("integration segment leaves the admissible "
                             f"chart at t={t:.4f}")
            break
        xs.append(xt)
    xs = np.array(xs).reshape(len(xs), len(d))
    om = xs
    if len(xs):
        om = np.array(list(classify.rowwise(field.omega, xs)))
        if np.shape(om) != xs.shape:
            raise ValueError(f"omega maps {xs.shape} nodes to shape "
                             f"{np.shape(om)}, not one row per node")
    if veto is not None:
        raise veto
    total = 0.0
    for (_, w), om_k in zip(field._rule, om):
        total += w * float(om_k @ d)
    out = float(np.exp(total))
    field._cache[key] = out
    return out


def projective_isotropy_residual(b, tol=sampling.TOL) -> list:
    """Defect of the curvature identity tied to the form G^i = P y^i.

    For such sprays the vertical gradient of R and the trace part are
    locked to the factor's derivatives:

        R_.i - 2 tau_i = 3 (P_;i - (P_.i)_{;j} y^j)

    with P read off as G . y / |y|^2 in the chart pairing.  Returns the
    worst componentwise defect of the two sides' values, one per row of
    the bundle (a point bundle is one row).  Raises PreconditionError at
    the first row where the spray is not of that form or the split fails;
    the identity has no content there.
    """
    n = b.dim
    for holds, worst in classify._proportional(b.G_values, b.yvals, tol):
        if not holds:
            raise PreconditionError(
                "spray is not of the form G^i = P y^i in this chart (worst "
                f"cross product {worst:.3e}); the identity does not apply")
    decs = classify.decompose_scalar(b, tol=tol)
    for dec in decs:
        if not dec.holds:
            raise PreconditionError(
                "scalar decomposition fails at the point (residual "
                f"{dec.residual:.3e})")
    rows = len(decs)
    P = classify.projective_factor(b)
    P_semi = b.cov_h(P, ()).reshape(rows, n)
    P_cov = b.cov_h(np.array([P.dy(i) for i in range(n)], dtype=object),
                    ("d",)).reshape(rows, n, n)
    lhs = b.rdot_values.reshape(rows, n) - 2.0 * classify._taus(decs, n)
    y = b.yvals.reshape(rows, n)
    out = []
    for r in range(rows):
        worst = 0.0
        for i in range(n):
            contracted = sum(y[r, j] * P_cov[r, i, j] for j in range(n))
            worst = max(worst, abs(lhs[r, i] - 3.0 * (P_semi[r, i] - contracted)))
        out.append(float(worst))
    return out


def loop_folds(accs: list, rows: int) -> list:
    """`geometry._folds` as it folded one row at a time with Python max
    from 0.0, in list order: the reference for the block fold's values and
    types."""
    out = []
    for r in range(rows):
        worst = 0.0
        for acc in accs:
            worst = max(worst, abs(acc[r]))
        out.append(worst)
    return out


def fd_partial(fn, p, alpha, h: float = 1e-3) -> float:
    """Nested central-difference estimate of d^alpha fn at p, |alpha| <= 4.

    One central difference per derivative level with a fixed step, no
    extrapolation, so the error is O(h^2) per level.  It evaluates fn over
    plain floats and never touches jet coefficients: a naive, independent
    cross-check of the jet pipeline.
    """
    a = list(alpha)
    if sum(a) > 4:
        raise ValueError("fd_partial supports |alpha| <= 4")
    if sum(a) == 0:
        try:
            out = fn(list(map(float, p)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"float evaluation failed at {tuple(p)}: {exc}") from exc
        out = float(out)
        if not math.isfinite(out):
            raise DomainError(f"non-finite value at {tuple(p)}")
        return out
    v = next(i for i, e in enumerate(a) if e > 0)
    a[v] -= 1
    pp, pm = list(p), list(p)
    pp[v] += h
    pm[v] -= h
    return (fd_partial(fn, pp, a, h) - fd_partial(fn, pm, a, h)) / (2.0 * h)


def jet_inverse(m: np.ndarray) -> np.ndarray:
    """The inverse of an n x n object array of jets, as such an array:
    `jets.jet_matrix_inverse` of their stack, at the lowest of their
    orders, with each entry a jet that views the inverse's stack."""
    n = m.shape[0]
    sp = min((u.space for u in m.ravel()), key=lambda s: s.order)
    w = jets.jet_matrix_inverse(
        sp, np.array([[m[i, j].coeffs[..., :sp.T] for j in range(n)] for i in range(n)]))
    out = np.empty((n, n), dtype=object)
    for idx in np.ndindex(n, n):
        out[idx] = jets.Jet(sp, m[0, 0].center, w[idx])
    return out


def loop_reciprocal(u: jets.Jet) -> jets.Jet:
    """`Jet.reciprocal` with every Horner step at the jet's full order and
    through the multiply kernel, the first one from the constant jet 1
    included: the reference for the steps on prefix spaces."""
    v = u.coeffs[..., 0].copy()
    e = jets.Jet(u.space, u.center, u.coeffs / (v[:, None] if u.coeffs.ndim == 2 else v))
    e.coeffs[..., 0] -= 1.0
    s = u.space.constant(1.0, u.center)
    for _ in range(u.order):
        s = 1.0 - e * s
    return s * (1.0 / v if u.coeffs.ndim == 2 else 1.0 / float(v))


def unmasked_evaluate(tape: dsl.Tape, env: list, dim: int) -> list:
    """`dsl.evaluate` of the jets `env` with their masks stripped and every
    jet product taken by its space, as jets without masks multiply: the
    reference for the column masks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "_product",
                   lambda sp, a, mask_a, b, mask_b: (jets._mul_coeffs(sp, a, b), None))
        return dsl.evaluate(tape, [jets.Jet(u.space, u.center, u.coeffs) for u in env],
                            dim=dim)


LOOP_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()=,])"
    r"|(?P<bad>\S))"
)


class LoopTokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.toks: list[tuple[str, str, int]] = []  # (type, text, col)
        pos = 0
        while pos < len(text):
            m = LOOP_TOKEN.match(text, pos)
            if not m or m.end() == pos:
                break
            pos = m.end()
            col = m.start(m.lastgroup) + 1
            if m.lastgroup == "bad":
                raise SpraySyntaxError(line, col, "a token", m.group("bad"))
            if m.lastgroup == "num" and not math.isfinite(float(m.group("num"))):
                raise SpraySyntaxError(line, col, "a number within float range", m.group("num"))
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


class LoopExprParser:
    def __init__(self, toks: LoopTokens, dim: int, consts: dict):
        self.t = toks
        self.dim = dim
        self.consts = consts

    def parse(self) -> dsl.Node:
        node = self.expr()
        if not self.t.done():
            typ, tok, col = self.t.peek()
            raise SpraySyntaxError(self.t.line, col, "end of expression", tok)
        return node

    def expr(self) -> dsl.Node:
        node = self.term()
        while self.t.peek()[1] in ("+", "-"):
            op = self.t.next()[1]
            rhs = self.term()
            node = dsl.add(node, rhs) if op == "+" else dsl.sub(node, rhs)
        return node

    def term(self) -> dsl.Node:
        node = self.unary()
        while self.t.peek()[1] in ("*", "/"):
            op = self.t.next()[1]
            rhs = self.unary()
            node = dsl.mul(node, rhs) if op == "*" else dsl.div(node, rhs)
        return node

    def unary(self) -> dsl.Node:
        if self.t.peek()[1] == "-":
            self.t.next()
            return dsl.neg(self.unary())
        return self.power()

    def power(self) -> dsl.Node:
        base = self.atom()
        if self.t.peek()[1] == "^":
            self.t.next()
            expo = self.unary()  # right-assoc, unary minus allowed in exponent
            return self._make_pow(base, expo)
        return base

    def _make_pow(self, base: dsl.Node, expo: dsl.Node) -> dsl.Node:
        lit = expo
        sign = 1
        while lit.kind == "neg":
            sign, lit = -sign, lit.a
        if lit.kind == "num" and float(lit.value).is_integer():
            return dsl.powi(base, sign * int(lit.value))
        # non-integer exponent routes through exp(e * ln(base)) and inherits
        # the positivity requirement on the base
        return dsl.Node("pow", a=base, b=expo)

    def atom(self) -> dsl.Node:
        typ, tok, col = self.t.next()
        if typ == "num":
            return dsl.num(float(tok))
        if tok == "(":
            node = self.expr()
            self.t.expect(")", "')'")
            return node
        if typ == "ident":
            if self.t.peek()[1] == "(":
                return self.call(tok, col)
            return self.name(tok, col)
        raise SpraySyntaxError(self.t.line, col if col > 0 else 1, "a value", tok)

    def call(self, fname: str, col: int) -> dsl.Node:
        if fname not in dsl.FUNCTIONS:
            raise SpraySyntaxError(self.t.line, col, f"one of {', '.join(dsl.FUNCTIONS)}", fname)
        self.t.expect("(", "'('")
        args = [self.expr()]
        while self.t.peek()[1] == ",":
            self.t.next()
            args.append(self.expr())
        self.t.expect(")", "')'")
        if len(args) != 1:
            raise ArityError(f"line {self.t.line}: {fname} takes 1 argument, got {len(args)}")
        return dsl.call(fname, args[0])

    def name(self, tok: str, col: int) -> dsl.Node:
        if tok in self.consts:
            return dsl.num(self.consts[tok])
        m = re.fullmatch(r"([xy])([0-9]+)", tok)
        if m:
            idx = int(m.group(2))
            if not 1 <= idx <= self.dim:
                raise DimensionError(
                    f"line {self.t.line}, col {col}: variable {tok} out of range for dim {self.dim}"
                )
            return dsl.var(tok)
        raise SpraySyntaxError(self.t.line, col, "a variable, declared const or function", tok)


def loop_parse(text: str, consts: dict | None = None, name: str = "") -> dsl.ProblemDef:
    """`dsl.parse` as it tokenized each line by one `match` per token and
    parsed it by recursive descent (expr, term, unary, power, atom): the
    reference for the trees and errors of the scan and the precedence
    loop.  It takes a second `const` of one name, the last one winning,
    and a `const` named like a chart variable, which `dsl.parse` refuses."""
    overrides = dict(consts or {})
    bad = sorted(k for k, v in overrides.items() if not math.isfinite(v))
    if bad:
        raise ParamError(f"const override for {', '.join(bad)} is not a finite number")
    decl: dict[str, float] = {}
    dim = 0
    sprays: dict[int, dsl.Node] = {}
    metric: dsl.Node | None = None
    guards: list[dsl.Node] = []
    seen_header = False

    lines = text.splitlines()
    # the lines that hold a statement, parsed in order below
    pending: list[tuple[int, str]] = []
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            pending.append((ln, stripped))

    if not pending:
        raise SpraySyntaxError(1, 1, "'dim INT' header", "")

    for ln, src in pending:
        toks = LoopTokens(src, ln)
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
                guards.append(LoopExprParser(toks, dim, consts_now).parse())
                continue
            t2, ident, c2 = toks.next()
            if t2 != "ident":
                raise SpraySyntaxError(ln, c2 if c2 > 0 else 1, "a component name", ident)
            toks.expect("=", "'='")
            node = LoopExprParser(toks, dim, consts_now).parse()
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
        exprs: tuple[dsl.Node, ...] = (metric,)
        kind = "metric"
    else:
        missing = [f"G{i+1}" for i in range(dim) if i not in sprays]
        if missing:
            raise SpraySyntaxError(len(lines), 1, f"definitions for {', '.join(missing)}", "")
        exprs = tuple(sprays[i] for i in range(dim))
        kind = "spray"

    resolved = dict(decl)
    resolved.update({k: v for k, v in overrides.items() if k in decl})
    return dsl.ProblemDef(dim=dim, kind=kind, exprs=exprs, guards=tuple(guards), name=name, consts=resolved)


def loop_tape(roots, dim: int) -> tuple:
    """(consts, loads, outputs, ops) of `dsl.Tape(roots, dim)` as its walk
    took them by recursion, one Python frame per tree level: the reference
    for the op order of the explicit stack."""
    consts, loads, ops, slots, walked = [], [], [], {}, {}

    def slot(key: tuple, value=None, op=None) -> int:
        if key not in slots:
            slots[key] = len(consts)
            consts.append(value)
            if op is not None:
                ops.append((slots[key],) + op)
        return slots[key]

    def op(fn, a: int, b: int = -1) -> int:
        return slot((fn, a, b), op=(fn, a, b))

    def walk(node) -> int:
        s = walked.get(id(node))
        if s is not None:
            return s
        k = node.kind
        if k == "num":
            s = slot(("num", float(node.value).hex()), node.value)
        elif k == "var":
            idx = int(node.name[1:]) - 1 + (dim if node.name[0] == "y" else 0)
            if ("var", idx) not in slots:
                loads.append((len(consts), idx))
            s = slot(("var", idx))
        elif k == "neg":
            s = op(operator.neg, walk(node.a))
        elif k in dsl._BINARY:
            a = walk(node.a)
            s = op(dsl._BINARY[k], a, walk(node.b))
        elif k == "powi":
            s = op(jets.powi, walk(node.a), slot(("int", node.k), node.k))
        elif k == "pow":
            e = walk(node.b)
            s = op(jets.exp, op(operator.mul, e, op(jets.ln, walk(node.a))))
        else:
            s = op(dsl._CALLS[node.name], walk(node.a))
        walked[id(node)] = s
        return s

    outputs = tuple(walk(r) for r in roots)
    return consts, loads, outputs, ops


# `dsl.Node` with the methods the dataclass generates: `==`, `hash` and
# `repr` that recurse one Python frame per tree level, under the same class
# name.  The reference for the explicit stacks of `dsl.Node`'s own.
DataclassNode = dataclasses.make_dataclass(
    "Node", [(f.name, f.type, dataclasses.field(default=f.default))
             for f in dataclasses.fields(dsl.Node)], frozen=True)


def dataclass_tree(node, made: dict):
    """The tree as `DataclassNode`s: each field the same object, and a
    subtree that one tree or several share (by `made`) one object."""
    if node.__class__ is not dsl.Node:
        return node
    if id(node) not in made:
        made[id(node)] = DataclassNode(node.kind, dataclass_tree(node.a, made),
                                       dataclass_tree(node.b, made), node.value,
                                       node.name, node.k)
    return made[id(node)]


def loop_pretty(node, parent_prec: int = 0) -> str:
    """`dsl.pretty` as it recursed, one Python frame per tree level."""
    k = node.kind
    if k == "num":
        v = node.value
        text = repr(int(abs(v))) if float(v).is_integer() and abs(v) < 1e15 else repr(abs(v))
        return f"(-{text})" if math.copysign(1.0, v) < 0 else text
    if k == "var":
        return node.name
    if k == "call":
        return f"{node.name}({loop_pretty(node.a, 0)})"
    prec = dsl._PREC[k]
    if k == "neg":
        out = f"-{loop_pretty(node.a, prec)}"
    elif k == "powi":
        if node.k < 0:
            out = f"{loop_pretty(node.a, prec + 1)}^(-{-node.k})"
        else:
            out = f"{loop_pretty(node.a, prec + 1)}^{node.k}"
    elif k == "pow":
        out = f"{loop_pretty(node.a, prec + 1)}^{loop_pretty(node.b, prec + 1)}"
    else:
        sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[k]
        right_bump = 1 if k in ("sub", "div") else 0
        out = f"{loop_pretty(node.a, prec)}{sym}{loop_pretty(node.b, prec + right_bump)}"
    return f"({out})" if prec < parent_prec or (k == "neg" and parent_prec > 0) else out


def loop_compose(u: jets.Jet, c: list) -> jets.Jet:
    """`Jet._compose` with every Horner step at the jet's full order and
    through the multiply kernel."""
    h = jets.Jet(u.space, u.center, u.coeffs.copy())
    h.coeffs.T[0] = 0.0
    out = u.space.constant(c[u.order], u.center)
    for k in range(u.order - 1, -1, -1):
        out = out * h + c[k]
    return out


def loop_inverse(m: np.ndarray) -> np.ndarray:
    """`jet_inverse` by the Horner passes of `jets.jet_matrix_inverse`
    (W <- W0 - (W0 dM) W) all at the full order: the products with the
    constant W0 by `jets.constant_product`, each later pass one full
    `jets.contract`.  The reference for the passes on prefix spaces."""
    n = m.shape[0]
    sp = min((u.space for u in m.ravel()), key=lambda s: s.order)
    dm = np.array([[m[i, j].coeffs[..., :sp.T] for j in range(n)] for i in range(n)])
    vals = np.ascontiguousarray(np.moveaxis(dm[..., 0], (0, 1), (-2, -1)))
    w0 = np.moveaxis(np.linalg.inv(vals), (-2, -1), (0, 1))
    dm[..., 0] -= np.moveaxis(vals, (-2, -1), (0, 1))

    def constant_step(c, d, left):
        acc = jets.constant_product(sp, c[0], d[0], left)
        for k in range(1, n):
            acc = acc + jets.constant_product(sp, c[k], d[k], left)
        return acc

    w = np.zeros(dm.shape)
    w[..., 0] = w0
    if sp.order:
        x_k = constant_step(w0.swapaxes(0, 1)[:, :, None], dm[:, None], True)
        x_k = x_k.swapaxes(0, 1)[:, :, None]
        const = w
        w = const + -constant_step(w0[:, None], x_k, False)
        for _ in range(sp.order - 1):
            w = const + -jets.contract(sp, x_k, w[:, None])
    out = np.empty((n, n), dtype=object)
    for idx in np.ndindex(n, n):
        out[idx] = jets.Jet(sp, m[0, 0].center, w[idx])
    return out


class FullTaylor2:
    """`oracle.Taylor2` as it carried the full (B, 2n, 2n) Hessian: every
    product taken, a constant lifted to zero arrays, and a fresh array per
    term of a sum.  The reference for the y-columns' bits.  Tapes never
    call a power method, so it has none."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.val = val
        self.grad = grad
        self.hess = hess

    def _lift(self, other) -> "FullTaylor2":
        if isinstance(other, FullTaylor2):
            return other
        val = np.broadcast_to(np.asarray(other, dtype=float), self.val.shape).copy()
        return FullTaylor2(val, np.zeros_like(self.grad), np.zeros_like(self.hess))

    def __add__(self, other):
        o = self._lift(other)
        return FullTaylor2(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return FullTaylor2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        u, v = self, self._lift(other)
        grad = u.grad * v.val[:, None] + v.grad * u.val[:, None]
        hess = (
            u.hess * v.val[:, None, None]
            + v.hess * u.val[:, None, None]
            + u.grad[:, :, None] * v.grad[:, None, :]
            + v.grad[:, :, None] * u.grad[:, None, :]
        )
        return FullTaylor2(u.val * v.val, grad, hess)

    __rmul__ = __mul__

    def reciprocal(self) -> "FullTaylor2":
        if np.any(np.abs(self.val) <= 1e-12):
            raise DomainError("reciprocal of a value hitting zero in the batch")
        inv = 1.0 / self.val
        grad = -self.grad * (inv * inv)[:, None]
        hess = -self.hess * (inv * inv)[:, None, None] + 2.0 * (
            self.grad[:, :, None] * self.grad[:, None, :]
        ) * (inv**3)[:, None, None]
        return FullTaylor2(inv, grad, hess)

    def __truediv__(self, other):
        return self * self._lift(other).reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def _chain(self, f0, f1, f2) -> "FullTaylor2":
        grad = f1[:, None] * self.grad
        hess = f1[:, None, None] * self.hess + f2[:, None, None] * (
            self.grad[:, :, None] * self.grad[:, None, :]
        )
        return FullTaylor2(f0, grad, hess)

    def exp(self):
        e = np.exp(self.val)
        return self._chain(e, e, e)

    def ln(self):
        if np.any(self.val <= 1e-12):
            raise DomainError("ln of a nonpositive value in the batch")
        inv = 1.0 / self.val
        return self._chain(np.log(self.val), inv, -inv * inv)

    def sqrt(self):
        if np.any(self.val <= 1e-12):
            raise DomainError("sqrt of a nonpositive value in the batch")
        s = np.sqrt(self.val)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.val))

    def sin(self):
        return self._chain(np.sin(self.val), np.cos(self.val), -np.sin(self.val))

    def cos(self):
        return self._chain(np.cos(self.val), -np.sin(self.val), -np.cos(self.val))

    def atan(self):
        d = 1.0 + self.val * self.val
        return self._chain(np.arctan(self.val), 1.0 / d, -2.0 * self.val / (d * d))

    def absolute(self):
        s = np.sign(self.val)
        if np.any(s == 0.0):
            raise DomainError("absolute value at zero in the batch")
        return self._chain(np.abs(self.val), s, np.zeros_like(s))


def loop_taylor2(P: np.ndarray) -> list:
    """The variables of the (B, 2n) points P as `FullTaylor2`s."""
    P = np.asarray(P, dtype=float)
    nb, m = P.shape
    out = []
    for v in range(m):
        g = np.zeros((nb, m))
        g[:, v] = 1.0
        out.append(FullTaylor2(P[:, v].copy(), g, np.zeros((nb, m, m))))
    return out


def loop_induced(metric, P: np.ndarray) -> np.ndarray:
    """The G values of the spray that the expression metric induces, at
    the (B, 2n) points P, by `oracle.spray_values`' induced route through
    `FullTaylor2`: the reference for its bits and errors."""
    n = metric.dim
    P = np.asarray(P, dtype=float)
    env = loop_taylor2(P)
    t = dsl.evaluate(metric.problem.tape, env, dim=n)[0]
    t = t if isinstance(t, FullTaylor2) else env[0]._lift(t)
    g = 0.5 * t.hess[:, n:, n:]
    try:
        w = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DomainError(
            "the metric's fundamental tensor is singular at a point "
            f"of the finite-difference batch: {exc}") from exc
    v = np.einsum("bkl,bk->bl", t.hess[:, :n, n:], P[:, n:]) - t.grad[:, :n]
    return 0.25 * np.einsum("bil,bl->bi", w, v)


def cov_h_jets(b, T, slots: tuple) -> np.ndarray:
    """The horizontal covariant derivative of a jet tensor at the bundle
    b, as jets, by the loop over jets that `cov_h` and
    `CurvatureBundle.delta_scalar` replaced: an object array shaped like
    `cov_h`'s result."""
    T = np.asarray(T, dtype=object)
    if T.ndim != len(slots):
        raise ValueError("slot list does not match tensor rank")
    n = b.dim
    out = np.empty(T.shape + (n,), dtype=object)
    for idx in np.ndindex(*T.shape):
        base = T[idx]
        for j in range(n):
            acc = base.dx(j)
            for r in range(n):
                acc = acc - b.N[r][j] * base.dy(r)
            for a, s in enumerate(slots):
                ia = idx[a]
                for r in range(n):
                    swapped = idx[:a] + (r,) + idx[a + 1:]
                    if s == "u":
                        acc = acc + b.Gamma[ia][r][j] * T[swapped]
                    else:
                        acc = acc - b.Gamma[r][ia][j] * T[swapped]
            out[idx + (j,)] = acc
    return out


@pytest.fixture
def tally(monkeypatch):
    """Count sample draws, bundle builds, scalar splits and quadratures.

    `draws` counts calls of sampling.sample_points, through whichever
    spraylab module binds it.  `bundles` counts builds of point bundles
    per (point bytes, order) key, so a value above 1 is a rebuilt bundle;
    `blocks` lists the point-block shape of each block bundle built, and
    `rows` counts the rows of block bundles per the same key.
    `splits` counts scalar-split computations (`split_values`, where the
    split's residual is computed) per (point or block bytes, order) key,
    at point and block bundles alike.
    `lambda_targets` counts the points a LambdaField integrated to (its
    cache misses), whether asked alone or in a block request.
    """
    counts = {"draws": 0, "bundles": Counter(), "splits": Counter(),
              "blocks": [], "rows": Counter(), "lambda_targets": 0}
    sample_points = sampling.sample_points
    bundle = geometry.CurvatureBundle
    init = bundle.__init__
    splits = bundle.__dict__["split_values"]
    integrate = metrize.LambdaField._integrate

    def counting_sample_points(*args, **kwargs):
        counts["draws"] += 1
        return sample_points(*args, **kwargs)

    def counting_init(b, spray, p, order=4):
        init(b, spray, p, order)
        if b._pa.ndim == 2:
            counts["blocks"].append(b._pa.shape)
            counts["rows"].update((pt.tobytes(), b.order) for pt in b._pa)
        else:
            counts["bundles"][(b._pa.tobytes(), b.order)] += 1

    def counting_splits(b):
        counts["splits"][(b._pa.tobytes(), b.order)] += 1
        return splits.func(b)

    def counting_integrate(field, targets):
        counts["lambda_targets"] += len(targets)
        return integrate(field, targets)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "spraylab"
                and getattr(module, "sample_points", None) is sample_points):
            monkeypatch.setattr(module, "sample_points", counting_sample_points)
    counted_splits = cached_property(counting_splits)
    counted_splits.__set_name__(bundle, "split_values")
    monkeypatch.setattr(bundle, "__init__", counting_init)
    monkeypatch.setattr(bundle, "split_values", counted_splits)
    monkeypatch.setattr(metrize.LambdaField, "_integrate", counting_integrate)
    return counts


# -- constant-main-scalar generators ---------------------------------------------


@dataclass(frozen=True)
class CmsMetric:
    """A generated constant-main-scalar metric with its predictions.

    `omega12` maps a base point (x1, x2) to the predicted curvature 2-form
    component; `main_scalar_sq` is the predicted I^2.
    """

    kind: int
    metric: geometry.ExprMetric
    source: str
    omega12: Callable
    main_scalar_sq: float


def _param_field(expr: str, label: str) -> geometry.ExprMetric:
    src = f"dim 2\nmetric L = {expr}\n"
    try:
        return geometry.ExprMetric(dsl.parse(src, name=label))
    except Exception as e:
        raise ParamError(f"cannot parse {label} = {expr!r}: {e}") from e


def _param_jets(field_obj: geometry.ExprMetric, x) -> tuple:
    pt = np.array([x[0], x[1], 1.0, 1.0])
    j = field_obj.jet(pt, 2)
    return (j.value, j.dx(0).value, j.dx(1).value,
            j.dx(0).dx(1).value, j.dx(0).dx(0).value, j.dx(1).dx(1).value)


def gen_cms_metric(kind: int, p: str = "1", q: str = "1",
                   s: float | None = None,
                   r: float | None = None) -> CmsMetric:
    """One of the three constant-main-scalar families on beta = p(x) y1,
    gamma = q(x) y2.

    kind 19: L = beta^{2s} gamma^{2(1-s)}, s constant outside {0, 1};
    kind 20: L = beta^2 exp(2 gamma/beta);
    kind 21: L = (beta^2 + gamma^2) exp(2 r arctan(beta/gamma)).

    The returned omega12 prediction evaluates the closed form for the
    family on the parameter functions' jets; the guards in the metric
    source keep beta, gamma and the parameter functions positive so the
    fractional powers and the arctan branch stay single-valued.
    """
    pf = _param_field(p, "p")
    qf = _param_field(q, "q")
    beta = f"(({p})*y1)"
    gamma = f"(({q})*y2)"
    if kind == 19:
        if s is None or s in (0.0, 1.0):
            raise ParamError("kind 19 needs a constant s outside {0, 1}")
        body = f"{beta}^({2.0 * s!r}) * {gamma}^({2.0 * (1.0 - s)!r})"
        guards = ["y1 - 0.05", "y2 - 0.05", f"({p}) - 0.05", f"({q}) - 0.05"]
        I_sq = (2.0 * s - 1.0) ** 2 / abs(s * (s - 1.0))

        def omega12(x) -> float:
            pv, p1, p2, p12, _, _ = _param_jets(pf, x)
            qv, q1, q2, q12, _, _ = _param_jets(qf, x)
            num = ((pv * pv * qv * q12 - pv * qv * qv * p12
                    + qv * qv * p1 * p2 - pv * pv * q1 * q2) * s
                   - pv * pv * qv * q12 + pv * pv * q1 * q2)
            return ((1.0 - 2.0 * s) / (s * (1.0 - s))
                    * num / (pv * pv * qv * qv))

    elif kind == 20:
        if s is not None or r is not None:
            raise ParamError("kind 20 takes no s or r parameter")
        body = f"{beta}^2 * exp(2*{gamma} / {beta})"
        # the cone guards bound |gamma/beta| so the exponential stays in a
        # range where double precision keeps downstream fits conditioned
        guards = ["y1 - 0.05", f"({p}) - 0.05", f"({q}) - 0.05",
                  "2*y1 - y2", "y2 + 2*y1"]
        I_sq = 4.0

        def omega12(x) -> float:
            pv, p1, p2, p12, _, p22 = _param_jets(pf, x)
            qv, q1, q2, q12, _, _ = _param_jets(qf, x)
            num = (pv * pv * qv * p22 + pv * qv * qv * p12
                   - pv * pv * qv * q12 + pv * pv * q1 * q2
                   - qv * qv * p1 * p2 - pv * pv * p2 * q2)
            return -2.0 * num / (pv * pv * qv * qv)

    elif kind == 21:
        if r is None:
            raise ParamError("kind 21 needs a constant r")
        body = (f"({beta}^2 + {gamma}^2) * exp(({2.0 * r!r}) "
                f"* atan({beta} / {gamma}))")
        guards = ["y2 - 0.05", f"({p}) - 0.05", f"({q}) - 0.05"]
        I_sq = 4.0 * r * r / (1.0 + r * r)

        def omega12(x) -> float:
            pv, p1, p2, p12, p11, p22 = _param_jets(pf, x)
            qv, q1, q2, q12, q11, _ = _param_jets(qf, x)
            num = ((pv * pv * qv * q12 - pv * qv * qv * p12
                    - pv * pv * q1 * q2 + qv * qv * p1 * p2) * r
                   + pv * pv * qv * p22 + pv * qv * qv * q11
                   - qv * qv * p1 * q1 - pv * pv * p2 * q2)
            return 2.0 * r / (1.0 + r * r) * num / (pv * pv * qv * qv)

    else:
        raise ParamError(f"unknown family kind {kind}; expected 19, 20, 21")

    lines = ["dim 2", f"metric L = {body}"]
    lines.extend(f"guard = {g}" for g in guards)
    src = "\n".join(lines) + "\n"
    metric = geometry.ExprMetric(dsl.parse(src, name=f"cms{kind}"))
    return CmsMetric(kind=kind, metric=metric, source=src, omega12=omega12,
                     main_scalar_sq=I_sq)
