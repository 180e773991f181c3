from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from spraylab import dsl, jets, pflat
from spraylab.errors import (
    ArityError,
    DimensionError,
    DomainError,
    ParamError,
    SpraySyntaxError,
)

EX_SPRAY = """\
# rotational family on the punctured plane
dim 2
const r = 1
spray G1 = (1/(2*r)) * y2 * sqrt(y1^2 + y2^2)
spray G2 = -(1/(2*r)) * y1 * sqrt(y1^2 + y2^2)
guard = y1^2 + y2^2 - 0.25
"""


def test_parse_spray_file_shape() -> None:
    pd = dsl.parse(EX_SPRAY, name="rot")
    assert pd.dim == 2
    assert pd.kind == "spray"
    assert len(pd.exprs) == 2
    assert len(pd.guards) == 1
    assert pd.name == "rot"
    assert pd.consts == {"r": 1.0}


def test_evaluate_known_value() -> None:
    pd = dsl.parse(EX_SPRAY)
    # G1 at y=(3,4): (1/2)*4*5 = 10
    assert dsl.evaluate(pd.exprs[0], [0.0, 0.0, 3.0, 4.0]) == pytest.approx(10.0)
    assert dsl.evaluate(pd.exprs[1], [0.0, 0.0, 3.0, 4.0]) == pytest.approx(-7.5)


def test_const_override_rescales() -> None:
    pd = dsl.parse(EX_SPRAY, consts={"r": 2.0})
    assert dsl.evaluate(pd.exprs[0], [0.0, 0.0, 3.0, 4.0]) == pytest.approx(5.0)
    with pytest.raises(ParamError):
        dsl.parse(EX_SPRAY, consts={"nope": 1.0})


def test_evaluate_over_jets_matches_floats() -> None:
    pd = dsl.parse(EX_SPRAY)
    p = (0.1, -0.2, 0.8, 0.6)
    direct = dsl.evaluate(pd.exprs[0], list(p))
    jet = jets.lift(lambda env: dsl.evaluate(pd.exprs[0], env), p, 3)
    assert jet.value == pytest.approx(direct, rel=1e-14)
    # degree-2 homogeneity visible through the jet
    ydir = p[2] * jet.partial((0, 0, 1, 0)) + p[3] * jet.partial((0, 0, 0, 1))
    assert ydir == pytest.approx(2 * direct, rel=1e-12)


def test_precedence_and_associativity() -> None:
    pd = dsl.parse("dim 1\nspray G1 = -y1^2\n")
    assert dsl.evaluate(pd.exprs[0], [0.0, 3.0]) == pytest.approx(-9.0)
    pd = dsl.parse("dim 1\nspray G1 = y1 + 2^3^2 * 0 + (1 - 2 - 3) + 6/2/3*y1\n")
    # 2^3^2 parses right-assoc (=512) but is multiplied by 0; 6/2/3 = 1
    assert dsl.evaluate(pd.exprs[0], [0.0, 5.0]) == pytest.approx(5.0 - 4.0 + 5.0)
    pd = dsl.parse("dim 1\nspray G1 = 2^3^2 + 0*y1^2\n")
    assert dsl.evaluate(pd.exprs[0], [0.0, 1.0]) == pytest.approx(512.0)


def test_integer_power_at_zero_and_real_power_domain() -> None:
    pd = dsl.parse("dim 1\nspray G1 = y1^2\n")
    jet = jets.lift(lambda env: dsl.evaluate(pd.exprs[0], env), (0.3, 0.0), 2)
    assert jet.partial((0, 2)) == pytest.approx(2.0)
    pd = dsl.parse("dim 1\nspray G1 = y1^0.5 * y1^1.5\n")
    with pytest.raises(DomainError):
        jets.lift(lambda env: dsl.evaluate(pd.exprs[0], env), (0.0, -1.0), 1)


def test_syntax_error_reports_position() -> None:
    with pytest.raises(SpraySyntaxError) as err:
        dsl.parse("dim 2\nspray G1 = y1 + * y2\n")
    assert err.value.line == 2
    assert err.value.col > 0


def test_header_and_statement_validation() -> None:
    with pytest.raises(SpraySyntaxError):
        dsl.parse("spray G1 = y1\n")  # missing header
    with pytest.raises(SpraySyntaxError):
        dsl.parse("dim 2\nspray G1 = y1^2\n")  # G2 missing
    with pytest.raises(SpraySyntaxError):
        dsl.parse("dim 1\nspray G1 = y1^2\nspray G1 = y1^2\n")  # duplicate
    with pytest.raises(SpraySyntaxError):
        dsl.parse("dim 1\nspray G1 = y1^2\nmetric L = y1^2\n")  # mixed kinds


@pytest.mark.parametrize("src", [
    "dim 1\nmetric L = 1e999*y1^2\n",
    "dim 1\nconst c = -1e999\nmetric L = c*y1^2\n",
], ids=["literal", "const"])
def test_number_beyond_float_range_is_a_syntax_error(src) -> None:
    with pytest.raises(SpraySyntaxError) as err:
        dsl.parse(src)
    assert (err.value.line, err.value.col, err.value.found) == (2, 12, "1e999")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_const_override_is_refused(value) -> None:
    with pytest.raises(ParamError, match="const override for c is not a "
                       "finite number"):
        dsl.parse("dim 1\nconst c = 1\nmetric L = c*y1^2\n",
                  consts={"c": value})


def test_dimension_error_for_out_of_range_variable() -> None:
    with pytest.raises(DimensionError):
        dsl.parse("dim 2\nspray G1 = y3^2\nspray G2 = 0\n")


@pytest.mark.parametrize("src, col", [
    ("dim 1\nconst y1 = 3\nmetric L = y1^2\n", 7),
    ("dim 2\nconst  x02 = 1\nmetric L = y1^2\n", 8),
], ids=["y1", "x02"])
def test_a_const_named_like_a_chart_variable_is_refused(src, col) -> None:
    with pytest.raises(SpraySyntaxError) as err:
        dsl.parse(src)
    assert (err.value.line, err.value.col) == (2, col)
    assert err.value.expected == "a constant name that is not a chart variable"


def test_a_second_declaration_of_a_const_is_refused() -> None:
    src = "dim 1\nconst c = 1\nmetric L = c*y1^2\n  const c = 2\n"
    with pytest.raises(SpraySyntaxError) as err:
        dsl.parse(src)
    assert (err.value.line, err.value.col, err.value.found) == (4, 9, "c")
    assert str(err.value) == "line 4, col 9: expected a single declaration of c, found 'c'"
    # a const is read from its declaration on, so a use before it is unknown
    with pytest.raises(SpraySyntaxError, match="line 2, col 12: expected a variable"):
        dsl.parse("dim 1\nmetric L = c*y1^2\nconst c = 1\n")


def test_arity_error() -> None:
    with pytest.raises(ArityError):
        dsl.parse("dim 1\nspray G1 = sqrt(y1, y1)\n")


def test_unknown_identifier_is_a_syntax_error() -> None:
    with pytest.raises(SpraySyntaxError):
        dsl.parse("dim 1\nspray G1 = bogus * y1^2\n")


def reparsed(pd, tree):
    """`pretty(tree)` parsed back as the metric of a problem of pd's
    dimension."""
    return dsl.parse(f"dim {pd.dim}\nmetric L = {dsl.pretty(tree)}\n").exprs[0]


def test_pretty_round_trip() -> None:
    pd = dsl.parse(EX_SPRAY)
    assert len(pd.exprs) == 2 and len(pd.guards) == 1
    for tree in pd.exprs + pd.guards:
        assert reparsed(pd, tree) == tree


def test_metric_kind() -> None:
    src = "dim 2\nmetric L = ((1 + x1^2 + x2^2)*(y1^2 + y2^2) - (x1*y1 + x2*y2)^2) / (1 + x1^2 + x2^2)^2\n"
    pd = dsl.parse(src)
    assert pd.kind == "metric"
    assert len(pd.exprs) == 1
    # at x=0 this is |y|^2
    assert dsl.evaluate(pd.exprs[0], [0.0, 0.0, 0.6, 0.8]) == pytest.approx(1.0)


def test_scientific_notation_and_comments() -> None:
    pd = dsl.parse("dim 1  # header comment\n# full line\nspray G1 = 2.5e-1 * y1^2\n")
    assert dsl.evaluate(pd.exprs[0], [0.0, 2.0]) == pytest.approx(1.0)


def test_pretty_parenthesizes_negative_numbers() -> None:
    pd = dsl.parse("dim 1\nconst a = -2\nmetric L = a^2*y1^2 + x1*a\n")
    text = dsl.pretty(pd.exprs[0])
    assert "(-2)^2" in text and "x1*(-2)" in text
    again = reparsed(pd, pd.exprs[0])
    assert dsl.evaluate(again, [0.5, 1.0]) == dsl.evaluate(pd.exprs[0], [0.5, 1.0]) == 3.0
    assert dsl.pretty(dsl.num(-0.0)) == "(-0)"
    assert str(dsl.evaluate(dsl.parse("dim 1\nmetric L = (-0)\n").exprs[0], [0.0, 1.0])) == "-0.0"


# two failing subtrees: ln(x1 - 1) fails at x1 = 0 and sqrt(x2 - 1) at
# x2 = 0; a real power evaluates its exponent before its base
TWO_FAILURES = """\
dim 2
spray G1 = ln(x1 - 1)^sqrt(x2 - 1)
spray G2 = ln(x1 - 1) + y1^sqrt(x2 - 1)
"""


@pytest.mark.parametrize("order", [None, 2])
def test_the_first_failing_op_decides_the_error(order) -> None:
    pd = dsl.parse(TWO_FAILURES)
    p = (0.0, 0.0, 0.6, 0.8)
    if order is None:
        env, sqrt_error, ln_error = list(p), r"^sqrt\(-1\.0\)$", r"^ln\(-1\.0\)$"
    else:
        sp = jets.space(4, order)
        env = [sp.variable(v, p) for v in range(4)]
        sqrt_error, ln_error = "^sqrt of jet", "^ln of jet"
    g1, g2 = pd.exprs
    with pytest.raises(DomainError, match=sqrt_error):
        dsl.evaluate(g1, env)
    with pytest.raises(DomainError, match=ln_error):
        dsl.evaluate(g2, env)
    # shared subtrees do not move the error: it is the first root's
    with pytest.raises(DomainError, match=sqrt_error):
        dsl.evaluate(pd.tape, env)
    with pytest.raises(DomainError, match=ln_error):
        dsl.evaluate(dsl.Tape((g2, g1), 2), env)


def test_a_tape_gives_its_roots_in_order() -> None:
    pd = dsl.parse(EX_SPRAY)
    env = [0.0, 0.0, 3.0, 4.0]
    assert dsl.evaluate(pd.tape, env) == [dsl.evaluate(e, env) for e in pd.exprs]
    assert dsl.evaluate(pd.guard_tape, env) == pd.guard_values(env) == [24.75]
    assert dsl.evaluate(dsl.Tape((), 2), env) == []
    with pytest.raises(ValueError):
        dsl.evaluate(pd.tape, env + [0.0, 0.0], dim=3)


def test_a_tree_deeper_than_the_frame_limit_compiles() -> None:
    # a left-nested sum of 1,200 terms: the tape's walk takes no frame per
    # level, and the shared term is one slot
    src = "dim 2\nmetric L = y1^2 + y2^2" + " + 0.001*y1^2" * 1198 + "\n"
    pd = dsl.parse(src)
    assert len(pd.tape.ops) == 4 + 1198
    want = 3.0 * 3.0 + 4.0 * 4.0
    for _ in range(1198):
        want = want + 0.001 * 9.0
    assert dsl.evaluate(pd.tape, [0.0, 0.0, 3.0, 4.0])[0].hex() == want.hex()


def test_a_tree_deeper_than_the_frame_limit_hashes_compares_and_prints() -> None:
    # the 1,200-term sum again: ==, hash and repr of its nodes and problems,
    # and pretty, walk it by explicit stacks
    src = "dim 2\nmetric L = y1^2 + y2^2" + " + 0.001*y1^2" * 1198 + "\n"
    pd, again = dsl.parse(src), dsl.parse(src)
    root = pd.exprs[0]
    assert root is not again.exprs[0] and root == again.exprs[0]
    assert pd == again and hash(pd) == hash(again) and hash(root) == hash(again.exprs[0])
    other = dsl.parse(src.replace("y2^2", "y2^3")).exprs[0]
    assert root != other and not root == other
    text = repr(pd)
    assert text == repr(again) and text.count("Node(kind=") == 1199 + 2 * 2 + 1198 * 4
    assert text.startswith("ProblemDef(dim=2, kind='metric', exprs=(Node(kind='add', a=Node(")
    printed = dsl.pretty(root)
    assert printed == src.split("= ", 1)[1].strip()
    assert dsl.parse(f"dim 2\nmetric L = {printed}\n").exprs[0] == root


def test_signed_zeros_are_distinct_numbers() -> None:
    zero, minus_zero = dsl.num(0.0), dsl.num(-0.0)
    tape = dsl.Tape((zero, minus_zero, dsl.mul(zero, dsl.var("y1"))), 1)
    got = dsl.evaluate(tape, [1.0, -2.0])
    assert [str(v) for v in got] == ["0.0", "-0.0", "-0.0"]


class Symbol:
    """A value that records each operation run on it, keyed by what it
    computes, so an operation run twice on the same operands shows."""

    def __init__(self, key, runs):
        self.key, self.runs = key, runs

    def _op(self, name, *args):
        key = (name,) + tuple(a.key if isinstance(a, Symbol) else float(a).hex()
                              for a in args)
        self.runs[key] += 1
        return Symbol(key, self.runs)

    def __add__(self, o): return self._op("add", self, o)
    def __radd__(self, o): return self._op("add", o, self)
    def __sub__(self, o): return self._op("sub", self, o)
    def __rsub__(self, o): return self._op("sub", o, self)
    def __mul__(self, o): return self._op("mul", self, o)
    def __rmul__(self, o): return self._op("mul", o, self)
    def __truediv__(self, o): return self._op("div", self, o)
    def __rtruediv__(self, o): return self._op("div", o, self)
    def __neg__(self): return self._op("neg", self)
    def exp(self): return self._op("exp", self)
    def ln(self): return self._op("ln", self)
    def sqrt(self): return self._op("sqrt", self)


def _op_subtrees(node, into: set, count: list) -> tuple:
    """(structural key, whether a variable occurs) of `node`; adds the keys
    of its operation subtrees over variables to `into` and counts them,
    with repeats, in count[0].  Operations on numbers alone run on floats,
    which a Symbol does not see."""
    if node.kind == "num":
        return ("num", node.value.hex()), False
    if node.kind == "var":
        return ("var", node.name), True
    kids = [_op_subtrees(c, into, count) for c in (node.a, node.b) if c is not None]
    key = (node.kind, node.name, node.k) + tuple(k for k, _ in kids)
    if any(v for _, v in kids):
        into.add(key)
        count[0] += 1
        return key, True
    return key, False


def test_gen_pflat_spray_runs_each_distinct_op_once(monkeypatch) -> None:
    runs: Counter = Counter()
    real_powi = jets.powi

    def powi(u, k):
        return u._op(f"powi{k}", u) if isinstance(u, Symbol) else real_powi(u, k)

    # the tape binds jets.powi when it is compiled, on first use
    monkeypatch.setattr(jets, "powi", powi)
    A = np.eye(4) + 0.05 * np.array([[0, 1, 2, 0], [1, 0, -1, 3],
                                     [2, -1, 0, 1], [0, 3, 1, 0]])
    q = pflat.QuadraticData(A=A, B=(0.1, -0.05, 0.0, 0.07), C=1.0)
    problem = pflat.gen_spray(q).problem
    env = [Symbol(("var", f"{c}{i}"), runs) for c in "xy" for i in range(1, 5)]
    out = dsl.evaluate(problem.tape, env)
    assert len(out) == 4
    distinct: set = set()
    total = [0]
    for e in problem.exprs:
        _op_subtrees(e, distinct, total)
    assert max(runs.values()) == 1
    assert sum(runs.values()) == len(distinct)
    # U and V repeat in each of the four coefficients
    assert 3 * len(distinct) < total[0]
