import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsub.expr import (
    BinOp,
    Call,
    Const,
    ExprDomainError,
    ExprParseError,
    Jet2,
    Pow,
    Var,
    eval_jet2,
    evaluate,
    jet_seeds,
    parse,
    to_string,
)
from confsub.scenes import load_scene_text

from .corpus import MALFORMED
from .fdtools import eval_expr, fd_gradient, fd_jacobian


def test_parse_example_components():
    e = parse("exp(x3)*cos(x5)", 6)
    assert e == BinOp("*", Call("exp", Var(2)), Call("cos", Var(4)))


def test_parse_identity_and_bounds():
    assert parse("x1", 1) == Var(0)
    with pytest.raises(ExprParseError, match="out of range"):
        parse("x7", 6)


def test_parse_precedence():
    assert parse("x1 + x2*x3", 3) == BinOp("+", Var(0), BinOp("*", Var(1), Var(2)))
    assert parse("x1 - x2 - x3", 3) == BinOp("-", BinOp("-", Var(0), Var(1)), Var(2))
    assert parse("x1^2", 1) == Pow(Var(0), 2.0)
    assert parse("2*x1^2", 1) == BinOp("*", Const(2.0), Pow(Var(0), 2.0))


@pytest.mark.parametrize("text,col", [("log(x1 - 1e999)", 10), ("exp(x1 * 1e999)", 10), ("x1^1e999", 4)])
def test_literals_that_are_not_finite_are_rejected_at_their_column(text, col):
    # 1e999 reads as inf: a constant or an exponent must be a finite double
    with pytest.raises(ExprParseError, match=rf"^number 1e999 out of range \(line 1, column {col}\)$"):
        parse(text, 1)


@pytest.mark.parametrize("text,dim,pos", MALFORMED)
def test_malformed_corpus_rejected_with_position(text, dim, pos):
    with pytest.raises(ExprParseError) as err:
        parse(text, dim)
    assert (err.value.line, err.value.col) == pos
    assert f"line {pos[0]}, column {pos[1]}" in str(err.value)


def test_eval_jet_exponential():
    e = parse("exp(x3)", 6)
    j = eval_jet2(e, [(0, 0, math.log(2.0), 0, 0, 0), (0, 0, 0, 0, 0, 0)])
    assert j.value[0] == pytest.approx(2.0, rel=1e-15)
    assert j.gradient[0] == pytest.approx([0, 0, 2.0, 0, 0, 0], rel=1e-15)
    assert j.value[1] == 1.0


def test_eval_jet_linear():
    j = eval_jet2(parse("x1", 1), [(5.0,), (-2.0,)])
    assert j.value.tolist() == [5.0, -2.0]
    for q in range(2):
        assert j.gradient[q] == pytest.approx([1.0])
        assert np.array_equal(j.hessian[q], np.zeros((1, 1)))


def test_eval_jet_product():
    # frozen against the central-difference oracle below
    e = parse("x1*x2", 2)
    p = (2.0, 3.0)
    j = eval_jet2(e, [p])
    assert j.value[0] == 6.0
    assert j.gradient[0] == pytest.approx([3.0, 2.0])
    assert j.hessian[0, 0, 1] == pytest.approx(1.0)
    fd = fd_gradient(lambda q: eval_expr(e, q), np.array(p))
    assert j.gradient[0] == pytest.approx(fd, abs=1e-9)


def test_domain_errors_carry_subexpression():
    with pytest.raises(ExprDomainError, match=r"log"):
        eval_jet2(parse("log(x1)", 1), [(-1.0,)])
    with pytest.raises(ExprDomainError, match=r"division by zero"):
        eval_jet2(parse("x1/(x2 - x2)", 2), [(1.0, 3.0)])
    with pytest.raises(ExprDomainError, match=r"sqrt"):
        eval_jet2(parse("sqrt(x1)", 1), [(-4.0,)])


# good points mixed with points outside the domain of some subexpression
MIXED_POINTS = [(2.0, 0.5), (-1.0, 0.3), (0.5, 0.7), (1.0, 2.0), (0.0, 1.0), (3.0, -1.0), (0.25, 0.9)]


@pytest.mark.parametrize("text", [
    "log(x1) * x2",  # log of a negative value, and of zero
    "x2 / (x1 - x1)",  # division by zero at every point
    "x1^1.5 + x2",  # fractional power of a negative value; not differentiable at zero
    "sqrt(log(x1))",  # the innermost failing subexpression, then sqrt of a negative value
    "x2 + x1/0",  # constant subexpressions fail every point
    "log(0 - 1) * x1",
    "exp(2000*x1) + x2",  # overflow at the larger x1
    "sin(x1*1e200*1e200)",  # a non-finite argument
])
def test_batched_failures_match_the_batch_of_one(text):
    e = parse(text, 2)
    errors = {}

    def record(bad, error):  # a fail that goes on: each bad point keeps its first error
        for q in np.flatnonzero(bad).tolist():
            errors.setdefault(q, error(q))

    batch = evaluate(e, jet_seeds(MIXED_POINTS), record)
    for q, p in enumerate(MIXED_POINTS):
        try:
            single = eval_jet2(e, [p])
        except ExprDomainError as want:
            got = errors[q]
            assert (str(got), got.subexpr) == (str(want), want.subexpr)
            continue
        assert q not in errors
        for part in ("value", "gradient", "hessian"):
            got, want = getattr(batch, part)[q], getattr(single, part)[0]
            assert np.array_equal(got, want, equal_nan=True), (q, part)
    assert errors or text == "log(0 - 1) * x1"  # not vacuous


def test_map_error_precedes_metric_error():
    scene = load_scene_text("""
[source]
dim = 2
g 1 1 = sqrt(x2)
g 2 2 = 1
[target]
dim = 1
metric = euclidean
[map]
F 1 = log(x1)
[sampling]
box = -1 1, -1 1
""")
    points = [np.array(p) for p in ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5))]
    entries, _ = scene.fmap.frame_pass(points)
    g, k = entries[0]
    assert g.points[k].tolist() == [0.5, 0.5]  # in both domains
    for p, got, subexpr in zip(points[1:], entries[1:], ("log(x1)", "sqrt(x2)", "log(x1)")):
        assert isinstance(got, ExprDomainError)
        assert got.subexpr == subexpr
        with pytest.raises(ExprDomainError) as want:
            scene.fmap.context(p, scene.tolerances).split
        assert str(got) == str(want.value)


# ---------------------------------------------------------------------------
# random expression generator shared by the FD comparison and round-trip tests

_FUNCS = ("sin", "cos", "exp", "neg")  # log/sqrt need positivity; exercised separately


def random_expr(rng, dim, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Var(int(rng.integers(dim)))
        return Const(round(float(rng.uniform(0.1, 3.0)), 3))
    if roll < 0.70:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return BinOp(op, random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1))
    if roll < 0.85:
        return Pow(random_expr(rng, dim, depth - 1), float(rng.integers(1, 4)))
    return Call(str(rng.choice(_FUNCS)), random_expr(rng, dim, depth - 1))


def _safe_jet(e, p):
    """The jet at p (value, gradient and Hessian of the batch of one), or None."""
    try:
        j = eval_jet2(e, [p])
    except ExprDomainError:
        return None
    j = Jet2(float(j.value[0]), j.gradient[0], j.hessian[0])
    vals = [j.value, *j.gradient.tolist(), *j.hessian.ravel().tolist()]
    if not all(math.isfinite(v) for v in vals):
        return None
    if max(abs(v) for v in vals) > 1e3:
        return None
    return j


def test_gradients_and_hessians_match_finite_differences():
    rng = np.random.default_rng(7)
    dim = 3
    checked = 0
    while checked < 100:
        e = random_expr(rng, dim, 4)
        p = rng.uniform(-1.5, 1.5, size=dim)
        j = _safe_jet(e, p)
        if j is None:
            continue
        f = lambda q: eval_expr(e, q)
        try:
            fd_g = fd_gradient(f, p)
        except ExprDomainError:
            continue
        scale = max(1.0, float(np.max(np.abs(fd_g))))
        assert np.max(np.abs(j.gradient - fd_g)) / scale < 1e-5
        # Hessian against a finite difference of the exact gradient
        grad_fn = lambda q: eval_jet2(e, [q]).gradient[0]
        fd_h = fd_jacobian(grad_fn, p)
        hscale = max(1.0, float(np.max(np.abs(fd_h))))
        assert np.max(np.abs(j.hessian - fd_h)) / hscale < 1e-4
        checked += 1


def test_log_sqrt_derivatives():
    e = parse("log(x1) + sqrt(x2)", 2)
    p = np.array([1.7, 2.3])
    j = eval_jet2(e, [p])
    fd = fd_gradient(lambda q: eval_expr(e, q), p)
    assert j.gradient[0] == pytest.approx(fd, abs=1e-8)
    assert j.hessian[0, 0, 0] == pytest.approx(-1 / 1.7**2, rel=1e-12)


# ---------------------------------------------------------------------------
# printing / round-trip


@st.composite
def grammar_exprs(draw, dim=4, max_depth=4):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        if draw(st.booleans()):
            return Var(draw(st.integers(0, dim - 1)))
        # abs: -0.0 is not grammar-expressible (it would print as neg(0.0))
        return Const(abs(draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))))
    kind = draw(st.sampled_from(["bin", "pow", "call", "atom"]))
    if kind == "bin":
        op = draw(st.sampled_from("+-*/"))
        child = grammar_exprs(dim=dim, max_depth=depth - 1)
        return BinOp(op, draw(child), draw(child))
    if kind == "pow":
        base = draw(grammar_exprs(dim=dim, max_depth=depth - 1))
        return Pow(base, float(draw(st.integers(0, 5))))
    if kind == "call":
        fn = draw(st.sampled_from(("sin", "cos", "exp", "log", "sqrt", "neg")))
        return Call(fn, draw(grammar_exprs(dim=dim, max_depth=depth - 1)))
    return Var(draw(st.integers(0, dim - 1)))


@given(grammar_exprs())
@settings(max_examples=120, deadline=None)
def test_roundtrip_print_parse(e):
    assert parse(to_string(e), 4) == e


def test_roundtrip_200_seeded():
    rng = np.random.default_rng(12345)
    done = 0
    while done < 200:
        e = random_expr(rng, 5, 5)
        assert parse(to_string(e), 5) == e
        done += 1


# ---------------------------------------------------------------------------
# jet arithmetic sanity


def test_jet_hessian_exactly_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(50):
        e = random_expr(rng, 3, 4)
        p = rng.uniform(-1.2, 1.2, size=3)
        j = _safe_jet(e, p)
        if j is None:
            continue
        assert np.array_equal(j.hessian, j.hessian.T)


def test_jet_ring_laws_statistically():
    rng = np.random.default_rng(42)
    # 200 triples of random jets, drawn triple by triple and stacked: a[q], b[q], c[q]
    draws = [[(rng.normal(), rng.normal(size=3), _sym(rng)) for _ in range(3)] for _ in range(200)]
    a, b, c = (Jet2(*map(np.array, zip(*column))) for column in zip(*draws))
    m1 = ((a * b) * c).value
    m2 = (a * (b * c)).value
    scale = np.maximum(1.0, np.abs(m1))
    worst_assoc = np.max(np.abs(m1 - m2) / scale)
    worst_comm = np.max(np.abs((a * b).value - (b * a).value) / scale)
    s1 = ((a + b) + c).value
    s2 = (a + (b + c)).value
    worst_assoc = max(worst_assoc, np.max(np.abs(s1 - s2) / np.maximum(1.0, np.abs(s1))))
    assert worst_comm == 0.0
    assert worst_assoc < 1e-14


def _sym(rng):
    m = rng.normal(size=(3, 3))
    return m + m.T


def test_eval_jet2_keeps_the_point_axis():
    # a constant, and a sum whose derivatives are the same at every point, still have N rows
    points = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    for text in ("3", "x1 + 2", "x1 + x2"):
        j = eval_jet2(parse(text, 2), points)
        assert (j.value.shape, j.gradient.shape, j.hessian.shape) == ((3,), (3, 2), (3, 2, 2)), text
    assert eval_jet2(parse("x1 + x2", 2), points).gradient.tolist() == [[1.0, 1.0]] * 3


def test_jet_seeds_shape():
    # values vary; unit gradients and zero Hessians are held once for every point
    seeds = jet_seeds([(1.0, 2.0), (3.0, 4.0)])
    assert [s.value.tolist() for s in seeds] == [[1.0, 3.0], [2.0, 4.0]]
    for i, s in enumerate(seeds):
        assert s.gradient.tolist() == [np.eye(2)[i].tolist()]
        assert np.array_equal(s.hessian, np.zeros((1, 2, 2)))
