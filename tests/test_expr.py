"""Parser and jet propagation tests.

The derivative oracle is central finite differences on plain value
evaluations; it is written first and everything differentiable is checked
against it.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussmap.errors import ExprDomainError, ExprSyntaxError
from gaussmap.expr import (BinOp, Call, Const, Neg, Num, Var, const_value,
                           eval_jet2, eval_value, parse, substitute, to_text)


# --- oracle ----------------------------------------------------------------

def fd_jet(e, t, hg=1e-5, hh=1e-4):
    """Gradient and Hessian by central differences of values only.

    Second differences amplify roundoff by 1/h^2, so the Hessian needs a
    larger step than the gradient.
    """
    t = np.asarray(t, float)
    n = len(t)

    def val(pt):
        return eval_jet2(e, pt).value

    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n); ei[i] = hg
        grad[i] = (val(t + ei) - val(t - ei)) / (2 * hg)
        ei[i] = hh
        hess[i, i] = (val(t + ei) - 2 * val(t) + val(t - ei)) / hh ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n); ej[j] = hh
            hess[i, j] = hess[j, i] = (
                val(t + ei + ej) - val(t + ei - ej)
                - val(t - ei + ej) + val(t - ei - ej)) / (4 * hh ** 2)
    return grad, hess


def assert_close_fd(e, t, rel=1e-5):
    jet = eval_jet2(e, t)
    g_fd, h_fd = fd_jet(e, t)
    scale_g = max(1.0, float(np.max(np.abs(g_fd))))
    scale_h = max(1.0, float(np.max(np.abs(h_fd))))
    assert np.allclose(jet.grad, g_fd, atol=rel * scale_g), (to_text(e), t)
    assert np.allclose(jet.hess, h_fd, atol=rel * scale_h), (to_text(e), t)


# --- parsing ---------------------------------------------------------------

def test_parse_basic_structure():
    e = parse("cos(t1)", 1)
    assert e == Call("cos", Var(0))


def test_parse_precedence_and_right_assoc_power():
    e = parse("2*t1^3", 1)
    assert e == BinOp("*", Num(2.0), BinOp("^", Var(0), Num(3.0)))
    e = parse("2^3^2", 0)
    assert e == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
    assert const_value(e) == 512.0


def test_unary_minus_binds_looser_than_power():
    e = parse("-t1^2", 1)
    assert e == Neg(BinOp("^", Var(0), Num(2.0)))
    # exponent may carry its own sign; negated literals fold into Num
    e = parse("t1^-2", 1)
    assert e == BinOp("^", Var(0), Num(-2.0))


def test_parse_constants_and_numbers():
    assert parse("pi", 0) == Const("pi")
    assert const_value(parse("2*pi", 0)) == pytest.approx(2 * math.pi)
    assert parse("1.5e-3", 0) == Num(1.5e-3)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("sin(t1", 1)
    assert "offset 7" in str(exc.value)
    assert exc.value.location == {"offset": 7}


def test_variable_arity_rejected_at_parse_time():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("t1 + t3", 2)
    assert "t3" in str(exc.value)
    with pytest.raises(ExprSyntaxError):
        parse("q1", 1)  # unknown name


def test_parse_variable_prefix():
    e = parse("p2 * p1", 3, var_prefix="p")
    assert e == BinOp("*", Var(1), Var(0))


def test_roundtrip_examples():
    for text in ["cos(t1)", "t1^2 + 3*t2", "-(t1 + pi)/t2", "2^-3",
                 "sinh(t1)*atan(t2 - 0.5)", "sqrt(t1 + 2.0)"]:
        e = parse(text, 2)
        assert parse(to_text(e), 2) == e


# --- random expression generator (seeded) ----------------------------------

SAFE_FUNCS = ["sin", "cos", "exp", "atan", "sinh", "cosh"]


def random_expr(rng, n, depth, general=False):
    """A random expression; ``general`` adds powers with a non-integer or
    variable exponent, and leaves the draws of the default unchanged."""
    if depth == 0:
        r = rng.random()
        if r < 0.5:
            return Var(int(rng.integers(n)))
        if r < 0.8:
            return Num(round(float(rng.uniform(-2, 2)), 3))
        return Const("pi")
    r = rng.random()
    if r < 0.55:
        op = rng.choice(["+", "-", "*"])
        return BinOp(op, random_expr(rng, n, depth - 1, general),
                     random_expr(rng, n, depth - 1, general))
    if r < 0.7:
        # keep the divisor away from zero
        d = BinOp("+", Call("cosh", random_expr(rng, n, depth - 1, general)),
                  Num(0.5))
        return BinOp("/", random_expr(rng, n, depth - 1, general), d)
    if r < 0.85:
        return Call(str(rng.choice(SAFE_FUNCS)),
                    random_expr(rng, n, depth - 1, general))
    base = BinOp("+", Call("cosh", random_expr(rng, n, depth - 1, general)),
                 Num(0.25))
    if general and rng.random() < 0.5:
        # (cosh(u) + 0.25)^1.7 or (cosh(u) + 0.25)^t2
        if rng.random() < 0.5:
            return BinOp("^", base, Num(round(float(rng.uniform(-2, 2)), 3)))
        return BinOp("^", base, Var(int(rng.integers(n))))
    return BinOp("^", base, Num(float(rng.integers(2, 4))))


def test_roundtrip_random_expressions():
    rng = np.random.default_rng(1)
    for _ in range(200):
        e = random_expr(rng, 3, int(rng.integers(0, 5)))
        assert parse(to_text(e), 3) == e


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_jets_match_finite_differences_random():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        e = random_expr(rng, 2, int(rng.integers(1, 6)))
        t = rng.uniform(-1.5, 1.5, size=2)
        try:
            with np.errstate(all="ignore"):
                jet = eval_jet2(e, t)
        except ExprDomainError:
            continue
        if not (np.isfinite(jet.value) and np.all(np.isfinite(jet.grad))
                and np.all(np.isfinite(jet.hess))):
            continue
        if max(abs(jet.value), np.max(np.abs(jet.grad)),
               np.max(np.abs(jet.hess))) > 1e2:
            continue  # FD would be ill-conditioned
        assert_close_fd(e, t, rel=1e-4)
        checked += 1


# --- jet values ------------------------------------------------------------

def test_polynomial_jet_exact():
    jet = eval_jet2(parse("t1^2", 1), [3.0])
    assert jet.value == 9.0
    assert jet.grad[0] == 6.0
    assert jet.hess[0, 0] == 2.0


def test_trig_jet():
    jet = eval_jet2(parse("sin(t1)*cos(t2)", 2), [0.3, 1.1])
    s, c = math.sin(0.3), math.cos(0.3)
    S, C = math.sin(1.1), math.cos(1.1)
    assert jet.value == pytest.approx(s * C, rel=1e-15)
    assert jet.grad[0] == pytest.approx(c * C, rel=1e-15)
    assert jet.grad[1] == pytest.approx(-s * S, rel=1e-15)
    assert jet.hess[0, 1] == pytest.approx(-c * S, rel=1e-14)


def test_hessian_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = random_expr(rng, 3, 4)
        t = rng.uniform(-1, 1, size=3)
        try:
            with np.errstate(all="ignore"):
                jet = eval_jet2(e, t)
        except ExprDomainError:
            continue
        if not np.all(np.isfinite(jet.hess)):
            continue
        assert np.array_equal(jet.hess, jet.hess.transpose(1, 0))


def test_linearity_is_bitwise():
    a = parse("sin(t1)*t2", 2)
    b = parse("exp(t2 - t1)", 2)
    both = BinOp("+", a, b)
    t = np.array([0.7, -0.2])
    ja, jb, js = eval_jet2(a, t), eval_jet2(b, t), eval_jet2(both, t)
    assert js.value == ja.value + jb.value
    assert np.array_equal(js.grad, ja.grad + jb.grad)
    assert np.array_equal(js.hess, ja.hess + jb.hess)


def test_batched_matches_single():
    e = parse("sin(t1)*cos(t2) + t1^3/(t2 + 2)", 2)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(2, 40))
    jet = eval_jet2(e, pts)
    # vector and scalar transcendental kernels may differ in the last ulp
    for j in range(40):
        single = eval_jet2(e, pts[:, j])
        assert np.allclose(single.value, jet.value[j], rtol=1e-13, atol=1e-13)
        assert np.allclose(single.grad, jet.grad[:, j], rtol=1e-13, atol=1e-13)
        assert np.allclose(single.hess, jet.hess[:, :, j], rtol=1e-13, atol=1e-13)


# --- powers ----------------------------------------------------------------

def test_integer_power_negative_base():
    jet = eval_jet2(parse("t1^3", 1), [-2.0])
    assert jet.value == -8.0
    assert jet.grad[0] == 12.0
    assert jet.hess[0, 0] == -12.0
    jet = eval_jet2(parse("t1^-2", 1), [-2.0])
    assert jet.value == 0.25


def test_integer_power_detected_through_constant_folding():
    # exponent is a variable-free expression that folds to an integer
    jet = eval_jet2(parse("t1^(1+1)", 1), [-3.0])
    assert jet.value == 9.0


def test_non_integer_power_needs_positive_base():
    jet = eval_jet2(parse("t1^0.5", 1), [4.0])
    assert jet.value == 2.0
    with pytest.raises(ExprDomainError):
        eval_jet2(parse("t1^0.5", 1), [-4.0])
    assert_close_fd(parse("(t1 + 3)^1.7", 1), np.array([0.4]))


def test_general_power_variable_exponent():
    assert_close_fd(parse("(t1 + 2)^(t2)", 2), np.array([0.5, 1.3]))


# --- domain errors ---------------------------------------------------------

def test_domain_error_names_subexpression():
    e = parse("1/(t1 - 1)", 1)
    with pytest.raises(ExprDomainError) as exc:
        eval_jet2(e, [1.0])
    assert "(t1 - 1.0)" in str(exc.value)
    assert exc.value.location["t"] == [1.0]


def test_log_sqrt_domain():
    with pytest.raises(ExprDomainError):
        eval_jet2(parse("log(t1)", 1), [0.0])
    with pytest.raises(ExprDomainError):
        eval_jet2(parse("sqrt(t1)", 1), [-1.0])
    with pytest.raises(ExprDomainError):
        eval_jet2(parse("t1^-1", 1), [0.0])


def test_domain_error_locates_grid_node():
    e = parse("log(t1)", 1)
    pts = np.array([[0.5, 1.0, -0.25, 2.0]])
    with pytest.raises(ExprDomainError) as exc:
        eval_jet2(e, pts)
    assert exc.value.location["t"] == [-0.25]


# --- substitution ----------------------------------------------------------

def test_substitute_reparametrizes():
    e = parse("cos(t1)", 1)
    sub = substitute(e, {0: parse("t1 + 0.5*sin(t1)", 1)})
    t = np.array([0.8])
    inner = 0.8 + 0.5 * math.sin(0.8)
    assert eval_jet2(sub, t).value == pytest.approx(math.cos(inner), rel=1e-15)


# --- one evaluator behind three entry points --------------------------------

def _outcome(f, *args):
    """The result of ``f``, or the message of the ExprDomainError it raises."""
    try:
        return f(*args)
    except ExprDomainError as exc:
        return exc.message


def _same_bits(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 4))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_entry_points_agree(seed, depth):
    rng = np.random.default_rng(seed)
    e = random_expr(rng, 2, depth, general=True)
    point = rng.uniform(-1.5, 1.5, size=(2, 3, 4))
    # values alone are the values of the jet, bit for bit, or the same error
    jet = _outcome(eval_jet2, e, point)
    value = _outcome(eval_value, e, point)
    assert _same_bits(value, jet if isinstance(jet, str) else jet.value)

    # constant folding is evaluation without variables
    folded = substitute(e, {i: Num(round(float(c), 3))
                            for i, c in enumerate(rng.uniform(-1.5, 1.5, 2))})
    assert _same_bits(_outcome(const_value, folded),
                      _outcome(eval_value, folded, []))

    # full batch shape, and nothing aliases the caller's points
    before = point.copy()
    for node in (Var(1), Num(0.5), e):
        jet = _outcome(eval_jet2, node, point)
        if isinstance(jet, str):
            continue
        assert jet.value.shape == (3, 4)
        assert jet.grad.shape == (2, 3, 4)
        assert jet.hess.shape == (2, 2, 3, 4)
        for field in (jet.value, jet.grad, jet.hess,
                      eval_value(node, point)):
            field[...] = 7.0
        assert np.array_equal(point, before)


def test_const_value_errors_carry_no_location():
    with pytest.raises(ExprDomainError) as exc:
        const_value(parse("1/(2 - 2)", 0))
    assert exc.value.message == "division by zero in (1.0 / (2.0 - 2.0))"
    assert exc.value.location == {}


def _jet_or_error(e, point):
    try:
        return eval_jet2(e, point)
    except ExprDomainError as exc:
        return exc.message, exc.location


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
       depth=st.integers(0, 4))
def test_tensor_grid_jets_match_the_flat_batch(seed, n, depth):
    """A tensor grid is evaluated on its open axes, any other batch on
    full rows; both give the same bits and the same first error."""
    rng = np.random.default_rng(seed)
    e = random_expr(rng, n, depth, general=True)
    axes = [rng.uniform(-1.5, 1.5, size=int(rng.integers(1, 6)))
            for _ in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"))
    flat = grid.reshape(n, -1)
    on_grid, on_flat = _jet_or_error(e, grid), _jet_or_error(e, flat)
    if isinstance(on_flat, tuple) or isinstance(on_grid, tuple):
        assert on_grid == on_flat
        return
    shape = grid.shape[1:]
    for a, b in [(on_grid.value, on_flat.value.reshape(shape)),
                 (on_grid.grad, on_flat.grad.reshape((n,) + shape)),
                 (on_grid.hess, on_flat.hess.reshape((n, n) + shape))]:
        finite = np.isfinite(a)
        assert np.array_equal(finite, np.isfinite(b))
        assert np.array_equal(a[finite], b[finite])
