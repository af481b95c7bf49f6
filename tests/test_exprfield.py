"""Parser, evaluator, and symbolic-derivative tests for the expression DSL."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mconvex import exprfield as ef


def ev(src, *coords):
    pts = np.array(coords, dtype=float)
    return ef.parse(src).eval_at(pts)


class TestParsing:
    def test_number_and_constant(self):
        assert ev("2.5") == 2.5
        assert ev("pi") == pytest.approx(np.pi)
        assert ev("1e-3") == 1e-3

    def test_variables(self):
        assert ev("x1 + 2*x2", 1.0, 3.0) == 7.0

    def test_precedence_mul_over_add(self):
        assert ev("2 + 3 * 4") == 14.0

    def test_power_binds_tightest(self):
        assert ev("2 * 3 ^ 2") == 18.0
        assert ev("-2^2") == -4.0  # unary minus looser than ^

    def test_power_left_associative(self):
        assert ev("2^3^2") == 64.0

    def test_negative_exponent(self):
        assert ev("2^-2") == 0.25
        assert ev("x1^-2", 4.0) == pytest.approx(1 / 16)

    def test_left_assoc_sub_div(self):
        assert ev("10 - 4 - 3") == 3.0
        assert ev("24 / 4 / 2") == 3.0

    def test_parentheses(self):
        assert ev("(2 + 3) * 4") == 20.0

    def test_functions(self):
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("exp(1)") == pytest.approx(np.e)
        assert ev("log(exp(2))") == pytest.approx(2.0)
        assert ev("sqrt(9)") == 3.0
        assert ev("tanh(0)") == 0.0

    def test_syntax_error_offset(self):
        with pytest.raises(ef.SyntaxError_) as err:
            ef.parse("1 + * 2")
        assert err.value.offset == 4

    @pytest.mark.parametrize("src, offset", [("x\u00b2", 1), ("x1 + x\u00b2", 6),
                                             ("1 \u2013 x1", 2), ("x\u2081", 1)])
    def test_non_ascii_is_a_syntax_error(self, src, offset):
        # str.isdigit accepts a superscript two; the token classes are ASCII
        with pytest.raises(ef.SyntaxError_) as err:
            ef.parse(src)
        assert err.value.offset == offset

    def test_unknown_identifier(self):
        with pytest.raises(ef.UnknownIdentifierError):
            ef.parse("x1 + bogus")

    def test_unbalanced_parens(self):
        with pytest.raises(ef.SyntaxError_):
            ef.parse("(1 + 2")

    def test_empty(self):
        with pytest.raises(ef.SyntaxError_):
            ef.parse("")


class TestEvaluation:
    def test_batched_points(self):
        e = ef.parse("x1^2 + x2")
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(e.eval_at(pts), [3.0, 13.0])

    def test_domain_error_sqrt(self):
        with pytest.raises(ef.EvalDomainError):
            ev("sqrt(0 - 1)")

    def test_domain_error_log(self):
        with pytest.raises(ef.EvalDomainError):
            ev("log(0)")

    def test_domain_error_division(self):
        with pytest.raises(ef.EvalDomainError):
            ev("1 / x1", 0.0)

    def test_domain_error_fractional_power(self):
        with pytest.raises(ef.EvalDomainError):
            ev("x1 ^ 0.5", -2.0)

    def test_overflow(self):
        with pytest.raises(ef.EvalDomainError):
            ev("exp(x1)", 1e6)


class TestConstants:
    def test_a_constant_evaluates_to_a_scalar(self):
        coords = (np.zeros(5), np.zeros(5))
        assert np.shape(ef.parse("2 ^ 3").fold().eval(coords)) == ()
        assert np.shape(ef.parse("x1 ^ 2").eval(coords)) == (5,)

    def test_eval_at_broadcasts_a_constant_to_the_batch(self):
        v = ef.parse("2").eval_at(np.zeros((4, 3, 2)))
        assert v.shape == (4, 3)
        np.testing.assert_array_equal(v, 2.0)


class TestDifferentiation:
    def test_polynomial(self):
        d = ef.differentiate(ef.parse("x1^3 + 2*x1"), 0)
        assert d.eval_at(np.array([2.0])) == pytest.approx(14.0)

    def test_chain_rule(self):
        d = ef.differentiate(ef.parse("sin(x1^2)"), 0)
        x = 0.7
        assert d.eval_at(np.array([x])) == pytest.approx(2 * x * np.cos(x * x))

    def test_quotient(self):
        d = ef.differentiate(ef.parse("x1 / x2"), 1)
        assert d.eval_at(np.array([3.0, 2.0])) == pytest.approx(-0.75)

    def test_other_variable_is_zero(self):
        d = ef.differentiate(ef.parse("x1^2"), 1)
        assert d.eval_at(np.array([5.0, 5.0])) == 0.0

    def test_fd_cross_check(self):
        e = ef.parse("exp(x1) * sin(x2) + x1^2 * x2")
        d0 = ef.differentiate(e, 0)
        pts = np.array([0.3, -0.8])
        h = 1e-6
        fd = (e.eval_at(pts + [h, 0]) - e.eval_at(pts - [h, 0])) / (2 * h)
        assert d0.eval_at(pts) == pytest.approx(fd, rel=1e-8)


# ---------------------------------------------------------------------------
# property tests

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=3.0).map(lambda v: f"{v:.4f}"),
    st.sampled_from(["x1", "x2", "x3"]),
)


def _combine(children):
    ops = st.sampled_from(["+", "-", "*"])
    return st.one_of(
        st.tuples(children, ops, children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "tanh"]), children).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        children.map(lambda c: f"-{c}"),
    )


_exprs = st.recursive(_leaf, _combine, max_leaves=12)


@settings(max_examples=40, deadline=None)
@given(_exprs, st.integers(0, 2 ** 31 - 1))
def test_mixed_partials_commute(src, seed):
    e = ef.parse(src)
    d12 = ef.differentiate(ef.differentiate(e, 0), 1)
    d21 = ef.differentiate(ef.differentiate(e, 1), 0)
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(100, 3))
    np.testing.assert_allclose(d12.eval_at(pts), d21.eval_at(pts), atol=1e-10, rtol=1e-10)


@settings(max_examples=40, deadline=None)
@given(_exprs, st.integers(0, 2 ** 31 - 1))
def test_symbolic_derivative_matches_fd(src, seed):
    e = ef.parse(src)
    d = ef.differentiate(e, 0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(50, 3))
    h = 1e-6
    hp = pts.copy(); hp[:, 0] += h
    hm = pts.copy(); hm[:, 0] -= h
    fd = (e.eval_at(hp) - e.eval_at(hm)) / (2 * h)
    scale = 1.0 + np.abs(fd)
    np.testing.assert_allclose(d.eval_at(pts) / scale, fd / scale, atol=5e-6)
