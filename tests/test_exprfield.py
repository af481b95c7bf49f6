"""Parser, evaluator, symbolic-derivative and interval tests for the expression DSL."""
from fractions import Fraction

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
# interval enclosures

# every node type, each power rule, and the functions; two variables
_INTERVAL_SOURCES = [
    "2.5", "x1", "-x1", "x1 + x2", "x1 - x2", "x1 * x2", "x1 / x2",
    "x1^2", "x1^4", "x1^3", "x1^0", "x1^0.5", "x1^1.5", "x1^-1", "x1^-2", "x1^-0.5", "x2^x1",
    "sin(x1)", "cos(x1)", "exp(x1)", "log(x1)", "sqrt(x1)", "tanh(x1)",
    "sin(3*x1) * x2^2 - sqrt(x1^2 + x2^2) / (1 + x2^2)",
]


def _random_boxes(rng, count, scale):
    """Boxes in the plane: random centres in [-scale, scale]^2 and half-widths
    from scale/1000 to scale, so that many straddle 0; a tenth are points."""
    centre = rng.uniform(-scale, scale, (count, 2))
    half = scale * 10.0 ** rng.uniform(-3.0, 0.0, (count, 2))
    half[: count // 10] = 0.0
    return centre - half, centre + half


def _samples(rng, lo, hi, k=40):
    """k points of the box [lo, hi]: its corners, its point nearest the
    origin (0 itself where the box straddles it), and random ones."""
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    inner = lo + (hi - lo) * rng.random((k, 2))
    return np.concatenate([corners, np.clip(0.0, lo, hi)[None], inner])


class TestIntervals:
    @pytest.mark.parametrize("src", _INTERVAL_SOURCES)
    def test_sampled_values_lie_inside(self, src):
        e = ef.parse(src).fold()
        rng = np.random.default_rng(_INTERVAL_SOURCES.index(src))
        enclosed = 0
        for scale in (0.5, 3.0, 8.0):
            lo, hi = _random_boxes(rng, 60, scale)
            e_lo, e_hi = e.interval_at(lo, hi)
            assert e_lo.shape == e_hi.shape == (60,)
            for b in range(60):
                if np.isnan(e_lo[b]) or np.isnan(e_hi[b]):
                    continue
                enclosed += 1
                # an enclosure claims the box lies inside the domain
                values = e.eval_at(_samples(rng, lo[b], hi[b]))
                assert np.all((e_lo[b] <= values) & (values <= e_hi[b])), (lo[b], hi[b])
        assert enclosed >= 60

    @pytest.mark.parametrize("src, leaves", [
        ("x1 / x2", lambda lo, hi: (lo[:, 1] <= 0) & (hi[:, 1] >= 0)),
        ("log(x1)", lambda lo, hi: lo[:, 0] <= 0),
        ("sqrt(x1)", lambda lo, hi: lo[:, 0] < 0),
        ("x1^0.5", lambda lo, hi: lo[:, 0] < 0),
        ("x1^-0.5", lambda lo, hi: lo[:, 0] <= 0),
        ("x1^-1", lambda lo, hi: (lo[:, 0] <= 0) & (hi[:, 0] >= 0)),
        ("x1^-2", lambda lo, hi: (lo[:, 0] <= 0) & (hi[:, 0] >= 0)),
        ("x2^x1", lambda lo, hi: lo[:, 1] <= 0),
        ("x1^2", lambda lo, hi: np.zeros(len(lo), dtype=bool)),
    ])
    def test_no_enclosure_exactly_where_the_box_leaves_the_domain(self, src, leaves):
        rng = np.random.default_rng(3)
        lo, hi = _random_boxes(rng, 400, 2.0)
        lo[40:60], hi[40:60] = 0.0, np.abs(hi[40:60])  # boxes with an end at 0
        e_lo, e_hi = ef.parse(src).interval_at(lo, hi)
        bad = leaves(lo, hi)
        assert 0 < np.count_nonzero(bad) < len(bad) or src == "x1^2"
        np.testing.assert_array_equal(np.isnan(e_lo), bad)
        np.testing.assert_array_equal(np.isnan(e_hi), bad)

    def test_even_power_of_a_box_across_zero_starts_at_zero(self):
        lo, hi = ef.parse("x1^2").interval_at(np.array([[-1.0]]), np.array([[2.0]]))
        assert lo[0] <= 0.0 and hi[0] >= 4.0

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_arithmetic_encloses_the_exact_result(self, op):
        """On point boxes the exact rational result of a rounded operation
        lies inside: the ends are rounded outward."""
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 500)) * 10.0 ** rng.uniform(-3, 3, (2, 500))
        pts = np.stack([a, b], axis=-1)
        lo, hi = ef.parse(f"x1 {op} x2").interval_at(pts, pts)
        exact = {"+": Fraction.__add__, "-": Fraction.__sub__, "*": Fraction.__mul__,
                 "/": Fraction.__truediv__}[op]
        for i in range(500):
            r = exact(Fraction(a[i]), Fraction(b[i]))
            assert Fraction(lo[i]) <= r <= Fraction(hi[i])

    def test_sqrt_encloses_the_exact_root(self):
        rng = np.random.default_rng(8)
        a = rng.random(500) * 10.0 ** rng.uniform(-3, 3, 500)
        lo, hi = ef.parse("sqrt(x1)").interval_at(a[:, None], a[:, None])
        for i in range(500):
            assert Fraction(lo[i]) ** 2 <= Fraction(a[i]) <= Fraction(hi[i]) ** 2

    def test_unbounded_enclosure_is_infinite(self):
        lo, hi = ef.parse("exp(x1)").interval_at(np.array([[0.0]]), np.array([[1e6]]))
        assert lo[0] >= 0.0 and hi[0] == np.inf

    def test_constant_broadcasts_to_the_boxes(self):
        lo, hi = ef.parse("2").interval_at(np.zeros((4, 3)), np.ones((4, 3)))
        assert lo.shape == hi.shape == (4,)
        assert np.all(lo <= 2.0) and np.all(hi >= 2.0)


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
