"""Riemannian geometry on a single coordinate chart of R^n.

Everything is evaluated pointwise and batched: points are arrays of shape
``(..., n)`` and all operations broadcast over the leading axes.  Scalar and
vector fields expose exact first and second derivatives, either symbolically
(expression-backed fields) or in closed form (built-in distance fields), so
curvature computations carry no finite-difference noise; a scalar field
computes them in one place, its ``jet``.

Sign conventions: a boundary-defining function ``u0`` is nonnegative inside
the domain, its metric gradient is the inward normal, and the shape operator
``v -> -grad_v(nu)`` of a level set makes a round sphere bounding a ball have
positive principal curvatures with respect to the inward normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprfield
from .exprfield import differentiate, parse


class GeometryError(Exception):
    pass


class MetricError(GeometryError):
    """Metric not symmetric positive definite at a queried point."""


class VanishingGradientError(GeometryError):
    pass


class BoundaryError(GeometryError):
    """A point required to lie on the boundary does not."""


# --------------------------------------------------------------------------
# coordinate arrays and symmetric entries


# the entries (i, j), i <= j, that stand for a symmetric 3 x 3 matrix
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def unstack(a):
    """The arrays ``a[..., 0], ..., a[..., n-1]``: points as coordinate arrays."""
    a = np.asarray(a, dtype=float)
    return tuple(a[..., i] for i in range(a.shape[-1]))


def sym_entries(H):
    """The ``_PAIRS`` entries of (H + H^T) / 2 for 3 x 3 matrices H, exact
    where H is symmetric."""
    H = np.asarray(H, dtype=float)
    return tuple(0.5 * (H[..., i, j] + H[..., j, i]) for i, j in _PAIRS)


def symmetric_matrix(entries):
    """The symmetric 3 x 3 matrices, shape ``(..., 3, 3)``, with the given
    ``_PAIRS`` entries."""
    e = dict(zip(_PAIRS, entries))
    return np.stack([np.stack([_entry(e, i, j) for j in range(3)], axis=-1)
                     for i in range(3)], axis=-2)


# --------------------------------------------------------------------------
# scalar fields


class ScalarField:
    """Scalar function on the chart.  ``value`` is its cheap path; every
    derivative comes from ``jet``, which ``gradient`` and ``hessian`` only
    repack."""

    n: int

    def lipschitz(self, lo, hi):
        """A euclidean Lipschitz constant of the value on the box [lo, hi],
        or None where none is known."""
        return None

    def value(self, x):
        raise NotImplementedError

    def jet(self, y):
        """Value, gradient and Hessian on R^3 at the points with coordinate
        arrays ``y = (y1, y2, y3)``: ``(value, (d_1, d_2, d_3), (H_11, H_22,
        H_33, H_12, H_13, H_23))``, each array of the batch shape, with the
        Hessian's six entries in ``_PAIRS`` order.  The entries are those of
        sym(Hess) = (Hess + Hess^T) / 2, so they are symmetric by contract.
        This is the field's one derivative code; its value equals
        ``value``'s bit for bit."""
        raise NotImplementedError

    def gradient(self, x):
        """Coordinate partials, shape ``(..., 3)``: the jet's, stacked."""
        return np.stack(self.jet(unstack(x))[1], axis=-1)

    def hessian(self, x):
        """Coordinate second partials, shape ``(..., 3, 3)``: the jet's
        entries as symmetric matrices."""
        return symmetric_matrix(self.jet(unstack(x))[2])


class ExprArray:
    """Expressions in x1 .. xn laid out as an array of any shape.

    ``eval_at(x)`` evaluates each distinct entry once with
    ``Expression.eval_at`` and puts the array's axes right after the batch
    axes of x; ``diff()`` appends the coordinate partials d_1 .. d_n as a new
    last axis.  Entries are told apart by ``repr``, which keeps ``Const(0.0)``
    and ``Const(-0.0)`` apart where ``==`` would not.
    """

    def __init__(self, entries, n):
        entries = np.array(entries, dtype=object)
        self.n = n
        self.shape = entries.shape
        self.flat = [(parse(e) if isinstance(e, str) else e).fold() for e in entries.flat]
        top = max(e.max_var() for e in self.flat)
        if top >= n:
            raise exprfield.ExprError(f"expression uses x{top + 1} but dimension is {n}")
        slots = {}
        self._slot = [slots.setdefault(repr(e), len(slots)) for e in self.flat]
        self._distinct = list({repr(e): e for e in self.flat}.values())

    def eval_coords(self, y):
        """The entries in flat order at the points with coordinate arrays y,
        each of the batch shape; each distinct entry is evaluated once."""
        shape = np.shape(y[0])
        distinct = []
        for e in self._distinct:
            v = e.eval(y)
            distinct.append(v if np.shape(v) == shape else np.full(shape, v))
        return [distinct[i] for i in self._slot]

    def eval_at(self, x):
        distinct = [e.eval_at(x) for e in self._distinct]
        values = np.stack([distinct[i] for i in self._slot], axis=-1)
        return values.reshape(values.shape[:-1] + self.shape)

    def diff(self):
        partials = [[differentiate(e, k) for k in range(self.n)] for e in self.flat]
        return ExprArray(np.array(partials, dtype=object).reshape(self.shape + (self.n,)),
                         self.n)


class ExprScalarField(ScalarField):
    def __init__(self, expr, n):
        self.n = n
        self._value = ExprArray(expr, n)
        self.expr = self._value.flat[0]
        partials = self._value.diff()
        self._partials = partials.flat
        # the jet's expressions: the value, the partials and, for each pair
        # of _PAIRS, H_ij and H_ji, which are evaluated together once
        H = partials.diff().flat
        self._jet = ExprArray([self.expr] + partials.flat
                              + [H[3 * i + j] for i, j in _PAIRS]
                              + [H[3 * j + i] for i, j in _PAIRS], n)

    def lipschitz(self, lo, hi):
        """|grad| bounded on the box through an enclosure of each partial
        (``Expression.interval_at``); None where one has no finite enclosure."""
        bounds = []
        for partial in self._partials:
            p_lo, p_hi = partial.interval_at(lo, hi)
            bounds.append(np.maximum(-p_lo, p_hi))  # a NaN end stays NaN
        if not np.all(np.isfinite(bounds)):
            return None
        # the slack covers the rounding of the three squares, the sum and the root
        return float(np.sqrt(np.sum(np.square(bounds)))) * (1.0 + 1e-12)

    def value(self, x):
        return self._value.eval_at(x)

    def jet(self, y):
        values = self._jet.eval_coords(y)
        upper, lower = values[4:10], values[10:]
        # H_ij and H_ji as distinct trees may round apart; as one tree they
        # are one array, and its entry is that array
        hess = tuple(a if a is b else 0.5 * (a + b) for a, b in zip(upper, lower))
        return values[0], tuple(values[1:4]), hess


class LinearField(ScalarField):
    """a . x"""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.n = self.a.shape[0]

    def lipschitz(self, lo, hi):
        return float(np.linalg.norm(self.a))

    def _value(self, y):
        return sum(ai * yi for ai, yi in zip(self.a, y))

    def value(self, x):
        return self._value(unstack(x))

    def jet(self, y):
        shape = np.shape(y[0])
        return (self._value(y), tuple(np.full(shape, ai) for ai in self.a),
                tuple(np.zeros(shape) for _ in _PAIRS))


class DistanceField(ScalarField):
    """R - |x - c| over the coordinates in ``axes`` (default all): euclidean
    signed distance to a sphere, or with ``axes`` a subset to a round
    cylinder whose axis is spanned by the other coordinates."""

    def __init__(self, radius, center, axes=None):
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)
        self.n = self.center.shape[0]
        self.mask = (np.ones(self.n) if axes is None
                     else np.isin(np.arange(self.n), axes).astype(float))
        self._masked = axes is not None  # a sphere's offsets skip its all-ones mask

    def lipschitz(self, lo, hi):
        return 1.0

    def _offsets(self, y):
        """The masked offsets d = (y - c) * mask and |d|, summed per
        coordinate in the order ``np.linalg.norm`` does."""
        d = [yi - ci for yi, ci in zip(y, self.center)]
        if self._masked:
            d = [di * mi for di, mi in zip(d, self.mask)]
        return d, np.sqrt(sum(di * di for di in d))

    def value(self, x):
        return self.radius - self._offsets(unstack(x))[1]

    def jet(self, y):
        # value has no singularity; the derivatives have one on the center set
        d, r = self._offsets(y)
        if np.any(r < 1e-14):
            raise VanishingGradientError("distance field differentiated on its center set")
        u = [di / r for di in d]
        hess = tuple(-((self.mask[i] if i == j else 0.0) - u[i] * u[j]) / r for i, j in _PAIRS)
        return self.radius - r, tuple(-ui for ui in u), hess


class QuarticGapField(ScalarField):
    """(g |x - p|^2)^2 on R^3, the fourth power of the distance to p under the
    metric g I.  The value and the derivatives come from one contraction
    s = d . (g d), d = x - p, which ``squared_distance`` returns.  Adding 0.0
    to g d and to the off-diagonal Hessian entries keeps the signed zeros of
    the pinned reports."""

    def __init__(self, p, g):
        self.p = np.asarray(p, dtype=float)
        self.g = float(g)
        self.n = self.p.shape[0]

    def _contract(self, y):
        d = [yi - pi for yi, pi in zip(y, self.p)]
        gd = [self.g * di + 0.0 for di in d]
        return gd, sum(di * gdi for di, gdi in zip(d, gd))

    def squared_distance(self, y):
        """g |y - p|^2 at the points with coordinate arrays y."""
        return self._contract(y)[1]

    def value(self, x):
        s = self.squared_distance(unstack(x))
        return s * s

    def jet(self, y):
        gd, s = self._contract(y)
        t = 4.0 * s
        hess = tuple(t * self.g + 8.0 * (gd[i] * gd[j]) if i == j
                     else 8.0 * (gd[i] * gd[j]) + 0.0 for i, j in _PAIRS)
        return s * s, tuple(t * gdi for gdi in gd), hess


class SumField(ScalarField):
    def __init__(self, fields):
        self.fields = list(fields)
        self.n = self.fields[0].n

    def value(self, x):
        return sum(f.value(x) for f in self.fields)

    # bench/tracer.py wraps the entry in this class's own namespace
    hessian = ScalarField.hessian

    def jet(self, y):
        values, grads, hessians = zip(*(f.jet(y) for f in self.fields))
        return (sum(values), tuple(sum(parts) for parts in zip(*grads)),
                tuple(sum(parts) for parts in zip(*hessians)))


# --------------------------------------------------------------------------
# vector fields


class VectorField:
    """Tangent vectorfield in chart coordinates.

    ``jacobian(x)[..., k, i]`` is the coordinate partial d_i X^k.
    """

    n: int

    def value(self, x):
        raise NotImplementedError

    def jacobian(self, x):
        raise NotImplementedError

    def evaluate(self, x):
        """``(value(x), jacobian(x))``; fields whose two outputs share work
        override this to compute it once."""
        return self.value(x), self.jacobian(x)


class ExprVectorField(VectorField):
    def __init__(self, components, n):
        if len(components) != n:
            raise ValueError(f"expected {n} components, got {len(components)}")
        self.n = n
        self._value = ExprArray(components, n)
        self._jacobian = self._value.diff()

    def value(self, x):
        return self._value.eval_at(x)

    def jacobian(self, x):
        return self._jacobian.eval_at(x)


# --------------------------------------------------------------------------
# metrics


class MetricField:
    """Metric from the upper-triangle expressions g11, g12, ..., g1n, g22, ...;
    the lower triangle mirrors them, so g is exactly symmetric.

    ``constant_factor()`` is read off the entries once, at construction: c
    with g = c^2 * euclidean when every partial of g folds to 0 and
    g(0) = g11 * I with g11 > 0, else None.  Every metric-dependent quantity
    takes the euclidean formula scaled by a power of c when it is not None,
    and the general path otherwise.
    """

    def __init__(self, entries, n=3):
        self.n = n
        entries = list(entries)
        if len(entries) != n * (n + 1) // 2:
            raise GeometryError(f"a metric on R^{n} has {n * (n + 1) // 2} upper-triangle "
                                f"entries, got {len(entries)}")
        upper = iter(entries)
        grid = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = next(upper)
        self.g = ExprArray(grid, n)
        self.dg = self.g.diff()
        self._c = None
        if all(d == exprfield.Const(0.0) for d in self.dg.flat):
            g0 = self.g.eval_at(np.zeros(n))
            if g0[0, 0] > 0 and np.array_equal(g0, g0[0, 0] * np.eye(n)):
                self._c = float(np.sqrt(g0[0, 0]))

    def matrix(self, x):
        return self.g.eval_at(x)

    def dmatrix(self, x):
        """Partials of the metric entries: ``[..., k, i, j] = d_k g_ij``."""
        return np.ascontiguousarray(np.moveaxis(self.dg.eval_at(x), -1, -3))

    def inverse(self, x):
        return np.linalg.inv(self.matrix(x))

    def constant_factor(self):
        return self._c

    def check_spd(self, x):
        g = self.matrix(x)
        w = np.linalg.eigvalsh(g)
        if np.any(w[..., 0] <= 0):
            raise MetricError("metric is not positive definite at a queried point")

    def norm(self, x, v):
        c = self._c
        if c is not None:
            return c * np.linalg.norm(v, axis=-1)
        g = self.matrix(x)
        return np.sqrt(np.einsum("...i,...ij,...j->...", v, g, v))


# --------------------------------------------------------------------------
# connection and curvature operations


def christoffel(metric, x):
    """Connection coefficients ``[..., k, i, j] = Gamma^k_ij``."""
    metric.check_spd(x)
    gi = metric.inverse(x)
    d = metric.dmatrix(x)
    # T[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    T = (
        np.einsum("...ijl->...lij", d)
        + np.einsum("...jil->...lij", d)
        - d
    )
    return 0.5 * np.einsum("...kl,...lij->...kij", gi, T)


def covariant_from_jacobian(value, J, x, metric):
    """The covariant gradient ``[..., k, i] = (grad_i X)^k = d_i X^k +
    Gamma^k_ij X^j`` from X and its jacobian at x; under g = c^2 * euclidean
    the Christoffel symbols vanish and it is J."""
    if metric.constant_factor() is not None:
        return J
    gam = christoffel(metric, x)
    return J + np.einsum("...kij,...j->...ki", gam, value)


def bilinear_form_Q(X, x, metric):
    """Matrix of Q(u, v) = <u, grad_v X>_g in chart coordinates: g times the
    covariant gradient of X."""
    A = covariant_from_jacobian(*X.evaluate(x), x, metric)
    return np.einsum("...ab,...bi->...ai", metric.matrix(x), A)


@dataclass
class SigmaShape:
    """Shape of a level surface {w = const} in R^3, in euclidean units.

    ``nu`` is the unit normal grad w / |grad w| as its three components,
    ``kappa`` the principal curvatures (ascending, shape ``(..., 2)``) with
    respect to it, ``Bt`` the second fundamental form P (-Hess w / |grad w|) P
    as its six ``_PAIRS`` entries, and ``sigma2`` the Gauss curvature
    kappa_1 kappa_2.
    """

    nu: tuple
    kappa: np.ndarray
    Bt: tuple
    sigma2: np.ndarray


def _entry(M, i, j):
    return M[(i, j) if i <= j else (j, i)]


def _quadratic(M, v):
    """v^T M v for the symmetric M given by its ``_PAIRS`` entries; swapping
    x1 and x2 only permutes addends."""
    diag = (M[0, 0] * (v[0] * v[0]) + M[1, 1] * (v[1] * v[1])) + M[2, 2] * (v[2] * v[2])
    return diag + 2.0 * (M[0, 1] * (v[0] * v[1])
                         + (M[0, 2] * (v[0] * v[2]) + M[1, 2] * (v[1] * v[2])))


def sigma_shape(g, h):
    """Closed-form shape of the level surface of w in R^3 from the components
    g = (g_1, g_2, g_3) of its gradient and the six ``_PAIRS`` entries h of
    its symmetric Hessian H at the same points (``ScalarField.jet``'s
    layout; ``unstack`` and ``sym_entries`` give it from full arrays).

    With nu = g / |g|, P = I - nu nu^T and B_t = P (-H / |g|) P, the
    principal curvatures have the invariants (R. Goldman, "Curvature
    formulas for implicit curves and surfaces", CAGD 2005)

        sigma_1 = kappa_1 + kappa_2 = (g^T H g - |g|^2 tr H) / |g|^3,
        sigma_2 = kappa_1 kappa_2 = g^T adj(H) g / |g|^4,

    and kappa_{1,2} = sigma_1 / 2 -+ sqrt(|B_t - (sigma_1 / 2) P|_F^2 / 2), a
    discriminant that is a sum of squares and so stays accurate at umbilic
    points.  No eigensolver runs.

    Every sum is grouped so that swapping x1 and x2, or flipping the sign of
    a coordinate, permutes addends or negates terms exactly: mirror-symmetric
    inputs give bit-equal curvatures.
    """
    v = tuple(g)
    a = dict(zip(_PAIRS, h))
    n2 = (v[0] * v[0] + v[1] * v[1]) + v[2] * v[2]
    if np.any(n2 <= 1e-24):
        raise VanishingGradientError("level-set function has vanishing gradient")
    norm = np.sqrt(n2)
    sigma1 = (_quadratic(a, v) - n2 * ((a[0, 0] + a[1, 1]) + a[2, 2])) / (n2 * norm)
    sigma2 = _quadratic(_adjugate(a), v) / (n2 * n2)
    nu = tuple(vi / norm for vi in v)
    Bt = _tangential_form(a, nu, norm)
    half = 0.5 * sigma1
    T2 = {}  # the squared entries of B_t - (sigma_1 / 2) P
    for (i, j), bt in zip(_PAIRS, Bt):
        nn = nu[i] * nu[j]
        t = bt - half * (1.0 - nn) if i == j else bt + half * nn
        T2[i, j] = t * t
    root = np.sqrt(0.5 * _quadratic(T2, (1.0, 1.0, 1.0)))
    return SigmaShape(nu=nu, kappa=np.stack([half - root, half + root], axis=-1),
                      Bt=Bt, sigma2=sigma2)


def _adjugate(a):
    """The ``_PAIRS`` entries of adj(H), H symmetric with the entries ``a``."""
    return {(0, 0): a[1, 1] * a[2, 2] - a[1, 2] * a[1, 2],
            (1, 1): a[0, 0] * a[2, 2] - a[0, 2] * a[0, 2],
            (2, 2): a[0, 0] * a[1, 1] - a[0, 1] * a[0, 1],
            (0, 1): a[0, 2] * a[1, 2] - a[0, 1] * a[2, 2],
            (0, 2): a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1],
            (1, 2): a[0, 1] * a[0, 2] - a[0, 0] * a[1, 2]}


def _tangential_form(a, nu, norm):
    """The ``_PAIRS`` entries of B_t = P B P, B = -H / |g|, from H's entries
    ``a``, the unit normal nu and |g|; B and B nu go once B_t is formed."""
    B = {ij: -a[ij] / norm for ij in _PAIRS}
    Bnu = [(_entry(B, i, 0) * nu[0] + _entry(B, i, 1) * nu[1]) + _entry(B, i, 2) * nu[2]
           for i in range(3)]
    beta = _quadratic(B, nu)
    return tuple((B[i, j] - (nu[i] * Bnu[j] + Bnu[i] * nu[j])) + beta * (nu[i] * nu[j])
                 for i, j in _PAIRS)


def levelset_shape(f, x, metric):
    """Principal curvatures of the level set of f through each point of R^3,
    ascending, shape ``(..., 2)``, in metric units.

    They are taken with respect to the unit normal grad f / |grad f|_g; for a
    boundary function that is positive inside, that normal points inward and
    a convex domain has positive curvatures.  With the covariant Hessian
    Hc = Hess f - Gamma(df) and the Cholesky factor g = L L^T (L = c I under
    g = c^2 * euclidean), the coordinates y = L^T x make g euclidean at the
    point, so the curvatures are those of a euclidean level surface with
    gradient L^-1 df and Hessian L^-1 Hc L^-T: ``sigma_shape``'s closed form
    (Goldman 2005), with no eigensolver.
    """
    if metric.n != 3:
        raise GeometryError("level-set curvatures need a metric on R^3")
    x = np.asarray(x, dtype=float)
    _, g, h = f.jet(unstack(x))
    c = metric.constant_factor()
    if c is not None:
        return sigma_shape(g, h).kappa / c
    df, H = np.stack(g, axis=-1), symmetric_matrix(h)
    gam = christoffel(metric, x)  # raises MetricError where g is not SPD
    Hc = H - np.einsum("...kij,...k->...ij", gam, df)
    Li = np.linalg.inv(np.linalg.cholesky(metric.matrix(x)))
    df_w = np.einsum("...ij,...j->...i", Li, df)
    return sigma_shape(unstack(df_w), sym_entries(Li @ Hc @ np.swapaxes(Li, -1, -2))).kappa


def top_m_eigensum(S, m):
    """Sum of the m largest eigenvalues of a symmetric matrix.

    Equals the maximum over m-dimensional subspaces P of trace(S|P) in the
    euclidean inner product; the input is symmetrized first.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[-1]
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    w = np.linalg.eigvalsh(S)
    return np.sum(w[..., n - m:], axis=-1)


# --------------------------------------------------------------------------
# domains


@dataclass
class Domain:
    """Chart region N = {u0 >= 0} with boundary {u0 = 0}."""

    metric: MetricField
    u0: ScalarField
    chart: np.ndarray  # (n, 2) bounding box

    def __post_init__(self):
        self.chart = np.asarray(self.chart, dtype=float)

    @property
    def n(self):
        return self.metric.n

    def chart_diameter(self):
        return float(np.linalg.norm(self.chart[:, 1] - self.chart[:, 0]))

    @property
    def boundary_tolerance(self):
        return 1e-9 * self.chart_diameter()

    def in_chart(self, x):
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.chart[:, 0]) & (x <= self.chart[:, 1]), axis=-1)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return (self.u0.value(x) >= 0.0) & self.in_chart(x)

    def on_boundary(self, p):
        return np.abs(self.u0.value(p)) < self.boundary_tolerance


def newton_level_project(f, x, tol=1e-12):
    """Project points onto {f = 0} by Newton steps along grad f, at most 50.

    Uses euclidean coordinate steps; raises GeometryError unless every
    |f| ends at most ``tol``.
    """
    y = np.array(x, dtype=float, copy=True)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    for _ in range(50):
        r = f.value(y)
        if np.all(np.abs(r) <= tol):
            break
        g = f.gradient(y)
        g2 = np.einsum("...i,...i->...", g, g)
        if np.any(g2 < 1e-20):
            raise VanishingGradientError("vanishing gradient during projection")
        y = y - (r / g2)[..., None] * g
    else:
        # a NaN residual fails this test too
        if not np.all(np.abs(f.value(y)) <= tol):
            raise GeometryError("level-set projection did not converge")
    return y[0] if single else y


def m_convexity(domain, p, m):
    """Sum of the m smallest boundary principal curvatures at p, classified.

    Returns ``(kappa_sum, classification, curvatures)`` where classification
    is one of "strongly m-convex" (sum above 1e-8), "m-convex" (within 1e-8
    of 0) and "neither".  m must count boundary curvatures: 1 <= m <= n - 1.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    if not 1 <= m <= n - 1:
        raise GeometryError(f"m must lie in [1, {n - 1}] in R^{n}, got {m}")
    if not np.all(domain.on_boundary(p)):
        raise BoundaryError(
            f"point {p.tolist()} is not on the boundary "
            f"(|u0| >= {domain.boundary_tolerance:.3e})"
        )
    kappas = levelset_shape(domain.u0, p, domain.metric)
    total = float(np.sum(kappas[..., :m], axis=-1))
    if total > 1e-8:
        cls = "strongly m-convex"
    elif total >= -1e-8:
        cls = "m-convex"
    else:
        cls = "neither"
    return total, cls, kappas


# --------------------------------------------------------------------------
# catalogs addressable from configs


def _diagonal(entry, n):
    """Upper-triangle entries of ``entry`` times the n x n identity."""
    return [entry if i == j else "0" for i in range(n) for j in range(i, n)]


def metric_euclidean(n=3):
    return MetricField(_diagonal("1", n), n)


def metric_conformal(f, n=3):
    """g = e^{2f} * delta for an expression f (source or parsed): the entry
    exp(2 * (f)), built on f's own parse so that a syntax error points into f."""
    f = parse(f) if isinstance(f, str) else f
    entry = exprfield.Func("exp", exprfield.BinOp("*", exprfield.Const(2.0), f))
    return MetricField(_diagonal(entry, n), n)


def domain_halfspace(metric=None):
    """N = {x3 >= 0} in R^3, on the chart [-2, 2]^3."""
    return Domain(metric or metric_euclidean(3), LinearField([0.0, 0.0, 1.0]),
                  np.array([[-2.0, 2.0]] * 3))


def domain_ball(radius=1.0, n=3, metric=None):
    """N = {|x| <= R} on the chart [-1.5 R, 1.5 R]^n; u0 = R - |x| is the
    exact signed distance."""
    w = 1.5 * radius
    return Domain(metric or metric_euclidean(n), DistanceField(radius, np.zeros(n)),
                  np.array([[-w, w]] * n))


def domain_cylinder(radius=1.0, metric=None):
    """Solid cylinder {x1^2 + x2^2 <= R^2} in R^3 (axis x3), on the chart
    [-1.5 R, 1.5 R]^2 x [-2, 2]."""
    w = 1.5 * radius
    return Domain(metric or metric_euclidean(3),
                  DistanceField(radius, np.zeros(3), axes=(0, 1)),
                  np.array([[-w, w], [-w, w], [-2.0, 2.0]]))


def domain_levelset(expr, chart, metric=None):
    """N = {expr >= 0} in R^3 on the given chart."""
    return Domain(metric or metric_euclidean(3), ExprScalarField(expr, 3),
                  np.asarray(chart, dtype=float))
