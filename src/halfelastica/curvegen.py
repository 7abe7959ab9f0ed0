"""Curve generation on the hyperboloid model of the hyperbolic plane.

The three families of curves with periodic non-constant curvature are
parameterized in closed form from (mu, mu', Theta), where Theta is the
accumulated angular/boost phase.  All three are closed elliptic forms: mu(s)
inverts the arclength from the orbit minimum (:mod:`dynamics`), and Theta is
the integral of the family's theta'(mu) ds = theta'(mu) dmu/mu', reduced to
incomplete integrals of the first, second and third kind in the period
map's amplitude.  The rising half period is evaluated once; every other
arclength follows by symmetry and periodicity, (mu, mu')(s + k omega) =
(mu, mu')(s) and Theta(s + k omega) = Theta(s) + k Theta(omega).

Conventions for the Minkowski 3-space R^{1,2}:

    <x, y> = -x1 y1 + x2 y2 + x3 y3,
    (x X y) . w = det(x, y, w)   (so x X y = eta * (euclidean cross)),

hyperboloid points satisfy <g, g> = -1 with g1 > 0.  The Frenet frame
F = (g, g', g X g') solves F' = F K with K = [[0,1,0],[1,0,-k],[0,k,0]] and
k = mu^2 the geodesic curvature.  :func:`monodromy` reads F(0) and F(omega)
from the closed forms; :func:`frenet_oracle` integrates this linear system
from the canonical frame at the apex, the independent reference trajectory
for all three closed forms and for the monodromy.

The closed forms need scipy.special only.  The Frenet oracle integrates
through ``dynamics.solve_ivp``, which imports scipy.integrate on its first
call; :func:`bs_contraction_height` solves through ``moduli.brentq``, which
imports nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import ellint
from .errors import DomainError, IntegrationError, RegionError
from .dynamics import (
    _RisingBranch,
    _interior,
    _parameter_and_scale,
    _periodic_states,
    mu_acceleration,
    saddle_level,
    solve_ivp,
    wavelength,
)
from .moduli import (
    ModulusPoint,
    QuarticData,
    Region,
    _TIMELIKE,
    _factored_w2,
    b0,
    brentq,
    eta_pm,
    resolve,
    roots_from_modulus,
)
from .periodmap import _coefficients

__all__ = [
    "CurveKind",
    "CurveSamples",
    "Monodromy",
    "MonodromyClass",
    "minkowski_dot",
    "minkowski_cross",
    "minkowski_metric",
    "to_poincare",
    "from_poincare",
    "bl_curve",
    "bs_curve",
    "bt_curve",
    "make_curve",
    "upsilon_plus",
    "upsilon_star",
    "bs_contraction_height",
    "radial_function",
    "angular_function",
    "momentum",
    "momentum_samples",
    "frenet_oracle",
    "monodromy",
    "bending_energy",
    "bt_annulus_radii",
]

_METRIC = np.diag([-1.0, 1.0, 1.0])

# DOP853 tolerances of the Frenet oracle, and the error target of the
# light-like boost quadrature
_FLOW_ATOL = 1e-14
_FLOW_RTOL = 1e-13
_BOOST_TOL = 1e-13


class CurveKind(enum.Enum):
    BL = "BL"
    BS = "BS"
    BT = "BT"


_KIND_OF_REGION = {
    Region.L: CurveKind.BL,
    Region.S: CurveKind.BS,
    Region.T_MINUS: CurveKind.BT,
    Region.E: CurveKind.BT,
    Region.T_PLUS: CurveKind.BT,
}


def minkowski_metric() -> np.ndarray:
    return _METRIC.copy()


def minkowski_dot(x, y):
    """Lorentzian inner product, vectorized over the last axis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def minkowski_cross(x, y):
    """Lorentzian cross product: <x X y, w> = det(x, y, w)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty(np.broadcast(x, y).shape, dtype=float)
    out[..., 0] = -(x[..., 1] * y[..., 2] - x[..., 2] * y[..., 1])
    out[..., 1] = x[..., 2] * y[..., 0] - x[..., 0] * y[..., 2]
    out[..., 2] = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
    return out


def to_poincare(x):
    """Isometry from the hyperboloid to the unit disk: (x2, x3)/(1 + x1)."""
    x = np.asarray(x, dtype=float)
    norm = minkowski_dot(x, x)
    if np.any(np.abs(norm + 1.0) > 1e-6) or np.any(x[..., 0] <= 0.0):
        raise DomainError("to_poincare expects future-directed hyperboloid points")
    return x[..., 1:] / (1.0 + x[..., 0])[..., None]


def from_poincare(uv):
    """Inverse disk-to-hyperboloid map."""
    uv = np.asarray(uv, dtype=float)
    r2 = uv[..., 0] ** 2 + uv[..., 1] ** 2
    if np.any(r2 >= 1.0):
        raise DomainError("disk points must satisfy u^2 + v^2 < 1")
    den = 1.0 - r2
    out = np.empty(uv.shape[:-1] + (3,), dtype=float)
    out[..., 0] = (1.0 + r2) / den
    out[..., 1] = 2.0 * uv[..., 0] / den
    out[..., 2] = 2.0 * uv[..., 1] / den
    return out


# ---------------------------------------------------------------------------
# curvature + phase flow
# ---------------------------------------------------------------------------


def _on_locus(point: ModulusPoint) -> bool:
    """Whether the time-like curve takes the on-locus closed form: its
    locus residual T is exactly 0.  An E-tagged point with T != 0 takes the
    T route, whose factored 1 + 4 c mu^2 and scaled Pi hold at any T != 0;
    the on-locus form drops terms of order T."""
    return point.region is Region.E and point.quartic.t == 0.0


def _theta_rhs_for(point: ModulusPoint, kind: CurveKind):
    """Phase derivative as a function of the curvature value x and, where it
    is at hand, the gap e1 - x (by default taken from x).

    The time-like denominator 1 + 4 c mu^2 vanishes at mu = e1 on E; off
    the locus it takes the factored form (kappa1 + 2 sc (e1 - mu)) (1 + 2 sc
    mu) with the record's sc = sqrt(-c) and kappa1, and the numerator's x +
    2 lam is -(e1 - x + T/(2 e1^2 e2^2)) from the same T, so that rho theta'
    stays unit at mu = e1 however small T is.
    """
    qd = point.quartic
    lam, c = point.lam, qd.c
    sc = qd.sc if kind is CurveKind.BT else math.sqrt(abs(c))
    if kind is CurveKind.BL:
        def theta_rhs(x, gap=None):
            return -x * x * (x + 2.0 * lam)
        return theta_rhs
    if kind is CurveKind.BT and _on_locus(point):
        def theta_rhs(x, gap=None):
            return -8.0 * sc * lam * lam * x * x / (x - 2.0 * lam)
        return theta_rhs
    if kind is CurveKind.BT:
        kappa1 = qd.kappa1
        e1, shift = qd.e1, qd.t / (2.0 * qd.e1 * qd.e1 * qd.e2 * qd.e2)

        def theta_rhs(x, gap=None):
            gap = e1 - x if gap is None else gap
            return -2.0 * sc * x * x * (gap + shift) / _factored_w2(kappa1, sc, gap, x)
        return theta_rhs

    def theta_rhs(x, gap=None):
        return 2.0 * sc * x * x * (x + 2.0 * lam) / (1.0 + 4.0 * c * x * x)
    return theta_rhs


def _pole_terms(qd: QuarticData, pole):
    """(b, n): the integral of g/(x - p) dx/sqrt(-Q(x)) from mu to e1 is
    F(phi)/(e4 - p) + b Pi(n, phi) in the period map's amplitude phi; p may
    be complex."""
    e1, e2, _, e4 = qd.roots
    n = (e2 - e1) / (e2 - e4) * (e4 - pole) / (e1 - pole)
    return (e4 - e1) / ((e1 - pole) * (e4 - pole)), n


def _phase_for(point: ModulusPoint, kind: CurveKind):
    """(S, C) -> the integral of theta'(x) dx/(x sqrt(-Q(x))) from mu to e1,
    the phase from the top of the curvature range, in incomplete elliptic
    integrals of the period map's amplitude phi, (S, C) = (sin^2 phi, cos^2
    phi).  At (1, 0) it is the phase over the half period."""
    qd = point.quartic
    lam, c = point.lam, qd.c
    m, g = _parameter_and_scale(qd)
    e1, e2, _, e4 = qd.roots
    if kind is CurveKind.BL:
        # theta'/x = -(x^2 + 2 lam x) with x = e4 + D/(1 - a sin^2): F, Pi(a)
        # and the square of 1/(1 - a sin^2), Pi + a dPi/dn (DLMF 19.4.4)
        a = (e2 - e1) / (e2 - e4)
        d = e1 - e4

        def phase(S, C):
            f, pi_a = ellint.incomplete_F_Pi(S, C, m, a)
            e = ellint.incomplete_E(S, C, m, f)
            square = (a * e + (m - a) * f
                      + (2.0 * a * m + 2.0 * a - a * a - 3.0 * m) * pi_a
                      - a * a * np.sqrt(S * C * (1.0 - m * S)) / (1.0 - a * S)
                      ) / (2.0 * (a - 1.0) * (m - a))
            return -g * ((e4 + 2.0 * lam) * e4 * f + 2.0 * d * (e4 + lam) * pi_a
                         + d * d * square)
        return phase
    if kind is CurveKind.BT and _on_locus(point):
        # the on-locus theta'/x = -8 sc lam^2 (1 + 2 lam/(x - 2 lam)), its
        # constant term taken as its value at x = e4
        scale = -8.0 * qd.sc * lam * lam * g
        pi_coeff, n = _pole_terms(qd, 2.0 * lam)
        f_coeff = e4 / (e4 - 2.0 * lam)

        def phase(S, C):
            f, pi_n = ellint.incomplete_F_Pi(S, C, m, n)
            return scale * (f_coeff * f + 2.0 * lam * pi_coeff * pi_n)
        return phase
    if kind is CurveKind.BT:
        # the period map's closed form with incomplete integrals
        _, _, nu, n2, a_coeff, beta, c_coeff, sign = _coefficients(lam, qd)
        scale = -2.0 * qd.sc

        def phase(S, C):
            f, pi_n2 = ellint.incomplete_F_Pi(S, C, m, n2)
            return scale * (a_coeff * f + c_coeff * pi_n2 + sign * beta
                            * ellint._scaled_incomplete_Pi(nu, S, C, m))
        return phase
    # space-like: theta'/x = (sc/(2c)) x (x + 2 lam)/(x^2 - p^2) with the
    # poles +-p = +-i/(2 sc), partial fractions with conjugate residues lam
    # +- p/2, and the constant term taken as its value at x = e4
    sc = math.sqrt(c)
    pole = 0.5j / sc
    pi_coeff, n = _pole_terms(qd, pole)
    a_coeff = g * 2.0 * sc * e4 * (e4 + 2.0 * lam) / (1.0 + 4.0 * c * e4 * e4)
    b_coeff = g * (sc / (2.0 * c)) * (lam + 0.5 * pole) * pi_coeff

    def phase(S, C):
        f, pi_n = ellint.incomplete_F_Pi(S, C, m, n)
        return a_coeff * f + 2.0 * (b_coeff * pi_n).real
    return phase


class _CurveFlow:
    """(mu, mu', Theta) of one modulus point and curve kind in closed form:
    the rising half period evaluated, extended by symmetry and periodicity."""

    def __init__(self, point: ModulusPoint, kind: CurveKind):
        self.kind = kind
        self.qd = point.quartic
        self.c = self.qd.c
        self.omega = wavelength(point)
        self.on_locus = _on_locus(point)
        self._theta_rhs = _theta_rhs_for(point, kind)
        # s -> (mu, mu_dot, theta) rows
        self.states = _periodic_states(_RisingBranch(self.qd, self.omega),
                                     _phase_for(point, kind))

    def radial_sign(self, s):
        """Sign branch of the radial function; flips every half period past
        omega/2 where T = 0 (:func:`_on_locus`), constant +1 elsewhere."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if not (self.kind is CurveKind.BT and self.on_locus):
            return np.ones_like(s)
        k = np.floor((s + 0.5 * self.omega) / self.omega)
        return np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)

    def _bt_w(self, mu, gap):
        """sqrt(1 + 4 c mu^2) for the time-like family, factored through
        the record's sc and kappa1 and the gap e1 - mu."""
        return np.sqrt(_factored_w2(self.qd.kappa1, self.qd.sc, gap, mu))

    def bt_rho(self, s):
        """Signed disk radius of the time-like family at arclengths s."""
        mu, _, _, gap = self.states(s, gap=True)
        return self.radial_sign(s) * self._bt_w(mu, gap) / (2.0 * self.qd.sc * mu)

    # -- closed-form embeddings -------------------------------------------

    def frame(self, s):
        """(gamma, tangent, mu, mu', Theta) at arclengths s: the family's
        closed form and its derivative from one set of shared quantities."""
        mu, mu_dot, th, gap = self.states(s, gap=True)
        th_dot = self._theta_rhs(mu, gap)
        gam = np.empty(mu.shape + (3,), dtype=float)
        tan = np.empty_like(gam)
        if self.kind is CurveKind.BL:
            r2 = math.sqrt(2.0)
            f = 1.0 / (2.0 * r2 * mu)
            v0 = 2.0 * th * th + 2.0 * mu * mu + 1.0
            v1 = 2.0 * r2 * th
            gam[..., 0] = f * v0
            gam[..., 1] = f * v1
            gam[..., 2] = f * (2.0 * th * th + 2.0 * mu * mu - 1.0)
            d0 = 4.0 * th * th_dot + 4.0 * mu * mu_dot
            den = 2.0 * r2 * mu * mu
            tan[..., 0] = (d0 * mu - v0 * mu_dot) / den
            tan[..., 1] = (2.0 * r2 * th_dot * mu - v1 * mu_dot) / den
            tan[..., 2] = (d0 * mu - (v0 - 2.0) * mu_dot) / den
        elif self.kind is CurveKind.BS:
            sc = math.sqrt(self.c)
            w = np.sqrt(1.0 + 4.0 * self.c * mu * mu)
            ch, sh = np.cosh(th), np.sinh(th)
            f = 1.0 / (2.0 * sc * mu)
            gam[..., 0] = f * w * ch
            gam[..., 1] = f * w * sh
            gam[..., 2] = f
            w_dot = 4.0 * self.c * mu * mu_dot / w
            den = 2.0 * sc * mu * mu
            tan[..., 0] = ((w_dot * ch + w * sh * th_dot) * mu - w * ch * mu_dot) / den
            tan[..., 1] = ((w_dot * sh + w * ch * th_dot) * mu - w * sh * mu_dot) / den
            tan[..., 2] = -mu_dot / den
        else:
            sc = self.qd.sc
            w = self._bt_w(mu, gap)
            sign = self.radial_sign(s)
            rho = sign * w / (2.0 * sc * mu)
            rho_dot = self._bt_rho_dot(s, mu, mu_dot, sc, w, sign)
            cos, sin = np.cos(th), np.sin(th)
            gam[..., 0] = 1.0 / (2.0 * sc * mu)
            gam[..., 1] = -rho * cos
            gam[..., 2] = rho * sin
            tan[..., 0] = -mu_dot / (2.0 * sc * mu * mu)
            tan[..., 1] = -rho_dot * cos + rho * sin * th_dot
            tan[..., 2] = rho_dot * sin + rho * cos * th_dot
        return gam, tan, mu, mu_dot, th

    def _bt_rho_dot(self, s, mu, mu_dot, sc, w, sign):
        """d rho / ds for the time-like family: the naive -sign mu' / (2 sc
        mu^2 w), which is 0/0 only at T = 0, where w and mu' vanish together
        at mu = e1 (elsewhere w(e1) = sqrt(1 + 4 c e1^2) > 0, and w takes
        the gap e1 - mu from the amplitude, as mu' does).  At T = 0,
        above the curvature midpoint, it takes the algebraic form in which
        mu'^2 = mu^2 (e1-mu)(mu-e2)(mu-e3)(mu-e4) cancels the vanishing
        factor of w^2; below it (mu near e2, where that form would inject
        sqrt-of-roundoff noise) the naive quotient is exact."""
        naive = -sign * mu_dot / (2.0 * sc * mu * mu * np.where(w > 0.0, w, 1.0))
        if not self.on_locus:
            return naive
        e1, e2, e3, e4 = self.qd.roots
        # on the locus the (e1 - mu) factor cancels identically
        rise = np.maximum(mu - e2, 0.0)
        quot = rise * (mu - e3) * (mu - e4) / (2.0 * sc * (1.0 + 2.0 * sc * mu))
        orient = -np.where(np.mod(np.floor(s / self.omega), 2.0) == 0.0, 1.0, -1.0)
        product = orient * np.sqrt(quot) / (2.0 * sc * mu)
        return np.where(mu >= 0.5 * (e1 + e2), product, naive)


@dataclass(frozen=True)
class CurveSamples:
    """Sampled standard-form curve with its frame-independent data."""

    modulus: ModulusPoint
    kind: CurveKind
    s: np.ndarray
    mu: np.ndarray
    mu_dot: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    tangent: np.ndarray
    poincare: np.ndarray
    wavelength: float
    quartic: QuarticData
    _flow: object = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        for arr in (self.s, self.mu, self.mu_dot, self.theta, self.gamma,
                    self.tangent, self.poincare):
            arr.flags.writeable = False

    def _require_flow(self):
        if self._flow is None:
            raise IntegrationError("this curve carries no closed-form flow")
        return self._flow

    def gamma_at(self, s):
        return self._require_flow().frame(s)[0]

    def tangent_at(self, s):
        return self._require_flow().frame(s)[1]

    def state_at(self, s):
        return self._require_flow().states(s)

    def theta_at(self, s):
        return self._require_flow().states(s)[2]


def _build_curve(point: ModulusPoint, kind: CurveKind, s_grid, samples: int,
                 periods: float) -> CurveSamples:
    flow = _CurveFlow(point, kind)
    if s_grid is None:
        s_grid = np.linspace(0.0, periods * flow.omega,
                             int(round(samples * periods)) + 1)
    else:
        s_grid = np.asarray(s_grid, dtype=float)
    gam, tan, mu, mu_dot, th = flow.frame(s_grid)
    return CurveSamples(
        modulus=point,
        kind=kind,
        s=s_grid,
        mu=mu,
        mu_dot=mu_dot,
        theta=th,
        gamma=gam,
        tangent=tan,
        poincare=to_poincare(gam),
        wavelength=flow.omega,
        quartic=point.quartic,
        _flow=flow,
    )


def _require_region(p, allowed, what: str) -> ModulusPoint:
    point = resolve(p)
    if point.region not in allowed:
        raise RegionError(
            f"{what} requires a modulus in {sorted(r.value for r in allowed)}, "
            f"got region {point.region.value!r} at ({point.lam}, {point.e2})"
        )
    return point


def bl_curve(p, s_grid=None, samples: int = 2048,
             periods: float = 1.0) -> CurveSamples:
    """Standard curve with light-like momentum (1, 0, 1)/sqrt(2)."""
    point = _require_region(p, {Region.L}, "bl_curve")
    return _build_curve(point, CurveKind.BL, s_grid, samples, periods)


def bs_curve(p, s_grid=None, samples: int = 2048,
             periods: float = 1.0) -> CurveSamples:
    """Standard curve with space-like momentum (0, 0, -sqrt(c))."""
    point = _require_region(p, {Region.S}, "bs_curve")
    return _build_curve(point, CurveKind.BS, s_grid, samples, periods)


def bt_curve(p, s_grid=None, samples: int = 2048,
             periods: float = 1.0) -> CurveSamples:
    """Standard curve with time-like momentum (sqrt(|c|), 0, 0)."""
    point = _require_region(p, _TIMELIKE, "bt_curve")
    return _build_curve(point, CurveKind.BT, s_grid, samples, periods)


def make_curve(p, **kwargs) -> CurveSamples:
    """Dispatch to the family selected by the region tag."""
    point = resolve(p)
    kind = _KIND_OF_REGION.get(point.region)
    if kind is None:
        raise RegionError(f"no curve family at region {point.region.value!r}")
    return {CurveKind.BL: bl_curve, CurveKind.BS: bs_curve,
            CurveKind.BT: bt_curve}[kind](point, **kwargs)


# ---------------------------------------------------------------------------
# radial / angular functions and the space-like kinematics
# ---------------------------------------------------------------------------


def radial_function(p, s_grid) -> np.ndarray:
    """Signed disk-radius profile of a time-like curve along arclength: the
    radius of the curve's own embedding (:func:`bt_curve`)."""
    s_grid = np.asarray(s_grid, dtype=float)
    point = _require_region(p, _TIMELIKE, "radial_function")
    flow = _CurveFlow(point, CurveKind.BT)
    return flow.bt_rho(s_grid)


def angular_function(p, s_grid) -> np.ndarray:
    """Accumulated angular phase of a time-like curve along arclength."""
    s_grid = np.asarray(s_grid, dtype=float)
    point = _require_region(p, _TIMELIKE, "angular_function")
    return _CurveFlow(point, CurveKind.BT).states(s_grid)[2]


def bl_boost_quadrature(lam: float) -> float:
    """Parabolic-boost increment of the light-like family over one period,
    by quadrature of the defining curvature integral:

        2 * int_{e2}^{e1} mu (mu + 2 lam) dmu / sqrt(-Q(mu)).

    It is strictly negative for every admissible multiplier, which is why no
    curve of the light-like family closes (its monodromy is a non-trivial
    parabolic transform).  The phase of the generated curve is the
    negative of this quantity.
    """
    qd = roots_from_modulus((lam, b0(lam)))
    e1, e2, e3, e4 = qd.roots

    def smooth(x):
        return x * (x + 2.0 * lam) / np.sqrt((x - e3) * (x - e4))

    return 2.0 * ellint.quad_oracle(smooth, e2, e1, _BOOST_TOL, singular=(-0.5, -0.5))


def bl_boost_closed_form(lam: float) -> float:
    """Closed elliptic form of the same boost increment,

        2 sqrt(2) sqrt(lam^2 + sqrt(lam^4 - 1)) (E(m) - K(m)),
        m = (lam^2 - sqrt(lam^4 - 1)) / (lam^2 + sqrt(lam^4 - 1)).

    Derived by reducing the quartic integral through the symmetric root
    configuration e1 + e4 = e2 + e3 = -2 lam, under which the third-kind
    term collapses (the characteristic equals -sqrt(m)) and the circular
    contributions cancel.
    """
    if lam >= -1.0:
        raise DomainError(f"light-like family requires lambda < -1, got {lam!r}")
    s2 = math.sqrt(lam**4 - 1.0)
    m = (lam * lam - s2) / (lam * lam + s2)
    pref = 2.0 * math.sqrt(2.0) * math.sqrt(lam * lam + s2)
    return pref * (ellint.complete_E(m) - ellint.complete_K(m))


def _disk_height(c: float, mu: float) -> float:
    """Disk height 1 / (2 sqrt(c) mu + sqrt(1 + 4 c mu^2)) of the osculating
    arc of a space-like curve at curvature mu."""
    return 1.0 / (2.0 * math.sqrt(c) * mu + math.sqrt(1.0 + 4.0 * c * mu * mu))


def upsilon_plus(lam: float, e2: float) -> float:
    """Disk height of the starting osculating arc of a space-like curve."""
    qd = roots_from_modulus((lam, e2))
    if qd.c <= 0.0:
        raise DomainError(
            f"upsilon defined for space-like moduli (c > 0), got c={qd.c!r}"
        )
    return _disk_height(qd.c, e2)


def upsilon_star(lam: float) -> float:
    """Limit height as the modulus approaches the saddle boundary; the level
    constant there is the separatrix level."""
    eta_m = eta_pm(lam)[0]
    c = saddle_level(lam)
    if c <= 0.0:
        raise DomainError(f"saddle level not space-like at lambda={lam!r}")
    return _disk_height(c, eta_m)


def bs_contraction_height(lam: float) -> float:
    """The e2 > -lam at which the expanding osculating arc returns to the
    saddle-limit position (upsilon recrosses its left-boundary limit)."""
    target = upsilon_star(lam)
    lo, hi = -lam, b0(lam) - 1e-9 * (b0(lam) + lam)
    return brentq(lambda e2: upsilon_plus(lam, e2) - target, lo, hi, xtol=1e-12)


# ---------------------------------------------------------------------------
# momentum, frames, monodromy
# ---------------------------------------------------------------------------


def momentum(gamma, tangent, mu, mu_dot, lam: float):
    """Conserved momentum vector from one sample (or arrays of samples)."""
    gamma = np.asarray(gamma, dtype=float)
    tangent = np.asarray(tangent, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mu_dot = np.asarray(mu_dot, dtype=float)
    if np.any(mu <= 0.0):
        raise DomainError("momentum requires a convex sample (mu > 0)")
    mu_ = mu[..., None]
    mud_ = mu_dot[..., None]
    return (gamma / (2.0 * mu_) + mud_ * tangent / (2.0 * mu_**2)
            - (lam + 0.5 * mu_) * minkowski_cross(gamma, tangent))


def momentum_samples(curve: CurveSamples):
    """Momentum at every sample of a generated curve."""
    return momentum(curve.gamma, curve.tangent, curve.mu, curve.mu_dot,
                    curve.modulus.lam)


def expected_momentum(curve: CurveSamples) -> np.ndarray:
    """The constant momentum of the standard form of each family."""
    qd = curve.quartic
    if curve.kind is CurveKind.BL:
        return np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    if curve.kind is CurveKind.BS:
        return np.array([0.0, 0.0, -math.sqrt(qd.c)])
    return np.array([qd.sc, 0.0, 0.0])


def _frenet_matrix(kappa: float) -> np.ndarray:
    return np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -kappa], [0.0, kappa, 0.0]])


def frenet_oracle(p, n_periods: float = 1.0,
                  samples: int = 2048) -> CurveSamples:
    """Independent trajectory: integrate the Frenet linear system with
    kappa = mu^2 from the canonical frame at the apex (1,0,0).

    The result is related to the closed-form curve of the same modulus by the
    fixed Lorentz transform that aligns the frames at s = 0.  It integrates
    the whole range, with no periodicity assumed.
    """
    point = _interior(p)
    kind = _KIND_OF_REGION[point.region]
    qd = point.quartic
    omega = wavelength(point)
    lam = point.lam
    theta_rhs = _theta_rhs_for(point, kind)

    def rhs(_s, state):
        x, y, _th = state[0], state[1], state[2]
        frame = state[3:].reshape(3, 3)
        dframe = frame @ _frenet_matrix(x * x)
        return np.concatenate((
            [y, mu_acceleration(lam, x, y), theta_rhs(x)],
            dframe.ravel(),
        ))

    y0 = np.concatenate(([qd.e2, 0.0, 0.0], np.eye(3).ravel()))
    s_end = n_periods * omega
    sol = solve_ivp(rhs, (0.0, s_end), y0, method="DOP853", rtol=_FLOW_RTOL,
                    atol=_FLOW_ATOL, dense_output=True, max_step=omega / 64.0)
    if not sol.success:
        raise IntegrationError(f"frame integration failed: {sol.message}")
    s = np.linspace(0.0, s_end, int(round(samples * n_periods)) + 1)
    states = sol.sol(s)
    frames = states[3:].T.reshape(-1, 3, 3)
    gam = frames[:, :, 0]
    tan = frames[:, :, 1]
    return CurveSamples(
        modulus=point,
        kind=kind,
        s=s,
        mu=states[0],
        mu_dot=states[1],
        theta=states[2],
        gamma=gam,
        tangent=tan,
        poincare=to_poincare(gam),
        wavelength=omega,
        quartic=qd,
    )


def _frame_matrix(gamma, tangent) -> np.ndarray:
    """Frames with columns (gamma, tangent, gamma X tangent), one per sample."""
    return np.stack([gamma, tangent, minkowski_cross(gamma, tangent)], axis=-1)


def initial_frame(curve: CurveSamples) -> np.ndarray:
    """Frame (gamma, tangent, gamma X tangent) of the closed form at s = 0."""
    gam, tan, *_ = curve._require_flow().frame(np.array([0.0]))
    return _frame_matrix(gam[0], tan[0])


def lorentz_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of a restricted Lorentz matrix: eta M^T eta."""
    return _METRIC @ mat.T @ _METRIC


class MonodromyClass(enum.Enum):
    PARABOLIC = "parabolic"
    HYPERBOLIC_ROTATION = "hyperbolic-rotation"
    ELLIPTIC_ROTATION = "elliptic-rotation"


@dataclass(frozen=True)
class Monodromy:
    """Lorentz transform advancing the standard curve by one wavelength."""

    matrix: np.ndarray
    kind: MonodromyClass
    parameter: float

    def __post_init__(self):
        self.matrix.flags.writeable = False


def parabolic_transform(t: float) -> np.ndarray:
    """One-parameter stabilizer of a light-like direction."""
    t2 = 0.5 * t * t
    return np.array([
        [1.0 + t2, t, -t2],
        [t, 1.0, -t],
        [t2, t, 1.0 - t2],
    ])


def hyperbolic_rotation(t: float) -> np.ndarray:
    """Boost stabilizing a space-like axis."""
    ch, sh = math.cosh(t), math.sinh(t)
    return np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])


def monodromy(p) -> Monodromy:
    """Monodromy of the standard curve: F(omega) F(0)^{-1}, with both frames
    read from the closed form at s = 0 and s = omega."""
    curve = make_curve(p, samples=1, periods=1.0)
    f0, f_omega = _frame_matrix(curve.gamma, curve.tangent)
    mat = f_omega @ lorentz_inverse(f0)
    region = curve.modulus.region
    if region is Region.L:
        kind = MonodromyClass.PARABOLIC
        parameter = mat[0, 1]
    elif region is Region.S:
        kind = MonodromyClass.HYPERBOLIC_ROTATION
        parameter = math.asinh(mat[0, 1])
    else:
        kind = MonodromyClass.ELLIPTIC_ROTATION
        # the rotation angle from its block on the plane orthogonal to the
        # axis, which keeps every digit at small angles
        parameter = math.atan2(mat[2, 1] - mat[1, 2], mat[1, 1] + mat[2, 2])
    return Monodromy(matrix=mat, kind=kind, parameter=parameter)


def bending_energy(curve: CurveSamples) -> float:
    """Trapezoidal estimate of the constrained bending energy
    int (sqrt(kappa) + lam) ds over the sampled range."""
    return bending_energy_arrays(curve.s, curve.mu, curve.modulus.lam)


def bending_energy_arrays(s, mu, lam: float) -> float:
    """Same estimate from raw arrays (used for synthetic comparisons)."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0):
        raise DomainError("bending energy requires kappa > 0")
    trapz = getattr(np, "trapezoid", None) or np.trapz
    return float(trapz(mu + lam, np.asarray(s, dtype=float)))


def bt_annulus_radii(p) -> tuple[float, float]:
    """Inner and outer disk radii confining a time-like trajectory."""
    point = _require_region(p, _TIMELIKE, "bt_annulus_radii")
    qd = point.quartic
    sc = qd.sc
    inner = math.sqrt(qd.kappa1 / (1.0 + 2.0 * sc * qd.e1))
    outer = math.sqrt(1.0 + 4.0 * qd.c * qd.e2**2) / (1.0 + 2.0 * sc * qd.e2)
    return inner, outer
