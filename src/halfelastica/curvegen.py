"""Curve generation on the hyperboloid model of the hyperbolic plane.

The three families of curves with periodic non-constant curvature are
parameterized in closed form from the curvature flow (mu, mu', Theta), where
Theta is the accumulated angular/boost phase.  The phase is co-integrated
with the curvature (augmented ODE state), never recovered by post-hoc
quadrature, so the two stay phase-locked to integrator precision.  One
curvature period [0, omega] is integrated per curve; every other arclength
follows by periodicity, (mu, mu')(s + k omega) = (mu, mu')(s) and
Theta(s + k omega) = Theta(s) + k Theta(omega).

Conventions for the Minkowski 3-space R^{1,2}:

    <x, y> = -x1 y1 + x2 y2 + x3 y3,
    (x X y) . w = det(x, y, w)   (so x X y = eta * (euclidean cross)),

hyperboloid points satisfy <g, g> = -1 with g1 > 0.  The Frenet frame
F = (g, g', g X g') solves F' = F K with K = [[0,1,0],[1,0,-k],[0,k,0]] and
k = mu^2 the geodesic curvature; :func:`frenet_oracle` integrates exactly
this linear system from the canonical frame at the apex and serves as the
independent reference trajectory for all three closed forms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import ellint
from .errors import DomainError, IntegrationError, RegionError
from .dynamics import (
    _FLOW_ATOL,
    _interior,
    _periodic_flow,
    mu_acceleration,
    saddle_level,
    wavelength,
)
from .moduli import (
    ModulusPoint,
    QuarticData,
    Region,
    _TIMELIKE,
    b0,
    eta_pm,
    radial_degeneracy,
    resolve,
    roots_from_modulus,
)

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

# radial degeneracy 1 + 4 c e1^2 below which the time-like family rebuilds
# 1 + 4 c mu^2 from its factored form
_NEAR_LOCUS = 1e-6

# DOP853 relative tolerance of the curve flow and of the Frenet oracle, and
# the error target of the light-like boost quadrature
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


def _kappa1(qd: QuarticData) -> float | None:
    """kappa1 = (1 + 4 c e1^2) / (1 + 2 sqrt|c| e1) of a time-like point from
    the cancellation-free radial degeneracy, when that is below _NEAR_LOCUS;
    None farther from the exceptional locus."""
    degeneracy = radial_degeneracy(qd.e1, qd.e2)
    if degeneracy >= _NEAR_LOCUS:
        return None
    return degeneracy / (1.0 + 2.0 * math.sqrt(-qd.c) * qd.e1)


def _theta_rhs_for(point: ModulusPoint, kind: CurveKind):
    """Phase derivative as a function of the curvature value.

    Near the exceptional locus the non-exceptional denominator 1 + 4 c mu^2
    nearly vanishes at mu = e1; it is then rebuilt from the factored form
    (kappa1 + 2 sqrt|c| (e1 - mu)) (1 + 2 sqrt|c| mu) (see :func:`_kappa1`).
    """
    qd = point.quartic
    lam, c = point.lam, qd.c
    sc = math.sqrt(abs(c))
    if kind is CurveKind.BL:
        def theta_rhs(x):
            return -x * x * (x + 2.0 * lam)
        return theta_rhs
    if kind is CurveKind.BT and point.region is Region.E:
        def theta_rhs(x):
            return -8.0 * sc * lam * lam * x * x / (x - 2.0 * lam)
        return theta_rhs
    kappa1 = _kappa1(qd) if kind is CurveKind.BT else None
    if kappa1 is not None:
        e1 = qd.e1

        def theta_rhs(x):
            den = (kappa1 + 2.0 * sc * (e1 - x)) * (1.0 + 2.0 * sc * x)
            return 2.0 * sc * x * x * (x + 2.0 * lam) / den
        return theta_rhs

    def theta_rhs(x):
        return 2.0 * sc * x * x * (x + 2.0 * lam) / (1.0 + 4.0 * c * x * x)
    return theta_rhs


class _CurveFlow:
    """(mu, mu', Theta) flow for one modulus point and curve kind: one
    period integrated with dense output, extended by periodicity."""

    def __init__(self, point: ModulusPoint, kind: CurveKind):
        self.kind = kind
        self.qd = point.quartic
        self.lam = point.lam
        self.c = self.qd.c
        self.omega = wavelength(point)
        self.exceptional = point.region is Region.E
        self._kappa1 = _kappa1(self.qd) if kind is CurveKind.BT else None
        lam = self.lam
        theta_rhs = _theta_rhs_for(point, kind)
        self._theta_rhs = theta_rhs

        def rhs(_s, state):
            x, y, _ = state
            return (y, mu_acceleration(lam, x, y), theta_rhs(x))

        # s -> (mu, mu_dot, theta) rows
        self.states = _periodic_flow(rhs, (self.qd.e2, 0.0, 0.0), self.omega,
                                     _FLOW_RTOL)

    def radial_sign(self, s):
        """Sign branch of the radial function; flips every half period past
        omega/2 on the exceptional locus, constant +1 elsewhere."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if not (self.kind is CurveKind.BT and self.exceptional):
            return np.ones_like(s)
        k = np.floor((s + 0.5 * self.omega) / self.omega)
        return np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)

    def _bt_w(self, mu):
        """sqrt(1 + 4 c mu^2) for the time-like family, factored through the
        locus residual when the direct form would cancel."""
        if self._kappa1 is not None:
            sc = math.sqrt(-self.c)
            gap = np.maximum(self.qd.e1 - mu, 0.0)
            return np.sqrt((self._kappa1 + 2.0 * sc * gap) * (1.0 + 2.0 * sc * mu))
        return np.sqrt(np.maximum(1.0 + 4.0 * self.c * mu * mu, 0.0))

    def bt_rho(self, s, mu):
        """Signed disk radius of the time-like family at curvature mu."""
        return self.radial_sign(s) * self._bt_w(mu) / (2.0 * math.sqrt(-self.c) * mu)

    # -- closed-form embeddings -------------------------------------------

    def gamma(self, s):
        mu, mu_dot, th = self.states(s)
        return self._gamma(s, mu, mu_dot, th)

    def gamma_and_tangent(self, s):
        mu, mu_dot, th = self.states(s)
        return (self._gamma(s, mu, mu_dot, th),
                self._tangent(s, mu, mu_dot, th), mu, mu_dot, th)

    def _gamma(self, s, mu, mu_dot, th):
        lam, c = self.lam, self.c
        out = np.empty(mu.shape + (3,), dtype=float)
        if self.kind is CurveKind.BL:
            f = 1.0 / (2.0 * math.sqrt(2.0) * mu)
            out[..., 0] = f * (2.0 * th * th + 2.0 * mu * mu + 1.0)
            out[..., 1] = f * (2.0 * math.sqrt(2.0) * th)
            out[..., 2] = f * (2.0 * th * th + 2.0 * mu * mu - 1.0)
        elif self.kind is CurveKind.BS:
            sc = math.sqrt(c)
            w = np.sqrt(1.0 + 4.0 * c * mu * mu)
            f = 1.0 / (2.0 * sc * mu)
            out[..., 0] = f * w * np.cosh(th)
            out[..., 1] = f * w * np.sinh(th)
            out[..., 2] = f
        else:
            rho = self.bt_rho(s, mu)
            out[..., 0] = 1.0 / (2.0 * math.sqrt(-c) * mu)
            out[..., 1] = -rho * np.cos(th)
            out[..., 2] = rho * np.sin(th)
        return out

    def _tangent(self, s, mu, mu_dot, th):
        lam, c = self.lam, self.c
        th_dot = self._theta_rhs(mu)
        out = np.empty(mu.shape + (3,), dtype=float)
        if self.kind is CurveKind.BL:
            r2 = math.sqrt(2.0)
            v0 = 2.0 * th * th + 2.0 * mu * mu + 1.0
            v1 = 2.0 * r2 * th
            v2 = v0 - 2.0
            d0 = 4.0 * th * th_dot + 4.0 * mu * mu_dot
            d1 = 2.0 * r2 * th_dot
            d2 = d0
            den = 2.0 * r2 * mu * mu
            out[..., 0] = (d0 * mu - v0 * mu_dot) / den
            out[..., 1] = (d1 * mu - v1 * mu_dot) / den
            out[..., 2] = (d2 * mu - v2 * mu_dot) / den
        elif self.kind is CurveKind.BS:
            sc = math.sqrt(c)
            w = np.sqrt(1.0 + 4.0 * c * mu * mu)
            w_dot = 4.0 * c * mu * mu_dot / w
            ch, sh = np.cosh(th), np.sinh(th)
            den = 2.0 * sc * mu * mu
            out[..., 0] = ((w_dot * ch + w * sh * th_dot) * mu - w * ch * mu_dot) / den
            out[..., 1] = ((w_dot * sh + w * ch * th_dot) * mu - w * sh * mu_dot) / den
            out[..., 2] = -mu_dot / den
        else:
            sc = math.sqrt(-c)
            w = self._bt_w(mu)
            sign = self.radial_sign(s)
            rho = sign * w / (2.0 * sc * mu)
            rho_dot = self._bt_rho_dot(s, mu, mu_dot, sc, w, sign)
            out[..., 0] = -mu_dot / (2.0 * sc * mu * mu)
            out[..., 1] = -rho_dot * np.cos(th) + rho * np.sin(th) * th_dot
            out[..., 2] = rho_dot * np.sin(th) + rho * np.cos(th) * th_dot
        return out

    def _bt_rho_dot(self, s, mu, mu_dot, sc, w, sign):
        """d rho / ds for the time-like family.

        The naive -sign mu' / (2 sc mu^2 w) degenerates to 0/0 where the
        trajectory meets the disk center (w -> 0 together with mu').  Above
        the curvature midpoint it is replaced by the algebraic form in which
        mu'^2 = mu^2 (e1-mu)(mu-e2)(mu-e3)(mu-e4) cancels the vanishing
        factor of w^2; below the midpoint (mu near e2, where that form would
        inject sqrt-of-roundoff noise instead) the naive quotient is exact.
        """
        e1, e2, e3, e4 = self.qd.roots
        naive = -sign * mu_dot / (2.0 * sc * mu * mu * np.where(w > 0.0, w, 1.0))
        if self._kappa1 is None:
            return naive
        gap = np.maximum(e1 - mu, 0.0)
        rise = np.maximum(mu - e2, 0.0)
        if self.exceptional:
            # on the locus the (e1 - mu) factor cancels identically
            quot = rise * (mu - e3) * (mu - e4) / (2.0 * sc * (1.0 + 2.0 * sc * mu))
            orient = -np.where(np.mod(np.floor(s / self.omega), 2.0) == 0.0,
                               1.0, -1.0)
        else:
            quot = gap * rise * (mu - e3) * (mu - e4) / (
                (self._kappa1 + 2.0 * sc * gap) * (1.0 + 2.0 * sc * mu)
            )
            orient = -np.sign(np.where(mu_dot != 0.0, mu_dot, 1.0))
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
            raise IntegrationError("this curve carries no dense closed-form flow")
        return self._flow

    def gamma_at(self, s):
        return self._require_flow().gamma(s)

    def tangent_at(self, s):
        return self._require_flow().gamma_and_tangent(s)[1]

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
    gam, tan, mu, mu_dot, th = flow.gamma_and_tangent(s_grid)
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
    return flow.bt_rho(s_grid, flow.states(s_grid)[0])


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
    parabolic transform).  The phase integrated along the curve flow is the
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


def upsilon_plus(lam: float, e2: float) -> float:
    """Disk height of the starting osculating arc of a space-like curve:
    1 / (2 sqrt(c) e2 + sqrt(1 + 4 c e2^2))."""
    qd = roots_from_modulus((lam, e2))
    if qd.c <= 0.0:
        raise DomainError(
            f"upsilon defined for space-like moduli (c > 0), got c={qd.c!r}"
        )
    return 1.0 / (2.0 * math.sqrt(qd.c) * e2 + math.sqrt(1.0 + 4.0 * qd.c * e2 * e2))


def upsilon_star(lam: float) -> float:
    """Limit height as the modulus approaches the saddle boundary; the level
    constant there is the separatrix level."""
    eta_m = eta_pm(lam)[0]
    c = saddle_level(lam)
    if c <= 0.0:
        raise DomainError(f"saddle level not space-like at lambda={lam!r}")
    return 1.0 / (2.0 * math.sqrt(c) * eta_m + math.sqrt(1.0 + 4.0 * c * eta_m**2))


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
    c = curve.quartic.c
    if curve.kind is CurveKind.BL:
        return np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    if curve.kind is CurveKind.BS:
        return np.array([0.0, 0.0, -math.sqrt(c)])
    return np.array([math.sqrt(-c), 0.0, 0.0])


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


def initial_frame(curve: CurveSamples) -> np.ndarray:
    """Frame (gamma, tangent, gamma X tangent) of the closed form at s = 0."""
    g0 = curve.gamma_at(np.array([0.0]))[0]
    _, t, *_ = curve._flow.gamma_and_tangent(np.array([0.0]))
    t0 = t[0]
    return np.column_stack([g0, t0, minkowski_cross(g0, t0)])


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
    """Monodromy of the standard curve: F(omega) F(0)^{-1} with the
    closed-form initial frame."""
    curve = make_curve(p, samples=16, periods=1.0)
    oracle = frenet_oracle(curve.modulus, n_periods=1.0, samples=2)
    f0 = initial_frame(curve)
    f_omega_canonical = np.column_stack([
        oracle.gamma[-1],
        oracle.tangent[-1],
        minkowski_cross(oracle.gamma[-1], oracle.tangent[-1]),
    ])
    mat = f0 @ f_omega_canonical @ lorentz_inverse(f0)
    region = curve.modulus.region
    if region is Region.L:
        kind = MonodromyClass.PARABOLIC
        parameter = mat[0, 1]
    elif region is Region.S:
        kind = MonodromyClass.HYPERBOLIC_ROTATION
        parameter = math.asinh(mat[0, 1])
    else:
        kind = MonodromyClass.ELLIPTIC_ROTATION
        tr = float(np.trace(mat))
        angle = math.acos(min(max(0.5 * (tr - 1.0), -1.0), 1.0))
        # orientation from the action on the plane orthogonal to the axis
        parameter = math.copysign(angle, -mat[1, 2])
    return Monodromy(matrix=mat, kind=kind, parameter=parameter)


def bending_energy(curve: CurveSamples, lam: float | None = None) -> float:
    """Trapezoidal estimate of the constrained bending energy
    int (sqrt(kappa) + lam) ds over the sampled range."""
    if lam is None:
        lam = curve.modulus.lam
    return bending_energy_arrays(curve.s, curve.mu, lam)


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
    sc = math.sqrt(-qd.c)
    inner = math.sqrt(max(radial_degeneracy(qd.e1, qd.e2), 0.0)) / (1.0 + 2.0 * sc * qd.e1)
    outer = math.sqrt(1.0 + 4.0 * qd.c * qd.e2**2) / (1.0 + 2.0 * sc * qd.e2)
    return inner, outer
