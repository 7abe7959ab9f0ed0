"""Curvature dynamics: the second-order equation for the Blaschke invariant,
its conservation law, the phase-plane orbit taxonomy, and its solution in
closed elliptic form: the arclength from either end of the curvature range,
its inverse, and the wavelength, twice the half period's arclength.

The Blaschke invariant mu (positive square root of the geodesic curvature)
of a critical curve satisfies

    mu'' = 2 mu'^2 / mu - mu - 2 lam mu^4 - mu^5,
    mu'^2 = -mu^2 Q(mu),      Q(x) = x^4 + 4 lam x^3 + 4 (lam^2 - c) x^2 - 1,

so the phase curves are strata of the singular elliptic curve
y^2 + x^2 Q(x) = 0 in the half-plane x > 0.

scipy.special is imported with the module; scipy.integrate is not.
:func:`solve_ivp` imports it on the first integration, which only the
Frenet oracle makes.  Root solves run on ``brentq`` from :mod:`moduli`,
which needs no scipy subpackage.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipj, elliprf, elliprj

from . import ellint
from .errors import DomainError, IntegrationError
from .moduli import (
    LAMBDA_CRITICAL,
    ModulusPoint,
    QuarticData,
    Region,
    _sqrt,
    brentq,
    eta_pm,
    exceptional_residual,
    quartic_value,
    resolve,
)

__all__ = [
    "OrbitKind",
    "MuSolution",
    "phase_field",
    "mu_acceleration",
    "conserved_level",
    "saddle_level",
    "m_star",
    "classify_orbit",
    "solve_mu",
    "wavelength",
    "wavelength_quadrature",
    "elliptic_arguments",
    "h_inverse",
    "signature",
    "linearized_center_period",
    "constant_curvature_census",
    "invert_by_bisection",
]

_DEGENERATE_GAP = 1e-12

# the band on the conserved level within which classify_orbit tags
# equilibria and separatrices; the error target of the wavelength quadrature
_LEVEL_TOL = 1e-10
_QUAD_TOL = 1e-12

_NO_FLOW = "the constant solution carries no curvature flow"


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, with every argument forwarded.  scipy.integrate
    is imported on the first integration: only the Frenet oracle integrates,
    through curvegen's module-global binding of this name."""
    from scipy.integrate import solve_ivp as solve

    return solve(*args, **kwargs)


class OrbitKind(enum.Enum):
    """Orbit taxonomy of the curvature phase portrait."""

    STABLE_EQUILIBRIUM = "stable-equilibrium"
    UNSTABLE_EQUILIBRIUM = "unstable-equilibrium"
    CLOSED = "closed"
    NONCLOSED_FIRST_KIND = "nonclosed-first-kind"
    NONCLOSED_SECOND_KIND = "nonclosed-second-kind"
    EXCEPTIONAL_FIRST_KIND = "exceptional-first-kind"
    EXCEPTIONAL_SECOND_KIND = "exceptional-second-kind"


@dataclass(frozen=True)
class MuSolution:
    """Sampled solution of the curvature dynamics over ``n_periods``
    wavelengths, starting from the minimum mu(0) = e2, mu'(0) = 0."""

    modulus: ModulusPoint
    s: np.ndarray
    mu: np.ndarray
    mu_dot: np.ndarray
    wavelength: float
    quartic: QuarticData
    _flow: object = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        for arr in (self.s, self.mu, self.mu_dot):
            arr.flags.writeable = False

    def at(self, s):
        """(mu, mu_dot) at arbitrary arclength, in closed form
        (:func:`_periodic_states`)."""
        if self._flow is None:
            raise IntegrationError(_NO_FLOW)
        out = self._flow(s)
        return out[0], out[1]

    def conservation_residual(self) -> float:
        """max |mu'^2 + mu^2 Q(mu)| over the stored samples."""
        lam = self.modulus.lam
        q = quartic_value(lam, self.quartic.c, self.mu)
        return float(np.max(np.abs(self.mu_dot**2 + self.mu**2 * q)))


def phase_field(lam: float, x: float, y: float) -> tuple[float, float]:
    """The phase-plane vector field of the curvature dynamics at (x, y)."""
    if x <= 0.0:
        raise DomainError(f"phase field defined on x > 0 only, got x={x!r}")
    return (y, mu_acceleration(lam, x, y))


def mu_acceleration(lam: float, x: float, y: float) -> float:
    """mu'' as a function of (mu, mu')."""
    return 2.0 * y * y / x - x - 2.0 * lam * x**4 - x**5


def conserved_level(lam: float, x: float, y: float) -> float:
    """Causal constant c of the level set through (x, y)."""
    if x <= 0.0:
        raise DomainError(f"levels defined on x > 0 only, got x={x!r}")
    return lam * lam + (x**4 + 4.0 * lam * x**3 - 1.0 + (y / x) ** 2) / (4.0 * x * x)


def saddle_level(lam: float) -> float:
    """Level value of the separatrix through the saddle (eta-, 0)."""
    return conserved_level(lam, eta_pm(lam)[0], 0.0)


def _real_level_roots(lam: float, c: float) -> list[float]:
    """Real roots of the level quartic Q(x) at level c, ascending."""
    roots = np.roots([1.0, 4.0 * lam, 4.0 * (lam * lam - c), 0.0, -1.0])
    return sorted(r.real for r in roots if abs(r.imag) <= 1e-7 * max(1.0, abs(r)))


def m_star(lam: float) -> float:
    """Crossing height of the separatrix loop beyond the center: the unique
    root of the separatrix-level quartic above eta+."""
    c = saddle_level(lam)
    eta_p = eta_pm(lam)[1]
    candidates = [r for r in _real_level_roots(lam, c) if r > eta_p]
    if not candidates:
        raise DomainError(f"no separatrix crossing above the center at lambda={lam!r}")
    x = candidates[-1]
    for _ in range(3):
        f = quartic_value(lam, c, x)
        fp = 4.0 * x**3 + 12.0 * lam * x**2 + 8.0 * (lam * lam - c) * x
        x -= f / fp
    return x


def classify_orbit(lam: float, x0: float, y0: float) -> OrbitKind:
    """Orbit type of the phase curve through (x0, y0).

    Equilibria and separatrices are tagged within 1e-10 on the conserved
    level value.  Above the critical multiplier no equilibria exist and every
    orbit is of a non-closed kind.
    """
    if x0 <= 0.0:
        raise DomainError(f"orbits live in x > 0, got x0={x0!r}")
    c = conserved_level(lam, x0, y0)
    if lam < LAMBDA_CRITICAL:
        eta_m, eta_p = eta_pm(lam)
        if abs(c - saddle_level(lam)) <= _LEVEL_TOL:
            if abs(x0 - eta_m) <= 1e-6 and abs(y0) <= 1e-6:
                return OrbitKind.UNSTABLE_EQUILIBRIUM
            if x0 > eta_m:
                return OrbitKind.EXCEPTIONAL_FIRST_KIND
            return OrbitKind.EXCEPTIONAL_SECOND_KIND
        if abs(c - conserved_level(lam, eta_p, 0.0)) <= _LEVEL_TOL and x0 > eta_m:
            return OrbitKind.STABLE_EQUILIBRIUM
    real = _real_level_roots(lam, c)[::-1]
    if len(real) == 4 and real[2] > 0.0 > real[3]:
        e1, e2 = real[0], real[1]
        if e2 - 1e-9 <= x0 <= e1 + 1e-9:
            return OrbitKind.CLOSED
        return OrbitKind.NONCLOSED_SECOND_KIND
    # two real roots: the orbit runs from the origin out to the largest
    # positive root; it is of the second kind when it stays below the saddle
    if lam < LAMBDA_CRITICAL and real and max(real) < eta_pm(lam)[0]:
        return OrbitKind.NONCLOSED_SECOND_KIND
    return OrbitKind.NONCLOSED_FIRST_KIND


def _interior(p) -> ModulusPoint:
    point = resolve(p)
    if not point.in_moduli_space:
        raise DomainError(f"{point!r} is not in the moduli space")
    return point


# ---------------------------------------------------------------------------
# the curvature in closed form
# ---------------------------------------------------------------------------
#
# On the rising half period mu runs from e2 to e1 and u = F(amplitude) from
# 0 to K.  Two substitutions write mu = (r - p q S)/(1 - p S) in S = sin^2 of
# an amplitude, and the arclength to mu as (g/r) sqrt(S) (R_F(C, D, 1) +
# kappa S R_J(C, D, 1, 1 - n S)), C = cos^2, D = 1 - m S (m and g of
# :func:`elliptic_arguments`): from the minimum (Byrd & Friedman 256.00) r =
# e2, p = alpha^2 = (e1 - e2)/(e1 - e3), q = e3, n = alpha^2 e3/e2, kappa =
# -alpha^2 (e2 - e3)/(3 e2); from the top (257.00, the period map's and at
# (1, 0) the wavelength's) r = e1, p = a = (e2 - e1)/(e2 - e4), q = e4, n = a
# e4/e1, kappa = (n - a)/3.  Each side takes its half of u, where D >= sqrt(1
# - m), so neither loses digits as m -> 1 next to the separatrix.  A height
# on the lower side has the top amplitude sin^2 = C/D, cos^2 = (1 - m) S/D.

_TABLE_NODES = 33
_NEWTON_STEPS = 2
# heights on the half period are keyed to this binary fraction of omega
_FOLD_SCALE = 2.0**48


def _arclength(scale, m, kappa, n, S, C):
    """scale sqrt(S) (R_F(C, D, 1) + kappa S R_J(C, D, 1, 1 - n S)), D = 1 - m S."""
    d2 = 1.0 - m * S
    return scale * np.sqrt(S) * (
        elliprf(C, d2, 1.0) + kappa * S * elliprj(C, d2, 1.0, 1.0 - n * S))


class _RisingBranch:
    """mu, |mu'| and the top amplitude on the rising half period [0, omega/2]
    of one curvature orbit.  Each side solves its arclength for the
    amplitude: a cubic Hermite seed from _TABLE_NODES amplitudes at equal
    steps of u on [0, K/2] (tabulated on first use), then Newton steps."""

    def __init__(self, qd: QuarticData, omega: float):
        e1, e2, e3, e4 = qd.roots
        a, self.m, n_top, self.g = elliptic_arguments(qd)
        alpha2 = (e1 - e2) / (e1 - e3)
        # per side, lower then upper
        self.r, self.p, self.one_minus_p, self.q, self.n, self.kappa = np.array([
            [e2, e1], [alpha2, a], [(e2 - e3) / (e1 - e3), (e1 - e4) / (e2 - e4)],
            [e3, e4], [alpha2 * e3 / e2, n_top],
            [-alpha2 * (e2 - e3) / (3.0 * e2), (n_top - a) / 3.0]])
        self.omega = omega

    @functools.cached_property
    def _seed(self):
        u = np.linspace(0.0, 0.5 * ellint.complete_K(self.m), _TABLE_NODES)
        sn, cn, _, phi = ellipj(u, self.m)
        S, C = sn * sn, cn * cn
        return (phi, np.array([self.sigma(side, S, C) for side in (0, 1)]),
                np.array([self._dphi(side, S, C) for side in (0, 1)]))

    def sigma(self, side, S, C):
        """Arclength from the side's end of the range (0 the minimum, 1 the
        top; or an array of sides) to the amplitude (S, C) = (sin^2, cos^2)."""
        return _arclength(self.g / self.r[side], self.m, self.kappa[side],
                          self.n[side], S, C)

    def _mu(self, side, S, C):
        p = self.p[side]
        den = self.one_minus_p[side] + p * C
        return (self.r[side] - p * self.q[side] * S) / den, den

    def _dphi(self, side, S, C):
        # d amplitude / d sigma = mu Delta / g
        return self._mu(side, S, C)[0] * np.sqrt(1.0 - self.m * S) / self.g

    def _amplitude(self, side, target):
        # (S, C) on one side where its arclength is the target
        nodes, table, slope = self._seed
        i = np.where(side, np.searchsorted(table[1], target),
                     np.searchsorted(table[0], target)) - 1
        np.clip(i, 0, _TABLE_NODES - 2, out=i)
        lo, width = table[side, i], table[side, i + 1] - table[side, i]
        t = (target - lo) / width
        t2 = t * t
        phi = (nodes[i] * ((2.0 * t - 3.0) * t2 + 1.0)
               + nodes[i + 1] * ((3.0 - 2.0 * t) * t2)
               + width * slope[side, i] * (((t - 2.0) * t + 1.0) * t)
               + width * slope[side, i + 1] * ((t - 1.0) * t2))
        for _ in range(_NEWTON_STEPS):
            S, C = np.sin(phi) ** 2, np.cos(phi) ** 2
            phi = phi - (self.sigma(side, S, C) - target) * self._dphi(side, S, C)
            np.clip(phi, 0.0, 0.5 * math.pi, out=phi)
        return np.sin(phi) ** 2, np.cos(phi) ** 2

    def gap(self, S):
        """e1 - mu at the top amplitude sin^2 phi = S, to full relative
        accuracy where the rounding of mu next to e1 is not: mu = (e1 - a e4
        S)/(1 - a S) on the top side."""
        a = self.p[1]
        return -a * (self.r[1] - self.q[1]) * S / (1.0 - a * S)

    def at(self, h):
        """(mu, |mu'|, sin^2 phi, cos^2 phi) at the heights h in [0, omega/2],
        phi the top amplitude; mu' = (d mu/d amplitude)/(d sigma/d
        amplitude) vanishes exactly at both turning points."""
        side = (h > self._seed[1][0][-1]).astype(np.intp)
        S, C = self._amplitude(side, np.where(side, 0.5 * self.omega - h, h))
        mu, den = self._mu(side, S, C)
        d2 = 1.0 - self.m * S
        rise = 2.0 * np.abs(self.p[side]) * (self.r[side] - self.q[side])
        mu_dot = rise * np.sqrt(S * C) * mu * np.sqrt(d2) / (self.g * den * den)
        return (mu, mu_dot, np.where(side, S, C / d2),
                np.where(side, C, (1.0 - self.m) * S / d2))


def _periodic_states(branch: _RisingBranch, phase=None):
    """s -> rows (mu, mu'[, Theta]) of an orbit from its minimum.  s > 0 folds
    onto (0, omega] and s <= 0 onto [0, omega), so a positive multiple of
    omega reads the end state; the height left is keyed to a multiple of
    omega/_FOLD_SCALE (moving mu by at most max|mu'| omega/2^49), the falling
    half period onto the rising one, and the branch evaluated once per key.
    ``phase(S, C)`` is the phase from the top of the range to the top
    amplitude (S, C); from the minimum it is phase(1, 0) less that, and it
    advances by 2 phase(1, 0) per period.  ``states(s, gap=True)`` appends
    the row e1 - mu (:meth:`_RisingBranch.gap`)."""
    omega = branch.omega
    half = None if phase is None else phase(np.ones(1), np.zeros(1))[0]

    def states(s, gap=False):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        k = np.where(s > 0.0, np.ceil(s / omega) - 1.0, np.floor(s / omega))
        key = np.rint((s - k * omega) / omega * _FOLD_SCALE)
        fall = key > 0.5 * _FOLD_SCALE
        key = np.where(fall, _FOLD_SCALE - key, key)
        keys, where = np.unique(key, return_inverse=True)
        mu, mu_dot, S, C = branch.at(keys * (omega / _FOLD_SCALE))
        mu_dot = mu_dot[where]
        rows = [mu[where], np.where(fall, 0.0 - mu_dot, mu_dot)]
        if phase is not None:
            theta = (half - phase(S, C))[where]
            rows.append(np.where(fall, 2.0 * half - theta, theta)
                        + k * (2.0 * half))
        if gap:
            rows.append(branch.gap(S)[where])
        return np.array(rows)

    return states


def solve_mu(p, n_periods: float = 1.0, samples_per_period: int = 2048,
             residual_tol: float = 1e-13) -> MuSolution:
    """The curvature dynamics from the orbit minimum over ``n_periods``
    wavelengths, in closed form.

    ``residual_tol`` bounds the conservation residual relative to the
    largest sum of magnitudes of its terms, max(mu'^2 + mu^2 (mu^4 +
    4 |lam| mu^3 + 4 |lam^2 - c| mu^2 + 1)); the solution is refused above
    it.

    Inputs within 1e-12 of an equilibrium height return the constant
    solution explicitly: at the center the amplitude vanishes, at the saddle
    the period diverges.
    """
    point = resolve(p)
    if point.region is Region.OUTSIDE:
        raise DomainError(f"{point!r} is not in the moduli space")
    lam, e2 = point.lam, point.e2
    eta_m, eta_p = eta_pm(lam)
    n_samples = max(int(round(samples_per_period * n_periods)), 2)
    on_boundary = point.region in (Region.BOUNDARY_MINUS, Region.BOUNDARY_PLUS)
    degenerate = (abs(e2 - eta_p) <= _DEGENERATE_GAP
                  or abs(e2 - eta_m) <= _DEGENERATE_GAP)
    if on_boundary or degenerate:
        eta = eta_p if abs(e2 - eta_p) <= abs(e2 - eta_m) else eta_m
        period = linearized_center_period(lam) if eta == eta_p else math.inf
        s_end = n_periods * (period if math.isfinite(period) else 1.0)
        s = np.linspace(0.0, s_end, n_samples + 1)
        c = conserved_level(lam, eta, 0.0)
        qd = QuarticData(eta, eta, eta, eta, c, exceptional_residual(eta, eta))
        return MuSolution(point, s, np.full_like(s, eta), np.zeros_like(s),
                          period, qd)
    omega = wavelength(point)
    flow = _periodic_states(_RisingBranch(point.quartic, omega))
    s = np.linspace(0.0, n_periods * omega, n_samples + 1)
    states = flow(s)
    out = MuSolution(point, s, states[0], states[1], omega, point.quartic,
                     _flow=flow)
    # the residual in the units of the terms that it cancels, which grow
    # like mu^6: at far multipliers its rounding alone exceeds any absolute
    # budget
    mu2 = out.mu * out.mu
    scale = float(np.max(out.mu_dot**2 + mu2 * (
        mu2 * mu2 + 4.0 * abs(lam) * mu2 * out.mu
        + 4.0 * abs(lam * lam - point.quartic.c) * mu2 + 1.0)))
    resid = out.conservation_residual() / scale
    if resid > residual_tol:
        raise IntegrationError(
            f"conservation residual {resid:.3e} of its terms' scale "
            f"{scale:.3e} exceeds the {residual_tol:.1e} budget"
        )
    return out


def linearized_center_period(lam: float) -> float:
    """Small-oscillation period about the center: 2 pi / sqrt(eta+^4 - 3)."""
    eta = eta_pm(lam)[1]
    return 2.0 * math.pi / math.sqrt(eta**4 - 3.0)


def constant_curvature_census(lam: float) -> int:
    """Number of equivalence classes of closed constant-curvature critical
    curves at multiplier lam: 0 above the critical multiplier, 1 at it, 2 in
    (-1, critical), and 1 for lam <= -1 (the saddle height drops to
    curvature <= 1 there and its circle opens up)."""
    if lam > LAMBDA_CRITICAL:
        return 0
    if lam > LAMBDA_CRITICAL - 1e-13:
        return 1
    eta_m, eta_p = eta_pm(lam)
    return sum(1 for eta in (eta_m, eta_p) if eta > 1.0 + 1e-12)


def elliptic_arguments(qd: QuarticData) -> tuple[float, float, float, float]:
    """(a, m, n, g) of the arclength from the top; floats or arrays."""
    e1, e2, _, e4 = qd.roots
    m, g = _parameter_and_scale(qd)
    a = (e2 - e1) / (e2 - e4)
    n = e4 * a / e1
    return a, m, n, g


def _parameter_and_scale(qd: QuarticData):
    """The parameter m and the scale g = 2/sqrt((e1 - e3)(e2 - e4)) shared
    by the wavelength and period-map forms; floats or arrays."""
    e1, e2, e3, e4 = qd.roots
    spread = (e1 - e3) * (e2 - e4)
    return ((e1 - e2) * (e3 - e4)) / spread, 2.0 / _sqrt(spread)


def wavelength(p) -> float:
    """Least period of the curvature, (2g/e1)(K(m) + ((n - a)/3) R_J(0, 1 -
    m, 1, 1 - n)): twice the arclength from the top of the range over the
    half period (Byrd & Friedman 257.00), whose terms are positive from the
    center out to far multipliers.  The tests hold it to a 40-digit
    quadrature.  DomainError where it is not a positive finite float."""
    point = _interior(p)
    qd = point.quartic
    a, m, n, g = elliptic_arguments(qd)
    value = 2.0 * float(_arclength(g / qd.e1, m, (n - a) / 3.0, n, 1.0, 0.0))
    if not 0.0 < value < math.inf:
        raise DomainError(f"the wavelength at ({point.lam!r}, {point.e2!r}) "
                          f"is {value!r}, not a positive finite float")
    return value


def wavelength_quadrature(p) -> float:
    """Independent wavelength evaluation by singular-endpoint quadrature."""
    e1, e2v, e3, e4 = _interior(p).quartic.roots

    def smooth(x):
        return 1.0 / (x * np.sqrt((x - e3) * (x - e4)))

    return 2.0 * ellint.quad_oracle(smooth, e2v, e1, _QUAD_TOL, singular=(-0.5, -0.5))


def h_inverse(p, mu) -> float:
    """Arclength h(mu) in [0, omega/2] at which the rising curvature branch
    reaches the value mu; h(e2) = 0 and h(e1) = omega/2.  It is the
    arclength from the minimum that :func:`solve_mu` inverts."""
    point = _interior(p)
    qd = point.quartic
    e1, e2v, e3, _ = qd.roots
    if not e2v - 1e-12 <= mu <= e1 + 1e-12:
        raise DomainError(f"mu={mu!r} outside the curvature range [{e2v}, {e1}]")
    mu = min(max(mu, e2v), e1)
    # the amplitude from the minimum, both ends without cancellation
    den = (e1 - e2v) * (mu - e3)
    S = (e1 - e3) * (mu - e2v) / den
    C = (e2v - e3) * (e1 - mu) / den
    return float(_RisingBranch(qd, wavelength(point)).sigma(0, S, C))


def signature(p, n: int = 512) -> np.ndarray:
    """n samples of the modified invariant signature (mu, mu') over one
    period: a closed loop on the singular elliptic curve y^2 + x^2 Q(x) = 0."""
    sol = solve_mu(p, n_periods=1.0, samples_per_period=max(int(n), 16))
    if sol._flow is None:
        # before sampling: at the saddle the wavelength is infinite
        raise IntegrationError(_NO_FLOW)
    s = np.linspace(0.0, sol.wavelength, int(n), endpoint=False)
    mu, mu_dot = sol.at(s)
    return np.column_stack([mu, mu_dot])


def invert_by_bisection(sol: MuSolution, mu: float) -> float:
    """Oracle inversion of the rising branch by bisection on the closed form."""
    omega = sol.wavelength

    def f(s):
        return float(sol.at(s)[0][0]) - mu

    return brentq(f, 0.0, 0.5 * omega, xtol=1e-13)
