"""Curvature dynamics: the second-order equation for the Blaschke invariant,
its conservation law, the phase-plane orbit taxonomy, the DOP853 integrator
of its flows, wavelength evaluation (closed elliptic form cross-checked by
quadrature), and the inverse of the rising half-period.

The Blaschke invariant mu (positive square root of the geodesic curvature)
of a critical curve satisfies

    mu'' = 2 mu'^2 / mu - mu - 2 lam mu^4 - mu^5,
    mu'^2 = -mu^2 Q(mu),      Q(x) = x^4 + 4 lam x^3 + 4 (lam^2 - c) x^2 - 1,

so the phase curves are strata of the singular elliptic curve
y^2 + x^2 Q(x) = 0 in the half-plane x > 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.integrate import DOP853
# Not called in this module: bench/tracing.py wraps ``dynamics.solve_ivp`` and
# ``curvegen.solve_ivp`` as its ode layer, so the name stays importable here.
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import brentq

from . import ellint
from .errors import DomainError, IntegrationError
from .moduli import (
    LAMBDA_CRITICAL,
    ModulusPoint,
    QuarticData,
    Region,
    _sqrt,
    eta_pm,
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

# DOP853 tolerances: absolute for every flow, relative for solve_mu's; the
# band on the conserved level within which classify_orbit tags equilibria and
# separatrices; the error target of the wavelength quadrature
_FLOW_ATOL = 1e-14
_MU_RTOL = 3e-14
_LEVEL_TOL = 1e-10
_QUAD_TOL = 1e-12


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
        """(mu, mu_dot) at arbitrary arclength: the dense output of the one
        integrated period, extended by periodicity (:func:`_periodic_flow`)."""
        if self._flow is None:
            raise IntegrationError("constant solution has no dense output")
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
# DOP853 on Python floats
# ---------------------------------------------------------------------------
#
# The Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.10) with scipy's step control, as written in its
# select_initial_step, RungeKutta._step_impl and DOP853._estimate_error_norm,
# and with scipy's dense output (Dop853DenseOutput, OdeSolution).  The
# tableau is read from scipy's DOP853 class.  A state is a tuple of 2 or 3
# Python floats, and the right-hand side rhs(s, state) returns one; the stage
# sums are unpacked per state size and added left to right, so the same
# floats come out on every interpreter and BLAS.  The sums differ from
# scipy's np.dot in rounding only: the tests hold the accepted steps and the
# right-hand-side count to scipy's.


def _terms(row) -> tuple[tuple[float, int], ...]:
    """(coefficient, stage) pairs of the nonzero entries of a tableau row."""
    return tuple((float(a), j) for j, a in enumerate(row) if a != 0.0)


_STAGES = tuple((float(c), _terms(a[:s])) for s, (a, c) in
                enumerate(zip(DOP853.A[1:], DOP853.C[1:]), start=1))
_EXTRA_STAGES = tuple((float(c), _terms(a[:s])) for s, (a, c) in
                      enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA),
                                start=DOP853.n_stages + 1))
_B = _terms(DOP853.B)
_E5 = _terms(DOP853.E5)
_E3 = _terms(DOP853.E3)
_D = tuple(_terms(row) for row in DOP853.D)
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def _combine2(y, h, k, terms):
    """y + (sum of a k[j] over the (a, j) terms) h for a 2-state."""
    s0 = s1 = 0.0
    for a, j in terms:
        k0, k1 = k[j]
        s0 += a * k0
        s1 += a * k1
    y0, y1 = y
    return (y0 + s0 * h, y1 + s1 * h)


def _combine3(y, h, k, terms):
    """y + (sum of a k[j] over the (a, j) terms) h for a 3-state."""
    s0 = s1 = s2 = 0.0
    for a, j in terms:
        k0, k1, k2 = k[j]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
    y0, y1, y2 = y
    return (y0 + s0 * h, y1 + s1 * h, y2 + s2 * h)


_COMBINE = {2: _combine2, 3: _combine3}


def _rms(v, scale) -> float:
    """RMS norm of v / scale."""
    acc = 0.0
    for x, w in zip(v, scale):
        x /= w
        acc += x * x
    return math.sqrt(acc) / len(v) ** 0.5


def _initial_step(rhs, y0, f0, t_end: float, rtol: float,
                  max_step: float) -> float:
    """scipy's select_initial_step for an integration forward from s = 0."""
    scale = [_FLOW_ATOL + abs(v) * rtol for v in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, tuple(v + h0 * f for v, f in zip(y0, f0)))
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        # max(d1, d2) is 0 only where d2 is NaN; numpy's quotient is inf there
        d = max(d1, d2)
        h1 = (0.01 / d) ** -_ERROR_EXPONENT if d else math.inf
    return min(100.0 * h0, h1, t_end, max_step)


class _Dop853Run(NamedTuple):
    """One integration over [0, ts[-1]]: the step boundaries ``ts``, and per
    step its start state ``y_old`` (n, steps) and the coefficients ``F``
    (7, n, steps) of its dense-output polynomial; ``nfev`` right-hand-side
    evaluations."""

    ts: np.ndarray
    y_old: np.ndarray
    F: np.ndarray
    nfev: int


def _dop853(rhs, y0, t_end: float, rtol: float, max_step: float) -> _Dop853Run:
    """Integrate the autonomous flow rhs(s, state) from y0 over [0, t_end]
    (t_end > 0) at absolute tolerance _FLOW_ATOL; IntegrationError where
    scipy's solver would report failure (the step falls below ten ulps of s,
    as where the right-hand side turns NaN)."""
    n = len(y0)
    combine = _COMBINE[n]
    zero = (0.0,) * n
    atol = _FLOW_ATOL
    y = tuple(map(float, y0))
    f = rhs(0.0, y)
    h_abs = _initial_step(rhs, y, f, t_end, rtol, max_step)
    nfev = 2
    t = 0.0
    ts = [t]
    starts = []
    coefficients = []
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            # a NaN step size fails here too, where scipy's loop would not end
            if not h_abs >= min_step:
                raise IntegrationError(
                    f"curvature flow failed: step size {h_abs:.3e} under the "
                    f"minimum {min_step:.3e} at s={t!r}"
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            k = [f]
            for c, terms in _STAGES:
                k.append(rhs(t + c * h, combine(y, h, k, terms)))
            y_new = combine(y, h, k, _B)
            f_new = rhs(t + h, y_new)
            k.append(f_new)
            nfev += len(_STAGES) + 1
            e5 = e3 = 0.0
            for a, b, d5, d3 in zip(y, y_new, combine(zero, 1.0, k, _E5),
                                    combine(zero, 1.0, k, _E3)):
                scale = atol + max(abs(a), abs(b)) * rtol
                d5 /= scale
                d3 /= scale
                e5 += d5 * d5
                e3 += d3 * d3
            if e5 == 0.0 and e3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        # the dense output of the accepted step, as Dop853DenseOutput's F
        for c, terms in _EXTRA_STAGES:
            k.append(rhs(t + c * h, combine(y, h, k, terms)))
        nfev += len(_EXTRA_STAGES)
        delta = tuple(b - a for a, b in zip(y, y_new))
        coefficients.append(delta)
        coefficients.append(tuple(h * a - d for a, d in zip(f, delta)))
        coefficients.append(tuple(2.0 * d - h * (b + a)
                                  for d, a, b in zip(delta, f, f_new)))
        coefficients.extend(combine(zero, h, k, terms) for terms in _D)
        starts.append(y)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
    F = np.array(coefficients).reshape(len(starts), 3 + len(_D), n)
    return _Dop853Run(np.array(ts), np.array(starts).T.copy(),
                      F.transpose(1, 2, 0).copy(), nfev)


def _dense_values(run: _Dop853Run, t: np.ndarray) -> np.ndarray:
    """States (one row per component) at the 1-D array t: OdeSolution's
    segment choice and Dop853DenseOutput's Horner order, in one numpy pass
    over all samples, so that scipy's own interpolant data give its values
    bit for bit."""
    ts = run.ts
    seg = np.searchsorted(ts, t, side="left") - 1
    np.clip(seg, 0, len(ts) - 2, out=seg)
    t_old = ts[seg]
    x = (t - t_old) / (ts[seg + 1] - t_old)
    one_minus_x = 1 - x
    F = run.F[:, :, seg]
    y = np.zeros(F.shape[1:])
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else one_minus_x
    y += run.y_old[:, seg]
    return y


def _periodic_flow(rhs, y0, omega: float, rtol: float):
    """s -> states (one row per component) of a flow from the orbit minimum,
    integrated once over [0, omega]: (mu, mu') repeat and every further
    component (the phase) advances by its value at omega per period.  s > 0
    folds onto (0, omega], so a positive multiple of omega reads the end
    state; s <= 0 folds onto [0, omega).  The step cap keeps the dense-output
    error below the conservation and momentum budgets."""
    run = _dop853(rhs, y0, omega, rtol, omega / 64.0)
    advance = _dense_values(run, np.array([omega]))[2:]

    def states(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        k = np.where(s > 0.0, np.ceil(s / omega) - 1.0, np.floor(s / omega))
        out = _dense_values(run, s - k * omega)
        out[2:] += k * advance
        return out

    return states


def solve_mu(p, n_periods: float = 1.0, samples_per_period: int = 2048,
             residual_tol: float = 1e-8) -> MuSolution:
    """The curvature dynamics from the orbit minimum over ``n_periods``
    wavelengths: one period integrated, extended by periodicity.

    Inputs within 1e-12 of an equilibrium height return the constant
    solution explicitly: at the center the amplitude vanishes, at the saddle
    the period diverges, and integration would be meaningless either way.
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
        qd = QuarticData(e1=eta, e2=eta, e3=eta, e4=eta, c=c)
        return MuSolution(point, s, np.full_like(s, eta), np.zeros_like(s),
                          period, qd)
    omega = wavelength(point)

    def rhs(_s, state):
        x, y = state
        return (y, mu_acceleration(lam, x, y))

    flow = _periodic_flow(rhs, (e2, 0.0), omega, _MU_RTOL)
    s = np.linspace(0.0, n_periods * omega, n_samples + 1)
    states = flow(s)
    out = MuSolution(point, s, states[0], states[1], omega, point.quartic,
                     _flow=flow)
    resid = out.conservation_residual()
    if resid > residual_tol:
        raise IntegrationError(
            f"conservation residual {resid:.3e} exceeds the {residual_tol:.1e} budget"
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
    """The (a, m, n, g) arguments of the complete-elliptic wavelength form;
    floats or arrays."""
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
    """Least period of the curvature, in closed elliptic form.

    Equals twice the quadrature of dx / (x sqrt(-Q(x))) over [e2, e1]; the
    equality is enforced by the test suite against the tanh-sinh oracle.
    DomainError where the value is not a positive finite float, as at far
    multipliers, where it underflows to 0.
    """
    point = _interior(p)
    qd = point.quartic
    if qd.e1 - qd.e2 < 1e-10:
        value = linearized_center_period(point.lam)
    else:
        a, m, n, g = elliptic_arguments(qd)
        k, pi_n = ellint.complete_K_Pi(m, n)
        value = float((2.0 * g / qd.e1) * ((a / n) * k - ((a - n) / n) * pi_n))
    if not 0.0 < value < math.inf:
        raise DomainError(
            f"the wavelength at ({point.lam!r}, {point.e2!r}) is {value!r}, "
            "not a positive finite float"
        )
    return value


def wavelength_quadrature(p) -> float:
    """Independent wavelength evaluation by singular-endpoint quadrature."""
    e1, e2v, e3, e4 = _interior(p).quartic.roots

    def smooth(x):
        return 1.0 / (x * np.sqrt((x - e3) * (x - e4)))

    return 2.0 * ellint.quad_oracle(smooth, e2v, e1, _QUAD_TOL, singular=(-0.5, -0.5))


def h_inverse(p, mu) -> float:
    """Arclength h(mu) in [0, omega/2] at which the rising curvature branch
    reaches the value mu; h(e2) = 0 and h(e1) = omega/2."""
    point = _interior(p)
    qd = point.quartic
    e1, e2v, _, e4 = qd.roots
    if not e2v - 1e-12 <= mu <= e1 + 1e-12:
        raise DomainError(f"mu={mu!r} outside the curvature range [{e2v}, {e1}]")
    mu = min(max(mu, e2v), e1)
    a, m, n, g = elliptic_arguments(qd)
    omega = wavelength(point)
    ratio = ((e2v - e4) * (e1 - mu)) / ((e1 - e2v) * (mu - e4))
    # sn(u, m) = sqrt(ratio), and am(F(phi, m), m) = phi
    phi = math.asin(math.sqrt(min(max(ratio, 0.0), 1.0)))
    u = ellint.incomplete_F(phi, m)
    return 0.5 * omega - (g / e1) * (
        (a / n) * u - ((a - n) / n) * ellint.incomplete_Pi(n, phi, m)
    )


def signature(p, n: int = 512) -> np.ndarray:
    """n samples of the modified invariant signature (mu, mu') over one
    period: a closed loop on the singular elliptic curve y^2 + x^2 Q(x) = 0."""
    sol = solve_mu(p, n_periods=1.0, samples_per_period=max(int(n), 16))
    s = np.linspace(0.0, sol.wavelength, int(n), endpoint=False)
    mu, mu_dot = sol.at(s)
    return np.column_stack([mu, mu_dot])


def invert_by_bisection(sol: MuSolution, mu: float) -> float:
    """Oracle inversion of the rising branch by bisection on the dense output."""
    omega = sol.wavelength

    def f(s):
        return float(sol.at(s)[0][0]) - mu

    return brentq(f, 0.0, 0.5 * omega, xtol=1e-13)
