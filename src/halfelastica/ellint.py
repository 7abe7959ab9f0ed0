"""Special-function kernel: complete and incomplete elliptic integrals of the
first, second and third kind, and a tanh-sinh quadrature oracle.

The Legendre-form integrals are evaluated through Carlson's symmetric forms
R_F, R_C, R_D and R_J, scipy's ufuncs ``scipy.special.elliprf`` and so on
(B. C. Carlson, "Numerical computation of real or complex elliptic
integrals", Numer. Algorithms 10, 1995).  K and Pi, and F, E and Pi at
whole arrays of amplitudes, accept arrays as well as floats, so a slice of
the period map or a sampled curve is one call.  The convention throughout is

    K(m)        = int_0^{pi/2} dt / sqrt(1 - m sin^2 t),          0 <= m < 1,
    E(m)        = int_0^{pi/2} sqrt(1 - m sin^2 t) dt,            0 <= m <= 1,
    Pi(n, m)    = int_0^{pi/2} dt / ((1 - n sin^2 t) sqrt(1 - m sin^2 t)),
    Pi(n,phi,m) = the same with upper limit phi,                  n < 1.

The kernels need no separate form as m -> 1: against 40-digit mpmath they
keep K and E within 1e-14 relative down to 1 - m = 2^-52.  Only E(1) = 1 is
taken exactly, because the Carlson form R_F - (m/3) R_D is inf - inf there.

The quadrature oracle is the independent reference used by the test suite to
validate every closed form in the package.  It supports integrable endpoint
singularities of inverse-square-root type through the ``singular`` weight
option, in which case the singular factors are evaluated from exact node
distances to the endpoints (never by cancellation-prone subtraction).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import elliprc, elliprd, elliprf, elliprj

from .errors import DomainError, QuadratureError

__all__ = [
    "complete_K",
    "complete_E",
    "complete_Pi",
    "complete_K_Pi",
    "incomplete_F",
    "incomplete_Pi",
    "incomplete_F_Pi",
    "incomplete_E",
    "quad_oracle",
]

def _all(ok) -> bool:
    # np.all costs microseconds on a plain or numpy bool
    return bool(ok) if isinstance(ok, (bool, np.bool_)) else bool(ok.all())


def _check_m(m, allow_one: bool = False) -> None:
    hi_ok = m <= 1.0 if allow_one else m < 1.0
    if not _all((0.0 <= m) & hi_ok):
        raise DomainError(f"parameter m={m!r} outside the supported range")


def _check_n(n) -> None:
    if not _all(n < 1.0):
        raise DomainError(f"characteristic n={n!r} must be < 1")


def complete_K(m):
    """Complete elliptic integral of the first kind; m may be an array."""
    return complete_K_Pi(m)[0]


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind, 0 <= m <= 1."""
    _check_m(m, allow_one=True)
    if m == 1.0:
        return 1.0
    one_minus = 1.0 - m
    return float(elliprf(0.0, one_minus, 1.0)
                 - (m / 3.0) * elliprd(0.0, one_minus, 1.0))


def complete_Pi(n, m):
    """Complete elliptic integral of the third kind with characteristic
    n < 1; n and m may be arrays.  At n < 0 it is G(-1/n, m)/sqrt(-n)
    (:func:`_scaled_Pi`): R_F + (n/3) R_J loses accuracy in proportion to
    |n| there."""
    k, pi = complete_K_Pi(m, n)
    if not isinstance(pi, np.ndarray):
        return _scaled_Pi(-1.0 / n, m, k) / math.sqrt(-n) if n < 0.0 else pi
    negative = n < 0.0
    n = np.where(negative, n, -1.0)
    return np.where(negative, _scaled_Pi(-1.0 / n, m, k) / np.sqrt(-n), pi)


def complete_K_Pi(m, *ns):
    """[K(m), Pi(n, m) for each n of ``ns``] with one R_F(0, 1 - m, 1)
    shared by all of them; floats give floats, arrays give arrays."""
    _check_m(m)
    for n in ns:
        _check_n(n)
    one_minus = 1.0 - m
    rf = elliprf(0.0, one_minus, 1.0)
    values = [rf] + [rf + (n / 3.0) * elliprj(0.0, one_minus, 1.0, 1.0 - n)
                     for n in ns]
    if isinstance(one_minus, np.ndarray):
        return values
    return [float(v) for v in values]


def _scaled_Pi(nu, m, k):
    """G(nu, m) = sqrt(-n) Pi(n, m) at n = -1/nu <= 0, from K(m) = R_F(0,
    1 - m, 1) at hand and one R_J; floats or arrays.  The change of
    characteristic N = (m - n)/(1 - n) (DLMF 19.7(iii)) collected over R_F
    gives G = sqrt(nu)/(1 + nu) (K + (1 - m) R_J(0, 1 - m, 1, 1 - N)/(3 (1 +
    nu))), 1 - N = nu (1 - m)/(1 + nu): positive terms that do not cancel at
    large -n as R_F + (n/3) R_J does, and pi/2 at nu = 0 (R_J is NaN)."""
    array = isinstance(nu, np.ndarray)
    if not array and nu == 0.0:
        return math.pi / 2.0
    one_minus, s = 1.0 - m, 1.0 + nu
    g = (np.sqrt(nu) if array else math.sqrt(nu)) / s * (
        k + one_minus * elliprj(0.0, one_minus, 1.0, nu * one_minus / s) / (3.0 * s))
    return np.where(nu == 0.0, math.pi / 2.0, g) if array else float(g)


def _amplitude(phi: float, m: float) -> tuple[float, float]:
    # (sin^2 phi, cos^2 phi) of a checked amplitude and parameter
    _check_m(m)
    if not 0.0 <= phi <= math.pi / 2.0:
        raise DomainError(f"amplitude phi={phi!r} outside [0, pi/2]")
    return math.sin(phi) ** 2, math.cos(phi) ** 2


def incomplete_F(phi: float, m: float) -> float:
    """Incomplete elliptic integral of the first kind with amplitude phi."""
    return float(incomplete_F_Pi(*_amplitude(phi, m), m)[0])


def incomplete_Pi(n: float, phi: float, m: float) -> float:
    """Incomplete elliptic integral of the third kind up to amplitude phi."""
    _check_n(n)
    return float(incomplete_F_Pi(*_amplitude(phi, m), m, n)[1])


def incomplete_F_Pi(s2, c2, m, *ns):
    """[F(phi, m), Pi(n, phi, m) for each n of ``ns``] at sin^2 phi = s2 and
    cos^2 phi = c2, both given so that neither end of the range cancels
    (DLMF 19.25.5, 19.25.14), with one R_F shared.  Floats or arrays; a
    complex n takes scipy's complex R_J."""
    d2 = 1.0 - m * s2
    f = np.sqrt(s2) * elliprf(c2, d2, 1.0)
    return [f] + [f + (n / 3.0) * s2 * np.sqrt(s2) * elliprj(c2, d2, 1.0, 1.0 - n * s2)
                  for n in ns]


def incomplete_E(s2, c2, m, f):
    """E(phi, m) at the amplitude of :func:`incomplete_F_Pi`, from its F
    (DLMF 19.25.9): F - (m/3) sin^3 phi R_D(c2, 1 - m s2, 1)."""
    return f - (m / 3.0) * s2 * np.sqrt(s2) * elliprd(c2, 1.0 - m * s2, 1.0)


def _scaled_incomplete_Pi(nu, s2, c2, m):
    """G(nu; phi) = sqrt(-n) Pi(n, phi, m) at n = -1/nu < 0, the incomplete
    :func:`_scaled_Pi`: Carlson's change of the fourth argument (DLMF
    19.21.12) from 1 + s2/nu to q = c2 + nu s2 (1 - m)/(1 + nu) gives s/(1 +
    nu) (sqrt(nu) (R_F + s2 (1 - m) R_J(c2, d2, 1, q)/(3 (1 + nu))) + sqrt(c2)
    R_C(nu d2, (nu + s2) q)), positive terms where R_F + (n/3) s2 R_J cancels
    at large -n; the R_C term tends to pi/2 as nu -> 0 at c2 > 0."""
    d2 = 1.0 - m * s2
    one = 1.0 + nu
    q = c2 + nu * (s2 * (1.0 - m)) / one
    return np.sqrt(s2) / one * (
        np.sqrt(nu) * (elliprf(c2, d2, 1.0)
                       + s2 * (1.0 - m) * elliprj(c2, d2, 1.0, q) / (3.0 * one))
        + np.sqrt(c2) * elliprc(nu * d2, (nu + s2) * q))


# ---------------------------------------------------------------------------
# tanh-sinh quadrature oracle
# ---------------------------------------------------------------------------

_TS_TMAX = 4.0
_TS_BASE_H = 0.5
_TS_MAX_LEVEL = 11
_ts_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _ts_level_nodes(level: int):
    """Node table for one refinement level of the tanh-sinh rule.

    Returns (u, w, one_plus, one_minus) where u = tanh((pi/2) sinh t),
    w is the weight without the mesh factor h, and one_plus/one_minus are
    1 + u and 1 - u computed without cancellation.
    """
    cached = _ts_cache.get(level)
    if cached is not None:
        return cached
    h = _TS_BASE_H / 2.0**level
    if level == 0:
        t = np.arange(-round(_TS_TMAX / h), round(_TS_TMAX / h) + 1) * h
    else:
        pos = np.arange(1, round(_TS_TMAX / h), 2) * h
        t = np.concatenate([-pos[::-1], pos])
    z = 0.5 * np.pi * np.sinh(t)
    u = np.tanh(z)
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(z) ** 2
    one_minus = 2.0 / (1.0 + np.exp(2.0 * z))
    one_plus = 2.0 / (1.0 + np.exp(-2.0 * z))
    _ts_cache[level] = (u, w, one_plus, one_minus)
    return _ts_cache[level]


def _tanh_sinh(fd, a: float, b: float, tol: float, singular=None):
    """Core tanh-sinh driver.

    ``fd(x, da, db)`` must be vectorized; da = x - a and db = b - x are exact
    node distances.  When ``singular=(alpha, beta)`` the integrand is
    fd * da**alpha * db**beta.  Returns (value, error_estimate, converged).
    """
    if a == b:
        return 0.0, 0.0, True
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def level_sum(level: int) -> float:
        u, w, one_plus, one_minus = _ts_level_nodes(level)
        da = half * one_plus
        db = half * one_minus
        x = mid + half * u
        vals = np.asarray(fd(x, da, db), dtype=float) * w
        if singular is not None:
            alpha, beta = singular
            if alpha != 0.0:
                vals = vals * da**alpha
            if beta != 0.0:
                vals = vals * db**beta
        vals = np.where(np.isfinite(vals), vals, 0.0)
        return float(vals.sum())

    h = _TS_BASE_H
    total = level_sum(0)
    value = half * h * total
    err = math.inf
    for level in range(1, _TS_MAX_LEVEL + 1):
        h *= 0.5
        total += level_sum(level)
        new_value = half * h * total
        err = abs(new_value - value)
        value = new_value
        if level >= 3 and err <= tol * max(1.0, abs(value)):
            return value, err, True
    return value, err, False


def quad_oracle(f, a: float, b: float, tol: float = 1e-12, singular=None) -> float:
    """Adaptive tanh-sinh estimate of the integral of f over (a, b).

    ``f`` must accept numpy arrays.  With ``singular=(alpha, beta)`` the
    integrand is f(x) * (x-a)**alpha * (b-x)**beta and the singular factors
    are formed from exact endpoint distances, which keeps inverse-square-root
    endpoint singularities accurate to full precision.  Raises
    QuadratureError when the error estimate does not reach ``tol``.
    """
    value, err, converged = _tanh_sinh(lambda x, da, db: f(x), a, b, tol,
                                       singular=singular)
    if not converged:
        raise QuadratureError(
            f"tanh-sinh quadrature did not converge: achieved error {err:.3e} "
            f"with target {tol:.3e}",
            value=value,
            achieved=err,
        )
    return value
