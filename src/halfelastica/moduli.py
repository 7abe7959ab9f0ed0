"""Algebraic layer of the moduli space of curves with periodic non-constant
Blaschke invariant.

A modulus is a pair (lambda, e2) with e2 > 0 and e2^4 + 2*lambda*e2^3 + 1 < 0.
Each modulus determines a quartic

    Q(x) = x^4 + 4*lambda*x^3 + 4*(lambda^2 - c)*x^2 - 1

with roots e1 > e2 > e3 > 0 > e4, where c is the squared Minkowski norm of
the conserved momentum.  The sign of c splits the moduli space into the
space-like region S, the light-like curve L and the time-like region T; T is
further split by the exceptional locus E (where 1 + 4*c*e1^2 = 0) into a
lower part T- and an upper part T+.  On the cubic of e1 the locus residual
is T = -2 e1^2 e2^2 (e1 + 2 lambda), so E is the curve e1 = -2 lambda and
its height at a multiplier is a root of a cubic (:func:`exceptional_c`).

Root finding follows two independent routes.  Every computation takes e1
from :func:`cardano_e1`, the real closed form of the cubic satisfied by e1
(the cosine form, since on the moduli space the cubic has three real
roots), polished by Newton steps, on floats and on slice arrays alike.
The reference route, used only to check it, solves the same cubic with the
companion-matrix eigensolve of numpy.roots (the same matrix, one eigvals
call) plus the same polish.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import DomainError, OutsideModuliSpaceError

__all__ = [
    "LAMBDA_CRITICAL",
    "LAMBDA_EXCEPTIONAL",
    "GOLDEN_RATIO",
    "Region",
    "ModulusPoint",
    "QuarticData",
    "boundary_quartic",
    "in_moduli_space",
    "eta_pm",
    "b0",
    "a_lower",
    "chi",
    "cardano_e1",
    "roots_from_modulus",
    "reconstruct_lambda_c",
    "exceptional_residual",
    "radial_degeneracy",
    "classify_region",
    "resolve",
    "exceptional_c",
]

GOLDEN_RATIO = 0.5 * (1.0 + math.sqrt(5.0))

# Multipliers >= -2/27^(1/4) admit no periodic non-constant curvature at all.
LAMBDA_CRITICAL = -2.0 / 27.0**0.25

# The exceptional locus exists only for multipliers below -phi^(5/4)/2.
LAMBDA_EXCEPTIONAL = -(GOLDEN_RATIO**1.25) / 2.0

# e2-height of the exceptional locus at its right endpoint.
E2_EXCEPTIONAL_MIN = GOLDEN_RATIO**0.25

# absolute band within which a point is tagged to a locus: on the boundary
# and light-like polynomials, and on the radial degeneracy 1 + 4 c e1^2 (E)
_REGION_TOL = 1e-9

# Newton steps that polish every closed-form or companion e1
_POLISH_STEPS = 3

# brentq's least relative tolerance and its iteration budget, scipy's
_BRENT_RTOL = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100


class Region(enum.Enum):
    """Region tag of a point of the (lambda, e2) plane."""

    S = "S"
    L = "L"
    T_MINUS = "T-"
    E = "E"
    T_PLUS = "T+"
    BOUNDARY_MINUS = "B-"
    BOUNDARY_PLUS = "B+"
    OUTSIDE = "Outside"


_TIMELIKE = frozenset({Region.T_MINUS, Region.E, Region.T_PLUS})
_INTERIOR = frozenset({Region.S, Region.L}) | _TIMELIKE


@dataclass(frozen=True)
class ModulusPoint:
    """A point (lambda, e2) of the moduli space with its region tag and, once
    resolved (see :func:`resolve`), the quartic data of an interior point."""

    lam: float
    e2: float
    region: Region
    quartic: QuarticData | None = field(default=None, compare=False, repr=False)

    @property
    def in_moduli_space(self) -> bool:
        return self.region in _INTERIOR

    @property
    def timelike(self) -> bool:
        return self.region in _TIMELIKE


@dataclass(frozen=True)
class QuarticData:
    """Roots e1 > e2 > e3 > 0 > e4 of the conserved quartic, the causal
    constant c (squared momentum norm) and the locus residual t; arrays over
    the heights of one multiplier slice when built by :func:`_quartic_on_slice`."""

    e1: float
    e2: float
    e3: float
    e4: float
    c: float
    t: float

    @property
    def roots(self) -> tuple[float, float, float, float]:
        return (self.e1, self.e2, self.e3, self.e4)


def boundary_quartic(lam: float, x):
    """The boundary quartic x^4 + 2*lambda*x^3 + 1 whose negativity defines
    the moduli space."""
    return x**4 + 2.0 * lam * x**3 + 1.0


def quartic_value(lam: float, c: float, x):
    """The conserved quartic Q(x) = x^4 + 4 lam x^3 + 4 (lam^2 - c) x^2 - 1."""
    return x**4 + 4.0 * lam * x**3 + 4.0 * (lam * lam - c) * x**2 - 1.0


def _boundary_value(lam: float, e2: float):
    """boundary_quartic(lam, e2), or its exact rational value where the float
    evaluation of finite input overflows (e2 above 1e77, or lam e2^3 beyond
    the float range)."""
    try:
        pval = boundary_quartic(lam, e2)
    except OverflowError:
        pval = math.inf
    if math.isfinite(pval) or not (math.isfinite(lam) and math.isfinite(e2)):
        return pval
    x = Fraction(e2)
    return x**3 * (x + 2 * Fraction(lam)) + 1


def in_moduli_space(lam: float, e2: float) -> bool:
    """Strict interior test: finite input, e2 > 0 and the boundary quartic
    is negative."""
    return (e2 > 0.0 and math.isfinite(lam) and math.isfinite(e2)
            and _boundary_value(lam, e2) < 0.0)


@dataclass(frozen=True)
class RootInfo:
    """The count of calls of f in a converged :func:`brentq` solve, as
    scipy's ``RootResults`` gives it."""

    function_calls: int


def _brent_value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f, a, b, xtol=2e-12, rtol=_BRENT_RTOL, full_output=False):
    """A root of f in the bracket [a, b] by Brent's method (Brent 1973,
    Algorithms for Minimization Without Derivatives, ch. 4), written on
    Python floats as scipy's ``brentq`` (its ``brentq.c`` and the Python
    wrapper) writes it, so the iterates, the root and the count of calls of
    f are the same bit for bit; scipy.optimize is never imported.

    It stops on an exact zero of f or when half the bracket is below
    (xtol + rtol |x|) / 2.  Raises ValueError for xtol <= 0, for rtol below
    4 eps, for a NaN value of f and for ends whose values share a sign
    (after both are evaluated); RuntimeError after ``_BRENT_MAXITER``
    iterations.  ``full_output=True`` returns (root, :class:`RootInfo`).
    Every caller, here and in the modules that import this name, looks it
    up as a module global, which a tracer or a test may rebind.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")
    xpre, xcur = float(a), float(b)
    fpre, fcur = _brent_value(f, xpre), _brent_value(f, xcur)
    calls = 2
    if fpre == 0 or fcur == 0:
        root = xpre if fpre == 0 else xcur
        return (root, RootInfo(calls)) if full_output else root
    # neither value is zero or NaN, so its sign bit is its sign
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return (xcur, RootInfo(calls)) if full_output else xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            # min(b, a) is C's MIN(a, b), a < b ? a : b, NaN included
            if 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre)):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _brent_value(f, xcur)
        calls += 1
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def eta_pm(lam: float) -> tuple[float, float]:
    """The two positive roots eta- <= eta+ of the boundary quartic.

    They are the saddle and center heights of the curvature phase portrait;
    they merge at 3^(1/4) when lam reaches the critical multiplier, above
    which there are no equilibria at all.
    """
    if lam > LAMBDA_CRITICAL:
        raise DomainError(
            f"lambda={lam!r} above the critical multiplier {LAMBDA_CRITICAL!r}: "
            "the boundary quartic has no real roots"
        )
    if lam > LAMBDA_CRITICAL - 1e-13:
        r = 3.0**0.25
        return (r, r)
    # P has its minimum at -3 lam / 2; bracket each root on one side of it.
    x_min = -1.5 * lam
    hi_cap = max(-2.0 * lam + 1.0, 2.0)
    try:
        lo = brentq(lambda x: boundary_quartic(lam, x), 1e-12, x_min,
                    xtol=1e-15, rtol=8.9e-16)
        hi = brentq(lambda x: boundary_quartic(lam, x), x_min, hi_cap,
                    xtol=1e-15, rtol=8.9e-16)
    except (OverflowError, ValueError, RuntimeError):
        # float ** overflows beyond lambda of about -6e76, and from about
        # -1e16 on -2 lam + 1 rounds onto eta+, where the sign of the
        # quartic is lost to cancellation
        raise DomainError(
            f"lambda={lam!r}: the roots of the boundary quartic are not "
            "resolvable in floats"
        ) from None
    # two Newton steps to polish
    for _ in range(2):
        lo -= boundary_quartic(lam, lo) / (4.0 * lo**3 + 6.0 * lam * lo**2)
        hi -= boundary_quartic(lam, hi) / (4.0 * hi**3 + 6.0 * lam * hi**2)
    return (lo, hi)


def b0(lam: float) -> float:
    """Height of the light-like locus L: the larger root of e^2 + 2 lam e + 1."""
    if lam > -1.0:
        raise DomainError(f"the light-like locus requires lambda <= -1, got {lam!r}")
    return -lam + math.sqrt(lam * lam - 1.0)


def a_lower(lam: float) -> float:
    """Lower boundary of the time-like region at multiplier lam.

    For lam <= -1 this is the light-like height b0(lam); for larger
    multipliers it is the saddle height eta-(lam).  The two branches agree
    at lam = -1 where both equal 1.
    """
    if lam <= -1.0:
        return b0(lam)
    return eta_pm(lam)[0]


def chi(lam: float) -> float:
    """Limit value of the period map at the center boundary.

    chi(lam) = (eta+^4 - 1) / sqrt(eta+^8 - 4 eta+^4 + 3); it is strictly
    increasing, tends to 1 as lam -> -inf and diverges at the critical
    multiplier where eta+^4 -> 3.
    """
    return _chi_of_center(eta_pm(lam)[1])


def _chi_of_center(eta: float) -> float:
    # chi from the center height eta+ at hand
    q4 = eta**4
    if q4 <= 3.0:
        raise DomainError("chi undefined: eta+^4 <= 3 at the critical multiplier")
    return math.sqrt((q4 - 1.0) / (q4 - 3.0))


def _e1_cubic_coeffs(lam: float, e2: float) -> tuple[float, float, float, float]:
    # e1 is the unique real root > e2 of  e2^2 x^3 + (e2^3 + 4 e2^2 lam) x^2 + x + e2.
    return (e2 * e2, e2**3 + 4.0 * lam * e2 * e2, 1.0, e2)


def _e1_newton_polish(lam: float, e2: float, x: float) -> float:
    a3, a2, a1, a0 = _e1_cubic_coeffs(lam, e2)
    for _ in range(_POLISH_STEPS):
        f = ((a3 * x + a2) * x + a1) * x + a0
        fp = (3.0 * a3 * x + 2.0 * a2) * x + a1
        # a double root; slice heights lie inside the moduli space, where
        # e1 is a simple root
        if not isinstance(fp, np.ndarray) and fp == 0.0:
            break
        x = x - f / fp
    return x


def cardano_e1(lam, e2):
    """Largest real root of the cubic satisfied by e1, in real closed form,
    on floats (a Python float) or on slice arrays.

    The monic cubic x^3 + b x^2 + c x + d is rescaled by x = s y, with s the
    largest of |b|, sqrt|c| and cbrt|d|, so that no power below overflows
    where the coefficients are finite.  On the moduli space the cubic has
    three real roots (their product is -1/e2 and e1 > 0, so the other two
    have a negative product), so its depressed form t^3 + p t + q has
    disc = q^2/4 + p^3/27 <= 0 and the largest root is 2 sqrt(-p/3)
    cos(theta/3) with theta = atan2(sqrt(-disc), -q/2) in [0, pi].  Where
    rounding leaves disc a few 1e-19 above 0 (at far S points) it is taken
    as 0, and the Newton polish of the callers takes the seed onto e1.
    """
    a3, a2, a1, a0 = _e1_cubic_coeffs(lam, e2)
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    array = isinstance(b, np.ndarray)
    if array:
        s = np.maximum(np.maximum(np.abs(b), np.sqrt(np.abs(c))), np.cbrt(np.abs(d)))
    else:
        s = max(abs(b), math.sqrt(abs(c)), abs(d) ** (1.0 / 3.0))
    b, c, d = b / s, c / s / s, d / s / s / s
    p = c - b * b / 3.0
    q = (2.0 * b * b - 9.0 * c) * b / 27.0 + d
    disc = 0.25 * q * q + p * p * p / 27.0
    if array:
        t = 2.0 * np.sqrt(np.maximum(-p / 3.0, 0.0)) * np.cos(
            np.arctan2(np.sqrt(np.maximum(-disc, 0.0)), -0.5 * q) / 3.0)
    else:
        t = 2.0 * math.sqrt(max(-p / 3.0, 0.0)) * math.cos(
            math.atan2(math.sqrt(max(-disc, 0.0)), -0.5 * q) / 3.0)
    return s * (t - b / 3.0)


def _companion(a3, a2, a1, a0):
    """The companion matrix numpy.roots builds for a3 x^3 + a2 x^2 + a1 x +
    a0: top row -(a2, a1, a0)/a3, ones on the subdiagonal."""
    return np.array(((-a2 / a3, -a1 / a3, -a0 / a3), (1.0, 0.0, 0.0),
                     (0.0, 1.0, 0.0)))


def _beyond_floats(lam: float, e2: float) -> DomainError:
    return DomainError(
        f"the quartic of (lambda, e2) = ({lam!r}, {e2!r}) leaves the float range"
    )


def _e1_companion(lam: float, e2: float) -> float:
    """Reference e1, independent of :func:`cardano_e1`: the eigenvalues of
    the companion matrix (the solve numpy.roots makes), as Python floats,
    with Newton polish; DomainError where the cubic's coefficients or its
    roots are not finite floats."""
    try:
        roots = np.linalg.eigvals(_companion(*_e1_cubic_coeffs(lam, e2))).tolist()
    except (OverflowError, np.linalg.LinAlgError):
        # float ** overflows, and eigvals refuses a non-finite matrix
        raise _beyond_floats(lam, e2) from None
    real = [r.real for r in roots if abs(r.imag) <= 1e-8 * max(1.0, abs(r))]
    candidates = [r for r in real if r > e2]
    if not candidates:
        # fall back to the largest real root; the in-moduli-space check of the
        # caller guarantees one is > e2 up to rounding
        candidates = [max(real)]
    e1 = _e1_newton_polish(lam, e2, max(candidates))
    if not math.isfinite(e1):
        raise _beyond_floats(lam, e2)
    return e1


def _solve_e1(lam: float, e2: float) -> float:
    """e1 of one modulus as a Python float: :func:`cardano_e1` with Newton
    polish; DomainError where the cubic's coefficients or its root are not
    finite floats."""
    try:
        e1 = _e1_newton_polish(lam, e2, cardano_e1(lam, e2))
    except OverflowError:  # float ** overflows in the cubic's coefficients
        raise _beyond_floats(lam, e2) from None
    if not math.isfinite(e1):
        raise _beyond_floats(lam, e2)
    return e1


def _quartic_on_slice(lam: float, e2: np.ndarray) -> QuarticData:
    """:func:`roots_from_modulus` at every height of one multiplier slice,
    as arrays; the caller checks that the heights are in the moduli space."""
    return _quartic_from_e1(lam, _e1_newton_polish(lam, e2, cardano_e1(lam, e2)),
                            e2)


def _sqrt(x):
    """Square root of a float or an array.  A positive float gives a Python
    float, which keeps the scalar path off slow numpy-scalar arithmetic; a
    zero, negative or NaN float gives a numpy scalar, so that the divisions
    by it that follow give inf or NaN, as on arrays, rather than raise
    ZeroDivisionError."""
    return math.sqrt(x) if isinstance(x, float) and x > 0.0 else np.sqrt(x)


def _unpack_point(p) -> tuple[float, float]:
    lam, e2 = (p.lam, p.e2) if isinstance(p, ModulusPoint) else p
    return float(lam), float(e2)


def roots_from_modulus(p) -> QuarticData:
    """Quartic data (e1, e2, e3, e4, c) of a modulus point ``p``, a
    ModulusPoint or a (lambda, e2) pair.

    e1 is the closed form :func:`cardano_e1` with Newton polish; e3, e4 and
    c follow from the closed root relations.
    """
    lam, e2v = _unpack_point(p)
    if not in_moduli_space(lam, e2v):
        raise OutsideModuliSpaceError(
            f"(lambda, e2) = ({lam!r}, {e2v!r}) is outside the moduli space"
        )
    return _quartic_from_e1(lam, _solve_e1(lam, e2v), e2v)


def _quartic_from_e1(lam: float, e1, e2) -> QuarticData:
    # e3, e4, c and T from the closed root relations; floats (DomainError
    # where e3, e4 or c leave the float range) or slice arrays
    try:
        s = _sqrt(4.0 * e1**3 * e2**3 + (e1 + e2) ** 2)
        c = _causal_constant(e1, e2)
        t = exceptional_residual(e1, e2)
    except OverflowError:
        raise _beyond_floats(lam, e2) from None
    e3 = (e1 + e2 + s) / (2.0 * e1 * e1 * e2 * e2)
    e4 = -2.0 * e1 * e2 / (e1 + e2 + s)
    if isinstance(c, float) and not all(map(math.isfinite, (e3, e4, c))):
        raise _beyond_floats(lam, e2)
    return QuarticData(e1=e1, e2=e2, e3=e3, e4=e4, c=c, t=t)


def reconstruct_lambda_c(e1: float, e2: float) -> tuple[float, float]:
    """Multiplier and causal constant from the two largest quartic roots."""
    lam = -(e1**3 * e2**2 + e1**2 * e2**3 + e1 + e2) / (4.0 * e1**2 * e2**2)
    return lam, _causal_constant(e1, e2)


def _causal_constant(e1, e2):
    # c of reconstruct_lambda_c; floats or slice arrays
    return (
        e1**4 * e2**4 * (e1 - e2) ** 2
        - 2.0 * e1**2 * e2**2 * (e1**2 + e2**2)
        + (e1 + e2) ** 2
    ) / (16.0 * e1**4 * e2**4)


def exceptional_residual(e1: float, e2: float) -> float:
    """Signed distance surrogate for the exceptional locus.

    T = e1^2 e2^3 - e1^3 e2^2 + e1 + e2 vanishes exactly on the locus, is
    negative below it and positive above it.
    """
    return e1 * e1 * e2**3 - e1**3 * e2 * e2 + e1 + e2


def radial_degeneracy(e1: float, e2: float) -> float:
    """1 + 4 c e1^2, evaluated as T^2 / (4 e1^2 e2^4).

    The direct form loses all digits near the exceptional locus where the
    quantity has a tangential (quadratic) zero; the factored form keeps full
    relative accuracy.
    """
    return _degeneracy_of_residual(exceptional_residual(e1, e2), e1, e2)


def _degeneracy_of_residual(t, e1, e2):
    # radial_degeneracy from a locus residual T already at hand
    return t * t / (4.0 * e1 * e1 * e2**4)


def _kappa1(qd: QuarticData, sc):
    """kappa1 = (1 + 4 c e1^2)/(1 + 2 sc e1) = O(T^2) from the record's T."""
    return _degeneracy_of_residual(qd.t, qd.e1, qd.e2) / (1.0 + 2.0 * sc * qd.e1)


def _factored_w2(kappa1, sc, gap, x):
    """1 + 4 c x^2 as (kappa1 + 2 sc gap)(1 + 2 sc x), gap = e1 - x, sc = sqrt|c|."""
    return (kappa1 + 2.0 * sc * gap) * (1.0 + 2.0 * sc * x)


def _timelike_offset(qd: QuarticData):
    """E/T-/T+ sub-tag of time-like quartics below LAMBDA_EXCEPTIONAL as the
    period-map offset: 1/2 on E (radial degeneracy within _REGION_TOL), else
    1 on T- and 0 on T+ by the sign of the locus residual T.  Floats (a
    Python-float e1 keeps off slow numpy scalar arithmetic) or slice arrays."""
    on_locus = _degeneracy_of_residual(qd.t, qd.e1, qd.e2) <= _REGION_TOL
    below = qd.t < 0.0
    return 0.5 * on_locus + (1.0 - on_locus) * below


_REGION_OF_OFFSET = {1.0: Region.T_MINUS, 0.5: Region.E, 0.0: Region.T_PLUS}


def classify_region(lam: float, e2: float) -> ModulusPoint:
    """Total region classification of a (lambda, e2) pair; NaN and infinite
    input is Outside.

    Points within 1e-9 (absolute, on the defining polynomial) of the
    light-like curve or of the exceptional locus are tagged to the locus,
    since the downstream parameterizations switch branch there.  Time-like
    points below LAMBDA_EXCEPTIONAL carry the quartic solved for the tag; a
    point whose quartic has e1 <= e2 is B+.
    """
    lam = float(lam)
    e2 = float(e2)
    if e2 <= 0.0 or not (math.isfinite(lam) and math.isfinite(e2)):
        return ModulusPoint(lam, e2, Region.OUTSIDE)
    pval = _boundary_value(lam, e2)
    if abs(pval) <= _REGION_TOL:
        tag = Region.BOUNDARY_MINUS if e2 < 3.0**0.25 else Region.BOUNDARY_PLUS
        return ModulusPoint(lam, e2, tag)
    if pval > 0.0:
        return ModulusPoint(lam, e2, Region.OUTSIDE)
    if isinstance(pval, Fraction):
        # the float powers overflow only for e2 > 1e77 or |2 lam e2^3| >
        # 1e308, and an interior point there lies far inside S
        return ModulusPoint(lam, e2, Region.S)
    t2 = e2 * e2 + 2.0 * lam * e2 + 1.0
    if abs(t2) <= _REGION_TOL:
        return ModulusPoint(lam, e2, Region.L)
    if t2 < 0.0:
        return ModulusPoint(lam, e2, Region.S)
    if lam < LAMBDA_EXCEPTIONAL:
        qd = roots_from_modulus((lam, e2))
        if not qd.e1 > e2:
            # the orbit has no amplitude: the center boundary to float
            # resolution, where the strict sign tests no longer separate
            return ModulusPoint(lam, e2, Region.BOUNDARY_PLUS)
        offset = _timelike_offset(qd)
        return ModulusPoint(lam, e2, _REGION_OF_OFFSET[offset], qd)
    return ModulusPoint(lam, e2, Region.T_PLUS)


def resolve(p, e2=None) -> ModulusPoint:
    """A ModulusPoint, a (lambda, e2) pair or two scalars as a classified
    point (:func:`classify_region`) that carries its quartic data when it is
    interior; the quartic is solved only when the point has none yet.  It is
    the one function that takes two scalars: every other takes one point."""
    if e2 is not None:
        p = (p, e2)
    point = p if isinstance(p, ModulusPoint) else classify_region(*p)
    if point.quartic is None and point.in_moduli_space:
        point = replace(point, quartic=roots_from_modulus(point))
    return point


def exceptional_c(lam: float) -> float:
    """e2-height of the exceptional locus at multiplier lam.

    The locus is the curve e1 = -2 lam (T = -2 e1^2 e2^2 (e1 + 2 lam) on
    the cubic of e1), so its height is the largest root of
    T(-2 lam, e) = 4 lam^2 e^3 + 8 lam^3 e^2 + e - 2 lam: the closed-form
    Cardano solution, polished by Newton steps on that cubic, whose root is
    simple off the endpoint multiplier.  DomainError unless
    :func:`classify_region` tags the polished root E (which implies that it
    lies below the largest quartic root e1): beyond about -4e3 the height is
    not resolvable in floats, and the root rounds onto e1 or leaves the
    time-like region at most multipliers.
    """
    if not lam < LAMBDA_EXCEPTIONAL:
        raise DomainError(
            f"the exceptional locus requires lambda < {LAMBDA_EXCEPTIONAL!r}, "
            f"got {lam!r}"
        )
    try:
        lam4 = lam**4
        rad = 256.0 * lam4**2 - 176.0 * lam4 - 1.0
        a = (9.0 - 8.0 * lam4) / (27.0 * lam)
        bb = math.sqrt(max(rad, 0.0)) / (24.0 * math.sqrt(3.0) * abs(lam) ** 3)
        value = -2.0 * lam / 3.0 + 2.0 * (complex(a, bb) ** (1.0 / 3.0)).real
        for _ in range(3):
            slope = (12.0 * lam * lam * value + 16.0 * lam**3) * value + 1.0
            value -= exceptional_residual(-2.0 * lam, value) / slope
        on_locus = classify_region(lam, value).region is Region.E
    except (OverflowError, OutsideModuliSpaceError):
        on_locus = False
    if not on_locus:
        raise DomainError(
            f"the exceptional height at lambda={lam!r} is not resolvable in floats"
        )
    return value

