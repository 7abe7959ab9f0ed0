"""The period map on the time-like moduli region and everything built on it:
closed-form elliptic evaluation, an independent quadrature oracle, interval
of admissible characteristic numbers, closed-string search for rational
characteristic numbers, fiber endpoints and tracing, and the geometric
invariants of the isomonodromic families.

The period map is the offset-normalized rotation number

    P = -Theta(omega)/(2 pi) + (1 on T-, 1/2 on E, 0 on T+),

and a time-like curve closes exactly when P is rational, q = m/n in lowest
terms, with n the wave number (order of the rotational symmetry group) and
m the hyperbolic turning number.

Numerical posture near the exceptional locus: n1 and B of the closed form
diverge like 1/T, T = e1^2 e2^3 - e1^3 e2^2 + e1 + e2 the signed locus
residual solved with the roots, through kappa1 = 1 - 2 sqrt|c| e1 = O(T^2).
The one route to sqrt|c| and kappa1 is the quartic record's ``sc`` and
``kappa1`` (:func:`moduli._quartic_record`): sc = sqrt(-c), and kappa1 from
T wherever the difference would cancel; 1 + 4 lambda sqrt|c| = O(T) is
evaluated over T from T, never by subtraction.  In nu = -1/n1 and the
smooth beta = sign(T) B sqrt(nu) the closed form is one expression on both
sides of E and on it, P = (2 sqrt|c|/pi)(A K + sign(T) beta G(nu, m) + C
Pi(n2)) + (1 - sign T)/2: G(nu, m) = sqrt(-n1) Pi(n1, m) tends to pi/2 as
nu -> 0, so the jump of the divergent term cancels that of the offset.  The
quadrature oracle takes the factored 1 + 4 c x^2, with exact node distances
from the tanh-sinh driver, and a first-order on-locus integrand at points
tagged E.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ellint
from .dynamics import _parameter_and_scale, wavelength
from .ellint import _tanh_sinh
from .errors import (
    BracketError,
    CharacteristicIntervalError,
    DomainError,
    QuadratureError,
    RegionError,
)
from .moduli import (
    E2_EXCEPTIONAL_MIN,
    LAMBDA_CRITICAL,
    LAMBDA_EXCEPTIONAL,
    ModulusPoint,
    QuarticData,
    Region,
    _REGION_OF_OFFSET,
    _chi_of_center,
    _degeneracy_of_residual,
    _degeneracy_scale,
    _factored_w2,
    _quartic_from_e1,
    _quartic_on_slice,
    _solve_e1,
    _sqrt,
    _timelike_offset,
    _unpack_point,
    b0,
    boundary_quartic,
    brentq,
    classify_region,
    eta_pm,
    exceptional_residual,
    in_moduli_space,
    resolve,
)

__all__ = [
    "EllipticCoeffs",
    "StringRecord",
    "FamilyInvariants",
    "FiberTrace",
    "elliptic_coeffs",
    "b_plus_c_closed_form",
    "coefficient_identity_residuals",
    "period_map",
    "period_map_slice",
    "period_map_oracle",
    "divergent_term",
    "j_interval",
    "find_string",
    "string_candidates",
    "fiber_endpoint",
    "trace_fiber",
    "family_invariants",
    "monotonicity_transition",
    "r_term",
]

# the oracle's quadrature error target, the size of the scan that brackets
# a slice's crossings, and the monotonicity transition's bracket and width
_ORACLE_TOL = 1e-12
_N_SCAN = 512
_TRANSITION_BRACKET, _TRANSITION_TOL = (-0.9995, -0.945), 2e-4


@dataclass(frozen=True)
class EllipticCoeffs:
    """Arguments of the closed-form period integral.  n1 and B diverge like
    1/T at the exceptional locus; they are None only where the float locus
    residual T is exactly 0."""

    g: float
    m: float
    n1: float | None
    n2: float
    A: float
    B: float | None
    C: float


@dataclass(frozen=True)
class FamilyInvariants:
    """Global invariants of the isomonodromic family of one rational q.

    ``limit_radius`` is the disk radius of the terminal circle the family
    contracts onto: the circle of curvature e*^2, with disk radius
    1/(e*^2 + sqrt(e*^4 - 1)).  ``limit_wavelength`` is the terminal value
    of the wavelength, 4 q pi r/(1 - r^2), which equals the linearized
    center period 2 pi / sqrt(e*^4 - 3); the string's total length tends to
    the wave number times that (m wraps of the terminal circle).
    """

    wave_number: int
    turning_number: int
    punctured_class: int
    isotopy_classes: int
    limit_radius: float
    limit_wavelength: float
    limit_length: float


@dataclass(frozen=True)
class StringRecord:
    """A closed time-like curve found on a rational fiber."""

    q_num: int
    q_den: int
    modulus: ModulusPoint
    wavelength: float
    length: float
    wave_number: int
    turning_number: int
    punctured_class: int
    isotopy_classes: int
    period_value: float

    @property
    def q(self) -> Fraction:
        return Fraction(self.q_num, self.q_den)


@dataclass(frozen=True)
class FiberTrace:
    """Polyline approximation of one rational fiber of the period map: the
    columns of its rows by increasing height, floats and region tags as the
    CSV prints them, and the E crossing (or None), which is one of them."""

    q_num: int
    q_den: int
    lam: tuple[float, ...]
    e2: tuple[float, ...]
    regions: tuple[str, ...]
    crossing: ModulusPoint | None

    @property
    def points(self) -> tuple[ModulusPoint, ...]:
        """The rows as points, with the crossing object itself at its row,
        the last one at or below its height."""
        points = [ModulusPoint(lam, e2, Region(region)) for lam, e2, region
                  in zip(self.lam, self.e2, self.regions)]
        if self.crossing is not None:
            points[bisect_right(self.e2, self.crossing.e2) - 1] = self.crossing
        return tuple(points)


def _no_amplitude(lam, e2) -> RegionError:
    return RegionError(
        f"({lam}, {e2}) is on the center boundary to float resolution: its "
        "quartic has e1 <= e2"
    )


def _not_timelike(lam, e2) -> RegionError:
    return RegionError(
        f"period-map operations require a time-like modulus, got ({lam}, {e2})"
    )


def _timelike_quartic(p) -> tuple[float, QuarticData]:
    """Resolve an input to a time-like modulus by the strict sign tests:
    its multiplier and its quartic data, which are solved once on the way.

    The tolerance tagging of classify_region widens to square-root scale at
    the corner multiplier -1 where the light-like polynomial has a double
    root; the period map is defined on the open strict-sign region, so the
    space/light-like decision here is exact.  Merging the two policies
    would change which points the period map accepts.
    """
    if isinstance(p, ModulusPoint) and p.timelike:
        point = resolve(p)
        return point.lam, point.quartic
    lam, e2v = _unpack_point(p)
    t2 = e2v * e2v + 2.0 * lam * e2v + 1.0
    if not in_moduli_space(lam, e2v) or t2 <= 0.0:
        raise _not_timelike(lam, e2v)
    qd = _quartic_from_e1(lam, _solve_e1(lam, e2v), e2v)
    if not qd.e1 > e2v:
        raise _no_amplitude(lam, e2v)
    return lam, qd


def _timelike_slice(lam, e2s) -> QuarticData:
    """:func:`_timelike_quartic` at the points (lam, e2) of the heights,
    ``lam`` (one multiplier or one per height) broadcast against them: the
    quartic data as arrays."""
    lam, e2 = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                  np.atleast_1d(np.asarray(e2s, dtype=float)))
    with np.errstate(invalid="ignore", over="ignore"):
        timelike = ((e2 > 0.0) & (boundary_quartic(lam, e2) < 0.0)
                    & (e2 * e2 + 2.0 * lam * e2 + 1.0 > 0.0))
    if not timelike.all():
        bad = np.argmin(timelike)
        raise _not_timelike(lam[bad], e2[bad])
    qd = _quartic_on_slice(lam, e2)
    flat = ~(qd.e1 > e2)
    if flat.any():
        bad = np.argmax(flat)
        raise _no_amplitude(lam[bad], e2[bad])
    return qd


def _slice_offsets(lam, qd: QuarticData) -> np.ndarray:
    """The region of a point, or of each point of a slice, as its period-map
    offset (1 on T-, 1/2 on E, 0 on T+), from its quartic."""
    return np.where(lam < LAMBDA_EXCEPTIONAL, _timelike_offset(qd), 0.0)


def _coefficients(lam, qd: QuarticData):
    """(g, m, nu, n2, A, beta, C, sign T) of the closed form, on floats or
    on the arrays of one slice, from the record's sc and kappa1: nu = -1/n1
    = kappa1 (e2 - e4)/(w4- (e1 - e2)) and beta = sign(T) B sqrt(nu) are
    finite across E, where 1 + 4 lam sc vanishes like T and is taken over T
    from T (with 1 - p^2 = 4 sc^2 e1^2, p = T/(2 e1 e2^2))."""
    e1, e2v, _, e4 = qd.roots
    m, g = _parameter_and_scale(qd)
    sc, t = qd.sc, qd.t
    two_sc = 2.0 * sc
    w1p = 1.0 + two_sc * e1
    w4m = 1.0 - two_sc * e4
    w4p = 1.0 + two_sc * e4
    e1e2_sq = e1 * e1 * e2v * e2v
    q_hat = (e1 + e2v) * (1.0 + e1e2_sq)
    u_over_t = ((q_hat * q_hat * t / _degeneracy_scale(e1, e2v)
                 - 2.0 * e1**3 * e2v * e2v - q_hat)
                / (4.0 * e1**4 * e2v * e2v * (e1e2_sq + q_hat * sc)))
    ratio = (e2v - e4) / (w4m * (e1 - e2v))
    n2 = (w4p * (e2v - e1)) / (w1p * (e2v - e4))
    a_coeff = -g * e4 * (e4 + 2.0 * lam) / (w4m * w4p)
    beta = (-g * u_over_t * (e1 - e4) * e1 * e2v * e2v * _sqrt(w1p * ratio)
            / (two_sc * w4m))
    c_coeff = g * (1.0 - 4.0 * lam * sc) * (e1 - e4) / (4.0 * sc * w4p * w1p)
    sign = np.sign(t) if isinstance(t, np.ndarray) else (t > 0.0) - (t < 0.0)
    return g, m, qd.kappa1 * ratio, n2, a_coeff, beta, c_coeff, sign


def elliptic_coeffs(p) -> EllipticCoeffs:
    """Closed-form coefficients (g, m, n1, n2, A, B, C) of a time-like
    modulus; n1 and B are withheld where they are infinite, at float T = 0."""
    return _elliptic_coeffs(*_timelike_quartic(p))


def _elliptic_coeffs(lam, qd: QuarticData) -> EllipticCoeffs:
    g, m, nu, n2, a_coeff, beta, c_coeff, sign = _coefficients(lam, qd)
    n1, b_coeff = (-1.0 / nu, sign * beta / math.sqrt(nu)) if nu > 0.0 else (None, None)
    return EllipticCoeffs(g=g, m=m, n1=n1, n2=n2, A=a_coeff, B=b_coeff,
                          C=c_coeff)


def _closed_form(lam, qd: QuarticData):
    """(P, D) on floats or on the arrays of one slice, with one R_F and two
    R_J: P = -Theta(omega)/(2 pi) + (1 - sign T)/2 and its divergent term
    D = (2 sqrt|c|/pi) sign(T) beta G(nu, m), 0 where T is 0."""
    _, m, nu, n2, a_coeff, beta, c_coeff, sign = _coefficients(lam, qd)
    k, pi_n2 = ellint.complete_K_Pi(m, n2)
    scale = 2.0 * qd.sc / math.pi
    divergent = scale * sign * beta * ellint._scaled_Pi(nu, m, k)
    return (scale * (a_coeff * k + c_coeff * pi_n2) + divergent
            + 0.5 * (1.0 - sign)), divergent


def _b_plus_c(lam: float, qd: QuarticData) -> float:
    e1, _, _, e4 = qd.roots
    c = qd.c
    _, g = _parameter_and_scale(qd)
    num = g * (e1 - e4) * (e4 * (8.0 * c * lam * e1 - 1.0) - e1 - 2.0 * lam)
    den = (_degeneracy_of_residual(qd.t, _degeneracy_scale(e1, qd.e2))
           * (1.0 + 4.0 * c * e4 * e4))
    return np.divide(num, den)  # inf where T is 0, not ZeroDivisionError


def b_plus_c_closed_form(p) -> float:
    """Closed form of B + C (finite even where B and C individually are
    large with opposite signs)."""
    lam, qd = _timelike_quartic(p)
    return _b_plus_c(lam, qd)


def coefficient_identity_residuals(p) -> tuple[float, float]:
    """Residuals of the two algebraic identities satisfied by the
    coefficients: the partial-fraction sum identity and the B + C closed
    form.  Both should vanish to rounding off the exceptional locus."""
    lam, qd = _timelike_quartic(p)
    co = _elliptic_coeffs(lam, qd)
    if co.n1 is None:
        raise RegionError("coefficient identities need finite n1 and B")
    e2v = qd.e2
    lhs = co.A + co.B / (1.0 - co.n1) + co.C / (1.0 - co.n2)
    rhs = -co.g * e2v * (e2v + 2.0 * lam) / (1.0 + 4.0 * qd.c * e2v * e2v)
    q_resid = (lhs - rhs) / max(1.0, abs(rhs))
    bc = co.B + co.C
    bc_closed = _b_plus_c(lam, qd)
    bc_resid = (bc - bc_closed) / max(1.0, abs(bc_closed))
    return q_resid, bc_resid


def period_map(p) -> float:
    """Closed-form period map value of a time-like modulus."""
    lam, qd = _timelike_quartic(p)
    return float(_closed_form(lam, qd)[0])


def period_map_slice(lam, e2s) -> np.ndarray:
    """Closed-form period map at every height of one multiplier slice, in
    one array pass; an array ``lam`` broadcasts against the heights, giving
    the map at the points (lam[i], e2[i]).  Each point gets the value
    :func:`period_map` gives it up to rounding.  Raises RegionError when
    any point (NaN and infinities included) is not time-like."""
    if np.ndim(lam):
        lam = np.asarray(lam, dtype=float)
    qd = _timelike_slice(lam, e2s)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _closed_form(lam, qd)[0]


def divergent_term(p) -> float:
    """The jump-carrying term (2 sqrt|c| / pi) B Pi(n1, m) of the closed form:
    it tends to -1/2 and +1/2 as the modulus approaches the exceptional locus
    from below and above, and is 0 where the float T is 0.  RegionError
    naming the point where c rounds to >= 0, on L to float resolution."""
    lam, qd = _timelike_quartic(p)
    if not qd.c < 0.0:
        raise RegionError(f"({lam}, {qd.e2}) is light-like to float "
                          f"resolution: its causal constant c = {qd.c!r} >= 0")
    return float(_closed_form(lam, qd)[1])


def period_map_oracle(p) -> float:
    """Independent period-map value by adaptive quadrature of the defining
    angular integral in the curvature variable.

    The near-locus denominator is rebuilt from the factored small quantities
    and the exact node distance db = e1 - x supplied by the tanh-sinh
    driver, and so is the numerator's x + 2 lam = -(db + tau), as e1 + 2
    lam = -tau with tau = T/(2 e1^2 e2^2) on the cubic of e1.  A point
    tagged E (its offset 1/2) takes the first-order on-locus integrand.
    """
    lam, qd = _timelike_quartic(p)
    e1, e2v, e3, e4 = qd.roots
    sc, kappa1 = qd.sc, qd.kappa1
    offset = float(_slice_offsets(lam, qd))
    on_locus = offset == 0.5
    if on_locus:
        def integrand(x, da, db):
            return x / ((x - 2.0 * lam) * np.sqrt((x - e3) * (x - e4)))
        scale = -16.0 * sc * lam * lam
    else:
        tau = qd.t / (2.0 * e1 * e1 * e2v * e2v)

        def integrand(x, da, db):
            denom = _factored_w2(kappa1, sc, db, x)
            return -x * (db + tau) / (denom * np.sqrt((x - e3) * (x - e4)))
        scale = 4.0 * sc
    value, err, ok = _tanh_sinh(integrand, e2v, e1, _ORACLE_TOL,
                                singular=(-0.5, -0.5))
    if not ok:
        raise QuadratureError(
            "oracle quadrature failed" + (" on the locus" if on_locus else ""),
            value=value, achieved=err)
    return float(-(scale * value) / (2.0 * math.pi) + offset)


def r_term(p) -> float:
    """The bounded companion of the logarithmic divergence of the period
    integral near the lower boundary (arctan combination of the two
    characteristics)."""
    co = elliptic_coeffs(p)
    if co.n1 is None:
        raise RegionError("r_term needs the off-locus branch")

    def piece(n, coeff):
        return math.sqrt(-n) * math.atan(math.sqrt(-n)) / (1.0 - n) * coeff

    return piece(co.n1, co.B) + piece(co.n2, co.C)


def j_interval(lam: float) -> tuple[float, float]:
    """Open interval of characteristic numbers guaranteed to be attained by
    the period map at multiplier lam; (1, chi) for lam <= -1 and
    (chi, +inf) above."""
    return _slice_ends(lam)[0]


def _slice_bounds(lam: float) -> tuple[float, float]:
    """(a_lower, eta+) of the multiplier slice from one solve of the
    boundary quartic, with eta_pm's DomainError above the critical
    multiplier."""
    eta_m, eta_p = eta_pm(lam)
    return (b0(lam) if lam <= -1.0 else eta_m), eta_p


def _slice_ends(lam: float) -> tuple[tuple[float, float], float, float]:
    """(:func:`j_interval`, a_lower, eta+) from :func:`_slice_bounds`."""
    if lam >= LAMBDA_CRITICAL:
        raise DomainError(f"lambda={lam!r} above the critical multiplier")
    a, eta_p = _slice_bounds(lam)
    x = _chi_of_center(eta_p)
    return ((1.0, x) if lam <= -1.0 else (x, math.inf)), a, eta_p


def _as_fraction(q) -> Fraction:
    try:
        if isinstance(q, str):
            num, sep, den = q.partition("/")
            frac = Fraction(int(num), int(den)) if sep else Fraction(int(num), 1)
        elif isinstance(q, tuple):
            frac = Fraction(int(q[0]), int(q[1]))
        else:
            frac = Fraction(q)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        raise DomainError(
            f"characteristic number q={q!r} is not a finite rational") from None
    if frac <= 0:
        raise DomainError(
            f"characteristic number q={q!r} must be positive, got {frac}")
    return frac


def string_candidates(lam: float, q) -> list[float]:
    """All e2 heights on the multiplier slice where the period map crosses q.

    The admissible interval and both ends of the slice come from one solve
    of the boundary quartic.  A full scan, one :func:`period_map_slice`
    call, brackets every sign change before refinement; monotonicity of the
    slice is experimental and never assumed.  The brackets are found as one
    array search: a scan value that is exactly zero is a root, and each
    sign change between neighbours is refined by brentq on the scalar
    period map, in increasing height; NaN values bracket nothing.
    """
    frac = _as_fraction(q)
    qv = float(frac)
    (lo_int, hi_int), a, eta_p = _slice_ends(lam)
    if not lo_int < qv < hi_int:
        raise CharacteristicIntervalError(
            f"q={frac} outside the admissible interval ({lo_int}, "
            f"{hi_int if math.isfinite(hi_int) else 'inf'}) at lambda={lam!r}",
            interval=(lo_int, hi_int),
        )
    inset = 1e-7 * (eta_p - a)
    grid = np.linspace(a + inset, eta_p - inset, _N_SCAN)
    vals = period_map_slice(lam, grid) - qv
    head = vals[:-1]
    hits = np.flatnonzero((head == 0.0) | (head * vals[1:] < 0.0)).tolist()
    if vals[-1] == 0.0:
        hits.append(len(grid) - 1)
    heights = grid.tolist()
    roots = [heights[i] if vals[i] == 0.0 else
             brentq(lambda e2: period_map((lam, e2)) - qv, heights[i],
                    heights[i + 1], xtol=1e-14, rtol=8.9e-16)
             for i in hits]
    if not roots:
        raise BracketError(
            f"no period-map crossing of q={frac} found on the slice "
            f"lambda={lam!r} after a {_N_SCAN}-point scan"
        )
    return roots


def family_invariants(q, p: ModulusPoint) -> FamilyInvariants:
    """Wave/turning numbers, homotopy class in the punctured disk, isotopy
    count, and the terminal circle data of the family of q."""
    frac = _as_fraction(q)
    m, n = frac.numerator, frac.denominator
    region = p.region if isinstance(p, ModulusPoint) else classify_region(*p).region
    punctured = m - n if region is Region.T_MINUS else m
    j = (n + (n % 2)) // 2 - (1 if n == 1 else 0)
    _, e_star = fiber_endpoint(frac)
    r_q = 1.0 / (e_star * e_star + math.sqrt(e_star**4 - 1.0))
    limit_wavelength = 4.0 * float(frac) * math.pi * r_q / (1.0 - r_q * r_q)
    return FamilyInvariants(
        wave_number=n,
        turning_number=m,
        punctured_class=punctured,
        isotopy_classes=2 * j + 1,
        limit_radius=r_q,
        limit_wavelength=limit_wavelength,
        limit_length=n * limit_wavelength,
    )


def find_string(lam: float, q) -> StringRecord:
    """Locate the canonical closed curve with characteristic number q on the
    multiplier slice; the smallest crossing height is canonical, all
    crossings are discoverable through :func:`string_candidates`."""
    frac = _as_fraction(q)
    e2 = string_candidates(lam, frac)[0]
    point = resolve(lam, e2)
    pval = period_map(point)
    if abs(pval - float(frac)) > 1e-9:
        raise BracketError(
            f"refined crossing missed the target: |P - q| = {abs(pval - float(frac)):.3e}"
        )
    omega = wavelength(point)
    inv = family_invariants(frac, point)
    return StringRecord(
        q_num=frac.numerator,
        q_den=frac.denominator,
        modulus=point,
        wavelength=omega,
        length=inv.wave_number * omega,
        wave_number=inv.wave_number,
        turning_number=inv.turning_number,
        punctured_class=inv.punctured_class,
        isotopy_classes=inv.isotopy_classes,
        period_value=pval,
    )


def fiber_endpoint(q) -> tuple[float, float]:
    """Terminal point of the fiber of q on the center boundary.

    Solves (e^4 - 1)/sqrt(e^8 - 4 e^4 + 3) = q in closed form:
    e* = ((3 q^2 - 1)/(q^2 - 1))^{1/4}, lam* = -(1 + e*^4)/(2 e*^3), so that
    e* is exactly the center height at lam*.
    """
    frac = _as_fraction(q)
    qv = float(frac)
    if qv <= 1.0:
        raise DomainError(f"fiber endpoints exist for q > 1 only, got {frac}")
    e4 = (3.0 * qv * qv - 1.0) / (qv * qv - 1.0)
    e_star = e4**0.25
    lam_star = -(1.0 + e4) / (2.0 * e_star**3)
    return lam_star, e_star


def _lambda_bracket(e2):
    # time-like slice in lambda at fixed e2: below the center boundary and
    # above the light-like curve; floats or arrays of heights
    lam_hi = -(1.0 + e2**4) / (2.0 * e2**3)
    lam_lo = -(1.0 + e2 * e2) / (2.0 * e2)
    return lam_lo, lam_hi


def _chandrupatla(f, lo, hi, args, xatol, xrtol, fatol):
    """Roots of the elementwise ``f(x, *args)`` on the brackets [lo, hi],
    all rows at once, by Chandrupatla's hybrid of inverse quadratic
    interpolation and bisection (Adv. Eng. Software 28, 145, 1997), written
    as scipy's ``elementwise.find_root`` writes it with frtol = 0, so the
    iterates are the same bit for bit.

    Both bracket ends are evaluated in one call of ``f``, and rows drop out
    of the later calls as they stop.  A row stops on its residual, when
    |f(xmin)| <= fatol, or on its step, when |x2 - x1| < |xmin| xrtol +
    xatol, where xmin is the end with the smaller |f|.  Returns (x,
    success); x is NaN where success is False: where the bracket has no
    sign change, an abscissa is not finite or both values are NaN.
    """
    n = len(lo)
    both = f(np.concatenate((lo, hi)), *(np.concatenate((a, a)) for a in args))
    x1, x2, f1, f2 = lo, hi, both[:n], both[n:]
    # |f| and sign f of both ends are carried, not recomputed
    a1, a2, s1, s2 = np.abs(f1), np.abs(f2), np.sign(f1), np.sign(f2)
    # fatol plus scipy's frtol term, 0 times the smaller end value: NaN
    # where that is NaN or infinite, which rules out the residual stop
    ftol = fatol + 0.0 * np.minimum(a1, a2)
    x, success = np.full(n, np.nan), np.zeros(n, dtype=bool)
    live, t, x3, f3 = np.arange(n), 0.5, None, None
    while True:
        smaller = a1 < a2
        xmin = np.where(smaller, x1, x2)
        zero = np.where(smaller, a1, a2) <= ftol
        bad = ~zero & ((s1 == s2) | ~(np.isfinite(x1) & np.isfinite(x2))
                       | (np.isnan(f1) & np.isnan(f2)))
        xmin = np.where(bad, np.nan, xmin)
        span = x2 - x1
        dx = np.abs(span)
        tol = np.abs(xmin) * xrtol + xatol
        converged = zero | (dx < tol)
        stop = converged | bad
        if stop.any():
            x[live[stop]], success[live[stop]] = xmin[stop], converged[stop]
            keep = ~stop
            live, x1, x2, f1, f2, a1, a2, s1, s2, ftol, span, dx, tol = (
                v[keep] for v in (live, x1, x2, f1, f2, a1, a2, s1, s2, ftol,
                                  span, dx, tol))
            args = [a[keep] for a in args]
            if x3 is not None:
                x3, f3 = x3[keep], f3[keep]
        if not live.size:
            return x, success
        if x3 is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / span
                inverse = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(inverse, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx
            # np.clip's values without its wrapper's cost
            t = np.minimum(np.maximum(t, tl), 1 - tl)
        xt = x1 + t * span
        ft = f(xt, *args)
        at, st = np.abs(ft), np.sign(ft)
        same = st == s1
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        a2, s2 = np.where(same, a2, a1), np.where(same, s2, s1)
        x1, f1, a1, s1 = xt, ft, at, st


def trace_fiber(q, steps: int = 200) -> FiberTrace:
    """Trace the fiber of q from the corner (-1, 1) to its endpoint on the
    center boundary by root solves in the multiplier, all heights in one
    :func:`_chandrupatla` array solve on their full brackets.

    Root solving is self-correcting, unlike direct integration of the
    fiber-tangent vector field, whose non-vanishing is only experimental.
    The side of E of a point is the sign of the locus residual T of its
    quartic, negative on T- and positive on T+.  E is the curve e1 = -2 lam
    (T = -2 e1^2 e2^2 (e1 + 2 lam)), so at a height e2 its multiplier is
    the root of the cubic T(-2 lam, e2) in the bracket, and the crossing of
    E is one root solve of P - q along that curve, between the first two
    neighbouring rows below LAMBDA_EXCEPTIONAL whose product of T is not
    positive.  It is the row after every row at or below its height.
    """
    frac = _as_fraction(q)
    qv = float(frac)
    _, e_star = fiber_endpoint(frac)
    e_lo = 1.0 + 1e-3 * (e_star - 1.0)
    e_hi = e_star - 1e-5 * (e_star - 1.0)
    heights = np.linspace(e_lo, e_hi, int(steps))
    lam_lo, lam_hi = _lambda_bracket(heights)
    # insets must clear the locus-tagging tolerance zones at both ends
    lo, hi = lam_lo + 1e-8, lam_hi - 1e-8
    # stop on the residual |P - q| <= 1e-13, or on a step below 1e-14 plus
    # the rtol of scipy's brentq where P is too steep in lambda to reach it
    lams, success = _chandrupatla(lambda lam, e2: period_map_slice(lam, e2) - qv,
                                  lo, hi, (heights,), 1e-14,
                                  4.0 * np.finfo(float).eps, 1e-13)
    if not success.all():
        i = np.argmin(success)
        raise BracketError(
            f"no sign change of P - q on the full lambda bracket "
            f"[{float(lo[i])!r}, {float(hi[i])!r}] for q={qv!r} at "
            f"e2={float(heights[i])!r}"
        )
    # the solve evaluated the period map at every row, so the rows are
    # time-like; their tags and sides come from one quartic of the slice
    qd = _quartic_on_slice(lams, heights)
    tags = {offset: region.value for offset, region in _REGION_OF_OFFSET.items()}
    regions = [tags[offset] for offset in _slice_offsets(lams, qd).tolist()]
    lam, e2 = lams.tolist(), heights.tolist()
    below = lams < LAMBDA_EXCEPTIONAL
    flips = np.flatnonzero(below[:-1] & below[1:]
                           & ~(qd.t[:-1] * qd.t[1:] > 0.0))
    crossing = None
    if flips.size:
        # the multiplier on E of each height the outer solve evaluates
        on_locus = {}

        def p_on_locus(e2v: float) -> float:
            lam_e = on_locus[e2v] = brentq(
                lambda x: exceptional_residual(-2.0 * x, e2v),
                *_lambda_bracket(e2v), xtol=1e-15, rtol=8.9e-16)
            return period_map((lam_e, e2v)) - qv

        i = int(flips[0])
        # E starts at the height E2_EXCEPTIONAL_MIN on the center boundary,
        # where the period map along it diverges
        e_c = brentq(p_on_locus, max(e2[i], E2_EXCEPTIONAL_MIN + 1e-6),
                     e2[i + 1], xtol=1e-14, rtol=8.9e-16)
        crossing = classify_region(on_locus[e_c], e_c)
        at = bisect_right(e2, crossing.e2)
        lam.insert(at, crossing.lam)
        e2.insert(at, crossing.e2)
        regions.insert(at, crossing.region.value)
    return FiberTrace(q_num=frac.numerator, q_den=frac.denominator,
                      lam=tuple(lam), e2=tuple(e2), regions=tuple(regions),
                      crossing=crossing)


def _endpoint_slope(lam: float) -> float:
    """Slope of the period map at the center end of the slice; positive when
    an interior minimum exists, negative when the slice is strictly
    decreasing."""
    a, eta_p = _slice_bounds(lam)
    span = eta_p - a
    e2 = eta_p - 1e-5 * span
    h = 1e-6 * span
    return (period_map((lam, e2 + h)) - period_map((lam, e2 - h))) / (2.0 * h)


def monotonicity_transition() -> float:
    """Multiplier at which the slice-wise period map switches from having an
    interior minimum to being strictly decreasing: the root of the slope at
    the center end on [-0.9995, -0.945], by brentq to a width of 2e-4."""
    lo, hi = _TRANSITION_BRACKET
    flo, fhi = _endpoint_slope(lo), _endpoint_slope(hi)
    if not (flo > 0.0 > fhi):
        raise BracketError(
            f"monotonicity transition not bracketed on [{lo}, {hi}]: "
            f"slopes ({flo:.3e}, {fhi:.3e})"
        )
    return brentq(_endpoint_slope, lo, hi, xtol=_TRANSITION_TOL)
