"""Algebraic layer: boundary roots, the moduli bijection, region tags and
the locus functions."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from halfelastica import moduli as M
from halfelastica.errors import DomainError, OutsideModuliSpaceError
from conftest import sample_moduli, sample_timelike
import reference

TRIBONACCI = 1.8392867552  # real root of x^3 - x^2 - x - 1


class TestEtaPm:
    def test_fold_point(self):
        em, ep = M.eta_pm(M.LAMBDA_CRITICAL)
        assert em == ep == pytest.approx(3.0**0.25, abs=1e-15)

    def test_minus_one(self):
        em, ep = M.eta_pm(-1.0)
        assert em == pytest.approx(1.0, abs=1e-14)
        # the boundary quartic factors as (x - 1)(x^3 - x^2 - x - 1)
        assert ep == pytest.approx(TRIBONACCI, abs=1e-9)

    def test_companion_matrix_oracle(self, rng):
        for lam in rng.uniform(-3.0, M.LAMBDA_CRITICAL - 1e-3, size=40):
            em, ep = M.eta_pm(lam)
            roots = np.roots([1.0, 2.0 * lam, 0.0, 0.0, 1.0])
            real = sorted(r.real for r in roots if abs(r.imag) < 1e-8 and r.real > 0)
            assert em == pytest.approx(real[0], rel=1e-12)
            assert ep == pytest.approx(real[1], rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            M.eta_pm(-0.8)

    def test_monotone(self):
        lams = np.linspace(-3.0, M.LAMBDA_CRITICAL - 1e-4, 60)
        ems, eps = zip(*(M.eta_pm(lam) for lam in lams))
        assert np.all(np.diff(ems) > 0)
        assert np.all(np.diff(eps) < 0)

    def test_saddle_height_unit_threshold(self):
        # the saddle sits above curvature 1 exactly for multipliers between
        # -1 and the critical value
        assert M.eta_pm(-0.95)[0] > 1.0
        assert M.eta_pm(-0.89)[0] > 1.0
        assert M.eta_pm(-1.05)[0] < 1.0
        assert M.eta_pm(-2.0)[0] < 1.0


class TestRootsFromModulus:
    def test_lightlike_point(self):
        qd = M.roots_from_modulus((-1.25, 2.0))
        assert abs(qd.c) <= 1e-10
        assert qd.e1 == pytest.approx(1.25 + math.sqrt(1.25**2 + 1.0), rel=1e-12)

    def test_quartic_annihilation(self):
        lam, e2 = -1.3, 1.1
        qd = M.roots_from_modulus((lam, e2))
        bound = 1e-10 * max(1.0, qd.e1**4)
        for r in qd.roots:
            assert abs(M.quartic_value(lam, qd.c, r)) <= bound

    def test_companion_quartic_oracle(self):
        lam, e2 = -1.3, 1.1
        qd = M.roots_from_modulus((lam, e2))
        ref = np.roots([1.0, 4.0 * lam, 4.0 * (lam * lam - qd.c), 0.0, -1.0])
        ref = sorted((r.real for r in ref if abs(r.imag) < 1e-8), reverse=True)
        for ours, theirs in zip(qd.roots, ref):
            assert ours == pytest.approx(theirs, rel=1e-10)

    def test_ordering_and_signs(self, rng):
        for pt in sample_moduli(rng, 50):
            qd = M.roots_from_modulus(pt)
            assert qd.e1 > qd.e2 > qd.e3 > 0.0 > qd.e4
            sign = {"S": 1.0, "L": 0.0, "T-": -1.0, "E": -1.0, "T+": -1.0}
            expected = sign[pt.region.value]
            if expected == 0.0:
                assert abs(qd.c) <= 1e-10
            else:
                assert math.copysign(1.0, qd.c) == expected

    def test_outside_rejected(self):
        with pytest.raises(OutsideModuliSpaceError):
            M.roots_from_modulus((-0.5, 1.0))

    def test_reconstruction_roundtrip(self, rng):
        worst = 0.0
        worst_q = 0.0
        for pt in sample_moduli(rng, 1000, margin=0.01):
            qd = M.roots_from_modulus(pt)
            lam_r, c_r = M.reconstruct_lambda_c(qd.e1, qd.e2)
            worst = max(worst, abs(lam_r - pt.lam), abs(c_r - qd.c))
            bound = max(1.0, qd.e1**4)
            worst_q = max(worst_q, max(
                abs(M.quartic_value(pt.lam, qd.c, r)) for r in qd.roots) / bound)
        assert worst <= 1e-9
        assert worst_q <= 1e-10

    def test_cardano_cross_check(self, rng):
        worst = 0.0
        for pt in sample_moduli(rng, 400, margin=0.01):
            e1_closed = M.cardano_e1(pt.lam, pt.e2)
            e1_ref = M._e1_companion(pt.lam, pt.e2)
            worst = max(worst, abs(e1_closed - e1_ref))
        assert worst <= 1e-9


class TestClassifyRegion:
    @pytest.mark.parametrize("lam,e2,region", [
        (-1.25, 2.0, M.Region.L),
        (-1.1, 1.0, M.Region.S),
        (-0.99, 1.05, M.Region.T_MINUS),
        (-0.9, 1.24, M.Region.T_PLUS),
        (-0.5, 1.0, M.Region.OUTSIDE),
        (-1.0, -0.3, M.Region.OUTSIDE),
    ])
    def test_examples(self, lam, e2, region):
        assert M.classify_region(lam, e2).region is region

    def test_locus_tagging(self):
        lam = -1.1
        ce = M.exceptional_c(lam)
        assert M.classify_region(lam, ce).region is M.Region.E
        assert M.classify_region(lam, ce - 1e-3).region is M.Region.T_MINUS
        assert M.classify_region(lam, ce + 1e-3).region is M.Region.T_PLUS

    def test_boundary_tagging(self):
        em, ep = M.eta_pm(-1.3)
        assert M.classify_region(-1.3, em).region is M.Region.BOUNDARY_MINUS
        assert M.classify_region(-1.3, ep).region is M.Region.BOUNDARY_PLUS

    # interior by the strict sign tests, but e1 rounds onto or below e2
    @pytest.mark.parametrize("lam,e2", [
        (-3970.806660815663, 7941.613321631323),
        (-5.1560466965201175e19, 1.0312093393040235e20),
    ])
    def test_flat_quartic_is_center_boundary(self, lam, e2):
        assert M.in_moduli_space(lam, e2)
        assert not M.roots_from_modulus((lam, e2)).e1 > e2
        point = M.classify_region(lam, e2)
        assert point.region is M.Region.BOUNDARY_PLUS
        assert M.resolve(point).quartic is None

    @pytest.mark.parametrize("lam,e2,region", [
        (-1.2, 1e100, M.Region.OUTSIDE),  # e2 > -2 lam: P >= 1
        (-1e100, 1e80, M.Region.S),
        (-1e150, 1e100, M.Region.S),
        (-sys.float_info.max, 1e-105, M.Region.OUTSIDE),  # P = 1 - 3.6e-7
        (-sys.float_info.max, 1e-102, M.Region.S),
        (-0.5 * sys.float_info.max, sys.float_info.max, M.Region.OUTSIDE),
    ])
    def test_overflowing_powers(self, lam, e2, region):
        assert M.classify_region(lam, e2).region is region
        assert M.in_moduli_space(lam, e2) is (region is M.Region.S)

    @pytest.mark.parametrize("lam,e2", [
        (-1e100, 1e80),  # e1^4 overflows in the causal constant
        (-2.5e69, 1e10),  # e1^4 e2^4 overflows to inf: c is NaN
        (-1e150, 1e100),  # 4 lam e2^2 overflows in the cubic of e1
        (-1e150, 1e110),  # e2^3 overflows
        (-sys.float_info.max, 1e-102),  # the companion's -4 lam overflows
        (-1e200, 1e-60),  # the Newton polish of e1 ~ -4 lam overflows
    ])
    def test_far_spacelike_quartic_is_a_domain_error(self, lam, e2):
        assert M.classify_region(lam, e2).region is M.Region.S
        with pytest.raises(DomainError, match=re.escape(f"({lam!r}, {e2!r})")):
            M.roots_from_modulus((lam, e2))
        with pytest.raises(DomainError):
            M.resolve(lam, e2)


@settings(max_examples=400, deadline=None)
@given(st.floats(), st.floats())
@example(math.nan, 1.5)
@example(-1.2, 1e100)
@example(-sys.float_info.max, 5e-324)
@example(sys.float_info.max, 5e-324)
@example(-sys.float_info.max, sys.float_info.max)
@example(-1.8e308, 1.8e308)
@example(-math.inf, 1.5)
@example(-1e100, 1e80)
def test_classification_is_total(lam, e2):
    point = M.classify_region(lam, e2)
    assert isinstance(point, M.ModulusPoint)
    if not (math.isfinite(lam) and math.isfinite(e2)):
        assert not M.in_moduli_space(lam, e2)
        with pytest.raises(OutsideModuliSpaceError):
            M.roots_from_modulus((lam, e2))
    if point.in_moduli_space:
        assert M.in_moduli_space(lam, e2)
        # the quartic is finite, or a DomainError says it is not
        try:
            qd = M.roots_from_modulus((lam, e2))
        except DomainError as exc:
            assert not isinstance(exc, OutsideModuliSpaceError)
        else:
            assert all(map(math.isfinite, qd.roots + (qd.c,)))


def _e1_by_numpy_roots(lam, e2):
    """Reference e1: numpy.roots, then the real-root filter, fallback and
    Newton polish of the companion path."""
    roots = np.roots(M._e1_cubic_coeffs(lam, e2))
    real = [r.real for r in roots if abs(r.imag) <= 1e-8 * max(1.0, abs(r))]
    candidates = [r for r in real if r > e2] or [max(real)]
    return M._e1_newton_polish(M._e1_cubic_coeffs(lam, e2), max(candidates))


@settings(max_examples=300, deadline=None)
@given(st.floats(-100.0, M.LAMBDA_CRITICAL - 1e-9), st.floats(1e-9, 1.0 - 1e-9),
       st.booleans())
@example(-1.3, 0.5, True)  # near the exceptional locus
@example(-1.0 - 1e-9, 0.5, False)
def test_companion_solve_is_numpy_roots(lam, u, timelike):
    """The bare eigvals solve gives numpy.roots' e1 bit for bit, on time-like
    and space-like points, as a Python float."""
    if timelike:
        lo, hi = M.a_lower(lam), M.eta_pm(lam)[1]
    else:
        assume(lam < -1.0)
        lo, hi = M.eta_pm(lam)[0], M.b0(lam)
    e2 = lo + u * (hi - lo)
    assume(M.in_moduli_space(lam, e2))
    e1 = M._e1_companion(lam, e2)
    assert type(e1) is float
    assert e1 == _e1_by_numpy_roots(lam, e2)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 20.0).map(lambda x: -(10.0**x)), st.integers(0, 4096))
@example(-3970.806660815663, 3)
@example(-5.1560466965201175e19, 0)
def test_timelike_tags_have_amplitude(lam, ulps):
    """Every T-/E/T+ tag carries a quartic with e1 > e2, also in the far
    tail, where heights a few ulps below -2 lam pass the strict sign tests
    of the time-like region by rounding."""
    e2 = -2.0 * lam - ulps * math.ulp(-2.0 * lam)
    point = M.classify_region(lam, e2)
    if point.timelike:
        assert M.resolve(point).quartic.e1 > e2


def _polish_limit(lam, e2, e1):
    """Relative accuracy the float Newton polish can reach at e1: the
    rounding of the cubic's evaluation over its slope.  It is about 5e-16
    on most of the moduli space and grows near the critical multiplier,
    where the cubic's two positive roots close in (2e-14 at -0.8775)."""
    a3, a2, a1, a0 = M._e1_cubic_coeffs(lam, e2)
    size = abs(a3 * e1**3) + abs(a2 * e1 * e1) + abs(a1 * e1) + abs(a0)
    slope = (3.0 * a3 * e1 + 2.0 * a2) * e1 + a1
    return sys.float_info.epsilon * size / abs(slope * e1)


def _e1_by_mpmath(lam, e2):
    """The largest root of the cubic of e1 at the exact float inputs, to 50
    digits."""
    with mpmath.workdps(50):
        lam_mp, e2_mp = mpmath.mpf(lam), mpmath.mpf(e2)
        roots = mpmath.polyroots([e2_mp**2, e2_mp**3 + 4 * lam_mp * e2_mp**2, 1,
                                  e2_mp], maxsteps=200, extraprec=100)
        return max(mpmath.re(r) for r in roots)


@pytest.mark.parametrize("lam", [-2.0, -1.3, -1.0005, -0.95, -0.8775])
def test_e1_against_mpmath_ladder(lam):
    """The closed-form route (slice and scalar) and the companion reference
    are within 1e-14 relative of the 50-digit root across a time-like
    slice, down to insets of 1e-7 of its width from both ends, or within
    four times the polish's own limit where that is larger (near the
    critical multiplier)."""
    lo, hi = M.a_lower(lam), M.eta_pm(lam)[1]
    insets = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5)
    e2 = np.array([lo + f * (hi - lo) for f in insets]
                  + [hi - f * (hi - lo) for f in insets])
    slice_e1 = M._quartic_on_slice(lam, e2).e1.tolist()
    for h, route in zip(e2.tolist(), slice_e1):
        true = _e1_by_mpmath(lam, h)
        tol = max(1e-14, 4.0 * _polish_limit(lam, h, float(true)))
        for value in (route, M.roots_from_modulus((lam, h)).e1,
                      M._e1_companion(lam, h)):
            assert float(abs(value - true) / true) <= tol, (h, value)


@settings(max_examples=300, deadline=None)
@given(st.floats(-100.0, M.LAMBDA_CRITICAL - 1e-9), st.floats(1e-9, 1.0 - 1e-9),
       st.booleans())
@example(-1.3, 0.5, True)  # near the exceptional locus
@example(-1.0 - 1e-9, 0.5, False)
@example(M.LAMBDA_CRITICAL - 1e-9, 0.5, True)  # polish limit 1.2e-11
def test_closed_form_route_matches_companion(lam, u, timelike):
    """On time-like and space-like points the closed-form e1 agrees with
    the companion eigensolve within 2e-14 relative, or within four times
    the polish's limit where that is larger, as a Python float."""
    if timelike:
        lo, hi = M.a_lower(lam), M.eta_pm(lam)[1]
    else:
        assume(lam < -1.0)
        lo, hi = M.eta_pm(lam)[0], M.b0(lam)
    e2 = lo + u * (hi - lo)
    assume(M.in_moduli_space(lam, e2))
    e1 = M.roots_from_modulus((lam, e2)).e1
    assert type(e1) is float
    assert type(M.cardano_e1(lam, e2)) is float
    ref = M._e1_companion(lam, e2)
    assert abs(e1 - ref) <= max(2e-14, 4.0 * _polish_limit(lam, e2, ref)) * ref


def test_domain_errors_match_the_companion_route():
    """On a log grid out to lambda = -1e300 and e2 from 1e-120 to 1e150,
    roots_from_modulus raises DomainError exactly where the quartic built on
    the companion e1 does; the float range is scaled out of the closed form
    (no p^3 or b^3 overflows first)."""
    raising = mismatched = 0
    for lam in (-10.0 ** np.linspace(0.01, 300.0, 301)).tolist():
        for e2 in (10.0 ** np.linspace(-120.0, 150.0, 109)).tolist():
            if not M.in_moduli_space(lam, e2):
                continue
            outcome = []
            for solve in (M._solve_e1, M._e1_companion):
                try:
                    M._quartic_from_e1(lam, solve(lam, e2), e2)
                except DomainError:
                    outcome.append(True)
                else:
                    outcome.append(False)
            raising += outcome[1]
            mismatched += outcome[0] is not outcome[1]
    assert mismatched == 0
    assert raising == 19113  # of 19651 interior grid points


@pytest.mark.parametrize("lam, e2", [
    (-1022821.8569340456, 1.0),
    (-10227433.55468003, 1.0),
    (-102266486.00269397, 0.0031622776601683794),
    (-1022586370.610395, 0.0031622776601683794),
])
def test_rounded_positive_discriminant(lam, e2):
    """At these far S points of the grid above, the scaled discriminant of
    the cubic of e1 rounds to +2e-19...+4e-19 instead of <= 0; the cosine
    form, with the discriminant clamped to 0, still gives the companion's
    e1 within 2e-14 relative."""
    a3, a2, a1, a0 = M._e1_cubic_coeffs(lam, e2)
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    s = max(abs(b), math.sqrt(abs(c)), abs(d) ** (1.0 / 3.0))
    b, c, d = b / s, c / s / s, d / s / s / s
    p, q = c - b * b / 3.0, (2.0 * b * b - 9.0 * c) * b / 27.0 + d
    assert 0.25 * q * q + p * p * p / 27.0 > 0.0
    assert M.classify_region(lam, e2).region is M.Region.S
    ref = M._e1_companion(lam, e2)
    assert abs(M.roots_from_modulus((lam, e2)).e1 - ref) <= 2e-14 * ref


class TestResolve:
    @pytest.mark.parametrize("p", [(-1.3, 1.2), (-1.25, 2.0), (-1.3, 2.3),
                                   (-0.9, 1.24)])
    def test_interior_point_is_solved_once(self, p, quartic_solves):
        point = M.resolve(p)
        assert M.resolve(point) is point
        assert len(quartic_solves) == 1
        assert point.region is M.classify_region(*p).region
        assert point.quartic == M.roots_from_modulus(p)

    @pytest.mark.parametrize("p", [(-0.5, 1.0), (-1.3, M.eta_pm(-1.3)[0])])
    def test_other_points_carry_no_quartic(self, p, quartic_solves):
        assert M.resolve(*p).quartic is None
        assert not quartic_solves


class TestExceptionalLocus:
    def test_defining_equations(self):
        for lam in (-1.0, -1.3, -2.0):
            e2 = M.exceptional_c(lam)
            qd = M.roots_from_modulus((lam, e2))
            assert M.radial_degeneracy(qd.e1, e2) <= 1e-9
            assert qd.e1 == pytest.approx(-2.0 * lam, abs=1e-9)
            assert 1.0 + 16.0 * qd.c * lam * lam == pytest.approx(0.0, abs=1e-9)

    def test_domain_endpoint(self):
        val = M.exceptional_c(M.LAMBDA_EXCEPTIONAL - 1e-10)
        assert val == pytest.approx(M.GOLDEN_RATIO**0.25, abs=1e-3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            M.exceptional_c(-0.9)

    def test_between_bounds(self):
        for lam in (-0.95, -1.0, -1.5, -2.5):
            e2 = M.exceptional_c(lam)
            assert M.a_lower(lam) < e2 < M.eta_pm(lam)[1]

    @pytest.mark.parametrize("lam", [-1.8, -1.3, -13 / 12, -0.95, -1e3])
    def test_matches_40_digit_reference(self, lam):
        # measured within 1.7e-16 relative (at -1.3), 1 ulp or less at each
        # multiplier; the bound is 10x that
        ref = reference.exceptional_c(lam)
        assert abs(M.exceptional_c(lam) - ref) <= 1.7e-15 * ref

    def test_matches_bracketed_solve(self):
        lams = np.concatenate([-np.geomspace(0.93, 800.0, 240),
                               np.linspace(-1.2, -0.93, 60)])
        for lam in lams.tolist():
            ref = _exceptional_c_by_bracket(lam)
            assert abs(M.exceptional_c(lam) - ref) <= 8 * np.spacing(ref)

    @pytest.mark.parametrize("lam", [-910.2228457591266, -1739.4, -4000.0,
                                     -1e5])
    def test_far_multiplier(self, lam):
        # the first and third leave the moduli space in the bracketed solve;
        # the last is one ulp below e1 = -2 lam, still tagged E
        assert M.classify_region(lam, M.exceptional_c(lam)).region is M.Region.E

    # the Cardano root is tagged S at -1e20 and rounds onto e1 = -2 lam at
    # -5.156...e19
    @pytest.mark.parametrize("lam", [-1e4, -1e100, -1e20,
                                     -5.1560466965201175e19])
    def test_unresolvable_height(self, lam):
        with pytest.raises(DomainError, match=re.escape(f"lambda={lam!r}")):
            M.exceptional_c(lam)


def _exceptional_c_by_bracket(lam):
    """Reference height: the Cardano seed, a bracket of the residual T
    grown around it inside (a_lower, eta+), and brentq."""
    from scipy.optimize import brentq

    lam4 = lam**4
    rad = 256.0 * lam4**2 - 176.0 * lam4 - 1.0
    a = (9.0 - 8.0 * lam4) / (27.0 * lam)
    bb = math.sqrt(max(rad, 0.0)) / (24.0 * math.sqrt(3.0) * abs(lam) ** 3)
    seed = -2.0 * lam / 3.0 + 2.0 * (complex(a, bb) ** (1.0 / 3.0)).real

    def resid(e2):
        return M.exceptional_residual(M.roots_from_modulus((lam, e2)).e1, e2)

    a_lo, eta_hi = M.a_lower(lam), M.eta_pm(lam)[1]
    span = eta_hi - a_lo
    lo_cap, hi_cap = a_lo + 1e-9 * span, eta_hi - 1e-9 * span
    seed = min(max(seed, lo_cap), hi_cap)
    lo = max(seed - 1e-3 * span, lo_cap)
    hi = min(seed + 1e-3 * span, hi_cap)
    for _ in range(60):
        if resid(lo) < 0.0 < resid(hi):
            break
        lo = max(lo - 2e-2 * span, lo_cap)
        hi = min(hi + 2e-2 * span, hi_cap)
    return brentq(resid, lo, hi, xtol=1e-15, rtol=8.9e-16)


@settings(max_examples=300, deadline=None)
@given(st.floats(-2.5, M.LAMBDA_CRITICAL - 1e-9), st.floats(1e-9, 1.0 - 1e-9))
@example(-1.3, 0.5)
def test_exceptional_locus_is_e1_equal_minus_two_lambda(lam, u):
    """T = -2 e1^2 e2^2 (e1 + 2 lam) on the cubic of e1: on time-like
    points T and e1 + 2 lam have opposite signs off the locus."""
    lo, hi = M.a_lower(lam), M.eta_pm(lam)[1]
    e2 = lo + u * (hi - lo)
    point = M.resolve(lam, e2)
    assume(point.timelike)
    t = M.exceptional_residual(point.quartic.e1, e2)
    assume(abs(t) > 1e-12)
    assert np.sign(t) == -np.sign(point.quartic.e1 + 2.0 * lam)


class TestChi:
    def test_far_multiplier(self):
        assert abs(M.chi(-20.0) - 1.0) < 0.01

    def test_value_at_minus_one(self):
        eta = M.eta_pm(-1.0)[1]
        q4 = eta**4
        assert M.chi(-1.0) == pytest.approx((q4 - 1.0) / math.sqrt(q4**2 - 4 * q4 + 3),
                                            rel=1e-13)

    def test_strictly_increasing(self):
        lams = np.linspace(-3.0, M.LAMBDA_CRITICAL - 1e-3, 50)
        vals = [M.chi(lam) for lam in lams]
        assert np.all(np.diff(vals) > 0)

    def test_divergence_at_fold(self):
        # chi grows like the inverse fourth root of the distance to the fold
        assert M.chi(M.LAMBDA_CRITICAL - 1e-4) > 4.0
        assert M.chi(M.LAMBDA_CRITICAL - 1e-8) > 40.0


class TestALower:
    def test_branch_continuity(self):
        # both branch formulas give exactly 1 at the junction; the left
        # branch approaches with a square-root cusp
        assert M.a_lower(-1.0) == pytest.approx(1.0, abs=1e-12)
        assert M.eta_pm(-1.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert M.a_lower(-1.0 - 1e-9) == pytest.approx(1.0, abs=1e-4)
        assert M.a_lower(-1.0 + 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_closed_branch(self):
        assert M.a_lower(-1.25) == pytest.approx(2.0, abs=1e-14)

    def test_saddle_branch(self):
        assert M.a_lower(-0.95) == pytest.approx(M.eta_pm(-0.95)[0], rel=1e-14)

    def test_below_center(self):
        for lam in (-0.9, -1.0, -1.3, -1.7):
            eta_m, eta_p = M.eta_pm(lam)
            assert eta_m <= M.a_lower(lam) < eta_p

