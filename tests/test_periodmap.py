"""Period map: coefficients and identities, closed form against the
quadrature oracle, endpoint limits, string search, fibers and family
invariants."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root

from halfelastica import curvegen as C
from halfelastica import dynamics as D
from halfelastica import ellint
from halfelastica import moduli as M
from halfelastica import periodmap as P
from halfelastica.errors import (
    BracketError,
    CharacteristicIntervalError,
    DomainError,
    RegionError,
)
from conftest import sample_timelike
import reference


class TestEllipticCoeffs:
    def test_identities_at_fixed_point(self):
        q_resid, bc_resid = P.coefficient_identity_residuals((-1.3, 2.3))
        assert abs(q_resid) <= 1e-9
        assert abs(bc_resid) <= 1e-9

    def test_identities_on_random_grid(self, rng):
        for pt in sample_timelike(rng, 60):
            q_resid, bc_resid = P.coefficient_identity_residuals(pt)
            assert abs(q_resid) <= 1e-9
            assert abs(bc_resid) <= 1e-9

    def test_parameter_in_unit_interval(self, rng):
        for pt in sample_timelike(rng, 40):
            co = P.elliptic_coeffs(pt)
            assert 0.0 < co.m < 1.0

    def test_b_plus_c_vanishes_at_lower_boundary(self):
        lam = -1.2
        a = M.a_lower(lam)
        co = P.elliptic_coeffs((lam, a + 1e-4))
        assert abs(co.B + co.C) < 1e-2

    def test_characteristics_negative_near_lower_boundary(self):
        for lam in (-1.5, -1.0, -0.95):
            a = M.a_lower(lam)
            co = P.elliptic_coeffs((lam, a + 1e-4))
            assert co.n1 < 0.0
            assert co.n2 < 0.0

    def test_rejects_spacelike(self):
        with pytest.raises(RegionError):
            P.elliptic_coeffs((-1.3, 1.2))


class TestPeriodMapValues:
    def test_oracle_equivalence(self, rng):
        worst = 0.0
        for pt in sample_timelike(rng, 60):
            worst = max(worst, abs(P.period_map(pt) - P.period_map_oracle(pt)))
        assert worst <= 1e-9

    def test_oracle_on_the_locus(self):
        lam = -1.2
        pt = M.classify_region(lam, M.exceptional_c(lam))
        assert abs(P.period_map(pt) - P.period_map_oracle(pt)) <= 1e-9

    def test_oracle_just_below_the_locus(self):
        """T- points at d = e2 - exceptional_c(lam) = -10^-4.375 down to
        -10^-5.25, next to the E tag: x (x + 2 lam) of the integrand is
        formed as -x (db + tau), so it does not cancel near x = e1.  The
        oracle converges at every point, within 1e-14 of the closed form
        (measured 1.1e-15), and within 1e-13 of the 40-digit reference."""
        worst = 0.0
        for lam in np.linspace(-3.0, -1.0, 25).tolist():
            ce = M.exceptional_c(lam)
            for k in np.arange(4.375, 5.2501, 0.125).tolist():
                pt = M.classify_region(lam, ce - 10.0**-k)
                if pt.region is M.Region.T_MINUS:
                    worst = max(worst, abs(P.period_map_oracle(pt)
                                           - P.period_map(pt)))
        assert worst <= 1e-14
        for lam, k in ((-3.0, 4.75), (-1.8, 5.0), (-1.25, 4.875)):
            e2 = M.exceptional_c(lam) - 10.0**-k
            assert abs(P.period_map_oracle((lam, e2))
                       - reference.period_map(lam, e2)) <= 1e-13

    def test_continuity_across_locus(self):
        lam = -1.2
        ce = M.exceptional_c(lam)
        mid = P.period_map(M.classify_region(lam, ce))
        assert abs(P.period_map((lam, ce - 1e-5)) - mid) < 1e-3
        assert abs(P.period_map((lam, ce + 1e-5)) - mid) < 1e-3

    def test_jump_of_divergent_term(self):
        lam = -1.2
        ce = M.exceptional_c(lam)
        assert P.divergent_term((lam, ce - 1e-6)) == pytest.approx(-0.5, abs=1e-3)
        assert P.divergent_term((lam, ce + 1e-6)) == pytest.approx(0.5, abs=1e-3)

    def test_lower_boundary_limit(self):
        assert P.period_map((-1.3, M.a_lower(-1.3) + 1e-5)) == pytest.approx(
            1.0, abs=0.02)

    def test_center_limit(self):
        lam = -1.3
        ep = M.eta_pm(lam)[1]
        assert P.period_map((lam, ep - 1e-5)) == pytest.approx(
            M.chi(lam), abs=1e-4)

    def test_logarithmic_divergence_above_minus_one(self):
        lam = -0.95
        a = M.a_lower(lam)
        ratios = [P.period_map((lam, a + d)) / math.log(4.0 / math.sqrt(d))
                  for d in (1e-4, 1e-6, 1e-8)]
        for r0, r1 in zip(ratios, ratios[1:]):
            assert abs(r1 / r0 - 1.0) < 0.10

    def test_angular_monotonicity_split(self):
        # below the locus the phase has interior extrema, above it is
        # strictly monotone; both seen directly in the defining integrand
        pt_lower = M.classify_region(-0.99, 1.05)
        pt_upper = M.classify_region(-0.9, 1.24)
        for pt, monotone in ((pt_lower, False), (pt_upper, True)):
            omega = D.wavelength(pt)
            s = np.linspace(0.0, 2.0 * omega, 257)
            theta = C.angular_function(pt, s)
            if monotone:
                assert np.all(np.diff(theta) < 0.0)
            else:
                assert np.any(np.diff(theta) > 0.0)

    def test_causal_constant_vanishes_faster_than_modulus_gap(self):
        # at the corner multiplier -1 the causal constant tends to zero
        # faster than 1 - m; verified numerically on a shrinking sequence
        from halfelastica.dynamics import elliptic_arguments

        ratios = []
        for d in (1e-2, 1e-3, 1e-4):
            qd = M.roots_from_modulus((-1.0, 1.0 + d))
            _, m, _, _ = elliptic_arguments(qd)
            ratios.append(abs(qd.c / (1.0 - m)))
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-4

    def test_r_term_bounded_near_lower_boundary(self):
        lam = -0.95
        a = M.a_lower(lam)
        values = []
        for d in (1e-3, 1e-5, 1e-7):
            qd = M.roots_from_modulus((lam, a + d))
            values.append(math.sqrt(-qd.c) * P.r_term((lam, a + d)))
        assert np.all(np.isfinite(values))
        assert max(abs(v) for v in values) < 10.0


class TestJInterval:
    def test_both_branches(self):
        lo, hi = P.j_interval(-1.3)
        assert lo == 1.0 and hi == pytest.approx(M.chi(-1.3))
        lo, hi = P.j_interval(-0.95)
        assert lo == pytest.approx(M.chi(-0.95)) and math.isinf(hi)

    def test_nonempty_below_minus_one(self):
        for lam in (-1.0, -1.5, -2.5):
            lo, hi = P.j_interval(lam)
            assert hi > lo

    def test_domain(self):
        with pytest.raises(DomainError):
            P.j_interval(-0.5)


class TestFindString:
    def test_eleven_tenths(self):
        rec = P.find_string(-1.01, "11/10")
        assert abs(rec.period_value - 1.1) <= 1e-9
        assert rec.wave_number == 10
        assert rec.turning_number == 11
        assert rec.isotopy_classes == 11
        assert rec.length == pytest.approx(10.0 * rec.wavelength)

    def test_q_outside_interval(self):
        with pytest.raises(CharacteristicIntervalError) as info:
            P.find_string(-1.2, Fraction(6, 5))
        assert info.value.interval is not None

    def test_closure_of_found_string(self):
        # lambda = -0.95 admits q = 6/5; the generated curve must return to
        # its start after n periods and be invariant under rotation by
        # 2 pi m / n realized as the one-period shift
        rec = P.find_string(-0.95, Fraction(6, 5))
        curve = C.bt_curve(rec.modulus, samples=64,
                           periods=float(rec.wave_number))
        start = curve.gamma_at(np.array([0.0]))[0]
        end = curve.gamma_at(np.array([rec.length]))[0]
        assert np.max(np.abs(end - start)) <= 1e-6

        alpha = 2.0 * math.pi * rec.turning_number / rec.wave_number
        rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                        [math.sin(alpha), math.cos(alpha)]])
        s = np.linspace(0.0, rec.wavelength, 41)
        zeta = C.to_poincare(curve.gamma_at(s))
        zeta_next = C.to_poincare(curve.gamma_at(s + rec.wavelength))
        assert np.max(np.abs(zeta_next - zeta @ rot.T)) <= 1e-4

    def test_rationality_criterion(self):
        # an irrational-like period value must not close after n periods
        lam = -1.01
        rec = P.find_string(lam, "11/10")
        off = M.classify_region(lam, rec.modulus.e2 + 5e-3)
        curve = C.bt_curve(off, samples=32, periods=10.0)
        start = curve.gamma_at(np.array([0.0]))[0]
        end = curve.gamma_at(np.array([10.0 * curve.wavelength]))[0]
        assert np.max(np.abs(end - start)) > 1e-3

    def test_all_candidates_reported(self):
        roots = P.string_candidates(-1.01, "11/10")
        assert len(roots) >= 1
        assert roots == sorted(roots)

    def test_non_monotone_territory(self):
        # below the transition multiplier the slice has an interior minimum;
        # the bracketing scan must still find the crossing
        lam = -0.99
        rec = P.find_string(lam, Fraction(3, 2))
        assert abs(rec.period_value - 1.5) <= 1e-9
        curve = C.bt_curve(rec.modulus, samples=64, periods=2.0)
        start = curve.gamma_at(np.array([0.0]))[0]
        end = curve.gamma_at(np.array([2.0 * curve.wavelength]))[0]
        assert np.max(np.abs(end - start)) <= 1e-6

    def test_unreachable_crossing_is_reported(self):
        # the divergence of the slice map above lambda = -1 is logarithmic,
        # so the fiber of a large characteristic number hugs the saddle
        # boundary exponentially closely (here around e2 - a ~ 1e-23, below
        # floating-point resolution); the scan must report the failed
        # bracket instead of fabricating a root
        from halfelastica.errors import BracketError

        with pytest.raises(BracketError):
            P.find_string(-0.99, Fraction(7, 2))

    def test_string_monodromy_has_finite_order(self):
        rec = P.find_string(-1.01, "11/10")
        mono = C.monodromy(rec.modulus)
        assert mono.kind is C.MonodromyClass.ELLIPTIC_ROTATION
        power = np.linalg.matrix_power(mono.matrix, rec.wave_number)
        # measured 1.4e-14
        assert np.max(np.abs(power - np.eye(3))) <= 1e-12


def _loop_roots(grid, vals, solve):
    """The bracket search as a loop over neighbouring scan values: an exact
    zero is a root, a sign change is refined by ``solve``."""
    roots = []
    for i in range(len(grid) - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(float(grid[i]))
        elif va * vb < 0.0:
            roots.append(solve(grid[i], grid[i + 1]))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def _crafted_scan(case):
    # scan values of magnitude >= 1e-3 (so adding and subtracting q keeps
    # every sign) with the exact zeros and NaNs of each case
    v = np.where(np.arange(P._N_SCAN) % 97 < 60, 0.25, -0.5)
    if case == "zero ends":
        v[0] = v[-1] = 0.0
    elif case == "interior zero":
        v[200] = 0.0
    elif case == "adjacent zeros":
        v[100] = v[101] = 0.0
    elif case == "zero beside a sign change":
        v[58], v[59], v[60] = 0.0, 0.25, -0.5
        v[300], v[301] = -0.5, 0.0
    elif case == "nans":
        v[10] = np.nan
        v[59] = np.nan
        v[400:403] = np.nan
        v[-1] = np.nan
    elif case == "everything":
        v[0] = v[200] = v[100] = v[101] = v[-1] = 0.0
        v[58] = 0.0
        v[150] = v[450] = np.nan
    return v


@pytest.mark.parametrize("case", ["zero ends", "interior zero", "adjacent zeros",
                                  "zero beside a sign change", "nans",
                                  "everything"])
def test_bracket_search_matches_loop(case, monkeypatch):
    """The array bracket search gives the roots of the loop over neighbours,
    in the same order, from the same brentq brackets."""
    lam, q = -1.3, Fraction(51, 50)
    qv = float(q)
    crafted = _crafted_scan(case)
    scans, brackets = [], []

    def scan(lam_arg, grid):
        scans.append(np.array(grid))
        return crafted + qv

    def solve(f, a, b, **kwargs):
        brackets.append((float(a), float(b), kwargs))
        return 0.5 * (a + b)

    monkeypatch.setattr(P, "period_map_slice", scan)
    monkeypatch.setattr(P, "brentq", solve)
    roots = P.string_candidates(lam, q)
    found = brackets[:]
    del brackets[:]
    (grid,) = scans
    expected = _loop_roots(grid, (crafted + qv) - qv,
                           lambda a, b: solve(None, a, b, xtol=1e-14,
                                              rtol=8.9e-16))
    assert roots == expected
    assert found == brackets
    assert all(type(r) is float for r in roots)
    assert len(roots) > 1


def test_bracket_search_without_crossing(monkeypatch):
    monkeypatch.setattr(P, "period_map_slice",
                        lambda lam, grid: np.full(len(grid), np.nan))
    with pytest.raises(BracketError):
        P.string_candidates(-1.3, Fraction(51, 50))


@pytest.mark.parametrize("lam, q", [(-1.5, "101/100"), (-0.99, "3/2"),
                                    (-0.9, "3/2")])
def test_find_string_solves_boundary_quartic_once(lam, q, monkeypatch):
    """One eta+- solve gives the admissible interval and both ends of the
    scanned slice, and they are the ones j_interval, a_lower and eta_pm
    give."""
    interval, lower, upper = P.j_interval(lam), M.a_lower(lam), M.eta_pm(lam)[1]
    calls, scans = [], []
    solve, scan = M.eta_pm, P.period_map_slice

    def counting(lam_arg):
        calls.append(lam_arg)
        return solve(lam_arg)

    def recording(lam_arg, grid):
        scans.append(np.array(grid))
        return scan(lam_arg, grid)

    monkeypatch.setattr(M, "eta_pm", counting)
    monkeypatch.setattr(P, "eta_pm", counting)
    monkeypatch.setattr(P, "period_map_slice", recording)
    P.find_string(lam, q)
    assert calls == [lam]
    inset = 1e-7 * (upper - lower)
    assert scans[0].tobytes() == np.linspace(lower + inset, upper - inset,
                                             P._N_SCAN).tobytes()
    with pytest.raises(CharacteristicIntervalError) as info:
        P.string_candidates(lam, Fraction(1, 2))
    assert info.value.interval == interval


def test_exact_locus_float_point():
    """A pair on E whose float locus residual T is exactly 0, so kappa1 is
    0, as a crossing search along E can meet: the closed form divides by
    neither, so P is a Python float within 1e-13 of the 40-digit reference
    and equal to its one-point slice, with no RuntimeWarning.  sign(T) = 0
    there, so the divergent term is 0 and the offset 1/2; n1 and B, which
    are infinite, are withheld, and the identities that need them raise
    RegionError."""
    p = (-1.17398550521972, 2.1744797279556325)
    qd = M.roots_from_modulus(p)
    assert M.exceptional_residual(qd.e1, p[1]) == 0.0
    assert M.classify_region(*p).region is M.Region.E
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = P.period_map(p)
        assert type(value) is float
        assert abs(value - reference.period_map(*p)) <= 1e-13
        assert P.period_map_slice(p[0], [p[1]]).tolist() == [value]
        assert P.elliptic_coeffs(p).n1 is None
        assert P.divergent_term(p) == 0.0
        with pytest.raises(RegionError):
            P.coefficient_identity_residuals(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not math.isfinite(P.b_plus_c_closed_form(p))
    assert type(D.wavelength(p)) is float


@pytest.mark.parametrize("lam", [-1.8, -1.3, -0.95])
def test_period_map_across_the_exceptional_locus(lam):
    """One formula on both sides of E: at d = e2 - exceptional_c(lam) =
    +-1e-3 down to +-1e-12 the scalar path and a one-point slice are within
    1e-13 of the 40-digit reference (measured 5.5e-15 at lam = -1.8, 8.2e-16
    at -1.3 and 7.5e-16 at -0.95).  The points within the E tag's tolerance
    get finite n1 and B, which the period map does not use."""
    ce = M.exceptional_c(lam)
    worst = 0.0
    for d in (1e-3, 1e-5, 1e-7, 1e-9, 1e-12):
        for e2 in (ce - d, ce + d):
            ref = reference.period_map(lam, e2)
            for value in (P.period_map((lam, e2)),
                          P.period_map_slice(lam, [e2])[0]):
                worst = max(worst, abs(value - ref))
    assert worst <= 1e-13
    tagged = M.classify_region(lam, ce + 1e-12)
    assert tagged.region is M.Region.E
    co = P.elliptic_coeffs(tagged)
    assert co.n1 is not None and math.isfinite(co.n1) and math.isfinite(co.B)


def test_divergent_term_matches_pi_n1(rng):
    """Away from E, D = (2 sqrt|c|/pi) sign(T) beta G(nu, m) is the term
    (2 sqrt|c|/pi) B Pi(n1, m) formed from the reported n1 and B."""
    worst = 0.0
    for pt in sample_timelike(rng, 40):
        co = P.elliptic_coeffs(pt)
        direct = (2.0 * math.sqrt(-M.resolve(pt).quartic.c) / math.pi
                  * co.B * ellint.complete_Pi(co.n1, co.m))
        worst = max(worst, abs(P.divergent_term(pt) - direct))
    assert worst <= 1e-12


@pytest.mark.parametrize("lam", [-1.05, -1.3, -2.0, -3.0])
def test_period_map_next_to_the_light_like_locus(lam):
    """At heights 1e-2 down to 1e-5 of the slice width (eta+ - b0) above
    L, where 2 sc e1 < 0.17 and kappa1 is the difference 1 - 2 sc e1, the
    scalar path and a one-point slice are within 2e-14 of the 40-digit
    reference (measured 1.8e-15)."""
    a, eta_p = M.b0(lam), M.eta_pm(lam)[1]
    worst = 0.0
    for h in (1e-2, 1e-3, 1e-4, 1e-5):
        e2 = a + h * (eta_p - a)
        qd = M.roots_from_modulus((lam, e2))
        assert 2.0 * qd.sc * qd.e1 < 0.17
        assert qd.kappa1 == 1.0 - 2.0 * qd.sc * qd.e1
        ref = reference.period_map(lam, e2)
        for value in (P.period_map((lam, e2)),
                      P.period_map_slice(lam, [e2])[0]):
            worst = max(worst, abs(value - ref))
    assert worst <= 2e-14


def test_rounded_light_like_point():
    """A time-like pair just above L whose float c rounds to >= 0, so that
    sqrt|c| is 0: the scalar path gives the NaN of the one-point slice and
    numpy's infinite B and C, never ZeroDivisionError or a math domain
    error, and the divergent term raises a RegionError naming the point."""
    p = (-1.2010999999999998, 1.8664128662516606)
    assert M.roots_from_modulus(p).c >= 0.0
    assert M.roots_from_modulus(p).sc == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        assert math.isnan(P.period_map(p))
        assert math.isnan(P.period_map_slice(p[0], [p[1]])[0])
        co = P.elliptic_coeffs(p)
        assert math.isinf(co.B) and math.isinf(co.C)
    with pytest.raises(RegionError, match=re.escape(f"({p[0]}, {p[1]})")):
        P.divergent_term(p)


class TestFiberEndpoint:
    def test_eleven_tenths(self):
        lam_star, e_star = P.fiber_endpoint("11/10")
        assert e_star == pytest.approx(1.8812, abs=5e-4)
        assert M.eta_pm(lam_star)[1] == pytest.approx(e_star, abs=1e-8)

    def test_large_q_tends_to_fold_height(self):
        _, e_star = P.fiber_endpoint(Fraction(1000, 1))
        assert e_star == pytest.approx(3.0**0.25, abs=1e-4)

    def test_rejects_small_q(self):
        with pytest.raises(DomainError):
            P.fiber_endpoint(Fraction(9, 10))


@pytest.mark.parametrize("q", ["1/0", (1, 0), "x/2", "1/", "11/10/", math.nan,
                               math.inf, -math.inf])
def test_unreadable_characteristic_is_a_domain_error(q):
    """A q that is no finite rational raises DomainError naming it, from
    every entry point that reads one, not ZeroDivisionError, ValueError or
    OverflowError."""
    calls = (lambda: P.find_string(-1.01, q), lambda: P.trace_fiber(q, 4),
             lambda: P.fiber_endpoint(q),
             lambda: P.family_invariants(q, (-1.3, 2.3)))
    for call in calls:
        with pytest.raises(DomainError, match=re.escape(f"q={q!r}")):
            call()


@pytest.fixture(scope="module")
def trace():
    return P.trace_fiber("11/10", steps=80)


class TestTraceFiber:

    def test_endpoints(self, trace):
        first, last = trace.points[0], trace.points[-1]
        assert abs(first.lam + 1.0) < 0.01 and abs(first.e2 - 1.0) < 0.01
        lam_star, e_star = P.fiber_endpoint("11/10")
        assert last.lam == pytest.approx(lam_star, abs=1e-3)
        assert last.e2 == pytest.approx(e_star, abs=1e-3)

    def test_locus_crossing(self, trace):
        assert trace.crossing is not None
        assert trace.crossing.e2 == pytest.approx(1.71966, abs=5e-4)
        assert trace.crossing.region is M.Region.E

    def test_on_fiber_and_timelike(self, trace):
        for pt in trace.points[:: 8]:
            assert pt.region in (M.Region.T_MINUS, M.Region.E, M.Region.T_PLUS)
            assert abs(P.period_map(pt) - 1.1) <= 1e-7


def _scalar_fiber_rows(q, steps):
    """The fiber rows solved height by height with brentq, at the heights,
    brackets and step tolerances of the batched solve."""
    qv = float(Fraction(q))
    _, e_star = P.fiber_endpoint(q)
    heights = np.linspace(1.0 + 1e-3 * (e_star - 1.0),
                          e_star - 1e-5 * (e_star - 1.0), steps)
    rows = []
    for e2 in heights.tolist():
        lam_lo, lam_hi = P._lambda_bracket(e2)
        lam = brentq(lambda lam: P.period_map((lam, e2)) - qv, lam_lo + 1e-8,
                     lam_hi - 1e-8, xtol=1e-13, rtol=8.9e-16)
        rows.append((lam, e2))
    return rows


@pytest.mark.parametrize("q", ["11/10", "23/20", "6/5"])
def test_trace_sides_match_exceptional_height(q):
    """The batched rows match a scalar brentq solve; the side of E read from
    T on each row is the side e2 - exceptional_c(lam) gives; the crossing
    lies on E, which is the curve e1 = -2 lam, and on the fiber."""
    tr = P.trace_fiber(q, steps=60)
    rows = [pt for pt in tr.points if pt is not tr.crossing]
    reference = _scalar_fiber_rows(q, 60)
    assert [pt.e2 for pt in rows] == [e2 for _, e2 in reference]
    assert max(abs(pt.lam - lam) for pt, (lam, _) in zip(rows, reference)) <= 1e-11
    for pt in rows:
        if pt.lam < M.LAMBDA_EXCEPTIONAL:
            side = M.exceptional_residual(M.resolve(pt).quartic.e1, pt.e2)
            assert np.sign(side) == np.sign(pt.e2 - M.exceptional_c(pt.lam))
    crossing = tr.crossing
    assert crossing is not None and crossing.region is M.Region.E
    assert abs(P.period_map(crossing) - float(Fraction(q))) <= 1e-12
    assert abs(M.resolve(crossing).quartic.e1 + 2.0 * crossing.lam) <= 1e-12


@pytest.mark.parametrize("q", ["19/16", "11/10", "6/5", "13/11", "24/23", "25/24"])
def test_fiber_rows_stop_on_their_residual(q):
    """Every non-E row of the trace is on the fiber: within 1e-9 of q by the
    oracle, the bench's check, and within 1e-11 by the closed form, or,
    where P is too steep in lambda for that, at the float that comes
    closest within 8 ulps.  The first row of 19/16, where dP/dlambda is
    about 1.4e5 (1.5e-11 per ulp), reads 1.39e-11, and 3.46e-11 one float
    up; stopping on the step alone left it at 1.80e-9, 118 ulps off."""
    qv = float(Fraction(q))
    rows = [pt for pt in P.trace_fiber(q, steps=200).points
            if pt.region is not M.Region.E]
    for pt in rows:
        miss = abs(P.period_map(pt) - qv)
        if miss > 1e-11:
            nearby = pt.lam + np.spacing(pt.lam) * np.arange(-8, 9)
            assert miss <= min(abs(P.period_map((lam, pt.e2)) - qv)
                               for lam in nearby.tolist()), (pt, miss)
        assert abs(P.period_map_oracle(pt) - qv) <= 1e-9, pt


@pytest.mark.parametrize("steps", [2, 3])
def test_coarse_trace_finds_the_crossing(steps):
    """The first row lies below the lowest height of E, so the crossing is
    bracketed from where E starts."""
    tr = P.trace_fiber("11/10", steps=steps)
    assert tr.points[0].e2 < M.E2_EXCEPTIONAL_MIN
    fine = P.trace_fiber("11/10", steps=60).crossing
    assert tr.crossing.region is M.Region.E
    assert abs(tr.crossing.e2 - fine.e2) <= 1e-12
    assert abs(tr.crossing.lam - fine.lam) <= 1e-12


@pytest.mark.parametrize("q", ["11/10", "19/16", "25/24"])
def test_crossing_solves_each_multiplier_once(q, monkeypatch):
    """The crossing's outer brentq in e2 solves for the multiplier on E once
    at each height it evaluates, and the crossing is classified at the
    multiplier of its root, with no further solve."""
    inner, outer_evals = [], []
    solve = P.brentq

    def counting(f, a, b, *args, **kwargs):
        if a < 0.0:
            # a multiplier bracket: the inner solve onto E
            inner.append((a, b))
            return solve(f, a, b, *args, **kwargs)

        def counted(x):
            outer_evals.append(x)
            return f(x)

        return solve(counted, a, b, *args, **kwargs)

    monkeypatch.setattr(P, "brentq", counting)
    assert P.trace_fiber(q, steps=200).crossing is not None
    assert outer_evals and len(inner) == len(outer_evals)


def test_trace_solves_no_exceptional_height(monkeypatch):
    calls = []
    solve = M.exceptional_c

    def counting(lam):
        calls.append(lam)
        return solve(lam)

    monkeypatch.setattr(M, "exceptional_c", counting)
    monkeypatch.setattr(P, "exceptional_c", counting, raising=False)
    tr = P.trace_fiber("11/10", steps=60)
    assert tr.crossing is not None
    assert calls == []


class TestFamilyInvariants:
    def test_punctured_classes(self):
        tr = P.trace_fiber("11/10", steps=60)
        below = next(pt for pt in tr.points if pt.region is M.Region.T_MINUS)
        above = next(pt for pt in tr.points if pt.region is M.Region.T_PLUS)
        assert P.family_invariants("11/10", below).punctured_class == 1
        assert P.family_invariants("11/10", above).punctured_class == 11

    def test_isotopy_count_examples(self):
        inv = P.family_invariants("7/5", M.classify_region(-0.95, 1.3))
        assert inv.isotopy_classes == 7  # j = 3 for denominator 5

    def test_wavelength_decreases_along_fiber(self, trace):
        omegas = [D.wavelength(pt) for pt in trace.points[2::8]]
        assert all(a > b for a, b in zip(omegas, omegas[1:]))
        inv = P.family_invariants("11/10", trace.points[0])
        # the wavelength approaches its terminal value from above
        assert omegas[-1] > inv.limit_wavelength
        assert omegas[-1] == pytest.approx(inv.limit_wavelength, rel=5e-3)

    def test_limit_circle_data(self):
        inv = P.family_invariants("11/10", M.classify_region(-1.01, 1.5))
        lam_star, e_star = P.fiber_endpoint("11/10")
        # terminal circle: curvature e*^2, disk radius kappa - sqrt(kappa^2-1)
        r_q = 1.0 / (e_star**2 + math.sqrt(e_star**4 - 1.0))
        assert inv.limit_radius == pytest.approx(r_q, rel=1e-12)
        assert inv.limit_wavelength == pytest.approx(
            4.0 * 1.1 * math.pi * r_q / (1.0 - r_q * r_q), rel=1e-12)
        # consistency with the small-oscillation period at the terminal
        # multiplier: 4 q pi r/(1-r^2) == 2 pi / sqrt(e*^4 - 3)
        assert inv.limit_wavelength == pytest.approx(
            D.linearized_center_period(lam_star), rel=1e-12)
        assert inv.limit_length == pytest.approx(10.0 * inv.limit_wavelength)

    def test_family_limit_positions(self, trace):
        # toward the corner the strings swell to the ideal boundary; toward
        # the terminal point the annulus collapses onto the limit circle
        inner0, outer0 = C.bt_annulus_radii(trace.points[0])
        assert outer0 > 0.9
        inner1, outer1 = C.bt_annulus_radii(trace.points[-1])
        inv = P.family_invariants("11/10", trace.points[-1])
        assert inner1 == pytest.approx(inv.limit_radius, abs=5e-3)
        assert outer1 == pytest.approx(inv.limit_radius, abs=5e-3)


def test_monotonicity_transition_location():
    lam_star = P.monotonicity_transition()
    assert lam_star == pytest.approx(-0.98148, abs=1e-3)


def test_scan_shapes():
    # strictly decreasing slice above the transition, interior minimum below
    def slice_values(lam, n=80):
        a, ep = M.a_lower(lam), M.eta_pm(lam)[1]
        grid = a + (ep - a) * np.linspace(0.02, 0.995, n)
        return np.array([P.period_map((lam, e2)) for e2 in grid])

    decreasing = slice_values(-0.96)
    assert np.all(np.diff(decreasing) < 0.0)
    dipping = slice_values(-0.999)
    diffs = np.diff(dipping)
    assert np.any(diffs < 0.0) and np.any(diffs[np.argmin(dipping):] > 0.0)


SLICE_LAMBDAS = (-1.8, -1.3, -1.2, -1.01, -0.95, -0.92, -0.9466507279281713)
OFFSET_REGION = {1.0: M.Region.T_MINUS, 0.5: M.Region.E, 0.0: M.Region.T_PLUS}


def _scan_grid(lam, n_scan=512):
    a, eta_p = M.a_lower(lam), M.eta_pm(lam)[1]
    inset = 1e-7 * (eta_p - a)
    return np.linspace(a + inset, eta_p - inset, n_scan)


def _scalar_candidates(lam, q, n_scan=512):
    """string_candidates with its scan evaluated height by height."""
    qv = float(Fraction(q))
    grid = _scan_grid(lam, n_scan)
    vals = np.array([P.period_map((lam, e2)) - qv for e2 in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(lambda e2: P.period_map((lam, e2)) - qv,
                                grid[i], grid[i + 1], xtol=1e-14,
                                rtol=8.9e-16))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


class TestPeriodMapSlice:
    @pytest.mark.parametrize("lam", SLICE_LAMBDAS)
    def test_matches_scalar_loop(self, lam):
        a, eta_p = M.a_lower(lam), M.eta_pm(lam)[1]
        grid = _scan_grid(lam)
        if lam < M.LAMBDA_EXCEPTIONAL:
            ce = M.exceptional_c(lam)
            band = ce + np.array([-3e-6, -1e-7, 0.0, 1e-7, 3e-6])
            grid = np.sort(np.concatenate([grid, band]))
        values = P.period_map_slice(lam, grid)
        qd = P._timelike_slice(lam, grid)
        offsets = P._slice_offsets(lam, qd)
        ref = np.array([P.period_map((lam, e2)) for e2 in grid])
        regions = [OFFSET_REGION[float(P._slice_offsets(
            lam, P._timelike_quartic((lam, e2))[1]))] for e2 in grid]
        assert [OFFSET_REGION[o] for o in offsets] == regions
        if lam < M.LAMBDA_EXCEPTIONAL:
            assert regions.count(M.Region.E) >= 3
        err = np.abs(values - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-9
        interior = (grid - a > 0.01 * (eta_p - a)) & (eta_p - grid > 0.01 * (eta_p - a))
        assert err[interior].max() <= 1e-11

    @pytest.mark.parametrize("lam, q", [(-1.01, "11/10"), (-1.2, "29/28"),
                                        (-0.95, "6/5"), (-0.99, "3/2")])
    def test_candidates_match_scalar_scan(self, lam, q):
        assert P.string_candidates(lam, q) == _scalar_candidates(lam, q)

    def test_find_string_makes_few_scalar_calls(self, monkeypatch):
        calls = []
        scalar = P.period_map

        def counting(*args, **kwargs):
            calls.append(args)
            return scalar(*args, **kwargs)

        monkeypatch.setattr(P, "period_map", counting)
        P.find_string(-1.01, "11/10")
        assert 0 < len(calls) <= 64

    def test_rejects_heights_outside_the_timelike_slice(self):
        with pytest.raises(RegionError):
            P.period_map_slice(-1.3, [2.3, 1.2])

    def test_multiplier_array_matches_scalar_loop(self, trace):
        """An array lam broadcasts against the heights: the rows of a fiber
        in one call, equal to the scalar loop within the bounds above."""
        lam = np.array([pt.lam for pt in trace.points])
        e2 = np.array([pt.e2 for pt in trace.points])
        values = P.period_map_slice(lam, e2)
        qd = P._timelike_slice(lam, e2)
        offsets = P._slice_offsets(lam, qd)
        ref = np.array([P.period_map(pt) for pt in trace.points])
        assert ([OFFSET_REGION[o] for o in offsets]
                == [pt.region for pt in trace.points])
        assert np.max(np.abs(values - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-11
        with pytest.raises(RegionError, match=r"\(-1\.3, 1\.2\)"):
            P.period_map_slice(np.array([-1.3, -1.3]), [2.3, 1.2])


@pytest.mark.parametrize("lam, e2", [
    (-3970.806660815663, 7941.613321631323),
    (-5.1560466965201175e19, 1.0312093393040235e20),
])
def test_point_without_amplitude_is_rejected(lam, e2):
    """Time-like by the strict sign tests, but its quartic has e1 <= e2:
    each period-map route raises a RegionError naming the point, and
    wavelength, which once returned the linearized center period there,
    finds a B+ point outside the moduli space."""
    named = re.escape(f"({lam}, {e2})")
    with pytest.raises(RegionError, match=named):
        P.period_map((lam, e2))
    with pytest.raises(DomainError, match="BOUNDARY_PLUS"):
        D.wavelength((lam, e2))
    with pytest.raises(RegionError, match=named):
        P.period_map_slice(lam, [e2])
    with pytest.raises(RegionError, match=named):
        P.period_map_slice(np.array([lam]), [e2])


@pytest.mark.parametrize("fn", [P.period_map, P.period_map_oracle, D.wavelength])
@pytest.mark.parametrize("point", [(-1.3, 2.3), (-0.95, 1.3)])
def test_scalar_values_are_python_floats(fn, point):
    assert type(fn(point)) is float


@pytest.mark.parametrize("point", [(-1.3, 2.3), M.classify_region(-1.3, 2.3)])
@pytest.mark.parametrize("fn", [P.period_map, P.elliptic_coeffs,
                                P.divergent_term, P.period_map_oracle,
                                P.b_plus_c_closed_form,
                                P.coefficient_identity_residuals])
def test_quartic_solved_once_per_evaluation(fn, point, quartic_solves):
    """One solve from the input to the value: a pair is solved by the
    evaluation, a point by its classification, which it then carries."""
    if isinstance(point, M.ModulusPoint):
        point = M.classify_region(point.lam, point.e2)
    fn(point)
    assert len(quartic_solves) == 1


@pytest.mark.parametrize("evaluate", [
    lambda: P.period_map_oracle((-1.3, 2.3)),
    lambda: P.period_map(M.classify_region(-1.3, 2.3)),
    # T+ at d = 3e-4 above E, where the curve takes kappa1 from T
    lambda: C.bt_curve((-0.95, 1.4665804384720835), samples=64),
], ids=["oracle", "classified-point", "band-curve"])
def test_locus_residual_solved_with_the_quartic(evaluate, quartic_solves,
                                                locus_residuals):
    """T is evaluated once per quartic solve, with the roots, and every
    offset, factor, tag and curve reads it from the record."""
    evaluate()
    assert len(quartic_solves) == 1
    assert len(locus_residuals) == 1


@pytest.mark.parametrize("lam, e2", [
    (math.nan, 1.5), (math.inf, 1.5), (-math.inf, 1.5),
    (-1.2, math.nan), (-1.2, math.inf), (-1.2, -math.inf),
])
def test_non_finite_input(lam, e2):
    assert M.classify_region(lam, e2).region is M.Region.OUTSIDE
    with pytest.raises(RegionError):
        P.period_map((lam, e2))
    with pytest.raises(RegionError):
        P.period_map_slice(lam, [2.3, e2])


def test_unreachable_fiber_raises_bracket_error():
    with pytest.raises(BracketError) as info:
        P.trace_fiber("4/3", steps=20)
    message = str(info.value)
    assert "q=1.3333333333333333" in message
    assert "e2=" in message and "bracket" in message


# _chandrupatla against scipy's find_root, the reference it transcribes, at
# the step and residual tolerances of trace_fiber
XRTOL = 4.0 * np.finfo(float).eps
FIND_ROOT_TOLERANCES = {"xatol": 1e-14, "xrtol": XRTOL, "fatol": 1e-13, "frtol": 0.0}


def _fiber_rows(q, steps):
    """The residual, brackets and heights of trace_fiber's array solve."""
    qv = float(Fraction(q))
    _, e_star = P.fiber_endpoint(q)
    heights = np.linspace(1.0 + 1e-3 * (e_star - 1.0),
                          e_star - 1e-5 * (e_star - 1.0), steps)
    lam_lo, lam_hi = P._lambda_bracket(heights)
    return (lambda lam, e2: P.period_map_slice(lam, e2) - qv,
            lam_lo + 1e-8, lam_hi - 1e-8, heights)


def _solve_both(f, lo, hi, args, tolerances=FIND_ROOT_TOLERANCES):
    """_chandrupatla's (x, success), after asserting both equal find_root's
    bit for bit, NaN included."""
    x, success = P._chandrupatla(f, lo, hi, args, tolerances["xatol"],
                                 tolerances["xrtol"], tolerances["fatol"])
    ref = find_root(f, (lo, hi), args=args, tolerances=tolerances)
    assert x.dtype == np.float64 and x.shape == np.shape(ref.x)
    assert x.tobytes() == np.asarray(ref.x, dtype=float).tobytes()
    assert success.tolist() == np.asarray(ref.success).tolist()
    return x, success, ref


@pytest.mark.parametrize("q", ["11/10", "6/5", "19/16", "13/11", "24/23"])
def test_fiber_solver_matches_find_root(q):
    f, lo, hi, heights = _fiber_rows(q, 200)
    x, success, ref = _solve_both(f, lo, hi, (heights,))
    assert success.all()
    # rows stop at different iterations, so stopped rows are dropped mid-solve
    assert ref.nit.max() - ref.nit.min() >= 4
    assert [pt.lam for pt in P.trace_fiber(q, steps=200).points
            if pt.region is not M.Region.E] == x.tolist()


def test_fiber_solver_on_no_rows():
    x, success, _ = _solve_both(*_fiber_rows("11/10", 0)[:3], (np.empty(0),))
    assert x.size == 0 and success.size == 0
    trace = P.trace_fiber("11/10", steps=0)
    assert trace.points == () and trace.crossing is None


def test_fiber_solver_row_without_sign_change():
    """At q = 4/3 the first rows have no sign change on their brackets: they
    fail with NaN, and trace_fiber names the first of them as it did with
    find_root."""
    f, lo, hi, heights = _fiber_rows("4/3", 20)
    x, success, _ = _solve_both(f, lo, hi, (heights,))
    assert not success.all() and success.any()
    assert np.isnan(x[~success]).all() and np.isfinite(x[success]).all()
    i = int(np.argmin(success))
    with pytest.raises(BracketError) as info:
        P.trace_fiber("4/3", steps=20)
    assert str(info.value) == (
        f"no sign change of P - q on the full lambda bracket "
        f"[{float(lo[i])!r}, {float(hi[i])!r}] for q={4 / 3!r} at "
        f"e2={float(heights[i])!r}")


def test_solver_edge_rows_match_find_root():
    """Exact zeros at either bracket end and at the first iterate, a
    bracket without sign change, NaN values at both ends and an infinite
    abscissa, next to ordinary rows that keep iterating, at fatol = 0 and
    at fatol > 0, where a row also stops once |f| <= fatol at the end with
    the smaller |f|, even where the bracket has no sign change (the last
    row)."""
    lo = np.array([1.0, 0.0, 0.0, 2.0, 0.0, -np.inf, 0.0, 0.0, 2.0])
    hi = np.array([3.0, 2.0, 2.0, 3.0, 2.0, 2.0, 2.0, 2.0, 3.0])
    c = np.array([1.0, 8.0, 2.0, 1.0, np.nan, 2.0, 1.0, 5.0, 7.9995])
    cube_roots = np.array([2.0, 5.0]) ** (1 / 3)
    for fatol, calls in ((0.0, [18, 3, 2, 2, 2, 2, 2, 2, 1]),
                         (1e-3, [18, 3, 2, 2, 2, 2])):
        tolerances = dict(FIND_ROOT_TOLERANCES, xatol=1e-13, fatol=fatol)
        with np.errstate(invalid="ignore"):
            x, success, _ = _solve_both(lambda x, c: x**3 - c, lo, hi, (c,),
                                        tolerances)
        assert success.tolist() == [True, True, True, False, False, False,
                                    True, True, fatol > 0.0]
        assert x[[0, 1, 6]].tolist() == [1.0, 2.0, 1.0]
        if fatol:
            # the residual stop: two rows stop 1e-5 from their roots, and
            # the last row at its bracket end 2, whose |f| is 5e-4
            assert (np.abs(x[[2, 7]] ** 3 - c[[2, 7]]) <= fatol).all()
            assert (np.abs(x[[2, 7]] - cube_roots) > 1e-6).all() and x[8] == 2.0
        else:
            assert (np.abs(x[[2, 7]] - cube_roots) <= 1e-13).all()
        sizes = []

        def counting(x, c):
            sizes.append(x.size)
            return x**3 - c

        with np.errstate(invalid="ignore"):
            P._chandrupatla(counting, lo, hi, (c,), 1e-13, XRTOL, fatol)
        # both ends in one call; a row is not evaluated again once it stops
        assert sizes == calls


def _closed_form_unshared(lam, qd):
    """_closed_form's P with T evaluated in each factor that uses it and K,
    G(nu, m) and Pi(n2) evaluated one by one, each with its own R_F(0,
    1 - m, 1); Pi(n2) as R_F + (n2/3) R_J, the period map's form, which
    complete_Pi leaves at n2 < 0.  The record's sc and kappa1 are checked
    against their rule: sqrt(max(-c, 0)), and 1 - 2 sc e1 where 2 sc e1 <=
    1/2, else (1 + 4 c e1^2)/(1 + 2 sc e1) with 1 + 4 c e1^2 from T."""
    _, m, nu, n2, a_coeff, beta, c_coeff, _ = P._coefficients(lam, qd)
    sc = np.sqrt(np.maximum(-qd.c, 0.0))
    two_sc_e1 = 2.0 * sc * qd.e1
    assert qd.sc.tobytes() == sc.tobytes()
    assert qd.kappa1.tobytes() == np.where(
        two_sc_e1 <= 0.5, 1.0 - two_sc_e1,
        M.radial_degeneracy(qd.e1, qd.e2) / (1.0 + two_sc_e1)).tobytes()
    sign = np.sign(M.exceptional_residual(qd.e1, qd.e2))
    scale = 2.0 * np.sqrt(-qd.c) / math.pi
    divergent = scale * sign * beta * ellint._scaled_Pi(nu, m, ellint.complete_K(m))
    return (scale * (a_coeff * ellint.complete_K(m)
                     + c_coeff * ellint.complete_K_Pi(m, n2)[1])
            + divergent + 0.5 * (1.0 - sign))


def _band_heights(lam):
    a, eta_p = M.a_lower(lam), M.eta_pm(lam)[1]
    return a + (eta_p - a) * np.array([1e-14, 1e-13, 0.3, 0.7])


@pytest.mark.parametrize("lam, e2", [
    (-1.3, 2.477640202588786 + np.array([-0.2, -3e-6, -1e-7, 0.0, 1e-7, 3e-6])),
    (-0.95, _band_heights(-0.95)),
    (-1.3, np.array([2.3])),
    (-0.95, np.array([1.0597236215964205])),
    (np.array([-1.3, -0.95, -1.01]), np.array([2.3, 1.3, 1.5])),
])
def test_slice_evaluation_shares_rf_and_t_bit_for_bit(lam, e2):
    """The slice's closed form, with one T per factor set and one R_F per
    evaluation, is bit for bit the expression that computes them apiece;
    so are the E/T-/T+ tags and the causal constant."""
    qd = P._timelike_slice(lam, e2)
    offset = P._slice_offsets(lam, qd)
    t = M.exceptional_residual(qd.e1, e2)
    on_locus = M.radial_degeneracy(qd.e1, e2) <= M._REGION_TOL
    assert offset.tolist() == np.where(
        np.asarray(lam) < M.LAMBDA_EXCEPTIONAL,
        0.5 * on_locus + (1.0 - on_locus) * (t < 0.0), 0.0).tolist()
    assert qd.c.tobytes() == M.reconstruct_lambda_c(qd.e1, e2)[1].tobytes()
    values = P.period_map_slice(lam, e2)
    assert values.tobytes() == _closed_form_unshared(lam, qd).tobytes()


def test_slice_evaluation_covers_e_band_and_asymptotic_route():
    qd = P._timelike_slice(-1.3, 2.477640202588786 + np.array([-1e-7, 0.0, 1e-7]))
    offset = P._slice_offsets(-1.3, qd)
    assert offset.tolist() == [0.5, 0.5, 0.5]
    qd = P._timelike_slice(-0.95, _band_heights(-0.95))
    one_minus = 1.0 - D.elliptic_arguments(qd)[1]
    assert (one_minus[:2] < 1e-12).all() and (one_minus[2:] > 1e-12).all()


@pytest.mark.parametrize("point, value", [
    ((-1.3, 2.3), 1.021065050599245),
    ((-0.95, 1.3), 1.2052628732678468),
    ((-1.01, 1.5), 1.0965966340623072),
    ((-1.3, 2.477640202588786), 1.0253443108829101),  # tagged E
    ((-0.95, 1.0597236215964205), 4.995862164855714),  # 1 - m below 1e-12
])
def test_scalar_period_map_unchanged(point, value):
    """Values of the scalar path of the one-formula closed form, bit for
    bit, and the same as a one-point slice.  The first four are within
    1.2e-15 of the 40-digit reference (2.1e-16, 1.7e-16, 6.7e-16 and
    1.0e-15); the last is 3.0e-3 off it, the lower-boundary defect of the
    e3 cancellation."""
    assert P.period_map(point) == value
    assert P.period_map_slice(point[0], [point[1]]).tolist() == [value]
