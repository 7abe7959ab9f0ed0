"""Curvature dynamics: phase field, orbit taxonomy, the closed-form
solution (against scipy's DOP853), wavelength closed form vs quadrature,
and the half-period inverse."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from halfelastica import curvegen as C
from halfelastica import dynamics as D
from halfelastica import moduli as M
from halfelastica.errors import DomainError, IntegrationError
from conftest import sample_moduli
import reference


def test_wavelength_solves_the_quartic_once(quartic_solves):
    D.wavelength((-1.3, 2.3))
    assert len(quartic_solves) == 1


class TestPhaseField:
    def test_equilibria_annihilate(self):
        for lam in (-1.0, -1.3):
            for eta in M.eta_pm(lam):
                fx, fy = D.phase_field(lam, eta, 0.0)
                assert abs(fx) <= 1e-14
                assert abs(fy) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            D.phase_field(-1.0, 0.0, 1.0)

    def test_matches_ode_flow(self):
        lam, x0, y0 = -1.3, 1.1, 0.2
        fx, fy = D.phase_field(lam, x0, y0)

        def rhs(_s, state):
            return D.phase_field(lam, *state)

        fwd = solve_ivp(rhs, (0.0, 1e-3), [x0, y0], rtol=1e-12, atol=1e-12,
                        dense_output=True)
        bwd = solve_ivp(rhs, (0.0, -1e-3), [x0, y0], rtol=1e-12, atol=1e-12,
                        dense_output=True)
        h = 1e-4
        approx = (fwd.sol(h) - bwd.sol(-h)) / (2.0 * h)
        assert approx[0] == pytest.approx(fx, abs=1e-6)
        assert approx[1] == pytest.approx(fy, abs=1e-6)

    def test_no_equilibria_above_critical(self):
        lam = M.LAMBDA_CRITICAL + 0.05
        xs = np.linspace(0.05, 4.0, 400)
        _, fy = zip(*(D.phase_field(lam, x, 0.0) for x in xs))
        assert np.min(np.abs(fy)) > 1e-3


class TestClassifyOrbit:
    def test_taxonomy(self):
        lam = -1.3
        em, ep = M.eta_pm(lam)
        ms = D.m_star(lam)
        assert D.classify_orbit(lam, 0.5 * (em + ep), 0.0) is D.OrbitKind.CLOSED
        assert D.classify_orbit(lam, 0.5 * em, 0.0) is D.OrbitKind.NONCLOSED_SECOND_KIND
        assert D.classify_orbit(lam, ms, 0.0) is D.OrbitKind.EXCEPTIONAL_FIRST_KIND
        assert D.classify_orbit(lam, ms + 0.5, 0.0) is D.OrbitKind.NONCLOSED_FIRST_KIND
        assert D.classify_orbit(lam, ep, 0.0) is D.OrbitKind.STABLE_EQUILIBRIUM
        assert D.classify_orbit(lam, em, 0.0) is D.OrbitKind.UNSTABLE_EQUILIBRIUM

    def test_separatrix_branches(self):
        lam = -1.3
        em = M.eta_pm(lam)[0]
        x0 = 0.5 * em
        y0 = x0 * math.sqrt(-M.quartic_value(lam, D.saddle_level(lam), x0))
        assert D.classify_orbit(lam, x0, y0) is D.OrbitKind.EXCEPTIONAL_SECOND_KIND

    def test_generic_point_on_closed_level(self):
        # a phase point with nonzero vertical coordinate on a bounded level
        pt = M.classify_region(-1.3, 1.2)
        sol = D.solve_mu(pt)
        x0, y0 = (float(v[0]) for v in sol.at(0.3 * sol.wavelength))
        assert abs(y0) > 0.1
        assert D.classify_orbit(pt.lam, x0, y0) is D.OrbitKind.CLOSED

    def test_total_above_critical(self):
        kinds = {D.classify_orbit(-0.8, x, y)
                 for x in (0.3, 1.0, 2.0) for y in (0.0, 0.5)}
        assert D.OrbitKind.STABLE_EQUILIBRIUM not in kinds
        assert D.OrbitKind.UNSTABLE_EQUILIBRIUM not in kinds


class TestSolveMu:
    def test_conservation_budget(self, rng):
        for pt in sample_moduli(rng, 8):
            sol = D.solve_mu(pt, n_periods=2.0, samples_per_period=512)
            assert sol.conservation_residual() <= 1e-8

    def test_reaches_e1_at_half_period(self):
        pt = M.classify_region(-1.3, 1.2)
        sol = D.solve_mu(pt)
        mu_half = float(sol.at(0.5 * sol.wavelength)[0][0])
        assert mu_half == pytest.approx(sol.quartic.e1, abs=1e-7)

    def test_range_confined(self):
        pt = M.classify_region(-1.3, 1.2)
        sol = D.solve_mu(pt, n_periods=3.0)
        assert sol.mu.min() >= sol.quartic.e2 - 1e-9
        assert sol.mu.max() <= sol.quartic.e1 + 1e-9

    def test_near_center_is_almost_constant(self):
        lam = -1.3
        ep = M.eta_pm(lam)[1]
        sol = D.solve_mu((lam, ep - 1e-6), samples_per_period=256)
        assert np.max(np.abs(sol.mu - ep)) <= 3e-6
        assert sol.conservation_residual() <= 1e-8

    def test_degenerate_guard(self):
        lam = -1.3
        ep = M.eta_pm(lam)[1]
        sol = D.solve_mu((lam, ep - 1e-13))
        assert np.all(sol.mu == sol.mu[0])

    def test_even_symmetry(self):
        lam, e2 = -1.2, 1.3

        def rhs(_s, state):
            return D.phase_field(lam, *state)

        fwd = solve_ivp(rhs, (0.0, 1.5), [e2, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=True)
        bwd = solve_ivp(rhs, (0.0, -1.5), [e2, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=True)
        s = np.linspace(0.0, 1.5, 64)
        assert np.max(np.abs(fwd.sol(s)[0] - bwd.sol(-s)[0])) <= 1e-9

    def test_one_integration_over_one_period(self, ode_spans):
        # the closed form integrates nothing, over any number of periods
        sol = D.solve_mu(M.classify_region(-1.3, 1.2), n_periods=3.0)
        sol.at(np.linspace(0.0, 3.0 * sol.wavelength, 7))
        D.signature(M.classify_region(-1.3, 1.2), 64)
        assert ode_spans == []

    def test_periodicity(self):
        pt = M.classify_region(-1.2, 1.5)
        sol = D.solve_mu(pt, n_periods=2.0)
        s = np.linspace(0.0, sol.wavelength, 97)
        mu0 = sol.at(s)[0]
        mu1 = sol.at(s + sol.wavelength)[0]
        assert np.max(np.abs(mu1 - mu0)) <= 1e-8

    def test_wavelength_matches_zero_crossings(self):
        pt = M.classify_region(-1.15, 1.4)
        sol = D.solve_mu(pt, n_periods=2.0, samples_per_period=4096)
        y = sol.mu_dot[1:]
        s = sol.s[1:]
        flips = np.nonzero(y[:-1] * y[1:] < 0.0)[0]
        # mu' is exactly 0 at the minima, and changes sign between samples
        # at the maxima
        crossings = sorted([s[i] - y[i] * (s[i + 1] - s[i]) / (y[i + 1] - y[i])
                            for i in flips] + s[y == 0.0].tolist())
        gaps = np.diff(crossings)
        assert np.max(np.abs(2.0 * gaps - sol.wavelength)) <= 1e-7


# the first curve item of each stratum of the curves bench at seed 1 (T-,
# T+, S, L), and a solve_mu point
_CURVE_POINTS = {
    "T-": (-1.6503063246591951, 3.0554718649746277),
    "T+": (-1.0545374999063213, 1.8845943159795882),
    "S": (-1.4885853684397703, 1.8679685872503975),
    "L": (-1.8438325120229508, 3.3929349400091913),
}
_MU_POINT = (-1.3, 1.2)


class TestClosedFormFlow:
    """The closed-form (mu, mu'[, Theta]) against scipy's DOP853 on the
    curvature equation and the family's theta'(mu), over one period."""

    @pytest.mark.parametrize("flow", [*_CURVE_POINTS, "mu"])
    def test_matches_scipy_flow(self, flow):
        if flow == "mu":
            point = M.resolve(*_MU_POINT)
            states = D.solve_mu(point, samples_per_period=16)._flow
            theta_rhs = None
        else:
            point = M.resolve(*_CURVE_POINTS[flow])
            curve = C._CurveFlow(point, C._KIND_OF_REGION[point.region])
            states, theta_rhs = curve.states, curve._theta_rhs
        lam, omega = point.lam, D.wavelength(point)

        def rhs(_s, state):
            x, y = state[0], state[1]
            out = [y, D.mu_acceleration(lam, x, y)]
            return out if theta_rhs is None else out + [theta_rhs(x)]

        y0 = [point.quartic.e2, 0.0] + ([] if theta_rhs is None else [0.0])
        sol = solve_ivp(rhs, (0.0, omega), y0, method="DOP853", rtol=3e-14,
                        atol=1e-14, dense_output=True, max_step=omega / 64.0)
        assert sol.success
        s = np.linspace(0.0, omega, 4097)
        ours, theirs = states(s), sol.sol(s)
        assert ours.shape == theirs.shape
        scale = np.max(np.abs(theirs), axis=1)
        # measured at most 3.8e-13 of the column scale (mu' on S)
        assert np.all(np.max(np.abs(ours - theirs), axis=1) <= 1e-12 * scale)


def _worst_against_reference(points):
    """max |omega - omega_ref| / omega_ref, omega_ref a 40-digit quadrature
    on the float roots of each point, taken as exact: this measures the
    closed form and not the root solve."""
    worst = 0.0
    for pt in map(M.resolve, points):
        ref = reference.wavelength(pt.quartic.roots)
        worst = max(worst, float(abs(D.wavelength(pt) - ref) / ref))
    return worst


class TestWavelength:
    def test_against_reference_on_random_moduli(self, rng):
        # measured 4.9e-16
        assert _worst_against_reference(sample_moduli(rng, 100)) <= 5e-15

    @pytest.mark.parametrize("lam", [-3.0, -1.3, -0.99, -0.9])
    def test_against_reference_on_center_ladder(self, lam):
        """1 - e2/eta+ = 1e-4 ... 1e-12.  Heights that are tagged B+ (e1 <=
        e2 to float resolution) have no wavelength; the rest reach e1 - e2 =
        1.2e-11, where both terms of the closed form are positive."""
        ep = M.eta_pm(lam)[1]
        pts = [M.resolve(lam, ep * (1.0 - 10.0**-k)) for k in range(4, 13)]
        inside = [pt for pt in pts if pt.in_moduli_space]
        assert len(inside) >= 6
        assert all(pt.region is M.Region.BOUNDARY_PLUS
                   for pt in pts if not pt.in_moduli_space)
        # measured at most 3.0e-16
        assert _worst_against_reference(inside) <= 3e-15

    # S points with e2 = -0.3 lam, where the (a/n) K - ((a - n)/n) Pi form
    # of the wavelength lost digits like lam^2 eps and read 0.0 from -1e10
    @pytest.mark.parametrize("lam", ["-1e2", "-1e3", "-1e5", "-1e7", "-1e10",
                                     "-1e20", "-1e30"])
    def test_against_reference_at_far_multipliers(self, lam):
        lam = float(lam)
        pt = M.resolve(lam, -0.3 * lam)
        assert pt.region is M.Region.S
        # measured at most 3.0e-16
        assert _worst_against_reference([pt]) <= 3e-15

    def test_closed_form_vs_quadrature(self, rng):
        pts = [M.classify_region(-1.3, 1.2)] + sample_moduli(rng, 10)
        for pt in pts:
            w_cf = D.wavelength(pt)
            w_q = D.wavelength_quadrature(pt)
            assert abs(w_cf - w_q) <= 1e-9 * max(1.0, abs(w_cf))

    def test_center_limit(self):
        lam = -1.3
        ep = M.eta_pm(lam)[1]
        w = D.wavelength((lam, ep - 1e-3))
        assert w == pytest.approx(D.linearized_center_period(lam), rel=1e-2)

    def test_separatrix_divergence(self):
        lam = -0.95
        a = M.a_lower(lam)
        assert D.wavelength((lam, a + 1e-6)) > D.wavelength((lam, a + 1e-3))


class TestHInverse:
    def test_endpoints(self):
        pt = M.classify_region(-1.3, 1.2)
        qd = M.roots_from_modulus(pt)
        omega = D.wavelength(pt)
        assert D.h_inverse(pt, qd.e2) == pytest.approx(0.0, abs=1e-10)
        assert D.h_inverse(pt, qd.e1) == pytest.approx(0.5 * omega, abs=1e-10)

    def test_midpoint_against_ode_bisection(self):
        pt = M.classify_region(-1.3, 1.2)
        qd = M.roots_from_modulus(pt)
        sol = D.solve_mu(pt)
        mu = 0.5 * (qd.e1 + qd.e2)
        assert D.h_inverse(pt, mu) == pytest.approx(
            D.invert_by_bisection(sol, mu), abs=1e-8)

    def test_left_inverse_of_rising_branch(self):
        pt = M.classify_region(-1.15, 1.4)
        sol = D.solve_mu(pt)
        for frac in (0.1, 0.25, 0.4, 0.49):
            s = frac * sol.wavelength
            mu = float(sol.at(s)[0][0])
            assert D.h_inverse(pt, mu) == pytest.approx(s, abs=1e-9)

    def test_domain(self):
        pt = M.classify_region(-1.3, 1.2)
        with pytest.raises(DomainError):
            D.h_inverse(pt, 0.5)

    def test_builds_no_inversion_table(self, monkeypatch):
        # the Hermite seed's ellipj table serves only solve_mu's inversion
        def refuse(*args):
            raise AssertionError("ellipj called")

        monkeypatch.setattr(D, "ellipj", refuse)
        pt = M.resolve(-1.3, 2.3)
        assert D.h_inverse(pt, pt.quartic.e1) == pytest.approx(
            0.5 * D.wavelength(pt), rel=1e-14)

    @pytest.mark.parametrize("p", [(-1.3, 2.3), (-1.3, 2.5), (-1.3, 1.9)],
                             ids=["T-", "T+", "S"])
    def test_against_mpmath_quadrature(self, p):
        """h(mu) against a 40-digit quadrature of dx / (x sqrt(-Q(x))) from
        e2 to mu, on a ladder of fractions t = (mu - e2) / (e1 - e2).  Q is
        the product of the float roots, taken as exact, so this measures the
        inversion and not the root solve; x = e2 + (e1 - e2) sin^2(theta)
        removes the square-root endpoint singularities."""
        pt = M.resolve(p)
        qd = pt.quartic
        worst_near_e2 = worst = 0.0
        with mpmath.workdps(40):
            r1, r2, r3, r4 = (mpmath.mpf(r) for r in qd.roots)

            def integrand(theta):
                x = r2 + (r1 - r2) * mpmath.sin(theta) ** 2
                return 2 / (x * mpmath.sqrt((x - r3) * (x - r4)))

            for t in (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3,
                      1 - 1e-6, 1 - 1e-12, 1.0):
                mu = min(qd.e2 + t * (qd.e1 - qd.e2), qd.e1)
                top = mpmath.asin(mpmath.sqrt((mpmath.mpf(mu) - r2) / (r1 - r2)))
                err = float(abs(D.h_inverse(pt, mu)
                                - mpmath.quad(integrand, [0, top])))
                if t < 1e-3:
                    worst_near_e2 = max(worst_near_e2, err)
                else:
                    worst = max(worst, err)
        # measured at most 1.8e-16, and 8.5e-20 below t = 1e-3: h is the
        # arclength from the minimum, which does not cancel there
        assert worst <= 1.2e-14
        assert worst_near_e2 <= 1e-18


# saddle heights eta-, and a point on the saddle boundary 2e-12 above it
SADDLE_POINTS = [(-1.0, 1.0), (-1.2, 0.8673285543308487),
                 (-0.9124405017295047, 1.127838485563682),
                 (-50.0, 0.21559852289818898)]


class TestSignature:
    def test_on_singular_curve(self):
        pt = M.classify_region(-1.3, 1.2)
        qd = M.roots_from_modulus(pt)
        sig = D.signature(pt, 512)
        resid = sig[:, 1] ** 2 + sig[:, 0] ** 2 * M.quartic_value(
            pt.lam, qd.c, sig[:, 0])
        assert np.max(np.abs(resid)) <= 1e-8

    def test_extremes_are_the_roots(self):
        pt = M.classify_region(-1.3, 1.2)
        qd = M.roots_from_modulus(pt)
        sig = D.signature(pt, 4096)
        assert sig[:, 0].min() == pytest.approx(qd.e2, abs=1e-7)
        assert sig[:, 0].max() == pytest.approx(qd.e1, abs=1e-7)

    def test_samples_the_closed_form_once(self, monkeypatch):
        # the signature is the first n samples of solve_mu over one period:
        # one evaluation of the rising branch, on the grid k omega/n
        calls = []
        at = D._RisingBranch.at

        def counting(branch, h):
            calls.append(len(h))
            return at(branch, h)

        monkeypatch.setattr(D._RisingBranch, "at", counting)
        pt = M.resolve(-1.3, 1.2)
        sig = D.signature(pt, 400)
        assert len(calls) == 1 and sig.shape == (400, 2)
        sol = D.solve_mu(pt, samples_per_period=400)
        s = np.linspace(0.0, sol.wavelength, 400, endpoint=False)
        assert s.tobytes() == sol.s[:400].tobytes()
        assert sig.tobytes() == np.column_stack(sol.at(s)).tobytes()

    def test_rejects_fewer_than_16_samples(self):
        with pytest.raises(DomainError, match="at least 16"):
            D.signature((-1.3, 1.2), 15)

    def test_contracts_to_center(self):
        lam = -1.3
        ep = M.eta_pm(lam)[1]
        diam = [np.ptp(D.signature((lam, ep - gap), 256)[:, 0])
                for gap in (1e-2, 1e-4, 1e-6)]
        assert diam[0] > diam[1] > diam[2]
        assert diam[2] < 1e-4

    @pytest.mark.parametrize("lam,eta", SADDLE_POINTS)
    def test_saddle_height_raises_before_sampling(self, lam, eta):
        # the constant solution's wavelength is infinite at the saddle; no
        # numpy warning from laying samples over it precedes the error
        below, above = math.nextafter(eta, 0.0), math.nextafter(eta, math.inf)
        heights = (math.nextafter(below, 0.0), below, eta, above,
                   math.nextafter(above, math.inf), eta + 1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e2 in heights:
                with pytest.raises(IntegrationError, match="no curvature flow"):
                    D.signature((lam, e2), 64)


def test_energy_level_constant_along_orbit():
    pt = M.classify_region(-1.2, 1.5)
    sol = D.solve_mu(pt, n_periods=2.0)
    levels = [D.conserved_level(pt.lam, x, y)
              for x, y in zip(sol.mu, sol.mu_dot)]
    assert np.ptp(levels) <= 1e-8


def test_constant_curvature_census():
    assert D.constant_curvature_census(-0.8) == 0
    assert D.constant_curvature_census(M.LAMBDA_CRITICAL) == 1
    assert D.constant_curvature_census(-0.95) == 2
    assert D.constant_curvature_census(-1.0) == 1
    assert D.constant_curvature_census(-2.0) == 1
