"""Curvature dynamics: phase field, orbit taxonomy, integration (the
in-package DOP853 against scipy's), wavelength closed form vs quadrature,
and the half-period inverse."""

import math
import re
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
        sol = D.solve_mu(M.classify_region(-1.3, 1.2), n_periods=3.0)
        assert ode_spans == [(0.0, sol.wavelength)]

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
        crossings = [s[i] - y[i] * (s[i + 1] - s[i]) / (y[i + 1] - y[i])
                     for i in flips]
        gaps = np.diff(crossings)
        assert np.max(np.abs(2.0 * gaps - sol.wavelength)) <= 1e-7


def _flow_integration(monkeypatch, build):
    """The (rhs, y0, t_end, rtol, max_step) of the one in-package DOP853 run
    that ``build()`` makes."""
    calls = []
    integrate = D._dop853

    def recording(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(D, "_dop853", recording)
    build()
    monkeypatch.undo()
    (call,) = calls
    return call


def _scipy_dop853(rhs, y0, t_end, rtol, max_step):
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=rtol,
                    atol=D._FLOW_ATOL, dense_output=True, max_step=max_step)
    assert sol.success
    return sol


def _scipy_run(sol) -> D._Dop853Run:
    """scipy's interpolant data in the in-package layout."""
    pieces = sol.sol.interpolants
    return D._Dop853Run(
        np.asarray(sol.sol.ts),
        np.array([p.y_old for p in pieces]).T.copy(),
        np.array([p.F for p in pieces]).transpose(1, 2, 0).copy(),
        sol.nfev,
    )


# the first curve item of each stratum of the curves bench at seed 1 (T-,
# T+, S, L), and a solve_mu point
_CURVE_POINTS = {
    "T-": (-1.6503063246591951, 3.0554718649746277),
    "T+": (-1.0545374999063213, 1.8845943159795882),
    "S": (-1.4885853684397703, 1.8679685872503975),
    "L": (-1.8438325120229508, 3.3929349400091913),
}
_FLOWS = {
    **{name: (lambda p=p: C.make_curve(M.resolve(*p), samples=16))
       for name, p in _CURVE_POINTS.items()},
    "mu": lambda: D.solve_mu(M.resolve(-1.3, 1.2), samples_per_period=16),
}


# rhs(s, state), y0 and t_end of flows that reach the corners of the step
# control: rejections down to the minimum factor at a jump of the forcing, an
# interval shorter than the first step, a zero right-hand side (error 0,
# growth by the maximum factor), and a 3-state flow
_PROBLEMS = {
    "jump": (lambda s, st: (st[1], -st[0] + (1e6 if s > 0.7 else 0.0)),
             (1.0, 0.0), 2.0),
    "short": (lambda s, st: (st[1], -st[0]), (1.0, 0.5), 1e-9),
    "still": (lambda s, st: (0.0, 0.0), (1.0, 0.0), 2.0),
    "3-state": (lambda s, st: (st[1], -st[0], st[0] * st[0]), (1.0, 0.0, 0.0),
                7.0),
}


class TestDop853:
    """The in-package DOP853 repeats scipy's solve_ivp(method="DOP853") step
    for step; its stage sums round differently, so the values agree to a
    few ulps of the column scale."""

    @pytest.mark.parametrize("flow", list(_FLOWS))
    def test_steps_and_values_match_scipy(self, monkeypatch, flow):
        rhs, y0, t_end, rtol, max_step = _flow_integration(monkeypatch,
                                                           _FLOWS[flow])
        assert len(y0) == (2 if flow == "mu" else 3)
        run = D._dop853(rhs, y0, t_end, rtol, max_step)
        sol = _scipy_dop853(rhs, y0, t_end, rtol, max_step)
        assert len(run.ts) == len(sol.t)
        assert run.nfev == sol.nfev
        assert run.ts[0] == 0.0 and run.ts[-1] == t_end
        s = np.linspace(0.0, t_end, 4097)
        ours, theirs = D._dense_values(run, s), sol.sol(s)
        scale = np.max(np.abs(theirs), axis=1)
        assert np.all(np.max(np.abs(ours - theirs), axis=1) <= 1e-12 * scale)

    @pytest.mark.parametrize("problem", list(_PROBLEMS))
    def test_step_control_matches_scipy(self, problem):
        rhs, y0, t_end = _PROBLEMS[problem]
        # a tolerance far above rounding, where the error estimates of both
        # solvers are their truncation errors, not the noise of their sums
        args = (rhs, y0, t_end, 1e-6, t_end / 64.0)
        run, sol = D._dop853(*args), _scipy_dop853(*args)
        assert len(run.ts) == len(sol.t)
        assert run.nfev == sol.nfev
        np.testing.assert_allclose(run.ts, sol.t, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("flow", ["T+", "mu"])
    def test_dense_values_are_scipys_on_its_data(self, monkeypatch, flow):
        rhs, y0, t_end, rtol, max_step = _flow_integration(monkeypatch,
                                                           _FLOWS[flow])
        sol = _scipy_dop853(rhs, y0, t_end, rtol, max_step)
        run = _scipy_run(sol)
        s = np.concatenate((np.linspace(-0.1, 1.1, 1001) * t_end, run.ts))
        np.testing.assert_array_equal(D._dense_values(run, s), sol.sol(s))
        np.testing.assert_array_equal(D._dense_values(run, s[::-1]),
                                      sol.sol(s[::-1]))
        for t in (0.0, t_end, 0.37 * t_end, *run.ts):
            np.testing.assert_array_equal(D._dense_values(run, np.array([t]))[:, 0],
                                          sol.sol(t))

    def test_segment_choice_at_step_boundaries(self, monkeypatch, rng):
        # random coefficients make the two steps that meet at a boundary
        # disagree there, so only OdeSolution's choice of the earlier step
        # gives scipy's values
        rhs, y0, t_end, rtol, max_step = _flow_integration(monkeypatch,
                                                           _FLOWS["T-"])
        sol = _scipy_dop853(rhs, y0, t_end, rtol, max_step)
        for piece in sol.sol.interpolants:
            piece.F = rng.standard_normal(piece.F.shape)
        run = _scipy_run(sol)
        s = np.concatenate((run.ts, [-1.0, 2.0 * t_end]))
        np.testing.assert_array_equal(D._dense_values(run, s), sol.sol(s))
        inner = run.ts[1:-1]
        assert not np.array_equal(D._dense_values(run, inner),
                                  D._dense_values(run, np.nextafter(inner, 2.0 * t_end)))

    @pytest.mark.parametrize("still_until", [0.0, 0.5])
    def test_nan_right_hand_side_fails_where_scipy_does(self, still_until):
        # NaN past s = 1/2 (past s = 0, from a zero initial derivative): every
        # trial step is rejected until it falls below ten ulps of s, where
        # scipy reports failure
        def rhs(s, state):
            x, y = state
            if s > 0.5 or (s > 0.0 and not still_until):
                return (math.nan, math.nan)
            return (y, -x) if still_until else (0.0, 0.0)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = solve_ivp(rhs, (0.0, 2.0), [1.0, 0.0], method="DOP853",
                            rtol=1e-10, atol=D._FLOW_ATOL, max_step=2.0 / 64.0)
        assert sol.status == -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="step size") as info:
                D._dop853(rhs, (1.0, 0.0), 2.0, 1e-10, 2.0 / 64.0)
        last = float(re.search(r"at s=(\S+)$", str(info.value)).group(1))
        assert last == pytest.approx(sol.t[-1], rel=1e-9)
        minimum = 10.0 * (math.nextafter(last, math.inf) - last)
        assert f"minimum {minimum:.3e}" in str(info.value)

    def test_nan_initial_derivative_fails(self):
        # the initial step size is NaN, where scipy's step loop never ends
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="step size"):
                D._dop853(lambda s, state: (math.nan, math.nan), (1.0, 0.0),
                          2.0, 1e-10, 2.0 / 64.0)


class TestWavelength:
    def test_underflow_is_a_domain_error(self):
        # an S point whose closed form underflows to 0
        with pytest.raises(DomainError, match=re.escape(
                "(-10000000000.0, 3000000000.0)")):
            D.wavelength((-1e10, 3e9))

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
        # measured at most 1.2e-15, and 3.3e-12 below t = 1e-3 (at 1e-12),
        # where h = omega/2 - (the integral from mu to e1) cancels
        assert worst <= 1.2e-14
        assert worst_near_e2 <= 3e-11


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

    def test_contracts_to_center(self):
        lam = -1.3
        ep = M.eta_pm(lam)[1]
        diam = [np.ptp(D.signature((lam, ep - gap), 256)[:, 0])
                for gap in (1e-2, 1e-4, 1e-6)]
        assert diam[0] > diam[1] > diam[2]
        assert diam[2] < 1e-4


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
