"""Curve families on the hyperboloid: unit speed, curvature recovery,
momentum, the Frenet-frame reference trajectory, monodromy, disk geometry
and the bending energy."""

import math

import numpy as np
import pytest

from halfelastica import curvegen as C
from halfelastica import dynamics as D
from halfelastica import moduli as M
from halfelastica import periodmap as P
from halfelastica.errors import DomainError, RegionError
from conftest import sample_lightlike, sample_spacelike, sample_timelike

SQRT2 = math.sqrt(2.0)


def light_point(lam=-1.25):
    return M.classify_region(lam, M.b0(lam))


# a pair on E whose float locus residual T is exactly 0, the only kind of
# point that takes the on-locus closed form; the float heights at and next
# to exceptional_c(lam) leave T a rounding error away from 0
EXACT_LOCUS = (-1.17398550521972, 2.1744797279556325)


# one point of each tag, and a T+ point 3e-4 above E in the near-locus band
OWN_FRAME_POINTS = [
    pytest.param(-2.0, 3.732050807568877, "L", id="L"),
    pytest.param(-1.1, 1.0, "S", id="S"),
    pytest.param(-1.3, 2.3, "T-", id="T-"),
    pytest.param(-1.3, M.exceptional_c(-1.3), "E", id="E"),
    pytest.param(-0.95, 1.6, "T+", id="T+"),
    pytest.param(-0.95, 1.4665804384720835, "T+", id="band"),
]


def frenet_monodromy(point):
    """The monodromy by the Frenet route: the oracle's frame at omega,
    integrated from the identity at the apex, conjugated by the closed
    form's frame F(0) at s = 0."""
    f0 = C.initial_frame(C.make_curve(point, samples=16))
    orc = C.frenet_oracle(point, n_periods=1.0, samples=2)
    g, t = orc.gamma[-1], orc.tangent[-1]
    f_omega = np.column_stack([g, t, C.minkowski_cross(g, t)])
    return f0 @ f_omega @ C.lorentz_inverse(f0)


class TestMinkowski:
    def test_cross_orientation(self):
        apex = np.array([1.0, 0.0, 0.0])
        t = np.array([0.0, 1.0, 0.0])
        n = C.minkowski_cross(apex, t)
        assert np.allclose(n, [0.0, 0.0, 1.0])
        assert C.minkowski_dot(n, n) == pytest.approx(1.0)

    def test_poincare_examples(self):
        assert np.allclose(C.to_poincare(np.array([1.0, 0.0, 0.0])), [0.0, 0.0])
        out = C.to_poincare(np.array([SQRT2, 1.0, 0.0]))
        assert out[0] == pytest.approx(1.0 / (1.0 + SQRT2), abs=1e-15)

    def test_poincare_roundtrip(self, rng):
        uv = rng.uniform(-0.6, 0.6, size=(50, 2))
        back = C.to_poincare(C.from_poincare(uv))
        assert np.max(np.abs(back - uv)) <= 1e-12

    def test_poincare_domain(self):
        with pytest.raises(DomainError):
            C.to_poincare(np.array([0.5, 0.1, 0.0]))


class TestBLCurve:
    def test_initial_point(self):
        lam = -1.25
        cv = C.bl_curve(light_point(lam), samples=32)
        s1 = math.sqrt(lam * lam - 1.0)
        expected = np.array([s1 - 3.0 * lam, 0.0, 3.0 * s1 - lam]) / (2.0 * SQRT2)
        assert np.max(np.abs(cv.gamma[0] - expected)) <= 1e-13

    def test_boost_closed_form_vs_quadrature(self):
        lam = -1.25
        assert C.bl_boost_quadrature(lam) == pytest.approx(
            C.bl_boost_closed_form(lam), abs=1e-9)

    @pytest.mark.parametrize("lam", [-1.01, -1.17, -1.3, -2.0])
    def test_no_closed_light_like_curves(self, lam):
        boost = C.bl_boost_quadrature(lam)
        assert boost < 0.0
        assert boost == pytest.approx(C.bl_boost_closed_form(lam), abs=1e-9)

    def test_flow_phase_is_negative_boost(self):
        # the generated curve accumulates the phase with the opposite sign
        # convention; both conventions give mirror curves of the same class
        lam = -1.3
        cv = C.bl_curve(light_point(lam), samples=32)
        theta_omega = float(cv.theta_at(np.array([cv.wavelength]))[0])
        assert theta_omega == pytest.approx(-C.bl_boost_quadrature(lam),
                                            abs=1e-10)

    def test_momentum(self):
        cv = C.bl_curve(light_point(), samples=256, periods=2.0)
        xi = C.momentum_samples(cv)
        assert np.max(np.abs(xi - np.array([1.0, 0.0, 1.0]) / SQRT2)) <= 1e-8

    def test_region_guard(self):
        with pytest.raises(RegionError):
            C.bl_curve(M.classify_region(-1.1, 1.0))


class TestBSCurve:
    def test_starts_on_symmetry_axis(self):
        cv = C.bs_curve(M.classify_region(-1.1, 1.0), samples=32)
        assert abs(cv.gamma[0, 1]) <= 1e-15

    def test_theta_phase_structure(self):
        # the boost phase decreases, rises, then decreases again, with the
        # turning points where the curvature crosses the square of -2 lam;
        # it is strictly negative on (0, omega/2] and doubles over a period
        # (the sign pattern with a positive second half arises only under
        # the closedness hypothesis, which never holds for this family)
        cv = C.bs_curve(M.classify_region(-1.1, 1.0), samples=2048)
        omega = cv.wavelength
        half = (cv.s > 1e-3 * omega) & (cv.s <= 0.5 * omega)
        assert np.all(cv.theta[half] < 0.0)
        theta_half = float(cv.theta_at(np.array([0.5 * omega]))[0])
        theta_full = float(cv.theta_at(np.array([omega]))[0])
        assert theta_full == pytest.approx(2.0 * theta_half, abs=1e-10)
        dth = np.diff(cv.theta)
        sign_changes = np.count_nonzero(dth[:-1] * dth[1:] < 0.0)
        assert sign_changes == 2

    def test_two_vertices_per_period(self):
        cv = C.bs_curve(M.classify_region(-1.1, 1.0), samples=4096)
        y = cv.mu_dot
        strong = np.abs(y) > 1e-8 * np.max(np.abs(y))
        ys = y[strong]
        flips = np.count_nonzero(ys[:-1] * ys[1:] < 0.0)
        assert flips == 1  # plus the zeros at 0 and omega: two per period

    def test_momentum(self):
        cv = C.bs_curve(M.classify_region(-1.1, 1.0), samples=256, periods=2.0)
        xi = C.momentum_samples(cv)
        assert np.max(np.abs(xi - C.expected_momentum(cv))) <= 1e-8


class TestUpsilon:
    def test_limit_at_lightlike_boundary(self):
        lam = -1.1
        assert C.upsilon_plus(lam, M.b0(lam) - 1e-8) == pytest.approx(1.0, abs=1e-3)

    def test_minimum_at_minus_lambda(self):
        lam = -1.1
        v0 = C.upsilon_plus(lam, -lam)
        assert C.upsilon_plus(lam, -lam - 1e-3) > v0
        assert C.upsilon_plus(lam, -lam + 1e-3) > v0

    def test_contraction_height(self):
        assert C.bs_contraction_height(-1.1) == pytest.approx(1.28, abs=5e-3)

    def test_saddle_limit(self):
        lam = -1.1
        eta_m = M.eta_pm(lam)[0]
        assert C.upsilon_plus(lam, eta_m + 1e-6) == pytest.approx(
            C.upsilon_star(lam), abs=1e-5)

    def test_rejects_timelike(self):
        with pytest.raises(DomainError):
            C.upsilon_plus(-0.99, 1.05)


class TestRadialAngular:
    def test_non_exceptional_positive(self):
        pt = M.classify_region(-0.99, 1.05)
        qd = M.roots_from_modulus(pt)
        omega = D.wavelength(pt)
        s = np.linspace(0.0, omega, 257)
        rho = C.radial_function(pt, s)
        assert np.all(rho > 0.0)
        expected = math.sqrt(1.0 + 4.0 * qd.c * qd.e2**2) / (
            2.0 * math.sqrt(-qd.c) * qd.e2)
        assert rho[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [1e-8, 1e-7, 1e-6, 1e-3])
    def test_radius_of_the_embedding_near_the_locus(self, d):
        pt = M.classify_region(-1.3, M.exceptional_c(-1.3) + d)
        s = np.linspace(0.0, 2.0 * D.wavelength(pt), 513)
        gamma = C.bt_curve(pt, s_grid=s).gamma
        np.testing.assert_allclose(np.abs(C.radial_function(pt, s)),
                                   np.hypot(gamma[:, 1], gamma[:, 2]),
                                   rtol=1e-12, atol=0.0)

    def test_exceptional_vanishes_at_half_period(self):
        lam = -1.1
        pt = M.classify_region(lam, M.exceptional_c(lam))
        omega = D.wavelength(pt)
        rho = C.radial_function(pt, np.array([0.5 * omega]))
        assert abs(rho[0]) <= 1e-7

    def test_exceptional_double_period_sign(self):
        pt = M.classify_region(*EXACT_LOCUS)
        assert pt.quartic.t == 0.0
        omega = D.wavelength(pt)
        s = np.linspace(0.0, 2.0 * omega, 513)
        rho = C.radial_function(pt, s)
        assert rho[10] > 0.0
        assert rho[len(s) // 2 + 10] < 0.0

    def test_upper_timelike_theta_decreasing(self):
        pt = M.classify_region(-0.9, 1.24)
        omega = D.wavelength(pt)
        s = np.linspace(0.0, 2.0 * omega, 513)
        theta = C.angular_function(pt, s)
        assert np.all(np.diff(theta) < 0.0)

    def test_lower_timelike_theta_has_extrema(self):
        pt = M.classify_region(-0.99, 1.05)
        omega = D.wavelength(pt)
        s = np.linspace(0.0, omega, 513)
        theta = C.angular_function(pt, s)
        assert np.any(np.diff(theta) > 0.0) and np.any(np.diff(theta) < 0.0)


class TestBTCurve:
    def test_outer_radius_attained_at_start(self):
        pt = M.classify_region(-0.99, 1.05)
        cv = C.bt_curve(pt, samples=512)
        inner, outer = C.bt_annulus_radii(pt)
        r = np.hypot(cv.poincare[:, 0], cv.poincare[:, 1])
        assert r[0] == pytest.approx(outer, rel=1e-12)
        assert np.max(r) <= outer + 1e-9
        assert np.min(r) >= inner - 1e-9

    def test_exceptional_passes_through_origin(self):
        lam = -1.1
        pt = M.classify_region(lam, M.exceptional_c(lam))
        cv = C.bt_curve(pt, samples=4096)
        r = np.hypot(cv.poincare[:, 0], cv.poincare[:, 1])
        assert np.min(r) <= 1e-4

    def test_momentum(self):
        pt = M.classify_region(-0.99, 1.05)
        cv = C.bt_curve(pt, samples=256, periods=2.0)
        xi = C.momentum_samples(cv)
        assert np.max(np.abs(xi - C.expected_momentum(cv))) <= 1e-8

    @pytest.mark.parametrize("lam, d", [
        pytest.param(-1.3, -1e-3, id="-0.001"),
        pytest.param(-1.3, 1e-3, id="0.001"),
        *((lam, d) for lam in (-1.8, -1.3, -1.1, -0.95)
          for d in (-3e-4, -1e-4, 1e-4, 3e-4, 3e-5)
          if not (lam == -1.8 and abs(d) == 3e-4))])
    def test_near_the_locus(self, lam, d):
        # off the E tag, 1e-3 from the locus and in the near-locus band (the
        # 18 points with radial degeneracy below _NEAR_LOCUS): the phase at
        # omega is held to the closed-form period map; measured at most
        # 4.4e-16 in the band
        pt = M.classify_region(lam, M.exceptional_c(lam) + d)
        if abs(d) < 1e-3:
            assert M.radial_degeneracy(pt.quartic.e1, pt.e2) < C._NEAR_LOCUS
        cv = C.bt_curve(pt, samples=512, periods=2.0)
        xi = C.momentum_samples(cv)
        assert np.max(np.abs(xi - C.expected_momentum(cv))) <= 1e-8
        theta = float(cv.theta_at(np.array([cv.wavelength]))[0])
        offset = {M.Region.T_MINUS: 1.0, M.Region.T_PLUS: 0.0}[pt.region]
        rotation = -theta / (2.0 * math.pi) + offset
        assert abs(rotation - P.period_map(pt)) <= 1e-9

    @pytest.mark.parametrize("lam", [-1.3, -1.1, -0.95])
    def test_e_tag_off_the_locus(self, lam):
        # E-tagged points with T != 0 take the T route: the phase at omega is
        # the period map's, and the tangent stays unit where a sample lands
        # on mu = e1, the gap e1 - mu taken from the amplitude; measured at
        # most 5.7e-16, 2.2e-16 and 5.6e-15
        for d in (-1e-5, -1e-7, -1e-9, -1e-11, -1e-13, 0.0,
                  1e-13, 1e-11, 1e-9, 1e-7, 1e-5):
            pt = M.classify_region(lam, M.exceptional_c(lam) + d)
            assert pt.region is M.Region.E and pt.quartic.t != 0.0
            cv = C.bt_curve(pt, samples=512, periods=2.0)
            xi = C.momentum_samples(cv)
            assert np.max(np.abs(xi - C.expected_momentum(cv))) <= 1e-8
            theta = float(cv.theta_at(np.array([cv.wavelength]))[0])
            rotation = -theta / (2.0 * math.pi) + (pt.quartic.t < 0.0)
            assert abs(rotation - P.period_map(pt)) <= 1e-9
            unit = C.minkowski_dot(cv.tangent, cv.tangent)
            assert np.max(np.abs(unit - 1.0)) <= 1e-13

    @pytest.mark.parametrize("e2", [
        EXACT_LOCUS[1] - 1e-13, np.nextafter(EXACT_LOCUS[1], 0.0),
        np.nextafter(EXACT_LOCUS[1], 3.0), EXACT_LOCUS[1] + 1e-13,
    ], ids=["-1e-13", "-ulp", "+ulp", "+1e-13"])
    def test_routes_agree_on_the_locus(self, e2):
        # the on-locus route at a pair with T = 0 and the T route one ulp or
        # 1e-13 away trace one curve: the one through the origin with a
        # signed radius, the other past it, its phase turning by pi;
        # measured at most 2.5e-13 and 2.3e-13
        pt = M.classify_region(EXACT_LOCUS[0], e2)
        assert pt.region is M.Region.E and pt.quartic.t != 0.0
        on_locus = C.bt_curve(M.classify_region(*EXACT_LOCUS), samples=512,
                              periods=2.0)
        t_route = C.bt_curve(pt, samples=512, periods=2.0)
        assert np.max(np.abs(t_route.gamma - on_locus.gamma)) <= 1e-12
        assert np.max(np.abs(t_route.tangent - on_locus.tangent)) <= 1e-12
        assert np.all(C.radial_function(pt, t_route.s) > 0.0)

    @pytest.mark.parametrize("lam, d, region", [
        (-0.95, 3e-4, M.Region.T_PLUS), (-1.3, -2e-4, M.Region.T_MINUS)])
    def test_near_locus_band(self, lam, d, region):
        # off the E tag but below _NEAR_LOCUS (radial degeneracy 2.1e-7 and
        # 2.7e-7), where w and theta' take the factored 1 + 4 c mu^2 and
        # rho' the naive quotient; measured drifts 1.8e-14 and 1.3e-13
        pt = M.classify_region(lam, M.exceptional_c(lam) + d)
        assert pt.region is region
        assert M.radial_degeneracy(pt.quartic.e1, pt.e2) < C._NEAR_LOCUS
        cv = C.bt_curve(pt, samples=512, periods=2.0)
        xi = C.momentum_samples(cv)
        assert np.max(np.abs(xi - C.expected_momentum(cv))) <= 1e-8


class TestInvariantsAcrossFamilies:
    def _curves(self, rng):
        pts = (sample_lightlike(rng, 2) + sample_spacelike(rng, 2)
               + sample_timelike(rng, 2))
        return [C.make_curve(pt, samples=256, periods=1.0) for pt in pts]

    # S and T- points 1e-8 off the light-like curve on its polynomial t2 =
    # e2^2 + 2 lam e2 + 1, ten times its tag's width, where the phase's
    # coefficients grow like 1/sqrt|c| and cancel
    @pytest.mark.parametrize("lam", [-1.05, -1.3, -2.0])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["S", "T"])
    def test_next_to_the_light_like_curve(self, lam, side):
        b = M.b0(lam)
        pt = M.classify_region(lam, b + side * 1e-8 / (2.0 * (b + lam)))
        assert pt.region is (M.Region.T_MINUS if side > 0.0 else M.Region.S)
        cv = C.make_curve(pt, samples=256, periods=2.0)
        # measured at most 2.4e-9
        xi = C.momentum_samples(cv)
        assert np.max(np.abs(xi - C.expected_momentum(cv))) <= 1e-8
        orc = C.frenet_oracle(pt, n_periods=1.0, samples=256)
        cf = C.make_curve(pt, s_grid=orc.s)
        aligned = orc.gamma @ C.initial_frame(cf).T
        assert np.max(np.abs(aligned - cf.gamma)) <= 1e-6

    def test_unit_speed_and_hyperboloid(self, rng):
        for cv in self._curves(rng):
            assert np.max(np.abs(C.minkowski_dot(cv.gamma, cv.gamma) + 1.0)) <= 1e-8
            assert np.max(np.abs(C.minkowski_dot(cv.tangent, cv.tangent) - 1.0)) <= 1e-8

    def test_curvature_recovery(self, rng):
        def fd_kappa(cv, s, h):
            g = {k: cv.gamma_at(s + k * h) for k in (-2, -1, 0, 1, 2)}
            gamma_dd = (-g[2] + 16.0 * g[1] - 30.0 * g[0] + 16.0 * g[-1]
                        - g[-2]) / (12.0 * h * h)
            normal = C.minkowski_cross(g[0], cv.tangent_at(s))
            return C.minkowski_dot(gamma_dd, normal)

        for cv in self._curves(rng):
            omega = cv.wavelength
            h = 1e-3 * omega
            s = np.linspace(3.0 * h, omega - 3.0 * h, 33)
            # one Richardson step removes the h^4 truncation, which dominates
            # for high-curvature moduli
            kappa = (16.0 * fd_kappa(cv, s, 0.5 * h) - fd_kappa(cv, s, h)) / 15.0
            mu = cv.state_at(s)[0]
            assert np.max(np.abs(kappa - mu * mu)) <= 1e-7

    def test_reflection_symmetry(self, rng):
        # light- and space-like trajectories are symmetric about the vertical
        # axis, time-like ones about the horizontal axis, both realized by
        # arclength reversal
        for cv in self._curves(rng):
            omega = cv.wavelength
            s = np.linspace(0.05 * omega, 0.95 * omega, 41)
            fwd = C.to_poincare(cv.gamma_at(s))
            bwd = C.to_poincare(cv.gamma_at(-s))
            if cv.kind is C.CurveKind.BT:
                mirrored = np.column_stack([fwd[:, 0], -fwd[:, 1]])
            else:
                mirrored = np.column_stack([-fwd[:, 0], fwd[:, 1]])
            assert np.max(np.abs(bwd - mirrored)) <= 1e-6


class TestOnePeriodFlow:
    """A curve evaluates its rising half period in closed form and takes
    every other arclength from it by symmetry and periodicity."""

    @pytest.mark.parametrize("make", [
        lambda: C.bt_curve(M.classify_region(-1.3, 2.3), samples=64,
                           periods=10.0),
        lambda: C.make_curve(M.classify_region(-1.5, 1.5), samples=64,
                             periods=2.0),
        lambda: C.make_curve(light_point(-1.5), samples=64, periods=2.0),
    ], ids=["T", "S", "L"])
    def test_one_integration_over_one_period(self, make, ode_spans):
        # the closed forms integrate nothing: not the curve, its accessors,
        # nor the radial and angular functions
        cv = make()
        cv.state_at(np.linspace(-3.0, 3.0, 7) * cv.wavelength)
        if cv.kind is C.CurveKind.BT:
            C.radial_function(cv.modulus, cv.s)
            C.angular_function(cv.modulus, cv.s)
        assert ode_spans == []

    @pytest.mark.parametrize("lam, e2, region", OWN_FRAME_POINTS)
    def test_accessors_read_the_curves_own_frame(self, lam, e2, region):
        point = M.resolve(lam, e2)
        assert point.region.value == region
        cv = C.make_curve(point, samples=256, periods=2.0)
        assert np.array_equal(cv.gamma_at(cv.s), cv.gamma)
        assert np.array_equal(cv.tangent_at(cv.s), cv.tangent)
        g0, t0 = cv.gamma[0], cv.tangent[0]
        assert cv.s[0] == 0.0
        assert np.array_equal(C.initial_frame(cv), np.column_stack(
            [g0, t0, C.minkowski_cross(g0, t0)]))

    @pytest.mark.parametrize("k", [-2, 1, 3])
    def test_extension_by_periodicity(self, rng, k):
        pts = (sample_lightlike(rng, 1) + sample_spacelike(rng, 1)
               + sample_timelike(rng, 1))
        for pt in pts:
            cv = C.make_curve(pt, samples=16)
            omega = cv.wavelength
            # s is taken back from the shifted arclength, so that the fold
            # of s + k omega lands on the float s itself
            shifted = np.linspace(0.01, 0.99, 41) * omega + k * omega
            s = shifted - k * omega
            mu, mu_dot, theta = cv.state_at(s)
            mu_k, mu_dot_k, theta_k = cv.state_at(shifted)
            assert np.array_equal(mu_k, mu)
            assert np.array_equal(mu_dot_k, mu_dot)
            theta_omega = float(cv.theta_at(np.array([omega]))[0])
            tol = 1e-12 * max(1.0, abs(k * theta_omega))
            assert np.max(np.abs(theta_k - (theta + k * theta_omega))) <= tol


class TestFrenetOracle:
    def test_frame_orthonormality(self):
        pt = M.classify_region(-1.1, 1.0)
        orc = C.frenet_oracle(pt, samples=128)
        eta = C.minkowski_metric()
        worst = 0.0
        for i in range(0, len(orc.s), 16):
            frame = np.column_stack([
                orc.gamma[i], orc.tangent[i],
                C.minkowski_cross(orc.gamma[i], orc.tangent[i])])
            worst = max(worst, np.max(np.abs(frame.T @ eta @ frame - eta)))
        assert worst <= 1e-8

    def test_alignment_with_closed_forms(self, rng):
        pts = (sample_lightlike(rng, 2) + sample_spacelike(rng, 2)
               + sample_timelike(rng, 2))
        for pt in pts:
            orc = C.frenet_oracle(pt, n_periods=1.0, samples=256)
            cf = C.make_curve(pt, s_grid=orc.s)
            f0 = C.initial_frame(cf)
            aligned = orc.gamma @ f0.T
            assert np.max(np.abs(aligned - cf.gamma)) <= 1e-6

    def test_monodromy_fixes_momentum(self):
        for pt in (light_point(-1.3), M.classify_region(-1.1, 1.0),
                   M.classify_region(-0.99, 1.05)):
            mono = C.monodromy(pt)
            cv = C.make_curve(pt, samples=16)
            xi = C.expected_momentum(cv)
            # measured 7.5e-16 and 1.5e-14
            assert np.max(np.abs(mono.matrix @ xi - xi)) <= 1e-12
            eta = C.minkowski_metric()
            assert np.max(np.abs(mono.matrix.T @ eta @ mono.matrix - eta)) <= 1e-12

    def test_light_like_monodromy_is_parabolic(self):
        pt = light_point(-1.25)
        mono = C.monodromy(pt)
        cv = C.bl_curve(pt, samples=16)
        theta_omega = float(cv.theta_at(np.array([cv.wavelength]))[0])
        expected = C.parabolic_transform(SQRT2 * theta_omega)
        assert mono.kind is C.MonodromyClass.PARABOLIC
        # measured 2.8e-16
        assert np.max(np.abs(mono.matrix - expected)) <= 1e-12

    def test_space_like_monodromy_is_a_boost(self):
        pt = M.classify_region(-1.1, 1.0)
        mono = C.monodromy(pt)
        cv = C.bs_curve(pt, samples=16)
        theta_omega = float(cv.theta_at(np.array([cv.wavelength]))[0])
        assert mono.kind is C.MonodromyClass.HYPERBOLIC_ROTATION
        # measured 1.8e-15
        assert np.max(np.abs(mono.matrix
                             - C.hyperbolic_rotation(theta_omega))) <= 1e-12
        assert mono.parameter == pytest.approx(theta_omega, abs=1e-12)

    def test_time_like_monodromy_is_a_rotation(self):
        pt = M.classify_region(-0.99, 1.05)
        mono = C.monodromy(pt)
        cv = C.bt_curve(pt, samples=16)
        theta_omega = float(cv.theta_at(np.array([cv.wavelength]))[0])
        t = -theta_omega
        rot = np.array([
            [1.0, 0.0, 0.0],
            [0.0, math.cos(t), -math.sin(t)],
            [0.0, math.sin(t), math.cos(t)],
        ])
        assert mono.kind is C.MonodromyClass.ELLIPTIC_ROTATION
        # measured 7.3e-15
        assert np.max(np.abs(mono.matrix - rot)) <= 1e-12

    # the closed-form frame against the Frenet route, at the own-frame
    # points and the T = 0 pair; far points such as e2 = 30, where the
    # oracle's own error reaches 1.9e-10, are left to the angle test below
    @pytest.mark.parametrize("lam, e2, region", OWN_FRAME_POINTS + [
        pytest.param(*EXACT_LOCUS, "E", id="T=0")])
    def test_monodromy_matches_the_frenet_route(self, lam, e2, region):
        point = M.resolve(lam, e2)
        assert point.region.value == region
        mono = C.monodromy(point)
        assert np.max(np.abs(mono.matrix - frenet_monodromy(point))) <= 1e-10

    def test_monodromy_matches_the_frenet_route_on_samples(self, rng):
        for pt in (sample_lightlike(rng, 2) + sample_spacelike(rng, 2)
                   + sample_timelike(rng, 2)):
            mono = C.monodromy(pt)
            assert np.max(np.abs(mono.matrix - frenet_monodromy(pt))) <= 1e-10

    # two T+ points 1e-9 and 1e-8 (relative) below the center eta+, whose
    # angles 7.8e-6 and 6.3e-4 the trace 1 + 2 cos fixes only to about the
    # square root of its own error, the 11/10 string and the T = 0 pair
    @pytest.mark.parametrize("make", [
        lambda: M.resolve(-15.000018535166666, 30.0),
        lambda: M.resolve(-5.000500049499999, 10.0),
        lambda: P.find_string(-1.01, "11/10").modulus,
        lambda: M.resolve(*EXACT_LOCUS),
    ], ids=["lam=-15", "lam=-5", "11/10", "T=0"])
    def test_rotation_angle_is_the_period_map(self, make):
        point = make()
        turn = 2.0 * math.pi * P.period_map(point)
        expected = math.pi - (math.pi - turn) % (2.0 * math.pi)  # in (-pi, pi]
        assert abs(C.monodromy(point).parameter - expected) <= 1e-12


class TestBendingEnergy:
    def test_constant_curvature_circle(self):
        lam = -1.3
        eta = M.eta_pm(lam)[1]
        s = np.linspace(0.0, 2.0, 257)
        energy = C.bending_energy_arrays(s, np.full_like(s, eta), lam)
        assert energy == pytest.approx((eta + lam) * 2.0, rel=1e-12)

    def test_refinement_convergence(self):
        pt = M.classify_region(-1.1, 1.0)
        coarse = C.bending_energy(C.bs_curve(pt, samples=4096))
        fine = C.bending_energy(C.bs_curve(pt, samples=8192))
        assert abs(fine - coarse) < 1e-8

    def test_first_variation_is_second_order(self):
        # push the curve along a compactly supported normal bump and verify
        # the energy responds at second order in the amplitude: that is the
        # criticality of the generated curve, checked without any reference
        # to the generating equations
        pt = M.classify_region(-1.1, 1.0)
        cv = C.bs_curve(pt, samples=16)
        omega = cv.wavelength
        sigma = np.linspace(0.1 * omega, 0.9 * omega, 4001)
        mu, mu_dot, _ = cv.state_at(sigma)
        gamma = cv.gamma_at(sigma)
        tangent = cv.tangent_at(sigma)
        normal = C.minkowski_cross(gamma, tangent)
        kappa = mu * mu
        kappa_dot = 2.0 * mu * mu_dot

        center, width = 0.5 * omega, 0.2 * omega
        t = (sigma - center) / width
        inside = np.abs(t) < 1.0
        psi = np.zeros_like(t)
        psi[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        g1 = np.zeros_like(t)
        g2 = np.zeros_like(t)
        g1[inside] = -2.0 * t[inside] / (1.0 - t[inside] ** 2) ** 2
        g2[inside] = -2.0 * (1.0 + 3.0 * t[inside] ** 2) / (1.0 - t[inside] ** 2) ** 3
        psi_p = psi * g1 / width
        psi_pp = psi * (g1 * g1 + g2) / width**2

        def energy(eps):
            u = eps * psi
            up = eps * psi_p
            upp = eps * psi_pp
            ch, sh = np.cosh(u), np.sinh(u)
            # x = cosh(u) gamma + sinh(u) N in the orthonormal frame
            # (gamma, tangent, N); coordinates of x, x', x'' in that frame
            x = np.column_stack([ch, np.zeros_like(u), sh])
            xp = np.column_stack([up * sh, ch - kappa * sh, up * ch])
            xpp = np.column_stack([
                upp * sh + up * up * ch + (ch - kappa * sh),
                2.0 * up * sh - 2.0 * kappa * up * ch - kappa_dot * sh,
                upp * ch + up * up * sh + kappa * (ch - kappa * sh),
            ])
            speed2 = up * up + (ch - kappa * sh) ** 2
            speed = np.sqrt(speed2)
            det = (x[:, 0] * (xp[:, 1] * xpp[:, 2] - xp[:, 2] * xpp[:, 1])
                   - x[:, 1] * (xp[:, 0] * xpp[:, 2] - xp[:, 2] * xpp[:, 0])
                   + x[:, 2] * (xp[:, 0] * xpp[:, 1] - xp[:, 1] * xpp[:, 0]))
            kappa_eps = det / speed**3
            integrand = (np.sqrt(np.abs(kappa_eps)) + pt.lam) * speed
            trapz = getattr(np, "trapezoid", None) or np.trapz
            return float(trapz(integrand, sigma))

        base = energy(0.0)
        d3 = energy(1e-3) - base
        d4 = energy(1e-4) - base
        ratio = d3 / d4
        assert 30.0 < abs(ratio) < 300.0

    def test_rejects_nonconvex(self):
        with pytest.raises(DomainError):
            C.bending_energy_arrays([0.0, 1.0], [1.0, -1.0], -1.0)
