"""Special-function kernel against its defining integrals and identities."""

import math

import mpmath
import numpy as np
import pytest

from halfelastica import ellint
from halfelastica.errors import DomainError, QuadratureError


def K_integrand(m):
    return lambda t: 1.0 / np.sqrt(1.0 - m * np.sin(t) ** 2)


def E_integrand(m):
    return lambda t: np.sqrt(1.0 - m * np.sin(t) ** 2)


def Pi_integrand(n, m):
    return lambda t: 1.0 / ((1.0 - n * np.sin(t) ** 2)
                            * np.sqrt(1.0 - m * np.sin(t) ** 2))


class TestCompleteK:
    def test_zero_parameter(self):
        assert ellint.complete_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_logarithmic_regime(self):
        m = 1.0 - 1e-8
        assert ellint.complete_K(m) == pytest.approx(
            math.log(4.0 / math.sqrt(1.0 - m)), rel=1e-3)

    def test_against_quadrature(self):
        ref = ellint.quad_oracle(K_integrand(0.5), 0.0, math.pi / 2, 1e-13)
        assert ellint.complete_K(0.5) == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ellint.complete_K(-0.1)
        with pytest.raises(DomainError):
            ellint.complete_K(1.0)

    def test_monotone_in_m(self):
        vals = [ellint.complete_K(m) for m in np.linspace(0.0, 0.95, 40)]
        assert np.all(np.diff(vals) > 0)


class TestCompleteE:
    def test_endpoints(self):
        assert ellint.complete_E(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert ellint.complete_E(1.0) == 1.0

    def test_legendre_relation(self):
        m = 0.3
        k, kp = ellint.complete_K(m), ellint.complete_K(1.0 - m)
        e, ep = ellint.complete_E(m), ellint.complete_E(1.0 - m)
        assert e * kp + ep * k - k * kp == pytest.approx(math.pi / 2, abs=1e-11)

    def test_below_K(self):
        for m in np.linspace(0.01, 0.99, 25):
            assert ellint.complete_E(m) < ellint.complete_K(m)


class TestCompletePi:
    def test_zero_characteristic(self):
        assert ellint.complete_Pi(0.0, 0.4) == pytest.approx(
            ellint.complete_K(0.4), rel=1e-14)

    def test_large_negative_characteristic(self):
        n = -1e6
        assert ellint.complete_Pi(n, 0.5) == pytest.approx(
            math.pi / (2.0 * math.sqrt(1.0 - n)), rel=1e-2)

    def test_against_quadrature(self):
        ref = ellint.quad_oracle(Pi_integrand(-0.5, 0.3), 0.0, math.pi / 2, 1e-13)
        assert ellint.complete_Pi(-0.5, 0.3) == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ellint.complete_Pi(1.0, 0.5)
        with pytest.raises(DomainError):
            ellint.complete_Pi(0.5, 1.5)


class TestIncompletePi:
    def test_zero_amplitude(self):
        assert ellint.incomplete_Pi(-0.3, 0.0, 0.2) == 0.0

    def test_complete_reduction(self):
        assert ellint.incomplete_Pi(-0.3, math.pi / 2, 0.2) == pytest.approx(
            ellint.complete_Pi(-0.3, 0.2), rel=1e-14)

    def test_against_quadrature(self):
        ref = ellint.quad_oracle(Pi_integrand(-0.4, 0.2), 0.0, 1.0, 1e-13)
        assert ellint.incomplete_Pi(-0.4, 1.0, 0.2) == pytest.approx(ref, rel=1e-12)


class TestQuadOracle:
    def test_constant(self):
        assert ellint.quad_oracle(lambda x: np.ones_like(x), 0.0, 1.0,
                                  1e-13) == pytest.approx(1.0, abs=1e-14)

    def test_arcsine(self):
        # inverse-square-root weight at the right endpoint
        val = ellint.quad_oracle(lambda x: 1.0 / np.sqrt(1.0 + x), 0.0, 1.0,
                                 1e-12, singular=(0.0, -0.5))
        assert val == pytest.approx(math.pi / 2, abs=1e-12)

    def test_double_singular_beta(self):
        val = ellint.quad_oracle(lambda x: np.ones_like(x), 0.0, 1.0, 1e-12,
                                 singular=(-0.5, -0.5))
        assert val == pytest.approx(math.pi, abs=1e-12)

    def test_naive_singular_integrand(self):
        # plain-integrand path on a singular function: the endpoint distances
        # are recomputed by subtraction inside f, which caps the accuracy
        # near 1e-8; the weighted path above is the full-precision route
        with np.errstate(divide="ignore"):
            val = ellint.quad_oracle(lambda x: 1.0 / np.sqrt(1.0 - x * x),
                                     0.0, 1.0, 1e-9)
        assert val == pytest.approx(math.pi / 2, abs=1e-7)

    def test_nonconvergence_reports(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError) as info:
                ellint.quad_oracle(lambda x: np.sin(1.0 / x) / x, 0.0, 1.0,
                                   1e-14)
        assert info.value.achieved is not None


def test_random_grid_against_oracle(rng):
    """Every closed form agrees with the quadrature oracle on a random grid
    of admissible (n, m, phi) tuples."""
    worst = 0.0
    for _ in range(100):
        m = rng.uniform(0.0, 0.95)
        n = rng.uniform(-5.0, 0.9)
        phi = rng.uniform(0.05, math.pi / 2)
        ref_k = ellint.quad_oracle(K_integrand(m), 0.0, math.pi / 2, 1e-13)
        ref_e = ellint.quad_oracle(E_integrand(m), 0.0, math.pi / 2, 1e-13)
        ref_p = ellint.quad_oracle(Pi_integrand(n, m), 0.0, math.pi / 2, 1e-13)
        ref_ip = ellint.quad_oracle(Pi_integrand(n, m), 0.0, phi, 1e-13)
        worst = max(
            worst,
            abs(ellint.complete_K(m) - ref_k) / abs(ref_k),
            abs(ellint.complete_E(m) - ref_e) / abs(ref_e),
            abs(ellint.complete_Pi(n, m) - ref_p) / abs(ref_p),
            abs(ellint.incomplete_Pi(n, phi, m) - ref_ip) / abs(ref_ip),
        )
    assert worst <= 1e-11


class TestAgainstMpmath:
    """Accuracy against a 40-digit mpmath reference, with m formed as a
    float and 1 - m taken from it as the kernels take it."""

    GAPS = (0.5, 1e-3, 1e-6, 1e-8, 1e-11, 1e-13, 1e-14, 1e-15, 2.0**-52)
    CHARACTERISTICS = (-1e6, -1e3, -10.0, -0.3, 0.5, 0.99)
    AMPLITUDES = (0.05, 0.4, 0.9, 1.3, 1.55)
    PARAMETERS = (0.0, 0.3, 0.9, 1.0 - 1e-6, 1.0 - 1e-11)

    @staticmethod
    def rel(value, ref):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))

    @pytest.fixture(autouse=True)
    def precision(self):
        with mpmath.workdps(40):
            yield

    def test_complete_integrals(self):
        worst_k = worst_e = worst_pi = 0.0
        for gap in self.GAPS:
            m = 1.0 - gap
            mm = mpmath.mpf(m)
            worst_k = max(worst_k, self.rel(ellint.complete_K(m), mpmath.ellipk(mm)))
            worst_e = max(worst_e, self.rel(ellint.complete_E(m), mpmath.ellipe(mm)))
            for n in self.CHARACTERISTICS + (-1e8, -1e12, -1e14):
                worst_pi = max(worst_pi, self.rel(ellint.complete_Pi(n, m),
                                                  mpmath.ellippi(n, mm)))
        # measured 3.2e-16, 5.7e-15 (at 1 - m = 2^-52) and 1.3e-15 (7.8e-16
        # at n < 0, where R_F + (n/3) R_J reads up to 7.3e-8 at n = -1e14)
        assert worst_k <= 1e-14
        assert worst_e <= 1e-14
        assert worst_pi <= 1.3e-14

    def test_incomplete_kernels_of_the_curves(self):
        """E(phi, m), G(nu; phi) = sqrt(-n) Pi(n, phi, m) at n = -1/nu down
        to n = -1e14, and Pi at complex n, from sin^2 and cos^2 of phi."""
        worst_e = worst_g = worst_c = 0.0
        for m in self.PARAMETERS:
            mm = mpmath.mpf(m)
            for phi in self.AMPLITUDES:
                s2, c2 = math.sin(phi) ** 2, math.cos(phi) ** 2
                exact = mpmath.asin(mpmath.sqrt(mpmath.mpf(s2)))
                f = ellint.incomplete_F_Pi(s2, c2, m)[0]
                worst_e = max(worst_e, self.rel(ellint.incomplete_E(s2, c2, m, f),
                                                mpmath.ellipe(exact, mm)))
                for nu in (1e-14, 1e-9, 1e-4, 0.3, 3.0):
                    n = -1 / mpmath.mpf(nu)
                    worst_g = max(worst_g, self.rel(
                        ellint._scaled_incomplete_Pi(nu, s2, c2, m),
                        mpmath.sqrt(-n) * mpmath.ellippi(n, exact, mm)))
                for n in (0.3 + 0.5j, -2.0 + 40j, -0.1 - 1e-3j):
                    ref = mpmath.ellippi(mpmath.mpc(n), exact, mm)
                    value = ellint.incomplete_F_Pi(s2, c2, m, n)[1]
                    worst_c = max(worst_c, float(abs(mpmath.mpc(value) - ref) / abs(ref)))
        # measured 8.8e-16, 1.4e-15 and 1.1e-14
        assert worst_e <= 1e-14
        assert worst_g <= 1e-14
        assert worst_c <= 1e-13

    def test_complete_integrals_on_arrays(self):
        m = 1.0 - np.array(self.GAPS)
        n = np.resize(self.CHARACTERISTICS, len(self.GAPS))
        k = ellint.complete_K(m)
        pi = ellint.complete_Pi(n, m)
        assert isinstance(k, np.ndarray) and isinstance(pi, np.ndarray)
        assert list(k) == [ellint.complete_K(float(x)) for x in m]
        assert list(pi) == [ellint.complete_Pi(float(a), float(b))
                            for a, b in zip(n, m)]

    def test_asymptotic_route_on_arrays(self):
        # 1 - m below 1e-12 goes through the same kernels, element by element
        m = np.array([0.5, 1.0 - 1e-13])
        n = np.array([-0.3, 0.5])
        k = ellint.complete_K(m)
        assert list(k) == [ellint.complete_K(float(x)) for x in m]
        assert list(ellint.complete_Pi(n, m)) == [
            ellint.complete_Pi(float(a), float(b)) for a, b in zip(n, m)]
        with pytest.raises(DomainError):
            ellint.complete_K(np.array([0.5, 1.0]))
        with pytest.raises(DomainError):
            ellint.complete_Pi(np.array([0.5, 1.0]), 0.5)

    def test_scaled_third_kind(self):
        """G(nu, m) = sqrt(-n) Pi(n, m) at n = -1/nu, from K(m) and one R_J,
        down to n = -1e14, and its limit pi/2 at nu = 0; arrays give the
        float values element by element."""
        worst = 0.0
        for gap in self.GAPS:
            m = 1.0 - gap
            k = ellint.complete_K(m)
            assert ellint._scaled_Pi(0.0, m, k) == math.pi / 2.0
            for n in (-0.3, -1.0, -10.0, -1e3, -1e6, -1e9, -1e12, -1e14):
                nu = -1.0 / n
                n_exact = -1 / mpmath.mpf(nu)
                worst = max(worst, self.rel(
                    ellint._scaled_Pi(nu, m, k),
                    mpmath.sqrt(-n_exact) * mpmath.ellippi(n_exact, mpmath.mpf(m))))
        # measured 7.7e-16
        assert worst <= 8e-15
        m = 1.0 - np.array(self.GAPS)
        nu = np.resize([0.0, 1e-14, 0.5, 3.0], len(self.GAPS))
        g = ellint._scaled_Pi(nu, m, ellint.complete_K(m))
        assert isinstance(g, np.ndarray)
        assert g.tolist() == [ellint._scaled_Pi(float(a), float(b), ellint.complete_K(float(b)))
                              for a, b in zip(nu, m)]

    def test_incomplete_integrals(self):
        worst_f = worst_pi = 0.0
        for m in self.PARAMETERS:
            mm = mpmath.mpf(m)
            for phi in self.AMPLITUDES:
                worst_f = max(worst_f, self.rel(ellint.incomplete_F(phi, m),
                                                mpmath.ellipf(phi, mm)))
                for n in self.CHARACTERISTICS:
                    worst_pi = max(worst_pi, self.rel(
                        ellint.incomplete_Pi(n, phi, m), mpmath.ellippi(n, phi, mm)))
        # measured 3.1e-15 and 1.5e-12
        assert worst_f <= 5e-14
        assert worst_pi <= 2e-11
