"""High-precision reference values for the test suite, by mpmath alone.

Nothing here calls the package: the quartic roots come from ``mp.polyroots``
of the e1 cubic, the exceptional height from that of the locus cubic, and
the period map from quadrature of its defining
integral, each with DIGITS + 10 working digits.  On the exceptional-locus
rows of the tests (d = 1e-3 down to 1e-12 and the pair whose float T is 0)
the values at DIGITS = 40 agree with those at 60 to 1e-35.  The wavelength
is the quadrature of its defining integral on roots that the caller gives,
taken as exact, so that it measures the closed form and not the root solve.
"""

import mpmath as mp

DIGITS = 40


def quartic(lam, e2):
    """(e1, e2, e3, e4, c) of the float modulus (lam, e2), as mpf at the
    working precision: e1 is the largest real root of e2^2 x^3 + (e2^3 +
    4 lam e2^2) x^2 + x + e2, and e3, e4, c follow from the root relations."""
    lam, e2 = mp.mpf(lam), mp.mpf(e2)
    roots = mp.polyroots([e2 * e2, e2**3 + 4 * lam * e2 * e2, 1, e2],
                         maxsteps=200, extraprec=2 * mp.mp.prec)
    e1 = max(mp.re(r) for r in roots)
    s = mp.sqrt(4 * e1**3 * e2**3 + (e1 + e2) ** 2)
    e3 = (e1 + e2 + s) / (2 * e1 * e1 * e2 * e2)
    e4 = -2 * e1 * e2 / (e1 + e2 + s)
    c = (e1**4 * e2**4 * (e1 - e2) ** 2 - 2 * e1**2 * e2**2 * (e1**2 + e2**2)
         + (e1 + e2) ** 2) / (16 * e1**4 * e2**4)
    return e1, e2, e3, e4, c


def exceptional_c(lam, digits=DIGITS):
    """The e2-height of the exceptional locus at the multiplier lam, as an
    mpf: the largest real root of T(-2 lam, e) = 4 lam^2 e^3 + 8 lam^3 e^2
    + e - 2 lam, where the locus residual T is taken at e1 = -2 lam."""
    with mp.workdps(digits + 10):
        lam = mp.mpf(lam)
        roots = mp.polyroots([4 * lam * lam, 8 * lam**3, 1, -2 * lam],
                             maxsteps=200, extraprec=2 * mp.mp.prec)
        return max(mp.re(r) for r in roots)


def _ladder(width):
    """Split distances width * 10^k below 1/2, k >= 0: each piece of the
    quadrature then spans about one decade of distance to its endpoint."""
    steps = []
    while width < 0.5:
        steps.append(width)
        width *= 10
    return steps


def period_map(lam, e2, digits=DIGITS):
    """P(lam, e2) = -(2 sqrt|c|/pi) int_{e2}^{e1} x (x + 2 lam) dx /
    ((1 + 4 c x^2) sqrt(-Q(x))) plus the side offset (1 below the
    exceptional locus, 1/2 on it, 0 above it and for lam at or above
    -phi^(5/4)/2, where E ends; phi is the golden ratio), as an mpf.

    The integral is taken in theta with x = e2 + (e1 - e2) sin^2 theta.  Its
    pieces are split toward theta = pi/2 on the scale of the near-pole of
    1/(1 + 4 c x^2) just above e1, which the exceptional locus brings onto
    e1, and toward theta = 0 on the scale of e3 just below e2, which the
    saddle boundary brings onto e2.  Near E, 1 + 4 c x^2 = (kappa1 + 2
    sqrt|c| (e1 - x))(1 + 2 sqrt|c| x) is formed with kappa1 = 1 - 2
    sqrt|c| e1 from 1 + 4 c e1^2 = T^2/(4 e1^2 e2^4), where T is the locus
    residual, so that no digits are lost to kappa1 ~ T^2."""
    with mp.workdps(digits + 10):
        e1, e2, e3, e4, c = quartic(lam, e2)
        lam = mp.mpf(lam)
        sc = mp.sqrt(-c)
        gap = e1 - e2
        t = e1 * e1 * e2**3 - e1**3 * e2 * e2 + e1 + e2
        kappa1 = t * t / (4 * e1 * e1 * e2**4 * (1 + 2 * sc * e1))

        two_sc, two_lam = 2 * sc, 2 * lam
        slope = two_sc * gap

        def integrand(theta):
            cos, sin = mp.cos_sin(theta)
            x = e2 + gap * (sin * sin)
            pole = (kappa1 + slope * (cos * cos)) * (1 + two_sc * x)
            return x * (x + two_lam) / (pole * mp.sqrt((x - e3) * (x - e4)))

        low = _ladder(mp.sqrt((e2 - e3) / gap))
        high = _ladder(mp.sqrt(kappa1 / (2 * sc * gap)) if kappa1
                       else mp.mpf(10) ** -(digits + 5))
        nodes = [mp.mpf(0)] + low + [mp.pi / 2 - w for w in reversed(high)]
        value = 2 * mp.quad(integrand, nodes + [mp.pi / 2])
        if lam >= -mp.phi ** (mp.mpf(5) / 4) / 2:
            offset = 0
        else:
            offset = 1 if t < 0 else (0 if t > 0 else mp.mpf(1) / 2)
        return -(2 * sc / mp.pi) * value + offset


def wavelength(roots, digits=DIGITS):
    """omega = 2 int_{e2}^{e1} dx / (x sqrt(-Q(x))) for the monic quartic Q
    with the roots (e1, e2, e3, e4), taken as exact, as an mpf.

    In theta, x = e2 + (e1 - e2) sin^2 theta, it is 4 int_0^{pi/2} dtheta /
    (x sqrt((x - e3)(x - e4))), with no endpoint singularity; its pieces are
    split toward theta = 0 on the scale of e3 just below e2, which the
    saddle boundary brings onto e2.  The integrand is taken in units of e2,
    so that mp.quad's absolute error target is relative to omega e2^2 at
    every scale of the roots."""
    with mp.workdps(digits + 10):
        e1, e2, e3, e4 = (mp.mpf(r) for r in roots)
        gap, r3, r4 = (e1 - e2) / e2, e3 / e2, e4 / e2

        def integrand(theta):
            y = 1 + gap * mp.sin(theta) ** 2
            return 1 / (y * mp.sqrt((y - r3) * (y - r4)))

        nodes = [mp.mpf(0)] + _ladder(mp.sqrt((1 - r3) / gap)) + [mp.pi / 2]
        return 4 * mp.quad(integrand, nodes) / (e2 * e2)
