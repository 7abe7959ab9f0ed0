"""The package's Brent loop (``moduli.brentq``) against scipy's
``scipy.optimize.brentq``, its reference: the same points evaluated in the
same order, the same root bit for bit, the same count of calls of f and the
same exception types, on crafted functions and on the solves the package
makes (the boundary quartic's eta-+, the string refinements and the fiber's
crossing of E)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from halfelastica import moduli as M
from halfelastica import periodmap as P

EPS = np.finfo(float).eps
# the package's loop, kept before any test rebinds the module global
BRENTQ = M.brentq


def _outcome(solve, f, a, b, **options):
    """What one solver did: the points it evaluated, and either its root
    (as hex, with its type and call count) or its exception type."""
    points = []

    def recorded(x):
        points.append(x)
        return f(x)

    try:
        root, info = solve(recorded, a, b, full_output=True, **options)
    except (ValueError, RuntimeError) as exc:
        return type(exc), points
    return (float(root).hex(), type(root), info.function_calls), points


def _same_as_scipy(f, a, b, **options):
    ours = _outcome(BRENTQ, f, a, b, **options)
    assert ours == _outcome(scipy_brentq, f, a, b, **options)
    return ours


@pytest.fixture
def checked_solves(monkeypatch):
    """Rebind brentq where the library looks it up, so that every solve is
    made by both solvers and compared; returns the list of their outcomes."""
    solves = []

    def both(f, a, b, **options):
        outcome, _ = _same_as_scipy(f, a, b, **options)
        solves.append(outcome)
        return BRENTQ(f, a, b, **options)

    for module in (M, P):
        monkeypatch.setattr(module, "brentq", both)
    return solves


@pytest.mark.parametrize("f, a, b, options, expected", [
    # exact zeros at either end, returned after the two end evaluations
    (lambda x: x, 0.0, 1.0, {}, ("0x0.0p+0", float, 2)),
    (lambda x: x - 1.0, 0.0, 1.0, {}, ("0x1.0000000000000p+0", float, 2)),
    (lambda x: -0.0 if x == 0.0 else x - 3.0, 0.0, 5.0, {}, ("0x0.0p+0", float, 2)),
    # ends given as ints, f returning numpy floats
    (lambda x: np.float64(x) ** 3 - 7.0, 0, 3, {}, None),
    (lambda x: x * x - 2.0, 2.0, 0.0, {}, None),
    (lambda x: math.exp(x) - 5.0, -10.0, 10.0, {"xtol": 1e-14, "rtol": 8.9e-16}, None),
    (lambda x: 1e-300 * math.tanh(x - 0.123456789), -3.0, 5.0, {}, None),
    (lambda x: math.atan(1e6 * (x - 0.3)), 0.0, 1.0, {"xtol": 1e-15}, None),
    # ends that share a sign: both are evaluated, then ValueError
    (lambda x: x * x + 1.0, 0.0, 2.0, {}, ValueError),
    (lambda x: -1.0, -1.0, -2.0, {}, ValueError),
    # a NaN value at an end or inside
    (lambda x: math.nan, 0.0, 1.0, {}, ValueError),
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}, ValueError),
    # bisection of a step from 1e300 needs about 1000 iterations
    (lambda x: 1.0 if x > 1.0 else -1.0, -1e300, 1e300, {}, RuntimeError),
    (lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0.0}, ValueError),
    (lambda x: x - 0.3, 0.0, 1.0, {"xtol": -1e-12}, ValueError),
    (lambda x: x - 0.3, 0.0, 1.0, {"rtol": 4.0 * EPS * (1.0 - EPS)}, ValueError),
])
def test_crafted_cases_match_scipy(f, a, b, options, expected):
    outcome, points = _same_as_scipy(f, a, b, **options)
    if expected is not None:
        assert outcome == expected
    if expected is RuntimeError:
        assert len(points) == 2 + 100
    if options.get("xtol", 1.0) <= 0.0 or options.get("rtol", 1.0) < 4.0 * EPS:
        assert points == []


def test_least_tolerances_are_accepted():
    outcome, _ = _same_as_scipy(lambda x: x - 0.3, 0.0, 1.0,
                                xtol=5e-324, rtol=4.0 * EPS)
    assert outcome[1] is float


def test_plain_call_returns_the_root():
    f = lambda x: x * x - 2.0  # noqa: E731
    root = BRENTQ(f, 0.0, 2.0)
    assert type(root) is float
    assert root == scipy_brentq(f, 0.0, 2.0)


def test_eta_pm_solves_match_scipy(checked_solves):
    for lam in np.linspace(-5.0, -0.88, 120).tolist():
        M.eta_pm(lam)
    assert len(checked_solves) == 240
    assert all(outcome[1] is float for outcome in checked_solves)


def _rationals_in(lo, hi, count):
    # within 1e-12 of evenly spaced points of (lo, min(hi, lo + 1))
    width = min(hi, lo + 1.0) - lo
    return [Fraction(lo + width * t).limit_denominator(10**6)
            for t in np.linspace(0.1, 0.9, count).tolist()]


@pytest.mark.parametrize("lam", [-0.88, -0.9, -0.95, -1.01, -1.2, -1.5, -2.0, -4.0])
def test_string_refinements_match_scipy(lam, checked_solves):
    lo, hi = P.j_interval(lam)
    for q in _rationals_in(lo, hi, 4):
        P.string_candidates(lam, q)
    # one eta-+ pair per slice and at least one refinement per q
    assert len(checked_solves) >= 2 + 4


@pytest.mark.parametrize("q", ["11/10", "25/24", "6/5", "16/15", "19/16"])
def test_fiber_crossings_of_e_match_scipy(q, checked_solves):
    trace = P.trace_fiber(q, steps=200)
    assert trace.crossing is not None
    # the crossing's outer solve and its lam_on_locus solves inside it
    assert len(checked_solves) >= 3
