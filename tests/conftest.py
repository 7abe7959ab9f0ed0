"""Shared samplers for the test suite.

All randomness is seeded so the suite is deterministic; points are drawn
with interior margins so no test accidentally probes a degenerate boundary
unless it means to.
"""

import numpy as np
import pytest

from halfelastica import curvegen, dynamics, moduli, periodmap
from halfelastica.moduli import (
    LAMBDA_CRITICAL,
    LAMBDA_EXCEPTIONAL,
    Region,
    a_lower,
    b0,
    classify_region,
    eta_pm,
    exceptional_c,
)


def sample_moduli(rng, n, lam_range=(-2.5, LAMBDA_CRITICAL - 5e-3),
                  margin=0.03):
    """n points drawn uniformly from the interior of the moduli space."""
    pts = []
    while len(pts) < n:
        lam = rng.uniform(*lam_range)
        em, ep = eta_pm(lam)
        e2 = em + (ep - em) * rng.uniform(margin, 1.0 - margin)
        pt = classify_region(lam, e2)
        if pt.in_moduli_space:
            pts.append(pt)
    return pts


def sample_timelike(rng, n, lam_range=(-2.2, -0.89), margin=0.04,
                    locus_gap=2e-3):
    """n interior time-like points, kept away from the exceptional locus."""
    pts = []
    while len(pts) < n:
        lam = rng.uniform(*lam_range)
        if lam >= LAMBDA_CRITICAL - 5e-3:
            continue
        a = a_lower(lam)
        ep = eta_pm(lam)[1]
        e2 = a + (ep - a) * rng.uniform(margin, 1.0 - margin)
        if lam < LAMBDA_EXCEPTIONAL and abs(e2 - exceptional_c(lam)) < locus_gap:
            continue
        pt = classify_region(lam, e2)
        if pt.region in (Region.T_MINUS, Region.T_PLUS):
            pts.append(pt)
    return pts


def sample_spacelike(rng, n, lam_range=(-2.2, -1.05), margin=0.05):
    """n interior space-like points."""
    pts = []
    while len(pts) < n:
        lam = rng.uniform(*lam_range)
        em = eta_pm(lam)[0]
        hi = b0(lam)
        e2 = em + (hi - em) * rng.uniform(margin, 1.0 - margin)
        pt = classify_region(lam, e2)
        if pt.region is Region.S:
            pts.append(pt)
    return pts


def sample_lightlike(rng, n, lam_range=(-2.2, -1.05)):
    """n points on the light-like curve."""
    return [classify_region(lam, b0(lam))
            for lam in rng.uniform(*lam_range, size=n)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def quartic_solves(monkeypatch):
    """Records every quartic solve: each goes through the scalar closed-form
    e1 route (the batched slice path does not), which moduli and the period
    map's resolver both call."""
    calls = []
    solve = moduli._solve_e1

    def counting(*args):
        calls.append(args)
        return solve(*args)

    for module in (moduli, periodmap):
        monkeypatch.setattr(module, "_solve_e1", counting)
    return calls


@pytest.fixture
def locus_residuals(monkeypatch):
    """Records every evaluation of the locus residual T through
    exceptional_residual, which moduli's quartic record and the period
    map's fiber crossing call."""
    calls = []
    residual = moduli.exceptional_residual

    def counting(*args):
        calls.append(args)
        return residual(*args)

    for module in (moduli, periodmap):
        monkeypatch.setattr(module, "exceptional_residual", counting)
    return calls


@pytest.fixture
def ode_spans(monkeypatch):
    """Records the span of every integration of the package: each solve_ivp
    call through the names that dynamics and curvegen bind."""
    spans = []
    for module in (dynamics, curvegen):
        def recording(fun, t_span, *args, _solve=module.solve_ivp, **kwargs):
            spans.append(tuple(t_span))
            return _solve(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(module, "solve_ivp", recording)
    return spans
