"""Constrained 1/2-elastica curves in the hyperbolic plane.

Numerical toolkit for convex critical curves of the length-constrained
square-root bending energy: moduli-space classification, curve generation
for all three causal types of the conserved momentum, the period map with
closed-form elliptic evaluation, and discovery of the closed time-like
curves sitting on its rational fibers.
"""

from .errors import (
    BracketError,
    CharacteristicIntervalError,
    DomainError,
    HalfElasticaError,
    IntegrationError,
    OutsideModuliSpaceError,
    QuadratureError,
    RegionError,
)
from .ellint import (
    complete_E,
    complete_K,
    complete_Pi,
    incomplete_F,
    incomplete_Pi,
    quad_oracle,
)
from .moduli import (
    GOLDEN_RATIO,
    LAMBDA_CRITICAL,
    LAMBDA_EXCEPTIONAL,
    ModulusPoint,
    QuarticData,
    Region,
    a_lower,
    b0,
    cardano_e1,
    chi,
    classify_region,
    eta_pm,
    exceptional_c,
    in_moduli_space,
    resolve,
    roots_from_modulus,
)
from .dynamics import (
    MuSolution,
    OrbitKind,
    classify_orbit,
    conserved_level,
    constant_curvature_census,
    h_inverse,
    linearized_center_period,
    m_star,
    phase_field,
    saddle_level,
    signature,
    solve_mu,
    wavelength,
    wavelength_quadrature,
)
from .curvegen import (
    CurveKind,
    CurveSamples,
    Monodromy,
    MonodromyClass,
    bending_energy,
    bl_boost_closed_form,
    bl_boost_quadrature,
    bl_curve,
    bs_curve,
    bt_annulus_radii,
    bt_curve,
    frenet_oracle,
    from_poincare,
    make_curve,
    minkowski_cross,
    minkowski_dot,
    momentum,
    momentum_samples,
    monodromy,
    to_poincare,
    upsilon_plus,
)
from .periodmap import (
    EllipticCoeffs,
    FamilyInvariants,
    FiberTrace,
    StringRecord,
    elliptic_coeffs,
    family_invariants,
    fiber_endpoint,
    find_string,
    j_interval,
    monotonicity_transition,
    period_map,
    period_map_oracle,
    period_map_slice,
    string_candidates,
    trace_fiber,
)

__version__ = "0.1.0"
