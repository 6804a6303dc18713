"""Monte-Carlo engine and verification harness for divergence-form diffusions.

The package simulates the diffusion dX = (-grad U + b)/2 dt + dw attached to
the generator (1/2) e^U div[e^{-U}(I + H) grad f], estimates semigroup
gradients by a pathwise route and an integration-by-parts route built on an
adapted matrix control, and verifies the resulting first-derivative bound in
L^p of the invariant law empirically.
"""
from .control import (
    ControlPath,
    HorizonPolicy,
    TraceMomentReport,
    build_control,
    e_function,
    gronwall_sweep,
    trace_moment_check,
)
from .errors import (
    ConfigError,
    DegeneracyError,
    DivflowError,
    EvaluationError,
    IntegrationError,
    PolicyError,
)
from .estimator import (
    GradientEstimate,
    IbpReport,
    PathSummary,
    flow_summary,
    frechet_from_summary,
    grad_malliavin,
    ibp_from_summary,
    ito_integral,
    malliavin_from_summary,
)
from .functions import (
    TestFunction,
    battery,
    battery_for,
    bump,
    constant,
    coordinate,
    coordinate_bump,
    shifted,
    square,
)
from .model import (
    CoefficientModel,
    TestProblem,
    apply_A,
    apply_generator,
    apply_L,
    consistency_report,
    curvature_matrix,
    curvature_sup,
    drift_b,
    jac_drift,
    make_dw1d,
    make_ou1d,
    make_problem,
    make_rot2d,
    make_varh2d,
    numerical_range_sup,
    total_drift,
)
from .norms import (
    ExpIntegrability,
    InequalityReport,
    MomentTestConfig,
    NormEstimate,
    NormProfile,
    bdg_constant,
    check_gradient_inequality,
    check_hessian_inequality,
    constant_c,
    decay_check,
    exp_integrability,
    lp_norm,
    moment_bound_check,
    norm_profile,
    operator_symmetry_check,
    r_exponent,
    stationarity_check,
)
from .sde import (
    StationaryEnsemble,
    Trajectory,
    WienerGrid,
    sample_stationary,
    simulate_path,
)
from .variational import (
    DriftJacobianPath,
    FundamentalMatrix,
    ThetaResult,
    drift_jacobian_path,
    fundamental_matrix,
    malliavin_flow,
    propagator,
    theta_flow,
)

__version__ = "0.1.0"
