"""zetagram: the Riemann zeta function on the critical line, generalized
Gram points, and numerical verification of their discrete moments."""

from .special import (
    DomainError,
    InvariantError,
    delta,
    hardy_z,
    log_delta,
    log_gamma,
    theta,
    theta_deriv,
    zeta_euler_maclaurin,
)
from .grampoints import (
    Angle,
    GramPoint,
    GramPointSet,
    classify,
    count_estimate,
    enumerate_points,
    solve_gram,
)
from .divisor import (
    DivisorTable,
    MomentPolynomial,
    TruncatedCoeffs,
    build_table,
    convolve_truncated,
    d_kappa,
    divisor_partial_sum,
    divisor_ratio_sum,
    p2_polynomial,
    p3_polynomial,
    stieltjes,
)
from .moments import (
    DirichletPolynomial,
    GramSweep,
    MaxScanResult,
    MomentReport,
    RationalExponent,
    Theorem1Report,
    compute_S1,
    compute_S2,
    max_scan,
    moment_abs_2k,
    moment_cubed,
    signed_odd_moment,
    theorem1_pipeline,
)
from .resonator import (
    CertificateReport,
    Resonator,
    ResonatorConfig,
    build_resonator,
    certify_lower_bound,
    resonator_ratio,
)

__version__ = "0.1.0"
