"""Training-based achievable-rate lower bounds for one-bit transceivers.

Large multi-antenna systems with sign-quantized transmit or receive chains
distort channel estimation, so how long to train is a real design question.
This package computes the rate lower bound of a train-then-transmit scheme,
optimizes the training length, and cross-checks the large-system closed
forms against exact enumeration of small systems.
"""
from .numerics import (
    LN2,
    QuadratureRule,
    exp_ratio,
    gauss_hermite,
    log_q_function,
    q_function,
)
from .quantizer import SIGN_OUTPUTS, sign_log_likelihoods
from .replica import (
    ChannelOverlap,
    DataOverlap,
    SolverError,
    SystemParams,
    csir_rate,
    effective_snr,
    f1_value,
    f2_onebit,
    perfect_csi_overlap,
    reff_linear,
    reff_onebit,
    single_pair_capacity,
    solve_qh,
    solve_qx_linear,
    solve_qx_onebit,
)
from .optimizer import (
    BoundResult,
    RateCurve,
    bussgang_bound,
    compare_sweep,
    low_snr_asymptotics,
    optimize_training,
    replica_bound,
    small_alpha_rate,
    sweep_onebit_alpha,
    training_grid,
)
from .exact import (
    ChannelIntegration,
    EnumerationBudgetError,
    SmallSystem,
    c_bound_exact,
    d1,
    d2,
    d3,
    d4,
    mi_direct,
    reff_exact,
)

__version__ = "0.1.0"
