"""Simulation laboratory for stochastic mean-field limits of SGD.

The package implements the interacting particle system driven by data-indexed
common noise, its conservative SPDE limit (via the superposition flow), the
deterministic transport limit, the Gaussian fluctuation field solved by a
tangent-particle system, and the coupled-noise experiments that verify the
convergence rates.
"""

__version__ = "0.1.0"

from .coefficients import (
    ACTIVATIONS,
    Activation,
    CoefficientError,
    Dataset,
    NetworkCoefficients,
    SyntheticCoefficients,
)
from .diagnostics import (
    BudgetExceeded,
    TestFunction,
    f_n_functional,
    gaussian_bump,
    min_pairwise_distance,
    moment_track,
    qv_check,
    qv_check_panel,
    smfe_weak_residual_panel,
    standard_panel,
    trig_wave,
)
from .dynamics import (
    InitialSpec,
    IntegratorConfig,
    NoisePath,
    ParticleEnsemble,
    PicardResult,
    SgdChain,
    SimulationError,
    Trajectory,
    picard_solve,
    run_sgd,
    sample_initial,
    simulate,
    simulate_transport,
    step_interacting,
    write_trajectory,
)
from .fluctuations import (
    FluctuationPath,
    TangentEnsemble,
    clt_distance,
    eta_eps,
    solve_tangent,
    tangent_step,
    weak_residual_linear,
)
from .harness import (
    ExperimentConfig,
    ResultTable,
    SlopeFit,
    exp_clt_rate,
    exp_commute,
    exp_lln_rate,
    exp_particle_rate,
    exp_sgd_compare,
    fit_slope,
    reference_config,
)
from .measures import (
    EmpiricalMeasure,
    SignedAtomicField,
    SpectralGrid,
    moment,
    pair,
    sobolev_neg_norm,
    w2,
)
