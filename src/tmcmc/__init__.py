"""Transformation-based MCMC kernels, baselines, and a verification harness.

The package exposes target families, sampler kernels (single-innovation
transformation moves, random-walk Metropolis, Hamiltonian Monte Carlo, and
discrete-state variants), chain diagnostics, acceptance-rate bound
evaluators, a dimension-scaling study engine, and exact balance/structure
verification utilities.  The ``tmcmc`` console script drives all of it.
"""

__version__ = "0.1.0"

from .baseline_kernels import (
    HmcConfig,
    PhasePoint,
    hmc_one_step_proposal_params,
    leapfrog,
    make_hmc_kernel,
    make_rwmh_kernel,
)
from .bounds import (
    AcceptanceBoundInputs,
    HmcLogBounds,
    LogBoundPair,
    hmc_ar_bounds,
    rwmh_ar_asymp,
    rwmh_ar_bounds,
    tmcmc_ar_bounds,
)
from .chain import ChainState, Trace, chain_rng, run_chain
from .diagnostics import (
    acceptance_rate,
    expected_acceptance_rate,
    iact_and_ess,
    split_rhat,
)
from .discrete_kernels import (
    exact_transition_matrix,
    ising_transition_matrix,
    lattice_transition_matrix,
    make_ising_kernel,
    make_zk_kernel,
    stationary_distribution,
)
from .scaling import ScalingStudySpec, run_scaling_study
from .targets import (
    ChallengerRecord,
    LogConcaveMeta,
    Target,
    load_challenger_data,
    make_anisotropic_gaussian,
    make_challenger_logistic,
    make_iid_gaussian,
    make_ising_chain,
    make_lattice_target,
)
from .transform_kernels import (
    DependentZConfig,
    TmcmcConfig,
    Transformation,
    additive_transformation,
    make_additive_tmcmc_kernel,
    make_dependent_z_kernel,
    make_general_tmcmc_kernel,
)
from .verify import Verdict
