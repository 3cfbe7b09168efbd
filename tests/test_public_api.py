"""The names ``tmcmc`` exports, pinned: any change to the public surface is deliberate."""

import os
import subprocess
import sys
import types
from pathlib import Path

import tmcmc

SRC = os.pathsep.join([str(Path(tmcmc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])

PUBLIC = [
    "AcceptanceBoundInputs", "ChainState", "ChallengerRecord", "DependentZConfig", "HmcConfig",
    "HmcLogBounds", "LogBoundPair", "LogConcaveMeta", "PhasePoint", "ScalingStudySpec",
    "Target", "TmcmcConfig", "Trace", "Transformation", "Verdict", "acceptance_rate",
    "additive_transformation", "chain_rng", "exact_transition_matrix",
    "expected_acceptance_rate", "hmc_ar_bounds", "hmc_one_step_proposal_params",
    "iact_and_ess", "ising_transition_matrix", "lattice_transition_matrix", "leapfrog",
    "load_challenger_data", "make_additive_tmcmc_kernel", "make_anisotropic_gaussian",
    "make_challenger_logistic", "make_dependent_z_kernel", "make_general_tmcmc_kernel",
    "make_hmc_kernel", "make_iid_gaussian", "make_ising_chain", "make_ising_kernel",
    "make_lattice_target", "make_rwmh_kernel", "make_zk_kernel", "run_chain",
    "run_scaling_study", "rwmh_ar_asymp", "rwmh_ar_bounds", "split_rhat",
    "stationary_distribution", "tmcmc_ar_bounds",
]


def test_public_surface_is_pinned():
    names = sorted(
        name for name, value in vars(tmcmc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC)


def test_import_needs_no_scipy():
    # scipy is imported only by the functions that use it; a fresh interpreter shows what import costs.
    code = "import sys, tmcmc, tmcmc.cli; assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=SRC))
