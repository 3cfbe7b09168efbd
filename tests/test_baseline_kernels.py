import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tmcmc.baseline_kernels import (
    HmcConfig,
    LeapfrogError,
    PhasePoint,
    _kicks,
    hmc_one_step_proposal_params,
    leapfrog,
    make_hmc_kernel,
    make_rwmh_kernel,
)
from tmcmc.chain import chain_rng, run_chain
from tmcmc.diagnostics import acceptance_rate
from tmcmc.targets import Target, make_anisotropic_gaussian, make_challenger_logistic, make_iid_gaussian


def uniform_patch_target(k):
    """Flat log-density with zero gradient (free particle)."""
    return Target(
        dim=k,
        log_density=lambda x: 0.0,
        grad_log_density=lambda x: np.zeros(k),
        name="uniform-patch",
    )


# --- random walk -----------------------------------------------------------


def test_rwmh_density_ratio_hand_value(scripted_rng):
    target = make_iid_gaussian(1)
    rng = scripted_rng(uniforms=[0.9], normals=[1.0])
    kernel = make_rwmh_kernel(target, 1.0)
    step = run_chain(kernel, np.zeros(1), 1, rng)
    assert_allclose(step.log_alpha[0], -0.5, rtol=1e-13)


def test_rwmh_accepts_at_mode_with_tiny_scale():
    target = make_iid_gaussian(3)
    kernel = make_rwmh_kernel(target, 1e-8)
    trace = run_chain(kernel, np.zeros(3), 200, 0)
    assert acceptance_rate(trace) == 1.0


def test_rwmh_draw_law():
    # Blocks of 256 rows on one seed: the entries are iid N(0, sigma^2).  Each check is a
    # |z| < 4 normal score: every coordinate's mean and variance, and each pair's correlation.
    sigma, k = 0.6, 3
    kernel = make_rwmh_kernel(make_iid_gaussian(k), sigma)
    rng = chain_rng(17)
    rows = np.concatenate([kernel.draw(rng, 256) for _ in range(40)])
    n = len(rows)
    assert rows.shape == (n, k)
    for i in range(k):
        assert abs(rows[:, i].mean()) < 4 * sigma / math.sqrt(n), i
        assert abs(np.mean(rows[:, i] ** 2) - sigma**2) < 4 * sigma**2 * math.sqrt(2 / n), i
        for j in range(i):
            assert abs(np.mean(rows[:, i] * rows[:, j])) < 4 * sigma**2 / math.sqrt(n), (i, j)


def test_rwmh_validation():
    with pytest.raises(ValueError):
        make_rwmh_kernel(make_iid_gaussian(1), 0.0)


def test_gradientless_target_is_rejected_at_construction():
    no_grad = Target(dim=1, log_density=lambda x: 0.0)
    with pytest.raises(ValueError):
        make_hmc_kernel(no_grad, HmcConfig(L=1, dt=0.1))
    with pytest.raises(ValueError):
        hmc_one_step_proposal_params(np.zeros(1), no_grad, HmcConfig(L=1, dt=0.1))


# --- leapfrog --------------------------------------------------------------


def test_leapfrog_free_particle_advances_linearly():
    k = 3
    target = uniform_patch_target(k)
    cfg = HmcConfig(L=7, dt=0.25, mass=np.array([1.0, 2.0, 4.0]))
    p = np.array([1.0, -2.0, 0.8])
    end = leapfrog(PhasePoint(np.zeros(k), p), cfg, target)
    assert_allclose(end.x, 7 * 0.25 * p / np.array([1.0, 2.0, 4.0]), rtol=1e-12)
    assert_allclose(end.p, p, rtol=0, atol=0)


def test_leapfrog_hand_evaluation():
    target = make_iid_gaussian(1)
    end = leapfrog(PhasePoint(np.array([1.0]), np.array([0.0])), HmcConfig(L=1, dt=0.1), target)
    assert_allclose(end.x, [0.995], rtol=1e-14)
    assert_allclose(end.p, [-0.09975], rtol=1e-14)


def test_leapfrog_reversibility_randomized():
    target = make_iid_gaussian(3)
    cfg = HmcConfig(L=8, dt=0.05, mass=np.array([1.0, 0.5, 2.0]))
    rng = chain_rng(21)
    worst = 0.0
    for _ in range(1000):
        start = PhasePoint(rng.standard_normal(3), rng.standard_normal(3))
        end = leapfrog(start, cfg, target)
        back = leapfrog(PhasePoint(end.x, -end.p), cfg, target)
        worst = max(
            worst,
            float(np.abs(back.x - start.x).max()),
            float(np.abs(back.p + start.p).max()),
        )
    assert worst < 1e-10


def test_leapfrog_reports_nonfinite_gradient_step():
    k = 1

    def bad_grad(x):
        return np.array([math.nan]) if abs(float(x[0])) > 2.0 else -x

    target = Target(dim=k, log_density=lambda x: -0.5 * float(x @ x), grad_log_density=bad_grad)
    with pytest.raises(LeapfrogError, match="step"):
        leapfrog(PhasePoint(np.array([1.9]), np.array([8.0])), HmcConfig(L=5, dt=0.5), target)


def test_hmc_config_validation():
    for bad in (dict(L=0, dt=0.1), dict(L=1, dt=0.0), dict(L=1, dt=0.1, mass=0.0)):
        with pytest.raises(ValueError):
            HmcConfig(**bad)
    assert HmcConfig(L=np.int64(3), dt=0.1).L == 3  # numpy integers are integral


@pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
def test_hmc_config_refuses_a_boolean_L(flag):
    # bool is an int, so an isinstance test alone would run L=True as L = 1
    with pytest.raises(ValueError, match="L must be an integer"):
        HmcConfig(L=flag, dt=0.1)


def test_phase_point_names_both_shapes():
    # otherwise leapfrog() dies later on numpy's bare broadcast error, which names neither
    with pytest.raises(ValueError, match=r"x has shape \(3,\) but p has shape \(2,\)"):
        PhasePoint(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match=r"x has shape \(2,\) but p has shape \(2, 1\)"):
        PhasePoint(np.zeros(2), np.zeros((2, 1)))


@pytest.mark.parametrize("mass", [(1.0, 2.0), np.ones((5, 1)), np.ones(6)])
def test_hmc_mass_of_another_dimension_is_named(mass):
    # such a mass used to fail inside np.broadcast_to with a message that did not name it
    cfg = HmcConfig(L=1, dt=0.1, mass=mass)
    with pytest.raises(ValueError, match=rf"mass has shape \({', '.join(map(str, np.shape(mass)))},?\); "
                                         r"a target of dimension 5 needs \(\) or \(1,\) or \(5,\)"):
        make_hmc_kernel(make_iid_gaussian(5), cfg)
    with pytest.raises(ValueError, match="mass has shape"):
        leapfrog(PhasePoint(np.zeros(5), np.zeros(5)), cfg, make_iid_gaussian(5))
    for fits in (2.0, (2.0,), np.full(5, 2.0)):
        assert np.array_equal(HmcConfig(L=1, dt=0.1, mass=fits).mass_vector(5), np.full(5, 2.0))


# --- HMC -------------------------------------------------------------------


def test_hmc_accepts_everything_as_dt_vanishes():
    target = make_iid_gaussian(4)
    kernel = make_hmc_kernel(target, HmcConfig(L=2, dt=1e-4))
    trace = run_chain(kernel, np.ones(4), 200, 3)
    assert acceptance_rate(trace) == 1.0


def test_hmc_matches_rwmh_on_flat_potential_shared_stream():
    # With zero gradient and L = 1 the position proposal is x + dt M^{-1} p',
    # identical in law and in stream consumption to a random walk with
    # sigma = dt / sqrt(m).
    k, dt, m = 3, 0.3, 4.0
    hmc_kernel = make_hmc_kernel(uniform_patch_target(k), HmcConfig(L=1, dt=dt, mass=m))
    rw_kernel = make_rwmh_kernel(uniform_patch_target(k), dt / math.sqrt(m))
    x_h, x_r = np.zeros(k), np.zeros(k)
    r_h, r_r = chain_rng(17), chain_rng(17)
    for _ in range(100):
        s_h = run_chain(hmc_kernel, x_h, 1, r_h)
        s_r = run_chain(rw_kernel, x_r, 1, r_r)
        assert_allclose(s_h.states[0], s_r.states[0], rtol=0, atol=1e-15)
        assert s_h.accepted[0] and s_r.accepted[0]
        x_h, x_r = s_h.states[0], s_r.states[0]


def test_hmc_stationary_moments_on_gaussian():
    k = 10
    target = make_iid_gaussian(k)
    kernel = make_hmc_kernel(target, HmcConfig(L=10, dt=0.1))
    trace = run_chain(kernel, np.zeros(k), 200_000, 77)
    tail = trace.tail(10_000)
    assert np.all(np.abs(tail.states.mean(axis=0)) < 0.05)
    assert np.all(np.abs(tail.states.var(axis=0) - 1.0) < 0.1)
    assert 0.6 < acceptance_rate(tail) <= 1.0


def test_divergent_trajectory_is_a_counted_rejection():
    # dt = 2.5 > 2 makes the leapfrog unstable on a unit Gaussian: every
    # 2000-step trajectory overflows, and each must be rejected, not raise.
    x0 = np.zeros(3)
    kernel = make_hmc_kernel(make_iid_gaussian(3), HmcConfig(L=2000, dt=2.5))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run_chain(kernel, x0, 50, 0)
    assert np.all(trace.log_alpha == -np.inf)
    assert not trace.accepted.any()
    assert trace.n_nonfinite_proposals == 50
    assert np.array_equal(trace.states, np.tile(x0, (50, 1)))
    with np.errstate(divide="ignore"):
        assert np.array_equal(trace.accepted, np.log(trace.uniforms) < trace.log_alpha)


def test_divergent_trajectory_raises_no_numpy_warnings():
    # The same unstable trajectories with warnings turned into errors: the
    # integrator's overflow and invalid values stay silent, in the kernel and
    # in the public leapfrog().
    target = make_iid_gaussian(3)
    cfg = HmcConfig(L=2000, dt=2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_chain(make_hmc_kernel(target, cfg), np.zeros(3), 50, 0)
        with pytest.raises(LeapfrogError):
            leapfrog(PhasePoint(np.zeros(3), np.ones(3)), cfg, target)
    assert trace.n_nonfinite_proposals == 50


@pytest.mark.parametrize("L, n_nonfinite", [(40, 0), (100, 0), (240, 300), (400, 300)])
def test_divergent_anisotropic_chain_counts_as_before_with_warnings_as_errors(L, n_nonfinite):
    # dt = 1.5 is past the leapfrog's stability limit 2 / sqrt(10) for precision 10.  Below
    # L = 120 no trajectory overflows; from L = 240 every one does, and its end position is
    # non-finite.  The counts are the ones the kernel gave when it tested the end position and
    # momentum before taking the energies: the position test must run before the end kinetic
    # energy, which would warn of its overflow, and a non-finite energy alone must not count.
    target = make_anisotropic_gaussian(np.linspace(1.0, 10.0, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_chain(make_hmc_kernel(target, HmcConfig(L=L, dt=1.5)), np.zeros(10), 300, 7)
    assert trace.n_nonfinite_proposals == n_nonfinite
    assert not trace.accepted.any()
    assert np.count_nonzero(trace.log_alpha == -np.inf) == n_nonfinite


@pytest.mark.parametrize("L", [120, 160, 220])
def test_overflowing_anisotropic_chain_is_quiet_with_warnings_as_errors(L):
    # Between L = 120 and 220 at dt = 1.5 the trajectories end at finite but huge points, where
    # the end energy, y'y and the target's x * x overflow.  All of it runs in propose's errstate
    # scope, so with warnings as errors the chain is the one run with warnings ignored: every
    # proposal a counted rejection (its log-density is -inf).
    target = make_anisotropic_gaussian(np.linspace(1.0, 10.0, 10))
    cfg = HmcConfig(L=L, dt=1.5)
    end = leapfrog(PhasePoint(np.zeros(10), make_hmc_kernel(target, cfg).draw(chain_rng(7), 1)[0, :10]), cfg, target)
    assert np.abs(end.x).max() > 1e154  # finite, since leapfrog() did not raise, and y'y overflows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = run_chain(make_hmc_kernel(target, cfg), np.zeros(10), 300, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_chain(make_hmc_kernel(target, cfg), np.zeros(10), 300, 7)
    assert trace.n_nonfinite_proposals == ref.n_nonfinite_proposals == 300
    for field in ("states", "accepted", "log_density", "log_alpha", "uniforms"):
        assert np.array_equal(getattr(trace, field), getattr(ref, field)), field


def test_trajectory_ending_at_a_huge_finite_point_is_decided_quietly():
    # A flat density with a constant score, started at 1e160: every end point is finite but its
    # y'y overflows, so the finite test falls through to the full one and the energies decide, as
    # from the origin, where nothing overflows.  No warning is raised on the way.
    k = 3
    target = Target(dim=k, log_density=lambda x: 0.0, grad_log_density=lambda x: np.full(k, 0.3), name="tilted")
    cfg = HmcConfig(L=4, dt=0.5)
    ref = run_chain(make_hmc_kernel(target, cfg), np.zeros(k), 400, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_chain(make_hmc_kernel(target, cfg), np.full(k, 1e160), 400, 6)
    assert 0.0 < acceptance_rate(trace) < 1.0
    assert trace.n_nonfinite_proposals == 0
    assert np.all(trace.states == 1e160)  # dt p is below the spacing of floats at 1e160
    for field in ("accepted", "log_alpha", "uniforms"):
        assert np.array_equal(getattr(trace, field), getattr(ref, field)), field


@pytest.mark.parametrize("dt", [0.3, 1, np.float32(0.3)])
def test_kicks_are_float64_vectors(dt):
    # The kicks are (k,) float64 vectors, whatever type dt has: (dt, ..., dt, dt/2) and dt/2.
    cfg = HmcConfig(L=3, dt=dt)
    kicks, half_dt = _kicks(cfg, 4)
    assert len(kicks) == 3
    for kick, value in zip((*kicks, half_dt), (dt, dt, 0.5 * dt, 0.5 * dt)):
        assert kick.dtype == np.float64 and kick.shape == (4,)
        assert kick.tolist() == [float(value)] * 4


def test_nonfinite_end_momentum_is_a_counted_rejection():
    # The gradient is NaN beyond x = 2 while the density stays finite there,
    # so a one-step trajectory can end at a finite x with a NaN momentum.
    def grad(x):
        return np.array([math.nan]) if float(x[0]) > 2.0 else -x

    target = Target(dim=1, log_density=lambda x: -0.5 * float(x @ x), grad_log_density=grad)
    kernel = make_hmc_kernel(target, HmcConfig(L=1, dt=0.5))
    trace = run_chain(kernel, np.array([1.9]), 400, 8)
    rejected_as_nonfinite = trace.log_alpha == -np.inf
    assert 0 < trace.n_nonfinite_proposals == rejected_as_nonfinite.sum()
    assert not trace.accepted[rejected_as_nonfinite].any()
    assert not np.isnan(trace.log_alpha).any()
    assert trace.states.max() <= 2.0


def test_overflowing_end_energy_is_a_rejection_not_a_divergence():
    # A flat density with a huge constant score: the end point and momentum stay finite, but the
    # end kinetic energy overflows to inf.  The transition is rejected by its energy (log_alpha =
    # -inf) and not counted as non-finite, since the momentum test finds a finite momentum.
    k = 2
    target = Target(dim=k, log_density=lambda x: 0.0, grad_log_density=lambda x: np.full(k, 1e200), name="flat")
    with np.errstate(over="ignore"):
        trace = run_chain(make_hmc_kernel(target, HmcConfig(L=2, dt=0.5)), np.zeros(k), 20, 3)
    assert np.all(trace.log_alpha == -np.inf)
    assert not trace.accepted.any()
    assert trace.n_nonfinite_proposals == 0


@pytest.mark.parametrize("L", [1, 7])
def test_hmc_transition_costs_one_density_and_L_gradient_calls(L):
    base = make_anisotropic_gaussian(np.linspace(1.0, 4.0, 5))
    calls = {"density": 0, "grad": 0}

    def log_density(x):
        calls["density"] += 1
        return base.log_density(x)

    def grad_log_density(x):
        calls["grad"] += 1
        return base.grad_log_density(x)

    target = dataclasses.replace(base, log_density=log_density, grad_log_density=grad_log_density)
    n = 300
    trace = run_chain(make_hmc_kernel(target, HmcConfig(L=L, dt=0.3)), np.zeros(5), n, 4)
    assert 0.0 < acceptance_rate(trace) < 1.0
    assert calls == {"density": n + 1, "grad": n * L + 1}


@pytest.mark.parametrize(
    "target",
    [make_iid_gaussian(4), make_anisotropic_gaussian(np.linspace(1.0, 4.0, 4)), make_challenger_logistic(10.0)],
    ids=lambda t: t.name,
)
def test_hmc_state_carries_the_score_itself(target):
    # ChainState.grad is grad log pi(x), bit for bit: the leapfrog runs on the
    # score, with no sign flip in between.
    x = np.linspace(-0.8, 0.9, target.dim)
    state = make_hmc_kernel(target, HmcConfig(L=3, dt=0.1)).init(x)
    assert state.grad.dtype == np.float64
    assert np.array_equal(state.grad, target.grad_log_density(x))


def _laplace_target(k, grad):
    """``log pi = -sum |x_i|``, whose score ``-sign(x)`` has integer values."""
    return Target(dim=k, log_density=lambda x: -float(np.abs(x).sum()), grad_log_density=grad, name="laplace")


@pytest.mark.parametrize(
    "score",
    [lambda x: [int(v) for v in -np.sign(x)], lambda x: -np.sign(x).astype(np.int64)],
    ids=["list", "int-array"],
)
def test_hmc_coerces_a_list_or_integer_gradient(score):
    # A user gradient may return a Python list or an integer array: the kernel
    # and leapfrog() run it as floats, bit-identical to its float-array twin.
    k, cfg = 3, HmcConfig(L=5, dt=0.2)
    x0 = np.array([-0.7, 0.3, 1.1])
    twin, user = _laplace_target(k, lambda x: -np.sign(x)), _laplace_target(k, score)
    ref = run_chain(make_hmc_kernel(twin, cfg), x0, 500, 5)
    got = run_chain(make_hmc_kernel(user, cfg), x0, 500, 5)
    assert 0.0 < acceptance_rate(ref) < 1.0
    for field in ("states", "accepted", "log_density", "log_alpha", "uniforms"):
        assert np.array_equal(getattr(got, field), getattr(ref, field)), field
    start = PhasePoint(x0, np.array([0.5, -1.0, 0.25]))
    a, b = leapfrog(start, cfg, user), leapfrog(start, cfg, twin)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.p, b.p)


def test_hmc_runs_a_float32_gradient_in_float64():
    # The kicks are float64 scalars, so a float32 score is kicked in float64, bit-identical to
    # its twin that returns the same values as float64; a Python float kick would round in float32.
    base = make_anisotropic_gaussian(np.linspace(1.0, 4.0, 3))

    def score32(x):
        return base.grad_log_density(x).astype(np.float32)

    user = dataclasses.replace(base, grad_log_density=score32)
    twin = dataclasses.replace(base, grad_log_density=lambda x: score32(x).astype(float))
    cfg, x0 = HmcConfig(L=5, dt=0.3), np.array([-0.7, 0.3, 1.1])
    ref = run_chain(make_hmc_kernel(twin, cfg), x0, 300, 5)
    got = run_chain(make_hmc_kernel(user, cfg), x0, 300, 5)
    assert 0.0 < acceptance_rate(ref) < 1.0
    for field in ("states", "accepted", "log_density", "log_alpha", "uniforms"):
        assert np.array_equal(getattr(got, field), getattr(ref, field)), field
    assert make_hmc_kernel(user, cfg).init(x0).grad.dtype == np.float64


@pytest.mark.parametrize("mass", ["scalar", "vector"])
@pytest.mark.parametrize("k", [1, 3, 10, 100])
def test_hmc_draw_holds_each_momentum_and_its_kinetic_energy(k, mass):
    # A draw row is (p, p' M^{-1} p / 2): the block's energies in one vecdot, each bit-identical
    # to the energy of its row alone; the momenta are the N(0, M) normals of the block.
    m = 0.7 if mass == "scalar" else np.linspace(0.5, 4.0, k)
    cfg = HmcConfig(L=1, dt=0.1, mass=m)
    kernel = make_hmc_kernel(make_iid_gaussian(k), cfg)
    rows = kernel.draw(chain_rng(3), 256)
    assert rows.shape == (256, k + 1) and rows.dtype == np.float64
    inv_m = 1.0 / cfg.mass_vector(k)
    for row in rows:
        p = row[:k].copy()
        assert row[k] == 0.5 * float(p @ (inv_m * p))
    normals = chain_rng(3).standard_normal((256, k))
    normals *= np.sqrt(cfg.mass_vector(k))
    assert np.array_equal(rows[:, :k], normals)


def _reference_hmc_trace(target, cfg, x0, n, parent_accept, rng):
    """Reference HMC chain composed from the public parts: a per-step checked
    merged-kick leapfrog from a fresh score, ``-log pi`` for both energies and
    a fresh density at both ends for the earlier scalar accept step
    (``parent_accept``), drawing from ``rng``, a stream in the block layout."""
    mass = cfg.mass_vector(x0.size)
    inv_m = 1.0 / mass
    dt = cfg.dt
    x = x0
    rows = []
    for _ in range(n):
        p0 = np.sqrt(mass) * rng.standard_normal(x.size)
        y = x.copy()
        score = target.grad_log_density(y)
        p = p0 + 0.5 * dt * score
        for i in range(cfg.L):
            assert np.all(np.isfinite(score))
            y = y + dt * inv_m * p
            score = target.grad_log_density(y)
            p = p + (dt if i < cfg.L - 1 else 0.5 * dt) * score
        h0 = -target.log_density(x) + 0.5 * float(p0 @ (inv_m * p0))
        h1 = -target.log_density(y) + 0.5 * float(p @ (inv_m * p))
        x, _, log_alpha, u, lp, _ = parent_accept(x, y, h0 - h1, target.log_density(x), target.log_density(y), rng)
        rows.append((x, log_alpha, u, lp))
    states, log_alpha, uniforms, log_density = zip(*rows)
    return np.array(states), np.array(log_alpha), np.array(uniforms), np.array(log_density)


@pytest.mark.parametrize("mass", [0.7, (0.5, 1.0, 2.0, 4.0)], ids=["scalar-mass", "vector-mass"])
@pytest.mark.parametrize("L", [1, 10])
@pytest.mark.parametrize("target_name", ["iid", "anisotropic"])
def test_hmc_kernel_is_bit_identical_to_the_reference_composition(
    mass, L, target_name, parent_accept, block_layout_rng, block_layouts
):
    # run_chain draws HMC's momenta in the block layout, so the reference draws from that layout too
    k = 4
    target = make_iid_gaussian(k) if target_name == "iid" else make_anisotropic_gaussian(np.linspace(1.0, 4.0, k))
    cfg = HmcConfig(L=L, dt=0.6 if L == 1 else 0.15, mass=mass)
    x0 = np.linspace(-1.0, 1.0, k)
    for seed in (1, 2, 3):
        trace = run_chain(make_hmc_kernel(target, cfg), x0, 2_000, seed)
        states, log_alpha, uniforms, log_density = _reference_hmc_trace(
            target, cfg, x0, 2_000, parent_accept, block_layout_rng(chain_rng(seed), 2_000, block_layouts.normals(k))
        )
        assert 0.0 < acceptance_rate(trace) < 1.0
        assert np.array_equal(trace.states, states)
        assert np.array_equal(trace.log_alpha, log_alpha)
        assert np.array_equal(trace.uniforms, uniforms)
        assert np.array_equal(trace.log_density, log_density)


def _combined_form_leapfrog(x, p, cfg, target):
    """The combined-update leapfrog the kernel ran before the merged kicks, kept as a reference:
    ``x' = x + dt M^{-1} {p + (dt/2) s(x)}``, ``p' = p + (dt/2) {s(x) + s(x')}`` on the score ``s``."""
    drift, half_dt = cfg.dt / cfg.mass_vector(x.size), 0.5 * cfg.dt
    s = target.grad_log_density(x)
    for _ in range(cfg.L):
        x = x + drift * (p + half_dt * s)
        s_new = target.grad_log_density(x)
        p = p + half_dt * (s + s_new)
        s = s_new
    return x, p


@pytest.mark.parametrize("mass", [0.7, (0.5, 1.0, 2.0, 4.0)], ids=["scalar-mass", "vector-mass"])
@pytest.mark.parametrize("L", [1, 10])
def test_leapfrog_agrees_with_the_combined_form(mass, L):
    # The merged-kick scheme is the same map as the combined form, rounded differently:
    # over random phase points both agree to 1e-12 relative to each vector's largest entry.
    target = make_anisotropic_gaussian(np.linspace(1.0, 4.0, 4))
    cfg = HmcConfig(L=L, dt=0.6 if L == 1 else 0.15, mass=mass)
    rng = chain_rng(18)
    n_differ = 0
    for _ in range(500):
        x, p = 2.0 * rng.standard_normal(4), np.sqrt(cfg.mass_vector(4)) * rng.standard_normal(4)
        end = leapfrog(PhasePoint(x, p), cfg, target)
        ref_x, ref_p = _combined_form_leapfrog(x, p, cfg, target)
        assert_allclose(end.x, ref_x, rtol=1e-12, atol=1e-12 * np.abs(ref_x).max())
        assert_allclose(end.p, ref_p, rtol=1e-12, atol=1e-12 * np.abs(ref_p).max())
        n_differ += not (np.array_equal(end.x, ref_x) and np.array_equal(end.p, ref_p))
    assert n_differ > 0  # the two forms are not bit-identical


# --- single-step proposal characterization ---------------------------------


def test_one_step_params_at_mode():
    cfg = HmcConfig(L=1, dt=0.3, mass=np.array([1.0, 2.0]))
    mean, var = hmc_one_step_proposal_params(np.zeros(2), make_iid_gaussian(2), cfg)
    assert_allclose(mean, np.zeros(2))
    assert_allclose(var, 0.3**2 / np.array([1.0, 2.0]))


def test_one_step_params_at_ones():
    cfg = HmcConfig(L=1, dt=0.2, mass=np.array([1.0, 4.0]))
    mean, var = hmc_one_step_proposal_params(np.ones(2), make_iid_gaussian(2), cfg)
    assert_allclose(mean, 1.0 - 0.2**2 / (2.0 * np.array([1.0, 4.0])))
    assert_allclose(var, 0.2**2 / np.array([1.0, 4.0]))


def test_one_step_params_requires_single_step():
    with pytest.raises(ValueError):
        hmc_one_step_proposal_params(np.zeros(1), make_iid_gaussian(1), HmcConfig(L=2, dt=0.1))


def test_one_step_proposals_match_gaussian_law():
    # Moment test at 5 sigma on 20k draws; the acceptance suite runs the
    # full-size 4-sigma version.
    k, n = 3, 20_000
    target = make_iid_gaussian(k)
    cfg = HmcConfig(L=1, dt=0.35, mass=np.array([1.0, 2.0, 0.5]))
    x = np.array([0.6, -0.4, 1.1])
    mean, var = hmc_one_step_proposal_params(x, target, cfg)
    rng = chain_rng(5)
    draws = np.empty((n, k))
    sqrt_m = np.sqrt(cfg.mass_vector(k))
    for i in range(n):
        p0 = sqrt_m * rng.standard_normal(k)
        draws[i] = leapfrog(PhasePoint(x, p0), cfg, target).x
    emp_mean = draws.mean(axis=0)
    emp_var = draws.var(axis=0, ddof=1)
    assert np.all(np.abs(emp_mean - mean) < 5.0 * np.sqrt(var / n))
    assert np.all(np.abs(emp_var - var) < 5.0 * var * math.sqrt(2.0 / (n - 1)))


def test_baseline_traces_deterministic_given_seed():
    target = make_iid_gaussian(3)
    for build in (
        lambda: make_rwmh_kernel(target, 0.8),
        lambda: make_hmc_kernel(target, HmcConfig(L=4, dt=0.15)),
    ):
        t1 = run_chain(build(), np.zeros(3), 1_500, 31)
        t2 = run_chain(build(), np.zeros(3), 1_500, 31)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.log_alpha, t2.log_alpha)


def test_hmc_step_energy_accounting(scripted_rng):
    # p' = 1 from the scripted normal; alpha = exp(H(x, p') - H(x'', p''))
    target = make_iid_gaussian(1)
    cfg = HmcConfig(L=1, dt=0.1)
    rng = scripted_rng(uniforms=[0.5], normals=[1.0])
    kernel = make_hmc_kernel(target, cfg)
    step = run_chain(kernel, np.array([1.0]), 1, rng)
    end = leapfrog(PhasePoint(np.array([1.0]), np.array([1.0])), cfg, target)
    h0 = 0.5 * 1.0 + 0.5 * 1.0
    h1 = 0.5 * float(end.x[0]) ** 2 + 0.5 * float(end.p[0]) ** 2
    assert_allclose(step.log_alpha[0], h0 - h1, rtol=1e-12)
