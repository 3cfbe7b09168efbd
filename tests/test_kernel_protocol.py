"""The kernel protocol across all seven kernels.

Every kernel is a ``Kernel`` record of ``kernel.init(x)``, ``kernel.draw(rng,
b)`` and ``kernel.propose(state, row)``, run by ``run_chain``; the tests here pin
its block-layout streams to the step bodies the kernels had before the
protocol (each recomputing ``log pi(x)`` and deciding through the scalar
accept step of ``conftest``), and check the outcome of non-finite densities,
statelessness and evaluation counts.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from tmcmc.baseline_kernels import HmcConfig, make_hmc_kernel, make_rwmh_kernel
from tmcmc.benchmark import ChallengerConfig
from tmcmc.chain import chain_rng, lockstep_path, run_chain, run_lockstep
from tmcmc.discrete_kernels import make_ising_kernel, make_zk_kernel
from tmcmc.scaling import ScalingStudySpec
from tmcmc.targets import (
    make_anisotropic_gaussian,
    make_challenger_logistic,
    make_iid_gaussian,
    make_ising_chain,
    make_lattice_target,
)
from tmcmc import transform_kernels
from tmcmc.transform_kernels import (
    DependentZConfig,
    TmcmcConfig,
    Transformation,
    _log_tables,
    additive_transformation,
    make_additive_tmcmc_kernel,
    make_dependent_z_kernel,
    make_general_tmcmc_kernel,
)

# --- the step bodies before the protocol ------------------------------------
# Each returns ``step(x, rng, accept)`` computing both log-densities afresh.


# The move-probability ratio the step bodies used, on probabilities rather than
# the kernels' log tables: a frozen reference, not the live code.
def _move_log_ratio(z: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    # log P(-z) - log P(z); zero coordinates contribute nothing.  The drawn
    # move always has positive probability, but the reverse may not.
    pos, neg = z > 0, z < 0
    forward = np.concatenate([p[pos], q[neg]])
    reverse = np.concatenate([q[pos], p[neg]])
    if np.any(reverse <= 0.0):
        return -math.inf
    return float(np.sum(np.log(reverse)) - np.sum(np.log(forward)))


# The spin kernel's move-type log-probability, as the step bodies used it.
def _spin_selection_log_prob(x: np.ndarray, p: np.ndarray) -> float:
    # Probability of the move-type vector that produces x coordinatewise.
    return float(np.sum(np.where(x > 0, np.log(p), np.log1p(-p))))


def parent_additive(target, cfg):
    a, p, q = cfg.broadcast(target.dim)
    symmetric = bool(np.all(p == q))

    def step(x, rng, accept):
        z = np.where(rng.random(p.shape[0]) < p, 1.0, -1.0)
        eps = cfg.eps_scale * abs(float(rng.standard_normal()))
        y = x + (z * a) * eps
        lp_x, lp_y = target.log_density(x), target.log_density(y)
        log_ratio = 0.0 if symmetric else _move_log_ratio(z, p, q)
        return accept(x, y, log_ratio + lp_y - lp_x, lp_x, lp_y, rng)

    return step


def parent_general(target, transform, cfg):
    _, p, q = cfg.broadcast(target.dim)

    def step(x, rng, accept):
        while True:
            u = rng.random(p.shape[0])
            z = np.where(u < p, 1.0, np.where(u < p + q, -1.0, 0.0))
            if np.any(z != 0.0):
                break
        eps = cfg.eps_scale * abs(float(rng.standard_normal()))
        y = np.asarray(transform.forward(x, eps, z), dtype=float)
        lp_x, lp_y = target.log_density(x), target.log_density(y)
        log_jac = float(transform.log_jacobian(x, eps, z))
        log_ratio = _move_log_ratio(z, p, q)
        if not math.isfinite(log_jac):
            u = float(rng.random())
            return x, False, -math.inf, u, lp_x, True
        return accept(x, y, log_ratio + log_jac + lp_y - lp_x, lp_x, lp_y, rng)

    return step


def parent_dependent_z(target, cfg):
    k = target.dim
    factors = cfg.factors()
    mus = (np.asarray(cfg.mu_1, float), np.asarray(cfg.mu_2, float), np.asarray(cfg.mu_3, float))

    def step(x, rng, accept):
        w = np.empty((3, k))
        for j, (mu, L) in enumerate(zip(mus, factors)):
            noise = rng.standard_normal(k)
            w[j] = mu + (L * noise if L.ndim == 1 else L @ noise)
        w -= w.max(axis=0, keepdims=True)
        ew = np.exp(w)
        probs = ew / ew.sum(axis=0, keepdims=True)
        p, q = probs[0], probs[1]
        u = rng.random(k)
        z = np.where(u < p, 1.0, np.where(u < p + q, -1.0, 0.0))
        eps = cfg.eps_scale * abs(float(rng.standard_normal()))
        a = np.broadcast_to(np.asarray(cfg.scales, dtype=float), (k,))
        y = x + (z * a) * eps
        lp_x, lp_y = target.log_density(x), target.log_density(y)
        return accept(x, y, _move_log_ratio(z, p, q) + lp_y - lp_x, lp_x, lp_y, rng)

    return step


def parent_rwmh(target, sigma):
    def step(x, rng, accept):
        y = x + sigma * rng.standard_normal(x.size)
        lp_x, lp_y = target.log_density(x), target.log_density(y)
        return accept(x, y, lp_y - lp_x, lp_x, lp_y, rng)

    return step


def parent_hmc(target, cfg):
    # The step body in the merged-kick form the kernel now integrates in.
    mass = cfg.mass_vector(target.dim)
    inv_m = 1.0 / mass
    drift = cfg.dt * inv_m
    half_dt = 0.5 * cfg.dt

    def score(x):
        return np.asarray(target.grad_log_density(x), dtype=float)

    def step(x, rng, accept):
        lp_x, s = target.log_density(x), score(x)
        p0 = np.sqrt(mass) * rng.standard_normal(x.size)
        y, p = x, p0 + half_dt * s
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(cfg.L):
                y = y + drift * p
                s = score(y)
                p = p + (cfg.dt if i < cfg.L - 1 else half_dt) * s
        if np.isfinite(y).all() and np.isfinite(p).all():
            lp_y = target.log_density(y)
            h0 = -lp_x + 0.5 * float(p0 @ (inv_m * p0))
            h1 = -lp_y + 0.5 * float(p @ (inv_m * p))
            log_alpha = h0 - h1
        else:
            lp_y = log_alpha = -math.inf
        return accept(x, y, log_alpha, lp_x, lp_y, rng)

    return step


def parent_ising(target, p):
    probs = np.broadcast_to(np.asarray(p, dtype=float), (target.dim,))

    def step(x, rng, accept):
        y = np.where(rng.random(x.size) < probs, 1.0, -1.0)
        log_ratio = _spin_selection_log_prob(x, probs) - _spin_selection_log_prob(y, probs)
        lp_x, lp_y = target.log_density(x), target.log_density(y)
        return accept(x, y, log_ratio + lp_y - lp_x, lp_x, lp_y, rng)

    return step


def parent_zk(target, r, jump_scale):
    def step(x, rng, accept):
        branch = rng.random()
        eps = 1.0 + jump_scale * abs(float(rng.standard_normal()))
        m = math.floor(eps)
        if branch < r:
            j = int(rng.integers(x.size))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            y = x.copy()
            y[j] += sign * m
        else:
            z = np.where(rng.random(x.size) < 0.5, 1.0, -1.0)
            y = x + z * m
        lp_x, lp_y = target.log_density(x), target.log_density(y)
        return accept(x, y, lp_y - lp_x, lp_x, lp_y, rng)

    return step


# --- targets with a non-finite region ----------------------------------------


def with_holes(target, minus_inf, nan):
    """``target`` with log-density ``-inf`` where ``minus_inf(x)`` and NaN where ``nan(x)``."""
    base = target.log_density

    def log_density(x):
        if minus_inf(x):
            return -math.inf
        if nan(x):
            return math.nan
        return base(x)

    return dataclasses.replace(target, log_density=log_density)


def holed_gaussian(k):
    return with_holes(make_iid_gaussian(k), lambda x: x[0] > 1.2, lambda x: x[0] < -1.2)


def holed_ising(k):
    return with_holes(make_ising_chain(k, 0.4), lambda x: x[0] > 0 and x[1] > 0, lambda x: x[0] < 0 and x[2] > 0)


def holed_lattice(k):
    return with_holes(make_lattice_target(k, 0.5), lambda x: x[0] > 2, lambda x: x[0] < -2)


def nan_jacobian_additive():
    """The additive transformation with a NaN log-Jacobian for innovations above 1."""
    return Transformation(
        forward=lambda x, eps, z: x + z * eps,
        log_jacobian=lambda x, eps, z: math.nan if eps > 1.0 else 0.0,
        name="broken-additive",
    )


DEP_Z = DependentZConfig(
    mu_1=np.zeros(3), mu_2=np.full(3, 0.3), mu_3=np.full(3, -0.2),
    sigma_1=np.ones(3), sigma_2=np.full(3, 0.5), sigma_3=np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    eps_scale=0.9,
)
ANISO = make_anisotropic_gaussian(np.linspace(1.0, 4.0, 4))
CHALLENGER = make_challenger_logistic(10.0, center=True)

# kernel -> (factory, parent step body); both take ``(target, *args)``
FACTORIES = {
    "additive": (make_additive_tmcmc_kernel, parent_additive),
    "general": (make_general_tmcmc_kernel, parent_general),
    "dependent-z": (make_dependent_z_kernel, parent_dependent_z),
    "rwmh": (make_rwmh_kernel, parent_rwmh),
    "hmc": (make_hmc_kernel, parent_hmc),
    "ising": (make_ising_kernel, parent_ising),
    "zk": (make_zk_kernel, parent_zk),
}

# kernel -> the ``block_layouts`` layout of its rows, from ``(layouts, target, *args)``
LAYOUTS = {
    "additive": lambda layouts, target, cfg: layouts.sign_moves(target.dim),
    "general": lambda layouts, target, transform, cfg: layouts.ternary_moves(*cfg.broadcast(target.dim)[1:]),
    "dependent-z": lambda layouts, target, cfg: layouts.dependent_z(target.dim),
    "rwmh": lambda layouts, target, sigma: layouts.normals(target.dim),
    "hmc": lambda layouts, target, cfg: layouts.normals(target.dim),
    "ising": lambda layouts, target, p: layouts.spins(target.dim),
    "zk": lambda layouts, target, r, jump_scale: layouts.lattice_moves(target.dim, r),
}

# case -> (kernel, target, args, x0)
CASES = {
    "additive-iid-k10": ("additive", make_iid_gaussian(10), (TmcmcConfig(eps_scale=0.75),), np.zeros(10)),
    "additive-challenger-asymmetric": (
        "additive", CHALLENGER, (TmcmcConfig(scales=(0.3, 0.5), eps_scale=0.8, p=0.6, q=0.4),), np.zeros(2),
    ),
    "additive-holes": ("additive", holed_gaussian(3), (TmcmcConfig(eps_scale=0.9),), np.zeros(3)),
    "general-ternary-holes": (
        "general", holed_gaussian(3), (additive_transformation(0.7), TmcmcConfig(p=0.3, q=0.4)), np.zeros(3),
    ),
    "general-nan-jacobian": (
        "general", ANISO, (nan_jacobian_additive(), TmcmcConfig(p=0.35, q=0.35)), np.zeros(4),
    ),
    "dependent-z": ("dependent-z", make_iid_gaussian(3), (DEP_Z,), np.zeros(3)),
    "dependent-z-holes": ("dependent-z", holed_gaussian(3), (DEP_Z,), np.zeros(3)),
    "rwmh-challenger": ("rwmh", CHALLENGER, (0.3,), np.zeros(2)),
    "rwmh-holes": ("rwmh", holed_gaussian(3), (0.8,), np.zeros(3)),
    "hmc-scalar-mass": ("hmc", ANISO, (HmcConfig(L=5, dt=0.2, mass=0.7),), np.linspace(-1.0, 1.0, 4)),
    "hmc-vector-mass-holes": (
        "hmc", holed_gaussian(4), (HmcConfig(L=4, dt=0.3, mass=(0.5, 1.0, 2.0, 4.0)),), np.zeros(4),
    ),
    "ising": (
        "ising", make_ising_chain(5, 0.5), (np.array([0.6, 0.4, 0.5, 0.7, 0.3]),),
        np.array([1.0, -1.0, 1.0, 1.0, -1.0]),
    ),
    "ising-holes": ("ising", holed_ising(4), (0.55,), np.array([-1.0, 1.0, -1.0, 1.0])),
    "zk": ("zk", make_lattice_target(3, 0.5), (0.3, 1.5), np.zeros(3)),
    "zk-holes": ("zk", holed_lattice(2), (0.5, 1.2), np.zeros(2)),
}


def parent_trace(step, x0, n, rng, accept):
    x = np.asarray(x0, dtype=float)
    rows = []
    for _ in range(n):
        x, accepted, log_alpha, u, lp, nonfinite = step(x, rng, accept)
        rows.append((x, accepted, log_alpha, u, lp, nonfinite))
    states, accepted, log_alpha, uniforms, log_density, nonfinite = (np.array(c) for c in zip(*rows))
    return states, accepted, log_alpha, uniforms, log_density, int(nonfinite.sum())


@pytest.mark.parametrize("case", list(CASES))
def test_kernel_is_bit_identical_to_the_parent_composition(case, parent_accept, block_layout_rng, block_layouts):
    # run_chain steps every kernel in the block layout, so its parent body draws from
    # the same stream in that layout
    name, target, args, x0 = CASES[case]
    make_kernel, make_parent = FACTORIES[name]
    kernel = make_kernel(target, *args)
    layout = LAYOUTS[name](block_layouts, target, *args)
    for seed in (1, 2, 3):
        trace = run_chain(kernel, x0, 2_000, seed)
        rng = block_layout_rng(chain_rng(seed), 2_000, layout)
        states, accepted, log_alpha, uniforms, log_density, n_nonfinite = parent_trace(
            make_parent(target, *args), x0, 2_000, rng, parent_accept
        )
        assert 0 < trace.accepted.sum() < len(trace)
        assert np.array_equal(trace.states, states)
        assert np.array_equal(trace.accepted, accepted)
        assert np.array_equal(trace.log_alpha, log_alpha)
        assert np.array_equal(trace.uniforms, uniforms)
        assert np.array_equal(trace.log_density, log_density)
        assert trace.n_nonfinite_proposals == n_nonfinite
        if "holes" in case or "nan" in case:
            assert n_nonfinite > 0
    # A single transition is the one-row block, which draws what the parent body draws: on a
    # plain generator the kernel's transitions, each from the last one's state, equal the parent's.
    rng, x, steps = chain_rng(4), x0, []
    for _ in range(300):
        steps.append(run_chain(kernel, x, 1, rng))
        x = steps[-1].states[0]
    states, accepted, log_alpha, uniforms, log_density, n_nonfinite = parent_trace(
        make_parent(target, *args), x0, 300, chain_rng(4), parent_accept
    )
    assert np.array_equal(np.concatenate([step.states for step in steps]), states)
    for name, want in (("accepted", accepted), ("log_alpha", log_alpha), ("uniforms", uniforms),
                       ("log_density", log_density)):
        assert np.array_equal(np.concatenate([getattr(step, name) for step in steps]), want), name
    assert sum(step.n_nonfinite_proposals for step in steps) == n_nonfinite


# --- outcomes, statelessness and evaluation counts ----------------------------------

# kernel -> (target with a -inf and a NaN region, factory args, x0)
HOLED = {
    "additive": (holed_gaussian(3), (TmcmcConfig(eps_scale=0.9),), np.zeros(3)),
    "general": (holed_gaussian(3), (additive_transformation(), TmcmcConfig(eps_scale=0.9, p=0.3, q=0.4)), np.zeros(3)),
    "dependent-z": (holed_gaussian(3), (DEP_Z,), np.zeros(3)),
    "rwmh": (holed_gaussian(3), (0.8,), np.zeros(3)),
    "hmc": (holed_gaussian(3), (HmcConfig(L=3, dt=0.4),), np.zeros(3)),
    "ising": (holed_ising(4), (0.6,), np.array([-1.0, 1.0, -1.0, 1.0])),
    "zk": (holed_lattice(2), (0.3, 1.5), np.zeros(2)),
}


def counting(target):
    """``(target, calls)``: ``target`` whose log-density appends to ``calls`` per call."""
    calls = []
    base = target.log_density

    def log_density(x):
        calls.append(1)
        return base(x)

    counted = dataclasses.replace(target, log_density=log_density)
    return counted, calls


@pytest.mark.parametrize("name", list(FACTORIES))
def test_kernel_outcomes_statelessness_and_density_calls(name, block_layout_rng, block_layouts):
    holed, args, x0 = HOLED[name]
    target, calls = counting(holed)
    kernel = FACTORIES[name][0](target, *args)
    n = 1_500

    # A -inf / NaN region gives counted rejections; nothing raises or warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solo_a = run_chain(kernel, x0, n, 11)
    assert 0 < solo_a.n_nonfinite_proposals < n
    assert np.all(np.isfinite(solo_a.log_density)) and not np.isnan(solo_a.log_alpha).any()
    log_u = np.where(solo_a.uniforms > 0, np.log(solo_a.uniforms), -np.inf)
    assert np.array_equal(solo_a.accepted, log_u < solo_a.log_alpha)
    # One density call per transition plus one for the initial state.
    assert len(calls) == n + 1

    # One kernel object drives two interleaved chains; each equals its solo run,
    # which steps the kernel in the block layout.
    x0_b = -x0 if name != "ising" else x0[::-1].copy()
    solo_b = run_chain(kernel, x0_b, n, 12)
    layout = LAYOUTS[name](block_layouts, target, *args)
    rng_a, rng_b = block_layout_rng(chain_rng(11), n, layout), block_layout_rng(chain_rng(12), n, layout)
    x_a, x_b, steps_a, steps_b = x0, x0_b, [], []
    for _ in range(n):
        steps_a.append(run_chain(kernel, x_a, 1, rng_a))
        steps_b.append(run_chain(kernel, x_b, 1, rng_b))
        x_a, x_b = steps_a[-1].states[0], steps_b[-1].states[0]
    for solo, steps in ((solo_a, steps_a), (solo_b, steps_b)):
        for name in ("states", "log_alpha", "uniforms"):
            assert np.array_equal(getattr(solo, name), np.concatenate([getattr(step, name) for step in steps])), name


def test_log_table_ratio_equals_the_frozen_ratio():
    # Dependent-z style draws of (p, q, z); one in ten has a coordinate whose
    # forward probability underflows to 0, so some reverse moves are impossible.
    rng = np.random.default_rng(5)
    n_impossible = 0
    for i in range(20_000):
        w = 3.0 * rng.standard_normal((3, 4))
        if i % 10 == 0:
            w[0, rng.integers(4)] = -800.0
        w -= w.max(axis=0, keepdims=True)
        ew = np.exp(w)
        probs = ew / ew.sum(axis=0, keepdims=True)
        p, q = probs[0], probs[1]
        u = rng.random(4)
        z = np.where(u < p, 1.0, np.where(u < p + q, -1.0, 0.0))
        expected = _move_log_ratio(z, p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert transform_kernels._move_log_ratio(z, *_log_tables(p, q)) == expected
        n_impossible += expected == -math.inf
    assert n_impossible > 100


@pytest.mark.parametrize("name", ["additive-tmcmc", "rwmh"])
def test_block_direction_draws_what_single_draws_draw_in_block_order(name, scripted_rng):
    # One draw function: (b, k) takes the b * k direction draws, then the b innovations,
    # and row j is what a (1, k) draw makes of row j's draws.
    target, b, k = make_iid_gaussian(3), 5, 3
    if name == "additive-tmcmc":
        kernel = make_additive_tmcmc_kernel(target, TmcmcConfig(scales=[1.0, 0.5, 2.0]))
    else:
        kernel = make_rwmh_kernel(target, 0.7)
    block, one = np.empty((b, k)), np.empty((1, k))
    r = kernel.direction(np.random.default_rng(4), block)
    assert isinstance(r, np.ndarray) and r.shape == (b,)
    raw = np.random.default_rng(4)
    if name == "additive-tmcmc":
        uniforms, normals = raw.random((b, k)), raw.standard_normal(b)
        scripts = [{"uniforms": uniforms[j], "normals": [normals[j]]} for j in range(b)]
    else:
        scripts = [{"normals": row} for row in raw.standard_normal((b, k))]
    for j, script in enumerate(scripts):
        assert np.array_equal(kernel.direction(scripted_rng(**script), one), r[j : j + 1])
        assert np.array_equal(one[0], block[j])


# kernel -> build(target, scale) and the scale of its holed run (HOLED)
SYMMETRIC = {
    "additive": (lambda target, scale: make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=scale)), 0.9),
    "rwmh": (make_rwmh_kernel, 0.8),
}


def block_layout_run(build, scale, holed, x0, n_iter, assert_block_steps, layout):
    """``run_chain`` of ``build(holed, scale)`` from ``x0``, checked against its single transitions in block order."""
    target, calls = counting(holed)
    kernel = build(target, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_chain(kernel, x0, n_iter, 21, record_coords=[2, 0])
    # One density call per transition plus one for the initial state; counted rejections.
    assert len(calls) == n_iter + 1
    assert trace.n_nonfinite_proposals > 0 or n_iter == 1
    assert np.all(np.isfinite(trace.log_density)) and not np.isnan(trace.log_alpha).any()
    log_u = np.array([math.log(u) if u > 0.0 else -math.inf for u in trace.uniforms])
    assert np.array_equal(trace.accepted, log_u < trace.log_alpha)
    # The kernel's single transitions, drawing from the same stream in block order.
    assert_block_steps(trace, kernel, x0, chain_rng(21), layout)
    return trace


@pytest.mark.parametrize("n_iter", [1, 255, 256, 257, 600])
@pytest.mark.parametrize("name", list(SYMMETRIC))
def test_run_chain_steps_a_symmetric_kernel_in_the_block_layout(name, n_iter, assert_block_steps, block_layouts):
    # around the 256-step block: one step, one block less a step, one block, one more, a partial third
    build, scale = SYMMETRIC[name]
    holed, args, x0 = HOLED[name]
    layout = LAYOUTS[name](block_layouts, holed, *args)
    trace = block_layout_run(build, scale, holed, x0, n_iter, assert_block_steps, layout)
    # The engine: one stream of one chain, its kernel at unit scale and the scale given to the engine.
    batch = lambda xs: np.array([holed.log_density(x) for x in xs])  # noqa: E731
    run = run_lockstep([build(holed, 1.0)], batch, x0[None], [scale], n_iter, [chain_rng(21)], 3)
    assert np.array_equal(run.accepted[:, 0], trace.accepted)
    assert np.array_equal(lockstep_path(run, 0)[:, [2, 0]], trace.states)
    assert run.n_nonfinite[0] == trace.n_nonfinite_proposals


def asymmetric_additive(target, scale):
    """The additive kernel with ``p != q``: block-drawn by ``run_chain``, its acceptance needs the move ratio."""
    return make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=scale, p=0.6, q=0.4))


@pytest.mark.parametrize("n_iter", [1, 255, 256, 257, 600])
def test_run_chain_steps_the_asymmetric_additive_kernel_in_the_block_layout(n_iter, assert_block_steps, block_layouts):
    # as for the symmetric kernels, less the engine, which runs symmetric kernels only
    holed, _, x0 = HOLED["additive"]
    block_layout_run(asymmetric_additive, 0.9, holed, x0, n_iter, assert_block_steps, block_layouts.sign_moves(3))


def cliff_gaussian(k):
    """The ``k``-d standard Gaussian whose score overflows to infinities beyond ``|x_0| = 2.2``.

    Its density is finite everywhere, so every non-finite proposal is a divergent trajectory.
    """

    def score(x):
        return -x * 1e308 * 10.0 if abs(x[0]) > 2.2 else -x  # numpy warns of the overflow unless silenced

    return dataclasses.replace(make_iid_gaussian(k), grad_log_density=score)


@pytest.mark.parametrize("n_iter", [1, 255, 256, 257, 600])
def test_run_chain_steps_hmc_in_the_block_layout(n_iter, assert_block_steps, block_layouts):
    # around the 256-step block, as for the symmetric kernels; divergences land inside blocks
    cliff = cliff_gaussian(3)
    target, calls = counting(cliff)
    grad_calls = []
    target = dataclasses.replace(target, grad_log_density=lambda x: grad_calls.append(1) or cliff.grad_log_density(x))
    cfg = HmcConfig(L=3, dt=0.15)
    kernel = make_hmc_kernel(target, cfg)
    x0 = np.array([1.5, -0.5, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_chain(kernel, x0, n_iter, 21, record_coords=[2, 0])
    # Divergent trajectories are counted rejections, the only non-finite outcomes here.
    divergent = trace.log_alpha == -math.inf
    assert trace.n_nonfinite_proposals == divergent.sum()
    assert trace.n_nonfinite_proposals > 0 or n_iter == 1
    assert not trace.accepted[divergent].any() and np.all(np.isfinite(trace.states))
    log_u = np.array([math.log(u) if u > 0.0 else -math.inf for u in trace.uniforms])
    assert np.array_equal(trace.accepted, log_u < trace.log_alpha)
    # One density call per finite end point plus the initial state; L gradient calls per transition plus one.
    assert len(calls) == n_iter + 1 - trace.n_nonfinite_proposals
    assert len(grad_calls) == n_iter * cfg.L + 1
    # The kernel's single transitions, drawing from the same stream in block order.
    assert_block_steps(trace, kernel, x0, chain_rng(21), block_layouts.normals(3))


@pytest.mark.parametrize("n_iter", [255, 300, 512])
@pytest.mark.parametrize("name", ["additive", "asymmetric", "general", "dependent-z", "rwmh", "hmc", "ising", "zk"])
def test_block_drawn_run_is_a_prefix_of_a_longer_one_through_its_last_full_block(name, n_iter):
    # A run of n steps draws its last block short, so it equals a 600-step run on the same seed
    # through row 256 * floor(n / 256) and not after: the uniforms of a short block differ.
    target = make_iid_gaussian(3)
    kernel = {
        "additive": lambda: make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=0.9)),
        "asymmetric": lambda: asymmetric_additive(target, 0.9),
        "general": lambda: make_general_tmcmc_kernel(target, additive_transformation(0.9), TmcmcConfig(p=0.3, q=0.4)),
        "dependent-z": lambda: make_dependent_z_kernel(target, DEP_Z),
        "rwmh": lambda: make_rwmh_kernel(target, 0.8),
        "hmc": lambda: make_hmc_kernel(target, HmcConfig(L=3, dt=0.3)),
        "ising": lambda: make_ising_kernel(make_ising_chain(3, 0.4), 0.6),
        "zk": lambda: make_zk_kernel(make_lattice_target(3, 0.5), 0.3, 1.5),
    }[name]()
    x0 = np.ones(3) if name == "ising" else np.zeros(3)
    short, long = (run_chain(kernel, x0, n, 5) for n in (n_iter, 600))
    full = 256 * (n_iter // 256)
    for field in ("states", "accepted", "log_density", "log_alpha", "uniforms"):
        assert np.array_equal(getattr(short, field)[:full], getattr(long, field)[:full]), field
    if full < n_iter:
        assert not np.array_equal(short.uniforms[full:], long.uniforms[full:n_iter])


LATTICE = make_lattice_target(2, 0.5)


@pytest.mark.parametrize("build", [
    lambda: TmcmcConfig(eps_scale=math.nan),
    lambda: TmcmcConfig(eps_scale=math.inf),
    lambda: TmcmcConfig(scales=(1.0, math.inf)),
    lambda: TmcmcConfig(scales=math.nan),
    lambda: TmcmcConfig(p=math.nan, q=0.5),
    lambda: dataclasses.replace(DEP_Z, eps_scale=math.nan),
    lambda: dataclasses.replace(DEP_Z, scales=math.inf),
    lambda: HmcConfig(L=2.5, dt=0.1),
    lambda: HmcConfig(L=2, dt=math.nan),
    lambda: HmcConfig(L=2, dt=math.inf),
    lambda: HmcConfig(L=2, dt=0.1, mass=(1.0, math.nan)),
    lambda: make_rwmh_kernel(ANISO, math.nan),
    lambda: make_rwmh_kernel(ANISO, math.inf),
    lambda: make_zk_kernel(LATTICE, 0.3, math.nan),
    lambda: make_zk_kernel(LATTICE, 0.3, math.inf),
    lambda: ChallengerConfig(rwmh_sigma=math.nan),
    lambda: ScalingStudySpec(ell_grid=(2.0, math.inf)),
    lambda: ScalingStudySpec(ell_grid=(math.nan,)),
], ids=[
    "eps_scale-nan", "eps_scale-inf", "scales-inf", "scales-nan", "p-nan", "dependent-z-eps_scale-nan",
    "dependent-z-scales-inf", "hmc-L-2.5", "hmc-dt-nan", "hmc-dt-inf", "hmc-mass-nan", "rwmh-sigma-nan",
    "rwmh-sigma-inf", "zk-jump_scale-nan", "zk-jump_scale-inf", "challenger-rwmh_sigma-nan", "study-ell-inf",
    "study-ell-nan",
])
def test_settings_reject_nan_infinite_scales_and_a_non_integer_L(build):
    with pytest.raises(ValueError):
        build()
