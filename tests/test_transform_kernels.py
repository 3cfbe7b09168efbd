import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tmcmc.chain import chain_rng, run_chain
from tmcmc.targets import Target, make_iid_gaussian
from tmcmc.transform_kernels import (
    DependentZConfig,
    TmcmcConfig,
    _move_log_ratio,
    _softmax_moves,
    additive_transformation,
    make_additive_tmcmc_kernel,
    make_dependent_z_kernel,
    make_general_tmcmc_kernel,
)


def test_move_log_ratio_all_forward_ratio():
    p = np.array([0.5, 0.3, 0.6])
    q = np.array([0.2, 0.6, 0.2])
    z = np.ones(3)
    log_p, log_q = np.log(p), np.log(q)
    assert_allclose(_move_log_ratio(z, log_p, log_q), np.log(q / p).sum(), rtol=1e-13)
    assert_allclose(_move_log_ratio(-z, log_p, log_q), -np.log(q / p).sum(), rtol=1e-13)


# --- additive transformation ---------------------------------------------


def test_additive_forward_direct_substitution():
    y = additive_transformation().forward(np.array([1.0, 2.0]), 0.5, np.array([1.0, -1.0]))
    assert_allclose(y, [1.5, 1.5])


def test_additive_forward_identity_at_zero_innovation():
    x = np.array([0.3, -2.0, 7.0])
    assert np.array_equal(additive_transformation().forward(x, 0.0, np.ones(3)), x)


def test_additive_inverse_identity():
    # One rounding per add keeps the round trip within an ulp of the sum; the
    # 1e-12 band is the library-wide inverse-identity contract.
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(4) * 5
        z = rng.choice([-1.0, 1.0], size=4)
        eps = float(rng.random() * 3)
        forward = additive_transformation(rng.random(4) + 0.1).forward
        y = forward(x, eps, z)
        assert np.abs(forward(y, eps, -z) - x).max() <= 1e-12


def test_transformation_jacobian_reciprocity_randomized():
    tfm = additive_transformation(a=np.array([0.5, 2.0, 1.0]))
    rng = np.random.default_rng(6)
    worst_inv, worst_jac = 0.0, 0.0
    for _ in range(10_000):
        x = rng.standard_normal(3) * 4
        z = rng.integers(-1, 2, size=3).astype(float)
        eps = float(rng.random() * 2)
        y = tfm.forward(x, eps, z)
        worst_inv = max(worst_inv, float(np.abs(tfm.forward(y, eps, -z) - x).max()))
        worst_jac = max(worst_jac, abs(tfm.log_jacobian(x, eps, z) + tfm.log_jacobian(y, eps, -z)))
    assert worst_inv <= 1e-12
    assert worst_jac <= 1e-12


# --- single steps with scripted randomness --------------------------------
# One transition is ``run_chain(kernel, x, 1, rng)``, read at row 0.


def test_additive_step_acceptance_ratio_hand_value(scripted_rng):
    # k=1 standard normal, x=0, force z=+1 and eps=1: alpha = pi(1)/pi(0) = e^{-1/2}
    target = make_iid_gaussian(1)
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig())
    rng = scripted_rng(uniforms=[0.2, 0.999999], normals=[1.0])
    step = run_chain(kernel, np.zeros(1), 1, rng)
    assert_allclose(step.log_alpha[0], -0.5, rtol=1e-13)
    assert not step.accepted[0]  # log(0.999999) > -0.5 is false only for u < e^-0.5
    rng = scripted_rng(uniforms=[0.2, 0.5], normals=[1.0])
    step = run_chain(kernel, np.zeros(1), 1, rng)
    assert step.accepted[0] and step.states[0, 0] == 1.0


def test_additive_step_symmetric_probs_reduce_to_density_ratio(scripted_rng):
    target = make_iid_gaussian(2)
    x = np.array([0.4, -1.0])
    rng = scripted_rng(uniforms=[0.9, 0.1, 0.3], normals=[0.75])
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig())
    step = run_chain(kernel, x, 1, rng)
    y = x + 0.75 * np.array([-1.0, 1.0])
    assert_allclose(step.log_alpha[0], target.log_density(y) - target.log_density(x), rtol=1e-13)


def test_additive_step_zero_innovation_accepts(scripted_rng):
    target = make_iid_gaussian(2)
    rng = scripted_rng(uniforms=[0.1, 0.2, 0.99], normals=[0.0])
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig())
    step = run_chain(kernel, np.array([1.0, 2.0]), 1, rng)
    assert step.accepted[0]
    assert step.log_alpha[0] == 0.0
    assert np.array_equal(step.states[0], [1.0, 2.0])


def test_additive_step_requires_no_zero_moves():
    target = make_iid_gaussian(2)
    with pytest.raises(ValueError):
        make_additive_tmcmc_kernel(target, TmcmcConfig(p=0.4, q=0.4))


def test_sign_draw_moves_forward_exactly_below_p(scripted_rng):
    # p_i in {0, 0.3, 0.5, 1} with q_i = 1 - p_i; coordinate i is fed 0.0, p_i and
    # the doubles next to p_i that lie in [0, 1), one per transition.
    p, a = np.array([0.0, 0.3, 0.5, 1.0]), np.array([1.0, 2.0, 0.5, 3.0])
    base, proposals = make_iid_gaussian(4), []

    def log_density(x):
        proposals.append(x)
        return base.log_density(x)

    kernel = make_additive_tmcmc_kernel(Target(dim=4, log_density=log_density), TmcmcConfig(scales=a, p=p, q=1.0 - p))
    edges = [[u for u in (0.0, np.nextafter(pi, -1.0), pi, np.nextafter(pi, 2.0)) if 0.0 <= u < 1.0] for pi in p]
    for j in range(max(map(len, edges))):
        u = np.array([col[j % len(col)] for col in edges])
        run_chain(kernel, np.zeros(4), 1, scripted_rng(uniforms=[*u, 0.5], normals=[-1.0]))  # r = 1, so y = d
        assert np.array_equal(proposals[-1], np.where(u < p, a, -a))  # the initial state's call comes first
    assert kernel.direction is None and kernel.a is None  # p != q: not runnable under the bare density ratio

    symmetric = make_additive_tmcmc_kernel(base, TmcmcConfig(scales=a))
    out = np.empty((1, 4))
    rng = scripted_rng(uniforms=[0.0, np.nextafter(0.5, -1.0), 0.5, np.nextafter(0.5, 2.0)], normals=[-0.7])
    assert symmetric.direction(rng, out) == [0.7]
    assert np.array_equal(out[0], [1.0, 2.0, -0.5, -3.0])
    assert np.array_equal(symmetric.a, a)


def test_general_step_zero_coordinate_stays_fixed(scripted_rng):
    target = make_iid_gaussian(3)
    cfg = TmcmcConfig(p=0.3, q=0.3)
    # uniforms: z draws (0.1 -> +1, 0.5 -> -1, 0.9 -> 0), then acceptance
    rng = scripted_rng(uniforms=[0.1, 0.5, 0.9, 0.5], normals=[0.6])
    kernel = make_general_tmcmc_kernel(target, additive_transformation(), cfg)
    step = run_chain(kernel, np.zeros(3), 1, rng)
    proposal_third = step.states[0, 2] if step.accepted[0] else 0.0
    assert proposal_third == 0.0


def test_general_step_resamples_all_zero_move(scripted_rng):
    target = make_iid_gaussian(1)
    cfg = TmcmcConfig(p=0.3, q=0.3)
    # first z draw lands in the no-change band and must be redrawn
    rng = scripted_rng(uniforms=[0.95, 0.1, 0.7], normals=[0.5])
    kernel = make_general_tmcmc_kernel(target, additive_transformation(), cfg)
    step = run_chain(kernel, np.zeros(1), 1, rng)
    assert step.states[0, 0] != 0.0 or not step.accepted[0]


def test_general_step_nonfinite_jacobian_rejects(scripted_rng):
    target = make_iid_gaussian(1)
    from tmcmc.transform_kernels import Transformation

    broken = Transformation(forward=lambda x, e, z: x + e * z, log_jacobian=lambda x, e, z: math.nan)
    rng = scripted_rng(uniforms=[0.1, 0.5], normals=[0.5])
    kernel = make_general_tmcmc_kernel(target, broken, TmcmcConfig())
    step = run_chain(kernel, np.zeros(1), 1, rng)
    assert not step.accepted[0]
    assert step.n_nonfinite_proposals == 1
    assert step.log_alpha[0] == -math.inf


def test_general_specializes_to_additive_under_shared_stream():
    # The symmetric shift kernel (p = q) and the general kernel on the additive transformation:
    # transition by transition on one generator, and as run_chain traces over 700 steps (past a
    # block boundary), both draw the same moves in the same block layout.
    target = make_iid_gaussian(3)
    x0 = np.array([0.1, -0.4, 2.0])
    cfg = TmcmcConfig(eps_scale=0.8, p=0.5, q=0.5)
    additive = make_additive_tmcmc_kernel(target, cfg)
    general = make_general_tmcmc_kernel(target, additive_transformation(1.0), cfg)
    r1, r2 = chain_rng(123), chain_rng(123)
    x1, x2 = x0, x0
    for _ in range(500):
        s1 = run_chain(additive, x1, 1, r1)
        s2 = run_chain(general, x2, 1, r2)
        assert np.array_equal(s1.states, s2.states)
        assert s1.accepted[0] == s2.accepted[0]
        assert s1.log_alpha[0] == s2.log_alpha[0]
        x1, x2 = s1.states[0], s2.states[0]
    t1, t2 = run_chain(additive, x0, 700, 9), run_chain(general, x0, 700, 9)
    assert 0 < t1.accepted.sum() < len(t1)
    for field in ("states", "accepted", "log_density", "log_alpha", "uniforms"):
        assert np.array_equal(getattr(t1, field), getattr(t2, field)), field


def test_general_draw_law():
    # Blocks of 256 rows on one seed: the move types follow P(z) given z != 0, and eps is
    # half-normal with mean s * sqrt(2 / pi).  Each check is a |z| < 4 normal score.
    p, q, s, k = np.array([0.2, 0.5, 0.05]), np.array([0.1, 0.3, 0.05]), 0.7, 3
    cfg = TmcmcConfig(eps_scale=s, p=p, q=q)
    kernel = make_general_tmcmc_kernel(make_iid_gaussian(k), additive_transformation(), cfg)
    rng = chain_rng(17)
    rows = [row for _ in range(40) for row in kernel.draw(rng, 256)]
    z = np.array([row[0] for row in rows])
    eps = np.array([row[1] for row in rows])
    n = len(rows)
    assert z.shape == (n, k) and np.all(z.any(axis=1)) and np.all(eps >= 0.0)
    # P(z) = prod_i P(z_i) / (1 - P(0)), so P(z_i = v | z != 0) = P(z_i = v) * (1 - P(0 off i)) / (1 - P(0)).
    none = 1.0 - p - q
    nonzero = 1.0 - none.prod()
    for i in range(k):
        rest = np.delete(none, i).prod()
        for v, pv in ((1.0, p[i]), (-1.0, q[i]), (0.0, none[i] * (1.0 - rest))):
            prob = pv / nonzero
            hits = (z[:, i] == v).sum()
            assert abs(hits - n * prob) < 4 * math.sqrt(n * prob * (1 - prob)), (i, v)
    mean, sd = s * math.sqrt(2 / math.pi), s * math.sqrt(1 - 2 / math.pi)
    assert abs(eps.mean() - mean) < 4 * sd / math.sqrt(n)


def test_additive_draw_law():
    # Blocks of 256 rows on one seed: a row is (z, eps, log_ratio), coordinate i moves by +a_i eps with
    # probability p_i and by -a_i eps otherwise, so every coordinate of a move shares one
    # magnitude eps = |N(0, s^2)|, with mean s * sqrt(2 / pi) and second moment s^2.  Each
    # check is a |z| < 4 normal score.
    p, a, s = np.array([0.2, 0.5, 0.75]), np.array([1.0, 0.5, 2.0]), 0.7  # powers of 2: |move| / a is exact
    kernel = make_additive_tmcmc_kernel(make_iid_gaussian(3), TmcmcConfig(scales=a, eps_scale=s, p=p, q=1.0 - p))
    rng = chain_rng(17)
    rows = [row for _ in range(40) for row in kernel.draw(rng, 256)]
    z = np.array([row[0] for row in rows])
    eps = np.array([row[1] for row in rows])
    n = len(rows)
    assert z.shape == (n, 3) and eps.shape == (n,)
    origin = kernel.init(np.zeros(3))
    moves = np.array([kernel.propose(origin, row)[0].x for row in rows])
    assert np.array_equal(np.sign(moves), z) and np.all(np.abs(z) == 1.0)
    for i in range(3):
        hits = (moves[:, i] > 0.0).sum()
        assert abs(hits - n * p[i]) < 4 * math.sqrt(n * p[i] * (1 - p[i])), i
    mag = np.abs(moves) / a
    assert np.array_equal(mag, np.broadcast_to(eps[:, None], mag.shape))
    assert abs(eps.mean() - s * math.sqrt(2 / math.pi)) < 4 * s * math.sqrt(1 - 2 / math.pi) / math.sqrt(n)
    assert abs(np.mean(eps**2) - s**2) < 4 * s**2 * math.sqrt(2 / n)


def test_dependent_z_draw_law():
    # Blocks of 256 rows on one seed: a row is (z, eps, log_ratio).  Under the symmetric law each
    # coordinate moves forward, backward or not at all with probability 1/3 (to rounding), so the
    # move ratio is 0 to rounding; eps = s * |N(0, 1)|, with mean s * sqrt(2 / pi) and second
    # moment s^2; and propose moves the origin by (z * a) * eps.  Each check is a |z| < 4 normal score.
    k, s, a = 3, 0.7, np.array([1.0, 0.5, 2.0])
    cfg = dataclasses.replace(symmetric_dependent_cfg(k, eps_scale=s), scales=a)
    kernel = make_dependent_z_kernel(make_iid_gaussian(k), cfg)
    rng = chain_rng(17)
    rows = [row for _ in range(40) for row in kernel.draw(rng, 256)]
    z = np.array([row[0] for row in rows])
    eps = np.array([row[1] for row in rows])
    log_ratio = np.array([row[2] for row in rows])
    n = len(rows)
    assert z.shape == (n, k) and eps.shape == (n,) and log_ratio.shape == (n,)
    for i in range(k):
        for v in (1.0, -1.0, 0.0):
            hits = (z[:, i] == v).sum()
            assert abs(hits - n / 3) < 4 * math.sqrt(n * 2 / 9), (i, v)
    assert np.abs(log_ratio).max() < 1e-12
    assert np.all(eps >= 0.0)
    assert abs(eps.mean() - s * math.sqrt(2 / math.pi)) < 4 * s * math.sqrt(1 - 2 / math.pi) / math.sqrt(n)
    assert abs(np.mean(eps**2) - s**2) < 4 * s**2 * math.sqrt(2 / n)
    origin = kernel.init(np.zeros(k))
    moves = np.array([kernel.propose(origin, row)[0].x for row in rows])
    assert np.array_equal(moves, (z * a) * eps[:, None])


def multiplicative_transformation():
    # user-supplied family: componentwise x -> x * exp(z * eps); the conjugate
    # move inverts it and the (x, eps)-Jacobian is exp(eps * sum z)
    from tmcmc.transform_kernels import Transformation

    return Transformation(
        forward=lambda x, eps, z: x * np.exp(z * eps),
        log_jacobian=lambda x, eps, z: float(eps * np.sum(z)),
        name="multiplicative",
    )


def test_user_transformation_satisfies_contracts():
    tfm = multiplicative_transformation()
    rng = np.random.default_rng(8)
    for _ in range(2_000):
        x = np.exp(rng.standard_normal(3))
        z = rng.integers(-1, 2, size=3).astype(float)
        eps = float(rng.random())
        y = tfm.forward(x, eps, z)
        assert np.abs(tfm.forward(y, eps, -z) - x).max() < 1e-12
        assert abs(tfm.log_jacobian(x, eps, z) + tfm.log_jacobian(y, eps, -z)) < 1e-12


def test_general_kernel_with_user_transformation():
    # log-normal-like target on the positive orthant; multiplicative moves
    # never leave the support
    def log_density(x):
        if np.any(x <= 0.0):
            return -math.inf
        lx = np.log(x)
        return -0.5 * float(lx @ lx) - float(lx.sum())

    target = Target(dim=2, log_density=log_density, name="log-normal")
    cfg = TmcmcConfig(eps_scale=0.5, p=0.4, q=0.4)
    tfm = multiplicative_transformation()
    trace = run_chain(make_general_tmcmc_kernel(target, tfm, cfg), np.ones(2), 2_000, chain_rng(77))
    assert np.all(trace.states > 0.0)
    assert 0.2 < np.mean(trace.accepted) <= 1.0


def test_general_kernel_rejects_moves_whose_reverse_has_probability_zero():
    # Coordinate 1 can only move backward (p_1 = 0), so the reverse of any
    # move of it is impossible: log_alpha = -inf, a rejection but not a
    # non-finite proposal.
    cfg = TmcmcConfig(p=(0.5, 0.0), q=(0.5, 0.6))
    kernel = make_general_tmcmc_kernel(make_iid_gaussian(2), additive_transformation(), cfg)
    trace = run_chain(kernel, np.zeros(2), 2_000, chain_rng(5))
    assert np.all(trace.states[:, 1] == 0.0)
    assert np.any(trace.states[:, 0] != 0.0)
    impossible = trace.log_alpha == -math.inf
    assert 0 < impossible.sum() < len(trace) and not trace.accepted[impossible].any()
    assert trace.n_nonfinite_proposals == 0


# --- dependent move probabilities -----------------------------------------


def symmetric_dependent_cfg(k, eps_scale=1.0):
    tiny = np.full(k, 1e-30)
    return DependentZConfig(
        mu_1=np.zeros(k), mu_2=np.zeros(k), mu_3=np.zeros(k),
        sigma_1=tiny, sigma_2=tiny, sigma_3=tiny, eps_scale=eps_scale,
    )


def test_dependent_z_degenerate_softmax_gives_thirds(scripted_rng):
    target = make_iid_gaussian(2)
    cfg = symmetric_dependent_cfg(2)
    # w draws collapse to the means; z uniforms pick (+1, -1); eps = 0.5
    rng = scripted_rng(
        uniforms=[0.2, 0.5, 0.9], normals=[0.3, -0.2, 0.1, 0.5, -0.6, 0.7, 0.5]
    )
    x = np.array([0.2, -0.1])
    kernel = make_dependent_z_kernel(target, cfg)
    step = run_chain(kernel, x, 1, rng)
    y = x + 0.5 * np.array([1.0, -1.0])
    # p = q = 1/3 exactly, so the move ratio cancels for sign-only moves
    assert_allclose(step.log_alpha[0], target.log_density(y) - target.log_density(x), rtol=1e-12)


def test_dependent_z_all_zero_move_is_accepted_self_transition(scripted_rng):
    target = make_iid_gaussian(2)
    cfg = symmetric_dependent_cfg(2)
    rng = scripted_rng(uniforms=[0.8, 0.9, 0.4], normals=[0.0] * 6 + [1.0])
    x = np.array([1.0, -2.0])
    kernel = make_dependent_z_kernel(target, cfg)
    step = run_chain(kernel, x, 1, rng)
    assert step.accepted[0]
    assert np.array_equal(step.states[0], x)
    assert step.log_alpha[0] == 0.0


@pytest.mark.parametrize("k", [2, 3, 10])
def test_block_softmax_with_a_full_factor_is_each_rows_matrix_vector_product(k):
    # The block law applies a 2-D factor L as the stack of per-row products L @ v: every row's
    # (p, q) equals the softmax of mu_j + L_j @ noise_j taken row by row, bit for bit.
    rng = np.random.default_rng(k)
    factors = [np.linalg.cholesky(m @ m.T + k * np.eye(k)) for m in rng.standard_normal((3, k, k))]
    draws = tuple(zip(rng.standard_normal((3, k)), factors))
    noise = rng.standard_normal((1_024, 3, k))
    p, q = _softmax_moves(draws, noise)
    for i in range(len(noise)):
        w = np.array([mu + L @ noise[i, j] for j, (mu, L) in enumerate(draws)])
        w -= w.max(axis=0, keepdims=True)
        e = np.exp(w)
        e /= e.sum(axis=0, keepdims=True)
        assert np.array_equal(p[i], e[0]) and np.array_equal(q[i], e[1]), i


@pytest.mark.parametrize("field, value", [
    ("mu_1", np.zeros(3)), ("mu_3", np.zeros((5, 5))), ("sigma_2", np.ones(3)), ("sigma_3", np.eye(3)),
    ("scales", np.ones(3)),
])
def test_dependent_z_kernel_rejects_fields_of_another_dimension(field, value):
    # such a config used to build a kernel that failed inside run_chain on a broadcast error
    cfg = dataclasses.replace(symmetric_dependent_cfg(5), **{field: value})
    with pytest.raises(ValueError, match=field):
        make_dependent_z_kernel(make_iid_gaussian(5), cfg)


@pytest.mark.parametrize("field, value", [
    ("mu_1", np.array([math.nan, 0.0, 0.0])), ("mu_3", np.array([0.0, -math.inf, 0.0])),
    ("sigma_1", np.array([math.nan, 1.0, 1.0])), ("sigma_2", np.array([1.0, 1.0, math.inf])),
    ("sigma_3", np.diag([1.0, math.nan, 1.0])), ("sigma_3", np.diag([1.0, 1.0, math.inf])),
])
def test_dependent_z_config_rejects_non_finite_means_and_covariances(field, value):
    # a NaN variance passed the test s <= 0, and its coordinate never moved while the chain accepted
    with pytest.raises(ValueError, match=rf"{field}: entries must be finite"):
        dataclasses.replace(symmetric_dependent_cfg(3), **{field: value})


def test_dependent_z_kernel_runs_and_is_deterministic():
    target = make_iid_gaussian(3)
    cfg = DependentZConfig(
        mu_1=np.zeros(3), mu_2=np.full(3, 0.3), mu_3=np.full(3, -0.2),
        sigma_1=np.ones(3), sigma_2=np.full(3, 0.5), sigma_3=np.full(3, 2.0),
        eps_scale=0.9,
    )
    kernel = make_dependent_z_kernel(target, cfg)
    t1 = run_chain(kernel, np.zeros(3), 2_000, 5)
    t2 = run_chain(kernel, np.zeros(3), 2_000, 5)
    assert np.array_equal(t1.states, t2.states)
    assert 0.05 < np.mean(t1.accepted) <= 1.0


def test_dependent_z_full_covariance_accepted():
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    cfg = DependentZConfig(
        mu_1=np.zeros(2), mu_2=np.zeros(2), mu_3=np.zeros(2),
        sigma_1=cov, sigma_2=np.ones(2), sigma_3=np.ones(2),
    )
    kernel = make_dependent_z_kernel(make_iid_gaussian(2), cfg)
    trace = run_chain(kernel, np.zeros(2), 500, 1)
    assert len(trace) == 500
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # not positive definite
    with pytest.raises(ValueError):
        DependentZConfig(
            mu_1=np.zeros(2), mu_2=np.zeros(2), mu_3=np.zeros(2),
            sigma_1=bad, sigma_2=np.ones(2), sigma_3=np.ones(2),
        )


# --- config validation ----------------------------------------------------


@pytest.mark.parametrize("a, match", [
    (0.0, "a must be positive and finite"),
    (math.nan, "a must be positive and finite"),
    ("x", "a must be positive and finite"),
    (np.ones((3, 1)), r"a must be a scalar or 1-D, got shape \(3, 1\)"),
])
def test_additive_transformation_refuses_bad_a(a, match):
    # each used to build a kernel: a = 0 never moved, a = nan rejected every step as
    # non-finite, and "x" or a (3, 1) a failed mid-run with numpy's own error
    with pytest.raises(ValueError, match=match):
        additive_transformation(a)


def test_additive_forward_names_a_of_another_length():
    forward = additive_transformation(np.ones(2)).forward
    with pytest.raises(ValueError, match=r"a has shape \(2,\), which does not match x shape \(3,\)"):
        forward(np.zeros(3), 0.5, np.ones(3))
    assert np.array_equal(additive_transformation([2.0]).forward(np.zeros(3), 0.5, np.ones(3)), np.ones(3))


def test_general_kernel_refuses_scales_it_would_ignore():
    # the transformation carries its own scales: scales = 5 used to give the trace of scales = 1
    target, tfm = make_iid_gaussian(3), additive_transformation()
    for scales in (5.0, [1.0, 1.0, 2.0]):
        with pytest.raises(ValueError, match="scales must be 1"):
            make_general_tmcmc_kernel(target, tfm, TmcmcConfig(scales=scales, p=0.3, q=0.4))
    make_general_tmcmc_kernel(target, tfm, TmcmcConfig(scales=[1.0, 1.0, 1.0], p=0.3, q=0.4))


def test_tmcmc_config_validation():
    with pytest.raises(ValueError):
        TmcmcConfig(scales=-1.0)
    with pytest.raises(ValueError):
        TmcmcConfig(eps_scale=0.0)
    with pytest.raises(ValueError):
        TmcmcConfig(p=0.7, q=0.7)
    with pytest.raises(ValueError):
        TmcmcConfig(p=0.0, q=0.0)


def test_tmcmc_config_of_p_and_q_that_do_not_broadcast_is_named():
    # the message names both fields, where numpy's broadcast error in p + q names neither
    with pytest.raises(ValueError, match=r"p and q must broadcast together, got shapes \(2,\) and \(3,\)"):
        TmcmcConfig(p=(0.5, 0.5), q=(0.5, 0.5, 0.5))
    assert TmcmcConfig(p=(0.5, 0.25), q=0.5).p == (0.5, 0.25)  # a scalar still broadcasts


@pytest.mark.parametrize("field, value", [("scales", (1.0, 0.18)), ("p", np.full(6, 0.5)), ("q", np.full((5, 1), 0.5))])
def test_tmcmc_config_of_another_dimension_is_named(field, value):
    # such a setting used to fail inside np.broadcast_to with a message that did not name it
    cfg = dataclasses.replace(TmcmcConfig(), **{field: value})
    for make in (make_additive_tmcmc_kernel, lambda t, c: make_general_tmcmc_kernel(t, additive_transformation(), c)):
        with pytest.raises(ValueError, match=rf"{field} has shape .*; a target of dimension 5 needs \(\) or \(1,\) or \(5,\)"):
            make(make_iid_gaussian(5), cfg)
    a, p, q = TmcmcConfig(scales=(2.0,), p=np.full(5, 0.5), q=0.5).broadcast(5)
    assert [v.tolist() for v in (a, p, q)] == [[2.0] * 5, [0.5] * 5, [0.5] * 5]


# --- chain runner ----------------------------------------------------------


def test_run_chain_single_iteration_and_errors():
    target = make_iid_gaussian(2)
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig())
    trace = run_chain(kernel, np.zeros(2), 1, 0)
    assert len(trace) == 1
    with pytest.raises(ValueError):
        run_chain(kernel, np.zeros(2), 0, 0)
    with pytest.raises(ValueError):
        run_chain(kernel, np.array([np.nan, 0.0]), 10, 0)
    for coords in ([-1], [2], [0, 2]):  # rejected before the first step, not recorded or an IndexError
        with pytest.raises(ValueError, match="record_coords"):
            run_chain(kernel, np.zeros(2), 10, 0, record_coords=coords)


def test_run_chain_deterministic_given_seed():
    target = make_iid_gaussian(4)
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=0.7))
    t1 = run_chain(kernel, np.zeros(4), 3_000, 99)
    kernel2 = make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=0.7))
    t2 = run_chain(kernel2, np.zeros(4), 3_000, 99)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.uniforms, t2.uniforms)


def test_run_chain_replay_invariant():
    target = make_iid_gaussian(3)
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig())
    trace = run_chain(kernel, np.zeros(3), 5_000, 11)
    log_u = np.where(trace.uniforms > 0, np.log(trace.uniforms), -np.inf)
    assert np.array_equal(trace.accepted, log_u < trace.log_alpha)


def test_additive_chain_hits_gaussian_moments():
    k = 5
    target = make_iid_gaussian(k)
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=2.4 / math.sqrt(k)))
    trace = run_chain(kernel, np.zeros(k), 200_000, 2024)
    tail = trace.tail(10_000)
    means = tail.states.mean(axis=0)
    variances = tail.states.var(axis=0)
    assert np.all(np.abs(means) < 0.05)
    assert np.all(np.abs(variances - 1.0) < 0.1)


def test_auto_reject_never_writes_nan():
    def bounded_log_density(x):
        return 0.0 if float(np.abs(x).max()) < 1.0 else -math.inf

    target = Target(dim=2, log_density=bounded_log_density, name="box")
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=1.5))
    trace = run_chain(kernel, np.zeros(2), 3_000, 4)
    assert np.all(np.isfinite(trace.states))
    assert np.all(np.isfinite(trace.log_density))
    assert trace.n_nonfinite_proposals > 0
    assert np.all(np.abs(trace.states) < 1.0)


def test_trace_csv_and_summary(tmp_path):
    target = make_iid_gaussian(2)
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig())
    trace = run_chain(kernel, np.zeros(2), 500, 3, meta={"seed": 3, "config": {"kernel": "additive"}})
    csv_path = tmp_path / "trace.csv"
    trace.write_csv(csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "iter,accepted,log_density,x_0,x_1"
    loaded = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert loaded.shape == (500, 5)
    assert_allclose(loaded[:, 3:], trace.states, rtol=0, atol=0)
    summary = trace.summary()
    assert summary["seed"] == 3
    assert 0.0 <= summary["accept_rate"] <= 1.0
    assert set(summary["ess_per_coordinate"]) == {"x_0", "x_1"}


def test_trace_tail_bounds():
    target = make_iid_gaussian(1)
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig())
    trace = run_chain(kernel, np.zeros(1), 100, 0)
    assert len(trace.tail(10)) == 90
    with pytest.raises(ValueError):
        trace.tail(100)
