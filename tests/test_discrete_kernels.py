import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from tmcmc.chain import chain_rng, run_chain
from tmcmc.discrete_kernels import (
    enumerate_box_states,
    enumerate_spin_states,
    exact_transition_matrix,
    ising_transition_matrix,
    jump_magnitude_masses,
    lattice_transition_matrix,
    make_ising_kernel,
    make_zk_kernel,
    stationary_distribution,
    strongly_connected_classes,
)
from tmcmc.targets import make_ising_chain, make_lattice_target
from tmcmc.verify import check_detailed_balance_exact


# --- reference exact builders ------------------------------------------------
# The spin and lattice builders as they were before the lattice kernel and the
# grid surrogates shared one translation-matrix builder, kept as references:
# the builders must return the same matrices bit for bit.


def reference_ising_transition_matrix(target, p, eps_values=None):
    k = target.dim
    probs = np.broadcast_to(np.asarray(p, dtype=float), (k,))
    eps_grid = np.asarray([1.5] if eps_values is None else list(eps_values), dtype=float)
    states = enumerate_spin_states(k)
    n = states.shape[0]
    per_eps = []
    for eps in eps_grid:
        forward = np.sign(states + eps)
        backward = np.sign(states - eps)
        sel_eps = np.array(
            [
                math.exp(
                    float(
                        np.sum(
                            np.where(
                                s == forward[idx],
                                np.log(probs),
                                np.where(s == backward[idx], np.log1p(-probs), -np.inf),
                            )
                        )
                    )
                )
                for idx, s in enumerate(states)
            ]
        )
        per_eps.append(sel_eps)
    sel = per_eps[0]
    for other in per_eps[1:]:
        assert np.array_equal(sel, other)
    P = np.tile(sel, (n, 1))
    log_sel = np.log(sel)
    extra = log_sel[:, None] - log_sel[None, :]
    log_pi = np.array([target.log_density(s) for s in states])
    return states, exact_transition_matrix(states, P, log_pi, extra)


def reference_lattice_transition_matrix(target, r, jump_scale, box_radius):
    k = target.dim
    states = enumerate_box_states(k, box_radius)
    n = states.shape[0]
    masses, _tail = jump_magnitude_masses(jump_scale, 2 * box_radius)
    index = {tuple(s): i for i, s in enumerate(states)}

    P = np.zeros((n, n))
    for i, x in enumerate(states):
        for m_idx, g in enumerate(masses):
            m = m_idx + 1
            if r > 0.0:
                piece = r * g / (2.0 * k)
                for j in range(k):
                    for sign in (1.0, -1.0):
                        y = x.copy()
                        y[j] += sign * m
                        tgt = index.get(tuple(y))
                        if tgt is not None:
                            P[i, tgt] += piece
            if r < 1.0:
                piece = (1.0 - r) * g / (2.0**k)
                for z in itertools.product((-1.0, 1.0), repeat=k):
                    y = x + m * np.asarray(z)
                    tgt = index.get(tuple(y))
                    if tgt is not None:
                        P[i, tgt] += piece
    log_pi = np.array([target.log_density(s) for s in states])
    return states, exact_transition_matrix(states, P, log_pi)


def assert_same_matrix(built, expected, label):
    assert np.array_equal(built[0], expected[0]) and np.array_equal(built[1], expected[1]), label


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lattice_builder_equals_the_reference(k):
    # Every (r, jump_scale) at box radii 2-5; at k = 3 the two largest boxes (729 and 1,331
    # states, where the reference's per-state loop takes 0.1-0.3 s a matrix) run one jump scale.
    target = make_lattice_target(k, 0.7)
    for box_radius in (2, 3, 4, 5):
        scales = (1.5,) if k == 3 and box_radius > 3 else (0.7, 1.5, 3.0)
        for r, s in itertools.product((0.0, 0.3, 0.5, 1.0), scales):
            expected = reference_lattice_transition_matrix(target, r, s, box_radius)
            assert_same_matrix(lattice_transition_matrix(target, r, s, box_radius), expected, (box_radius, r, s))


def test_ising_builder_equals_the_reference():
    grids = (None, (1.2,), (3.0, 400.0), (2.0, 7.25, 31.0), (1.0000001, 5.0, 1e300))
    rng = np.random.default_rng(3)
    for k in range(1, 10):
        target = make_ising_chain(k, 0.3)
        for p, eps_values in itertools.product((0.5, 0.65, rng.uniform(0.05, 0.95, k)), grids):
            expected = reference_ising_transition_matrix(target, p, eps_values)
            assert_same_matrix(ising_transition_matrix(target, p, eps_values), expected, (k, p, eps_values))


def normalized_masses(target, states):
    log_w = np.array([target.log_density(s) for s in states])
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def test_ising_k1_symmetric_two_state_chain():
    target = make_ising_chain(1, 0.7)
    states, K = ising_transition_matrix(target, 0.5)
    assert_allclose(K, np.full((2, 2), 0.5), rtol=0, atol=0)


def test_ising_uniform_target_has_uniform_stationary_vector():
    target = make_ising_chain(2, 0.0)
    states, K = ising_transition_matrix(target, 0.5)
    pi = stationary_distribution(K)
    assert_allclose(pi, np.full(4, 0.25), atol=1e-12)


def test_ising_exact_kernel_stationarity_matches_target():
    target = make_ising_chain(3, 0.5)
    states, K = ising_transition_matrix(target, 0.5)
    pi = normalized_masses(target, states)
    assert_allclose(stationary_distribution(K), pi, atol=1e-12)
    assert np.abs(pi @ K - pi).max() < 1e-14


def test_ising_detailed_balance_with_asymmetric_probs():
    target = make_ising_chain(4, 0.3)
    states, K = ising_transition_matrix(target, np.array([0.65, 0.4, 0.55, 0.7]))
    pi = normalized_masses(target, states)
    v = check_detailed_balance_exact(K, pi)
    assert v.passed and v.max_violation < 1e-15


def test_ising_proposals_are_state_independent():
    target = make_ising_chain(2, 0.3)
    kernel = make_ising_kernel(target, 0.5)
    trace = run_chain(kernel, np.array([1.0, 1.0]), 4_000, 8)
    # with p = 1/2 the proposal is uniform; acceptance keeps the chain valid
    assert set(np.unique(trace.states)) == {-1.0, 1.0}


def test_ising_innovation_grid_invariance_exact():
    target = make_ising_chain(3, 0.5)
    _, K1 = ising_transition_matrix(target, 0.55, eps_values=(1.2,))
    _, K2 = ising_transition_matrix(target, 0.55, eps_values=(3.0, 400.0))
    assert np.array_equal(K1, K2)
    # NaN passed a test of eps <= 1 and gave a NaN matrix; an empty grid raised ZeroDivisionError
    for eps_values in ((0.9,), (1.0,), (2.0, 0.5), (math.nan,), (2.0, math.nan), ()):
        with pytest.raises(ValueError, match="non-empty grid, each above 1"):
            ising_transition_matrix(target, 0.55, eps_values=eps_values)


def test_ising_probability_validation():
    target = make_ising_chain(2, 0.1)
    for build in (ising_transition_matrix, make_ising_kernel):
        # NaN passed a test of p <= 0 or p >= 1, and its chain accepted nothing, with NaN log_alpha
        for p in (1.0, 0.0, -0.2, math.nan, (0.5, math.nan), (0.5, 1.0)):
            with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
                build(target, p)
        # a p of another length is named, where it failed on numpy's bare broadcast error
        for p, shape in (((0.5, 0.5, 0.5), r"\(3,\)"), (np.full((2, 2), 0.5), r"\(2, 2\)")):
            with pytest.raises(ValueError, match=rf"p has shape {shape}; a target of dimension 2 needs"):
                build(target, p)
        build(target, (0.3, 0.6))
        build(target, [0.4])


# --- generic matrix assembly ------------------------------------------------


def test_exact_transition_matrix_rows_sum_to_one():
    target = make_ising_chain(3, 0.4)
    _, K = ising_transition_matrix(target, 0.6)
    assert_allclose(K.sum(axis=1), np.ones(8), rtol=0, atol=1e-12)
    assert np.all(K >= 0.0)


def test_exact_transition_matrix_bug_trap():
    states = np.arange(2)
    over = np.array([[0.8, 0.8], [0.1, 0.1]])
    with pytest.raises(RuntimeError):
        exact_transition_matrix(states, over, np.zeros(2))
    with pytest.raises(ValueError):
        exact_transition_matrix(states, -over, np.zeros(2))
    # NaN passed every guard, and a NaN move ratio or log-density gave a NaN row
    P = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        exact_transition_matrix(states, np.array([[0.5, math.nan], [0.5, 0.5]]), np.zeros(2))
    with pytest.raises(ValueError, match="not NaN"):
        exact_transition_matrix(states, P, np.zeros(2), np.array([[0.0, math.nan], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not NaN"):
        exact_transition_matrix(states, P, np.array([0.0, math.nan]))
    with pytest.raises(ValueError, match="not NaN"):
        exact_transition_matrix(states, P, np.full(2, -math.inf))


# --- lattice kernel ---------------------------------------------------------


def test_jump_masses_closed_form_and_tail():
    s = 1.5
    masses, tail = jump_magnitude_masses(s, 4)
    assert_allclose(masses[0], 2 * (norm.cdf(1 / s) - 0.5), rtol=1e-13)
    assert_allclose(masses.sum() + tail, 1.0, rtol=1e-13)


def test_zk_step_floor_jump_magnitude(scripted_rng):
    target = make_lattice_target(2, 1.0)
    # branch uniform 0.9 -> joint move; eps = 1 + |1.7| = 2.7 -> jump floor 2;
    # z uniforms (0.2, 0.8) -> (+1, -1); final uniform small -> accept
    rng = scripted_rng(uniforms=[0.9, 0.2, 0.8, 1e-12], normals=[1.7])
    kernel = make_zk_kernel(target, r=0.3, jump_scale=1.0)
    step = run_chain(kernel, np.array([1.0, 2.0]), 1, rng)
    assert step.accepted[0]
    assert_allclose(step.states[0], [3.0, 0.0])


def test_zk_coordinate_branch(scripted_rng):
    target = make_lattice_target(3, 0.5)
    # branch uniform 0.1 < r -> coordinate move on index 2 with sign +
    rng = scripted_rng(uniforms=[0.1, 0.4, 0.9999], normals=[0.2], integers=[2])
    kernel = make_zk_kernel(target, r=0.5, jump_scale=1.0)
    step = run_chain(kernel, np.zeros(3), 1, rng)
    # eps = 1.2 -> jump 1 on coordinate 2 only (rejected or accepted)
    if step.accepted[0]:
        assert_allclose(step.states[0], [0.0, 0.0, 1.0])


def within_4_sd(hits, n, prob):
    """Whether ``hits`` of ``n`` Bernoulli(``prob``) draws lie within 4 standard deviations of ``n * prob``."""
    return abs(hits - n * prob) < 4 * math.sqrt(n * prob * (1 - prob))


def test_ising_draw_law():
    # Blocks of 256 rows on one seed: coordinate i proposes +1 with probability p_i.
    p = np.array([0.6, 0.3, 0.5, 0.85])
    kernel = make_ising_kernel(make_ising_chain(4, 0.3), p)
    rng = chain_rng(19)
    rows = np.concatenate([kernel.draw(rng, 256) for _ in range(20)])
    assert set(np.unique(rows)) == {-1.0, 1.0}
    for i, p_i in enumerate(p):
        assert within_4_sd((rows[:, i] > 0).sum(), len(rows), p_i), i


def test_zk_draw_law():
    # Blocks of 256 rows on one seed: a row is the move y - x.  A share r of rows moves one
    # coordinate, uniform on 0..k-1; the rest move all k.  Signs are fair and the magnitude
    # floor(1 + |N(0, s^2)|) has the masses of jump_magnitude_masses.
    k, r, s = 3, 0.3, 1.5
    kernel = make_zk_kernel(make_lattice_target(k, 0.5), r, s)
    rng = chain_rng(23)
    rows = np.concatenate([kernel.draw(rng, 256) for _ in range(20)])
    n = len(rows)
    moved = rows != 0.0
    single = moved.sum(axis=1) == 1
    assert np.all(single | moved.all(axis=1))
    assert np.all(np.signbit(rows[~moved]))  # an unmoved coordinate holds -0.0, so x + row keeps x's bits
    assert within_4_sd(single.sum(), n, r)
    coords = moved[single].argmax(axis=1)
    for j in range(k):
        assert within_4_sd((coords == j).sum(), single.sum(), 1 / k), j
    steps = rows[moved]
    assert within_4_sd((steps > 0).sum(), len(steps), 0.5)
    m = np.abs(rows).max(axis=1)
    assert np.all(np.abs(rows[~single]) == m[~single, None])
    masses, tail = jump_magnitude_masses(s, 4)
    for size, mass in enumerate(masses, start=1):
        assert within_4_sd((m == size).sum(), n, mass), size
    assert within_4_sd((m > 4).sum(), n, tail)


def test_zk_validation():
    target = make_lattice_target(1, 1.0)
    # The kernel and its exact matrix check r and jump_scale alike.  The matrix took a jump_scale of
    # 0 or NaN and gave NaN rows, and -1 failed as "proposal_probs must be nonnegative".
    for build in (make_zk_kernel, lambda t, r, s: lattice_transition_matrix(t, r, s, 2)):
        for r in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"r must lie in \[0, 1\]"):
                build(target, r, 1.0)
        for s in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="jump_scale must be positive and finite"):
                build(target, 0.5, s)
    # a box radius of -1 raised a bare IndexError
    for box_radius in (-1, 1.5, True, "3"):
        with pytest.raises(ValueError, match="box_radius must be a nonnegative integer"):
            lattice_transition_matrix(target, 0.5, 1.0, box_radius)
    states, K = lattice_transition_matrix(target, 0.5, 1.0, np.int64(0))
    assert states.shape == (1, 1) and np.array_equal(K, np.ones((1, 1)))
    # refused before its 9,261 states and two (n, n) matrices are made
    with pytest.raises(ValueError, match="too large for exact construction: 9261 > 5000"):
        lattice_transition_matrix(make_lattice_target(3, 1.0), 0.5, 1.0, 10)


def test_lattice_k1_exact_detailed_balance():
    target = make_lattice_target(1, 1.0)
    states, K = lattice_transition_matrix(target, r=1.0, jump_scale=1.5, box_radius=5)
    pi = normalized_masses(target, states)
    v = check_detailed_balance_exact(K, pi, tolerance=1e-10)
    assert v.passed
    assert np.abs(pi @ K - pi).max() < 1e-10


def test_lattice_parity_reducibility_and_mixture_fix():
    target = make_lattice_target(2, 1.0)
    states, K0 = lattice_transition_matrix(target, r=0.0, jump_scale=1.5, box_radius=3)
    n0, labels0 = strongly_connected_classes(K0)
    assert n0 == 2
    parity = (states[:, 0] - states[:, 1]) % 2
    for v in (0.0, 1.0):
        assert len(set(labels0[parity == v])) == 1

    _, K1 = lattice_transition_matrix(target, r=0.3, jump_scale=1.5, box_radius=3)
    n1, _ = strongly_connected_classes(K1)
    assert n1 == 1


def test_lattice_chain_parity_conservation_short():
    target = make_lattice_target(2, 0.4)
    kernel = make_zk_kernel(target, r=0.0, jump_scale=1.2)
    trace = run_chain(kernel, np.array([1.0, 2.0]), 10_000, 13)
    diffs = (trace.states[:, 0] - trace.states[:, 1]).astype(int)
    assert np.all(diffs % 2 == 1)

    kernel_mix = make_zk_kernel(target, r=0.3, jump_scale=1.2)
    trace_mix = run_chain(kernel_mix, np.array([1.0, 2.0]), 10_000, 13)
    parities = set(((trace_mix.states[:, 0] - trace_mix.states[:, 1]).astype(int)) % 2)
    assert parities == {0, 1}


def test_enumerators():
    assert enumerate_spin_states(3).shape == (8, 3)
    assert enumerate_box_states(2, 3).shape == (49, 2)


def test_lattice_aperiodicity_witness():
    target = make_lattice_target(1, 1.0)
    _, K = lattice_transition_matrix(target, r=0.5, jump_scale=1.5, box_radius=4)
    assert np.diag(K).max() > 0.0
