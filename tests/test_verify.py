import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tmcmc import verify
from tmcmc.discrete_kernels import exact_transition_matrix
from tmcmc.targets import make_iid_gaussian
from tmcmc.transform_kernels import DependentZConfig, _softmax_moves
from tmcmc.verify import (
    ROTATION_MATRICES,
    Verdict,
    build_grid_tmcmc_matrix,
    check_dependent_z_balance,
    check_detailed_balance_discretized,
    check_detailed_balance_exact,
    check_energy_error_scaling,
    check_leapfrog_structure,
    check_two_step_reachability,
    format_verdict_table,
    perturb_kernel_matrix,
    run_continuous_db_suite,
    run_discrete_suite,
    run_structure_suite,
    suite_ok,
    verdicts_to_json,
)


def grid_gaussian(n=21):
    xs = np.linspace(-2.5, 2.5, n)
    log_pi = -0.5 * xs**2
    pi = np.exp(log_pi - log_pi.max())
    return log_pi, pi / pi.sum()


def planar_log_pi():
    xs = np.linspace(-2.0, 2.0, 5)
    return -0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2)


# --- reference grid builders -------------------------------------------------
# The three builders that ``build_grid_tmcmc_matrix`` replaced, with the
# move-probability ratio they took from the kernels at the time, kept as
# references: the one builder must return the same matrices bit for bit.


def _move_log_ratio(z, p, q):
    pos, neg = z > 0, z < 0
    forward = np.concatenate([p[pos], q[neg]])
    reverse = np.concatenate([q[pos], p[neg]])
    if np.any(reverse <= 0.0):
        return -math.inf
    return float(np.sum(np.log(reverse)) - np.sum(np.log(forward)))


def reference_grid_tmcmc_matrix(log_pi, jump_weights, p, q, move_ratio=True):
    if not math.isclose(p + q, 1.0):
        raise ValueError("grid surrogate mirrors the additive kernel: p + q must be 1")
    w = np.asarray(jump_weights, dtype=float)
    if np.any(w < 0.0) or not math.isclose(w.sum(), 1.0):
        raise ValueError("jump_weights must be a probability vector")
    n = len(log_pi)
    P = np.zeros((n, n))
    extra = np.zeros((n, n))
    p_arr, q_arr = np.array([p]), np.array([q])
    for j, wj in enumerate(w, start=1):
        for i in range(n):
            for sign, prob in ((1, p), (-1, q)):
                t = i + sign * j
                if 0 <= t < n:
                    P[i, t] += wj * prob
                    if move_ratio:
                        # Same acceptance-ratio code path as the sampling kernel.
                        extra[i, t] = _move_log_ratio(np.array([float(sign)]), p_arr, q_arr)
    return exact_transition_matrix(np.arange(n), P, np.asarray(log_pi, dtype=float), extra)


def reference_grid_general_tmcmc_matrix_2d(log_pi, jump_weights, p, q):
    log_pi = np.asarray(log_pi, dtype=float)
    n = log_pi.shape[0]
    if log_pi.shape != (n, n) or n * n > 30:
        raise ValueError("2-D grid surrogate needs a square grid of at most 30 states")
    w = np.asarray(jump_weights, dtype=float)
    if np.any(w < 0.0) or not math.isclose(w.sum(), 1.0):
        raise ValueError("jump_weights must be a probability vector")
    if not (p > 0.0 and q > 0.0 and p + q <= 1.0):
        raise ValueError("need p, q > 0 with p + q <= 1")
    r0 = 1.0 - p - q
    renorm = 1.0 - r0 * r0  # all-zero pattern is redrawn
    p_arr, q_arr = np.array([p, p]), np.array([q, q])

    def f(zi: float) -> float:
        return p if zi > 0 else q if zi < 0 else r0

    n_states = n * n
    P = np.zeros((n_states, n_states))
    extra = np.zeros((n_states, n_states))
    patterns = [
        np.array(z, dtype=float)
        for z in ((1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1))
    ]
    for i1 in range(n):
        for i2 in range(n):
            src = i1 * n + i2
            for j, wj in enumerate(w, start=1):
                for z in patterns:
                    t1, t2 = i1 + int(z[0]) * j, i2 + int(z[1]) * j
                    if 0 <= t1 < n and 0 <= t2 < n:
                        tgt = t1 * n + t2
                        P[src, tgt] += wj * f(z[0]) * f(z[1]) / renorm
                        extra[src, tgt] = _move_log_ratio(z, p_arr, q_arr)
    return exact_transition_matrix(np.arange(n_states), P, log_pi.ravel(), extra)


def reference_grid_rwmh_matrix(log_pi, jump_weights):
    w = np.asarray(jump_weights, dtype=float)
    if np.any(w < 0.0) or not math.isclose(w.sum(), 1.0):
        raise ValueError("jump_weights must be a probability vector")
    n = len(log_pi)
    P = np.zeros((n, n))
    for j, wj in enumerate(w, start=1):
        for i in range(n):
            for t in (i - j, i + j):
                if 0 <= t < n:
                    P[i, t] += wj / 2.0
    return exact_transition_matrix(np.arange(n), P, np.asarray(log_pi, dtype=float))


@pytest.mark.parametrize("jump_weights", [(0.5, 0.3, 0.2), (0.6, 0.4)])
def test_one_grid_builder_equals_the_reference_builders(jump_weights):
    log_pi, _ = grid_gaussian()
    for p in (0.3, 0.5, 0.7):
        for move_ratio in (True, False):
            expected = reference_grid_tmcmc_matrix(log_pi, jump_weights, p, 1.0 - p, move_ratio)
            K = build_grid_tmcmc_matrix(log_pi, jump_weights, p, 1.0 - p, move_ratio)
            assert np.array_equal(K, expected), (p, move_ratio)
    # The 1-D random-walk surrogate is the additive p = 1/2 matrix.
    K = build_grid_tmcmc_matrix(log_pi, jump_weights, 0.5, 0.5)
    assert np.array_equal(K, reference_grid_rwmh_matrix(log_pi, jump_weights))


def test_one_grid_builder_equals_the_planar_reference():
    log_pi = planar_log_pi()
    for p, q in ((0.35, 0.35), (0.45, 0.25), (0.5, 0.5)):
        expected = reference_grid_general_tmcmc_matrix_2d(log_pi, (0.6, 0.4), p=p, q=q)
        assert np.array_equal(build_grid_tmcmc_matrix(log_pi, (0.6, 0.4), p=p, q=q), expected), (p, q)


def test_grid_builder_skips_zero_probability_moves():
    # At p = 1 the backward move has probability 0; it is never evaluated, so
    # no log(0) is taken, and every forward move is rejected (its reverse is
    # impossible): the kernel stays put.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_pi, pi = grid_gaussian()
        K = build_grid_tmcmc_matrix(log_pi, (0.5, 0.3, 0.2), 1.0, 0.0)
        v = check_detailed_balance_discretized("additive-tmcmc", p=1.0)
    assert np.abs(K.sum(axis=1) - 1.0).max() <= 1e-12 and np.all(K >= 0.0)
    assert check_detailed_balance_exact(K, pi).passed
    assert v.passed and v.max_violation <= 1e-10


def test_symmetric_kernel_uniform_target_has_zero_violation():
    K = np.full((4, 4), 0.25)
    v = check_detailed_balance_exact(K, np.full(4, 0.25))
    assert v.passed and v.max_violation == 0.0


def test_detailed_balance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_detailed_balance_exact(np.array([[0.5, 0.4], [0.5, 0.5]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        check_detailed_balance_exact(np.full((2, 2), 0.5), np.array([0.9, 0.2]))
    # a NaN matrix or pi passed these checks and gave a NaN violation
    for check in (check_detailed_balance_exact, verify.check_stationarity):
        with pytest.raises(ValueError, match="negative or NaN"):
            check(np.array([[0.5, math.nan], [0.5, 0.5]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="pi must be positive"):
        check_detailed_balance_exact(np.full((2, 2), 0.5), np.array([0.5, math.nan]))


def test_corrupted_kernel_violation_tracks_perturbation():
    log_pi, pi = grid_gaussian()
    K = build_grid_tmcmc_matrix(log_pi, (0.5, 0.3, 0.2), 0.5, 0.5)
    v1 = check_detailed_balance_exact(perturb_kernel_matrix(K, 1e-3), pi)
    v2 = check_detailed_balance_exact(perturb_kernel_matrix(K, 2e-3), pi)
    assert not v1.passed and not v2.passed
    assert_allclose(v2.max_violation, 2.0 * v1.max_violation, rtol=1e-9)
    assert v1.max_violation > 1e-5


def test_grid_surrogates_pass_at_tolerance():
    for kind, kwargs in (
        ("additive-tmcmc", dict(p=0.5)),
        ("additive-tmcmc", dict(p=0.7)),
        ("rwmh", dict()),
    ):
        v = check_detailed_balance_discretized(kind, **kwargs)
        assert v.passed, v
        assert v.max_violation < 1e-10


def test_planar_general_kernel_grid_balance():
    log_pi = planar_log_pi()
    for p, q in ((0.35, 0.35), (0.45, 0.25), (0.5, 0.5)):
        K = build_grid_tmcmc_matrix(log_pi, (0.6, 0.4), p=p, q=q)
        pi = np.exp(log_pi.ravel() - log_pi.max())
        pi /= pi.sum()
        v = check_detailed_balance_exact(K, pi)
        assert v.passed, (p, q, v.max_violation)
    with pytest.raises(ValueError):
        build_grid_tmcmc_matrix(np.zeros((6, 6)), (1.0,), 0.3, 0.3)


def test_grid_negative_control_fails_without_move_ratio():
    v = check_detailed_balance_discretized(
        "additive-tmcmc", p=0.7, move_ratio=False, negative_control=True
    )
    assert not v.passed
    assert v.negative_control


def test_grid_surrogate_state_cap():
    with pytest.raises(ValueError):
        check_detailed_balance_discretized("rwmh", n_states=31)


def symmetric_cfg():
    tiny = np.full(1, 1e-30)
    return DependentZConfig(
        mu_1=np.zeros(1), mu_2=np.zeros(1), mu_3=np.zeros(1),
        sigma_1=tiny, sigma_2=tiny, sigma_3=tiny,
    )


def asymmetric_cfg():
    return DependentZConfig(
        mu_1=np.zeros(1), mu_2=np.full(1, 0.4), mu_3=np.full(1, -0.3),
        sigma_1=np.ones(1), sigma_2=np.full(1, 0.5), sigma_3=np.full(1, 2.0),
    )


def test_dependent_z_balance_degenerate_and_generic():
    assert check_dependent_z_balance(symmetric_cfg(), mc_size=100_000, seed=1).passed
    assert check_dependent_z_balance(asymmetric_cfg(), mc_size=150_000, seed=2).passed


def test_dependent_z_balance_negative_control_fails():
    v = check_dependent_z_balance(
        asymmetric_cfg(), mc_size=100_000, seed=3, move_ratio=False, negative_control=True
    )
    assert not v.passed
    assert v.max_violation > 1e-4


def test_dependent_z_balance_runs_the_kernels_move_ratio(monkeypatch):
    # The certificate takes P(-z)/P(z) from the sampling kernels' code, so a
    # wrong ratio there fails it.
    assert check_dependent_z_balance(asymmetric_cfg(), mc_size=100_000, seed=4).passed
    ratio = verify._move_log_ratio
    monkeypatch.setattr(verify, "_move_log_ratio", lambda *args: 0.5 * ratio(*args))
    v = check_dependent_z_balance(asymmetric_cfg(), mc_size=100_000, seed=4)
    assert not v.passed
    assert v.max_violation > 1e-4


def test_dependent_z_balance_draws_the_kernels_law(monkeypatch):
    # One (p, q) law: the certificate's batched noise, one row a draw, gives each row the
    # (p, q) that the kernel's draw computes from a block of that row alone, bit for bit.
    cfg = asymmetric_cfg()
    draws = tuple(zip((cfg.mu_1, cfg.mu_2, cfg.mu_3), cfg.factors()))
    noise = np.random.default_rng(5).standard_normal((50, 3, 1))
    p_s, q_s = _softmax_moves(draws, noise.copy())
    for i in range(50):
        p, q = _softmax_moves(draws, noise[i : i + 1].copy())
        assert p_s[i, 0] == p[0, 0] and q_s[i, 0] == q[0, 0], i
    calls = []
    spy = lambda draws, noise: calls.append(noise.shape) or _softmax_moves(draws, noise)  # noqa: E731
    monkeypatch.setattr(verify, "_softmax_moves", spy)
    assert check_dependent_z_balance(cfg, mc_size=100_000, seed=4).passed
    assert calls == [(100_000, 3, 1)]


def test_dependent_z_balance_requires_enough_samples():
    with pytest.raises(ValueError):
        check_dependent_z_balance(symmetric_cfg(), mc_size=50_000)


@pytest.mark.parametrize("mc_size", [2e5, float("nan"), True])
def test_dependent_z_balance_names_an_mc_size_that_is_not_an_integer(mc_size):
    with pytest.raises(ValueError, match="mc_size must be an integer"):
        check_dependent_z_balance(symmetric_cfg(), mc_size=mc_size)


def test_rotation_matrices_are_sign_matrices():
    assert len(ROTATION_MATRICES) == 8
    seen = set()
    for M in ROTATION_MATRICES:
        assert set(np.unique(M)) <= {-1.0, 1.0}
        seen.add(tuple(M.ravel()))
    assert len(seen) == 8


def test_two_step_displacement_hand_example():
    # first matrix, unit innovations: step signs (+1,+1) then (+1,-1)
    M1 = ROTATION_MATRICES[0]
    assert_allclose(M1 @ np.ones(2), [2.0, 0.0])
    x = np.array([0.3, -0.7])
    mid = x + 1.0 * M1[:, 0]
    end = mid + 1.0 * M1[:, 1]
    assert_allclose(end - x, M1 @ np.ones(2))


def test_two_step_reachability_verdict():
    v = check_two_step_reachability(seed=0)
    assert v.passed
    assert sorted(map(tuple, v.details["quadrants_visited"])) == [
        (-1, -1), (-1, 1), (1, -1), (1, 1),
    ]


def test_single_step_without_sign_mixing_cannot_rotate():
    # From x1 < x2, one shared-innovation move with a common sign never lands
    # in {y1 > 0, y2 < 0}: the coordinate gap is preserved.
    rng = np.random.default_rng(12)
    for _ in range(500):
        x1 = rng.uniform(-3, 0)
        x2 = x1 + rng.uniform(0.01, 3)
        eps = rng.uniform(0, 10)
        for sign in (1.0, -1.0):
            y1, y2 = x1 + sign * eps, x2 + sign * eps
            assert not (y1 > 0 and y2 < 0)


def test_leapfrog_structure_verdicts():
    good = check_leapfrog_structure(make_iid_gaussian(2), seed=0)
    assert good.passed
    assert good.details["reversibility_error"] < 1e-10
    assert good.details["jacobian_error"] < 1e-6
    bad = check_leapfrog_structure(make_iid_gaussian(2), seed=0, integrator="euler")
    assert not bad.passed
    # a misspelled name used to run Euler and count its failure as an expected negative control
    for name in ("Leapfrog", "eulr", ""):
        with pytest.raises(ValueError, match="integrator must be 'leapfrog' or 'euler'"):
            check_leapfrog_structure(make_iid_gaussian(2), seed=0, integrator=name)
    with pytest.raises(ValueError):
        check_leapfrog_structure(make_iid_gaussian(4))


def test_energy_error_scaling_band():
    v = check_energy_error_scaling(seed=0)
    assert v.passed
    assert 3.5 <= v.details["ratio"] <= 4.5


def test_verdict_passed_iff_within_tolerance():
    assert Verdict("x", 1e-12, 1e-10).passed
    assert not Verdict("x", 1e-8, 1e-10).passed


def test_suite_ok_logic():
    good = Verdict("a", 0.0, 1.0)
    bad = Verdict("b", 2.0, 1.0)
    neg_ok = Verdict("c", 2.0, 1.0, details={"negative_control": True})
    neg_bad = Verdict("d", 0.0, 1.0, details={"negative_control": True})
    expected = Verdict("e", 2.0, 1.0, details={"expected_failure": True})
    assert suite_ok([good, neg_ok, expected])
    assert not suite_ok([good, bad])
    assert not suite_ok([good, neg_bad])
    # a NaN violation detected nothing, yet counted as a failing negative control
    neg_nan = Verdict("f", math.nan, 1.0, details={"negative_control": True})
    assert not suite_ok([good, neg_nan])
    assert "UNEXPECTED PASS" in format_verdict_table([neg_nan])


def test_suite_ok_and_the_table_read_one_status():
    # each verdict alone: suite_ok fails it iff the table shows a failing status
    a_control_passed = Verdict("nan-control", math.nan, 1.0, details={"negative_control": True})
    documented = Verdict("reducible", 2.0, 1.0, details={"expected_failure": True})
    plain = Verdict("plain", 2.0, 1.0)
    for v, status, ok in ((a_control_passed, "UNEXPECTED PASS", False), (documented, "expected failure", True),
                          (plain, "FAIL", False)):
        assert v.status == status
        assert suite_ok([v]) is ok
        row = f"{v.check_name:42s} {v.max_violation:12.3e}    1.0e+00  {status}"
        assert format_verdict_table([v]).splitlines()[1] == row


def test_verdict_json_schema_fields(tmp_path):
    verdicts = run_discrete_suite(0, lattice_r=0.0)
    path = tmp_path / "verdicts.json"
    verdicts_to_json(verdicts, path)
    payload = json.loads(path.read_text())
    assert isinstance(payload, list)
    for item in payload:
        assert {"check_name", "passed", "max_violation", "tolerance", "seed"} <= set(item)
    reducible = [p for p in payload if p["check_name"].startswith("irreducibility-lattice")]
    assert reducible and reducible[0]["expected_failure"] is True
    assert suite_ok(verdicts)


def test_suites_pass_and_tables_render():
    for verdicts in (run_continuous_db_suite(0), run_structure_suite(0), run_discrete_suite(0)):
        assert suite_ok(verdicts)
        table = format_verdict_table(verdicts)
        assert "pass" in table
    corrupted = run_discrete_suite(0, corrupt_acceptance=True)
    assert not suite_ok(corrupted)


def test_discrete_suite_records_parity_split():
    verdicts = run_discrete_suite(0, lattice_r=0.0)
    v = [x for x in verdicts if x.check_name.startswith("irreducibility-lattice")][0]
    assert v.expected_failure
    assert v.details["n_classes"] == 2
    assert v.details["parity_split"] is True
