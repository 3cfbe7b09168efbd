import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tmcmc.targets import (
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

RNG = np.random.default_rng(1234)


def finite_diff_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


# --- Gaussian families ---------------------------------------------------


def test_iid_gaussian_closed_forms():
    t1 = make_iid_gaussian(1)
    assert_allclose(t1.log_density(np.zeros(1)), -0.5 * math.log(2 * math.pi))
    t2 = make_iid_gaussian(2)
    assert_allclose(t2.grad_log_density(np.zeros(2)), np.zeros(2))
    t3 = make_iid_gaussian(3)
    assert_allclose(t3.log_density(np.ones(3)), -1.5 * math.log(2 * math.pi) - 1.5)


@pytest.mark.parametrize("k", [1, 3, 4, 10, 100])
def test_iid_gaussian_batched_rows_equal_single_calls(k):
    target = make_iid_gaussian(k)
    batch = np.random.default_rng(k).standard_normal((700, k)) * 3.0
    values = target.log_density(batch)
    assert values.shape == (700,)
    singles = np.array([target.log_density(row.copy()) for row in batch])
    assert np.array_equal(values, singles)  # bit for bit, not approximately


def _matmul_form(family, k):
    """A 1-D density and, as its reference, the same arithmetic with ``@`` for its dot."""
    if family == "iid":
        target = make_iid_gaussian(k)
        const = target.log_density(np.zeros(k))  # const - 0.5 * 0.0, exactly
        return target, lambda x: const - 0.5 * float(x @ x)
    if family == "anisotropic":
        lam = np.linspace(0.5, 4.0, k)
        target = make_anisotropic_gaussian(lam)
        const = target.log_density(np.zeros(k))
        return target, lambda x: const - 0.5 * float(lam @ (x * x))
    target = make_ising_chain(k, 0.7)
    return target, lambda x: 0.7 * float(x[:-1] @ x[1:]) if k > 1 else 0.0


@pytest.mark.parametrize("k", [1, 3, 10, 100, 20_000])
@pytest.mark.parametrize("family", ["iid", "anisotropic", "ising"])
def test_one_state_densities_equal_their_matmul_form(family, k):
    # The densities take their dots with ndarray.dot, which runs the BLAS dot that ``@`` runs on
    # 1-D operands: each value equals the ``@`` form bit for bit, from a float array, a list and
    # an integer array alike.
    target, reference = _matmul_form(family, k)
    rng = np.random.default_rng(k)
    ints = rng.integers(-5, 6, size=k)
    for x in (rng.standard_normal(k) * 3.0, rng.standard_normal(k) * 1e-3, ints.astype(float)):
        assert target.log_density(x) == reference(x)
    for x in (ints, ints.tolist(), ints.astype(np.int32)):
        assert target.log_density(x) == reference(ints.astype(float))
    if family == "iid":  # the batched rows take vecdot, row by row the single call's value
        batch = rng.standard_normal((3, k))
        assert target.log_density(batch).tolist() == [target.log_density(row.copy()) for row in batch]


@pytest.mark.parametrize("center", [False, True])
def test_challenger_density_and_gradient_equal_their_matmul_form(center):
    # The logistic density's ``y . eta`` and the gradient's ``t_cov . resid`` are ndarray.dot:
    # bit-identical to the same arithmetic with ``@``, from floats, a list and integers.
    target = make_challenger_logistic(10.0, center=center)
    y, t_bar, inv_two_var = target.info["y"], target.info["t_bar"], 0.5 / (10.0 * 10.0)
    t_cov = target.info["temps"] - t_bar

    def reference(beta):
        b0, b1 = float(beta[0]), float(beta[1])
        eta = b0 + b1 * t_cov
        raw0 = b0 - b1 * t_bar
        lp = float(y @ eta - np.sum(np.logaddexp(0.0, eta))) - inv_two_var * (raw0 * raw0 + b1 * b1)
        resid = y - 1.0 / (1.0 + np.exp(-eta))
        return lp, float(t_cov @ resid) - 2.0 * inv_two_var * (b1 - raw0 * t_bar)

    betas = list(np.random.default_rng(29).standard_normal((500, 2)) * (3.0, 0.2))
    betas += [[1, 0], [-2, 0], np.array([3, -1]), np.array([0, 0], dtype=np.int32)]
    for beta in betas:
        lp, g1 = reference(beta)
        assert target.log_density(beta) == lp
        assert target.grad_log_density(beta)[1] == g1


def test_iid_gaussian_rejects_zero_dim():
    with pytest.raises(ValueError):
        make_iid_gaussian(0)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda k: Target(dim=k, log_density=lambda x: 0.0), "dim"),
        (make_iid_gaussian, "k"),
        (lambda k: make_ising_chain(k, 0.1), "k"),
        (lambda k: make_lattice_target(k, 1.0), "k"),
    ],
    ids=["Target", "iid-gaussian", "ising-chain", "lattice"],
)
def test_a_dimension_must_be_an_integer(build, name):
    # A dimension counts coordinates: a fraction or a bool is refused by name, a numpy integer is not.
    for bad in (2.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            build(bad)
    assert build(np.int64(3)).dim == 3


def test_anisotropic_reduces_to_iid():
    iso = make_iid_gaussian(2)
    ani = make_anisotropic_gaussian([1.0, 1.0])
    for _ in range(20):
        x = RNG.standard_normal(2) * 3
        assert_allclose(ani.log_density(x), iso.log_density(x), rtol=1e-14)


def test_anisotropic_gradient_and_meta():
    t = make_anisotropic_gaussian([2.0, 8.0])
    assert_allclose(t.grad_log_density(np.ones(2)), [-2.0, -8.0])
    assert t.meta.m_k == 2.0
    assert t.meta.M_k == 8.0
    with pytest.raises(ValueError):
        make_anisotropic_gaussian([1.0, -2.0])


@pytest.mark.parametrize(
    "factory",
    [
        lambda: make_iid_gaussian(4),
        lambda: make_anisotropic_gaussian([0.5, 1.0, 3.0, 9.0]),
        lambda: make_challenger_logistic(10.0),
        lambda: make_challenger_logistic(10.0, center=True),
    ],
)
def test_gradients_match_finite_differences(factory):
    target = factory()
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-10, 10, size=target.dim)
        if "challenger" in target.name:
            x = x * np.array([1.0, 0.05])  # keep eta in a numerically sane range
        g = target.grad_log_density(x)
        fd = finite_diff_grad(target.log_density, x)
        assert np.max(np.abs(g - fd) / (1.0 + np.abs(g))) < 1e-5


@pytest.mark.parametrize("factory", [make_iid_gaussian, lambda k: make_anisotropic_gaussian(np.linspace(1.0, 4.0, k))],
                         ids=["iid", "anisotropic"])
def test_gaussian_gradients_take_lists_and_integer_arrays_as_float64(factory):
    # The gradients take the position as given: a list or an integer array must give the
    # float-array call's values, bit for bit and as float64.
    target = factory(4)
    ints = [-3, 0, 2, 7]
    ref = target.grad_log_density(np.array(ints, dtype=float))
    assert ref.dtype == np.float64
    for x in (ints, np.array(ints), np.array(ints, dtype=np.int32)):
        g = target.grad_log_density(x)
        assert g.dtype == np.float64
        assert np.array_equal(g, ref)
        assert np.array_equal(np.signbit(g), np.signbit(ref))  # -0.0 where x is 0


def test_log_concave_sandwich_for_gaussians():
    # Strong concavity/smoothness: between any two points the log-density gap
    # is bracketed by the quadratic bounds with the declared curvatures.
    for target in (make_iid_gaussian(3), make_anisotropic_gaussian([0.7, 2.0, 5.0])):
        m, M = target.meta.m_k, target.meta.M_k
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.standard_normal(target.dim) * 2
            y = rng.standard_normal(target.dim) * 2
            gap = target.log_density(y) - target.log_density(x)
            lin = float(target.grad_log_density(x) @ (y - x))
            d2 = float((y - x) @ (y - x))
            assert gap <= lin - 0.5 * m * d2 + 1e-9
            assert gap >= lin - 0.5 * M * d2 - 1e-9


def test_log_concave_meta_validation():
    with pytest.raises(ValueError):
        LogConcaveMeta(m_k=2.0, M_k=1.0, mode=np.zeros(1))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: make_anisotropic_gaussian([1.0, v]), "precisions"),
        (make_challenger_logistic, "prior_sd"),
        (lambda v: make_lattice_target(2, v), "rate"),
        (lambda v: make_ising_chain(3, v), "coupling"),
    ],
    ids=["anisotropic-gaussian", "challenger-logistic", "lattice", "ising-chain"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_target_factories_name_a_nonfinite_parameter(build, name, value):
    # NaN fails every comparison, so a check for <= 0 alone let it through to a density that is
    # NaN everywhere; an infinite precision or rate made every density NaN or -inf as well.
    with pytest.raises(ValueError, match=rf"^{name} must"):
        build(value)


# --- Challenger data and posterior ---------------------------------------


def test_challenger_dataset_integrity():
    records = load_challenger_data()
    assert len(records) == 23
    assert sum(r.failure for r in records) == 7
    temps = [r.temp_f for r in records]
    assert min(temps) == 53 and max(temps) == 81
    assert all(isinstance(r, ChallengerRecord) for r in records)


def test_challenger_external_csv_roundtrip(tmp_path):
    records = load_challenger_data()
    path = tmp_path / "oring.csv"
    with open(path, "w") as fh:
        fh.write("flight_no,failure,temp_f\n")
        for r in records:
            fh.write(f"{r.flight_no},{r.failure},{r.temp_f}\n")
    assert load_challenger_data(str(path)) == records
    bad = tmp_path / "bad.csv"
    bad.write_text("flight,fail,temp\n1,0,70\n")
    with pytest.raises(ValueError):
        load_challenger_data(str(bad))


def test_challenger_log_density_at_origin():
    target = make_challenger_logistic(10.0)
    assert_allclose(target.log_density(np.zeros(2)), -23 * math.log(2.0))


def test_challenger_gradient_at_origin_matches_dataset_sums():
    records = load_challenger_data()
    y = np.array([r.failure for r in records], float)
    t = np.array([r.temp_f for r in records], float)
    expected = np.array([np.sum(y - 0.5), t @ y - 0.5 * t.sum()])
    assert_allclose(expected, [-4.5, -354.0])  # hand-derived from the 23 rows
    target = make_challenger_logistic(10.0)
    # prior contributes nothing to the gradient at the origin
    assert_allclose(target.grad_log_density(np.zeros(2)), expected)


def test_challenger_center_is_exact_reparameterization():
    raw = make_challenger_logistic(10.0)
    cen = make_challenger_logistic(10.0, center=True)
    t_bar = cen.info["t_bar"]
    rng = np.random.default_rng(3)
    for _ in range(50):
        g0, b1 = rng.uniform(-3, 3), rng.uniform(-0.5, 0.5)
        lp_c = cen.log_density(np.array([g0, b1]))
        lp_r = raw.log_density(np.array([g0 - b1 * t_bar, b1]))
        assert_allclose(lp_c, lp_r, rtol=0, atol=1e-10)


def challenger_quadrature_moments(prior_sd=10.0, n=801, span=9.0):
    """Independent posterior-moment oracle by dense 2-D quadrature."""
    records = load_challenger_data()
    y = np.array([r.failure for r in records], float)
    t = np.array([r.temp_f for r in records], float)
    tb = t.mean()
    g0 = np.linspace(-1.12 - span * 0.57, -1.12 + span * 0.57, n)
    b1 = np.linspace(-0.186 - span * 0.079, -0.186 + span * 0.079, n)
    G0, B1 = np.meshgrid(g0, b1, indexing="ij")
    eta = G0[..., None] + B1[..., None] * (t - tb)
    loglik = (y * eta - np.logaddexp(0.0, eta)).sum(-1)
    raw0 = G0 - B1 * tb
    logpost = loglik - (raw0**2 + B1**2) / (2 * prior_sd**2)
    w = np.exp(logpost - logpost.max())
    w /= w.sum()
    mean0 = float((w * raw0).sum())
    mean1 = float((w * B1).sum())
    sd0 = float(np.sqrt((w * (raw0 - mean0) ** 2).sum()))
    sd1 = float(np.sqrt((w * (B1 - mean1) ** 2).sum()))
    return mean0, mean1, sd0, sd1


@pytest.mark.parametrize("center", [False, True])
def test_challenger_batched_rows_equal_single_calls(center):
    target = make_challenger_logistic(10.0, center=center)
    rng = np.random.default_rng(52)
    special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1e300]
    batch = np.concatenate(
        [
            rng.standard_normal((25_000, 2)) * (3.0, 0.2),  # the posterior's scale
            rng.standard_normal((25_000, 2)) * (300.0, 20.0),  # saturated logits
            rng.standard_normal((2_000, 2)) * 1e200,
            np.array(list(itertools.product(special, repeat=2))),  # 49 rows, most non-finite
        ]
    )
    with np.errstate(invalid="ignore", over="ignore"):
        values = np.concatenate([target.log_density(block) for block in np.array_split(batch, len(batch) // 4)])
        singles = np.array([target.log_density(row.copy()) for row in batch])
    assert values.shape == (len(batch),)
    assert not np.all(np.isfinite(singles))
    assert np.array_equal(values, singles, equal_nan=True)  # bit for bit, not approximately


def test_challenger_posterior_slope_negative_by_quadrature():
    mean0, mean1, sd0, sd1 = challenger_quadrature_moments()
    assert mean1 < 0.0
    # frozen oracle values, converged to the digits shown
    assert_allclose([mean0, mean1], [11.8068, -0.185799], atol=5e-4)
    assert_allclose([sd0, sd1], [5.3131, 0.078048], atol=5e-4)


def test_challenger_prior_sd_validation():
    with pytest.raises(ValueError):
        make_challenger_logistic(0.0)


# --- Discrete targets -----------------------------------------------------


def test_ising_uniform_when_uncoupled():
    t = make_ising_chain(2, 0.0)
    vals = {t.log_density(np.array(s)) for s in itertools.product((-1, 1), repeat=2)}
    assert vals == {0.0}


def test_ising_single_bond():
    t = make_ising_chain(2, 1.0)
    assert t.log_density(np.array([1.0, 1.0])) == 1.0
    assert t.log_density(np.array([1.0, -1.0])) == -1.0


def test_ising_enumeration_oracle():
    t = make_ising_chain(3, 0.5)
    states = list(itertools.product((-1.0, 1.0), repeat=3))
    weights = np.array([math.exp(t.log_density(np.array(s))) for s in states])
    assert np.all(weights > 0)
    # brute-force normalizing constant: 2 bonds, sum over 8 states
    expected = sum(
        math.exp(0.5 * (s[0] * s[1] + s[1] * s[2])) for s in states
    )
    assert_allclose(weights.sum(), expected, rtol=1e-14)


def test_lattice_log_ratio_and_symmetry():
    t = make_lattice_target(1, 1.0)
    assert_allclose(t.log_density(np.array([0.0])) - t.log_density(np.array([3.0])), 3.0)
    t2 = make_lattice_target(2, 1.0)
    for x in ([1.0, -2.0], [0.0, 4.0], [-3.0, -3.0]):
        x = np.array(x)
        assert t2.log_density(x) == t2.log_density(-x)
        assert t2.log_density(x) == t2.log_density(np.abs(x))


def test_lattice_truncated_masses_finite_sum_oracle():
    t = make_lattice_target(1, 1.0)
    xs = np.arange(-20, 21, dtype=float)
    w = np.exp([t.log_density(np.array([x])) for x in xs])
    w /= w.sum()
    # geometric tails: direct summation of exp(-|x|) over the box
    z = sum(math.exp(-abs(x)) for x in range(-20, 21))
    assert_allclose(w[xs == 0.0][0], 1.0 / z, rtol=1e-12)
    assert_allclose(w[xs == 3.0][0], math.exp(-3.0) / z, rtol=1e-12)


def test_lattice_validation():
    with pytest.raises(ValueError):
        make_lattice_target(2, 0.0)
    with pytest.raises(ValueError):
        make_lattice_target(0, 1.0)
