import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.stats import norm

from tmcmc.bounds import (
    AcceptanceBoundInputs,
    hmc_ar_bounds,
    rwmh_ar_asymp,
    rwmh_ar_bounds,
    tmcmc_ar_bounds,
)


def test_inputs_validation():
    with pytest.raises(ValueError):
        AcceptanceBoundInputs(k=0, m_k=1.0, M_k=1.0)
    with pytest.raises(ValueError):
        AcceptanceBoundInputs(k=2, m_k=2.0, M_k=1.0)
    with pytest.raises(ValueError):
        AcceptanceBoundInputs(k=2, m_k=1.0, M_k=1.0, psi1=0.6, psi2=0.5)
    with pytest.raises(ValueError):
        AcceptanceBoundInputs(k=2, m_k=1.0, M_k=1.0, pi_mode=0.0)
    with pytest.raises(ValueError):
        AcceptanceBoundInputs(k=2, m_k=1.0, M_k=1.0, lam=-1.0)
    # NaN fails every comparison, so a test for <= 0 or < 0 alone would pass it on to a NaN bound
    for field, value in (("pi_mode", math.nan), ("pi_mode", math.inf), ("dt", math.nan), ("lam", math.nan),
                         ("lam", math.inf), ("k", 10.5), ("k", True)):
        with pytest.raises(ValueError, match=f"^{field} must"):
            AcceptanceBoundInputs(**{"k": 10, "m_k": 1.0, "M_k": 2.0, field: value})
    for args, field in (((10, math.nan), "M_k"), ((10, 1.0, math.nan), "pi_mode"), ((10.5, 1.0), "k")):
        with pytest.raises(ValueError, match=f"^{field} must"):
            rwmh_ar_asymp(*args)


def test_inputs_refuse_an_infinite_curvature():
    # inf passes 0 < m_k <= M_k, and an infinite M_k gave NaN bounds
    for m_k, M_k, field in ((1.0, math.inf, "M_k"), (math.inf, math.inf, "m_k"), (math.nan, 1.0, "m_k")):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            AcceptanceBoundInputs(k=10, m_k=m_k, M_k=M_k)


def test_rwmh_asymp_closed_form_k2():
    # (2 pi)^{1} * (1 - Phi(1)) at k = 2, M_k = 1
    expected = 2.0 * math.pi * (1.0 - norm.cdf(1.0))
    assert_allclose(math.exp(rwmh_ar_asymp(2, 1.0)), expected, rtol=1e-12)


def test_rwmh_asymp_monotone_decreasing_in_k():
    # With the iid-normal mode density pi(x*) = (2 pi)^{-k/2} the prefactor is
    # exactly 1, so the evaluator reduces to the shrinking Gaussian tail.
    # (Without pi(x*) the unnormalized (2 pi)^{k/2} prefactor dominates and the
    # printed expression grows with k.)
    vals = [rwmh_ar_asymp(k, 1.0, pi_mode=(2 * math.pi) ** (-k / 2)) for k in range(2, 60)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_far_tail_matches_arbitrary_precision_reference():
    # 1 - Phi(sqrt(k/2)) at k = 200 against a 50-digit reference
    mpmath.mp.dps = 50
    ref = float(0.5 * mpmath.erfc(mpmath.sqrt(100.0) / mpmath.sqrt(2.0)))
    from scipy.special import log_ndtr

    ours = math.exp(float(log_ndtr(-math.sqrt(100.0))))
    assert abs(ours - ref) / ref < 1e-12


def test_rwmh_bounds_match_quadrature_oracle():
    # independent numeric evaluation of the same displayed expression:
    # the Gaussian upper tail is integrated directly instead of via log_ndtr
    inp = AcceptanceBoundInputs(k=10, m_k=1.0, M_k=1.0, psi1=0.01, psi2=0.01,
                                pi_mode=(2 * math.pi) ** -5)
    pair = rwmh_ar_bounds(inp)
    k, M = 10, 1.0
    arg_lower = (math.log(1 - 0.01) + 0.5 * k * M) / math.sqrt(0.5 * k * (2 * M + M * M))
    tail, _ = integrate.quad(norm.pdf, arg_lower, np.inf)
    expected_lower = (2 * math.pi) ** (k / 2) * inp.pi_mode * tail
    assert_allclose(math.exp(pair.log_lower), expected_lower, rtol=1e-9)
    arg_upper = (math.log(0.01) + 0.5 * k * M) / math.sqrt(0.5 * k * (2 * M + M * M))
    tail_u, _ = integrate.quad(norm.pdf, arg_upper, np.inf)
    assert_allclose(math.exp(pair.log_upper), (2 * math.pi) ** 5 * inp.pi_mode * tail_u, rtol=1e-9)


def test_rwmh_bounds_equal_curvature_argument_form():
    # with m = M the drift/spread reduce to (log(1-psi2) + kM/2)/sqrt(k(2M+M^2)/2)
    inp = AcceptanceBoundInputs(k=7, m_k=2.5, M_k=2.5, psi2=0.03, psi1=0.01)
    pair = rwmh_ar_bounds(inp)
    from scipy.special import log_ndtr

    arg = (math.log(1 - 0.03) + 7 * 2.5 / 2) / math.sqrt(7 * (2 * 2.5 + 2.5**2) / 2)
    expected = 3.5 * math.log(2 * math.pi) - 7 * math.log(2.5) + float(log_ndtr(-arg))
    assert_allclose(pair.log_lower, expected, rtol=1e-13)


valid_inputs = st.builds(
    lambda k, m, gap, p1, p2, dt, lam_frac: AcceptanceBoundInputs(
        k=k,
        m_k=m,
        M_k=m * (1.0 + gap),
        psi1=min(p1, (1.0 - p2) * 0.9),
        psi2=p2,
        pi_mode=1.0,
        dt=dt,
        lam=lam_frac * k,
    ),
    k=st.integers(min_value=1, max_value=300),
    m=st.floats(min_value=1e-3, max_value=1e3),
    gap=st.floats(min_value=0.0, max_value=3.0),
    p1=st.floats(min_value=1e-4, max_value=0.3),
    p2=st.floats(min_value=1e-4, max_value=0.3),
    dt=st.floats(min_value=1e-3, max_value=2.0),
    lam_frac=st.floats(min_value=0.0, max_value=50.0),
)


@settings(max_examples=300, deadline=None)
@given(valid_inputs)
def test_bound_pairs_are_ordered(inp):
    r = rwmh_ar_bounds(inp)
    assert r.log_lower <= r.log_upper + 1e-12
    t = tmcmc_ar_bounds(inp)
    assert t.log_lower <= t.log_upper + 1e-12
    h = hmc_ar_bounds(inp)
    assert h.log_lower <= h.log_upper + 1e-12


def test_tmcmc_lower_clamps_when_curvature_gap_dominates():
    inp = AcceptanceBoundInputs(k=2, m_k=0.5, M_k=10.0, psi2=0.01, psi1=0.01)
    pair = tmcmc_ar_bounds(inp)
    assert pair.lower_clamped
    assert pair.log_lower == -math.inf
    assert not pair.upper_clamped
    assert math.isfinite(pair.log_upper)


def test_tmcmc_reduces_to_displayed_form_when_curvatures_match():
    from scipy.special import erf

    inp = AcceptanceBoundInputs(k=25, m_k=4.0, M_k=4.0, psi1=0.02, psi2=0.05)
    pair = tmcmc_ar_bounds(inp)
    pref = 12.5 * math.log(2 * math.pi) - 25 * math.log(4.0)
    arg = math.sqrt(-2.0 / (25 * 4.0) * math.log(1 - 0.05))
    assert_allclose(pair.log_lower, pref + math.log(erf(arg / math.sqrt(2))), rtol=1e-12)


@pytest.mark.parametrize("psi1, psi2", [(0.01, 0.01), (1e-4, 0.3), (0.3, 1e-4), (0.05, 0.2)])
def test_rwmh_bounds_are_hmc_bounds_at_unit_step_without_drift(psi1, psi2):
    for k in (1, 2, 3, 10, 50, 100, 500, 1000):
        for m, M in ((1.0, 1.0), (0.5, 2.0), (2.0, 30.0), (0.01, 0.3)):
            inp = AcceptanceBoundInputs(k=k, m_k=m, M_k=M, psi1=psi1, psi2=psi2, pi_mode=0.7, dt=1.0, lam=0.0)
            r, h = rwmh_ar_bounds(inp), hmc_ar_bounds(inp)
            assert (r.log_lower, r.log_upper) == (h.log_lower, h.log_upper)


def test_hmc_small_lambda_asymptote_equals_rwmh_asymptote():
    inp = AcceptanceBoundInputs(k=40, m_k=2.0, M_k=3.0, dt=0.25, lam=0.0)
    h = hmc_ar_bounds(inp)
    assert h.log_asymp_small_lambda == rwmh_ar_asymp(40, 3.0)


def test_hmc_large_lambda_asymptote_decays_faster():
    # with lam/k large the HMC tail argument grows, so the asymptote drops
    small = hmc_ar_bounds(AcceptanceBoundInputs(k=50, m_k=1.0, M_k=1.0, dt=0.5, lam=1.0))
    large = hmc_ar_bounds(AcceptanceBoundInputs(k=50, m_k=1.0, M_k=1.0, dt=0.5, lam=5000.0))
    assert large.log_asymp_large_lambda < small.log_asymp_large_lambda


def test_hmc_requires_dt():
    with pytest.raises(ValueError):
        hmc_ar_bounds(AcceptanceBoundInputs(k=2, m_k=1.0, M_k=1.0))


def test_tmcmc_vs_rwmh_ratio_grows_with_dimension():
    # polynomial vs Gaussian-tail decay: the log-ratio of the additive-kernel
    # lower bound to the random-walk upper bound increases in k for M_k = k^3
    log_ratio = []
    for k in range(10, 201, 10):
        curv = float(k) ** 3
        inp = AcceptanceBoundInputs(k=k, m_k=curv, M_k=curv)
        log_ratio.append(tmcmc_ar_bounds(inp).log_lower - rwmh_ar_bounds(inp).log_upper)
    diffs = np.diff(log_ratio)
    assert np.all(diffs > 0)
