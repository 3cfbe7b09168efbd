"""Correctness harness: balance certificates, reachability, integrator checks.

Every check returns a :class:`Verdict` with a numeric violation and its
tolerance; negative controls (deliberately broken variants) are part of the
suites so the harness demonstrably detects violations rather than merely
confirming passes.  Continuous kernels are certified on grid-quantized
surrogates, so the certificates are exact rather than quadrature
approximations.  :func:`build_grid_tmcmc_matrix` lists every surrogate's moves
on a 1-D or square 2-D grid, with the sampling kernels' own ``_move_log_ratio``,
for ``discrete_kernels._translation_matrix``, the lattice kernel's builder too;
the 1-D random-walk surrogate is the additive p = 1/2 matrix.  The dependent-z
certificate draws ``(p, q)`` by the kernel's own ``_softmax_moves``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .baseline_kernels import HmcConfig, PhasePoint, _score, leapfrog
from .chain import _check_count, chain_rng, run_chain
from .discrete_kernels import (
    _translation_matrix,
    ising_transition_matrix,
    lattice_transition_matrix,
    strongly_connected_classes,
)
from .targets import Target, make_iid_gaussian, make_ising_chain, make_lattice_target
from .transform_kernels import (
    DependentZConfig,
    TmcmcConfig,
    _log_tables,
    _move_log_ratio,
    _softmax_moves,
    additive_transformation,
    make_additive_tmcmc_kernel,
)

__all__ = [
    "Verdict",
    "ROTATION_MATRICES",
    "check_detailed_balance_exact",
    "check_stationarity",
    "check_aperiodicity_witness",
    "check_irreducibility",
    "build_grid_tmcmc_matrix",
    "check_detailed_balance_discretized",
    "check_dependent_z_balance",
    "check_two_step_reachability",
    "check_leapfrog_structure",
    "check_energy_error_scaling",
    "perturb_kernel_matrix",
    "run_continuous_db_suite",
    "run_structure_suite",
    "run_discrete_suite",
    "suite_ok",
    "verdicts_to_json",
    "format_verdict_table",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification check; passes iff the violation is in tolerance."""

    check_name: str
    max_violation: float
    tolerance: float
    seed: Optional[int] = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    @property
    def negative_control(self) -> bool:
        return bool(self.details.get("negative_control", False))

    @property
    def expected_failure(self) -> bool:
        return bool(self.details.get("expected_failure", False))

    @property
    def status(self) -> str:
        """The verdict's status; only ``FAIL`` and ``UNEXPECTED PASS`` fail a suite.

        A negative control fails only above its tolerance (a NaN violation
        detected nothing).  Expected failures (documented reducible
        configurations) count as ok.
        """
        if self.negative_control:
            return "ok (negative control)" if self.max_violation > self.tolerance else "UNEXPECTED PASS"
        if self.passed:
            return "pass"
        return "expected failure" if self.expected_failure else "FAIL"

    def to_json_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "passed": self.passed,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }
        for key in ("negative_control", "expected_failure"):
            if self.details.get(key):
                out[key] = True
        return out


# The two-step direction matrices of the additive kernel in the plane, the eight
# nonsingular 2x2 sign matrices: columns are the per-step sign vectors, so a
# two-step move with innovations (e1, e2) displaces the state by M @ (e1, e2).
ROTATION_MATRICES = tuple(
    m for m in (np.reshape(signs, (2, 2)) for signs in itertools.product((1.0, -1.0), repeat=4))
    if m[0, 0] * m[1, 1] != m[0, 1] * m[1, 0]
)


def _validate_stochastic(K: np.ndarray) -> None:
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("kernel matrix must be square")
    # Each guard fails on NaN.
    if not np.all(K >= -1e-15):
        raise ValueError("kernel matrix has negative or NaN entries")
    err = np.abs(K.sum(axis=1) - 1.0).max()
    if not err <= 1e-9:
        raise ValueError(f"kernel matrix rows must sum to 1, max deviation {err}")


def check_detailed_balance_exact(
    K: np.ndarray,
    pi: np.ndarray,
    tolerance: float = 1e-10,
    check_name: str = "detailed-balance-exact",
    seed: Optional[int] = None,
    details: Optional[dict] = None,
) -> Verdict:
    """``max |pi_i K_ij - pi_j K_ji|`` against the tolerance."""
    _validate_stochastic(K)
    pi = np.asarray(pi, dtype=float)
    if not (np.all(pi > 0.0) and abs(pi.sum() - 1.0) <= 1e-9):
        raise ValueError("pi must be positive and sum to 1")
    flow = pi[:, None] * K
    violation = float(np.abs(flow - flow.T).max())
    return Verdict(check_name, violation, tolerance, seed, details or {})


def check_stationarity(
    K: np.ndarray,
    pi: np.ndarray,
    tolerance: float = 1e-10,
    check_name: str = "stationarity",
    seed: Optional[int] = None,
) -> Verdict:
    """``max |pi K - pi|``, asserted independently of detailed balance."""
    _validate_stochastic(K)
    pi = np.asarray(pi, dtype=float)
    violation = float(np.abs(pi @ K - pi).max())
    return Verdict(check_name, violation, tolerance, seed)


def check_aperiodicity_witness(
    K: np.ndarray, check_name: str = "aperiodicity-witness"
) -> Verdict:
    """At least one strictly positive diagonal entry (rejection mass)."""
    diag_max = float(np.diag(K).max())
    violation = 0.0 if diag_max > 1e-14 else 1.0
    return Verdict(check_name, violation, 0.5, None, {"diag_max": diag_max})


def check_irreducibility(
    K: np.ndarray,
    expect_classes: int = 1,
    check_name: str = "irreducibility",
    expected_failure: bool = False,
) -> Verdict:
    """Strong connectivity of the kernel graph; violation counts extra classes."""
    n_classes, labels = strongly_connected_classes(K)
    details: dict = {"n_classes": n_classes, "labels": labels.tolist()}
    if expected_failure:
        details["expected_failure"] = True
    violation = float(max(0, n_classes - expect_classes))
    return Verdict(check_name, violation, 0.0, None, details)


def _grid_log_pi(n_states: int, half_width: float = 2.5) -> np.ndarray:
    if n_states > 30:
        raise ValueError(f"grid surrogate limited to 30 states, got {n_states}")
    xs = np.linspace(-half_width, half_width, n_states)
    return -0.5 * xs**2


def _normalized(log_w: np.ndarray) -> np.ndarray:
    """``exp(log_w)`` scaled to sum to one, flattened to the state ordering."""
    w = np.exp(np.ravel(log_w) - np.max(log_w))
    return w / w.sum()


def _jump_weights(jump_weights: Sequence[float]) -> np.ndarray:
    w = np.asarray(jump_weights, dtype=float)
    if np.any(w < 0.0) or not math.isclose(w.sum(), 1.0):
        raise ValueError("jump_weights must be a probability vector")
    return w


def build_grid_tmcmc_matrix(
    log_pi: np.ndarray,
    jump_weights: Sequence[float],
    p: float,
    q: float,
    move_ratio: bool = True,
) -> np.ndarray:
    """Grid quantization of the ternary-move additive kernel.

    States are a 1-D lattice or a square n-by-n lattice (row-major).  Each
    transition draws one innovation of 1..J grid spacings with the given
    weights and a forward/backward/no-change pattern per coordinate with
    probabilities (p, q, 1 - p - q); patterns of zero probability are skipped
    and the all-zero pattern is redrawn, so proposal probabilities carry that
    renormalization.  The move-ratio term is the sampling kernels'
    ``_move_log_ratio``; ``move_ratio=False`` drops it, a deliberate negative
    control that breaks balance whenever ``p != q``.  In 1-D with
    ``p = q = 1/2`` this is the random-walk surrogate with symmetric +-j jumps.
    """
    log_pi = np.asarray(log_pi, dtype=float)
    n, d = log_pi.shape[0], log_pi.ndim
    if log_pi.shape != (n,) * d or d > 2 or log_pi.size > 30:
        raise ValueError("grid surrogate needs a 1-D or square 2-D grid of at most 30 states")
    w = _jump_weights(jump_weights)
    if not (p >= 0.0 and q >= 0.0 and 0.0 < p + q <= 1.0 + 1e-12):
        raise ValueError("need p, q >= 0 with 0 < p + q <= 1")
    move_prob = {1: p, -1: q, 0: max(0.0, 1.0 - p - q)}
    renorm = 1.0 - math.prod(move_prob[0] for _ in range(d))  # the all-zero pattern is redrawn
    log_p, log_q = _log_tables(np.full(d, p), np.full(d, q))
    moves = []
    for pattern in itertools.product((1, -1, 0), repeat=d):
        if not any(pattern) or not all(move_prob[zi] > 0.0 for zi in pattern):
            continue
        z = np.array(pattern)
        # Same acceptance-ratio code path as the sampling kernels.
        ratio = _move_log_ratio(z, log_p, log_q) if move_ratio else 0.0
        probs = [math.prod(map(move_prob.get, pattern), start=wj) / renorm for wj in w]
        moves += [(j * z, prob, ratio) for j, prob in enumerate(probs, start=1)]
    return _translation_matrix(log_pi, moves)


def check_detailed_balance_discretized(
    kind: str = "additive-tmcmc",
    n_states: int = 21,
    jump_weights: Sequence[float] = (0.5, 0.3, 0.2),
    p: float = 0.5,
    move_ratio: bool = True,
    tolerance: float = 1e-10,
    negative_control: bool = False,
) -> Verdict:
    """Exact balance certificate for a grid-quantized continuous kernel."""
    log_pi = _grid_log_pi(n_states)
    if kind == "additive-tmcmc":
        K = build_grid_tmcmc_matrix(log_pi, jump_weights, p, 1.0 - p, move_ratio=move_ratio)
    elif kind == "rwmh":
        K = build_grid_tmcmc_matrix(log_pi, jump_weights, 0.5, 0.5)
    else:
        raise ValueError(f"unknown grid surrogate kind {kind!r}")
    details = {"kind": kind, "n_states": n_states, "p": p, "move_ratio": move_ratio}
    if negative_control:
        details["negative_control"] = True
    return check_detailed_balance_exact(
        K, _normalized(log_pi), tolerance, check_name=f"detailed-balance-grid-{kind}", details=details
    )


def check_dependent_z_balance(
    cfg: DependentZConfig,
    n_states: int = 15,
    jump_weights: Sequence[float] = (0.6, 0.4),
    mc_size: int = 200_000,
    seed: int = 0,
    move_ratio: bool = True,
    tolerance: float = 1e-12,
    negative_control: bool = False,
) -> Verdict:
    """Monte Carlo balance certificate for the dependent-move-probability kernel.

    The (p, q) pair is integrated out by simulation with common random
    numbers across both directions of every state pair, so each sampled
    conditional kernel satisfies balance identically and the estimator's only
    slack is roundoff; the reported violation is the excess of the mean flow
    imbalance over four Monte Carlo standard errors.  The ``(p, q)`` law is
    the kernel's ``_softmax_moves`` and the move-probability ratio its
    ``_move_log_ratio``; dropping the ratio (``move_ratio=False``) breaks
    this decisively.
    """
    _check_count("mc_size", mc_size, 100_000)  # fewer draws leave no usable error band
    log_pi = _grid_log_pi(n_states)
    pi = _normalized(log_pi)
    w = _jump_weights(jump_weights)

    mus = (np.atleast_1d(np.asarray(m, dtype=float)) for m in (cfg.mu_1, cfg.mu_2, cfg.mu_3))
    draws = tuple(zip(mus, cfg.factors()))
    if any(mu.size != 1 or L.size != 1 for mu, L in draws):
        raise ValueError("the balance certificate runs on a 1-D grid; config must have k = 1")
    # The kernel's own law, one draw per column of (3, 1, mc_size) noise (the stream the verdicts
    # were fixed on), passed as its (mc_size, 3, 1) view; the ratio takes (k, n) tables.
    noise = chain_rng(seed).standard_normal((3, 1, mc_size)).transpose(2, 0, 1)
    p_s, q_s = (v.T for v in _softmax_moves(draws, noise))
    # Same move-ratio code as the sampling kernels, one ratio per draw.
    log_p, log_q = _log_tables(p_s, q_s)
    fwd_ratio = _move_log_ratio(np.ones(1), log_p, log_q) if move_ratio else 0.0
    rev_ratio = _move_log_ratio(-np.ones(1), log_p, log_q) if move_ratio else 0.0

    worst = 0.0
    worst_excess = 0.0
    for j, wj in enumerate(w, start=1):
        for i in range(n_states - j):
            t = i + j
            # forward i -> t uses z = +1, reverse t -> i uses z = -1
            fwd = wj * p_s * np.minimum(1.0, np.exp(fwd_ratio) * pi[t] / pi[i])
            rev = wj * q_s * np.minimum(1.0, np.exp(rev_ratio) * pi[i] / pi[t])
            diff = pi[i] * fwd - pi[t] * rev
            mean = float(diff.mean())
            se = float(diff.std(ddof=1) / math.sqrt(mc_size))
            worst = max(worst, abs(mean))
            worst_excess = max(worst_excess, abs(mean) - 4.0 * se)
    details = {"max_abs_mean_flow_imbalance": worst, "mc_size": mc_size, "move_ratio": move_ratio}
    if negative_control:
        details["negative_control"] = True
    return Verdict(
        "detailed-balance-dependent-z",
        max(0.0, worst_excess),
        tolerance,
        seed,
        details,
    )


def check_two_step_reachability(
    seed: int = 0,
    n_random: int = 200,
    chain_iters: int = 10_000,
    tolerance: float = 1e-12,
) -> Verdict:
    """Constructive planar reachability of the additive kernel.

    For each of the eight direction matrices, composing two single-innovation
    moves whose sign vectors are the matrix columns must displace the state by
    ``M @ (e1, e2)``; a simulated chain from the origin must additionally
    visit all four open quadrants.
    """
    rng = chain_rng(seed)
    forward = additive_transformation().forward
    worst = 0.0
    for _ in range(n_random):
        x = rng.standard_normal(2)
        eps = rng.random(2) * 3.0 + 1e-3
        for M in ROTATION_MATRICES:
            end = forward(forward(x, eps[0], M[:, 0]), eps[1], M[:, 1])
            worst = max(worst, float(np.abs(end - x - M @ eps).max()))

    target = make_iid_gaussian(2)
    kernel = make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=1.0))
    trace = run_chain(kernel, np.zeros(2), chain_iters, rng)
    sx, sy = np.sign(trace.states[:, 0]), np.sign(trace.states[:, 1])
    quadrants = {(int(a), int(b)) for a, b in zip(sx, sy) if a != 0 and b != 0}
    missing = 4 - len(quadrants)
    details = {"displacement_error": worst, "quadrants_visited": sorted(quadrants)}
    return Verdict(
        "two-step-reachability",
        max(worst, float(missing)),
        tolerance,
        seed,
        details,
    )


def _euler_flow(start: PhasePoint, cfg: HmcConfig, target: Target) -> PhasePoint:
    # Forward Euler: deliberately non-symplectic, used as a negative control.
    x, p = np.asarray(start.x, dtype=float), np.asarray(start.p, dtype=float)
    inv_m = 1.0 / cfg.mass_vector(x.size)
    score = _score(target)
    for _ in range(cfg.L):
        x, p = x + cfg.dt * inv_m * p, p + cfg.dt * np.asarray(score(x), dtype=float)
    return PhasePoint(x, p)


def _numeric_flow_jacobian(flow, start: PhasePoint, cfg: HmcConfig, target: Target, h: float = 1e-5):
    k = start.x.size
    dim = 2 * k

    def apply(v: np.ndarray) -> np.ndarray:
        out = flow(PhasePoint(v[:k], v[k:]), cfg, target)
        return np.concatenate([out.x, out.p])

    v0 = np.concatenate([start.x, start.p])
    J = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        J[:, j] = (apply(v0 + e) - apply(v0 - e)) / (2.0 * h)
    return J


def check_leapfrog_structure(
    target: Target,
    grid: Sequence[tuple[int, float]] = ((1, 0.05), (5, 0.1), (10, 0.2)),
    n_points: int = 20,
    seed: int = 0,
    integrator: str = "leapfrog",
) -> Verdict:
    """Reversibility (tol 1e-10) and unit phase-volume Jacobian (tol 1e-6).

    Aggregated as the max ratio of each raw error to its own tolerance, so the
    verdict tolerance is 1.  ``integrator='euler'`` swaps in a non-symplectic
    scheme as a negative control; any other name raises ``ValueError``.
    """
    if target.dim > 3:
        raise ValueError("numeric Jacobian determinant check is limited to dim <= 3")
    flows = {"leapfrog": leapfrog, "euler": _euler_flow}
    if integrator not in flows:
        raise ValueError(f"integrator must be 'leapfrog' or 'euler', got {integrator!r}")
    flow = flows[integrator]
    rng = chain_rng(seed)
    rev_tol, jac_tol = 1e-10, 1e-6
    rev_err = 0.0
    jac_err = 0.0
    for L, dt in grid:
        cfg = HmcConfig(L=int(L), dt=float(dt))
        for _ in range(n_points):
            start = PhasePoint(rng.standard_normal(target.dim), rng.standard_normal(target.dim))
            end = flow(start, cfg, target)
            back = flow(PhasePoint(end.x, -end.p), cfg, target)
            rev_err = max(
                rev_err,
                float(np.abs(back.x - start.x).max()),
                float(np.abs(back.p + start.p).max()),
            )
        start = PhasePoint(rng.standard_normal(target.dim), rng.standard_normal(target.dim))
        det = float(np.linalg.det(_numeric_flow_jacobian(flow, start, cfg, target)))
        jac_err = max(jac_err, abs(det - 1.0))
    details = {
        "reversibility_error": rev_err,
        "reversibility_tolerance": rev_tol,
        "jacobian_error": jac_err,
        "jacobian_tolerance": jac_tol,
        "integrator": integrator,
    }
    if integrator != "leapfrog":
        details["negative_control"] = True
    violation = max(rev_err / rev_tol, jac_err / jac_tol)
    return Verdict("leapfrog-structure", violation, 1.0, seed, details)


def check_energy_error_scaling(
    k: int = 10,
    L: int = 10,
    dt: float = 0.1,
    n_points: int = 400,
    seed: int = 0,
    band: tuple[float, float] = (3.5, 4.5),
) -> Verdict:
    """Halving dt (doubling L) should shrink the median |Delta H| about 4x."""
    target = make_iid_gaussian(k)

    def median_dh(cfg: HmcConfig) -> float:
        # Same phase points for both resolutions: the ratio is a paired test.
        gen = chain_rng(seed, 7)
        errs = []
        for _ in range(n_points):
            x = gen.standard_normal(k)
            p = gen.standard_normal(k)
            end = leapfrog(PhasePoint(x, p), cfg, target)
            h0 = 0.5 * float(x @ x) + 0.5 * float(p @ p)
            h1 = 0.5 * float(end.x @ end.x) + 0.5 * float(end.p @ end.p)
            errs.append(abs(h1 - h0))
        return float(np.median(errs))

    coarse = median_dh(HmcConfig(L=L, dt=dt))
    fine = median_dh(HmcConfig(L=2 * L, dt=dt / 2.0))
    ratio = coarse / fine
    mid = 0.5 * (band[0] + band[1])
    violation = abs(ratio - mid)
    return Verdict(
        "leapfrog-energy-error-scaling",
        violation,
        0.5 * (band[1] - band[0]),
        seed,
        {"median_dh_coarse": coarse, "median_dh_fine": fine, "ratio": ratio},
    )


def perturb_kernel_matrix(K: np.ndarray, delta: float = 1e-3) -> np.ndarray:
    """Shift mass into one off-diagonal entry; breaks balance by about delta.

    The perturbed row is chosen near the middle of the state ordering (where
    the certified targets put most of their mass), so the flow imbalance is of
    the same order as ``delta``.
    """
    K = np.asarray(K, dtype=float).copy()
    n = K.shape[0]
    i, j = n // 2, n // 2 - 1
    K[i, j] += delta
    K[i, i] -= delta
    if K[i, i] < 0.0:
        raise ValueError("perturbation too large for this kernel")
    return K


def _planar_general_kernel_verdict() -> Verdict:
    # 5x5 grid, ternary moves with no-change probability 0.3 per coordinate
    xs = np.linspace(-2.0, 2.0, 5)
    log_pi = -0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2)
    K = build_grid_tmcmc_matrix(log_pi, (0.6, 0.4), p=0.35, q=0.35)
    return check_detailed_balance_exact(
        K, _normalized(log_pi), check_name="detailed-balance-grid-general-2d", details={"n_states": 25}
    )


def run_continuous_db_suite(seed: int = 0, corrupt_acceptance: bool = False) -> list[Verdict]:
    """Balance certificates for the continuous kernels on grid surrogates."""
    move_ratio = not corrupt_acceptance
    verdicts = [
        check_detailed_balance_discretized("additive-tmcmc", p=0.5, move_ratio=move_ratio),
        check_detailed_balance_discretized("additive-tmcmc", p=0.7, move_ratio=move_ratio),
        check_detailed_balance_discretized("rwmh"),
        _planar_general_kernel_verdict(),
        check_dependent_z_balance(
            DependentZConfig(
                mu_1=np.zeros(1), mu_2=np.full(1, 0.4), mu_3=np.full(1, -0.3),
                sigma_1=np.ones(1), sigma_2=np.full(1, 0.5), sigma_3=np.full(1, 2.0),
            ),
            seed=seed,
            move_ratio=move_ratio,
        ),
        # Negative controls: asymmetric moves without the ratio correction, and
        # a hand-corrupted kernel matrix.
        check_detailed_balance_discretized(
            "additive-tmcmc", p=0.7, move_ratio=False, negative_control=True
        ),
        check_dependent_z_balance(
            DependentZConfig(
                mu_1=np.full(1, 0.5), mu_2=np.zeros(1), mu_3=np.zeros(1),
                sigma_1=np.ones(1), sigma_2=np.ones(1), sigma_3=np.ones(1),
            ),
            seed=seed + 1,
            move_ratio=False,
            negative_control=True,
        ),
    ]
    log_pi = _grid_log_pi(21)
    K = perturb_kernel_matrix(build_grid_tmcmc_matrix(log_pi, (0.5, 0.3, 0.2), 0.5, 0.5))
    verdicts.append(
        check_detailed_balance_exact(
            K, _normalized(log_pi), check_name="detailed-balance-corrupted", details={"negative_control": True}
        )
    )
    return verdicts


def run_structure_suite(seed: int = 0) -> list[Verdict]:
    """Leapfrog structure, energy scaling, and planar reachability."""
    return [
        check_leapfrog_structure(make_iid_gaussian(2), seed=seed),
        check_leapfrog_structure(make_iid_gaussian(2), seed=seed, integrator="euler"),
        check_energy_error_scaling(seed=seed),
        check_two_step_reachability(seed=seed),
    ]


def run_discrete_suite(
    seed: int = 0,
    lattice_r: float = 0.3,
    jump_scale: float = 1.5,
    corrupt_acceptance: bool = False,
) -> list[Verdict]:
    """Exact certificates for the spin and lattice kernels.

    ``lattice_r = 0`` is the deliberately reducible configuration; its
    irreducibility verdict fails with the ``expected_failure`` marker set and
    records the parity split.
    """
    verdicts: list[Verdict] = []
    for k, coupling, p in ((2, 0.0, 0.5), (3, 0.5, 0.5), (4, 0.3, 0.65)):
        target = make_ising_chain(k, coupling)
        states, K = ising_transition_matrix(target, p)
        if corrupt_acceptance:
            K = perturb_kernel_matrix(K)
        pi = _normalized(np.array([target.log_density(s) for s in states]))
        name = f"ising-k{k}"
        details = {"negative_control": True} if corrupt_acceptance else {}
        verdicts.append(
            check_detailed_balance_exact(K, pi, check_name=f"detailed-balance-{name}", details=dict(details))
        )
        verdicts.append(check_stationarity(K, pi, check_name=f"stationarity-{name}"))
        verdicts.append(check_aperiodicity_witness(K, check_name=f"aperiodicity-{name}"))
        verdicts.append(check_irreducibility(K, check_name=f"irreducibility-{name}"))

    # Innovation-grid invariance of the spin kernel.
    target = make_ising_chain(3, 0.5)
    _, K1 = ising_transition_matrix(target, 0.5, eps_values=(1.5,))
    _, K2 = ising_transition_matrix(target, 0.5, eps_values=(2.0, 7.25, 31.0))
    verdicts.append(
        Verdict(
            "ising-innovation-grid-invariance",
            float(np.abs(K1 - K2).max()),
            0.0,
            None,
            {"grids": [[1.5], [2.0, 7.25, 31.0]]},
        )
    )

    lat1 = make_lattice_target(1, 1.0)
    states1, K_lat1 = lattice_transition_matrix(lat1, r=1.0, jump_scale=jump_scale, box_radius=5)
    if corrupt_acceptance:
        K_lat1 = perturb_kernel_matrix(K_lat1)
    pi1 = _normalized(np.array([lat1.log_density(s) for s in states1]))
    details = {"negative_control": True} if corrupt_acceptance else {}
    verdicts.append(
        check_detailed_balance_exact(
            K_lat1, pi1, check_name="detailed-balance-lattice-k1", details=dict(details)
        )
    )
    verdicts.append(check_stationarity(K_lat1, pi1, check_name="stationarity-lattice-k1"))

    lat2 = make_lattice_target(2, 1.0)
    states2, K_lat2 = lattice_transition_matrix(lat2, r=lattice_r, jump_scale=jump_scale, box_radius=3)
    verdict = check_irreducibility(
        K_lat2,
        check_name=f"irreducibility-lattice-k2-r{lattice_r:g}",
        expected_failure=(lattice_r == 0.0),
    )
    if lattice_r == 0.0 and not verdict.passed:
        # Confirm the split is exactly the parity classes of x_1 - x_2.
        parity = (states2[:, 0] - states2[:, 1]) % 2
        labels = np.asarray(verdict.details["labels"])
        split_matches = all(len(set(labels[parity == v])) == 1 for v in (0.0, 1.0))
        verdict.details["parity_split"] = bool(split_matches)
    verdicts.append(verdict)
    return verdicts


def suite_ok(verdicts: Sequence[Verdict]) -> bool:
    """True when every regular check passed and every negative control failed (``Verdict.status``)."""
    return not any(v.status in ("FAIL", "UNEXPECTED PASS") for v in verdicts)


def verdicts_to_json(verdicts: Sequence[Verdict], path=None) -> str:
    payload = json.dumps([v.to_json_dict() for v in verdicts], indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return payload


def format_verdict_table(verdicts: Sequence[Verdict]) -> str:
    lines = [f"{'check':42s} {'violation':>12s} {'tolerance':>10s}  status"]
    for v in verdicts:
        lines.append(f"{v.check_name:42s} {v.max_violation:12.3e} {v.tolerance:10.1e}  {v.status}")
    return "\n".join(lines)
