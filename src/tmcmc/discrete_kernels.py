"""Discrete-state transformation kernels and exact transition matrices.

Two families: a spin-flip kernel on ``{-1,+1}^k`` whose forward/backward
transformations are sign maps driven by an innovation larger than 1 (so the
proposed value per coordinate is +1 with probability ``p_i`` and -1 otherwise,
independent of the innovation), and an integer-lattice kernel that mixes a
single-coordinate update with a joint move of all coordinates by the same
integer jump.  No Jacobians appear in either acceptance ratio.

For small state spaces the kernels are also materialized as exact stochastic
matrices, which is what the detailed-balance certification consumes; one
builder, ``_translation_matrix``, makes those of the lattice kernel and of
``tmcmc.verify``'s grid surrogates from their lists of moves.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence, Union

import numpy as np

from .chain import ChainState, Kernel, _check_count, _check_positive, _per_coordinate, _shift_propose, init_state
from .targets import Target

__all__ = [
    "make_ising_kernel",
    "make_zk_kernel",
    "jump_magnitude_masses",
    "exact_transition_matrix",
    "enumerate_spin_states",
    "enumerate_box_states",
    "ising_transition_matrix",
    "lattice_transition_matrix",
    "write_matrix_csv",
    "stationary_distribution",
    "strongly_connected_classes",
]

MAX_EXACT_STATES = 5000


def _spin_probs(p, k: int) -> np.ndarray:
    """``p`` as ``(k,)`` forward probabilities, each in the open interval (0, 1); NaN is not."""
    probs = _per_coordinate("p", p, k)
    if not np.all((0.0 < probs) & (probs < 1.0)):
        raise ValueError(f"forward probabilities must lie strictly in (0, 1), got {p}")
    return probs


def _check_lattice(r: float, jump_scale: float) -> None:
    """The lattice kernel's settings: ``r`` in [0, 1] and ``jump_scale`` positive and finite; NaN is neither."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    _check_positive("jump_scale", jump_scale)


def make_ising_kernel(target: Target, p: Union[float, np.ndarray]) -> Kernel:
    """Spin-chain kernel.

    Per coordinate the forward sign map is chosen with probability ``p_i``
    (proposing +1) and the backward one otherwise (proposing -1); acceptance is
    ``min{1, P(reverse move)/P(move) * pi(y)/pi(x)}``.  ``kernel.draw(rng, b)``
    turns ``b * k`` uniforms into ``b`` rows, each a proposed spin vector.
    ``p`` holds one value or ``k``, each in the open interval (0, 1).
    """
    k = target.dim
    probs = _spin_probs(p, k)
    log_up, log_down = np.log(probs), np.log1p(-probs)  # log P(select +1), log P(select -1)
    log_density = target.log_density

    def draw(rng: np.random.Generator, b: int) -> np.ndarray:
        return np.where(rng.random((b, k)) < probs, 1.0, -1.0)

    def propose(state: ChainState, y: np.ndarray):
        x = state.x
        log_ratio = float(np.sum(np.where(x > 0, log_up, log_down))) - float(np.sum(np.where(y > 0, log_up, log_down)))
        lp_y = log_density(y)
        return ChainState(y, lp_y), log_ratio + lp_y - state.lp

    return Kernel(init_state(log_density), draw, propose)


def make_zk_kernel(target: Target, r: float, jump_scale: float) -> Kernel:
    """Integer-lattice kernel.

    With probability ``r`` a uniformly chosen coordinate jumps by ``+-m``;
    otherwise every coordinate jumps by ``z_i m`` with independent signs.  The
    magnitude is ``m = floor(eps)`` with ``eps = 1 + |N(0, jump_scale^2)|``,
    so ``m >= 1``.  Move probabilities are symmetric, hence acceptance is the
    plain density ratio.  ``kernel.draw(rng, b)`` draws ``b`` branch
    uniforms and ``b`` magnitudes, then for the single-coordinate rows their
    coordinates (``integers(k)``) and sign uniforms, then ``k`` sign uniforms
    per joint row; a row is the move ``y - x``.
    """
    _check_lattice(r, jump_scale)
    k = target.dim
    log_density = target.log_density

    def draw(rng: np.random.Generator, b: int) -> np.ndarray:
        branch = rng.random(b)
        m = np.floor(1.0 + jump_scale * np.abs(rng.standard_normal(b)))
        single, joint = np.flatnonzero(branch < r), np.flatnonzero(branch >= r)
        # -0.0 is the additive identity, so ``x + row`` leaves an unmoved
        # coordinate's bits alone (x + 0.0 would turn -0.0 into +0.0)
        rows = np.full((b, k), -0.0)
        j = rng.integers(k, size=single.size)
        rows[single, j] = np.where(rng.random(single.size) < 0.5, 1.0, -1.0) * m[single]
        rows[joint] = np.where(rng.random((joint.size, k)) < 0.5, 1.0, -1.0) * m[joint, None]
        return rows

    return Kernel(init_state(log_density), draw, _shift_propose(log_density))


def jump_magnitude_masses(jump_scale: float, m_max: int) -> tuple[np.ndarray, float]:
    """Exact masses ``Pr(floor(eps) = m)`` for ``m = 1..m_max`` plus the tail.

    ``eps = 1 + |N(0, s^2)|`` gives ``Pr(floor(eps) = m) =
    2 (Phi(m/s) - Phi((m-1)/s))``; the returned tail is the mass beyond
    ``m_max``, which exact-matrix builders fold into self-transitions.
    """
    from scipy.special import ndtr  # deferred: ``import tmcmc`` needs only numpy

    s = float(jump_scale)
    edges = np.arange(0, m_max + 1) / s
    cdf = ndtr(edges)
    masses = 2.0 * np.diff(cdf)
    tail = 2.0 * (1.0 - cdf[-1])
    return masses, float(tail)


def exact_transition_matrix(
    states: np.ndarray,
    proposal_probs: np.ndarray,
    log_pi: np.ndarray,
    extra_log_ratio: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Assemble the Metropolis kernel matrix from a proposal description.

    ``proposal_probs[i, j]`` is the probability of proposing state ``j`` from
    state ``i`` (rows may sum to less than 1; the deficit is
    propose-outside-the-space mass and counts as rejection).
    ``extra_log_ratio[i, j]`` is the log move-probability ratio entering the
    acceptance test, zero for symmetric kernels.  The diagonal collects every
    rejection, so rows sum to one exactly.
    """
    n = len(states)
    if n > MAX_EXACT_STATES:
        raise ValueError(f"state space too large for exact construction: {n} > {MAX_EXACT_STATES}")
    # Every guard is written so that NaN fails it.
    P = np.asarray(proposal_probs, dtype=float)
    if P.shape != (n, n) or not np.all(P >= 0.0):
        raise ValueError("proposal_probs must be a nonnegative (n, n) matrix")
    row_sums = P.sum(axis=1)
    if not np.all(row_sums <= 1.0 + 1e-9):
        raise RuntimeError(f"internal error: proposal rows sum to {row_sums.max()} > 1")
    log_pi = np.asarray(log_pi, dtype=float)
    extra = np.zeros((n, n)) if extra_log_ratio is None else np.asarray(extra_log_ratio, dtype=float)

    with np.errstate(invalid="ignore"):  # inf - inf is caught just below
        log_alpha = extra + log_pi[None, :] - log_pi[:, None]
    if np.isnan(log_alpha).any():
        raise ValueError("log_pi and extra_log_ratio must give every pair a log acceptance ratio, not NaN")
    alpha = np.minimum(1.0, np.exp(np.minimum(log_alpha, 0.0)))
    K = P * alpha
    np.fill_diagonal(K, 0.0)
    diag = 1.0 - K.sum(axis=1)
    if not np.all(diag >= -1e-12):
        raise RuntimeError(f"internal error: negative self-transition mass {diag.min()}")
    np.fill_diagonal(K, np.maximum(diag, 0.0))
    err = np.abs(K.sum(axis=1) - 1.0).max()
    if not err <= 1e-12:
        raise RuntimeError(f"internal error: kernel rows sum to 1 +- {err}")
    return K


def enumerate_spin_states(k: int) -> np.ndarray:
    """All ``2^k`` spin vectors, lexicographic in (-1, +1) per coordinate."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=k)))


def enumerate_box_states(k: int, box_radius: int) -> np.ndarray:
    """All integer vectors with ``|x_i| <= box_radius``."""
    rng = range(-box_radius, box_radius + 1)
    return np.array(list(itertools.product(rng, repeat=k)), dtype=float)


def _translation_matrix(log_pi: np.ndarray, moves) -> np.ndarray:
    """Metropolis matrix of a translation kernel on the row-major box grid that ``log_pi`` spans.

    Each of ``moves``, in order, is a ``(delta, prob, log_ratio)`` triple: every state whose
    ``state + delta`` (in grid steps) lies in the box proposes it with probability ``prob`` and
    log move-probability ratio ``log_ratio``; a move out of the box is a rejection.
    """
    log_pi = np.asarray(log_pi, dtype=float)
    coords = np.indices(log_pi.shape).reshape(log_pi.ndim, -1).T
    P = np.zeros((log_pi.size, log_pi.size))
    extra = np.zeros_like(P)
    for delta, prob, log_ratio in moves:
        targets = coords + delta
        inside = np.all((targets >= 0) & (targets < log_pi.shape), axis=1)
        src = np.flatnonzero(inside)
        tgt = np.ravel_multi_index(tuple(targets[inside].T), log_pi.shape)
        P[src, tgt] += prob
        extra[src, tgt] = log_ratio
    return exact_transition_matrix(np.arange(log_pi.size), P, log_pi.ravel(), extra)


def ising_transition_matrix(
    target: Target,
    p: Union[float, np.ndarray],
    eps_values: Optional[Sequence[float]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kernel matrix of the spin kernel over all ``2^k`` states.

    ``eps_values`` is a non-empty innovation grid on ``(1, inf)``; the sign
    maps are constant over that range, so any grid yields the identical matrix
    (a property the tests pin down).  Proposals are state-independent.
    """
    k = target.dim
    probs = _spin_probs(p, k)
    eps_grid = np.asarray([1.5] if eps_values is None else list(eps_values), dtype=float)
    if eps_grid.size == 0 or not np.all(eps_grid > 1.0):
        raise ValueError(f"innovation values must be a non-empty grid, each above 1, got {eps_grid.tolist()}")

    states = enumerate_spin_states(k)
    # Log selection probability of each state as a proposal through the sign maps, for
    # (grid value, state, coordinate) at once.  On (1, inf) the maps are constant (forward
    # +1, backward -1), so every grid value gives the same bits.
    shifted = eps_grid[:, None, None]
    per_grid = np.where(
        states == np.sign(states + shifted),
        np.log(probs),
        np.where(states == np.sign(states - shifted), np.log1p(-probs), -np.inf),
    ).sum(axis=2)
    if not np.all(per_grid == per_grid[0]):
        raise RuntimeError("internal error: sign maps not constant on (1, inf)")
    sel = np.array([math.exp(v) for v in per_grid[0].tolist()])
    P = np.tile(sel, (len(sel), 1))
    log_sel = np.log(sel)
    extra = log_sel[:, None] - log_sel[None, :]
    log_pi = np.array([target.log_density(s) for s in states])
    return states, exact_transition_matrix(states, P, log_pi, extra)


def lattice_transition_matrix(
    target: Target,
    r: float,
    jump_scale: float,
    box_radius: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kernel matrix of the lattice kernel truncated to a box.

    Proposals leaving the box are rejected (self-transitions), so the matrix
    is exactly stochastic; jump magnitudes above ``2 * box_radius`` always
    leave the box and are folded into the diagonal via the tail mass.
    ``box_radius`` must be a nonnegative integer.
    """
    _check_lattice(r, jump_scale)
    _check_count("box_radius", box_radius, 0)
    k, side = target.dim, 2 * box_radius + 1
    if side**k > MAX_EXACT_STATES:  # before the states and the (n, n) matrices are made
        raise ValueError(f"state space too large for exact construction: {side**k} > {MAX_EXACT_STATES}")
    states = enumerate_box_states(k, box_radius)
    masses, _tail = jump_magnitude_masses(jump_scale, 2 * box_radius)
    axes = np.eye(k, dtype=int)
    signs = np.array(list(itertools.product((-1, 1), repeat=k)))
    moves = []  # magnitude-major, single-coordinate before joint: at k = 1 both add to one entry
    for m, g in enumerate(masses, start=1):
        if r > 0.0:
            moves += [(sign * m * e, r * g / (2.0 * k), 0.0) for e in axes for sign in (1, -1)]
        if r < 1.0:
            moves += [(m * z, (1.0 - r) * g / (2.0**k), 0.0) for z in signs]
    log_pi = np.array([target.log_density(s) for s in states])
    return states, _translation_matrix(log_pi.reshape((side,) * k), moves)


def write_matrix_csv(states: np.ndarray, K: np.ndarray, path) -> None:
    """Dense kernel-matrix CSV for offline inspection.

    First columns are the state coordinates (``s_0..s_{k-1}``), remaining
    columns the transition probabilities to each state in enumeration order.
    """
    states = np.asarray(states, dtype=float)
    k = states.shape[1] if states.ndim == 2 else 1
    states = states.reshape(len(states), k)
    with open(path, "w", encoding="utf-8") as fh:
        head = [f"s_{i}" for i in range(k)] + [f"to_{j}" for j in range(len(states))]
        fh.write(",".join(head) + "\n")
        for row_state, row in zip(states, K):
            cells = [repr(float(v)) for v in row_state] + [repr(float(p)) for p in row]
            fh.write(",".join(cells) + "\n")


def stationary_distribution(K: np.ndarray) -> np.ndarray:
    """Left stationary vector of a stochastic matrix via the unit eigenvalue."""
    vals, vecs = np.linalg.eig(K.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, idx])
    v = np.abs(v)
    return v / v.sum()


def strongly_connected_classes(K: np.ndarray, atol: float = 1e-14) -> tuple[int, np.ndarray]:
    """Number of strongly connected classes of the kernel's directed graph."""
    from scipy.sparse import csr_matrix  # deferred: ``import tmcmc`` needs only numpy
    from scipy.sparse.csgraph import connected_components

    graph = csr_matrix((K > atol).astype(np.int8))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    return int(n_comp), labels
