"""Monte-Carlo ground truth for the closed-loop stochastic system.

Simulates the exact dynamics ``x' = A x + B f(d(x)) + w`` with the per-cell
measurement maps, records first unsafe hits, and estimates per-cell
reach-unsafe probabilities from uniformly sampled initial states.  These
estimates are the falsifier for every bound the rest of the package
computes: an estimate significantly above a bound is a soundness bug.

Initial states are independent and exactly uniform in the cell (rejection
from its bounding box), so the binomial standard deviation reported with
each estimate is the estimator's true sampling error.

Randomness comes from counter-based Philox streams keyed ``(seed, index)``
(:func:`stream`).  Index 0 drives the initial-state sampler.  A batch of
``N`` trajectories over ``k`` steps draws all of its noise from the one
stream ``(seed, base_index)`` as a time-major ``(k, N, n)`` standard-normal
block, and step ``t`` adds row ``t``.  The noise is iid, independent of the
sampler's stream, reproducible from the seed alone, and a shorter horizon
reads a prefix of the same draw.  A single rollout with ``index`` is a
batch of one drawn from stream ``(seed, 1 + index)``.

A batch runs state-major: each step's states are an (n, N) array, so the
dynamics, the measurement map and the network are matrix products from
the left, and each step is written in place into its slot of the states.
While every trajectory lies in some cell, as nearly all do at nearly every
step, a step gathers and scatters nothing and writes the measurement, the
hidden layers, the control and the noise into buffers that the thread's
rollouts share.  Each step's cells and unsafe flags come from
:meth:`~relusafe.scenario.Scenario.classify_many`: for a scenario of boxes,
one ``searchsorted`` per axis on the contiguous rows of the states and two
gathers from one table over the per-axis ranks.
Callers still see (N, ...) arrays.  The Monte-Carlo estimates read only
the first unsafe step, so their rollouts keep two state slots, not k+1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, chebyshev_center
from .scenario import closed_loop_mean_step, nn_forward_batch

_MASK64 = (1 << 64) - 1
# Per thread, the step buffers of the last rollout (see simulate_batch).
# A step writes every buffer before it reads it, so no result depends on
# what an earlier rollout left in them.
_STEP_BUFFERS = threading.local()
# Most points one rejection round of the sampler draws at once.
_MAX_ROUND = 1 << 16


class MonteCarloError(Exception):
    pass


@dataclass(frozen=True)
class Trajectory:
    """One simulated rollout; ``states`` has k+1 rows.

    ``unsafe_hit`` is the first index whose position lies in an obstacle,
    whose state violates the domain, or that no cell contains (sink
    semantics); None if the rollout stays safe.  After a state escapes every
    cell the rollout holds position, since no measurement map applies.
    """

    states: np.ndarray
    unsafe_hit: int | None
    seed: int
    index: int = 0


@dataclass(frozen=True)
class McEstimate:
    cell: object
    horizon: int
    n_samples: int
    hit_fraction: float
    stddev: float


def stream(seed, index):
    """Generator for the Philox stream keyed (seed, index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _starts(scenario, x0s):
    x0s = np.asarray(x0s, dtype=float)
    n = scenario.dynamics.n
    if x0s.ndim != 2 or x0s.shape[1] != n:
        raise MonteCarloError(f"initial states of shape {x0s.shape} are not (N, {n})")
    return x0s


def _step_buffers(shapes):
    """Arrays of ``shapes`` for the steps of a rollout: the ones this
    thread's last rollout used when their shapes match, else new ones,
    kept for the next rollout."""
    buffers = getattr(_STEP_BUFFERS, "arrays", None)
    if buffers is None or [a.shape for a in buffers] != shapes:
        buffers = _STEP_BUFFERS.arrays = [np.empty(shape) for shape in shapes]
    return buffers


def simulate_batch(scenario, x0s, k, seed, base_index=1, history=True):
    """Roll out many trajectories at once; returns (states, first_hit).

    ``x0s`` is (N, n).  ``states`` is (N, k+1, n), a transposed view of the
    state-major (k+1, n, N) array the rollout fills; ``first_hit`` holds
    the first unsafe step per trajectory (k+1 when never unsafe).  The
    noise is one draw ``z = stream(seed, base_index).normal(size=(k, N,
    n))``, and step ``t`` adds row ``t`` of ``z * sigma``, so a shorter
    horizon reads a prefix of the same noise.  Each step draws its own
    row, which reads the same numbers as the whole block, and scales it
    straight into state-major layout, so one row is held at a time.
    Trajectory ``i`` of a batch of more than one is not :func:`simulate`
    with ``index=i``.  With ``history=False`` only the last two states are
    kept, in two slots that the steps alternate, and ``states`` is (N, 2,
    n); ``first_hit`` is the same.

    While every trajectory is live, a step writes into buffers that the
    next rollout of the same shape on this thread reuses, and allocates
    nothing large.  A rollout that freed them would leave it to the heap's
    state whether they are trimmed and faulted back in by the next one,
    which made the same falsifier 5% slower or faster depending on what
    ran before it.
    """
    if k < 0:
        raise MonteCarloError(f"horizon {k} is negative")
    x0s = _starts(scenario, x0s)
    dyn = scenario.dynamics
    N, n = x0s.shape
    rng = stream(seed, base_index)
    sigma = dyn.sigma[:, None]
    Cs, cs, shared = scenario.measurement_maps
    net = scenario.controller
    width = max(net.hidden_widths, default=1)
    d, h0, h1, u, bu, z, noise = _step_buffers(
        [(Cs.shape[1], N), (width * N,), (width * N,), (dyn.m, N), (n, N), (N, n), (n, N)])
    hidden = (h0, h1)

    states = np.empty((k + 1 if history else 2, n, N))
    states[0] = x0s.T
    cell_idx, unsafe = scenario.classify_many(x0s)
    first_hit = np.where(unsafe, 0, k + 1)
    for t in range(k):
        x, x_next = (states[t], states[t + 1]) if history else (states[t % 2], states[1 - t % 2])
        live = cell_idx >= 0
        every = live.all()
        if every and shared:
            # Nearly every step: every trajectory is live and every cell
            # has the same measurement map (as in generated scenarios).
            np.matmul(Cs[0], x, out=d)
            d += cs[0][:, None]
            nn_forward_batch(net, d.T, out=u, hidden=hidden)
            np.matmul(dyn.A, x, out=x_next)
            np.matmul(dyn.B, u, out=bu)
            x_next += bu
        else:
            x_live = x[:, live]
            if shared:
                d_live = Cs[0] @ x_live + cs[0][:, None]
            else:
                c = cell_idx[live]
                d_live = np.einsum("ipn,ni->pi", Cs[c], x_live) + cs[c].T
            u_all = np.zeros((dyn.m, N))
            u_all[:, live] = nn_forward_batch(net, d_live.T, hidden=hidden).T
            np.matmul(dyn.A, x, out=x_next)
            x_next += dyn.B @ u_all
        # Row t of the (k, N, n) draw, scaled state-major: the products of z * sigma.
        rng.standard_normal(out=z)
        np.multiply(z.T, sigma, out=noise)
        x_next += noise
        if not every:
            x_next[:, ~live] = x[:, ~live]  # no measurement map: hold position
        cell_idx, unsafe = scenario.classify_many(x_next.T)
        first_hit[unsafe & (first_hit > t + 1)] = t + 1
    return states.transpose(2, 0, 1), first_hit


def simulate(scenario, x0, k, seed, index=0):
    """One exact stochastic rollout from ``x0`` over ``k`` steps.

    A batch of one (:func:`simulate_batch` with ``base_index = 1 + index``):
    its noise is stream ``(seed, 1 + index)`` drawn as one ``(k, n)`` block.
    """
    x0 = _starts(scenario, np.reshape(x0, (1, -1)))
    if not scenario.workspace.domain.contains(x0[0]):
        raise MonteCarloError(f"initial state {x0[0]} outside the domain")
    states, first_hit = simulate_batch(scenario, x0, k, seed, base_index=1 + index)
    hit = int(first_hit[0])
    return Trajectory(states=states[0], unsafe_hit=hit if hit <= k else None,
                      seed=seed, index=index)


def sample_in_polytope(poly, n, rng):
    """``n`` independent, exactly uniform points in a bounded polytope.

    Rejection from the polytope's (memoized) bounding box: each round draws
    uniform points in the box from ``rng`` and keeps those inside ``poly``,
    until ``n`` are kept.  Rounds are sized from the acceptance rate seen so
    far.  The points are independent of each other, unlike the steps of a
    random walk, and their distribution does not depend on the polytope's
    shape.  :func:`estimate_true_pk` passes stream ``(seed, 0)`` as ``rng``.
    Raises :class:`MonteCarloError` for an empty, degenerate (zero
    Chebyshev radius) or unbounded polytope, none of which has a uniform
    distribution.
    """
    try:
        _, radius = chebyshev_center(poly)
    except GeometryError as exc:
        raise MonteCarloError(f"cannot sample the polytope: {exc}") from exc
    if radius <= 0.0:
        raise MonteCarloError("cannot sample a degenerate polytope")
    lo, hi = poly.bounding_box()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise MonteCarloError("cannot sample an unbounded polytope")
    kept = [np.empty((0, poly.dim))]
    need = n
    drawn = accepted = 0
    while need > 0:
        batch = need if drawn == 0 else -(-need * drawn // max(accepted, 1))
        pts = rng.uniform(lo, hi, size=(min(batch, _MAX_ROUND), poly.dim))
        inside = pts[poly.contains_many(pts, tol=0.0)]
        drawn += len(pts)
        accepted += len(inside)
        kept.append(inside[:need])
        need -= len(kept[-1])
    return np.concatenate(kept)


def _estimate(cell_id, horizon, n, hits):
    frac = float(hits / n)
    return McEstimate(cell=cell_id, horizon=horizon, n_samples=n, hit_fraction=frac,
                      stddev=float(np.sqrt(frac * (1.0 - frac) / n)))


def estimate_true_pk_curve(scenario, cell, k, n, seed):
    """MC estimates of reach-unsafe-within-j for every ``j = 0..k``.

    One set of ``n`` rollouts over horizon ``k`` serves every ``j``: the
    starts come from stream ``(seed, 0)`` and the noise from stream
    ``(seed, 1)``, drawn time-major with one row per step, whose first
    ``j`` rows are exactly the noise of a horizon-``j`` batch.  So entry ``j``
    equals ``estimate_true_pk(scenario, cell, j, n, seed)`` bit for bit.
    """
    if n < 1:
        raise MonteCarloError("need at least one sample")
    if k < 0:
        raise MonteCarloError(f"horizon {k} is negative")
    if isinstance(cell, (int, np.integer)):
        if not 0 <= cell < scenario.num_cells:
            raise MonteCarloError(f"cell index {cell} out of range 0..{scenario.num_cells - 1}")
        cell = scenario.partition[int(cell)]
    starts = sample_in_polytope(cell.region, n, stream(seed, 0))
    _, first_hit = simulate_batch(scenario, starts, k, seed, base_index=1, history=False)
    within = np.cumsum(np.bincount(first_hit, minlength=k + 2)[:k + 1])
    return [_estimate(cell.id, j, n, within[j]) for j in range(k + 1)]


def estimate_true_pk(scenario, cell, k, n, seed):
    """MC estimate of reach-unsafe-within-k from uniform starts in a cell.

    ``cell`` may be a PartitionCell or a cell index.  10^4 samples put the
    binomial standard deviation at or below half a percent.  The last entry
    of :func:`estimate_true_pk_curve`.
    """
    return estimate_true_pk_curve(scenario, cell, k, n, seed)[-1]


def estimate_transition(scenario, x, target_region, n, seed, index=0):
    """MC estimate of one-step ``P(x' in target | x)`` at a fixed state.

    Uses the true closed loop (mean step plus noise); the draw stream is
    ``(seed, index)``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    cell_idx = scenario.cell_index_many(x[None, :])[0]
    if cell_idx < 0:
        raise MonteCarloError("state lies in no cell")
    cell = scenario.partition[cell_idx]
    mean = closed_loop_mean_step(scenario, x, cell, tol=1e-6)
    dyn = scenario.dynamics
    draws = stream(seed, index).normal(size=(n, dyn.n)) * dyn.sigma
    pts = mean + draws
    return _estimate(cell.id, 1, n, np.count_nonzero(target_region.contains_many(pts, tol=0.0)))
