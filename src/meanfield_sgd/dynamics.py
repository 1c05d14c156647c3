"""Time integrators for the particle system and its limits.

The interacting system is integrated by explicit Euler-Maruyama under a
shared finite-dimensional noise: for a finite data measure the cylindrical
Wiener process on L2(theta) reduces exactly to one independent Brownian
channel per data atom, weighted by sqrt(w_p).  Coupled runs (different eps,
different particle counts, tangent systems) consume the identical increment
block, which is what makes the rate experiments variance-free couplings
rather than independent comparisons.

Also here: the discrete SGD chain with its time embedding, the transport
(zero-noise) integrator, and the Picard fixed-point mode that re-solves the
frozen-measure linear equation until the measure path stops moving.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._checks import check_box, check_integer, check_real, check_weights
from .measures import EmpiricalMeasure, SignedAtomicField, SortedAtoms, w2_sup, write_table

__all__ = [
    "NoisePath",
    "ParticleEnsemble",
    "IntegratorConfig",
    "Trajectory",
    "SimulationError",
    "step_interacting",
    "simulate",
    "simulate_transport",
    "simulate_coupled",
    "run_sgd",
    "SgdChain",
    "embedded_step",
    "picard_solve",
    "PicardResult",
    "sample_initial",
    "InitialSpec",
    "write_trajectory",
    "seeded_rng",
]


class SimulationError(RuntimeError):
    pass


def seeded_rng(seed: int, tag: str) -> np.random.Generator:
    """Deterministic generator for (seed, role ``tag``); stable across platforms."""
    check_integer("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(tag.encode()))))


class NoisePath:
    """Seeded Gaussian increment block, one channel per data atom.

    ``increments[step, p] ~ Normal(0, dt)`` i.i.d. across (step, p).  A
    coupled pair of runs must hold the same object (or a coarsening of the
    same fine path).  Only (seed, dt, n_steps) ever gets serialized.
    """

    def __init__(self, seed: int, dt: float, n_steps: int, n_channels: int,
                 _increments: np.ndarray | None = None):
        self.seed = check_integer("seed", seed, 0)
        self.dt = check_real("dt", dt)
        self.n_steps = check_integer("n_steps", n_steps, 0)
        self.n_channels = check_integer("n_channels", n_channels, 1)
        if _increments is None:
            rng = seeded_rng(self.seed, "noise")
            _increments = rng.normal(0.0, np.sqrt(self.dt), size=(self.n_steps, self.n_channels))
        self.increments = _increments

    @property
    def meta(self) -> dict:
        return {
            "seed": self.seed,
            "dt": self.dt,
            "n_steps": self.n_steps,
            "n_channels": self.n_channels,
        }

    def coarsened(self, factor: int) -> "NoisePath":
        """Sum consecutive increments in groups of ``factor`` (same Brownian path)."""
        check_integer("factor", factor, 1)
        if self.n_steps % factor != 0:
            raise ValueError(f"factor must divide the number of steps {self.n_steps} (got {factor})")
        agg = self.increments.reshape(self.n_steps // factor, factor, self.n_channels).sum(axis=1)
        return NoisePath(self.seed, self.dt * factor, self.n_steps // factor,
                         self.n_channels, _increments=agg)


@dataclass
class ParticleEnsemble:
    """Weighted particles in parameter space with a clock."""

    positions: np.ndarray  # (N, d)
    weights: np.ndarray    # (N,)
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.positions.shape[0],):
            raise ValueError(f"weights must be one per particle (got shape {self.weights.shape} "
                             f"for {self.positions.shape[0]} particles)")

    @classmethod
    def uniform(cls, positions: np.ndarray) -> "ParticleEnsemble":
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        if positions.size == 0:
            raise ValueError(f"positions must be at least one point (got shape {positions.shape})")
        n = positions.shape[0]
        return cls(positions, np.full(n, 1.0 / n))

    def as_measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.positions, self.weights)

    # coefficient evaluators duck-type on .atoms/.weights
    @property
    def atoms(self) -> np.ndarray:
        return self.positions


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon and noise scale for the Euler-Maruyama solver."""

    dt: float
    horizon: float
    eps: float = 0.0
    snapshot_stride: int = 1

    def __post_init__(self):
        check_real("dt", self.dt)
        check_real("horizon", self.horizon, strict=False)
        check_real("eps", self.eps, strict=False)
        ratio = self.horizon / self.dt
        if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
            raise ValueError(f"horizon must be a whole multiple of dt (got {self.horizon!r}, dt {self.dt!r})")
        if self.horizon > 0 and round(ratio) == 0:
            raise ValueError(f"horizon must be 0 or at least one step dt (got {self.horizon!r}, dt {self.dt!r})")
        check_integer("snapshot_stride", self.snapshot_stride, 1)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class Trajectory:
    """Recorded snapshots of an ensemble path plus reproducibility metadata."""

    times: np.ndarray       # (S,)
    positions: np.ndarray   # (S, N, d)
    weights: np.ndarray     # (N,)
    dt: float
    eps: float
    snapshot_stride: int
    noise_meta: dict | None = None
    tangents: np.ndarray | None = None  # (S, N, d), set on the run solve_tangent returns only

    @property
    def n_snapshots(self) -> int:
        return self.times.shape[0]

    def field_at(self, index: int) -> SignedAtomicField:
        """The tangent field phi -> (1/N) sum_i grad phi(x_i) . y_i of a snapshot."""
        if self.tangents is None:
            raise ValueError("tangents must be set for a tangent field: this run is not a tangent solve")
        return SignedAtomicField.tangent(self.positions[index], self.tangents[index])

    def measure_at(self, index: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.positions[index], self.weights)

    @property
    def is_full_resolution(self) -> bool:
        return self.snapshot_stride == 1


def _divergence(X: np.ndarray, step: int, time: float) -> SimulationError | None:
    """The error of a run whose state X went non-finite at ``step``, else None."""
    if np.isfinite(X).all():
        return None
    finite = np.isfinite(X).all(axis=-1)
    return SimulationError(
        f"non-finite state at step {step} (t={time:.6g}): "
        f"{int(np.count_nonzero(~finite))} particle(s) diverged"
    )


def _check_finite(X: np.ndarray, step: int, time: float):
    error = _divergence(X, step, time)
    if error is not None:
        raise error


def _check_points(name: str, X: np.ndarray, coeffs):
    """Refuse the array ``X`` unless it is at least one point of the
    dimension of ``coeffs``; its shape only, so a step can afford it."""
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != coeffs.dim:
        raise ValueError(f"{name} must be at least one point of dimension {coeffs.dim} (got shape {X.shape})")


def _increment_row(dB, coeffs) -> np.ndarray:
    """``dB`` as floats, once checked one increment per channel of ``coeffs``."""
    row = np.asarray(dB, dtype=float)
    if row.shape != (coeffs.n_channels,):
        raise SimulationError(f"dB must be an increment row of shape ({coeffs.n_channels},) (got shape {row.shape})")
    return row


def step_interacting(ens: ParticleEnsemble, coeffs, cfg: IntegratorConfig,
                     dB: np.ndarray | None) -> ParticleEnsemble:
    """One Euler-Maruyama step; every particle reads the pre-step ensemble
    and the same increment row (common noise).  A one-run ``coupled_step``."""
    _check_points("positions", ens.positions, coeffs)
    dB = _increment_row(dB, coeffs) if cfg.eps > 0.0 else np.zeros(coeffs.n_channels)
    (newX,) = coeffs.coupled_step(ens.positions[None], ens.weights, cfg.dt, [cfg.eps], dB[None])
    t = ens.time + cfg.dt
    _check_finite(newX, step=int(round(t / cfg.dt)), time=t)
    return ParticleEnsemble(newX, ens.weights, t)


def _record_indices(n_steps: int, stride: int) -> np.ndarray:
    idx = np.arange(0, n_steps + 1, stride)
    if idx[-1] != n_steps:
        idx = np.append(idx, n_steps)
    return idx


def _noise_rows(noise: NoisePath | None, cfg: IntegratorConfig, coeffs) -> np.ndarray:
    """The increment rows of ``noise``, after checking that it can drive ``cfg``
    on the channels of ``coeffs``."""
    if noise is None:
        raise SimulationError("noise must be a NoisePath for a noisy run")
    if noise.n_channels != coeffs.n_channels:
        raise SimulationError(f"noise must have {coeffs.n_channels} channels, one per data atom "
                              f"(got {noise.n_channels})")
    if noise.n_steps < cfg.n_steps:
        raise SimulationError(f"noise must cover the {cfg.n_steps} steps of the run (got {noise.n_steps})")
    if abs(noise.dt - cfg.dt) > 1e-12 * max(1.0, cfg.dt):
        raise SimulationError(f"noise must have the integrator's dt {cfg.dt!r} (got {noise.dt!r})")
    return noise.increments


def _check_runs(initials: Sequence[ParticleEnsemble], coeffs):
    """Refuse, once before the first step, runs that cannot step together."""
    for initial in initials:
        _check_points("positions", initial.positions, coeffs)
        check_weights("weights", initial.weights, initial.positions.shape[0])
    if len({initial.time for initial in initials}) > 1:
        raise ValueError(f"time must be one start time for every coupled run (got {[i.time for i in initials]})")


def _integrate(state, advance, n_steps: int, stride: int, snapshot) -> list[np.ndarray]:
    """The integrator loop: ``state = advance(state, step)`` for each step.

    ``snapshot(state)`` is a tuple of arrays (or scalars) recorded at the
    ``_record_indices`` steps, the initial state included; returns one array
    per tuple entry with the recorded snapshots along its first axis.  A
    diverging run fails as its integrator's SimulationError at its first
    non-finite state; numpy's overflow warnings on the way there add nothing
    to that, so the loop runs without them.
    """
    record = _record_indices(n_steps, stride)
    first = snapshot(state)
    frames = [np.empty((record.size,) + np.shape(a)) for a in first]
    for frame, a in zip(frames, first):
        frame[0] = a
    out = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            state = advance(state, step)
            if record[out] == step + 1:
                for frame, a in zip(frames, snapshot(state)):
                    frame[out] = a
                out += 1
    return frames


def _trajectory(start: float, cfg: IntegratorConfig, positions: np.ndarray, weights: np.ndarray, eps: float,
                noise: NoisePath | None = None, tangents: np.ndarray | None = None) -> Trajectory:
    """The record of a run from time ``start`` under ``cfg``: ``positions``
    at its recorded steps, each at its step count times dt (not a running
    sum of dt), driven by ``noise`` (None for a run that read no path)."""
    times = start + _record_indices(cfg.n_steps, cfg.snapshot_stride) * cfg.dt
    return Trajectory(times=times, positions=positions, weights=weights, dt=cfg.dt, eps=eps,
                      snapshot_stride=cfg.snapshot_stride, noise_meta=None if noise is None else noise.meta,
                      tangents=tangents)


def simulate(initial: ParticleEnsemble, coeffs, cfg: IntegratorConfig,
             noise: NoisePath | None) -> Trajectory:
    """Integrate the interacting system; deterministic in (initial, seed, cfg)."""
    _check_runs([initial], coeffs)
    rows = _noise_rows(noise, cfg, coeffs) if cfg.eps > 0.0 else None
    # a diverging run raises SimulationError at its first non-finite state
    (positions,) = _integrate(
        initial, lambda e, k: step_interacting(e, coeffs, cfg, None if rows is None else rows[k]),
        cfg.n_steps, cfg.snapshot_stride, lambda e: (e.positions,))
    return _trajectory(initial.time, cfg, positions, initial.weights.copy(), cfg.eps,
                       noise if rows is not None else None)


def simulate_transport(initial: ParticleEnsemble, coeffs, cfg: IntegratorConfig) -> Trajectory:
    """The eps = 0 limit; consumes no noise."""
    return simulate(initial, coeffs, replace(cfg, eps=0.0), noise=None)


def simulate_coupled(runs: Sequence[tuple[ParticleEnsemble, float]], coeffs, cfg: IntegratorConfig,
                     noise: NoisePath | None | Sequence[NoisePath | None],
                     tangent: Sequence[int] = ()) -> list:
    """The coupled ``runs``, (initial, eps) pairs, integrated as one batch.

    ``noise`` is the one NoisePath of every run, or one per run: runs of
    several replicas (a pack) share a step, each on its own path; each step
    hands ``coupled_step`` one increment row per run, zeros for a run that
    reads no path.  Run b is ``simulate(initial_b, coeffs, replace(cfg,
    eps=eps_b), noise_b)``.  Runs of one size on one weight vector step as
    the (B, N, d) reshape of the batch and equal their own runs bit for bit;
    runs of different sizes step as one segmented batch (see
    ``coupled_step``) and equal them to rounding.  ``tangent`` names the
    runs, by index, that carry tangents: each must be at eps 0, all of one
    size, and each is the one ``solve_tangent`` returns on its own path for
    the same particle weights, the transport run with its tangents, from
    zero; a pack carries one per replica.  A run that goes non-finite, a
    carrier's tangents included, stays in the batch as nan rows and its
    entry is the SimulationError its own run raises; no sum mixes runs.
    Returns one Trajectory or SimulationError per run.
    """
    if not runs:
        return []
    eps = np.array([check_real("eps", e, strict=False) for _, e in runs])
    carriers = [int(b) for b in tangent]
    if len(set(carriers)) != len(carriers) or not all(0 <= b < eps.size for b in carriers):
        raise ValueError(f"tangent must be distinct run indices below {eps.size} (got {list(tangent)})")
    if carriers and eps[carriers].any():
        raise ValueError(f"eps must be 0 at the runs that carry the tangents (got {eps[carriers].tolist()})")
    _check_runs([initial for initial, _ in runs], coeffs)
    if len({runs[b][0].positions.shape for b in carriers}) > 1:
        raise ValueError(f"positions must be of one shape on the runs that carry the tangents "
                         f"(got {[runs[b][0].positions.shape for b in carriers]})")
    noises = list(noise) if isinstance(noise, Sequence) else [noise] * eps.size
    if len(noises) != eps.size:
        raise ValueError(f"noise must be one NoisePath, or one per run (got {len(noises)} for {eps.size} runs)")
    reads = eps > 0.0   # the runs that read their path: the noisy ones and the carriers
    reads[carriers] = True
    rows = np.zeros((cfg.n_steps, eps.size, coeffs.n_channels))   # (steps, B, P): run b reads column b
    for b in np.flatnonzero(reads):
        rows[:, b] = _noise_rows(noises[b], cfg, coeffs)[:cfg.n_steps]
    weights = [initial.weights for initial, _ in runs]
    offsets = np.concatenate([[0], np.cumsum([w.size for w in weights])])
    # runs of one size on one weight vector keep the per-run sums of a (B, N, d) batch
    if all(np.array_equal(w, weights[0]) for w in weights):
        shape, W, segments = (eps.size, weights[0].size, -1), weights[0], None
    else:
        shape, W, segments = (offsets[-1], -1), np.concatenate(weights), offsets
    out: list = [None] * eps.size
    carried = dict(zip(carriers, range(len(carriers))))   # run -> its tangents' row of Y

    def advance(state, step):
        X, Y = state
        if None not in out:   # every run has failed
            return state
        moved = coeffs.coupled_step(X.reshape(shape), W, cfg.dt, eps, rows[step], Y, segments, carriers)
        X, Y = moved if carriers else (moved, None)
        X = X.reshape(offsets[-1], -1)
        if np.isfinite(X).all() and (Y is None or np.isfinite(Y).all()):
            return X, Y
        at, t = step + 1, runs[0][0].time + (step + 1) * cfg.dt
        for b in range(eps.size):
            run, k = X[offsets[b]:offsets[b + 1]], carried.get(b)
            out[b] = out[b] or _divergence(run, at, t) or (None if k is None else _divergence(Y[k], at, t))
            if out[b] is not None:   # a failed run stays in the batch as nan rows
                run[:] = np.nan
                if k is not None:
                    Y[k] = np.nan
        return X, Y

    # the tangents ride on their carriers, from zero
    state = (np.concatenate([initial.positions for initial, _ in runs]),
             np.zeros((len(carriers), *runs[carriers[0]][0].positions.shape)) if carriers else None)
    positions, *tangents = _integrate(state, advance, cfg.n_steps, cfg.snapshot_stride,
                                      lambda state: state if carriers else state[:1])
    for b, e in enumerate(eps):
        if out[b] is None:
            k = carried.get(b)
            run = np.ascontiguousarray(positions[:, offsets[b]:offsets[b + 1]])
            out[b] = _trajectory(runs[0][0].time, cfg, run, weights[b].copy(), float(e),
                                 noises[b] if reads[b] else None,
                                 None if k is None else np.ascontiguousarray(tangents[0][:, k]))
    return out


# --------------------------------------------------------------------------
# SGD
# --------------------------------------------------------------------------


@dataclass
class SgdChain:
    """Discrete parameter chain with its measure-path embedding.

    ``positions[k]`` is the parameter state after k steps; the embedded
    measure path evaluates the chain at step floor(M t) (``embedded_step``).
    B chains run in lockstep hold their states on a second axis,
    ``positions[k, b]`` the state of the chain of ``seed[b]``; ``chains``
    splits them.
    """

    positions: np.ndarray  # (steps+1, M, d), or (steps+1, B, M, d) for B chains
    alpha: float
    batch_size: int
    seed: int | tuple

    @property
    def n_steps(self) -> int:
        return self.positions.shape[0] - 1

    @property
    def n_particles(self) -> int:
        return self.positions.shape[-2]

    def chains(self) -> list:
        """Each chain of a lockstep batch, or the SimulationError of its first
        non-finite step: a coordinate that is not finite stays so (x + dx),
        so that is the chain's first non-finite state after its start."""
        failed = ~np.isfinite(self.positions[1:]).all(axis=(2, 3))   # (steps, B)
        return [SimulationError(f"SGD diverged at step {failed[:, b].argmax() + 1}") if failed[:, b].any() else
                SgdChain(self.positions[:, b], self.alpha, self.batch_size, seed)
                for b, seed in enumerate(self.seed)]

    def state_at_step(self, k: int) -> np.ndarray:
        return self.positions[min(max(k, 0), self.n_steps)]

    def measure_at_time(self, t: float) -> EmpiricalMeasure:
        return EmpiricalMeasure.uniform(self.state_at_step(int(embedded_step(self.n_particles, t))))


def embedded_step(m: int, t, up: bool = False):
    """The SGD step floor(M t) (with ``up`` ceil(M t)) that the time embedding
    t = step / M reads at time(s) t, taken as a whole step when within 1e-9
    of one, as IntegratorConfig takes its step count: at M = 50 time 0.58 is
    step 29, though 50 * 0.58 = 28.999999999999996."""
    x = np.multiply(m, t)
    return (np.ceil(x - 1e-9) if up else np.floor(x + 1e-9)).astype(int)


def run_sgd(coeffs, n_particles: int, alpha: float, batch_size: int, n_steps: int,
            seed: int | Sequence[int], initial: np.ndarray) -> SgdChain:
    """Mini-batch SGD on the empirical risk in the mean-field normalization.

    The per-sample update for particle i is
    ``x_i += (alpha / P) * sum_{p in batch} (f_p - f^M(x, theta_p)) grad Phi(x_i, theta_p)``,
    whose data-mean is exactly the drift V(x_i, mu^M) and whose centered part
    is exactly the noise direction G; the fluctuation intensity is alpha / P.
    Each step is one channel contraction with kappa_p = (alpha / B) count_p r_p,
    count_p the draws of atom p in the batch of B.  Full-batch gradient
    descent is the transport run: ``simulate_transport`` at dt = alpha.

    ``initial`` (M, d) and an int ``seed`` run one chain, which raises
    SimulationError at its first non-finite step.  ``initial`` (B, M, d) and
    a sequence of B seeds run B chains in lockstep, one ``sgd_step`` of the
    batch per step, chain b on the batches of seed b: each is its one-chain
    run bit for bit, and a chain that goes non-finite fails alone, its
    error given by ``SgdChain.chains`` in its place.
    """
    check_integer("n_particles", n_particles, 1)
    check_real("alpha", alpha)
    check_integer("batch_size", batch_size, 1)
    check_integer("n_steps", n_steps, 0)
    if coeffs.mode != "network":
        raise ValueError("coeffs must be network-mode coefficients for run_sgd")
    X = np.array(initial, dtype=float)
    one = X.ndim < 3
    if one:
        X, seed = np.atleast_2d(X)[None], (seed,)
    elif not (isinstance(seed, Sequence) and len(seed) == X.shape[0]):
        raise ValueError(f"seed must be {X.shape[0]} seeds, one per chain of initial (got {seed!r})")
    if X.shape[1:] != (n_particles, coeffs.dim):
        raise ValueError(f"initial must be of shape ({n_particles}, {coeffs.dim}) per chain (got {X.shape[1:]})")
    # every step's batch in one draw per chain, the stream of one draw per step
    batches = np.stack([seeded_rng(s, "sgd-batches").choice(coeffs.n_channels, size=(n_steps, batch_size),
                                                            p=coeffs.channel_weights) for s in seed], 1)
    counts = (batches[..., None] == np.arange(coeffs.n_channels)).sum(axis=2)   # (steps, B, P)
    scales = alpha * (counts / batch_size)
    (out,) = _integrate(X, lambda X, step: coeffs.sgd_step(X, scales[step]), n_steps, 1, lambda X: (X,))
    batch = SgdChain(out, alpha=alpha, batch_size=batch_size, seed=tuple(seed))
    (chain,) = batch.chains() if one else (batch,)
    if isinstance(chain, SimulationError):
        raise chain
    return chain


# --------------------------------------------------------------------------
# Picard fixed point
# --------------------------------------------------------------------------


@dataclass
class PicardResult:
    trajectory: Trajectory
    gaps: list
    converged: bool
    iterations: int


def _solve_frozen(initial: ParticleEnsemble, coeffs, cfg: IntegratorConfig,
                  rows: np.ndarray | None, frozen: np.ndarray,
                  frozen_weights: np.ndarray) -> np.ndarray:
    """Linear solve with the measure path frozen to ``frozen[step]``; a
    diverging solve raises SimulationError at its first non-finite state."""

    def advance(X, step):
        dB = None if rows is None else rows[step]
        newX = X + coeffs.increment(X, (frozen[step], frozen_weights), cfg.dt, cfg.eps, dB)
        _check_finite(newX, step + 1, initial.time + (step + 1) * cfg.dt)
        return newX

    (path,) = _integrate(initial.positions, advance, cfg.n_steps, 1, lambda X: (X,))
    return path


def picard_solve(initial: ParticleEnsemble, coeffs, cfg: IntegratorConfig,
                 noise: NoisePath | None, tol: float, max_iter: int = 50) -> PicardResult:
    """Fixed-point iteration on the measure path driving the linear solves.

    Iterate n solves the SDE whose measure argument is the path of iterate
    n-1 (same noise); the gap is sup over steps of W2 between consecutive
    measure paths, by ``w2_sup``: consecutive iterates share the particle
    indices, so the index coupling bound leaves few steps to solve.  Starts
    from the constant-in-time initial measure.
    """
    check_real("tol", tol)
    check_integer("max_iter", max_iter, 1)
    _check_runs([initial], coeffs)
    n_steps = cfg.n_steps
    rows = _noise_rows(noise, cfg, coeffs) if cfg.eps > 0.0 else None
    weights = initial.weights.copy()
    prev = np.repeat(initial.positions[None, :, :], n_steps + 1, axis=0)
    prev_sorted = SortedAtoms.of(prev, weights)
    gaps: list[float] = []
    converged = False
    current = prev
    for it in range(1, max_iter + 1):
        current = _solve_frozen(initial, coeffs, cfg, rows, prev, weights)
        # each iterate is sorted once and compared with its successor too
        current_sorted = SortedAtoms.of(current, weights)
        gap = w2_sup(current_sorted, prev_sorted)[0]
        gaps.append(gap)
        prev, prev_sorted = current, current_sorted
        if gap < tol:
            converged = True
            break
    traj = _trajectory(initial.time, cfg, current[_record_indices(n_steps, cfg.snapshot_stride)], weights, cfg.eps,
                       noise)
    return PicardResult(trajectory=traj, gaps=gaps, converged=converged, iterations=len(gaps))


# --------------------------------------------------------------------------
# initial ensembles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialSpec:
    """Initial law: the uniform law on the box [low, high], checked when built."""

    low: Sequence[float]
    high: Sequence[float]

    def __post_init__(self):
        check_box(self.low, self.high)


def sample_initial(spec: InitialSpec, n: int, seed: int) -> ParticleEnsemble:
    """N i.i.d. draws with uniform weights, deterministic per seed (an
    ensemble on given atoms is ``ParticleEnsemble.uniform(atoms)``)."""
    check_integer("n", n, 1)
    lo = np.asarray(spec.low, dtype=float)
    hi = np.asarray(spec.high, dtype=float)
    pts = seeded_rng(seed, "initial").uniform(lo, hi, size=(n, lo.size))
    return ParticleEnsemble.uniform(pts)


# --------------------------------------------------------------------------
# trajectory serialization
# --------------------------------------------------------------------------


def write_trajectory(traj: Trajectory, path):
    """Columnar text: step, time, particle id, coordinates (and the tangent
    columns of a tangent solve).  The noise is referenced by metadata only:
    the seed, dt, step count and channel count that rebuild its NoisePath."""
    S, N, d = traj.positions.shape
    columns = [np.repeat(np.rint(traj.times / traj.dt), N), np.repeat(traj.times, N), np.tile(np.arange(N), S),
               traj.positions.reshape(S * N, d)]
    header = "columns: step time pid x1..xd"
    if traj.tangents is not None:
        columns.append(traj.tangents.reshape(S * N, d))
        header += " y1..yd"
    if traj.noise_meta is not None:
        m = traj.noise_meta
        header = (f"noise seed={m['seed']} dt={m['dt']:.17g} steps={m['n_steps']} "
                  f"channels={m['n_channels']}\n" + header)
    write_table(path, np.column_stack(columns), header)
