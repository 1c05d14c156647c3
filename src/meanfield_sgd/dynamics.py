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

import numbers
import zlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .measures import EmpiricalMeasure, SignedAtomicField, SortedAtoms, w2_sup

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
    "picard_solve",
    "PicardResult",
    "sample_initial",
    "InitialSpec",
    "write_trajectory",
    "seeded_rng",
]


class SimulationError(RuntimeError):
    pass


def _check_integer(name: str, value, low: int):
    """ValueError naming ``name`` unless ``value`` is an integer (not a bool) >= ``low``."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low} (got {value!r})")


def _check_box(low, high, names: tuple = ("low", "high")):
    """ValueError naming the bound at fault unless [low, high] is a box:
    non-empty finite vectors of one length with low <= high in every
    coordinate (low == high is a point mass there)."""
    bounds = []
    for name, value in zip(names, (low, high)):
        try:
            bounds.append(np.asarray(value, dtype=float))
        except (TypeError, ValueError):
            bounds.append(np.empty(0))
        if not (bounds[-1].ndim == 1 and bounds[-1].size and np.all(np.isfinite(bounds[-1]))):
            raise ValueError(f"{name} must be a non-empty sequence of finite numbers (got {value!r})")
    if bounds[1].size != bounds[0].size or np.any(bounds[0] > bounds[1]):
        raise ValueError(f"{names[1]} must be as long as {names[0]} and >= it in every coordinate "
                         f"(got {names[0]}={low!r}, {names[1]}={high!r})")


def seeded_rng(seed: int, tag: str) -> np.random.Generator:
    """Deterministic generator for (seed, role ``tag``); stable across platforms."""
    return np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(tag.encode()))))


class NoisePath:
    """Seeded Gaussian increment block, one channel per data atom.

    ``increments[step, p] ~ Normal(0, dt)`` i.i.d. across (step, p).  A
    coupled pair of runs must hold the same object (or a coarsening of the
    same fine path).  Only (seed, dt, n_steps) ever gets serialized.
    """

    def __init__(self, seed: int, dt: float, n_steps: int, n_channels: int,
                 _increments: np.ndarray | None = None):
        _check_integer("seed", seed, 0)
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite (got {dt!r})")
        _check_integer("n_steps", n_steps, 0)
        _check_integer("n_channels", n_channels, 1)
        self.seed = int(seed)
        self.dt = float(dt)
        self.n_steps = int(n_steps)
        self.n_channels = int(n_channels)
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
        _check_integer("factor", factor, 1)
        if self.n_steps % factor != 0:
            raise ValueError("coarsening factor must divide the number of steps")
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
            raise ValueError("one weight per particle required")

    @classmethod
    def uniform(cls, positions: np.ndarray) -> "ParticleEnsemble":
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        if positions.size == 0:
            raise ValueError(f"positions must be at least one point (got shape {positions.shape})")
        n = positions.shape[0]
        return cls(positions, np.full(n, 1.0 / n))

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

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
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite (got {self.dt!r})")
        if not (np.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(f"horizon must be nonnegative and finite (got {self.horizon!r})")
        if not (np.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be nonnegative and finite (got {self.eps!r})")
        ratio = self.horizon / self.dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("horizon must be an integer multiple of dt")
        _check_integer("snapshot_stride", self.snapshot_stride, 1)

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


def step_interacting(ens: ParticleEnsemble, coeffs, cfg: IntegratorConfig,
                     dB: np.ndarray | None) -> ParticleEnsemble:
    """One Euler-Maruyama step; every particle reads the pre-step ensemble
    and the same increment row (common noise).  A one-run ``coupled_step``."""
    if cfg.eps > 0.0:
        if dB is None:
            raise SimulationError("eps > 0 requires a noise increment row")
        dB = np.asarray(dB, dtype=float)
        if dB.shape != (coeffs.n_channels,):
            raise SimulationError(
                f"increment row has {dB.shape} channels, expected ({coeffs.n_channels},)"
            )
    (newX,) = coeffs.coupled_step(ens.positions[None], ens.weights, cfg.dt, [cfg.eps], dB)
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
        raise SimulationError("a noisy run requires a NoisePath")
    if noise.n_channels != coeffs.n_channels:
        raise SimulationError(
            f"noise path has {noise.n_channels} channels, expected {coeffs.n_channels}"
        )
    if noise.n_steps < cfg.n_steps:
        raise SimulationError("noise path shorter than the time horizon")
    if abs(noise.dt - cfg.dt) > 1e-12 * max(1.0, cfg.dt):
        raise SimulationError("noise path dt differs from integrator dt")
    return noise.increments


def _integrate(state, advance, n_steps: int, stride: int, snapshot) -> list[np.ndarray]:
    """The integrator loop: ``state = advance(state, step)`` for each step.

    ``snapshot(state)`` is a tuple of arrays (or scalars) recorded at the
    ``_record_indices`` steps, the initial state included; returns one array
    per tuple entry with the recorded snapshots along its first axis.
    """
    record = _record_indices(n_steps, stride)
    first = snapshot(state)
    frames = [np.empty((record.size,) + np.shape(a)) for a in first]
    for frame, a in zip(frames, first):
        frame[0] = a
    out = 1
    for step in range(n_steps):
        state = advance(state, step)
        if record[out] == step + 1:
            for frame, a in zip(frames, snapshot(state)):
                frame[out] = a
            out += 1
    return frames


def simulate(initial: ParticleEnsemble, coeffs, cfg: IntegratorConfig,
             noise: NoisePath | None) -> Trajectory:
    """Integrate the interacting system; deterministic in (initial, seed, cfg)."""
    rows = _noise_rows(noise, cfg, coeffs) if cfg.eps > 0.0 else None
    ens = ParticleEnsemble(initial.positions.copy(), initial.weights.copy(), initial.time)
    # a diverging run raises SimulationError at its first non-finite state;
    # numpy's overflow warnings on the way there add nothing to that
    with np.errstate(over="ignore", invalid="ignore"):
        positions, times = _integrate(
            ens, lambda e, k: step_interacting(e, coeffs, cfg, None if rows is None else rows[k]),
            cfg.n_steps, cfg.snapshot_stride, lambda e: (e.positions, e.time))
    return Trajectory(
        times=times,
        positions=positions,
        weights=initial.weights.copy(),
        dt=cfg.dt,
        eps=cfg.eps,
        snapshot_stride=cfg.snapshot_stride,
        noise_meta=noise.meta if noise is not None else None,
    )


def simulate_transport(initial: ParticleEnsemble, coeffs, cfg: IntegratorConfig) -> Trajectory:
    """The eps = 0 limit; consumes no noise."""
    return simulate(initial, coeffs, replace(cfg, eps=0.0), noise=None)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Where each run starts, and the last ends, in a concatenation of runs of ``sizes``."""
    return np.concatenate([[0], np.cumsum(sizes)])


def simulate_coupled(runs: Sequence[tuple[ParticleEnsemble, float]], coeffs, cfg: IntegratorConfig,
                     noise: NoisePath | None, tangent: bool = False) -> list:
    """The coupled ``runs``, (initial, eps) pairs, integrated as one batch
    under the one increment row per step.

    Run b is ``simulate(initial_b, coeffs, replace(cfg, eps=eps_b), noise)``
    (``noise_meta`` None at eps 0).  Runs of one size on one weight vector
    step as the (B, N, d) reshape of the batch and equal their own runs bit
    for bit; runs of different sizes step as one segmented batch (see
    ``coupled_step``) and equal them to rounding.  With ``tangent`` the
    last run must be at eps 0, and it is the one ``solve_tangent`` returns
    for the same particle weights: the transport run with its tangents,
    from zero.  A run that goes non-finite drops out of the batch there, and
    its entry is the SimulationError its own run raises; the others go on.
    Returns one Trajectory or SimulationError per run.
    """
    if not runs:
        return []
    eps = np.array([float(e) for _, e in runs])
    if tangent and eps[-1] != 0.0:
        raise ValueError(f"eps must end in 0 to carry the tangents (got {eps.tolist()})")
    rows = _noise_rows(noise, cfg, coeffs) if tangent or np.any(eps > 0.0) else None
    weights = [initial.weights for initial, _ in runs]
    sizes = np.array([w.size for w in weights])
    # runs of one size on one weight vector keep the per-run sums of a (B, N, d) batch
    shared = all(np.array_equal(w, weights[0]) for w in weights)
    out: list = [None] * eps.size

    def advance(state, step):
        X, W, Y, t, live, offsets = state
        if not live.size:
            return state
        t = t + cfg.dt
        dB = None if rows is None else rows[step]
        if shared:
            moved = coeffs.coupled_step(X.reshape(live.size, -1, X.shape[-1]), weights[0], cfg.dt,
                                        eps[live].tolist(), dB, Y)
        else:
            moved = coeffs.coupled_step(X, W, cfg.dt, eps[live].tolist(), dB, Y, offsets)
        X, Y = moved if Y is not None else (moved, None)
        X = X.reshape(W.size, -1)
        if np.isfinite(X).all() and (Y is None or np.isfinite(Y).all()):
            return X, W, Y, t, live, offsets
        keep = np.logical_and.reduceat(np.isfinite(X).all(axis=1), offsets[:-1])
        if Y is not None and keep[-1]:
            keep[-1] = np.isfinite(Y).all()
        at = int(round(t / cfg.dt))
        for b in np.flatnonzero(~keep):
            run = X[offsets[b]:offsets[b + 1]]
            out[live[b]] = _divergence(run, at, t) or _divergence(Y, at, t)
        if Y is not None and not keep[-1]:
            Y = None
        particles = np.repeat(keep, sizes[live])
        live = live[keep]
        return X[particles], W[particles], Y, t, live, _offsets(sizes[live])

    def snapshot(state):
        X, _, Y, t, live, _ = state
        if live.size < eps.size:   # a dropped run's rows are nan
            X = np.full((sizes.sum(), X.shape[-1]), np.nan)
            X[np.repeat(np.isin(np.arange(eps.size), live), sizes)] = state[0]
        return (X, t, zero if Y is None else Y) if tangent else (X, t)

    # the tangents ride on the last run, from zero
    zero = np.zeros_like(runs[-1][0].positions) if tangent else None
    state = (np.concatenate([initial.positions for initial, _ in runs]), np.concatenate(weights), zero,
             runs[0][0].time, np.arange(eps.size), _offsets(sizes))
    # a diverging run drops out at its first non-finite state; numpy's
    # overflow warnings on the way there add nothing to its error
    with np.errstate(over="ignore", invalid="ignore"):
        positions, times, *tangents = _integrate(state, advance, cfg.n_steps, cfg.snapshot_stride,
                                                 snapshot)
    offsets = _offsets(sizes)
    for b, e in enumerate(eps):
        if out[b] is None:
            carries = tangent and b == eps.size - 1
            out[b] = Trajectory(
                times=times.copy(),
                positions=np.ascontiguousarray(positions[:, offsets[b]:offsets[b + 1]]),
                weights=weights[b].copy(), dt=cfg.dt, eps=float(e), snapshot_stride=cfg.snapshot_stride,
                noise_meta=noise.meta if e > 0.0 or carries else None,
                tangents=tangents[0] if carries else None)
    return out


# --------------------------------------------------------------------------
# SGD
# --------------------------------------------------------------------------


@dataclass
class SgdChain:
    """Discrete parameter chain with its measure-path embedding.

    ``positions[k]`` is the parameter state after k steps; the embedded
    measure path evaluates the chain at step floor(M t).
    """

    positions: np.ndarray  # (steps+1, M, d)
    alpha: float
    batch_size: int
    seed: int

    @property
    def n_steps(self) -> int:
        return self.positions.shape[0] - 1

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    def state_at_step(self, k: int) -> np.ndarray:
        return self.positions[min(max(k, 0), self.n_steps)]

    def measure_at_time(self, t: float) -> EmpiricalMeasure:
        k = int(np.floor(self.n_particles * t))
        return EmpiricalMeasure.uniform(self.state_at_step(k))


def run_sgd(coeffs, n_particles: int, alpha: float, batch_size: int, n_steps: int,
            seed: int, initial: np.ndarray) -> SgdChain:
    """Mini-batch SGD on the empirical risk in the mean-field normalization.

    The per-sample update for particle i is
    ``x_i += (alpha / P) * sum_{p in batch} (f_p - f^M(x, theta_p)) grad Phi(x_i, theta_p)``,
    whose data-mean is exactly the drift V(x_i, mu^M) and whose centered part
    is exactly the noise direction G; the fluctuation intensity is alpha / P.
    Each step is one channel contraction with kappa_p = (alpha / B) count_p r_p,
    count_p the draws of atom p in the batch of B.  Full-batch gradient
    descent is the transport run: ``simulate_transport`` at dt = alpha.
    """
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite (got {alpha!r})")
    _check_integer("batch_size", batch_size, 1)
    if coeffs.mode != "network":
        raise ValueError("run_sgd needs network-mode coefficients")
    _check_integer("n_steps", n_steps, 0)
    X = np.atleast_2d(np.asarray(initial, dtype=float)).copy()
    if X.shape != (n_particles, coeffs.dim):
        raise ValueError(f"initial parameters must have shape ({n_particles}, {coeffs.dim})")
    # every step's batch in one draw, the stream of one draw per step
    n_ch = coeffs.n_channels
    batches = seeded_rng(seed, "sgd-batches").choice(n_ch, size=(n_steps, batch_size),
                                                     p=coeffs.channel_weights)
    counts = np.bincount((batches + n_ch * np.arange(n_steps)[:, None]).ravel(),
                         minlength=n_steps * n_ch).reshape(n_steps, n_ch)
    scales = alpha * (counts / batch_size)

    def advance(X, step):
        X = coeffs.sgd_step(X, scales[step])
        if not np.all(np.isfinite(X)):
            raise SimulationError(f"SGD diverged at step {step + 1}")
        return X

    (out,) = _integrate(X, advance, n_steps, 1, lambda X: (X,))
    return SgdChain(out, alpha=alpha, batch_size=batch_size, seed=seed)


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
    """Linear solve with the measure path frozen to ``frozen[step]``."""

    def advance(X, step):
        dB = None if rows is None else rows[step]
        newX = X + coeffs.increment(X, (frozen[step], frozen_weights), cfg.dt, cfg.eps, dB)
        _check_finite(newX, step + 1, (step + 1) * cfg.dt)
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
    if not tol > 0:
        raise ValueError(f"tol must be positive (got {tol!r})")
    _check_integer("max_iter", max_iter, 1)
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
    record = _record_indices(n_steps, cfg.snapshot_stride)
    traj = Trajectory(
        times=record * cfg.dt,
        positions=current[record],
        weights=weights,
        dt=cfg.dt,
        eps=cfg.eps,
        snapshot_stride=cfg.snapshot_stride,
        noise_meta=noise.meta if noise is not None else None,
    )
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
        _check_box(self.low, self.high)


def sample_initial(spec: InitialSpec, n: int, seed: int) -> ParticleEnsemble:
    """N i.i.d. draws with uniform weights, deterministic per seed (an
    ensemble on given atoms is ``ParticleEnsemble.uniform(atoms)``)."""
    _check_integer("n", n, 1)
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
    tangents = traj.tangents
    with open(path, "w", encoding="utf-8") as fh:
        if traj.noise_meta is not None:
            m = traj.noise_meta
            fh.write(f"# noise seed={m['seed']} dt={m['dt']:.17g} steps={m['n_steps']} "
                     f"channels={m['n_channels']}\n")
        fh.write("# columns: step time pid x1..xd" + (" y1..yd" if tangents is not None else "") + "\n")
        for s in range(traj.n_snapshots):
            step = int(round(traj.times[s] / traj.dt))
            for i in range(traj.positions.shape[1]):
                coords = " ".join(f"{v:.17g}" for v in traj.positions[s, i])
                row = f"{step} {traj.times[s]:.17g} {i} {coords}"
                if tangents is not None:
                    row += " " + " ".join(f"{v:.17g}" for v in tangents[s, i])
                fh.write(row + "\n")
