"""Fluctuation fields around the transport limit.

The finite-noise fluctuation field is the rescaled measure difference
``(mu^eps - mu^0) / sqrt(eps)``; its limit solves a linear SPDE driven by
the same noise.  That limit is solved here by a tangent-particle system:
``solve_tangent`` returns the transport run with, in its ``tangents``,
vectors that follow the linearization of the interacting dynamics with the
noise forcing at unit intensity, so that ``phi -> (1/N) sum grad phi(X_i)
. Y_i`` satisfies the weak formulation up to time discretization
(certified by ``weak_residual_linear``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (IntegratorConfig, NoisePath, ParticleEnsemble, SimulationError, Trajectory,
                       _check_finite, _integrate, _noise_rows)
from .diagnostics import check_panel, pair_panel, stack_panel
from .measures import HalfLattice, SignedAtomicField, SpectralGrid
from .measures import sobolev_neg_norm_diff  # noqa: F401  perfbench/tracer.py traces it at this name

__all__ = [
    "TangentEnsemble",
    "tangent_step",
    "solve_tangent",
    "eta_eps",
    "FluctuationPath",
    "clt_distance",
    "weak_residual_linear",
]


@dataclass
class TangentEnsemble:
    """Transport base points paired with tangent vectors, weight 1/N each."""

    base: np.ndarray      # (N, d)
    tangents: np.ndarray  # (N, d)
    time: float = 0.0

    def __post_init__(self):
        self.base = np.atleast_2d(np.asarray(self.base, dtype=float))
        self.tangents = np.atleast_2d(np.asarray(self.tangents, dtype=float))
        if self.base.shape != self.tangents.shape:
            raise ValueError("base points and tangents must have matching shape")

    @classmethod
    def at_rest(cls, base: np.ndarray) -> "TangentEnsemble":
        base = np.atleast_2d(np.asarray(base, dtype=float))
        return cls(base, np.zeros_like(base))

    def field(self) -> SignedAtomicField:
        return SignedAtomicField.tangent(self.base, self.tangents)


def tangent_step(tens: TangentEnsemble, coeffs, cfg: IntegratorConfig,
                 dB: np.ndarray) -> TangentEnsemble:
    """Advance base (transport Euler) and tangents (linearized dynamics).

    All coefficients are read at the pre-step base ensemble, through one
    jet: the transport run of a one-run ``coupled_step``.  The increment row
    must be the one driving the coupled noisy run.
    """
    dB = np.asarray(dB, dtype=float)
    if dB.shape != (coeffs.n_channels,):
        raise SimulationError(
            f"increment row has shape {dB.shape}, expected ({coeffs.n_channels},)"
        )
    X = tens.base
    n = X.shape[0]
    newX, newY = coeffs.coupled_step(X[None], np.full(n, 1.0 / n), cfg.dt, [0.0], dB,
                                     tens.tangents)
    newX = newX[0]
    t = tens.time + cfg.dt
    for state in (newX, newY):
        _check_finite(state, step=int(round(t / cfg.dt)), time=t)
    return TangentEnsemble(newX, newY, t)


def solve_tangent(initial_base: np.ndarray, coeffs, cfg: IntegratorConfig,
                  noise: NoisePath) -> Trajectory:
    """Integrate the tangent system from rest (the zero initial fluctuation of
    coupled runs on the same atoms): the transport run from ``initial_base``,
    bit for bit, with its ``tangents``; the one-run
    ``simulate_coupled([(initial, 0.0)], tangent=True)``."""
    rows = _noise_rows(noise, cfg, coeffs)
    # a diverging run raises SimulationError at its first non-finite base
    # point or tangent, as in simulate
    with np.errstate(over="ignore", invalid="ignore"):
        base, tangents, times = _integrate(
            TangentEnsemble.at_rest(initial_base), lambda t, k: tangent_step(t, coeffs, cfg, rows[k]),
            cfg.n_steps, cfg.snapshot_stride, lambda t: (t.base, t.tangents, t.time))
    n = base.shape[1]
    return Trajectory(times=times, positions=base, weights=np.full(n, 1.0 / n), dt=cfg.dt, eps=0.0,
                      snapshot_stride=cfg.snapshot_stride, noise_meta=noise.meta, tangents=tangents)


# --------------------------------------------------------------------------
# finite-eps fluctuation field
# --------------------------------------------------------------------------


@dataclass
class FluctuationPath:
    """eta^eps_t = (mu^eps_t - mu^0_t) / sqrt(eps) at each snapshot, kept as
    the atoms of the two coupled runs (weight 1/N each)."""

    times: np.ndarray      # (S,)
    positions: np.ndarray  # (S, N, d): the run at noise scale eps
    reference: np.ndarray  # (S, N, d): the transport run
    eps: float

    @property
    def n_snapshots(self) -> int:
        return self.times.shape[0]

    @property
    def fields(self) -> list:
        """The signed 2N-atom field of each snapshot."""
        n = self.positions.shape[1]
        scale = 1.0 / np.sqrt(self.eps)
        signed = np.concatenate([np.full(n, scale / n), np.full(n, -scale / n)])
        return [SignedAtomicField.atomic(np.concatenate([x, x0], axis=0), signed)
                for x, x0 in zip(self.positions, self.reference)]


def eta_eps(traj_eps, traj_zero, eps: float) -> FluctuationPath:
    """Rescaled measure difference (mu^eps_t - mu^0_t) / sqrt(eps), per snapshot.

    Both trajectories must share initial atoms, dt and snapshot grid (this is
    the zero-initial-fluctuation coupling).
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite (got {eps!r})")
    if traj_eps.n_snapshots != traj_zero.n_snapshots or not np.allclose(
        traj_eps.times, traj_zero.times, atol=1e-12
    ):
        raise ValueError("snapshot grids of the two trajectories do not match")
    if abs(traj_eps.dt - traj_zero.dt) > 1e-15:
        raise ValueError("trajectories use different time steps")
    if not np.array_equal(traj_eps.positions[0], traj_zero.positions[0]):
        raise ValueError("trajectories do not share initial atoms")
    return FluctuationPath(times=traj_eps.times.copy(), positions=traj_eps.positions,
                           reference=traj_zero.positions, eps=float(eps))


def _check_sobolev_order(name: str, j: int, dim: int):
    """ValueError naming ``name`` unless j >= ceil(d/2)+4, the order the CLT
    distance needs in d dimensions."""
    min_j = int(np.ceil(dim / 2)) + 4
    if j < min_j:
        raise ValueError(f"{name} must be at least ceil(d/2)+4={min_j} for d={dim} (got {j})")


def clt_distance(eta_paths: Sequence[FluctuationPath], tangent_traj: Trajectory,
                 grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """sup over snapshots of || eta^eps_t - eta_t ||_{-J} for each path, plus
    the (paths, snapshots) curves.

    Every path's reference must be the transport run ``tangent_traj`` carries
    its tangents on.  Per snapshot its atoms and the tangent field are
    transformed once, through one set of phase rows, and each eps run once:
    with C_eps and C_0 the unit-weight coefficients of the eps run and of the
    transport run and T those of the tangent field, the distance is the norm
    of (C_eps - C_0) / (N sqrt(eps)) - T, N the atoms per run.  A path whose
    atoms equal the transport run's bit for bit while every tangent is zero
    is at distance exactly 0 and is not transformed: at t = 0 every path is,
    since the coupled runs share their atoms and the tangents start at rest.
    """
    if not eta_paths:
        raise ValueError("clt_distance needs at least one fluctuation path")
    transport, tangents = tangent_traj.positions, tangent_traj.tangents
    if tangents is None:
        raise ValueError("tangents must be set: clt_distance reads a solve_tangent trajectory")
    for path in eta_paths:
        if path.n_snapshots != tangent_traj.n_snapshots or not np.allclose(
            path.times, tangent_traj.times, atol=1e-12
        ):
            raise ValueError("snapshot grids do not match")
        if not np.array_equal(path.reference, transport):
            raise ValueError("fluctuation paths must be taken against the tangent trajectory's transport run")
    n, dim = transport.shape[1:]
    _check_sobolev_order("sobolev order j", grid.j, dim)
    lattice = HalfLattice(grid, dim)
    lattice.warn_tail()
    curves = np.zeros((len(eta_paths), tangent_traj.n_snapshots))
    for s in range(tangent_traj.n_snapshots):
        # a path that coincides with the transport run is not transformed:
        # this is its box check
        grid.check_inside(transport[s])
        at_rest = not tangents[s].any()
        live = [p for p, path in enumerate(eta_paths)
                if not (at_rest and np.array_equal(path.positions[s], transport[s]))]
        if not live:
            continue
        both = lattice.transform(transport[s], np.column_stack([np.ones(n), tangents[s] / n]))
        c_zero, tangent = both[0], lattice.tangent(both[1:])
        for p in live:
            path = eta_paths[p]
            c_eps = lattice.transform(path.positions[s])[0]
            scale = path.positions.shape[1] * np.sqrt(path.eps)
            curves[p, s] = lattice.norms((c_eps - c_zero) / scale - tangent)
    return curves.max(axis=1), curves


# --------------------------------------------------------------------------
# weak-form certificate for the tangent solver
# --------------------------------------------------------------------------


def weak_residual_linear(tangent_traj: Trajectory, coeffs, noise: NoisePath,
                         panel) -> dict:
    """Residual of the linear fluctuation equation in weak form, per test function.

    R(phi) = <phi, eta_T> - <phi, eta_0>
             - sum_s [ <grad phi . v, eta_s> + <grad phi(x) . <Vtilde(x,.), eta_s>, mu0_s(dx)> ] dt
             - sum_s sum_p <grad phi . G(., mu0_s, theta_p), mu0_s> sqrt(w_p) dB_p,

    all pairings through the tangent representation, left-point quadrature.
    Requires a full-resolution tangent trajectory driven by ``noise``.
    """
    if tangent_traj.tangents is None:
        raise ValueError("tangents must be set: weak_residual_linear reads a solve_tangent trajectory")
    if tangent_traj.snapshot_stride != 1:
        raise ValueError("weak residual needs a full-resolution tangent trajectory")
    if tangent_traj.noise_meta != noise.meta:
        raise ValueError("noise does not match the trajectory provenance")
    n_steps = tangent_traj.n_snapshots - 1
    dt = tangent_traj.dt
    phis = check_panel(panel)
    base, tangents = tangent_traj.positions, tangent_traj.tangents

    # boundary terms of the weak identity, <phi, eta_s> = sum_i grad phi(x_i) . y_i
    # before the 1/N: <phi, eta_0> comes with step 0's jet (zero on a run of no steps)
    end = pair_panel(stack_panel(phis, base[-1], 1)[1], tangents[-1])
    residuals = np.zeros_like(end)
    for s in range(n_steps):
        X = base[s]
        Y = tangents[s]
        mu = ParticleEnsemble.uniform(X)
        v = coeffs.drift(X, mu)                      # (N, d)
        jac_v_y = coeffs.drift_jacobian_apply(X, Y, mu)
        inter = coeffs.vtilde_y_apply(X, X, Y)
        _, grads, hess = stack_panel(phis, X, 2)     # (F, N, d), (F, N, d, d)
        if s == 0:
            residuals = end - pair_panel(grads, Y)
        # <grad phi . v, eta_s> through tangents: D2 phi : (Y (x) v) + grad phi . (Dv Y),
        # plus the interaction pairing <grad phi(x) . <Vtilde(x,.), eta_s>, mu0_s>
        drift = pair_panel(hess, Y[:, :, None] * v[:, None, :]) + pair_panel(grads, jac_v_y + inter)
        # martingale forcing, through sum_p G_p sqrt(w_p) dB_p
        forcing = pair_panel(grads, coeffs.noise_increment(X, mu, noise.increments[s]))
        residuals -= drift * dt + forcing
    n = base.shape[1]
    return {phi.name: float(r / n) for phi, r in zip(phis, residuals)}
