"""Fluctuation fields around the transport limit.

The finite-noise fluctuation field is the rescaled measure difference
``(mu^eps - mu^0) / sqrt(eps)``; its limit solves a linear SPDE driven by
the same noise.  That limit is solved here by a tangent-particle system:
base points follow the transport flow, tangent vectors follow the
linearization of the interacting dynamics with the noise forcing at unit
intensity, so that ``phi -> (1/N) sum grad phi(X_i) . Y_i`` satisfies the
weak formulation up to time discretization (certified by
``weak_residual_linear``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import IntegratorConfig, NoisePath, ParticleEnsemble, SimulationError, _integrate, _noise_rows
from .measures import SignedAtomicField, SpectralGrid, sobolev_neg_norm_diff

__all__ = [
    "TangentEnsemble",
    "TangentTrajectory",
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

    @property
    def n_particles(self) -> int:
        return self.base.shape[0]

    def field(self) -> SignedAtomicField:
        return SignedAtomicField.tangent(self.base, self.tangents)


@dataclass
class TangentTrajectory:
    times: np.ndarray      # (S,)
    base: np.ndarray       # (S, N, d)
    tangents: np.ndarray   # (S, N, d)
    dt: float
    snapshot_stride: int
    noise_meta: dict | None = None

    @property
    def n_snapshots(self) -> int:
        return self.times.shape[0]

    def field_at(self, index: int) -> SignedAtomicField:
        return SignedAtomicField.tangent(self.base[index], self.tangents[index])

    def base_ensemble_at(self, index: int) -> ParticleEnsemble:
        return ParticleEnsemble.uniform(self.base[index].copy(), time=float(self.times[index]))


def tangent_step(tens: TangentEnsemble, coeffs, cfg: IntegratorConfig,
                 dB: np.ndarray) -> TangentEnsemble:
    """Advance base (transport Euler) and tangents (linearized dynamics).

    All coefficients are read at the pre-step base ensemble; the increment
    row must be the one driving the coupled noisy run.
    """
    dB = np.asarray(dB, dtype=float)
    if dB.shape != (coeffs.n_channels,):
        raise SimulationError(
            f"increment row has shape {dB.shape}, expected ({coeffs.n_channels},)"
        )
    X = tens.base
    Y = tens.tangents
    mu = ParticleEnsemble.uniform(X)
    jac = coeffs.drift_jacobian_apply(X, Y, mu)
    inter = coeffs.vtilde_y_apply(X, X, Y)
    forcing = coeffs.noise_increment(X, mu, dB)
    newY = Y + (jac + inter) * cfg.dt + forcing
    newX = X + coeffs.increment(X, mu, cfg.dt, 0.0, None)
    return TangentEnsemble(newX, newY, tens.time + cfg.dt)


def solve_tangent(initial_base: np.ndarray, coeffs, cfg: IntegratorConfig,
                  noise: NoisePath, initial_tangents: np.ndarray | None = None) -> TangentTrajectory:
    """Integrate the tangent system from zero (or given) initial tangents."""
    rows = _noise_rows(noise, cfg)
    tens = (
        TangentEnsemble.at_rest(initial_base)
        if initial_tangents is None
        else TangentEnsemble(np.array(initial_base, dtype=float), np.array(initial_tangents, dtype=float))
    )
    base, tangents, times = _integrate(
        tens, lambda t, k: tangent_step(t, coeffs, cfg, rows[k]),
        cfg.n_steps, cfg.snapshot_stride, lambda t: (t.base, t.tangents, t.time))
    return TangentTrajectory(times=times, base=base, tangents=tangents, dt=cfg.dt,
                             snapshot_stride=cfg.snapshot_stride, noise_meta=noise.meta)


# --------------------------------------------------------------------------
# finite-eps fluctuation field
# --------------------------------------------------------------------------


@dataclass
class FluctuationPath:
    """Snapshot sequence of signed fields (one per recorded time)."""

    times: np.ndarray
    fields: list

    @property
    def n_snapshots(self) -> int:
        return self.times.shape[0]


def eta_eps(traj_eps, traj_zero, eps: float) -> FluctuationPath:
    """Rescaled measure difference (mu^eps_t - mu^0_t) / sqrt(eps), per snapshot.

    Both trajectories must share initial atoms, dt and snapshot grid (this is
    the zero-initial-fluctuation coupling).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if traj_eps.n_snapshots != traj_zero.n_snapshots or not np.allclose(
        traj_eps.times, traj_zero.times, atol=1e-12
    ):
        raise ValueError("snapshot grids of the two trajectories do not match")
    if abs(traj_eps.dt - traj_zero.dt) > 1e-15:
        raise ValueError("trajectories use different time steps")
    if not np.array_equal(traj_eps.positions[0], traj_zero.positions[0]):
        raise ValueError("trajectories do not share initial atoms")
    n = traj_eps.positions.shape[1]
    scale = 1.0 / np.sqrt(eps)
    signed = np.concatenate([np.full(n, scale / n), np.full(n, -scale / n)])
    fields = []
    for s in range(traj_eps.n_snapshots):
        atoms = np.concatenate([traj_eps.positions[s], traj_zero.positions[s]], axis=0)
        fields.append(SignedAtomicField.atomic(atoms, signed))
    return FluctuationPath(times=traj_eps.times.copy(), fields=fields)


def clt_distance(eta_path: FluctuationPath, tangent_traj: TangentTrajectory,
                 grid: SpectralGrid) -> tuple[float, np.ndarray]:
    """sup over snapshots of || eta^eps_t - eta_t ||_{-J}, plus the full curve."""
    if eta_path.n_snapshots != tangent_traj.n_snapshots or not np.allclose(
        eta_path.times, tangent_traj.times, atol=1e-12
    ):
        raise ValueError("snapshot grids do not match")
    dim = tangent_traj.base.shape[2]
    min_j = int(np.ceil(dim / 2)) + 4
    if grid.j < min_j:
        raise ValueError(f"sobolev order j={grid.j} below required ceil(d/2)+4={min_j}")
    curve = np.empty(eta_path.n_snapshots)
    for s in range(eta_path.n_snapshots):
        curve[s] = sobolev_neg_norm_diff(eta_path.fields[s], tangent_traj.field_at(s), grid)
    return float(curve.max()), curve


# --------------------------------------------------------------------------
# weak-form certificate for the tangent solver
# --------------------------------------------------------------------------


def weak_residual_linear(tangent_traj: TangentTrajectory, coeffs, noise: NoisePath,
                         panel) -> dict:
    """Residual of the linear fluctuation equation in weak form, per test function.

    R(phi) = <phi, eta_T> - <phi, eta_0>
             - sum_s [ <grad phi . v, eta_s> + <grad phi(x) . <Vtilde(x,.), eta_s>, mu0_s(dx)> ] dt
             - sum_s sum_p <grad phi . G(., mu0_s, theta_p), mu0_s> sqrt(w_p) dB_p,

    all pairings through the tangent representation, left-point quadrature.
    Requires a full-resolution tangent trajectory driven by ``noise``.
    """
    if tangent_traj.snapshot_stride != 1:
        raise ValueError("weak residual needs a full-resolution tangent trajectory")
    if tangent_traj.noise_meta != noise.meta:
        raise ValueError("noise does not match the trajectory provenance")
    n_steps = tangent_traj.n_snapshots - 1
    dt = tangent_traj.dt
    sqrt_w = np.sqrt(coeffs.channel_weights)
    phis = list(panel)
    residuals = {phi.name: 0.0 for phi in phis}
    n = tangent_traj.base.shape[1]
    for phi in phis:
        # boundary terms of the weak identity
        grads_T = phi.grad(tangent_traj.base[n_steps])
        grads_0 = phi.grad(tangent_traj.base[0])
        r = float(np.einsum("nd,nd->", grads_T, tangent_traj.tangents[n_steps]) / n)
        r -= float(np.einsum("nd,nd->", grads_0, tangent_traj.tangents[0]) / n)
        residuals[phi.name] = r
    for s in range(n_steps):
        X = tangent_traj.base[s]
        Y = tangent_traj.tangents[s]
        mu = ParticleEnsemble.uniform(X)
        v = coeffs.drift(X, mu)                      # (N, d)
        jac_v_y = coeffs.drift_jacobian_apply(X, Y, mu)
        inter = coeffs.vtilde_y_apply(X, X, Y)
        G = coeffs.noise_matrix(X, mu)               # (N, P, d)
        dB = noise.increments[s]
        for phi in phis:
            grads = phi.grad(X)                      # (N, d)
            hess = phi.hess(X)                       # (N, d, d)
            # <grad phi . v, eta_s> through tangents: grad(grad phi . v) . Y
            hv = np.einsum("nij,nj->ni", hess, v)
            term_v = float(np.einsum("nd,nd->", hv, Y) / n)
            term_v += float(np.einsum("nd,nd->", grads, jac_v_y) / n)
            # interaction pairing <grad phi(x) . <Vtilde(x,.), eta_s>, mu0_s>
            term_i = float(np.einsum("nd,nd->", grads, inter) / n)
            # martingale forcing
            gpair = np.einsum("nd,npd->p", grads, G) / n
            term_m = float((gpair * sqrt_w) @ dB)
            residuals[phi.name] -= (term_v + term_i) * dt + term_m
    return residuals
