"""Fluctuation fields: the rescaled difference and its tangent-particle limit.

eta^eps = (mu^eps - mu^0)/sqrt(eps) is an atomic signed field; its limit
solves a linear equation driven by the same noise and is represented here by
tangent vectors riding on the transport flow: the tangent solve returns the
transport run itself, carrying those vectors.  Coupling everything to one
Brownian path makes ||eta^eps - eta||^2 shrink linearly in eps, which is the
quantified central limit behavior.
"""

from dataclasses import replace

import numpy as np

from meanfield_sgd import (
    IntegratorConfig,
    NoisePath,
    SpectralGrid,
    clt_distance,
    eta_eps,
    sample_initial,
    simulate,
    solve_tangent,
)
from meanfield_sgd.diagnostics import gaussian_bump
from meanfield_sgd.harness import build_coefficients, build_initial_spec, reference_config
from meanfield_sgd.measures import pair

cfg = reference_config(n_particles=80)
coeffs = build_coefficients(cfg)
initial = sample_initial(build_initial_spec(cfg), cfg.n_particles, seed=3)

run = IntegratorConfig(dt=1e-3, horizon=0.5, snapshot_stride=50)
noise = NoisePath(seed=3, dt=run.dt, n_steps=run.n_steps, n_channels=coeffs.n_channels)

tangent = solve_tangent(initial.positions, coeffs, run, noise)
phi = gaussian_bump([0.0, 0.0], 1.0)
print(f"<bump, eta_T> from the tangent solver: {pair(tangent.field_at(-1), phi):+.5f}")

eps_grid = (3e-2, 1e-2, 3e-3, 1e-3)
maxabs = np.abs(tangent.positions).max()
paths = {}
for eps in eps_grid:
    traj = simulate(initial, coeffs, replace(run, eps=eps), noise)
    maxabs = max(maxabs, np.abs(traj.positions).max())
    paths[eps] = eta_eps(traj, tangent, eps)

grid = SpectralGrid(r_box=1.2 * maxabs, k_max=64, j=5)
print(f"\nspectral box half-width {grid.r_box:.3f}, J={grid.j}, K_max={grid.k_max}")
print("eps       sup_t ||eta^eps - eta||^2   <bump, eta^eps_T>")
sups, _ = clt_distance([paths[eps] for eps in eps_grid], tangent, grid)
values = sups**2
for eps, value in zip(eps_grid, values):
    print(f"{eps:7.0e}  {value:.6e}            {pair(paths[eps].fields[-1], phi):+.5f}")
slope = np.polyfit(np.log(eps_grid), np.log(values), 1)[0]
print(f"\none-seed slope of the squared distance: {slope:.3f}; theory: 1")
