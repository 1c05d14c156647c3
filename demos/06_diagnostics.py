"""Structural identities checked on one recorded path.

Everything here is a pure function of the recorded trajectory and the noise
metadata: the weak-form residual (order dt), the quadratic-variation match,
the collision monitor, moment tracking, and the atomic-class functional that
vanishes exactly on measures with few distinct atoms.
"""

import numpy as np

from meanfield_sgd import (
    EmpiricalMeasure,
    IntegratorConfig,
    NoisePath,
    f_n_functional,
    min_pairwise_distance,
    moment_track,
    qv_check,
    sample_initial,
    simulate,
    smfe_weak_residual_panel,
)
from meanfield_sgd.diagnostics import standard_panel
from meanfield_sgd.harness import build_coefficients, build_initial_spec, reference_config

cfg = reference_config(n_particles=100)
coeffs = build_coefficients(cfg)
initial = sample_initial(build_initial_spec(cfg), cfg.n_particles, seed=5)
eps = 1e-2
run = IntegratorConfig(dt=1e-3, horizon=0.5, eps=eps, snapshot_stride=1)
noise = NoisePath(5, run.dt, run.n_steps, coeffs.n_channels)
traj = simulate(initial, coeffs, run, noise)

print("weak-form residuals (order dt, so ~1e-6 at dt=1e-3):")
for name, r in smfe_weak_residual_panel(traj, noise, coeffs, eps, standard_panel(2)).items():
    print(f"  R({name:>8}) = {r:+.3e}")

phi = [p for p in standard_panel(2) if p.name == "bump0"][0]
realized, predicted = qv_check(traj, coeffs, phi)
print(f"\nquadratic variation of <bump0, mu_t>: realized {realized:.3e}, "
      f"predicted {predicted:.3e}, ratio {realized/predicted:.3f}")

curve, ratio = min_pairwise_distance(traj)
print(f"\nmin pairwise distance: initial {curve[0]:.4f}, global min {curve.min():.4f}, "
      f"ratio {ratio:.3f} (particles never meet)")

sup2, rel2 = moment_track(traj, 2)
print(f"second moment: sup_t = {sup2:.4f}, sup/(1+initial) = {rel2:.3f}")

two_atoms = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
print(f"\nF_3 on a 2-atom measure (exactly zero): {f_n_functional(two_atoms, 3)}")
print(f"F_2 on the same measure: {f_n_functional(two_atoms, 2):.4f}")
