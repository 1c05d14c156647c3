"""The stacked W2 path against the per-pair W2 it replaced.

The oracle is the per-pair code as it stood before snapshot stacks: every
pair sorted again, the quantile coupling in one dimension, and in d >= 2 the
assignment on a cost matrix built from the (N, N, d) difference tensor by an
einsum.  The stacked path builds the cost with ``cdist`` from snapshots
sorted once per run.  At d = 1 and d = 2 both give bit-identical squared
distances; at d = 3 ``cdist`` sums the squared differences in another order,
and the squared W2 agrees to 1e-14 relative.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from meanfield_sgd.harness import ExperimentConfig, Replica, reference_config
from meanfield_sgd.measures import SortedAtoms, w2_stack

D3_RTOL = 1e-14


def oracle_quantile_1d(xa, wa, xb, wb) -> float:
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    xa, wa = xa[ia], wa[ia]
    xb, wb = xb[ib], wb[ib]
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)
    levels = np.union1d(ca, cb)
    levels = levels[levels <= 1.0 + 1e-15]
    segs = np.diff(np.concatenate(([0.0], levels)))
    mids = levels - 0.5 * segs
    qa = xa[np.minimum(np.searchsorted(ca, mids, side="right"), xa.size - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, mids, side="right"), xb.size - 1)]
    return float(np.sum(segs * (qa - qb) ** 2))


def oracle_assignment(xa, xb) -> float:
    xa = xa[np.lexsort(xa.T[::-1])]
    xb = xb[np.lexsort(xb.T[::-1])]
    diff = xa[:, None, :] - xb[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / xa.shape[0])


def oracle_w2(xa, wa, xb, wb) -> float:
    if xa.shape[1] == 1:
        val = oracle_quantile_1d(xa[:, 0], wa, xb[:, 0], wb)
    else:
        val = oracle_assignment(xa, xb)
    return float(np.sqrt(max(val, 0.0)))


def oracle_sup_w2_sq(traj_a, traj_b) -> float:
    sup = 0.0
    for s in range(traj_a.n_snapshots):
        d = oracle_w2(traj_a.positions[s], traj_a.weights, traj_b.positions[s], traj_b.weights)
        sup = max(sup, d * d)
    return sup


def _stacks(rng, dim: int, snapshots=6, n=30, m=None):
    """Two snapshot stacks on a coarse grid, so that costs tie often."""
    m = n if m is None else m
    a = np.round(rng.normal(size=(snapshots, n, dim)), 1)
    b = np.round(rng.normal(size=(snapshots, m, dim)), 1)
    return a, np.full(n, 1.0 / n), b, np.full(m, 1.0 / m)


@pytest.mark.parametrize("dim, m", [(1, None), (1, 90), (2, None)],
                         ids=["1d", "1d-unequal", "2d"])
def test_stacked_path_is_bitwise_the_per_pair_path(dim, m):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        a, wa, b, wb = _stacks(rng, dim, m=m)
        dists, backend = w2_stack(SortedAtoms.of(a, wa), SortedAtoms.of(b, wb))
        assert backend == ("quantile" if dim == 1 else "assignment")
        expected = [oracle_w2(a[s], wa, b[s], wb) for s in range(a.shape[0])]
        assert dists.tolist() == expected


def test_stacked_path_in_3d_within_rounding():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, wa, b, wb = _stacks(rng, 3)
        dists, _ = w2_stack(SortedAtoms.of(a, wa), SortedAtoms.of(b, wb))
        expected = np.array([oracle_w2(a[s], wa, b[s], wb) for s in range(a.shape[0])])
        np.testing.assert_allclose(dists**2, expected**2, rtol=D3_RTOL, atol=0.0)


@pytest.mark.parametrize("config, cells", [
    (reference_config(n_particles=40, eps_grid=(3e-2, 1e-2), dt=5e-3, horizon=0.1,
                      snapshot_stride=4, replicas=10),
     [((3e-2,), (0.0,)), ((1e-2,), (0.0,))]),
    (ExperimentConfig(instance="synthetic-1d", mu0_low=(-1.0,), mu0_high=(1.0,), dt=5e-3,
                      horizon=0.1, snapshot_stride=5, replicas=10),
     [((0.05, 20, True), (0.05, 400)), ((0.05, 40, True), (0.05, 400))]),
], ids=["network-lln", "synthetic-amplification"])
def test_replica_cells_match_the_per_pair_path(config, cells):
    """a replica's sup_t W2^2 cells, from stacks sorted once, equal the
    per-pair sup bit for bit."""
    rep = Replica(config, seed=5, stride=config.snapshot_stride)
    for a, b in cells:
        assert rep.sup_w2_sq(a, b) == oracle_sup_w2_sq(rep.run(*a), rep.run(*b))
    # each run was sorted once, however many cells compared against it
    assert sum(key[0] == "snapshots" for key in rep.results) == len(cells) + 1
