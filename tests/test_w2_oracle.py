"""The sup-over-snapshots W2 path against the per-pair W2 it replaced.

The oracle is the per-pair code as it stood before snapshot stacks: every
pair sorted again, the quantile coupling in one dimension, and in d >= 2 the
assignment on a cost matrix built from the difference tensor by an einsum
(atoms replicated to lcm(m, n) when the counts differ), taken at every
snapshot.  ``w2_sup`` builds the cost with ``cdist`` from snapshots sorted
once per run and solves only the snapshots that the particle-index coupling
bound leaves open.  At d = 1 and d = 2 its sup is
bit-identical to the max of the oracle; at d = 3 ``cdist`` sums the squared
differences in another order, and the squared sup agrees to 1e-14 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from meanfield_sgd import dynamics, measures
from meanfield_sgd.dynamics import IntegratorConfig, NoisePath, picard_solve, sample_initial
from meanfield_sgd.harness import (ExperimentConfig, Replica, build_coefficients, build_initial_spec,
                                   reference_config)
from meanfield_sgd.measures import EmpiricalMeasure, SortedAtoms, w2_detailed, w2_sup

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
    size = np.lcm(xa.shape[0], xb.shape[0])
    xa = np.repeat(xa[np.lexsort(xa.T[::-1])], size // xa.shape[0], axis=0)
    xb = np.repeat(xb[np.lexsort(xb.T[::-1])], size // xb.shape[0], axis=0)
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


def oracle_sup(a, wa, b, wb) -> float:
    """max over snapshots of the per-pair W2, every snapshot solved."""
    return max(oracle_w2(a[s], wa, b[s], wb) for s in range(a.shape[0]))


@pytest.mark.parametrize("dim, m", [(1, None), (1, 90), (2, None)],
                         ids=["1d", "1d-unequal", "2d"])
def test_sup_is_bitwise_the_per_pair_max(dim, m):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        a, wa, b, wb = _stacks(rng, dim, m=m)
        sup, backend = w2_sup(SortedAtoms.of(a, wa), SortedAtoms.of(b, wb))
        assert backend == ("quantile" if dim == 1 else "assignment")
        assert sup == oracle_sup(a, wa, b, wb)


def test_sup_in_3d_within_rounding():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, wa, b, wb = _stacks(rng, 3)
        sup, _ = w2_sup(SortedAtoms.of(a, wa), SortedAtoms.of(b, wb))
        np.testing.assert_allclose(sup**2, oracle_sup(a, wa, b, wb)**2, rtol=D3_RTOL, atol=0.0)


KINDS = ("coupled", "mixed", "unrelated", "permuted", "grid", "identical", "unequal", "weighted")


@st.composite
def stack_pairs(draw):
    """Two snapshot stacks of one kind: ``coupled`` (b = a + small noise, the
    index coupling near optimal), ``mixed`` (noise of another scale at each
    snapshot, so the bound is tight at some and loose at others and ranks
    the snapshots out of W2 order), ``unrelated`` and ``permuted`` (far from
    optimal), ``grid`` (the tie-heavy 0.1 grid), ``identical`` (sup 0),
    ``unequal`` atom counts, and ``weighted`` d = 2 measures on the lp
    backend."""
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2 if kind == "weighted" else draw(st.integers(1, 3))
    snapshots = draw(st.integers(1, 6))
    n = draw(st.integers(2, 5) if kind == "weighted" else st.integers(1, 30))
    m = draw(st.integers(1, 30).filter(lambda m: m != n)) if kind == "unequal" else n
    a = rng.normal(size=(snapshots, n, dim))
    if kind == "coupled":
        b = a + draw(st.sampled_from([1e-12, 1e-6, 1e-2, 1.0])) * rng.normal(size=a.shape)
    elif kind == "mixed":
        b = a + np.exp(rng.uniform(-3.0, 1.0, size=(snapshots, 1, 1))) * rng.normal(size=a.shape)
    elif kind == "permuted":
        b = a[:, rng.permutation(n)] + 1e-3 * rng.normal(size=a.shape)
    elif kind == "identical":
        b = a.copy()
    elif kind == "grid":
        a, b = np.round(a, 1), np.round(rng.normal(size=a.shape), 1)
    else:
        b = rng.normal(size=(snapshots, m, dim))
    if kind == "weighted":
        wa, wb = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
    else:
        wa, wb = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    return kind, a, wa, b, wb


@settings(max_examples=150, deadline=None)
@given(case=stack_pairs())
def test_sup_equals_the_exhaustive_max(case):
    kind, a, wa, b, wb = case
    sup, backend = w2_sup(SortedAtoms.of(a, wa), SortedAtoms.of(b, wb))
    if kind == "weighted":
        # the per-pair public path, on the transport program
        per_pair = [w2_detailed(EmpiricalMeasure(a[s], wa), EmpiricalMeasure(b[s], wb))
                    for s in range(a.shape[0])]
        assert sup == max(dist for dist, _ in per_pair)
        assert backend == "lp" and {info["backend"] for _, info in per_pair} == {"lp"}
    elif a.shape[-1] == 3:
        np.testing.assert_allclose(sup**2, oracle_sup(a, wa, b, wb)**2, rtol=D3_RTOL, atol=0.0)
    else:
        assert sup == oracle_sup(a, wa, b, wb)
    if kind == "identical":
        assert sup == 0.0


def test_coupled_pair_solves_fewer_snapshots(monkeypatch):
    """runs of one ensemble are coupled by particle index: the bound settles
    an 11-snapshot sup in fewer than 11 solves, while a pair of unequal
    atom counts, which has no index coupling, solves every snapshot."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(11, 200, 2))
    b = a + 1e-3 * np.arange(11)[:, None, None] * rng.normal(size=a.shape)
    w = np.full(200, 1.0 / 200)
    calls = []
    monkeypatch.setattr(measures, "w2_detailed", lambda mu, nu: calls.append(1) or w2_detailed(mu, nu))
    sup, _ = w2_sup(SortedAtoms.of(a, w), SortedAtoms.of(b, w))
    assert 0 < len(calls) < 11
    assert sup == oracle_sup(a, w, b, w)
    calls.clear()
    w2_sup(SortedAtoms.of(a, w), SortedAtoms.of(b[:, :100], w[:100] * 2))
    assert len(calls) == 11


@pytest.mark.parametrize("sizes, message", [((2, 3), "^b must have the snapshot count of a"),
                                            ((0, 0), "^a must be at least one snapshot")])
def test_snapshot_counts_must_match_and_be_positive(sizes, message):
    w = np.full(3, 1.0 / 3)
    a, b = (SortedAtoms.of(np.zeros((s, 3, 2)), w) for s in sizes)
    with pytest.raises(ValueError, match=message):
        w2_sup(a, b)


_SYNTHETIC_1D = ExperimentConfig(instance="synthetic-1d", mu0_low=(-1.0,), mu0_high=(1.0,))


@pytest.mark.parametrize("config, n, tol, max_iter", [
    (reference_config(), 20, 1e-6, 50),
    (reference_config(), 20, 1e-15, 3),
    (_SYNTHETIC_1D, 25, 1e-8, 50),
], ids=["network", "network-unconverged", "synthetic-1d"])
def test_picard_gaps_are_the_exhaustive_per_step_max(config, n, tol, max_iter, monkeypatch):
    """picard_solve's gaps, iteration count and convergence flag equal, bit
    for bit, those of the same iteration with every step solved by the
    oracle."""
    coeffs = build_coefficients(config)
    initial = sample_initial(build_initial_spec(config), n, 3)
    cfg = IntegratorConfig(dt=1e-2, horizon=0.3, eps=0.05)
    noise = NoisePath(3, 1e-2, 30, coeffs.n_channels)
    result = picard_solve(initial, coeffs, cfg, noise, tol=tol, max_iter=max_iter)

    def exhaustive(a, b):   # caller-order atoms; every weight here is 1/n
        return oracle_sup(a.given, a.weights, b.given, b.weights), "oracle"

    monkeypatch.setattr(dynamics, "w2_sup", exhaustive)
    expected = picard_solve(initial, coeffs, cfg, noise, tol=tol, max_iter=max_iter)
    assert result.gaps == expected.gaps
    assert (result.iterations, result.converged) == (expected.iterations, expected.converged)
    assert len(result.gaps) > 1


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
