"""The sgd-compare summary and trend gate against the read path they replaced.

Before ``ResultTable.matrix`` the summary rebuilt per-seed dicts for every
(snapshot, kind, M) series and the gate aligned replicas across M by seed
intersection.  Both are kept here verbatim as the oracle: on tables where
different seeds fail at different M, the summary and the gate intervals must
equal the oracle's bit for bit.
"""

from typing import Sequence

import numpy as np
import pytest

from meanfield_sgd import harness
from meanfield_sgd.dynamics import seeded_rng
from meanfield_sgd.harness import _sgd_series, _sgd_snapshots, exp_sgd_compare, reference_config, sgd_trend_gate

CFG = reference_config(m_grid=(10, 20, 40), dt=5e-3, horizon=0.1, snapshot_stride=10,
                       replicas=10, base_seed=13)
# M -> the seeds whose SGD chain diverges at that M
FAILING = {10: {13}, 20: {15}, 40: {13, 16}}


def oracle_series(table, phi_name: str, m: int) -> tuple[list, list]:
    """Seeds and (snapshots, replicas) arrays of <phi, mu_t> and <phi, nu_t>
    at M, each (metric, M) series read once; replicas whose runs failed
    (nan cells) drop out."""
    by_seed = [[table.values_by_seed(f"{kind}:{phi_name}:{s}", m)
                for s in _sgd_snapshots(table.config)] for kind in ("smfe", "sgd")]
    seeds = [sd for sd, v in by_seed[0][0].items() if not np.isnan(v)]
    return seeds, [np.array([[d[sd] for sd in seeds] for d in kind]) for kind in by_seed]


def oracle_summary(table, phi_name: str, m: int) -> tuple[float, float]:
    seeds, (smfe, sgd) = oracle_series(table, phi_name, m)
    g = w2_replica = np.nan
    if seeds:
        g = max(abs(a.mean() - b.mean()) for a, b in zip(smfe, sgd))
        a, b = np.sort(smfe[-1]), np.sort(sgd[-1])
        w2_replica = float(np.sqrt(np.mean((a - b) ** 2)))
    return g, w2_replica


def oracle_gate(table, phi_name: str, m_grid: Sequence[int],
                n_boot: int = 500, level: float = 0.9, seed: int = 7) -> tuple[bool, list]:
    rng = seeded_rng(seed, "sgd-trend")
    m_grid = [int(m) for m in m_grid]
    series = {m: oracle_series(table, phi_name, m) for m in m_grid}
    # align replicas by seed across M (failed cells drop out of every M)
    common = sorted(set.intersection(*(set(seeds) for seeds, _ in series.values())))
    if not common:
        return False, []
    per_rep = {}  # M -> (S, R) smfe and sgd over the common replicas
    for m, (seeds, arrays) in series.items():
        columns = [seeds.index(sd) for sd in common]
        per_rep[m] = [values[:, columns] for values in arrays]
    n_rep = len(common)

    def stat(idx: np.ndarray) -> np.ndarray:
        out = np.empty(len(m_grid))
        for k, m in enumerate(m_grid):
            smfe, sgd = per_rep[m]
            g = np.abs(smfe[:, idx].mean(axis=1) - sgd[:, idx].mean(axis=1)).max()
            out[k] = np.sqrt(m) * g
        return out

    base = stat(np.arange(n_rep))
    boots = np.array([stat(rng.integers(0, n_rep, size=n_rep)) for _ in range(n_boot)])
    ok = True
    intervals = []
    lo_q, hi_q = 100 * (1 - level) / 2, 100 * (1 + level) / 2
    for k in range(len(m_grid) - 1):
        inc = boots[:, k + 1] - boots[:, k]
        lo, hi = np.percentile(inc, [lo_q, hi_q])
        intervals.append((float(base[k + 1] - base[k]), float(lo), float(hi)))
        if lo > 0:
            ok = False
    return ok, intervals


@pytest.fixture(scope="module")
def table():
    real_run_sgd = harness.run_sgd

    def flaky_run_sgd(coeffs, n_particles, *args, seed, initial, **kwargs):
        # the chain of a failing seed starts at nan: it diverges at its first step
        failing = np.isin(seed, list(FAILING[n_particles]))[:, None, None]
        return real_run_sgd(coeffs, n_particles, *args, seed=seed, initial=np.where(failing, np.nan, initial),
                            **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_sgd", flaky_run_sgd)
        with pytest.warns(UserWarning):
            return exp_sgd_compare(CFG)


@pytest.mark.filterwarnings("ignore:excluding")
def test_failures_drop_per_m_in_the_summary_and_their_union_in_the_gate(table):
    for m, failing in FAILING.items():
        assert _sgd_series(table, "bump0", [m]).shape[-1] == CFG.replicas - len(failing)
    assert _sgd_series(table, "bump0", CFG.m_grid).shape[-1] == CFG.replicas - len(set().union(*FAILING.values()))


@pytest.mark.filterwarnings("ignore:excluding")
@pytest.mark.parametrize("phi_name", ["bump0", "bump1"])
def test_summary_matches_the_oracle(table, phi_name):
    for m in CFG.m_grid:
        (g_row,) = [s for s in table.summary if s["metric"] == f"g:{phi_name}" and s["param"] == str(m)]
        (w2_row,) = [s for s in table.summary
                     if s["metric"] == f"w2_replica:{phi_name}" and s["param"] == str(m)]
        g, w2_replica = oracle_summary(table, phi_name, m)
        assert (g_row["mean"], g_row["sqrt_m_g"], w2_row["mean"]) == (g, float(np.sqrt(m) * g), w2_replica)


@pytest.mark.filterwarnings("ignore:excluding")
@pytest.mark.parametrize("phi_name", ["bump0", "bump1"])
@pytest.mark.parametrize("m_grid", [(10, 20, 40), (20, 40), (10, 40)], ids=str)
def test_gate_matches_the_oracle(table, phi_name, m_grid):
    ok, intervals = sgd_trend_gate(table, phi_name, m_grid)
    assert intervals
    assert (ok, intervals) == oracle_gate(table, phi_name, m_grid)
