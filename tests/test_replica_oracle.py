"""Every experiment against rows and summaries recorded before the replica
runner existed.

``tests/data/replica_oracle.json`` holds the ``rows`` and ``summary`` of each
``exp_*`` at the small configs below, recorded at commit ebbb8b2, when each
experiment still had its own replica function.  Regenerate it only from a
harness whose numbers are known good:

    PYTHONPATH=src python3 tests/test_replica_oracle.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

from meanfield_sgd.harness import (
    ExperimentConfig,
    exp_clt_rate,
    exp_commute,
    exp_lln_rate,
    exp_particle_rate,
    exp_sgd_compare,
    reference_config,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "replica_oracle.json")

_SYNTHETIC = dict(
    instance="synthetic-1d", mu0_kind="uniform", mu0_low=(-1.0,), mu0_high=(1.0,),
    m_grid=(10, 20, 40), alpha_grid=(0.05, 0.01), dt=5e-3, horizon=0.1,
    snapshot_stride=10, replicas=10, base_seed=31,
)
# an exploding drift: every run of every replica diverges
_DIVERGING = dict(
    instance="synthetic-1d",
    synthetic_params=(("kappa", -1e6), ("gamma", 0.0), ("g_amp", 0.1), ("g_freq", 1.0)),
    mu0_kind="uniform", mu0_low=(-1.0,), mu0_high=(1.0,), n_particles=5,
    eps_grid=(3e-2, 1e-2, 3e-3), dt=5e-3, horizon=0.5, snapshot_stride=20,
    replicas=10, base_seed=40,
)

CASES = {
    "lln-rate": (exp_lln_rate, reference_config(
        n_particles=20, eps_grid=(3e-2, 1e-2, 3e-3), dt=5e-3, horizon=0.25,
        snapshot_stride=10, replicas=10, base_seed=100)),
    "lln-rate-diverging": (exp_lln_rate, ExperimentConfig(**_DIVERGING)),
    "clt-rate-auto-box": (exp_clt_rate, reference_config(
        n_particles=30, eps_grid=(3e-2, 1e-2, 3e-3), dt=5e-3, horizon=0.25,
        clt_snapshot_stride=25, replicas=10, base_seed=11, k_max=32)),
    "clt-rate-fixed-box": (exp_clt_rate, reference_config(
        n_particles=10, eps_grid=(3e-2, 1e-2, 3e-3), dt=5e-3, horizon=0.1,
        clt_snapshot_stride=10, replicas=10, base_seed=12, k_max=32, r_box=4.0)),
    "clt-rate-fixed-box-diverging": (exp_clt_rate, ExperimentConfig(**_DIVERGING, r_box=4.0)),
    "particle-rate": (exp_particle_rate, ExperimentConfig(**_SYNTHETIC)),
    "commute": (exp_commute, ExperimentConfig(**_SYNTHETIC)),
    "sgd-compare": (exp_sgd_compare, reference_config(
        m_grid=(10, 20), dt=5e-3, horizon=0.1, snapshot_stride=10, replicas=10,
        base_seed=32)),
}


def _plain(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _record(name: str) -> dict:
    fn, cfg = CASES[name]
    table = fn(cfg)
    return {
        "rows": [list(row) for row in table.rows],
        "summary": [{k: _plain(v) for k, v in entry.items()} for entry in table.summary],
    }


def _close(actual, expected) -> bool:
    if isinstance(expected, float):
        if math.isnan(expected):
            return isinstance(actual, (float, np.floating)) and math.isnan(actual)
        return actual == pytest.approx(expected, rel=1e-9, abs=1e-15)
    return _plain(actual) == expected


@pytest.fixture(scope="module")
def oracle():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_and_summary_match_the_oracle(name, oracle):
    expected = oracle[name]
    got = _record(name)
    assert [r[:4] for r in got["rows"]] == [r[:4] for r in expected["rows"]]
    bad = [(r, e) for r, e in zip(got["rows"], expected["rows"]) if not _close(r[4], e[4])]
    assert not bad, f"{len(bad)} row value(s) differ, first: {bad[0]}"
    assert len(got["summary"]) == len(expected["summary"])
    for entry, want in zip(got["summary"], expected["summary"]):
        assert entry.keys() == want.keys()
        diff = {k: (entry[k], want[k]) for k in want if not _close(entry[k], want[k])}
        assert not diff, f"summary {want.get('metric')} param={want.get('param')}: {diff}"


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    data = {name: _record(name) for name in sorted(CASES)}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
