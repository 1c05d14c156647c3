"""Harness: slope fits, config round trips, reproducibility, CLI surface."""

import csv
import ctypes
import gc
import json
import os
import tempfile
import warnings
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paper_forms
from meanfield_sgd import harness
from meanfield_sgd.cli import main as cli_main
from meanfield_sgd.coefficients import SyntheticCoefficients
from meanfield_sgd.dynamics import SimulationError, simulate, simulate_coupled, simulate_transport
from meanfield_sgd.fluctuations import solve_tangent
from meanfield_sgd.harness import (
    ExperimentConfig,
    Replica,
    ResultTable,
    build_coefficients,
    exp_clt_rate,
    exp_commute,
    exp_lln_rate,
    exp_particle_rate,
    exp_sgd_compare,
    fit_slope,
    reference_config,
    sgd_trend_gate,
    w2_sq_to_uniform_1d,
)
from test_read_oracle import CFG as FAILING_CFG
from test_read_oracle import FAILING


class TestFitSlope:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_slope(x, x**2)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)

    def test_constant_series(self):
        x = np.array([1.0, 2.0, 4.0])
        fit = fit_slope(x, np.full(3, 5.0))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_linear_recovery(self):
        rng = np.random.default_rng(0)
        x = np.logspace(0, 2, 20)
        y = x * (1.0 + 0.1 * rng.normal(size=20))
        fit = fit_slope(x, y)
        assert fit.slope == pytest.approx(1.0, abs=0.1)

    def test_nonpositive_excluded_with_warning(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = np.array([1.0, 4.0, 16.0, 0.0])
        with pytest.warns(UserWarning):
            fit = fit_slope(x, y)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_slope([1.0, 2.0], [1.0, 2.0])

    def test_bootstrap_ci_brackets_the_slope(self):
        rng = np.random.default_rng(1)
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        reps = x[None, :] ** 1.5 * (1.0 + 0.05 * rng.normal(size=(30, 5)))
        fit = fit_slope(x, reps)
        assert fit.ci_low is not None
        assert fit.ci_low <= fit.slope <= fit.ci_high
        assert fit.ci_low <= 1.5 <= fit.ci_high


def oracle_fit_slope(params, values):
    """``fit_slope`` as it was before the bootstrap became one array pass:
    one index draw and one ``np.polyfit`` per resample."""
    params = np.asarray(params, dtype=float)
    matrix = np.atleast_2d(np.asarray(values, dtype=float))
    means = matrix.mean(axis=0)
    mask = means > 0
    slope, intercept = np.polyfit(np.log(params[mask]), np.log(means[mask]), 1)
    rng = harness.seeded_rng(harness._SLOPE_SEED, "slope-bootstrap")
    n_rep = matrix.shape[0]
    boot = np.full(harness._SLOPE_BOOT, np.nan)
    for b in range(harness._SLOPE_BOOT):
        bm = matrix[rng.integers(0, n_rep, size=n_rep)].mean(axis=0)
        ok = mask & (bm > 0)
        if ok.sum() >= 3:
            boot[b] = np.polyfit(np.log(params[ok]), np.log(bm[ok]), 1)[0]
    boot = boot[np.isfinite(boot)]
    level = harness.SLOPE_LEVEL
    ci_low, ci_high = np.percentile(boot, [50 - 50 * level, 50 + 50 * level])
    return float(slope), float(intercept), ci_low, ci_high


def _mixed_sign_replicas(n_rep, seed):
    """Rate-like replicas on 6 grid points: the last column's mean is
    negative, and columns 2 to 4 have one replica so negative that a
    resample drawing it twice leaves fewer than 3 positive points."""
    rng = np.random.default_rng(seed)
    x = np.geomspace(1e-3, 1e-1, 6)
    reps = x ** 1.2 * np.exp(0.3 * rng.normal(size=(n_rep, 6)))
    reps[:, 5] = -reps[:, 5]
    reps[0, 2:5] = -0.8 * (n_rep - 1) * reps[1:, 2:5].mean(axis=0)
    return x, reps


class TestFitSlopeBootstrap:
    """The bootstrap as one array pass against the per-resample loop.
    Slope and intercept are the same ``np.polyfit``; the CI comes from a
    closed-form slope per resample instead of ``np.polyfit``, which moves
    it by at most 1.7e-15 relative over these cases."""

    @pytest.mark.parametrize("n_rep", [3, 7, 10, 20])
    def test_one_draw_is_the_per_resample_stream(self, n_rep):
        rng = harness.seeded_rng(harness._SLOPE_SEED, "slope-bootstrap")
        per_resample = [rng.integers(0, n_rep, size=n_rep) for _ in range(harness._SLOPE_BOOT)]
        at_once = harness.seeded_rng(harness._SLOPE_SEED, "slope-bootstrap").integers(
            0, n_rep, size=(harness._SLOPE_BOOT, n_rep))
        np.testing.assert_array_equal(at_once, per_resample)

    @pytest.mark.parametrize("n_rep", [3, 7, 10, 20])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_resample_loop(self, n_rep, seed):
        x, reps = _mixed_sign_replicas(n_rep, seed)
        with pytest.warns(UserWarning, match="nonpositive"):
            fit = fit_slope(x, reps)
        slope, intercept, ci_low, ci_high = oracle_fit_slope(x, reps)
        assert (fit.slope, fit.intercept) == (slope, intercept)
        np.testing.assert_allclose([fit.ci_low, fit.ci_high], [ci_low, ci_high], rtol=1e-14, atol=0)

    def test_the_cases_exclude_resamples(self):
        """the cases above do drop resamples with fewer than 3 positive points."""
        x, reps = _mixed_sign_replicas(7, 0)
        picks = harness.seeded_rng(harness._SLOPE_SEED, "slope-bootstrap").integers(
            0, 7, size=(harness._SLOPE_BOOT, 7))
        positive = (reps[picks].mean(axis=1)[:, :5] > 0).sum(axis=1)
        assert 0 < np.sum(positive < 3) < harness._SLOPE_BOOT


class TestResultTableMatrix:
    ROWS = [("e", "1", 7, "a", 1.0), ("e", "2", 7, "a", 2.0), ("e", "1", 7, "failed", 1.0),
            ("e", "1", 5, "a", 3.0), ("e", "2", 5, "a", float("nan")),
            ("e", "1", 9, "a", 4.0), ("e", "2", 9, "a", 5.0), ("e", "1", 9, "b", 6.0)]

    def test_replicas_in_row_order_and_failed_ones_dropped(self):
        table = ResultTable(reference_config(), list(self.ROWS))
        with pytest.warns(UserWarning, match="excluding 1 replica"):
            matrix = table.matrix([("a", 2), ("a", "1")])
        np.testing.assert_array_equal(matrix, [[2.0, 1.0], [5.0, 4.0]])
        # a replica without a row in some cell counts as failed too
        with pytest.warns(UserWarning, match="excluding 2 replica"):
            np.testing.assert_array_equal(table.matrix([("a", 1), ("b", 1)]), [[4.0, 6.0]])

    def test_cell_without_rows_raises(self):
        table = ResultTable(reference_config(), list(self.ROWS))
        with pytest.raises(KeyError, match="b at param 2, c at param 1"):
            table.matrix([("a", 1), ("b", 2), ("c", 1)])

    def test_repeated_cell_raises(self):
        """a cell named twice (its param as a number or a string) is refused,
        not read as a cell without rows."""
        table = ResultTable(reference_config(), list(self.ROWS))
        with pytest.raises(ValueError, match=r"^cells must be distinct \(got a at param 1 more than once\)"):
            table.matrix([("a", 1), ("a", 2), ("a", "1")])


class TestResultsCsv:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.text(), st.text(), st.integers(0, 2**63), st.text(),
        st.floats(allow_nan=True, allow_infinity=True)), max_size=8))
    def test_round_trip_is_exact(self, rows):
        """results.csv gives back every row: text fields, seeds, and values to
        17 significant digits, nan and infinities included."""
        with tempfile.TemporaryDirectory() as tmp:
            ResultTable(reference_config(), list(rows)).write(tmp)
            with open(os.path.join(tmp, "results.csv"), newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                assert next(reader) == ["experiment", "param", "seed", "metric", "value"]
                back = list(reader)
        assert [tuple(r[:2]) + (int(r[2]), r[3]) for r in back] == [r[:4] for r in rows]
        values = np.array([float(r[4]) for r in back])
        np.testing.assert_array_equal(values, np.array([r[4] for r in rows], dtype=float))


def oracle_results_csv(rows, out_dir):
    """results.csv as ``ResultTable.write`` wrote it before its one
    formatting pass: one csv.writer row per result row."""
    with open(os.path.join(out_dir, "results.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("experiment", "param", "seed", "metric", "value"))
        for row in rows:
            writer.writerow([row[0], row[1], row[2], row[3], f"{row[4]:.17g}"])


class TestResultsCsvOracle:
    EDGE_ROWS = [("sgd-compare", "50", 7, "sgd:bump0:3", v)
                 for v in (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1 / 3, 1e300)]

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.text(), st.text(), st.integers(0, 2**63), st.text(),
        st.floats(allow_nan=True, allow_infinity=True)), max_size=8))
    @example(rows=EDGE_ROWS)
    @example(rows=[*EDGE_ROWS[:2], ("a,b", "1", 3, "m", 1.0)])
    @example(rows=[("e", 'say "hi"', 3, "m", 1.0), *EDGE_ROWS[2:4]])
    @example(rows=[*EDGE_ROWS[4:], ("e", "1", 3, "line\nbreak", 2.0), ("e", "1", 3, "cr\r", 2.0)])
    @example(rows=[])
    def test_text_is_the_csv_writer_text(self, rows):
        """the one-pass text is the per-row csv.writer text byte for byte:
        nan, infinities, -0.0 and subnormals included, and with csv's
        quoting when a field holds a comma, quote or line break."""
        with tempfile.TemporaryDirectory() as got, tempfile.TemporaryDirectory() as want:
            ResultTable(reference_config(), list(rows)).write(got)
            oracle_results_csv(rows, want)
            with open(os.path.join(got, "results.csv"), "rb") as a, open(os.path.join(want, "results.csv"), "rb") as b:
                assert a.read() == b.read()


class TestUniformQuantileOracle:
    def test_single_sample_at_midpoint(self):
        assert w2_sq_to_uniform_1d(np.array([0.5]), 0.0, 1.0) == pytest.approx(1 / 12)

    @pytest.mark.parametrize("low, high", [(0.5, 0.5), (1.0, -1.0)])
    def test_empty_interval_rejected(self, low, high):
        with pytest.raises(ValueError, match=r"^high must be > low"):
            w2_sq_to_uniform_1d(np.array([0.5]), low, high)

    def test_against_dense_discretization(self):
        rng = np.random.default_rng(2)
        samples = rng.uniform(-1, 1, size=23)
        exact = w2_sq_to_uniform_1d(samples, -1.0, 1.0)
        # oracle: the uniform law as 200k equal atoms through the generic path
        from meanfield_sgd.measures import EmpiricalMeasure, w2

        grid = np.linspace(-1, 1, 200_001)
        mids = 0.5 * (grid[:-1] + grid[1:])
        dense = EmpiricalMeasure.uniform(mids[:, None])
        emp = EmpiricalMeasure.uniform(samples[:, None])
        approx = w2(emp, dense) ** 2
        assert exact == pytest.approx(approx, rel=1e-3, abs=1e-7)


class TestConfig:
    def test_json_round_trip(self):
        cfg = reference_config(replicas=12, base_seed=99)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_hash_sensitive_to_fields(self):
        a = reference_config()
        b = reference_config(base_seed=a.base_seed + 1)
        assert a.config_hash() != b.config_hash()

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            reference_config(replicas=2).validate_for_rates()
        with pytest.raises(ValueError):
            reference_config(eps_grid=(0.1, -0.2)).validate_for_rates()

    def test_from_file(self, tmp_path):
        cfg = reference_config(replicas=11)
        path = tmp_path / "config.json"
        path.write_text(cfg.to_json())
        assert ExperimentConfig.from_file(path) == cfg


def tiny_lln_config(**overrides):
    base = dict(
        n_particles=20,
        eps_grid=(3e-2, 1e-2, 3e-3),
        dt=5e-3,
        horizon=0.25,
        snapshot_stride=10,
        replicas=10,
        base_seed=100,
    )
    base.update(overrides)
    return reference_config(**base)


def _blas_lib() -> list:
    """numpy's bundled OpenBLAS, as the pool workers' BLAS pin finds it."""
    return harness.glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                          "libscipy_openblas64_*.so"))


def _blas_threads(_) -> int:
    """The BLAS thread count of the process this runs in."""
    return ctypes.CDLL(_blas_lib()[0]).scipy_openblas_get_num_threads64_()


class TestLlnExperiment:
    def test_reproducible_rows(self):
        cfg = tiny_lln_config()
        a = exp_lln_rate(cfg)
        b = exp_lln_rate(cfg)
        assert a.rows == b.rows

    def test_threads_do_not_change_results(self):
        """lln-rate, and sgd-compare, whose runs of three sizes step as one
        segmented batch inside each pool worker, on one pack or on packs
        split among 2 or 3 workers (3 take uneven shares of 10 replicas);
        clt-rate, whose packs of 10, 5 and 4 replicas carry one tangent
        system each and whose workers run the spectral products on one BLAS
        thread; and particle-rate, whose 20 max(M) reference run is beyond
        the pack budget, so each replica packs alone."""
        cfg = tiny_lln_config()
        a = exp_lln_rate(cfg)
        for threads in (2, 3):
            assert exp_lln_rate(tiny_lln_config(threads=threads)).rows == a.rows
        sgd = reference_config(m_grid=(10, 20, 40), dt=5e-3, horizon=0.1, snapshot_stride=10,
                               replicas=10, base_seed=13)
        a = exp_sgd_compare(sgd)
        for threads in (2, 3):
            assert exp_sgd_compare(replace(sgd, threads=threads)).rows == a.rows
        clt = reference_config(n_particles=20, eps_grid=(3e-2, 1e-2, 3e-3), dt=5e-3, horizon=0.1,
                               clt_snapshot_stride=10, replicas=10, base_seed=14, k_max=32)
        packs = harness._replica_packs(replace(clt, threads=3), 10, [harness._run_key(clt, 0.0)] * 4)
        assert [len(p) for p in packs] == [4, 4, 2]
        a = exp_clt_rate(clt)
        for threads in (2, 3):
            b = exp_clt_rate(replace(clt, threads=threads))
            assert b.rows == a.rows
            assert [{**e, "config_hash": None} for e in b.summary] == [{**e, "config_hash": None} for e in a.summary]
        particle = ExperimentConfig(instance="synthetic-1d", mu0_kind="uniform", mu0_low=(-1.0,), mu0_high=(1.0,),
                                    m_grid=(10, 40, 210), dt=5e-3, horizon=0.05, snapshot_stride=5,
                                    replicas=10, base_seed=15)
        assert 20 * max(particle.m_grid) > harness._PACK_ROWS
        assert exp_particle_rate(particle).rows == exp_particle_rate(replace(particle, threads=2)).rows

    @pytest.mark.skipif(not _blas_lib(), reason="numpy has no bundled OpenBLAS here")
    def test_pool_workers_run_one_blas_thread(self):
        assert harness._parallel(_blas_threads, range(4), 2) == [1] * 4

    @pytest.mark.parametrize("libs", [[], ["no-such-library.so"], ["libc.so.6"]],
                             ids=["no-library", "unloadable", "no-setter"])
    def test_blas_pin_fails_soft(self, libs, monkeypatch):
        monkeypatch.setattr(harness.glob, "glob", lambda pattern: libs)
        assert harness._one_blas_thread() is None

    def test_slope_near_one_even_at_small_scale(self):
        table = exp_lln_rate(tiny_lln_config())
        slope_rows = [s for s in table.summary if "slope" in s and s.get("metric") == "slope"]
        assert len(slope_rows) == 1
        assert abs(slope_rows[0]["slope"] - 1.0) < 0.35

    def test_degenerate_single_atom_reported(self):
        cfg = tiny_lln_config(dataset_rows=((0.5, 1.0, 0.3),), replicas=10)
        table = exp_lln_rate(cfg)
        assert all(r[4] < 1e-20 for r in table.rows)  # fp dust from the cancelled noise
        slope_rows = [s for s in table.summary if s.get("metric") == "slope"]
        assert slope_rows[0].get("degenerate", False)

    def test_dt_insensitivity_one_halving(self):
        """halving dt leaves the coupled sup W2^2 metric essentially unchanged
        (the fine run consumes the coarsened run's Brownian path)."""
        from meanfield_sgd.dynamics import (
            IntegratorConfig,
            NoisePath,
            sample_initial,
            simulate,
            simulate_transport,
        )
        from meanfield_sgd.harness import build_initial_spec
        from meanfield_sgd.measures import w2

        coeffs = build_coefficients(reference_config())
        spec = build_initial_spec(reference_config())
        ratios = []
        for seed in range(6):
            init = sample_initial(spec, 20, seed)
            fine_noise = NoisePath(seed, 2.5e-3, 100, coeffs.n_channels)
            sups = {}
            for dt, noise, stride in (
                (5e-3, fine_noise.coarsened(2), 10),
                (2.5e-3, fine_noise, 20),
            ):
                cfg = IntegratorConfig(dt=dt, horizon=0.25, eps=1e-2, snapshot_stride=stride)
                noisy = simulate(init, coeffs, cfg, noise)
                clean = simulate_transport(init, coeffs, cfg)
                sups[dt] = max(
                    w2(noisy.measure_at(s), clean.measure_at(s)) ** 2
                    for s in range(noisy.n_snapshots)
                )
            ratios.append(sups[2.5e-3] / sups[5e-3])
        assert 0.85 <= np.mean(ratios) <= 1.15

    def test_written_outputs(self, tmp_path):
        table = exp_lln_rate(tiny_lln_config())
        table.write(tmp_path)
        with open(tmp_path / "results.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["experiment", "param", "seed", "metric", "value"]
            rows = list(reader)
        assert len(rows) == len(table.rows)
        meta = json.loads((tmp_path / "run-meta.json").read_text())
        assert meta["config_hash"] == table.config_hash
        assert meta["code_version"] == table.code_version
        summary_text = (tmp_path / "summary.csv").read_text()
        assert "config_hash" in summary_text


class TestParticleRateExperiment:
    def test_small_scale_slope_and_amplification(self):
        cfg = ExperimentConfig(
            instance="synthetic-1d",
            mu0_kind="uniform",
            mu0_low=(-1.0,),
            mu0_high=(1.0,),
            m_grid=(25, 100, 400),
            dt=2e-3,
            horizon=0.25,
            snapshot_stride=25,
            replicas=40,
            base_seed=7,
        )
        table = exp_particle_rate(cfg)
        slope_rows = [s for s in table.summary if s.get("metric") == "slope_initial"]
        assert abs(slope_rows[0]["slope"] + 1.0) < 0.35
        amps = [s["mean"] for s in table.summary if s.get("metric") == "amplification"]
        assert max(amps) <= 3.0 * min(amps)


class TestCltExperiment:
    def test_small_scale_slope(self):
        cfg = reference_config(
            n_particles=30,
            eps_grid=(3e-2, 1e-2, 3e-3),
            dt=5e-3,
            horizon=0.25,
            clt_snapshot_stride=25,
            replicas=10,
            base_seed=11,
            k_max=32,
        )
        table = exp_clt_rate(cfg)
        slope_rows = [s for s in table.summary if s.get("metric") == "slope"]
        assert abs(slope_rows[0]["slope"] - 1.0) < 0.35
        assert slope_rows[0]["r_box"] > 0

    def test_synthetic_1d_slope(self):
        """The synthetic instance's tangent runs see its linearised drift, so
        its CLT distance falls like eps too (without it the slope is ~0)."""
        cfg = ExperimentConfig(
            instance="synthetic-1d", mu0_low=(-1.0,), mu0_high=(1.0,), n_particles=50,
            eps_grid=(3e-2, 1e-2, 3e-3), dt=5e-3, horizon=0.5, clt_snapshot_stride=10,
            replicas=10, base_seed=3, k_max=32, r_box=4.0,
        )
        fit = [s for s in exp_clt_rate(cfg).summary if s.get("metric") == "slope"][0]
        assert abs(fit["slope"] - 1.0) < 0.35

    def test_fixed_box_skips_the_sizing_pass(self):
        cfg = reference_config(
            n_particles=10,
            eps_grid=(3e-2, 1e-2, 3e-3),
            dt=5e-3,
            horizon=0.1,
            clt_snapshot_stride=10,
            replicas=10,
            base_seed=12,
            k_max=32,
            r_box=4.0,
        )
        table = exp_clt_rate(cfg)
        slope_rows = [s for s in table.summary if s.get("metric") == "slope"]
        assert slope_rows[0]["r_box"] == 4.0

    @staticmethod
    def _extents(cfg) -> dict:
        """seed -> {eps: largest |coordinate| of that run}, eps 0 the transport run."""
        extents = {}
        for r in range(cfg.replicas):
            rep = Replica(cfg, cfg.base_seed + r, cfg.clt_snapshot_stride)
            extents[rep.seed] = {eps: float(np.abs(rep.run(eps).positions).max())
                                 for eps in (0.0, *cfg.eps_grid)}
        return extents

    @staticmethod
    def _check_cells(cfg, extents, r_box) -> set:
        """Run clt-rate in the fixed box ``r_box``: a cell fails exactly when
        its eps run or its replica's transport run leaves the box, and every
        other cell is finite.  Returns the failed (seed, eps) cells."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = exp_clt_rate(replace(cfg, r_box=r_box))
        failed = {(seed, float(param)) for _, param, seed, metric, _ in table.rows
                  if metric == "failed"}
        expected = {(seed, eps) for seed, ext in extents.items() for eps in cfg.eps_grid
                    if max(ext[0.0], ext[eps]) >= r_box}
        assert failed == expected
        for _, param, seed, metric, value in table.rows:
            if metric == "sup_hneg_sq" and (seed, float(param)) not in failed:
                assert np.isfinite(value) and value > 0
        return failed

    def test_box_fails_only_the_cells_that_leave_it(self):
        """The eps cells of a replica share one pass over its snapshots; an
        eps run outside a fixed box fails its own cell and no other."""
        cfg = reference_config(n_particles=20, horizon=0.05, clt_snapshot_stride=25,
                               replicas=10, k_max=16)
        extents = self._extents(cfg)
        largest = max(cfg.eps_grid)
        # a replica whose largest-eps run reaches past its transport run
        ext = next(e for e in extents.values() if e[largest] > e[0.0])
        r_box = 0.5 * (ext[0.0] + ext[largest])
        failed = self._check_cells(cfg, extents, r_box)
        partial = [seed for seed in extents
                   if 0 < sum((seed, eps) in failed for eps in cfg.eps_grid) < len(cfg.eps_grid)]
        assert partial, "no replica with both failed and finite cells"

    def test_box_cutting_the_transport_run_fails_its_replica(self):
        cfg = reference_config(n_particles=20, horizon=0.05, clt_snapshot_stride=25,
                               replicas=10, k_max=16)
        extents = self._extents(cfg)
        # a replica with an eps run that stays inside its transport run's extent
        seed, ext = next((s, e) for s, e in extents.items()
                         if min(e[eps] for eps in cfg.eps_grid) < e[0.0])
        r_box = 0.5 * (min(ext[eps] for eps in cfg.eps_grid) + ext[0.0])
        failed = self._check_cells(cfg, extents, r_box)
        assert {(seed, eps) for eps in cfg.eps_grid} <= failed


class TestSgdCompareExperiment:
    def test_small_scale_trend_gate(self):
        cfg = reference_config(
            m_grid=(20, 40),
            dt=5e-3,
            horizon=0.25,
            snapshot_stride=10,
            replicas=20,
            base_seed=13,
        )
        table = exp_sgd_compare(cfg)
        ok, intervals = sgd_trend_gate(table, "bump0", cfg.m_grid)
        assert len(intervals) == 1
        assert isinstance(ok, bool)
        g_rows = [s for s in table.summary if s.get("metric") == "g:bump0"]
        assert len(g_rows) == 2
        assert all(s["mean"] >= 0 for s in g_rows)

    def test_failed_run_drops_its_replica(self, monkeypatch):
        """a diverged SGD chain becomes failed rows; the summary and the trend
        gate go on over the other replicas."""
        from meanfield_sgd import harness

        real_run_sgd = harness.run_sgd

        failing_seeds = {13}

        def flaky_run_sgd(coeffs, n_particles, *args, seed, initial, **kwargs):
            # the chain of a failing seed starts at nan: it diverges at its first step
            failing = np.isin(seed, list(failing_seeds) if n_particles == 20 else [])[:, None, None]
            return real_run_sgd(coeffs, n_particles, *args, seed=seed, initial=np.where(failing, np.nan, initial),
                                **kwargs)

        monkeypatch.setattr(harness, "run_sgd", flaky_run_sgd)
        cfg = reference_config(m_grid=(10, 20), dt=5e-3, horizon=0.1, snapshot_stride=10,
                               replicas=10, base_seed=13)
        with pytest.warns(UserWarning):
            table = exp_sgd_compare(cfg)
        assert {(r[1], r[2]) for r in table.rows if r[3] == "failed"} == {("20", 13)}
        assert all(np.isfinite(s["mean"]) for s in table.summary)
        with pytest.warns(UserWarning, match="excluding 1 replica"):
            _, intervals = sgd_trend_gate(table, "bump0", cfg.m_grid)
        assert np.all(np.isfinite(intervals))
        # with no replica left at M = 20 the gate cannot pass
        failing_seeds.update(range(13, 23))
        with pytest.warns(UserWarning):
            table = exp_sgd_compare(cfg)
        with pytest.warns(UserWarning, match="excluding 10 replica"):
            assert sgd_trend_gate(table, "bump0", cfg.m_grid) == (False, [])

    def test_missing_cell_raises(self):
        """an unknown test function or an M the table does not hold names the
        missing cell instead of reading as a gate over no replicas."""
        cfg = reference_config(m_grid=(10, 20), dt=5e-3, horizon=0.1, snapshot_stride=10,
                               replicas=10, base_seed=13)
        table = exp_sgd_compare(cfg)
        with pytest.raises(KeyError, match="smfe:bmp0:0 at param 10"):
            sgd_trend_gate(table, "bmp0", cfg.m_grid)
        with pytest.raises(KeyError, match="smfe:bump0:0 at param 30"):
            sgd_trend_gate(table, "bump0", (10, 30))

    def test_gate_reads_m_in_ascending_order(self):
        """the gate tests the trend in increasing M whatever the grid's order,
        refuses a grid of fewer than two distinct M, and names a repeated M
        as a repeated cell."""
        cfg = reference_config(m_grid=(10, 20, 40), dt=5e-3, horizon=0.1, snapshot_stride=10,
                               replicas=10, base_seed=13)
        table = exp_sgd_compare(cfg)
        ascending = sgd_trend_gate(table, "bump0", (10, 20, 40))
        assert sgd_trend_gate(table, "bump0", (40, 20, 10)) == ascending
        assert sgd_trend_gate(table, "bump0", (20, 40, 10)) == ascending
        for grid in ((), (20,), (20, 20)):
            with pytest.raises(ValueError, match="^m_grid must hold at least two distinct M"):
                sgd_trend_gate(table, "bump0", grid)
        with pytest.raises(ValueError, match="^cells must be distinct"):
            sgd_trend_gate(table, "bump0", (10, 20, 10))

    def test_one_read_per_m_and_per_gate(self, monkeypatch):
        """The summary reads the table once per M, each gate once, and the gate
        draws all its resamples in one call."""
        reads, draws = [], []
        real_matrix, real_rng = ResultTable.matrix, harness.seeded_rng

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def integers(self, *args, **kwargs):
                draws.append(kwargs.get("size"))
                return self.rng.integers(*args, **kwargs)

        monkeypatch.setattr(ResultTable, "matrix", lambda table, cells: reads.append(len(cells))
                            or real_matrix(table, cells))
        monkeypatch.setattr(harness, "seeded_rng", lambda *args: CountingRng(real_rng(*args)))
        cfg = reference_config(m_grid=(10, 20, 40), dt=5e-3, horizon=0.1, snapshot_stride=10,
                               replicas=10, base_seed=13)
        table = exp_sgd_compare(cfg)
        # both test functions, both kinds and the 3 snapshots of each M
        assert reads == [2 * 2 * 3] * len(cfg.m_grid)
        for phi in ("bump0", "bump1"):
            reads.clear()
            draws.clear()
            sgd_trend_gate(table, phi, cfg.m_grid)
            assert reads == [len(cfg.m_grid) * 2 * 3]
            assert draws == [(harness._TREND_BOOT, cfg.replicas)]

    def test_one_draw_is_the_per_resample_stream(self):
        """the gate's (resamples, replicas) draw is its old stream of one draw
        per resample, at every replica count up to 100."""
        for n_rep in range(1, 101):
            rng = harness.seeded_rng(harness._TREND_SEED, "sgd-trend")
            per_resample = [rng.integers(0, n_rep, size=n_rep) for _ in range(harness._TREND_BOOT)]
            at_once = harness.seeded_rng(harness._TREND_SEED, "sgd-trend").integers(
                0, n_rep, size=(harness._TREND_BOOT, n_rep))
            np.testing.assert_array_equal(at_once, per_resample)

    def test_cells_read_the_chain_at_each_snapshot_step(self):
        """at dt 5e-3 and M = 20 the cell reads the chain at step
        floor(M t) = 1 at the snapshot t = 0.05, recorded as 10 dt exactly,
        and at 2 at t = 0.1."""
        cfg = reference_config(m_grid=(20,), dt=5e-3, horizon=0.1, snapshot_stride=10, replicas=10,
                               base_seed=13)
        rep = Replica(cfg, cfg.base_seed, cfg.snapshot_stride)
        panel = harness._sgd_phi_panel(2)
        values = harness._sgd_values(rep, 20, panel).reshape(3, len(panel), 2)   # (snapshot, phi, smfe|sgd)
        run, chain = rep.run(1 / 20, 20, True), rep.chain(20)
        assert run.times[1] == 0.05 and chain.n_steps == 2
        means = np.array([[phi.value(x) @ run.weights for phi in panel] for x in chain.positions])
        np.testing.assert_allclose(values[:, :, 1], means, rtol=1e-14)
        assert np.all(np.abs(means[1] - means[0]) > 1e-6)   # step 0 would read apart
        np.testing.assert_allclose(values[:, :, 0], [[phi.value(x) @ run.weights for phi in panel]
                                                     for x in run.positions], rtol=1e-14)

    def test_frozen_instance_gives_zero_gap(self):
        """f = 0 labels and zero output weights freeze both processes."""
        cfg = reference_config(
            dataset_rows=((-0.5, 0.5, 0.0), (0.5, 0.5, 0.0)),
            mu0_low=(0.0, -1.0),   # c = 0 exactly
            mu0_high=(0.0, 1.0),
            m_grid=(10, 20),
            dt=5e-3,
            horizon=0.1,
            snapshot_stride=10,
            replicas=10,
            base_seed=14,
        )
        table = exp_sgd_compare(cfg)
        for s in table.summary:
            if s.get("metric", "").startswith("g:"):
                assert s["mean"] == pytest.approx(0.0, abs=1e-12)


def oracle_sgd_cells(rep: Replica) -> list:
    """The sgd-compare cells as one cell per (replica, M, metric), each
    reading its value from the replica's shared (replica, M) result."""
    harness._couple([rep], [harness._run_key(rep.config, 1.0 / m, m, True) for m in map(int, rep.config.m_grid)])
    panel = harness._sgd_phi_panel(rep.coeffs.dim)
    metrics = [f"{kind}:{phi.name}:{s}" for s in harness._sgd_snapshots(rep.config)
               for phi in panel for kind in ("smfe", "sgd")]
    cells = []
    for m in map(int, rep.config.m_grid):
        values = partial(rep.shared, ("sgd", m), partial(harness._sgd_values, rep, m, panel))
        cells += [(m, metric, lambda i=i, v=values: v()[i]) for i, metric in enumerate(metrics)]
    return cells


class TestSgdCellsOracle:
    """One cell per (replica, M) naming its metrics against one cell per
    metric, on the table of test_read_oracle.py where replicas fail at
    different M."""

    def test_rows_failures_and_warnings_match(self, monkeypatch):
        real_run_sgd = harness.run_sgd

        def flaky_run_sgd(coeffs, n_particles, *args, seed, initial, **kwargs):
            # the chain of a failing seed starts at nan: it diverges at its first step
            failing = np.isin(seed, list(FAILING[n_particles]))[:, None, None]
            return real_run_sgd(coeffs, n_particles, *args, seed=seed, initial=np.where(failing, np.nan, initial),
                                **kwargs)

        monkeypatch.setattr(harness, "run_sgd", flaky_run_sgd)
        tables, caught = [], []
        for cells in (oracle_sgd_cells, harness._sgd_cells):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                tables.append(harness._run_replicas("sgd-compare", cells, FAILING_CFG,
                                                    harness._sgd_runs(FAILING_CFG)))
            caught.append([str(w.message) for w in record])
        want, got = tables
        assert [r[:4] for r in got.rows] == [r[:4] for r in want.rows]
        assert all(a[4] == b[4] or (np.isnan(a[4]) and np.isnan(b[4])) for a, b in zip(got.rows, want.rows))
        assert got.failures == want.failures
        assert caught[1] == caught[0]
        # every metric of each failed (replica, M) cell: 2 test functions x 2 kinds x 3 snapshots
        assert len(got.failures) == 12 * sum(map(len, FAILING.values()))


def _particle_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(instance="synthetic-1d", mu0_low=(-1.0,), mu0_high=(1.0,), dt=5e-3,
                            horizon=0.05, snapshot_stride=5, replicas=10, base_seed=21, **overrides)


def oracle_commute_cells(n_ref: int, rep: Replica) -> list:
    """The commute cells as they were when each M's runs, its alpha grid and
    alpha = 0, were integrated as a batch of their own while the cells were
    listed, and only the reference pair was named to the runner."""
    cell = partial(rep.sup_w2_sq, b=(0.0, n_ref))
    alpha_min = float(min(rep.config.alpha_grid))
    cells = []
    for m in map(int, rep.config.m_grid):
        harness._couple([rep], [harness._run_key(rep.config, alpha, m, True)
                                for alpha in (*rep.config.alpha_grid, 0.0)])
        cells += [(f"{m}:{alpha}", "sup_w2_sq", partial(cell, (float(alpha), m, True)))
                  for alpha in rep.config.alpha_grid]
        cells.append((f"{m}:0", "sup_w2_sq", partial(cell, (0.0, m, True))))
    cells.append((f"ref:{alpha_min}", "sup_w2_sq", partial(cell, (alpha_min, n_ref, False))))
    return cells


class TestCommuteCellsOracle:
    """Commute's per-M runs named with the reference pair, against the
    in-cell batches they replaced: bit for bit on the synthetic instance,
    whose step takes one run at a time, and to rounding on the network,
    whose runs of mixed sizes step as one segmented batch."""

    @pytest.mark.parametrize("cfg, rtol", [
        (_particle_config(m_grid=(10, 20, 40)), 0.0),
        (reference_config(m_grid=(10, 20, 40), dt=5e-3, horizon=0.05, snapshot_stride=5, replicas=10,
                          base_seed=24), 1e-12),
    ], ids=["synthetic-1d", "network"])
    def test_rows_match_the_in_cell_batches(self, cfg, rtol):
        n_ref = 5 * max(cfg.m_grid)
        want = harness._run_replicas("commute", partial(oracle_commute_cells, n_ref), cfg,
                                     [harness._run_key(cfg, min(cfg.alpha_grid), n_ref),
                                      harness._run_key(cfg, 0.0, n_ref)])
        got = harness._run_replicas("commute", partial(harness._commute_cells, n_ref), cfg,
                                    harness._commute_runs(n_ref, cfg))
        assert [r[:4] for r in got.rows] == [r[:4] for r in want.rows]
        values = np.array([r[4] for r in got.rows])
        assert values.size == 10 * (3 * 4 + 1) and np.all(values > 0)
        if rtol:
            np.testing.assert_allclose(values, [r[4] for r in want.rows], rtol=rtol, atol=0)
        else:
            assert got.rows == want.rows
        assert got.w2_backends == want.w2_backends


class TestReplicaRunner:
    """What the runner promises: one batch per pack and none in a cell, one
    pack in memory at a time, no more workers than packs, and summary rows
    that stay quiet however few replicas survive."""

    # (experiment, config, packs); packs from the 4096-row budget over the
    # run and tangent keys of a replica (threads 1):
    CASES = {
        # 4 runs x 400 particles: 2 replicas a pack
        "lln-rate": (exp_lln_rate, tiny_lln_config(n_particles=400, horizon=0.05), 5),
        # 100 + 200 + 400 rows: 5 replicas a pack
        "sgd-compare": (exp_sgd_compare, reference_config(
            m_grid=(100, 200, 400), dt=5e-3, horizon=0.05, snapshot_stride=5, replicas=10,
            base_seed=22), 2),
        # 10 + 20 + 40 rows and the 800-atom reference: 4 replicas a pack
        "particle-rate": (exp_particle_rate, _particle_config(m_grid=(10, 20, 40)), 3),
        # 3 eps runs and the tangent solve of 400 particles: 2 replicas a pack
        "clt-rate": (exp_clt_rate, reference_config(
            n_particles=400, eps_grid=(3e-2, 1e-2, 3e-3), dt=5e-3, horizon=0.05, clt_snapshot_stride=5,
            replicas=10, base_seed=23, k_max=16), 5),
        # 4 runs at each M of 10 + 20 + 200 rows and the 1000-atom reference
        # pair: one replica a pack
        "commute": (exp_commute, _particle_config(m_grid=(10, 20, 200)), 10),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_one_batch_per_pack(self, name, monkeypatch):
        run, cfg, packs = self.CASES[name]
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return simulate_coupled(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate_coupled", counted)
        table = run(cfg)
        assert table.values("failed").size == 0
        assert len(calls) == packs

    @pytest.mark.parametrize("name", list(CASES))
    def test_no_cell_integrates(self, name, monkeypatch):
        """no simulate_coupled or run_sgd call is made while a replica's cells
        are listed or run (_guarded_cell): the packs integrate what the
        experiment names before its cells read it."""
        run, cfg, _ = self.CASES[name]
        calls, per_cell = [], []
        real_pack_rows = harness._pack_rows

        def counted(real):
            return lambda *args, **kwargs: calls.append(real) or real(*args, **kwargs)

        def counting(fn):
            """fn, appending to per_cell the integrations made while it runs."""
            def wrapped(*args):
                before = len(calls)
                out = fn(*args)
                per_cell.append(len(calls) - before)
                return out
            return wrapped

        for integrator in ("simulate_coupled", "run_sgd"):
            monkeypatch.setattr(harness, integrator, counted(getattr(harness, integrator)))
        monkeypatch.setattr(harness, "_guarded_cell", counting(harness._guarded_cell))
        monkeypatch.setattr(harness, "_pack_rows", lambda experiment, cells, *rest:
                            real_pack_rows(experiment, counting(cells), *rest))
        table = run(cfg)
        assert table.values("failed").size == 0
        assert calls and len(per_cell) > cfg.replicas
        assert per_cell == [0] * len(per_cell)

    def test_one_sgd_call_per_pack_and_m(self, monkeypatch):
        """each pack runs its replicas' chains of one M in one lockstep
        run_sgd call, before its cells; no cell runs a chain."""
        run, cfg, packs = self.CASES["sgd-compare"]
        calls, per_cell = [], []
        real_run_sgd, real_guarded_cell = harness.run_sgd, harness._guarded_cell

        def counted(coeffs, n_particles, *args, seed, **kwargs):
            calls.append((n_particles, tuple(seed)))
            return real_run_sgd(coeffs, n_particles, *args, seed=seed, **kwargs)

        def guarded_cell(*args):
            before = len(calls)
            real_guarded_cell(*args)
            per_cell.append(len(calls) - before)

        monkeypatch.setattr(harness, "run_sgd", counted)
        monkeypatch.setattr(harness, "_guarded_cell", guarded_cell)
        table = run(cfg)
        assert table.values("failed").size == 0
        size = cfg.replicas // packs
        assert calls == [(m, tuple(range(cfg.base_seed + start, cfg.base_seed + start + size)))
                         for start in range(0, cfg.replicas, size) for m in cfg.m_grid]
        assert per_cell == [0] * cfg.replicas * len(cfg.m_grid)

    @pytest.mark.parametrize("name", ["lln-rate", "sgd-compare"])
    def test_a_pack_is_freed_before_the_next_integrates(self, name, monkeypatch):
        """weakrefs to a pack's replicas are dead by reference counting
        alone (the cycle collector off) once the next pack integrates."""
        run, cfg, packs = self.CASES[name]
        made, alive = [], []   # made: (batches so far, weakref) per replica
        real_init = Replica.__init__

        def init(rep, *args, **kwargs):
            real_init(rep, *args, **kwargs)
            made.append((len(alive), weakref.ref(rep)))

        def watched(*args, **kwargs):
            alive.append(sum(ref() is not None for when, ref in made if when < len(alive)))
            return simulate_coupled(*args, **kwargs)

        monkeypatch.setattr(Replica, "__init__", init)
        monkeypatch.setattr(harness, "simulate_coupled", watched)
        gc.disable()
        try:
            run(cfg)
        finally:
            gc.enable()
        assert len(made) == cfg.replicas
        assert alive == [0] * packs

    def test_a_pool_forks_no_more_workers_than_packs(self, monkeypatch):
        """a fake pool records its worker count and maps in this process, so
        no process starts."""
        workers = []

        class Pool:
            def __init__(self, max_workers, initializer=None):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        assert harness._parallel(str, range(3), 64) == ["0", "1", "2"]
        assert harness._parallel(str, range(3), 2) == ["0", "1", "2"]
        cfg = tiny_lln_config()
        table = exp_lln_rate(replace(cfg, threads=64))   # packs of one replica
        assert workers == [3, 2, cfg.replicas]
        assert table.rows == exp_lln_rate(cfg).rows

    def test_one_surviving_replica_gives_a_nan_stderr_quietly(self):
        """9 of 10 replicas failed at every eps: the survivor's values are the
        means, the stderr is nan, and numpy warns of nothing."""
        cfg = tiny_lln_config()
        table = ResultTable(cfg)
        for r in range(cfg.replicas):
            table.rows += [("lln-rate", str(eps), cfg.base_seed + r, "sup_w2_sq", eps if r == 3 else np.nan)
                           for eps in cfg.eps_grid]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            harness._grid_summary(table, "lln-rate", "sup_w2_sq", cfg.eps_grid, {})
        assert [str(w.message) for w in record] == ["excluding 9 replica(s) with failed cells"]
        assert [e["mean"] for e in table.summary] == list(cfg.eps_grid)
        assert all(np.isnan(e["stderr"]) for e in table.summary)

    def test_mean_row_below_two_replicas(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            none, one, two = (harness._mean_row(np.arange(n, dtype=float)) for n in (0, 1, 2))
        assert np.isnan(none["mean"]) and np.isnan(none["stderr"])
        assert one["mean"] == 0.0 and np.isnan(one["stderr"])
        assert two == {"mean": 0.5, "stderr": np.std([0.0, 1.0], ddof=1) / np.sqrt(2)}
        assert harness._mean_row(np.ones(3), stderr=False) == {"mean": 1.0}


class TestCommuteExperiment:
    def test_square_shrinks_toward_the_corner(self):
        cfg = ExperimentConfig(
            instance="synthetic-1d",
            synthetic_params=(("kappa", 0.5), ("gamma", 0.5), ("g_amp", 1.5), ("g_freq", 1.0)),
            mu0_kind="uniform",
            mu0_low=(-1.0,),
            mu0_high=(1.0,),
            m_grid=(12, 50, 200),
            alpha_grid=(0.08, 0.02, 0.005),
            dt=2e-3,
            horizon=0.25,
            snapshot_stride=25,
            replicas=20,
            base_seed=15,
        )
        table = exp_commute(cfg)
        means = {
            s["param"]: s["mean"]
            for s in table.summary
            if s.get("metric") == "sup_w2_sq"
        }
        corner = means["200:0.005"]
        assert corner == min(means.values())
        fit_rows = [s for s in table.summary if s.get("metric") == "surface_fit"]
        assert fit_rows[0]["rel_residual"] < 0.30
        assert fit_rows[0]["c_alpha"] > 0
        assert fit_rows[0]["c_inv_m"] > 0
        # the two iterated-limit endpoints land close to each other
        e_a = fit_rows[0]["endpoint_alpha_then_m"]
        e_b = fit_rows[0]["endpoint_m_then_alpha"]
        scale = fit_rows[0]["c_alpha"] * 0.005 + fit_rows[0]["c_inv_m"] / 200
        assert abs(e_a - e_b) <= 3.0 * scale

    def test_network_instance_stays_exact(self):
        """d = 2, M-particle runs against the n_ref = 5 max(M) = 40 reference:
        every cell is served by the exact assignment (M divides n_ref) and
        reported."""
        cfg = reference_config(m_grid=(4, 8), dt=5e-3, horizon=0.05, snapshot_stride=5,
                               replicas=10, base_seed=16)
        table = exp_commute(cfg)
        assert table.values("failed").size == 0
        fit = [s for s in table.summary if s.get("metric") == "surface_fit"][0]
        # 10 replicas x (2 M x (3 alphas + the alpha -> 0 edge) + the M -> infinity edge)
        assert fit["w2_backends"] == "assignment:90"
        assert np.isfinite(fit["rel_residual"])


class TestCli:
    def write_cfg(self, tmp_path, **overrides):
        cfg = reference_config(
            n_particles=15,
            eps_grid=(3e-2, 1e-2, 3e-3),
            dt=5e-3,
            horizon=0.1,
            snapshot_stride=5,
            replicas=10,
            base_seed=21,
            **overrides,
        )
        path = tmp_path / "config.json"
        path.write_text(cfg.to_json())
        return path

    def test_simulate_writes_trajectory(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        text = (out / "trajectory.txt").read_text().splitlines()
        assert text[0].startswith("# noise seed=")
        assert (out / "run-meta.json").exists()

    def test_sgd_writes_chain(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["sgd", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "sgd-chain.txt").exists()

    def test_lln_rate_outputs(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "res"
        rc = cli_main([
            "lln-rate", "--config", str(cfg_path), "--out", str(out), "--replicas", "10",
        ])
        assert rc == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        printed = capsys.readouterr().out
        assert "slope" in printed and "(95% CI [" in printed

    def test_diagnose_report(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "diag"
        assert cli_main(["diagnose", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "diagnostics.txt").read_text().splitlines()
        assert lines[0] == "phi seed metric value"
        assert any("weak_residual" in line for line in lines)
        field = paper_forms.read_field(out / "field-final.txt")
        assert field.kind == "atomic"
        assert abs(field.payload.sum()) < 1e-12

    def test_seed_override_changes_hash(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_a)])
        cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_b), "--seed", "555"])
        meta_a = json.loads((out_a / "run-meta.json").read_text())
        meta_b = json.loads((out_b / "run-meta.json").read_text())
        assert meta_a["config_hash"] != meta_b["config_hash"]
        # every subcommand writes the run-meta schema of ResultTable.write
        ResultTable(ExperimentConfig.from_file(cfg_path)).write(tmp_path / "table")
        meta_table = json.loads((tmp_path / "table" / "run-meta.json").read_text())
        assert meta_a.keys() == meta_table.keys()

    def test_remaining_experiment_subcommands(self, tmp_path):
        """clt-rate, particle-rate, sgd-compare and commute all produce the
        standard output triple through the CLI."""
        clt_cfg = reference_config(
            n_particles=10, eps_grid=(3e-2, 1e-2, 3e-3), dt=5e-3, horizon=0.1,
            clt_snapshot_stride=10, replicas=10, base_seed=30, k_max=32, r_box=4.0,
        )
        syn_cfg = ExperimentConfig(
            instance="synthetic-1d", mu0_kind="uniform", mu0_low=(-1.0,), mu0_high=(1.0,),
            m_grid=(10, 20, 40), alpha_grid=(0.05, 0.01), dt=5e-3, horizon=0.1,
            snapshot_stride=10, replicas=10, base_seed=31,
        )
        sgd_cfg = reference_config(
            m_grid=(10, 20), dt=5e-3, horizon=0.1, snapshot_stride=10,
            replicas=10, base_seed=32,
        )
        for name, cfg in (("clt-rate", clt_cfg), ("particle-rate", syn_cfg),
                          ("commute", syn_cfg), ("sgd-compare", sgd_cfg)):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(cfg.to_json())
            out = tmp_path / name
            rc = cli_main([name, "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0
            assert (out / "results.csv").exists()
            assert (out / "summary.csv").exists()
            assert (out / "run-meta.json").exists()


class TestCliErrors:
    def test_refused_config_is_one_line_and_status_2(self, tmp_path, capsys):
        """a config the experiment refuses ends the run with one line on
        stderr naming the field, and exit status 2, not a traceback."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset_rows": [[-1.0, 0.5, 0.0], [1.0, 0.5, 0.5]],
                                    "n_particles": 5, "dt": 0.01, "horizon": 0.05,
                                    "eps_grid": [-0.5]}))
        assert cli_main(["lln-rate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("meanfield-sgd lln-rate: error: eps_grid must")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        (json.dumps({"dataset_file": "no-such-dataset.txt"}), "dataset_file must"),
        (None, "No such file or directory"),
    ], ids=["malformed-json", "missing-dataset-file", "missing-config"])
    def test_unreadable_input_is_one_line_and_status_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("meanfield-sgd simulate: error: ") and message in err
        assert err.count("\n") == 1

    def test_other_errors_propagate(self, tmp_path, monkeypatch):
        """only refusals and file errors become an exit status; a fault in the
        code still raises."""
        from meanfield_sgd import cli

        def broken(cfg):
            raise RuntimeError("not a refusal")

        monkeypatch.setattr(cli, "exp_lln_rate", broken)
        path = tmp_path / "cfg.json"
        path.write_text(reference_config(eps_grid=(3e-2, 1e-2, 3e-3), replicas=10).to_json())
        with pytest.raises(RuntimeError, match="not a refusal"):
            cli_main(["lln-rate", "--config", str(path), "--out", str(tmp_path / "out")])


class TestFailureRecording:
    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("experiment, overrides, fit_metric", [
        (exp_lln_rate, {}, "slope"),
        (exp_clt_rate, {}, "slope"),
        (exp_clt_rate, {"r_box": 4.0}, "slope"),
        (exp_commute, {}, "surface_fit"),
        (exp_particle_rate, {}, "amplification"),
    ], ids=["lln-rate", "clt-rate-auto-box", "clt-rate-fixed-box", "commute", "particle-rate"])
    def test_diverging_cells_are_recorded_not_fatal(self, experiment, overrides, fit_metric):
        """an exploding synthetic drift turns cells into recorded failures."""
        cfg = ExperimentConfig(
            instance="synthetic-1d",
            synthetic_params=(("kappa", -1e6), ("gamma", 0.0), ("g_amp", 0.1), ("g_freq", 1.0)),
            mu0_kind="uniform", mu0_low=(-1.0,), mu0_high=(1.0,),
            n_particles=5,
            eps_grid=(3e-2, 1e-2, 3e-3),
            dt=5e-3, horizon=0.5, snapshot_stride=20,
            replicas=10, base_seed=40, **overrides,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = experiment(cfg)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        failed = [r for r in table.rows if r[3] == "failed"]
        assert failed, "expected recorded failure rows"
        fit_rows = [s for s in table.summary if s.get("metric") == fit_metric]
        assert fit_rows
        for row in fit_rows:
            assert row.get("all_cells_failed") or np.isnan(row.get("slope", row.get("mean")))

    def test_a_batch_that_raises_fails_every_replica_of_its_pack(self, monkeypatch):
        """A ``simulate_coupled`` that raises for its whole batch, rather
        than giving each run its result, fails every cell of every replica
        of the pack with its error, and the experiment completes."""
        def raising(*args, **kwargs):
            raise SimulationError("the batch raised")

        monkeypatch.setattr(harness, "simulate_coupled", raising)
        cfg = ExperimentConfig(instance="synthetic-1d", mu0_low=(-1.0,), mu0_high=(1.0,), n_particles=5,
                               eps_grid=(3e-2, 1e-2, 3e-3), dt=5e-3, horizon=0.05, snapshot_stride=5,
                               replicas=10, base_seed=40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = exp_lln_rate(cfg)
        seeds = range(cfg.base_seed, cfg.base_seed + cfg.replicas)
        assert {(r[1], r[2]) for r in table.rows if r[3] == "failed"} == {
            (str(e), seed) for e in cfg.eps_grid for seed in seeds}
        assert all(np.isnan(r[4]) for r in table.rows if r[3] != "failed")
        assert {f["error"] for f in table.failures} == {"the batch raised"}
        assert [s["all_cells_failed"] for s in table.summary if s.get("metric") == "slope"] == [True]

    @pytest.mark.parametrize("experiment", [exp_lln_rate, exp_clt_rate], ids=["lln-rate", "clt-rate"])
    def test_a_diverged_member_fails_only_its_cells(self, experiment, monkeypatch, tmp_path):
        """Only the largest eps run blows up (G = +-50 x^2, no drift): its cells
        alone fail, with the error text of its own run, and every other row
        is the one the runs integrated one at a time give."""
        def g_batch(X, atoms, weights):
            return 50.0 * X[:, None, :] ** 2 * np.array([1.0, -1.0])[None, :, None]

        monkeypatch.setattr(harness, "build_coefficients",
                            lambda cfg: SyntheticCoefficients(dim=1, n_channels=2, g_batch=g_batch))
        cfg = ExperimentConfig(
            instance="synthetic-1d", mu0_low=(-0.5,), mu0_high=(0.5,), n_particles=8,
            eps_grid=(10.0, 1e-3, 1e-4), dt=1e-2, horizon=0.2, snapshot_stride=5,
            clt_snapshot_stride=5, replicas=10, base_seed=3, k_max=16, r_box=4.0,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = experiment(cfg)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        failed = {(r[1], r[2]) for r in table.rows if r[3] == "failed"}
        assert failed == {("10.0", cfg.base_seed + r) for r in range(cfg.replicas)}

        def one_at_a_time(pairs, coeffs, base, noises, tangent=()):
            runs = []
            for b, ((initial, e), noise) in enumerate(zip(pairs, noises, strict=True)):
                try:
                    if b in tangent:
                        runs.append(solve_tangent(initial.positions, coeffs, base, noise))
                    elif e:
                        runs.append(simulate(initial, coeffs, replace(base, eps=e), noise))
                    else:
                        runs.append(simulate_transport(initial, coeffs, base))
                except harness._CELL_ERRORS as exc:
                    runs.append(exc)
            return runs

        with monkeypatch.context() as m, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m.setattr(harness, "simulate_coupled", one_at_a_time)
            sequential = experiment(cfg)
        assert [r[:4] for r in table.rows] == [r[:4] for r in sequential.rows]
        for got, want in zip(table.rows, sequential.rows):
            assert got[4] == want[4] or (np.isnan(got[4]) and np.isnan(want[4]))
        assert table.failures == sequential.failures
        assert [(f["param"], f["seed"]) for f in table.failures] == sorted(failed, key=lambda c: c[1])
        assert all(f["error"].startswith("non-finite state at step") for f in table.failures)
        table.write(tmp_path)
        meta = json.loads((tmp_path / "run-meta.json").read_text())
        assert meta["failures"] == table.failures
        assert meta["numpy_version"] == np.__version__

