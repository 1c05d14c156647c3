"""The four benchmark workloads and the per-layer size sweep.

Each workload is a closed loop: one experiment pass after another, each pass
on the same inputs, one process, ``threads=1``.  A pass is what a user waits
for: the experiment, its fit or gate, and the writing of its results.  Sizes
keep the reference instance (tanh network, 5 data atoms, d=2, N=200,
dt=1e-3) and shorten the horizon so one pass takes two to three seconds
at reference speed; strides keep each workload's split of work between
layers close to that of the full-length experiment, except that clt-rate
spends ~45% in the spectral norm where horizon 1 spends ~20%.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from calibrate import measured
from meanfield_sgd import cli, diagnostics, dynamics, fluctuations, harness, measures


@dataclass
class PassOutput:
    outputs: dict        # headline output name -> float or bool
    cells: int           # grid cells the pass ran
    failed_rows: int     # cells the program itself recorded as failed


class Workload:
    """Set up once per process, then run passes on one seed at a time."""

    name = ""

    def __init__(self, out_dir: str, smoke: bool):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def config_hash(self, seed: int) -> str:
        raise NotImplementedError

    def run_pass(self, seed: int):
        """The timed part; returns whatever ``collect`` needs."""
        raise NotImplementedError

    def collect(self, raw) -> PassOutput:
        raise NotImplementedError


# --------------------------------------------------------------------------
# rate experiments through the command line
# --------------------------------------------------------------------------


class CliRate(Workload):
    subcommand = ""

    def __init__(self, out_dir: str, smoke: bool):
        super().__init__(out_dir, smoke)
        self.cfg = self.make_config(smoke)
        self.config_path = os.path.join(out_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.cfg.to_json())

    def make_config(self, smoke: bool):
        raise NotImplementedError

    def config_hash(self, seed: int) -> str:
        return replace(self.cfg, base_seed=seed, out_dir=self.out_dir).config_hash()

    def run_pass(self, seed: int):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([self.subcommand, "--config", self.config_path, "--out", self.out_dir,
                      "--seed", str(seed), "--threads", "1"])

    def collect(self, raw) -> PassOutput:
        with open(os.path.join(self.out_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
            summary = list(csv.DictReader(fh))
        with open(os.path.join(self.out_dir, "results.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        outputs = {}
        for entry in summary:
            if entry.get("param"):
                outputs[f"mean:{entry['param']}"] = float(entry["mean"])
            elif entry.get("metric") == "slope":
                outputs["slope"] = float(entry["slope"])
                if entry.get("r_box"):
                    outputs["r_box"] = float(entry["r_box"])
        failed = sum(1 for r in rows if r["metric"] == "failed")
        return PassOutput(outputs, self.cfg.replicas * len(self.cfg.eps_grid), failed)


class LlnRate(CliRate):
    """Step kernel and exact-assignment W2 do nearly all the work."""

    name = "lln-rate"
    subcommand = "lln-rate"

    def make_config(self, smoke):
        if smoke:
            return harness.reference_config(replicas=10, n_particles=20, horizon=0.02, threads=1)
        # 100 steps and 11 snapshots per run keep the ~70/30 step/W2 split of horizon 1
        return harness.reference_config(replicas=10, horizon=0.1, snapshot_stride=10, threads=1)


class CltRate(CliRate):
    """Tangent solves, the spectral H^-J norm and bounding-box re-integration; no W2."""

    name = "clt-rate"
    subcommand = "clt-rate"

    def make_config(self, smoke):
        if smoke:
            return harness.reference_config(replicas=10, n_particles=20, horizon=0.02,
                                            clt_snapshot_stride=10, k_max=16, threads=1)
        # 12 integrations, one tangent solve and 15 H^-J norms per replica
        return harness.reference_config(replicas=10, horizon=0.05, clt_snapshot_stride=25,
                                        sobolev_j=5, k_max=64, r_box=None, threads=1)


# --------------------------------------------------------------------------
# SGD comparison with both trend gates
# --------------------------------------------------------------------------


class SgdCompare(Workload):
    """Result-table lookups and trend gates that grow with replicas squared,
    run_sgd, and small-N integration bound by per-call overhead."""

    name = "sgd-compare"
    bumps = ("bump0", "bump1")

    def __init__(self, out_dir: str, smoke: bool):
        super().__init__(out_dir, smoke)
        if smoke:
            self.cfg = harness.reference_config(replicas=10, m_grid=(10, 20, 40), horizon=0.05,
                                                snapshot_stride=10, threads=1)
        else:
            # 21 snapshots per run, as in acceptance criterion 10, so rows per
            # replica (and the quadratic gate cost) match it at a tenth of the steps
            self.cfg = harness.reference_config(replicas=20, m_grid=(50, 100, 200), horizon=0.1,
                                                snapshot_stride=5, threads=1)

    def config_hash(self, seed: int) -> str:
        return replace(self.cfg, base_seed=seed).config_hash()

    def run_pass(self, seed: int):
        cfg = replace(self.cfg, base_seed=seed)
        table = harness.exp_sgd_compare(cfg)
        table.write(self.out_dir)
        gates = [harness.sgd_trend_gate(table, phi, cfg.m_grid) for phi in self.bumps]
        return table, gates

    def collect(self, raw) -> PassOutput:
        table, gates = raw
        outputs = {}
        for entry in table.summary:
            if entry["metric"].startswith("g:"):
                outputs[f"sqrt_m_g:{entry['metric'][2:]}:{entry['param']}"] = float(entry["sqrt_m_g"])
        for phi, (ok, _) in zip(self.bumps, gates):
            outputs[f"gate:{phi}"] = bool(ok)
        failed = sum(1 for r in table.rows if r[3] == "failed")
        return PassOutput(outputs, self.cfg.replicas * len(self.cfg.m_grid), failed)


# --------------------------------------------------------------------------
# structural diagnostics (acceptance criteria 2, 3 and 8 in shape)
# --------------------------------------------------------------------------


class Structural(Workload):
    """Diagnostics do most of the work and integration little, through the
    materialised noise matrix: the bypass workload for step-kernel changes."""

    name = "structural"
    eps = 1e-2
    dts = (4e-3, 2e-3, 1e-3)

    def __init__(self, out_dir: str, smoke: bool):
        super().__init__(out_dir, smoke)
        self.cfg = harness.reference_config(n_particles=20 if smoke else 200,
                                            horizon=0.04 if smoke else 0.5, threads=1)
        self.coeffs = harness.build_coefficients(self.cfg)
        self.spec = harness.build_initial_spec(self.cfg)
        self.panel = diagnostics.standard_panel(2)
        self.bump = diagnostics.gaussian_bump([0.0, 0.0], 1.0)

    def config_hash(self, seed: int) -> str:
        return replace(self.cfg, base_seed=seed, eps_grid=(self.eps,)).config_hash()

    def run_pass(self, seed: int):
        cfg = self.cfg
        initial = dynamics.sample_initial(self.spec, cfg.n_particles, seed)
        fine = dynamics.NoisePath(seed, self.dts[-1], int(round(cfg.horizon / self.dts[-1])),
                                  self.coeffs.n_channels)
        means, failed, traj = [], 0, None
        for dt in self.dts:
            noise = fine.coarsened(int(round(dt / self.dts[-1])))
            run = dynamics.IntegratorConfig(dt=dt, horizon=cfg.horizon, eps=self.eps, snapshot_stride=1)
            try:
                traj = dynamics.simulate(initial, self.coeffs, run, noise)
            except dynamics.SimulationError:
                failed += 1
                means.append(float("nan"))
                continue
            res = diagnostics.smfe_weak_residual_panel(traj, noise, self.coeffs, self.eps, self.panel)
            means.append(sum(abs(v) for v in res.values()) / len(self.panel))
        outputs = {f"mean_abs_r:{dt:g}": m for dt, m in zip(self.dts, means)}
        if failed:
            return outputs, failed
        outputs["residual_slope"] = harness.fit_slope(self.dts, means).slope
        realized, predicted = diagnostics.qv_check(traj, self.coeffs, self.bump)
        outputs["qv_ratio"] = realized / predicted
        outputs["min_distance_ratio"] = diagnostics.min_pairwise_distance(traj)[1]
        for p in (2, 4):
            outputs[f"moment{p}_ratio"] = diagnostics.moment_track(traj, p)[1]
        diagnostics.write_report([("-", seed, k, v) for k, v in outputs.items()],
                                 os.path.join(self.out_dir, "diagnostics.txt"))
        return outputs, failed

    def collect(self, raw) -> PassOutput:
        outputs, failed = raw
        return PassOutput({k: float(v) for k, v in outputs.items()}, len(self.dts), failed)


WORKLOADS = {w.name: w for w in (LlnRate, CltRate, SgdCompare, Structural)}


# --------------------------------------------------------------------------
# per-layer size sweep (untraced): microseconds per call at N in {200, 2000, 20000}
# --------------------------------------------------------------------------


def _median_us(fn, reps: int) -> float:
    """Median microseconds per call; the first of several calls only warms up."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times[1:] if reps > 1 else times))


def _sweep_at(n: int, reps: int, co, spec, grid, run, dB) -> dict[str, float]:
    ens = dynamics.sample_initial(spec, n, 0)
    other = dynamics.sample_initial(spec, n, 1)
    tens = fluctuations.TangentEnsemble(ens.positions, 0.1 * other.positions)
    eta = measures.SignedAtomicField.atomic(
        np.concatenate([ens.positions, other.positions]),
        np.concatenate([np.full(n, 1.0 / n), np.full(n, -1.0 / n)]))
    tangent_field = tens.field()
    out = {
        f"dynamics.step_us.n{n}": _median_us(lambda: dynamics.step_interacting(ens, co, run, dB), reps),
        f"fluctuations.tangent_step_us.n{n}": _median_us(
            lambda: fluctuations.tangent_step(tens, co, run, dB), reps),
        f"measures.hneg_us.n{n}": _median_us(
            lambda: measures.sobolev_neg_norm_diff(eta, tangent_field, grid), reps),
    }
    if n <= 2000:
        a, b = ens.as_measure(), other.as_measure()
        out[f"measures.w2_us.n{n}"] = _median_us(lambda: measures.w2(a, b), reps)
    return out


def size_sweep(smoke: bool) -> dict[str, float]:
    """Direct per-call timings of the step, tangent step, H^-J norm and W2,
    at reference speed.

    W2 is not timed at N=20000: the dispatcher would fall through to dense
    Sinkhorn with 20000 x 20000 matrices.
    """
    cfg = harness.reference_config()
    co = harness.build_coefficients(cfg)
    spec = harness.build_initial_spec(cfg)
    grid = measures.SpectralGrid(r_box=3.0, k_max=cfg.k_max, j=cfg.sobolev_j)
    run = dynamics.IntegratorConfig(dt=cfg.dt, horizon=cfg.dt, eps=1e-2)
    dB = dynamics.NoisePath(0, cfg.dt, 1, co.n_channels).increments[0]
    out = {}
    for n, reps in ((200, 30), (2000, 3), (20000, 3)):
        m = measured(lambda: _sweep_at(n, 1 if smoke else reps, co, spec, grid, run, dB))
        out.update({k: v * m.factor for k, v in m.result.items()})
    return out
