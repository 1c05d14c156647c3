"""Command line entry points for simulations, SGD runs, rate experiments and
diagnostics.  Every subcommand reads a JSON config (all keys optional, see
ExperimentConfig) and writes results.csv / summary.csv / run-meta.json into
the output directory; results depend only on (config, seeds), never on the
worker count.  A refused config or an unreadable file exits with status 2
and one ``meanfield-sgd <command>: error: <message>`` line on stderr."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .measures import SignedAtomicField, write_field, write_table
from .diagnostics import (
    min_pairwise_distance,
    moment_track,
    qv_check_panel,
    smfe_weak_residual_panel,
    standard_panel,
    write_report,
)
from .dynamics import embedded_step, run_sgd, sample_initial, write_trajectory
from .harness import (
    SLOPE_LEVEL,
    TREND_LEVEL,
    ExperimentConfig,
    Replica,
    ResultTable,
    build_coefficients,
    build_initial_spec,
    exp_clt_rate,
    exp_commute,
    exp_lln_rate,
    exp_particle_rate,
    exp_sgd_compare,
    reference_config,
    sgd_trend_gate,
    write_run_meta,
)


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
    else:
        cfg = reference_config()
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.replicas is not None:
        overrides["replicas"] = args.replicas
    if args.threads is not None:
        overrides["threads"] = args.threads
    return replace(cfg, **overrides) if overrides else cfg


def _first_file(out: str, name: str) -> str:
    """The path of ``name`` in ``out``, made when a command writes its
    first file, so that a refused command leaves no directory."""
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _cmd_simulate(cfg: ExperimentConfig, out: str):
    eps = float(cfg.eps_grid[0]) if cfg.eps_grid else 0.0
    traj = Replica(cfg, cfg.base_seed, cfg.snapshot_stride).run(eps)
    write_trajectory(traj, _first_file(out, "trajectory.txt"))
    write_run_meta(cfg, out)
    print(f"wrote {traj.n_snapshots} snapshots to {out}/trajectory.txt (eps={eps})")


def _cmd_sgd(cfg: ExperimentConfig, out: str):
    coeffs = build_coefficients(cfg)
    m = cfg.n_particles
    initial = sample_initial(build_initial_spec(cfg), m, cfg.base_seed)
    chain = run_sgd(coeffs, m, alpha=1.0 / m, batch_size=1, n_steps=int(embedded_step(m, cfg.horizon, up=True)),
                    seed=cfg.base_seed, initial=initial.positions)
    states = chain.n_steps + 1
    write_table(_first_file(out, "sgd-chain.txt"),
                np.column_stack([np.repeat(np.arange(states), m), np.tile(np.arange(m), states),
                                 chain.positions.reshape(states * m, -1)]),
                "columns: step pid x1..xd")
    write_run_meta(cfg, out)
    print(f"wrote SGD chain ({chain.n_steps} steps, {m} particles) to {out}/sgd-chain.txt")


def _run_table(runner, label: str, cfg: ExperimentConfig, out: str) -> ResultTable:
    table = runner(cfg)
    table.write(out)
    for entry in table.summary:
        if "slope" in entry:
            ci = ""
            if entry.get("ci_low") is not None:
                ci = f" ({SLOPE_LEVEL:.0%} CI [{entry['ci_low']:.3f}, {entry['ci_high']:.3f}])"
            print(f"{label}: {entry.get('metric', 'slope')} = {entry['slope']:.3f}{ci}")
    print(f"{label}: wrote results.csv, summary.csv, run-meta.json")
    return table


def _cmd_sgd_compare(cfg: ExperimentConfig, out: str):
    table = _run_table(exp_sgd_compare, "sgd-compare", cfg, out)
    ok, intervals = sgd_trend_gate(table, "bump0", [int(m) for m in cfg.m_grid])
    print(f"sgd-compare: sqrt(M) g(M) non-increasing within CI: {ok}")
    for (inc, lo, hi) in intervals:
        print(f"  increment {inc:+.4g}, {TREND_LEVEL:.0%} CI [{lo:+.4g}, {hi:+.4g}]")


def _cmd_diagnose(cfg: ExperimentConfig, out: str):
    eps = float(cfg.eps_grid[0]) if cfg.eps_grid else 0.0
    rep = Replica(cfg, cfg.base_seed, 1)
    traj, coeffs = rep.run(eps), rep.coeffs
    noise = rep.noise if eps > 0 else None
    panel = standard_panel(coeffs.dim)
    residuals = smfe_weak_residual_panel(traj, noise, coeffs, eps, panel)
    qv = qv_check_panel(traj, coeffs, panel) if eps > 0 else {}
    rows = []
    for phi in panel:
        rows.append((phi.name, cfg.base_seed, "weak_residual", residuals[phi.name]))
        if eps > 0:
            realized, predicted = qv[phi.name]
            rows.append((phi.name, cfg.base_seed, "qv_realized", realized))
            rows.append((phi.name, cfg.base_seed, "qv_predicted", predicted))
    _, ratio = min_pairwise_distance(traj)
    rows.append(("-", cfg.base_seed, "min_distance_ratio", ratio))
    for p in (2, 4):
        sup, rel = moment_track(traj, p)
        rows.append(("-", cfg.base_seed, f"moment{p}_sup", sup))
        rows.append(("-", cfg.base_seed, f"moment{p}_ratio", rel))
    write_report(rows, _first_file(out, "diagnostics.txt"))
    # signed displacement field mu_T - mu_0, in the columnar field format
    field = SignedAtomicField.atomic(
        np.concatenate([traj.positions[-1], traj.positions[0]]),
        np.concatenate([traj.weights, -traj.weights]),
    )
    write_field(field, os.path.join(out, "field-final.txt"))
    write_run_meta(cfg, out)
    print(f"diagnose: wrote {len(rows)} rows to {out}/diagnostics.txt "
          f"and the displacement field to {out}/field-final.txt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meanfield-sgd",
        description="simulation laboratory for stochastic mean-field limits of SGD",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": _cmd_simulate,
        "sgd": _cmd_sgd,
        "lln-rate": lambda cfg, out: _run_table(exp_lln_rate, "lln-rate", cfg, out),
        "particle-rate": lambda cfg, out: _run_table(exp_particle_rate, "particle-rate", cfg, out),
        "clt-rate": lambda cfg, out: _run_table(exp_clt_rate, "clt-rate", cfg, out),
        "sgd-compare": _cmd_sgd_compare,
        "commute": lambda cfg, out: _run_table(exp_commute, "commute", cfg, out),
        "diagnose": _cmd_diagnose,
    }
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="base seed override")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--replicas", type=int, default=None, help="replica count override")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (results are invariant to this)")
    args = parser.parse_args(argv)
    # a refused config or argument (ValueError, JSONDecodeError among them)
    # or a file that cannot be read or written ends the run with one line
    try:
        cfg = _load_config(args)
        commands[args.command](cfg, cfg.out_dir or "out")
    except (ValueError, OSError) as exc:
        print(f"meanfield-sgd {args.command}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
