"""Batch front end: solve campaigns driven by a config file.

Subcommands:

    sigma     estimate the surface tension on the configured directions;
              emits a JSON direction table and a per-solve CSV
    polar     render an existing sigma table as a polar SVG
    gamma     diffuse-interface gap study on a flat strip; emits CSV
    validate  hypothesis, rotation, periodicity (and, if a table is
              present, convexity) reports
    tile      tiling subadditivity check; emits CSV

Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 validation failure.  Outputs are byte-deterministic for a fixed
config, seed and worker count; every file is listed in the run manifest
with its content hash (the manifest itself carries a timestamp).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cell import SOLVE_CSV_COLUMNS, CellGrid, SolverOptions, estimate_sigma, minimize_cell, solve_csv_row
from .config import Config, ConfigError, parse_config
from .gamma import GAP_CSV_COLUMNS, DomainSpec, gamma_gap
from .lattice import check_periodicity, rotation_from_direction
from .potential import validate_hypotheses
from .profile import TransitionProfile
from .surface import SigmaTable, convexity_check
from .svgplot import polar_svg
from .tiling import subadditivity_gap

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_VALIDATION = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass
class _Run:
    cfg: Config
    out_dir: str
    outputs: list
    outcomes: list

    def write_text(self, name: str, text: str) -> str:
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.outputs.append({"path": name, "sha256": digest})
        return path

    def write_csv(self, name: str, header, rows) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        return self.write_text(name, buf.getvalue())

    def manifest(self, command: str, exit_code: int) -> None:
        doc = {
            "artifact": {"name": "sigmacell", "version": __version__},
            "command": command,
            "config_sha256": hashlib.sha256(self.cfg.raw_text.encode("utf-8")).hexdigest(),
            "created_unix": time.time(),
            "exit_code": exit_code,
            "outcomes": self.outcomes,
            "outputs": self.outputs,
        }
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _solver_options(cfg: Config) -> SolverOptions:
    return SolverOptions(
        tolerance=cfg.tolerance,
        max_iterations=cfg.max_iterations,
        memory=cfg.memory,
        record_trace=False,
    )


def _profile(cfg: Config, dim: int = 2) -> TransitionProfile:
    return TransitionProfile(cfg.potential.wells, cfg.mollifier, dim=dim)


def _sigma_task(args):
    cfg, nu, dim = args
    rotation = rotation_from_direction(nu)
    profile = _profile(cfg, dim)
    est = estimate_sigma(
        rotation,
        cfg.T_schedule,
        cfg.potential,
        profile,
        cfg.h,
        dim=dim,
        opts=_solver_options(cfg),
        lattice_aligned=cfg.lattice_aligned,
        tangential=cfg.tangential,
    )
    return est


def run_sigma(cfg: Config, run: _Run) -> int:
    dim = 2
    tasks = [(cfg, nu, dim) for nu in cfg.directions]
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            estimates = list(pool.map(_sigma_task, tasks))
    else:
        estimates = [_sigma_task(t) for t in tasks]

    rows = [
        solve_csv_row(est.nu, ref.T, h, result)
        for est in estimates
        for ref in est.refinements
        for result, h in ((ref.coarse, 2 * ref.h), (ref.fine, ref.h))
    ]
    header = [f"nu{i + 1}" for i in range(dim)] + list(SOLVE_CSV_COLUMNS)
    if "csv" in cfg.formats:
        run.write_csv("solves.csv", header, rows)

    table = SigmaTable(
        [(est.nu, est.sigma_hat, est.error_bar) for est in estimates],
        dimension=dim,
        potential_info=cfg.potential.describe(),
    )
    if "json" in cfg.formats:
        run.write_text(cfg.sigma_table_name, table.to_json() + "\n")

    all_converged = all(est.converged for est in estimates)
    run.outcomes.append(
        {
            "kind": "sigma",
            "directions": len(estimates),
            "converged": all_converged,
            "sigma_hat": [est.sigma_hat for est in estimates],
        }
    )
    return EXIT_OK if all_converged else EXIT_NONCONVERGED


def run_polar(cfg: Config, run: _Run) -> int:
    path = os.path.join(run.out_dir, cfg.sigma_table_name)
    if not os.path.exists(path):
        print(f"error: sigma table {path} not found; run the sigma command first", file=sys.stderr)
        return EXIT_CONFIG
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        table = SigmaTable.from_json(text)
    except (ValueError, KeyError) as exc:
        print(f"error: cannot read sigma table: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    run.write_text("polar.svg", polar_svg(table))
    run.outcomes.append({"kind": "polar", "entries": len(table.entries)})
    return EXIT_OK


def run_gamma(cfg: Config, run: _Run) -> int:
    dim = 2
    profile = _profile(cfg, dim)
    nu = cfg.directions[0]
    rotation = rotation_from_direction(nu)
    opts = _solver_options(cfg)
    est = estimate_sigma(
        rotation, cfg.T_schedule, cfg.potential, profile, cfg.h,
        dim=dim, opts=opts, lattice_aligned=cfg.lattice_aligned, tangential=cfg.tangential,
    )
    cell_grid = CellGrid(dim, cfg.T_cell, cfg.h, rotation, cfg.tangential)
    cell_res, cell_state = minimize_cell(cell_grid, cfg.potential, profile, opts)
    domain = DomainSpec.flat_strip(dim=dim)
    rows = gamma_gap(domain, cfg.eps_schedule, cfg.potential, profile, est.sigma_hat, cell_state, opts)
    if "csv" in cfg.formats:
        run.write_csv(
            "gamma_gaps.csv",
            GAP_CSV_COLUMNS,
            [[r.eps, r.min_energy, r.recovery_energy, r.sigma_target, r.gap_min, r.gap_recovery] for r in rows],
        )
    ok = cell_res.converged and all(r.converged for r in rows)
    run.outcomes.append(
        {"kind": "gamma", "sigma_hat": est.sigma_hat, "eps": [r.eps for r in rows], "converged": ok}
    )
    return EXIT_OK if ok else EXIT_NONCONVERGED


def run_validate(cfg: Config, run: _Run) -> int:
    lines = []
    failed = False
    report = validate_hypotheses(cfg.potential, cfg.samples, cfg.seed)
    lines.extend(report.summary_lines())
    failed |= not report.all_passed

    for nu in cfg.directions:
        rotation = rotation_from_direction(nu)
        lines.append(f"rotation {nu}: period {rotation.period}, exact invariants hold")
        per = check_periodicity(cfg.potential, rotation, cfg.samples, cfg.seed)
        lines.append(f"periodicity {nu}: {'pass' if per.passed else 'FAIL'}")
        failed |= not per.passed

    table_path = os.path.join(run.out_dir, cfg.sigma_table_name)
    if os.path.exists(table_path):
        with open(table_path, "r", encoding="utf-8") as fh:
            table = SigmaTable.from_json(fh.read())
        if len(table.entries) >= 3:
            violations = convexity_check(table)
            lines.append(f"convexity: {len(violations)} violation(s) beyond the error bars")
            failed |= bool(violations)
        else:
            lines.append("convexity: skipped (table has fewer than 3 directions)")
    else:
        lines.append("convexity: skipped (no sigma table in the output directory)")

    text = "\n".join(lines) + "\n"
    run.write_text("validate.txt", text)
    print(text, end="")
    run.outcomes.append({"kind": "validate", "passed": not failed})
    return EXIT_VALIDATION if failed else EXIT_OK


def run_tile(cfg: Config, run: _Run) -> int:
    if cfg.tile_S is None or cfg.tile_m is None:
        print("error: the tile command needs [schedule] s and m", file=sys.stderr)
        return EXIT_CONFIG
    dim = 2
    profile = _profile(cfg, dim)
    nu = cfg.directions[0]
    rotation = rotation_from_direction(nu)
    opts = _solver_options(cfg)
    rows = []
    ok = True
    for T in cfg.T_schedule:
        grid = CellGrid(dim, T, cfg.h, rotation, "dirichlet")
        res, state = minimize_cell(grid, cfg.potential, profile, opts)
        ok &= res.converged
        if cfg.tile_S > T + 3 + np.sqrt(dim):
            rep = subadditivity_gap(state, T, cfg.tile_S, cfg.tile_m, cfg.potential, profile, opts)
            ok &= rep.solver_converged
            rows.append([rep.T, rep.S, rep.m, rep.e_S, rep.g_S, rep.remainder])
    if "csv" in cfg.formats:
        run.write_csv("tiling.csv", ("T", "S", "m", "e_S", "g_S", "remainder"), rows)
    run.outcomes.append({"kind": "tile", "rows": len(rows), "converged": ok})
    return EXIT_OK if ok else EXIT_NONCONVERGED


_COMMANDS = {
    "sigma": run_sigma,
    "polar": run_polar,
    "gamma": run_gamma,
    "validate": run_validate,
    "tile": run_tile,
}


def run_command(command: str, cfg: Config, out_dir=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    run = _Run(cfg, out, outputs=[], outcomes=[])
    code = _COMMANDS[command](cfg, run)
    run.manifest(command, code)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sigmacell",
        description="surface-tension cell problems for periodic two-phase media",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--out", default=None, help="output directory (default: from config)")
        p.add_argument("--workers", type=int, default=None, help="worker pool size override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.workers is not None:
        cfg.workers = args.workers
    if args.seed is not None:
        cfg.seed = args.seed
    try:
        return run_command(args.command, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
