"""Batch front end: solve campaigns driven by a config file.

Subcommands:

    sigma     estimate the surface tension on the configured directions;
              emits a JSON direction table and a per-solve CSV.  One
              direction per orbit is solved (the first in config order);
              a direction whose cell weights on every mesh are an earlier
              one's under a signed permutation of the tangential axes
              (`cell.orbit_representatives`) gets its table entry and CSV
              rows with its own nu and the representative's numbers
    polar     render an existing sigma table as a polar SVG
    gamma     diffuse-interface gap study on a flat strip, solved at its
              normal e2 whatever the directions; emits CSV
    validate  hypothesis, rotation, periodicity (and, if a table is
              present, convexity) reports
    tile      tiling subadditivity check; emits CSV

Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 validation failure.  A config error comes before any solve (`sigma`
and `gamma` build every cell of the schedule first, by
`cell.schedule_levels`) and writes nothing, not even the output
directory.  Outputs are byte-deterministic for a fixed config and seed
at a fixed BLAS thread count, whatever the worker count (`--workers`
splits the representatives' solves); every file is listed in the run
manifest with its content hash (the manifest itself carries a timestamp
and the environment: Python, numpy, CPU count and thread variables).
"""

from __future__ import annotations

import argparse
import concurrent.futures  # the process pool's own module, and multiprocessing, load only when a pool starts
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .cell import (
    SOLVE_CSV_COLUMNS,
    CellGrid,
    check_schedule,
    estimate_sigma,
    minimize_cell,
    orbit_representatives,
    schedule_levels,
    solve_csv_row,
)
from .config import DIM, Config, ConfigError, _section, parse_config
from .gamma import GAP_CSV_COLUMNS, DomainSpec, check_recovery_layer, default_gamma_mesh, gamma_gap
from .lattice import RationalRotation, check_periodicity, rotation_from_direction
from .potential import validate_hypotheses
from .profile import TransitionProfile
from .surface import SigmaTable, convexity_check
from .svgplot import polar_svg
from .tiling import plan_tiling, subadditivity_gap, tiles

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

    def _write(self, name: str, text: str) -> str:
        """Write one file, making the output directory at the first write (a refused run writes nothing)."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return path

    def write_text(self, name: str, text: str) -> str:
        self.outputs.append({"path": name, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()})
        return self._write(name, text)

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
            "environment": {
                "cpu_count": os.cpu_count(),
                "numpy": np.__version__,
                "python": sys.version.split()[0],
                "threads": {k: os.getenv(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            },
            "exit_code": exit_code,
            "outcomes": self.outcomes,
            "outputs": self.outputs,
        }
        self._write("manifest.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def sigma_table(self, required: bool):
        """The sigma table in the output directory; an unreadable one, one of another potential, or a `required`
        one that is missing, is an [output] error, and a missing one that is not required is None."""
        path = os.path.join(self.out_dir, self.cfg.sigma_table_name)
        if not os.path.exists(path):
            if required:
                raise ConfigError(f"[output] sigma_table: {path} not found; run the sigma command first")
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                table = SigmaTable.from_json(fh.read())
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"[output] sigma_table: cannot read {path}: {exc}") from exc
        # an empty record is what a table built without one writes
        if table.potential_info and table.potential_info != json.loads(json.dumps(self.cfg.potential.describe())):
            raise ConfigError(f"[output] sigma_table: {path} was computed for another potential")
        return table


def _profile(cfg: Config) -> TransitionProfile:
    return TransitionProfile(cfg.potential.wells, cfg.mollifier, dim=DIM)


def _sigma_task(args):
    cfg, rotation, profile = args
    return estimate_sigma(
        rotation,
        cfg.T_schedule,
        cfg.potential,
        profile,
        cfg.h,
        dim=DIM,
        opts=cfg.solver,
        lattice_aligned=cfg.lattice_aligned,
        tangential=cfg.tangential,
    )


def run_sigma(cfg: Config, run: _Run) -> int:
    repeated = [nu for k, nu in enumerate(cfg.directions) if nu in cfg.directions[:k]]
    if repeated:
        raise ConfigError(f"[directions]: direction {repeated[0]} is given more than once")
    rotations = [rotation_from_direction(nu) for nu in cfg.directions]
    with _section("schedule"):
        cells = [
            schedule_levels(R, cfg.T_schedule, cfg.h, cfg.potential, cfg.tangential, cfg.lattice_aligned)
            for R in rotations
        ]
    reps = orbit_representatives(cells, cfg.potential)
    solved = sorted(set(reps))
    profile = _profile(cfg)
    tasks = [(cfg, rotations[k], profile) for k in solved]
    workers = min(cfg.workers, len(tasks))  # a fork-started pool starts all its processes at the first submit
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sigma_task, tasks))
    else:
        results = [_sigma_task(t) for t in tasks]
    by_rep = dict(zip(solved, results))
    # a member of an orbit carries its own normal and its representative's numbers
    estimates = [(rotation.as_float()[:, -1], by_rep[rep]) for rotation, rep in zip(rotations, reps)]

    rows = [
        solve_csv_row(nu, ref.T, h, result)
        for nu, est in estimates
        for ref in est.refinements
        for result, h in ((ref.coarse, 2 * ref.h), (ref.fine, ref.h))
    ]
    header = [f"nu{i + 1}" for i in range(DIM)] + list(SOLVE_CSV_COLUMNS)
    if "csv" in cfg.formats:
        run.write_csv("solves.csv", header, rows)

    table = SigmaTable(
        [(nu, est.sigma_hat, est.error_bar) for nu, est in estimates],
        potential_info=cfg.potential.describe(),
    )
    if "json" in cfg.formats:
        run.write_text(cfg.sigma_table_name, table.to_json() + "\n")

    all_converged = all(est.converged for est in results)
    run.outcomes.append(
        {
            "kind": "sigma",
            "directions": len(estimates),
            "solved": len(solved),
            "converged": all_converged,
            "sigma_hat": [est.sigma_hat for _, est in estimates],
        }
    )
    return EXIT_OK if all_converged else EXIT_NONCONVERGED


def run_polar(cfg: Config, run: _Run) -> int:
    table = run.sigma_table(required=True)
    if "svg" in cfg.formats:
        run.write_text("polar.svg", polar_svg(table))
    run.outcomes.append({"kind": "polar", "entries": len(table.entries)})
    return EXIT_OK


def run_gamma(cfg: Config, run: _Run) -> int:
    domain = DomainSpec.flat_strip(dim=DIM)
    with _section("schedule"):
        schedule_levels(
            RationalRotation.identity(DIM), cfg.T_schedule, cfg.h, cfg.potential, cfg.tangential, cfg.lattice_aligned
        )
        cell_grid = CellGrid(DIM, cfg.T_cell, cfg.h, None, cfg.tangential)
        for eps in cfg.eps_schedule:
            domain.grid(default_gamma_mesh(eps))
            check_recovery_layer(eps, cfg.T_cell)
    profile = _profile(cfg)
    est = estimate_sigma(
        None, cfg.T_schedule, cfg.potential, profile, cfg.h,
        dim=DIM, opts=cfg.solver, lattice_aligned=cfg.lattice_aligned, tangential=cfg.tangential,
    )
    cell_res, cell_state = minimize_cell(cell_grid, cfg.potential, profile, cfg.solver)
    rows = gamma_gap(domain, cfg.eps_schedule, cfg.potential, profile, est.sigma_hat, cell_state, cfg.solver)
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

    table = run.sigma_table(required=False)
    if table is None:
        lines.append("convexity: skipped (no sigma table in the output directory)")
    elif len(table.entries) >= 3:
        violations = convexity_check(table)
        lines.append(f"convexity: {len(violations)} violation(s) beyond the error bars")
        failed |= bool(violations)
    else:
        lines.append("convexity: skipped (table has fewer than 3 directions)")

    text = "\n".join(lines) + "\n"
    run.write_text("validate.txt", text)
    print(text, end="")
    run.outcomes.append({"kind": "validate", "passed": not failed})
    return EXIT_VALIDATION if failed else EXIT_OK


def run_tile(cfg: Config, run: _Run) -> int:
    if cfg.tile_S is None or cfg.tile_m is None:
        raise ConfigError("[schedule]: the tile command needs keys 's' and 'm'")
    rotation = rotation_from_direction(cfg.directions[0])
    tiled = [T for T in cfg.T_schedule if tiles(T, cfg.tile_S, DIM)]
    with _section("schedule"):
        check_schedule(cfg.T_schedule, rotation, cfg.lattice_aligned)
        for T in tiled:
            s_grid = CellGrid(DIM, cfg.tile_S, cfg.h, rotation, "dirichlet")
            plan_tiling(T, cfg.tile_S, cfg.tile_m, rotation).corner_nodes(s_grid)
    profile = _profile(cfg)
    rows = []
    ok = True
    for T in cfg.T_schedule:
        grid = CellGrid(DIM, T, cfg.h, rotation, "dirichlet")
        res, state = minimize_cell(grid, cfg.potential, profile, cfg.solver)
        ok &= res.converged
        if T in tiled:
            rep = subadditivity_gap(state, T, cfg.tile_S, cfg.tile_m, cfg.potential, profile, cfg.solver)
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
    run = _Run(cfg, out_dir or cfg.out_dir, outputs=[], outcomes=[])
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
        overrides = {key: getattr(args, key) for key in ("workers", "seed") if getattr(args, key) is not None}
        cfg = replace(cfg, **overrides)  # not assignment: the overrides meet the checks of their keys
        return run_command(args.command, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
