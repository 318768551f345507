"""The benchmark's three workloads: oracle, polar and diffuse.

Each workload builds its inputs from the seed in `setup`, runs the program
in `solve` (the only timed part of a pass) and checks the outputs in
`evaluate`.  `evaluate` returns an `Outcome`: the checks (every solve and
every gate, each passed or failed), the two accuracy metrics, and a
fingerprint of the exact output values, which must repeat bit for bit in
every pass, traced or not.

`smoke=True` shrinks every workload for the benchmark's own tests; the
gates stay the same.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sigmacell import cli
from sigmacell.cell import CellGrid, estimate_sigma, minimize_cell
from sigmacell.config import parse_config
from sigmacell.gamma import DomainSpec, gamma_gap, minimize_diffuse
from sigmacell.grids import node_quadrature_weights
from sigmacell.lattice import RationalUnitVector, rationalize_direction, rotation_from_direction
from sigmacell.potential import homogeneous_quartic
from sigmacell.profile import Mollifier, TransitionProfile
from sigmacell.surface import SigmaTable, convexity_check
from sigmacell.tiling import subadditivity_gap

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
POLAR_REFERENCE = os.path.join(BENCH_DIR, "polar_reference.json")

# names this module imported from sigmacell, spanned in traced runs
TRACED_NAMES = {
    "estimate_sigma": "cell.estimate_sigma",
    "minimize_cell": "cell.minimize_cell",
    "parse_config": "config.parse_config",
    "gamma_gap": "gamma.gamma_gap",
    "minimize_diffuse": "gamma.minimize_diffuse",
    "rationalize_direction": "lattice.rationalize_direction",
    "rotation_from_direction": "lattice.rotation_from_direction",
    "subadditivity_gap": "tiling.subadditivity_gap",
}

SIGMA_QUARTIC = 8.0 / 3.0  # exact surface tension of the homogeneous quartic
MOLLIFIER = Mollifier("bump", 0.5)


@dataclass
class Outcome:
    checks: list  # (name, passed)
    sigma_rel_err: float
    err_bar_rel_max: float
    fingerprint: tuple


def _converged_checks(est) -> list:
    """One check per solve that produced a reported g (winning coarse probe and fine)."""
    return [
        (f"solve T={r.T:g} {mesh} converged", res.converged)
        for r in est.refinements
        for mesh, res in (("coarse", r.coarse), ("fine", r.fine))
    ]


class Oracle:
    """Library `estimate_sigma` on the homogeneous quartic (sigma = 8/3 in every direction).

    One pass: a seed-chosen off-lattice 2D direction, rationalized at
    1e-3, over T in {2, 4, 8} at h = 1/32 (fine grid 256 x 257 at T = 8),
    and the 3D direction (1/3, 2/3, 2/3) over T in {2, 4} at h = 1/16
    (fine grid 64 x 64 x 65 = 266,240 nodes at T = 4).
    """

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        theta = np.random.default_rng(self.seed).uniform(0.0, 2.0 * np.pi)
        nu2 = rationalize_direction(np.array([np.cos(theta), np.sin(theta)]), 1e-3)
        nu3 = RationalUnitVector((Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)))
        self.pot = homogeneous_quartic()
        if self.smoke:
            plan2, plan3 = ((2.0, 4.0), 1 / 16), ((2.0, 4.0), 1 / 8)
        else:
            plan2, plan3 = ((2.0, 4.0, 8.0), 1 / 32), ((2.0, 4.0), 1 / 16)
        self.cases = [
            (rotation_from_direction(nu), TransitionProfile(self.pot.wells, MOLLIFIER, dim=dim), dim, schedule, h)
            for nu, dim, (schedule, h) in ((nu2, 2, plan2), (nu3, 3, plan3))
        ]

    def solve(self):
        return [
            estimate_sigma(rot, schedule, self.pot, profile, h, dim=dim)
            for rot, profile, dim, schedule, h in self.cases
        ]

    def evaluate(self, estimates) -> Outcome:
        checks = []
        rel_errs = []
        for est in estimates:
            checks += _converged_checks(est)
            rel = abs(est.sigma_hat - SIGMA_QUARTIC) / SIGMA_QUARTIC
            checks.append((f"{len(est.nu)}D sigma within 2% of 8/3", rel <= 0.02))
            rel_errs.append(rel)
        return Outcome(
            checks=checks,
            sigma_rel_err=max(rel_errs),
            err_bar_rel_max=max(est.error_bar / est.sigma_hat for est in estimates),
            fingerprint=tuple((est.sigma_hat, est.error_bar, tuple(est.per_T)) for est in estimates),
        )


POLAR_RING = 16
POLAR_SMOKE_STRIDE = 4  # the smoke run solves every 4th ring direction


def polar_config(seed: int, out_dir: str, smoke: bool) -> str:
    """CLI config of the polar workload: a striped(0.5) ring of real directions.

    The seed rotates the ring by whole ring steps, so every seed solves
    the same direction set (see NOTES.md).
    """
    start = seed % POLAR_RING
    steps = range(0, POLAR_RING, POLAR_SMOKE_STRIDE if smoke else 1)
    lines = [
        "[potential]",
        "kind = striped",
        "alpha = 0.5",
        "",
        "[mollifier]",
        "shape = bump",
        "radius = 0.5",
        "",
        "[directions]",
        "rational_tol = 1e-2",
    ]
    for i, k in enumerate(steps):
        theta = 2.0 * math.pi * ((start + k) % POLAR_RING) / POLAR_RING
        lines.append(f"dir{i + 1:02d} = {math.cos(theta)!r}, {math.sin(theta)!r}")
    lines += [
        "",
        "[schedule]",
        "t = 4, 8",
        "h = 1/8",
        "",
        "[solver]",
        "workers = 1",
        f"seed = {seed}",
        "",
        "[output]",
        f"dir = {out_dir}",
        "formats = csv, json",
    ]
    return "\n".join(lines) + "\n"


class Polar:
    """In-process CLI `sigma` on striped(0.5): 16 ring directions, T in {4, 8}, h = 1/8."""

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.seed = seed
        self.smoke = smoke
        self.out_dir = os.path.join(work_dir, "out")
        self.config_path = os.path.join(work_dir, "polar.ini")

    def setup(self) -> None:
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(polar_config(self.seed, self.out_dir, self.smoke))
        cfg = parse_config(self.config_path)
        self.tolerance = 1e-6 * cfg.potential.wells.separation  # SolverOptions default
        with open(POLAR_REFERENCE, "r", encoding="utf-8") as fh:
            self.reference = json.load(fh)["entries"]

    def solve(self):
        argv = ["sigma", "--config", self.config_path, "--workers", "1", "--seed", str(self.seed)]
        return cli.main(argv)

    def _reference_sigma(self, nu) -> float:
        for ref in self.reference:
            if np.abs(np.array(ref["nu"]) - nu).max() <= 1e-12:
                return ref["sigma"]
        raise KeyError(f"no reference sigma for direction {nu}")

    def evaluate(self, exit_code) -> Outcome:
        with open(os.path.join(self.out_dir, "sigma_table.json"), "rb") as fh:
            table_bytes = fh.read()
        with open(os.path.join(self.out_dir, "solves.csv"), "rb") as fh:
            solves_bytes = fh.read()
        table = SigmaTable.from_json(table_bytes.decode("utf-8"))
        rows = list(csv.DictReader(solves_bytes.decode("utf-8").splitlines()))
        checks = [("cli exit code 0", exit_code == 0)]
        checks += [(f"solve T={r['T']} h={r['h']} converged", float(r["residual"]) <= self.tolerance) for r in rows]
        checks.append(("convexity check finds no violation", not convexity_check(table)))
        rel_errs = []
        for e in table.entries:
            ref = self._reference_sigma(e.nu)
            name = f"sigma at nu=({e.nu[0]:.4f}, {e.nu[1]:.4f}) within its error bar of the reference"
            checks.append((name, abs(e.sigma - ref) <= e.err))
            rel_errs.append(abs(e.sigma - ref) / ref)
        return Outcome(
            checks=checks,
            sigma_rel_err=max(rel_errs),
            err_bar_rel_max=max(e.err / e.sigma for e in table.entries),
            fingerprint=(table_bytes, solves_bytes),
        )


class Diffuse:
    """`gamma_gap` on the flat strip, a mass-constrained solve and a Dirichlet tiling check.

    One pass: the recovery cell (T = 4, h = 1/32, periodic tangential
    faces), gaps at eps in {1/4, 1/8, 1/16, 1/32} (largest grid 512 x
    513), `minimize_diffuse` at eps = 1/16, h = 1/128 with a seed-chosen
    mass target, and `subadditivity_gap` with T = 4, S = 16, m = 3,
    h = 1/16 on Dirichlet cells.
    """

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        self.pot = homogeneous_quartic()
        self.profile = TransitionProfile(self.pot.wells, MOLLIFIER, dim=2)
        self.strip = DomainSpec.flat_strip()
        self.eps = [1 / 4, 1 / 8, 1 / 16] if self.smoke else [1 / 4, 1 / 8, 1 / 16, 1 / 32]
        # mass target: phase-b volume fraction in [0.35, 0.65] of the strip
        frac = np.random.default_rng(self.seed).uniform(0.35, 0.65)
        wells = self.pot.wells
        self.mass_target = self.strip.volume * (wells.a + frac * (wells.b - wells.a))
        self.mass_mesh = (1 / 16, 1 / 128)

    def solve(self):
        pot, profile = self.pot, self.profile
        cell_res, cell_state = minimize_cell(CellGrid(2, 4.0, 1 / 32), pot, profile)
        rows = gamma_gap(self.strip, self.eps, pot, profile, SIGMA_QUARTIC, cell_state)
        eps, h = self.mass_mesh
        mass_field, mass_parts, mass_res = minimize_diffuse(
            self.strip, pot, eps, h, profile, mass_target=self.mass_target
        )
        tile_res, u_T = minimize_cell(CellGrid(2, 4.0, 1 / 16, tangential="dirichlet"), pot, profile)
        tiling = subadditivity_gap(u_T, 4.0, 16.0, 3, pot, profile)
        return cell_res, rows, (mass_field, mass_parts, mass_res), tile_res, tiling

    def evaluate(self, out) -> Outcome:
        cell_res, rows, (mass_field, mass_parts, mass_res), tile_res, tiling = out
        checks = [("recovery cell solve converged", cell_res.converged)]
        for r in rows:
            checks.append((f"gap row eps={r.eps:g} converged", r.converged))
            checks.append((f"gap row eps={r.eps:g} min <= recovery", r.min_energy <= r.recovery_energy + 1e-10))
        wq = node_quadrature_weights(self.strip.grid(self.mass_mesh[1]))
        mass = (wq[..., None] * mass_field.u).sum(axis=(0, 1))
        checks.append(("mass-constrained solve converged", mass_res.converged))
        checks.append(("mass drift <= 1e-10", float(np.abs(mass - self.mass_target).max()) <= 1e-10))
        checks.append(("tiling T-cell solve converged", tile_res.converged))
        checks.append(("tiling S-cell solve converged", tiling.solver_converged))
        checks.append(("tiling g_S <= e_S", tiling.g_S <= tiling.e_S + 1e-12))
        last = rows[-1]
        checks.append((f"gap at eps={last.eps:g} within 2% of 8/3 x length", last.gap_min <= 0.02 * last.sigma_target))
        return Outcome(
            checks=checks,
            sigma_rel_err=last.gap_min / last.sigma_target,
            err_bar_rel_max=(last.recovery_energy - last.min_energy) / last.min_energy,
            fingerprint=(
                cell_res.g,
                tuple((r.min_energy, r.recovery_energy) for r in rows),
                mass_parts.total,
                tuple(mass.tolist()),
                tile_res.g,
                (tiling.e_S, tiling.g_S),
            ),
        )


WORKLOADS = {"oracle": Oracle, "polar": Polar, "diffuse": Diffuse}
