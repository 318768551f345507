"""Strict INI-style configuration for the batch front end.

The file is a flat key = value document with sections; unknown sections
and keys are rejected by name.  Fractions like ``1/32`` are accepted
wherever a number is expected, and direction entries are either exact
rationals (``3/5, 4/5``) or reals rationalized at ``rational_tol``.
The exact grammar is documented in the README.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .cell import CellGrid, SolverOptions, check_schedule
from .lattice import RATIONAL_TOL_MIN, RationalUnitVector, rationalize_direction
from .potential import POTENTIAL_KINDS, GrowthCertificate, Potential, WellPair
from .profile import Mollifier

__all__ = ["ConfigError", "Config", "parse_config", "DIM", "MEMORY_MAX"]

DIM = 2  # the front end solves two-dimensional cells
# The descent holds (memory + 1)^2 entries in each of two small matrices beside
# memory + 1 secant pairs of the grid's size; probe iteration counts were the
# same at memory 5 and 40, so a longer history buys nothing but memory.
MEMORY_MAX = 1000


class ConfigError(Exception):
    """Malformed configuration; the message names the offending key."""


@contextmanager
def _section(name: str):
    """Report a library ValueError raised while building `name` as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _number(text: str, where: str) -> float:
    text = text.strip()
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: number must be finite, got {text!r}")
    return value


def _integer(text: str, where: str) -> int:
    value = _number(text, where)
    if value != int(value):
        raise ConfigError(f"{where}: expected an integer, got {text!r}")
    return int(value)


def _number_list(text: str, where: str) -> list:
    items = [tok for tok in text.replace(";", ",").split(",") if tok.strip()]
    return [_number(tok, where) for tok in items]


def _factors(text: str, where: str) -> np.ndarray:
    """A vector, or a matrix whose rows are separated by ';'."""
    rows = [_number_list(row, where) for row in text.split(";") if row.strip()]
    return np.array(rows[0] if len(rows) == 1 else rows)


def _bool(text: str, where: str) -> bool:
    val = text.strip().lower()
    if val in ("true", "yes", "1", "on"):
        return True
    if val in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


_REQUIRED = object()

# [potential] keys as key -> (parser, default or _REQUIRED): those every kind
# reads, then those of each kind, named as the keyword of its factory.
_WELL_KEYS = {
    "d": (_integer, 1),
    "wells_a": (_number_list, None),
    "wells_b": (_number_list, None),
    "growth_c": (_number, 4.0),
    "growth_q": (_number, 4.0),
}
_KIND_KEYS = {
    "homogeneous-quartic": {},
    "striped": {"alpha": (_number, 0.5), "axis": (_integer, 0)},
    "checkerboard": {"contrast": (_number, 2.0)},
    "piecewise-cells": {"factors": (_factors, _REQUIRED)},
    "smooth-modulated": {"alpha": (_number, 0.5)},
}

_SECTIONS = {
    "potential": {"kind", *_WELL_KEYS, *(key for keys in _KIND_KEYS.values() for key in keys)},
    "mollifier": {"shape", "radius"},
    "directions": None,  # dir<i> entries plus rational_tol / uniform
    "schedule": {"t", "eps", "h", "lattice_aligned", "t_cell", "s", "m", "tangential"},
    "solver": {"tolerance", "max_iterations", "memory", "workers", "seed", "samples"},
    "output": {"dir", "formats", "sigma_table"},
}

_DIRECTION_KEYS = {"rational_tol", "uniform"}


@dataclass
class Config:
    potential: Potential
    mollifier: Mollifier
    directions: list  # RationalUnitVector
    T_schedule: list
    eps_schedule: list
    h: float
    lattice_aligned: bool
    tangential: str
    T_cell: float
    tile_S: Optional[float]
    tile_m: Optional[int]
    solver: SolverOptions
    workers: int
    seed: int
    samples: int
    out_dir: str
    formats: tuple
    sigma_table_name: str
    raw_text: str

    def __post_init__(self):
        # checked here, not in parse_config, so the CLI overrides applied with dataclasses.replace meet them too
        for key, value, low in (
            ("max_iterations", self.solver.max_iterations, 1),
            ("memory", self.solver.memory, 1),
            ("workers", self.workers, 1),
            ("seed", self.seed, 0),
            ("samples", self.samples, 1),
        ):
            if value is not None and value < low:
                raise ConfigError(f"[solver] {key}: must be at least {low}")
        if self.solver.memory is not None and self.solver.memory > MEMORY_MAX:
            raise ConfigError(f"[solver] memory: must be at most {MEMORY_MAX}, got {self.solver.memory}")
        if self.solver.tolerance is not None and not self.solver.tolerance > 0:
            raise ConfigError("[solver] tolerance: must be positive")


def _read(sec, table: dict, kind: str) -> dict:
    values = {}
    for key, (parse, default) in table.items():
        if key in sec:
            values[key] = parse(sec[key], f"[potential] {key}")
        elif default is _REQUIRED:
            raise ConfigError(f"[potential]: kind {kind!r} requires key {key!r}")
        else:
            values[key] = default
    return values


def _build_potential(sec) -> Potential:
    if "kind" not in sec:
        raise ConfigError("[potential]: missing required key 'kind'")
    kind = sec["kind"].strip()
    if kind not in _KIND_KEYS:
        raise ConfigError(f"[potential]: unknown kind {kind!r}; choose from {sorted(_KIND_KEYS)}")
    for key in sec:
        if key != "kind" and key not in _WELL_KEYS and key not in _KIND_KEYS[kind]:
            raise ConfigError(f"[potential] {key}: does not apply to kind {kind!r}")
    if ("wells_a" in sec) != ("wells_b" in sec):
        raise ConfigError("[potential]: wells_a and wells_b must be given together")
    with _section("potential"):
        common = _read(sec, _WELL_KEYS, kind)
        args = _read(sec, _KIND_KEYS[kind], kind)
        wells = WellPair(np.array(common["wells_a"]), np.array(common["wells_b"])) if "wells_a" in sec else None
        if wells is not None and "d" in sec and common["d"] != wells.d:
            raise ValueError(f"d = {common['d']} does not match wells of {wells.d} component(s)")
        pot = POTENTIAL_KINDS[kind](d=common["d"], wells=wells, **args)
        if "growth_c" in sec or "growth_q" in sec:
            pot = replace(pot, growth=GrowthCertificate(common["growth_c"], common["growth_q"]))
        pot.spatial_factor(np.zeros(DIM))  # the weight must evaluate on the 2D cells solved here
    return pot


def _build_directions(sec) -> list:
    tol = _number(sec.get("rational_tol", "1e-3"), "[directions] rational_tol")
    if tol < RATIONAL_TOL_MIN:
        raise ConfigError(f"[directions] rational_tol: must be at least {RATIONAL_TOL_MIN:g}, got {tol:g}")
    out = []
    for key in sec:
        if key in _DIRECTION_KEYS:
            continue
        text = sec[key]
        toks = [t.strip() for t in text.split(",") if t.strip()]
        if len(toks) != DIM:
            raise ConfigError(f"[directions] {key}: expected {DIM} components, got {len(toks)}")
        if all("/" in t or t.lstrip("+-").isdigit() for t in toks):
            try:
                out.append(RationalUnitVector(tuple(Fraction(t) for t in toks)))
                continue
            except ZeroDivisionError as exc:
                raise ConfigError(f"[directions] {key}: zero denominator in {text.strip()!r}") from exc
            except ValueError as exc:
                raise ConfigError(f"[directions] {key}: {exc}") from exc
        vec = np.array([_number(t, f"[directions] {key}") for t in toks])
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            raise ConfigError(f"[directions] {key}: zero vector")
        out.append(rationalize_direction(vec / nrm, tol))
    if "uniform" in sec:
        count = _integer(sec["uniform"], "[directions] uniform")
        if count <= 0:
            raise ConfigError("[directions] uniform: count must be positive")
        for k in range(count):
            theta = 2 * np.pi * k / count
            out.append(rationalize_direction(np.array([np.cos(theta), np.sin(theta)]), tol))
    if not out:
        raise ConfigError("[directions]: no directions given")
    return out


def parse_config(path) -> Config:
    """Read and validate a config file; raises ConfigError on any defect."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        loc = f" (line {lineno})" if lineno else ""
        raise ConfigError(f"malformed config{loc}: {exc.message if hasattr(exc, 'message') else exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _SECTIONS[section]
        for key in parser[section]:
            if section == "directions":
                if key in _DIRECTION_KEYS or key.startswith("dir"):
                    continue
                raise ConfigError(f"[directions]: unknown key {key!r}")
            if allowed is not None and key not in allowed:
                raise ConfigError(f"[{section}]: unknown key {key!r}")

    if "potential" not in parser:
        raise ConfigError("missing required section [potential]")
    pot = _build_potential(parser["potential"])

    msec = parser["mollifier"] if "mollifier" in parser else {}
    with _section("mollifier"):
        moll = Mollifier(
            shape=msec.get("shape", "bump").strip(),
            radius=_number(msec.get("radius", "0.5"), "[mollifier] radius"),
        )

    if "directions" not in parser:
        raise ConfigError("missing required section [directions]")
    with _section("directions"):
        directions = _build_directions(parser["directions"])

    ssec = parser["schedule"] if "schedule" in parser else {}
    T_schedule = _number_list(ssec.get("t", "2, 4, 8"), "[schedule] t")
    eps_schedule = _number_list(ssec.get("eps", "1/4, 1/8, 1/16, 1/32"), "[schedule] eps")
    h = _number(ssec.get("h", "1/32"), "[schedule] h")
    lattice_aligned = _bool(ssec.get("lattice_aligned", "false"), "[schedule] lattice_aligned")
    tangential = ssec.get("tangential", "periodic").strip()
    T_cell = _number(ssec.get("t_cell", "4"), "[schedule] t_cell")
    tile_S = _number(ssec["s"], "[schedule] s") if "s" in ssec else None
    tile_m = _integer(ssec["m"], "[schedule] m") if "m" in ssec else None
    with _section("schedule"):
        # period 1 here; each command checks the periods of the directions it solves
        check_schedule(T_schedule, None, lattice_aligned)
        for T in T_schedule:
            CellGrid(DIM, T, h, tangential=tangential)

    osec = parser["solver"] if "solver" in parser else {}
    solver = SolverOptions(
        _number(osec["tolerance"], "[solver] tolerance") if "tolerance" in osec else None,
        _integer(osec["max_iterations"], "[solver] max_iterations") if "max_iterations" in osec else None,
        _integer(osec.get("memory", "10"), "[solver] memory"),
    )

    usec = parser["output"] if "output" in parser else {}
    out_dir = usec.get("dir", "out").strip()
    formats = tuple(tok.strip() for tok in usec.get("formats", "csv, json, svg").split(",") if tok.strip())
    for fmt in formats:
        if fmt not in ("csv", "json", "svg"):
            raise ConfigError(f"[output] formats: unknown format {fmt!r}")
    sigma_table_name = usec.get("sigma_table", "sigma_table.json").strip()

    return Config(
        potential=pot,
        mollifier=moll,
        directions=directions,
        T_schedule=T_schedule,
        eps_schedule=eps_schedule,
        h=h,
        lattice_aligned=lattice_aligned,
        tangential=tangential,
        T_cell=T_cell,
        tile_S=tile_S,
        tile_m=tile_m,
        solver=solver,
        workers=_integer(osec.get("workers", "1"), "[solver] workers"),
        seed=_integer(osec.get("seed", "0"), "[solver] seed"),
        samples=_integer(osec.get("samples", "1000"), "[solver] samples"),
        out_dir=out_dir,
        formats=formats,
        sigma_table_name=sigma_table_name,
        raw_text=text,
    )
