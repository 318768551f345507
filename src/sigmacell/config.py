"""Strict INI-style configuration for the batch front end.

The file is a flat key = value document with sections; unknown sections
and keys are rejected by name.  Fractions like ``1/32`` are accepted
wherever a number is expected, and direction entries are either exact
rationals (``3/5, 4/5``) or reals rationalized at ``rational_tol``.
The exact grammar is documented in the README.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .lattice import RationalUnitVector, rationalize_direction
from .potential import POTENTIAL_KINDS, GrowthCertificate, Potential, WellPair
from .profile import Mollifier

__all__ = ["ConfigError", "Config", "parse_config"]


class ConfigError(Exception):
    """Malformed configuration; the message names the offending key."""


_SECTIONS = {
    "potential": {"kind", "d", "wells_a", "wells_b", "growth_c", "growth_q", "alpha", "axis", "contrast", "factors"},
    "mollifier": {"shape", "radius"},
    "directions": None,  # dir<i> entries plus rational_tol / uniform
    "schedule": {"t", "eps", "h", "lattice_aligned", "t_cell", "s", "m", "tangential"},
    "solver": {"tolerance", "max_iterations", "memory", "workers", "seed", "samples"},
    "output": {"dir", "formats", "sigma_table"},
}

_DIRECTION_KEYS = {"rational_tol", "uniform"}


def _number(text: str, where: str) -> float:
    text = text.strip()
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: cannot parse number {text!r}") from exc


def _number_list(text: str, where: str) -> list:
    items = [tok for tok in text.replace(";", ",").split(",") if tok.strip()]
    return [_number(tok, where) for tok in items]


def _bool(text: str, where: str) -> bool:
    val = text.strip().lower()
    if val in ("true", "yes", "1", "on"):
        return True
    if val in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


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
    tolerance: Optional[float]
    max_iterations: Optional[int]
    memory: int
    workers: int
    seed: int
    samples: int
    out_dir: str
    formats: tuple
    sigma_table_name: str
    raw_text: str = ""


def _build_potential(sec) -> Potential:
    kind = sec.get("kind", None)
    if kind is None:
        raise ConfigError("[potential]: missing required key 'kind'")
    kind = kind.strip()
    if kind not in POTENTIAL_KINDS:
        raise ConfigError(f"[potential]: unknown kind {kind!r}; choose from {sorted(POTENTIAL_KINDS)}")
    d = int(_number(sec.get("d", "1"), "[potential] d"))
    wells = None
    if "wells_a" in sec or "wells_b" in sec:
        if not ("wells_a" in sec and "wells_b" in sec):
            raise ConfigError("[potential]: wells_a and wells_b must be given together")
        a = np.array(_number_list(sec["wells_a"], "[potential] wells_a"))
        b = np.array(_number_list(sec["wells_b"], "[potential] wells_b"))
        wells = WellPair(a, b)
        d = wells.d

    if kind == "homogeneous-quartic":
        pot = POTENTIAL_KINDS[kind](d=d, wells=wells)
    elif kind == "striped":
        pot = POTENTIAL_KINDS[kind](
            alpha=_number(sec.get("alpha", "0.5"), "[potential] alpha"),
            d=d,
            axis=int(_number(sec.get("axis", "0"), "[potential] axis")),
            wells=wells,
        )
    elif kind == "checkerboard":
        pot = POTENTIAL_KINDS[kind](
            contrast=_number(sec.get("contrast", "2"), "[potential] contrast"), d=d, wells=wells
        )
    elif kind == "smooth-modulated":
        pot = POTENTIAL_KINDS[kind](
            alpha=_number(sec.get("alpha", "0.5"), "[potential] alpha"), d=d, wells=wells
        )
    else:  # piecewise-cells
        if "factors" not in sec:
            raise ConfigError("[potential]: piecewise-cells requires 'factors' (rows split by ';')")
        rows = [r for r in sec["factors"].split(";") if r.strip()]
        mat = [
            [_number(tok, "[potential] factors") for tok in row.split(",") if tok.strip()]
            for row in rows
        ]
        factors = np.array(mat) if len(mat) > 1 else np.array(mat[0])
        pot = POTENTIAL_KINDS[kind](factors=factors, d=d, wells=wells)

    if "growth_c" in sec or "growth_q" in sec:
        growth = GrowthCertificate(
            _number(sec.get("growth_c", "4"), "[potential] growth_c"),
            _number(sec.get("growth_q", "4"), "[potential] growth_q"),
        )
        pot = Potential(pot.kind, pot.wells, growth, pot.weight, pot.base, pot.params)
    return pot


def _build_directions(sec, dim: int) -> list:
    tol = _number(sec.get("rational_tol", "1e-3"), "[directions] rational_tol")
    out = []
    for key in sec:
        if key in _DIRECTION_KEYS:
            continue
        if not key.startswith("dir"):
            raise ConfigError(f"[directions]: unknown key {key!r}")
        text = sec[key]
        toks = [t.strip() for t in text.split(",") if t.strip()]
        if len(toks) != dim:
            raise ConfigError(f"[directions] {key}: expected {dim} components, got {len(toks)}")
        if all("/" in t or t.lstrip("+-").isdigit() for t in toks):
            comto = [Fraction(t) for t in toks]
            try:
                out.append(RationalUnitVector(tuple(comto)))
                continue
            except ValueError as exc:
                raise ConfigError(f"[directions] {key}: {exc}") from exc
        vec = np.array([_number(t, f"[directions] {key}") for t in toks])
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            raise ConfigError(f"[directions] {key}: zero vector")
        out.append(rationalize_direction(vec / nrm, tol))
    if "uniform" in sec:
        count = int(_number(sec["uniform"], "[directions] uniform"))
        if count <= 0:
            raise ConfigError("[directions] uniform: count must be positive")
        if dim != 2:
            raise ConfigError("[directions] uniform: only dimension 2 is supported")
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
    try:
        moll = Mollifier(
            shape=msec.get("shape", "bump").strip(),
            radius=_number(msec.get("radius", "0.5"), "[mollifier] radius"),
        )
    except ValueError as exc:
        raise ConfigError(f"[mollifier]: {exc}") from exc

    if "directions" not in parser:
        raise ConfigError("missing required section [directions]")
    directions = _build_directions(parser["directions"], dim=2)

    ssec = parser["schedule"] if "schedule" in parser else {}
    T_schedule = _number_list(ssec.get("t", "2, 4, 8"), "[schedule] t")
    eps_schedule = _number_list(ssec.get("eps", "1/4, 1/8, 1/16, 1/32"), "[schedule] eps")
    h = _number(ssec.get("h", "1/32"), "[schedule] h")
    lattice_aligned = _bool(ssec.get("lattice_aligned", "false"), "[schedule] lattice_aligned")
    tangential = ssec.get("tangential", "periodic").strip()
    if tangential not in ("periodic", "dirichlet"):
        raise ConfigError("[schedule] tangential: must be 'periodic' or 'dirichlet'")
    T_cell = _number(ssec.get("t_cell", "4"), "[schedule] t_cell")
    tile_S = _number(ssec["s"], "[schedule] s") if "s" in ssec else None
    tile_m = int(_number(ssec["m"], "[schedule] m")) if "m" in ssec else None

    if lattice_aligned:
        from .lattice import rotation_from_direction

        for nu in directions:
            period = rotation_from_direction(nu).period
            for T in T_schedule:
                if abs(T / period - round(T / period)) > 1e-12:
                    raise ConfigError(
                        f"[schedule] t: lattice-aligned run needs multiples of the lattice period "
                        f"{period} for direction {nu}, got T={T:g}"
                    )

    osec = parser["solver"] if "solver" in parser else {}
    tolerance = _number(osec["tolerance"], "[solver] tolerance") if "tolerance" in osec else None
    max_iterations = (
        int(_number(osec["max_iterations"], "[solver] max_iterations")) if "max_iterations" in osec else None
    )
    memory = int(_number(osec.get("memory", "10"), "[solver] memory"))
    workers = int(_number(osec.get("workers", "1"), "[solver] workers"))
    seed = int(_number(osec.get("seed", "0"), "[solver] seed"))
    samples = int(_number(osec.get("samples", "1000"), "[solver] samples"))
    if memory < 1:
        raise ConfigError("[solver] memory: must be at least 1")
    if workers < 1:
        raise ConfigError("[solver] workers: must be at least 1")

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
        tolerance=tolerance,
        max_iterations=max_iterations,
        memory=memory,
        workers=workers,
        seed=seed,
        samples=samples,
        out_dir=out_dir,
        formats=formats,
        sigma_table_name=sigma_table_name,
        raw_text=text,
    )
