"""In-memory span tracer for the benchmark's traced runs.

A `Tracer` replaces names with timing wrappers where sigmacell looks them
up: module globals that a caller imported by name (`cell.lbfgs_descent`,
`tiling.minimize_cell`, ...), methods patched on their class
(`EnergyModel.gradient`, ...), and the names the benchmark's own workload
module imported.  Each call records one span: name, start, end (ns) and
the index of the enclosing span.  Nothing is installed in untraced runs,
and `uninstall` restores every original object.

`layer_metrics` turns the spans of the set-up phase and of the traced
passes into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

from sigmacell import cell, cli, config, gamma, tiling
from sigmacell.grids import EnergyModel
from sigmacell.profile import TransitionProfile


@dataclass
class Span:
    name: str
    parent: int
    start: int = 0
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> int:
        return self.end - self.start


def _field_nodes(attrs, args, kwargs):
    u = args[1] if len(args) > 1 else kwargs["u"]
    attrs["nodes"] = u.size // u.shape[-1]
    attrs["dim"] = u.ndim - 1


def _profile_points(attrs, args, kwargs):
    attrs["points"] = int(np.size(args[1] if len(args) > 1 else kwargs["s"]))


def _argument(fn, name):
    """Return a function that picks argument `name` out of a call to fn."""
    sig = inspect.signature(fn)

    def pick(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return pick


class Tracer:
    """Records spans around the calls into each sigmacell layer."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def call(self, name, fn, args, kwargs, pre=None, post=None):
        span = Span(name, self._stack[-1] if self._stack else -1)
        if pre is not None:
            pre(span.attrs, args, kwargs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
        if post is not None:
            post(span.attrs, result)
        return result

    def wrap(self, name, fn, pre=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, pre, post)

        return traced

    def _wrap_descent(self, fn, fg_name):
        """Span the descent and every f_g evaluation it requests."""

        @functools.wraps(fn)
        def traced(f_g, x0, *args, **kwargs):
            evals = [0]

            def counted_f_g(x):
                evals[0] += 1
                return self.call(fg_name, f_g, (x,), {}, pre=lambda a, _x, _k: a.update(n=x.size))

            def post(attrs, res):
                attrs.update(evals=evals[0], iterations=res.iterations, n=np.size(x0))

            return self.call("descent.lbfgs_descent", fn, (counted_f_g, x0) + args, kwargs, post=post)

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, bench_module) -> None:
        """Wrap every name a traced layer is reached through."""
        if self._patches:
            raise RuntimeError("tracer already installed")

        cell_grid = _argument(cell.minimize_cell, "grid")
        refinement_mesh = _argument(cell.estimate_g, "h")
        mass_target = _argument(gamma.minimize_diffuse, "mass_target")

        def grid_h(attrs, args, kwargs):
            grid = cell_grid(args, kwargs)
            attrs.update(h=grid.h, dim=grid.dim)

        def cell_result(attrs, result):
            attrs.update(iterations=result[0].iterations, residual=result[0].residual, g=result[0].g)

        def refinement_h(attrs, args, kwargs):
            attrs["h"] = float(refinement_mesh(args, kwargs))

        def mass_flag(attrs, args, kwargs):
            attrs["mass"] = mass_target(args, kwargs) is not None

        names = {
            "cell.minimize_cell": (grid_h, cell_result),
            "cell.estimate_g": (refinement_h, None),
            "cell.estimate_sigma": (None, None),
            "gamma.gamma_gap": (None, None),
            "gamma.minimize_diffuse": (mass_flag, None),
            "gamma.build_recovery": (None, None),
            "tiling.subadditivity_gap": (None, None),
            "tiling.build_competitor": (None, None),
            "config.parse_config": (None, None),
            "lattice.rationalize_direction": (None, None),
            "lattice.rotation_from_direction": (None, None),
        }
        # (namespace, attribute, span name): where each name is looked up
        sites = [
            (cell, "minimize_cell", "cell.minimize_cell"),
            (cell, "estimate_g", "cell.estimate_g"),
            (cli, "estimate_sigma", "cell.estimate_sigma"),
            (cli, "minimize_cell", "cell.minimize_cell"),
            (cli, "parse_config", "config.parse_config"),
            (cli, "rotation_from_direction", "lattice.rotation_from_direction"),
            (config, "rationalize_direction", "lattice.rationalize_direction"),
            (gamma, "minimize_diffuse", "gamma.minimize_diffuse"),
            (gamma, "build_recovery", "gamma.build_recovery"),
            (tiling, "minimize_cell", "cell.minimize_cell"),
            (tiling, "build_competitor", "tiling.build_competitor"),
        ]
        for attr, span_name in bench_module.TRACED_NAMES.items():
            sites.append((bench_module, attr, span_name))
        for owner, attr, span_name in sites:
            pre, post = names[span_name]
            self._patch(owner, attr, self.wrap(span_name, getattr(owner, attr), pre, post))

        self._patch(cell, "lbfgs_descent", self._wrap_descent(cell.lbfgs_descent, "cell.f_g"))
        self._patch(gamma, "lbfgs_descent", self._wrap_descent(gamma.lbfgs_descent, "gamma.f_g"))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))

        for attr, pre in (("__init__", None), ("energy_parts", _field_nodes), ("gradient", _field_nodes)):
            span_name = "grids.EnergyModel" if attr == "__init__" else f"grids.{attr}"
            self._patch(EnergyModel, attr, self.wrap(span_name, getattr(EnergyModel, attr), pre))
        self._patch(TransitionProfile, "__init__", self.wrap("profile.TransitionProfile", TransitionProfile.__init__))
        self._patch(
            TransitionProfile, "__call__", self.wrap("profile.__call__", TransitionProfile.__call__, _profile_points)
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "parent", "start_ns", "end_ns", "attrs"))
            for i, s in enumerate(self.spans):
                out.writerow((i, s.name, s.parent, s.start, s.end, json.dumps(s.attrs, default=float)))


COUNT_METRICS = (
    "grids.fg_evals",
    "grids.model_builds",
    "descent.iterations",
    "descent.fg_evals",
    "descent.backtracks",
    "cell.iters.probe",
    "cell.iters.fine",
)


def _refinement_role(spans, s):
    """'probe' or 'fine' for a minimize_cell span directly under estimate_g."""
    if s.name != "cell.minimize_cell" or s.parent < 0:
        return None
    parent = spans[s.parent]
    if parent.name != "cell.estimate_g":
        return None
    return "probe" if s.attrs["h"] > 1.5 * parent.attrs["h"] else "fine"


def pass_counts(spans, lo: int, hi: int) -> dict:
    """Count metrics of the spans with indices in [lo, hi)."""
    c = dict.fromkeys(COUNT_METRICS, 0)
    for s in spans[lo:hi]:
        if s.name == "grids.gradient":
            c["grids.fg_evals"] += 1
        elif s.name == "grids.EnergyModel":
            c["grids.model_builds"] += 1
        elif s.name == "descent.lbfgs_descent":
            c["descent.iterations"] += s.attrs["iterations"]
            c["descent.fg_evals"] += s.attrs["evals"]
            c["descent.backtracks"] += s.attrs["evals"] - 1 - s.attrs["iterations"]
        else:
            role = _refinement_role(spans, s)
            if role is not None:
                c[f"cell.iters.{role}"] += s.attrs["iterations"]
    return c


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, setup_end: int, passes: list) -> tuple:
    """Per-layer metrics from the set-up spans [0, setup_end) and the traced passes.

    Returns (metrics, counts_per_pass).  Counts are per pass.  `*_ms`
    metrics are set-up plus one pass (mean over passes).  Per-node and
    per-point costs pool every traced span.  A layer that does not run
    on the workload reports 0.
    """
    n_pass = len(passes)
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)

    def child_ns(i):
        return sum(spans[c].dur for c in children.get(i, ()))

    def run_ms(*names):
        setup = sum(s.dur for s in spans[:setup_end] if s.name in names)
        in_passes = sum(s.dur for lo, hi in passes for s in spans[lo:hi] if s.name in names)
        return (setup + in_passes / n_pass) / 1e6

    fg = {2: [0, 0, 0, 0], 3: [0, 0, 0, 0]}  # energy ns, energy nodes, gradient ns, gradient nodes
    descent_self = descent_node_iters = 0
    glue = {"cell": [0, 0], "mass": [0, 0]}
    probe_iters = waste_iters = fine_iters = 0
    fine_residual = 0.0
    eval_ns = eval_points = 0
    cli_self = 0
    for i, s in enumerate(spans):
        if s.name in ("grids.energy_parts", "grids.gradient"):
            k = 0 if s.name == "grids.energy_parts" else 2
            fg[s.attrs["dim"]][k] += s.dur
            fg[s.attrs["dim"]][k + 1] += s.attrs["nodes"]
        elif s.name == "descent.lbfgs_descent":
            descent_self += s.dur - child_ns(i)
            descent_node_iters += s.attrs["n"] * s.attrs["iterations"]
        elif s.name in ("cell.f_g", "gamma.f_g"):
            key = "cell"
            if s.name == "gamma.f_g":
                owner = spans[s.parent].parent  # the minimize_diffuse call around the descent
                if owner < 0 or not spans[owner].attrs.get("mass"):
                    continue
                key = "mass"
            glue[key][0] += s.dur - child_ns(i)
            glue[key][1] += s.attrs["n"]
        elif s.name == "cell.estimate_g":
            runs = [spans[c] for c in children.get(i, ())]
            probes = [c for c in runs if _refinement_role(spans, c) == "probe"]
            fines = [c for c in runs if _refinement_role(spans, c) == "fine"]
            best = None
            for p in probes:  # the winner rule of cell.estimate_g
                if best is None or p.attrs["g"] < best.attrs["g"] - 1e-15:
                    best = p
            probe_iters += sum(p.attrs["iterations"] for p in probes)
            waste_iters += sum(p.attrs["iterations"] for p in probes) - (best.attrs["iterations"] if best else 0)
            fine_iters += sum(f.attrs["iterations"] for f in fines)
            for f in fines:
                fine_residual = max(fine_residual, f.attrs["residual"] / f.attrs["h"] ** f.attrs["dim"])
        elif s.name == "profile.__call__":
            eval_ns += s.dur
            eval_points += s.attrs["points"]
        elif s.name == "cli.main":
            cli_self += s.dur - child_ns(i)

    counts = [pass_counts(spans, lo, hi) for lo, hi in passes]
    first = counts[0]
    metrics = {
        "grids.fg_ns_per_node.2d": _ratio(fg[2][0], fg[2][1]) + _ratio(fg[2][2], fg[2][3]),
        "grids.fg_ns_per_node.3d": _ratio(fg[3][0], fg[3][1]) + _ratio(fg[3][2], fg[3][3]),
        "grids.fg_evals": first["grids.fg_evals"],
        "grids.model_builds": first["grids.model_builds"],
        "grids.model_build_ms": run_ms("grids.EnergyModel"),
        "descent.iterations": first["descent.iterations"],
        "descent.backtracks": first["descent.backtracks"],
        "descent.fg_evals": first["descent.fg_evals"],
        "descent.fg_per_iter": _ratio(first["descent.fg_evals"], first["descent.iterations"]),
        "descent.self_ns_per_node_iter": _ratio(descent_self, descent_node_iters),
        "cell.glue_ns_per_node": _ratio(*glue["cell"]),
        "cell.iters.probe": first["cell.iters.probe"],
        "cell.iters.fine": first["cell.iters.fine"],
        "cell.probe_waste_iter_frac": _ratio(waste_iters, probe_iters + fine_iters),
        "cell.fine_residual_scaled_max": fine_residual,
        "profile.build_ms": run_ms("profile.TransitionProfile"),
        "profile.eval_ns_per_point": _ratio(eval_ns, eval_points),
        "lattice.rotation_ms": run_ms("lattice.rationalize_direction", "lattice.rotation_from_direction"),
        "gamma.recovery_build_ms": run_ms("gamma.build_recovery"),
        "gamma.mass_glue_ns_per_node": _ratio(*glue["mass"]),
        "tiling.competitor_build_ms": run_ms("tiling.build_competitor"),
        "config.parse_ms": run_ms("config.parse_config"),
        "cli.self_ms": cli_self / n_pass / 1e6,
    }
    return metrics, counts
