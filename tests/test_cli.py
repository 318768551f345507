import hashlib
import inspect
import json
import os
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from sigmacell import cli
from sigmacell.cell import SolverOptions, estimate_sigma, minimize_cell
from sigmacell.cli import main, run_command
from sigmacell.config import _KIND_KEYS, ConfigError, parse_config
from sigmacell.lattice import PeriodicityReport, rotation_from_direction
from sigmacell.potential import POTENTIAL_KINDS, HypothesisCheck, HypothesisReport
from sigmacell.profile import TransitionProfile
from sigmacell.surface import SigmaTable

MINIMAL = """
[potential]
kind = homogeneous-quartic

[directions]
dir1 = 0, 1

[schedule]
t = 2
h = 1/16

[solver]
seed = 7

[output]
dir = out
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_minimal(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.potential.kind == "homogeneous-quartic"
    assert len(cfg.directions) == 1
    assert cfg.T_schedule == [2.0]
    assert cfg.h == pytest.approx(1 / 16)
    assert cfg.seed == 7
    assert cfg.solver == SolverOptions(None, None)


def test_unknown_section_named(tmp_path):
    path = write(tmp_path, MINIMAL.replace("[potential]", "[potental]"))
    with pytest.raises(ConfigError, match="potental"):
        parse_config(path)


def test_unknown_key_named(tmp_path):
    path = write(tmp_path, MINIMAL.replace("kind =", "kin =").replace("[potental]", "[potential]"))
    with pytest.raises(ConfigError, match="kin"):
        parse_config(path)


def test_fraction_values(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL.replace("h = 1/16", "h = 1/32")))
    assert cfg.h == pytest.approx(1 / 32)


def test_exact_rational_directions(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL.replace("dir1 = 0, 1", "dir1 = 3/5, 4/5")))
    assert str(cfg.directions[0]) == "(3/5, 4/5)"


def test_real_directions_rationalized(tmp_path):
    text = MINIMAL.replace("dir1 = 0, 1", "dir1 = 0.70710678, 0.70710678\nrational_tol = 0.02")
    cfg = parse_config(write(tmp_path, text))
    assert str(cfg.directions[0]) == "(20/29, 21/29)"


def test_lattice_alignment_validation_cites_period(tmp_path):
    text = MINIMAL.replace("dir1 = 0, 1", "dir1 = 3/5, 4/5").replace(
        "t = 2", "t = 4\nlattice_aligned = true"
    )
    cfg = parse_config(write(tmp_path, text))  # the directions a command solves are its own check
    with pytest.raises(ConfigError, match="period 5"):
        run_command("sigma", cfg, str(tmp_path / "out"))


def test_lattice_aligned_gamma_checks_only_the_strip_normal(tmp_path, capsys):
    # gamma solves at e2 (period 1), so the period 5 of dir1 does not concern it; sigma solves at dir1
    text = MINIMAL.replace("dir1 = 0, 1", "dir1 = 3/5, 4/5").replace(
        "t = 2", "t = 2, 4\nlattice_aligned = true\neps = 1/4\nt_cell = 2"
    )
    path = write(tmp_path, text)
    assert main(["gamma", "--config", path, "--out", str(tmp_path / "gamma")]) == 0
    assert main(["sigma", "--config", path, "--out", str(tmp_path / "sigma")]) == 2
    assert "config error: [schedule]: lattice-aligned run requires" in capsys.readouterr().err


def test_uniform_directions(tmp_path):
    text = MINIMAL.replace("dir1 = 0, 1", "uniform = 8\nrational_tol = 1e-2")
    cfg = parse_config(write(tmp_path, text))
    assert len(cfg.directions) == 8


def test_solver_memory_is_an_unknown_key(tmp_path, capsys):
    # the descent keeps a fixed history (`descent.MEMORY`), so a config that sets one is refused
    path = write(tmp_path, MINIMAL.replace("seed = 7", "seed = 7\nmemory = 10"))
    assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "config error: [solver]: unknown key 'memory'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("memory", ["0", "-1"])
def test_solver_memory_must_be_positive(tmp_path, memory):
    # a non-positive history is still refused, now as the unknown key it is
    path = write(tmp_path, MINIMAL.replace("seed = 7", f"seed = 7\nmemory = {memory}"))
    with pytest.raises(ConfigError, match="unknown key 'memory'"):
        parse_config(path)


def test_cli_exit_code_on_config_error(tmp_path):
    path = write(tmp_path, MINIMAL.replace("[potential]", "[potental]"))
    assert main(["sigma", "--config", path]) == 2


def test_sigma_command_artifacts(tmp_path):
    path = write(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert main(["sigma", "--config", path, "--out", out]) == 0
    table = SigmaTable.from_json(Path(out, "sigma_table.json").read_text())
    assert len(table.entries) == 1
    with open(os.path.join(out, "solves.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["nu1", "nu2", "T", "h", "g", "potential_part", "gradient_part", "iterations", "residual"]
    manifest = json.loads(Path(out, "manifest.json").read_text())
    names = {o["path"] for o in manifest["outputs"]}
    assert {"solves.csv", "sigma_table.json"} <= names
    for entry in manifest["outputs"]:
        assert len(entry["sha256"]) == 64


def test_sigma_deterministic_outputs(tmp_path):
    path = write(tmp_path, MINIMAL)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["sigma", "--config", path, "--out", out_a]) == 0
    assert main(["sigma", "--config", path, "--out", out_b]) == 0
    for name in ("solves.csv", "sigma_table.json"):
        with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read()


def test_sigma_worker_pool_deterministic(tmp_path):
    text = MINIMAL.replace("dir1 = 0, 1", "dir1 = 0, 1\ndir2 = 3/5, 4/5").replace(
        "seed = 7", "seed = 7\nworkers = 2"
    )
    path = write(tmp_path, text)
    out_a = str(tmp_path / "wa")
    out_b = str(tmp_path / "wb")
    assert main(["sigma", "--config", path, "--out", out_a]) == 0
    assert main(["sigma", "--config", path, "--out", out_b]) == 0
    for name in ("solves.csv", "sigma_table.json"):
        with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read()


RING = """
[potential]
kind = striped
alpha = 0.5

[directions]
uniform = 8
rational_tol = 1e-2

[schedule]
t = 2, 4
h = 1/8

[output]
dir = out
"""


def _count_solves(monkeypatch):
    """Count the calls of `estimate_sigma` that run_sigma makes (in this process)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return estimate_sigma(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_sigma", counted)
    return calls


def _library_estimates(cfg):
    profile = TransitionProfile(cfg.potential.wells, cfg.mollifier, dim=2)
    return [
        estimate_sigma(rotation_from_direction(nu), cfg.T_schedule, cfg.potential, profile, cfg.h, dim=2)
        for nu in cfg.directions
    ]


def _table_by_normal(out):
    entries = json.loads((out / "sigma_table.json").read_text())["entries"]
    return {tuple(entry["nu"]): entry for entry in entries}


def test_sigma_solves_one_direction_per_orbit(tmp_path, monkeypatch):
    # striped(0.5) is even in y1 and constant in y2: the 8 ring directions form 4 orbits under (±n1, ±n2)
    path = write(tmp_path, RING)
    cfg = parse_config(path)
    calls = _count_solves(monkeypatch)
    out = tmp_path / "out"
    assert main(["sigma", "--config", path, "--out", str(out)]) == 0
    assert len(calls) == 4
    entries = _table_by_normal(out)
    rows = (out / "solves.csv").read_text().splitlines()[1:]
    expected = _library_estimates(cfg)
    assert len(entries) == len(expected) == 8 and len(rows) == 8 * 2 * 2
    for k, est in enumerate(expected):
        entry = entries[tuple(est.nu.tolist())]  # the member's own normal, to the last bit
        assert entry["sigma"] == pytest.approx(est.sigma_hat, rel=1e-12, abs=0)
        assert entry["err"] == pytest.approx(est.error_bar, rel=1e-12, abs=0)
        for row in rows[4 * k : 4 * k + 4]:
            assert row.split(",")[:2] == [repr(float(c)) for c in est.nu]
    outcome = json.loads((out / "manifest.json").read_text())["outcomes"][0]
    assert (outcome["directions"], outcome["solved"]) == (8, 4)


def test_sigma_solves_a_direction_whose_mirror_breaks_the_weight(tmp_path, monkeypatch):
    # (-3/5, 4/5) = diag(-1, 1) (3/5, 4/5), but these factors are not even in y1
    text = MINIMAL.replace("kind = homogeneous-quartic", "kind = piecewise-cells\nfactors = 1, 2, 3; 4, 5, 6; 9, 7, 8")
    text = text.replace("dir1 = 0, 1", "dir1 = 3/5, 4/5\ndir2 = -3/5, 4/5").replace("h = 1/16", "h = 1/8")
    path = write(tmp_path, text)
    cfg = parse_config(path)
    calls = _count_solves(monkeypatch)
    out = tmp_path / "out"
    assert main(["sigma", "--config", path, "--out", str(out)]) == 0
    assert len(calls) == 2
    entries = _table_by_normal(out)
    expected = _library_estimates(cfg)
    assert len(entries) == len(expected) == 2
    for est in expected:
        entry = entries[tuple(est.nu.tolist())]
        assert (entry["sigma"], entry["err"]) == (est.sigma_hat, est.error_bar)
    assert json.loads((out / "manifest.json").read_text())["outcomes"][0]["solved"] == 2


def test_sigma_solves_a_quartic_ring_once(tmp_path, monkeypatch):
    # a constant weight is the same on every cell: the 16 ring directions are one orbit
    text = RING.replace("kind = striped\nalpha = 0.5", "kind = homogeneous-quartic")
    path = write(tmp_path, text.replace("uniform = 8", "uniform = 16"))
    cfg = parse_config(path)
    calls = _count_solves(monkeypatch)
    out = tmp_path / "out"
    assert main(["sigma", "--config", path, "--out", str(out)]) == 0
    assert len(calls) == 1
    entries = _table_by_normal(out)
    expected = _library_estimates(cfg)
    assert len(entries) == len(expected) == 16
    for est in expected:
        entry = entries[tuple(est.nu.tolist())]
        assert (entry["sigma"], entry["err"]) == (est.sigma_hat, est.error_bar)
    outcome = json.loads((out / "manifest.json").read_text())["outcomes"][0]
    assert (outcome["directions"], outcome["solved"]) == (16, 1)


def test_sigma_bytes_do_not_depend_on_the_worker_count(tmp_path):
    path = write(tmp_path, RING)
    outs = [tmp_path / f"w{k}" for k in (1, 2)]
    for k, out in zip((1, 2), outs):
        assert main(["sigma", "--config", path, "--out", str(out), "--workers", str(k)]) == 0
    for name in ("solves.csv", "sigma_table.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "kind, solved",
    [("kind = piecewise-cells\nfactors = 1, 2, 3; 4, 5, 6; 9, 7, 8", 2), ("kind = homogeneous-quartic", 1)],
)
def test_sigma_pool_has_no_more_workers_than_solves(tmp_path, monkeypatch, kind, solved):
    sizes = []

    class InProcessPool:
        """Stands in for the process pool: records its size and maps in this process, so no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    text = MINIMAL.replace("kind = homogeneous-quartic", kind).replace("dir1 = 0, 1", "dir1 = 3/5, 4/5\ndir2 = -3/5, 4/5")
    out = tmp_path / "out"
    path = write(tmp_path, text.replace("h = 1/16", "h = 1/8"))
    assert main(["sigma", "--config", path, "--out", str(out), "--workers", "1000"]) == 0
    assert json.loads((out / "manifest.json").read_text())["outcomes"][0]["solved"] == solved
    assert sizes == ([solved] if solved > 1 else [])  # one solve runs in this process


def test_polar_requires_table(tmp_path, capsys):
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "empty"
    assert main(["polar", "--config", path, "--out", str(out)]) == 2
    assert "config error: [output] sigma_table:" in capsys.readouterr().err
    assert not out.exists()


def test_polar_rejects_empty_table(tmp_path):
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    out.mkdir()
    (out / "sigma_table.json").write_text('{"dimension": 2, "potential": {}, "entries": []}')
    assert main(["polar", "--config", path, "--out", str(out)]) == 2


def test_validate_refuses_unreadable_table(tmp_path, capsys):
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    out.mkdir()
    (out / "sigma_table.json").write_text('{"dimension": 2, "potential": {}, "entries": []}')
    assert main(["validate", "--config", path, "--out", str(out)]) == 2
    assert "config error: [output] sigma_table:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def table_doc(**first):
    """A three-direction sigma table document whose first entry takes the given fields."""
    entries = [{"nu": nu, "sigma": 1.0, "err": 0.0} for nu in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])]
    entries[0].update(first)
    return {"dimension": 2, "potential": {}, "entries": entries}


@pytest.mark.parametrize("command", ["validate", "polar"])
@pytest.mark.parametrize(
    "doc",
    [
        table_doc(sigma=float("nan")),
        {"entries": 5},
        [table_doc()],
        table_doc(nu=1.0),
        table_doc(nu=[1.0, 0.0, 0.0]),
        table_doc(err=None),
        table_doc(nu={"x": 1.0}),
    ],
    ids=["nan-sigma", "entries-not-a-list", "top-level-list", "scalar-nu", "three-component-nu", "null-err", "object-nu"],
)
def test_malformed_table_exits_2(tmp_path, capsys, command, doc):
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    out.mkdir()
    (out / "sigma_table.json").write_text(json.dumps(doc))
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert "config error: [output] sigma_table:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_well_formed_table_doc_passes_validate(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "sigma_table.json").write_text(json.dumps(table_doc()))
    assert main(["validate", "--config", write(tmp_path, MINIMAL), "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["validate", "polar"])
def test_table_of_another_potential_exits_2(tmp_path, capsys, command):
    path = write(tmp_path, _readme_config())
    own = json.loads(json.dumps(parse_config(path).potential.describe()))
    for k, (record, code) in enumerate(((own, 0), ({}, 0), ({"kind": "checkerboard"}, 2), (5, 2))):
        out = tmp_path / f"out{k}"
        out.mkdir()
        doc = table_doc()
        doc["potential"] = record
        (out / "sigma_table.json").write_text(json.dumps(doc))
        assert main([command, "--config", path, "--out", str(out)]) == code
        assert ("config error: [output] sigma_table:" in capsys.readouterr().err) == (code == 2)


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    path = write(tmp_path, MINIMAL)
    manifests = []
    for threads in ("1", "2"):
        # the variable is read when the manifest is written; this process's BLAS pool keeps its size
        monkeypatch.setenv("OMP_NUM_THREADS", threads)
        out = tmp_path / f"omp{threads}"
        assert main(["sigma", "--config", path, "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
        assert manifests[-1]["environment"] == {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "threads": {
                name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        }
        for entry in manifests[-1]["outputs"]:
            assert hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest() == entry["sha256"]
    assert [m["environment"]["threads"]["OMP_NUM_THREADS"] for m in manifests] == ["1", "2"]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]
    assert [entry["path"] for entry in manifests[0]["outputs"]] == ["solves.csv", "sigma_table.json"]


@pytest.mark.parametrize("command, flag, value", [("sigma", "--workers", "0"), ("validate", "--seed", "-1")])
def test_cli_override_meets_key_checks(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, MINIMAL), "--out", str(out), flag, value]) == 2
    assert f"config error: [solver] {flag[2:]}: must be at least" in capsys.readouterr().err
    assert not out.exists()


def test_polar_renders_svg(tmp_path):
    path = write(tmp_path, MINIMAL.replace("dir1 = 0, 1", "uniform = 8\nrational_tol = 1e-2"))
    out = str(tmp_path / "out")
    assert main(["sigma", "--config", path, "--out", out]) == 0
    assert main(["polar", "--config", path, "--out", out]) == 0
    svg = Path(out, "polar.svg").read_text()
    assert svg.startswith("<svg")
    assert "path" in svg


def test_polar_writes_svg_only_when_listed(tmp_path):
    path = write(tmp_path, MINIMAL + "formats = csv, json\n")
    out = tmp_path / "out"
    out.mkdir()
    table = SigmaTable([((1.0, 0.0), 1.0, 0.0), ((0.0, 1.0), 1.0, 0.0), ((-1.0, 0.0), 1.0, 0.0)])
    (out / "sigma_table.json").write_text(table.to_json())
    assert main(["polar", "--config", path, "--out", str(out)]) == 0
    assert not (out / "polar.svg").exists()
    assert json.loads((out / "manifest.json").read_text())["outputs"] == []


def test_validate_command_passes(tmp_path, capsys):
    path = write(tmp_path, MINIMAL.replace("dir1 = 0, 1", "dir1 = 3/5, 4/5"))
    out = str(tmp_path / "out")
    assert main(["validate", "--config", path, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "H0 periodicity: pass" in text
    assert "period 5" in text


def test_validate_reports_a_failed_hypothesis(tmp_path, monkeypatch, capsys):
    failing = HypothesisReport([HypothesisCheck("H2", "zero-set", False, "W vanishes off the wells")])
    monkeypatch.setattr(cli, "validate_hypotheses", lambda *args: failing)
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["validate", "--config", path, "--out", str(out)]) == 4
    lines = (out / "validate.txt").read_text().splitlines()
    assert lines[0] == "H2 zero-set: FAIL (W vanishes off the wells)"
    assert capsys.readouterr().out.splitlines() == lines
    assert json.loads((out / "manifest.json").read_text())["outcomes"] == [{"kind": "validate", "passed": False}]


def test_validate_reports_a_failed_periodicity_check(tmp_path, monkeypatch):
    failing = PeriodicityReport(False, np.zeros((2, 2)), [0])
    monkeypatch.setattr(cli, "check_periodicity", lambda *args: failing)
    path = write(tmp_path, MINIMAL.replace("dir1 = 0, 1", "dir1 = 3/5, 4/5"))
    out = tmp_path / "out"
    assert main(["validate", "--config", path, "--out", str(out)]) == 4
    lines = (out / "validate.txt").read_text().splitlines()
    assert "periodicity (3/5, 4/5): FAIL" in lines
    assert all(line.endswith("pass") for line in lines if line.startswith("H"))


def test_validate_detects_convexity_violation(tmp_path):
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    out.mkdir()
    s = float(np.sqrt(0.5))
    bad = SigmaTable([((1, 0), 1.0, 0.0), ((0, 1), 1.0, 0.0), ((s, s), float(np.sqrt(2) * 1.01), 0.0)])
    (out / "sigma_table.json").write_text(bad.to_json())
    assert main(["validate", "--config", path, "--out", str(out)]) == 4


def test_gamma_command(tmp_path):
    text = MINIMAL.replace("t = 2", "t = 2, 4\neps = 1/4, 1/8\nt_cell = 4")
    path = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["gamma", "--config", path, "--out", out]) == 0
    with open(os.path.join(out, "gamma_gaps.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().strip().splitlines()
    assert header == ["eps", "min_energy", "recovery_energy", "sigma_target", "gap_min", "gap_recovery"]
    assert len(rows) == 2


def test_gamma_solves_at_the_strip_normal(tmp_path):
    # the strip's normal is e2, so the first configured direction does not enter the study
    text = MINIMAL.replace("t = 2", "t = 2\neps = 1/4\nt_cell = 2")
    gaps = []
    for name, direction in (("tilted", "3/5, 4/5"), ("normal", "0, 1")):
        path = write(tmp_path, text.replace("dir1 = 0, 1", f"dir1 = {direction}"), name=f"{name}.ini")
        assert main(["gamma", "--config", path, "--out", str(tmp_path / name)]) == 0
        gaps.append((tmp_path / name / "gamma_gaps.csv").read_bytes())
    assert gaps[0] == gaps[1]


def test_tile_command(tmp_path):
    text = MINIMAL.replace("t = 2", "t = 4\ns = 16\nm = 3").replace("h = 1/16", "h = 1/8")
    path = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["tile", "--config", path, "--out", out]) == 0
    with open(os.path.join(out, "tiling.csv")) as fh:
        header = fh.readline().strip().split(",")
        row = fh.readline().strip().split(",")
    assert header == ["T", "S", "m", "e_S", "g_S", "remainder"]
    assert float(row[4]) <= float(row[3])  # g_S <= e_S


def test_tile_with_no_tiled_edge_checks_no_s_cell(tmp_path):
    # S = 5.01 tiles no T and is no multiple of h; with nothing to tile, its cell is never built
    text = MINIMAL.replace("t = 2", "t = 2\ns = 5.01\nm = 3")
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["tile", "--config", path, "--out", str(out)]) == 0
    assert (out / "tiling.csv").read_text() == "T,S,m,e_S,g_S,remainder\n"


def test_tile_solves_only_the_tiled_t_cells(tmp_path, monkeypatch):
    # S = 12 tiles T = 4 but not T = 8
    solved = []

    def counted(grid, *args):
        solved.append(grid.T)
        return minimize_cell(grid, *args)

    monkeypatch.setattr(cli, "minimize_cell", counted)
    text = MINIMAL.replace("t = 2", "t = 4, 8\ns = 12\nm = 3").replace("h = 1/16", "h = 1/8")
    out = tmp_path / "out"
    assert main(["tile", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    assert solved == [4]
    assert [row.split(",")[0] for row in (out / "tiling.csv").read_text().splitlines()[1:]] == ["4.0"]


def test_tile_requires_plan_keys(tmp_path):
    path = write(tmp_path, MINIMAL)
    assert main(["tile", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_nonconvergence_exit_code(tmp_path):
    text = MINIMAL.replace("seed = 7", "seed = 7\ntolerance = 1e-14\nmax_iterations = 2")
    path = write(tmp_path, text)
    assert main(["sigma", "--config", path, "--out", str(tmp_path / "out")]) == 3


def test_run_command_unknown(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    with pytest.raises(ValueError):
        run_command("nope", cfg, str(tmp_path / "o"))


def test_piecewise_config(tmp_path):
    text = MINIMAL.replace(
        "kind = homogeneous-quartic", "kind = piecewise-cells\nfactors = 1, 2; 2, 4"
    )
    cfg = parse_config(write(tmp_path, text))
    assert cfg.potential.kind == "piecewise-cells"
    assert cfg.potential.params["factors"].shape == (2, 2)


def test_bad_format_rejected(tmp_path):
    text = MINIMAL + "formats = csv, pdf\n"
    with pytest.raises(ConfigError, match="pdf"):
        parse_config(write(tmp_path, text))


def _readme_config() -> str:
    """The config example under the README's "Config file grammar" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    grammar = readme[readme.index("## Config file grammar") :]
    return re.search(r"```ini\n(.*?)```", grammar, re.S).group(1)


def test_readme_config_example_parses(tmp_path):
    cfg = parse_config(write(tmp_path, _readme_config()))
    assert cfg.potential.kind == "striped"
    assert cfg.potential.params == {"alpha": 0.5, "axis": 0}
    assert [str(nu) for nu in cfg.directions] == ["(3/5, 4/5)", "(696/985, 697/985)"]
    assert (cfg.tile_S, cfg.tile_m) == (16.0, 3)


def test_readme_ring_validates(tmp_path):
    # the README's 16-direction ring: periods up to 16501, and a table with a convexity verdict
    text = _readme_config()
    assert "\n; uniform = 16\n" in text
    text = re.sub(r"^dir\d+ = .*\n", "", text, flags=re.M).replace("\n; uniform = 16\n", "\nuniform = 16\n")
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sigma", "--config", path, "--out", str(out)]) == 0
    assert main(["validate", "--config", path, "--out", str(out)]) == 0
    lines = (out / "validate.txt").read_text().splitlines()
    assert sum(line.startswith("periodicity ") for line in lines) == 16
    assert not [line for line in lines if "FAIL" in line]
    assert "convexity: 0 violation(s) beyond the error bars" in lines


def test_kind_keys_match_factory_keywords():
    assert set(_KIND_KEYS) == set(POTENTIAL_KINDS)
    for kind, keys in _KIND_KEYS.items():
        assert set(inspect.signature(POTENTIAL_KINDS[kind]).parameters) == set(keys) | {"d", "wells"}


QUARTIC = "kind = homogeneous-quartic"

# name -> ((text in MINIMAL, replacement), ...), the section the message names[, the command run: validate if absent]
BAD_CONFIGS = {
    "quartic-alpha": (((QUARTIC, QUARTIC + "\nalpha = 0.5"),), "potential"),
    "quartic-contrast": (((QUARTIC, QUARTIC + "\ncontrast = 2"),), "potential"),
    "quartic-axis": (((QUARTIC, QUARTIC + "\naxis = 1"),), "potential"),
    "striped-axis-5": (((QUARTIC, "kind = striped\naxis = 5"),), "potential"),
    "striped-contrast": (((QUARTIC, "kind = striped\ncontrast = 7"),), "potential"),
    "factors-1d": (((QUARTIC, "kind = piecewise-cells\nfactors = 1, 2"),), "potential"),
    "factors-missing": (((QUARTIC, "kind = piecewise-cells"),), "potential"),
    "factors-ragged": (((QUARTIC, "kind = piecewise-cells\nfactors = 1, 2; 3"),), "potential"),
    "d-wells-mismatch": (((QUARTIC, QUARTIC + "\nd = 3\nwells_a = -1\nwells_b = 1"),), "potential"),
    "d-zero": (((QUARTIC, QUARTIC + "\nd = 0"),), "potential"),
    "wells-alone": (((QUARTIC, QUARTIC + "\nwells_a = -1"),), "potential"),
    "alpha-1.5": (((QUARTIC, "kind = striped\nalpha = 1.5"),), "potential"),
    "contrast-negative": (((QUARTIC, "kind = checkerboard\ncontrast = -1"),), "potential"),
    "wells-equal": (((QUARTIC, QUARTIC + "\nwells_a = 1\nwells_b = 1"),), "potential"),
    "growth-q-1": (((QUARTIC, QUARTIC + "\ngrowth_q = 1"),), "potential"),
    "t-decreasing": ((("t = 2", "t = 4, 2"),), "schedule"),
    "t-empty": ((("t = 2", "t ="),), "schedule"),
    "h-not-dividing": ((("h = 1/16", "h = 0.3"),), "schedule"),
    "h-zero": ((("h = 1/16", "h = 0"),), "schedule"),
    "tangential-unknown": ((("h = 1/16", "h = 1/16\ntangential = sideways"),), "schedule"),
    "sigma-repeated-direction": ((("dir1 = 0, 1", "dir1 = 3/5, 4/5\ndir2 = 0.6, 0.8"),), "directions", "sigma"),
    "lattice-period": (
        (("dir1 = 0, 1", "dir1 = 3/5, 4/5"), ("t = 2", "t = 4\nlattice_aligned = true")),
        "schedule",
        "sigma",
    ),
    "samples-zero": ((("seed = 7", "seed = 7\nsamples = 0"),), "solver"),
    "samples-overflow": ((("seed = 7", "seed = 7\nsamples = 1e400"),), "solver"),
    "memory-inf": ((("seed = 7", "seed = 7\nmemory = inf"),), "solver"),
    "memory-fraction": ((("seed = 7", "seed = 7\nmemory = 2.7"),), "solver"),
    "memory-huge": ((("seed = 7", "seed = 7\nmemory = 1e9"),), "solver"),
    "sigma-memory-huge": ((("seed = 7", "seed = 7\nmemory = 1e9"),), "solver", "sigma"),
    "workers-nan": ((("seed = 7", "seed = 7\nworkers = nan"),), "solver"),
    "seed-negative": ((("seed = 7", "seed = -1"),), "solver"),
    "seed-fraction": ((("seed = 7", "seed = 7.9"),), "solver"),
    "tolerance-negative": ((("seed = 7", "seed = 7\ntolerance = -1"),), "solver"),
    "max-iterations-negative": ((("seed = 7", "seed = 7\nmax_iterations = -3"),), "solver"),
    "t-inf": ((("t = 2", "t = 2, inf"),), "schedule"),
    "direction-inf": ((("dir1 = 0, 1", "dir1 = inf, 1"),), "directions"),
    "direction-zero-denominator": ((("dir1 = 0, 1", "dir1 = 1/0, 1"),), "directions"),
    "rational-tol-tiny": ((("dir1 = 0, 1", "dir1 = 0.6, 0.8\nrational_tol = 1e-12"),), "directions"),
    "rational-tol-exact-direction": ((("dir1 = 0, 1", "dir1 = 0, 1\nrational_tol = 0"),), "directions"),
    "uniform-fraction": ((("dir1 = 0, 1", "uniform = 2.5"),), "directions"),
    "sigma-coarse-mesh": ((("t = 2", "t = 1"), ("h = 1/16", "h = 1/8")), "schedule", "sigma"),
    "gamma-coarse-mesh": ((("t = 2", "t = 1"), ("h = 1/16", "h = 1/8")), "schedule", "gamma"),
    "gamma-t-cell": ((("t = 2", "t = 2\nt_cell = 1/2"),), "schedule", "gamma"),
    "gamma-eps-zero": ((("t = 2", "t = 2\neps = 0"),), "schedule", "gamma"),
    "gamma-eps-mesh": ((("t = 2", "t = 2\neps = 0.3"),), "schedule", "gamma"),
    "gamma-layer": ((("t = 2", "t = 2\neps = 1/3\nt_cell = 4"),), "schedule", "gamma"),
    "tile-plan-keys": ((), "schedule", "tile"),
    "tile-m-1": ((("t = 2", "t = 2\ns = 16\nm = 1"),), "schedule", "tile"),
    "tile-corner": ((("dir1 = 0, 1", "dir1 = 3/5, 4/5"), ("t = 2", "t = 4\ns = 16\nm = 3")), "schedule", "tile"),
    "mollifier-radius": ((("[directions]", "[mollifier]\nradius = 2\n\n[directions]"),), "mollifier"),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_naming_section(tmp_path, capsys, name):
    edits, section, *command = BAD_CONFIGS[name]
    text = MINIMAL
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    assert main([*(command or ["validate"]), "--config", write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: [{section}]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # a refused run writes nothing
