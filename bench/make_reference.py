"""Regenerate bench/polar_reference.json, the polar workload's reference table.

The reference solves each ring direction of the polar workload with the
library at a larger cube and a finer mesh than the workload itself
(T in {8, 16}, h = 1/16 against T in {4, 8}, h = 1/8), so the workload's
sigma_rel_err measures its discretization error and its error-bar gate
checks that the reported bars cover it.

    python3 bench/make_reference.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from sigmacell.cell import estimate_sigma  # noqa: E402
from sigmacell.config import parse_config  # noqa: E402
from sigmacell.lattice import rotation_from_direction  # noqa: E402
from sigmacell.profile import TransitionProfile  # noqa: E402

from workloads import POLAR_REFERENCE, polar_config  # noqa: E402

SCHEDULE = (8.0, 16.0)
MESH = 1 / 16


def main() -> int:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        path = os.path.join(tmp, "polar.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(polar_config(0, tmp, smoke=False))
        cfg = parse_config(path)
    profile = TransitionProfile(cfg.potential.wells, cfg.mollifier, dim=2)
    entries = []
    for nu in cfg.directions:
        est = estimate_sigma(rotation_from_direction(nu), SCHEDULE, cfg.potential, profile, MESH)
        if not est.converged:
            raise RuntimeError(f"reference solve for {nu} did not converge")
        entries.append(
            {"direction": str(nu), "nu": nu.as_float().tolist(), "sigma": est.sigma_hat, "err": est.error_bar}
        )
        print(entries[-1], flush=True)
    doc = {
        "potential": cfg.potential.describe(),
        "mollifier": {"shape": cfg.mollifier.shape, "radius": cfg.mollifier.radius},
        "schedule": list(SCHEDULE),
        "h": MESH,
        "entries": entries,
    }
    with open(POLAR_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
