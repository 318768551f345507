"""sigmacell benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {oracle,polar,diffuse} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer
metrics.  The line before it records the environment (CPU count,
versions, BLAS build, thread settings, source commit) and is also
appended, with the result, to bench/_out/results.jsonl.

Each measurement runs in a fresh child process of this script with BLAS
pinned to one thread.  Untraced: a few set-up-only children give the
median `setup_s`, then one child repeats the workload for `--seconds`
and reports the median pass as `wall_s`.  Both are in reference
seconds: `HostSpeed` samples the host's speed while they run and scales
them to a fixed reference speed (bench/NOTES.md, "Noise").  Traced: one
child runs untraced passes for half the time, then installs the span
tracer (bench/spans.py) and runs traced passes for the other half; the
traced outputs must equal the untraced ones bit for bit, and every count
must repeat in every traced pass.  `attempted` counts every solve and every
gate of every pass, `failed` those that failed.

See bench/NOTES.md for why each workload exists and what each metric
should move.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process or its children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "_out")
WORKLOAD_NAMES = ("oracle", "polar", "diffuse")
SETUP_SAMPLES = 5  # set-up-only children plus the measuring child
CHILD_TIMEOUT_S = 170
SAMPLE_PERIOD_S = 0.05  # wall time between two host-speed samples
SAMPLE_REF_S = 0.003  # sample kernel time on the reference host


class HostSpeed:
    """Turns wall seconds into reference seconds by sampling the host's speed.

    The benchmark host's throughput switches between fast and slow spells
    of a few seconds, so raw pass times of the same code vary by 30% or
    more.  Between `start` and `stop`, a SIGALRM every SAMPLE_PERIOD_S runs
    a fixed kernel of 2 to 3 ms that does not touch sigmacell and records
    how long it took.  The kernel mixes the kinds of work the workloads do,
    because each kind is slowed by a different amount in a slow spell.
    `stop(wall)` takes the time spent in the samples off `wall` and
    multiplies the rest by the mean of SAMPLE_REF_S / sample time: what
    the same work would take on a host where the kernel takes
    SAMPLE_REF_S.  Without samples the wall time is returned as it is.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.linspace(0.0, 1.0, 64 * 65).reshape(64, 65)
        self._mid = np.linspace(0.0, 1.0, 256 * 257).reshape(256, 257)
        self._big = np.linspace(0.0, 1.0, 1 << 20)  # 8 MB, streamed from memory
        self._samples = None
        signal.signal(signal.SIGALRM, self._sample)

    def _kernel(self) -> float:
        """Seconds of an interpreted loop, numpy calls on small and mid-size arrays and one 8 MB sweep."""
        np, small, mid = self._np, self._small, self._mid
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(2000):
            table[i & 255] = acc
            acc += (i * 7) % 13
        for _ in range(20):
            (np.sin(small) * 2.0 + small).sum(axis=0)
        np.sin(mid) * mid + mid
        self._big *= -1.0
        return time.perf_counter() - t0

    def _sample(self, signum, frame) -> None:
        if self._samples is not None:
            self._samples.append(self._kernel())

    def start(self) -> None:
        self._samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self, wall: float) -> float:
        """Reference seconds of `wall`, a wall time that covers the sampled span."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        samples, self._samples = self._samples, None
        if not samples:
            return wall
        return (wall - sum(samples)) * statistics.mean(SAMPLE_REF_S / t for t in samples)


def _one_pass(wl, speed) -> tuple:
    """(raw seconds, reference seconds, Outcome of the checks); raw twice when `speed` is None."""
    if speed is not None:
        speed.start()
    t0 = time.perf_counter()
    out = wl.solve()
    wall = time.perf_counter() - t0
    ref = wall if speed is None else speed.stop(wall)
    return wall, ref, wl.evaluate(out)


def _run_passes(wl, budget_s: float, speed=None) -> list:
    """Repeat the workload while another pass still fits in the budget (at least one pass)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_one_pass(wl, speed))
        if time.perf_counter() - start + statistics.median(p[0] for p in passes) > budget_s:
            return passes


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def child(args) -> int:
    """Measure inside one fresh process; prints one JSON line."""
    speed = None if args.child == "trace" else HostSpeed()
    if speed is not None:
        speed.start()  # set-up time includes the imports below
    sys.path.insert(0, SRC)
    import resource

    import workloads

    work_dir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work_dir)
        tracer = None
        if args.child == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install(workloads)
        wl.setup()
        setup_raw = time.time() - args.t0
        report = {"setup_raw_s": setup_raw}
        if speed is not None:
            report["setup_s"] = speed.stop(setup_raw)
        report["env"] = _environment()
        if args.child == "setup":
            print(json.dumps(report))
            return 0

        if tracer is None:
            passes = _run_passes(wl, args.seconds, speed)
        else:
            setup_end = len(tracer.spans)
            tracer.uninstall()
            passes = _run_passes(wl, args.seconds / 2)
            untraced = len(passes)
            tracer.install(workloads)
            ranges = []
            start = time.perf_counter()
            while len(ranges) < 2 or time.perf_counter() - start + passes[-1][0] <= args.seconds / 2:
                lo = len(tracer.spans)
                passes.append(_one_pass(wl, None))
                ranges.append((lo, len(tracer.spans)))
            tracer.uninstall()
            layers, counts = spans.layer_metrics(tracer.spans, setup_end, ranges)
            walls = [p[0] for p in passes]
            layers["trace.overhead_s"] = statistics.median(walls[untraced:]) - statistics.median(walls[:untraced])
            report["layers"] = layers
            tracer.write_csv(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))

        first = passes[0][2]
        checks = [c for _, _, outcome in passes for c in outcome.checks]
        checks += [("outputs repeat bit for bit", p[2].fingerprint == first.fingerprint) for p in passes[1:]]
        if tracer is not None:
            checks.append(("counts repeat in every traced pass", all(c == counts[0] for c in counts)))
        report.update(
            walls=[p[1] for p in passes],
            raw_walls=[p[0] for p in passes],
            attempted=len(checks),
            failed=[name for name, ok in checks if not ok],
            sigma_rel_err=first.sigma_rel_err,
            err_bar_rel_max=first.err_bar_rel_max,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _spawn(args, mode: str) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace), "--child", mode,
    ]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.time()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_identity() -> dict:
    """The git commit when ROOT is a git checkout, and a hash of src/."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's own tests")
    parser.add_argument("--child", choices=("setup", "run", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sigmacell", "__init__.py")):
        print(f"error: no sigmacell sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.child:
        return child(args)

    # on SIGTERM, unwind through subprocess.run, which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        setup_reports = []
        main_report = _spawn(args, "trace")
    else:
        setup_reports = [_spawn(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
        main_report = _spawn(args, "run")
    setup_reports.append(main_report)

    if args.trace:
        values = main_report["layers"]
    else:
        values = {
            "wall_s": statistics.median(main_report["walls"]),
            "setup_s": statistics.median(r["setup_s"] for r in setup_reports),
            "peak_rss_mb": main_report["peak_rss_mb"],
            "sigma_rel_err": main_report["sigma_rel_err"],
            "err_bar_rel_max": main_report["err_bar_rel_max"],
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not main_report["failed"],
        "attempted": main_report["attempted"],
        "failed": len(main_report["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "env": main_report["env"],
        "source": _source_identity(),
        "walls": main_report["walls"],
        "raw_walls": main_report["raw_walls"],
        "setup_samples": [r.get("setup_s") for r in setup_reports],
        "raw_setup_samples": [r["setup_raw_s"] for r in setup_reports],
        "failed_checks": main_report["failed"],
        "result": result,
    }
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "nproc", "env", "source", "walls", "raw_walls", "failed_checks")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
