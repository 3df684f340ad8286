#!/usr/bin/env python3
"""denitlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are taken from this
file). Workloads: cli_gappy_nowcast and hyperopt_forecast (see
perfbench/README.md). The inputs are made from --seed; units of work repeat
back to back until --seconds have passed, and each unit's outputs are
checked. A fixed probe (perfbench/hostspeed.py) is timed before and after
every unit and set-up, and each of their times is scaled by how fast the
probe ran around it, into seconds of the reference host. With --trace 0 the
end-to-end metrics are printed; with --trace 1 units alternate between
untraced and traced, and the per-layer metrics come from the traced ones.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit code 2 means the package sources are missing or the arguments are bad.
"""

import os
import sys

# BLAS threads are pinned before numpy loads: jobs x BLAS threads <= nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("cli_gappy_nowcast", "hyperopt_forecast")
SETUP_REPS = 5

END_TO_END = (
    ("wall_s", "s"),
    ("fits_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("quality_mse", "mg2/L2"),
)

IMPORT_PROBE = ("import time; t = time.perf_counter(); import denitlab.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as each CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def source_state() -> dict:
    """Git commit when run inside a clone, and a digest of the package sources."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@contextmanager
def tracing(enabled: bool):
    """A tracer installed into the package for the block, or None."""
    if not enabled:
        yield None
        return
    from layers import targets
    from spans import Tracer
    tracer = Tracer()
    tracer.install(targets(tracer))
    try:
        yield tracer
    finally:
        tracer.uninstall()


def setup_reps(workload, totals, jobs: int) -> list[dict]:
    """Set the workload up SETUP_REPS times, traced into ``totals`` if given.

    Returns one record per set-up: its time and the host-speed levels
    measured just before and just after it.
    """
    records = []
    before = hostspeed.level(jobs)
    for _ in range(SETUP_REPS):
        with tracing(totals is not None) as tracer:
            t0 = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - t0
        if tracer:
            totals.add_setup(tracer.spans)
        elapsed += import_seconds()
        after = hostspeed.level(jobs)
        records.append({"wall": elapsed, "levels": (before, after)})
        before = after
    return records


def scaled(record, jobs: int) -> float:
    """A record's time in seconds of the reference host (see hostspeed)."""
    return (record["wall"] * hostspeed.REFERENCE_S[jobs]
            / statistics.fmean(record["levels"]))


def measure(workload, seconds: float, totals, jobs: int) -> list[dict]:
    """Closed loop of units until ``seconds`` pass; returns per-unit records.

    Host-speed levels and checks run outside the timed region; a unit's
    levels are the ones measured just before and just after it. With
    ``totals`` (a traced run) odd units are traced into it, and at least one
    unit of each kind runs.
    """
    records = []
    start = time.perf_counter()
    before = hostspeed.level(jobs)
    k = 0
    while True:
        traced = totals is not None and k % 2 == 1
        with tracing(traced) as tracer:
            t0 = time.perf_counter()
            result = workload.run_once(k)
            t1 = time.perf_counter()
        after = hostspeed.level(jobs)
        residual = totals.add_iteration(tracer.spans, t0, t1) if tracer else None
        records.append({"wall": t1 - t0, "levels": (before, after), "traced": traced,
                        "residual": residual, "outcome": workload.check(result)})
        before = after
        k += 1
        if time.perf_counter() - start >= seconds and (totals is None or k >= 2):
            return records


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "denitlab" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'denitlab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from layers import LayerTotals
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    jobs = min(WORKLOADS[args.workload].JOBS, nproc)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": nproc, "jobs": jobs,
           "blas_threads": BLAS_THREADS, "python": platform.python_version(),
           "numpy": np.__version__, **source_state()}
    print("env " + json.dumps(env))

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, jobs)
        totals = LayerTotals() if args.trace else None
        setups = setup_reps(workload, totals, jobs)
        records = measure(workload, args.seconds, totals, jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report(args, workload, records, totals, setups, peak_rss_mb, jobs)


def report(args, workload, records, totals, setups, peak_rss_mb, jobs) -> int:
    outcomes = [r["outcome"] for r in records]
    problems = [f"unit {k}: {p}" for k, o in enumerate(outcomes) for p in o.problems]
    reference = outcomes[0].digest
    problems += [f"unit {k}: artifact digest differs from unit 0"
                 for k, o in enumerate(outcomes) if o.digest != reference]
    if jobs == 1:
        # serial units: layer self-times add up to the covered wall time
        problems += [f"unit {k}: self times miss the covered wall by {r['residual']!r} s"
                     for k, r in enumerate(records)
                     if r["traced"] and abs(r["residual"]) > 1e-6]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = not problems

    untraced = [r["wall"] for r in records if not r["traced"]]
    traced = [r["wall"] for r in records if r["traced"]]
    wall = statistics.median(untraced)
    levels = [v for r in records + setups for v in r["levels"]]
    plain = [r for r in records if not r["traced"]]
    e2e = {
        "wall_s": statistics.median(scaled(r, jobs) for r in plain),
        "fits_per_s": statistics.median(r["outcome"].fits / scaled(r, jobs)
                                        for r in plain),
        "setup_s": statistics.median(scaled(r, jobs) for r in setups),
        "peak_rss_mb": peak_rss_mb,
        "quality_mse": next((o.quality for o in outcomes if math.isfinite(o.quality)),
                            math.nan),
    }
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced units, {SETUP_REPS} set-ups; "
          f"checks {'passed' if correct else 'FAILED'}")
    # a run holds well under 20 units, so no tail percentile has ten beyond it
    print(f"  untraced unit walls (s, unscaled): n {len(untraced)}, "
          f"min {min(untraced):.4g}, median {wall:.4g}, max {max(untraced):.4g}")
    print(f"  host-speed levels (s): n {len(levels)}, min {min(levels):.4g}, "
          f"median {statistics.median(levels):.4g}, max {max(levels):.4g}, "
          f"reference {hostspeed.REFERENCE_S[jobs]:g} in {jobs} thread(s); "
          "times below are scaled to it")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:<12} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':<12} {failed / attempted:.6g} ({failed} of {attempted})")

    if args.trace:
        from layers import PER_LAYER
        overhead = statistics.median(traced) / wall - 1.0
        values = totals.metrics(wall, overhead, workload.gaps)
        values["host.probe_s"] = statistics.median(levels)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None  # only on a run whose checks failed; keeps the line JSON
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
