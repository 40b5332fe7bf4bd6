"""Benchmark of acfield: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {sweep,audit,evaluate} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout: the program is imported from
`./src`, and outputs (CSV files, spans, the run record) go to `./.bench_out`.
One caller in a closed loop drives the public API with `jobs=1` and BLAS
pinned to one thread.  The workloads are described in `workloads.py`.

Every pass of the workload's fixed unit of work runs in a fresh process
(`one_pass.py`), so no pass profits from what an earlier pass left cached.

--trace 0 runs untraced passes for S seconds (at least one) and reports the
end-to-end metrics:

    wall_s       median time of one pass
    evals_per_s  operations per pass / wall_s
    peak_rss_mb  largest peak resident set size of a pass's process
    setup_s      median over the passes' processes, topped up with set-up-only
                 processes to SETUP_MIN, of importing acfield and making the
                 cold density.mu / self_moment calls

The result format asks for every end-to-end metric on every workload.
`wall_s` is the one to read for `sweep` and `audit`, `evals_per_s` for
`evaluate`; on each workload the other is its reciprocal times a constant.

--trace 1 runs pairs of one untraced and one traced pass (alternating which
goes first) for S seconds (at least one pair).  It reports the per-layer
metrics (see `spans.metric_names`) of the first traced pass, its set-up
included, and `trace.overhead_s`, the median traced pass minus the median
untraced pass.

An operation that raises or fails its output check counts in `failed`.  The
last line of standard output is {"correct", "attempted", "failed",
"metrics"}; the line before it is a record of the run environment.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from one_pass import BLAS_PIN, OUT, ROOT, SRC  # pins BLAS to one thread before numpy loads

HERE = Path(__file__).resolve().parent
SETUP_MIN = 5  # set-up samples per untraced run
CHILD_TIMEOUT = 150


def one_pass(*args):
    """Run one_pass.py in a fresh interpreter; its JSON report."""
    done = subprocess.run([sys.executable, str(HERE / "one_pass.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit("perfbench: one_pass.py %s exited with %d" % (" ".join(args), done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pin": {var: os.environ.get(var) for var in BLAS_PIN},
        "loadavg_before": _loadavg(),
    }


class Runner:
    """Starts the passes of one run, counting operations attempted and failed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.passes = 0
        self.attempted = 0
        self.failed = 0

    def run_pass(self, traced=False, spans_file=None):
        args = [self.workload, "--seed", str(self.seed), "--index", str(self.passes)]
        if traced:
            args.append("--trace")
        if spans_file:
            args += ["--spans", str(spans_file)]
        report = one_pass(*args)
        self.passes += 1
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        return report


def run_untraced(runner, seconds, record):
    reports = []
    start = time.perf_counter()
    while not reports or time.perf_counter() - start < seconds:
        reports.append(runner.run_pass())
    setup = [r["setup_s"] for r in reports]
    setup += [one_pass("--setup-only")["setup_s"] for _ in range(SETUP_MIN - len(setup))]
    passes = [r["pass_s"] for r in reports]
    wall = statistics.median(passes)
    record.update(pass_s=passes, setup_runs_s=setup)
    return {
        "wall_s": (wall, "s"),
        "evals_per_s": (reports[0]["attempted"] / wall, "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in reports), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def run_traced(runner, seconds, record):
    import spans

    times = {False: [], True: []}  # traced? -> pass times
    first = None  # per-layer metrics of the first traced pass
    span_file = OUT / ("%s-seed%d.spans.npz" % (runner.workload, runner.seed))
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        # pairs of passes, alternating which side runs first
        for traced in (False, True) if len(times[True]) % 2 == 0 else (True, False):
            report = runner.run_pass(traced, span_file if traced and first is None else None)
            times[traced].append(report["pass_s"])
            if traced and first is None:
                first = report["layers"]
    metrics = {name: tuple(value) for name, value in first.items()}
    overhead = statistics.median(times[True]) - statistics.median(times[False])
    metrics["trace.overhead_s"] = (overhead, "s")
    record.update(untraced_pass_s=times[False], traced_pass_s=times[True],
                  spans_file=str(span_file))
    missing = set(spans.metric_names()) - set(metrics)
    if missing:
        raise RuntimeError("per-layer metrics missing: %s" % sorted(missing))
    return {name: metrics[name] for name in spans.metric_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "audit", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "acfield" / "__init__.py").is_file():
        sys.exit("perfbench: no acfield sources under %s; run from a checkout root" % SRC)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    runner = Runner(args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    metrics = run(runner, args.seconds, record)
    record["env"]["loadavg_after"] = _loadavg()

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
