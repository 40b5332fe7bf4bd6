"""One timed pass of one workload in a fresh process, reported as JSON.

    python3 perfbench/one_pass.py WORKLOAD --seed N --index I [--trace] [--spans PATH]
    python3 perfbench/one_pass.py --setup-only

`run.py` starts this once per pass from the root of a checkout, so every
pass meets a cold program, as a one-spec `acfield run` does: nothing the
program might cache in-process survives from one pass to the next.

The process first does the program's set-up (importing acfield from `./src`
and making the cold density.mu / self_moment calls) and times it, excluding
the interpreter's own start-up.  It then draws the pass's inputs (untimed),
times `Workload.run_pass()`, and checks the outputs (untimed).  With
--trace, `spans.Tracer` is installed before the set-up and kept through the
pass, and the per-layer metrics of those spans are reported; --spans also
saves the spans themselves.  The last line of standard output is

    {"setup_s", "pass_s", "attempted", "failed", "rss_mb", "layers"}
"""

import os
import sys
import time

T_START = time.perf_counter()  # before numpy or acfield is imported

# pin BLAS to one thread before numpy is loaded
BLAS_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_program():
    """Import acfield from ./src and nowhere else."""
    if not (SRC / "acfield" / "__init__.py").is_file():
        sys.exit("perfbench: no acfield sources under %s; run from a checkout root" % SRC)
    sys.path.insert(0, str(SRC))
    import acfield

    if Path(acfield.__file__).resolve().parent != (SRC / "acfield").resolve():
        sys.exit("perfbench: imported acfield from %s, not %s" % (acfield.__file__, SRC))
    return acfield


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", choices=("sweep", "audit", "evaluate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=0, help="the pass's number in its run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="save the traced spans to this .npz file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if (args.workload is None) != args.setup_only:
        parser.error("give a workload, or --setup-only")

    import_program()
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workloads.warm_up()
    report = {"setup_s": time.perf_counter() - T_START}

    if not args.setup_only:
        out_dir = OUT / args.workload
        out_dir.mkdir(parents=True, exist_ok=True)
        wl = workloads.WORKLOADS[args.workload](args.seed, args.index, out_dir)
        wl.prepare()
        t0 = time.perf_counter()
        result = wl.run_pass()
        report["pass_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        report["attempted"] = wl.ops_per_pass
        report["failed"] = wl.check(result)
        if tracer is not None:
            arrays = tracer.arrays()
            if args.spans:
                import numpy

                numpy.savez_compressed(args.spans, **arrays)
            report["layers"] = spans.layer_metrics(arrays)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
