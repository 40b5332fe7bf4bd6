"""Paired comparison of two commits on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py BASE HEAD [--workload W ...]

BASE and HEAD are checkout directories (each holding `src/acfield`) or git
revisions of the repository in the current directory, which are exported
with `git archive` to `.bench_out/compare/<commit sha>`.  Both sides run this
checkout's `run.py` for BENCHMARK.json's `run_seconds`, so the benchmark code
and settings are identical.

Each workload gets PAIRS pairs of runs; pair i uses seed FIRST_SEED + i on
both sides and alternates which side runs first.  Each (workload, metric) gets one row: both sides' median and
quartiles, the head's win fraction over pairs (ties count for neither), and
a verdict against the metric's bound in BENCHMARK.json:

    improved    head wins >= 9/10 of pairs and the medians differ by more
                than the base's own quartile spread
    regressed   head's median is worse than the base's by more than the bound
    unresolved  either side's quartile spread exceeds the bound, unless every
                head run beats every base run; or a gain while the head failed
                more operations than the base
    no worse    otherwise
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10
FIRST_SEED = 1


def checkout(ref, scratch):
    """A directory holding `ref`'s sources: the path itself, or a git export."""
    path = Path(ref)
    if (path / "src" / "acfield").is_dir():
        return path.resolve()
    sha = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"], check=True,
                         capture_output=True, text=True, timeout=60).stdout.strip()
    dest = scratch / sha
    if not dest.is_dir():
        dest.mkdir(parents=True)
        archive = dest.parent / (dest.name + ".tar")
        with open(archive, "wb") as fh:
            subprocess.run(["git", "archive", "--format=tar", sha], stdout=fh, check=True,
                           timeout=120)
        with tarfile.open(archive) as tar:
            tar.extractall(dest, filter="data")
        archive.unlink()
    return dest


def run_once(side, workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["failed"]:
        print("warning: %s %s seed %d: %d of %d operations failed"
              % (side, workload, seed, result["failed"], result["attempted"]), file=sys.stderr)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["failed"]


def verdict(base, head, better, bound, more_failures=False):
    """The row's verdict and win fraction; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head)) / len(base)
    mb, mh = statistics.median(base), statistics.median(head)
    qb, qh = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
    spread = max((qb[2] - qb[0]) / abs(mb), (qh[2] - qh[0]) / abs(mh))
    beats_all = all(sign * (b - h) > 0 for b in base for h in head)
    if wins >= 0.9 and sign * (mb - mh) > qb[2] - qb[0]:
        return ("unresolved" if more_failures else "improved"), wins
    if sign * (mh - mb) / abs(mb) > bound:
        return "regressed", wins
    if spread > bound and not beats_all:
        return "unresolved", wins
    return "no worse", wins


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    args = parser.parse_args(argv)

    scratch = Path.cwd() / ".bench_out" / "compare"
    sides = {"base": checkout(args.base, scratch), "head": checkout(args.head, scratch)}
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    rows = []
    print("%-9s %-12s %-30s %-30s %7s %5s  %s"
          % ("workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
             "change", "wins", "verdict"))
    for workload in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
        runs = {"base": [], "head": []}
        failed = {"base": 0, "head": 0}
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                values, n_failed = run_once(sides[side], workload, FIRST_SEED + i,
                                            BENCHMARK["run_seconds"])
                runs[side].append(values)
                failed[side] += n_failed
        for name, spec in metrics.items():
            base = [r[name] for r in runs["base"]]
            head = [r[name] for r in runs["head"]]
            word, wins = verdict(base, head, spec["better"], spec["bound"],
                                 failed["head"] > failed["base"])
            qb, qh = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
            change = statistics.median(head) / statistics.median(base) - 1.0
            rows.append({"workload": workload, "metric": name, "unit": spec["unit"],
                         "base": base, "head": head, "wins": wins, "verdict": word,
                         "failed": failed})
            print("%-9s %-12s %-30s %-30s %+6.1f%% %5.2f  %s" % (
                workload, name,
                "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2]),
                "%.4g [%.4g, %.4g]" % (qh[1], qh[0], qh[2]),
                100.0 * change, wins, word))
    out = Path.cwd() / ".bench_out" / "compare.json"
    out.write_text(json.dumps({"base": args.base, "head": args.head, "pairs": PAIRS,
                               "seconds": BENCHMARK["run_seconds"], "rows": rows}, indent=1) + "\n",
                   encoding="utf-8")
    print("wrote", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
