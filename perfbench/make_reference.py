"""Record the reference outputs the sweep and audit checks compare against.

    python3 perfbench/make_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference; it rewrites perfbench/reference.json.  Sweep rows keep their value
and right-hand side.  Audit rows are recorded for every kind, and for every
spec seed in range(SEED_POOL) for the seeded kinds.

An audit row is pinned when it sits above roundoff.  Each spec is run again
with its stretches scaled by 1 - DELTA and 1 + DELTA; this moves the inputs
by far less than the tolerances and reshuffles the rounding of every
intermediate, so a row's relative move measures its sensitivity to roundoff.
A row whose value is at least PIN_FLOOR and moves by at most MAX_MOVE keeps
{"value", "rtol"} with rtol = max(MIN_RTOL, 100 * move); any other row is
null and is checked for presence and finiteness only.  At the seed commit
the rows resolved above roundoff moved by at most 1.3e-5 (the finest FEM
level) and the roundoff-dominated ones (finite-difference gradient errors,
residuals that vanish in exact arithmetic) by 2.5e-5 or more.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from one_pass import import_program  # pins BLAS to one thread before numpy loads

import_program()
import workloads  # noqa: E402

DELTA = 1e-13
PIN_FLOOR = 1e-9
MAX_MOVE = 2e-5
MIN_RTOL = 1e-6


def scaled(spec, factor):
    return dataclasses.replace(spec, stretch=spec.stretch * factor,
                               stretch_list=tuple(s * factor for s in spec.stretch_list))


def pinned_rows(spec):
    """The spec's rows, keyed as in `Audit.rows`, each pinned or null."""
    run = workloads.acfield.harness.run
    rows = run(spec, jobs=1)
    # rows come in a fixed order; keys of ghost-force carry the stretch
    others = [run(scaled(spec, 1.0 + d), jobs=1) for d in (-DELTA, DELTA)]
    out = {}
    for i, (key, row) in enumerate(workloads.Audit.rows(rows).items()):
        move = max(abs(o[i].value - row.value) for o in others) / max(abs(row.value), 1e-300)
        pin = abs(row.value) >= PIN_FLOOR and move <= MAX_MOVE
        out[key] = {"value": row.value, "rtol": max(MIN_RTOL, 100.0 * move)} if pin else None
    return dict(sorted(out.items()))


def main():
    ref = {"sweep": {}, "audit": {}, "audit_seeded": {}}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        workloads.warm_up()
        sweep = workloads.Sweep(0, 0, tmp)
        sweep_rows = sweep.run_pass()
        ref["sweep"] = {key: {"value": r.value, "bound": r.bound}
                        for key, r in sorted(sweep.rows(sweep_rows).items())}
        failed = sweep.check(sweep_rows, ref)
        for spec_seed in range(workloads.SEED_POOL):
            audit = workloads.Audit(spec_seed, 0, tmp)
            ref["audit_seeded"][str(spec_seed)] = {
                spec.kind: pinned_rows(spec) for spec in audit.specs
                if spec.kind in workloads.SEEDED_KINDS}
            if spec_seed == 0:
                ref["audit"] = {spec.kind: pinned_rows(spec) for spec in audit.specs
                                if spec.kind not in workloads.SEEDED_KINDS}
            failed += audit.check(audit.run_pass(), ref)
    if failed:
        sys.exit("make_reference: %d operations fail against their own outputs" % failed)
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print("wrote", workloads.REFERENCE)


if __name__ == "__main__":
    main()
