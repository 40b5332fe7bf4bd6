"""Extended-precision reference values for the in-bump kernel field.

Inside its own bump a point sees (C_p / 2 m eps) w J(t), with gradient
(C_p / 2 m eps) J'(t), where t = d/w is the offset from the bump centre in
half-widths, kappa = m sigma0/2 and

    J(t) = integral_{-1}^{1} (1 - s^2)^p e^{-kappa |t - s|} ds.

This script integrates J and J' with mpmath (40 digits, the integral split
at the kernel kink s = t) for both profiles at every kappa of KAPPAS and the
offsets of T_GRID, and writes them, rounded to doubles, to oracle_field.json
next to it; test_field.py reads that file.  mpmath is needed only to
regenerate it:

    python3 tests/oracle_field.py

Nothing here shares code with the package.
"""

import json
from pathlib import Path

KAPPAS = (0.05, 0.125, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0)
POWERS = {"quartic": 2, "sextic": 3}
# offsets in half-widths, exact in binary: both signs, the centre and the edge
T_GRID = tuple(j / 16 for j in range(-15, 16)) + (-(1 - 2.0**-40), 1 - 2.0**-40)
OUT = Path(__file__).with_name("oracle_field.json")


def kernel(p, kappa, t):
    """(J(t), J'(t)) as mpmath numbers."""
    import mpmath as mp

    k, t = mp.mpf(kappa), mp.mpf(t)
    pieces = [-1, t, 1]
    val = mp.quad(lambda s: (1 - s * s) ** p * mp.exp(-k * abs(t - s)), pieces)
    grad = mp.quad(lambda s: -k * mp.sign(t - s) * (1 - s * s) ** p * mp.exp(-k * abs(t - s)),
                   pieces)
    return val, grad


def main():
    import mpmath as mp

    mp.mp.dps = 40
    out = {"t": list(T_GRID)}
    for name, p in POWERS.items():
        out[name] = {}
        for kappa in KAPPAS:
            rows = [kernel(p, kappa, t) for t in T_GRID]
            out[name][repr(kappa)] = {"J": [float(v) for v, _ in rows],
                                      "dJ": [float(g) for _, g in rows]}
            print(name, kappa, flush=True)
    # one line per list, so a regenerated file diffs row by row
    lines = ['{"t": %s,' % json.dumps(out["t"])]
    for name in POWERS:
        rows = ['  %s: {"J": %s,\n   "dJ": %s}' % (json.dumps(key), json.dumps(v["J"]), json.dumps(v["dJ"]))
                for key, v in out[name].items()]
        lines.append(' %s: {\n%s}%s' % (json.dumps(name), ",\n".join(rows), "," if name == "quartic" else ""))
    OUT.write_text("\n".join(lines) + "}\n", encoding="utf-8")
    print("wrote", OUT)


if __name__ == "__main__":
    main()
