"""Report the `acfield check` rows that moved between two output directories.

    python tools/check_diff.py OLD NEW

OLD and NEW each hold the `<kind>.csv` files of one `acfield check --out`
run.  The CSV bodies are compared kind by kind; the `#` header lines (time
stamps, wall times, the output path) are ignored.  A kind whose body is
byte-identical prints "identical"; otherwise each moved, added or removed
row is printed with its old value, new value and relative change.  Rows are
matched by (experiment, N, K, quantity) and their order of appearance.  The
report never fails: it exits 0 unless a directory is missing.
"""

import csv
import sys
from pathlib import Path

KEY = ("experiment", "N", "K", "quantity")


def body(path):
    """The CSV body of one kind: its lines without the `#` lines ('' if absent)."""
    if not path.exists():
        return ""
    return "".join(line for line in path.read_text().splitlines(True)
                   if not line.startswith("#"))


def keyed_rows(text):
    """{(key..., occurrence): row dict} of one CSV body."""
    rows, seen = {}, {}
    for row in csv.DictReader(text.splitlines()):
        key = tuple(row.get(c, "") for c in KEY)
        seen[key] = seen.get(key, 0) + 1
        rows[key + (seen[key],)] = row
    return rows


def rel_change(old, new):
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "n/a"
    if a == b:
        return "0"
    return "%.3e" % (abs(b - a) / abs(a)) if a != 0.0 else "inf"


def compare(old_text, new_text):
    """Lines describing every moved, added and removed row."""
    old, new = keyed_rows(old_text), keyed_rows(new_text)
    out = []
    for key in list(old) + [k for k in new if k not in old]:
        name = " ".join(key[:-1]) + ("" if key[-1] == 1 else " #%d" % key[-1])
        if key not in new:
            out.append("  removed  %s  old=%s" % (name, old[key].get("value")))
        elif key not in old:
            out.append("  added    %s  new=%s" % (name, new[key].get("value")))
        else:
            for col in old[key]:
                a, b = old[key][col], new[key].get(col)
                if a != b:
                    out.append("  moved    %s  %s: old=%s new=%s rel=%s"
                               % (name, col, a, b, rel_change(a, b)))
    return out


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: check_diff.py OLD NEW")
    old_dir, new_dir = Path(argv[1]), Path(argv[2])
    for d in (old_dir, new_dir):
        if not d.is_dir():
            sys.exit("not a directory: %s" % d)
    kinds = sorted({p.stem for d in (old_dir, new_dir) for p in d.glob("*.csv")})
    n_moved = 0
    for kind in kinds:
        old_text, new_text = body(old_dir / (kind + ".csv")), body(new_dir / (kind + ".csv"))
        if old_text == new_text:
            print("%s: identical" % kind)
            continue
        lines = compare(old_text, new_text)
        n_moved += 1
        print("%s: %d row change(s)%s" % (kind, len(lines), "" if lines else " (order or format)"))
        for line in lines:
            print(line)
    print("%d of %d kinds identical" % (len(kinds) - n_moved, len(kinds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
