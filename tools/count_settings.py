"""Count the settable values of the `acfield` package.

    python tools/count_settings.py [SRC]

A settable value is one a caller could set without editing the code: a
positional or keyword default of a function or lambda, and a class field
that has a default (`x: float = 1.0`; a plain class constant `x = 1.0` is
not a field).  A dataclass `field(...)` (or `dataclass_field(...)`) counts
only with `default=` or `default_factory=` and without `init=False`: a
field with neither is required, and an `init=False` one no caller sets.
The count runs over `SRC/acfield/*.py` (SRC defaults to the repository's
`src`) and prints one line per module, then the total.
Fewer settable values means fewer decisions with more than one owner.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _has_default(value):
    """Whether a class field's value is a default a caller may override."""
    func = value.func if isinstance(value, ast.Call) else None
    if getattr(func, "id", getattr(func, "attr", None)) not in ("field", "dataclass_field"):
        return True
    kw = {k.arg: k.value for k in value.keywords}
    init = kw.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in kw or "default_factory" in kw


def count(tree):
    """Settable values in one parsed module."""
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults)
            n += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                     and _has_default(s.value) for s in node.body)
    return n


def main(argv):
    src = Path(argv[1]) if len(argv) > 1 else SRC
    total = 0
    for path in sorted((src / "acfield").glob("*.py")):
        n = count(ast.parse(path.read_text(encoding="utf-8")))
        total += n
        print("%-20s %d" % (path.name, n))
    print("total %d" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
