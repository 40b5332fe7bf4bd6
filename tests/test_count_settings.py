"""`tools/count_settings.py`, the count of the package's settable values."""

import ast
import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_settings.py"
_spec = importlib.util.spec_from_file_location("count_settings", TOOL)
count_settings = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_settings)


def test_defaults_and_class_fields_with_a_value_count():
    tree = ast.parse(textwrap.dedent("""
        def f(a, b=1, *args, c=2, d, **kw):
            def inner(i=0):
                return i
        g = lambda x=0: x
        class C:
            x: int = 0
            y: int
            name = "c"
            r: list = field(repr=False)
            h: list = field(init=False, repr=False)
            hd: int = field(init=False, default=0)
            d: int = field(default=1, repr=False)
            df: list = dataclass_field(default_factory=list)
            qd: int = dataclasses.field(default=2)
    """))
    # b, c, i, x of the lambda, and the fields x, d, df and qd; not y (no
    # value), not name, not r (a field(...) with no default is required), not
    # h or hd (init=False: no caller sets them)
    assert count_settings.count(tree) == 8


def test_package_count_is_pinned(capsys):
    # a change that adds or removes a settable value edits this number and
    # says why in CHANGES.md; 63 -> 59 when `run` lost `out_dir` and `seed`
    # and the gradient audit's wall and data closures their `i=i` defaults;
    # 59 -> 58 when `CellState` lost its stored `energy` field (a cell's
    # energy is `cb_cell_energy(strain)`); 58 -> 57 when
    # `StressFunction.integral` lost its `order` (every stress integral is
    # on the one 24-point rule per piece); 57 -> 54 when `solve_periodic`
    # lost its `constant_rho` test hook and `field_lipschitz_check`, with its
    # `n_samples` and `seed`, left the package; 54 -> 49 when the tool
    # stopped counting `field(...)` values with no default (`ChainConfig.u`,
    # `ExternalForce.f`, `Field.values`) or with `init=False`
    # (`ChainConfig._y` and `_s`); 49 -> 47 when `check` lost `jobs` (the
    # harness runs in one process) and `MinimizeError`'s `result` became
    # required
    assert count_settings.main(["count_settings.py"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total 47"
