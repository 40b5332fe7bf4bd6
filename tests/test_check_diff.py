"""`tools/check_diff.py`, the report of the `acfield check` rows that moved
between two output directories."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_diff.py"
_spec = importlib.util.spec_from_file_location("check_diff", TOOL)
check_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_diff)

COLUMNS = "experiment,N,eps,K,tau,quantity,value,bound,fitted_c\n"
ROW_A = "optimal-bc,20,0.04878,9,7.6e-09,dg-at-gstar-closed,1.0e-12,4.8e-12,\n"
ROW_B = "optimal-bc,20,0.04878,9,7.6e-09,dg-at-gstar-fd,2.0e-08,4.8e-08,\n"


def write_kinds(root, name, kinds):
    """A directory of `<kind>.csv` files, each a time-stamped header and a body."""
    d = root / name
    d.mkdir()
    for kind, (stamp, rows) in kinds.items():
        (d / (kind + ".csv")).write_text("# generated=%s\n" % stamp + COLUMNS + "".join(rows))
    return d


def report(capsys, old, new):
    assert check_diff.main(["check_diff.py", str(old), str(new)]) == 0
    return capsys.readouterr().out.splitlines()


def test_bodies_differing_only_in_comment_lines_are_identical(tmp_path, capsys):
    old = write_kinds(tmp_path, "old", {"optimal-bc": ("2026-01-01", [ROW_A, ROW_B])})
    new = write_kinds(tmp_path, "new", {"optimal-bc": ("2026-02-02", [ROW_A, ROW_B])})
    assert report(capsys, old, new) == ["optimal-bc: identical", "1 of 1 kinds identical"]


def test_moved_value_reports_its_relative_change(tmp_path, capsys):
    old = write_kinds(tmp_path, "old", {"optimal-bc": ("t", [ROW_A, ROW_B])})
    moved = ROW_B.replace("2.0e-08", "2.5e-08")
    new = write_kinds(tmp_path, "new", {"optimal-bc": ("t", [ROW_A, moved])})
    assert report(capsys, old, new) == [
        "optimal-bc: 1 row change(s), largest rel=2.500e-01",
        "  moved    optimal-bc 20 9 dg-at-gstar-fd  value: old=2.0e-08 new=2.5e-08 rel=2.500e-01",
        "0 of 1 kinds identical",
    ]


def test_header_gives_the_largest_numeric_move_of_its_kind(tmp_path, capsys):
    # the largest of the kind's moved numeric cells, wherever it sits; a
    # moved cell that is not a number has no relative change, and a kind
    # with no moved numeric cell no largest move
    old = write_kinds(tmp_path, "old", {"a": ("t", [ROW_A, ROW_B]), "b": ("t", [ROW_A]),
                                        "c": ("t", [ROW_A])})
    moved_b = ROW_B.replace("2.0e-08", "2.0000001e-08").replace("4.8e-08", "6.0e-08")
    new = write_kinds(tmp_path, "new", {"a": ("t", [ROW_A.replace("1.0e-12", "1.1e-12"), moved_b]),
                                        "b": ("t", [ROW_B]),
                                        "c": ("t", [ROW_A.replace(",\n", ",x\n")])})
    out = report(capsys, old, new)
    assert out[0] == "a: 3 row change(s), largest rel=2.500e-01"
    assert [line.split("  ")[-1] for line in out[1:4]] == [
        "value: old=1.0e-12 new=1.1e-12 rel=1.000e-01",
        "value: old=2.0e-08 new=2.0000001e-08 rel=5.000e-08",
        "bound: old=4.8e-08 new=6.0e-08 rel=2.500e-01"]
    assert out[4] == "b: 2 row change(s)"
    assert out[7:9] == ["c: 1 row change(s)",
                        "  moved    optimal-bc 20 9 dg-at-gstar-closed  fitted_c: old= new=x rel=n/a"]


def test_added_and_removed_rows(tmp_path, capsys):
    old = write_kinds(tmp_path, "old", {"optimal-bc": ("t", [ROW_A])})
    new = write_kinds(tmp_path, "new", {"optimal-bc": ("t", [ROW_B])})
    assert report(capsys, old, new) == [
        "optimal-bc: 2 row change(s)",
        "  removed  optimal-bc 20 9 dg-at-gstar-closed  old=1.0e-12",
        "  added    optimal-bc 20 9 dg-at-gstar-fd  new=2.0e-08",
        "0 of 1 kinds identical",
    ]


def test_summary_counts_identical_kinds(tmp_path, capsys):
    # a kind present on one side only is compared against an empty body
    old = write_kinds(tmp_path, "old", {"a": ("t", [ROW_A]), "b": ("t", [ROW_A]),
                                        "c": ("t", [ROW_A])})
    new = write_kinds(tmp_path, "new", {"a": ("u", [ROW_A]), "b": ("u", [ROW_B]),
                                        "d": ("u", [ROW_A])})
    out = report(capsys, old, new)
    assert out[0] == "a: identical"
    kinds = [line.split(":")[0] for line in out[:-1] if not line.startswith(" ")]
    assert kinds == ["a", "b", "c", "d"]
    assert out[-1] == "1 of 4 kinds identical"


def test_missing_directory_exits_nonzero(tmp_path):
    old = write_kinds(tmp_path, "old", {"a": ("t", [ROW_A])})
    proc = subprocess.run([sys.executable, str(TOOL), str(old), str(tmp_path / "absent")],
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert "not a directory" in proc.stderr
    with pytest.raises(SystemExit) as excinfo:
        check_diff.main(["check_diff.py", str(tmp_path / "absent"), str(old)])
    assert excinfo.value.code not in (0, None)
