"""Config parsing, CSV determinism, and CLI behaviour of the experiment runner."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acfield.harness as harness
from acfield.harness import (
    ExperimentSpec,
    HarnessError,
    SpecError,
    main,
    parse_spec,
    run,
)


def write_spec(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def body_of(csv_path):
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


# ---------------------------------------------------------------------------
# parse_spec


def test_parse_minimal_defaults(tmp_path):
    spec = parse_spec(write_spec(tmp_path, "kind = ghost-force\n"))
    assert spec.kind == "ghost-force"
    assert spec.m == 1.0 and spec.stretch == 1.1 and spec.sigma0 == 0.5
    assert spec.n_list == (80,) and spec.k_rule == "n/4"
    assert spec.stretch_list == () and spec.seed == 0 and spec.out == "."


def test_parse_sections_and_comments_share_one_namespace(tmp_path):
    spec = parse_spec(write_spec(tmp_path, """
# full-line comment
[experiment]
kind = stability
n_list = 20          # trailing comment
[model]
m = 2.0
seed = 7
"""))
    assert spec.kind == "stability" and spec.m == 2.0
    assert spec.n_list == (20,) and spec.seed == 7


# the tau guard, the FEM meshes and the load's mode are fixed by the method,
# not spec keys: a spec that sets one is rejected like a misspelt key
@pytest.mark.parametrize("key", ["mm", "tau_threshold", "force_mode", "mesh_density"])
def test_parse_unknown_key_reports_line(tmp_path, key):
    path = write_spec(tmp_path, "kind = stability\n%s = 1.0\n" % key)
    with pytest.raises(SpecError, match=r"line 2: unknown key '%s'" % key):
        parse_spec(path)


def test_parse_duplicate_key_names_both_lines(tmp_path):
    path = write_spec(tmp_path, "kind = stability\nm = 1.0\nseed = 1\nm = 2.0\n")
    with pytest.raises(SpecError, match=r"line 4: duplicate key 'm' \(first set on line 2\)"):
        parse_spec(path)


def test_parse_n_list_sorted_and_deduplicated(tmp_path):
    spec = parse_spec(write_spec(tmp_path, "kind = stability\nn_list = 160, 40, 80, 40\n"))
    assert spec.n_list == (40, 80, 160)


def test_parse_type_mismatch_reports_key_and_line(tmp_path):
    path = write_spec(tmp_path, "kind = stability\nm = fast\n")
    with pytest.raises(SpecError, match=r"line 2: m:"):
        parse_spec(path)


def test_parse_malformed_line(tmp_path):
    path = write_spec(tmp_path, "kind = stability\njust words\n")
    with pytest.raises(SpecError, match=r"line 2: expected 'key = value'"):
        parse_spec(path)


def test_parse_missing_kind(tmp_path):
    with pytest.raises(SpecError, match="missing required key 'kind'"):
        parse_spec(write_spec(tmp_path, "m = 1.0\n"))


# ---------------------------------------------------------------------------
# spec validation


def test_spec_field_validation_messages():
    with pytest.raises(SpecError, match="stretch"):
        ExperimentSpec(kind="stability", stretch=0.4)
    with pytest.raises(SpecError, match="sigma0"):
        ExperimentSpec(kind="stability", sigma0=-1.0)
    with pytest.raises(SpecError, match="profile"):
        ExperimentSpec(kind="stability", profile="cubic")
    with pytest.raises(SpecError, match="k_rule"):
        ExperimentSpec(kind="stability", k_rule="n/")
    with pytest.raises(SpecError, match="n_list"):
        ExperimentSpec(kind="stability", n_list=(80, 40))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(SpecError, match="stretch: must be finite"):
            ExperimentSpec(kind="ghost-force", stretch=bad)
        with pytest.raises(SpecError, match="stretch_list: every entry must be finite"):
            ExperimentSpec(kind="ghost-force", stretch_list=(1.1, bad))
    # a float count or seed passed validation and failed later in `run`
    # with a bare TypeError
    for name, bad in (("n_samples", 2.5), ("n_samples", 0), ("n_samples", "3"),
                      ("seed", 0.5), ("seed", -1), ("seed", None)):
        with pytest.raises(SpecError, match=name + ": must be an integer"):
            ExperimentSpec(kind="gradient-audit", **{name: bad})
    assert ExperimentSpec(kind="gradient-audit", n_samples=np.int64(2), seed=np.int64(3)).seed == 3
    assert issubclass(SpecError, ValueError)


def test_k_rule_resolution():
    spec = ExperimentSpec(kind="stability")
    assert spec.k_of(80) == 20 and spec.k_of(81) == 20
    assert ExperimentSpec(kind="stability", k_rule="9").k_of(20) == 9
    with pytest.raises(SpecError, match="k_rule"):
        ExperimentSpec(kind="stability", k_rule="200").k_of(20)


def test_run_rejects_unknown_kind(tmp_path):
    spec = ExperimentSpec(kind="warp-drive", out=str(tmp_path))
    with pytest.raises(SpecError, match="unknown experiment"):
        run(spec)


# ---------------------------------------------------------------------------
# run + CSV output


def test_run_csv_is_deterministic_and_sorted(tmp_path):
    spec = ExperimentSpec(kind="cb-closed-form", n_list=(12,))
    rows1 = run(dataclasses.replace(spec, out=str(tmp_path / "a")))
    rows2 = run(dataclasses.replace(spec, out=str(tmp_path / "b")))
    body_a = body_of(tmp_path / "a" / "cb-closed-form.csv")
    body_b = body_of(tmp_path / "b" / "cb-closed-form.csv")
    assert body_a == body_b
    assert body_a[0] == "experiment,N,eps,K,tau,quantity,value,bound,fitted_c"
    assert len(body_a) == 1 + len(rows1) == 1 + len(rows2) == 6

    quantities = [ln.split(",")[5] for ln in body_a[1:]]
    assert quantities == sorted(quantities)
    # floats are written with repr: they round-trip exactly
    for line, row in zip(body_a[1:], rows1):
        assert float(line.split(",")[6]) == row.value

    header = (tmp_path / "a" / "cb-closed-form.csv").read_text().splitlines()
    assert header[0].startswith("# acfield ")
    assert header[1].startswith("# generated=")
    assert any(h.startswith("# spec kind=cb-closed-form") for h in header[:4])


def test_run_header_embeds_resolved_spec(tmp_path):
    spec = ExperimentSpec(kind="cb-closed-form", n_list=(12,), seed=3, out=str(tmp_path))
    run(spec)
    spec_line = [ln for ln in (tmp_path / "cb-closed-form.csv").read_text().splitlines()
                 if ln.startswith("# spec ")][0]
    for token in ("m=1.0", "stretch=1.1", "sigma0=0.5", "n_list=12",
                  "seed=3"):
        assert token in spec_line


def test_ghost_force_rows_stay_under_budget(tmp_path):
    spec = ExperimentSpec(kind="ghost-force", n_list=(20,), k_rule="9",
                          stretch_list=(1.0, 1.5), out=str(tmp_path))
    rows = run(spec)
    assert len(rows) == 4
    assert {r.quantity for r in rows} == {
        "linf-residual-method1-F=1.0", "linf-residual-method2-F=1.0",
        "linf-residual-method1-F=1.5", "linf-residual-method2-F=1.5",
    }
    for r in rows:
        assert r.value <= r.bound
        assert r.value < 1e-12  # exact coupling: machine-zero ghost forces


def test_error_convergence_sweep_rows(tmp_path):
    spec = ExperimentSpec(kind="error-convergence", n_list=(24, 48), k_rule="11",
                          out=str(tmp_path))
    rows = run(spec)
    by_q = {r.quantity: r for r in rows}
    assert len(rows) == 8
    for variant in ("method1", "method2"):
        errs = [r for r in rows if r.quantity == "error-" + variant]
        assert len(errs) == 2
        c_fit = by_q["fitted-c-" + variant].value
        assert all(r.value <= c_fit * r.bound * (1 + 1e-12) for r in errs)
        assert by_q["slope-" + variant].value > 0.8
        assert c_fit < 2.0
    # the finer chain has the smaller error for both couplings
    for variant in ("method1", "method2"):
        pair = sorted((r for r in rows if r.quantity == "error-" + variant),
                      key=lambda r: r.N)
        assert pair[1].value < pair[0].value


def test_checked_rows_fail_on_nan():
    rows = harness._Rows("synthetic")
    rows.at_most(12, 0, 0.0, "capped", 0.5, 1.0)
    rows.at_least(12, 0, 0.0, "floored", 2.0, 1.0)
    assert rows.failures == []
    rows.at_most(12, 0, 0.0, "capped-nan", float("nan"), 1.0)
    rows.at_least(12, 0, 0.0, "floored-nan", float("nan"), 1.0)
    assert rows.failures == ["synthetic N=12: capped-nan = nan exceeds 1.0",
                             "synthetic N=12: floored-nan = nan below 1.0"]
    assert [r.bound for r in rows.rows] == [1.0] * 4


def test_ghost_force_fails_on_nan_forces(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ac_forces",
                        lambda cfg, *args, **kwargs: np.full(cfg.n_atoms, np.nan))
    spec = ExperimentSpec(kind="ghost-force", n_list=(20,), k_rule="9", out=str(tmp_path))
    with pytest.raises(HarnessError, match="linf-residual-method1"):
        run(spec)


def test_field_bound_fails_on_a_nan_cell_bound(tmp_path, monkeypatch):
    real = harness.comparison_field_bound

    def nan_at_cell_3(cfg, profile, m, j):
        out = real(cfg, profile, m, j)
        assert j[3 + cfg.N] == 3
        out[3 + cfg.N] = float("nan")
        return out

    monkeypatch.setattr(harness, "comparison_field_bound", nan_at_cell_3)
    spec = ExperimentSpec(kind="field-bound", n_list=(8,), force_amplitude=0.05,
                          out=str(tmp_path))
    with pytest.raises(HarnessError, match="field-gap-ratio-max = nan"):
        run(spec)


def test_stability_deficit_rows_shrink(tmp_path):
    spec = ExperimentSpec(kind="stability", n_list=(20,), k_rule="9", out=str(tmp_path))
    rows = run(spec)
    deficits = [r.value for r in sorted(
        (r for r in rows if r.quantity.startswith("deficit-kink")),
        key=lambda r: r.quantity)]
    assert len(deficits) == 4
    assert all(b < a for a, b in zip(deficits, deficits[1:]))


# ---------------------------------------------------------------------------
# CLI


def test_cli_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == "acfield " + harness.__version__


def test_module_cli_runs_without_runtime_warning():
    # `python -m acfield.harness` is the CLI without an install; runpy warns
    # (RuntimeWarning) if importing the package has already loaded the module
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "acfield.harness", "version"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_module_loads_scipy():
    # the package depends on numpy alone: importing every module of it must
    # not load scipy (which costs more set-up time than numpy itself), nor a
    # process pool; a function-level import would escape this check, which
    # `test_import_rules` covers by AST
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import importlib, pkgutil, sys, acfield\n"
            "for mod in pkgutil.iter_modules(acfield.__path__):\n"
            "    importlib.import_module('acfield.' + mod.name)\n"
            "print(' '.join(sorted(k for k in sys.modules if k.startswith('scipy')\n"
            "                      or k in ('multiprocessing', 'concurrent.futures.process'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def _imported_modules(path):
    """The last dotted part of every module a source file imports from, and
    of every name it imports plainly (`import acfield.x`, `from . import x`)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[-1])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.name.split(".")[-1] for a in node.names}
    return names


def _top_level_uses(path):
    """(owner, names) for each top-level statement of a source file: the
    name it defines (its line for other statements) and every identifier
    it uses, as a name, an attribute or an imported name."""
    uses = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
        owner = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                 else "line %d" % top.lineno)
        uses.append((owner, names))
    return uses


def test_import_rules():
    # the oracles stand apart from the production path: the Newton step in
    # `hessian` imports nothing from `field`, whose FEM solves are the
    # cross-check oracle (`field` takes its cyclic product from `hessian`),
    # and no module imports the stress route, so neither `import acfield`
    # nor `import acfield.harness` (the CLI and every benchmark) loads it
    pkg = Path(harness.__file__).resolve().parent
    imports = {path.stem: _imported_modules(path) for path in pkg.glob("*.py")}
    banned = {name: {"stress"} for name in imports if name != "stress"}
    banned["hessian"].add("field")
    assert {name: sorted(imports[name] & ban) for name, ban in banned.items()
            if imports[name] & ban} == {}

    # one execution path: no module imports a pool, processes or threads,
    # at the top or inside a function
    parallel = {"concurrent", "multiprocessing", "threading"}
    spawners = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            spawners += ["%s: %s" % (path.stem, n) for n in names if n.split(".")[0] in parallel]
    assert spawners == []

    # no module but `field` refers to an FEM name, and `harness` only in the
    # FEM cross-check kind
    fem = {"Field", "solve_periodic", "solve_dirichlet", "fem_forces", "fem_relative_budget",
           "_assemble_load", "_bump_pieces", "_piece_blocks", "_solve_circulant",
           "_circulant_eigenvalues"}
    refs = {"%s.%s" % (path.stem, owner): sorted(names & fem)
            for path in sorted(pkg.glob("*.py")) if path.stem != "field"
            for owner, names in _top_level_uses(path) if names & fem}
    assert refs == {"harness._exp_fem_cross": ["solve_dirichlet", "solve_periodic"]}

    path = os.pathsep.join(p for p in (str(pkg.parent), os.environ.get("PYTHONPATH")) if p)
    code = "import sys, acfield, acfield.harness; print('acfield.stress' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_spec_errors_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    assert "i/o error" in capsys.readouterr().err

    bad = write_spec(tmp_path, "kind = stability\nwhat = 1\n")
    assert main(["run", bad]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_window_too_leaky_exit_2(tmp_path, capsys):
    # K = 4 at N = 20 leaves tau far above the default threshold; the model
    # layer rejects the window and the CLI reports it as a config problem
    path = write_spec(tmp_path, "kind = ghost-force\nn_list = 20\nk_rule = 4\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "tau" in capsys.readouterr().err


def test_cli_hard_failure_exits_1_but_writes_csv(tmp_path, capsys, monkeypatch):
    def broken(spec):
        return [harness.ResultRow("cb-closed-form", 12, 0.08, 0, 0.0,
                                  "synthetic", 1.0, 0.5)], ["synthetic check failed"]
    monkeypatch.setitem(harness._KINDS, "cb-closed-form",
                        (broken, harness._KINDS["cb-closed-form"][1]))
    path = write_spec(tmp_path, "kind = cb-closed-form\nn_list = 12\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert "synthetic check failed" in capsys.readouterr().err
    assert (tmp_path / "out" / "cb-closed-form.csv").exists()


def test_cli_run_writes_and_reports(tmp_path, capsys):
    path = write_spec(tmp_path, "kind = cb-closed-form\nn_list = 12\n")
    assert main(["run", path, "--out", str(tmp_path / "out"), "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "wrote 5 rows" in out
    spec_line = [ln for ln in (tmp_path / "out" / "cb-closed-form.csv")
                 .read_text().splitlines() if ln.startswith("# spec ")][0]
    assert "seed=5" in spec_line


def test_cli_spec_that_cannot_draw_a_chain_exits_2(tmp_path, capsys):
    # every strain must exceed sigma0 + 0.15 = 0.65, but the mean strain is
    # the stretch 0.6: no draw can pass, so the spec itself is invalid and no
    # CSV is written
    path = write_spec(tmp_path, "kind = gradient-audit\nn_list = 20\nk_rule = 9\n"
                                "stretch = 0.6\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: stretch 0.6, sigma0 0.5:")
    assert not (tmp_path / "out").exists()


def test_jobs_resolution(tmp_path, capsys):
    # the harness runs in one process: `jobs` accepts 1 only, and changes
    # nothing; the CLI has no `--jobs`
    for argv in (["check", "--jobs", "2"], ["run", "exp.cfg", "--jobs", "2"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    spec = ExperimentSpec(kind="cb-closed-form", n_list=(12,))
    for jobs in (0, 2):
        with pytest.raises(SpecError, match="jobs"):
            run(dataclasses.replace(spec, out=str(tmp_path / "bad")), jobs=jobs)
    assert not (tmp_path / "bad").exists()
    run(dataclasses.replace(spec, out=str(tmp_path / "one")), jobs=1)
    run(dataclasses.replace(spec, out=str(tmp_path / "default")))
    assert body_of(tmp_path / "one" / "cb-closed-form.csv") == \
        body_of(tmp_path / "default" / "cb-closed-form.csv")


def test_harness_is_a_client_of_the_public_api():
    # the harness and the demos import no private (`_`-prefixed) name of the
    # package, and every kind's check spec resolves a valid K at each N
    root = Path(harness.__file__).resolve().parents[2]
    for path in [Path(harness.__file__)] + sorted((root / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "acfield"):
                private = [a.name for a in node.names
                           if a.name.startswith("_") and not a.name.endswith("__")]
                assert not private, "%s imports %s" % (path.name, private)
    for kind, (_, fields) in harness._KINDS.items():
        spec = ExperimentSpec(kind=kind, **fields)
        for n in spec.n_list:
            assert 1 <= spec.k_of(n) < n


def test_each_all_lists_the_public_definitions():
    # every name in a module's __all__ exists, and every public function or
    # class the module defines at top level is listed
    pkg = Path(harness.__file__).resolve().parent
    for path in sorted(pkg.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module("acfield." + path.stem)
        listed = module.__all__
        assert [n for n in listed if not hasattr(module, n)] == [], path.name
        defined = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")}
        assert sorted(defined - set(listed)) == [], path.name


def test_every_public_name_is_used_outside_the_tests():
    # production modules hold only what production code calls: each name in
    # a module's __all__ is used by another statement of its module, another
    # module of the package, a demo, a tool or the benchmark (its code, or
    # the functions its tracer wraps by name, `perfbench/spans.py` TRACED).
    # The declared oracles are exempt: the stress route, and the FEM
    # cross-check's forces and accuracy budget
    root = Path(harness.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location("spans", root / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    uses = {path: _top_level_uses(path)
            for folder in ("src/acfield", "demos", "tools", "perfbench")
            for path in sorted((root / folder).glob("*.py"))}
    exempt = {"field.fem_forces", "field.fem_relative_budget"}
    unused = []
    for path in sorted((root / "src" / "acfield").glob("*.py")):
        if path.stem in ("__init__", "stress"):
            continue
        for name in importlib.import_module("acfield." + path.stem).__all__:
            used = name in spans.TRACED.get(path.stem, ()) or any(
                name in names and (where != path or owner != name)
                for where, statements in uses.items() for owner, names in statements)
            if not used and "%s.%s" % (path.stem, name) not in exempt:
                unused.append("%s.%s" % (path.stem, name))
    assert not unused, "public, but only tests use them: %s" % unused


def test_check_cli_and_python_share_one_output_directory(monkeypatch):
    outs = []

    def record(spec):
        outs.append(spec.out)
        return []

    monkeypatch.setattr(harness, "run", record)
    assert main(["check"]) == 0
    cli = set(outs)
    outs.clear()
    assert harness.check() == 0
    assert cli == set(outs) and len(cli) == 1


def test_check_reports_any_exception_and_goes_on(tmp_path, monkeypatch, capsys):
    # a kind that raises something other than HarnessError fails with the
    # exception's type and first line; the later kinds still run and print
    kinds = list(harness._KINDS)
    broken = kinds[4]

    def fake_run(spec):
        if spec.kind == broken:
            raise RuntimeError("scan blew up\nsecond line")
        return []

    monkeypatch.setattr(harness, "run", fake_run)
    assert harness.check(str(tmp_path)) == 1
    out, err = capsys.readouterr()
    assert "RuntimeError: scan blew up" in err  # the traceback
    lines = out.splitlines()
    assert lines[4].split() == [broken, "FAIL", "(RuntimeError:", "scan", "blew", "up)"]
    for kind, line in zip(kinds[5:], lines[5:]):
        assert line.split()[:2] == [kind, "PASS"]
    assert lines[-1] == "1 of %d experiment kinds failed" % len(kinds)
