"""Config parsing, CSV determinism, and CLI behaviour of the experiment runner."""

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


def test_parse_unknown_key_reports_line(tmp_path):
    path = write_spec(tmp_path, "kind = stability\nmm = 1.0\n")
    with pytest.raises(SpecError, match=r"line 2: unknown key 'mm'"):
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
    with pytest.raises(SpecError, match="tau_threshold"):
        ExperimentSpec(kind="stability", tau_threshold=0.0)
    assert issubclass(SpecError, ValueError)


def test_k_rule_resolution():
    spec = ExperimentSpec(kind="stability")
    assert spec.k_of(80) == 20 and spec.k_of(81) == 20
    assert ExperimentSpec(kind="stability", k_rule="9").k_of(20) == 9
    with pytest.raises(SpecError, match="k_rule"):
        ExperimentSpec(kind="stability", k_rule="200").k_of(20)


def test_run_rejects_unknown_kind(tmp_path):
    spec = ExperimentSpec(kind="warp-drive")
    with pytest.raises(SpecError, match="unknown experiment"):
        run(spec, out_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# run + CSV output


def test_run_csv_is_deterministic_and_sorted(tmp_path):
    spec = ExperimentSpec(kind="cb-closed-form", n_list=(12,))
    rows1 = run(spec, out_dir=str(tmp_path / "a"))
    rows2 = run(spec, out_dir=str(tmp_path / "b"))
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
    spec = ExperimentSpec(kind="cb-closed-form", n_list=(12,), seed=3)
    run(spec, out_dir=str(tmp_path))
    spec_line = [ln for ln in (tmp_path / "cb-closed-form.csv").read_text().splitlines()
                 if ln.startswith("# spec ")][0]
    for token in ("m=1.0", "stretch=1.1", "sigma0=0.5", "n_list=12",
                  "seed=3", "tau_threshold=1e-08"):
        assert token in spec_line


def test_ghost_force_rows_stay_under_budget(tmp_path):
    spec = ExperimentSpec(kind="ghost-force", n_list=(20,), k_rule="9",
                          stretch_list=(1.0, 1.5))
    rows = run(spec, out_dir=str(tmp_path))
    assert len(rows) == 4
    assert {r.quantity for r in rows} == {
        "linf-residual-method1-F=1.0", "linf-residual-method2-F=1.0",
        "linf-residual-method1-F=1.5", "linf-residual-method2-F=1.5",
    }
    for r in rows:
        assert r.value <= r.bound
        assert r.value < 1e-12  # exact coupling: machine-zero ghost forces


def test_error_convergence_sweep_rows(tmp_path):
    spec = ExperimentSpec(kind="error-convergence", n_list=(24, 48), k_rule="11")
    rows = run(spec, out_dir=str(tmp_path))
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
    rows.at_most(12, 0.08, 0, 0.0, "capped", 0.5, 1.0)
    rows.at_least(12, 0.08, 0, 0.0, "floored", 2.0, 1.0)
    assert rows.failures == []
    rows.at_most(12, 0.08, 0, 0.0, "capped-nan", float("nan"), 1.0)
    rows.at_least(12, 0.08, 0, 0.0, "floored-nan", float("nan"), 1.0)
    assert rows.failures == ["synthetic N=12: capped-nan = nan exceeds 1.0",
                             "synthetic N=12: floored-nan = nan below 1.0"]
    assert [r.bound for r in rows.rows] == [1.0] * 4


def test_ghost_force_fails_on_nan_forces(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ac_forces",
                        lambda cfg, *args, **kwargs: np.full(cfg.n_atoms, np.nan))
    spec = ExperimentSpec(kind="ghost-force", n_list=(20,), k_rule="9")
    with pytest.raises(HarnessError, match="linf-residual-method1"):
        run(spec, out_dir=str(tmp_path))


def test_field_bound_fails_on_a_nan_cell_bound(tmp_path, monkeypatch):
    real = harness.comparison_field_bound

    def nan_at_cell_3(cfg, profile, m, j, grad=False):
        return float("nan") if j == 3 else real(cfg, profile, m, j, grad=grad)

    monkeypatch.setattr(harness, "comparison_field_bound", nan_at_cell_3)
    spec = ExperimentSpec(kind="field-bound", n_list=(8,), force_amplitude=0.05)
    with pytest.raises(HarnessError, match="field-gap-ratio-max = nan"):
        run(spec, out_dir=str(tmp_path))


def test_stability_deficit_rows_shrink(tmp_path):
    spec = ExperimentSpec(kind="stability", n_list=(20,), k_rule="9")
    rows = run(spec, out_dir=str(tmp_path))
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
    def broken(spec, jobs):
        return [harness.ResultRow("cb-closed-form", 12, 0.08, 0, 0.0,
                                  "synthetic", 1.0, 0.5)], ["synthetic check failed"]
    monkeypatch.setitem(harness._EXPERIMENTS, "cb-closed-form", broken)
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


def test_jobs_resolution(monkeypatch):
    monkeypatch.delenv("ACFIELD_JOBS", raising=False)
    assert harness._resolve_jobs(None) == 1
    assert harness._resolve_jobs(4) == 4
    monkeypatch.setenv("ACFIELD_JOBS", "3")
    assert harness._resolve_jobs(None) == 3
    assert harness._resolve_jobs(2) == 2  # explicit argument wins
    with pytest.raises(SpecError):
        harness._resolve_jobs(0)


def test_parallel_and_serial_runs_agree(tmp_path):
    spec = ExperimentSpec(kind="error-convergence", n_list=(24,), k_rule="11")
    run(spec, out_dir=str(tmp_path / "serial"), jobs=1)
    run(spec, out_dir=str(tmp_path / "pool"), jobs=2)
    assert body_of(tmp_path / "serial" / "error-convergence.csv") == \
        body_of(tmp_path / "pool" / "error-convergence.csv")


def test_check_suite_covers_every_kind():
    suite = harness._check_suite()
    assert {s.kind for s in suite} == set(harness._EXPERIMENTS)
    for spec in suite:
        for n in spec.n_list:
            assert 1 <= spec.k_of(n) < n
