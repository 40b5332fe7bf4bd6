"""Acceptance suite: one test per advertised numerical guarantee.

Each test drives the corresponding harness experiment at the reference
problem size (N = 80, i.e. 161 atoms, window half-width K = 20, stretch
1.1, quartic bump of width 0.5, screening mass 1) and asserts the
published tolerance directly, so `pytest tests/test_acceptance.py -v`
prints one pass/fail line per guarantee.  The reduced-size version of the
same battery ships as `acfield check`.

Guarantee 8 asserts the convergence slope as a floor (>= 0.8) with no
ceiling.  The published estimate is an upper bound on the error, and
both couplings are exact on uniform states, so their strain error is
O(eps) on the O(1) atoms next to the interface and decays like
eps^{3/2} in the l2_eps norm: faster than first order, as the bound
allows.
"""

import time

import pytest

import acfield.harness as harness
from acfield.harness import ExperimentSpec, main


ACC = dict(n_list=(80,), k_rule="n/4")  # N = 80, K = 20


def run_exp(kind, **overrides):
    params = dict(ACC)
    params.update(overrides)
    spec = ExperimentSpec(kind=kind, **params)
    t0 = time.monotonic()
    rows, failures = harness._KINDS[kind][0](spec)
    return rows, failures, time.monotonic() - t0


def by_quantity(rows):
    return {r.quantity: r for r in rows}


def test_criterion_01_analytic_derivatives_match_finite_differences():
    """Every analytic gradient agrees with central differences to 1e-5."""
    rows, failures, elapsed = run_exp("gradient-audit", n_samples=5)
    assert failures == []
    families = {r.quantity.removeprefix("rel-error-") for r in rows}
    assert families == {"periodic", "dirichlet-y", "dirichlet-a", "dirichlet-g",
                        "cb", "ac-method1", "ac-method2"}
    for r in rows:
        assert r.value <= 1e-5, "%s: rel error %.3e" % (r.quantity, r.value)
    assert elapsed <= 120.0


def test_criterion_02_fem_and_green_solvers_cross_validate():
    """Nodal FEM error vs the closed-form solutions halves at rate >= 1.8."""
    rows, failures, elapsed = run_exp("fem-cross-validation")
    assert failures == []
    rates = [r for r in rows if "-rate-" in r.quantity]
    assert len(rates) == 4  # two refinement steps for each boundary condition
    for r in rates:
        assert r.value >= 1.8, "%s: rate %.3f" % (r.quantity, r.value)
    assert elapsed <= 60.0


def test_criterion_03_optimal_boundary_data_is_stationary():
    """The closed-form boundary data zeroes the slab-energy derivative."""
    rows, failures, _ = run_exp("optimal-bc")
    assert failures == []
    q = by_quantity(rows)
    m_eps = 1.0 * (2.0 / 161.0)
    assert q["dg-at-gstar-closed"].value <= 1e-10 * m_eps
    assert q["dg-at-gstar-fd"].value <= 1e-6 * m_eps
    mirror = q["mirror-vs-stationary-rel"]
    assert mirror.value <= 1e-6 + 10.0 * mirror.tau


def test_criterion_04_no_ghost_forces_at_uniform_stretch():
    """Both couplings leave every uniformly stretched lattice force-free."""
    rows, failures, _ = run_exp("ghost-force", stretch_list=(1.0, 1.2, 1.5))
    assert failures == []
    assert len(rows) == 6  # three stretches x two couplings
    for r in rows:
        assert r.value <= 1e-8 + 10.0 * r.tau, "%s: %.3e" % (r.quantity, r.value)


def test_criterion_05_cell_energy_matches_quadrature():
    """The closed-form per-cell energy equals the field integral to 1e-9."""
    rows, failures, _ = run_exp("cb-closed-form")
    assert failures == []
    assert len(rows) == 5  # strains sampled across the admissible range
    for r in rows:
        assert r.value <= 1e-9, "%s: rel err %.3e" % (r.quantity, r.value)


def test_criterion_06_field_locality_bound_holds_cellwise():
    """The local-field error bound holds in every cell, for values and slopes."""
    rows, failures, elapsed = run_exp("field-bound", force_amplitude=0.05)
    assert failures == []
    q = by_quantity(rows)
    assert q["field-gap-ratio-max"].value <= 1.0 + 1e-10
    assert q["field-gradient-gap-ratio-max"].value <= 1.0 + 1e-10
    assert elapsed <= 180.0


def test_criterion_07_stability_floor_and_interface_deficit():
    """Method 1 keeps the coercivity floor; method 2's deficit fades with distance."""
    rows, failures, _ = run_exp("stability")
    assert failures == []
    q = by_quantity(rows)
    for label in ("homogeneous", "kink-d=0", "kink-d=1", "kink-d=2", "kink-d=3"):
        r = q["lambda-min-method1-" + label]
        assert r.value >= r.bound, "%s: %.6f < %.6f" % (label, r.value, r.bound)
    assert q["lambda-min-method2-homogeneous"].value > 0.0
    deficits = [q["deficit-kink-d=%d" % d].value for d in range(4)]
    assert all(b < a for a, b in zip(deficits, deficits[1:])), deficits


def test_criterion_08_first_order_error_convergence():
    """Coupling error is at least first order in the spacing across N = 40..320.

    One constant per coupling bounds every point by eps * ||y''||_w + tau,
    and the least-squares log-log slope is at least 0.8.  The slope has no
    ceiling: the error sits on the interface atoms, O(eps) on O(1) atoms,
    so its l2_eps norm decays like eps^{3/2} (measured 1.58 and 1.33).
    """
    rows, failures, elapsed = run_exp("error-convergence",
                                      n_list=(40, 80, 160, 320))
    assert failures == []
    q = by_quantity(rows)
    for variant in ("method1", "method2"):
        # one constant per coupling bounds every point of the sweep
        errs = [r for r in rows if r.quantity == "error-" + variant]
        assert len(errs) == 4
        for r in errs:
            assert r.value <= 2.0 * r.bound, \
                "%s N=%d: %.3e > 2.0 * %.3e" % (variant, r.N, r.value, r.bound)
        assert q["fitted-c-" + variant].value <= 2.0
    assert elapsed <= 900.0
    slopes = {v: q["slope-" + v].value for v in ("method1", "method2")}
    for variant, slope in sorted(slopes.items()):
        assert slope >= 0.8, \
            "%s least-squares slope %.3f < 0.8: the error does not decay " \
            "at least at first order in the spacing" % (variant, slope)


def test_criterion_09_boundary_data_gap_decays_with_defect_distance():
    """The optimal-vs-truncated boundary-data gap is small and decays at rate ~ m*s0."""
    rows, failures, _ = run_exp("bc-gap")
    assert failures == []
    q = by_quantity(rows)
    gaps = [r for r in rows if r.quantity.startswith("gap-d=")]
    assert len(gaps) == 10
    for r in gaps:
        assert r.value <= 2.0 * r.bound, \
            "%s: %.3e > 2.0 * %.3e" % (r.quantity, r.value, r.bound)
    rate = q["decay-rate"]
    assert abs(rate.value - rate.bound) <= 0.30 * rate.bound, \
        "decay rate %.4f vs target %.4f" % (rate.value, rate.bound)


def test_criterion_10_check_command_is_reproducible(tmp_path, capsys):
    """Two `acfield check` runs produce byte-identical CSV bodies."""
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["check", "--out", str(out1)]) == 0
    assert main(["check", "--out", str(out2)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert names == sorted(p.name for p in out2.glob("*.csv"))
    assert len(names) == 10
    for name in names:
        body1 = [ln for ln in (out1 / name).read_text().splitlines()
                 if not ln.startswith("#")]
        body2 = [ln for ln in (out2 / name).read_text().splitlines()
                 if not ln.startswith("#")]
        assert body1 == body2, name
