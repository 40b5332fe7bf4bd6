"""Solver tests: equilibrium detection, Newton descent, model comparisons.

The frozen numbers are converged Newton endpoints at N=20, F=1.1 with the
single-mode force amplitude 0.3 (seeded elsewhere: the solver itself is
deterministic), recorded during development.
"""

import numpy as np
import pytest

import acfield.minimize
from acfield.ac import method1, method2
from acfield.density import quartic_bump, sextic_bump
from acfield.lattice import ChainConfig, first_diff, homogeneous, norm_l2eps
from acfield.minimize import (
    AcModel,
    AtomisticModel,
    CauchyBornModel,
    ExternalForce,
    MinimizeError,
    compare_minimizers,
    minimize,
    sine_force,
)

PROFILE = quartic_bump()
M = 1.0

MIN_STRAIN_SINE = 0.9819872409264281
MAX_STRAIN_SINE = 1.240656691119737
E_FINAL_SINE = 1.1576375424847807
ERR_M1 = 0.003598477420916012
RHS_M1 = 0.01804958070623808
ERR_M2 = 0.01909215276476259
ERR_CB = 0.0022067103942414027


def atomistic():
    return AtomisticModel(PROFILE, M)


def test_external_force_validation():
    with pytest.raises(ValueError):
        ExternalForce(np.ones(41))  # not mean-zero
    with pytest.raises(ValueError):
        ExternalForce(np.zeros(40))  # even length
    f = sine_force(20, 0.3)
    assert abs(f.f.sum()) < 1e-12
    # pairing is translation invariant
    cfg = homogeneous(20, 1.1)
    assert abs(f.pairing(cfg) - f.pairing(cfg)) == 0.0


def test_zero_force_homogeneous_is_critical():
    cfg = homogeneous(20, 1.1)
    r = minimize(atomistic(), ExternalForce(np.zeros(41)), cfg)
    assert r.converged
    assert r.iterations == 0
    assert r.gradient_norm <= 1e-10 * M * cfg.eps
    assert np.max(np.abs(r.y_final.u)) < 1e-14


def test_sine_force_equilibrium():
    cfg = homogeneous(20, 1.1)
    r = minimize(atomistic(), sine_force(20, 0.3), cfg)
    assert r.converged and r.iterations <= 8
    assert abs(r.min_strain - MIN_STRAIN_SINE) < 1e-10
    assert abs(r.max_strain - MAX_STRAIN_SINE) < 1e-10
    assert abs(r.energies[-1] - E_FINAL_SINE) < 1e-12
    # frame constraint held to machine precision
    assert abs(float(np.sum(r.y_final.u))) < 1e-12
    # descent was strict across accepted steps but the last: the final polish
    # step's true decrease is below one ulp of E, so it may rise by no more
    # than minimize's Armijo slack
    e = r.energies
    assert all(a > b for a, b in zip(e[:-2], e[1:-1]))
    assert e[-1] <= e[-2] + 64 * np.finfo(float).eps * (1.0 + abs(e[-2]))


def test_criticality_probes():
    cfg = homogeneous(20, 1.1)
    f = sine_force(20, 0.3)
    model = atomistic()
    r = minimize(model, f, cfg)
    g = model.gradient(r.y_final) + r.y_final.eps * f.f
    g = g - g.mean()
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal(41)
        u -= u.mean()
        du = (u - np.roll(u, 1)) / cfg.eps
        assert abs(float(g @ u)) <= 1e-10 * M * cfg.eps * norm_l2eps(du, cfg.eps)


@pytest.mark.parametrize("model_cls", [CauchyBornModel])
def test_other_models_converge(model_cls):
    cfg = homogeneous(20, 1.1)
    r = minimize(model_cls(PROFILE, M), sine_force(20, 0.3), cfg)
    assert r.converged
    assert r.min_strain > PROFILE.sigma0 + 0.05


def test_load_length_must_match_the_chain():
    # the load pairs with the positions entry by entry, so its length is
    # checked before any work, and the message names both lengths
    with pytest.raises(ValueError, match="the load has 21 entries but the chain has 25 atoms"):
        minimize(atomistic(), sine_force(10, 0.3), homogeneous(12, 1.1))


def test_initial_guard_violation_names_bond():
    with pytest.raises(ValueError, match="bond"):
        minimize(atomistic(), sine_force(20, 0.3), homogeneous(20, 0.52))


def test_exhaustion_raises_and_flag_mode(monkeypatch):
    monkeypatch.setattr(acfield.minimize, "_MAX_ITER", 4)
    cfg = homogeneous(20, 1.1)
    hard = sine_force(20, 30.0)
    with pytest.raises(MinimizeError) as excinfo:
        minimize(atomistic(), hard, cfg)
    r = excinfo.value.result
    assert not r.converged
    assert r.iterations == 4


def test_minimize_error_says_why_it_stopped(monkeypatch):
    # method 2 at m = 0.5, restarted from the atomistic minimizer: every step
    # falls back to steepest descent on an indefinite Hessian, and the
    # iterates run into the strain guard sigma0 + 0.05, which refuses every
    # trial of the last step (the message said only "line search failed")
    f = sine_force(80, 0.3)
    y0 = minimize(AtomisticModel(PROFILE, 0.5), f, homogeneous(80, 1.1)).y_final
    with pytest.raises(MinimizeError) as excinfo:
        minimize(AcModel(method2(20), PROFILE, 0.5), f, y0)
    r = excinfo.value.result
    assert (r.iterations, r.n_fallbacks) == (17, 18)
    assert 0.55 < r.min_strain < 0.55 + 1e-9
    assert str(excinfo.value) == (
        "line search failed at step 18 (|g| = 7.973e-02): 18 of 18 steps fell back to "
        "steepest descent; the strain guard 0.55 refused 40 of the last step's 40 trials "
        "(min strain 0.550000000077)")

    # out of iterations: the last step's trials that the guard refused
    monkeypatch.setattr(acfield.minimize, "_MAX_ITER", 4)
    with pytest.raises(MinimizeError, match=r"^no convergence in 4 iterations \(\|g\| = "
                       r"[0-9.e+-]+\): 0 of 4 steps fell back to steepest descent; "
                       r"the strain guard 0.55 refused \d+ of the last step's \d+ "
                       r"trials \(min strain "):
        minimize(atomistic(), sine_force(20, 30.0), homogeneous(20, 1.1))


def test_compare_zero_force_is_tau_small():
    cfg = homogeneous(20, 1.1)
    err, rhs = compare_minimizers(atomistic(), AcModel(method1(9), PROFILE, M),
                                  ExternalForce(np.zeros(41)), cfg)
    assert err <= rhs + 1e-12
    assert rhs < 1e-8  # pure tau: both minimizers homogeneous


def test_compare_models_frozen():
    cfg = homogeneous(20, 1.1)
    f = sine_force(20, 0.3)
    e1, b1 = compare_minimizers(atomistic(), AcModel(method1(9), PROFILE, M), f, cfg)
    assert abs(e1 - ERR_M1) < 1e-10
    assert abs(b1 - RHS_M1) < 1e-10
    assert e1 <= b1  # first-order budget holds with C <= 1 here
    e2, _ = compare_minimizers(atomistic(), AcModel(method2(9), PROFILE, M), f, cfg)
    assert abs(e2 - ERR_M2) < 1e-10
    assert e2 < 10 * e1  # methods within a constant factor
    ecb, bcb = compare_minimizers(atomistic(), CauchyBornModel(PROFILE, M), f, cfg)
    assert abs(ecb - ERR_CB) < 1e-10
    assert ecb <= bcb


def test_first_order_bound_under_refinement():
    # halving eps at fixed force shape: error at least halves, bound holds
    errs = []
    for n in (40, 80):
        e, b = compare_minimizers(
            AtomisticModel(PROFILE, M), AcModel(method1(n // 4), PROFILE, M),
            sine_force(n, 0.3), homogeneous(n, 1.1)
        )
        assert e <= b
        errs.append(e)
    assert errs[0] / errs[1] >= 2.0


def test_ac_minimize_from_atomistic_start():
    # the coupled model equilibrates in a couple of steps from the atomistic
    # minimizer and stays close to it
    cfg = homogeneous(20, 1.1)
    f = sine_force(20, 0.3)
    r_at = minimize(atomistic(), f, cfg)
    model = AcModel(method1(9), PROFILE, M)
    r_ac = minimize(model, f, r_at.y_final)
    assert r_ac.converged and r_ac.iterations <= 6
    d = norm_l2eps(first_diff(r_at.y_final) - first_diff(r_ac.y_final), cfg.eps)
    assert abs(d - ERR_M1) < 1e-10


def smooth_random_chain(N, seed=0, amp=0.02):
    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * np.arange(-N, N + 1) / (2 * N + 1)
    u = sum(rng.normal(0.0, amp) / k * np.sin(k * theta)
            + rng.normal(0.0, amp) / k * np.cos(k * theta) for k in (1, 2, 3))
    return ChainConfig(N, 1.1, u - u.mean())


def interface_kink_chain(N, K):
    """A kink centred on atom K, the inner atom of the interface cell K+1."""
    jj = np.arange(-N, N + 1)
    u = 0.2 * (2.0 / (2 * N + 1)) * np.exp(-np.abs(jj - K) / 1.5)
    return ChainConfig(N, 1.1, u - u.mean())


def fd_hessian(gradient, cfg):
    """Central differences of an analytic gradient, step 1e-5 eps; the
    gradients are translation invariant, so re-centering is exact."""
    h = 1e-5 * cfg.eps
    cols = []
    for p in range(cfg.n_atoms):
        up, um = cfg.u.copy(), cfg.u.copy()
        up[p] += h
        um[p] -= h
        cols.append((gradient(cfg.replace_u(up - up.mean()))
                     - gradient(cfg.replace_u(um - um.mean()))) / (2 * h))
    return np.column_stack(cols)


def assert_exact_hessian(model, cfg):
    hess = model.hessian_structured(cfg).dense()
    fd = fd_hessian(model.gradient, cfg)
    rel = np.max(np.abs(hess - fd), axis=1) / np.max(np.abs(hess), axis=1)
    assert np.max(rel) <= 1e-6
    assert np.array_equal(hess, hess.T)
    assert np.max(np.abs(hess.sum(axis=1))) <= 1e-12 * np.max(np.abs(hess))


@pytest.mark.parametrize("shape", ["smooth", "kink"])
@pytest.mark.parametrize("N,K", [(4, 1), (20, 9), (40, 10)])
@pytest.mark.parametrize("bump", [quartic_bump, sextic_bump], ids=["quartic", "sextic"])
@pytest.mark.parametrize("model_cls", [AtomisticModel, CauchyBornModel])
def test_model_hessian_matches_fd(model_cls, bump, N, K, shape):
    # N = 4 is short enough that the periodic image terms are O(1)
    cfg = smooth_random_chain(N) if shape == "smooth" else interface_kink_chain(N, K)
    assert_exact_hessian(model_cls(bump(), M), cfg)


def test_atomistic_model_rejects_fem_backend():
    # FEM is a cross-check oracle in acfield.field, not a model backend
    with pytest.raises(ValueError, match="only the exact pair route"):
        AtomisticModel(PROFILE, M, backend="fem")


def test_telemetry_counts_on_converging_case():
    r = minimize(atomistic(), sine_force(20, 0.3), homogeneous(20, 1.1))
    assert r.converged and r.iterations > 0
    assert r.n_hess_evals == r.iterations
    assert r.n_grad_evals == r.iterations + 1
    assert r.n_fallbacks == 0
    assert r.n_backtracks >= 0


def negated(h):
    """The structured system of -H."""
    green = None if h.green is None else h.green._replace(a=-h.green.a)
    return h._replace(diag=-h.diag, off=-h.off, green=green, w=-h.w)


class NegatedHessian:
    """A model whose Hessian is -H: never positive definite on the
    mean-zero subspace, so every step falls back to steepest descent."""

    def __init__(self, model):
        self.model = model
        self.profile, self.m = model.profile, model.m

    def energy(self, cfg):
        return self.model.energy(cfg)

    def gradient(self, cfg):
        return self.model.gradient(cfg)

    def hessian_structured(self, cfg):
        return negated(self.model.hessian_structured(cfg))


def test_negated_hessian_makes_every_step_a_fallback(monkeypatch):
    monkeypatch.setattr(acfield.minimize, "_MAX_ITER", 5)
    with pytest.raises(MinimizeError) as excinfo:
        minimize(NegatedHessian(atomistic()), sine_force(20, 0.3), homogeneous(20, 1.1))
    r = excinfo.value.result
    assert r.iterations == 5
    assert r.n_fallbacks == r.iterations
    assert all(a > b for a, b in zip(r.energies, r.energies[1:]))


# (model, N, iterations) of every minimize call in criterion 8's sweep at
# N = 40, 80, 160: the atomistic minimizer, then per coupling the atomistic
# restart at it (0 steps) and the coupled minimizer
SWEEP_NEWTON_ITERATIONS = [
    ("atomistic", 40, 4), ("atomistic", 40, 0), ("ac_method1_K10", 40, 3),
    ("atomistic", 40, 0), ("ac_method2_K10", 40, 5),
    ("atomistic", 80, 4), ("atomistic", 80, 0), ("ac_method1_K20", 80, 2),
    ("atomistic", 80, 0), ("ac_method2_K20", 80, 4),
    ("atomistic", 160, 4), ("atomistic", 160, 0), ("ac_method1_K40", 160, 2),
    ("atomistic", 160, 0), ("ac_method2_K40", 160, 4),
]


def _label(model):
    """The sweep's name for a model: "atomistic" or "ac_<variant>_K<K>"."""
    if isinstance(model, AtomisticModel):
        return "atomistic"
    return "ac_%s_K%d" % (model.method.variant, model.method.partition.K)


def test_sweep_newton_iterations_pinned(monkeypatch, tmp_path):
    import acfield.harness

    calls = []
    real = acfield.minimize.minimize

    def recording(model, f, y0):
        r = real(model, f, y0)
        calls.append((_label(model), y0.N, r.iterations, r.n_fallbacks))
        return r

    monkeypatch.setattr(acfield.minimize, "minimize", recording)
    monkeypatch.setattr(acfield.harness, "minimize", recording)
    acfield.harness.run(acfield.harness.ExperimentSpec(
        kind="error-convergence", n_list=(40, 80, 160), out=str(tmp_path)))
    assert [c[:3] for c in calls] == SWEEP_NEWTON_ITERATIONS
    assert all(c[3] == 0 for c in calls)
