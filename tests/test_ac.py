"""Coupled-method tests: energies, forces, stress, consistency, stability.

Frozen reference values come from the pair/closed-form backend at N=20, K=8,
F=1.1 (tau = 7.6e-9), cross-checked during development against the periodic
energy, FD differentiation, and the quadrature stress integrals.
"""

import math

import numpy as np
import pytest

from acfield.ac import (
    AcPartition,
    ac_energy,
    ac_forces,
    ac_hessian,
    consistency_error,
    d_g_method2,
    g_method2,
    method1,
    method2,
    sigma_qc,
    stability_spectrum,
    weak_form_qc,
)
from acfield.cauchy_born import cb_cell_denergy, cb_cell_energy, cb_cell_field, cb_stress, cell_state
from acfield.density import mu, quartic_bump, sextic_bump
from acfield.energy import (
    d_energy_dirichlet_a,
    d_energy_dirichlet_g,
    d_energy_dirichlet_y,
    energy_periodic,
    g_star,
    stress_periodic,
)
from acfield.lattice import ChainConfig, first_diff, homogeneous, positions

PROFILE = quartic_bump()
M = 1.0

E_AC_HOMOG = 0.9534984461677888  # N=20, K=8, F=1.1, method 1


def wiggled_chain(N=20, F=1.1, amp=0.005, seed=3):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-amp, amp, 2 * N + 1)
    u -= u.mean()
    return ChainConfig(N, F, u)


def test_partition_validation():
    with pytest.raises(ValueError):
        AcPartition(0)
    cfg = homogeneous(8, 1.1)
    with pytest.raises(ValueError):
        AcPartition(8).boundaries(cfg)  # needs K < N
    with pytest.raises(ValueError):
        method1(2).partition.boundary_data(cfg, M).with_g(0.0, 0.0)
        ac_energy(cfg, method1(2), PROFILE, M)  # tau = 4e-3 over threshold
    with pytest.raises(ValueError, match="tau"):
        ac_energy(cfg, method1(2), PROFILE, M)
    # configurable threshold lets the same window through
    e = ac_energy(cfg, method1(2), PROFILE, M, tau_threshold=1e-2)
    assert np.isfinite(e)
    with pytest.raises(ValueError):
        from acfield.ac import AcMethod

        AcMethod("method3", AcPartition(2))


def test_homogeneous_identity():
    # the coupled energy reproduces the periodic energy up to O(tau);
    # dropping the outermost full cell would miss by one cell energy
    cfg = homogeneous(20, 1.1)
    e_per = energy_periodic(cfg, PROFILE, M)
    e_ac = ac_energy(cfg, method1(8), PROFILE, M)
    assert abs(e_ac - E_AC_HOMOG) < 1e-13
    assert abs(e_ac - e_per) < 1e-13
    e_cell = float(cb_cell_energy(np.array([1.1]), PROFILE, M, cfg.eps)[0])
    assert abs((e_ac - e_cell) - e_per) > 0.02  # bookkeeping is tight

    # method 2 coincides with method 1 on the homogeneous lattice
    e_ac2 = ac_energy(cfg, method2(8), PROFILE, M)
    assert abs(e_ac2 - e_ac) < 1e-14


def test_degenerate_window_k_eq_n_minus_1():
    cfg = homogeneous(20, 1.1)
    e = ac_energy(cfg, method1(19), PROFILE, M)
    e_per = energy_periodic(cfg, PROFILE, M)
    assert abs(e - e_per) < 1e-13


@pytest.mark.parametrize("stretch", [1.0, 1.2, 1.5])
@pytest.mark.parametrize("make", [method1, method2])
def test_no_ghost_forces(stretch, make):
    cfg = homogeneous(20, stretch)
    meth = make(9)
    tau = meth.partition.tau(cfg, M)
    f = ac_forces(cfg, meth, PROFILE, M)
    assert np.max(np.abs(f)) <= 1e-8 + 10 * tau


@pytest.mark.parametrize("make", [method1, method2])
def test_forces_match_fd(make):
    cfg = wiggled_chain()
    meth = make(8)
    g = ac_forces(cfg, meth, PROFILE, M)
    rng = np.random.default_rng(11)
    for _ in range(4):
        u = rng.standard_normal(cfg.n_atoms)
        u -= u.mean()
        h = 1e-6
        ep = ac_energy(cfg.replace_u(cfg.u + h * u), meth, PROFILE, M)
        em = ac_energy(cfg.replace_u(cfg.u - h * u), meth, PROFILE, M)
        fd = (ep - em) / (2 * h)
        assert abs(fd - float(g @ u)) <= 1e-6 * max(abs(fd), 1e-10)


def test_method2_chain_rule_completeness():
    # forces minus the boundary-data term == assembly at frozen g, and the
    # gap contracted with u is exactly D_g E . (D_y g . u)
    cfg = wiggled_chain()
    meth = method2(8)
    part = meth.partition
    i = cfg.N
    gs = g_method2(cfg, part, PROFILE, M)
    bd = part.boundary_data(cfg, M).with_g(*gs)
    y_at = positions(cfg)[part.atom_indices(cfg)]

    w = np.ones(cfg.n_atoms)
    w[i - part.K + 1 : i + part.K + 1] = 0.0
    w[i - part.K] = w[i + part.K + 1] = 0.5
    vals = w * cb_cell_denergy(first_diff(cfg), PROFILE, M, cfg.eps) / cfg.eps
    frozen = vals - np.roll(vals, -1)
    frozen[part.atom_indices(cfg)] += d_energy_dirichlet_y(y_at, bd, PROFILE)
    d_al, d_ar = d_energy_dirichlet_a(y_at, bd, PROFILE)
    frozen[i - part.K - 1] += 0.5 * d_al
    frozen[i - part.K] += 0.5 * d_al
    frozen[i + part.K] += 0.5 * d_ar
    frozen[i + part.K + 1] += 0.5 * d_ar

    gap = ac_forces(cfg, meth, PROFILE, M) - frozen
    dg_e = d_energy_dirichlet_g(y_at, bd, PROFILE)
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = rng.standard_normal(cfg.n_atoms)
        u -= u.mean()
        dgl, dgr = d_g_method2(cfg, part, PROFILE, M, u)
        lhs = float(gap @ u)
        rhs = dg_e[0] * dgl + dg_e[1] * dgr
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-10)


def test_g_method2_equals_interface_cell_field():
    # closed form == image-sum comparison field evaluated at the wall
    cfg = wiggled_chain()
    part = AcPartition(8)
    a_l, a_r = part.boundaries(cfg)
    g_l, g_r = g_method2(cfg, part, PROFILE, M)
    val_l = cb_cell_field(cell_state(cfg, PROFILE, M, -part.K), np.array([a_l]))[0][0]
    val_r = cb_cell_field(cell_state(cfg, PROFILE, M, part.K + 1), np.array([a_r]))[0][0]
    assert abs(g_l - val_l) < 1e-12
    assert abs(g_r - val_r) < 1e-12


def test_g_method2_matches_g_star_homogeneous():
    cfg = homogeneous(20, 1.1)
    part = AcPartition(8)
    bd = part.boundary_data(cfg, M)
    gs2 = g_method2(cfg, part, PROFILE, M)
    gst = g_star(positions(cfg)[part.atom_indices(cfg)], bd, PROFILE)
    assert abs(gs2[0] - gst[0]) <= 10 * bd.tau + 1e-12
    assert abs(gs2[1] - gst[1]) <= 10 * bd.tau + 1e-12


def test_d_g_method2_fd_and_bound():
    cfg = wiggled_chain()
    part = AcPartition(8)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(cfg.n_atoms)
    u -= u.mean()
    h = 1e-6
    gp = g_method2(cfg.replace_u(cfg.u + h * u), part, PROFILE, M)
    gm = g_method2(cfg.replace_u(cfg.u - h * u), part, PROFILE, M)
    an = d_g_method2(cfg, part, PROFILE, M, u)
    for fd, a in zip(((gp[0] - gm[0]) / (2 * h), (gp[1] - gm[1]) / (2 * h)), an):
        assert abs(fd - a) <= 1e-6 * max(abs(fd), 1e-10)

    # |D_y g_R . u| <= C(s_min) |u'_{K+1}|: the derivative feels only the
    # strain of the interface cell
    s_min = float(np.min(first_diff(cfg)))
    x = math.exp(-M * s_min)
    c_bound = mu(PROFILE, M) * math.sqrt(x) * (1.0 + x) / (2.0 * (1.0 - x) ** 2)
    i = cfg.N
    for c, a in zip((i - part.K, i + part.K + 1), an):
        du = abs(u[c] - u[c - 1]) / cfg.eps
        assert abs(a) <= c_bound * du * (1 + 1e-12)


def test_weak_form_matches_forces():
    cfg = wiggled_chain()
    meth = method1(8)
    f = ac_forces(cfg, meth, PROFILE, M)
    rng = np.random.default_rng(2)
    for _ in range(3):
        u = rng.standard_normal(cfg.n_atoms)
        u -= u.mean()
        wf = weak_form_qc(cfg, meth, u, PROFILE, M)
        an = float(f @ u)
        assert abs(wf - an) <= 1e-7 * max(abs(an), 1e-10)
    with pytest.raises(ValueError):
        weak_form_qc(cfg, method2(8), cfg.u, PROFILE, M)


def test_sigma_qc_continuity_and_limits():
    meth = method1(8)

    # homogeneous: continuous across the right wall
    cfg = homogeneous(20, 1.1)
    a_r = meth.partition.boundaries(cfg)[1]
    lo = sigma_qc(cfg, meth, a_r - 1e-7, PROFILE, M)
    hi = sigma_qc(cfg, meth, a_r + 1e-7, PROFILE, M)
    assert abs(lo - hi) < 1e-10

    # deep inside the window the coupled stress is the periodic stress up to
    # the boundary layer exp(-(m/eps) dist)
    cfgw = wiggled_chain()
    a_l, a_r = meth.partition.boundaries(cfgw)
    sf_per = stress_periodic(cfgw, PROFILE, M)
    for x in (0.0, 0.011, -0.02):
        gap = min(abs(x - a_l), abs(x - a_r))
        err = abs(sigma_qc(cfgw, meth, x, PROFILE, M) - float(sf_per(np.array([x]))[0]))
        assert err <= math.exp(-M * gap / cfgw.eps)

    # continuum region: exactly the cell stress
    y_ext = positions(cfgw, -cfgw.N - 1, cfgw.N)
    xp = float(y_ext[cfgw.N + 13]) + 0.3 * cfgw.eps  # inside cell 13, |j| > K+1
    j = int(np.searchsorted(y_ext, xp)) - 1 - cfgw.N
    assert abs(
        sigma_qc(cfgw, meth, xp, PROFILE, M) - cb_stress(cell_state(cfgw, PROFILE, M, j), xp)
    ) < 1e-12

    with pytest.raises(ValueError):
        sigma_qc(cfgw, meth, float(y_ext[0]) - 0.01, PROFILE, M)
    with pytest.raises(ValueError):
        sigma_qc(cfgw, method2(8), 0.0, PROFILE, M)


def test_consistency_homogeneous():
    cfg = homogeneous(20, 1.1)
    rep = consistency_error(cfg, method1(8), PROFILE, M)
    assert rep["sup_error"] <= rep["tau"] + 1e-12
    assert rep["n_probes"] == cfg.n_atoms + 8


@pytest.mark.parametrize("make", [method1, method2])
def test_consistency_first_order_in_curvature(make):
    # smooth displacement: halving eps should at least halve the error
    sups = []
    for N, K in ((20, 8), (40, 16)):
        jj = np.arange(-N, N + 1)
        u = 0.03 * np.sin(2 * np.pi * jj / (2 * N + 1))
        u -= u.mean()
        cfg = ChainConfig(N, 1.1, u)
        rep = consistency_error(cfg, make(K), PROFILE, M)
        assert rep["sup_error"] <= 0.5 * rep["rhs"]  # fitted C stays below 0.5
        sups.append(rep["sup_error"])
    assert sups[0] / sups[1] >= 2.0


def test_consistency_kink_decays_in_k():
    N = 40
    jj = np.arange(-N, N + 1)
    u = 0.02 * np.exp(-np.abs(jj) / 3.0)
    u -= u.mean()
    cfg = ChainConfig(N, 1.1, u)
    sups = [consistency_error(cfg, method1(K), PROFILE, M)["sup_error"]
            for K in (8, 12, 16, 20)]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] < sups[0] / 10


def test_stability_homogeneous_method1():
    cfg = homogeneous(20, 1.1)
    lam, bound = stability_spectrum(cfg, method1(8), PROFILE, M)
    muv = mu(PROFILE, M)
    assert abs(bound - M * muv**2 / 2.0 * math.exp(-M * 1.1)) < 1e-12
    assert lam >= bound - 1e-6
    assert 0.18 < lam < 0.20  # 0.190140 at development time


def test_stability_method2_interface_softening():
    # method 2's Hessian softens at the interface: lam_min dips below the
    # method-1 value but stays safely positive
    cfg = homogeneous(20, 1.1)
    lam1, bound = stability_spectrum(cfg, method1(8), PROFILE, M)
    lam2, _ = stability_spectrum(cfg, method2(8), PROFILE, M)
    assert lam2 < lam1
    assert lam2 > 0.5 * bound

    cfgw = wiggled_chain()
    lamw1, boundw = stability_spectrum(cfgw, method1(8), PROFILE, M)
    lamw2, _ = stability_spectrum(cfgw, method2(8), PROFILE, M)
    assert lamw1 >= boundw - 1e-6
    assert lamw2 > 0


def test_half_cell_bookkeeping_insensitive_to_k():
    cfg = homogeneous(20, 1.1)
    tau = AcPartition(8).tau(cfg, M)
    e8 = ac_energy(cfg, method1(8), PROFILE, M)
    e9 = ac_energy(cfg, method1(9), PROFILE, M)
    assert abs(e8 - e9) <= 10 * tau + 1e-12

    # interior wiggles, homogeneous strains near both interfaces
    jj = np.arange(-20, 21)
    u = wiggled_chain().u.copy()
    u[np.abs(jj) >= 5] = 0.0
    u -= u.mean()
    cfg2 = ChainConfig(20, 1.1, u)
    d = abs(ac_energy(cfg2, method1(8), PROFILE, M) - ac_energy(cfg2, method1(9), PROFILE, M))
    assert d <= 10 * tau + 1e-12


def _hessian_test_chain(N, K, shape):
    jj = np.arange(-N, N + 1)
    if shape == "smooth":
        rng = np.random.default_rng(0)
        theta = 2 * np.pi * jj / (2 * N + 1)
        u = sum(rng.normal(0.0, 0.02) / k * np.sin(k * theta)
                + rng.normal(0.0, 0.02) / k * np.cos(k * theta) for k in (1, 2, 3))
    else:  # kink centred on atom K, the inner atom of the interface cell K+1
        u = 0.2 * (2.0 / (2 * N + 1)) * np.exp(-np.abs(jj - K) / 1.5)
    return ChainConfig(N, 1.1, u - u.mean())


@pytest.mark.parametrize("shape", ["smooth", "kink"])
@pytest.mark.parametrize("N,K", [(20, 9), (40, 10)])
@pytest.mark.parametrize("bump", [quartic_bump, sextic_bump], ids=["quartic", "sextic"])
@pytest.mark.parametrize("meth", [method1, method2])
def test_ac_hessian_matches_fd(meth, bump, N, K, shape):
    # every row, interface rows included, against central differences of
    # the analytic forces (step 1e-5 eps)
    cfg = _hessian_test_chain(N, K, shape)
    method, profile = meth(K), bump()
    hess = ac_hessian(cfg, method, profile, M)
    h = 1e-5 * cfg.eps
    fd = np.empty_like(hess)
    for p in range(cfg.n_atoms):
        up, um = cfg.u.copy(), cfg.u.copy()
        up[p] += h
        um[p] -= h
        fd[:, p] = (ac_forces(cfg.replace_u(up - up.mean()), method, profile, M)
                    - ac_forces(cfg.replace_u(um - um.mean()), method, profile, M)) / (2 * h)
    rel = np.max(np.abs(hess - fd), axis=1) / np.max(np.abs(hess), axis=1)
    assert np.max(rel) <= 1e-6
    assert np.array_equal(hess, hess.T)
    assert np.max(np.abs(hess.sum(axis=1))) <= 1e-12 * np.max(np.abs(hess))
