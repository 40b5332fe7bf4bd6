"""Coupled-method tests: energies, forces, stress, consistency, stability.

Frozen reference values come from the pair/closed-form backend at N=20, K=8,
F=1.1 (tau = 7.6e-9), cross-checked during development against the periodic
energy, FD differentiation, and the quadrature stress integrals.
"""

import math
import sys

import numpy as np
import pytest

import acfield.ac
import acfield.cauchy_born
import acfield.energy
import acfield.field
from acfield.ac import (
    AcPartition,
    _fourier_basis,
    _interface_strain_dgamma,
    ac_energy,
    ac_forces,
    ac_hessian_structured,
    consistency_error,
    g_method2,
    method1,
    method2,
    stability_spectrum,
)
from acfield.cauchy_born import (
    cb_cell_denergy,
    cb_cell_energy,
    cb_cell_field,
    cb_forces,
    cb_hessian_structured,
    cb_total_energy,
    cell_state,
)
from acfield.density import mu, quartic_bump, sextic_bump
from acfield.energy import (
    d_energy_dirichlet_a,
    d_energy_dirichlet_g,
    d_energy_dirichlet_y,
    energy_dirichlet,
    energy_periodic,
    forces_periodic,
    g_star,
    hessian_periodic_structured,
)
from acfield.field import eval_green_periodic
from acfield.lattice import ChainConfig, first_diff, homogeneous, positions
from acfield.minimize import AcModel, AtomisticModel, CauchyBornModel
from oracle_stress import (
    cb_stress_function,
    sigma_qc,
    stress_periodic,
    weak_form_dirichlet,
    weak_form_periodic,
    weak_form_qc,
)

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
    # K is read as N is: an integer (a float 9.0 raised IndexError inside
    # `positions`, a string TypeError), and a ValueError names K
    cfg = wiggled_chain()
    for bad in (9.0, "9", None, 0.5, -1):
        with pytest.raises(ValueError, match="half-width K must be an integer >= 1, got %r"
                           % (bad,)):
            ac_energy(cfg, method1(bad), PROFILE, M)
    assert AcPartition(np.int64(9)).K == 9 and type(AcPartition(np.int64(9)).K) is int
    cfg = homogeneous(8, 1.1)
    with pytest.raises(ValueError):
        AcPartition(8).boundaries(cfg)  # needs K < N
    # the one K < N check, in interface_cells, guards method 2's cell data too
    with pytest.raises(ValueError, match="partition needs K < N"):
        g_method2(cfg, AcPartition(8), PROFILE, M)
    with pytest.raises(ValueError, match="tau"):
        ac_energy(cfg, method1(2), PROFILE, M)  # tau = 4e-3 over threshold
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


def _d_g_method2(cfg, part, u):
    """D_y g . u of method 2's boundary data: g_L depends only on the strain
    of cell -K (g_R: of cell K+1), so each is dgamma/ds at that strain
    times the strain of u across the cell."""
    strains = first_diff(cfg)
    return tuple(_interface_strain_dgamma(PROFILE, M, float(strains[c])) * (u[c] - u[c - 1])
                 / cfg.eps for c in part.interface_cells(cfg))


def test_method2_chain_rule_completeness():
    # forces minus the boundary-data term == assembly at frozen g, and the
    # gap contracted with u is exactly D_g E . (D_y g . u)
    cfg = wiggled_chain()
    meth = method2(8)
    part = meth.partition
    i = cfg.N
    gs = g_method2(cfg, part, PROFILE, M)
    bd = part.boundary_data(cfg, M).with_g(*gs)
    y_at = part.window(cfg, M)[0]

    w = np.ones(cfg.n_atoms)
    w[i - part.K + 1 : i + part.K + 1] = 0.0
    w[i - part.K] = w[i + part.K + 1] = 0.5
    vals = w * cb_cell_denergy(first_diff(cfg), PROFILE, M, cfg.eps) / cfg.eps
    frozen = vals - np.roll(vals, -1)
    frozen[np.arange(*part.interface_cells(cfg))] += d_energy_dirichlet_y(y_at, bd, PROFILE)
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
        dgl, dgr = _d_g_method2(cfg, part, u)
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
    gst = g_star(part.window(cfg, M)[0], bd, PROFILE)
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
    an = _d_g_method2(cfg, part, u)
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

    # continuum region: exactly the cell stress, in every cell Q_j =
    # (y_{j-1}, y_j] outside the window and in both half cells up to their wall
    y_ext = positions(cfgw, -cfgw.N - 1, cfgw.N)
    j_l, j_r = (c - cfgw.N for c in meth.partition.interface_cells(cfgw))
    for j in [*range(-cfgw.N, j_l + 1), *range(j_r, cfgw.N + 1)]:
        lo, hi = y_ext[j + cfgw.N], y_ext[j + cfgw.N + 1]
        lo, hi = (a_r, hi) if j == j_r else (lo, a_l) if j == j_l else (lo, hi)
        xs = lo + (hi - lo) * np.array([0.05, 0.3, 0.5, 0.8, 1.0])
        if j == j_r:
            xs = np.append(xs, a_r)
        ref = cb_stress_function(cell_state(cfgw, PROFILE, M, j))(xs)
        assert np.max(np.abs(sigma_qc(cfgw, meth, xs, PROFILE, M) - ref)) < 1e-12

    for x in (float(y_ext[0]) - 0.01, float(y_ext[0]), math.nan, math.inf):
        with pytest.raises(ValueError, match="outside the periodic window"):
            sigma_qc(cfgw, meth, np.array([0.0, x]), PROFILE, M)
    with pytest.raises(ValueError):
        sigma_qc(cfgw, method2(8), 0.0, PROFILE, M)


def test_reflection_symmetry():
    # reflecting the chain, y_j -> -y_{-j}, is u -> -u[::-1]: both couplings
    # keep their energy and reflect their forces, method 1's stress is even,
    # sigma_qc(ref, -x) = sigma_qc(cfg, x), and its weak form pairs the
    # reflected displacement -v[::-1] to the same value
    cfg = wiggled_chain()
    ref = cfg.replace_u(-cfg.u[::-1])
    for make in (method1, method2):
        meth = make(8)
        energy = ac_energy(cfg, meth, PROFILE, M)
        assert abs(ac_energy(ref, meth, PROFILE, M) - energy) <= 1e-14 * abs(energy)
        f = ac_forces(cfg, meth, PROFILE, M)
        f_ref = ac_forces(ref, meth, PROFILE, M)
        assert np.max(np.abs(f_ref + f[::-1])) <= 1e-14 * np.max(np.abs(f))

    meth = method1(8)
    y = positions(cfg)
    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.uniform(y[0], y[-1], 400), meth.partition.boundaries(cfg)])
    sigma = sigma_qc(cfg, meth, xs, PROFILE, M)
    assert np.max(np.abs(sigma_qc(ref, meth, -xs, PROFILE, M) - sigma)) \
        <= 1e-14 * np.max(np.abs(sigma))
    # the weak form cancels: measure it against its pairing's terms |f| . |v|
    f = ac_forces(cfg, meth, PROFILE, M)
    for _ in range(3):
        v = rng.standard_normal(cfg.n_atoms)
        wf = weak_form_qc(cfg, meth, v, PROFILE, M)
        assert abs(weak_form_qc(ref, meth, -v[::-1], PROFILE, M) - wf) \
            <= 1e-14 * (np.abs(f) @ np.abs(v))


def test_u_of_the_wrong_length_raises():
    # a displacement must hold one value per node: the weak forms name the
    # length they expect
    cfg = wiggled_chain()
    n = cfg.n_atoms
    y_at, bd = AcPartition(8).window(cfg, M)
    for k in (1, -1):
        bad = np.zeros(n + k)
        for route in (lambda u: weak_form_qc(cfg, method1(8), u, PROFILE, M),
                      lambda u: weak_form_periodic(cfg, u, PROFILE, M)):
            with pytest.raises(ValueError, match="u must hold %d nodal values" % n):
                route(bad)
        with pytest.raises(ValueError, match="u must hold %d nodal values" % y_at.size):
            weak_form_dirichlet(y_at, bd, PROFILE, np.zeros(y_at.size + k))
    with pytest.raises(ValueError, match="u must hold %d nodal values" % n):
        weak_form_qc(cfg, method1(8), np.zeros((n, 1)), PROFILE, M)


def test_non_finite_u_raises():
    # every route that takes nodal displacements reads them through
    # `oracle_stress._nodal_values`: a NaN or infinite entry raises where the
    # weak forms returned NaN
    cfg = wiggled_chain()
    n = cfg.n_atoms
    y_at, bd = AcPartition(8).window(cfg, M)
    routes = [(n, lambda u: weak_form_qc(cfg, method1(8), u, PROFILE, M)),
              (n, lambda u: weak_form_periodic(cfg, u, PROFILE, M)),
              (y_at.size, lambda u: weak_form_dirichlet(y_at, bd, PROFILE, u))]
    for size, route in routes:
        for bad in (math.nan, math.inf, -math.inf):
            u = np.zeros(size)
            u[size // 2] = bad
            with pytest.raises(ValueError, match="u must hold finite nodal values"):
                route(u)


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


def _consistency_sup_loop(cfg, method, n_smooth=8, seed=0):
    """The probe sup of `consistency_error` one probe at a time: (sup, count)."""
    n = cfg.n_atoms
    strains = first_diff(cfg)
    diff = forces_periodic(cfg, PROFILE, M) - ac_forces(cfg, method, PROFILE, M)
    rng = np.random.default_rng(seed)
    probes = list(np.eye(n))
    jj = np.arange(-cfg.N, cfg.N + 1)
    for _ in range(n_smooth):
        k = rng.integers(1, 4)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.5, 1.5)
        probes.append(amp * np.sin(2 * np.pi * k * jj / n + phase))
    sup = 0.0
    for u in probes:
        u = u - u.mean()
        du = u - np.roll(u, 1)
        h1 = math.sqrt(float(np.sum(du**2 / (cfg.eps * strains))))
        if h1 >= 1e-14:
            sup = max(sup, abs(float(diff @ u)) / h1)
    return sup, len(probes)


@pytest.mark.parametrize("make", [method1, method2])
def test_consistency_probe_matrix_matches_probe_loop(make):
    cfg = wiggled_chain()
    for seed in (0, 5):
        rep = consistency_error(cfg, make(8), PROFILE, M, seed=seed)
        sup, count = _consistency_sup_loop(cfg, make(8), seed=seed)
        assert rep["n_probes"] == count
        assert abs(rep["sup_error"] - sup) <= 1e-14 * sup


@pytest.mark.parametrize("N", [2, 3, 41, 321])
def test_mean_zero_basis_is_orthonormal(N):
    # the real Fourier basis of a chain of n = 2N+1 atoms: orthonormal,
    # mean-zero, and it diagonalizes the periodic second difference D^T D
    n = 2 * N + 1
    q, lam = _fourier_basis(n)
    assert q.shape == (n, n - 1)
    assert np.max(np.abs(q.T @ q - np.eye(n - 1))) <= 1e-14
    assert np.max(np.abs(np.ones(n) @ q)) <= 1e-14
    d = np.eye(n) - np.roll(np.eye(n), 1, axis=1)
    assert np.max(np.abs(q.T @ (d.T @ d) @ q - np.diag(lam))) <= 1e-13


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
    hess = ac_hessian_structured(cfg, method, profile, M).dense()
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


def _smooth_chain(N, seed):
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(-N, N + 1) / (2 * N + 1)
    u = sum(rng.normal(0.0, 0.02) / k * np.sin(k * theta) for k in (1, 2, 3))
    return ChainConfig(N, 1.1, u - u.mean())


def _coupled_by_public_pieces(cfg, method):
    """(energy, forces) of the coupling composed from the public slab
    routes: the weighted Cauchy-Born cells, then `energy_dirichlet` and
    the `d_energy_dirichlet_*` derivatives at the coupling's boundary data
    (g_star or g_method2), each with its own slab check and wall sums."""
    part = method.partition
    K, i, eps = part.K, cfg.N, cfg.eps
    y, bd0 = part.window(cfg, M)
    if method.variant == "method1":
        g = g_star(y, bd0, PROFILE)
    else:
        g = g_method2(cfg, part, PROFILE, M)
    bd = bd0.with_g(*g)
    strains = first_diff(cfg)
    w = np.ones(cfg.n_atoms)
    w[i - K + 1 : i + K + 1] = 0.0
    w[i - K] = w[i + K + 1] = 0.5
    energy = float(np.sum(w * cb_cell_energy(strains, PROFILE, M, eps)))
    energy += energy_dirichlet(y, bd, PROFILE)

    vals = w * cb_cell_denergy(strains, PROFILE, M, eps) / eps
    forces = vals - np.roll(vals, -1)
    forces[np.arange(*part.interface_cells(cfg))] += d_energy_dirichlet_y(y, bd, PROFILE)
    d_al, d_ar = d_energy_dirichlet_a(y, bd, PROFILE)
    forces[i - K - 1] += 0.5 * d_al
    forces[i - K] += 0.5 * d_al
    forces[i + K] += 0.5 * d_ar
    forces[i + K + 1] += 0.5 * d_ar
    if method.variant == "method2":
        dg_e = d_energy_dirichlet_g(y, bd, PROFILE)
        for j, c in enumerate((i - K, i + K + 1)):
            dg = _interface_strain_dgamma(PROFILE, M, float(strains[c])) / eps
            forces[c] += dg_e[j] * dg
            forces[c - 1] -= dg_e[j] * dg
    return energy, forces


@pytest.mark.parametrize("N", [40, 1280])
@pytest.mark.parametrize("make", [method1, method2])
def test_coupling_equals_public_composition_bitwise(make, N):
    # the coupled energy and forces share one wall pass between the
    # boundary data and the slab; the per-piece public route recomputes it
    # for every piece, and both give the same bits
    cfg = _smooth_chain(N, seed=N)
    method = make(N // 4)
    energy, forces = _coupled_by_public_pieces(cfg, method)
    assert ac_energy(cfg, method, PROFILE, M) == energy
    assert np.array_equal(ac_forces(cfg, method, PROFILE, M), forces)


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name: it is patched wherever an acfield
    module or a test oracle (`oracle_stress`) binds it, so a route that
    imported it by name is counted too."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith(("acfield", "oracle_"))
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("make", [method1, method2])
def test_one_slab_check_per_coupled_call(make, monkeypatch):
    # energy and forces on one configuration share the window's wall pass,
    # so its slab check runs once; a new configuration checks its own
    calls = _count_calls(monkeypatch, acfield.field, "_check_inside_slab")
    cfg, method = wiggled_chain(), make(8)
    ac_energy(cfg, method, PROFILE, M)
    assert len(calls) == 1
    ac_forces(cfg, method, PROFILE, M)
    assert len(calls) == 1
    other = wiggled_chain(seed=4)
    ac_energy(other, method, PROFILE, M)
    ac_forces(other, method, PROFILE, M)
    assert len(calls) == 2


def test_one_scan_per_chain_and_side(monkeypatch):
    # the four models of the evaluate benchmark on one configuration: the
    # periodic chain and the coupled window are each scanned once per side
    # (4 scans), and both couplings share one wall pass
    scans = _count_calls(monkeypatch, acfield.field, "_right_sums")
    walls = _count_calls(monkeypatch, acfield.field, "_walls")
    models = (AtomisticModel(PROFILE, M), CauchyBornModel(PROFILE, M),
              AcModel(method1(10), PROFILE, M), AcModel(method2(10), PROFILE, M))
    cfg = _smooth_chain(40, seed=1)
    for model in models:
        model.energy(cfg)
        model.gradient(cfg)
    assert (len(scans), len(walls)) == (4, 1)

    # the atomistic energy, gradient and Hessian of a Newton step: 2 scans
    del scans[:]
    cfg = _smooth_chain(40, seed=2)
    models[0].energy(cfg)
    models[0].gradient(cfg)
    models[0].hessian_structured(cfg)
    assert len(scans) == 2


def test_cell_terms_and_boundary_data_once_per_configuration(monkeypatch):
    # the Cauchy-Born model and both couplings read one configuration's
    # cell terms e(y'_j) and e'(y'_j), and method 2's energy and forces one
    # cell-problem solve, next to the 4 scans and 1 wall pass
    counts = [_count_calls(monkeypatch, acfield.cauchy_born, "cb_cell_energy"),
              _count_calls(monkeypatch, acfield.cauchy_born, "cb_cell_denergy"),
              _count_calls(monkeypatch, acfield.ac, "g_method2"),
              _count_calls(monkeypatch, acfield.field, "_right_sums"),
              _count_calls(monkeypatch, acfield.field, "_walls")]
    models = (AtomisticModel(PROFILE, M), CauchyBornModel(PROFILE, M),
              AcModel(method1(10), PROFILE, M), AcModel(method2(10), PROFILE, M))
    cfg = _smooth_chain(40, seed=1)
    for model in models:
        model.energy(cfg)
        model.gradient(cfg)
    assert [len(c) for c in counts] == [1, 1, 1, 4, 1]


def test_one_field_call_per_weak_form(monkeypatch):
    # the periodic weak form gathers the Gauss points of every piece between
    # nodes and bump edges and evaluates the field once over all of them
    calls = _count_calls(monkeypatch, acfield.field, "eval_green_periodic")
    cfg = _smooth_chain(160, seed=1)
    u = np.random.default_rng(0).standard_normal(cfg.n_atoms)
    weak_form_periodic(cfg, u, PROFILE, M)
    assert len(calls) == 1


def test_one_field_call_per_coupled_stress_route(monkeypatch):
    # sigma^qc is one StressFunction of the chain: the coupled weak form and
    # a stress sweep over the period each make one slab field call and one
    # comparison-field batch, one row per point (cell by cell, the weak form
    # made 241 comparison-field calls here)
    cells = _count_calls(monkeypatch, acfield.field, "_cell_fields")
    slab = _count_calls(monkeypatch, acfield.field, "eval_green_dirichlet")
    cfg, method = _smooth_chain(160, seed=1), method1(40)
    u = np.random.default_rng(0).standard_normal(cfg.n_atoms)
    weak_form_qc(cfg, method, u, PROFILE, M)
    assert (len(cells), len(slab)) == (1, 1)
    y = positions(cfg, -cfg.N - 1, cfg.N)
    sigma_qc(cfg, method, np.linspace(y[0], y[-1], 2001)[1:], PROFILE, M)
    assert (len(cells), len(slab)) == (2, 2)


def _kept_routes(profile, m, K):
    """Every public route that reads scans kept for its configuration, as
    functions of the configuration; Hessians as dense arrays."""
    xs = np.linspace(-1.0, 1.0, 7)
    routes = [lambda c: energy_periodic(c, profile, m),
              lambda c: forces_periodic(c, profile, m),
              lambda c: hessian_periodic_structured(c, profile, m).dense(),
              lambda c: eval_green_periodic(c, profile, m, xs),
              lambda c: cb_total_energy(c, profile, m),
              lambda c: cb_forces(c, profile, m),
              lambda c: cb_hessian_structured(c, profile, m).dense()]
    # the methods alternate, so each reads the window record the other made
    for route in (ac_energy, ac_forces, lambda *a: ac_hessian_structured(*a).dense()):
        for method in (method1(K), method2(K)):
            routes.append(lambda c, f=route, meth=method: f(c, meth, profile, m))
    routes += [lambda c: sigma_qc(c, method1(K), xs, profile, m),
               lambda c: weak_form_qc(c, method1(K), np.sin(np.arange(c.n_atoms)), profile, m)]
    return routes


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def test_kept_scans_never_go_stale():
    # warm calls: two configurations of equal N and F alternating, then one
    # configuration at two m, two windows and both profiles; each result
    # has the bits of a cold call on a fresh copy of its configuration
    cfg_a, cfg_b = wiggled_chain(seed=3), wiggled_chain(seed=4)
    warm = []
    routes = _kept_routes(PROFILE, M, 8)
    for route in routes:
        for cfg in (cfg_a, cfg_b, cfg_a, cfg_b):
            warm.append((cfg, route, route(cfg)))
    for cfg in (cfg_a, cfg_b, cfg_a):
        warm += [(cfg, route, route(cfg)) for route in routes]
    for profile in (PROFILE, sextic_bump()):
        for m in (M, 1.5):
            for K in (8, 12):
                warm += [(cfg_a, route, route(cfg_a)) for route in _kept_routes(profile, m, K)]
    for cfg, route, value in warm:
        assert _bits(value) == _bits(route(cfg.replace_u(cfg.u)))


def test_kept_scans_are_read_only():
    cfg, method = wiggled_chain(), method1(8)
    forces_periodic(cfg, PROFILE, M)
    ac_energy(cfg, method, PROFILE, M)
    ac_forces(cfg, method, PROFILE, M)
    sums = acfield.field._periodic_sums(cfg, M)
    win = acfield.ac._window(cfg, method.partition, PROFILE, M)
    cells = acfield.cauchy_born._cell_terms(cfg, PROFILE, M)
    for kept in (sums.right, sums.left, win.walls[0], win.walls[1], win.sums.right,
                 win.sums.left, win.y_at, win.weights, cells.energy, cells.denergy):
        with pytest.raises(ValueError):
            kept[0] = 0.0
