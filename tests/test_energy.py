import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfield.density import quartic_bump, mu, self_moment
from acfield.field import (
    BoundaryData,
    eval_green_dirichlet,
    fem_forces,
    fem_relative_budget,
    solve_dirichlet,
    solve_periodic,
)
from acfield.ac import AcPartition, g_method2
from acfield.cauchy_born import cb_stress_function, cell_state
from acfield.lattice import ChainConfig, homogeneous, positions
from acfield.energy import (
    _pair_sum,
    _slab_core,
    _slab_gradient,
    d_energy_dirichlet_a,
    d_energy_dirichlet_g,
    d_energy_dirichlet_y,
    energy_dirichlet,
    energy_periodic,
    forces_periodic,
    g_star,
    gamma_pair,
    mirror_energy,
    self_energy,
    stress_dirichlet,
    stress_periodic,
    weak_form_dirichlet,
    weak_form_periodic,
)

PROF = quartic_bump(0.5)
M = 1.0

# reference values from tests/oracle_energy.py: energies evaluated straight
# from their definitions (E = rho.phi/2, resp. -I(phi)) with the kernel-route
# field and piecewise Gauss quadrature -- no pair-sum algebra involved
E_PER_WIGGLED = 9.594045493000334e-01
E_SLAB_G47 = 6.026110930619046e-01
GAMMA_L_REF = 7.863697899184068e-01
GAMMA_R_REF = 8.606071569492602e-01


def wiggled_chain(N=8, F=1.1, amp=0.02, seed=1):
    rng = np.random.default_rng(seed)
    u = rng.normal(0, amp, 2 * N + 1)
    u -= u.mean()
    return ChainConfig(N, F, u)


def slab_setup(cfg, lo=3, hi=14, g=(0.4, 0.7)):
    y = positions(cfg)[lo:hi]
    a_L = float(y[0]) - 0.55 * cfg.eps
    a_R = float(y[-1]) + 0.55 * cfg.eps
    return y, BoundaryData(a_L, a_R, g[0], g[1], M, cfg.eps)


# ---------------------------------------------------------------------------
# periodic energy and forces
# ---------------------------------------------------------------------------


def test_periodic_energy_pair_matches_quadrature_reference():
    e = energy_periodic(wiggled_chain(), PROF, M)
    assert abs(e - E_PER_WIGGLED) < 1e-13 * abs(E_PER_WIGGLED)


def test_periodic_energy_fem_within_budget():
    cfg = wiggled_chain()
    e_pair = energy_periodic(cfg, PROF, M)
    for md in (8, 16):
        e_fem = 0.5 * solve_periodic(cfg, PROF, M, md).interaction
        assert abs(e_fem - e_pair) < fem_relative_budget(PROF, M, md) * abs(e_pair)


def test_homogeneous_energy_per_atom():
    # equispaced chain: every atom sees two geometric series of images, so
    # E/atom = (mu^2 eps / 2m) x/(1-x) + E_self with x = e^{-m F}
    cfg = homogeneous(6, 1.3)
    muv = mu(PROF, M)
    x = np.exp(-M * cfg.F)
    per_atom = muv**2 * cfg.eps / (2 * M) * x / (1 - x) + self_energy(PROF, M, cfg.eps)
    e = energy_periodic(cfg, PROF, M) / cfg.n_atoms
    assert abs(e - per_atom) < 1e-14 * abs(per_atom)


def test_distant_atoms_reduce_to_self_energy():
    cfg = homogeneous(1, 30.0)  # spacing 20, interactions ~ e^{-20}
    e_per_atom = energy_periodic(cfg, PROF, M) / 3.0
    assert abs(e_per_atom - self_energy(PROF, M, cfg.eps)) < 1e-8 * e_per_atom


def test_self_energy_value():
    eps = 0.25
    assert self_energy(PROF, 1.0, eps) == pytest.approx(
        eps / 4.0 * self_moment(PROF, 1.0), rel=1e-15
    )


def test_periodic_forces_match_fd():
    cfg = wiggled_chain()
    f = forces_periodic(cfg, PROF, M)
    h = 1e-6
    y = positions(cfg)
    for i in (0, 4, 12, 16):
        # perturb one atom directly: energy of the raw position set
        def e_of(shift):
            u2 = cfg.u.copy()
            u2[i] += shift
            # keep the stored offsets mean-zero by absorbing the shift into
            # a global translation, which leaves the energy unchanged
            u2 -= u2.mean()
            return energy_periodic(cfg.replace_u(u2), PROF, M)

        fd = (e_of(h) - e_of(-h)) / (2 * h)
        proj = f[i] - f.mean()  # translation removed => projected gradient
        assert abs(fd - proj) < 1e-8 * np.max(np.abs(f))


def test_periodic_forces_fem_is_exact_discrete_gradient():
    # the mesh never moves with y, so the analytic formula differentiates the
    # discrete energy exactly; FD of the FEM energy must agree to FD noise
    cfg = wiggled_chain()
    f = fem_forces(solve_periodic(cfg, PROF, M, 8), PROF, cfg.eps, positions(cfg))
    h = 1e-5 * cfg.eps
    for i in (0, 5, 16):
        up = cfg.u.copy()
        um = cfg.u.copy()
        up[i] += h
        um[i] -= h
        up -= up.mean()
        um -= um.mean()
        ep = 0.5 * solve_periodic(cfg.replace_u(up), PROF, M, 8).interaction
        em = 0.5 * solve_periodic(cfg.replace_u(um), PROF, M, 8).interaction
        fd = (ep - em) / (2 * h)
        proj = f[i] - f.mean()
        assert abs(fd - proj) < 1e-7 * abs(proj)


def test_periodic_forces_pair_vs_fem():
    cfg = wiggled_chain()
    f_pair = forces_periodic(cfg, PROF, M)
    f_fem = fem_forces(solve_periodic(cfg, PROF, M, 16), PROF, cfg.eps, positions(cfg))
    scale = np.max(np.abs(f_pair))
    assert np.max(np.abs(f_fem - f_pair)) < fem_relative_budget(PROF, M, 16) * scale


def test_periodic_forces_translation_and_mirror_symmetry():
    cfg = wiggled_chain()
    f = forces_periodic(cfg, PROF, M)
    assert abs(f.sum()) < 1e-13 * np.max(np.abs(f))
    # odd displacement field => chain is symmetric under x -> -x, so forces
    # must be antisymmetric in the atom index
    rng = np.random.default_rng(3)
    u = rng.normal(0, 0.02, 2 * cfg.N + 1)
    u = 0.5 * (u - u[::-1])
    fs = forces_periodic(ChainConfig(cfg.N, cfg.F, u), PROF, M)
    assert np.max(np.abs(fs + fs[::-1])) < 1e-13 * np.max(np.abs(fs))


def smooth_chain(N, seed, F=1.1, amp=0.02):
    """Low-mode displacement (modes 1..3, mode k of size amp/k)."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(-N, N + 1) / (2 * N + 1)
    u = sum(rng.normal(0.0, amp) / k * np.sin(k * theta)
            + rng.normal(0.0, amp) / k * np.cos(k * theta) for k in (1, 2, 3))
    return ChainConfig(N, F, u - u.mean())


def longdouble_pair_terms(y, k, shift):
    """Sum of e^{-k|y_j + shift - y_i|} over all i, j (the i = j term
    dropped when shift = 0) and twice its derivative in each row's y_i,
    term by term in np.longdouble, 256 rows at a time.  Over a set of
    shifts closed under negation these add up to S and dS/dy."""
    y = np.asarray(y, dtype=np.longdouble)
    k = np.longdouble(k)
    s = np.longdouble(0.0)
    grad = np.zeros(y.size, dtype=np.longdouble)
    for a in range(0, y.size, 256):
        d = y[None, :] + np.longdouble(shift) - y[a:a + 256, None]
        e = np.exp(-k * np.abs(d))
        if shift == 0:
            rows = np.arange(a, min(a + 256, y.size))
            e[rows - a, rows] = 0.0
        s += np.sum(e)
        grad[a:a + 256] += 2.0 * k * np.sum(np.sign(d) * e, axis=1)
    return s, grad


def longdouble_pair_sums(y, k, L):
    """(free, periodic) references: the free sum is the shift-0 block; the
    periodic one adds images t L for |t| <= T, T the first count whose next
    image, e^{-k((T+1) L - span)}, is below 1e-25."""
    span = float(y[-1] - y[0])
    T = 0
    while math.exp(-k * ((T + 1) * L - span)) >= 1e-25:
        T += 1
    blocks = [longdouble_pair_terms(y, k, t * L) for t in range(-T, T + 1)]
    free = blocks[T]
    periodic = (sum(b[0] for b in blocks), sum(b[1] for b in blocks))
    return free, periodic


@pytest.mark.parametrize("N", [4, 1280])
def test_pair_sums_match_longdouble_brute_force(N):
    # every pair and every image that matters, summed in extended precision;
    # at N = 4 the wrap-around and image terms are O(1)
    cfg = smooth_chain(N, seed=7)
    y, k = positions(cfg), M / cfg.eps
    for period, (s_ref, g_ref) in zip((None, cfg.L), longdouble_pair_sums(y, k, cfg.L)):
        s, g = _pair_sum(y, k, period)
        g_ref = g_ref.astype(float)
        assert abs(s - float(s_ref)) <= 1e-13 * float(s_ref)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


STRAINS = st.integers(1, 8).flatmap(lambda N: st.lists(
    st.floats(PROF.sigma0 + 0.05, 3.0, exclude_min=True, exclude_max=True),
    min_size=2 * N + 1, max_size=2 * N + 1))


@settings(derandomize=True, deadline=None, database=None)
@given(strains=STRAINS, m=st.floats(0.25, 8.0))
def test_pair_sum_properties(strains, m):
    # the chain with these strains, its period closing the last gap; on a
    # uniform chain g vanishes, so gradients are measured against the mean
    # size 2k S/n of the terms that sum to one gradient entry
    s = np.asarray(strains)
    eps = 2.0 / s.size
    y = eps * np.cumsum(s)
    k, L = m / eps, eps * float(np.sum(s))
    for period, (s_ref, g_ref) in zip((None, L), longdouble_pair_sums(y, k, L)):
        s_val, g = _pair_sum(y, k, period)
        scale = 2.0 * k * float(s_ref) / y.size
        assert abs(s_val - float(s_ref)) <= 1e-13 * float(s_ref)
        assert np.max(np.abs(g - g_ref.astype(float))) <= 1e-12 * scale
        assert abs(np.sum(g)) <= 1e-12 * scale * y.size
        _, g_reflected = _pair_sum(-y[::-1], k, period)
        assert np.max(np.abs(g_reflected + g[::-1])) <= 1e-12 * scale


def test_weak_form_periodic_identity():
    # integral sigma_y (interp u)' = DE . u for the exact field
    cfg = wiggled_chain()
    f = forces_periodic(cfg, PROF, M)
    rng = np.random.default_rng(7)
    probes = [rng.normal(0, 1.0, cfg.n_atoms) for _ in range(3)]
    hat = np.zeros(cfg.n_atoms)
    hat[5] = 1.0
    probes.append(hat)
    for u in probes:
        wf = weak_form_periodic(cfg, u, PROF, M)
        dot = float(f @ u)
        assert abs(wf - dot) < 1e-8 * max(abs(dot), 1e-3)


# ---------------------------------------------------------------------------
# slab energy, wall moments, boundary-data calculus
# ---------------------------------------------------------------------------


def test_slab_energy_pair_matches_quadrature_reference():
    y, bd = slab_setup(wiggled_chain())
    e = energy_dirichlet(y, bd, PROF)
    assert abs(e - E_SLAB_G47) < 1e-13 * abs(E_SLAB_G47)


def test_slab_energy_fem_within_budget():
    y, bd = slab_setup(wiggled_chain())
    e_pair = energy_dirichlet(y, bd, PROF)
    for md in (16, 32):
        e_fem = -solve_dirichlet(y, bd, PROF, md).i_value
        assert abs(e_fem - e_pair) < fem_relative_budget(PROF, M, md) * abs(e_pair)


def test_slab_energy_decomposition():
    # splitting the field at the walls into (zero-data part) + (boundary
    # layer) is exact even at the discrete level: the layer is discretely
    # harmonic and the zero-data part vanishes on the boundary, so the two
    # pieces couple only through the load acting on the layer
    y, bd = slab_setup(wiggled_chain())
    full = solve_dirichlet(y, bd, PROF, mesh_density=16)
    e_full = -full.i_value
    e_zero = -solve_dirichlet(y, bd.with_g(0.0, 0.0), PROF, mesh_density=16).i_value
    layer = solve_dirichlet(np.empty(0), bd, PROF, mesh_density=16)
    e_split = e_zero - layer.i_value + float(full.rhs @ layer.values)
    assert abs(e_full - e_split) < 1e-12 * abs(e_full)


def test_gamma_pair_closed_form():
    y, bd = slab_setup(wiggled_chain())
    gam_l, gam_r = gamma_pair(y, bd, PROF)
    assert gam_l == pytest.approx(GAMMA_L_REF, rel=1e-12)
    assert gam_r == pytest.approx(GAMMA_R_REF, rel=1e-12)
    # single atom: gamma is one exponential exactly
    y1 = np.array([0.3])
    bd1 = BoundaryData(0.0, 1.0, 0.0, 0.0, M, 0.1)
    gam_l, gam_r = gamma_pair(y1, bd1, PROF)
    muv = mu(PROF, M)
    assert gam_l == pytest.approx(muv / M * np.exp(-0.3 / 0.1), rel=1e-15)
    assert gam_r == pytest.approx(muv / M * np.exp(-0.7 / 0.1), rel=1e-15)


def test_nan_atom_raises_in_every_slab_route():
    # a NaN position fails the inside-the-slab check itself (NaN compares
    # false), not some later cast or solver
    y = np.array([0.3, np.nan])
    bd = BoundaryData(0.0, 1.0, 0.0, 0.0, 1.0, 0.1)
    for route in (lambda: solve_dirichlet(y, bd, PROF),
                  lambda: eval_green_dirichlet(y, bd, PROF, 0.5),
                  lambda: energy_dirichlet(y, bd, PROF),
                  lambda: d_energy_dirichlet_y(y, bd, PROF)):
        with pytest.raises(ValueError, match="inside the slab"):
            route()


def test_slab_rejects_unsorted_or_overlapping_atoms():
    # the 11 window atoms of a uniform chain; the closed forms hold only for
    # ascending, separated bumps, so a swap (the same physical charge, which
    # used to give 0.2847 instead of 0.2190) and an overlap must raise
    y, bd = AcPartition(5).window(homogeneous(20, 1.1), M)
    assert energy_dirichlet(y, bd, PROF) == pytest.approx(0.2190060002686028, rel=1e-14)
    w = PROF.half_width * bd.eps
    swapped, overlapping, touching = y.copy(), y.copy(), y.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    overlapping[4] = overlapping[3] + 1.5 * w
    touching[4] = touching[3] + 2.0 * w
    for bad in (swapped, overlapping, touching):
        for route in (energy_dirichlet, d_energy_dirichlet_y, solve_dirichlet):
            with pytest.raises(ValueError, match="ascend with separated bumps"):
                route(bad, bd, PROF)


def _slab_derivatives_per_piece(y, bd):
    """(D_y E, D_a E, D_g E) as three separate closed forms, each with its
    own gamma_pair, `_slab_core` and wall sums (full exp): the route that
    `_slab_gradient` folds into one pass."""
    k = bd.m / bd.eps
    muv = mu(PROF, bd.m)
    core = _slab_core(*gamma_pair(y, bd, PROF), bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    _, grad = _pair_sum(y, k)
    pair_grad = bd.eps * muv**2 / (4.0 * bd.m) * grad
    dgl_dy = -(muv / bd.m) * k * np.exp(-k * (y - bd.a_L))
    dgr_dy = (muv / bd.m) * k * np.exp(-k * (bd.a_R - y))
    d_y = pair_grad + core[1] * dgl_dy + core[2] * dgr_dy

    gam_l, gam_r = gamma_pair(y, bd, PROF)
    core = _slab_core(gam_l, gam_r, bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    d_al = core[1] * (k * gam_l) + core[3] * (k * bd.tau)
    d_ar = core[2] * (-k * gam_r) + core[3] * (-k * bd.tau)

    core = _slab_core(*gamma_pair(y, bd, PROF), bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    return d_y, (float(d_al), float(d_ar)), np.array([core[4], core[5]])


@pytest.mark.parametrize("N", [40, 1280])
@pytest.mark.parametrize("variant", ["method1", "method2"])
def test_slab_gradient_matches_per_piece_formulas(variant, N):
    # a smooth random chain, the coupling's window at K = N/4 and its
    # boundary data: the one-pass derivatives equal the three separate
    # closed forms bit for bit
    rng = np.random.default_rng(N)
    theta = 2.0 * np.pi * np.arange(-N, N + 1) / (2 * N + 1)
    u = sum(rng.normal(0.0, 0.02) / k * np.sin(k * theta) for k in (1, 2, 3))
    cfg = ChainConfig(N, 1.1, u - u.mean())
    part = AcPartition(N // 4)
    y, bd0 = part.window(cfg, M)
    g = g_star(y, bd0, PROF) if variant == "method1" else g_method2(cfg, part, PROF, M)
    bd = bd0.with_g(*g)
    d_y, d_a, d_g = _slab_gradient(y, bd, PROF)
    ref_y, ref_a, ref_g = _slab_derivatives_per_piece(y, bd)
    assert np.array_equal(d_y, ref_y)
    assert d_a == ref_a
    assert np.array_equal(d_g, ref_g)
    # the public routes are selections from it
    assert np.array_equal(d_energy_dirichlet_y(y, bd, PROF), ref_y)
    assert d_energy_dirichlet_a(y, bd, PROF) == ref_a
    assert np.array_equal(d_energy_dirichlet_g(y, bd, PROF), ref_g)


def test_slab_forces_pair_match_fd():
    y, bd = slab_setup(wiggled_chain())
    f = d_energy_dirichlet_y(y, bd, PROF)
    h = 1e-6
    for i in (0, 5, 10):
        yp, ym = y.copy(), y.copy()
        yp[i] += h
        ym[i] -= h
        fd = (
            energy_dirichlet(yp, bd, PROF)
            - energy_dirichlet(ym, bd, PROF)
        ) / (2 * h)
        assert abs(fd - f[i]) < 1e-7 * max(abs(f[i]), 1e-3)


def test_slab_forces_fem_routes():
    y, bd = slab_setup(wiggled_chain())
    f_pair = d_energy_dirichlet_y(y, bd, PROF)
    f_fem = fem_forces(solve_dirichlet(y, bd, PROF, 16), PROF, bd.eps, y)
    scale = np.max(np.abs(f_pair))
    assert np.max(np.abs(f_fem - f_pair)) < fem_relative_budget(PROF, M, 16) * scale
    # discrete exactness on a coarse mesh
    f8 = fem_forces(solve_dirichlet(y, bd, PROF, 8), PROF, bd.eps, y)
    h = 1e-6
    i = 4
    yp, ym = y.copy(), y.copy()
    yp[i] += h
    ym[i] -= h
    fd = (
        solve_dirichlet(ym, bd, PROF, 8).i_value - solve_dirichlet(yp, bd, PROF, 8).i_value
    ) / (2 * h)
    assert abs(fd - f8[i]) < 1e-7 * abs(f8[i])


def test_wall_derivatives_routes_agree_and_match_fd():
    y, bd = slab_setup(wiggled_chain())
    d_pair = d_energy_dirichlet_a(y, bd, PROF)
    # reference: the window average of the stress next to each wall
    sf = stress_dirichlet(y, bd, PROF)
    d_green = (-sf.integral(bd.a_L, float(y[0]), 32) / (float(y[0]) - bd.a_L),
               sf.integral(float(y[-1]), bd.a_R, 32) / (bd.a_R - float(y[-1])))
    for dp, dg in zip(d_pair, d_green):
        assert abs(dp - dg) < 1e-9 * max(abs(dp), 1e-6)
    h = 1e-6

    def e_at(a_l, a_r):
        bd2 = BoundaryData(a_l, a_r, bd.g_L, bd.g_R, M, bd.eps)
        return energy_dirichlet(y, bd2, PROF)

    fd_l = (e_at(bd.a_L + h, bd.a_R) - e_at(bd.a_L - h, bd.a_R)) / (2 * h)
    fd_r = (e_at(bd.a_L, bd.a_R + h) - e_at(bd.a_L, bd.a_R - h)) / (2 * h)
    assert abs(fd_l - d_pair[0]) < 1e-6 * max(abs(d_pair[0]), 1e-4)
    assert abs(fd_r - d_pair[1]) < 1e-7 * abs(d_pair[1])


def test_boundary_data_gradient():
    y, bd = slab_setup(wiggled_chain())
    dg = d_energy_dirichlet_g(y, bd, PROF)
    h = 1e-6
    for i, (dl, dr) in enumerate(((h, 0.0), (0.0, h))):
        ep = energy_dirichlet(y, bd.with_g(bd.g_L + dl, bd.g_R + dr), PROF)
        em = energy_dirichlet(y, bd.with_g(bd.g_L - dl, bd.g_R - dr), PROF)
        assert abs((ep - em) / (2 * h) - dg[i]) < 1e-7 * abs(dg[i])


def test_g_star_is_stationary():
    y, bd = slab_setup(wiggled_chain())
    gs = g_star(y, bd, PROF)
    dg = d_energy_dirichlet_g(y, bd.with_g(*gs), PROF)
    scale = M * bd.eps * max(abs(gs[0]), abs(gs[1]))
    assert np.max(np.abs(dg)) < 1e-14 * scale
    # the energy -I(phi) is concave in g (the layer contributes -I(xi), a
    # negative quadratic), so g* is the unique maximum over boundary data
    e_star = energy_dirichlet(y, bd.with_g(*gs), PROF)
    for dl, dr in ((0.05, 0.0), (0.0, -0.05), (0.03, 0.03)):
        e = energy_dirichlet(y, bd.with_g(gs[0] + dl, gs[1] + dr), PROF)
        assert e < e_star


def test_boundary_gradient_linear_model():
    # D_g E = m eps (g* - g) up to O(tau) mixing between the walls
    y, bd = slab_setup(wiggled_chain())
    gs = np.array(g_star(y, bd, PROF))
    g = np.array([bd.g_L, bd.g_R])
    dg = d_energy_dirichlet_g(y, bd, PROF)
    model = M * bd.eps * (gs - g)
    err = np.max(np.abs(dg - model))
    tol = M * bd.eps * (5.0 * bd.tau * np.max(np.abs(gs - g)) + 1e-13)
    assert err < tol


def test_mirror_energy_equals_stationary_energy():
    y, bd = slab_setup(wiggled_chain())
    gs = g_star(y, bd, PROF)
    e_star = energy_dirichlet(y, bd.with_g(*gs), PROF)
    e_mir = mirror_energy(y, bd, PROF)
    assert abs(e_mir - e_star) < 1e-13 * abs(e_star)
    e_fem = -solve_dirichlet(y, bd.with_g(*gs), PROF, 16).i_value
    assert abs(e_mir - e_fem) < fem_relative_budget(PROF, M, 16) * abs(e_fem)


def test_wall_image_cross_term_sign():
    # with the walls pulled in close (tau ~ 6e-3) a dense FEM solve can tell
    # the sign of the cross-wall image term in the mirror energy: flipping it
    # misses the true energy by ~2e-3 relative, 27x the FEM error budget
    eps = 0.1
    y = eps * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    bd = BoundaryData(float(y[0]) - 0.55 * eps, float(y[-1]) + 0.55 * eps, 0.0, 0.0, M, eps)
    gs = g_star(y, bd, PROF)
    bd = bd.with_g(*gs)
    assert bd.tau > 5e-3  # the regime where the sign is visible

    e_mir = mirror_energy(y, bd, PROF)
    e_fem = -solve_dirichlet(y, bd, PROF, 64).i_value
    budget = fem_relative_budget(PROF, M, 64)
    assert abs(e_mir - e_fem) < budget * abs(e_fem)

    gam_l, gam_r = gamma_pair(y, bd, PROF)
    tau = bd.tau
    cross = 2.0 * (M * eps / 4.0) * (tau / (1 - tau * tau)) * (
        tau * (gam_l**2 + gam_r**2) + 2.0 * gam_l * gam_r
    )
    e_flipped = e_mir - cross
    assert abs(e_flipped - e_fem) > 10.0 * budget * abs(e_fem)


# ---------------------------------------------------------------------------
# stress identities
# ---------------------------------------------------------------------------


def test_weak_form_dirichlet_identity():
    y, bd = slab_setup(wiggled_chain())
    f = d_energy_dirichlet_y(y, bd, PROF)
    rng = np.random.default_rng(11)
    for _ in range(2):
        u = rng.normal(0, 1.0, y.size)
        wf = weak_form_dirichlet(y, bd, PROF, u)
        dot = float(f @ u)
        assert abs(wf - dot) < 1e-8 * max(abs(dot), 1e-3)


def test_stretch_identity():
    # stretching one wall while dragging the atoms affinely samples the mean
    # stress: (d/da_R + sum_j Theta_R(y_j) d/dy_j) E = mean(sigma), and the
    # left-wall version is exactly its negative
    y, bd = slab_setup(wiggled_chain())
    f = d_energy_dirichlet_y(y, bd, PROF)
    d_al, d_ar = d_energy_dirichlet_a(y, bd, PROF)
    sf = stress_dirichlet(y, bd, PROF)
    mean_sigma = sf.integral(bd.a_L, bd.a_R) / bd.width
    th_r = (y - bd.a_L) / bd.width
    th_l = (bd.a_R - y) / bd.width
    lhs_r = d_ar + float(f @ th_r)
    lhs_l = d_al + float(f @ th_l)
    assert abs(lhs_r - mean_sigma) < 1e-8 * abs(mean_sigma)
    assert abs(lhs_l + mean_sigma) < 1e-8 * abs(mean_sigma)


def test_combined_interpolant_identity():
    # moving walls and atoms together: D_a E . h + D_y E . u equals the
    # stress paired with the gradient of the full interpolant through
    # (a_L, h_L), (y_j, u_j), (a_R, h_R)
    y, bd = slab_setup(wiggled_chain())
    f = d_energy_dirichlet_y(y, bd, PROF)
    d_al, d_ar = d_energy_dirichlet_a(y, bd, PROF)
    sf = stress_dirichlet(y, bd, PROF)
    rng = np.random.default_rng(13)
    u = rng.normal(0, 1.0, y.size)
    h_l, h_r = 0.37, -0.54
    nodes = np.concatenate([[bd.a_L], y, [bd.a_R]])
    vals = np.concatenate([[h_l], u, [h_r]])
    acc = 0.0
    for j in range(1, nodes.size):
        du = vals[j] - vals[j - 1]
        acc += du / (nodes[j] - nodes[j - 1]) * sf.integral(
            float(nodes[j - 1]), float(nodes[j])
        )
    lhs = d_al * h_l + d_ar * h_r + float(f @ u)
    assert abs(lhs - acc) < 1e-8 * abs(acc)


def test_stress_parts():
    y, bd = slab_setup(wiggled_chain())
    sf = stress_dirichlet(y, bd, PROF)
    # sigma_2 is supported inside the bumps only
    w = PROF.half_width * bd.eps
    mid = 0.5 * (y[3] + y[4])  # a gap midpoint, outside both bumps
    assert sf.sigma2(np.array([mid]))[0] == 0.0
    assert sf.sigma2(np.array([float(y[3]) + 0.4 * w]))[0] != 0.0
    # sigma_1 recomputed from scratch at a few points
    from acfield.field import eval_green_dirichlet

    xs = np.array([mid, float(y[3]) + 0.3 * w, bd.a_L + 0.25 * bd.eps])
    v, g = eval_green_dirichlet(y, bd, PROF, xs)
    d = xs[:, None] - y[None, :]
    d = np.where(np.abs(d) < w, d, w)
    rho = bd.eps * np.sum(PROF.delta1(d / bd.eps) / bd.eps, axis=1)
    expect = 0.5 * bd.eps**2 * g**2 - 0.5 * M**2 * v**2 + rho * v
    assert np.max(np.abs(sf.sigma1(xs) - expect)) < 1e-14 * np.max(np.abs(expect))


def _loop_breakpoints(sf, a, b):
    """Per-atom, per-edge, per-image loop: the reference for
    `StressFunction._breakpoints`."""
    pts = [a, b]
    for c in sf.atoms:
        for e in (c - sf.w, c + sf.w):
            if sf.L is None:
                if a < e < b:
                    pts.append(e)
                continue
            for n in range(math.floor((a - e) / sf.L), math.ceil((b - e) / sf.L) + 1):
                if a < e + n * sf.L < b:
                    pts.append(e + n * sf.L)
    return np.unique(np.asarray(pts, dtype=float))


def test_breakpoints_match_edge_loop():
    # the same points bit for bit: every interval between neighbours (and
    # some spanning several periods) of the chain, its cells and a slab
    cfg = wiggled_chain()
    y = positions(cfg, -cfg.N - 1, cfg.N)
    y_at, bd = slab_setup(cfg)
    cases = [(stress_periodic(cfg, PROF, M), np.concatenate([y, [y[0] + 2.5 * cfg.L]])),
             (stress_dirichlet(y_at, bd, PROF), np.concatenate([[bd.a_L], y_at, [bd.a_R]]))]
    for j in (-cfg.N, -2, 0, 5, cfg.N):
        cell = cell_state(cfg, PROF, M, j)
        cases.append((cb_stress_function(cell),
                      cell.anchor + cell.spacing * np.array([-4.0, -1.0, -0.3, 0.0, 2.0])))
    for sf, nodes in cases:
        for a, b in zip(nodes[:-1], nodes[1:]):
            assert np.array_equal(sf._breakpoints(a, b), _loop_breakpoints(sf, a, b))
        assert np.array_equal(sf._breakpoints(nodes[0], nodes[-1]),
                              _loop_breakpoints(sf, nodes[0], nodes[-1]))
