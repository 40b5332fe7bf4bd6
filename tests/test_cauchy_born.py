import tracemalloc

import numpy as np
import pytest

from acfield.density import gauss_on_interval, quartic_bump, mu, sextic_bump
from acfield.field import _ChainSums, _kernel_field, eval_green_periodic
from acfield.lattice import ChainConfig, first_diff, homogeneous, positions, second_diff
from acfield.energy import self_energy
from acfield.cauchy_born import (
    CellState,
    cb_cell_d2energy,
    cb_cell_denergy,
    cb_cell_energy,
    cb_cell_field,
    cb_cell_fields,
    cb_forces,
    cb_hessian_structured,
    cb_total_energy,
    cell_state,
    comparison_field_bound,
)
from oracle_stress import cb_stress_function, stress_periodic

PROF = quartic_bump(0.5)
M = 1.0

# cell energy at strain 1.2, eps 0.2, computed as (1/2) integral rho psi over
# one period of the comparison chain (Gauss quadrature against the image-sum
# field; see the quadrature helper below)
E_CELL_12 = 8.849414570650699e-02

# observed Lipschitz constant of the stress mismatch against the field
# mismatch, max over the fitted configurations below (both routes are
# closed-form, so no mesh enters); asserted with headroom as C_STRESS
C_STRESS_OBSERVED = 2.58
C_STRESS = 4.0


def wiggled_chain(N=8, F=1.1, amp=0.02, seed=1):
    rng = np.random.default_rng(seed)
    u = rng.normal(0, amp, 2 * N + 1)
    u -= u.mean()
    return ChainConfig(N, F, u)


def sine_chain(N=8, F=1.1, c=0.05):
    jj = np.arange(-N, N + 1)
    u = c * np.sin(2 * np.pi * jj / (2 * N + 1))
    u -= u.mean()
    return ChainConfig(N, F, u)


def half_cell_quadrature(cell):
    """(1/2) integral rho psi over one period, split at the bump center."""
    w = PROF.half_width * cell.eps
    acc = 0.0
    for lo, hi in ((cell.anchor - w, cell.anchor), (cell.anchor, cell.anchor + w)):
        z, wq = gauss_on_interval(lo, hi, 48)
        dens = PROF.delta1((z - cell.anchor) / cell.eps) / cell.eps
        acc += 0.5 * float(np.sum(wq * cell.eps * dens * cb_cell_field(cell, z)[0]))
    return acc


def test_cell_energy_matches_field_quadrature():
    assert cb_cell_energy(1.2, PROF, M, 0.2) == pytest.approx(E_CELL_12, rel=1e-12)
    for s in (1.2, 2.0):
        c = CellState(s, 0.3, PROF, M, 0.2)
        assert half_cell_quadrature(c) == pytest.approx(
            cb_cell_energy(s, PROF, M, 0.2), rel=1e-12)
    with pytest.raises(TypeError):  # a cell holds no energy: it is cb_cell_energy(strain)
        CellState(1.2, 0.3, PROF, M, 0.2, energy=5.0)


def test_cell_energy_isolated_atom_limit():
    e_inf = self_energy(PROF, M, 0.2)
    assert abs(cb_cell_energy(50.0, PROF, M, 0.2) - e_inf) < 1e-20 + 1e-15 * e_inf


def test_cell_energy_monotone_convex():
    s = np.linspace(0.7, 4.0, 12)
    d1 = cb_cell_denergy(s, PROF, M, 0.2)
    d2 = cb_cell_d2energy(s, PROF, M, 0.2)
    assert np.all(d1 < 0)
    assert np.all(d2 > 0)
    # the closed-form derivatives really differentiate the closed-form energy
    h = 1e-5
    fd1 = (cb_cell_energy(s + h, PROF, M, 0.2) - cb_cell_energy(s - h, PROF, M, 0.2)) / (2 * h)
    assert np.max(np.abs(fd1 - d1) / np.abs(d1)) < 1e-8
    h2 = 1e-4  # second difference: larger step keeps roundoff below truncation
    fd2 = (
        cb_cell_energy(s + h2, PROF, M, 0.2)
        - 2 * cb_cell_energy(s, PROF, M, 0.2)
        + cb_cell_energy(s - h2, PROF, M, 0.2)
    ) / h2**2
    assert np.max(np.abs(fd2 - d2) / np.abs(d2)) < 1e-5


def test_cell_state_construction():
    cfg = wiggled_chain()
    cell = cell_state(cfg, PROF, M, -2)
    y = positions(cfg)
    s = first_diff(cfg)
    assert cell.anchor == y[cfg.N - 2]
    assert cell.strain == s[cfg.N - 2]
    assert cell.spacing == cfg.eps * cell.strain
    with pytest.raises(ValueError):
        cell_state(cfg, PROF, M, cfg.N + 1)
    with pytest.raises(ValueError):
        CellState(0.3, 0.0, PROF, M, 0.2)  # overlapping comparison bumps


def test_cell_field_matches_periodic_on_homogeneous():
    # the equidistant ring of 2N+1 atoms *is* the infinite comparison chain
    cfg = homogeneous(6, 1.2)
    cell = cell_state(cfg, PROF, M, 0)
    xs = np.linspace(-0.9, 0.9, 41)
    v_cb, g_cb = cb_cell_field(cell, xs)
    v_p, g_p = eval_green_periodic(cfg, PROF, M, xs)
    assert np.max(np.abs(v_cb - v_p)) < 1e-13 * np.max(np.abs(v_p))
    assert np.max(np.abs(g_cb - g_p)) < 1e-12 * np.max(np.abs(g_p))


def test_cell_field_periodicity():
    cell = CellState(1.7, 0.4, PROF, M, 0.15)
    xs = np.linspace(-0.4, 0.9, 37)
    v1, g1 = cb_cell_field(cell, xs)
    v2, g2 = cb_cell_field(cell, xs + cell.spacing)
    assert np.max(np.abs(v1 - v2)) < 1e-13 * np.max(np.abs(v1))
    assert np.max(np.abs(g1 - g2)) < 1e-12 * np.max(np.abs(g1))


@pytest.mark.parametrize("prof", [quartic_bump(0.5), sextic_bump(0.5)], ids=["quartic", "sextic"])
@pytest.mark.parametrize("N", [8, 40])
def test_cell_fields_match_one_kernel_field_per_cell(N, prof):
    # every cell's comparison field from one batch call against the periodic
    # kernel sum of its one atom, period eps y'_j; points at both cell ends,
    # in the bump and between bumps, and the same shifted by +-L_j, +-3 L_j
    eps = 2.0 / (2 * N + 1)
    rng = np.random.default_rng(N)
    u = rng.normal(0.0, 0.1 * eps, 2 * N + 1)
    cfg = ChainConfig(N, 1.1, u - u.mean())
    y = positions(cfg, -N - 1, N)
    spacing = eps * first_diff(cfg)
    w = prof.half_width * eps
    base = np.stack([y[:-1], y[1:]], axis=1)  # the cell's two atoms
    base = np.concatenate([base, y[1:, None] + w * np.array([-0.9, -0.3, 0.3, 0.9]),
                           0.5 * (y[:-1] + y[1:])[:, None]], axis=1)
    xs = np.concatenate([base + f * spacing[:, None] for f in (0, -1, 1, -3, 3)], axis=1)
    val, grad = cb_cell_fields(cfg, prof, M, xs)
    ref = [_kernel_field(_ChainSums([y[i + 1]], M / eps, spacing[i]), prof, M, eps, xs[i])
           for i in range(cfg.n_atoms)]
    ref_v, ref_g = np.array([r[0] for r in ref]), np.array([r[1] for r in ref])
    assert val.shape == grad.shape == xs.shape
    assert np.max(np.abs(val - ref_v)) <= 1e-13 * np.max(np.abs(ref_v))
    assert np.max(np.abs(grad - ref_g)) <= 1e-13 * np.max(np.abs(ref_g))


def test_cell_field_wide_cell_midpoint():
    # at the midpoint of a wide cell only the two neighbouring bumps matter;
    # the remaining images contribute exactly the geometric factor q/(1-q)
    s = 3.0
    cell = CellState(s, 0.0, PROF, M, 0.2)
    mid = cell.anchor - cell.spacing / 2
    v, _ = cb_cell_field(cell, np.array([mid]))
    muv = mu(PROF, M)
    two_bumps = muv / M * np.exp(-M * s / 2)
    q = np.exp(-M * s)
    assert abs(v[0] - two_bumps) / two_bumps == pytest.approx(q / (1 - q), rel=1e-12)


def test_cb_stress_homogeneous_equals_periodic():
    cfg = homogeneous(6, 1.2)
    cell = cell_state(cfg, PROF, M, 0)
    y = positions(cfg)
    xs = np.linspace(float(y[5]), float(y[6]), 23)
    s_cb = cb_stress_function(cell)(xs)
    s_p = stress_periodic(cfg, PROF, M)(xs)
    assert np.max(np.abs(s_cb - s_p)) < 1e-12 * np.max(np.abs(s_p))


def test_cb_stress_cell_integral_is_strain_derivative():
    # weak form of one cell: integral_Q sigma^cb = s e'(s); checked against
    # both the closed-form derivative and an FD oracle on the cell energy
    for s, anchor, eps in ((1.3, 0.0, 0.15), (2.2, 5.7, 0.15)):
        cell = CellState(s, anchor, PROF, M, eps)
        val = cb_stress_function(cell).integral(anchor - cell.spacing, anchor)
        assert val == pytest.approx(s * cb_cell_denergy(s, PROF, M, eps), rel=1e-12)
        h = 1e-6
        fd = (cb_cell_energy(s + h, PROF, M, eps) - cb_cell_energy(s - h, PROF, M, eps)) / (2 * h)
        assert val == pytest.approx(s * fd, rel=1e-8)


def test_cb_stress_integral_depends_only_on_strain():
    a = CellState(1.3, 0.0, PROF, M, 0.15)
    b = CellState(1.3, 5.7, PROF, M, 0.15)
    ia = cb_stress_function(a).integral(a.anchor - a.spacing, a.anchor)
    ib = cb_stress_function(b).integral(b.anchor - b.spacing, b.anchor)
    assert ia == pytest.approx(ib, rel=1e-12)


def test_cb_total_energy_and_forces():
    cfg = homogeneous(5, 1.4)
    assert cb_total_energy(cfg, PROF, M) == pytest.approx(
        cfg.n_atoms * cb_cell_energy(1.4, PROF, M, cfg.eps), rel=1e-14
    )
    assert np.max(np.abs(cb_forces(cfg, PROF, M))) < 1e-14

    cfgw = wiggled_chain()
    f = cb_forces(cfgw, PROF, M)
    h = 1e-6
    for i in (0, 7, 16):
        up, um = cfgw.u.copy(), cfgw.u.copy()
        up[i] += h
        um[i] -= h
        up -= up.mean()
        um -= um.mean()
        fd = (
            cb_total_energy(cfgw.replace_u(up), PROF, M)
            - cb_total_energy(cfgw.replace_u(um), PROF, M)
        ) / (2 * h)
        assert abs(fd - (f[i] - f.mean())) < 1e-8 * np.max(np.abs(f))


def test_cb_energy_jensen():
    # e is strictly convex, so non-uniform strains cost energy
    cfg = wiggled_chain()
    mean_strain = float(np.mean(first_diff(cfg)))
    floor = cfg.n_atoms * cb_cell_energy(mean_strain, PROF, M, cfg.eps)
    assert cb_total_energy(cfg, PROF, M) > floor


def _convexity_floor(cfg, m):
    """(m mu^2 / 2) e^{-m max y'}: the uniform convexity floor, the bound
    that `ac.stability_spectrum` returns."""
    return m * mu(PROF, m) ** 2 / 2.0 * np.exp(-m * float(np.max(first_diff(cfg))))


def test_hessian_floor_report():
    # e''(s) >= (m mu^2 eps / 2) e^{-m s} puts every cell's curvature at or
    # above eps times the floor, so the second variation
    # D^2 E^cb[u, u] = sum_j e''(y'_j) (u'_j)^2 is at least
    # floor * eps * sum_j (u'_j)^2
    cfg = wiggled_chain()
    u = np.random.default_rng(5).normal(0, 1.0, cfg.n_atoms)
    du = (u - np.roll(u, 1)) / cfg.eps
    for m in (M, 2.0):
        e2 = cb_cell_d2energy(first_diff(cfg), PROF, m, cfg.eps)
        floor = _convexity_floor(cfg, m)
        assert np.min(e2 / (floor * cfg.eps)) > 1.0
        quad_form = float(np.sum(e2 * du**2))
        assert quad_form >= floor * cfg.eps * float(np.sum(du**2)) > 0.0
        hess = cb_hessian_structured(cfg, PROF, m).dense()
        assert float(u @ hess @ u) == pytest.approx(quad_form, rel=1e-12)


def test_hessian_floor_tightness_at_large_strain():
    # dropping all but the nearest-neighbour term leaves ratio - 1 ~ 4 e^{-ms}
    cfg = homogeneous(4, 3.5)
    e2 = cb_cell_d2energy(first_diff(cfg), PROF, M, cfg.eps)
    ratio = float(np.min(e2 / (_convexity_floor(cfg, M) * cfg.eps)))
    x = np.exp(-M * 3.5)
    assert 0.9 * 4 * x < ratio - 1.0 < 1.3 * 4 * x


def test_field_convergence_bound():
    cfg = sine_chain()
    y = positions(cfg, -cfg.N - 1, cfg.N)
    for j in (-8, -3, 0, 4, 8):
        cell = cell_state(cfg, PROF, M, j)
        xs = np.linspace(y[j + cfg.N], y[j + cfg.N + 1], 12)
        vp, gp = eval_green_periodic(cfg, PROF, M, xs)
        vc, gc = cb_cell_field(cell, xs)
        bv = comparison_field_bound(cfg, PROF, M, j)
        bg = M * bv
        assert bv > 0 and bg > 0
        assert np.max(np.abs(vp - vc)) <= bv * (1 + 1e-10)
        assert cfg.eps * np.max(np.abs(gp - gc)) <= bg * (1 + 1e-10)


def test_stress_consistency_fitted_constant():
    # |sigma_y - sigma^cb| <= C (eps |grad(phi-psi)| + |phi-psi|) per cell;
    # C fitted once (C_STRESS_OBSERVED), asserted with headroom; both routes
    # are closed-form so no mesh resolution enters
    def worst_ratio(cfg, m):
        y = positions(cfg, -cfg.N - 1, cfg.N)
        sf_p = stress_periodic(cfg, PROF, m)
        worst = 0.0
        for j in (-cfg.N, -2, 1, 5, cfg.N):
            cell = cell_state(cfg, PROF, m, j)
            xs = np.linspace(y[j + cfg.N], y[j + cfg.N + 1], 16)
            vp, gp = eval_green_periodic(cfg, PROF, m, xs)
            vc, gc = cb_cell_field(cell, xs)
            num = np.max(np.abs(sf_p(xs) - cb_stress_function(cell)(xs)))
            den = cfg.eps * np.max(np.abs(gp - gc)) + np.max(np.abs(vp - vc))
            if den > 0:
                worst = max(worst, num / den)
        return worst

    rng = np.random.default_rng(4)
    u = rng.normal(0, 0.005, 25)
    u -= u.mean()
    configs = [
        (sine_chain(), M),
        (sine_chain(), 2.0),
        (ChainConfig(12, 1.1, u), M),
    ]
    observed = max(worst_ratio(cfg, m) for cfg, m in configs)
    assert observed <= C_STRESS_OBSERVED * 1.05  # drift guard on the fit
    assert observed <= C_STRESS


def test_field_sup_norms_saturate_with_n():
    # fixed smooth strain profile, growing N: |phi|_inf and eps |phi'|_inf
    # approach limits, successive increments shrinking
    vals, grads = [], []
    for N in (4, 8, 16, 32):
        jj = np.arange(-N, N + 1)
        s_prof = 1.1 * (1 + 0.1 * np.sin(2 * np.pi * jj / (2 * N + 1)))
        eps = 2.0 / (2 * N + 1)
        yy = np.cumsum(s_prof) * eps
        u = yy - 1.1 * eps * (jj + N + 1)
        u -= u.mean()
        cfg = ChainConfig(N, 1.1, u)
        xs = np.linspace(-1, 1, 801)
        v, g = eval_green_periodic(cfg, PROF, M, xs)
        vals.append(np.max(np.abs(v)))
        grads.append(eps * np.max(np.abs(g)))
    dv = np.abs(np.diff(vals))
    dg = np.abs(np.diff(grads))
    assert np.all(np.diff(dv) < 0) and np.all(np.diff(dg) < 0)
    assert (max(vals) - min(vals)) < 0.05 * vals[-1]
    assert (max(grads) - min(grads)) < 0.10 * grads[-1]


def _field_bound_loop(cfg, profile, m, j):
    """The bound window by window, truncated once a crude estimate of the
    remainder drops below 1e-19: the reference for the closed form."""
    ypp = np.abs(second_diff(cfg))
    n_at = cfg.n_atoms
    smin = float(np.min(first_diff(cfg)))
    total, n = 0.0, 1
    while True:
        decay = np.exp(-m * n * smin)
        if n > 1 and n * decay * float(np.sum(ypp)) * (n / n_at + 1) < 1e-19:
            break
        idx = (np.arange(j - n, j + n) + cfg.N) % n_at
        total += float(np.sum(ypp[idx])) * n * decay
        n += 1
    return mu(profile, m) * cfg.eps * total


@pytest.mark.parametrize("N, F, s_min", [
    (4, 1.1, None),     # windows wrap the 9 atoms many times
    (20, 0.8, 0.517),   # near contact: min y' = sigma0 + 0.017
    (20, 2.0, None),
])
def test_comparison_field_bound_matches_window_loop(N, F, s_min):
    jj = np.arange(-N, N + 1)
    u = np.sin(2 * np.pi * jj / (2 * N + 1)) + 0.3 * np.cos(6 * np.pi * jj / (2 * N + 1))
    u -= u.mean()
    eps = 2.0 / (2 * N + 1)
    du = np.diff(np.append(u[-1], u)) / eps
    if s_min is None:
        u *= 0.1 * F / np.max(np.abs(du))
    else:
        u *= (F - s_min) / -np.min(du)
    cfg = ChainConfig(N, F, u)
    if s_min is not None:
        assert float(np.min(first_diff(cfg))) == pytest.approx(s_min, rel=1e-12)
    scalar = []
    for j in range(-N, N + 1):
        ref = _field_bound_loop(cfg, PROF, M, j)
        scalar.append(comparison_field_bound(cfg, PROF, M, j))
        assert isinstance(scalar[-1], float)
        assert abs(scalar[-1] - ref) <= 1e-14 * ref
    # every cell at once: the same numbers, bit for bit
    assert np.array_equal(comparison_field_bound(cfg, PROF, M, jj), scalar)


def test_comparison_field_bound_rejects_overlapping_bumps():
    # strain 0.4 below sigma0 = 0.5
    with pytest.raises(ValueError, match="overlap"):
        comparison_field_bound(homogeneous(20, 0.4), PROF, M, 0)
    # a crossed chain: one cell at strain -0.33
    eps = 2.0 / 41
    u = np.zeros(41)
    u[20] = 1.33 * eps
    cfg = ChainConfig(20, 1.0, u - u.mean())
    assert abs(float(np.min(first_diff(cfg))) + 0.33) < 1e-12
    with pytest.raises(ValueError, match="overlap"):
        comparison_field_bound(cfg, PROF, M, 0)


def test_cell_index_is_checked():
    # a cell index outside -N..N, or one that is not an integer, is not
    # wrapped round the period or passed to numpy's indexing: it raises,
    # alone or as one entry of an array
    cfg = wiggled_chain()
    N = cfg.N
    for bad in (N + 1, -N - 1, 100, 2.5, np.float64(2.0)):
        for j in (bad, np.array([0, bad, 1])):
            with pytest.raises(ValueError, match="cell index out of range"):
                comparison_field_bound(cfg, PROF, M, j)
        with pytest.raises(ValueError, match="cell index out of range"):
            cell_state(cfg, PROF, M, bad)
    ends = comparison_field_bound(cfg, PROF, M, np.array([-N, N], dtype=np.int64))
    assert list(ends) == [comparison_field_bound(cfg, PROF, M, j) for j in (-N, N)]


def test_comparison_field_bound_all_cells_in_blocks():
    # every cell of N = 640 in one call: the (cells x (2N+1)) tables would
    # take 26 MB at once; in blocks of rows the peak stays small and each
    # row sum, hence each cell's bound, keeps its bits
    N = 640
    jj = np.arange(-N, N + 1)
    u = 0.05 * np.sin(2 * np.pi * jj / (2 * N + 1)) + 0.02 * np.cos(6 * np.pi * jj / (2 * N + 1))
    cfg = ChainConfig(N, 1.1, u - u.mean())
    scalar = [comparison_field_bound(cfg, PROF, M, j) for j in jj]
    tracemalloc.start()
    try:
        every = comparison_field_bound(cfg, PROF, M, jj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(every, scalar)
    assert peak <= 8 * 2**20, peak
