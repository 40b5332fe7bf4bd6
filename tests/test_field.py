import math

import numpy as np
import pytest

from acfield.density import gauss_on_interval, grad_delta_eps, mu, quartic_bump, sextic_bump
from acfield.field import (
    BoundaryData,
    _bump_kernel_quad,
    _kernel_field,
    _right_sums,
    eval_green_dirichlet,
    eval_green_periodic,
    fem_forces,
    fem_relative_budget,
    field_lipschitz_check,
    green_dirichlet,
    solve_dirichlet,
    solve_periodic,
    xi_closed_form,
)
from acfield.lattice import ChainConfig, homogeneous, positions

PROF = quartic_bump(0.5)
M = 1.0


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


def test_constant_rho_hook():
    cfg = wiggled_chain()
    f = solve_periodic(cfg, PROF, 2.0, constant_rho=3.0)
    assert np.max(np.abs(f.values - 3.0 / 4.0)) < 1e-12


def test_periodic_load_conserves_charge_across_the_window_edge():
    # atom -N's bump overhangs the window edge -F, so part of its load wraps
    # onto the last nodes; the load still sums to the charge eps (2N+1) = 2
    N = 20
    u = np.zeros(2 * N + 1)
    u[0] = -0.5 * 2.0 / (2 * N + 1)
    cfg = ChainConfig(N, 1.1, u - u.mean())
    assert positions(cfg)[0] - PROF.half_width * cfg.eps < -cfg.F
    for md in (8, 16):
        b = solve_periodic(cfg, PROF, M, md).rhs
        assert abs(b.sum() - 2.0) <= 1e-13 * 2.0


def _loop_load_and_forces(profile, eps, centers, f):
    """Per-atom, per-element loops over the bump pieces: the reference for
    the vectorized load assembly and `fem_forces`."""
    w = profile.half_width * eps
    t, gw = gauss_on_interval(0.0, 1.0, 2 * profile.power + 4)
    n = f.n_nodes
    b, forces = np.zeros(n), np.zeros(len(centers))
    for j, c in enumerate(centers):
        if f.kind == "periodic":
            c = f.x0 + (c - f.x0) % f.L
        for i in range(math.floor((c - w - f.x0) / f.h),
                       math.floor((c + w - f.x0) / f.h - 1e-15) + 1):
            e0 = f.x0 + i * f.h
            lo, hi = max(e0, c - w), min(e0 + f.h, c + w)
            if hi <= lo:
                continue
            z, wq = lo + (hi - lo) * t, (hi - lo) * gw
            na, nb = (i % n, (i + 1) % n) if f.kind == "periodic" else (i, i + 1)
            left, right = (e0 + f.h - z) / f.h, (z - e0) / f.h
            dens = profile.delta1((z - c) / eps)
            b[na] += np.sum(wq * dens * left)
            b[nb] += np.sum(wq * dens * right)
            phi = f.values[na] * left + f.values[nb] * right
            forces[j] -= eps * np.sum(wq * grad_delta_eps(profile, eps, z - c) * phi)
    return b, forces


@pytest.mark.parametrize("prof", [PROF, sextic_bump(0.5)], ids=["quartic", "sextic"])
@pytest.mark.parametrize("N", [20, 80])
def test_piece_routine_matches_per_atom_loops(prof, N):
    # the vectorized pieces sum in another order: load to 1e-15 of max|b|,
    # forces to 1e-11 of max|f| (an FEM force is a cancelling sum of pieces)
    eps = 2.0 / (2 * N + 1)
    rng = np.random.default_rng(N)
    u = rng.normal(0.0, 0.05 * eps, 2 * N + 1)
    u[0] = -0.5 * eps  # atom -N overhangs the window edge
    cfg = ChainConfig(N, 1.1, u - u.mean())
    y = positions(cfg)
    slab = y[N // 2:-N // 2]
    bd = BoundaryData(float(slab[0]) - 0.55 * eps, float(slab[-1]) + 0.55 * eps,
                      0.3, 0.5, M, eps)
    for f, centers in ((solve_periodic(cfg, prof, M, 8), y),
                       (solve_dirichlet(slab, bd, prof, 8), slab)):
        b_ref, f_ref = _loop_load_and_forces(prof, eps, centers, f)
        assert np.max(np.abs(f.rhs - b_ref)) <= 1e-15 * np.max(np.abs(b_ref))
        forces = fem_forces(f, prof, eps, centers)
        assert np.max(np.abs(forces - f_ref)) <= 1e-11 * np.max(np.abs(f_ref))


def test_periodic_fem_within_budget_of_kernel_oracle():
    cfg = wiggled_chain()
    f = solve_periodic(cfg, PROF, M, mesh_density=16)
    assert f.residual_rel <= 1e-12
    xs = np.linspace(-1.0, 1.0, 101)
    ref, _ = eval_green_periodic(cfg, PROF, M, xs)
    err = np.max(np.abs(f.value(xs) - ref)) / np.max(np.abs(ref))
    assert err <= fem_relative_budget(PROF, M, 16)


def test_periodic_mesh_halving_rate():
    cfg = wiggled_chain()
    xs = np.linspace(-1.0, 1.0, 201)
    ref, _ = eval_green_periodic(cfg, PROF, M, xs)
    errs = [
        np.max(np.abs(solve_periodic(cfg, PROF, M, mesh_density=md).value(xs) - ref))
        for md in (16, 32, 64)
    ]
    rate = 0.5 * np.log2(errs[0] / errs[2])
    assert rate >= 1.8


def test_periodic_field_positive_and_lattice_periodic():
    cfg = homogeneous(8, 1.1)
    f = solve_periodic(cfg, PROF, M)
    assert np.min(f.values) >= 0.0
    # on the homogeneous chain the field inherits the eps*F lattice period;
    # the mesh is commensurate, so this holds to solver precision
    n_pc = f.n_nodes // cfg.n_atoms
    shifted = np.roll(f.values, -n_pc)
    assert np.max(np.abs(shifted - f.values)) < 1e-11 * np.max(f.values)
    # kernel route, arbitrary points
    xs = np.linspace(-0.9, 0.9, 17)
    v1, _ = eval_green_periodic(cfg, PROF, M, xs)
    v2, _ = eval_green_periodic(cfg, PROF, M, xs + cfg.eps * cfg.F)
    assert np.allclose(v1, v2, rtol=1e-12)


def test_field_value_periodic_wrap_and_grad():
    cfg = wiggled_chain()
    f = solve_periodic(cfg, PROF, M)
    xs = np.linspace(-1.0, 1.0, 23)
    assert np.allclose(f.value(xs), f.value(xs + cfg.L), rtol=0, atol=1e-13)
    assert np.allclose(f.value(xs), f.value(xs - 2 * cfg.L), rtol=0, atol=1e-13)
    # gradient is the slope of the linear interpolant inside one element
    x0 = 0.3 + 0.25 * f.h
    fd = (f.value(x0 + 0.2 * f.h) - f.value(x0)) / (0.2 * f.h)
    assert f.grad(x0 + 0.1 * f.h) == pytest.approx(fd, rel=1e-9)


def test_discrete_energy_identity_periodic():
    # I(phi_h) = -(1/2) integral rho phi_h at the Galerkin solution
    cfg = wiggled_chain()
    f = solve_periodic(cfg, PROF, M)
    assert f.i_value == pytest.approx(-0.5 * f.interaction, rel=1e-10)


def test_green_periodic_against_brute_image_sum():
    # independent oracle: truncated image sum with explicit quadrature per image
    from acfield.density import gauss_on_interval

    cfg = wiggled_chain(N=3, F=1.1)
    eps, L = cfg.eps, cfg.L
    y = positions(cfg)
    xs = np.array([-0.37, 0.0, 0.11, float(y[2]), float(y[4]) + 0.3 * eps])
    w = PROF.half_width * eps
    n_img = 30
    val_ref = np.zeros_like(xs)
    for ix, x in enumerate(xs):
        acc = 0.0
        for j in range(y.size):
            for n in range(-n_img, n_img + 1):
                c = y[j] + n * L
                # split at the kernel kink only when it lies inside the support
                segs = ((c - w, x), (x, c + w)) if abs(x - c) < w else ((c - w, c + w),)
                for a, b in segs:
                    z, wq = gauss_on_interval(a, b, 24)
                    acc += np.sum(
                        wq * PROF.delta1((z - c) / eps) / eps * np.exp(-(M / eps) * np.abs(x - z))
                    )
        val_ref[ix] = acc / (2.0 * M)
    val, _ = eval_green_periodic(cfg, PROF, M, xs)
    assert np.allclose(val, val_ref, rtol=1e-13)


def _long_double_image_sum(cfg, m, x):
    """Periodic field (value, gradient) at x in np.longdouble: every atom's
    offset reduced to its nearest image (exact in long double), all images
    as two geometric series, and the image whose bump contains x swapped for
    `_bump_kernel_quad` at that offset."""
    ld = np.longdouble
    eps, L, y = ld(cfg.eps), ld(cfg.L), positions(cfg)
    k = ld(m) / eps
    d = x.astype(ld)[:, None] - y.astype(ld)[None, :]
    d -= L * np.round(d / L)
    a = np.abs(d)
    geo = 1 / -np.expm1(-k * L)
    near, far = np.exp(-k * a), np.exp(-k * (L - a))
    own = np.where(a < ld(PROF.half_width * cfg.eps), near, 0)
    c = ld(mu(PROF, m)) / 2
    val = c / ld(m) * np.sum(geo * (near + far) - own, axis=1)
    grad = -c / eps * np.sum(np.sign(d) * (geo * (near - far) - own), axis=1)
    ii, jj = np.nonzero(own)
    qv, qg = _bump_kernel_quad(PROF, m, cfg.eps, np.zeros(ii.size), d[ii, jj].astype(float))
    val[ii] += qv
    grad[ii] += qg
    return val, grad


@pytest.mark.parametrize("N, v_tol, g_tol", [(80, 2e-15, 1e-14), (320, 2e-13, 2e-12)])
def test_green_periodic_against_long_double_image_sum(N, v_tol, g_tol):
    # 800 nodes of the density-64 FEM mesh, the first and last included:
    # atom -N's bump overhangs the window edge -F, so node 0 lies inside a
    # bump at the edge of the period; errors as fractions of max|v|, max|g|
    eps = 2.0 / (2 * N + 1)
    rng = np.random.default_rng(N)
    u = rng.normal(0.0, 0.05 * eps, 2 * N + 1)
    u[0] = -0.5 * eps
    cfg = ChainConfig(N, 1.1, u - u.mean())
    n = cfg.n_atoms * math.ceil(64 * cfg.F / PROF.sigma0)
    idx = np.unique(np.r_[0, 1, n - 2, n - 1, rng.choice(n, 796, replace=False)])
    x = -cfg.F + cfg.L / n * idx
    ref_v, ref_g = _long_double_image_sum(cfg, M, x)
    in_bump = np.min(np.abs(x[:, None] - positions(cfg)), axis=1) < PROF.half_width * eps
    assert 200 < np.count_nonzero(in_bump) < 600
    val, grad = eval_green_periodic(cfg, PROF, M, x)
    assert np.max(np.abs(val - ref_v)) <= v_tol * np.max(np.abs(ref_v))
    assert np.max(np.abs(grad - ref_g)) <= g_tol * np.max(np.abs(ref_g))


def _right_sums_long_double(y, k, L):
    """F_i = x_i (1 + F_{i+1}) by plain back substitution in long double,
    closed periodically as in `_right_sums`."""
    ld = np.longdouble
    y, k = y.astype(ld), ld(k)
    x = np.exp(-k * np.diff(y if L is None else np.append(y, y[0] + ld(L))))
    r = np.zeros(y.size, dtype=ld)
    acc = ld(0)
    for i in range(x.size - 1, -1, -1):
        acc = x[i] * (1 + acc)
        r[i] = acc
    if L is None:
        return r
    return r + np.exp(-k * (y[0] + ld(L) - y)) * r[0] / (1 - np.exp(-k * ld(L)))


@pytest.mark.parametrize("n", [1, 2, 9, 1281, 2561])
@pytest.mark.parametrize("periodic", [False, True], ids=["free", "periodic"])
def test_right_sums_scan_against_long_double_recurrence(n, periodic):
    # n atoms over a period of about 2, as in the model, with gaps varying
    # by +-40%; k from n/2 (gap factors ~0.37) to 8n (~1e-7)
    rng = np.random.default_rng(n)
    gaps = 2.0 / n * (0.6 + 0.8 * rng.random(n))
    y = np.cumsum(gaps) - gaps[0]
    L = float(np.sum(gaps)) if periodic else None
    for k in (n / 2, n, 8 * n):
        got = _right_sums(y, k, L)
        ref = _right_sums_long_double(y, k, L)
        if not periodic:  # nothing lies right of the last atom
            assert got[-1] == 0.0
            got, ref = got[:-1], ref[:-1]
        ref = ref.astype(float)
        assert np.all(ref >= np.finfo(float).tiny)  # normal-range entries
        err = np.abs(got - ref) / ref
        assert np.all(err <= 5e-14), (k, float(np.max(err)))


def _right_sums_full_scan(y, k, L=None):
    """The doubling scan run to the end, with the wrap's exp on every atom:
    `_right_sums` before it learned to skip work that changes no bit."""
    x = np.exp(-k * np.diff(y if L is None else np.append(y, y[0] + L)))
    a, b = x.copy(), x
    s = 1
    while s < x.size:
        a[:-s] += b[:x.size - s] * a[s:]
        b = b[:-s] * b[s:]
        s *= 2
    r = np.zeros(y.size)
    r[:x.size] = a
    if L is None:
        return r
    return r + np.exp(-k * (y[0] + L - y)) * (r[0] / -math.expm1(-k * L))


SKIP_GRID_M = (1e-3, 1e-2, 0.1, 1.0, 5.0, 30.0, 100.0, 400.0)
SKIP_GRID_STRAINS = (PROF.sigma0 + 1e-7, 0.7, 1.1, 2.0, 3.5)


def _skip_grid_chains(n, periodic):
    """(y, L, m, eps, gaps) over the grid: n atoms at eps = 2/n, every
    strain of SKIP_GRID_STRAINS as the floor of gaps that vary by up to
    +20%, every m of SKIP_GRID_M."""
    rng = np.random.default_rng(n)
    eps = 2.0 / n
    for s in SKIP_GRID_STRAINS:
        gaps = eps * s * (1.0 + 0.2 * rng.random(n))
        y = np.cumsum(gaps) - gaps[0]
        L = float(np.sum(gaps)) if periodic else None
        for m in SKIP_GRID_M:
            yield y, L, m, eps, gaps


@pytest.mark.parametrize("n", [1, 2, 3, 9, 81, 641, 2561])
@pytest.mark.parametrize("periodic", [False, True], ids=["free", "periodic"])
def test_right_sums_bit_identical_to_full_scan(n, periodic):
    regimes = set()
    for y, L, m, eps, gaps in _skip_grid_chains(n, periodic):
        k = m / eps
        got = _right_sums(y, k, L)
        assert np.array_equal(got, _right_sums_full_scan(y, k, L)), (m, gaps[0] / eps)
        x = np.exp(-k * (gaps if periodic else gaps[1:]))
        if x.size > 1:
            lo, hi = float(np.min(x)), float(np.max(x))
            normal = np.spacing(lo) / 4.0 >= np.finfo(float).tiny
            regimes.add("stop" if 0.0 < hi < 0.5 and normal
                        else "no stop: tiny m" if hi >= 0.5 else "no stop: underflow")
    if n >= 3:  # the grid runs the early stop and both full-scan regimes
        assert regimes == {"stop", "no stop: tiny m", "no stop: underflow"}


@pytest.mark.parametrize("n", [2, 9, 641])
def test_right_sums_wide_wrap_gap_bit_identical(n):
    # the slab's image sum has one wide gap, across the walls, at the wrap:
    # its closure term reaches the subnormal range where k times the wide
    # gap nears the 746 cut, and there it still moves the last atom's sum
    eps, k = 2.0 / n, 1.1 * n / 2.0
    y = eps * np.arange(n, dtype=float)
    moved = False
    for wrap in np.linspace(700.0, 760.0, 31):
        L = n * eps + wrap / k
        got = _right_sums(y, k, L)
        assert np.array_equal(got, _right_sums_full_scan(y, k, L)), wrap
        # before the closure, the last sum is the wrap gap's factor alone
        moved |= bool(got[-1] != np.exp(-k * ((y[0] + L) - y[-1])))
    assert moved


def test_green_periodic_rejects_overlapping_bumps():
    # a point looks for the one bump that contains it among its two
    # neighbouring atoms, so overlapping supports (strain 0.45 < sigma0)
    # must raise rather than miss a bump
    with pytest.raises(ValueError, match="overlap"):
        eval_green_periodic(homogeneous(8, 0.45), PROF, M, np.array([0.0]))


def test_green_periodic_gradient_fd():
    cfg = wiggled_chain()
    xs = np.linspace(-0.97, 0.95, 29)
    _, g = eval_green_periodic(cfg, PROF, M, xs)
    h = 1e-7
    vp, _ = eval_green_periodic(cfg, PROF, M, xs + h)
    vm, _ = eval_green_periodic(cfg, PROF, M, xs - h)
    assert np.allclose(g, (vp - vm) / (2 * h), atol=5e-8)


def _free_line_field(y, m, eps, x):
    """Whole-line kernel sum of unit bumps at y: (mu/2m) e^{-(m/eps)|x - y_j|}
    per atom, the split quadrature on the bump that contains x."""
    k, c, w = m / eps, mu(PROF, m) / (2.0 * m), PROF.half_width * eps
    d = x[:, None] - y[None, :]
    e = c * np.exp(-k * np.abs(d))
    val, grad = e.sum(axis=1), -k * np.sum(np.copysign(e, d), axis=1)
    ii, jj = np.nonzero(np.abs(d) < w)
    qv, qg = _bump_kernel_quad(PROF, m, eps, y[jj], x[ii])
    val[ii] += qv - e[ii, jj]
    grad[ii] += qg + k * np.copysign(e[ii, jj], d[ii, jj])
    return val, grad


@pytest.mark.parametrize("m", [1.0, 5.0, 10.0])
def test_kernel_field_matches_free_line_sum(m):
    # a chain inside (-1, 1): at period 40 every foreign image is at least
    # 38 away, e^{-(m/eps) 38} <= 1e-33, so the periodic sum is the free-line
    # one.  Every offset is below L/2, so the nearest-image reduction is
    # exact and no (m/eps) ulp(L) error scales the gradient.  Gradients are
    # measured on the kernel's own scale: an image's gradient is m/eps times
    # its value.
    eps = 0.5
    y = np.array([-0.8, -0.45, -0.1, 0.25, 0.62])
    w = PROF.half_width * eps
    xs = np.concatenate([
        y,                                # at a centre
        np.nextafter(y, -np.inf),         # just left of one
        y + 0.6 * w,                      # inside a bump
        *(y - f * w for f in (0.1, 0.2, 0.3, 0.45, 0.7, 0.9)),  # left of its centre
        0.5 * (y[:-1] + y[1:]),           # between bumps
        [-0.95, 0.97],
    ])
    vf, gf = _free_line_field(y, m, eps, xs)
    vp, gp = _kernel_field(y, PROF, m, eps, xs, 40.0)
    scale = np.max(np.abs(vf))
    assert np.max(np.abs(vp - vf)) <= 1e-14 * scale
    assert np.max(np.abs(gp - gf)) <= 1e-14 * (m / eps) * scale


def _green_dirichlet_dx(bd, x, z):
    """d/dx of `green_dirichlet` term by term."""
    k, tau, d = bd.m / bd.eps, bd.tau, bd.width
    det = 1.0 - tau * tau
    return k * (
        -np.sign(x - z) * np.exp(-k * np.abs(x - z))
        + (np.exp(-k * (x + z - 2.0 * bd.a_L)) - np.exp(-k * (2.0 * bd.a_R - x - z))) / det
        + tau * (np.exp(-k * (z - x + d)) - np.exp(-k * (x - z + d))) / det
    ) / (2.0 * bd.m * bd.eps)


@pytest.mark.parametrize("m", [0.25, M, 4.0])  # tau from 0.05 to 4e-22
def test_eval_green_dirichlet_matches_green_function_quadrature(m):
    # integral G_a(x, z) rho(z) dz by Gauss rules on each bump, split at the
    # kernel kink z = x, plus the boundary layer xi
    cfg = wiggled_chain()
    y, bd = slab_setup(cfg)
    bd = BoundaryData(bd.a_L, bd.a_R, bd.g_L, bd.g_R, m, bd.eps)
    w = PROF.half_width * cfg.eps
    xs = np.concatenate([
        y, y + 0.7 * w, y - 0.4 * w,                      # inside bumps
        [bd.a_L, bd.a_L + 1e-3 * w, bd.a_R - 1e-3 * w, bd.a_R],  # at the walls
        0.5 * (y[:-1] + y[1:]),
    ])
    ref_v, ref_g = xi_closed_form(bd)[1](xs)
    for j, c in enumerate(y):
        for i, x in enumerate(xs):
            cuts = [c - w, c + w] if abs(x - c) >= w else [c - w, x, c + w]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                z, wq = gauss_on_interval(lo, hi, 40)
                rho = PROF.delta1((z - c) / cfg.eps)
                ref_v[i] += np.sum(wq * rho * green_dirichlet(bd, x, z))
                ref_g[i] += np.sum(wq * rho * _green_dirichlet_dx(bd, x, z))
    val, grad = eval_green_dirichlet(y, bd, PROF, xs)
    scale = np.max(np.abs(ref_v))
    assert np.max(np.abs(val - ref_v)) <= 1e-13 * scale
    assert np.max(np.abs(grad - ref_g)) <= 1e-13 * (m / cfg.eps) * scale


def test_dirichlet_fem_within_budget_and_bc():
    cfg = wiggled_chain()
    y, bd = slab_setup(cfg)
    f = solve_dirichlet(y, bd, PROF, mesh_density=16)
    assert f.values[0] == bd.g_L and f.values[-1] == bd.g_R
    xs = np.linspace(bd.a_L, bd.a_R, 97)
    ref, _ = eval_green_dirichlet(y, bd, PROF, xs)
    err = np.max(np.abs(f.value(xs) - ref)) / np.max(np.abs(ref))
    assert err <= fem_relative_budget(PROF, M, 16)


def test_dirichlet_mesh_halving_rate():
    cfg = wiggled_chain()
    y, bd = slab_setup(cfg)
    xs = np.linspace(bd.a_L, bd.a_R, 151)
    ref, _ = eval_green_dirichlet(y, bd, PROF, xs)
    errs = [
        np.max(np.abs(solve_dirichlet(y, bd, PROF, mesh_density=md).value(xs) - ref))
        for md in (16, 32, 64)
    ]
    rate = 0.5 * np.log2(errs[0] / errs[2])
    assert rate >= 1.8


def test_dirichlet_superposition_and_xi():
    cfg = wiggled_chain()
    y, bd = slab_setup(cfg)
    f_g = solve_dirichlet(y, bd, PROF)
    f_0 = solve_dirichlet(y, bd.with_g(0.0, 0.0), PROF)
    # discrete superposition: difference solves the sourceless problem with data g
    xi_h = solve_dirichlet(np.empty(0), bd, PROF)
    assert np.max(np.abs((f_g.values - f_0.values) - xi_h.values)) < 1e-12
    # and that solution is the boundary layer, up to the documented mesh budget
    _, xi = xi_closed_form(bd)
    xv, _ = xi(f_g.nodes())
    scale = max(abs(bd.g_L), abs(bd.g_R))
    assert np.max(np.abs(xi_h.values - xv)) <= fem_relative_budget(PROF, M, 16) * scale


def test_xi_coefficients_near_g():
    cfg = wiggled_chain()
    _, bd = slab_setup(cfg, g=(0.8, -0.3))
    (c_l, c_r), _ = xi_closed_form(bd)
    gmax = max(abs(bd.g_L), abs(bd.g_R))
    assert abs(c_l - bd.g_L) <= 2 * bd.tau * gmax
    assert abs(c_r - bd.g_R) <= 2 * bd.tau * gmax
    # g = (1, 1) -> c = (1, 1)/(1 + tau)
    (c_l, c_r), _ = xi_closed_form(bd.with_g(1.0, 1.0))
    assert c_l == pytest.approx(1.0 / (1.0 + bd.tau), rel=1e-14)
    assert c_r == pytest.approx(1.0 / (1.0 + bd.tau), rel=1e-14)


def test_dirichlet_energy_identity_and_positivity():
    cfg = wiggled_chain()
    y, bd = slab_setup(cfg, g=(0.2, 0.1))
    f = solve_dirichlet(y, bd, PROF)
    # with nonzero g the identity I = -(1/2) b phi does not hold; with g = 0 it must
    f0 = solve_dirichlet(y, bd.with_g(0.0, 0.0), PROF)
    assert f0.i_value == pytest.approx(-0.5 * f0.interaction, rel=1e-10)
    assert np.min(f.values) >= 0.0


def test_green_dirichlet_kernel_properties():
    cfg = wiggled_chain()
    _, bd = slab_setup(cfg)
    zs = bd.a_L + bd.width * np.array([0.2, 0.5, 0.8])
    # vanishes on the boundary (down to roundoff on the kernel scale 1/(2 m eps))
    scale = 1.0 / (2.0 * bd.m * bd.eps)
    for z in zs:
        assert abs(green_dirichlet(bd, bd.a_L, z)) < 1e-14 * scale
        assert abs(green_dirichlet(bd, bd.a_R, z)) < 1e-14 * scale
    # symmetric
    x = bd.a_L + 0.37 * bd.width
    for z in zs:
        assert green_dirichlet(bd, x, z) == pytest.approx(green_dirichlet(bd, z, x), rel=1e-14)
    # interior positivity (screened diffusion of a positive source)
    assert green_dirichlet(bd, x, float(zs[1])) > 0.0


def test_green_dirichlet_solves_g0_problem():
    # the kernel-route field with g=0 matches a dense FEM solve well beyond
    # the default budget
    cfg = wiggled_chain()
    y, bd0 = slab_setup(cfg, g=(0.0, 0.0))
    f = solve_dirichlet(y, bd0, PROF, mesh_density=128)
    xs = np.linspace(bd0.a_L, bd0.a_R, 61)
    ref, _ = eval_green_dirichlet(y, bd0, PROF, xs)
    budget = fem_relative_budget(PROF, M, 128)
    assert np.max(np.abs(f.value(xs) - ref)) <= budget * np.max(np.abs(ref))


def _wall_slab():
    # the five-atom slab of test_energy's wall-image test
    eps = 0.1
    y = eps * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    return y, BoundaryData(float(y[0]) - 0.55 * eps, float(y[-1]) + 0.55 * eps, 0.3, -0.2, M, eps)


@pytest.mark.parametrize("slab, mesh_density, n", [
    (_wall_slab, 64, 653),
    (lambda: slab_setup(wiggled_chain(), g=(0.0, 0.0)), 128, 3148),
    (lambda: slab_setup(wiggled_chain()), 8192, 201423),
], ids=["wall-slab", "g0-slab", "fine-slab"])
def test_dirichlet_fft_solve_backward_error(slab, mesh_density, n):
    # the odd-extension FFT solve plus one refinement step is as backward
    # stable as a banded Cholesky solve, far inside the 1e-12 gate
    y, bd = slab()
    f = solve_dirichlet(y, bd, PROF, mesh_density)
    assert f.n_nodes == n + 1
    assert f.residual_rel <= 4e-16


def test_green_dirichlet_gradient_fd():
    cfg = wiggled_chain()
    y, bd = slab_setup(cfg, g=(0.3, 0.15))
    xs = np.linspace(bd.a_L + 0.05 * bd.width, bd.a_R - 0.05 * bd.width, 31)
    _, g = eval_green_dirichlet(y, bd, PROF, xs)
    h = 1e-7
    vp, _ = eval_green_dirichlet(y, bd, PROF, xs + h)
    vm, _ = eval_green_dirichlet(y, bd, PROF, xs - h)
    assert np.allclose(g, (vp - vm) / (2 * h), atol=5e-8)


def test_sextic_profile_supported_everywhere():
    cfg = wiggled_chain()
    prof = sextic_bump(0.5)
    f = solve_periodic(cfg, prof, M)
    xs = np.linspace(-1.0, 1.0, 51)
    ref, _ = eval_green_periodic(cfg, prof, M, xs)
    err = np.max(np.abs(f.value(xs) - ref)) / np.max(np.abs(ref))
    assert err <= fem_relative_budget(prof, M, 16)


def test_lipschitz_locality_of_boundary_data():
    cfg = wiggled_chain()
    y, bd1 = slab_setup(cfg, g=(0.4, 0.7))
    bd2 = bd1.with_g(0.55, 0.35)
    rep = field_lipschitz_check(y, bd1, bd2, PROF, n_samples=300, seed=7)
    assert rep["ok"], rep
    assert rep["max_ratio_value"] <= 1.0 + 10 * fem_relative_budget(PROF, M, 16)
    assert rep["n_usable"] > 10


def test_solve_dirichlet_rejects_bumps_touching_boundary():
    cfg = wiggled_chain()
    y = positions(cfg)[3:14]
    bd = BoundaryData(float(y[0]), float(y[-1]) + 0.55 * cfg.eps, 0, 0, M, cfg.eps)
    with pytest.raises(ValueError, match="inside the slab"):
        solve_dirichlet(y, bd, PROF)


def test_slab_routes_agree_that_a_bump_touching_a_wall_is_contact():
    # a support ending exactly on a wall is contact for the FEM solve and
    # the kernel route alike; pulling the walls out makes both accept
    cfg = wiggled_chain()
    y = positions(cfg)[3:14]
    w = PROF.half_width * cfg.eps
    x = float(y[5])
    a_L, a_R = float(y[0]) - 0.55 * cfg.eps, float(y[-1]) + 0.55 * cfg.eps
    for bd in (BoundaryData(float(y[0]) - w, a_R, 0, 0, M, cfg.eps),
               BoundaryData(a_L, float(y[-1]) + w, 0, 0, M, cfg.eps)):
        with pytest.raises(ValueError, match="inside the slab"):
            solve_dirichlet(y, bd, PROF)
        with pytest.raises(ValueError, match="inside the slab"):
            eval_green_dirichlet(y, bd, PROF, x)
    bd = BoundaryData(a_L, a_R, 0, 0, M, cfg.eps)
    assert solve_dirichlet(y, bd, PROF).value(x) > 0
    assert eval_green_dirichlet(y, bd, PROF, x)[0] > 0


def test_slab_fields_reject_points_outside_the_slab():
    # the closed form would alias a point outside back into the slab through
    # its period 2(a_R - a_L); it raises, as the FEM field does
    cfg = wiggled_chain()
    y, bd = slab_setup(cfg)
    f = solve_dirichlet(y, bd, PROF)
    inside = 0.5 * (bd.a_L + bd.a_R)
    for x in (bd.a_R + 0.6 * bd.width, bd.a_L - 1e-9, math.nan):
        with pytest.raises(ValueError, match="outside the slab"):
            eval_green_dirichlet(y, bd, PROF, np.array([inside, x]))
        with pytest.raises(ValueError, match="outside the slab"):
            f.value(np.array([inside, x]))
    walls = np.array([bd.a_L, bd.a_R])
    assert np.allclose(eval_green_dirichlet(y, bd, PROF, walls)[0], bd.g(), rtol=0, atol=1e-15)


def test_boundary_data_validation():
    with pytest.raises(ValueError):
        BoundaryData(1.0, 0.5, 0, 0, 1.0, 0.1)
    with pytest.raises(ValueError):
        BoundaryData(0.0, 1.0, 0, 0, -1.0, 0.1)
    good = (0.0, 1.0, 0.0, 0.0, 1.0, 0.1)
    for i in range(len(good)):
        for bad in (math.nan, math.inf, -math.inf):
            values = list(good)
            values[i] = bad
            with pytest.raises(ValueError, match="finite"):
                BoundaryData(*values)
