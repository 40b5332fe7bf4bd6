import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from acfield.density import (
    delta_eps,
    gauss_on_interval,
    mu,
    quartic_bump,
    sextic_bump,
)
import acfield.field as field_module
from acfield.field import (
    BoundaryData,
    _ChainSums,
    _assemble_load,
    _bump_kernel,
    _bump_pieces,
    _circulant_eigenvalues,
    _element_matrices,
    _kernel_field,
    _neighbour_field,
    _piece_blocks,
    _right_sums,
    _solve_circulant,
    eval_green_dirichlet,
    eval_green_periodic,
    solve_dirichlet,
    solve_periodic,
    xi_closed_form,
)
from acfield.lattice import ChainConfig, homogeneous, positions
from oracle_fem import fem_forces, fem_relative_budget
from oracle_stress import grad_delta_eps

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
    # a constant density c, as a load c h on the periodic mesh's element
    # stencil, solves to the exact constant field c/m^2
    cfg = wiggled_chain()
    m = 2.0
    f = solve_periodic(cfg, PROF, m)
    el = _element_matrices(cfg.eps, m, f.h)
    eig = _circulant_eigenvalues(2.0 * el[0, 0], el[0, 1], f.n_nodes)
    phi = _solve_circulant(eig, np.full(f.n_nodes, 3.0 * f.h))
    assert np.max(np.abs(phi - 3.0 / m**2)) < 1e-12


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


def _one_bincount_load_and_forces(profile, eps, centers, f):
    """The load and `fem_forces` as one `bincount` over every piece at once."""
    L = f.L if f.kind == "periodic" else None
    atom, nodes, dz, wq, hats = _bump_pieces(profile, eps, centers, f.x0, f.h, f.n_nodes, L)
    piece = np.einsum("pq,pqk->pk", wq * profile.delta1(dz / eps), hats)
    b = np.bincount(nodes.ravel(), piece.ravel(), minlength=f.n_nodes)
    phi = np.sum(f.values[nodes][:, None, :] * hats, axis=-1)
    piece = np.sum(wq * grad_delta_eps(profile, eps, dz) * phi, axis=1)
    return b, -eps * np.bincount(atom, piece, minlength=centers.size)


@pytest.mark.parametrize("make", [quartic_bump, sextic_bump], ids=["quartic", "sextic"])
@pytest.mark.parametrize("near_contact", [False, True], ids=["audit-size", "near-contact"])
def test_piece_blocks_keep_every_bit(monkeypatch, make, near_contact):
    # the load and fem_forces are bit for bit one bincount over every piece,
    # whether the bumps go one per block, in the default blocks or all in
    # one: the load adds its pieces in one order, from zero, and an atom's
    # force sums its own pieces only.  The audit's size is N = 80 at
    # density 64.  Near contact (sigma0 = 0.9, spacing 0.905 eps, every
    # third atom moved 0.875 of the gap right) the gap after a moved atom,
    # 0.000625 eps, lies inside one element, so ~100 nodes collect 3 pieces
    # of two bumps; on the homogeneous chain every gap straddles a node.
    N = 80
    eps = 2.0 / (2 * N + 1)
    if near_contact:
        prof, F = make(0.9), 0.905
        u = np.where(np.arange(2 * N + 1) % 3 == 0, 0.875 * (F - 0.9) * eps, 0.0)
    else:
        prof, F = make(0.5), 1.1
        u = np.random.default_rng(N).normal(0.0, 0.05 * eps, 2 * N + 1)
    cfg = ChainConfig(N, F, u - u.mean())
    y = positions(cfg)
    slab = y[N // 2:-N // 2]
    bd = BoundaryData(float(slab[0]) - 0.55 * eps, float(slab[-1]) + 0.55 * eps,
                      0.3, 0.5, M, eps)
    for f, centers in ((solve_periodic(cfg, prof, M, 64), y),
                       (solve_dirichlet(slab, bd, prof, 64), slab)):
        L = f.L if f.kind == "periodic" else None
        nodes = _bump_pieces(prof, eps, centers, f.x0, f.h, f.n_nodes, L)[1]
        assert np.bincount(nodes.ravel()).max() == (3 if near_contact else 2)
        b_ref, f_ref = _one_bincount_load_and_forces(prof, eps, centers, f)
        for budget, blocks in ((1, centers.size), (None, None), (10**9, 1)):
            if budget is not None:
                monkeypatch.setattr(field_module, "_PIECE_BUDGET", budget)
            n_blocks = len(_piece_blocks(prof, eps, centers.size, f.h))
            assert n_blocks == blocks if blocks else n_blocks > 4
            load = _assemble_load(prof, eps, centers, f.x0, f.h, f.n_nodes, L)
            assert np.array_equal(load, b_ref) and np.array_equal(f.rhs, b_ref)
            assert np.array_equal(fem_forces(f, prof, eps, centers), f_ref)
            monkeypatch.undo()


@pytest.mark.parametrize("kind", ["periodic", "slab"])
def test_fem_solve_memory_is_a_small_constant_per_node(kind):
    # ~45k nodes at N = 160, density 64: with every piece in memory at once
    # and the stencil as full arrays (and their long-double copies) a solve
    # peaked at 37.1 doubles a node; blocked pieces and a scalar stencil
    # leave 10 (periodic) and 14 (slab, the odd-extension FFT)
    N = 160
    eps = 2.0 / (2 * N + 1)
    u = np.random.default_rng(N).normal(0.0, 0.05 * eps, 2 * N + 1)
    cfg = ChainConfig(N, 1.1, u - u.mean())
    y = positions(cfg)[2:-2]
    bd = BoundaryData(float(y[0]) - 0.55 * eps, float(y[-1]) + 0.55 * eps, 0.3, 0.5, M, eps)
    if kind == "periodic":
        solve = lambda density: solve_periodic(cfg, PROF, M, density)  # noqa: E731
    else:
        solve = lambda density: solve_dirichlet(y, bd, PROF, density)  # noqa: E731
    solve(8)  # the Gauss rule and moments are cached on first use
    tracemalloc.start()
    try:
        f = solve(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.n_nodes > 44_000
    assert peak <= 24 * 8 * f.n_nodes, peak / (8 * f.n_nodes)


def test_zero_data_sourceless_slab_has_zero_backward_error():
    # phi = 0 solves it exactly; the backward error was 0/0, NaN with a
    # RuntimeWarning, and the residual gate let the NaN through
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = solve_dirichlet(np.empty(0), BoundaryData(0, 1, 0, 0, 1, 0.1), quartic_bump(0.5))
    assert f.residual_rel == 0.0
    assert not f.values.any() and f.i_value == 0.0


def test_fem_residual_gates_fail_on_nan(monkeypatch):
    monkeypatch.setattr(field_module, "_backward_error", lambda *args: math.nan)
    cfg = wiggled_chain()
    with pytest.raises(RuntimeError, match="periodic FEM solve residual"):
        solve_periodic(cfg, PROF, M)
    y, bd = slab_setup(cfg)
    with pytest.raises(RuntimeError, match="dirichlet FEM solve residual"):
        solve_dirichlet(y, bd, PROF)


def test_slab_solve_forms_its_eigenvalues_once(monkeypatch):
    # the solve and its refinement step share one FFT of the stencil
    calls = []

    def counted(*args):
        calls.append(args)
        return _circulant_eigenvalues(*args)

    monkeypatch.setattr(field_module, "_circulant_eigenvalues", counted)
    y, bd = slab_setup(wiggled_chain())
    f = solve_dirichlet(y, bd, PROF)
    assert len(calls) == 1 and calls[0][2] == 2 * (f.n_nodes - 1)


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


def _split_gauss_kernel(profile, m, eps, centers, x):
    """The field (value, gradient) at the points x of the bumps at `centers`
    that hold them, by a 24-point Gauss rule on each side of the kernel kink
    z = x: an oracle for `field._bump_kernel` that shares none of its
    algebra.  Against mpmath it is within 9.8e-16 of the bump's largest
    value and gradient up to m sigma0/2 = 3, but 5.9e-12 at 32."""
    w = profile.half_width * eps
    val, grad = np.zeros(x.size), np.zeros(x.size)
    for lo, hi, sgn in ((centers - w, x, 1.0), (x, centers + w, -1.0)):
        z, wq = gauss_on_interval(lo[:, None], hi[:, None], 24)
        f = np.sum(wq * delta_eps(profile, eps, z - centers[:, None])
                   * np.exp(-(m / eps) * np.abs(x[:, None] - z)), axis=1)
        val += f / (2.0 * m)
        grad -= sgn * f / (2.0 * eps)
    return val, grad


def _long_double_image_sum(cfg, m, x):
    """Periodic field (value, gradient) at x in np.longdouble: every atom's
    offset reduced to its nearest image (exact in long double), all images
    as two geometric series, and the image whose bump contains x swapped for
    `_split_gauss_kernel` at that offset."""
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
    qv, qg = _split_gauss_kernel(PROF, m, cfg.eps, np.zeros(ii.size), d[ii, jj].astype(float))
    val[ii] += qv
    grad[ii] += qg
    return val, grad


ORACLE_FIELD = json.loads(Path(__file__).with_name("oracle_field.json").read_text())


@pytest.mark.parametrize("kappa", [float(k) for k in ORACLE_FIELD["quartic"]])
@pytest.mark.parametrize("name, profile", [("quartic", quartic_bump(0.5)),
                                           ("sextic", sextic_bump(0.5))])
def test_bump_kernel_against_frozen_oracle(name, profile, kappa):
    # J(t) and J'(t) from tests/oracle_field.py (mpmath, 40 digits), on both
    # sides of the Taylor/closed-form switch at kappa = 8; the bound, fixed
    # before measuring, is 2e-15 of the bump's largest value and gradient.
    # At the edge the in-bump value and gradient meet the mu formula that
    # `_neighbour_field` uses outside, from either neighbour.
    m, eps = kappa / profile.half_width, 0.5
    w = profile.half_width * eps
    scale = profile.norm_const / (2.0 * m * eps)
    ref = ORACLE_FIELD[name][repr(kappa)]
    ref_v, ref_g = scale * w * np.array(ref["J"]), scale * np.array(ref["dJ"])
    val, grad = _bump_kernel(profile, m, eps, w * np.array(ORACLE_FIELD["t"]))
    v_max, g_max = np.max(np.abs(ref_v)), np.max(np.abs(ref_g))
    assert np.max(np.abs(val - ref_v)) <= 2e-15 * v_max
    assert np.max(np.abs(grad - ref_g)) <= 2e-15 * g_max
    edge, far = np.array([np.nextafter(w, 0.0), w]), 1e6  # e^{-(m/eps) far} = 0
    for d_l, d_r in ((edge, far), (far, edge)):
        (v_in, v_out), (g_in, g_out) = _neighbour_field(profile, m, eps, d_l, d_r, 0.0, 0.0)
        assert abs(v_in - v_out) <= 2e-15 * v_max
        assert abs(g_in - g_out) <= 2e-15 * g_max


def test_kernel_field_rejects_negative_m():
    # the in-bump series is built for m > 0; mu is even in m, so the
    # outside terms alone gave a field for m = -1
    cfg = wiggled_chain()
    with pytest.raises(ValueError, match="finite m > 0"):
        eval_green_periodic(cfg, PROF, -1.0, positions(cfg))


def test_field_route_memory_is_linear():
    # the ~22,700 nodes of the density-64 FEM mesh at N = 80: a per-point
    # Gauss rule of 24 nodes on each side of the kink peaked at 46.6
    # doubles a point (8.5 MB), the closed form at 12.7
    N = 80
    eps = 2.0 / (2 * N + 1)
    u = np.random.default_rng(N).normal(0.0, 0.05 * eps, 2 * N + 1)
    cfg = ChainConfig(N, 1.1, u - u.mean())
    n = cfg.n_atoms * math.ceil(64 * cfg.F / PROF.sigma0)
    x = -cfg.F + cfg.L / n * np.arange(n)
    eval_green_periodic(cfg, PROF, M, x[:8])
    tracemalloc.start()
    try:
        eval_green_periodic(cfg, PROF, M, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * n, peak


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


@pytest.mark.parametrize("periodic", [False, True])
def test_left_sums_reuse_the_right_scans_gap_factors_bitwise(periodic):
    # the left scan reads the right scan's gap factors reversed and forms
    # only the reflected chain's wrap gap, (L - y_{n-1}) + y_0, again; its
    # bits are those of a scan of the reflected chain from scratch
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 17, 640, 2561):
        for _ in range(4):
            y = np.cumsum(rng.uniform(0.05, 2.0, n)) + rng.uniform(-5.0, 5.0)
            L = float(y[-1] - y[0] + rng.uniform(0.05, 2.0)) if periodic else None
            k = float(rng.uniform(0.3, 20.0))
            sums = _ChainSums(y, k, L)
            assert np.array_equal(sums.right, _right_sums(y, k, L))
            assert np.array_equal(sums.left, _right_sums(-y[::-1], k, L)[::-1]), (n, k)


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
    qv, qg = _split_gauss_kernel(PROF, m, eps, y[jj], x[ii])
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
    vp, gp = _kernel_field(_ChainSums(y, m / eps, 40.0), PROF, m, eps, xs)
    scale = np.max(np.abs(vf))
    assert np.max(np.abs(vp - vf)) <= 1e-14 * scale
    assert np.max(np.abs(gp - gf)) <= 1e-14 * (m / eps) * scale


def _green_dirichlet(bd, x, z):
    """Slab Green's function G_a(x, z): field at x of a point source at z,
    the oracle of `eval_green_dirichlet`.

    Vanishes for x on the boundary, symmetric in (x, z).  Built from the free
    kernel plus mirror charges at both walls, resummed in closed form:

        G_a = [ e^{-k|x-z|} - (e^{-k(x+z-2a_L)} + e^{-k(2a_R-x-z)}) / (1-tau^2)
                + tau (e^{-k(x-z+D)} + e^{-k(z-x+D)}) / (1-tau^2) ] / (2 m eps)

    with k = m/eps, D = a_R - a_L, tau = e^{-kD}.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    k = bd.m / bd.eps
    tau = bd.tau
    det = 1.0 - tau * tau
    d = bd.width
    out = (
        np.exp(-k * np.abs(x - z))
        - (np.exp(-k * (x + z - 2.0 * bd.a_L)) + np.exp(-k * (2.0 * bd.a_R - x - z))) / det
        + tau * (np.exp(-k * (x - z + d)) + np.exp(-k * (z - x + d))) / det
    ) / (2.0 * bd.m * bd.eps)
    return out if out.ndim else float(out)


def _green_dirichlet_dx(bd, x, z):
    """d/dx of `_green_dirichlet` term by term."""
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
                ref_v[i] += np.sum(wq * rho * _green_dirichlet(bd, x, z))
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
        assert abs(_green_dirichlet(bd, bd.a_L, z)) < 1e-14 * scale
        assert abs(_green_dirichlet(bd, bd.a_R, z)) < 1e-14 * scale
    # symmetric
    x = bd.a_L + 0.37 * bd.width
    for z in zs:
        assert _green_dirichlet(bd, x, z) == pytest.approx(_green_dirichlet(bd, z, x), rel=1e-14)
    # interior positivity (screened diffusion of a positive source)
    assert _green_dirichlet(bd, x, float(zs[1])) > 0.0


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
    # two slab fields that differ only in their boundary data differ by the
    # boundary layer of the difference, which decays away from the walls:
    #   |phi1 - phi2|(x)       <= sqrt(2) |T^{-1}(g1 - g2)| e^{-(m/eps) d_a(x)}
    #   eps |phi1' - phi2'|(x) <= sqrt(2) m |T^{-1}(g1 - g2)| e^{-(m/eps) d_a(x)}
    # with d_a(x) the distance to the nearer wall; the closed-form route is
    # exact, so no solver noise floor enters
    cfg = wiggled_chain()
    y, bd1 = slab_setup(cfg, g=(0.4, 0.7))
    bd2 = bd1.with_g(0.55, 0.35)
    (c_l, c_r), _ = xi_closed_form(bd1.with_g(bd1.g_L - bd2.g_L, bd1.g_R - bd2.g_R))
    xs = bd1.a_L + bd1.width * np.random.default_rng(7).random(300)
    d_a = np.minimum(xs - bd1.a_L, bd1.a_R - xs)
    bound = math.sqrt(2.0) * math.hypot(c_l, c_r) * np.exp(-(M / cfg.eps) * d_a)
    v1, g1 = eval_green_dirichlet(y, bd1, PROF, xs)
    v2, g2 = eval_green_dirichlet(y, bd2, PROF, xs)
    assert np.all(np.abs(v1 - v2) <= bound)
    assert np.all(cfg.eps * np.abs(g1 - g2) <= M * bound)


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
    assert np.allclose(eval_green_dirichlet(y, bd, PROF, walls)[0], (bd.g_L, bd.g_R),
                       rtol=0, atol=1e-15)


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
