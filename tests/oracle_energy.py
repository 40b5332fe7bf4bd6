"""Independent reference values for the energy module.

Energies are evaluated straight from their definitions -- E = (1/2) integral
rho phi for the periodic chain and E = -I(phi) for the slab -- using the
kernel-route fields (validated elsewhere against brute image sums) and
piecewise Gauss quadrature split at every bump edge.  No pair-sum algebra
from the implementation enters these numbers.  Run:

    python3 tests/oracle_energy.py

and freeze the printed values into test_energy.py.  The script also
finite-difference audits every closed-form partial derivative the module
uses (d/dy, d/da, d/dg) so sign errors die here, not in the test suite.
"""

import numpy as np

from acfield.density import gauss_on_interval, quartic_bump, rho as rho_periodic
from acfield.field import BoundaryData, eval_green_dirichlet, eval_green_periodic
from acfield.lattice import ChainConfig, positions
from acfield import energy as en

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


def split_points(lo, hi, centers, w):
    pts = [lo, hi]
    for c in centers:
        for e in (c - w, c + w):
            if lo < e < hi:
                pts.append(e)
    return np.unique(np.array(pts))


def piecewise_quad(f, pts, order=48):
    acc = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        z, wq = gauss_on_interval(a, b, order)
        acc += float(np.sum(wq * f(z)))
    return acc


def periodic_energy_quadrature(cfg):
    y = positions(cfg)
    w = PROF.half_width * cfg.eps
    pts = split_points(-cfg.F, cfg.F, np.concatenate([y, y - cfg.L, y + cfg.L]), w)
    pts = pts[(pts >= -cfg.F) & (pts <= cfg.F)]

    def f(x):
        v, _ = eval_green_periodic(cfg, PROF, M, x)
        return 0.5 * rho_periodic(cfg, PROF, x) * v

    return piecewise_quad(f, pts)


def slab_energy_quadrature(y, bd):
    """-I(phi) = -(1/2) integral (eps^2 phi'^2 + m^2 phi^2) + integral rho phi."""
    w = PROF.half_width * bd.eps
    pts = split_points(bd.a_L, bd.a_R, y, w)

    def f(x):
        v, g = eval_green_dirichlet(y, bd, PROF, x)
        d = x[:, None] - y[None, :]
        d = np.where(np.abs(d) < w, d, w)
        rho = bd.eps * np.sum(PROF.delta1(d / bd.eps) / bd.eps, axis=1)
        return -0.5 * (bd.eps**2 * g**2 + M**2 * v**2) + rho * v

    return piecewise_quad(f, pts)


def gamma_quadrature(y, bd):
    w = PROF.half_width * bd.eps
    k = M / bd.eps
    out = []
    for sgn, wall in ((1.0, bd.a_L), (-1.0, bd.a_R)):
        acc = 0.0
        for c in y:
            z, wq = gauss_on_interval(c - w, c + w, 48)
            dens = PROF.delta1((z - c) / bd.eps) / bd.eps
            acc += bd.eps * float(np.sum(wq * dens * np.exp(-sgn * k * (z - wall))))
        out.append(acc / (M * bd.eps))
    return out


def main():
    cfg = wiggled_chain()
    e_quad = periodic_energy_quadrature(cfg)
    e_pair = en.energy_periodic(cfg, PROF, M)
    print("periodic E (quadrature) = %.15e" % e_quad)
    print("periodic E (pair)       = %.15e   rel diff %.2e"
          % (e_pair, abs(e_pair - e_quad) / abs(e_quad)))

    y, bd = slab_setup(cfg)
    es_quad = slab_energy_quadrature(y, bd)
    es_pair = en.energy_dirichlet(y, bd, PROF)
    print("slab E g=(0.4,0.7) (quadrature) = %.15e" % es_quad)
    print("slab E (pair)                   = %.15e   rel diff %.2e"
          % (es_pair, abs(es_pair - es_quad) / abs(es_quad)))

    gl_q, gr_q = gamma_quadrature(y, bd)
    gam_l, gam_r = en.gamma_pair(y, bd, PROF)
    print("gamma_L (quadrature) = %.15e   closed %.15e" % (gl_q, gam_l))
    print("gamma_R (quadrature) = %.15e   closed %.15e" % (gr_q, gam_r))

    # --- FD audits of the closed-form partials ---
    hstep = 1e-6
    f0 = en.d_energy_dirichlet_y(y, bd, PROF)
    fd = np.empty_like(f0)
    for i in range(y.size):
        yp, ym = y.copy(), y.copy()
        yp[i] += hstep
        ym[i] -= hstep
        fd[i] = (en.energy_dirichlet(yp, bd, PROF)
                 - en.energy_dirichlet(ym, bd, PROF)) / (2 * hstep)
    print("d/dy pair vs FD: max rel %.2e" % np.max(np.abs(fd - f0) / np.max(np.abs(f0))))

    dal, dar = en.d_energy_dirichlet_a(y, bd, PROF)
    bd_lp = BoundaryData(bd.a_L + hstep, bd.a_R, bd.g_L, bd.g_R, M, bd.eps)
    bd_lm = BoundaryData(bd.a_L - hstep, bd.a_R, bd.g_L, bd.g_R, M, bd.eps)
    bd_rp = BoundaryData(bd.a_L, bd.a_R + hstep, bd.g_L, bd.g_R, M, bd.eps)
    bd_rm = BoundaryData(bd.a_L, bd.a_R - hstep, bd.g_L, bd.g_R, M, bd.eps)
    fd_al = (en.energy_dirichlet(y, bd_lp, PROF)
             - en.energy_dirichlet(y, bd_lm, PROF)) / (2 * hstep)
    fd_ar = (en.energy_dirichlet(y, bd_rp, PROF)
             - en.energy_dirichlet(y, bd_rm, PROF)) / (2 * hstep)
    print("d/daL pair %.10e  FD %.10e  rel %.2e" % (dal, fd_al, abs(dal - fd_al) / abs(fd_al)))
    print("d/daR pair %.10e  FD %.10e  rel %.2e" % (dar, fd_ar, abs(dar - fd_ar) / abs(fd_ar)))

    sf = en.stress_dirichlet(y, bd, PROF)  # window average of the stress at each wall
    dal_g = -sf.integral(bd.a_L, float(y[0]), 32) / (float(y[0]) - bd.a_L)
    dar_g = sf.integral(float(y[-1]), bd.a_R, 32) / (bd.a_R - float(y[-1]))
    print("d/daL green %.10e  rel vs pair %.2e" % (dal_g, abs(dal_g - dal) / abs(dal)))
    print("d/daR green %.10e  rel vs pair %.2e" % (dar_g, abs(dar_g - dar) / abs(dar)))

    dg = en.d_energy_dirichlet_g(y, bd, PROF)
    fd_g = np.empty(2)
    for i, (dl, dr) in enumerate(((hstep, 0.0), (0.0, hstep))):
        bp = BoundaryData(bd.a_L, bd.a_R, bd.g_L + dl, bd.g_R + dr, M, bd.eps)
        bm = BoundaryData(bd.a_L, bd.a_R, bd.g_L - dl, bd.g_R - dr, M, bd.eps)
        fd_g[i] = (en.energy_dirichlet(y, bp, PROF)
                   - en.energy_dirichlet(y, bm, PROF)) / (2 * hstep)
    print("d/dg pair", dg, " FD", fd_g, " rel %.2e" % np.max(np.abs(dg - fd_g) / np.abs(fd_g)))

    gs = en.g_star(y, bd, PROF)
    bd_star = BoundaryData(bd.a_L, bd.a_R, gs[0], gs[1], M, bd.eps)
    dg_star = en.d_energy_dirichlet_g(y, bd_star, PROF)
    print("g* =", gs, " |D_g E(g*)| =", np.max(np.abs(dg_star)))
    e_mirror = en.mirror_energy(y, bd, PROF)
    e_at_star = en.energy_dirichlet(y, bd_star, PROF)
    print("mirror E %.15e  vs E(g*) %.15e  rel %.2e"
          % (e_mirror, e_at_star, abs(e_mirror - e_at_star) / abs(e_at_star)))


if __name__ == "__main__":
    main()
