"""Field energies, forces, and boundary-data calculus.

The grand-potential energy of a chain is E(y) = -min_phi I(phi, y) with

    I(phi, y) = integral( eps^2/2 |phi'|^2 + m^2/2 phi^2 - rho_y phi );

at the solved field E = (1/2) integral rho_y phi.  Every quantity here is
an exact closed form: non-overlapping bumps see each other only through
mu(m)^2 exp(-(m/eps) distance), so the periodic energy is a
geometrically-resummed pair sum plus a per-atom self energy, and the slab
(Dirichlet) energy splits as E_{a,g} = -I(phi_0) - I(xi_g) where both pieces
reduce to pair sums, the wall moments gamma, and the decay factor tau.  These
formulas are exact for separated bumps (the only regime in which the slab
model is posed).  They also give the exact Hessian of the periodic energy
(`hessian_periodic`).  Stresses use the kernel-route field of `field`.

The P1 finite-element solves in `field` are an independent oracle for these
closed forms, called directly there: 0.5 * solve_periodic(...).interaction
and -solve_dirichlet(...).i_value are the discrete energies, and
`field.fem_forces` is their exact discrete gradient.

Wall moments and optimal boundary data: gamma_L = (mu/m) sum_j
exp(-(m/eps)(y_j - a_L)) (and mirrored for gamma_R) measure the charge seen
by each wall.  The energy is quadratic in g with

    D_g E = -m eps ((1-tau^2) c - gamma)^T T^{-1},   T = [[1, tau], [tau, 1]],

which vanishes exactly at g* = T gamma / (1 - tau^2); at that point the field
behaves as if mirror charges sat behind both walls (`mirror_energy`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .density import gauss_on_interval, grad_delta_eps, mu, self_moment
from .field import eval_green_dirichlet, eval_green_periodic
from .lattice import first_diff, positions

__all__ = [
    "GammaPair",
    "StressFunction",
    "self_energy",
    "energy_periodic",
    "forces_periodic",
    "hessian_periodic",
    "weak_form_periodic",
    "energy_dirichlet",
    "d_energy_dirichlet_y",
    "d_energy_dirichlet_a",
    "d_energy_dirichlet_g",
    "weak_form_dirichlet",
    "gamma_pair",
    "g_star",
    "mirror_energy",
    "stress_periodic",
    "stress_dirichlet",
]


def self_energy(profile, m, eps):
    """Per-atom self energy (eps/4m) * self_moment: the bump interacting with itself."""
    return eps / (4.0 * m) * self_moment(profile, m)


# ---------------------------------------------------------------------------
# pair sums
# ---------------------------------------------------------------------------


def _periodic_d_max(cfg, m):
    """Last in-period offset kept by the pair-sum cutoff 60/(m min y')."""
    smin = float(np.min(first_diff(cfg)))
    if smin > 0:
        return min(cfg.N, int(math.ceil(60.0 / (m * smin))) + 1)
    return cfg.N


def _free_d_max(y, m, eps):
    """Last index offset kept by the free pair-sum cutoff 60/(m min y')."""
    n = y.size
    smin = float(np.min(np.diff(y))) / eps if n > 1 else 1.0
    if smin <= 0:
        return n - 1
    return min(n - 1, int(math.ceil(60.0 / (m * max(smin, 1e-12)))) + 1)


def _pair_sum_periodic(cfg, m, want_grad=True):
    """Ordered double sum over distinct (atom, image) pairs of e^{-(m/eps) dist}.

    Offsets d = 1..N enumerate each unordered in-period pair once; the full
    image family of a pair with in-period gap d0 is the pair of geometric
    series (e^{-k d0} + e^{-k(L-d0)}) / (1 - e^{-kL}), and the j = k atom
    pairs with its own images through 2 q / (1 - q).  Terms with exponent
    beyond ~3 underflow thresholds are skipped.
    """
    y = positions(cfg)
    n = y.size
    eps, L = cfg.eps, cfg.L
    k = m / eps
    q = math.exp(-k * L)
    geo = 1.0 / (1.0 - q)
    s = n * 2.0 * q * geo
    grad = np.zeros(n) if want_grad else None
    idx = np.arange(n)
    for d in range(1, _periodic_d_max(cfg, m) + 1):
        jb = (idx + d) % n
        d0 = y[jb] - y[idx] + L * (jb < idx)
        el = np.exp(-k * d0)
        er = np.exp(-k * (L - d0))
        s += 2.0 * geo * float(np.sum(el + er))
        if want_grad:
            gterm = 2.0 * k * geo * (er - el)
            np.add.at(grad, jb, gterm)
            np.add.at(grad, idx, -gterm)
    return s, grad


def _pair_sum_free(y, m, eps, want_grad=True):
    """Ordered double sum over distinct pairs of e^{-(m/eps)|y_i - y_j|} (no images)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    k = m / eps
    s = 0.0
    grad = np.zeros(n) if want_grad else None
    for d in range(1, _free_d_max(y, m, eps) + 1):
        d0 = y[d:] - y[:-d]
        el = np.exp(-k * d0)
        s += 2.0 * float(np.sum(el))
        if want_grad:
            gterm = 2.0 * k * el
            np.add.at(grad, np.arange(d, n), -gterm)
            np.add.at(grad, np.arange(0, n - d), gterm)
    return s, grad


def _add_pair_curvature(hess, ia, ib, c):
    """Add c (e_a - e_b)(e_a - e_b)^T for every pair (a, b) = (ia, ib) at
    one offset: the index pairs of one offset are distinct, so plain fancy
    indexing accumulates without collisions."""
    hess[ia, ia] += c
    hess[ib, ib] += c
    hess[ia, ib] -= c
    hess[ib, ia] -= c


def _pair_sum_periodic_hessian(cfg, m):
    """Second derivatives of `_pair_sum_periodic` in the positions.

    A pair at in-period gap d0 contributes 2 geo k^2 (e^{-k d0} +
    e^{-k(L-d0)}) to the curvature along y_b - y_a; same cutoff as the sum.
    """
    y = positions(cfg)
    n = y.size
    k = m / cfg.eps
    geo = 1.0 / (1.0 - math.exp(-k * cfg.L))
    hess = np.zeros((n, n))
    idx = np.arange(n)
    for d in range(1, _periodic_d_max(cfg, m) + 1):
        jb = (idx + d) % n
        d0 = y[jb] - y[idx] + cfg.L * (jb < idx)
        _add_pair_curvature(hess, idx, jb,
                            2.0 * geo * k * k * (np.exp(-k * d0) + np.exp(-k * (cfg.L - d0))))
    return hess


def _pair_sum_free_hessian(y, m, eps):
    """Second derivatives of `_pair_sum_free`: 2 k^2 e^{-k d0} per pair."""
    y = np.asarray(y, dtype=float)
    n = y.size
    k = m / eps
    hess = np.zeros((n, n))
    for d in range(1, _free_d_max(y, m, eps) + 1):
        ia = np.arange(n - d)
        _add_pair_curvature(hess, ia, ia + d, 2.0 * k * k * np.exp(-k * (y[d:] - y[:-d])))
    return hess


def energy_periodic(cfg, profile, m):
    """Periodic chain energy E(y) = (1/2) integral rho_y phi: the exact
    resummed pair sum plus (2N+1) self energies."""
    muv = mu(profile, m)
    s, _ = _pair_sum_periodic(cfg, m, want_grad=False)
    return cfg.eps * muv**2 / (4.0 * m) * s + cfg.n_atoms * self_energy(profile, m, cfg.eps)


def forces_periodic(cfg, profile, m):
    """Gradient D_{y_j} E of the periodic energy, j = -N..N (closed form)."""
    muv = mu(profile, m)
    _, grad = _pair_sum_periodic(cfg, m)
    return cfg.eps * muv**2 / (4.0 * m) * grad


def hessian_periodic(cfg, profile, m):
    """Exact Hessian D^2 E of the periodic energy (pair closed form).

    The self energies are constant, so this is the resummed pair sum's
    curvature: symmetric, with zero row sums (translation invariance).
    """
    muv = mu(profile, m)
    return cfg.eps * muv**2 / (4.0 * m) * _pair_sum_periodic_hessian(cfg, m)


# ---------------------------------------------------------------------------
# stress
# ---------------------------------------------------------------------------


class StressFunction:
    """The stress sigma_y of a solved field, split into its two parts:

    sigma_1 = eps^2/2 |phi'|^2 - m^2/2 phi^2 + rho phi        (field part)
    sigma_2 = eps sum_images phi(x) grad_delta_eps(x - c) (x - c)

    `atoms` are the source positions; for periodic stress pass the period L
    so sources act through their nearest image.  `field_eval(x) -> (phi,
    phi')` supplies the field; integration splits at every bump edge so the
    Gauss rule never crosses a kink.
    """

    def __init__(self, field_eval, atoms, profile, m, eps, L=None):
        self.field_eval = field_eval
        self.atoms = np.asarray(atoms, dtype=float)
        self.profile = profile
        self.m = m
        self.eps = eps
        self.L = L
        self.w = profile.half_width * eps

    def _offsets(self, x):
        d = np.asarray(x, dtype=float)[:, None] - self.atoms[None, :]
        if self.L is not None:
            d -= self.L * np.round(d / self.L)
        return d

    def rho(self, x):
        d = self._offsets(x)
        d = np.where(np.abs(d) < self.w, d, self.w)
        return self.eps * np.sum(
            self.profile.delta1(d / self.eps) / self.eps, axis=1
        )

    def sigma1(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v, g = self.field_eval(x)
        return 0.5 * self.eps**2 * g**2 - 0.5 * self.m**2 * v**2 + self.rho(x) * v

    def sigma2(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v, _ = self.field_eval(x)
        d = self._offsets(x)
        d = np.where(np.abs(d) < self.w, d, self.w)
        gd = grad_delta_eps(self.profile, self.eps, d)
        return self.eps * v * np.sum(gd * d, axis=1)

    def __call__(self, x):
        return self.sigma1(x) + self.sigma2(x)

    def _breakpoints(self, a, b):
        pts = [a, b]
        for c in self.atoms:
            for edge in (c - self.w, c + self.w):
                e = edge
                if self.L is not None:
                    # bring in every image of this edge that lies inside (a, b)
                    nlo = math.floor((a - e) / self.L)
                    nhi = math.ceil((b - e) / self.L)
                    for n in range(nlo, nhi + 1):
                        if a < e + n * self.L < b:
                            pts.append(e + n * self.L)
                    continue
                if a < e < b:
                    pts.append(e)
        return np.unique(np.asarray(pts, dtype=float))

    def integral(self, a, b, order=24):
        """integral of sigma over (a, b), split at bump edges."""
        if b <= a:
            return 0.0
        pts = self._breakpoints(a, b)
        acc = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            z, wq = gauss_on_interval(lo, hi, order)
            acc += float(np.sum(wq * self(z)))
        return acc


def stress_periodic(cfg, profile, m):
    """StressFunction of the periodic field (kernel route)."""
    def fe(x):
        return eval_green_periodic(cfg, profile, m, x)
    return StressFunction(fe, positions(cfg), profile, m, cfg.eps, L=cfg.L)


def stress_dirichlet(y_at, bd, profile):
    """StressFunction of the slab field (kernel route)."""
    def fe(x):
        return eval_green_dirichlet(y_at, bd, profile, x)
    return StressFunction(fe, y_at, profile, bd.m, bd.eps, L=None)


def weak_form_periodic(cfg, u, profile, m):
    """integral sigma_y grad(u-interpolant) over the period.

    u holds nodal values at atoms -N..N; the interpolant is piecewise affine
    between consecutive atoms (periodic closure).  Equals forces . u for the
    exact field; the kernel-route stress realises that identity to
    quadrature precision.
    """
    u = np.asarray(u, dtype=float)
    y = positions(cfg, -cfg.N - 1, cfg.N)
    uu = np.concatenate([[u[-1]], u])  # periodic: u_{-N-1} = u_N
    sf = stress_periodic(cfg, profile, m)
    acc = 0.0
    for j in range(1, y.size):
        du = uu[j] - uu[j - 1]
        if du == 0.0:
            continue
        acc += du / (y[j] - y[j - 1]) * sf.integral(float(y[j - 1]), float(y[j]))
    return acc


# ---------------------------------------------------------------------------
# slab energies: closed-form core
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaPair:
    """Wall moments (gamma_L, gamma_R) of the slab charge; both nonnegative."""

    gamma_L: float
    gamma_R: float

    def __post_init__(self):
        if self.gamma_L < 0 or self.gamma_R < 0:
            raise ValueError("wall moments of a nonnegative density are nonnegative")


def _wall_sums(y, bd):
    k = bd.m / bd.eps
    s_l = np.exp(-k * (np.asarray(y, dtype=float) - bd.a_L))
    s_r = np.exp(-k * (bd.a_R - np.asarray(y, dtype=float)))
    return s_l, s_r


def gamma_pair(y_at, bd, profile):
    """Closed-form wall moments gamma = (mu/m) sum_j e^{-(m/eps) dist(y_j, wall)}."""
    muv = mu(profile, bd.m)
    s_l, s_r = _wall_sums(y_at, bd)
    return GammaPair(muv / bd.m * float(np.sum(s_l)), muv / bd.m * float(np.sum(s_r)))


def g_star(y_at, bd, profile):
    """Boundary data that makes the slab energy stationary in g.

    g* = T gamma / (1 - tau^2) with T = [[1, tau], [tau, 1]]; the layer
    coefficients are then c* = gamma / (1 - tau^2).
    """
    gp = gamma_pair(y_at, bd, profile)
    tau = bd.tau
    det = 1.0 - tau * tau
    return (
        (gp.gamma_L + tau * gp.gamma_R) / det,
        (tau * gp.gamma_L + gp.gamma_R) / det,
    )


def _slab_core(s_free, gam_l, gam_r, tau, g_l, g_r, m, eps):
    """Slab energy as an explicit function of its reduced variables, with partials.

    E = (eps mu^2 / 4m) s_free + n_at * E_self    [added by caller]
        - (m eps/4)(gL^2 + gR^2)
        - (m eps/4) (tau/D) (tau (gL^2+gR^2) - 2 gL gR)        [wall images]
        - m eps [ D (cL^2 + cR^2)/2 - (cL gL + cR gR) ]        [-I(xi)]

    with D = 1 - tau^2 and c = T^{-1} g.  Returns (value_without_pair_part,
    d/dgamma_L, d/dgamma_R, d/dtau, d/dg_L, d/dg_R).
    """
    d = 1.0 - tau * tau
    c_l = (g_l - tau * g_r) / d
    c_r = (g_r - tau * g_l) / d

    a_val = -(m * eps / 4.0) * (gam_l**2 + gam_r**2) \
        - (m * eps / 4.0) * (tau / d) * (tau * (gam_l**2 + gam_r**2) - 2.0 * gam_l * gam_r)
    b_val = -m * eps * (0.5 * d * (c_l**2 + c_r**2) - (c_l * gam_l + c_r * gam_r))

    da_dgl = -(m * eps / 2.0) * gam_l - (m * eps / 2.0) * (tau / d) * (tau * gam_l - gam_r)
    da_dgr = -(m * eps / 2.0) * gam_r - (m * eps / 2.0) * (tau / d) * (tau * gam_r - gam_l)
    da_dtau = -(m * eps / 2.0) * (tau * (gam_l**2 + gam_r**2) - (1.0 + tau * tau) * gam_l * gam_r) / d**2

    db_dgl = m * eps * c_l
    db_dgr = m * eps * c_r
    cp_l = (2.0 * tau * g_l - (1.0 + tau * tau) * g_r) / d**2  # d c_l / d tau
    cp_r = (2.0 * tau * g_r - (1.0 + tau * tau) * g_l) / d**2
    db_dtau = -m * eps * (
        -tau * (c_l**2 + c_r**2) + d * (c_l * cp_l + c_r * cp_r) - (gam_l * cp_l + gam_r * cp_r)
    )
    # d/dg via dc/dg = T^{-1}
    db_dgl_data = -m * eps * ((d * c_l - gam_l) - tau * (d * c_r - gam_r)) / d
    db_dgr_data = -m * eps * ((d * c_r - gam_r) - tau * (d * c_l - gam_l)) / d

    return (
        a_val + b_val,
        da_dgl + db_dgl,
        da_dgr + db_dgr,
        da_dtau + db_dtau,
        db_dgl_data,
        db_dgr_data,
    )


def _slab_pair_part(y_at, bd, profile):
    muv = mu(profile, bd.m)
    s_free, grad = _pair_sum_free(y_at, bd.m, bd.eps)
    pref = bd.eps * muv**2 / (4.0 * bd.m)
    n_at = np.asarray(y_at).size
    return (
        pref * s_free + n_at * self_energy(profile, bd.m, bd.eps),
        pref * grad,
    )


def energy_dirichlet(y_at, bd, profile):
    """Slab energy E_{a,g}(y) = -I_a(phi) at the solved Dirichlet field, in
    the exact closed form -I(phi_0) - I(xi_g) for any boundary data g."""
    pair_val, _ = _slab_pair_part(y_at, bd, profile)
    gp = gamma_pair(y_at, bd, profile)
    core = _slab_core(0.0, gp.gamma_L, gp.gamma_R, bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    return pair_val + core[0]


def mirror_energy(y_at, bd, profile):
    """Slab energy at the stationary data g*, in mirror-charge form.

    E* = P_dir/(4 m eps) + (m eps/4) (gamma_L^2 + gamma_R^2 + 2 tau gamma_L
    gamma_R) / (1 - tau^2): the direct pair interactions plus the charge
    interacting with its own mirror images behind each wall (gamma^2 terms)
    and the cross-wall image term (the tau piece).
    """
    pair_val, _ = _slab_pair_part(y_at, bd, profile)
    gp = gamma_pair(y_at, bd, profile)
    tau = bd.tau
    return pair_val + (bd.m * bd.eps / 4.0) * (
        (gp.gamma_L**2 + gp.gamma_R**2 + 2.0 * tau * gp.gamma_L * gp.gamma_R)
        / (1.0 - tau * tau)
    )


def d_energy_dirichlet_y(y_at, bd, profile):
    """Gradient of the slab energy in the atom positions (fixed a, g)."""
    _, pair_grad = _slab_pair_part(y_at, bd, profile)
    gp = gamma_pair(y_at, bd, profile)
    core = _slab_core(0.0, gp.gamma_L, gp.gamma_R, bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    muv = mu(profile, bd.m)
    k = bd.m / bd.eps
    s_l, s_r = _wall_sums(y_at, bd)
    dgl_dy = -(muv / bd.m) * k * s_l
    dgr_dy = (muv / bd.m) * k * s_r
    return pair_grad + core[1] * dgl_dy + core[2] * dgr_dy


def d_energy_dirichlet_g(y_at, bd, profile):
    """Closed-form gradient in the boundary data:
    D_g E = -m eps ((1-tau^2) c - gamma)^T T^{-1}; zero exactly at g = g*."""
    gp = gamma_pair(y_at, bd, profile)
    core = _slab_core(0.0, gp.gamma_L, gp.gamma_R, bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    return np.array([core[4], core[5]])


def d_energy_dirichlet_a(y_at, bd, profile, backend="green", order=32):
    """Derivatives of the slab energy in the wall positions (fixed y, g).

    green: D_{a_R} E = integral sigma_y grad theta_R with theta_R the hat
    rising from 0 at the outermost atom to 1 at a_R (similarly theta_L), so
    each derivative is a window average of the stress next to its wall.
    pair: differentiate the closed form through gamma(a) and tau(a).
    """
    y = np.asarray(y_at, dtype=float)
    if backend == "green":
        sf = stress_dirichlet(y, bd, profile)
        span_r = bd.a_R - float(y[-1])
        span_l = float(y[0]) - bd.a_L
        d_ar = sf.integral(float(y[-1]), bd.a_R, order) / span_r
        d_al = -sf.integral(bd.a_L, float(y[0]), order) / span_l
        return d_al, d_ar
    if backend == "pair":
        gp = gamma_pair(y, bd, profile)
        core = _slab_core(0.0, gp.gamma_L, gp.gamma_R, bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
        k = bd.m / bd.eps
        # dgamma_L/da_L = +k gamma_L, dgamma_R/da_R = -k gamma_R,
        # dtau/da_L = +k tau, dtau/da_R = -k tau
        d_al = core[1] * (k * gp.gamma_L) + core[3] * (k * bd.tau)
        d_ar = core[2] * (-k * gp.gamma_R) + core[3] * (-k * bd.tau)
        return float(d_al), float(d_ar)
    raise ValueError("unknown backend %r" % backend)


def weak_form_dirichlet(y_at, bd, profile, u, order=24):
    """integral sigma_y grad(u-interpolant) for u vanishing on the walls.

    Interpolation nodes are a_L, the atoms, a_R with values 0, u, 0; equals
    d_energy_dirichlet_y . u for the exact field.
    """
    y = np.asarray(y_at, dtype=float)
    u = np.asarray(u, dtype=float)
    nodes = np.concatenate([[bd.a_L], y, [bd.a_R]])
    vals = np.concatenate([[0.0], u, [0.0]])
    sf = stress_dirichlet(y, bd, profile)
    acc = 0.0
    for j in range(1, nodes.size):
        du = vals[j] - vals[j - 1]
        if du == 0.0:
            continue
        acc += du / (nodes[j] - nodes[j - 1]) * sf.integral(float(nodes[j - 1]), float(nodes[j]), order)
    return acc
