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

The pair sums have no cutoff.  The kernel factorizes along the chain (a
pair's weight is the product of the per-gap factors x_l = e^{-(m/eps) g_l}
between the two atoms), so the sums F_i over every atom right of atom i obey
F_i = x_i (1 + F_{i+1}): a doubling scan of that recurrence, closed in closed
form over the periodic images (`field._right_sums`, which also sums every
closed-form field).  A sum and its gradient cost O(n log n); the dense pair
Hessian sums every pair.

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

import numpy as np
from .density import _bump_offsets, gauss_on_interval, grad_delta_eps, mu, self_moment
from .field import _check_inside_slab, _right_sums, eval_green_dirichlet, eval_green_periodic
from .lattice import positions

__all__ = [
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


def _pair_sum(y, k, L=None, want_grad=True):
    """Ordered double sum S over distinct pairs of e^{-k dist}, with every
    image of a period L (an atom's own images included), and dS/dy.

    From the right sums F and the left sums Lt (the right sums of the
    reflected chain): S = 2 sum F and dS/dy = 2k (F - Lt), exact with no
    cutoff; the only cancellation is the final difference.
    """
    y = np.asarray(y, dtype=float)
    right = _right_sums(y, k, L)
    s = 2.0 * float(np.sum(right))
    if not want_grad:
        return s, None
    left = _right_sums(-y[::-1], k, L)[::-1]
    return s, 2.0 * k * (right - left)


def _pair_hessian(y, k, L=None):
    """Second derivatives of `_pair_sum` in the positions (ascending y).

    A pair at in-period gap d0 = y_j - y_i (j > i) contributes
    2 k^2 e^{-k d0} to the curvature along y_j - y_i; with a period,
    2 k^2 (e^{-k d0} + e^{-k(L-d0)}) / (1 - e^{-kL}) for all its images.
    The upper triangle of `gap` holds d0 and the lower one the wrapped gap
    y_j - y_i + L (+inf without a period: no term), so one exp gives every
    term and e + e^T is exactly symmetric.  The diagonal is minus the row sum.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    gap = y[None, :] - y[:, None]
    np.add(gap, np.inf if L is None else L, out=gap, where=np.tri(n, k=-1, dtype=bool))
    e = np.exp(-k * gap)
    scale = -2.0 * k * k if L is None else 2.0 * k * k / math.expm1(-k * L)
    hess = scale * (e + e.T)
    np.fill_diagonal(hess, 0.0)
    np.fill_diagonal(hess, -np.sum(hess, axis=1))
    return hess


def energy_periodic(cfg, profile, m):
    """Periodic chain energy E(y) = (1/2) integral rho_y phi: the exact
    resummed pair sum plus (2N+1) self energies."""
    muv = mu(profile, m)
    s, _ = _pair_sum(positions(cfg), m / cfg.eps, cfg.L, want_grad=False)
    return cfg.eps * muv**2 / (4.0 * m) * s + cfg.n_atoms * self_energy(profile, m, cfg.eps)


def forces_periodic(cfg, profile, m):
    """Gradient D_{y_j} E of the periodic energy, j = -N..N (closed form)."""
    muv = mu(profile, m)
    _, grad = _pair_sum(positions(cfg), m / cfg.eps, cfg.L)
    return cfg.eps * muv**2 / (4.0 * m) * grad


def hessian_periodic(cfg, profile, m):
    """Exact Hessian D^2 E of the periodic energy (pair closed form).

    The self energies are constant, so this is the resummed pair sum's
    curvature: symmetric, with zero row sums (translation invariance).
    """
    muv = mu(profile, m)
    return cfg.eps * muv**2 / (4.0 * m) * _pair_hessian(positions(cfg), m / cfg.eps, cfg.L)


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

    def rho(self, x):
        d = _bump_offsets(self.atoms, self.w, x, self.L)
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
        d = _bump_offsets(self.atoms, self.w, x, self.L)
        gd = grad_delta_eps(self.profile, self.eps, d)
        return self.eps * v * np.sum(gd * d, axis=1)

    def __call__(self, x):
        return self.sigma1(x) + self.sigma2(x)

    def _breakpoints(self, a, b):
        """a, b and every bump edge inside (a, b), images included, sorted."""
        edges = np.concatenate([self.atoms - self.w, self.atoms + self.w])
        if self.L is not None:
            n = np.arange(math.floor((a - edges.max()) / self.L),
                          math.ceil((b - edges.min()) / self.L) + 1)
            edges = (edges[:, None] + n * self.L).ravel()
        inside = edges[(a < edges) & (edges < b)]
        return np.unique(np.concatenate([[a, b], inside]))

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


def _weak_form(sf, nodes, vals, order=24):
    """integral of the stress sf against the gradient of the piecewise-affine
    interpolant through (nodes, vals): each piece's slope times the stress
    integral over the piece (flat pieces skipped)."""
    acc = 0.0
    for j in range(1, nodes.size):
        du = vals[j] - vals[j - 1]
        if du == 0.0:
            continue
        acc += du / (nodes[j] - nodes[j - 1]) * sf.integral(float(nodes[j - 1]), float(nodes[j]), order)
    return acc


def weak_form_periodic(cfg, u, profile, m):
    """integral sigma_y grad(u-interpolant) over the period.

    u holds nodal values at atoms -N..N; the interpolant is piecewise affine
    between consecutive atoms (periodic closure).  Equals forces . u for the
    exact field; the kernel-route stress realises that identity to
    quadrature precision.
    """
    u = np.asarray(u, dtype=float)
    uu = np.concatenate([[u[-1]], u])  # periodic: u_{-N-1} = u_N
    return _weak_form(stress_periodic(cfg, profile, m), positions(cfg, -cfg.N - 1, cfg.N), uu)


# ---------------------------------------------------------------------------
# slab energies: closed-form core
# ---------------------------------------------------------------------------


def _wall_sums(y, bd):
    """(e^{-k (y_j - a_L)}, e^{-k (a_R - y_j)}) with k = m/eps."""
    k = bd.m / bd.eps
    s_l = np.exp(-k * (np.asarray(y, dtype=float) - bd.a_L))
    s_r = np.exp(-k * (bd.a_R - np.asarray(y, dtype=float)))
    return s_l, s_r


def gamma_pair(y_at, bd, profile):
    """Closed-form wall moments (gamma_L, gamma_R) of the slab charge,
    gamma = (mu/m) sum_j e^{-(m/eps) dist(y_j, wall)}.  Every slab closed
    form goes through here, so this is where they reject a bump outside the
    slab or touching a wall, and a NaN position."""
    _check_inside_slab(y_at, bd, profile)
    muv = mu(profile, bd.m)
    s_l, s_r = _wall_sums(y_at, bd)
    return muv / bd.m * float(np.sum(s_l)), muv / bd.m * float(np.sum(s_r))


def g_star(y_at, bd, profile):
    """Boundary data that makes the slab energy stationary in g.

    g* = T gamma / (1 - tau^2) with T = [[1, tau], [tau, 1]]; the layer
    coefficients are then c* = gamma / (1 - tau^2).
    """
    gam_l, gam_r = gamma_pair(y_at, bd, profile)
    tau = bd.tau
    det = 1.0 - tau * tau
    return (gam_l + tau * gam_r) / det, (tau * gam_l + gam_r) / det


def _slab_core(gam_l, gam_r, tau, g_l, g_r, m, eps):
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


def _slab_pair_part(y_at, bd, profile, want_grad=True):
    """The slab's direct pair energy plus its self energies, and (with
    want_grad) the pair energy's gradient in the positions, else None."""
    muv = mu(profile, bd.m)
    s_free, grad = _pair_sum(y_at, bd.m / bd.eps, want_grad=want_grad)
    pref = bd.eps * muv**2 / (4.0 * bd.m)
    n_at = np.asarray(y_at).size
    return (
        pref * s_free + n_at * self_energy(profile, bd.m, bd.eps),
        None if grad is None else pref * grad,
    )


def energy_dirichlet(y_at, bd, profile):
    """Slab energy E_{a,g}(y) = -I_a(phi) at the solved Dirichlet field, in
    the exact closed form -I(phi_0) - I(xi_g) for any boundary data g."""
    core = _slab_core(*gamma_pair(y_at, bd, profile), bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    pair_val, _ = _slab_pair_part(y_at, bd, profile, want_grad=False)
    return pair_val + core[0]


def mirror_energy(y_at, bd, profile):
    """Slab energy at the stationary data g*, in mirror-charge form.

    E* = P_dir/(4 m eps) + (m eps/4) (gamma_L^2 + gamma_R^2 + 2 tau gamma_L
    gamma_R) / (1 - tau^2): the direct pair interactions plus the charge
    interacting with its own mirror images behind each wall (gamma^2 terms)
    and the cross-wall image term (the tau piece).  The couplings evaluate
    `energy_dirichlet` at g*; this independent form checks it.
    """
    gam_l, gam_r = gamma_pair(y_at, bd, profile)
    pair_val, _ = _slab_pair_part(y_at, bd, profile, want_grad=False)
    tau = bd.tau
    return pair_val + (bd.m * bd.eps / 4.0) * (
        (gam_l**2 + gam_r**2 + 2.0 * tau * gam_l * gam_r) / (1.0 - tau * tau)
    )


def _slab_gradient(y_at, bd, profile):
    """Every first derivative of the slab energy from one pass:
    (D_y E, (D_{a_L} E, D_{a_R} E), D_g E).

    One slab check, one pair of wall sums (the moments gamma are summed from
    them), one `_slab_core` and one pair gradient.  D_y E goes through
    gamma(y), D_a E through gamma(a) and tau(a):
    dgamma_L/da_L = +k gamma_L, dgamma_R/da_R = -k gamma_R,
    dtau/da_L = +k tau, dtau/da_R = -k tau.
    """
    _check_inside_slab(y_at, bd, profile)
    muv = mu(profile, bd.m)
    k = bd.m / bd.eps
    s_l, s_r = _wall_sums(y_at, bd)
    gam_l, gam_r = muv / bd.m * float(np.sum(s_l)), muv / bd.m * float(np.sum(s_r))
    core = _slab_core(gam_l, gam_r, bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    _, pair_grad = _slab_pair_part(y_at, bd, profile)
    dgl_dy = -(muv / bd.m) * k * s_l
    dgr_dy = (muv / bd.m) * k * s_r
    d_al = core[1] * (k * gam_l) + core[3] * (k * bd.tau)
    d_ar = core[2] * (-k * gam_r) + core[3] * (-k * bd.tau)
    return (pair_grad + core[1] * dgl_dy + core[2] * dgr_dy,
            (float(d_al), float(d_ar)),
            np.array([core[4], core[5]]))


def d_energy_dirichlet_y(y_at, bd, profile):
    """Gradient of the slab energy in the atom positions (fixed a, g)."""
    return _slab_gradient(y_at, bd, profile)[0]


def d_energy_dirichlet_g(y_at, bd, profile):
    """Closed-form gradient in the boundary data:
    D_g E = -m eps ((1-tau^2) c - gamma)^T T^{-1}; zero exactly at g = g*."""
    return _slab_gradient(y_at, bd, profile)[2]


def d_energy_dirichlet_a(y_at, bd, profile):
    """Derivatives (d/da_L, d/da_R) of the slab energy in the wall positions
    (fixed y, g): the closed form differentiated through gamma(a) and tau(a).

    They equal window averages of the stress next to each wall,
    D_{a_R} E = integral sigma_y grad theta_R with theta_R the hat rising
    from 0 at the outermost atom to 1 at a_R (similarly theta_L).
    """
    return _slab_gradient(y_at, bd, profile)[1]


def weak_form_dirichlet(y_at, bd, profile, u, order=24):
    """integral sigma_y grad(u-interpolant) for u vanishing on the walls.

    Interpolation nodes are a_L, the atoms, a_R with values 0, u, 0; equals
    d_energy_dirichlet_y . u for the exact field.
    """
    y = np.asarray(y_at, dtype=float)
    nodes = np.concatenate([[bd.a_L], y, [bd.a_R]])
    vals = np.concatenate([[0.0], np.asarray(u, dtype=float), [0.0]])
    return _weak_form(stress_dirichlet(y, bd, profile), nodes, vals, order)
