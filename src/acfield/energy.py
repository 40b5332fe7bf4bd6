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
(`hessian_periodic_structured`; `.dense()` expands it to an array).
The forces' oracle, the weak form DE . u = integral sigma_y (Iu)', is in the
tests (tests/oracle_stress.py).

The pair sums have no cutoff.  The kernel factorizes along the chain (a
pair's weight is the product of the per-gap factors x_l = e^{-(m/eps) g_l}
between the two atoms), so the sums F_i over every atom right of atom i obey
F_i = x_i (1 + F_{i+1}): a doubling scan of that recurrence, closed in closed
form over the periodic images (`field._right_sums`, which also sums every
closed-form field).  A sum and its gradient cost O(n log n); the dense pair
Hessian sums every pair.

A configuration is scanned once per side.  Its periodic chain's right and
left sums (`field._ChainSums`) are made on first use by whichever of
`energy_periodic`, `forces_periodic`, `hessian_periodic_structured` and
`eval_green_periodic` needs them, and read by the others; the couplings in
`ac` share their window's sums and wall data the same way.  They are kept,
read-only, for the most recent configuration object only (`field._kept`):
a call on another configuration drops them.  The slab routes here, which
take bare positions, scan afresh.

The P1 finite-element solves in `field` are an independent oracle for these
closed forms, called directly there: 0.5 * solve_periodic(...).interaction
and -solve_dirichlet(...).i_value are the discrete energies, and the tests'
`fem_forces` (tests/oracle_fem.py) is their exact discrete gradient.

Wall moments and optimal boundary data: gamma_L = (mu/m) sum_j
exp(-(m/eps)(y_j - a_L)) (and mirrored for gamma_R) measure the charge seen
by each wall.  They come from one `field._walls` pass, which g* and every
slab route share.  The energy is quadratic in g with

    D_g E = -m eps ((1-tau^2) c - gamma)^T T^{-1},   T = [[1, tau], [tau, 1]],

which vanishes exactly at g* = T gamma / (1 - tau^2); at that point the field
behaves as if mirror charges sat behind both walls (`mirror_energy`).
"""

import numpy as np
from .density import _curvature_prefactor, _mu_squared, check_separated, mu, self_moment
from .field import _ChainSums, _periodic_sums, _t_solve, _walls
from .hessian import Green, StructuredHessian
from .lattice import positions

__all__ = [
    "self_energy",
    "energy_periodic",
    "forces_periodic",
    "hessian_periodic_structured",
    "energy_dirichlet",
    "d_energy_dirichlet_y",
    "d_energy_dirichlet_a",
    "d_energy_dirichlet_g",
    "gamma_pair",
    "g_star",
    "mirror_energy",
]


def self_energy(profile, m, eps):
    """Per-atom self energy (eps/4m) * self_moment: the bump interacting with itself."""
    return eps / (4.0 * m) * self_moment(profile, m)


# ---------------------------------------------------------------------------
# pair sums
# ---------------------------------------------------------------------------


def _pair_sum(sums, want_grad=True):
    """Ordered double sum S over distinct pairs of e^{-k dist} of the chain
    of `sums` (a `field._ChainSums`), with every image of its period L (an
    atom's own images included), and dS/dy.

    From the right sums F and the left sums Lt (the right sums of the
    reflected chain): S = 2 sum F and dS/dy = 2k (F - Lt), exact with no
    cutoff; the only cancellation is the final difference.  The energy
    alone needs only F.
    """
    s = 2.0 * float(np.sum(sums.right))
    if not want_grad:
        return s, None
    return s, 2.0 * sums.k * (sums.right - sums.left)


def _pair_curvature(sums):
    """The Hessian of `_pair_sum` in the positions as D - 4k^3 Gamma, with
    Gamma the Green's matrix of -u'' + k^2 u at y (`hessian.Green`); returns
    the diagonal D.

    A pair at distance d has curvature 2k^2 e^{-k d} along y_j - y_i, summed
    over its images; that is 4k^3 Gamma_ij.  Translation invariance makes
    D_i = 4k^3 sum_j Gamma_ij = 2k^2 (1 + F_i + Lt_i) with the right and
    left sums (own images included).
    """
    k = sums.k
    return 2.0 * k * k * (1.0 + sums.right + sums.left)


def energy_periodic(cfg, profile, m):
    """Periodic chain energy E(y) = (1/2) integral rho_y phi: the exact
    resummed pair sum plus (2N+1) self energies."""
    check_separated(cfg, profile, "energy_periodic")
    mu2 = _mu_squared(mu(profile, m), m)
    s, _ = _pair_sum(_periodic_sums(cfg, m), want_grad=False)
    return cfg.eps * mu2 / (4.0 * m) * s + cfg.n_atoms * self_energy(profile, m, cfg.eps)


def forces_periodic(cfg, profile, m):
    """Gradient D_{y_j} E of the periodic energy, j = -N..N (closed form)."""
    check_separated(cfg, profile, "forces_periodic")
    mu2 = _mu_squared(mu(profile, m), m)
    _, grad = _pair_sum(_periodic_sums(cfg, m))
    return cfg.eps * mu2 / (4.0 * m) * grad


def hessian_periodic_structured(cfg, profile, m):
    """Exact Hessian D^2 E of the periodic energy in structured form
    (`hessian.StructuredHessian`): a diagonal minus a multiple of the
    periodic Green's matrix of the atoms.

    The self energies are constant, so this is the resummed pair sum's
    curvature: symmetric, with zero row sums (translation invariance).
    """
    check_separated(cfg, profile, "hessian_periodic_structured")
    k = m / cfg.eps
    pref = cfg.eps * _mu_squared(mu(profile, m), m) / (4.0 * m)
    amp = _curvature_prefactor(pref * 4.0 * k**3, m)
    y = positions(cfg)
    n = cfg.n_atoms
    return StructuredHessian(pref * _pair_curvature(_periodic_sums(cfg, m)), np.zeros(n),
                             Green(0, amp, y, k, cfg.L), np.zeros((n, 0)), np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# slab energies: closed-form core
# ---------------------------------------------------------------------------


def gamma_pair(y_at, bd, profile):
    """Closed-form wall moments (gamma_L, gamma_R) of the slab charge,
    gamma = (mu/m) sum_j e^{-(m/eps) dist(y_j, wall)} (`field._walls`)."""
    return _walls(y_at, bd, profile)[2:]


def _g_star(gam_l, gam_r, tau):
    """g* = T gamma / (1 - tau^2) from the moments; plain arithmetic."""
    det = 1.0 - tau * tau
    return (gam_l + tau * gam_r) / det, (tau * gam_l + gam_r) / det


def g_star(y_at, bd, profile):
    """Boundary data g* = T gamma / (1 - tau^2), T = [[1, tau], [tau, 1]], that
    makes the slab energy stationary in g; its layer coefficients are
    c* = gamma / (1 - tau^2)."""
    return _g_star(*gamma_pair(y_at, bd, profile), bd.tau)


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
    c_l, c_r = _t_solve(g_l, g_r, tau)

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


def _slab_pair_part(sums, bd, profile, want_grad=True):
    """The slab's direct pair energy plus its self energies, and (with
    want_grad) the pair energy's gradient in the positions, else None; from
    the slab atoms' chain sums."""
    mu2 = _mu_squared(mu(profile, bd.m), bd.m)
    s_free, grad = _pair_sum(sums, want_grad=want_grad)
    pref = bd.eps * mu2 / (4.0 * bd.m)
    n_at = sums.y.size
    return (
        pref * s_free + n_at * self_energy(profile, bd.m, bd.eps),
        None if grad is None else pref * grad,
    )


def _slab_energy(sums, bd, profile, walls):
    """`energy_dirichlet` on the slab atoms' chain sums and `field._walls`
    pass."""
    core = _slab_core(*walls[2:], bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    pair_val, _ = _slab_pair_part(sums, bd, profile, want_grad=False)
    return pair_val + core[0]


def energy_dirichlet(y_at, bd, profile):
    """Slab energy E_{a,g}(y) = -I_a(phi) at the solved Dirichlet field, in
    the exact closed form -I(phi_0) - I(xi_g) for any boundary data g."""
    return _slab_energy(_ChainSums(y_at, bd.m / bd.eps), bd, profile, _walls(y_at, bd, profile))


def mirror_energy(y_at, bd, profile):
    """Slab energy at the stationary data g*, in mirror-charge form.

    E* = P_dir/(4 m eps) + (m eps/4) (gamma_L^2 + gamma_R^2 + 2 tau gamma_L
    gamma_R) / (1 - tau^2): the direct pair interactions plus the charge
    interacting with its own mirror images behind each wall (gamma^2 terms)
    and the cross-wall image term (the tau piece).  The couplings evaluate
    `energy_dirichlet` at g*; this independent form checks it.
    """
    gam_l, gam_r = gamma_pair(y_at, bd, profile)
    pair_val, _ = _slab_pair_part(_ChainSums(y_at, bd.m / bd.eps), bd, profile, want_grad=False)
    tau = bd.tau
    return pair_val + (bd.m * bd.eps / 4.0) * (
        (gam_l**2 + gam_r**2 + 2.0 * tau * gam_l * gam_r) / (1.0 - tau * tau)
    )


def _slab_gradient(sums, bd, profile, walls):
    """Every first derivative (D_y E, (D_{a_L} E, D_{a_R} E), D_g E) of the
    slab energy from its `field._walls` pass, one `_slab_core` and one pair
    gradient (on the slab atoms' chain sums).  D_y E goes through gamma(y),
    D_a E through gamma(a) and tau(a): dgamma_L/da_L = +k gamma_L,
    dgamma_R/da_R = -k gamma_R, dtau/da_L = +k tau, dtau/da_R = -k tau."""
    s_l, s_r, gam_l, gam_r = walls
    muv = mu(profile, bd.m)
    k = bd.m / bd.eps
    core = _slab_core(gam_l, gam_r, bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    _, pair_grad = _slab_pair_part(sums, bd, profile)
    dgl_dy = -(muv / bd.m) * k * s_l
    dgr_dy = (muv / bd.m) * k * s_r
    d_al = core[1] * (k * gam_l) + core[3] * (k * bd.tau)
    d_ar = core[2] * (-k * gam_r) + core[3] * (-k * bd.tau)
    return (pair_grad + core[1] * dgl_dy + core[2] * dgr_dy,
            (float(d_al), float(d_ar)),
            np.array([core[4], core[5]]))


def d_energy_dirichlet_y(y_at, bd, profile):
    """Gradient of the slab energy in the atom positions (fixed a, g)."""
    walls = _walls(y_at, bd, profile)
    return _slab_gradient(_ChainSums(y_at, bd.m / bd.eps), bd, profile, walls)[0]


def d_energy_dirichlet_g(y_at, bd, profile):
    """Closed-form gradient in the boundary data:
    D_g E = -m eps ((1-tau^2) c - gamma)^T T^{-1}; zero exactly at g = g*."""
    core = _slab_core(*gamma_pair(y_at, bd, profile), bd.tau, bd.g_L, bd.g_R, bd.m, bd.eps)
    return np.array([core[4], core[5]])


def d_energy_dirichlet_a(y_at, bd, profile):
    """Derivatives (d/da_L, d/da_R) of the slab energy in the wall positions
    (fixed y, g): the closed form differentiated through gamma(a) and tau(a).

    They equal window averages of the stress next to each wall,
    D_{a_R} E = integral sigma_y grad theta_R with theta_R the hat rising
    from 0 at the outermost atom to 1 at a_R (similarly theta_L).
    """
    walls = _walls(y_at, bd, profile)
    return _slab_gradient(_ChainSums(y_at, bd.m / bd.eps), bd, profile, walls)[1]

