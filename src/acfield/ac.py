"""Atomistic/continuum coupled energies and their calculus.

Both couplings keep the 2K+1 central atoms fully atomistic inside the window
Omega_a = (a_L, a_R), with a_L = (y_{-K-1}+y_{-K})/2 and a_R = (y_K+y_{K+1})/2
the midpoints between the interface atom pairs, and replace the outside by
per-cell Cauchy-Born energies: full cells beyond the interface, the two cells
straddling a_L, a_R at half weight.  The methods differ only in the boundary
data of the atomistic slab:

* method 1 hands the slab its stationary data g*(y).  Since D_g E vanishes
  there, g*'s own y-dependence drops out of the forces (envelope argument),
  and the derivative is a pure stress form: the coupled stress sigma^qc is
  sigma^cb cell by cell outside, the slab stress inside.

* method 2 solves the two interface cell problems instead: g is the
  comparison-chain field of the interface cell evaluated at the wall, which
  collapses to g(s) = (mu/m) sqrt(x)/(1-x), x = e^{-m s}, a function of the
  single interface strain.  Its y-dependence contributes an explicit extra
  chain-rule term, and no pure stress form exists.

Energies, forces and the exact Hessian (`ac_hessian`) ride on the exact
pair/closed forms of `energy` throughout; FEM appears only in cross-checks at
test level.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cauchy_born import (
    cb_cell_denergy,
    cb_cell_energy,
    cb_hessian,
    cell_state,
    cb_stress_function,
)
from .density import check_separated, mu
from .energy import (
    _pair_hessian,
    _slab_core,
    _slab_gradient,
    _wall_sums,
    _weak_form,
    energy_dirichlet,
    forces_periodic,
    g_star,
    stress_dirichlet,
)
from .field import BoundaryData
from .lattice import DiscreteNormParams, first_diff, norm_weighted, positions, second_diff

__all__ = [
    "AcPartition",
    "AcMethod",
    "method1",
    "method2",
    "ac_energy",
    "ac_forces",
    "ac_hessian",
    "g_method2",
    "d_g_method2",
    "sigma_qc",
    "weak_form_qc",
    "consistency_error",
    "stability_spectrum",
]


@dataclass(frozen=True)
class AcPartition:
    """Atomistic window of half-width K: atoms -K..K stay atomistic."""

    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("atomistic half-width K must be at least 1")

    def boundaries(self, cfg):
        """(a_L, a_R): midpoints between the interface atom pairs."""
        if self.K >= cfg.N:
            raise ValueError("partition needs K < N")
        y = positions(cfg)
        i = cfg.N
        a_l = 0.5 * (y[i - self.K - 1] + y[i - self.K])
        a_r = 0.5 * (y[i + self.K] + y[i + self.K + 1])
        return float(a_l), float(a_r)

    def boundary_data(self, cfg, m, g=(0.0, 0.0)):
        a_l, a_r = self.boundaries(cfg)
        return BoundaryData(a_l, a_r, g[0], g[1], m, cfg.eps)

    def tau(self, cfg, m):
        return self.boundary_data(cfg, m).tau

    def window(self, cfg, m):
        """The atomistic slab: (y_at, bd0), the positions of atoms -K..K and
        the boundary data with g = 0."""
        bd0 = self.boundary_data(cfg, m)
        return positions(cfg)[self.atom_indices(cfg)], bd0

    def atom_indices(self, cfg):
        """Array indices of the atomistic atoms -K..K."""
        return np.arange(cfg.N - self.K, cfg.N + self.K + 1)


@dataclass(frozen=True)
class AcMethod:
    variant: str
    partition: AcPartition

    def __post_init__(self):
        if self.variant not in ("method1", "method2"):
            raise ValueError("variant must be 'method1' or 'method2'")


def method1(K):
    return AcMethod("method1", AcPartition(K))


def method2(K):
    return AcMethod("method2", AcPartition(K))


def _validate(cfg, method, profile, m, tau_threshold):
    """Reject contact and a leaky window; return the slab window (y_at, bd0)."""
    check_separated(cfg, profile)
    y_at, bd0 = method.partition.window(cfg, m)
    if bd0.tau > tau_threshold:
        raise ValueError(
            "boundary decay tau = %.3e exceeds threshold %.1e; the coupled "
            "energy's O(tau) terms are not negligible at this window size"
            % (bd0.tau, tau_threshold)
        )
    return y_at, bd0


def _cb_weights(cfg, K):
    """Per-cell weights of the continuum part: 1 outside the window,
    1/2 on the two interface cells, 0 on the 2K interior cells."""
    n = cfg.n_atoms
    w = np.ones(n)
    i = cfg.N
    w[i - K + 1 : i + K + 1] = 0.0  # cells -K+1 .. K
    w[i - K] = 0.5  # cell -K, straddles a_L
    w[i + K + 1] = 0.5  # cell K+1, straddles a_R
    return w


def _method_bd(cfg, method, profile, m, y_at, bd0):
    """The slab's boundary data under the coupling: g* or the cell problem's."""
    if method.variant == "method1":
        g = g_star(y_at, bd0, profile)
    else:
        g = g_method2(cfg, method.partition, profile, m)
    return bd0.with_g(*g)


def ac_energy(cfg, method, profile, m, tau_threshold=1e-8):
    """Coupled energy: weighted continuum cells plus the atomistic slab."""
    y_at, bd0 = _validate(cfg, method, profile, m, tau_threshold)
    strains = first_diff(cfg)
    e_cb = float(np.sum(_cb_weights(cfg, method.partition.K)
                        * cb_cell_energy(strains, profile, m, cfg.eps)))
    bd = _method_bd(cfg, method, profile, m, y_at, bd0)
    return e_cb + energy_dirichlet(y_at, bd, profile)


def _interface_strain_gamma(profile, m, s):
    """Comparison-chain field at the midpoint between two atoms: the images
    sit at distances (k + 1/2) eps s, so the sum is (mu/m) sqrt(x)/(1-x)."""
    x = math.exp(-m * s)
    return mu(profile, m) / m * math.sqrt(x) / (1.0 - x)


def _interface_strain_dgamma(profile, m, s):
    """d/ds of the midpoint field: -mu sqrt(x)(1+x) / (2 (1-x)^2)."""
    x = math.exp(-m * s)
    return -mu(profile, m) * math.sqrt(x) * (1.0 + x) / (2.0 * (1.0 - x) ** 2)


def _interface_strain_d2gamma(profile, m, s):
    """Second derivative of the midpoint field: mu m sqrt(x)(1+6x+x^2) / (4 (1-x)^3)."""
    x = math.exp(-m * s)
    return mu(profile, m) * m * math.sqrt(x) * (1.0 + 6.0 * x + x * x) / (4.0 * (1.0 - x) ** 3)


def g_method2(cfg, partition, profile, m):
    """Cell-problem boundary data: the interface cell's comparison field at
    the wall, a function of that cell's strain alone."""
    if partition.K >= cfg.N:
        raise ValueError("partition needs K < N")
    strains = first_diff(cfg)
    i = cfg.N
    s_l = float(strains[i - partition.K])
    s_r = float(strains[i + partition.K + 1])
    return (
        _interface_strain_gamma(profile, m, s_l),
        _interface_strain_gamma(profile, m, s_r),
    )


def d_g_method2(cfg, partition, profile, m, u):
    """Directional derivative of g_method2 along the displacement u.

    g_L depends only on the strain of cell -K (g_R: of cell K+1), so the
    derivative is dgamma/ds times the strain of u across that cell -- in
    particular it is bounded by |dgamma/ds| |u'| with the constant evaluated
    at the interface strain.
    """
    if partition.K >= cfg.N:
        raise ValueError("partition needs K < N")
    u = np.asarray(u, dtype=float)
    strains = first_diff(cfg)
    i = cfg.N
    out = []
    for c in (i - partition.K, i + partition.K + 1):
        du = (u[c] - u[c - 1]) / cfg.eps
        out.append(_interface_strain_dgamma(profile, m, float(strains[c])) * du)
    return out[0], out[1]


def ac_forces(cfg, method, profile, m, tau_threshold=1e-8):
    """Gradient of ac_energy in the atom positions, fully analytic."""
    y_at, bd0 = _validate(cfg, method, profile, m, tau_threshold)
    part = method.partition
    i = cfg.N
    strains = first_diff(cfg)

    vals = _cb_weights(cfg, part.K) * cb_cell_denergy(strains, profile, m, cfg.eps) / cfg.eps
    grad = vals - np.roll(vals, -1)  # cell c pulls atoms c and c-1

    bd = _method_bd(cfg, method, profile, m, y_at, bd0)
    d_y, (d_al, d_ar), dg_e = _slab_gradient(y_at, bd, profile)
    grad[part.atom_indices(cfg)] += d_y
    grad[i - part.K - 1] += 0.5 * d_al
    grad[i - part.K] += 0.5 * d_al
    grad[i + part.K] += 0.5 * d_ar
    grad[i + part.K + 1] += 0.5 * d_ar

    if method.variant == "method2":
        # explicit boundary-data term; for method 1 D_g E(g*) = 0 drops it
        c_l, c_r = i - part.K, i + part.K + 1
        dgl = _interface_strain_dgamma(profile, m, float(strains[c_l])) / cfg.eps
        dgr = _interface_strain_dgamma(profile, m, float(strains[c_r])) / cfg.eps
        grad[c_l] += dg_e[0] * dgl
        grad[c_l - 1] -= dg_e[0] * dgl
        grad[c_r] += dg_e[1] * dgr
        grad[c_r - 1] -= dg_e[1] * dgr
    return grad


def _core_gradient(q, variant, m, eps):
    """Gradient of the slab core in its reduced variables q.

    method 2: q = (gamma_L, gamma_R, tau, g_L, g_R), the partials of
    `_slab_core`.  method 1: q = (gamma_L, gamma_R, tau) with g = g*(q);
    since D_g E vanishes at g*, the partials in (gamma, tau) taken at g*
    are the total gradient of the mirror energy.  Plain arithmetic only,
    so it accepts complex q.
    """
    gam_l, gam_r, tau = q[0], q[1], q[2]
    if variant == "method1":
        det = 1.0 - tau * tau
        g_l, g_r = (gam_l + tau * gam_r) / det, (tau * gam_l + gam_r) / det
    else:
        g_l, g_r = q[3], q[4]
    return np.array(_slab_core(gam_l, gam_r, tau, g_l, g_r, m, eps)[1:1 + len(q)])


def _core_hessian(q, variant, m, eps):
    """Hessian of the slab core in q by a complex step on `_core_gradient`.

    Im f(q + i h e_k) / h has no subtractive cancellation, so a tiny h makes
    it exact to roundoff; it is not a finite difference.
    """
    h = 1e-30
    hess = np.empty((len(q), len(q)))
    for k in range(len(q)):
        qc = np.asarray(q, dtype=complex)
        qc[k] += 1j * h
        hess[:, k] = _core_gradient(qc, variant, m, eps).imag / h
    return 0.5 * (hess + hess.T)


def _slab_hessian(cfg, method, profile, m, y_at, bd0):
    """Hessian of the slab energy in the positions.

    The slab energy is the free pair sum of the window atoms plus the core,
    a function of q = (gamma_L, gamma_R, tau[, g_L, g_R]).  It is assembled
    in the reduced variables z = (window atoms, a_L, a_R, s_L, s_R), s the
    interface strains that fix method 2's g, and mapped back through the
    linear map z = P y.  Each gamma and tau is a sum of exponentials of
    linear forms l of z, so its Hessian is sum c e^l (grad l)(grad l)^T.
    """
    part = method.partition
    K, i, eps = part.K, cfg.N, cfg.eps
    idx = part.atom_indices(cfg)
    na = idx.size
    ia, i_al, i_ar, i_sl, i_sr = np.arange(na), na, na + 1, na + 2, na + 3
    nz = na + 4
    k = m / eps
    muv = mu(profile, m)

    # z = P y
    p_map = np.zeros((nz, cfg.n_atoms))
    p_map[ia, idx] = 1.0
    p_map[i_al, [i - K - 1, i - K]] = 0.5
    p_map[i_ar, [i + K, i + K + 1]] = 0.5
    p_map[i_sl, [i - K - 1, i - K]] = (-1.0 / eps, 1.0 / eps)
    p_map[i_sr, [i + K, i + K + 1]] = (-1.0 / eps, 1.0 / eps)

    # exponential families: coefficients and gradients of their exponents
    s_l, s_r = _wall_sums(y_at, bd0)
    lin_l = np.zeros((na, nz))
    lin_l[ia, ia], lin_l[:, i_al] = -k, k  # -k (y_j - a_L)
    lin_r = np.zeros((na, nz))
    lin_r[ia, ia], lin_r[:, i_ar] = k, -k  # -k (a_R - y_j)
    lin_t = np.zeros((1, nz))
    lin_t[0, i_al], lin_t[0, i_ar] = k, -k  # -k (a_R - a_L)
    families = [(muv / m * s_l, lin_l), (muv / m * s_r, lin_r), (np.array([bd0.tau]), lin_t)]

    jac = np.array([c @ lin for c, lin in families])
    q = [float(np.sum(c)) for c, _ in families]
    if method.variant == "method2":
        strains = first_diff(cfg)
        s_int = (float(strains[i - K]), float(strains[i + K + 1]))
        q += [_interface_strain_gamma(profile, m, s) for s in s_int]
        rows = np.zeros((2, nz))
        rows[0, i_sl] = _interface_strain_dgamma(profile, m, s_int[0])
        rows[1, i_sr] = _interface_strain_dgamma(profile, m, s_int[1])
        jac = np.vstack([jac, rows])

    grad_q = _core_gradient(q, method.variant, m, eps)
    hess_z = jac.T @ _core_hessian(q, method.variant, m, eps) @ jac
    for dq, (c, lin) in zip(grad_q, families):
        hess_z += dq * (lin.T @ (c[:, None] * lin))
    if method.variant == "method2":
        for dq, j_z, s in zip(grad_q[3:], (i_sl, i_sr), s_int):
            hess_z[j_z, j_z] += dq * _interface_strain_d2gamma(profile, m, s)
    hess_z[:na, :na] += eps * muv**2 / (4.0 * m) * _pair_hessian(y_at, m / eps)
    return p_map.T @ hess_z @ p_map


def ac_hessian(cfg, method, profile, m, tau_threshold=1e-8):
    """Exact Hessian of ac_energy in the atom positions: the weighted
    Cauchy-Born cells (cyclic tridiagonal) plus the slab block."""
    y_at, bd0 = _validate(cfg, method, profile, m, tau_threshold)
    hess = cb_hessian(cfg, profile, m, _cb_weights(cfg, method.partition.K))
    hess += _slab_hessian(cfg, method, profile, m, y_at, bd0)
    return 0.5 * (hess + hess.T)


def sigma_qc(cfg, method, x, profile, m, tau_threshold=1e-8):
    """Coupled stress of method 1: sigma^cb cell by cell outside the window,
    the slab stress inside.  Method 2's derivative carries a boundary-data
    term no stress field represents, so it is rejected here.
    """
    if method.variant != "method1":
        raise ValueError("the coupled stress exists for method 1 only")
    y_at, bd0 = _validate(cfg, method, profile, m, tau_threshold)
    bd = _method_bd(cfg, method, profile, m, y_at, bd0)
    nodes = positions(cfg, -cfg.N - 1, cfg.N)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= nodes[0]) or np.any(xs > nodes[-1]):
        raise ValueError("evaluation point outside the periodic window")
    sf_at = stress_dirichlet(y_at, bd, profile)
    out = np.empty_like(xs)
    inside = (xs > bd.a_L) & (xs < bd.a_R)
    if np.any(inside):
        out[inside] = sf_at(xs[inside])
    cells = {}
    for p in np.nonzero(~inside)[0]:
        j = int(np.searchsorted(nodes, xs[p], side="left")) - 1 - cfg.N
        if j not in cells:
            cells[j] = cb_stress_function(cell_state(cfg, profile, m, j))
        out[p] = cells[j](np.array([xs[p]]))[0]
    return out if np.ndim(x) else float(out[0])


def weak_form_qc(cfg, method, u, profile, m, tau_threshold=1e-8, order=24):
    """integral sigma^qc grad(interpolant of u) over the period (method 1).

    The interpolant runs through the atoms and through the walls, whose
    values move with the interface midpoints: u(a_L) = (u_{-K-1}+u_{-K})/2.
    Equals ac_forces . u -- the weak form of the coupled energy.
    """
    if method.variant != "method1":
        raise ValueError("the coupled stress exists for method 1 only")
    y_at, bd0 = _validate(cfg, method, profile, m, tau_threshold)
    bd = _method_bd(cfg, method, profile, m, y_at, bd0)
    K, i = method.partition.K, cfg.N + 1  # i: atom 0's index in y and uu
    y = positions(cfg, -cfg.N - 1, cfg.N)
    uu = np.concatenate([[u[-1]], np.asarray(u, dtype=float)])
    h_l = 0.5 * (uu[i - K - 1] + uu[i - K])
    h_r = 0.5 * (uu[i + K] + uu[i + K + 1])
    win = slice(i - K, i + K + 1)
    acc = _weak_form(stress_dirichlet(y_at, bd, profile),
                     np.concatenate([[bd.a_L], y[win], [bd.a_R]]),
                     np.concatenate([[h_l], uu[win], [h_r]]), order)
    # CB cells -N..-K, the last one ending at a_L, and K+1..N, the first one
    # starting at a_R; a half cell keeps its full cell's gradient because the
    # wall value is the midpoint value
    for first, nodes, vals in (
        (-cfg.N, np.append(y[:i - K], bd.a_L), np.append(uu[:i - K], h_l)),
        (K + 1, np.insert(y[i + K + 1:], 0, bd.a_R), np.insert(uu[i + K + 1:], 0, h_r)),
    ):
        for p in range(nodes.size - 1):
            sf = cb_stress_function(cell_state(cfg, profile, m, first + p))
            acc += _weak_form(sf, nodes[p : p + 2], vals[p : p + 2], order)
    return acc


def consistency_error(cfg, method, profile, m, n_smooth=8, seed=0,
                      s0=None, tau_threshold=1e-8):
    """Sup over probe displacements of |(DE - DE^qc) . u| / |grad u|_{L^2},
    next to the theory's right-hand side eps ||y''||_w + tau.

    Probes: every hat displacement plus n_smooth random low-frequency modes,
    mean-adjusted, as the rows of one matrix; their strain seminorms are one
    row reduction and their pairings with DE - DE^qc one matvec.  Probes with
    a vanishing seminorm are skipped.  The weighted seminorm decays into the
    atomistic window with rate m s0 from the interfaces; s0 defaults to the
    minimal strain.
    Returns a dict with the sup, the right-hand side, their ratio (the
    fitted constant), and tau.
    """
    _, bd0 = _validate(cfg, method, profile, m, tau_threshold)
    n = cfg.n_atoms
    strains = first_diff(cfg)
    if s0 is None:
        s0 = float(np.min(strains))
    f_at = forces_periodic(cfg, profile, m)
    f_qc = ac_forces(cfg, method, profile, m, tau_threshold)
    diff = f_at - f_qc

    # probes as rows: the n hats, then n_smooth random low-frequency modes
    rng = np.random.default_rng(seed)
    draws = [(rng.integers(1, 4), rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 1.5))
             for _ in range(n_smooth)]
    k, phase, amp = np.array(draws, dtype=float).reshape(n_smooth, 3).T[:, :, None]
    jj = np.arange(-cfg.N, cfg.N + 1)
    probes = np.vstack([np.eye(n), amp * np.sin(2 * np.pi * k * jj / n + phase)])

    u = probes - probes.mean(axis=1, keepdims=True)
    du = u - np.roll(u, 1, axis=1)
    h1 = np.sqrt(np.sum(du**2 / (cfg.eps * strains), axis=1))
    keep = h1 >= 1e-14
    sup = float(np.max(np.abs(u[keep] @ diff) / h1[keep], initial=0.0))

    params = DiscreteNormParams(s0=s0, m=m, K=method.partition.K)
    rhs = cfg.eps * norm_weighted(second_diff(cfg), cfg.eps, params) + bd0.tau
    return {
        "sup_error": sup,
        "rhs": float(rhs),
        "fitted_C": sup / rhs if rhs > 0 else math.inf,
        "tau": bd0.tau,
        "n_probes": probes.shape[0],
    }


def _fourier_basis(n):
    """Real Fourier basis of the mean-zero vectors in R^n, n = 2N+1 odd, as
    columns: sqrt(2/n) cos(2 pi k i/n) and sqrt(2/n) sin(2 pi k i/n),
    k = 1..N.  It is orthonormal and diagonalizes the periodic second
    difference D^T D; returns the basis and the eigenvalue
    2 - 2 cos(2 pi k/n) = 4 sin^2(pi k/n) of each column."""
    k = np.repeat(np.arange(1, n // 2 + 1), 2)
    arg = 2.0 * np.pi / n * (np.outer(np.arange(n), k) % n)  # exact reduction: |arg| < 2 pi
    q = math.sqrt(2.0 / n) * np.where(np.arange(k.size) % 2, np.sin(arg), np.cos(arg))
    return q, 4.0 * np.sin(np.pi * k / n) ** 2


def stability_spectrum(cfg, method, profile, m, tau_threshold=1e-8):
    """Smallest eigenvalue of D^2 E^qc over mean-zero displacements,
    measured against the strain seminorm |u'|^2_{l2_eps}, next to the
    uniform convexity floor (m mu^2/2) e^{-m max y'}.

    D^2 E^qc is the exact Hessian `ac_hessian`.  The seminorm's matrix
    B = D^T D / eps is circulant, so the real Fourier basis Q of the
    mean-zero vectors diagonalizes it, Q^T B Q = Lambda, and the pencil
    (Q^T H Q, Lambda) is the symmetric Lambda^{-1/2} Q^T H Q Lambda^{-1/2}.
    """
    hess = ac_hessian(cfg, method, profile, m, tau_threshold)
    q, lam_b = _fourier_basis(cfg.n_atoms)
    s = np.sqrt(cfg.eps / lam_b)
    w = s[:, None] * (q.T @ hess @ q) * s
    lam = np.linalg.eigvalsh(0.5 * (w + w.T))
    muv = mu(profile, m)
    bound = m * muv**2 / 2.0 * math.exp(-m * float(np.max(first_diff(cfg))))
    return float(lam[0]), bound
