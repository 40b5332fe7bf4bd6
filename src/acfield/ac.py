"""Atomistic/continuum coupled energies and their calculus.

Both couplings keep the 2K+1 central atoms fully atomistic inside the window
Omega_a = (a_L, a_R), with a_L = (y_{-K-1}+y_{-K})/2 and a_R = (y_K+y_{K+1})/2
the midpoints between the interface atom pairs, and replace the outside by
per-cell Cauchy-Born energies: full cells beyond the interface, the two cells
straddling a_L, a_R at half weight.  Those two interface cells, -K and K+1,
come from one place, `AcPartition.interface_cells`, which also holds the one
K < N check; the walls, the window's atoms, the weights, method 2's cell data
and every derivative read them there.  Every entry point rejects contact
(`density.check_separated`) and a window whose boundary decay tau is not
negligible.  The methods differ only in the boundary data of the atomistic
slab:

* method 1 hands the slab its stationary data g*(y).  Since D_g E vanishes
  there, g*'s own y-dependence drops out of the forces (envelope argument),
  and the derivative is a pure stress form: the coupled stress sigma^qc,
  each cell's sigma^cb outside and the slab stress inside, whose weak form
  (`weak_form_qc`, tests/oracle_stress.py) is the oracle of `ac_forces`.

* method 2 solves the two interface cell problems instead: g is the
  comparison-chain field of the interface cell evaluated at the wall, which
  collapses to g(s) = (mu/m) sqrt(x)/(1-x), x = e^{-m s}, a function of the
  single interface strain.  Its y-dependence contributes an explicit extra
  chain-rule term, and no pure stress form exists.

Energies, forces and the exact Hessian (`ac_hessian_structured`) ride on
the exact pair/closed forms of `energy` throughout; FEM appears only in
cross-checks at test level.  On one configuration, every call of either
method reads one window record (`_window`): the validated window, the
continuum weights, the wall pass, the window's chain sums and each method's
boundary data.  The cell terms e(y'_j) and e'(y'_j) are the Cauchy-Born
model's own (`cauchy_born._cell_terms`), so on one configuration both
couplings and the Cauchy-Born model form them once.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cauchy_born import _cb_band, _cell_pulls, _cell_terms
from .density import _curvature_prefactor, _mu_squared, check_separated, mu
from .energy import (_g_star, _pair_curvature, _slab_core, _slab_energy, _slab_gradient,
                     forces_periodic)
from .field import BoundaryData, _ChainSums, _kept, _read_only, _walls
from .hessian import Green, StructuredHessian
from .lattice import first_diff, norm_weighted, positions, second_diff

__all__ = [
    "AcPartition",
    "AcMethod",
    "method1",
    "method2",
    "ac_energy",
    "ac_forces",
    "ac_hessian_structured",
    "g_method2",
    "consistency_error",
    "stability_spectrum",
]


@dataclass(frozen=True)
class AcPartition:
    """Atomistic window of half-width K: atoms -K..K stay atomistic."""

    K: int

    def __post_init__(self):
        try:
            k = operator.index(self.K)
        except TypeError:
            k = 0
        if k < 1:
            raise ValueError("atomistic half-width K must be an integer >= 1, got %r"
                             % (self.K,))
        object.__setattr__(self, "K", k)

    def interface_cells(self, cfg):
        """Array indices (c_L, c_R) of the interface cells -K and K+1.  Cell c
        joins atoms c-1 and c, and its midpoint is a wall."""
        if self.K >= cfg.N:
            raise ValueError("partition needs K < N")
        return cfg.N - self.K, cfg.N + self.K + 1

    def boundaries(self, cfg):
        """(a_L, a_R): the midpoints of the two interface cells."""
        y = positions(cfg)
        return tuple(float(0.5 * (y[c - 1] + y[c])) for c in self.interface_cells(cfg))

    def boundary_data(self, cfg, m):
        """The slab's boundary data with g = 0 (set g with `with_g`)."""
        a_l, a_r = self.boundaries(cfg)
        return BoundaryData(a_l, a_r, 0.0, 0.0, m, cfg.eps)

    def tau(self, cfg, m):
        return self.boundary_data(cfg, m).tau

    def window(self, cfg, m):
        """The atomistic slab: (y_at, bd0), the positions of atoms -K..K (a
        read-only view) and the boundary data with g = 0."""
        bd0 = self.boundary_data(cfg, m)
        return positions(cfg)[slice(*self.interface_cells(cfg))], bd0


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


# The coupling's first-order error estimates hold only once the window's
# boundary decay tau is negligible; a window with a larger tau is too narrow.
_TAU_MAX = 1e-8


class _Window:
    """What every coupled call on one configuration reads, for one window
    half-width K, profile and m: the validated slab (y_at, bd0), the
    continuum weights, the slab's `field._walls` pass (the walls ignore g),
    the window atoms' chain sums and each method's boundary data.

    Building it rejects contact and a leaky window (tau > _TAU_MAX).
    """

    def __init__(self, cfg, partition, profile, m):
        check_separated(cfg, profile)
        y_at, bd0 = partition.window(cfg, m)
        if bd0.tau > _TAU_MAX:
            raise ValueError(
                "boundary decay tau = %.3e exceeds threshold %.1e; the coupled "
                "energy's O(tau) terms are not negligible at this window size"
                % (bd0.tau, _TAU_MAX)
            )
        self.cfg, self.partition, self.profile, self.m = cfg, partition, profile, m
        self.y_at, self.bd0 = y_at, bd0
        self.walls = _walls(y_at, bd0, profile)
        self.sums = _ChainSums(y_at, m / cfg.eps)
        self._bd = {}

    @cached_property
    def weights(self):
        """Per-cell weights of the continuum part: 1 outside the window,
        1/2 on the two interface cells, 0 on the 2K cells between them."""
        c_l, c_r = self.partition.interface_cells(self.cfg)
        w = np.ones(self.cfg.n_atoms)
        w[c_l + 1 : c_r] = 0.0
        w[[c_l, c_r]] = 0.5
        return _read_only(w)

    def bd(self, variant):
        """The slab's boundary data under the coupling: g* from the wall
        moments (method 1), or the cell problem's (method 2)."""
        if variant not in self._bd:
            if variant == "method1":
                g = _g_star(*self.walls[2:], self.bd0.tau)
            else:
                g = g_method2(self.cfg, self.partition, self.profile, self.m)
            self._bd[variant] = self.bd0.with_g(*g)
        return self._bd[variant]


def _window(cfg, partition, profile, m):
    """The `_Window` of cfg, kept for it (`field._kept`): the energy, forces
    and Hessian of both methods and the tests' method-1 stress
    (`oracle_stress._qc_stress`) make one validation, one wall pass and at
    most one scan per side."""
    return _kept(cfg, ("window", partition.K, profile, m),
                 lambda: _Window(cfg, partition, profile, m))


def ac_energy(cfg, method, profile, m):
    """Coupled energy: weighted continuum cells plus the atomistic slab."""
    win = _window(cfg, method.partition, profile, m)
    e_cb = float(np.sum(win.weights * _cell_terms(cfg, profile, m).energy))
    return e_cb + _slab_energy(win.sums, win.bd(method.variant), profile, win.walls)


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
    strains = first_diff(cfg)
    return tuple(_interface_strain_gamma(profile, m, float(strains[c]))
                 for c in partition.interface_cells(cfg))


def ac_forces(cfg, method, profile, m):
    """Gradient of ac_energy in the atom positions, fully analytic."""
    win = _window(cfg, method.partition, profile, m)
    cells = method.partition.interface_cells(cfg)
    strains = first_diff(cfg)

    grad = _cell_pulls(win.weights * _cell_terms(cfg, profile, m).denergy / cfg.eps)

    d_y, (d_al, d_ar), dg_e = _slab_gradient(win.sums, win.bd(method.variant), profile,
                                             win.walls)
    grad[slice(*cells)] += d_y
    for c, d_a in zip(cells, (d_al, d_ar)):  # each wall moves with its cell's atoms
        grad[c - 1] += 0.5 * d_a
        grad[c] += 0.5 * d_a

    if method.variant == "method2":
        # explicit boundary-data term; for method 1 D_g E(g*) = 0 drops it
        for c, d_e in zip(cells, dg_e):
            dg = _interface_strain_dgamma(profile, m, float(strains[c])) / cfg.eps
            grad[c] += d_e * dg
            grad[c - 1] -= d_e * dg
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
        g_l, g_r = _g_star(gam_l, gam_r, tau)
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


def ac_hessian_structured(cfg, method, profile, m):
    """Exact Hessian of ac_energy in structured form
    (`hessian.StructuredHessian`).

    B holds the weighted Cauchy-Born cells, which couple no two window
    atoms, and the slab's diagonal terms.  The slab energy is the free
    pair sum of the window atoms, whose curvature is a diagonal minus a
    Green's block on the window (`energy._pair_curvature`), plus the core, a
    function of q = (gamma_L, gamma_R, tau[, g_L, g_R]).  In the reduced
    variables z = (window atoms, a_L, a_R, s_L, s_R), s the interface
    strains that fix method 2's g, each gamma and tau is a sum of
    exponentials c e^l of linear forms l of z, so its Hessian is
    sum c e^l (grad l)(grad l)^T.  Apart from the window's diagonal, every
    term lies in the span of six vectors, the columns of U: the two wall
    families c_L, c_R on the window atoms, and the maps y -> a_L, a_R, s_L,
    s_R (each on its interface cell's two atoms).
    """
    window = _window(cfg, method.partition, profile, m)
    y_at, bd0 = window.y_at, window.bd0
    eps = cfg.eps
    n = cfg.n_atoms
    c_l, c_r = method.partition.interface_cells(cfg)
    k = m / eps
    muv = mu(profile, m)

    win = slice(c_l, c_r)
    cols = np.zeros((n, 6))  # c_L, c_R, a_L, a_R, s_L, s_R
    s_l, s_r, _, _ = window.walls
    cols[win, 0] = muv / m * s_l
    cols[win, 1] = muv / m * s_r
    cols[c_l - 1:c_l + 1, 2] = cols[c_r - 1:c_r + 1, 3] = 0.5  # the walls: cell midpoints
    cols[c_l - 1:c_l + 1, 4] = cols[c_r - 1:c_r + 1, 5] = (-1.0 / eps, 1.0 / eps)  # strains
    q = [float(np.sum(cols[win, 0])), float(np.sum(cols[win, 1])), bd0.tau]

    # the gradients of q in the basis of the columns: gamma_L is a sum over
    # e^{-k (y_j - a_L)}, gamma_R over e^{-k (a_R - y_j)}, tau = e^{-k (a_R - a_L)}
    jac = [[-k, 0.0, k * q[0], 0.0, 0.0, 0.0],
           [0.0, k, 0.0, -k * q[1], 0.0, 0.0],
           [0.0, 0.0, k * q[2], -k * q[2], 0.0, 0.0]]
    if method.variant == "method2":
        strains = first_diff(cfg)
        s_int = (float(strains[c_l]), float(strains[c_r]))
        q += [_interface_strain_gamma(profile, m, s) for s in s_int]
        dg_l, dg_r = (_interface_strain_dgamma(profile, m, s) for s in s_int)
        jac += [[0.0, 0.0, 0.0, 0.0, dg_l, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, dg_r]]
    jac = np.array(jac)

    grad_q = _core_gradient(q, method.variant, m, eps)
    w = jac.T @ _core_hessian(q, method.variant, m, eps) @ jac
    # each wall family's k^2 sum_j c_j (e_a - e_j)(e_a - e_j)^T, less its
    # diagonal k^2 c_j, which B holds, and tau's k^2 tau (e_aL - e_aR)(...)^T
    kk = k * k
    for f, i_a in ((0, 2), (1, 3)):
        w[i_a, i_a] += grad_q[f] * kk * q[f]
        w[i_a, f] -= grad_q[f] * kk
        w[f, i_a] -= grad_q[f] * kk
    t = grad_q[2] * kk * q[2]
    w[2, 2] += t
    w[3, 3] += t
    w[2, 3] -= t
    w[3, 2] -= t
    if method.variant == "method2":
        for dq, i_s, s in zip(grad_q[3:], (4, 5), s_int):
            w[i_s, i_s] += dq * _interface_strain_d2gamma(profile, m, s)

    pref = eps * _mu_squared(muv, m) / (4.0 * m)
    amp = _curvature_prefactor(pref * 4.0 * k**3, m)
    diag, off = _cb_band(cfg, profile, m, window.weights)
    diag[win] += pref * _pair_curvature(window.sums) \
        + kk * (grad_q[0] * cols[win, 0] + grad_q[1] * cols[win, 1])
    return StructuredHessian(diag, off, Green(c_l, amp, y_at, k, None), cols, 0.5 * (w + w.T))


def consistency_error(cfg, method, profile, m, seed=0):
    """Sup over probe displacements of |(DE - DE^qc) . u| / |grad u|_{L^2},
    next to the theory's right-hand side eps ||y''||_w + tau.

    Probes: every hat displacement plus 8 random low-frequency modes,
    mean-adjusted, as the rows of one matrix; their strain seminorms are one
    row reduction and their pairings with DE - DE^qc one matvec.  Probes with
    a vanishing seminorm are skipped.  The weighted seminorm decays into the
    atomistic window at rate m min y' from the interfaces.
    Returns a dict with the sup, the right-hand side, their ratio (the
    fitted constant), and tau.
    """
    tau = _window(cfg, method.partition, profile, m).bd0.tau
    n = cfg.n_atoms
    strains = first_diff(cfg)
    f_at = forces_periodic(cfg, profile, m)
    f_qc = ac_forces(cfg, method, profile, m)
    diff = f_at - f_qc

    # probes as rows: the n hats, then 8 random low-frequency modes
    rng = np.random.default_rng(seed)
    draws = [(rng.integers(1, 4), rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 1.5))
             for _ in range(8)]
    k, phase, amp = np.array(draws, dtype=float).T[:, :, None]
    jj = np.arange(-cfg.N, cfg.N + 1)
    probes = np.vstack([np.eye(n), amp * np.sin(2 * np.pi * k * jj / n + phase)])

    u = probes - probes.mean(axis=1, keepdims=True)
    du = u - np.roll(u, 1, axis=1)
    h1 = np.sqrt(np.sum(du**2 / (cfg.eps * strains), axis=1))
    keep = h1 >= 1e-14
    sup = float(np.max(np.abs(u[keep] @ diff) / h1[keep], initial=0.0))

    rhs = cfg.eps * norm_weighted(second_diff(cfg), cfg.eps, float(np.min(strains)), m,
                                  method.partition.K) + tau
    return {
        "sup_error": sup,
        "rhs": float(rhs),
        "fitted_C": sup / rhs if rhs > 0 else math.inf,
        "tau": tau,
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


def stability_spectrum(cfg, method, profile, m):
    """Smallest eigenvalue of D^2 E^qc over mean-zero displacements,
    measured against the strain seminorm |u'|^2_{l2_eps}, next to the
    uniform convexity floor (m mu^2/2) e^{-m max y'}.

    D^2 E^qc is the exact Hessian, `ac_hessian_structured` expanded to an
    array.  The seminorm's matrix B = D^T D / eps is circulant, so the real
    Fourier basis Q of the mean-zero vectors diagonalizes it,
    Q^T B Q = Lambda, and the pencil (Q^T H Q, Lambda) is the symmetric
    Lambda^{-1/2} Q^T H Q Lambda^{-1/2}.
    """
    hess = ac_hessian_structured(cfg, method, profile, m).dense()
    q, lam_b = _fourier_basis(cfg.n_atoms)
    s = np.sqrt(cfg.eps / lam_b)
    w = s[:, None] * (q.T @ hess @ q) * s
    lam = np.linalg.eigvalsh(0.5 * (w + w.T))
    mu2 = _mu_squared(mu(profile, m), m)
    bound = m * mu2 / 2.0 * math.exp(-m * float(np.max(first_diff(cfg))))
    return float(lam[0]), bound
