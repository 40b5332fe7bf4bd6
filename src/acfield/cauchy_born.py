"""Per-cell Cauchy-Born continuum approximation.

Each cell Q_j = (y_{j-1}, y_j) is compared to the infinite equidistant chain
through its two atoms, y^(j)_k = y_j + (k - j) eps y'_j.  Because separated
bumps interact only through mu^2 e^{-(m/eps) dist}, the per-atom energy of
that chain is a geometric series with the exact closed form

    e(s) = (mu^2 eps / 2m) x / (1 - x) + E_self,      x = e^{-m s},

which is what the cell energy, the continuum forces, and the convexity floor
all differentiate.  The cell field psi^(j) is the lattice Green sum of the
comparison chain, one bump per period eps y'_j, with an exact quadrature
correction on the bump that contains the evaluation point; every cell's
field comes from one batch routine (`field._cell_fields`), and the bound
on its gap to the chain field is summed in closed form, with no truncation,
for every cell at once.  Nothing in this module touches a mesh.
"""

import math
from dataclasses import dataclass

import numpy as np

from .density import check_separated, mu
from .energy import StressFunction, self_energy
from .field import _cell_fields
from .lattice import first_diff, positions, second_diff

__all__ = [
    "CellState",
    "cell_state",
    "cb_cell_energy",
    "cb_cell_denergy",
    "cb_cell_d2energy",
    "cb_cell_field",
    "cb_cell_fields",
    "cb_stress",
    "cb_stress_function",
    "cb_total_energy",
    "cb_forces",
    "cb_hessian",
    "cb_hessian_lower_bound_check",
    "comparison_field_bound",
]

# entries per block of `comparison_field_bound`'s (cells x (2N+1)) tables
_BOUND_BLOCK = 1 << 16


def cb_cell_energy(strain, profile, m, eps):
    """Cell energy e(strain): per-atom energy of the equidistant comparison chain."""
    x = np.exp(-m * np.asarray(strain, dtype=float))
    out = mu(profile, m) ** 2 * eps / (2.0 * m) * x / (1.0 - x) \
        + self_energy(profile, m, eps)
    return out if out.ndim else float(out)


def cb_cell_denergy(strain, profile, m, eps):
    """e'(strain) = -(mu^2 eps / 2) x / (1-x)^2."""
    x = np.exp(-m * np.asarray(strain, dtype=float))
    out = -mu(profile, m) ** 2 * eps / 2.0 * x / (1.0 - x) ** 2
    return out if out.ndim else float(out)


def cb_cell_d2energy(strain, profile, m, eps):
    """e''(strain) = (m mu^2 eps / 2) x (1+x) / (1-x)^3 > 0."""
    x = np.exp(-m * np.asarray(strain, dtype=float))
    out = mu(profile, m) ** 2 * m * eps / 2.0 * x * (1.0 + x) / (1.0 - x) ** 3
    return out if out.ndim else float(out)


@dataclass(eq=False)
class CellState:
    """One cell of the chain together with its comparison-chain data.

    anchor is the right atom y_j; the comparison chain runs through
    anchor + n * eps * strain for all integer n.
    """

    j: int
    strain: float
    anchor: float
    profile: object
    m: float
    eps: float
    energy: float = None

    def __post_init__(self):
        if self.strain <= self.profile.sigma0:
            raise ValueError(
                "cell strain %.3g leaves comparison-chain bumps overlapping"
                % self.strain
            )
        self.energy = cb_cell_energy(self.strain, self.profile, self.m, self.eps)

    @property
    def spacing(self):
        return self.eps * self.strain

    def field(self, x):
        """(psi, grad psi) at x: the kernel sum over the comparison chain."""
        val, grad = _cell_fields([self.anchor], [self.spacing], self.profile, self.m,
                                 self.eps, np.atleast_1d(x)[None])
        return val[0], grad[0]


def cell_state(cfg, profile, m, j):
    """CellState of cell Q_j = (y_{j-1}, y_j) of a periodic chain."""
    if not -cfg.N <= j <= cfg.N:
        raise ValueError("cell index out of range")
    strains = first_diff(cfg)
    y = positions(cfg)
    return CellState(
        j=j,
        strain=float(strains[j + cfg.N]),
        anchor=float(y[j + cfg.N]),
        profile=profile,
        m=m,
        eps=cfg.eps,
    )


def cb_cell_field(cell, x):
    """(psi^(j), grad psi^(j)) at x; exact image sum with geometric closure."""
    return cell.field(x)


def cb_cell_fields(cfg, profile, m, xs):
    """(psi^(j), grad psi^(j)) of every cell at once: row j + N of xs (shape
    (2N+1, P)) is evaluated for cell Q_j's comparison chain."""
    check_separated(cfg, profile, "cb_cell_fields")
    return _cell_fields(positions(cfg), cfg.eps * first_diff(cfg), profile, m, cfg.eps, xs)


def cb_stress_function(cell):
    """StressFunction of the comparison chain (periodic with the cell spacing)."""
    return StressFunction(
        cell.field,
        np.array([cell.anchor]),
        cell.profile,
        cell.m,
        cell.eps,
        L=cell.spacing,
    )


def cb_stress(cell, x):
    """Continuum stress sigma^cb of the cell at x."""
    out = cb_stress_function(cell)(x)
    return out if np.ndim(x) else float(out[0])


def cb_total_energy(cfg, profile, m):
    """E^cb(y) = sum over the 2N+1 cells of e(y'_j)."""
    return float(np.sum(cb_cell_energy(first_diff(cfg), profile, m, cfg.eps)))


def cb_forces(cfg, profile, m):
    """Gradient of E^cb: D_{y_p} = (e'(y'_p) - e'(y'_{p+1})) / eps, cells wrapping."""
    ep = cb_cell_denergy(first_diff(cfg), profile, m, cfg.eps)
    return (ep - np.roll(ep, -1)) / cfg.eps


def cb_hessian(cfg, profile, m, weights=None):
    """Exact Hessian of sum_j w_j e(y'_j) (w = 1: of E^cb).

    Cell j couples atoms j-1 and j through the curvature w_j e''(y'_j) /
    eps^2, so the Hessian is cyclic tridiagonal: D^T diag(.) D with D the
    periodic first difference.
    """
    c = cb_cell_d2energy(first_diff(cfg), profile, m, cfg.eps) / cfg.eps**2
    if weights is not None:
        c = weights * c
    n = c.size
    i = np.arange(n)
    hess = np.zeros((n, n))
    hess[i, i] = c + np.roll(c, -1)
    hess[i, i - 1] = -c
    hess[i - 1, i] = -c
    return hess


def cb_hessian_lower_bound_check(cfg, u, profile, m):
    """Second variation of E^cb against its uniform convexity floor.

    D^2 E^cb[u, u] = sum_j e''(y'_j) (u'_j)^2 with u'_j = (u_j - u_{j-1})/eps.
    Each term is checked against floor * eps (u'_j)^2 for two candidate
    floors: (m mu^2 / 2) e^{-m max y'} (which e'' >= m mu^2 eps/2 * x makes
    unconditional -- a violation raises) and the same with an extra factor m,
    which genuinely fails for m > 1 at moderate strains and is only reported.
    Returns a dict with the quadratic form, both floors, and the per-cell
    ratio minima taken over cells where u' != 0.
    """
    u = np.asarray(u, dtype=float)
    strains = first_diff(cfg)
    du = (u - np.roll(u, 1)) / cfg.eps  # u'_j across cell j
    e2 = cb_cell_d2energy(strains, profile, m, cfg.eps)
    terms = e2 * du**2
    muv = mu(profile, m)
    s_max = float(np.max(strains))
    floor = m * muv**2 / 2.0 * math.exp(-m * s_max)
    floor_strict = m * floor  # the stronger variant with the extra factor m
    active = du != 0.0
    if np.any(active):
        ratios = e2[active] / (floor * cfg.eps)
        min_ratio = float(np.min(ratios))
        min_ratio_strict = float(np.min(e2[active] / (floor_strict * cfg.eps)))
    else:
        min_ratio = min_ratio_strict = math.inf
    if min_ratio < 1.0:
        raise RuntimeError(
            "convexity floor violated: min ratio %.6f < 1" % min_ratio
        )
    return {
        "quad_form": float(np.sum(terms)),
        "floor": floor,
        "floor_strict": floor_strict,
        "bound": floor * cfg.eps * float(np.sum(du**2)),
        "min_ratio": min_ratio,
        "min_ratio_strict": min_ratio_strict,
        "holds": True,
        "holds_strict": min_ratio_strict >= 1.0,
    }


def comparison_field_bound(cfg, profile, m, j):
    """Locality bound on max over Q_j of |phi - psi^(j)|,

        mu eps sum_{n >= 1} ||y''||_{l1(j-n .. j+n-1)} n q^n,   q = e^{-m min y'},

    the index window tiling the chain periodically; m times it bounds
    eps max |phi' - psi^(j)'|.  Summed exactly, with no truncation, by
    swapping the sums: y''_{j+d} lies in window n exactly when n >= n0 (d + 1
    for d >= 0, -d for d < 0), and sum_{n >= n0} n q^n = q^{n0} (n0 (1 - q)
    + q) / (1 - q)^2.  The offsets d of one residue r mod P = 2N+1 (r + tP
    and tP - r) add up as geometric series of ratio q^P, so bound_j =
    mu eps sum_r |y''|_{j+r} w_r.  The weights w do not depend on j, so the
    bounds of several cells are one circular correlation of |y''| with w.
    j is a cell index or an integer array of them (then the result is an
    array).  Overlapping bumps raise ValueError: the bound assumes separated
    bumps, and at min y' <= 0 it diverges.
    """
    check_separated(cfg, profile, "comparison_field_bound")
    p = cfg.n_atoms
    ms = m * float(np.min(first_diff(cfg)))
    q, omq, om_qp = math.exp(-ms), -math.expm1(-ms), -math.expm1(-ms * p)

    def residue_sum(a):  # sum over t >= 0 of sum_{n >= a + tP} n q^n
        return np.exp(-ms * a) / omq**2 * (
            (a * omq + q) / om_qp + p * omq * math.exp(-ms * p) / om_qp**2)

    r = np.arange(p)
    w = residue_sum(r + 1) + residue_sum(p - r)
    ypp = np.abs(second_diff(cfg))
    cells = np.atleast_1d(j) + cfg.N
    sums = np.empty(cells.size)
    # a row sum, not a BLAS matvec: one cell's bound does not depend on
    # which other cells are asked for, so blocks of rows keep the bits and
    # bound the tables at _BOUND_BLOCK entries
    rows = max(1, _BOUND_BLOCK // p)
    for lo in range(0, cells.size, rows):
        block = ypp[(cells[lo:lo + rows, None] + r) % p]
        block *= w
        sums[lo:lo + rows] = np.sum(block, axis=1)
    out = mu(profile, m) * cfg.eps * sums
    return out if np.ndim(j) else float(out[0])
