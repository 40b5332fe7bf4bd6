"""Per-cell Cauchy-Born continuum approximation.

Each cell Q_j = (y_{j-1}, y_j) is compared to the infinite equidistant chain
through its two atoms, y^(j)_k = y_j + (k - j) eps y'_j.  Because separated
bumps interact only through mu^2 e^{-(m/eps) dist}, the per-atom energy of
that chain is a geometric series with the exact closed form

    e(s) = (mu^2 eps / 2m) x / (1 - x) + E_self,      x = e^{-m s},

which is what the cell energy, the continuum forces and the Hessian all
differentiate.  Since e''(s) >= (m mu^2 eps / 2) x, every cell's curvature
is at least eps times the uniform convexity floor (m mu^2 / 2) e^{-m max y'},
the bound that `ac.stability_spectrum` returns next to the smallest
eigenvalue.  The cell field psi^(j) is the lattice Green sum of the
comparison chain, one bump per period eps y'_j, with an exact quadrature
correction on the bump that contains the evaluation point; every cell's
field comes from one batch routine (`field._cell_fields`), and the bound
on its gap to the chain field is summed in closed form, with no truncation,
for every cell at once.  On one configuration the cell terms e(y'_j) and
e'(y'_j) are formed once (`_cell_terms`) and read by the total energy, the
forces and both couplings of `ac`.  Nothing in this module touches a mesh.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import _curvature_prefactor, _mu_squared, check_separated, mu
from .energy import self_energy
from .field import _cell_fields, _kept, _read_only
from .hessian import StructuredHessian
from .lattice import first_diff, positions, second_diff

__all__ = [
    "CellState",
    "cell_state",
    "cb_cell_energy",
    "cb_cell_denergy",
    "cb_cell_d2energy",
    "cb_cell_field",
    "cb_cell_fields",
    "cb_total_energy",
    "cb_forces",
    "cb_hessian_structured",
    "comparison_field_bound",
]

# entries per block of `comparison_field_bound`'s (cells x (2N+1)) tables
_BOUND_BLOCK = 1 << 16


def cb_cell_energy(strain, profile, m, eps):
    """Cell energy e(strain): per-atom energy of the equidistant comparison chain."""
    x = np.exp(-m * np.asarray(strain, dtype=float))
    out = _mu_squared(mu(profile, m), m) * eps / (2.0 * m) * x / (1.0 - x) \
        + self_energy(profile, m, eps)
    return out if out.ndim else float(out)


def cb_cell_denergy(strain, profile, m, eps):
    """e'(strain) = -(mu^2 eps / 2) x / (1-x)^2."""
    x = np.exp(-m * np.asarray(strain, dtype=float))
    out = -_mu_squared(mu(profile, m), m) * eps / 2.0 * x / (1.0 - x) ** 2
    return out if out.ndim else float(out)


def cb_cell_d2energy(strain, profile, m, eps):
    """e''(strain) = (m mu^2 eps / 2) x (1+x) / (1-x)^3 > 0."""
    x = np.exp(-m * np.asarray(strain, dtype=float))
    c = _curvature_prefactor(_mu_squared(mu(profile, m), m) * m * eps / 2.0, m)
    out = c * x * (1.0 + x) / (1.0 - x) ** 3
    return out if out.ndim else float(out)


@dataclass(eq=False)
class CellState:
    """One cell of the chain together with its comparison-chain data.

    anchor is the right atom y_j; the comparison chain runs through
    anchor + n * eps * strain for all integer n.  Its energy is
    `cb_cell_energy(strain)` and its field `cb_cell_field`.
    """

    j: int
    strain: float
    anchor: float
    profile: object
    m: float
    eps: float

    def __post_init__(self):
        if self.strain <= self.profile.sigma0:
            raise ValueError(
                "cell strain %.3g leaves comparison-chain bumps overlapping"
                % self.strain
            )

    @property
    def spacing(self):
        return self.eps * self.strain


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
    """(psi^(j), grad psi^(j)) at x: the kernel sum over the cell's comparison
    chain, every image in closed form."""
    val, grad = _cell_fields([cell.anchor], [cell.spacing], cell.profile, cell.m, cell.eps,
                             np.atleast_1d(x)[None])
    return val[0], grad[0]


def cb_cell_fields(cfg, profile, m, xs):
    """(psi^(j), grad psi^(j)) of every cell at once: row j + N of xs (shape
    (2N+1, P)) is evaluated for cell Q_j's comparison chain."""
    check_separated(cfg, profile, "cb_cell_fields")
    return _cell_fields(positions(cfg), cfg.eps * first_diff(cfg), profile, m, cfg.eps, xs)


class _CellTerms:
    """e(y'_j) and e'(y'_j) of every cell of one configuration, each formed
    on first use, read-only."""

    def __init__(self, cfg, profile, m):
        self.strains = first_diff(cfg)
        self.profile = profile
        self.m = m
        self.eps = cfg.eps

    @cached_property
    def energy(self):
        return _read_only(cb_cell_energy(self.strains, self.profile, self.m, self.eps))

    @cached_property
    def denergy(self):
        return _read_only(cb_cell_denergy(self.strains, self.profile, self.m, self.eps))


def _cell_terms(cfg, profile, m):
    """The `_CellTerms` of cfg, kept for it (`field._kept`): the Cauchy-Born
    model and both couplings read the same cell terms."""
    return _kept(cfg, ("cell terms", profile, m), lambda: _CellTerms(cfg, profile, m))


def _cell_pulls(v):
    """v_p - v_{p+1}, cells wrapping: cell c pulls atoms c and c-1."""
    out = np.empty_like(v)
    np.subtract(v[:-1], v[1:], out=out[:-1])
    out[-1] = v[-1] - v[0]
    return out


def cb_total_energy(cfg, profile, m):
    """E^cb(y) = sum over the 2N+1 cells of e(y'_j)."""
    check_separated(cfg, profile, "cb_total_energy")
    return float(np.sum(_cell_terms(cfg, profile, m).energy))


def cb_forces(cfg, profile, m):
    """Gradient of E^cb: D_{y_p} = (e'(y'_p) - e'(y'_{p+1})) / eps, cells wrapping."""
    check_separated(cfg, profile, "cb_forces")
    grad = _cell_pulls(_cell_terms(cfg, profile, m).denergy)
    grad /= cfg.eps
    return grad


def _cb_band(cfg, profile, m, weights):
    """(diagonal, off) of the Hessian of sum_j w_j e(y'_j): cell j couples
    atoms j-1 and j through the curvature w_j e''(y'_j) / eps^2, so
    off[j] = -w_j e''(y'_j) / eps^2 (off[0] across the period)."""
    c = weights * (cb_cell_d2energy(first_diff(cfg), profile, m, cfg.eps) / cfg.eps**2)
    diag = c.copy()
    diag[:-1] += c[1:]
    diag[-1] += c[0]
    return diag, -c


def cb_hessian_structured(cfg, profile, m):
    """Exact Hessian of E^cb in structured form (`hessian.StructuredHessian`):
    cyclic tridiagonal, D^T diag(e''(y') / eps^2) D with D the periodic
    first difference."""
    check_separated(cfg, profile, "cb_hessian_structured")
    n = cfg.n_atoms
    return StructuredHessian(*_cb_band(cfg, profile, m, 1.0), None,
                             np.zeros((n, 0)), np.zeros((0, 0)))


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
