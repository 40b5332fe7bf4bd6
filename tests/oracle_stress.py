"""The stress route DE(y) . u = integral sigma_y (Iu)', Iu the piecewise-affine
interpolant of u: the oracle of the closed-form forces, which the tests import
(`from oracle_stress import ...`) and no module of the package does.

It holds the chain density `rho` and the bump derivatives `grad_delta1` and
`grad_delta_eps`; the periodic and slab stresses, whose weak forms equal
`energy.forces_periodic . u` and `energy.d_energy_dirichlet_y . u`; a
Cauchy-Born cell's stress; and method 1's coupled stress sigma^qc, whose
weak form equals `ac.ac_forces . u`.
"""

import math
from functools import partial

import numpy as np

from acfield.ac import _window
from acfield.cauchy_born import cb_cell_field
from acfield.density import check_separated, delta_eps, gauss_on_interval
from acfield.field import _cell_fields, _neighbours, eval_green_dirichlet, eval_green_periodic
from acfield.lattice import first_diff, positions

_GAUSS_ORDER = 24  # Gauss points per piece between bump edges


def grad_delta1(profile, x):
    """Derivative of the reference-scale bump `profile.delta1` at x."""
    x = np.asarray(x, dtype=float)
    t = 2.0 * x / profile.sigma0
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    ti = t[inside]
    out[inside] = (
        profile.norm_const
        * profile.power
        * (1.0 - ti**2) ** (profile.power - 1)
        * (-2.0 * ti)
        * (2.0 / profile.sigma0)
    )
    return out if out.ndim else float(out)


def grad_delta_eps(profile, eps, x):
    """Derivative of the atomic-scale bump delta_eps."""
    return grad_delta1(profile, np.asarray(x, dtype=float) / eps) / eps**2


def _bump_offset(y, L, w, x):
    """x - c to the centre c of the one bump (half-width w, atoms y, period L;
    separated) that holds x, a neighbour's; w outside every bump."""
    ye, x, r = _neighbours(y, L, x)
    d_l, d_r = x - ye[r - 1], ye[r] - x
    return np.where(d_l < w, d_l, np.where(d_r < w, -d_r, w))


def rho(cfg, profile, x):
    """Chain density rho_y(x) = eps * sum_j delta_eps(x - y_j), periodic in x,
    from the one bump that can hold each point.  Raises on contact."""
    check_separated(cfg, profile, "rho")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    d = _bump_offset(positions(cfg), cfg.L, profile.half_width * cfg.eps, xs)
    out = cfg.eps * delta_eps(profile, cfg.eps, d)
    return out if np.ndim(x) else float(out[0])


def _nodal_values(u, n):
    """u as a float array of n finite nodal values; any other length, or a
    non-finite entry, raises."""
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError("u must hold %d nodal values, got shape %s" % (n, u.shape))
    if not np.all(np.isfinite(u)):
        raise ValueError("u must hold finite nodal values")
    return u


class StressFunction:
    """The stress sigma_y of a solved field, split into its two parts:

    sigma_1 = eps^2/2 |phi'|^2 - m^2/2 phi^2 + rho phi        (field part)
    sigma_2 = eps sum_images phi(x) grad_delta_eps(x - c) (x - c)

    `atoms` are the ascending sources in one period L of their bump train:
    the chain (2F), a slab (2(a_R - a_L), as in `eval_green_dirichlet`: no
    image reaches into the slab) or a comparison chain (its spacing).  rho
    and sigma_2 come from the one bump that holds a point
    (`_bump_offset`), phi and phi' from one call of `field_eval(x)`.
    Integration splits at every bump edge so the Gauss rule never crosses a
    kink.
    """

    def __init__(self, field_eval, atoms, profile, m, eps, L):
        self.field_eval = field_eval
        self.atoms = np.asarray(atoms, dtype=float)
        self.profile = profile
        self.m = m
        self.eps = eps
        self.L = L
        self.w = profile.half_width * eps

    def _parts(self, x):
        """(sigma_1, sigma_2) at x from one field call and one bump offset."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = _bump_offset(self.atoms, self.L, self.w, x)  # first: a non-finite x raises
        v, g = self.field_eval(x)
        rho = self.eps * delta_eps(self.profile, self.eps, d)
        return (0.5 * self.eps**2 * g**2 - 0.5 * self.m**2 * v**2 + rho * v,
                self.eps * v * grad_delta_eps(self.profile, self.eps, d) * d)

    def sigma1(self, x):
        return self._parts(x)[0]

    def sigma2(self, x):
        return self._parts(x)[1]

    def __call__(self, x):
        s1, s2 = self._parts(x)
        return s1 + s2

    def _breakpoints(self, a, b):
        """a, b and every bump edge inside (a, b), images included, sorted."""
        edges = np.concatenate([self.atoms - self.w, self.atoms + self.w])
        n = np.arange(math.floor((a - edges.max()) / self.L),
                      math.ceil((b - edges.min()) / self.L) + 1)
        edges = (edges[:, None] + n * self.L).ravel()
        inside = edges[(a < edges) & (edges < b)]
        return np.unique(np.concatenate([[a, b], inside]))

    def _slope_integral(self, nodes, slopes):
        """sum_j slopes_j * integral of sigma over (nodes_j, nodes_j+1), for
        ascending nodes: the intervals of nonzero slope split at every bump
        edge (`_breakpoints`), and the Gauss points of all pieces in one
        stress call."""
        pts = np.union1d(nodes, self._breakpoints(nodes[0], nodes[-1]))
        slope = slopes[np.searchsorted(nodes, pts[:-1], side="right") - 1]
        keep = slope != 0.0
        z, wq = gauss_on_interval(pts[:-1][keep, None], pts[1:][keep, None], _GAUSS_ORDER)
        return float(np.sum(slope[keep, None] * wq * self(z.ravel()).reshape(z.shape)))

    def integral(self, a, b):
        """Signed integral of sigma from a to b, split at bump edges:
        integral(b, a) is -integral(a, b)."""
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("integration limits must be finite")
        if b < a:
            return -self.integral(b, a)
        return self._slope_integral(np.array([a, b]), np.ones(1)) if b > a else 0.0


def stress_periodic(cfg, profile, m):
    """StressFunction of the periodic field (kernel route)."""
    return StressFunction(lambda x: eval_green_periodic(cfg, profile, m, x), positions(cfg),
                          profile, m, cfg.eps, cfg.L)


def stress_dirichlet(y_at, bd, profile):
    """StressFunction of the slab field (kernel route), on its kernel period."""
    return StressFunction(lambda x: eval_green_dirichlet(y_at, bd, profile, x), y_at,
                          profile, bd.m, bd.eps, 2.0 * bd.width)


def cb_stress_function(cell):
    """StressFunction of the comparison chain (periodic with the cell spacing)."""
    return StressFunction(partial(cb_cell_field, cell), [cell.anchor], cell.profile, cell.m,
                          cell.eps, cell.spacing)


def _weak_form(sf, nodes, vals):
    """integral of the stress sf against the gradient of the piecewise-affine
    interpolant through (nodes, vals): each piece's slope against the stress
    over the piece, all pieces in one pass (flat pieces skipped)."""
    nodes = np.asarray(nodes, dtype=float)
    return sf._slope_integral(nodes, np.diff(vals) / np.diff(nodes))


def weak_form_periodic(cfg, u, profile, m):
    """integral sigma_y grad(u-interpolant) over the period.

    u holds nodal values at atoms -N..N; the interpolant is piecewise affine
    between consecutive atoms (periodic closure).  Equals forces . u for the
    exact field; the kernel-route stress realises that identity to
    quadrature precision.
    """
    u = _nodal_values(u, cfg.n_atoms)
    uu = np.concatenate([[u[-1]], u])  # periodic: u_{-N-1} = u_N
    return _weak_form(stress_periodic(cfg, profile, m), positions(cfg, -cfg.N - 1, cfg.N), uu)


def weak_form_dirichlet(y_at, bd, profile, u):
    """integral sigma_y grad(u-interpolant) for u vanishing on the walls.

    Interpolation nodes are a_L, the atoms, a_R with values 0, u, 0; equals
    d_energy_dirichlet_y . u for the exact field.
    """
    y = np.asarray(y_at, dtype=float)
    nodes = np.concatenate([[bd.a_L], y, [bd.a_R]])
    vals = np.concatenate([[0.0], _nodal_values(u, y.size), [0.0]])
    return _weak_form(stress_dirichlet(y, bd, profile), nodes, vals)


def _qc_stress(cfg, method, profile, m):
    """(sigma^qc, bd): method 1's coupled stress, one `StressFunction` of the
    chain, and the slab's boundary data.  Its field is the slab's inside
    (a_L, a_R), else the comparison field of the cell (y_{j-1}, y_j] holding
    the point: one `eval_green_dirichlet` and one `_cell_fields` call, one
    row per point.  A cell's comparison bumps are the chain's own, so the
    chain's bump edges and offsets serve both parts.  Method 2's derivative
    carries a boundary-data term no stress field represents: it raises."""
    if method.variant != "method1":
        raise ValueError("the coupled stress exists for method 1 only")
    win = _window(cfg, method.partition, profile, m)
    bd = win.bd(method.variant)
    y, spacing = positions(cfg, -cfg.N - 1, cfg.N), cfg.eps * first_diff(cfg)

    def field(x):
        inside = (x > bd.a_L) & (x < bd.a_R)
        val, grad = np.empty_like(x), np.empty_like(x)
        val[inside], grad[inside] = eval_green_dirichlet(win.y_at, bd, profile, x[inside])
        out = x[~inside]
        c = np.searchsorted(y, out, side="left") - 1  # cell c joins y[c], y[c + 1]
        v, g = _cell_fields(y[c + 1], spacing[c], profile, m, cfg.eps, out[:, None])
        val[~inside], grad[~inside] = v[:, 0], g[:, 0]
        return val, grad

    return StressFunction(field, positions(cfg), profile, m, cfg.eps, cfg.L), bd


def sigma_qc(cfg, method, x, profile, m):
    """Coupled stress of method 1 (`_qc_stress`) at x in (y_{-N-1}, y_N]."""
    sf, _ = _qc_stress(cfg, method, profile, m)
    y = positions(cfg, -cfg.N - 1, cfg.N)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xs > y[0]) & (xs <= y[-1])):
        raise ValueError("evaluation point outside the periodic window")
    out = sf(xs)
    return out if np.ndim(x) else float(out[0])


def weak_form_qc(cfg, method, u, profile, m):
    """integral sigma^qc grad(interpolant of u) over the period (method 1).

    The interpolant runs through the atoms and through the walls, whose
    values move with the interface midpoints: u(a_L) = (u_{-K-1}+u_{-K})/2.
    A half cell keeps its full cell's gradient because the wall value is the
    midpoint value.  Equals ac_forces . u -- the weak form of the coupled
    energy.
    """
    sf, bd = _qc_stress(cfg, method, profile, m)
    u = _nodal_values(u, cfg.n_atoms)
    # y and uu start at atom -N-1, so cell c joins their entries c and c+1
    at = np.add(method.partition.interface_cells(cfg), 1)
    y = positions(cfg, -cfg.N - 1, cfg.N)
    uu = np.concatenate([[u[-1]], u])
    mid = 0.5 * (uu[at - 1] + uu[at])
    return _weak_form(sf, np.insert(y, at, [bd.a_L, bd.a_R]), np.insert(uu, at, mid))
