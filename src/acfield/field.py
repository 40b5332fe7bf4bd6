"""Field solves for the screened Poisson model.

The electronic field of a chain y solves

    -eps^2 phi'' + m^2 phi = rho_y

either on the full period (periodic boundary conditions) or on a slab
Omega_a = (a_L, a_R) with Dirichlet data phi(a_L) = g_L, phi(a_R) = g_R.

Two evaluation routes are provided and deliberately kept independent:

* Closed forms built on the kernel representation
  phi(x) = (1/2m) sum_k integral delta_eps(z - y_k) e^{-(m/eps)|x - z|} dz
  summed over all periodic images (`eval_green_periodic`), and the slab
  Green's function (`green_dirichlet`, `eval_green_dirichlet`).  Outside a
  bump every integral collapses through the mu moment; inside a bump a split
  Gauss rule handles the kernel kink.  These are exact up to quadrature
  (~1e-15); the production energies of `energy` and its stresses use them.

* P1 finite elements (`solve_periodic`, `solve_dirichlet`), the independent
  cross-check oracle: uniform mesh with at least `mesh_density` nodes per
  bump support, exact Gauss-Legendre load assembly (bump x hat is a
  polynomial on each sub-element), direct (cyclic-)tridiagonal solves.  The
  discrete energies are 0.5 * Field.interaction (periodic) and
  -Field.i_value (slab).  The periodic mesh lives on the fixed window
  [-F, F) independent of y, so `fem_forces`, the analytic force formula
  evaluated at the FEM field, is the *exact* discrete gradient of the
  discrete energy.  Load and forces share one vectorized loop over
  (bump, element) pieces (`_bump_pieces`).

Atoms must be separated: a slab rejects any bump whose support reaches a
wall, touching included.

FEM accuracy: the relative error of the P1 solution scales like
(m h / eps)^2 = (m sigma0 / mesh_density)^2 with a constant below ~1/8
(measured; see `fem_relative_budget`).  At the default density of 16 nodes
per bump that is ~1.2e-4, which is why identity checks in the test-suite use
the closed-form route and FEM enters only through explicit budget-aware
cross-checks.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

from .density import gauss_on_interval, grad_delta_eps, mu
from .lattice import positions

__all__ = [
    "BoundaryData",
    "Field",
    "solve_periodic",
    "solve_dirichlet",
    "fem_forces",
    "xi_closed_form",
    "eval_green_free",
    "eval_green_periodic",
    "eval_green_dirichlet",
    "green_dirichlet",
    "field_lipschitz_check",
    "fem_relative_budget",
]

#: Measured constant in the FEM error model err_rel <= C * (m h / eps)^2.
#: Observed C is ~0.27 for the periodic problem and ~0.31 for the slab
#: (default geometry, max-norm, relative to max|phi|); 1.2 gives ~4x headroom.
FEM_BUDGET_CONST = 1.2


def fem_relative_budget(profile, m, mesh_density):
    """Conservative relative-accuracy budget of a FEM solve at this density."""
    return FEM_BUDGET_CONST * (m * profile.sigma0 / mesh_density) ** 2


@dataclass(frozen=True)
class BoundaryData:
    """Slab (a_L, a_R) with Dirichlet values (g_L, g_R) and kernel scales m, eps."""

    a_L: float
    a_R: float
    g_L: float
    g_R: float
    m: float
    eps: float

    def __post_init__(self):
        if not (self.a_R > self.a_L):
            raise ValueError("need a_R > a_L")
        if not (self.m > 0 and self.eps > 0):
            raise ValueError("m and eps must be positive")

    @property
    def width(self):
        return self.a_R - self.a_L

    @property
    def tau(self):
        """Boundary-to-boundary decay factor exp(-(m/eps) * width)."""
        return math.exp(-self.m / self.eps * self.width)

    def with_g(self, g_L, g_R):
        return BoundaryData(self.a_L, self.a_R, float(g_L), float(g_R), self.m, self.eps)

    def g(self):
        return np.array([self.g_L, self.g_R])


def xi_closed_form(bd):
    """Boundary-layer part of the Dirichlet field.

    xi(x) = c_L exp(-(m/eps)(x - a_L)) + c_R exp(-(m/eps)(a_R - x)) solves the
    homogeneous equation; matching the boundary values means solving the 2x2
    system [[1, tau], [tau, 1]] c = g.  Returns the coefficients and a
    callable `xi(x) -> (value, gradient)`.
    """
    tau = bd.tau
    det = 1.0 - tau * tau
    c_L = (bd.g_L - tau * bd.g_R) / det
    c_R = (bd.g_R - tau * bd.g_L) / det
    me = bd.m / bd.eps

    def xi(x):
        x = np.asarray(x, dtype=float)
        e_L = np.exp(-me * (x - bd.a_L))
        e_R = np.exp(-me * (bd.a_R - x))
        val = c_L * e_L + c_R * e_R
        grad = me * (-c_L * e_L + c_R * e_R)
        return val, grad

    return (c_L, c_R), xi


def eval_green_free(m, eps, x):
    """Whole-line kernel G(x) = exp(-(m/eps)|x|) / (2 eps m)."""
    return np.exp(-(m / eps) * np.abs(np.asarray(x, dtype=float))) / (2.0 * eps * m)


# ---------------------------------------------------------------------------
# closed-form (kernel) route
# ---------------------------------------------------------------------------


def _bump_kernel_quad(profile, m, eps, centers, x):
    """(1/2m) integral delta_eps(z - c) e^{-(m/eps)|x-z|} dz for |x-c| < support.

    Vectorised over pairs (centers[i], x[i]); the integral is split at the
    kernel kink z = x so each Gauss rule sees a smooth integrand.
    Returns (value, gradient-in-x) arrays.
    """
    centers = np.asarray(centers, dtype=float)
    x = np.asarray(x, dtype=float)
    w = profile.half_width * eps
    me = m / eps
    t, gw = gauss_on_interval(0.0, 1.0, 24)
    val = np.zeros_like(x)
    grad = np.zeros_like(x)
    for lo, hi, sgn in ((centers - w, x, -1.0), (x, centers + w, +1.0)):
        span = hi - lo
        z = lo[:, None] + span[:, None] * t[None, :]
        wq = span[:, None] * gw[None, :]
        dens = profile.delta1((z - centers[:, None]) / eps) / eps
        piece = np.sum(wq * dens * np.exp(-me * np.abs(x[:, None] - z)), axis=1)
        val += piece / (2.0 * m)
        grad += sgn * me * piece / (2.0 * m)
    return val, grad


def eval_green_periodic(cfg, profile, m, x):
    """Exact periodic field (value, gradient) at x via the kernel representation.

    For every atom the full image sum is a pair of geometric series with ratio
    exp(-(m/eps)L); both are summed in closed form.  If x lies inside a bump's
    support the corresponding single image is evaluated by split quadrature
    instead of the mu shortcut.  Accuracy ~1e-15 relative; works for any
    configuration (no separation assumption).
    """
    x_in = np.asarray(x, dtype=float)
    xarr = np.atleast_1d(x_in).astype(float)
    y = positions(cfg)
    eps, L = cfg.eps, cfg.L
    me = m / eps
    muv = mu(profile, m)
    w = profile.half_width * eps
    q = math.exp(-me * L)
    geo = 1.0 / (1.0 - q)

    val = np.zeros_like(xarr)
    grad = np.zeros_like(xarr)
    chunk = max(1, int(2e6 // max(1, y.size)))
    for lo in range(0, xarr.size, chunk):
        xs = xarr[lo : lo + chunk]
        d0 = (xs[:, None] - y[None, :]) % L
        e_l = np.exp(-me * d0)            # images at/left of x, n >= 0
        e_r = np.exp(-me * (L - d0))      # images right of x, n >= 0
        val[lo : lo + chunk] = muv / (2.0 * m) * geo * np.sum(e_l + e_r, axis=1)
        grad[lo : lo + chunk] = muv / (2.0 * eps) * geo * np.sum(e_r - e_l, axis=1)

        # fix up points sitting inside a bump: swap the offending closed-form
        # image for the split quadrature
        for mask, dist, sgn in ((d0 < w, d0, -1.0), ((L - d0) < w, L - d0, +1.0)):
            ii, jj = np.nonzero(mask)
            if ii.size == 0:
                continue
            centers = xs[ii] + sgn * dist[ii, jj]
            qv, qg = _bump_kernel_quad(profile, m, eps, centers, xs[ii])
            closed_v = muv / (2.0 * m) * np.exp(-me * dist[ii, jj])
            closed_g = sgn * muv / (2.0 * eps) * np.exp(-me * dist[ii, jj])
            np.add.at(val, lo + ii, qv - closed_v)
            np.add.at(grad, lo + ii, qg - closed_g)

    if x_in.ndim == 0:
        return float(val[0]), float(grad[0])
    return val, grad


def green_dirichlet(bd, x, z):
    """Slab Green's function G_a(x, z): field at x of a point source at z.

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


def eval_green_dirichlet(y_at, bd, profile, x):
    """Exact Dirichlet field (value, gradient) at x: integral G_a(x,.) rho + xi.

    y_at are the atom positions inside the slab.  All mirror pieces of the
    kernel are smooth across the bumps and integrate through the mu moment in
    closed form; only the direct |x-z| piece needs the split quadrature when x
    sits inside a bump.  Includes the boundary layer xi for the data in bd.
    """
    m, eps = bd.m, bd.eps
    x_in = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x_in).astype(float)
    y = np.asarray(y_at, dtype=float)
    k = m / eps
    muv = mu(profile, m)
    w = profile.half_width * eps
    tau = bd.tau
    det = 1.0 - tau * tau
    if np.any(y - w <= bd.a_L) or np.any(y + w >= bd.a_R):
        raise ValueError("atom bumps must lie strictly inside the slab")

    dx = xs[:, None] - y[None, :]
    # direct piece: (mu/2m) e^{-k|x-c|}, quadrature when inside the bump
    e_abs = np.exp(-k * np.abs(dx))
    val = muv / (2.0 * m) * np.sum(e_abs, axis=1)
    grad = -muv / (2.0 * eps) * np.sum(np.sign(dx) * e_abs, axis=1)
    inside = np.abs(dx) < w
    ii, jj = np.nonzero(inside)
    if ii.size:
        qv, qg = _bump_kernel_quad(profile, m, eps, y[jj], xs[ii])
        closed_v = muv / (2.0 * m) * e_abs[ii, jj]
        closed_g = -muv / (2.0 * eps) * np.sign(dx[ii, jj]) * e_abs[ii, jj]
        np.add.at(val, ii, qv - closed_v)
        np.add.at(grad, ii, qg - closed_g)

    # mirror pieces (exact for every x: no kink inside the slab)
    e_xl = np.exp(-k * (xs - bd.a_L))  # decaying from the left wall
    e_xr = np.exp(-k * (bd.a_R - xs))
    s_l = np.sum(np.exp(-k * (y - bd.a_L)))  # sum_j e^{-k(y_j - a_L)}
    s_r = np.sum(np.exp(-k * (bd.a_R - y)))
    c = muv / (2.0 * m)
    val += c / det * (
        -e_xl * s_l - e_xr * s_r + tau * (e_xl * s_r + e_xr * s_l)
    )
    grad += c * k / det * (
        e_xl * s_l - e_xr * s_r + tau * (e_xr * s_l - e_xl * s_r)
    )

    if bd.g_L != 0.0 or bd.g_R != 0.0:
        _, xi = xi_closed_form(bd)
        xv, xg = xi(xs)
        val += xv
        grad += xg

    if x_in.ndim == 0:
        return float(val[0]), float(grad[0])
    return val, grad


# ---------------------------------------------------------------------------
# finite element route
# ---------------------------------------------------------------------------


@dataclass
class Field:
    """Piecewise-linear field on a uniform mesh.

    kind "periodic": nodes x0 + i*h for i = 0..n-1 on a window of length L,
    values wrap around.  kind "dirichlet": n+1 nodes from a_L to a_R.
    Scalars recorded at solve time: `interaction` = integral rho*phi_h,
    `i_value` = the discrete functional I(phi_h), `residual_rel` = relative
    algebraic residual of the linear solve.
    """

    kind: str
    x0: float
    h: float
    values: np.ndarray = dataclass_field(repr=False)
    L: float = 0.0
    rhs: np.ndarray = dataclass_field(default=None, repr=False)
    interaction: float = 0.0
    i_value: float = 0.0
    residual_rel: float = 0.0
    bd: BoundaryData = None

    @property
    def n_nodes(self):
        return self.values.size

    def nodes(self):
        return self.x0 + self.h * np.arange(self.n_nodes)

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "periodic":
            xr = (x - self.x0) % self.L
        else:
            hi = self.x0 + self.h * (self.n_nodes - 1)
            if np.any(x < self.x0 - 1e-12) or np.any(x > hi + 1e-12):
                raise ValueError("evaluation point outside the slab")
            xr = np.clip(x - self.x0, 0.0, hi - self.x0)
        i = np.minimum((xr / self.h).astype(int), self.n_nodes - 1)
        if self.kind == "periodic":
            ip1 = (i + 1) % self.n_nodes
        else:
            i = np.minimum(i, self.n_nodes - 2)
            ip1 = i + 1
        t = xr / self.h - i
        return i, ip1, t

    def value(self, x):
        i, ip1, t = self._locate(x)
        out = self.values[i] * (1.0 - t) + self.values[ip1] * t
        return out if out.ndim else float(out)

    def grad(self, x):
        i, ip1, _ = self._locate(x)
        out = (self.values[ip1] - self.values[i]) / self.h
        return out if out.ndim else float(out)


def _element_matrices(eps, m, h):
    stiff = eps**2 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
    mass = m**2 * h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return stiff + mass


def _bump_pieces(profile, eps, centers, x0, h, n_nodes, L=None):
    """Every (bump, element) piece of bumps at `centers` on the uniform mesh
    x0 + i h, with a Gauss rule exact for bump x hat on each piece.

    Returns (atom, nodes, dz, wq, hats): per piece the bump index, the
    element's two node indices (pieces x 2), the Gauss points as offsets from
    the bump center and their weights (pieces x rule), and the element's two
    hat functions at the points (pieces x rule x 2).  With a period L the
    centers are reduced into [x0, x0 + L) and supports that overhang the
    window wrap onto the n_nodes periodic nodes.
    """
    centers = np.asarray(centers, dtype=float)
    if L is not None:
        centers = x0 + (centers - x0) % L
    w = profile.half_width * eps
    i_lo = np.floor((centers - w - x0) / h).astype(int)
    i_hi = np.floor((centers + w - x0) / h - 1e-15).astype(int)
    counts = i_hi - i_lo + 1
    atom = np.repeat(np.arange(centers.size), counts)
    start = np.cumsum(counts) - counts
    i = i_lo[atom] + np.arange(atom.size) - start[atom]

    e0 = x0 + i * h
    c = centers[atom]
    lo = np.maximum(e0, c - w)
    hi = np.minimum(e0 + h, c + w)
    keep = hi > lo
    atom, i, c, e0, lo, hi = atom[keep], i[keep], c[keep], e0[keep], lo[keep], hi[keep]

    t, gw = gauss_on_interval(0.0, 1.0, 2 * profile.power + 4)
    z = lo[:, None] + (hi - lo)[:, None] * t
    wq = (hi - lo)[:, None] * gw
    e0 = e0[:, None]
    hats = np.stack([(e0 + h - z) / h, (z - e0) / h], axis=-1)
    nodes = np.stack([i, i + 1], axis=-1)
    if L is not None:
        nodes %= n_nodes
    return atom, nodes, z - c[:, None], wq, hats


def _assemble_load(profile, eps, centers, x0, h, n_nodes, L=None):
    """Exact load vector b_i = integral rho hat_i for bumps at `centers`
    (rho = sum_j delta1((x - y_j)/eps), so each bump carries charge eps)."""
    _, nodes, dz, wq, hats = _bump_pieces(profile, eps, centers, x0, h, n_nodes, L)
    piece = np.einsum("pq,pqk->pk", wq * profile.delta1(dz / eps), hats)
    # astype: with no pieces (a sourceless slab) bincount returns integers
    return np.bincount(nodes.ravel(), piece.ravel(), minlength=n_nodes).astype(float)


def fem_forces(field, profile, eps, centers):
    """Exact gradient of a solved FEM energy in the bump positions.

    D_{y_j} E = -eps integral grad_delta_eps(x - y_j) phi_h(x) dx over the
    atom's whole (wrapped) bump.  The mesh does not move with y, so this is
    the gradient of the discrete energy itself: 0.5 * field.interaction for
    a periodic field, -field.i_value for a slab.  The integrand is a
    polynomial times the piecewise-linear phi_h, so the piece rule is exact.
    """
    L = field.L if field.kind == "periodic" else None
    atom, nodes, dz, wq, hats = _bump_pieces(
        profile, eps, centers, field.x0, field.h, field.n_nodes, L)
    phi = np.sum(field.values[nodes][:, None, :] * hats, axis=-1)
    piece = np.sum(wq * grad_delta_eps(profile, eps, dz) * phi, axis=1)
    n = np.size(centers)
    return -eps * np.bincount(atom, piece, minlength=n).astype(float)


def _apply_cyclic_tridiag(diag, off, corner, x):
    ax = diag * x
    ax[:-1] += off * x[1:]
    ax[1:] += off * x[:-1]
    ax[0] += corner * x[-1]
    ax[-1] += corner * x[0]
    return ax


def _backward_error(diag, off, corner, x, b):
    """Normwise backward error |b - Ax| / (|A| |x| + |b|), infinity norms.

    The residual is accumulated in extended precision: the stiffness part of
    Ax cancels from ~|A||x| down to ~|b|, so a double-precision dot product
    cannot see residuals below that cancellation noise.  The backward-error
    normalization (rather than |r|/|b|) is the solver-quality measure that
    stays meaningful as the mesh is refined.
    """
    xl = x.astype(np.longdouble)
    ax = diag.astype(np.longdouble) * xl
    ax[:-1] += off.astype(np.longdouble) * xl[1:]
    ax[1:] += off.astype(np.longdouble) * xl[:-1]
    if corner is not None:
        ax[0] += np.longdouble(corner) * xl[-1]
        ax[-1] += np.longdouble(corner) * xl[0]
    r = np.max(np.abs(b.astype(np.longdouble) - ax))
    anorm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
    return float(r / (anorm * np.max(np.abs(x)) + np.max(np.abs(b))))


def _solve_cyclic_tridiag(diag, off, corner, b):
    """Direct solve of a symmetric cyclic tridiagonal system.

    Sherman-Morrison on top of a banded LU, plus a couple of iterative
    refinement sweeps: the rank-one correction alone can lose a digit and the
    solve contract is a 1e-12 relative residual.
    """
    n = diag.size
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= corner * corner / gamma
    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1] = d
    ab[2, :-1] = off
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = corner

    def sm_solve(rhs):
        zq = solve_banded((1, 1), ab, np.column_stack([rhs, u]))
        zvec, qvec = zq[:, 0], zq[:, 1]
        vz = zvec[0] + corner / gamma * zvec[-1]
        vq = qvec[0] + corner / gamma * qvec[-1]
        return zvec - qvec * (vz / (1.0 + vq))

    x = sm_solve(b)
    for _ in range(2):
        if _backward_error(diag, off, corner, x, b) <= 1e-14:
            break
        r = b - _apply_cyclic_tridiag(diag, off, corner, x)
        x = x + sm_solve(r)
    return x


def solve_periodic(cfg, profile, m, mesh_density=16, constant_rho=None):
    """P1 FEM solve of the periodic field problem on the fixed window [-F, F).

    The mesh has (2N+1) * ceil(mesh_density * F / sigma0) uniform elements, so
    it is commensurate with the homogeneous lattice and never moves with y —
    which is what makes analytic force formulas exact discrete gradients.
    `constant_rho=c` replaces the density by the constant c (test hook; the
    exact solution c/m^2 is then reproduced to machine precision).
    """
    eps, L, F = cfg.eps, cfg.L, cfg.F
    n_per_cell = max(1, math.ceil(mesh_density * F / profile.sigma0))
    n = cfg.n_atoms * n_per_cell
    h = L / n
    x0 = -F

    # stiffness+mass: same 2x2 block on every element, cyclic assembly
    el = _element_matrices(eps, m, h)
    diag = np.full(n, 2.0 * el[0, 0])
    off = np.full(n - 1, el[0, 1])
    corner = el[0, 1]

    if constant_rho is None:
        y = positions(cfg)
        b = _assemble_load(profile, eps, y, x0, h, n, L)
    else:
        b = np.full(n, float(constant_rho) * h)

    phi = _solve_cyclic_tridiag(diag, off, corner, b)

    # backward-error residual and the discrete functional
    res = _backward_error(diag, off, corner, phi, b)
    if res > 1e-12:
        raise RuntimeError("periodic FEM solve residual %.3e exceeds 1e-12" % res)
    aphi = _apply_cyclic_tridiag(diag, off, corner, phi)
    interaction = float(b @ phi)
    i_value = 0.5 * float(phi @ aphi) - interaction
    return Field(
        kind="periodic", x0=x0, h=h, values=phi, L=L, rhs=b,
        interaction=interaction, i_value=i_value, residual_rel=float(res),
    )


def solve_dirichlet(y_at, bd, profile, mesh_density=16):
    """P1 FEM solve of the slab problem with strong Dirichlet data from bd.

    y_at: atom positions, whose bumps must lie strictly inside (a_L, a_R).
    Returns a Field whose i_value is the discrete I(phi_h) including the
    boundary nodes, so -i_value is the discrete slab energy.
    """
    m, eps = bd.m, bd.eps
    y = np.asarray(y_at, dtype=float)
    w = profile.half_width * eps
    if np.any(y - w <= bd.a_L) or np.any(y + w >= bd.a_R):
        raise ValueError("atom bumps must lie strictly inside the slab")
    n = max(4, math.ceil(bd.width * mesh_density / (eps * profile.sigma0)))
    h = bd.width / n

    el = _element_matrices(eps, m, h)
    diag = np.full(n + 1, 2.0 * el[0, 0])
    diag[0] = diag[-1] = el[0, 0]
    off = np.full(n, el[0, 1])
    b = _assemble_load(profile, eps, y, bd.a_L, h, n + 1)

    phi = np.empty(n + 1)
    phi[0], phi[-1] = bd.g_L, bd.g_R
    rhs = b[1:-1].copy()
    rhs[0] -= off[0] * bd.g_L
    rhs[-1] -= off[-1] * bd.g_R
    ab = np.zeros((2, n - 1))
    ab[0, 1:] = off[1:-1]
    ab[1] = diag[1:-1]
    phi[1:-1] = solveh_banded(ab, rhs)

    # backward error of the interior system (boundary rows carry the strong BC)
    res_int = _backward_error(diag[1:-1], off[1:-1], None, phi[1:-1], rhs)
    if res_int > 1e-12:
        raise RuntimeError("dirichlet FEM solve residual %.3e exceeds 1e-12" % res_int)
    aphi = _apply_cyclic_tridiag(diag, off, 0.0, phi)
    interaction = float(b @ phi)
    i_value = 0.5 * float(phi @ aphi) - interaction
    return Field(
        kind="dirichlet", x0=bd.a_L, h=h, values=phi, L=0.0, rhs=b,
        interaction=interaction, i_value=i_value, residual_rel=float(res_int),
        bd=bd,
    )


def field_lipschitz_check(y_at, bd1, bd2, profile, mesh_density=16, n_samples=200, seed=0):
    """Compare two slab solves differing only in boundary data against the
    exponential-locality bound

        |phi1 - phi2|(x)        <= sqrt(2) |T^{-1}(g1-g2)| e^{-(m/eps) d_a(x)}
        eps |phi1' - phi2'|(x)  <= sqrt(2) m |T^{-1}(g1-g2)| e^{-(m/eps) d_a(x)}

    with d_a(x) = dist(x, {a_L, a_R}).  Sample points are drawn uniformly over
    the slab; points where the bound itself sinks below the FEM noise floor
    (budget * |g| scale) are reported but excluded from the ratio, since there
    the two numerical solutions agree only to solver precision.  Returns a
    report dict; raises nothing.
    """
    if (bd1.a_L, bd1.a_R, bd1.m, bd1.eps) != (bd2.a_L, bd2.a_R, bd2.m, bd2.eps):
        raise ValueError("boundary data must share the same slab and scales")
    f1 = solve_dirichlet(y_at, bd1, profile, mesh_density)
    f2 = solve_dirichlet(y_at, bd2, profile, mesh_density)
    dg = bd1.g() - bd2.g()
    tau = bd1.tau
    det = 1.0 - tau * tau
    tinv_dg = np.array([dg[0] - tau * dg[1], dg[1] - tau * dg[0]]) / det
    amp = float(np.linalg.norm(tinv_dg))
    m, eps = bd1.m, bd1.eps

    rng = np.random.default_rng(seed)
    xs = bd1.a_L + bd1.width * rng.random(n_samples)
    d_a = np.minimum(xs - bd1.a_L, bd1.a_R - xs)
    envelope = np.exp(-(m / eps) * d_a)
    bound_v = math.sqrt(2.0) * amp * envelope
    bound_g = math.sqrt(2.0) * m * amp * envelope

    dv = np.abs(f1.value(xs) - f2.value(xs))
    dgr = eps * np.abs(f1.grad(xs) - f2.grad(xs))
    floor = fem_relative_budget(profile, m, mesh_density) * max(amp, 1e-300)
    usable = bound_v > floor
    ratio_v = float(np.max(dv[usable] / bound_v[usable])) if usable.any() else 0.0
    ratio_g = float(np.max(dgr[usable] / bound_g[usable])) if usable.any() else 0.0
    return {
        "max_ratio_value": ratio_v,
        "max_ratio_gradient": ratio_g,
        "n_usable": int(usable.sum()),
        "n_samples": int(n_samples),
        "noise_floor": floor,
        "amp": amp,
        "ok": bool(ratio_v <= 1.0 + 10.0 * fem_relative_budget(profile, m, mesh_density)
                   and ratio_g <= 1.0 + 10.0 * fem_relative_budget(profile, m, mesh_density)),
    }
