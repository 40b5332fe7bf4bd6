"""Field solves for the screened Poisson model.

The electronic field of a chain y solves

    -eps^2 phi'' + m^2 phi = rho_y

either on the full period (periodic boundary conditions) or on a slab
Omega_a = (a_L, a_R) with Dirichlet data phi(a_L) = g_L, phi(a_R) = g_R.

Two evaluation routes are provided and deliberately kept independent:

* Closed forms built on the kernel representation
  phi(x) = (1/2m) sum_c integral delta_eps(z - c) e^{-(m/eps)|x - z|} dz
  over the periodic images c of the bumps.  One routine, `_kernel_field`,
  sums it for two periods: the chain, L = 2F (`eval_green_periodic`), and
  the slab, L = 2(a_R - a_L), where odd reflection at both walls puts
  same-sign images of every charge on that lattice and leaves only the odd
  mirror charges, added in closed form (`eval_green_dirichlet`).  The
  Cauchy-Born comparison chains of the cells, one bump per period
  L = eps * y'_j, are summed all at once (`_cell_fields`); both routines
  end in the same two-neighbour formula (`_neighbour_field`).
  Outside a bump every integral collapses through the mu moment; inside a
  bump its own integral is a Taylor series in the offset or, at large
  m sigma0, its closed form (`_bump_kernel`), on coefficients that
  `density._bump_moments` forms from the same exact integers as mu and
  self_moment.  The kernel is separable, so a point needs only its two
  neighbouring atoms (one search, `density._neighbours`, which the tests'
  stress oracle shares) and their right and left sums over every image
  (`_right_sums`, which the pair energies of `energy` share; `_kept` keeps
  a configuration's, so its energy, forces, Hessian and field scan it once
  per side):
  O((n + P) log n) for P points and O(P) memory, with no truncation and no
  quadrature, exact to roundoff (the in-bump part within 2e-15 of its
  maximum, against mpmath).  The energies of `energy` use them, and so do
  the stresses of the tests' oracle (tests/oracle_stress.py).

* P1 finite elements (`solve_periodic`, `solve_dirichlet`), the independent
  cross-check oracle: uniform mesh with at least `mesh_density` nodes per
  bump support, exact Gauss-Legendre load assembly (bump x hat is a
  polynomial on each sub-element), direct solves by FFT: the periodic matrix
  is circulant, and the slab's interior matrix is tridiagonal Toeplitz, which
  the odd extension makes circulant (the method of images on the mesh).  The
  discrete energies are 0.5 * Field.interaction (periodic) and
  -Field.i_value (slab).  The periodic mesh lives on the fixed window
  [-F, F) independent of y, so the analytic force formula evaluated at the
  FEM field (`fem_forces`, tests/oracle_fem.py) is the *exact* discrete
  gradient of the discrete energy.  The load and those forces share one
  loop over (bump, element) pieces (`_bump_pieces`), vectorized over blocks
  of whole bumps under a fixed piece budget (`_piece_blocks`), and the
  solves keep the mesh's constant stencil as scalars, so a solve's memory
  is O(nodes) at a small constant: a tracemalloc peak of 10 doubles per
  mesh node for the periodic solve and 14 for the slab, whose floor is the
  odd-extension FFT (density 64, N = 80-160).

Atoms must be separated, and touching counts as contact.  A chain is checked
by `density.check_separated`, the one contact rule for a chain, which
`eval_green_periodic` calls; a slab rejects any bump whose support reaches a
wall or another bump (`_check_inside_slab`, run by `_walls`).  The kernel
sums `_kernel_field` and `_cell_fields` check nothing: every caller has.
Every slab route, here and in `energy` and `ac`, reads its wall sums and
moments from `_walls` and solves T c = g by `_t_solve`.

FEM accuracy: the relative error of the P1 solution scales like
(m h / eps)^2 = (m sigma0 / mesh_density)^2 with a constant below ~1/8
(measured; see `fem_relative_budget` in tests/oracle_fem.py).  At the
default density of 16 nodes per bump that is ~1.2e-4, which is why identity
checks in the test-suite use the closed-form route and FEM enters only
through explicit budget-aware cross-checks.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .density import (
    _bump_moments,
    _neighbours,
    check_separated,
    gauss_on_interval,
    mu,
)
from .hessian import _apply_cyclic_tridiag
from .lattice import positions

__all__ = [
    "BoundaryData",
    "Field",
    "solve_periodic",
    "solve_dirichlet",
    "xi_closed_form",
    "eval_green_periodic",
    "eval_green_dirichlet",
]

_TINY = float(np.finfo(float).tiny)  # the smallest normal double

#: (bump, element) pieces per block of the FEM load and force loops
#: (`_piece_blocks`).  A piece's temporaries peak at ~90 doubles, so a block
#: holds under 1 MB, whatever the mesh (1024-2048 measured fastest).
_PIECE_BUDGET = 1024


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
        values = (self.a_L, self.a_R, self.g_L, self.g_R, self.m, self.eps)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("boundary data must be finite")
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


def _check_inside_slab(y_at, bd, profile):
    """Raise unless every atom bump lies strictly inside (a_L, a_R) and the
    atoms ascend with separated bumps (neighbours more than one support
    apart); a NaN position fails too.  A bump touching a wall or another
    bump counts as contact.  The slab closed forms hold only for ascending,
    separated bumps."""
    y = np.asarray(y_at, dtype=float)
    w = profile.half_width * bd.eps
    if not ((y - w > bd.a_L) & (y + w < bd.a_R)).all():
        raise ValueError("atom bumps must lie strictly inside the slab")
    if not (y[1:] - y[:-1] > 2.0 * w).all():
        raise ValueError("slab atoms must ascend with separated bumps")


def _walls(y_at, bd, profile):
    """The slab's wall data, independent of g, after `_check_inside_slab`:
    (s_L, s_R, gamma_L, gamma_R), s_L = e^{-k(y_j - a_L)}, s_R = e^{-k(a_R - y_j)}
    (read-only), k = m/eps, and the wall moments gamma = (mu/m) sum s."""
    _check_inside_slab(y_at, bd, profile)
    y = np.asarray(y_at, dtype=float)
    k = bd.m / bd.eps
    s_l = _read_only(np.exp(-k * (y - bd.a_L)))
    s_r = _read_only(np.exp(-k * (bd.a_R - y)))
    muv = mu(profile, bd.m)
    return s_l, s_r, muv / bd.m * float(np.sum(s_l)), muv / bd.m * float(np.sum(s_r))


def _t_solve(g_l, g_r, tau):
    """c = T^{-1} g, T = [[1, tau], [tau, 1]]; plain arithmetic (complex-safe)."""
    d = 1.0 - tau * tau
    return (g_l - tau * g_r) / d, (g_r - tau * g_l) / d


def _check_points_in_slab(x, a_L, a_R):
    """Raise unless every x (not NaN) lies in [a_L, a_R], up to 1e-12."""
    if not np.all((x >= a_L - 1e-12) & (x <= a_R + 1e-12)):
        raise ValueError("evaluation point outside the slab")


def xi_closed_form(bd):
    """Boundary-layer part of the Dirichlet field.

    xi(x) = c_L exp(-(m/eps)(x - a_L)) + c_R exp(-(m/eps)(a_R - x)) solves the
    homogeneous equation; matching the boundary values means solving the 2x2
    system [[1, tau], [tau, 1]] c = g.  Returns the coefficients and a
    callable `xi(x) -> (value, gradient)`.
    """
    c_L, c_R = _t_solve(bd.g_L, bd.g_R, bd.tau)
    me = bd.m / bd.eps

    def xi(x):
        x = np.asarray(x, dtype=float)
        e_L = np.exp(-me * (x - bd.a_L))
        e_R = np.exp(-me * (bd.a_R - x))
        val = c_L * e_L + c_R * e_R
        grad = me * (-c_L * e_L + c_R * e_R)
        return val, grad

    return (c_L, c_R), xi


# ---------------------------------------------------------------------------
# closed-form (kernel) route
# ---------------------------------------------------------------------------


def _bump_kernel(profile, m, eps, d):
    """(1/2m) integral delta_eps(z) e^{-(m/eps)|d - z|} dz, the field of one
    bump at the offsets d (an array) from its centre, |d| < w = eps sigma0/2:
    with t = d/w it is (C_p/(2 m eps)) w J(t), and its gradient in d is
    (C_p/(2 m eps)) J'(t), J as in `density._bump_moments`, which gives mu
    and self_moment from the same coefficients.  Horner in t^2, in place, so
    it holds a few arrays the size of d.  Returns (value, gradient) arrays."""
    if not (0.0 < m < math.inf):
        raise ValueError("the kernel field needs a finite m > 0, got %r" % (m,))
    c, a = _bump_moments(profile, m)[:2]
    w = profile.half_width * eps
    t = d / w
    u = t * t
    val = np.full_like(t, c[-1])
    grad = np.full_like(t, 2 * (len(c) - 1) * c[-1])
    for i in range(len(c) - 2, 0, -1):
        val *= u
        val += c[i]
        grad *= u
        grad += 2 * i * c[i]
    val *= u
    val += c[0]
    grad *= t
    if a:
        kappa = m * profile.half_width
        near = np.exp(-kappa * (1.0 - t))
        far = np.exp(-kappa * (1.0 + t))
        val -= a * (near + far)
        grad -= a * kappa * (near - far)
    scale = profile.norm_const / (2.0 * m * eps)
    val *= scale * w
    grad *= scale
    return val, grad


def _gap_factors(y, k, L=None):
    """The per-gap factors x_l = e^{-k g_l} of the chain y, with a period L
    the wrap gap y_0 + L - y_{n-1} last."""
    return np.exp(-k * np.diff(y if L is None else np.append(y, y[0] + L)))


def _right_sums(y, k, L=None, x=None):
    """F_i = sum of e^{-k (y_r - y_i)} over every atom r right of atom i
    (ascending y) and, with a period L, over every image too.  x holds the
    chain's gap factors (`_gap_factors`) if they are already formed.

    The kernel factorizes along the chain: with the per-gap factors
    x_l = e^{-k g_l}, a pair's weight is the product of the x_l between the
    two atoms, so F_i = x_i (1 + F_{i+1}).  A doubling scan solves this
    first-order recurrence in log2(n) vector steps (Kogge-Stone; Blelloch,
    "Prefix sums and their applications"): after the step of stride s,
    F_i = a_i + b_i F_{i+2s}, with a_i the sum over the next 2s gaps and b_i
    their product.  This gives R, the sums up to the last atom (with a
    period: up to the image of atom 0).  The periodic wrap closes in closed
    form, F = R + P R_0 / (1 - q) with P_i = e^{-k (y_0 + L - y_i)} and
    q = e^{-kL}.  Every term is a positive product and no term is dropped.

    Work whose result cannot change a bit is skipped, so the output is
    bit for bit that of the full scan.  The step of stride s adds
    b_i a_{i+s} <= xmax^s * xmax / (1 - xmax) to an a_i >= min x; once
    xmax^s * 4 xmax / (1 - xmax) is below a quarter ulp of min x, the sum
    rounds back to a_i, and the same holds at every larger stride, so the
    scan stops.  The stop stride is found once from min x and max x, and
    only when 0 < xmax < 1/2 and that quarter ulp is a normal number (so
    the rounding of subnormal products cannot matter); otherwise the scan
    runs to the end.  At k gap ~ 1 it takes 6 steps instead of 12, and the
    products b never reach the slow subnormal range.  The wrap's P_i is
    exactly 0 where k (y_0 + L - y_i) > 746 (e^{-746} rounds to 0), so it
    is evaluated on the ascending tail y_i >= y_0 + L - 746/k only.
    """
    if x is None:
        x = _gap_factors(y, k, L)
    stop, ascending = x.size, False
    if x.size > 1:
        lo, hi = float(x.min()), float(x.max())
        ascending = hi < 1.0  # every gap positive (NaN: False)
        quarter_ulp = math.ulp(lo) / 4.0
        if 0.0 < hi < 0.5 and quarter_ulp >= _TINY:
            # run the strides s with s ln(xmax) + ln(4 xmax/(1 - xmax)) >= ln(ulp/4)
            stop = (math.log(quarter_ulp) - math.log(4.0 * hi / (1.0 - hi))) / math.log(hi)
    a, b = x.copy(), x  # b: the products over the strides, shortened each step
    s = 1
    while s < x.size and s <= stop:
        a[:-s] += b[:x.size - s] * a[s:]
        b = b[:-s] * b[s:]
        s *= 2
    r = np.zeros(y.size)
    r[:x.size] = a
    if L is None:
        return r
    tail = int(y.searchsorted(y[0] + L - 746.0 / k)) if ascending else 0
    r[tail:] += np.exp(-k * (y[0] + L - y[tail:])) * (r[0] / -math.expm1(-k * L))
    return r


def _read_only(a):
    a.flags.writeable = False
    return a


class _ChainSums:
    """The right sums F (`_right_sums`) and the left sums Lt (the right sums
    of the reflected chain) of the ascending chain y at decay k, with a
    period L or none: each side is one scan, made on first use, read-only.

    Both sides read one `exp` of the gaps: the reflected chain's interior
    gaps are bitwise the chain's, reversed, so only its wrap gap, which it
    rounds as (L - y_{n-1}) + y_0, is formed again.

    A configuration's are kept for it by `_kept` and shared by every call on
    it (`_periodic_sums`, `ac._window`); a route given bare positions (the
    public slab routes) makes its own.
    """

    def __init__(self, y, k, L=None):
        self.y = np.asarray(y, dtype=float)
        self.k = k
        self.L = L

    @cached_property
    def _gaps(self):
        return _gap_factors(self.y, self.k, self.L)

    @cached_property
    def right(self):
        return _read_only(_right_sums(self.y, self.k, self.L, self._gaps))

    @cached_property
    def left(self):
        y, L = self.y, self.L
        x = self._gaps[::-1]
        if L is not None:
            x = np.append(x[1:], np.exp(-self.k * np.array([(L - y[-1]) + y[0]])))
        return _read_only(_right_sums(-y[::-1], self.k, L, x)[::-1])


_last = (None, {})  # the configuration whose scans are kept, and its scans by key


def _kept(cfg, key, build):
    """build() for the configuration cfg, made once per key: a later call on
    the same object (compared by identity) with an equal key returns the
    first result.  A key is a tuple: the kind of the result, then
    everything besides cfg that fixes it.  Three kinds are kept: the
    periodic chain's sums ("periodic sums", m; `_periodic_sums`), the
    Cauchy-Born cell terms ("cell terms", profile, m;
    `cauchy_born._cell_terms`) and the coupling window ("window", K,
    profile, m; `ac._window`).  Only the most recent configuration is
    kept, by a strong reference (so its id cannot be reused while it is
    kept); a call on another configuration drops it and its results."""
    global _last
    owner, kept = _last
    if owner is not cfg:
        kept = {}
        _last = (cfg, kept)
    if key not in kept:
        kept[key] = build()
    return kept[key]


def _periodic_sums(cfg, m):
    """The `_ChainSums` of the periodic chain of cfg at k = m/eps, kept for
    cfg: its pair energy, forces, Hessian and field share them."""
    k = m / cfg.eps
    return _kept(cfg, ("periodic sums", m), lambda: _ChainSums(positions(cfg), k, cfg.L))


def _neighbour_field(profile, m, eps, d_l, d_r, f_r, lt_l):
    """Field (value, gradient) at points between two neighbouring images,
    at distances d_l to the left one and d_r to the right one, whose right
    sum (of the right image) is f_r and left sum (of the left image) lt_l.

    With k = m/eps the right side contributes S_r = e^{-k d_r} (1 + f_r)
    and the left S_l = e^{-k d_l} (1 + lt_l); the field is (mu/2m)(S_r + S_l)
    and its gradient (mu/2eps)(S_r - S_l).  A bump that contains the point
    leaves its "1 +" out, and its own integral is added in closed form
    (`_bump_kernel`) from the point's offset alone.  The arguments
    broadcast; the bump supports must not overlap, so a point lies in at
    most one of the two bumps.
    """
    w = profile.half_width * eps
    in_r = d_r < w
    in_l = d_l < w
    s_r = np.exp(-(m / eps) * d_r) * np.where(in_r, f_r, 1.0 + f_r)
    s_l = np.exp(-(m / eps) * d_l) * np.where(in_l, lt_l, 1.0 + lt_l)
    muv = mu(profile, m)
    val = muv / (2.0 * m) * (s_r + s_l)
    grad = muv / (2.0 * eps) * (s_r - s_l)
    inside = in_l | in_r
    qv, qg = _bump_kernel(profile, m, eps, np.where(in_l, d_l, -d_r)[inside])
    val[inside] += qv
    grad[inside] += qg
    return val, grad


def _kernel_field(sums, profile, m, eps, x):
    """Field (value, gradient) at x of unit bumps at y = sums.y (ascending,
    within one period) and all their images y + nL, L = sums.L: every
    image c contributes (mu/2m) e^{-(m/eps)|x - c|} while x lies outside
    its bump.

    Two callers pick the period: the chain (L = 2F) and the slab
    (L = 2(a_R - a_L), the direct charge and its same-sign wall images;
    `eval_green_dirichlet` adds the odd mirror charges).  The kernel is
    separable: with the right and left sums F, Lt of `sums` (a `_ChainSums`
    at k = m/eps), x between its neighbouring images l <= x < r needs only
    d_r = y_r - x, d_l = x - y_l, F_r and Lt_l (`_neighbour_field`), found
    by `density._neighbours`, the one bump lookup of the package: only x
    outside [y_{n-1} - L, y_0 + L] is reduced by the period, so every other
    offset is one subtraction.  O((n + P) log n); accuracy ~1e-15 relative.
    The callers have checked that the supports are separated (images
    included), so x lies in at most one bump, a neighbour's.  Returns arrays
    shaped like atleast_1d(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y, L = sums.y, sums.L
    if y.size == 0:
        return np.zeros_like(x), np.zeros_like(x)
    ye, x, r = _neighbours(y, L, x)
    atom = np.arange(-1, y.size + 1) % y.size
    right = sums.right[atom]
    left = sums.left[atom]
    return _neighbour_field(profile, m, eps, x - ye[r - 1], ye[r] - x, right[r], left[r - 1])


def _cell_fields(anchor, L, profile, m, eps, x):
    """Comparison-chain fields (value, gradient) of several chains at once:
    row i of x (shape (rows, P)) is evaluated for the chain of one bump per
    period L[i] through anchor[i]: one row per cell (`cb_cell_fields`), or
    one per point for the cell holding it (the tests' coupled stress,
    `oracle_stress._qc_stress`).

    One atom per period makes both the right and the left sum of every
    image the geometric series q/(1 - q), q = e^{-(m/eps) L}, so a point
    needs only its offsets to the images around it (`_neighbour_field`).
    A point outside [c - L, c + L] is reduced by the period; a non-finite
    one raises, as in `density._neighbours`.  The callers have checked that
    every spacing exceeds the bump support.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point is not finite")
    c = np.asarray(anchor, dtype=float)[:, None]
    L = np.asarray(L, dtype=float)[:, None]
    kl = (m / eps) * L
    f = np.exp(-kl) / -np.expm1(-kl)
    lo = c - L
    far = (x < lo) | (x > c + L)
    x = np.where(far, x - L * np.floor((x - lo) / L), x)
    right = x >= c
    d_l = x - np.where(right, c, lo)
    d_r = np.where(right, c + L, c) - x
    return _neighbour_field(profile, m, eps, d_l, d_r, f, f)


def eval_green_periodic(cfg, profile, m, x):
    """Exact periodic field (value, gradient) at x: the kernel sum over every
    image of the chain, period L = 2F (`_kernel_field`), on the chain sums
    that cfg's pair energies share (`_periodic_sums`).  Raises on contact
    (`check_separated`)."""
    check_separated(cfg, profile, "eval_green_periodic")
    val, grad = _kernel_field(_periodic_sums(cfg, m), profile, m, cfg.eps, x)
    if np.ndim(x) == 0:
        return float(val[0]), float(grad[0])
    return val, grad


def eval_green_dirichlet(y_at, bd, profile, x):
    """Exact Dirichlet field (value, gradient) at x in the slab: integral
    G_a(x,.) rho + xi.  A point outside [a_L, a_R] raises ValueError, as the
    FEM field does: the kernel sum there would alias back into the slab.

    y_at are the atom positions inside the slab.  Reflecting oddly at both
    walls gives the direct charges and their same-sign images, a kernel sum
    of period 2(a_R - a_L) (`_kernel_field`), and the odd mirror charges
    behind each wall, smooth across the slab, which integrate through the mu
    moment in closed form.  Includes the boundary layer xi for the data in
    bd.
    """
    m, eps = bd.m, bd.eps
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.asarray(y_at, dtype=float)
    k = m / eps
    wall_l, wall_r, _, _ = _walls(y, bd, profile)
    _check_points_in_slab(xs, bd.a_L, bd.a_R)
    val, grad = _kernel_field(_ChainSums(y, k, 2.0 * bd.width), profile, m, eps, xs)

    # odd mirror charges: -(mu/2m)(e_xl s_l + e_xr s_r) / (1 - tau^2)
    e_xl = np.exp(-k * (xs - bd.a_L))  # decaying from the left wall
    e_xr = np.exp(-k * (bd.a_R - xs))
    s_l, s_r = np.sum(wall_l), np.sum(wall_r)  # sum_j e^{-k(y_j - a_L)}, ...
    c = mu(profile, m) / (2.0 * m) / (1.0 - bd.tau * bd.tau)
    val -= c * (e_xl * s_l + e_xr * s_r)
    grad += c * k * (e_xl * s_l - e_xr * s_r)

    if bd.g_L != 0.0 or bd.g_R != 0.0:
        _, xi = xi_closed_form(bd)
        xv, xg = xi(xs)
        val += xv
        grad += xg

    if np.ndim(x) == 0:
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
            _check_points_in_slab(x, self.x0, hi)
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


def _piece_blocks(profile, eps, n_bumps, h):
    """Slices of the bumps 0..n_bumps-1, whole bumps each, that hold at most
    `_PIECE_BUDGET` (bump, element) pieces (or one bump, if one holds more):
    a support of 2w spans at most ceil(2w/h) + 1 elements of width h."""
    per_bump = math.ceil(2.0 * profile.half_width * eps / h) + 1
    step = max(1, _PIECE_BUDGET // per_bump)
    return [slice(lo, lo + step) for lo in range(0, n_bumps, step)]


def _bump_pieces(profile, eps, centers, x0, h, n_nodes, L=None):
    """Every (bump, element) piece of bumps at `centers` on the uniform mesh
    x0 + i h, with a Gauss rule exact for bump x hat on each piece.  Its
    arrays and the callers' temporaries are ~90 doubles a piece, so the
    callers (the load, and the tests' `fem_forces`) pass one block of bumps
    at a time (`_piece_blocks`).

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
    (rho = sum_j delta1((x - y_j)/eps), so each bump carries charge eps).

    The bumps go in blocks (`_piece_blocks`), each adding its pieces into b
    in order by `np.add.at`, from zero: the additions of one `bincount`
    over every piece, so b does not depend on the blocking, bit for bit.
    """
    centers = np.asarray(centers, dtype=float)
    b = np.zeros(n_nodes)
    for block in _piece_blocks(profile, eps, centers.size, h):
        _, nodes, dz, wq, hats = _bump_pieces(profile, eps, centers[block], x0, h, n_nodes, L)
        piece = np.einsum("pq,pqk->pk", wq * profile.delta1(dz / eps), hats)
        np.add.at(b, nodes.ravel(), piece.ravel())
    return b


def _residual(diag, off, corner, x, b):
    """b - A x in extended precision, for the cyclic tridiagonal A of the
    uniform mesh, whose stencil (scalars diag, off, corner) is constant.

    The stiffness part of Ax cancels from ~|A||x| down to ~|b|, so a
    double-precision product cannot see residuals below that cancellation
    noise.
    """
    ld = np.longdouble
    return b.astype(ld) - _apply_cyclic_tridiag(ld(diag), ld(off), ld(corner), x.astype(ld))


def _backward_error(diag, off, corner, x, b):
    """Normwise backward error |b - Ax| / (|A| |x| + |b|), infinity norms,
    with the residual of `_residual` (scalar stencil).  The backward-error
    normalization (rather than |r|/|b|) is the solver-quality measure that
    stays meaningful as the mesh is refined.  An exact solution has error 0,
    the zero solution of zero data too.
    """
    r = np.max(np.abs(_residual(diag, off, corner, x, b)))
    if r == 0.0:
        return 0.0
    anorm = abs(diag) + 2.0 * abs(off)
    return float(r / (anorm * np.max(np.abs(x)) + np.max(np.abs(b))))


def _circulant_eigenvalues(diag, off, n):
    """Eigenvalues diag + 2 off cos(2 pi j / n), j = 0..n/2, of the n x n
    symmetric circulant with diagonal `diag` and both cyclic off-diagonals
    `off` (n >= 3), as the FFT of its first column (copied out of the
    complex transform, so that is freed)."""
    col = np.zeros(n)
    col[0], col[1], col[-1] = diag, off, off
    return np.fft.rfft(col).real.copy()


def _solve_circulant(eig, b):
    """Solve C x = b for the symmetric circulant C of eigenvalues eig
    (`_circulant_eigenvalues`): the FFT diagonalizes C."""
    return np.fft.irfft(np.fft.rfft(b) / eig, b.size)


def _solve_dirichlet_toeplitz(diag, off, b):
    """Solve T x = b for the tridiagonal Toeplitz T (diagonal `diag`,
    off-diagonals `off`) of the n - 1 interior nodes of a slab.

    The method of images on the mesh: the odd extension of b, period 2n, with
    zeros at the two walls, has the odd extension of x as its circulant
    solution, so T shares the periodic mesh's FFT solve (a DST-I).  One
    refinement step, a second solve on the extended-precision residual,
    brings the backward error to that of a banded Cholesky solve; both
    solves use one set of eigenvalues.
    """
    eig = _circulant_eigenvalues(diag, off, 2 * (b.size + 1))

    def solve(rhs):
        ext = np.zeros(2 * (rhs.size + 1))
        ext[1:rhs.size + 1] = rhs
        ext[rhs.size + 2:] = -rhs[::-1]
        return _solve_circulant(eig, ext)[1:rhs.size + 1]

    x = solve(b)
    return x + solve(_residual(diag, off, 0.0, x, b).astype(float))


def solve_periodic(cfg, profile, m, mesh_density=16):
    """P1 FEM solve of the periodic field problem on the fixed window [-F, F).

    The mesh has (2N+1) * ceil(mesh_density * F / sigma0) uniform elements, so
    it is commensurate with the homogeneous lattice and never moves with y —
    which is what makes analytic force formulas exact discrete gradients.
    """
    eps, L, F = cfg.eps, cfg.L, cfg.F
    n_per_cell = max(1, math.ceil(mesh_density * F / profile.sigma0))
    n = cfg.n_atoms * n_per_cell
    h = L / n
    x0 = -F

    # stiffness+mass: same 2x2 block on every element, so one scalar
    # stencil, and the cyclic matrix is circulant
    el = _element_matrices(eps, m, h)
    diag, off = 2.0 * el[0, 0], el[0, 1]

    b = _assemble_load(profile, eps, positions(cfg), x0, h, n, L)
    phi = _solve_circulant(_circulant_eigenvalues(diag, off, n), b)

    # backward-error residual (NaN fails) and the discrete functional
    res = _backward_error(diag, off, off, phi, b)
    if not res <= 1e-12:
        raise RuntimeError("periodic FEM solve residual %.3e exceeds 1e-12" % res)
    aphi = _apply_cyclic_tridiag(diag, off, off, phi)
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
    _check_inside_slab(y, bd, profile)
    n = max(4, math.ceil(bd.width * mesh_density / (eps * profile.sigma0)))
    h = bd.width / n

    # the interior rows share one scalar stencil; the two wall rows have
    # half its diagonal
    el = _element_matrices(eps, m, h)
    diag, off = 2.0 * el[0, 0], el[0, 1]
    b = _assemble_load(profile, eps, y, bd.a_L, h, n + 1)

    phi = np.empty(n + 1)
    phi[0], phi[-1] = bd.g_L, bd.g_R
    rhs = b[1:-1].copy()
    rhs[0] -= off * bd.g_L
    rhs[-1] -= off * bd.g_R
    phi[1:-1] = _solve_dirichlet_toeplitz(diag, off, rhs)

    # backward error of the interior system (boundary rows carry the strong
    # BC; NaN fails)
    res_int = _backward_error(diag, off, 0.0, phi[1:-1], rhs)
    if not res_int <= 1e-12:
        raise RuntimeError("dirichlet FEM solve residual %.3e exceeds 1e-12" % res_int)
    aphi = _apply_cyclic_tridiag(diag, off, 0.0, phi)
    aphi[[0, -1]] = el[0, 0] * phi[[0, -1]] + off * phi[[1, -2]]
    interaction = float(b @ phi)
    i_value = 0.5 * float(phi @ aphi) - interaction
    return Field(
        kind="dirichlet", x0=bd.a_L, h=h, values=phi, L=0.0, rhs=b,
        interaction=interaction, i_value=i_value, residual_rel=float(res_int),
    )
