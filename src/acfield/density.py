"""Smeared charge densities on the chain.

Each atom carries a compactly supported unit bump.  On the reference scale the
profile is

    delta1(x) = C_p * (1 - (2x/sigma0)^2)^p   on |x| < sigma0/2,  else 0,

with p = 2 ("quartic", C1) or p = 3 ("sextic", C2) and C_p fixed by
integral(delta1) = 1.  The atomic-scale density is delta_eps(x) =
delta1(x/eps)/eps and the chain density

    rho_y(x) = eps * sum_j delta_eps(x - y_j)

summed over all periodic images, so integral(rho_y) over one period is
eps*(2N+1) = 2.

Two kernel moments of the profile drive every closed-form expression in this
package (the screening kernel is exp(-m|.|)):

    mu(m)          = integral delta1(t) exp(m t) dt            (>= 1, even in m)
    self_moment(m) = double integral delta1(s) delta1(t) exp(-m|s-t|) ds dt

For two bumps whose supports do not overlap, the interaction double integral
collapses exactly to mu(m)^2 * exp(-(m/eps)*distance); this is what makes the
pair-sum energy route exact rather than asymptotic.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .lattice import first_diff, positions

__all__ = [
    "BumpProfile",
    "quartic_bump",
    "sextic_bump",
    "mu",
    "self_moment",
    "gauss_on_interval",
    "delta_eps",
    "grad_delta_eps",
    "rho",
    "check_separated",
]


@lru_cache(maxsize=64)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_on_interval(a, b, n):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


@dataclass(frozen=True)
class BumpProfile:
    """Polynomial bump (1 - (2x/sigma0)^2)^power, normalized to unit mass.

    power=2 is the default C1 quartic profile; power=3 gives a C2 sextic
    profile used to check that nothing depends on the specific shape.
    """

    sigma0: float
    power: int = 2

    def __post_init__(self):
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        if self.power < 2:
            raise ValueError("power must be >= 2 (profile must be at least C1)")

    @property
    def half_width(self):
        return 0.5 * self.sigma0

    @property
    def norm_const(self):
        # integral_{-1}^{1} (1-t^2)^p dt = 2^(2p+1) (p!)^2 / (2p+1)!
        p = self.power
        ip = 2.0 ** (2 * p + 1) * factorial(p) ** 2 / factorial(2 * p + 1)
        return 2.0 / (self.sigma0 * ip)

    def delta1(self, x):
        """Reference-scale profile value(s) at x."""
        x = np.asarray(x, dtype=float)
        t = 2.0 * x / self.sigma0
        inside = np.abs(t) < 1.0
        out = np.zeros_like(t)
        out[inside] = self.norm_const * (1.0 - t[inside] ** 2) ** self.power
        return out if out.ndim else float(out)

    def grad_delta1(self, x):
        x = np.asarray(x, dtype=float)
        t = 2.0 * x / self.sigma0
        inside = np.abs(t) < 1.0
        out = np.zeros_like(t)
        ti = t[inside]
        out[inside] = (
            self.norm_const
            * self.power
            * (1.0 - ti**2) ** (self.power - 1)
            * (-2.0 * ti)
            * (2.0 / self.sigma0)
        )
        return out if out.ndim else float(out)


def quartic_bump(sigma0=0.5):
    return BumpProfile(sigma0, power=2)


def sextic_bump(sigma0=0.5):
    return BumpProfile(sigma0, power=3)


#: GL-24 on the support gives mu within 4.1e-15 relative while m sigma0/2 <= 16
#: (mpmath, 50 digits); at 32 it misses by 5.1e-11 (quartic), 5.2e-10 (sextic).
_MU_GAUSS_KAPPA = 16.0


def _derivatives_at_one(p):
    """[P^(j)(1) for j = 0..2p], P(s) = (1 - s^2)^p = sum_i (-1)^i C(p, i) s^{2i},
    as exact integers; those below order p vanish."""
    return [sum((-1) ** i * comb(p, i) * factorial(2 * i) // factorial(2 * i - j)
                for i in range(p + 1) if 2 * i >= j) for j in range(2 * p + 1)]


@lru_cache(maxsize=256)
def _mu_value(profile, m):
    """mu(m) for m >= 0: GL-24 on the support while it is converged, else
    the closed form.  With k = m sigma0/2 and P(s) = (1 - s^2)^p,
    mu = C_p (sigma0/2) integral_{-1}^{1} P(s) e^{k s} ds, and the integral
    is [e^{k s} sum_j (-1)^j P^(j)(s) / k^{j+1}]_{-1}^{1}, where only the
    derivatives of order p..2p are nonzero at s = +-1 and P^(j)(-1) =
    (-1)^j P^(j)(1).  Above the Gauss range the e^{-k} end is below 1e-13 of
    the e^{k} end, so the difference does not cancel."""
    k = m * profile.half_width
    if k <= _MU_GAUSS_KAPPA:
        x, w = gauss_on_interval(-profile.half_width, profile.half_width, 24)
        return float(np.sum(w * profile.delta1(x) * np.exp(m * x)))
    dp = _derivatives_at_one(profile.power)
    q_right = sum((-1) ** j * d / k ** (j + 1) for j, d in enumerate(dp))
    q_left = sum(d / k ** (j + 1) for j, d in enumerate(dp))
    scale = profile.norm_const * profile.half_width * (q_right - math.exp(-2.0 * k) * q_left)
    try:
        half = math.exp(0.5 * k)  # e^k as two factors, so no finite value overflows
    except OverflowError:
        half = math.inf
    value = half * scale * half
    if not math.isfinite(value):
        raise ValueError("mu at m sigma0/2 = %.6g exceeds the largest double" % k)
    return value


def mu(profile, m):
    """Moment integral delta1(t) exp(m t) dt (even in m; >= 1 by Jensen)
    for every finite m whose value is a finite double (a ValueError
    otherwise): within 4.1e-15 relative of mpmath up to m sigma0/2 = 16
    (GL-24) and 2.4e-16 above it (the closed form)."""
    if not math.isfinite(m):
        raise ValueError("mu needs a finite m, got %r" % (m,))
    value = _mu_value(profile, abs(m))
    if value < 1.0 - 1e-12:
        raise ValueError("mu moment must be >= 1 (Jensen)")
    return value


@lru_cache(maxsize=256)
def self_moment(profile, m):
    """Self-interaction moment: double integral of delta1 x delta1 against exp(-m|s-t|).

    Outer GL over t; the inner integral is split at the kernel kink s = t so
    each piece is polynomial x exponential and GL is exact.
    """
    hw = profile.half_width
    xt, wt = gauss_on_interval(-hw, hw, 48)
    total = 0.0
    for t, wgt in zip(xt, wt):
        acc = 0.0
        for a, b in ((-hw, t), (t, hw)):
            xs, ws = gauss_on_interval(a, b, 32)
            acc += np.sum(ws * profile.delta1(xs) * np.exp(-m * np.abs(t - xs)))
        total += wgt * profile.delta1(t) * acc
    return float(total)


def delta_eps(profile, eps, x):
    """Atomic-scale bump delta1(x/eps)/eps."""
    return profile.delta1(np.asarray(x, dtype=float) / eps) / eps


def grad_delta_eps(profile, eps, x):
    return profile.grad_delta1(np.asarray(x, dtype=float) / eps) / eps**2


def _neighbours(y, L, x):
    """The kernel sums' neighbour search over the ascending atoms y of period
    L: returns ye = (y_{n-1} - L, y, y_0 + L), x with each point outside
    [ye_0, ye_{n+1}] reduced by the period, and r with ye_{r-1} <= x <= ye_r;
    a non-finite x, which no neighbours hold, raises."""
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point is not finite")
    ye = np.concatenate([[y[-1] - L], y, [y[0] + L]])
    far = (x < ye[0]) | (x > ye[-1])
    x = np.where(far, x - L * np.floor((x - ye[0]) / L), x)
    r = np.clip(np.searchsorted(ye, x, side="right"), 1, y.size + 1)
    return ye, x, r


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


def check_separated(cfg, profile, where="chain"):
    """Raise unless neighbouring bumps are separated: min strain > sigma0.

    The one contact rule for a chain: every chain entry point whose closed
    forms assume separated bumps calls it (the density, the periodic energy,
    forces, Hessian and field, the Cauchy-Born energy, forces, Hessian and cell
    fields, and the couplings).  At min strain == sigma0 two supports touch;
    that counts as contact, as in `cauchy_born.CellState` and the slab check
    of `field`.
    """
    smin = float(np.min(first_diff(cfg)))
    if smin <= profile.sigma0:
        raise ValueError(
            "%s: bump supports touch or overlap (min strain %.6g <= sigma0 %.6g)"
            % (where, smin, profile.sigma0)
        )
