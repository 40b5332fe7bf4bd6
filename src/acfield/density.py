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

One cached routine, `_bump_moments`, forms both moments and the coefficients
of the in-bump kernel field (`field._bump_kernel`) from the same exact
integers and rounds each once.  The Gauss-Legendre rules that the FEM load
and the checks integrate with (`gauss_on_interval`) are built here too, in
integer fixed point, so each node and weight is the double nearest its exact
value (`_leggauss`); numpy.polynomial is never imported.  The density rho_y
itself and the bump's derivative are evaluated only by the tests' stress
oracle (`rho` and `grad_delta1` in tests/oracle_stress.py), which finds the
bump that holds a point by the kernel fields' neighbour search,
`field._neighbours`.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .lattice import first_diff

__all__ = [
    "BumpProfile",
    "quartic_bump",
    "sextic_bump",
    "mu",
    "self_moment",
    "gauss_on_interval",
    "delta_eps",
    "check_separated",
]


#: The Gauss rules' fixed-point unit is 2^-_GAUSS_BITS, 75 bits below a
#: double's last bit on [1/2, 1).
_GAUSS_BITS = 128


@lru_cache(maxsize=64)
def _leggauss(n):
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending, as two
    read-only arrays: each node and each weight is the double nearest its
    exact value (tests/oracle_density.py, mpmath at 50 digits).

    Tricomi's asymptotic (1 - (n - 1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2))
    starts the nodes x >= 0, k = 1..n/2, and the middle node of an odd rule
    is 0 exactly; the rule's symmetry gives the rest.  Newton steps on P_n,
    run in integer fixed point (unit 2^-_GAUSS_BITS) through the three-term
    recurrence (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}, stop once the
    correction is below 2^-96 (3 to 5 steps a node up to n = 48).  With
    D = x P_n - P_{n-1} = (x^2 - 1) P_n'/n the correction is
    P_n (1 - x^2)/(n D), and the weight 2/((1 - x^2) P_n'^2) =
    2 (1 - x^2)/(n^2 D^2) is read at the last x, within about n^2 2^-96
    relative of its value at the node.  Each node and weight is a ratio of
    integers that Python rounds once.  Golub-Welsch's eigenvalue start
    (`np.linalg.eigvalsh`) would save a step but map 1.1 MB of LAPACK into
    a process that may never need it.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError("a Gauss rule needs an integer number of points, got %r"
                         % (n,)) from None
    if n < 1:
        raise ValueError("a Gauss rule needs at least one point, got %d" % n)
    bits = _GAUSS_BITS
    one = 1 << bits
    theta = np.pi * (4.0 * np.arange(n // 2, 0, -1) - 1.0) / (4.0 * n + 2.0)
    start = [0.0] * (n % 2) + ((1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(theta)).tolist()
    nodes, weights = [], []
    for s in start:
        x = int(s * one)  # exact: s is a double in [0, 1]
        while True:
            p, q = x, one  # P_k, P_{k-1} at k = 1
            for j in range(1, n):
                p, q = (((2 * j + 1) * x * p >> bits) - j * q) // (j + 1), p
            d = (x * p >> bits) - q
            step = p * (one * one - x * x) // (n * d * one)
            if abs(step) >> (bits - 96) == 0:
                break
            x += step
        nodes.append((x + step) / one)
        weights.append(2 * (one * one - x * x) / (n * n * d * d))
    xs = np.array([-v for v in nodes[::-1][:n // 2]] + nodes)
    ws = np.array(weights[::-1][:n // 2] + weights)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def gauss_on_interval(a, b, n):
    """Gauss-Legendre nodes/weights mapped to [a, b] (`_leggauss`; a
    ValueError unless n is an integer >= 1)."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


@dataclass(frozen=True)
class BumpProfile:
    """Polynomial bump (1 - (2x/sigma0)^2)^power, normalized to unit mass.

    power=2 is the C1 quartic profile (`quartic_bump`); power=3 gives a C2
    sextic profile (`sextic_bump`) used to check that nothing depends on the
    specific shape.
    """

    sigma0: float
    power: int

    def __post_init__(self):
        if not 0.0 < self.sigma0 < math.inf:
            raise ValueError("sigma0 must be finite and positive, got %r" % (self.sigma0,))
        # an int, never an equal float: the profile keys the moments' cache
        try:
            power = operator.index(self.power)
        except TypeError:
            power = 0
        if power < 2:
            raise ValueError("power must be an integer >= 2 (profile must be at least C1), "
                             "got %r" % (self.power,))
        object.__setattr__(self, "power", power)

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


def quartic_bump(sigma0=0.5):
    return BumpProfile(sigma0, power=2)


def sextic_bump(sigma0=0.5):
    return BumpProfile(sigma0, power=3)


def _derivatives_at_one(p):
    """[P^(j)(1) for j = 0..2p], P(s) = (1 - s^2)^p = sum_i (-1)^i C(p, i) s^{2i},
    as exact integers; those below order p vanish."""
    return [sum((-1) ** i * comb(p, i) * factorial(2 * i) // factorial(2 * i - j)
                for i in range(p + 1) if 2 * i >= j) for j in range(2 * p + 1)]


#: Below this kappa = m sigma0/2 the kernel and both moments come from the
#: Taylor series, at and above it from the closed form (`_bump_moments`): near
#: 5 the closed form's kernel gradient was off by 2.1e-15 of its maximum
#: (sextic), while the series stays within 1.2e-15 up to 8.
_SERIES_KAPPA = 8


@lru_cache(maxsize=256)
def _bump_moments(profile, m):
    """(c, A, mu, self_moment) at m >= 0.  With kappa = m sigma0/2 (= (m/eps) w,
    free of eps) and P(t) = (1 - t^2)^p = sum_i b_i t^{2i}, (c, A) give

        J(t) = integral_{-1}^{1} P(s) e^{-kappa|t-s|} ds
             = sum_i c_i t^{2i} - A (e^{-kappa(1-t)} + e^{-kappa(1+t)})

    on |t| <= 1, the in-bump kernel.  J is even and solves
    J'' - kappa^2 J = -2 kappa P, so one function has two forms:

    * kappa < _SERIES_KAPPA (A = 0): the Taylor series in t^2.  The ODE
      gives c_{i+1} (2i+2)(2i+1) = kappa^2 c_i - 2 kappa b_i, from
      c_0 = J(0) = 2 sum_n (-kappa)^n/n! integral_0^1 P(s) s^n ds; the
      series stops at the first |c_i| <= 2^-56 c_0 past i = p + 1.
    * kappa >= _SERIES_KAPPA: the polynomial particular solution
      R = (2/kappa) sum_j P^(2j) / kappa^{2j} = sum_i r_i t^{2i}, less the
      even homogeneous term that meets the e^{-kappa|t|} decay outside:
      A = sum_l P^(l)(1) / kappa^{l+1}.  At small kappa R and A grow like
      kappa^{-2p-1} and cancel (8e-12 lost at kappa = 0.25).

    With C_p w = 1/I_0 and I_i = integral_{-1}^{1} P t^{2i} = 2 sum_k
    b_k/(2i+2k+1), mu = I_0^-1 integral P(s) e^{kappa s} ds is the even-n
    part of the c_0 sum below the switch and e^kappa q_R - e^-kappa A above
    it, q_R = sum_j (-1)^j P^(j)(1)/kappa^{j+1}, with e^kappa as two factors
    so that no finite mu overflows (an infinite one is inf).  self_moment =
    I_0^-2 integral P J is sum_i c_i I_i below the switch and
    sum_i r_i I_i - 2A (q_R - e^{-2 kappa} A) above it, with no e^kappa.

    An error in c_0 grows like cosh(kappa t) (a Gauss rule's c_0 cost 8e-15
    of the maximum at kappa = 3), so every sum is formed exactly in integer
    fixed point (kappa is the exact ratio of two integers) and rounded to a
    double once; only the e^{-2 kappa} terms are floating point.  The unit,
    2^-200 / 2^((p+1) n) with n the bit length of floor(kappa), leaves the
    smallest sum, A ~ kappa^-(p+1), 200 bits at any kappa.  Against mpmath
    the kernel is within 2e-15 of the bump's largest value and gradient
    (tests/oracle_field.py) and both moments within 2.4e-16 relative
    (tests/oracle_density.py).
    """
    p = profile.power
    b = [(-1) ** i * comb(p, i) for i in range(p + 1)]
    kappa = m * profile.half_width
    num, den = kappa.as_integer_ratio()
    one = 1 << (200 + (p + 1) * (num // den).bit_length())
    # 1/(C_p w) = I_0 = i0_num/i0_den exactly; `ratio` rounds x/(I_0^n one) once
    i0_num, i0_den = 2 ** (2 * p + 1) * factorial(p) ** 2, factorial(2 * p + 1)

    def ratio(x, n):
        return x * i0_den ** n / (one * i0_num ** n)

    def moments(c):  # sum_i c_i I_i
        return sum(2 * ci * bk // (2 * i + 2 * k + 1)
                   for i, ci in enumerate(c) for k, bk in enumerate(b))

    if num >= _SERIES_KAPPA * den:
        r = [sum(2 * b[i + j] * (factorial(2 * i + 2 * j) // factorial(2 * i)) * one
                 * den ** (2 * j + 1) // num ** (2 * j + 1) for j in range(p + 1 - i))
             for i in range(p + 1)]
        q = [d * one * den ** (j + 1) // num ** (j + 1)
             for j, d in enumerate(_derivatives_at_one(p))]
        a, q_r = sum(q), sum((-1) ** j * qj for j, qj in enumerate(q))
        a_n, tail = ratio(a, 1), math.exp(-2.0 * kappa)
        try:
            half = math.exp(0.5 * kappa)
        except OverflowError:
            half = math.inf
        mu_value = half * (ratio(q_r, 1) - tail * a_n) * half
        self_value = ratio(moments(r) - 2 * a * q_r // one, 2) + 2.0 * a_n * a_n * tail
        return tuple(ri / one for ri in r), a / one, mu_value, self_value
    c0, even, term, n = 0, 0, 2 * one, 0  # term = 2 kappa^n / n!
    while term:
        part = sum(term * bi // (2 * i + n + 1) for i, bi in enumerate(b))
        c0 += (-1) ** n * part
        even += part if n % 2 == 0 else 0
        n += 1
        term = term * num // (den * n)
    c = [c0]
    while len(c) <= p + 1 or abs(c[-1]) > c0 >> 56:
        i = len(c) - 1
        forcing = 2 * b[i] * one * num // den if i <= p else 0
        c.append((c[i] * num * num // (den * den) - forcing) // ((2 * i + 2) * (2 * i + 1)))
    return tuple(ci / one for ci in c), 0.0, ratio(even, 1), ratio(moments(c), 2)


def mu(profile, m):
    """Moment integral delta1(t) exp(m t) dt (even in m; >= 1 by Jensen)
    for every finite m whose value is a finite double (a ValueError
    otherwise), within 2.4e-16 relative of mpmath (`_bump_moments`)."""
    if not math.isfinite(m):
        raise ValueError("mu needs a finite m, got %r" % (m,))
    value = _bump_moments(profile, abs(m))[2]
    if not math.isfinite(value):
        raise ValueError("mu at m sigma0/2 = %.6g exceeds the largest double"
                         % (abs(m) * profile.half_width))
    if value < 1.0 - 1e-12:
        raise ValueError("mu moment must be >= 1 (Jensen)")
    return value


def _mu_squared(muv, m):
    """muv^2 for muv = mu(profile, m), the pair prefactors' factor, or a
    ValueError naming m where the square exceeds the largest double (mu
    itself stays finite further: at sigma0 = 0.5, from m = 1483 to 2860)."""
    try:
        return muv**2
    except OverflowError:
        raise ValueError("mu(m)^2 at m = %r exceeds the largest double" % (m,)) from None


def _curvature_prefactor(value, m):
    """value, a Hessian's prefactor built on mu(profile, m)^2, or a
    ValueError naming m where it exceeds the largest double (at sigma0 =
    0.5 and eps = 2/21, from m = 1445, before mu^2 itself overflows)."""
    if math.isinf(value):
        raise ValueError("Hessian prefactor at m = %r exceeds the largest double" % (m,))
    return value


def self_moment(profile, m):
    """Self-interaction moment: double integral of delta1 x delta1 against
    exp(-m|s-t|), for every finite m >= 0 (a ValueError otherwise), within
    1.4e-16 relative of mpmath (`_bump_moments`)."""
    if not (0.0 <= m < math.inf):
        raise ValueError("self_moment needs a finite m >= 0, got %r" % (m,))
    return _bump_moments(profile, m)[3]


def delta_eps(profile, eps, x):
    """Atomic-scale bump delta1(x/eps)/eps."""
    return profile.delta1(np.asarray(x, dtype=float) / eps) / eps


def check_separated(cfg, profile, where="chain"):
    """Raise unless neighbouring bumps are separated: min strain > sigma0.

    The one contact rule for a chain: every chain entry point whose closed
    forms assume separated bumps calls it (the periodic energy, forces,
    Hessian and field, the Cauchy-Born energy, forces, Hessian and cell
    fields, and the couplings).  At min strain == sigma0 two supports touch;
    that counts as contact, as in `cauchy_born.CellState` and the slab check
    of `field`.
    """
    smin = float(np.min(first_diff(cfg)))
    if not smin > profile.sigma0:  # a NaN strain fails too
        raise ValueError(
            "%s: bump supports touch or overlap (min strain %.6g <= sigma0 %.6g)"
            % (where, smin, profile.sigma0)
        )
