"""Periodic 1D chain geometry and discrete norms.

A deformed chain of 2N+1 atoms is described by a macroscopic stretch F > 0
and a periodic, mean-zero displacement field u:

    y_j = F*eps*j + u_j,      eps = 2/(2N+1),   j = -N..N,

extended periodically by y_{j + (2N+1)} = y_j + L with L = (2N+1)*eps*F = 2F.
Arrays are stored with internal index i = j + N in 0..2N; public functions
take the signed index j.

Discrete differences are the scaled first/second differences

    y'_j  = (y_j - y_{j-1}) / eps,
    y''_j = (y_{j+1} - 2 y_j + y_{j-1}) / eps^2,

both periodic.  Norms: ||v||_l2eps^2 = eps * sum v_j^2 and an
interface-weighted l2 norm of the second difference used by the coupling
error estimates.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChainConfig",
    "homogeneous",
    "positions",
    "first_diff",
    "second_diff",
    "norm_l2eps",
    "norm_weighted",
]


@dataclass(frozen=True)
class ChainConfig:
    """Periodic chain state: atom count parameter N, stretch F, displacements u.

    u must have length 2N+1 and zero mean (the model is translation invariant;
    minimizers are sought in the mean-zero class).  The config keeps its own
    read-only copy of u and builds, once and read-only, its positions y_j,
    j = -N..N (`positions`) and its strains y'_j (`first_diff`): every model
    call on the same config reads them instead of rebuilding them.
    """

    N: int
    F: float
    u: np.ndarray = field(repr=False)
    _y: np.ndarray = field(init=False, repr=False, compare=False)
    _s: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            n = operator.index(self.N)
        except TypeError:
            n = 0
        if n < 1:
            raise ValueError("N must be an integer >= 1, got %r" % (self.N,))
        if not 0.0 < self.F < np.inf:
            raise ValueError("F must be finite and positive, got %r" % (self.F,))
        object.__setattr__(self, "N", n)
        u = np.array(self.u, dtype=float)
        if u.shape != (2 * self.N + 1,):
            raise ValueError(
                "u must have length 2N+1 = %d, got shape %s" % (2 * self.N + 1, u.shape)
            )
        if not np.all(np.isfinite(u)):
            raise ValueError("u contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(u))))
        if abs(float(np.sum(u))) > 1e-9 * scale * len(u):
            raise ValueError("u must be mean-zero over one period")
        u.flags.writeable = False
        y = self.F * self.eps * (np.arange(u.size) - self.N) + u
        y.flags.writeable = False
        # y_{-N-1} = y_N - L; y + 0*L = y exactly, so these are the bits of
        # np.diff(positions(cfg, -N-1, N)) / eps
        s = np.empty(u.size)
        s[0] = y[0] - (y[-1] - self.L)
        np.subtract(y[1:], y[:-1], out=s[1:])
        s /= self.eps
        s.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_y", y)
        object.__setattr__(self, "_s", s)

    @property
    def n_atoms(self):
        return 2 * self.N + 1

    @property
    def eps(self):
        return 2.0 / (2 * self.N + 1)

    @property
    def L(self):
        return 2.0 * self.F

    def replace_u(self, u):
        return ChainConfig(self.N, self.F, np.asarray(u, dtype=float))


def homogeneous(N, F):
    """The undisplaced chain y_j = F*eps*j."""
    return ChainConfig(N, F, np.zeros(2 * N + 1))


def positions(cfg, j_lo=None, j_hi=None):
    """Atom positions y_j for j = j_lo..j_hi inclusive (default -N..N).

    Indices outside -N..N follow the periodic extension y_{j+(2N+1)} = y_j + L.
    The default range returns the config's own read-only array; j_lo and
    j_hi are given together or not at all.
    """
    if j_lo is None and j_hi is None:
        return cfg._y
    if j_lo is None or j_hi is None:
        raise ValueError("j_lo and j_hi must be given together")
    if j_hi < j_lo:
        raise ValueError("j_hi must be >= j_lo")
    j = np.arange(j_lo, j_hi + 1)
    period = cfg.n_atoms
    i = (j + cfg.N) % period
    k = (j + cfg.N) // period
    return cfg._y[i] + k * cfg.L


def first_diff(cfg):
    """Scaled first differences y'_j = (y_j - y_{j-1})/eps, j = -N..N (periodic),
    with y_{-N-1} = y_N - L: the config's own read-only array."""
    return cfg._s


def second_diff(cfg):
    """Scaled second differences y''_j = (y_{j+1} - 2y_j + y_{j-1})/eps^2 (periodic)."""
    y = positions(cfg, -cfg.N - 1, cfg.N + 1)
    return (y[2:] - 2.0 * y[1:-1] + y[:-2]) / cfg.eps**2


def norm_l2eps(v, eps):
    """Scaled l2 norm, ||v||^2 = eps * sum v_j^2."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(eps * np.dot(v, v)))


def norm_weighted(ypp, eps, s0, m, K):
    """Interface-weighted curvature norm sqrt(eps * sum_j w_j * ypp_j^2).

    ypp is indexed j = -N..N like second_diff output; K is the half-width of
    the atomistic index band, s0 the reference minimal strain and m the
    screening mass.  Weights: w_j = 1 for |j| > K, and
    exp(-m*s0*min(|j-K|, |j+K|)) for |j| <= K, so curvature deep inside the
    atomistic band is discounted exponentially.
    """
    if not (s0 > 0 and m > 0):
        raise ValueError("s0 and m must be positive")
    if K < 0:
        raise ValueError("K must be nonnegative")
    ypp = np.asarray(ypp, dtype=float)
    n = ypp.size
    if n % 2 != 1:
        raise ValueError("ypp must have odd length 2N+1")
    N = (n - 1) // 2
    if K > N:
        raise ValueError("K must be <= N")
    j = np.arange(-N, N + 1)
    dist = np.minimum(np.abs(j - K), np.abs(j + K))
    w = np.where(np.abs(j) <= K, np.exp(-m * s0 * dist), 1.0)
    return float(np.sqrt(eps * np.sum(w * ypp**2)))
