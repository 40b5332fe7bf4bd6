"""Exact Hessians in one structured form, and the O(n) Newton step it allows.

Every model's Hessian in the atom positions is

    H = B - a P Gamma P^T + U W U^T,

* B symmetric cyclic tridiagonal: `diag`, and `off[i]` = B[i-1, i], so
  `off[0]` joins atom n-1 to atom 0 across the period;
* Gamma the Green's matrix of -u'' + k^2 u at the positions y of the atoms
  lo..lo+len(y)-1: Gamma_ij = e^{-k |y_i - y_j|} / 2k on the line or, with a
  period L, that kernel summed over every image (`Green`).  P selects those
  atoms, and B is diagonal on them (off[lo+1..] = 0 inside the block);
* U W U^T a low-rank term with W symmetric.

The periodic atomistic Hessian is a diagonal B and a periodic Green's block
over every atom (`energy.hessian_periodic_structured`), the Cauchy-Born
Hessian is B alone (`cauchy_born.cb_hessian_structured`), and a coupled
Hessian has the weighted Cauchy-Born cells in B, the slab's free pair sum as
a Green's block on the window and its core terms in six columns of U
(`ac.ac_hessian_structured`).  These are the models' only Hessians; `dense`
expands one to an array.

Gamma^{-1} is tridiagonal, cyclic on the circle (Gantmacher & Krein: the
inverse of a one-pair matrix; Rue & Held, the precision of an exponential
covariance): v^T Gamma^{-1} v is the least integral of u'^2 + k^2 u^2 over u
with u(y_i) = v_i.  A gap g between neighbours contributes
k ((v_i^2 + v_j^2) coth(kg) - 2 v_i v_j / sinh(kg)), and the free tail past
an end atom k v^2, as a gap of infinite length would.

`newton_step` solves (H + c 11^T) d = -g through the bordered matrix

    M = [[B + U W U^T + c 11^T, P], [P^T, Gamma^{-1} / a]],

whose Schur complement onto its first block is H + c 11^T.  Cutting a few
couplings of M (a coupling b between i and j is -b on both diagonals plus
b (e_i + e_j)(e_i + e_j)^T) leaves a core whose solve is one symmetric
tridiagonal solve: B's couplings where the Green's block meets the other
atoms (at the period's wrap when there is no block) and Gamma^{-1}'s
coupling across the period.  The cut couplings, c 11^T and U W U^T are a
Woodbury correction of rank at most 9 on that core, and one step of
iterative refinement on the bordered system restores the backward error
that the correction loses.
"""

from typing import NamedTuple

import numpy as np

__all__ = ["Green", "StructuredHessian"]

# cyclic reduction stops at a system of at most this many rows
_DENSE_ROWS = 15


def _apply_cyclic_tridiag(diag, off, corner, x):
    """A x for the symmetric cyclic tridiagonal A with diagonal `diag`,
    off-diagonal `off` and corner entry `corner` (FEM solves use it too,
    with the scalar stencil of their uniform mesh)."""
    ax = diag * x
    ax[:-1] += off * x[1:]
    ax[1:] += off * x[:-1]
    ax[0] += corner * x[-1]
    ax[-1] += corner * x[0]
    return ax


class Green(NamedTuple):
    """The Green's block -a P Gamma P^T: atoms lo..lo+len(y)-1 at the
    ascending positions y, kernel rate k, period L (None: the line)."""

    lo: int
    a: float
    y: np.ndarray
    k: float
    L: object

    def dense(self):
        """Gamma as an array."""
        d = np.abs(self.y[None, :] - self.y[:, None])
        e = np.exp(-self.k * d)
        if self.L is None:
            return e / (2.0 * self.k)
        return (e + np.exp(-self.k * (self.L - d))) / (2.0 * self.k * -np.expm1(-self.k * self.L))

    def precision(self):
        """Gamma^{-1} as (diagonal, off), off[i] coupling atoms i-1 and i of
        the block and off[0] the coupling across the period (0 on the line)."""
        gaps = np.empty(self.y.size)  # gaps[i]: between atoms i-1 and i
        gaps[1:] = self.y[1:] - self.y[:-1]
        gaps[0] = np.inf if self.L is None else self.y[0] + self.L - self.y[-1]
        x = np.exp(-self.k * gaps)
        den = -np.expm1(-2.0 * self.k * gaps)  # 1 - x^2
        coth = (1.0 + x * x) / den
        diag = coth.copy()
        diag[:-1] += coth[1:]
        diag[-1] += coth[0]
        return self.k * diag, (-2.0 * self.k) * x / den


class StructuredHessian(NamedTuple):
    """H = B - a P Gamma P^T + U W U^T (module docstring): B by `diag` and
    `off`, the Green's block `green` (or None), `u` (n, r) and `w` (r, r)."""

    diag: np.ndarray
    off: np.ndarray
    green: object
    u: np.ndarray
    w: np.ndarray

    def dense(self):
        """H as an exactly symmetric array."""
        n = self.diag.size
        i = np.arange(n)
        hess = np.zeros((n, n))
        hess[i, i] = self.diag
        hess[i - 1, i] = self.off
        hess[i, i - 1] = self.off
        gr = self.green
        if gr is not None:
            win = slice(gr.lo, gr.lo + gr.y.size)
            hess[win, win] -= gr.a * gr.dense()
        if self.w.size:
            low = self.u @ self.w @ self.u.T
            hess += 0.5 * (low + low.T)
        return hess

    def newton_step(self, g):
        """(d, positive_definite): d solves (H + c 11^T) d = -g with
        c = max |diag B| / n, in O(n r) time and memory.

        The Woodbury correction solves the bordered system; one step of
        iterative refinement on it, with the residual from the bordered
        matrix itself, brings the backward error to that of a dense solve.
        H 1 = 0, so H + c 11^T is positive definite exactly when H is on the
        mean-zero vectors.  That is decided from the signs of the core's
        pivots and of the small capacitance matrix (Haynsworth inertia
        additivity, with Gamma positive definite); when it is False, d is
        not to be used.
        """
        n = self.diag.size
        c = float(np.max(np.abs(self.diag))) / n
        gr = self.green
        lo, hi = (gr.lo, gr.lo + gr.y.size) if gr is not None else (0, 0)
        nw, ru = hi - lo, self.u.shape[1]

        # the correction's vectors (entries on the atoms, then on the block's
        # v), as rows, and coefficients: U W U^T, c 11^T, the cut couplings
        vecs = np.zeros((ru + 4, n + nw))
        vecs[:ru, :n] = self.u.T
        vecs[ru, :n] = 1.0
        coef = [c]
        diag, off = self.diag.copy(), self.off.copy()
        for p in {lo, hi % n}:  # B's couplings at the block's ends (the wrap)
            if off[p] != 0.0:
                diag[[p - 1, p]] -= off[p]
                vecs[ru + len(coef), [p - 1, p]] = 1.0
                coef.append(off[p])
                off[p] = 0.0

        # the core: one tridiagonal over the atoms, B's rows outside the block
        # and Gamma^{-1}/a - D^{-1} (D = B's diagonal there) inside
        if gr is not None:
            prec = gr.precision()
            q_diag, q_off = prec[0].copy(), prec[1].copy()
            if gr.L is not None:  # Gamma^{-1}'s coupling across the period
                q_diag[[0, -1]] -= q_off[0]
                vecs[ru + len(coef), [n, n + nw - 1]] = 1.0
                coef.append(q_off[0] / gr.a)
            q_off[0] = 0.0
            core = _Core(diag, off, lo, q_diag / gr.a, q_off / gr.a)
        else:
            prec, core = None, _Core(diag, off, 0, np.zeros(0), np.zeros(0))
        vecs = vecs[:ru + len(coef)]
        w = np.zeros((vecs.shape[0],) * 2)
        w[:ru, :ru] = self.w
        w[range(ru, w.shape[0]), range(ru, w.shape[0])] = coef

        # the correction as V^T diag(lam) V on the range of w (vectors scaled
        # to unit length first), so that diag(lam) is invertible
        norms = np.sqrt(np.sum(vecs * vecs, axis=1))
        lam, rot = np.linalg.eigh(w * np.outer(norms, norms))
        keep = np.abs(lam) > 64 * np.finfo(float).eps * np.max(np.abs(lam))
        lam, v = lam[keep], rot[:, keep].T @ (vecs / norms[:, None])

        rhs = np.zeros((1 + lam.size, n + nw))
        rhs[0, :n] = -g
        rhs[1:] = v
        x = core.solve(rhs)
        cap = v @ x[1:].T
        cap = 0.5 * (cap + cap.T)
        cap[np.diag_indices_from(cap)] += 1.0 / lam
        sig, e = np.linalg.eigh(cap)

        def correct(z):  # the bordered solution from the core's solution z
            return z - (e @ ((e.T @ (v @ z)) / sig)) @ x[1:]

        sol = correct(x[0])
        resid = rhs[0] - self._bordered_product(sol, c, prec)
        sol += correct(core.solve(resid[None])[0])

        # negative eigenvalues of M: the core's, plus the capacitance's
        # positive ones, less the correction's; M has H + c 11^T's and
        # Gamma^{-1}/a's, which are all negative when a < 0
        neg = core.neg + int(np.sum(sig > 0)) - int(np.sum(lam > 0))
        if gr is not None and gr.a < 0:
            neg -= nw
        d = sol[:n]
        positive = neg == 0 and bool(np.all(sig != 0)) and bool(np.all(np.isfinite(d)))
        return d, positive

    def _bordered_product(self, x, c, prec):
        """The bordered matrix M (module docstring) times x = (d, v)."""
        n = self.diag.size
        d = x[:n]
        out = np.empty_like(x)
        out[:n] = _apply_cyclic_tridiag(self.diag, self.off[1:], self.off[0], d) \
            + self.u @ (self.w @ (self.u.T @ d)) + c * np.sum(d)
        gr = self.green
        if gr is not None:
            win = slice(gr.lo, gr.lo + gr.y.size)
            out[win] += x[n:]
            q_diag, q_off = prec
            out[n:] = d[win] + _apply_cyclic_tridiag(q_diag, q_off[1:], q_off[0], x[n:]) / gr.a
        return out


class _Core:
    """The core M_0 of the bordered matrix, factored once.

    Unknowns: the n atoms' d, then v on the block's atoms lo..lo+nw-1.  On
    the block M_0 is [[D, I], [I, Gamma^{-1}/a]] with Gamma^{-1} cut; as
    d = D^{-1}(r - v) there, (Gamma^{-1}/a - D^{-1}) v = s - D^{-1} r: with
    B's rows at the other atoms, one tridiagonal system J over the atoms.
    Started at the atom after the block, J's coupling across the end is a
    cut one (zero).  `neg` is M_0's number of negative eigenvalues:
    Haynsworth on D, then J's pivots.
    """

    def __init__(self, diag, off, lo, q_diag, q_off):
        n, nw = diag.size, q_diag.size
        self.lo, self.d_win = lo, diag[lo:lo + nw]
        j_diag, j_off = diag.copy(), off.copy()
        j_diag[lo:lo + nw] = q_diag - 1.0 / self.d_win
        j_off[lo:lo + nw] = q_off
        self.perm = (np.arange(n) + lo + nw) % n
        self.levels, neg = _tridiag_factor(j_diag[self.perm], j_off[self.perm])
        self.neg = neg + int(np.sum(self.d_win < 0))

    def solve(self, rhs):
        """M_0^{-1} r for each row r of rhs (shape (m, n + nw))."""
        n, nw = self.perm.size, self.d_win.size
        win = slice(self.lo, self.lo + nw)
        b = rhs[:, :n].copy()
        b[:, win] = rhs[:, n:] - rhs[:, win] / self.d_win
        x = np.empty_like(rhs)
        x[:, self.perm] = _tridiag_apply(self.levels, b[:, self.perm])
        x[:, n:] = x[:, win]
        x[:, win] = (rhs[:, win] - x[:, n:]) / self.d_win
        return x


def _tridiag_factor(a, b):
    """Odd-even cyclic reduction of the symmetric tridiagonal J with diagonal
    a and J[i-1, i] = b[i] (b[0] is ignored); returns the levels for
    `_tridiag_apply` and the number of negative pivots, which is J's number
    of negative eigenvalues (Sylvester).

    J is padded with decoupled unit rows to 2^p - 1 rows.  Each level
    eliminates the even rows, which couple only to odd ones (a diagonal
    pivot block), and leaves a tridiagonal system on the 2^(p-1) - 1 odd
    rows.  That is Gaussian elimination on a symmetric reordering of J, so
    for positive definite J it is as stable as Cholesky.  The last system,
    of at most _DENSE_ROWS rows, is solved by its eigendecomposition.
    """
    n = a.size
    size = (1 << n.bit_length()) - 1
    aa, bb = np.ones(size), np.zeros(size + 1)  # bb[size]: no row past the end
    aa[:n], bb[1:n] = a, b[1:]
    levels, neg = [], 0
    while aa.size > _DENSE_ROWS:
        a_e = aa[0::2]
        neg += int(np.count_nonzero(a_e < 0))
        b_l, b_r = bb[1:-1:2], bb[2::2]  # odd row i: J[i-1, i], J[i, i+1]
        alpha, beta = b_l / a_e[:-1], b_r / a_e[1:]
        b_next = np.zeros(alpha.size + 1)
        b_next[:-1] = -alpha * bb[0:-2:2]
        levels.append((alpha, beta, 1.0 / a_e))
        aa, bb = aa[1::2] - alpha * b_l - beta * b_r, b_next
    last = np.diag(aa)
    i = np.arange(1, aa.size)
    last[i - 1, i] = last[i, i - 1] = bb[1:-1]
    lam, vec = np.linalg.eigh(last)
    levels.append((lam, vec))
    return levels, neg + int(np.count_nonzero(lam < 0))


def _tridiag_apply(levels, r):
    """J^{-1} r for each row r of r (shape (m, n)), from `_tridiag_factor`'s
    levels."""
    m, n = r.shape
    rr = np.zeros((m, (1 << n.bit_length()) - 1))
    rr[:, :n] = r
    evens = []
    for alpha, beta, _ in levels[:-1]:
        r_e = rr[:, 0::2]
        evens.append(r_e)
        rr = rr[:, 1::2] - alpha * r_e[:, :-1] - beta * r_e[:, 1:]
    lam, vec = levels[-1]
    x = ((rr @ vec) / lam) @ vec.T
    # back substitution of even row 2j: x_2j = r_2j / a_2j
    # - (J[2j-1, 2j] / a_2j) x_2j-1 - (J[2j, 2j+1] / a_2j) x_2j+1, the two
    # ratios being beta_j-1 and alpha_j
    for (alpha, beta, inv), r_e in zip(reversed(levels[:-1]), reversed(evens)):
        full = np.empty((m, 2 * x.shape[1] + 1))
        full[:, 1::2] = x
        full[:, 0::2] = r_e * inv
        full[:, 2::2] -= beta * x
        full[:, 0:-1:2] -= alpha * x
        x = full
    return x[:, :n]
