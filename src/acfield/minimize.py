"""Equilibration: minimize E(y) + (f, y)_eps over mean-zero displacements.

A model is anything with .energy(cfg) / .gradient(cfg) /
.hessian_structured(cfg) / .profile / .m; three are provided, each with an
exact Hessian: the periodic atomistic energy, its Cauchy-Born approximation,
and the coupled energies (`.hessian_structured(cfg).dense()` is the array).
The solver is a damped Newton iteration on the mean-zero subspace: each step
solves the Newton system from the Hessian's structure in O(n)
(`hessian.StructuredHessian.newton_step`; steepest-descent fallback when the
Hessian is not positive definite there), and Armijo backtracking refuses
any iterate whose minimal strain drops to the bump-overlap guard; after
`_MAX_ITER` steps it gives up.
"""

from dataclasses import dataclass, field

import numpy as np

from .ac import ac_energy, ac_forces, ac_hessian_structured
from .cauchy_born import cb_forces, cb_hessian_structured, cb_total_energy
from .energy import energy_periodic, forces_periodic, hessian_periodic_structured
from .lattice import (
    ChainConfig,
    first_diff,
    norm_l2eps,
    norm_weighted,
    positions,
    second_diff,
)

__all__ = [
    "ExternalForce",
    "sine_force",
    "AtomisticModel",
    "CauchyBornModel",
    "AcModel",
    "MinimizeResult",
    "MinimizeError",
    "minimize",
    "compare_minimizers",
]


@dataclass(frozen=True)
class ExternalForce:
    """Dead load paired against positions: contributes eps * sum f_j y_j.

    Must be mean-zero so the pairing is translation invariant (it then only
    sees the displacement class the minimization runs over).
    """

    f: np.ndarray = field(repr=False)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.ndim != 1 or f.size % 2 != 1:
            raise ValueError("f must be a vector of odd length 2N+1")
        if not np.all(np.isfinite(f)):
            raise ValueError("f contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(f))))
        if abs(float(np.sum(f))) > 1e-9 * scale * f.size:
            raise ValueError("external force must be mean-zero")
        object.__setattr__(self, "f", f)

    def pairing(self, cfg):
        return cfg.eps * float(self.f @ positions(cfg))


def sine_force(N, amplitude):
    """Mean-zero lowest-mode force f_j = amplitude * sin(2 pi j/(2N+1))."""
    j = np.arange(-N, N + 1)
    f = amplitude * np.sin(2 * np.pi * j / (2 * N + 1))
    return ExternalForce(f - f.mean())


@dataclass(frozen=True)
class AtomisticModel:
    """The periodic atomistic energy, in its exact pair closed form.

    `backend` names that route and accepts only "pair"; the FEM energy is a
    cross-check oracle in `acfield.field`, not a model.
    """

    profile: object
    m: float
    backend: str = "pair"

    def __post_init__(self):
        if self.backend != "pair":
            raise ValueError("the atomistic energy has only the exact pair route, not %r;"
                             " FEM is a cross-check in acfield.field" % (self.backend,))

    def energy(self, cfg):
        return energy_periodic(cfg, self.profile, self.m)

    def gradient(self, cfg):
        return forces_periodic(cfg, self.profile, self.m)

    def hessian_structured(self, cfg):
        return hessian_periodic_structured(cfg, self.profile, self.m)


@dataclass(frozen=True)
class CauchyBornModel:
    profile: object
    m: float

    def energy(self, cfg):
        return cb_total_energy(cfg, self.profile, self.m)

    def gradient(self, cfg):
        return cb_forces(cfg, self.profile, self.m)

    def hessian_structured(self, cfg):
        return cb_hessian_structured(cfg, self.profile, self.m)


@dataclass(frozen=True)
class AcModel:
    method: object
    profile: object
    m: float

    def energy(self, cfg):
        return ac_energy(cfg, self.method, self.profile, self.m)

    def gradient(self, cfg):
        return ac_forces(cfg, self.method, self.profile, self.m)

    def hessian_structured(self, cfg):
        return ac_hessian_structured(cfg, self.method, self.profile, self.m)


class MinimizeError(RuntimeError):
    """`minimize` stopped without converging; `result` is the
    `MinimizeResult` at the stop.  The message says why: how many steps fell
    back to steepest descent, and how many of the last step's line-search
    trials the strain guard refused."""

    def __init__(self, msg, result):
        super().__init__(msg)
        self.result = result


@dataclass(frozen=True)
class MinimizeResult:
    """Endpoint of `minimize` and what it took: gradient evaluations,
    structured Newton systems built (`n_hess_evals`, one per step), rejected
    line-search trials (backtracks), and steps that fell back to steepest
    descent (Hessian not positive definite, or lost descent)."""

    y_final: ChainConfig
    gradient_norm: float
    iterations: int
    converged: bool
    min_strain: float
    max_strain: float
    energies: tuple
    n_grad_evals: int
    n_hess_evals: int
    n_backtracks: int
    n_fallbacks: int


def _strain_guard(cfg):
    """(min strain, index j of its bond)."""
    s = first_diff(cfg)
    p = int(np.argmin(s))
    return float(s[p]), p - cfg.N


#: Newton steps `minimize` takes before it raises `MinimizeError` (the
#: criterion-8 sweep converges in at most 5).
_MAX_ITER = 60


def minimize(model, f, y0):
    """Damped Newton for E(y) + (f, y)_eps over mean-zero displacements.

    Each step solves (H + c 11^T) d = -g with the model's exact Hessian H,
    from its structured form in O(n), never as a dense matrix: H 1 = 0 and g
    is mean-zero, so for any c > 0 the solution is mean-zero and solves the
    Newton system on that subspace.  The iteration stops once
    the l2_eps norm of the projected gradient is at most 1e-10 * m * eps.
    Every accepted iterate keeps min y' > sigma0 + 0.05 (bumps must stay
    separated with room to spare); the Armijo test carries a
    machine-precision slack so the final Newton polish steps, whose
    predicted decrease is below roundoff in the total energy, are not
    rejected.  A load f whose length is not y0's number of atoms raises
    ValueError.  Running out of iterations (`_MAX_ITER`) or a failed line
    search raises `MinimizeError`, which carries the result at the stop and
    says how many steps fell back and how many of the last step's trials
    the guard refused.
    """
    if f.f.size != y0.n_atoms:
        raise ValueError("the load has %d entries but the chain has %d atoms"
                         % (f.f.size, y0.n_atoms))
    eps = y0.eps
    tol = 1e-10 * model.m * eps
    guard = model.profile.sigma0 + 0.05

    s_min, bond = _strain_guard(y0)
    if s_min <= guard:
        raise ValueError(
            "initial strain %.4f at bond %d is below the guard %.4f"
            % (s_min, bond, guard)
        )

    def total(cfg):
        return model.energy(cfg) + f.pairing(cfg)

    count = {"grad": 0, "hess": 0, "backtracks": 0, "fallbacks": 0}

    def grad(cfg):
        count["grad"] += 1
        g = model.gradient(cfg) + eps * f.f
        return g - g.mean()  # project onto the mean-zero subspace

    cfg = y0.replace_u(y0.u - y0.u.mean())
    e_cur = total(cfg)
    energies = [e_cur]
    g = grad(cfg)
    gnorm = norm_l2eps(g, eps)

    def result(converged):
        s = first_diff(cfg)
        return MinimizeResult(cfg, gnorm, steps, converged, float(s.min()),
                              float(s.max()), tuple(energies),
                              count["grad"], count["hess"],
                              count["backtracks"], count["fallbacks"])

    def failure(why):
        res = result(False)
        return MinimizeError(
            "%s (|g| = %.3e): %d of %d steps fell back to steepest descent; the strain "
            "guard %.4g refused %d of the last step's %d trials (min strain %.12g)"
            % (why, gnorm, count["fallbacks"], count["hess"], guard, refused, trials,
               res.min_strain), res)

    steps = refused = trials = 0
    while gnorm > tol:
        if steps >= _MAX_ITER:
            raise failure("no convergence in %d iterations" % _MAX_ITER)

        d, positive = model.hessian_structured(cfg).newton_step(g)
        count["hess"] += 1
        slope = float(g @ d) if positive else 0.0
        if slope >= 0:  # not positive definite, or lost descent: steepest descent
            count["fallbacks"] += 1
            d = -g
            slope = float(g @ d)

        slack = 64 * np.finfo(float).eps * (1.0 + abs(e_cur))
        t = 1.0
        accepted = None
        refused = 0
        for trials in range(1, 41):
            u_t = cfg.u + t * d
            u_t -= u_t.mean()
            cand = cfg.replace_u(u_t)
            if float(np.min(first_diff(cand))) > guard:
                e_t = total(cand)
                if e_t <= e_cur + 1e-4 * t * slope + slack:
                    accepted = (cand, e_t)
                    break
            else:
                refused += 1
            count["backtracks"] += 1
            t *= 0.5
        if accepted is None:
            raise failure("line search failed at step %d" % (steps + 1))

        cfg, e_cur = accepted
        energies.append(e_cur)
        steps += 1
        g = grad(cfg)
        gnorm = norm_l2eps(g, eps)

    return result(True)


def compare_minimizers(model_a, model_b, f, y0):
    """Equilibrate both models and measure |y'_a - y'_b|_{l2_eps} next to the
    first-order bound eps * ||y''_a||_w + tau.

    The second minimization starts from the first minimizer.  tau and the
    weight band come from whichever model couples (zero and trivial weights
    otherwise); the weight decay rate uses the minimal strain of the first
    minimizer.  Both minimizations take at most `_MAX_ITER` Newton steps,
    as every `minimize` does.
    """
    res_a = minimize(model_a, f, y0)
    res_b = minimize(model_b, f, res_a.y_final)
    ya, yb = res_a.y_final, res_b.y_final
    err = norm_l2eps(first_diff(ya) - first_diff(yb), ya.eps)

    tau, k_band = 0.0, 0
    for mod in (model_b, model_a):
        if isinstance(mod, AcModel):
            tau = mod.method.partition.tau(yb, mod.m)
            k_band = mod.method.partition.K
            break
    rhs = ya.eps * norm_weighted(second_diff(ya), ya.eps, res_a.min_strain, model_a.m,
                                 k_band) + tau
    return err, rhs
