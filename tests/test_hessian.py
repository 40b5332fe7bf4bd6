"""The structured Hessians and their O(n) Newton step against dense algebra.

Every model's Hessian comes as a `StructuredHessian`; its dense expansion is
the model's dense Hessian, which the row-by-row FD tests audit.  Here the
structured step `newton_step` is compared with a dense solve of the same
system (H + c 11^T) d = -g, c = max |diag B| / n, and its positive-definiteness
decision with the dense spectrum.
"""

import numpy as np
import pytest

from acfield.ac import ac_hessian_structured, method1, method2
from acfield.cauchy_born import cb_hessian_structured
from acfield.density import quartic_bump, sextic_bump
from acfield.energy import hessian_periodic_structured
from acfield.hessian import _tridiag_apply, _tridiag_factor
from acfield.lattice import ChainConfig

M = 1.0
WINDOW = {20: 9, 40: 10, 160: 40, 320: 80}  # K: N/4, at least 9 (tau <= 1e-8)


def chain(N, shape):
    """A smooth random state, or a kink on the inner atom of interface cell K+1."""
    jj = np.arange(-N, N + 1)
    if shape == "smooth":
        rng = np.random.default_rng(0)
        theta = 2 * np.pi * jj / (2 * N + 1)
        u = sum(rng.normal(0.0, 0.02) / k * np.sin(k * theta)
                + rng.normal(0.0, 0.02) / k * np.cos(k * theta) for k in (1, 2, 3))
    else:
        u = 0.2 * (2.0 / (2 * N + 1)) * np.exp(-np.abs(jj - WINDOW[N]) / 1.5)
    return ChainConfig(N, 1.1, u - u.mean())


def structured(model, cfg, profile):
    K = WINDOW[cfg.N]
    return {
        "atomistic": lambda: hessian_periodic_structured(cfg, profile, M),
        "cauchy_born": lambda: cb_hessian_structured(cfg, profile, M),
        "method1": lambda: ac_hessian_structured(cfg, method1(K), profile, M),
        "method2": lambda: ac_hessian_structured(cfg, method2(K), profile, M),
    }[model]()


def negated(h):
    green = None if h.green is None else h.green._replace(a=-h.green.a)
    return h._replace(diag=-h.diag, off=-h.off, green=green, w=-h.w)


def newton_matrix(h):
    """H + c 11^T as an array."""
    return h.dense() + np.max(np.abs(h.diag)) / h.diag.size


def mean_zero_gradient(n):
    g = np.random.default_rng(1).standard_normal(n)
    return g - g.mean()


MODELS = ["atomistic", "cauchy_born", "method1", "method2"]
PROFILES = pytest.mark.parametrize("bump", [quartic_bump, sextic_bump],
                                   ids=["quartic", "sextic"])


@pytest.mark.parametrize("shape", ["smooth", "kink"])
@pytest.mark.parametrize("N", [20, 40, 160, 320])
@PROFILES
@pytest.mark.parametrize("model", MODELS)
def test_newton_step_matches_dense_solve(model, bump, N, shape):
    h = structured(model, chain(N, shape), bump())
    a = newton_matrix(h)
    g = mean_zero_gradient(a.shape[0])
    d, _ = h.newton_step(g)
    inf = np.inf
    backward = np.linalg.norm(a @ d + g, inf) / (np.linalg.norm(a, inf) * np.linalg.norm(d, inf)
                                                 + np.linalg.norm(g, inf))
    assert backward <= 1e-12
    ref = np.linalg.solve(a, -g)
    assert np.linalg.norm(d - ref) <= 1e-9 * np.linalg.norm(ref)
    assert abs(np.sum(d)) <= 1e-12 * np.linalg.norm(d, 1)  # the mean-zero step


@pytest.mark.parametrize("shape", ["smooth", "kink"])
@pytest.mark.parametrize("N", [20, 40])
@PROFILES
@pytest.mark.parametrize("model", MODELS)
def test_positive_definite_decision_matches_spectrum(model, bump, N, shape):
    # method 2's kink states have one negative eigenvalue, every other state
    # none; -H has n - 1 negative ones and the positive c 11^T direction
    h = structured(model, chain(N, shape), bump())
    g = mean_zero_gradient(2 * N + 1)
    for system in (h, negated(h)):
        lowest = np.linalg.eigvalsh(newton_matrix(system))[0]
        assert system.newton_step(g)[1] == (lowest > 0)
    assert (np.linalg.eigvalsh(newton_matrix(h))[0] > 0) == (model != "method2"
                                                            or shape == "smooth")


@PROFILES
@pytest.mark.parametrize("model", MODELS)
def test_one_negative_eigenvalue_is_not_positive_definite(model, bump):
    # a rank-one term -t u u^T along a mean-zero mode u with t twice the
    # Rayleigh quotient of H turns exactly one eigenvalue negative
    cfg = chain(40, "smooth")
    h = structured(model, cfg, bump())
    n = cfg.n_atoms
    u = np.sin(2 * np.pi * np.arange(n) / n)
    t = 2.0 * float(u @ h.dense() @ u) / float(u @ u) ** 2
    w = np.zeros((h.w.shape[0] + 1,) * 2)
    w[:-1, :-1], w[-1, -1] = h.w, -t
    bent = h._replace(u=np.column_stack([h.u, u]), w=w)
    a = newton_matrix(bent)
    assert np.sum(np.linalg.eigvalsh(a) < 0) == 1
    g = mean_zero_gradient(n)
    d, positive = bent.newton_step(g)
    assert not positive
    assert np.linalg.norm(a @ d + g, np.inf) \
        <= 1e-12 * np.linalg.norm(a, np.inf) * np.linalg.norm(d, np.inf)


@pytest.mark.parametrize("n", [1, 2, 3, 14, 15, 16, 17, 31, 32, 33, 100, 641])
def test_tridiagonal_solve_and_inertia(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(2.0, 4.0, n)
    b = rng.uniform(-1.0, 1.0, n)
    a[n // 3] = -1.5  # one negative pivot region
    j = np.diag(a)
    i = np.arange(1, n)
    j[i - 1, i] = j[i, i - 1] = b[1:]
    r = rng.standard_normal((3, n))
    levels, neg = _tridiag_factor(a, b)
    x = _tridiag_apply(levels, r)
    ref = np.linalg.solve(j, r.T).T
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert neg == np.sum(np.linalg.eigvalsh(j) < 0)
