"""Experiment orchestration: config parsing, canned experiments, CSV output.

Each experiment kind audits one quantitative claim of the model end to end
(analytic gradients vs finite differences, FEM vs closed-form kernels, ghost
forces, field locality bounds, coupling stability, convergence of the coupled
minimizers, boundary-data gaps); each kind is one entry of `_KINDS`.  `run`
executes one kind from an ExperimentSpec and writes `<kind>.csv`; `check`
runs every kind at a reduced scale as a self-test; `main` is the `acfield`
console entry point.  The harness is a client of the package's public API.

Output contract: rows are sorted deterministically and floats are written
with `repr`, so two runs with the same spec and seed produce byte-identical
CSV bodies.  Timestamps and wall times only ever appear on `#` comment lines.
"""

import argparse
import csv
import dataclasses
import io
import math
import operator
import re
import sys
import time
import traceback
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .lattice import (
    ChainConfig,
    first_diff,
    homogeneous,
    norm_weighted,
    positions,
    second_diff,
)
from .density import delta_eps, gauss_on_interval, quartic_bump, sextic_bump
from .field import eval_green_dirichlet, eval_green_periodic
from .energy import (
    d_energy_dirichlet_a,
    d_energy_dirichlet_g,
    d_energy_dirichlet_y,
    energy_dirichlet,
    energy_periodic,
    forces_periodic,
    g_star,
    mirror_energy,
)
from .cauchy_born import (
    CellState,
    cb_cell_energy,
    cb_cell_field,
    cb_cell_fields,
    cb_forces,
    cb_total_energy,
    comparison_field_bound,
)
from .ac import (
    AcPartition,
    ac_energy,
    ac_forces,
    consistency_error,
    g_method2,
    method1,
    method2,
    stability_spectrum,
)
from .minimize import AcModel, AtomisticModel, compare_minimizers, minimize, sine_force

__all__ = [
    "ExperimentSpec",
    "ResultRow",
    "SpecError",
    "HarnessError",
    "parse_spec",
    "run",
    "check",
    "main",
]


class SpecError(ValueError):
    """Invalid experiment configuration (bad key, value, or combination)."""


class HarnessError(RuntimeError):
    """One or more hard checks failed; the CSV has still been written."""


_K_RULE = re.compile(r"^(n/[1-9][0-9]*|[1-9][0-9]*)$")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one experiment.

    `k_rule` is either a literal atom count ("9") or a divisor rule ("n/4",
    meaning K = n // 4).  `n_list` drives sweeps for the kinds that refine;
    single-scale kinds run once per entry.  `stretch_list` is only read by
    the ghost-force kind (empty means: use `stretch`).  What the method
    fixes is not a field: the coupled window's tau guard (1e-8, see
    `acfield.ac`), the FEM kind's meshes (16, 32 and 64 nodes per bump) and
    the error-convergence load's mode (`sine_force`, the lowest mode).
    """

    kind: str
    m: float = 1.0
    stretch: float = 1.1
    sigma0: float = 0.5
    profile: str = "quartic"
    n_list: tuple = (80,)
    k_rule: str = "n/4"
    stretch_list: tuple = ()
    force_amplitude: float = 0.3
    n_samples: int = 5
    seed: int = 0
    out: str = "."

    def __post_init__(self):
        if not self.kind:
            raise SpecError("kind: required")
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise SpecError("m: must be a positive finite number, got %r" % (self.m,))
        if not (self.sigma0 > 0.0 and math.isfinite(self.sigma0)):
            raise SpecError("sigma0: must be positive, got %r" % (self.sigma0,))
        if not (self.sigma0 < self.stretch < math.inf):
            raise SpecError("stretch: must be finite and exceed sigma0 (%r), got %r"
                            % (self.sigma0, self.stretch))
        if self.profile not in ("quartic", "sextic"):
            raise SpecError("profile: must be 'quartic' or 'sextic', got %r" % (self.profile,))
        if not self.n_list:
            raise SpecError("n_list: must not be empty")
        for n in self.n_list:
            if not (isinstance(n, int) and n >= 4):
                raise SpecError("n_list: entries must be integers >= 4, got %r" % (n,))
        if tuple(sorted(set(self.n_list))) != tuple(self.n_list):
            raise SpecError("n_list: must be strictly ascending, got %r" % (self.n_list,))
        if not _K_RULE.match(self.k_rule):
            raise SpecError(
                "k_rule: expected 'n/<int>' or a literal '<int>', got %r" % (self.k_rule,)
            )
        for f in self.stretch_list:
            if not (self.sigma0 < f < math.inf):
                raise SpecError(
                    "stretch_list: every entry must be finite and exceed sigma0, got %r" % (f,)
                )
        if not (self.force_amplitude >= 0.0 and math.isfinite(self.force_amplitude)):
            raise SpecError("force_amplitude: must be >= 0, got %r" % (self.force_amplitude,))
        for name, least in (("n_samples", 1), ("seed", 0)):
            value = getattr(self, name)
            try:
                ok = operator.index(value) >= least
            except TypeError:
                ok = False
            if not ok:
                raise SpecError("%s: must be an integer >= %d, got %r" % (name, least, value))

    def k_of(self, n):
        """Atomistic half-width K for a chain of size n, per `k_rule`."""
        if self.k_rule.startswith("n/"):
            k = n // int(self.k_rule[2:])
        else:
            k = int(self.k_rule)
        if not 1 <= k < n:
            raise SpecError("k_rule: %r gives K=%d outside [1, %d) for n=%d"
                            % (self.k_rule, k, n, n))
        return k

    def bump(self):
        make = quartic_bump if self.profile == "quartic" else sextic_bump
        return make(self.sigma0)

    def resolved(self):
        """All fields as strings, in declaration order (for the CSV header)."""
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            out[f.name] = str(v)
        return out


@dataclass(frozen=True)
class ResultRow:
    """One measured quantity.  `bound` is what the value is read against:
    the cap or floor of a hard check (on `decay-rate`, the centre of its
    ±30 % window; on `lambda-min-method2-homogeneous`, the 0 it must
    exceed), or, on the `error-*`, `sup-error-smooth-*` and `gap-d=*` rows,
    the theory's right-hand side, which no hard check reads.  It is empty
    when the row is informational.  `fitted_c` is a constant fitted across
    the sweep the row belongs to."""

    experiment: str
    N: int
    eps: float
    K: int
    tau: float
    quantity: str
    value: float
    bound: float = None
    fitted_c: float = None


class _Rows:
    """The rows and failed hard checks of one experiment kind.

    A row's `eps` is the lattice spacing 2/(2N+1) of its N (`ChainConfig.eps`).
    `at_most` and `at_least` record a row whose `bound` is the cap or floor
    and fail unless the value meets it, so a NaN never passes.
    """

    def __init__(self, kind):
        self.kind = kind
        self.rows, self.failures = [], []

    def add(self, n, k, tau, quantity, value, bound=None, fitted_c=None):
        self.rows.append(ResultRow(self.kind, n, 2.0 / (2 * n + 1), k, tau, quantity, value,
                                   bound, fitted_c))

    def at_most(self, n, k, tau, quantity, value, cap):
        self.add(n, k, tau, quantity, value, cap)
        if not value <= cap:
            self.fail(n, "%s = %r exceeds %r" % (quantity, value, cap))

    def at_least(self, n, k, tau, quantity, value, floor):
        self.add(n, k, tau, quantity, value, floor)
        if not value >= floor:
            self.fail(n, "%s = %r below %r" % (quantity, value, floor))

    def fail(self, n, message):
        self.failures.append("%s N=%d: %s" % (self.kind, n, message))

    def result(self):
        return self.rows, self.failures


def _sort_key(row):
    return (row.experiment, row.quantity, row.N, row.K)


# ---------------------------------------------------------------------------
# spec file parsing


def _parse_float(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _parse_int(text):
    return int(text, 10)


def _parse_int_list(text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(sorted({int(t, 10) for t in items}))


def _parse_float_list(text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(_parse_float(t) for t in items)


_SPEC_FIELDS = {
    "kind": str,
    "m": _parse_float,
    "stretch": _parse_float,
    "sigma0": _parse_float,
    "profile": str,
    "n_list": _parse_int_list,
    "k_rule": str,
    "stretch_list": _parse_float_list,
    "force_amplitude": _parse_float,
    "n_samples": _parse_int,
    "seed": _parse_int,
    "out": str,
}


def parse_spec(path):
    """Read a line-based `key = value` config file into an ExperimentSpec.

    `#` starts a comment, blank lines are skipped, and `[section]` headers
    are allowed purely for organisation (keys live in one flat namespace).
    Unknown and duplicate keys are hard errors that name the offending line.
    """
    values = {}
    first_line = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                continue
            if "=" not in line:
                raise SpecError("line %d: expected 'key = value', got %r" % (lineno, raw.rstrip()))
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _SPEC_FIELDS:
                raise SpecError("line %d: unknown key %r" % (lineno, key))
            if key in values:
                raise SpecError(
                    "line %d: duplicate key %r (first set on line %d)"
                    % (lineno, key, first_line[key])
                )
            try:
                values[key] = _SPEC_FIELDS[key](text)
            except ValueError as exc:
                raise SpecError("line %d: %s: %s" % (lineno, key, exc)) from None
            first_line[key] = lineno
    if "kind" not in values:
        raise SpecError("missing required key 'kind'")
    return ExperimentSpec(**values)


# ---------------------------------------------------------------------------
# shared numerical helpers


def _chain(n, stretch, shape):
    """The chain of 2n+1 atoms at mean strain `stretch`, displaced by
    `shape(j)` at the atoms j = -n..n less its mean."""
    u = shape(np.arange(-n, n + 1))
    return ChainConfig(n, stretch, u - u.mean())


def _smooth_random_config(n, stretch, sigma0, rng):
    """Random low-mode displacement (modes 1-3, amplitude 0.02/k), redrawn
    until its minimal strain exceeds sigma0 + 0.15.  Its mean strain is
    `stretch`, so a stretch at or below sigma0 + 0.15 can never pass."""

    def shape(jj):
        theta = 2.0 * np.pi * jj / (2 * n + 1)
        u = np.zeros(2 * n + 1)
        for k in (1, 2, 3):
            u += rng.normal(0.0, 0.02) / k * np.sin(k * theta)
            u += rng.normal(0.0, 0.02) / k * np.cos(k * theta)
        return u

    for _ in range(64):
        cfg = _chain(n, stretch, shape)
        if float(np.min(first_diff(cfg))) > sigma0 + 0.15:
            return cfg
    raise ValueError("stretch %r, sigma0 %r: no random chain in 64 draws has every strain "
                     "above sigma0 + 0.15 = %.6g; the mean strain is the stretch, so raise "
                     "stretch or lower sigma0" % (stretch, sigma0, sigma0 + 0.15))


# ---------------------------------------------------------------------------
# experiment: gradient-audit


def _exp_gradient_audit(spec):
    profile = spec.bump()
    m = spec.m
    bound = 1e-5
    out = _Rows(spec.kind)
    rng = np.random.default_rng(spec.seed)
    for n in spec.n_list:
        k = spec.k_of(n)
        pairs = {}

        def record(family, fd, an):
            pairs.setdefault(family, []).append((fd, an))

        for _ in range(spec.n_samples):
            cfg = _smooth_random_config(n, spec.stretch, spec.sigma0, rng)
            h = 1e-5
            # displacement directions with unit bond increments: the finite
            # difference then perturbs every strain by at most h, keeping the
            # truncation error resolution-independent
            dirs = []
            for _ in range(4):
                dv = rng.normal(0.0, 1.0, 2 * n + 1)
                dv -= dv.mean()
                dirs.append(dv * (cfg.eps / np.max(np.abs(np.diff(dv)))))

            y_at, bd0 = AcPartition(k).window(cfg, m)
            gs = g_star(y_at, bd0, profile)
            # generic boundary data, deliberately away from both g = 0 and
            # g = g* (where several of these derivatives vanish identically)
            g_l, g_r = 0.3 * float(gs[0]) + 0.01, 0.7 * float(gs[1]) - 0.02
            bd = bd0.with_g(g_l, g_r)

            grad_y = d_energy_dirichlet_y(y_at, bd, profile)
            for dv in dirs:
                dw = dv[: y_at.size]
                fd = (
                    energy_dirichlet(y_at + h * dw, bd, profile)
                    - energy_dirichlet(y_at - h * dw, bd, profile)
                ) / (2.0 * h)
                record("dirichlet-y", fd, float(grad_y @ dw))

            # each wall position and each boundary value moved on its own
            for family, names, grad, step in (
                ("dirichlet-a", ("a_L", "a_R"), d_energy_dirichlet_a(y_at, bd, profile), 1e-6),
                ("dirichlet-g", ("g_L", "g_R"), d_energy_dirichlet_g(y_at, bd, profile), h),
            ):
                for name, an in zip(names, grad):
                    up, down = (dataclasses.replace(bd, **{name: getattr(bd, name) + t})
                                for t in (step, -step))
                    fd = (energy_dirichlet(y_at, up, profile)
                          - energy_dirichlet(y_at, down, profile)) / (2.0 * step)
                    record(family, fd, float(an))

            # the periodic models: (label, energy, gradient, the coupling if any)
            for label, energy, gradient, meth in (
                ("periodic", energy_periodic, forces_periodic, ()),
                ("cb", cb_total_energy, cb_forces, ()),
                ("ac-method1", ac_energy, ac_forces, (method1(k),)),
                ("ac-method2", ac_energy, ac_forces, (method2(k),)),
            ):
                grad = gradient(cfg, *meth, profile, m)
                for dv in dirs:
                    up, um = cfg.u + h * dv, cfg.u - h * dv
                    fd = (energy(ChainConfig(n, cfg.F, up - up.mean()), *meth, profile, m)
                          - energy(ChainConfig(n, cfg.F, um - um.mean()), *meth, profile, m)
                          ) / (2.0 * h)
                    record(label, fd, float(grad @ dv))

        tau = AcPartition(k).tau(homogeneous(n, spec.stretch), m)
        for family in sorted(pairs):
            fd, an = np.array(pairs[family]).T
            rel = float(np.max(np.abs(fd - an)) / np.max(np.maximum(np.abs(fd), np.abs(an))))
            out.at_most(n, k, tau, "rel-error-" + family, rel, bound)
    return out.result()


# ---------------------------------------------------------------------------
# experiment: fem-cross-validation


def _exp_fem_cross(spec):
    # the FEM solves are the cross-check oracle: this kind alone uses them
    from .field import solve_dirichlet, solve_periodic

    profile = spec.bump()
    m = spec.m
    out = _Rows(spec.kind)
    rng = np.random.default_rng(spec.seed)
    rate_floor = 1.8
    for n in spec.n_list:
        k = spec.k_of(n)
        cfg = _smooth_random_config(n, spec.stretch, spec.sigma0, rng)
        y_at, bd0 = AcPartition(k).window(cfg, m)
        tau = bd0.tau

        meshes = (16, 32, 64)
        for name, solve, exact in (
            ("periodic",
             lambda md: solve_periodic(cfg, profile, m, md),
             lambda x: eval_green_periodic(cfg, profile, m, x)[0]),
            ("dirichlet",
             lambda md: solve_dirichlet(y_at, bd0, profile, md),
             lambda x: eval_green_dirichlet(y_at, bd0, profile, x)[0]),
        ):
            errs = []
            for level, md in enumerate(meshes):
                f = solve(md)
                err = float(np.max(np.abs(f.values - exact(f.nodes()))))
                errs.append(err)
                out.add(n, k, tau, "%s-nodal-error-level%d" % (name, level), err)
            for level in range(len(meshes) - 1):
                out.at_least(n, k, tau, "%s-rate-level%d%d" % (name, level, level + 1),
                             math.log2(errs[level] / errs[level + 1]), rate_floor)
    return out.result()


# ---------------------------------------------------------------------------
# experiment: optimal-bc


def _exp_optimal_bc(spec):
    profile = spec.bump()
    m = spec.m
    out = _Rows(spec.kind)
    rng = np.random.default_rng(spec.seed)
    for n in spec.n_list:
        k = spec.k_of(n)
        cfg = _smooth_random_config(n, spec.stretch, spec.sigma0, rng)
        eps = cfg.eps
        y_at, bd0 = AcPartition(k).window(cfg, m)
        tau = bd0.tau
        gs = g_star(y_at, bd0, profile)
        bd_star = bd0.with_g(*gs)

        closed = float(np.max(np.abs(d_energy_dirichlet_g(y_at, bd_star, profile))))
        out.at_most(n, k, tau, "dg-at-gstar-closed", closed, 1e-10 * m * eps)

        h = 1e-6
        fd = float(np.max([
            abs(energy_dirichlet(y_at, bd0.with_g(gs[0] + dl, gs[1] + dr), profile)
                - energy_dirichlet(y_at, bd0.with_g(gs[0] - dl, gs[1] - dr), profile))
            / (2.0 * h)
            for dl, dr in ((h, 0.0), (0.0, h))
        ]))
        out.at_most(n, k, tau, "dg-at-gstar-fd", fd, 1e-6 * m * eps)

        e_mirror = mirror_energy(y_at, bd0, profile)
        e_star = energy_dirichlet(y_at, bd_star, profile)
        out.at_most(n, k, tau, "mirror-vs-stationary-rel",
                    abs(e_mirror - e_star) / abs(e_star), 1e-6 + 10.0 * tau)
    return out.result()


# ---------------------------------------------------------------------------
# experiment: ghost-force


def _exp_ghost_force(spec):
    profile = spec.bump()
    m = spec.m
    out = _Rows(spec.kind)
    stretches = spec.stretch_list or (spec.stretch,)
    for n in spec.n_list:
        k = spec.k_of(n)
        for stretch in stretches:
            cfg = homogeneous(n, stretch)
            tau = AcPartition(k).tau(cfg, m)
            cap = 1e-8 + 10.0 * tau
            for meth, label in ((method1(k), "method1"), (method2(k), "method2")):
                resid = float(np.max(np.abs(ac_forces(cfg, meth, profile, m))))
                out.at_most(n, k, tau, "linf-residual-%s-F=%r" % (label, stretch),
                            resid, cap)
    return out.result()


# ---------------------------------------------------------------------------
# experiment: cb-closed-form


def _exp_cb_closed_form(spec):
    profile = spec.bump()
    m = spec.m
    out = _Rows(spec.kind)
    cap = 1e-9
    half = profile.half_width
    for n in spec.n_list:
        eps = 2.0 / (2 * n + 1)
        for s in np.linspace(spec.sigma0 + 0.2, 3.0, 5):
            s = float(s)
            closed = cb_cell_energy(s, profile, m, eps)
            cell = CellState(s, 0.0, profile, m, eps)
            # (1/2) integral of (bump charge) x (per-cell comparison field):
            # by periodicity of the field this collapses to one bump's support
            total = 0.0
            for lo, hi in ((-half * eps, 0.0), (0.0, half * eps)):
                xs, ws = gauss_on_interval(lo, hi, 48)
                val, _ = cb_cell_field(cell, xs)
                total += float(np.sum(ws * delta_eps(profile, eps, xs) * val))
            quad = 0.5 * eps * total
            out.at_most(n, 0, 0.0, "cell-energy-rel-err-s=%.4f" % s,
                        abs(closed - quad) / abs(quad), cap)
    return out.result()


# ---------------------------------------------------------------------------
# experiment: field-bound


def _exp_field_bound(spec):
    profile = spec.bump()
    m = spec.m
    out = _Rows(spec.kind)
    slack = 1.0 + 1e-10
    for n in spec.n_list:
        cfg = _chain(n, spec.stretch,
                     lambda jj: spec.force_amplitude * np.sin(2.0 * np.pi * jj / (2 * n + 1)))
        eps = cfg.eps
        y = positions(cfg, -n - 1, n)
        # 12 points in every cell Q_j = (y_{j-1}, y_j): one chain evaluation,
        # one evaluation of every cell's comparison field, one call for the bounds
        xs = np.linspace(y[:-1], y[1:], 12, axis=-1)
        vps, gps = eval_green_periodic(cfg, profile, m, xs)
        vcs, gcs = cb_cell_fields(cfg, profile, m, xs)
        bound_v = comparison_field_bound(cfg, profile, m, np.arange(-n, n + 1))
        ratios_v = np.max(np.abs(vps - vcs), axis=1) / bound_v
        ratios_g = eps * np.max(np.abs(gps - gcs), axis=1) / (m * bound_v)
        out.at_most(n, 0, 0.0, "field-gap-ratio-max", float(np.max(ratios_v)), slack)
        out.at_most(n, 0, 0.0, "field-gradient-gap-ratio-max",
                    float(np.max(ratios_g)), slack)
    return out.result()


# ---------------------------------------------------------------------------
# experiment: stability


def _exp_stability(spec):
    profile = spec.bump()
    m = spec.m
    out = _Rows(spec.kind)
    offsets = (0, 1, 2, 3)
    for n in spec.n_list:
        k = spec.k_of(n)
        eps = 2.0 / (2 * n + 1)
        states = [("homogeneous", homogeneous(n, spec.stretch))]
        for d in offsets:
            states.append(("kink-d=%d" % d, _chain(
                n, spec.stretch, lambda jj: 0.2 * eps * np.exp(-np.abs(jj - (k - d)) / 1.5))))
        deficits = []
        for label, cfg in states:
            tau = AcPartition(k).tau(cfg, m)
            lam1, lower = stability_spectrum(cfg, method1(k), profile, m)
            lam2, _ = stability_spectrum(cfg, method2(k), profile, m)
            out.at_least(n, k, tau, "lambda-min-method1-" + label, lam1, lower - 1e-6)
            # method 2 is only guaranteed stable away from interface kinks; a
            # kink on the interface cell genuinely destabilises it, which is
            # what the shrinking deficit below quantifies
            if label == "homogeneous":
                out.add(n, k, tau, "lambda-min-method2-" + label, lam2, 0.0)
                if not lam2 > 0.0:
                    out.fail(n, "method-2 lambda_min %r on the homogeneous state is not "
                                "positive" % lam2)
            else:
                out.add(n, k, tau, "lambda-min-method2-" + label, lam2)
                deficits.append(lam1 - lam2)
                out.add(n, k, tau, "deficit-" + label, lam1 - lam2)
        for i in range(len(deficits) - 1):
            if not deficits[i + 1] < deficits[i]:
                out.fail(n, "method-2 deficit did not shrink from kink offset %d to %d "
                            "(%.6f -> %.6f)"
                         % (offsets[i], offsets[i + 1], deficits[i], deficits[i + 1]))
    return out.result()


# ---------------------------------------------------------------------------
# experiment: consistency


def _exp_consistency(spec):
    profile = spec.bump()
    m = spec.m
    out = _Rows(spec.kind)
    for n in spec.n_list:
        k = spec.k_of(n)
        homog = homogeneous(n, spec.stretch)
        smooth = _chain(n, spec.stretch,
                        lambda jj: spec.force_amplitude * np.sin(2.0 * np.pi * jj / (2 * n + 1)))
        for meth, label in ((method1(k), "method1"), (method2(k), "method2")):
            res = consistency_error(homog, meth, profile, m, seed=spec.seed)
            out.at_most(n, k, res["tau"], "sup-error-homogeneous-" + label,
                        res["sup_error"], res["tau"] + 1e-12)
            res = consistency_error(smooth, meth, profile, m, seed=spec.seed)
            out.add(n, k, res["tau"], "sup-error-smooth-" + label,
                    res["sup_error"], res["rhs"], res["fitted_C"])
    return out.result()


# ---------------------------------------------------------------------------
# experiment: error-convergence


def _exp_error_convergence(spec):
    profile = spec.bump()
    out = _Rows(spec.kind)
    by_variant = {"method1": [], "method2": []}
    for n in spec.n_list:
        k = spec.k_of(n)
        f = sine_force(n, spec.force_amplitude)
        y0 = homogeneous(n, spec.stretch)
        model_a = AtomisticModel(profile, spec.m)
        # the atomistic minimizer once per N: `compare_minimizers` starts from
        # it, so its atomistic solve stops at iteration 0 for either variant
        y_at = minimize(model_a, f, y0).y_final
        tau = AcPartition(k).tau(y0, spec.m)
        for variant, meth in (("method1", method1(k)), ("method2", method2(k))):
            err, rhs = compare_minimizers(model_a, AcModel(meth, profile, spec.m), f, y_at)
            by_variant[variant].append((y0.eps, float(err), float(rhs)))
            out.add(n, k, tau, "error-" + variant, float(err), float(rhs))
    n_last = spec.n_list[-1]
    k_last = spec.k_of(n_last)
    for variant, triples in by_variant.items():
        eps, err, rhs = np.array(triples).T
        out.add(n_last, k_last, 0.0, "fitted-c-" + variant, float(np.max(err / rhs)))
        if len(triples) >= 2:
            slope = float(np.polyfit(np.log(eps), np.log(err), 1)[0])
            out.add(n_last, k_last, 0.0, "slope-" + variant, slope)
    return out.result()


# ---------------------------------------------------------------------------
# experiment: bc-gap


def _exp_bc_gap(spec):
    profile = spec.bump()
    m = spec.m
    out = _Rows(spec.kind)
    offsets = range(1, 11)
    for n in spec.n_list:
        k = spec.k_of(n)
        part = AcPartition(k)
        eps = 2.0 / (2 * n + 1)
        amp = 0.3 * eps
        gaps, rhss = [], []
        for d in offsets:
            c = k + 1 - d  # the tent's peak
            cfg = _chain(n, spec.stretch, lambda jj: np.where(
                np.abs(jj - c) <= 1, amp * (1.0 - 0.5 * np.abs(jj - c)), 0.0))
            s0 = float(np.min(first_diff(cfg)))
            y_at, bd0 = part.window(cfg, m)
            tau = bd0.tau
            gs = g_star(y_at, bd0, profile)
            g2 = g_method2(cfg, part, profile, m)
            gap = abs(float(g2[1]) - float(gs[1]))
            rhs = math.sqrt(eps) * norm_weighted(second_diff(cfg), eps, s0, m, k) + tau
            gaps.append(gap)
            rhss.append(rhs)
            out.add(n, k, tau, "gap-d=%02d" % d, gap, rhs)
        out.add(n, k, tau, "fitted-c", float(np.max(np.divide(gaps, rhss))))
        dd = np.arange(1, 11, dtype=float)
        tail = dd >= 4
        rate = -float(np.polyfit(dd[tail], np.log(np.asarray(gaps)[tail]), 1)[0])
        target = m * s0
        out.add(n, k, tau, "decay-rate", rate, target)
        if not abs(rate - target) <= 0.3 * target:
            out.fail(n, "fitted decay rate %.4f deviates from m*s0 = %.4f by more than 30%%"
                     % (rate, target))
    return out.result()


# Every experiment kind: its function spec -> (rows, failures), and
# the spec fields of its `acfield check` run, at a scale that finishes in
# seconds.
_KINDS = {
    "gradient-audit": (_exp_gradient_audit, dict(n_list=(20,), k_rule="9", n_samples=3)),
    "fem-cross-validation": (_exp_fem_cross, dict(n_list=(8,))),
    "optimal-bc": (_exp_optimal_bc, dict(n_list=(20,), k_rule="9")),
    "ghost-force": (_exp_ghost_force, dict(n_list=(20,), k_rule="9",
                                           stretch_list=(1.0, 1.2, 1.5))),
    "cb-closed-form": (_exp_cb_closed_form, dict(n_list=(20,))),
    "field-bound": (_exp_field_bound, dict(n_list=(8,), force_amplitude=0.05)),
    "stability": (_exp_stability, dict(n_list=(20,), k_rule="9")),
    "consistency": (_exp_consistency, dict(n_list=(20, 40), k_rule="9", force_amplitude=0.03)),
    "error-convergence": (_exp_error_convergence, dict(n_list=(24, 48), k_rule="11")),
    "bc-gap": (_exp_bc_gap, dict(n_list=(40,), k_rule="10")),
}


# ---------------------------------------------------------------------------
# running, CSV output, CLI


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, spec, rows, elapsed):
    buf = io.StringIO()
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    buf.write("# acfield %s kind=%s\n" % (__version__, spec.kind))
    buf.write("# generated=%s\n" % stamp)
    buf.write("# wall_time_s=%.3f\n" % elapsed)
    buf.write("# spec %s\n" % " ".join(
        "%s=%s" % (key, value) for key, value in spec.resolved().items()
    ))
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(["experiment", "N", "eps", "K", "tau", "quantity",
                     "value", "bound", "fitted_c"])
    for row in rows:
        writer.writerow([row.experiment, row.N, _cell(row.eps), row.K, _cell(row.tau),
                         row.quantity, _cell(row.value), _cell(row.bound),
                         _cell(row.fitted_c)])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue(), encoding="utf-8")


def run(spec, jobs=1):
    """Execute one experiment and write `<kind>.csv` into the directory
    `spec.out`; the spec holds every setting, the seed too.

    Returns the result rows.  Hard check failures raise HarnessError, but
    only after the CSV (including the failing rows) has been written.
    `jobs` accepts 1 only.
    """
    # `jobs` is kept only for the benchmark's `run(spec, jobs=1)` calls, as
    # `AtomisticModel.backend` is for its `backend="pair"`; both leave when
    # perfbench stops passing them (ROADMAP item 8)
    if jobs != 1:
        raise SpecError("jobs: the harness runs in one process; only jobs=1 is "
                        "accepted, got %r" % (jobs,))
    if spec.kind not in _KINDS:
        raise SpecError("kind: unknown experiment %r (choices: %s)"
                        % (spec.kind, ", ".join(sorted(_KINDS))))
    for n in spec.n_list:
        spec.k_of(n)  # surface K-vs-N mismatches before any work starts

    start = time.perf_counter()
    rows, failures = _KINDS[spec.kind][0](spec)
    elapsed = time.perf_counter() - start
    rows = sorted(rows, key=_sort_key)
    _write_csv(Path(spec.out) / (spec.kind + ".csv"), spec, rows, elapsed)
    if failures:
        raise HarnessError("%d hard check(s) failed:\n  %s"
                           % (len(failures), "\n  ".join(sorted(failures))))
    return rows


_CHECK_OUT = "acfield-check"  # `check`'s output directory, from Python and the CLI


def check(out_dir=_CHECK_OUT):
    """Run every kind's check spec (`_KINDS`); print one PASS/FAIL line per
    kind.  A kind that raises fails with the exception's first line
    (traceback to stderr)."""
    failed = 0
    for kind, (_, fields) in _KINDS.items():
        spec = ExperimentSpec(kind=kind, out=str(out_dir), **fields)
        start = time.perf_counter()
        try:
            rows = run(spec)
            print("%-22s PASS   (%d rows, %.1fs)"
                  % (spec.kind, len(rows), time.perf_counter() - start))
        except HarnessError as exc:
            failed += 1
            first = str(exc).splitlines()[1].strip() if "\n" in str(exc) else str(exc)
            print("%-22s FAIL   (%s)" % (spec.kind, first))
        except Exception as exc:
            failed += 1
            traceback.print_exc()
            first = (str(exc).splitlines() or [""])[0]
            print("%-22s FAIL   (%s: %s)" % (spec.kind, type(exc).__name__, first))
    total = len(_KINDS)
    if failed:
        print("%d of %d experiment kinds failed" % (failed, total))
        return 1
    print("all %d experiment kinds passed" % total)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="acfield",
        description="Audit and convergence experiments for the coupled chain model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment described by a config file")
    p_run.add_argument("spec_file", help="key = value config file; see the README")
    p_run.add_argument("--out", default=None, help="output directory (default: from the spec)")
    p_run.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_check = sub.add_parser("check", help="run the built-in audit suite at reduced scale")
    p_check.add_argument("--out", default=_CHECK_OUT)
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print("acfield " + __version__)
        return 0
    try:
        if args.command == "check":
            return check(args.out)
        spec = parse_spec(args.spec_file)
        overrides = dict(out=args.out, seed=args.seed)
        spec = dataclasses.replace(spec, **{k: v for k, v in overrides.items() if v is not None})
        rows = run(spec)
    except HarnessError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        prefix = "spec error" if isinstance(exc, SpecError) else "invalid configuration"
        print("%s: %s" % (prefix, exc), file=sys.stderr)
        return 2
    print("wrote %d rows to %s" % (len(rows), Path(spec.out) / (spec.kind + ".csv")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
