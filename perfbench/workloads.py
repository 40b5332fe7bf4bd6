"""The three benchmark workloads, each driving acfield's public API.

A workload has a fixed unit of work, one *pass*, made of *operations*:

    sweep     one error-convergence sweep (N = 40, 80, 160; both couplings);
              an operation is one (N, variant) point, 6 per pass
    audit     the nine other harness kinds at sizes above `acfield check`;
              an operation is one kind, 9 per pass
    evaluate  energy + gradient of four models at N = 1280 on fresh smooth
              random configurations; an operation is one configuration
              through all four models, BLOCK per pass

Each pass runs in a fresh process (see `one_pass.py`).  Only
`Workload.run_pass()` is timed; drawing inputs and checking outputs happen
around it.  A pass never raises: an operation that raises counts as failed.

Every acfield name is looked up through its module at call time, so the
wrappers `spans.Tracer` installs are seen.
"""

import json
import math
from pathlib import Path

import numpy as np

import acfield.ac
import acfield.density
import acfield.harness
import acfield.lattice
import acfield.minimize

M, SIGMA0, STRETCH = 1.0, 0.5, 1.1
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# audit kinds that draw their inputs from spec.seed; the reference holds
# their rows for every spec seed in range(SEED_POOL)
SEEDED_KINDS = ("gradient-audit", "fem-cross-validation", "optimal-bc", "consistency")
SEED_POOL = 16


def profile():
    return acfield.density.quartic_bump(SIGMA0)


def warm_up():
    """The program's only lazy set-up: the density moment caches."""
    p = profile()
    acfield.density.mu(p, M)
    acfield.density.self_moment(p, M)


def _close(value, ref, rtol, atol=0.0):
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


class Workload:
    """One pass: `prepare()` (untimed), `run_pass()` (timed), `check(result)`
    (untimed, returns failed operations).  Made from the run's seed, the
    pass's index in its run and the directory for CSV output."""

    uses_seed = True
    ops_per_pass = 1

    def prepare(self):
        pass

    def run_pass(self):
        raise NotImplementedError

    def check(self, result, reference=None):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweep


class Sweep(Workload):
    """Criterion 8's sweep without N = 320.  Deterministic: the seed is unused."""

    uses_seed = False
    ops_per_pass = 6

    def __init__(self, seed, index, out_dir):
        self.spec = acfield.harness.ExperimentSpec(
            kind="error-convergence", m=M, stretch=STRETCH, sigma0=SIGMA0,
            profile="quartic", n_list=(40, 80, 160), k_rule="n/4",
            force_amplitude=0.3, out=str(out_dir))

    def run_pass(self):
        try:
            return acfield.harness.run(self.spec, jobs=1)
        except Exception as exc:  # noqa: BLE001 - any raise fails every point
            return exc

    @staticmethod
    def rows(rows):
        return {"%s|%d" % (r.quantity, r.N): r for r in rows}

    def check(self, result, reference=None):
        """A point passes when `run` raised nothing and its error, its
        right-hand side and (at the last N) the fitted constant and slope
        match the reference.  The minimizer stops at |g|_l2eps <= tol =
        1e-10 m eps, so two correct minimizers differ by far less than
        1e4 tol in strain; the error may move by that much, and the fitted
        constant and slope by the relative change it implies."""
        if isinstance(result, Exception):
            return self.ops_per_pass
        reference = (reference or load_reference())["sweep"]
        rows = self.rows(result)
        n_last = self.spec.n_list[-1]
        failed = 0
        for n in self.spec.n_list:
            atol = 1e4 * 1e-10 * M * 2.0 / (2 * n + 1)
            for variant in ("method1", "method2"):
                checks = [("error-%s|%d" % (variant, n), 0.0, atol)]
                if n == n_last:
                    checks += [("fitted-c-%s|%d" % (variant, n), 1e-4, 0.0),
                               ("slope-%s|%d" % (variant, n), 1e-3, 0.0)]
                ok = True
                for key, rtol, abs_tol in checks:
                    row, ref = rows.get(key), reference.get(key)
                    ok &= row is not None and ref is not None and _close(
                        row.value, ref["value"], rtol, abs_tol)
                    if ok and ref["bound"] is not None:
                        ok &= _close(row.bound, ref["bound"], 1e-6)
                failed += not ok
        return failed


# ---------------------------------------------------------------------------
# audit


def _audit_specs(seed, out_dir):
    common = dict(m=M, stretch=STRETCH, sigma0=SIGMA0, profile="quartic", k_rule="n/4",
                  seed=seed, out=str(out_dir))

    def spec(**kw):
        return acfield.harness.ExperimentSpec(**dict(common, **kw))

    return [
        spec(kind="gradient-audit", n_list=(80,), n_samples=3),
        spec(kind="fem-cross-validation", n_list=(40, 80)),
        spec(kind="optimal-bc", n_list=(80, 160)),
        spec(kind="ghost-force", n_list=(80,), stretch_list=(1.0, 1.2, 1.5)),
        spec(kind="cb-closed-form", n_list=(80,)),
        spec(kind="field-bound", n_list=(40, 80), force_amplitude=0.05),
        spec(kind="stability", n_list=(20,), k_rule="9"),
        spec(kind="consistency", n_list=(40, 80), force_amplitude=0.03),
        spec(kind="bc-gap", n_list=(80,)),
    ]


class Audit(Workload):
    """The nine audit kinds; every spec gets spec.seed = seed % SEED_POOL, so
    the seeded kinds' outputs are pinned by the reference for any seed."""

    ops_per_pass = 9

    def __init__(self, seed, index, out_dir):
        self.spec_seed = seed % SEED_POOL
        self.specs = _audit_specs(self.spec_seed, out_dir)

    def run_pass(self):
        out = {}
        for spec in self.specs:
            try:
                out[spec.kind] = acfield.harness.run(spec, jobs=1)
            except Exception as exc:  # noqa: BLE001 - a raise fails this kind
                out[spec.kind] = exc
        return out

    @staticmethod
    def rows(rows):
        return {"%s|%d|%d" % (r.quantity, r.N, r.K): r for r in rows}

    def reference_rows(self, reference, kind):
        """The reference rows of `kind` for this pass's spec seed."""
        if kind in SEEDED_KINDS:
            return reference["audit_seeded"][str(self.spec_seed)][kind]
        return reference["audit"][kind]

    def check(self, result, reference=None):
        """A kind passes when `run` raised nothing (every hard check held)
        and its rows are the reference rows: the same quantities at the same
        N and K, finite, and within the recorded relative tolerance where
        the reference pins a value.  `make_reference.py` pins every row that
        sits above roundoff, with a tolerance of a hundred times its
        measured sensitivity to roundoff (at least 1e-6)."""
        reference = reference or load_reference()
        failed = 0
        for kind, rows in result.items():
            if isinstance(rows, Exception):
                failed += 1
                continue
            ref = self.reference_rows(reference, kind)
            got = self.rows(rows)
            ok = sorted(got) == sorted(ref)
            for key, row in got.items():
                ok &= math.isfinite(row.value)
                pin = ref.get(key)
                if pin is not None:
                    ok &= _close(row.value, pin["value"], pin["rtol"])
            failed += not ok
        return failed


# ---------------------------------------------------------------------------
# evaluate


N_EVAL, K_EVAL = 1280, 320
BLOCK = 64  # operations per pass
FD_SAMPLES = 2  # configurations per pass whose gradients are checked by central differences


def smooth_config(n, rng, amp=0.02, margin=0.15):
    """Random low-mode displacement (modes 1..3, mode k of size amp/k),
    redrawn until every strain exceeds sigma0 + margin."""
    theta = 2.0 * np.pi * np.arange(-n, n + 1) / (2 * n + 1)
    for _ in range(64):
        u = sum(rng.normal(0.0, amp) / k * np.sin(k * theta)
                + rng.normal(0.0, amp) / k * np.cos(k * theta) for k in (1, 2, 3))
        cfg = acfield.lattice.ChainConfig(n, STRETCH, u - u.mean())
        if float(np.min(acfield.lattice.first_diff(cfg))) > SIGMA0 + margin:
            return cfg
    raise RuntimeError("could not draw an admissible configuration")


class Evaluate(Workload):
    """Energy and gradient of the atomistic, Cauchy-Born and both coupled
    models at N = 1280, one fresh configuration per operation: pass `index`
    of a run draws its configurations from the seed sequence (seed, index)."""

    ops_per_pass = BLOCK

    def __init__(self, seed, index, out_dir):
        p = profile()
        mn = acfield.minimize
        self.models = (
            mn.AtomisticModel(p, M, backend="pair"),
            mn.CauchyBornModel(p, M),
            mn.AcModel(acfield.ac.method1(K_EVAL), p, M),
            mn.AcModel(acfield.ac.method2(K_EVAL), p, M),
        )
        self.rng = np.random.default_rng([seed, index])
        self.configs = []

    def prepare(self):
        """Draw this pass's configurations, outside the timed region."""
        self.configs = [smooth_config(N_EVAL, self.rng) for _ in range(BLOCK)]

    def run_pass(self):
        out = []
        for cfg in self.configs:
            try:
                out.append([(m.energy(cfg), m.gradient(cfg)) for m in self.models])
            except Exception as exc:  # noqa: BLE001 - a raise fails this operation
                out.append(exc)
        return out

    def check(self, result, reference=None):
        """Outputs finite and every gradient summing to zero (translation
        invariance); the first FD_SAMPLES configurations also pass
        `fd_agrees`."""
        failed = 0
        for i, (cfg, outputs) in enumerate(zip(self.configs, result)):
            if isinstance(outputs, Exception):
                failed += 1
                continue
            ok = True
            for e, g in outputs:
                ok &= math.isfinite(e) and bool(np.all(np.isfinite(g)))
                ok &= abs(float(np.sum(g))) <= 1e-9 * float(np.sum(np.abs(g)))
            if ok and i < FD_SAMPLES:
                ok = self.fd_agrees(cfg, outputs)
            failed += not ok
        return failed

    def fd_agrees(self, cfg, outputs):
        """Central differences of each energy against its gradient g, along
        g itself scaled to strain increments of at most h: the slope |g|^2
        cannot cancel, so roundoff stays small.  At h = 1e-4 the agreement
        is ~3e-8 relative (truncation), so the 1e-6 tolerance leaves a wide
        margin and still catches a gradient off by 1e-5."""
        h = 1e-4
        ok = True
        for model, (_, g) in zip(self.models, outputs):
            dv = g - g.mean()
            dv *= cfg.eps / np.max(np.abs(np.diff(dv)))
            up, um = cfg.u + h * dv, cfg.u - h * dv
            fd = (model.energy(cfg.replace_u(up - up.mean()))
                  - model.energy(cfg.replace_u(um - um.mean()))) / (2.0 * h)
            an = float(g @ dv)
            ok &= abs(fd - an) <= 1e-6 * abs(an)
        return ok


WORKLOADS = {"sweep": Sweep, "audit": Audit, "evaluate": Evaluate}


def load_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))
