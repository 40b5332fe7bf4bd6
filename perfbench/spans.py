"""In-memory span tracing of acfield's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded `acfield.*` module that binds it: the defining module (so calls
from inside that module are seen) and each module that imported it by name.
No program code changes.  Spans are appended to flat arrays while the run
goes and are only reduced (self time, counts) or written out when it ends.

A span records its function, its start and end, the nearest traced span that
was open when it started (its parent), and up to two numbers taken from the
call's result (`Field.n_nodes`, points evaluated, `MinimizeResult.iterations`,
the solve residual).  Self time is the span's duration minus the durations of
its children; calls run on one thread, so children never overlap.

`lattice` is deliberately untraced: its helpers take under a microsecond and
are called ~1e5 times per run, so a wrapper would cost more than the work.
"""

import functools
import sys
import time
from array import array

import numpy as np

# module -> functions traced; the metric names are "<module>.<function>.*"
TRACED = {
    "minimize": ("minimize",),
    "energy": ("energy_periodic", "forces_periodic", "energy_dirichlet",
               "d_energy_dirichlet_y", "d_energy_dirichlet_a",
               "d_energy_dirichlet_g", "g_star", "mirror_energy"),
    "ac": ("ac_energy", "ac_forces", "g_method2", "stability_spectrum",
           "consistency_error"),
    "cauchy_born": ("cb_total_energy", "cb_forces", "cb_cell_energy",
                    "cb_cell_denergy", "cell_state", "cb_cell_field",
                    "comparison_field_bound"),
    "field": ("solve_periodic", "solve_dirichlet", "eval_green_periodic",
              "eval_green_dirichlet"),
    "density": ("mu", "self_moment"),
    "harness": ("run",),
}

# what a minimize span's direct children are: the model's energy or gradient
_MODEL_ENERGY = ("energy.energy_periodic", "cauchy_born.cb_total_energy", "ac.ac_energy")
_MODEL_GRAD = ("energy.forces_periodic", "cauchy_born.cb_forces", "ac.ac_forces")


def _solve_extra(args, kwargs, out):
    return out.n_nodes, out.residual_rel


def _points_extra(args, kwargs, out):
    # eval_green_periodic(cfg, profile, m, x), eval_green_dirichlet(y_at, bd, profile, x)
    return np.size(kwargs["x"] if "x" in kwargs else args[3]), 0.0


def _minimize_extra(args, kwargs, out):
    return out.iterations, 0.0


_EXTRA = {
    "field.solve_periodic": _solve_extra,
    "field.solve_dirichlet": _solve_extra,
    "field.eval_green_periodic": _points_extra,
    "field.eval_green_dirichlet": _points_extra,
    "minimize.minimize": _minimize_extra,
}


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    labels = ["%s.%s" % (mod, fn) for mod, funcs in TRACED.items() for fn in funcs]
    none_i, none_f = np.zeros(0, dtype=np.int32), np.zeros(0)
    empty = {"names": np.array(labels), "name_id": none_i, "parent": none_i,
             "t0": none_f, "t1": none_f, "x1": none_f, "x2": none_f}
    return list(layer_metrics(empty)) + ["trace.overhead_s"]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.x1 = array("d")
        self.x2 = array("d")
        self._stack = [-1]
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._patches = []

    def _wrap(self, label, fn):
        nid = len(self.names)
        self.names.append(label)
        extra = _EXTRA.get(label)
        name_id, parent, t0, t1 = self.name_id, self.parent, self.t0, self.t1
        x1, x2, stack, clock = self.x1, self.x2, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(t0)
            name_id.append(nid)
            parent.append(stack[-1])
            t1.append(0.0)
            x1.append(0.0)
            x2.append(0.0)
            stack.append(i)
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if extra is not None:
                x1[i], x2[i] = extra(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every traced function at every acfield.* binding of it.  The
        wrappers are made once, so spans from several installs share names."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "acfield" or name.startswith("acfield.")]
        if not self._wrappers:
            for mod_name, funcs in TRACED.items():
                home = sys.modules["acfield." + mod_name]
                for fn_name in funcs:
                    original = getattr(home, fn_name)
                    label = "%s.%s" % (mod_name, fn_name)
                    self._wrappers[id(original)] = (original, self._wrap(label, original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __len__(self):
        return len(self.t0)

    def arrays(self, n=None):
        """The first n spans (default: all) as numpy arrays, with the names."""
        n = len(self) if n is None else n
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "t0": np.frombuffer(self.t0, dtype=float, count=n).copy(),
            "t1": np.frombuffer(self.t1, dtype=float, count=n).copy(),
            "x1": np.frombuffer(self.x1, dtype=float, count=n).copy(),
            "x2": np.frombuffer(self.x2, dtype=float, count=n).copy(),
        }


def layer_metrics(sp):
    """Reduce the span arrays of `Tracer.arrays()` to the per-layer metrics."""
    names = list(sp["names"])
    nid, parent = sp["name_id"], sp["parent"]
    dur = sp["t1"] - sp["t0"]
    k = len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = np.bincount(nid, weights=dur - child, minlength=k)
    calls = np.bincount(nid, minlength=k)
    x1 = np.bincount(nid, weights=sp["x1"], minlength=k)
    idx = {name: i for i, name in enumerate(names)}

    out = {}
    for name, i in idx.items():
        out[name + ".calls"] = (int(calls[i]), "count")
        out[name + ".self_s"] = (float(self_s[i]), "s")

    i_min = idx["minimize.minimize"]
    under_min = has_parent & (nid[np.maximum(parent, 0)] == i_min)
    child_names = nid[under_min]
    n_grad = int(np.isin(child_names, [idx[n] for n in _MODEL_GRAD]).sum())
    n_energy = int(np.isin(child_names, [idx[n] for n in _MODEL_ENERGY]).sum())
    iters = int(x1[i_min])
    # every minimize evaluates the energy once before its first step; the
    # rest are line-search trials, of which `iters` were accepted
    trials = n_energy - int(calls[i_min])
    out["minimize.newton_iters"] = (iters, "count")
    out["minimize.grad_evals"] = (n_grad, "count")
    out["minimize.energy_evals"] = (n_energy, "count")
    out["minimize.grad_evals_per_iter"] = (n_grad / iters if iters else 0.0, "count")
    out["minimize.accept_ratio"] = (iters / trials if trials else 0.0, "1")
    for fn, unit in (("solve_periodic", "nodes"), ("solve_dirichlet", "nodes"),
                     ("eval_green_periodic", "points"), ("eval_green_dirichlet", "points")):
        name = "field." + fn
        out["%s.%s" % (name, unit)] = (int(x1[idx[name]]), "count")
    solves = np.isin(nid, [idx["field.solve_periodic"], idx["field.solve_dirichlet"]])
    out["field.solve.max_residual"] = (float(sp["x2"][solves].max()) if solves.any() else 0.0,
                                       "1")
    out["trace.spans"] = (int(dur.size), "count")
    return out
