"""Miniature convergence study for both coupling variants.

Load the chain with a fixed smooth force, relax the full model and each
coupled model at a few lattice sizes with the window scaled as K = N/4,
and watch the strain-error shrink with the spacing eps = 2/(2N+1).  The
full-size version of this sweep (N up to 320) runs through
`acfield run` with an error-convergence spec; this is the table-top cut.
"""

import tempfile

from acfield.harness import ExperimentSpec, run

with tempfile.TemporaryDirectory() as out:
    rows = run(ExperimentSpec(kind="error-convergence", n_list=(48, 96), k_rule="n/4",
                              force_amplitude=0.3, out=out))

print("strain error of the coupled minimizer vs the full minimizer")
print("(sine load 0.3, K = N/4, tolerance |gradient| <= 1e-10 m eps)")
print()
print("  variant    N     eps       error        budget     error/budget")
for r in rows:
    if r.quantity.startswith("error-"):
        print("  %-9s %4d  %.5f   %.4e   %.4e   %.3f"
              % (r.quantity.removeprefix("error-"), r.N, r.eps,
                 r.value, r.bound, r.value / r.bound))

print()
for r in rows:
    if r.quantity.startswith("slope-"):
        print("  %-9s log-log slope %.3f" % (r.quantity.removeprefix("slope-"), r.value))
    if r.quantity.startswith("fitted-c-"):
        print("  %-9s fitted constant %.4f" % (r.quantity.removeprefix("fitted-c-"), r.value))

print()
print("Variant 1 rides the Cauchy-Born modelling error and lands well below")
print("the first-order budget; variant 2 pays an extra boundary-data gap at")
print("the interface.  Both satisfy err <= C * (eps ||y''||_w + tau) with a")
print("size-independent C -- the first-order guarantee -- and in fact")
print("converge slightly faster than first order on smooth loads, because")
print("the interface rule is exact on uniform states.")
