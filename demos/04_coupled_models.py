"""Atomistic-to-continuum coupling without ghost forces.

Both coupling variants keep the 2K+1 central atoms fully resolved and
describe everything outside the window with the Cauchy-Born density.
Variant 1 clamps the window field to the energy-optimal boundary data of
the *uniform* far field; variant 2 recomputes the optimal data for the
current window configuration at every evaluation.  The two classical
sanity checks:

  * patch test -- a uniformly stretched chain must be an exact critical
    point of the coupled energy (no ghost forces), and
  * consistency -- on a smooth non-uniform chain the coupled gradient must
    track the full atomistic gradient to first order in the spacing.
"""

import numpy as np

from acfield.ac import AcPartition, ac_energy, ac_forces, consistency_error, method1, method2
from acfield.density import quartic_bump
from acfield.energy import energy_periodic
from acfield.lattice import ChainConfig, homogeneous
from acfield.minimize import sine_force

M = 1.0
profile = quartic_bump(0.5)
N, K = 40, 10
part = AcPartition(K)

print("patch test at N = %d, K = %d (window of %d atoms out of %d)"
      % (N, K, 2 * K + 1, 2 * N + 1))
print()
print("  stretch   tau (window leak)   max|ghost force| v1   v2")
for stretch in (1.0, 1.2, 1.5):
    cfg = homogeneous(N, stretch)
    tau = part.tau(cfg, M)
    g1 = np.max(np.abs(ac_forces(cfg, method1(K), profile, M)))
    g2 = np.max(np.abs(ac_forces(cfg, method2(K), profile, M)))
    print("  %7.1f   %.3e           %.3e   %.3e" % (stretch, tau, g1, g2))

cfg = homogeneous(N, 1.1)
e_full = energy_periodic(cfg, profile, M)
print()
print("homogeneous energy identity, F = 1.1:")
for meth, label in ((method1(K), "variant 1"), (method2(K), "variant 2")):
    e_ac = ac_energy(cfg, meth, profile, M)
    print("  |E_%s - E_full| = %.3e  (tau = %.1e)" % (label, abs(e_ac - e_full), part.tau(cfg, M)))

# Consistency on a smooth state: displace atoms by a gentle sine and measure
# the dual-norm gap between the coupled and the full gradient, against the
# first-order right-hand side eps*||y''||_w + tau.
jj = np.arange(-N, N + 1)
u = 0.04 * np.sin(2 * np.pi * jj / (2 * N + 1))
smooth = ChainConfig(N, 1.1, u - u.mean())
print()
print("consistency on a smooth sine state:")
for meth, label in ((method1(K), "variant 1"), (method2(K), "variant 2")):
    res = consistency_error(smooth, meth, profile, M)
    print("  %s: sup error %.3e  <=  %.3f * (eps ||y''||_w + tau)"
          % (label, res["sup_error"], res["fitted_C"]))

# the sine force is what the convergence experiments load the chain with
f = sine_force(N, 0.3)
print()
print("external sine load max amplitude %.2f is mean-zero: sum f_j = %.1e"
      % (0.3, float(np.sum(f.f))))
