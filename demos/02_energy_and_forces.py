"""Total energy and forces of the periodic chain.

E(y) = -min I(phi) is the negative of the field functional at its
minimizer, evaluated here through the exact pair route.  We tabulate the
energy per atom against uniform stretch, verify that homogeneous states
are force-free, and cross-check the analytic forces against finite
differences on a randomly perturbed chain.
"""

import numpy as np

from acfield.density import quartic_bump
from acfield.energy import energy_periodic, forces_periodic
from acfield.lattice import ChainConfig, first_diff, homogeneous

M = 1.0
profile = quartic_bump(0.5)
N = 16

print("energy per atom vs uniform stretch (N = %d)" % N)
print()
print("  stretch    E / atom")
for stretch in (0.8, 1.0, 1.1, 1.3, 1.6, 2.0, 3.0):
    cfg = homogeneous(N, stretch)
    e = energy_periodic(cfg, profile, M)
    print("  %7.2f    %+.8f" % (stretch, e / cfg.n_atoms))

cfg = homogeneous(N, 1.1)
f = forces_periodic(cfg, profile, M)
print()
print("max |force| on the homogeneous chain: %.3e  (translation symmetry)" % np.max(np.abs(f)))

# Perturb every atom and compare the analytic gradient with central
# differences.  The perturbation keeps every strain above sigma0, so the
# bumps stay separated, as the pair route requires.
rng = np.random.default_rng(4)
u = 0.05 * cfg.eps * rng.standard_normal(cfg.n_atoms)
u -= u.mean()
bumped = ChainConfig(cfg.N, cfg.F, cfg.u + u)
print("min strain after perturbation: %.4f" % first_diff(bumped).min())

grad = forces_periodic(bumped, profile, M)
h = 1e-5 * cfg.eps
worst = 0.0
for j in range(0, cfg.n_atoms, 5):
    # displacements are mean-zero, so probe along e_j minus its mean; by
    # translation invariance the directional derivative is still grad[j]
    du = np.full(cfg.n_atoms, -1.0 / cfg.n_atoms)
    du[j] += 1.0
    ep = energy_periodic(ChainConfig(cfg.N, cfg.F, bumped.u + h * du), profile, M)
    em = energy_periodic(ChainConfig(cfg.N, cfg.F, bumped.u - h * du), profile, M)
    worst = max(worst, abs((ep - em) / (2 * h) - grad[j]))
print("worst |FD - analytic| over sampled atoms: %.3e" % worst)
print()
print("Forces respond to the environment only through the screened field,")
print("so they decay exponentially with interatomic distance at rate m.")
