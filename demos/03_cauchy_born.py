"""The local continuum limit: per-cell energy and per-cell fields.

Replacing the environment of each lattice cell by the uniform lattice with
the same strain gives the Cauchy-Born energy density psi(s) -- available
in closed form for this model -- and a local per-cell field.  This script
checks the closed form against a direct quadrature of (1/2) rho phi, then
measures how far the true periodic field drifts from the local one inside
every cell of a gently modulated chain, next to the a-priori locality
bound.
"""

import numpy as np

from acfield.cauchy_born import (
    CellState,
    cb_cell_energy,
    cb_cell_field,
    cell_state,
    comparison_field_bound,
)
from acfield.density import delta_eps, gauss_on_interval, quartic_bump
from acfield.field import eval_green_periodic
from acfield.lattice import ChainConfig, first_diff, homogeneous, positions

M = 1.0
profile = quartic_bump(0.5)

# One atom's share of the uniformly strained chain: (1/2) * integral of its
# bump charge against the per-cell field.  The bump has support of one cell
# (half_width * eps each side), so the quadrature lives on that interval.
print("closed-form cell energy vs quadrature of (1/2) * integral rho*phi")
print()
print("  strain   psi(s) closed      quadrature rel err")
eps = 0.1
for s in (0.75, 1.0, 1.5, 2.0, 3.0):
    cell = CellState(s, 0.0, profile, M, eps)
    quad = 0.0
    for lo, hi in ((-profile.half_width * eps, 0.0), (0.0, profile.half_width * eps)):
        xs, ws = gauss_on_interval(lo, hi, 48)
        quad += float(np.sum(ws * delta_eps(profile, eps, xs) * cb_cell_field(cell, xs)[0]))
    quad *= 0.5 * eps
    closed = cb_cell_energy(s, profile, M, eps)
    print("  %6.2f   %+.12f   %.2e" % (s, closed, abs(quad - closed) / abs(closed)))

# Locality of the field: on a smoothly modulated chain the periodic field
# restricted to cell j and the local cell field differ by at most a
# computable bound involving neighbouring strain jumps.
N = 24
cfg = homogeneous(N, 1.1)
jj = np.arange(-N, N + 1)
u = 0.03 * np.sin(2 * np.pi * jj / (2 * N + 1))
cfg = ChainConfig(N, 1.1, u - u.mean())
y = positions(cfg, -N - 1, N)

print()
print("field locality on a sine-modulated chain (N = %d, strains %.3f..%.3f)"
      % (N, first_diff(cfg).min(), first_diff(cfg).max()))
print()
print("  cell j   |phi - psi_j|_max   bound       ratio")
worst = (0.0, None)
for j in range(-N, N + 1, 8):
    cell = cell_state(cfg, profile, M, j)
    xs = np.linspace(y[j + N], y[j + N + 1], 16)
    gap = float(np.max(np.abs(eval_green_periodic(cfg, profile, M, xs)[0]
                              - cb_cell_field(cell, xs)[0])))
    bound = comparison_field_bound(cfg, profile, M, j)
    print("  %6d   %.6e      %.3e   %.3f" % (j, gap, bound, gap / bound))
    if gap / bound > worst[0]:
        worst = (gap / bound, j)

print()
print("worst sampled ratio %.3f (cell %d): the bound holds with slack, as it"
      % worst)
print("must in every cell -- the full-sweep version runs in `acfield check`.")
