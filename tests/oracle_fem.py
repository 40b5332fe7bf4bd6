"""The P1 FEM cross-check's forces and accuracy budget, which the tests import
(`from oracle_fem import ...`) and no module of the package does.

`fem_forces` is the exact gradient of the discrete energy of a solved
`acfield.field.Field` in the bump positions, over the same (bump, element)
pieces and blocks as the package's load assembly (`field._bump_pieces`,
`field._piece_blocks`).  `fem_relative_budget` is the measured relative
accuracy of a FEM solve at a mesh density.
"""

import numpy as np

from acfield.field import _bump_pieces, _piece_blocks
from oracle_stress import grad_delta_eps

#: Measured constant in the FEM error model err_rel <= C * (m h / eps)^2.
#: Observed C is ~0.27 for the periodic problem and ~0.31 for the slab
#: (default geometry, max-norm, relative to max|phi|); 1.2 gives ~4x headroom.
FEM_BUDGET_CONST = 1.2


def fem_relative_budget(profile, m, mesh_density):
    """Conservative relative-accuracy budget of a FEM solve at this density."""
    return FEM_BUDGET_CONST * (m * profile.sigma0 / mesh_density) ** 2


def fem_forces(field, profile, eps, centers):
    """Exact gradient of a solved FEM energy in the bump positions.

    D_{y_j} E = -eps integral grad_delta_eps(x - y_j) phi_h(x) dx over the
    atom's whole (wrapped) bump.  The mesh does not move with y, so this is
    the gradient of the discrete energy itself: 0.5 * field.interaction for
    a periodic field, -field.i_value for a slab.  The integrand is a
    polynomial times the piecewise-linear phi_h, so the piece rule is exact.
    The bumps go in blocks (`_piece_blocks`); an atom's pieces all lie in
    its block, so its sum is that of one `bincount` over every piece.
    """
    centers = np.asarray(centers, dtype=float)
    forces = np.zeros(centers.size)
    for block in _piece_blocks(profile, eps, centers.size, field.h):
        c = centers[block]
        atom, nodes, dz, wq, hats = _bump_pieces(
            profile, eps, c, field.x0, field.h, field.n_nodes, field.L)
        phi = np.sum(field.values[nodes][:, None, :] * hats, axis=-1)
        piece = np.sum(wq * grad_delta_eps(profile, eps, dz) * phi, axis=1)
        forces[block] = np.bincount(atom, piece, minlength=c.size)
    return -eps * forces
