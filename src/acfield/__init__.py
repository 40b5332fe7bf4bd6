"""acfield: a 1D screened-Poisson field model of an atom chain, its
Cauchy-Born continuum limit, and two atomistic/continuum coupling schemes.

The package is organised bottom-up:

    lattice      chain geometry, discrete norms
    density      bump profiles and chain densities
    field        closed-form (kernel) fields + the P1 FEM cross-check oracle
    energy       exact closed-form energies, forces, boundary-data calculus
    cauchy_born  per-cell continuum energy and fields
    ac           the two coupling methods, consistency & stability checks
    minimize     damped-Newton equilibration, minimizer comparison
    harness      experiment specs, CSV results, `acfield` CLI
                 (`import acfield` does not load it: import it by name, so
                 `python -m acfield.harness` runs cleanly)
"""

__version__ = "0.1.0"

from . import lattice, density, field, energy, cauchy_born, ac, minimize  # noqa: F401
