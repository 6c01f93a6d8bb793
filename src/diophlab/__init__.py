"""diophlab: exact tools for simultaneous rational approximation in the plane.

The package computes best-approximation sequences and their piecewise-linear
lattice profiles, the two shortest primitive classes of the pair lattice
attached to a primitive vector, self-similar families of descendant vectors
with verified separation, slow-divergence chains driven by a prescribed
profile, and box-counting dimension certificates for the limit sets.
Names are imported from their modules (``from diophlab.latinv import
invariants``); the package namespace holds only ``__version__``.
"""

__version__ = "0.1.0"
