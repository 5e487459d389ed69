"""Exact chain-level calculator for u-equipped mod-8 graded complexes.

Everything runs over the rationals with fractions.Fraction; no floats
anywhere.  The package covers validation and duality of the input data,
graded homology and reduction, the four-summand connected-sum complex and
the two-summand disjoint union, span/filtration and h readings, kernel
cycle pairings for sum bounds, block-lattice vector counts, and polynomial
identities backing the telescoping constructions.

Library names live in their modules and are imported from there, e.g.
`from floer_workbench.homology import homology`; the package itself
re-exports nothing.
"""

__version__ = "0.1.0"
