"""Exact invariants of Prym eigenform loci in genus three.

Modules:

- :mod:`prymsv.exactq` — discriminant validation
- :mod:`prymsv.prototypes` — the three prototype families and their invariants
- :mod:`prymsv.euler` — divisor sums, projection degrees, Euler characteristics
- :mod:`prymsv.svconst` — volumes and Siegel-Veech constants
- :mod:`prymsv.modforms` — exact q-expansion identities
- :mod:`prymsv.eigencheck` — real-multiplication linear algebra checks
- :mod:`prymsv.flatcount` — slit-tori surfaces and empirical counting
- :mod:`prymsv.cli` — command-line front end
"""

__version__ = "0.1.0"
