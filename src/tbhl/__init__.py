"""tbhl: exact-arithmetic toolkit for type-B quasisymmetric combinatorics.

The package constructs, with exact arithmetic over the Gaussian integers:

- signed permutations (hyperoctahedral groups) with left weak order,
  alignment, and ascent-compatibility scanning;
- type-B quasisymmetric functions in the fundamental basis, peak/valley
  statistics, and type-B peak functions;
- 0-Hecke operator families on labeled bases, with relation checking and
  composition-series extraction;
- standard domino tableaux and (semi)standard shifted domino tableaux with
  their generating functions;
- 0-Hecke-Clifford modules induced from operator families (the modules
  ``M_I`` from one-dimensional ones), their restriction characteristics,
  intertwiners, and centralizers;
- a CLI (``tbhl``) exposing enumeration, expansion, and verification
  subcommands.

All computations are exact; no floating point is used anywhere.
"""

__version__ = "0.1.0"

__all__ = [
    "exact_algebra",
    "signed_permutations",
    "qsym_typeb",
    "hecke_engine",
    "domino_tableaux",
    "shifted_domino",
    "hecke_clifford",
    "special_families",
    "cli_verify",
]
