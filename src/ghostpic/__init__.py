"""Exact wall-and-chamber diagrams, green sequences and ghost modules.

Every decision is exact and made on integers: a point is an integer tuple (a
rational one as its numerators over their least common denominator, which
only printing reads), and the simplex pivots fraction-free on integer rows.
``fractions.Fraction`` appears only where a value is printed or parsed.  No
float is used anywhere, the SVG renderer included: it projects onto a
fixed-point integer grid (floor square roots, integer numerators over 2^-48)
and prints exact decimals from it.
"""

from ghostpic.catalog import (
    BrickCatalog,
    ModuleClass,
    builtin_kronecker,
    dump_catalog,
    generate_type_a,
    load_catalog,
)
from ghostpic.errors import (
    CatalogError,
    GhostpicError,
    GuardExceededError,
    InternalConsistencyError,
    NonGenericPathError,
    RankError,
    UsageError,
)

__all__ = [
    "BrickCatalog",
    "ModuleClass",
    "builtin_kronecker",
    "generate_type_a",
    "load_catalog",
    "dump_catalog",
    "GhostpicError",
    "CatalogError",
    "NonGenericPathError",
    "GuardExceededError",
    "InternalConsistencyError",
    "RankError",
    "UsageError",
]
