"""Exact wall-and-chamber diagrams, green sequences and ghost modules.

Every decision is exact: stability vectors are integer or
``fractions.Fraction`` tuples, cone membership and crossing times are decided
on integers, and the simplex pivots fraction-free on integer rows.  No float
is used anywhere, the SVG renderer included: it projects onto a fixed-point
integer grid (floor square roots, integer numerators over 2^-48) and prints
exact decimals from it.
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
