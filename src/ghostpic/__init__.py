"""Exact wall-and-chamber diagrams, green sequences and ghost modules.

All geometry is exact rational: stability vectors are tuples of
``fractions.Fraction`` and every wall/chamber/ghost-domain decision is made
without floating point.  Floating point only appears at the very end of the
SVG rendering pipeline, after all combinatorial decisions are frozen.
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
