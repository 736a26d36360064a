"""The facet adjacencies as they were before a facet's point was read off its
two cells, kept as their oracle: every pair of cells that differ in one sign
solves the LP of its facet cone, on the separating hyperplane and strictly on
the common side of every other one, and a lone hyperplane takes a kernel
vector."""

from typing import NamedTuple

from ghostpic.errors import InternalConsistencyError
from ghostpic.geometry import Cell, Cone, IntVec, _lowest, _normals, _sample


class ReferenceAdjacency(NamedTuple):
    cell_a: Cell
    cell_b: Cell
    hyperplane_index: int
    facet_sample: IntVec  # numerators over den, as a cell's sample
    den: int


def kernel_vector(normal):
    # Deterministic nonzero rational vector orthogonal to a single normal,
    # e_j - (normal[j]/normal[i]) e_i, as (num, den).
    n = len(normal)
    i = next(j for j, x in enumerate(normal) if x != 0)
    a = abs(normal[i])
    for j in range(n):
        if j != i:
            v = [0] * n
            v[j] = a
            v[i] = -normal[j] if normal[i] > 0 else normal[j]
            return _lowest(v, a)
    return (0,) * n, 1


def reference_cell_facet_neighbors(cells, vectors) -> list[ReferenceAdjacency]:
    normals = _normals(vectors)
    n = len(normals[0])
    by_signs = {c.signs: c for c in cells}
    out = []
    for cell in cells:
        for i in range(len(normals)):
            if cell.signs[i] != 1:
                continue  # visit each unordered pair once, from the + side
            flipped = cell.signs[:i] + (-1,) + cell.signs[i + 1 :]
            other = by_signs.get(flipped)
            if other is None:
                continue
            stricts = tuple(
                tuple(cell.signs[j] * x for x in normals[j]) for j in range(len(normals)) if j != i
            )
            if stricts:
                sample = _sample(Cone(n, equalities=(normals[i],), strict=stricts))
                if sample is None:
                    raise InternalConsistencyError(
                        f"cells {cell.signs} and {other.signs} share no facet on hyperplane {i}"
                    )
            else:  # a lone hyperplane: any point of it will do
                sample = kernel_vector(normals[i])
            out.append(ReferenceAdjacency(cell, other, i, *sample))
    out.sort(key=lambda f: (f.hyperplane_index, f.cell_a.signs))
    return out
