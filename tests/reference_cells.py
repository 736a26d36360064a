"""The cell enumeration as it was before a child cell could keep its
parent's sample, kept as its oracle: every child of every level solves its
own LP, and each LP builds all of its rows, the unit box and the objective
included."""

from ghostpic.geometry import Cell, Cone, _lowest, _normals, _simplex_max


def reference_cone_lp(cone, slack_rows):
    """`geometry._cone_lp` with every row built for this LP alone."""
    n = cone.dim
    nv = 2 * n + 1

    def theta_row(v, scale=1, slack=0):
        return [scale * x for x in v] + [-scale * x for x in v] + [slack]

    rows = []
    for e in cone.equalities:
        rows.append(theta_row(e))
        rows.append(theta_row(e, -1))
    for w in cone.weak:
        rows.append(theta_row(w, -1))
    for s_vec in slack_rows:
        rows.append(theta_row(s_vec, -1, 1))
    rhs = [0] * len(rows)
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        rows.append(theta_row(unit))
        rows.append(theta_row(unit, -1))
    rows.append([0] * (nv - 1) + [1])
    rhs += [1] * (2 * n + 1)
    c = [0] * nv
    c[2 * n] = 1
    _, x, den = _simplex_max(c, rows, rhs)
    (value, *theta), den = _lowest((x[2 * n], *(x[j] - x[n + j] for j in range(n))), den)
    return value, tuple(theta), den


def reference_enumerate_cells(vectors):
    """Every sign vector grown one hyperplane at a time, each child's sample
    from its own LP (`reference_cone_lp` under its strict rows)."""
    normals = _normals(vectors)
    n = len(normals[0])
    cells = [Cell((), (0,) * n, 1)]
    for _ in normals:
        grown = []
        for cell in cells:
            for s in (1, -1):
                signs = cell.signs + (s,)
                strict = tuple(tuple(sg * x for x in normals[i]) for i, sg in enumerate(signs))
                value, num, den = reference_cone_lp(Cone(n, strict=strict), strict)
                if value > 0:
                    grown.append(Cell(signs, num, den))
        cells = grown
    return cells
