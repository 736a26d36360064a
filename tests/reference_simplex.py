"""The rational simplex that `geometry._simplex_max` replaced, kept as an
oracle for the fraction-free integer one.

Same problem (maximize c.x subject to A x <= b, x >= 0, b >= 0), same
tableau and the same Bland rule, but every entry is a `Fraction` and the
pivot row is divided by the pivot.
"""

from fractions import Fraction

from ghostpic.errors import GhostpicError

ZERO = Fraction(0)
ONE = Fraction(1)


def fraction_simplex_max(c, rows, rhs):
    m = len(rows)
    n = len(c)
    tab = [
        [Fraction(x) for x in rows[i]] + [ONE if j == i else ZERO for j in range(m)] + [Fraction(rhs[i])]
        for i in range(m)
    ]
    obj = [-Fraction(x) for x in c] + [ZERO] * m + [ZERO]
    basis = list(range(n, n + m))
    total = n + m
    while True:
        enter = -1
        for j in range(total):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][total] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and leave >= 0 and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise GhostpicError("unbounded LP (missing box constraints)")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter
    x = [ZERO] * total
    for i, b in enumerate(basis):
        x[b] = tab[i][total]
    return obj[total], x[:n]


def fraction_cone_lp(cone, slack_rows):
    """Maximize one slack below the slack rows inside the cone closure, with
    theta = p - q, a unit box on theta and s <= 1.  Returns (s*, theta*)."""
    n = cone.dim
    nv = 2 * n + 1

    def theta_row(v, scale=1):
        row = [ZERO] * nv
        for j, x in enumerate(v):
            row[j] += Fraction(scale * x)
            row[n + j] -= Fraction(scale * x)
        return row

    rows, rhs = [], []
    for e in cone.equalities:
        rows += [theta_row(e), theta_row(e, -1)]
        rhs += [ZERO, ZERO]
    for w in cone.weak:
        rows.append(theta_row(w, -1))
        rhs.append(ZERO)
    for s_vec in slack_rows:
        row = theta_row(s_vec, -1)
        row[2 * n] = ONE
        rows.append(row)
        rhs.append(ZERO)
    for j in range(n):
        row = [ZERO] * nv
        row[j] = ONE
        row[n + j] = -ONE
        rows += [row, [-x for x in row]]
        rhs += [ONE, ONE]
    row = [ZERO] * nv
    row[2 * n] = ONE
    rows.append(row)
    rhs.append(ONE)
    c = [ZERO] * nv
    c[2 * n] = ONE
    value, x = fraction_simplex_max(c, rows, rhs)
    return value, tuple(x[j] - x[n + j] for j in range(n))


def fraction_feasible_point(cone):
    """`geometry.feasible_point` on the rational simplex: a point of the cone
    (a relative-interior one when it has no strict rows), or None when it is
    empty."""
    if cone.strict:
        value, theta = fraction_cone_lp(cone, cone.strict)
        return theta if value > 0 else None
    improvable = tuple(w for w in cone.weak if fraction_cone_lp(cone, (w,))[0] > 0)
    if not improvable:
        return tuple([ZERO] * cone.dim)
    return fraction_cone_lp(cone, improvable)[1]
