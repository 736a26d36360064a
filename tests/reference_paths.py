"""The path-by-path reading of the crossing kernel, kept as its oracle: a
path's crossing lists, its genericity scan by time key and its stability
by the time criterion with the interior cross-check, one path at a time,
the Fraction point h + t*k of a path (`point_on_path`) and its integer
points (`point_at`).
These were the scalar bodies of `greenpaths` before a single path became a
block of one, and `reference_find_linear_paths` is the grid sweep that
decided one path at a time.  `drawn_paths` reads the paths `verify` draws
for a plan one at a time."""

from fractions import Fraction
from math import lcm
from operator import mul

from ghostpic.errors import CatalogError, NonGenericPathError
from ghostpic.greenpaths import LinearPath, _search_grid, disagreement
from ghostpic.stability import crossing_plan
from ghostpic.verify import _generic_blocks


def point_on_path(path, t):
    """The point h + t*k of the path, as Fractions."""
    t = Fraction(t)
    return tuple(a + t * b for a, b in zip(path.h, path.k))


def point_at(path, num: int, den: int):
    """den*H*h + num*H*k: for den > 0 a positive integer multiple of the
    point h + (num/den)*k."""
    return tuple([den * a + num * b for a, b in zip(path._hi, path._ki)])


def reference_crossings(path, plan):
    """(hd, kd) = (H*h.d, H*k.d) over the dims d of a crossing plan; a path
    whose rank is not the plan's is rejected."""
    dims, hi, ki = plan.dims, path._hi, path._ki
    if dims and len(dims[0]) != len(hi):
        raise CatalogError(f"path of rank {len(hi)} on a class of rank {len(dims[0])}")
    return [sum(map(mul, hi, d)) for d in dims], [sum(map(mul, ki, d)) for d in dims]


def reference_check_generic(path, plan):
    """Each dim's time keyed by hd[i] * (L // kd[i]) with L = lcm(*kd); the
    first dim that shares the key of an earlier dim of another ray raises.
    Returns the keys, in plan order, and L."""
    hd, kd = reference_crossings(path, plan)
    ray = plan.ray
    scale = lcm(*kd)
    keys = [h * (scale // k) for h, k in zip(hd, kd)]
    by_time: dict[int, int] = {}  # time key -> first index
    for i, key in enumerate(keys):
        first = by_time.setdefault(key, i)
        if ray[first] != ray[i]:
            raise NonGenericPathError(plan.names[first], plan.names[i], Fraction(-hd[i], kd[i]))
    return keys, scale


def reference_stable_along(path, plan, crossing):
    """Every side crosses before the event, or after it when ``late``; a
    side crossing together with the event raises NonGenericPathError, and
    the verdict is cross-validated against membership of the integer
    crossing point in the interior cone."""
    hd, kd = reference_crossings(path, plan)
    e = crossing.event
    h_e, k_e = hd[e], kd[e]
    ray = plan.ray
    by_times = True
    for i, late, name in crossing.sides:
        # t_side - t_event = lag / (kd[i]*k_e), and kd[i]*k_e > 0
        lag = h_e * kd[i] - hd[i] * k_e
        if lag == 0 and ray[i] != ray[e]:
            raise NonGenericPathError(crossing.label, name, Fraction(-h_e, k_e))
        if (lag <= 0) if late else (lag >= 0):
            by_times = False
            break
    by_interior = crossing.interior.contains(point_at(path, -h_e, k_e))
    if by_times != by_interior:
        raise disagreement(crossing, by_times)
    return by_times


def reference_linear_mgs(cls, path):
    """The stable bricks, each by `reference_stable_along`, by falling key."""
    plan = crossing_plan(cls)
    keys, _ = reference_check_generic(path, plan)
    stable = [c for c in plan.bricks.values() if reference_stable_along(path, plan, c)]
    return [c.label for c in sorted(stable, key=lambda c: -keys[c.event])]


def reference_find_linear_paths(cls, targets, radius):
    """One scan of the grid, `reference_linear_mgs` per path: the first grid
    path of each target MGS, or None; the scan stops at the last target."""
    found = {tuple(t): None for t in targets}
    missing = len(found)
    if not missing:
        return found
    for h, k in _search_grid(cls.catalog.quiver.n, radius):
        path = LinearPath(h, k)
        try:
            walls = tuple(reference_linear_mgs(cls, path))
        except NonGenericPathError:
            continue
        if walls in found and found[walls] is None:
            found[walls] = path
            missing -= 1
            if not missing:
                break
    return found


def drawn_paths(cls, rng, count, plan):
    """The count paths `verify` draws for the plan, one at a time."""
    for block in _generic_blocks(cls, rng, count, plan):
        for p in range(block.size):
            yield block.path(p)
