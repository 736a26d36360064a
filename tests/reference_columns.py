"""The crossing-point stability kernel that `greenpaths.stable_columns`
replaced, kept as an oracle for the one that dots each cone row once.

Same block and crossing, same time verdicts, but interior membership is
read at the integer crossing point L*H*h - key*H*k of each path, built as
one column per coordinate for each crossing, and each cone row is combined
over those columns.
"""

import itertools
from operator import and_, gt, lt, mul, ne, sub

from ghostpic.geometry import _combination

# x == 0, x >= 0 and x > 0 as C calls on a column
_ZERO, _NONNEGATIVE, _POSITIVE = (0).__eq__, (0).__le__, (0).__lt__


def crossing_point_columns(block, crossing):
    """(time verdicts, disagreeing path indices) of one crossing on a block."""
    scale, key_e = block.scale, block.keys[crossing.event]
    by_times = [True] * block.size
    for i, late, _ in crossing.sides:
        by_times = list(map(and_, by_times, map(lt if late else gt, block.keys[i], key_e)))
    point = [list(map(sub, map(mul, scale, hj), map(mul, key_e, kj))) for hj, kj in zip(block.h, block.k)]
    cone = crossing.interior
    inside = [True] * block.size
    for rows, holds in ((cone.equalities, _ZERO), (cone.weak, _NONNEGATIVE), (cone.strict, _POSITIVE)):
        for r in rows:
            inside = list(map(and_, inside, map(holds, _combination(r, point, block.size))))
    return by_times, list(itertools.compress(itertools.count(), map(ne, by_times, inside)))
