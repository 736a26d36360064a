"""The chamber chain of a linear path read at Fraction probes: the crossing
times are -dot(h, d)/dot(k, d) as Fractions, the probes lie one before the
first time, halfway between consecutive times and one after the last, and
each probe point is h + t*k.  This is the reading the integer probes of
`verify._chamber_chain` replace, kept as their oracle."""

from ghostpic.stability import locate_chamber
from reference_paths import point_on_path
from reference_vectors import dot


def fraction_chamber_chain(cls, graph, path) -> list[int]:
    times = sorted(-dot(path.h, cls.dim_of(b)) / dot(path.k, cls.dim_of(b)) for b in cls.bricks)
    probes = [times[0] - 1]
    probes += [(times[i] + times[i + 1]) / 2 for i in range(len(times) - 1)]
    probes.append(times[-1] + 1)
    chain: list[int] = []
    for t in probes:
        cid = locate_chamber(graph, point_on_path(path, t))
        if not chain or chain[-1] != cid:
            chain.append(cid)
    return chain
