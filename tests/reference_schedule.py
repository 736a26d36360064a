"""The crossing schedule read in two passes, with Fraction times: the ghost
events are built first, grouped by a time key computed again from the
crossing lists, then the brick events, and all of them are sorted by their
Fraction time, bricks first at one time.  This is the reading the one-pass
`greenpaths.crossing_schedule` replaces, kept as its oracle."""

from fractions import Fraction
from math import lcm

from ghostpic.ghosts import EXTENSION, ghost_plan, order_concurrent
from ghostpic.greenpaths import Event
from ghostpic.stability import crossing_plan
from reference_paths import reference_check_generic, reference_crossings, reference_stable_along


def reference_ghost_events(cls, path) -> list[Event]:
    plan = ghost_plan(cls)
    reference_check_generic(path, plan)
    hd, kd = reference_crossings(path, plan)
    scale = lcm(*kd)
    by_time: dict[int, list] = {}
    for g, c in plan.ghosts.values():
        if g.kind != EXTENSION:
            by_time.setdefault(hd[c.event] * (scale // kd[c.event]), []).append(g)
    events = []
    for group in by_time.values():
        ordered = order_concurrent(cls, group) if len(group) > 1 else group
        for g in ordered:
            c = plan.ghosts[g.key()][1]
            events.append(
                Event(
                    t=Fraction(-hd[c.event], kd[c.event]),
                    kind="ghost",
                    label=c.label,
                    stable=reference_stable_along(path, plan, c),
                    concurrent=len(group) > 1,
                )
            )
    return events


def reference_schedule(cls, path, include_ghosts=False) -> tuple[Event, ...]:
    if include_ghosts:
        plan = ghost_plan(cls)
        ghost_evts = reference_ghost_events(cls, path)
    else:
        plan = crossing_plan(cls)
        reference_check_generic(path, plan)
        ghost_evts = []
    hd, kd = reference_crossings(path, plan)
    events = [
        Event(
            t=Fraction(-hd[c.event], kd[c.event]),
            kind="brick",
            label=b,
            stable=reference_stable_along(path, plan, c),
        )
        for b, c in plan.bricks.items()
    ]
    events.extend(ghost_evts)
    events.sort(key=lambda e: (e.t, 0 if e.kind == "brick" else 1))
    return tuple(events)
