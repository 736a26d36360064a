"""Exception hierarchy shared by all ghostpic modules, the reader of the
GHOSTPIC_GUARD override and the one check of the enumeration guards."""

import os


class GhostpicError(Exception):
    """Base class for all errors raised by this package."""


class CatalogError(GhostpicError):
    """Invalid catalog data (schema violation, dimension mismatch, ...)."""


class NonGenericPathError(GhostpicError):
    """A linear path crosses two non-proportional hyperplanes at one time."""

    def __init__(self, first, second, time):
        self.first = first
        self.second = second
        self.time = time
        super().__init__(
            f"non-generic-path: {first} and {second} both cross at t={time}"
        )


class GuardExceededError(GhostpicError):
    """An enumeration guard was hit; set GHOSTPIC_GUARD to override."""

    def __init__(self, message, count=None):
        self.count = count
        super().__init__(message)


class UsageError(GhostpicError):
    """A malformed command-line or environment value (exit code 2)."""


def guard_limit(default: int) -> int:
    """The enumeration limit: GHOSTPIC_GUARD when set and nonempty, else the
    caller's default.  One value overrides every guard."""
    raw = os.environ.get("GHOSTPIC_GUARD", "").strip()
    if not raw:
        return default
    try:
        limit = int(raw)
    except ValueError:
        limit = 0  # refused below, like every value under 1
    if limit < 1:
        raise UsageError(f"GHOSTPIC_GUARD must be a positive integer, got {raw!r}")
    return limit


def check_guard(count: int, noun: str, guard: str, default: int) -> None:
    """Abort when count exceeds the limit in force for the guard named
    ``guard`` (whose default is ``default``); the message names both."""
    limit = guard_limit(default)
    if count > limit:
        raise GuardExceededError(
            f"{count} {noun} exceed {guard} = {limit} (GHOSTPIC_GUARD)", count=count
        )


class InternalConsistencyError(GhostpicError):
    """Two routes that must agree by theorem disagreed (a bug, not bad input)."""


class RankError(GhostpicError):
    """Operation requires a specific ambient rank (rendering is rank-3 only)."""
