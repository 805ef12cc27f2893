"""Logical and hybrid clocks for partially synchronous systems.

Two clock families live here, both immutable:

* :class:`VectorClock` tracks causality exactly: one event happened
  before another iff its stamp is componentwise at most the other's
  and the two differ.
* :class:`HLCTimestamp` is a hybrid logical clock, a pair ``(l, c)``
  where ``l`` rides on the physical clock and ``c`` breaks ties among
  events sharing the same ``l``.  It is causally sound (an event that
  happened before another never carries a larger stamp) but not
  complete: distinct concurrent events may compare as ordered.

Physical clocks are plain non-negative ``int`` ticks throughout.
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Vector clocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VectorClock:
    """An immutable vector clock stamp.

    ``entries[i]`` counts the events of process ``i`` known to this
    stamp; ``owner`` is the process that produced it.  All operations
    return new instances.
    """

    entries: tuple[int, ...]
    owner: int

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("vector clock needs at least one entry")
        if not 0 <= self.owner < len(self.entries):
            raise ValueError(f"owner {self.owner} out of range for {len(self.entries)} entries")
        if min(self.entries) < 0:
            raise ValueError("vector clock entries must be non-negative")

    @classmethod
    def zero(cls, n: int, owner: int) -> VectorClock:
        """The all-zero stamp for a system of ``n`` processes."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls((0,) * n, owner)

    def local_event(self) -> VectorClock:
        """Stamp a local event: increment the owner's own entry."""
        e = list(self.entries)
        e[self.owner] += 1
        return VectorClock(tuple(e), self.owner)

    def receive(self, msg: VectorClock) -> VectorClock:
        """Stamp a receive: componentwise max with ``msg``, then tick.

        The receive itself is an event, so the owner entry becomes
        ``max(local[owner], msg[owner]) + 1``.
        """
        if len(msg.entries) != len(self.entries):
            raise ValueError("vector clock dimension mismatch")
        merged = list(map(max, self.entries, msg.entries))
        merged[self.owner] += 1
        return VectorClock(tuple(merged), self.owner)


# ---------------------------------------------------------------------------
# Hybrid logical clocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, order=True)
class HLCTimestamp:
    """A hybrid logical clock value ``(l, c)``.

    ``l`` is the largest physical clock the event is aware of and ``c``
    counts causal steps taken at that same ``l``.  Ordering is
    lexicographic on ``(l, c)``, which the dataclass field order gives
    us directly.
    """

    l: int
    c: int = 0

    def __post_init__(self) -> None:
        if self.l < 0 or self.c < 0:
            raise ValueError("HLC components must be non-negative")

    @classmethod
    def zero(cls) -> HLCTimestamp:
        return cls(0, 0)

    def advance(self, pt: int) -> HLCTimestamp:
        """Stamp a local or send event at physical time ``pt``."""
        l2 = max(self.l, pt)
        return HLCTimestamp(l2, self.c + 1 if l2 == self.l else 0)

    def receive(self, msg: HLCTimestamp, pt: int) -> HLCTimestamp:
        """Stamp a receive of ``msg`` at physical time ``pt``.

        The standard three-way split: if the new ``l`` ties both sides,
        ``c`` exceeds both counters; if it ties one side, that side's
        counter advances; a fresh ``l`` resets ``c`` to zero.
        """
        l2 = max(self.l, msg.l, pt)
        if l2 == self.l == msg.l:
            c2 = max(self.c, msg.c) + 1
        elif l2 == self.l:
            c2 = self.c + 1
        elif l2 == msg.l:
            c2 = msg.c + 1
        else:
            c2 = 0
        return HLCTimestamp(l2, c2)
