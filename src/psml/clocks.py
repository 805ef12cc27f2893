"""Logical and hybrid clocks for partially synchronous systems.

A stamp is a plain tuple and each stamping rule is one function:

* a vector stamp (:data:`VC`) tracks causality exactly: ``vc[i]``
  counts the events of process ``i`` the stamp knows of, and one event
  happened before another iff its stamp is componentwise at most the
  other's and the two differ.
* a hybrid logical clock stamp (:data:`HLC`) is a pair ``(l, c)``
  where ``l`` rides on the physical clock and ``c`` breaks ties among
  events sharing the same ``l``; tuple order is its lexicographic
  order.  It is causally sound (an event that happened before another
  never carries a larger stamp) but not complete: distinct concurrent
  events may compare as ordered.  In this simulator no message arrives
  before its send tick, so ``l`` is the event's own tick (see monitors).

Physical clocks are plain non-negative ``int`` ticks throughout.
"""

from __future__ import annotations

VC = tuple[int, ...]
HLC = tuple[int, int]


def vc_tick(vc: VC, owner: int) -> VC:
    """Stamp a local or send event of ``owner``: increment its entry."""
    e = list(vc)
    e[owner] += 1
    return tuple(e)


def vc_merge(vc: VC, msg: VC, owner: int) -> VC:
    """Stamp a receive of ``msg`` at ``owner``: componentwise max, then
    tick, so the owner entry becomes ``max(vc[owner], msg[owner]) + 1``.
    """
    if len(msg) != len(vc):  # zip would silently truncate
        raise ValueError("vector clock dimension mismatch")
    # one comparison per entry: the builtin max costs a call each
    merged = [b if b > a else a for a, b in zip(vc, msg)]
    merged[owner] += 1
    return tuple(merged)


def hlc_tick(ts: HLC, pt: int) -> HLC:
    """Stamp a local or send event at physical time ``pt``."""
    l, c = ts
    return (l, c + 1) if pt <= l else (pt, 0)


def hlc_merge(ts: HLC, msg: HLC, pt: int) -> HLC:
    """Stamp a receive of ``msg`` at physical time ``pt``.

    The standard three-way split: if the new ``l`` ties both sides,
    ``c`` exceeds both counters; if it ties one side, that side's
    counter advances; a fresh ``l`` resets ``c`` to zero.
    """
    (l, c), (ml, mc) = ts, msg
    l2 = max(l, ml, pt)
    if l2 == l == ml:
        return l2, max(c, mc) + 1
    if l2 == l:
        return l2, c + 1
    if l2 == ml:
        return l2, mc + 1
    return l2, 0
