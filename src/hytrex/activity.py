"""Membership-probe activity oracle for the inactivities that
:func:`hypertrees.hypertrees_with_inactivity` reads off the engines.  Under
an order on E (a permutation of the hyperedge indices, smallest first; None
is the input order), a hyperedge is internally inactive when it can send
valence to some smaller hyperedge of an enumerated set, externally inactive
when it can receive valence from one.

A probe is two additions on the packed key of a :class:`HypertreeSet`:
moving one unit of valence from ``e`` to ``s`` turns the key ``k`` of ``f``
into ``k - unit[e] + unit[s]``, and one lookup in the set's keys decides
it.  No field borrows, because a probe is made only when the sending entry
is at least 1.  No field carries, because ``f`` has a key only when its
entries are at most one above the set's largest, and every field holds the
largest plus two.  So the sum is the key of the transferred vector."""

from __future__ import annotations

from .errors import GraphError
from .graph import _edge_order, _integers
# No probe calls ``transfer``; the binding stays because perfbench's tracer
# counts ``activity.probes`` through it and will not install without it.
from .hypertrees import HypertreeSet, transfer  # noqa: F401

__all__ = ["internal_active_flags", "external_active_flags"]


def _probe_key(b: HypertreeSet, f: tuple):
    """The key of ``f`` in ``b``, or None when no member of ``b`` is one
    transfer from ``f``; ``f`` must be a vector of naturals, as long as the
    members of ``b``."""
    key = b._key(f)
    if key is None:
        _integers(f, "a probed vector", 0)
        if b and len(f) != len(b._units):
            raise GraphError(f"a probed vector must hold one entry per hyperedge, got {f!r}")
    return key


def internal_active_flags(b: HypertreeSet, f, order=None) -> tuple[bool, ...]:
    """Flag per hyperedge: False when valence can move to a smaller one."""
    f = tuple(f)
    order = range(len(f)) if order is None else _edge_order(len(f), order)
    flags = [True] * len(f)
    key = _probe_key(b, f)
    if key is None:
        return tuple(flags)
    keys, unit = b._keys, b._units
    smaller = []
    for e in order:
        if f[e] >= 1:
            sent = key - unit[e]
            for u in smaller:
                if sent + u in keys:
                    flags[e] = False
                    break
        smaller.append(unit[e])
    return tuple(flags)


def external_active_flags(b: HypertreeSet, f, order=None) -> tuple[bool, ...]:
    """Flag per hyperedge: False when valence can arrive from a smaller one."""
    f = tuple(f)
    order = range(len(f)) if order is None else _edge_order(len(f), order)
    flags = [True] * len(f)
    key = _probe_key(b, f)
    if key is None:
        return tuple(flags)
    keys, unit = b._keys, b._units
    senders = []
    for e in order:
        received = key + unit[e]
        for u in senders:
            if received - u in keys:
                flags[e] = False
                break
        if f[e] >= 1:
            senders.append(unit[e])
    return tuple(flags)
