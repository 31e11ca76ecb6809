"""Membership-probe activity oracle for the inactivities that the
enumeration engines of :mod:`hytrex.hypertrees` read off.  Under an order
on E (a permutation of the hyperedge indices, smallest first; None is the
input order), a hyperedge is internally inactive when it can send valence
to some smaller hyperedge of an enumerated set, externally inactive when it
can receive valence from one.

A probe is one addition and one lookup on the packed keys of a
:class:`HypertreeSet` ``b``: with ``unit = b._layout.units``, moving one
unit of valence from ``e`` to ``s`` turns the key ``k`` of ``f`` into
``k + (unit[s] - unit[e])``, and the deltas ``unit[s] - unit[e]`` are
computed once per order, not once per hypertree.
No field carries, because ``f`` has a key only when its entries are at most
one above the set's largest, and every field holds the largest plus two.  A
field borrows only when the sending entry is 0, and then the sum has the
field ``2^w - 1`` (or is negative), which no member's key has; the internal
rule skips such senders outright.  So a probe hits exactly when the
transferred vector is a member.  :func:`_probe_counts` counts a whole set
in one pass through the same rule as the flags."""

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
        if b and len(f) != len(b._layout.units):
            raise GraphError(f"a probed vector must hold one entry per hyperedge, got {f!r}")
    return key


def internal_active_flags(b: HypertreeSet, f, order=None) -> tuple[bool, ...]:
    """Flag per hyperedge: False when valence can move to a smaller one."""
    return _flags(b, f, order, False)


def external_active_flags(b: HypertreeSet, f, order=None) -> tuple[bool, ...]:
    """Flag per hyperedge: False when valence can arrive from a smaller one."""
    return _flags(b, f, order, True)


def _flags(b: HypertreeSet, f, order, external: bool) -> tuple[bool, ...]:
    """One flag per hyperedge of ``f``, False where it is inactive."""
    f = tuple(f)
    order = range(len(f)) if order is None else _edge_order(len(f), order)
    key = _probe_key(b, f)
    if key is None:
        return (True,) * len(f)
    (inactive,) = _inactive_masks(b, [(key, f)], order, external)
    return tuple(not inactive >> e & 1 for e in range(len(f)))


def _probe_counts(b: HypertreeSet, order, external: bool) -> list[int]:
    """The number of members of ``b`` with each number of internally (or,
    with ``external``, externally) inactive hyperedges under ``order`` (a
    validated order on E, or None for the input order), as a list indexed
    by that number: every member counted in one pass."""
    n = len(b._layout.units)
    counts = [0] * (n + 1)
    rows = zip(sorted(b._keys), b.vectors)
    for inactive in _inactive_masks(b, rows, range(n) if order is None else order, external):
        counts[inactive.bit_count()] += 1
    return counts


def _inactive_masks(b: HypertreeSet, rows, order, external: bool):
    """Yield the bitmask of the inactive hyperedges under ``order`` of each
    ``(key, f)`` of ``rows``: the probe rule, written once.  ``e`` is
    internally inactive when ``key - unit[e] + unit[s]`` is a member key
    for some ``s`` before ``e``, externally when ``key + unit[e] - unit[s]``
    is; each such difference is precomputed once per order."""
    members, unit = b._keys, b._layout.units
    plan, before = [], []
    for e in order:
        plan.append((e, 1 << e, tuple(unit[e] - u if external else u - unit[e]
                                      for u in before)))
        before.append(unit[e])
    for key, f in rows:
        inactive = 0
        for e, bit, deltas in plan:
            if external or f[e]:
                for delta in deltas:
                    if key + delta in members:
                        inactive |= bit
                        break
        yield inactive
