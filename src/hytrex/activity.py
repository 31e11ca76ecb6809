"""Membership-probe activity oracle for the inactivities that
:func:`hypertrees.hypertrees_with_inactivity` reads off the engines.  Under
an order on E, a hyperedge is internally inactive when it can send valence
to some smaller hyperedge of an enumerated set, externally inactive when it
can receive valence from one."""

from __future__ import annotations

from .hypertrees import HypertreeSet, transfer

__all__ = ["internal_active_flags", "external_active_flags"]


def internal_active_flags(b: HypertreeSet, f, order) -> tuple[bool, ...]:
    """Flag per hyperedge: False when valence can move to a smaller one."""
    f = tuple(f)
    flags = [True] * len(f)
    for pos, e in enumerate(order):
        if f[e] == 0:
            continue
        for smaller in order[:pos]:
            if transfer(f, e, smaller) in b:
                flags[e] = False
                break
    return tuple(flags)


def external_active_flags(b: HypertreeSet, f, order) -> tuple[bool, ...]:
    """Flag per hyperedge: False when valence can arrive from a smaller one."""
    f = tuple(f)
    flags = [True] * len(f)
    for pos, e in enumerate(order):
        for smaller in order[:pos]:
            if f[smaller] == 0:
                continue
            if transfer(f, smaller, e) in b:
                flags[e] = False
                break
    return tuple(flags)

