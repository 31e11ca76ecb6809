"""Internal and external activity of hypertrees under a fixed order on E.

The fast path reads activity off the hypertree walk: for each hypertree it
yields the closure ``reach``, whose bit ``a`` in ``reach[b]`` says that
valence can move from ``a`` to ``b``.  One prefix-OR pass over an order then
gives every flag (:func:`inactive_sets`), and :func:`walk_inactivity` folds
any number of orders into a single walk.  The membership-probe flags decide
the same questions by probing an enumerated hypertree set: a hyperedge is
internally inactive when it can send valence to some smaller hyperedge,
externally inactive when it can receive valence from one.  They exist to
cross-check the fast path.
"""

from __future__ import annotations

from .graph import BipGraph, normalize_edge_order
from .hypertrees import HypertreeSet, _walk, transfer

__all__ = [
    "internal_active_flags",
    "external_active_flags",
    "inactive_sets",
    "walk_inactivity",
]


def inactive_sets(reach, order) -> tuple[int, int]:
    """Bitmasks of the internally and externally inactive hyperedges of one
    hypertree under ``order``, from the closure ``reach`` that the walk
    yields with it.

    For ``a != b``, bit ``a`` of ``reach[b]`` is set exactly when one unit
    of valence can move from ``a`` to ``b``, and never when ``f(a) = 0``.  So
    ``e`` is internally inactive when bit ``e`` is set in the union of the
    ``reach`` of the hyperedges before it, and externally inactive when
    ``reach[e]`` meets the set of those hyperedges.
    """
    before = seen = internal = external = 0
    for e in order:
        bit = 1 << e
        if before & bit:
            internal |= bit
        if reach[e] & seen:
            external |= bit
        before |= reach[e]
        seen |= bit
    return internal, external


def walk_inactivity(g: BipGraph, orders):
    """Yield ``(f, sets)`` for every hypertree ``f`` of ``g``, in walk order,
    where ``sets[i]`` is :func:`inactive_sets` under ``orders[i]`` (None is
    the input order).  One walk serves every order."""
    orders = [normalize_edge_order(g, order) for order in orders]
    for f, reach in _walk(g):
        yield f, [inactive_sets(reach, order) for order in orders]


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

