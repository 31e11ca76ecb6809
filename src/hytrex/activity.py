"""Internal and external activity of hypertrees under a fixed order on E.

The fast path reads activity off an enumeration engine.  For one order on
at most ``hypertrees._SEARCH_CAP`` hyperedges the fibre search yields both
inactivity bitmasks with each hypertree.  Otherwise the hypertree walk
yields the closure ``reach``, whose bit ``a`` in ``reach[b]`` says that
valence can move from ``a`` to ``b``; one prefix-OR pass over an order then
gives every flag (:func:`inactive_sets`), so a single walk serves any
number of orders.  :func:`walk_inactivity` picks the engine.  The
membership-probe flags decide the same questions by probing an enumerated
hypertree set: a hyperedge is internally inactive when it can send valence
to some smaller hyperedge, externally inactive when it can receive valence
from one.  They exist to cross-check the fast path.
"""

from __future__ import annotations

from .graph import BipGraph, normalize_edge_order
from .hypertrees import _SEARCH_CAP, HypertreeSet, _fibres, _walk, transfer

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
    """Yield ``(f, sets)`` for every hypertree ``f`` of ``g``, in the order
    the engine finds them, where ``sets[i]`` is the pair of inactivity
    bitmasks of :func:`inactive_sets` under ``orders[i]`` (None is the input
    order).  One order on at most ``_SEARCH_CAP`` hyperedges is served by
    the fibre search; any other input by one walk for every order."""
    orders = [normalize_edge_order(g, order) for order in orders]
    if len(orders) == 1 and g.n_e <= _SEARCH_CAP:
        for f, internal, external in _fibres(g, orders[0]):
            yield f, [(internal, external)]
        return
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

