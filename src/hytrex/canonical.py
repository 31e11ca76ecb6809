"""Exact canonical forms of multisets of bitmasks, for the census.

A bipartite graph with distinguished classes, or a simple graph, is a
multiset of masks: each member of one class is the set of its neighbours in
the other.  Two such graphs are isomorphic exactly when a permutation of the
bit positions maps one multiset onto the other, so the canonical form is the
smallest sorted image over those permutations.  Only the permutations that
keep points in order of decreasing degree are tried, and each image is read
from lookup tables.  The tables belong to a :class:`CanonicalForms` object,
which each corpus build makes, so nothing is built at import and no table
outlives its corpus.
"""

from __future__ import annotations

from itertools import permutations

from .errors import GraphError

__all__ = ["CanonicalForms", "MAX_WIDTH"]


# The permuted class is at most this wide; wider ones would need up to
# width! tables of 2^width entries.
MAX_WIDTH = 5


class CanonicalForms:
    """Canonical forms (:meth:`form`) and the lookup tables they read, each
    built on first use and kept as long as the object."""

    def __init__(self):
        self._bit_maps = {}
        self._relabellings = {}

    def bit_map(self, targets) -> tuple:
        """Table ``t`` with ``t[m]`` the mask that moves bit ``i`` of ``m`` to
        bit ``targets[i]``, for every ``m`` below ``2^len(targets)``."""
        table = self._bit_maps.get(targets)
        if table is None:
            table = [0] * (1 << len(targets))
            for m in range(1, len(table)):
                low = m & -m
                table[m] = table[m ^ low] | 1 << targets[low.bit_length() - 1]
            table = self._bit_maps[targets] = tuple(table)
        return table

    def relabellings(self, width: int, stride: int, packed_degrees: int) -> tuple:
        """Bit maps of every permutation that sends each point to a position
        of its degree, positions ordered by decreasing degree.  Point ``i``'s
        degree is the ``stride``-bit field ``i`` of ``packed_degrees``."""
        key = (width, stride, packed_degrees)
        tables = self._relabellings.get(key)
        if tables is None:
            field_mask = (1 << stride) - 1
            degrees = [packed_degrees >> i * stride & field_mask for i in range(width)]
            by_position = sorted(degrees, reverse=True)
            tables = self._relabellings[key] = tuple(
                self.bit_map(perm) for perm in permutations(range(width))
                if all(by_position[p] == d for p, d in zip(perm, degrees)))
        return tables

    def form(self, width: int, rows) -> tuple:
        """Exact canonical form of a multiset of ``width``-bit masks under the
        permutations of the bit positions.

        Each mask is a member of one class (a hyperedge, or an edge of a
        simple graph) given as its set of points in the other, permuted
        class.  The form is the smallest sorted image over the permutations
        that list the points by decreasing degree.  Isomorphic inputs have
        the same set of such images, so the form is a complete invariant,
        and a census that keeps the first graph of each form keeps the same
        graphs for any such form.
        """
        if width > MAX_WIDTH:
            raise GraphError(f"canonical form limited to a permuted class of "
                             f"{MAX_WIDTH}, got {width}")
        stride = len(rows).bit_length()
        spread = self.bit_map(range(0, width * stride, stride))
        tables = self.relabellings(width, stride, sum(map(spread.__getitem__, rows)))
        return min(tuple(sorted(map(t.__getitem__, rows))) for t in tables)

    def bip_key(self, n_v: int, n_e: int, e_masks, v_masks=None) -> tuple:
        """Canonical key of a bipartite graph with distinguished classes: the
        smaller class is permuted, the larger one quotiented by sorting.  The
        V-vertices' masks of hyperedges, ``v_masks``, are computed when
        needed and not given."""
        if n_v <= n_e:
            return (n_v, n_e, self.form(n_v, e_masks))
        if v_masks is None:
            # Field v (n_e bits wide) of ``packed`` is V-vertex v's mask.
            spread = self.bit_map(range(0, n_v * n_e, n_e))
            packed = 0
            for e, mask in enumerate(e_masks):
                packed |= spread[mask] << e
            field_mask = (1 << n_e) - 1
            v_masks = [packed >> v * n_e & field_mask for v in range(n_v)]
        return (n_v, n_e, self.form(n_e, v_masks))
