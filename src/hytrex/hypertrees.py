"""Hypertree enumeration and membership.

A hypertree of a connected bipartite graph is a vector ``f`` of naturals
indexed by the E class such that some spanning tree has degree ``f(e) + 1``
at every hyperedge ``e``.  Membership is decidable two independent ways: a
degree-constrained spanning-tree search, and a submodular-bound check over
every subset of hyperedges.  The enumerators use neither.  The hypertrees
are the integer bases of the polymatroid ``mu``, an M-convex set, so the
fibre search fixes one entry at a time from the last hyperedge of an order
to the first: each entry ranges over an interval read off a residual rank
table, and where it sits in that interval says whether its hyperedge is
inactive.  What lies below an entry depends on its table alone, so the
search finds the completions of each table once and reuses them.  The walk
closes the set under single valence transfers, adding to packed keys, and
carries a realizing spanning tree with each key, whose fundamental cycles
decide every transfer out of it and whose exchange along a shortest path
gives each new hypertree its own tree, checked against its key when it is
expanded.  Its closures give the inactivities under any number of orders at
once.  Both engines list into one output, a :data:`_Search`: one int per
hypertree, its key in a :class:`HypertreeSet` with its two inactivity masks
per order above it.  The search can also count without listing: each
memo entry then holds two count vectors in place of a list of
completions.  :func:`_route` alone picks the engine: the search for one
order on at most :data:`_SEARCH_CAP` hyperedges, or on at most
:data:`_TABLE_CAP` when the degree box is large against the search's table
(2^|E| entries); the walk for any other input.  Its three readers never
ask which engine ran: :func:`enumerate_hypertrees` makes the keys a set as
they are, :func:`hypertrees_with_inactivity` unpacks lexicographic rows,
and the counts behind ``poly.polynomial_pairs`` come from the search's
count vectors or off the walk's mask bits.  The tree search and the
brute-force enumerators stay as oracles, so both engines can be
cross-checked rather than assumed complete.  The search's rank table
shares no code with the oracle's ``mu_table``, which the polymatroid box
scan builds once and :func:`is_hypertree_by_polymatroid` once per call.  A
:class:`HypertreeSet` holds each member packed into one int as well, so
its membership test, deduplication and sorting work on ints, and the probe
oracle of :mod:`hytrex.activity` moves valence by adding to them.  A
vector from outside is checked once, where it enters, by ``graph._integers``.
"""

from __future__ import annotations

import struct
from collections import deque, namedtuple
from itertools import chain, combinations

from .errors import GraphError
from .graph import (
    BipGraph,
    bits_of,
    mu_table,
    normalize_edge_order,
    subgraph_components,
    _integer,
    _integers,
    _ReadOnly,
    _require_connected,
)

__all__ = [
    "HypertreeSet",
    "transfer",
    "find_realizing_tree",
    "is_hypertree_by_tree_search",
    "is_hypertree_by_polymatroid",
    "enumerate_hypertrees",
    "hypertrees_with_inactivity",
    "hypertrees_by_brute_force",
    "greedy_exterior_hypertree",
]


# How the vectors of a set whose largest entry is ``top`` pack into ints:
# big-endian ``fields`` of the narrowest of 8, 16, 32 and 64 bits that holds
# ``top + 2``, the key of the vector with a single 1 at each position
# (``units``), and the bit length of a key (``shift``).
_Layout = namedtuple("_Layout", "top fields units shift")


def _layout(top: int, n: int) -> _Layout:
    """The :data:`_Layout` of ``n``-entry vectors whose largest entry is ``top``."""
    bits = (top + 2).bit_length()
    for width, code in (8, "B"), (16, "H"), (32, "I"), (64, "Q"):
        if bits <= width:
            return _Layout(top, struct.Struct(f">{n}{code}"),
                           tuple([1 << width * (n - 1 - e) for e in range(n)]), width * n)
    raise GraphError(f"hypertree entries must fit 64 bits with room for two more, got {top}")


class HypertreeSet(_ReadOnly):
    """Deduplicated, lexicographically sorted collection of hypertrees:
    vectors of naturals, all of one length (|E|).

    Each member is also held as one int, its key: the vector packed
    big-endian, one field per hyperedge, every field of one width, the
    narrowest of 8, 16, 32 and 64 bits that holds the largest entry plus
    two.  Packed big-endian order is lexicographic order, so the keys
    deduplicate and sort the vectors, and the frozenset of keys is the one
    member set.  Adding ``_layout.units[e]`` to a key adds one to entry
    ``e``; the probes of :mod:`hytrex.activity` are such additions."""

    __slots__ = ("vectors", "_keys", "_layout")

    def __init__(self, vectors):
        try:  # one bulk pass over all entries; a failure names its vector
            vs = list(map(tuple, vectors))
            top = max(_integers(chain.from_iterable(vs), "hypertree entries", 0), default=0)
        except TypeError:  # ``vectors`` or a member of it is no collection
            raise GraphError(f"hypertrees must be vectors, got {vectors!r}") from None
        except GraphError:
            for v in vs:
                _integers(v, "a hypertree vector", 0)
            raise
        lengths = set(map(len, vs))
        if len(lengths) > 1:
            raise GraphError(f"hypertree vectors must all have one length, got {sorted(lengths)}")
        layout = _layout(top, lengths.pop() if lengths else 0)
        pack = layout.fields.pack
        self._settle({int.from_bytes(pack(*v), "big") for v in vs}, layout)

    @classmethod
    def _from_keys(cls, keys, layout: _Layout) -> "HypertreeSet":
        """The set of the vectors with keys ``keys``, packed by ``layout``;
        nothing is checked."""
        self = cls.__new__(cls)
        self._settle(keys, layout)
        return self

    def _settle(self, keys, layout):
        """The tail of every construction: sort the keys, unpack the
        vectors with the layout's fields and fill the slots."""
        keys = sorted(keys)
        size, unpack = layout.fields.size, layout.fields.unpack
        set_field = object.__setattr__
        set_field(self, "vectors", tuple([unpack(k.to_bytes(size, "big")) for k in keys]))
        set_field(self, "_keys", frozenset(keys))
        set_field(self, "_layout", layout)

    def _key(self, f):
        """The key of ``f``, or None when ``f`` does not pack (no vector, a
        wrong length, an entry that is negative, too wide or not an integer)
        or has an entry more than one above the largest member entry: no
        member is one transfer from a vector of naturals without a key, and
        every transfer of one with a key fits the fields."""
        try:
            key = int.from_bytes(self._layout.fields.pack(*f), "big")
        except (struct.error, TypeError):  # TypeError: ``f`` is not iterable
            return None
        return key if key in self._keys or max(f, default=0) <= self._layout.top + 1 else None

    def __contains__(self, f) -> bool:
        return self._key(f) in self._keys

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __eq__(self, other):
        if not isinstance(other, HypertreeSet):
            return NotImplemented
        return self.vectors == other.vectors

    def __hash__(self):
        return hash(self.vectors)

    def __repr__(self):
        return f"HypertreeSet({len(self.vectors)} hypertrees)"

    def __reduce__(self):
        return HypertreeSet, (self.vectors,)

    def to_json(self) -> list[list[int]]:
        return [list(v) for v in self.vectors]


def transfer(f, e_from: int, e_to: int) -> tuple[int, ...]:
    """Move one unit of valence from ``e_from`` to ``e_to`` of ``f``, a
    vector of naturals: both are indices of ``f`` (no negative index wraps
    round), and ``f[e_from]`` must be at least 1."""
    out = list(_integers(f, "a hypertree vector", 0))
    if not (all(0 <= _integer(e, "a hyperedge index") < len(out) for e in (e_from, e_to))
            and out[e_from]):
        raise GraphError(f"no valence can move from index {e_from} to {e_to} of {f!r}")
    out[e_from] -= 1
    out[e_to] += 1
    return tuple(out)


def find_realizing_tree(g: BipGraph, f):
    """Edges (v, e) of a spanning tree realising ``f``, or ``None``.

    Backtracks over hyperedges in decreasing ``f`` order.  Only the set of
    V-components a star touches matters for feasibility, so branching is
    over combinations of components rather than raw vertex subsets; unions
    are rolled back on retreat, so no path compression is applied.  A
    hyperedge is refused only at its own turn, when it touches fewer than
    ``f(e) + 1`` components; there is no lookahead over the later ones,
    which pruned earlier but measured slower than this search.
    """
    _require_connected(g, "tree search")
    f = _integers(f, "a hypertree vector", length=g.n_e)
    if any(x < 0 or x > g.deg_e(e) - 1 for e, x in enumerate(f)):
        return None
    if sum(f) != g.n_v - 1:
        return None

    actives = sorted((e for e in range(g.n_e) if f[e] > 0), key=lambda e: (-f[e], e))
    parent = list(range(g.n_v))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    trail = []
    chosen = [None] * len(actives)

    def solve(i):
        if i == len(actives):
            return True
        e = actives[i]
        need = f[e] + 1
        reps = {}
        for v in bits_of(g.e_masks[e]):
            r = find(v)
            if r not in reps:
                reps[r] = v
        if len(reps) < need:
            return False
        for combo in combinations(sorted(reps), need):
            base = combo[0]
            mark = len(trail)
            for r in combo[1:]:
                parent[r] = base
                trail.append(r)
            if solve(i + 1):
                chosen[i] = tuple(reps[r] for r in combo)
                return True
            while len(trail) > mark:
                r = trail.pop()
                parent[r] = r
        return False

    if not solve(0):
        return None

    edges = []
    for i, e in enumerate(actives):
        edges.extend((v, e) for v in chosen[i])
    for e in range(g.n_e):
        if f[e] == 0:
            edges.append((next(bits_of(g.e_masks[e])), e))
    return tuple(sorted(edges))


def is_hypertree_by_tree_search(g: BipGraph, f) -> bool:
    """Realizability via degree-constrained spanning-tree search."""
    return find_realizing_tree(g, f) is not None


def is_hypertree_by_polymatroid(g: BipGraph, f) -> bool:
    """Realizability via the submodular bounds: total valence must be
    |V| - 1 and every subset sum must stay at or below ``mu``."""
    _require_connected(g, "the polymatroid membership test")
    f = _integers(f, "a hypertree vector", length=g.n_e)
    if any(x < 0 for x in f) or sum(f) != g.n_v - 1:
        return False
    return _within_ranks(mu_table(g), f)


def _within_ranks(table, f) -> bool:
    """Whether every subset mask's sum of ``f`` is at most its ``table`` entry."""
    sums = [0] * len(table)
    for mask in range(1, len(table)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + f[low.bit_length() - 1]
        if sums[mask] > table[mask]:
            return False
    return True


def enumerate_hypertrees(g: BipGraph) -> HypertreeSet:
    """All hypertrees of ``g``, from the engine :func:`_route` picks for the
    input order; the engine's keys become the set as they are.  No
    membership test runs, and nothing is cached: every call enumerates the
    hypertrees afresh, and the polynomials do not need the set at all."""
    return _searched_set(g, _route(g, [None])[1])


def hypertrees_with_inactivity(g: BipGraph, orders):
    """An iterator of ``(f, sets)`` for every hypertree ``f`` of ``g`` in
    lexicographic order, where ``sets[i]`` is the pair of bitmasks of the
    internally and externally inactive hyperedges of ``f`` under
    ``orders[i]`` (None is the input order).  The hypertrees are found, and
    a bad input raises, at the call."""
    orders, found = _route(g, orders)
    vectors = _searched_set(g, found).vectors
    n, shift = g.n_e, found.layout.shift
    low = (1 << n) - 1
    spans = range(0, 2 * n * len(orders), 2 * n)
    masks = map(shift.__rrshift__, sorted(found.keys, key=((1 << shift) - 1).__and__))
    return ((f, [(m >> at & low, m >> at + n & low) for at in spans])
            for f, m in zip(vectors, masks))


def _inactivity_counts(g: BipGraph, orders) -> list[tuple[list[int], list[int]]]:
    """Per order of ``orders`` (None is the input order), the number of
    hypertrees of ``g`` with each number of internally and of externally
    inactive hyperedges, as two lists indexed by that number: the engine
    counts them without listing, or they are read off the walk's mask bits.
    Each hypertree is in both lists once, so their sums must agree."""
    orders, counts = _route(g, orders, counted=True)
    for interior, exterior in counts:
        if sum(interior) != sum(exterior):
            raise RuntimeError(f"internal error: {sum(interior)} hypertrees counted by "
                               f"internal and {sum(exterior)} by external inactivity")
    return counts


def _route(g: BipGraph, orders, counted: bool = False):
    """``(orders, found)``, each order normalised and ``found`` the
    :data:`_Search` of the one engine that serves them, or with ``counted``
    their counts as :func:`_inactivity_counts` returns them: the one place an
    engine is chosen.  One order goes to the fibre search on at most
    :data:`_SEARCH_CAP` hyperedges, and on at most :data:`_TABLE_CAP` when
    the degree box holds at least 2^|E| vectors; any other input goes to the
    walk, whose closures give every order at once and whose keys are counted
    here.  ``orders`` is a non-empty collection of orders, not None, a
    string or a single value."""
    if isinstance(orders, str) or not hasattr(orders, "__iter__"):
        raise GraphError(f"orders must be a collection of orders on E, got {orders!r}")
    orders = [normalize_edge_order(g, order) for order in orders]
    if not orders:
        raise GraphError("orders must hold at least one order on E, got none")
    n = g.n_e
    if len(orders) == 1 and (n <= _SEARCH_CAP
                             or n <= _TABLE_CAP and _box_count(g) >= 1 << n):
        return orders, _fibres(g, orders[0], counted)
    found = _walk(g, orders)
    return orders, _mask_counts(g, found, len(orders)) if counted else found


# Largest |E| the fibre search always serves; the walk takes larger graphs
# unless the rule below sends them to the search.  The search's rank table
# has 2^|E| entries.  On a 2-core CPython 3.11 host, with the memoised
# search, the 112 polys items of seed 1 took 4.11 s with the walk alone and
# 1.18, 0.78, 0.58, 0.62, 0.66 and 0.79 s with the search up to |E| = 10,
# 11, 12, 13, 14 and 16 (seed 2: 4.20 s, then 1.10, 0.75, 0.58, 0.62, 0.65
# and 0.74 s; best of two passes each); cycle(16) takes 39-40 ms by the
# search and 0.7 ms by the walk.
_SEARCH_CAP = 12

# Largest |E| the fibre search serves at all.  Above _SEARCH_CAP it takes
# one order only when the degree box (_box_count), which holds every
# hypertree, has at least 2^|E| vectors: the walk spends about 68 us per
# hypertree and the search under 1 us per table entry, so the walk keeps
# the graphs with few hypertrees against their table.  On a 2-core CPython
# 3.11 host, box / 2^|E| is at most 0.056 over the 39 polys pool graphs
# with |E| > 12 and 0.0002 on cycle(16), so polys keeps its engines, and
# 5.9 to 242 on ladder(10) to ladder(20).  Counting ladder(n), |E| = n + 1,
# took 0.09, 0.17, 0.34, 0.70-1.06 and 1.57 s at |E| = 17 to 21, with peak
# RSS 24, 34, 45, 70 and 126 MB (one process each); the walk lists
# ladder(18) in 17.8 s at 115 MB.  The box can overstate without bound:
# the fan of m hyperedges, each on two shared vertices and one of its own,
# has m hypertrees, and at m = 20 the search takes 0.76 s where the walk
# takes 1 ms.  This cap bounds that cost.
_TABLE_CAP = 20


def _box_count(g: BipGraph) -> int:
    """The number of vectors ``f`` with ``0 <= f(e) < deg(e)`` that sum to
    |V| - 1: the degree box that holds every hypertree, counted by a DP over
    the hyperedges with a sliding window of width ``deg(e)``."""
    target = g.n_v - 1
    ways = [1] + [0] * target
    for e in range(g.n_e):
        d, run, grown = g.deg_e(e), 0, []
        for s in range(target + 1):
            run += ways[s] - (ways[s - d] if s >= d else 0)
            grown.append(run)
        ways = grown
    return ways[target]


# What an engine finds: ``keys`` holds one int per hypertree, whose bits
# below ``layout.shift`` are its key in a HypertreeSet with that _Layout,
# and whose bits from there up hold 2|E| per order of the call, in order:
# the internal inactivity mask, then the external one.
_Search = namedtuple("_Search", "keys layout")


def _fibres(g: BipGraph, order, counted: bool = False):
    """The :data:`_Search` of ``g`` under ``order`` (a validated order on
    E): one int per hypertree ``f``, holding the key :class:`HypertreeSet`
    gives ``f`` plus the bitmasks of its internally and of its externally
    inactive hyperedges under ``order``, shifted up past the key.  With
    ``counted``, no hypertree is listed: the result is ``[(interior,
    exterior)]``, the number of hypertrees with each number of internally
    and of externally inactive hyperedges.

    Entries are fixed from ``order[-1]`` down to ``order[0]``.  With the
    entries after position ``k`` fixed, the free positions ``0..k`` carry a
    residual rank table ``F`` (the root table is ``mu`` in order positions),
    and entry ``k`` ranges over ``F[full] - F[full ^ 1 << k]`` to
    ``F[1 << k]``.  Fixing it to ``t`` leaves ``min(F[T], F[T | 1 << k] - t)``
    on positions ``0..k-1``: the bases of the contraction of ``F`` by
    position ``k`` capped at ``t``.  By the exchange axiom of M-convex sets,
    valence can move from ``order[k]`` to an earlier hyperedge exactly when
    ``t`` is above the bottom of its interval, and can arrive from one
    exactly when ``t`` is below the top.  What lies below a position depends
    on its table alone (Murota, Discrete Convex Analysis, ch. 6), so the
    completions of each table from position 2 up are found once and reused.
    A table's entry is either the list of its completions, to each of which
    a parent adds its own entry and mask bits (each position sets only its
    own field and its own bits, so the additions never carry), or two count
    vectors, of its completions by their number of internally and of
    externally inactive positions, which a parent shifts up by its own 0 or
    1 of each.  A count vector is one int whose field ``j``, ``width`` bits
    wide, counts the completions with ``j`` inactive positions; no count
    exceeds the product of the degrees, the size of the box that holds the
    completions, so the fields never carry either.  Position 0 is a fibre
    like the others, whose interval is one value, its one completion with
    no inactive position.  An empty interval, or more than one value at
    position 0, is an internal error, as neither can happen on a rank
    table.  The leaves' sums are checked on a listed output
    (:func:`_searched_set`), and the totals of the two count vectors on a
    counted one (:func:`_inactivity_counts`).
    """
    _require_connected(g, "hypertree enumeration")
    n = g.n_e
    table = _rank_table([g.e_masks[e] for e in order])
    if counted:  # no keys to pack: every step adds 0
        unit, inner, outer = (0,) * n, 0, 0
        width = sum([m.bit_count().bit_length() for m in g.e_masks])
    else:
        layout = _layout(max([table[1 << k] for k in range(n)]), n)
        unit, inner, outer = layout.units, 1 << layout.shift, 1 << layout.shift + n
    memo = {}

    def fibre(table):
        half = len(table) >> 1
        lo, hi = table[-1] - table[half - 1], table[half]
        k = half.bit_length() - 1
        if lo > hi or not k and lo < hi:
            raise RuntimeError(f"internal error: the entries after position {k} of "
                               f"order {order} leave [{lo}, {hi}] for position {k}")
        e = order[k]
        if not k:
            return [1, 1] if counted else [lo * unit[e]]
        one, inside_bit, outside_bit = unit[e], inner << e, outer << e
        upper = table[half:]
        out = [0, 0] if counted else []
        for t in range(lo, hi + 1):
            inside, outside = t > lo, t < hi
            child = tuple([a if a < b - t else b - t for a, b in zip(table, upper)])
            below = memo.get(child)
            if below is None:
                below = fibre(child)
                if k > 2:  # a memo below position 2 measured no faster
                    memo[child] = below
            if counted:
                out[0] += below[0] << inside * width
                out[1] += below[1] << outside * width
            else:
                step = t * one + inside * inside_bit + outside * outside_bit
                out.extend(map(step.__add__, below))
        return out

    try:
        found = fibre(table)
    finally:
        del fibre  # the closure refers to itself; leave no cycle behind
    if not counted:
        return _Search(found, layout)
    field = (1 << width) - 1
    return [tuple([vector >> j * width & field for j in range(n + 1)] for vector in found)]


def _mask_counts(g: BipGraph, found, n_orders: int) -> list[tuple[list[int], list[int]]]:
    """The counts of :func:`_inactivity_counts` for each of ``n_orders``
    orders, read off the mask bits of the keys of ``found``, after the
    checks of :func:`_searched_set`."""
    _searched_set(g, found)
    n, shift = g.n_e, found.layout.shift
    low = (1 << n) - 1
    counts = []
    for at in range(shift, shift + 2 * n * n_orders, 2 * n):
        interior, exterior = [0] * (n + 1), [0] * (n + 1)
        for masks in map(at.__rrshift__, found.keys):
            interior[(masks & low).bit_count()] += 1
            exterior[(masks >> n & low).bit_count()] += 1
        counts.append((interior, exterior))
    return counts


def _searched_set(g: BipGraph, found) -> HypertreeSet:
    """The :class:`HypertreeSet` of an engine's ``found``, after the checks
    that stand in for the search's leaves and back the walk's: no key
    repeats, and every vector sums to |V| - 1, which a field carried into
    its neighbour breaks too."""
    keys, layout = found
    b = HypertreeSet._from_keys(map(((1 << layout.shift) - 1).__and__, keys), layout)
    if len(b._keys) != len(keys) or set(map(sum, b.vectors)) != {g.n_v - 1}:
        raise RuntimeError(f"internal error: the enumeration found {len(keys)} "
                           f"vectors, {len(b._keys)} distinct, with sums "
                           f"{sorted(set(map(sum, b.vectors)))}, not all |V| - 1 = {g.n_v - 1}")
    return b


def _rank_table(masks) -> list[int]:
    """The rank ``mu`` of every subset of the hyperedges with V neighbourhoods
    ``masks`` (bit ``i`` stands for ``masks[i]``), by a DP over subsets: a
    subset's components are kept as the disjoint V-blocks they cover, the low
    hyperedge's mask absorbs the blocks of the rest that it meets, and each
    block adds its size less one."""
    size = 1 << len(masks)
    blocks = [()] * size
    table = [0] * size
    for subset in range(1, size):
        low = subset & -subset
        rest = subset ^ low
        joined, rank, kept = masks[low.bit_length() - 1], table[rest], []
        for block in blocks[rest]:
            if block & joined:
                joined |= block
                rank -= block.bit_count() - 1
            else:
                kept.append(block)
        if not subset & 1:  # a subset holding hyperedge 0 is no other's rest
            blocks[subset] = (*kept, joined)
        table[subset] = rank + joined.bit_count() - 1
    return table


def _walk(g: BipGraph, orders):
    """The :data:`_Search` of ``g`` under every order of ``orders`` (each a
    validated order on E), its keys in breadth-first order.

    The inactivities of each hypertree come from its closure (see
    :func:`_closure` and :func:`_inactive_sets`).  The walk starts at the
    greedy exterior hypertree, the unique maximum of ``sum(e * f(e))``.
    Every other hypertree has a transfer into a larger index that raises
    that sum, because an integer base of a polymatroid is optimal exactly
    when no single exchange improves it (Murota, Discrete Convex Analysis,
    ch. 6).  So following only transfers from ``a`` to ``b < a`` still
    reaches every hypertree.  A hypertree travels as its key alone, packed
    as :attr:`_Witnesses.layout` says, and a transfer is an addition to it;
    pending witnesses are edge bitmasks, dropped once expanded.  The first
    is the reverse-order Kruskal tree, which realizes the greedy hypertree.
    """
    _require_connected(g, "hypertree enumeration")
    w = _Witnesses(g)
    n, layout = g.n_e, w.layout
    unit, shift = layout.units, layout.shift
    key = sum([x * u for x, u in zip(greedy_exterior_hypertree(g), unit)])
    found, keys = {key}, []
    queue = deque([(key, w.kruskal())])
    while queue:
        key, tree = queue.popleft()
        rooted = w.root(key, tree)
        step = w.step(tree, rooted)
        reach = _closure(step)
        masks = 0
        for order in reversed(orders):
            internal, external = _inactive_sets(reach, order)
            masks = (masks << n | external) << n | internal
        keys.append(masks << shift | key)
        for b, sources in enumerate(reach):
            sources &= -(2 << b)  # only a > b
            if not sources:
                continue
            prev = None
            for a in bits_of(sources):
                child = key - unit[a] + unit[b]
                if child in found:
                    continue
                found.add(child)
                if prev is None:
                    prev = _shortest_paths(step, b)
                queue.append((child, w.exchange(tree, rooted, prev, a)))
    return _Search(keys, layout)


def _closure(step):
    """Transitive closure of the single-swap relation (Warshall on bitmasks).

    ``reach[b]`` is the smallest set through ``b`` that is tight at ``f``.
    The hypertrees are the integer bases of the polymatroid ``mu``, so for
    ``a != b``, ``f - 1_a + 1_b`` is a hypertree exactly when bit ``a`` of
    ``reach[b]`` is set (Schrijver, Combinatorial Optimization, ch. 41).
    The bounds come free: a hyperedge with ``f(a) = 0`` is a leaf of the
    tree and so inside no cycle, and one with ``f(b) = deg(b) - 1`` has no
    non-tree edge.
    """
    reach = [m | 1 << b for b, m in enumerate(step)]
    for k in range(len(reach)):
        bit, rk = 1 << k, reach[k]
        reach = [r | rk if r & bit else r for r in reach]
    return reach


def _inactive_sets(reach, order) -> tuple[int, int]:
    """Bitmasks of the internally and externally inactive hyperedges of one
    hypertree under ``order``, from its closure ``reach``.

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


def _shortest_paths(step, b):
    """Breadth-first predecessors from ``b`` along the single-swap relation."""
    prev = {b: None}
    frontier = [b]
    while frontier:
        nxt = []
        for x in frontier:
            for y in bits_of(step[x]):
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
    return prev


class _Witnesses:
    """Spanning trees of one graph as bitmasks over its edge ids.

    Edge ``i`` is the ``i``-th pair of ``sorted(g.adj)``, which is the order
    ``g.v_masks`` lists them in.  Nodes are the V-vertices ``0..n_v-1``
    followed by the hyperedges; ``adj[x]`` lists ``(y, i)`` for the edges at
    node ``x``, ``inc[x]`` is their bitmask, and ``ebit[x]`` is the
    hyperedge bit of node ``x`` (0 for a V-vertex).  ``layout`` packs keys
    as the fibre search does, for the largest possible entry, max deg - 1.
    """

    __slots__ = ("n_v", "adj", "inc", "ebit", "layout")

    def __init__(self, g: BipGraph):
        n_v = self.n_v = g.n_v
        n = n_v + g.n_e
        self.adj = [[] for _ in range(n)]
        self.inc = [0] * n
        pairs = ((v, e) for v, m in enumerate(g.v_masks) for e in bits_of(m))
        for i, (v, e) in enumerate(pairs):
            h = n_v + e
            self.adj[v].append((h, i))
            self.adj[h].append((v, i))
            self.inc[v] |= 1 << i
            self.inc[h] |= 1 << i
        self.ebit = [0] * n_v + [1 << e for e in range(g.n_e)]
        self.layout = _layout(max(map(int.bit_count, g.e_masks)) - 1, g.n_e)

    def key(self, tree) -> int:
        """The key of the vector of ``tree``'s degrees minus one; no two such
        vectors share a key, though an entry of -1 borrows."""
        return sum([((tree & m).bit_count() - 1) * u
                    for m, u in zip(self.inc[self.n_v:], self.layout.units)])

    def kruskal(self) -> int:
        """Kruskal over the stars of the hyperedges taken last to first: the
        tree restricted to every suffix of the order spans that suffix's
        restriction, so it realizes the greedy exterior hypertree."""
        parent = list(range(len(self.inc)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tree = 0
        for h in range(len(self.inc) - 1, self.n_v - 1, -1):
            for v, i in self.adj[h]:
                rv, rh = find(v), find(h)
                if rv != rh:
                    parent[rv] = rh
                    tree |= 1 << i
        return tree

    def root(self, key, tree):
        """Root ``tree`` at V-vertex 0 by breadth-first search.

        Returns ``(order, parent, up_edge, up_e, up_rank)``: the nodes in BFS
        order, each node's parent and the id of the edge to it, and the
        bitmasks of the hyperedges and of the BFS ranks on its path to the
        root, both including the node itself.  Raises ``RuntimeError``
        unless ``tree`` is a spanning tree with degree ``f(e) + 1`` at every
        hyperedge ``e``, where ``f`` is the hypertree with key ``key``.
        """
        n = len(self.inc)
        if tree.bit_count() != n - 1 or self.key(tree) != key:
            raise RuntimeError(f"internal error: witness does not realize key {key:#x}")
        adj, ebit = self.adj, self.ebit
        parent = [-1] * n
        up_edge = [-1] * n
        up_e = [0] * n
        up_rank = [0] * n
        up_rank[0] = 1
        order = [0]
        for x in order:
            ux, rx = up_e[x], up_rank[x]
            for y, i in adj[x]:
                if tree >> i & 1 and not up_rank[y]:
                    parent[y] = x
                    up_edge[y] = i
                    up_e[y] = ux | ebit[y]
                    up_rank[y] = rx | 1 << len(order)
                    order.append(y)
        if len(order) != n:
            raise RuntimeError(f"internal error: witness of key {key:#x} does not span")
        return order, parent, up_edge, up_e, up_rank

    def _cycle(self, rooted, v, h):
        """Hyperedge bitmask and top node of the tree path from ``v`` to ``h``."""
        order, _, _, up_e, up_rank = rooted
        lca = order[(up_rank[v] & up_rank[h]).bit_length() - 1]
        return up_e[v] ^ up_e[h] | self.ebit[lca], lca

    def step(self, tree, rooted):
        """``step[h]``: the hyperedges on the fundamental cycles of the
        non-tree edges at ``h``.  Swapping such an edge in and a tree edge
        at ``a`` out moves one unit from ``a`` to ``h``."""
        step = []
        for h in range(self.n_v, len(self.inc)):
            mask = 0
            for v, i in self.adj[h]:
                if not tree >> i & 1:
                    mask |= self._cycle(rooted, v, h)[0]
            step.append(mask)
        return step

    def exchange(self, tree, rooted, prev, a) -> int:
        """``tree`` after moving one unit from ``a`` to the root of ``prev``.

        Each step ``x -> y`` of the shortest path swaps in a non-tree edge
        at ``x`` whose cycle passes ``y`` and swaps out that cycle's tree
        edge at ``y``.  On a shortest path no cycle passes an edge removed
        further on, so the swaps are the unique matching of the exchange
        graph and their result is again a spanning tree; a longer path can
        close a cycle.
        """
        _, parent, up_edge, _, _ = rooted
        out = tree
        y = a
        while prev[y] is not None:
            x = prev[y]
            h = self.n_v + x
            for v, i in self.adj[h]:
                if not tree >> i & 1:
                    mask, lca = self._cycle(rooted, v, h)
                    if mask >> y & 1:
                        break
            node = self.n_v + y
            if node == lca:
                # The cycle enters its top node from the v side.
                node = v
                while parent[node] != lca:
                    node = parent[node]
            out ^= 1 << i | 1 << up_edge[node]
            y = x
        return out


def hypertrees_by_brute_force(g: BipGraph, method: str = "tree") -> HypertreeSet:
    """Independent oracle: scan the whole degree box and keep the vectors the
    chosen membership test accepts.  ``method`` is "tree" or "polymatroid",
    which tests every vector against one ``mu_table``."""
    _require_connected(g, "hypertree enumeration")
    if method == "tree":
        accept = lambda f: find_realizing_tree(g, f) is not None
    elif method == "polymatroid":
        table = mu_table(g)
        accept = lambda f: _within_ranks(table, f)
    else:
        raise GraphError(f"unknown method {method!r}")
    caps = [g.deg_e(e) - 1 for e in range(g.n_e)]
    suffix = [0] * (g.n_e + 1)
    for e in range(g.n_e - 1, -1, -1):
        suffix[e] = suffix[e + 1] + caps[e]
    target = g.n_v - 1
    out = []
    vec = [0] * g.n_e

    def rec(e, remaining):
        if e == g.n_e:
            if remaining == 0:
                f = tuple(vec)
                if accept(f):
                    out.append(f)
            return
        if remaining > suffix[e]:
            return
        for x in range(min(caps[e], remaining) + 1):
            vec[e] = x
            rec(e + 1, remaining - x)
        vec[e] = 0

    rec(0, target)
    return HypertreeSet(out)


def greedy_exterior_hypertree(g: BipGraph, order=None) -> tuple[int, ...]:
    """The unique hypertree with zero external inactivity under ``order``.

    Entry for hyperedge ``e`` is the rise in ``mu`` when ``e`` joins the
    hyperedges after it in the order: the greedy base of the polymatroid,
    at which every suffix of the order is tight.
    """
    _require_connected(g, "the greedy exterior hypertree")
    out = [0] * g.n_e
    mask = union = below = 0
    for e in reversed(normalize_edge_order(g, order)):
        mask |= 1 << e
        union |= g.e_masks[e]
        rank = union.bit_count() - subgraph_components(g, mask)
        out[e] = rank - below
        below = rank
    return tuple(out)
