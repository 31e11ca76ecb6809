"""Hypertree enumeration and membership.

A hypertree of a connected bipartite graph is a vector ``f`` of naturals
indexed by the E class such that some spanning tree has degree ``f(e) + 1``
at every hyperedge ``e``.  Membership is decidable two independent ways: a
degree-constrained spanning-tree search, and a submodular-bound check over
every subset of hyperedges.  The enumerator uses neither: it closes the set
under single valence transfers and carries a realizing spanning tree with
each hypertree, whose fundamental cycles decide every transfer out of it
and whose exchange along a shortest path gives each new hypertree its own
tree.  Every carried tree is checked when its hypertree is expanded.  The
tree search and the brute-force enumerators stay as oracles, so the closure
can be cross-checked rather than assumed complete.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .errors import DisconnectedGraphError, GraphError
from .graph import (
    BipGraph,
    bits_of,
    mu_table,
    normalize_edge_order,
    subgraph_components,
    _require_subset_capacity,
)

__all__ = [
    "HypertreeSet",
    "transfer",
    "find_realizing_tree",
    "is_hypertree_by_tree_search",
    "is_hypertree_by_polymatroid",
    "enumerate_hypertrees",
    "hypertrees_by_brute_force",
    "greedy_exterior_hypertree",
]


class HypertreeSet:
    """Deduplicated, lexicographically sorted collection of hypertrees."""

    __slots__ = ("vectors", "_members")

    def __init__(self, vectors):
        vs = sorted({tuple(int(x) for x in v) for v in vectors})
        self.vectors = tuple(vs)
        self._members = frozenset(vs)

    def __contains__(self, f) -> bool:
        return tuple(f) in self._members

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

    def to_json(self) -> list[list[int]]:
        return [list(v) for v in self.vectors]


def transfer(f, e_from: int, e_to: int) -> tuple[int, ...]:
    """Move one unit of valence from ``e_from`` to ``e_to``."""
    out = list(f)
    out[e_from] -= 1
    out[e_to] += 1
    return tuple(out)


def _require_connected(g: BipGraph, what: str) -> None:
    if not g.connected:
        raise DisconnectedGraphError(f"{what} requires a connected graph")


def find_realizing_tree(g: BipGraph, f):
    """Edges (v, e) of a spanning tree realising ``f``, or ``None``.

    Backtracks over hyperedges in decreasing ``f`` order.  Only the set of
    V-components a star touches matters for feasibility, so branching is
    over combinations of components rather than raw vertex subsets; unions
    are rolled back on retreat, so no path compression is applied.
    """
    _require_connected(g, "tree search")
    f = tuple(int(x) for x in f)
    if len(f) != g.n_e:
        raise GraphError(f"hypertree vector has length {len(f)}, expected {g.n_e}")
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

    def feasible(start):
        for j in range(start, len(actives)):
            e = actives[j]
            roots = {find(v) for v in bits_of(g.e_masks[e])}
            if len(roots) < f[e] + 1:
                return False
        return True

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
            if feasible(i + 1) and solve(i + 1):
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
    f = tuple(int(x) for x in f)
    if len(f) != g.n_e:
        raise GraphError(f"hypertree vector has length {len(f)}, expected {g.n_e}")
    _require_subset_capacity(g.n_e)
    if any(x < 0 for x in f):
        return False
    if sum(f) != g.n_v - 1:
        return False
    table = mu_table(g)
    size = 1 << g.n_e
    sums = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + f[low.bit_length() - 1]
        if sums[mask] > table[mask]:
            return False
    return True


def enumerate_hypertrees(g: BipGraph) -> HypertreeSet:
    """All hypertrees of ``g``: breadth-first closure under single valence
    transfers, seeded with the greedy exterior hypertree.  No candidate is
    searched for: each hypertree carries a spanning tree that realizes it,
    checked when the hypertree is expanded, and the tree decides which
    transfers lead to hypertrees.  Nothing is cached: every call walks the
    hypertrees afresh, and the polynomials do not need the set at all."""
    return HypertreeSet(f for f, _ in _walk(g))


def _walk(g: BipGraph):
    """Yield ``(f, reach)`` for every hypertree ``f`` in breadth-first order.

    ``reach`` is the closure of :func:`_closure`.  The walk starts at the
    greedy exterior hypertree, the unique maximum of ``sum(e * f(e))``.
    Every other hypertree has a transfer into a larger index that raises
    that sum, because an integer base of a polymatroid is optimal exactly
    when no single exchange improves it (Murota, Discrete Convex Analysis,
    ch. 6).  So following only transfers from ``a`` to ``b < a`` still
    reaches every hypertree.  Found hypertrees are kept as packed ints;
    pending witnesses are edge bitmasks, dropped once expanded.
    """
    _require_connected(g, "hypertree enumeration")
    w = _Witnesses(g)
    start = greedy_exterior_hypertree(g)
    tree = w.kruskal()
    if w.degrees(tree) != start:
        raise RuntimeError("internal error: greedy hypertree differs from "
                           "the reverse-order Kruskal tree")
    width = (max(g.deg_e(e) for e in range(g.n_e)) - 1).bit_length() or 1
    unit = [1 << width * e for e in range(g.n_e)]
    key = sum(x * u for x, u in zip(start, unit))
    found = {key}
    queue = deque([(start, key, tree)])
    while queue:
        f, key, tree = queue.popleft()
        rooted = w.root(f, tree)
        step = w.step(tree, rooted)
        reach = _closure(step)
        yield f, reach
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
                queue.append((transfer(f, a, b), child,
                              w.exchange(tree, rooted, prev, a)))


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
    hyperedge bit of node ``x`` (0 for a V-vertex).
    """

    __slots__ = ("n_v", "adj", "inc", "ebit")

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

    def degrees(self, tree) -> tuple[int, ...]:
        """The hypertree ``tree`` realizes: its degree at each hyperedge, minus one."""
        return tuple((tree & m).bit_count() - 1 for m in self.inc[self.n_v:])

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

    def root(self, f, tree):
        """Root ``tree`` at V-vertex 0 by breadth-first search.

        Returns ``(order, parent, up_edge, up_e, up_rank)``: the nodes in BFS
        order, each node's parent and the id of the edge to it, and the
        bitmasks of the hyperedges and of the BFS ranks on its path to the
        root, both including the node itself.  Raises ``RuntimeError``
        unless ``tree`` is a spanning tree with degree ``f(e) + 1`` at every
        hyperedge ``e``.
        """
        n = len(self.inc)
        if tree.bit_count() != n - 1 or self.degrees(tree) != f:
            raise RuntimeError(f"internal error: witness does not realize {f}")
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
            raise RuntimeError(f"internal error: witness of {f} does not span")
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
        order, _, _, up_e, up_rank = rooted
        ebit = self.ebit
        step = []
        for h in range(self.n_v, len(self.inc)):
            mask, uh, rh = 0, up_e[h], up_rank[h]
            for v, i in self.adj[h]:
                if not tree >> i & 1:
                    # _cycle(rooted, v, h), inlined: this is the hot loop.
                    mask |= up_e[v] ^ uh | ebit[order[(up_rank[v] & rh).bit_length() - 1]]
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
    chosen membership test accepts.  ``method`` is "tree" or "polymatroid"."""
    _require_connected(g, "hypertree enumeration")
    if method == "tree":
        accept = lambda f: find_realizing_tree(g, f) is not None
    elif method == "polymatroid":
        accept = lambda f: is_hypertree_by_polymatroid(g, f)
    else:
        raise ValueError(f"unknown method {method!r}")
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

    Entry for hyperedge ``e`` is deg(e) - 1 minus the drop in nullity when
    ``e`` joins the restriction to the hyperedges after it in the order;
    every suffix of the order is tight at the result.
    """
    _require_connected(g, "the greedy exterior hypertree")
    order = normalize_edge_order(g, order)
    n = g.n_e
    # suffix_null[k] = nullity of the restriction to order[k:]
    suffix_null = [0] * (n + 1)
    mask = 0
    edge_count = 0
    union = 0
    for k in range(n - 1, -1, -1):
        e = order[k]
        mask |= 1 << e
        edge_count += g.deg_e(e)
        union |= g.e_masks[e]
        comps = subgraph_components(g, mask)
        suffix_null[k] = edge_count - (union.bit_count() + (n - k)) + comps
    out = [0] * n
    for k in range(n):
        e = order[k]
        drop = suffix_null[k] - suffix_null[k + 1]
        out[e] = g.deg_e(e) - 1 - drop
    return tuple(out)
