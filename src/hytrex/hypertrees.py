"""Hypertree enumeration and membership.

A hypertree of a connected bipartite graph is a vector ``f`` of naturals
indexed by the E class such that some spanning tree has degree ``f(e) + 1``
at every hyperedge ``e``.  Membership is decidable two independent ways: a
degree-constrained spanning-tree search, and a submodular-bound check over
every subset of hyperedges.  The enumerator closes the set under single
valence transfers and re-verifies each candidate with the tree search; the
brute-force enumerators exist so that closure can be cross-checked rather
than assumed complete.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations

from .errors import DisconnectedGraphError, GraphError
from .graph import (
    BipGraph,
    bits_of,
    components,
    mu,
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
    "can_transfer",
    "is_tight",
    "tight_forest_check",
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
            roots = {find(v) for v in g.e_nbrs[e]}
            if len(roots) < f[e] + 1:
                return False
        return True

    def solve(i):
        if i == len(actives):
            return True
        e = actives[i]
        need = f[e] + 1
        reps = {}
        for v in g.e_nbrs[e]:
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
            edges.append((g.e_nbrs[e][0], e))
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
    transfers, seeded with the greedy exterior hypertree.  Every emitted
    vector has been confirmed by the spanning-tree search."""
    return _enumerate_cached(g)


@lru_cache(maxsize=16384)
def _enumerate_cached(g: BipGraph) -> HypertreeSet:
    _require_connected(g, "hypertree enumeration")
    start = greedy_exterior_hypertree(g)
    if find_realizing_tree(g, start) is None:
        raise RuntimeError("internal error: greedy hypertree rejected by tree search")
    caps = tuple(g.deg_e(e) - 1 for e in range(g.n_e))
    found = {start}
    rejected = set()
    queue = deque([start])
    while queue:
        f = queue.popleft()
        for a in range(g.n_e):
            if f[a] == 0:
                continue
            for b in range(g.n_e):
                if b == a or f[b] >= caps[b]:
                    continue
                cand = transfer(f, a, b)
                if cand in found or cand in rejected:
                    continue
                if find_realizing_tree(g, cand) is not None:
                    found.add(cand)
                    queue.append(cand)
                else:
                    rejected.add(cand)
    return HypertreeSet(found)


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


def can_transfer(g: BipGraph, b: HypertreeSet, f, e: int, e_prime: int) -> bool:
    """Whether one valence unit can move from ``e`` to ``e_prime`` at ``f``."""
    if e == e_prime:
        raise ValueError("transfer endpoints must be distinct hyperedges")
    f = tuple(f)
    if f not in b:
        raise GraphError("f is not a member of the hypertree set")
    return transfer(f, e, e_prime) in b


def is_tight(g: BipGraph, f, subset: int) -> bool:
    """Whether the subset meets its mu bound with equality at ``f``."""
    total = sum(f[e] for e in bits_of(subset))
    return total == mu(g, subset)


def tight_forest_check(g: BipGraph, f, witness, subset: int) -> bool:
    """Decide tightness from a realizing tree: ``subset`` is tight exactly
    when the witness restricted to it is a spanning forest of the graph
    restricted to it."""
    f = tuple(f)
    edges = set(witness)
    if len(edges) != len(tuple(witness)):
        raise GraphError("witness has repeated edges")
    if not edges <= g.adj:
        raise GraphError("witness uses edges that are not in the graph")
    if len(edges) != g.n_v + g.n_e - 1:
        raise GraphError("witness does not realize f")
    degs = [0] * g.n_e
    for _, e in edges:
        degs[e] += 1
    if any(degs[e] != f[e] + 1 for e in range(g.n_e)):
        raise GraphError("witness does not realize f")
    if not _spans(g, edges):
        raise GraphError("witness does not realize f")

    union_a = 0
    for e in bits_of(subset):
        union_a |= g.e_masks[e]
    tau_edges = [(v, e) for (v, e) in edges if subset >> e & 1]
    covered = 0
    for v, _ in tau_edges:
        covered |= 1 << v
    if covered != union_a:
        return False
    # The restricted witness is a forest, so components = vertices - edges.
    n_nodes = union_a.bit_count() + bin(subset).count("1")
    tau_comps = n_nodes - len(tau_edges)
    return tau_comps == subgraph_components(g, subset)


def _spans(g: BipGraph, edges) -> bool:
    masks = [0] * g.n_e
    for v, e in edges:
        masks[e] |= 1 << v
    return components(masks, (1 << g.n_e) - 1, (1 << g.n_v) - 1) == 1


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
