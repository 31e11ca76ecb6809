"""Bipartite-graph and hypergraph data model.

A :class:`BipGraph` has two colour classes, ``V`` and ``E``.  The ``E`` class
doubles as the hyperedge set of the hypergraph induced by the graph, so the
structural quantities defined here (the submodular rank ``mu``, nullity,
abstract duals) are all relative to that split.  A graph stores its labels
and one neighbour bitmask per vertex of each class; the edge set ``adj``,
the degrees and the label positions are derived from them.
Instances are immutable after construction and safe to share between
threads; nothing is cached on them.

Subsets of the ``E`` class travel as integer bitmasks: bit ``i`` stands for
the hyperedge with index ``i``.
"""

from __future__ import annotations

from .errors import CapacityError, GraphError

__all__ = [
    "BipGraph",
    "Hypergraph",
    "build_bipartite",
    "from_hypergraph",
    "abstract_dual",
    "mu_table",
    "components",
    "subgraph_components",
    "component_count",
    "nullity",
    "normalize_edge_order",
    "graph_to_json",
    "graph_from_json",
    "SUBSET_CAP",
]

# Cap on |E| for whole-powerset scans.  Building ``mu_table`` costs about 5x
# more per two added hyperedges (1.4 s at |E| = 14, 7.2 s at 16, 38.5 s at 18
# on a 2-core CPython 3.11 host), so 18 is the largest size that finishes in
# under a minute.
SUBSET_CAP = 18


def bits_of(mask: int):
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Frozen:
    """Base of the small value classes.  The fields are the ``__slots__`` in
    order; ``==``, ``hash`` and ``repr`` read them as a frozen dataclass's
    would, and assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Hypergraph(_Frozen):
    """Vertex labels plus a multiset of non-empty hyperedges (label sets)."""

    __slots__ = ("vertices", "hyperedges")

    def __init__(self, vertices: tuple[str, ...], hyperedges: tuple[frozenset[str], ...]):
        super().__init__(vertices, hyperedges)
        known = set(vertices)
        if len(known) != len(vertices):
            raise GraphError("duplicate vertex label in hypergraph")
        for h in hyperedges:
            if not h:
                raise GraphError("empty hyperedge")
            unknown = h - known
            if unknown:
                raise GraphError(f"hyperedge uses unknown vertex {sorted(unknown)[0]!r}")

    @staticmethod
    def of(vertices, hyperedges) -> "Hypergraph":
        return Hypergraph(tuple(vertices), tuple(frozenset(h) for h in hyperedges))


class BipGraph:
    """Simple bipartite graph with distinguished colour classes V and E.

    Stored are the labels and one neighbour bitmask per vertex: the edge
    ``(v, e)`` is bit ``e`` of ``v_masks[v]`` and bit ``v`` of ``e_masks[e]``.
    ``adj`` (the frozenset of (v-index, e-index) pairs), the degrees and the
    label positions are derived.  Construction validates indices, collapses
    duplicate pairs and records whether the graph is connected.
    """

    __slots__ = ("v_names", "e_names", "v_masks", "e_masks", "connected",
                 "_hash")

    def __init__(self, v_names, e_names, adj):
        v_names = tuple(v_names)
        e_names = tuple(e_names)
        _check_names(v_names, e_names)
        self.v_names = v_names
        self.e_names = e_names

        v_masks = [0] * len(v_names)
        e_masks = [0] * len(e_names)
        for v, e in adj:
            # bool is an int subclass; True is no index either.
            if type(v) is not int or type(e) is not int:
                raise GraphError(f"adjacency pair ({v!r}, {e!r}) must hold integer indices")
            if not (0 <= v < len(v_names) and 0 <= e < len(e_names)):
                raise GraphError(f"adjacency pair ({v}, {e}) out of range")
            v_masks[v] |= 1 << e
            e_masks[e] |= 1 << v
        self.v_masks = tuple(v_masks)
        self.e_masks = tuple(e_masks)
        self.connected = component_count(self) == 1
        self._hash = hash((v_names, e_names, self.e_masks))

    @property
    def adj(self) -> frozenset:
        """The edges as (v-index, e-index) pairs."""
        return frozenset((v, e) for v, m in enumerate(self.v_masks) for e in bits_of(m))

    @property
    def n_v(self) -> int:
        return len(self.v_names)

    @property
    def n_e(self) -> int:
        return len(self.e_names)

    @property
    def n_edges(self) -> int:
        return sum(m.bit_count() for m in self.e_masks)

    def deg_v(self, v: int) -> int:
        return self.v_masks[v].bit_count()

    def deg_e(self, e: int) -> int:
        return self.e_masks[e].bit_count()

    def v_index(self, label: str) -> int:
        return _lookup(self.v_names.index, label, "V")

    def e_index(self, label: str) -> int:
        return _lookup(self.e_names.index, label, "E")

    def __eq__(self, other):
        if not isinstance(other, BipGraph):
            return NotImplemented
        return (self.v_names == other.v_names
                and self.e_names == other.e_names
                and self.e_masks == other.e_masks)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"BipGraph(|V|={self.n_v}, |E|={self.n_e}, "
                f"edges={self.n_edges}, connected={self.connected})")


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, or a GraphError naming ``what`` when an entry
    is not an ``int``: a float, a numeric string or a bool is not truncated
    or converted."""
    values = tuple(values)
    if any(type(x) is not int for x in values):
        raise GraphError(f"{what} must hold integers, got {values!r}")
    return values


def integer(text: str) -> int:
    """``text`` as an int, for every integer argument of the CLI: ASCII
    digits after an optional minus sign (``int`` also takes "1_0", " 3"
    and non-ASCII digits)."""
    if not (isinstance(text, str) and text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _check_names(v_names: tuple, e_names: tuple) -> None:
    """Both classes non-empty, every label a string, no label twice in a
    class; the string check comes first, so an unhashable label is a
    GraphError too."""
    if not v_names or not e_names:
        raise GraphError("both colour classes must be non-empty")
    for name in v_names + e_names:
        if not isinstance(name, str):
            raise GraphError(f"labels must be strings, got {name!r}")
    if len(set(v_names)) != len(v_names):
        raise GraphError("duplicate label in the V class")
    if len(set(e_names)) != len(e_names):
        raise GraphError("duplicate label in the E class")


def _lookup(position, label: str, side: str) -> int:
    """``position(label)``; an unknown label is a GraphError."""
    try:
        return position(label)
    except (KeyError, ValueError):
        raise GraphError(f"unknown {side} label {label!r}") from None


def build_bipartite(v_names, e_names, adj_pairs) -> BipGraph:
    """Build a graph from label pairs; duplicate pairs collapse to one edge."""
    v_names, e_names = tuple(v_names), tuple(e_names)
    _check_names(v_names, e_names)
    v_index = {name: i for i, name in enumerate(v_names)}
    e_index = {name: i for i, name in enumerate(e_names)}
    pairs = []
    for v_label, e_label in adj_pairs:
        pairs.append((_lookup(v_index.__getitem__, v_label, "V"),
                      _lookup(e_index.__getitem__, e_label, "E")))
    return BipGraph(v_names, e_names, pairs)


def from_hypergraph(h: Hypergraph) -> BipGraph:
    """Incidence bipartite graph of ``h``.

    Every multiset member becomes its own E-vertex, even when two hyperedges
    are equal as sets, so multiplicities survive the translation.
    """
    if not h.vertices or not h.hyperedges:
        raise GraphError("hypergraph must have at least one vertex and one hyperedge")
    v_names = h.vertices
    e_names = tuple(f"h{i}" for i in range(len(h.hyperedges)))
    v_index = {name: i for i, name in enumerate(v_names)}
    pairs = set()
    for i, hyperedge in enumerate(h.hyperedges):
        for label in hyperedge:
            pairs.add((v_index[label], i))
    return BipGraph(v_names, e_names, pairs)


def abstract_dual(g: BipGraph) -> BipGraph:
    """Swap the roles of the two colour classes."""
    return BipGraph(g.e_names, g.v_names,
                    [(e, v) for e, m in enumerate(g.e_masks) for v in bits_of(m)])


def components(masks, subset: int, v_all: int = 0) -> int:
    """Connected components of a bipartite graph given by bitmasks.

    The E-vertices are the bits of ``subset``; E-vertex ``e`` is adjacent to
    the V-vertices in the bitmask ``masks[e]``.  The V-vertices in ``v_all``
    that no selected mask touches count as one component each.
    """
    remaining = subset
    comps = 0
    covered = 0
    while remaining:
        comps += 1
        low = remaining & -remaining
        comp_v = masks[low.bit_length() - 1]
        remaining ^= low
        grown = True
        while grown:
            grown = False
            scan = remaining
            while scan:
                b = scan & -scan
                scan ^= b
                m = masks[b.bit_length() - 1]
                if m & comp_v:
                    comp_v |= m
                    remaining ^= b
                    grown = True
        covered |= comp_v
    return comps + (v_all & ~covered).bit_count()


def subgraph_components(g: BipGraph, subset: int) -> int:
    """Number of connected components of the restriction to ``subset``."""
    if subset < 0 or subset >= (1 << g.n_e):
        raise GraphError(f"subset mask {subset} out of range for |E|={g.n_e}")
    return components(g.e_masks, subset)


def mu_table(g: BipGraph) -> tuple[int, ...]:
    """The submodular rank ``mu`` of every subset mask of ``g``: |union| -
    #components, 0 for the empty set.  Built afresh on each call, so take it
    once to test many vectors."""
    if g.n_e > SUBSET_CAP:
        raise CapacityError(f"subset enumeration over {g.n_e} hyperedges would scan "
                            f"2^{g.n_e} subsets; the cap is {SUBSET_CAP} hyperedges, "
                            f"and |E| = 18 already takes about 40 s")
    masks, size = g.e_masks, 1 << g.n_e
    union, table = [0] * size, [0] * size
    for mask in range(1, size):
        low = mask & -mask
        union[mask] = union[mask ^ low] | masks[low.bit_length() - 1]
        table[mask] = union[mask].bit_count() - components(masks, mask)
    return tuple(table)


def component_count(g: BipGraph) -> int:
    """Connected components of the whole graph (isolated vertices count)."""
    return components(g.e_masks, (1 << g.n_e) - 1, (1 << g.n_v) - 1)


def nullity(g: BipGraph) -> int:
    """Cycle-space dimension: edges - vertices + components."""
    return g.n_edges - (g.n_v + g.n_e) + component_count(g)


def normalize_edge_order(g: BipGraph, order=None) -> tuple[int, ...]:
    """Validate an order on E (a permutation of indices, smallest first)."""
    if order is None:
        return tuple(range(g.n_e))
    order = _integers(order, "an order on E")
    if sorted(order) != list(range(g.n_e)):
        raise GraphError("order must be a permutation of all E indices")
    return order


def graph_to_json(g: BipGraph) -> dict:
    """Wire format: {"v": [...], "e": [...], "adj": [[v-label, e-label], ...]}."""
    return {
        "v": list(g.v_names),
        "e": list(g.e_names),
        "adj": [[g.v_names[v], g.e_names[e]] for (v, e) in sorted(g.adj)],
    }


def graph_from_json(data) -> BipGraph:
    """Parse the wire format; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise GraphError("graph JSON must be an object")
    extra = set(data) - {"v", "e", "adj"}
    if extra:
        raise GraphError(f"unknown key {sorted(extra)[0]!r} in graph JSON")
    for key in ("v", "e", "adj"):
        if key not in data:
            raise GraphError(f"graph JSON is missing key {key!r}")
    v_names, e_names, adj = data["v"], data["e"], data["adj"]
    if not isinstance(v_names, list) or not isinstance(e_names, list):
        raise GraphError("'v' and 'e' must be lists of labels")
    pairs = []
    if not isinstance(adj, list):
        raise GraphError("'adj' must be a list of [v-label, e-label] pairs")
    for item in adj:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(label, str) for label in item)):
            raise GraphError(f"bad adjacency entry {item!r}: expected "
                             f"[v-label, e-label] with string labels")
        pairs.append((item[0], item[1]))
    return build_bipartite(v_names, e_names, pairs)
