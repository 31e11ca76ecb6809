"""Graph surgeries: pendant removal, deletion and contraction, joins, the
parallel-pair extension with its quotient, and the balanced decomposition.

Surgeries that would disconnect a graph are permitted structurally; the
polynomial recursions that rely on connectivity guard their own
preconditions instead.  Labels survive every operation (merged vertices
join their constituent labels with "+") so counterexamples stay traceable.
A label used in both classes names the V-vertex; the surgeries then act on
that vertex alone, so its namesake in E keeps its edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GraphError
from .graph import BipGraph, build_bipartite

__all__ = [
    "DecompositionTerm",
    "delete_valence1",
    "delete_vertex",
    "contract_vertex",
    "one_point_join",
    "edge_join",
    "add_parallel_pair_vertices",
    "identify_pair",
    "balanced_decomposition",
]


def _locate(g: BipGraph, label: str):
    """The (side, index) of the vertex a label names; a label used in both
    classes names the V-vertex."""
    if label in g._v_index:
        return "v", g._v_index[label]
    if label in g._e_index:
        return "e", g._e_index[label]
    raise GraphError(f"unknown vertex label {label!r}")


def _label_pairs(g: BipGraph):
    return [(g.v_names[v], g.e_names[e]) for (v, e) in sorted(g.adj)]


def _rebuild(v_names, e_names, pairs) -> BipGraph:
    if not v_names or not e_names:
        raise GraphError("operation would empty a colour class")
    return build_bipartite(v_names, e_names, pairs)


# The vertex surgeries work on (side, index), never on labels, because the
# two classes may share a label.  They see a graph from the side of the
# vertex: "own" is that vertex's class, "other" the opposite one, and each
# edge is an (own index, other index) pair.


def _from_side(g: BipGraph, side: str):
    if side == "v":
        return g.v_names, g.e_names, g.adj
    return g.e_names, g.v_names, [(e, v) for v, e in g.adj]


def _to_side(side: str, own, other, pairs) -> BipGraph:
    if not own or not other:
        raise GraphError("operation would empty a colour class")
    if side == "v":
        return BipGraph(own, other, pairs)
    return BipGraph(other, own, [(y, x) for x, y in pairs])


def _delete(g: BipGraph, side: str, idx: int) -> BipGraph:
    own, other, pairs = _from_side(g, side)
    return _to_side(side, own[:idx] + own[idx + 1:], other,
                    [(x - (x > idx), y) for x, y in pairs if x != idx])


def _contract(g: BipGraph, side: str, idx: int) -> BipGraph:
    own, other, pairs = _from_side(g, side)
    merged = sorted(y for x, y in pairs if x == idx)
    if not merged:
        raise GraphError(f"cannot contract isolated vertex {own[idx]!r}")
    # The neighbours collapse onto the first of them, which takes the joined
    # label; the others drop out of the class.
    first, gone = merged[0], set(merged[1:])
    position, names = {}, []
    for y, name in enumerate(other):
        if y not in gone:
            position[y] = len(names)
            names.append("+".join(other[m] for m in merged) if y == first else name)
    for y in gone:
        position[y] = position[first]
    return _to_side(side, own[:idx] + own[idx + 1:], names,
                    [(x - (x > idx), position[y]) for x, y in pairs if x != idx])


def delete_valence1(g: BipGraph, label: str) -> BipGraph:
    """Remove a pendant vertex; the polynomials are insensitive to this."""
    side, idx = _locate(g, label)
    degree = g.deg_v(idx) if side == "v" else g.deg_e(idx)
    if degree != 1:
        raise GraphError(f"{label!r} has valence {degree}, expected 1")
    return _delete(g, side, idx)


def delete_vertex(g: BipGraph, label: str) -> BipGraph:
    """Remove a vertex and its incident edges."""
    return _delete(g, *_locate(g, label))


def contract_vertex(g: BipGraph, label: str) -> BipGraph:
    """Remove a vertex and identify all its neighbours; multi-edges created
    by the identification collapse immediately."""
    return _contract(g, *_locate(g, label))


def _fresh(labels_in_use, candidate: str) -> str:
    label = candidate
    while label in labels_in_use:
        label += "'"
    return label


def _disjoint_union_labels(g1: BipGraph, g2: BipGraph):
    """Labels for G2 renamed away from clashes with G1, per class."""
    v_map, e_map = {}, {}
    used_v = set(g1.v_names)
    used_e = set(g1.e_names)
    for x in g2.v_names:
        v_map[x] = _fresh(used_v, x)
        used_v.add(v_map[x])
    for x in g2.e_names:
        e_map[x] = _fresh(used_e, x)
        used_e.add(e_map[x])
    return v_map, e_map


def one_point_join(g1: BipGraph, g2: BipGraph, label1: str, label2: str) -> BipGraph:
    """Glue two graphs at a single vertex; both polynomials multiply."""
    side1, _ = _locate(g1, label1)
    side2, _ = _locate(g2, label2)
    if side1 != side2:
        raise GraphError("one-point join requires vertices of the same class")
    v_map, e_map = _disjoint_union_labels(g1, g2)
    if side1 == "v":
        v_map[label2] = label1
    else:
        e_map[label2] = label1
    v_names = list(g1.v_names) + [v_map[x] for x in g2.v_names
                                  if v_map[x] not in g1.v_names]
    e_names = list(g1.e_names) + [e_map[x] for x in g2.e_names
                                  if e_map[x] not in g1.e_names]
    pairs = _label_pairs(g1) + [(v_map[v], e_map[e]) for v, e in _label_pairs(g2)]
    return _rebuild(v_names, e_names, pairs)


def edge_join(g1: BipGraph, g2: BipGraph, edge1, edge2) -> BipGraph:
    """Glue two graphs along one edge (a V-vertex and an E-vertex of each
    are identified pairwise); both polynomials multiply."""
    (v1, e1), (v2, e2) = tuple(edge1), tuple(edge2)
    if (g1.v_index(v1), g1.e_index(e1)) not in g1.adj:
        raise GraphError(f"({v1!r}, {e1!r}) is not an edge of the first graph")
    if (g2.v_index(v2), g2.e_index(e2)) not in g2.adj:
        raise GraphError(f"({v2!r}, {e2!r}) is not an edge of the second graph")
    v_map, e_map = _disjoint_union_labels(g1, g2)
    v_map[v2] = v1
    e_map[e2] = e1
    v_names = list(g1.v_names) + [v_map[x] for x in g2.v_names
                                  if v_map[x] not in g1.v_names]
    e_names = list(g1.e_names) + [e_map[x] for x in g2.e_names
                                  if e_map[x] not in g1.e_names]
    pairs = _label_pairs(g1) + [(v_map[v], e_map[e]) for v, e in _label_pairs(g2)]
    return _rebuild(v_names, e_names, pairs)


def add_parallel_pair_vertices(g: BipGraph, e1: str, e2: str, t: int) -> BipGraph:
    """Add t new degree-2 V-vertices, each adjacent to exactly {e1, e2}."""
    if e1 == e2:
        raise GraphError("the two hyperedges must be distinct")
    if t < 1:
        raise GraphError("t must be at least 1")
    g.e_index(e1)
    g.e_index(e2)
    v_names = list(g.v_names)
    pairs = _label_pairs(g)
    used = set(v_names)
    for i in range(t):
        label = _fresh(used, f"p{i + 1}")
        used.add(label)
        v_names.append(label)
        pairs.append((label, e1))
        pairs.append((label, e2))
    return _rebuild(v_names, list(g.e_names), pairs)


def identify_pair(g: BipGraph, e1: str, e2: str) -> BipGraph:
    """Merge two E-vertices into one and collapse multi-edges."""
    if e1 == e2:
        raise GraphError("the two hyperedges must be distinct")
    g.e_index(e1)
    g.e_index(e2)
    merged = f"{e1}+{e2}"
    e_names = [merged if x == e1 else x for x in g.e_names if x != e2]
    rename = {e1: merged, e2: merged}
    pairs = [(v, rename.get(e, e)) for v, e in _label_pairs(g)]
    return _rebuild(list(g.v_names), e_names, pairs)


@dataclass(frozen=True)
class DecompositionTerm:
    """One term of a decomposition: coefficient * x^exponent * I(graph)."""

    coefficient: int
    exponent: int
    graph: BipGraph


def balanced_decomposition(g: BipGraph) -> list[DecompositionTerm]:
    """Write the interior polynomial of ``g`` as a combination of interior
    polynomials of balanced graphs.

    Repeatedly extends the current graph with parallel-pair vertices on its
    first two hyperedges (making it balanced) and passes the quotient that
    identifies the pair to the next level.  Level i contributes coefficient
    (-1)^i * t! / (t-i)! on x^i, where t = |E| - |V|.
    """
    if not g.connected:
        raise GraphError("balanced decomposition requires a connected graph")
    if g.n_v > g.n_e:
        raise GraphError("balanced decomposition requires |V| <= |E|; "
                         "take the abstract dual first")
    t = g.n_e - g.n_v
    terms = []
    current = g
    for i in range(t + 1):
        coefficient = (-1) ** i * math.perm(t, i)
        grow = t - i
        if grow >= 1:
            balanced = add_parallel_pair_vertices(
                current, current.e_names[0], current.e_names[1], grow)
        else:
            balanced = current
        terms.append(DecompositionTerm(coefficient, i, balanced))
        if i < t:
            current = identify_pair(current, current.e_names[0], current.e_names[1])
    return terms
