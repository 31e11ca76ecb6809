"""Graph surgeries: pendant removal, deletion and contraction, joins, the
parallel-pair extension with its quotient, and the balanced decomposition.

Surgeries that would disconnect a graph are permitted structurally; the
polynomial recursions that rely on connectivity guard their own
preconditions instead.  Labels survive every operation (merged vertices
join their constituent labels with "+", and a joined label already in use
gets "'" appended until it is free) so counterexamples stay traceable.
A label used in both classes names the V-vertex; the surgeries then act on
that vertex alone, so its namesake in E keeps its edges.
"""

from __future__ import annotations

import math

from .errors import GraphError
from .graph import BipGraph, _Frozen, _integer, _pairs, _require_connected, bits_of

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
    for side, index in (("v", g.v_index), ("e", g.e_index)):
        try:
            return side, index(label)
        except GraphError:
            pass
    raise GraphError(f"unknown vertex label {label!r}")


# The surgeries work on (side, index), never on labels, because the two
# classes may share a label.  They see a graph from one side: "own" is the
# class of that side, "other" the opposite one, and each edge is an
# (own index, other index) pair.  Each surgery builds its result once.


def _from_side(g: BipGraph, side: str):
    own, other, masks = ((g.v_names, g.e_names, g.v_masks) if side == "v"
                         else (g.e_names, g.v_names, g.e_masks))
    return own, other, [(x, y) for x, m in enumerate(masks) for y in bits_of(m)]


def _to_side(side: str, own, other, pairs) -> BipGraph:
    if not own or not other:
        raise GraphError("operation would empty a colour class")
    if side == "v":
        return BipGraph(own, other, pairs)
    return BipGraph(other, own, [(y, x) for x, y in pairs])


def _fresh(labels_in_use, candidate: str) -> str:
    label = candidate
    while label in labels_in_use:
        label += "'"
    return label


def _drop(own, pairs, idx: int):
    """Remove own vertex ``idx`` and its edges."""
    return (own[:idx] + own[idx + 1:],
            [(x - (x > idx), y) for x, y in pairs if x != idx])


def _merge(other, pairs, members):
    """Identify the other-class vertices ``members`` with the first of them,
    which takes their "+"-joined label, primed by ``_fresh`` while a vertex
    that stays uses it; the rest drop out and multi-edges collapse."""
    first, gone = members[0], set(members[1:])
    merged = _fresh(set(other) - {other[m] for m in members},
                    "+".join(other[m] for m in members))
    position, names = {}, []
    for y, name in enumerate(other):
        if y not in gone:
            position[y] = len(names)
            names.append(merged if y == first else name)
    for y in gone:
        position[y] = position[first]
    return names, [(x, position[y]) for x, y in pairs]


def _delete(g: BipGraph, side: str, idx: int) -> BipGraph:
    own, other, pairs = _from_side(g, side)
    own, pairs = _drop(own, pairs, idx)
    return _to_side(side, own, other, pairs)


def _contract(g: BipGraph, side: str, idx: int) -> BipGraph:
    own, other, pairs = _from_side(g, side)
    members = sorted(y for x, y in pairs if x == idx)
    if not members:
        raise GraphError(f"cannot contract isolated vertex {own[idx]!r}")
    own, pairs = _drop(own, pairs, idx)
    other, pairs = _merge(other, pairs, members)
    return _to_side(side, own, other, pairs)


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


def _glue(g1: BipGraph, g2: BipGraph, glued) -> BipGraph:
    """Disjoint union with the labels of ``g2`` renamed away from those of
    ``g1``, class by class and in class order, then each ``glued[side] =
    (index in g1, index in g2)`` identified under the g1 label.  A glued
    label still reserves its fresh name, so later names do not depend on
    where the graphs are glued."""
    classes = []
    for side, names1, names2 in (("v", g1.v_names, g2.v_names),
                                 ("e", g1.e_names, g2.e_names)):
        at1, at2 = glued.get(side, (None, None))
        used, names, position = set(names1), list(names1), []
        for y, name in enumerate(names2):
            label = _fresh(used, name)
            used.add(label)
            if y == at2:
                position.append(at1)
            else:
                position.append(len(names))
                names.append(label)
        classes.append((names, position))
    (v_names, v_at), (e_names, e_at) = classes
    return BipGraph(v_names, e_names,
                    [*g1.adj, *((v_at[v], e_at[e]) for v, e in g2.adj)])


def one_point_join(g1: BipGraph, g2: BipGraph, label1: str, label2: str) -> BipGraph:
    """Glue two graphs at a single vertex; both polynomials multiply."""
    side1, idx1 = _locate(g1, label1)
    side2, idx2 = _locate(g2, label2)
    if side1 != side2:
        raise GraphError("one-point join requires vertices of the same class")
    return _glue(g1, g2, {side1: (idx1, idx2)})


def edge_join(g1: BipGraph, g2: BipGraph, edge1, edge2) -> BipGraph:
    """Glue two graphs along one edge (a V-vertex and an E-vertex of each
    are identified pairwise); both polynomials multiply."""
    (v1, e1), (v2, e2) = _pairs((edge1, edge2), "(v-label, e-label)")
    ends1 = (g1.v_index(v1), g1.e_index(e1))
    if ends1 not in g1.adj:
        raise GraphError(f"({v1!r}, {e1!r}) is not an edge of the first graph")
    ends2 = (g2.v_index(v2), g2.e_index(e2))
    if ends2 not in g2.adj:
        raise GraphError(f"({v2!r}, {e2!r}) is not an edge of the second graph")
    return _glue(g1, g2, {"v": (ends1[0], ends2[0]), "e": (ends1[1], ends2[1])})


def add_parallel_pair_vertices(g: BipGraph, e1: str, e2: str, t: int) -> BipGraph:
    """Add t new degree-2 V-vertices, each adjacent to exactly {e1, e2}."""
    if e1 == e2:
        raise GraphError("the two hyperedges must be distinct")
    _integer(t, "t", 1)
    ends = (g.e_index(e1), g.e_index(e2))
    own, other, pairs = _from_side(g, "v")
    own, pairs = list(own), list(pairs)
    for i in range(t):
        pairs += [(len(own), y) for y in ends]
        own.append(_fresh(own, f"p{i + 1}"))
    return _to_side("v", own, other, pairs)


def identify_pair(g: BipGraph, e1: str, e2: str) -> BipGraph:
    """Merge two E-vertices into one and collapse multi-edges; the merged
    vertex takes e1's place and the label e1+e2, primed while in use."""
    if e1 == e2:
        raise GraphError("the two hyperedges must be distinct")
    own, other, pairs = _from_side(g, "v")
    other, pairs = _merge(other, pairs, [g.e_index(e1), g.e_index(e2)])
    return _to_side("v", own, other, pairs)


class DecompositionTerm(_Frozen):
    """One term of a decomposition: coefficient * x^exponent * I(graph)."""

    __slots__ = ("coefficient", "exponent", "graph")

    def __init__(self, coefficient: int, exponent: int, graph: BipGraph):
        super().__init__(_integer(coefficient, "a term coefficient"),
                         _integer(exponent, "a term exponent", 0), graph)


def balanced_decomposition(g: BipGraph) -> list[DecompositionTerm]:
    """Write the interior polynomial of ``g`` as a combination of interior
    polynomials of balanced graphs.

    Repeatedly extends the current graph with parallel-pair vertices on its
    first two hyperedges (making it balanced) and passes the quotient that
    identifies the pair to the next level.  Level i contributes coefficient
    (-1)^i * t! / (t-i)! on x^i, where t = |E| - |V|.
    """
    _require_connected(g, "balanced decomposition")
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
