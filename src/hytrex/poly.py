"""Exact integer polynomials and the invariants assembled from them.

``IntPoly`` is a dense univariate polynomial with arbitrary-precision
integer coefficients; ``IntPoly2`` is a sparse bivariate one.  On top of
them sit the interior polynomial (generating function of internal
inactivity over all hypertrees), the exterior polynomial (external
inactivity), a deletion-contraction Tutte oracle for ordinary multigraphs,
and the two specializations that tie the Tutte polynomial of a graph to the
invariants of its subdivision.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import zip_longest
from types import MappingProxyType
from weakref import WeakKeyDictionary

from .errors import CapacityError, GraphError
from .graph import (
    BipGraph,
    Hypergraph,
    _Frozen,
    _ReadOnly,
    from_hypergraph,
    normalize_edge_order,
    _integer,
    _integers,
    _require_connected,
)
from .activity import _probe_counts
from .hypertrees import HypertreeSet, _inactivity_counts

__all__ = [
    "IntPoly",
    "IntPoly2",
    "MultiGraph",
    "interior_polynomial",
    "exterior_polynomial",
    "polynomial_pair",
    "polynomial_pairs",
    "pair_memo",
    "tutte_polynomial",
    "TUTTE_CAP",
    "interior_from_tutte",
    "exterior_from_tutte",
    "subdivision",
    "is_interpolating",
]


class IntPoly(_ReadOnly):
    """Immutable univariate polynomial with exact integer coefficients.

    Canonical form stores no trailing zeros; the zero polynomial is the
    empty vector and has no degree.  A coefficient that is not an ``int`` (a
    float, a numeric string or a bool) is a GraphError, not truncated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(_integers(coeffs, "polynomial coefficients"))
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __reduce__(self):
        return type(self), (self.coeffs,)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    def coeff(self, k: int) -> int:
        """The coefficient of x^k (0 for a negative k)."""
        return self.coeffs[k] if 0 <= _integer(k, "a coefficient index") < len(self.coeffs) else 0

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        _integer(k, "a shift", 0)
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __add__(self, other):
        if type(other) is int:
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        if type(other) is int:
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is int:
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = IntPoly.one()
        for _ in range(_integer(n, "an exponent", 0)):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is int:
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({self.render()})"

    def render(self, var: str = "x") -> str:
        """Canonical ASCII form: ascending exponents, e.g. "1 + 2x + x^2"."""
        return _join_terms((c, _power(var, k)) for k, c in enumerate(self.coeffs) if c)

    def to_json(self) -> list[int]:
        return list(self.coeffs)


class IntPoly2(_ReadOnly):
    """Immutable sparse bivariate polynomial: a read-only map (i, j) ->
    non-zero integer.  An exponent or coefficient that is not an ``int``, or
    a negative exponent, is a GraphError."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in dict(terms).items():
                i, j, c = _integers((i, j, c), "a bivariate term (i, j, coefficient)")
                if i < 0 or j < 0:
                    raise GraphError(f"bivariate term {(i, j)!r}: {c} has a negative exponent")
                if c:
                    clean[(i, j)] = c
        object.__setattr__(self, "terms", MappingProxyType(dict(sorted(clean.items()))))

    def __reduce__(self):
        return type(self), (dict(self.terms),)

    @classmethod
    def monomial(cls, i: int, j: int, coefficient: int = 1) -> "IntPoly2":
        return cls({(i, j): coefficient})

    def __add__(self, other):
        if not isinstance(other, IntPoly2):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return IntPoly2(out)

    def __eq__(self, other):
        if not isinstance(other, IntPoly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __repr__(self):
        return f"IntPoly2({self.render()})"

    def render(self, var_x: str = "x", var_y: str = "y") -> str:
        """Terms by descending total degree, then descending x-degree."""
        keys = sorted(self.terms, key=lambda ij: (ij[0] + ij[1], ij[0]), reverse=True)
        return _join_terms(
            (self.terms[i, j], " ".join(filter(None, (_power(var_x, i), _power(var_y, j)))))
            for i, j in keys)

    def to_json(self) -> list[list[int]]:
        return [[i, j, c] for (i, j), c in self.terms.items()]


def _power(var: str, k: int) -> str:
    """``var`` to the power ``k``, written "" for k = 0."""
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def _join_terms(terms) -> str:
    """The signed sum of ``terms``, pairs (non-zero coefficient, monomial
    text): "2x - y", with a coefficient of magnitude 1 left out before a
    monomial, and "0" when there are none."""
    parts = []
    for c, monomial in terms:
        body = monomial if abs(c) == 1 and monomial else f"{abs(c)}{monomial}"
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def is_interpolating(p: IntPoly) -> bool:
    """True when the non-zero coefficients occupy a gap-free exponent range."""
    supp = p.support
    if not supp:
        return True
    return supp == tuple(range(supp[0], supp[-1] + 1))


# ---------------------------------------------------------------------------
# Interior and exterior polynomials of a bipartite graph.
# ---------------------------------------------------------------------------


def interior_polynomial(g: BipGraph, order=None, hypertrees=None) -> IntPoly:
    """Sum of x^(internal inactivity) over all hypertrees of ``g``.

    Without ``hypertrees`` the hypertrees are counted by their inactivities
    in one engine call (:func:`polynomial_pairs`).  A given set
    ``hypertrees`` is counted by membership probes instead: that is the
    oracle path, which trusts the set it is handed.  Its vectors must have
    one entry per hyperedge; an iterable of vectors that is not a
    :class:`HypertreeSet` is counted as the set of them."""
    return _inactivity_polynomial(g, order, hypertrees, "interior")


def exterior_polynomial(g: BipGraph, order=None, hypertrees=None) -> IntPoly:
    """Sum of y^(external inactivity) over all hypertrees, with the E class
    acting as the hyperedges (pass ``abstract_dual(g)`` for the V class).
    ``hypertrees`` is handled as in :func:`interior_polynomial`."""
    return _inactivity_polynomial(g, order, hypertrees, "exterior")


def _inactivity_polynomial(g: BipGraph, order, hypertrees, what: str) -> IntPoly:
    """Count the hypertrees by their number of inactive hyperedges: from an
    enumeration engine, or over ``hypertrees`` by the probes of
    :mod:`hytrex.activity`, one pass over the whole set."""
    _require_connected(g, f"the {what} polynomial")
    order = None if order is None else normalize_edge_order(g, order)
    if hypertrees is None:
        pair = polynomial_pair(g) if order in (None, tuple(range(g.n_e))) else (
            polynomial_pairs(g, [order])[0])
        return pair[0 if what == "interior" else 1]
    if not isinstance(hypertrees, HypertreeSet):
        hypertrees = HypertreeSet(hypertrees)
    if hypertrees and len(hypertrees.vectors[0]) != g.n_e:
        raise GraphError(f"hypertree vectors have length {len(hypertrees.vectors[0])}, "
                         f"expected {g.n_e}")
    return IntPoly(_probe_counts(hypertrees, order, what == "exterior"))


def polynomial_pairs(g: BipGraph, orders) -> list[tuple[IntPoly, IntPoly]]:
    """``(I, X)`` of ``g`` under each order of ``orders`` (None is the input
    order), all counted in one call of the engine :mod:`hytrex.hypertrees`
    chooses: the fibre search counts one order without listing, and the
    walk's mask bits are counted for any other input.  The polynomials do
    not depend on the order; the orders are there to check that they do
    not."""
    return [(IntPoly(interior), IntPoly(exterior))
            for interior, exterior in _inactivity_counts(g, orders)]


# Input-order (I, X) by live graph while a pair_memo() block is open in this
# thread or task; None outside one.
_pairs = ContextVar("hytrex_pairs", default=None)


@contextmanager
def pair_memo():
    """Within the block, the input-order polynomials of each graph are
    counted once and then reused for as long as that graph object is alive:
    an entry is dropped with its graph, and an equal graph asked for after
    that is counted again.  The memo belongs to the outermost block of the current
    thread or task and is dropped when that block exits."""
    token = _pairs.set(WeakKeyDictionary()) if _pairs.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _pairs.reset(token)


def polynomial_pair(g: BipGraph) -> tuple[IntPoly, IntPoly]:
    """``(I, X)`` of ``g`` in the input order, memoised inside pair_memo()."""
    memo = _pairs.get()
    if memo is None or not isinstance(g, BipGraph):  # only a graph is a key
        return polynomial_pairs(g, [None])[0]
    pair = memo.get(g)
    if pair is None:
        pair = memo[g] = polynomial_pairs(g, [None])[0]
    return pair


# ---------------------------------------------------------------------------
# Ordinary multigraphs and the Tutte oracle.
# ---------------------------------------------------------------------------

# Cap on the edges of a graph handed to the Tutte oracle.  On a 2-core
# CPython 3.11 host the deletion-contraction takes 5-21 ms on random
# connected 12-edge graphs with 6-8 vertices, 19-21 ms on K_6 (15 edges) and
# 93-141 ms on K_7 (21 edges); every graph the tutte check hands it has at
# most 7 edges.
TUTTE_CAP = 12


class MultiGraph(_Frozen):
    """Immutable ordinary multigraph on vertices 0..n-1; loops and parallel
    edges are allowed."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        _integer(n, "a multigraph vertex count", 1)
        norm = []
        for edge in edges:
            edge = _integers(edge, "a multigraph edge")
            if len(edge) != 2:
                raise GraphError(f"a multigraph edge has two ends, got {edge!r}")
            u, v = edge
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range")
            norm.append((u, v) if u <= v else (v, u))
        super().__init__(n, tuple(sorted(norm)))

    @classmethod
    def path(cls, n_vertices: int) -> "MultiGraph":
        return cls(n_vertices, [(i, i + 1) for i in range(n_vertices - 1)])

    @classmethod
    def cycle(cls, n_vertices: int) -> "MultiGraph":
        return cls(n_vertices,
                   [(i, (i + 1) % n_vertices) for i in range(n_vertices)])

    @classmethod
    def star(cls, leaves: int) -> "MultiGraph":
        return cls(leaves + 1, [(0, i + 1) for i in range(leaves)])

    @property
    def connected(self) -> bool:
        return _graph_components(self.n, self.edges) == 1

    def __repr__(self):
        return f"MultiGraph(n={self.n}, edges={list(self.edges)})"


# The Tutte oracle keeps its own union-find rather than graph.components, so
# that it shares no code with the fast path it checks.
def _graph_components(n, edges) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            comps -= 1
    return comps


def _bridge_indices(n, edges) -> set[int]:
    from collections import Counter

    multiplicity = Counter(edges)
    bridges = set()
    for idx, (u, v) in enumerate(edges):
        if u == v or multiplicity[(u, v)] > 1:
            continue
        rest = edges[:idx] + edges[idx + 1:]
        if _graph_components(n, rest) > _graph_components(n, edges):
            bridges.add(idx)
    return bridges


def tutte_polynomial(graph: MultiGraph) -> IntPoly2:
    """Deletion-contraction with bridge/loop base cases, memoized on the
    edges of each intermediate graph (contraction keeps the vertex count)."""
    if len(graph.edges) > TUTTE_CAP:
        raise CapacityError(
            f"Tutte recursion capped at {TUTTE_CAP} edges, got {len(graph.edges)}")
    memo = {}

    def rec(n, edges):
        if not edges:
            return IntPoly2.monomial(0, 0)
        hit = memo.get(edges)
        if hit is not None:
            return hit
        bridges = _bridge_indices(n, edges)
        pick = None
        for idx, (u, v) in enumerate(edges):
            if u != v and idx not in bridges:
                pick = idx
                break
        if pick is None:
            n_loops = sum(1 for u, v in edges if u == v)
            res = IntPoly2.monomial(len(edges) - n_loops, n_loops)
        else:
            u, v = edges[pick]
            deleted = edges[:pick] + edges[pick + 1:]
            contracted = tuple(sorted(tuple(sorted(u if end == v else end for end in edge))
                                      for edge in deleted))
            res = rec(n, deleted) + rec(n, contracted)
        memo[edges] = res
        return res

    return rec(graph.n, graph.edges)


def subdivision(graph: MultiGraph) -> BipGraph:
    """Incidence bipartite graph of the multigraph viewed as a hypergraph:
    V carries the graph vertices, E one vertex per graph edge."""
    vertices = tuple(f"u{i}" for i in range(graph.n))
    hyperedges = tuple(frozenset({f"u{u}", f"u{v}"}) for u, v in graph.edges)
    return from_hypergraph(Hypergraph(vertices, hyperedges))


def _tutte_reversed(graph: MultiGraph, axis: int, bound: int, overflow: str) -> IntPoly:
    """The Tutte coefficients summed over the other variable, with the
    exponent k of variable ``axis`` (0 for x, 1 for y) moved to bound - k."""
    _require_connected(graph, "the Tutte specialization")
    coeffs = [0] * (bound + 1)
    for exponents, c in tutte_polynomial(graph).terms.items():
        if exponents[axis] > bound:
            raise RuntimeError(f"internal error: Tutte {overflow}")
        coeffs[bound - exponents[axis]] += c
    return IntPoly(coeffs)


def interior_from_tutte(graph: MultiGraph) -> IntPoly:
    """x^(|V|-1) T(1/x, 1), computed by reindexing Tutte coefficients."""
    return _tutte_reversed(graph, 0, graph.n - 1, "x-degree exceeds the rank")


def exterior_from_tutte(graph: MultiGraph) -> IntPoly:
    """y^(|E|-|V|+1) T(1, 1/y), computed by reindexing Tutte coefficients."""
    return _tutte_reversed(graph, 1, len(graph.edges) - graph.n + 1,
                           "y-degree exceeds the nullity")
