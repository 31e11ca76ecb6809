"""Generators for named bipartite families and their closed-form polynomials.

The closed forms are evaluated literally with exact binomials, so they act
as oracles that are independent of the hypertree pipeline:

* tree: interior = exterior = 1
* cycle of length 2n: interior = 1 + x + ... + x^(n-1), exterior = 1 + (n-1)y
* unicyclic with cycle length 2n: same as the cycle
* ladder (path of length n times an edge): (1 + x)^n and (1 + y)^n
* complete bipartite K_{m,n}: sum C(n-1,i) C(m-1,i) x^i and
  sum C(m+i-2,i) y^i with the n-side as hyperedges
* K_{m,n} minus a q-edge matching: the same sums with the linear
  (respectively top) coefficient reduced by q; K_{m,n} is the case q = 0

Ear graphs (an even cycle grown by odd class-crossing ears) have no stated
closed form; they exist to exercise the monic top coefficient property.
"""

from __future__ import annotations

import math
import random

from .errors import ClosedFormUnavailable, GraphError
from .graph import BipGraph, _Frozen, build_bipartite, integer
from .poly import IntPoly

__all__ = [
    "FamilySpec",
    "FAMILY_TAGS",
    "generate",
    "closed_form_interior",
    "closed_form_exterior",
    "ear_decomposition",
    "spec_from_cli",
]


class FamilySpec(_Frozen):
    """A family tag with integer parameters, and a seed for a family that
    reads one (a seed on any other family is an error)."""

    __slots__ = ("tag", "params", "seed")

    def __init__(self, tag: str, params: tuple[int, ...], seed: int | None = None):
        if tag not in FAMILY_TAGS:
            raise GraphError(f"unknown family {tag!r}")
        try:
            values = tuple(params)
        except TypeError:
            raise GraphError(
                f"family parameters must be a sequence of integers, got {params!r}") from None
        # bool is an int subclass; True is no parameter value either.
        if any(type(p) is not int for p in values):
            raise GraphError(f"family parameters must be integers, got {params!r}")
        if seed is not None and type(seed) is not int:
            raise GraphError(f"family seed must be an integer or None, got {seed!r}")
        count, seeded, valid, message, _ = _FAMILIES[tag]
        if seed is not None and not seeded:
            raise GraphError(f"family {tag!r} takes no seed; only "
                             + ", ".join(t for t, row in _FAMILIES.items() if row[1])
                             + " do")
        if len(values) != count:
            raise GraphError(
                f"family {tag!r} takes {count} parameters, got {len(values)}")
        if not valid(*values):
            raise GraphError(message)
        super().__init__(tag, values, seed)

    def rng(self) -> random.Random:
        return random.Random(0 if self.seed is None else self.seed)


def spec_from_cli(tag: str, params, seed=None) -> FamilySpec:
    try:
        values = tuple(integer(p) for p in params)
    except (TypeError, ValueError):
        raise GraphError(f"family parameters must be integers, got {params!r}") from None
    return FamilySpec(tag, values, seed)


def _binom(a: int, b: int) -> int:
    # Combinatorial convention: choosing nothing always counts once, and a
    # negative pool offers nothing else.
    if b == 0:
        return 1
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate(spec: FamilySpec) -> BipGraph:
    """The named graph; same spec and seed always give the same labels."""
    return _FAMILIES[spec.tag][4](*spec.params, spec.rng())


def _cycle_labels(n: int):
    """The names of both classes and the label pairs of the cycle
    v1 e1 v2 e2 ... vn en v1, as lists that the callers may extend."""
    v_names = [f"v{i + 1}" for i in range(n)]
    e_names = [f"e{i + 1}" for i in range(n)]
    adj = []
    for i in range(n):
        adj.append((v_names[i], e_names[i]))
        adj.append((v_names[(i + 1) % n], e_names[i]))
    return v_names, e_names, adj


def _tree(n: int, rng: random.Random) -> BipGraph:
    # Random recursive tree; the colour of a vertex is its depth parity.
    parents = [None] + [rng.randrange(i) for i in range(1, n)]
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parents[i]] + 1
    v_ids = [i for i in range(n) if depth[i] % 2 == 0]
    e_ids = [i for i in range(n) if depth[i] % 2 == 1]
    v_label = {i: f"v{k + 1}" for k, i in enumerate(v_ids)}
    e_label = {i: f"e{k + 1}" for k, i in enumerate(e_ids)}
    adj = []
    for i in range(1, n):
        a, b = i, parents[i]
        if depth[a] % 2 == 1:
            a, b = b, a
        adj.append((v_label[a], e_label[b]))
    return build_bipartite(list(v_label.values()), list(e_label.values()), adj)


def _unicyclic(n: int, extra: int, rng: random.Random) -> BipGraph:
    v_names, e_names, adj = _cycle_labels(n)
    for k in range(extra):
        side = rng.choice(("v", "e"))
        if side == "v":
            anchor = rng.choice(v_names)
            new = f"pe{k + 1}"
            e_names.append(new)
            adj.append((anchor, new))
        else:
            anchor = rng.choice(e_names)
            new = f"pv{k + 1}"
            v_names.append(new)
            adj.append((new, anchor))
    return build_bipartite(v_names, e_names, adj)


def _ladder(n: int) -> BipGraph:
    # Grid with rows 0..n and two columns; colour classes by parity.
    def name(i, j):
        return f"u{i}_{j}"

    v_names, e_names = [], []
    for i in range(n + 1):
        for j in (0, 1):
            (v_names if (i + j) % 2 == 0 else e_names).append(name(i, j))
    adj = []
    for i in range(n + 1):
        pair = (name(i, 0), name(i, 1))
        adj.append(pair if (i % 2 == 0) else (pair[1], pair[0]))
        if i < n:
            for j in (0, 1):
                pair = (name(i, j), name(i + 1, j))
                adj.append(pair if (i + j) % 2 == 0 else (pair[1], pair[0]))
    return build_bipartite(v_names, e_names, adj)


def _require_connected_matching_deletion(m: int, n: int, q: int) -> None:
    """K_{m,n} minus a q-edge matching is disconnected exactly when the
    matching isolates e1 (m = q = 1) or is a perfect matching of K_{2,2};
    otherwise any two V-vertices share a hyperedge and every hyperedge
    keeps a neighbour."""
    if m == q == 1 or m == n == q == 2:
        raise GraphError(f"K_{{{m},{n}}} minus a {q}-matching is disconnected")


def _kmn_minus_matching(m: int, n: int, q: int) -> BipGraph:
    _require_connected_matching_deletion(m, n, q)
    removed = {(f"v{i + 1}", f"e{i + 1}") for i in range(q)}
    v_names = [f"v{i + 1}" for i in range(m)]
    e_names = [f"e{j + 1}" for j in range(n)]
    adj = [(v, e) for v in v_names for e in e_names if (v, e) not in removed]
    return build_bipartite(v_names, e_names, adj)


def _ear_graph(k: int, ears: int, rng: random.Random):
    v_names, e_names, adj = _cycle_labels(k)
    v_set = set(v_names)
    decomposition = []
    for ear in range(ears):
        start = rng.choice(v_names)
        end = rng.choice(e_names)
        length = rng.choice((3, 5))
        inner = (length - 1) // 2
        path = [start]
        # Internal vertices alternate E, V, ..., V so the ear crosses classes
        # and keeps the graph balanced.
        for step in range(2 * inner):
            label = f"r{ear + 1}x{step + 1}"
            if step % 2 == 0:
                e_names.append(label)
            else:
                v_names.append(label)
                v_set.add(label)
            path.append(label)
        path.append(end)
        for a, b in zip(path, path[1:]):
            adj.append((a, b) if a in v_set else (b, a))
        decomposition.append(tuple(path))
    return build_bipartite(v_names, e_names, adj), tuple(decomposition)


# One row per family: the parameter count, whether the builder reads its
# seed, the parameter test, the error it raises, and the builder, which
# generate calls with (*params, rng).
_FAMILIES = {
    "tree": (1, True, lambda n: n >= 2, "a tree needs at least 2 vertices", _tree),
    "cycle": (1, False, lambda n: n >= 2,
              "cycle parameter n (half the length) must be at least 2",
              lambda n, rng: build_bipartite(*_cycle_labels(n))),
    "unicyclic": (2, True, lambda n, extra: n >= 2 and extra >= 0,
                  "unicyclic needs cycle parameter >= 2 and extra >= 0",
                  _unicyclic),
    "ladder": (1, False, lambda n: n >= 1, "ladder parameter n must be at least 1",
               lambda n, rng: _ladder(n)),
    "complete_bipartite": (2, False, lambda m, n: 1 <= m <= n,
                           "complete_bipartite needs 1 <= m <= n",
                           lambda m, n, rng: _kmn_minus_matching(m, n, 0)),
    "kmn_minus_matching": (3, False, lambda m, n, q: 1 <= m <= n and 0 <= q <= m,
                           "kmn_minus_matching needs 1 <= m <= n and 0 <= q <= m",
                           lambda m, n, q, rng: _kmn_minus_matching(m, n, q)),
    "ear_graph": (2, True, lambda k, ears: k >= 2 and ears >= 0,
                  "ear_graph needs cycle parameter >= 2 and ears >= 0",
                  lambda k, ears, rng: _ear_graph(k, ears, rng)[0]),
}

FAMILY_TAGS = tuple(_FAMILIES)


def ear_decomposition(spec: FamilySpec):
    """The ears (as label paths) the seeded generator attached, in order;
    the ``monic_ear`` check of ``verify`` checks that each runs from a
    V-vertex to an E-vertex with odd length through new inner vertices."""
    if spec.tag != "ear_graph":
        raise GraphError("ear_decomposition only applies to ear_graph specs")
    return _ear_graph(spec.params[0], spec.params[1], spec.rng())[1]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def closed_form_interior(spec: FamilySpec) -> IntPoly:
    tag, params = spec.tag, spec.params
    if tag == "tree":
        return IntPoly.one()
    if tag in ("cycle", "unicyclic"):
        n = params[0]
        return IntPoly([1] * n)
    if tag == "ladder":
        return IntPoly([1, 1]) ** params[0]
    if tag in ("complete_bipartite", "kmn_minus_matching"):
        m, n, q = (*params, 0)[:3]  # K_{m,n} is the case q = 0
        _require_connected_matching_deletion(m, n, q)
        coeffs = [_binom(n - 1, i) * _binom(m - 1, i) for i in range(m)]
        if q:  # so m >= 2
            coeffs[1] -= q
        return IntPoly(coeffs)
    raise ClosedFormUnavailable(f"no closed-form interior polynomial for {tag!r}")


def closed_form_exterior(spec: FamilySpec) -> IntPoly:
    tag, params = spec.tag, spec.params
    if tag == "tree":
        return IntPoly.one()
    if tag in ("cycle", "unicyclic"):
        n = params[0]
        return IntPoly([1, n - 1])
    if tag == "ladder":
        return IntPoly([1, 1]) ** params[0]
    if tag in ("complete_bipartite", "kmn_minus_matching"):
        m, n, q = (*params, 0)[:3]  # K_{m,n} is the case q = 0
        _require_connected_matching_deletion(m, n, q)
        if m == 2 and q == 2:
            # The usual correction assumes the adjusted hypertrees are
            # distinct from the single-support ones, which fails here; the
            # formula would produce a negative top coefficient.
            raise ClosedFormUnavailable(
                "the matching-deleted exterior formula degenerates for m = 2, q = 2")
        coeffs = [_binom(m + i - 2, i) for i in range(n)]
        coeffs[n - 1] -= q
        return IntPoly(coeffs)
    raise ClosedFormUnavailable(f"no closed-form exterior polynomial for {tag!r}")
