"""Executable theorem checks over a deterministic corpus.

Each check sweeps a corpus of connected bipartite graphs (an exhaustive
small census, the named family instances, and seeded random graphs) and
returns a :class:`CheckReport`; :func:`run_all_checks` runs any subset of
them.  Corpora are iterated smallest graph first, so the counterexample
attached to a failing report is minimal for the corpus order and can be
replayed in isolation with :func:`replay_counterexample`.  Deliberately
corrupted fixtures are part of the suite (the ``negative_controls`` check)
so a vacuously green harness cannot go unnoticed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations, combinations_with_replacement

from .canonical import MAX_WIDTH, CanonicalForms
from .errors import GraphError
from .graph import (
    BipGraph,
    abstract_dual,
    bits_of,
    components,
    graph_from_json,
    graph_to_json,
    nullity,
)
from .hypertrees import (
    HypertreeSet,
    enumerate_hypertrees,
    hypertrees_by_brute_force,
    is_hypertree_by_polymatroid,
    is_hypertree_by_tree_search,
)
from .families import FamilySpec, ear_decomposition, generate
from .poly import (
    IntPoly,
    MultiGraph,
    exterior_from_tutte,
    exterior_polynomial,
    interior_from_tutte,
    interior_polynomial,
    is_interpolating,
    pair_memo,
    polynomial_pair,
    polynomial_pairs,
    subdivision,
)
from . import transforms

__all__ = [
    "CheckReport",
    "exhaustive_connected_bipartite",
    "family_instances",
    "random_connected_bipartite",
    "default_corpus",
    "tutte_graph_corpus",
    "run_all_checks",
    "replay_counterexample",
    "CHECK_NAMES",
    "CENSUS_CAP",
]


@dataclass
class CheckReport:
    """Outcome of one named check over a corpus."""

    name: str
    corpus: str
    instances: int
    passed: bool
    counterexample: dict | None = field(default=None)
    # Wall time of the check, filled in by run_all_checks; not serialised,
    # so reports stay byte-identical across runs.
    seconds: float = field(default=0.0, compare=False)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "corpus": self.corpus,
            "instances": self.instances,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def _sweep(name: str, desc: str, outcomes) -> CheckReport:
    """The report of a check whose instances are the items of ``outcomes``:
    None for an instance that holds, its counterexample for one that fails.
    The sweep stops at the first counterexample."""
    instances = 0
    for ce in outcomes:
        instances += 1
        if ce is not None:
            return CheckReport(name, desc, instances, False, ce)
    return CheckReport(name, desc, instances, True)


# ---------------------------------------------------------------------------
# Corpus construction
# ---------------------------------------------------------------------------


def _graph_key(g: BipGraph, forms: CanonicalForms) -> tuple:
    # Exact canonicalisation is affordable only while the permuted class is
    # small; beyond that, keep the labelled key (duplicates are harmless).
    if min(g.n_v, g.n_e) <= MAX_WIDTH:
        return forms.bip_key(g.n_v, g.n_e, g.e_masks, g.v_masks)
    return (g.v_names, g.e_names, g.e_masks)


def _labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def exhaustive_connected_bipartite(max_total: int = 9) -> list[BipGraph]:
    """Every connected bipartite graph with |V| + |E| <= max_total, one
    representative per isomorphism class (classes distinguished): the one
    whose sorted tuple of hyperedge masks comes first."""
    forms = CanonicalForms()
    out = []
    # The graphs of a (|V|, |E|) cell share one pair of label tuples, and all
    # cells share the strings: run_all_checks keeps every graph alive.
    v_labels, e_labels = _labels("v", max_total), _labels("e", max_total)
    for n_v in range(1, max_total):
        for n_e in range(1, max_total - n_v + 1):
            v_names, e_names = v_labels[:n_v], e_labels[:n_e]
            all_e, all_v = (1 << n_e) - 1, (1 << n_v) - 1
            seen = set()
            for combo in combinations_with_replacement(range(1, 1 << n_v), n_e):
                if components(combo, all_e, all_v) != 1:
                    continue
                key = forms.bip_key(n_v, n_e, combo)
                if key in seen:
                    continue
                seen.add(key)
                out.append(BipGraph(v_names, e_names, [
                    (v, e) for e, mask in enumerate(combo) for v in bits_of(mask)]))
    return out


def family_instances() -> list[BipGraph]:
    """The desk-scale family instances exercised by the closed-form oracles."""
    specs = []
    specs += [FamilySpec("cycle", (n,)) for n in range(2, 8)]
    specs += [FamilySpec("ladder", (n,)) for n in range(1, 7)]
    for m in range(2, 5):
        for n in range(m, 6):
            specs.append(FamilySpec("complete_bipartite", (m, n)))
            for q in range(1, m + 1):
                if (m, n, q) == (2, 2, 2):
                    continue  # that one is disconnected
                specs.append(FamilySpec("kmn_minus_matching", (m, n, q)))
    specs += [FamilySpec("unicyclic", (2, 4), seed=11),
              FamilySpec("unicyclic", (3, 6), seed=12),
              FamilySpec("unicyclic", (4, 8), seed=13),
              FamilySpec("tree", (7,), seed=5),
              FamilySpec("tree", (9,), seed=6),
              FamilySpec("ear_graph", (2, 2), seed=1),
              FamilySpec("ear_graph", (3, 1), seed=2)]
    return [generate(s) for s in specs]


def _wilson_spanning_tree(rng: random.Random, n_v: int, n_e: int):
    """Uniform spanning tree of the complete bipartite graph, by loop-erased
    random walks."""
    total = n_v + n_e

    def random_step(node):
        if node < n_v:
            return n_v + rng.randrange(n_e)
        return rng.randrange(n_v)

    in_tree = [False] * total
    in_tree[0] = True
    succ = [None] * total
    edges = set()
    for start in range(1, total):
        node = start
        while not in_tree[node]:
            succ[node] = random_step(node)
            node = succ[node]
        node = start
        while not in_tree[node]:
            in_tree[node] = True
            nxt = succ[node]
            pair = (node, nxt - n_v) if node < n_v else (nxt, node - n_v)
            edges.add(pair)
            node = nxt
    return edges


def random_connected_bipartite(count: int = 50, max_total: int = 14,
                               seed: int = 0) -> list[BipGraph]:
    """Seeded random model: class sizes, a uniform spanning tree, then each
    remaining allowed edge independently with probability 1/3."""
    if max_total < 2:
        raise GraphError("random graphs need at least one vertex per class")
    rng = random.Random(f"{seed}:random-corpus")
    out = []
    for _ in range(count):
        total = rng.randint(min(4, max_total), max_total)
        n_v = rng.randint(1, total - 1)
        n_e = total - n_v
        edges = _wilson_spanning_tree(rng, n_v, n_e)
        for v in range(n_v):
            for e in range(n_e):
                if (v, e) not in edges and rng.random() < 1 / 3:
                    edges.add((v, e))
        out.append(BipGraph(_labels("v", n_v), _labels("e", n_e), edges))
    return out


def default_corpus(seed: int = 0, max_total: int = 9, random_count: int = 50,
                   random_max_total: int = 14) -> list[BipGraph]:
    """Census + family instances + seeded random graphs, deduplicated and
    sorted smallest first."""
    graphs = (exhaustive_connected_bipartite(max_total)
              + family_instances()
              + random_connected_bipartite(random_count, random_max_total, seed))
    forms = CanonicalForms()
    seen = set()
    unique = []
    for g in graphs:
        key = _graph_key(g, forms)
        if key not in seen:
            seen.add(key)
            unique.append(g)
    unique.sort(key=lambda g: (g.n_v + g.n_e, g.n_edges, g.n_v,
                               sorted(g.e_masks)))
    return unique


def _corpus_desc(corpus) -> str:
    total = len(corpus)
    largest = max((g.n_v + g.n_e for g in corpus), default=0)
    return f"{total} connected bipartite graphs, largest |V|+|E| = {largest}"


# ---------------------------------------------------------------------------
# Checks.  Each property is asserted by one instance function, which returns
# None or the counterexample of that instance; the sweeps of run_all_checks
# and replay_counterexample both call it.
# ---------------------------------------------------------------------------


def _counterexample(kind: str, **fields) -> dict:
    """The counterexample of a failing instance: its ``kind``, then
    ``fields`` in the order given, with graphs, polynomials, hypertree sets
    and sequences of them in their JSON form."""
    def plain(value):
        if isinstance(value, BipGraph):
            return graph_to_json(value)
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        return value.to_json() if hasattr(value, "to_json") else value

    return {"kind": kind, **{key: plain(value) for key, value in fields.items()}}


def _enumeration(g: BipGraph):
    found = enumerate_hypertrees(g)
    brute_tree = hypertrees_by_brute_force(g, "tree")
    brute_poly = hypertrees_by_brute_force(g, "polymatroid")
    if not found == brute_tree == brute_poly:
        return _counterexample("enumeration", graph=g, enumeration=found,
                               brute_force_tree=brute_tree,
                               brute_force_polymatroid=brute_poly,
                               detail="the three hypertree enumerations disagree")
    engine = polynomial_pair(g)
    probed = (interior_polynomial(g, hypertrees=brute_poly),
              exterior_polynomial(g, hypertrees=brute_poly))
    if engine == probed:
        return None
    return _counterexample("enumeration", mode="activity", graph=g,
                           engine_interior=engine[0], probe_interior=probed[0],
                           engine_exterior=engine[1], probe_exterior=probed[1],
                           detail="inactivities read off the enumeration engine "
                                  "disagree with membership probes of the "
                                  "polymatroid scan")


def _interpolating(g: BipGraph, which: str):
    poly = (interior_polynomial if which == "interior" else exterior_polynomial)(g)
    if is_interpolating(poly) and poly.coeff(0) != 0:
        return None
    return _counterexample("interpolating", graph=g, polynomial=poly, which=which,
                           detail=f"{which} polynomial support has a gap")


def _components_without(g: BipGraph, removed) -> int:
    """Components left after deleting vertices; V-vertex ``i`` is node ``i``
    and E-vertex ``e`` is node ``g.n_v + e``."""
    v_out = e_out = 0
    for node in removed:
        if node < g.n_v:
            v_out |= 1 << node
        else:
            e_out |= 1 << (node - g.n_v)
    masks = [m & ~v_out for m in g.e_masks]
    return components(masks, ((1 << g.n_e) - 1) & ~e_out, ((1 << g.n_v) - 1) & ~v_out)


def _cut_pairs(g: BipGraph, side: str):
    """Same-class pairs whose removal disconnects the rest, with the
    component counts; pairs in lexicographic index order."""
    size = g.n_v if side == "v" else g.n_e
    offset = 0 if side == "v" else g.n_v
    out = []
    for a, b in combinations(range(size), 2):
        t = _components_without(g, (offset + a, offset + b))
        if t >= 2:
            out.append(((a, b), t))
    return out


def _disjoint_greedy(pairs):
    chosen, used = [], set()
    for (a, b), t in pairs:
        if a in used or b in used:
            continue
        chosen.append(((a, b), t))
        used.update((a, b))
    return chosen


def _degree_bounds(g: BipGraph):
    poly = interior_polynomial(g)
    deg = poly.degree
    basic = min(g.n_e - 1, g.n_v - 1)
    fail = partial(_counterexample, "degree_bound", graph=g, interior=poly)
    if deg > basic:
        return fail(bound=basic, detail="basic degree bound violated")
    e_cuts = _cut_pairs(g, "e")
    v_cuts = _cut_pairs(g, "v")
    for (_, t) in e_cuts:
        bound = min(g.n_e - 1, g.n_v - t + 1)
        if deg > bound:
            return fail(bound=bound, detail="two-cut bound violated (cut in E)")
    for (_, t) in v_cuts:
        bound = min(g.n_v - 1, g.n_e - t + 1)
        if deg > bound:
            return fail(bound=bound, detail="two-cut bound violated (cut in V)")
    if g.n_v == g.n_e:
        n = g.n_v
        if any(t >= 3 for _, t in e_cuts + v_cuts) and poly.coeff(n - 1) != 0:
            return fail(bound=n - 1,
                        detail="top coefficient must vanish for a 3-way two-cut")
    # Disjoint collections of cuts; only asserted when strictly stronger.
    v_chosen = _disjoint_greedy(v_cuts)
    e_chosen = _disjoint_greedy(e_cuts)
    t_sum = sum(t for _, t in v_chosen)
    k_sum = sum(t for _, t in e_chosen)
    general = min(g.n_e - t_sum + 2 * len(v_chosen) - 1,
                  g.n_v - k_sum + 2 * len(e_chosen) - 1)
    if general < basic and deg > general:
        return fail(bound=general, detail="disjoint-pairs degree bound violated")
    return None


def _linear_coefficients(g: BipGraph):
    interior, exterior = polynomial_pair(g)
    fail = partial(_counterexample, "linear_coefficient", graph=g)
    if interior.coeff(0) != 1:
        return fail(polynomial=interior, detail="interior constant term is not 1")
    if exterior.coeff(0) != 1:
        return fail(polynomial=exterior, detail="exterior constant term is not 1")
    if interior.coeff(1) != nullity(g):
        return fail(polynomial=interior, detail="interior linear coefficient differs "
                                                f"from the nullity {nullity(g)}")
    if g.n_e >= 2 and all(
            _components_without(g, (g.n_v + e,)) == 1 for e in range(g.n_e)):
        if exterior.coeff(1) != g.n_v - 1:
            return fail(polynomial=exterior, detail="exterior linear coefficient "
                                                    f"differs from |V| - 1 = {g.n_v - 1}")
    return None


def _order_invariance(g: BipGraph, order, base, other):
    """``base`` and ``other`` are the polynomials of ``g`` in the default
    order and in ``order``."""
    if other == base:
        return None
    return _counterexample("invariance", mode="order", graph=g, order=order,
                           default_interior=base[0], other_interior=other[0],
                           default_exterior=base[1], other_exterior=other[1],
                           detail="polynomials depend on the order")


def _dual_invariance(g: BipGraph):
    base_interior = polynomial_pair(g)[0]
    dual_interior = interior_polynomial(abstract_dual(g))
    if dual_interior == base_interior:
        return None
    return _counterexample("invariance", mode="dual", graph=g, order=None,
                           default_interior=base_interior, other_interior=dual_interior,
                           detail="interior polynomial differs on the abstract dual")


def _exterior_asymmetry(g: BipGraph):
    if exterior_polynomial(g) != exterior_polynomial(abstract_dual(g)):
        return None
    return _counterexample("invariance", mode="asymmetry", graph=g, order=None,
                           detail="expected exterior asymmetry between the two "
                                  "classes is missing")


def _invariance_check(corpus, seed: int, orders_per_graph: int):
    """Both polynomials are order-independent: the pair under each shuffled
    order equals the pair in the input order, counted by the other engine
    wherever the graph is small enough for the fibre search.  The interior
    polynomial is also invariant under the abstract dual.  The exterior
    polynomial is allowed to differ between the two classes, and the
    recorded asymmetry witness (both sides of the complete bipartite graph
    on 2 + 3 vertices) must actually differ."""
    rng = random.Random(f"{seed}:invariance")

    def outcomes():
        for g in corpus:
            orders = []
            for _ in range(orders_per_graph):
                order = list(range(g.n_e))
                rng.shuffle(order)
                orders.append(order)
            # With None first this call always has several orders, so it
            # takes the walk even where polynomial_pair's one order takes
            # the fibre search (see hypertrees.hypertrees_with_inactivity).
            base = polynomial_pair(g)
            _, *others = polynomial_pairs(g, [None] + orders)
            for order, other in zip(orders, others):
                yield _order_invariance(g, order, base, other)
            yield _dual_invariance(g)
        yield _exterior_asymmetry(generate(FamilySpec("complete_bipartite", (2, 3))))

    return _corpus_desc(corpus), outcomes()


def _pendant(g: BipGraph, label: str):
    if polynomial_pair(transforms.delete_valence1(g, label)) == polynomial_pair(g):
        return None
    return _counterexample("recursion", mode="pendant", graph=g,
                           detail=f"pendant removal at {label!r} changed a polynomial",
                           vertex=label)


def _deletion_contraction(g: BipGraph, label: str):
    """At the valence-2 vertex ``label``; the exterior rule is asserted only
    at a hyperedge."""
    interior, exterior = polynomial_pair(g)
    deleted = transforms.delete_vertex(g, label)
    contracted = transforms.contract_vertex(g, label)
    if interior != interior_polynomial(deleted) + interior_polynomial(contracted).shift(1):
        which = "interior"
    elif label not in g.v_names and exterior != (exterior_polynomial(deleted).shift(1)
                                                 + exterior_polynomial(contracted)):
        which = "exterior"
    else:
        return None
    return _counterexample("recursion", mode="deletion_contraction", graph=g,
                           detail=f"{which} deletion/contraction fails at {label!r}",
                           vertex=label)


def _join(g1: BipGraph, g2: BipGraph, how: str):
    """Glue the first V-vertex (``how`` "v"), the first E-vertex ("e") or
    the first edge ("edge") of each graph; both polynomials multiply."""
    if how == "edge":
        (v1, e1), (v2, e2) = sorted(g1.adj)[0], sorted(g2.adj)[0]
        joined = transforms.edge_join(g1, g2, (g1.v_names[v1], g1.e_names[e1]),
                                      (g2.v_names[v2], g2.e_names[e2]))
    elif how == "v":
        joined = transforms.one_point_join(g1, g2, g1.v_names[0], g2.v_names[0])
    else:
        joined = transforms.one_point_join(g1, g2, g1.e_names[0], g2.e_names[0])
    (i1, x1), (i2, x2) = polynomial_pair(g1), polynomial_pair(g2)
    if polynomial_pair(joined) == (i1 * i2, x1 * x2):
        return None
    return _counterexample("recursion", mode="join", graph=joined,
                           detail="join product identity fails", factors=(g1, g2),
                           join=how)


def _parallel_pair(g: BipGraph, e1: str, e2: str, t: int):
    i_q = interior_polynomial(transforms.identify_pair(g, e1, e2))
    i_t = interior_polynomial(transforms.add_parallel_pair_vertices(g, e1, e2, t))
    if interior_polynomial(g) == i_t - (t * i_q).shift(1):
        return None
    return _counterexample("recursion", mode="parallel_pair", graph=g,
                           detail=f"parallel-pair identity fails for t={t}",
                           pair=(e1, e2), t=t)


def _decomposition(g: BipGraph):
    fail = partial(_counterexample, "recursion", mode="decomposition", graph=g)
    total = IntPoly.zero()
    for term in transforms.balanced_decomposition(g):
        if term.graph.n_v != term.graph.n_e:
            return fail(detail="decomposition emitted an unbalanced graph")
        total = total + (term.coefficient * interior_polynomial(term.graph)
                         ).shift(term.exponent)
    if total == interior_polynomial(g):
        return None
    return fail(detail="balanced decomposition does not reassemble")


def _recursions_check(corpus, seed: int, orders_per_graph: int):
    """Pendant insensitivity, the valence-2 deletion/contraction rules, join
    multiplicativity on sampled pairs, the parallel-pair identity, and the
    balanced-decomposition reassembly.  Removing a leaf keeps a connected
    graph connected; deleting a valence-2 vertex need not."""
    rng = random.Random(f"{seed}:recursions")

    def outcomes():
        for g in corpus:
            for node, label in enumerate(g.v_names + g.e_names):
                on_v = node < g.n_v
                if not on_v and label in g.v_names:
                    continue  # the surgeries resolve this label to the V-vertex
                if (g.n_v if on_v else g.n_e) < 2:
                    continue  # the surgery would empty its class
                degree = g.deg_v(node) if on_v else g.deg_e(node - g.n_v)
                if degree == 1:
                    yield _pendant(g, label)
                if degree == 2 and _components_without(g, (node,)) == 1:
                    yield _deletion_contraction(g, label)
        small = [g for g in corpus if g.n_v + g.n_e <= 6]
        for _ in range(min(20, len(small) * (len(small) + 1) // 2)):
            g1, g2 = rng.choice(small), rng.choice(small)
            for how in ("v", "e", "edge"):
                if how == "e" and (g1.e_names[0] in g1.v_names
                                   or g2.e_names[0] in g2.v_names):
                    continue  # as above: the label would name a V-vertex
                yield _join(g1, g2, how)
        # Identifying two hyperedges keeps a connected graph connected.
        for g in [h for h in corpus if h.n_e >= 2 and h.n_v + h.n_e <= 7][:60]:
            for t in (1, 2):
                yield _parallel_pair(g, g.e_names[0], g.e_names[1], t)
        for g in [h for h in corpus if 0 <= h.n_e - h.n_v <= 3 and h.n_v + h.n_e <= 8][:150]:
            yield _decomposition(g)

    return _corpus_desc(corpus), outcomes()


def _connected_simple_graphs(max_vertices: int, max_edges: int):
    """All connected simple graphs up to isomorphism with the given caps, one
    per canonical form of the edges as two-bit vertex masks."""
    forms = CanonicalForms()
    out = []
    for n in range(2, max_vertices + 1):
        all_pairs = list(combinations(range(n), 2))
        seen = set()
        for m in range(n - 1, max_edges + 1):
            if m > len(all_pairs):
                break
            for chosen in combinations(all_pairs, m):
                mg = MultiGraph(n, chosen)
                if not mg.connected:
                    continue
                key = forms.form(n, [1 << u | 1 << v for u, v in chosen])
                if key in seen:
                    continue
                seen.add(key)
                out.append(mg)
    return out


# Seeded random graphs added to the Tutte corpus after the exhaustive part.
_TUTTE_SAMPLE = 25


def tutte_graph_corpus(seed: int = 0) -> list[MultiGraph]:
    """Ordinary graphs for the Tutte cross-check: every connected simple
    graph on up to 5 vertices with at most 7 edges, named 6- and 7-cycles
    and paths, plus a seeded random sample (all within 7 edges)."""
    graphs = _connected_simple_graphs(5, 7)
    graphs += [MultiGraph.cycle(6), MultiGraph.cycle(7),
               MultiGraph.path(7), MultiGraph.path(8), MultiGraph.star(6)]
    rng = random.Random(f"{seed}:tutte-corpus")
    for _ in range(_TUTTE_SAMPLE):
        n = rng.randint(3, 7)
        edges = {tuple(sorted((i, rng.randrange(i)))) for i in range(1, n)}
        spare = [p for p in combinations(range(n), 2) if p not in edges]
        rng.shuffle(spare)
        budget = min(7 - len(edges), len(spare))
        for extra in spare[:rng.randint(0, max(0, budget))]:
            edges.add(extra)
        graphs.append(MultiGraph(n, sorted(edges)))
    return graphs


def _tutte(mg: MultiGraph):
    pipeline_i, pipeline_x = polynomial_pair(subdivision(mg))
    oracle_i = interior_from_tutte(mg)
    oracle_x = exterior_from_tutte(mg)
    if pipeline_i == oracle_i and pipeline_x == oracle_x:
        return None
    return _counterexample("tutte",
                           multigraph={"n": mg.n, "edges": [list(e) for e in mg.edges]},
                           pipeline_interior=pipeline_i, tutte_interior=oracle_i,
                           pipeline_exterior=pipeline_x, tutte_exterior=oracle_x,
                           detail="subdivision pipeline disagrees with the Tutte "
                                  "specialization")


def _tutte_check(corpus, seed: int, orders_per_graph: int):
    """The hypertree pipeline on the subdivision must match both Tutte
    specializations for every ordinary graph of :func:`tutte_graph_corpus`;
    the bipartite corpus is not used."""
    graphs = tutte_graph_corpus(seed=seed)
    return (f"{len(graphs)} connected simple graphs with at most 7 edges",
            map(_tutte, graphs))


def _ear_fault(g: BipGraph, ears):
    """Why ``ears`` fails the monic theorem's hypothesis on ``g``, or None.
    Each ear must have an odd number of edges and run from a V-vertex to an
    E-vertex along edges of ``g``.  Its inner vertices must be new: the cycle
    is what lies inside no ear, and each ear joins two vertices already
    there by inner vertices not seen before."""
    v_pos = {name: i for i, name in enumerate(g.v_names)}
    e_pos = {name: i for i, name in enumerate(g.e_names)}
    old = set(g.v_names + g.e_names).difference(*(ear[1:-1] for ear in ears))
    for i, ear in enumerate(ears, 1):
        inner = ear[1:-1]
        if len(ear) % 2:
            return f"ear {i} has an even number of edges"
        if ear[0] not in v_pos or ear[-1] not in e_pos:
            return f"ear {i} does not run from a V-vertex to an E-vertex"
        if not all(v in v_pos and e in e_pos and g.e_masks[e_pos[e]] >> v_pos[v] & 1
                   for v, e in [*zip(ear[::2], ear[1::2]), *zip(ear[2::2], ear[1::2])]):
            return f"ear {i} steps between vertices that are not adjacent"
        if not {ear[0], ear[-1]} <= old or len(set(inner)) < len(inner) or old & set(inner):
            return f"ear {i} does not attach new inner vertices to the graph before it"
        old.update(inner)
    return None


def _monic_ear(spec: FamilySpec):
    g, ears = generate(spec), ear_decomposition(spec)
    n = g.n_v
    poly = interior_polynomial(g)
    fault = _ear_fault(g, ears)
    if fault is None and g.n_v == g.n_e and poly.coeff(n - 1) == 1 and poly.degree == n - 1:
        return None
    k, count = spec.params
    return _counterexample("monic", mode="ear", graph=g, params=spec.params,
                           seed=spec.seed, ears=ears, interior=poly,
                           detail=fault or (f"ear graph (k={k}, ears={count}, "
                                            f"seed={spec.seed}) is not monic of "
                                            f"degree {n - 1}"))


def _monic_cap(g: BipGraph):
    poly = interior_polynomial(g)
    if poly.coeff(g.n_v - 1) <= 1:
        return None
    return _counterexample("monic", mode="cap", graph=g, interior=poly,
                           detail="balanced graph with top coefficient above 1")


# The seeds, and per seed the (cycle parameter, ears), of the ear graphs the
# monic_ear check grows.
_EAR_SEEDS = (0, 1, 2)
_EAR_SIZES = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))


def _monic_ear_check(corpus, seed: int, orders_per_graph: int):
    """Seeded ear graphs, whose ears meet the theorem's hypothesis, have a
    monic interior polynomial of degree n - 1; balanced corpus graphs never
    exceed top coefficient 1."""
    desc = (f"{len(_EAR_SEEDS) * len(_EAR_SIZES)} seeded ear graphs"
            + (f" + {len(corpus)} corpus graphs" if corpus else ""))
    specs = (FamilySpec("ear_graph", size, seed=s) for s in _EAR_SEEDS for size in _EAR_SIZES)
    return desc, chain(map(_monic_ear, specs),
                       (_monic_cap(g) for g in corpus if g.n_v == g.n_e))


def _corrupted_polynomial():
    gapped = IntPoly([1, 0, 1])
    if not (is_interpolating(gapped) and gapped.coeff(0) != 0):
        return None
    return _counterexample("negative_control", control="corrupted_polynomial",
                           detail="the gapped polynomial 1 + x^2 passed the support check",
                           polynomial=gapped)


def _corrupted_hypertree():
    c6, bogus = generate(FamilySpec("cycle", (3,))), (0, 0, 2)
    if not (is_hypertree_by_tree_search(c6, bogus) or is_hypertree_by_polymatroid(c6, bogus)):
        return None
    return _counterexample("negative_control", control="corrupted_hypertree",
                           detail="an out-of-box vector was accepted as a hypertree",
                           graph=c6, hypertree=bogus)


def _corrupted_hypertree_set():
    c6 = generate(FamilySpec("cycle", (3,)))
    true_set = hypertrees_by_brute_force(c6, "tree")
    with_extra = HypertreeSet(list(true_set) + [(0, 0, 2)])
    missing = HypertreeSet([f for f in true_set if f != (0, 1, 1)])
    if not (with_extra == true_set or missing == true_set):
        return None
    return _counterexample("negative_control", control="corrupted_hypertree_set",
                           detail="a tampered hypertree set compared equal to the oracle",
                           graph=c6)


_CONTROLS = {
    "corrupted_polynomial": _corrupted_polynomial,
    "corrupted_hypertree": _corrupted_hypertree,
    "corrupted_hypertree_set": _corrupted_hypertree_set,
}


# Every check, in the order run_all_checks runs them (the enumeration-oracle
# gate first), as a function of (corpus, seed, orders per graph) that gives
# the description of what the check sweeps and its instance outcomes: None
# for an instance that holds, its counterexample for one that fails.
_CHECKS = {
    # The enumeration matches both brute-force box scans (tree search and
    # polymatroid filter), and the input-order polynomials read off the same
    # engine match those counted by membership probes of the polymatroid
    # scan.  No seed-7 corpus graph exceeds the fibre search's cap, so there
    # this gate sees only the search; invariance holds the walk to it.
    "enumeration_oracles": lambda corpus, seed, orders: (
        _corpus_desc(corpus), map(_enumeration, corpus)),
    # The supports of I and X are gap-free initial intervals [0, d].
    "interpolating": lambda corpus, seed, orders: (
        _corpus_desc(corpus), (_interpolating(g, which) for g in corpus
                               for which in ("interior", "exterior"))),
    # The degree of I against the basic bound, the two-vertex-cut
    # strengthening, the vanishing-top corollary for balanced graphs, and
    # (when it binds) the disjoint-pairs generalization.
    "degree_bounds": lambda corpus, seed, orders: (
        _corpus_desc(corpus), map(_degree_bounds, corpus)),
    # Constant terms are 1; [x^1] I is the nullity; when removing any single
    # hyperedge keeps the graph connected, [y^1] X is |V| - 1.
    "linear_coefficients": lambda corpus, seed, orders: (
        _corpus_desc(corpus), map(_linear_coefficients, corpus)),
    "invariance": _invariance_check,
    "recursions": _recursions_check,
    "monic_ear": _monic_ear_check,
    "tutte": _tutte_check,
    # Corrupted fixtures must fail their validations; one that slips
    # through fails the check.
    "negative_controls": lambda corpus, seed, orders: (
        f"{len(_CONTROLS)} deliberately corrupted fixtures",
        (control() for control in _CONTROLS.values())),
}
CHECK_NAMES = tuple(_CHECKS)


# Cap on the census size of run_all_checks.  On a 2-core CPython 3.11 host the
# full suite (seed 7) takes about 7 s at max_total 9 (1,959 corpus graphs) and
# 62 s at 10 (9,748), of which building the corpus is 0.8 s and 14 s.
CENSUS_CAP = 9


def run_all_checks(seed: int = 0, corpus=None, orders_per_graph: int = 20,
                   max_total: int = 9, random_count: int = 50,
                   random_max_total: int = 14, names=None,
                   progress=None, on_corpus=None) -> list[CheckReport]:
    """Run the named checks (all when ``names`` is None) over one shared
    corpus, in table order, so the enumeration-oracle gate runs first.  An
    empty or unknown selection, parameters that would silently skip checks,
    or a census above :data:`CENSUS_CAP` are rejected with
    :class:`GraphError`.  ``progress`` is called with each report as it is
    made, and ``on_corpus`` with the corpus and the seconds it took when the
    corpus is built here."""
    if orders_per_graph < 1:
        raise GraphError(f"orders per graph must be at least 1, got {orders_per_graph}")
    if random_count < 0:
        raise GraphError(f"random graph count must be non-negative, got {random_count}")
    if max_total < 2 or random_max_total < 2:
        raise GraphError("corpus sizes |V| + |E| must be at least 2, got "
                         f"{max_total} and {random_max_total}")
    if max_total > CENSUS_CAP:
        raise GraphError(f"census size |V| + |E| <= {max_total} is above the cap "
                         f"of {CENSUS_CAP}; at 10 the full suite already takes "
                         f"about 60 s")
    selected = CHECK_NAMES if names is None else tuple(names)
    if not selected:
        raise GraphError("no check selected; pass names=None to run them all")
    for n in selected:
        if n not in _CHECKS:
            raise GraphError(f"unknown check {n!r}")
    if corpus is None:
        start = time.perf_counter()
        corpus = default_corpus(seed=seed, max_total=max_total,
                                random_count=random_count,
                                random_max_total=random_max_total)
        if on_corpus is not None:
            on_corpus(corpus, time.perf_counter() - start)
    reports = []
    # The checks ask for the input-order polynomials of most corpus graphs
    # several times; count each once for this run only.
    with pair_memo():
        for check_name, check in _CHECKS.items():
            if check_name not in selected:
                continue
            start = time.perf_counter()
            report = _sweep(check_name, *check(corpus, seed, orders_per_graph))
            report.seconds = time.perf_counter() - start
            reports.append(report)
            if progress is not None:
                progress(report)
    return reports


# (kind, mode) of a counterexample -> its instance, rebuilt from the graph the
# counterexample records (None when it records none) and its other fields.
_REPLAY = {
    ("enumeration", None): lambda g, ce: _enumeration(g),
    ("enumeration", "activity"): lambda g, ce: _enumeration(g),
    ("interpolating", None): lambda g, ce: _interpolating(g, ce["which"]),
    ("degree_bound", None): lambda g, ce: _degree_bounds(g),
    ("linear_coefficient", None): lambda g, ce: _linear_coefficients(g),
    ("invariance", "order"): lambda g, ce: _order_invariance(
        g, ce["order"], polynomial_pair(g),
        polynomial_pairs(g, [None, ce["order"]])[1]),
    ("invariance", "dual"): lambda g, ce: _dual_invariance(g),
    ("invariance", "asymmetry"): lambda g, ce: _exterior_asymmetry(g),
    ("recursion", "pendant"): lambda g, ce: _pendant(g, ce["vertex"]),
    ("recursion", "deletion_contraction"):
        lambda g, ce: _deletion_contraction(g, ce["vertex"]),
    ("recursion", "join"):
        lambda g, ce: _join(*map(graph_from_json, ce["factors"]), ce["join"]),
    ("recursion", "parallel_pair"): lambda g, ce: _parallel_pair(g, *ce["pair"], ce["t"]),
    ("recursion", "decomposition"): lambda g, ce: _decomposition(g),
    ("monic", "ear"): lambda g, ce: _monic_ear(
        FamilySpec("ear_graph", ce["params"], ce["seed"])),
    ("monic", "cap"): lambda g, ce: _monic_cap(g),
    ("tutte", None): lambda g, ce: _tutte(MultiGraph(
        ce["multigraph"]["n"], [tuple(e) for e in ce["multigraph"]["edges"]])),
    ("negative_control", None): lambda g, ce: _CONTROLS[ce["control"]](),
}


def replay_counterexample(counterexample: dict) -> bool:
    """Rebuild the instance behind a counterexample and run the instance
    function that made it again; True means the failure reproduces."""
    kind, mode = counterexample.get("kind"), counterexample.get("mode")
    replay = _REPLAY.get((kind, mode))
    if replay is None:
        raise GraphError(f"cannot replay counterexample of kind {kind!r}"
                         + (f" in mode {mode!r}" if mode is not None else ""))
    graph = counterexample.get("graph")
    g = graph_from_json(graph) if graph is not None else None
    return replay(g, counterexample) is not None
