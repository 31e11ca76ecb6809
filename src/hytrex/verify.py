"""Executable theorem checks over a deterministic corpus.

Each check sweeps a corpus of connected bipartite graphs (an exhaustive
small census, the named family instances, and seeded random graphs) and
returns a :class:`CheckReport`.  Corpora are iterated smallest graph first,
so the counterexample attached to a failing report is minimal for the
corpus order and can be replayed in isolation with
:func:`replay_counterexample`.  Deliberately corrupted fixtures are part of
the suite (``check_negative_controls``) so a vacuously green harness cannot
go unnoticed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

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
from .families import FamilySpec, generate
from .poly import (
    IntPoly,
    MultiGraph,
    exterior_from_tutte,
    exterior_polynomial,
    interior_from_tutte,
    interior_polynomial,
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
    "check_enumeration_oracles",
    "check_interpolating",
    "check_degree_bounds",
    "check_linear_coefficients",
    "check_invariance",
    "check_recursions",
    "check_tutte",
    "check_monic_ear",
    "check_negative_controls",
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


def _fail(name, corpus, instances, ce) -> CheckReport:
    return CheckReport(name, corpus, instances, False, ce)


def _ok(name, corpus, instances) -> CheckReport:
    return CheckReport(name, corpus, instances, True)


# ---------------------------------------------------------------------------
# Corpus construction
# ---------------------------------------------------------------------------


def _graph_key(g: BipGraph, forms: CanonicalForms) -> tuple:
    # Exact canonicalisation is affordable only while the permuted class is
    # small; beyond that, keep the labelled key (duplicates are harmless).
    if min(g.n_v, g.n_e) <= MAX_WIDTH:
        return forms.bip_key(g.n_v, g.n_e, g.e_masks, g.v_masks)
    return (g.v_names, g.e_names, g.adj)


def _graph_from_masks(n_v: int, e_masks) -> BipGraph:
    v_names = [f"v{i + 1}" for i in range(n_v)]
    e_names = [f"e{j + 1}" for j in range(len(e_masks))]
    pairs = [(v, e) for e, mask in enumerate(e_masks) for v in bits_of(mask)]
    return BipGraph(v_names, e_names, pairs)


def exhaustive_connected_bipartite(max_total: int = 9) -> list[BipGraph]:
    """Every connected bipartite graph with |V| + |E| <= max_total, one
    representative per isomorphism class (classes distinguished): the one
    whose sorted tuple of hyperedge masks comes first."""
    forms = CanonicalForms()
    out = []
    for n_v in range(1, max_total):
        for n_e in range(1, max_total - n_v + 1):
            all_e, all_v = (1 << n_e) - 1, (1 << n_v) - 1
            seen = set()
            for combo in combinations_with_replacement(range(1, 1 << n_v), n_e):
                if components(combo, all_e, all_v) != 1:
                    continue
                key = forms.bip_key(n_v, n_e, combo)
                if key in seen:
                    continue
                seen.add(key)
                out.append(_graph_from_masks(n_v, combo))
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
        out.append(_graph_from_masks(
            n_v, [sum(1 << v for v in range(n_v) if (v, e) in edges)
                  for e in range(n_e)]))
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
# Checks
# ---------------------------------------------------------------------------


def check_enumeration_oracles(corpus) -> CheckReport:
    """Transfer-closure enumeration must match both brute-force box scans
    (tree-search filter and polymatroid filter) on every graph."""
    name, desc = "enumeration_oracles", _corpus_desc(corpus)
    instances = 0
    for g in corpus:
        bfs = enumerate_hypertrees(g)
        brute_tree = hypertrees_by_brute_force(g, "tree")
        brute_poly = hypertrees_by_brute_force(g, "polymatroid")
        instances += 1
        if not (bfs == brute_tree == brute_poly):
            ce = {
                "kind": "enumeration",
                "graph": graph_to_json(g),
                "transfer_closure": bfs.to_json(),
                "brute_force_tree": brute_tree.to_json(),
                "brute_force_polymatroid": brute_poly.to_json(),
                "detail": "the three hypertree enumerations disagree",
            }
            return _fail(name, desc, instances, ce)
    return _ok(name, desc, instances)


def _support_is_initial_interval(p: IntPoly) -> bool:
    return bool(p.coeffs) and all(c != 0 for c in p.coeffs)


def check_interpolating(corpus) -> CheckReport:
    """Supports of the interior and exterior polynomials must be gap-free
    initial intervals [0, d]."""
    name, desc = "interpolating", _corpus_desc(corpus)
    instances = 0
    for g in corpus:
        b = enumerate_hypertrees(g)
        for which, poly in (("interior", interior_polynomial(g, hypertrees=b)),
                            ("exterior", exterior_polynomial(g, hypertrees=b))):
            instances += 1
            if not _support_is_initial_interval(poly):
                ce = {
                    "kind": "interpolating",
                    "graph": graph_to_json(g),
                    "polynomial": poly.to_json(),
                    "which": which,
                    "detail": f"{which} polynomial support has a gap",
                }
                return _fail(name, desc, instances, ce)
    return _ok(name, desc, instances)


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


def check_degree_bounds(corpus) -> CheckReport:
    """Degree of the interior polynomial against the basic bound, the
    two-vertex-cut strengthening, the vanishing-top corollary for balanced
    graphs, and (when it binds) the disjoint-pairs generalization."""
    name, desc = "degree_bounds", _corpus_desc(corpus)
    instances = 0
    for g in corpus:
        poly = interior_polynomial(g)
        deg = poly.degree
        basic = min(g.n_e - 1, g.n_v - 1)
        instances += 1

        def ce(detail, bound):
            return {
                "kind": "degree_bound",
                "graph": graph_to_json(g),
                "interior": poly.to_json(),
                "bound": bound,
                "detail": detail,
            }

        if deg > basic:
            return _fail(name, desc, instances, ce("basic degree bound violated", basic))
        e_cuts = _cut_pairs(g, "e")
        v_cuts = _cut_pairs(g, "v")
        for (_, t) in e_cuts:
            bound = min(g.n_e - 1, g.n_v - t + 1)
            if deg > bound:
                return _fail(name, desc, instances,
                             ce("two-cut bound violated (cut in E)", bound))
        for (_, t) in v_cuts:
            bound = min(g.n_v - 1, g.n_e - t + 1)
            if deg > bound:
                return _fail(name, desc, instances,
                             ce("two-cut bound violated (cut in V)", bound))
        if g.n_v == g.n_e:
            n = g.n_v
            if any(t >= 3 for _, t in e_cuts + v_cuts) and poly.coeff(n - 1) != 0:
                return _fail(name, desc, instances,
                             ce("top coefficient must vanish for a 3-way two-cut",
                                n - 1))
        # Disjoint collections of cuts; only asserted when strictly stronger.
        v_chosen = _disjoint_greedy(v_cuts)
        e_chosen = _disjoint_greedy(e_cuts)
        t_sum = sum(t for _, t in v_chosen)
        k_sum = sum(t for _, t in e_chosen)
        general = min(g.n_e - t_sum + 2 * len(v_chosen) - 1,
                      g.n_v - k_sum + 2 * len(e_chosen) - 1)
        if general < basic and deg > general:
            return _fail(name, desc, instances,
                         ce("disjoint-pairs degree bound violated", general))
    return _ok(name, desc, instances)


def check_linear_coefficients(corpus) -> CheckReport:
    """Constant terms are 1; the linear coefficient of the interior
    polynomial is the nullity; when removing any single hyperedge keeps the
    graph connected, the linear coefficient of the exterior polynomial is
    |V| - 1."""
    name, desc = "linear_coefficients", _corpus_desc(corpus)
    instances = 0
    for g in corpus:
        b = enumerate_hypertrees(g)
        interior = interior_polynomial(g, hypertrees=b)
        exterior = exterior_polynomial(g, hypertrees=b)

        def ce(detail, poly):
            return {
                "kind": "linear_coefficient",
                "graph": graph_to_json(g),
                "polynomial": poly.to_json(),
                "detail": detail,
            }

        instances += 1
        if interior.coeff(0) != 1:
            return _fail(name, desc, instances,
                         ce("interior constant term is not 1", interior))
        if exterior.coeff(0) != 1:
            return _fail(name, desc, instances,
                         ce("exterior constant term is not 1", exterior))
        if interior.coeff(1) != nullity(g):
            return _fail(name, desc, instances,
                         ce(f"interior linear coefficient differs from the "
                            f"nullity {nullity(g)}", interior))
        if g.n_e >= 2 and all(
                _components_without(g, (g.n_v + e,)) == 1 for e in range(g.n_e)):
            if exterior.coeff(1) != g.n_v - 1:
                return _fail(name, desc, instances,
                             ce(f"exterior linear coefficient differs from "
                                f"|V| - 1 = {g.n_v - 1}", exterior))
    return _ok(name, desc, instances)


def check_invariance(corpus, orders_per_graph: int = 20, seed: int = 0) -> CheckReport:
    """Both polynomials are order-independent; the interior polynomial is
    also invariant under the abstract dual.  The exterior polynomial is
    allowed to differ between the two classes, and the recorded asymmetry
    witness (both sides of the complete bipartite graph on 2 + 3 vertices)
    must actually differ."""
    name, desc = "invariance", _corpus_desc(corpus)
    rng = random.Random(f"{seed}:invariance")
    instances = 0
    for g in corpus:
        b = enumerate_hypertrees(g)
        base_i = interior_polynomial(g, hypertrees=b)
        base_x = exterior_polynomial(g, hypertrees=b)
        for _ in range(orders_per_graph):
            order = list(range(g.n_e))
            rng.shuffle(order)
            instances += 1
            other_i = interior_polynomial(g, order=order, hypertrees=b)
            other_x = exterior_polynomial(g, order=order, hypertrees=b)
            if other_i != base_i or other_x != base_x:
                ce = {
                    "kind": "invariance",
                    "graph": graph_to_json(g),
                    "order": list(order),
                    "default_interior": base_i.to_json(),
                    "other_interior": other_i.to_json(),
                    "default_exterior": base_x.to_json(),
                    "other_exterior": other_x.to_json(),
                    "detail": "polynomials depend on the order",
                }
                return _fail(name, desc, instances, ce)
        dual = abstract_dual(g)
        dual_i = interior_polynomial(dual)
        instances += 1
        if dual_i != base_i:
            ce = {
                "kind": "invariance",
                "graph": graph_to_json(g),
                "order": None,
                "default_interior": base_i.to_json(),
                "other_interior": dual_i.to_json(),
                "detail": "interior polynomial differs on the abstract dual",
            }
            return _fail(name, desc, instances, ce)
    k23 = generate(FamilySpec("complete_bipartite", (2, 3)))
    instances += 1
    if exterior_polynomial(k23) == exterior_polynomial(k23, hyperedge_side="v"):
        ce = {
            "kind": "invariance",
            "graph": graph_to_json(k23),
            "order": None,
            "detail": "expected exterior asymmetry between the two classes is missing",
        }
        return _fail(name, desc, instances, ce)
    return _ok(name, desc, instances)


def _poly_pair(g: BipGraph):
    b = enumerate_hypertrees(g)
    return (interior_polynomial(g, hypertrees=b),
            exterior_polynomial(g, hypertrees=b))


def check_recursions(corpus, seed: int = 0) -> CheckReport:
    """Pendant insensitivity, the valence-2 deletion/contraction rules, join
    multiplicativity on sampled pairs, the parallel-pair identity, and the
    balanced-decomposition reassembly."""
    name, desc = "recursions", _corpus_desc(corpus)
    rng = random.Random(f"{seed}:recursions")
    instances = 0

    def ce(g, detail, extra=None):
        data = {"kind": "recursion", "graph": graph_to_json(g), "detail": detail}
        if extra:
            data.update(extra)
        return data

    for g in corpus:
        interior_g, exterior_g = _poly_pair(g)
        labels = [("v", i, g.v_names[i]) for i in range(g.n_v)] + \
                 [("e", i, g.e_names[i]) for i in range(g.n_e)]
        for side, idx, label in labels:
            degree = g.deg_v(idx) if side == "v" else g.deg_e(idx)
            class_size = g.n_v if side == "v" else g.n_e
            if degree == 1 and class_size >= 2 and g.n_v + g.n_e > 2:
                reduced = transforms.delete_valence1(g, label)
                if not reduced.connected:
                    continue
                instances += 1
                if (interior_polynomial(reduced) != interior_g
                        or exterior_polynomial(reduced) != exterior_g):
                    return _fail(name, desc, instances,
                                 ce(g, f"pendant removal at {label!r} changed a polynomial",
                                    {"vertex": label}))
            if degree == 2 and class_size >= 2:
                deleted = transforms.delete_vertex(g, label)
                if not deleted.connected:
                    continue
                contracted = transforms.contract_vertex(g, label)
                instances += 1
                i_del, _ = _poly_pair(deleted)
                i_con, _ = _poly_pair(contracted)
                if interior_g != i_del + i_con.shift(1):
                    return _fail(name, desc, instances,
                                 ce(g, f"interior deletion/contraction fails at {label!r}",
                                    {"vertex": label}))
                if side == "e":
                    x_del = exterior_polynomial(deleted)
                    x_con = exterior_polynomial(contracted)
                    if exterior_g != x_del.shift(1) + x_con:
                        return _fail(name, desc, instances,
                                     ce(g, f"exterior deletion/contraction fails at {label!r}",
                                        {"vertex": label}))

    small = [g for g in corpus if g.n_v + g.n_e <= 6]
    for _ in range(min(20, len(small) * (len(small) + 1) // 2) if small else 0):
        g1, g2 = rng.choice(small), rng.choice(small)
        i1, x1 = _poly_pair(g1)
        i2, x2 = _poly_pair(g2)
        joins = [
            transforms.one_point_join(g1, g2, g1.v_names[0], g2.v_names[0]),
            transforms.one_point_join(g1, g2, g1.e_names[0], g2.e_names[0]),
        ]
        v0, e0 = sorted(g1.adj)[0]
        v1, e1 = sorted(g2.adj)[0]
        joins.append(transforms.edge_join(
            g1, g2, (g1.v_names[v0], g1.e_names[e0]),
            (g2.v_names[v1], g2.e_names[e1])))
        for joined in joins:
            instances += 1
            ij, xj = _poly_pair(joined)
            if ij != i1 * i2 or xj != x1 * x2:
                return _fail(name, desc, instances,
                             ce(joined, "join product identity fails"))

    for g in [h for h in corpus if h.n_e >= 2 and h.n_v + h.n_e <= 7][:60]:
        e1, e2 = g.e_names[0], g.e_names[1]
        quotient = transforms.identify_pair(g, e1, e2)
        if not quotient.connected:
            continue
        i_g, _ = _poly_pair(g)
        i_q, _ = _poly_pair(quotient)
        for t in (1, 2):
            extended = transforms.add_parallel_pair_vertices(g, e1, e2, t)
            instances += 1
            i_t, _ = _poly_pair(extended)
            if i_g != i_t - (t * i_q).shift(1):
                return _fail(name, desc, instances,
                             ce(g, f"parallel-pair identity fails for t={t}",
                                {"pair": [e1, e2], "t": t}))

    for g in [h for h in corpus if 0 <= h.n_e - h.n_v <= 3 and h.n_v + h.n_e <= 8][:150]:
        terms = transforms.balanced_decomposition(g)
        total = IntPoly.zero()
        for term in terms:
            if term.graph.n_v != term.graph.n_e:
                return _fail(name, desc, instances + 1,
                             ce(g, "decomposition emitted an unbalanced graph"))
            total = total + (term.coefficient * interior_polynomial(term.graph)
                             ).shift(term.exponent)
        instances += 1
        if total != interior_polynomial(g):
            return _fail(name, desc, instances,
                         ce(g, "balanced decomposition does not reassemble"))
    return _ok(name, desc, instances)


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


def tutte_graph_corpus(seed: int = 0, sample: int = 25) -> list[MultiGraph]:
    """Ordinary graphs for the Tutte cross-check: every connected simple
    graph on up to 5 vertices with at most 7 edges, named 6- and 7-cycles
    and paths, plus a seeded random sample (all within 7 edges)."""
    graphs = _connected_simple_graphs(5, 7)
    graphs += [MultiGraph.cycle(6), MultiGraph.cycle(7),
               MultiGraph.path(7), MultiGraph.path(8), MultiGraph.star(6)]
    rng = random.Random(f"{seed}:tutte-corpus")
    for _ in range(sample):
        n = rng.randint(3, 7)
        edges = {tuple(sorted((i, rng.randrange(i)))) for i in range(1, n)}
        spare = [p for p in combinations(range(n), 2) if p not in edges]
        rng.shuffle(spare)
        budget = min(7 - len(edges), len(spare))
        for extra in spare[:rng.randint(0, max(0, budget))]:
            edges.add(extra)
        graphs.append(MultiGraph(n, sorted(edges)))
    return graphs


def check_tutte(graph_corpus=None, seed: int = 0) -> CheckReport:
    """The hypertree pipeline on the subdivision must match both Tutte
    specializations for every ordinary graph in the corpus."""
    if graph_corpus is None:
        graph_corpus = tutte_graph_corpus(seed=seed)
    name = "tutte"
    desc = f"{len(graph_corpus)} connected simple graphs with at most 7 edges"
    instances = 0
    for mg in graph_corpus:
        bip = subdivision(mg)
        b = enumerate_hypertrees(bip)
        instances += 1
        pipeline_i = interior_polynomial(bip, hypertrees=b)
        pipeline_x = exterior_polynomial(bip, hypertrees=b)
        oracle_i = interior_from_tutte(mg)
        oracle_x = exterior_from_tutte(mg)
        if pipeline_i != oracle_i or pipeline_x != oracle_x:
            ce = {
                "kind": "tutte",
                "multigraph": {"n": mg.n, "edges": [list(e) for e in mg.edges]},
                "pipeline_interior": pipeline_i.to_json(),
                "tutte_interior": oracle_i.to_json(),
                "pipeline_exterior": pipeline_x.to_json(),
                "tutte_exterior": oracle_x.to_json(),
                "detail": "subdivision pipeline disagrees with the Tutte specialization",
            }
            return _fail(name, desc, instances, ce)
    return _ok(name, desc, instances)


def check_monic_ear(seeds=(0, 1, 2), sizes=((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)),
                    corpus=()) -> CheckReport:
    """Seeded ear graphs have a monic interior polynomial of degree n - 1;
    balanced corpus graphs never exceed top coefficient 1."""
    name = "monic_ear"
    desc = (f"{len(seeds) * len(sizes)} seeded ear graphs"
            + (f" + {len(corpus)} corpus graphs" if corpus else ""))
    instances = 0
    for seed in seeds:
        for k, ears in sizes:
            g = generate(FamilySpec("ear_graph", (k, ears), seed=seed))
            n = g.n_v
            instances += 1
            poly = interior_polynomial(g)
            if g.n_v != g.n_e or poly.coeff(n - 1) != 1 or poly.degree != n - 1:
                ce = {
                    "kind": "monic",
                    "mode": "ear",
                    "graph": graph_to_json(g),
                    "interior": poly.to_json(),
                    "detail": f"ear graph (k={k}, ears={ears}, seed={seed}) "
                              f"is not monic of degree {n - 1}",
                }
                return _fail(name, desc, instances, ce)
    for g in corpus:
        if g.n_v != g.n_e:
            continue
        instances += 1
        poly = interior_polynomial(g)
        if poly.coeff(g.n_v - 1) > 1:
            ce = {
                "kind": "monic",
                "mode": "cap",
                "graph": graph_to_json(g),
                "interior": poly.to_json(),
                "detail": "balanced graph with top coefficient above 1",
            }
            return _fail(name, desc, instances, ce)
    return _ok(name, desc, instances)


def check_negative_controls() -> CheckReport:
    """Corrupted fixtures must fail their validations; a control that slips
    through fails this check."""
    name = "negative_controls"
    desc = "3 deliberately corrupted fixtures"
    c6 = generate(FamilySpec("cycle", (3,)))
    instances = 0

    def leaked(control, detail, extra=None):
        data = {"kind": "negative_control", "control": control, "detail": detail}
        if extra:
            data.update(extra)
        return _fail(name, desc, instances, data)

    instances += 1
    gapped = IntPoly([1, 0, 1])
    if _support_is_initial_interval(gapped):
        return leaked("corrupted_polynomial",
                      "the gapped polynomial 1 + x^2 passed the support check",
                      {"polynomial": gapped.to_json()})

    instances += 1
    bogus = (0, 0, 2)
    if is_hypertree_by_tree_search(c6, bogus) or is_hypertree_by_polymatroid(c6, bogus):
        return leaked("corrupted_hypertree",
                      "an out-of-box vector was accepted as a hypertree",
                      {"graph": graph_to_json(c6), "hypertree": list(bogus)})

    instances += 1
    true_set = hypertrees_by_brute_force(c6, "tree")
    with_extra = HypertreeSet(list(true_set) + [bogus])
    missing = HypertreeSet([f for f in true_set if f != (0, 1, 1)])
    if with_extra == true_set or missing == true_set:
        return leaked("corrupted_hypertree_set",
                      "a tampered hypertree set compared equal to the oracle",
                      {"graph": graph_to_json(c6)})
    return _ok(name, desc, instances)


CHECK_NAMES = (
    "enumeration_oracles",
    "interpolating",
    "degree_bounds",
    "linear_coefficients",
    "invariance",
    "recursions",
    "monic_ear",
    "tutte",
    "negative_controls",
)


# Cap on the census size of run_all_checks.  On a 2-core CPython 3.11 host the
# full suite takes about 11 s at max_total 9 and 85 s at 10, of which the
# census is 0.7 s and 12 s.
CENSUS_CAP = 9


def run_all_checks(seed: int = 0, corpus=None, orders_per_graph: int = 20,
                   max_total: int = 9, random_count: int = 50,
                   random_max_total: int = 14, names=None,
                   progress=None, on_corpus=None) -> list[CheckReport]:
    """Run the named checks (all by default) over one shared corpus.  The
    enumeration-oracle gate always runs first.  Parameters that would
    silently skip checks, or a census above :data:`CENSUS_CAP`, are rejected
    with :class:`GraphError`.  ``progress`` is called with each report as it
    is made, and ``on_corpus`` with the corpus and the seconds it took when
    the corpus is built here."""
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
                         f"about 85 s")
    if corpus is None:
        start = time.perf_counter()
        corpus = default_corpus(seed=seed, max_total=max_total,
                                random_count=random_count,
                                random_max_total=random_max_total)
        if on_corpus is not None:
            on_corpus(corpus, time.perf_counter() - start)
    selected = tuple(names) if names else CHECK_NAMES
    for n in selected:
        if n not in CHECK_NAMES:
            raise GraphError(f"unknown check {n!r}")
    runners = {
        "enumeration_oracles": lambda: check_enumeration_oracles(corpus),
        "interpolating": lambda: check_interpolating(corpus),
        "degree_bounds": lambda: check_degree_bounds(corpus),
        "linear_coefficients": lambda: check_linear_coefficients(corpus),
        "invariance": lambda: check_invariance(corpus, orders_per_graph, seed),
        "recursions": lambda: check_recursions(corpus, seed),
        "monic_ear": lambda: check_monic_ear(corpus=corpus),
        "tutte": lambda: check_tutte(seed=seed),
        "negative_controls": check_negative_controls,
    }
    ordered = [n for n in CHECK_NAMES if n in selected]
    reports = []
    for check_name in ordered:
        start = time.perf_counter()
        report = runners[check_name]()
        report.seconds = time.perf_counter() - start
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports


def replay_counterexample(counterexample: dict) -> bool:
    """Re-run the assertion behind a counterexample in isolation; True means
    the failure reproduces."""
    kind = counterexample.get("kind")
    if kind == "interpolating":
        return not _support_is_initial_interval(
            IntPoly.from_json(counterexample["polynomial"]))
    if kind == "negative_control":
        return not check_negative_controls().passed
    if kind == "tutte":
        data = counterexample["multigraph"]
        mg = MultiGraph(data["n"], [tuple(e) for e in data["edges"]])
        return not check_tutte(graph_corpus=[mg]).passed
    g = graph_from_json(counterexample["graph"])
    singleton = [g]
    if kind == "enumeration":
        return not check_enumeration_oracles(singleton).passed
    if kind == "degree_bound":
        return not check_degree_bounds(singleton).passed
    if kind == "linear_coefficient":
        return not check_linear_coefficients(singleton).passed
    if kind == "invariance":
        order = counterexample.get("order")
        if order is None:
            return interior_polynomial(g) != interior_polynomial(abstract_dual(g))
        b = enumerate_hypertrees(g)
        return (interior_polynomial(g, order=order, hypertrees=b)
                != interior_polynomial(g, hypertrees=b)
                or exterior_polynomial(g, order=order, hypertrees=b)
                != exterior_polynomial(g, hypertrees=b))
    if kind == "recursion":
        return not check_recursions(singleton).passed
    if kind == "monic":
        poly = interior_polynomial(g)
        if counterexample.get("mode") == "ear":
            return not (g.n_v == g.n_e and poly.coeff(g.n_v - 1) == 1
                        and poly.degree == g.n_v - 1)
        return g.n_v == g.n_e and poly.coeff(g.n_v - 1) > 1
    raise GraphError(f"cannot replay counterexample of kind {kind!r}")
