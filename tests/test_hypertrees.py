"""Hypertree membership oracles, enumeration, tightness, transfers."""

import copy
import gc
import hashlib
import json
import pickle
import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_bipartite, connected_bipgraphs, cycle, ladder, path_graph
from hytrex import cli, graph, hypertrees, poly
from hytrex.families import FamilySpec, closed_form_exterior, closed_form_interior, generate
from hytrex.poly import IntPoly
from hytrex.errors import CapacityError, DisconnectedGraphError, GraphError
from hytrex.graph import BipGraph, bits_of, mu_table
from hytrex.hypertrees import (
    HypertreeSet,
    enumerate_hypertrees,
    find_realizing_tree,
    greedy_exterior_hypertree,
    hypertrees_by_brute_force,
    hypertrees_with_inactivity,
    is_hypertree_by_polymatroid,
    is_hypertree_by_tree_search,
    transfer,
)
from hytrex.verify import exhaustive_connected_bipartite


class TestTreeSearch:
    def test_hexagon_member_with_witness(self):
        g = cycle(3)
        witness = find_realizing_tree(g, (0, 1, 1))
        assert witness is not None
        degs = [0, 0, 0]
        for _, e in witness:
            degs[e] += 1
        assert degs == [1, 2, 2]
        assert len(witness) == g.n_v + g.n_e - 1

    def test_every_witness_is_a_spanning_tree_with_the_degrees(self):
        def find(parent, x):
            while parent[x] != x:
                x = parent[x]
            return x

        for g in exhaustive_connected_bipartite(6):
            for f in hypertrees_by_brute_force(g, "polymatroid"):
                witness = find_realizing_tree(g, f)
                assert witness is not None, (g, f)
                assert len(witness) == g.n_v + g.n_e - 1, (g, f, witness)
                # V-vertex v is node v, hyperedge e node n_v + e; n - 1
                # edges that close no cycle span all n nodes.
                parent = list(range(g.n_v + g.n_e))
                degree = [0] * g.n_e
                for v, e in witness:
                    assert g.e_masks[e] >> v & 1, (g, f, witness)
                    root_v, root_e = find(parent, v), find(parent, g.n_v + e)
                    assert root_v != root_e, (g, f, witness)
                    parent[root_v] = root_e
                    degree[e] += 1
                assert degree == [x + 1 for x in f], (g, f, witness)

    def test_hexagon_degree_bound_violation(self):
        assert not is_hypertree_by_tree_search(cycle(3), (0, 0, 2))

    def test_k23_sum_violation(self):
        # |V| - 1 = 1 but the vector sums to 2.
        assert not is_hypertree_by_tree_search(complete_bipartite(2, 3), (1, 1, 0))

    def test_disconnected_rejected(self):
        g = BipGraph(("a", "b"), ("c", "d"), [(0, 0), (1, 1)])
        with pytest.raises(DisconnectedGraphError):
            is_hypertree_by_tree_search(g, (0, 1))

    def test_wrong_length_rejected(self):
        with pytest.raises(GraphError):
            is_hypertree_by_tree_search(cycle(3), (0, 1))

    # (1.5, 1.2, 0.0) sums to 2.7, but truncated it is the hypertree (1, 1, 0)
    # of C6; strings and bools are no valences either.
    @pytest.mark.parametrize("f", [(1.5, 1.2, 0.0), ("1", "1", "0"), (True, True, False),
                                   (1, 1, 0.0)],
                             ids=["float", "str", "bool", "one-float"])
    @pytest.mark.parametrize("oracle", [find_realizing_tree, is_hypertree_by_tree_search,
                                        is_hypertree_by_polymatroid])
    def test_non_integer_entries_rejected(self, oracle, f):
        with pytest.raises(GraphError, match="must hold integers"):
            oracle(cycle(3), f)


class TestPolymatroid:
    def test_hexagon_member(self):
        assert is_hypertree_by_polymatroid(cycle(3), (0, 1, 1))

    def test_hexagon_sum_violation(self):
        assert not is_hypertree_by_polymatroid(cycle(3), (1, 1, 1))

    def test_k33_member(self):
        assert is_hypertree_by_polymatroid(complete_bipartite(3, 3), (2, 0, 0))

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setattr(graph, "SUBSET_CAP", 2)
        with pytest.raises(CapacityError):
            is_hypertree_by_polymatroid(cycle(3), (0, 1, 1))

    @settings(max_examples=40, deadline=None)
    @given(connected_bipgraphs())
    def test_agrees_with_tree_search_on_whole_box(self, g):
        for f in _degree_box(g):
            assert (is_hypertree_by_polymatroid(g, f)
                    == is_hypertree_by_tree_search(g, f))


def _degree_box(g):
    """Every vector within the degree bounds that sums to |V| - 1."""
    caps = [g.deg_e(e) - 1 for e in range(g.n_e)]
    target = g.n_v - 1

    def rec(e, remaining, prefix):
        if e == g.n_e:
            if remaining == 0:
                yield tuple(prefix)
            return
        for x in range(min(caps[e], remaining) + 1):
            yield from rec(e + 1, remaining - x, prefix + [x])

    yield from rec(0, target, [])


class TestEnumeration:
    def test_hexagon(self):
        assert enumerate_hypertrees(cycle(3)).to_json() == [
            [0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_star_has_single_hypertree(self):
        star = complete_bipartite(1, 4)
        assert enumerate_hypertrees(star).to_json() == [[0, 0, 0, 0]]

    def test_k33_six_hypertrees(self):
        expected = sorted([(2, 0, 0), (0, 2, 0), (0, 0, 2),
                           (1, 1, 0), (1, 0, 1), (0, 1, 1)])
        assert list(enumerate_hypertrees(complete_bipartite(3, 3))) == expected

    def test_matches_brute_force_on_named_graphs(self):
        for g in (cycle(4), complete_bipartite(2, 4), complete_bipartite(3, 3),
                  path_graph()):
            bfs = enumerate_hypertrees(g)
            assert bfs == hypertrees_by_brute_force(g, "tree")
            assert bfs == hypertrees_by_brute_force(g, "polymatroid")

    @settings(max_examples=40, deadline=None)
    @given(connected_bipgraphs())
    def test_matches_brute_force(self, g):
        assert enumerate_hypertrees(g) == hypertrees_by_brute_force(g, "tree")

    @settings(max_examples=60, deadline=None)
    @given(connected_bipgraphs(max_v=6, max_e=6))
    def test_matches_polymatroid_scan_beyond_census(self, g):
        assert enumerate_hypertrees(g) == hypertrees_by_brute_force(g, "polymatroid")

    def test_disconnected_rejected(self):
        g = BipGraph(("a", "b"), ("c", "d"), [(0, 0), (1, 1)])
        with pytest.raises(DisconnectedGraphError):
            enumerate_hypertrees(g)

    def test_brute_force_unknown_method_rejected(self):
        with pytest.raises(GraphError, match="unknown method 'bogus'"):
            hypertrees_by_brute_force(cycle(3), "bogus")


class TestCertificates:
    """The enumerator carries a spanning tree per hypertree instead of
    searching for one; these tests pin that down."""

    def test_no_tree_search_in_enumeration(self, monkeypatch):
        graphs = (ladder(6), complete_bipartite(3, 4), cycle(7))
        expected = [hypertrees_by_brute_force(g, "polymatroid") for g in graphs]

        def forbidden(g, f):
            raise AssertionError("tree search called during enumeration")

        monkeypatch.setattr(hypertrees, "find_realizing_tree", forbidden)
        for g, want in zip(graphs, expected):
            assert hypertrees.enumerate_hypertrees(g) == want

    def test_witness_check_rejects_every_bad_single_move(self):
        g = ladder(3)
        w = hypertrees._Witnesses(g)
        key = _key(w, greedy_exterior_hypertree(g))
        tree = w.kruskal()
        w.root(key, tree)
        edges = sorted(g.adj)
        kinds = set()
        for out in bits_of(tree):
            for into in bits_of(~tree & ((1 << len(edges)) - 1)):
                moved = tree ^ (1 << out) ^ (1 << into)
                degree_ok = edges[out][1] == edges[into][1]
                spanning = _is_spanning_tree(g, [edges[i] for i in bits_of(moved)])
                if degree_ok and spanning:
                    w.root(key, moved)
                    continue
                kinds.add("cycle" if degree_ok else "degree")
                with pytest.raises(RuntimeError, match="internal error"):
                    w.root(key, moved)
        assert kinds == {"cycle", "degree"}

    def test_stale_child_witness_is_caught(self, monkeypatch):
        # A child that inherits its parent's tree unchanged has the wrong
        # degrees; the check at expansion time must notice.
        monkeypatch.setattr(hypertrees._Witnesses, "exchange",
                            lambda self, tree, *rest: tree)
        with pytest.raises(RuntimeError, match="internal error"):
            hypertrees._walk(cycle(3), [(0, 1, 2)])

    def test_exchange_paths_have_no_shortcut(self, monkeypatch):
        # The exchange is a spanning tree because no step x_i -> x_j with
        # j > i + 1 exists along the path; breadth-first paths guarantee it.
        expanded = []
        root = hypertrees._Witnesses.root

        def recording_root(self, key, tree):
            expanded.append((self, key, tree))
            return root(self, key, tree)

        monkeypatch.setattr(hypertrees._Witnesses, "root", recording_root)
        g = ladder(6)
        hypertrees._walk(g, [tuple(range(g.n_e))])
        longest = 0
        for w, key, tree in expanded:
            step = w.step(tree, root(w, key, tree))
            for b in range(len(step)):
                prev = hypertrees._shortest_paths(step, b)
                for a in prev:
                    path = [a]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    path.reverse()
                    longest = max(longest, len(path) - 1)
                    for i, x in enumerate(path):
                        for y in path[i + 2:]:
                            assert not step[x] >> y & 1, (hex(key), path)
        assert longest >= 5

    def test_exchange_along_a_longer_path_can_break_the_tree(self):
        # Negative control for the shortest-path rule: on this graph the
        # transfer e1 -> e2 at f = (1, 0, 1) has the one-step path e2 -> e1
        # and the detour e2 -> e3 -> e1, and the detour closes a cycle.
        g = BipGraph(("v1", "v2", "v3"), ("e1", "e2", "e3"),
                     [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2)])
        f, child = (1, 0, 1), (0, 1, 1)
        w = hypertrees._Witnesses(g)
        # v1-e1, v1-e2, v2-e1, v2-e3, v3-e3
        tree = sum(1 << sorted(g.adj).index(ve)
                   for ve in [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)])
        rooted = w.root(_key(w, f), tree)
        step = w.step(tree, rooted)
        assert step[1] >> 0 & 1 and step[1] >> 2 & 1 and step[2] >> 0 & 1
        shortest = w.exchange(tree, rooted, {1: None, 0: 1}, 0)
        w.root(_key(w, child), shortest)
        detour = w.exchange(tree, rooted, {1: None, 2: 1, 0: 2}, 0)
        with pytest.raises(RuntimeError, match="internal error"):
            w.root(_key(w, child), detour)

    def test_closure_decides_every_transfer_on_census_7(self, monkeypatch):
        # The walk's closures, recorded as they are made, paired with its
        # keys, which come in the same breadth-first order.
        closure, reaches = hypertrees._closure, []
        monkeypatch.setattr(hypertrees, "_closure",
                            lambda step: reaches.append(closure(step)) or reaches[-1])
        for g in exhaustive_connected_bipartite(7):
            brute = hypertrees_by_brute_force(g)
            reaches.clear()
            found = hypertrees._walk(g, [tuple(range(g.n_e))])
            fields, low = found.layout.fields, (1 << found.layout.shift) - 1
            walked = [fields.unpack((key & low).to_bytes(fields.size, "big"))
                      for key in found.keys]
            assert len(walked) == len(reaches)
            for f, reach in zip(walked, reaches):
                for a in range(g.n_e):
                    for b in range(g.n_e):
                        if a != b:
                            closure_says = bool(reach[b] >> a & 1)
                            moved = f[a] > 0 and transfer(f, a, b) in brute
                            assert closure_says == moved, (g, f, a, b)
            assert sorted(walked) == list(brute)


def _key(w, f):
    """The key of the vector ``f`` in the walk's packing, from its units."""
    return sum(x * u for x, u in zip(f, w.layout.units))


def _is_spanning_tree(g, pairs):
    """Union-find check, independent of the enumerator's own BFS."""
    parent = list(range(g.n_v + g.n_e))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for v, e in pairs:
        rv, rh = find(v), find(g.n_v + e)
        if rv == rh:
            return False
        parent[rv] = rh
    return len(pairs) == g.n_v + g.n_e - 1


class TestCanTransfer:
    def test_hexagon_possible(self):
        b = enumerate_hypertrees(cycle(3))
        assert transfer((0, 1, 1), 1, 0) in b

    # A zero sender once gave the vector (-1, 2, 1), which no set holds.
    def test_hexagon_blocked_by_zero(self):
        with pytest.raises(GraphError, match="no valence can move from index 0 to 1"):
            transfer((0, 1, 1), 0, 1)


def is_tight(table, f, subset):
    """Whether ``subset`` meets its bound in the rank table ``table`` with
    equality at ``f``."""
    return sum(f[e] for e in bits_of(subset)) == table[subset]


class TestTightness:
    def test_empty_and_full_always_tight(self):
        g = cycle(3)
        table = mu_table(g)
        for f in enumerate_hypertrees(g):
            assert is_tight(table, f, 0)
            assert is_tight(table, f, (1 << g.n_e) - 1)

    def test_hexagon_examples(self):
        g = cycle(3)
        f = (0, 1, 1)
        e2_e3 = 1 << g.e_index("e2") | 1 << g.e_index("e3")
        table = mu_table(g)
        assert not is_tight(table, f, 1 << g.e_index("e1"))
        assert table[e2_e3] == 2
        assert is_tight(table, f, e2_e3)

    @settings(max_examples=30, deadline=None)
    @given(connected_bipgraphs())
    def test_tight_sets_closed_under_union_and_intersection(self, g):
        table = mu_table(g)
        for f in enumerate_hypertrees(g):
            tight = [m for m in range(1 << g.n_e) if is_tight(table, f, m)]
            tight_set = set(tight)
            for a in tight:
                for b in tight:
                    assert (a | b) in tight_set
                    assert (a & b) in tight_set


class TestGreedy:
    def test_hexagon_default_order(self):
        assert greedy_exterior_hypertree(cycle(3)) == (0, 1, 1)

    def test_tree_gives_its_unique_hypertree(self):
        # For a tree the only spanning tree is the graph itself, so the
        # unique hypertree is the degree vector shifted down by one; it is
        # all-zero exactly when every hyperedge is a leaf.
        star = complete_bipartite(1, 4)
        assert greedy_exterior_hypertree(star) == (0, 0, 0, 0)
        p = path_graph()
        assert greedy_exterior_hypertree(p) == (1,)
        assert enumerate_hypertrees(p).to_json() == [[1]]

    def test_k23(self):
        assert greedy_exterior_hypertree(complete_bipartite(2, 3)) == (0, 0, 1)

    def test_suffixes_are_tight(self):
        for g in (cycle(3), complete_bipartite(2, 3), complete_bipartite(3, 4)):
            f = greedy_exterior_hypertree(g)
            assert f in enumerate_hypertrees(g)
            table, suffix = mu_table(g), 0
            for e in range(g.n_e - 1, -1, -1):
                suffix |= 1 << e
                assert is_tight(table, f, suffix)

    @settings(max_examples=30, deadline=None)
    @given(connected_bipgraphs())
    def test_member_under_any_graph(self, g):
        f = greedy_exterior_hypertree(g)
        assert is_hypertree_by_tree_search(g, f)


class TestHypertreeSet:
    def test_deduplicates_and_sorts(self):
        s = HypertreeSet([(1, 0), (0, 1), (1, 0)])
        assert s.vectors == ((0, 1), (1, 0))
        assert len(s) == 2
        assert (0, 1) in s
        assert (2, 0) not in s

    # Truncated and converted, these were the set {(1, 0), (1, 1)}.
    @pytest.mark.parametrize("vectors", [[(1.5, 0.2)], [("1", True)], [(1, 0), (1, 0.0)]],
                             ids=["float", "str-bool", "one-float"])
    def test_non_integer_entries_rejected(self, vectors):
        with pytest.raises(GraphError, match="must hold integers"):
            HypertreeSet(vectors)

    def test_vectors_of_different_lengths_rejected(self):
        with pytest.raises(GraphError, match=r"one length, got \[1, 2\]"):
            HypertreeSet([(1, 2), (1,)])

    # Accepted, and the hexagon's probe path then counted it as 1.
    def test_negative_entries_rejected(self):
        with pytest.raises(GraphError, match=r"a hypertree vector must hold integers of "
                                             r"at least 0, got \(-1, 2, 1\)"):
            HypertreeSet([(-1, 2, 1)])

    def test_entries_too_wide_for_64_bit_fields_rejected(self):
        assert (2**64 - 3, 0) in HypertreeSet([(2**64 - 3, 0)])
        with pytest.raises(GraphError, match="fit 64 bits"):
            HypertreeSet([(2**64 - 2, 0)])

    # The narrowest field that holds the largest entry plus two.
    @pytest.mark.parametrize("top, bits", [(0, 8), (253, 8), (254, 16), (65533, 16),
                                           (65534, 32), (2**32 - 3, 32), (2**32 - 2, 64)])
    def test_field_width(self, top, bits):
        assert HypertreeSet([(top, 0, 1)])._layout.units == (1 << 2 * bits, 1 << bits, 1)

    # Vectors that do not pack are no members; (1.0, 0) was one, and a
    # non-iterable such as 3 or None raised TypeError.
    @pytest.mark.parametrize("f", [(1, 0, 0), (1,), (-1, 2), (256, 0), (2**70, 0),
                                   (1.0, 0), ("1", 0), (None, 0), 3, None])
    def test_vectors_that_do_not_pack_are_no_members(self, f):
        assert f not in HypertreeSet([(1, 0), (0, 1)])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 2**40)] * n) | st.tuples(*[st.integers(0, 3)] * n),
        max_size=12)))
    def test_keys_sort_and_deduplicate_like_the_vectors(self, vectors):
        s = HypertreeSet(vectors)
        assert s.vectors == tuple(sorted(set(vectors)))
        assert all(f in s for f in vectors)
        assert s == HypertreeSet(reversed(vectors)) and hash(s) == hash(s.vectors)

    # Assignment succeeded, so the vectors and the member keys could part.
    def test_immutable_and_picklable(self):
        s = enumerate_hypertrees(cycle(3))
        for name in HypertreeSet.__slots__:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(s, name, None)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(s, name)
        for t in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert t == s and (1, 0, 1) in t and (2, 0, 0) not in t


def _engines(g):
    """``(hypertrees, I, X)`` in the input order from the fibre search and
    from the walk, each driven directly whatever |E| is and read one way."""
    natural = tuple(range(g.n_e))
    low = (1 << g.n_e) - 1
    out = []
    for found in (hypertrees._fibres(g, natural), hypertrees._walk(g, [natural])):
        interior, exterior = [0] * (g.n_e + 1), [0] * (g.n_e + 1)
        for key in found.keys:
            masks = key >> found.layout.shift
            interior[(masks & low).bit_count()] += 1
            exterior[(masks >> g.n_e).bit_count()] += 1
        out.append((hypertrees._searched_set(g, found), IntPoly(interior), IntPoly(exterior)))
    return out


POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "polys_pool.json"
# sha256 over repr(enumerate_hypertrees(g).vectors) of the 210 polys pool
# graphs in pool order, fed one graph at a time; recorded with the walk
# alone, before the fibre search existed.
POOL_SHA256 = "cfb1e4ab897999f519f09f8130052b503e71538205229b7ce12a1f6370ecbaf2"


class TestFibreSearch:
    """The fibre search against the walk, the closed forms and the pinned
    pool; its single-order twin against the probes is in test_activity."""

    @pytest.mark.parametrize("n", [11, 12], ids=["ladder11-E12", "ladder12-E13"])
    def test_both_engines_match_the_closed_forms_on_ladders(self, n):
        spec = FamilySpec("ladder", (n,))
        g = generate(spec)
        assert g.n_e == n + 1
        search, walk = _engines(g)
        assert search == walk
        assert search[1:] == (closed_form_interior(spec), closed_form_exterior(spec))
        assert len(search[0]) == 2 ** n

    def test_pool_hypertrees_are_pinned(self):
        h = hashlib.sha256()
        for stratum in json.loads(POOL.read_text())["strata"]:
            for entry in stratum:
                n_v, masks = entry["n_v"], entry["masks"]
                g = BipGraph([f"v{i + 1}" for i in range(n_v)],
                             [f"e{j + 1}" for j in range(len(masks))],
                             [(v, e) for e, m in enumerate(masks) for v in bits_of(m)])
                b = enumerate_hypertrees(g)
                assert len(b) == entry["hypertrees"]
                h.update(repr(b.vectors).encode())
        assert h.hexdigest() == POOL_SHA256


def _record(monkeypatch, name, calls):
    """Append ``name`` to ``calls`` whenever ``hypertrees.<name>`` runs."""
    original = getattr(hypertrees, name)

    def recorded(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(hypertrees, name, recorded)


def _fan(m):
    """``m`` hyperedges, each on the vertices a and b and on one vertex of
    its own: ``m`` hypertrees (one entry 2, the rest 1) in a degree box of
    far more than 2^m vectors."""
    return BipGraph(["a", "b"] + [f"p{i}" for i in range(m)], [f"e{i}" for i in range(m)],
                    [(v, e) for e in range(m) for v in (0, 1, 2 + e)])


def _engine_of(monkeypatch):
    """The name of the engine ``_route`` picks for one order on a graph;
    neither engine runs."""
    for name in ("_fibres", "_walk"):
        monkeypatch.setattr(hypertrees, name, lambda *args, name=name: name)
    return lambda g: hypertrees._route(g, [None])[1]


class TestRouting:
    """``_route`` is the one place an engine is chosen, and every fast
    reader of the engines goes through it."""

    @pytest.mark.parametrize("g, reverse_too, engine, size", [
        (ladder(hypertrees._SEARCH_CAP - 1), False, "_fibres", 2 ** 11),
        (complete_bipartite(2, hypertrees._SEARCH_CAP + 1), False, "_walk", 13),
        (ladder(hypertrees._SEARCH_CAP), False, "_fibres", 2 ** 12),
        (_fan(hypertrees._SEARCH_CAP + 1), False, "_fibres", 13),
        (_fan(hypertrees._TABLE_CAP + 1), False, "_walk", 21),
        (ladder(2), True, "_walk", 4),
    ], ids=["one-order-at-cap", "one-order-above-cap-small-box",
            "one-order-above-cap-large-box", "fan-at-search-cap-plus-one",
            "fan-above-table-cap", "two-orders-small"])
    def test_one_engine_per_call(self, monkeypatch, g, reverse_too, engine, size):
        orders = [None] + ([tuple(reversed(range(g.n_e)))] if reverse_too else [])
        calls = []
        _record(monkeypatch, "_fibres", calls)
        _record(monkeypatch, "_walk", calls)
        found = list(hypertrees_with_inactivity(g, orders))
        assert calls == [engine]
        assert len(found) == size
        assert {len(sets) for _, sets in found} == {len(orders)}

    def test_the_search_counts_a_ladder_the_walk_would_list(self, monkeypatch):
        # ladder(16) has |E| = 17 and 2^16 hypertrees: the walk lists them
        # in about 5 s, the counting search takes well under one.
        def refuse(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(hypertrees, "_walk", refuse)
        spec = FamilySpec("ladder", (16,))
        assert poly.polynomial_pair(generate(spec)) == (closed_form_interior(spec),
                                                        closed_form_exterior(spec))

    def test_polys_graphs_keep_their_engines(self, monkeypatch):
        # The polys pool and cycle(16), the one polys family above the
        # search cap: |E| <= 12 to the search, the rest to the walk.
        engine_of = _engine_of(monkeypatch)
        graphs = [cycle(16)]
        for stratum in json.loads(POOL.read_text())["strata"]:
            for entry in stratum:
                n_v, masks = entry["n_v"], entry["masks"]
                graphs.append(BipGraph([f"v{i + 1}" for i in range(n_v)],
                                       [f"e{j + 1}" for j in range(len(masks))],
                                       [(v, e) for e, m in enumerate(masks) for v in bits_of(m)]))
        above = [g for g in graphs if g.n_e > hypertrees._SEARCH_CAP]
        assert len(above) == 40
        assert {engine_of(g) for g in above} == {"_walk"}
        assert {engine_of(g) for g in graphs if g not in above} == {"_fibres"}

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_every_graph_within_the_search_cap_takes_the_search(self, data):
        g = data.draw(st.one_of(
            connected_bipgraphs(max_v=6, max_e=hypertrees._SEARCH_CAP),
            st.integers(1, hypertrees._SEARCH_CAP - 1).map(ladder),
            st.integers(1, hypertrees._SEARCH_CAP).map(_fan),
            st.integers(2, hypertrees._SEARCH_CAP).map(lambda m: complete_bipartite(2, m))))
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert _engine_of(monkeypatch)(g) == "_fibres"

    @settings(max_examples=30, deadline=None)
    @given(connected_bipgraphs(max_v=5, max_e=6))
    def test_box_count_is_the_degree_box(self, g):
        box = [f for f in product(*(range(g.deg_e(e)) for e in range(g.n_e)))
               if sum(f) == g.n_v - 1]
        assert hypertrees._box_count(g) == len(box) >= len(enumerate_hypertrees(g))

    def test_every_reader_reaches_the_routine(self, monkeypatch, capsys):
        routine, calls, inside = hypertrees._route, [], []

        def traced(g, orders, **options):
            calls.append(len(orders))
            inside.append(g)
            try:
                return routine(g, orders, **options)
            finally:
                inside.pop()

        for module in (hypertrees, poly, cli):
            for name, value in list(vars(module).items()):
                if value is routine:
                    monkeypatch.setattr(module, name, traced)
        for name in ("_fibres", "_walk"):
            engine = getattr(hypertrees, name)

            def guarded(*args, engine=engine):
                assert inside, "an engine ran outside _route"
                return engine(*args)

            monkeypatch.setattr(hypertrees, name, guarded)
        g = ladder(2)
        assert len(enumerate_hypertrees(g)) == 4
        assert len(poly.polynomial_pairs(g, [None, None])) == 2
        assert cli.main(["hypertrees", "family", "ladder", "2"]) == 0
        assert capsys.readouterr().out.count("\n") == 5
        assert calls == [1, 2, 1]

    def test_no_other_module_names_the_engines(self):
        private = re.compile(r"\b(?:_SEARCH_CAP|_route|_fibres|_walk|_inactive_sets)\b")
        named = {path.name: sorted(set(private.findall(path.read_text())))
                 for path in Path(hypertrees.__file__).parent.glob("*.py")
                 if path.name != "hypertrees.py"}
        assert {name: found for name, found in named.items() if found} == {}


# The three readers of the engine _route picks, each called on a graph.
_EVERY_READER = pytest.mark.parametrize("read", [
    enumerate_hypertrees, poly.polynomial_pair,
    lambda g: list(hypertrees_with_inactivity(g, [None]))],
    ids=["enumerate_hypertrees", "polynomial_pair", "hypertrees_with_inactivity"])


@pytest.mark.parametrize("g", [ladder(4), complete_bipartite(2, hypertrees._SEARCH_CAP + 1)],
                         ids=["search", "walk"])
@_EVERY_READER
def test_an_enumeration_leaves_no_cyclic_garbage(g, read):
    # Everything an engine builds, its memo included, is freed by reference
    # counting as soon as the call returns, not at the next collection.
    gc.collect()
    gc.disable()
    try:
        read(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


@_EVERY_READER
@pytest.mark.parametrize("corrupt", [
    lambda keys, unit: keys + keys[:1],
    lambda keys, unit: [keys[0] + unit[-1]] + keys[1:]],
    ids=["repeated-key", "entry-one-up"])
@pytest.mark.parametrize("name, g", [
    ("_fibres", cycle(3)), ("_walk", complete_bipartite(2, hypertrees._SEARCH_CAP + 1))],
    ids=["search", "walk"])
def test_every_reader_checks_the_search_output(monkeypatch, read, corrupt, name, g):
    # The bulk checks on either engine's output: no key twice, every sum
    # |V| - 1.
    engine = getattr(hypertrees, name)

    def wrong(*args):
        found = engine(*args)
        if not isinstance(found, hypertrees._Search):
            # The counting search has no keys to corrupt: the analogue of
            # either fault is one hypertree counted twice by one vector.
            [(interior, exterior)] = found
            return [(interior, [exterior[0] + 1] + exterior[1:])]
        return found._replace(keys=corrupt(found.keys, found.layout.units))

    monkeypatch.setattr(hypertrees, name, wrong)
    with pytest.raises(RuntimeError, match="internal error"):
        read(g)


# A generator raised only at the first next, so a caller that never
# iterated never learnt its input was bad.
def test_hypertrees_with_inactivity_raises_at_the_call():
    with pytest.raises(GraphError, match="orders"):
        hypertrees_with_inactivity(cycle(3), None)
    with pytest.raises(DisconnectedGraphError):
        hypertrees_with_inactivity(BipGraph(("a", "b"), ("c", "d"), [(0, 0), (1, 1)]), [None])


@pytest.mark.parametrize("zeroed", [0, 1], ids=["first-order-zeroed", "second-order-zeroed"])
def test_each_order_is_read_off_its_own_bits(monkeypatch, zeroed):
    # Correct engines give equal counts under every order, so a reader that
    # took one order's masks for all passed every other test.  Here one
    # order's masks are zeroed in the engine's output, so that order must
    # count every hypertree at inactivity 0 and the other its true counts.
    g = ladder(3)
    true_counts = hypertrees._inactivity_counts(g, [None])[0]
    walk, n = hypertrees._walk, g.n_e

    def one_order_zeroed(g, orders):
        found = walk(g, orders)
        keep = ~((1 << 2 * n) - 1 << found.layout.shift + 2 * n * zeroed)
        return found._replace(keys=[key & keep for key in found.keys])

    monkeypatch.setattr(hypertrees, "_walk", one_order_zeroed)
    total = [[2 ** 3] + [0] * n] * 2
    assert true_counts != tuple(total)
    counts = hypertrees._inactivity_counts(g, [None, None])
    assert counts[zeroed] == tuple(total) and counts[1 - zeroed] == true_counts
    rows = list(hypertrees_with_inactivity(g, [None, None]))
    assert {sets[zeroed] for _, sets in rows} == {(0, 0)}
    assert len({sets[1 - zeroed] for _, sets in rows}) > 1


def _off_by_one(monkeypatch, subset, delta):
    """The search's rank table, with ``delta`` added at ``subset``."""
    build = hypertrees._rank_table

    def wrong(masks):
        table = build(masks)
        table[subset] += delta
        return table

    monkeypatch.setattr(hypertrees, "_rank_table", wrong)


def _caught(g):
    """Whether the enumeration gate fails on ``g`` or the search raises."""
    from hytrex.verify import run_all_checks

    try:
        return not run_all_checks(corpus=[g], names=("enumeration_oracles",))[0].passed
    except RuntimeError as exc:
        assert "internal error" in str(exc)
        return True


class TestRankTableNegativeControl:
    """A rank table lowered by one at any one subset, or raised by one at the
    whole set, raises the internal error or fails enumeration_oracles.
    Raising a single subset can leave the bases as they are (on these four
    graphs it does for 17 of the 40 subsets), so no rule is asserted there."""

    @pytest.mark.parametrize("g", [cycle(3), ladder(2), complete_bipartite(3, 3),
                                   complete_bipartite(2, 4)],
                             ids=["C6", "ladder2", "K33", "K24"])
    def test_every_single_entry_is_guarded(self, monkeypatch, g):
        full = (1 << g.n_e) - 1
        for subset, delta in [(s, -1) for s in range(full + 1)] + [(full, 1)]:
            _off_by_one(monkeypatch, subset, delta)
            assert _caught(g), (subset, delta)
            monkeypatch.undo()
        assert not _caught(g)


class TestMuTableNegativeControl:
    """The oracle-side twin: ``mu_table`` lowered by one at any non-empty
    subset fails enumeration_oracles, and the search, which never reads
    ``mu_table``, enumerates the same hypertrees.  The empty subset bounds no
    sum, so no rule is asserted there."""

    @pytest.mark.parametrize("g", [cycle(3), ladder(2), complete_bipartite(3, 3),
                                   complete_bipartite(2, 4)],
                             ids=["C6", "ladder2", "K33", "K24"])
    def test_every_single_entry_is_guarded(self, monkeypatch, g):
        from hytrex.verify import run_all_checks

        def gate():
            return run_all_checks(corpus=[g], names=("enumeration_oracles",))[0].passed

        expected = enumerate_hypertrees(g)
        for subset in range(1, 1 << g.n_e):
            table = list(mu_table(g))
            table[subset] -= 1
            monkeypatch.setattr(hypertrees, "mu_table", lambda _, table=table: table)
            assert enumerate_hypertrees(g) == expected
            assert not gate(), subset
            monkeypatch.undo()
        assert gate()


@pytest.mark.parametrize("g", [cycle(3), complete_bipartite(3, 3)], ids=["C6", "K33"])
def test_polymatroid_scan_builds_one_table(monkeypatch, g):
    calls = []

    def counted(h):
        calls.append(h)
        return mu_table(h)

    monkeypatch.setattr(hypertrees, "mu_table", counted)
    assert hypertrees_by_brute_force(g, "polymatroid") == enumerate_hypertrees(g)
    assert calls == [g]


def _reversed(g):
    """``g`` with its E class listed in reverse."""
    last = g.n_e - 1
    return BipGraph(g.v_names, g.e_names[::-1], [(v, last - e) for v, e in g.adj])


class TestRankTablesAgree:
    """The search's rank table and the oracle's ``mu_table`` share no code,
    so they are held equal under the input order and the reversed one."""

    def test_census_to_7(self):
        for g in exhaustive_connected_bipartite(7):
            masks = list(g.e_masks)
            assert hypertrees._rank_table(masks) == list(mu_table(g))
            assert hypertrees._rank_table(masks[::-1]) == list(mu_table(_reversed(g)))

    @settings(max_examples=60, deadline=None)
    @given(connected_bipgraphs())
    def test_random_graphs(self, g):
        masks = list(g.e_masks)
        assert hypertrees._rank_table(masks) == list(mu_table(g))
        assert hypertrees._rank_table(masks[::-1]) == list(mu_table(_reversed(g)))
