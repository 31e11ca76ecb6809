"""Activity computations: the inactivities read off the enumeration
engines and the membership-probe flags, plus the structural lemmas about
activities."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings

from conftest import complete_bipartite, connected_bipgraphs, cycle, ladder, path_graph
from hytrex import hypertrees, poly
from hytrex.activity import external_active_flags, internal_active_flags
from hytrex.errors import GraphError
from hytrex.hypertrees import (
    HypertreeSet,
    enumerate_hypertrees,
    greedy_exterior_hypertree,
    hypertrees_by_brute_force,
    hypertrees_with_inactivity,
)
from hytrex.verify import exhaustive_connected_bipartite


def _inactivities(g, order=None):
    """Internal and external inactivity of every hypertree of ``g`` under
    ``order``, read off the engine the routing picks."""
    return {f: (internal.bit_count(), external.bit_count())
            for f, [(internal, external)] in hypertrees_with_inactivity(g, [order])}


class TestHexagonTable:
    """The full activity table of the hexagon under e1 < e2 < e3."""

    def setup_method(self):
        self.table = _inactivities(cycle(3))

    def test_internal_inactivities(self):
        assert self.table[(0, 1, 1)][0] == 2
        assert self.table[(1, 0, 1)][0] == 1
        assert self.table[(1, 1, 0)][0] == 0

    def test_external_inactivities(self):
        assert self.table[(0, 1, 1)][1] == 0
        assert self.table[(1, 0, 1)][1] == 1
        assert self.table[(1, 1, 0)][1] == 1


def _zero_external(g):
    return [f for f, (_, external) in _inactivities(g).items() if external == 0]


class TestTreesAndGreedy:
    def test_tree_has_everything_active(self):
        g = path_graph()
        (f,) = list(enumerate_hypertrees(g))
        assert _inactivities(g) == {f: (0, 0)}

    def test_k33_example(self):
        assert _inactivities(complete_bipartite(3, 3))[(0, 1, 1)][0] == 2

    def test_greedy_has_zero_external_inactivity_and_is_unique(self):
        for g in (cycle(3), complete_bipartite(2, 3), complete_bipartite(3, 3)):
            assert _zero_external(g) == [greedy_exterior_hypertree(g)]

    @settings(max_examples=25, deadline=None)
    @given(connected_bipgraphs())
    def test_greedy_uniqueness_everywhere(self, g):
        assert _zero_external(g) == [greedy_exterior_hypertree(g)]


class TestProbeFlags:
    def test_hexagon_inactive_hyperedges(self):
        b = enumerate_hypertrees(cycle(3))
        # (1, 0, 1): e3 can pass its valence down to e2, and e2 can take
        # valence from e1; nothing else moves down the order
        assert internal_active_flags(b, (1, 0, 1), (0, 1, 2)) == (True, True, False)
        assert external_active_flags(b, (1, 0, 1), (0, 1, 2)) == (True, False, True)

    def test_none_is_the_input_order(self):
        b = enumerate_hypertrees(cycle(3))
        for f in list(b) + [(2, 0, 1)]:
            for flags in (internal_active_flags, external_active_flags):
                assert flags(b, f, None) == flags(b, f) == flags(b, f, (0, 1, 2))

    @pytest.mark.parametrize("order, message", [
        ([0], "permutation"), ([0, 0, 1], "permutation"), ([0, 1, 5], "permutation"),
        ("012", "integers"), (5, "integers"), ([0, 1, 2.0], "integers"),
        ([0, 1, True], "integers")],
        ids=["short", "repeated", "out-of-range", "string", "int", "float", "bool"])
    def test_order_must_be_a_permutation_of_the_hyperedges(self, order, message):
        b = enumerate_hypertrees(cycle(3))
        # a member, and a vector no member is one transfer from
        for f in [(1, 0, 1), (2, 2, 2)]:
            for flags in (internal_active_flags, external_active_flags):
                with pytest.raises(GraphError, match=message):
                    flags(b, f, order)

    def test_the_probe_path_hands_the_flags_the_callers_order(self, monkeypatch):
        # The order is normalised once per set, not once per hypertree: each
        # polynomial counts its set in one call, and None reaches it as None.
        seen = []
        count = poly._probe_counts
        monkeypatch.setattr(poly, "_probe_counts", lambda b, order, external:
                            seen.append((order, external)) or count(b, order, external))
        g = cycle(3)
        b = enumerate_hypertrees(g)
        for order, expected in ((None, None), ([2, 0, 1], (2, 0, 1))):
            seen.clear()
            assert (poly.interior_polynomial(g, order, hypertrees=b),
                    poly.exterior_polynomial(g, order, hypertrees=b)) == poly.polynomial_pair(g)
            assert seen == [(expected, False), (expected, True)]

    @settings(max_examples=30, deadline=None)
    @given(connected_bipgraphs())
    def test_first_hyperedge_of_an_order_is_active(self, g):
        b = enumerate_hypertrees(g)
        for order in (tuple(range(g.n_e)), tuple(reversed(range(g.n_e)))):
            for f in b:
                assert internal_active_flags(b, f, order)[order[0]]
                assert external_active_flags(b, f, order)[order[0]]


class TestInterpolationWitnesses:
    """Whenever inactivity k >= 1 occurs, inactivity k - 1 occurs too."""

    def _levels(self, g, kind):
        which = 0 if kind == "internal" else 1
        return {pair[which] for pair in _inactivities(g).values()}

    @pytest.mark.parametrize("kind", ["internal", "external"])
    def test_named_graphs(self, kind):
        for g in (cycle(3), cycle(5), complete_bipartite(2, 3),
                  complete_bipartite(3, 4)):
            levels = self._levels(g, kind)
            assert levels == set(range(max(levels) + 1))

    @settings(max_examples=25, deadline=None)
    @given(connected_bipgraphs())
    def test_random_graphs(self, g):
        for kind in ("internal", "external"):
            levels = self._levels(g, kind)
            assert levels == set(range(max(levels) + 1))


class TestTransferLemmas:
    @settings(max_examples=20, deadline=None)
    @given(connected_bipgraphs(max_v=3, max_e=4))
    def test_transfer_transitivity(self, g):
        b = enumerate_hypertrees(g)
        for f in b:
            can = {(a, c) for a in range(g.n_e) for c in range(g.n_e)
                   if a != c and f[a] > 0 and _moved(f, a, c) in b}
            for a, mid in can:
                for c in range(g.n_e):
                    if (mid, c) in can and c != a:
                        assert (a, c) in can

    @settings(max_examples=20, deadline=None)
    @given(connected_bipgraphs(max_v=3, max_e=4))
    def test_activity_monotone_between_comparable_hypertrees(self, g):
        b = enumerate_hypertrees(g)
        order = tuple(range(g.n_e))
        vectors = list(b)
        for f1 in vectors:
            for f2 in vectors:
                diff = [e for e in range(g.n_e) if f1[e] != f2[e]]
                if len(diff) != 2:
                    continue
                internal1 = internal_active_flags(b, f1, order)
                internal2 = internal_active_flags(b, f2, order)
                external1 = external_active_flags(b, f1, order)
                external2 = external_active_flags(b, f2, order)
                # internal: active above the coordinate where f2 grew stays active
                e1 = diff[0] if f2[diff[0]] > f1[diff[0]] else diff[1]
                for e in range(g.n_e):
                    if e > e1 and internal1[e]:
                        assert internal2[e]
                # external: mirrored, with e1 the coordinate where f1 is larger
                e1x = diff[0] if f1[diff[0]] > f2[diff[0]] else diff[1]
                for e in range(g.n_e):
                    if e > e1x and external1[e]:
                        assert external2[e]


def _moved(f, a, c):
    out = list(f)
    out[a] -= 1
    out[c] += 1
    return tuple(out)


class TestOrderHandling:
    def test_flags_depend_on_order_but_counts_summarize(self):
        g = cycle(3)
        totals = set()
        for order in permutations(range(3)):
            total = sorted(internal for internal, _ in _inactivities(g, order).values())
            totals.add(tuple(total))
        # multiset of inactivities is order-independent
        assert len(totals) == 1


def _inactive_mask(flags):
    return sum(1 << e for e, active in enumerate(flags) if not active)


class TestWalkInactivity:
    """The bitmask rule read off the walk against the membership-probe flags
    over the polymatroid scan, on every hypertree of the census."""

    def test_matches_probe_flags_on_the_census_to_7(self):
        rng = random.Random("walk-inactivity")
        hypertrees = inactive = 0
        for g in exhaustive_connected_bipartite(7):
            natural = list(range(g.n_e))
            orders = [natural, natural[::-1]]
            for _ in range(3):
                orders.append(rng.sample(natural, g.n_e))
            b = hypertrees_by_brute_force(g, "polymatroid")
            walked = dict(hypertrees_with_inactivity(g, orders))
            assert sorted(walked) == list(b)
            for f, sets in walked.items():
                hypertrees += 1
                for order, (internal, external) in zip(orders, sets):
                    assert internal == _inactive_mask(internal_active_flags(b, f, order)), \
                        (g.e_masks, f, order)
                    assert external == _inactive_mask(external_active_flags(b, f, order)), \
                        (g.e_masks, f, order)
                    inactive += bool(internal) + bool(external)
        assert hypertrees == 378
        assert inactive > 0

    def test_single_orders_match_probe_flags_on_the_census_to_7(self, monkeypatch):
        # One order at a time goes through the fibre search, never the walk.
        monkeypatch.setattr(hypertrees, "_walk", None)
        rng = random.Random("fibre-search")
        checked = 0
        for g in exhaustive_connected_bipartite(7):
            natural = list(range(g.n_e))
            b = hypertrees_by_brute_force(g, "polymatroid")
            for order in [natural, natural[::-1]] + [rng.sample(natural, g.n_e)
                                                     for _ in range(3)]:
                searched = dict(hypertrees_with_inactivity(g, [order]))
                assert sorted(searched) == list(b)
                for f, [(internal, external)] in searched.items():
                    checked += 1
                    assert internal == _inactive_mask(internal_active_flags(b, f, order)), \
                        (g.e_masks, f, order)
                    assert external == _inactive_mask(external_active_flags(b, f, order)), \
                        (g.e_masks, f, order)
        assert checked == 5 * 378

    def test_none_is_the_input_order(self):
        g = complete_bipartite(3, 3)
        for (f1, sets1), (f2, sets2) in zip(hypertrees_with_inactivity(g, [None]),
                                            hypertrees_with_inactivity(g, [(0, 1, 2)])):
            assert (f1, sets1) == (f2, sets2)

    def test_bad_order_rejected(self):
        with pytest.raises(GraphError):
            list(hypertrees_with_inactivity(cycle(3), [(0, 0, 1)]))
        # ``orders`` is a collection of orders: None, a string (which would
        # read as one order per character) and a single value are refused.
        for orders in (None, "012", 3):
            with pytest.raises(GraphError, match="orders"):
                list(hypertrees_with_inactivity(cycle(3), orders))
            with pytest.raises(GraphError, match="orders"):
                poly.polynomial_pairs(cycle(3), orders)

    @pytest.mark.parametrize("g, orders", [
        (ladder(3), [None, (3, 2, 1, 0)]),
        (complete_bipartite(3, 4), [None, None]),
        (complete_bipartite(2, hypertrees._SEARCH_CAP + 1), [None])],
        ids=["ladder3-two-orders", "k34-two-orders", "above-the-cap"])
    def test_rows_are_lexicographic_from_the_walk(self, g, orders):
        rows = [f for f, _ in hypertrees_with_inactivity(g, orders)]
        assert rows == sorted(set(rows)) == list(enumerate_hypertrees(g))


def _reference_flags(b, f, order):
    """Both flag tuples of ``f`` from the definition: every transfer built
    as a tuple and looked up among the members as tuples."""
    members = set(b.vectors)
    internal, external = [True] * len(f), [True] * len(f)
    for pos, e in enumerate(order):
        for smaller in order[:pos]:
            if f[e] >= 1 and _moved(f, e, smaller) in members:
                internal[e] = False
            if f[smaller] >= 1 and _moved(f, smaller, e) in members:
                external[e] = False
    return tuple(internal), tuple(external)


def _assert_probes_match(b, vectors, orders):
    for f in vectors:
        for order in orders:
            got = internal_active_flags(b, f, order), external_active_flags(b, f, order)
            assert got == _reference_flags(b, f, order), (b.vectors, f, order)


class TestPackedProbes:
    """The probes on packed keys against the definition on tuples."""

    def test_census_to_7_and_random_subsets(self):
        rng = random.Random("packed-probes")
        for g in exhaustive_connected_bipartite(7):
            natural = list(range(g.n_e))
            orders = [natural, natural[::-1]] + [rng.sample(natural, g.n_e) for _ in range(3)]
            b = enumerate_hypertrees(g)
            _assert_probes_match(b, b, orders)
            # A subset is not M-convex; the whole set's vectors probe it from
            # outside too, some with an entry one above the subset's largest.
            part = HypertreeSet(f for f in b if rng.random() < 0.5)
            _assert_probes_match(part, b, orders)

    def test_empty_set(self):
        b = HypertreeSet([])
        for f in [(), (0,), (2, 0, 1), (0, 1, 1, 5)]:
            _assert_probes_match(b, [f], [tuple(range(len(f)))])
            assert internal_active_flags(b, f, range(len(f))) == (True,) * len(f)

    # Fields of 8, 16, 32 and 64 bits, each largest entry on both sides of a
    # change of width.  A carry out of the middle field would land on the
    # member (1, 0, 0); the vectors probed are the members, those with one
    # entry raised by one or two and those one transfer away.
    @pytest.mark.parametrize("top", [253, 254, 255, 256, 65533, 65534, 65535, 65536,
                                     2**32 - 3, 2**32 - 2, 2**64 - 3])
    def test_field_edges(self, top):
        b = HypertreeSet([(0, top, 1), (1, top, 0), (1, 0, 0)])
        vectors = set(b)
        for m in b:
            for i in range(3):
                vectors |= {m[:i] + (m[i] + k,) + m[i + 1:] for k in (1, 2)}
                vectors |= {_moved(m, i, j) for j in range(3) if j != i and m[i]}
        _assert_probes_match(b, sorted(vectors), list(permutations(range(3))))

    @pytest.mark.parametrize("f", [(-1, 1, 1), (1.5, 0, 1), ("1", 0, 1), (1, 1)],
                             ids=["negative", "float", "string", "short"])
    def test_probed_vector_must_be_natural_of_the_set_length(self, f):
        b = enumerate_hypertrees(cycle(3))
        for flags in (internal_active_flags, external_active_flags):
            with pytest.raises(GraphError, match="a probed vector must hold"):
                flags(b, f, range(len(f)))
