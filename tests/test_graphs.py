import copy
import dataclasses
import pickle
import random
import re
import weakref
from collections import deque
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, strategies as st
from test_imports import TRUSTED_BUILDERS

from gpcover import graphs
from gpcover.graphs import (
    Graph,
    GraphFormatError,
    _breadth_first,
    _search,
    adjacency,
    adjacency_masks,
    bipartition,
    connected_components,
    decode_graph6,
    degrees,
    encode_graph6,
    girth,
    graph,
    is_connected,
    to_dot,
)
from gpcover.classify import Case, classify, involution_family, quotient_lcf
from gpcover.families import GpParams, gp, lcf
from gpcover.covers import kronecker_cover, natural_swap, quotient
from gpcover.oracle import automorphisms, canonical_form, kronecker_involutions
from gpcover.perms import desargues_half_turn, from_triple, is_automorphism


def k4():
    return graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


def random_graph(rng, max_n=40):
    n = rng.randint(1, max_n)
    p = rng.random()
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph(n, edges)


def nx_graph6(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.vertex_count))
    nxg.add_edges_from(g.edges)
    return nx.to_graph6_bytes(nxg, header=False).strip().decode()


def nx_edges(nxg):
    return sorted(map(tuple, map(sorted, nxg.edges())))


def canonical_quotient(n, k):
    c = classify(GpParams(n, k))
    return c, quotient(gp(GpParams(n, k)), from_triple(n, k, c.canonical_involution))


class TestAdjacency:
    @staticmethod
    def reference(g):
        return tuple(
            tuple(sorted([v for u, v in g.edges if u == x] + [u for u, v in g.edges if v == x]))
            for x in range(g.vertex_count)
        )

    def test_sorted_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_graph(rng)
            assert adjacency(g) == self.reference(g)

    def test_sorted_on_decoded_graphs(self):
        rng = random.Random(19)
        for _ in range(30):
            g = decode_graph6(encode_graph6(random_graph(rng, max_n=70)))
            assert adjacency(g) == self.reference(g)
        g = decode_graph6(encode_graph6(canonical_quotient(420, 29)[1]))
        assert adjacency(g) == self.reference(g)


def reference_graph(vertex_count, edges):
    """graph() as it was before integer edge keys, without the Graph
    constructor: a set of ordered pairs, each edge checked in input order,
    then the vertex count.  Returns the (vertex_count, edges) fields that
    graph() and Graph() must give, or raises the same exception with the
    same message."""
    canon = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise ValueError(f"edge {e!r} is not a pair of endpoints") from None
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
        canon.add((u, v) if u < v else (v, u))
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    return vertex_count, tuple(sorted(canon))


def build_outcome(build, n, edges, kind):
    """build(n, edges) with the edges passed as a list, a tuple or a
    generator, as the (vertex_count, edges) fields of the Graph it returns
    or the (type, message) it raises."""
    arg = {"list": list, "tuple": tuple, "generator": lambda es: (e for e in es)}[kind](edges)
    try:
        built = build(n, arg)
    except Exception as exc:
        return type(exc), str(exc)
    return (built.vertex_count, built.edges) if isinstance(built, Graph) else built


def messy_edges(rng, n, m, bad):
    """m edges on n >= 2 vertices in random orientation, with duplicates in
    both orientations and, when bad, now and then a loop, an out-of-range
    endpoint or a non-pair."""
    edges = []
    for _ in range(m):
        roll = rng.random() if bad else 1.0
        if roll < 0.01:
            edges.append((rng.randrange(-1, n + 1),) * 2)
        elif roll < 0.02:
            edges.append((rng.randrange(n), rng.choice([-1, n, n + 5])))
        elif roll < 0.025:
            edges.append((0, 1, 2))
        elif roll < 0.2 and edges:
            u, v = rng.choice(edges)[:2]
            edges.append([v, u] if rng.random() < 0.5 else (u, v))
        else:
            edges.append(tuple(rng.sample(range(n), 2)))
    return edges


class TestGraphMatchesReference:
    @given(
        st.integers(-1, 9).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=25),
        )),
        st.sampled_from(["list", "tuple", "generator"]),
    )
    @example((3, [(2, 1), (1, 2), (0, 3), (1, 1)]), "generator")
    @example((3, [(1, 1), (0, 3)]), "list")
    @example((0, []), "tuple")
    def test_small_inputs(self, case, kind):
        n, edges = case
        expected = build_outcome(reference_graph, n, edges, kind)
        assert build_outcome(graph, n, edges, kind) == build_outcome(Graph, n, edges, kind) == expected

    def test_seeded_inputs_at_workload_sizes(self):
        # Every other case holds a bad edge somewhere; the rest are valid.
        rng = random.Random(41)
        for trial in range(60):
            n = rng.choice([2, 5, 60, 200, 1200])
            edges = messy_edges(rng, n, rng.randrange(3 * n), bad=trial % 2 == 1)
            kind = ("list", "tuple", "generator")[trial % 3]
            new = build_outcome(graph, n, edges, kind)
            assert new == build_outcome(Graph, n, edges, kind), (n, kind)
            assert new == build_outcome(reference_graph, n, edges, kind), (n, kind)
            if isinstance(new[1], tuple):  # built, not raised
                assert all(type(u) is int and type(v) is int for u, v in new[1])

    def test_canonical_inputs_unchanged(self):
        for g in (k4(), gp(GpParams(60, 17)), canonical_quotient(420, 29)[1]):
            assert graph(g.vertex_count, g.edges) == Graph(g.vertex_count, g.edges) == g
            assert reference_graph(g.vertex_count, g.edges) == (g.vertex_count, g.edges)


def assert_matches_graph(g):
    """g, built without graph()'s checks, equals graph() of its own edges
    field for field, with int endpoints and pairs."""
    expected = graph(g.vertex_count, list(g.edges))
    assert type(g) is Graph
    assert [getattr(g, f.name) for f in dataclasses.fields(Graph)] == [
        getattr(expected, f.name) for f in dataclasses.fields(Graph)
    ]
    assert type(g.vertex_count) is int and type(g.edges) is tuple
    assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is int for e in g.edges)


def built_graphs(n, k):
    """Every graph the package's builders make from GP(n,k): the graph, its
    Kronecker cover, its canonical quotient and the quotient along every
    other covering involution the classifier names, each quotient's
    materialized closed form, the LCF graph of each involution-family
    member, and the graph6 round trip of all of these."""
    p = GpParams(n, k)
    g = gp(p)
    c = classify(p)
    built = [g, kronecker_cover(g)]
    for desc in c.quotients:
        via = desargues_half_turn() if desc.via == "delta" else from_triple(n, k, desc.via)
        built += [quotient(g, via), desc.materialize()]
    if c.case in (Case.B1, Case.B2):
        for t in involution_family(p):
            built += [quotient(g, from_triple(n, k, t)), lcf(quotient_lcf(p, t.a))]
    return built + [decode_graph6(encode_graph6(b)) for b in built]


def pairs_past_oracle_bound(seed):
    """A seeded sample of (n, k) with 100 <= n <= 600: 20 uniform pairs,
    10 half-turn covers and 10 rim-switch covers."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(20):
        n = rng.randrange(100, 601)
        pairs.append((n, rng.randrange(1, (n - 1) // 2 + 1)))
    for _ in range(10):
        n = rng.randrange(102, 601, 4)
        pairs.append((n, rng.randrange(1, (n - 1) // 2 + 1, 2)))
    rim = [(n, k) for n in range(100, 601, 4) for k in range(1, n // 2, 2)
           if classify(GpParams(n, k)).case in (Case.B1, Case.B2)]
    return pairs + rng.sample(rim, 10)


class TestBuildersMatchGraph:
    """The package's builders hand valid pairs to graphs._from_pairs, which
    skips graph()'s checks; graph() on the same edges is the second route."""

    def test_every_gp_to_60(self):
        for n in range(3, 61):
            for k in range(1, (n - 1) // 2 + 1):
                for b in built_graphs(n, k):
                    assert_matches_graph(b)

    def test_seeded_sample_past_oracle_bound(self):
        for n, k in pairs_past_oracle_bound(59):
            for b in built_graphs(n, k):
                assert_matches_graph(b)

    def test_decoded_random_graphs(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_graph(rng, max_n=70)
            decoded = decode_graph6(encode_graph6(g))
            assert_matches_graph(decoded)
            assert decoded == g

    def test_quotient_of_random_covers_by_the_natural_swap(self):
        # A connected non-bipartite graph's cover is connected and bipartite,
        # and the swap v' <-> v'' is a covering involution whose quotient,
        # with orbits ranked by their least vertex, is the graph itself.
        rng = random.Random(61)
        seen = 0
        for _ in range(200):
            g = random_graph(rng, max_n=30)
            if not is_connected(g) or bipartition(g) is not None:
                continue
            seen += 1
            cover = kronecker_cover(g)
            assert_matches_graph(cover)
            q = quotient(cover, natural_swap(g.vertex_count))
            assert_matches_graph(q)
            assert q == g
        assert seen > 50


class TestFromPairsContract:
    """Every call of graphs._from_pairs, which neither sorts nor checks its
    pairs, gets them valid and already in the canonical order; the
    ``from_pairs_contract`` fixture asserts it on each call."""

    def test_every_trusted_builder_keeps_the_contract(self, from_pairs_contract):
        for n in range(3, 41):
            for k in range(1, (n - 1) // 2 + 1):
                built_graphs(n, k)
        rng = random.Random(73)
        disconnected = [kronecker_cover(gp(GpParams(n, k))) for n, k in [(6, 1), (10, 3), (12, 5)]]
        disconnected += [graph(5, [(0, 1), (2, 3)]), graph(4, []), graph(7, [(1, 6), (2, 4)])]
        for _ in range(100):
            g = random_graph(rng, max_n=40)
            assert decode_graph6(encode_graph6(g)) == g
            if not is_connected(g):
                disconnected.append(g)
        assert len(disconnected) > 20
        for g in disconnected:
            assert len(canonical_form(g)) > 0
        assert from_pairs_contract == TRUSTED_BUILDERS

    def test_the_fixture_refuses_pairs_out_of_order(self, from_pairs_contract):
        with pytest.raises(AssertionError, match="out of canonical order"):
            graphs._from_pairs(3, [(1, 2), (0, 1)])
        with pytest.raises(AssertionError):
            graphs._from_pairs(3, [(0, 1), (0, 1)])
        with pytest.raises(AssertionError):
            graphs._from_pairs(3, [(1, 0)])


class TestConstruction:
    def test_k4(self):
        g = k4()
        assert g.vertex_count == 4
        assert len(g.edges) == 6

    def test_single_vertex(self):
        g = graph(1, [])
        assert g.vertex_count == 1
        assert g.edges == ()

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            graph(3, [(0, 3)])

    @pytest.mark.parametrize("edges, named", [
        ([(0, 1.5)], "(0,1.5)"),
        ([(0, 1), (2.0, 1)], "(2.0,1)"),
        ([(Fraction(1), 2)], "(Fraction(1, 1),2)"),
        ([(0, 1.5), (1, 1)], "(0,1.5)"),
        # Endpoints that do not compare with integers at all.
        ([(0, "1")], "(0,'1')"),
        ([(None, 1)], "(None,1)"),
        ([(0, 1), (0, 2.5j)], "(0,2.5j)"),
    ])
    def test_non_integer_endpoint_rejected(self, edges, named):
        with pytest.raises(ValueError, match=re.escape(f"edge {named} has a non-integer endpoint")):
            graph(3, edges)

    @pytest.mark.parametrize("edges, named", [
        ([(0, 1, 2)], "(0, 1, 2)"),
        ([(0, 1), (0,), (1, 1)], "(0,)"),
        ([0], "0"),
    ], ids=["three-endpoints", "one-endpoint", "an-int"])
    def test_edge_that_is_no_pair_rejected(self, edges, named):
        for build in (Graph, graph):
            with pytest.raises(ValueError, match=re.escape(f"edge {named} is not a pair of endpoints")):
                build(3, edges)

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
    def test_non_integer_vertex_count_rejected(self, count):
        with pytest.raises(ValueError, match=re.escape(f"vertex count {count!r} is not an integer")):
            graph(count, [])

    @pytest.mark.parametrize("count", [2.5, "3", None])
    def test_hand_built_non_integer_vertex_count_rejected(self, count):
        # A Graph built without graph() is checked the same way, before any
        # search can meet the count.
        with pytest.raises(ValueError, match=re.escape(f"vertex count {count!r} is not an integer")):
            Graph(count, ())

    @pytest.mark.parametrize("edges, message", [
        (((0, 0),), "loop edge at vertex 0"),
        (((1, 1),), "loop edge at vertex 1"),
        (((0, 5),), "edge (0,5) out of range for 3 vertices"),
        (((-1, 2),), "edge (-1,2) out of range for 3 vertices"),
        (((0, 1), (2, 0), (0, 9)), "edge (0,9) out of range for 3 vertices"),
    ], ids=["(0,0)", "(1,1)", "(0,5)", "(-1,2)", "(0,9)"])
    def test_hand_built_bad_edge_rejected(self, edges, message):
        # Refused when the Graph is built, before any search or encoder can
        # meet the edge, with the message graph() gives.
        for build in (Graph, graph):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(3, edges)

    def test_loop_before_non_integer_named_first(self):
        with pytest.raises(ValueError, match="loop edge at vertex 1"):
            graph(3, [(1, 1), (0, 1.5)])

    def test_integer_like_endpoints_become_ints(self):
        np = pytest.importorskip("numpy")
        for edges in ([(True, 2)], [(np.int64(1), np.int64(2))], [(np.int32(2), 1)]):
            g = graph(3, edges)
            assert g == graph(3, [(1, 2)])
            assert all(type(x) is int for x in g.edges[0])

    def test_duplicates_dropped_silently(self):
        g = graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges == ((0, 1),)

    def test_canonical_idempotent(self):
        g = k4()
        assert graph(g.vertex_count, g.edges) == g

    def test_degree_sum(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng)
            assert sum(degrees(g)) == 2 * len(g.edges)


class TestEveryGraphIsCanonical:
    """Graph(n, edges) stores the same canonical fields as graph(n, edges),
    so no search, encoder or comparison meets a duplicate, reversed or
    list-typed edge list."""

    def test_duplicate_edges_are_merged(self):
        g = Graph(3, ((0, 1), (0, 1)))
        assert g.edges == ((0, 1),)
        assert len(automorphisms(g)) == 2

    def test_reversed_edge_is_ordered(self):
        g = Graph(2, ((1, 0),))
        assert g == graph(2, [(0, 1)])
        assert is_automorphism(g, (0, 1))
        assert encode_graph6(Graph(3, ((1, 0),))) == encode_graph6(graph(3, [(0, 1)]))

    def test_list_edges_become_a_hashable_tuple(self):
        g = Graph(3, [(0, 1)])
        assert g.edges == ((0, 1),)
        assert hash(g) == hash(graph(3, [(0, 1)]))

    def test_replace_builds_a_canonical_graph(self):
        g = dataclasses.replace(k4(), edges=[(2, 1), (1, 0), (2, 1)])
        assert g == graph(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=re.escape("edge (0,4) out of range for 4 vertices")):
            dataclasses.replace(k4(), edges=[(0, 4)])


class TestBipartition:
    def test_gp_10_3_sizes(self):
        colors = bipartition(gp(GpParams(10, 3)))
        assert colors is not None
        assert sorted((colors.count(0), colors.count(1))) == [10, 10]

    def test_gp_5_2_absent(self):
        assert bipartition(gp(GpParams(5, 2))) is None

    def test_gp_6_2_absent(self):
        assert bipartition(gp(GpParams(6, 2))) is None

    def test_least_vertex_color_zero(self):
        colors = bipartition(graph(5, [(1, 2), (3, 4)]))
        assert colors == [0, 0, 1, 0, 1]

    def test_valid_two_coloring(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, max_n=15)
            colors = bipartition(g)
            if colors is not None:
                assert all(colors[u] != colors[v] for u, v in g.edges)
            else:
                assert nx.is_bipartite(nx.Graph(list(g.edges))) is False

    def test_bipartite_iff_n_even_k_odd(self):
        for n in range(3, 31):
            for k in range(1, (n - 1) // 2 + 1):
                present = bipartition(gp(GpParams(n, k))) is not None
                assert present == (n % 2 == 0 and k % 2 == 1), (n, k)


class TestComponents:
    def test_gp_connected(self):
        assert len(connected_components(gp(GpParams(7, 2)))) == 1

    def test_cover_of_bipartite_splits(self):
        comps = connected_components(kronecker_cover(gp(GpParams(6, 1))))
        assert len(comps) == 2

    def test_empty_graph(self):
        assert connected_components(graph(3, [])) == [[0], [1], [2]]

    def test_ordering_by_least_vertex(self):
        comps = connected_components(graph(6, [(4, 5), (0, 3)]))
        assert comps == [[0, 3], [1], [2], [4, 5]]


class TestSearchMatchesNetworkx:
    """connected_components, is_connected and bipartition share one search;
    networkx is the second route for all three."""

    def test_random_graphs(self):
        rng = random.Random(31)
        for trial in range(120):
            n = rng.randint(1, 60)
            p = rng.random() * (3 if trial % 2 else 1.2) / n
            g = graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
            nxg = nx.empty_graph(n)
            nxg.add_edges_from(g.edges)
            comps = connected_components(g)
            assert comps == sorted(sorted(c) for c in nx.connected_components(nxg))
            assert is_connected(g) == nx.is_connected(nxg)
            colors = bipartition(g)
            assert (colors is not None) == nx.is_bipartite(nxg)
            if colors is not None:
                assert all(colors[u] != colors[v] for u, v in g.edges)
                assert all(colors[c[0]] == 0 for c in comps)

    def test_visit_order_is_a_breadth_first_search(self):
        # The order the oracle's backtracking walks: a FIFO search from each
        # least unvisited vertex, taking neighbors in ascending order.
        rng = random.Random(37)
        cases = [graph(0, []), graph(6, [(4, 5), (0, 3), (3, 5)]), gp(GpParams(12, 5)),
                 kronecker_cover(gp(GpParams(7, 2))), *(random_graph(rng) for _ in range(40))]
        for g in cases:
            nbrs = [sorted({v for e in g.edges if u in e for v in e} - {u})
                    for u in range(g.vertex_count)]
            order = []
            for root in range(g.vertex_count):
                if root in order:
                    continue
                queue = deque([root])
                order.append(root)
                while queue:
                    for w in nbrs[queue.popleft()]:
                        if w not in order:
                            order.append(w)
                            queue.append(w)
            assert _search(g)[2] == tuple(order)

    def test_breadth_first_from_every_source(self):
        # Every source, not only each component's least vertex: the
        # involution search reads rows from r and from each image of r.
        rng = random.Random(37)
        base = gp(GpParams(12, 5))
        cases = [base, kronecker_cover(base), *(random_graph(rng) for _ in range(40))]
        assert any(0 in degrees(g) and len(connected_components(g)) > 2 for g in cases)
        for g in cases:
            nxg = nx.empty_graph(g.vertex_count)
            nxg.add_edges_from(g.edges)
            for source in range(g.vertex_count):
                dist = [-1] * g.vertex_count
                order = _breadth_first(adjacency(g), source, dist)
                expected = [-1] * g.vertex_count
                for v, d in nx.single_source_shortest_path_length(nxg, source).items():
                    expected[v] = d
                assert dist == expected
                fifo = [source]
                for u in fifo:
                    for w in sorted(nxg[u]):
                        if w not in fifo:
                            fifo.append(w)
                assert order == fifo

    def test_workload_graphs(self):
        for n, k in [(402, 37), (420, 29)]:
            c, q = canonical_quotient(n, k)
            for g in (gp(GpParams(n, k)), q, kronecker_cover(q)):
                nxg = nx.empty_graph(g.vertex_count)
                nxg.add_edges_from(g.edges)
                assert is_connected(g) == nx.is_connected(nxg)
                assert len(connected_components(g)) == nx.number_connected_components(nxg)
                assert (bipartition(g) is not None) == nx.is_bipartite(nxg)

    def test_results_are_fresh_lists(self):
        # The search is kept on the graph; callers may still change what they get.
        g = graph(4, [(0, 1), (2, 3)])
        twin = graph(4, [(3, 2), (1, 0)])
        bipartition(g)[0] = 7
        connected_components(g)[0].append(9)
        connected_components(g).pop()
        assert bipartition(g) is not bipartition(g)
        assert connected_components(g)[0] is not connected_components(g)[0]
        for h in (g, twin):
            assert bipartition(h) == [0, 1, 0, 1]
            assert connected_components(h) == [[0, 1], [2, 3]]
            assert not is_connected(h)


def recorded_facts_match_search(g):
    """How many facts (components, colouring) g's builder recorded, after
    asserting that each equals the search on an unrecorded twin.  Call it
    before anything asks g for them, so that only recorded facts are there."""
    recorded = {name: g.__dict__[name] for name in ("_components", "_colouring")
                if name in g.__dict__}
    components, colouring, _ = _search(Graph(g.vertex_count, g.edges))
    searched = {"_components": components, "_colouring": colouring}
    for name, value in recorded.items():
        assert value == searched[name], (name, g)
    return len(recorded)


class TestRecordedFacts:
    """gp records one component and its 2-colouring, kronecker_cover the
    colouring v' -> 0, v'' -> 1 when the base has no isolated vertex, and
    quotient one component and no colouring; the search on an unrecorded
    twin Graph(g.vertex_count, g.edges) is the second route."""

    def test_every_gp_to_60_its_cover_and_every_quotient(self):
        quotients = 0
        for n in range(3, 61):
            for k in range(1, (n - 1) // 2 + 1):
                g = gp(GpParams(n, k))
                assert recorded_facts_match_search(g) == 2
                assert recorded_facts_match_search(kronecker_cover(g)) == 1
                for w in kronecker_involutions(g):
                    q = quotient(g, w)
                    assert recorded_facts_match_search(q) == 2
                    assert recorded_facts_match_search(kronecker_cover(q)) == 1
                    quotients += 1
        assert quotients == 219

    def test_seeded_sample_past_oracle_bound(self):
        compared = 0
        for n, k in pairs_past_oracle_bound(67):
            built = built_graphs(n, k)
            compared += sum(map(recorded_facts_match_search, built))
            compared += sum(recorded_facts_match_search(kronecker_cover(b)) for b in built)
        assert compared > 200

    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                 max_size=20),
    )))
    @example((3, [(0, 1)]))
    @example((4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    def test_covers_of_small_graphs_and_their_quotients(self, drawn):
        n, pairs = drawn
        g = graph(n, [(u, v) for u, v in pairs if u != v])
        cover = kronecker_cover(g)
        isolated = n > len({x for e in g.edges for x in e})
        assert recorded_facts_match_search(cover) == (0 if isolated else 1)
        if is_connected(g) and bipartition(g) is None:
            # The swap v' <-> v'' is a covering involution of the cover.
            q = quotient(cover, natural_swap(n))
            assert recorded_facts_match_search(q) == 2

    def test_covers_with_isolated_vertices_are_coloured_by_the_search(self):
        # kronecker_cover records v' -> 0, v'' -> 1 only when no base vertex
        # is isolated; an isolated x leaves {x''} a component whose least
        # vertex takes colour 0, which the search finds when first asked.
        rng = random.Random(83)
        bases = [graph(0, []), graph(1, []), graph(2, []), graph(3, [(0, 1)]),
                 graph(6, [(1, 5), (2, 5), (3, 4)]), decode_graph6("@")]
        while len(bases) < 60:
            g = random_graph(rng, max_n=12)
            if g.vertex_count > len({x for e in g.edges for x in e}):
                bases.append(g)
        for base in bases:
            cover = kronecker_cover(base)
            assert_matches_graph(cover)
            isolated = base.vertex_count > len({x for e in base.edges for x in e})
            assert ("_colouring" in cover.__dict__) is (not isolated)
            colors = bipartition(cover)
            assert all(colors[u] != colors[v] for u, v in cover.edges)
            assert all(colors[comp[0]] == 0 for comp in connected_components(cover))
            assert colors == bipartition(Graph(cover.vertex_count, cover.edges))
        # n0 = 0 has no isolated vertex, and n0 = 1 only an isolated one.
        assert bipartition(kronecker_cover(graph(0, []))) == []
        assert bipartition(kronecker_cover(graph(1, []))) == [0, 0]

    def test_cover_of_a_graph_with_an_isolated_vertex(self):
        # An isolated base vertex x leaves {x''} a component of its own,
        # whose least vertex x'' takes colour 0; decode_graph6("@") is the
        # one-vertex graph that ``gpcover kc --g6 @`` covers.
        for base, expected in [(graph(3, [(0, 1)]), [0, 0, 0, 1, 1, 0]),
                               (decode_graph6("@"), [0, 0])]:
            cover = kronecker_cover(base)
            assert bipartition(cover) == expected
            assert bipartition(Graph(cover.vertex_count, cover.edges)) == expected

    def test_quotient_of_the_empty_graph_records_nothing(self):
        # The empty graph passes every clause with the empty map; its
        # quotient has no component and the empty colouring.
        q = quotient(graph(0, []), ())
        assert recorded_facts_match_search(q) == 0
        assert connected_components(q) == [] and bipartition(q) == []

    def test_closed_form_chain_runs_no_search(self, monkeypatch):
        calls = []
        search = graphs._search
        monkeypatch.setattr(graphs, "_search", lambda g: calls.append(g) or search(g))
        for n, k, case in [(402, 37, Case.A1), (400, 49, Case.B1)]:
            p = GpParams(n, k)
            c = classify(p)
            g = gp(p)
            q = quotient(g, from_triple(n, k, c.canonical_involution))
            cover = kronecker_cover(q)
            assert c.case is case
            assert bipartition(cover) is not None
            assert is_connected(g) and is_connected(q) and bipartition(q) is None
        assert calls == []
        # The counter sees the search of a graph whose facts nobody recorded.
        assert bipartition(graph(3, [(0, 1)])) == [0, 1, 0]
        assert len(calls) == 1


def derive_all(g):
    """Every derived datum a Graph keeps, through the public functions."""
    return (hash(g), adjacency(g), adjacency_masks(g), degrees(g), bipartition(g),
            is_connected(g), connected_components(g))


class TestDerivedDataOnTheGraph:
    """The hash, adjacency, adjacency_masks and the shared search are
    computed once per Graph and kept on it, never in a module-level memo."""

    def test_graphs_are_freed_with_their_last_reference(self):
        # Reference counting alone must free them; no gc.collect() here.
        g = gp(GpParams(402, 37))
        cover = kronecker_cover(g)
        derive_all(g)
        derive_all(cover)
        refs = [weakref.ref(g), weakref.ref(cover)]
        del g, cover
        assert [ref() for ref in refs] == [None, None]

    def test_equal_graphs_built_apart_agree(self):
        for n, k in [(30, 7), (11, 3), (402, 37)]:
            a = gp(GpParams(n, k))
            b = decode_graph6(encode_graph6(a))
            assert a == b and a is not b
            derive_all(a)  # b derives its data from scratch
            assert derive_all(b) == derive_all(a)
            assert _search(b) == _search(a)
            assert hash(a) == hash(b) == hash((a.vertex_count, a.edges))

    def test_hash_is_the_field_hash(self):
        rng = random.Random(43)
        for g in [graph(0, []), k4(), *(random_graph(rng) for _ in range(20))]:
            computed = hash(g)
            assert computed == hash(g) == hash((g.vertex_count, g.edges))

    def test_hand_built_graph(self):
        g = Graph(5, ((0, 1), (1, 2), (3, 4)))
        assert adjacency(g) == ((1,), (0, 2), (1,), (4,), (3,))
        assert adjacency_masks(g) == (0b10, 0b101, 0b10, 0b10000, 0b1000)
        assert degrees(g) == (1, 2, 1, 1, 1)
        assert connected_components(g) == [[0, 1, 2], [3, 4]]
        assert bipartition(g) == [0, 1, 0, 0, 1]
        assert not is_connected(g)
        assert hash(g) == hash(graph(5, [(4, 3), (2, 1), (1, 0)]))
        odd = Graph(3, ((0, 1), (0, 2), (1, 2)))
        assert bipartition(odd) is None and is_connected(odd)

    @pytest.mark.parametrize(
        "clone",
        [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_carry_the_fields_only(self, clone):
        g = gp(GpParams(12, 5))
        expected = derive_all(g)
        c = clone(g)
        assert set(vars(c)) == {"vertex_count", "edges"}
        assert c == g
        assert derive_all(c) == expected
        assert repr(c) == repr(g)


def girth_by_edge_removal(g: Graph):
    """Independent shortest-cycle oracle: min over edges uv of
    1 + dist(u,v) in g - uv."""
    adj = adjacency(g)
    best = None
    for u, v in g.edges:
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w in adj[x]:
                if (x, w) in ((u, v), (v, u)):
                    continue
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


class TestGirth:
    def test_petersen(self):
        g = gp(GpParams(5, 2))
        assert girth(g) == girth_by_edge_removal(g) == 5

    def test_c4(self):
        assert girth(graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == 4

    def test_path_has_none(self):
        assert girth(graph(3, [(0, 1), (1, 2)])) is None

    def test_matches_independent_oracle(self):
        rng = random.Random(23)
        for _ in range(80):
            g = random_graph(rng, max_n=12)
            assert girth(g) == girth_by_edge_removal(g)

    def test_bipartite_girth_even(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_graph(rng, max_n=14)
            if bipartition(g) is not None:
                assert girth(g) is None or girth(g) % 2 == 0


class TestGraph6:
    def test_k4_fixed_string(self):
        assert encode_graph6(k4()) == "C~"

    def test_single_vertex(self):
        assert encode_graph6(graph(1, [])) == "@"

    def test_too_many_vertices_rejected(self):
        with pytest.raises(ValueError, match="graph6 supports at most 258047 vertices"):
            encode_graph6(graph(258048, []))

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_graph(rng)
            assert decode_graph6(encode_graph6(g)) == g

    def test_matches_networkx_both_ways(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng)
            assert encode_graph6(g) == nx_graph6(g)
            back = nx.from_graph6_bytes(encode_graph6(g).encode())
            assert nx_edges(back) == list(g.edges)

    @pytest.mark.parametrize("density", ["sparse", "dense"])
    @pytest.mark.parametrize("n", [62, 63, 64, 127, 600])
    def test_matches_networkx_at_workload_sizes(self, n, density):
        rng = random.Random(f"{n}/{density}")
        p = 3 / n if density == "sparse" else 0.5
        g = graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        s = encode_graph6(g)
        assert s == nx_graph6(g)
        assert s.startswith("~") == (n > 62)
        back = nx.from_graph6_bytes(s.encode())
        assert back.number_of_nodes() == n and nx_edges(back) == list(g.edges)
        assert decode_graph6(s) == g

    @pytest.mark.parametrize("n, k, case", [
        (402, 37, "A1"), (402, 101, "A2"), (420, 29, "B1"), (408, 103, "B2"),
    ])
    def test_quotient_round_trip_past_oracle_bound(self, n, k, case):
        c, q = canonical_quotient(n, k)
        assert c.case.value == case
        s = encode_graph6(q)
        assert decode_graph6(s) == q
        assert s == nx_graph6(q)

    @pytest.mark.parametrize("n, text", [(0, "?"), (1, "@")])
    def test_no_bit_field(self, n, text):
        g = graph(n, [])
        assert encode_graph6(g) == text
        assert decode_graph6(text) == decode_graph6(text.encode()) == g
        assert text == nx_graph6(g)
        with pytest.raises(GraphFormatError, match="trailing"):
            decode_graph6(text + "?")

    def test_long_form_header(self):
        g = graph(100, [(0, 99), (1, 2)])
        s = encode_graph6(g)
        assert s.startswith("~")
        assert decode_graph6(s) == g
        assert s == nx_graph6(g)

    def test_decode_accepts_bytes_and_header(self):
        assert decode_graph6(b"C~") == k4()
        assert decode_graph6(">>graph6<<C~") == k4()

    def test_truncated_rejected(self):
        with pytest.raises(GraphFormatError, match="truncated"):
            decode_graph6("C")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(GraphFormatError, match="trailing"):
            decode_graph6("C~~")

    def test_bad_character_rejected(self):
        with pytest.raises(GraphFormatError):
            decode_graph6("C\x1f")

    def test_first_bad_character_named(self):
        with pytest.raises(GraphFormatError, match=r"character '\\x1f' outside"):
            decode_graph6("C~\x1f\xff")
        with pytest.raises(GraphFormatError, match="character 'é' outside"):
            decode_graph6("Cé\x1f")

    @pytest.mark.parametrize("raw", [b"\xffC", b"C\x80", b">>graph6<<C\xe9\n"])
    def test_non_ascii_byte_named(self, raw):
        bad = next(b for b in raw if b >= 0x80)
        with pytest.raises(GraphFormatError, match=f"non-ASCII byte {bad:#04x}"):
            decode_graph6(raw)

    @pytest.mark.parametrize("text", ["B~", "Bx", "A`", "A@", "D~~"])
    def test_nonzero_padding_rejected(self, text):
        with pytest.raises(GraphFormatError, match="padding"):
            decode_graph6(text)

    def test_nonzero_padding_rejected_after_long_header(self):
        s = encode_graph6(graph(65, [(u, v) for v in range(65) for u in range(v)]))
        assert s.endswith("{")  # 2080 bits: the last character holds 4 and 2 padding
        assert decode_graph6(s).edges[-1] == (63, 64)
        with pytest.raises(GraphFormatError, match="padding"):
            decode_graph6(s[:-1] + "|")

    @pytest.mark.parametrize("text", ["Bw", "A_", "D~{"])
    def test_full_last_character_accepted(self, text):
        assert encode_graph6(decode_graph6(text)) == text

    def test_malformed_long_header_rejected(self):
        with pytest.raises(GraphFormatError):
            decode_graph6("~~")

    @pytest.mark.parametrize("text", ["~???", "~??@", "~??}" + "?" * 316])
    def test_long_header_below_63_vertices_rejected(self, text):
        # n <= 62 has the one-byte header, so a long one would not re-encode
        # to itself: "~???" would be the empty graph "?".
        with pytest.raises(GraphFormatError, match="malformed graph6 size header"):
            decode_graph6(text)

    def test_long_header_from_63_vertices_accepted(self):
        g = graph(63, [(0, 62)])
        text = encode_graph6(g)
        assert text.startswith("~??~") and decode_graph6(text) == g

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                   min_size=0, max_size=12))
    @example("B~")
    @example(">>graph6<<Bw")
    @example("~???")
    @example("~??@")
    def test_decode_never_crashes_unexpectedly(self, s):
        try:
            g = decode_graph6(s)
        except GraphFormatError:
            return
        assert isinstance(g, Graph)
        body = s[len(">>graph6<<"):] if s.startswith(">>graph6<<") else s
        assert encode_graph6(g) == body.rstrip("\n")


class TestDot:
    def test_single_edge(self):
        text = to_dot(graph(2, [(0, 1)]))
        assert text.count(" -- ") == 1

    def test_gp_4_1_counts(self):
        text = to_dot(gp(GpParams(4, 1)))
        assert text.count(" -- ") == 12

    def test_empty_graph_valid(self):
        assert to_dot(graph(0, [])) == "graph G {\n}\n"
