import random
import re
import sys

import networkx as nx
import pytest
from hypothesis import assume, given, strategies as st

from gpcover.graphs import adjacency, bipartition, degrees, graph
from gpcover.families import GpParams, gp, h_graph
from gpcover.covers import is_kronecker_involution, kronecker_cover, quotient
from gpcover.perms import WordTriple, compose, from_triple, identity, inverse
from gpcover.classify import involution_family
from gpcover.oracle import (
    SearchBoundExceeded,
    VertexPartition,
    automorphisms,
    canonical_form,
    is_isomorphic,
    kronecker_involutions,
    quotients_up_to_iso,
    refine,
    unit_partition,
)


def nx_automorphisms(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.vertex_count))
    nxg.add_edges_from(g.edges)
    matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
    return {
        tuple(m[i] for i in range(g.vertex_count))
        for m in matcher.isomorphisms_iter()
    }


def relabeled(g, perm):
    return graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def side_swapping_involutions(g, colors, autos):
    """The clauses of the pruned search, spelled out: involutions that move
    every vertex to the other side and to a non-neighbor."""
    adj = adjacency(g)
    return sorted(
        p
        for p in autos
        if all(
            p[p[x]] == x and colors[p[x]] != colors[x] and p[x] not in adj[x]
            for x in range(g.vertex_count)
        )
    )


@st.composite
def relabeled_small_graphs(draw):
    """A graph on at most 6 vertices, at most one of them isolated so that
    its cover's group stays small, and a relabeling of its vertices."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = graph(n, edges)
    assume(list(degrees(g)).count(0) <= 1)
    return g, draw(st.permutations(range(n)))


class TestRefine:
    def test_regular_graph_unchanged(self):
        g = gp(GpParams(7, 2))
        p = refine(g, unit_partition(14))
        assert p.cells == (tuple(range(14)),)

    def test_star_splits(self):
        g = graph(4, [(0, 1), (0, 2), (0, 3)])
        p = refine(g, unit_partition(4))
        assert set(p.cells) == {(0,), (1, 2, 3)}

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 12)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = graph(n, edges)
            once = refine(g, unit_partition(n))
            assert refine(g, once) == once

    def test_never_merges(self):
        g = gp(GpParams(5, 2))
        start = VertexPartition(((0,), tuple(range(1, 10))))
        refined = refine(g, start)
        for cell in refined.cells:
            assert (
                len({0} & set(cell)) == 0 or cell == (0,)
            )

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            VertexPartition(((0, 0), (1,)))


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "nk,expected",
        [
            ((7, 2), 14),     # generic: dihedral only
            ((11, 3), 22),
            ((13, 5), 52),    # k^2 = -1 (mod n)
            ((12, 5), 144),   # exceptional (Nauru graph)
            ((5, 2), 120),    # Petersen
            ((4, 1), 48),     # cube
            ((8, 3), 96),     # Moebius-Kantor
            ((10, 3), 240),   # Desargues
        ],
    )
    def test_known_orders(self, nk, expected):
        assert len(automorphisms(gp(GpParams(*nk)))) == expected

    def test_matches_networkx(self):
        for nk in [(7, 2), (4, 1), (6, 2), (9, 2)]:
            g = gp(GpParams(*nk))
            assert set(automorphisms(g)) == nx_automorphisms(g)

    def test_group_axioms(self):
        g = gp(GpParams(6, 2))
        auts = set(automorphisms(g))
        assert identity(12) in auts
        sample = sorted(auts)[:6]
        for p in sample:
            assert inverse(p) in auts
            for q in sample:
                assert compose(p, q) in auts

    def test_word_group_is_subgroup(self):
        for nk in [(12, 5), (8, 3)]:
            p = GpParams(*nk)
            auts = set(automorphisms(gp(p)))
            for a in range(p.n):
                for b in (0, 1):
                    for c in (0, 1):
                        assert from_triple(p.n, p.k, WordTriple(a, b, c)) in auts

    def test_sorted_output(self):
        auts = automorphisms(gp(GpParams(6, 1)))
        assert auts == sorted(auts)

    def test_disconnected(self):
        g = graph(4, [(0, 1), (2, 3)])
        assert len(automorphisms(g)) == 8  # swap within edges, swap edges

    def test_bound_enforced(self):
        g = gp(GpParams(10, 3))
        with pytest.raises(SearchBoundExceeded):
            automorphisms(g, bound=10)

    def test_deep_search_runs_past_the_recursion_limit(self):
        # One search level per vertex: a recursive search would overflow.
        p = GpParams(600, 1)
        g = gp(p)
        assert g.vertex_count > sys.getrecursionlimit()
        assert len(automorphisms(g, bound=1200)) == 2400
        family = {from_triple(600, 1, t) for t in involution_family(p)}
        assert set(kronecker_involutions(g, bound=1200)) == family


class TestKroneckerInvolutions:
    def test_12_5_exactly_three(self, ):
        g = gp(GpParams(12, 5))
        invs = kronecker_involutions(g)
        family = {
            from_triple(12, 5, t) for t in involution_family(GpParams(12, 5))
        }
        assert len(invs) == 3
        assert set(invs) == family

    def test_petersen_none(self):
        assert kronecker_involutions(gp(GpParams(5, 2))) == []

    def test_moebius_kantor_none(self):
        # All 18 of its fixed-point-free color-reversing involutions pin an
        # edge, so GP(8,3) is not a cover of any simple graph.
        assert kronecker_involutions(gp(GpParams(8, 3))) == []

    def test_all_results_verify(self):
        g = gp(GpParams(10, 3))
        invs = kronecker_involutions(g)
        assert invs
        assert all(is_kronecker_involution(g, p) for p in invs)

    def test_pruned_search_matches_filtered_group(self):
        for n in range(3, 25):
            for k in range(1, (n - 1) // 2 + 1):
                g = gp(GpParams(n, k))
                expected = [p for p in automorphisms(g) if is_kronecker_involution(g, p)]
                assert kronecker_involutions(g) == expected, (n, k)

    @given(relabeled_small_graphs())
    def test_pruned_search_matches_filter_on_small_graphs(self, case):
        g, perm = case
        for h in (g, relabeled(g, perm)):
            for x in (h, kronecker_cover(h)):
                expected = [p for p in automorphisms(x) if is_kronecker_involution(x, p)]
                assert kronecker_involutions(x) == expected

    @given(relabeled_small_graphs(), st.data())
    def test_involution_mode_filters_the_group(self, case, data):
        # Any 0/1 coloring, on graphs that may be disconnected and not
        # bipartite, and the bipartition of a (often disconnected) cover.
        g, perm = case
        n = g.vertex_count
        sides = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        cover = kronecker_cover(relabeled(g, perm))
        for h, colors in ((g, sides), (cover, bipartition(cover))):
            assert automorphisms(h, involution_colors=colors) == (
                side_swapping_involutions(h, colors, automorphisms(h))
            )

    @pytest.mark.parametrize(
        "g",
        [
            gp(GpParams(10, 3)),
            gp(GpParams(12, 5)),
            gp(GpParams(14, 3)),
            graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
        ],
        ids=["GP(10,3)", "GP(12,5)", "GP(14,3)", "2C4"],
    )
    def test_involution_mode_matches_vf2_filter(self, g):
        colors = bipartition(g)
        assert automorphisms(g, involution_colors=colors) == (
            side_swapping_involutions(g, colors, nx_automorphisms(g))
        )

    def test_involution_colors_must_fit(self):
        with pytest.raises(ValueError, match="involution_colors"):
            automorphisms(gp(GpParams(4, 1)), involution_colors=[0, 1])


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(31)
        g = gp(GpParams(9, 2))
        base = canonical_form(g)
        for _ in range(25):
            perm = list(range(18))
            rng.shuffle(perm)
            assert canonical_form(relabeled(g, perm)) == base

    def test_distinguishes(self):
        assert canonical_form(gp(GpParams(5, 1))) != canonical_form(gp(GpParams(5, 2)))
        assert canonical_form(h_graph()) != canonical_form(gp(GpParams(5, 2)))

    def test_is_isomorphic_spec_pairs(self):
        assert is_isomorphic(gp(GpParams(10, 3)), kronecker_cover(h_graph()))
        assert not is_isomorphic(gp(GpParams(5, 2)), gp(GpParams(5, 1)))

    def test_watkins_equivalence(self):
        # GP(n,k) and GP(n,k') are isomorphic when k k' = +-1 (mod n).
        assert is_isomorphic(gp(GpParams(14, 5)), gp(GpParams(14, 3)))
        assert is_isomorphic(gp(GpParams(22, 9)), gp(GpParams(22, 5)))
        assert not is_isomorphic(gp(GpParams(14, 5)), gp(GpParams(14, 1)))

    def test_agrees_with_networkx(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = graph(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.4
                ],
            )
            h = graph(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.4
                ],
            )
            nxg, nxh = nx.empty_graph(n), nx.empty_graph(n)
            nxg.add_edges_from(g.edges)
            nxh.add_edges_from(h.edges)
            assert is_isomorphic(g, h) == nx.is_isomorphic(nxg, nxh)

    def test_empty_and_tiny(self):
        assert canonical_form(graph(0, [])) == b"?"
        assert canonical_form(graph(1, [])) == b"@"

    def test_refinement_resistant_graphs(self):
        # Complete, empty, complete-bipartite and clique-union graphs keep a
        # single refinement cell; the search must still finish fast and stay
        # relabeling-invariant.
        rng = random.Random(6)
        k30 = graph(30, [(u, v) for u in range(30) for v in range(u + 1, 30)])
        kbb = graph(24, [(u, v) for u in range(12) for v in range(12, 24)])
        cliques = graph(
            30,
            [
                (a + o, b + o)
                for o in (0, 10, 20)
                for a in range(10)
                for b in range(a + 1, 10)
            ],
        )
        for g in (k30, kbb, cliques, graph(40, [])):
            base = canonical_form(g)
            for _ in range(5):
                perm = list(range(g.vertex_count))
                rng.shuffle(perm)
                assert canonical_form(relabeled(g, perm)) == base
        two = graph(
            30,
            [
                (a + o, b + o)
                for o in (0, 15)
                for a in range(15)
                for b in range(a + 1, 15)
            ],
        )
        assert not is_isomorphic(cliques, two)

    def test_disconnected_multiset(self):
        # Same component multiset in different vertex order.
        a = graph(5, [(0, 1), (1, 2), (0, 2)])          # triangle + 2 isolated
        b = graph(5, [(2, 3), (3, 4), (2, 4)])
        c = graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])  # triangle + edge
        assert is_isomorphic(a, b)
        assert not is_isomorphic(a, c)


class TestQuotientClasses:
    def test_desargues_two_classes(self):
        classes = quotients_up_to_iso(gp(GpParams(10, 3)))
        assert len(classes) == 2
        hits = {
            "petersen": any(is_isomorphic(q, gp(GpParams(5, 2))) for q in classes),
            "h": any(is_isomorphic(q, h_graph()) for q in classes),
        }
        assert hits == {"petersen": True, "h": True}

    def test_14_3_single_class(self):
        classes = quotients_up_to_iso(gp(GpParams(14, 3)))
        assert len(classes) == 1
        assert is_isomorphic(classes[0], gp(GpParams(7, 3)))

    def test_16_7_empty(self):
        assert quotients_up_to_iso(gp(GpParams(16, 7))) == []

    def test_round_trip_all_involutions(self):
        g = gp(GpParams(12, 5))
        for w in kronecker_involutions(g):
            assert is_isomorphic(kronecker_cover(quotient(g, w)), g)

    def test_full_pipeline_at_vertex_bound(self):
        # GP(60,11) has 120 vertices, exactly the default oracle bound, and
        # is a reflected-family instance: 169 - 1 = 120 = 2*60.
        from gpcover.families import c_minus, lcf
        from gpcover.classify import involution_family

        p = GpParams(60, 11)
        g = gp(p)
        invs = kronecker_involutions(g)
        family = {from_triple(60, 11, t) for t in involution_family(p)}
        assert set(invs) == family
        assert len(invs) == 5  # gcd(60, 60-11+1)/2
        q = quotient(g, sorted(invs)[0])
        assert is_isomorphic(q, lcf(c_minus(p)))
        assert is_isomorphic(kronecker_cover(q), g)


class TestVertexBound:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", "8")
        with pytest.raises(SearchBoundExceeded, match="bound is 8"):
            automorphisms(gp(GpParams(6, 1)))

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", "8")
        assert len(automorphisms(gp(GpParams(6, 1)), bound=12)) == 24

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
    def test_bad_env_value_is_named(self, monkeypatch, value):
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", value)
        with pytest.raises(ValueError, match=f"GPCOVER_ORACLE_BOUND.*'{re.escape(value)}'"):
            automorphisms(gp(GpParams(6, 1)))
