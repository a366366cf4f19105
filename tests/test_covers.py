import operator
import random
import re
from collections import Counter

import pytest

from gpcover.graphs import bipartition, connected_components, degrees, graph
from gpcover.families import GpParams, gp
from gpcover.classify import QuotientDesc
from gpcover.perms import WordTriple, desargues_half_turn, from_triple, power, rotation
from gpcover.covers import (
    NotKroneckerInvolution,
    is_kronecker_involution,
    kronecker_cover,
    kronecker_involution_failure,
    natural_swap,
    quotient,
)
from gpcover.oracle import is_isomorphic, kronecker_involutions


class TestKroneckerCover:
    def test_doubles_counts_and_is_bipartite(self):
        for nk in [(5, 2), (7, 3), (6, 2), (9, 4)]:
            g = gp(GpParams(*nk))
            cover = kronecker_cover(g)
            assert cover.vertex_count == 2 * g.vertex_count
            assert len(cover.edges) == 2 * len(g.edges)
            assert bipartition(cover) is not None

    def test_petersen_cover_is_desargues(self):
        assert is_isomorphic(kronecker_cover(gp(GpParams(5, 2))), gp(GpParams(10, 3)))

    def test_triangular_prism_cover(self):
        assert is_isomorphic(kronecker_cover(gp(GpParams(3, 1))), gp(GpParams(6, 1)))

    def test_7_2_cover(self):
        assert is_isomorphic(kronecker_cover(gp(GpParams(7, 2))), gp(GpParams(14, 5)))

    def test_cover_of_bipartite_is_two_copies(self):
        for nk in [(4, 1), (6, 1), (10, 3)]:
            g = gp(GpParams(*nk))
            cover = kronecker_cover(g)
            comps = connected_components(cover)
            assert len(comps) == 2
            for comp in comps:
                idx = {v: i for i, v in enumerate(comp)}
                sub = graph(
                    len(comp),
                    [(idx[u], idx[v]) for u, v in cover.edges if u in idx and v in idx],
                )
                assert is_isomorphic(sub, g)

    def test_cover_of_nonbipartite_connected(self):
        for nk in [(5, 2), (6, 2), (7, 2)]:
            cover = kronecker_cover(gp(GpParams(*nk)))
            assert len(connected_components(cover)) == 1


class TestNaturalSwap:
    def test_shape(self):
        p = natural_swap(5)
        assert all(p[p[x]] == x for x in range(10))
        assert all(p[x] != x for x in range(10))

    def test_is_kronecker_involution_on_cover(self):
        for nk in [(5, 2), (7, 3), (6, 2)]:
            g = gp(GpParams(*nk))
            cover = kronecker_cover(g)
            assert is_kronecker_involution(cover, natural_swap(g.vertex_count))

    def test_quotient_recovers_base(self):
        g = gp(GpParams(5, 2))
        cover = kronecker_cover(g)
        assert is_isomorphic(quotient(cover, natural_swap(10)), g)

    @pytest.mark.parametrize("n0, message", [
        (2.5, "base vertex count 2.5 is not an integer"),
        ("4", "base vertex count '4' is not an integer"),
        (-2, "base vertex count must be at least 0, got -2"),
    ])
    def test_bad_size_is_named(self, n0, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            natural_swap(n0)


class TestIsKroneckerInvolution:
    def test_half_turn_on_14_3(self):
        g = gp(GpParams(14, 3))
        assert is_kronecker_involution(g, power(rotation(14), 7))

    def test_color_preserving_half_turn_rejected(self):
        g = gp(GpParams(12, 5))
        p = power(rotation(12), 6)
        assert not is_kronecker_involution(g, p)
        assert kronecker_involution_failure(g, p) == "not color-reversing"

    def test_nonbipartite_rejected(self):
        g = gp(GpParams(10, 2))
        p = power(rotation(10), 5)
        assert kronecker_involution_failure(g, p) == "graph is not bipartite"

    def test_non_involution_rejected(self):
        g = gp(GpParams(14, 3))
        assert kronecker_involution_failure(g, rotation(14)) == "not an involution"

    def test_fixed_edge_rejected(self):
        g = gp(GpParams(6, 1))
        p = from_triple(6, 1, WordTriple(1, 1, 0))
        assert kronecker_involution_failure(g, p) == (
            "maps a vertex to a neighbor (fixed edge)"
        )

    def test_fixed_vertex_rejected(self):
        g = gp(GpParams(6, 1))
        p = from_triple(6, 1, WordTriple(0, 1, 0))  # reflection fixes u_0
        assert kronecker_involution_failure(g, p) == "has a fixed vertex"

    def test_disconnected_rejected(self):
        g = kronecker_cover(gp(GpParams(6, 1)))
        assert kronecker_involution_failure(g, natural_swap(12)) == (
            "graph is not connected"
        )

    def test_non_automorphism_is_false_not_error(self):
        g = gp(GpParams(14, 3))
        p = tuple([1, 0] + list(range(2, 28)))
        assert not is_kronecker_involution(g, p)

    def test_wrong_length_is_false(self):
        assert not is_kronecker_involution(gp(GpParams(6, 1)), (0,))

    def test_float_entries_are_not_a_permutation(self):
        assert kronecker_involution_failure(graph(2, [(0, 1)]), [1.0, 0.0]) == (
            "not a vertex permutation of g"
        )
        half_turn = [float(x) for x in power(rotation(14), 7)]
        assert kronecker_involution_failure(gp(GpParams(14, 3)), half_turn) == (
            "not a vertex permutation of g"
        )


class TestQuotient:
    def test_prism_quotient(self):
        q = quotient(gp(GpParams(6, 1)), power(rotation(6), 3))
        assert is_isomorphic(q, gp(GpParams(3, 1)))

    def test_18_5_quotient(self):
        q = quotient(gp(GpParams(18, 5)), power(rotation(18), 9))
        assert is_isomorphic(q, gp(GpParams(9, 4)))

    def test_12_5_quotient_matches_lcf(self):
        q = quotient(gp(GpParams(12, 5)), from_triple(12, 5, WordTriple(6, 0, 1)))
        assert is_isomorphic(q, QuotientDesc("cplus", 12, 5).materialize())

    def test_quotient_is_cubic(self):
        q = quotient(gp(GpParams(14, 3)), power(rotation(14), 7))
        assert set(degrees(q)) == {3}
        assert q.vertex_count == 14

    def test_round_trip(self):
        for nk, a in [((6, 1), 3), ((14, 3), 7), ((18, 5), 9)]:
            g = gp(GpParams(*nk))
            q = quotient(g, power(rotation(nk[0]), a))
            assert is_isomorphic(kronecker_cover(q), g)

    def test_precondition_reported(self):
        g = gp(GpParams(12, 5))
        with pytest.raises(NotKroneckerInvolution, match="color-reversing"):
            quotient(g, power(rotation(12), 6))

    def test_float_permutation_refused(self):
        half_turn = [float(x) for x in power(rotation(6), 3)]
        with pytest.raises(NotKroneckerInvolution, match="not a vertex permutation of g"):
            quotient(gp(GpParams(6, 1)), half_turn)

    def test_one_edge_per_pair_of_preimages(self):
        for nk, p in [((6, 1), power(rotation(6), 3)),
                      ((12, 5), from_triple(12, 5, WordTriple(6, 0, 1))),
                      ((24, 7), from_triple(24, 7, WordTriple(12, 1, 1)))]:
            g = gp(GpParams(*nk))
            assert len(quotient(g, p).edges) == len(g.edges) // 2


def failed_clauses(g, p):
    """Every clause of ``kronecker_involution_failure`` that p fails, in its
    documented order, each tested on its own by its definition: the
    reference for the one pass that decides them.  A clause about p is
    tested only when p is a permutation, and colour reversal only when g
    has a 2-colouring."""
    n = g.vertex_count
    try:
        perm = len(p) == n and sorted(map(operator.index, p)) == list(range(n))
    except TypeError:
        perm = False
    colors = bipartition(g)
    failed = []
    if not perm:
        failed.append("not a vertex permutation of g")
    if len(connected_components(g)) > 1:
        failed.append("graph is not connected")
    if colors is None:
        failed.append("graph is not bipartite")
    if perm:
        edges = set(g.edges)
        if any(tuple(sorted((p[u], p[v]))) not in edges for u, v in g.edges):
            failed.append("not an automorphism")
        if any(p[p[x]] != x for x in range(n)):
            failed.append("not an involution")
        if any(p[x] == x for x in range(n)):
            failed.append("has a fixed vertex")
        if colors is not None and any(colors[p[x]] == colors[x] for x in range(n)):
            failed.append("not color-reversing")
        if any(p[u] == v for u, v in g.edges):
            failed.append("maps a vertex to a neighbor (fixed edge)")
    return failed


def reference_quotient(g, p):
    """The quotient built edge by edge: orbits {x, p(x)} ranked by their
    least vertex, and each edge of g contracted to its pair of orbits."""
    rank = {}
    for x in range(g.vertex_count):
        rank.setdefault(min(x, p[x]), len(rank))
    orbit = [rank[min(x, p[x])] for x in range(g.vertex_count)]
    return graph(g.vertex_count // 2, [(orbit[u], orbit[v]) for u, v in g.edges])


def assert_matches_reference(g, p):
    """The one-pass checker names the reference's first failed clause, and
    a map that passes gives the reference quotient; True if it passed."""
    failed = failed_clauses(g, p)
    assert kronecker_involution_failure(g, p) == (failed[0] if failed else None), (g, p)
    if failed:
        with pytest.raises(NotKroneckerInvolution, match=re.escape(failed[0])):
            quotient(g, p)
        return False
    assert quotient(g, p) == reference_quotient(g, p), (g, p)
    return True


def relabelled(g, perm):
    return graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def colour_reversing_pairing(rng, colors):
    """A random fixed-point-free involution that swaps each vertex of colour
    0 with one of colour 1; it passes every vertex clause."""
    zeros = [x for x, c in enumerate(colors) if c == 0]
    ones = [x for x, c in enumerate(colors) if c == 1]
    rng.shuffle(ones)
    p = [0] * len(colors)
    for x, y in zip(zeros, ones):
        p[x], p[y] = y, x
    return tuple(p)


class TestClausePassMatchesReference:
    """kronecker_involution_failure and quotient share one pass over g's
    edges; ``failed_clauses`` and ``reference_quotient`` are the second
    route."""

    def test_every_word_of_every_gp_to_30(self):
        passed = 0
        for n in range(3, 31):
            for k in range(1, (n - 1) // 2 + 1):
                g = gp(GpParams(n, k))
                for a in range(n):
                    for b in (0, 1):
                        for c in (0, 1):
                            try:
                                p = from_triple(n, k, WordTriple(a, b, c))
                            except ValueError:  # gamma is no automorphism
                                continue
                            passed += assert_matches_reference(g, p)
        # The search finds 63 covering involutions with n <= 30; all but ten
        # of GP(10,3)'s, Delta and its conjugates, are words.
        assert passed == 53

    def test_delta_on_the_desargues_graph(self):
        assert assert_matches_reference(gp(GpParams(10, 3)), desargues_half_turn())

    def test_relabelled_graphs_and_conjugated_involutions(self):
        rng = random.Random(5)
        passed = 0
        for n, k in [(6, 1), (10, 3), (12, 5), (14, 3), (24, 7), (26, 5)]:
            g = gp(GpParams(n, k))
            perm = list(range(2 * n))
            rng.shuffle(perm)
            inverse = [0] * len(perm)
            for x, y in enumerate(perm):
                inverse[y] = x
            h = relabelled(g, perm)
            for w in kronecker_involutions(g):
                passed += assert_matches_reference(h, tuple(perm[w[inverse[y]]] for y in range(2 * n)))
        assert passed > 10

    def test_seeded_random_permutations_and_involutions(self):
        rng = random.Random(17)
        graphs = [gp(GpParams(n, k)) for n, k in [(6, 1), (8, 3), (10, 3), (12, 5), (9, 2), (20, 9)]]
        graphs += [kronecker_cover(gp(GpParams(5, 2))), kronecker_cover(gp(GpParams(6, 1)))]
        graphs += [graph(0, []), graph(2, [(0, 1)]), graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])]
        kinds = Counter()
        for g in graphs:
            n = g.vertex_count
            colors = bipartition(g)
            for _ in range(40):
                shuffled = list(range(n))
                rng.shuffle(shuffled)
                pairing = list(range(n))
                for i in range(0, n - 1, 2):  # an involution, with fixed points if n is odd
                    x, y = shuffled[i], shuffled[i + 1]
                    pairing[x], pairing[y] = y, x
                maps = [("permutation", tuple(shuffled)), ("involution", tuple(pairing))]
                if colors is not None and 2 * sum(colors) == n:
                    maps.append(("reversing", colour_reversing_pairing(rng, colors)))
                for kind, p in maps:
                    failed = failed_clauses(g, p)
                    kinds[kind, failed[0] if failed else None] += 1
                    assert_matches_reference(g, p)
        # The colour-reversing pairings pass the vertex clauses, so the
        # count of orbit pairs decides the automorphism clause.
        assert kinds["reversing", "not an automorphism"] > 100
        assert kinds["reversing", None] > 0
        assert {failure for _, failure in kinds} >= {
            "not an automorphism", "not an involution", "has a fixed vertex",
            "graph is not connected", "graph is not bipartite", None}

    @pytest.mark.parametrize("label, g, p", [
        # alpha^7 on GP(14,3) is a covering involution; these break it in
        # two or more ways at once.
        ("rotation: not an involution, and no covering", gp(GpParams(14, 3)), rotation(14)),
        ("identity", gp(GpParams(14, 3)), tuple(range(28))),
        ("reflection: fixed vertices that keep their colour", gp(GpParams(14, 3)),
         from_triple(14, 3, WordTriple(0, 1, 0))),
        ("a transposition of two vertices of one colour", gp(GpParams(14, 3)),
         (2, 1, 0) + tuple(range(3, 28))),
        ("a 3-cycle", gp(GpParams(14, 3)), (1, 2, 0) + tuple(range(3, 28))),
        ("alpha^7 with two orbits swapped", gp(GpParams(14, 3)),
         tuple(power(rotation(14), 7)[x] for x in (1, 0) + tuple(range(2, 28)))),
        ("a transposition on a non-bipartite graph", gp(GpParams(10, 2)),
         (1, 0) + tuple(range(2, 20))),
        ("a short map of a disconnected graph", kronecker_cover(gp(GpParams(6, 1))), (0, 1)),
        ("a non-automorphism of a disconnected non-bipartite graph",
         graph(5, [(0, 1), (1, 2), (0, 2)]), (1, 0, 2, 3, 4)),
        ("alpha^2: not an involution, and colour-keeping", gp(GpParams(14, 3)),
         power(rotation(14), 2)),
        ("alpha^6 on GP(12,5), colour-keeping, with u_0 and u_6 fixed", gp(GpParams(12, 5)),
         (0,) + power(rotation(12), 6)[1:6] + (6,) + power(rotation(12), 6)[7:]),
        # Automorphisms of order 3 that fix u_0, a vertex below their first
        # 3-cycle: a walk that stopped at the fixed vertex would name the
        # wrong clause.
        ("an order-3 automorphism of the cube fixing u_0", gp(GpParams(4, 1)),
         (0, 3, 7, 4, 1, 2, 6, 5)),
        ("an order-3 automorphism of GP(10,3) fixing u_0", gp(GpParams(10, 3)),
         (0, 9, 19, 12, 15, 5, 4, 14, 17, 10, 1, 8, 16, 2, 18, 6, 3, 11, 7, 13)),
    ])
    def test_forged_maps_that_fail_several_clauses(self, label, g, p):
        assert len(failed_clauses(g, p)) >= 2, label
        assert not assert_matches_reference(g, p)
