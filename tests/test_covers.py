import re

import pytest

from gpcover.graphs import bipartition, connected_components, degrees, graph
from gpcover.families import GpParams, gp
from gpcover.classify import QuotientDesc
from gpcover.perms import WordTriple, from_triple, power, rotation
from gpcover.covers import (
    NotKroneckerInvolution,
    is_kronecker_involution,
    kronecker_cover,
    kronecker_involution_failure,
    natural_swap,
    quotient,
)
from gpcover.oracle import is_isomorphic


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
