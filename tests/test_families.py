import re

import networkx as nx
import pytest

from gpcover.graphs import degrees, girth, graph
from gpcover.families import (
    GpParams,
    LcfSpec,
    gp,
    h_graph,
    lcf,
    lcf_violations,
)
from gpcover.covers import kronecker_cover
from gpcover.classify import QuotientDesc, classify, quotient_lcf
from gpcover.oracle import is_isomorphic


class TestGpParams:
    def test_valid(self):
        p = GpParams(5, 2)
        assert (p.n, p.k) == (5, 2)

    def test_k_equal_half_n_rejected(self):
        with pytest.raises(ValueError, match="k < n/2"):
            GpParams(4, 2)

    def test_k_above_half_n_rejected(self):
        with pytest.raises(ValueError, match="k < n/2"):
            GpParams(10, 5)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            GpParams(2, 1)

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            GpParams(7, 0)

    @pytest.mark.parametrize("n, k, message", [
        (12.0, 5, "n 12.0 is not an integer"),
        ("10", 3, "n '10' is not an integer"),
        (10.5, 3, "n 10.5 is not an integer"),
        (None, 3, "n None is not an integer"),
        (10, 3.0, "k 3.0 is not an integer"),
        (10, "3", "k '3' is not an integer"),
    ])
    def test_non_integer_rejected(self, n, k, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GpParams(n, k)

    @pytest.mark.parametrize("dtype", ["int64", "int32", "uint8"])
    def test_integer_like_values_stored_as_ints(self, dtype):
        # Stored as ints, so nothing downstream prints them as numpy
        # scalars: not the classification, its quotient nor its word.
        make = getattr(pytest.importorskip("numpy"), dtype)
        p = GpParams(make(12), make(5))
        assert type(p.n) is int and type(p.k) is int
        assert p == GpParams(12, 5) and hash(p) == hash(GpParams(12, 5))
        assert repr(classify(p)) == repr(classify(GpParams(12, 5)))


class TestGp:
    def test_petersen_shape(self):
        g = gp(GpParams(5, 2))
        assert g.vertex_count == 10
        assert len(g.edges) == 15
        assert set(degrees(g)) == {3}
        assert girth(g) == 5

    def test_always_cubic_on_2n(self):
        for n in range(3, 20):
            for k in range(1, (n - 1) // 2 + 1):
                g = gp(GpParams(n, k))
                assert g.vertex_count == 2 * n
                assert set(degrees(g)) == {3}

    def test_desargues_is_cover_of_h(self):
        assert is_isomorphic(gp(GpParams(10, 3)), kronecker_cover(h_graph()))


class TestLcf:
    def test_k4_from_constant_two(self):
        g = lcf(LcfSpec(4, (2, 2, 2, 2)))
        assert g == gp_k4()

    def test_moebius_ladder_8(self):
        g = lcf(LcfSpec(8, (4,) * 8))
        assert g == moebius_ladder(8)
        assert set(degrees(g)) == {3}

    def test_zero_jump_rejected(self):
        with pytest.raises(ValueError, match="zero jump"):
            lcf(LcfSpec(4, (2, 0, 2, 0)))

    def test_unit_jump_rejected(self):
        with pytest.raises(ValueError, match="ring edge|closure"):
            lcf(LcfSpec(6, (3, 1, 3, 1, 3, 1)))

    def test_closure_violation_rejected(self):
        with pytest.raises(ValueError, match="closure"):
            lcf(LcfSpec(6, (2, 2, 2, 2, 2, 2)))

    def test_odd_n_self_paired_rejected(self):
        spec = LcfSpec(5, (2, 2, 2, 2, 2))
        assert lcf_violations(spec)

    def test_valid_specs_are_cubic(self):
        for p in [GpParams(4, 1), GpParams(12, 5), GpParams(20, 9), GpParams(24, 7)]:
            g = lcf(quotient_lcf(p, p.n // 2))
            assert g.vertex_count == p.n
            assert len(g.edges) == 3 * p.n // 2
            assert set(degrees(g)) == {3}

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="jumps"):
            LcfSpec(4, (2, 2))

    @pytest.mark.parametrize("n, message", [
        (4.0, "n 4.0 is not an integer"),
        ("4", "n '4' is not an integer"),
        (None, "n None is not an integer"),
    ])
    def test_non_integer_n_rejected(self, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LcfSpec(n, (2, 2, 2, 2))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 3, got 2"):
            LcfSpec(2, (1, 1))

    @pytest.mark.parametrize("jumps, message", [
        ((2.0,) * 4, "jumps[0] 2.0 is not an integer"),
        ((2, 2, 2, "2"), "jumps[3] '2' is not an integer"),
        ((2, None, 2, 2), "jumps[1] None is not an integer"),
    ])
    def test_non_integer_jump_rejected(self, jumps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LcfSpec(4, jumps)

    def test_iterator_of_jumps(self):
        # The jumps are taken once, so a one-shot iterator converts and has
        # its first bad jump named like any sequence.
        assert LcfSpec(4, iter((2, 2, 2, 2))) == LcfSpec(4, (2, 2, 2, 2))
        with pytest.raises(ValueError, match=re.escape("jumps[1] 2.0 is not an integer")):
            LcfSpec(4, iter((2, 2.0, 2, 2)))

    @pytest.mark.parametrize("build", [
        lambda np: LcfSpec(4, [2, 2, 2, 2]),
        lambda np: LcfSpec(np.int64(4), np.full(4, 2)),
        lambda np: LcfSpec(4, (np.int32(2), 2, np.uint8(2), np.int64(2))),
    ], ids=["list", "numpy-array", "mixed"])
    def test_integer_like_values_stored_as_ints(self, build):
        # The jumps are kept as a tuple of ints, so the spec hashes and
        # lcf() indexes with them.
        spec = build(pytest.importorskip("numpy"))
        assert type(spec.n) is int and type(spec.jumps) is tuple
        assert all(type(j) is int for j in spec.jumps)
        assert spec == LcfSpec(4, (2, 2, 2, 2)) and hash(spec) == hash(LcfSpec(4, (2, 2, 2, 2)))
        assert lcf(spec) == gp_k4()


def gp_k4():
    return graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


def moebius_ladder(n):
    """The n-cycle plus its n/2 antipodal chords, built by networkx."""
    return graph(n, nx.circulant_graph(n, [1, n // 2]).edges)


class TestCPlusMinus:
    def test_c_plus_4_1(self):
        spec = QuotientDesc("cplus", 4, 1).spec()
        assert spec.jumps == (2, 2, 2, 2)
        assert lcf(spec) == gp_k4()

    def test_c_plus_12_5(self):
        assert QuotientDesc("cplus", 12, 5).spec().jumps == (6, 10, 2) * 4

    def test_c_minus_8_3_degenerate(self):
        desc = QuotientDesc("cminus", 8, 3)
        spec = desc.spec()
        assert spec.jumps == (4, 0, 4, 0, 4, 0, 4, 0)
        assert any("zero jump" in v for v in lcf_violations(spec))
        with pytest.raises(ValueError, match="zero jump"):
            desc.materialize()

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            QuotientDesc("cplus", 5, 2).spec()
        with pytest.raises(ValueError, match="even"):
            QuotientDesc("cminus", 5, 2).materialize()

    def test_c_plus_n_1_is_moebius_ladder(self):
        for n in (4, 8, 12, 16):
            assert QuotientDesc("cplus", n, 1).materialize() == moebius_ladder(n)

    def test_c_minus_24_7(self):
        spec = QuotientDesc("cminus", 24, 7).spec()
        assert spec.jumps[:4] == (12, 4, 20, 12)
        assert not lcf_violations(spec)


class TestHGraph:
    def test_shape(self):
        h = h_graph()
        assert h.vertex_count == 10
        assert len(h.edges) == 15
        assert set(degrees(h)) == {3}
        assert girth(h) == 3

    def test_cover_is_desargues(self):
        assert is_isomorphic(kronecker_cover(h_graph()), gp(GpParams(10, 3)))

    def test_not_petersen(self):
        assert not is_isomorphic(h_graph(), gp(GpParams(5, 2)))
