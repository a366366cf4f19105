import random
import re

import pytest

from gpcover import perms
from gpcover.graphs import bipartition
from gpcover.families import GpParams, gp, h_graph
from gpcover.covers import quotient
from gpcover.oracle import is_isomorphic
from gpcover.perms import (
    WordTriple,
    compose,
    desargues_half_turn,
    format_word,
    from_triple,
    identity,
    inverse,
    is_automorphism,
    is_permutation,
    power,
    reflection,
    rim_swap,
    rotation,
)


def words(n, k):
    """The 4n words alpha^a beta^b gamma^c of GP(n,k), evaluated."""
    return [
        from_triple(n, k, WordTriple(a, b, c))
        for a in range(n)
        for b in (0, 1)
        for c in (0, 1)
    ]


def closure(generators):
    """The group the generators generate, by breadth-first multiplication."""
    group = {identity(len(generators[0]))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = compose(g, p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


class TestGroupOps:
    def test_compose_inverse(self):
        p = rotation(7)
        assert compose(p, inverse(p)) == identity(14)

    def test_rotation_order(self):
        assert power(rotation(9), 9) == identity(18)
        assert all(power(rotation(9), m) != identity(18) for m in range(1, 9))

    def test_composition_is_right_to_left(self):
        # alpha gamma on GP(12,5) sends u_1 to v_{5*1+1} = v_6 (index 18)
        w = compose(rotation(12), rim_swap(12, 5))
        assert w[1] == 12 + 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            compose(rotation(3), rotation(4))

    @pytest.mark.parametrize("fn, args, message", [
        (identity, (2.5,), "n 2.5 is not an integer"),
        (identity, (-1,), "n must be at least 0, got -1"),
        (compose, ((0, 1), (0, 1.0)), "(0, 1.0) is not a permutation"),
        (compose, ((0, 0), (0, 1)), "(0, 0) is not a permutation"),
    ], ids=["identity-float", "identity-negative", "compose-float", "compose-repeat"])
    def test_bad_size_or_entry_is_named(self, fn, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(*args)

    def test_negative_power(self):
        p = rotation(5)
        assert power(p, -2) == inverse(power(p, 2))

    @pytest.mark.parametrize("p", [(0, 0), (1, 2), (0, 1.0), (0, -1)])
    def test_a_map_that_is_no_permutation_has_no_inverse(self, p):
        with pytest.raises(ValueError, match=re.escape(f"{p!r} is not a permutation")):
            inverse(p)
        with pytest.raises(ValueError, match="not a permutation"):
            power(p, -1)

    @pytest.mark.parametrize("m", [2.5, "2", None])
    def test_power_names_an_exponent_that_is_no_integer(self, m):
        with pytest.raises(ValueError, match=re.escape(f"exponent {m!r} is not an integer")):
            power(identity(3), m)

    @pytest.mark.parametrize("m", [0, 1, 2, -1])
    @pytest.mark.parametrize("p", [(5, 5), (1, 1, 0), (0, 1.0)])
    def test_power_names_a_map_that_is_no_permutation(self, p, m):
        # One message for every exponent, also 0, which never reaches compose.
        with pytest.raises(ValueError, match=re.escape(f"no power: {p!r} is not a permutation")):
            power(p, m)

    @pytest.mark.parametrize("m", [0, 1, -1, 299, -299])
    def test_power_checks_its_map_once(self, monkeypatch, m):
        calls = []

        def counted(p):
            calls.append(p)
            return is_permutation(p)

        monkeypatch.setattr(perms, "is_permutation", counted)
        power(rotation(600), m)
        assert len(calls) == 1

    @pytest.mark.parametrize("n", range(13))
    def test_power_is_repeated_compose(self, n):
        rng = random.Random(n)
        maps = [identity(n), tuple((i + 1) % n for i in range(n))]
        maps += [tuple(rng.sample(range(n), n)) for _ in range(4)]
        for p in maps:
            for sign, base in ((1, p), (-1, inverse(p))):
                step = identity(n)
                for m in range(2 * n + 3):
                    assert power(p, sign * m) == step, (p, sign * m)
                    step = compose(base, step)


class TestGenerators:
    def test_reflection_is_involution(self):
        for n in (3, 8, 11):
            assert compose(reflection(n), reflection(n)) == identity(2 * n)

    def test_rim_swap_square_identity_when_ksq_plus1(self):
        g = rim_swap(12, 5)
        assert compose(g, g) == identity(24)

    def test_rim_swap_square_reflection_when_ksq_minus1(self):
        g = rim_swap(10, 3)
        assert compose(g, g) == reflection(10)
        assert power(g, 4) == identity(20)

    def test_rim_swap_rejected_otherwise(self):
        with pytest.raises(ValueError, match=r"\+-1"):
            rim_swap(7, 2)

    def test_generators_are_automorphisms(self):
        for n, k in [(7, 2), (12, 5), (10, 3), (8, 3)]:
            g = gp(GpParams(n, k))
            assert is_automorphism(g, rotation(n))
            assert is_automorphism(g, reflection(n))
            if (k * k) % n in (1, n - 1):
                assert is_automorphism(g, rim_swap(n, k))

    def test_color_reversing_parity(self):
        # rotation and rim swap reverse colors; reflection preserves them.
        n, k = 12, 5
        g = gp(GpParams(n, k))
        colors = bipartition(g)
        rot = rotation(n)
        assert all(colors[rot[x]] != colors[x] for x in range(2 * n))
        swap = rim_swap(n, k)
        assert all(colors[swap[x]] != colors[x] for x in range(2 * n))
        refl = reflection(n)
        assert all(colors[refl[x]] == colors[x] for x in range(2 * n))

    def test_invalid_rim_swap_is_not_automorphism(self):
        n, k = 7, 2
        fake = tuple(n + (k * i) % n for i in range(n)) + tuple(
            (k * i) % n for i in range(n)
        )
        assert not is_automorphism(gp(GpParams(n, k)), fake)

    def test_is_automorphism_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="permutation length 9 != vertex count 10"):
            is_automorphism(gp(GpParams(5, 2)), tuple(range(9)))

    def test_non_permutation_is_not_automorphism(self):
        assert not is_automorphism(gp(GpParams(5, 2)), (0,) * 10)

    @pytest.mark.parametrize("convert", [float, str])
    def test_non_integer_entries_are_not_automorphism(self, convert):
        half_turn = power(rotation(6), 3)
        assert is_automorphism(gp(GpParams(6, 1)), half_turn)
        assert not is_permutation([convert(x) for x in half_turn])
        assert not is_automorphism(gp(GpParams(6, 1)), [convert(x) for x in half_turn])

    @pytest.mark.parametrize("dtype", ["int64", "uint16"])
    def test_integer_like_entries_are_a_permutation(self, dtype):
        make = getattr(pytest.importorskip("numpy"), dtype)
        half_turn = power(rotation(6), 3)
        assert is_permutation([make(x) for x in half_turn])
        assert is_automorphism(gp(GpParams(6, 1)), [make(x) for x in half_turn])

    def test_dihedral_relations(self):
        for n, k in [(6, 1), (9, 2), (14, 3)]:
            a, b = rotation(n), reflection(n)
            assert power(a, n) == identity(2 * n)
            assert compose(b, b) == identity(2 * n)
            assert compose(b, a) == compose(inverse(a), b)

    def test_gamma_relations(self):
        # alpha gamma = gamma alpha^k when k^2 = 1;
        # alpha gamma = gamma alpha^{-k} when k^2 = -1; beta commutes always.
        for n, k in [(12, 5), (8, 3), (24, 5)]:
            a, b, g = rotation(n), reflection(n), rim_swap(n, k)
            assert compose(a, g) == compose(g, power(a, k))
            assert compose(b, g) == compose(g, b)
        for n, k in [(5, 2), (10, 3), (13, 5)]:
            a, b, g = rotation(n), reflection(n), rim_swap(n, k)
            assert compose(a, g) == compose(g, power(a, -k))
            assert compose(b, g) == compose(g, b)
            assert compose(g, g) == b
            assert power(g, 4) == identity(2 * n)


class TestDesarguesHalfTurn:
    def test_is_automorphism(self):
        assert is_automorphism(gp(GpParams(10, 3)), desargues_half_turn())

    def test_mixes_rims(self):
        # Some outer-ring edge lands on a spoke, so the map is outside the
        # rotation/reflection/rim-swap group.
        d = desargues_half_turn()
        spokes = {(i, 10 + i) for i in range(10)}
        outer = [(i, (i + 1) % 10) for i in range(10)]
        assert any(tuple(sorted((d[u], d[v]))) in spokes for u, v in outer)

    def test_not_in_word_group(self):
        assert desargues_half_turn() not in set(words(10, 3))

    def test_quotient_is_h_graph(self):
        g = gp(GpParams(10, 3))
        q = quotient(g, desargues_half_turn())
        assert is_isomorphic(q, h_graph())


class TestWordTriples:
    def test_from_triple_examples(self):
        n, k = 12, 5
        a, b, g = rotation(n), reflection(n), rim_swap(n, k)
        assert from_triple(n, k, WordTriple(6, 0, 1)) == compose(power(a, 6), g)
        assert from_triple(n, k, WordTriple(3, 1, 0)) == compose(power(a, 3), b)
        assert from_triple(n, k, WordTriple(0, 1, 1)) == compose(b, g)

    def test_gamma_requires_valid_k(self):
        with pytest.raises(ValueError, match="gamma"):
            from_triple(7, 2, WordTriple(0, 0, 1))

    @pytest.mark.parametrize("a, message", [
        (6.0, "a 6.0 is not an integer"),
        ("6", "a '6' is not an integer"),
        (None, "a None is not an integer"),
    ])
    def test_non_integer_exponent_rejected(self, a, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WordTriple(a, 0, 1)

    @pytest.mark.parametrize("b, c, message", [
        (1.0, 1, "b 1.0 is not an integer"),
        (0, "1", "c '1' is not an integer"),
        (2, 0, "b and c must be 0 or 1"),
        (0, -1, "b and c must be 0 or 1"),
    ])
    def test_bad_reflection_or_swap_exponent_rejected(self, b, c, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WordTriple(1, b, c)

    @pytest.mark.parametrize("dtype", ["int64", "int32", "uint8"])
    def test_integer_like_exponents_stored_as_ints(self, dtype):
        make = getattr(pytest.importorskip("numpy"), dtype)
        t = WordTriple(make(6), make(0), make(1))
        assert all(type(x) is int for x in (t.a, t.b, t.c))
        assert t == WordTriple(6, 0, 1) and repr(t) == repr(WordTriple(6, 0, 1))

    def test_triple_uniqueness(self):
        # Distinct triples give distinct permutations, and together they are
        # the whole group <alpha, beta, gamma> (of full order 4n here).
        n, k = 12, 5
        found = words(n, k)
        assert len(set(found)) == len(found) == 4 * n
        assert set(found) == closure([rotation(n), reflection(n), rim_swap(n, k)])

    def test_format_word(self):
        assert format_word(WordTriple(6, 0, 1)) == "α⁶γ"
        assert format_word(WordTriple(12, 1, 1)) == "α¹²βγ"
        assert format_word(WordTriple(6, 0, 1), ascii_only=True) == "a^6*g"
        assert format_word(WordTriple(12, 1, 1), ascii_only=True) == "a^12*b*g"
        assert format_word(WordTriple(1, 0, 0)) == "α"
        assert format_word(WordTriple(0, 0, 0)) == "1"
        assert format_word("delta") == "Δ"
        assert format_word("delta", ascii_only=True) == "D"

    def test_format_word_unknown_special_rejected(self):
        with pytest.raises(ValueError, match="unknown special word 'gamma'"):
            format_word("gamma")

    @pytest.mark.parametrize("call, message", [
        (lambda: from_triple(12, 5, (6, 0, 1)), "word (6, 0, 1) is not a WordTriple"),
        (lambda: from_triple(10, 3, "delta"), "word 'delta' is not a WordTriple"),
        (lambda: format_word(5), "word 5 is not a WordTriple"),
    ], ids=["from_triple-tuple", "from_triple-delta", "format_word-int"])
    def test_a_word_that_is_no_word_triple_is_named(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("build, n", [
    (lambda n: rotation(n), -2),
    (lambda n: reflection(n), 2),
    (lambda n: rim_swap(n, 1), 0),
    (lambda n: from_triple(n, 1, WordTriple(0, 0, 1)), 0),
    (lambda n: from_triple(n, 1, WordTriple(1, 1, 0)), 1),
], ids=["rotation", "reflection", "rim_swap", "gamma", "alpha_beta"])
def test_words_refuse_fewer_than_3_vertices_per_rim(build, n):
    with pytest.raises(ValueError, match=re.escape(f"n must be at least 3, got {n}")):
        build(n)


# The generators and words as they were written before they shared one
# affine materialization: each generator applied to a vertex (rim, index) in
# turn, gamma first, then beta, then alpha^a.

def reference_word(n, k, a, b, c):
    def image(x):
        rim, i = divmod(x, n)
        if c:
            rim, i = 1 - rim, k * i % n
        if b:
            i = -i % n
        return rim * n + (i + a) % n
    return tuple(image(x) for x in range(2 * n))


def gamma_steps(n):
    """Every k in 1..n-1 with k^2 = +-1 (mod n), for which gamma exists."""
    return [k for k in range(1, n) if k * k % n in (1, n - 1)]


class TestWordsMatchReference:
    def test_generators_up_to_200(self):
        for n in range(3, 201):
            assert rotation(n) == reference_word(n, 1, 1, 0, 0), n
            assert reflection(n) == reference_word(n, 1, 0, 1, 0), n
            for k in gamma_steps(n):
                assert rim_swap(n, k) == reference_word(n, k, 0, 0, 1), (n, k)

    def test_words_up_to_200(self):
        for n in range(3, 201):
            for a in {0, 1, n // 2, n - 1}:
                for b in (0, 1):
                    # Without gamma a word does not depend on k.
                    assert from_triple(n, n + 2, WordTriple(a, b, 0)) == reference_word(
                        n, 1, a, b, 0), (n, a, b)
                    for k in gamma_steps(n):
                        assert from_triple(n, k, WordTriple(a, b, 1)) == reference_word(
                            n, k, a, b, 1), (n, k, a, b)

    def test_generators_are_automorphisms_of_gp_up_to_60(self):
        for n in range(3, 61):
            for k in range(1, (n - 1) // 2 + 1):
                g = gp(GpParams(n, k))
                assert is_automorphism(g, rotation(n)), (n, k)
                assert is_automorphism(g, reflection(n)), (n, k)
                if k in gamma_steps(n):
                    assert is_automorphism(g, rim_swap(n, k)), (n, k)
