import re
from math import gcd

import pytest

from gpcover.families import GpParams, gp, lcf
from gpcover.perms import WordTriple, from_triple, rotation
from gpcover.covers import is_kronecker_involution
from gpcover.classify import (
    Case,
    QuotientDesc,
    arith,
    classify,
    family_shifts,
    involution_family,
    q_value,
    quotient_lcf,
    two_adic,
)
from gpcover.oracle import is_isomorphic


class TestTwoAdic:
    @pytest.mark.parametrize("i,expected", [(12, 2), (7, 0), (8, 3), (1, 0), (96, 5)])
    def test_values(self, i, expected):
        assert two_adic(i) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            two_adic(0)


class TestQValue:
    def test_values(self):
        assert q_value(12, 5) == 2
        assert q_value(24, 5) == 1
        assert q_value(7, 2) is None
        assert q_value(4, 1) == 0


class TestArithIdentities:
    def test_identities_up_to_200(self):
        # For k^2 = 1 (mod n) with Q >= 1: the 2-adic valuations satisfy
        # b(n) = b(k+1) + b(k-1) - b(Q), and both minimal shifts have
        # closed forms in terms of k and Q.
        checked = 0
        for n in range(3, 201):
            for k in range(2, (n - 1) // 2 + 1):
                if (k * k - 1) % n:
                    continue
                ar = arith(n, k)
                q = ar.q
                assert q is not None and q >= 1
                assert two_adic(n) == two_adic(k + 1) + two_adic(k - 1) - two_adic(q)
                assert ar.a_min == (k - 1) // gcd(k - 1, q)
                assert ar.a_min_prime == (k + 1) // gcd(k + 1, k + 1 - q)
                checked += 1
        assert checked > 50

    def test_half_shift_in_family_when_q_even(self):
        for n in range(4, 201, 2):
            for k in range(1, (n - 1) // 2 + 1, 2):
                q = q_value(n, k)
                if q is None or q % 2:
                    continue
                assert n // 2 in family_shifts(n, k), (n, k)


TABLE_CASES = [
    ((6, 1), Case.A1, "GP(3,1)"),
    ((26, 7), Case.A2, "GP(13,6)"),
    ((20, 9), Case.B1, "C+(20,9)"),
    ((24, 7), Case.B2, "C-(24,7)"),
    ((24, 5), Case.NO_COVER, ""),
    ((40, 9), Case.B1, "C+(40,9)"),
    ((16, 7), Case.NO_COVER, ""),
    ((11, 2), Case.NOT_BIPARTITE, ""),
    ((12, 2), Case.NOT_BIPARTITE, ""),
]


class TestClassify:
    @pytest.mark.parametrize("nk,case,quotient", TABLE_CASES)
    def test_cases(self, nk, case, quotient):
        c = classify(GpParams(*nk))
        assert c.case is case
        assert ";".join(q.label() for q in c.quotients) == quotient

    def test_exceptional_10_3(self):
        c = classify(GpParams(10, 3))
        assert c.case is Case.EXCEPTIONAL_10_3
        assert [q.label() for q in c.quotients] == ["GP(5,2)", "H"]
        assert c.involution_words() == ["α⁵", "Δ"]
        assert c.involution_words(ascii_only=True) == ["a^5", "D"]
        assert c.covered is True

    def test_exceptional_8_3_delegates(self):
        c = classify(GpParams(8, 3))
        assert c.case is Case.EXCEPTIONAL_8_3
        assert c.covered is False
        assert c.quotients == ()
        assert c.canonical_involution is None

    def test_half_turn_only_for_n_2_mod_4(self):
        for n in range(4, 30):
            for k in range(1, (n - 1) // 2 + 1):
                c = classify(GpParams(n, k))
                uses_half_turn = (
                    c.canonical_involution is not None
                    and c.canonical_involution.c == 0
                )
                if c.case in (Case.A1, Case.A2):
                    assert uses_half_turn and n % 4 == 2 and k % 2 == 1
                elif c.canonical_involution is not None and (n, k) != (10, 3):
                    assert not uses_half_turn

    def test_b_iff_half_square_condition(self):
        # Case B occurs exactly when n divides (k^2-1)/2 with n = 0 (mod 4).
        for n in range(4, 44, 4):
            for k in range(1, (n - 1) // 2 + 1, 2):
                if (n, k) == (8, 3):
                    continue
                c = classify(GpParams(n, k))
                divides = (k * k - 1) // 2 % n == 0
                assert (c.case in (Case.B1, Case.B2)) == divides, (n, k)

    def test_b1_b2_by_k_mod_4(self):
        assert classify(GpParams(12, 5)).case is Case.B1  # k = 1 (mod 4)
        assert classify(GpParams(24, 7)).case is Case.B2  # k = 3 (mod 4)

    def test_canonical_involutions_are_covering(self):
        for nk in [(6, 1), (14, 3), (18, 5), (12, 5), (20, 9), (24, 7), (40, 9)]:
            p = GpParams(*nk)
            c = classify(p)
            perm = from_triple(p.n, p.k, c.canonical_involution)
            assert is_kronecker_involution(gp(p), perm), nk


class TestInvolutionFamily:
    def test_12_5(self):
        fam = involution_family(GpParams(12, 5))
        assert fam == [WordTriple(2, 0, 1), WordTriple(6, 0, 1), WordTriple(10, 0, 1)]
        assert len(fam) == gcd(12, 6) // 2

    def test_4_1(self):
        assert involution_family(GpParams(4, 1)) == [WordTriple(2, 0, 1)]

    def test_24_7_is_reflected_family(self):
        fam = involution_family(GpParams(24, 7))
        assert fam == [WordTriple(4, 1, 1), WordTriple(12, 1, 1), WordTriple(20, 1, 1)]
        # The shift lattice is generated by n/gcd(n, n-k+1) = 4, so there are
        # gcd(n, n-k+1)/2 = 3 members, not gcd(n, k+1)/2 = 4.
        assert len(fam) == gcd(24, 24 - 7 + 1) // 2 == 3

    def test_members_are_covering_involutions(self):
        for nk in [(12, 5), (24, 7), (20, 9), (8, 1)]:
            p = GpParams(*nk)
            g = gp(p)
            for t in involution_family(p):
                assert is_kronecker_involution(g, from_triple(p.n, p.k, t)), (nk, t)

    def test_wrong_case_rejected(self):
        with pytest.raises(ValueError, match="not B1/B2"):
            involution_family(GpParams(6, 1))
        with pytest.raises(ValueError, match="not B1/B2"):
            involution_family(GpParams(8, 3))

    def test_even_k_has_no_shift_family(self):
        with pytest.raises(ValueError, match="shift families require odd k"):
            family_shifts(12, 4)


class TestQuotientLcf:
    def test_canonical_shift_matches_c_plus(self):
        spec = quotient_lcf(GpParams(12, 5), 6)
        assert spec == QuotientDesc("cplus", 12, 5).spec()
        assert spec.jumps == (6, 10, 2) * 4  # f(i) = 6 + 4i

    def test_canonical_shift_matches_c_minus(self):
        spec = quotient_lcf(GpParams(24, 7), 12)
        assert spec == QuotientDesc("cminus", 24, 7).spec()
        assert spec.jumps[:4] == (12, 4, 20, 12)  # f(i) = 12 - 8i

    def test_shift_by_k_minus_1_rotates_sequence(self):
        p = GpParams(12, 5)
        f2, f6 = quotient_lcf(p, 2).jumps, quotient_lcf(p, 6).jumps
        assert all(f6[i] == f2[(i + 1) % 12] for i in range(12))

    def test_invalid_shift_rejected(self):
        with pytest.raises(ValueError, match="family"):
            quotient_lcf(GpParams(12, 5), 4)

    def test_family_quotients_pairwise_isomorphic(self):
        p = GpParams(12, 5)
        graphs = [lcf(quotient_lcf(p, t.a)) for t in involution_family(p)]
        assert all(is_isomorphic(graphs[0], g) for g in graphs[1:])


def b_instances(max_n):
    return [
        GpParams(n, k)
        for n in range(4, max_n + 1, 4)
        for k in range(1, (n - 1) // 2 + 1, 2)
        if classify(GpParams(n, k)).case in (Case.B1, Case.B2)
    ]


class TestQuotientDesc:
    def test_b_quotient_is_family_quotient_at_half_shift(self):
        instances = b_instances(200)
        assert len(instances) > 50
        for p in instances:
            (desc,) = classify(p).quotients
            assert desc.materialize() == lcf(quotient_lcf(p, p.n // 2)), p

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown quotient kind 'weird'"):
            QuotientDesc("weird", 4, 1)

    def test_only_c_quotients_have_a_spec(self):
        assert QuotientDesc("gp", 5, 2).spec() is None
        assert QuotientDesc("h").spec() is None

    @pytest.mark.parametrize("n, k, message", [
        (5.0, 2, "n 5.0 is not an integer"),
        (5, "2", "k '2' is not an integer"),
        (None, 2, "n None is not an integer"),
    ])
    def test_non_integer_n_or_k_rejected(self, n, k, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            QuotientDesc("gp", n, k)

    @pytest.mark.parametrize("dtype", ["int64", "int32", "uint8"])
    def test_integer_like_values_stored_as_ints(self, dtype):
        make = getattr(pytest.importorskip("numpy"), dtype)
        desc = QuotientDesc("cplus", make(12), make(5))
        assert type(desc.n) is int and type(desc.k) is int
        assert desc == QuotientDesc("cplus", 12, 5) and desc.label() == "C+(12,5)"

    @pytest.mark.parametrize("n, k", [(3, 1), (0, 1), (10, 0)])
    def test_h_takes_no_n_or_k(self, n, k):
        with pytest.raises(ValueError, match=f"quotient kind 'h' takes no n or k, got n={n}, k={k}"):
            QuotientDesc("h", n, k)
        assert QuotientDesc("h", 0, 0) == QuotientDesc("h")

    @pytest.mark.parametrize("args, message", [
        (("gp", -1, 7), "n must be at least 3, got -1"),
        (("cplus",), "n must be at least 3, got 0"),
        (("cminus", 12, 6), "k=6 violates k < n/2 for n=12"),
        (("gp", 7, 0), "k must be at least 1, got 0"),
        (("cplus", 7, 2), "n must be even, got 7"),
    ])
    def test_unbuildable_range_refused_before_any_label(self, args, message):
        # A description that materialize() could never build does not exist,
        # so it cannot label itself GP(-1,7) or C+(0,0).
        with pytest.raises(ValueError, match=re.escape(message)):
            QuotientDesc(*args)

    def test_degenerate_jumps_still_surface_in_lcf(self):
        desc = QuotientDesc("cminus", 8, 3)
        assert desc.label() == "C-(8,3)"
        with pytest.raises(ValueError, match="zero jump"):
            desc.materialize()


@pytest.mark.parametrize("compute, n", [
    (lambda n: family_shifts(n, 1), 0),
    (lambda n: family_shifts(n, 1), -4),
    (lambda n: family_shifts(n, 3), 2),
    (lambda n: q_value(n, 3), 0),
    (lambda n: arith(n, 3), 0),
], ids=["family_shifts", "family_shifts_negative", "family_shifts_reflected", "q_value", "arith"])
def test_shift_arithmetic_refuses_fewer_than_3_vertices_per_rim(compute, n):
    with pytest.raises(ValueError, match=re.escape(f"n must be at least 3, got {n}")):
        compute(n)


@pytest.mark.parametrize("compute, message", [
    (lambda: from_triple(12, 5.0, WordTriple(6, 0, 1)), "k 5.0 is not an integer"),
    (lambda: rotation(3.0), "n 3.0 is not an integer"),
    (lambda: family_shifts(12.0, 5), "n 12.0 is not an integer"),
    (lambda: q_value(12, 5.0), "k 5.0 is not an integer"),
], ids=["from_triple", "rotation", "family_shifts", "q_value"])
def test_words_and_shifts_refuse_non_integer_parameters(compute, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        compute()


# The shift and jump formulas as they were written before the B families
# read their step from the word: step k - 1 and minimal shift n/gcd(n, k+1)
# for k = 1 (mod 4), step -(k + 1) and n/gcd(n, n-k+1) for k = 3 (mod 4).

def reference_shifts(n, k):
    m = n // gcd(n, k + 1) if k % 4 == 1 else n // gcd(n, n - k + 1)
    return [s * m for s in range(1, n // m + 1, 2) if s * m < n]


def reference_jumps(n, a, step):
    return tuple((a + i * step) % n for i in range(n))


class TestShiftsMatchReference:
    def test_arith_and_family_shifts_up_to_200(self):
        for n in range(3, 201):
            for k in range(1, n):
                q = (k * k - 1) // n if (k * k - 1) % n == 0 else None
                expected = (n, k, q, n // gcd(n, k + 1), n // gcd(n, n - k + 1))
                ar = arith(n, k)
                assert (ar.n, ar.k, ar.q, ar.a_min, ar.a_min_prime) == expected
                if k % 2:
                    assert family_shifts(n, k) == reference_shifts(n, k), (n, k)

    def test_c_quotient_specs_up_to_200(self):
        for n in range(4, 201, 2):
            for k in range(1, (n - 1) // 2 + 1):
                plus, minus = QuotientDesc("cplus", n, k), QuotientDesc("cminus", n, k)
                assert plus.spec().jumps == reference_jumps(n, n // 2, k - 1), (n, k)
                assert minus.spec().jumps == reference_jumps(n, n // 2, -(k + 1)), (n, k)

    def test_families_and_their_quotients_up_to_200(self):
        instances = b_instances(200)
        assert len(instances) > 50
        for p in instances:
            n, k = p.n, p.k
            b, step = (0, k - 1) if k % 4 == 1 else (1, -(k + 1))
            family = involution_family(p)
            assert family == [WordTriple(a, b, 1) for a in reference_shifts(n, k)], p
            for t in family:
                assert quotient_lcf(p, t.a).jumps == reference_jumps(n, t.a, step), (p, t)


def test_count_formula_as_data_up_to_2000():
    # A B family has gcd(n, 1 + t)/2 words, t = (-1)^b k their step.  The
    # paper's gcd(n, k+1)/2 is that count for B1 (t = k) only: it fails on
    # every B2 instance, from GP(24,7) on.
    instances = {Case.B1: [], Case.B2: []}
    failures = {Case.B1: [], Case.B2: []}
    for n in range(4, 2001, 4):
        for k in range(1, n // 2, 2):
            if (k * k - 1) % n:  # every B instance has k^2 = 1 (mod n)
                continue
            case = classify(GpParams(n, k)).case
            if case not in instances:
                continue
            family = involution_family(GpParams(n, k))
            assert len(family) == gcd(n, 1 + family[0].step(k)) // 2, (n, k)
            instances[case].append((n, k))
            if len(family) != gcd(n, k + 1) // 2:
                failures[case].append((n, k))
    assert len(instances[Case.B1]) == 1161 and failures[Case.B1] == []
    assert len(instances[Case.B2]) == 410 and failures[Case.B2] == instances[Case.B2]
    assert failures[Case.B2][:4] == [(24, 7), (56, 15), (60, 11), (60, 19)]
