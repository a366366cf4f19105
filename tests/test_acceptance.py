"""Acceptance suite: one test per exit criterion, exact tolerances.

Each criterion prints a PASS line on success (run with -s or -v to see
them).  Criterion 8 is split: 8a asserts the closed-form count
gcd(n,k+1)/2 for every B1/B2 instance and is expected to FAIL at (24,7),
where exhaustive search over the full automorphism group finds 3 covering
involutions while that formula gives 4.  The reflected family is generated
by shifts of n/gcd(n,n-k+1), so its true size is gcd(n,n-k+1)/2, which is
what 8b asserts alongside the remaining clauses; for (24,7) that is
gcd(24,18)/2 = 3.  8a is kept as stated, red, on purpose.
"""
import random
import time
from math import gcd

import pytest

from gpcover.graphs import (
    bipartition,
    connected_components,
    decode_graph6,
    encode_graph6,
    graph,
)
from gpcover.families import GpParams, gp, h_graph, lcf
from gpcover.perms import (
    WordTriple,
    compose,
    format_word,
    from_triple,
    identity,
    inverse,
    power,
    reflection,
    rim_swap,
    rotation,
)
from gpcover.covers import kronecker_cover, quotient
from gpcover.classify import (
    Case,
    arith,
    classify,
    family_shifts,
    involution_family,
    is_exceptional_pair,
    q_value,
    quotient_lcf,
)
from gpcover.oracle import (
    automorphisms,
    canonical_form,
    is_isomorphic,
    kronecker_involutions,
)
from gpcover.census import census


def all_params(n_lo, n_hi):
    for n in range(n_lo, n_hi + 1):
        for k in range(1, (n - 1) // 2 + 1):
            yield GpParams(n, k)


# Rows of the published small-cases table: (n, k, case, involution, quotient).
TABLE_1 = [
    (4, 1, Case.B1, WordTriple(2, 0, 1), "C+(4,1)"),
    (6, 1, Case.A1, WordTriple(3, 0, 0), "GP(3,1)"),
    (8, 1, Case.B1, WordTriple(4, 0, 1), "C+(8,1)"),
    (10, 1, Case.A1, WordTriple(5, 0, 0), "GP(5,1)"),
    (10, 3, Case.EXCEPTIONAL_10_3, None, "GP(5,2);H"),
    (12, 1, Case.B1, WordTriple(6, 0, 1), "C+(12,1)"),
    (12, 5, Case.B1, WordTriple(6, 0, 1), "C+(12,5)"),
    (14, 1, Case.A1, WordTriple(7, 0, 0), "GP(7,1)"),
    (14, 3, Case.A1, WordTriple(7, 0, 0), "GP(7,3)"),
    (16, 1, Case.B1, WordTriple(8, 0, 1), "C+(16,1)"),
    (18, 1, Case.A1, WordTriple(9, 0, 0), "GP(9,1)"),
    (18, 3, Case.A1, WordTriple(9, 0, 0), "GP(9,3)"),
    (18, 5, Case.A2, WordTriple(9, 0, 0), "GP(9,4)"),
    (20, 1, Case.B1, WordTriple(10, 0, 1), "C+(20,1)"),
    (20, 9, Case.B1, WordTriple(10, 0, 1), "C+(20,9)"),
    (22, 1, Case.A1, WordTriple(11, 0, 0), "GP(11,1)"),
    (22, 3, Case.A1, WordTriple(11, 0, 0), "GP(11,3)"),
    (22, 5, Case.A1, WordTriple(11, 0, 0), "GP(11,5)"),
    (24, 1, Case.B1, WordTriple(12, 0, 1), "C+(24,1)"),
    (24, 7, Case.B2, WordTriple(12, 1, 1), "C-(24,7)"),
    (26, 1, Case.A1, WordTriple(13, 0, 0), "GP(13,1)"),
    (26, 3, Case.A1, WordTriple(13, 0, 0), "GP(13,3)"),
    (26, 5, Case.A1, WordTriple(13, 0, 0), "GP(13,5)"),
    (26, 7, Case.A2, WordTriple(13, 0, 0), "GP(13,6)"),
]


def test_criterion_01_table_1_reproduction():
    started = time.monotonic()
    rows = {(r.n, r.k): r for r in census(4, 26, with_oracle=True)}
    for n, k, case, involution, quotient_label in TABLE_1:
        row = rows[(n, k)]
        assert row.case == case.value, (n, k)
        assert row.quotient == quotient_label, (n, k)
        if involution is not None:
            assert row.involution == format_word(involution), (n, k)
            if case in (Case.B1, Case.B2):
                assert involution in involution_family(GpParams(n, k))
        else:
            assert row.involution == "α⁵,Δ"
        assert row.agree is True, (n, k)
    # Sole allowed deviation: (8,3) is reported per oracle with a note.
    row83 = rows[(8, 3)]
    assert row83.case == Case.EXCEPTIONAL_8_3.value
    assert row83.oracle_cover is False and row83.oracle_classes == 0
    assert "u1v1" in row83.notes and "zero jumps" in row83.notes
    # Every other census row must agree with the oracle as well.
    assert all(r.agree for r in rows.values())
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"census took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 (Table 1 reproduction, {elapsed:.1f}s): PASS")


def test_criterion_02_theorem_equivalence_to_40(oracle_sweep):
    for p in all_params(3, 40):
        c = classify(p)
        if (p.n, p.k) in oracle_sweep:
            oracle_cover = bool(oracle_sweep[(p.n, p.k)][0])
        else:
            oracle_cover = bool(kronecker_involutions(gp(p)))
        assert c.covered == oracle_cover, (p.n, p.k)
    print("ACCEPTANCE 2 (closed form = search, n <= 40): PASS")


def test_criterion_03_quotients_and_round_trip(oracle_sweep):
    covered = 0
    for (n, k), (invs, classes) in oracle_sweep.items():
        if not invs:
            continue
        covered += 1
        c = classify(GpParams(n, k))
        assert len(c.quotients) == len(classes), (n, k)
        for desc in c.quotients:
            assert any(
                is_isomorphic(desc.materialize(), cls) for cls in classes
            ), (n, k, desc.label())
        g = gp(GpParams(n, k))
        for cls in classes:
            assert is_isomorphic(kronecker_cover(cls), g), (n, k)
    assert covered > 40
    print(f"ACCEPTANCE 3 (quotients + round trip, {covered} covered pairs): PASS")


def test_criterion_04_desargues_exception(oracle_sweep):
    _, classes = oracle_sweep[(10, 3)]
    assert len(classes) == 2
    assert any(is_isomorphic(q, gp(GpParams(5, 2))) for q in classes)
    assert any(is_isomorphic(q, h_graph()) for q in classes)
    print("ACCEPTANCE 4 (GP(10,3) has exactly the two known quotients): PASS")


def test_criterion_05_odd_n_covers():
    checked = 0
    for n in range(3, 16, 2):
        for k in range(1, (n - 1) // 2 + 1):
            cover = kronecker_cover(gp(GpParams(n, k)))
            target = GpParams(2 * n, k if k % 2 else n - k)
            assert is_isomorphic(cover, gp(target)), (n, k)
            checked += 1
    assert checked == 28
    print("ACCEPTANCE 5 (odd-n covers are GP graphs): PASS")


def test_criterion_06_even_n_covers_are_not_gp():
    for n in range(4, 15, 2):
        for k in range(1, (n - 1) // 2 + 1):
            cover = kronecker_cover(gp(GpParams(n, k)))
            if k % 2 == 1:  # bipartite base: cover splits, GP graphs do not
                assert len(connected_components(cover)) == 2, (n, k)
            else:
                for j in range(1, n):
                    assert not is_isomorphic(cover, gp(GpParams(2 * n, j))), (n, k, j)
    print("ACCEPTANCE 6 (even-n covers are never GP graphs): PASS")


def test_criterion_07_automorphism_groups():
    for p in all_params(3, 20):
        n, k = p.n, p.k
        ident = identity(2 * n)
        a, b = rotation(n), reflection(n)
        assert power(a, n) == ident
        assert compose(b, b) == ident
        assert compose(b, a) == compose(inverse(a), b)
        ksq = (k * k) % n
        if ksq == 1 % n:
            g = rim_swap(n, k)
            assert compose(g, g) == ident
            assert compose(a, g) == compose(g, power(a, k))
            assert compose(b, g) == compose(g, b)
        elif ksq == (n - 1) % n:
            g = rim_swap(n, k)
            assert power(g, 4) == ident
            assert compose(g, g) == b
            assert compose(a, g) == compose(g, power(a, -k))
            assert compose(b, g) == compose(g, b)
        if not is_exceptional_pair(n, k):
            expected = 4 * n if ksq in (1 % n, (n - 1) % n) else 2 * n
            assert len(automorphisms(gp(p))) == expected, (n, k)
    print("ACCEPTANCE 7 (automorphism orders and relations, n <= 20): PASS")


def b_instances():
    out = []
    for p in all_params(3, 40):
        if classify(p).case in (Case.B1, Case.B2):
            out.append(p)
    return out


@pytest.mark.parametrize("p", b_instances(), ids=lambda p: f"GP({p.n},{p.k})")
def test_criterion_08a_count_formula_as_stated(p, oracle_sweep):
    """The stated count gcd(n,k+1)/2 for every B1/B2 instance.

    Expected to fail at GP(24,7): the reflected family is generated by
    shifts of n/gcd(n,n-k+1), giving gcd(24,18)/2 = 3 involutions (the
    search over all 96 automorphisms finds exactly those 3), while
    gcd(n,k+1)/2 = 4.
    """
    invs, _ = oracle_sweep[(p.n, p.k)]
    assert len(invs) == gcd(p.n, p.k + 1) // 2, (
        f"GP({p.n},{p.k}): search finds {len(invs)} covering involutions, "
        f"stated formula gives {gcd(p.n, p.k + 1) // 2}"
    )


def test_criterion_08b_families_match_search(oracle_sweep):
    for p in b_instances():
        n, k = p.n, p.k
        invs, classes = oracle_sweep[(n, k)]
        family = involution_family(p)
        case = classify(p).case
        expected = gcd(n, k + 1) // 2 if case is Case.B1 else gcd(n, n - k + 1) // 2
        assert len(family) == expected == len(invs), (n, k)
        assert set(invs) == {from_triple(n, k, t) for t in family}, (n, k)
        # All quotients in one isomorphism class, matching the LCF forms.
        assert len(classes) == 1, (n, k)
        specs = [quotient_lcf(p, t.a) for t in family]
        for t, spec in zip(family, specs):
            assert is_isomorphic(lcf(spec), classes[0]), (n, k, t)
        # Shift lemma: bumping the shift by the family generator rotates the
        # jump sequence one step (forward for B1, backward for B2).
        ar = arith(n, k)
        for t in family:
            if case is Case.B1:
                step = gcd(k - 1, ar.q) * ar.a_min
                other = (t.a + step) % n
                if other in [u.a for u in family]:
                    f1, f2 = quotient_lcf(p, t.a).jumps, quotient_lcf(p, other).jumps
                    assert all(f2[i] == f1[(i + 1) % n] for i in range(n)), (n, k, t)
            else:
                step = gcd(k + 1, k + 1 - ar.q) * ar.a_min_prime
                other = (t.a + step) % n
                if other in [u.a for u in family]:
                    f1, f2 = quotient_lcf(p, t.a).jumps, quotient_lcf(p, other).jumps
                    assert all(f2[i] == f1[(i - 1) % n] for i in range(n)), (n, k, t)
    print("ACCEPTANCE 8b (families coincide with search; shift lemmas): PASS")


def test_criterion_09_arithmetic_identities():
    from gpcover.classify import two_adic

    checked = 0
    for n in range(3, 201):
        for k in range(1, (n - 1) // 2 + 1):
            if (k * k - 1) % n:
                continue
            ar = arith(n, k)
            q = ar.q
            if k >= 2:  # k = 1 gives Q = 0, outside the valuation identities
                assert two_adic(n) == two_adic(k + 1) + two_adic(k - 1) - two_adic(q)
                assert ar.a_min == (k - 1) // gcd(k - 1, q)
                assert ar.a_min_prime == (k + 1) // gcd(k + 1, k + 1 - q)
                checked += 1
            if q % 2 == 0 and n % 2 == 0:
                assert n // 2 in family_shifts(n, k), (n, k)
    assert checked > 50
    print(f"ACCEPTANCE 9 (arithmetic identities, {checked} pairs): PASS")


def test_criterion_10_property_suites():
    rng = random.Random(20260811)
    # graph6 round trip on 1000 random graphs with up to 40 vertices.
    for _ in range(1000):
        n = rng.randint(1, 40)
        p = rng.random()
        g = graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ],
        )
        assert decode_graph6(encode_graph6(g)) == g
    # bipartiteness of GP(n,k) is exactly "n even and k odd", n <= 30.
    for p in all_params(3, 30):
        present = bipartition(gp(p)) is not None
        assert present == (p.n % 2 == 0 and p.k % 2 == 1), (p.n, p.k)
    # canonical form is invariant under 100 random relabelings of 50 graphs.
    for _ in range(50):
        n = rng.randint(2, 40)
        density = rng.choice([0.1, 0.3, 0.5, 0.8])
        g = graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < density
            ],
        )
        base = canonical_form(g)
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = graph(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_form(relabeled) == base
    print("ACCEPTANCE 10 (property suites): PASS")
