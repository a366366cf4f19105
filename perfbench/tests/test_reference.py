"""The references that grade the benchmark, checked against the oracle
before they are trusted, and shown to fail loudly when wrong."""
import pytest

import gpcover
import reference as ref
from reference import ReferenceMismatch


def test_isomorphism_rule_matches_oracle_exhaustively_to_14():
    assert ref.check_iso_rule(gpcover, 14) > 0


def test_order_rule_matches_oracle_to_12():
    assert ref.check_order_rule(gpcover, 12) == len(ref.gp_pairs(3, 12))


def test_every_exceptional_order_matches_oracle():
    for (n, k), order in ref.EXCEPTIONAL_ORDERS.items():
        assert len(gpcover.automorphisms(gpcover.gp(gpcover.GpParams(n, k)))) == order


def test_cover_rule_matches_oracle():
    # Existence against the exhaustive search to n = 24; every reference
    # quotient covers GP(n,k) up to the oracle bound n = 60.
    assert ref.check_cover_rule(gpcover, n_exist=24, n_quotient=60) > 0


def test_label_exact_quotient_equals_program_quotient():
    """The label-exact check that grades closed_form holds wherever the
    oracle route above vouches for the reference, and well beyond it."""
    checked = 0
    for n, k in ref.gp_pairs(3, 200):
        case = ref.cover_case(n, k)
        if case is None:
            continue
        c = gpcover.classify(gpcover.GpParams(n, k))
        if (n, k) != (10, 3):
            assert c.case.value == case, (n, k)
        g = gpcover.gp(gpcover.GpParams(n, k))
        q = gpcover.quotient(g, gpcover.from_triple(n, k, c.canonical_involution))
        assert q.vertex_count == n and q.edges == ref.quotient_edges(n, k), (n, k)
        checked += 1
    assert checked > 1000


def test_reference_gp_edges_match_program():
    for n, k in ref.gp_pairs(3, 30):
        assert gpcover.gp(gpcover.GpParams(n, k)).edges == ref.gp_edges(n, k)


# ---------------------------------------------------------------------------
# A wrong reference must raise, never grade.

def test_isomorphism_rule_without_inverse_clause_is_rejected():
    def rule(n, k, l):
        return (l - k) % n == 0 or (l + k) % n == 0

    with pytest.raises(ReferenceMismatch, match="isomorphism rule"):
        ref.check_iso_rule(gpcover, 14, rule=rule)


def test_order_rule_without_exceptions_is_rejected():
    def rule(n, k):
        return 4 * n if (k * k - 1) % n == 0 or (k * k + 1) % n == 0 else 2 * n

    with pytest.raises(ReferenceMismatch, match="order rule"):
        ref.check_order_rule(gpcover, 12, rule=rule)


def test_cover_rule_ignoring_q_parity_is_rejected():
    def case_rule(n, k):
        if n % 2 or k % 2 == 0:
            return None
        if n % 4 == 2:
            return "A1"
        return "B1" if (k * k - 1) % n == 0 else None

    with pytest.raises(ReferenceMismatch, match="cover rule"):
        ref.check_cover_rule(gpcover, n_exist=16, n_quotient=0, case_rule=case_rule)


def test_wrong_reference_quotient_is_rejected():
    def edges_rule(n, k):
        # C+ jumps in place of C- for the B2 pairs.
        if ref.cover_case(n, k) == "B2":
            return ref.lcf_edges(n, [(n // 2 + i * (k - 1)) % n for i in range(n)])
        return ref.quotient_edges(n, k)

    with pytest.raises(ReferenceMismatch, match="reference quotient"):
        ref.check_cover_rule(gpcover, n_exist=0, n_quotient=60, edges_rule=edges_rule)
