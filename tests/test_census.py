import json
import random
import re
from pathlib import Path

import pytest

from gpcover.oracle import SearchBoundExceeded, is_isomorphic, kronecker_involutions

from gpcover.classify import Case, Classification, QuotientDesc
from gpcover.covers import _cover_map, kronecker_cover, kronecker_involution_failure, quotient
from gpcover.families import GpParams, gp
from gpcover.graphs import Graph, bipartition, graph
from gpcover.perms import WordTriple, from_triple
from gpcover.census import (
    CSV_COLUMNS,
    _compare,
    _keys,
    _round_trip,
    census,
    rows_to_csv,
    rows_to_json,
    verify,
)

GOLDEN = Path(__file__).parent / "data" / "census_4_26_oracle.csv"


class TestCensus:
    def test_rows_ordered_and_keyed(self):
        rows = census(3, 14)
        keys = [(r.n, r.k) for r in rows]
        assert keys == sorted(keys)
        assert all(r.n % 2 == 0 and r.k % 2 == 1 for r in rows)

    def test_nonbipartite_rows_optional(self):
        rows = census(3, 10, include_nonbipartite=True)
        assert any(r.case == "NotBipartite" for r in rows)
        assert any((r.n, r.k) == (5, 2) for r in rows)

    def test_bipartite_keys_are_those_a_search_two_colours(self):
        # GpParams.bipartite is the one parity rule; the breadth-first search
        # on a twin of GP(n,k) that records no colouring is a second route.
        every = list(_keys(3, 60))
        assert [(p.n, p.k) for p in every] == [
            (n, k) for n in range(3, 61) for k in range(1, (n - 1) // 2 + 1)
        ]
        assert len(every) == 870
        colourable = [p for p in every if bipartition(Graph(2 * p.n, gp(p).edges)) is not None]
        assert list(_keys(3, 60, False)) == colourable

    def test_row_18_3(self):
        row = next(r for r in census(18, 18, with_oracle=True) if r.k == 3)
        assert row.case == "A1"
        assert row.quotient == "GP(9,3)"
        assert row.agree is True

    def test_row_16_7_no_cover(self):
        row = next(r for r in census(16, 16, with_oracle=True) if r.k == 7)
        assert row.case == "NoCover"
        assert row.oracle_cover is False
        assert row.agree is True

    def test_row_8_3_reports_oracle_with_note(self):
        row = next(r for r in census(8, 8, with_oracle=True) if r.k == 3)
        assert row.case == "Exceptional_8_3"
        assert row.oracle_cover is False
        assert row.oracle_classes == 0
        assert "zero jumps" in row.notes and "u1v1" in row.notes
        plain = next(r for r in census(8, 8) if r.k == 3)
        assert (plain.involution, plain.quotient) == ("(none)", "(none)")
        assert plain.notes == row.notes

    def test_csv_columns_fixed(self):
        header = rows_to_csv(census(4, 6)).splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_deterministic(self):
        a = rows_to_csv(census(4, 16, with_oracle=True))
        b = rows_to_csv(census(4, 16, with_oracle=True))
        assert a == b

    def test_parallel_matches_serial(self):
        serial = rows_to_csv(census(4, 14, with_oracle=True, jobs=1))
        parallel = rows_to_csv(census(4, 14, with_oracle=True, jobs=2))
        assert serial == parallel

    def test_json_mirrors_csv(self):
        rows = census(4, 10, with_oracle=True)
        data = json.loads(rows_to_json(rows))
        assert len(data) == len(rows)
        assert data[0]["n"] == rows[0].n
        assert set(data[0]) == set(CSV_COLUMNS)

    def test_golden_file(self):
        assert rows_to_csv(census(4, 26, with_oracle=True)) == GOLDEN.read_text()

    def test_disagreement_carries_graph6_evidence(self, monkeypatch):
        # Force the search side to report a bogus extra class and check the
        # row flags the disagreement with a reproducible payload.
        import importlib

        census_mod = importlib.import_module("gpcover.census")
        from gpcover.families import GpParams, gp

        real = census_mod.quotients_up_to_iso

        def forged(g):
            classes = real(g)
            if g == gp(GpParams(6, 1)):
                return classes + [gp(GpParams(3, 1))]
            return classes

        monkeypatch.setattr(census_mod, "quotients_up_to_iso", forged)
        row = next(r for r in census_mod.census(6, 6, with_oracle=True) if r.k == 1)
        assert row.agree is False
        assert "g6:" in row.notes

    def test_round_trip_failure_flips_agree(self, monkeypatch):
        # Only the round trip fails: existence, class count and quotient
        # isomorphism still pass, so the row must not agree on those alone.
        import importlib

        census_mod = importlib.import_module("gpcover.census")
        from gpcover.families import GpParams, gp

        real = census_mod.kronecker_cover

        def forged(g):
            if is_isomorphic(g, gp(GpParams(3, 1))):
                return gp(GpParams(6, 2))
            return real(g)

        monkeypatch.setattr(census_mod, "kronecker_cover", forged)
        row = census_mod.census(6, 6, with_oracle=True)[0]
        assert (row.n, row.k, row.oracle_classes) == (6, 1, 1)
        assert row.agree is False
        assert "g6:" in row.notes

    def test_agree_iff_every_verify_check_passes(self):
        passed = {}
        for check in verify(22).checks:
            key = (check.n, check.k)
            passed[key] = passed.get(key, True) and check.passed
        rows = census(4, 22, with_oracle=True)
        assert rows
        for row in rows:
            assert row.agree is passed[(row.n, row.k)], (row.n, row.k)


class TestJobs:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the process pool, which ``census._map`` imports from
        concurrent.futures only when it starts workers, with one that records
        its max_workers and maps serially; returns the recorded values."""
        created = []

        class FakePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, keys):
                return map(fn, keys)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        return created

    def test_at_most_one_worker_per_row(self, pools):
        # n <= 4 has two (n,k) pairs, (3,1) and (4,1).
        report = verify(4, jobs=5000)
        assert pools == [2]
        assert report == verify(4)

    def test_one_row_runs_serially(self, pools):
        rows = census(4, 4, with_oracle=True, jobs=5000)
        assert pools == []
        assert [(r.n, r.k) for r in rows] == [(4, 1)]

    def test_jobs_below_row_count_is_kept(self, pools):
        assert rows_to_csv(census(4, 10, jobs=3)) == rows_to_csv(census(4, 10))
        assert pools == [3]

    @pytest.mark.parametrize("sweep, message", [
        (lambda: verify(2.5), "n_max 2.5 is not an integer"),
        (lambda: verify("9"), "n_max '9' is not an integer"),
        (lambda: verify(2), "n_max must be at least 3, got 2"),
        (lambda: verify(8, jobs=0), "jobs must be at least 1, got 0"),
        (lambda: census(3, 8.5), "n_max 8.5 is not an integer"),
        (lambda: census(None, 8, with_oracle=True), "n_min None is not an integer"),
        (lambda: census(3, 8, jobs=1.5), "jobs 1.5 is not an integer"),
        (lambda: census(3, 8, with_oracle=True, jobs=-3), "jobs must be at least 1, got -3"),
        (lambda: census(61, 61, jobs=0), "jobs must be at least 1, got 0"),
    ])
    def test_bad_arguments_are_named_before_any_row(self, monkeypatch, pools, sweep,
                                                    message):
        import importlib

        census_mod = importlib.import_module("gpcover.census")
        rows = []
        monkeypatch.setattr(census_mod, "_census_row", lambda key, **kw: rows.append(key))
        monkeypatch.setattr(census_mod, "_verify_pair", rows.append)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            sweep()
        assert pools == [] and rows == []


class TestOracleBound:
    @pytest.mark.parametrize("sweep", [
        lambda mod: mod.verify(61),
        lambda mod: mod.verify(61, jobs=2),
        lambda mod: mod.census(4, 61, with_oracle=True, include_nonbipartite=True),
        lambda mod: mod.census(4, 62, with_oracle=True),
    ], ids=["verify", "verify-jobs", "census-all-rows", "census"])
    def test_sweep_past_bound_refused_before_any_search(self, monkeypatch, sweep):
        import importlib

        census_mod = importlib.import_module("gpcover.census")
        calls = []
        real = census_mod.quotients_up_to_iso

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(census_mod, "quotients_up_to_iso", counted)
        with pytest.raises(SearchBoundExceeded, match=r"12[24] vertices, oracle bound is 120"):
            sweep(census_mod)
        assert calls == []

    def test_sweep_within_bound_is_not_refused(self, monkeypatch):
        # Without non-bipartite rows odd n visits no graph, so the largest
        # graph of the 6..7 sweep is GP(6,1), 12 vertices, and 61..61 has none.
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", "12")
        assert [r.agree for r in census(6, 7, with_oracle=True)] == [True]
        assert census(62, 200) and census(61, 61, with_oracle=True) == []


class TestVerify:
    def test_small_sweep_passes(self):
        report = verify(14)
        assert report.all_passed, report.failures()

    def test_check_names(self):
        report = verify(10)
        names = {c.name for c in report.checks}
        assert "existence" in names
        assert "class_count" in names
        assert any(n.startswith("round_trip") for n in names)

    def test_10_3_has_two_classes(self):
        report = verify(10)
        check = next(
            c for c in report.checks if (c.n, c.k) == (10, 3) and c.name == "class_count"
        )
        assert check.passed
        assert "oracle=2" in check.detail

    def test_notes_mention_8_3(self):
        report = verify(8)
        assert any("(8,3)" in note for note in report.notes)

    def test_quotient_that_cannot_be_built_fails_its_check(self):
        # A hand-built B2 classification of GP(8,3): its C-(8,3) has zero
        # jumps, so materialize() fails and the check reports why.
        c = Classification(8, 3, Case.B2, (QuotientDesc("cminus", 8, 3),))
        check = next(ch for ch in _compare(c)[1] if ch.name == "quotient_iso[C-(8,3)]")
        assert not check.passed
        assert check.detail == "invalid LCF spec: zero jump at positions [1, 3, 5, 7]"

    def test_false_cover_claim_names_the_failed_clause(self):
        # A forged B1 classification of GP(8,3) whose involution is gamma,
        # u_i -> v_{3i}: it sends u_0 to its spoke neighbour v_0.
        c = Classification(8, 3, Case.B1, (QuotientDesc("cplus", 8, 3, via=WordTriple(0, 0, 1)),))
        check = _compare(c)[1][0]
        assert (check.name, check.passed) == ("existence", False)
        assert check.detail == (
            "classifier=True oracle=False; γ maps a vertex to a neighbor (fixed edge)"
        )


def relabeled(g, perm):
    return graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


class TestRoundTripWitness:
    """``_round_trip`` proves K(cls) = g with the map of ``_cover_map``; the
    oracle's isomorphism test is the second route."""

    def test_every_covering_involution_gives_a_checked_isomorphism(self):
        rng = random.Random(21)
        seen = 0
        for p in (GpParams(n, k) for n in range(4, 61, 2) for k in range(1, n // 2, 2)):
            g = gp(p)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            inverse = [0] * len(perm)
            for x, y in enumerate(perm):
                inverse[y] = x
            for w in kronecker_involutions(g):
                # w conjugated by the relabelling is a covering involution of h.
                w_h = tuple(perm[w[inverse[y]]] for y in range(len(perm)))
                for x, v in ((g, w), (h, w_h)):
                    cover = kronecker_cover(quotient(x, v))
                    phi = _cover_map(x, v)
                    assert relabeled(x, phi) == cover, (p, v)
                    assert _round_trip(x, [v], cover), (p, v)
                    assert is_isomorphic(cover, x), (p, v)
                seen += 1
        assert seen == 219  # every covering involution with n <= 60

    def test_class_with_the_wrong_vertex_count_fails(self):
        g = gp(GpParams(12, 5))
        involutions = kronecker_involutions(g)
        cls = quotient(g, involutions[0])
        assert _round_trip(g, involutions, kronecker_cover(cls))
        # One isolated vertex more: equal edge counts, two vertices more.
        padded = kronecker_cover(graph(cls.vertex_count + 1, cls.edges))
        assert len(padded.edges) == len(g.edges)
        assert not _round_trip(g, involutions, padded)
        assert not is_isomorphic(padded, g)

    def test_cover_with_an_edge_more_fails(self):
        # phi still sends every edge of g to an edge; only the counts differ.
        g = gp(GpParams(12, 5))
        cover = kronecker_cover(quotient(g, kronecker_involutions(g)[0]))
        extra = next((u, v) for u in range(24) for v in range(u + 1, 24)
                     if (u, v) not in cover.edges)
        bigger = graph(24, cover.edges + (extra,))
        assert not _round_trip(g, kronecker_involutions(g), bigger)
        assert not is_isomorphic(bigger, g)

    def test_forged_cover_with_equal_counts_fails(self):
        g = gp(GpParams(12, 5))
        forged = gp(GpParams(12, 1))
        assert (forged.vertex_count, len(forged.edges)) == (g.vertex_count, len(g.edges))
        assert not _round_trip(g, kronecker_involutions(g), forged)
        assert not is_isomorphic(forged, g)

    def test_map_that_keeps_colours_gives_no_bijection(self):
        # alpha^6 on GP(12,5) is a fixed-point-free involutive automorphism
        # that keeps each vertex's colour, so x and its image share both
        # orbit and colour, and phi sends them to one vertex.
        g = gp(GpParams(12, 5))
        w = from_triple(12, 5, WordTriple(6, 0, 0))
        assert kronecker_involution_failure(g, w) == "not color-reversing"
        assert sorted(_cover_map(g, w)) != list(range(24))
        cover = kronecker_cover(quotient(g, kronecker_involutions(g)[0]))
        assert not _round_trip(g, [w], cover)
        assert _round_trip(g, [w] + kronecker_involutions(g), cover)
        # A forged cover that holds every edge image of that phi, padded to
        # g's edge count: only the bijection test refuses it.
        phi = _cover_map(g, w)
        images = {tuple(sorted((phi[u], phi[v]))) for u, v in g.edges}
        spare = ((u, v) for u in range(24) for v in range(u + 1, 24) if (u, v) not in images)
        forged = graph(24, sorted(images) + [next(spare) for _ in range(36 - len(images))])
        assert len(forged.edges) == len(g.edges)
        assert not _round_trip(g, [w], forged)

    def test_no_involution_gives_no_witness(self):
        g = gp(GpParams(12, 5))
        cover = kronecker_cover(quotient(g, kronecker_involutions(g)[0]))
        assert not _round_trip(g, [], cover)
