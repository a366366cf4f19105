"""Batch sweeps over (n,k): classifier vs. oracle cross-checks and reports.

One comparison, :func:`_compare`, checks a classification against the
oracle; :func:`verify` reports its checks and an oracle census row is a view
of them (it agrees iff every check passes).  The round trip of each quotient
class is a checked witness, not a search: a covering involution w of g gives
the explicit map phi(x) = orbit(x) + n0 * colour(x) onto the cover of the
class, and the check is that phi is a bijection sending g's edges onto the
cover's edges.  Row computation is a pure function of (n,k), so rows may be
computed in parallel worker processes and merged in key order; the emitted
CSV/JSON is byte-identical either way.  The process pool is imported only
when a sweep starts workers.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, asdict
from functools import partial
from typing import Optional

from .families import GpParams, gp
from .classify import Case, Classification, classify
from .covers import _cover_map, kronecker_cover, kronecker_involution_failure
from .oracle import check_bound, is_isomorphic, kronecker_involutions, quotients_up_to_iso
from .graphs import Graph, _at_least, _integer, encode_graph6
from .perms import Perm, _maps_edges_into, format_word, from_triple, is_permutation

CSV_COLUMNS = (
    "n", "k", "case", "involution", "quotient",
    "oracle_cover", "oracle_classes", "agree", "notes",
)

NOTE_8_3 = (
    "closed form nominally covers (8,3) but its stated involution fixes "
    "spoke u1v1 and the stated quotient sequence has zero jumps; "
    "oracle search over all 96 automorphisms finds no covering involution"
)


@dataclass(frozen=True)
class CensusRow:
    n: int
    k: int
    case: str
    involution: str
    quotient: str
    oracle_cover: Optional[bool]
    oracle_classes: Optional[int]
    agree: Optional[bool]
    notes: str


def _keys(n_min: int, n_max: int, include_nonbipartite: bool = True):
    """Every valid GpParams, n_min <= n <= n_max, by (n,k); non-bipartite ones only if asked."""
    n_min, n_max = _integer("n_min", n_min), _integer("n_max", n_max)
    for n in range(max(3, n_min), n_max + 1):
        for k in range(1, (n - 1) // 2 + 1):
            p = GpParams(n, k)
            if include_nonbipartite or p.bipartite:
                yield p


def _check_sweep(n_min: int, n_max: int, include_nonbipartite: bool = True) -> None:
    """Refuse a range whose largest GP(n,k) (2n vertices) is past the
    oracle bound, before any key of :func:`_keys` is listed.  Every even
    n >= 4 has a key, so only n_max and n_max - 1 are tried."""
    n_min, n_max = _integer("n_min", n_min), _integer("n_max", n_max)
    for n in range(n_max, max(n_min, n_max - 1) - 1, -1):
        if next(_keys(n, n, include_nonbipartite), None):
            check_bound(2 * n)
            return


def _map(fn, keys, jobs: int) -> list:
    """fn over keys, in key order, serially or in at most one worker
    process per key; jobs, the most workers, must be an integer >= 1."""
    workers = min(_at_least("jobs", jobs, 1), len(keys))
    if workers > 1:
        # Imported here, not in the header: it loads all of multiprocessing,
        # which a serial sweep, and so every plain `import gpcover`, never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, keys))
    return [fn(key) for key in keys]


def _census_row(p: GpParams, with_oracle: bool) -> CensusRow:
    c = classify(p)
    involution = ",".join(c.involution_words())
    quotient_label = ";".join(q.label() for q in c.quotients)
    notes = ""
    if c.case is Case.EXCEPTIONAL_8_3:
        involution = quotient_label = "(none)"
        notes = NOTE_8_3
    oracle_cover = oracle_classes = agree = None
    if with_oracle:
        classes, checks = _compare(c)
        oracle_cover, oracle_classes = bool(classes), len(classes)
        agree = all(check.passed for check in checks)
        if not agree:
            payload = ";".join("g6:" + encode_graph6(q) for q in classes)
            disagreement = f"disagreement: oracle classes [{payload or 'none'}]"
            notes = f"{notes} | {disagreement}" if notes else disagreement
    return CensusRow(p.n, p.k, c.case.value, involution, quotient_label,
                     oracle_cover, oracle_classes, agree, notes)


def census(
    n_min: int,
    n_max: int,
    with_oracle: bool = False,
    include_nonbipartite: bool = False,
    jobs: int = 1,
) -> list[CensusRow]:
    """One row per valid (n,k) with n_min <= n <= n_max, ordered by (n,k).

    Rows for non-bipartite parameters are emitted only when
    include_nonbipartite is set.  With the oracle enabled, a row agrees
    iff every check that :func:`verify` runs for its (n,k) passes; a sweep
    whose largest graph is past the oracle vertex bound is refused with
    SearchBoundExceeded before any row is listed or searched.  Non-integer
    bounds or jobs, and jobs below 1, are ValueErrors naming them.
    """
    if with_oracle:
        _check_sweep(n_min, n_max, include_nonbipartite)
    keys = list(_keys(n_min, n_max, include_nonbipartite))
    return _map(partial(_census_row, with_oracle=with_oracle), keys, jobs)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def rows_to_csv(rows: list[CensusRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(getattr(row, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows: list[CensusRow]) -> str:
    return json.dumps([asdict(row) for row in rows], indent=2) + "\n"


# ---------------------------------------------------------------------------
# Verification report.

@dataclass(frozen=True)
class VerifyCheck:
    n: int
    k: int
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]
    notes: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[VerifyCheck]:
        return [c for c in self.checks if not c.passed]


def _compare(c: Classification) -> tuple[list[Graph], list[VerifyCheck]]:
    """The oracle's quotient classes for GP(c.n, c.k), and the checks of the
    classification against them: cover existence, quotient class count,
    isomorphism of each symbolic quotient with an oracle class, and the
    cover round trip of each class, by :func:`_round_trip`."""
    n, k = c.n, c.k
    g = gp(GpParams(n, k))
    involutions = kronecker_involutions(g)
    oracle_cover = bool(involutions)
    classes = quotients_up_to_iso(g)
    existence = f"classifier={c.covered} oracle={oracle_cover}"
    if c.covered and not oracle_cover:
        existence += "; " + _claimed_involution_failure(g, c)
    checks = [
        VerifyCheck(n, k, "existence", c.covered == oracle_cover, existence),
        VerifyCheck(
            n, k, "class_count", len(c.quotients) == len(classes),
            f"classifier={len(c.quotients)} oracle={len(classes)}",
        ),
    ]
    for q in c.quotients:
        try:
            qg = q.materialize()
        except ValueError as exc:
            checks.append(VerifyCheck(n, k, f"quotient_iso[{q.label()}]", False, str(exc)))
            continue
        ok = any(is_isomorphic(qg, cls) for cls in classes)
        detail = "" if ok else "g6:" + encode_graph6(qg)
        checks.append(VerifyCheck(n, k, f"quotient_iso[{q.label()}]", ok, detail))

    for i, cls in enumerate(classes):
        ok = _round_trip(g, involutions, kronecker_cover(cls))
        detail = "" if ok else "g6:" + encode_graph6(cls)
        checks.append(VerifyCheck(n, k, f"round_trip[{i}]", ok, detail))
    return classes, checks


def _claimed_involution_failure(g: Graph, c: Classification) -> str:
    """The classifier's canonical involution of g, which the oracle says is
    no covering involution, as its word and the first clause of
    ``covers.kronecker_involution_failure`` that it fails (or the reason
    the word names no permutation of g)."""
    word = c.canonical_involution
    if word is None:
        return "no canonical involution named"
    try:
        failure = kronecker_involution_failure(g, from_triple(c.n, c.k, word))
    except ValueError as exc:
        failure = str(exc)
    return f"{format_word(word)} {failure or 'passes every clause'}"


def _round_trip(g: Graph, involutions: list[Perm], cover: Graph) -> bool:
    """Whether cover is isomorphic to g, shown by a checked witness: for
    some covering involution w of g, the map phi of ``covers._cover_map`` is
    a bijection (``perms.is_permutation``, the graphs having equally many
    vertices and equally many edges) that sends every edge of g to an edge
    of cover.  A bijection maps distinct edges to distinct edges, so with
    equal counts phi is an isomorphism.  Each oracle class is
    ``quotient(g, w)`` for one of g's covering involutions w, so its cover
    always has such a witness; a cover labelled any other way fails, even
    when it is isomorphic to g."""
    if (g.vertex_count, len(g.edges)) != (cover.vertex_count, len(cover.edges)):
        return False
    cover_edges = set(cover.edges)
    for w in involutions:
        phi = _cover_map(g, w)
        if is_permutation(phi) and _maps_edges_into(g, phi, cover_edges):
            return True
    return False


def _verify_pair(p: GpParams) -> list[VerifyCheck]:
    return _compare(classify(p))[1]


def verify(n_max: int, jobs: int = 1) -> VerifyReport:
    """Cross-check classifier against oracle for every valid (n,k), n <= n_max.

    Per pair, the checks of :func:`_compare`, in order.  Failures carry
    graph6 payloads; they are data, not exceptions.  A sweep past the oracle
    vertex bound is refused with SearchBoundExceeded before any pair is
    listed or searched, and a bad n_max or jobs with a ValueError naming it.
    """
    _check_sweep(3, _at_least("n_max", n_max, 3))  # GP(3,1) is the least valid pair
    groups = _map(_verify_pair, list(_keys(3, n_max)), jobs)
    checks = tuple(c for group in groups for c in group)
    notes = (
        "(8,3): " + NOTE_8_3,
        "covers of even-n GP graphs are never GP graphs; for odd k the "
        "cover is two disjoint copies of the base",
    )
    return VerifyReport(checks, notes)
