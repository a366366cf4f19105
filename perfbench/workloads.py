"""The three benchmark workloads: seeded inputs, one timed repetition, and
grading of every answer against ``reference``.

Each workload has ``make_inputs(seed)`` (benchmark-side only, no gpcover
calls) and ``run(api, inputs, pace)`` which calls gpcover's public API and
returns a ``Rep``.  ``api`` is the imported ``gpcover`` package; functions
are looked up on it at call time so that a tracer installed beforehand sees
them.  Workloads made of many queries call ``pace(done)`` every
``PACE_EVERY`` queries, outside the timed region, so the caller can follow
the host's speed; ``pace`` returns the seconds it took.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
from dataclasses import dataclass, field
from time import perf_counter

import reference as ref

# verify_sweep: `gpcover verify --max-n 22`, 110 (n,k) pairs.
VERIFY_MAX_N = 22
# sha256 of that command's stdout; 266/266 checks passed.
VERIFY_STDOUT_SHA256 = "b7866523f25fc94aae29eceaba1aba91133ef41c1469c90a1b0a9524f6105131"

# iso_queries: 160 isomorphism queries with 20 <= n <= 60 and 40 group-order
# queries with n <= 16, each a systematic sample of the (n,k) pairs.
ISO_QUERIES, ISO_N = 160, (20, 60)
AUT_QUERIES, AUT_MAX_N = 40, 16

# closed_form: 60 half-turn (A1/A2) and 60 rim-switch (B1/B2) covering pairs
# with 100 <= n <= 600.
CF_HALF, CF_N = 60, (100, 600)

# Queries between two pace() calls: about 0.2 s of work.
PACE_EVERY = 10


@dataclass
class Rep:
    """One repetition: wall time, per-item latencies and the grading."""

    wall_s: float
    items: int
    failed: int
    latencies_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _timed(rep: Rep, label: str, query, *args) -> None:
    """Run one query, time it and grade it.  The query returns None or what
    was wrong; a raised exception is a wrong answer too."""
    start = perf_counter()
    try:
        problem = query(*args)
    except Exception as exc:  # the answer is graded, not propagated
        problem = f"raised {type(exc).__name__}: {exc}"
    rep.latencies_ms.append((perf_counter() - start) * 1000.0)
    if problem:
        rep.failed += 1
        if len(rep.errors) < 5:
            rep.errors.append(f"{label}: {problem}")


def _query_loop(rep: Rep, items, pace) -> None:
    """Time each (label, query, args) item; wall time leaves out pace()."""
    paused = 0.0
    start = perf_counter()
    for i, (label, query, args) in enumerate(items):
        if i and i % PACE_EVERY == 0:
            paused += pace(i)
        _timed(rep, label, query, *args)
    rep.wall_s = perf_counter() - start - paused


def _systematic(rng: random.Random, population: list, m: int) -> list:
    """m evenly spaced members of population from a random start, so every
    seed draws the same mix of sizes (and so of cost) in a different sample."""
    step = len(population) / m
    start = rng.random() * step
    return [population[int(start + i * step)] for i in range(m)]


# ---------------------------------------------------------------------------

class VerifySweep:
    """`gpcover verify --max-n 22` in-process.  Deterministic: the seed is
    ignored.  Item = one (n,k) pair; the per-item time is the sweep's time
    per pair."""

    name = "verify_sweep"

    @staticmethod
    def make_inputs(seed: int) -> list[str]:
        return ["verify", "--max-n", str(VERIFY_MAX_N)]

    @staticmethod
    def run(api, argv: list[str], pace) -> Rep:
        cli = importlib.import_module("gpcover.cli")
        pairs = len(ref.gp_pairs(3, VERIFY_MAX_N))
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            problem = None
        except Exception as exc:
            code, problem = None, f"raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        rep = Rep(wall, pairs, 0, [wall * 1000.0 / pairs])
        text = out.getvalue()
        lines = text.splitlines()
        last = lines[-1] if lines else ""
        if problem is None and code != 0:
            problem = f"exit code {code}"
        if problem is None and last != f"{len(lines) - 1}/{len(lines) - 1} checks passed":
            problem = f"last line {last!r} is not 'X/X checks passed'"
        if problem is None and hashlib.sha256(text.encode()).hexdigest() != VERIFY_STDOUT_SHA256:
            problem = "stdout digest differs from the recorded reference"
        if problem:
            # The sweep is one answer; a wrong one fails every pair in it.
            rep.failed = pairs
            rep.errors.append(problem)
        return rep


class IsoQueries:
    """Seeded library queries inside the oracle bound.  Four fifths ask
    is_isomorphic(relabel(GP(n,k)), GP(n,l)) with l = k half the time,
    graded by Steimle-Staton; one fifth ask len(automorphisms(GP(n,k))),
    graded by Frucht-Graver-Watkins."""

    name = "iso_queries"

    @staticmethod
    def make_inputs(seed: int) -> list[tuple]:
        rng = random.Random(f"iso_queries/{seed}")
        queries: list[tuple] = []
        for i, (n, k) in enumerate(_systematic(rng, ref.gp_pairs(*ISO_N), ISO_QUERIES)):
            l = k if i % 2 == 0 else rng.randint(1, (n - 1) // 2)
            perm = list(range(2 * n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in ref.gp_edges(n, k)]
            queries.append(("iso", n, k, l, edges, ref.gp_isomorphic(n, k, l)))
        for n, k in _systematic(rng, ref.gp_pairs(3, AUT_MAX_N), AUT_QUERIES):
            queries.append(("aut", n, k, None, None, ref.aut_order(n, k)))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def run(api, queries: list[tuple], pace) -> Rep:
        def iso(n, l, edges, expected):
            got = api.is_isomorphic(api.graph(2 * n, edges), api.gp(api.GpParams(n, l)))
            return None if got == expected else f"is_isomorphic={got}, expected {expected}"

        def aut(n, k, expected):
            got = len(api.automorphisms(api.gp(api.GpParams(n, k))))
            return None if got == expected else f"{got} automorphisms, expected {expected}"

        rep = Rep(0.0, len(queries), 0)
        _query_loop(rep, [
            (f"GP({n},{k}) ~ GP({n},{l})", iso, (n, l, edges, expected)) if kind == "iso"
            else (f"|Aut GP({n},{k})|", aut, (n, k, expected))
            for kind, n, k, l, edges, expected in queries
        ], pace)
        return rep


class ClosedForm:
    """Seeded quotient/kc-style queries beyond the oracle bound: classify,
    build the canonical involution, quotient, materialize the closed form,
    graph6 round trip, Kronecker cover.  Graded label-exactly against the
    reference quotient; no oracle function is called."""

    name = "closed_form"

    @staticmethod
    def make_inputs(seed: int) -> list[tuple]:
        rng = random.Random(f"closed_form/{seed}")
        lo, hi = CF_N
        width = hi - lo + 1
        pairs = []
        # Half-turn covers: n = 2 (mod 4) from an even grid of n-bins, any odd k.
        for j in range(CF_HALF):
            n = rng.choice([
                n for n in range(lo + j * width // CF_HALF, lo + (j + 1) * width // CF_HALF)
                if n % 4 == 2
            ])
            pairs.append((n, rng.randrange(1, n // 2, 2)))
        # Rim-switch covers are rare among uniform draws: pick one from each
        # of CF_HALF equal slices of all of them, ordered by n.
        rim = [
            (n, k) for n in range(lo, hi + 1) if n % 4 == 0
            for k in range(1, n // 2, 2) if ref.cover_case(n, k)
        ]
        for j in range(CF_HALF):
            pairs.append(rng.choice(rim[j * len(rim) // CF_HALF:(j + 1) * len(rim) // CF_HALF]))
        rng.shuffle(pairs)
        return [(n, k, ref.cover_case(n, k), ref.quotient_edges(n, k)) for n, k in pairs]

    @staticmethod
    def run(api, queries: list[tuple], pace) -> Rep:
        def query(n, k, case, expected_edges):
            p = api.GpParams(n, k)
            c = api.classify(p)
            g = api.gp(p)
            q = api.quotient(g, api.from_triple(n, k, c.canonical_involution))
            closed = c.quotients[0].materialize()
            decoded = api.decode_graph6(api.encode_graph6(q))
            cover = api.kronecker_cover(q)
            if c.case.value != case:
                return f"case {c.case.value}, expected {case}"
            if q.vertex_count != n or q.edges != expected_edges:
                return "quotient differs from the reference closed form"
            if closed != q:
                return "materialized closed form differs from the quotient"
            if decoded != q:
                return "graph6 round trip changed the quotient"
            if api.bipartition(cover) is None or len(cover.edges) != 3 * n:
                return "cover is not bipartite with 3n edges"
            return None

        rep = Rep(0.0, len(queries), 0)
        _query_loop(rep, [(f"GP({q[0]},{q[1]})", query, q) for q in queries], pace)
        return rep


WORKLOADS = {w.name: w for w in (VerifySweep, IsoQueries, ClosedForm)}
