"""One repetition of a workload in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N [--trace-file PATH]
    python3 perfbench/worker.py --selfcheck

Imports gpcover from the checkout's ``src``, builds the seeded inputs,
prints ``ready`` (the end of set-up), runs the workload once, and prints
one JSON line with the timings and grading, raw and scaled to a reference
host speed (see ``Pacer``).  With ``--trace-file`` the
tracer is installed after set-up and its spans are written to that path.
``--selfcheck`` tests the references against the oracle at small n and
exits 1 if one disagrees.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_gpcover():
    """Import gpcover from this checkout's src, never from elsewhere."""
    sys.path.insert(0, SRC)
    import gpcover

    if not os.path.abspath(gpcover.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gpcover imported from {gpcover.__file__}, not from {SRC}")
    return gpcover


def selfcheck(api) -> str:
    import reference as ref

    start = perf_counter()
    iso = ref.check_iso_rule(api, 14)
    orders = ref.check_order_rule(api, 12)
    covers = ref.check_cover_rule(api, n_exist=16, n_quotient=30)
    return (
        f"references agree with the oracle: {iso} isomorphism verdicts (n <= 14), "
        f"{orders} group orders (n <= 12), {covers} cover cases and quotients "
        f"(n <= 16 / n <= 30) in {perf_counter() - start:.2f} s"
    )


# A round figure near one reference_loop round on the 2-vCPU sandbox the
# benchmark was defined on (7-12 ms).  Fixed: changing it rescales every
# *_ref_* metric.
REFERENCE_ROUND_S = 0.01
EDGE_ROUNDS, PACE_ROUNDS = 10, 2


def reference_loop(rounds: int) -> float:
    """Seconds per round of a fixed pure-Python loop (a breadth-first search
    and integer arithmetic, no gpcover).  Garbage collection is off so the
    workload's heap does not change its cost."""
    gc.disable()
    try:
        start = perf_counter()
        graph = [((i + 1) % 5000, (i + 7) % 5000, (3 * i + 1) % 5000) for i in range(5000)]
        for _ in range(rounds):
            seen = {0: 0}
            queue = [0]
            for u in queue:
                for w in graph[u]:
                    if w not in seen:
                        seen[w] = seen[u] + 1
                        queue.append(w)
            total = 0
            for i in range(60_000):
                total += i * i % 7
        return (perf_counter() - start) / rounds
    finally:
        gc.enable()


class Pacer:
    """Follows the host's speed, which on a shared host changes by tens of
    percent within seconds: times reference_loop before the workload, after
    it, and between blocks of its queries (the workload calls the pacer)."""

    def __init__(self) -> None:
        self.marks: list[tuple[int, float]] = []  # (queries done, s per round)

    def mark(self, done: int, rounds: int) -> float:
        start = perf_counter()
        self.marks.append((done, reference_loop(rounds)))
        return perf_counter() - start

    def __call__(self, done: int) -> float:
        return self.mark(done, PACE_ROUNDS)

    def scaled(self, latencies: list[float]) -> list[float]:
        """Each latency times REFERENCE_ROUND_S over the mean round time of
        the two marks around it: its time at the reference speed."""
        out = []
        for (lo, before), (hi, after) in zip(self.marks, self.marks[1:]):
            factor = REFERENCE_ROUND_S / ((before + after) / 2)
            out += [x * factor for x in latencies[lo:hi]]
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    api = import_gpcover()
    if args.selfcheck:
        import reference as ref

        try:
            print(selfcheck(api))
        except ref.ReferenceMismatch as exc:
            print(f"reference self-check failed, not grading: {exc}", file=sys.stderr)
            return 1
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    print("ready", flush=True)

    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
    pacer = Pacer()
    pacer.mark(0, EDGE_ROUNDS)
    rep = workload.run(api, inputs, pacer)
    pacer.mark(len(rep.latencies_ms), EDGE_ROUNDS)
    scaled = pacer.scaled(rep.latencies_ms)
    result = {
        "wall_s": rep.wall_s,
        "items": rep.items,
        "failed": rep.failed,
        "latencies_ms": rep.latencies_ms,
        "errors": rep.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_ref_s": rep.wall_s * sum(scaled) / sum(rep.latencies_ms),
        "latencies_ref_ms": scaled,
        "reference_round_s": statistics.median(t for _, t in pacer.marks),
        # Scales set-up, which run.py times up to `ready`, just before this mark.
        "setup_scale": REFERENCE_ROUND_S / pacer.marks[0][1],
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(rep.wall_s)
        tracer.dump(args.trace_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
