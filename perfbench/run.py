"""gpcover benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload {verify_sweep,iso_queries,closed_form}
                             --seed N --seconds S --trace {0,1}

Run from the root of a gpcover checkout.  Every repetition is a fresh
interpreter (perfbench/worker.py), so gpcover's caches start cold as they do
for a command-line user; repetitions run one at a time until the next one
would overrun --seconds.  Before any timing, the references that grade the
answers are checked against the oracle at small n.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics, with the tracing
overhead as traced minus untraced wall time.  End-to-end times, set-up
included, are scaled to a reference host speed (see ``timings``); the
unscaled ones are printed too.  Every metric is printed as
``metric <name> = <value> <unit>``; the last line is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 only
when every answer was right.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Changes which graphs the oracle accepts, and so what the workloads measure.
ORACLE_BOUND_ENV = "GPCOVER_ORACLE_BOUND"
CHILD_TIMEOUT_S = 150
MIN_REPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "items_per_ref_s": "1/s",
    "item_p50_ref_ms": "ms",
    "item_p90_ref_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in metric_names() + ["trace.wall_s", "trace.overhead_ref_s"]:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(".bytes"):
            units[name] = "bytes"
        elif name.endswith((".calls", ".found", ".classes", ".true")):
            units[name] = "count"
        else:
            units[name] = "ratio"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def child_env() -> dict[str, str]:
    """gpcover from this checkout, fixed hashing, and byte-code caching on,
    so set-up is timed as an installed package's start-up would be (the
    self-check child writes the caches before any timing)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str]) -> tuple[float, str]:
    """Run worker.py; return (seconds until it printed `ready`, rest of stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready, first + rest


def git_sha() -> str:
    """HEAD's commit id read from .git without running git; the benchmark
    usually runs in an export that has no .git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until the next would overrun `seconds`; returns the raw reps."""
    reps = []
    durations = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
            break
        traced = trace and len(reps) % 2 == 1
        args = ["--workload", workload, "--seed", str(seed)]
        if traced:
            os.makedirs(OUT, exist_ok=True)
            args += ["--trace-file", os.path.join(OUT, f"spans-{workload}-seed{seed}.json")]
        t0 = perf_counter()
        setup_s, text = run_child(args)
        durations.append(perf_counter() - t0)
        rep = json.loads(text.strip().splitlines()[-1])
        rep["setup_s"] = setup_s
        rep["traced"] = traced
        reps.append(rep)
    return reps


def timings(reps: list[dict], scaled: bool) -> dict[str, float]:
    """Median wall time and throughput, and pooled per-item percentiles.

    Scaled, every time is at the reference host speed (worker.Pacer): the
    host these runs share changes speed by tens of percent within seconds,
    and the scaling takes most of that out of the run-to-run spread."""
    wall_key, lat_key = ("wall_ref_s", "latencies_ref_ms") if scaled else ("wall_s", "latencies_ms")
    latencies = [x for r in reps for x in r[lat_key]]
    return {
        "wall": statistics.median(r[wall_key] for r in reps),
        "items_per": statistics.median(r["items"] / r[wall_key] for r in reps),
        "item_p50": statistics.median(latencies),
        "item_p90": quantile(latencies, 90),
    }


def end_to_end(reps: list[dict]) -> dict[str, float]:
    ref = timings(reps, scaled=True)
    return {
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in reps),
        "wall_ref_s": ref["wall"],
        "items_per_ref_s": ref["items_per"],
        "item_p50_ref_ms": ref["item_p50"],
        "item_p90_ref_ms": ref["item_p90"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {
        name: statistics.median(r["layers"][name] for r in traced) for name in metric_names()
    }
    out["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_ref_s"] = (
        timings(traced, scaled=True)["wall"] - timings(plain, scaled=True)["wall"]
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if ORACLE_BOUND_ENV in os.environ:
        print(f"error: {ORACLE_BOUND_ENV} is set ({os.environ[ORACLE_BOUND_ENV]!r}); it "
              "changes what the workloads measure, so unset it", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "gpcover", "__init__.py")):
        print(f"error: no gpcover source at {os.path.join(ROOT, 'src', 'gpcover')}; "
              "run from the root of a gpcover checkout", file=sys.stderr)
        return 2

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    for key, value in env.items():
        print(f"env {key} = {value}")
    try:
        _, text = run_child(["--selfcheck"])
        print(text.strip())
        reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["items"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        values, units = per_layer(reps), per_layer_units()
    else:
        values, units = end_to_end(reps), END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    for error in sorted({e for r in reps for e in r["errors"]}):
        print(f"wrong answer: {error}", file=sys.stderr)
    print(f"repetitions = {len(reps)}")
    raw = timings([r for r in reps if not r["traced"]], scaled=False)
    raw["setup"] = statistics.median(r["setup_s"] for r in reps)
    print("unscaled setup_s = {setup:.6g} s, wall_s = {wall:.6g} s, items_per_s = {items_per:.6g} 1/s, "
          "item_p50_ms = {item_p50:.6g} ms, item_p90_ms = {item_p90:.6g} ms".format(**raw))
    print(f"reference loop round = {statistics.median(r['reference_round_s'] for r in reps):.6g} s")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} answers wrong or raised)")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "reps": reps}, fh, indent=1)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
