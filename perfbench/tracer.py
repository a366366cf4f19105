"""Span tracing of gpcover's public functions, installed from outside.

``install`` wraps each function in ``TRACED`` and rebinds the wrapper under
every name that holds the original in any ``gpcover`` module namespace
(``census.kronecker_involutions``, ``oracle.is_kronecker_involution``,
``covers.bipartition``, the package's re-exports, ...), so calls made
inside the package are seen as well as calls from the workload.  Spans
(name, start, end, parent) are kept in memory; ``Tracer.metrics`` turns them
into per-function call counts and self times, and ``Tracer.dump`` writes
them out.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Optional

# Layer -> public functions whose calls are timed.
TRACED: dict[str, tuple[str, ...]] = {
    "graphs": ("encode_graph6", "decode_graph6", "graph", "bipartition", "is_connected"),
    "families": ("gp", "lcf"),
    "perms": ("from_triple", "is_automorphism"),
    "covers": (
        "kronecker_involution_failure", "is_kronecker_involution",
        "quotient", "kronecker_cover",
    ),
    "classify": ("classify",),
    "oracle": (
        "automorphisms", "kronecker_involutions", "quotients_up_to_iso",
        "canonical_form", "is_isomorphic",
    ),
    "census": ("verify",),
    "cli": ("main",),
}

# Counters derived from a traced function's result: metric suffix and how
# much one result adds to it.
_RESULT_COUNTERS: dict[str, tuple[str, Callable[[object], int]]] = {
    "oracle.automorphisms": ("found", len),
    "oracle.kronecker_involutions": ("found", len),
    "oracle.quotients_up_to_iso": ("classes", len),
    "graphs.encode_graph6": ("bytes", len),
    "covers.is_kronecker_involution": ("true", bool),
}


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric ``Tracer.metrics`` reports, in a fixed order."""
    names = []
    for name in traced_names():
        names += [f"{name}.calls", f"{name}.self_s"]
        if name in _RESULT_COUNTERS:
            names.append(f"{name}.{_RESULT_COUNTERS[name][0]}")
    names += [f"{layer}.self_s" for layer in TRACED]
    names += [
        "oracle.inv_per_aut", "covers.checks_per_kinv", "graphs.bipartition_per_kinv",
        "oracle.self_share", "oracle.kronecker_involutions.share", "bench.self_s",
    ]
    return names


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = traced_names()
        # Filled in when each span ends; a parent's slot is reserved first.
        self.spans: list[Optional[tuple[int, float, float, int]]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.names.index(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = _RESULT_COUNTERS.get(name)
        key = f"{name}.{counter[0]}" if counter else ""

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if counter:
                counters[key] = counters.get(key, 0) + counter[1](result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> list[str]:
        """Wrap every traced function that exists; return the missing ones."""
        missing = []
        for layer, fns in TRACED.items():
            module = importlib.import_module(f"gpcover.{layer}")
            for fn_name in fns:
                original = getattr(module, fn_name, None)
                if original is None:
                    missing.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "gpcover" or mod_name.startswith("gpcover.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function calls and self time, result counters, per-layer self
        time and the derived ratios, for a traced run lasting wall_s.  A
        span's self time is its duration minus that of its child spans."""
        count = len(self.names)
        calls, total_s, self_s = [0] * count, [0.0] * count, [0.0] * count
        root_s = 0.0
        for name_id, start, end, parent in self.spans:
            calls[name_id] += 1
            total_s[name_id] += end - start
            self_s[name_id] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
            else:
                root_s += end - start

        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
            if name in _RESULT_COUNTERS:
                key = f"{name}.{_RESULT_COUNTERS[name][0]}"
                out[key] = self.counters.get(key, 0)
        for layer, fns in TRACED.items():
            out[f"{layer}.self_s"] = sum(out[f"{layer}.{fn}.self_s"] for fn in fns)

        kinv = self.names.index("oracle.kronecker_involutions")
        out["oracle.inv_per_aut"] = _ratio(
            out["covers.is_kronecker_involution.true"], out["oracle.automorphisms.found"]
        )
        out["covers.checks_per_kinv"] = _ratio(
            out["covers.kronecker_involution_failure.calls"], calls[kinv]
        )
        out["graphs.bipartition_per_kinv"] = _ratio(out["graphs.bipartition.calls"], calls[kinv])
        out["oracle.self_share"] = _ratio(out["oracle.self_s"], wall_s)
        out["oracle.kronecker_involutions.share"] = _ratio(total_s[kinv], wall_s)
        out["bench.self_s"] = wall_s - root_s
        return out

    def dump(self, path: str) -> None:
        """Write the spans as {"names": [...], "spans": [[name, start, end, parent]]}."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0
