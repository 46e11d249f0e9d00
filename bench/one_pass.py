"""One pass of a workload in a fresh interpreter; started by ``run.py``.

    python3 bench/one_pass.py WORKLOAD SEED TRACED SMOKE

Draws the task list from the seed, builds the inputs, runs every task in
order (a closed loop: each starts when the previous one returns) and checks
each output outside the timed region.  With TRACED = 1 the layer wrappers
are installed first and the per-layer counters are reported; with
TRACED = 0 the pass refuses to run if any wrapper is bound.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import tasks
import tracing


def _peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def _require_untraced() -> None:
    wrapped = tracing.installed_wrappers()
    if wrapped:
        raise RuntimeError(f"untraced pass found wrappers bound: {wrapped[:5]}")


def _layer_metrics(tracer: tracing.Tracer, cache_delta, traced_wall: float) -> dict:
    import capelli.elements

    metrics: dict[str, float] = {}
    for group in tracing.GROUPS:
        metrics[f"{group}.calls"] = tracer.calls[group]
        metrics[f"{group}.self_s"] = tracer.self_s[group]
    metrics.update(tracer.counts)
    metrics.update(tracer.maxima)
    counts = tracer.counts
    pairs = counts["enveloping.pbw_mul.pairs_in"]
    metrics["enveloping.pbw_mul.yield_ratio"] = (
        counts["enveloping.pbw_mul.terms_out"] / pairs if pairs else 0.0
    )
    lookups = counts["elements.column.memo_lookups"]
    metrics["elements.column.memo_hit_ratio"] = (
        counts["elements.column.memo_hits"] / lookups if lookups else 0.0
    )
    metrics["elements.column.memo_size"] = len(capelli.elements._column_memo)
    hits, misses = cache_delta
    metrics["characters.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.unattributed_s"] = traced_wall - tracer.spanned_s
    return metrics


def main(argv: list[str]) -> int:
    workload, seed, traced, smoke = argv
    traced, smoke = traced == "1", smoke == "1"
    import capelli.characters

    cache_info = capelli.characters.character_std.cache_info
    keys = tasks.draw(workload, int(seed), smoke)
    reference = tasks.load_reference()
    todo = tasks.build(keys)
    tracer = tracing.Tracer()
    if traced:
        tracing.install(tracer)
    else:
        _require_untraced()

    cache_before = cache_info()
    first_task_at = time.perf_counter()
    task_s, cpu_s, failures = [], [], []
    for task in todo:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        tracer.active = traced
        try:
            output, error = task.run(), None
        except Exception as exc:  # a failed task, not a failed benchmark
            output, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            tracer.active = False
        task_s.append(time.perf_counter() - wall0)
        cpu_s.append(time.process_time() - cpu0)
        # Read before the check, which may need more memory than the task
        # (the Capelli identity check of det:6 does).
        peak_rss_mib = _peak_rss_mib()
        if error is None:
            try:
                error = tasks.check(task, output, reference)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"key": task.key, "error": error})
    if not traced:
        _require_untraced()

    result = {
        "first_task_at": first_task_at,
        "keys": keys,
        "task_s": task_s,
        "cpu_s": cpu_s,
        "failures": failures,
        "peak_rss_mib": peak_rss_mib,
    }
    if traced:
        cache_after = cache_info()
        cache_delta = (
            cache_after.hits - cache_before.hits,
            cache_after.misses - cache_before.misses,
        )
        result["layers"] = _layer_metrics(tracer, cache_delta, sum(task_s))
        result["spans"] = tracer.paths
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
