"""The capelli benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass runs the seeded task list of the workload once, in a
fresh interpreter (``one_pass.py``), so the column memo and the character
cache start cold in every pass, as they do for every ``capelli`` command.
Passes run one after another for S seconds (at least one pass), and each
metric is the median over the passes.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics are reported instead; the span trees
of the traced passes are written to ``.bench_trace/``.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status is 0 when every pass ran (failed tasks are
counted, not fatal) and 2 when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0  # every run, tracing included, ends well within 180 s


class BenchError(Exception):
    """The benchmark cannot run or a pass died."""


def _checkout() -> Path:
    root = Path.cwd()
    if not (root / "src" / "capelli" / "__init__.py").is_file():
        raise BenchError(f"no src/capelli under {root}: run from a source checkout")
    if not (root / "BENCHMARK.json").is_file():
        raise BenchError(f"no BENCHMARK.json under {root}")
    return root


def _run_pass(root: Path, args, traced: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(HERE / "one_pass.py"),
        args.workload,
        str(args.seed),
        "1" if traced else "0",
        "1" if args.smoke else "0",
    ]
    # perf_counter is CLOCK_MONOTONIC on Linux, so the child's reading of it
    # at its first timed task is comparable with this one.
    spawned_at = time.perf_counter()
    try:
        done = subprocess.run(
            command,
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran past the time limit") from None
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        raise BenchError(f"a pass exited with {done.returncode}: " + " | ".join(tail))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("first_task_at") - spawned_at
    result["pass_s"] = time.perf_counter() - spawned_at
    return result


def _end_to_end(passes: list[dict]) -> dict[str, float]:
    # Every pass runs the same task list.  The heaviest task is the one whose
    # median over the passes is largest; the median of each pass's maximum
    # would carry the largest swing of the machine into the metric.
    per_task = zip(*(p["task_s"] for p in passes))
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(sum(p["task_s"]) for p in passes),
        "cpu_s": statistics.median(sum(p["cpu_s"]) for p in passes),
        "largest_task_s": max(statistics.median(times) for times in per_task),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    names = set().union(*(p["layers"] for p in traced))
    metrics = {
        name: statistics.median(p["layers"].get(name, 0) for p in traced)
        for name in names
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        sum(p["task_s"]) for p in traced
    ) / statistics.median(sum(p["task_s"]) for p in untraced)
    return metrics


def _src_lines(root: Path) -> int:
    return sum(
        len(path.read_text().splitlines())
        for path in sorted((root / "src" / "capelli").glob("*.py"))
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="one task per class and a single pass"
    )
    args = parser.parse_args(argv)
    try:
        return _main(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def _main(args) -> int:
    started = time.perf_counter()
    root = _checkout()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = started + TIME_LIMIT_S

    # A round is one pass, or one untraced and one traced pass.  Another
    # round starts only if it should end within --seconds.
    untraced, traced = [], []
    while True:
        round_started = time.perf_counter()
        untraced.append(_run_pass(root, args, False, deadline))
        if args.trace:
            traced.append(_run_pass(root, args, True, deadline))
        now = time.perf_counter()
        next_round_end = now + (now - round_started)
        if args.smoke or next_round_end > min(started + args.seconds, deadline):
            break

    passes = untraced + traced
    attempted = sum(len(p["keys"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    values = _per_layer(untraced, traced) if args.trace else _end_to_end(untraced)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")

    print(
        f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced"
        + (f" + {len(traced)} traced" if args.trace else "")
        + f" passes of {len(untraced[0]['keys'])} tasks"
    )
    print(
        f"python {platform.python_version()}, {os.cpu_count()} CPUs,"
        f" src/capelli {_src_lines(root)} lines"
    )
    for m in wanted:
        print(f"  {m['name']:36} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':36} {len(failures) / attempted:>14.6g} ratio"
          f" ({len(failures)} of {attempted})")
    for failure in failures[:10]:
        print(f"  FAILED {failure['key']}: {failure['error']}")
    if args.trace:
        out = root / ".bench_trace"
        out.mkdir(exist_ok=True)
        (out / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(
                {"keys": traced[0]["keys"], "metrics": values,
                 "spans": [p["spans"] for p in traced]},
                indent=1,
                sort_keys=True,
            )
        )

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
