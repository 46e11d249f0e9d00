"""Alternating parent/change pairs of the benchmark, summarized for one change.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<PR>.json [--first-seed 1]

Run from the root of a source checkout: the checkout's working tree is the
change.  Both sides run from fresh copies in temporary directories, so that
neither finds bytecode or other leftovers of earlier runs: the committed
files of REV are exported with ``git archive`` and are the parent, and the
working tree's files that ``git ls-files --cached --others
--exclude-standard`` lists and that still exist are copied as they are on
disk and are the change (the repository's own metadata is left untouched).
For every workload of ``BENCHMARK.json`` the script runs
``bench/run.py`` in both trees for ten pairs, with ``--seconds`` set to the
benchmark's ``run_seconds`` and the same seed on both sides; pair k uses
seed first-seed + k and the parent runs first in even pairs, the change in
odd ones.  Each tree runs its own ``bench/run.py``.

The output holds every run, and for each end-to-end metric of each workload
the median and quartiles of both sides (``statistics.quantiles``, as in
``bench/record.py``), the parent's interquartile range, the number of pairs
the change won (ties count for neither), and the ``src/capelli`` line counts
of both trees, counted by ``bench/run.py``.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10

_run_spec = importlib.util.spec_from_file_location(
    "bench_run", Path(__file__).resolve().parents[1] / "bench" / "run.py"
)
bench_run = importlib.util.module_from_spec(_run_spec)
_run_spec.loader.exec_module(bench_run)


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True
    ).stdout


def _export(root: Path, rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    archive = tarfile.open(fileobj=io.BytesIO(_git(root, "archive", rev)))
    with archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def _export_worktree(root: Path, dest: Path) -> None:
    """The working tree's tracked and untracked files that git does not
    ignore, as they are on disk, copied under dest; a tracked file deleted
    from the tree is skipped."""
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, os.fsdecode(listed).split("\0")):
        source = root / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} in {tree} exited {done.returncode}: "
            + " | ".join(done.stderr.strip().splitlines()[-5:])
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles and win counts over the pairs."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        values = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
        wins = sum(
            sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])
        )
        ties = sum(p == c for p, c in zip(values["parent"], values["change"]))
        parent, change = _spread(values["parent"]), _spread(values["change"])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "change_wins": wins,
            "ties": ties,
            "pairs": len(runs),
            "gap_exceeds_parent_iqr": abs(change["median"] - parent["median"])
            > parent["iqr"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<PR>.json")
    parser.add_argument("--first-seed", type=int, default=1, dest="first_seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not all((root / name).is_file() for name in ("BENCHMARK.json", "bench/run.py")):
        parser.error(f"no BENCHMARK.json and bench/run.py under {root}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_rev = _git(root, "rev-parse", args.parent).decode().strip()
    head = _git(root, "rev-parse", "HEAD").decode().strip()

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tmp, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_tmp:
        trees = {"parent": Path(parent_tmp), "change": Path(change_tmp)}
        _export(root, parent_rev, trees["parent"])
        _export_worktree(root, trees["change"])
        record = {
            "parent": parent_rev,
            "change": f"working tree of {head}",
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "seconds": seconds,
            "pairs": PAIRS,
            "seeds": [args.first_seed + k for k in range(PAIRS)],
            "order": "parent first in even pairs, change first in odd pairs",
            "quartiles": "statistics.quantiles(n=4)",
            "src_capelli_lines": {
                side: bench_run._src_lines(trees[side]) for side in SIDES
            },
            "workloads": {},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for k, seed in enumerate(record["seeds"]):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = _run(trees[side], workload, seed, seconds)
                print(
                    f"{workload} pair {k + 1}/{PAIRS} seed {seed}: "
                    + ", ".join(
                        f"{side} wall_s {run[side]['metrics']['wall_s']:.3f}"
                        for side in SIDES
                    ),
                    file=sys.stderr,
                )
                runs.append(run)
            record["workloads"][workload] = {
                "correct": all(run[side]["correct"] for run in runs for side in SIDES),
                "failed": {
                    side: sum(run[side]["failed"] for run in runs) for side in SIDES
                },
                "metrics": summarize(runs, spec["end_to_end"]),
                "runs": runs,
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
