"""Run every workload over several seeds, several times over, and record
every result with its context in a JSON file.

    python3 bench/record.py --seeds 1-10 --proofs 3 --out bench/baseline.json

Run from the root of a git checkout; the commit recorded is its HEAD.  A
proof runs ``run.py`` untraced once per workload and seed with the
``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end metric a proof
records the values, their median and quartiles, and the spread (third
quartile minus first, over the median) next to the metric's bound.  After
the proofs, ``agreement`` compares each later proof's median with the first
proof's, as a share of the first, and one traced run per workload on the
first seed gives the per-layer metrics.
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

import run

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _commit() -> str:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not trace:
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: {values}", flush=True)
    return result


def _proof(spec: dict, seeds: list[int]) -> dict:
    proof = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(spec, workload, seed, 0) for seed in seeds]
        summary = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary["end_to_end"][metric["name"]] = {
                "unit": metric["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": metric["bound"],
                "values": values,
            }
            print(f"{workload:20} {metric['name']:16} median {median:10.4f} "
                  f"spread {(q3 - q1) / median:.3f} (bound {metric['bound']})", flush=True)
        proof["workloads"][workload] = summary
    return proof


def _agreement(spec: dict, proofs: list[dict]) -> dict:
    """Each later proof's median over the first proof's, minus one, for every
    workload and metric, next to the metric's bound."""
    agreement = {}
    for workload in proofs[0]["workloads"]:
        agreement[workload] = {}
        for metric in spec["end_to_end"]:
            first, *later = (
                p["workloads"][workload]["end_to_end"][metric["name"]]["median"] for p in proofs
            )
            agreement[workload][metric["name"]] = {
                "change": [m / first - 1 for m in later],
                "bound": metric["bound"],
            }
    return agreement


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--proofs", type=int, required=True, help="sets of runs to make")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())

    record = {
        "context": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": _commit(),
            "seeds": args.seeds,
            "src_capelli_lines": run._src_lines(Path.cwd()),
            "run_seconds": spec["run_seconds"],
        },
        "proofs": [_proof(spec, args.seeds) for _ in range(args.proofs)],
        "per_layer_seed": args.seeds[0],
        "per_layer": {},
    }
    record["agreement"] = _agreement(spec, record["proofs"])
    for workload in (w["name"] for w in spec["workloads"]):
        traced = _run(spec, workload, args.seeds[0], 1)
        record["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
