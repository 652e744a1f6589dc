"""Measure the benchmark's own run-to-run spread and record it.

    python3 perfbench/steady.py --seeds 10 --out perfbench/steadiness.json
    python3 perfbench/steady.py --workloads serve_warm --seeds 5

Runs ``run.py`` once per (workload, seed), one run at a time, on seeds
``1..N`` with the ``run_seconds`` of ``BENCHMARK.json``, and reports for
every end-to-end metric its median, quartiles
(``statistics.quantiles(n=4)``) and spread ``(q3 - q1) / median`` next
to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs, walls = [], []
        for seed in range(1, args.seeds + 1):
            t0 = time.perf_counter()
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=300,
            )
            walls.append(time.perf_counter() - t0)
            if child.returncode != 0:
                sys.stderr.write(child.stdout[-2000:] + child.stderr[-2000:])
                return 1
            lines = child.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1])["metrics"])
            report.setdefault("host", json.loads(lines[-2])["provenance"]["host"])
        metrics = {}
        for name in runs[0]:
            entry = summarize([run[name]["value"] for run in runs])
            entry["bound"] = bounds.get(name)
            metrics[name] = entry
            flag = ""
            if entry["bound"] and name != "setup_s" and entry["spread"] > entry["bound"] / 3:
                flag = "  > bound/3"
            print(
                f"{workload:12s} {name:16s} median {entry['median']:12.5g} "
                f"spread {entry['spread']:.4f} bound {entry['bound']}{flag}"
            )
        report["workloads"][workload] = {
            "runs": len(runs),
            "wall_s": summarize(walls),
            "metrics": metrics,
        }
        print(f"{workload:12s} wall per run: median {statistics.median(walls):.1f} s")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
