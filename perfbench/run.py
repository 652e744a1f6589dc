"""Benchmark entry point: one workload per process, or all three.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the workload runs closed-loop for ``--seconds`` (and
at least its scored ops) and reports the end-to-end metrics; its
``setup_s`` is the median over this process's own cold set-up and those
of two fresh ``--setup-only`` processes.  With ``--trace 1`` it runs a
fixed number of ops four times over, each pass from a fresh set-up on
the same inputs, the middle two with every layer span installed, and
reports per-layer figures per traced op plus the tracing overhead.  Every op is checked.  The last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metric names
and units are those of ``BENCHMARK.json``; before it come a table
(value, unit, sample count) and a provenance line.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cold_solve", "serve_warm", "live_update")
#: Cold set-ups per run: this process's own and ``SETUP_REPS - 1``
#: ``--setup-only`` children; ``setup_s`` is their median.
SETUP_REPS = 3
#: Whether each pass of a traced run installs the layer spans.
TRACE_PASSES = (False, True, True, False)


def _git_commit() -> str | None:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def _metrics(values: dict, kind: str) -> dict:
    """``values`` as ``{name: {value, unit}}``; names must match ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {entry["name"]: entry["unit"] for entry in spec}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {kind}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def _run_ops(workload, count: int | None, seconds: float | None):
    """Closed loop from op 0: *count* ops, or until *seconds* have
    passed and the workload's scored ops are done.

    Returns the op records and the peak RSS (MB) once the scored ops
    are done: every run reaches that point, while the ops after it vary
    in number with the host's speed, and so would the process's peak."""
    records = []
    peak_mb = None
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if len(records) >= count:
                break
        elif time.perf_counter() - start >= seconds and i >= workload.scored_ops:
            break
        records.append(workload.op(i))
        i += 1
        if i == workload.scored_ops:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, peak_mb


def _op_figures(records) -> dict:
    import numpy as np

    ms = np.array([r.seconds for r in records]) * 1e3
    return {
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_p90_ms": float(np.percentile(ms, 90)),
        "ops_per_s": len(records) / (ms.sum() / 1e3),
    }


def _cold_setups(args, count: int) -> list[float]:
    """``setup_s`` of *count* fresh processes, one after the other."""
    out = []
    for _ in range(count):
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--setup-only",
            ],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr[-2000:]}")
        out.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np  # (import cost belongs to set-up)

    import repro  # noqa: F401
    from checks import checker_selftest, ruler_selfcheck
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        setups = [time.perf_counter() - START]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        if args.trace:
            # Four passes over the same inputs, each from a fresh
            # set-up, untraced-traced-traced-untraced so that a steady
            # drift of the host's speed cancels out of the overhead.
            workload.scored_ops = 0
            tracer = Tracer()
            plain, traced = [], []
            for k, on in enumerate(TRACE_PASSES):
                if k:
                    workload.setup()
                if on:
                    tracer.install()
                    workload.tracer = tracer
                try:
                    done, _ = _run_ops(workload, workload.trace_ops, None)
                finally:
                    tracer.uninstall()
                    workload.tracer = None
                (traced if on else plain).extend(done)
            records = plain + traced
        else:
            records, peak_mb = _run_ops(workload, None, args.seconds)
    finally:
        workload.close()
    workload.finish(records)

    if args.trace:
        traced_s = sum(r.seconds for r in traced)
        values = layer_metrics(tracer, len(traced), traced_s)
        # Untraced ops/s over traced ops/s, on the same ops.
        values["trace.overhead_ratio"] = traced_s / sum(r.seconds for r in plain)
        metrics = _metrics(values, "per_layer")
        samples = {name: len(traced) for name in metrics}
    else:
        setups += _cold_setups(args, SETUP_REPS - 1)
        revenue = [r.revenue for r in records if r.revenue is not None]
        values = {
            "setup_s": statistics.median(setups),
            **_op_figures(records),
            "ok_ratio": sum(1 for r in records if not r.failures) / len(records),
            "revenue_holdout": float(np.mean(revenue)),
            "peak_rss_mb": peak_mb,
        }
        metrics = _metrics(values, "end_to_end")
        samples = {name: len(records) for name in metrics}
        samples.update(setup_s=len(setups), revenue_holdout=len(revenue), peak_rss_mb=1)

    failed = [r for r in records if r.failures]
    accepted = checker_selftest()
    ruler = ruler_selfcheck()
    correct = not failed and not accepted and ruler["ok"]
    info = provenance(workload, args)
    info.update(
        setups_s=setups,
        checker_selftest="ok" if not accepted else f"accepted infeasible: {accepted}",
        ruler_selfcheck=ruler,
        first_failures=[r.failures for r in failed[:3]],
    )

    print(f"# {workload.name}  seed={args.seed}  trace={args.trace}  correct={correct}")
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']:8s} n={samples[name]}")
    print(json.dumps({"provenance": info}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def provenance(workload, args) -> dict:
    import importlib.util
    import platform

    import numpy as np

    from repro.rrset.kernels import resolve_kernel
    from spans import LAYER_MAP
    from workloads import WORKLOADS

    return {
        "host": {
            "nproc": os.cpu_count(),
            "numba": importlib.util.find_spec("numba") is not None,
            "kernel": resolve_kernel("auto"),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {name: cls.why for name, cls in WORKLOADS.items()},
        "layer_map": LAYER_MAP,
    }


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=600,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(child.stderr)
            return 1
        code |= child.returncode != 0
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return int(code)


def main(argv=None) -> int:
    if os.environ.get("MALLOC_ARENA_MAX") != "1":
        # One malloc arena: with the default per-thread arenas, the
        # peak RSS of the threaded serve workload moved by 25% from run
        # to run with where freed memory happened to sit.
        args = sys.argv[1:] if argv is None else list(argv)
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *args],
            {**os.environ, "MALLOC_ARENA_MAX": "1"},
        )
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time the imports and one set-up, print them as JSON and exit "
        "(the runs that setup_s takes its median over)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.setup_only:
            parser.error("--setup-only needs one workload")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
