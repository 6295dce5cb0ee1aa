"""CPU-time benchmark of triagesim on three workloads.

    python3 perfbench/run.py --workload logs-year --seed 1 --seconds 14 --trace 0

Run from the root of a checkout (the program is imported from `src/`).
Workloads:

* logs-year       `triagesim estimate` then `compare` on a year of synthetic logs
* reference-pair  `run_replications` at the paper's two studied points,
                  preemptive-resume AI priority, 3 readers, 100,000 patients
* staffing-grid   `triagesim sweep` at 2 to 16 readers, checked against Cobham

Set-up (importing triagesim and generating the inputs) runs in fresh child
processes; the measured phase runs in one more child, which repeats whole
rounds of the workload until their CPU time reaches --seconds. Every time is
process CPU time, user plus system, which other tenants of a shared machine
move less than wall time. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("logs-year", "reference-pair", "staffing-grid")
# Set-up repetitions per run; setup_s is their median. A year corpus costs
# about 12 CPU s to generate, so logs-year sets up once per run.
SETUP_REPEATS = {"logs-year": 1, "reference-pair": 3, "staffing-grid": 3}
# A run ends within 180 s: the children share this budget.
RUN_BUDGET_S = 170
# The program runs single-threaded: BLAS and OpenMP pools pinned to 1.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def steal_seconds() -> float | None:
    """Machine-wide hypervisor steal time so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(args: list[str], env: dict, log: Path, deadline: float) -> None:
    with open(log, "a", encoding="utf-8") as err:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), *args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{tail}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    root = Path.cwd()
    if not (root / "src" / "triagesim" / "__init__.py").is_file():
        print("perfbench: run from the root of a triagesim checkout (no src/triagesim here)", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in THREAD_ENV})
    workdir = BENCH_DIR / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    results = BENCH_DIR / "results"
    wall_start, steal_start = time.perf_counter(), steal_seconds()
    deadline = wall_start + RUN_BUDGET_S
    try:
        workdir.mkdir(parents=True)
        log = workdir / "children.log"
        setups = []
        for _ in range(SETUP_REPEATS[args.workload]):
            before = children_cpu()
            run_child(["setup", args.workload, str(args.seed), str(workdir)], env, log, deadline)
            setups.append(children_cpu() - before)
        result_path = workdir / "result.json"
        trace_out = results / f"trace-{args.workload}-s{args.seed}.json"
        run_child(
            ["measure", args.workload, str(args.seed), str(workdir), str(args.seconds), str(args.trace),
             str(result_path), str(trace_out)],
            env,
            log,
            deadline,
        )
        summary = json.loads(result_path.read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_end = steal_seconds()

    plain = [r["cpu_s"] for r in summary["rounds"] if r["kind"] == "plain"]
    cpu_s = statistics.median(plain)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in summary["per_layer"].items()}
    else:
        metrics = {
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "items_per_cpu_s": {"value": summary["items_per_round"] / cpu_s, "unit": "items/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    steal = None if steal_start is None or steal_end is None else steal_end - steal_start
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": time.perf_counter() - wall_start,
        "steal_s": steal,
        "setup_cpu_s": setups,
        "rounds": summary["rounds"],
        "items_per_round": summary["items_per_round"],
        "checked": summary["margins"],
        **summary["facts"],
    }
    print("context " + json.dumps(context))
    print(f"operations attempted={summary['attempted']} failed={summary['failed']}")
    for problem in summary["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_per_cpu_s"):
        return name.rsplit(".", 1)[1].split("_per_")[0] + "/s"
    if name.endswith("cpu_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
