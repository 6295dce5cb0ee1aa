"""Steadiness of the benchmark: repeated runs, median and quartiles.

    python3 perfbench/steady.py --runs 10 [--workloads logs-year,...]

Runs every workload --runs times in each of two sets, each run with a seed
of its own, at the run length of BENCHMARK.json, taking the sets' runs
alternately (set 1 run 1, set 2 run 1, set 1 run 2, ...). Prints, per
workload and end-to-end metric, each set's median and quartiles and the
spread (third minus first quartile, as a share of the median), the shift of
the second median from the first (as a share of the first), and the failed
share in each set. Every spread and every shift must stay within the
metric's bound in BENCHMARK.json, the failed shares must be equal, and every
run correct; the exit code is 1 otherwise. The raw results go to
perfbench/results/steady.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2
# Run i of set s gets seed FIRST_SEED + s * runs + i.
FIRST_SEED = 1000
OUT = BENCH_DIR / "results" / "steady.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[0].removeprefix("context "))
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="logs-year,reference-pair,staffing-grid")
    parser.add_argument("--runs", type=int, default=10, help="runs per set, at least 10")
    args = parser.parse_args()
    if args.runs < 10:
        parser.error("--runs must be at least 10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for i in range(args.runs):
        for s in range(SETS):
            for workload in workloads:
                seed = FIRST_SEED + s * args.runs + i
                result = run_once(workload, seed, seconds)
                runs[workload][s].append(result)
                values = " ".join(
                    f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
                )
                print(f"set {s + 1} run {i + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values} "
                      f"wall={result['context']['wall_s']:.1f}s steal={result['context']['steal_s']}",
                      flush=True)

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        sets = runs[workload]
        failed_shares = []
        for s, results in enumerate(sets):
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            correct = all(r["correct"] for r in results)
            ok &= correct
            failed_shares.append(Fraction(failed, attempted))
            print(f"  set {s + 1}: {len(results)} runs, correct={correct}, failed {failed}/{attempted}")
        if failed_shares[0] != failed_shares[1]:
            ok = False
            print("  failed shares differ between the sets")
        for name, bound in bounds.items():
            medians = []
            for s, results in enumerate(sets):
                median, q1, q3, share = spread([r["metrics"][name]["value"] for r in results])
                medians.append(median)
                flag = "" if share <= bound / 3 else "  <-- above a third of its bound"
                ok &= share <= bound
                print(f"  {name:16s} set {s + 1}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {share:.3f} (bound {bound}){flag}")
            shift = (medians[1] - medians[0]) / medians[0]
            ok &= abs(shift) <= bound
            print(f"  {name:16s} shift of set 2 from set 1: {shift:+.3f} (bound {bound})")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"\nwrote {OUT}; {'within' if ok else 'OUTSIDE'} the bounds of BENCHMARK.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
