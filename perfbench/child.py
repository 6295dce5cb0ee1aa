"""The benchmark's two child processes.

    python3 perfbench/child.py setup WORKLOAD SEED WORKDIR
    python3 perfbench/child.py measure WORKLOAD SEED WORKDIR SECONDS TRACE RESULT TRACE_OUT

`setup` imports the program and writes a workload's inputs. `measure` runs
rounds of the workload until their CPU time reaches SECONDS, checks the
outputs and writes a JSON summary to RESULT. With TRACE 1 it alternates
untraced and traced rounds, checks that both give byte-identical outputs and
writes the traced spans to TRACE_OUT. run.py starts both; the measured phase
runs in a process of its own so that its peak memory is its own.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_inputs


def cpu_now() -> float:
    """User plus system CPU seconds of this process (all threads) and of
    its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(workload: str, seed: int, workdir: Path, seconds: float, traced: bool, trace_out: Path) -> dict:
    runner = WORKLOADS[workload](workdir, seed)
    if traced:
        from spans import Tracer, per_layer
    rounds, tracers, digests = [], [], set()
    attempted = failed = 0
    spent = 0.0
    last = None
    # Traced runs alternate untraced and traced rounds and end on a traced one.
    while not rounds or spent < seconds or (traced and len(rounds) % 2):
        kind = "traced" if traced and len(rounds) % 2 else "plain"
        if kind == "traced":
            tracer = Tracer()
            with tracer:
                start = cpu_now()
                result = tracer.span("round", runner.run_round)
                used = cpu_now() - start
            tracers.append(tracer)
        else:
            start = cpu_now()
            result = runner.run_round()
            used = cpu_now() - start
        spent += used
        rounds.append({"kind": kind, "cpu_s": used})
        attempted += result.attempted
        failed += result.failed
        if not result.failed:
            digests.add(hashlib.sha256(runner.outputs(result)).hexdigest())
            last = result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if last is None:
        problems = ["no round ran without a failed operation, so no output was checked"]
    else:
        problems = runner.check(last)
    if len(digests) > 1:
        problems.append(f"rounds gave {len(digests)} different outputs on the same inputs")
    summary = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "margins": getattr(runner, "margins", {}),
        "items_per_round": runner.items,
        "peak_rss_mb": peak_rss_mb,
        "facts": machine_facts(),
    }
    if traced:
        layers = [per_layer(t.spans, t.self_times()) for t in tracers]
        # Counts are the same in every traced round; keep them whole.
        merged = {
            key: (statistics.median_low if isinstance(layers[0][key], int) else statistics.median)(
                [m[key] for m in layers]
            )
            for key in layers[0]
        }
        plain = statistics.median(r["cpu_s"] for r in rounds if r["kind"] == "plain")
        traced_cpu = statistics.median(r["cpu_s"] for r in rounds if r["kind"] == "traced")
        merged["trace.round_cpu_s"] = traced_cpu
        merged["trace.overhead_cpu_s"] = traced_cpu - plain
        summary["per_layer"] = merged
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps([t.dump() for t in tracers]) + "\n")
    return summary


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        workload, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
        make_inputs(workload, seed, workdir)
        return 0
    if mode == "measure":
        workload, seed, workdir, seconds, trace, result, trace_out = argv[1:8]
        summary = measure(workload, int(seed), Path(workdir), float(seconds), trace == "1", Path(trace_out))
        Path(result).write_text(json.dumps(summary) + "\n")
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
