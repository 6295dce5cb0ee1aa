"""CPU cost of one replay of 100,000 exams, per discipline, flag share and
reader count, for two checkouts of triagesim measured side by side.

    python tools/bench_kernel.py BASE_SRC NEW_SRC > regimes.json

BASE_SRC and NEW_SRC are the ``src`` directories of the two checkouts. Both
packages are imported into one process under different names. For each
(flag share, readers) regime one stream is drawn at utilisation 0.9, and
each discipline's replay of it is timed with ``time.process_time``, the two
checkouts in turn, alternating which goes first, RUNS times. The result,
printed to stdout as JSON, is each regime's median CPU seconds per checkout
and the number of runs in which the new checkout was faster. It holds the
method, machine and ``regimes`` sections of BENCH_kernel.json; that file's
``base``, ``new``, ``perfbench`` and ``claim`` sections come from
``perfbench/run.py`` runs and are not written here.
"""
import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

N_EXAMS = 100_000
RUNS = 15
RHO = 0.9
FLAG_SHARES = (0.005, 0.064, 0.42)
READERS = (1, 3, 16)
PREVALENCE, TPF = 0.00319, 0.906
READ_DISEASED, READ_NONDISEASED = 12.1, 6.15


def load(name, src):
    """Import the triagesim package under src as a package called name."""
    init = os.path.join(src, "triagesim", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module(f"{name}.simulator")


def replay_cpu(package, simulator, stream, n_servers, discipline):
    own = package.QueueDiscipline(discipline.value)
    t0 = time.process_time()
    simulator.replay_stream(stream, n_servers, own)
    return time.process_time() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("new_src")
    args = parser.parse_args()
    sides = {"base": load("base_triagesim", args.base_src), "new": load("new_triagesim", args.new_src)}
    package, simulator = sides["new"]
    mean_read = PREVALENCE * READ_DISEASED + (1 - PREVALENCE) * READ_NONDISEASED
    regimes = {}
    for i, share in enumerate(FLAG_SHARES):
        fpf = (share - PREVALENCE * TPF) / (1 - PREVALENCE)
        for c in READERS:
            params = package.WorkflowParams(
                PREVALENCE, mean_read / (c * RHO), c, READ_DISEASED, READ_NONDISEASED,
                package.DeviceOperatingPoint(TPF, fpf),
            )
            stream = simulator.generate_stream(params, N_EXAMS, package.trial_stream(12, 10 * i + c))
            for discipline in package.QueueDiscipline:
                cpu = {"base": [], "new": []}
                for r in range(RUNS):
                    for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                        cpu[side].append(replay_cpu(*sides[side], stream, c, discipline))
                base, new = statistics.median(cpu["base"]), statistics.median(cpu["new"])
                regimes[f"{discipline.value}/share{share}/c{c}"] = {
                    "base_cpu_s": round(base, 4),
                    "new_cpu_s": round(new, 4),
                    "new_over_base": round(new / base, 3),
                    "new_faster_runs": sum(n < b for b, n in zip(cpu["base"], cpu["new"])),
                }
                print(discipline.value, share, c, regimes[f"{discipline.value}/share{share}/c{c}"],
                      file=sys.stderr)
    doc = {
        "method": (
            f"CPU s (time.process_time) of one replay_stream call on {N_EXAMS:,} exams per "
            f"discipline/flag share/readers, one stream per regime drawn by generate_stream at "
            f"utilisation {RHO}, prevalence {PREVALENCE}, read times {READ_DISEASED} and "
            f"{READ_NONDISEASED} min, TPF {TPF}. Both checkouts are imported into one process "
            f"and replay the same stream in turn, alternating which goes first; each figure is "
            f"the median of {RUNS} such runs, and new_faster_runs counts the runs the new "
            "checkout won"
        ),
        "runs": RUNS,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "regimes": regimes,
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
