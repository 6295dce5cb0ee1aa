"""Calibrates the staffing-grid check's |t| bounds by resampling.

    python3 perfbench/grid_bounds.py

Run from the root of a checkout; it takes about 10 CPU minutes. For every
feasible grid point it simulates TRIALS trials of the benchmark's protocol
(4,000 patients, burn-in 400, non-preemptive priority), then draws 20-trial
samples from them with replacement and computes t = (mean - population
mean) / (sd / sqrt(20)) as the check does. Student's t does not hold here:
the per-trial saving is skewed to the right, so a sample that misses the
rare long busy periods has a low mean and a small sd, and |t| exceeds
Student's quantile far more often than it says. For each point the script
prints the skew, the share of resampled |t| above Student's bound, and the
|t| that resampling exceeds with probability FAMILY_ALPHA / rows:
GRID_T_BOUNDS takes, per load level, the largest of these over the reader
counts, rounded up.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy import stats

sys.path.insert(0, str(Path.cwd() / "src"))

from triagesim import DeviceOperatingPoint, WorkflowParams, simulator  # noqa: E402
from workloads import (  # noqa: E402
    FAMILY_ALPHA,
    GRID_BURN_IN,
    GRID_LOAD_BASES,
    GRID_PARAMS,
    GRID_PATIENTS,
    GRID_RADIOLOGISTS,
    GRID_READ_TIME,
    GRID_TRIALS,
)

TRIALS = 800
RESAMPLES = 10_000_000
CHUNK = 250_000


def resampled_abs_t(savings: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    centre = savings.mean()
    out = []
    for _ in range(RESAMPLES // CHUNK):
        sample = savings[rng.integers(0, savings.size, size=(CHUNK, GRID_TRIALS))]
        se = sample.std(axis=1, ddof=1) / GRID_TRIALS**0.5
        out.append(np.abs(sample.mean(axis=1) - centre) / se)
    return np.concatenate(out)


def main() -> int:
    device = DeviceOperatingPoint(tpf=GRID_PARAMS["tpf"], fpf_adjusted=GRID_PARAMS["fpf_adjusted"])
    feasible = [base for base in GRID_LOAD_BASES if GRID_READ_TIME / base < 1]
    rows = len(feasible) * len(GRID_RADIOLOGISTS)
    tail = FAMILY_ALPHA / (2 * rows)
    student = stats.t.ppf(1 - tail, GRID_TRIALS - 1)
    rng = np.random.default_rng(0)
    print(f"{rows} rows; per-point two-sided rate {2 * tail:.2g}; Student's bound {student:.2f}")
    for base in feasible:
        worst = 0.0
        for c in GRID_RADIOLOGISTS:
            params = WorkflowParams(
                prevalence=GRID_PARAMS["prevalence"],
                mean_interarrival=round(base / c, 10),
                n_radiologists=c,
                read_time_diseased=GRID_READ_TIME,
                read_time_nondiseased_effective=GRID_READ_TIME,
                device=device,
            )
            estimate = simulator.run_replications(
                params, TRIALS, GRID_PATIENTS, 2024, burn_in=GRID_BURN_IN
            )
            savings = np.asarray(estimate.per_trial_savings)
            t = resampled_abs_t(savings, rng)
            bound = float(np.quantile(t, 1 - 2 * tail))
            worst = max(worst, bound)
            print(
                f"utilisation {GRID_READ_TIME / base:.3f} c={c:2d}: skew {stats.skew(savings):.2f}, "
                f"P(|t| > {student:.2f}) = {np.mean(t > student):.1e}, bound {bound:.2f}",
                flush=True,
            )
        print(f"utilisation {GRID_READ_TIME / base:.3f}: largest bound {worst:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
