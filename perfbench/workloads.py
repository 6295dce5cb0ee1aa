"""The benchmark's three workloads: their inputs, one measured round, and the
checks on a round's outputs.

Each workload is driven through the program's own entry points only:
`triagesim.cli.main` for estimate, compare and sweep, and
`triagesim.simulator.run_replications` for the preemptive discipline, which
the CLI cannot select. A round is a fixed amount of work; every round of a
run repeats the same operations on the same inputs, so its outputs must come
out byte-identical each time.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import statistics
from datetime import timedelta
from pathlib import Path

from hooks import recording, wrapped
from triagesim import DeviceOperatingPoint, QueueDiscipline, WorkflowParams, cli, simulator
from triagesim.oracle import analytic_time_savings
from triagesim.paramfile import empty_document, save_parameters
from triagesim.synthetic import SyntheticSpec, generate_corpus

# Family-wise false-alarm rate of a statistical check, per run. The
# benchmark is run many times with fresh seeds, so a check that fails on one
# seed in a few thousand would read as a broken program.
FAMILY_ALPHA = 1e-5

# --------------------------------------------------------------------------
# logs-year: a year of synthetic logs through estimate, then compare.

# The closure mix of acceptance criterion 6: with the default 4% of
# pe_positive closures, each resident's pe fit rests on about 800 gaps and the
# class mean strays up to 4.5% from its input (seed 504), too near the 5%
# tolerance for a check that must hold on every seed.
LOGS_SPEC = {"n_days": 365, "readers_per_day": 10, "closure_mix": (0.10, 0.18, 0.72)}
LOGS_CONFIG = (
    "device_tpf: 0.906\n"
    "device_specificity: 0.899\n"
    "interarrival_bin_minutes: 2.0\n"
)
# Relative tolerance of the recovered means against the generator's inputs.
RECOVERY_TOLERANCE = 0.05

# --------------------------------------------------------------------------
# reference-pair: the paper's two studied points under preemptive priority.

REFERENCE_PARAMS = {
    "prevalence": 0.00319,
    "n_radiologists": 3,
    "read_time_diseased": 12.1,
    "read_time_nondiseased_effective": 6.15,
    "tpf": 0.906,
    "fpf_adjusted": 0.00206,
}
# (name, mean inter-arrival, trials, paper's 95% range). The work-hour
# per-trial saving is skewed to the right (sd 4.5 min, trials up to 57 min
# at seed 42), so its mean needs 16 trials to stay inside the range on all
# but about one seed in 10^5; the off-hour point needs 8.
REFERENCE_POINTS = (
    ("work", 2.17, 16, (23.2, 38.1)),
    ("off", 3.19, 8, (1.76, 2.58)),
)
REFERENCE_PATIENTS = 100_000

# --------------------------------------------------------------------------
# staffing-grid: non-preemptive sweeps with equal read-time means.

GRID_READ_TIME = 6.0
GRID_PARAMS = {"prevalence": 0.05, "tpf": 0.906, "fpf_adjusted": 0.02}
GRID_RADIOLOGISTS = (2, 4, 8, 16)
# Inter-arrival mean times c: utilisation 6.0 / base, that is 1.2
# (infeasible), 0.902, 0.8 and 0.698 at every reader count. One sweep per
# reader count keeps every feasible point at moderate to high load: a single
# cross product from 2 to 16 readers would hold points at 16 readers where
# no exam ever waits, and a saving that is 0 in every trial has no spread
# to test against the oracle.
GRID_LOAD_BASES = (5.0, 6.65, 7.5, 8.6)
GRID_TRIALS = 20
GRID_PATIENTS = 4_000
GRID_BURN_IN = 400
# The |t| bound of the Cobham check per load base, that is per utilisation
# level, so that each of the 12 feasible rows fails by chance with
# probability FAMILY_ALPHA / 12. The per-trial saving is skewed to the right,
# so a 20-trial sample that misses the rare long busy periods has a low mean
# and a small sd, and Student's bound for that rate (7.16) is exceeded far
# more often than it says (about 1e-4 per point at utilisation 0.9). These
# bounds come from resampling 800 trials of every point
# (perfbench/grid_bounds.py): the largest over the reader counts (11.45,
# 10.11 and 10.22), rounded up to a whole number.
GRID_T_BOUNDS = {6.65: 12.0, 7.5: 11.0, 8.6: 11.0}


# --------------------------------------------------------------------------
# inputs (run in a process of their own, see child.py)


def make_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the input files the measured phase reads into workdir. The
    simulation workloads take the seed as the simulation's master seed, which
    the measuring process is given directly."""
    if workload == "logs-year":
        spec = SyntheticSpec(seed=seed, **LOGS_SPEC)
        generate_corpus(workdir, spec)
        boundary = spec.start_date + timedelta(days=spec.boundary)
        (workdir / "config.yaml").write_text(
            f"boundary_date: {boundary.isoformat()}\n" + LOGS_CONFIG
        )
    elif workload == "reference-pair":
        pass  # no input files: the parameters are the paper's
    elif workload == "staffing-grid":
        doc = empty_document()
        doc["prevalence"] = GRID_PARAMS["prevalence"]
        doc["read_time_diseased"] = GRID_READ_TIME
        doc["effective_nondiseased_read_time"] = GRID_READ_TIME
        doc["device"] = {
            "tpf": GRID_PARAMS["tpf"],
            "specificity": None,
            "fpf_adjusted": GRID_PARAMS["fpf_adjusted"],
        }
        save_parameters(doc, workdir / "params.json")
    else:
        raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# rounds


@dataclasses.dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    detail: object = None


class LogsYear:
    """estimate and then compare on a year of exam and closure logs."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir  # the corpus was generated from the seed
        self.truth = json.loads((workdir / "truth.json").read_text())
        self.out = workdir / "out"
        # Every data row that estimate (both logs) and compare (exam log) read.
        self.items = 2 * self.truth["exam_log"]["n_rows"] + self.truth["closure_log"]["n_rows"]

    def run_round(self) -> RoundResult:
        logs = ["--exam-log", str(self.workdir / "exam_log.csv")]
        shared = ["--config", str(self.workdir / "config.yaml"), "--out", str(self.out)]
        result = RoundResult()
        for argv in (
            ["estimate", *logs, "--closure-log", str(self.workdir / "closure_log.csv"), *shared],
            ["compare", *logs, *shared],
        ):
            result.attempted += 1
            if cli.main(argv) != 0:
                result.failed += 1
        return result

    def outputs(self, result: RoundResult) -> bytes:
        names = ("params.json", "compare.csv", "compare_meta.json")
        return b"".join((self.out / name).read_bytes() for name in names)

    def check(self, result: RoundResult) -> list[str]:
        self.margins = {}  # the checked statistics, reported with the run
        doc = json.loads((self.out / "params.json").read_text())
        with open(self.out / "compare.csv", newline="") as handle:
            compare = {row["cohort"]: row for row in csv.DictReader(handle)}
        spec, truth = self.truth["spec"], self.truth
        problems = []
        recovered = {
            "work inter-arrival": (doc["interarrival"]["work"]["mean"], spec["work_interarrival"]),
            "off inter-arrival": (doc["interarrival"]["off"]["mean"], spec["off_interarrival"]),
            "read time pe_positive": (doc["read_time"]["pe_positive"]["mean"], spec["read_mean_pe"]),
            "read time non_pe_positive": (doc["read_time"]["non_pe_positive"]["mean"], spec["read_mean_npp"]),
            "read time non_chest_ct": (doc["read_time"]["non_chest_ct"]["mean"], spec["read_mean_ncct"]),
            "effective non-diseased read time": (
                doc["effective_nondiseased_read_time"],
                truth["expected"]["effective_nondiseased_read_time"],
            ),
        }
        self.margins["worst_recovery_error"] = max(
            abs(got - want) / want for got, want in recovered.values()
        )
        for name, (got, want) in recovered.items():
            if abs(got - want) > RECOVERY_TOLERANCE * want:
                problems.append(f"{name} {got:.4f} not within 5% of {want}")
        exam_diag = doc["diagnostics"]["exam_log"]
        closure_diag = doc["diagnostics"]["closure_log"]
        exact = {
            "exam rows": (exam_diag["n_rows"], truth["exam_log"]["n_rows"]),
            "negative-TAT exclusions": (
                exam_diag["n_excluded_negative_tat"], truth["exam_log"]["n_negative_tat"]
            ),
            "diseased exams": (doc["counts"]["n_diseased"], truth["exam_log"]["n_positive_retained"]),
            "closure rows": (closure_diag["n_rows"], truth["closure_log"]["n_rows"]),
            "closure rows per class": (closure_diag["per_class"], truth["closure_log"]["per_class"]),
            "prevalence": (doc["prevalence"], truth["expected"]["prevalence"]),
        }
        for name, (got, want) in exact.items():
            if got != want:
                problems.append(f"{name}: {got} != generator's {want}")
        # TATs are exponential with means tat_mean_pre / tat_mean_post, so the
        # standard error of the observed shift follows from the counts alone.
        pre_mean, post_mean = spec["tat_mean_pre"], spec["tat_mean_post"]
        shift = truth["expected"]["tat_shift"]
        z_bound = statistics.NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * len(compare)))
        n_diseased = 0
        for cohort, row in sorted(compare.items()):
            n_pre, n_post = int(row["n_pre"]), int(row["n_post"])
            n_diseased += n_pre + n_post
            se = (pre_mean**2 / n_pre + post_mean**2 / n_post) ** 0.5
            z = (float(row["observed_savings"]) - shift) / se
            self.margins[f"shift_z_{cohort}"] = z
            if abs(z) > z_bound:
                problems.append(
                    f"compare {cohort}: shift {row['observed_savings']} is {z:.2f} SE "
                    f"from the generator's {shift} (bound {z_bound:.2f})"
                )
        if n_diseased != truth["exam_log"]["n_positive_retained"]:
            problems.append(
                f"compare counts {n_diseased} diseased exams, "
                f"generator {truth['exam_log']['n_positive_retained']}"
            )
        if set(compare) != {"work", "off"}:
            problems.append(f"compare cohorts {sorted(compare)}")
        return problems


class ReferencePair:
    """run_replications at the two studied points, preemptive-resume priority."""

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        base = dict(REFERENCE_PARAMS)
        device = DeviceOperatingPoint(tpf=base.pop("tpf"), fpf_adjusted=base.pop("fpf_adjusted"))
        self.params = {
            name: WorkflowParams(mean_interarrival=interarrival, device=device, **base)
            for name, interarrival, _, _ in REFERENCE_POINTS
        }
        self.items = sum(trials for _, _, trials, _ in REFERENCE_POINTS) * REFERENCE_PATIENTS * 2

    def run_round(self) -> RoundResult:
        result = RoundResult(detail={})
        for name, _, trials, _ in REFERENCE_POINTS:
            result.attempted += 1
            result.detail[name] = simulator.run_replications(
                self.params[name],
                trials,
                REFERENCE_PATIENTS,
                self.seed,
                workers=1,
                discipline=QueueDiscipline.AI_PRIORITY_PREEMPTIVE,
            )
        return result

    def outputs(self, result: RoundResult) -> bytes:
        estimates = {name: dataclasses.asdict(est) for name, est in result.detail.items()}
        return json.dumps(estimates, sort_keys=True).encode()

    def check(self, result: RoundResult) -> list[str]:
        self.margins = {}  # the checked statistics, reported with the run
        problems = []
        for name, _, trials, (low, high) in REFERENCE_POINTS:
            estimate = result.detail[name]
            self.margins[f"mean_saving_{name}"] = estimate.mean_savings
            if estimate.n_trials != trials or len(estimate.per_trial_savings) != trials:
                problems.append(f"{name}: {estimate.n_trials} trials, asked for {trials}")
            if not low <= estimate.mean_savings <= high:
                problems.append(
                    f"{name}: mean saving {estimate.mean_savings:.3f} min outside the "
                    f"paper's range [{low}, {high}]"
                )
        return problems


class StaffingGrid:
    """One `triagesim sweep` per reader count, non-preemptive priority."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.doc = json.loads((workdir / "params.json").read_text())
        self.sweeps = [
            (c, [round(base / c, 10) for base in GRID_LOAD_BASES]) for c in GRID_RADIOLOGISTS
        ]
        self.items = (
            sum(1 for c, grid in self.sweeps for x in grid if self.utilisation(x, c) < 1)
            * GRID_TRIALS * GRID_PATIENTS * 2
        )

    def mean_service(self) -> float:
        prevalence = self.doc["prevalence"]
        return (
            prevalence * self.doc["read_time_diseased"]
            + (1 - prevalence) * self.doc["effective_nondiseased_read_time"]
        )

    def utilisation(self, interarrival: float, c: int) -> float:
        return self.mean_service() / (c * interarrival)

    def run_round(self) -> RoundResult:
        # The CLI writes only each point's mean and range; the oracle check
        # needs the per-trial savings, so the estimates the sweep computes
        # are recorded on their way back to it.
        result = RoundResult(detail=[])
        with wrapped(cli, "run_replications", recording(result.detail)):
            self._sweeps(result)
        return result

    def _sweeps(self, result: RoundResult) -> None:
        for c, grid in self.sweeps:
            argv = [
                "sweep",
                "--params", str(self.workdir / "params.json"),
                "--interarrival", ",".join(repr(x) for x in grid),
                "--radiologists", str(c),
                "--trials", str(GRID_TRIALS),
                "--patients", str(GRID_PATIENTS),
                "--burn-in", str(GRID_BURN_IN),
                "--seed", str(self.seed),
                "--workers", "1",
                "--out", str(self.workdir / f"sweep_c{c}"),
            ]
            result.attempted += 1
            if cli.main(argv) != 0:
                result.failed += 1

    def outputs(self, result: RoundResult) -> bytes:
        names = ("sweep.csv", "sweep_meta.json")
        return b"".join(
            (self.workdir / f"sweep_c{c}" / name).read_bytes() for c, _ in self.sweeps for name in names
        )

    def check(self, result: RoundResult) -> list[str]:
        self.margins = {}  # the checked statistics, reported with the run
        estimates = result.detail
        rows = []
        for c, _ in self.sweeps:
            with open(self.workdir / f"sweep_c{c}" / "sweep.csv", newline="") as handle:
                rows += list(csv.DictReader(handle))
        problems = []
        expected_rows = [(x, c) for c, grid in self.sweeps for x in grid]
        if [(float(r["interarrival"]), int(r["n_radiologists"])) for r in rows] != expected_rows:
            problems.append("sweep rows do not match the requested grid")
            return problems
        feasible = [r for r in rows if r["feasible"] == "true"]
        if len(feasible) != len(estimates):
            problems.append(f"{len(feasible)} feasible rows but {len(estimates)} simulated points")
            return problems
        t_bounds = {
            (round(base / c, 10), c): bound for base, bound in GRID_T_BOUNDS.items() for c, _ in self.sweeps
        }
        device = DeviceOperatingPoint(tpf=GRID_PARAMS["tpf"], fpf_adjusted=GRID_PARAMS["fpf_adjusted"])
        for row in rows:
            x, c = float(row["interarrival"]), int(row["n_radiologists"])
            should = "true" if self.utilisation(x, c) < 1 else "false"
            if row["feasible"] != should:
                problems.append(f"ia={x} c={c}: feasible={row['feasible']}, utilisation says {should}")
        for row, estimate in zip(feasible, estimates):
            x, c = float(row["interarrival"]), int(row["n_radiologists"])
            if row["mean_savings"] != format(estimate.mean_savings, ".10g"):
                problems.append(
                    f"ia={x} c={c}: table {row['mean_savings']} != simulated {estimate.mean_savings}"
                )
            params = WorkflowParams(
                prevalence=GRID_PARAMS["prevalence"],
                mean_interarrival=x,
                n_radiologists=c,
                read_time_diseased=GRID_READ_TIME,
                read_time_nondiseased_effective=GRID_READ_TIME,
                device=device,
            )
            analytic = analytic_time_savings(params, GRID_READ_TIME)
            se = statistics.stdev(estimate.per_trial_savings) / len(estimate.per_trial_savings) ** 0.5
            t = (estimate.mean_savings - analytic) / se if se > 0 else float("inf")
            t_bound = t_bounds[(x, c)]
            self.margins["worst_abs_t_share_of_bound"] = max(
                self.margins.get("worst_abs_t_share_of_bound", 0.0), abs(t) / t_bound
            )
            if not abs(t) <= t_bound:
                problems.append(
                    f"ia={x} c={c}: saving {estimate.mean_savings:.4f} vs Cobham {analytic:.4f}, "
                    f"t={t:.2f} (bound {t_bound:.2f})"
                )
        return problems


WORKLOADS = {"logs-year": LogsYear, "reference-pair": ReferencePair, "staffing-grid": StaffingGrid}
