"""Release acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
value at its stated tolerance. Reference predictions for the studied
workload: work-hours 29.6 minutes saved (95% trial range 23.2-38.1),
off-hours 2.10 minutes (1.76-2.58), both at 3 radiologists under the full
100 x 100,000-patient protocol. Both references are read against
preemptive-resume AI priority (a flagged exam interrupts an unflagged read
in progress), compared with FIFO on the same patient streams.
"""
import filecmp
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from triagesim import (
    DeviceOperatingPoint,
    PriorityLoad,
    QueueDiscipline,
    WorkflowParams,
    cli,
    erlang_c,
    mean_service_time,
    mmc_fifo_wait,
    mmc_preemptive_priority_wait,
    mmc_priority_wait,
    tat_summary,
    time_savings_test,
)
from triagesim.core import trial_stream
from triagesim.paramfile import empty_document, save_parameters
from triagesim.roc import fit_from_point, roc_tpf
from triagesim.simulator import batch_mean_se, generate_stream, replay_stream, run_replications
from triagesim.synthetic import SyntheticSpec, generate_corpus

SEED = 42

WORK_RANGE = (23.2, 38.1)
WORK_MEAN = 29.6
OFF_RANGE = (1.76, 2.58)
OFF_MEAN = 2.10
# The discipline under which the reference predictions are reproduced.
REFERENCE_DISCIPLINE = QueueDiscipline.AI_PRIORITY_PREEMPTIVE


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def studied_params(mean_interarrival: float) -> WorkflowParams:
    return WorkflowParams(
        prevalence=0.00319,
        mean_interarrival=mean_interarrival,
        n_radiologists=3,
        read_time_diseased=12.1,
        read_time_nondiseased_effective=6.15,
        device=DeviceOperatingPoint(tpf=0.906, fpf_adjusted=0.00206),
    )


def studied_params_doc(tmp_path):
    doc = empty_document()
    doc["prevalence"] = 0.00319
    doc["read_time_diseased"] = 12.1
    doc["effective_nondiseased_read_time"] = 6.15
    doc["device"] = {"tpf": 0.906, "specificity": 0.899, "fpf_adjusted": 0.00206}
    doc["counts"] = {
        "n_diseased": 1683,
        "n_queue_total": 527_234,
        "n_non_pe_positive": 9_569,
        "n_non_chest_ct": 515_982,
    }
    doc["interarrival"]["work"] = {"mean": 2.17, "sigma": 0.57, "range68": [1.60, 2.74]}
    path = tmp_path / "params.json"
    save_parameters(doc, path)
    return path


class TestCriterion1WorkHours:
    def test_full_protocol(self):
        estimate = run_replications(
            studied_params(2.17),
            100,
            100_000,
            SEED,
            workers=4,
            discipline=REFERENCE_DISCIPLINE,
        )
        mean = estimate.mean_savings
        in_range = WORK_RANGE[0] <= mean <= WORK_RANGE[1]
        within_15pct = abs(mean - WORK_MEAN) <= 0.15 * WORK_MEAN
        _report(
            "1 (work-hour prediction, full protocol)",
            in_range and within_15pct,
            f"mean savings {mean:.2f} min, trial range "
            f"[{estimate.range95[0]:.2f}, {estimate.range95[1]:.2f}]; "
            f"required in [{WORK_RANGE[0]}, {WORK_RANGE[1]}] and within 15% of {WORK_MEAN}",
        )

    def test_quick_protocol(self):
        estimate = run_replications(
            studied_params(2.17),
            20,
            20_000,
            SEED,
            workers=4,
            discipline=REFERENCE_DISCIPLINE,
        )
        mean = estimate.mean_savings
        _report(
            "1q (work-hour prediction, quick protocol)",
            abs(mean - WORK_MEAN) <= 0.30 * WORK_MEAN,
            f"mean savings {mean:.2f} min; required within 30% of {WORK_MEAN}",
        )


class TestCriterion2OffHours:
    def test_full_protocol(self):
        # The reference range is read against preemptive-resume priority.
        # Non-preemptive priority cannot reach it at these parameters:
        # Cobham's exact formula gives 1.40 minutes there, against 2.17
        # under preemptive-resume with the same common service mean.
        estimate = run_replications(
            studied_params(3.19),
            100,
            100_000,
            SEED,
            workers=4,
            discipline=REFERENCE_DISCIPLINE,
        )
        mean = estimate.mean_savings
        _report(
            "2 (off-hour prediction, full protocol)",
            OFF_RANGE[0] <= mean <= OFF_RANGE[1],
            f"mean savings {mean:.2f} min, trial range "
            f"[{estimate.range95[0]:.2f}, {estimate.range95[1]:.2f}]; "
            f"required in [{OFF_RANGE[0]}, {OFF_RANGE[1]}]",
        )

    def test_quick_protocol(self):
        estimate = run_replications(
            studied_params(3.19),
            20,
            20_000,
            SEED,
            workers=4,
            discipline=REFERENCE_DISCIPLINE,
        )
        mean = estimate.mean_savings
        _report(
            "2q (off-hour prediction, quick protocol)",
            abs(mean - OFF_MEAN) <= 0.40 * OFF_MEAN,
            f"mean savings {mean:.2f} min; required within 40% of {OFF_MEAN}",
        )


class TestCriterion3RocEndpoints:
    def sweep(self, n_points=11, trials=20, patients=20_000):
        curve = fit_from_point(0.906, 0.00206)
        base = studied_params(2.17)
        results = []
        for k in range(n_points):
            fpf = k / (n_points - 1)
            tpf = roc_tpf(curve, fpf)
            params = WorkflowParams(
                prevalence=base.prevalence,
                mean_interarrival=base.mean_interarrival,
                n_radiologists=base.n_radiologists,
                read_time_diseased=base.read_time_diseased,
                read_time_nondiseased_effective=base.read_time_nondiseased_effective,
                device=DeviceOperatingPoint(tpf=tpf, fpf_adjusted=fpf),
            )
            estimate = run_replications(params, trials, patients, SEED, workers=4)
            se = float(np.std(estimate.per_trial_savings, ddof=1) / np.sqrt(trials))
            results.append((fpf, estimate.mean_savings, se))
        return results

    def test_endpoints_and_unimodality(self):
        results = self.sweep()
        savings = [s for _, s, _ in results]
        ses = [se for _, _, se in results]
        zero_start = savings[0] == 0.0
        zero_end = abs(savings[-1]) <= max(2 * ses[-1], 1e-12)
        peak = int(np.argmax(savings))
        interior_peak = 0 < peak < len(savings) - 1 and savings[peak] > 5 * max(ses[peak], 1e-12)
        rises = all(
            savings[i + 1] >= savings[i] - 3 * (ses[i] + ses[i + 1]) for i in range(peak)
        )
        falls = all(
            savings[i + 1] <= savings[i] + 3 * (ses[i] + ses[i + 1])
            for i in range(peak, len(savings) - 1)
        )
        _report(
            "3 (ROC endpoints and unimodality)",
            zero_start and zero_end and interior_peak and rises and falls,
            f"savings at (0,0)={savings[0]:.3f}, at (1,1)={savings[-1]:.3f}, "
            f"peak {savings[peak]:.2f} min at point {peak}/{len(savings) - 1}",
        )


def _class_waits(discipline, burn, params, index):
    """One trial's mean waits of flagged and of unflagged exams after burn-in,
    and the number of each."""
    stream = generate_stream(params, 100_000, trial_stream(SEED, index))
    out = replay_stream(stream, params.n_radiologists, discipline)
    keep = slice(burn, None)
    wait, flagged = out.wait[keep], out.flagged[keep]
    return (wait[flagged].mean(), wait[~flagged].mean()), (flagged.sum(), (~flagged).sum())


def worst_class_wait_z(discipline, oracle, grid, first_point):
    """Largest |z| of simulated against analytic class waits over a grid.

    Mean class waits come from 16 independent 100,000-patient replications
    per point (burn-in 2000); the standard error comes from the spread of
    trial means, which stays honest where within-run batch means are still
    correlated. Class 1 is the flagged exams, with one service mean of 6.

    A class in which no exam waited in any trial has no spread to form a z
    from. It is held instead to a zero count at the same 3-sigma level: an
    arrival of class k waits at least when classes 1..k fill every reader,
    so its expected count of waits is at least n_k * ErlangC(c, Lambda_k / mu),
    and seeing none has probability at most exp(-that) under Poisson
    counting. That count must therefore stay below -ln(0.0027).
    """
    service_mean = 6.0
    mu = 1.0 / service_mean
    trials = 16
    burn = 2000
    points = []
    for point, (c, rho, flag_fraction) in enumerate(grid, start=first_point):
        lam = rho * c * mu
        params = WorkflowParams(
            prevalence=flag_fraction,
            mean_interarrival=1.0 / lam,
            n_radiologists=c,
            read_time_diseased=service_mean,
            read_time_nondiseased_effective=service_mean,
            device=DeviceOperatingPoint(tpf=1.0, fpf_adjusted=0.0),
        )
        points.append((point, params, (lam * flag_fraction, lam * (1 - flag_fraction))))
    # Every trial is seeded by its own (point, trial) key, so the trials fan
    # out to processes; map() returns them in order, which keeps each z
    # exactly what a serial loop gives.
    ctx = multiprocessing.get_context("forkserver")
    with ProcessPoolExecutor(max_workers=min(4, os.cpu_count() or 1), mp_context=ctx) as pool:
        results = list(
            pool.map(
                partial(_class_waits, discipline, burn),
                [params for _, params, _ in points for _ in range(trials)],
                [point * 1000 + t for point, _, _ in points for t in range(trials)],
            )
        )
    worst = 0.0
    for k, (_, params, rates) in enumerate(points):
        c = params.n_radiologists
        means = np.empty((trials, 2))
        counts = np.zeros(2)
        for t, (class_means, n) in enumerate(results[k * trials : (k + 1) * trials]):
            means[t] = class_means
            counts += n
        analytic = oracle(PriorityLoad(rates, mu, c))
        for col, expected in enumerate(analytic):
            sample = means[:, col]
            if sample.any():
                se = float(sample.std(ddof=1) / np.sqrt(trials))
                z = abs(float(sample.mean()) - expected) / se
            else:
                least_waits = counts[col] * erlang_c(c, sum(rates[: col + 1]) / mu)
                z = 0.0 if least_waits <= -np.log(0.0027) else np.inf
            worst = max(worst, z)
    return worst


class TestCriterion4OracleEquivalence:
    def test_cobham_grid(self):
        grid = [
            (c, rho, share)
            for c in (1, 2, 3)
            for rho in (0.3, 0.6, 0.9)
            for share in (0.01, 0.1, 0.5)
        ]
        worst = worst_class_wait_z(
            QueueDiscipline.AI_PRIORITY, mmc_priority_wait, grid, first_point=1
        )
        _report(
            "4 (simulator vs Cobham, 27-point grid)",
            worst <= 3.0,
            f"max |z| over 54 class waits = {worst:.2f}; required <= 3",
        )

    def test_preemptive_grid(self):
        grid = [
            (c, rho, share)
            for c in (1, 2, 3)
            for rho in (0.6, 0.9)
            for share in (0.01, 0.1, 0.5)
        ]
        worst = worst_class_wait_z(
            QueueDiscipline.AI_PRIORITY_PREEMPTIVE,
            mmc_preemptive_priority_wait,
            grid,
            first_point=101,
        )
        _report(
            "4c (simulator vs preemptive-resume waits, 18-point grid)",
            worst <= 3.0,
            f"max |z| over 36 class waits = {worst:.2f}; required <= 3",
        )

    def test_mm1_closed_form(self):
        params = WorkflowParams(
            prevalence=1.0,
            mean_interarrival=10.0,
            n_radiologists=1,
            read_time_diseased=6.0,
            read_time_nondiseased_effective=6.0,
            device=DeviceOperatingPoint(tpf=0.0, fpf_adjusted=0.0),
        )
        stream = generate_stream(params, 100_000, trial_stream(SEED, 999))
        out = replay_stream(stream, 1, QueueDiscipline.FIFO)
        expected = mmc_fifo_wait(0.1, 1.0 / 6.0, 1)
        se = batch_mean_se(out.wait)
        z = abs(float(out.wait.mean()) - expected) / se
        _report(
            "4b (M/M/1 FIFO closed form)",
            z <= 3.0,
            f"simulated Wq {out.wait.mean():.3f} vs analytic {expected:.3f}, |z|={z:.2f}",
        )


class TestCriterion5AdjustedFpf:
    def test_formula_values(self):
        from triagesim.estimation import adjusted_fpf

        at_ratio_48 = adjusted_fpf(0.899, 48, 1)
        no_out_of_scope = adjusted_fpf(0.899, 0, 1)
        ok = abs(at_ratio_48 - 0.00206) <= 5e-6 and no_out_of_scope == 1.0 - 0.899
        _report(
            "5 (adjusted FPF formula)",
            ok,
            f"ratio 48 -> {at_ratio_48:.6f} (target 0.00206 +- 5e-6); "
            f"ratio 0 -> {no_out_of_scope} (target exactly 1 - 0.899)",
        )


@pytest.fixture(scope="module")
def recovery_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("recovery")
    spec = SyntheticSpec(
        seed=11,
        n_days=120,
        readers_per_day=10,
        closures_per_reader_day=80,
        closure_mix=(0.10, 0.18, 0.72),
        boundary_day=60,
    )
    truth = generate_corpus(root, spec)
    config = root / "config.yaml"
    config.write_text(
        "boundary_date: 2024-03-01\n"
        "device_tpf: 0.906\n"
        "device_specificity: 0.899\n"
        "interarrival_bin_minutes: 2.0\n"
    )
    out = root / "est"
    code = cli.main(
        [
            "estimate",
            "--exam-log",
            str(root / "exam_log.csv"),
            "--closure-log",
            str(root / "closure_log.csv"),
            "--config",
            str(config),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "params.json").read_text())
    return doc, truth


class TestCriterion6EstimationRecovery:
    def test_parameter_recovery(self, recovery_run):
        doc, truth = recovery_run
        expected = truth["expected"]
        checks = {
            "work interarrival": (doc["interarrival"]["work"]["mean"], 2.17),
            "off interarrival": (doc["interarrival"]["off"]["mean"], 3.19),
            "read pe": (doc["read_time"]["pe_positive"]["mean"], 12.1),
            "read npp": (doc["read_time"]["non_pe_positive"]["mean"], 11.4),
            "read ncct": (doc["read_time"]["non_chest_ct"]["mean"], 6.1),
            "effective read": (
                doc["effective_nondiseased_read_time"],
                expected["effective_nondiseased_read_time"],
            ),
        }
        errors = {
            name: abs(got - want) / want for name, (got, want) in checks.items()
        }
        prevalence_exact = doc["prevalence"] == pytest.approx(
            expected["prevalence"], rel=1e-12
        )
        worst = max(errors, key=errors.get)
        _report(
            "6 (estimation recovery within 5%)",
            prevalence_exact and all(e <= 0.05 for e in errors.values()),
            f"worst relative error {errors[worst] * 100:.2f}% ({worst}); "
            f"prevalence exact={prevalence_exact}",
        )

    def test_fit_quality(self, recovery_run):
        doc, _ = recovery_run
        r2_work = doc["interarrival"]["work"]["r2_mean"]
        r2_off = doc["interarrival"]["off"]["r2_mean"]
        _report(
            "6b (inter-arrival fit quality)",
            r2_work >= 0.98 and r2_off >= 0.98,
            f"mean R2 work {r2_work:.4f}, off {r2_off:.4f}; required >= 0.98",
        )


class TestCriterion7FeasibilityBoundary:
    def test_sweep_marks_boundary(self, tmp_path):
        # 4,000 patients, so that each trial holds diseased exams to average
        # at the studied prevalence (0.32%); a trial without any fails the run.
        params_path = studied_params_doc(tmp_path)
        code = cli.main(
            [
                "sweep",
                "--params",
                str(params_path),
                "--interarrival",
                "1.25:4.0:0.25",
                "--radiologists",
                "3",
                "--trials",
                "2",
                "--patients",
                "4000",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        import csv as _csv

        with open(tmp_path / "sweep.csv", newline="") as handle:
            rows = {float(r["interarrival"]): r["feasible"] for r in _csv.DictReader(handle)}
        service = mean_service_time(studied_params(2.17))
        threshold = service / 3
        infeasible_ok = all(rows[x] == "false" for x in rows if x <= 2.0)
        feasible_ok = all(rows[x] == "true" for x in rows if x >= 2.25)
        boundary_ok = 2.0 < threshold <= 2.25
        _report(
            "7 (feasibility boundary)",
            infeasible_ok and feasible_ok and boundary_ok,
            f"rho=1 at inter-arrival {threshold:.4f} min; grid flips between 2.0 and 2.25",
        )


class TestCriterion8ObservedTatMachinery:
    def test_ci_coverage(self):
        rng = trial_stream(9090)
        true_mean = 45.0
        reps = 1000
        covered = 0
        for _ in range(reps):
            sample = rng.exponential(true_mean, 100)
            low, high = tat_summary(sample).ci95
            covered += low <= true_mean <= high
        rate = covered / reps
        _report(
            "8 (t-interval coverage on skewed TATs)",
            rate >= 0.93,
            f"coverage {rate:.3f} over {reps} repetitions; required >= 0.93",
        )

    def test_shift_detection_at_cohort_scale(self):
        rng = trial_stream(9092)
        pre = rng.exponential(60.0, 623) + 20.0
        post = rng.exponential(60.0, 1060)
        result = time_savings_test(pre, post)
        covered = result.ci95[0] <= 20.0 <= result.ci95[1]
        _report(
            "8b (20-minute shift detection)",
            result.p_one_sided < 0.001 and covered,
            f"recovered diff {result.diff_of_means:.1f} min "
            f"(CI [{result.ci95[0]:.1f}, {result.ci95[1]:.1f}] covers the "
            f"injected 20), one-sided p = {result.p_one_sided:.2e}",
        )


class TestCriterion9Determinism:
    def test_byte_identical_outputs(self, tmp_path):
        params_path = studied_params_doc(tmp_path)
        base = [
            "sweep",
            "--params",
            str(params_path),
            "--interarrival",
            "2.5,3.0",
            "--radiologists",
            "3",
            "--trials",
            "4",
            "--patients",
            "3000",
        ]
        for name, extra in (("a", []), ("b", []), ("c", ["--workers", "4"])):
            assert cli.main(base + extra + ["--out", str(tmp_path / name)]) == 0
        reruns_equal = filecmp.cmp(
            tmp_path / "a" / "sweep.csv", tmp_path / "b" / "sweep.csv", shallow=False
        )
        parallel_equal = filecmp.cmp(
            tmp_path / "a" / "sweep.csv", tmp_path / "c" / "sweep.csv", shallow=False
        )
        roc = [
            "roc-sweep",
            "--params",
            str(params_path),
            "--points",
            "5",
            "--interarrival",
            "2.5",
            "--trials",
            "3",
            "--patients",
            "2000",
        ]
        assert cli.main(roc + ["--out", str(tmp_path / "r1")]) == 0
        assert cli.main(roc + ["--out", str(tmp_path / "r2")]) == 0
        roc_equal = filecmp.cmp(
            tmp_path / "r1" / "roc_sweep.csv", tmp_path / "r2" / "roc_sweep.csv", shallow=False
        )
        _report(
            "9 (byte-identical outputs under reruns and parallelism)",
            reruns_equal and parallel_equal and roc_equal,
            f"sweep rerun={reruns_equal}, parallel={parallel_equal}, roc rerun={roc_equal}",
        )
