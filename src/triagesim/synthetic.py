"""Deterministic synthetic log corpora with known ground truth.

Real exam and closure logs cannot be shipped, so recovery of every estimated
parameter is demonstrated on corpora produced here: daily Poisson arrivals
with cohort-specific means, per-reader closure chains whose gaps are
exponential read times by exam class, plus the dirt the cleaning rules exist
for (negative TATs, duplicate closures, long breaks, thin reader-days).

Given the same spec, generation is bit-reproducible.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np

from .core import ExamClass, trial_stream
from .errors import ParameterError
from .estimation import CLOSURE_LOG_COLUMNS, EXAM_LOG_COLUMNS

_UTC = timezone.utc


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    start_date: date = date(2024, 1, 1)  # a Monday
    n_days: int = 28
    work_interarrival: float = 2.17
    off_interarrival: float = 3.19
    read_mean_pe: float = 12.1
    read_mean_npp: float = 11.4
    read_mean_ncct: float = 6.1
    closure_mix: tuple[float, float, float] = (0.04, 0.16, 0.80)
    n_residents: int = 15
    n_staff: int = 3
    readers_per_day: int = 6
    closures_per_reader_day: int = 80
    positive_rate: float = 0.15
    indeterminate_rate: float = 0.04
    tat_mean_pre: float = 60.0
    tat_mean_post: float = 40.0
    boundary_day: int | None = None  # day index where the post period starts
    n_negative_tat: int = 25
    break_probability: float = 0.01
    n_duplicate_closures: int = 3
    n_thin_reader_days: int = 2

    def __post_init__(self) -> None:
        mix = self.closure_mix
        finite = all(0 <= w < math.inf for w in mix)
        if len(mix) != len(ExamClass) or not finite or sum(mix) <= 0:
            raise ParameterError(
                f"closure_mix must hold {len(ExamClass)} finite non-negative weights "
                f"with a positive sum, got {mix}"
            )

    @property
    def boundary(self) -> int:
        return self.n_days // 2 if self.boundary_day is None else self.boundary_day

    def resident_ids(self) -> list[str]:
        return [f"r{k:03d}" for k in range(1, self.n_residents + 1)]

    def staff_ids(self) -> list[str]:
        return [f"s{k:03d}" for k in range(1, self.n_staff + 1)]


def _fmt(ts: datetime) -> str:
    return ts.isoformat()


def _day_segments(spec: SyntheticSpec, day: date) -> list[tuple[float, float, float]]:
    """(start_minute, end_minute, interarrival_mean) blocks for one day."""
    if day.weekday() >= 5:
        return [(0.0, 1440.0, spec.off_interarrival)]
    return [
        (0.0, 480.0, spec.off_interarrival),
        (480.0, 1020.0, spec.work_interarrival),
        (1020.0, 1440.0, spec.off_interarrival),
    ]


def generate_exam_rows(spec: SyntheticSpec) -> tuple[list[list[str]], dict]:
    """Exam-log rows plus realized counts."""
    rng = trial_stream(spec.seed, 0)
    residents = spec.resident_ids()
    staff = spec.staff_ids()
    rows: list[list[str]] = []
    n_positive_retained = 0
    exam_counter = 0
    for day_index in range(spec.n_days):
        day = spec.start_date + timedelta(days=day_index)
        midnight = datetime.combine(day, time(0), tzinfo=_UTC)
        tat_mean = spec.tat_mean_pre if day_index < spec.boundary else spec.tat_mean_post
        for seg_start, seg_end, mean in _day_segments(spec, day):
            t = seg_start + rng.exponential(mean)
            while t < seg_end:
                exam_counter += 1
                scan = midnight + timedelta(minutes=float(t))
                tat = float(rng.exponential(tat_mean))
                signed = scan + timedelta(minutes=tat)
                u = rng.random()
                if u < spec.positive_rate:
                    diagnosis = "Positive"
                    n_positive_retained += 1
                elif u < spec.positive_rate + spec.indeterminate_rate:
                    diagnosis = "Indeterminate"
                else:
                    diagnosis = "Negative"
                if rng.random() < 0.85:
                    reader = residents[int(rng.integers(len(residents)))]
                    role = "Resident"
                else:
                    reader = staff[int(rng.integers(len(staff)))]
                    role = "Staff"
                u_loc = rng.random()
                location = "ED" if u_loc < 0.3 else ("Inpatient" if u_loc < 0.9 else "Outpatient")
                rows.append(
                    [
                        f"E{exam_counter:06d}",
                        _fmt(scan),
                        _fmt(signed),
                        reader,
                        role,
                        diagnosis,
                        location,
                    ]
                )
                t += rng.exponential(mean)
    # Rows with scan entered after sign-off; ingestion must drop and count them.
    for _ in range(spec.n_negative_tat):
        exam_counter += 1
        day = spec.start_date + timedelta(days=int(rng.integers(spec.n_days)))
        scan = datetime.combine(day, time(12), tzinfo=_UTC) + timedelta(
            minutes=float(rng.uniform(0, 300))
        )
        signed = scan - timedelta(minutes=float(rng.exponential(45.0)) + 1.0)
        rows.append(
            [f"E{exam_counter:06d}", _fmt(scan), _fmt(signed), residents[0], "Resident", "Negative", "Inpatient"]
        )
    counts = {
        "n_rows": len(rows),
        "n_negative_tat": spec.n_negative_tat,
        "n_retained": len(rows) - spec.n_negative_tat,
        "n_positive_retained": n_positive_retained,
    }
    return rows, counts


def generate_closure_rows(spec: SyntheticSpec) -> tuple[list[list[str]], dict]:
    """Closure-log rows plus realized per-class counts."""
    rng = trial_stream(spec.seed, 1)
    residents = spec.resident_ids()
    staff = spec.staff_ids()
    class_values = [c.value for c in ExamClass]
    read_means = {
        ExamClass.PE_POSITIVE.value: spec.read_mean_pe,
        ExamClass.NON_PE_POSITIVE.value: spec.read_mean_npp,
        ExamClass.NON_CHEST_CT.value: spec.read_mean_ncct,
    }
    mix = np.asarray(spec.closure_mix, dtype=float)
    mix = mix / mix.sum()
    # The inverse-CDF draw that rng.choice(len(class_values), p=mix) makes,
    # from the same single uniform, without its per-call cost.
    cdf = mix.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    rows: list[list[str]] = []
    class_counts = {value: 0 for value in class_values}
    thin_days_left = spec.n_thin_reader_days
    for day_index in range(spec.n_days):
        day = spec.start_date + timedelta(days=day_index)
        midnight = datetime.combine(day, time(0), tzinfo=_UTC)
        on_duty = [
            residents[(day_index * spec.readers_per_day + j) % len(residents)]
            for j in range(min(spec.readers_per_day, len(residents)))
        ]
        for reader in on_duty:
            n_closures = spec.closures_per_reader_day
            if thin_days_left > 0 and day_index % 7 == 3 and reader == on_duty[0]:
                n_closures = 20  # deliberately below the daily minimum
                thin_days_left -= 1
            t = 450.0 + float(rng.uniform(0.0, 30.0))  # shift starts around 07:30
            for _ in range(n_closures):
                exam_class = class_values[bisect_right(cdf, rng.random())]
                gap = float(rng.exponential(read_means[exam_class]))
                if rng.random() < spec.break_probability:
                    gap += float(rng.uniform(70.0, 120.0))
                t += gap
                if t >= 1439.0:
                    break
                rows.append([reader, _fmt(midnight + timedelta(minutes=t)), exam_class])
                class_counts[exam_class] += 1
        # Staff closures exist in real logs; read-time estimation must skip them.
        staff_reader = staff[day_index % len(staff)]
        t = 500.0
        for _ in range(40):
            t += float(rng.exponential(10.0))
            if t >= 1439.0:
                break
            rows.append([staff_reader, _fmt(midnight + timedelta(minutes=t)), ExamClass.NON_CHEST_CT.value])
            class_counts[ExamClass.NON_CHEST_CT.value] += 1
    for k in range(spec.n_duplicate_closures):
        duplicate = list(rows[k * 37 % len(rows)])
        rows.append(duplicate)
        class_counts[duplicate[2]] += 1
    counts = {"n_rows": len(rows), "per_class": class_counts}
    return rows, counts


def generate_corpus(out_dir, spec: SyntheticSpec) -> dict:
    """Write exam_log.csv, closure_log.csv, and truth.json; return the truth."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exam_rows, exam_counts = generate_exam_rows(spec)
    closure_rows, closure_counts = generate_closure_rows(spec)
    _write_csv(out / "exam_log.csv", EXAM_LOG_COLUMNS, exam_rows)
    _write_csv(out / "closure_log.csv", CLOSURE_LOG_COLUMNS, closure_rows)
    truth = {
        "spec": _spec_dict(spec),
        "exam_log": exam_counts,
        "closure_log": closure_counts,
        "expected": {
            "work_interarrival": spec.work_interarrival,
            "off_interarrival": spec.off_interarrival,
            "read_mean_pe": spec.read_mean_pe,
            "read_mean_npp": spec.read_mean_npp,
            "read_mean_ncct": spec.read_mean_ncct,
            "prevalence": exam_counts["n_positive_retained"] / closure_counts["n_rows"],
            "effective_nondiseased_read_time": (
                closure_counts["per_class"][ExamClass.NON_PE_POSITIVE.value] * spec.read_mean_npp
                + closure_counts["per_class"][ExamClass.NON_CHEST_CT.value] * spec.read_mean_ncct
            )
            / (
                closure_counts["per_class"][ExamClass.NON_PE_POSITIVE.value]
                + closure_counts["per_class"][ExamClass.NON_CHEST_CT.value]
            ),
            "tat_shift": spec.tat_mean_pre - spec.tat_mean_post,
        },
    }
    with open(out / "truth.json", "w", encoding="utf-8") as handle:
        json.dump(truth, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return truth


def _spec_dict(spec: SyntheticSpec) -> dict:
    raw = asdict(spec)
    raw["start_date"] = spec.start_date.isoformat()
    raw["closure_mix"] = list(spec.closure_mix)
    return raw


def _write_csv(path: Path, header: tuple[str, ...], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")
