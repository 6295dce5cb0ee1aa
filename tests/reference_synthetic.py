"""Test-only reference: the per-row synthetic log generators that the
program used before it built the logs column by column, kept verbatim so
the new code can be checked against them byte for byte.

They make two datetime objects and two isoformat() calls per exam row and
one of each per closure, so they are slow; tests call them on short specs.
`write_csv` is the writer that went with them.
"""
from __future__ import annotations

from bisect import bisect_right
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np

from triagesim.core import ExamClass, trial_stream
from triagesim.synthetic import SyntheticSpec

_UTC = timezone.utc


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


def write_csv(path: Path, header: tuple[str, ...], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")
