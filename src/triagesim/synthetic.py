"""Deterministic synthetic log corpora with known ground truth.

Real exam and closure logs cannot be shipped, so recovery of every estimated
parameter is demonstrated on corpora produced here: daily Poisson arrivals
with cohort-specific means, per-reader closure chains whose gaps are
exponential read times by exam class, plus the dirt the cleaning rules exist
for (negative TATs, duplicate closures, long breaks, thin reader-days).

Given the same spec, generation is bit-reproducible.

Each generator works in two steps. A loop makes every random draw, one
scalar `Generator` call at a time in a fixed order, and appends only the
drawn floats, class codes, reader ids and per-day row counts to column
lists. The draws cannot be batched without changing the logs: exponential
and bounded-integer draws take a variable share of the bit stream. The text
is then built column by column: minutes become int64 microseconds rounded
exactly as `timedelta(minutes=x)` rounds them (`_minutes_to_us`), are added
to each day's midnight and are written as `datetime.isoformat()` writes a
UTC stamp (`_isoformat`). Each file is written with one call.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .core import ExamClass, trial_stream
from .errors import ParameterError
from .estimation import CLOSURE_LOG_COLUMNS, EXAM_LOG_COLUMNS

_US_PER_MINUTE = 60_000_000
_US_PER_DAY = 1440 * _US_PER_MINUTE
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# The stamps a datetime can hold, in microseconds since the epoch.
_US_MIN = (date.min.toordinal() - _EPOCH_ORDINAL) * _US_PER_DAY
_US_MAX = (date.max.toordinal() + 1 - _EPOCH_ORDINAL) * _US_PER_DAY - 1
# Minutes at least this far from 0 cannot give a stamp between them; below
# it every µs sum stays inside int64.
_MINUTES_MAX = (_US_MAX - _US_MIN) / _US_PER_MINUTE


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
        at_least_one = ("n_days", "n_residents", "n_staff")
        non_negative = (
            "readers_per_day", "closures_per_reader_day", "n_negative_tat", "n_duplicate_closures",
            "n_thin_reader_days",
        )
        for name in ("seed", *at_least_one, *non_negative, "boundary_day"):
            value = getattr(self, name)
            if value is None and name == "boundary_day":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # json cannot write a numpy integer
        for names, valid, rule in (
            (at_least_one, lambda v: v >= 1, "at least 1"),
            (non_negative, lambda v: v >= 0, "non-negative"),
            (("positive_rate", "indeterminate_rate", "break_probability"), lambda v: 0 <= v <= 1, "in [0, 1]"),
            # A zero mean would never move the arrival clock forward.
            (
                ("work_interarrival", "off_interarrival", "read_mean_pe", "read_mean_npp", "read_mean_ncct",
                 "tat_mean_pre", "tat_mean_post"),
                lambda v: 0 < v < math.inf,
                "finite and positive",
            ),
        ):
            for name in names:
                value = getattr(self, name)
                if not valid(value):
                    raise ParameterError(f"{name} must be {rule}, got {value}")
        if self.positive_rate + self.indeterminate_rate > 1:
            raise ParameterError(
                f"positive_rate + indeterminate_rate must be at most 1, "
                f"got {self.positive_rate} + {self.indeterminate_rate}"
            )
        if self.start_date.toordinal() + self.n_days - 1 > date.max.toordinal():
            raise ParameterError(f"{self.n_days} days from {self.start_date} run past {date.max}")
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


def _minutes_to_us(minutes) -> np.ndarray:
    """`timedelta(minutes=x) // timedelta(microseconds=1)` for each float x,
    as int64.

    CPython's timedelta constructor keeps the whole minutes exact, splits the
    fraction times 60e6 into whole microseconds and a leftover, and rounds
    the leftover to the nearest integer; an exact half goes to whichever
    neighbour makes the total even.
    """
    minutes = np.asarray(minutes, dtype=np.float64)
    if not np.all(np.abs(minutes) < _MINUTES_MAX):
        raise ParameterError("the spec puts a timestamp outside the years 1-9999")
    fraction, whole = np.modf(minutes)
    leftover, whole_us = np.modf(fraction * float(_US_PER_MINUTE))
    total = whole.astype(np.int64) * _US_PER_MINUTE + whole_us.astype(np.int64)
    step = np.rint(leftover)
    half = np.abs(leftover) == 0.5
    step[half] = np.where(total[half] & 1, np.sign(leftover[half]), 0.0)
    return total + step.astype(np.int64)


def _isoformat(us: np.ndarray) -> list[str]:
    """`datetime.isoformat()` of each UTC stamp given in int64 microseconds
    since the epoch; like it, leaves out a fraction that is zero."""
    if us.size and (us.min() < _US_MIN or us.max() > _US_MAX):
        raise ParameterError("the spec puts a timestamp outside the years 1-9999")
    stamps = us.astype("datetime64[us]")
    text = np.datetime_as_string(stamps, unit="us")
    whole = us % 1_000_000 == 0
    text[whole] = np.datetime_as_string(stamps[whole], unit="s")
    return [stamp + "+00:00" for stamp in text.tolist()]


def _midnights(spec: SyntheticSpec, day_index) -> np.ndarray:
    """The start of each given day of the spec, in µs since the epoch."""
    first = spec.start_date.toordinal() - _EPOCH_ORDINAL
    return (first + np.asarray(day_index, dtype=np.int64)) * _US_PER_DAY


def _row_days(rows_by_day: list[int]) -> np.ndarray:
    """Each row's day index, from the row count reached at the end of each day."""
    return np.repeat(np.arange(len(rows_by_day)), np.diff(rows_by_day, prepend=0))


def _day_segments(spec: SyntheticSpec, day: date) -> list[tuple[float, float, float]]:
    """(start_minute, end_minute, interarrival_mean) blocks for one day."""
    if day.weekday() >= 5:
        return [(0.0, 1440.0, spec.off_interarrival)]
    return [
        (0.0, 480.0, spec.off_interarrival),
        (480.0, 1020.0, spec.work_interarrival),
        (1020.0, 1440.0, spec.off_interarrival),
    ]


def _labels(u: np.ndarray, cuts: tuple[float, ...], names: tuple[str, ...]) -> list[str]:
    """names[k] for each u, k being the number of the ascending cuts that u
    is not below."""
    return [names[k] for k in np.searchsorted(cuts, u, side="right").tolist()]


def generate_exam_rows(spec: SyntheticSpec) -> tuple[list[tuple[str, ...]], dict]:
    """Exam-log rows plus realized counts."""
    rng = trial_stream(spec.seed, 0)
    random, exponential, integers = rng.random, rng.exponential, rng.integers
    residents = spec.resident_ids()
    staff = spec.staff_ids()
    scan_minutes: list[float] = []
    tats: list[float] = []
    u_diagnosis: list[float] = []
    u_role: list[float] = []
    readers: list[str] = []
    u_location: list[float] = []
    rows_by_day: list[int] = []
    for day_index in range(spec.n_days):
        day = spec.start_date + timedelta(days=day_index)
        tat_mean = spec.tat_mean_pre if day_index < spec.boundary else spec.tat_mean_post
        for seg_start, seg_end, mean in _day_segments(spec, day):
            t = seg_start + exponential(mean)
            while t < seg_end:
                scan_minutes.append(t)
                tats.append(exponential(tat_mean))
                u_diagnosis.append(random())
                u = random()
                u_role.append(u)
                if u < 0.85:
                    readers.append(residents[integers(len(residents))])
                else:
                    readers.append(staff[integers(len(staff))])
                u_location.append(random())
                t += exponential(mean)
        rows_by_day.append(len(scan_minutes))
    # Rows with scan entered after sign-off, from noon of a random day;
    # ingestion must drop and count them.
    late_days: list[int] = []
    late_minutes: list[float] = []
    negative_tats: list[float] = []
    for _ in range(spec.n_negative_tat):
        late_days.append(integers(spec.n_days))
        late_minutes.append(rng.uniform(0, 300))
        negative_tats.append(exponential(45.0) + 1.0)

    scan = _midnights(spec, _row_days(rows_by_day)) + _minutes_to_us(scan_minutes)
    signed = scan + _minutes_to_us(tats)
    late_scan = _midnights(spec, late_days) + 720 * _US_PER_MINUTE + _minutes_to_us(late_minutes)
    late_signed = late_scan - _minutes_to_us(negative_tats)

    n_late = spec.n_negative_tat
    diagnosis_draws = np.array(u_diagnosis)
    rates = (spec.positive_rate, spec.positive_rate + spec.indeterminate_rate)
    rows = list(
        zip(
            [f"E{k:06d}" for k in range(1, len(readers) + n_late + 1)],
            _isoformat(np.concatenate([scan, late_scan])),
            _isoformat(np.concatenate([signed, late_signed])),
            readers + [residents[0]] * n_late,
            _labels(np.array(u_role), (0.85,), ("Resident", "Staff")) + ["Resident"] * n_late,
            _labels(diagnosis_draws, rates, ("Positive", "Indeterminate", "Negative")) + ["Negative"] * n_late,
            _labels(np.array(u_location), (0.3, 0.9), ("ED", "Inpatient", "Outpatient")) + ["Inpatient"] * n_late,
        )
    )
    counts = {
        "n_rows": len(rows),
        "n_negative_tat": n_late,
        "n_retained": len(rows) - n_late,
        "n_positive_retained": int(np.count_nonzero(diagnosis_draws < spec.positive_rate)),
    }
    return rows, counts


def generate_closure_rows(spec: SyntheticSpec) -> tuple[list[tuple[str, str, str]], dict]:
    """Closure-log rows plus realized per-class counts."""
    rng = trial_stream(spec.seed, 1)
    random, exponential, uniform = rng.random, rng.exponential, rng.uniform
    residents = spec.resident_ids()
    staff = spec.staff_ids()
    class_values = [c.value for c in ExamClass]
    mean_of = {
        ExamClass.PE_POSITIVE.value: spec.read_mean_pe,
        ExamClass.NON_PE_POSITIVE.value: spec.read_mean_npp,
        ExamClass.NON_CHEST_CT.value: spec.read_mean_ncct,
    }
    read_means = [mean_of[value] for value in class_values]
    ncct = class_values.index(ExamClass.NON_CHEST_CT.value)
    mix = np.asarray(spec.closure_mix, dtype=float)
    mix = mix / mix.sum()
    # The inverse-CDF draw that rng.choice(len(class_values), p=mix) makes,
    # from the same single uniform, without its per-call cost.
    cdf = mix.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    readers: list[str] = []
    minutes: list[float] = []
    codes: list[int] = []
    rows_by_day: list[int] = []
    thin_days_left = spec.n_thin_reader_days
    for day_index in range(spec.n_days):
        on_duty = [
            residents[(day_index * spec.readers_per_day + j) % len(residents)]
            for j in range(min(spec.readers_per_day, len(residents)))
        ]
        for reader in on_duty:
            n_closures = spec.closures_per_reader_day
            if thin_days_left > 0 and day_index % 7 == 3 and reader == on_duty[0]:
                n_closures = 20  # deliberately below the daily minimum
                thin_days_left -= 1
            t = 450.0 + uniform(0.0, 30.0)  # shift starts around 07:30
            for _ in range(n_closures):
                code = bisect_right(cdf, random())
                gap = exponential(read_means[code])
                if random() < spec.break_probability:
                    gap += uniform(70.0, 120.0)
                t += gap
                if t >= 1439.0:
                    break
                readers.append(reader)
                minutes.append(t)
                codes.append(code)
        # Staff closures exist in real logs; read-time estimation must skip them.
        staff_reader = staff[day_index % len(staff)]
        t = 500.0
        for _ in range(40):
            t += exponential(10.0)
            if t >= 1439.0:
                break
            readers.append(staff_reader)
            minutes.append(t)
            codes.append(ncct)
        rows_by_day.append(len(minutes))

    stamps = _isoformat(_midnights(spec, _row_days(rows_by_day)) + _minutes_to_us(minutes))
    rows = list(zip(readers, stamps, [class_values[code] for code in codes]))
    per_class = np.bincount(np.array(codes, dtype=np.intp), minlength=len(class_values)).tolist()
    class_counts = dict(zip(class_values, per_class))
    for k in range(spec.n_duplicate_closures):
        duplicate = rows[k * 37 % len(rows)]
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


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    lines = [",".join(header), *map(",".join, rows)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
