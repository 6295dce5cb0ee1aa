"""Timestamp-log ingestion and workflow-parameter estimation.

Two logs drive everything:

* an exam report log (one row per exam: scan completion, first report
  sign-off, reader, diagnosis), from which turnaround times, arrival
  patterns, and prevalence counts come;
* a case-closure log (one row per closed case: reader, closure time, exam
  class), whose per-reader inter-closure gaps serve as a read-time
  surrogate.

Distribution means are estimated by least-squares fits of a * exp(-t / m) to
density-normalized gap histograms. The fitted mean, unlike the plain sample
mean, is unaffected by truncation rules (dropped long gaps, day boundaries)
because cutting the tail of an exponential does not change its shape; the
sample mean is carried alongside for comparison.
"""
from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass, field
from datetime import date, datetime, time
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import curve_fit

from .config import AnalysisConfig
from .core import Cohort, Diagnosis, ExamClass, Location, ReaderRole
from .errors import FormatError, InsufficientDataError, ParameterError

log = logging.getLogger(__name__)

EXAM_LOG_COLUMNS = (
    "exam_id",
    "scan_completed_at",
    "report_signed_at",
    "reader_id",
    "reader_role",
    "diagnosis",
    "location",
)
CLOSURE_LOG_COLUMNS = ("reader_id", "closed_at", "exam_class")


@dataclass(frozen=True)
class ExamRecord:
    exam_id: str
    scan_completed_at: datetime
    report_signed_at: datetime
    reader_id: str
    reader_role: ReaderRole
    diagnosis: Diagnosis
    location: Location

    @property
    def tat_minutes(self) -> float:
        return (self.report_signed_at - self.scan_completed_at).total_seconds() / 60.0


@dataclass(frozen=True)
class ClosureRecord:
    reader_id: str
    closed_at: datetime
    exam_class: ExamClass


@dataclass(frozen=True)
class ExamLogIngest:
    records: tuple[ExamRecord, ...]
    n_excluded_negative: int
    n_malformed: int
    n_rows: int


@dataclass(frozen=True)
class ClosureLogIngest:
    records: tuple[ClosureRecord, ...]
    n_malformed: int
    n_rows: int


def _parse_timestamp(raw: str) -> datetime:
    parsed = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp {raw!r} has no zone offset")
    return parsed


def _normalize_token(raw: str) -> str:
    return raw.strip().lower().replace(" ", "").replace("_", "").replace("-", "")


_ROLE_TOKENS = {
    "resident": ReaderRole.RESIDENT,
    "staff": ReaderRole.STAFF,
    "fellow": ReaderRole.FELLOW,
    "l1fellow": ReaderRole.FELLOW,
    "emergencyphysician": ReaderRole.EMERGENCY_PHYSICIAN,
}
_DIAGNOSIS_TOKENS = {
    "positive": Diagnosis.POSITIVE,
    "negative": Diagnosis.NEGATIVE,
    "indeterminate": Diagnosis.INDETERMINATE,
}
_LOCATION_TOKENS = {
    "ed": Location.ED,
    "emergencydepartment": Location.ED,
    "inpatient": Location.INPATIENT,
    "outpatient": Location.OUTPATIENT,
}
_CLASS_TOKENS = {
    "pepositive": ExamClass.PE_POSITIVE,
    "nonpepositive": ExamClass.NON_PE_POSITIVE,
    "nonchestct": ExamClass.NON_CHEST_CT,
}


def _lookup(tokens: dict, raw: str, what: str):
    try:
        return tokens[_normalize_token(raw)]
    except KeyError:
        raise ValueError(f"unknown {what} {raw!r}") from None


def _read_rows(path, expected_columns: tuple[str, ...]):
    """Yield (line_number, field_list) after validating the header.

    An entirely empty file yields nothing; a wrong header is fatal.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            return
        names = tuple(h.strip().lower() for h in header)
        if names != expected_columns:
            raise FormatError(
                f"{path}: expected columns {expected_columns}, found {names}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            yield line_no, row


def _row_dict(row: list[str], expected_columns: tuple[str, ...]) -> dict[str, str]:
    if len(row) != len(expected_columns):
        raise ValueError(f"expected {len(expected_columns)} fields, found {len(row)}")
    return dict(zip(expected_columns, row))


def ingest_exam_log(path) -> ExamLogIngest:
    """Parse the exam report log, dropping rows whose TAT is negative.

    Negative TATs arise when a manually entered scan time postdates the
    automatically captured report time; they are counted, not kept. Rows
    that fail to parse are logged with their line number and skipped.
    """
    records: list[ExamRecord] = []
    n_negative = 0
    n_malformed = 0
    n_rows = 0
    for line_no, raw in _read_rows(path, EXAM_LOG_COLUMNS):
        n_rows += 1
        try:
            row = _row_dict(raw, EXAM_LOG_COLUMNS)
            record = ExamRecord(
                exam_id=row["exam_id"].strip(),
                scan_completed_at=_parse_timestamp(row["scan_completed_at"]),
                report_signed_at=_parse_timestamp(row["report_signed_at"]),
                reader_id=row["reader_id"].strip(),
                reader_role=_lookup(_ROLE_TOKENS, row["reader_role"], "reader role"),
                diagnosis=_lookup(_DIAGNOSIS_TOKENS, row["diagnosis"], "diagnosis"),
                location=_lookup(_LOCATION_TOKENS, row["location"], "location"),
            )
        except ValueError as exc:
            n_malformed += 1
            log.warning("%s line %d: skipping malformed row (%s)", path, line_no, exc)
            continue
        if record.tat_minutes < 0:
            n_negative += 1
            continue
        records.append(record)
    return ExamLogIngest(tuple(records), n_negative, n_malformed, n_rows)


def ingest_closure_log(path) -> ClosureLogIngest:
    """Parse the case-closure log (reader, closure time, exam class)."""
    records: list[ClosureRecord] = []
    n_malformed = 0
    n_rows = 0
    for line_no, raw in _read_rows(path, CLOSURE_LOG_COLUMNS):
        n_rows += 1
        try:
            row = _row_dict(raw, CLOSURE_LOG_COLUMNS)
            records.append(
                ClosureRecord(
                    reader_id=row["reader_id"].strip(),
                    closed_at=_parse_timestamp(row["closed_at"]),
                    exam_class=_lookup(_CLASS_TOKENS, row["exam_class"], "exam class"),
                )
            )
        except ValueError as exc:
            n_malformed += 1
            log.warning("%s line %d: skipping malformed row (%s)", path, line_no, exc)
    return ClosureLogIngest(tuple(records), n_malformed, n_rows)


def assign_cohort(
    t: datetime,
    holidays: frozenset[date] | set[date] = frozenset(),
    work_start: time = AnalysisConfig.work_start,
    work_end: time = AnalysisConfig.work_end,
) -> Cohort:
    """Work-hour iff a non-holiday weekday with local time in
    [work_start, work_end); everything else is off-hours."""
    if t.weekday() >= 5 or t.date() in holidays:
        return Cohort.OFF_HOUR
    if work_start <= t.time() < work_end:
        return Cohort.WORK_HOUR
    return Cohort.OFF_HOUR


def _segment_key(
    t: datetime, holidays, work_start: time, work_end: time
) -> tuple[date, Cohort, int]:
    """Identify the contiguous cohort block a timestamp falls in.

    Weekday off-hours split into a morning block and an evening block so
    that no gap ever spans the working day; nothing spans midnight either.
    """
    d = t.date()
    if t.weekday() >= 5 or d in holidays:
        return d, Cohort.OFF_HOUR, 0
    clock = t.time()
    if clock < work_start:
        return d, Cohort.OFF_HOUR, 0
    if clock < work_end:
        return d, Cohort.WORK_HOUR, 1
    return d, Cohort.OFF_HOUR, 2


@dataclass(frozen=True)
class HistogramFit:
    """Least-squares exponential fit to a density-normalized gap histogram."""

    mean: float
    mean_sample: float
    r2: float
    n: int
    converged: bool


_MIN_FIT_SAMPLES = 50
_MIN_OCCUPIED_BINS = 4


def fit_exponential_histogram(
    gaps: Sequence[float], bin_width: float, weighted: bool = False
) -> HistogramFit:
    """Fit a * exp(-t / m) to the histogram of gaps (least squares).

    The curve fit only runs when the histogram can support it
    (_MIN_FIT_SAMPLES gaps and several occupied bins); sparse histograms make
    two-parameter nonlinear fits drift badly upward. Below the threshold, or
    when the optimizer fails or pins to its bounds, the sample mean is
    reported with the r-squared measured against the exponential shape it
    implies (converged=False). With weighted=True, bins are weighted by
    their Poisson uncertainty during the fit.
    """
    values = np.asarray(gaps, dtype=float)
    if values.size < 2:
        raise InsufficientDataError(f"need at least 2 gaps to fit, got {values.size}")
    if bin_width <= 0:
        raise ParameterError(f"bin width must be > 0, got {bin_width}")
    n = values.size
    m_sample = float(values.mean())
    upper = max(bin_width, float(np.ceil(values.max() / bin_width)) * bin_width)
    edges = np.arange(0.0, upper + bin_width / 2.0, bin_width)
    counts, _ = np.histogram(values, edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    density = counts / (n * bin_width)

    def model(t, amplitude, m):
        return amplitude * np.exp(-t / m)

    # Legitimate truncation corrections move the mean by a few percent, so a
    # fit escaping a 3x band around the sample mean is noise, not signal.
    lo_m, hi_m = m_sample / 3.0, m_sample * 3.0
    sigma = np.sqrt(np.maximum(counts, 1.0)) / (n * bin_width) if weighted else None
    converged = n >= _MIN_FIT_SAMPLES and int((counts > 0).sum()) >= _MIN_OCCUPIED_BINS
    if converged:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                (amplitude, m_fit), _ = curve_fit(
                    model,
                    centers,
                    density,
                    p0=(1.0 / m_sample, m_sample),
                    sigma=sigma,
                    bounds=((0.0, lo_m), (np.inf, hi_m)),
                    maxfev=5000,
                )
            if m_fit >= 0.98 * hi_m or m_fit <= 1.02 * lo_m:
                converged = False
        except (RuntimeError, ValueError):
            converged = False
    if not converged:
        amplitude, m_fit = 1.0 / m_sample, m_sample
    predicted = model(centers, amplitude, m_fit)
    ss_res = float(np.sum((density - predicted) ** 2))
    ss_tot = float(np.sum((density - density.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return HistogramFit(float(m_fit), m_sample, r2, n, converged)


@dataclass(frozen=True)
class ExponentialFit:
    """Daily inter-arrival fit for one cohort."""

    day: date
    cohort: Cohort
    mean: float
    mean_sample: float
    r2: float
    n: int


def daily_interarrival_fits(
    records: Iterable,
    holidays: frozenset[date] | set[date] = frozenset(),
    *,
    bin_minutes: float = 1.0,
    min_gaps: int = 5,
    weighted: bool = False,
    work_start: time = AnalysisConfig.work_start,
    work_end: time = AnalysisConfig.work_end,
) -> list[ExponentialFit]:
    """Fit the daily inter-arrival distribution per (day, cohort).

    records may be datetimes or objects carrying scan_completed_at. Gaps are
    taken between consecutive timestamps within one contiguous cohort block;
    day-cohorts with fewer than min_gaps gaps are skipped and logged.
    """
    times = sorted(
        r if isinstance(r, datetime) else r.scan_completed_at for r in records
    )
    gaps_by_day_cohort: dict[tuple[date, Cohort], list[float]] = {}
    for earlier, later in zip(times, times[1:]):
        key_a = _segment_key(earlier, holidays, work_start, work_end)
        key_b = _segment_key(later, holidays, work_start, work_end)
        if key_a != key_b:
            continue
        gap = (later - earlier).total_seconds() / 60.0
        gaps_by_day_cohort.setdefault((key_a[0], key_a[1]), []).append(gap)
    fits = []
    min_gaps = max(min_gaps, 2)  # a single gap cannot constrain a fit
    for (day, cohort), gaps in sorted(
        gaps_by_day_cohort.items(), key=lambda item: (item[0][0], item[0][1].value)
    ):
        if len(gaps) < min_gaps:
            log.info(
                "skipping %s %s: %d gaps < minimum %d", day, cohort.value, len(gaps), min_gaps
            )
            continue
        fit = fit_exponential_histogram(gaps, bin_minutes, weighted)
        fits.append(
            ExponentialFit(day, cohort, fit.mean, fit.mean_sample, fit.r2, fit.n)
        )
    return fits


@dataclass(frozen=True)
class NormalSummary:
    """Mean and one-sigma spread of a collection of daily fitted means."""

    mean: float
    sigma: float
    range68: tuple[float, float]

    @classmethod
    def from_moments(cls, mean: float, sigma: float) -> "NormalSummary":
        if sigma < 0:
            raise ParameterError("sigma must be >= 0")
        return cls(mean, sigma, (mean - sigma, mean + sigma))


def summarize_interarrival(fits: Sequence[ExponentialFit], cohort: Cohort) -> NormalSummary:
    """Normal summary (mean, 1-sigma range) of the daily fitted means in a cohort."""
    means = [f.mean for f in fits if f.cohort is cohort]
    if len(means) < 2:
        raise InsufficientDataError(
            f"need >= 2 daily fits for cohort {cohort.value}, got {len(means)}"
        )
    arr = np.asarray(means)
    sigma = float(arr.std(ddof=1))
    if sigma == 0.0:
        log.warning("all %s daily means identical: zero variance summary", cohort.value)
    return NormalSummary.from_moments(float(arr.mean()), sigma)


@dataclass(frozen=True)
class ReaderClassFit:
    """Read-time fit for one (reader, exam class) pair."""

    reader_id: str
    exam_class: ExamClass
    mean: float
    n: int
    r2: float


@dataclass(frozen=True)
class ClassReadTime:
    """Per-class aggregate across readers: average of per-reader means."""

    exam_class: ExamClass
    n_readers: int
    mean: float
    min_mean: float
    max_mean: float


@dataclass(frozen=True)
class ReadTimeExclusions:
    n_non_resident_closures: int = 0
    n_duplicate_closures: int = 0
    n_reader_days_dropped: int = 0
    n_gaps_over_max: int = 0


@dataclass(frozen=True)
class ReadTimeSummary:
    per_reader: tuple[ReaderClassFit, ...]
    per_class: dict[ExamClass, ClassReadTime] = field(default_factory=dict)
    exclusions: ReadTimeExclusions = ReadTimeExclusions()


def estimate_read_times(
    closures: Iterable[ClosureRecord],
    roles: Mapping[str, ReaderRole],
    *,
    max_gap_minutes: float = 60.0,
    min_daily_closures: int = 30,
    min_gaps: int = 10,
    bin_minutes: float = 2.0,
    weighted: bool = False,
) -> ReadTimeSummary:
    """Estimate per-class read times from inter-case-closure gaps.

    The gap between a reader's consecutive closures on one day approximates
    the read time of the later exam, so gaps inherit the class of the later
    closure. Cleaning rules: only residents count (consecutive reading is a
    poor assumption for staff), gaps above max_gap_minutes are treated as
    breaks, and reader-days with fewer than min_daily_closures closures are
    dropped wholesale. Per (reader, class) groups need min_gaps gaps for a
    fit; per-class aggregates average the per-reader fitted means.
    """
    by_reader: dict[str, list[ClosureRecord]] = {}
    n_non_resident = 0
    for record in closures:
        if roles.get(record.reader_id) is not ReaderRole.RESIDENT:
            n_non_resident += 1
            continue
        by_reader.setdefault(record.reader_id, []).append(record)

    n_duplicates = 0
    n_days_dropped = 0
    n_gaps_over = 0
    gaps_by_reader_class: dict[tuple[str, ExamClass], list[float]] = {}
    for reader_id in sorted(by_reader):
        rows = sorted(by_reader[reader_id], key=lambda r: r.closed_at)
        deduped: list[ClosureRecord] = []
        for row in rows:
            if deduped and row.closed_at == deduped[-1].closed_at:
                n_duplicates += 1
                continue
            deduped.append(row)
        by_day: dict[date, list[ClosureRecord]] = {}
        for row in deduped:
            by_day.setdefault(row.closed_at.date(), []).append(row)
        for day in sorted(by_day):
            chain = by_day[day]
            if len(chain) < min_daily_closures:
                n_days_dropped += 1
                continue
            for earlier, later in zip(chain, chain[1:]):
                gap = (later.closed_at - earlier.closed_at).total_seconds() / 60.0
                if gap > max_gap_minutes:
                    n_gaps_over += 1
                    continue
                gaps_by_reader_class.setdefault(
                    (reader_id, later.exam_class), []
                ).append(gap)

    per_reader: list[ReaderClassFit] = []
    for (reader_id, exam_class), gaps in sorted(
        gaps_by_reader_class.items(), key=lambda item: (item[0][0], item[0][1].value)
    ):
        if len(gaps) < min_gaps:
            continue
        fit = fit_exponential_histogram(gaps, bin_minutes, weighted)
        per_reader.append(
            ReaderClassFit(reader_id, exam_class, fit.mean, fit.n, fit.r2)
        )

    per_class: dict[ExamClass, ClassReadTime] = {}
    for exam_class in ExamClass:
        means = [f.mean for f in per_reader if f.exam_class is exam_class]
        if means:
            per_class[exam_class] = ClassReadTime(
                exam_class=exam_class,
                n_readers=len(means),
                mean=float(np.mean(means)),
                min_mean=min(means),
                max_mean=max(means),
            )
    exclusions = ReadTimeExclusions(
        n_non_resident_closures=n_non_resident,
        n_duplicate_closures=n_duplicates,
        n_reader_days_dropped=n_days_dropped,
        n_gaps_over_max=n_gaps_over,
    )
    if n_non_resident or n_duplicates or n_days_dropped or n_gaps_over:
        log.info("read-time exclusions: %s", exclusions)
    return ReadTimeSummary(tuple(per_reader), per_class, exclusions)


def effective_nondiseased_read_time(
    mean_npp: float, mean_ncct: float, n_npp: int, n_ncct: int
) -> float:
    """Count-weighted mean read time across the two non-diseased populations."""
    if n_npp < 0 or n_ncct < 0:
        raise ParameterError("counts must be >= 0")
    if n_npp + n_ncct == 0:
        raise ParameterError("at least one population must be non-empty")
    return (n_npp * mean_npp + n_ncct * mean_ncct) / (n_npp + n_ncct)


def adjusted_fpf(specificity: float, n_ncct: int, n_npp: int) -> float:
    """Rescale a device's reported FPF for out-of-scope exams in the queue.

    The reported specificity comes from target-modality exams only; when the
    queue also holds exams the device never analyzes, the effective FPF is
    (1 - specificity) / (1 + n_ncct / n_npp).
    """
    if not 0.0 <= specificity <= 1.0:
        raise ParameterError(f"specificity must be in [0, 1], got {specificity}")
    if n_npp <= 0:
        raise ParameterError(f"n_npp must be > 0, got {n_npp}")
    if n_ncct < 0:
        raise ParameterError(f"n_ncct must be >= 0, got {n_ncct}")
    return (1.0 - specificity) / (1.0 + n_ncct / n_npp)


def queue_prevalence(n_diseased: int, n_queue_total: int) -> float:
    """Fraction of diseased exams among everything in the reading queue."""
    if n_queue_total <= 0:
        raise ParameterError(f"n_queue_total must be > 0, got {n_queue_total}")
    if not 0 <= n_diseased <= n_queue_total:
        raise ParameterError(
            f"n_diseased must be in [0, {n_queue_total}], got {n_diseased}"
        )
    return n_diseased / n_queue_total
