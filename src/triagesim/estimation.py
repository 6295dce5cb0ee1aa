"""Timestamp-log ingestion and workflow-parameter estimation.

Two logs drive everything:

* an exam report log (one row per exam: scan completion, first report
  sign-off, reader, diagnosis), from which turnaround times, arrival
  patterns, and prevalence counts come;
* a case-closure log (one row per closed case: reader, closure time, exam
  class), whose per-reader inter-closure gaps serve as a read-time
  surrogate.

Distribution means are estimated by least-squares fits of a * exp(-t / m) to
density-normalized gap histograms, with the amplitude a in closed form and
a bounded search over m (variable projection). The fitted mean, unlike the
plain sample mean, is unaffected by truncation rules (dropped long gaps, day
boundaries) because cutting the tail of an exponential does not change its
shape; the sample mean is carried alongside for comparison.
"""
from __future__ import annotations

import csv
import enum
import logging
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .config import AnalysisConfig
from .core import Cohort, Diagnosis, ExamClass, Location, ReaderRole
from .errors import FormatError, InsufficientDataError, ParameterError, reading

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


@dataclass(frozen=True, eq=False)
class ExamLogIngest:
    """The retained rows of an exam report log, one column per field.

    Times are int64 microseconds: since the Unix epoch in UTC, and the same
    instant on the wall clock of the row's own zone offset, which decides its
    day and cohort. positive marks the rows diagnosed Positive, and roles
    maps each reader to their role on the last retained row that names them.
    Every non-blank row is counted once: n_rows = tat_minutes.size +
    n_excluded_negative + n_duplicate_exam_id + n_malformed.
    """

    scan_utc_us: np.ndarray
    scan_wall_us: np.ndarray
    tat_minutes: np.ndarray
    positive: np.ndarray
    roles: dict[str, ReaderRole]
    n_excluded_negative: int
    n_duplicate_exam_id: int
    n_malformed: int
    n_rows: int


@dataclass(frozen=True, eq=False)
class ClosureLogIngest:
    """The parsed rows of a case-closure log, one column per field, with
    times as in ExamLogIngest. reader indexes readers, the distinct reader
    ids in order of first appearance, and exam_class indexes list(ExamClass)."""

    readers: tuple[str, ...]
    reader: np.ndarray
    closed_utc_us: np.ndarray
    closed_wall_us: np.ndarray
    exam_class: np.ndarray
    n_malformed: int
    n_rows: int


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_US = timedelta(microseconds=1)
_US_PER_DAY = 86_400 * 10**6


def _parse_timestamp(raw: str) -> datetime:
    try:
        parsed = datetime.fromisoformat(raw)
    except ValueError:
        parsed = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp {raw!r} has no zone offset")
    return parsed


class _Offsets(dict):
    """Zone -> its UTC offset in microseconds, computed once per zone."""

    def __missing__(self, zone):
        offset = self[zone] = zone.utcoffset(None) // _US
        return offset


def _normalize_token(raw: str) -> str:
    return raw.strip().lower().replace(" ", "").replace("_", "").replace("-", "")


# The accepted spellings that are not a member's value.
_ALIASES = {"l1fellow": ReaderRole.FELLOW, "emergencydepartment": Location.ED}


class _Tokens(dict):
    """Raw cell -> member of one enum, matched on its value or an alias after
    _normalize_token; each distinct raw string is normalised once, and an
    unknown one raises ValueError."""

    def __init__(self, members: type[enum.Enum], what: str):
        super().__init__()
        self.tokens = {_normalize_token(m.value): m for m in members}
        self.tokens.update((k, m) for k, m in _ALIASES.items() if isinstance(m, members))
        self.what = what

    def __missing__(self, raw: str):
        try:
            member = self.tokens[_normalize_token(raw)]
        except KeyError:
            raise ValueError(f"unknown {self.what} {raw!r}") from None
        self[raw] = member
        return member


class _Rows:
    """The rows of a log after its header, as lists of cells.

    An empty file has no rows, a wrong header is fatal and a leading UTF-8
    byte-order mark is ignored. The caller unpacks each row into its
    len(columns) fields and parses them; a row that fails is handed to
    reject(), which skips an all-blank row uncounted and logs any other,
    with its line number, as malformed. n_rows counts the non-blank rows.
    """

    def __init__(self, path, columns: tuple[str, ...]):
        self.path = path
        self.columns = columns
        self.line_no = 1
        self.n_rows = self.n_blank = self.n_malformed = 0

    def __iter__(self):
        with reading(self.path), open(self.path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return
            names = tuple(h.strip().lower() for h in header)
            if names != self.columns:
                raise FormatError(f"{self.path}: expected columns {self.columns}, found {names}")
            for self.line_no, self.row in enumerate(reader, start=2):
                yield self.row
        self.n_rows = self.line_no - 1 - self.n_blank

    def reject(self, exc: ValueError) -> None:
        row = self.row
        if not any(cell.strip() for cell in row):
            self.n_blank += 1
            return
        if len(row) != len(self.columns):  # the caller's unpacking failed
            exc = ValueError(f"expected {len(self.columns)} fields, found {len(row)}")
        log.warning("%s line %d: skipping malformed row (%s)", self.path, self.line_no, exc)
        self.n_malformed += 1


def ingest_exam_log(path) -> ExamLogIngest:
    """Parse the exam report log into columns.

    Rows are read and rejected as _Rows says. The location cell is checked
    but not kept. A row whose exam_id an earlier parsed row already had is
    excluded as a duplicate. Negative TATs arise when a manually entered
    scan time postdates the automatically captured report time; those rows
    are counted, not kept.
    """
    roles = _Tokens(ReaderRole, "reader role")
    diagnoses = _Tokens(Diagnosis, "diagnosis")
    locations = _Tokens(Location, "location")
    offsets = _Offsets()
    reader_roles: dict[str, ReaderRole] = {}
    scan_utc, scan_wall, tat_us = array("q"), array("q"), array("q")
    positive = bytearray()
    seen: set[str] = set()
    n_duplicate = n_negative = 0
    rows = _Rows(path, EXAM_LOG_COLUMNS)
    for row in rows:
        try:
            exam_id, scan, signed, reader_id, role, diagnosis, location = row
            scan = _parse_timestamp(scan)
            signed = _parse_timestamp(signed)
            role = roles[role]
            diagnosis = diagnoses[diagnosis]
            locations[location]  # checked, not kept
        except ValueError as exc:
            rows.reject(exc)
            continue
        exam_id = exam_id.strip()
        if exam_id in seen:
            n_duplicate += 1
            continue
        seen.add(exam_id)
        tat = (signed - scan) // _US
        if tat < 0:
            n_negative += 1
            continue
        utc = (scan - _EPOCH) // _US
        scan_utc.append(utc)
        scan_wall.append(utc + offsets[scan.tzinfo])
        tat_us.append(tat)
        positive.append(diagnosis is Diagnosis.POSITIVE)
        reader_roles[reader_id.strip()] = role
    return ExamLogIngest(
        scan_utc_us=np.frombuffer(scan_utc, np.int64),
        scan_wall_us=np.frombuffer(scan_wall, np.int64),
        tat_minutes=np.frombuffer(tat_us, np.int64) / 1e6 / 60.0,
        positive=np.frombuffer(positive, np.bool_),
        roles=reader_roles,
        n_excluded_negative=n_negative,
        n_duplicate_exam_id=n_duplicate,
        n_malformed=rows.n_malformed,
        n_rows=rows.n_rows,
    )


def ingest_closure_log(path) -> ClosureLogIngest:
    """Parse the case-closure log (reader, closure time, exam class) into
    columns, rejecting rows as ingest_exam_log does."""
    classes = _Tokens(ExamClass, "exam class")
    class_code = {exam_class: k for k, exam_class in enumerate(ExamClass)}
    offsets = _Offsets()
    reader_code: dict[str, int] = {}
    reader_col, closed_utc, closed_wall = array("q"), array("q"), array("q")
    class_col = bytearray()
    rows = _Rows(path, CLOSURE_LOG_COLUMNS)
    for row in rows:
        try:
            reader_id, closed, exam_class = row
            closed = _parse_timestamp(closed)
            exam_class = classes[exam_class]
        except ValueError as exc:
            rows.reject(exc)
            continue
        utc = (closed - _EPOCH) // _US
        closed_utc.append(utc)
        closed_wall.append(utc + offsets[closed.tzinfo])
        reader_col.append(reader_code.setdefault(reader_id.strip(), len(reader_code)))
        class_col.append(class_code[exam_class])
    return ClosureLogIngest(
        readers=tuple(reader_code),
        reader=np.frombuffer(reader_col, np.int64),
        closed_utc_us=np.frombuffer(closed_utc, np.int64),
        closed_wall_us=np.frombuffer(closed_wall, np.int64),
        exam_class=np.frombuffer(class_col, np.uint8),
        n_malformed=rows.n_malformed,
        n_rows=rows.n_rows,
    )


# Cohort blocks of a day: off-hours before work_start (or the whole of a
# weekend day or holiday), work hours, and off-hours from work_end on.
WORK_BLOCK = 1


def day_number(d: date) -> int:
    """Days since 1970-01-01, the day numbers cohort_blocks returns."""
    return d.toordinal() - _EPOCH_ORDINAL


def cohort_blocks(
    wall_us: np.ndarray, cfg: AnalysisConfig = AnalysisConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Day number (see day_number) and cohort block of each wall-clock time,
    in microseconds.

    A time is in the work-hour cohort iff its block is WORK_BLOCK: a weekday
    not in cfg.holidays with local time in [cfg.work_start, cfg.work_end).
    Weekday off-hours split into a morning block 0 and an evening block 2 so
    that no gap ever spans the working day; nothing spans midnight either.
    """
    wall = np.asarray(wall_us, dtype=np.int64)
    day = wall // _US_PER_DAY
    clock = wall - day * _US_PER_DAY
    start, end = (
        ((t.hour * 60 + t.minute) * 60 + t.second) * 10**6 + t.microsecond
        for t in (cfg.work_start, cfg.work_end)
    )
    block = np.where(clock < start, 0, np.where(clock < end, WORK_BLOCK, 2))
    # 1970-01-01 was a Thursday, weekday 3.
    off_day = (day + 3) % 7 >= 5
    if cfg.holidays:
        off_day |= np.isin(day, [day_number(d) for d in cfg.holidays])
    block[off_day] = 0
    return day, block


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

    The fit is solved by variable projection: for a fixed mean m the best
    amplitude is linear in the densities and has a closed form, so only m
    is searched, with a bounded scalar minimisation of the residual left
    after the amplitude is profiled out. The result is the exact
    least-squares minimiser in [m_sample / 3, 3 m_sample].

    The fit only runs when the histogram can support it (_MIN_FIT_SAMPLES
    gaps and several occupied bins); sparse histograms make two-parameter
    fits drift badly upward. Below the threshold, or when the fitted mean
    pins to within 2% of a bound of its search band, the sample mean is
    reported with the r-squared measured against the exponential shape it
    implies (converged=False). With weighted=True, each bin's squared
    residual is weighted by 1 / max(count, 1), its Poisson variance.
    """
    values = np.asarray(gaps, dtype=float)
    if values.size < 2:
        raise InsufficientDataError(f"need at least 2 gaps to fit, got {values.size}")
    if bin_width <= 0:
        raise ParameterError(f"bin width must be > 0, got {bin_width}")
    if values.min() < 0:
        raise ParameterError(f"gaps must be >= 0, got {values.min()}")
    n = values.size
    m_sample = float(values.mean())
    upper = max(bin_width, float(np.ceil(values.max() / bin_width)) * bin_width)
    edges = np.arange(0.0, upper + bin_width / 2.0, bin_width)
    counts, _ = np.histogram(values, edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    density = counts / (n * bin_width)

    # Legitimate truncation corrections move the mean by a few percent, so a
    # fit escaping a 3x band around the sample mean is noise, not signal.
    lo_m, hi_m = m_sample / 3.0, m_sample * 3.0
    converged = n >= _MIN_FIT_SAMPLES and int((counts > 0).sum()) >= _MIN_OCCUPIED_BINS
    if converged:
        weight = 1.0 / np.maximum(counts, 1.0) if weighted else np.ones_like(density)
        weighted_density = weight * density
        # The basis is scaled to 1 at the first center, which changes
        # neither the best fit nor its residual, and keeps
        # sum(weight * basis**2) >= weight[0] > 0 however steep the decay.
        offsets = centers - centers[0]

        def projection(m):
            basis = np.exp(-offsets / m)
            return basis, (weighted_density @ basis) / (weight @ (basis * basis))

        def profiled_residual(m):
            # Less its constant term, sum(weight * density**2).
            basis, amplitude = projection(m)
            return -amplitude * (weighted_density @ basis)

        search = minimize_scalar(
            profiled_residual,
            bounds=(lo_m, hi_m),
            method="bounded",
            options={"xatol": 1e-9 * m_sample},
        )
        m_fit = float(search.x)
        basis, amplitude = projection(m_fit)
        predicted = amplitude * basis
        converged = search.success and 1.02 * lo_m < m_fit < 0.98 * hi_m
    if not converged:
        m_fit = m_sample
        predicted = (1.0 / m_sample) * np.exp(-centers / m_sample)
    ss_res = float(np.sum((density - predicted) ** 2))
    ss_tot = float(np.sum((density - density.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return HistogramFit(m_fit, m_sample, r2, n, converged)


@dataclass(frozen=True)
class ExponentialFit:
    """Daily inter-arrival fit for one cohort."""

    day: date
    cohort: Cohort
    mean: float
    mean_sample: float
    r2: float
    n: int


def _groups(key: np.ndarray, values: np.ndarray):
    """(key, values) for each distinct key in ascending order; a stable sort
    keeps each key's values in their given order."""
    order = np.argsort(key, kind="stable")
    key, values = key[order], values[order]
    edges = np.flatnonzero(key[1:] != key[:-1]) + 1
    return zip(np.r_[key[:1], key[edges]].tolist(), np.split(values, edges))


def daily_interarrival_fits(
    utc_us: np.ndarray, wall_us: np.ndarray, cfg: AnalysisConfig = AnalysisConfig()
) -> list[ExponentialFit]:
    """Fit the daily inter-arrival distribution per (day, cohort).

    utc_us and wall_us are the arrival times as in ExamLogIngest. Gaps are
    taken between consecutive arrivals in UTC order that fall in one
    contiguous cohort block (see cohort_blocks); day-cohorts with fewer than
    cfg.min_daily_gaps gaps are skipped and logged. Histograms have bins of
    cfg.interarrival_bin_minutes, weighted as cfg.weighted_fits says.
    """
    order = np.argsort(utc_us, kind="stable")
    utc = np.asarray(utc_us, dtype=np.int64)[order]
    day, block = cohort_blocks(np.asarray(wall_us)[order], cfg)
    same = (day[1:] == day[:-1]) & (block[1:] == block[:-1])
    gaps = np.diff(utc)[same] / 1e6 / 60.0
    # Grouped by (day, cohort), off-hours first as "off" < "work", each
    # group's gaps in arrival order.
    key = day[1:][same] * 2 + (block[1:][same] == WORK_BLOCK)
    fits = []
    min_gaps = max(cfg.min_daily_gaps, 2)  # a single gap cannot constrain a fit
    for group_key, group in _groups(key, gaps):
        day_number, work = divmod(group_key, 2)
        day_of_fit = date.fromordinal(_EPOCH_ORDINAL + day_number)
        cohort = Cohort.WORK_HOUR if work else Cohort.OFF_HOUR
        if group.size < min_gaps:
            log.info(
                "skipping %s %s: %d gaps < minimum %d", day_of_fit, cohort.value, group.size, min_gaps
            )
            continue
        fit = fit_exponential_histogram(group, cfg.interarrival_bin_minutes, cfg.weighted_fits)
        fits.append(
            ExponentialFit(day_of_fit, cohort, fit.mean, fit.mean_sample, fit.r2, fit.n)
        )
    return fits


def summarize_interarrival(fits: Sequence[ExponentialFit], cohort: Cohort) -> dict:
    """The params.json summary of one cohort's daily fits: the mean and
    one-sigma range of their fitted means, the number of days, and the mean
    and sd of their r-squared (NaN dropped; None when too few remain)."""
    cohort_fits = [f for f in fits if f.cohort is cohort]
    if len(cohort_fits) < 2:
        raise InsufficientDataError(
            f"need >= 2 daily fits for cohort {cohort.value}, got {len(cohort_fits)}"
        )
    means = np.asarray([f.mean for f in cohort_fits])
    mean = float(means.mean())
    sigma = float(means.std(ddof=1))
    if sigma == 0.0:
        log.warning("all %s daily means identical: zero variance summary", cohort.value)
    r2 = [f.r2 for f in cohort_fits if f.r2 == f.r2]  # drop NaN
    r2_mean = sum(r2) / len(r2) if r2 else None
    r2_sd = (
        (sum((value - r2_mean) ** 2 for value in r2) / (len(r2) - 1)) ** 0.5
        if len(r2) > 1
        else None
    )
    return {
        "mean": mean,
        "sigma": sigma,
        "range68": [mean - sigma, mean + sigma],
        "n_days": len(cohort_fits),
        "r2_mean": r2_mean,
        "r2_sd": r2_sd,
    }


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
    closures: ClosureLogIngest,
    roles: Mapping[str, ReaderRole],
    cfg: AnalysisConfig = AnalysisConfig(),
) -> ReadTimeSummary:
    """Estimate per-class read times from inter-case-closure gaps.

    The gap between a reader's consecutive closures on one day approximates
    the read time of the later exam, so gaps inherit the class of the later
    closure. Cleaning rules: only residents count (consecutive reading is a
    poor assumption for staff), closures at the same instant as the
    reader's previous one are duplicates, gaps above cfg.max_read_gap_minutes
    are treated as breaks, and reader-days (in each closure's own zone
    offset) with fewer than cfg.min_daily_closures closures are dropped
    wholesale. Per (reader, class) groups need cfg.min_gaps_per_fit gaps for
    a fit, binned by cfg.readtime_bin_minutes; per-class aggregates average
    the per-reader fitted means.
    """
    readers, classes = closures.readers, list(ExamClass)
    resident = np.array([roles.get(r) is ReaderRole.RESIDENT for r in readers], dtype=bool)
    kept = resident[closures.reader]
    n_non_resident = kept.size - int(kept.sum())
    reader = closures.reader[kept]
    utc = closures.closed_utc_us[kept]
    day = closures.closed_wall_us[kept] // _US_PER_DAY
    exam_class = closures.exam_class[kept]

    # Each reader's closures in time order, then those at the instant of
    # the previous one dropped.
    order = np.lexsort((utc, reader))
    reader, utc, day, exam_class = reader[order], utc[order], day[order], exam_class[order]
    duplicate = np.zeros(reader.size, dtype=bool)
    duplicate[1:] = (reader[1:] == reader[:-1]) & (utc[1:] == utc[:-1])
    n_duplicates = int(duplicate.sum())
    unique = ~duplicate
    reader, utc, day, exam_class = reader[unique], utc[unique], day[unique], exam_class[unique]

    # Reader-day chains, each in time order; thin ones are dropped.
    order = np.lexsort((day, reader))
    reader, utc, day, exam_class = reader[order], utc[order], day[order], exam_class[order]
    chain = np.zeros(reader.size, dtype=np.int64)
    chain[1:] = np.cumsum((reader[1:] != reader[:-1]) | (day[1:] != day[:-1]))
    lengths = np.bincount(chain)
    n_days_dropped = int((lengths < cfg.min_daily_closures).sum())
    full = lengths[chain] >= cfg.min_daily_closures
    pair = full[1:] & (chain[1:] == chain[:-1])
    gaps = np.diff(utc)[pair] / 1e6 / 60.0
    over = gaps > cfg.max_read_gap_minutes
    n_gaps_over = int(over.sum())
    # Grouped by (reader, class of the later closure), each group's gaps in
    # chain order.
    key = (reader[1:][pair] * len(classes) + exam_class[1:][pair])[~over]

    per_reader: list[ReaderClassFit] = []
    for group_key, group in _groups(key, gaps[~over]):
        if group.size < cfg.min_gaps_per_fit:
            continue
        code, k = divmod(group_key, len(classes))
        fit = fit_exponential_histogram(group, cfg.readtime_bin_minutes, cfg.weighted_fits)
        per_reader.append(ReaderClassFit(readers[code], classes[k], fit.mean, fit.n, fit.r2))
    per_reader.sort(key=lambda f: (f.reader_id, f.exam_class.value))

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
