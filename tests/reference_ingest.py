"""Test-only reference: the per-row log ingest, cohort assignment, daily
inter-arrival fits and read-time estimation that the program used before
its column-wise ingest, kept verbatim so the new code can be checked
against them value for value. Only the timestamp parser is newer: it reads
the one timestamp grammar with a regular expression and datetime's own
constructors, the same on every Python version.

They build one frozen record per row and one datetime per timestamp, so
they are slow; tests call them on short logs. The two converters at the
end turn their datetimes and records into the columns the program uses.
"""
from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from typing import Iterable, Mapping

import numpy as np

from triagesim.config import AnalysisConfig
from triagesim.core import Cohort, Diagnosis, ExamClass, Location, ReaderRole
from triagesim.errors import FormatError
from triagesim.estimation import (
    CLOSURE_LOG_COLUMNS,
    EXAM_LOG_COLUMNS,
    ClassReadTime,
    ExponentialFit,
    ReaderClassFit,
    ReadTimeExclusions,
    ReadTimeSummary,
    ClosureLogIngest as ClosureColumns,
    fit_exponential_histogram,
)

log = logging.getLogger(__name__)


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


# The timestamp grammar, written out apart from the program's: padding, a T
# or a space between date and time, seconds optional, a fraction of 1-6
# digits only after them, and Z or a sign with hours and minutes.
_TIMESTAMP = re.compile(
    r"(\d{4})-(\d\d)-(\d\d)[T ](\d\d):(\d\d)(?::(\d\d)(?:\.(\d{1,6}))?)?(Z|([+-])(\d\d):(\d\d))",
    re.ASCII,
)


def _parse_timestamp(raw: str) -> datetime:
    try:
        match = _TIMESTAMP.fullmatch(raw.strip())
        if match is None:
            raise ValueError
        year, month, day, hour, minute, second, fraction, _, sign, zone_h, zone_m = match.groups()
        if zone_m and int(zone_m) >= 60:
            raise ValueError
        zone = timedelta(hours=int(zone_h or 0), minutes=int(zone_m or 0))
        return datetime(
            int(year),
            int(month),
            int(day),
            int(hour),
            int(minute),
            int(second or 0),
            int((fraction or "").ljust(6, "0")),
            tzinfo=timezone(-zone if sign == "-" else zone),
        )
    except ValueError:
        raise ValueError(
            f"timestamp {raw!r} is not a valid time YYYY-MM-DD(T| )HH:MM[:SS[.ffffff]](Z|+HH:MM|-HH:MM)"
        ) from None


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
        for line_no, row in zip(iter(lambda: reader.line_num + 1, None), reader):
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


# --------------------------------------------------------------------------
# converters to the program's columns

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)


def stamp_columns(stamps) -> tuple[np.ndarray, np.ndarray]:
    """UTC and wall-clock microseconds of aware datetimes."""
    utc = np.array([(t - _EPOCH) // _US for t in stamps], dtype=np.int64)
    offset = np.array([t.utcoffset() // _US for t in stamps], dtype=np.int64)
    return utc, utc + offset


def closure_columns(records) -> ClosureColumns:
    """The closure-log columns holding the given ClosureRecords, in order."""
    utc, wall = stamp_columns([r.closed_at for r in records])
    reader_code = {}
    reader = [reader_code.setdefault(r.reader_id, len(reader_code)) for r in records]
    classes = list(ExamClass)
    return ClosureColumns(
        readers=tuple(reader_code),
        reader=np.array(reader, dtype=np.int64),
        closed_utc_us=utc,
        closed_wall_us=wall,
        exam_class=np.array([classes.index(r.exam_class) for r in records], dtype=np.uint8),
        n_malformed=0,
        n_rows=len(records),
    )
