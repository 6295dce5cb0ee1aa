"""Timestamp-log ingestion and workflow-parameter estimation.

Two logs drive everything:

* an exam report log (one row per exam: scan completion, first report
  sign-off, reader, diagnosis), from which turnaround times, arrival
  patterns, and prevalence counts come;
* a case-closure log (one row per closed case: reader, closure time, exam
  class), whose per-reader inter-closure gaps serve as a read-time
  surrogate.

Both logs are read by _Rows, the one definition of a valid row and of
every warning. It reads a chunk of text at a time, parses it column by
column (timestamps in the shape isoformat() writes by numpy, tokens through
one cache per enum), parses the rows that step cannot take one cell at a
time, and yields the valid rows only. Each ingest function adds only its
own log's rules.

Distribution means are estimated by least-squares fits of a * exp(-t / m) to
density-normalized gap histograms, with the amplitude a in closed form and
a bounded search over m (variable projection). The fitted mean, unlike the
plain sample mean, is unaffected by truncation rules (dropped long gaps, day
boundaries) because cutting the tail of an exponential does not change its
shape; the sample mean is carried alongside for comparison.
"""
from __future__ import annotations

import contextlib
import csv
import enum
import io
import logging
import re
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import chain, compress, repeat
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .config import AnalysisConfig
from .core import Cohort, Diagnosis, ExamClass, Location, ReaderRole
from .errors import FormatError, InsufficientDataError, ParameterError, integer, positive, reading, share

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


# The minutes and seconds of a zone offset at the end of a stamp. Python 3.11's
# fromisoformat carries a value of 60 or more into the next field, reading
# +05:60 as +06:00.
_OFFSET = re.compile(r"[+-]\d\d:?(\d\d)(?::?(\d\d))?(?:\.\d+)?\s*$")


def _parse_timestamp(raw: str) -> datetime:
    try:
        parsed = datetime.fromisoformat(raw)
    except ValueError:
        parsed = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp {raw!r} has no zone offset")
    offset = _OFFSET.search(raw)
    if offset and max(int(field or 0) for field in offset.groups()) >= 60:
        raise ValueError(f"timestamp {raw!r} has a zone offset field of 60 or more")
    return parsed


# The one stamp shape parsed in bulk: what isoformat() writes for an aware
# datetime with microseconds, "0" standing for an ASCII digit.
_STAMP = "0000-00-00T00:00:00.000000+00:00"
_DIGIT = np.array([c == "0" for c in _STAMP])
_SEPARATORS = np.array([ord(c) for c in _STAMP if c != "0"], dtype=np.uint32)
_SIGN = _STAMP.replace("0", "").index("+")
# One past the largest value of each two-digit field of _STAMP, and the
# days in each month of a common year (months 0 and 13 have none).
_FIELD_ENDS = np.array([100, 100, 13, 32, 24, 60, 60, 100, 100, 100, 24, 60], dtype=np.uint32)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])


def _stamps(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wall-clock and UTC microseconds of each cell, and whether it was parsed
    in bulk: it has the _STAMP shape and names a date that exists in a year
    other than 0000, a time of day before 24:00 and an offset below 24:00.
    Should numpy still reject a cell, none counts as parsed. Other cells'
    times are meaningless."""
    text = np.array(cells, dtype=str)
    ok = np.ones(text.size, dtype=bool)
    if text.dtype.itemsize != 4 * len(_STAMP):
        ok = np.fromiter(map(len, cells), np.intp, text.size) == len(_STAMP)
        text = text.astype(f"U{len(_STAMP)}")
    code = text.view(np.uint32).reshape(-1, len(_STAMP))
    digits = code[:, _DIGIT] - ord("0")  # unsigned: a code below "0" wraps high
    separators = code[:, ~_DIGIT]
    minus = separators[:, _SIGN] == ord("-")
    separators[minus, _SIGN] = ord("+")
    ok &= (digits <= 9).all(1) & (separators == _SEPARATORS).all(1)
    # The two-digit fields, meaningless where not ok: century, year, month,
    # day, hour, minute, second, the fraction's three and the offset's two.
    fields = digits[:, ::2] * 10 + digits[:, 1::2]
    century, year, month, day, *_, hours, minutes = fields.T
    # numpy can crash rather than raise on a long column holding a cell its
    # parser rejects, so only real dates and times of day may reach it.
    leap_day = (month == 2) & (year % 4 == 0) & ((year > 0) | (century % 4 == 0))
    ok &= (fields < _FIELD_ENDS).all(1) & (century + year > 0) & (day > 0)
    ok &= day <= _MONTH_DAYS[np.minimum(month, 13)] + leap_day
    text[~ok] = "1970-01-01T00:00:00.000000+00:00"
    try:
        local = code[:, :26].astype(np.uint8).view("S26")[:, 0]  # all ASCII now
        wall = local.astype("datetime64[us]").view(np.int64)
    except ValueError:
        wall, ok = np.zeros(text.size, np.int64), np.zeros_like(ok)
    offset = np.where(ok, hours * 60 + minutes, 0) * np.where(minus, -60 * 10**6, 60 * 10**6)
    return wall, wall - offset, ok


def _normalize_token(raw: str) -> str:
    return raw.strip().lower().replace(" ", "").replace("_", "").replace("-", "")


# The accepted spellings that are not a member's value.
_ALIASES = {"l1fellow": ReaderRole.FELLOW, "emergencydepartment": Location.ED}


class _Tokens(dict):
    """Raw cell -> index in members of the member it names, matched on its
    value or an alias after _normalize_token; each distinct raw string is
    normalised once, and an unknown one raises ValueError."""

    def __init__(self, members: type[enum.Enum], what: str):
        super().__init__()
        self.members = list(members)
        self.tokens = {_normalize_token(m.value): k for k, m in enumerate(self.members)}
        aliases = [(t, m) for t, m in _ALIASES.items() if isinstance(m, members)]
        self.tokens.update((t, self.members.index(m)) for t, m in aliases)
        self.what = what

    def __missing__(self, raw: str):
        try:
            code = self.tokens[_normalize_token(raw)]
        except KeyError:
            raise ValueError(f"unknown {self.what} {raw!r}") from None
        self[raw] = code
        return code

    def codes(self, cells: Sequence[str]) -> np.ndarray:
        """The index of each cell, or -1 where it names no member."""
        for raw in set(cells).difference(self):
            with contextlib.suppress(ValueError):
                self[raw]
        return np.fromiter(map(self.get, cells, repeat(-1)), np.int64, len(cells))


def _repeated(ids: list[str], seen: set[str]) -> np.ndarray:
    """Whether each id is in seen or earlier in ids; all are then in seen."""
    distinct = set(ids)
    if len(distinct) == len(ids) and seen.isdisjoint(distinct):
        seen |= distinct
        return np.zeros(len(ids), dtype=bool)
    # seen.add returns None, which is false.
    return np.array([exam_id in seen or seen.add(exam_id) for exam_id in ids], dtype=bool)


# Characters read at a time; each chunk is then extended to a line end.
# Under csv's default field limit (131,072), so an unquoted chunk rarely
# needs the length check to send it to csv.reader.
CHUNK_CHARS = 1 << 16


class _Rows:
    """The valid rows of a log after its header, a chunk at a time, parsed.

    Each column has a kind: str (yielded as its cells), datetime (a 2-row
    array of wall-clock and UTC int64 microseconds) or a _Tokens (member
    indexes). An empty file has no rows, a wrong header is fatal and a
    leading UTF-8 byte-order mark is ignored. Each chunk, about CHUNK_CHARS
    characters cut at a record end, is parsed by _stamps and _Tokens.codes;
    a row they cannot take is parsed a cell at a time in column order, so
    the first cell that fails names the fault. A row with the wrong cell
    count or a failing cell is skipped: uncounted if all blank, else logged
    as malformed with the file line on which it starts. n_rows counts the
    non-blank rows.
    """

    def __init__(self, path, columns: tuple[str, ...], kinds: tuple):
        self.path = path
        self.columns = columns
        self.kinds = kinds
        self.n_rows = self.n_malformed = 0

    def __iter__(self):
        with reading(self.path), open(self.path, newline="", encoding="utf-8-sig") as handle:
            more = iter(handle.readline, "")
            header_reader = csv.reader(more)
            header = next(header_reader, None)
            if header is None:
                return
            names = tuple(h.strip().lower() for h in header)
            if names != self.columns:
                raise FormatError(f"{self.path}: expected columns {self.columns}, found {names}")
            line = header_reader.line_num + 1
            while text := handle.read(CHUNK_CHARS):
                rows, columns, starts = self._split(text + handle.readline(), more, line)
                yield self._valid(rows, columns, starts)
                line = starts[-1]

    def _split(self, text: str, more, line: int):
        """The rows of text (None where the columns hold them), its columns,
        and the file line each row starts on, from line, then the next free
        line. Text with no quote, NUL, lone CR or room for a cell over csv's
        field limit, whose rows all have len(columns) cells, is split with
        str.split, a row to a line; other text goes through csv.reader,
        which reads on from more while a quoted cell is open."""
        k = len(self.columns)
        plain = not ('"' in text or "\0" in text or len(text) > csv.field_size_limit())
        if plain and "\r" in text:
            # Unquoted, CRLF ends a record as LF does; a lone CR does too,
            # but only csv.reader splits on it.
            text = text.replace("\r\n", "\n")
            plain = "\r" not in text
        if plain:
            body = text.removesuffix("\n")
            # Every line end becomes a cell of its own, so the cells of a
            # chunk whose rows all have k cells repeat with period k + 1.
            cells = body.replace("\n", ",\n,").split(",")
            n = (len(cells) + 1) // (k + 1)
            if len(cells) == n * (k + 1) - 1 and cells[k :: k + 1].count("\n") == n - 1:
                return None, [cells[j :: k + 1] for j in range(k)], range(line, line + n + 1)
        lines = list(io.StringIO(text, newline=""))
        reader = csv.reader(chain(lines, more))
        rows, starts = [], [line]
        for row in reader:
            rows.append(row)
            starts.append(line + reader.line_num)
            if reader.line_num >= len(lines):
                break
        return rows, list(zip(*(row if len(row) == k else [""] * k for row in rows))), starts

    def _valid(self, rows, columns: list[Sequence[str]], starts) -> list:
        """The chunk's valid rows, one entry per column."""
        ok = np.ones(len(columns[0]), dtype=bool)
        parsed = []
        for kind, cells in zip(self.kinds, columns):
            if kind is str:
                parsed.append(cells)
            elif kind is datetime:
                wall, utc, bulk = _stamps(cells)
                parsed.append(np.stack([wall, utc]))
                ok &= bulk
            else:
                parsed.append(kind.codes(cells))
                ok &= parsed[-1] >= 0
        self.n_rows += ok.size
        for i in np.flatnonzero(~ok).tolist():
            row = rows[i] if rows is not None else [c[i] for c in columns]
            try:
                if len(row) != len(self.kinds):
                    raise ValueError(f"expected {len(self.kinds)} fields, found {len(row)}")
                for kind, cell, column in zip(self.kinds, row, parsed):
                    if kind is datetime:
                        t = _parse_timestamp(cell)
                        utc = (t - _EPOCH) // _US
                        column[:, i] = utc + t.utcoffset() // _US, utc
                    elif kind is not str:
                        column[i] = kind[cell]
            except ValueError as exc:
                if not any(cell.strip() for cell in row):
                    self.n_rows -= 1
                    continue
                log.warning("%s line %d: skipping malformed row (%s)", self.path, starts[i], exc)
                self.n_malformed += 1
            else:
                ok[i] = True
        if ok.all():
            return parsed
        keep = ok.tolist()
        return [list(compress(c, keep)) if kind is str else c[..., ok] for kind, c in zip(self.kinds, parsed)]


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
    positive_code = diagnoses.members.index(Diagnosis.POSITIVE)
    reader_roles: dict[str, ReaderRole] = {}
    scan_utc, scan_wall, tat_us = array("q"), array("q"), array("q")
    positive = bytearray()
    seen: set[str] = set()
    n_duplicate = n_negative = 0
    kinds = (str, datetime, datetime, str, roles, diagnoses, _Tokens(Location, "location"))
    rows = _Rows(path, EXAM_LOG_COLUMNS, kinds)
    for exam_ids, (wall, utc), (_, signed_utc), reader_ids, role, diagnosis, _ in rows:
        duplicate = _repeated(list(map(str.strip, exam_ids)), seen)
        tat = signed_utc - utc
        n_duplicate += int(duplicate.sum())
        n_negative += int((~duplicate & (tat < 0)).sum())
        kept = ~duplicate & (tat >= 0)
        scan_utc.frombytes(utc[kept].tobytes())
        scan_wall.frombytes(wall[kept].tobytes())
        tat_us.frombytes(tat[kept].tobytes())
        positive += (diagnosis[kept] == positive_code).tobytes()
        retained_readers = map(str.strip, compress(reader_ids, kept.tolist()))
        retained_roles = map(roles.members.__getitem__, role[kept].tolist())
        reader_roles.update(zip(retained_readers, retained_roles))
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
    # Distinct reader ids in order of first appearance -> code, and each raw
    # cell -> the code of its stripped id.
    reader_code: dict[str, int] = {}
    cell_code: dict[str, int] = {}
    reader_col, closed_utc, closed_wall = array("q"), array("q"), array("q")
    class_col = bytearray()
    rows = _Rows(path, CLOSURE_LOG_COLUMNS, (str, datetime, _Tokens(ExamClass, "exam class")))
    for reader_ids, (wall, utc), exam_class in rows:
        closed_utc.frombytes(utc.tobytes())
        closed_wall.frombytes(wall.tobytes())
        class_col += exam_class.astype(np.uint8).tobytes()
        for raw in dict.fromkeys(reader_ids):
            if raw not in cell_code:
                cell_code[raw] = reader_code.setdefault(raw.strip(), len(reader_code))
        reader_col.extend(map(cell_code.__getitem__, reader_ids))
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
    positive("bin_width", bin_width)
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
    if integer("n_npp", n_npp) + integer("n_ncct", n_ncct) == 0:
        raise ParameterError("at least one population must be non-empty")
    return (n_npp * mean_npp + n_ncct * mean_ncct) / (n_npp + n_ncct)


def adjusted_fpf(specificity: float, n_ncct: int, n_npp: int) -> float:
    """Rescale a device's reported FPF for out-of-scope exams in the queue.

    The reported specificity comes from target-modality exams only; when the
    queue also holds exams the device never analyzes, the effective FPF is
    (1 - specificity) / (1 + n_ncct / n_npp).
    """
    share("specificity", specificity)
    integer("n_npp", n_npp, low=1)
    integer("n_ncct", n_ncct)
    return (1.0 - specificity) / (1.0 + n_ncct / n_npp)


def queue_prevalence(n_diseased: int, n_queue_total: int) -> float:
    """Fraction of diseased exams among everything in the reading queue."""
    n_queue_total = integer("n_queue_total", n_queue_total, low=1)
    integer("n_diseased", n_diseased, high=n_queue_total)
    return n_diseased / n_queue_total
