"""Differential check of the column-wise ingest, cohort segmentation, daily
inter-arrival fits and read-time estimation against the per-row reference
in reference_ingest.py: equal counts, columns, warnings, fits and
exclusions on dirty logs.

The logs mix zone offsets (New York time across the 2024-03-10 change from
-05:00 to -04:00, +05:30, +00:00 and a Z suffix), so a row's day and cohort
come from its own offset, and carry the dirt ingest must survive: blank
rows, wrong field counts, respelled and unknown tokens, padded cells, naive
and unparseable stamps, negative TATs and tied timestamps.
"""
import codecs
import dataclasses
import logging
from datetime import date, datetime, time, timedelta, timezone

import numpy as np
import pytest
import reference_ingest as reference
from reference_ingest import closure_columns, stamp_columns

from triagesim import Cohort, Diagnosis, ReaderRole, trial_stream
from triagesim.config import AnalysisConfig
from triagesim.estimation import (
    WORK_BLOCK,
    cohort_blocks,
    daily_interarrival_fits,
    day_number,
    estimate_read_times,
    ingest_closure_log,
    ingest_exam_log,
)
from triagesim.synthetic import SyntheticSpec, generate_closure_rows, generate_exam_rows

UTC = timezone.utc
EASTERN_STANDARD = timezone(timedelta(hours=-5))
EASTERN_DAYLIGHT = timezone(timedelta(hours=-4))
INDIA = timezone(timedelta(hours=5, minutes=30))
# 2024-03-10 02:00 EST, when New York clocks jump to 03:00 EDT.
DST_START = datetime(2024, 3, 10, 7, 0, tzinfo=UTC)

EXAM_HEADER = "exam_id,scan_completed_at,report_signed_at,reader_id,reader_role,diagnosis,location"
CLOSURE_HEADER = "reader_id,closed_at,exam_class"


def new_york(t: datetime) -> datetime:
    return t.astimezone(EASTERN_STANDARD if t < DST_START else EASTERN_DAYLIGHT)


def render(t: datetime, rng) -> str:
    """The instant t written in one of the zone offsets and spellings a log
    may hold."""
    u = rng.random()
    if u < 0.45:
        return new_york(t).isoformat()
    if u < 0.6:
        return t.astimezone(INDIA).isoformat()
    if u < 0.75:
        return t.astimezone(UTC).isoformat()
    if u < 0.9:
        return t.astimezone(UTC).isoformat().replace("+00:00", "Z")
    return f"  {new_york(t).isoformat()} "


def respell(token: str, rng) -> str:
    """token in random case, with spaces, underscores or dashes between its
    letters and padding around it, all of which ingest normalises away."""
    out = []
    for ch in token:
        out.append(ch.upper() if rng.random() < 0.3 else ch.lower())
        if rng.random() < 0.1:
            out.append(" _-"[int(rng.integers(3))])
    padded = "".join(out)
    return f" {padded}  " if rng.random() < 0.1 else padded


def dirty_exam_log(path, seed: int) -> None:
    rng = trial_stream(seed, 7)
    spec = SyntheticSpec(seed=seed, start_date=date(2024, 3, 4), n_days=12, n_negative_tat=15)
    rows, _ = generate_exam_rows(spec)
    lines = []
    for exam_id, scan, signed, reader, role, diagnosis, location in rows:
        scan_t = datetime.fromisoformat(scan)
        signed_t = datetime.fromisoformat(signed)
        if rng.random() < 0.02 and lines:
            # Tied with the previous exam, possibly written in another offset.
            scan_t = datetime.fromisoformat(lines[-1].split(",")[1].strip().replace("Z", "+00:00"))
            signed_t = scan_t + timedelta(minutes=float(rng.exponential(30.0)))
        cells = [
            exam_id,
            render(scan_t, rng),
            render(signed_t, rng),
            reader if rng.random() < 0.9 else f" {reader} ",
            respell(role, rng),
            respell(diagnosis, rng),
            respell(location, rng),
        ]
        lines.append(",".join(cells))
    good = lines[len(lines) // 2].split(",")
    dirt = [
        ",,,,,,",
        "  , ,\t,,, , ",
        "",
        "   ",
        "X1,too,few",
        ",".join(["X2", *good[1:], "extra"]),
        ",".join(["X3", "not-a-time", *good[2:]]),
        ",".join(["X4", good[1], "2024-03-08T10:00:00", *good[3:]]),
        ",".join(["X5", "2024-13-01T10:00:00+00:00", *good[2:]]),
        ",".join(["X6", *good[1:4], "Janitor", *good[5:]]),
        ",".join(["X7", *good[1:5], "Wrong", good[6]]),
        ",".join(["X8", *good[1:6], "Moon Base"]),
        ",".join(["X9", good[1], good[1], *good[3:]]),  # a TAT of zero is kept
    ]
    for k, line in enumerate(dirt * 3):
        if line.startswith("X"):
            line = f"{line.split(',', 1)[0]}_{k}," + line.split(",", 1)[1]
        lines.insert(int(rng.integers(len(lines) + 1)), line)
    path.write_text("\n".join([EXAM_HEADER, *lines]) + "\n")


def dirty_closure_log(path, seed: int) -> None:
    rng = trial_stream(seed, 8)
    spec = SyntheticSpec(seed=seed, start_date=date(2024, 3, 4), n_days=12, readers_per_day=4)
    rows, _ = generate_closure_rows(spec)
    lines = []
    for reader, closed, exam_class in rows:
        closed_t = datetime.fromisoformat(closed)
        lines.append(",".join([reader, render(closed_t, rng), respell(exam_class, rng)]))
    good = lines[len(lines) // 3].split(",")
    dirt = [
        ",,",
        " , ,  ",
        "",
        "r001,2024-03-08T10:00:00+00:00",
        "r001,2024-03-08T10:00:00+00:00,pe_positive,extra",
        f"{good[0]},yesterday,{good[2]}",
        f"{good[0]},2024-03-08T10:00:00,{good[2]}",
        f"{good[0]},{good[1]},mystery",
    ]
    for line in dirt * 3:
        lines.insert(int(rng.integers(len(lines) + 1)), line)
    path.write_text("\n".join([CLOSURE_HEADER, *lines]) + "\n")


def warnings_from(caplog, logger: str) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == logger and r.levelno == logging.WARNING]


def ingest_both(ingest, reference_ingest, path, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        new = ingest(path)
        ref = reference_ingest(path)
    assert warnings_from(caplog, "triagesim.estimation") == warnings_from(caplog, "reference_ingest")
    assert warnings_from(caplog, "triagesim.estimation")
    return new, ref


SEEDS = (3, 14)


@pytest.mark.parametrize("seed", SEEDS)
def test_exam_log_columns_match_reference(tmp_path, caplog, seed):
    path = tmp_path / "exam.csv"
    dirty_exam_log(path, seed)
    new, ref = ingest_both(ingest_exam_log, reference.ingest_exam_log, path, caplog)
    assert (new.n_rows, new.n_malformed, new.n_excluded_negative) == (
        ref.n_rows,
        ref.n_malformed,
        ref.n_excluded_negative,
    )
    assert ref.n_malformed == 24 and ref.n_excluded_negative >= 10
    assert new.n_duplicate_exam_id == 0
    records = ref.records
    utc, wall = stamp_columns([r.scan_completed_at for r in records])
    np.testing.assert_array_equal(new.scan_utc_us, utc)
    np.testing.assert_array_equal(new.scan_wall_us, wall)
    np.testing.assert_array_equal(new.tat_minutes, [r.tat_minutes for r in records])
    np.testing.assert_array_equal(new.positive, [r.diagnosis is Diagnosis.POSITIVE for r in records])
    assert new.roles == {r.reader_id: r.reader_role for r in records}
    assert len(records) + new.n_excluded_negative + new.n_malformed == new.n_rows


@pytest.mark.parametrize("seed", SEEDS)
def test_closure_log_columns_match_reference(tmp_path, caplog, seed):
    path = tmp_path / "closures.csv"
    dirty_closure_log(path, seed)
    new, ref = ingest_both(ingest_closure_log, reference.ingest_closure_log, path, caplog)
    assert (new.n_rows, new.n_malformed) == (ref.n_rows, ref.n_malformed)
    assert ref.n_malformed == 15
    expected = closure_columns(ref.records)
    np.testing.assert_array_equal(new.closed_utc_us, expected.closed_utc_us)
    np.testing.assert_array_equal(new.closed_wall_us, expected.closed_wall_us)
    assert new.readers == expected.readers
    np.testing.assert_array_equal(new.reader, expected.reader)
    np.testing.assert_array_equal(new.exam_class, expected.exam_class)


@pytest.mark.parametrize(
    "write, ingest", [(dirty_exam_log, ingest_exam_log), (dirty_closure_log, ingest_closure_log)]
)
def test_byte_order_mark_is_ignored(tmp_path, caplog, write, ingest):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write(plain, SEEDS[0])
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        a = ingest(plain)
        plain_warnings = warnings_from(caplog, "triagesim.estimation")
        b = ingest(marked)
    marked_warnings = warnings_from(caplog, "triagesim.estimation")[len(plain_warnings) :]
    assert plain_warnings and marked_warnings == [
        w.replace(str(plain), str(marked)) for w in plain_warnings
    ]
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


CALENDARS = (
    {},
    {"holidays": frozenset({date(2024, 3, 11)}), "work_start": time(7, 30), "work_end": time(16, 45)},
)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("calendar", CALENDARS)
def test_daily_fits_match_reference(tmp_path, caplog, seed, calendar):
    path = tmp_path / "exam.csv"
    dirty_exam_log(path, seed)
    new, ref = ingest_both(ingest_exam_log, reference.ingest_exam_log, path, caplog)
    for bin_minutes, min_gaps in ((1.0, 5), (2.0, 40)):
        cfg = AnalysisConfig(interarrival_bin_minutes=bin_minutes, min_daily_gaps=min_gaps, **calendar)
        fits = daily_interarrival_fits(new.scan_utc_us, new.scan_wall_us, cfg)
        expected = reference.daily_interarrival_fits(
            [r.scan_completed_at for r in ref.records],
            bin_minutes=bin_minutes,
            min_gaps=min_gaps,
            **calendar,
        )
        # repr shows every float in full, NaN included.
        assert repr(fits) == repr(expected)
        assert {f.cohort for f in fits} == {Cohort.WORK_HOUR, Cohort.OFF_HOUR}


@pytest.mark.parametrize(
    "seed, reverse",
    [(seed, reverse) for reverse in (False, True) for seed in SEEDS],
    ids=[f"{seed}{'-reversed' * reverse}" for reverse in (False, True) for seed in SEEDS],
)
def test_read_times_match_reference(tmp_path, caplog, seed, reverse):
    # Reversed, readers first appear out of the sorted order of their ids,
    # which the fits must still follow.
    exam_path, closure_path = tmp_path / "exam.csv", tmp_path / "closures.csv"
    dirty_exam_log(exam_path, seed)
    dirty_closure_log(closure_path, seed)
    if reverse:
        header, *lines = closure_path.read_text().splitlines()
        closure_path.write_text("\n".join([header, *reversed(lines)]) + "\n")
    exams = reference.ingest_exam_log(exam_path)
    roles = {r.reader_id: r.reader_role for r in exams.records}
    new, ref = ingest_both(ingest_closure_log, reference.ingest_closure_log, closure_path, caplog)
    residents = [r for r in new.readers if roles.get(r) is ReaderRole.RESIDENT]
    assert (residents != sorted(residents)) == reverse
    for settings, cfg in (
        ({}, AnalysisConfig()),
        (
            {"min_daily_closures": 10, "max_gap_minutes": 20.0, "min_gaps": 40},
            AnalysisConfig(min_daily_closures=10, max_read_gap_minutes=20.0, min_gaps_per_fit=40),
        ),
    ):
        summary = estimate_read_times(new, roles, cfg)
        expected = reference.estimate_read_times(ref.records, roles, **settings)
        assert repr(summary) == repr(expected)
        exclusions = summary.exclusions
        assert exclusions.n_non_resident_closures > 0 and exclusions.n_gaps_over_max > 0
        assert exclusions.n_duplicate_closures >= 3
        assert summary.per_reader


def test_empty_columns_match_reference():
    empty = stamp_columns([])
    assert daily_interarrival_fits(*empty) == reference.daily_interarrival_fits([]) == []
    summary = estimate_read_times(closure_columns([]), {})
    assert repr(summary) == repr(reference.estimate_read_times([], {}))


class TestMixedOffsetsAndDst:
    """Each time's own offset decides its day and cohort: across New York's
    change to daylight time and beside +05:30 times, blocks equal the
    reference's _segment_key and assign_cohort on every datetime."""

    def stamps(self):
        rng = trial_stream(10)
        t = datetime(2024, 3, 8, 12, 0, tzinfo=UTC)
        stamps = []
        while t < datetime(2024, 3, 13, tzinfo=UTC):
            stamps.append(t.astimezone(INDIA) if rng.random() < 0.3 else new_york(t))
            # Ties and sub-second steps along with minute-scale gaps.
            t += timedelta(seconds=float(rng.choice([0.0, 0.5, 60.0 * rng.exponential(7.0)])))
        return stamps

    @pytest.mark.parametrize("calendar", CALENDARS)
    def test_blocks_equal_reference(self, calendar):
        stamps = self.stamps()
        holidays = calendar.get("holidays", frozenset())
        work_start = calendar.get("work_start", time(8, 0))
        work_end = calendar.get("work_end", time(17, 0))
        day, block = cohort_blocks(stamp_columns(stamps)[1], AnalysisConfig(**calendar))
        keys = [reference._segment_key(t, holidays, work_start, work_end) for t in stamps]
        cohorts = [reference.assign_cohort(t, holidays, work_start, work_end) for t in stamps]
        assert day.tolist() == [day_number(k[0]) for k in keys]
        assert block.tolist() == [k[2] for k in keys]
        assert [Cohort.WORK_HOUR if b == WORK_BLOCK else Cohort.OFF_HOUR for b in block] == cohorts
        assert [k[1] for k in keys] == cohorts
        # Both offsets of New York and the +05:30 times all occur.
        assert {t.utcoffset() for t in stamps} == {
            EASTERN_STANDARD.utcoffset(None),
            EASTERN_DAYLIGHT.utcoffset(None),
            INDIA.utcoffset(None),
        }

    @pytest.mark.parametrize("calendar", CALENDARS)
    def test_gap_segmentation_equals_reference(self, calendar):
        stamps = self.stamps()
        fits = daily_interarrival_fits(*stamp_columns(stamps), AnalysisConfig(min_daily_gaps=2, **calendar))
        expected = reference.daily_interarrival_fits(stamps, min_gaps=2, **calendar)
        assert repr(fits) == repr(expected)
        assert len(fits) >= 5

    def test_local_day_not_utc_day(self):
        # 21:30 EST on Friday 2024-03-08 is 02:30 UTC on Saturday, and 08:30
        # IST on Monday 2024-03-11 is 03:00 UTC that Monday.
        stamps = [
            datetime(2024, 3, 8, 21, 30, tzinfo=EASTERN_STANDARD),
            datetime(2024, 3, 11, 8, 30, tzinfo=INDIA),
            datetime(2024, 3, 11, 8, 30, tzinfo=EASTERN_DAYLIGHT),
        ]
        day, block = cohort_blocks(stamp_columns(stamps)[1])
        assert day.tolist() == [day_number(date(2024, 3, d)) for d in (8, 11, 11)]
        assert block.tolist() == [2, WORK_BLOCK, WORK_BLOCK]
