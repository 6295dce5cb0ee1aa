"""Differential check of the column-wise ingest, cohort segmentation, daily
inter-arrival fits and read-time estimation against the per-row reference
in reference_ingest.py: equal counts, columns, warnings, fits and
exclusions on dirty logs, also rewritten with CRLF endings, quoted cells,
no final newline or a non-ASCII reader id, and read in tiny chunks.

The logs mix zone offsets (New York time across the 2024-03-10 change from
-05:00 to -04:00, +05:30, +00:00 and a Z suffix), so a row's day and cohort
come from its own offset, and carry the dirt ingest must survive: blank
rows, wrong field counts, respelled and unknown tokens, padded cells, naive
and unparseable stamps, negative TATs and tied timestamps.
"""
import codecs
import csv
import dataclasses
import logging
import re
from datetime import date, datetime, time, timedelta, timezone

import numpy as np
import pytest
import reference_ingest as reference
from reference_ingest import closure_columns, stamp_columns

from triagesim import Cohort, Diagnosis, ReaderRole, estimation, trial_stream
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
from triagesim.synthetic import SyntheticSpec, generate_closure_rows, generate_corpus, generate_exam_rows

UTC = timezone.utc
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
MICROSECOND = timedelta(microseconds=1)
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


def ingest_both(ingest, reference_ingest, path, caplog, warned=True):
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        new = ingest(path)
        ref = reference_ingest(path)
    assert warnings_from(caplog, "triagesim.estimation") == warnings_from(caplog, "reference_ingest")
    assert bool(warnings_from(caplog, "triagesim.estimation")) == warned
    return new, ref


SEEDS = (3, 14)


def assert_exam_columns_equal(new, ref):
    assert (new.n_rows, new.n_malformed, new.n_excluded_negative) == (
        ref.n_rows,
        ref.n_malformed,
        ref.n_excluded_negative,
    )
    assert new.n_duplicate_exam_id == 0
    records = ref.records
    utc, wall = stamp_columns([r.scan_completed_at for r in records])
    np.testing.assert_array_equal(new.scan_utc_us, utc)
    np.testing.assert_array_equal(new.scan_wall_us, wall)
    np.testing.assert_array_equal(new.tat_minutes, [r.tat_minutes for r in records])
    np.testing.assert_array_equal(new.positive, [r.diagnosis is Diagnosis.POSITIVE for r in records])
    assert new.roles == {r.reader_id: r.reader_role for r in records}
    assert len(records) + new.n_excluded_negative + new.n_malformed == new.n_rows


def assert_closure_columns_equal(new, ref):
    assert (new.n_rows, new.n_malformed) == (ref.n_rows, ref.n_malformed)
    expected = closure_columns(ref.records)
    np.testing.assert_array_equal(new.closed_utc_us, expected.closed_utc_us)
    np.testing.assert_array_equal(new.closed_wall_us, expected.closed_wall_us)
    assert new.readers == expected.readers
    np.testing.assert_array_equal(new.reader, expected.reader)
    np.testing.assert_array_equal(new.exam_class, expected.exam_class)


@pytest.mark.parametrize("seed", SEEDS)
def test_exam_log_columns_match_reference(tmp_path, caplog, seed):
    path = tmp_path / "exam.csv"
    dirty_exam_log(path, seed)
    new, ref = ingest_both(ingest_exam_log, reference.ingest_exam_log, path, caplog)
    assert_exam_columns_equal(new, ref)
    assert ref.n_malformed == 24 and ref.n_excluded_negative >= 10


@pytest.mark.parametrize("seed", SEEDS)
def test_closure_log_columns_match_reference(tmp_path, caplog, seed):
    path = tmp_path / "closures.csv"
    dirty_closure_log(path, seed)
    new, ref = ingest_both(ingest_closure_log, reference.ingest_closure_log, path, caplog)
    assert_closure_columns_equal(new, ref)
    assert ref.n_malformed == 15


def quote_cells(text: str) -> str:
    """text with some cells quoted: readers r003 and r008 become ids holding
    a comma and r005 one holding a newline, and the last cell of about one
    row in five holds a newline, which ingest strips from its token. Which
    cells change depends only on a row's content, so a copied row changes
    as its original does."""
    respelled = {"r003": "r0,03", "r008": "r0,08", "r005": "r0\n05"}
    lines = []
    for line in text.split("\n"):
        cells = [
            f'"{c.replace(c.strip(), respelled[c.strip()])}"' if c.strip() in respelled else c
            for c in line.split(",")
        ]
        if len(cells) > 1 and sum(map(ord, line)) % 5 == 0:
            cells[-1] = f'"{cells[-1]}\n"'
        lines.append(",".join(cells))
    return "\n".join(lines)


VARIANTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "quoted": quote_cells,
    "quoted-crlf": lambda text: quote_cells(text).replace("\n", "\r\n"),
    "no-final-newline": lambda text: text.removesuffix("\n"),
    "non-ascii-reader": lambda text: text.replace("r00", "\u015500"),  # r with an acute accent
}


@pytest.mark.parametrize(
    "variant, chunk_chars",
    [(variant, None) for variant in VARIANTS] + [("quoted-crlf", 64)],
    ids=[*VARIANTS, "quoted-crlf-64-char-chunks"],
)
def test_reader_variants_match_reference(tmp_path, caplog, monkeypatch, variant, chunk_chars):
    # With 64-character chunks nearly every row, and every quoted newline,
    # straddles a chunk boundary.
    if chunk_chars:
        monkeypatch.setattr(estimation, "CHUNK_CHARS", chunk_chars)
    exam, closures = tmp_path / "exam.csv", tmp_path / "closures.csv"
    dirty_exam_log(exam, SEEDS[0])
    dirty_closure_log(closures, SEEDS[0])
    for path in (exam, closures):
        path.write_bytes(VARIANTS[variant](path.read_text()).encode())
    new, ref = ingest_both(ingest_exam_log, reference.ingest_exam_log, exam, caplog)
    assert_exam_columns_equal(new, ref)
    assert ref.n_malformed == 24
    new, ref = ingest_both(ingest_closure_log, reference.ingest_closure_log, closures, caplog)
    assert_closure_columns_equal(new, ref)
    assert ref.n_malformed == 15
    if variant.startswith("quoted"):
        newline = "\r\n" if variant == "quoted-crlf" else "\n"
        assert {"r0,03", "r0,08", f"r0{newline}05"} <= set(new.readers)


STAMP = "2024-03-04T10:00:00.000000-05:00"
# Rows 1 and 4 (E1, E4) each hold a quoted line break, so the bad rows E3
# and E5 start on file lines 5 and 9, where a count of records gives 4 and 7.
LINE_BREAK_LOGS = {
    ingest_exam_log: [
        EXAM_HEADER,
        f'E1,{STAMP},{STAMP},"r0\n01",Resident,Negative,ED',
        f"E2,{STAMP},{STAMP},r002,Staff,Positive,ED",
        f"E3,not-a-time,{STAMP},r003,Staff,Positive,ED",
        "",
        f'E4,{STAMP},{STAMP},r004,Staff,Negative,"ED\n"',
        f"E5,{STAMP},{STAMP},r005,Janitor,Negative,ED",
    ],
    ingest_closure_log: [
        CLOSURE_HEADER,
        f'"r0\n01",{STAMP},pe_positive',
        f"r002,{STAMP},pe_positive",
        "r003,not-a-time,pe_positive",
        "",
        f'r004,{STAMP},"non_chest_ct\n"',
        f"r005,{STAMP},mystery",
    ],
}


@pytest.mark.parametrize("ingest", LINE_BREAK_LOGS, ids=["exam", "closure"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("chunk_chars", [None, 64], ids=["default-chunks", "64-char-chunks"])
def test_warnings_name_the_line_a_row_starts_on(tmp_path, caplog, monkeypatch, ingest, newline, chunk_chars):
    if chunk_chars:
        monkeypatch.setattr(estimation, "CHUNK_CHARS", chunk_chars)
    path = tmp_path / "log.csv"
    path.write_bytes("\n".join([*LINE_BREAK_LOGS[ingest], ""]).replace("\n", newline).encode())
    reference_ingest = getattr(reference, ingest.__name__)
    new, ref = ingest_both(ingest, reference_ingest, path, caplog)
    assert [w.split(": skipping")[0] for w in warnings_from(caplog, "triagesim.estimation")] == [
        f"{path} line 5",
        f"{path} line 9",
    ]
    assert (new.n_rows, new.n_malformed) == (ref.n_rows, ref.n_malformed) == (5, 2)


def test_duplicates_found_across_chunks(tmp_path, caplog, monkeypatch):
    """Two parsed rows copied, one right after its original and one 1,000
    lines on, are excluded as duplicates however chunks cut the log."""
    plain, copied = tmp_path / "plain.csv", tmp_path / "copied.csv"
    dirty_exam_log(plain, SEEDS[0])
    lines = plain.read_text().split("\n")
    first, second = [k for k, line in enumerate(lines) if line.startswith("E")][100:102]
    copies = lines[:]
    copies.insert(second + 1000, lines[second])
    copies.insert(first + 1, lines[first])
    for path, rows in ((plain, lines), (copied, copies)):
        path.write_bytes(VARIANTS["quoted-crlf"]("\n".join(rows)).encode())
    base = ingest_exam_log(plain)
    runs = []
    for chunk_chars in (estimation.CHUNK_CHARS, 64):
        monkeypatch.setattr(estimation, "CHUNK_CHARS", chunk_chars)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            runs.append((ingest_exam_log(copied), warnings_from(caplog, "triagesim.estimation")))
    (a, a_warnings), (b, b_warnings) = runs
    assert a_warnings == b_warnings and len(a_warnings) == 24
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)
        if f.name not in ("n_duplicate_exam_id", "n_rows"):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(base, f.name), err_msg=f.name)
    assert (a.n_duplicate_exam_id, a.n_rows) == (2, base.n_rows + 2)


GOOD_STAMP = "2024-03-04T10:00:00.123456-05:00"
STAMP_CASES = {
    "year-0000": "0000-03-04T10:00:00.123456+00:00",
    "2023-02-29": "2023-02-29T10:00:00.123456-05:00",
    "2024-02-29": "2024-02-29T10:00:00.123456-05:00",
    "hour-24": "2024-03-04T24:00:00.000000-05:00",
    "second-60": "2024-03-04T10:00:60.000000-05:00",
    "offset+24:00": "2024-03-04T10:00:00.123456+24:00",
    "offset-00:00": "2024-03-04T10:00:00.123456-00:00",
    "offset-minute-60": "2024-03-04T10:00:00.123456+05:60",
    "offset-minute-61": "2024-03-04T10:00:00.123456+22:61",
    "offset-minute-99": "2024-03-04T10:00:00.123456-10:99",
    "no-fraction": "2024-03-04T10:00:00-05:00",
    "Z": "2024-03-04T10:00:00.123456Z",
    "space-separator": "2024-03-04 10:00:00.123456-05:00",
    "33-characters": GOOD_STAMP + " ",
    "non-ascii-digit": "2024-03-04T10:00:00.12345\u0666-05:00",
    "month-00": "2024-00-04T10:00:00.123456-05:00",
    "month-13": "2024-13-04T10:00:00.123456-05:00",
    "day-00": "2024-03-00T10:00:00.123456-05:00",
    "2024-04-31": "2024-04-31T10:00:00.123456-05:00",
    "1900-02-29": "1900-02-29T10:00:00.123456-05:00",
    "2000-02-29": "2000-02-29T10:00:00.123456-05:00",
    "minute-60": "2024-03-04T10:60:00.000000-05:00",
}
# Cases with the bulk shape that numpy's parser rejects.
NUMPY_REJECTS = ("2023-02-29", "hour-24", "second-60", "month-00", "month-13", "day-00", "2024-04-31", "1900-02-29")


# The STAMP_CASES that are valid; "33-characters" is GOOD_STAMP padded.
VALID_CASES = ("2024-02-29", "2000-02-29", "offset-00:00", "no-fraction", "Z", "space-separator", "33-characters")


def timestamp_fault(stamp: str) -> str:
    return f"timestamp {stamp!r} is not a valid time YYYY-MM-DD(T| )HH:MM[:SS[.ffffff]](Z|+HH:MM|-HH:MM)"


@pytest.mark.parametrize("case", STAMP_CASES)
def test_bulk_stamps_agree_with_row_parser(tmp_path, caplog, case):
    stamp = STAMP_CASES[case]
    cells = [GOOD_STAMP, stamp, GOOD_STAMP]
    wall, utc, valid = estimation._stamps(cells)
    assert valid.tolist() == [True, case in VALID_CASES, True]
    for k in np.flatnonzero(valid):
        t = reference._parse_timestamp(cells[k])
        assert utc[k] == (t - EPOCH) // MICROSECOND
        assert wall[k] == utc[k] + t.utcoffset() // MICROSECOND
    # Through ingest, each row gives the reference's value or its warning.
    path = tmp_path / "closures.csv"
    rows = [f"r001,{c},pe_positive" for c in cells] + ["r002,yesterday,pe_positive"]
    path.write_bytes("\n".join([CLOSURE_HEADER, *rows, ""]).encode())
    new, ref = ingest_both(ingest_closure_log, reference.ingest_closure_log, path, caplog)
    assert_closure_columns_equal(new, ref)
    assert new.n_rows == 4
    if case.startswith("offset-minute-"):
        # fromisoformat on Python 3.11 would read +05:60 as +06:00.
        assert new.n_malformed == 2
        assert f"line 3: skipping malformed row ({timestamp_fault(stamp)})" in (
            warnings_from(caplog, "triagesim.estimation")[0]
        )


def test_warning_names_the_first_failing_cell(tmp_path, caplog):
    path = tmp_path / "exam.csv"
    rows = [
        f"E1,{GOOD_STAMP},not-a-time,r001,Janitor,Wrong,Moon Base",
        f"E2,{GOOD_STAMP},{GOOD_STAMP},r001,Resident,Wrong,Moon Base",
    ]
    path.write_text("\n".join([EXAM_HEADER, *rows, ""]))
    ingest_both(ingest_exam_log, reference.ingest_exam_log, path, caplog)
    assert warnings_from(caplog, "triagesim.estimation") == [
        f"{path} line 2: skipping malformed row ({timestamp_fault('not-a-time')})",
        f"{path} line 3: skipping malformed row (unknown diagnosis 'Wrong')",
    ]


# Each shape a timestamp may take and what it gives on every Python version:
# its UTC and wall-clock times, or None where it is malformed. It holds every
# STAMP_CASES entry.
GRAMMAR = {
    # The bulk shape, and the date, time and offset checks it is held to.
    GOOD_STAMP: ("2024-03-04T15:00:00.123456", "2024-03-04T10:00:00.123456"),
    "2024-02-29T10:00:00.123456-05:00": ("2024-02-29T15:00:00.123456", "2024-02-29T10:00:00.123456"),
    "2000-02-29T10:00:00.123456-05:00": ("2000-02-29T15:00:00.123456", "2000-02-29T10:00:00.123456"),
    "2024-03-04T10:00:00.123456-00:00": ("2024-03-04T10:00:00.123456", "2024-03-04T10:00:00.123456"),
    "2024-03-04T23:59:59.999999+23:59": ("2024-03-04T00:00:59.999999", "2024-03-04T23:59:59.999999"),
    "2024-03-04T00:00:00.000000-23:59": ("2024-03-04T23:59:00", "2024-03-04T00:00:00"),
    "0000-03-04T10:00:00.123456+00:00": None,
    "2023-02-29T10:00:00.123456-05:00": None,
    "1900-02-29T10:00:00.123456-05:00": None,
    "2024-00-04T10:00:00.123456-05:00": None,
    "2024-13-04T10:00:00.123456-05:00": None,
    "2024-03-00T10:00:00.123456-05:00": None,
    "2024-04-31T10:00:00.123456-05:00": None,
    "2024-03-04T24:00:00.000000-05:00": None,
    "2024-03-04T10:60:00.000000-05:00": None,
    "2024-03-04T10:00:60.000000-05:00": None,
    "2024-03-04T10:00:00.123456+24:00": None,
    "2024-03-04T10:00:00.123456+05:60": None,
    "2024-03-04T10:00:00.123456+22:61": None,
    "2024-03-04T10:00:00.123456-10:99": None,
    "2024-03-04T10:00:00.12345\u0666-05:00": None,  # an Arabic-Indic digit
    "\u06602024-03-04T10:00:00.123456-05:00": None,
    # The other shapes of the grammar.
    GOOD_STAMP + " ": ("2024-03-04T15:00:00.123456", "2024-03-04T10:00:00.123456"),
    "\t 2024-03-04T08:30:00+00:00\u00a0": ("2024-03-04T08:30:00", "2024-03-04T08:30:00"),
    "2024-03-04T10:00:00-05:00": ("2024-03-04T15:00:00", "2024-03-04T10:00:00"),
    "2024-03-04T10:00:00.123456Z": ("2024-03-04T10:00:00.123456", "2024-03-04T10:00:00.123456"),
    "2024-03-04 10:00:00.123456-05:00": ("2024-03-04T15:00:00.123456", "2024-03-04T10:00:00.123456"),
    "2024-03-04T08:30-05:00": ("2024-03-04T13:30:00", "2024-03-04T08:30:00"),
    "2024-03-04 08:30Z": ("2024-03-04T08:30:00", "2024-03-04T08:30:00"),
    "2024-03-04T08:30:15.1+05:30": ("2024-03-04T03:00:15.1", "2024-03-04T08:30:15.1"),
    "2024-03-04T08:30:15.12+05:30": ("2024-03-04T03:00:15.12", "2024-03-04T08:30:15.12"),
    "2024-03-04T08:30:15.123-05:00": ("2024-03-04T13:30:15.123", "2024-03-04T08:30:15.123"),
    "2024-03-04T08:30:15.1234Z": ("2024-03-04T08:30:15.1234", "2024-03-04T08:30:15.1234"),
    "2024-03-04 08:30:15.00005Z": ("2024-03-04T08:30:15.00005", "2024-03-04T08:30:15.00005"),
    "2024-02-29 23:30-05:00": ("2024-03-01T04:30:00", "2024-02-29T23:30:00"),
    # Shapes outside the grammar. The old row parser, Python 3.11's
    # fromisoformat, took these (checked on 3.11.7) ...
    "20240304T083000-0500": None,
    "2024-W10-1T08:30:00+00:00": None,
    "2024-03-04x08:30:00+00:00": None,
    "2024-03-04t08:30:00+00:00": None,
    "2024-03-04T08-05:00": None,
    "2024-03-04T08:30.5+00:00": None,
    "2024-03-04T08:30:00.+00:00": None,
    "2024-03-04T08:30:00,5+00:00": None,
    "2024-03-04T08:30:00.1234567+00:00": None,
    "2024-03-04T08:30:00.123456789+00:00": None,
    "2024-03-04T08:30:00 +00:00": None,
    "2024-03-04T08:30:00+0530": None,
    "2024-03-04T08:30:00+05": None,
    "2024-03-04T08:30:00+05:30:15": None,
    "2024-03-04T08:30:00+05:30:15.5": None,
    # ... and rejected these.
    "2024-03-04T08:30:00": None,
    "2024-03-04": None,
    "2024-03-04T08:30:00z": None,
    "2024-03-04  08:30:00+00:00": None,
    "2024/03/04T08:30:00+00:00": None,
    "not-a-time": None,
}


def test_grammar_table_holds_every_stamp_case():
    assert set(STAMP_CASES.values()) <= set(GRAMMAR)


@pytest.mark.parametrize("stamp", GRAMMAR)
def test_timestamp_grammar(tmp_path, caplog, stamp):
    expected = GRAMMAR[stamp]
    # The reference parser, on its own; times as UTC and wall microseconds.
    if expected is None:
        with pytest.raises(ValueError) as raised:
            reference._parse_timestamp(stamp)
        assert str(raised.value) == timestamp_fault(stamp)
    else:
        expected = np.array(expected, "datetime64[us]").view(np.int64).tolist()
        t = reference._parse_timestamp(stamp)
        utc = (t - EPOCH) // MICROSECOND
        assert [utc, utc + t.utcoffset() // MICROSECOND] == expected
    # The program, between stamps in the bulk shape and through ingest,
    # with the cell quoted where it holds a comma.
    wall, utc, valid = estimation._stamps([GOOD_STAMP, stamp, GOOD_STAMP])
    assert valid.tolist() == [True, expected is not None, True]
    if expected is not None:
        assert [utc[1], wall[1]] == expected
    path = tmp_path / "closures.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [CLOSURE_HEADER.split(","), ["r001", GOOD_STAMP, "pe_positive"], ["r001", stamp, "pe_positive"]]
        )
    new, ref = ingest_both(ingest_closure_log, reference.ingest_closure_log, path, caplog, warned=expected is None)
    assert_closure_columns_equal(new, ref)
    if expected is None:
        assert warnings_from(caplog, "triagesim.estimation") == [
            f"{path} line 3: skipping malformed row ({timestamp_fault(stamp)})"
        ]


@pytest.mark.parametrize("variant", ["no-fraction", "short-fraction", "Z", "space-separator"])
def test_grammar_variants_give_the_bulk_shape_columns(tmp_path, variant):
    """A synthetic corpus rewritten into another shape of the grammar is
    read as the same stamps in the bulk shape are."""
    generate_corpus(tmp_path, SyntheticSpec(seed=7, n_days=28, readers_per_day=10, closure_mix=(0.10, 0.18, 0.72)))
    bulk_stamp = re.compile(r"([0-9-]{10})T([0-9:]{8})\.([0-9]{6})\+00:00")
    rewrite = {
        "no-fraction": (r"\1T\2.000000+00:00", r"\1T\2+00:00"),
        "short-fraction": (r"\g<0>", lambda m: f"{m[1]}T{m[2]}.{m[3].rstrip('0') or '0'}+00:00"),
        "Z": (r"\g<0>", r"\1T\2.\3Z"),
        "space-separator": (r"\g<0>", r"\1 \2.\3+00:00"),
    }[variant]
    for name, ingest in (("exam_log.csv", ingest_exam_log), ("closure_log.csv", ingest_closure_log)):
        text = (tmp_path / name).read_text()
        assert len(bulk_stamp.findall(text)) > 10_000
        texts = [bulk_stamp.sub(replacement, text) for replacement in rewrite]
        runs = []
        for k, rewritten in enumerate(texts):
            path = tmp_path / f"{k}-{name}"
            path.write_text(rewritten)
            runs.append(ingest(path))
        bulk, other = runs
        assert bulk.n_malformed == 0 and texts[0] != texts[1]
        for f in dataclasses.fields(bulk):
            np.testing.assert_array_equal(getattr(other, f.name), getattr(bulk, f.name), err_msg=f.name)


@pytest.mark.parametrize("case", NUMPY_REJECTS)
def test_long_column_with_a_stamp_numpy_rejects(tmp_path, caplog, case):
    # numpy's parser crashed the process, rather than raise, on a column of
    # 1,000 cells holding one such stamp; a chunk holds about 1,300 of these rows.
    rows = [f"r001,{GOOD_STAMP},pe_positive"] * 2000
    rows[1234] = f"r002,{STAMP_CASES[case]},pe_positive"
    path = tmp_path / "closures.csv"
    path.write_text("\n".join([CLOSURE_HEADER, *rows, ""]))
    new, ref = ingest_both(ingest_closure_log, reference.ingest_closure_log, path, caplog)
    assert_closure_columns_equal(new, ref)
    assert (new.n_rows, new.n_malformed, new.readers) == (2000, 1, ("r001",))


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
