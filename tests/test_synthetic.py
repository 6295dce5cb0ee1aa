import filecmp
import hashlib
import math
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
import reference_synthetic as reference

from triagesim import ParameterError
from triagesim.estimation import CLOSURE_LOG_COLUMNS, EXAM_LOG_COLUMNS
from triagesim.synthetic import (
    SyntheticSpec,
    _isoformat,
    _labels,
    _minutes_to_us,
    generate_corpus,
    generate_exam_rows,
)

CORPUS_FILES = ("exam_log.csv", "closure_log.csv", "truth.json")


def test_generation_is_deterministic(tmp_path):
    spec = SyntheticSpec(seed=9, n_days=6)
    truth_a = generate_corpus(tmp_path / "a", spec)
    truth_b = generate_corpus(tmp_path / "b", spec)
    assert truth_a == truth_b
    for name in CORPUS_FILES:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_generated_bytes_are_pinned(tmp_path):
    # A change to the draw order or to any draw changes these digests.
    generate_corpus(tmp_path, SyntheticSpec(seed=9, n_days=6))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in CORPUS_FILES
    }
    assert digests == {
        "exam_log.csv": "af1812ae1e7dfbd80dafcaeba64210bfbb7be7460d88b3a637de5cbf0799aee3",
        "closure_log.csv": "d120ef809f38f368cda3819e7c1532844cf1e8952b36447463a08c48cd999797",
        "truth.json": "27246bde15c433289161967674f5f5f38ca872b289ce3d96dfe882b1c9ff50aa",
    }


@pytest.mark.parametrize(
    "mix",
    [(-0.1, 0.5, 0.6), (0.0, 0.0, 0.0), (0.2, 0.8), (float("nan"), 0.5, 0.5), (float("inf"), 0.5, 0.5)],
    ids=["negative", "all-zero", "two-classes", "nan", "inf"],
)
def test_closure_mix_is_validated(mix):
    with pytest.raises(ParameterError):
        SyntheticSpec(closure_mix=mix)


def test_truth_counts_match_files(tmp_path):
    spec = SyntheticSpec(seed=3, n_days=5)
    truth = generate_corpus(tmp_path, spec)
    exam_lines = (tmp_path / "exam_log.csv").read_text().strip().splitlines()
    closure_lines = (tmp_path / "closure_log.csv").read_text().strip().splitlines()
    assert len(exam_lines) - 1 == truth["exam_log"]["n_rows"]
    assert len(closure_lines) - 1 == truth["closure_log"]["n_rows"]
    per_class = truth["closure_log"]["per_class"]
    assert sum(per_class.values()) == truth["closure_log"]["n_rows"]


def test_seed_changes_content(tmp_path):
    generate_corpus(tmp_path / "a", SyntheticSpec(seed=1, n_days=4))
    generate_corpus(tmp_path / "b", SyntheticSpec(seed=2, n_days=4))
    assert not filecmp.cmp(tmp_path / "a" / "exam_log.csv", tmp_path / "b" / "exam_log.csv", shallow=False)


def test_year_corpus_bytes_are_pinned(tmp_path):
    # The benchmark's year corpus (perfbench LOGS_SPEC) at seed 7, written
    # out here so that a change to either file fails Tier-1.
    spec = SyntheticSpec(seed=7, n_days=365, readers_per_day=10, closure_mix=(0.10, 0.18, 0.72))
    generate_corpus(tmp_path, spec)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in CORPUS_FILES
    }
    assert digests == {
        "exam_log.csv": "a0141267d95d88a8b69f7f9bc456194bf9ec5565ccf96dac290e91035a6fd268",
        "closure_log.csv": "74782fa28856596f7d2dd4bab82b2f85d9eaf81ea0fad9ce2a695bd2332970da",
        "truth.json": "5d9cf5b07c09762c8958f855e3671c281d41963835a6ddd5776ec13d3655c6fb",
    }


# Besides the defaults, each spec reaches a branch or an input range of the
# generators that the defaults leave cold.
DIFFERENTIAL_SPECS = {
    "default": SyntheticSpec(),
    "criterion-6 mix": SyntheticSpec(
        seed=11, n_days=21, readers_per_day=10, closure_mix=(0.10, 0.18, 0.72), boundary_day=10
    ),
    "thin days": SyntheticSpec(seed=4, n_days=22, n_thin_reader_days=4, closures_per_reader_day=25),
    "duplicates": SyntheticSpec(seed=5, n_days=3, n_duplicate_closures=60, n_negative_tat=0),
    "boundary_day": SyntheticSpec(seed=6, n_days=9, boundary_day=2, tat_mean_pre=600.0, tat_mean_post=3.0),
    "break_probability=0.5": SyntheticSpec(seed=8, n_days=5, break_probability=0.5),
    "across 2024-02-29": SyntheticSpec(seed=12, start_date=date(2024, 2, 26), n_days=6, tat_mean_post=900.0),
    "across a year end": SyntheticSpec(
        seed=13, start_date=date(2023, 12, 29), n_days=5, n_residents=2, n_staff=1, readers_per_day=4,
        positive_rate=0.0, indeterminate_rate=1.0, tat_mean_pre=2000.0,
    ),
}


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS.values(), ids=DIFFERENTIAL_SPECS.keys())
def test_corpus_matches_reference_generators(tmp_path, spec):
    truth = generate_corpus(tmp_path / "new", spec)
    exam_rows, exam_counts = reference.generate_exam_rows(spec)
    closure_rows, closure_counts = reference.generate_closure_rows(spec)
    reference.write_csv(tmp_path / "exam_log.csv", EXAM_LOG_COLUMNS, exam_rows)
    reference.write_csv(tmp_path / "closure_log.csv", CLOSURE_LOG_COLUMNS, closure_rows)
    for name in ("exam_log.csv", "closure_log.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert truth["exam_log"] == exam_counts
    assert truth["closure_log"] == closure_counts


def _half_microsecond_minutes():
    """Minutes whose fraction times 60e6 leaves exactly half a microsecond,
    and the parity of the whole microseconds beside that half."""
    n = np.arange(4000)
    candidates = np.concatenate([(n + 0.5) / 6e7, 7.0 + (n + 0.5) / 6e7, -(n + 0.5) / 6e7])
    leftover, whole = np.modf(np.modf(candidates)[0] * 6e7)
    half = np.abs(leftover) == 0.5
    return candidates[half], whole[half].astype(np.int64) % 2


def test_minutes_to_us_and_isoformat_match_datetime():
    halves, parity = _half_microsecond_minutes()
    assert set(parity.tolist()) == {0, 1}  # both ways of rounding a half occur
    whole_seconds = [0.0, 0.5, 1.0, 12.25, 59.75, 1439.0, 1439.5]
    midnight_crossings = [1439.99999999, 1440.0, 1440.00000001, 2900.123456789, -0.25, -1440.0, -1e-9]
    rng = np.random.default_rng(3)
    minutes = np.concatenate([halves, whole_seconds, midnight_crossings, rng.exponential(60.0, 2000)])
    one_us = timedelta(microseconds=1)
    assert _minutes_to_us(minutes).tolist() == [timedelta(minutes=m) // one_us for m in minutes.tolist()]

    midnight = datetime(2024, 2, 29, tzinfo=timezone.utc)
    base = (midnight - datetime(1970, 1, 1, tzinfo=timezone.utc)) // one_us
    expected = [(midnight + timedelta(minutes=m)).isoformat() for m in minutes.tolist()]
    assert _isoformat(base + _minutes_to_us(minutes)) == expected
    assert sum("." not in stamp for stamp in expected) >= len(whole_seconds)
    assert {stamp[:10] for stamp in expected} == {"2024-02-28", "2024-02-29", "2024-03-01", "2024-03-02"}


def test_labels_cut_like_the_row_loop():
    # The row loop labelled u with `u < rate`: a draw equal to a cut takes
    # the label above it.
    names = ("Positive", "Indeterminate", "Negative")
    u = np.array([0.0, 0.1499, 0.15, 0.18, 0.19, 0.999])
    assert _labels(u, (0.15, 0.19), names) == [
        "Positive", "Positive", "Indeterminate", "Indeterminate", "Negative", "Negative"
    ]
    assert _labels(u, (0.15, 0.15), names) == ["Positive", "Positive", "Negative", "Negative", "Negative", "Negative"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_days", 0),
        ("n_residents", 0),
        ("n_staff", 0),
        ("readers_per_day", -1),
        ("closures_per_reader_day", -1),
        ("n_negative_tat", -1),
        ("n_duplicate_closures", -1),
        ("n_thin_reader_days", -1),
        ("positive_rate", -0.1),
        ("indeterminate_rate", 1.5),
        ("break_probability", math.nan),
        ("work_interarrival", 0.0),
        ("off_interarrival", -3.19),
        ("read_mean_pe", math.nan),
        ("read_mean_npp", math.inf),
        ("read_mean_ncct", 0.0),
        ("tat_mean_pre", -1.0),
        ("tat_mean_post", math.inf),
    ],
)
def test_out_of_range_fields_are_rejected(field, value):
    with pytest.raises(ParameterError, match=field):
        SyntheticSpec(**{field: value})


INTEGER_FIELDS = (
    "seed",
    "n_days",
    "n_residents",
    "n_staff",
    "readers_per_day",
    "closures_per_reader_day",
    "n_negative_tat",
    "n_duplicate_closures",
    "n_thin_reader_days",
    "boundary_day",
)


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_fields_that_count_must_be_integers(field):
    # A fractional n_thin_reader_days once wrote one thin reader-day too
    # many, and the other fields failed later with a TypeError.
    for value in (2.5, 2.0, True, np.float64(2.0), "2"):
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            SyntheticSpec(**{field: value})


def test_numpy_integers_are_accepted(tmp_path):
    fields = {"seed": 9, "n_days": 6, "n_thin_reader_days": 1, "boundary_day": 2}
    generate_corpus(tmp_path / "python", SyntheticSpec(**fields))
    generate_corpus(tmp_path / "numpy", SyntheticSpec(**{k: np.int64(v) for k, v in fields.items()}))
    for name in CORPUS_FILES:
        assert filecmp.cmp(tmp_path / "python" / name, tmp_path / "numpy" / name, shallow=False)


def test_diagnosis_rates_above_one_are_rejected():
    with pytest.raises(ParameterError, match="positive_rate"):
        SyntheticSpec(positive_rate=0.7, indeterminate_rate=0.4)
    SyntheticSpec(positive_rate=0.7, indeterminate_rate=0.3)


def test_days_past_the_last_date_are_rejected():
    with pytest.raises(ParameterError, match="9999-12-31"):
        SyntheticSpec(start_date=date(9999, 12, 30), n_days=3)
    SyntheticSpec(start_date=date(9999, 12, 30), n_days=2)


@pytest.mark.parametrize(
    "spec",
    [
        # Evening exams on the last day are signed off past 9999-12-31.
        SyntheticSpec(start_date=date(9999, 12, 31), n_days=1),
        # A TAT longer than the whole datetime range.
        SyntheticSpec(n_days=1, tat_mean_post=1e13),
    ],
    ids=["signed after 9999", "tat past the range"],
)
def test_stamps_outside_the_datetime_range_are_rejected(spec):
    with pytest.raises(ParameterError, match="1-9999"):
        generate_exam_rows(spec)
