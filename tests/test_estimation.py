import itertools
from datetime import date, datetime, time, timedelta, timezone

import numpy as np
import pytest
from reference_fit import fit_exponential_histogram as reference_fit
from reference_ingest import ClosureRecord, closure_columns, stamp_columns

from triagesim import (
    Cohort,
    Diagnosis,
    ExamClass,
    FormatError,
    InsufficientDataError,
    Location,
    ParameterError,
    ReaderRole,
)
from triagesim.config import AnalysisConfig
from triagesim.core import trial_stream
from triagesim.estimation import (
    WORK_BLOCK,
    ExponentialFit,
    adjusted_fpf,
    cohort_blocks,
    daily_interarrival_fits,
    effective_nondiseased_read_time,
    estimate_read_times,
    fit_exponential_histogram,
    ingest_closure_log,
    ingest_exam_log,
    queue_prevalence,
    summarize_interarrival,
)

UTC = timezone.utc

EXAM_HEADER = "exam_id,scan_completed_at,report_signed_at,reader_id,reader_role,diagnosis,location\n"


def exam_row(i, scan, signed, reader="r001", role="Resident", dx="Negative", loc="Inpatient"):
    return f"E{i},{scan.isoformat()},{signed.isoformat()},{reader},{role},{dx},{loc}\n"


def ts(day, hour, minute=0, second=0.0):
    whole = int(second)
    micro = int(round((second - whole) * 1e6))
    return datetime(2024, 1, day, hour, minute, whole, micro, tzinfo=UTC)


class TestIngestExamLog:
    def test_small_file_counts(self, tmp_path):
        path = tmp_path / "exam.csv"
        rows = [EXAM_HEADER]
        for i in range(8):
            scan = ts(2, 9, i)
            rows.append(exam_row(i, scan, scan + timedelta(minutes=30)))
        for i in (8, 9):
            scan = ts(2, 10, i)
            rows.append(exam_row(i, scan, scan - timedelta(minutes=5)))
        path.write_text("".join(rows))
        result = ingest_exam_log(path)
        assert result.tat_minutes.size == 8
        assert result.n_excluded_negative == 2
        assert result.n_rows == 10

    def test_paper_scale_counts(self, tmp_path):
        # 16,579 rows of which 5,327 have negative TATs leaves 11,252.
        path = tmp_path / "exam.csv"
        with open(path, "w") as handle:
            handle.write(EXAM_HEADER)
            base = datetime(2024, 1, 1, tzinfo=UTC)
            for i in range(16_579):
                scan = base + timedelta(minutes=i)
                delta = timedelta(minutes=-10 if i < 5_327 else 25)
                handle.write(exam_row(i, scan, scan + delta))
        result = ingest_exam_log(path)
        assert result.n_rows == 16_579
        assert result.n_excluded_negative == 5_327
        assert result.tat_minutes.size == 11_252

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        result = ingest_exam_log(path)
        assert result.tat_minutes.size == 0 and result.n_excluded_negative == 0

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(EXAM_HEADER)
        assert ingest_exam_log(path).tat_minutes.size == 0

    def test_wrong_header_is_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError):
            ingest_exam_log(path)

    def test_malformed_rows_are_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "exam.csv"
        good = ts(2, 9)
        path.write_text(
            EXAM_HEADER
            + exam_row(1, good, good + timedelta(minutes=5))
            + "E2,not-a-time,2024-01-02T10:00:00+00:00,r001,Resident,Negative,ED\n"
            + "E3,too,few\n"
            + exam_row(4, good, good + timedelta(minutes=9), dx="Wrong")
            + exam_row(5, good, good + timedelta(minutes=7), dx="positive", loc="Emergency Department")
            + exam_row(6, good, good + timedelta(minutes=6), loc="Moon Base")
        )
        with caplog.at_level("WARNING"):
            result = ingest_exam_log(path)
        assert result.tat_minutes.size == 2
        assert result.n_malformed == 4
        assert "line 3" in caplog.text
        # The location column is not kept, but an unknown location still rejects its row.
        assert "line 7: skipping malformed row (unknown location 'Moon Base')" in caplog.text

    def test_naive_timestamp_rejected(self, tmp_path):
        path = tmp_path / "exam.csv"
        path.write_text(
            EXAM_HEADER + "E1,2024-01-02T09:00:00,2024-01-02T10:00:00+00:00,r001,Resident,Negative,ED\n"
        )
        result = ingest_exam_log(path)
        assert result.n_malformed == 1 and result.tat_minutes.size == 0

    def test_row_accounting_identity(self, tmp_path):
        path = tmp_path / "exam.csv"
        good = ts(2, 9)
        path.write_text(
            EXAM_HEADER
            + exam_row(1, good, good + timedelta(minutes=5))
            + exam_row(2, good, good - timedelta(minutes=5))
            + "E3,broken\n"
            + exam_row(4, good, good + timedelta(minutes=2))
        )
        result = ingest_exam_log(path)
        assert (result.tat_minutes >= 0).all()
        assert result.tat_minutes.size + result.n_excluded_negative + result.n_malformed == result.n_rows

    def test_duplicate_exam_ids_excluded_and_counted(self, tmp_path):
        path = tmp_path / "exam.csv"
        good = ts(2, 9)
        path.write_text(
            EXAM_HEADER
            + exam_row(1, good, good + timedelta(minutes=5))
            + exam_row(1, good, good + timedelta(minutes=8))  # duplicate
            + "E2,not-a-time,2024-01-02T10:00:00+00:00,r001,Resident,Negative,ED\n"
            + exam_row(2, good, good + timedelta(minutes=3))  # E2 never parsed before
            + exam_row(3, good, good - timedelta(minutes=5))  # negative TAT
            + exam_row(3, good, good + timedelta(minutes=4))  # duplicate of a parsed row
            + ",,,,,,\n   \n"  # blank rows are not counted
            + exam_row(2, good, good - timedelta(minutes=1)).replace("E2,", " E2 ,")
        )
        result = ingest_exam_log(path)
        np.testing.assert_array_equal(result.tat_minutes, [5.0, 3.0])
        assert result.n_duplicate_exam_id == 3
        assert result.n_excluded_negative == 1 and result.n_malformed == 1
        assert result.n_rows == 7
        assert (
            result.tat_minutes.size
            + result.n_excluded_negative
            + result.n_duplicate_exam_id
            + result.n_malformed
            == result.n_rows
        )


# Every spelling the logs may use, README's and the two aliases, by the
# exam_row argument that carries it ("class" is the closure log's column).
SPELLINGS = [
    ("role", "Resident", ReaderRole.RESIDENT),
    ("role", "Staff", ReaderRole.STAFF),
    ("role", "Fellow", ReaderRole.FELLOW),
    ("role", "L1 Fellow", ReaderRole.FELLOW),
    ("role", "EmergencyPhysician", ReaderRole.EMERGENCY_PHYSICIAN),
    ("dx", "Positive", Diagnosis.POSITIVE),
    ("dx", "Negative", Diagnosis.NEGATIVE),
    ("dx", "Indeterminate", Diagnosis.INDETERMINATE),
    ("loc", "ED", Location.ED),
    ("loc", "Emergency Department", Location.ED),
    ("loc", "Inpatient", Location.INPATIENT),
    ("loc", "Outpatient", Location.OUTPATIENT),
    ("class", "pe_positive", ExamClass.PE_POSITIVE),
    ("class", "non_pe_positive", ExamClass.NON_PE_POSITIVE),
    ("class", "non_chest_ct", ExamClass.NON_CHEST_CT),
]


def oddly(token: str) -> str:
    """token in alternating case, with a space, "_" or "-" before each
    character and after the last, and padding around it."""
    separators = itertools.cycle(" _-")
    cased = (ch.upper() if k % 2 else ch.lower() for k, ch in enumerate(token))
    return f"  {''.join(next(separators) + ch for ch in cased)}{next(separators)} "


@pytest.mark.parametrize("column, spelling, member", SPELLINGS, ids=[s for _, s, _ in SPELLINGS])
def test_every_spelling_maps_to_its_member(tmp_path, column, spelling, member):
    path = tmp_path / "log.csv"
    if column == "class":
        path.write_text(f"reader_id,closed_at,exam_class\nr001,{ts(2, 9).isoformat()},{oddly(spelling)}\n")
        result = ingest_closure_log(path)
        assert result.n_malformed == 0 and result.exam_class.tolist() == [list(ExamClass).index(member)]
        return
    scan = ts(2, 9)
    path.write_text(EXAM_HEADER + exam_row(1, scan, scan + timedelta(minutes=5), **{column: oddly(spelling)}))
    result = ingest_exam_log(path)
    assert result.n_malformed == 0 and result.tat_minutes.size == 1
    assert result.roles == {"r001": member if column == "role" else ReaderRole.RESIDENT}
    assert result.positive.tolist() == [member is Diagnosis.POSITIVE]


class TestIngestClosureLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "closures.csv"
        path.write_text(
            "reader_id,closed_at,exam_class\n"
            "r001,2024-01-02T09:00:00+00:00,pe_positive\n"
            "r001,2024-01-02T09:10:00+00:00,non_pe_positive\n"
            "r002,2024-01-02T09:12:00+00:00,non_chest_ct\n"
        )
        result = ingest_closure_log(path)
        assert result.readers == ("r001", "r002") and result.reader.tolist() == [0, 0, 1]
        assert [list(ExamClass)[k] for k in result.exam_class] == [
            ExamClass.PE_POSITIVE,
            ExamClass.NON_PE_POSITIVE,
            ExamClass.NON_CHEST_CT,
        ]

    def test_unknown_class_skipped(self, tmp_path):
        path = tmp_path / "closures.csv"
        path.write_text(
            "reader_id,closed_at,exam_class\nr001,2024-01-02T09:00:00+00:00,mystery\n"
        )
        result = ingest_closure_log(path)
        assert result.n_malformed == 1 and result.exam_class.size == 0


def assign_cohort(t, holidays=frozenset()):
    """The cohort that cohort_blocks gives one aware datetime."""
    _, wall = stamp_columns([t])
    _, block = cohort_blocks(wall, AnalysisConfig(holidays=frozenset(holidays)))
    return Cohort.WORK_HOUR if block[0] == WORK_BLOCK else Cohort.OFF_HOUR


class TestAssignCohort:
    def test_weekday_morning_is_work(self):
        assert assign_cohort(ts(3, 9, 30)) is Cohort.WORK_HOUR  # Wednesday

    def test_saturday_is_off(self):
        assert assign_cohort(ts(6, 10)) is Cohort.OFF_HOUR

    def test_end_boundary_right_open(self):
        assert assign_cohort(ts(3, 17, 0)) is Cohort.OFF_HOUR
        assert assign_cohort(ts(3, 16, 59)) is Cohort.WORK_HOUR

    def test_start_boundary_closed(self):
        assert assign_cohort(ts(3, 8, 0)) is Cohort.WORK_HOUR
        assert assign_cohort(ts(3, 7, 59)) is Cohort.OFF_HOUR

    def test_holiday_is_off(self):
        assert assign_cohort(ts(3, 9, 30), holidays={date(2024, 1, 3)}) is Cohort.OFF_HOUR

    def test_partition_property(self):
        rng = trial_stream(4)
        stamps = [
            datetime(2024, 1, 1, tzinfo=UTC) + timedelta(minutes=float(m))
            for m in rng.uniform(0, 60 * 24 * 14, 500)
        ]
        _, block = cohort_blocks(stamp_columns(stamps)[1])
        work = int((block == WORK_BLOCK).sum())
        off = int((block != WORK_BLOCK).sum())
        assert work + off == len(stamps)
        assert set(block.tolist()) <= {0, WORK_BLOCK, 2}


class TestDailyInterarrivalFits:
    def poisson_days(self, n_days, mean, seed=0):
        rng = trial_stream(seed)
        stamps = []
        day = date(2024, 1, 1)
        produced = 0
        while produced < n_days:
            day += timedelta(days=1)
            if day.weekday() >= 5:
                continue
            produced += 1
            midnight = datetime.combine(day, time(0), tzinfo=UTC)
            t = 480.0 + float(rng.exponential(mean))
            while t < 1020.0:
                stamps.append(midnight + timedelta(minutes=t))
                t += float(rng.exponential(mean))
        return stamps

    def test_recovers_mean_and_fit_quality(self):
        stamps = self.poisson_days(200, 2.17, seed=8)
        fits = daily_interarrival_fits(*stamp_columns(stamps))
        work = [f for f in fits if f.cohort is Cohort.WORK_HOUR]
        assert len(work) == 200
        means = np.array([f.mean for f in work])
        r2 = np.array([f.r2 for f in work])
        assert abs(means.mean() - 2.17) / 2.17 <= 0.05
        assert r2.mean() >= 0.98

    def test_too_few_gaps_skipped(self):
        stamps = [ts(3, 9, 0), ts(3, 9, 2)]  # a single gap
        assert daily_interarrival_fits(*stamp_columns(stamps)) == []

    def test_constant_spacing_gives_low_r2(self):
        base = datetime(2024, 1, 3, 8, 30, tzinfo=UTC)
        stamps = [base + timedelta(minutes=2 * k) for k in range(120)]
        (fit,) = daily_interarrival_fits(*stamp_columns(stamps))
        assert fit.mean == pytest.approx(2.0, abs=1e-9)
        assert fit.r2 < 0.5

    def test_gaps_never_span_cohort_blocks_or_midnight(self):
        stamps = [
            # Wednesday around the 17:00 boundary: a crossing gap would
            # inflate one of the two 2-gap chains to 3.
            ts(3, 16, 50),
            ts(3, 16, 54),
            ts(3, 16, 58),
            ts(3, 17, 5),
            ts(3, 17, 20),
            ts(3, 17, 40),
            # Saturday into Sunday across midnight.
            ts(6, 23, 30),
            ts(6, 23, 40),
            ts(6, 23, 55),
            datetime(2024, 1, 7, 0, 10, tzinfo=UTC),
            datetime(2024, 1, 7, 0, 30, tzinfo=UTC),
            datetime(2024, 1, 7, 0, 50, tzinfo=UTC),
        ]
        fits = daily_interarrival_fits(*stamp_columns(stamps), AnalysisConfig(min_daily_gaps=2))
        by_key = {(f.day, f.cohort): f.n for f in fits}
        assert by_key == {
            (date(2024, 1, 3), Cohort.WORK_HOUR): 2,
            (date(2024, 1, 3), Cohort.OFF_HOUR): 2,
            (date(2024, 1, 6), Cohort.OFF_HOUR): 2,
            (date(2024, 1, 7), Cohort.OFF_HOUR): 2,
        }


class TestSummarizeInterarrival:
    def fits_from_means(self, means, cohort=Cohort.WORK_HOUR):
        return [
            ExponentialFit(date(2024, 1, 1) + timedelta(days=k), cohort, m, m, 0.99, 100)
            for k, m in enumerate(means)
        ]

    def test_recovers_generator_moments(self):
        rng = trial_stream(15)
        daily_means = rng.normal(2.17, 0.57, 400)
        summary = summarize_interarrival(self.fits_from_means(daily_means), Cohort.WORK_HOUR)
        assert abs(summary["mean"] - 2.17) <= 0.1
        assert summary["range68"] == [summary["mean"] - summary["sigma"], summary["mean"] + summary["sigma"]]
        assert summary["n_days"] == 400
        assert summary["r2_mean"] == pytest.approx(0.99) and summary["r2_sd"] == pytest.approx(0.0)

    def test_identical_fits_zero_sigma_warns(self, caplog):
        with caplog.at_level("WARNING"):
            summary = summarize_interarrival(self.fits_from_means([3.0, 3.0, 3.0]), Cohort.WORK_HOUR)
        assert summary["mean"] == 3.0 and summary["sigma"] == 0.0
        assert "zero variance" in caplog.text

    def test_requires_two_fits(self):
        with pytest.raises(InsufficientDataError):
            summarize_interarrival(self.fits_from_means([2.0]), Cohort.WORK_HOUR)
        with pytest.raises(InsufficientDataError):
            summarize_interarrival(self.fits_from_means([2.0, 2.1]), Cohort.OFF_HOUR)


class TestFitExponentialHistogram:
    def test_truncation_robustness(self):
        # Dropping gaps above 60 minutes biases the sample mean low but not
        # the fitted mean: truncation does not change an exponential's shape.
        rng = trial_stream(33)
        gaps = rng.exponential(12.1, 20_000)
        gaps = gaps[gaps <= 60.0]
        fit = fit_exponential_histogram(gaps, 2.0)
        assert fit.converged
        assert abs(fit.mean - 12.1) / 12.1 <= 0.03
        assert fit.mean_sample < fit.mean

    def test_small_samples_fall_back_to_sample_mean(self):
        rng = trial_stream(34)
        gaps = rng.exponential(10.0, 20)
        fit = fit_exponential_histogram(gaps, 2.0)
        assert not fit.converged
        assert fit.mean == pytest.approx(float(gaps.mean()))

    def test_weighted_fit_minimises_the_poisson_weighted_residual(self):
        rng = trial_stream(35)
        gaps = rng.exponential(8.0, 20_000)
        gaps = gaps[gaps <= 40.0]
        weighted = fit_exponential_histogram(gaps, 1.0, weighted=True)
        plain = fit_exponential_histogram(gaps, 1.0)
        assert weighted.converged and plain.converged
        assert abs(weighted.mean - 8.0) / 8.0 <= 0.03
        assert weighted.mean != plain.mean
        # Each fit is the least-squares minimiser of its own objective.
        for fit, is_weighted in ((weighted, True), (plain, False)):
            other = plain if is_weighted else weighted
            best = histogram_residual(gaps, 1.0, is_weighted, fit.mean)
            assert best < histogram_residual(gaps, 1.0, is_weighted, other.mean)
            for nudge in (0.999, 1.001):
                assert best < histogram_residual(gaps, 1.0, is_weighted, fit.mean * nudge)

    def test_bound_pinned_fit_falls_back_to_sample_mean(self):
        # A flat histogram is best fit by an ever slower decay, so the mean
        # runs to the top of its [m_sample / 3, 3 m_sample] band.
        rng = trial_stream(36)
        gaps = rng.uniform(0.0, 20.0, 400)
        fit = fit_exponential_histogram(gaps, 1.0)
        assert not fit.converged
        assert fit.n == 400  # enough gaps and bins: the fit ran and pinned
        assert fit.mean == fit.mean_sample == float(gaps.mean())
        # r-squared against the exponential shape the sample mean implies.
        counts, _ = np.histogram(gaps, np.arange(0.0, 20.5, 1.0))
        density = counts / (400 * 1.0)
        implied = np.exp(-np.arange(0.5, 20.0, 1.0) / fit.mean) / fit.mean
        ss_res = np.sum((density - implied) ** 2)
        ss_tot = np.sum((density - density.mean()) ** 2)
        assert fit.r2 == pytest.approx(1.0 - ss_res / ss_tot, rel=1e-12)

    def test_matches_reference_fit(self):
        # The reference is the two-parameter curve_fit the program used
        # before; the closed-form amplitude and bounded search over the mean
        # must agree with it on when to fall back, and where both fit, never
        # leave a larger residual and land on nearly the same mean (TRF
        # stops at ftol=1e-8, so in flat valleys its mean is off by up to
        # about 2e-4 relative).
        rng = np.random.default_rng(2025)
        n_sets = n_fitted = 0
        for size, shape, bin_width, weighted, _ in itertools.product(
            (20, 49, 50, 51, 80, 200, 1_000, 5_000),
            ("exponential", "truncated", "uniform", "outliers"),
            (0.5, 1.0, 2.0),
            (False, True),
            range(11),
        ):
            gaps = reference_gaps(rng, shape, size)
            new = fit_exponential_histogram(gaps, bin_width, weighted)
            old = reference_fit(gaps, bin_width, weighted)
            n_sets += 1
            case = (size, shape, bin_width, weighted, old, new)
            assert new.converged == old.converged, case
            assert (new.n, new.mean_sample) == (old.n, old.mean_sample)
            if not new.converged:
                same = [new.mean, new.r2], [old.mean, old.r2]
                assert np.array_equal(*same, equal_nan=True), case
                continue
            n_fitted += 1
            residual_new = histogram_residual(gaps, bin_width, weighted, new.mean)
            residual_old = histogram_residual(gaps, bin_width, weighted, old.mean)
            assert residual_new <= residual_old * (1 + 1e-10), case
            assert new.mean == pytest.approx(old.mean, rel=1e-3), case
        assert n_sets >= 2_000
        assert n_fitted >= n_sets // 3  # the comparison is not all fallbacks

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            fit_exponential_histogram([1.0], 1.0)
        with pytest.raises(ParameterError):
            fit_exponential_histogram([1.0, 2.0], 0.0)
        with pytest.raises(ParameterError):
            fit_exponential_histogram([1.0, -2.0], 1.0)


def reference_gaps(rng, shape, size):
    mean = rng.uniform(2.0, 15.0)
    if shape == "uniform":
        return rng.uniform(0.0, 2.0 * mean, size)
    gaps = rng.exponential(mean, size)
    if shape == "truncated":
        while (gaps > 3.0 * mean).any():
            over = gaps > 3.0 * mean
            gaps[over] = rng.exponential(mean, int(over.sum()))
    elif shape == "outliers":
        outlier = rng.random(size) < 0.1
        gaps[outlier] = rng.uniform(60.0, 120.0, int(outlier.sum()))
    return gaps


def histogram_residual(gaps, bin_width, weighted, m):
    """Least-squares residual of a * exp(-t / m) with its best amplitude a,
    binned and weighted as fit_exponential_histogram does."""
    gaps = np.asarray(gaps)
    upper = max(bin_width, np.ceil(gaps.max() / bin_width) * bin_width)
    edges = np.arange(0.0, upper + bin_width / 2.0, bin_width)
    counts, _ = np.histogram(gaps, edges)
    density = counts / (gaps.size * bin_width)
    weight = 1.0 / np.maximum(counts, 1.0) if weighted else np.ones_like(density)
    basis = np.exp(-(edges[:-1] + edges[1:]) / 2.0 / m)
    amplitude = np.sum(weight * density * basis) / np.sum(weight * basis**2)
    return float(np.sum(weight * (density - amplitude * basis) ** 2))


class TestEstimateReadTimes:
    def synthetic_closures(self, seed=21, n_readers=8, n_days=10, per_day=60,
                           mix=(0.1, 0.2, 0.7), means=(12.1, 11.4, 6.1)):
        rng = trial_stream(seed)
        classes = list(ExamClass)
        records = []
        for r in range(n_readers):
            reader = f"r{r:02d}"
            for d in range(n_days):
                day = date(2024, 1, 1) + timedelta(days=d)
                t = 450.0
                for _ in range(per_day):
                    k = int(rng.choice(3, p=np.asarray(mix)))
                    t += float(rng.exponential(means[k]))
                    if t >= 1439:
                        break
                    records.append(
                        ClosureRecord(reader, datetime.combine(day, time(0), tzinfo=UTC) + timedelta(minutes=t), classes[k])
                    )
        roles = {f"r{r:02d}": ReaderRole.RESIDENT for r in range(n_readers)}
        return records, roles

    def test_recovery_within_ten_percent(self):
        records, roles = self.synthetic_closures()
        summary = estimate_read_times(closure_columns(records), roles)
        truth = {
            ExamClass.PE_POSITIVE: 12.1,
            ExamClass.NON_PE_POSITIVE: 11.4,
            ExamClass.NON_CHEST_CT: 6.1,
        }
        for exam_class, expected in truth.items():
            agg = summary.per_class[exam_class]
            assert abs(agg.mean - expected) / expected <= 0.10
            assert agg.min_mean <= agg.mean <= agg.max_mean

    def test_thin_reader_day_contributes_nothing(self):
        day = date(2024, 1, 1)
        records = [
            ClosureRecord("r01", datetime.combine(day, time(8), tzinfo=UTC) + timedelta(minutes=6 * k), ExamClass.NON_CHEST_CT)
            for k in range(29)
        ]
        summary = estimate_read_times(closure_columns(records), {"r01": ReaderRole.RESIDENT})
        assert summary.per_reader == ()
        assert summary.exclusions.n_reader_days_dropped == 1

    def test_long_gaps_dropped(self):
        day = date(2024, 1, 1)
        start = datetime.combine(day, time(8), tzinfo=UTC)
        stamps, t = [], 0.0
        for k in range(40):
            t += 300.0 if k == 20 else 5.0  # one five-hour break
            stamps.append(start + timedelta(minutes=t))
        records = [ClosureRecord("r01", s, ExamClass.NON_CHEST_CT) for s in stamps]
        summary = estimate_read_times(closure_columns(records), {"r01": ReaderRole.RESIDENT})
        assert summary.exclusions.n_gaps_over_max == 1
        (fit,) = summary.per_reader
        assert fit.n == 38

    def test_non_residents_and_unknown_readers_ignored(self):
        records, roles = self.synthetic_closures(n_readers=2)
        staff_records = [
            ClosureRecord("staff1", r.closed_at, r.exam_class) for r in records[:200]
        ]
        summary_with = estimate_read_times(closure_columns(records + staff_records), roles)
        summary_without = estimate_read_times(closure_columns(records), roles)
        assert summary_with.per_reader == summary_without.per_reader
        assert summary_with.exclusions.n_non_resident_closures == 200

    def test_order_invariance(self):
        records, roles = self.synthetic_closures(n_readers=3, n_days=4)
        shuffled = list(records)
        rng = trial_stream(2)
        order = rng.permutation(len(shuffled))
        shuffled = [shuffled[int(i)] for i in order]
        assert estimate_read_times(closure_columns(records), roles) == estimate_read_times(
            closure_columns(shuffled), roles
        )

    def test_duplicate_closures_deduped(self):
        records, roles = self.synthetic_closures(n_readers=1, n_days=2)
        doubled = records + records[:5]
        summary = estimate_read_times(closure_columns(doubled), roles)
        assert summary.exclusions.n_duplicate_closures == 5

    def test_min_gaps_threshold(self):
        day = date(2024, 1, 1)
        start = datetime.combine(day, time(8), tzinfo=UTC)
        records = []
        t = 0.0
        for k in range(35):
            t += 6.0
            exam_class = ExamClass.PE_POSITIVE if k < 9 else ExamClass.NON_CHEST_CT
            records.append(ClosureRecord("r01", start + timedelta(minutes=t), exam_class))
        summary = estimate_read_times(closure_columns(records), {"r01": ReaderRole.RESIDENT})
        assert ExamClass.PE_POSITIVE not in {f.exam_class for f in summary.per_reader}


class TestScalarOperations:
    def test_effective_read_time(self):
        assert effective_nondiseased_read_time(11.4, 6.1, 10, 0) == 11.4
        assert effective_nondiseased_read_time(10.0, 6.0, 7, 7) == 8.0
        # The studied effective value of 6.15 corresponds to a 105:1 mix.
        assert effective_nondiseased_read_time(11.4, 6.1, 1, 105) == pytest.approx(6.15, abs=1e-9)

    def test_effective_read_time_bounded_by_inputs(self):
        rng = trial_stream(6)
        for _ in range(100):
            m1, m2 = sorted(rng.uniform(1, 20, 2))
            n1, n2 = rng.integers(0, 1000, 2)
            if n1 + n2 == 0:
                continue
            value = effective_nondiseased_read_time(float(m1), float(m2), int(n1), int(n2))
            assert m1 <= value <= m2

    def test_effective_read_time_errors(self):
        with pytest.raises(ParameterError):
            effective_nondiseased_read_time(10.0, 6.0, 0, 0)
        with pytest.raises(ParameterError):
            effective_nondiseased_read_time(10.0, 6.0, -1, 5)

    def test_adjusted_fpf_no_out_of_scope(self):
        assert adjusted_fpf(0.899, 0, 9569) == 1.0 - 0.899

    def test_adjusted_fpf_perfect_specificity(self):
        assert adjusted_fpf(1.0, 500, 100) == 0.0

    def test_adjusted_fpf_studied_ratio(self):
        assert adjusted_fpf(0.899, 48, 1) == pytest.approx(0.00206, abs=5e-6)

    def test_adjusted_fpf_monotone(self):
        values = [adjusted_fpf(0.899, n, 100) for n in range(0, 5000, 250)]
        assert all(b < a for a, b in zip(values, values[1:]))
        values = [adjusted_fpf(s, 480, 100) for s in np.linspace(0.5, 1.0, 21)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_adjusted_fpf_errors(self):
        with pytest.raises(ParameterError):
            adjusted_fpf(0.9, 10, 0)
        with pytest.raises(ParameterError):
            adjusted_fpf(1.2, 10, 10)

    def test_queue_prevalence_values(self):
        assert queue_prevalence(1683, 527_234) == pytest.approx(0.00319, abs=5e-6)
        assert queue_prevalence(1683, 11_252) == pytest.approx(0.1496, abs=5e-5)
        assert queue_prevalence(0, 100) == 0.0

    def test_queue_prevalence_errors(self):
        with pytest.raises(ParameterError):
            queue_prevalence(5, 0)
        with pytest.raises(ParameterError):
            queue_prevalence(11, 10)
