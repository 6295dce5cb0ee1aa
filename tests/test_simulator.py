import dataclasses

import numpy as np
import pytest
from reference_kernel import _serve_queue_impl

from triagesim import (
    DeviceOperatingPoint,
    ParameterError,
    QueueDiscipline,
    WorkflowParams,
    mmc_fifo_wait,
    run_replications,
    trial_stream,
)
from triagesim.simulator import PatientStream, batch_mean_se, generate_stream, replay_stream

PRIORITY_DISCIPLINES = (QueueDiscipline.AI_PRIORITY, QueueDiscipline.AI_PRIORITY_PREEMPTIVE)


def make_params(**overrides):
    defaults = dict(
        prevalence=0.2,
        mean_interarrival=4.0,
        n_radiologists=2,
        read_time_diseased=6.0,
        read_time_nondiseased_effective=6.0,
        device=DeviceOperatingPoint(0.9, 0.05),
    )
    defaults.update(overrides)
    return WorkflowParams(**defaults)


def outcomes(params, discipline, n, seed=(3, 0)):
    stream = generate_stream(params, n, trial_stream(*seed))
    return replay_stream(stream, params.n_radiologists, discipline)


def hand_stream(arrival, service, flagged):
    flagged = np.array(flagged, dtype=bool)
    return PatientStream(
        np.array(arrival, dtype=float), np.array(service, dtype=float), flagged, flagged
    )


def preemptive_matching_reference(stream, n_servers):
    """The preemptive replay, checked bit for bit against the reference kernel."""
    out = replay_stream(stream, n_servers, QueueDiscipline.AI_PRIORITY_PREEMPTIVE)
    start, suspended = _serve_queue_impl(
        stream.arrival, stream.service, stream.flagged, n_servers, True, True
    )
    assert np.array_equal(out.start, start) and np.array_equal(out.suspended, suspended)
    return out


def assert_outcomes_equal(a, b):
    for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
        assert np.array_equal(x, y)


class TestSingleTrial:
    def test_empty_queue_limit(self):
        # With far more radiologists than load, nobody waits and the diseased
        # TAT is just the diseased read time.
        params = make_params(n_radiologists=50, prevalence=0.5)
        out = outcomes(params, QueueDiscipline.FIFO, 5000)
        assert np.all(out.wait == 0.0)
        diseased_tat = out.tat[out.diseased]
        se = 12.0 / np.sqrt(diseased_tat.size)
        params_reads = make_params(
            n_radiologists=50, prevalence=0.5, read_time_diseased=12.0
        )
        out = outcomes(params_reads, QueueDiscipline.FIFO, 5000)
        assert abs(out.tat[out.diseased].mean() - 12.0) <= 3 * se

    def test_disciplines_identical_when_nothing_flagged(self):
        params = make_params(device=DeviceOperatingPoint(0.0, 0.0))
        fifo = outcomes(params, QueueDiscipline.FIFO, 20_000, (9, 4))
        prio = outcomes(params, QueueDiscipline.AI_PRIORITY, 20_000, (9, 4))
        assert_outcomes_equal(fifo, prio)

    def test_mm1_wait_matches_closed_form(self):
        # prevalence 1 makes it a plain M/M/1 with mean service 6 against
        # mean inter-arrival 10: Wq = 9 minutes.
        params = make_params(
            prevalence=1.0,
            mean_interarrival=10.0,
            n_radiologists=1,
            read_time_diseased=6.0,
        )
        out = outcomes(params, QueueDiscipline.FIFO, 100_000, (21, 0))
        expected = mmc_fifo_wait(0.1, 1.0 / 6.0, 1)
        se = batch_mean_se(out.wait)
        assert abs(out.wait.mean() - expected) <= 3 * se

    def test_bit_identical_repetition(self):
        params = make_params()
        a = outcomes(params, QueueDiscipline.AI_PRIORITY, 10_000, (7, 2))
        b = outcomes(params, QueueDiscipline.AI_PRIORITY, 10_000, (7, 2))
        assert_outcomes_equal(a, b)
        again = run_replications(params, 2, 10_000, 7)
        assert run_replications(params, 2, 10_000, 7) == again

    def test_utilization_bounds(self):
        params = make_params()
        out = outcomes(params, QueueDiscipline.FIFO, 20_000, (1, 0))
        busy = out.service.sum() / (params.n_radiologists * out.completion.max())
        assert 0.0 < busy < 1.0
        assert out.tat[out.diseased].mean() >= out.wait[out.diseased].mean()

    def test_validation(self):
        params = make_params()
        with pytest.raises(ParameterError):
            run_replications(params, 2, 0, 1)
        with pytest.raises(ParameterError):
            run_replications(params, 1, 100, 1)
        for burn_in in (-1, 10):
            with pytest.raises(ParameterError, match="burn_in"):
                run_replications(params, 2, 10, 1, burn_in=burn_in)

    def test_trial_without_diseased_exam_is_rejected(self):
        # At seed 0, trial 1's 50 patients hold no diseased exam and trials 0
        # and 2 do: a mean over none would be NaN.
        params = make_params(prevalence=0.02)
        with pytest.raises(ParameterError, match="trial 1 has no diseased exam after burn-in"):
            run_replications(params, 3, 50, 0)

    @pytest.mark.parametrize(
        "arrival, service, n_servers",
        [
            ([0.0, 1.0], [1.0, 1.0], 0),
            ([0.0, 1.0], [1.0, 1.0], -1),
            ([0.0, 1.0], [1.0, 1.0], 2.5),
            ([5.0, 1.0], [1.0, 1.0], 1),
            ([0.0, np.nan], [1.0, 1.0], 1),
            ([0.0, 1.0, 2.0], [1.0, 1.0], 1),
            ([0.0, 1.0], [1.0, -1.0], 1),
            ([0.0, 1.0], [1.0, np.nan], 1),
        ],
        ids=[
            "no readers",
            "negative readers",
            "fractional readers",
            "decreasing arrivals",
            "nan arrival",
            "fewer read times than arrivals",
            "negative read time",
            "nan read time",
        ],
    )
    def test_replay_rejects_bad_inputs(self, arrival, service, n_servers):
        flagged = np.zeros(len(arrival), bool)
        flagged[-1] = True
        stream = PatientStream(np.array(arrival), np.array(service), flagged, flagged)
        for discipline in QueueDiscipline:
            with pytest.raises(ParameterError):
                replay_stream(stream, n_servers, discipline)

    def test_burn_in_excluded_from_counts(self):
        # Trial k's saving is the mean over the diseased exams after the
        # first burn_in exams of its stream, and over no others.
        params = make_params()
        estimate = run_replications(params, 2, 5000, 1, burn_in=1000)
        stream = generate_stream(params, 5000, trial_stream(1, 1))
        fifo = replay_stream(stream, params.n_radiologists, QueueDiscipline.FIFO)
        prio = replay_stream(stream, params.n_radiologists, QueueDiscipline.AI_PRIORITY)
        saved = (fifo.tat - prio.tat)[stream.diseased]
        kept = stream.diseased[1000:].sum()
        assert 0 < kept < stream.diseased.sum()
        assert estimate.per_trial_savings[1] == float(saved[-kept:].mean())
        assert estimate.per_trial_savings[1] != float(saved.mean())


class TestQueueInvariants:
    def test_conservation_every_exam_served_once(self):
        params = make_params(mean_interarrival=3.1)
        for discipline in PRIORITY_DISCIPLINES:
            out = outcomes(params, discipline, 20_000)
            assert out.start.shape == (20_000,)
            assert np.all(np.isfinite(out.start))
            assert np.all(out.start >= out.arrival)
            assert np.all(out.suspended >= 0.0)
            assert np.all(out.completion >= out.start + out.service)

    def test_work_conservation_no_idle_while_waiting(self):
        # Any exam that waited must start exactly when some exam completed.
        params = make_params(mean_interarrival=3.1)
        out = outcomes(params, QueueDiscipline.AI_PRIORITY, 5000)
        completions = set(out.completion.tolist())
        waited = out.wait > 0
        assert waited.any()
        for start in out.start[waited]:
            assert start in completions

    def test_priority_dispatch_correctness(self):
        # At any dispatch instant, no unflagged exam may start while a
        # flagged exam that already arrived is still waiting.
        params = make_params(mean_interarrival=3.5, device=DeviceOperatingPoint(0.9, 0.3))
        out = outcomes(params, QueueDiscipline.AI_PRIORITY, 4000)
        flagged = out.flagged
        arr_f = out.arrival[flagged][:, None]
        start_f = out.start[flagged][:, None]
        start_u = out.start[~flagged][None, :]
        waited_u = (out.wait[~flagged] > 0)[None, :]
        violated = (arr_f < start_u) & (start_f > start_u) & waited_u
        assert not violated.any()

    def test_within_class_fifo_order(self):
        params = make_params(mean_interarrival=3.5, device=DeviceOperatingPoint(0.9, 0.3))
        for discipline in PRIORITY_DISCIPLINES:
            out = outcomes(params, discipline, 4000)
            for mask in (out.flagged, ~out.flagged):
                starts = out.start[mask]  # already in arrival order
                assert np.all(np.diff(starts) >= 0)

    def test_total_work_invariant_between_disciplines(self):
        # Equal service means: reordering exams cannot change the overall
        # mean TAT beyond pairing noise.
        params = make_params(mean_interarrival=3.2)
        stream = generate_stream(params, 50_000, trial_stream(13, 0))
        fifo = replay_stream(stream, params.n_radiologists, QueueDiscipline.FIFO)
        for discipline in PRIORITY_DISCIPLINES:
            prio = replay_stream(stream, params.n_radiologists, discipline)
            diff = fifo.tat - prio.tat
            se = batch_mean_se(diff)
            assert abs(diff.mean()) <= 3 * max(se, 1e-12)

    def test_savings_positive_under_clean_flags_at_load(self):
        # fpf = 0 with tpf > 0 at rho >= 0.5 must help the diseased exams.
        params = make_params(
            prevalence=0.05,
            mean_interarrival=4.8,
            n_radiologists=1,
            read_time_diseased=3.0,
            read_time_nondiseased_effective=3.0,
            device=DeviceOperatingPoint(0.9, 0.0),
        )
        assert params.utilization >= 0.5
        estimate = run_replications(params, 3, 100_000, 17)
        assert estimate.mean_savings > 0


class TestPreemptiveResume:
    def test_flagged_arrival_interrupts_unflagged_read(self):
        # One reader: the unflagged read (0 to 10) is suspended from 2 to 5
        # while the flagged exam is read, then resumes with 8 minutes left.
        stream = hand_stream([0.0, 2.0], [10.0, 3.0], [False, True])
        out = replay_stream(stream, 1, QueueDiscipline.AI_PRIORITY_PREEMPTIVE)
        assert out.completion.tolist() == [13.0, 5.0]
        assert out.start.tolist() == [0.0, 2.0]
        assert out.suspended.tolist() == [3.0, 0.0]
        assert out.wait.tolist() == [3.0, 0.0]
        assert out.tat.tolist() == [13.0, 3.0]
        plain = replay_stream(stream, 1, QueueDiscipline.AI_PRIORITY)
        assert plain.completion.tolist() == [10.0, 13.0]

    def test_interrupts_the_unflagged_exam_that_arrived_last(self):
        # Two readers hold unflagged exams 0 and 1; the flagged exam 2 takes
        # exam 1's reader, and exam 1 resumes when exam 2 finishes.
        stream = hand_stream([0.0, 1.0, 2.0], [10.0, 10.0, 3.0], [False, False, True])
        out = replay_stream(stream, 2, QueueDiscipline.AI_PRIORITY_PREEMPTIVE)
        assert out.completion.tolist() == [10.0, 14.0, 5.0]
        assert out.suspended.tolist() == [0.0, 3.0, 0.0]
        # A reader holding a flagged exam is never the one interrupted.
        stream = hand_stream([0.0, 1.0, 2.0], [10.0, 10.0, 3.0], [False, True, True])
        out = replay_stream(stream, 2, QueueDiscipline.AI_PRIORITY_PREEMPTIVE)
        assert out.completion.tolist() == [13.0, 11.0, 5.0]
        assert out.suspended.tolist() == [3.0, 0.0, 0.0]

    def test_interrupted_exam_resumes_ahead_of_unflagged_queue(self):
        # Exam 1 queues behind exam 0; the interrupted exam 0 goes back to
        # the head of the unflagged queue, so it finishes before exam 1 starts.
        stream = hand_stream([0.0, 1.0, 2.0], [4.0, 1.0, 3.0], [False, False, True])
        out = replay_stream(stream, 1, QueueDiscipline.AI_PRIORITY_PREEMPTIVE)
        assert out.completion.tolist() == [7.0, 8.0, 5.0]
        assert out.start.tolist() == [0.0, 7.0, 2.0]

    def test_flagged_arrival_queues_when_every_reader_holds_a_flagged_exam(self):
        stream = hand_stream(
            [0.0, 0.5, 1.0, 2.0], [5.0, 6.0, 1.0, 1.0], [True, True, True, False]
        )
        out = replay_stream(stream, 2, QueueDiscipline.AI_PRIORITY_PREEMPTIVE)
        assert out.start.tolist() == [0.0, 0.5, 5.0, 6.0]
        assert out.completion.tolist() == [5.0, 6.5, 6.0, 7.0]
        assert not out.suspended.any()

    def test_read_interrupted_twice_sums_both_pauses(self):
        # One reader: exam 0 is paused from 2 to 5 by exam 1, resumes with 8
        # minutes left, is paused again from 7 to 9 by exam 2 and finishes
        # its last 6 minutes at 15.
        stream = hand_stream([0.0, 2.0, 7.0], [10.0, 3.0, 2.0], [False, True, True])
        out = preemptive_matching_reference(stream, 1)
        assert out.start.tolist() == [0.0, 2.0, 7.0]
        assert out.suspended.tolist() == [5.0, 0.0, 0.0]
        assert out.completion.tolist() == [15.0, 5.0, 9.0]

    def test_waiting_resumes_go_last_in_first_out(self):
        # Two readers: flagged exam 2 interrupts exam 1 at 2, then flagged
        # exam 3 interrupts exam 0 at 3. Exam 0, interrupted last, resumes
        # first, when exam 2 finishes at 7; exam 1 resumes at 8.
        stream = hand_stream(
            [0.0, 1.0, 2.0, 3.0], [10.0, 10.0, 5.0, 5.0], [False, False, True, True]
        )
        out = preemptive_matching_reference(stream, 2)
        assert out.start.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert out.suspended.tolist() == [4.0, 6.0, 0.0, 0.0]
        assert out.completion.tolist() == [14.0, 17.0, 7.0, 8.0]

    def test_flagged_arrival_at_a_completion_interrupts_the_exam_that_took_it(self):
        # One reader frees at 4, the instant flagged exam 2 arrives. The
        # completion comes first, so waiting exam 1 starts at 4 and is at
        # once interrupted with its whole read time left.
        stream = hand_stream([0.0, 1.0, 4.0], [4.0, 3.0, 2.0], [False, False, True])
        out = preemptive_matching_reference(stream, 1)
        assert out.start.tolist() == [0.0, 4.0, 4.0]
        assert out.suspended.tolist() == [0.0, 2.0, 0.0]
        assert out.completion.tolist() == [4.0, 9.0, 6.0]
        plain = replay_stream(stream, 1, QueueDiscipline.AI_PRIORITY)
        assert plain.start.tolist() == [0.0, 4.0, 7.0]

    def test_flagged_exams_queue_in_order_behind_flagged_reads(self):
        # Both readers hold flagged exams (until 5 and 8) when flagged exams
        # 3 and 4 arrive, so nothing is interrupted: exam 3 takes the reader
        # freed at 5, exam 4 the one freed at 7, and unflagged exam 2, which
        # arrived before both, waits until 8.
        stream = hand_stream(
            [0.0, 1.0, 1.5, 2.0, 3.0],
            [5.0, 7.0, 1.0, 2.0, 1.0],
            [True, True, False, True, True],
        )
        out = preemptive_matching_reference(stream, 2)
        assert out.start.tolist() == [0.0, 1.0, 8.0, 5.0, 7.0]
        assert not out.suspended.any()

    def test_identical_to_fifo_when_nothing_flagged(self):
        params = make_params(device=DeviceOperatingPoint(0.0, 0.0))
        stream = generate_stream(params, 20_000, trial_stream(9, 4))
        fifo = replay_stream(stream, params.n_radiologists, QueueDiscipline.FIFO)
        prio = replay_stream(
            stream, params.n_radiologists, QueueDiscipline.AI_PRIORITY_PREEMPTIVE
        )
        assert np.array_equal(fifo.start, prio.start)
        assert np.array_equal(fifo.tat, prio.tat)
        assert not prio.suspended.any()

    def test_last_completion_equal_under_all_disciplines(self):
        # One reader under any work-conserving discipline is busy exactly
        # when work is present, so the queue empties at the same instant.
        # (With several readers the last instant depends on which reader
        # holds the last long read.) Quarter-minute times keep the
        # arithmetic exact and exercise the tie rules.
        params = make_params(
            n_radiologists=1, mean_interarrival=7.0, device=DeviceOperatingPoint(0.9, 0.3)
        )
        drawn = generate_stream(params, 5000, trial_stream(41, 0))
        stream = PatientStream(
            np.round(drawn.arrival * 4) / 4,
            np.round(drawn.service * 4) / 4 + 0.25,
            drawn.diseased,
            drawn.flagged,
        )
        last = {
            d: replay_stream(stream, params.n_radiologists, d).completion.max()
            for d in QueueDiscipline
        }
        assert len(set(last.values())) == 1


class TestReplications:
    def test_no_flags_means_exactly_zero_savings(self):
        params = make_params(device=DeviceOperatingPoint(0.0, 0.0))
        estimate = run_replications(params, 4, 5000, 5)
        assert estimate.mean_savings == 0.0
        assert estimate.per_trial_savings == (0.0, 0.0, 0.0, 0.0)

    def test_everything_flagged_means_exactly_zero_savings(self):
        # Flagging the whole queue reproduces arrival order exactly.
        params = make_params(device=DeviceOperatingPoint(1.0, 1.0))
        estimate = run_replications(params, 4, 5000, 5)
        assert estimate.mean_savings == 0.0

    def test_workers_bit_identical(self):
        params = make_params()
        seq = run_replications(params, 6, 4000, 23, workers=1)
        par = run_replications(params, 6, 4000, 23, workers=3)
        assert seq == par

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_is_rejected(self, workers):
        with pytest.raises(ParameterError, match=f"workers must be >= 1, got {workers}"):
            run_replications(make_params(), 4, 1000, 23, workers=workers)

    def test_workers_without_forkserver_is_rejected(self, monkeypatch):
        import triagesim.simulator as simulator

        monkeypatch.setattr(simulator.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(ParameterError, match="forkserver"):
            run_replications(make_params(), 4, 1000, 23, workers=2)
        # One worker never starts a process, so it runs anywhere.
        assert run_replications(make_params(), 4, 1000, 23, workers=1).n_trials == 4

    def test_range_and_mean_ordering(self):
        params = make_params()
        estimate = run_replications(params, 30, 4000, 31)
        low, high = estimate.range95
        assert low <= estimate.mean_savings <= high
        assert estimate.n_trials == 30
        assert len(estimate.per_trial_savings) == 30

    def test_trials_are_order_independent(self):
        # Trial k alone must reproduce the k-th entry of the batch.
        params = make_params()
        batch = run_replications(params, 5, 3000, 99)
        stream = generate_stream(params, 3000, trial_stream(99, 3))
        fifo = replay_stream(stream, params.n_radiologists, QueueDiscipline.FIFO)
        prio = replay_stream(stream, params.n_radiologists, QueueDiscipline.AI_PRIORITY)
        saving = float((fifo.tat - prio.tat)[stream.diseased].mean())
        assert batch.per_trial_savings[3] == saving


class TestSweepMonotonicity:
    def studied(self, interarrival, c):
        return WorkflowParams(
            prevalence=0.00319,
            mean_interarrival=interarrival,
            n_radiologists=c,
            read_time_diseased=12.1,
            read_time_nondiseased_effective=6.15,
            device=DeviceOperatingPoint(0.906, 0.00206),
        )

    @staticmethod
    def nonincreasing_within_noise(estimates):
        # A step up only counts as a violation when the 95% trial ranges
        # around the two means do not overlap.
        for a, b in zip(estimates, estimates[1:]):
            if b.mean_savings > a.mean_savings:
                if b.range95[0] > a.range95[1]:
                    return False
        return True

    def test_savings_decrease_with_staffing_and_slack(self):
        grid = {}
        for interarrival in (2.25, 2.75, 3.25, 3.75):
            for c in (3, 4):
                grid[(interarrival, c)] = run_replications(
                    self.studied(interarrival, c), 10, 20_000, 73
                )
        for interarrival in (2.25, 2.75, 3.25, 3.75):
            assert self.nonincreasing_within_noise(
                [grid[(interarrival, 3)], grid[(interarrival, 4)]]
            )
        for c in (3, 4):
            assert self.nonincreasing_within_noise(
                [grid[(x, c)] for x in (2.25, 2.75, 3.25, 3.75)]
            )


class TestBatchMeanSe:
    def test_iid_scale(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0.0, 2.0, 100_000)
        se = batch_mean_se(values)
        naive = 2.0 / np.sqrt(values.size)
        assert 0.5 * naive < se < 2.0 * naive

    def test_short_series(self):
        assert batch_mean_se(np.arange(10.0)) > 0

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_values_rejected(self, n):
        with pytest.raises(ParameterError):
            batch_mean_se(np.arange(float(n)))

    def test_two_values(self):
        assert batch_mean_se(np.array([1.0, 3.0])) == 1.0
