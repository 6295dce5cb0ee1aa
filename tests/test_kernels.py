"""Differential check of the heap kernel against the reference event-scan
kernel in reference_kernel.py: start and suspended times must be equal bit
for bit under every discipline. Then properties every replay must have,
checked with hypothesis over small random streams.

Continuous draws almost never put two events at the same instant, so the
tie rules ("completions before arrivals, lowest exam id first") are only
exercised by the integer-valued streams, where simultaneous arrivals and
completions are common.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernel import _serve_queue_impl

from triagesim import DeviceOperatingPoint, QueueDiscipline, WorkflowParams, trial_stream
from triagesim.simulator import PatientStream, generate_stream, replay_stream

N_INTEGER_STREAMS = 2000


def assert_matches_reference(stream, n_servers):
    for discipline in QueueDiscipline:
        preempt = discipline is QueueDiscipline.AI_PRIORITY_PREEMPTIVE
        ref_start, ref_suspended = _serve_queue_impl(
            stream.arrival,
            stream.service,
            stream.flagged,
            n_servers,
            discipline is not QueueDiscipline.FIFO,
            preempt,
        )
        out = replay_stream(stream, n_servers, discipline)
        assert np.array_equal(out.start, ref_start), discipline
        assert np.array_equal(out.suspended, ref_suspended), discipline


def studied(mean_interarrival, n_radiologists, device=DeviceOperatingPoint(0.906, 0.00206)):
    return WorkflowParams(
        prevalence=0.00319,
        mean_interarrival=mean_interarrival,
        n_radiologists=n_radiologists,
        read_time_diseased=12.1,
        read_time_nondiseased_effective=6.15,
        device=device,
    )


@pytest.mark.parametrize(
    "params, n_patients",
    [
        (studied(2.17, 3), 100_000),  # work-hour reference point
        (studied(3.19, 3), 100_000),  # off-hour reference point
        (studied(0.45, 16), 30_000),  # 16 readers at utilisation 0.86
        # a 42% flag share, so that preemption is frequent
        (studied(2.3, 3, DeviceOperatingPoint(0.906, 0.42)), 30_000),
        # one reader at utilisation 0.98, so queues and resumes run long
        (studied(6.3, 1), 30_000),
        # two readers with half the exams flagged
        (studied(3.5, 2, DeviceOperatingPoint(0.906, 0.5)), 30_000),
    ],
    ids=["work-hour", "off-hour", "c16", "flag-share-42", "c1-rho-98", "c2-flag-share-50"],
)
def test_continuous_streams_match_reference(params, n_patients):
    stream = generate_stream(params, n_patients, trial_stream(42, 0))
    assert_matches_reference(stream, params.n_radiologists)


def test_integer_streams_match_reference():
    # Gaps in {0, 1, 2} and read times in 1..5 put arrivals and completions
    # on a shared integer grid, so ties are the rule, not the exception.
    rng = np.random.default_rng(2024)
    tied = 0
    for _ in range(N_INTEGER_STREAMS):
        n = int(rng.integers(5, 60))
        n_servers = int(rng.integers(1, 5))
        arrival = np.cumsum(rng.integers(0, 3, n)).astype(float)
        service = rng.integers(1, 6, n).astype(float)
        flagged = rng.random(n) < rng.random()
        stream = PatientStream(arrival, service, flagged, flagged)
        assert_matches_reference(stream, n_servers)
        fifo = replay_stream(stream, n_servers, QueueDiscipline.FIFO)
        tied += bool(np.isin(fifo.completion, arrival).any())
    # Most streams must contain a completion at an arrival instant, or the
    # tie rules went untested.
    assert tied > N_INTEGER_STREAMS // 2


def test_long_integer_streams_match_reference():
    # Long streams with read times up to 4c + 1 keep several readers busy
    # for many arrivals, so a preemption often has to pass over unflagged
    # exams that have already finished or are themselves interrupted to
    # find the one in service with the highest id.
    rng = np.random.default_rng(2025)
    for _ in range(300):
        n = int(rng.integers(100, 500))
        n_servers = int(rng.integers(1, 9))
        arrival = np.cumsum(rng.integers(0, 3, n)).astype(float)
        service = rng.integers(1, 4 * n_servers + 2, n).astype(float)
        flagged = rng.random(n) < rng.random()
        assert_matches_reference(PatientStream(arrival, service, flagged, flagged), n_servers)


# Properties every replay must have, over small random streams. Integer
# gaps and read times make simultaneous events common, as above.
@st.composite
def small_streams(draw):
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    service = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    flagged = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    arrival = np.cumsum(gaps).astype(float)
    stream = PatientStream(arrival, np.array(service, float), flagged, flagged)
    return stream, draw(st.integers(1, 4))


PROPERTIES = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def occupancy(begin, end):
    """Event times, and how many [begin, end) intervals are open just after
    each; at equal times intervals end before others begin."""
    times = np.concatenate([begin, end])
    steps = np.concatenate([np.ones(begin.size), -np.ones(end.size)])
    order = np.lexsort((steps, times))
    return times[order], np.cumsum(steps[order])


def max_in_service(start, service):
    return int(occupancy(start, start + service)[1].max())


@PROPERTIES
@given(small_streams())
def test_every_exam_is_served_once(case):
    stream, n_servers = case
    for discipline in QueueDiscipline:
        out = replay_stream(stream, n_servers, discipline)
        assert np.all(out.start >= stream.arrival), discipline
        assert np.all(out.suspended >= 0), discipline
        if discipline is QueueDiscipline.AI_PRIORITY_PREEMPTIVE:
            # Only unflagged exams are interrupted; flagged ones hold one
            # reader from start to completion, so at most n_servers at once.
            flag = stream.flagged
            assert np.all(out.suspended[flag] == 0)
            if flag.any():
                assert max_in_service(out.start[flag], stream.service[flag]) <= n_servers
        else:
            assert np.all(out.suspended == 0), discipline
            assert max_in_service(out.start, stream.service) <= n_servers, discipline


@PROPERTIES
@given(small_streams())
def test_no_reader_idles_while_an_exam_waits(case):
    stream, n_servers = case
    for discipline in QueueDiscipline:
        # The integral over time of min(readers, exams present) equals the
        # total read time exactly when no reader idles while an exam waits.
        out = replay_stream(stream, n_servers, discipline)
        times, present = occupancy(out.arrival, out.completion)
        busy = np.sum(np.minimum(present[:-1], n_servers) * np.diff(times))
        assert busy == pytest.approx(stream.service.sum()), discipline


@PROPERTIES
@given(small_streams())
def test_fifo_order_within_a_class(case):
    stream, n_servers = case
    fifo = replay_stream(stream, n_servers, QueueDiscipline.FIFO)
    assert np.all(np.diff(fifo.start) >= 0)
    for discipline in (QueueDiscipline.AI_PRIORITY, QueueDiscipline.AI_PRIORITY_PREEMPTIVE):
        out = replay_stream(stream, n_servers, discipline)
        for members in (stream.flagged, ~stream.flagged):
            assert np.all(np.diff(out.start[members]) >= 0), discipline


@PROPERTIES
@given(small_streams())
def test_flagged_exams_are_dispatched_first(case):
    # No unflagged exam starts while a flagged one that arrived earlier
    # still waits. An arrival at the instant of a start does not count:
    # completions, and the dispatches they make, come before arrivals.
    stream, n_servers = case
    flagged = stream.flagged
    for discipline in (QueueDiscipline.AI_PRIORITY, QueueDiscipline.AI_PRIORITY_PREEMPTIVE):
        out = replay_stream(stream, n_servers, discipline)
        plain_start = out.start[~flagged][:, None]
        waiting = (stream.arrival[flagged] < plain_start) & (plain_start < out.start[flagged])
        assert not waiting.any(), discipline


@PROPERTIES
@given(small_streams())
def test_total_work_is_equal_across_disciplines(case):
    # One reader works whenever anything is present, so the work left in
    # the system, and the instants it falls to zero, do not depend on the
    # order of service. (With more readers the busy count depends on it.)
    stream, _ = case
    ends = []
    for discipline in QueueDiscipline:
        out = replay_stream(stream, 1, discipline)
        times, present = occupancy(out.arrival, out.completion)
        ends.append(times[present == 0])
    assert np.array_equal(ends[0], ends[1]) and np.array_equal(ends[0], ends[2])
