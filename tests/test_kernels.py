"""Differential check of the heap kernels against the reference event-scan
kernel in reference_kernel.py: start and suspended times must be equal bit
for bit under every discipline.

Continuous draws almost never put two events at the same instant, so the
tie rules ("completions before arrivals, lowest exam id first") are only
exercised by the integer-valued streams, where simultaneous arrivals and
completions are common.
"""
import numpy as np
import pytest
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
    ],
    ids=["work-hour", "off-hour", "c16", "flag-share-42"],
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
